"""The identity pass of a diagonal T walks its diagonal column.

Every power and mean of the identity block of a diagonal T is a diagonal
matrix, so a ``dense`` pass walks the (dim, 1) column of ones instead and
reads each induced norm of diag(a) as max |a_i|.  These tests hold it to
the (dim, dim) identity walk that every other kind takes, run as an oracle
(`reference.dense_identity`): every field of the pass, every verdict and
every walk.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from ergorank.cesaro import CesaroStream
from ergorank.classify import FAILS, _diagonal_norm, _identity_block, _scan, check_families, replay_witness
from ergorank.operators import KIND_DIAGONAL, OperatorSpec, default_probes, matrix_norm

from reference import dense_identity, few_default_probes
from test_classify import _bench_workloads

_ENTRIES = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 1.25, -1.25, 1e-300]), st.floats(-1.3, 1.3))


@st.composite
def _cases(draw):
    """A diagonal spec of dim 1-300, a horizon and a cap: a cap of 1 or 1e3
    stops most growing passes at their witnesses, and 1e300 lets them walk
    to the overflow stop (near step 1 450 at |a| = 1.25), at dims up to 64."""
    dim = draw(st.one_of(st.integers(1, 40), st.integers(41, 300)))
    entries = draw(st.lists(_ENTRIES, min_size=dim, max_size=dim))
    if draw(st.booleans()):  # a few large entries among many small ones, as the wide diagonals have
        entries = [v * 0.5 for v in entries]
        for i in draw(st.lists(st.integers(0, dim - 1), max_size=4)):
            entries[i] = draw(st.sampled_from([1.0, 1.25, -1.25]))
    norm = draw(st.sampled_from(["l1", "l2", "linf"]))
    horizon = draw(st.sampled_from([1, 2, 64, 300] + ([1500] if dim <= 64 else [])))
    cap = draw(st.sampled_from([1.0, 1e3, 1e300]))
    return OperatorSpec(KIND_DIAGONAL, dim, entries, norm), horizon, cap


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _same(packed, dense):
    """Whether a packed block holds the diagonal of a dense one bit for bit
    and the dense one is +0.0 off its diagonal."""
    return np.array_equal(_bits(np.diag(packed[:, 0])), _bits(dense))


def _assert_scans_agree(packed, dense):
    assert packed.keys() == dense.keys()
    for h, p in packed.items():
        d = dense[h]
        for name in ("horizon", "cap", "steps", "walked", "diverged_at", "bracket", "powers", "power_hit"):
            assert getattr(p, name) == getattr(d, name), name
        assert (p.means is None) == (d.means is None) and np.array_equal(_bits(p.means), _bits(d.means))
        assert (p.mean_hit is None) == (d.mean_hit is None)
        if p.mean_hit is not None:
            assert p.mean_hit[0] == d.mean_hit[0] and np.array_equal(_bits(p.mean_hit[1]), _bits(d.mean_hit[1]))
            assert type(p.mean_hit[2]) is float and _bits(p.mean_hit[2]) == _bits(d.mean_hit[2])
        assert p.snapshots.keys() == d.snapshots.keys()
        assert all(_same(p.snapshots[n], d.snapshots[n]) for n in p.snapshots)
        for name in ("low", "high"):
            assert (getattr(p, name) is None) == (getattr(d, name) is None), name
            assert getattr(p, name) is None or _same(getattr(p, name), getattr(d, name)), name
        assert (p.tail_bracket is None) == (d.tail_bracket is None)
        if p.tail_bracket is not None:
            assert all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(p.tail_bracket, d.tail_bracket))
        assert p.stream.diverged_at == d.stream.diverged_at
        assert (p.stream.anchor is None) == (d.stream.anchor is None)
        if p.stream.anchor is not None:
            (ps, pp, s), (ds, dp, t) = p.stream.anchor, d.stream.anchor
            assert s == t and _same(ps, ds) and _same(pp, dp)


def _walked(run):
    """The result of `run()` and, per stream walk it takes, its steps, its
    block's width and whether it is packed."""
    walks, real = [], CesaroStream.chunks

    def chunks(stream, horizon, reads=None):
        walks.append([0, stream.X.shape[1], stream.packed])
        for chunk in real(stream, horizon, reads):
            walks[-1][0] += len(chunk.powers)
            yield chunk

    with mock.patch.object(CesaroStream, "chunks", chunks):
        return run(), [tuple(w) for w in walks]


def _as_dense(walks, dim):
    """Each walk's steps and the width of the block it stands for, dim for a
    packed walk, which must be one column wide."""
    assert all(width == 1 for _, width, packed in walks if packed)
    return [(steps, dim if packed else width) for steps, width, packed in walks]


def _evidence(verdict):
    return {k: np.asarray(v).tolist() if isinstance(v, (np.ndarray, np.generic)) else v
            for k, v in verdict.evidence.items()}


@given(_cases())
@settings(max_examples=40, deadline=None)
@example((OperatorSpec(KIND_DIAGONAL, 256, [1.25] * 4 + [0.5] * 252, "l2"), 2000, 1e3))
@example((OperatorSpec(KIND_DIAGONAL, 3, [1.25, -1.0, 1e-300], "l1"), 1500, 1e300))
@example((OperatorSpec(KIND_DIAGONAL, 64, [1.25, -1.25] + [0.5] * 62, "l2"), 1500, 1e300))
@example((OperatorSpec(KIND_DIAGONAL, 20, [1.0, 0.0, 1e-300, 1e-200] * 5, "l2"), 1500, 1e3))
@example((OperatorSpec(KIND_DIAGONAL, 2, [0.5, 1e-300], "l2"), 64, 1.0))
def test_a_diagonal_identity_pass_walks_its_column_as_the_dense_block(case):
    # Every field of the pass (its maxima, hits, snapshots, envelope,
    # anchor and overflow stop), every verdict with its evidence, and every
    # walk equal those of the dense identity walk: the same steps, each
    # identity walk packed into one column.
    spec, horizon, cap = case
    ue, tol = min(256, horizon), 1e-2
    X = _identity_block(spec)
    assert X.shape == (spec.dim, 1) and np.all(X == 1.0)
    packed, walks = _walked(lambda: _scan(spec, X, "dense", [horizon, ue], cap, [ue], tol))
    with dense_identity():
        dense, dense_walks = _walked(lambda: _scan(spec, np.eye(spec.dim), "dense", [horizon, ue], cap, [ue], tol))
    _assert_scans_agree(packed, dense)
    assert _as_dense(walks, spec.dim) == _as_dense(dense_walks, spec.dim) and all(w[2] for w in walks)

    probes = few_default_probes(spec, 2)
    families, walks = _walked(lambda: check_families(spec, probes, horizon, tol, cap, ue))
    with dense_identity():
        oracle, dense_walks = _walked(lambda: check_families(spec, probes, horizon, tol, cap, ue))
    assert _as_dense(walks, spec.dim) == _as_dense(dense_walks, spec.dim)
    for verdict, expected in zip(families, oracle):
        assert (verdict is None) == (expected is None)
        if verdict is None:
            continue
        assert verdict.to_json_dict() == expected.to_json_dict()
        assert _evidence(verdict) == _evidence(expected)
        if verdict.status == FAILS and verdict.witness.get("mode") == "dense":
            assert replay_witness(spec, verdict) == (verdict.witness["value"], True)
            with dense_identity():
                assert replay_witness(spec, verdict) == (verdict.witness["value"], True)

    # LAPACK's largest singular value of diag(a) is max |a_i| at every dim
    # but 2, which the packed reader reads by its own 2 x 2 SVD.
    a = np.asarray(spec.entries)
    assert _bits(matrix_norm(np.diag(a), "l2")) == _bits(_diagonal_norm(a[:, None], "l2"))
    assert spec.dim == 2 or _bits(matrix_norm(np.diag(a), "l2")) == _bits(np.abs(a).max())


def test_lapack_rounds_the_largest_singular_value_of_a_2_by_2_diagonal():
    # `dlas2`'s closed form reads diag(0.75, 0.5) one ulp low, so a packed
    # pass of dim 2 reads the SVD of its diagonal, with the dense bits.
    a = np.array([0.75, 0.5])
    assert matrix_norm(np.diag(a), "l2") == 0.7499999999999999
    assert _diagonal_norm(a[:, None], "l2") == 0.7499999999999999
    assert _diagonal_norm(np.stack([a, a[::-1]])[..., None], "l2").tolist() == [0.7499999999999999] * 2
    assert _diagonal_norm(a[:, None], "l1") == _diagonal_norm(a[:, None], "linf") == 0.75


def test_the_wide_overflowing_diagonal_forms_no_dense_block_and_no_svd():
    # overflow-diagonal-256-l2 fails Cesaro-boundedness at A_42 in dense
    # mode: its identity pass walks 42 steps of the (256, 1) column and
    # reads its witness, 1 119.4231912593214 at seed 101, with no SVD.
    spec = _bench_workloads().wide_specs(101)["overflow-diagonal-256-l2"]
    probes = default_probes(spec, seed=101)
    real, svds = np.linalg.svd, []
    with mock.patch.object(np.linalg, "svd", lambda M, **kw: svds.append(M.shape) or real(M, **kw)):
        families, walks = _walked(lambda: check_families(spec, probes, 2000, 1e-2, 1e3, 256))
    assert svds == [] and walks == [(50, 48, False), (42, 1, True)]
    witness = families.uniformly_ergodic.witness
    assert (witness["mode"], witness["n"], witness["value"]) == ("dense", 42, 1119.4231912593214)
    with dense_identity():
        assert replay_witness(spec, families.uniformly_ergodic) == (1119.4231912593214, True)

"""The resolvent certificate of Cauchy tails (`classify._tail_certificate`)
and the rounding allowance it rests on (`classify._deviation`).

A decided pass whose tail the certificate bounds under the tolerance reads
no radius and walks no step.  These tests hold its upper end against
the radius a walk reads and against exact `Fraction` arithmetic, hold the
allowance against exact means, and check what the certificate costs: no
SVD, and one splitting per block.
"""

import contextlib
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

import ergorank.classify
from ergorank.cesaro import CesaroStream
from ergorank.classify import (
    HOLDS,
    INCONCLUSIVE,
    check_ergodic,
    check_families,
    _decay,
    _l2_factor,
    _level_depth,
    _mode_norms,
    _reads,
    _tail_certificate,
)
from ergorank.operators import (
    DENSE_CAP,
    KIND_DENSE,
    KIND_DIAGONAL,
    KIND_SHIFT,
    KIND_SPARSE,
    OperatorSpec,
    ProbeSet,
    basis_probes,
    built_in_gallery,
    default_probes,
    gallery,
)
from reference import as_exact, exact_stream, few_default_probes, reference_tail_radius
from test_classify import (
    HUGE_DIAGONAL, _Walks, _bench_workloads, _exact_dense, _jordan_specs, _serialized, _walking,
)


def _certificate(spec, X, mode, horizon, stream=None):
    """The resolvent certificate's upper end on the tail ending at
    `horizon`, over the reads of a pass of X to it."""
    return _tail_certificate(spec, X, mode, _reads(spec, X, mode, horizon).deviation, stream)(horizon)


@pytest.mark.parametrize("name", ["rotation(1.0)", "scalar(-1.0)", "random_diagonalizable(7,12)"])
def test_a_certified_probe_pass_walks_no_steps_and_serializes_as_a_walk(monkeypatch, name):
    # At the default config the bracket decides the probe pass, and the
    # certificate its tail [5 000, 10 000], so the pass walks no step: every
    # walk is of the identity block.  Every verdict serializes as a forced
    # walk's, and the walked diameters lie under the certified ones.
    spec = gallery(name)
    probes = default_probes(spec)
    walks = _Walks(monkeypatch)
    got = check_families(spec, probes, 10_000, 1e-2, 1e3, 256)
    assert walks.blocks and all(X.shape == (spec.dim, spec.dim) != (spec.dim, len(probes)) for X in walks.blocks)
    assert got.ergodic.status == HOLDS and got.ergodic.evidence["certified"]
    assert (got.ergodic.evidence["steps"], got.power_bounded.evidence["walked"]) == (10_000, 0)
    assert not np.any(got.ergodic.evidence["tail_diameter_lb"])
    with _walking():
        want = check_families(spec, probes, 10_000, 1e-2, 1e3, 256)
    assert _serialized(got) == _serialized(want)
    assert not want.ergodic.evidence["certified"]
    assert np.all(np.asarray(want.ergodic.evidence["tail_diameter_ub"]) <= got.ergodic.evidence["tail_diameter_ub"])


def test_a_tiny_l2_column_reads_its_radius():
    # T = [[1, 1e-170], [0, 1]] has A_n e_2 = e_2 + (n - 1) 1e-170 / 2 e_1,
    # so the radius on e_2 over [500, 1 000] is 2.5e-168, whose square
    # underflows, yet the l2 reader reads it, so ergodicity is not held at
    # tolerance 1e-175.
    spec = OperatorSpec(KIND_DENSE, 2, [[1, 1e-170], [0, 1]], "l2")
    v = check_ergodic(spec, basis_probes(2, "l2"), 1000, 1e-175)
    assert v.status == INCONCLUSIVE
    assert v.evidence["tail_diameter_ub"] == [0.0, pytest.approx(5e-168, rel=1e-12)]


def test_the_certificate_calls_no_svd_and_splits_each_block_once(monkeypatch):
    # Under a multithreaded BLAS a 64x64 SVD can take 100 times an LU solve.
    # Over the gallery at the default config and the wide-operators inputs
    # at horizon 2 000, the certificate calls no SVD, and each
    # `check_families` splits each block at most once.
    inside, svds, splits = [False], [], []
    real_svd, real_split, real_certificate = np.linalg.svd, ergorank.classify._split, ergorank.classify._tail_certificate

    def svd(*args, **kwargs):
        svds.append(inside[0])
        return real_svd(*args, **kwargs)

    def split(spec, X, stream=None):
        splits.append((spec, X))
        return real_split(spec, X, stream)

    def certificate(*args):
        upper = real_certificate(*args)

        def within(*tail):  # the certificate's work runs per tail, on the first one asked for
            inside[0] = True
            try:
                return upper(*tail)
            finally:
                inside[0] = False

        return within

    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(ergorank.classify, "_split", split)
    monkeypatch.setattr(ergorank.classify, "_tail_certificate", certificate)
    cases = [(gallery(name), None, 10_000) for name in built_in_gallery()]
    cases += [(spec, 101, 2000) for spec in _bench_workloads().wide_specs(101).values()]
    certified = 0
    for spec, seed, horizon in cases:
        splits.clear()
        families = check_families(spec, default_probes(spec) if seed is None else default_probes(spec, seed=seed),
                                  horizon, 1e-2, 1e3, 256)
        blocks = [(id(s), X.shape, X.tobytes()) for s, X in splits]
        assert len(blocks) == len(set(blocks)) <= 2, spec
        certified += families.ergodic.evidence["certified"]
    # The dense l2 norms of the small gallery operators are SVDs.  The
    # certificate holds eight gallery probe tails and those of
    # sparse-256-linf, dense-96-l2, diagonal-256-l1 and shift-256-linf:
    # left_shift_l1(64)'s and dense-96-l2's with a decay factor (T^k = 0
    # past dim for the shift, and T^1000 Y from the levels for the dense
    # spec), which their walks read as holding too.
    assert svds and not any(svds)
    assert certified == 12


#: Diagonal entries at the edges of `_decay` and `_split`: at +-1, at the
#: null threshold 2^-20 max |1 - lambda| of the split beside 0 (or -1) and
#: an ulp to either side of it, an ulp under 1 in magnitude, subnormal, and
#: of `HUGE_DIAGONAL`'s size.
_EDGE_ENTRIES = (
    1.0, -1.0, 0.0, 1.0 - 2.0**-20, np.nextafter(1.0 - 2.0**-20, 0.0), np.nextafter(1.0 - 2.0**-20, 1.0),
    1.0 - 2.0**-19, 1.0 - 2.0**-53, -(1.0 - 2.0**-53), 5e-324, -5e-324, 0.5, 1e200, -1e200,
)


@st.composite
def _rough_specs(draw):
    """Specs of all four kinds at dim 1-4, with entries of every size from
    subnormal to 1e200, diagonals of `_EDGE_ENTRIES`, and `HUGE_DIAGONAL`."""
    kind = draw(st.sampled_from([KIND_DENSE, KIND_DIAGONAL, KIND_SHIFT, KIND_SPARSE, "huge", "edge"]))
    if kind == "huge":
        return HUGE_DIAGONAL
    dim, tag = draw(st.integers(1, 4)), draw(st.sampled_from(["l1", "l2", "linf"]))
    if kind == "edge":
        entries = draw(st.lists(st.sampled_from(_EDGE_ENTRIES), min_size=dim, max_size=dim))
        return OperatorSpec(KIND_DIAGONAL, dim, entries, tag)
    scale = draw(st.sampled_from([5e-324, 2.0**-1040, 1e-300, 1e-3, 0.5, 1.0, 1.0 - 2.0**-40, 1e200]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == KIND_DENSE:
        return OperatorSpec(kind, dim, scale * rng.uniform(-1.0, 1.0, (dim, dim)), tag)
    if kind == KIND_DIAGONAL:
        return OperatorSpec(kind, dim, scale * rng.uniform(-1.0, 1.0, dim), tag)
    if kind == KIND_SHIFT:
        return OperatorSpec(kind, dim, scale * rng.uniform(-1.0, 1.0, dim - 1), tag)
    cells = [(r, c) for r in range(dim) for c in range(dim) if rng.uniform() < 0.6] or [(0, 0)]
    return OperatorSpec(kind, dim, [[r, c, scale * rng.uniform(-1.0, 1.0)] for r, c in cells], tag)


def _test_probes(spec, block):
    """The basis probes, a few default probes (the basis and two more), or
    one default probe alone, a block narrower than dim past dim 1."""
    if block == "basis":
        return basis_probes(spec.dim, spec.norm_tag)
    few = few_default_probes(spec, 2)
    return few if block == "few" else ProbeSet(few.vectors[-1:], spec.norm_tag, f"{few.label}[-1:]")


_BLOCKS = st.sampled_from(["basis", "few", "narrow"])


@given(_rough_specs(), st.sampled_from([2, 3, 8, 33, 64]), _BLOCKS)
@example(HUGE_DIAGONAL, 8, "basis")
@example(HUGE_DIAGONAL, 8, "narrow")
@example(OperatorSpec(KIND_DIAGONAL, 1, [5e-324], "l2"), 64, "basis")
@example(OperatorSpec(KIND_DIAGONAL, 3, [1.0 - 2.0**-53, 0.0, 1.0 - 2.0**-20], "l1"), 64, "narrow")
@example(OperatorSpec(KIND_DIAGONAL, 2, [-1.0, 5e-324], "linf"), 33, "narrow")
@example(OperatorSpec(KIND_DENSE, 2, [[1.0, 1e-170], [0.0, 1.0]], "l2"), 64, "basis")
@example(OperatorSpec(KIND_DENSE, 2, [[1.0, 1e-170], [0.0, 1.0]], "l2"), 64, "narrow")
@settings(max_examples=80, deadline=None)
def test_a_certificate_is_at_least_the_walked_radius_or_infinite(spec, horizon, block):
    # Per block (of dim columns or more, or fewer), the certificate's upper
    # end is NaN nowhere, and where it is finite it is at least the radius
    # a walk reads.  At a tolerance that lets it decide (2 / t < 0.5), no
    # NaN reaches a verdict, a certified tail is finite, and every verdict
    # serializes as a forced walk's: an infinite upper end certifies
    # nothing, and the pass walks.
    probes = _test_probes(spec, block)
    for mode, X in (("probe", probes.vectors.T), ("dense", np.eye(spec.dim))):
        upper = _certificate(spec, X, mode, horizon)
        assert not np.any(np.isnan(upper)), mode
        radius = reference_tail_radius(spec, X, horizon, _mode_norms(spec, mode).radius)
        if radius is not None:
            assert np.all(np.where(np.isfinite(upper), radius <= upper, True)), mode
    got = check_families(spec, probes, horizon, 0.5, 1e3, horizon)
    with _walking():
        want = check_families(spec, probes, horizon, 0.5, 1e3, horizon)
    assert _serialized(got) == _serialized(want)
    for v in (got.ergodic, got.uniformly_ergodic):
        ub = v.evidence["tail_diameter_ub"]
        assert ub is None or not np.any(np.isnan(ub))
        assert not v.evidence["certified"] or np.all(np.isfinite(ub))


def _exact_norms(D, tag, mode):
    """Per reader row, a quantity in `Fraction`s that is at most q (q^2 for
    l2) wherever the reader's exact norm of the object array D is at most
    q: the norm itself for l1 and linf; for the l2 norm of a block, its
    largest column's square, which is at most the square of the norm."""
    A = np.abs(D)
    if tag == "l1":
        sums = A.sum(axis=0)
    elif tag == "linf":
        sums = A.max(axis=0) if mode == "probe" else A.sum(axis=1)
    else:
        sums = (D * D).sum(axis=0)
    return list(sums) if mode == "probe" else [max(sums)]


def _within(values, bounds, tag):
    return all(v <= (Fraction(b) ** 2 if tag == "l2" else Fraction(b)) for v, b in zip(values, np.ravel(bounds)))


@st.composite
def _exact_specs(draw):
    """Specs whose entries are exact in binary, so that `exact_stream` is
    their exact stream: Jordan specs, float rotations, and diagonals,
    shifts and sparse specs of dim <= 4 at scales from subnormal to 1,
    whose products round or underflow."""
    kind = draw(st.sampled_from(["jordan", "rotation", KIND_DIAGONAL, KIND_SHIFT, KIND_SPARSE]))
    if kind == "jordan":
        return draw(_jordan_specs()).spec
    tag = draw(st.sampled_from(["l1", "l2", "linf"]))
    if kind == "rotation":
        return OperatorSpec(KIND_DENSE, 2, gallery(f"rotation({draw(st.floats(-4.0, 4.0))!r})").entries, tag)
    return draw(_rough_specs().filter(lambda s: s.kind == kind and s is not HUGE_DIAGONAL))


@given(_exact_specs(), st.sampled_from([1, 2, 7, 33, 64]), st.booleans(), st.booleans())
@example(OperatorSpec(KIND_DIAGONAL, 1, [0.75], "l2"), 8, True, False)
@settings(max_examples=30, deadline=None)
def test_the_deviation_bounds_every_computed_mean_exactly(spec, horizon, dense, tiny):
    # |fl(A_n X) - A_n X| <= delta_N for every n <= N, in `Fraction`s, on
    # the probe block (basis probes, scaled to subnormals when `tiny`, so
    # that products underflow) and on the identity block.
    mode = "dense" if dense else "probe"
    X = np.eye(spec.dim) if dense else basis_probes(spec.dim, spec.norm_tag).vectors.T * (5e-324 if tiny else 1.0)
    _, _, power, deviation = _reads(spec, X, mode, horizon).deviation(horizon)
    if power == math.inf:
        return
    exact = {n: A for n, A, *_ in exact_stream(spec, X, horizon)[0]}
    for chunk in CesaroStream(spec, X).chunks(horizon):
        for i, A in enumerate(chunk.means):
            D = as_exact(A) - exact[chunk.first + i]
            assert _within(_exact_norms(D, spec.norm_tag, mode), deviation, spec.norm_tag), chunk.first + i


@given(st.one_of(_jordan_specs().map(lambda j: j.spec), _exact_specs()), st.sampled_from([2, 8, 33, 64]), st.booleans())
@settings(max_examples=30, deadline=None)
def test_a_certificate_holds_the_exact_and_the_walked_radius(spec, horizon, dense):
    # Wherever the certificate's upper end is finite, the exact radius
    # max_n ||A_n X - A_N X|| over [N/2, N] lies under it, in `Fraction`s,
    # and so does the radius a walk reads.
    mode = "dense" if dense else "probe"
    X = np.eye(spec.dim) if dense else few_default_probes(spec, 1).vectors.T
    upper = _certificate(spec, X, mode, horizon)
    if not np.all(np.isfinite(upper)):
        return
    steps, diverged = exact_stream(spec, X, horizon)
    assert diverged is None
    final = steps[-1][1]
    for n, A, *_ in steps[horizon // 2 - 1 :]:
        assert _within(_exact_norms(A - final, spec.norm_tag, mode), upper, spec.norm_tag), n
    radius = reference_tail_radius(spec, X, horizon, _mode_norms(spec, mode).radius)
    assert np.all(radius <= upper)


@given(_exact_specs(), st.sampled_from([2, 8, 64]), st.sampled_from(["dense", "few", "narrow"]),
       st.integers(0, 2**32 - 1), st.sampled_from(["zero", "fixed", 1e-12, 1e-3, 0.3]))
@example(OperatorSpec(KIND_DIAGONAL, 3, [0.5, -1.0, 1.0 - 2.0**-20], "l1"), 64, "narrow", 1, 0.3)
@settings(max_examples=60, deadline=None)
def test_a_certificate_survives_a_wrong_split(spec, horizon, block, seed, wrong):
    # The certificate reads only the residuals a splitting leaves, so any
    # F and Y give an upper end at least the walked radius, or infinity:
    # F = Y = 0 (all residual), F = X (all claimed fixed), or the split
    # moved by noise of each size, which also moves the support of Y that
    # a diagonal's D reads.  The block is the identity, the basis and a
    # default probe, or that probe alone (fewer columns than dim).
    mode = "dense" if block == "dense" else "probe"
    X = np.eye(spec.dim) if block == "dense" else _test_probes(spec, block).vectors.T
    real, rng = ergorank.classify._split, np.random.default_rng(seed)

    def split(spec, X, stream=None):
        if wrong in ("zero", "fixed"):
            return (X.copy() if wrong == "fixed" else np.zeros_like(X)), np.zeros_like(X)
        F, Y = real(spec, X, stream) or (np.zeros_like(X), np.zeros_like(X))
        return F + wrong * rng.standard_normal(F.shape), Y + wrong * rng.standard_normal(Y.shape)

    with mock.patch.object(ergorank.classify, "_split", split):
        upper = _certificate(spec, X, mode, horizon)
    radius = reference_tail_radius(spec, X, horizon, _mode_norms(spec, mode).radius)
    if radius is not None:
        assert np.all(np.where(np.isfinite(upper), radius <= upper, True))


@given(st.lists(st.sampled_from(_EDGE_ENTRIES + (0.25, -0.75, 0.999)), min_size=1, max_size=4),
       st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 8, 64, 1000]))
@example([5e-324, 0.0], 0, 2)
@example([1.0 - 2.0**-53, 0.5], 0, 1000)
@settings(max_examples=60, deadline=None)
def test_the_decay_bounds_every_power_on_the_support_exactly(entries, seed, horizon):
    # D as the certificate forms it (`_decay`) is at most C and, in
    # `Fraction`s, at least the largest |lambda|^k over t <= k <= N and
    # the rows where Y is not 0 (|lambda|^k is monotone in k, so that
    # largest is at k = t or k = N).  Y has rows of 0 at random, so the
    # support leaves out entries of every size.
    spec = OperatorSpec(KIND_DIAGONAL, len(entries), entries, "l1")
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((spec.dim, 3)) * (rng.uniform(size=(spec.dim, 1)) < 0.6)
    t, C = horizon // 2, _reads(spec, Y, "probe", horizon).deviation(horizon)[2]
    D = _decay(spec, Y, t, C)
    assert D <= C
    if C == math.inf:
        return
    support = [abs(Fraction(float(lam))) for lam, row in zip(entries, Y) if np.any(row != 0.0)]
    assert Fraction(D) >= max((max(a**t, a**horizon) for a in support), default=Fraction(0))


def test_no_narrow_block_above_the_dense_cap_is_split(monkeypatch):
    # A 600-dim sparse spec (a cyclic shift scaled by 1/2, l1) under 48
    # probes: its probe bracket decides and its tail [1 000, 2 000] passes
    # the screen, but `_split` would form 600 x 600 blocks, and no block of
    # the analysis above `DENSE_CAP` is as large, so it is not called.  The
    # same diagonal splits entry by entry, into blocks of the probes' shape.
    dim, splits = 600, []
    real = ergorank.classify._split
    monkeypatch.setattr(ergorank.classify, "_split", lambda spec, X, stream=None: splits.append(X.shape) or real(spec, X, stream))
    sparse = OperatorSpec(KIND_SPARSE, dim, [[i, (i + 1) % dim, 0.5] for i in range(dim)], "l1")
    diagonal = OperatorSpec(KIND_DIAGONAL, dim, np.full(dim, 0.5), "l1")
    for spec, want in ((sparse, []), (diagonal, [(dim, 48)])):
        probes = default_probes(spec)
        assert (len(probes), dim > DENSE_CAP) == (48, True)
        families = check_families(spec, probes, 2000, 1e-2, 1e3, 256)
        assert families.power_bounded.evidence["bracket"] is not None, spec.kind
        assert splits == want and families.ergodic.evidence["certified"] == bool(want), spec.kind
        splits.clear()


@given(_exact_dense(), st.sampled_from([1, 2, 7, 33, 64]), st.booleans(), st.booleans())
@example(OperatorSpec(KIND_DENSE, 2, [[0.5, 0.5], [0.5, -0.5]], "l2"), 64, True, False)
@settings(max_examples=60, deadline=None)
def test_the_l2_path_bounds_every_computed_mean_exactly(spec, horizon, stepped, basis):
    # A dense T read in ||.||_2 grows by r >= ||T||_2 per step, with a
    # rounding factor that follows the kernel the stream runs: per column,
    # (K + 2)(isqrt(K) + 1) u, where the probe walk steps one product of its
    # columns per step, and (K + 2)^2 u where it doubles with squarings.
    # Over the stream's real walk, stepped (`_grid` 1) or on the doubling
    # grid, every computed mean is within delta_N of the exact one, in
    # `Fraction`s (the basis probes, or a few default probes).
    X = (basis_probes(spec.dim, "l2") if basis else few_default_probes(spec, 2)).vectors.T
    real, formed = ergorank.classify._l2_bound, []
    grid = mock.patch.object(ergorank.cesaro, "_grid", lambda spec, shape: 1) if stepped else contextlib.nullcontext()
    with grid, mock.patch.object(ergorank.classify, "_l2_bound", lambda *args: formed.append(args) or real(*args)):
        _, _, power, deviation = _reads(spec, X, "probe", horizon).deviation(horizon)
        event(f"{'stepped' if stepped else 'doubled'}, {'with r' if formed else 'no r'}")
        if power == math.inf:
            return
        exact = {n: A for n, A, *_ in exact_stream(spec, X, horizon)[0]}
        for chunk in CesaroStream(spec, X).chunks(horizon):
            for i, A in enumerate(chunk.means):
                D = as_exact(A) - exact[chunk.first + i]
                assert _within(_exact_norms(D, "l2", "probe"), deviation, "l2"), chunk.first + i


@st.composite
def _decaying_specs(draw):
    """Specs whose tails the resolvent certificate may settle only with a
    decay factor from T^t Y: dense symmetric ones of dim 2-16 with one or
    two eigenvalues at 1 and the rest of magnitude up to 0.3, 0.9 or 1,
    like the benchmark's dense-96-l2, in each norm; weighted shifts of dim
    3-12, whose powers vanish from dim on; and the exact specs."""
    kind = draw(st.sampled_from(["symmetric", "shift", "exact"]))
    if kind == "exact":
        return draw(_exact_specs())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tag = draw(st.sampled_from(["l1", "l2", "linf"]))
    if kind == "shift":
        dim = draw(st.integers(3, 12))
        return OperatorSpec(KIND_SHIFT, dim, rng.uniform(-1.0, 1.0, dim - 1), tag)
    dim, top = draw(st.integers(2, 16)), draw(st.sampled_from([0.3, 0.9, 1.0]))
    ones = min(dim - 1, draw(st.integers(1, 2)))
    eigs = np.concatenate([np.ones(ones), rng.uniform(-top, top, dim - ones)])
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    mat = q @ np.diag(eigs) @ q.T
    return OperatorSpec(KIND_DENSE, dim, (mat + mat.T) / 2.0, tag)


@given(_decaying_specs(), st.sampled_from([2, 8, 33, 64, 300]), _BLOCKS)
@settings(max_examples=80, deadline=None)
def test_a_tail_certified_with_a_decay_factor_walks_under_it(spec, horizon, block):
    # Given the pass's stream, D is formed from T^t Y on the stream's levels
    # (`_decay`).  Wherever the certificate with it is finite, it is at
    # least the radius a walk reads, and a tolerance just above twice it
    # settles the tail before the walk: the pass walks no step for it, the
    # tail holds, and every verdict serializes as a forced walk's (`_walking`),
    # whose walked diameters lie under the certified ones.
    probes = _test_probes(spec, block)
    X = probes.vectors.T
    stream = CesaroStream(spec, X)
    C = _reads(spec, X, "probe", horizon).deviation(horizon)[2]
    upper = _certificate(spec, X, "probe", horizon, stream)
    if horizon < 2 or not np.all(np.isfinite(upper)):
        event("certificate: infinite")
        return
    split = ergorank.classify._split(spec, X)
    D = _decay(spec, split[1], horizon // 2, C, stream) if split is not None else C
    event(f"certificate: finite, D {'under C' if np.any(np.asarray(D) < C) else 'C'}")
    radius = reference_tail_radius(spec, X, horizon, _mode_norms(spec, "probe").radius)
    assert radius is not None and np.all(radius <= upper)
    tol = float(2.0 * np.max(upper) * (1.0 + 2.0**-30))
    got = check_families(spec, probes, horizon, tol, 1e3, horizon)
    with _walking():
        want = check_families(spec, probes, horizon, tol, 1e3, horizon)
    assert _serialized(got) == _serialized(want)
    if got.ergodic.evidence["certified"]:
        event("check_families: certified")
        assert got.ergodic.status == HOLDS
        assert np.all(np.asarray(want.ergodic.evidence["tail_diameter_ub"]) <= got.ergodic.evidence["tail_diameter_ub"])


def test_each_probe_pass_forms_one_dense_copy_of_t(monkeypatch):
    # sparse-128-l1's probe pass splits I - T for its certificate and squares
    # T for its ladder, both from the one dense copy its stream keeps
    # (`CesaroStream.dense`): one dim-column `apply_columns` call, at seeds
    # 1, 7 and 101.  Its identity pass, floored before it walks, makes none.
    columns, per_pass = [], []
    for module in (ergorank.classify, ergorank.cesaro):
        real = module.apply_columns
        monkeypatch.setattr(
            module, "apply_columns", lambda spec, X, out=None, real=real: columns.append(X.shape[1]) or real(spec, X, out)
        )
    real_scan = ergorank.classify._scan

    def scan(spec, X, mode, *args, **kwargs):
        before = len(columns)
        scans = real_scan(spec, X, mode, *args, **kwargs)
        per_pass.append((mode, columns[before:].count(spec.dim)))
        return scans

    monkeypatch.setattr(ergorank.classify, "_scan", scan)
    for seed in (1, 7, 101):
        spec = _bench_workloads().wide_specs(seed)["sparse-128-l1"]
        per_pass.clear()
        check_families(spec, default_probes(spec, seed=seed), 2000, 1e-2, 1e3, 256)
        assert per_pass == [("probe", 1), ("dense", 0)], seed


def test_the_l2_factors_cover_the_worst_column_and_block():
    # On the ||.||_2 path a product fl(M Y), M of K columns, errs by at most
    # gamma_K || |M||Y| ||_2, and its factor c' must cover that over
    # ||M||_2 ||Y||_2, plus 2u.  The ratio || |M||Y| ||_2 / (||M||_2 ||Y||_2)
    # is at most sqrt(K) for a column Y and K for a block, and a Hadamard
    # matrix H (entries +-1, ||H||_2 = sqrt(K)) attains both: |H| 1 = K 1,
    # and |H||H| = K J.  In `Fraction`s, for K = 1, 2, 4, ..., 1024, the
    # per-column factor covers sqrt(K) gamma_K + 2u (compared as squares)
    # and the per-block one K gamma_K + 2u.
    u = Fraction(1, 2**53)
    for K in (2**j for j in range(11)):
        gamma = K * u / (1 - K * u)
        column, block = Fraction(_l2_factor(K, True)) - 2 * u, Fraction(_l2_factor(K, False)) - 2 * u
        assert column > 0 and column**2 >= K * gamma**2, K
        assert block >= K * gamma, K

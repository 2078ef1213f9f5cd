import contextlib
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ergorank.cesaro
from ergorank.cesaro import OVERFLOW_LIMIT, CesaroStream
from ergorank.operators import (
    KIND_DENSE,
    KIND_DIAGONAL,
    KIND_SHIFT,
    KIND_SPARSE,
    NORM_TAGS,
    DimensionMismatchError,
    OperatorSpec,
    apply_columns,
    basis_probes,
    column_norms,
    default_probes,
    gallery,
    matrix_norm,
)
from ergorank.classify import _scan
from ergorank.tree import chain_margins
from reference import as_dense, as_exact, direct_mean, exact_stream, reference_stream


def _contraction(seed: int, dim: int) -> OperatorSpec:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim))
    rho = max(np.abs(np.linalg.eigvals(m)))
    m *= rng.uniform(0.2, 1.0) / max(rho, 1e-9)
    return OperatorSpec(KIND_DENSE, dim, m, "l2")


@contextlib.contextmanager
def _chunk_capacity(k):
    """Streams started inside hold k steps per chunk (None: the default)."""
    if k is None:
        yield
        return
    with mock.patch.object(ergorank.cesaro, "_capacity", lambda block_bytes: k):
        yield


def _steps(stream, horizon, capacity=None):
    """(n, A_n, P_n, power_norms, power_max) of every step, copied out of
    the chunks before the next one is requested."""
    steps = []
    with _chunk_capacity(capacity):
        for chunk in stream.chunks(horizon):
            count = len(chunk.means)
            assert 1 <= count <= (capacity or count)
            for name in ("means", "powers", "power_norms", "power_max"):
                assert len(getattr(chunk, name)) == count
            steps += [
                (chunk.first + i, chunk.means[i].copy(), chunk.powers[i].copy(),
                 chunk.power_norms[i].copy(), chunk.power_max[i])
                for i in range(count)
            ]
    return steps


def _vector_means(spec, x, horizon):
    """A_1 x, A_2 x, ... of one vector, as a (dim, 1) stream block."""
    means = CesaroStream(spec, x[:, None]).means_at(range(1, horizon + 1))
    return [A[:, 0] for A in means.values()]


def _dense_means(spec, horizon):
    stream = CesaroStream(spec, np.eye(spec.dim))
    return list(stream.means_at(range(1, horizon + 1)).values()), stream


@given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 60))
@settings(max_examples=40)
def test_recurrence_matches_direct_summation(seed, dim, horizon):
    spec = _contraction(seed, dim)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal(dim)
    means = _vector_means(spec, x, horizon)
    for n in {1, horizon // 2 or 1, horizon}:
        want = direct_mean(spec, x, n)
        got = means[n - 1]
        assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))


@given(st.integers(0, 10_000))
@settings(max_examples=25)
def test_telescoping_and_mean_identities(seed):
    spec = _contraction(seed, 5)
    rng = np.random.default_rng(seed + 2)
    x = rng.standard_normal(5)
    N = 40
    means = _vector_means(spec, x, N + 1)
    power = x[:, None]
    for n in range(1, N + 1):
        # (n+1) A_{n+1} x - n A_n x = T^n x
        power = apply_columns(spec, power)
        lhs = (n + 1) * means[n] - n * means[n - 1]
        assert np.linalg.norm(lhs - power[:, 0]) <= 1e-9
    # A_n (I - T) x = (x - T^n x) / n
    y = x - apply_columns(spec, x[:, None])[:, 0]
    means_y = _vector_means(spec, y, N)
    power = x[:, None]
    for n in range(1, N + 1):
        power = apply_columns(spec, power)
        assert np.linalg.norm(means_y[n - 1] - (x - power[:, 0]) / n) <= 1e-9


def test_stream_stops_at_the_first_overflowing_power():
    spec = OperatorSpec(KIND_DIAGONAL, 2, [1e200, -1e200], "linf")
    stream = CesaroStream(spec, np.eye(2))
    steps = _steps(stream, 10)
    assert [n for n, *_ in steps] == [1]
    assert stream.diverged_at == 1
    assert np.array_equal(steps[-1][3], [OVERFLOW_LIMIT, OVERFLOW_LIMIT])
    assert stream.means_at([1, 2, 5]).keys() == {1}
    # Dense mode guards the columns of T^n the same way.
    assert _dense_means(spec, 10)[1].diverged_at == 1


def test_cesaro_diff_basics():
    spec = gallery("zero(4)")
    x = np.array([[1.0], [0.0], [0.0], [0.0]])
    # A_n x = x / n for the zero operator
    assert chain_margins(spec, x, (1, 2))[:, 0] == pytest.approx([0.5])
    assert chain_margins(spec, x, (1, 2, 4))[:, 0] == pytest.approx([0.5, 0.25])
    assert chain_margins(spec, x, (3,)).shape == (0, 1)


def test_divergence_truncates():
    spec = gallery("scalar(2.0)")
    stream = CesaroStream(spec, np.array([[1.0]]))
    means = [A[:, 0] for A in stream.means_at(range(1, 2001)).values()]
    assert stream.diverged_at is not None
    assert len(means) == stream.diverged_at
    assert column_norms(means[-1][:, None], "l2")[0] <= OVERFLOW_LIMIT * 2
    # Chain margins stop at the same index.
    assert len(chain_margins(spec, np.array([[1.0]]), range(1, 2001))) == stream.diverged_at - 1


def test_matrix_means_match_vector_means():
    spec = gallery("random_diagonalizable(7,12)")
    mats, _ = _dense_means(spec, 30)
    probes = basis_probes(12, "l2")
    for k in range(12):
        means = _vector_means(spec, probes[k], 30)
        for n in (1, 7, 30):
            assert np.allclose(mats[n - 1][:, k], means[n - 1], atol=1e-12)


def test_matrix_means_hand_values():
    # For the 2x2 unipotent upper-triangular operator, A_3 = (I + T + T^2)/3
    # with T = [[1,1],[0,1]] gives exactly [[1,1],[0,1]].
    spec = gallery("jordan_1(2)")
    mats, _ = _dense_means(spec, 3)
    assert np.array_equal(mats[2], np.array([[1.0, 1.0], [0.0, 1.0]]))
    # Scalar -1: means alternate 1, 0, 1/3, 0.
    spec = gallery("scalar(-1.0)")
    mats, _ = _dense_means(spec, 4)
    got = [m[0, 0] for m in mats]
    assert got == [1.0, 0.0, pytest.approx(1 / 3), 0.0]


# -- the stream's bits against its formulas stepped one at a time -----


def _same_bits(a, b) -> bool:
    """Equal bit for bit, so -0.0 differs from 0.0 (np.signbit included)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _block(seed: int, dim: int, columns: int) -> np.ndarray:
    """Random columns with about a third of the rows set to signed zeros."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((dim, columns))
    zero_rows = rng.random(dim) < 0.35
    X[zero_rows] = np.copysign(0.0, rng.standard_normal((int(zero_rows.sum()), columns)))
    return X


def _assert_stream_matches_reference(spec, X, horizon):
    """Bitwise A_n, P_n, power norms, their maximum and `diverged_at`, at the
    default chunk capacity and at 1, 2 and horizon - 1, horizon, horizon + 1
    steps per chunk."""
    want, want_diverged = reference_stream(spec, X, horizon)
    for capacity in sorted({1, 2, horizon - 1, horizon, horizon + 1} - {0}, reverse=True) + [None]:
        stream = CesaroStream(spec, X)
        got = _steps(stream, horizon, capacity=capacity)
        assert stream.diverged_at == want_diverged
        assert [g[0] for g in got] == [w[0] for w in want]
        for (_, A, P, norms, top), (_, wA, wP, wnorms) in zip(got, want):
            assert _same_bits(A, wA) and _same_bits(P, wP) and _same_bits(norms, wnorms)
            assert _same_bits(top, wnorms.max())
    for _, A, *_ in want:
        # matrix_norm's direct reductions give the wrapper reductions' bits.
        assert _same_bits(matrix_norm(A, "l1"), float(np.max(np.sum(np.abs(A), axis=0))))
        assert _same_bits(matrix_norm(A, "linf"), float(np.max(np.sum(np.abs(A), axis=1))))


_ENTRIES = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0])


@st.composite
def _stream_cases(draw):
    kind = draw(st.sampled_from([KIND_SHIFT, KIND_DIAGONAL, KIND_SPARSE, KIND_DENSE, "huge"]))
    dim = draw(st.integers(1, 5))
    tag = draw(st.sampled_from(NORM_TAGS))
    if kind == KIND_SHIFT:
        entries = draw(st.lists(_ENTRIES, min_size=dim - 1, max_size=dim - 1))
    elif kind == KIND_DIAGONAL:
        entries = draw(st.lists(_ENTRIES, min_size=dim, max_size=dim))
    elif kind == "huge":
        kind = KIND_DIAGONAL
        big = st.sampled_from([1e200, -1e200, 1e20, -1e20, 0.5, -1.0])
        entries = draw(st.lists(big, min_size=dim, max_size=dim))
    elif kind == KIND_SPARSE:
        cell = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
        cells = draw(st.lists(cell, unique=True, max_size=dim * dim))
        values = draw(st.lists(_ENTRIES, min_size=len(cells), max_size=len(cells)))
        entries = [(r, c, v) for (r, c), v in zip(cells, values)]
    else:
        flat = draw(st.lists(_ENTRIES, min_size=dim * dim, max_size=dim * dim))
        entries = np.reshape(flat, (dim, dim))
    spec = OperatorSpec(kind, dim, entries, tag)
    X = _block(draw(st.integers(0, 2**32 - 1)), dim, draw(st.integers(1, 4)))
    return spec, X, draw(st.integers(1, 60))


@given(_stream_cases())
@settings(max_examples=150)
def test_stream_bits_match_the_plain_recurrence(case):
    _assert_stream_matches_reference(*case)


def _diagonal(entries, tag):
    return OperatorSpec(KIND_DIAGONAL, len(entries), entries, tag)


#: (spec, column block, horizon) for the cases the stream short-circuits,
#: or must not.
_EDGE_CASES = {
    "nilpotent shift": (gallery("left_shift_l1(64)"), _block(1, 64, 3), 80),
    "signed shift": (
        OperatorSpec(KIND_SHIFT, 5, [1.0, -2.0, 0.5, -1.0], "linf"), _block(2, 5, 4), 12
    ),
    "zero": (gallery("zero(4)"), _block(3, 4, 3), 10),
    "identity": (gallery("identity(8)"), np.eye(8), 10),
    # 0.5^n x passes through the denormals and reaches signed zeros.
    "scalar(0.5)": (gallery("scalar(0.5)"), _block(4, 1, 5), 1200),
    # -1 flips the sign of a zero at every step: equal values, unequal bits.
    "sign-flipping zeros": (
        _diagonal([-1.0, 1.0], "l2"), np.array([[0.0, -0.0], [1.0, -2.0]]), 9
    ),
    "signed-zero diagonal": (
        _diagonal([-1.0, 0.0, -0.0, 1.0, -0.5], "l1"), _block(5, 5, 3), 30
    ),
    # -1 flips the sign of a zero below the first row, which stays equal:
    # P_1 = (0, -0, 0) equals X = 0 in value but not in bits.
    "shift flipping a zero below the first row": (
        OperatorSpec(KIND_SHIFT, 3, [1.0, -1.0], "l1"), np.zeros((3, 2)), 8
    ),
    "sparse nilpotent": (
        OperatorSpec(KIND_SPARSE, 4, [(0, 1, 2.0), (0, 3, -1.0), (1, 2, -0.5), (2, 3, 1.0)], "l1"),
        _block(6, 4, 2), 10,
    ),
    "sparse permutation": (
        OperatorSpec(KIND_SPARSE, 3, [(0, 1, 1.0), (1, 0, 1.0), (2, 2, -0.0)], "l2"),
        _block(7, 3, 2), 10,
    ),
    "dim 1": (_diagonal([0.0], "linf"), np.array([[-3.0, 0.0]]), 6),
    "overflow": (_diagonal([1e200, -1e200], "linf"), np.eye(2), 10),
    # Powers pass 1e154, so squaring them for l2 norms overflows.
    "l2 squares overflow": (_diagonal([1e20, 0.5], "l2"), np.eye(2), 20),
    # T^8 passes the overflow limit, but the powers of e_2 decay: doubling
    # stops at T^4, so no inf meets a zero.
    "dense doubling past the limit": (
        OperatorSpec(KIND_DENSE, 2, [[1e20, 0.0], [0.0, 0.5]], "l1"), np.array([[0.0], [1.0]]), 60
    ),
    # P_1 = (1, 1) and the doubled P_3 = T^2 P_1 round to P_2 = (1 + 2^-52, 1),
    # but T P_2 = (1 + 2^-51, 1): a doubled power equal to the one before
    # it is not stationary until T maps it to itself.
    "doubled power that T moves": (
        OperatorSpec(KIND_DENSE, 2, [[1.0, 0.6 * 2.0**-52], [0.0, 1.0]], "linf"),
        np.array([[1.0 - 2.0**-53], [1.0]]), 20,
    ),
}


@pytest.mark.parametrize("case", _EDGE_CASES.values(), ids=_EDGE_CASES.keys())
def test_stream_bits_match_the_plain_recurrence_on_edge_cases(case):
    _assert_stream_matches_reference(*case)


# -- the stream's accuracy against exact means ---------------------------

_DYADIC = st.sampled_from([-2.0, -1.5, -1.0, -0.75, -0.5, -0.25, -0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0])
#: Entries whose powers pass the overflow limit within a few to 23 steps.
_HUGE = st.sampled_from([2.0**20, -(2.0**20), 2.0**40, 1e200, -1e200])


@st.composite
def _exact_cases(draw):
    """(spec, X, horizon) with dim <= 4 and horizon <= 64; half the specs
    may hold entries whose powers overflow."""
    kind = draw(st.sampled_from([KIND_DIAGONAL, KIND_SHIFT, KIND_SPARSE, KIND_DENSE]))
    dim, p = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = st.one_of(_DYADIC, _HUGE) if draw(st.booleans()) else _DYADIC
    if kind == KIND_SHIFT:
        entries = draw(st.lists(entry, min_size=dim - 1, max_size=dim - 1))
    elif kind == KIND_DIAGONAL:
        entries = draw(st.lists(entry, min_size=dim, max_size=dim))
    elif kind == KIND_SPARSE:
        cell = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
        cells = draw(st.lists(cell, unique=True, max_size=dim * dim))
        values = draw(st.lists(entry, min_size=len(cells), max_size=len(cells)))
        entries = [(r, c, v) for (r, c), v in zip(cells, values)]
    else:
        entries = np.reshape(draw(st.lists(entry, min_size=dim * dim, max_size=dim * dim)), (dim, dim))
    spec = OperatorSpec(kind, dim, entries, draw(st.sampled_from(NORM_TAGS)))
    X = np.reshape(draw(st.lists(st.integers(-8, 8), min_size=dim * p, max_size=dim * p)), (dim, p)) / 8.0
    return spec, X, draw(st.integers(1, 64))


@given(_exact_cases(), st.sampled_from([1, None]))
@example(_EDGE_CASES["dense doubling past the limit"], None)
@settings(max_examples=120)
def test_the_stream_is_within_its_rounding_bound_of_the_exact_means(case, capacity):
    # Entrywise, with u = 2^-53 and d = dim: |A_n - exact| <= 4 (d + 2) u M_n,
    # M_n = |X| + |T| |X| + ... + |T|^(n-1) |X|, and |P_n - exact| <=
    # 4 (d + 1) n u |T|^n |X| (each product of d terms rounds within
    # about d u of its terms, a power is n such products deep, squared
    # doubling powers included, and a mean rounds the sum of its powers
    # within about u per term).  The stream stops at the step the exact
    # powers overflow, one step at a time (capacity 1) or a chunk at a time.
    spec, X, horizon = case
    want, diverged = exact_stream(spec, X, horizon)
    stream = CesaroStream(spec, X)
    got = _steps(stream, horizon, capacity=capacity)
    assert stream.diverged_at == diverged
    assert [g[0] for g in got] == [w[0] for w in want]
    u, d = Fraction(1, 2**53), spec.dim
    for (n, A, P, *_), (_, exact_A, exact_P, M, reach) in zip(got, want):
        assert np.all(np.abs(as_exact(A) - exact_A) <= 4 * (d + 2) * u * M), n
        if n != diverged:
            assert np.all(np.abs(as_exact(P) - exact_P) <= 4 * (d + 1) * n * u * reach), n


def _longdouble_means(spec, X, horizon):
    """A_1 .. A_horizon from the plain recurrence in `np.longdouble`."""
    T = as_dense(spec).astype(np.longdouble)
    P = X.astype(np.longdouble)
    S, means = P.copy(), []
    for n in range(1, horizon + 1):
        means.append(S / n)
        P = T @ P
        S += P
    return means


#: The largest |A_n - reference| over 10 000 steps, relative to the largest
#: |A_n|, that each operator's stream may show against a sequential
#: `np.longdouble` recurrence.  Measured: 1e-16, 2e-15, 2e-13 and 3e-16.
_LONGDOUBLE_BOUNDS = {
    "rotation(1.0)": 1e-14,
    "jordan_1(2)": 1e-14,
    "random_diagonalizable(7,12)": 1e-12,
    "identity(8)": 1e-14,
}


@pytest.mark.parametrize("name", _LONGDOUBLE_BOUNDS)
def test_ten_thousand_steps_stay_close_to_a_longdouble_recurrence(name):
    spec = gallery(name)
    X = default_probes(spec).vectors.T
    want = _longdouble_means(spec, X, 10_000)
    err = scale = 0.0
    for chunk in CesaroStream(spec, X).chunks(10_000):
        ref = np.stack(want[chunk.first - 1 : chunk.first - 1 + len(chunk.means)])
        err = max(err, float(np.max(np.abs(chunk.means - ref))))
        scale = max(scale, float(np.max(np.abs(ref))))
    assert err <= _LONGDOUBLE_BOUNDS[name] * scale


@pytest.fixture
def count_products(monkeypatch):
    """A deterministic work count: `count_products(spec, X, horizon)` walks
    a stream and returns its calls that apply T or a power of T, batched or
    not: `apply_columns` calls, the stream's own matmuls (squarings
    included), and one multiply.accumulate per chunk of a small diagonal
    block that forms new powers (a chunk without calls whose powers are not
    the read-only broadcast of a stationary one)."""
    count, inside = [0], [False]
    real_apply, real_matmul = ergorank.cesaro.apply_columns, np.matmul

    def counting_apply(spec, X, out=None):
        count[0] += 1
        inside[0] = True
        try:
            return real_apply(spec, X, out=out)
        finally:
            inside[0] = False

    def counting_matmul(*args, **kwargs):
        count[0] += not inside[0]
        return real_matmul(*args, **kwargs)

    monkeypatch.setattr(ergorank.cesaro, "apply_columns", counting_apply)
    monkeypatch.setattr(np, "matmul", counting_matmul)

    def walk(spec, X, horizon):
        count[0] = before = 0
        for chunk in CesaroStream(spec, X).chunks(horizon):
            count[0] += spec.kind == KIND_DIAGONAL and count[0] == before and chunk.powers.flags.writeable
            before = count[0]
        return count[0]

    return walk


def test_stationary_powers_stop_applying_the_operator(count_products):
    def products(name):
        spec = gallery(name)
        return count_products(spec, default_probes(spec).vectors.T, 10_000)

    # P_64 = 0, and T P_64 = P_64 is the last application.
    assert products("left_shift_l1(64)") <= 65
    assert products("identity(8)") <= 2
    # Powers that keep moving: a doubling group of G = 2^g steps costs
    # g + 1 batched products (rotation and jordan: G = 512, 20 groups;
    # random_diagonalizable: G = 64, 157 groups), plus g squarings once; a
    # diagonal chunk (1 927 steps of scalar(-1.0)) costs one.  Stepping one
    # power at a time cost 10 000 each.
    assert products("rotation(1.0)") <= 250
    assert products("jordan_1(2)") <= 250
    assert products("random_diagonalizable(7,12)") <= 1_200
    assert products("scalar(-1.0)") <= 10


def test_dense_operators_above_the_doubling_dim_step_one_at_a_time(count_products):
    def shifted_half(dim):
        return OperatorSpec(KIND_DENSE, dim, 0.5 * np.eye(dim) + 0.25 * np.eye(dim, k=1), "l2")

    # Squaring a 300 x 300 T costs more than the calls doubling saves on
    # one column, so the walk applies T once per step.
    assert count_products(shifted_half(300), np.ones((300, 1)), 32) == 32
    # One column of a 96 x 96 T is doubled in groups of 256: over 1 000
    # steps, 4 groups of 9 products and 7 squarings.
    assert count_products(shifted_half(96), np.ones((96, 1)), 1_000) <= 43


@pytest.mark.parametrize("name", ["scalar(2.0)", "rotation(1.0)", "left_shift_l1(64)"])
def test_a_block_that_is_not_dim_by_p_is_refused(name):
    # Broadcasting must not stand in for the shape check: a diagonal power
    # formed by multiply.accumulate would fill a (3, 2) block under a dim-1 T.
    spec = gallery(name)
    for X in (np.ones((spec.dim + 2, 2)), np.ones(spec.dim), np.ones((spec.dim, 2, 1))):
        with pytest.raises(DimensionMismatchError, match=f"dim {spec.dim} "):
            CesaroStream(spec, X).means_at([5])
        with pytest.raises(DimensionMismatchError, match=f"dim {spec.dim} "):
            chain_margins(spec, X, [1, 2, 4])


def test_stream_leaves_the_callers_error_state_between_yields():
    spec = _diagonal([1e20, 0.5], "l2")
    with np.errstate(over="raise", invalid="warn", under="ignore", divide="print"):
        want = np.geterr()
        for capacity in (1, 2, None):
            with _chunk_capacity(capacity):
                for _ in CesaroStream(spec, np.eye(2)).chunks(20):
                    assert np.geterr() == want


def _overflow_diagonal_256():
    """Entries inside (-0.9, 0.9) but four at 1.25: the powers pass the
    overflow limit near step 1 450."""
    rng = np.random.default_rng(0xB3)
    diag = rng.uniform(-0.9, 0.9, 256)
    diag[rng.choice(256, size=4, replace=False)] = 1.25
    return _diagonal(diag, "l2")


@pytest.mark.parametrize("capacity", [1, 2, 5, None])
@pytest.mark.parametrize(
    "spec, horizon",
    [(_diagonal([1e200, -1e200], "linf"), 10), (_overflow_diagonal_256(), 2000)],
    ids=["huge diagonal", "overflow-diagonal-256-l2"],
)
def test_overflow_stops_at_the_same_step_with_bounded_extra_work(spec, horizon, capacity):
    X = default_probes(spec).vectors.T
    want, want_diverged = reference_stream(spec, X, horizon)
    assert want_diverged == len(want)
    real = ergorank.cesaro.apply_columns
    calls = []

    def counting(s, X, out=None):
        calls.append(X.shape)
        return real(s, X, out=out)

    stream = CesaroStream(spec, X)
    with mock.patch.object(ergorank.cesaro, "apply_columns", counting):
        got = _steps(stream, horizon, capacity=capacity)
    K = min(capacity or ergorank.cesaro._capacity(X.nbytes), horizon)
    assert stream.diverged_at == want_diverged and got[-1][0] == want_diverged
    assert _same_bits(got[-1][3], want[-1][3]) and got[-1][4] == OVERFLOW_LIMIT
    # One step at a time, P_1 .. P_n take n applications, and a chunk
    # applies T at most K - 1 times past the step that overflowed; a small
    # diagonal block forms each chunk's powers in one multiply.accumulate.
    assert want_diverged <= len(calls) <= want_diverged + K - 1 or calls == []


def test_kept_snapshots_and_hits_survive_later_chunks():
    # Consumers copy what they keep, since the stream reuses its buffers.
    spec = gallery("jordan_1(2)")
    X = default_probes(spec).vectors.T
    horizon = 40
    want, _ = reference_stream(spec, X, horizon)
    for capacity in (1, 2, 3, None):
        with _chunk_capacity(capacity):
            # Under cap 1e3 no step crosses, so the pass reads every chunk to
            # the horizon; under cap 3 the power witness P_3 is kept through
            # the chunks up to the mean witness A_7, where the pass stops.
            scan = _scan(spec, X, "probe", [horizon], 1e3, [horizon])[horizon]
            hit = _scan(spec, X, "probe", [horizon], 3.0, [horizon])[horizon]
            means = CesaroStream(spec, X).means_at([1, 2, 7, 40, 2, 7])
            margins = chain_margins(spec, X, [1, 2, 9, 40])
        # The tail's start and the horizon.
        assert scan.snapshots.keys() == {20, 40}
        for n, A in scan.snapshots.items():
            assert _same_bits(A, want[n - 1][1])
        # The envelope of the tail [20, 40].
        tail = np.stack([w[1] for w in want[19:]])
        assert _same_bits(scan.low, tail.min(axis=0)) and _same_bits(scan.high, tail.max(axis=0))
        assert means.keys() == {1, 2, 7, 40}
        for n, A in means.items():
            assert _same_bits(A, want[n - 1][1])
        pairs = [(1, 2), (2, 9), (9, 40)]
        expected = [column_norms(want[b - 1][1] - want[a - 1][1], spec.norm_tag) for a, b in pairs]
        assert _same_bits(margins, np.array(expected))
        # The first mean and the first power above the cap, with their norms
        # (a probe scan keeps no exact norm of the mean).
        n, norms, exact = hit.mean_hit
        assert exact is None and _same_bits(norms, column_norms(want[n - 1][1], spec.norm_tag))
        assert column_norms(want[n - 2][1], spec.norm_tag).max() <= 3.0 < norms.max()
        m, norms = hit.power_hit
        assert (m, n, hit.steps) == (3, 7, 7)
        assert _same_bits(norms, want[m - 1][3])
        assert want[m - 2][3].max() <= 3.0 < norms.max()


def test_the_stationarity_compare_reads_every_bit():
    # The uint64-word compare of a wide block's powers: a signed zero or one
    # ulp anywhere differs, and a strided block compares by its entries.
    X = _block(3, 256, 48)
    assert ergorank.cesaro._same_bits(X, X.copy())
    assert ergorank.cesaro._same_bits(np.asfortranarray(X), X)
    for row in (255, 0):
        Y = X.copy()
        Y[row, 47] = -Y[row, 47] if Y[row, 47] == 0 else np.nextafter(Y[row, 47], np.inf)
        assert not ergorank.cesaro._same_bits(Y, X)
    assert not ergorank.cesaro._same_bits(np.zeros((2, 2)), np.full((2, 2), -0.0))


@pytest.mark.parametrize("name", ["left_shift_l1(64)", "zero(4)", "identity(8)", "scalar(0.5)"])
def test_the_closed_form_gives_the_walk_bits_past_the_anchor(name):
    spec = gallery(name)
    X = default_probes(spec).vectors.T
    stream = CesaroStream(spec, X)
    assert stream.anchor is None
    steps = _steps(stream, 1500)
    s = stream.anchor[2]
    ns = [s, (s + 1500) // 2, 1500]
    assert all(_same_bits(A, steps[n - 1][1]) for n, A in zip(ns, stream.closed_form(ns)))

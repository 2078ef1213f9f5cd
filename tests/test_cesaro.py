import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergorank.cesaro import OVERFLOW_LIMIT, CesaroStream
from ergorank.operators import (
    KIND_DENSE,
    KIND_DIAGONAL,
    OperatorSpec,
    apply_columns,
    basis_probes,
    column_norms,
    default_probes,
    gallery,
)
from ergorank.tree import chain_margins
from reference import direct_mean


def _contraction(seed: int, dim: int) -> OperatorSpec:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim))
    rho = max(np.abs(np.linalg.eigvals(m)))
    m *= rng.uniform(0.2, 1.0) / max(rho, 1e-9)
    return OperatorSpec(KIND_DENSE, dim, m, "l2")


def _vector_means(spec, x, horizon):
    """A_1 x, A_2 x, ... of one vector, as a (dim, 1) stream block."""
    return [A[:, 0] for _, A, _ in CesaroStream(spec, x[:, None]).run(horizon)]


def _dense_means(spec, horizon):
    stream = CesaroStream(spec, np.eye(spec.dim))
    return [A for _, A, _ in stream.run(horizon)], stream


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


def test_stream_resumes_bitwise_from_a_checkpoint():
    spec = gallery("random_diagonalizable(7,12)")
    stream = CesaroStream(spec, default_probes(spec).vectors.T)
    full = {n: (A, P) for n, A, P in stream.run(40)}
    resumed = list(stream.run(40, start=(20, *full[20])))
    assert [n for n, _, _ in resumed] == list(range(20, 41))
    for n, A, P in resumed:
        assert np.array_equal(A, full[n][0]) and np.array_equal(P, full[n][1])
    snaps = stream.means_at([3, 7])
    assert snaps.keys() == {3, 7} and np.array_equal(snaps[7], full[7][0])


def test_stream_stops_at_the_first_overflowing_power():
    spec = OperatorSpec(KIND_DIAGONAL, 2, [1e200, -1e200], "linf")
    stream = CesaroStream(spec, np.eye(2))
    assert [n for n, _, _ in stream.run(10)] == [1]
    assert stream.diverged_at == 1
    assert stream.means_at([1, 2, 5]).keys() == {1}
    assert np.array_equal(stream.power_norms, [OVERFLOW_LIMIT, OVERFLOW_LIMIT])
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
    means = [A[:, 0] for _, A, _ in stream.run(2000)]
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

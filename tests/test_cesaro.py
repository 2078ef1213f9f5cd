import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ergorank.cesaro import (
    OVERFLOW_LIMIT,
    CesaroStream,
    cesaro_diff,
    cesaro_matrices,
    trajectory,
)
from ergorank.operators import (
    KIND_DENSE,
    KIND_DIAGONAL,
    CapExceededError,
    OperatorSpec,
    apply,
    as_dense,
    basis_probes,
    default_probes,
    gallery,
    vec_norm,
)


def _contraction(seed: int, dim: int) -> OperatorSpec:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim))
    rho = max(np.abs(np.linalg.eigvals(m)))
    m *= rng.uniform(0.2, 1.0) / max(rho, 1e-9)
    return OperatorSpec(KIND_DENSE, dim, m, "l2")


def _direct_mean(spec, x, n):
    # Independent summation oracle: accumulate T^k x explicitly.
    acc = np.zeros_like(x)
    cur = x.copy()
    for _ in range(n):
        acc += cur
        cur = apply(spec, cur)
    return acc / n


@given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 60))
@settings(max_examples=40)
def test_recurrence_matches_direct_summation(seed, dim, horizon):
    spec = _contraction(seed, dim)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal(dim)
    traj = trajectory(spec, x, horizon)
    for n in {1, horizon // 2 or 1, horizon}:
        want = _direct_mean(spec, x, n)
        got = traj.values[n - 1]
        assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))


@given(st.integers(0, 10_000))
@settings(max_examples=25)
def test_telescoping_and_mean_identities(seed):
    spec = _contraction(seed, 5)
    rng = np.random.default_rng(seed + 2)
    x = rng.standard_normal(5)
    N = 40
    traj = trajectory(spec, x, N + 1)
    power = x.copy()
    for n in range(1, N + 1):
        # (n+1) A_{n+1} x - n A_n x = T^n x
        power = apply(spec, power) if n > 1 else apply(spec, x)
        lhs = (n + 1) * traj.values[n] - n * traj.values[n - 1]
        assert np.linalg.norm(lhs - power) <= 1e-9
    # A_n (I - T) x = (x - T^n x) / n
    y = x - apply(spec, x)
    traj_y = trajectory(spec, y, N)
    power = x.copy()
    for n in range(1, N + 1):
        power = apply(spec, power)
        assert np.linalg.norm(traj_y.values[n - 1] - (x - power) / n) <= 1e-9


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
    assert cesaro_matrices(spec, 10).diverged_at == 1


def test_cesaro_diff_basics():
    spec = gallery("zero(4)")
    x = np.array([1.0, 0.0, 0.0, 0.0])
    traj = trajectory(spec, x, 8)
    # A_n x = x / n for the zero operator
    assert cesaro_diff(traj, 1, 2) == pytest.approx(0.5)
    assert cesaro_diff(traj, 2, 1) == pytest.approx(0.5)
    assert cesaro_diff(traj, 3, 3) == 0.0
    with pytest.raises(ValueError):
        cesaro_diff(traj, 0, 1)
    with pytest.raises(ValueError):
        cesaro_diff(traj, 1, 9)


def test_divergence_truncates():
    spec = gallery("scalar(2.0)")
    traj = trajectory(spec, np.array([1.0]), 2000)
    assert traj.diverged_at is not None
    assert len(traj.values) == traj.diverged_at
    assert vec_norm(traj.values[-1], "l2") <= OVERFLOW_LIMIT * 2


def test_matrix_means_match_vector_means():
    spec = gallery("random_diagonalizable(7,12)")
    seq = cesaro_matrices(spec, 30)
    probes = basis_probes(12, "l2")
    for k in range(12):
        traj = trajectory(spec, probes[k], 30)
        for n in (1, 7, 30):
            assert np.allclose(seq.matrices[n - 1][:, k], traj.values[n - 1], atol=1e-12)


def test_matrix_means_hand_values():
    # For the 2x2 unipotent upper-triangular operator, A_3 = (I + T + T^2)/3
    # with T = [[1,1],[0,1]] gives exactly [[1,1],[0,1]].
    spec = gallery("jordan_1(2)")
    seq = cesaro_matrices(spec, 3)
    assert np.array_equal(seq.matrices[2], np.array([[1.0, 1.0], [0.0, 1.0]]))
    # Scalar -1: means alternate 1, 0, 1/3, 0.
    spec = gallery("scalar(-1.0)")
    seq = cesaro_matrices(spec, 4)
    got = [m[0, 0] for m in seq.matrices]
    assert got == [1.0, 0.0, pytest.approx(1 / 3), 0.0]


def test_matrix_means_cap():
    spec = OperatorSpec(KIND_DIAGONAL, 600, np.zeros(600), "l2")
    with pytest.raises(CapExceededError):
        cesaro_matrices(spec, 4)

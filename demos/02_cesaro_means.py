"""Cesaro means of one vector and the algebraic identities they satisfy.

The running average A_n x = (1/n) sum_{k<n} T^k x is S_n / n for the
running sum S_{n+1} = S_n + T^n x, S_1 = x, that the stream carries.  Two exact
identities make good spot checks: the telescoping relation
(n+1) A_{n+1} x - n A_n x = T^n x, and A_n (I - T) x = (x - T^n x) / n.
One vector is a (dim, 1) block of a `CesaroStream`.  The last section
prints how far a classification pass walks once the powers are null.
"""

import numpy as np

from ergorank.cesaro import CesaroStream
from ergorank.classify import check_power_bounded
from ergorank.operators import apply_columns, default_probes, gallery
from ergorank.tree import chain_margins


def means_of(spec, x, horizon):
    """A_1 x .. A_horizon x (fewer if the powers overflow), and the stream."""
    stream = CesaroStream(spec, np.asarray(x, dtype=float)[:, None])
    return [A[:, 0] for A in stream.means_at(range(1, horizon + 1)).values()], stream


def main():
    rng = np.random.default_rng(5)

    print("== stream vs direct summation ==")
    spec = gallery("random_diagonalizable(3,6)")
    x = rng.standard_normal(6)
    x /= np.linalg.norm(x)
    means, _ = means_of(spec, x, 200)
    mat = apply_columns(spec, np.eye(spec.dim))
    s, power = x.copy(), mat @ x
    worst = 0.0
    for n in range(1, 201):
        worst = max(worst, float(np.linalg.norm(means[n - 1] - s / n)))
        s += power
        power = mat @ power
    print(f"  max deviation over n = 1..200: {worst:.3e}")

    print("\n== telescoping and mean identities ==")
    power = x.copy()
    y = x - mat @ x
    means_y, _ = means_of(spec, y, 200)
    tele = mean_id = 0.0
    for n in range(1, 200):
        power = mat @ power if n > 1 else mat @ x
        tele = max(tele, float(np.linalg.norm(
            (n + 1) * means[n] - n * means[n - 1] - power)))
        mean_id = max(mean_id, float(np.linalg.norm(
            means_y[n - 1] - (x - power) / n)))
    print(f"  telescoping residual: {tele:.3e}")
    print(f"  mean identity residual: {mean_id:.3e}")

    print("\n== the alternating scalar averages out ==")
    alt = gallery("scalar(-1.0)")
    alt_means, _ = means_of(alt, [1.0], 8)
    print(f"  A_1..A_8 of x=1 under T=-1: {[float(m[0]) for m in alt_means]}")
    margin = chain_margins(alt, np.array([[1.0]]), (1, 2))[0, 0]
    print(f"  ||A_1 x - A_2 x|| = {margin:.3f} (the separated pair)")

    print("\n== divergence is detected, not propagated ==")
    doubling = gallery("scalar(2.0)")
    grown, stream = means_of(doubling, [1.0], 10_000)
    print(f"  horizon reached: {len(grown)}, diverged_at = {stream.diverged_at}")
    print(f"  largest mean kept finite: {float(grown[-1][0]):.3e}")

    print("\n== nilpotent shift: means decay like (k+1)/n ==")
    shift = gallery("left_shift_l1(64)")
    e9 = np.zeros(64)
    e9[9] = 1.0
    decay, _ = means_of(shift, e9, 64)
    for n in (5, 10, 20, 40):
        got = float(np.abs(decay[n - 1]).sum())
        print(f"  ||A_{n:2d} e_9||_1 = {got:.6f}   (min(n,10)/n = {min(n, 10) / n:.6f})")
    assert np.allclose(apply_columns(shift, e9[:, None])[:, 0], np.eye(64)[8])
    # P_64 = 0, so past step 65 every mean is S_66 / n: the probe pass stops
    # stepping there and reads the rest of the horizon off the closed form.
    pb = check_power_bounded(shift, default_probes(shift), 10_000)
    walked = pb.evidence["walked"]
    print(f"  probe pass walked {walked} of {pb.horizon} steps ({pb.status}, bound {pb.bound})")
    assert walked < pb.horizon


if __name__ == "__main__":
    main()

"""Operator specs, probe sets, and induced norms.

Walks through the four operator kinds, shows that the structured apply
paths agree with dense matrix multiplication, and compares exact induced
norms against the probe-mode lower bound.
"""

import numpy as np

from ergorank.operators import (
    OperatorSpec,
    ProbeSet,
    apply_columns,
    column_norms,
    default_probes,
    gallery,
    matrix_norm,
)


def as_matrix(spec):
    """The operator as a dense matrix: its columns are T e_1, ..., T e_d."""
    return apply_columns(spec, np.eye(spec.dim))


def induced_norm(spec):
    """Exact induced norm of the dense matrix in the spec's ambient norm."""
    return matrix_norm(as_matrix(spec), spec.norm_tag)


def main():
    print("== built-in gallery ==")
    for name in ("identity(8)", "left_shift_l1(64)", "jordan_1(2)", "rotation(1.0)"):
        spec = gallery(name)
        print(f"  {name:24s} kind={spec.kind:20s} dim={spec.dim:3d} norm={spec.norm_tag}")

    print("\n== structured apply matches the dense matrix ==")
    rng = np.random.default_rng(11)
    shift = gallery("left_shift_l1(64)")
    x = rng.standard_normal(64)
    direct = apply_columns(shift, x[:, None])[:, 0]
    via_dense = as_matrix(shift) @ x
    print(f"  left shift: max |structured - dense| = {np.max(np.abs(direct - via_dense)):.3e}")

    print("\n== exact induced norms ==")
    for name, expected in (("identity(8)", 1.0), ("left_shift_l1(64)", 1.0)):
        got = induced_norm(gallery(name))
        print(f"  ||T|| for {name:20s} = {got:.6f}   (closed form {expected})")
    diag = OperatorSpec("diagonal", 3, np.array([0.5, -2.0, 1.0]), "linf")
    print(f"  ||T|| for diagonal(0.5,-2,1) in linf = {induced_norm(diag):.6f}"
          "   (max |entry| 2)")

    print("\n== probe mode is a certified lower bound ==")
    jordan = gallery("jordan_1(2)")
    X = default_probes(jordan).vectors.T
    tag = jordan.norm_tag
    ratios = column_norms(apply_columns(jordan, X), tag) / column_norms(X, tag)
    print(f"  jordan_1(2): exact {induced_norm(jordan):.6f}, "
          f"max ||T x|| / ||x|| over probes {ratios.max():.6f}")

    print("\n== probe sets are deterministic and unit-ball ==")
    probes = default_probes(gallery("left_shift_l1(64)"))
    norms = [float(np.abs(probes[i]).sum()) for i in range(len(probes))]
    print(f"  label: {probes.label}")
    print(f"  {len(probes)} probes, ambient norms in [{min(norms):.6f}, {max(norms):.6f}]")
    few = ProbeSet(np.eye(64)[:4], "l1", "canonical-basis-0..3")
    print(f"  basis subset: {few.label}")


if __name__ == "__main__":
    main()

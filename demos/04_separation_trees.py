"""Separation trees: which index chains stay eps-separated.

A chain (s_1 < ... < s_k) is a member when some probe keeps all its
consecutive Cesaro means more than eps apart.  Members are prefix-closed,
so the tree is enumerated depth-first with pruning; its height is a
certified lower bound that grows as eps shrinks.
"""

from ergorank.operators import default_probes, gallery
from ergorank.tree import build_truncation, tree_to_dot, truncated_height


def main():
    print("== heights across the separation grid ==")
    print(f"{'operator':28s}" + "".join(f"  eps=1/{k:<3d}" for k in (1, 2, 4, 8)))
    for name in ("identity(8)", "zero(4)", "scalar(-1.0)", "left_shift_l1(64)", "jordan_1(2)"):
        spec = gallery(name)
        probes = default_probes(spec)
        heights = []
        for k in (1, 2, 4, 8):
            trunc = build_truncation(
                spec, 1.0 / k, depth_cap=6, index_bound=32, probes=probes
            )
            heights.append(truncated_height(trunc))
        print(f"{name:28s}" + "".join(f"  {h:8d}" for h in heights))

    print("\n== the deepest chains for zero(4) at eps = 1/8 ==")
    spec = gallery("zero(4)")
    trunc = build_truncation(spec, 0.125, depth_cap=6, index_bound=32,
                             probes=default_probes(spec))
    height = truncated_height(trunc)
    print(f"  members: {len(trunc.members)}, height: {height}")
    chains = (tuple(map(int, key.split(","))) for key in trunc.members)
    longest = [seq for seq in chains if len(seq) == height]
    for seq in longest[:5]:
        print(f"  chain {seq}: harmonic gaps 1/s_i - 1/s_(i+1) all exceed 1/8")

    print("\n== a small tree rendered as DOT ==")
    spec = gallery("left_shift_l1(64)")
    trunc = build_truncation(spec, 0.5, depth_cap=3, index_bound=4,
                             probes=default_probes(spec))
    print(tree_to_dot(trunc))


if __name__ == "__main__":
    main()

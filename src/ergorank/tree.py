"""Separation trees on the Cesaro means.

A node is a strictly increasing index sequence s = (s_1, ..., s_k).  It is
a member of the tree at separation eps when some unit-ball vector x keeps
all consecutive means eps-separated: ||A_{s_i} x - A_{s_{i+1}} x|| > eps
for every i.  Sequences of length <= 1 are members by convention.  Members
are prefix-closed (a witness for s witnesses every prefix), which is what
allows depth-first enumeration with pruning.

Witnesses here are drawn from a finite probe set, so the enumerated tree
is an under-approximation of the true tree: membership and heights are
certificates, non-membership only means "no probe witnessed it".  The
enumeration is bounded by a depth cap and an index bound; `partial` is set
when the node budget cuts the walk short.

Every mean comes from one `CesaroStream` pass over the probe block, so a
pair involving an index past the stream's overflow stop never separates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cesaro import CesaroStream
from .operators import OperatorSpec, ProbeSet, column_norms

#: Margins must clear the separation threshold by this absolute slack to
#: count.  Exact boundary cases (margin mathematically equal to eps) pick
#: up one-ulp float dust from the mean recurrence, and a strict comparison
#: would mint spurious members from it; the slack matches the certificate
#: checker's recomputation tolerance and is far above that dust.
SEPARATION_SLACK = 1e-9


class NodeMembership(NamedTuple):
    member: bool
    witness: int | None
    margins: list[float] | None


def _validate_seq(seq) -> tuple[int, ...]:
    seq = tuple(int(v) for v in seq)
    for v in seq:
        if v < 1:
            raise ValueError(f"sequence entries must be >= 1, got {v}")
    if any(a >= b for a, b in zip(seq, seq[1:])):
        raise ValueError(f"sequence must be strictly increasing, got {seq}")
    return seq


def node_member(
    spec: OperatorSpec,
    seq,
    epsilon: float,
    probes: ProbeSet,
) -> NodeMembership:
    """Membership of one sequence, witnessed by the lowest-index probe whose
    consecutive margins all exceed epsilon plus `SEPARATION_SLACK`."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    seq = _validate_seq(seq)
    if len(seq) <= 1:
        return NodeMembership(True, None, [])
    snaps = CesaroStream(spec, probes.vectors.T).means_at(seq)
    if len(snaps) < len(seq):
        return NodeMembership(False, None, None)
    margins = np.stack(
        [
            column_norms(snaps[a] - snaps[b], spec.norm_tag)
            for a, b in zip(seq, seq[1:])
        ]
    )
    ok = np.all(margins > epsilon + SEPARATION_SLACK, axis=0)
    if not ok.any():
        return NodeMembership(False, None, None)
    witness = int(np.argmax(ok))
    return NodeMembership(True, witness, [float(v) for v in margins[:, witness]])


@dataclass(eq=False)
class TreeTruncation:
    """Enumerated members up to a depth cap and index bound.

    `members` lists node keys ("s1,s2,...") in depth-first discovery
    order; `witnesses` maps each key to the witnessing probe index (None
    for singletons, whose membership is unconditional).  `partial` is True
    when the node budget stopped the walk before completion.
    """

    epsilon: float
    depth_cap: int
    index_bound: int
    probe_label: str
    members: list[str]
    witnesses: dict[str, int | None]
    partial: bool

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "depth_cap": self.depth_cap,
            "index_bound": self.index_bound,
            "probe_label": self.probe_label,
            "members": list(self.members),
            "witnesses": dict(self.witnesses),
            "partial": self.partial,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TreeTruncation":
        try:
            return cls(
                epsilon=float(data["epsilon"]),
                depth_cap=int(data["depth_cap"]),
                index_bound=int(data["index_bound"]),
                probe_label=data["probe_label"],
                members=[str(m) for m in data["members"]],
                witnesses={
                    str(k): (None if v is None else int(v))
                    for k, v in data["witnesses"].items()
                },
                partial=bool(data["partial"]),
            )
        except KeyError as exc:
            raise ValueError(f"truncation JSON is missing field {exc}") from exc


def node_key(seq) -> str:
    return ",".join(str(v) for v in seq)


def key_to_seq(key: str) -> tuple[int, ...]:
    if not key:
        return ()
    return tuple(int(v) for v in key.split(","))


def build_truncation(
    spec: OperatorSpec,
    epsilon: float,
    depth_cap: int,
    index_bound: int,
    probes: ProbeSet,
    max_nodes: int = 200_000,
) -> TreeTruncation:
    """Depth-first enumeration of member nodes with indices <= index_bound
    and length <= depth_cap.

    Precomputes, per index pair (n, m), the bitmask of probes separating
    A_n from A_m by more than epsilon; a node's witness mask is the AND of
    its consecutive pair masks, so extending a node is one bitwise AND.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if depth_cap < 1:
        raise ValueError(f"depth_cap must be >= 1, got {depth_cap}")
    if index_bound < 1:
        raise ValueError(f"index_bound must be >= 1, got {index_bound}")
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be >= 1, got {max_nodes}")

    pair_mask = _pair_masks(spec, probes, epsilon, index_bound)
    full_mask = (1 << len(probes)) - 1

    members: list[str] = []
    witnesses: dict[str, int | None] = {}
    partial = False

    def record(seq, mask) -> bool:
        key = node_key(seq)
        members.append(key)
        if len(seq) == 1:
            witnesses[key] = None
        else:
            witnesses[key] = (mask & -mask).bit_length() - 1
        return len(members) < max_nodes

    def walk(seq, mask) -> bool:
        if len(seq) >= depth_cap:
            return True
        last = seq[-1]
        for nxt in range(last + 1, index_bound + 1):
            child_mask = mask & pair_mask[last][nxt]
            if child_mask:
                child = seq + (nxt,)
                if not record(child, child_mask):
                    return False
                if not walk(child, child_mask):
                    return False
        return True

    done = True
    for start in range(1, index_bound + 1):
        if not record((start,), full_mask):
            done = False
            break
        if depth_cap > 1 and not walk((start,), full_mask):
            done = False
            break
    partial = not done
    return TreeTruncation(
        epsilon=float(epsilon),
        depth_cap=depth_cap,
        index_bound=index_bound,
        probe_label=probes.label,
        members=members,
        witnesses=witnesses,
        partial=partial,
    )


def _pair_masks(spec, probes, epsilon, index_bound) -> list[list[int]]:
    """pair_mask[n][m] (1 <= n < m <= index_bound): bit p set iff probe p
    separates A_n from A_m by strictly more than epsilon; 0 for pairs past
    the overflow stop."""
    snaps = CesaroStream(spec, probes.vectors.T).means_at(range(1, index_bound + 1))
    stacked = np.stack(list(snaps.values()))
    masks = [[0] * (index_bound + 1) for _ in range(index_bound + 1)]
    for n in range(1, len(snaps) + 1):
        diffs = stacked[n:] - stacked[n - 1][None, :, :]
        if diffs.size == 0:
            continue
        margins = column_norms(diffs, spec.norm_tag)
        hits = margins > epsilon + SEPARATION_SLACK
        for offset in range(hits.shape[0]):
            row = hits[offset]
            if row.any():
                bits = np.flatnonzero(row)
                masks[n][n + 1 + offset] = int(sum(1 << int(b) for b in bits))
    return masks


def truncated_height(trunc: TreeTruncation) -> int:
    """Length of the longest member; 0 when nothing was enumerated."""
    if not trunc.members:
        return 0
    return max(key.count(",") + 1 for key in trunc.members)


def longest_members(trunc: TreeTruncation) -> list[tuple[int, ...]]:
    height = truncated_height(trunc)
    return [
        key_to_seq(key)
        for key in trunc.members
        if key.count(",") + 1 == height
    ]


def tree_to_dot(trunc: TreeTruncation) -> str:
    """Graphviz rendering; edges follow the prefix order."""
    lines = ["digraph separation_tree {", '  node [shape=box, fontsize=10];']
    lines.append('  root [label="()"];')
    for key in trunc.members:
        seq = key_to_seq(key)
        wit = trunc.witnesses.get(key)
        suffix = "" if wit is None else f"\\nprobe {wit}"
        lines.append(f'  "{key}" [label="({key}){suffix}"];')
        parent = node_key(seq[:-1]) if len(seq) > 1 else "root"
        parent_id = f'"{parent}"' if parent != "root" else "root"
        lines.append(f'  {parent_id} -> "{key}";')
    lines.append("}")
    return "\n".join(lines) + "\n"

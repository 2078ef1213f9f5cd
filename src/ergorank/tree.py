"""Separation trees on the Cesaro means.

A node is a strictly increasing index sequence s = (s_1, ..., s_k).  It is
a member of the tree at separation eps when some unit-ball vector x keeps
all consecutive means eps-separated: ||A_{s_i} x - A_{s_{i+1}} x|| > eps
for every i.  Sequences of length <= 1 are members by convention.  Members
are prefix-closed (a witness for s witnesses every prefix), which is what
allows depth-first enumeration with pruning.

Witnesses here are drawn from a finite probe set, so the enumerated tree
is an under-approximation of the true tree: membership and heights are
certificates, non-membership only means "no probe witnessed it".

Everything here reads the epsilon-independent pair-margin tensor of the
probe block (`margin_tensor`), built from one `CesaroStream` pass, so a
pair involving an index past the stream's overflow stop never separates.
A member needs a single probe that separates every consecutive pair, so
per probe the tree height is a longest path in the DAG
{n -> m : margin(n, m) > eps + slack}; `tree_height` finds it by dynamic
programming without listing nodes.  `build_truncation` lists the members,
bounded by a depth cap, an index bound and a node budget; `partial` is set
when the budget cuts the walk short.
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
    return ",".join(map(str, seq))


def key_to_seq(key: str) -> tuple[int, ...]:
    if not key:
        return ()
    return tuple(map(int, key.split(",")))


def margin_tensor(spec: OperatorSpec, probes: ProbeSet, index_bound: int) -> np.ndarray:
    """Pair margins of the probe block up to `index_bound`.

    Returns a (B+1, B+1, p) array, B = index_bound, with
    M[n, m, q] = ||A_m x_q - A_n x_q|| for 1 <= n < m <= B, and -inf for
    every other (n, m), including pairs past the overflow stop.  The means
    come from one `CesaroStream` pass; rows are reduced one n at a time, so
    the difference stack stays at (B, dim, p).  The tensor does not depend
    on epsilon: `M > epsilon + SEPARATION_SLACK` is the separation relation
    of the tree at any epsilon.
    """
    if index_bound < 1:
        raise ValueError(f"index_bound must be >= 1, got {index_bound}")
    snaps = CesaroStream(spec, probes.vectors.T).means_at(range(1, index_bound + 1))
    stacked = np.stack(list(snaps.values()))
    reached = len(snaps)
    margins = np.full((index_bound + 1, index_bound + 1, len(probes)), -np.inf)
    for n in range(1, reached):
        diffs = stacked[n:] - stacked[n - 1][None, :, :]
        margins[n, n + 1 : reached + 1] = column_norms(diffs, spec.norm_tag)
    return margins


def tree_height(margins: np.ndarray, epsilon: float, depth_cap: int) -> int:
    """Height of the tree at separation `epsilon` over a `margin_tensor`,
    capped at `depth_cap`: what `truncated_height` reports for a complete
    `build_truncation` with the same caps.

    Backward dynamic programming over n, vectorised over probes:
    longest[n, q] is the longest chain starting at n whose consecutive
    pairs probe q all separates.
    """
    if depth_cap < 1:
        raise ValueError(f"depth_cap must be >= 1, got {depth_cap}")
    separated = margins > epsilon + SEPARATION_SLACK
    longest = np.zeros(margins.shape[1:], dtype=np.int64)
    for n in range(margins.shape[0] - 1, 0, -1):
        # separated[n, m] is False for m <= n, whose entries are still 0.
        extension = np.where(separated[n], longest, 0).max(axis=0)
        longest[n] = np.minimum(extension + 1, depth_cap)
    return int(longest.max())


def build_truncation(
    spec: OperatorSpec,
    epsilon: float,
    depth_cap: int,
    index_bound: int,
    probes: ProbeSet,
    max_nodes: int = 200_000,
) -> TreeTruncation:
    """Depth-first enumeration of member nodes with indices <= index_bound
    and length <= depth_cap, stopped after `max_nodes` members.

    The `margin_tensor` thresholded at epsilon gives, per index pair
    (n, m), the bitmask of probes separating A_n from A_m; a node's witness
    mask is the AND of its consecutive pair masks, so extending a node is
    one bitwise AND.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if depth_cap < 1:
        raise ValueError(f"depth_cap must be >= 1, got {depth_cap}")
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be >= 1, got {max_nodes}")

    separated = margin_tensor(spec, probes, index_bound) > epsilon + SEPARATION_SLACK
    # successors[n]: (m, mask) for every m > n that some probe separates
    # from n; bit q of mask is probe q.
    packed = np.packbits(separated, axis=-1, bitorder="little")
    successors = [
        [
            (int(m), int.from_bytes(packed[n, m].tobytes(), "little"))
            for m in np.flatnonzero(separated[n].any(axis=-1))
        ]
        for n in range(index_bound + 1)
    ]
    full_mask = (1 << len(probes)) - 1

    # Keys grow by appending to the parent's key, so each is built once.
    labels = [str(m) for m in range(index_bound + 1)]
    members: list[str] = []
    witnesses: list[int | None] = []

    def walk(key, last, length, mask) -> bool:
        """Record the members extending the node `key`, depth first; False
        once the budget is spent."""
        for nxt, pair in successors[last]:
            child_mask = mask & pair
            if child_mask:
                child = key + "," + labels[nxt]
                members.append(child)
                witnesses.append((child_mask & -child_mask).bit_length() - 1)
                if len(members) >= max_nodes:
                    return False
                if length + 1 < depth_cap and not walk(child, nxt, length + 1, child_mask):
                    return False
        return True

    done = True
    for start in range(1, index_bound + 1):
        members.append(labels[start])
        witnesses.append(None)
        if len(members) >= max_nodes or (
            depth_cap > 1 and not walk(labels[start], start, 1, full_mask)
        ):
            done = False
            break
    return TreeTruncation(
        epsilon=float(epsilon),
        depth_cap=depth_cap,
        index_bound=index_bound,
        probe_label=probes.label,
        members=members,
        witnesses=dict(zip(members, witnesses)),
        partial=not done,
    )


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

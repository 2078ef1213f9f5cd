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

Margins come from one `CesaroStream` pass, so a pair involving an index
past the stream's overflow stop never separates.  `chain_margins` gives
the consecutive margins along one chain, the one number that the
certificate searches and the certificate checker both read;
`margin_tensor` gives the epsilon-independent margins of every pair, and
`separates` is the one separation rule applied to either.  A member needs
a single probe that separates every consecutive pair, so a chain separates
exactly when its minimum margin does.  `best_chains` finds the largest
minimum margin over the chains of each length by dynamic programming,
without listing nodes, and no epsilon enters it: the tree height at any
epsilon is the number of lengths whose best chain separates.
`build_truncation` lists the members, bounded by a depth cap, an index
bound and a node budget; `partial` is set when a member past the budget
exists, so a budget equal to the member count lists the whole tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cesaro import CesaroStream
from .operators import OperatorSpec, ProbeSet, _check_args, column_norms

#: Margins must clear the separation threshold by this absolute slack to
#: count.  Exact boundary cases (margin mathematically equal to eps) pick
#: up one-ulp float dust from the mean recurrence, and a strict comparison
#: would mint spurious members from it; the slack matches the certificate
#: checker's recomputation tolerance and is far above that dust.
SEPARATION_SLACK = 1e-9

#: Members `build_truncation` lists; one more member marks the walk partial.
DEFAULT_MAX_NODES = 200_000


def separates(margins: np.ndarray, epsilon: float) -> np.ndarray:
    """Where the margins separate at `epsilon`: above it by more than
    `SEPARATION_SLACK`."""
    return margins > epsilon + SEPARATION_SLACK


def chain_margins(spec: OperatorSpec, X: np.ndarray, seq) -> np.ndarray:
    """Consecutive margins ||A_a X - A_b X|| along the increasing chain
    `seq`, per column of the (dim, p) block X, from one `CesaroStream` pass.

    Returns a (reached - 1, p) array: row i is the pair (seq[i], seq[i+1]),
    and rows stop at the last index the stream reaches before its
    overflow stop.
    """
    means = list(CesaroStream(spec, X).means_at(seq).values())
    rows = [column_norms(a - b, spec.norm_tag) for a, b in zip(means, means[1:])]
    return np.array(rows).reshape(len(rows), X.shape[1])


@dataclass(eq=False)
class TreeTruncation:
    """Enumerated members up to a depth cap and index bound.

    `members` lists node keys ("s1,s2,...") in depth-first discovery
    order; `witnesses` maps each key to the witnessing probe index (None
    for singletons, whose membership is unconditional).  `partial` is True
    when the node budget cut a member: the walk found one past the budget.
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


def margin_tensor(spec: OperatorSpec, probes: ProbeSet, index_bound: int) -> np.ndarray:
    """Pair margins of the probe block up to `index_bound`.

    Returns a (B+1, B+1, p) array, B = index_bound, with
    M[n, m, q] = ||A_m x_q - A_n x_q|| for 1 <= n < m <= B, and -inf for
    every other (n, m), including pairs past the overflow stop.  The means
    come from one `CesaroStream` pass; rows are reduced one n at a time, so
    the difference stack stays at (B, dim, p).  The tensor does not depend
    on epsilon: `separates(M, epsilon)` is the separation relation of the
    tree at any epsilon.
    """
    _check_args(at_least_one={"index_bound": index_bound})
    snaps = CesaroStream(spec, probes.vectors.T).means_at(range(1, index_bound + 1))
    stacked = np.stack(list(snaps.values()))
    reached = len(snaps)
    margins = np.full((index_bound + 1, index_bound + 1, len(probes)), -np.inf)
    for n in range(1, reached):
        diffs = stacked[n:] - stacked[n - 1][None, :, :]
        margins[n, n + 1 : reached + 1] = column_norms(diffs, spec.norm_tag)
    return margins


def best_chains(margins: np.ndarray, depth: int) -> np.ndarray:
    """Largest minimum margins over the chains of a `margin_tensor`.

    Returns a (depth + 1, B + 1, p) array: best[d, n, q] is the largest
    minimum consecutive margin under probe q over chains of d + 1 indices
    that start at n; +inf at d = 0 and -inf where no chain exists.  It
    never grows with d, since a chain's prefixes have no smaller minimum.
    Dynamic programming over d, vectorised over n and probes:
    best[d + 1, n] is the max over m of min(margins[n, m], best[d, m]).
    """
    best = [np.full(margins.shape[1:], np.inf)]
    for _ in range(depth):
        best.append(np.minimum(margins, best[-1][None, :, :]).max(axis=1))
    return np.stack(best)


def build_truncation(
    spec: OperatorSpec,
    epsilon: float,
    depth_cap: int,
    index_bound: int,
    probes: ProbeSet,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> TreeTruncation:
    """Depth-first enumeration of member nodes with indices <= index_bound
    and length <= depth_cap: the first `max_nodes` of them, and `partial`
    when there are more.

    The `margin_tensor` thresholded at epsilon gives, per index pair
    (n, m), the bitmask of probes separating A_n from A_m; a node's witness
    mask is the AND of its consecutive pair masks, so extending a node is
    one bitwise AND.
    """
    _check_args({"epsilon": epsilon}, {"depth_cap": depth_cap, "max_nodes": max_nodes})

    separated = separates(margin_tensor(spec, probes, index_bound), epsilon)
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
        at the first member past the budget."""
        for nxt, pair in successors[last]:
            child_mask = mask & pair
            if child_mask:
                if len(members) == max_nodes:
                    return False
                child = key + "," + labels[nxt]
                members.append(child)
                witnesses.append((child_mask & -child_mask).bit_length() - 1)
                if length + 1 < depth_cap and not walk(child, nxt, length + 1, child_mask):
                    return False
        return True

    done = True
    for start in range(1, index_bound + 1):
        if len(members) == max_nodes:
            done = False
            break
        members.append(labels[start])
        witnesses.append(None)
        if depth_cap > 1 and not walk(labels[start], start, 1, full_mask):
            done = False
            break
    # `walk` reaches itself through its closure, a cycle that would keep the
    # lists it closes over alive until the next garbage collection.
    del walk
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


def tree_to_dot(trunc: TreeTruncation) -> str:
    """Graphviz rendering; edges follow the prefix order."""
    lines = ["digraph separation_tree {", '  node [shape=box, fontsize=10];']
    lines.append('  root [label="()"];')
    for key in trunc.members:
        wit = trunc.witnesses.get(key)
        suffix = "" if wit is None else f"\\nprobe {wit}"
        lines.append(f'  "{key}" [label="({key}){suffix}"];')
        parent = key.rpartition(",")[0]
        parent_id = f'"{parent}"' if parent else "root"
        lines.append(f'  {parent_id} -> "{key}";')
    lines.append("}")
    return "\n".join(lines) + "\n"

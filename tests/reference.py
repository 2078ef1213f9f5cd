"""Reference oracles the tests compare the library against.

`as_dense` materializes an operator as a (dim, dim) matrix from its
entries, independently of `apply_columns`, and `add_at_apply` is the
`np.add.at` scatter that the sparse row-slot kernel must match bit for
bit.  `direct_mean` sums the powers T^k x one by one, independently of the
Cesaro recurrence.  `node_member` decides tree membership of one index
chain from its `chain_margins`, independently of the dynamic programming
behind `best_chains`, the rank heights, the beam search and
`build_truncation`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ergorank.operators import (
    KIND_DENSE,
    KIND_DIAGONAL,
    KIND_SHIFT,
    OperatorSpec,
    ProbeSet,
    apply_columns,
)
from ergorank.tree import chain_margins, separates


def as_dense(spec: OperatorSpec) -> np.ndarray:
    """The operator as a dense (dim, dim) matrix."""
    d = spec.dim
    if spec.kind == KIND_DENSE:
        return np.array(spec.entries)
    if spec.kind == KIND_DIAGONAL:
        return np.diag(spec.entries)
    mat = np.zeros((d, d))
    if spec.kind == KIND_SHIFT:
        if d > 1:
            mat[np.arange(d - 1), np.arange(1, d)] = spec.entries
        return mat
    rows, cols, vals = spec.entries
    mat[rows, cols] = vals
    return mat


def add_at_apply(spec: OperatorSpec, X: np.ndarray) -> np.ndarray:
    """A sparse spec applied to a column block by `np.add.at`: each row
    sums its products in triplet order."""
    rows, cols, vals = spec.entries
    out = np.zeros_like(X)
    np.add.at(out, rows, vals[:, None] * X[cols])
    return out


def direct_mean(spec: OperatorSpec, x: np.ndarray, n: int) -> np.ndarray:
    """(x + T x + ... + T^(n-1) x) / n, accumulating T^k x explicitly."""
    acc = np.zeros((spec.dim, 1))
    cur = x[:, None].copy()
    for _ in range(n):
        acc += cur
        cur = apply_columns(spec, cur)
    return acc[:, 0] / n


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
    consecutive margins all separate."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    seq = _validate_seq(seq)
    if len(seq) <= 1:
        return NodeMembership(True, None, [])
    margins = chain_margins(spec, probes.vectors.T, seq)
    if len(margins) < len(seq) - 1:
        return NodeMembership(False, None, None)
    ok = np.all(separates(margins, epsilon), axis=0)
    if not ok.any():
        return NodeMembership(False, None, None)
    witness = int(np.argmax(ok))
    return NodeMembership(True, witness, [float(v) for v in margins[:, witness]])

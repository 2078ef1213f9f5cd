"""Reference oracles the tests compare the library against.

`as_dense` materializes an operator as a (dim, dim) matrix from its
entries, independently of `apply_columns`; `add_at_apply` is the
`np.add.at` scatter that the sparse slot-prefix kernel must match bit for
bit, and `broadcast_apply` multiplies by (rows, 1) weight columns, which
the block-shaped weights of every non-dense kernel must match bit for
bit.  `direct_mean` sums the powers T^k x one by one, independently of the
Cesaro recurrence, and `reference_stream` is that recurrence in its plainest
form: it applies T and reduces the power norms, through numpy's wrapper
reductions, at every step; `reference_tail_radius` reads the Cauchy tail
radius off it one step at a time.  `node_member` decides tree membership of one index
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
from ergorank.cesaro import OVERFLOW_LIMIT
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


def broadcast_apply(spec: OperatorSpec, X: np.ndarray) -> np.ndarray:
    """A diagonal, shift or sparse spec applied to a column block with its
    weights broadcast as a (rows, 1) column."""
    if spec.kind == KIND_DIAGONAL:
        return spec.entries[:, None] * X
    if spec.kind == KIND_SHIFT:
        out = np.zeros_like(X)
        out[:-1] = spec.entries[:, None] * X[1:]
        return out
    return add_at_apply(spec, X)


def direct_mean(spec: OperatorSpec, x: np.ndarray, n: int) -> np.ndarray:
    """(x + T x + ... + T^(n-1) x) / n, accumulating T^k x explicitly."""
    acc = np.zeros((spec.dim, 1))
    cur = x[:, None].copy()
    for _ in range(n):
        acc += cur
        cur = apply_columns(spec, cur)
    return acc[:, 0] / n


def _wrapper_norms(X: np.ndarray, norm_tag: str) -> np.ndarray:
    if norm_tag == "l1":
        return np.sum(np.abs(X), axis=0)
    if norm_tag == "l2":
        return np.linalg.norm(X, axis=0)
    return np.max(np.abs(X), axis=0)


def reference_stream(spec: OperatorSpec, X: np.ndarray, horizon: int, start=None):
    """Every (n, A_n X, P_n, clamped power norms) that a `CesaroStream` of X
    yields up to `horizon`, and the step whose power overflowed (or None).

    T is applied and the power norms are reduced at every step, with no
    short-circuit for powers that stopped changing.
    """
    if start is None:
        P = apply_columns(spec, X)
        start = (1, np.ascontiguousarray(X), np.ascontiguousarray(P))
    n, A, P = start
    steps = []
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            norms = _wrapper_norms(P, spec.norm_tag)
            ok = norms <= OVERFLOW_LIMIT
        steps.append((n, A, P, np.where(ok, norms, OVERFLOW_LIMIT)))
        if not ok.all():
            return steps, n
        if n >= horizon:
            return steps, None
        A = (n * A + P) / (n + 1)
        P = apply_columns(spec, P)
        n += 1


def reference_tail_radius(spec: OperatorSpec, X: np.ndarray, horizon: int, norm):
    """max_n norm(A_n X - A_N X) over the tail [max(1, N//2), N], one
    `reference_stream` step at a time, or None when the powers overflow."""
    steps, diverged = reference_stream(spec, X, horizon)
    if diverged is not None:
        return None
    final = steps[-1][1]
    tail = steps[max(1, horizon // 2) - 1 :]
    return np.maximum.reduce([np.maximum(0.0, norm(A - final)) for _, A, *_ in tail])


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

"""Reference oracles the tests compare the library against.

`as_dense` materializes an operator as a (dim, dim) matrix from its
entries, independently of `apply_columns`; `add_at_apply` is the
`np.add.at` scatter that the sparse slot-prefix kernel must match bit for
bit, and `broadcast_apply` multiplies by (rows, 1) weight columns, which
the block-shaped weights of every non-dense kernel must match bit for
bit.  `direct_mean` sums the powers T^k x one by one, independently of the
Cesaro stream, and `reference_stream` is the stream's formulas in their
plainest form: one step at a time, with T applied and the power norms
reduced, through numpy's wrapper reductions, at every step;
`reference_tail_radius` reads the Cauchy tail radius off it one step at a
time.  `exact_stream` gives the means and powers in exact rational
arithmetic, the oracle that the stream's accuracy is measured against.  `node_member` decides tree membership of one index
chain from its `chain_margins`, independently of the dynamic programming
behind `best_chains`, the rank heights, the beam search and
`build_truncation`.  `reference_dumps` is the stdlib's indent encoder,
whose text `canonical_dumps` must give byte for byte.  `jordan_spec` builds
a dense spec of known Jordan structure, whose family membership and window
norms are known exactly (`JordanSpec`).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from ergorank.operators import (
    KIND_DENSE,
    KIND_DIAGONAL,
    KIND_SHIFT,
    OperatorSpec,
    ProbeSet,
    apply_columns,
    default_probes,
)
from ergorank.cesaro import OVERFLOW_LIMIT, _grid
from ergorank.tree import chain_margins, separates


def few_default_probes(spec: OperatorSpec, count: int) -> ProbeSet:
    """The default probe set cut to its basis vectors and its first `count`
    random ones, which are bit for bit the vectors of a seeded draw of
    `count` alone: a smaller set for tests that run many examples."""
    probes = default_probes(spec)
    vectors = probes.vectors[: min(spec.dim, 32) + count]
    return ProbeSet(vectors, spec.norm_tag, f"{probes.label}[:{len(vectors)}]")


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


def _dense_doublings(spec: OperatorSpec, X: np.ndarray):
    """The doubling grid G of X's block and the usable powers T^(2^j) by j,
    squared one at a time; G = 1 without doubling."""
    grid = _grid(spec, X.shape)
    levels = [np.array(spec.entries)]
    while 1 << len(levels) < grid:
        with np.errstate(over="ignore", invalid="ignore"):
            square = levels[-1] @ levels[-1]
        if not np.max(np.abs(square)) <= OVERFLOW_LIMIT:
            break
        levels.append(square)
    return grid, levels


def reference_stream(spec: OperatorSpec, X: np.ndarray, horizon: int):
    """Every (n, A_n X, P_n, clamped power norms) that a `CesaroStream` of X
    yields up to `horizon`, and the step whose power overflowed (or None).

    The stream's formulas, one step at a time: S_1 = X, S_(n+1) = S_n + P_n
    and A_n = S_n / n; P_n = T P_(n-1), or for a dense block on a doubling
    grid of G slots from n = 1, T^(2^j) times the power 2^j slots back, 2^j
    the largest usable power of two up to the slot's place in its group.
    Once P_n equals P_(n-1) bit for bit and T maps it to itself, the sums
    are S_m = S_s + (m - s) P from s = n + 1 on.  T is applied and the
    power norms are reduced through numpy's wrapper reductions.
    """
    grid, levels = _dense_doublings(spec, X)
    S = before = np.ascontiguousarray(X, dtype=float)
    powers, anchor = {}, None
    steps = []
    for n in range(1, horizon + 1):
        if anchor is not None:
            s_sum, P, s = anchor
            steps.append((n, ((n - s) * 1.0 * P + s_sum) / n, P, steps[-1][3]))
            continue
        slot = (n - 1) % grid
        if slot == 0:
            P = apply_columns(spec, before)
        else:
            j = min(slot.bit_length() - 1, len(levels) - 1)
            P = levels[j] @ powers[n - (1 << j)]
        powers[n] = P
        with np.errstate(over="ignore", invalid="ignore"):
            norms = _wrapper_norms(P, spec.norm_tag)
            ok = norms <= OVERFLOW_LIMIT
        steps.append((n, S / n, P, np.where(ok, norms, OVERFLOW_LIMIT)))
        if not ok.all():
            return steps, n
        if P.tobytes() == before.tobytes() and apply_columns(spec, before).tobytes() == before.tobytes():
            anchor = (S + P, P, n + 1)
        S, before = S + P, P
    return steps, None


def as_exact(arr) -> np.ndarray:
    """An object array of the exact values of a float array: every float is
    a dyadic rational."""
    return np.frompyfunc(Fraction, 1, 1)(np.asarray(arr, dtype=float))


def _exact_norms_over(P: np.ndarray, norm_tag: str) -> bool:
    """Whether an exact power has a column norm above `OVERFLOW_LIMIT`."""
    limit = Fraction(OVERFLOW_LIMIT)
    if norm_tag == "l1":
        return bool(np.any(np.abs(P).sum(axis=0) > limit))
    if norm_tag == "l2":
        return bool(np.any((P * P).sum(axis=0) > limit * limit))
    return bool(np.any(np.abs(P) > limit))


def exact_stream(spec: OperatorSpec, X: np.ndarray, horizon: int):
    """The exact steps (n, A_n X, P_n, M_n, |T|^n |X|) up to `horizon`, in
    `Fraction`s, and the first step whose exact power has a column norm
    above `OVERFLOW_LIMIT` (the last step listed), or None.

    M_n = |X| + |T| |X| + ... + |T|^(n-1) |X|, entrywise, and |T|^n |X|
    scale the rounding errors of A_n and P_n: no sum or product that forms
    them has a term larger than these.
    """
    T, P = as_exact(as_dense(spec)), as_exact(X)
    absT, absP = np.abs(T), np.abs(P)
    S, M = P.copy(), absP.copy()
    steps = []
    for n in range(1, horizon + 1):
        A = S / n
        P, absP = T @ P, absT @ absP
        steps.append((n, A, P, M, absP))
        if _exact_norms_over(P, spec.norm_tag):
            return steps, n
        S, M = S + P, M + absP
    return steps, None


def reference_tail_radius(spec: OperatorSpec, X: np.ndarray, horizon: int, norm):
    """max_n norm(A_n X - A_N X) over the tail [max(1, N//2), N], one
    `reference_stream` step at a time, or None when the powers overflow."""
    steps, diverged = reference_stream(spec, X, horizon)
    if diverged is not None:
        return None
    final = steps[-1][1]
    tail = steps[max(1, horizon // 2) - 1 :]
    return np.maximum.reduce([np.maximum(0.0, norm(A - final)) for _, A, *_ in tail])


#: Eigenvalues of the Jordan specs: exact in binary, on the unit circle or
#: at most 1/2 inside it.
JORDAN_EIGENVALUES = (1.0, -1.0, 0.0, 0.5, -0.5, 0.25, -0.25)


def _row_sum(lam: Fraction, size: int, m: int) -> Fraction:
    """The first (largest) row abs-sum of J_size(lam)^m, whose entry at
    offset j is C(m, j) lam^(m - j)."""
    return sum(math.comb(m, j) * abs(lam) ** (m - j) for j in range(min(size, m + 1)))


def _first_mean_row(lam: Fraction, size: int, n: int) -> Fraction:
    """The largest magnitude in the first row of A_n of J_size(lam) on the
    unit circle: (1/n) sum_(m<n) C(m, j) lam^(m - j) at offset j."""
    if lam == 1:
        return max(Fraction(math.comb(n, j + 1), n) for j in range(size))
    return max(abs(Fraction(sum(math.comb(m, j) * (-1) ** (m - j) for m in range(j, n)), n)) for j in range(size))


class JordanSpec(NamedTuple):
    """A dense spec T = U J U^-1 of known Jordan structure: J holds the
    Jordan blocks `blocks`, (eigenvalue, size) each, and U is an integer
    matrix of determinant 1, so U^-1 (`U_inv`) is an integer matrix too and
    every entry of T is exact."""

    spec: OperatorSpec
    blocks: tuple
    U: np.ndarray
    U_inv: np.ndarray

    @property
    def power_bounded(self) -> bool:
        """sup ||T^n|| < inf: every block on the unit circle has size 1."""
        return all(size == 1 for lam, size in self.blocks if abs(lam) == 1)

    @property
    def cesaro_bounded(self) -> bool:
        """sup ||A_n|| < inf: a block at 1 has size 1 and a block at -1
        size at most 2 (its means' corner entry stays under 1/2)."""
        return all(size <= (1 if lam == 1 else 2) for lam, size in self.blocks if abs(lam) == 1)

    def window_bounds(self, horizon: int) -> tuple[float, float, float]:
        """(upper, power_lower, mean_lower) on the window of N = `horizon`
        steps, in the spec's norm: every ||T^m|| (m <= N) and ||A_n||
        (n <= N), and so every norm of a basis probe's power or mean, is at
        most `upper`; some basis probe has ||T^m e_j|| >= `power_lower` for
        some m <= N, and ||A_n e_j|| >= `mean_lower` for some n <= N (so the
        operator norms are that large too).

        From above, ||T^m|| <= ||U|| ||J^m|| ||U^-1||, each l2 factor at
        most sqrt(l1 * linf) of itself, and a mean is at most its largest
        power.  Every row and column abs-sum of J_k(lam)^m is at most
        r(m) = sum_(j<k) C(m, j) |lam|^(m-j).  r is nondecreasing for
        |lam| = 1; for |lam| <= 1/2 each term is nonincreasing from
        m = 2j - 1 < 2k on; so r peaks on the window at m = N or at some
        m <= 2k.  From below, J^m = U^-1 T^m U gives ||J^m||_max <=
        ||U^-1||_inf ||T^m||_max ||U||_1, and ||T^m||_max is at most the
        largest norm of a column T^m e_j in every norm; so for A_n.  J^0 =
        A_1 = I has 1, a unimodular block's J^N has C(N, j) at offset j,
        and its A_N the first row of `_first_mean_row`.
        """
        def op(M):  # the l1, linf and l2 bound of an integer matrix's norm
            l1, linf = np.abs(M).sum(axis=0).max(), np.abs(M).sum(axis=1).max()
            return {"l1": l1, "linf": linf, "l2": math.sqrt(l1 * linf)}[self.spec.norm_tag]

        N = horizon
        exact = [(Fraction(lam), size) for lam, size in self.blocks]
        reach = max(_row_sum(lam, size, m) for lam, size in exact for m in {*range(min(N, 2 * size) + 1), N})
        low = float(np.abs(self.U_inv).sum(axis=1).max() * np.abs(self.U).sum(axis=0).max())
        unit = [(lam, size) for lam, size in exact if abs(lam) == 1]
        powers = max([1, *(math.comb(N, j) for _, size in unit for j in range(min(size, N + 1)))])
        means = max([Fraction(1), *(_first_mean_row(lam, size, N) for lam, size in unit)])
        return op(self.U) * float(reach) * op(self.U_inv), powers / low, float(means) / low


def jordan_spec(blocks, U, norm_tag: str) -> JordanSpec:
    """The `JordanSpec` of Jordan blocks `blocks`, (eigenvalue, size) each,
    conjugated by the integer matrix U of determinant 1."""
    U = np.asarray(U, dtype=np.int64)
    dim = len(U)
    U_inv = np.rint(np.linalg.inv(U)).astype(np.int64)
    if not (U @ U_inv == np.eye(dim, dtype=np.int64)).all():
        raise ValueError("U must be an integer matrix of determinant +-1")
    J = as_exact(np.zeros((dim, dim)))
    at = 0
    for lam, size in blocks:
        for i in range(at, at + size):
            J[i, i] = Fraction(lam)
            if i + 1 < at + size:
                J[i, i + 1] = Fraction(1)
        at += size
    if at != dim:
        raise ValueError(f"blocks of total size {at} for a dim-{dim} U")
    T = as_exact(U) @ J @ as_exact(U_inv)
    entries = T.astype(float)
    if not (as_exact(entries) == T).all():
        raise ValueError("an entry of U J U^-1 is not exact in binary64")
    return JordanSpec(OperatorSpec(KIND_DENSE, dim, entries, norm_tag), tuple(blocks), U, U_inv)


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


def reference_dumps(obj) -> str:
    """The canonical JSON text of `obj`, from `json`'s pure-Python indent
    encoder."""
    return json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False) + "\n"

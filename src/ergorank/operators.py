"""Operator specifications, probe sets, norms, and the built-in gallery.

An `OperatorSpec` is a declarative description of a bounded linear operator
on a finite-dimensional real section: a dense matrix, a weighted left shift,
a diagonal operator, or a sparse triplet list, together with the ambient
norm (l1, l2, or linf) in which all vector and operator norms are taken.

Everything downstream (Cesaro means, classification, trees, certificates)
consumes these specs through `apply_columns` and the two norm reducers,
`column_norms` for vectors and `matrix_norm` for dense matrices, so the
spec plus a seed fully determines every computed number.  Next to them,
`_abs_norms` gives the norms of |T| and `_l2_bound` a rounding-sound bound
on ||T||_2 of a dense spec, which `classify` reads to bound how far a
pass's norms can grow.

A spec prepares its kernel once: a sparse spec builds its slot-prefix
layout when validated, and non-dense weights are shaped like the column
blocks they multiply, once per block width.  Neither changes a bit.
"""

from __future__ import annotations

import functools
import math
import re
import threading
from dataclasses import dataclass, field

import numpy as np

KIND_DENSE = "dense_matrix"
KIND_SHIFT = "weighted_left_shift"
KIND_DIAGONAL = "diagonal"
KIND_SPARSE = "sparse_triplets"
KINDS = (KIND_DENSE, KIND_SHIFT, KIND_DIAGONAL, KIND_SPARSE)

NORM_TAGS = ("l1", "l2", "linf")

#: Seed used whenever no explicit seed is given.
DEFAULT_SEED = 0xE46_0D1C

#: The dense (identity-block) modes of `classify` refuse dims above this.
DENSE_CAP = 512

#: Probe vectors may exceed unit norm by at most this slack.
UNIT_BALL_SLACK = 1e-12

#: Bytes of the largest weight block `apply_columns` keeps for a spec and
#: of the largest gather it makes at once; wider weights stay a broadcast
#: column.  512 KB holds the weights of a 256-wide block at dim 256 and
#: of a 48-wide block at 900 triplets; 256 KB ran those 1.4-2.2x slower.
_BLOCK_BYTES = 512 * 1024

#: Column widths a spec keeps weight blocks for at once.
_BLOCK_WIDTHS = 8


class SpecValidationError(ValueError):
    """An operator spec (or its JSON form) violates a structural invariant."""


class DimensionMismatchError(ValueError):
    """A vector's dimension does not match the operator's."""


class CapExceededError(ValueError):
    """A dense/exact operation was requested above the supported dimension."""


@dataclass(eq=False)
class OperatorSpec:
    """A declarative operator: kind, dimension, entries, ambient norm.

    Parameters
    ----------
    kind : str
        One of ``dense_matrix``, ``weighted_left_shift``, ``diagonal``,
        ``sparse_triplets``.
    dim : int
        Ambient dimension, at least 1.
    entries : array-like
        Kind-dependent payload: a (dim, dim) matrix, a (dim-1,) weight
        vector, a (dim,) diagonal, or a list of (row, col, value) triplets.
    norm_tag : str
        Ambient norm: ``l1``, ``l2``, or ``linf``.
    """

    kind: str
    dim: int
    entries: object
    norm_tag: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SpecValidationError(f"unknown operator kind {self.kind!r}, expected one of {KINDS}")
        if isinstance(self.dim, bool) or not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise SpecValidationError(f"dim must be an integer >= 1, got {self.dim!r}")
        self.dim = int(self.dim)
        if self.norm_tag not in NORM_TAGS:
            raise SpecValidationError(f"unknown norm tag {self.norm_tag!r}, expected one of {NORM_TAGS}")

        d = self.dim
        arrays = {
            KIND_DENSE: ("dense entries", (d, d)),
            KIND_SHIFT: ("shift weights", (d - 1,)),
            KIND_DIAGONAL: ("diagonal entries", (d,)),
        }
        if self.kind in arrays:
            what, shape = arrays[self.kind]
            arr = _as_float_array(self.entries, what)
            if arr.shape != shape:
                raise SpecValidationError(f"{what} must have shape {shape}, got {arr.shape}")
            self.entries = _freeze(arr)
        else:
            self.entries, self._layout = _validate_triplets(self.entries, d)
            # Reused by the sparse kernel: fresh block-sized temporaries
            # cost page faults on every call.  Per thread, so that threads
            # may share a spec.
            self._scratch = threading.local()
        self._blocks: dict[int, tuple] = {}

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        """Canonical JSON form: kind, dim, norm, entries, in that order."""
        if self.kind == KIND_SPARSE:
            rows, cols, vals = self.entries
            payload = [[int(r), int(c), float(v)] for r, c, v in zip(rows, cols, vals)]
        elif self.kind == KIND_DENSE:
            payload = [[float(v) for v in row] for row in self.entries]
        else:
            payload = [float(v) for v in self.entries]
        return {"kind": self.kind, "dim": self.dim, "norm": self.norm_tag, "entries": payload}

    @classmethod
    def from_json_dict(cls, obj) -> "OperatorSpec":
        if not isinstance(obj, dict):
            raise SpecValidationError(f"operator spec must be a JSON object, got {type(obj).__name__}")
        missing = [key for key in ("kind", "dim", "norm", "entries") if key not in obj]
        if missing:
            raise SpecValidationError(f"operator spec is missing fields: {', '.join(missing)}")
        return cls(kind=obj["kind"], dim=obj["dim"], entries=obj["entries"], norm_tag=obj["norm"])


def _as_float_array(values, what: str) -> np.ndarray:
    try:
        arr = np.array(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise SpecValidationError(f"{what} must be real numbers: {exc}") from None
    if arr.size and not np.all(np.isfinite(arr)):
        raise SpecValidationError(f"{what} must be finite")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _check_args(positive: dict | None = None, at_least_one: dict | None = None) -> None:
    """Raise for the first argument, named by its key, that is not > 0 (in
    `positive`) or not >= 1 (in `at_least_one`); a NaN is neither."""
    for name, value in (positive or {}).items():
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value}")
    for name, value in (at_least_one or {}).items():
        if not value >= 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def _validate_triplets(entries, dim: int):
    """The (rows, cols, vals) arrays of a triplet list, and its slot-prefix
    layout (inverse, cols, vals, bounds).

    The rows are permuted by triplet count, descending and stable, and slot
    s holds the s-th triplet of every row that has one: those rows are the
    first w_s permuted rows.  `cols` and `vals` list the triplets slot by
    slot, each slot in permuted-row order, and slot s spans
    bounds[s]:bounds[s + 1].  `inverse[r]` is the permuted position of row
    r.  So `apply_columns` adds a slot's products into a leading slice of a
    permuted accumulator, and each row still sums its triplets in triplet
    order.
    """
    try:
        entries = list(entries)
        triplets = [(int(r), int(c), float(v)) for r, c, v in entries]
        if any(isinstance(i, (bool, np.bool_)) or i != int(i) for r, c, _ in entries for i in (r, c)):
            raise ValueError("rows and columns must be integers")
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecValidationError(f"sparse entries must be (row, col, value) triplets: {exc}") from None
    seen = set()
    row_counts: dict[int, int] = {}
    slot = []
    for r, c, v in triplets:
        if not (0 <= r < dim and 0 <= c < dim):
            raise SpecValidationError(f"sparse index ({r}, {c}) out of range for dim {dim}")
        if (r, c) in seen:
            raise SpecValidationError(f"duplicate sparse index ({r}, {c})")
        if not math.isfinite(v):
            raise SpecValidationError("sparse values must be finite")
        seen.add((r, c))
        slot.append(row_counts.get(r, 0))
        row_counts[r] = slot[-1] + 1
    rows = _freeze(np.array([t[0] for t in triplets], dtype=np.int64))
    cols = _freeze(np.array([t[1] for t in triplets], dtype=np.int64))
    vals = _freeze(np.array([t[2] for t in triplets], dtype=np.float64))
    slot = np.array(slot, dtype=np.int64)
    inverse = np.empty(dim, dtype=np.int64)
    inverse[np.argsort(-np.bincount(rows, minlength=dim), kind="stable")] = np.arange(dim)
    order = np.argsort(slot * dim + inverse[rows], kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(slot))]).tolist()
    layout = (_freeze(inverse), _freeze(cols[order]), _freeze(vals[order]), bounds)
    return (rows, cols, vals), layout


def _weight_block(spec: OperatorSpec, width: int) -> tuple:
    """The weights of a non-dense spec for column blocks of `width`: a
    read-only (rows, width) block if it fits `_BLOCK_BYTES`, else a
    (rows, 1) column.  For a sparse spec, also the gather pieces and the
    triplet count of the largest one.

    A piece (lo, hi, spans) gathers triplets lo:hi at once, whose products
    fill at most `_BLOCK_BYTES` (one triplet at least).  Pieces fill greedily in
    slot order and cut a slot where they must; a span (start, stop, row) is
    the part of one slot in the piece, whose products go to the accumulator
    rows from `row` on.
    """
    weights = spec.entries
    pieces = []
    if spec.kind == KIND_SPARSE:
        _, _, weights, bounds = spec._layout
        cap = max(1, _BLOCK_BYTES // (8 * max(width, 1)))
        for first, end in zip(bounds[:-1], bounds[1:]):
            start = first
            while start < end:
                if not pieces or pieces[-1][1] - pieces[-1][0] == cap:
                    pieces.append([start, start, []])
                stop = min(end, start + cap - (pieces[-1][1] - pieces[-1][0]))
                pieces[-1][2].append((start, stop, start - first))
                pieces[-1][1] = start = stop
    if weights.size * width * 8 <= _BLOCK_BYTES:
        weights = _freeze(np.repeat(weights[:, None], width, axis=1))
    else:
        weights = weights[:, None]
    return weights, pieces, max((hi - lo for lo, hi, _ in pieces), default=0)


# -- application ---------------------------------------------------------


def _check_block(spec: OperatorSpec, X: np.ndarray) -> None:
    """Refuse a column block that is not a (dim, p) array."""
    if X.ndim != 2 or X.shape[0] != spec.dim:
        raise DimensionMismatchError(
            f"operator has dim {spec.dim} but column block has shape {X.shape}"
        )


def apply_columns(spec: OperatorSpec, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply the operator to each column of a (dim, p) array at once.

    With `out`, a float64 array of X's shape, the product is written there
    and `out` is returned, with the same bits as the allocating call.
    `out` must not overlap X.

    Dense specs are one matrix product.  The other kinds multiply by their
    weights shaped as a (rows, p) block, which numpy runs faster than a
    (rows, 1) broadcast and which gives the same products; a spec keeps the
    blocks of the last few widths it saw.  A sparse spec gathers the rows of
    X that each slot of its layout reads, scales them, and adds them into
    the leading rows of a permuted accumulator that starts at +0.0; one
    final gather un-permutes it.  Each row so sums ((0 + v0 x) + v1 x) + ...
    in triplet order, with the bits of `np.add.at`: signed zeros, infinities
    and NaNs land where it puts them (the sign of a NaN, which IEEE 754
    leaves open, follows numpy's add loop).
    """
    _check_block(spec, X)
    if out is not None and np.may_share_memory(out, X):
        raise ValueError("apply_columns: out must not overlap the column block")
    if spec.kind == KIND_DENSE:
        return np.matmul(spec.entries, X, out=out)
    width = X.shape[1]
    entry = spec._blocks.get(width)
    if entry is None:
        if len(spec._blocks) >= _BLOCK_WIDTHS:
            spec._blocks.clear()
        entry = spec._blocks[width] = _weight_block(spec, width)
    weights, pieces, most = entry
    if spec.kind == KIND_DIAGONAL:
        return np.multiply(weights, X, out=out)
    X = np.asarray(X, dtype=np.float64)  # the gathers below write float64
    if out is None:
        out = np.empty_like(X)
    if spec.kind == KIND_SHIFT:
        out[-1] = 0.0
        np.multiply(weights, X[1:], out=out[:-1])
        return out
    # `take` with mode="clip" writes into `out` unbuffered; every index is
    # in range, so clipping never applies.
    inverse, cols, _, _ = spec._layout
    size = X.size
    buf = getattr(spec._scratch, "buf", None)
    if buf is None or buf.size < size + most * width:
        buf = spec._scratch.buf = np.empty(size + most * width)
    acc = buf[:size].reshape(X.shape)
    acc.fill(0.0)
    gathered = buf[size : size + most * width].reshape(most, width)
    for lo, hi, spans in pieces:
        prod = np.take(X, cols[lo:hi], axis=0, out=gathered[: hi - lo], mode="clip")
        prod *= weights[lo:hi]
        for start, stop, row in spans:
            acc[row : row + stop - start] += prod[start - lo : stop - lo]
    return np.take(acc, inverse, axis=0, out=out, mode="clip")


# -- norms ---------------------------------------------------------------


def column_norms(X: np.ndarray, norm_tag: str) -> np.ndarray:
    """Per-column vector norms of a (dim, p) array, or of each (dim, p)
    slice of a (..., dim, p) stack, with the bits of the per-slice call.

    l2 squares the entries.  Where a square underflows, every column whose
    entries are all below 2^-500 in magnitude is read again scaled by 2^600
    and its norm scaled back, so that a nonzero column never reads 0; every
    other column has the bits of `np.linalg.norm` (and so would a column
    rescaled without an underflow: powers of two commute with every step).
    """
    # The ufunc reductions directly: the same bits as np.sum, np.linalg.norm
    # and np.max, without their Python wrappers.
    if norm_tag == "l1":
        return np.add.reduce(np.abs(X), axis=-2)
    if norm_tag == "l2":
        # The underflow flag screens every call for the price of a context;
        # exact zeros, which margins between equal means are full of, raise none.
        with np.errstate(under="raise"):
            try:
                return np.sqrt(np.add.reduce(X * X, axis=-2))
            except FloatingPointError:
                pass
        norms = np.sqrt(np.add.reduce(X * X, axis=-2))
        tiny = np.maximum.reduce(np.abs(X), axis=-2) < 2.0**-500
        scaled = np.ldexp(np.moveaxis(X, -2, -1)[tiny], 600)
        norms[tiny] = np.ldexp(np.sqrt(np.add.reduce(scaled * scaled, axis=-1)), -600)
        return norms
    if norm_tag == "linf":
        return np.maximum.reduce(np.abs(X), axis=-2)
    raise ValueError(f"unknown norm tag {norm_tag!r}")


def matrix_norm(mat: np.ndarray, norm_tag: str):
    """Exact induced operator norm of a dense matrix, or of each matrix of
    a (..., d, d) stack (an array of norms, each with the bits of the
    per-matrix call).

    l1 is the max column abs-sum, linf the max row abs-sum, l2 the largest
    singular value (computed by LAPACK SVD).
    """
    if norm_tag == "l1":
        norms = np.maximum.reduce(np.add.reduce(np.abs(mat), axis=-2), axis=-1)
    elif norm_tag == "linf":
        norms = np.maximum.reduce(np.add.reduce(np.abs(mat), axis=-1), axis=-1)
    elif norm_tag == "l2":
        # What np.linalg.norm(mat, 2) computes, for a stack too.
        norms = np.maximum.reduce(np.linalg.svd(mat, compute_uv=False), axis=-1)
    else:
        raise ValueError(f"unknown norm tag {norm_tag!r}")
    return float(norms) if mat.ndim == 2 else norms


def _abs_norms(spec: OperatorSpec) -> tuple[float, float, int]:
    """The l1 and linf norms of |T| (its largest column and row abs-sums) as
    computed, and k, the most terms in one of those sums or in one entry of
    T x: 1 for a diagonal or a shift, the longest row or column of a sparse
    spec, dim for a dense one."""
    T = spec.entries
    if spec.kind == KIND_DENSE:
        A = np.abs(T)
        return matrix_norm(A, "l1"), matrix_norm(A, "linf"), spec.dim
    if spec.kind == KIND_SPARSE:
        rows, cols, vals = T
        sums = [np.bincount(i, weights=np.abs(vals), minlength=spec.dim).max() for i in (cols, rows)]
        terms = max(int(np.bincount(i, minlength=1).max()) for i in (cols, rows))
        return float(sums[0]), float(sums[1]), max(1, terms)
    top = float(np.abs(T).max(initial=0.0))
    return top, top, 1


def _split_product(A, B):
    """(P, err): P = fl(AB), and err >= |AB - P| entry by entry, about u |AB|,
    for finite A and B under 2^900 (the leading bits split off error-free on
    BLAS: Ozaki, Ogita, Oishi and Rump, Numer. Algorithms 59, 2012).

    Let n be the inner dimension, u = 2^-53 and 2 rho >= 55 + log2 n.  A row
    of A whose largest magnitude is under 2^e splits without rounding as
    A_1 + A' with A_1 = fl(fl(A + sigma) - sigma), sigma = 2^s, s = e + rho
    (Sterbenz): A_1 holds multiples of 2^(s - 53) under 2^(s - rho + 1), and
    A' is under 2^(s - 53); each column of B splits alike at 2^t.  Every
    partial sum of (A_1 B_1)_pq is then a multiple of 2^(s + t - 106) under
    2^(s + t - 53), so fl(A_1 B_1) is exact, in any order of summation, where
    s + t >= -968 (no product underflows).  fl(A_1 B') and fl(A' B), and an
    inexact fl(A_1 B_1), err by at most gamma_n n a_p b_q + n 2^-1074, a_p and
    b_q the largest magnitudes in row p and column q of their factors, and
    adding the three by at most u of each of the two sums formed.  err adds
    those with (n + 2) u for gamma_n, 4n 2^-1074 and 2u for u, which covers
    its own rounding (under ten roundings in a row of nonnegative terms).
    """
    n = A.shape[1]
    rho = (56 + (n - 1).bit_length()) // 2

    def split(M, axis):  # (M_1, M', s) per row (axis 1) or column (axis 0)
        e = np.frexp(np.max(np.abs(M), axis=axis, keepdims=True))[1]
        sigma = np.ldexp(1.0, e + rho)
        lead = (M + sigma) - sigma
        return lead, M - lead, e + rho

    (A1, A2, s), (B1, B2, t) = split(A, 1), split(B, 0)
    top = lambda M, axis: np.max(np.abs(M), axis=axis, keepdims=True)
    a1, b1 = top(A1, 1), top(B1, 0)
    rest = A1 @ B2 + A2 @ B
    P = A1 @ B1 + rest
    lost = np.where(s + t < -968, a1 * b1, 0.0)
    err = (n + 2) * n * 2.0**-53 * (a1 * top(B2, 0) + top(A2, 1) * top(B, 0) + lost) + 4 * n * 2.0**-1074
    return P, err + 2.0**-52 * (np.abs(rest) + np.abs(P))


@functools.lru_cache(maxsize=4)  # a priori and tight, for both passes of a check_families call
def _l2_bound(spec: OperatorSpec, tight: bool = False) -> tuple[float, float, tuple]:
    """(r, estimate, (w, Q)): a rounding-sound upper bound r >= ||T||_2 of a
    dense spec, or inf, 2^e sqrt(max(w)), the estimate of ||T||_2 it rests
    on, and the eigenpairs it reads.

    S = 2^-e T, exact up to 2^-1074 per entry, has its largest magnitude in
    [1/2, 1) or is 0.  G is S^T S as computed, its lower triangle (which
    `np.linalg.eigh` reads) mirrored.  Let R = GQ - Q diag(w) and
    E = Q^T Q - I for the computed (w, Q).  If ||E||_2 <= 1/2, then
    ||Q^-1||_2 <= 1 + ||E||_2 and Q^-1 G Q = diag(w) + Q^-1 R, so by
    Bauer-Fike and Weyl ||S||_2^2 is at most
    max(w) + (1 + ||E||_2) ||R||_2 + ||G - S^T S||_2, and sqrt(l1 * linf) of
    a nonnegative envelope bounds the l2 norm of what it envelops.

    A priori, G = fl(S^T S) is within gamma_d |S|^T |S| of S^T S, and R and
    E as computed are off by at most u of themselves plus
    gamma_d (|G||Q| + |Q||w|) and gamma_d |Q|^T |Q|, under (d + 2) 2^-52
    times those: r is about d^2 u ||T||_2 above ||T||_2 (r - 1 is 1.0e-12 on
    the benchmark's dense-96-l2).  `tight` forms G, R = [G Q] [Q; -diag(w)]
    and E = [Q^T I] [Q; -I] by `_split_product` instead, whose envelopes are
    about u of themselves, so r is within a few u || |T| ||_2 of ||T||_2
    (r - 1 is 8.2e-15 to 1.02e-14 there), for three BLAS products each and
    the a priori call's (w, Q), whose residual against the split G is still
    about u ||G||: the bound holds for any pair.  Each term is formed from
    nonnegative numbers by at most 4d + 8 roundings in a row, so twice its
    computed value covers it and their sum; 2^-900 covers the subnormal
    products (under d^3 2^-1070 in all), and 1 + 2^-50 the addition of
    max(w), the root and itself.  r is that times 2^e, plus 2^-1074 for a
    subnormal product.
    """
    d, e = spec.dim, math.frexp(float(np.max(np.abs(spec.entries))))[1]
    c, norm = (d + 2) * 2.0**-52, lambda M: math.sqrt(np.max(M.sum(axis=0)) * np.max(M.sum(axis=1)))
    mirror = lambda M: np.tril(M) + np.tril(M, -1).T
    with np.errstate(over="ignore", invalid="ignore"):
        S = np.ldexp(spec.entries, -e)
        if tight:
            (G, gram), (w, Q), I = _split_product(S.T, S), _l2_bound(spec)[2], np.eye(d)
            G, gram = mirror(G), norm(mirror(gram))
            (R, res), (E, eta) = _split_product(np.hstack([G, Q]), np.vstack([Q, -np.diag(w)])), _split_product(
                np.hstack([Q.T, I]), np.vstack([Q, -I])
            )
            res, eta = 2.0 * norm(np.abs(R) + res), 2.0 * norm(np.abs(E) + eta)
        else:
            G, gram = mirror(S.T @ S), c * norm(np.abs(S)) ** 2
            w, Q = np.linalg.eigh(G)
            Qa = np.abs(Q)
            res = 2.0 * norm(np.abs(G @ Q - Q * w) + c * (np.abs(G) @ Qa + Qa * np.abs(w)))
            eta = 2.0 * norm(np.abs(Q.T @ Q - np.eye(d)) + c * (Qa.T @ Qa))
        square = (1.0 + eta) * res + 2.0 * gram + 2.0**-900 + np.max(w)
        r = float(np.ldexp(np.sqrt(square) * (1.0 + 2.0**-50), e)) + 2.0**-1074
        estimate = float(np.ldexp(np.sqrt(max(float(np.max(w)), 0.0)), e))
    return (r if eta <= 0.5 and r <= math.inf else math.inf), estimate, (w, Q)


# -- probe sets ----------------------------------------------------------


@dataclass(eq=False)
class ProbeSet:
    """An ordered set of unit-ball probe vectors with a provenance label.

    `vectors` has shape (count, dim); order is part of the identity of the
    set, since witness selection scans probes in this order.
    """

    vectors: np.ndarray
    norm_tag: str
    label: str

    def __post_init__(self):
        vecs = _as_float_array(self.vectors, "probe vectors")
        if vecs.ndim != 2:
            raise SpecValidationError("probe vectors must form a (count, dim) array")
        if vecs.shape[0] == 0:
            raise SpecValidationError("probe set must contain at least one probe")
        norms = column_norms(vecs.T, self.norm_tag)
        worst = float(np.max(norms))
        if worst > 1.0 + UNIT_BALL_SLACK:
            raise SpecValidationError(
                f"probe norm {worst} exceeds the unit ball slack 1+{UNIT_BALL_SLACK}"
            )
        self.vectors = _freeze(vecs)

    def __len__(self) -> int:
        return self.vectors.shape[0]

    def __getitem__(self, index: int) -> np.ndarray:
        return self.vectors[index]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def basis_probes(dim: int, norm_tag: str) -> ProbeSet:
    """The first min(dim, 32) canonical basis vectors."""
    count = min(dim, 32)
    return ProbeSet(np.eye(dim)[:count], norm_tag, f"canonical-basis-0..{count - 1}")


def default_probes(spec: OperatorSpec, seed: int = DEFAULT_SEED) -> ProbeSet:
    """Deterministic default probe set for an operator.

    The first min(dim, 32) canonical basis vectors, followed by 16 seeded
    random vectors normalized to unit ambient norm.
    """
    dim, norm_tag = spec.dim, spec.norm_tag
    k = min(dim, 32)
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((16, dim))
    raw /= column_norms(raw.T, norm_tag)[:, None]
    label = f"canonical-basis-0..{k - 1}+random-16(seed={seed:#x})"
    return ProbeSet(np.vstack([np.eye(dim)[:k], raw]), norm_tag, label)


# -- gallery -------------------------------------------------------------

_GALLERY_PATTERN = re.compile(r"^([a-z0-9_]+)\(([^()]*)\)$")


def gallery(name: str) -> OperatorSpec:
    """Build a gallery operator from a textual name like ``identity(8)``.

    Available entries: identity(d), zero(d), left_shift_l1(d), scalar(v),
    jordan_1(d), rotation(theta), random_diagonalizable(seed, d).
    """
    match = _GALLERY_PATTERN.match(name.strip())
    if not match:
        raise ValueError(f"cannot parse gallery name {name!r}; {_gallery_help()}")
    base, arg_text = match.group(1), match.group(2)
    args = [a.strip() for a in arg_text.split(",")] if arg_text.strip() else []
    builders = {
        "identity": _gallery_identity,
        "zero": _gallery_zero,
        "left_shift_l1": _gallery_left_shift,
        "scalar": _gallery_scalar,
        "jordan_1": _gallery_jordan,
        "rotation": _gallery_rotation,
        "random_diagonalizable": _gallery_random_diagonalizable,
    }
    if base not in builders:
        raise ValueError(f"unknown gallery entry {base!r}; {_gallery_help()}")
    try:
        return builders[base](args)
    except (TypeError, ValueError, SpecValidationError) as exc:
        if isinstance(exc, SpecValidationError):
            raise
        raise ValueError(f"bad arguments for gallery entry {base!r}: {exc}") from None


def _gallery_help() -> str:
    return (
        "available entries: identity(d), zero(d), left_shift_l1(d), scalar(v), "
        "jordan_1(d), rotation(theta), random_diagonalizable(seed,d)"
    )


def _gallery_identity(args):
    (d,) = map(int, args)
    return OperatorSpec(KIND_DIAGONAL, d, np.ones(d), "l2")


def _gallery_zero(args):
    (d,) = map(int, args)
    return OperatorSpec(KIND_DIAGONAL, d, np.zeros(d), "l2")


def _gallery_left_shift(args):
    (d,) = map(int, args)
    return OperatorSpec(KIND_SHIFT, d, np.ones(max(d - 1, 0)), "l1")


def _gallery_scalar(args):
    (value,) = map(float, args)
    return OperatorSpec(KIND_DIAGONAL, 1, np.array([value]), "l2")


def _gallery_jordan(args):
    (d,) = map(int, args)
    mat = np.eye(d)
    if d > 1:
        mat[np.arange(d - 1), np.arange(1, d)] = 1.0
    return OperatorSpec(KIND_DENSE, d, mat, "l2")


def _gallery_rotation(args):
    (theta,) = map(float, args)
    c, s = math.cos(theta), math.sin(theta)
    return OperatorSpec(KIND_DENSE, 2, np.array([[c, -s], [s, c]]), "l2")


def _gallery_random_diagonalizable(args):
    seed, d = map(int, args)
    rng = np.random.default_rng(seed)
    # Eigenvalues: a seeded count of exact ones, the rest kept away from 1
    # so that Cesaro convergence has a uniform rate floor.
    n_ones = int(rng.integers(0, 3))
    eigs = np.concatenate([np.ones(n_ones), rng.uniform(-0.85, 0.85, d - n_ones)])
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    mat = q @ np.diag(eigs) @ q.T
    mat = (mat + mat.T) / 2.0
    return OperatorSpec(KIND_DENSE, d, mat, "l2")


def built_in_gallery() -> list[str]:
    """Concrete gallery instances exercised by the acceptance suite."""
    return [
        "identity(8)",
        "zero(4)",
        "scalar(1.0)",
        "scalar(0.5)",
        "scalar(-1.0)",
        "scalar(2.0)",
        "jordan_1(2)",
        "rotation(1.0)",
        "left_shift_l1(64)",
        "random_diagonalizable(7,12)",
    ]

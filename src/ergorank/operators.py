"""Operator specifications, probe sets, norms, and the built-in gallery.

An `OperatorSpec` is a declarative description of a bounded linear operator
on a finite-dimensional real section: a dense matrix, a weighted left shift,
a diagonal operator, or a sparse triplet list, together with the ambient
norm (l1, l2, or linf) in which all vector and operator norms are taken.

Everything downstream (Cesaro means, classification, trees, certificates)
consumes these specs through `apply_columns` and the two norm reducers,
`column_norms` for vectors and `matrix_norm` for dense matrices, so the
spec plus a seed fully determines every computed number.

A spec prepares its kernel once: a sparse spec builds its slot-prefix
layout when validated, and non-dense weights are shaped like the column
blocks they multiply, once per block width.  Neither changes a bit.
"""

from __future__ import annotations

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
        if self.kind == KIND_DENSE:
            mat = _as_float_array(self.entries, "dense entries")
            if mat.shape != (d, d):
                raise SpecValidationError(f"dense entries must have shape ({d}, {d}), got {mat.shape}")
            self.entries = _freeze(mat)
        elif self.kind == KIND_SHIFT:
            w = _as_float_array(self.entries, "shift weights")
            if w.shape != (d - 1,):
                raise SpecValidationError(f"shift weights must have shape ({d - 1},), got {w.shape}")
            self.entries = _freeze(w)
        elif self.kind == KIND_DIAGONAL:
            diag = _as_float_array(self.entries, "diagonal entries")
            if diag.shape != (d,):
                raise SpecValidationError(f"diagonal entries must have shape ({d},), got {diag.shape}")
            self.entries = _freeze(diag)
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

    l2 squares the entries, so a nonzero column whose entries are all below
    about 1e-162 reads norm 0 (the squares underflow), as it did through
    `np.linalg.norm`.
    """
    # The ufunc reductions directly: the same bits as np.sum, np.linalg.norm
    # and np.max, without their Python wrappers.
    if norm_tag == "l1":
        return np.add.reduce(np.abs(X), axis=-2)
    if norm_tag == "l2":
        return np.sqrt(np.add.reduce(X * X, axis=-2))
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


def basis_probes(dim: int, norm_tag: str, count: int | None = None) -> ProbeSet:
    """The first `count` canonical basis vectors (default min(dim, 32))."""
    count = min(dim, 32) if count is None else count
    if not 1 <= count <= dim:
        raise ValueError(f"basis probe count must be in [1, {dim}], got {count}")
    vecs = np.eye(dim)[:count]
    return ProbeSet(vecs, norm_tag, f"canonical-basis-0..{count - 1}")


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

"""Incremental Cesaro means of operator powers.

For an operator T and a column block X, the Cesaro means are
A_n X = (X + TX + ... + T^(n-1) X) / n.  `CesaroStream` is the one place
they are computed.  It carries the running sum S_n = n A_n X, with S_1 = X
and S_(n+1) = S_n + P_n for the powers P_n = T^n X, adds the powers in
sequence entry by entry, yields A_n X = S_n / n, and applies the overflow
policy to every power it produces.

The stream hands out chunks of consecutive steps, and a chunk pays the
Python round trip, the power-norm reductions and the floating-point error
state once for all of its steps; its size follows from the block's byte
size.  A small block of a diagonal or dense T (`_SMALL_STEPS` steps per
chunk or more, and a dense T up to `_DOUBLING_DIM`) forms a chunk in a few
numpy calls along the step axis: its sums in one `np.add.accumulate`,
diagonal powers in one `np.multiply.accumulate` (the bits of the per-step
product), and dense powers on a doubling grid.
The grid cuts the steps into groups of G anchored at n = 1: the first power
of a group is T times the last power before it, and slot i of a group, for
2^j <= i < 2^(j+1), is T^(2^j) times slot i - 2^j, so a group costs
log2(G) + 1 batched products (a T^(2^j) with an entry above
`OVERFLOW_LIMIT` is not formed, and the largest one below stands in).
G depends only on the operator and the block's shape (see `_grid`), so
no step's bits depend on where the chunks fall.  Every other block takes
one call per step for its power and one for its sum, with the same bits.

A power that T maps to itself bit for bit is stationary: every later power
is the same block, so after it the stream stops applying T and reducing
power norms, and the sums follow the closed form S_n = S_s + (n - s) P,
anchored at the first step s past it.  Nilpotent shift sections reach
P_n = 0 this way, and the identity reaches P_n = X.  The stream exposes
that anchor and the closed-form mean (`anchor`, `closed_form`), so a reader
can take a mean past s without walking to it: every later mean is
P + (S_s - sP)/n, monotone in n in each entry, so a tail's distances to
its last mean are bounded past s by their value at s or at the tail's
start (see `classify._tail_radius`).  `chunks` is the one walk, and it
always starts at n = 1, so a reader that needs the means again walks
again.  A reader that knows no power overflows, because it has bounded
every norm before the walk starts (see `classify._reads`) or an earlier walk
reached the horizon, walks without power norms, and the stream forms only
the means it reads.  Two far means A_(N//2) and A_N need no walk: `ladder`
forms them from log2(N) doublings of the sum, with squarings of a dense T
up to `_DOUBLING_DIM` (shared with the doubling grid, and with `power`,
which forms T^m Y from them), at other bits than a walk's, so a reader of
them reads only a proven bound on their rounding.
Everything that needs means reads them from a stream: one vector is a
(dim, 1) block, and the dense A_1..A_N are the stream of the identity
block, X = I.  For a diagonal T every A_n is diagonal, and a packed stream
walks the identity as the column of its diagonal (see `CesaroStream`).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from .operators import (
    KIND_DENSE,
    KIND_DIAGONAL,
    OperatorSpec,
    _check_args,
    _check_block,
    apply_columns,
    column_norms,
)

#: Column norms of a power beyond this are treated as divergence and stop
#: the stream.  The limit leaves headroom so norms (and norms of
#: differences) of every mean the stream produced stay finite in double
#: precision.
OVERFLOW_LIMIT = 1e140

#: Bytes of one chunk buffer: a chunk holds as many steps as fit, and at
#: least one.  Budgets from 64 KB to 1 MB timed the same within noise on
#: the gallery and on 96 KB blocks; 256 KB keeps a chunk's means, powers
#: and the consumers' temporaries inside a 2 MB L2 cache.
_CHUNK_BYTES = 256 * 1024

#: Dense operators up to this dim get doubled powers (see `_grid`).  On a
#: larger T, squaring costs more than the per-step calls doubling saves.
#: Walks of one column, 2 vCPUs, doubled against one product per step:
#: dim 96, 256 / 10 000 steps, 1.2 / 22 ms against 1.6 / 45 ms; dim 128 on
#: par; dim 256, 32 / 2 000 steps, 4.3 / 91 ms against 0.6 / 80 ms.
_DOUBLING_DIM = 128

#: A diagonal or dense block with at least this many steps per chunk is
#: small: its chunks run as a few numpy calls along the steps.  numpy runs
#: those calls without SIMD along the step axis, so they tie with one call
#: per step at 64 steps per chunk and lose on wider blocks.
_SMALL_STEPS = 64


def _capacity(block_bytes: int) -> int:
    """Steps per chunk for a column block of `block_bytes` bytes."""
    return max(1, _CHUNK_BYTES // max(block_bytes, 1))


def _grid(spec: OperatorSpec, shape: tuple[int, int]) -> int:
    """Steps per doubling group of a (dim, p) block: for a small dense block
    of an operator up to `_DOUBLING_DIM`, the largest power of two G whose
    group fits `_CHUNK_BYTES`; 1 (no doubling) otherwise."""
    dim, p = shape
    steps = _CHUNK_BYTES // max(8 * dim * p, 1)
    if spec.kind != KIND_DENSE or dim > _DOUBLING_DIM or steps < _SMALL_STEPS:
        return 1
    return 1 << (steps.bit_length() - 1)


def doubles(spec: OperatorSpec, shape: tuple[int, int]) -> bool:
    """Whether a walk of a (dim, p) block forms its powers on the doubling
    grid, from squarings of T (see `_grid`), rather than as T times the
    power before it, one product of its columns per step."""
    return _grid(spec, shape) > 1


def _power_norms(powers: np.ndarray, tag: str):
    """Column norms of a (count, dim, p) stack of powers and their maxima,
    cut after the first step with a norm that is non-finite or above
    `OVERFLOW_LIMIT`, whose norms are clamped to the limit; and whether
    that step exists."""
    norms = column_norms(powers, tag)
    tops = np.maximum.reduce(norms, axis=1, initial=0.0)
    if np.maximum.reduce(tops) <= OVERFLOW_LIMIT:
        return norms, tops, False
    count = int(np.argmin(tops <= OVERFLOW_LIMIT)) + 1
    norms, tops = norms[:count], tops[:count]
    norms[-1] = np.where(norms[-1] <= OVERFLOW_LIMIT, norms[-1], OVERFLOW_LIMIT)
    tops[-1] = norms[-1].max()
    return norms, tops, True


def _same_as_before(stack: np.ndarray) -> np.ndarray:
    """For each slot of a stack but the first, whether it equals the slot
    before it bit for bit (signed zeros included)."""
    bits = stack.reshape(len(stack), -1).view(np.uint64)
    return (bits[1:] == bits[:-1]).all(axis=1)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two blocks of one shape are equal bit for bit (signed zeros
    included), compared as uint64 words without copying a contiguous one."""
    return bool((a.reshape(-1).view(np.uint64) == b.reshape(-1).view(np.uint64)).all())


class Chunk(NamedTuple):
    """Steps n = first, first + 1, ..., one slot per step.

    `means[i]` is A_n X and `powers[i]` is P_n at n = first + i, both
    (count, dim, p) stacks; `power_norms[i]` holds the column norms of P_n,
    with the overflowed ones replaced by `OVERFLOW_LIMIT`, and
    `power_max[i]` their maximum.  The means and powers live in buffers the
    stream reuses (once the power is stationary, `powers` and the norms are
    read-only broadcasts of one step), so they are valid only until the
    next chunk is requested: a consumer copies whatever it keeps.  A walk
    for a reader that reads few means (see `CesaroStream.chunks`) leaves
    `power_norms` and `power_max` None, and `means` None where it reads none.
    """

    first: int
    means: np.ndarray
    powers: np.ndarray
    power_norms: np.ndarray
    power_max: np.ndarray


class CesaroStream:
    """The Cesaro means of one (dim, p) column block X under an operator;
    a block of any other shape raises `DimensionMismatchError`.

    `chunks` produces the steps n = 1, 2, ..., horizon in `Chunk`s.  It
    stops early at the first n whose power has a column norm that is
    non-finite or above `OVERFLOW_LIMIT`: that step ends the last chunk,
    and `diverged_at` is set to n before the chunk is produced.  Once
    T P_n equals P_n bit for bit (signed zeros included), the stream stops
    applying T: every later step has that same P and power norms, and
    `anchor` holds (S_s, P, s) for the first step s past it (None before).

    A `packed` stream of a diagonal T holds a diagonal (dim, dim) block by
    its diagonal, a (dim, 1) X: T scales the rows of a block, so every step
    holds the diagonal of the dense block's step bit for bit, and the dense
    block's other entries are +0.0 in its means.  It is cut into the chunks
    of the dense block, and its overflow guard reads each power's largest
    |entry|, the largest column norm of the dense power in every norm, so
    it stops where the dense block's walk stops.
    """

    def __init__(self, spec: OperatorSpec, X: np.ndarray, packed: bool = False):
        _check_block(spec, X)
        self.spec = spec
        self.X = X
        self.packed = packed
        self.diverged_at: int | None = None
        self.anchor: tuple | None = None
        self._doublings = [spec.entries] if spec.kind == KIND_DENSE else []  # T, T^2, T^4, ...

    def dense(self) -> np.ndarray:
        """T as a dense (dim, dim) matrix, not to be written: a dense spec's
        own entries, and for the other kinds T applied to the identity, which
        the stream keeps as its first level up to `_DOUBLING_DIM` (see
        `_level`) and forms afresh above it, where it squares none."""
        if self._doublings:
            return self._doublings[0]
        T = apply_columns(self.spec, np.eye(self.spec.dim))
        if self.spec.dim <= _DOUBLING_DIM:
            self._doublings.append(T)
        return T

    def _level(self, j: int) -> np.ndarray | None:
        """T^(2^j), squared from `dense` and cached, for a T up to
        `_DOUBLING_DIM` or dense; None past the first square with an entry
        above `OVERFLOW_LIMIT` (or NaN)."""
        levels = self._doublings
        if not levels:
            self.dense()  # which keeps T as the first level
        while len(levels) <= j and levels[-1] is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                square = np.matmul(levels[-1], levels[-1])
            usable = np.maximum.reduce(np.abs(square), axis=None) <= OVERFLOW_LIMIT
            levels.append(square if usable else None)
        return levels[j] if j < len(levels) else None

    def _doubling(self, width: int) -> tuple[int, np.ndarray]:
        """The largest 2^j <= width whose power T^(2^j) is usable, and it."""
        j = width.bit_length() - 1
        while self._level(j) is None:
            j -= 1
        return 1 << j, self._level(j)

    def chunks(self, horizon: int, reads=None):
        """Yield the `Chunk`s of n = 1, 2, ..., up to `horizon`.  Every walk
        starts at n = 1 and sets `diverged_at` and `anchor` afresh.

        Given `reads`, this is the walk of a reader that has proven that no
        power overflows and reads means only where `reads(lo, hi)` says it
        reads one of the steps [lo, hi): its chunks reduce no power norms
        (`power_norms` and `power_max` are None) and form their means only
        there (`means` is None elsewhere).  The running sum, the powers and
        the anchor are those of a walk without `reads`."""
        _check_args(at_least_one={"horizon": horizon})
        spec = self.spec
        self.diverged_at = anchor = self.anchor = None  # (S_s, P, s) once stationary
        S = np.array(self.X, dtype=np.float64, order="C")  # the running sum, updated in place
        prev, first, shape = self.X, 1, S.shape
        # Blocks above `_CHUNK_BYTES` step one at a time, which measured
        # faster: two steps per chunk made the dense uniform-ergodicity
        # passes of 256-wide (512 KB) identity blocks 3-9 % slower.  A
        # packed block is cut as the dense block it holds.
        capacity = _capacity(S.nbytes * (shape[0] if self.packed else 1))
        guard = "linf" if self.packed else spec.norm_tag
        K = min(capacity, horizon)
        G = _grid(spec, shape)
        diagonal = spec.kind == KIND_DIAGONAL
        small = G > 1 or diagonal and capacity >= _SMALL_STEPS
        # C order keeps every column-norm reduction in one summation order.
        # On a small block, slot 0 of `buf` holds the power before a chunk
        # (or its doubling group), then the sum before the chunk's first
        # power, so one accumulate forms each.  A stepped block writes its
        # powers from slot 0 on, and a one-step chunk (K = 1) uses two slots
        # in turn, since T must not write the power it reads: a shorter
        # chunk of K >= 2 ends the stream or reaches a stationary power.
        size = 1 + min(max(K, G), horizon) if small else max(K, 2)
        buf = np.empty((size, *shape))
        means = np.empty((K, *shape))
        offsets = np.arange(float(K)).reshape(K, *(1,) * len(shape))
        fixed = None  # K-step broadcasts of P, its norms and maximum once stationary
        r = group = base = 0  # offset in the doubling group, its length, a stepped block's slot
        while True:
            count = min(K, horizon - first + 1)
            # A chunk may end sooner, so this reads a superset of its steps.
            formed = reads is None or reads(first, first + count)
            with np.errstate(over="ignore", invalid="ignore"):
                if anchor is not None:
                    P = anchor[1]
                    if fixed is None:
                        norms, tops = _power_norms(P[None], guard)[:2] if reads is None else ([None], [None])
                        ends = (P, norms[0], tops[0])
                        fixed = [v if v is None else np.broadcast_to(v, (K, *v.shape)) for v in ends]
                    A = self.closed_form(offsets[:count] + first, out=means[:count]) if formed else None
                    chunk = Chunk(first, A, *(v if v is None else v[:count] for v in fixed))
                else:
                    stationary = False
                    if small:
                        o = 1 + r
                        if r == 0:
                            buf[0] = prev
                            group = min(G, horizon - first + 1) if G > 1 else count
                        count = min(count, group - r)
                        region = buf[o : o + count]
                        if diagonal:
                            region[...] = spec.entries[:, None]
                            np.multiply.accumulate(buf[o - 1 : o + count], axis=0, out=buf[o - 1 : o + count])
                        elif r == 0:
                            np.matmul(spec.entries, buf[0], out=buf[1])
                            filled = 1
                            while filled < group:
                                step, power = self._doubling(filled)
                                width = min(step, group - filled)
                                lo = 1 + filled - step
                                np.matmul(power, buf[lo : lo + width], out=buf[1 + filled : 1 + filled + width])
                                filled += width
                        # A doubled power that equals the one before it is
                        # stationary only if T maps it to itself.
                        for i in np.flatnonzero(_same_as_before(buf[o - 1 : o + count])):
                            Q = region[i]
                            if diagonal or apply_columns(spec, Q).tobytes() == Q.tobytes():
                                stationary, count = True, int(i) + 1
                                break
                    else:
                        region, src = buf[base : base + count], prev
                        for i in range(count):
                            Q = apply_columns(spec, src, out=region[i])
                            if formed:
                                np.divide(S, first + i + 0.0, out=means[i])  # A_n = S_n / n
                            S += Q  # S_(n+1) = S_n + P_n
                            # The first row first, so most steps skip the full compare.
                            if Q[0].tobytes() == src[0].tobytes() and _same_bits(Q, src):
                                stationary, count = True, i + 1
                                break
                            src = Q
                    norms, tops, over = None, None, False
                    if reads is None:
                        norms, tops, over = _power_norms(region[:count], guard)
                        count = len(tops)
                    region = region[:count]
                    if small:
                        buf[o - 1] = S
                        A = np.add.accumulate(buf[o - 1 : o - 1 + count], axis=0, out=means[:count])
                        np.add(A[-1], region[-1], out=S)
                        if formed:
                            A /= offsets[:count] + first
                        r = (r + count) % group
                    else:
                        A = means[:count]
                        base = 1 - base if K == 1 else 0
                    A = A if formed else None
                    prev = region[-1]
                    if over:
                        self.diverged_at = first + count - 1
                    elif stationary:
                        self.anchor = anchor = (S.copy(), prev.copy(), first + count)
                    chunk = Chunk(first, A, region, norms, tops)
            yield chunk
            first += count
            if self.diverged_at is not None or first > horizon:
                return

    def closed_form(self, indices, out=None) -> np.ndarray:
        """A_n X = (S_s + (n - s) P) / n for each of `indices`, all at or past
        the anchor's step s, as one (count, dim, p) stack (written into `out`
        if given) with the bits the walk gives them: the walk calls it too."""
        s_sum, P, s = self.anchor
        steps = np.asarray(indices, dtype=np.float64).reshape(-1, *(1,) * self.X.ndim)
        A = np.multiply(steps - s, P, out=out)
        A += s_sum
        A /= steps
        return A

    def ladder(self, horizon: int):
        """(A_t X, A_N X) for N = `horizon` and t = max(1, N//2), formed
        without a walk on a doubling ladder over the binary digits of N:
        S_1 = X, S_2m = S_m + T^m S_m and S_(m+1) = X + T S_m, T^m the
        product of the levels T^(2^j) of m's digits (see `_level`), so S_t
        is the rung before S_N.  Its bits are not the walk's (see
        `classify._deviation` for how far they may be from the exact
        means).  None above `_DOUBLING_DIM`, where squaring T costs more
        than stepping, and where a level it needs passes `OVERFLOW_LIMIT` or
        a mean is not finite."""
        if self.spec.dim > _DOUBLING_DIM:
            return None
        X, t = self.X, max(1, horizon // 2)
        S, S_t = np.array(X, dtype=np.float64), None
        with np.errstate(all="ignore"):
            for i in range(horizon.bit_length() - 2, -1, -1):  # the digits after the leading one
                m = horizon >> (i + 1)  # S is S_m
                if m == t:
                    S_t = S
                if (Y := self.power(m, S)) is None:
                    return None
                S = S + Y  # S_2m
                if horizon >> i & 1:
                    S = X + self._level(0) @ S  # S_(2m+1)
            means = (S if S_t is None else S_t) / t, S / horizon
        return means if all(np.isfinite(A).all() for A in means) else None

    def power(self, m: int, Y: np.ndarray) -> np.ndarray | None:
        """T^m Y as the product of the levels T^(2^j) of m's binary digits
        (see `_level`), lowest first; None above `_DOUBLING_DIM`, where
        squaring T costs more than stepping, and where a level it needs
        passes `OVERFLOW_LIMIT`.  Its bits are not a walk's (see
        `classify._deviation`)."""
        if self.spec.dim > _DOUBLING_DIM:
            return None
        for j in range(m.bit_length()):
            if m >> j & 1:
                if (level := self._level(j)) is None:
                    return None
                Y = level @ Y
        return Y

    def means_at(self, indices) -> dict[int, np.ndarray]:
        """A_n X for each requested n that the stream reaches."""
        wanted = sorted({int(i) for i in indices})
        if not wanted:
            return {}
        means = {}
        for chunk in self.chunks(wanted[-1]):
            lo, hi = chunk.first, chunk.first + len(chunk.means)
            for n in wanted[bisect_left(wanted, lo) : bisect_left(wanted, hi)]:
                means[n] = chunk.means[n - lo].copy()
        return means

"""Incremental Cesaro means of operator powers.

For an operator T and a column block X, the Cesaro means are
A_n X = (X + TX + ... + T^(n-1) X) / n.  `CesaroStream` is the one place
they are computed: it steps the running-mean recurrence

    A_(n+1) X = (n A_n X + T^n X) / (n+1)

with the power cursor P_n = T^n X, and applies the overflow policy to every
cursor it produces.  Every block steps the same way, by `apply_columns`.

The stream hands out chunks of consecutive steps.  The recurrence stays
sequential and in place, one step at a time, but a chunk pays the Python
round trip, the power-norm reductions and the floating-point error state
once for all of its steps; its size follows from the block's byte size.
A power that T maps to itself bit for bit is stationary: every later power
is the same block, so the stream stops applying T and reducing power norms
and only steps the means.  Nilpotent shift sections reach P_n = 0 this way,
and the identity reaches P_n = X.  This is exact, because `apply_columns`
is a deterministic function of its input.  A stream can resume from any
(n, A_n, P_n) it produced, so a tail can be re-scanned without replaying
its prefix.  Everything that needs means reads them from a stream: one
vector is a (dim, 1) block, and the dense A_1..A_N are the stream of the
identity block, X = I.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from .operators import OperatorSpec, _check_args, apply_columns, column_norms

#: Column norms of a power beyond this are treated as divergence and stop
#: the stream.  The limit leaves headroom so norms (and norms of
#: differences) of every mean the recurrence produced stay finite in double
#: precision.
OVERFLOW_LIMIT = 1e140

#: Bytes of one chunk buffer: a chunk holds as many steps as fit, and at
#: least one.  Budgets from 64 KB to 1 MB timed the same within noise on
#: the gallery and on 96 KB blocks; 256 KB keeps a chunk's means, powers
#: and the consumers' temporaries inside a 2 MB L2 cache.
_CHUNK_BYTES = 256 * 1024


def _capacity(block_bytes: int) -> int:
    """Steps per chunk for a column block of `block_bytes` bytes."""
    return max(1, _CHUNK_BYTES // max(block_bytes, 1))


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


class Chunk(NamedTuple):
    """Steps n = first, first + 1, ..., one slot per step.

    `means[i]` is A_n X and `powers[i]` is P_n at n = first + i, both
    (count, dim, p) stacks; `power_norms[i]` holds the column norms of P_n,
    with the overflowed ones replaced by `OVERFLOW_LIMIT`, and
    `power_max[i]` their maximum.  The means and powers live in buffers the
    stream reuses (once the power is stationary, `powers` and the norms are
    read-only broadcasts of one step), so they are valid only until the
    next chunk is requested: a consumer copies whatever it keeps.
    """

    first: int
    means: np.ndarray
    powers: np.ndarray
    power_norms: np.ndarray
    power_max: np.ndarray


class CesaroStream:
    """The Cesaro means of one column block X under an operator.

    `chunks` produces the steps n = 1, 2, ..., horizon in `Chunk`s.  It
    stops early at the first n whose power has a column norm that is
    non-finite or above `OVERFLOW_LIMIT`: that step ends the last chunk,
    and `diverged_at` is set to n before the chunk is produced.  Once
    T P_n equals P_n bit for bit (signed zeros included), the stream stops
    applying T: every later step has that same P and power norms.
    """

    def __init__(self, spec: OperatorSpec, X: np.ndarray):
        self.spec = spec
        self.X = X
        self.diverged_at: int | None = None

    def chunks(self, horizon: int, start: tuple | None = None):
        """Yield the `Chunk`s of n up to `horizon`, from n = 1 or from the
        checkpoint `start` = (n, A_n X, P_n)."""
        _check_args(at_least_one={"horizon": horizon})
        spec, tag = self.spec, self.spec.norm_tag
        if start is None:
            start = (1, self.X, apply_columns(spec, self.X))
        first, A, P = start
        self.diverged_at = None
        # Blocks above `_CHUNK_BYTES` step one at a time, which measured
        # faster: two steps per chunk made the dense uniform-ergodicity
        # passes of 256-wide (512 KB) identity blocks 3-9 % slower.
        K = min(_capacity(A.nbytes), max(1, horizon - first + 1))
        # Every chunk fills the same buffers; C order keeps every column-norm
        # reduction in one summation order.  A chunk's first step is formed
        # from the last step of the chunk before: a mean may overwrite its
        # predecessor in place, but T must not write the power it reads.  A
        # chunk that ends after one step of K >= 2 either ends the stream or
        # reached a stationary power, so only one-step chunks (K = 1) need
        # two power slots, used in turn.
        means = np.empty((K, *A.shape))
        powers = np.empty((max(K, 2), *A.shape))
        power_sets = [powers, powers[1:]] if K == 1 else [powers]
        fixed = None  # K-step broadcasts of P, its norms and maximum once stationary
        head = True  # the first slot of the first chunk is the start itself
        while True:
            powers = power_sets[0]
            power_sets.reverse()
            count = max(1, min(K, horizon - first + 1))  # a start past the horizon is one step
            stationary = False
            with np.errstate(over="ignore", invalid="ignore"):
                if head:
                    means[0], powers[0] = A, P
                    A, P = means[0], powers[0]
                # Slot i is step first + i, formed from (A, P) at step m; m
                # as an exact float spares the ufuncs an integer conversion.
                for i in range(int(head), count):
                    m = first + i - 1.0
                    A = np.multiply(A, m, out=means[i])
                    A += P
                    A /= m + 1.0
                    if fixed is None:
                        Q = apply_columns(spec, P, out=powers[i])
                        # The first row first, so most steps skip the full compare.
                        if Q[0].tobytes() == P[0].tobytes() and Q.tobytes() == P.tobytes():
                            stationary, count = True, i + 1
                            break
                        P = Q
                head = False
                if fixed is None:
                    norms, tops, over = _power_norms(powers[:count], tag)
                    count = len(tops)
                    if over:
                        self.diverged_at = first + count - 1
                    elif stationary:
                        P = powers[count - 1].copy()
                        fixed = [np.broadcast_to(v, (K, *v.shape)) for v in (P, norms[-1], tops[-1])]
                    chunk = Chunk(first, means[:count], powers[:count], norms, tops)
                else:
                    chunk = Chunk(first, means[:count], *(v[:count] for v in fixed))
            yield chunk
            first += count
            if self.diverged_at is not None or first > horizon:
                return

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

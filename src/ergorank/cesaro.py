"""Incremental Cesaro means of operator powers.

For an operator T and a column block X, the Cesaro means are
A_n X = (X + TX + ... + T^(n-1) X) / n.  `CesaroStream` is the one place
they are computed: it steps the running-mean recurrence

    A_(n+1) X = (n A_n X + T^n X) / (n+1)

with the power cursor P_n = T^n X, and applies the overflow policy to every
cursor it produces.  Every block steps the same way, by `apply_columns`.
A power that T maps to itself bit for bit is stationary: every later power
is the same block, so the stream stops applying T and reducing power norms
and only steps the means.  Nilpotent shift sections reach P_n = 0 this way,
and the identity reaches P_n = X.  This is exact, because `apply_columns`
is a deterministic function of its input.  A stream can resume from any
(n, A_n, P_n) it yielded, so a tail can be re-scanned without replaying
its prefix.  Everything that needs means reads them from a stream: one
vector is a (dim, 1) block, and the dense A_1..A_N are the stream of the
identity block, X = I.
"""

from __future__ import annotations

import numpy as np

from .operators import OperatorSpec, apply_columns, column_norms

#: Column norms of a power beyond this are treated as divergence and stop
#: the stream.  The limit leaves headroom so norms (and norms of
#: differences) of every mean the recurrence produced stay finite in double
#: precision.
OVERFLOW_LIMIT = 1e140


def _power_norms(P: np.ndarray, norm_tag: str):
    """Column norms of a power, clamped to `OVERFLOW_LIMIT`, their maximum
    (0 for a block without columns), and whether any of them overflowed."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = column_norms(P, norm_tag)
        top = norms.max() if norms.size else 0.0
        if top <= OVERFLOW_LIMIT:
            return norms, top, False
        norms = np.where(norms <= OVERFLOW_LIMIT, norms, OVERFLOW_LIMIT)
        return norms, norms.max(), True


class CesaroStream:
    """The Cesaro means of one column block X under an operator.

    `run` yields (n, A_n X, P_n) for n = 1, 2, ..., horizon, where
    P_n = T^n X.  It stops early at the first n whose power has a column
    norm that is non-finite or above `OVERFLOW_LIMIT`; that step is still
    yielded, and `diverged_at` is set to n before it is.  `power_norms`
    holds the column norms of the P_n just yielded, with the overflowed
    ones replaced by the limit, and `power_max` their maximum.  Once
    T P_n equals P_n bit for bit (signed zeros included), the stream stops
    applying T: it yields that same P and `power_norms` from then on.
    Yielded arrays are never mutated, so a consumer may keep them as
    snapshots or as a checkpoint for `run`.
    """

    def __init__(self, spec: OperatorSpec, X: np.ndarray):
        self.spec = spec
        self.X = X
        self.diverged_at: int | None = None
        self.power_norms: np.ndarray | None = None
        self.power_max: np.float64 | None = None

    def run(self, horizon: int, start: tuple | None = None):
        """Yield (n, A_n X, P_n) up to `horizon`, from n = 1 or from the
        checkpoint `start` = (n, A_n X, P_n)."""
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        spec, tag = self.spec, self.spec.norm_tag
        if start is None:
            # C order keeps every column-norm reduction in one summation order.
            P = apply_columns(spec, self.X)
            start = (1, np.ascontiguousarray(self.X), np.ascontiguousarray(P))
        n, A, P = start
        self.diverged_at = None
        self.power_norms, self.power_max, over = _power_norms(P, tag)
        stationary = False
        while True:
            if over:
                self.diverged_at = n
            yield n, A, P
            if over or n >= horizon:
                return
            A = n * A + P
            A /= n + 1
            n += 1
            if not stationary:
                Q = apply_columns(spec, P)
                norms, top, over = _power_norms(Q, tag)
                # Cheap necessary conditions first (the maximum, the column
                # norms, the first row), so most steps skip the full compare.
                stationary = (
                    top == self.power_max
                    and norms.tobytes() == self.power_norms.tobytes()
                    and Q[0].tobytes() == P[0].tobytes()
                    and Q.tobytes() == P.tobytes()
                )
                if not stationary:
                    P, self.power_norms, self.power_max = Q, norms, top

    def means_at(self, indices) -> dict[int, np.ndarray]:
        """A_n X for each requested n that the stream reaches."""
        wanted = {int(i) for i in indices}
        if not wanted:
            return {}
        return {n: A for n, A, _ in self.run(max(wanted)) if n in wanted}

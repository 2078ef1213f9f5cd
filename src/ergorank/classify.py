"""Finite-horizon verdicts for four operator families.

Each check scans data up to a horizon and returns a `Verdict` with status
``holds``, ``fails``, or ``inconclusive``.  The error discipline is
one-sided: a ``fails`` verdict always carries a concrete, replayable
witness, while missing evidence degrades to ``inconclusive``, never to a
wrong ``fails``.

Boundedness checks (power-bounded, Cesaro-bounded) look for a uniform bound
k <= bound_cap over the scanned range and treat sustained growth of the
running maximum as divergence evidence.  Ergodicity and uniform ergodicity
are one Cauchy test of the means, read per probe (strong topology) or in
operator norm, and one reducer, `_tail_verdict`, decides both: it certifies
a small tail diameter over [N/2, N] via the radius bound
diam <= 2 * max_n ||A_n - A_N||, and treats a non-decaying gap at the three
dyadic scales (N/4, N/2, N) as divergence evidence.  The radius is also a
lower bound on the diameter wherever it is read in an exact norm, so every
tail is bracketed in [radius, 2 * radius].

Every check projects one reducer, `_block_verdicts`, over one pass of
`CesaroStream` on a block, with norms reduced one chunk of steps at a time:
per-step maxima are arrays, and the first step above a cap is found with
`argmax`.  The scan mode (``probe`` or ``dense``) fixes how a pass reads its
norms: `_mode_norms` gives the per-step, gap and radius readers of each.
`check_families` makes one pass per block: the probe block gives the
power-bounded, Cesaro-bounded and ergodic verdicts (and uniformly ergodic
ones above `DENSE_CAP`, from probe lower bounds), the identity block the
dense Cesaro-bounded and the other uniformly ergodic ones.  No ``holds``
comes from a scan that the overflow guard stopped, nor from a one-index tail.

One rule decides what a pass does not walk: bracket the quantity, and walk
only when the bracket straddles the decision.  Before a pass walks, every
norm it could read lies between its value at n = 1 and that value times
((1 + gamma_k)^2 rho)^N, rho the norm of |T|, widened for rounding
(`_bounded_bracket`).  When that upper end is under the cap and under
`OVERFLOW_LIMIT`, and both ends give one integer bound, every bounded
verdict of the pass holds with that bound, so the pass reads no per-step
norms, forms only the means its snapshots and tails read, and stops at
its anchor.  Once the stream's power is stationary (T P = P bit for bit
from the anchor s on), every later mean is A_n = P + (S_s - sP)/n,
monotone in n entry by entry in exact arithmetic, so every pass stops
stepping at the anchor and brackets the stationary phase's largest norm
between its two endpoints (`_phase_bracket`).  The
tail radius is bracketed between norm(A_t - A_N) at the tail's start and
the norm of an entrywise envelope of the walked tail means, joined with the
stationary part's bracket (`_tail_radius`).  Every upper end is the norm of
an envelope, widened by the reader's slack (see `_mode_norms`).  A bracket
decides only where both of its ends give the same serialized answer;
otherwise the phase is walked through the closed form, or the radius is
folded from a fresh walk, so a decided verdict has the bits a walk of every
step gives it.

For weighted-shift specs, norm-level results describe the finite section
rather than the infinite-dimensional operator once the horizon passes
dim/2; `trusted_horizon` returns the horizon below which the two agree.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .cesaro import OVERFLOW_LIMIT, CesaroStream, _capacity
from .operators import (
    DENSE_CAP,
    KIND_DENSE,
    KIND_SHIFT,
    KIND_SPARSE,
    CapExceededError,
    OperatorSpec,
    ProbeSet,
    _check_args,
    column_norms,
    matrix_norm,
)

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"

FAMILY_POWER_BOUNDED = "power_bounded"
FAMILY_CESARO_BOUNDED = "cesaro_bounded"
FAMILY_ERGODIC = "ergodic"
FAMILY_UNIFORMLY_ERGODIC = "uniformly_ergodic"

# Divergence heuristics.  Growth of the running max by GROWTH_FACTOR from
# the quarter-horizon checkpoint (strictly increasing past it) flags an
# unbounded family; a gap above GAP_FACTOR * tolerance at all three dyadic
# scales that does not decay by more than DECAY_RATIO flags non-convergence.
GROWTH_FACTOR = 1.5
GAP_FACTOR = 4.0
DECAY_RATIO = 0.75

#: Integer bounds are reported with this slack so float dust cannot bump
#: a true bound of k up to k + 1.
BOUND_SLACK = 1e-9

#: Dense l2 norms read at every scanned step and on the tail radius are
#: exact SVDs up to this dimension; above it they are the upper bound
#: sqrt(l1 * linf), and the radius is then no lower bound on the tail
#: diameter.  Lower bounds read at a few steps (a dense witness, the dyadic
#: gaps) are `matrix_norm`, an exact SVD, at every dimension.
_L2_EXACT_DIM = 32


@dataclass(eq=False)
class Verdict:
    """Outcome of one family check at one horizon.

    `witness` substantiates a ``fails`` status and can be replayed with
    `replay_witness`.  `bound` is the smallest integer bound found for the
    bounded families.  `evidence` holds diagnostic detail (per-probe tail
    diameters, scan maxima) and is not part of the serialized form.
    """

    family: str
    status: str
    horizon: int
    tolerance: float | None
    bound: int | None
    witness: dict | None
    probe_label: str | None
    evidence: dict = field(default_factory=dict, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "status": self.status,
            "horizon": self.horizon,
            "tolerance": self.tolerance,
            "bound": self.bound,
            "witness": self.witness,
            "probe_label": self.probe_label,
        }


def trusted_horizon(spec: OperatorSpec, horizon: int) -> int:
    """Largest horizon at which norm-level verdicts describe the infinite
    operator rather than the finite section (dim/2 for shift specs)."""
    if spec.kind == KIND_SHIFT:
        return min(horizon, max(1, spec.dim // 2))
    return horizon


def _int_bound(max_value: float) -> int:
    return max(0, math.ceil(max_value - BOUND_SLACK))


def _growth_fails(values: np.ndarray, first: int, cap: float, diverged: bool) -> bool:
    """Divergence heuristic on a per-step maxima series.

    `values[i]` is the step (first + i) maximum.  Requires the overall
    max to exceed `cap` and, unless the scan overflowed outright, the
    running max to grow by GROWTH_FACTOR from the quarter-horizon mark
    while strictly increasing past it.
    """
    if values.size == 0:
        return False
    running = np.maximum.accumulate(values)
    if running[-1] <= cap:
        return False
    if diverged:
        return True
    last = first + values.size - 1
    quarter = max(first, last // 4)
    q_pos = quarter - first
    if running[-1] < GROWTH_FACTOR * running[q_pos]:
        return False
    window = running[q_pos:]
    return bool(np.all(np.diff(window) > 0))


def _check_inputs(spec: OperatorSpec, probes, probes_read=True, **positive) -> None:
    """Raise unless every keyword value is positive and, for a check that
    reads probes, `probes` is a non-empty set of the operator's dim."""
    if probes_read:
        if probes is None or len(probes) == 0:
            raise ValueError("a non-empty probe set is required")
        if probes.dim != spec.dim:
            raise ValueError(f"probe dim {probes.dim} does not match operator dim {spec.dim}")
    _check_args(positive)


class _Norms(NamedTuple):
    """The norm readers of a scan mode.  `slack` is the relative widening
    of every upper end that the step or radius reader reads off an
    entrywise envelope."""

    step: Callable
    gap: Callable
    radius: Callable
    slack: float


def _mode_norms(spec: OperatorSpec, mode: str) -> _Norms:
    """The step, gap and radius norm readers of a scan mode, ``probe`` or
    ``dense``; any other mode raises `ValueError`.

    ``probe`` reads every norm per probe column.  ``dense`` reads the
    matrices A_n: per-step and radius norms are upper bounds (exact but for
    l2 above `_L2_EXACT_DIM`), the dyadic gaps exact lower bounds.  The
    radius is exact exactly when it is the gap reader.  The step and radius
    readers take a chunk's (count, dim, p) stack of means and give one row
    of norms per step (one norm per row in ``dense`` mode); the gap reader
    reads the stack of the three dyadic differences alike.

    A bracket's upper end is the norm of an envelope E >= |D| entry by
    entry.  Every step and radius reader but the exact SVD is a fixed order
    of abs, squares, sums, maxima and square roots of the entries, so it
    reads norm(D) <= norm(E) as computed, and its slack is 0.  For the
    exact SVD, ||D||_2 <= || |D| ||_2 <= ||E||_2 in exact arithmetic; its
    slack, 2^-40, assumes that LAPACK's largest singular value is within
    2^-42 of the true one, relatively, at dim <= `_L2_EXACT_DIM` (about
    2 000 ulps), so that norm(D) <= norm(E) * (1 + 2^-40) as computed.
    """
    tag = spec.norm_tag
    if mode == "probe":
        cols = lambda X: column_norms(X, tag)
        return _Norms(cols, cols, cols, 0.0)
    if mode != "dense":
        raise ValueError(f"unknown scan mode {mode!r}, expected probe or dense")
    exact = lambda X: matrix_norm(X, tag)
    radius, slack = exact, 0.0
    if tag == "l2" and spec.dim > _L2_EXACT_DIM:
        radius = lambda X: np.sqrt(matrix_norm(X, "l1") * matrix_norm(X, "linf"))
    elif tag == "l2":
        slack = 2.0**-40
    return _Norms(lambda X: radius(X)[:, None], exact, radius, slack)


# -- one pass over the means ---------------------------------------------


@dataclass(eq=False)
class _Scan:
    """What one stream pass keeps; norms are reduced a chunk at a time.

    `means` holds the mean-norm maxima for n = 1..steps and `mean_hit` the
    first step above the cap as (n, norms, A_n); `powers` holds the
    power-norm maxima for m = 0..steps (None in ``dense`` mode) and
    `power_hit` (m, norms); a hit is None when no step crossed the cap.
    `snapshots` maps the dyadic scales and the horizon N to A_n, and on a
    tail scan the tail's start t = max(1, N//2) too.  The stream produced
    `walked` of the `steps`; past them the phase is stationary and was
    decided from its bracket (see `_scan`): `powers` holds the stationary
    power's maximum, `means` the upper end of the phase's bracket, which
    leaves the running maximum, the status and the bound as a walk would,
    and the snapshots come from the closed form.  On a tail scan, `low` and
    `high` bound the walked means from t to min(N, s - 1) entry by entry, s
    the stream's anchor (see `_tail_radius`).  These are complete only on a
    scan that reached N, and all are copies, since the stream reuses its
    chunk buffers.  A pass decided before it walks (see `_bounded_bracket`)
    holds that `bracket`, (lower, upper), in place of the maxima and hits,
    which are None.
    """

    stream: CesaroStream
    horizon: int
    cap: float
    bracket: tuple | None = None
    means: np.ndarray | None = None
    powers: np.ndarray | None = None
    mean_hit: tuple | None = None
    power_hit: tuple | None = None
    steps: int = 0
    walked: int = 0
    diverged_at: int | None = None
    snapshots: dict = field(default_factory=dict)
    low: np.ndarray | None = None
    high: np.ndarray | None = None


def _first_above(tops: np.ndarray, cap: float) -> int | None:
    """Index of the first of a chunk's per-step maxima above the cap."""
    if not np.maximum.reduce(tops) > cap:
        return None
    return int(np.argmax(tops > cap))


def _phase_bracket(norm, ends, means, P, slack):
    """Bounds (lower, upper) on the largest norm(D_n) over a stationary
    phase [a, b], one per reader row; D_n is A_n or A_n - A_N (N >= b).
    `ends` holds D_a and D_b, `means` A_a and A_b, P is the stationary
    power, `slack` the reader's (see `_mode_norms`); each may be a stack of
    phases.

    In exact arithmetic the closed form gives E_n = P + (S_s - sP)/n from
    the anchor s on, so every entry of E_n, and of E_n - E_N (0 at N), is
    monotone in n, and its magnitude on [a, b] is at most its magnitude at
    an end.  The closed form rounds three times (k·P, + S_s, / n, with
    k = n - s exact), so a computed mean is within
    2.01u|E_n| + 1.01u|P| + 2^-1074 of E_n entry by entry (u = 2^-53).
    Taking the exact ends back to the computed ones, and adding the
    rounding of a difference, every computed |D_n| on [a, b] is at most
    max(|D_a|, |D_b|) + 12u(|A_a| + |A_b|) + 5u|P| + 2^-1071 entry by
    entry.  The allowance, 2^-44 = 512u times |A_a| + |A_b| + |P| plus
    2^-1060, is over 40 times that term, its own rounding included, so the
    sum is an envelope of every |D_n|, and its norm, widened by the slack,
    is the upper end.  The lower end is the larger norm of the ends
    themselves, means the walk reads too.
    """
    first, last = ends
    lower = np.maximum(norm(first), norm(last))
    allowance = (np.abs(means[0]) + np.abs(means[1]) + np.abs(P)) * 2.0**-44 + 2.0**-1060
    return lower, norm(np.maximum(np.abs(first), np.abs(last)) + allowance) * (1.0 + slack)


#: Past this exponent the growth of a bracket's upper end is not formed.
_LOG_LIMIT = math.log(OVERFLOW_LIMIT)


def _abs_norms(spec: OperatorSpec) -> tuple[float, float, int]:
    """The l1 and linf norms of |T| (its largest column and row abs-sums) as
    computed, and k, the most terms in one of those sums or in one entry of
    T x: 1 for a diagonal or a shift, the longest row or column of a sparse
    spec, dim for a dense one."""
    T = spec.entries
    if spec.kind == KIND_DENSE:
        A = np.abs(T)
        return float(np.add.reduce(A, axis=0).max()), float(np.add.reduce(A, axis=1).max()), spec.dim
    if spec.kind == KIND_SPARSE:
        rows, cols, vals = T
        sums = [np.bincount(i, weights=np.abs(vals), minlength=spec.dim).max() for i in (cols, rows)]
        terms = max(int(np.bincount(i, minlength=1).max()) for i in (cols, rows))
        return float(sums[0]), float(sums[1]), max(1, terms)
    top = float(np.abs(T).max(initial=0.0))
    return top, top, 1


def _bounded_bracket(spec, X, mode, horizon):
    """Bounds (lower, upper) on every power norm and mean norm that a pass of
    X to `horizon` in `mode` reads, and on every power column norm that the
    stream's overflow guard reads.

    The lower end is the reader's value at n = 1, which the walk reads too:
    A_1 = X bit for bit, and P_0 = X.  For the upper end, let u = 2^-53 and
    gamma_j = ju/(1 - ju).  Each reader reads a norm that is monotone in
    the entries' magnitudes and under which |T|^m has norm at most rho^m:
    rho is the l1 norm of |T| for l1, its linf norm for linf, the square
    root of their product (>= || |T| ||_2) for l2, and their larger one for
    the sqrt(l1 * linf) reader of dense l2 above `_L2_EXACT_DIM`; every
    power column norm is bounded the same way.  A kernel step sums k
    products per entry in some order, so |fl(T Y)| <= (1 + gamma_k)|T||Y|
    entry by entry, up to 2^-1075 per subnormal product; a doubled dense
    power T^(2^j) carries (1 + gamma_k)^(2^j - 1) from its squarings and
    its product one more, so every computed power P_m has
    |P_m| <= ((1 + gamma_k)|T|)^m |X|, one factor per unit of exponent.  The
    computed abs-sums are within gamma_(k+2) of the true ones (and of rho,
    with the product and the square root), and g = (1 + gamma)^2 rho,
    gamma = (k + 2) 2^-52 >= gamma_(k+2) + 2u, pays for both factors and for
    the two roundings that form g, so every power norm is at most
    max(1, g)^N ||X||.  A mean is the running sum over n powers divided by
    n, or the closed form's three roundings of a sum over s < n, so
    |A_n| <= (1 + gamma_(N+3)) (P_0 + ... + P_(n-1))/n entry by entry, and
    its norm is at most (1 + gamma_(N+3)) max(1, g)^N ||X||.  Every reader
    is within eps = gamma_(dim+2) of the exact norm, widened by its slack
    (see `_mode_norms`), so ||X|| <= (1 + eps) lower, up to the absolute
    rounding of underflowing squares; that and the subnormal products stay
    under (N + 1)(dim k + 1) 2^-536 times the growth.  The upper end is the
    sum of that term and (1 + eps) lower, times max(1, g)^N, formed in log
    space and only up to `OVERFLOW_LIMIT`, times (1 + eps)
    (1 + (N + 4) 2^-52)(1 + 2^-40): the last factor covers the rounding of
    the logarithm, the exponential and the products that form the bound
    (under 1 000u below that limit).  Past N = 2^40, or that limit, the
    upper end is infinite.
    """
    norms = _mode_norms(spec, mode)
    lower = float(np.maximum.reduce(norms.step(X[None])[0]))
    l1, linf, k = _abs_norms(spec)
    tag = spec.norm_tag
    if tag != "l2":
        rho = l1 if tag == "l1" else linf
    elif mode == "dense" and spec.dim > _L2_EXACT_DIM:
        rho = max(l1, linf)
    else:
        rho = math.sqrt(l1 * linf)
    g = (1.0 + (k + 2) * 2.0**-52) ** 2 * rho
    exponent = horizon * math.log(g) if g > 1.0 else 0.0
    if horizon > 2**40 or not exponent <= _LOG_LIMIT:
        return lower, math.inf
    eps = (spec.dim + 3) * 2.0**-52 + norms.slack
    base = lower * (1.0 + eps) + (horizon + 1.0) * (spec.dim * k + 1.0) * 2.0**-536
    widen = (1.0 + eps) * (1.0 + (horizon + 4) * 2.0**-52) * (1.0 + 2.0**-40)
    return lower, base * math.exp(exponent) * widen


def _scan(spec, X, mode, horizons, bound_cap, tails=()) -> dict[int, _Scan]:
    """One pass of the stream of X to the longest of `horizons`, reading
    norms as `mode` says, and per horizon the `_Scan` of a pass to it alone;
    the horizons in `tails` also bound their walked tail means for
    `_tail_radius`.  A step's bits do not depend on the chunk that holds it.

    Before it walks, the pass brackets every norm it could read
    (`_bounded_bracket`).  When the upper end is under the cap and under
    `OVERFLOW_LIMIT`, and both ends give one integer bound, every bounded
    verdict of the pass is decided: the pass reduces no norms, forms means
    only for the snapshots and the tails, and stops at its anchor, and each
    scan holds the bracket.  Otherwise, once the power is stationary, the
    pass stops before the anchor s and decides each phase [s, h] by
    `_phase_bracket`: when its upper end stays under the running maximum at
    s - 1, or both ends are under the cap and give one integer bound.  Its
    mean maxima are then that upper end and its power maxima P's, which
    leaves the running maxima, status and bound of a walk; any other phase
    is walked through the closed form.  Snapshots past the walk come from
    the closed form."""
    step_norm, _, _, slack = _mode_norms(spec, mode)
    stream = CesaroStream(spec, X)
    scans = {h: _Scan(stream, h, bound_cap) for h in sorted(set(horizons))}
    marks = {h: (*(_dyadic_scales(h) or ()), h) for h in scans}
    for h in tails:
        marks[h] += (max(1, h // 2),)
    wanted = sorted({n for ns in marks.values() for n in ns})
    means, powers, snapshots, mean_hit, power_hit = [], [], {}, None, None
    horizon = through = max(scans)  # the last step to walk
    uppers = {}  # per decided phase, the upper end that stands for its mean maxima
    lower, upper = bounds = _bounded_bracket(spec, X, mode, horizon)
    reads = None  # once decided: whether the steps [lo, hi) hold a mean the pass reads
    if upper <= min(bound_cap, OVERFLOW_LIMIT) and _int_bound(lower) == _int_bound(upper):
        spans = [(n, n + 1) for n in wanted] + [(max(1, h // 2), h + 1) for h in tails]
        reads = lambda lo, hi: any(a < hi and lo < b for a, b in spans)
    for chunk in stream._chunks(horizon, reads):
        first, count = chunk.first, len(chunk.powers)
        if reads is None:  # a decided pass reads no norms
            norms = step_norm(chunk.means)
            tops = np.maximum.reduce(norms, axis=-1)
            means.append(tops)
            if mean_hit is None and (i := _first_above(tops, bound_cap)) is not None:
                mean_hit = (first + i, norms[i].copy(), chunk.means[i].copy())
            if mode == "probe":
                if first == 1:  # T^0 X = A_1 X
                    powers.append(tops[:1])
                    if tops[0] > bound_cap:
                        power_hit = (0, norms[0].copy())
                powers.append(chunk.power_max)
                if power_hit is None and (i := _first_above(chunk.power_max, bound_cap)) is not None:
                    power_hit = (first + i, chunk.power_norms[i].copy())
        for n in wanted[bisect_left(wanted, first) : bisect_left(wanted, first + count)]:
            snapshots[n] = chunk.means[n - first].copy()
        s = horizon + 1 if stream.anchor is None else stream.anchor[2]
        for h in tails if first < s else ():
            scan = scans[h]
            lo, hi = max(first, max(1, h // 2)), min(first + count, h + 1)
            if lo < hi:
                # Each chunk reduces into one spare block: a fresh temporary
                # the size of a wide block page-faults on every chunk.
                rest = chunk.means[lo - first : hi - first]
                if scan.low is None:
                    scan.low, scan.high = rest[0].copy(), rest[0].copy()
                    spare = np.empty_like(rest[0])
                for bound, ufunc in ((scan.low, np.minimum), (scan.high, np.maximum)):
                    part = ufunc.reduce(rest, out=spare) if len(rest) > 1 else rest[0]
                    ufunc(bound, part, out=bound)
        if stream.anchor is not None and first + count == s:  # the anchor's chunk ends at s - 1
            through = s - 1
            phase = [h for h in scans if h > through and reads is None]
            if phase:
                top = max(float(m.max()) for m in means)  # the running maximum at s - 1
                A = stream.closed_form([s, *phase])
                bracket = _phase_bracket(step_norm, (A[:1], A[1:]), (A[:1], A[1:]), stream.anchor[1], slack)
                for h, lower, upper in zip(phase, *(np.maximum.reduce(v, axis=-1) for v in bracket)):
                    lower, upper = max(top, lower), max(top, upper)
                    if upper == top or upper <= bound_cap and _int_bound(lower) == _int_bound(upper):
                        uppers[h] = upper
                    else:
                        through = h
        if first + count > through:
            break
    last = first + count - 1  # the last step read; a stream stops where it diverges
    reached = last
    if last < horizon and stream.diverged_at is None:  # stopped before the phases above
        reached = horizon
        unread = [n for n in wanted if n > last]
        snapshots.update(zip(unread, stream.closed_form(unread)))
        if powers:  # every power past the walk is P
            powers.append(np.full(horizon - last, powers[-1][-1]))
    means = np.concatenate(means) if means else None
    powers = np.concatenate(powers) if powers else None
    for h, scan in scans.items():
        scan.steps, scan.walked = min(h, reached), min(h, last)
        scan.diverged_at = stream.diverged_at if stream.diverged_at == scan.steps else None
        scan.snapshots = {n: snapshots[n] for n in marks[h] if n in snapshots}
        if reads is not None:
            scan.bracket = bounds
            continue
        scan.means = means[: scan.walked]
        if scan.walked < scan.steps:
            scan.means = np.concatenate([scan.means, np.full(h - last, uppers[h])])
        scan.powers = None if powers is None else powers[: scan.steps + 1]
        scan.mean_hit = mean_hit if mean_hit and mean_hit[0] <= scan.steps else None
        scan.power_hit = power_hit if power_hit and power_hit[0] <= scan.steps else None
    return scans


def _dyadic_scales(horizon: int) -> tuple[int, int, int] | None:
    base = horizon // 4
    if base < 1:
        return None
    return (base, 2 * base, 4 * base)


def _gaps(snapshots, scales, norm):
    """norm(A_a - A_b), norm(A_b - A_c), norm(A_a - A_c) at the dyadic
    scales (a, b, c) in one reader call, or None if a scale was not reached."""
    if scales is None or any(s not in snapshots for s in scales):
        return None
    a, b, c = (snapshots[s] for s in scales)
    return norm(np.stack([a - b, b - c, a - c]))


def _dyadic_gap_witness(gaps, scales, threshold):
    """First probe whose three dyadic gaps all exceed the threshold and
    whose second gap has not decayed below DECAY_RATIO of the first."""
    if gaps is None or scales is None:
        return None
    for probe_idx, (g1, g2, g3) in enumerate(gaps):
        if min(g1, g2, g3) > threshold and g2 >= DECAY_RATIO * g1:
            return {
                "probe": probe_idx,
                "scales": list(scales),
                "gaps": [g1, g2, g3],
                "threshold": threshold,
            }
    return None


def _tail_radius(scan: _Scan, norms: _Norms, tolerance: float):
    """Bounds (lower, upper) on the radius max_n norm(A_n - A_N) over the
    tail [t, N], t = max(1, N//2), that decide 2 * radius < `tolerance` as
    the radius itself would.

    The bracket is read off the scan.  Its lower end is norm(A_t - A_N), a
    norm the radius reads.  The walked means [t, min(N, s - 1)], s the
    stream's anchor, lie under E = max(|low - A_N|, |high - A_N|) entry by
    entry, since fl(a - c) is monotone in a under round-to-nearest, and
    norm(E), widened by the reader's slack, is the upper end.  Both join the
    bracket of the stationary part [max(t, s), N] (`_phase_bracket`; in
    exact arithmetic every |A_n - A_N| there is largest at its first mean,
    and 0 at N).  When the bracket straddles the decision (a NaN does too),
    the radius is folded exactly and is both bounds: a fresh stream walks
    the block again from n = 1 (the scan's own stream keeps the anchor its
    other horizons read), and the stationary part is read off
    `CesaroStream.closed_form` in chunk-sized slices.  Each stack is
    reduced into one reused buffer, so the scan is left as it was.
    """
    N, stream, norm = scan.horizon, scan.stream, norms.radius
    t, final = max(1, N // 2), scan.snapshots[N]
    s = N + 1 if stream.anchor is None else stream.anchor[2]
    stationary = range(max(t, s), N + 1)
    lower = upper = norm((scan.snapshots[t] - final)[None])[0]
    if t < s:
        envelope = np.maximum(np.abs(scan.low - final), np.abs(scan.high - final))
        upper = np.maximum(upper, norm(envelope[None])[0] * (1.0 + norms.slack))
    if stationary:
        A = stream.closed_form(stationary[:1])
        D = A - final
        ends = _phase_bracket(norm, (D, np.zeros_like(D)), (A, final), stream.anchor[1], norms.slack)
        lower, upper = np.maximum(lower, ends[0][0]), np.maximum(upper, ends[1][0])
    if 2.0 * upper.max() < tolerance or 2.0 * lower.max() >= tolerance:
        return lower, upper
    radius, buf = 0.0, np.empty((0, *final.shape))

    def fold(means):
        nonlocal radius, buf
        if len(buf) < len(means):
            buf = np.empty_like(means)
        diffs = np.subtract(means, final, out=buf[: len(means)])
        radius = np.maximum(radius, np.maximum.reduce(norm(diffs), axis=0))

    if t < s:
        for chunk in CesaroStream(stream.spec, stream.X).chunks(min(N, s - 1)):
            if chunk.first + len(chunk.means) > t:
                fold(chunk.means[max(0, t - chunk.first) :])
    width = _capacity(final.nbytes)
    for i in range(0, len(stationary), width):
        fold(stream.closed_form(stationary[i : i + width]))
    return radius, radius


def _tail_holds(horizon: int, diameter_ub: float, tolerance: float) -> bool:
    """A tail diameter certifies convergence only over a tail
    [max(1, N//2), N] with at least two indices."""
    return max(1, horizon // 2) < horizon and diameter_ub < tolerance


# -- bounded families ----------------------------------------------------


def _bounded_verdict(family, scan, mode, label) -> Verdict:
    """Power-bounded or Cesaro-bounded off one scan in `mode`: holds with
    the integer bound when every step stayed under the cap and the scan
    reached the horizon; fails on sustained growth (or overflow) above the
    cap, witnessed by the first probe above it at the first step that
    crossed it; inconclusive otherwise.  A ``dense`` scan reads upper
    bounds, so its ``fails`` also needs the exact norm of that first mean
    above the cap.  A scan decided by its bracket holds with the bound of
    the bracket's ends, and its evidence holds the bracket, its upper end as
    the maximum."""
    if family == FAMILY_POWER_BOUNDED:
        values, first, hit, key, shown = scan.powers, 0, scan.power_hit, "power", {}
    else:
        values, first, hit, key, shown = scan.means, 1, scan.mean_hit, "n", {"mode": mode}
    cap, diverged = scan.cap, scan.diverged_at is not None
    overall = float(values.max()) if scan.bracket is None else scan.bracket[1]
    evidence = {
        "max": overall, **shown, "diverged": diverged, "steps": scan.steps, "walked": scan.walked,
        "bracket": scan.bracket,
    }
    status, bound, witness = INCONCLUSIVE, None, None
    if overall <= cap and not diverged:
        status, bound = HOLDS, _int_bound(overall)
    elif _growth_fails(values, first, cap, diverged):
        if mode == "probe":
            status = FAILS
            if hit is not None:
                step, norms = hit[:2]
                probe = int(np.argmax(norms > cap))
                witness = {**shown, "probe": probe, key: step, "value": float(norms[probe]), "cap": cap}
        elif (value := matrix_norm(hit[2], scan.stream.spec.norm_tag)) > cap:
            status, witness = FAILS, {**shown, key: hit[0], "value": value, "cap": cap}
    return Verdict(family, status, scan.horizon, None, bound, witness, label, evidence)


def check_power_bounded(
    spec: OperatorSpec,
    probes: ProbeSet,
    horizon: int,
    bound_cap: float = 1e3,
) -> Verdict:
    """Scan ||T^m x|| for all probes and m = 0..horizon."""
    _check_inputs(spec, probes, horizon=horizon, bound_cap=bound_cap)
    return _block_verdicts(spec, probes, "probe", [horizon], bound_cap)[FAMILY_POWER_BOUNDED][horizon]


def _auto_mode(spec: OperatorSpec, horizon: int) -> str:
    return "dense" if (spec.dim <= 32 and horizon <= 1024) else "probe"


def check_cesaro_bounded(
    spec: OperatorSpec,
    probes: ProbeSet,
    horizon: int,
    bound_cap: float = 1e3,
    mode: str = "auto",
) -> Verdict:
    """Scan ||A_n x|| over probes (probe mode) or exact ||A_n|| (dense mode)
    for n = 1..horizon.

    Mode ``auto`` picks dense only when it is cheap (dim <= 32 and horizon
    <= 1024); dense mode is exact but steps the (dim, dim) identity block.
    """
    if mode == "auto":
        mode = _auto_mode(spec, horizon)
    if mode not in ("probe", "dense"):
        raise ValueError(f"unknown mode {mode!r}, expected probe, dense, or auto")
    _check_inputs(spec, probes, mode == "probe", horizon=horizon, bound_cap=bound_cap)
    if mode == "dense" and spec.dim > DENSE_CAP:
        raise CapExceededError(
            f"dense Cesaro-bounded mode is capped at dim {DENSE_CAP} (got {spec.dim})"
        )
    return _block_verdicts(spec, probes, mode, [horizon], bound_cap)[FAMILY_CESARO_BOUNDED][horizon]


# -- the Cauchy tail: ergodic and uniformly ergodic ----------------------


def _tail_verdict(family, scan, cb, tolerance, label, mode) -> Verdict:
    """The Cauchy test of the means over the tail [max(1, N//2), N].

    Inherits a failing Cesaro-bounded verdict `cb`; is inconclusive on a
    diverged scan; fails on a persistent dyadic gap (per probe in ``probe``
    mode, one value at norm level); holds only when `cb` holds and the
    certified diameter 2 * radius is below the tolerance.  Norms come from
    `_mode_norms`.  Uniform ergodicity off a ``probe`` scan (above
    `DENSE_CAP`) is read in ``probe-lb`` mode: each gap is its widest probe
    column, a lower bound on the norm; with no upper bound on a mean it
    never holds, so it takes no gate and reads no radius.
    """
    norms = _mode_norms(scan.stream.spec, mode)
    if family == FAMILY_UNIFORMLY_ERGODIC and mode == "probe":
        mode, cb = "probe-lb", None
    scales = _dyadic_scales(scan.horizon)
    evidence = {
        "mode": mode,
        "cb_status": None if cb is None else cb.status,
        "cb_bound": None if cb is None else cb.bound,
        "diverged": scan.diverged_at is not None,
        "diverged_at": scan.diverged_at,
        "steps": scan.steps,
        "dyadic_scales": scales,
        "dyadic_gaps": None,
        "tail_diameter_ub": None,
        "tail_diameter_lb": None,
    }

    def verdict(status, witness=None):
        return Verdict(family, status, scan.horizon, tolerance, None, witness, label, evidence)

    if cb is not None and cb.status == FAILS:
        return verdict(FAILS, {"inherited_from": FAMILY_CESARO_BOUNDED, **(cb.witness or {})})
    if scan.diverged_at is not None:
        return verdict(INCONCLUSIVE)
    gaps = _gaps(scan.snapshots, scales, norms.gap)
    if gaps is not None:
        if mode == "probe-lb":
            gaps = np.maximum.reduce(gaps, axis=-1)
        # One row (g1, g2, g3) per probe, or a single row at norm level.
        gaps = evidence["dyadic_gaps"] = np.atleast_2d(gaps.T).tolist()
    witness = _dyadic_gap_witness(gaps, scales, GAP_FACTOR * tolerance)
    if witness is not None:
        if mode != "probe":
            witness["mode"] = mode
            del witness["probe"]
        return verdict(FAILS, witness)
    if mode == "probe-lb":
        return verdict(INCONCLUSIVE)
    lower, upper = _tail_radius(scan, norms, tolerance)
    diam_ub = 2.0 * upper
    # A_N lies in the tail, so an exact radius is also a diameter lower bound.
    diam_lb = lower if norms.radius is norms.gap else np.zeros_like(lower)
    evidence["tail_diameter_ub"] = np.asarray(diam_ub).tolist()
    evidence["tail_diameter_lb"] = np.asarray(diam_lb).tolist()
    if cb.status == HOLDS and _tail_holds(scan.horizon, diam_ub.max(), tolerance):
        return verdict(HOLDS)
    return verdict(INCONCLUSIVE)


# -- ergodic -------------------------------------------------------------


def check_ergodic(
    spec: OperatorSpec,
    probes: ProbeSet,
    horizon: int,
    tolerance: float,
    bound_cap: float = 1e3,
) -> Verdict:
    """Probe-level Cauchy check of the means over the tail [N/2, N].

    Requires the Cesaro-bounded check not to fail (its witness is inherited
    on failure); holds only when that check holds and every probe's
    certified tail diameter bound 2 * max_n ||A_n x - A_N x|| is below the
    tolerance.
    """
    _check_inputs(spec, probes, horizon=horizon, tolerance=tolerance, bound_cap=bound_cap)
    verdicts = _block_verdicts(spec, probes, "probe", (), bound_cap, tolerance, ergodic=[horizon])
    return verdicts[FAMILY_ERGODIC][horizon]


# -- uniformly ergodic ---------------------------------------------------


def check_uniformly_ergodic(
    spec: OperatorSpec,
    horizon: int,
    tolerance: float,
    probes: ProbeSet | None = None,
    bound_cap: float = 1e3,
) -> Verdict:
    """Norm-level Cauchy check of the means over the tail [N/2, N].

    For dim <= `DENSE_CAP` the stream of the identity block gives the
    matrices A_n themselves: gaps read norm lower bounds, the tail radius
    upper bounds, and the dense Cesaro-bounded verdict gates ``holds``.
    Above the cap it is read off the probe block in ``probe-lb`` mode: each
    gap is the widest probe column, a lower bound on ||A_n - A_m||, and
    with no upper bound ``holds`` is unreachable there.
    """
    mode = "probe" if spec.dim > DENSE_CAP else "dense"
    if mode == "probe" and probes is None:
        raise ValueError(
            f"dim {spec.dim} exceeds the dense cap {DENSE_CAP}; probes are "
            "required for the lower-bound mode"
        )
    _check_inputs(
        spec, probes, mode == "probe", horizon=horizon, tolerance=tolerance, bound_cap=bound_cap
    )
    verdicts = _block_verdicts(spec, probes, mode, (), bound_cap, tolerance, uniform=[horizon])
    return verdicts[FAMILY_UNIFORMLY_ERGODIC][horizon]


# -- every family from one pass ------------------------------------------


def _block_verdicts(spec, probes, mode, horizons, bound_cap, tolerance=None, ergodic=(), uniform=()):
    """Every verdict of one `_scan` of a block, as {family: {horizon: Verdict}}.

    The pass walks the probe block (``probe``) or the identity block
    (``dense``) to the longest of `horizons`, `ergodic` and `uniform`, and
    gives the block's bounded verdicts at each (power-bounded off probes
    only).  Ergodicity at each of `ergodic` and uniform ergodicity at each
    of `uniform` are gated by the Cesaro-bounded verdict at their own
    horizon, but for uniform ergodicity off probes (see `_tail_verdict`).
    """
    probe = mode == "probe"
    X, label = (probes.vectors.T, probes.label) if probe else (np.eye(spec.dim), None)
    scans = _scan(spec, X, mode, {*horizons, *ergodic, *uniform}, bound_cap, ergodic if probe else uniform)
    bounded = (FAMILY_POWER_BOUNDED, FAMILY_CESARO_BOUNDED) if probe else (FAMILY_CESARO_BOUNDED,)
    verdicts = {f: {h: _bounded_verdict(f, s, mode, label) for h, s in scans.items()} for f in bounded}
    cbs = verdicts[FAMILY_CESARO_BOUNDED]
    for family, tails in ((FAMILY_ERGODIC, ergodic), (FAMILY_UNIFORMLY_ERGODIC, uniform)):
        verdicts[family] = {h: _tail_verdict(family, scans[h], cbs[h], tolerance, label, mode) for h in tails}
    return verdicts


class FamilyVerdicts(NamedTuple):
    power_bounded: Verdict
    cesaro_bounded: Verdict
    ergodic: Verdict
    uniformly_ergodic: Verdict
    #: Uniform ergodicity at the requested horizon when the trusted one is
    #: shorter (a finite-section verdict); None otherwise.
    section: Verdict | None


def check_families(
    spec: OperatorSpec,
    probes: ProbeSet,
    horizon: int,
    tolerance: float,
    bound_cap: float,
    ue_horizon: int,
) -> FamilyVerdicts:
    """Every family verdict of an analysis report.

    One pass per block: the probe block gives power-bounded, Cesaro-bounded
    (probe mode) and ergodic, with any tail re-walk of `_tail_radius`; the
    identity block gives Cesaro-bounded in dense mode, when ``auto`` picks
    it, and uniform ergodicity at the trusted horizon, and at `ue_horizon`
    too when that is longer (off the probe block above `DENSE_CAP`).
    """
    _check_inputs(
        spec, probes, horizon=horizon, tolerance=tolerance, bound_cap=bound_cap,
        ue_horizon=ue_horizon,
    )
    trusted = trusted_horizon(spec, ue_horizon)
    ues, wide = {trusted, ue_horizon}, spec.dim > DENSE_CAP
    dense = _auto_mode(spec, horizon) == "dense"
    # The probe pass's snapshots are released before the identity pass starts.
    probe = _block_verdicts(spec, probes, "probe", (), bound_cap, tolerance, [horizon], ues if wide else ())
    norm = probe if wide else _block_verdicts(
        spec, probes, "dense", [horizon] if dense else (), bound_cap, tolerance, (), ues
    )
    ue = norm[FAMILY_UNIFORMLY_ERGODIC]
    return FamilyVerdicts(
        probe[FAMILY_POWER_BOUNDED][horizon],
        (norm if dense else probe)[FAMILY_CESARO_BOUNDED][horizon],
        probe[FAMILY_ERGODIC][horizon],
        ue[trusted],
        ue[ue_horizon] if trusted < ue_horizon else None,
    )


# -- witness replay ------------------------------------------------------


def replay_witness(
    spec: OperatorSpec,
    verdict: Verdict,
    probes: ProbeSet | None = None,
) -> tuple[float, bool]:
    """Re-run the pass that wrote a ``fails`` witness and read it again.

    Returns the reproduced measurement (the value, or the smallest of the
    dyadic gaps) and whether it still violates the verdict's cap or gap
    threshold.  The replay walks the block the pass walked, the identity for
    a ``dense`` witness and the whole probe block for any other, and reads
    it with the pass's norm reader, so given the verdict's own probe set a
    genuine witness reproduces its recorded value bit for bit.  A witness
    that reads probes refuses a set with another label, and a probe index
    outside the set, with `ValueError`.
    """
    w = verdict.witness
    if verdict.status != FAILS or w is None:
        raise ValueError("replay requires a fails verdict with a witness")
    mode, step = w.get("mode", "probe"), w.get("power", w.get("n"))
    if mode not in ("probe", "dense", "probe-lb") or step is None and "scales" not in w:
        raise ValueError(f"unrecognized witness shape for family {verdict.family}: {w}")
    dense = mode == "dense"
    if not dense:
        if probes is None or probes.label != verdict.probe_label:
            raise ValueError(f"this witness reads the probe set {verdict.probe_label!r}; pass that set")
        if not 0 <= w.get("probe", 0) < len(probes):
            raise ValueError(f"witness probe {w['probe']} is outside the set of {len(probes)} probes")
    norm = _mode_norms(spec, "dense" if dense else "probe").gap

    def read(norms):
        """The witness's probe column, or the widest one (the dense norm)."""
        norms = np.asarray(norms)[..., None] if dense else norms
        return norms[..., w["probe"]] if "probe" in w else np.maximum.reduce(norms, axis=-1)

    stream = CesaroStream(spec, np.eye(spec.dim) if dense else probes.vectors.T)
    if "scales" in w:
        means = stream.means_at(w["scales"])
        reached = len(means) == len(w["scales"])
    else:
        for chunk in stream.chunks(max(1, step)):
            pass
        reached = chunk.first + len(chunk.means) > step
    if not reached:
        raise ValueError("the means stop before the witness step: the powers overflow")
    if "scales" in w:
        gaps = read(_gaps(means, w["scales"], norm))
        return float(gaps.min()), _dyadic_gap_witness([gaps], w["scales"], w["threshold"]) is not None
    # Power 0 is X = A_1, which the pass reads off the means.
    value = float(read(chunk.power_norms[-1] if w.get("power") else norm(chunk.means[-1])))
    return value, value > w["cap"]

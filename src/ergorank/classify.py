"""Finite-horizon verdicts for four operator families.

Each check scans data up to a horizon and returns a `Verdict` with status
``holds``, ``fails``, or ``inconclusive``.  The error discipline is
one-sided: a ``fails`` verdict always carries a concrete, replayable
witness, while missing evidence degrades to ``inconclusive``, never to a
wrong ``fails``.

Boundedness checks (power-bounded, Cesaro-bounded) read each family with
constant <= bound_cap on the window: they hold with an integer bound
k <= bound_cap when no scanned norm is above the cap, and fail at the first
one that is (an overflowing power is one), so a ``fails`` is a fact about
the window and the cap, not about sup ||T^n||.  Ergodicity and uniform ergodicity
are one Cauchy test of the means, read per probe (strong topology) or in
operator norm, and one reducer, `_tail_verdict`, decides both: it certifies
a small tail diameter over [N/2, N] via the radius bound
diam <= 2 * max_n ||A_n - A_N||.  The radius is also a lower bound on the
diameter wherever it is read in an exact norm, so every tail is bracketed
in [radius, 2 * radius].  Neither family fails on its own evidence: each
fails only by inheriting the Cesaro-bounded ``fails`` at its own horizon,
and a tail that is not certified small is ``inconclusive``.

Every check projects one reducer, `_block_verdicts`, over one pass of
`CesaroStream` on a block, with norms reduced one chunk of steps at a time:
per-step maxima are arrays, and the first step above a cap is found with
`argmax`.  The scan mode (``probe`` or ``dense``) fixes how a pass reads its
norms: `_mode_norms` gives the per-step and radius readers of each.
`check_families` makes one pass per block: the probe block gives the
power-bounded, Cesaro-bounded and ergodic verdicts (and uniformly ergodic
ones above `DENSE_CAP`, which can only inherit), the identity block the
dense Cesaro-bounded and the other uniformly ergodic ones.  No ``holds``
comes from a scan that the overflow guard stopped, nor from a one-index tail.
A pass stops at the step where its bounded witnesses are settled: the first
power and the first mean above the cap off probes, the first mean with an
exact norm above it off the identity.  Every later horizon then fails, and
ergodicity and uniform ergodicity inherit that, so they read nothing past
it.

One rule decides what a pass does not walk: bracket the quantity, and walk
only when the bracket straddles the decision.  Before a pass walks, every
norm it could read lies between its value at n = 1 and that value times
((1 + gamma_k)^2 rho)^N, rho the norm of |T|, widened for rounding
(`_bounded_bracket`).  When that upper end is under the cap and under
`OVERFLOW_LIMIT`, and both ends give one integer bound, every bounded
verdict of the pass holds with that bound, so the pass reads no per-step
norms, forms only the means its tails read, and stops at the anchor s of
the stream (T P = P bit for bit from s on); every later mean has the
closed form A_n = P + (S_s - sP)/n.  The tail radius is bracketed between
norm(A_t - A_N) at the tail's start and the norm of an entrywise envelope
of the walked tail means, joined with the bracket of its stationary part
from the endpoints of that part (`_phase_bracket`: in exact arithmetic
every entry of A_n - A_N is monotone there); see `_tail_radius`.  Every
upper end is the norm of an envelope, widened by the reader's slack (see
`_mode_norms`).  A bracket decides only where both of its ends give the
same serialized answer; otherwise the pass walks every step, or the
radius is folded from a fresh walk, so a decided verdict has the bits a
walk of every step gives it.

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

#: Integer bounds are reported with this slack so float dust cannot bump
#: a true bound of k up to k + 1.
BOUND_SLACK = 1e-9

#: Dense l2 norms read at every scanned step and on the tail radius are
#: exact SVDs up to this dimension; above it they are the upper bound
#: sqrt(l1 * linf), and the radius is then no lower bound on the tail
#: diameter.  A dense witness is read by `matrix_norm`, an exact SVD, at
#: every dimension.
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
    entrywise envelope; `exact` says whether the radius reader reads exact
    norms, so that a radius is also a lower bound on the tail diameter."""

    step: Callable
    radius: Callable
    slack: float
    exact: bool


def _mode_norms(spec: OperatorSpec, mode: str) -> _Norms:
    """The step and radius norm readers of a scan mode, ``probe`` or
    ``dense``; any other mode raises `ValueError`.

    ``probe`` reads every norm per probe column.  ``dense`` reads the
    matrices A_n: per-step and radius norms are upper bounds (exact but for
    l2 above `_L2_EXACT_DIM`).  Both readers take a chunk's (count, dim, p)
    stack of means and give one row of norms per step (one norm per row in
    ``dense`` mode).

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
        return _Norms(cols, cols, 0.0, True)
    if mode != "dense":
        raise ValueError(f"unknown scan mode {mode!r}, expected probe or dense")
    radius, slack, exact = (lambda X: matrix_norm(X, tag)), 0.0, True
    if tag == "l2" and spec.dim > _L2_EXACT_DIM:
        radius, exact = (lambda X: np.sqrt(matrix_norm(X, "l1") * matrix_norm(X, "linf"))), False
    elif tag == "l2":
        slack = 2.0**-40
    return _Norms(lambda X: radius(X)[:, None], radius, slack, exact)


# -- one pass over the means ---------------------------------------------


@dataclass(eq=False)
class _Scan:
    """What one stream pass keeps; norms are reduced a chunk at a time.

    `means` holds the mean-norm maxima for n = 1..steps and `mean_hit` the
    first step above the cap as (n, norms, exact), exact the `matrix_norm`
    of A_n in ``dense`` mode (None in ``probe`` mode); `powers` holds the
    power-norm maxima for m = 0..steps (None in ``dense`` mode) and
    `power_hit` (m, norms); a hit is None when no step crossed the cap.
    On a tail scan, `snapshots` maps the tail's start t = max(1, N//2) and
    the horizon N to A_n; it is empty on any other.  On a tail scan, `low`
    and `high` bound the walked means from t to min(N, s - 1) entry by
    entry, s the stream's anchor (see `_tail_radius`).  These are complete
    only on a scan that reached N, and all are copies, since the stream
    reuses its chunk buffers.  A pass decided before it walks (see
    `_bounded_bracket`) holds that `bracket`, (lower, upper), in place of
    the maxima and hits, which are None; the stream produced `walked` of
    its `steps`, and the snapshots past them come from the closed form.
    Any other pass walks every one of its `steps`.  A scan whose bounded
    witnesses were settled at step w (see `_scan`) ends at w: `steps` and
    `walked` are w, and its maxima, snapshots and envelope stop there.
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


def _phase_bracket(norm, A, final, P, slack):
    """Bounds (lower, upper) on the largest norm(A_n - A_N) over a stationary
    phase [a, N], one per reader row.  `A` is A_a, `final` A_N, P the
    stationary power, `slack` the reader's (see `_mode_norms`).

    In exact arithmetic the closed form gives E_n = P + (S_s - sP)/n from
    the anchor s on, so every entry of E_n - E_N is monotone in n and 0 at
    N, and its magnitude on [a, N] is at most its magnitude at a.  The
    closed form rounds three times (k·P, + S_s, / n, with k = n - s exact),
    so a computed mean is within 2.01u|E_n| + 1.01u|P| + 2^-1074 of E_n
    entry by entry (u = 2^-53).  Taking the exact end back to the computed
    D = A_a - A_N, and adding the rounding of a difference, every computed
    |A_n - A_N| on [a, N] is at most |D| + 12u(|A_a| + |A_N|) + 5u|P| +
    2^-1071 entry by entry.  The allowance, 2^-44 = 512u times
    |A_a| + |A_N| + |P| plus 2^-1060, is over 40 times that term, its own
    rounding included, so the sum is an envelope of every |A_n - A_N|, and
    its norm, widened by the slack, is the upper end.  The lower end is
    norm(D), a norm the walk reads too.
    """
    D = A - final
    allowance = (np.abs(A) + np.abs(final) + np.abs(P)) * 2.0**-44 + 2.0**-1060
    return norm(D[None])[0], norm((np.abs(D) + allowance)[None])[0] * (1.0 + slack)


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
        return matrix_norm(A, "l1"), matrix_norm(A, "linf"), spec.dim
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
    only for the tails, and stops at its anchor, and each scan holds the
    bracket; its snapshots past the walk come from the closed form.  Any
    other pass walks a stationary phase through the closed form.

    An undecided pass stops at the step w by which its bounded witnesses are
    settled: the first power and the first mean above the cap in ``probe``
    mode, the first mean above it, with an exact norm above it too, in
    ``dense`` mode.  Every verdict of a horizon h >= w is then ``fails`` or
    inherits it, so its scan ends at w."""
    step_norm = _mode_norms(spec, mode).step
    stream = CesaroStream(spec, X)
    scans = {h: _Scan(stream, h, bound_cap) for h in sorted(set(horizons))}
    marks = {h: (max(1, h // 2), h) for h in tails}  # the snapshots of a tail: its start and its end
    wanted = sorted({n for ns in marks.values() for n in ns})
    means, powers, snapshots, mean_hit, power_hit = [], [], {}, None, None
    horizon = stop = max(scans)  # the last step to walk: the horizon, or where the witnesses are settled
    ends = {}  # the horizons whose scans end at the step w where the witnesses are settled
    lower, upper = bounds = _bounded_bracket(spec, X, mode, horizon)
    reads = None  # once decided: whether the steps [lo, hi) hold a mean the pass reads
    if upper <= min(bound_cap, OVERFLOW_LIMIT) and _int_bound(lower) == _int_bound(upper):
        reads = lambda lo, hi: any(t < hi and lo <= h for t, h in marks.values())
    for chunk in stream._chunks(horizon, reads):
        first, count = chunk.first, len(chunk.powers)
        if reads is None:  # a decided pass reads no norms
            norms = step_norm(chunk.means)
            tops = np.maximum.reduce(norms, axis=-1)
            means.append(tops)
            if mean_hit is None and (i := _first_above(tops, bound_cap)) is not None:
                exact = matrix_norm(chunk.means[i], spec.norm_tag) if mode == "dense" else None
                mean_hit = (first + i, norms[i].copy(), exact)
            if mode == "probe":
                if first == 1:  # T^0 X = A_1 X
                    powers.append(tops[:1])
                    if tops[0] > bound_cap:
                        power_hit = (0, norms[0].copy())
                powers.append(chunk.power_max)
                if power_hit is None and (i := _first_above(chunk.power_max, bound_cap)) is not None:
                    power_hit = (first + i, chunk.power_norms[i].copy())
            if mean_hit and (power_hit if mode == "probe" else mean_hit[2] > bound_cap):
                stop = max(mean_hit[0], power_hit[0] if power_hit else 0)
                ends = {h: stop for h in scans if h >= stop}
        for n in wanted[bisect_left(wanted, first) : bisect_left(wanted, first + count)]:
            snapshots[n] = chunk.means[n - first].copy()
        s = horizon + 1 if stream.anchor is None else stream.anchor[2]
        for h in tails if first < s else ():
            scan = scans[h]
            lo, hi = max(first, max(1, h // 2)), min(first + count, ends.get(h, h) + 1)
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
        if first + count > stop or reads is not None and stream.anchor is not None:
            break  # a decided pass stops after the chunk that reaches its anchor
    last = first + count - 1  # the last step read; a stream stops where it diverges
    if last < horizon and reads is not None:  # every step past the anchor is stationary
        unread = [n for n in wanted if n > last]
        snapshots.update(zip(unread, stream.closed_form(unread)))
    means = np.concatenate(means) if means else None
    powers = np.concatenate(powers) if powers else None
    for h, scan in scans.items():
        scan.walked = min(ends.get(h, h), last)
        scan.steps = h if reads is not None else scan.walked
        scan.diverged_at = stream.diverged_at if stream.diverged_at == scan.steps else None
        scan.snapshots = {n: snapshots[n] for n in marks.get(h, ()) if n in snapshots and n <= scan.steps}
        if reads is not None:
            scan.bracket = bounds
            continue
        scan.means = means[: scan.walked]
        scan.powers = None if powers is None else powers[: scan.steps + 1]
        scan.mean_hit = mean_hit if mean_hit and mean_hit[0] <= scan.steps else None
        scan.power_hit = power_hit if power_hit and power_hit[0] <= scan.steps else None
    return scans


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
        A = stream.closed_form(stationary[:1])[0]
        ends = _phase_bracket(norm, A, final, stream.anchor[1], norms.slack)
        lower, upper = np.maximum(lower, ends[0]), np.maximum(upper, ends[1])
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
    """Power-bounded or Cesaro-bounded off one scan in `mode`, with constant
    <= the cap on the window: holds with the integer bound when every step
    stayed under the cap and the scan reached the horizon; fails at the
    first step above the cap (an overflowing power reads as one), witnessed
    by the first probe above it there; inconclusive otherwise.  A ``dense``
    scan reads upper bounds, so its ``fails`` also needs the exact norm of
    that first mean, which the scan keeps in its hit, to be above the cap.
    A scan decided by its bracket holds with the bound of the bracket's
    ends, and its evidence holds the bracket, its upper end as the
    maximum."""
    if family == FAMILY_POWER_BOUNDED:
        values, hit, key, shown = scan.powers, scan.power_hit, "power", {}
    else:
        values, hit, key, shown = scan.means, scan.mean_hit, "n", {"mode": mode}
    cap, diverged = scan.cap, scan.diverged_at is not None
    overall = float(values.max()) if scan.bracket is None else scan.bracket[1]
    evidence = {
        "max": overall, **shown, "diverged": diverged, "steps": scan.steps, "walked": scan.walked,
        "bracket": scan.bracket,
    }
    status, bound, witness = INCONCLUSIVE, None, None
    if overall <= cap and not diverged:
        status, bound = HOLDS, _int_bound(overall)
    elif hit is not None and mode == "probe":
        step, norms = hit[:2]
        probe = int(np.argmax(norms > cap))
        status, witness = FAILS, {**shown, "probe": probe, key: step, "value": float(norms[probe]), "cap": cap}
    elif hit is not None and hit[2] > cap:
        status, witness = FAILS, {**shown, key: hit[0], "value": hit[2], "cap": cap}
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

    Fails only by inheriting a failing Cesaro-bounded verdict `cb` at the
    same horizon, read off the same pass; is inconclusive on a diverged
    scan; holds only when `cb` holds and the certified diameter 2 * radius
    is below the tolerance, and is inconclusive otherwise.  Norms come from
    `_mode_norms`.  Uniform ergodicity off a ``probe`` scan (above
    `DENSE_CAP`) has no upper bound on ||A_n - A_N||, so it reads no radius
    and never holds.
    """
    evidence = {
        "mode": mode,
        "cb_status": cb.status,
        "cb_bound": cb.bound,
        "diverged": scan.diverged_at is not None,
        "diverged_at": scan.diverged_at,
        "steps": scan.steps,
        "tail_diameter_ub": None,
        "tail_diameter_lb": None,
    }

    def verdict(status, witness=None):
        return Verdict(family, status, scan.horizon, tolerance, None, witness, label, evidence)

    if cb.status == FAILS:
        return verdict(FAILS, {"inherited_from": FAMILY_CESARO_BOUNDED, **cb.witness})
    if scan.diverged_at is not None or family == FAMILY_UNIFORMLY_ERGODIC and mode == "probe":
        return verdict(INCONCLUSIVE)
    norms = _mode_norms(scan.stream.spec, mode)
    lower, upper = _tail_radius(scan, norms, tolerance)
    diam_ub = 2.0 * upper
    # A_N lies in the tail, so an exact radius is also a diameter lower bound.
    diam_lb = lower if norms.exact else np.zeros_like(lower)
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
    matrices A_n themselves: the tail radius reads upper bounds, and the
    dense Cesaro-bounded verdict gates both ``holds`` and ``fails``.  Above
    the cap it is read off the probe block: it inherits the probe-mode
    Cesaro-bounded ``fails`` (a probe mean above the cap has ||A_n|| above
    it too) and is otherwise ``inconclusive``, since probes give no upper
    bound on ||A_n - A_N||.
    """
    mode = "probe" if spec.dim > DENSE_CAP else "dense"
    if mode == "probe" and probes is None:
        raise ValueError(
            f"dim {spec.dim} exceeds the dense cap {DENSE_CAP}; probes are "
            "required above it"
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
    horizon (see `_tail_verdict`); uniform ergodicity off probes reads no
    tail.
    """
    probe = mode == "probe"
    X, label = (probes.vectors.T, probes.label) if probe else (np.eye(spec.dim), None)
    tails = ergodic if probe else uniform
    scans = _scan(spec, X, mode, {*horizons, *ergodic, *uniform}, bound_cap, tails)
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

    Returns the reproduced value and whether it is still above the
    verdict's cap.  The replay walks the block the pass walked, the identity
    for a ``dense`` witness and the whole probe block for any other, and
    reads it as the pass did (`matrix_norm` for a dense mean, the probe
    column's norm otherwise), so given the verdict's own probe set a
    genuine witness reproduces its recorded value bit for bit.  A witness
    that reads probes refuses a set with another label, and a probe index
    outside the set, with `ValueError`.
    """
    w = verdict.witness
    if verdict.status != FAILS or w is None:
        raise ValueError("replay requires a fails verdict with a witness")
    mode, step = w.get("mode", "probe"), w.get("power", w.get("n"))
    dense = mode == "dense"
    # A dense witness names no probe, and any other names one.
    if mode not in ("probe", "dense") or step is None or dense == ("probe" in w):
        raise ValueError(f"unrecognized witness shape for family {verdict.family}: {w}")
    if not dense:
        if probes is None or probes.label != verdict.probe_label:
            raise ValueError(f"this witness reads the probe set {verdict.probe_label!r}; pass that set")
        if not 0 <= w["probe"] < len(probes):
            raise ValueError(f"witness probe {w['probe']} is outside the set of {len(probes)} probes")
    stream = CesaroStream(spec, np.eye(spec.dim) if dense else probes.vectors.T)
    for chunk in stream.chunks(max(1, step)):
        pass
    if chunk.first + len(chunk.means) <= step:
        raise ValueError("the means stop before the witness step: the powers overflow")
    if dense:
        value = float(matrix_norm(chunk.means[-1], spec.norm_tag))
    else:
        # Power 0 is X = A_1, which the pass reads off the means.
        norms = chunk.power_norms[-1] if w.get("power") else column_norms(chunk.means[-1], spec.norm_tag)
        value = float(norms[w["probe"]])
    return value, value > w["cap"]

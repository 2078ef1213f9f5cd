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
`CesaroStream` on a block, with norms reduced one chunk of steps at a time.
The scan mode (``probe`` or ``dense``) fixes how a pass reads its norms
(`_mode_norms`), and `check_families` makes one pass per block, each at its
own width: the identity pass of a diagonal T walks the column of its
diagonal (`_packed`), and inside an analysis the probe pass writes the
means its margin tensor reads (`_leading_means`).  No
``holds`` comes from a scan that the overflow guard stopped, nor from a
one-index tail, and no pass reads past the step where its bounded
witnesses are settled (`_scan`).

A pass walks only where a bracket straddles a decision.  Its bounded
verdicts are bracketed from the block's reads (`_reads`); where that
decides them, the pass reads no per-step norms and stops at the stream's
anchor, past which every mean has a closed form, and `_plan` settles its
tails by one ordered rule.  A walked tail is bracketed off the walk
(`_tail_radius`), and its radius folded from a fresh walk where that
straddles, so a decided verdict has the bits a walk of every step gives
it.  Every rounding allowance rests on one depth lemma (`_deviation`).

For weighted-shift specs, norm-level results describe the finite section
rather than the infinite-dimensional operator once the horizon passes
dim/2; `trusted_horizon` returns the horizon below which the two agree.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .cesaro import OVERFLOW_LIMIT, CesaroStream, doubles
from .operators import (
    DENSE_CAP,
    KIND_DENSE,
    KIND_DIAGONAL,
    KIND_SHIFT,
    CapExceededError,
    OperatorSpec,
    ProbeSet,
    _abs_norms,
    _check_args,
    _l2_bound,
    apply_columns,
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
#: every dimension (a packed pass reads its bits by `_diagonal_norm`).
_L2_EXACT_DIM = 32


@dataclass(eq=False)
class Verdict:
    """Outcome of one family check at one horizon.

    `witness` substantiates a ``fails`` status and can be replayed with
    `replay_witness`.  `bound` is the smallest integer bound found for the
    bounded families.  `evidence` holds diagnostic detail (per-probe tail
    diameters, scan maxima) and is not part of the serialized form.  A
    bounded verdict's `steps` is the horizon its scan reached and `walked`
    the steps its pass produced for it: a pass decided before it walks
    produces for it only the steps of the tails it has left to read, and
    none where it has none, nor the steps a probe block narrower than dim
    walks only for the identity pass's floor.  A tail settled before the
    walk (`_plan`) reads its bracket as a walked one reads its radius:
    `certified` where the upper end is finite.
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
    norms, so that a radius is also a lower bound on the tail diameter.
    `rho(l1, linf)` is the norm of |T| under the readers' norm, from the
    l1 and linf norms of |T|: a bound on how much one step of T can grow a
    norm they read (see `_bounded_bracket`).  An exact l2 reader reads
    ||.||_2, whose growth per step ||T||_2 bounds.  Every reader reads
    within `eps` = (dim + 3) 2^-52 >= gamma_(dim+2) of the exact norm,
    relatively, before its slack, and within `tiny` = (dim + 1) 2^-536 of
    it absolutely, for squares that underflow.  `induced(M, tag)` is the
    induced norm of a block as the pass holds it (`_packed`)."""

    step: Callable
    radius: Callable
    slack: float
    exact: bool
    rho: Callable
    eps: float
    tiny: float
    induced: Callable


def _mode_norms(spec: OperatorSpec, mode: str) -> _Norms:
    """The step and radius norm readers of a scan mode, ``probe`` or
    ``dense``; any other mode raises `ValueError`.

    ``probe`` reads every norm per probe column.  ``dense`` reads the
    matrices A_n: per-step and radius norms are upper bounds (exact but for
    l2 above `_L2_EXACT_DIM`).  Both readers take a chunk's (count, dim, p)
    stack of means and give one row of norms per step (one norm per row in
    ``dense`` mode).  Next to each reader, `rho` gives the norm of |T| that
    bounds its growth per step: for sqrt(l1 * linf), which is no norm, the
    larger abs-sum, so that it bounds the means too.

    A bracket's upper end is the norm of an envelope E >= |D| entry by
    entry.  Every step and radius reader but the exact SVD is a fixed order
    of abs, squares, sums, maxima and square roots of the entries, so it
    reads norm(D) <= norm(E) as computed, and its slack is 0.  For the
    exact SVD, ||D||_2 <= || |D| ||_2 <= ||E||_2 in exact arithmetic; its
    slack, 2^-40, assumes that LAPACK's largest singular value is within
    2^-42 of the true one, relatively, at dim <= `_L2_EXACT_DIM` (about
    2 000 ulps), so that norm(D) <= norm(E) * (1 + 2^-40) as computed.
    A packed pass (`_packed`) reads the same norms off the diagonals.
    """
    tag = spec.norm_tag
    rho = lambda l1, linf: l1 if tag == "l1" else linf if tag == "linf" else math.sqrt(l1 * linf)
    rounding = ((spec.dim + 3) * 2.0**-52, (spec.dim + 1) * 2.0**-536)
    if mode == "probe":
        cols = lambda X: column_norms(X, tag)
        return _Norms(cols, cols, 0.0, True, rho, *rounding, matrix_norm)
    if mode != "dense":
        raise ValueError(f"unknown scan mode {mode!r}, expected probe or dense")
    induced = _diagonal_norm if _packed(spec, mode) else matrix_norm
    radius, slack, exact = (lambda X: induced(X, tag)), 0.0, True
    if tag == "l2" and spec.dim > _L2_EXACT_DIM:
        radius, exact, rho = (lambda X: np.sqrt(induced(X, "l1") * induced(X, "linf"))), False, max
    elif tag == "l2":
        slack = 2.0**-40
    return _Norms(lambda X: radius(X)[:, None], radius, slack, exact, rho, *rounding, induced)


def _packed(spec: OperatorSpec, mode: str) -> bool:
    """Whether a pass in `mode` holds its block by its diagonal: a ``dense``
    pass of a diagonal T, every one of whose powers and means of the
    identity block is a diagonal matrix.  Such a pass walks the column of
    ones (a packed `CesaroStream`, see `_identity_block`) and reads each
    induced norm of diag(a) as max |a_i| (`_diagonal_norm`)."""
    return mode == "dense" and spec.kind == KIND_DIAGONAL


def _identity_block(spec: OperatorSpec) -> np.ndarray:
    """The block a ``dense`` pass walks: the identity, or where that pass is
    `_packed`, its diagonal, the (dim, 1) column of ones."""
    return np.ones((spec.dim, 1)) if _packed(spec, "dense") else np.eye(spec.dim)


def _diagonal_norm(M: np.ndarray, tag: str):
    """The induced norm of diag(m) for a packed (dim, 1) block m, or of each
    block of a (..., dim, 1) stack, with the bits `matrix_norm` gives the
    dense block (a float for one block): max |m_i|.  That is the l1 and
    linf norm bit for bit, since each abs-sum adds +0.0 to one entry.  It
    is also LAPACK's largest singular value at every dim but 2: the
    bidiagonal form of a diagonal matrix is itself, and `dlasq1` returns the
    sorted |m_i| of a bidiagonal with no off-diagonal entry, except at
    dim 2, where `dlas2`'s closed form can round (1 ulp low on
    diag(0.75, 0.5)), so dim 2 reads the SVD of its 2 x 2 diagonal.  A
    block of dim columns is read as it is, by `matrix_norm`."""
    if M.shape[-1] > 1 or tag == "l2" and M.shape[-2] == 2:
        return matrix_norm(M if M.shape[-1] > 1 else M * np.eye(2), tag)
    top = np.maximum.reduce(np.abs(M), axis=(-2, -1))
    return float(top) if M.ndim == 2 else top


# -- one pass over the means ---------------------------------------------


@dataclass(eq=False)
class _Scan:
    """What one stream pass keeps; norms are reduced a chunk at a time.

    `means` holds the mean-norm maxima for n = 1..steps and `mean_hit` the
    first step above the cap as (n, norms, exact), exact the induced norm
    of A_n in ``dense`` mode (None in ``probe`` mode); `powers` holds the
    power-norm maxima for m = 0..steps (None in ``dense`` mode) and
    `power_hit` (m, norms); a hit is None when no step crossed the cap.  On
    a tail scan, `snapshots` maps t = max(1, N//2) and N to A_n (it is empty
    on any other), and `low` and `high` bound the walked means from t to
    min(N, s - 1) entry by entry, s the stream's anchor (`_tail_radius`):
    complete only on a scan that reached N, and copies, since the stream
    reuses its chunk buffers.  A decided pass (`_scan`) holds its `bracket`
    in place of the maxima and hits, which are None, and produced `walked`
    of its `steps`, the snapshots past them from the closed form: 0 for a
    horizon with no tail left to read, even where the block walks on for
    the means of `keep`, whose `tail_bracket` is the one `_plan` settled
    it with, and which keeps no snapshots or envelope.  Any other pass
    walks every one of its `steps`, which end where its bounded witnesses
    are settled (`_scan`), as do its maxima, snapshots and envelope.
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
    tail_bracket: tuple | None = None


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


def _deviation(spec, size, mode, horizon, depth=None):
    """The rounding allowance of a block X read by `mode`'s readers, one
    entry per reader row (per probe, or one for the identity block), as
    (size, above, C, delta): `size`, the reader's norms of X as computed
    (`_reads`), bounds on their exact values, C >= ||T^k|| for
    every k <= N = `horizon` in the readers' norm, and, for a walk of X to N
    (`depth` None), delta >= ||fl(A_n X) - A_n X|| for every n <= N, fl(A_n X)
    the mean the stream computes; given a depth, delta bounds the error of a
    block formed on the stream's levels from powers up to T^N at that depth.

    Let u = 2^-53 and gamma_j = ju/(1 - ju).  Each reader reads a norm that
    is monotone in the entries' magnitudes and under which |T|^m has norm at
    most rho^m, rho the `_Norms.rho` of the pass's readers: the l1 norm of
    |T| for l1, its linf norm for linf, the square root of their product
    (>= || |T| ||_2) for l2, and their larger one for the sqrt(l1 * linf)
    reader of dense l2 above `_L2_EXACT_DIM`.  A product sums K products per
    entry in some order, K the most terms of the kernel's sums (k of
    `_abs_norms`) for a walk, and max(k, dim) for a dense product on the
    levels T^(2^j) (`CesaroStream.dense` squared; the doubling grid's are a
    dense T's, k = dim); so fl(M Y) = M Y + e with |e| <= gamma_K |M||Y|
    entry by entry, up to 2^-1075 per subnormal product.  Let
    c = (K + 2) 2^-52 >= gamma_(K+2) + 2u.

    The depth lemma.  Say a computed block has depth a under an envelope E
    (a nonnegative block, or on the ||.||_2 path below a number) when it is
    within ((1 + c)^a - 1) E of its exact value, and E bounds that value's
    magnitude.  A product of blocks of depths a and b rounded once more has
    depth a + b + 1 under the product of their envelopes, since
    |fl(LZ) - L*Z*| <= c |L||Z| + |LZ - L*Z*|; a sum, or a division by n,
    depth one more than its deeper term under the sum of theirs.  So a
    stepped power P_m = fl(T P_(m-1)) has depth m under |T|^m |X|, and so
    has a doubled one: T^(2^j) costs 2^j - 1 squarings, and
    P_i = T^(2^j) P_(i-2^j) one product more, i in all.  The kernel applied
    to the identity rounds once for a T that is not dense, so with e = 1 for
    a dense T and 2 otherwise, T^(2^j) has depth e 2^j - 1, and a product
    with it adds e 2^j to the depth of what it multiplies.  So a term T^m X
    enters T^m Y (`CesaroStream.power`) or the ladder's means
    (`CesaroStream.ladder`) at depth e m plus one per sum or division on its
    way: none for T^m Y, under 2 bit_length(N) for the ladder (at most two
    rungs per digit of N after the first, and the division).  Each enters at
    depth at most m + x, x = depth - N: (e - 1) t for T^t Y at depth e t
    (`_level_depth`), (e - 1) N + 2 bit_length(N) for the ladder, and 0 for
    the walk's powers.  The computed abs-sums are
    within gamma_(K+2) of the true ones (and of rho, with the product and
    the square root), so g = (1 + c)^2 rho bounds rho' (1 + c), rho' =
    (1 + c) rho >= the true norm of |T|, and pays for the roundings that form
    g; the envelope of T^m X then has norm at most rho'^m ||X||, and
    ((1 + c)^(m + x) - 1) rho'^m = g^m ((1 + c)^x - (1 + c)^-m) is at most
    max(1, g)^N ((1 + c)^x - (1 + c)^-N) for m <= N.

    Where smaller, a dense T read in ||.||_2 (`_Norms.exact`: probe columns
    or the exact SVD) takes the ||.||_2 path: rho' = r >= ||T||_2 from
    `_l2_bound`, and envelopes r^m ||X||.  The lemma holds in norms with
    c' >= gamma_K || |M| ||_2 || |Y| ||_2 / (||M||_2 ||Y||_2) + 2u, since
    || |M| ||_2 <= sqrt(K) ||M||_2 for M of K columns and || |y| ||_2 =
    ||y||_2 for a column: c' = (K + 2)(isqrt(K) + 1) u where every product
    multiplies a column by T (a probe block stepped one product per step,
    as `cesaro.doubles` says of a dense T above dim 128 or a wide block),
    and c' = (K + 2)^2 u where it multiplies blocks (a squaring, or the
    identity block; `_l2_factor`), and g = r (1 + c').  A walk forms r only
    where some r could decide its bracket: the a priori r, and the tight one
    only where the a priori r leaves it undecided and the estimate of
    ||T||_2 would decide it.  On either path:

    - ||T^k|| <= C = max(1, rho')^N for k <= N;
    - a mean of the walk is the running sum of n powers divided by n, or
      the closed form's three roundings of a sum over s < n, so it is within
      gamma_(N+3) (|P_0| + ... + |P_(n-1)|)/n of their exact mean entry by
      entry, under (N + 4) 2^-52 max(1, g)^N ||X|| in norm, times sqrt(dim)
      for a block on the ||.||_2 path (|| |E| ||_2 <= sqrt(dim) ||E||_2).

    So delta = max(1, g)^N ||X|| ((1 + c)^x - (1 + c)^-N + t 2^-52), t the
    walk's N + 4 (so scaled) and 0 at a given depth.  Every reader is within
    eps = gamma_(dim+2) of the exact norm, widened by its slack (see
    `_mode_norms`), so ||X|| <= (1 + eps) size, up to the absolute rounding
    of underflowing squares; that and the subnormal products stay under
    (max(N, depth) + 1)(dim K + 1) 2^-536 times the growth, which `above`
    adds.  Powers are formed in log space and only up to `OVERFLOW_LIMIT`,
    and C and delta are widened by 1 + 2^-40, which covers the rounding of
    the logarithm, the exponential and the products that form them and that
    combine them in `_bounded_bracket`, `_decay` and `_tail_certificate`
    (under 1 000u below that limit).  Past N = 2^40, or that limit, C and
    delta are infinite.
    """
    norms = _mode_norms(spec, mode)
    l1, linf, k = _abs_norms(spec)
    K = k if depth is None else max(k, spec.dim)
    c = (K + 2) * 2.0**-52
    g = (1.0 + c) ** 2 * norms.rho(l1, linf)
    terms, excess = (horizon + 4.0, 0) if depth is None else (0.0, depth - horizon)
    eps = norms.eps + norms.slack
    above = size * (1.0 + eps) + (max(horizon, depth or 0) + 1.0) * (spec.dim * K + 1.0) * 2.0**-536
    widen = 1.0 + 2.0**-40

    def growth(g, c, terms):  # (C, delta / above)
        exponent, steps = (horizon * math.log(g) if g > 1.0 else 0.0), horizon * math.log1p(c)
        if horizon > 2**40 or not exponent <= _LOG_LIMIT:
            return math.inf, math.inf
        rounding = math.expm1(excess * math.log1p(c)) - math.expm1(-steps) + terms * 2.0**-52
        return math.exp(max(0.0, exponent - steps)) * widen, math.exp(exponent) * rounding * widen

    if spec.kind == KIND_DENSE and spec.norm_tag == "l2" and norms.exact and g > 1.0:
        c2 = _l2_factor(K, depth is None and mode == "probe" and not doubles(spec, (spec.dim, len(size))))
        t2 = terms * (1.0 if mode == "probe" else math.sqrt(K))
        lower, top = float(np.maximum.reduce(size)), float(np.maximum.reduce(above))

        # Whether the bracket with g = f decides (an upper end past `OVERFLOW_LIMIT` decides nothing).
        decides = lambda f: _decides((lower, top * sum(growth(f, c2, t2)) * (1.0 + eps)), math.inf)

        # decides(1.0) is the upper end for every r <= 1 / (1 + c'), the least of all.
        if depth is not None or decides(1.0):
            r, estimate = _l2_bound(spec)[:2]
            if depth is None and not decides(r * (1.0 + c2)) and decides(estimate * (1.0 + c2)):
                r = min(r, _l2_bound(spec, True)[0])
            if r * (1.0 + c2) < g:
                g, c, terms = r * (1.0 + c2), c2, t2
    power, factor = growth(g, c, terms)
    if power == math.inf:
        return size, above, math.inf, np.full_like(above, math.inf)
    return size, above, power, above * factor


def _l2_factor(K, column):
    """c' of the ||.||_2 path of `_deviation`, at least gamma_K times the
    largest || |M||Y| ||_2 / (||M||_2 ||Y||_2) over M of K columns, plus 2u:
    (K + 2)(isqrt(K) + 1) u for a column Y (|| |M| ||_2 <= sqrt(K) ||M||_2
    and || |Y| ||_2 = ||Y||_2), and (K + 2)^2 u for a block."""
    return (K + 2) * (math.isqrt(K) + 1 if column else K + 2) * 2.0**-53


def _level_depth(spec, m):
    """The depth (see `_deviation`) of T^m Y formed on the stream's levels
    (`CesaroStream.power`): e m, with e = 1 for a dense T and 2 for the
    other kinds, whose kernel applied to the identity rounds once."""
    return (1 if spec.kind == KIND_DENSE else 2) * m


def _bounded_bracket(spec, mode, deviation):
    """Bounds (lower, upper) on every power norm and mean norm that a pass of
    X to N in `mode` reads, and on every power column norm that the
    stream's overflow guard reads, from `deviation`, the `_deviation` of X
    at N.

    The lower end is the reader's value at n = 1, which the walk reads too:
    A_1 = X bit for bit, and P_0 = X.  With `_deviation`'s bounds, for
    m, n <= N, ||fl(A_n X)|| <= ||A_n X|| + delta_N <= C ||X|| + delta_N, and
    ||P_m|| <= ||T^m X|| + ||P_m - T^m X|| is under that too; a reader
    reads within eps of it, so the upper end is the largest such sum times
    1 + eps, infinite where C is.
    """
    size, above, power, delta = deviation
    lower = float(np.maximum.reduce(size))
    if power == math.inf:
        return lower, math.inf
    norms = _mode_norms(spec, mode)
    return lower, float(np.maximum.reduce(power * above + delta)) * (1.0 + (norms.eps + norms.slack))


class _Reads(NamedTuple):
    """A block's reads from before the walk, formed once and passed down:
    `deviation(N, depth=None)`, its `_deviation` at N, memoized, whose `size`
    is the reader's norms of the block; and the `bracket` of its pass."""

    deviation: Callable
    bracket: tuple


def _reads(spec, X, mode, horizon) -> _Reads:
    """The `_Reads` of block X for a pass to `horizon` in `mode`."""
    size, memo = _mode_norms(spec, mode).step(X[None])[0], {}

    def deviation(N, depth=None):
        if (N, depth) not in memo:
            memo[N, depth] = _deviation(spec, size, mode, N, depth)
        return memo[N, depth]

    return _Reads(deviation, _bounded_bracket(spec, mode, deviation(horizon)))


def _decides(bracket, cap) -> bool:
    """Whether a `_bounded_bracket` decides every bounded verdict of its pass
    before it walks: its upper end is under the cap and `OVERFLOW_LIMIT`,
    and both ends give one integer bound."""
    lower, upper = bracket
    return upper <= min(cap, OVERFLOW_LIMIT) and _int_bound(lower) == _int_bound(upper)


def _split(spec, X, stream=None):
    """F and Y with X = F + (I - T) Y + R for a small residual R and a
    small (I - T) F; None where they come out non-finite.  I - T is formed
    from the dense T of the pass's `stream` (`CesaroStream.dense`), or from
    a copy made here where none is given.

    With A = I - T, the columns (or, for a diagonal T, the coordinates)
    where A is near null span the near-null space V_0: those whose
    eigenvalue w of the Gram matrix A^T A, from `np.linalg.eigh`, is at most
    2^-40 max(w), and the rest V_+.  With U = A V_+ and W = I - U
    diag(1/w_+) U^T, near the projector onto Ker(A^T), F = V_0 a solves
    W (X - V_0 a) = 0 in least squares, the oblique projection of X onto
    Ker(A) along Ran(A) (the mean ergodic splitting), and
    Y = V_+ diag(1/w_+) U^T (X - F) is the least-squares solution of
    A Y = X - F.  Where A is invertible and Y = A^-1 X from an LU solve is
    at most 2^26 times X in size relative to A, F = 0 and that Y stand
    instead; a diagonal A splits entry by entry.  Neither need be accurate:
    `_tail_certificate` reads only the residuals they leave.
    """
    with np.errstate(all="ignore"):
        if spec.kind == KIND_DIAGONAL:
            a = (1.0 - spec.entries)[:, None]
            null = np.abs(a) <= 2.0**-20 * np.max(np.abs(a))
            F, Y = np.where(null, X, 0.0), np.where(null, 0.0, X / a)
            return (F, Y) if np.isfinite(F).all() and np.isfinite(Y).all() else None
        T = apply_columns(spec, np.eye(spec.dim)) if stream is None else stream.dense()
        A = np.negative(T)
        del T  # a copy the stream does not keep is freed here
        A.flat[:: spec.dim + 1] += 1.0
        try:
            Y = np.linalg.solve(A, X)
            if np.max(np.abs(Y)) * np.max(np.abs(A)) <= 2.0**26 * np.max(np.abs(X)):
                return np.zeros_like(X), Y
        except np.linalg.LinAlgError:  # I - T is singular
            pass
        G = A.T @ A
        del A  # free each dim x dim block once used: at `DENSE_CAP` one is 2 MB
        try:
            w, V = np.linalg.eigh(G)
        except np.linalg.LinAlgError:
            return None
        null = w <= 2.0**-40 * w[-1]
        V0, Vp, wp = V[:, null], V[:, ~null], w[~null]
        del G, V
        U = Vp - apply_columns(spec, Vp)  # A V_+
        UX, UV0 = U.T @ X, U.T @ V0
        U /= wp
        Vp /= wp
        B = V0 - U @ UV0  # W V_0
        try:
            a = np.linalg.solve(B.T @ B, B.T @ (X - U @ UX))
        except np.linalg.LinAlgError:
            return None
        F, Y = V0 @ a, Vp @ (UX - UV0 @ a)
    return (F, Y) if np.isfinite(F).all() and np.isfinite(Y).all() else None


def _reader_above(spec, mode):
    """M -> an upper bound on each reader's exact norm of M: per column in
    ``probe`` mode; in ``dense`` mode the induced norm, from the l1 and linf
    norms (sqrt(l1 * linf) >= ||.||_2 for l2), widened by eps and tiny (see
    `_Norms`)."""
    norms, tag = _mode_norms(spec, mode), spec.norm_tag
    if mode == "probe":
        return lambda M: column_norms(M, tag) * (1.0 + norms.eps) + norms.tiny
    return lambda M: norms.rho(norms.induced(M, "l1"), norms.induced(M, "linf")) * (1.0 + norms.eps) + norms.tiny


def _decay(spec, Y, t, C, stream=None, mode="probe"):
    """D >= ||T^k Y|| / ||Y|| for every k >= t on the window, in every
    reader's exact norm (per column of Y in ``probe`` mode), given
    C >= ||T^k|| for k <= N: the least of C and of these, where they apply.

    - For a diagonal T whose largest |lambda| on the rows where Y is not 0,
      rho_+, is under 1: rho_+^t.  T^k Y scales those rows by lambda^k, so no
      entry grows, and every such norm (of a column, or of a block, by the
      norm of the diagonal) falls by at least rho_+^k <= rho_+^t.  It is
      formed in log space from an exponent raised to at least
      -log `OVERFLOW_LIMIT`, so it neither overflows nor underflows.
    - For a weighted shift, 0 from t = dim on: T^k = 0 for k >= dim.
    - Given the pass's `stream`, for a T that is not diagonal, up to
      `_DOUBLING_DIM`: for t <= k <= N, T^k Y = T^(k - t) T^t Y with
      k - t <= N, so ||T^k Y|| <= C ||T^t Y|| <= C (||fl(T^t Y)|| + delta_t),
      fl(T^t Y) formed from the stream's levels (`CesaroStream.power`) and
      delta_t its allowance at depth e t (`_level_depth`, `_deviation`; on
      the ||.||_2 path with r for a dense T read in l2, since rho^t of |T|
      overflows there).  D is C times that, read by `_reader_above`, over a
      lower bound on ||Y||: the reader's norm of each column less its
      rounding in ``probe`` mode; in ``dense`` mode that of the largest
      column, which no induced norm is below.

    Each is widened by 1 + 2^-40, which covers the rounding of the
    logarithm, the products, the division and the exponential that form it
    (as in `_deviation`)."""
    if spec.kind == KIND_DIAGONAL:
        top = float(np.max(np.abs(spec.entries)[np.any(Y != 0.0, axis=1)], initial=0.0))
        if not top < 1.0:
            return C
        exponent = t * math.log(top) if top > 0.0 else -math.inf
        return min(C, math.exp(max(-_LOG_LIMIT, exponent)) * (1.0 + 2.0**-40))
    if spec.kind == KIND_SHIFT and t >= spec.dim:
        return 0.0
    if stream is None or C == math.inf:
        return C
    norms, above = _mode_norms(spec, mode), _reader_above(spec, mode)
    with np.errstate(all="ignore"):
        Z = stream.power(t, Y)
        if Z is None:
            return C
        low = (column_norms(Y, spec.norm_tag) - norms.tiny) * ((1.0 - 2.0**-40) / (1.0 + norms.eps))
        low = low if mode == "probe" else np.max(low)
        delta = _deviation(spec, np.atleast_1d(above(Y)), mode, t, _level_depth(spec, t))[3]
        D = C * (above(Z) + delta) / low * (1.0 + 2.0**-40)
        return np.where((low > 0.0) & (D < C), D, C)


def _tail_certificate(spec, X, mode, deviation, stream=None):
    """upper(N, tolerance=None): an upper end on the radius max_n
    norm(A_n - A_N) over [t, N], t = N//2, that a walk of X in `mode` would
    read, per reader row, without a walk, from X's `deviation` (`_reads`)
    and one split of X, formed for the first tail that reads it.  It is inf
    for N < 2, for a reader that reads no norm (sqrt(l1 * linf) above
    `_L2_EXACT_DIM`), where `_split` finds no splitting, and where its
    dim x dim blocks would outgrow every block the analysis forms: for a T
    that is not diagonal (a diagonal splits entry by entry) on a probe
    block above `DENSE_CAP`, where no identity block is walked, unless it
    has dim columns or more (on `wide-operators` they raised the peak RSS
    by 2.6 MB).

    Let X = F + (I - T) Y + R and E = (I - T) F for the F and Y of
    `_split`, and C >= ||T^k|| for k <= N (`_deviation`).  Then for
    t <= n <= N, in the reader's exact norm (per probe column, or the
    induced norm of a block):

    - T^k F = F - (E + T E + ... + T^(k-1) E), so
      ||A_n F - F|| <= (n - 1) C ||E|| / 2 and ||A_n F - A_N F|| <= N C ||E||;
    - A_n (I - T) Y = (Y - T^n Y) / n, so with D >= ||T^k Y|| / ||Y|| for
      t <= k <= N (`_decay`: C, or less for a contracting diagonal, or from
      T^t Y),
      ||(A_n - A_N)(I - T) Y|| <= ||Y|| ((1/t - 1/N) + D (1/t + 1/N));
    - ||(A_n - A_N) R|| <= 2 C ||R||;

    and each computed mean is within delta_N of the exact one
    (`_deviation`).  The walk reads fl(fl(A_n) - fl(A_N)), within u of the
    difference entry by entry, through a reader within eps (and its slack)
    of the exact norm, up to the absolute rounding of underflowing squares,
    so the radius it reads is at most the sum of the three terms and
    2 delta_N, widened by those; 1 + 2^-40 covers forming that sum.  R and E
    are formed as computed: the kernel's fl(T M) is within gamma_k |T||M| of
    T M entry by entry, and three more subtractions round R and one E, so
    their errors are under (k + 4) 2^-52 (|X| + |F| + |Y| + |T||Y|) and
    (k + 2) 2^-52 (|F| + |T||F|), plus k 2^-1075 per entry for subnormal
    products.  In the reader's norm (sqrt(l1 * linf) >= ||.||_2 for a block
    read in l2) || |T||M| || <= rho ||M||, rho that of |T| (`_Norms.rho`), so
    (k + 4) 2^-52 (||X|| + ||F|| + (1 + rho) ||Y||), (k + 2) 2^-52 (1 + rho)
    ||F|| and dim k 2^-1074 bound the errors' norms twice over, which covers
    the rounding of rho and of forming the bounds; each norm is widened by
    eps, and ||X|| is `_deviation`'s bound, from the reader's norms of X
    as computed.

    Given the pass's `stream`, `_split` reads its dense copy of T
    (`CesaroStream.dense`), and `_decay` forms T^t Y from its levels; with
    none, `_split` forms its own copy and D forms no T^t Y.  Given the
    pass's `tolerance`, T^t Y is formed only for a tail that D = 0 would
    settle and `_decay`'s other bounds do not, a filter on work alone.
    """
    norms, d = _mode_norms(spec, mode), spec.dim
    shape = (X.shape[1],) if mode == "probe" else ()  # a dense tail reads one norm
    small = spec.kind == KIND_DIAGONAL or mode == "dense" or d <= max(DENSE_CAP, X.shape[1])  # none outgrows the analysis's
    reader = (1.0 + 2.0**-52) * (1.0 + norms.eps + norms.slack) * (1.0 + 2.0**-40)
    formed = []  # the parts of the one split, formed for the first tail that reads them

    def residuals():  # Y, the norms of F, Y, R and E, and those of |T|; None with no splitting
        split = _split(spec, X, stream) if norms.exact and small else None
        if split is None:
            return None
        F, Y = split
        above = _reader_above(spec, mode)
        with np.errstate(all="ignore"):
            R, E = above(X - F - Y + apply_columns(spec, Y)), above(F - apply_columns(spec, F))
            return Y, above(F), above(Y), R, E, _abs_norms(spec)

    def upper(N, tolerance=None):
        if N >= 2 and not formed:
            formed.append(residuals())
        if N < 2 or formed[0] is None:
            return np.full(shape, math.inf)
        Y, f, y, R, E, (l1, linf, k) = formed[0]
        rho, (_, x, C, delta), t = norms.rho(l1, linf), deviation(N), N // 2
        with np.errstate(all="ignore"):
            r = R + (k + 4) * 2.0**-52 * (x + f + (1.0 + rho) * y) + d * k * 2.0**-1074
            e = E + (k + 2) * 2.0**-52 * (1.0 + rho) * f + d * k * 2.0**-1074
            bound = lambda D: N * C * e + y * ((1.0 / t - 1.0 / N) + D * (1.0 / t + 1.0 / N)) + 2.0 * C * r + 2.0 * delta
            settles = lambda D: 2.0 * np.max(bound(D)) * reader < tolerance
            D = _decay(spec, Y, t, C)  # D >= ||T^k Y|| / ||Y|| over the tail
            if tolerance is None or not settles(D) and settles(0.0):
                D = _decay(spec, Y, t, C, stream, mode)
            end = bound(D)
            return np.where(end >= 0.0, end * reader + norms.tiny, math.inf).reshape(shape)  # NaN reads inf

    return upper


def _tail_floor(spec, mode, means, allowance, walk, above=None):
    """A proven lower end on the tail radius that a walk of a block in
    `mode` to N reads, from probe means (A_t x, A_N x), t = max(1, N//2),
    each within `allowance` of the exact one, and `walk` >= the walk's own
    delta_N (`_deviation`): per probe for the probe block, and given
    `above` >= ||x||, one for the identity block.  Never below 0.

    Let D = A_t - A_N exactly.  For the computed norm v of
    fl(A_t x) - fl(A_N x), ||D x|| >= v / ((1 + u)(1 + eps)) - tiny -
    2 allowance: a computed difference is within u of the exact one entry by
    entry, and a reader within eps of the exact norm up to `tiny` for
    underflowing squares (see `_Norms`).  Call that L per probe; on the
    identity side, ||D|| >= ||D x|| / ||x|| in the induced norm, so L is the
    largest of them over `above` instead.  A walk reads
    fl(fl(A_t) - fl(A_N)), each mean within `walk` of the exact one, so the
    exact norm of their difference is at least L - 2 walk (every dense
    reader reads at least the induced norm, and sqrt(l1 * linf) of each
    error bounds its ||.||_2), and the walk's lower end of the radius, that
    difference's norm as computed, at least
    (L - 2 walk)(1 - u) / (1 + eps + slack) - tiny.  The floor is under
    that: 1 - 2^-40 covers the rounding of forming it (each step errs by
    under 100u of its leading term); `_plan` says what it decides.
    """
    norms = _mode_norms(spec, mode)
    with np.errstate(all="ignore"):
        reach = column_norms(means[0] - means[1], spec.norm_tag) * ((1.0 - 2.0**-40) / (1.0 + norms.eps))
        low = reach - norms.tiny - 2.0 * allowance
        if above is not None:
            low = np.max(low / above)
        low = (low - 2.0 * walk) * ((1.0 - 2.0**-40) / (1.0 + norms.eps + norms.slack)) - norms.tiny
        return np.maximum(low, 0.0)


def _settles(bracket, tolerance) -> bool:
    """Whether a bracket (lower, upper) on a tail radius decides
    2 * radius < `tolerance`: twice its largest upper end is under the
    tolerance, or twice its largest lower end reaches it (a NaN straddles)."""
    top = lambda ends: np.maximum.reduce(ends, axis=None)
    return 2.0 * top(bracket[1]) < tolerance or 2.0 * top(bracket[0]) >= tolerance


def _plan(stream, mode, reads, tails, tolerance, anyway, kept):
    """The tails of `tails` that a pass of `stream`'s block in `mode`, whose
    bracket decides, settles before it walks, as {N: (lower, upper)}: a
    bracket on the radius max_n norm(A_n - A_N) over [t, N], t = max(1, N//2),
    that a walk would read, per reader row, from the block's `reads` and no
    walk.  Per tail it tries, in order:

    1. on the identity block, the probe-mean floor (floor, inf), where
       `kept` holds the probe pass's means at t and N, which that pass keeps
       where it forms them anyway, and its block's reads (`_scan`):
       ||A_t - A_N|| >= ||(A_t - A_N) x|| / ||x|| for every probe x
       (`_tail_floor`);
    2. where t * tolerance > 2, the resolvent certificate (0, upper), from
       the mean ergodic splitting X = Ker(I - T) + Ran(I - T)
       (Yosida-Kakutani; `_tail_certificate`, `_decay`), at most one split
       per block.  It skips the tails D = C cannot settle (a unit column
       with no fixed part has ||Y x|| >= 1 / ||I - T|| >= 1 / (1 + C), so
       twice its Y term is >= 2 / t), and short ones that a contracting
       diagonal's smaller D might, which walk in a few steps;
    3. on a probe block, the ladder floor (floor, inf), per probe and with
       no division by ||x||, from A_t x and A_N x formed on the stream's
       doubling ladder (`CesaroStream.ladder`, up to dim 128, where squaring
       T costs less than stepping), whose bits are not the walk's: only its
       proven allowance (`_deviation` at the ladder's depth) enters.  Only
       past `anyway`, the step the pass walks to anyway, and before a
       weighted shift's anchor: a shift's powers are 0 from step dim on, a
       block T maps to itself bit for bit, so its anchor is at most dim + 1
       before any walk, and the walk reaches that tail first, in closed form;

    and it keeps the first bracket that decides (`_settles`).  A floor lies
    under the walk's lower end, and the certificate over its upper end, with
    the rounding of both streams proven where each is formed; a walk's upper
    end is never below its lower end.  So where twice a floor reaches the
    tolerance, the walk reads the tail ``inconclusive``, with no witness, as
    the floor does, and where twice the certificate is under it, the walk
    reads the tail as holding.  No two brackets on one radius decide apart,
    so the order and each filter are a matter of work alone: the identity
    floor costs a norm of the kept means, and the certificate, which settles
    most probe tails, goes before the ladder's squarings.

    A settled tail reads nothing.  The pass walks to its last tail left, and
    with none left walks no step, but for a probe block narrower than the
    identity block whose identity bracket decides: it walks on to `anyway`,
    the longest horizon of `keep` up to its own, for the means the identity
    floor reads, a walk cheaper than the identity block's (`check_families`
    keeps means only there: an undecided identity pass reads no floor).
    """
    spec, settled = stream.spec, {}
    certified = _tail_certificate(spec, stream.X, mode, reads.deviation, stream)
    reached = spec.dim + 1 if spec.kind == KIND_SHIFT else math.inf
    floor = lambda low: (low, np.full_like(low, math.inf))
    settles = lambda bracket: bracket is not None and _settles(bracket, tolerance)
    for N in tails:
        bracket = None  # the last settler's
        if mode == "dense" and N in (kept or ()):
            pair, probe = kept[N]
            _, above, _, delta = probe.deviation(N)
            bracket = floor(_tail_floor(spec, mode, pair, delta, np.max(reads.deviation(N)[3]), above))
        if N // 2 * tolerance > 2.0 and not settles(bracket):
            upper = certified(N, tolerance)
            bracket = np.zeros_like(upper), upper
        if mode == "probe" and N > anyway and max(1, N // 2) < reached and not settles(bracket):
            allowance = reads.deviation(N, _level_depth(spec, N) + 2 * N.bit_length())[3]
            pair = stream.ladder(N) if np.all(np.isfinite(allowance)) else None
            bracket = None if pair is None else floor(_tail_floor(spec, mode, pair, allowance, reads.deviation(N)[3]))
        if settles(bracket):
            settled[N] = bracket
    return settled


def _wants(wanted, marks, head, lo, hi) -> bool:
    """Whether the steps [lo, hi) hold a mean that a decided pass reads: one
    of the first `head`, a step of the sorted `wanted`, or one of a tail
    [t, N] of `marks`."""
    return (
        lo <= head
        or bisect_left(wanted, lo) < bisect_left(wanted, hi)
        or any(t < hi and lo <= N for t, N in marks.values())
    )


def _scan(spec, X, mode, horizons, bound_cap, tails=(), tolerance=None, keep=(), kept=None, reads=None, head=0):
    """One pass of the stream of X to the longest of `horizons`, reading
    norms as `mode` says, and per horizon the `_Scan` of a pass to it alone;
    the horizons in `tails` also bound their walked tail means for
    `_tail_radius`.  `kept` is shared by the passes of one `check_families`:
    for each horizon N of `keep` the pass adds ((A_t, A_N), reads) to it
    under N, t = max(1, N//2), where it forms both means anyway or past its
    anchor.  Given `head` B, it adds A_1..A_r under ``"head"``, written into
    one (B, dim, p) stack as the walk forms them, r = B or the step of the
    stream's overflow stop before B, where the walk reaches that step or an
    anchor before it (past which every mean is the closed form), and None
    where it does not: it walks no step further for them.  A step's bits do
    not depend on the chunk that holds it.

    `reads` are the block's (`_reads`), formed here unless given.  Where
    their bracket decides, the pass reduces no norms, forms only the means
    it reads, and walks only as far as `_plan` leaves it to, up to its
    anchor.  Any other pass walks a stationary phase through the closed
    form, and stops at the step w by which its bounded witnesses are
    settled: the first power and the first mean above the cap in ``probe``
    mode, the first mean above it, with an exact norm above it too, in
    ``dense`` mode.  Every verdict of a horizon h >= w is then ``fails`` or
    inherits it, so its scan ends at w."""
    readers = _mode_norms(spec, mode)
    stream = CesaroStream(spec, X, _packed(spec, mode))
    scans = {h: _Scan(stream, h, bound_cap) for h in sorted(set(horizons))}
    means, powers, snapshots, mean_hit, power_hit = [], [], {}, None, None
    horizon = stop = max(scans)  # the last step to walk: the horizon, or where the witnesses are settled
    reads = reads or _reads(spec, X, mode, horizon)
    decided = _decides(reads.bracket, bound_cap)
    # A probe block narrower than the identity block walks on for the identity floor.
    anyway = min(horizon, max(keep, default=0)) if mode == "probe" and X.shape[1] < spec.dim else 0
    settled = _plan(stream, mode, reads, tails, tolerance, anyway, kept) if decided and tolerance is not None else {}
    # The snapshots of each tail left: its start and its end; and the steps to keep.
    marks = {h: (max(1, h // 2), h) for h in tails if h not in settled}
    wanted = sorted({n for ns in marks.values() for n in ns} | {n for N in keep for n in (max(1, N // 2), N)})
    wants = functools.partial(_wants, wanted, marks, head) if decided else None
    last = 0  # the last step read; a stream stops where it diverges
    end = max(marks, default=anyway) if decided else horizon
    leading = np.empty((head, *X.shape)) if head and end else None  # A_1..A_B, as the walk forms them
    for chunk in stream.chunks(end, wants) if end else ():
        first, count = chunk.first, len(chunk.powers)
        last = first + count - 1
        if leading is not None and first <= head:
            rows = chunk.means[: head - first + 1]
            leading[first - 1 : first - 1 + len(rows)] = rows
        if not decided:  # a decided pass reads no norms
            norms = readers.step(chunk.means)
            tops = np.maximum.reduce(norms, axis=-1)
            means.append(tops)
            if mean_hit is None and (i := _first_above(tops, bound_cap)) is not None:
                exact = readers.induced(chunk.means[i], spec.norm_tag) if mode == "dense" else None
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
        for n in wanted[bisect_left(wanted, first) : bisect_left(wanted, first + count)]:
            snapshots[n] = chunk.means[n - first].copy()
        s = horizon + 1 if stream.anchor is None else stream.anchor[2]
        for h in marks if first < s else ():
            scan = scans[h]
            lo, hi = max(first, max(1, h // 2)), min(first + count, min(h, stop) + 1)
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
        if last >= stop or decided and stream.anchor is not None:
            break  # a decided pass stops after the chunk that reaches its anchor
    unread = [n for n in wanted if n > last] if decided and stream.anchor is not None else []
    if unread:  # a decided pass stopped at its anchor: every later step is stationary
        snapshots.update(zip(unread, stream.closed_form(unread)))
    for N in keep:
        if max(1, N // 2) in snapshots and N in snapshots:
            kept[N] = ((snapshots[max(1, N // 2)], snapshots[N]), reads)
    if head:
        filled = last
        if leading is not None and last < head and stream.anchor is not None:
            filled = head  # the walk stopped at its anchor: the rest is the closed form
            stream.closed_form(range(last + 1, head + 1), out=leading[last:])
        kept["head"] = leading[: min(head, filled)] if filled >= head or stream.diverged_at is not None else None
    means = np.concatenate(means) if means else None
    powers = np.concatenate(powers) if powers else None
    for h, scan in scans.items():
        scan.walked = min(h, stop, last) if not decided or h in marks else 0
        scan.steps = h if decided else scan.walked
        scan.diverged_at = stream.diverged_at if stream.diverged_at == scan.steps else None
        scan.snapshots = {n: snapshots[n] for n in marks.get(h, ()) if n in snapshots and n <= scan.steps}
        scan.tail_bracket = settled.get(h)
        if decided:
            scan.bracket = reads.bracket
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
    and 0 at N; a packed pass read by an exact SVD brackets it on the dense
    blocks, whose other entries the allowance fills).  When the bracket
    straddles the decision (a NaN does too),
    the radius is folded exactly and is both bounds: one fresh stream walks
    the block again from n = 1 to N (the scan's own stream keeps the anchor
    its other horizons read), forming means only from t on and reducing no
    power norm, which is safe since the scan reached N without overflow;
    past its anchor it yields the closed form.  Each stack is reduced into
    one reused buffer, so the scan is left as it was.
    """
    N, stream, norm = scan.horizon, scan.stream, norms.radius
    t, final = max(1, N // 2), scan.snapshots[N]
    s = N + 1 if stream.anchor is None else stream.anchor[2]
    lower = upper = norm((scan.snapshots[t] - final)[None])[0]
    if t < s:
        envelope = np.maximum(np.abs(scan.low - final), np.abs(scan.high - final))
        upper = np.maximum(upper, norm(envelope[None])[0] * (1.0 + norms.slack))
    if s <= N:  # the stationary part [max(t, s), N]
        phase = (stream.closed_form([max(t, s)])[0], final, stream.anchor[1])
        if stream.packed and norms.slack:  # an SVD reads the dense envelope, which the allowance fills
            phase = [np.diagflat(v) for v in phase]
        ends = _phase_bracket(norm, *phase, norms.slack)
        lower, upper = np.maximum(lower, ends[0]), np.maximum(upper, ends[1])
    if _settles((lower, upper), tolerance):
        return lower, upper
    radius, buf = 0.0, np.empty((0, *final.shape))
    for chunk in CesaroStream(stream.spec, stream.X, stream.packed).chunks(N, reads=lambda lo, hi: hi > t):
        # A chunk cut at a stationary power can end before t, with its means formed.
        if chunk.first + len(chunk.powers) > t:
            means = chunk.means[max(0, t - chunk.first) :]
            if len(buf) < len(means):
                buf = np.empty_like(means)
            diffs = np.subtract(means, final, out=buf[: len(means)])
            radius = np.maximum(radius, np.maximum.reduce(norm(diffs), axis=0))
    return radius, radius


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


def check_power_bounded(spec: OperatorSpec, probes: ProbeSet, horizon: int, bound_cap: float = 1e3) -> Verdict:
    """Scan ||T^m x|| for all probes and m = 0..horizon."""
    _check_inputs(spec, probes, horizon=horizon, bound_cap=bound_cap)
    return _block_verdicts(spec, probes, "probe", [horizon], bound_cap)[FAMILY_POWER_BOUNDED][horizon]


def _auto_mode(spec: OperatorSpec, horizon: int) -> str:
    return "dense" if (spec.dim <= 32 and horizon <= 1024) else "probe"


def check_cesaro_bounded(
    spec: OperatorSpec, probes: ProbeSet, horizon: int, bound_cap: float = 1e3, mode: str = "auto"
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
        raise CapExceededError(f"dense Cesaro-bounded mode is capped at dim {DENSE_CAP} (got {spec.dim})")
    return _block_verdicts(spec, probes, mode, [horizon], bound_cap)[FAMILY_CESARO_BOUNDED][horizon]


# -- the Cauchy tail: ergodic and uniformly ergodic ----------------------


def _tail_verdict(family, scan, cb, tolerance, label, mode) -> Verdict:
    """The Cauchy test of the means over the tail [max(1, N//2), N].

    Fails only by inheriting a failing Cesaro-bounded verdict `cb` at the
    same horizon, read off the same pass; is inconclusive on a diverged
    scan; holds only when `cb` holds and the certified diameter 2 * radius
    is below the tolerance, and is inconclusive otherwise.  The radius is
    bracketed by `_plan` before the walk (`tail_bracket`) or off it
    (`_tail_radius`).  Uniform ergodicity off a ``probe`` scan (above
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
        "certified": scan.tail_bracket is not None and bool(np.all(np.isfinite(scan.tail_bracket[1]))),
    }

    def verdict(status, witness=None):
        return Verdict(family, status, scan.horizon, tolerance, None, witness, label, evidence)

    if cb.status == FAILS:
        return verdict(FAILS, {"inherited_from": FAMILY_CESARO_BOUNDED, **cb.witness})
    if scan.diverged_at is not None or family == FAMILY_UNIFORMLY_ERGODIC and mode == "probe":
        return verdict(INCONCLUSIVE)
    norms = _mode_norms(scan.stream.spec, mode)
    lower, upper = scan.tail_bracket or _tail_radius(scan, norms, tolerance)
    diam_ub = 2.0 * upper
    # A_N lies in the tail, so an exact radius is also a diameter lower bound.
    diam_lb = lower if norms.exact else np.zeros_like(lower)
    evidence["tail_diameter_ub"] = np.asarray(diam_ub).tolist()
    evidence["tail_diameter_lb"] = np.asarray(diam_lb).tolist()
    # Only a tail [max(1, N//2), N] of two indices or more certifies convergence.
    if cb.status == HOLDS and max(1, scan.horizon // 2) < scan.horizon and diam_ub.max() < tolerance:
        return verdict(HOLDS)
    return verdict(INCONCLUSIVE)


def check_ergodic(
    spec: OperatorSpec, probes: ProbeSet, horizon: int, tolerance: float, bound_cap: float = 1e3
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


def check_uniformly_ergodic(
    spec: OperatorSpec, horizon: int, tolerance: float, probes: ProbeSet | None = None, bound_cap: float = 1e3
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
        raise ValueError(f"dim {spec.dim} exceeds the dense cap {DENSE_CAP}; probes are required above it")
    _check_inputs(spec, probes, mode == "probe", horizon=horizon, tolerance=tolerance, bound_cap=bound_cap)
    verdicts = _block_verdicts(spec, probes, mode, (), bound_cap, tolerance, uniform=[horizon])
    return verdicts[FAMILY_UNIFORMLY_ERGODIC][horizon]


# -- every family from one pass ------------------------------------------


def _block_verdicts(
    spec, probes, mode, horizons, bound_cap, tolerance=None, ergodic=(), uniform=(), keep=(), kept=None, reads=None,
    head=0,
):
    """Every verdict of one `_scan` of a block, as {family: {horizon: Verdict}}.

    The pass walks the probe block (``probe``) or the identity block
    (``dense``, `_identity_block`) to the longest of `horizons`, `ergodic`
    and `uniform`, and gives the block's bounded verdicts at each
    (power-bounded off probes only), and ergodicity at each of `ergodic` and
    uniform ergodicity at each of `uniform` (`_tail_verdict`).  A probe pass
    adds the means of `keep` to `kept`, for an identity pass given it to
    floor its tails, and its first `head` means (`_scan`).
    """
    probe = mode == "probe"
    X, label = (probes.vectors.T, probes.label) if probe else (_identity_block(spec), None)
    tails, served = (ergodic if probe else uniform), {*horizons, *ergodic, *uniform}
    scans = _scan(spec, X, mode, served, bound_cap, tails, tolerance, keep, kept, reads, head)
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
    spec: OperatorSpec, probes: ProbeSet, horizon: int, tolerance: float, bound_cap: float, ue_horizon: int
) -> FamilyVerdicts:
    """Every family verdict of an analysis report.

    One pass per block: the probe block gives power-bounded, Cesaro-bounded
    (probe mode) and ergodic, with any tail re-walk of `_tail_radius`; the
    identity block gives Cesaro-bounded in dense mode, when ``auto`` picks
    it, and uniform ergodicity at the trusted horizon, and at `ue_horizon`
    too when that is longer (off the probe block above `DENSE_CAP`).

    Each pass walks only for what its bracket and `_plan` leave.  The
    identity block's reads come first, and where its bracket decides, the
    probe pass keeps its means for the identity pass's floor.  The identity
    pass of a diagonal T walks one column (`_packed`).  Inside an analysis
    (`_leading_means`), the probe pass also hands on its first means.
    """
    _check_inputs(spec, probes, horizon=horizon, tolerance=tolerance, bound_cap=bound_cap, ue_horizon=ue_horizon)
    head, leading = _LEADING.get()
    trusted = trusted_horizon(spec, ue_horizon)
    ues, wide = {trusted, ue_horizon}, spec.dim > DENSE_CAP
    dense = _auto_mode(spec, horizon) == "dense"
    identity = None if wide else _reads(spec, _identity_block(spec), "dense", max(*ues, horizon if dense else 0))
    keep = ues if identity is not None and _decides(identity.bracket, bound_cap) else ()
    kept = {}  # of the probe pass's means, only those of `keep` and `head` outlive it
    probe = _block_verdicts(
        spec, probes, "probe", (), bound_cap, tolerance, [horizon], ues if wide else (), keep, kept, head=head
    )
    if leading is not None:
        leading["means"] = kept.pop("head", None)
    norm = probe if wide else _block_verdicts(
        spec, probes, "dense", [horizon] if dense else (), bound_cap, tolerance, (), ues, kept=kept, reads=identity
    )
    ue = norm[FAMILY_UNIFORMLY_ERGODIC]
    return FamilyVerdicts(
        probe[FAMILY_POWER_BOUNDED][horizon],
        (norm if dense else probe)[FAMILY_CESARO_BOUNDED][horizon],
        probe[FAMILY_ERGODIC][horizon],
        ue[trusted],
        ue[ue_horizon] if trusted < ue_horizon else None,
    )


#: The count B of leading probe means that a `check_families` inside an
#: open analysis writes for its margin tensor, and the dict they go to.
_LEADING = contextvars.ContextVar("leading", default=(0, None))


@contextlib.contextmanager
def _leading_means(count: int):
    """Open an analysis: each `check_families` inside it sets "means" in the
    dict this yields to A_1..A_r of its probe block, r = `count` or the
    overflow stop before it, as the one stack its probe pass wrote where it
    reached step r (`_scan`'s `head`), else to None.  No verdict reads them:
    an analysis hands them to its margin tensor (`certify._rank`)."""
    out = {"means": None}
    token = _LEADING.set((count, out))
    try:
        yield out
    finally:
        _LEADING.reset(token)


# -- witness replay ------------------------------------------------------


def replay_witness(spec: OperatorSpec, verdict: Verdict, probes: ProbeSet | None = None) -> tuple[float, bool]:
    """Re-run the pass that wrote a ``fails`` witness and read it again.

    Returns the reproduced value and whether it is still above the
    verdict's cap.  The replay walks the block the pass walked, the identity
    (`_identity_block`) for a ``dense`` witness and the whole probe block
    for any other, and reads it as the pass did (the induced norm of a dense
    mean, the probe column's norm otherwise), so given the verdict's own probe set a
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
    stream = CesaroStream(spec, _identity_block(spec) if dense else probes.vectors.T, _packed(spec, mode))
    for chunk in stream.chunks(max(1, step)):
        pass
    if chunk.first + len(chunk.means) <= step:
        raise ValueError("the means stop before the witness step: the powers overflow")
    if dense:
        value = float(_mode_norms(spec, mode).induced(chunk.means[-1], spec.norm_tag))
    else:
        # Power 0 is X = A_1, which the pass reads off the means.
        norms = chunk.power_norms[-1] if w.get("power") else column_norms(chunk.means[-1], spec.norm_tag)
        value = float(norms[w["probe"]])
    return value, value > w["cap"]

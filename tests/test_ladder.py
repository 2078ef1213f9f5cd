"""The doubling ladder of Cesaro means (`CesaroStream.ladder`), its rounding
allowance (`classify._deviation` at the ladder's depth), and the probe tails that a decided
pass floors from its means before it walks (`classify._tail_floor`).

A floored probe tail gives the verdict a walk gives: the ladder's means
prove a lower end on its radius that reaches half the tolerance, so it is
inconclusive.  These tests hold the ladder's means against exact `Fraction`
arithmetic, the floor against a walk of the probe block and against the
worst walk its allowance admits, and check that a ladder past the overflow
limit gives no floor.
"""

import contextlib
import math
import warnings
from fractions import Fraction

import numpy as np
from hypothesis import event, given, settings, strategies as st

from ergorank.cesaro import CesaroStream
from ergorank.classify import (
    INCONCLUSIVE,
    check_ergodic,
    check_families,
    _level_depth,
    _mode_norms,
    _reads,
    _scan,
    _tail_floor,
    _tail_radius,
)
from ergorank.operators import (
    KIND_DENSE, KIND_DIAGONAL, KIND_SHIFT, KIND_SPARSE, OperatorSpec, basis_probes, default_probes, gallery,
)
from reference import as_exact, exact_stream, few_default_probes
from test_classify import (
    HUGE_DIAGONAL, _bounded_specs, _jordan_specs, _no_certificate, _no_ladder, _serialized, _spying,
)
from test_resolvent import _exact_norms, _exact_specs, _within


def _allowance(spec, X, horizon):
    """delta^L_N of the ladder of X: `_deviation` at the ladder's depth."""
    return _reads(spec, X, "probe", horizon).deviation(horizon, _level_depth(spec, horizon) + 2 * horizon.bit_length())[3]


@st.composite
def _near_one_diagonals(draw):
    """Diagonals of dim 1-4 with entries 1 - 2^-k, k in 10..45, either
    sign: their tail differences are so small next to the means that the
    ladder's rounding is a large part of them, yet a floor is positive."""
    dim = draw(st.integers(1, 4))
    entries = [draw(st.sampled_from([-1.0, 1.0])) * (1.0 - 2.0 ** -draw(st.integers(10, 45))) for _ in range(dim)]
    return OperatorSpec(KIND_DIAGONAL, dim, entries, draw(st.sampled_from(["l1", "l2", "linf"])))


_EXACT_SPECS = st.one_of(_exact_specs(), _jordan_specs().map(lambda j: j.spec), _near_one_diagonals())


@given(_EXACT_SPECS, st.sampled_from([1, 2, 3, 7, 33, 64]), st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_the_ladder_means_lie_within_their_allowance_exactly(spec, horizon, basis, tiny):
    # |fl(A_n x) - A_n x| <= delta^L_N at n = t and N, per probe, in
    # `Fraction`s: on the basis probes, scaled to subnormals when `tiny` so
    # that products underflow, or on a few default probes.
    X = basis_probes(spec.dim, spec.norm_tag).vectors.T if basis else few_default_probes(spec, 2).vectors.T
    X = X * (5e-324 if tiny else 1.0)
    allowance = _allowance(spec, X, horizon)
    means = CesaroStream(spec, X).ladder(horizon)
    event(f"ladder: {'none' if means is None else 'infinite allowance' if not np.all(np.isfinite(allowance)) else 'held'}")
    if means is None or not np.all(np.isfinite(allowance)):
        return
    exact = {n: A for n, A, *_ in exact_stream(spec, X, horizon)[0]}
    for n, A in zip((max(1, horizon // 2), horizon), means):
        D = as_exact(A) - exact[n]
        assert _within(_exact_norms(D, spec.norm_tag, "probe"), allowance, spec.norm_tag), n


def _worst_walk_holds(spec, X, N, floor):
    """Whether each probe's floor is at most the lower end that any walk
    whose means lie within their delta_N of the exact ones reads,
    (||(A_t - A_N) x|| - 2 delta_N)(1 - u) / (1 + eps) - tiny, with the
    exact norm in `Fraction`s (compared as squares for l2)."""
    norms, delta = _mode_norms(spec, "probe"), _reads(spec, X, "probe", N).deviation(N)[3]
    steps, diverged = exact_stream(spec, X, N)
    assert diverged is None
    D = steps[max(1, N // 2) - 1][1] - steps[-1][1]
    scale = (1 + Fraction(norms.eps)) / (1 - Fraction(2.0**-53))
    for value, f, d in zip(_exact_norms(D, spec.norm_tag, "probe"), np.ravel(floor), np.ravel(delta)):
        need = (Fraction(float(f)) + Fraction(norms.tiny)) * scale + 2 * Fraction(float(d))
        if f > 0.0 and value < (need * need if spec.norm_tag == "l2" else need):
            return False
    return True


@given(_EXACT_SPECS, st.sampled_from([2, 3, 7, 33, 64]), st.booleans())
@settings(max_examples=60, deadline=None)
def test_a_ladder_floor_is_under_every_walk_it_admits_exactly(spec, horizon, basis):
    # The floor of each probe from the ladder's means, less the walk's
    # delta_N, is at most the lower end of the worst walk within delta_N of
    # the exact means, in `Fraction`s, wherever it is positive.
    X = basis_probes(spec.dim, spec.norm_tag).vectors.T if basis else few_default_probes(spec, 2).vectors.T
    delta, allowance = _reads(spec, X, "probe", horizon).deviation(horizon)[3], _allowance(spec, X, horizon)
    means = CesaroStream(spec, X).ladder(horizon)
    if means is None or not np.all(np.isfinite(allowance)) or not np.all(np.isfinite(delta)):
        return
    floor = _tail_floor(spec, "probe", means, allowance, delta)
    event(f"floor: {'positive' if np.any(floor > 0.0) else 'zero'}")
    assert _worst_walk_holds(spec, X, horizon, floor)


@st.composite
def _stochastic_specs(draw):
    """Sparse column-stochastic specs of dim 4-64 in l1, 2-4 entries a row,
    like the benchmark's sparse-128-l1: their means converge slowly, so
    their tails read 2 * lower >= tol at the usual tolerances, where no
    upper end can settle them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(4, 64))
    per_row = rng.integers(2, 5, dim)
    rows = np.repeat(np.arange(dim), per_row)
    cols = np.concatenate([rng.choice(dim, size=k, replace=False) for k in per_row])
    vals = rng.uniform(0.1, 1.0, rows.size)
    vals /= np.bincount(cols, weights=vals, minlength=dim)[cols]
    return OperatorSpec(KIND_SPARSE, dim, [[int(r), int(c), float(v)] for r, c, v in zip(rows, cols, vals)], "l1")


@given(
    st.one_of(_stochastic_specs().map(lambda s: (s, False)), _bounded_specs(64).map(lambda s: (s, False)),
              _EXACT_SPECS.map(lambda s: (s, True))),
    st.sampled_from([(33, 16), (64, 32), (300, 64), (300, 256), (2000, 256)]),
    st.booleans(),
    st.one_of(st.sampled_from([1e-2, 1e-1]), st.tuples(st.integers(0, 7), st.sampled_from([-1, 0, 1]))),
)
@settings(max_examples=100, deadline=None)
def test_a_laddered_probe_tail_serializes_as_a_walk(case, horizons, basis, at):
    # A tolerance is 1e-2 or 0.1, or twice a proven floor, picked by `at`,
    # moved one ulp to either side or not at all, so a floor settles its
    # tail and fails to at its edge.  Every verdict serializes as with the
    # ladder off.  Every probe tail the ladder floors is inconclusive, its
    # walk reads a lower end at least the floor on every probe, and twice
    # that reaches the tolerance; for an exact spec (dim <= 4, N <= 64), so
    # does the lower end of the worst walk within its delta_N, in
    # `Fraction`s.
    (spec, exact), (horizon, ue) = case, horizons
    probes = basis_probes(spec.dim, spec.norm_tag) if basis else default_probes(spec)
    floors = {}
    if isinstance(at, tuple):
        with _spying(floors, "probe"):
            check_families(spec, probes, horizon, 5e-324, 1e3, ue)  # every positive floor settles
        doubled = sorted({2.0 * float(np.max(f)) for f in floors.values() if 0.0 < np.max(f) < np.inf})
        tol = doubled[at[0] % len(doubled)] if doubled else 1e-2
        if doubled:
            tol = float(np.nextafter(tol, {-1: -np.inf, 0: tol, 1: np.inf}[at[1]]))
        floors.clear()
    else:
        tol = at
    with _spying(floors, "probe"):
        got = check_families(spec, probes, horizon, tol, 1e3, ue)
    with _no_ladder():
        want = check_families(spec, probes, horizon, tol, 1e3, ue)
    assert _serialized(got) == _serialized(want)
    laddered = {N: f for N, f in floors.items() if 2.0 * np.max(f) >= tol}
    event(f"probe tail: {'laddered' if laddered else 'not laddered'}")
    X, norms = probes.vectors.T, _mode_norms(spec, "probe")
    for N, floor in laddered.items():
        scan = _scan(spec, X, "probe", [N], 1e3, [N])[N]
        lower = _tail_radius(scan, norms, 0.0)[0]
        assert np.all(floor <= lower) and 2.0 * np.max(lower) >= tol, (N, floor, lower, tol)
        assert got.ergodic.status == INCONCLUSIVE and got.ergodic.evidence["tail_diameter_ub"] == [math.inf] * len(probes)
        if exact and N <= 64:
            event("probe tail: laddered, held in Fractions")
            assert _worst_walk_holds(spec, X, N, floor), N


def test_a_ladder_past_the_overflow_limit_gives_no_floor():
    # Under warnings as errors: scalar(2.0) needs T^512 past the limit, and
    # diag(1e200, -1e200) at N = 3 a mean past the largest float, so their
    # ladders give no means; jordan_1(2), whose powers grow linearly, gives
    # finite ones.  Each allowance is infinite (the norm of |T| is above 1
    # over the horizon), so no pass forms a ladder, and the dim-1 specs
    # form theirs without a warning.  The family checks run on each.
    dim1 = [OperatorSpec(KIND_DENSE, 1, [[v]], tag) for v, tag in ((-1.0, "l2"), (0.5, "l1"), (1e200, "linf"))]
    dim1 += [OperatorSpec(KIND_SHIFT, 1, [], "l1"), OperatorSpec(KIND_SPARSE, 1, [[0, 0, -1.0]], "linf"),
             OperatorSpec(KIND_DIAGONAL, 1, [5e-324], "l2")]
    cases = [(gallery("scalar(2.0)"), 2000, None), (HUGE_DIAGONAL, 3, None), (HUGE_DIAGONAL, 2000, None),
             (gallery("jordan_1(2)"), 10_000, "finite")]
    cases += [(spec, N, "either") for spec in dim1 for N in (1, 2, 3, 2000)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec, N, means in cases:
            X = basis_probes(spec.dim, spec.norm_tag).vectors.T
            got = CesaroStream(spec, X).ladder(N)
            if means is None:
                assert got is None and not np.all(np.isfinite(_allowance(spec, X, N))), (spec, N)
            elif means == "finite":
                assert got is not None and all(np.isfinite(A).all() for A in got), (spec, N)
                assert not np.all(np.isfinite(_allowance(spec, X, N))), (spec, N)
            else:
                assert got is None or all(np.isfinite(A).all() for A in got), (spec, N)
            probes = default_probes(spec)
            check_ergodic(spec, probes, N, 1e-2)
            check_families(spec, probes, N, 1e-2, 1e3, min(N, 256))


def test_no_ladder_on_a_tail_past_a_shifts_anchor(monkeypatch):
    # A weighted shift is nilpotent, so its anchor is at most dim + 1 before
    # any walk, and a probe tail that starts past it is read from the closed
    # form: left_shift_l1(64)'s tail [5 000, 10 000] forms no ladder at the
    # default config, with the certificate on (which settles it, T^k = 0
    # past dim) or off (its pass walks to the anchor, 65).  The verdicts
    # serialize as with the ladder off.
    spec, calls = gallery("left_shift_l1(64)"), []
    real = CesaroStream.ladder
    monkeypatch.setattr(CesaroStream, "ladder", lambda self, horizon: calls.append(horizon) or real(self, horizon))
    probes = default_probes(spec)
    for patch in (contextlib.nullcontext, _no_certificate):
        with patch():
            got = check_families(spec, probes, 10_000, 1e-2, 1e3, 256)
            with _no_ladder():
                want = check_families(spec, probes, 10_000, 1e-2, 1e3, 256)
        assert calls == [] and _serialized(got) == _serialized(want), patch

import collections
import contextlib
import importlib.util
import re
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ergorank.cesaro
import ergorank.classify
from ergorank.classify import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    Verdict,
    check_cesaro_bounded,
    check_ergodic,
    check_families,
    check_power_bounded,
    check_uniformly_ergodic,
    replay_witness,
    trusted_horizon,
    _L2_EXACT_DIM,
    _int_bound,
    _mode_norms,
    _scan,
    _tail_radius,
)
from ergorank.certify import rank_estimate, search_nse
from ergorank.cesaro import CesaroStream
from ergorank.operators import (
    DENSE_CAP,
    KIND_DENSE,
    KIND_DIAGONAL,
    KIND_SHIFT,
    KIND_SPARSE,
    CapExceededError,
    OperatorSpec,
    ProbeSet,
    SpecValidationError,
    basis_probes,
    built_in_gallery,
    column_norms,
    default_probes,
    gallery,
    matrix_norm,
)
from reference import JORDAN_EIGENVALUES, jordan_spec, reference_stream, reference_tail_radius


#: Powers overflow at the first step: T x already has norm 1e200.
HUGE_DIAGONAL = OperatorSpec(KIND_DIAGONAL, 2, [1e200, -1e200], "linf")

#: Uniformly ergodic at tolerance 0.1 and UE horizon 64, yet its means at
#: n = 1, 2 and 4 are more than 0.4 apart: a slow window, not a failure.
SLOW_DENSE = OperatorSpec(KIND_DENSE, 2, np.array([[0.01182162, 0.4504637], [-0.35584039, 0.44864945]]), "l1")

#: Every entry of A_n = diag((1 - d^n) / (n (1 - d))) falls with n, so the
#: first tail mean is the farthest from A_N.
MONOTONE_DIAGONAL = OperatorSpec(KIND_DIAGONAL, 6, np.linspace(0.1, 0.9, 6), "l1")


def _probes(name):
    spec = gallery(name)
    return spec, default_probes(spec)


# -- power-bounded -------------------------------------------------------

def test_pb_holds_with_tight_bounds():
    for name, bound in [("identity(8)", 1), ("scalar(0.5)", 1), ("left_shift_l1(64)", 1), ("zero(4)", 1)]:
        spec, probes = _probes(name)
        v = check_power_bounded(spec, probes, 200)
        assert v.status == HOLDS and v.bound == bound, name
        assert v.witness is None


def test_pb_fails_doubling_scalar():
    spec, probes = _probes("scalar(2.0)")
    v = check_power_bounded(spec, probes, 60)
    assert v.status == FAILS
    # first power of 2 above 1000 is 2^10 = 1024
    assert v.witness["power"] == 10
    assert v.witness["value"] == pytest.approx(1024.0)
    val, still = replay_witness(spec, v, probes)
    assert still and val == v.witness["value"]


def test_pb_fails_through_overflow():
    # An overflow is a crossing like any other: under a cap of 2^465 the
    # first power above it is 2^466, which overflows and reads as the limit.
    # The means stay under the cap, so the pass walks to the overflow.
    spec, probes = _probes("scalar(2.0)")
    v = check_power_bounded(spec, probes, 5000, bound_cap=2.0**465)
    assert v.status == FAILS
    assert (v.witness["power"], v.witness["value"]) == (466, ergorank.cesaro.OVERFLOW_LIMIT)
    assert v.evidence["diverged"] and v.evidence["steps"] == 466
    assert replay_witness(spec, v, probes) == (v.witness["value"], True)


def test_pb_fails_without_growth():
    # Above the cap but flat: the family is read with constant <= cap on the
    # window, so the first power above the cap, X itself, fails it.  Both
    # witnesses are settled at step 1, so the pass stops there.
    spec, probes = _probes("identity(8)")
    v = check_power_bounded(spec, probes, 100, bound_cap=0.5)
    assert v.status == FAILS
    assert (v.witness["power"], v.witness["value"]) == (0, 1.0)
    assert (v.evidence["steps"], v.evidence["walked"]) == (1, 1)
    assert replay_witness(spec, v, probes) == (1.0, True)


def test_pb_jordan_witness_is_exact():
    spec, probes = _probes("jordan_1(2)")
    v = check_power_bounded(spec, probes, 10_000)
    assert v.status == FAILS
    # ||T^m e_2||_2 = sqrt(1 + m^2) first exceeds 1000 at m = 1000
    assert v.witness["power"] == 1000
    val, still = replay_witness(spec, v, probes)
    assert still and val == pytest.approx(np.sqrt(1 + 1000.0 ** 2), rel=1e-12)


# -- Cesaro-bounded ------------------------------------------------------

@pytest.mark.parametrize(
    "matrix, power, n",
    [([[0.9999, 1.0], [0.0, 0.9999]], 1119, 2334), ([[0.0, 1e6], [0.0, 0.0]], 1, 2)],
    ids=["slow jordan block", "nilpotent"],
)
def test_a_window_above_the_cap_fails_both_bounded_families(matrix, power, n):
    # At the default config.  The slow Jordan block has spectral radius
    # 0.9999, so its powers are bounded (sup ||T^m||_2 is near 3 679), but
    # not by the cap 1 000 on the window, and the probe pass that reads its
    # first mean above the cap (A_2334) reads a power above it first
    # (P_1119), both on probe 1.  The nilpotent block's one nonzero power,
    # P_1 = T, has norm 10^6.  Ergodicity inherits the Cesaro-bounded
    # witness, and so does uniform ergodicity where the dense pass fails it
    # too (the nilpotent block, from A_2).  Both blocks used to read
    # power-bounded inconclusive, the nilpotent one all four families.
    spec = OperatorSpec(KIND_DENSE, 2, np.array(matrix), "l2")
    probes = default_probes(spec)
    families = check_families(spec, probes, 10_000, 1e-2, 1e3, 256)
    pb, cb, erg, ue, _ = families
    assert (pb.status, pb.witness["probe"], pb.witness["power"]) == (FAILS, 1, power)
    assert (cb.status, cb.witness["mode"], cb.witness["probe"], cb.witness["n"]) == (FAILS, "probe", 1, n)
    assert (erg.status, erg.witness) == (FAILS, {"inherited_from": "cesaro_bounded", **cb.witness})
    if power == 1:
        assert pb.witness["value"] == 1e6
        assert (ue.status, ue.witness["inherited_from"], ue.witness["mode"]) == (FAILS, "cesaro_bounded", "dense")
    for v in families[:4]:
        if v.status == FAILS:
            recorded = v.witness["value"] if "value" in v.witness else min(v.witness["gaps"])
            assert replay_witness(spec, v, probes) == (recorded, True), v.family


def test_cb_modes_agree_on_jordan():
    spec, probes = _probes("jordan_1(2)")
    dense = check_cesaro_bounded(spec, probes, 10_000, mode="dense")
    probe = check_cesaro_bounded(spec, probes, 10_000, mode="probe")
    assert dense.status == FAILS and probe.status == FAILS
    for v in (dense, probe):
        val, still = replay_witness(spec, v, probes)
        assert still and val == v.witness["value"]


def test_cb_dense_l2_witness_above_the_exact_dim():
    # 1.1 times a cyclic shift: every mean has l2 norm sqrt(l1 * linf), so
    # the upper bound crossing the cap is confirmed by the lower bound.
    dim = _L2_EXACT_DIM + 8
    spec = OperatorSpec(KIND_DENSE, dim, 1.1 * np.roll(np.eye(dim), 1, axis=0), "l2")
    probes = default_probes(spec)
    v = check_cesaro_bounded(spec, probes, 400, mode="dense")
    assert v.status == FAILS and v.witness["mode"] == "dense"
    n = v.witness["n"]
    assert v.witness["value"] == matrix_norm(CesaroStream(spec, np.eye(dim)).means_at([n])[n], "l2")
    val, still = replay_witness(spec, v, probes)
    assert still and val == v.witness["value"]


def test_cb_auto_mode_selection():
    spec, probes = _probes("scalar(0.5)")
    v = check_cesaro_bounded(spec, probes, 100, mode="auto")
    assert v.evidence["mode"] == "dense"
    assert v.probe_label is None
    spec, probes = _probes("left_shift_l1(64)")
    v = check_cesaro_bounded(spec, probes, 2000, mode="auto")
    assert v.evidence["mode"] == "probe"
    assert v.probe_label == probes.label


def test_cb_bounds_are_small_integers():
    spec, probes = _probes("zero(4)")
    v = check_cesaro_bounded(spec, probes, 100)
    assert v.status == HOLDS and v.bound == 1
    spec, probes = _probes("scalar(-1.0)")
    v = check_cesaro_bounded(spec, probes, 100)
    assert v.status == HOLDS and v.bound == 1


def test_cb_bound_never_below_pb_range():
    # The means are averages of the powers, so a holds-bound for the powers
    # also bounds the means.
    for name in ["identity(8)", "scalar(0.5)", "left_shift_l1(64)", "rotation(1.0)"]:
        spec, probes = _probes(name)
        pb = check_power_bounded(spec, probes, 300)
        cb = check_cesaro_bounded(spec, probes, 300)
        assert pb.status == HOLDS and cb.status == HOLDS
        assert cb.bound <= pb.bound


@pytest.mark.parametrize("mode", ["probe", "dense"])
def test_cb_no_holds_from_a_stopped_scan(mode):
    # The scan stops after A_1; a bound over one step is no verdict.
    v = check_cesaro_bounded(HUGE_DIAGONAL, default_probes(HUGE_DIAGONAL), 100, mode=mode)
    assert v.status == INCONCLUSIVE and v.bound is None
    assert v.evidence["steps"] == 1 and v.evidence["diverged"]


def test_cb_mode_validation():
    spec, probes = _probes("identity(8)")
    with pytest.raises(ValueError, match="mode"):
        check_cesaro_bounded(spec, probes, 10, mode="psychic")


def test_cb_dense_mode_refuses_dims_above_the_cap():
    spec, probes = _probes(f"identity({DENSE_CAP + 1})")
    with pytest.raises(CapExceededError, match="capped"):
        check_cesaro_bounded(spec, probes, 10, mode="dense")


# -- ergodic -------------------------------------------------------------

def test_ergodic_holds_on_convergent_examples():
    for name in ["identity(8)", "zero(4)", "scalar(1.0)", "rotation(1.0)"]:
        spec, probes = _probes(name)
        v = check_ergodic(spec, probes, 2000, 1e-2)
        assert v.status == HOLDS, name
        assert max(v.evidence["tail_diameter_ub"]) < 1e-2
        assert max(v.evidence["tail_diameter_lb"]) <= max(v.evidence["tail_diameter_ub"]) + 1e-15


def test_ergodic_tolerance_sensitivity_scalar_half():
    # The geometric-decay scalar needs a horizon matched to the tolerance:
    # the tail diameter at N = 200 sits near 2/100, far above 1e-3.
    spec, probes = _probes("scalar(0.5)")
    assert check_ergodic(spec, probes, 200, 1e-3).status == INCONCLUSIVE
    assert check_ergodic(spec, probes, 200, 5e-2).status == HOLDS
    assert check_ergodic(spec, probes, 20_000, 1e-3).status == HOLDS


def test_ergodic_inherits_cb_failure():
    spec, probes = _probes("scalar(2.0)")
    v = check_ergodic(spec, probes, 2000, 1e-2)
    assert v.status == FAILS
    assert v.witness["inherited_from"] == "cesaro_bounded"
    val, still = replay_witness(spec, v, probes)
    assert still


def test_ergodic_without_a_failing_cb_gate_does_not_fail():
    # With a huge cap the boundedness gate holds, and ergodicity fails only
    # by inheriting it: the linear drift of jordan_1(2)'s means leaves a
    # wide tail, which is inconclusive.  Under a cap the means cross, the
    # Cesaro-bounded witness is inherited and replays.
    spec, probes = _probes("jordan_1(2)")
    v = check_ergodic(spec, probes, 2000, 1e-2, bound_cap=1e9)
    assert (v.status, v.evidence["cb_status"]) == (INCONCLUSIVE, HOLDS)
    assert max(v.evidence["tail_diameter_lb"]) > 1e-2
    v = check_ergodic(spec, probes, 2000, 1e-2, bound_cap=100.0)
    assert v.status == FAILS and v.witness["inherited_from"] == "cesaro_bounded"
    assert replay_witness(spec, v, probes) == (v.witness["value"], True)


def test_ergodic_no_false_fails_on_slow_convergence():
    # Probe-level means of the shift converge like 1/n; slow decay must
    # land in inconclusive or holds, never fails.
    spec, probes = _probes("left_shift_l1(64)")
    for N in (200, 2000):
        v = check_ergodic(spec, probes, N, 1e-3)
        assert v.status in (HOLDS, INCONCLUSIVE)


def test_ergodic_requires_positive_tolerance():
    spec, probes = _probes("identity(8)")
    with pytest.raises(ValueError):
        check_ergodic(spec, probes, 100, 0.0)


# -- uniformly ergodic ---------------------------------------------------

def test_ue_identity_holds_exactly():
    # The tail is stationary from s = 2, so its bracket carries the closed
    # form's allowance; folded exactly, the diameter is 0.
    spec = gallery("identity(8)")
    v = check_uniformly_ergodic(spec, 128, 1e-6)
    assert v.status == HOLDS
    with _walking():
        walked = check_uniformly_ergodic(spec, 128, 1e-6)
    assert walked.to_json_dict() == v.to_json_dict()
    assert walked.evidence["tail_diameter_ub"] == 0.0


def test_ue_scalar_half_matched_horizons():
    spec = gallery("scalar(0.5)")
    assert check_uniformly_ergodic(spec, 200, 5e-2).status == HOLDS
    assert check_uniformly_ergodic(spec, 200, 1e-3).status == INCONCLUSIVE
    assert check_uniformly_ergodic(spec, 20_000, 1e-3).status == HOLDS


def test_ue_jordan_fails_only_through_its_gate():
    # ||A_256|| of jordan_1(2) stays under the cap, so its wide tail is
    # inconclusive; under a lower cap the dense Cesaro-bounded witness is
    # inherited and replays.
    spec = gallery("jordan_1(2)")
    v = check_uniformly_ergodic(spec, 256, 1e-2)
    assert (v.status, v.evidence["cb_status"]) == (INCONCLUSIVE, HOLDS)
    assert v.evidence["tail_diameter_lb"] > 1e-2
    v = check_uniformly_ergodic(spec, 256, 1e-2, bound_cap=64.0)
    assert v.status == FAILS and v.witness["inherited_from"] == "cesaro_bounded"
    assert v.witness["mode"] == "dense"
    assert replay_witness(spec, v) == (v.witness["value"], True)


def test_ue_scalar_two_fails_by_gate():
    spec = gallery("scalar(2.0)")
    v = check_uniformly_ergodic(spec, 256, 1e-2)
    assert v.status == FAILS
    assert v.witness["inherited_from"] == "cesaro_bounded"
    val, still = replay_witness(spec, v)
    assert still


def test_ue_above_the_dense_cap_only_inherits():
    # Above the dense cap only probe means are available, which bound no
    # ||A_n - A_N|| from above: holds is unreachable, and the only fails is
    # the probe-mode Cesaro-bounded one at the same horizon, since a probe
    # mean above the cap puts ||A_n|| above it.  Late basis vectors keep the
    # shift's consecutive means a constant distance apart, yet its means
    # stay bounded, so it is inconclusive.  jordan_1(600)'s probe 7 has
    # ||A_16 x|| = 1 223.7, above the cap.
    spec = gallery("left_shift_l1(600)")
    probes = basis_probes(600, "l1", count=256)
    v = check_uniformly_ergodic(spec, 128, 1e-2, probes=probes)
    assert (v.status, v.evidence["mode"], v.evidence["cb_status"]) == (INCONCLUSIVE, "probe", HOLDS)
    assert v.evidence["tail_diameter_ub"] is None
    spec, probes = _probes("jordan_1(600)")
    for horizon in (64, 256):
        v = check_uniformly_ergodic(spec, horizon, 1e-2, probes=probes)
        assert v.status == FAILS and v.witness["inherited_from"] == "cesaro_bounded"
        assert (v.witness["mode"], v.witness["probe"], v.witness["n"]) == ("probe", 7, 16)
        assert v.witness["value"] == pytest.approx(1223.7, abs=0.05)
        assert replay_witness(spec, v, probes) == (v.witness["value"], True)
    with pytest.raises(ValueError, match="probes"):
        check_uniformly_ergodic(gallery("identity(513)"), 64, 1e-2)


def _brute_tail_diameter(spec, X, horizon, norm):
    """Largest norm(A_i - A_j) over every pair of the tail [N/2, N]."""
    lo = max(1, horizon // 2)
    tail = list(CesaroStream(spec, X).means_at(range(lo, horizon + 1)).values())
    diam = 0.0
    for i, a in enumerate(tail):
        for b in tail[i + 1:]:
            diam = np.maximum(diam, norm(a - b))
    return np.atleast_1d(diam)


def test_tail_bracket_holds_against_brute_force():
    # [lb, ub] must contain the tail diameter over every pair, per probe
    # for ergodicity and in operator norm for uniform ergodicity.  The
    # dim-40 l2 radius is an upper bound only, so its lb stays 0.
    rng = np.random.default_rng(40)
    mat = rng.standard_normal((40, 40))
    wide_l2 = OperatorSpec(KIND_DENSE, 40, 0.9 * mat / np.linalg.norm(mat, 2), "l2")
    specs = [gallery(name) for name in built_in_gallery()] + [wide_l2]
    horizon, rel = 64, 1e-12
    checked = 0
    for spec in specs:
        probes = default_probes(spec)
        tag = spec.norm_tag
        runs = [
            (check_ergodic(spec, probes, horizon, 1e-2), probes.vectors.T,
             lambda X: column_norms(X, tag)),
            (check_uniformly_ergodic(spec, horizon, 1e-2), np.eye(spec.dim),
             lambda X: matrix_norm(X, tag)),
        ]
        for v, X, norm in runs:
            if v.evidence["tail_diameter_ub"] is None:
                continue
            checked += 1
            lb = np.atleast_1d(v.evidence["tail_diameter_lb"])
            ub = np.atleast_1d(v.evidence["tail_diameter_ub"])
            diam = _brute_tail_diameter(spec, X, horizon, norm)
            assert np.all(lb <= diam * (1 + rel)), (spec, v.family)
            assert np.all(diam <= ub * (1 + rel)), (spec, v.family)
    assert checked >= 16
    ue = check_uniformly_ergodic(wide_l2, horizon, 1e-2)
    assert ue.evidence["tail_diameter_ub"] > 0 and ue.evidence["tail_diameter_lb"] == 0.0


_SCALES = st.one_of(
    st.sampled_from([1e-3, 0.5, 1.0, 1e150]),
    st.floats(-3.0, 150.0).map(lambda e: 10.0 ** e),
)


@st.composite
def _small_specs(draw, max_dim=6):
    kind = draw(st.sampled_from(["dense", "diagonal", "shift", "rotation"]))
    dim = draw(st.integers(1, max_dim))
    tag = draw(st.sampled_from(["l1", "l2", "linf"]))
    scale = draw(_SCALES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "rotation":
        theta = rng.uniform(0, np.pi)
        c, s = np.cos(theta), np.sin(theta)
        return OperatorSpec(KIND_DENSE, 2, scale * np.array([[c, -s], [s, c]]), tag)
    if kind == "dense":
        return OperatorSpec(KIND_DENSE, dim, scale * rng.uniform(-1, 1, (dim, dim)), tag)
    if kind == "diagonal":
        return OperatorSpec(KIND_DIAGONAL, dim, scale * rng.uniform(-1, 1, dim), tag)
    return OperatorSpec(KIND_SHIFT, dim, scale * rng.uniform(-1, 1, dim - 1), tag)


@given(
    _small_specs(),
    st.sampled_from([1, 2, 7, 64, 400, 2000]),
    st.booleans(),
    st.sampled_from([1e-2, 0.1, 0.5]),
)
@settings(max_examples=200)
@example(SLOW_DENSE, 7, False, 0.1)
def test_family_hierarchy_holds(spec, horizon, basis, tolerance):
    # UE => ergodic => Cesaro-bounded, and power-bounded => Cesaro-bounded:
    # no verdict may contradict a stronger family that holds.  Loose
    # tolerances let UE hold on more than the identity at UE horizon 64.
    # Ergodicity and UE fail only by inheriting a Cesaro-bounded fails.
    probes = basis_probes(spec.dim, spec.norm_tag) if basis else default_probes(spec)
    pb, cb, erg, ue, _ = check_families(spec, probes, horizon, tolerance, 1e3, 64)
    for v in (erg, ue):
        if v.status == FAILS:
            assert v.witness["inherited_from"] == "cesaro_bounded", v.witness
    if ue.status == HOLDS:
        assert erg.status != FAILS
    if erg.status == HOLDS:
        assert cb.status == HOLDS
    if pb.status == HOLDS:
        assert cb.status != FAILS
    # A probe mean is an average of the probe's powers, which the same pass
    # reads (at horizon 2 000, Cesaro-boundedness is read off probes), so a
    # mean above the cap comes with a power above it.  Summing n
    # powers, dividing and reducing dim entries round a mean's norm by at
    # most (n + dim + 2) 2^-52 of the largest power norm, relatively; a
    # mean within that of the cap is a rounding tie, and only it may fail
    # alone.
    if cb.status == FAILS and cb.witness["mode"] == "probe":
        w = cb.witness
        tie = w["value"] <= w["cap"] * (1.0 + (w["n"] + spec.dim + 2) * 2.0**-52)
        assert pb.status == FAILS or tie, (cb.witness, pb.status)


@st.composite
def _jordan_specs(draw):
    """Jordan specs (`reference.jordan_spec`) of dim <= 4: eigenvalues on
    the unit circle as often as inside it, conjugated by U = L R, with L
    and R unit triangular and their other entries in [-2, 2]."""
    dim = draw(st.integers(1, 4))
    blocks, left = [], dim
    while left:
        size = draw(st.integers(1, left))
        lam = draw(st.one_of(st.sampled_from(JORDAN_EIGENVALUES[:2]), st.sampled_from(JORDAN_EIGENVALUES[2:])))
        blocks.append((lam, size))
        left -= size
    L, R = np.eye(dim, dtype=np.int64), np.eye(dim, dtype=np.int64)
    for i, j in zip(*np.tril_indices(dim, -1)):
        L[i, j], R[j, i] = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    return jordan_spec(blocks, L @ R, draw(st.sampled_from(["l1", "l2", "linf"])))


@given(_jordan_specs(), st.sampled_from([1, 2, 7, 64, 300, 2000]), st.sampled_from(["above", "powers", "means"]),
       st.integers(0, 3))
@settings(max_examples=120, deadline=None)
def test_bounded_verdicts_agree_with_the_jordan_oracle(js, horizon, side, shift):
    # The cap is 10-80x above a bound on every norm the window reads (for a
    # member, on every norm at all), or 10-80x below a norm that the
    # window's powers or means provably reach; horizons 1-300 read
    # Cesaro-boundedness in dense mode, 2 000 off probes.  A member never
    # fails under such a cap, a window that crosses the cap always fails,
    # with a witness that replays (and so never holds), and a window under
    # it holds.
    spec = js.spec
    probes = basis_probes(spec.dim, spec.norm_tag)
    upper, power_low, mean_low = js.window_bounds(horizon)
    top = js.window_bounds(max(horizon, 8))[0]  # >= upper, and for a member >= every norm
    cap = {"above": 10.0 * top, "powers": power_low / 10.0, "means": mean_low / 10.0}[side]
    cap *= 2.0 ** (shift if side == "above" else -shift)
    families = check_families(spec, probes, horizon, 1e-2, cap, min(64, horizon))
    bounded = ((families.power_bounded, js.power_bounded, power_low),
               (families.cesaro_bounded, js.cesaro_bounded, mean_low))
    for v, member, low in bounded:
        if member and cap >= 10.0 * top:
            assert v.status != FAILS, (js, v.witness)
        if 10.0 * cap <= low:
            assert v.status == FAILS, (js, v.family, v.status)
            assert replay_witness(spec, v, probes) == (v.witness["value"], True)
        if cap >= 10.0 * upper:
            assert v.status == HOLDS, (js, v.family, v.status)


def test_tail_verdicts_agree_with_the_jordan_oracle(capsys):
    # In finite dimension power-bounded = ergodic = uniformly ergodic, and
    # a window shows no divergence of the means that it does not show of
    # their norms.  So under a cap 10-80x above every norm of a member's
    # window neither tail family fails, and where the means provably reach
    # 10-80x the cap (at the horizon for ergodicity, at the UE horizon for
    # uniform ergodicity) each fails with the Cesaro-bounded witness, which
    # replays.  Any other fails is inherited too.  How many verdicts of
    # each family end in each status is printed, not gated.
    tally = collections.Counter()

    @given(_jordan_specs(), st.sampled_from([1, 2, 7, 64, 300, 2000]), st.sampled_from(["above", "means"]),
           st.integers(0, 3))
    @settings(max_examples=120, deadline=None)
    def check(js, horizon, side, shift):
        spec = js.spec
        probes = basis_probes(spec.dim, spec.norm_tag)
        upper, _, mean_low = js.window_bounds(horizon)
        ue_horizon = min(64, horizon)
        cap = 10.0 * upper * 2.0**shift if side == "above" else mean_low / 10.0 * 2.0**-shift
        families = check_families(spec, probes, horizon, 1e-2, cap, ue_horizon)
        tails = (families.ergodic, families.uniformly_ergodic)
        tally.update((v.family, v.status) for v in tails)
        for v in tails:
            if js.power_bounded and cap >= 10.0 * upper:
                assert v.status != FAILS, (js, v.family, v.witness)
            if v.status == FAILS:
                assert v.witness["inherited_from"] == "cesaro_bounded", (js, v.family, v.witness)
        for v, reach in ((families.ergodic, mean_low), (families.uniformly_ergodic, js.window_bounds(ue_horizon)[2])):
            if 10.0 * cap <= reach:
                assert v.status == FAILS and v.witness["inherited_from"] == "cesaro_bounded", (js, v.family, v.status)
                assert replay_witness(spec, v, probes) == (v.witness["value"], True)

    check()
    with capsys.disabled():
        for family in ("ergodic", "uniformly_ergodic"):
            counts = {status: tally[family, status] for status in (HOLDS, FAILS, INCONCLUSIVE)}
            print(f"\nJordan tail oracle, {family}: {counts}")


#: Operators whose means converge, or stay bounded, but move slowly on the
#: window, as (spec, horizon, tolerance).
_SLOW_MEANS = {
    "diag(0.99), l1": (OperatorSpec(KIND_DIAGONAL, 1, [0.99], "l1"), 64, 1e-2),
    "Jordan block at 0.999, l2": (OperatorSpec(KIND_DENSE, 2, np.array([[0.999, 1.0], [0.0, 0.999]]), "l2"), 2000, 1e-2),
    "left_shift_l1(600)": (gallery("left_shift_l1(600)"), 512, 1e-2),
    "dense 2x2, l1": (SLOW_DENSE, 7, 0.1),
}


@pytest.mark.parametrize("name", _SLOW_MEANS)
def test_slowly_moving_means_fail_no_tail_family(name):
    # Each is power bounded under the cap, so its window shows no failure:
    # ergodicity and uniform ergodicity hold or are inconclusive.
    spec, horizon, tolerance = _SLOW_MEANS[name]
    families = check_families(spec, default_probes(spec), horizon, tolerance, 1e3, 64)
    assert families.power_bounded.status == families.cesaro_bounded.status == HOLDS
    for v in (families.ergodic, families.uniformly_ergodic):
        assert v.status in (HOLDS, INCONCLUSIVE), (v.family, v.witness)


def _same(a, b):
    """Both None, or arrays of the same shape, dtype and bytes."""
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_same_scan(got, want, norms):
    """Every field of two `_Scan`s agrees bit for bit, and so do the tail
    radius bounds read off them (`norms` None: no tail)."""
    assert (got.horizon, got.steps, got.walked, got.diverged_at) == (
        want.horizon, want.steps, want.walked, want.diverged_at
    )
    for name in ("means", "powers", "low", "high"):
        assert _same(getattr(got, name), getattr(want, name)), name
    for name in ("mean_hit", "power_hit"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g is None) == (w is None), name
        if w is not None:
            assert g[0] == w[0] and all(_same(a, b) for a, b in zip(g[1:], w[1:])), name
    assert got.snapshots.keys() == want.snapshots.keys()
    assert all(_same(got.snapshots[n], A) for n, A in want.snapshots.items())
    if norms is not None and want.horizon in want.snapshots:
        for a, b in zip(_tail_radius(got, norms, 1e-2), _tail_radius(want, norms, 1e-2)):
            assert _same(a, b)


@st.composite
def _prefix_cases(draw):
    """(spec, mode, shorter, longer horizon): a small spec; a slowly growing
    diagonal, whose norms often cross a cap of 3 between the two horizons;
    or a diagonal whose powers overflow one step before, at, or one step
    after the shorter horizon."""
    mode = draw(st.sampled_from(["probe", "dense"]))
    case = draw(st.sampled_from(["small", "growing", "overflowing"]))
    short = draw(st.integers(1, 40))
    if case == "small":
        return draw(_small_specs()), mode, short, short + draw(st.integers(0, 40))
    dim = draw(st.integers(1, 4))
    if case == "growing":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        spec = OperatorSpec(KIND_DIAGONAL, dim, 10.0 ** rng.uniform(0.005, 0.1, dim), "l2")
        return spec, mode, short, short + draw(st.integers(1, 80))
    rate = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.integers(5, 70))
    entries = np.full(dim, 0.5)
    entries[draw(st.integers(0, dim - 1))] = rate
    spec = OperatorSpec(KIND_DIAGONAL, dim, entries, draw(st.sampled_from(["l1", "l2", "linf"])))
    stream = CesaroStream(spec, _block(spec, mode))
    for _ in stream.chunks(200):
        pass
    assert stream.diverged_at is not None
    short = max(1, stream.diverged_at + draw(st.sampled_from([-1, 0, 1])))
    return spec, mode, short, short + draw(st.integers(1, 20))


def _block(spec, mode):
    return np.eye(spec.dim) if mode == "dense" else default_probes(spec).vectors.T


@given(_prefix_cases(), st.sampled_from(["both", "short", "long"]))
@settings(max_examples=150)
def test_each_horizon_of_a_pass_leaves_the_scan_of_its_own_pass(case, tailed):
    # Whether a pass serves the tails of both horizons or of one, each
    # horizon gets the scan, tail envelope included, of a pass to it alone:
    # a horizon whose witnesses are settled ends where they are.
    spec, mode, short, long = case
    X = _block(spec, mode)
    norms = _mode_norms(spec, mode)
    tails = {"both": {short, long}, "short": {short}, "long": {long}}[tailed]
    for capacity in (1, 2, 3, None):
        with _chunk_capacity(capacity):
            both = _scan(spec, X, mode, {short, long}, 3.0, tails)
            alone = {h: _scan(spec, X, mode, [h], 3.0, {h} & tails)[h] for h in {short, long}}
        assert both.keys() == alone.keys()
        for h, want in alone.items():
            _assert_same_scan(both[h], want, norms if h in tails else None)


def _chunk_capacity(k):
    """Streams started inside hold k steps per chunk (None: the default)."""
    if k is None:
        return contextlib.nullcontext()
    return mock.patch.object(ergorank.cesaro, "_capacity", lambda block_bytes: k)


def _folded(scan, norms, tolerance):
    """The tail radius folded exactly: a NaN tolerance decides nothing."""
    return _tail_radius(scan, norms, np.nan)


def _no_bounds(spec, X, mode, horizon):
    """A bracket on the bounded verdicts that decides nothing: every pass
    reads the norms of every step."""
    return np.nan, np.inf


def _walking():
    """Checks inside read every step's norms, walk every stationary phase
    through the closed form and fold every tail radius exactly: a forced
    walk."""
    return mock.patch.multiple(ergorank.classify, _bounded_bracket=_no_bounds, _tail_radius=_folded)


def _assert_tail_capacities_agree(spec, horizon, tolerance=1e-2):
    """Ergodic and uniformly ergodic verdicts with their evidence are bitwise
    equal at chunk capacities 1, 2 and the default, and serialize as a
    forced walk's.  Forced, the tail bracket is [r, 2r] (or [0, 2r]) for
    the radius r of the reference means, read one step at a time; decided,
    it holds that bracket.  Returns how many of the two verdicts read a
    radius."""
    probes = default_probes(spec)
    tag = spec.norm_tag
    # The dense l2 radius above the exact dim is an upper bound, and no lower bound.
    exact = tag != "l2" or spec.dim <= _L2_EXACT_DIM
    dense = lambda D: matrix_norm(D, tag)
    if not exact:
        dense = lambda D: np.sqrt(matrix_norm(D, "l1") * matrix_norm(D, "linf"))
    checks = [
        (lambda: check_ergodic(spec, probes, horizon, tolerance), probes.vectors.T,
         lambda D: column_norms(D, tag), True),
        (lambda: check_uniformly_ergodic(spec, horizon, tolerance), np.eye(spec.dim), dense, exact),
    ]
    read = 0
    for check, X, norm, exact in checks:
        want = None
        for capacity in (1, 2, None):
            with _chunk_capacity(capacity):
                v = check()
            got = (v.to_json_dict(), v.evidence, _bits(v.evidence["tail_diameter_ub"]),
                   _bits(v.evidence["tail_diameter_lb"]))
            assert want is None or got == want, capacity
            want = got
        with _walking():
            walked = check()
        assert walked.to_json_dict() == v.to_json_dict()
        ub, lb = walked.evidence["tail_diameter_ub"], walked.evidence["tail_diameter_lb"]
        radius = reference_tail_radius(spec, X, horizon, norm)
        if radius is None:
            assert ub is None and lb is None
        if ub is None:  # a diverged scan or a failing gate decided first
            continue
        assert _bits(ub) == _bits(np.asarray(2.0 * radius).tolist())
        assert _bits(lb) == _bits(np.asarray(radius if exact else np.zeros_like(radius)).tolist())
        assert np.all(np.asarray(v.evidence["tail_diameter_lb"]) <= lb)
        assert np.all(np.asarray(v.evidence["tail_diameter_ub"]) >= ub)
        read += 1
    return read


def _bits(value):
    return None if value is None else np.asarray(value, dtype=float).tobytes()


_DIM = _L2_EXACT_DIM + 8

#: (spec, horizon) for the tail edges: one- to three-step horizons, a scan
#: that diverges at once, an l2 radius that is only an upper bound, and
#: tails longer than one chunk.
_TAIL_CASES = {
    "horizon 1": (gallery("jordan_1(2)"), 1),
    "horizon 2": (gallery("rotation(1.0)"), 2),
    "horizon 3": (gallery("scalar(-1.0)"), 3),
    "huge diagonal": (HUGE_DIAGONAL, 10),
    "dense l2 above the exact dim": (
        OperatorSpec(KIND_DENSE, _DIM, np.diag(np.linspace(-0.9, 0.9, _DIM)) + 0.01 * np.eye(_DIM, k=1), "l2"),
        64,
    ),
    "identity": (gallery("identity(8)"), 300),
    # P_64 = 0, so the tail is null from s = 66: before it starts, or inside it.
    "left shift": (gallery("left_shift_l1(64)"), 200),
    "left shift, null inside the tail": (gallery("left_shift_l1(64)"), 100),
    "zero": (gallery("zero(4)"), 300),
    # Every entry of A_n - A_N falls with n, so the envelope is |A_t - A_N|.
    "monotone diagonal": (MONOTONE_DIAGONAL, 300),
    # The maximum lies past the first mean: A_150 = A_300 = 0 and A_151 = X / 151.
    "scalar -1, maximum past A_t": (gallery("scalar(-1.0)"), 300),
    "rotation": (gallery("rotation(1.0)"), 300),
}


@pytest.mark.parametrize("case", _TAIL_CASES.values(), ids=_TAIL_CASES.keys())
def test_tail_bits_agree_at_every_chunk_capacity(case):
    # The huge diagonal diverges at once; every other case reads both radii.
    spec, horizon = case
    reads = 0 if spec is HUGE_DIAGONAL else 2
    assert _assert_tail_capacities_agree(spec, horizon) == reads


@given(_small_specs(), st.sampled_from([1, 2, 3, 7, 40]))
@settings(max_examples=40)
def test_tail_bits_agree_at_every_chunk_capacity_generated(spec, horizon):
    _assert_tail_capacities_agree(spec, horizon)


@st.composite
def _moving_tails(draw):
    """(spec, horizon) whose tail does not turn stationary within the
    horizon: rotation blocks, diag(lambda) with |lambda| < 1 (0.99
    included), Jordan blocks at |lambda| < 1, and dense l2 at dim <= 4 (the
    exact SVD) or 33-36 (the sqrt(l1 * linf) reader)."""
    tag = draw(st.sampled_from(["l1", "l2", "linf"]))
    kind = draw(st.sampled_from(["rotation", "diagonal", "jordan", "dense l2"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    horizon = draw(st.sampled_from([8, 33, 100, 300, 1000]))
    if kind == "rotation":
        theta = rng.uniform(0.01, np.pi)
        c, s = np.cos(theta), np.sin(theta)
        return OperatorSpec(KIND_DENSE, 2, np.array([[c, -s], [s, c]]), tag), horizon
    if kind == "diagonal":
        entries = rng.choice([-1.0, 1.0], 4) * rng.uniform(0.5, 0.99, 4)
        entries[0] = draw(st.sampled_from([0.99, -0.99, 0.9, -0.5]))
        dim = draw(st.integers(1, 4))
        return OperatorSpec(KIND_DIAGONAL, dim, entries[:dim], tag), horizon
    if kind == "jordan":
        dim = draw(st.integers(2, 3))
        lam = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 0.95)
        return OperatorSpec(KIND_DENSE, dim, lam * np.eye(dim) + np.eye(dim, k=1), tag), horizon
    dim = draw(st.sampled_from([1, 2, 3, 4, 33, 34, 35, 36]))
    mat = rng.standard_normal((dim, dim))
    mat *= rng.uniform(0.7, 0.99) / np.max(np.abs(np.linalg.eigvals(mat)))
    return OperatorSpec(KIND_DENSE, dim, mat, "l2"), horizon


@given(_moving_tails(), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_tail_brackets_decide_as_a_forced_walk(case, basis, data):
    # Every tail bracket holds the radius folded exactly.  Tolerances are
    # drawn at both ends of the brackets (2 * lower and 2 * upper, one ulp
    # to either side) and at the folded diameters, so the tails are folded
    # as often as decided.  Every serialized verdict equals that of a forced
    # walk.
    spec, horizon = case
    probes = basis_probes(spec.dim, spec.norm_tag) if basis else default_probes(spec)
    ue_horizon = min(256, horizon)
    brackets = []

    def bracketing(scan, norms, tolerance):
        lower, upper = _tail_radius(scan, norms, 0.0)  # 2 * lower >= 0 decides
        radius = _tail_radius(scan, norms, np.nan)[0]
        assert np.all(lower <= radius) and np.all(radius <= upper)
        brackets.append((lower, upper))
        return _tail_radius(scan, norms, tolerance)

    with mock.patch.object(ergorank.classify, "_tail_radius", bracketing):
        check_families(spec, probes, horizon, 1e-2, 1e3, ue_horizon)
    with _walking():
        walked = check_families(spec, probes, horizon, 1e-2, 1e3, ue_horizon)
    tols = {2.0 * float(np.max(v)) for bracket in brackets for v in bracket}
    for v in (walked.ergodic, walked.uniformly_ergodic):
        if v.evidence["tail_diameter_ub"] is not None:
            tols.add(float(np.max(v.evidence["tail_diameter_ub"])))
    near = sorted(float(np.nextafter(x, d)) for x in tols for d in (-np.inf, x, np.inf))
    tol = data.draw(st.sampled_from([x for x in near if 0.0 < x < np.inf] or [1e-2]))
    got = check_families(spec, probes, horizon, tol, 1e3, ue_horizon)
    with _walking():
        want = check_families(spec, probes, horizon, tol, 1e3, ue_horizon)
    assert _serialized(got) == _serialized(want)


class _Walks:
    """Records every walk of a `CesaroStream` in a check (`chunks`, or a
    decided pass's walk that forms few means) as (re-walk, steps), summing
    chunk lengths: an `apply_columns` count would miss the steps of a stream
    whose power is stationary.  A re-walk is any walk of a block (the same X
    object) after its first."""

    def __init__(self, monkeypatch):
        self.walks = []
        self.blocks = []  # held, so that no block's id is reused
        real = CesaroStream._chunks

        def chunks(stream, horizon, reads):
            walk = [any(X is stream.X for X in self.blocks), 0]
            self.blocks.append(stream.X)
            self.walks.append(walk)
            for chunk in real(stream, horizon, reads):
                walk[1] += len(chunk.powers)
                yield chunk

        monkeypatch.setattr(CesaroStream, "_chunks", chunks)

    def rewalks(self):
        return sum(rewalk for rewalk, _ in self.walks)


#: Re-walks of the (ergodic, uniformly ergodic) tail at tolerance 1e-2: one
#: where the bracket straddles the tolerance, none where it decides.  The
#: tails of scalar(-1.0) start at A_150 = 0 = A_300, so their lower end is
#: 0 and their upper end 1/151; rotation(1.0)'s envelope mixes the means of
#: different steps.  A tail that is stationary from its start (zero(4) and
#: the identity from s = 2) is never walked again: its fold reads the
#: closed form.
_REWALK_CASES = {
    "zero": (0, 0),
    "monotone diagonal": (0, 0),
    "scalar -1, maximum past A_t": (1, 1),
    "rotation": (1, 1),
    "identity": (0, 0),
    "dense l2 above the exact dim": (0, 0),
}


@pytest.mark.parametrize("name", _REWALK_CASES)
def test_only_a_straddling_tail_is_walked_again(monkeypatch, name):
    spec, horizon = _TAIL_CASES[name]
    probes = default_probes(spec)
    checks = [
        (lambda: check_ergodic(spec, probes, horizon, 1e-2), "probe"),
        (lambda: check_uniformly_ergodic(spec, horizon, 1e-2), "dense"),
    ]
    walks = _Walks(monkeypatch)
    rewalks = []
    for check, mode in checks:
        walks.walks.clear()
        brackets = []

        def bracketing(scan, norms, tolerance):
            brackets.append(_tail_radius(scan, norms, 0.0))
            return _tail_radius(scan, norms, tolerance)

        with mock.patch.object(ergorank.classify, "_tail_radius", bracketing):
            assert check().evidence["tail_diameter_ub"] is not None
        (lower, upper), = brackets
        straddles = 2.0 * np.max(lower) < 1e-2 <= 2.0 * np.max(upper)
        rewalks.append(walks.rewalks())
        assert walks.rewalks() <= straddles, mode
    assert tuple(rewalks) == _REWALK_CASES[name]


def test_only_the_exact_svd_widens_its_upper_ends():
    # Dense l2 up to the exact dim reads exact SVDs, whose upper ends carry
    # a slack; every other reader is monotone in the entries and carries
    # none.  The exact-SVD tail tracks its envelope like any other.
    for dim in (2, _L2_EXACT_DIM):
        spec = OperatorSpec(KIND_DIAGONAL, dim, np.full(dim, 0.5), "l2")
        assert _mode_norms(spec, "dense").slack == 2.0**-40
        assert _mode_norms(spec, "probe").slack == 0.0
        scan = _scan(spec, np.eye(dim), "dense", [64], 1e3, [64])[64]
        tail = CesaroStream(spec, np.eye(dim)).means_at(range(32, 65)).values()
        assert _same(scan.low, np.minimum.reduce(list(tail)))
    wide = OperatorSpec(KIND_DIAGONAL, _L2_EXACT_DIM + 1, np.full(_L2_EXACT_DIM + 1, 0.5), "l2")
    assert _mode_norms(wide, "dense").slack == 0.0
    for tag in ("l1", "linf"):
        assert _mode_norms(OperatorSpec(KIND_DIAGONAL, 2, [0.5, 0.5], tag), "dense").slack == 0.0


def test_unknown_modes_are_refused():
    # A pass reads its norms in probe or dense mode, and a witness names one
    # of them; any other mode (probe-lb too) is refused, not read with dense
    # norms.  jordan_1(600) fails ergodicity at 512 by inheriting a probe
    # witness, jordan_1(2) uniform ergodicity under cap 64 a dense one, and
    # scalar(2.0) is not Cesaro bounded (a dense witness).
    wide, jordan, scalar = (gallery(n) for n in ("jordan_1(600)", "jordan_1(2)", "scalar(2.0)"))
    for mode in ("probe-lb", "bogus"):
        with pytest.raises(ValueError, match="unknown scan mode"):
            _mode_norms(wide, mode)
    cases = [
        (wide, lambda probes: check_ergodic(wide, probes, 512, 1e-2)),
        (jordan, lambda probes: check_uniformly_ergodic(jordan, 256, 1e-2, bound_cap=64.0)),
        (scalar, lambda probes: check_cesaro_bounded(scalar, probes, 256)),
    ]
    for spec, check in cases:
        probes = default_probes(spec)
        v = check(probes)
        assert v.status == FAILS and replay_witness(spec, v, probes)[1], spec
        witness = v.witness
        for mode in ("probe-lb", "bogus"):
            v.witness = {**witness, "mode": mode}
            with pytest.raises(ValueError, match="unrecognized witness shape"):
                replay_witness(spec, v, probes)


#: Entries that stress rounding: signed zeros, subnormals, the smallest
#: normal, values one ulp apart, and magnitudes whose differences overflow.
_SPECIAL_ENTRIES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, -1e-300, 1.0, -1.0,
    1.0 + 2.0**-52, 1.0 - 2.0**-53, 0.1, 3.0, -1e150, 1e300, -1.7976931348623157e308,
    1.7976931348623157e308,
]

_ENTRY = st.one_of(
    st.sampled_from(_SPECIAL_ENTRIES),
    st.floats(-4.0, 4.0),
    st.floats(allow_nan=False, allow_infinity=False),
)

#: (mode, tag) of every radius reader without a slack.
_MONOTONE_READERS = [
    ("probe", "l1"), ("probe", "l2"), ("probe", "linf"),
    ("dense", "l1"), ("dense", "linf"), ("dense", "l2"),
]


@given(
    st.sampled_from(_MONOTONE_READERS),
    st.integers(1, 6),
    st.integers(1, 5),
    st.integers(1, 4),
    st.lists(_ENTRY, min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=300)
def test_the_envelope_bounds_every_monotone_reader(reader, dim, p, count, pool, seed):
    # Drawing the entries from a small pool makes ties across the stack
    # likely.  The dense l2 reader is the sqrt(l1 * linf) bound, read above
    # the exact-SVD dim.
    mode, tag = reader
    if mode == "dense":
        dim = dim + _L2_EXACT_DIM if tag == "l2" else dim
        p = dim
    norms = _mode_norms(OperatorSpec(KIND_DIAGONAL, dim, np.zeros(dim), tag), mode)
    assert norms.slack == 0.0
    rng = np.random.default_rng(seed)
    stack = rng.choice(np.array(pool), (count, dim, p))
    final = rng.choice(np.array(pool), (dim, p))
    with np.errstate(over="ignore"):
        diffs = np.subtract(stack, final)
        envelope = np.maximum(
            np.abs(np.minimum.reduce(stack) - final), np.abs(np.maximum.reduce(stack) - final)
        )
        assert np.all(np.abs(diffs) <= envelope)
        ub = norms.radius(envelope[None])[0]
        read = norms.radius(diffs)
    assert not np.isnan(ub).any()
    assert np.all(read <= ub), (read, ub)


@given(
    st.integers(1, _L2_EXACT_DIM),
    st.integers(1, 4),
    st.sampled_from([1e-150, 1e-8, 1.0, 1e100]),
    st.sampled_from([0.0, 0.5, 0.9, 1.0]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200)
def test_the_envelope_bounds_the_exact_svd_within_its_slack(dim, count, scale, share, seed):
    # Differences whose magnitudes sit one ulp under the envelope in a share
    # of their entries, with random row signs: their true norms come within
    # rounding of the envelope's, and the SVD of each is under that of the
    # envelope, widened by the reader's slack.  Without the slack, some read
    # above it (about one in ten at a share of 0.5, by up to 8 ulps).
    norms = _mode_norms(OperatorSpec(KIND_DIAGONAL, dim, np.zeros(dim), "l2"), "dense")
    rng = np.random.default_rng(seed)
    envelope = scale * rng.uniform(0.0, 1.0, (dim, dim))
    diffs = envelope * rng.uniform(size=(count, dim, dim))
    near = rng.uniform(size=diffs.shape) < share
    diffs[near] = np.nextafter(np.broadcast_to(envelope, diffs.shape)[near], 0.0)
    diffs *= rng.choice([-1.0, 1.0], (count, dim, 1))
    assert np.all(np.abs(diffs) <= envelope)
    ub = norms.radius(envelope[None])[0] * (1.0 + norms.slack)
    assert np.all(norms.radius(diffs) <= ub)


def test_families_walk_each_block_once_on_wide_monotone_specs(monkeypatch):
    # Every tail below is bracketed off its envelope, so no block is walked
    # again.  The shift's trusted horizon, 128, is a prefix of its one
    # identity pass to 256.  The shift is nilpotent: its probe powers are
    # null from P_256 on, so its probe pass stops at step 257 and reads the
    # null tail [1000, 2000] off the closed form; its identity pass meets
    # T^256 = 0 only past 256.
    rng = np.random.default_rng(14)
    dim = 128
    per_row = rng.permutation([3, 4] * (dim // 2))
    rows = np.repeat(np.arange(dim), per_row)
    cols = np.concatenate([rng.choice(dim, size=k, replace=False) for k in per_row])
    vals = rng.uniform(0.1, 1.0, rows.size)
    vals /= np.bincount(cols, weights=vals, minlength=dim)[cols]
    stochastic = OperatorSpec(
        KIND_SPARSE, dim, [[int(r), int(c), float(v)] for r, c, v in zip(rows, cols, vals)], "l1"
    )
    diagonal = OperatorSpec(KIND_DIAGONAL, 256, rng.uniform(0.1, 0.9, 256), "l1")
    shift = OperatorSpec(KIND_SHIFT, 256, rng.uniform(0.5, 1.0, 255), "linf")
    horizon, ue_horizon = 2000, 256
    walks = _Walks(monkeypatch)
    for spec, probe_walk in ((stochastic, horizon), (diagonal, horizon), (shift, 257)):
        probes = default_probes(spec)
        walks.walks.clear()
        families = check_families(spec, probes, horizon, 1e-2, 1e3, ue_horizon)
        assert families.ergodic.evidence["tail_diameter_ub"] is not None
        assert walks.walks == [[False, probe_walk], [False, ue_horizon]], spec.kind


#: (horizon, ue_horizon) of `check_families` and the steps of its stream
#: walks: one probe pass, then one identity pass to the longest horizon it
#: serves, and no re-walk.
_FAMILY_WALKS = {
    # Dense Cesaro-bounded and uniformly ergodic, both at 256.
    "rotation(1.0)": ((256, 256), [256, 256]),
    # Dense Cesaro-bounded at 1 000; uniformly ergodic at 256 is its prefix.
    "jordan_1(2)": ((1000, 256), [1000, 1000]),
    # The default config: uniformly ergodic at the trusted 32 and at 256.
    # P_64 = 0 for both blocks, and T P_64 = P_64 at step 65 ends each walk.
    "left_shift_l1(64)": ((10_000, 256), [65, 65]),
}


@pytest.mark.parametrize("name", _FAMILY_WALKS)
def test_families_walk_the_identity_block_once(monkeypatch, name):
    (horizon, ue_horizon), want = _FAMILY_WALKS[name]
    spec, probes = _probes(name)
    walks = _Walks(monkeypatch)
    check_families(spec, probes, horizon, 1e-2, 1e3, ue_horizon)
    assert walks.walks == [[False, n] for n in want]


def _bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module




def test_no_analysis_of_the_benchmark_inputs_walks_a_block_again(monkeypatch):
    # At the default config identity(8) and scalar(1.0) walk [1, 1] and
    # zero(4) [2, 2]: every pass stops at its anchor (s = 2, or 3), the
    # exact-SVD identity passes included.  The one re-walk is scalar(-1.0)'s
    # dense tail [128, 256]: A_128 = A_256 = 0 and A_129 = I / 129, so its
    # bracket [0, 1/129] straddles the tolerance 1e-2, and its radius is
    # folded from a walk of 256 steps.  No wide-operators input (seeds 1
    # and 101, horizon 2 000) walks a block a second time.
    walks = _Walks(monkeypatch)
    stationary = {"identity(8)": [1, 1], "scalar(1.0)": [1, 1], "zero(4)": [2, 2]}
    for name in built_in_gallery():
        walks.walks.clear()
        check_families(*_probes(name), 10_000, 1e-2, 1e3, 256)
        if name in stationary:
            assert walks.walks == [[False, n] for n in stationary[name]], name
        assert walks.walks[2:] == ([[True, 256]] if name == "scalar(-1.0)" else []), name
    spec = gallery("scalar(-1.0)")
    scan = _scan(spec, np.eye(1), "dense", [256], 1e3, [256])[256]
    lower, upper = _tail_radius(scan, _mode_norms(spec, "dense"), 0.0)
    assert lower == 0.0 and upper == pytest.approx(1 / 129, rel=1e-12)
    for seed in (1, 101):
        for label, spec in _bench_workloads().wide_specs(seed).items():
            walks.walks.clear()
            check_families(spec, default_probes(spec, seed=seed), 2000, 1e-2, 1e3, 256)
            assert len(walks.walks) == 2 and walks.rewalks() == 0, (seed, label)


#: Steps of the one probe pass of `check_families` above `DENSE_CAP` at
#: horizon 2 000 and UE horizon 256: uniform ergodicity is read off that
#: pass, and no other walk runs.  left_shift_l1(600) is null from P_600 on
#: and stops after T P_600 = P_600; identity(600) is stationary from s = 2.
#: jordan_1(600)'s bounded witnesses are settled at A_16, long before its
#: powers overflow at step 468, and every verdict of the pass (uniform
#: ergodicity off probes too) fails or inherits there, so the pass stops.
_WIDE_FAMILY_WALKS = {"left_shift_l1(600)": 601, "identity(600)": 1, "jordan_1(600)": 16}


def test_families_walk_the_probe_block_once_above_the_dense_cap(monkeypatch):
    walks = _Walks(monkeypatch)
    for name, steps in _WIDE_FAMILY_WALKS.items():
        walks.walks.clear()
        ue = check_families(*_probes(name), 2000, 1e-2, 1e3, 256).uniformly_ergodic
        assert walks.walks == [[False, steps]], name
        assert (ue.horizon, ue.evidence["mode"]) == (256, "probe"), name


def _first_crossings(spec, X, horizon, cap):
    """The first power and the first mean above the cap, as (step, norms),
    of a walk of the probe block X to `horizon` that does not stop at
    them, and the last step that walk reads."""
    hits = {}
    for chunk in CesaroStream(spec, X).chunks(horizon):
        means = column_norms(chunk.means, spec.norm_tag)
        rows = [("power", chunk.first, chunk.power_norms), ("n", chunk.first, means)]
        if chunk.first == 1:  # T^0 X = A_1 X
            rows.insert(0, ("power", 0, means[:1]))
        for key, start, norms in rows:
            above = np.flatnonzero(norms.max(axis=1) > cap)
            if key not in hits and len(above):
                hits[key] = (start + int(above[0]), norms[above[0]])
        last = chunk.first + len(chunk.means) - 1
    return hits, last


def _chunk_end(spec, X, step, horizon):
    """The last step of the stream chunk that holds `step` in a walk to
    `horizon`."""
    return next(c.first + len(c.powers) - 1 for c in CesaroStream(spec, X).chunks(horizon)
                if c.first + len(c.powers) > step)


def test_a_pass_stops_where_its_witnesses_are_settled(monkeypatch):
    # overflow-diagonal-256-l2 (seed 101, horizon 2 000): the first power
    # above the cap is P_39 and the first mean A_50, so the probe pass stops
    # at 50 instead of walking to the overflow near 1 450.  The identity
    # pass's first mean above the cap, A_42, has an exact norm above it too,
    # so that pass stops at 42, not at the UE horizon 256.  Both blocks are
    # wide, two steps per chunk and one.  At the default config, scalar(2.0)
    # settles at 14 (P_10 = 1 024 and A_14 = 16 383/14, in both passes) and
    # jordan_1(2) at 2 001 (P_1000 and A_2001 on probe 1; its dense means
    # stay under the cap to 256): their scans end there, and each narrow
    # block stops at the end of the chunk that holds that step.  A walk of
    # the probe block that does not stop there finds the same first power
    # and first mean above the cap.
    overflow = _bench_workloads().wide_specs(101)["overflow-diagonal-256-l2"]
    scalar, jordan = gallery("scalar(2.0)"), gallery("jordan_1(2)")
    cases = [
        (overflow, default_probes(overflow, seed=101), 2000, 50, 42),
        (scalar, default_probes(scalar), 10_000, 14, 14),
        (jordan, default_probes(jordan), 10_000, 2001, 256),
    ]
    wants = [[50, 42]] + [
        [_chunk_end(spec, probes.vectors.T, probe_end, horizon), _chunk_end(spec, np.eye(spec.dim), identity_end, 256)]
        for spec, probes, horizon, probe_end, identity_end in cases[1:]
    ]
    walks = _Walks(monkeypatch)
    for (spec, probes, horizon, probe_end, identity_end), want in zip(cases, wants):
        walks.walks.clear()
        families = check_families(spec, probes, horizon, 1e-2, 1e3, 256)
        assert walks.walks == [[False, n] for n in want], spec
        for v in families[:3]:
            assert v.status == FAILS and v.evidence["steps"] == probe_end, (spec, v.family)
        assert families.power_bounded.evidence["walked"] == probe_end
        assert families.uniformly_ergodic.evidence["steps"] == identity_end
        hits, last = _first_crossings(spec, probes.vectors.T, horizon, 1e3)
        for v, key in ((families.power_bounded, "power"), (families.cesaro_bounded, "n")):
            step, norms = hits[key]
            probe = int(np.argmax(norms > 1e3))
            assert (v.witness[key], v.witness["probe"], v.witness["value"]) == (step, probe, norms[probe])
        assert max(hits["power"][0], hits["n"][0]) == probe_end < last


@pytest.mark.parametrize("mode", ["probe", "dense"])
def test_a_re_walked_tail_leaves_the_anchor_a_longer_tail_reads(monkeypatch, mode):
    # One pass to 6 and 64 of a nilpotent shift: P_8 = 0, so the stream is
    # stationary from s = 10, past the short tail [3, 6] and before the long
    # tail [32, 64].  Folded exactly (a NaN tolerance decides nothing), the
    # short tail is walked again and that walk ends before s; the long tail
    # is still read off the anchor of the pass, with no walk, whichever tail
    # is read first.
    spec = OperatorSpec(KIND_SHIFT, 8, np.ones(7), "l2")
    block = lambda: np.eye(8) if mode == "dense" else default_probes(spec).vectors.T
    norms = _mode_norms(spec, mode)
    radius = lambda scan: _tail_radius(scan, norms, np.nan)
    alone = {h: radius(_scan(spec, block(), mode, [h], 1e3, [h])[h]) for h in (6, 64)}
    walks = _Walks(monkeypatch)
    for order in ((6, 64), (64, 6)):
        scans = _scan(spec, block(), mode, [6, 64], 1e3, [6, 64])
        assert scans[64].stream.anchor[2] == 10
        for h in order:
            walks.walks.clear()
            assert all(_same(a, b) for a, b in zip(radius(scans[h]), alone[h])), (order, h)
            assert walks.walks == ([[True, 6]] if h == 6 else []), (order, h)


def test_the_identity_tail_is_bracketed_without_a_walk(monkeypatch):
    # The power of identity(8) is stationary from s = 2, so the probe pass
    # stops at step 1 and the whole tail is bracketed at its endpoints, with
    # no walk.  Forced, the pass walks the phase through the closed form
    # and folds the tail off it, and no block is walked again.
    spec, probes = _probes("identity(8)")
    X = probes.vectors.T
    horizon = 10_000
    radius = reference_tail_radius(spec, X, horizon, lambda D: column_norms(D, spec.norm_tag))
    walks = _Walks(monkeypatch)
    erg = check_families(spec, probes, horizon, 1e-2, 1e3, 256).ergodic
    assert walks.walks == [[False, 1], [False, 1]]
    assert np.all(np.asarray(erg.evidence["tail_diameter_lb"]) <= radius)
    assert np.all(np.asarray(erg.evidence["tail_diameter_ub"]) >= 2.0 * radius)
    walks.walks.clear()
    with _walking():
        walked = check_families(spec, probes, horizon, 1e-2, 1e3, 256).ergodic
    assert walks.walks == [[False, horizon], [False, 256]]
    assert walked.to_json_dict() == erg.to_json_dict()
    assert _bits(walked.evidence["tail_diameter_ub"]) == _bits(2.0 * radius)
    assert _bits(walked.evidence["tail_diameter_lb"]) == _bits(radius)


@pytest.mark.parametrize(
    "tolerance, read",
    [(1.0, None), (np.nan, None), (np.nan, 0), (np.nan, 1)],
    ids=["bracket", "fold", "0", "1"],
)
def test_the_tail_radius_reads_a_scan_without_changing_it(tolerance, read):
    # A second read of one scan gives the same bits, whether its bracket
    # decides (tolerance 1) or its radius is folded from a re-walk (a NaN
    # tolerance), and the envelope, snapshots and stream anchor stay as
    # they were.  rotation(1.0) has no stationary power: folded, both
    # bounds are the radius of the reference means; decided, they hold it.
    # With `read` set, one pass of left_shift_l1(64) (null from s = 66)
    # serves tails to 100 (t < s: a re-walk and the closed form) and 200
    # (t >= s: the closed form alone); folding the radius of
    # horizons[read] leaves the other horizon's radius as it was.
    name, horizons = ("rotation(1.0)", [300]) if read is None else ("left_shift_l1(64)", [100, 200])
    spec, probes = _probes(name)
    X = probes.vectors.T
    norms = _mode_norms(spec, "probe")
    scans = _scan(spec, X, "probe", horizons, 1e3, horizons)
    scan = scans[horizons[read or 0]]
    if read is not None:
        assert scan.stream.anchor is not None and scan.stream.anchor[2] == 66
    held = lambda: [
        v for s in scans.values() for v in (s.low, s.high, *s.snapshots.values(), *(s.stream.anchor or ()))
    ]
    before = [None if v is None else np.copy(v) for v in held()]
    others = {h: [_bits(v) for v in _tail_radius(s, norms, tolerance)] for h, s in scans.items() if s is not scan}
    lower, upper = _tail_radius(scan, norms, tolerance)
    assert [_bits(v) for v in _tail_radius(scan, norms, tolerance)] == [_bits(lower), _bits(upper)]
    assert all(_same(a, b) for a, b in zip(held(), before))
    for h, bits in others.items():
        assert [_bits(v) for v in _tail_radius(scans[h], norms, tolerance)] == bits, h
    radius = reference_tail_radius(spec, X, scan.horizon, norms.radius)
    if np.isnan(tolerance):
        assert _bits(lower) == _bits(upper) == _bits(radius)
    else:
        assert np.all(lower <= radius) and np.all(radius <= upper) and 2.0 * upper.max() < tolerance


def test_a_wide_tail_holds_its_envelope_and_no_prefix_of_means():
    # A tail scan holds two envelope blocks and a few snapshots, not a
    # prefix of its means.  Under tracemalloc, check_families on
    # sparse-128-l1 (seed 101, horizon 2 000) peaks at 2.8 MB; a 2 MB kept
    # prefix of its probe tail took it to 4.8 MB.
    spec = _bench_workloads().wide_specs(101)["sparse-128-l1"]
    probes = default_probes(spec, seed=101)
    tracemalloc.start()
    try:
        check_families(spec, probes, 2000, 1e-2, 1e3, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.8 * 2**20


# -- a null tail ----------------------------------------------------------

#: (spec, horizon, ue_horizon) of passes whose stationary power is null:
#: the left shift's powers from P_64 on (its null phase starts at s = 66,
#: before the tail [5 000, 10 000] or inside [50, 100]); zero(4)'s from P_1
#: on; and scalar(0.5)'s only near n = 1 076, although its l2 power norms
#: read 0 from about n = 538 (squares underflow).  The identity block of
#: zero(4) and of scalar(0.5) under l2 is read by the exact SVD, and its
#: pass stops at the anchor too.
_NULL_CASES = {
    "left shift, null before the tail": (gallery("left_shift_l1(64)"), 10_000, 256),
    "left shift, null inside the tail": (gallery("left_shift_l1(64)"), 100, 100),
    "zero": (gallery("zero(4)"), 10_000, 256),
    "scalar 0.5, l1": (OperatorSpec(KIND_DIAGONAL, 1, [0.5], "l1"), 2000, 2000),
    "scalar 0.5, l2": (gallery("scalar(0.5)"), 2000, 2000),
}


def _reference_pass(spec, X, mode, horizon):
    """Per-step mean-norm maxima (n = 1..N), their norms and A_n by n,
    power-norm maxima and norms (m = 0..N), and the anchor s of a null
    stationary power (or None), read off `reference_stream`."""
    steps, diverged = reference_stream(spec, X, horizon)
    assert diverged is None
    reader = _mode_norms(spec, mode).step
    mean_norms = [reader(A[None])[0] for _, A, _, _ in steps]
    power_norms = [mean_norms[0]] + [norms for *_, norms in steps]
    stationary = (n + 1 for (n, _, P, _), (_, _, Q, _) in zip(steps[1:], steps) if _same(P, Q))
    s = next(stationary, None)
    s = s if s is not None and not steps[s - 2][2].any() else None
    tops = lambda rows: np.array([np.max(row) for row in rows])
    return {
        "means": tops(mean_norms), "mean_norms": mean_norms, "A": {n: A for n, A, *_ in steps},
        "powers": tops(power_norms), "power_norms": power_norms, "s": s,
    }


def _first_hit(tops, cap):
    return int(np.argmax(tops > cap)) if np.max(tops) > cap else None


@pytest.mark.parametrize("name", _NULL_CASES)
def test_a_null_tail_reads_like_the_reference_stream(monkeypatch, name):
    # The cap of each full `_scan` below is the largest mean norm, which no
    # bracket decides before the walk, and which no mean crosses, so the
    # pass walks every step in every mode, through the closed form past s:
    # its maxima, steps, snapshots and bounds are those of every step.
    # Under half that cap the hits are those of the reference, and the pass
    # stops where they are settled.  The tail bracket holds the radius, and
    # folded exactly (a NaN tolerance) it is the radius; the fold's re-walk
    # of a tail that starts before s stops at s - 1, under the exact SVD
    # too.
    spec, horizon, ue_horizon = _NULL_CASES[name]
    probes = default_probes(spec)
    probes = ProbeSet(probes.vectors[[0, -2, -1]], spec.norm_tag, "oracle")
    blocks = [("probe", probes.vectors.T, horizon), ("dense", np.eye(spec.dim), ue_horizon)]
    skipped = 0
    walks = _Walks(monkeypatch)
    for mode, X, h in blocks:
        ref = _reference_pass(spec, X, mode, h)
        norms = _mode_norms(spec, mode)
        radius = reference_tail_radius(spec, X, h, norms.radius)
        skips = ref["s"] is not None and ref["s"] <= h
        skipped += skips
        cap = 0.5 * ref["means"].max()
        hit = _scan(spec, X, mode, [h], cap, [h])[h]
        n = _first_hit(ref["means"], cap)
        assert hit.mean_hit[0] == n + 1
        assert _same(hit.mean_hit[1], ref["mean_norms"][n])
        exact = matrix_norm(ref["A"][n + 1], spec.norm_tag) if mode == "dense" else None
        assert hit.mean_hit[2] == exact
        settled = n + 1
        if mode == "probe":
            m = _first_hit(ref["powers"], cap)
            assert hit.power_hit[0] == m and _same(hit.power_hit[1], ref["power_norms"][m])
            settled = max(settled, m)
        assert (hit.steps, hit.walked) == (settled, settled)
        for tolerance in (1e-2, np.nan):
            scan = _scan(spec, X, mode, [h], ref["means"].max(), [h])[h]
            assert (scan.steps, scan.diverged_at, scan.mean_hit) == (h, None, None)
            assert scan.walked == h
            assert _same(scan.means, ref["means"]), mode
            if mode == "probe":
                assert _same(scan.powers, ref["powers"])
            assert scan.snapshots.keys() == {h, h // 2}
            assert all(_same(A, ref["A"][n]) for n, A in scan.snapshots.items())
            walks.walks.clear()
            lower, upper = _tail_radius(scan, norms, tolerance)
            assert np.all(lower <= radius) and np.all(upper >= radius), (mode, tolerance)
            if np.isnan(tolerance):
                assert _same(lower, radius) and _same(upper, radius), mode
            # A re-walk stops before the anchor.
            end = ref["s"] - 1 if skips else h
            assert all(steps == end for _, steps in walks.walks)
    assert skipped == 2
    families = check_families(spec, probes, horizon, 1e-2, 1e3, ue_horizon)
    with _walking():
        walked = check_families(spec, probes, horizon, 1e-2, 1e3, ue_horizon)
    ref = _reference_pass(spec, probes.vectors.T, "probe", horizon)
    # Forced, each bounded verdict reads the reference maximum.  The norm of
    # |T| is at most 1, so the probe pass is decided before it walks: its
    # bracket holds that maximum and gives its bound.
    for got, want, values in zip(families[:2], walked[:2], (ref["powers"], ref["means"])):
        if want.evidence.get("mode", "probe") != "probe":
            continue
        top = values.max()
        assert (want.bound, want.evidence["max"], want.evidence["bracket"]) == (_int_bound(top), top, None)
        lower, upper = got.evidence["bracket"]
        assert lower <= top <= upper == got.evidence["max"]
        assert got.bound == _int_bound(lower) == _int_bound(top)
    erg = families.ergodic
    norm = lambda D: column_norms(D, spec.norm_tag)
    radius = reference_tail_radius(spec, probes.vectors.T, horizon, norm)
    assert np.all(np.asarray(erg.evidence["tail_diameter_ub"]) >= 2.0 * radius)
    assert _bits(erg.evidence["tail_diameter_lb"]) == _bits(radius)
    assert [v and v.to_json_dict() for v in walked] == [v and v.to_json_dict() for v in families]
    assert _bits(walked.ergodic.evidence["tail_diameter_ub"]) == _bits(2.0 * radius)
    ue, walked_ue = (f.section or f.uniformly_ergodic for f in (families, walked))
    if ue.evidence["tail_diameter_ub"] is not None:
        dense = _mode_norms(spec, "dense").radius
        radius = np.asarray(2.0 * reference_tail_radius(spec, np.eye(spec.dim), ue_horizon, dense))
        assert np.all(np.asarray(ue.evidence["tail_diameter_ub"]) >= radius)
        assert _bits(walked_ue.evidence["tail_diameter_ub"]) == _bits(radius.tolist())


def test_the_null_skip_reads_the_bits_of_the_power_not_its_norms():
    spec = gallery("scalar(0.5)")
    X = default_probes(spec).vectors.T
    steps, _ = reference_stream(spec, X, 2000)
    zero_norm = next(n for n, _, _, norms in steps if norms.max() == 0)
    null = next(n for n, _, P, _ in steps if not P.any())
    assert zero_norm < 600 < 1000 < null
    # T P_null = P_null at step null + 1 ends the walk.
    scan = _scan(spec, X, "probe", [2000], 1e3, [2000])[2000]
    assert (scan.walked, scan.stream.anchor[2]) == (null + 1, null + 2)


def test_a_pass_stops_at_its_anchor_in_every_mode(monkeypatch):
    # A nilpotent shift under l2: the probe pass stops after T P_8 = P_8 = 0,
    # and so does the dense pass at dim <= 32, whose exact SVDs bracket the
    # phase within their slack.  A stationary power that is not null stops
    # a pass too: identity(8) and scalar(1.0) keep P = X from s = 2, so
    # their probe and identity passes walk one step and decide every tail
    # from the phase's endpoints (their bounded verdicts are decided before
    # the walk, as the norm of |T| is 1).  sparse-256-linf of wide-operators
    # (seed 101) reaches its anchor at s = 908 of 2 000, and its probe pass
    # stops there.
    shift = OperatorSpec(KIND_SHIFT, 8, np.ones(7), "l2")
    assert _mode_norms(shift, "dense").slack > 0.0
    for mode in ("probe", "dense"):
        scan = _scan(shift, np.eye(8), mode, [300], 1e3, [300])[300]
        assert (scan.steps, scan.walked, scan.stream.anchor[2]) == (300, 9, 10), mode
    walks = _Walks(monkeypatch)
    sparse = _bench_workloads().wide_specs(101)["sparse-256-linf"]
    cases = [(*_probes("identity(8)"), 10_000), (*_probes("scalar(1.0)"), 10_000),
             (sparse, default_probes(sparse, seed=101), 2000)]
    for spec, probes, horizon in cases:
        walks.walks.clear()
        families = check_families(spec, probes, horizon, 1e-2, 1e3, 256)
        s = _scan(spec, probes.vectors.T, "probe", [horizon], 1e3)[horizon].stream.anchor[2]
        assert walks.walks[:2] == [[False, s - 1], [False, 1 if s == 2 else 256]], spec
        assert s == (908 if spec is sparse else 2)
        for v in families[:3]:
            assert (v.evidence["steps"], v.evidence["diverged"]) == (horizon, False)
        assert families.power_bounded.evidence["walked"] == s - 1
        with _walking():
            walked = check_families(spec, probes, horizon, 1e-2, 1e3, 256)
        assert [v and v.to_json_dict() for v in walked] == [v and v.to_json_dict() for v in families]


def test_a_cap_inside_the_bracket_walks_the_phase(monkeypatch):
    # identity(8)'s probe means read 1.0000000000000002 at most when walked,
    # and the bracket of the phase [2, 10 000] reaches higher.  A cap at that
    # maximum, or one ulp below it, lies inside the bracket, so the pass walks
    # the phase through the closed form and gives what a walk of every step
    # gives: Cesaro-bounded and ergodic hold (bound 1) under the first cap.
    # Under the second, the first mean above it, A_9 on probe 10, fails
    # Cesaro-boundedness and ergodicity inherits that.  No power is above
    # either cap (power-bounded holds; the mean is a rounding tie), so the
    # probe pass never has both witnesses and walks to its horizon, and the
    # identity pass's means stay under both caps.
    spec, probes = _probes("identity(8)")
    run = lambda cap: check_families(spec, probes, 10_000, 1e-2, cap, 256)
    with _walking():
        top = run(1e3).cesaro_bounded.evidence["max"]
    assert top == 1.0000000000000002 < run(1e3).cesaro_bounded.evidence["max"]
    walks = _Walks(monkeypatch)
    for cap, status, bound in ((top, HOLDS, 1), (np.nextafter(top, 0.0), FAILS, None)):
        walks.walks.clear()
        got = run(cap)
        assert walks.walks == [[False, 10_000], [False, 256]]
        assert (got.cesaro_bounded.status, got.cesaro_bounded.bound, got.ergodic.status) == (status, bound, status)
        assert got.power_bounded.status == HOLDS
        if status == FAILS:
            w = got.cesaro_bounded.witness
            assert (w["probe"], w["n"], w["value"]) == (10, 9, top)
            assert replay_witness(spec, got.cesaro_bounded, probes) == (top, True)
        with _walking():
            want = run(cap)
        assert [v.to_json_dict() for v in got[:4]] == [v.to_json_dict() for v in want[:4]]


#: Undecided passes that turn stationary bit for bit: the norm of |T| is
#: above 1, so no bracket decides them before the walk.  The 2x2 projection
#: has T^2 = T, and the strictly upper-triangular 8x8 matrix T^8 = 0.
_UNDECIDED_STATIONARY = {
    "idempotent 2x2": OperatorSpec(KIND_DENSE, 2, [[1.0, 1.0], [0.0, 0.0]], "l2"),
    "nilpotent 8x8": OperatorSpec(KIND_DENSE, 8, np.triu(np.full((8, 8), 0.5), 1), "l2"),
}


@pytest.mark.parametrize("name", _UNDECIDED_STATIONARY)
def test_an_undecided_stationary_pass_walks_to_its_horizon(monkeypatch, name):
    # Each block reaches its anchor long before its horizon, and walks on
    # through the closed form: the probe block to 10 000, the identity
    # block to 256.  Every verdict serializes as a forced walk's.
    spec = _UNDECIDED_STATIONARY[name]
    probes = default_probes(spec)
    for mode, X in (("probe", probes.vectors.T), ("dense", np.eye(spec.dim))):
        scan = _scan(spec, X, mode, [256], 1e3)[256]
        assert scan.bracket is None and scan.stream.anchor[2] <= 10, mode
        assert (scan.steps, scan.walked) == (256, 256), mode
    walks = _Walks(monkeypatch)
    families = check_families(spec, probes, 10_000, 1e-2, 1e3, 256)
    assert walks.walks[:2] == [[False, 10_000], [False, 256]]
    for v in families[:3]:
        assert (v.evidence["steps"], v.evidence["diverged"]) == (10_000, False)
    assert families.power_bounded.evidence["walked"] == 10_000
    with _walking():
        walked = check_families(spec, probes, 10_000, 1e-2, 1e3, 256)
    assert _serialized(families) == _serialized(walked)


@st.composite
def _stationary_specs(draw):
    """Specs whose powers turn stationary bit for bit within 10 000 steps:
    diagonals over {1, 0, 0.5, -0.5, 0.9} (0.9^n underflows near n = 7 100),
    shifts with a zero weight, dense identity blocks beside such a diagonal,
    and sparse specs whose last state absorbs mass that the others drain
    into it."""
    tag = draw(st.sampled_from(["l1", "l2", "linf"]))
    dim = draw(st.integers(1, 5))
    entries = draw(st.lists(st.sampled_from([1.0, 0.0, 0.5, -0.5, 0.9]), min_size=dim, max_size=dim))
    kind = draw(st.sampled_from(["diagonal", "shift", "identity block", "absorbing"]))
    if kind == "diagonal":
        return OperatorSpec(KIND_DIAGONAL, dim, entries, tag)
    if kind == "shift":
        weights = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=dim - 1, max_size=dim - 1))
        if weights:
            weights[draw(st.integers(0, dim - 2))] = 0.0
        return OperatorSpec(KIND_SHIFT, dim, weights, tag)
    if kind == "identity block":
        ones = draw(st.integers(1, dim))
        return OperatorSpec(KIND_DENSE, dim, np.diag([1.0] * ones + entries[ones:]), tag)
    last = dim - 1
    triplets = [[last, last, 1.0]]
    for i, e in enumerate(entries[:last]):
        triplets.append([i, i, e])
        if e != 1.0:  # a drain beside a unit entry would grow linearly
            triplets.append([last, i, draw(st.sampled_from([0.25, 0.5]))])
    return OperatorSpec(KIND_SPARSE, dim, triplets, tag)


def _serialized(families):
    return [v and v.to_json_dict() for v in families]


@given(_stationary_specs(), st.sampled_from([8, 9, 64, 700, 1100, 2048, 10_000]), st.booleans(), st.data())
@settings(max_examples=100, deadline=None)
def test_endpoint_decisions_equal_a_walk_of_every_step(spec, horizon, basis, data):
    # Caps and tolerances are drawn at the ends of the brackets (the upper
    # ends a decision reports, the walked values, one ulp to either side),
    # so the phases are walked as often as decided.  Every serialized
    # verdict equals that of a pass that walks every stationary phase.
    probes = basis_probes(spec.dim, spec.norm_tag) if basis else default_probes(spec)
    run = lambda cap, tol: check_families(spec, probes, horizon, tol, cap, min(256, horizon))
    read = run(1e3, 1e-2)
    with _walking():
        walked = run(1e3, 1e-2)
    caps, tols = {1e3}, {1e-2}
    for families in (read, walked):
        caps.add(families.cesaro_bounded.evidence["max"])
        for v in (families.ergodic, families.uniformly_ergodic):
            if v.evidence["tail_diameter_ub"] is not None:
                tols.update((np.max(v.evidence["tail_diameter_ub"]), 2.0 * np.max(v.evidence["tail_diameter_lb"])))
    near = lambda values: sorted(float(np.nextafter(x, d)) for x in values for d in (-np.inf, x, np.inf))
    cap = data.draw(st.sampled_from(near(caps)))
    tol = data.draw(st.sampled_from([x for x in near(tols) if 0.0 < x < np.inf]))
    got = run(cap, tol)
    with _walking():
        want = run(cap, tol)
    assert _serialized(got) == _serialized(want)


# -- bounded verdicts decided before a pass walks -------------------------

#: Magnitudes at 1 and a few ulps to either side of it.
_NEAR_ONE = [1.0, *(float(1.0 + k * 2.0**-52) for k in (1, 3)), *(float(1.0 - k * 2.0**-53) for k in (1, 3))]


@st.composite
def _bounded_specs(draw):
    """Specs of every kind at dim <= 6 whose norm of |T| falls on either
    side of 1: diagonal and shift weights in [0, 1] or a few ulps from 1,
    with random signs; signed sparse entries whose magnitudes are
    stochastic (columns summing to 1 under l1, rows otherwise), and dense
    matrices scaled alike, times 1/2, 3/2 or a magnitude near 1."""
    tag = draw(st.sampled_from(["l1", "l2", "linf"]))
    dim = draw(st.integers(1, 6))
    kind = draw(st.sampled_from([KIND_DIAGONAL, KIND_SHIFT, KIND_SPARSE, KIND_DENSE]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    near = st.sampled_from(_NEAR_ONE)
    if kind in (KIND_DIAGONAL, KIND_SHIFT):
        size = dim if kind == KIND_DIAGONAL else dim - 1
        weights = draw(st.lists(st.one_of(st.floats(0.0, 1.0), near), min_size=size, max_size=size))
        return OperatorSpec(kind, dim, rng.choice([-1.0, 1.0], size) * weights, tag)
    scale = draw(st.one_of(near, st.sampled_from([0.5, 1.5])))
    if kind == KIND_DENSE:
        mat = rng.uniform(-1.0, 1.0, (dim, dim))
        mat *= scale / np.max(np.abs(mat).sum(axis=0 if tag == "l1" else 1))
        return OperatorSpec(KIND_DENSE, dim, mat, tag)
    rows, cols = np.nonzero(rng.uniform(size=(dim, dim)) < 0.6)
    vals = rng.uniform(0.1, 1.0, rows.size) * rng.choice([-1.0, 1.0], rows.size)
    group = cols if tag == "l1" else rows
    vals *= scale / np.bincount(group, weights=np.abs(vals), minlength=dim)[group]
    return OperatorSpec(KIND_SPARSE, dim, [[int(r), int(c), float(v)] for r, c, v in zip(rows, cols, vals)], tag)


@given(
    _bounded_specs(),
    st.integers(1, 3000),
    st.booleans(),
    st.sampled_from(["lower", "below", "above", "default"]),
)
@settings(max_examples=60, deadline=None)
def test_a_decided_pass_agrees_with_a_forced_walk(spec, horizon, tiny, cap_at):
    # Tiny probes (every norm below 1e-9) put the lower end in bucket 0.
    # Caps at each block's lower end, and one ulp to either side of it,
    # leave the bracket undecided; the default cap lets it decide.  Every
    # verdict, and its steps and divergence, equal a forced walk's, and a
    # decided bracket holds the walked maximum of both bounded families.
    probes = default_probes(spec)
    if tiny:
        probes = ProbeSet(probes.vectors * 1e-10, spec.norm_tag, "tiny")
    ue = min(256, horizon)
    for mode, X, ergodic, uniform in (
        ("probe", probes.vectors.T, [horizon], ()),
        ("dense", np.eye(spec.dim), (), [horizon, ue]),
    ):
        lower = float(np.max(_mode_norms(spec, mode).step(X[None])))
        cap = {"lower": lower, "below": np.nextafter(lower, 0.0), "above": np.nextafter(lower, np.inf),
               "default": 1e3}[cap_at]
        run = lambda: ergorank.classify._block_verdicts(spec, probes, mode, [horizon], cap, 1e-2, ergodic, uniform)
        got = run()
        with _walking():
            want = run()
        for family, by_horizon in want.items():
            for h, w in by_horizon.items():
                g = got[family][h]
                assert g.to_json_dict() == w.to_json_dict(), (mode, family, h)
                assert (g.evidence["steps"], g.evidence["diverged"]) == (w.evidence["steps"], w.evidence["diverged"])
                if g.evidence.get("bracket") is not None:
                    low, high = g.evidence["bracket"]
                    assert low == lower and low <= w.evidence["max"] <= high, (mode, family, h)


def test_the_bracket_decides_the_benchmark_specs_at_norm_one(monkeypatch):
    # On the wide-operators inputs (seeds 1 and 101) whose norm of |T| is at
    # most 1 + 3e-14, both passes of check_families are decided before they
    # walk: at horizon 500 as at 2 000, each pass reads one norm, its lower
    # end, and no norm per step.  (The tails read a few norms more, and
    # their count moves with the horizon only where a tail starts before
    # or after the stream's anchor: the shift's at 500 starts before its
    # anchor at 258.)  The dense spec (norm of |T| 4.4-4.6 in l2) walks and
    # reads norms at every step: its probe pass reduces once per chunk of
    # steps, so more at 2 000 than at 500, and its identity pass to the UE
    # horizon 256 at least once per step.  So does the overflowing diagonal
    # (1.25), but only up to the step where its witnesses above the cap are
    # settled, well inside 500 steps: both of its passes read as many norms
    # at 500 as at 2 000, its identity pass for fewer than 256 steps.
    reads, passes = collections.Counter(), []

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            reads[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module in (ergorank.classify, ergorank.cesaro):
        counting(module, "column_norms")
    counting(ergorank.classify, "matrix_norm")
    real_scan = ergorank.classify._scan

    def scan(*args, **kwargs):
        before = sum(reads.values())
        scans = real_scan(*args, **kwargs)
        passes.append(sum(reads.values()) - before)
        return scans

    monkeypatch.setattr(ergorank.classify, "_scan", scan)
    decided = {"sparse-128-l1", "sparse-256-linf", "diagonal-256-l1", "shift-256-linf"}
    for seed in (1, 101):
        for label, spec in _bench_workloads().wide_specs(seed).items():
            probes = default_probes(spec, seed=seed)
            per_horizon = []
            for horizon in (500, 2000):
                passes.clear()
                families = check_families(spec, probes, horizon, 1e-2, 1e3, 256)
                per_horizon.append(list(passes))
                brackets = [v.evidence["bracket"] for v in families[:2]]
                if label in decided:
                    assert all(b is not None and b[1] < 1 + 1e-10 for b in brackets), (seed, label)
                else:
                    assert brackets == [None, None], (seed, label)
            if label in decided:
                assert per_horizon == [[1, 1], [1, 1]], (seed, label)
            else:
                (probe, identity), (longer, same) = per_horizon
                if label == "overflow-diagonal-256-l2":
                    assert probe == longer and identity == same < 256, (seed, label, per_horizon)
                else:
                    assert probe < longer and identity == same >= 256, (seed, label, per_horizon)

def test_trusted_horizon_shrinks_for_shift_only():
    shift = gallery("left_shift_l1(64)")
    assert trusted_horizon(shift, 256) == 32
    assert trusted_horizon(shift, 10) == 10
    assert trusted_horizon(gallery("identity(8)"), 256) == 256


def test_ue_shift_section_two_regimes():
    # Inside the trusted window the shift's tail [16, 32] is as wide as it
    # can be (||A_16 - A_32||_1 = 1), but its means are bounded, so that is
    # no fails; the doubling certificate separates the means to depth 5
    # instead.  The 64-dim section is nilpotent beyond its size, so at
    # horizon 256 its tail is narrower, but still too wide.
    spec = gallery("left_shift_l1(64)")
    trusted = check_uniformly_ergodic(spec, trusted_horizon(spec, 256), 1e-2)
    assert (trusted.status, trusted.evidence["tail_diameter_lb"]) == (INCONCLUSIVE, 1.0)
    assert search_nse(spec, default_probes(spec), 0.5, 5, 32).depth == 5
    section = check_uniformly_ergodic(spec, 256, 1e-2)
    assert section.status == INCONCLUSIVE
    assert 1e-2 < section.evidence["tail_diameter_lb"] < 1.0


def test_no_holds_from_a_vacuous_tail():
    shift = OperatorSpec(KIND_SHIFT, 1, [], "l1")
    assert trusted_horizon(shift, 256) == 1
    assert check_uniformly_ergodic(shift, 1, 1e-2).status == INCONCLUSIVE
    families = check_families(shift, default_probes(shift), 100, 1e-2, 1e3, 256)
    assert families.uniformly_ergodic.status == INCONCLUSIVE
    spec, probes = _probes("identity(8)")
    assert check_ergodic(spec, probes, 1, 1e-2).status == INCONCLUSIVE
    assert check_ergodic(spec, probes, 2, 1e-2).status == HOLDS


def test_overflowing_operators_check_without_runtime_warnings():
    # The second operator's powers pass 1e154 while its probe columns are
    # under the overflow limit, so squaring them for l2 norms overflows.
    l2_overflow = OperatorSpec(KIND_DIAGONAL, 3, [1e20, 0.5, -1e20], "l2")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for spec in (HUGE_DIAGONAL, l2_overflow):
            families = check_families(spec, default_probes(spec), 200, 1e-2, 1e3, 64)
            assert families.power_bounded.status == FAILS
            assert families.ergodic.status != HOLDS


# -- all families from one pass ------------------------------------------

def _assert_projections(spec, probes, horizon, tolerance, ue_horizon):
    """Every `check_families` verdict is its public check's: the same
    serialized form, and the same steps, walked steps and divergence."""
    families = check_families(spec, probes, horizon, tolerance, 1e3, ue_horizon)
    trusted = trusted_horizon(spec, ue_horizon)
    singles = [
        check_power_bounded(spec, probes, horizon),
        check_cesaro_bounded(spec, probes, horizon),
        check_ergodic(spec, probes, horizon, tolerance),
        check_uniformly_ergodic(spec, trusted, tolerance, probes=probes),
        check_uniformly_ergodic(spec, ue_horizon, tolerance, probes=probes) if trusted < ue_horizon else None,
    ]
    keys = ("steps", "walked", "diverged_at")
    for got, want in zip(families, singles, strict=True):
        assert (got is None) == (want is None)
        if want is not None:
            assert got.to_json_dict() == want.to_json_dict()
            assert [got.evidence.get(k) for k in keys] == [want.evidence.get(k) for k in keys]


def test_families_match_the_single_checks():
    for name in ["jordan_1(2)", "left_shift_l1(64)", "scalar(2.0)", "rotation(1.0)"]:
        _assert_projections(*_probes(name), 1500, 1e-2, 64)


#: Above `DENSE_CAP`: a diagonal that keeps part of its mass, and a
#: nilpotent shift, whose trusted horizon is 256.
_WIDE_SPECS = [
    OperatorSpec(KIND_DIAGONAL, DENSE_CAP + 1, np.linspace(-1.0, 1.0, DENSE_CAP + 1), "l2"),
    OperatorSpec(KIND_SHIFT, DENSE_CAP + 1, np.ones(DENSE_CAP), "l1"),
]


@given(
    st.one_of(_small_specs(max_dim=5), st.sampled_from(_WIDE_SPECS)),
    st.sampled_from([1, 2, 7, 64, 300]),
    st.sampled_from([1, 8, 64, 300, 512]),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_every_family_verdict_is_its_public_check(spec, horizon, ue_horizon, basis):
    # UE horizons above, at and below the horizon; above `DENSE_CAP` the
    # uniformly ergodic verdicts share the probe pass.
    probes = basis_probes(spec.dim, spec.norm_tag) if basis else default_probes(spec)
    _assert_projections(spec, probes, horizon, 1e-2, ue_horizon)


def test_families_walk_the_horizon_one_and_a_half_times(monkeypatch):
    # At most one shared pass plus one re-walk of the tail, up to its last
    # walked mean, and only when its bracket straddles the tolerance.  The
    # checks used to walk the full horizon about five times.
    spec, probes = _probes("left_shift_l1(64)")
    real = ergorank.cesaro.apply_columns
    widths = []

    def counting(s, X, out=None):
        widths.append(X.shape[1])
        return real(s, X, out=out)

    monkeypatch.setattr(ergorank.cesaro, "apply_columns", counting)
    check_families(spec, probes, 2000, 1e-2, 1e3, 64)
    assert 0 < widths.count(len(probes)) <= 1.5 * 2000 + 2


@pytest.mark.parametrize("name", ["rotation(1.0)", "scalar(-1.0)"])
def test_families_walk_each_block_once_unless_a_tail_straddles(monkeypatch, name):
    # The brackets of the probe tails [1000, 2000] decide, so one walk per
    # block serves them.  The dense tail [32, 64] of scalar(-1.0) starts at
    # A_32 = 0 = A_64, and its bracket [0, 1/33] straddles the tolerance, so
    # that block alone is walked again.
    spec, probes = _probes(name)
    walks = _Walks(monkeypatch)
    check_families(spec, probes, 2000, 1e-2, 1e3, 64)
    again = [[True, 64]] if name == "scalar(-1.0)" else []
    assert walks.walks == [[False, 2000], [False, 64], *again]


# -- verdict plumbing ----------------------------------------------------

def test_verdict_json_shape():
    spec, probes = _probes("scalar(0.5)")
    v = check_ergodic(spec, probes, 500, 1e-2)
    d = v.to_json_dict()
    assert list(d.keys()) == [
        "family", "status", "horizon", "tolerance", "bound", "witness", "probe_label",
    ]
    assert d["family"] == "ergodic"
    assert "evidence" not in d


def test_int_bound_edges():
    assert _int_bound(0.0) == 0
    assert _int_bound(1.0) == 1
    assert _int_bound(1.0 + 5e-10) == 1
    assert _int_bound(1.2) == 2


def test_replay_requires_fails():
    spec, probes = _probes("identity(8)")
    v = check_power_bounded(spec, probes, 50)
    with pytest.raises(ValueError):
        replay_witness(spec, v, probes)


def test_a_near_tie_witness_replays_bit_for_bit():
    # With the cap one ulp under jordan_1(600)'s first power norm above
    # 1e3, that power is still the first above the cap, by one ulp, so only
    # a replay in the pass's own arithmetic still sees it violate; and so
    # for the means.  Ergodicity inherits the mean's near tie.
    spec, probes = _probes("jordan_1(600)")
    for family in ("power_bounded", "cesaro_bounded"):
        w = getattr(check_families(spec, probes, 512, 1e-2, 1e3, 64), family).witness
        cap = np.nextafter(w["value"], 0.0)
        families = check_families(spec, probes, 512, 1e-2, cap, 64)
        v = getattr(families, family)
        assert v.status == FAILS and v.witness == {**w, "cap": cap}
        assert replay_witness(spec, v, probes) == (w["value"], True)
    assert families.ergodic.witness == {"inherited_from": "cesaro_bounded", **v.witness}
    assert replay_witness(spec, families.ergodic, probes) == (w["value"], True)


def test_replay_refuses_another_probe_set():
    spec = gallery("jordan_1(600)")
    probes = default_probes(spec)
    v = check_ergodic(spec, probes, 512, 1e-2)
    assert v.status == FAILS and "probe" in v.witness
    for other in (None, default_probes(spec, seed=7)):
        with pytest.raises(ValueError, match="probe set"):
            replay_witness(spec, v, other)
    for probe in (len(probes), -1):
        v.witness = {**v.witness, "probe": probe}
        with pytest.raises(ValueError, match="outside the set"):
            replay_witness(spec, v, probes)


def _failing_verdicts(spec, probes, horizon, tolerance, cap, ue_horizon):
    """The ``fails`` verdicts of `check_families` and of the Cesaro-bounded
    check in each mode that the spec admits."""
    verdicts = [*check_families(spec, probes, horizon, tolerance, cap, ue_horizon)]
    verdicts.append(check_cesaro_bounded(spec, probes, horizon, cap, mode="probe"))
    if spec.dim <= DENSE_CAP:
        verdicts.append(check_cesaro_bounded(spec, probes, horizon, cap, mode="dense"))
    return [v for v in verdicts if v is not None and v.status == FAILS]


@given(
    st.one_of(_small_specs(), st.sampled_from(_WIDE_SPECS)),
    st.sampled_from([1, 2, 7, 64, 300]),
    st.sampled_from([8, 64, 300]),
    st.booleans(),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_every_fails_verdict_replays_bit_for_bit(spec, horizon, ue_horizon, basis, data):
    # At the default cap, then with the cap one ulp under a recorded value,
    # where a replay read in other arithmetic than its pass's would land on
    # the wrong side.  Every witness is a value above the cap, and every
    # ergodic or uniformly ergodic one is inherited.
    probes = basis_probes(spec.dim, spec.norm_tag) if basis else default_probes(spec)
    fails = _failing_verdicts(spec, probes, horizon, 1e-2, 1e3, ue_horizon)
    if fails:
        cap = np.nextafter(data.draw(st.sampled_from(fails)).witness["value"], 0.0)
        fails += _failing_verdicts(spec, probes, horizon, 1e-2, cap, ue_horizon)
    for v in fails:
        if v.family in ("ergodic", "uniformly_ergodic"):
            assert v.witness["inherited_from"] == "cesaro_bounded", (spec, v.family, v.witness)
        assert replay_witness(spec, v, probes) == (v.witness["value"], True), (spec, v.family, v.witness)


def test_probe_dim_mismatch():
    spec = gallery("identity(8)")
    probes = basis_probes(4, "l2")
    with pytest.raises(ValueError, match="dim"):
        check_power_bounded(spec, probes, 10)


# -- one check per argument rule -----------------------------------------


def _refused_before_any_walk(monkeypatch, error, message, *calls):
    """Each call raises `error` with exactly `message` before any stream pass."""
    walks = _Walks(monkeypatch)
    for call in calls:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()
    assert walks.walks == []


def test_a_nan_probe_is_refused(monkeypatch):
    # Accepted, it made the power-bounded check fail on diag(0.5, 0.5) with a
    # witness at 1e140 that replays.
    _refused_before_any_walk(
        monkeypatch, SpecValidationError, "probe vectors must be finite",
        lambda: ProbeSet([[np.nan, 0.0], [1.0, 0.0]], "l2", "nan probe"),
    )


def test_every_check_refuses_a_negative_bound_cap(monkeypatch):
    spec = OperatorSpec(KIND_DIAGONAL, 2, [0.5, 0.5], "l2")
    probes = basis_probes(2, "l2")
    _refused_before_any_walk(
        monkeypatch, ValueError, "bound_cap must be positive, got -1.0",
        lambda: check_power_bounded(spec, probes, 100, bound_cap=-1.0),
        lambda: check_cesaro_bounded(spec, probes, 100, bound_cap=-1.0),
        lambda: check_ergodic(spec, probes, 100, 1e-2, bound_cap=-1.0),
        lambda: check_uniformly_ergodic(spec, 100, 1e-2, probes=probes, bound_cap=-1.0),
        lambda: check_families(spec, probes, 100, 1e-2, -1.0, 64),
    )


def test_families_name_a_bad_ue_horizon_before_the_probe_pass(monkeypatch):
    spec, probes = _probes("rotation(1.0)")
    _refused_before_any_walk(
        monkeypatch, ValueError, "ue_horizon must be positive, got 0",
        lambda: check_families(spec, probes, 10_000, 1e-2, 1e3, 0),
    )


@pytest.mark.parametrize("index_bound", [0, -3])
def test_both_searches_and_the_rank_refuse_an_index_bound_below_one(monkeypatch, index_bound):
    spec, probes = _probes("rotation(1.0)")
    _refused_before_any_walk(
        monkeypatch, ValueError, f"index_bound must be >= 1, got {index_bound}",
        lambda: search_nse(spec, probes, 0.5, 3, index_bound, strategy="doubling"),
        lambda: search_nse(spec, probes, 0.5, 3, index_bound, strategy="beam"),
        lambda: rank_estimate(spec, probes, index_bound=index_bound),
    )


def test_a_bool_dim_is_refused(monkeypatch):
    obj = {"kind": "diagonal", "dim": True, "norm": "l2", "entries": [1.0]}
    _refused_before_any_walk(
        monkeypatch, SpecValidationError, "dim must be an integer >= 1, got True",
        lambda: OperatorSpec.from_json_dict(obj),
    )

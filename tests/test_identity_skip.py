"""The identity tails that the probe means settle before the walk
(`classify._tail_floor`), the one bracket each pass forms, and the bound on
||T||_2 that a pass forms only where it can decide.

A floored tail gives the verdict a walk gives: the probe means prove a lower
end on its radius that reaches half the tolerance, so it is inconclusive.
Where the floor or the resolvent certificate settles every identity tail,
the identity pass walks no step.  These tests hold the floor against a walk
of the identity block, on generated specs and on the benchmark's inputs.
"""

import collections
import contextlib

import numpy as np
from hypothesis import event, example, given, settings, strategies as st

import ergorank.classify
from ergorank.cesaro import CesaroStream
from ergorank.classify import HOLDS, INCONCLUSIVE, check_families, _mode_norms, _scan, _tail_radius
from ergorank.operators import (
    DENSE_CAP, KIND_DIAGONAL, KIND_SHIFT, OperatorSpec, basis_probes, built_in_gallery, default_probes, gallery,
)
from test_classify import (
    _Walks, _bench_workloads, _bounded_specs, _jordan_specs, _no_certificate, _no_skip, _serialized, _spying,
)

#: A nilpotent shift whose identity tails settle both ways before the walk
#: at horizon 2 000, tolerance 0.1 and UE horizon 256: the probe means floor
#: the trusted tail [16, 32], and the resolvent certificate the tail
#: [128, 256].
MIXED_SHIFT = OperatorSpec(KIND_SHIFT, 64, np.full(63, 0.5), "l1")


@st.composite
def _narrow_specs(draw):
    """Weighted shifts of dim 32-64 with weights under 1, and diagonals of
    dim 49-96 (wider than their 48 default probes) with entries inside
    (-0.9, 0.9): specs whose probe pass the certificate can settle, and,
    past dim 48, narrower than the identity block, so that it walks on for
    the means of the identity pass's floor."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tag, top = draw(st.sampled_from(["l1", "l2", "linf"])), draw(st.sampled_from([0.1, 0.5, 0.9]))
    if draw(st.booleans()):
        dim = draw(st.integers(32, 64))
        return OperatorSpec(KIND_SHIFT, dim, rng.uniform(0.0, top, dim - 1), tag)
    dim = draw(st.integers(49, 96))
    return OperatorSpec(KIND_DIAGONAL, dim, rng.uniform(-top, top, dim), tag)


@given(
    st.one_of(_bounded_specs(64), _jordan_specs().map(lambda j: j.spec), _narrow_specs(), _narrow_specs()),
    st.sampled_from([(64, 32), (300, 64), (300, 256), (1000, 256)]),
    st.booleans(),
    st.one_of(st.sampled_from([1e-2, 1e-1]), st.tuples(st.integers(0, 7), st.sampled_from([-1, 0, 1]))),
)
@example(MIXED_SHIFT, (2000, 256), False, 1e-1)
@settings(max_examples=100, deadline=None)
def test_a_skipped_identity_pass_serializes_as_a_walk(spec, horizons, basis, at):
    # Horizons at or past the UE horizon, so that the probe pass walks past
    # it unless the resolvent certificate stops it (a narrow block walks on
    # to the UE horizon for the floor's means).  A tolerance is 1e-2 or 0.1,
    # or twice a proven floor, picked by `at`, moved one ulp to either side
    # or not at all, so a floor settles its tail and fails to at its edge.
    # Every floored tail's walk reads a lower end at least its floor, and
    # twice that reaches the tolerance; the verdicts serialize as with the
    # floor off.
    horizon, ue = horizons
    probes = basis_probes(spec.dim, spec.norm_tag) if basis else default_probes(spec)
    floors = {}
    if isinstance(at, tuple):
        with _spying(floors, "dense"):
            check_families(spec, probes, horizon, 5e-324, 1e3, ue)  # every positive floor settles
        doubled = sorted({2.0 * float(f) for f in floors.values() if 0.0 < f < np.inf})
        tol = doubled[at[0] % len(doubled)] if doubled else 1e-2
        if doubled:
            tol = float(np.nextafter(tol, {-1: -np.inf, 0: tol, 1: np.inf}[at[1]]))
        floors.clear()
    else:
        tol = at
    with _spying(floors, "dense"):
        got = check_families(spec, probes, horizon, tol, 1e3, ue)
    with _no_skip():
        want = check_families(spec, probes, horizon, tol, 1e3, ue)
    assert _serialized(got) == _serialized(want)
    tails = {v.horizon: v for v in (got.uniformly_ergodic, got.section) if v is not None}
    floored = {N: f for N, f in floors.items() if 2.0 * f >= tol}
    settled = ["floored" if N in floored else "certified" if v.evidence["certified"] else "walked"
               for N, v in sorted(tails.items())]
    event(f"uniformly ergodic tails: {' + '.join(settled)}")
    narrow = got.ergodic.evidence["certified"] and len(probes) < spec.dim
    event(f"probe pass: {'narrow, certified' if narrow else 'other'}{', then a floor' if narrow and floored else ''}")
    norms = _mode_norms(spec, "dense")
    for N, floor in floored.items():
        scan = _scan(spec, np.eye(spec.dim), "dense", [N], 1e3, [N])[N]
        lower = float(np.max(_tail_radius(scan, norms, 0.0)[0]))
        assert floor <= lower and 2.0 * lower >= tol, (N, floor, lower, tol)
        assert tails[N].status == INCONCLUSIVE and tails[N].evidence["tail_diameter_ub"] == np.inf, N


def test_the_floor_and_the_certificate_settle_one_pass(monkeypatch):
    # `MIXED_SHIFT`'s probe pass stops at its anchor, step 65 (T^64 = 0),
    # and keeps its means at 16, 32, 128 and 256.  They floor the trusted
    # tail [16, 32] inconclusive, and the certificate holds the tail
    # [128, 256], so the identity pass walks no step.  With the floor off,
    # it walks to 32 for that tail; with the certificate off, to its anchor
    # at 65 for the other.  Every verdict serializes alike.
    probes = default_probes(MIXED_SHIFT)
    run = lambda: check_families(MIXED_SHIFT, probes, 2000, 0.1, 1e3, 256)
    walks = _Walks(monkeypatch)
    got = run()
    assert walks.walks == [[False, 65]]
    assert (got.uniformly_ergodic.horizon, got.uniformly_ergodic.status) == (32, INCONCLUSIVE)
    assert (got.section.horizon, got.section.status) == (256, HOLDS)
    assert got.uniformly_ergodic.evidence["tail_diameter_ub"] == np.inf
    assert 2.0 * got.uniformly_ergodic.evidence["tail_diameter_lb"] >= 0.1
    assert got.section.evidence["certified"] and not got.uniformly_ergodic.evidence["certified"]
    for patches, want in (
        ((_no_skip,), [[False, 65], [False, 32]]),
        ((_no_certificate,), [[False, 65], [False, 65]]),
        ((_no_skip, _no_certificate), [[False, 65], [False, 65]]),
    ):
        walks.walks.clear()
        with contextlib.ExitStack() as stack:
            for patch in patches:
                stack.enter_context(patch())
            assert _serialized(run()) == _serialized(got)
        assert walks.walks == want, patches


def test_each_pass_brackets_its_norms_once(monkeypatch):
    # `check_families` forms one `_bounded_bracket` per pass: two at dims up
    # to `DENSE_CAP` (the probe pass and the identity pass, walked or not)
    # and one above it, where only the probe pass runs.
    calls = [0]
    real = ergorank.classify._bounded_bracket

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(ergorank.classify, "_bounded_bracket", counting)
    cases = [(gallery(name), None, 10_000) for name in built_in_gallery()]
    cases += [(spec, seed, 2000) for seed in (1, 101) for spec in _bench_workloads().wide_specs(seed).values()]
    cases += [(gallery(name), None, 2000) for name in ("identity(600)", "left_shift_l1(600)")]
    for spec, seed, horizon in cases:
        calls[0] = 0
        probes = default_probes(spec) if seed is None else default_probes(spec, seed=seed)
        check_families(spec, probes, horizon, 1e-2, 1e3, 256)
        assert calls[0] == (2 if spec.dim <= DENSE_CAP else 1), (spec.kind, spec.dim, seed)


def test_no_l2_bound_where_no_r_decides(monkeypatch):
    # dense-96-l2's probe bracket at horizon 2 000: the a priori r leaves it
    # undecided (r^2000 is 1 + 2e-9, past `BOUND_SLACK`), the estimate of
    # ||T||_2 would decide it, so the tight r is formed, and decides it; the
    # certificate settles its tail with T^1000 Y from the stream's levels,
    # and its identity pass, read by sqrt(l1 * linf), takes no r.  At horizon
    # 10 000 the ||.||_2 path's rounding alone, 1 - (1 + 98 * 10 * 2^-53)^-10000
    # = 1.1e-9 above the lower end 1, is past `BOUND_SLACK` for every r, so no
    # r is formed.  At the default config rotation(1.0) and
    # random_diagonalizable(7,12) form the a priori r, which decides both of
    # their passes, and neither forms the tight r or T^t Y; nor does
    # jordan_1(2), whose ||T||_2 is 1.6.
    calls, powers, decided = collections.Counter(), collections.Counter(), []
    real_bound, real_scan, real_power = ergorank.classify._l2_bound, ergorank.classify._scan, CesaroStream.power

    def counting(spec, tight=False):
        calls[spec, tight] += 1
        return real_bound(spec, tight)

    def scan(*args, **kwargs):
        scans = real_scan(*args, **kwargs)
        decided.append(next(iter(scans.values())).bracket is not None)
        return scans

    def power(stream, m, Y):
        powers[stream.spec] += 1
        return real_power(stream, m, Y)

    monkeypatch.setattr(ergorank.classify, "_l2_bound", counting)
    monkeypatch.setattr(ergorank.classify, "_scan", scan)
    monkeypatch.setattr(CesaroStream, "power", power)
    for seed in (1, 101):
        spec = _bench_workloads().wide_specs(seed)["dense-96-l2"]
        decided.clear()
        families = check_families(spec, default_probes(spec, seed=seed), 2000, 1e-2, 1e3, 256)
        assert calls[spec, False] > 0 and calls[spec, True] > 0 and powers[spec] > 0, seed
        assert decided == [True, False] and families.ergodic.evidence["certified"], seed
        calls.clear()
        check_families(spec, default_probes(spec, seed=seed), 10_000, 1e-2, 1e3, 256)
        assert calls[spec, False] == calls[spec, True] == 0, seed
    for name in ("rotation(1.0)", "random_diagonalizable(7,12)", "jordan_1(2)"):
        spec = gallery(name)
        decided.clear()
        check_families(spec, default_probes(spec), 10_000, 1e-2, 1e3, 256)
        assert calls[spec, True] == 0 and powers[spec] == 0, name
        if name != "jordan_1(2)":
            assert calls[spec, False] > 0 and decided == [True, True], name

"""The identity pass that `check_families` skips (`classify._unwalked`),
and the bound on ||T||_2 that a pass forms only where it can decide.

A skipped pass gives the verdicts a walk gives: its dense Cesaro-bounded
verdicts are its bracket's, and each uniformly ergodic tail is
inconclusive, since the probe means prove a lower end on its radius that
reaches half the tolerance.  These tests hold the skip against a walk of
the identity block, on generated specs and on the benchmark's inputs.
"""

import collections
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import ergorank.classify
from ergorank.classify import INCONCLUSIVE, check_families, _mode_norms, _scan, _tail_radius
from ergorank.operators import basis_probes, default_probes, gallery
from test_classify import _bench_workloads, _bounded_specs, _jordan_specs, _no_skip, _serialized


def _spying(floors):
    """`_unwalked` that appends, per call, the floors of the tails it
    proves ({} where it proves none)."""
    real = ergorank.classify._unwalked

    def spying(*args):
        scans = real(*args)
        floors.append({h: s.floor for h, s in (scans or {}).items() if s.floor is not None})
        return scans

    return mock.patch.object(ergorank.classify, "_unwalked", spying)


@given(
    st.one_of(_bounded_specs(64), _jordan_specs().map(lambda j: j.spec)),
    st.sampled_from([(64, 32), (300, 64), (300, 256), (1000, 256)]),
    st.booleans(),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_a_skipped_identity_pass_serializes_as_a_walk(spec, horizons, basis, data):
    # Horizons at or past the UE horizon, so that the probe pass walks past
    # it unless the resolvent certificate stops it.  Tolerances are drawn at
    # twice each proven floor and one ulp to either side, so the skip is
    # taken and refused at its edge.  Every skipped tail's walk reads a
    # lower end at least its floor, and twice that reaches the tolerance.
    horizon, ue = horizons
    probes = basis_probes(spec.dim, spec.norm_tag) if basis else default_probes(spec)
    floors = []
    with _spying(floors):
        check_families(spec, probes, horizon, 5e-324, 1e3, ue)  # every positive floor skips
    doubled = {2.0 * float(f) for proven in floors for f in proven.values()}
    near = {float(np.nextafter(x, d)) for x in doubled for d in (-np.inf, x, np.inf)}
    tol = data.draw(st.sampled_from(sorted({1e-2} | {x for x in near if 0.0 < x < np.inf})))
    floors.clear()
    with _spying(floors):
        got = check_families(spec, probes, horizon, tol, 1e3, ue)
    with _no_skip():
        want = check_families(spec, probes, horizon, tol, 1e3, ue)
    assert _serialized(got) == _serialized(want)
    norms = _mode_norms(spec, "dense")
    for N, floor in (floors[0] if floors else {}).items():
        scan = _scan(spec, np.eye(spec.dim), "dense", [N], 1e3, [N])[N]
        lower = float(np.max(_tail_radius(scan, norms, 0.0)[0]))
        assert floor <= lower and 2.0 * lower >= tol, (N, floor, lower, tol)
        assert got.uniformly_ergodic.status == INCONCLUSIVE


def test_no_l2_bound_where_no_r_decides(monkeypatch):
    # dense-96-l2's probe bracket at horizon 2 000: the ||.||_2 path's
    # rounding, 1 - (1 + 98^2 2^-53)^-2000 = 2.1e-9 above the lower end 1,
    # is past `BOUND_SLACK` for every r, so no r is formed; its identity
    # pass reads sqrt(l1 * linf), which takes none either.  At the default
    # config rotation(1.0) and random_diagonalizable(7,12) still form one,
    # and it decides both of their passes.
    calls, decided = collections.Counter(), []
    real_bound, real_scan = ergorank.classify._l2_bound, ergorank.classify._scan

    def counting(spec):
        calls[spec] += 1
        return real_bound(spec)

    def scan(*args, **kwargs):
        scans = real_scan(*args, **kwargs)
        decided.append(next(iter(scans.values())).bracket is not None)
        return scans

    monkeypatch.setattr(ergorank.classify, "_l2_bound", counting)
    monkeypatch.setattr(ergorank.classify, "_scan", scan)
    for seed in (1, 101):
        spec = _bench_workloads().wide_specs(seed)["dense-96-l2"]
        check_families(spec, default_probes(spec, seed=seed), 2000, 1e-2, 1e3, 256)
        assert calls[spec] == 0, seed
    for name in ("rotation(1.0)", "random_diagonalizable(7,12)"):
        spec = gallery(name)
        decided.clear()
        check_families(spec, default_probes(spec), 10_000, 1e-2, 1e3, 256)
        assert calls[spec] > 0 and decided == [True, True], name

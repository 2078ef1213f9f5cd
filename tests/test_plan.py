"""The pre-walk planner (`classify._plan`) on its own, and the reads that
every pass and settler share (`classify._reads`).

`_plan` settles each tail of a pass whose bracket decides by the first of
its settlers whose bracket decides too: the probe-mean floor on the identity
block, then the resolvent certificate, then the ladder floor on the probe
block.  The table here pins which one settles each tail of the benchmark's
inputs, and the work test that no analysis forms one read twice.
"""

import collections

import numpy as np
import pytest

import ergorank.classify
from ergorank.cesaro import CesaroStream
from ergorank.classify import _auto_mode, _decides, _plan, _reads, _scan, check_families, trusted_horizon
from ergorank.operators import DENSE_CAP, built_in_gallery, default_probes, gallery
from test_classify import _bench_workloads


def _cases():
    """(label, spec, probes, horizon): the gallery at the default config and
    the wide-operators inputs at seed 101, horizon 2 000; UE horizon 256."""
    cases = [(name, gallery(name), default_probes(gallery(name)), 10_000) for name in built_in_gallery()]
    wide = _bench_workloads().wide_specs(101).items()
    return cases + [(label, spec, default_probes(spec, seed=101), 2000) for label, spec in wide]


def _settler(mode, bracket):
    """The settler that formed a bracket `_plan` kept, or "walked" for none."""
    if bracket is None:
        return "walked"
    if np.all(np.isfinite(bracket[1])):
        return "certificate"
    return "identity floor" if mode == "dense" else "ladder floor"


def _plans(spec, probes, horizon, ue_horizon=256, tolerance=1e-2, cap=1e3):
    """{(mode, N): settler} for each tail of the two passes of
    `check_families`, from `_plan` called on the inputs that the analysis
    forms for it: the block's reads, its tails, `anyway` and, for the
    identity block, the probe means its probe pass keeps.  "undecided"
    marks a pass whose bracket does not decide, which runs no plan."""
    X, ues, wide = probes.vectors.T, {trusted_horizon(spec, ue_horizon), ue_horizon}, spec.dim > DENSE_CAP
    dense = _auto_mode(spec, horizon) == "dense"
    identity = None if wide else _reads(spec, np.eye(spec.dim), "dense", max(*ues, horizon if dense else 0))
    keep = ues if identity is not None and _decides(identity.bracket, cap) else ()
    top = max(horizon, *ues) if wide else horizon
    reads, anyway = _reads(spec, X, "probe", top), min(top, max(keep, default=0)) if X.shape[1] < spec.dim else 0
    plans = {("probe", horizon): "undecided"}
    if _decides(reads.bracket, cap):
        settled = _plan(CesaroStream(spec, X), "probe", reads, [horizon], tolerance, anyway, None)
        plans[("probe", horizon)] = _settler("probe", settled.get(horizon))
    if identity is not None:
        kept = {}
        _scan(spec, X, "probe", [top], cap, [horizon], tolerance, keep, kept)  # the probe pass, for its kept means
        plans.update({("dense", N): "undecided" for N in ues})
        if _decides(identity.bracket, cap):
            settled = _plan(CesaroStream(spec, np.eye(spec.dim)), "dense", identity, sorted(ues), tolerance, 0, kept)
            plans.update({("dense", N): _settler("dense", settled.get(N)) for N in ues})
    return plans


_CERTIFIED_PROBE = {("probe", 10_000): "certificate", ("dense", 256): "walked"}

#: Per input of `_cases`, what settles each tail (mode, N) of its analysis
#: before the walk.  The certificate settles every decided gallery probe
#: tail, and no gallery identity tail tries it (t * tol = 1.28 <= 2):
#: they are walked, to their anchors; left_shift_l1(64)'s probe means floor
#: both of its identity tails.  On wide-operators the probe means floor
#: every identity tail whose bracket decides, and sparse-128-l1's probe tail
#: is the one that the ladder floors.  dense-96-l2's identity pass, read by
#: sqrt(l1 * linf) with the norm of |T| as its growth, and the growing
#: specs' passes are undecided.
_SETTLERS = {
    "identity(8)": _CERTIFIED_PROBE,
    "zero(4)": _CERTIFIED_PROBE,
    "scalar(1.0)": _CERTIFIED_PROBE,
    "scalar(0.5)": _CERTIFIED_PROBE,
    "scalar(-1.0)": _CERTIFIED_PROBE,
    "scalar(2.0)": {("probe", 10_000): "undecided", ("dense", 256): "undecided"},
    "jordan_1(2)": {("probe", 10_000): "undecided", ("dense", 256): "undecided"},
    "rotation(1.0)": _CERTIFIED_PROBE,
    "left_shift_l1(64)": {
        ("probe", 10_000): "certificate", ("dense", 32): "identity floor", ("dense", 256): "identity floor",
    },
    "random_diagonalizable(7,12)": _CERTIFIED_PROBE,
    "sparse-128-l1": {("probe", 2000): "ladder floor", ("dense", 256): "identity floor"},
    "sparse-256-linf": {("probe", 2000): "certificate", ("dense", 256): "identity floor"},
    "dense-96-l2": {("probe", 2000): "certificate", ("dense", 256): "undecided"},
    "diagonal-256-l1": {("probe", 2000): "certificate", ("dense", 256): "identity floor"},
    "shift-256-linf": {
        ("probe", 2000): "certificate", ("dense", 128): "identity floor", ("dense", 256): "identity floor",
    },
    "overflow-diagonal-256-l2": {("probe", 2000): "undecided", ("dense", 256): "undecided"},
}


def test_the_plan_settles_each_benchmark_tail_as_pinned():
    # `_plan` alone gives the table, and the analysis reads each tail as its
    # plan says: a certified tail is `certified`, a floored one has an
    # infinite upper end, and any other is neither.
    got = {}
    for label, spec, probes, horizon in _cases():
        got[label] = plans = _plans(spec, probes, horizon)
        families = check_families(spec, probes, horizon, 1e-2, 1e3, 256)
        verdicts = {("probe", horizon): families.ergodic}
        verdicts.update({("dense", v.horizon): v for v in (families.uniformly_ergodic, families.section) if v})
        for key, settler in plans.items():
            evidence = verdicts[key].evidence
            assert evidence["certified"] == (settler == "certificate"), (label, key)
            floored = bool(np.all(np.asarray(evidence["tail_diameter_ub"]) == np.inf))
            assert floored == settler.endswith("floor"), (label, key)
    assert got == _SETTLERS


@pytest.mark.parametrize("label", list(_SETTLERS))
def test_no_analysis_forms_a_read_twice(monkeypatch, label):
    # A block's reads are formed once and passed down (`_reads`): each
    # `check_families` forms `_deviation` once per (block, mode, horizon,
    # depth), a block known by its reader's norms, and splits each block at
    # most once.  The identity bracket and the identity pass's floor share
    # the identity block's read at the UE horizon, and the probe bracket,
    # its certificate and its ladder share the probe block's at the horizon.
    spec, probes, horizon = next(case[1:] for case in _cases() if case[0] == label)
    deviations, splits = collections.Counter(), collections.Counter()
    real_deviation, real_split = ergorank.classify._deviation, ergorank.classify._split

    def deviation(spec, size, mode, horizon, depth=None):
        deviations[mode, size.shape, size.tobytes(), horizon, depth] += 1
        return real_deviation(spec, size, mode, horizon, depth)

    def split(spec, X, stream=None):
        splits[X.shape, X.tobytes()] += 1
        return real_split(spec, X, stream)

    monkeypatch.setattr(ergorank.classify, "_deviation", deviation)
    monkeypatch.setattr(ergorank.classify, "_split", split)
    check_families(spec, probes, horizon, 1e-2, 1e3, 256)
    assert deviations and max(deviations.values()) == 1, [key[::3] for key, n in deviations.items() if n > 1]
    assert max(splits.values(), default=0) <= 1

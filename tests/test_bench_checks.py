"""The benchmark's correctness checks (`bench/checks.py`) run on analyze
reports here, so that a package change that breaks what they call fails
this suite instead of showing up as failed benchmark operations.

They call the per-family checks (Cesaro-bounded in ``auto`` mode), read
the evidence keys ``diverged``, ``diverged_at`` and ``steps``, and read the
rank estimate's ``partial`` flags and the config's ``max_nodes``.
"""

import importlib.util
from pathlib import Path

import pytest

from ergorank.classify import FAILS, HOLDS
from ergorank.cli import main
from ergorank.operators import OperatorSpec, gallery
from ergorank.serialization import canonical_dumps, canonical_loads


def _bench_checks():
    path = Path(__file__).resolve().parents[1] / "bench" / "checks.py"
    spec = importlib.util.spec_from_file_location("bench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _bench_checks()


@pytest.mark.parametrize("name", ["jordan_1(2)", "left_shift_l1(64)"])
def test_the_benchmark_checks_pass_on_analyze_reports(tmp_path, name):
    spec_path, out = tmp_path / "spec.json", tmp_path / "report.json"
    spec_path.write_text(canonical_dumps(gallery(name).to_json_dict()))
    argv = ["analyze", str(spec_path), "--no-cache", "--horizon", "1000", "--out", str(out)]
    assert main(argv) == 0
    report = canonical_loads(out.read_text())
    config = report["config"]
    spec = OperatorSpec.from_json_dict(report["operator"])
    probes = checks._probes(spec, config)

    verdicts = checks._recompute_verdicts(spec, probes, config)
    # The per-family checks give the verdicts of the report.
    assert [canonical_loads(canonical_dumps(v.to_json_dict())) for v in verdicts] == list(
        report["verdicts"].values()
    )
    for v in verdicts:
        assert {"diverged", "steps"} <= v.evidence.keys(), v.family
    assert all("diverged_at" in v.evidence for v in verdicts[2:])
    assert checks._holds_from_full_scan(verdicts) == (True, "")

    # left_shift_l1(64) fails no family at horizon 1 000 (its non-UE signal
    # is its doubling certificate), so only jordan_1(2) has witnesses to replay.
    if name == "jordan_1(2)":
        assert any(v["status"] == FAILS for v in report["verdicts"].values())
    assert checks._replay_fails(spec, probes, report) == (True, "")
    rank = report["rank_estimate"]
    assert len(rank["partial"]) == len(rank["heights"])
    assert checks._rank_heights(spec, probes, rank, max_nodes=config["max_nodes"]) == (True, "")


#: Steps walked by the power-bounded and Cesaro-bounded checks at the
#: default config (horizon 10 000).  Their bracket decides each before the
#: walk, and they read no tail, so each pass walks no step.
#: In `check_families` the probe tails of all but left_shift_l1(64) are
#: certified by the resolvent, so that pass walks no step either.
_WALKED_AT_THE_DEFAULT_CONFIG = {
    "identity(8)": 0, "scalar(1.0)": 0, "left_shift_l1(64)": 0,
    "rotation(1.0)": 0, "scalar(-1.0)": 0, "random_diagonalizable(7,12)": 0,
}


@pytest.mark.parametrize("name", _WALKED_AT_THE_DEFAULT_CONFIG)
def test_holds_decided_at_the_anchor_pass_the_full_scan_check(tmp_path, name):
    # Such a holds still reports the whole horizon as its steps and no
    # divergence; `walked` counts the steps the stream produced.
    spec_path, out = tmp_path / "spec.json", tmp_path / "report.json"
    spec_path.write_text(canonical_dumps(gallery(name).to_json_dict()))
    assert main(["analyze", str(spec_path), "--no-cache", "--out", str(out)]) == 0
    report = canonical_loads(out.read_text())
    config = report["config"]
    assert config["horizon"] == 10_000
    spec = OperatorSpec.from_json_dict(report["operator"])
    verdicts = checks._recompute_verdicts(spec, checks._probes(spec, config), config)
    assert [canonical_loads(canonical_dumps(v.to_json_dict())) for v in verdicts] == list(
        report["verdicts"].values()
    )
    assert checks._holds_from_full_scan(verdicts) == (True, "")
    pb, cb = verdicts[:2]
    assert pb.status == cb.status == HOLDS
    for v in verdicts:
        if v.status == HOLDS:
            assert (v.evidence["steps"], v.evidence["diverged"]) == (v.horizon, False), v.family
    assert pb.evidence["walked"] == cb.evidence["walked"] == _WALKED_AT_THE_DEFAULT_CONFIG[name]

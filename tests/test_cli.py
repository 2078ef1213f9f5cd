import json
import os

import pytest

from ergorank import cli
from ergorank.cli import REPORT_SCHEMA, main
from ergorank.operators import KIND_SHIFT, OperatorSpec, built_in_gallery, gallery
from ergorank.serialization import canonical_dumps, canonical_loads


def _write_spec(tmp_path, name, filename="spec.json"):
    path = tmp_path / filename
    path.write_text(canonical_dumps(gallery(name).to_json_dict()))
    return str(path)


def _cache_dir():
    return os.environ["ERGORANK_CACHE_DIR"]


# -- gallery ---------------------------------------------------------------

def test_gallery_list(capsys):
    assert main(["gallery"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == built_in_gallery()
    assert len(lines) == 10


def test_gallery_emit_round_trips(tmp_path):
    out = tmp_path / "op.json"
    assert main(["gallery", "left_shift_l1(64)", "--out", str(out)]) == 0
    spec = OperatorSpec.from_json_dict(canonical_loads(out.read_text()))
    assert spec.kind == KIND_SHIFT and spec.dim == 64 and spec.norm_tag == "l1"


def test_gallery_unknown_name(capsys):
    assert main(["gallery", "banana(3)"]) == 2
    assert "available entries" in capsys.readouterr().err


# -- analyze ---------------------------------------------------------------

ANALYZE_FAST = ["--horizon", "400", "--ue-horizon", "64", "--index-bound", "16"]


def test_analyze_report_shape(tmp_path, capsys):
    spec_path = _write_spec(tmp_path, "scalar(0.5)")
    assert main(["analyze", spec_path, "--no-cache", *ANALYZE_FAST]) == 0
    report = canonical_loads(capsys.readouterr().out)
    assert list(report.keys()) == [
        "schema", "operator", "operator_sha256", "config", "verdicts",
        "norm_trusted", "rank_estimate", "nse", "timings",
    ]
    assert report["schema"] == REPORT_SCHEMA
    assert set(report["verdicts"]) == {
        "power_bounded", "cesaro_bounded", "ergodic", "uniformly_ergodic",
    }
    for verdict in report["verdicts"].values():
        assert verdict["status"] in {"holds", "fails", "inconclusive"}
    assert report["nse"]["found"] is False
    assert report["norm_trusted"]["section_only_beyond"] is False


def test_analyze_deterministic_without_cache(tmp_path):
    spec_path = _write_spec(tmp_path, "left_shift_l1(64)")
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["analyze", spec_path, "--no-cache", "--out", out1, *ANALYZE_FAST]) == 0
    assert main(["analyze", spec_path, "--no-cache", "--out", out2, *ANALYZE_FAST]) == 0
    r1 = canonical_loads(open(out1).read())
    r2 = canonical_loads(open(out2).read())
    r1.pop("timings"), r2.pop("timings")
    assert canonical_dumps(r1) == canonical_dumps(r2)
    # no cache entries written in --no-cache mode
    assert not os.path.exists(_cache_dir()) or os.listdir(_cache_dir()) == []


def test_analyze_cache_round_trip(tmp_path, capsys):
    spec_path = _write_spec(tmp_path, "scalar(-1.0)")
    assert main(["analyze", spec_path, *ANALYZE_FAST]) == 0
    first = canonical_loads(capsys.readouterr().out)
    files = os.listdir(_cache_dir())
    assert len(files) == 1 and files[0].endswith(".json")

    assert main(["analyze", spec_path, *ANALYZE_FAST]) == 0
    second = canonical_loads(capsys.readouterr().out)
    assert second["timings"] == {"cached": True}
    first.pop("timings"), second.pop("timings")
    assert canonical_dumps(first) == canonical_dumps(second)

    # different config hashes to a different cache entry
    assert main(["analyze", spec_path, "--tol", "0.05", *ANALYZE_FAST]) == 0
    capsys.readouterr()
    assert len(os.listdir(_cache_dir())) == 2


def test_analyze_cache_misses_for_other_code(tmp_path, capsys, monkeypatch):
    spec_path = _write_spec(tmp_path, "scalar(0.5)")
    assert main(["analyze", spec_path, *ANALYZE_FAST]) == 0
    capsys.readouterr()
    for attr, value in (("__version__", "0.0.0-other"), ("REPORT_SCHEMA", "ergorank-report-other")):
        monkeypatch.setattr(cli, attr, value)
        assert main(["analyze", spec_path, *ANALYZE_FAST]) == 0
        report = canonical_loads(capsys.readouterr().out)
        assert report["timings"] != {"cached": True}
    assert len(os.listdir(_cache_dir())) == 3


def test_analyze_shift_reports_section_verdict(tmp_path, capsys):
    spec_path = _write_spec(tmp_path, "left_shift_l1(64)")
    assert main(["analyze", spec_path, "--no-cache", *ANALYZE_FAST]) == 0
    report = canonical_loads(capsys.readouterr().out)
    nt = report["norm_trusted"]
    assert nt["requested_horizon"] == 64
    assert nt["trusted_horizon"] == 32
    assert nt["section_only_beyond"] is True
    assert nt["section_verdict"] is not None
    assert report["nse"]["found"] is True
    assert report["nse"]["depth"] == report["nse"]["target_depth"] == 4


def test_analyze_invalid_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not valid json")
    assert main(["analyze", str(bad)]) == 2
    assert "invalid operator spec" in capsys.readouterr().err
    assert main(["analyze", str(tmp_path / "missing.json")]) == 2


def test_analyze_max_nodes_does_not_bound_rank(tmp_path, capsys):
    # The rank estimate lists no nodes, so a tiny budget changes nothing
    # but the recorded config.
    spec_path = _write_spec(tmp_path, "left_shift_l1(64)")
    assert main(["analyze", spec_path, "--no-cache", *ANALYZE_FAST]) == 0
    default = canonical_loads(capsys.readouterr().out)["rank_estimate"]
    assert main([
        "analyze", spec_path, "--no-cache", "--max-nodes", "3", *ANALYZE_FAST,
    ]) == 0
    tiny = canonical_loads(capsys.readouterr().out)["rank_estimate"]
    assert tiny["heights"] == default["heights"]
    assert max(tiny["heights"]) > 1
    assert tiny["partial"] == default["partial"] == [False] * len(tiny["ks"])


# -- certify / check -------------------------------------------------------

def test_certify_then_check_accepts(tmp_path, capsys):
    spec_path = _write_spec(tmp_path, "left_shift_l1(64)")
    cert_path = str(tmp_path / "cert.json")
    assert main([
        "certify", spec_path, "--epsilon", "0.5", "--depth", "5",
        "--index-bound", "32", "--probes", "basis", "--out", cert_path,
    ]) == 0
    assert main(["check", cert_path]) == 0
    out = capsys.readouterr().out
    assert "accepted: depth 5 at epsilon 0.5" in out


def test_certify_depth_shortfall_still_writes(tmp_path, capsys):
    spec_path = _write_spec(tmp_path, "scalar(-1.0)")
    cert_path = str(tmp_path / "cert.json")
    assert main([
        "certify", spec_path, "--epsilon", "0.5", "--depth", "3",
        "--out", cert_path,
    ]) == 1
    assert "only reached depth 1" in capsys.readouterr().err
    assert main(["check", cert_path]) == 0


def test_certify_not_found(tmp_path, capsys):
    spec_path = _write_spec(tmp_path, "scalar(0.5)")
    cert_path = str(tmp_path / "cert.json")
    assert main([
        "certify", spec_path, "--epsilon", "0.5", "--depth", "2",
        "--out", cert_path,
    ]) == 1
    assert "no certificate found" in capsys.readouterr().err
    assert not os.path.exists(cert_path)


def test_check_rejects_tampered_certificate(tmp_path, capsys):
    spec_path = _write_spec(tmp_path, "left_shift_l1(64)")
    cert_path = str(tmp_path / "cert.json")
    main([
        "certify", spec_path, "--epsilon", "0.5", "--depth", "3",
        "--probes", "basis", "--out", cert_path,
    ])
    capsys.readouterr()
    data = json.loads(open(cert_path).read())
    data["epsilon"] = 1.5
    open(cert_path, "w").write(canonical_dumps(data))
    assert main(["check", cert_path]) == 1
    assert "rejected:" in capsys.readouterr().out


def test_check_unreadable_certificate(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.json")]) == 1
    assert "rejected: unreadable certificate" in capsys.readouterr().out


# -- tree ------------------------------------------------------------------

def test_tree_json_and_dot(tmp_path, capsys):
    spec_path = _write_spec(tmp_path, "zero(4)")
    dot_path = tmp_path / "tree.dot"
    assert main([
        "tree", spec_path, "--epsilon", "0.25", "--depth-cap", "4",
        "--index-bound", "16", "--dot", str(dot_path),
    ]) == 0
    trunc = canonical_loads(capsys.readouterr().out)
    assert trunc["epsilon"] == 0.25
    assert "1,2,5" in trunc["members"]
    text = dot_path.read_text()
    assert text.startswith("digraph") and '"1" -> "1,2"' in text


def test_tree_budget_exit_code(tmp_path, capsys):
    spec_path = _write_spec(tmp_path, "left_shift_l1(64)")
    assert main([
        "tree", spec_path, "--epsilon", "0.5", "--depth-cap", "3",
        "--index-bound", "16", "--max-nodes", "4", "--probes", "basis",
    ]) == 3
    trunc = canonical_loads(capsys.readouterr().out)
    assert trunc["partial"] is True
    assert len(trunc["members"]) == 4


# -- parser ----------------------------------------------------------------

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "ergorank" in capsys.readouterr().out


def test_missing_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2

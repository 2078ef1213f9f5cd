import json
import os
import stat
from pathlib import Path

import pytest

from ergorank import cli
from ergorank.certify import NSECertificate
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


@pytest.mark.parametrize("name", ["random_diagonalizable(1)", "random_diagonalizable(1,2,3)"])
def test_gallery_random_diagonalizable_takes_two_arguments(capsys, name):
    # Too few arguments must not index past the list, nor a third be dropped.
    assert main(["gallery", name]) == 2
    assert "bad arguments for gallery entry 'random_diagonalizable'" in capsys.readouterr().err


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
    r1 = canonical_loads(Path(out1).read_text())
    r2 = canonical_loads(Path(out2).read_text())
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


def test_output_files_honour_the_umask(tmp_path):
    # The temporary file of an atomic write is created as `open` creates a
    # file, so the umask applies, not a fixed 0o600.
    spec_path = _write_spec(tmp_path, "scalar(0.5)")
    out = tmp_path / "report.json"
    umask = os.umask(0o022)
    try:
        assert main(["analyze", spec_path, *ANALYZE_FAST, "--out", str(out)]) == 0
    finally:
        os.umask(umask)
    (entry,) = os.listdir(_cache_dir())
    for path in (out, os.path.join(_cache_dir(), entry)):
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o644, path


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


def test_analyze_cache_is_keyed_on_the_package_sources(tmp_path, capsys, monkeypatch):
    # Sources that differ under one version and schema (a patched digest)
    # miss the cache, then hit the entry they wrote.
    digest = cli._source_digest()
    assert len(digest) == 64 and cli._source_digest() == digest
    spec_path = _write_spec(tmp_path, "scalar(0.5)")
    assert main(["analyze", spec_path, *ANALYZE_FAST]) == 0
    first = canonical_loads(capsys.readouterr().out)
    monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
    for cached in (False, True):
        assert main(["analyze", spec_path, *ANALYZE_FAST]) == 0
        report = canonical_loads(capsys.readouterr().out)
        assert (report.pop("timings") == {"cached": True}) is cached
    first.pop("timings")
    assert canonical_dumps(report) == canonical_dumps(first)
    assert len(os.listdir(_cache_dir())) == 2


def _without_timings(text):
    report = canonical_loads(text)
    return report.pop("timings"), canonical_dumps(report)


def test_an_unwritable_cache_does_not_lose_the_report(tmp_path, capsys, monkeypatch):
    # A regular file where the cache directory should be: the report is
    # still emitted, with one warning line, and the exit code is 0.
    spec_path = _write_spec(tmp_path, "zero(4)")
    assert main(["analyze", spec_path, "--no-cache", *ANALYZE_FAST]) == 0
    _, want = _without_timings(capsys.readouterr().out)
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setenv("ERGORANK_CACHE_DIR", str(blocker))
    assert main(["analyze", spec_path, *ANALYZE_FAST]) == 0
    captured = capsys.readouterr()
    assert _without_timings(captured.out)[1] == want
    assert captured.err.startswith("warning: analyze cache not written:")
    assert captured.err.count("\n") == 1


_FOREIGN_ENTRIES = {
    "list": [],
    "object": {"a": 1},
    "other config": "tolerance",
}


@pytest.mark.parametrize("entry", _FOREIGN_ENTRIES.values(), ids=_FOREIGN_ENTRIES.keys())
def test_the_cache_serves_only_an_entry_that_is_this_report(tmp_path, capsys, entry):
    # An entry that is not a report of this schema, operator and config is
    # recomputed and overwritten, and the output equals a --no-cache run
    # apart from timings.
    spec_path = _write_spec(tmp_path, "zero(4)")
    assert main(["analyze", spec_path, "--no-cache", *ANALYZE_FAST]) == 0
    _, want = _without_timings(capsys.readouterr().out)
    assert main(["analyze", spec_path, *ANALYZE_FAST]) == 0
    capsys.readouterr()
    (name,) = os.listdir(_cache_dir())
    path = os.path.join(_cache_dir(), name)
    if entry == "tolerance":
        entry = canonical_loads(Path(path).read_text())
        entry["config"]["tolerance"] *= 2
    Path(path).write_text(canonical_dumps(entry))
    for cached in (False, True):
        assert main(["analyze", spec_path, *ANALYZE_FAST]) == 0
        timings, got = _without_timings(capsys.readouterr().out)
        assert (timings == {"cached": True}) is cached
        assert got == want


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_a_cache_entry_with_a_non_finite_number_is_recomputed(tmp_path, capsys, number):
    # `json` reads these tokens, but no report holds them: the entry is a
    # miss, recomputed and overwritten, and then a hit.
    spec_path = _write_spec(tmp_path, "scalar(0.5)")
    assert main(["analyze", spec_path, "--no-cache", *ANALYZE_FAST]) == 0
    _, want = _without_timings(capsys.readouterr().out)
    assert main(["analyze", spec_path, *ANALYZE_FAST]) == 0
    capsys.readouterr()
    (name,) = os.listdir(_cache_dir())
    path = Path(_cache_dir(), name)
    text = path.read_text()
    path.write_text(text[: -len("\n}\n")] + f',\n  "junk": {number}\n}}\n')
    for cached in (False, True):
        assert main(["analyze", spec_path, *ANALYZE_FAST]) == 0
        timings, got = _without_timings(capsys.readouterr().out)
        assert (timings == {"cached": True}) is cached
        assert got == want
    assert path.read_text() == text


def test_a_miss_stores_the_emitted_report_without_its_timings(tmp_path, capsys):
    spec_path = _write_spec(tmp_path, "left_shift_l1(64)")
    out = tmp_path / "report.json"
    assert main(["analyze", spec_path, *ANALYZE_FAST, "--out", str(out)]) == 0
    (name,) = os.listdir(_cache_dir())
    entry, emitted = Path(_cache_dir(), name).read_text(), out.read_text()
    report = canonical_loads(emitted)
    assert set(report.pop("timings")) == {"verdicts_s", "rank_s", "nse_s", "total_s"}
    assert canonical_loads(entry) == report
    assert entry == canonical_dumps(report)
    head, tail = emitted.split(',\n  "timings": ')
    assert entry == head + "\n}\n" and tail.endswith("\n  }\n}\n")


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
def test_an_analyze_miss_lays_out_the_operator_once(tmp_path, capsys, monkeypatch, cached):
    # The report's `operator` is the spec's one canonical text, set by
    # `cmd_analyze`, so a miss builds the spec's JSON payload once, for
    # that text and its digest, and a hit builds it once too, for the key.
    spec_path = _write_spec(tmp_path, "left_shift_l1(64)")
    real, calls = OperatorSpec.to_json_dict, []
    monkeypatch.setattr(OperatorSpec, "to_json_dict", lambda spec: calls.append(spec.kind) or real(spec))
    argv = ["analyze", spec_path, *ANALYZE_FAST, *([] if cached else ["--no-cache"])]
    assert main(argv) == 0
    assert calls == [KIND_SHIFT]
    report = canonical_loads(capsys.readouterr().out)
    assert list(report) == [
        "schema", "operator", "operator_sha256", "config", "verdicts", "norm_trusted", "rank_estimate", "nse",
        "timings",
    ]
    assert report["operator"] == real(gallery("left_shift_l1(64)"))
    if cached:
        calls.clear()
        assert main(argv) == 0
        assert calls == [KIND_SHIFT] and canonical_loads(capsys.readouterr().out)["timings"] == {"cached": True}


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
    for command, *args in (
        ["analyze"],
        ["certify", "--epsilon", "0.5", "--depth", "2"],
        ["tree", "--epsilon", "0.5"],
    ):
        assert main([command, str(bad), *args]) == 2
        assert "invalid operator spec" in capsys.readouterr().err
        assert main([command, str(tmp_path / "missing.json"), *args]) == 2
        assert "invalid operator spec" in capsys.readouterr().err


def test_analyze_has_no_node_budget(tmp_path, capsys):
    # The rank estimate lists no nodes, so analyze takes no budget; the
    # report still records the default one in its config.
    spec_path = _write_spec(tmp_path, "left_shift_l1(64)")
    with pytest.raises(SystemExit) as exc:
        main(["analyze", spec_path, "--no-cache", "--max-nodes", "3", *ANALYZE_FAST])
    assert exc.value.code == 2
    assert "--max-nodes" in capsys.readouterr().err
    assert main(["analyze", spec_path, "--no-cache", *ANALYZE_FAST]) == 0
    report = canonical_loads(capsys.readouterr().out)
    assert report["config"]["max_nodes"] == 200_000
    rank = report["rank_estimate"]
    assert max(rank["heights"]) > 1
    assert rank["partial"] == [False] * len(rank["ks"])


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
    data = json.loads(Path(cert_path).read_text())
    data["epsilon"] = 1.5
    Path(cert_path).write_text(canonical_dumps(data))
    assert main(["check", cert_path]) == 1
    assert "rejected:" in capsys.readouterr().out


def test_check_unreadable_certificate(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.json")]) == 1
    assert "rejected: unreadable certificate" in capsys.readouterr().out


_VALID_CERTIFICATE = json.loads(
    (Path(__file__).parent / "fixtures" / "valid_certificate.json").read_text()
)

#: Certificate documents that `check` refuses rather than crash on or read as
#: another certificate (int() alone would read J = [1.9, 3.5] as [1, 3]).
_UNREADABLE_CERTIFICATES = {
    "not an object": ([], "must be a JSON object"),
    "J not a list": (dict(_VALID_CERTIFICATE, J=5), "J must be a list of integers"),
    "margins not a list": (dict(_VALID_CERTIFICATE, margins=0.6), "margins must be a list of lists"),
    "witnesses one level deep": (
        dict(_VALID_CERTIFICATE, witnesses=[1.0]), "witnesses must be a list of lists"
    ),
    "fractional J": (dict(_VALID_CERTIFICATE, J=[1.9, 3.5]), "J must be a list of integers"),
    "fractional depth": (dict(_VALID_CERTIFICATE, depth=1.2), "depth must be an integer"),
    "a bool in J": (dict(_VALID_CERTIFICATE, J=[True, 3]), "J must be a list of integers"),
    "a bool depth": (dict(_VALID_CERTIFICATE, depth=True), "depth must be an integer"),
}


@pytest.mark.parametrize("name", _UNREADABLE_CERTIFICATES)
def test_check_refuses_a_certificate_it_cannot_read_exactly(tmp_path, capsys, name):
    data, message = _UNREADABLE_CERTIFICATES[name]
    with pytest.raises(ValueError, match=message):
        NSECertificate.from_json_dict(data)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().out.startswith("rejected: unreadable certificate: ")


# -- tree ------------------------------------------------------------------

def test_tree_json_and_dot(tmp_path, capsys):
    spec_path = _write_spec(tmp_path, "zero(4)")
    dot_path = tmp_path / "tree.dot"
    assert main([
        "tree", spec_path, "--epsilon", "0.25", "--depth-cap", "4",
        "--index-bound", "16", "--dot", str(dot_path), "--seed", "0",
    ]) == 0
    trunc = canonical_loads(capsys.readouterr().out)
    assert trunc["epsilon"] == 0.25
    assert trunc["probe_label"].endswith("(seed=0x0)")  # seed 0 is valid
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


@pytest.mark.parametrize("name, epsilon", [("rotation(1.0)", "0.25"), ("zero(4)", "0.5")])
def test_tree_budget_at_the_member_count_exits_zero(tmp_path, capsys, name, epsilon):
    spec_path = _write_spec(tmp_path, name)
    args = ["tree", spec_path, "--epsilon", epsilon, "--depth-cap", "4", "--index-bound", "32"]
    assert main(args) == 0
    count = len(canonical_loads(capsys.readouterr().out)["members"])
    assert main([*args, "--max-nodes", str(count)]) == 0
    assert canonical_loads(capsys.readouterr().out)["partial"] is False
    assert main([*args, "--max-nodes", str(count - 1)]) == 3
    trunc = canonical_loads(capsys.readouterr().out)
    assert trunc["partial"] is True and len(trunc["members"]) == count - 1


# -- parser ----------------------------------------------------------------

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "ergorank" in capsys.readouterr().out


def test_main_parses_each_call_afresh_with_one_parser(tmp_path, monkeypatch):
    # The parser is built once per process; two calls in a row, with
    # different subcommands and flags, share no parsed values or defaults.
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    spec_path = _write_spec(tmp_path, "scalar(0.5)")
    first, second = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main([
        "analyze", spec_path, "--no-cache", "--horizon", "300", "--ue-horizon", "40",
        "--tol", "0.05", "--probes", "basis", "--seed", "7", "--index-bound", "8",
        "--out", first,
    ]) == 0
    assert main(["gallery", "zero(3)", "--out", str(tmp_path / "zero.json")]) == 0
    assert main(["analyze", spec_path, "--no-cache", "--horizon", "200", "--index-bound", "16",
                 "--out", second]) == 0
    assert built == [1]
    cli._parser.cache_clear()
    config = canonical_loads(Path(first).read_text())["config"]
    assert (config["horizon"], config["ue_horizon"], config["tolerance"]) == (300, 40, 0.05)
    assert (config["probes"], config["seed"], config["index_bound"]) == ("basis", 7, 8)
    config = canonical_loads(Path(second).read_text())["config"]
    assert (config["horizon"], config["ue_horizon"], config["index_bound"]) == (200, 200, 16)
    assert config["tolerance"] == cli.DEFAULT_TOLERANCE
    assert (config["probes"], config["seed"]) == ("default", cli.DEFAULT_SEED)
    zero = OperatorSpec.from_json_dict(canonical_loads((tmp_path / "zero.json").read_text()))
    assert zero.dim == 3


def test_missing_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("analyze", "--depth-cap", "0"),
        ("analyze", "--index-bound", "0"),
        ("analyze", "--horizon", "0"),
        ("analyze", "--tol", "0"),
        ("analyze", "--ue-horizon", "0"),
        ("analyze", "--nse-epsilon", "0"),
        ("analyze", "--bound-cap", "0"),
        ("analyze", "--tol", "nan"),
        ("tree", "--epsilon", "-1"),
        ("tree", "--max-nodes", "0"),
        ("tree", "--depth-cap", "0"),
        ("certify", "--depth", "0"),
        ("certify", "--epsilon", "0"),
        ("certify", "--index-bound", "0"),
        ("analyze", "--seed", "-1"),
        ("tree", "--seed", "-1"),
        ("certify", "--seed", "-1"),
    ],
)
def test_non_positive_numbers_exit_with_usage_error(tmp_path, capsys, command, option, value):
    # Invalid input exits 2 with a usage line, not a traceback and exit 1
    # ("certificate not found").
    spec_path = _write_spec(tmp_path, "identity(8)")
    required = {"tree": ["--epsilon", "0.5"], "certify": ["--epsilon", "0.5", "--depth", "2"]}
    argv = [command, spec_path, "--no-cache"] if command == "analyze" else [command, spec_path]
    with pytest.raises(SystemExit) as exc:
        main([*argv, *required.get(command, []), option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    must = "non-negative" if option == "--seed" else "positive"
    assert err.startswith("usage: ") and f"argument {option}: must be {must}" in err

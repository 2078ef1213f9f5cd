"""Golden digests of `ergorank analyze` reports on the built-in gallery,
and on three operators above `DENSE_CAP`, where uniform ergodicity is read
off the probe pass and can only inherit its Cesaro-bounded ``fails`` (a
shift, the identity, and a Jordan block whose powers grow).

Each digest is the sha256 of a canonical report with its `timings` block
removed, at horizon 512 (Cesaro-bounded in dense mode under ``auto`` for
dims <= 32) and at horizon 2000 (probe mode).  A refactor must leave
every byte of these reports alone; an intended output change regenerates
the fixture and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py > tests/fixtures/analyze_golden.json

Re-recording prints to stderr each horizon and name whose digest differs
from the fixture committed at git HEAD (the redirect empties the working
copy before the script starts).
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from ergorank.cli import main
from ergorank.operators import built_in_gallery, gallery
from ergorank.serialization import canonical_dumps, canonical_loads, sha256_hex

FIXTURE = Path(__file__).parent / "fixtures" / "analyze_golden.json"
HORIZONS = (512, 2000)
ABOVE_DENSE_CAP = ["left_shift_l1(600)", "identity(600)", "jordan_1(600)"]
NAMES = built_in_gallery() + ABOVE_DENSE_CAP


def report_digest(name: str, horizon: int, workdir: str) -> str:
    spec_path = os.path.join(workdir, "spec.json")
    out_path = os.path.join(workdir, "report.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        handle.write(canonical_dumps(gallery(name).to_json_dict()))
    code = main([
        "analyze", spec_path, "--no-cache", "--horizon", str(horizon),
        "--ue-horizon", "64", "--index-bound", "16", "--out", out_path,
    ])
    assert code == 0
    with open(out_path, encoding="utf-8") as handle:
        report = canonical_loads(handle.read())
    report.pop("timings")
    return sha256_hex(canonical_dumps(report))


def committed_digests() -> dict:
    """The fixture at git HEAD, or {} where git cannot show it."""
    try:
        shown = subprocess.run(
            ["git", "show", f"HEAD:./{FIXTURE.name}"], cwd=FIXTURE.parent,
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return {}
    return json.loads(shown.stdout)


@pytest.mark.parametrize("horizon", HORIZONS)
def test_analyze_reports_match_golden_digests(horizon, tmp_path):
    golden = json.loads(FIXTURE.read_text())[str(horizon)]
    assert sorted(golden) == sorted(NAMES)
    got = {name: report_digest(name, horizon, str(tmp_path)) for name in NAMES}
    assert got == golden


if __name__ == "__main__":
    golden = committed_digests()
    with tempfile.TemporaryDirectory() as workdir:
        digests = {
            str(h): {name: report_digest(name, h, workdir) for name in NAMES}
            for h in HORIZONS
        }
    for h, names in digests.items():
        for name, digest in names.items():
            if golden.get(h, {}).get(name) != digest:
                sys.stderr.write(f"moved: horizon {h} {name}\n")
    sys.stdout.write(json.dumps(digests, indent=2, sort_keys=True) + "\n")

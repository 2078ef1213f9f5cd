"""Smoke test: the demos run to completion against the package in `src`.

Demo 03 (classification at full horizons, several seconds) is left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("prefix", ["01", "02", "04", "05"])
def test_demo_runs(prefix):
    (script,) = (ROOT / "demos").glob(f"{prefix}_*.py")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(script)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr

"""Golden digests of `ergorank tree` output on the built-in gallery.

Each digest is the sha256 of the canonical truncation JSON followed by its
Graphviz DOT rendering, at the default depth cap, index bound and probes,
for epsilon 0.5 and 0.25, plus one case whose node budget cuts the walk
short (exit code 3).  A refactor of the enumeration or of `tree_to_dot`
must leave every byte alone; an intended output change regenerates the
fixture and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_tree_golden.py > tests/fixtures/tree_golden.json
"""

import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from ergorank.cli import main
from ergorank.operators import built_in_gallery, gallery
from ergorank.serialization import canonical_dumps, sha256_hex

FIXTURE = Path(__file__).parent / "fixtures" / "tree_golden.json"
EPSILONS = ("0.5", "0.25")
#: (operator, epsilon, node budget, expected exit code) of the partial case.
PARTIAL = ("left_shift_l1(64)", "0.25", "1000", 3)


def _cases():
    cases = {
        f"{name} eps={eps}": (name, eps, [], 0)
        for eps in EPSILONS
        for name in built_in_gallery()
    }
    name, eps, budget, code = PARTIAL
    cases[f"{name} eps={eps} max-nodes={budget}"] = (name, eps, ["--max-nodes", budget], code)
    return cases


CASES = _cases()


def tree_digest(name: str, epsilon: str, extra: list, code: int, workdir: str) -> str:
    spec_path = os.path.join(workdir, "spec.json")
    out_path = os.path.join(workdir, "tree.json")
    dot_path = os.path.join(workdir, "tree.dot")
    with open(spec_path, "w", encoding="utf-8") as handle:
        handle.write(canonical_dumps(gallery(name).to_json_dict()))
    got = main([
        "tree", spec_path, "--epsilon", epsilon, *extra, "--out", out_path, "--dot", dot_path,
    ])
    assert got == code
    text = Path(out_path).read_text(encoding="utf-8") + Path(dot_path).read_text(encoding="utf-8")
    return sha256_hex(text)


@pytest.mark.parametrize("case", sorted(CASES))
def test_tree_output_matches_golden_digest(case, tmp_path):
    golden = json.loads(FIXTURE.read_text())
    assert sorted(golden) == sorted(CASES)
    assert tree_digest(*CASES[case], str(tmp_path)) == golden[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        digests = {case: tree_digest(*args, workdir) for case, args in CASES.items()}
    sys.stdout.write(json.dumps(digests, indent=2, sort_keys=True) + "\n")

"""The public API is what production code calls.

Every name that `ergorank` exports must be used somewhere other than its
own definition and `__init__.py`: by the library's own modules or by the
benchmark harness under `bench/`.  A name only the tests or the demos use
belongs in the tests (see `tests/reference.py`), not in `__all__`.
"""

import argparse
import ast
import collections
import inspect
import re
from pathlib import Path

import ergorank
from ergorank import cli
from ergorank.cesaro import CesaroStream

ROOT = Path(__file__).resolve().parent.parent
PRODUCTION = [
    path
    for folder in (ROOT / "src" / "ergorank", ROOT / "bench")
    for path in sorted(folder.glob("*.py"))
    if path.name != "__init__.py"
]


def _used_names(path: Path) -> set[str]:
    """Names a module reads, imports or reaches as an attribute.  Definitions
    (def, class, assignment targets) are not uses."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_export_has_a_production_caller():
    used = set().union(*map(_used_names, PRODUCTION))
    unused = [name for name in ergorank.__all__ if name not in used]
    assert unused == []


def test_the_package_and_its_pyproject_name_one_version():
    # The analyze cache keys its reports on `__version__`, so a change that
    # moves report bits bumps both versions together.
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'(?m)^version = "([^"]+)"$', text) == [ergorank.__version__]


def _cesaro_breaches(source: str) -> list[str]:
    """Where a module reaches past the public face of `ergorank.cesaro`: a
    `_`-prefixed name imported from it or read off it, or a `_`-prefixed
    `CesaroStream` method."""
    methods = {name for name in vars(CesaroStream) if name.startswith("_") and not name.endswith("__")}
    breaches = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module in ("cesaro", "ergorank.cesaro"):
            breaches += [alias.name for alias in node.names if alias.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            if node.attr in methods or ast.unparse(node.value).split(".")[-1] == "cesaro":
                breaches.append(node.attr)
    return breaches


def test_the_cesaro_stream_is_read_through_its_public_face():
    # `CesaroStream.chunks` is the one walk every reader takes, so no other
    # module of the package knows how the stream cuts its chunks or forms
    # its powers.
    caught = "from .cesaro import OVERFLOW_LIMIT, _capacity\nstream._doubling(4)\nergorank.cesaro._grid"
    assert sorted(_cesaro_breaches(caught)) == ["_capacity", "_doubling", "_grid"]
    for path in sorted((ROOT / "src" / "ergorank").glob("*.py")):
        if path.name != "cesaro.py":
            assert _cesaro_breaches(path.read_text(encoding="utf-8")) == [], path.name


#: The public surface that analysis behaviour hangs on.  Work the package
#: decides to skip is a rule inside it, never a parameter, flag or
#: environment variable: a change to any of these is a change of interface.
_FAMILIES_SIGNATURE = (
    "(spec: 'OperatorSpec', probes: 'ProbeSet', horizon: 'int', tolerance: 'float', "
    "bound_cap: 'float', ue_horizon: 'int') -> 'FamilyVerdicts'"
)
_REPORT_SIGNATURE = "(spec: 'OperatorSpec', config: 'dict', spec_sha256: 'str') -> 'dict'"
_ANALYZE_OPTIONS = [
    "help", "spec", "horizon", "tol", "bound_cap", "depth_cap", "index_bound", "ue_horizon",
    "nse_epsilon", "out", "no_cache", "probes", "seed",
]
_EXPORTS = [
    "__version__", "OperatorSpec", "ProbeSet", "SpecValidationError", "DimensionMismatchError",
    "CapExceededError", "apply_columns", "matrix_norm", "basis_probes", "default_probes", "gallery",
    "built_in_gallery", "DEFAULT_SEED", "CesaroStream", "OVERFLOW_LIMIT", "Verdict", "HOLDS", "FAILS",
    "INCONCLUSIVE", "FamilyVerdicts", "check_families", "check_power_bounded", "check_cesaro_bounded",
    "check_ergodic", "check_uniformly_ergodic", "replay_witness", "trusted_horizon", "TreeTruncation",
    "chain_margins", "build_truncation", "truncated_height", "tree_to_dot", "NSECertificate",
    "CheckResult", "RankEstimate", "check_certificate", "search_nse", "rank_estimate",
    "canonical_dumps", "canonical_loads", "sha256_hex",
]


def test_no_knob_joins_the_analysis_interface():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert [a.dest for a in commands.choices["analyze"]._actions] == _ANALYZE_OPTIONS
    assert str(inspect.signature(ergorank.check_families)) == _FAMILIES_SIGNATURE
    assert str(inspect.signature(cli.build_report)) == _REPORT_SIGNATURE
    assert ergorank.__all__ == _EXPORTS


def _callers(source: str) -> dict[str, set[str]]:
    """Per name called directly (`name(...)`) or as an attribute
    (`obj.name(...)`), the functions of a module that call it (``<module>``
    outside any function)."""
    callers, where = collections.defaultdict(set), ["<module>"]

    class Visitor(ast.NodeVisitor):
        def visit_FunctionDef(self, node):
            where.append(node.name)
            self.generic_visit(node)
            where.pop()

        def visit_Call(self, node):
            if isinstance(node.func, ast.Name):
                callers[node.func.id].add(where[-1])
            elif isinstance(node.func, ast.Attribute):
                callers[node.func.attr].add(where[-1])
            self.generic_visit(node)

    Visitor().visit(ast.parse(source))
    return callers


def test_only_the_pass_plans_a_pass():
    # `_scan` is the one code that plans a pass over a block, so no other
    # code builds a `_Scan`, and `classify` builds a `CesaroStream` only
    # where it walks one: the pass itself, a tail radius folded from a fresh
    # walk, and a witness replay.  A second planner that builds scans of a
    # stream it never walks is caught.  The stream's ladder of means is
    # formed only by `_plan`, as it plans which tails it floors, in no
    # module of the package but `classify`; a second caller is caught.  The
    # pass only walks: it calls no settler itself, and nests no function.
    source = "def _unwalked(spec, X):\n    return {1: _Scan(CesaroStream(spec, X), 1, 1.0)}\n"
    caught = _callers(source + "def _floors(stream):\n    return stream.ladder(4)\n")
    assert (caught["_Scan"], caught["CesaroStream"], caught["ladder"]) == ({"_unwalked"}, {"_unwalked"}, {"_floors"})
    callers = _callers((ROOT / "src" / "ergorank" / "classify.py").read_text(encoding="utf-8"))
    assert callers["_Scan"] == {"_scan"}
    assert callers["CesaroStream"] == {"_scan", "_tail_radius", "replay_witness"}
    assert callers["ladder"] == {"_plan"}
    for settler in ("_tail_floor", "_tail_certificate", "ladder"):
        assert "_scan" not in callers[settler], settler
    tree = ast.parse((ROOT / "src" / "ergorank" / "classify.py").read_text(encoding="utf-8"))
    (scan,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_scan"]
    assert not [node for node in ast.walk(scan) if node is not scan and isinstance(node, (ast.FunctionDef, ast.Lambda))]
    for path in sorted((ROOT / "src" / "ergorank").glob("*.py")):
        if path.name != "classify.py":
            assert "ladder" not in _callers(path.read_text(encoding="utf-8")), path.name

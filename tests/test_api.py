"""The public API is what production code calls.

Every name that `ergorank` exports must be used somewhere other than its
own definition and `__init__.py`: by the library's own modules or by the
benchmark harness under `bench/`.  A name only the tests or the demos use
belongs in the tests (see `tests/reference.py`), not in `__all__`.
"""

import ast
import re
from pathlib import Path

import ergorank

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

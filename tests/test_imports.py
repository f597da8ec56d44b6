"""Every module-level import of the package modules and the scripts is used.

No linter is assumed: the check reads each file's syntax tree.  A name
bound by a top-level ``import`` or ``from ... import`` must appear as a name
somewhere in the module (``__init__.py`` re-exports its imports and is
skipped).
"""

from __future__ import annotations

import ast
import pkgutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = [
    *sorted(p for p in (ROOT / "src" / "tropsurf").glob("*.py") if p.name != "__init__.py"),
    *sorted((ROOT / "scripts").glob("*.py")),
]


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports of ``source`` that nothing reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_detector_finds_an_unused_import():
    source = "import os\nimport os.path\nfrom math import gcd, lcm as l\nprint(gcd)\n"
    assert unused_imports(source) == ["os", "os", "l"]
    assert unused_imports("from __future__ import annotations\nimport sys\nsys.exit()\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_no_export_hides_a_submodule():
    """A name in ``tropsurf.__all__`` that is also a submodule binds the
    export, not the module, on ``from tropsurf import <name>``."""
    import tropsurf

    submodules = {m.name for m in pkgutil.iter_modules(tropsurf.__path__)}
    assert sorted(submodules & set(tropsurf.__all__)) == []

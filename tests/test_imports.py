"""Every module-level import of the package modules and the scripts is used,
and so is every private function and class they define.

No linter is assumed: the checks read each file's syntax tree.  A name
bound by a top-level ``import`` or ``from ... import`` must appear as a name
somewhere in the module (``__init__.py`` re-exports its imports and is
skipped).  A function or class named ``_name`` (not a dunder) must be read
by some package module or script other than through its own body, so a
helper that only calls itself counts as dead.
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


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def private_definitions(source: str) -> set[str]:
    """Names of the functions and classes ``source`` defines as ``_name``."""
    return {
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, DEFINITIONS)
        and node.name.startswith("_")
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def references(source: str) -> set[str]:
    """Names that ``source`` reads or imports, leaving out the reads of a
    definition's own name inside its body."""
    found: set[str] = set()

    def visit(node: ast.AST, inside: frozenset[str]) -> None:
        if isinstance(node, DEFINITIONS):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and node.id not in inside:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), frozenset())
    return found


def dead_definitions(sources: list[str]) -> list[str]:
    """Private functions and classes defined in ``sources`` that none reads."""
    read = set().union(*(references(s) for s in sources))
    defined = set().union(*(private_definitions(s) for s in sources))
    return sorted(defined - read)


def test_detector_finds_a_dead_definition():
    runs = "def _runs(n):\n    return _runs(n - 1) if n else []\n"
    helper = "class _Box:\n    def _peek(self):\n        return self\n    def __len__(self):\n        return 0\n"
    caller = "from a import _Box\n_Box()._peek()\n"
    assert dead_definitions([runs, helper]) == ["_Box", "_peek", "_runs"]
    assert dead_definitions([runs, helper, caller]) == ["_runs"]
    assert dead_definitions([runs + "print(_runs(2))\n"]) == []


def test_no_dead_private_definition():
    assert dead_definitions([p.read_text() for p in [*FILES, ROOT / "src" / "tropsurf" / "__init__.py"]]) == []


def test_no_export_hides_a_submodule():
    """A name in ``tropsurf.__all__`` that is also a submodule binds the
    export, not the module, on ``from tropsurf import <name>``."""
    import tropsurf

    submodules = {m.name for m in pkgutil.iter_modules(tropsurf.__path__)}
    assert sorted(submodules & set(tropsurf.__all__)) == []

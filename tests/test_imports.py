"""Every module-level import in the package, the tests and the demos is used.

A stdlib-only stand-in for a linter's unused-import rule: a name bound by a
top-level import must appear somewhere else in the module, as a name, as
the base of an attribute, inside a string annotation, or in ``__all__``.
The package ``__init__`` is skipped: its imports are the public API.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "adasig"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's own import statements, with their line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations such as "signals.InputSignal", and __all__ entries
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"{name} (line {line})" for name, line in imported_names(tree).items()
            if name not in used]


MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "import math\nimport json\nfrom typing import Optional, Sequence\n"
    source += "x: 'Sequence[int]' = json.dumps(1)\n"
    assert unused_imports(source) == ["math (line 1)", "Optional (line 3)"]

"""Every module-level import in the package, the tests and the demos is used.

A stdlib-only stand-in for a linter's unused-import rule: a name bound by a
top-level import must appear somewhere else in the module, as a name, as
the base of an attribute, inside a string annotation, or in ``__all__``.
The package ``__init__`` is skipped: its imports are the public API.

Likewise every top-level def and class of the package, and every public
method of its classes, is referenced somewhere in src/, demos/ or
perfbench/ outside its own definition (a name only tests reach is dead),
and the package writes CSV through one writer, never through np.savetxt.
"""
import ast
import json
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


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def references(tree: ast.Module) -> set[tuple[str, tuple[str, ...]]]:
    """(name, owner) for every name and attribute in the module, leaving out
    ``__all__``. The owner is () at module level, (f,) inside the top-level
    def or class f, and (C, m) inside method m of the top-level class C."""
    refs = set()
    for top in tree.body:
        if isinstance(top, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in top.targets):
            continue
        owner = (top.name,) if isinstance(top, DEFS) else ()
        in_method = {}
        if isinstance(top, ast.ClassDef):
            for item in top.body:
                if isinstance(item, DEFS):
                    in_method |= {id(node): owner + (item.name,) for node in ast.walk(item)}
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                refs.add((node.id, in_method.get(id(node), owner)))
            elif isinstance(node, ast.Attribute):
                refs.add((node.attr, in_method.get(id(node), owner)))
    return refs


def definitions(tree: ast.Module):
    """Top-level defs and classes as (f,), and the public methods of
    top-level classes as (C, m)."""
    for node in tree.body:
        if isinstance(node, DEFS):
            yield (node.name,)
        if isinstance(node, ast.ClassDef):
            yield from ((node.name, item.name) for item in node.body
                        if isinstance(item, DEFS) and not item.name.startswith("_"))


def dead_names(modules: dict[str, str], corpus: dict[str, str]) -> list[str]:
    """Definitions of ``modules`` that no file of ``corpus`` (label ->
    source; it holds the modules too) references outside the definition
    itself. A method counts as referenced by any attribute of its name."""
    refs = {label: references(ast.parse(src)) for label, src in corpus.items()}
    dead = []
    for label, src in modules.items():
        for path in definitions(ast.parse(src)):
            if not any(name == path[-1] and (other != label or owner[:len(path)] != path)
                       for other, names in refs.items() for name, owner in names):
                dead.append(".".join((label, *path)))
    return dead


def test_every_package_name_is_used():
    """Only the package, the demos and the benchmark count as callers: a
    name that only tests reach is dead."""
    def label(p):
        return str(p.relative_to(ROOT).with_suffix(""))

    corpus = {label(p): p.read_text()
              for d in ("src", "demos", "perfbench") for p in (ROOT / d).rglob("*.py")}
    modules = {label(p): p.read_text() for p in SRC.glob("*.py") if p.name != "__init__.py"}
    assert dead_names(modules, corpus) == []


def test_detects_a_dead_name():
    mod = ("__all__ = ['used', 'dead', 'recursive', 'C']\n"
           "def used(): pass\n"
           "def dead(): pass\n"
           "def recursive(n): return recursive(n - 1)\n"
           "class C:\n"
           "    def used_method(self): return self.helper()\n"
           "    def helper(self): pass\n"
           "    def dead_method(self): return self.dead_method()\n"
           "    def _private(self): pass\n")
    corpus = {"m": mod, "user": "import m\nm.used()\nm.C().used_method()\n"}
    assert dead_names({"m": mod}, corpus) == ["m.dead", "m.recursive", "m.C.dead_method"]


def savetxt_references(source: str) -> list[int]:
    """Lines that name savetxt, as np.savetxt or bare after an import."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and node.attr == "savetxt"
                   or isinstance(node, ast.Name) and node.id == "savetxt"})


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_csv_writer(path):
    """Every CSV goes through integrator.write_csv."""
    assert savetxt_references(path.read_text()) == []


def test_detects_a_savetxt_call():
    source = ("import numpy as np\nfrom numpy import savetxt\n"
              "np.savetxt('a.csv', x)\nsavetxt('b.csv', x)\n'np.savetxt in a string'\n")
    assert savetxt_references(source) == [3, 4]


def test_readme_lists_the_config_key_table():
    """The README's "Config keys" table states adasig.config.KEYS: every
    section, key, type and default, in order."""
    from adasig.config import KEYS, REQUIRED

    section = (ROOT / "README.md").read_text().split("\n## Config keys\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = [[cell.strip().strip("`") for cell in line.strip("|").split("|")][:4]
            for line in section.splitlines() if line.startswith("| `")]

    def default(value):
        return "required" if value is REQUIRED else "unset" if value is None else json.dumps(value)

    assert rows == [[name, key, kind, default(value)]
                    for name, keys in KEYS.items() for key, (kind, value) in keys.items()]

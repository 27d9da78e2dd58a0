"""Every module-level import in the package, the tests and the demos is used.

A stdlib-only stand-in for a linter's unused-import rule: a name bound by a
top-level import must appear somewhere else in the module, as a name, as
the base of an attribute or inside a string annotation. The package
``__init__`` binds no names and no module declares ``__all__``: callers
import the modules, so ``adasig.<module>.<name>`` is the one spelling of
every public name.

Likewise every top-level def and class of the package, and every public
method of its classes, is referenced somewhere in src/, demos/ or
perfbench/ outside its own definition (a name only tests reach is dead),
the package writes CSV through one writer, never through np.savetxt,
only plant.py does arithmetic with noise_bound, only integrator.py
spells a trajectory column name, and every dataclass is frozen.
"""
import ast
import json
import re
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
            # string annotations such as "signals.InputSignal"
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


MODULES = sorted(SRC.glob("*.py"))
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
    """(name, owner) for every name and attribute in the module. The owner
    is () at module level, (f,) inside the top-level def or class f, and
    (C, m) inside method m of the top-level class C."""
    refs = set()
    for top in tree.body:
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
    modules = {label(p): p.read_text() for p in SRC.glob("*.py")}
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


def second_spellings(source: str, is_init: bool) -> list[int]:
    """Lines that give a public name a second spelling: an assignment to
    ``__all__``, and in the package ``__init__`` any statement besides its
    docstring."""
    tree = ast.parse(source)
    if is_init:
        return [node.lineno for node in tree.body[1 if ast.get_docstring(tree) else 0:]]
    return sorted({node.lineno for node in ast.walk(tree) if isinstance(node, ast.Name)
                   and node.id == "__all__" and isinstance(node.ctx, ast.Store)})


def test_one_spelling_per_name():
    """adasig.<module>.<name> is the only spelling of a public name: the
    package ``__init__`` is its docstring alone and no module declares
    ``__all__``; a leading underscore marks what is private."""
    found = {p.name: second_spellings(p.read_text(), p.name == "__init__.py")
             for p in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_detects_a_second_spelling():
    init = '"""Docs."""\nfrom .config import VERSION as __version__\nx = 1\n'
    assert second_spellings(init, is_init=True) == [2, 3]
    assert second_spellings('"""Docs only."""\n', is_init=True) == []
    module = ("import math\n"
              "__all__ = ['f']\n"
              "__all__ += ['g']\n"
              "def f(): return math.pi, __all__\n"
              "'__all__ = []'\n")
    assert second_spellings(module, is_init=False) == [2, 3]


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


def noise_bound_arithmetic(source: str) -> list[int]:
    """Lines of binary operations with noise_bound as an operand, bare or
    as an attribute."""
    def is_noise_bound(node):
        return (isinstance(node, ast.Name) and node.id == "noise_bound"
                or isinstance(node, ast.Attribute) and node.attr == "noise_bound")

    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.BinOp)
                   and (is_noise_bound(node.left) or is_noise_bound(node.right))})


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "plant.py"),
                         ids=lambda p: p.name)
def test_one_home_for_the_filter_radius(path):
    """noise_bound enters arithmetic only in PlantSpec.radius; everything
    else asks the plant for its radius."""
    assert noise_bound_arithmetic(path.read_text()) == []


def test_detects_noise_bound_arithmetic():
    source = ("a = (sup + noise_bound) / phi_min\n"
              "b = plant.noise_bound / plant.phi_min\n"
              "c = f(noise_bound, phi_min)\n"
              "d = -x.noise_bound\n"
              "e = 2.0 * spec.noise_bound + 1\n"
              "g = 'noise_bound / phi_min'\n")
    assert noise_bound_arithmetic(source) == [1, 2, 5]


def unfrozen_dataclasses(source: str) -> list[int]:
    """Lines of dataclass decorators, bare or called, without frozen=True."""
    def is_dataclass(node):
        return (isinstance(node, ast.Name) and node.id == "dataclass"
                or isinstance(node, ast.Attribute) and node.attr == "dataclass")

    def frozen(node):
        return any(k.arg == "frozen" and isinstance(k.value, ast.Constant)
                   and k.value.value is True for k in node.keywords)

    return sorted(deco.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ClassDef) for deco in node.decorator_list
                  if is_dataclass(deco)
                  or isinstance(deco, ast.Call) and is_dataclass(deco.func) and not frozen(deco))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_record_is_frozen(path):
    """Every dataclass of the package is frozen: its __post_init__ checks
    cannot be skipped by assigning a field, and dataclasses.replace builds
    a changed copy through them."""
    assert unfrozen_dataclasses(path.read_text()) == []


def test_detects_an_unfrozen_dataclass():
    source = ("import dataclasses\nfrom dataclasses import dataclass\n"
              "@dataclass\nclass A: pass\n"
              "@dataclass()\nclass B: pass\n"
              "@dataclasses.dataclass(eq=False)\nclass C: pass\n"
              "@dataclass(frozen=False)\nclass D: pass\n"
              "@dataclass(frozen=True)\nclass E: pass\n"
              "@dataclasses.dataclass(eq=False, frozen=True)\nclass F: pass\n"
              "@other\nclass G: pass\n"
              "'@dataclass'\n")
    assert unfrozen_dataclasses(source) == [3, 5, 7, 9]


# Trajectory column names besides t and s: shat_i, x_i, y_i, theta_hat_i, hf_i.
LAYOUT_PREFIXES = ("shat_", "x_", "y_", "theta_hat_", "hf_")
LAYOUT_NAME = re.compile(f"({'|'.join(LAYOUT_PREFIXES)})\\d+")


def layout_names(source: str) -> list[int]:
    """Lines that spell a trajectory column name: a constant such as
    "shat_1", or an f-string that starts with one of LAYOUT_PREFIXES and
    then a field."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if LAYOUT_NAME.fullmatch(node.value):
                lines.add(node.lineno)
        elif isinstance(node, ast.JoinedStr) and len(node.values) > 1:
            head, field = node.values[:2]
            if (isinstance(head, ast.Constant) and head.value in LAYOUT_PREFIXES
                    and isinstance(field, ast.FormattedValue)):
                lines.add(node.lineno)
    return sorted(lines)


def test_one_module_knows_the_layout():
    """Only integrator.py names trajectory columns, for the CSV header;
    everything else reads Trajectory.subsystem, theta_hat and hf by index."""
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    found = {p.name: layout_names(p.read_text()) for p in paths if p.name != "integrator.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_detects_a_layout_name():
    source = ('a = read("shat_1")\n'
              'b = read(f"hf_{i + 1}")\n'
              'c = [f"theta_hat_{k}" for k in ks]\n'
              'd = ["s", "y_12"]\n'
              'e = ["shat_", "x_axis", f"max_{i}", f"{i}_x_1", "t,s"]\n'
              'f = f"x_{i}"[1:]\n')
    assert layout_names(source) == [1, 2, 3, 4, 6]


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


def exit_codes(text: str) -> list[int]:
    """The codes that text's "Exit codes:" sentence lists: the number, in
    backticks or not, after its colon and after each comma."""
    sentence = " ".join(text.split("Exit codes:", 1)[1].split()).split(". ", 1)[0]
    return [int(code) for code in re.findall(r"(?:^|, )`?(\d+)`? ", sentence)]


def test_exit_codes_are_documented():
    """README's "Exit codes:" sentence and the cli module docstring list
    exactly the values of cli's EXIT_* constants."""
    from adasig import cli

    codes = sorted(value for name, value in vars(cli).items() if name.startswith("EXIT_"))
    assert exit_codes((ROOT / "README.md").read_text()) == codes
    assert exit_codes(cli.__doc__) == codes


def test_reads_an_exit_code_sentence():
    text = "Intro.\nExit codes: `0` ok, `1` bad,\n`7` worse, 12 other. Then 2, 3.\n"
    assert exit_codes(text) == [0, 1, 7, 12]


def test_readme_shows_the_kernel_source():
    """The README's `def rhs(q, s, xi_val):` block is bank_kernel's
    source for the one-class bank the README states."""
    from adasig import prototype, signals

    text = (ROOT / "README.md").read_text()
    assert ("for a one-class bank with `a = 1.1`, `b = 2.2`, `gamma = 0.05`, "
            "`epsilon = 0`, `delta = 0.001` and `phi_min = 1`") in " ".join(text.split())
    (block,) = re.findall(r"\n```\n(def rhs\(q, s, xi_val\):\n.*?\n)```\n", text, re.S)
    config = prototype.PrototypeConfig(gamma=0.05, a=1.1, b=2.2, epsilon=0.0, delta=0.001)
    bank = [(signals.builtin_class("linear", (1.3, 2.0)), config)]
    assert block == prototype.bank_kernel(bank, 1.0).__doc__

"""Layering: no ``grs`` module reads another ``grs`` module's private
names.  Each exact-arithmetic rule has one home below every module that
uses it, and the users import its public name.  And no ``grs`` module
checks an invariant with ``assert``, which ``python -O`` removes."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "grs"
MODULES = {path.stem for path in SRC.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _grs_module(name: str | None, level: int) -> str | None:
    """The grs module that ``from <level dots><name> import ...`` names."""
    if level == 1:
        return name or "grs"
    if level == 0 and name and (name == "grs" or name.startswith("grs.")):
        return name.removeprefix("grs.")
    return None


def cross_module_private_uses(path: Path) -> list[str]:
    """Each import of an underscore name from another grs module, and each
    read of an underscore attribute of another grs module or of a name
    imported from one (``module._name``, ``Class._name``), in ``path``."""
    own = path.stem
    tree = ast.parse(path.read_text(), str(path))
    bound = {}  # local name -> "module" or "module.Name" it stands for
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            home = _grs_module(node.module, node.level)
            for alias in node.names:
                local = alias.asname or alias.name
                if home == "grs" and alias.name in MODULES:  # from . import m
                    bound[local] = alias.name
                elif home in MODULES and home != own:
                    if _private(alias.name):
                        uses.append(f"{own}: from {home} import {alias.name}")
                    bound[local] = f"{home}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                home = _grs_module(alias.name, 0)
                if home in MODULES and alias.asname:
                    bound[alias.asname] = home
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            target = bound.get(node.value.id, own)
            if target.split(".")[0] != own and _private(node.attr):
                uses.append(f"{own}: {target}.{node.attr}")
    return uses


def test_guard_sees_each_kind_of_use(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from . import correlation, np\n"
        "from .sequences import Sequence, _fitted\n"
        "from grs.field import _as_kelem\n"
        "from .probe import _own\n"
        "def f(spec):\n"
        "    from . import qcomplex as q\n"
        "    return (correlation._peak(spec), q._frac(1), Sequence._of, correlation.psl,\n"
        "            np._core, _own._x)\n"
    )
    assert sorted(cross_module_private_uses(source)) == [
        "probe: correlation._peak",
        "probe: from field import _as_kelem",
        "probe: from sequences import _fitted",
        "probe: qcomplex._frac",
        "probe: sequences.Sequence._of",
    ]


def test_no_module_reads_another_modules_private_names():
    uses = [use for path in sorted(SRC.glob("*.py")) for use in cross_module_private_uses(path)]
    assert uses == []


def asserts_in(path: Path) -> list[str]:
    """Each ``assert`` statement in ``path``, as module:line."""
    tree = ast.parse(path.read_text(), str(path))
    return [f"{path.stem}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_assert_guard_sees_an_assert(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("def f(x):\n    assert x > 0, 'x'\n    return x\n")
    assert asserts_in(source) == ["probe:2"]


def test_no_module_checks_with_assert():
    found = [where for path in sorted(SRC.glob("*.py")) for where in asserts_in(path)]
    assert found == []

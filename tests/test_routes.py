"""The four routes stay independent: each route module imports from the
package only what this table allows, so no route can compute its answer
from another's.  Imports under ``if TYPE_CHECKING:`` are for annotations
only and are not counted."""

import ast
from pathlib import Path

import pytest

import euler_refine

PACKAGE = Path(euler_refine.__file__).resolve().parent

# Whether each (module, name) a route imports from the package is allowed.
# ``from . import x`` is recorded as (x, "*").
ALLOWED = {
    "perm": lambda module, name: module == "report",
    "seq": lambda module, name: module == "report",
    "series": lambda module, name: False,
    "bij": lambda module, name: module == "perm",
}


def package_imports(tree):
    """(module, name) for every package import in `tree` outside
    ``if TYPE_CHECKING:`` blocks, at any depth."""
    found = []

    def visit(node):
        if isinstance(node, ast.If) and (
                getattr(node.test, "id", None) == "TYPE_CHECKING"
                or getattr(node.test, "attr", None) == "TYPE_CHECKING"):
            for child in node.orelse:
                visit(child)
            return
        if isinstance(node, ast.ImportFrom):
            package, _, base = (node.module or "").partition(".")
            if node.level:
                base = node.module or ""
            if node.level or package == "euler_refine":
                found.extend((base, a.name) if base else (a.name, "*") for a in node.names)
        elif isinstance(node, ast.Import):
            found.extend((a.name.partition(".")[2] or "*", "*") for a in node.names
                         if a.name.partition(".")[0] == "euler_refine")
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


@pytest.mark.parametrize("route", ALLOWED)
def test_each_route_imports_only_what_it_is_allowed(route):
    tree = ast.parse((PACKAGE / f"{route}.py").read_text(encoding="utf-8"))
    imports = package_imports(tree)
    assert [imp for imp in imports if not ALLOWED[route](*imp)] == [], route


def test_the_scan_sees_nested_and_absolute_imports_but_not_type_checking_ones():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "from .report import CountTable\n"
        "if TYPE_CHECKING:\n"
        "    from . import bij\n"
        "else:\n"
        "    import euler_refine.verify\n"
        "def f():\n"
        "    from . import series\n"
        "    from euler_refine import perm\n"
    )
    assert package_imports(tree) == [
        ("report", "CountTable"), ("verify", "*"), ("series", "*"), ("perm", "*")]

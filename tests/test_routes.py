"""The four routes stay independent: each route module imports from the
package only what this table allows, so no route can compute its answer
from another's.  Imports under ``if TYPE_CHECKING:`` are for annotations
only and are not counted."""

import ast
from pathlib import Path

import pytest

import euler_refine
from euler_refine import series
from euler_refine.verify import run_verification

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


@pytest.fixture
def fresh_sec_and_tan():
    """sec and tan are cached per order; build them anew, and drop what was built."""
    series.sec_egf.cache_clear()
    series.tan_egf.cache_clear()
    yield
    series.sec_egf.cache_clear()
    series.tan_egf.cache_clear()


def test_a_wrong_series_binomial_fails_only_the_series_reports(monkeypatch, fresh_sec_and_tan):
    """The series route keeps its own Pascal triangle: one wrong entry in it,
    C(4, 2), which sec's reciprocal reads, must fail every formula vs egf report.
    The formulas to degree 6 read row 4 of their own triangle, so the enumeration
    vs formula reports and the theorem chain must still pass."""
    rows = list(series._pascal_rows(40))
    rows[4] = (1, 4, 7, 4, 1)
    monkeypatch.setattr(series, "_ROWS", rows)
    reports = run_verification(6, 40)
    series_reports = [r for r in reports if (r.left_method, r.right_method) == ("formula", "egf")]
    enum_reports = [r for r in reports if (r.left_method, r.right_method) == ("enumeration", "formula")]
    chain = [r for r in reports if r.identity == "even-degree theorem chain"]
    assert len(series_reports) == 5 and all(r.failures() for r in series_reports)
    assert len(enum_reports) == 5 and not any(r.failures() for r in enum_reports)
    assert len(chain) == 1 and not chain[0].failures()


def test_seq_imports_nothing_from_series():
    imports = package_imports(ast.parse((PACKAGE / "seq.py").read_text(encoding="utf-8")))
    assert [imp for imp in imports if imp[0] == "series"] == []


def test_verify_runs_the_bijection_check_of_bij_and_no_module_binds_globals():
    """``verify`` reads of ``bij`` only the unit check it deals out and that
    check's record, no core, and no module rebinds a global name."""
    tree = ast.parse((PACKAGE / "verify.py").read_text(encoding="utf-8"))
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "bij"}
    assert read <= {"_check_subtree", "_DegreeResult"}, read
    assert [imp for imp in package_imports(tree) if imp[0] == "bij"] == [("bij", "*")]
    bound = {path.name for path in PACKAGE.glob("*.py")
             if any(isinstance(node, ast.Global)
                    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))}
    assert bound == set()


def test_verify_handles_no_packed_record():
    """``bij`` both packs the unit record and reads it: ``verify`` defines no
    reader, makes no bytes and reads no packed field."""
    tree = ast.parse((PACKAGE / "verify.py").read_text(encoding="utf-8"))
    nodes = list(ast.walk(tree))
    assert not {node.name for node in nodes if isinstance(node, ast.FunctionDef)} & {
        "_records", "_list_text"}
    assert not [node for node in nodes if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == "bytes"]
    assert not {node.attr for node in nodes if isinstance(node, ast.Attribute)} & {
        "images", "smu_values"}

"""The package namespace: every public name resolves on first access, and
importing the package alone loads none of its modules.  The console script
that pyproject.toml declares is `cli.main`, and the command lines that CI runs
through the installed script run here through `python -m euler_refine.cli`,
each output that CI pins by its sha256 with that hash."""

import hashlib
import importlib
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import euler_refine

from helpers import fresh_env

ROOT = Path(__file__).resolve().parent.parent

# Every name the package exported when it imported all of its modules up
# front, and each one added since, with the module it comes from.
EXPORTS = {
    "Decomposition": "bij", "compose_maxmin": "bij", "compose_smu": "bij",
    "decompose_maxmin": "bij", "decompose_smu": "bij", "maxmin_to_smu": "bij",
    "smu_to_maxmin": "bij", "swap_top_two": "bij",
    "AltKind": "perm", "Classification": "perm", "MinMaxKind": "perm",
    "Permutation": "perm", "SecondMaxKind": "perm", "classify": "perm",
    "count_refinements": "perm", "enumerate_alternating": "perm",
    "CheckEntry": "report", "CountTable": "report", "VerifyReport": "report",
    "e_down_recurrence": "seq", "e_ne_formula": "seq",
    "e_ne_nw_pair": "seq", "e_nw_formula": "seq", "e_up_formula": "seq",
    "e_up_terms": "seq", "euler_numbers": "seq", "theorem_check": "seq",
    "TruncatedEGF": "series", "cos_egf": "series", "ddown_egf": "series",
    "dup_egf": "series", "edown_egf": "series",
    "egf_add": "series", "egf_mul": "series", "egf_reciprocal": "series",
    "ene_egf": "series", "enw_egf": "series", "eup_egf": "series",
    "extract_counts": "series", "one_egf": "series", "sec_egf": "series",
    "sin_egf": "series", "tan_egf": "series",
    "bijection_checks": "verify", "run_verification": "verify",
}
SUBMODULES = ("bij", "cli", "perm", "report", "seq", "series", "verify", "workers")


@pytest.mark.parametrize("name", EXPORTS)
def test_each_name_resolves_to_its_home_module_object(name):
    home = importlib.import_module(f"euler_refine.{EXPORTS[name]}")
    namespace: dict = {}
    exec(f"from euler_refine import {name}", namespace)
    assert getattr(euler_refine, name) is getattr(home, name)
    assert namespace[name] is getattr(home, name)


def test_all_and_dir_list_every_name():
    assert sorted(euler_refine.__all__) == sorted(EXPORTS)
    assert set(EXPORTS) | set(SUBMODULES) <= set(dir(euler_refine))
    assert euler_refine.__version__ == "0.1.0"


def test_each_submodule_resolves_through_the_package():
    for name in SUBMODULES:
        assert getattr(euler_refine, name) is importlib.import_module(f"euler_refine.{name}")


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        euler_refine.no_such_name
    with pytest.raises(ImportError):
        exec("from euler_refine import no_such_name", {})


def run_fresh(code):
    return subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                          text=True, env=fresh_env(), timeout=60)


def test_importing_the_package_loads_no_submodule():
    proc = run_fresh("import sys, euler_refine\n"
                     "print(sorted(m for m in sys.modules if m.startswith('euler_refine.')))")
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")


def test_star_import_binds_every_name_without_warnings():
    proc = run_fresh("from euler_refine import *\n"
                     f"missing = set({sorted(EXPORTS)!r}) - set(globals())\n"
                     "print(sorted(missing))")
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")


def test_the_console_script_is_cli_main():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r"^euler-refine = (.*)$", pyproject, re.MULTILINE) == [
        '"euler_refine.cli:main"']


def installed_script_runs() -> list[tuple[list[str], str]]:
    """Each CI line that runs the script: its argv, and the name of the file
    its stdout is redirected to, or "" without a redirect."""
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    lines = [shlex.split(line)
             for line in re.findall(r"^ +(euler-refine\b.*)$", workflow, re.MULTILINE)]
    return [(argv[:argv.index(">")], Path(argv[argv.index(">") + 1]).name) if ">" in argv
            else (argv, "") for argv in lines]


# The sha256 of each output that CI checks with sha256sum -c, by file name.
PINNED = dict(reversed(line.split()) for line in (
    ROOT / "tests" / "bijection-check-n11.sha256").read_text(encoding="utf-8").splitlines())


def test_ci_runs_the_installed_script():
    lines = [argv for argv, _ in installed_script_runs()]
    assert [argv[1] for argv in lines] == ["--help", "table", "table", "bijection-check",
                                           "bijection-check", "bijection-check",
                                           "bijection-check", "bijection-check", "ratios",
                                           "verify"]
    assert any("--cap" in argv for argv in lines)  # an enumeration above its default cap
    # Every pinned output is written by one line.
    assert sorted(name for _, name in installed_script_runs() if name in PINNED) == sorted(PINNED)


@pytest.mark.parametrize("argv, target", installed_script_runs(),
                         ids=[" ".join(argv) for argv, _ in installed_script_runs()])
def test_each_installed_script_line_of_ci_exits_0(argv, target):
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "euler_refine.cli", *argv[1:]],
                          capture_output=True, text=True, env=fresh_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout
    if target in PINNED:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == PINNED[target]

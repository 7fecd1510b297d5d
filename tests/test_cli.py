"""CLI behaviour: golden outputs, formats, caps, exit codes."""

import json
import os
import stat
import subprocess
import sys

import pytest

from euler_refine import euler_numbers
from euler_refine.cli import main
from euler_refine.report import CheckEntry, VerifyReport
from euler_refine.verify import SEQUENCES

from helpers import EDOWN, ENE, ENW, EULER, EUP, fresh_env, parse_bfile


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def table_cells(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("-")]
    return [line.split() for line in lines[1:]]


def test_table_matches_reference_rows(capsys):
    rc, out, _ = run_cli(capsys, "table", "--max-n", "9")
    assert rc == 0
    rows = table_cells(out)
    for row in rows:
        n = int(row[0])
        assert [int(x) for x in row[1:]] == [
            EULER[n], ENE[n - 2], ENW[n - 2], EUP[n - 2], EDOWN[n - 2]
        ]
    assert len(rows) == 8


def test_table_single_row(capsys):
    rc, out, _ = run_cli(capsys, "table", "--max-n", "2")
    rows = table_cells(out)
    assert rc == 0
    assert rows == [["2", "1", "1", "0", "0", "1"]]


def test_table_formula_reaches_degree_12(capsys):
    rc, out, _ = run_cli(capsys, "table", "--max-n", "12", "--method", "formula",
                         "--format", "json")
    assert rc == 0
    rows = {int(r["n"]): r for r in json.loads(out)["rows"]}
    assert rows[12]["E"] == "2702765"


def test_table_methods_agree(capsys):
    rc_f, out_f, _ = run_cli(capsys, "table", "--max-n", "8", "--format", "json")
    rc_e, out_e, _ = run_cli(capsys, "table", "--max-n", "8", "--format", "json",
                             "--method", "enum")
    rc_g, out_g, _ = run_cli(capsys, "table", "--max-n", "8", "--format", "json",
                             "--method", "egf")
    assert rc_f == rc_e == rc_g == 0
    assert json.loads(out_f)["rows"] == json.loads(out_e)["rows"] == json.loads(out_g)["rows"]
    rc_a, out_a, _ = run_cli(capsys, "table", "--max-n", "8", "--format", "json",
                             "--method", "all")
    assert rc_a == 0
    assert json.loads(out_a)["methods"]["E"] == "enum=formula=egf"


def test_table_route_disagreement_is_a_verification_failure(capsys, monkeypatch):
    from euler_refine import seq

    formula = seq.e_up_formula
    monkeypatch.setattr(seq, "e_up_formula", lambda n, ee=None: formula(n, ee) + (n == 5))
    rc, out, err = run_cli(capsys, "table", "--method", "all", "--max-n", "6")
    assert rc == 1
    assert err == "error: route disagreement for Eup at n=5: formula 13, egf 12, enum 12\n"
    assert "Traceback" not in err
    assert out == ""


def test_table_with_down_up_columns(capsys):
    rc, out, _ = run_cli(capsys, "table", "--max-n", "9", "--populations", "both",
                         "--method", "all", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["methods"]["Dup"] == payload["methods"]["Ddown"] == "enum=formula=egf"
    rows = {r["n"]: r for r in payload["rows"]}
    assert (rows[4]["Dup"], rows[4]["Ddown"]) == ("4", "1")
    assert rows[2]["Ddown"] == "1"
    assert rows[9]["Dup"] == "7936"


def _wrong_dup_formula(monkeypatch):
    dup = SEQUENCES["Dup"]
    monkeypatch.setitem(SEQUENCES, "Dup", dup._replace(
        formula=lambda ee, n: dup.formula(ee, n) + (n == 5)))


def _wrong_dup_series(monkeypatch):  # E shifted two steps, without taking Ddown's sec off
    from euler_refine import series

    dup_egf = series.dup_egf
    monkeypatch.setattr(series, "dup_egf", lambda k: dup_egf(k) + series.sec_egf(k))


def _wrong_ddown_formula(monkeypatch):  # E_{n-2} at odd n too
    monkeypatch.setitem(SEQUENCES, "Ddown", SEQUENCES["Ddown"]._replace(
        formula=lambda ee, n: ee[n - 2]))


def _wrong_ddown_series(monkeypatch):  # sec + tan in place of sec
    from euler_refine import series

    monkeypatch.setattr(series, "ddown_egf", lambda k: series.sec_egf(k) + series.tan_egf(k))


@pytest.mark.parametrize("corrupt, expected", [
    (_wrong_dup_formula, "error: route disagreement for Dup at n=5: formula 17, egf 16, enum 16\n"),
    (_wrong_dup_series, "error: route disagreement for Dup at n=2: formula 0, egf 1, enum 0\n"),
    (_wrong_ddown_formula, "error: route disagreement for Ddown at n=3: formula 1, egf 0, enum 0\n"),
    (_wrong_ddown_series, "error: route disagreement for Ddown at n=3: formula 0, egf 1, enum 0\n"),
], ids=["Dup formula", "Dup series", "Ddown formula", "Ddown series"])
def test_table_down_up_route_disagreement_is_a_verification_failure(
        capsys, monkeypatch, corrupt, expected):
    corrupt(monkeypatch)
    rc, out, err = run_cli(capsys, "table", "--method", "all", "--populations", "both",
                           "--max-n", "6")
    assert rc == 1
    assert err == expected
    assert out == ""


@pytest.mark.parametrize("argv", [["table", "--method", "enum"],
                                  ["table", "--method", "all", "--populations", "both"]],
                         ids=" ".join)
def test_a_population_mismatch_is_one_error_line(capsys, monkeypatch, argv):
    from euler_refine import perm

    count_kind = perm._count_kind

    def one_short(n, kind):
        by_bits = count_kind(n, kind)
        if kind is perm.AltKind.DOWN_UP and n == 5:
            by_bits[0] -= 1
        return by_bits

    monkeypatch.setattr(perm, "_count_kind", one_short)
    perm.count_refinements.cache_clear()
    try:
        rc, out, err = run_cli(capsys, *argv, "--max-n", "6")
    finally:
        perm.count_refinements.cache_clear()
    assert (rc, out, err) == (2, "", "error: population mismatch at degree 5: 16 vs 15\n")


def test_table_enumeration_cap(capsys):
    rc, _, err = run_cli(capsys, "table", "--max-n", "15", "--method", "enum")
    assert rc == 2
    assert "cap 14" in err


def test_cap_flag_and_env(capsys, monkeypatch):
    monkeypatch.setenv("EULER_REFINE_CAP", "9")
    argv = ("table", "--method", "enum", "--populations", "both", "--max-n", "10")
    rc, _, err = run_cli(capsys, *argv)
    assert rc == 2 and "cap 9" in err
    rc, out, _ = run_cli(capsys, *argv, "--cap", "10", "--format", "json")
    assert rc == 0
    assert json.loads(out)["rows"][-1]["Dup"] == "49136"


def test_cap_env_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("EULER_REFINE_CAP", "many")
    # Every subcommand that takes --cap reads the environment, also without enumerating.
    for argv in (["table"], ["verify"], ["bijection-check"]):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2 and "EULER_REFINE_CAP" in err, argv
        assert out == "", argv


@pytest.mark.parametrize("argv", [["ratios"], ["export", "--sequence", "E"]], ids=" ".join)
def test_commands_without_a_cap_do_not_read_its_environment(capsys, monkeypatch, argv):
    monkeypatch.setenv("EULER_REFINE_CAP", "many")
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, err) == (0, "")
    assert out


@pytest.mark.parametrize("argv", [
    ["export", "--sequence", "Dup", "--max-n", "12", "--cap", "5"],
    ["ratios", "--cap", "5"],
    ["openq"],
], ids=" ".join)
def test_removed_commands_and_options_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_verify_passes_above_the_enumeration_cap_when_it_is_raised(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--max-n", "15", "--cap", "15")
    assert rc == 0
    assert "overall: PASS" in out


def test_verify_passes_at_reduced_scale(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--max-n", "6", "--egf-order", "10")
    assert rc == 0
    assert "overall: PASS" in out
    assert "FAIL" not in out


def test_verify_json_structure(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--max-n", "4", "--egf-order", "6",
                         "--format", "json")
    assert rc == 0
    reports = json.loads(out)
    assert all(r["pass"] for r in reports)
    assert {"identity", "methods", "pass", "entries"} <= set(reports[0])


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    failing = VerifyReport("forced failure", "formula", "formula",
                           [CheckEntry(2, "x", 0, 1)])
    monkeypatch.setattr("euler_refine.cli.run_verification",
                        lambda *a, **k: [failing])
    rc, out, _ = run_cli(capsys, "verify", "--max-n", "4")
    assert rc == 1
    assert "overall: FAIL" in out
    assert "left=0 right=1" in out


def test_bijection_check_exit_code_on_failure(capsys, monkeypatch):
    failing = VerifyReport("forced failure", "enumeration", "enumeration",
                           [CheckEntry(3, "x", 1, 0)])
    monkeypatch.setattr("euler_refine.cli.bijection_checks", lambda *a, **k: [failing])
    rc, out, _ = run_cli(capsys, "bijection-check", "--max-n", "4")
    assert rc == 1
    assert "overall: FAIL" in out
    assert "n=3 x: left=1 right=0" in out


@pytest.mark.parametrize("error", [
    ValueError("min-max split 1+1 != 3"),
    ValueError("population mismatch at degree 3: 2 vs 1"),
])
def test_verify_reports_enumeration_faults_as_failures(capsys, monkeypatch, error):
    def broken(n):
        raise error
    monkeypatch.setattr("euler_refine.perm.count_refinements", broken)
    rc, out, err = run_cli(capsys, "verify", "--max-n", "4", "--egf-order", "6")
    assert rc == 1
    assert "[FAIL] alternating count: enumeration vs triangle" in out
    assert f"(left: {error})" in out
    assert "overall: FAIL" in out
    assert "Traceback" not in err


def test_ratios_output(capsys):
    rc, out, _ = run_cli(capsys, "ratios", "--max-n", "10")
    assert rc == 0
    assert out.count("undefined") == 4  # n = 2 and 3, fraction and decimal
    assert "61/1324" in out
    assert "0.04607250755" in out
    assert "nonincreasing over even n: yes" in out
    assert "no limit is asserted" in out.lower()


def test_ratios_json_odd_degrees_are_exactly_one(capsys):
    rc, out, _ = run_cli(capsys, "ratios", "--max-n", "9", "--format", "json")
    payload = json.loads(out)
    assert rc == 0
    odd = [r for r in payload["rows"] if r["parity"] == "odd" and r["n"] >= 3]
    assert all(r["Enw/Ene"] == "1/1" and r["Enw/Ene decimal"] == "1" for r in odd)
    nine = [r for r in payload["rows"] if r["n"] == 9][0]
    assert nine["Edown/Eup"] == "17/231"
    assert payload["deviation |Enw/Ene - 1| nonincreasing over even n"] is True


@pytest.mark.parametrize("name", list(SEQUENCES))
def test_export_equals_the_enumerated_table_column(capsys, name):
    rc, out, _ = run_cli(capsys, "export", "--sequence", name, "--max-n", "9",
                         "--format", "json")
    assert rc == 0
    rc, table, _ = run_cli(capsys, "table", "--method", "enum", "--populations", "both",
                           "--max-n", "9", "--format", "json")
    assert rc == 0
    column = [row[name] for row in json.loads(table)["rows"]]
    # The table starts at degree 2; the b-file of E starts at degree 0.
    assert json.loads(out)[2 - SEQUENCES[name].offset:] == column


def test_export_json_golden(capsys):
    rc, out, _ = run_cli(capsys, "export", "--sequence", "Eup", "--max-n", "9",
                         "--format", "json")
    assert rc == 0
    assert json.loads(out) == ["0", "0", "4", "12", "56", "240", "1324", "7392"]


def test_export_bfile_golden(capsys):
    rc, out, _ = run_cli(capsys, "export", "--sequence", "E", "--max-n", "3")
    assert rc == 0
    assert out == "0 1\n1 1\n2 1\n3 2\n"


def test_export_single_entry(capsys):
    rc, out, _ = run_cli(capsys, "export", "--sequence", "Enw", "--max-n", "2")
    assert rc == 0
    assert out == "2 0\n"


def test_export_csv(capsys):
    rc, out, _ = run_cli(capsys, "export", "--sequence", "Edown", "--max-n", "4",
                         "--format", "csv")
    assert rc == 0
    assert out == "n,Edown\n2,1\n3,2\n4,1\n"


def test_export_round_trip(tmp_path, capsys):
    path = tmp_path / "e.txt"
    rc, _, _ = run_cli(capsys, "export", "--sequence", "E", "--max-n", "12",
                       "--out", str(path))
    assert rc == 0
    entries = parse_bfile(path.read_text())
    assert [v for _, v in entries] == euler_numbers(12)
    assert [n for n, _ in entries] == list(range(13))


def test_export_round_trip_refinement_offset(tmp_path, capsys):
    from euler_refine import e_up_formula, euler_numbers

    path = tmp_path / "eup.txt"
    rc, _, _ = run_cli(capsys, "export", "--sequence", "Eup", "--max-n", "20",
                       "--out", str(path))
    assert rc == 0
    entries = parse_bfile(path.read_text())
    ee = euler_numbers(20)
    assert entries == [(n, e_up_formula(n, ee)) for n in range(2, 21)]


def test_out_is_left_intact_when_the_rename_fails(tmp_path, capsys, monkeypatch):
    target = tmp_path / "E.txt"
    target.write_text("previous contents\n")

    def failing_replace(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(os, "replace", failing_replace)
    rc, out, err = run_cli(capsys, "export", "--sequence", "E", "--max-n", "5",
                           "--out", str(target))
    assert rc == 2
    assert "simulated rename failure" in err
    assert target.read_text() == "previous contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["E.txt"]


def test_out_keeps_the_permissions_of_the_file_it_replaces(tmp_path, capsys):
    target = tmp_path / "E.txt"
    target.write_text("previous contents\n")
    target.chmod(0o600)
    rc, _, _ = run_cli(capsys, "export", "--sequence", "E", "--max-n", "3",
                       "--out", str(target))
    assert rc == 0
    assert stat.S_IMODE(target.stat().st_mode) == 0o600
    assert target.read_text() == "0 1\n1 1\n2 1\n3 2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["E.txt"]


def test_out_through_a_symlink_writes_the_link_target(tmp_path, capsys):
    target = tmp_path / "E.txt"
    target.write_text("previous contents\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    rc, _, _ = run_cli(capsys, "export", "--sequence", "E", "--max-n", "3",
                       "--out", str(link))
    assert rc == 0
    assert link.is_symlink()
    assert target.read_text() == "0 1\n1 1\n2 1\n3 2\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["E.txt", "link.txt"]


def test_export_unknown_sequence(capsys):
    rc, _, err = run_cli(capsys, "export", "--sequence", "Nope", "--max-n", "5")
    assert rc == 2
    assert "valid names" in err and "Ddown" in err


def test_export_rejects_table_format(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "export", "--sequence", "E", "--format", "table")
    assert exc.value.code == 2


def test_bijection_check(capsys):
    rc, out, _ = run_cli(capsys, "bijection-check", "--max-n", "6")
    assert rc == 0
    assert "overall: PASS" in out
    assert "doubling map bijectivity" in out


def test_outputs_are_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "--max-n", "4", "--egf-order", "6",
                          "--format", "json")
    _, second, _ = run_cli(capsys, "verify", "--max-n", "4", "--egf-order", "6",
                           "--format", "json")
    assert first == second
    _, t1, _ = run_cli(capsys, "table", "--max-n", "7", "--format", "csv")
    _, t2, _ = run_cli(capsys, "table", "--max-n", "7", "--format", "csv")
    assert t1 == t2


def test_usage_error_without_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# Each bad command line and a piece of the one error line it must print.
BAD_INPUT = [
    (["verify", "--max-n", "1"], "error: --max-n must be at least 2\n"),
    (["export", "--sequence", "E", "--max-n", "-1"], "error: --max-n must be nonnegative\n"),
    (["export", "--sequence", "E", "--max-n", "5", "--out", "{missing}/x"],
     "No such file or directory: '{missing}/x'\n"),
    (["table", "--max-n", "5", "--cap", "-3"], "error: --cap must be non-negative, got -3\n"),
    (["verify", "--max-n", "3", "--egf-order", "199"],
     "error: --egf-order 199 exceeds 198: its series checks reach degree 201"),
    (["verify", "--max-n", "15"], "error: --max-n 15 exceeds the enumeration cap 14; "
     "raise it with --cap or EULER_REFINE_CAP\n"),
    (["bijection-check", "--max-n", "12"], "error: --max-n 12 exceeds the enumeration cap 11; "
     "raise it with --cap or EULER_REFINE_CAP\n"),
]


@pytest.mark.parametrize("argv, expected", [
    pytest.param(argv, expected, id=f"argv{i}") for i, (argv, expected) in enumerate(BAD_INPUT)
])
def test_bad_input_exits_2_without_traceback(tmp_path, argv, expected):
    missing = tmp_path / "missing"
    argv = [a.format(missing=missing) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "euler_refine.cli", *argv],
                          capture_output=True, text=True, env=fresh_env(), timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert expected.format(missing=missing) in proc.stderr
    assert ".tmp" not in proc.stderr.replace(str(missing), "")
    assert proc.stdout == ""


# A new interpreter runs the code after `bare = set(sys.modules)` and then
# prints, as the last line of stderr, the modules it loaded that a bare
# interpreter had not.
LOADED = """
import sys
bare = set(sys.modules)
{code}
sys.stdout.flush()
print(" ".join(sorted(set(sys.modules) - bare)), file=sys.stderr)
sys.exit(rc)
"""
ENUMERATION = {"euler_refine.perm", "euler_refine.bij", "euler_refine.workers"}
FORMATTERS = {"json", "csv", "decimal", "fractions"}
# What generates classes at import time; no command needs it, as the
# records are named tuples and slotted classes.
CLASS_BUILDERS = {"dataclasses", "inspect"}


def loaded_in_a_fresh_interpreter(code):
    proc = subprocess.run([sys.executable, "-c", LOADED.format(code=code)], capture_output=True,
                          text=True, env=fresh_env(), timeout=120)
    assert "Traceback" not in proc.stderr
    *errors, loaded = proc.stderr.split("\n")[:-1]
    return proc, errors, set(loaded.split())


def test_building_the_parser_loads_no_enumeration_and_no_formatter():
    proc, errors, loaded = loaded_in_a_fresh_interpreter(
        "from euler_refine.cli import build_parser\nbuild_parser()\nrc = 0")
    assert (proc.returncode, errors) == (0, [])
    assert "euler_refine.cli" in loaded
    assert not loaded & (ENUMERATION | FORMATTERS | CLASS_BUILDERS)


# Each command line, and which of the enumeration modules it must load;
# it must load none of the others.  Every subcommand, --method, --format
# and population, and the export of an up-down and a down-up sequence.
COMMAND_IMPORTS = [
    (["table", "--max-n", "6"], set()),
    (["table", "--max-n", "6", "--method", "egf", "--format", "json"], set()),
    (["table", "--max-n", "6", "--method", "enum", "--format", "csv"], {"euler_refine.perm"}),
    (["table", "--max-n", "6", "--method", "all"], {"euler_refine.perm"}),
    (["table", "--max-n", "6", "--populations", "both"], set()),
    (["table", "--max-n", "6", "--method", "enum", "--populations", "both"],
     {"euler_refine.perm"}),
    (["verify", "--max-n", "5", "--egf-order", "6"], {"euler_refine.perm"}),
    (["verify", "--max-n", "5", "--egf-order", "6", "--format", "json"], {"euler_refine.perm"}),
    (["ratios", "--max-n", "12"], set()),
    (["ratios", "--max-n", "12", "--format", "csv"], set()),
    (["table", "--max-n", "9", "--method", "all", "--populations", "both", "--format", "json"],
     {"euler_refine.perm"}),
    (["export", "--sequence", "Eup", "--max-n", "9"], set()),
    (["export", "--sequence", "Eup", "--max-n", "9", "--format", "json"], set()),
    (["export", "--sequence", "Dup", "--max-n", "9", "--format", "csv"], set()),
    (["bijection-check", "--max-n", "5"], ENUMERATION),
]


# A set is joined in sorted order, since its iteration order follows the string hash seed.
@pytest.mark.parametrize("argv, needed", COMMAND_IMPORTS,
                         ids=lambda v: " ".join(sorted(v) if isinstance(v, set) else v))
def test_each_command_loads_only_the_modules_it_runs(capsys, argv, needed):
    proc, errors, loaded = loaded_in_a_fresh_interpreter(
        f"from euler_refine.cli import main\nrc = main({argv!r})")
    assert (proc.returncode, errors) == (0, [])
    assert loaded & (ENUMERATION | CLASS_BUILDERS) == needed
    rc, out, _ = run_cli(capsys, *argv)
    assert (rc, out) == (0, proc.stdout)
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "table"
    for formatter in ("json", "csv"):
        if fmt != formatter:
            assert formatter not in loaded

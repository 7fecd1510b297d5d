"""The cross-route verification engine, including its failure paths."""

from euler_refine import bij, bijection_checks, euler_numbers, run_verification
from euler_refine.cli import main

from helpers import smu_set


def test_default_scale_run_passes():
    reports = run_verification(max_n=8, egf_order=14)
    assert reports
    for r in reports:
        assert r.passed, (r.identity, r.failures()[:3])


def test_methods_are_tagged():
    reports = run_verification(max_n=4, egf_order=6)
    tags = {(r.left_method, r.right_method) for r in reports}
    assert ("enumeration", "formula") in tags
    assert ("formula", "egf") in tags
    assert ("egf", "egf") in tags


def test_corrupted_euler_prefix_flags_dependent_identities():
    corrupted = euler_numbers(10)
    corrupted[4] = 6
    reports = {r.identity: r for r in run_verification(max_n=8, egf_order=8,
                                                       euler=corrupted)}
    flagged = {name for name, r in reports.items() if not r.passed}
    assert "Euler numbers: triangle vs sec+tan series" in flagged
    assert "alternating count: enumeration vs triangle" in flagged
    assert "second-max-upper count: enumeration vs convolution" in flagged
    assert "second-max-lower count: enumeration vs recurrence" in flagged
    assert "even-degree theorem chain" in flagged
    assert "series identity: second-max-lower counts vs sec+2tan" in flagged
    # Identities not touching the corrupted prefix stay green.
    assert reports["min-max partition of E_n"].passed
    assert reports["series identity: sec^2 = 1 + tan^2"].passed
    assert reports["series identity: Ene+Enw = Eup+Edown"].passed


def test_exceptions_become_failed_entries():
    # A prefix that is too short breaks the formula legs without
    # aborting the run.
    reports = run_verification(max_n=6, egf_order=8, euler=euler_numbers(5))
    broken = [r for r in reports if not r.passed]
    assert broken
    noted = [e for r in broken for e in r.entries if e.note]
    assert noted and any("too short" in e.note or "index" in e.note for e in noted)


def test_report_serialization_is_deterministic():
    a = [r.to_json_dict() for r in run_verification(max_n=4, egf_order=6)]
    b = [r.to_json_dict() for r in run_verification(max_n=4, egf_order=6)]
    assert a == b


def test_bijection_checks_pass():
    reports = bijection_checks(max_n=7)
    for r in reports:
        assert r.passed, (r.identity, r.failures()[:3])
    names = {r.identity for r in reports}
    assert names == {
        "swap_top_two involution",
        "second-max-upper split round trip",
        "max-min split round trip",
        "doubling map bijectivity",
    }


def test_bijection_failure_names_first_bad_permutation(monkeypatch, capsys):
    original = bij.compose_smu

    def broken(decomposition, n):
        p = original(decomposition, n)
        return bij.swap_top_two(p) if n == 5 else p

    monkeypatch.setattr(bij, "compose_smu", broken)
    first = next(p for p in smu_set(5) if p.position_of(4) < p.position_of(5))
    witness = f"first bad permutation: {first.to_text()}"
    report = {r.identity: r for r in bijection_checks(max_n=6)}["second-max-upper split round trip"]
    failures = report.failures()
    assert [(e.n, e.label, e.note) for e in failures] == [(5, "round-trip failures", witness)]
    assert main(["bijection-check", "--max-n", "6"]) == 1
    assert f"({witness})" in capsys.readouterr().out


def test_passing_bijection_entries_carry_no_note():
    for report in bijection_checks(max_n=6):
        assert all(e.note == "" for e in report.entries)

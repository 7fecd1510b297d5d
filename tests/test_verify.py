"""The cross-route verification engine, including its failure paths."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import euler_refine
from euler_refine import bij, bijection_checks, euler_numbers, perm, run_verification, verify
from euler_refine.cli import main

from helpers import ONE_CPU, TWO_CPUS, maxmin_set, smu_set


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


def _use_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)


def _entries(reports):
    return [(r.identity, e.n, e.label, e.left, e.right, e.note)
            for r in reports for e in r.entries]


def test_shard_count_does_not_change_the_reports(monkeypatch, capsys):
    outputs = []
    for cpus in (ONE_CPU, TWO_CPUS):
        _use_cpus(monkeypatch, cpus)
        reports = bijection_checks(max_n=8)
        assert main(["bijection-check", "--max-n", "8", "--format", "json"]) == 0
        outputs.append((_entries(reports), capsys.readouterr().out))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("cpus", [ONE_CPU, TWO_CPUS])
@pytest.mark.parametrize("name", ["compose_smu", "smu_to_maxmin"])
def test_a_raising_map_fails_the_run_with_a_witness(monkeypatch, capfd, cpus, name):
    # Forked workers inherit the patched map.
    def broken(*args):
        raise ValueError("broken map")

    _use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(bij, name, broken)
    reports = bijection_checks(max_n=6)
    failures = [e for r in reports for e in r.failures()]
    assert failures
    noted = [e for e in failures if "raised ValueError: broken map" in e.note]
    assert noted and all(e.note.startswith("first bad permutation: ") for e in noted)
    assert main(["bijection-check", "--max-n", "6"]) == 1
    out, err = capfd.readouterr()
    assert "FAIL" in out and "raised ValueError: broken map" in out
    assert "Traceback" not in out + err


def test_the_first_failure_in_enumeration_order_is_named(monkeypatch):
    # One failure in each of two shards: the first comes from the forked
    # worker, the second from this process.
    bad = maxmin_set(8)[0], maxmin_set(8)[-1]
    original = bij.decompose_maxmin

    def broken(p):
        if p in bad:
            raise ValueError(f"cannot split {p}")
        return original(p)

    _use_cpus(monkeypatch, TWO_CPUS)
    monkeypatch.setattr(bij, "decompose_maxmin", broken)
    report = {r.identity: r for r in bijection_checks(max_n=8)}["max-min split round trip"]
    first = bad[0].to_text()
    assert [(e.n, e.left, e.note) for e in report.failures()] == [
        (8, 2, f"first bad permutation: {first} raised ValueError: cannot split {first}")
    ]


def _cold_run(monkeypatch, capfd, cpus, args):
    """Exit code, stdout and stderr of one CLI run with no counts cached."""
    _use_cpus(monkeypatch, cpus)
    perm.count_refinements.cache_clear()
    try:
        code = main(args)
    finally:
        perm.count_refinements.cache_clear()
    return (code, *capfd.readouterr())


COUNTED_RUNS = [["verify", "--max-n", "9"], ["table", "--method", "enum", "--max-n", "9"]]


def _lost_in_a_worker(how, original, here):
    """`original`, whose forked worker exits with code 3 or raises, as
    `how` says; each call in this process is recorded in `here`."""
    parent = os.getpid()

    def lost(*args):
        if os.getpid() != parent:
            if how == "exits":
                os._exit(3)
            raise RuntimeError("results lost")
        here.append(args)
        return original(*args)

    return lost


@pytest.mark.parametrize("how", ["exits", "raises"])
@pytest.mark.parametrize("args", COUNTED_RUNS)
def test_a_lost_count_worker_is_counted_again_here(monkeypatch, capfd, args, how):
    expected = _cold_run(monkeypatch, capfd, ONE_CPU, args)
    assert expected[0] == 0 and expected[2] == ""
    here = []
    monkeypatch.setattr(perm, "_tally_walk", _lost_in_a_worker(how, perm._tally_walk, here))
    assert _cold_run(monkeypatch, capfd, TWO_CPUS, args) == expected
    # The forked shard held the up-down subtrees, and this process walked them.
    assert [first for n, kind, first in here
            if n == 9 and kind is perm.AltKind.UP_DOWN] == list(range(1, 10))


@pytest.mark.parametrize("how", ["exits", "raises"])
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_a_lost_bijection_worker_is_checked_again_here(monkeypatch, capfd, fmt, how):
    args = ["bijection-check", "--max-n", "6", "--format", fmt]
    expected = _cold_run(monkeypatch, capfd, ONE_CPU, args)
    assert expected[0] == 0 and expected[2] == ""
    here = []
    monkeypatch.setattr(verify, "_check_unit", _lost_in_a_worker(how, verify._check_unit, here))
    assert _cold_run(monkeypatch, capfd, TWO_CPUS, args) == expected
    # This process checked the forked shard's permutations as well as its
    # own: every one of them, once.
    checked = [(n, p.values) for (n, smu, maxmin), in here for p in (*smu, *maxmin)]
    assert sorted(checked) == sorted(
        (n, p.values) for n in range(2, 7)
        for p in smu_set(n) + (maxmin_set(n) if n % 2 == 0 else ()))


@pytest.mark.parametrize("args", COUNTED_RUNS + [["bijection-check", "--max-n", "6"]])
def test_a_shard_that_cannot_fork_runs_here(monkeypatch, capfd, args):
    expected = _cold_run(monkeypatch, capfd, ONE_CPU, args)

    def cannot_fork():
        raise OSError("no process for the worker")

    monkeypatch.setattr(os, "fork", cannot_fork)
    assert _cold_run(monkeypatch, capfd, TWO_CPUS, args) == expected


def test_importing_the_cli_does_not_import_multiprocessing():
    # Nor does running the two sharded paths on two CPUs.
    src = str(Path(euler_refine.__file__).resolve().parent.parent)
    code = """if True:
        import contextlib, io, os, sys
        os.sched_getaffinity = lambda pid: {0, 1}
        from euler_refine.cli import main
        seen = ['multiprocessing' in sys.modules]
        for args in (['verify', '--max-n', '11'], ['bijection-check', '--max-n', '6']):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(args) == 0
            seen.append('multiprocessing' in sys.modules)
        print(seen)
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.stdout.strip() == "[False, False, False]", proc.stderr

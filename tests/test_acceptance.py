"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every comparison is exact integer or rational equality.
"""

import time

from euler_refine import (
    AltKind,
    SecondMaxKind,
    classify,
    count_refinements,
    e_down_recurrence,
    e_ne_nw_pair,
    e_nw_formula,
    e_up_formula,
    e_up_terms,
    edown_egf,
    ene_egf,
    enumerate_alternating,
    enw_egf,
    euler_numbers,
    eup_egf,
    extract_counts,
    maxmin_to_smu,
    sec_egf,
    smu_to_maxmin,
    swap_top_two,
    tan_egf,
    theorem_check,
)
from euler_refine.bij import compose_maxmin, compose_smu, decompose_maxmin, decompose_smu
from euler_refine.cli import main, minmax_deviation_nonincreasing, ratios_data

from helpers import EDOWN, ENE, ENW, EULER, EUP, maxmin_set, smu_set, updown


def check(num, description, limit_s, failures, elapsed):
    ok = not failures and elapsed < limit_s
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description} "
          f"({elapsed:.2f}s, limit {limit_s}s)")
    assert not failures, failures[:10]
    assert elapsed < limit_s, f"took {elapsed:.2f}s, limit {limit_s}s"


def test_criterion_1_golden_tables():
    start = time.perf_counter()
    failures = []
    if len(list(enumerate_alternating(1, AltKind.UP_DOWN))) != EULER[1]:
        failures.append("E_1 != 1")
    for n in range(2, 10):
        t = count_refinements(n)
        expected = (EULER[n], ENE[n - 2], ENW[n - 2], EUP[n - 2], EDOWN[n - 2])
        got = (t.e, t.ene, t.enw, t.eup, t.edown)
        if got != expected:
            failures.append(f"n={n}: {got} != {expected}")
    check(1, "brute force reproduces the reference tables for n=2..9",
          10, failures, time.perf_counter() - start)


def test_criterion_2_formula_vs_enumeration():
    start = time.perf_counter()
    failures = []
    ee = euler_numbers(10)
    for n in range(2, 11):
        t = count_refinements(n)
        if e_up_formula(n, ee) != t.eup:
            failures.append(f"e_up_formula({n}) = {e_up_formula(n, ee)} != {t.eup}")
        if e_down_recurrence(n, ee) != t.edown:
            failures.append(f"e_down_recurrence({n}) != {t.edown}")
        if e_ne_nw_pair(n, ee) != (t.ene, t.enw):
            failures.append(f"e_ne_nw_pair({n}) != ({t.ene}, {t.enw})")
        if n % 2 == 0 and e_nw_formula(n, ee) != t.enw:
            failures.append(f"e_nw_formula({n}) != {t.enw}")
    check(2, "every formula matches brute force for n <= 10",
          60, failures, time.perf_counter() - start)


def test_criterion_3_egf_route():
    start = time.perf_counter()
    order = 18
    failures = []
    ee = euler_numbers(order + 2)
    routes = [
        ("Ene", ene_egf(order), lambda n, ee: e_ne_nw_pair(n, ee)[0]),
        ("Enw", enw_egf(order), lambda n, ee: e_ne_nw_pair(n, ee)[1]),
        ("Eup", eup_egf(order), e_up_formula),
        ("Edown", edown_egf(order), e_down_recurrence),
    ]
    for name, f, formula in routes:
        counts = extract_counts(f)
        for m in range(order + 1):
            if counts[m] != formula(m + 2, ee):
                failures.append(f"{name}: series a_{m} = {counts[m]} != {formula(m + 2, ee)}")
    check(3, "series coefficients at order 18 equal the shifted sequences",
          5, failures, time.perf_counter() - start)


def test_criterion_4_secant_tangent_counts():
    start = time.perf_counter()
    failures = []
    triangle = euler_numbers(30)
    via_series = extract_counts(sec_egf(30) + tan_egf(30))
    if triangle != via_series:
        failures.append("triangle vs series mismatch at order 30")
    if triangle[8] != 1385 or triangle[9] != 7936:
        failures.append(f"E_8, E_9 = {triangle[8]}, {triangle[9]}")
    check(4, "triangle and series routes agree through degree 30",
          5, failures, time.perf_counter() - start)


def test_criterion_5_theorem_identities():
    start = time.perf_counter()
    report = theorem_check(40)
    failures = [
        f"n={e.n} {e.label}: {e.left} != {e.right}" for e in report.failures()
    ]
    ns = {e.n for e in report.entries}
    if ns != set(range(2, 41, 2)):
        failures.append(f"checked degrees {sorted(ns)}")
    check(5, "even-degree identity chain holds for n <= 40 by formula alone",
          5, failures, time.perf_counter() - start)


def test_criterion_6_bijection_suite():
    start = time.perf_counter()
    failures = []
    for n in range(2, 11):
        for p in smu_set(n):
            q = swap_top_two(p)
            if q == p or swap_top_two(q) != p:
                failures.append(f"involution broken at {p}")
            if classify(q).secondmax is not SecondMaxKind.UPPER:
                failures.append(f"involution leaves the set at {p}")
    for n in range(2, 10):
        for p in smu_set(n):
            if p.position_of(n - 1) > p.position_of(n):
                continue
            if compose_smu(decompose_smu(p), n) != p:
                failures.append(f"smu round trip broken at {p}")
        if n % 2 == 0:
            for p in maxmin_set(n):
                if compose_maxmin(decompose_maxmin(p), n) != p:
                    failures.append(f"max-min round trip broken at {p}")
    expected_sizes = {4: 4, 6: 56, 8: 1324}
    for n in (4, 6, 8):
        sources = maxmin_set(n)
        images = set()
        for p in sources:
            for side in (0, 1):
                q = maxmin_to_smu(p, side)
                images.add(q)
                if smu_to_maxmin(q) != (p, side):
                    failures.append(f"inverse broken at ({p}, {side})")
        if len(images) != 2 * len(sources) or len(images) != expected_sizes[n]:
            failures.append(f"degree {n}: image size {len(images)}")
        if images != set(smu_set(n)):
            failures.append(f"degree {n}: image is not the second-max-upper set")
    check(6, "involution, round trips, and the 2-to-1 correspondence are exact",
          120, failures, time.perf_counter() - start)


def test_criterion_7_worked_example_degree_8():
    start = time.perf_counter()
    failures = []
    terms = e_up_terms(8)
    expected = {
        (1, 1, 4): 150,
        (1, 3, 2): 120,
        (1, 5, 0): 96,
        (3, 1, 2): 120,
        (3, 3, 0): 80,
        (5, 1, 0): 96,
    }
    if dict(terms) != expected:
        failures.append(f"terms {terms}")
    if sorted(v for _, v in terms) != sorted([150, 120, 120, 96, 80, 96]):
        failures.append("term multiset mismatch")
    if 2 * sum(v for _, v in terms) != 1324:
        failures.append("total != 1324")
    check(7, "degree-8 convolution enumerates the six expected triples",
          5, failures, time.perf_counter() - start)


def test_criterion_8_open_problem_data(capsys):
    start = time.perf_counter()
    failures = []
    for n in range(2, 11):
        t = count_refinements(n)
        if t.dup + t.ddown != t.e:
            failures.append(f"partition broken at n={n}")
    rows = ratios_data(40)
    if not minmax_deviation_nonincreasing(rows):
        failures.append("|Enw/Ene - 1| increased along even degrees <= 40")
    if main(["table", "--max-n", "10", "--populations", "both", "--method", "all"]) != 0:
        failures.append("table of both populations failed")
    if main(["ratios", "--max-n", "40"]) != 0:
        failures.append("ratios command failed")
    out = capsys.readouterr().out
    if "nonincreasing over even n: yes" not in out:
        failures.append("ratios output does not report the deviation trend")
    check(8, "down-up data partitions E_n and the min-max deviation never grows",
          60, failures, time.perf_counter() - start)

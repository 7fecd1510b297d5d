"""Formula routes against frozen reference rows and the enumeration oracle."""

import pickle
import random
from math import comb, factorial

import pytest

from euler_refine import (
    CountTable,
    TruncatedEGF,
    count_refinements,
    ddown_egf,
    dup_egf,
    e_down_recurrence,
    e_ne_formula,
    e_ne_nw_pair,
    e_nw_formula,
    e_up_formula,
    e_up_terms,
    edown_egf,
    ene_egf,
    enw_egf,
    euler_numbers,
    eup_egf,
    extract_counts,
    sec_egf,
    tan_egf,
    theorem_check,
)
from euler_refine.verify import SEQUENCES

from helpers import (
    EDOWN,
    ENE,
    ENW,
    EULER,
    EUP,
    double_sum_e_nw,
    knuth_buckholtz_euler,
    per_degree_three_block,
)


def test_euler_numbers_first_ten():
    assert euler_numbers(9) == EULER


def test_euler_numbers_start():
    assert euler_numbers(0) == [1]


def test_euler_numbers_against_series_route():
    for order in (12, 30):
        assert euler_numbers(order) == extract_counts(sec_egf(order) + tan_egf(order))


def test_euler_numbers_equal_the_knuth_buckholtz_recurrences_to_200():
    assert knuth_buckholtz_euler(0) == [1]
    assert knuth_buckholtz_euler(9) == EULER
    assert euler_numbers(200) == knuth_buckholtz_euler(200)


def test_down_up_series_sum_to_the_euler_numbers_to_200():
    assert extract_counts(dup_egf(198) + ddown_egf(198)) == euler_numbers(200)[2:]


def test_down_up_formulas_equal_their_series_to_200():
    ee = euler_numbers(200)
    for name, egf in (("Dup", dup_egf), ("Ddown", ddown_egf)):
        formula = SEQUENCES[name].formula
        assert [formula(ee, n) for n in range(2, 201)] == extract_counts(egf(198)), name


def test_e_up_reference_row():
    assert [e_up_formula(n) for n in range(2, 10)] == EUP
    assert e_up_formula(9) == 7392


def test_e_up_worked_example_degree_8():
    terms = dict(e_up_terms(8))
    assert terms == {
        (1, 1, 4): 150,
        (1, 3, 2): 120,
        (1, 5, 0): 96,
        (3, 1, 2): 120,
        (3, 3, 0): 80,
        (5, 1, 0): 96,
    }
    assert sorted(terms.values()) == sorted([150, 120, 120, 96, 80, 96])
    assert 2 * sum(terms.values()) == 1324 == e_up_formula(8)


def test_e_up_formula_is_twice_the_term_sum():
    ee = euler_numbers(40)
    for n in range(2, 41):
        assert e_up_formula(n, ee) == 2 * sum(term for _, term in e_up_terms(n, ee)), n


def test_e_up_small_degrees_are_zero():
    assert e_up_formula(2) == 0
    assert e_up_formula(3) == 0
    with pytest.raises(ValueError):
        e_up_formula(1)


def test_e_up_is_always_even():
    assert all(e_up_formula(n) % 2 == 0 for n in range(2, 26))


def test_e_down_reference_row():
    assert [e_down_recurrence(n) for n in range(2, 10)] == EDOWN
    assert e_down_recurrence(8) == 61
    assert e_down_recurrence(9) == 544
    assert e_down_recurrence(2) == 1
    with pytest.raises(ValueError):
        e_down_recurrence(1)


def test_e_nw_formula_even_degrees():
    assert e_nw_formula(2) == 0
    assert e_nw_formula(8) == 662
    assert [e_nw_formula(n) for n in range(2, 10, 2)] == [ENW[k] for k in (0, 2, 4, 6)]


def test_e_nw_formula_equals_the_double_sum():
    ee = euler_numbers(60)
    for n in range(2, 61, 2):
        assert e_nw_formula(n, ee) == double_sum_e_nw(n, ee), n


def assert_three_block_formulas_equal_the_oracle(ee):
    """Every degree the prefix `ee` covers, against the per-degree three-block sum."""
    for n in range(2, len(ee)):
        assert e_up_formula(n, ee) == 2 * per_degree_three_block(n - 2, ee, 1, 1), n
        if n % 2 == 0:
            ene = per_degree_three_block(n - 2, ee, 0, 0)
            enw = per_degree_three_block(n - 2, ee, 1, 0)
        else:
            ene = enw = ee[n] // 2
        assert (e_ne_formula(n, ee), e_nw_formula(n, ee)) == (ene, enw), n
        assert e_ne_nw_pair(n, ee) == (ene, enw), n


def test_three_block_formulas_equal_the_oracle_to_200():
    assert_three_block_formulas_equal_the_oracle(euler_numbers(200))


def test_three_block_formulas_follow_a_corrupted_prefix():
    ee = euler_numbers(200)
    bad = list(ee)
    bad[37] += 2  # still even, so the odd-degree halves stay integral
    assert_three_block_formulas_equal_the_oracle(bad)
    assert e_up_formula(60, bad) != e_up_formula(60, ee)


def test_three_block_formulas_follow_a_prefix_mutated_in_place():
    ee = euler_numbers(200)
    before = [(e_up_formula(n, ee), e_ne_nw_pair(n, ee)) for n in range(2, 201)]
    ee[37] += 2
    assert_three_block_formulas_equal_the_oracle(ee)
    assert [(e_up_formula(n, ee), e_ne_nw_pair(n, ee)) for n in range(2, 201)] != before


def test_e_nw_formula_at_odd_degree_is_half_of_e_n():
    assert e_nw_formula(7) == 136
    for formula in (e_ne_formula, e_nw_formula):
        with pytest.raises(ValueError, match="E_7 = 1 is not even"):
            formula(7, [1] * 8)


def test_e_nw_degree_10():
    # Two independent routes: the chain identity on the triangle
    # numbers, and direct classification of all up-down permutations.
    ee = euler_numbers(10)
    assert (ee[10] - ee[8]) // 2 == 24568
    assert e_nw_formula(10) == 24568
    assert count_refinements(10).enw == 24568


def test_pair_reference_rows():
    pairs = [e_ne_nw_pair(n) for n in range(2, 10)]
    assert [p[0] for p in pairs] == ENE
    assert [p[1] for p in pairs] == ENW
    assert e_ne_nw_pair(9) == (3968, 3968)
    assert e_ne_nw_pair(6) == (33, 28)
    assert e_ne_nw_pair(3) == (1, 1)


def test_pair_even_difference_is_shifted_euler():
    # ene and enw are separate convolutions; their difference is a theorem.
    ee = euler_numbers(200)
    for n in range(2, 201, 2):
        ene, enw = e_ne_nw_pair(n, ee)
        assert ene - enw == ee[n - 2]


def test_multinomial_coefficients_are_integral():
    # The binomial-product form used in the convolution equals the
    # factorial ratio, which therefore divides exactly.
    for n in range(2, 16):
        total = n - 2
        for s1 in range(1, total + 1, 2):
            for s2 in range(1, total - s1 + 1, 2):
                s3 = total - s1 - s2
                num = factorial(total)
                den = factorial(s1) * factorial(s2) * factorial(s3)
                assert num % den == 0
                assert num // den == comb(total, s1) * comb(total - s1, s2)


def test_formulas_match_enumeration_through_degree_9():
    for n in range(2, 10):
        t = count_refinements(n)
        assert e_up_formula(n) == t.eup
        assert e_down_recurrence(n) == t.edown
        assert e_ne_nw_pair(n) == (t.ene, t.enw)
        if n % 2 == 0:
            assert e_nw_formula(n) == t.enw


def test_formula_sequences_build_the_named_series_at_order_20():
    order = 20
    ee = euler_numbers(order + 2)
    routes = [
        (ene_egf, lambda n: e_ne_nw_pair(n, ee)[0]),
        (enw_egf, lambda n: e_ne_nw_pair(n, ee)[1]),
        (eup_egf, lambda n: e_up_formula(n, ee)),
        (edown_egf, lambda n: e_down_recurrence(n, ee)),
    ]
    for builder, formula in routes:
        shifted = TruncatedEGF([formula(m + 2) for m in range(order + 1)])
        assert shifted == builder(order)


def test_theorem_check_passes():
    report = theorem_check(40)
    assert report.passed
    ns = {e.n for e in report.entries}
    assert ns == set(range(2, 41, 2))


def test_theorem_check_entry_values_degree_8():
    report = theorem_check(8)
    by_key = {(e.n, e.label): (e.left, e.right) for e in report.entries}
    assert by_key[(8, "eup = 2*enw")] == (1324, 1324)
    assert by_key[(2, "ene - enw = E_{n-2}")] == (1, 1)


def test_theorem_check_flags_corruption():
    bad = euler_numbers(12)
    bad[6] = 62
    report = theorem_check(12, bad)
    assert not report.passed
    assert any(not e.passed for e in report.entries if e.n == 8)


def test_theorem_check_tests_the_prefix_in_all_but_its_eup_entry():
    rng = random.Random(41)
    prefix = [2 * rng.randrange(1, 10**6) for _ in range(41)]
    outcomes = {}
    for e in theorem_check(40, prefix).entries:
        outcomes.setdefault(e.label, set()).add(e.passed)
    assert outcomes == {
        "eup = 2*enw": {True},
        "ene - enw = E_{n-2}": {False},
        "E_n = 2*enw + E_{n-2}": {False},
        "E_n = eup + edown": {False},
    }


def test_theorem_check_reports_a_short_prefix_as_one_failed_entry():
    report = theorem_check(8, euler_numbers(5))
    assert report.identity == "even-degree theorem chain"
    assert not report.passed
    assert [(e.n, e.label) for e in report.entries] == [(8, "theorem_check")]
    assert "too short" in report.entries[0].note
    with pytest.raises(ValueError, match="at least 2"):
        theorem_check(1)


def test_euler_prefix_validation():
    with pytest.raises(ValueError, match="too short"):
        e_up_formula(12, euler_numbers(4))


def test_count_table_invariants():
    with pytest.raises(ValueError, match="min-max split"):
        CountTable(n=4, e=5, ene=3, enw=1, eup=4, edown=1, dup=4, ddown=1)
    with pytest.raises(ValueError, match="second-max split"):
        CountTable(n=4, e=5, ene=3, enw=2, eup=3, edown=1, dup=4, ddown=1)
    with pytest.raises(ValueError, match="must be even"):
        CountTable(n=4, e=5, ene=3, enw=2, eup=3, edown=2, dup=4, ddown=1)
    with pytest.raises(ValueError, match="down-up split"):
        CountTable(n=4, e=5, ene=3, enw=2, eup=4, edown=1, dup=4, ddown=2)
    with pytest.raises(ValueError, match="min-max split"):  # positionally too
        CountTable(4, 5, 3, 1, 4, 1, 4, 1)
    with pytest.raises(TypeError):
        CountTable(n=4, e=5, ene=3, enw=2, eup=4, edown=1, ddown=1)
    table = CountTable(n=4, e=5, ene=3, enw=2, eup=4, edown=1, dup=4, ddown=1)
    assert (table.dup, table.ddown) == (4, 1)
    assert repr(table) == "CountTable(n=4, e=5, ene=3, enw=2, eup=4, edown=1, dup=4, ddown=1)"
    assert pickle.loads(pickle.dumps(table)) == table
    with pytest.raises(AttributeError):
        table.e = 6
    with pytest.raises(ValueError, match="min-max split"):
        table._replace(e=6)

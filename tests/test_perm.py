"""Permutation classification and enumeration against hand-checked sets."""

import itertools
import os
import pickle
from collections import Counter
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from euler_refine import (
    AltKind,
    MinMaxKind,
    Permutation,
    SecondMaxKind,
    classify,
    count_refinements,
    ddown_egf,
    dup_egf,
    e_down_recurrence,
    e_ne_nw_pair,
    e_up_formula,
    enumerate_alternating,
    euler_numbers,
    extract_counts,
)

from euler_refine import perm
from euler_refine.perm import _count_kind
from euler_refine.verify import SEQUENCES

from helpers import (
    EDOWN,
    ENE,
    ENW,
    EULER,
    EUP,
    ONE_CPU,
    TWO_CPUS,
    downup,
    enumerate_alternating_by_filter,
    per_leaf_tally_walk,
    recursive_enumerate_alternating,
    reference_classify,
    reference_count_table,
    reference_tally,
    reference_zigzags,
    state_by_state_count_kind,
    updown,
    upper_row,
)

P = Permutation.from_text

# Every up-down permutation of degree 4 and 5, split by the position of
# the second-largest value, written out by hand.
SMU_4 = {"1324", "1423", "2314", "2413"}
SML_4 = {"3412"}
SMU_5 = {
    "14253", "24153", "34152",
    "14352", "24351", "34251",
    "15243", "25143", "35142",
    "15342", "25341", "35241",
}
SML_5 = {"13254", "23154", "45132", "45231"}


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 2, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1))
    # Equal to 1 but not ints: accepted, they would render as 1.032 and True32.
    for first in (1.0, True):
        with pytest.raises(ValueError, match="values must be ints"):
            Permutation((first, 3, 2))
    assert Permutation(()).n == 0


@pytest.mark.parametrize("values", [
    (1, 1), (2, 1, 2), (1, 3, 3),  # duplicates
    (0,), (0, 1), (2, 0, 1),  # 0
    (2,), (1, 3), (3, 1, 4),  # n + 1
    (1, 4, 2, 5), (3, 4, 5), (1, 2.5, 3),  # gaps
])
def test_permutation_rejects_non_permutations(values):
    with pytest.raises(ValueError):
        Permutation(values)


def test_text_round_trip():
    assert P("3572461").values == (3, 5, 7, 2, 4, 6, 1)
    long = Permutation(tuple([10, 1, 12, 2, 11, 3, 9, 4, 8, 5, 7, 6]))
    assert long.to_text() == "10,1,12,2,11,3,9,4,8,5,7,6"
    assert Permutation.from_text(long.to_text()) == long


def test_complement_swaps_kinds():
    # Replacing each value v by n + 1 - v maps the up-down enumeration onto the down-up one.
    for n in range(2, 9):
        assert {tuple(n + 1 - v for v in p.values) for p in updown(n)} == {
            p.values for p in downup(n)}


def test_upper_row():
    assert upper_row(7, AltKind.UP_DOWN) == {2, 4, 6}
    assert upper_row(4, AltKind.DOWN_UP) == {1, 3}
    with pytest.raises(ValueError):
        upper_row(1, AltKind.UP_DOWN)


def test_largest_value_sits_in_upper_row():
    for n in range(2, 9):
        for kind, pool in ((AltKind.UP_DOWN, updown(n)), (AltKind.DOWN_UP, downup(n))):
            rows = upper_row(n, kind)
            assert all(p.position_of(n) in rows for p in pool)


def test_classify_examples():
    c = classify(P("3412"))
    assert (c.kind, c.minmax, c.secondmax) == (
        AltKind.UP_DOWN, MinMaxKind.MAX_MIN, SecondMaxKind.LOWER,
    )
    assert classify(P("13254")).secondmax is SecondMaxKind.LOWER
    assert classify(P("14253")).secondmax is SecondMaxKind.UPPER


def test_classify_rejects_bad_input():
    with pytest.raises(ValueError):
        classify(P("1"))
    with pytest.raises(ValueError):
        classify(P("1234"))


def test_classify_equals_position_oracle():
    for n in range(2, 9):
        for p in updown(n) + downup(n):
            assert classify(p) == reference_classify(p), p


def _outcome(fn, p):
    try:
        return fn(p)
    except ValueError:
        return ValueError


def test_classify_rejects_what_the_oracle_rejects():
    for n in range(0, 7):
        rejected = 0
        for values in itertools.permutations(range(1, n + 1)):
            p = Permutation(values)
            outcome = _outcome(classify, p)
            assert outcome == _outcome(reference_classify, p), p
            rejected += outcome is ValueError
        assert rejected == (factorial(n) if n < 2 else factorial(n) - 2 * EULER[n])


def test_a_filled_classification_is_no_part_of_the_value():
    # A classified permutation keeps its value, hash and pickle, and it
    # takes no attribute: not its values again, nor a classification.
    for n in range(2, 8):
        for p in updown(n) + downup(n):
            filled, fresh = Permutation(p.values), Permutation(p.values)
            c = classify(filled)
            value = (repr(fresh), fresh, hash(fresh))
            assert (repr(filled), filled, hash(filled)) == value
            with pytest.raises(AttributeError):
                fresh.values = filled.values[::-1]
            with pytest.raises(AttributeError):
                fresh.classification = c
            for q in (filled, fresh):
                back = pickle.loads(pickle.dumps(q))
                assert (repr(back), back, hash(back)) == value
                assert classify(back) == c


def test_zigzag_tests_equal_the_definition():
    for n in range(0, 8):
        for values in itertools.permutations(range(1, n + 1)):
            for first_rises in (True, False):
                assert perm._zigzags(values, first_rises) == reference_zigzags(
                    values, first_rises), (values, first_rises)


def test_degree_4_and_5_splits_by_hand():
    for n, smu, sml in ((4, SMU_4, SML_4), (5, SMU_5, SML_5)):
        upper = {p.to_text() for p in updown(n)
                 if classify(p).secondmax is SecondMaxKind.UPPER}
        lower = {p.to_text() for p in updown(n)
                 if classify(p).secondmax is SecondMaxKind.LOWER}
        assert upper == smu
        assert lower == sml


def test_enumerate_degree_4():
    assert [p.to_text() for p in updown(4)] == ["1324", "1423", "2314", "2413", "3412"]


def test_enumerate_degree_1():
    assert list(enumerate_alternating(1, AltKind.UP_DOWN)) == [P("1")]
    assert list(enumerate_alternating(1, AltKind.DOWN_UP)) == [P("1")]


def test_enumerate_counts_match_euler_numbers(monkeypatch):
    for n in range(1, 10):
        assert len(updown(n)) == EULER[n]
        assert len(downup(n)) == EULER[n]
    # The benchmark counts the permutations built by patching __post_init__
    # on the class, so each construction must call it exactly once.
    built, init = [], Permutation.__post_init__
    monkeypatch.setattr(Permutation, "__post_init__", lambda p: (built.append(p), init(p))[1])
    for n in range(1, 8):
        built.clear()
        assert list(enumerate_alternating(n, AltKind.DOWN_UP)) == built
        assert len(built) == EULER[n]
    built.clear()
    p = P("2413")
    q = pickle.loads(pickle.dumps(p))
    assert [p, q] == built and built[0] is p and built[1] is q


def test_enumerate_is_sorted_and_duplicate_free():
    for n in range(2, 8):
        vals = [p.values for p in updown(n)]
        assert vals == sorted(vals)
        assert len(set(vals)) == len(vals)


def test_enumerate_agrees_with_filter_reference():
    for n in range(1, 8):
        for kind in AltKind:
            pruned = list(enumerate_alternating(n, kind))
            filtered = list(enumerate_alternating_by_filter(n, kind))
            assert pruned == filtered


@pytest.mark.parametrize("kind", list(AltKind))
def test_enumerate_agrees_with_the_recursive_walk(kind):
    for n in range(1, 11):
        for first in (None, *range(1, n + 1)):
            assert ([p.values for p in enumerate_alternating(n, kind, first)]
                    == [p.values for p in recursive_enumerate_alternating(n, kind, first)]), first


def test_enumerate_checks_its_arguments_at_the_first_item():
    # A generator function: the call itself raises nothing.
    items = enumerate_alternating(0, AltKind.UP_DOWN)
    with pytest.raises(ValueError, match="degree must be at least 1"):
        next(items)
    items = enumerate_alternating(3, AltKind.UP_DOWN, 4)
    with pytest.raises(ValueError, match="first value must be in 1..3"):
        next(items)


def test_enumerate_refuses_a_kind_that_is_not_an_alt_kind():
    # The value of AltKind.UP_DOWN is no kind: it once ran as down-up.
    items = enumerate_alternating(3, "up-down")
    with pytest.raises(ValueError, match="kind must be an AltKind, got 'up-down'"):
        next(items)


@pytest.mark.parametrize("n", [True, 2.0, "3"])
def test_enumerate_refuses_a_degree_that_is_not_an_int(n):
    # True once ran as degree 1, and 2.0 raised a bare TypeError.
    items = enumerate_alternating(n, AltKind.UP_DOWN)
    with pytest.raises(ValueError, match=f"degree must be an int, got {n!r}"):
        next(items)


@pytest.mark.parametrize("first", [True, 1.0, "1"])
def test_enumerate_refuses_a_first_value_that_is_not_an_int(first):
    # True once came out as the first value of (True, 3, 2).
    for items in (enumerate_alternating(3, AltKind.UP_DOWN, first),
                  perm._walk(3, AltKind.UP_DOWN, first)):
        with pytest.raises(ValueError, match="first value must be in 1..3, got"):
            next(items)


@pytest.mark.parametrize("kind", list(AltKind))
def test_enumerate_by_first_value_concatenates_to_the_whole(kind):
    for n in range(1, 9):
        by_first = []
        for first in range(1, n + 1):
            subtree = list(enumerate_alternating(n, kind, first))
            assert all(p.values[0] == first for p in subtree)
            by_first += subtree
        assert by_first == list(enumerate_alternating(n, kind))


@pytest.mark.parametrize("n, first", [(1, 0), (1, 2), (6, -1), (6, 0), (6, 7)])
def test_enumerate_rejects_a_first_value_outside_the_degree(n, first):
    for kind in AltKind:
        with pytest.raises(ValueError, match=f"first value must be in 1..{n}"):
            list(enumerate_alternating(n, kind, first))


def test_count_refinements_matches_reference_tables():
    for n in range(2, 10):
        t = count_refinements(n)
        assert (t.e, t.ene, t.enw, t.eup, t.edown) == (
            EULER[n], ENE[n - 2], ENW[n - 2], EUP[n - 2], EDOWN[n - 2]
        )
        # The down-up columns have no frozen row; their formulas stand in.
        assert (t.dup, t.ddown) == (SEQUENCES["Dup"].formula(EULER, n),
                                    SEQUENCES["Ddown"].formula(EULER, n)), n


def test_count_refinements_down_up_examples():
    t = count_refinements(4)
    assert (t.dup, t.ddown) == (4, 1)
    assert count_refinements(2).dup == 0
    assert count_refinements(2).ddown == 1


def test_count_refinements_rejects_degree_below_2():
    with pytest.raises(ValueError):
        count_refinements(1)


def marginals(by_bits):
    """(total, min-max, max-min, upper, lower) from the four joint class
    counts, indexed by the min-max bit plus twice the upper bit."""
    total = sum(by_bits)
    minmax, upper = by_bits[1] + by_bits[3], by_bits[2] + by_bits[3]
    return total, minmax, total - minmax, upper, total - upper


def test_count_minmax_populations():
    # The down-up population swaps the two counts of the up-down one.
    def count_minmax(n, kind):
        _, minmax, maxmin, _, _ = marginals(_count_kind(n, kind))
        return minmax, maxmin

    for n in range(2, 8):
        ud = count_minmax(n, AltKind.UP_DOWN)
        du = count_minmax(n, AltKind.DOWN_UP)
        assert du == (ud[1], ud[0])
    assert count_minmax(2, AltKind.UP_DOWN) == (1, 0)
    assert count_minmax(2, AltKind.DOWN_UP) == (0, 1)


@pytest.mark.parametrize("kind", list(AltKind))
def test_count_kind_equals_classify_oracle(kind):
    # Every per-class counter, not only the totals the partitions imply.
    for n in range(2, 10):
        assert marginals(_count_kind(n, kind)) == reference_tally(n, kind), n


@pytest.mark.parametrize("kind", list(AltKind))
def test_count_kind_joint_classes_equal_classify(kind):
    # All four joint classes; the marginals fix only three of them.
    for n in range(2, 10):
        joint = Counter((c.minmax is MinMaxKind.MIN_MAX, c.secondmax is SecondMaxKind.UPPER)
                        for c in map(classify, enumerate_alternating(n, kind)))
        expected = [joint[minmax, upper] for upper in (False, True) for minmax in (False, True)]
        assert _count_kind(n, kind) == expected, n


def test_count_kind_equals_the_per_leaf_oracle():
    for n in range(2, 11):
        for kind in AltKind:
            leaves = [per_leaf_tally_walk(n, kind, first) for first in range(1, n + 1)]
            assert marginals(_count_kind(n, kind)) == tuple(map(sum, zip(*leaves))), (n, kind)


@pytest.mark.parametrize("kind", list(AltKind))
def test_count_kind_equals_the_state_by_state_oracle(kind):
    # All four joint classes, to degrees whose leaves no oracle visits in a test's time.
    for n in range(2, 14):
        assert _count_kind(n, kind) == state_by_state_count_kind(n, kind), n


def test_count_refinements_equals_classify_oracle():
    for n in range(2, 10):
        assert count_refinements(n) == reference_count_table(n), n


@pytest.mark.parametrize("cpus", [ONE_CPU, TWO_CPUS], ids=["one-cpu", "two-cpus"])
def test_count_refinements_does_not_depend_on_the_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    count_refinements.cache_clear()
    try:
        for n in range(2, 10):
            assert count_refinements(n) == reference_count_table(n), n
    finally:
        count_refinements.cache_clear()


def test_count_refinements_rejects_passes_whose_totals_differ(monkeypatch):
    # The up-down and down-up passes are independent; their totals are
    # both E_n, so a difference is an error in the count.
    def one_short(n, kind):
        by_bits = _count_kind(n, kind)
        if kind is AltKind.DOWN_UP:
            by_bits[0] -= 1
        return by_bits

    monkeypatch.setattr(perm, "_count_kind", one_short)
    count_refinements.cache_clear()
    try:
        with pytest.raises(ValueError, match="population mismatch at degree 5: 16 vs 15"):
            count_refinements(5)
    finally:
        count_refinements.cache_clear()


@pytest.mark.parametrize("n", [12, 13, 14, 15])
def test_count_refinements_equals_the_formulas_at_degrees_12_to_15(n):
    # Past the degrees whose leaves an oracle can visit in a test's time.
    ee = euler_numbers(n)
    t = count_refinements(n)
    assert t.e == ee[n]
    assert (t.ene, t.enw) == e_ne_nw_pair(n, ee)
    assert t.eup == e_up_formula(n, ee)
    assert t.edown == e_down_recurrence(n, ee)
    assert t.dup == extract_counts(dup_egf(n - 2))[n - 2] == SEQUENCES["Dup"].formula(ee, n)
    assert t.ddown == extract_counts(ddown_egf(n - 2))[n - 2] == SEQUENCES["Ddown"].formula(ee, n)


def test_second_max_lower_positions_are_extremal():
    # With the second-largest value off the peaks, it is pinned to the
    # first position (next to the maximum), or for odd degree
    # alternatively to the last one.
    for n in range(2, 9):
        for p in updown(n):
            if classify(p).secondmax is not SecondMaxKind.LOWER:
                continue
            pos_second, pos_top = p.position_of(n - 1), p.position_of(n)
            if n % 2 == 0:
                assert (pos_second, pos_top) == (1, 2)
            else:
                assert (pos_second, pos_top) in ((1, 2), (n, n - 1))


@given(st.integers(1, 12).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_text_round_trip_property(values):
    p = Permutation(tuple(values))
    assert Permutation.from_text(p.to_text()) == p

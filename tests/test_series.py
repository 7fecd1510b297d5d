"""Exact series arithmetic: the constructor, ring laws, count extraction."""

import pickle
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euler_refine import (
    TruncatedEGF,
    cos_egf,
    edown_egf,
    egf_add,
    egf_mul,
    egf_reciprocal,
    ene_egf,
    enw_egf,
    eup_egf,
    euler_numbers,
    extract_counts,
    one_egf,
    sec_egf,
    series,
    sin_egf,
    tan_egf,
)

from helpers import (
    EDOWN,
    ENE,
    ENW,
    EULER,
    EUP,
    cauchy_mul,
    cauchy_named_series,
    cauchy_reciprocal,
)


def tangent_numbers(upto):
    """Odd-index counts from the boustrophedon triangle, an independent route."""
    ee = euler_numbers(upto)
    return {n: ee[n] for n in range(1, upto + 1, 2)}


def test_cos_coefficients():
    assert cos_egf(4).coeffs == (1, 0, Fraction(-1, 2), 0, Fraction(1, 24))


def test_sin_coefficients():
    assert sin_egf(3).coeffs == (0, 1, 0, Fraction(-1, 6))


def test_pythagorean_identity():
    order = 8
    c, s = cos_egf(order), sin_egf(order)
    assert c * c + s * s == one_egf(order)


def test_sec_even_counts():
    counts = extract_counts(sec_egf(8))
    assert counts[0::2] == [1, 1, 5, 61, 1385]
    assert counts[1::2] == [0, 0, 0, 0]
    # sec is cached, and every named series shares the instance.
    shared = sec_egf(8)
    with pytest.raises(AttributeError):
        shared.counts = (0,) * 9
    assert sec_egf(8) is shared and extract_counts(shared) == counts


def test_sec_of_order_zero_is_constant_one():
    assert sec_egf(0) == one_egf(0)


def test_tan_odd_counts():
    counts = extract_counts(tan_egf(9))
    assert counts[1::2] == [1, 2, 16, 272, 7936]
    assert counts[0::2] == [0, 0, 0, 0, 0]


def test_sec_plus_tan_counts_euler_numbers():
    order = 200
    counts = extract_counts(sec_egf(order) + tan_egf(order))
    assert counts == euler_numbers(order)
    assert counts[10:13] == [50521, 353792, 2702765]


def test_series_equal_the_cauchy_oracle_at_every_order():
    oracle = cauchy_named_series(40)
    builders = {
        "sec": sec_egf,
        "tan": tan_egf,
        "ene": ene_egf,
        "enw": enw_egf,
        "eup": eup_egf,
        "edown": edown_egf,
    }
    for name, build in builders.items():
        for order in range(41):
            assert build(order).coeffs == oracle[name][:order + 1], (name, order)


@pytest.mark.parametrize("built", [0, 5])
def test_the_shared_triangle_serves_every_order_in_any_order(monkeypatch, built):
    """Products and reciprocals read one triangle kept for the process.  From a
    triangle holding rows 0..built, each visit must read exactly its own rows,
    as tuples, also after a larger order was built, and grow them from a
    smaller one."""
    monkeypatch.setattr(series, "_ROWS", [(1,)])
    series._pascal_rows(built)
    for order in (198, 0, 5, 40, 198):
        f = TruncatedEGF((-1) ** m * (m + 1) for m in range(order + 1))
        g = TruncatedEGF(3 * m - 7 for m in range(order + 1))
        assert egf_mul(f, g).coeffs == cauchy_mul(f.coeffs, g.coeffs), order
        assert egf_reciprocal(f).coeffs == cauchy_reciprocal(f.coeffs), order
        for k in (0, order // 2, order):
            assert series._pascal_rows(k) == [tuple(comb(m, i) for i in range(m + 1))
                                              for m in range(k + 1)], (order, k)


def test_add_requires_equal_orders():
    with pytest.raises(ValueError, match="order mismatch"):
        egf_add(one_egf(3), one_egf(4))
    with pytest.raises(ValueError, match="order mismatch"):
        egf_mul(one_egf(3), one_egf(4))


def test_add_and_mul_reject_a_non_series_operand():
    for op in (lambda f: f + 1, lambda f: 1 + f, lambda f: f * 1.5, lambda f: 1.5 * f):
        with pytest.raises(TypeError, match="unsupported operand"):
            op(tan_egf(3))


def test_add_zero_is_identity():
    f = tan_egf(6)
    assert egf_add(f, TruncatedEGF([0] * 7)) == f


def test_mul_one_is_identity():
    f = sec_egf(6)
    assert egf_mul(f, one_egf(6)) == f


def test_tan_plus_tan_doubles_tangent_numbers():
    doubled = extract_counts(egf_add(tan_egf(3), tan_egf(3)))
    oracle = tangent_numbers(3)
    assert doubled[1] == 2 * oracle[1] == 2
    assert doubled[3] == 2 * oracle[3] == 4


def test_tan_squared_counts():
    # Oracle: a_n(tan^2) = sum over odd i of C(n, i) T_i T_{n-i}.
    oracle = tangent_numbers(5)
    expect = {
        n: sum(
            comb(n, i) * oracle[i] * oracle[n - i]
            for i in range(1, n, 2)
            if (n - i) % 2 == 1
        )
        for n in (2, 4, 6)
    }
    assert expect == {2: 2, 4: 16, 6: 272}
    counts = extract_counts(egf_mul(tan_egf(6), tan_egf(6)))
    assert [counts[2], counts[4], counts[6]] == [2, 16, 272]


def test_reciprocal_of_cos_is_sec():
    assert egf_reciprocal(cos_egf(8)) == sec_egf(8)


def test_reciprocal_of_one_is_one():
    assert egf_reciprocal(one_egf(5)) == one_egf(5)


def test_reciprocal_is_an_involution():
    f = TruncatedEGF((1, 1, 0, 0))
    assert egf_reciprocal(egf_reciprocal(f)) == f


def test_reciprocal_rejects_zero_constant_term():
    with pytest.raises(ValueError, match="constant term"):
        egf_reciprocal(sin_egf(4))


def test_reciprocal_needs_a_unit_constant_term():
    assert egf_reciprocal(TruncatedEGF((-1, 2, 0))) == TruncatedEGF((-1, -2, -8))
    for f0 in (2, -3):
        with pytest.raises(ValueError, match="constant term"):
            egf_reciprocal(TruncatedEGF((f0, 1)))


def test_constructor_rejects_non_integral_counts():
    with pytest.raises(ValueError, match="must be an int"):
        TruncatedEGF((1, Fraction(1, 3)))
    with pytest.raises(ValueError, match="must be an int"):
        sec_egf(3).scale(Fraction(1, 2))
    with pytest.raises(ValueError, match="constant term"):
        TruncatedEGF(())


def test_extract_counts_of_zero_series():
    assert extract_counts(TruncatedEGF([0] * 6)) == [0] * 6


def test_sec_squared_equals_one_plus_tan_squared_up_to_30():
    for order in (0, 1, 7, 16, 30):
        sec, tan = sec_egf(order), tan_egf(order)
        assert sec * sec == one_egf(order) + tan * tan


def test_named_series_reproduce_reference_rows():
    order = 7
    assert extract_counts(ene_egf(order)) == ENE
    assert extract_counts(enw_egf(order)) == ENW
    assert extract_counts(eup_egf(order)) == EUP
    assert extract_counts(edown_egf(order)) == EDOWN


def test_series_sum_identity():
    order = 20
    lhs = ene_egf(order) + enw_egf(order)
    rhs = eup_egf(order) + edown_egf(order)
    assert lhs == rhs


def test_counts_round_trip():
    f = TruncatedEGF(EULER)
    assert extract_counts(f) == EULER
    assert f == sec_egf(9) + tan_egf(9)
    assert repr(f) == f"TruncatedEGF(counts={tuple(EULER)!r})"
    back = pickle.loads(pickle.dumps(f))
    assert (back, hash(back)) == (f, hash(f))


small_counts = st.integers(-4, 4)


def series_of_order(order, head=small_counts):
    """Series of the given order with counts in -4..4; `head` draws the constant term."""
    return st.tuples(head, st.lists(small_counts, min_size=order, max_size=order)).map(
        lambda hc: TruncatedEGF((hc[0], *hc[1])))


def unit_series_of_order(order):
    """Series whose constant term is 1 or -1, the ones with a reciprocal."""
    return series_of_order(order, head=st.sampled_from((1, -1)))


@settings(max_examples=60)
@given(st.integers(0, 5).flatmap(
    lambda k: st.tuples(series_of_order(k), series_of_order(k), series_of_order(k))))
def test_ring_axioms(fgh):
    f, g, h = fgh
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=40)
@given(st.integers(0, 5).flatmap(series_of_order))
def test_reciprocal_inverts(f):
    if f.counts[0] not in (1, -1):
        with pytest.raises(ValueError, match="constant term"):
            egf_reciprocal(f)
    else:
        assert f * egf_reciprocal(f) == egf_reciprocal(f) * f == one_egf(f.order)


@settings(max_examples=60)
@given(st.integers(0, 6).flatmap(
    lambda k: st.tuples(series_of_order(k), series_of_order(k), unit_series_of_order(k))))
def test_product_and_reciprocal_equal_the_cauchy_oracle(fgu):
    f, g, u = fgu
    assert (f * g).coeffs == cauchy_mul(f.coeffs, g.coeffs)
    assert egf_reciprocal(u).coeffs == cauchy_reciprocal(u.coeffs)

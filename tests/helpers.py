"""Shared fixtures: cached enumerations, frozen reference rows, and the
classification, counting, series and convolution oracles."""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from euler_refine import (
    AltKind,
    Classification,
    CountTable,
    MinMaxKind,
    SecondMaxKind,
    classify,
    enumerate_alternating,
    upper_row,
)

# Degrees 0..9 of the up-down counts (OEIS A000111) and the four
# refinement rows for degrees 2..9, frozen from hand-checked
# enumeration; every test route must reproduce them exactly.
EULER = [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936]
ENE = [1, 1, 3, 8, 33, 136, 723, 3968]
ENW = [0, 1, 2, 8, 28, 136, 662, 3968]
EUP = [0, 0, 4, 12, 56, 240, 1324, 7392]
EDOWN = [1, 2, 1, 4, 5, 32, 61, 544]


@lru_cache(maxsize=None)
def updown(n):
    return tuple(enumerate_alternating(n, AltKind.UP_DOWN))


@lru_cache(maxsize=None)
def downup(n):
    return tuple(enumerate_alternating(n, AltKind.DOWN_UP))


@lru_cache(maxsize=None)
def smu_set(n):
    return tuple(
        p for p in updown(n) if classify(p).secondmax is SecondMaxKind.UPPER
    )


@lru_cache(maxsize=None)
def maxmin_set(n):
    return tuple(p for p in updown(n) if classify(p).minmax is MinMaxKind.MAX_MIN)


def reference_zigzags(values, first_rises):
    """The zigzag definition read off pair by pair: the pair at index i
    rises exactly when i is even for an up-down chain, odd for down-up."""
    return all(
        (values[i] < values[i + 1]) == ((i % 2 == 0) == first_rises)
        for i in range(len(values) - 1)
    )


def reference_classify(p):
    """Classification by 1-based positions and the ``upper_row`` set.

    The form the index-parity ``classify`` replaced, kept as its oracle.
    """
    if p.n < 2:
        raise ValueError("classification requires degree >= 2")
    if reference_zigzags(p.values, True):
        kind = AltKind.UP_DOWN
    elif reference_zigzags(p.values, False):
        kind = AltKind.DOWN_UP
    else:
        raise ValueError(f"not an alternating permutation: {p}")
    n = p.n
    minmax = (
        MinMaxKind.MIN_MAX
        if p.position_of(1) < p.position_of(n)
        else MinMaxKind.MAX_MIN
    )
    secondmax = (
        SecondMaxKind.UPPER
        if p.position_of(n - 1) in upper_row(n, kind)
        else SecondMaxKind.LOWER
    )
    return Classification(kind, minmax, secondmax)


def reference_tally(n, kind):
    """(total, min-max, max-min, upper, lower) by classifying each generated permutation.

    The counting path the leaf-tallying walk replaced, kept as its oracle.
    """
    total = minmax = maxmin = upper = lower = 0
    for p in enumerate_alternating(n, kind):
        c = classify(p)
        total += 1
        if c.minmax is MinMaxKind.MIN_MAX:
            minmax += 1
        else:
            maxmin += 1
        if c.secondmax is SecondMaxKind.UPPER:
            upper += 1
        else:
            lower += 1
    return total, minmax, maxmin, upper, lower


def reference_count_table(n):
    """The CountTable the classify-over-generator path builds for degree n."""
    e, ene, enw, eup, edown = reference_tally(n, AltKind.UP_DOWN)
    e_downup, _, _, dup, ddown = reference_tally(n, AltKind.DOWN_UP)
    if e_downup != e:
        raise AssertionError(f"population mismatch at degree {n}: {e} vs {e_downup}")
    return CountTable(n=n, e=e, ene=ene, enw=enw, eup=eup, edown=edown,
                      dup=dup, ddown=ddown)


def cauchy_mul(fc, gc):
    """Cauchy product of two power-series coefficient vectors over Fraction.

    The coefficient-based product the count-based ``egf_mul`` replaced,
    kept as its oracle.
    """
    return tuple(
        sum((fc[i] * gc[m - i] for i in range(m + 1)), Fraction(0))
        for m in range(len(fc))
    )


def cauchy_reciprocal(fc):
    """Coefficients of 1/f by g_m = -(sum_{i>=1} f_i g_{m-i}) / f_0, over Fraction."""
    f0 = Fraction(fc[0])
    inv = [1 / f0]
    for m in range(1, len(fc)):
        acc = sum((fc[i] * inv[m - i] for i in range(1, m + 1)), Fraction(0))
        inv.append(-acc / f0)
    return tuple(inv)


def cauchy_named_series(order):
    """Coefficient vectors of sec, tan and the four refined series, built
    from the Taylor coefficients of cos and sin with the Cauchy oracles."""
    cos = tuple(
        Fraction((-1) ** (m // 2), factorial(m)) if m % 2 == 0 else Fraction(0)
        for m in range(order + 1)
    )
    sin = tuple(
        Fraction((-1) ** ((m - 1) // 2), factorial(m)) if m % 2 else Fraction(0)
        for m in range(order + 1)
    )
    sec = cauchy_reciprocal(cos)
    tan = cauchy_mul(sin, sec)
    sec_tan = tuple(a + b for a, b in zip(sec, tan))
    tan_sq = cauchy_mul(tan, tan)
    return {
        "sec": sec,
        "tan": tan,
        "ene": cauchy_mul(cauchy_mul(sec, sec), sec_tan),
        "enw": cauchy_mul(cauchy_mul(sec, tan), sec_tan),
        "eup": tuple(2 * c for c in cauchy_mul(tan_sq, sec_tan)),
        "edown": tuple(a + 2 * b for a, b in zip(sec, tan)),
    }


def double_sum_e_nw(n, ee):
    """Even-degree max-min count by the unfactored double sum over (s1, s2).

    The form the factored ``e_nw_formula`` replaced, kept as its oracle.
    """
    total = n - 2
    acc = 0
    for s1 in range(1, total + 1, 2):
        for s2 in range(0, total - s1 + 1, 2):
            s3 = total - s1 - s2
            acc += comb(total, s1) * comb(total - s1, s2) * ee[s1] * ee[s2] * ee[s3]
    return acc

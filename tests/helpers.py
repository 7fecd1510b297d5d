"""Shared fixtures: CPU sets, cached enumerations, frozen reference rows,
the enumeration, classification, counting, series, convolution and
Euler-number oracles, and a b-file reader."""

import itertools
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
    Permutation,
    enumerate_alternating,
    is_down_up,
    is_up_down,
)

# CPU sets for the unsharded path and for two shards, one of them forked.
ONE_CPU, TWO_CPUS = {0}, {0, 1}

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


def enumerate_alternating_by_filter(n, kind):
    """Reference generator: filter all n! permutations (small n only)."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    check = is_up_down if kind is AltKind.UP_DOWN else is_down_up
    for values in itertools.permutations(range(1, n + 1)):
        p = Permutation(values)
        if check(p):
            yield p


def reference_zigzags(values, first_rises):
    """The zigzag definition read off pair by pair: the pair at index i
    rises exactly when i is even for an up-down chain, odd for down-up."""
    return all(
        (values[i] < values[i + 1]) == ((i % 2 == 0) == first_rises)
        for i in range(len(values) - 1)
    )


def upper_row(n, kind):
    """Positions of the locally larger values: even for up-down, odd for down-up."""
    if n < 2:
        raise ValueError("upper row is defined for degree >= 2")
    start = 2 if kind is AltKind.UP_DOWN else 1
    return frozenset(range(start, n + 1, 2))


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


def per_leaf_tally_walk(n, kind, first):
    """(total, min-max, max-min, upper, lower) over the permutations of one
    kind that start with `first`, tallied leaf by leaf.

    The walk ``perm._tally_walk`` had before it placed the last two values
    in one step, restricted to one first value; kept as its oracle.  Every
    position down to the last runs its candidate loop.
    """
    used = bytearray(n + 1)
    pos = [0] * (n + 1)
    peak_parity = 1 if kind is AltKind.UP_DOWN else 0
    last = n - 1
    total = minmax = maxmin = upper = lower = 0

    def extend(idx, prev):
        nonlocal total, minmax, maxmin, upper, lower
        if idx % 2 == peak_parity:
            candidates = range(prev + 1, n + 1)
        else:
            candidates = range(1, prev)
        if idx == last:
            for v in candidates:
                if not used[v]:
                    pos[v] = idx
                    total += 1
                    if pos[1] < pos[n]:
                        minmax += 1
                    else:
                        maxmin += 1
                    if pos[last] % 2 == peak_parity:
                        upper += 1
                    else:
                        lower += 1
                    return
            return
        for v in candidates:
            if not used[v]:
                used[v] = 1
                pos[v] = idx
                extend(idx + 1, v)
                used[v] = 0

    used[first] = 1
    pos[first] = 0
    extend(1, first)
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


def per_degree_three_block(total, ee, s2_start):
    """The three-block sum of ``seq._three_block``, with the pair convolution
    sum_{s2} C(m, s2) E_{s2} E_{m-s2} recomputed for every s1 of every degree.

    The form the once-per-prefix pair table replaced, kept as its oracle.
    """
    acc = 0
    for s1 in range(1, total + 1, 2):
        m = total - s1
        pair = sum(comb(m, s2) * ee[s2] * ee[m - s2] for s2 in range(s2_start, m + 1, 2))
        acc += comb(total, s1) * ee[s1] * pair
    return acc


def knuth_buckholtz_euler(n_max):
    """E_0..E_{n_max} by the integer recurrences of Knuth and Buckholtz,
    "Computation of tangent, Euler, and Bernoulli numbers" (Math. Comp. 1967).

    The tangent numbers T_k = E_{2k-1} and the secant numbers S_k = E_{2k}
    are each computed in place from a factorial start; neither the
    boustrophedon triangle nor a series reciprocal is involved.
    """
    half = n_max // 2 + 1
    tangent = [0] * (half + 1)
    tangent[1] = 1
    for k in range(2, half + 1):
        tangent[k] = (k - 1) * tangent[k - 1]
    for k in range(2, half + 1):
        for j in range(k, half + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    secant = [1] * (half + 1)
    for k in range(1, half + 1):
        secant[k] = k * secant[k - 1]
    for k in range(1, half + 1):
        for j in range(k + 1, half + 1):
            secant[j] = (j - k) * secant[j - 1] + (j - k + 1) * secant[j]
    return [secant[n // 2] if n % 2 == 0 else tangent[(n + 1) // 2]
            for n in range(n_max + 1)]


def parse_bfile(text):
    """Read "index value" lines, skipping blanks and # comments."""
    entries = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        idx, val = line.split()
        entries.append((int(idx), int(val)))
    return entries

"""Shared fixtures: cached enumerations, frozen reference rows, counting oracle."""

from functools import lru_cache

from euler_refine import (
    AltKind,
    CountTable,
    MinMaxKind,
    SecondMaxKind,
    classify,
    enumerate_alternating,
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

"""Alternating permutations: generation, classification, brute-force counts.

This module is the ground truth the formula and series routes are
checked against.  Permutations are kept in one-line notation with
1-based values; a permutation is up-down when its values strictly
zigzag starting with a rise, down-up when starting with a descent.

The counts walk the pruned search tree without materialising any
permutation: each leaf is classified in place and tallied.  The
:class:`Permutation` generator and :func:`classify` serve the
bijections and callers that need the permutations themselves.

The text form used by the CLI and golden files is plain digit strings
for degree <= 9 and comma-separated values above that.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional, Sequence

from .seq import CountTable


class AltKind(Enum):
    UP_DOWN = "up-down"
    DOWN_UP = "down-up"


class MinMaxKind(Enum):
    MIN_MAX = "min-max"
    MAX_MIN = "max-min"


class SecondMaxKind(Enum):
    UPPER = "upper"
    LOWER = "lower"


@dataclass(frozen=True)
class Permutation:
    """One-line notation; values[i-1] is the image of i.

    Degree 0 is allowed so that empty blocks of a decomposition can be
    carried as (vacuously alternating) patterns.
    """

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        n = len(self.values)
        # n values that cover 1..n are exactly a permutation of 1..n.
        if not set(self.values).issuperset(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.values}")

    @property
    def n(self) -> int:
        return len(self.values)

    def position_of(self, value: int) -> int:
        """1-based position of a value."""
        return self.values.index(value) + 1

    def to_text(self) -> str:
        if self.n <= 9:
            return "".join(str(v) for v in self.values)
        return ",".join(str(v) for v in self.values)

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        text = text.strip()
        if not text:
            return cls(())
        if "," in text:
            return cls(tuple(int(part) for part in text.split(",")))
        return cls(tuple(int(ch) for ch in text))

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class Classification:
    kind: AltKind
    minmax: MinMaxKind
    secondmax: SecondMaxKind


# Every classification there is, built once and shared, indexed by
# [up-down][min-max][second-max-upper].
_CLASSIFICATIONS = tuple(
    tuple(
        tuple(Classification(kind, minmax, secondmax)
              for secondmax in (SecondMaxKind.LOWER, SecondMaxKind.UPPER))
        for minmax in (MinMaxKind.MAX_MIN, MinMaxKind.MIN_MAX)
    )
    for kind in (AltKind.DOWN_UP, AltKind.UP_DOWN)
)


def _zigzags(values: Sequence[int], first_rises: bool) -> bool:
    rise = first_rises
    for a, b in zip(values, values[1:]):
        if (a < b) != rise:
            return False
        rise = not rise
    return True


def is_up_down(p: Permutation) -> bool:
    """True when the values strictly zigzag starting with a rise.

    Degrees 0 and 1 count as up-down (the chain is empty).
    """
    return _zigzags(p.values, True)


def is_down_up(p: Permutation) -> bool:
    """True when the values strictly zigzag starting with a descent."""
    return _zigzags(p.values, False)


def is_alternating(p: Permutation) -> bool:
    return is_up_down(p) or is_down_up(p)


def complement(p: Permutation) -> Permutation:
    """Replace each value v by n - v + 1; an involution swapping the two kinds."""
    n = p.n
    return Permutation(tuple(n - v + 1 for v in p.values))


def upper_row(n: int, kind: AltKind) -> frozenset[int]:
    """Positions of the locally larger values: even for up-down, odd for down-up."""
    if n < 2:
        raise ValueError("upper row is defined for degree >= 2")
    start = 2 if kind is AltKind.UP_DOWN else 1
    return frozenset(range(start, n + 1, 2))


def classify(p: Permutation) -> Classification:
    """Kind plus the min-max and second-max refinements of an alternating permutation."""
    values = p.values
    n = len(values)
    if n < 2:
        raise ValueError("classification requires degree >= 2")
    # up_down is 1 for up-down and 0 for down-up, and the upper row (see
    # upper_row) holds the 0-based indices of that parity.
    if _zigzags(values, True):
        up_down = 1
    elif _zigzags(values, False):
        up_down = 0
    else:
        raise ValueError(f"not an alternating permutation: {p}")
    index = values.index
    return _CLASSIFICATIONS[up_down][index(1) < index(n)][index(n - 1) % 2 == up_down]


def enumerate_alternating(
    n: int, kind: AltKind, prefix: Sequence[int] = ()
) -> Iterator[Permutation]:
    """Yield the alternating permutations of one kind in lexicographic order.

    Extends one value at a time and abandons any prefix that breaks the
    zigzag chain.  A `prefix` restricts the output to its extensions, so
    disjoint prefixes partition the search space; a prefix that already
    violates the chain yields nothing.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    prefix = tuple(prefix)
    if len(prefix) > n or len(set(prefix)) != len(prefix):
        raise ValueError(f"malformed prefix {prefix}")
    if any(v < 1 or v > n for v in prefix):
        raise ValueError(f"prefix values out of range 1..{n}: {prefix}")
    if not _zigzags(prefix, kind is AltKind.UP_DOWN):
        return
    used = bytearray(n + 1)
    for v in prefix:
        used[v] = 1
    partial = list(prefix)

    # Position idx (0-based) must rise from its predecessor on odd idx
    # for up-down and on even idx for down-up.
    rise_parity = 1 if kind is AltKind.UP_DOWN else 0

    def extend() -> Iterator[Permutation]:
        idx = len(partial)
        if idx == n:
            yield Permutation(tuple(partial))
            return
        if idx == 0:
            candidates = range(1, n + 1)
        elif idx % 2 == rise_parity:
            candidates = range(partial[-1] + 1, n + 1)
        else:
            candidates = range(1, partial[-1])
        for v in candidates:
            if not used[v]:
                used[v] = 1
                partial.append(v)
                yield from extend()
                partial.pop()
                used[v] = 0

    yield from extend()


def enumerate_alternating_by_filter(n: int, kind: AltKind) -> Iterator[Permutation]:
    """Reference generator: filter all n! permutations (small n only)."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    check = is_up_down if kind is AltKind.UP_DOWN else is_down_up
    for values in itertools.permutations(range(1, n + 1)):
        p = Permutation(values)
        if check(p):
            yield p


class _Tally(NamedTuple):
    """Leaf counts of one alternating population, one counter per class."""

    total: int
    minmax: int
    maxmin: int
    upper: int
    lower: int


def _tally_walk(n: int, kind: AltKind) -> _Tally:
    """Count one alternating population by class without building permutations.

    Walks the same pruned tree as :func:`enumerate_alternating`, recording
    the 0-based position of each value as it is placed.  At each leaf,
    min-max means 1 sits before n, and second-max-upper means n - 1 sits
    at a peak: an odd index for up-down, an even one for down-up.
    """
    used = bytearray(n + 1)
    pos = [0] * (n + 1)
    # Rises and peaks share a parity: odd indices for up-down, even for down-up.
    peak_parity = 1 if kind is AltKind.UP_DOWN else 0
    last = n - 1
    total = minmax = maxmin = upper = lower = 0

    def extend(idx: int, prev: int) -> None:
        nonlocal total, minmax, maxmin, upper, lower
        if idx % 2 == peak_parity:
            candidates = range(prev + 1, n + 1)
        else:
            candidates = range(1, prev)
        if idx == last:
            # One value is left; it either extends the chain or nothing does.
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

    for v in range(1, n + 1):
        used[v] = 1
        pos[v] = 0
        extend(1, v)
        used[v] = 0
    return _Tally(total, minmax, maxmin, upper, lower)


def count_minmax(n: int, kind: AltKind) -> tuple[int, int]:
    """(min-max, max-min) counts over one alternating population.

    Tallied by the same permutation-free walk as :func:`count_refinements`.
    The two populations differ at even degree: the complement bijection
    sends up-down min-max onto down-up max-min, so the down-up pair is
    the up-down pair reversed.
    """
    if n < 2:
        raise ValueError("degree must be at least 2")
    tally = _tally_walk(n, kind)
    return tally.minmax, tally.maxmin


@lru_cache(maxsize=None)
def count_refinements(n: int) -> CountTable:
    """Tally every split of the alternating permutations of degree n.

    Walks the up-down and the down-up trees once each, classifying every
    leaf in place; no permutation is materialised.  The two walks are
    independent, and their totals must agree.

    ``ene``/``enw`` are counted over the up-down population (the
    convention under which they refine E_n rather than 2 E_n);
    :func:`count_minmax` reports either population on request.
    """
    if n < 2:
        raise ValueError("degree must be at least 2")
    up = _tally_walk(n, AltKind.UP_DOWN)
    down = _tally_walk(n, AltKind.DOWN_UP)
    if down.total != up.total:
        raise AssertionError(
            f"population mismatch at degree {n}: {up.total} vs {down.total}"
        )
    return CountTable(n=n, e=up.total, ene=up.minmax, enw=up.maxmin, eup=up.upper,
                      edown=up.lower, dup=down.upper, ddown=down.lower)

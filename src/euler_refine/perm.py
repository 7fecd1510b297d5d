"""Alternating permutations: generation, classification, brute-force counts.

This module is the ground truth the formula and series routes are
checked against.  Permutations are kept in one-line notation with
1-based values; a permutation is up-down when its values strictly
zigzag starting with a rise, down-up when starting with a descent.

The counts walk the pruned search tree without materialising any
permutation: each leaf is classified in place and tallied.  The walk
runs one subtree per first value, places the last two values in one
step, and from degree 9 deals the subtrees out among the CPUs this
process may run on (:func:`euler_refine.workers.map_dealt`).  The
:class:`Permutation` generator and :func:`classify` serve the
bijections and callers that need the permutations themselves.

The text form used by the CLI and golden files is plain digit strings
for degree <= 9 and comma-separated values above that.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

from . import workers
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


def complement(p: Permutation) -> Permutation:
    """Replace each value v by n - v + 1; an involution swapping the two kinds."""
    n = p.n
    return Permutation(tuple(n - v + 1 for v in p.values))


def classify(p: Permutation) -> Classification:
    """Kind plus the min-max and second-max refinements of an alternating permutation."""
    values = p.values
    n = len(values)
    if n < 2:
        raise ValueError("classification requires degree >= 2")
    # up_down is 1 for up-down and 0 for down-up, and the peaks (the
    # locally larger values) sit at the 0-based indices of that parity.
    if _zigzags(values, True):
        up_down = 1
    elif _zigzags(values, False):
        up_down = 0
    else:
        raise ValueError(f"not an alternating permutation: {p}")
    index = values.index
    return _CLASSIFICATIONS[up_down][index(1) < index(n)][index(n - 1) % 2 == up_down]


def enumerate_alternating(n: int, kind: AltKind) -> Iterator[Permutation]:
    """Yield the alternating permutations of one kind in lexicographic order.

    Extends one value at a time and abandons any prefix that breaks the
    zigzag chain.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    used = bytearray(n + 1)
    partial: list[int] = []

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


class _Tally(NamedTuple):
    """Leaf counts of one alternating population, one counter per class."""

    total: int
    minmax: int
    maxmin: int
    upper: int
    lower: int


# Degrees from which count_refinements forks workers.  Forking one costs
# about 1.7 ms, and walking both populations takes about 3 ms at degree 8
# and 20 ms at degree 9.
_FORK_FROM_DEGREE = 9


def _tally_walk(n: int, kind: AltKind, first: int) -> _Tally:
    """Count by class the permutations of one kind that start with `first`.

    Walks the subtree of `first` in the pruned tree of
    :func:`enumerate_alternating`, recording the 0-based position of
    each value as it is placed, and classifies every leaf without
    building a permutation: min-max means 1 sits before n, and
    second-max-upper means n - 1 sits at a peak, an odd index for
    up-down and an even one for down-up.

    When two values a < b are left, at most one order of them extends
    the chain: b then a where index n - 2 is a peak (if b is above the
    value before it), a then b where it is a valley (if a is below it).
    That leaf is placed in one step.
    """
    # Rises and peaks share a parity: odd indices for up-down, even for down-up.
    peak_parity = 1 if kind is AltKind.UP_DOWN else 0
    if n == 2:
        # (1, 2) is up-down and min-max, (2, 1) down-up and max-min;
        # in both, n - 1 = 1 sits at a valley.
        if first != 2 - peak_parity:
            return _Tally(0, 0, 0, 0, 0)
        return _Tally(1, peak_parity, 1 - peak_parity, 0, 1)
    used = bytearray(n + 1)
    used[0] = 1  # so that find(0) looks at the values 1..n only
    used[first] = 1
    find = used.find
    pos = [0] * (n + 1)  # `first` sits at index 0
    second = last = n - 1  # the value n - 1, and the last index
    at_peak = [idx % 2 == peak_parity for idx in range(n)]
    pair_at = n - 2
    pair_at_peak = at_peak[pair_at]
    total = minmax = maxmin = upper = lower = 0

    def extend(idx: int, prev: int) -> None:
        nonlocal total, minmax, maxmin, upper, lower
        if idx == pair_at:
            a = find(0)
            b = find(0, a + 1)
            if pair_at_peak:
                if b < prev:
                    return
                pos[b] = idx
                pos[a] = last
            else:
                if a > prev:
                    return
                pos[a] = idx
                pos[b] = last
            total += 1
            if pos[1] < pos[n]:
                minmax += 1
            else:
                maxmin += 1
            if at_peak[pos[second]]:
                upper += 1
            else:
                lower += 1
            return
        if at_peak[idx]:
            candidates = range(prev + 1, n + 1)
        else:
            candidates = range(1, prev)
        for v in candidates:
            if not used[v]:
                used[v] = 1
                pos[v] = idx
                extend(idx + 1, v)
                used[v] = 0

    extend(1, first)
    return _Tally(total, minmax, maxmin, upper, lower)


@lru_cache(maxsize=None)
def count_refinements(n: int) -> CountTable:
    """Tally every split of the alternating permutations of degree n.

    Walks the up-down and the down-up trees once each, classifying every
    leaf in place; no permutation is materialised.  The two walks are
    independent, and their totals must agree.

    Each tree is walked as one subtree per first value.  From degree
    ``_FORK_FROM_DEGREE``, the (kind, first value) subtrees are dealt in
    turn to one shard per CPU this process may run on, and the shards
    run at the same time (see :func:`euler_refine.workers.map_dealt`);
    on two CPUs each process walks one population.  A shard whose worker
    is lost is walked again in this process.  The tallies come back in
    subtree order and are summed per kind, so the table does not depend
    on the CPU count.

    ``ene``/``enw`` are counted over the up-down population (the
    convention under which they refine E_n rather than 2 E_n).
    """
    if n < 2:
        raise ValueError("degree must be at least 2")
    units = [(kind, first) for first in range(1, n + 1) for kind in AltKind]
    count = workers.cpu_count() if n >= _FORK_FROM_DEGREE else 1
    walked = workers.map_dealt(lambda unit: _tally_walk(n, *unit), units, count)
    tallies: dict[AltKind, list[_Tally]] = {kind: [] for kind in AltKind}
    for (kind, _), tally in zip(units, walked):
        tallies[kind].append(tally)
    up, down = (_Tally(*map(sum, zip(*tallies[kind]))) for kind in AltKind)
    if down.total != up.total:
        raise AssertionError(
            f"population mismatch at degree {n}: {up.total} vs {down.total}"
        )
    return CountTable(n=n, e=up.total, ene=up.minmax, enw=up.maxmin, eup=up.upper,
                      edown=up.lower, dup=down.upper, ddown=down.lower)

"""Alternating permutations: generation, classification, exhaustive counts.

This module is the ground truth the formula and series routes are
checked against.  Permutations are kept in one-line notation with
1-based values; a permutation is up-down when its values strictly
zigzag starting with a rise, down-up when starting with a descent.

The counts cover every permutation of the pruned search tree without
materialising any: one forward pass per kind merges the prefixes that
have the same completions and carries the two class bits along, so the
work grows with 2^n rather than with the number of leaves.  The
:class:`Permutation` generator and :func:`classify` serve the
bijections and callers that need the permutations themselves; the
generator can be restricted to one first value, so that the subtrees
of one degree can be walked apart, and a permutation keeps its
classification once :func:`classify` has computed it.

The text form used by the CLI and golden files is plain digit strings
for degree <= 9 and comma-separated values above that.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional, Sequence

from .report import CountTable


class AltKind(Enum):
    UP_DOWN = "up-down"
    DOWN_UP = "down-up"


class MinMaxKind(Enum):
    MIN_MAX = "min-max"
    MAX_MIN = "max-min"


class SecondMaxKind(Enum):
    UPPER = "upper"
    LOWER = "lower"


class Permutation:
    """One-line notation; values[i-1] is the image of i.

    Degree 0 is allowed; the empty permutation is vacuously alternating.
    ``values`` may be given as any sequence; it is kept as a tuple, and
    one that already is a tuple is kept as given.  Every instance is
    checked on construction, by ``__post_init__``, which
    ``perfbench/layers.py`` patches on the class to count constructions,
    and is immutable: assigning to an attribute raises AttributeError.
    ``classification`` is filled by :func:`classify` on its first call
    and is no part of the value: it takes no part in construction, repr,
    equality, hashing or pickling.
    """

    __slots__ = ("values", "classification")
    values: tuple[int, ...]
    classification: Optional[Classification]

    def __init__(self, values: Sequence[int]) -> None:
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "classification", None)
        self.__post_init__()

    def __post_init__(self) -> None:
        values = self.values
        if type(values) is not tuple:
            values = tuple(values)
            object.__setattr__(self, "values", values)
        n = len(values)
        # n values that cover 1..n are exactly a permutation of 1..n.
        if not set(values).issuperset(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {values}")

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Permutation, (self.values,)

    def __repr__(self) -> str:
        return f"Permutation(values={self.values!r})"

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self.values == other.values
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.values,))

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


class Classification(NamedTuple):
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
    """Kind plus the min-max and second-max refinements of an alternating permutation.

    Computed once per permutation and kept in its ``classification``.
    """
    if p.classification is not None:
        return p.classification
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
    c = _CLASSIFICATIONS[up_down][index(1) < index(n)][index(n - 1) % 2 == up_down]
    object.__setattr__(p, "classification", c)
    return c


def enumerate_alternating(
    n: int, kind: AltKind, first: Optional[int] = None
) -> Iterator[Permutation]:
    """Yield the alternating permutations of one kind in lexicographic order.

    Extends one value at a time and abandons any prefix that breaks the
    zigzag chain, depth first, in one generator frame with a stack of
    candidate iterators.  With `first`, only those that start with it:
    the subtree of that first value, so that the subtrees for 1..n, one
    after another, yield what the whole enumeration yields.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    if first is not None and not 1 <= first <= n:
        raise ValueError(f"first value must be in 1..{n}, got {first}")
    # Position idx (0-based) must rise from its predecessor on odd idx
    # for up-down and on even idx for down-up.
    rise_parity = 1 if kind is AltKind.UP_DOWN else 0
    last = n - 1
    used = bytearray(n + 1)
    partial: list[int] = []  # the values at positions 0..len(partial) - 1
    # stack[idx] iterates the candidates for position idx, in increasing order.
    stack: list[Iterator[int]] = [iter(range(1, n + 1) if first is None else (first,))]
    while stack:
        for v in stack[-1]:
            if not used[v]:
                break
        else:  # no candidate left here: take back the value before it
            stack.pop()
            if partial:
                used[partial.pop()] = 0
            continue
        idx = len(partial)
        if idx == last:
            yield Permutation((*partial, v))
            continue
        used[v] = 1
        partial.append(v)
        stack.append(iter(range(v + 1, n + 1) if (idx + 1) % 2 == rise_parity else range(1, v)))


def _count_kind(n: int, kind: AltKind) -> list[int]:
    """Count by class the alternating permutations of degree n of one kind.

    A forward pass over the pruned tree of :func:`enumerate_alternating`,
    one position at a time, in which prefixes with the same completions
    are merged: a prefix is kept only as its set of used values, its last
    value and two class bits, with the number of prefixes that share
    them.  Bit 0 says that 1 was placed while n was unused (min-max), and
    bit 1 that n - 1 was placed at a peak (second-max upper); the four
    joint class counts are returned indexed by those bits.  This is the
    subset dynamic programme of Held and Karp, "A dynamic programming
    approach to sequencing problems" (1962), and still an exhaustive
    count of the same tree: it holds O(2^n n) states, not O(E_n) leaves.
    """
    # Peaks, where the chain rises into a position, sit at the odd indices
    # for up-down and the even ones for down-up.  Index 0 rises above a
    # last value of 0 or falls below one of n + 1, so that any value may
    # come first.
    peak_parity = 1 if kind is AltKind.UP_DOWN else 0
    top = 1 << n
    layer = {(0, n + 1 if peak_parity else 0, 0): 1}  # (used, last, bits) -> prefixes
    for idx in range(n):
        at_peak = idx % 2 == peak_parity
        following: dict[tuple[int, int, int], int] = {}
        get = following.get
        for (used, last, bits), count in layer.items():
            for v in range(last + 1, n + 1) if at_peak else range(1, last):
                value = 1 << v
                if used & value:
                    continue
                placed = bits
                if v == 1 and not used & top:
                    placed |= 1
                if v == n - 1 and at_peak:
                    placed |= 2
                key = (used | value, v, placed)
                following[key] = get(key, 0) + count
        layer = following
    by_bits = [0] * 4
    for (_, _, bits), count in layer.items():
        by_bits[bits] += count
    return by_bits


@lru_cache(maxsize=None)
def count_refinements(n: int) -> CountTable:
    """Tally every split of the alternating permutations of degree n.

    Counts the up-down and the down-up permutations by class, one pass
    over merged prefixes each (:func:`_count_kind`); no permutation is
    materialised and no process is started.  The two passes are
    independent, and a ValueError says that their totals differ.

    ``ene``/``enw`` are counted over the up-down population (the
    convention under which they refine E_n rather than 2 E_n).
    """
    if n < 2:
        raise ValueError("degree must be at least 2")
    up, down = (_count_kind(n, kind) for kind in AltKind)
    e = sum(up)
    if sum(down) != e:
        raise ValueError(f"population mismatch at degree {n}: {e} vs {sum(down)}")
    ene, eup, dup = up[1] + up[3], up[2] + up[3], down[2] + down[3]
    return CountTable(n=n, e=e, ene=ene, enw=e - ene, eup=eup, edown=e - eup,
                      dup=dup, ddown=e - dup)

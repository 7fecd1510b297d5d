"""Alternating permutations: generation, classification, exhaustive counts.

This module is the ground truth the formula and series routes are
checked against.  Permutations are kept in one-line notation with
1-based values; a permutation is up-down when its values strictly
zigzag starting with a rise, down-up when starting with a descent.

The counts cover every permutation of the pruned search tree without
materialising any: one forward pass per kind merges the prefixes with
the same completions and class bits into rows by last value, and sweeps
each row with a running sum to the next values, so the work grows with
2^n rather than with the number of leaves.  The :class:`Permutation`
generator and :func:`classify` serve the bijections and callers that
need the permutations themselves; the generator wraps a walk that
yields plain value tuples, which the bijection check reads directly.
Both can be restricted to one first value, so that the subtrees of one
degree can be walked apart.

The text form used by the CLI and golden files is plain digit strings
for degree <= 9 and comma-separated values above that.
"""

from __future__ import annotations

from collections import defaultdict
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
    """

    __slots__ = ("values",)
    values: tuple[int, ...]

    def __init__(self, values: Sequence[int]) -> None:
        object.__setattr__(self, "values", values)
        self.__post_init__()

    def __post_init__(self) -> None:
        values = self.values
        if type(values) is not tuple:
            values = tuple(values)
            object.__setattr__(self, "values", values)
        if set(map(type, values)) - {int}:  # a bool or a float may equal an int
            raise ValueError(f"values must be ints: {values}")
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
        return _text(self.values)

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


def _text(values: Sequence[int]) -> str:
    """The text form of a permutation's values: digits up to degree 9, commas above."""
    return ("" if len(values) <= 9 else ",").join(map(str, values))


class Classification(NamedTuple):
    kind: AltKind
    minmax: MinMaxKind
    secondmax: SecondMaxKind


def _zigzags(values: Sequence[int], first_rises: bool) -> bool:
    rise = first_rises
    for a, b in zip(values, values[1:]):
        if (a < b) != rise:
            return False
        rise = not rise
    return True


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
    return Classification(
        AltKind.UP_DOWN if up_down else AltKind.DOWN_UP,
        MinMaxKind.MIN_MAX if index(1) < index(n) else MinMaxKind.MAX_MIN,
        SecondMaxKind.UPPER if index(n - 1) % 2 == up_down else SecondMaxKind.LOWER,
    )


def enumerate_alternating(
    n: int, kind: AltKind, first: Optional[int] = None
) -> Iterator[Permutation]:
    """Yield the alternating permutations of one kind in lexicographic order.

    The permutations of :func:`_walk`, each built as a checked
    :class:`Permutation`; an invalid degree or first value raises at the
    first ``next``.  With `first`, only those that start with it: the
    subtree of that first value, so that the subtrees for 1..n, one after
    another, yield what the whole enumeration yields.
    """
    return map(Permutation, _walk(n, kind, first))


def _walk(n: int, kind: AltKind, first: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Yield the values of the alternating permutations of one kind, as
    tuples in lexicographic order; `first` as in :func:`enumerate_alternating`.

    Extends one value at a time and abandons any prefix that breaks the
    zigzag chain, depth first, in one generator frame with a stack of
    candidate iterators.  No :class:`Permutation` is built, so a caller
    that checks each tuple itself pays for no second check.
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
            yield (*partial, v)
            continue
        used[v] = 1
        partial.append(v)
        stack.append(iter(range(v + 1, n + 1) if (idx + 1) % 2 == rise_parity else range(1, v)))


def _count_kind(n: int, kind: AltKind) -> list[int]:
    """Count by class the alternating permutations of degree n of one kind.

    A forward pass over the pruned tree of :func:`enumerate_alternating`,
    one position at a time, that merges the prefixes with the same
    completions: those that share a used set and two class bits form one
    row, which counts them by last value.  Bit 0 says that 1 was placed
    while n was unused (min-max), and bit 1 that n - 1 was placed at a
    peak (second-max upper); the four joint class counts are returned
    indexed by those bits.  A rise reaches v from every last value below
    it and a fall from every one above, so one ascending or descending
    sweep with a running sum over a row gives each unused v its count.
    This is the subset programme of Held and Karp (1962), and still an
    exhaustive count of the same tree: O(2^n n) counts, not O(E_n) leaves.
    """
    # Peaks, where the chain rises into a position, sit at the odd indices
    # for up-down and the even ones for down-up.  Index 0 rises above the
    # virtual start row[0] or falls below row[n + 1], so any value may come first.
    peak_parity = 1 if kind is AltKind.UP_DOWN else 0
    top = 1 << n
    layer = {(0, 0): [0] * (n + 2)}  # (used, bits) -> row; row[last] counts the prefixes
    layer[0, 0][n + 1 if peak_parity else 0] = 1
    for idx in range(n):
        at_peak = idx % 2 == peak_parity
        sweep, seed = (range(1, n + 1), 0) if at_peak else (range(n, 0, -1), n + 1)
        following: defaultdict[tuple[int, int], list[int]] = defaultdict(lambda: [0] * (n + 2))
        for (used, bits), row in layer.items():
            run = row[seed]  # the prefixes that v, the next in the sweep, can follow
            for v in sweep:
                if run and not used & 1 << v:
                    placed = bits
                    if v == 1 and not used & top:
                        placed |= 1
                    if v == n - 1 and at_peak:
                        placed |= 2
                    following[used | 1 << v, placed][v] += run
                run += row[v]
        layer = following
    # Every prefix is now a whole permutation: at most four groups remain, one per class.
    return [sum(sum(row) for (_, b), row in layer.items() if b == bits) for bits in range(4)]


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

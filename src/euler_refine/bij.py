"""Explicit bijections behind the refined counts.

Three constructions, all exactly invertible on their stated domains:

* ``swap_top_two`` exchanges the values n-1 and n inside an up-down
  permutation whose second-largest value sits at a peak.  Both values
  occupy peak positions, peaks are never adjacent, and each dominates
  its neighbours, so the exchange preserves the zigzag; it is a
  fixed-point-free involution, which is why those counts are even.

* the block splittings ``decompose_smu`` / ``decompose_maxmin`` cut a
  permutation at two landmark values into three blocks, kept as their
  value sets (``parts``) and order-isomorphic patterns (``patterns``,
  values replaced by ranks); the block sizes derive from the parts.
  ``compose_*`` invert them.

* ``maxmin_to_smu`` turns a max-min up-down permutation of even degree
  plus one free bit into a second-max-upper one of the same degree, by
  rewiring the two splittings slot by slot.  Its inverse is
  ``smu_to_maxmin``.  Together with the two-sided counting this makes
  the doubling relation between the two refinements literal.

Positions are 1-based throughout.  Every map checks its input; a
permutation is classified once, however many maps check it.  The
splittings, the compositions and the two rewirings between them are
pure maps of frozen values, each memoised for its last two arguments:
a round trip and the two sides of the doubling map ask for the same
one back to back.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

from .perm import (
    AltKind,
    MinMaxKind,
    Permutation,
    SecondMaxKind,
    _zigzags,
    classify,
)


class Decomposition(NamedTuple):
    """Three blocks around two landmark values.

    ``parts`` are the sorted value sets of the blocks and ``patterns``
    their standardized forms, as rank tuples.  ``sizes`` is derived from
    the parts; it sums to degree - 2 and puts the landmarks at s1 + 1
    and s1 + s2 + 2.
    """

    parts: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    patterns: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    @property
    def sizes(self) -> tuple[int, int, int]:
        return tuple(map(len, self.parts))


def standardize(block: Sequence[int]) -> tuple[int, ...]:
    """Order-isomorphic pattern of a block: each value replaced by its rank."""
    return _ranked(block, sorted(block))


def _ranked(block: Sequence[int], ordered: Sequence[int]) -> tuple[int, ...]:
    """The pattern of `block`, whose values sorted are `ordered`."""
    # As in embed, a leading placeholder makes each index a 1-based rank.
    return tuple(map((None, *ordered).index, block))


def embed(pattern: Sequence[int], values: Sequence[int]) -> tuple[int, ...]:
    """Realize a pattern on a value set, inverse of :func:`standardize`."""
    # A leading placeholder lets the 1-based ranks index the sorted values.
    ordered = [None, *sorted(values)]
    k = len(ordered) - 1
    if len(pattern) != k:
        raise ValueError(f"pattern of degree {len(pattern)} cannot use {k} values")
    # k ranks that cover 1..k are exactly a permutation of 1..k; a rank
    # of 0 or below would index the placeholder or count from the end.
    if not set(pattern).issuperset(range(1, k + 1)):
        raise ValueError(f"pattern {pattern} is not a permutation of 1..{k}")
    return tuple(map(ordered.__getitem__, pattern))


def _split(p: Permutation, first: int, second: int) -> Decomposition:
    """Cut ``p`` around the 1-based positions ``first`` < ``second``."""
    vals = p.values
    blocks = (vals[: first - 1], vals[first : second - 1], vals[second:])
    parts = tuple(tuple(sorted(b)) for b in blocks)
    return Decomposition(parts, tuple(map(_ranked, blocks, parts)))


def _join(d: Decomposition, first: int, second: int) -> tuple[int, ...]:
    """Values of block 1, ``first``, block 2, ``second``, block 3."""
    (a, b, c), (pat_a, pat_b, pat_c) = d.parts, d.patterns
    return embed(pat_a, a) + (first,) + embed(pat_b, b) + (second,) + embed(pat_c, c)


def _check_parts(d: Decomposition, free_values: range) -> None:
    """Reject parts that are not exactly ``free_values``, each once."""
    values = [v for part in d.parts for v in part]
    if len(values) != len(free_values) or set(values) != set(free_values):
        raise ValueError(f"parts {d.parts} do not partition the non-landmark values")


def _require_updown_smu(p: Permutation) -> None:
    c = classify(p)
    if c.kind is not AltKind.UP_DOWN:
        raise ValueError(f"{p} is not up-down")
    if c.secondmax is not SecondMaxKind.UPPER:
        raise ValueError(f"{p} has its second-largest value off the peaks")


def swap_top_two(p: Permutation) -> Permutation:
    """Exchange the values n-1 and n; involution on the second-max-upper set."""
    _require_updown_smu(p)
    return _swapped(p)


def _swapped(p: Permutation) -> Permutation:
    """`p` with the values n-1 and n exchanged, for a checked `p`."""
    n = p.n
    swapped = list(p.values)
    second, top = swapped.index(n - 1), swapped.index(n)
    swapped[second], swapped[top] = n, n - 1
    return Permutation(tuple(swapped))


@lru_cache(maxsize=2)
def decompose_smu(p: Permutation) -> Decomposition:
    """Split around n-1 and n (in that order) into three up-down blocks.

    Requires n-1 to appear left of n; the mirrored arrangement is
    reached through :func:`swap_top_two` first.  The block sizes are
    (odd, odd, rest) and the landmark positions are determined by them.
    """
    _require_updown_smu(p)
    n = p.n
    pos_second, pos_top = p.position_of(n - 1), p.position_of(n)
    if pos_top < pos_second:
        raise ValueError(
            f"{p} carries {n} left of {n - 1}; apply swap_top_two before decomposing"
        )
    return _split(p, pos_second, pos_top)


@lru_cache(maxsize=2)
def compose_smu(d: Decomposition, n: int) -> Permutation:
    """Rebuild block1, n-1, block2, n, block3 from a second-max-upper split."""
    s1, s2, _ = d.sizes
    if s1 % 2 == 0 or s2 % 2 == 0:
        raise ValueError(f"first two block sizes must be odd, got {d.sizes}")
    _check_parts(d, range(1, n - 1))
    for pattern in d.patterns:
        if not _zigzags(pattern, True):
            raise ValueError(f"block pattern {pattern} is not up-down")
    return Permutation(_join(d, n - 1, n))


@lru_cache(maxsize=2)
def decompose_maxmin(p: Permutation) -> Decomposition:
    """Split an even-degree max-min up-down permutation around n and 1.

    The largest value sits at a peak, the value 1 at a valley further
    right, leaving blocks of sizes (odd, even, odd).  The outer blocks
    read as up-down and down-up patterns respectively, the middle one
    as up-down.
    """
    c = classify(p)
    if c.kind is not AltKind.UP_DOWN:
        raise ValueError(f"{p} is not up-down")
    if p.n % 2 != 0:
        raise ValueError("max-min splitting requires even degree")
    if c.minmax is not MinMaxKind.MAX_MIN:
        raise ValueError(f"{p} is min-max; the largest value must precede 1")
    return _split(p, p.position_of(p.n), p.position_of(1))


@lru_cache(maxsize=2)
def compose_maxmin(d: Decomposition, n: int) -> Permutation:
    """Rebuild block1, n, block2, 1, block3 from a max-min split."""
    if n % 2 != 0:
        raise ValueError("max-min composition requires even degree")
    s1, s2, s3 = d.sizes
    if s1 % 2 == 0 or s2 % 2 != 0 or s3 % 2 == 0:
        raise ValueError(f"block sizes must be (odd, even, odd), got {d.sizes}")
    _check_parts(d, range(2, n))
    if not (_zigzags(d.patterns[0], True) and _zigzags(d.patterns[1], True)):
        raise ValueError("the blocks before 1 must carry up-down patterns")
    if not _zigzags(d.patterns[2], False):
        raise ValueError("the block after 1 must carry a down-up pattern")
    return Permutation(_join(d, n, 1))


def maxmin_to_smu(p: Permutation, side: int) -> Permutation:
    """Send (max-min up-down of even degree, bit) to a second-max-upper one.

    The max-min split (A, B, C) with sizes (odd, even, odd) is rewired
    into the second-max split with sizes (odd, odd, even): A keeps the
    first slot, C moves to the second with its down-up pattern
    complemented into an up-down one, B moves to the third.  Value sets
    shift from {2..n-1} onto {1..n-2} order-preservingly.  The bit then
    selects one of the two landmark arrangements via swap_top_two.

    Over both bit values this is a bijection onto the second-max-upper
    up-down permutations of the same degree.
    """
    if side not in (0, 1):
        raise ValueError(f"side must be 0 or 1, got {side}")
    out = compose_smu(_smu_split_of(decompose_maxmin(p)), p.n)
    return swap_top_two(out) if side else out


@lru_cache(maxsize=2)
def _smu_split_of(d: Decomposition) -> Decomposition:
    """The max-min split (A, B, C) rewired as maxmin_to_smu says."""
    part_a, part_b, part_c = (tuple(v - 1 for v in part) for part in d.parts)
    pat_a, pat_b, pat_c = d.patterns
    up_c = tuple(len(pat_c) + 1 - v for v in pat_c)
    return Decomposition((part_a, part_c, part_b), (pat_a, up_c, pat_b))


@lru_cache(maxsize=2)
def _maxmin_split_of(d: Decomposition) -> Decomposition:
    """The second-max split rewired back, inverse of :func:`_smu_split_of`."""
    part_a, part_c, part_b = (tuple(v + 1 for v in part) for part in d.parts)
    pat_a, pat_c, pat_b = d.patterns
    down_c = tuple(len(pat_c) + 1 - v for v in pat_c)
    return Decomposition((part_a, part_b, part_c), (pat_a, pat_b, down_c))


def smu_to_maxmin(p: Permutation) -> tuple[Permutation, int]:
    """Inverse of :func:`maxmin_to_smu`: recover the max-min source and the bit."""
    if p.n % 2 != 0:
        raise ValueError("the doubling map is defined for even degree")
    _require_updown_smu(p)
    n = p.n
    side = 0 if p.position_of(n - 1) < p.position_of(n) else 1
    d = decompose_smu(_swapped(p) if side else p)
    return compose_maxmin(_maxmin_split_of(d), n), side

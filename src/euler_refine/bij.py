"""Explicit bijections behind the refined counts.

Three constructions, all exactly invertible on their stated domains:

* ``swap_top_two`` exchanges the values n-1 and n inside an up-down
  permutation whose second-largest value sits at a peak.  Both values
  occupy peak positions, peaks are never adjacent, and each dominates
  its neighbours, so the exchange preserves the zigzag; it is a
  fixed-point-free involution, which is why those counts are even.

* the block splittings ``decompose_smu`` / ``decompose_maxmin`` cut a
  permutation at two landmark values into three blocks, recording each
  block's value set and its order-isomorphic pattern (values replaced
  by their ranks).  ``compose_*`` invert them.

* ``maxmin_to_smu`` turns a max-min up-down permutation of even degree
  plus one free bit into a second-max-upper one of the same degree, by
  rewiring the two splittings slot by slot.  Its inverse is
  ``smu_to_maxmin``.  Together with the two-sided counting this makes
  the doubling relation between the two refinements literal.

Positions are 1-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .perm import (
    AltKind,
    MinMaxKind,
    Permutation,
    SecondMaxKind,
    classify,
    complement,
    is_down_up,
    is_up_down,
)


@dataclass(frozen=True)
class Decomposition:
    """Three blocks around two landmark values.

    ``sizes`` are the block lengths (summing to degree - 2), ``parts``
    the sorted value sets, ``patterns`` the standardized blocks, and
    ``landmarks`` the positions the two special values occupy.
    """

    sizes: tuple[int, int, int]
    parts: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    patterns: tuple[Permutation, Permutation, Permutation]
    landmarks: tuple[int, int]


def standardize(block: Sequence[int]) -> Permutation:
    """Order-isomorphic pattern of a block: each value replaced by its rank."""
    ranks = dict(zip(sorted(block), range(1, len(block) + 1)))
    return Permutation(tuple(map(ranks.__getitem__, block)))


def embed(pattern: Permutation, values: Sequence[int]) -> tuple[int, ...]:
    """Realize a pattern on a value set, inverse of :func:`standardize`."""
    # A leading placeholder lets the 1-based ranks index the sorted values.
    ordered = [None, *sorted(values)]
    if len(ordered) - 1 != pattern.n:
        raise ValueError(f"pattern of degree {pattern.n} cannot use {len(ordered) - 1} values")
    return tuple(map(ordered.__getitem__, pattern.values))


def _require_updown_smu(p: Permutation) -> None:
    c = classify(p)
    if c.kind is not AltKind.UP_DOWN:
        raise ValueError(f"{p} is not up-down")
    if c.secondmax is not SecondMaxKind.UPPER:
        raise ValueError(f"{p} has its second-largest value off the peaks")


def swap_top_two(p: Permutation) -> Permutation:
    """Exchange the values n-1 and n; involution on the second-max-upper set."""
    _require_updown_smu(p)
    n = p.n
    swapped = list(p.values)
    second, top = swapped.index(n - 1), swapped.index(n)
    swapped[second], swapped[top] = n, n - 1
    return Permutation(tuple(swapped))


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
    vals = p.values
    blocks = (
        vals[: pos_second - 1],
        vals[pos_second : pos_top - 1],
        vals[pos_top:],
    )
    return Decomposition(
        sizes=tuple(len(b) for b in blocks),
        parts=tuple(tuple(sorted(b)) for b in blocks),
        patterns=tuple(standardize(b) for b in blocks),
        landmarks=(pos_second, pos_top),
    )


def compose_smu(d: Decomposition, n: int) -> Permutation:
    """Rebuild block1, n-1, block2, n, block3 from a second-max-upper split."""
    s1, s2, s3 = d.sizes
    if s1 % 2 == 0 or s2 % 2 == 0:
        raise ValueError(f"first two block sizes must be odd, got {d.sizes}")
    _check_common_shape(d, n, expected_landmarks=(s1 + 1, s1 + s2 + 2),
                        free_values=range(1, n - 1))
    for pattern in d.patterns:
        if not is_up_down(pattern):
            raise ValueError(f"block pattern {pattern} is not up-down")
    values = (
        embed(d.patterns[0], d.parts[0])
        + (n - 1,)
        + embed(d.patterns[1], d.parts[1])
        + (n,)
        + embed(d.patterns[2], d.parts[2])
    )
    return Permutation(values)


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
    n = p.n
    pos_top, pos_bottom = p.position_of(n), p.position_of(1)
    vals = p.values
    blocks = (
        vals[: pos_top - 1],
        vals[pos_top : pos_bottom - 1],
        vals[pos_bottom:],
    )
    return Decomposition(
        sizes=tuple(len(b) for b in blocks),
        parts=tuple(tuple(sorted(b)) for b in blocks),
        patterns=tuple(standardize(b) for b in blocks),
        landmarks=(pos_top, pos_bottom),
    )


def compose_maxmin(d: Decomposition, n: int) -> Permutation:
    """Rebuild block1, n, block2, 1, block3 from a max-min split."""
    if n % 2 != 0:
        raise ValueError("max-min composition requires even degree")
    s1, s2, s3 = d.sizes
    if s1 % 2 == 0 or s2 % 2 != 0 or s3 % 2 == 0:
        raise ValueError(f"block sizes must be (odd, even, odd), got {d.sizes}")
    _check_common_shape(d, n, expected_landmarks=(s1 + 1, s1 + s2 + 2),
                        free_values=range(2, n))
    if not (is_up_down(d.patterns[0]) and is_up_down(d.patterns[1])):
        raise ValueError("the blocks before 1 must carry up-down patterns")
    if not is_down_up(d.patterns[2]):
        raise ValueError("the block after 1 must carry a down-up pattern")
    values = (
        embed(d.patterns[0], d.parts[0])
        + (n,)
        + embed(d.patterns[1], d.parts[1])
        + (1,)
        + embed(d.patterns[2], d.parts[2])
    )
    return Permutation(values)


def _check_common_shape(d: Decomposition, n: int, expected_landmarks, free_values) -> None:
    if sum(d.sizes) != n - 2 or any(s < 0 for s in d.sizes):
        raise ValueError(f"block sizes {d.sizes} do not fit degree {n}")
    seen: set[int] = set()
    for size, part, pattern in zip(d.sizes, d.parts, d.patterns):
        if len(part) != size or pattern.n != size:
            raise ValueError(f"block of size {size} with part {part}, pattern {pattern}")
        seen.update(part)
    if seen != set(free_values) or sum(d.sizes) != len(seen):
        raise ValueError(f"parts {d.parts} do not partition the non-landmark values")
    if d.landmarks != tuple(expected_landmarks):
        raise ValueError(f"landmarks {d.landmarks} inconsistent with sizes {d.sizes}")


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
    d = decompose_maxmin(p)
    n = p.n
    part_a, part_b, part_c = (tuple(v - 1 for v in part) for part in d.parts)
    pat_a, pat_b, pat_c = d.patterns
    sizes = (d.sizes[0], d.sizes[2], d.sizes[1])
    rewired = Decomposition(
        sizes=sizes,
        parts=(part_a, part_c, part_b),
        patterns=(pat_a, complement(pat_c), pat_b),
        landmarks=(sizes[0] + 1, sizes[0] + sizes[1] + 2),
    )
    out = compose_smu(rewired, n)
    return swap_top_two(out) if side else out


def smu_to_maxmin(p: Permutation) -> tuple[Permutation, int]:
    """Inverse of :func:`maxmin_to_smu`: recover the max-min source and the bit."""
    if p.n % 2 != 0:
        raise ValueError("the doubling map is defined for even degree")
    _require_updown_smu(p)
    n = p.n
    side = 0 if p.position_of(n - 1) < p.position_of(n) else 1
    oriented = swap_top_two(p) if side else p
    d = decompose_smu(oriented)
    part_a, part_c, part_b = (tuple(v + 1 for v in part) for part in d.parts)
    pat_a, pat_c, pat_b = d.patterns
    sizes = (d.sizes[0], d.sizes[2], d.sizes[1])
    rewired = Decomposition(
        sizes=sizes,
        parts=(part_a, part_b, part_c),
        patterns=(pat_a, pat_b, complement(pat_c)),
        landmarks=(sizes[0] + 1, sizes[0] + sizes[1] + 2),
    )
    return compose_maxmin(rewired, n), side

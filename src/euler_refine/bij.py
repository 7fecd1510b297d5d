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

Positions are 1-based, and the cores index values from 0.  Each public
map checks its input once and then runs its core, a function of plain
value tuples.  The cores assume a checked input, except the
compositions, which keep every check on the split they are given.
After the block-size parities, a composition joins the blocks once and
accepts the joined values when every pattern is as long as its part,
every rank is at least 1, and the values are an up-down permutation of
1..n.  Given the parities, that is exactly when the parts partition the
free values, each pattern is a permutation of its ranks and each
zigzags as its block must, since the landmarks are the two extremes.
Only a rejected split goes through those checks one by one, which name
the fault.  The core of ``smu_to_maxmin`` is :func:`_inverse`.
:func:`_check_subtree` runs every core on the up-down permutations of
one degree and first value, for ``verify.bijection_checks``, and packs
what it finds in a :class:`_DegreeResult`, which also reads it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple, Optional, Sequence

from . import perm  # for perm._walk, looked up when a unit runs
from .perm import (
    AltKind,
    MinMaxKind,
    Permutation,
    _text,
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


def _split(vals: tuple[int, ...], first: int, second: int) -> Decomposition:
    """Cut `vals` around the 0-based indices ``first`` < ``second``."""
    a, b, c = vals[:first], vals[first + 1:second], vals[second + 1:]
    part_a, part_b, part_c = sorted(a), sorted(b), sorted(c)
    return Decomposition((tuple(part_a), tuple(part_b), tuple(part_c)),
                         (_ranked(a, part_a), _ranked(b, part_b), _ranked(c, part_c)))


def _join(d: Decomposition, first: int, second: int) -> tuple[int, ...]:
    """Values of block 1, ``first``, block 2, ``second``, block 3."""
    (a, b, c), (pat_a, pat_b, pat_c) = d.parts, d.patterns
    return embed(pat_a, a) + (first,) + embed(pat_b, b) + (second,) + embed(pat_c, c)


def _joined(d: Decomposition, n: int, first: int, second: int) -> tuple[int, ...] | None:
    """What :func:`_join` gives, if each pattern holds one rank of at least 1
    per value of its part and the result is a permutation of 1..n; else None."""
    try:
        (a, b, c), (pat_a, pat_b, pat_c) = d
        if (len(pat_a) != len(a) or len(pat_b) != len(b) or len(pat_c) != len(c)
                or min(*pat_a, *pat_b, *pat_c, 1) < 1):
            return None
        # Rank r reads index r - 1 of the sorted part, so rank 0 would read
        # its last value: only the check above keeps ranks below 1 out.
        index = (-1).__add__
        vals = (*map(sorted(a).__getitem__, map(index, pat_a)), first,
                *map(sorted(b).__getitem__, map(index, pat_b)), second,
                *map(sorted(c).__getitem__, map(index, pat_c)))
        if len(vals) == n and set(vals).issuperset(range(1, n + 1)):
            return vals
    except (IndexError, TypeError, ValueError):  # a rank above its part, or no three blocks of ints
        pass
    return None


def _check_parts(d: Decomposition, free_values: range) -> None:
    """Reject parts that are not exactly ``free_values``, each once."""
    values = [v for part in d.parts for v in part]
    if len(values) != len(free_values) or set(values) != set(free_values):
        raise ValueError(f"parts {d.parts} do not partition the non-landmark values")


def _require_smu(vals: tuple[int, ...]) -> None:
    """Reject values that are not up-down with n-1 at a peak (an odd 0-based index)."""
    if not _zigzags(vals, True):
        raise ValueError(f"{_text(vals)} is not up-down")
    if vals.index(len(vals) - 1) % 2 == 0:
        raise ValueError(f"{_text(vals)} has its second-largest value off the peaks")


def _require_updown_smu(p: Permutation) -> None:
    classify(p)  # rejects a degree below 2 and a permutation that does not alternate
    _require_smu(p.values)


def swap_top_two(p: Permutation) -> Permutation:
    """Exchange the values n-1 and n; involution on the second-max-upper set."""
    _require_updown_smu(p)
    return Permutation(_swapped(p.values))


def _swapped(vals: tuple[int, ...]) -> tuple[int, ...]:
    """`vals` with the values n-1 and n exchanged."""
    n = len(vals)
    swapped = list(vals)
    second, top = swapped.index(n - 1), swapped.index(n)
    swapped[second], swapped[top] = n, n - 1
    return tuple(swapped)


def decompose_smu(p: Permutation) -> Decomposition:
    """Split around n-1 and n (in that order) into three up-down blocks.

    Requires n-1 to appear left of n; the mirrored arrangement is
    reached through :func:`swap_top_two` first.  The block sizes are
    (odd, odd, rest) and the landmark positions are determined by them.
    """
    _require_updown_smu(p)
    n = p.n
    if p.position_of(n) < p.position_of(n - 1):
        raise ValueError(
            f"{p} carries {n} left of {n - 1}; apply swap_top_two before decomposing"
        )
    return _decompose_smu(p.values)


def _decompose_smu(vals: tuple[int, ...]) -> Decomposition:
    n = len(vals)
    return _split(vals, vals.index(n - 1), vals.index(n))


def compose_smu(d: Decomposition, n: int) -> Permutation:
    """Rebuild block1, n-1, block2, n, block3 from a second-max-upper split."""
    return Permutation(_compose_smu(d, n))


def _compose_smu(d: Decomposition, n: int) -> tuple[int, ...]:
    s1, s2, _ = d.sizes
    if s1 % 2 == 0 or s2 % 2 == 0:
        raise ValueError(f"first two block sizes must be odd, got {d.sizes}")
    vals = _joined(d, n, n - 1, n)
    if vals is not None and _zigzags(vals, True):
        return vals
    # Rejected: the checks one by one, to name what is wrong.
    _check_parts(d, range(1, n - 1))
    for pattern in d.patterns:
        if not _zigzags(pattern, True):
            raise ValueError(f"block pattern {pattern} is not up-down")
    return _join(d, n - 1, n)


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
    return _decompose_maxmin(p.values)


def _decompose_maxmin(vals: tuple[int, ...]) -> Decomposition:
    return _split(vals, vals.index(len(vals)), vals.index(1))


def compose_maxmin(d: Decomposition, n: int) -> Permutation:
    """Rebuild block1, n, block2, 1, block3 from a max-min split."""
    return Permutation(_compose_maxmin(d, n))


def _compose_maxmin(d: Decomposition, n: int) -> tuple[int, ...]:
    if n % 2 != 0:
        raise ValueError("max-min composition requires even degree")
    s1, s2, s3 = d.sizes
    if s1 % 2 == 0 or s2 % 2 != 0 or s3 % 2 == 0:
        raise ValueError(f"block sizes must be (odd, even, odd), got {d.sizes}")
    vals = _joined(d, n, n, 1)
    if vals is not None and _zigzags(vals, True):
        return vals
    # Rejected: the checks one by one, to name what is wrong.
    _check_parts(d, range(2, n))
    if not (_zigzags(d.patterns[0], True) and _zigzags(d.patterns[1], True)):
        raise ValueError("the blocks before 1 must carry up-down patterns")
    if not _zigzags(d.patterns[2], False):
        raise ValueError("the block after 1 must carry a down-up pattern")
    return _join(d, n, 1)


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
    image = _compose_smu(_smu_split_of(decompose_maxmin(p)), p.n)
    return Permutation(_swapped(image) if side else image)


def _smu_split_of(d: Decomposition) -> Decomposition:
    """The max-min split (A, B, C) rewired as maxmin_to_smu says."""
    (part_a, part_b, part_c), (pat_a, pat_b, pat_c) = d
    down = (-1).__add__
    return Decomposition(
        (tuple(map(down, part_a)), tuple(map(down, part_c)), tuple(map(down, part_b))),
        (pat_a, tuple(map((len(pat_c) + 1).__sub__, pat_c)), pat_b))


def _maxmin_split_of(d: Decomposition) -> Decomposition:
    """The second-max split rewired back, inverse of :func:`_smu_split_of`."""
    (part_a, part_c, part_b), (pat_a, pat_c, pat_b) = d
    up = (1).__add__
    return Decomposition(
        (tuple(map(up, part_a)), tuple(map(up, part_b)), tuple(map(up, part_c))),
        (pat_a, pat_b, tuple(map((len(pat_c) + 1).__sub__, pat_c))))


def smu_to_maxmin(p: Permutation) -> tuple[Permutation, int]:
    """Inverse of :func:`maxmin_to_smu`: recover the max-min source and the bit."""
    if p.n % 2 != 0:
        raise ValueError("the doubling map is defined for even degree")
    _require_updown_smu(p)
    (source, side), _ = _inverse(p.values)
    return Permutation(source), side


def _inverse(q: tuple[int, ...], d: Optional[Decomposition] = None,
             back: Optional[tuple] = None, last: Optional[tuple] = None) -> tuple[tuple, tuple]:
    """The max-min source and the side of the second-max-upper image q, and the
    pair (left form, source) to pass as `last` for the next image.

    The left form of q has n-1 left of n (:func:`_oriented`); its second-max
    split, rewired, composes to the source.  As the cores are pure, `back`, what
    ``_compose_maxmin(d, n)`` gave for the max-min split d, serves a rewired
    split equal to d, and `last` an equal left form; a core that raised gives
    neither, so it runs again.
    """
    left, side = _oriented(q)
    if last is None or last[0] != left:
        split = _maxmin_split_of(_decompose_smu(left))
        last = left, (back if back is not None and split == d else _compose_maxmin(split, len(q)))
    return (last[1], side), last


def _oriented(vals: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """`vals` with n-1 left of n, and the side: 1 if n-1 and n were swapped for it."""
    n = len(vals)
    if vals.index(n - 1) < vals.index(n):
        return vals, 0
    return _swapped(vals), 1


def _raised(witness: str, exc: Exception) -> str:
    return f"{witness} raised {type(exc).__name__}: {exc}"


class _DegreeResult:
    """What one subtree of one degree found; witnesses in enumeration order.

    `smu` and `maxmin` count the second-max-upper and the max-min permutations
    checked.  At even degree, `images` packs the doubling map's images as n
    bytes each, one per value, in one blob per first value of the image,
    and `smu_values` the second-max-upper set: each permutation's bytes,
    joined in sorted order once its unit is checked.  :meth:`read` reads both.
    """

    __slots__ = ("fixed", "involution_bad", "smu_bad", "lefts", "maxmin_bad", "images",
                 "inverse_bad", "smu", "maxmin", "smu_values")

    def __init__(self) -> None:
        self.fixed: list[str] = []
        self.involution_bad: list[str] = []
        self.smu_bad: list[str] = []
        self.lefts = 0
        self.maxmin_bad: list[str] = []
        self.images: defaultdict[int, bytearray] = defaultdict(bytearray)
        self.inverse_bad: list[str] = []
        self.smu = 0
        self.maxmin = 0
        self.smu_values: list[bytes] = []

    def absorb(self, later: _DegreeResult) -> None:
        """Append the results of the subtree that follows this one."""
        for name in self.__slots__:
            mine, theirs = getattr(self, name), getattr(later, name)
            if isinstance(mine, list):
                mine.extend(theirs)
            elif isinstance(mine, dict):
                for first, blob in theirs.items():
                    mine[first].extend(blob)
            else:
                setattr(self, name, mine + theirs)

    def read(self, n: int) -> tuple[int, str, str]:
        """The number of distinct images of the merged even degree n, the text of
        their list sorted one first value at a time, and that of the sorted
        second-max-upper list, one text when the lists are equal, as in every
        passing run.  The packed values are released."""
        images = b"".join(b"".join(sorted(set(_records(bytes(self.images.get(first, b"")), n))))
                          for first in range(1, n + 1))
        smu, self.images, self.smu_values = b"".join(self.smu_values), {}, []
        image_text = _list_text(images, n)
        return len(images) // n, image_text, image_text if smu == images else _list_text(smu, n)


def _records(blob: bytes, n: int) -> list[bytes]:
    return [blob[i:i + n] for i in range(0, len(blob), n)]


def _list_text(blob: bytes, n: int) -> str:
    """The text of the list of records of n >= 2 values as tuples: each 1,024
    records rendered by one % format over their values, the chunks joined once."""
    record = "(" + ", ".join(["%d"] * n) + ")"
    parts = ["["]
    for i in range(0, len(blob), 1024 * n):
        chunk = blob[i:i + 1024 * n]
        parts += [", " * bool(i), ", ".join([record] * (len(chunk) // n)) % tuple(chunk)]
    return "".join(parts + ["]"])


def _check_subtree(unit: tuple[int, int]) -> _DegreeResult:
    """Walk the up-down permutations of degree n that start with one value,
    given as the unit (n, first), as value tuples, and check each as it
    comes; only counts, witnesses and packed values are kept."""
    n, first = unit
    r = _DegreeResult()
    for v in perm._walk(n, AltKind.UP_DOWN, first):
        _check_one(v, n, r)
    r.smu_values = [b"".join(sorted(r.smu_values))]
    return r


def _check_one(v: tuple[int, ...], n: int, r: _DegreeResult) -> None:
    """Check the up-down permutation of degree n with values `v` into `r`.

    A second-max-upper permutation gets the involution check and its
    split round trip; at even n, a max-min one gets its split round trip
    and both sides of the doubling map.  The classes are read from the
    positions of 1, n - 1 and n, and the maps run as their cores, on value
    tuples: the doubling image is composed once, and its side-1 form is
    that image with n - 1 and n swapped.  Each image must be second-max-upper
    up-down before :func:`_inverse` runs on it, given what this call has
    composed already.  A map that raises on a permutation, or doubles it to
    another degree, records that permutation as a failure, with the reason
    in its witness.
    """
    even = n % 2 == 0
    index = v.index
    # Up-down: the peaks sit at the odd 0-based indices.
    if index(n - 1) % 2:
        r.smu += 1
        if even:
            r.smu_values.append(bytes(v))
        try:
            q = _swapped(v)
            if q == v:
                r.fixed.append(_text(v))
            _require_smu(q)
            if _swapped(q) != v:
                r.involution_bad.append(_text(v))
        except Exception as exc:
            r.involution_bad.append(_raised(_text(v), exc))
        if index(n - 1) < index(n):
            r.lefts += 1
            try:
                if _compose_smu(_decompose_smu(v), n) != v:
                    r.smu_bad.append(_text(v))
            except Exception as exc:
                r.smu_bad.append(_raised(_text(v), exc))
    if not even or index(1) < index(n):
        return
    r.maxmin += 1
    try:
        d = _decompose_maxmin(v)
    except Exception as exc:  # no round trip and no image without the split
        r.maxmin_bad.append(_raised(_text(v), exc))
        r.inverse_bad += [_raised(f"{_text(v)} with side {side}", exc) for side in (0, 1)]
        return
    back = None  # what _compose_maxmin gave for d, if it did not raise
    try:
        back = _compose_maxmin(d, n)
        if back != v:
            r.maxmin_bad.append(_text(v))
    except Exception as exc:
        r.maxmin_bad.append(_raised(_text(v), exc))
    try:
        image = _compose_smu(_smu_split_of(d), n)
    except Exception as exc:
        r.inverse_bad += [_raised(f"{_text(v)} with side {side}", exc) for side in (0, 1)]
        return
    last = None
    for side in (0, 1):
        try:
            q = _swapped(image) if side else image
            if len(q) != n:
                raise ValueError(f"its image {_text(q)} has degree {len(q)}")
            r.images[q[0]].extend(q)
            _require_smu(q)
            found, last = _inverse(q, d, back, last)
            if found != (v, side):
                r.inverse_bad.append(f"{_text(v)} with side {side}")
        except Exception as exc:
            r.inverse_bad.append(_raised(f"{_text(v)} with side {side}", exc))


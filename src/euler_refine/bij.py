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
  plus one free bit into a second-max-upper one of the same degree.  It
  rewires the max-min splitting into the second-max one slot by slot,
  which comes down to relabelling the values: cut at n and 1 into A, B
  and C, the image is A-1, n-1, flip(C)-1, n, B-1, where flip sends the
  k-th smallest value of C to the k-th largest.  Its inverse is
  ``smu_to_maxmin``.  Together with the two-sided counting this makes
  the doubling relation between the two refinements literal.

Positions are 1-based, and the cores index values from 0.  The cores
work on byte strings, one byte per value, and each relabelling is one
``bytes.translate`` through a table of 256 bytes.  Each public map but
the compositions checks its input, packs it with ``bytes``, which limits
the degree to 255, runs its core and gives tuples back.  A public
composition takes its split from outside the program, so it runs every
check on the split in turn, as given, then joins the blocks, with no
limit on the degree.  The cores assume a checked input, except the
compositions, which serve only the check loop and its splits from
:func:`_split`: after the block-size parities, a core joins the blocks
once and accepts the joined values when every pattern is as long as its
part and the values are an up-down permutation of 1..n; as ``translate``
passes a byte missing from its table through, the tables send every rank
outside 1..k to 0.  Given the parities, that is exactly when the parts
partition the free values, each pattern is a permutation of its ranks and
each zigzags as its block must, since the landmarks are the two extremes.
Only a rejected split goes through those checks one by one, which name
the fault.  The cores of the doubling map, :func:`_doubled` and
:func:`_halved`, relabel values and build no split: the splits they
would pass between are the max-min splits and the second-max splits of
the left-oriented second-max-upper permutations, which the two split
round trips compose already.  :func:`_check_subtree` runs every core on
the up-down permutations of one degree and first value, for
``verify.bijection_checks``, and packs what it finds in a
:class:`_DegreeResult`, which also reads it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple, Sequence

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
    their standardized forms, as rank tuples; the cores hold each block
    as bytes instead.  ``sizes`` is derived from the parts; it sums to
    degree - 2 and puts the landmarks at s1 + 1 and s1 + s2 + 2.
    """

    parts: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    patterns: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    @property
    def sizes(self) -> tuple[int, int, int]:
        return tuple(map(len, self.parts))


def embed(pattern: Sequence[int], values: Sequence[int]) -> tuple[int, ...]:
    """Realize a pattern on a value set: rank r becomes the r-th smallest value."""
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


# The byte tables of the cores: _RANKS[k] holds 1..k, _DOWN and _UP take
# each value one down and one up, and _SWAPS[n] exchanges n - 1 and n.
_RANKS = tuple(bytes(range(1, k + 1)) for k in range(256))
_DOWN = bytes((0, *range(255)))
_UP = bytes((*range(1, 256), 255))
_SWAPS = (bytes(range(256)),
          *(bytes.maketrans(bytes((n - 1, n)), bytes((n, n - 1))) for n in range(1, 256)))


def _packed(p: Permutation) -> bytes:
    """The values of `p` as the cores take them, one byte each."""
    if p.n > 255:
        raise ValueError("degree must be at most 255, as each value is packed in one byte")
    return bytes(p.values)


def _unpacked(d: Decomposition) -> Decomposition:
    return Decomposition(tuple(map(tuple, d.parts)), tuple(map(tuple, d.patterns)))


def _split(vals: bytes, first: int, second: int) -> Decomposition:
    """Cut `vals` around the 0-based indices ``first`` < ``second``; each
    block's pattern relabels its values, sorted, as the ranks 1..k."""
    a, b, c = vals[:first], vals[first + 1:second], vals[second + 1:]
    part_a, part_b, part_c = bytes(sorted(a)), bytes(sorted(b)), bytes(sorted(c))
    table, ranks = bytes.maketrans, _RANKS
    return Decomposition((part_a, part_b, part_c),
                         (a.translate(table(part_a, ranks[len(a)])),
                          b.translate(table(part_b, ranks[len(b)])),
                          c.translate(table(part_c, ranks[len(c)]))))


def _joined(d: Decomposition, n: int, first: int, second: int) -> bytes | None:
    """Block 1, ``first``, block 2, ``second``, block 3, if each pattern is as
    long as its part and the result is a permutation of 1..n; else None.

    The parts must be in increasing order, as :func:`_split` gives them.
    A table realizes each pattern: rank r goes to the r-th value of the
    part, and any other rank to 0, which no permutation of 1..n holds.
    """
    (a, b, c), (pat_a, pat_b, pat_c) = d
    if len(pat_a) != len(a) or len(pat_b) != len(b) or len(pat_c) != len(c):
        return None
    zero = b"\0"
    vals = b"".join((pat_a.translate((zero + a).ljust(256, zero)), bytes((first,)),
                     pat_b.translate((zero + b).ljust(256, zero)), bytes((second,)),
                     pat_c.translate((zero + c).ljust(256, zero))))
    # n values that cover 1..n, none left when deleted, are exactly a permutation of 1..n.
    return vals if len(vals) == n and not _RANKS[n].translate(None, vals) else None


def _join(d: Decomposition, first: int, second: int) -> tuple[int, ...]:
    """Values of block 1, ``first``, block 2, ``second``, block 3."""
    (a, b, c), (pat_a, pat_b, pat_c) = d.parts, d.patterns
    return embed(pat_a, a) + (first,) + embed(pat_b, b) + (second,) + embed(pat_c, c)


def _check_parts(d: Decomposition, free_values: range) -> None:
    """Reject parts that are not exactly ``free_values``, each once."""
    values = [v for part in d.parts for v in part]
    if len(values) != len(free_values) or set(values) != set(free_values):
        raise ValueError(f"parts {d.parts} do not partition the non-landmark values")


def _require_smu(vals: bytes) -> None:
    """Reject values that are not up-down with n-1 at a peak (an odd 0-based index)."""
    if not _zigzags(vals, True):
        raise ValueError(f"{_text(vals)} is not up-down")
    if vals.index(len(vals) - 1) % 2 == 0:
        raise ValueError(f"{_text(vals)} has its second-largest value off the peaks")


def _require_updown_smu(p: Permutation) -> bytes:
    """The packed values of `p`, refused unless up-down with n-1 at a peak."""
    vals = _packed(p)
    classify(p)  # rejects a degree below 2 and a permutation that does not alternate
    _require_smu(vals)
    return vals


def swap_top_two(p: Permutation) -> Permutation:
    """Exchange the values n-1 and n; involution on the second-max-upper set."""
    return Permutation(tuple(_swapped(_require_updown_smu(p))))


def _swapped(vals: bytes) -> bytes:
    """`vals` with the values n-1 and n exchanged."""
    return vals.translate(_SWAPS[len(vals)])


def decompose_smu(p: Permutation) -> Decomposition:
    """Split around n-1 and n (in that order) into three up-down blocks.

    Requires n-1 to appear left of n; the mirrored arrangement is
    reached through :func:`swap_top_two` first.  The block sizes are
    (odd, odd, rest) and the landmark positions are determined by them.
    """
    vals = _require_updown_smu(p)
    n = p.n
    if p.position_of(n) < p.position_of(n - 1):
        raise ValueError(
            f"{p} carries {n} left of {n - 1}; apply swap_top_two before decomposing"
        )
    return _unpacked(_decompose_smu(vals))


def _decompose_smu(vals: bytes) -> Decomposition:
    n = len(vals)
    return _split(vals, vals.index(n - 1), vals.index(n))


def compose_smu(d: Decomposition, n: int) -> Permutation:
    """Rebuild block1, n-1, block2, n, block3 from a second-max-upper split,
    checking it in turn as :func:`_checked_smu` does."""
    return Permutation(_checked_smu(d, n))


def _compose_smu(d: Decomposition, n: int) -> bytes:
    """The values that the packed split `d`, parts in increasing order, joins
    to; a rejected split raises what :func:`_checked_smu` raises on it as tuples."""
    s1, s2, _ = d.sizes
    if s1 % 2 and s2 % 2:
        vals = _joined(d, n, n - 1, n)
        if vals is not None and _zigzags(vals, True):
            return vals
    return bytes(_checked_smu(_unpacked(d), n))


def _checked_smu(d: Decomposition, n: int) -> tuple[int, ...]:
    """The checks of a second-max-upper split one by one, to name the first
    fault; the joined values if it has none."""
    s1, s2, _ = d.sizes
    if s1 % 2 == 0 or s2 % 2 == 0:
        raise ValueError(f"first two block sizes must be odd, got {d.sizes}")
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
    return _unpacked(_decompose_maxmin(_require_maxmin(p)))


def _require_maxmin(p: Permutation) -> bytes:
    """The packed values of `p`, refused unless max-min up-down of even degree."""
    vals = _packed(p)
    c = classify(p)
    if c.kind is not AltKind.UP_DOWN:
        raise ValueError(f"{p} is not up-down")
    if p.n % 2 != 0:
        raise ValueError("max-min splitting requires even degree")
    if c.minmax is not MinMaxKind.MAX_MIN:
        raise ValueError(f"{p} is min-max; the largest value must precede 1")
    return vals


def _decompose_maxmin(vals: bytes) -> Decomposition:
    return _split(vals, vals.index(len(vals)), vals.index(1))


def compose_maxmin(d: Decomposition, n: int) -> Permutation:
    """Rebuild block1, n, block2, 1, block3 from a max-min split, checking
    it in turn as :func:`_checked_maxmin` does."""
    return Permutation(_checked_maxmin(d, n))


def _compose_maxmin(d: Decomposition, n: int) -> bytes:
    """As :func:`_compose_smu`, for a max-min split."""
    s1, s2, s3 = d.sizes
    if n % 2 == 0 and s1 % 2 and s2 % 2 == 0 and s3 % 2:
        vals = _joined(d, n, n, 1)
        if vals is not None and _zigzags(vals, True):
            return vals
    return bytes(_checked_maxmin(_unpacked(d), n))


def _checked_maxmin(d: Decomposition, n: int) -> tuple[int, ...]:
    """The checks of a max-min split one by one, as :func:`_checked_smu`."""
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
    return _join(d, n, 1)


def maxmin_to_smu(p: Permutation, side: int) -> Permutation:
    """Send (max-min up-down of even degree, bit) to a second-max-upper one.

    With n at index i and 1 at index j (0-based), the blocks are
    A = v[:i], B = v[i+1:j] and C = v[j+1:], of sizes (odd, even, odd).
    The side-0 image is A-1, n-1, flip(C)-1, n, B-1, where flip sends
    the k-th smallest value of C to the k-th largest (:func:`_doubled`).
    This is the max-min split (A, B, C) rewired slot by slot into a
    second-max split of sizes (odd, odd, even): A keeps the first slot,
    C moves to the second with its down-up pattern complemented into an
    up-down one, B moves to the third, and the value sets shift from
    {2..n-1} onto {1..n-2} order-preservingly; the relabelling builds
    neither split.  The bit then selects one of the two landmark
    arrangements via swap_top_two.

    Over both bit values this is a bijection onto the second-max-upper
    up-down permutations of the same degree.
    """
    if type(side) is not int or side not in (0, 1):  # a bool or a float may equal an int
        raise ValueError(f"side must be 0 or 1, got {side!r}")
    image = _doubled(_require_maxmin(p))
    return Permutation(tuple(_swapped(image) if side else image))


def _doubled(v: bytes) -> bytes:
    """The side-0 image of the max-min values v: A-1, n-1, flip(C)-1, n, B-1."""
    n = len(v)
    i, j = v.index(n), v.index(1)
    # n + 1 fits in a byte, as the degree is even.
    return b"".join((v[:i + 1], _flipped(v[j + 1:]), bytes((n + 1,)), v[i + 1:j])).translate(_DOWN)


def _flipped(block: bytes) -> bytes:
    """`block` with its k-th smallest value replaced by its k-th largest."""
    ordered = bytes(sorted(block))
    return block.translate(bytes.maketrans(ordered, ordered[::-1]))


def smu_to_maxmin(p: Permutation) -> tuple[Permutation, int]:
    """Inverse of :func:`maxmin_to_smu`: recover the max-min source and the bit.

    The input is oriented with n-1 left of n, the bit saying whether
    that took a swap, and cut at n-1 and n into A', C' and B'; the
    source is A'+1, n, B'+1, 1, flip(C')+1 (:func:`_halved`).
    """
    if p.n % 2 != 0:
        raise ValueError("the doubling map is defined for even degree")
    left, side = _oriented(_require_updown_smu(p))
    return Permutation(tuple(_halved(left))), side


def _halved(left: bytes) -> bytes:
    """The max-min source of the side-0 image `left`: A'+1, n, B'+1, 1, flip(C')+1."""
    n = len(left)
    i, j = left.index(n - 1), left.index(n)
    # The 0 goes up to the value 1.
    return b"".join((left[:i + 1], left[j + 1:], b"\0", _flipped(left[i + 1:j]))).translate(_UP)


def _oriented(vals: bytes) -> tuple[bytes, int]:
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
    given as the unit (n, first), pack the values of each as bytes and check
    it as it comes; only counts, witnesses and packed values are kept."""
    n, first = unit
    r = _DegreeResult()
    for v in map(bytes, perm._walk(n, AltKind.UP_DOWN, first)):
        _check_one(v, n, r)
    r.smu_values = [b"".join(sorted(r.smu_values))]
    return r


def _check_one(v: bytes, n: int, r: _DegreeResult) -> None:
    """Check the up-down permutation of degree n with values `v` into `r`.

    A second-max-upper permutation gets the involution check and its
    split round trip; at even n, a max-min one gets its split round trip
    and both sides of the doubling map.  The classes are read from the
    positions of 1, n - 1 and n, and the maps run as their cores, on byte
    strings, one byte per value, each relabelling one ``bytes.translate``:
    the doubling image is relabelled once, and its side-1 form is
    that image with n - 1 and n swapped.  Each image must be second-max-upper
    up-down before its form with n - 1 left of n is inverted by
    :func:`_halved`; side 1 takes the source of side 0 when that form is
    side 0's, as it is unless a map is at fault.  No split is built for the
    doubling map: the splits it passes between are the max-min splits and
    the second-max splits of the left-oriented second-max-upper
    permutations, and the two round trips compose each of those.  A map
    that raises on a permutation, or doubles it to another degree, records
    that permutation as a failure, with the reason in its witness.
    """
    even = n % 2 == 0
    second, top = v.index(n - 1), v.index(n)
    # Up-down: the peaks sit at the odd 0-based indices.
    if second % 2:
        r.smu += 1
        if even:
            r.smu_values.append(v)
        try:
            q = _swapped(v)
            if q == v:
                r.fixed.append(_text(v))
            _require_smu(q)
            if _swapped(q) != v:
                r.involution_bad.append(_text(v))
        except Exception as exc:
            r.involution_bad.append(_raised(_text(v), exc))
        if second < top:
            r.lefts += 1
            try:
                if _compose_smu(_decompose_smu(v), n) != v:
                    r.smu_bad.append(_text(v))
            except Exception as exc:
                r.smu_bad.append(_raised(_text(v), exc))
    if not even or v.index(1) < top:
        return
    r.maxmin += 1
    try:
        if _compose_maxmin(_decompose_maxmin(v), n) != v:
            r.maxmin_bad.append(_text(v))
    except Exception as exc:
        r.maxmin_bad.append(_raised(_text(v), exc))
    try:
        image = _doubled(v)
    except Exception as exc:
        r.inverse_bad += [_raised(f"{_text(v)} with side {side}", exc) for side in (0, 1)]
        return
    left = source = None  # the last left form inverted, and its source
    for side in (0, 1):
        try:
            q = _swapped(image) if side else image
            if len(q) != n:
                raise ValueError(f"its image {_text(q)} has degree {len(q)}")
            r.images[q[0]].extend(q)
            _require_smu(q)
            oriented, found = _oriented(q)
            if oriented != left:
                left, source = oriented, _halved(oriented)
            if (source, found) != (v, side):
                r.inverse_bad.append(f"{_text(v)} with side {side}")
        except Exception as exc:
            r.inverse_bad.append(_raised(f"{_text(v)} with side {side}", exc))

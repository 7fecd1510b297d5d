"""Shared fixtures: CPU sets, cached enumerations, frozen reference rows,
the enumeration, classification, counting, bijection-check, composition,
doubling-map, series, convolution and Euler-number oracles, a b-file
reader, a writer's text and the environment of a new interpreter."""

import io
import itertools
import os
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from pathlib import Path
from typing import NamedTuple

import euler_refine
from euler_refine import (
    AltKind,
    CheckEntry,
    Classification,
    CountTable,
    MinMaxKind,
    SecondMaxKind,
    VerifyReport,
    bij,
    classify,
    Permutation,
    enumerate_alternating,
    verify,
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


def recursive_enumerate_alternating(n, kind, first=None):
    """The alternating permutations of one kind in lexicographic order, by
    nested generators, one per position.

    The recursive walk that the one-frame stack of
    ``perm.enumerate_alternating`` replaced, kept as its oracle.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    if first is not None and not 1 <= first <= n:
        raise ValueError(f"first value must be in 1..{n}, got {first}")
    used = bytearray(n + 1)
    partial = []
    rise_parity = 1 if kind is AltKind.UP_DOWN else 0

    def extend():
        idx = len(partial)
        if idx == n:
            yield Permutation(tuple(partial))
            return
        if idx == 0:
            candidates = range(1, n + 1) if first is None else (first,)
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


def enumerate_alternating_by_filter(n, kind):
    """Reference generator: filter all n! permutations (small n only)."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    for values in itertools.permutations(range(1, n + 1)):
        if reference_zigzags(values, kind is AltKind.UP_DOWN):
            yield Permutation(values)


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

    The counting path that came before the leaf walk, kept as an oracle of the count.
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

    The leaf-by-leaf walk that ``perm.count_refinements`` ran before it
    merged prefixes with the same completions, restricted to one first
    value; kept as the oracle of the merged count.  Every position down to
    the last runs its candidate loop.
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


def state_by_state_count_kind(n, kind):
    """The four joint class counts of the alternating permutations of one
    kind, indexed by the min-max bit plus twice the upper bit.

    The merged-prefix pass that ``perm._count_kind`` ran before it swept
    each row of last values with a running sum, kept as its oracle: a state
    is (used, last, bits), and each state steps to each of its candidates.
    """
    peak_parity = 1 if kind is AltKind.UP_DOWN else 0
    top = 1 << n
    layer = {(0, n + 1 if peak_parity else 0, 0): 1}  # (used, last, bits) -> prefixes
    for idx in range(n):
        at_peak = idx % 2 == peak_parity
        following = {}
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


def reference_count_table(n):
    """The CountTable the classify-over-generator path builds for degree n."""
    e, ene, enw, eup, edown = reference_tally(n, AltKind.UP_DOWN)
    e_downup, _, _, dup, ddown = reference_tally(n, AltKind.DOWN_UP)
    if e_downup != e:
        raise AssertionError(f"population mismatch at degree {n}: {e} vs {e_downup}")
    return CountTable(n=n, e=e, ene=ene, enw=enw, eup=eup, edown=edown,
                      dup=dup, ddown=ddown)


def _failed(items, text, passes):
    """The texts of the items that fail `passes` or make it raise, with the
    reason of each raise, as the witnesses of ``verify.bijection_checks``."""
    bad = []
    for item in items:
        try:
            if not passes(item):
                bad.append(text(item))
        except Exception as exc:
            bad.append(f"{text(item)} raised {type(exc).__name__}: {exc}")
    return bad


def _image(p, side, n):
    """The values of the doubling map's image of (p, side), or None when
    it raises or has another degree than n."""
    try:
        values = bij.maxmin_to_smu(p, side).values
    except Exception:
        return None
    return values if len(values) == n else None


def whole_degree_bijection_checks(max_n):
    """The reports of ``verify.bijection_checks(max_n)``, degree by degree
    in this process: every second-max-upper and max-min permutation of a
    degree is built and classified first, then each check runs the maps of
    ``bij`` over the whole list.

    The path that came before the units of one (degree, first value)
    subtree, kept as the oracle of the streamed one; it shares no check
    loop with it.  On a passing run the two agree entry for entry; a map
    that raises fails every check here that calls it.
    """
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    failure_count = verify._failure_count
    involution = VerifyReport("swap_top_two involution", "enumeration", "enumeration")
    smu_roundtrip = VerifyReport("second-max-upper split round trip", "enumeration", "enumeration")
    maxmin_roundtrip = VerifyReport("max-min split round trip", "enumeration", "enumeration")
    doubling = VerifyReport("doubling map bijectivity", "enumeration", "enumeration")
    text = Permutation.to_text
    for n in range(2, max_n + 1):
        smu, maxmin = [], []
        for p in enumerate_alternating(n, AltKind.UP_DOWN):
            c = classify(p)
            if c.secondmax is SecondMaxKind.UPPER:
                smu.append(p)
            if c.minmax is MinMaxKind.MAX_MIN:
                maxmin.append(p)
        lefts = [p for p in smu if p.position_of(n - 1) < p.position_of(n)]
        involution.entries += [
            failure_count(n, "fixed points", _failed(smu, text, lambda p: bij.swap_top_two(p) != p)),
            failure_count(n, "involution violations", _failed(
                smu, text, lambda p: bij.swap_top_two(bij.swap_top_two(p)) == p
                and classify(bij.swap_top_two(p)).secondmax is SecondMaxKind.UPPER)),
        ]
        smu_roundtrip.entries += [
            failure_count(n, "round-trip failures", _failed(
                lefts, text, lambda p: bij.compose_smu(bij.decompose_smu(p), n) == p)),
            CheckEntry(n, "left-oriented half", 2 * len(lefts), len(smu)),
        ]
        if n % 2:
            continue
        maxmin_roundtrip.entries.append(failure_count(n, "round-trip failures", _failed(
            maxmin, text, lambda p: bij.compose_maxmin(bij.decompose_maxmin(p), n) == p)))
        pairs = [(p, side) for p in maxmin for side in (0, 1)]
        images = {_image(p, side, n) for p, side in pairs} - {None}
        doubling.entries += [
            CheckEntry(n, "image size", len(images), 2 * len(maxmin)),
            CheckEntry(n, "image = second-max-upper set",
                       str(sorted(images)), str(sorted(p.values for p in smu))),
            failure_count(n, "inverse round-trip failures", _failed(
                pairs, lambda ps: f"{ps[0].to_text()} with side {ps[1]}",
                lambda ps: bij.smu_to_maxmin(bij.maxmin_to_smu(*ps)) == ps)),
        ]
    return [involution, smu_roundtrip, maxmin_roundtrip, doubling]


def _checked_embed(pattern, values):
    ordered = [None, *sorted(values)]
    k = len(ordered) - 1
    if len(pattern) != k:
        raise ValueError(f"pattern of degree {len(pattern)} cannot use {k} values")
    if not set(pattern).issuperset(range(1, k + 1)):
        raise ValueError(f"pattern {pattern} is not a permutation of 1..{k}")
    return tuple(map(ordered.__getitem__, pattern))


def _checked_join(d, first, second):
    (a, b, c), (pat_a, pat_b, pat_c) = d.parts, d.patterns
    return (_checked_embed(pat_a, a) + (first,) + _checked_embed(pat_b, b) + (second,)
            + _checked_embed(pat_c, c))


def _check_parts(d, free_values):
    values = [v for part in d.parts for v in part]
    if len(values) != len(free_values) or set(values) != set(free_values):
        raise ValueError(f"parts {d.parts} do not partition the non-landmark values")


def checked_compose_smu(d, n):
    """``bij._compose_smu`` as it was before it joined the blocks first:
    every check on the split in turn, then the join, which checks each
    pattern against its part.  Kept as the oracle of the core, which must
    give the same values or raise the same exception with the same message."""
    s1, s2, _ = d.sizes
    if s1 % 2 == 0 or s2 % 2 == 0:
        raise ValueError(f"first two block sizes must be odd, got {d.sizes}")
    _check_parts(d, range(1, n - 1))
    for pattern in d.patterns:
        if not reference_zigzags(pattern, True):
            raise ValueError(f"block pattern {pattern} is not up-down")
    return _checked_join(d, n - 1, n)


def checked_compose_maxmin(d, n):
    """``bij._compose_maxmin`` as it was before it joined the blocks first;
    the oracle of the core, as :func:`checked_compose_smu` is."""
    if n % 2 != 0:
        raise ValueError("max-min composition requires even degree")
    s1, s2, s3 = d.sizes
    if s1 % 2 == 0 or s2 % 2 != 0 or s3 % 2 == 0:
        raise ValueError(f"block sizes must be (odd, even, odd), got {d.sizes}")
    _check_parts(d, range(2, n))
    if not (reference_zigzags(d.patterns[0], True) and reference_zigzags(d.patterns[1], True)):
        raise ValueError("the blocks before 1 must carry up-down patterns")
    if not reference_zigzags(d.patterns[2], False):
        raise ValueError("the block after 1 must carry a down-up pattern")
    return _checked_join(d, n, 1)


def packed_split(d, n):
    """`d` as the compose cores ``bij._compose_smu`` / ``bij._compose_maxmin``
    take it, each block as bytes; None unless it has three parts in
    increasing order and three patterns, of byte values, and the degree n is
    an int in 2..255.  The cores' inputs, beyond the splits ``bij._split`` makes."""
    if type(n) is not int or not 2 <= n <= 255 or len(d.parts) != 3 or len(d.patterns) != 3:
        return None
    try:
        parts, patterns = tuple(map(bytes, d.parts)), tuple(map(bytes, d.patterns))
    except (TypeError, ValueError):  # a value below 0 or above 255, or no int
        return None
    if any(part != bytes(sorted(set(part))) for part in parts):
        return None
    return bij.Decomposition(parts, patterns)


class _Split(NamedTuple):
    """Three blocks around two landmarks, as ``bij.Decomposition`` holds them."""

    parts: tuple
    patterns: tuple

    @property
    def sizes(self):
        return tuple(map(len, self.parts))


def reference_split(values, first, second):
    """The split of `values` around the 0-based indices `first` < `second`:
    the sorted parts and the 1-based ranks of each block."""
    blocks = (values[:first], values[first + 1:second], values[second + 1:])
    parts = tuple(tuple(sorted(block)) for block in blocks)
    return _Split(parts, tuple(tuple(part.index(v) + 1 for v in block)
                               for block, part in zip(blocks, parts)))


def _complemented(pattern):
    return tuple(len(pattern) + 1 - rank for rank in pattern)


def _shifted(part, by):
    return tuple(v + by for v in part)


def top_two_swapped(values):
    n = len(values)
    return tuple({n - 1: n, n: n - 1}.get(v, v) for v in values)


def split_doubling(values, side):
    """The doubling image of (max-min up-down `values` of even degree, side)
    by split, rewiring and composition: the max-min split (A, B, C) becomes
    the second-max split (A, C, B), C's down-up pattern complemented and
    every part shifted down by one, which composes to the side-0 image; side 1
    swaps n - 1 and n in it.

    The map ``bij.maxmin_to_smu`` ran before it became a relabelling of the
    values, kept as the oracle of ``bij._doubled``."""
    n = len(values)
    (part_a, part_b, part_c), (pat_a, pat_b, pat_c) = reference_split(
        values, values.index(n), values.index(1))
    image = checked_compose_smu(
        _Split((_shifted(part_a, -1), _shifted(part_c, -1), _shifted(part_b, -1)),
               (pat_a, _complemented(pat_c), pat_b)), n)
    return top_two_swapped(image) if side else image


def split_halving(values):
    """The max-min source and the side of the second-max-upper up-down
    `values` of even degree: :func:`split_doubling` run backwards, from the
    form with n - 1 left of n.  The oracle of ``bij._halved``."""
    n = len(values)
    side = int(values.index(n) < values.index(n - 1))
    left = top_two_swapped(values) if side else values
    (part_a, part_c, part_b), (pat_a, pat_c, pat_b) = reference_split(
        left, left.index(n - 1), left.index(n))
    source = checked_compose_maxmin(
        _Split((_shifted(part_a, 1), _shifted(part_b, 1), _shifted(part_c, 1)),
               (pat_a, pat_b, _complemented(pat_c))), n)
    return source, side


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


def per_degree_three_block(total, ee, s1_start, s2_start):
    """The three-block sum of ``seq._three_block``, with the pair convolution
    sum_{s2} C(m, s2) E_{s2} E_{m-s2} recomputed for every s1 of every degree.

    The form the once-per-prefix pair table replaced, kept as its oracle.
    """
    acc = 0
    for s1 in range(s1_start, total + 1, 2):
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


def rendered(write):
    """What a writer of ``report.report_formats``, as ``cli._emit`` runs
    it, writes to its handle."""
    buf = io.StringIO()
    write(buf)
    return buf.getvalue()


def fresh_env():
    """The environment of a new interpreter that imports these sources."""
    src = str(Path(euler_refine.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": src}

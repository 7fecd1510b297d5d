"""Involution, splittings and the doubling map, exhaustively at small degree."""

import random
import re
from collections import Counter
from functools import lru_cache
from itertools import islice

import pytest

from euler_refine import (
    AltKind,
    Decomposition,
    MinMaxKind,
    Permutation,
    SecondMaxKind,
    classify,
    compose_maxmin,
    compose_smu,
    decompose_maxmin,
    decompose_smu,
    enumerate_alternating,
    maxmin_to_smu,
    smu_to_maxmin,
    swap_top_two,
)
from euler_refine import bij
from euler_refine.bij import embed, standardize

from helpers import (checked_compose_maxmin, checked_compose_smu, maxmin_set, smu_set,
                     split_doubling, split_halving, updown)

P = Permutation.from_text


def test_standardize_and_embed_invert():
    block = (5, 2, 7)
    pattern = standardize(block)
    assert pattern == (2, 1, 3)
    assert embed(pattern, sorted(block)) == block
    assert standardize(()) == ()


def test_block_patterns_are_their_ranks():
    blocks = {p.values[i:j] for n in range(1, 9) for p in updown(n)
              for i in range(n + 1) for j in range(i, n + 1)}
    for block in blocks:
        ordered = sorted(block)
        fresh = tuple(ordered.index(v) + 1 for v in block)
        assert standardize(block) == fresh, block
        assert bij._ranked(block, ordered) == fresh, block


def test_swap_example():
    assert swap_top_two(P("1324")) == P("1423")


def test_swap_pairs_up_the_degree_4_set():
    orbit = {p.to_text(): swap_top_two(p).to_text() for p in smu_set(4)}
    assert orbit == {"1324": "1423", "1423": "1324", "2314": "2413", "2413": "2314"}


def test_swap_rejects_second_max_lower():
    with pytest.raises(ValueError, match="off the peaks"):
        swap_top_two(P("3412"))
    with pytest.raises(ValueError):
        swap_top_two(P("2143"))


def test_swap_is_fixed_point_free_involution():
    for n in range(2, 9):
        for p in smu_set(n):
            q = swap_top_two(p)
            assert q != p
            assert swap_top_two(q) == p
            assert classify(q).secondmax is SecondMaxKind.UPPER


def test_decompose_smu_examples():
    d = decompose_smu(P("14253"))
    assert d.sizes == (1, 1, 1)
    assert d.parts == ((1,), (2,), (3,))

    d = decompose_smu(P("2314"))
    assert d.sizes == (1, 1, 0)
    assert d.parts == ((2,), (1,), ())


def test_decompose_smu_rejects_wrong_orientation():
    with pytest.raises(ValueError, match="swap_top_two"):
        decompose_smu(P("1423"))


def test_decompose_smu_rejects_lower_input():
    with pytest.raises(ValueError):
        decompose_smu(P("3412"))


def test_smu_round_trip_exhaustive():
    for n in range(2, 10):
        for p in smu_set(n):
            if p.position_of(n - 1) > p.position_of(n):
                continue
            d = decompose_smu(p)
            assert sum(d.sizes) == n - 2
            assert d.sizes[0] % 2 == 1 and d.sizes[1] % 2 == 1
            assert compose_smu(d, n) == p


def test_left_oriented_half_of_degree_6():
    lefts = [p for p in smu_set(6) if p.position_of(5) < p.position_of(6)]
    assert len(smu_set(6)) == 56
    assert len(lefts) == 28
    for p in lefts:
        assert compose_smu(decompose_smu(p), 6) == p


def _malformed(compose):
    """(decomposition, degree, message pattern) of each malformed input
    case of one compose map."""
    if compose is compose_smu:
        d = decompose_smu(P("14253"))
        return [
            (d, 7, "partition"),
            (Decomposition(((1, 2), (3,), ()), ((1, 2), (1,), ())), 5, "odd"),
            (Decomposition(((1,), (1,), (3,)), d.patterns), 5, "partition"),
            (Decomposition(((1,), (1,), (2, 3)), ((1,), (1,), (1, 2))), 5, "partition"),
            (Decomposition(d.parts, ((1, 3, 2), d.patterns[1], d.patterns[2])), 5, "cannot use"),
            (Decomposition(((1,), (2,), (3, 4, 5)), ((1,), (1,), (3, 2, 1))), 7,
             r"block pattern \(3, 2, 1\) is not up-down"),
        ]
    d = decompose_maxmin(P("3412"))
    return [
        (Decomposition(((3,), (2, 3), (2,)), ((1,), (1, 2), (1,))), 4, "partition"),
        (d, 6, "partition"),
        (Decomposition(d.parts, ((1, 3, 2), d.patterns[1], d.patterns[2])), 4, "cannot use"),
        (Decomposition(((5,), (4,), (2, 3)), ((1,), (1,), (2, 1))), 6,
         r"\(odd, even, odd\)"),
        (Decomposition(((3, 4, 5), (), (2,)), ((3, 2, 1), (), (1,))), 6, "up-down patterns"),
        (Decomposition(((5,), (), (2, 3, 4)), ((1,), (), (1, 2, 3))), 6, "down-up pattern"),
    ]


def test_compose_smu_rejects_malformed():
    assert compose_smu(decompose_smu(P("14253")), 5) == P("14253")
    for d, n, message in _malformed(compose_smu):
        with pytest.raises(ValueError, match=message):
            compose_smu(d, n)


def test_compose_maxmin_rejects_malformed():
    assert compose_maxmin(decompose_maxmin(P("3412")), 4) == P("3412")
    for d, n, message in _malformed(compose_maxmin):
        with pytest.raises(ValueError, match=message):
            compose_maxmin(d, n)


@lru_cache(maxsize=None)
def _lefts(n):
    return tuple(p for p in smu_set(n) if p.position_of(n - 1) < p.position_of(n))


def _sources(n):
    """The max-min up-down permutations of degree n that the max-min split
    takes: none at odd degree."""
    return maxmin_set(n) if n % 2 == 0 else ()


def _doubled(values):
    """Both doubling images of a max-min value tuple, as the check loop
    builds them: side 1 is side 0 with n-1 and n swapped."""
    image = bij._doubled(values)
    return image, bij._swapped(image)


def _source_and_side(p):
    source, side = smu_to_maxmin(p)
    return source.values, side


# For each public map, (its output, its core's output) on every input of
# degree n in its domain, outputs as value tuples.
_MAP_AND_CORE = {
    "swap_top_two": lambda n: [
        (swap_top_two(p).values, bij._swapped(p.values)) for p in smu_set(n)],
    "decompose_smu": lambda n: [
        (decompose_smu(p), bij._decompose_smu(p.values)) for p in _lefts(n)],
    "compose_smu": lambda n: [
        (compose_smu(d, n).values, bij._compose_smu(d, n))
        for d in map(decompose_smu, _lefts(n))],
    "decompose_maxmin": lambda n: [
        (decompose_maxmin(p), bij._decompose_maxmin(p.values)) for p in _sources(n)],
    "compose_maxmin": lambda n: [
        (compose_maxmin(d, n).values, bij._compose_maxmin(d, n))
        for d in map(decompose_maxmin, _sources(n))],
    "maxmin_to_smu": lambda n: [
        ((maxmin_to_smu(p, 0).values, maxmin_to_smu(p, 1).values), _doubled(p.values))
        for p in _sources(n)],
    "smu_to_maxmin": lambda n: [
        (_source_and_side(p), _halved_and_side(p.values))
        for p in (smu_set(n) if n % 2 == 0 else ())],
    # The first piece of smu_to_maxmin: the input with n-1 left of n, and the bit.
    "_oriented": lambda n: [
        (_left_and_side(p), bij._oriented(p.values))
        for p in (smu_set(n) if n % 2 == 0 else ())],
}


def _halved_and_side(q):
    left, side = bij._oriented(q)
    return bij._halved(left), side


def _left_and_side(p):
    side = smu_to_maxmin(p)[1]
    return (swap_top_two(p) if side else p).values, side


@pytest.mark.parametrize("name", list(_MAP_AND_CORE))
def test_each_core_gives_what_its_public_map_gives(name):
    checked = 0
    for n in range(2, 10):
        for public, core in _MAP_AND_CORE[name](n):
            assert public == core, (name, n, public)
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("compose", [compose_smu, compose_maxmin], ids=lambda f: f.__name__)
def test_the_compose_cores_keep_every_check(compose):
    # The check loop calls the cores directly, so they must refuse each
    # malformed split that the public compositions refuse, for the same reason.
    core = {compose_smu: bij._compose_smu, compose_maxmin: bij._compose_maxmin}[compose]
    for d, n, message in _malformed(compose):
        with pytest.raises(ValueError, match=message):
            core(d, n)
    for ranks in ((1, 1), (2,), (0, 1), (-1,), (1, -1), (1, 3, 2, 5)):
        d, n = _split_with(compose, ranks)
        with pytest.raises(ValueError):
            core(d, n)


def _split_with(compose, ranks):
    """A split for `compose`, well formed but for one block that carries
    `ranks` on as many values, and its degree."""
    k = len(ranks)
    block = tuple(range(3, k + 3))
    if compose is compose_smu:
        return Decomposition(((1,), (2,), block), ((1,), (1,), ranks)), k + 4
    if k % 2:
        return Decomposition(((2,), (), block), ((1,), (), ranks)), k + 3
    return Decomposition(((2,), block, (k + 3,)), ((1,), ranks, (1,))), k + 4


def _reference_split(values, first, second):
    """The split of `values` around the 0-based indices `first` < `second`,
    as lists: the sorted parts and the ranks of each block."""
    blocks = (values[:first], values[first + 1:second], values[second + 1:])
    parts = [sorted(block) for block in blocks]
    return parts, [[part.index(v) + 1 for v in block] for block, part in zip(blocks, parts)]


def _random_split(rng):
    """A random split of degree at most 9, and its degree.

    It starts as the split of a left-oriented second-max-upper permutation
    or of a max-min one; three times in four it then takes one to three
    faults: a rank from -k-2 to k+2, two ranks swapped, a shuffled pattern,
    a pattern one rank longer or shorter, a value of a part replaced, a
    value moved to another part, a shuffled part, or another degree.
    """
    n = rng.randrange(4, 10)
    if rng.random() < 0.5:
        p = rng.choice(_lefts(n))
        parts, patterns = _reference_split(p.values, p.position_of(n - 1) - 1,
                                           p.position_of(n) - 1)
    else:
        n -= n % 2
        p = rng.choice(maxmin_set(n))
        parts, patterns = _reference_split(p.values, p.position_of(n) - 1, p.position_of(1) - 1)
    for _ in range(rng.randint(1, 3) if rng.random() < 0.75 else 0):
        i, j = rng.sample(range(3), 2)
        pattern, part = patterns[i], parts[i]
        fault = rng.randrange(8)
        if fault == 0 and pattern:
            k = len(pattern)
            pattern[rng.randrange(k)] = rng.randint(-k - 2, k + 2)
        elif fault == 1 and len(pattern) > 1:
            a, b = rng.sample(range(len(pattern)), 2)
            pattern[a], pattern[b] = pattern[b], pattern[a]
        elif fault == 2:
            patterns[i] = rng.sample(range(1, len(pattern) + 1), len(pattern))
        elif fault == 3:
            if pattern and rng.random() < 0.5:
                pattern.pop()
            else:
                pattern.append(rng.randint(1, len(pattern) + 1))
        elif fault == 4 and part:
            part[rng.randrange(len(part))] = rng.randint(0, n + 1)
        elif fault == 5 and part:
            parts[j].append(part.pop(rng.randrange(len(part))))
        elif fault == 6:
            rng.shuffle(part)
        elif fault == 7:
            n += rng.choice((-2, -1, 1, 2))
    return Decomposition(tuple(map(tuple, parts)), tuple(map(tuple, patterns))), n


def _outcome(compose, d, n):
    """("values", what `compose` returns) or ("raised", the type and the
    message of what it raises)."""
    try:
        return "values", compose(d, n)
    except Exception as exc:
        return "raised", type(exc), str(exc)


def test_the_compose_cores_agree_with_their_checked_forms():
    # Each core joins the blocks once and checks the joined values; the
    # oracles run every check on the split in turn.  Both cores see every
    # split, so each sees the other's valid splits as malformed ones too.
    rng = random.Random(20191)
    tally = Counter()
    for _ in range(50_000):
        d, n = _random_split(rng)
        for core, oracle in ((bij._compose_smu, checked_compose_smu),
                             (bij._compose_maxmin, checked_compose_maxmin)):
            outcome = _outcome(core, d, n)
            assert outcome == _outcome(oracle, d, n), (core.__name__, d, n)
            # The reason of a rejection, without the values it names.
            reason = re.sub(r"\(.*\)|-?\d+", "", outcome[-1]) if outcome[0] == "raised" else ""
            tally[core.__name__, reason] += 1
    # Each core accepted thousands of splits and refused some for each reason
    # it can give: five for the smu split, seven for the max-min one.
    for core, kinds in (("_compose_smu", 5), ("_compose_maxmin", 7)):
        reasons = {reason: count for (name, reason), count in tally.items() if name == core}
        assert reasons.pop("") > 5_000, core
        assert len(reasons) == kinds and min(reasons.values()) > 100, (core, reasons)


def test_patterns_that_are_no_permutation_are_rejected():
    # Each rank tuple is no permutation of 1..k; a rank of 0 or below
    # would index the sorted values from the wrong end.  The same block
    # with a permutation of its length composes.
    zigzag = {1: (1,), 2: (1, 2), 4: (1, 3, 2, 4)}
    for ranks in ((1, 1), (2,), (0, 1), (-1,), (1, -1), (1, 3, 2, 5)):
        with pytest.raises(ValueError, match="not a permutation"):
            embed(ranks, range(1, len(ranks) + 1))
        for compose in (compose_smu, compose_maxmin):
            d, n = _split_with(compose, zigzag[len(ranks)])
            assert compose(d, n).n == n
            d, n = _split_with(compose, ranks)
            with pytest.raises(ValueError):
                compose(d, n)


def test_sizes_place_the_landmarks():
    # s1 + 1 and s1 + s2 + 2 are where the split found the two landmark
    # values and where the composition puts them back.
    for n in range(2, 9):
        cases = [(p, decompose_smu, compose_smu, n - 1, n)
                 for p in smu_set(n) if p.position_of(n - 1) < p.position_of(n)]
        if n % 2 == 0:
            cases += [(p, decompose_maxmin, compose_maxmin, n, 1) for p in maxmin_set(n)]
        for p, decompose, compose, first, second in cases:
            d = decompose(p)
            s1, s2, s3 = d.sizes
            marks = (s1 + 1, s1 + s2 + 2)
            assert s1 + s2 + s3 == n - 2
            assert (p.position_of(first), p.position_of(second)) == marks
            q = compose(d, n)
            assert (q.position_of(first), q.position_of(second)) == marks


def test_decompose_maxmin_example():
    d = decompose_maxmin(P("3412"))
    assert d.sizes == (1, 0, 1)
    assert d.parts == ((3,), (), (2,))


def test_decompose_maxmin_rejects_minmax_and_odd_degree():
    with pytest.raises(ValueError, match="min-max"):
        decompose_maxmin(P("1324"))
    with pytest.raises(ValueError, match="even"):
        decompose_maxmin(P("34251"))


def test_maxmin_round_trip_exhaustive():
    for n in range(2, 10, 2):
        for p in maxmin_set(n):
            d = decompose_maxmin(p)
            s1, s2, s3 = d.sizes
            assert s1 % 2 == 1 and s2 % 2 == 0 and s3 % 2 == 1
            assert compose_maxmin(d, n) == p


def test_degree_2_has_no_maxmin_updown():
    assert maxmin_set(2) == ()


def test_maxmin_to_smu_example():
    image = {maxmin_to_smu(P("3412"), side).to_text() for side in (0, 1)}
    assert image == {"2314", "2413"}
    assert image < {"1324", "1423", "2314", "2413"}


def test_maxmin_to_smu_rejects_bad_input():
    with pytest.raises(ValueError):
        maxmin_to_smu(P("1324"), 0)  # min-max
    with pytest.raises(ValueError):
        maxmin_to_smu(P("34251"), 0)  # odd degree
    with pytest.raises(ValueError):
        maxmin_to_smu(P("3412"), 2)  # bad bit


def test_doubling_map_is_bijective():
    for n in (4, 6, 8):
        sources = maxmin_set(n)
        images = set()
        for p in sources:
            for side in (0, 1):
                q = maxmin_to_smu(p, side)
                assert classify(q).secondmax is SecondMaxKind.UPPER
                images.add(q)
                assert smu_to_maxmin(q) == (p, side)
        assert len(images) == 2 * len(sources)
        assert images == set(smu_set(n))


@pytest.mark.parametrize("n", [14, 20])
def test_maps_run_above_the_enumeration_cap(n):
    # In the subtree of first value n - 1 the value n comes second, so
    # every permutation there is max-min; its first few hundred are
    # enumerated lazily.
    sources = list(islice(enumerate_alternating(n, AltKind.UP_DOWN, n - 1), 300))
    assert len(sources) == 300
    images = set()
    for p in sources:
        assert classify(p).minmax is MinMaxKind.MAX_MIN
        assert compose_maxmin(decompose_maxmin(p), n) == p
        for side in (0, 1):
            q = maxmin_to_smu(p, side)
            assert classify(q).secondmax is SecondMaxKind.UPPER
            assert smu_to_maxmin(q) == (p, side)
            swapped = swap_top_two(q)
            assert swapped != q and swap_top_two(swapped) == q
            left = q if q.position_of(n - 1) < q.position_of(n) else swapped
            assert compose_smu(decompose_smu(left), n) == left
            images.add(q)
    assert len(images) == 2 * len(sources)


def test_smu_to_maxmin_and_the_check_run_one_inverse(monkeypatch):
    # 2413 is max-min, and its images 1324 and 1423 each get one inverse.
    # Both are inverted from their form with 3 left of 4, 1324, which is
    # the side-0 image: the check inverts it once for both sides.
    calls, inverse = [], bij._halved
    monkeypatch.setattr(bij, "_halved", lambda left: calls.append(left) or inverse(left))
    assert smu_to_maxmin(P("1423")) == (P("2413"), 1)
    bij._check_one((2, 4, 1, 3), 4, bij._DegreeResult())
    assert calls == [(1, 3, 2, 4), (1, 3, 2, 4)]
    assert not hasattr(bij, "_to_maxmin")


def test_the_doubling_cores_equal_the_split_map():
    # The relabelling cores against split, rewire and compose, on both
    # sides of every max-min up-down permutation of even degree up to 8;
    # degree 10 (49,136 images) takes about 2.5 s and is left out.
    checked = 0
    for n in range(2, 9, 2):
        for p in maxmin_set(n):
            image = bij._doubled(p.values)
            for side, q in enumerate((image, bij._swapped(image))):
                assert q == split_doubling(p.values, side), (p, side)
                assert _halved_and_side(q) == split_halving(q) == (p.values, side), (p, side)
                checked += 1
    assert checked == 2 * (2 + 28 + 662)


def test_the_doubling_map_relabels_the_three_blocks():
    # 10 and 1 cut v into A = (7), B = (3, 5, 2, 6) and C = (9, 4, 8), and
    # flip(C) is (4, 9, 8): the image is A-1, 9, flip(C)-1, 10, B-1.
    v = (7, 10, 3, 5, 2, 6, 1, 9, 4, 8)
    assert classify(Permutation(v)).minmax is MinMaxKind.MAX_MIN
    assert bij._doubled(v) == (6, 9, 3, 8, 7, 10, 2, 4, 1, 5)
    assert smu_to_maxmin(Permutation((6, 10, 3, 8, 7, 9, 2, 4, 1, 5))) == (Permutation(v), 1)
    assert bij._halved((6, 9, 3, 8, 7, 10, 2, 4, 1, 5)) == v


def test_smu_to_maxmin_rejects_odd_degree():
    with pytest.raises(ValueError, match="even"):
        smu_to_maxmin(P("14253"))


def test_composed_outputs_classify_as_claimed():
    for n in (4, 6):
        for p in smu_set(n):
            if p.position_of(n - 1) > p.position_of(n):
                continue
            q = compose_smu(decompose_smu(p), n)
            c = classify(q)
            assert c.secondmax is SecondMaxKind.UPPER
        for p in maxmin_set(n):
            q = compose_maxmin(decompose_maxmin(p), n)
            assert classify(q).minmax.value == "max-min"
        assert {p.values for p in updown(n)} >= {p.values for p in smu_set(n)}

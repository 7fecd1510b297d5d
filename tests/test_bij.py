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
from euler_refine.bij import embed

from helpers import (checked_compose_maxmin, checked_compose_smu, maxmin_set, packed_split,
                     reference_split, reference_zigzags, smu_set, split_doubling,
                     split_halving, top_two_swapped, updown)

P = Permutation.from_text


def test_embed_realizes_a_pattern_on_its_values():
    assert embed((2, 1, 3), sorted((5, 2, 7))) == (5, 2, 7)
    assert embed((), ()) == ()


def test_block_patterns_are_their_ranks():
    # The split core ranks each block; here the block comes first, and two
    # zero bytes stand for the landmarks.
    blocks = {p.values[i:j] for n in range(1, 9) for p in updown(n)
              for i in range(n + 1) for j in range(i, n + 1)}
    for block in blocks:
        ordered = sorted(block)
        fresh = tuple(ordered.index(v) + 1 for v in block)
        split = bij._split(bytes(block) + b"\0\0", len(block), len(block) + 1)
        assert (split.parts[0], split.patterns[0]) == (bytes(ordered), bytes(fresh)), block


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
            # Rank 3 of a one-value part: a translation that let it pass as
            # the value 3 would join 1, 4, 2, 5, 3, an up-down permutation.
            (_RANK_ABOVE_ITS_PART, 5,
             r"parts \(\(1,\), \(2,\), \(7,\)\) do not partition the non-landmark values"),
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


_RANK_ABOVE_ITS_PART = Decomposition(((1,), (2,), (7,)), ((1,), (1,), (3,)))


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


@pytest.mark.parametrize("compose", [compose_smu, compose_maxmin], ids=lambda f: f.__name__)
def test_a_rejected_split_is_named_as_given(compose):
    # Blocks given as lists, or with True for the rank 1, take the checks in
    # turn as they are given: a rejection names the split in that form, as
    # its tuple oracle does.
    oracle = {compose_smu: checked_compose_smu, compose_maxmin: checked_compose_maxmin}[compose]
    for d, n, _ in _malformed(compose):
        listed = Decomposition([list(part) for part in d.parts],
                               [[True if rank == 1 else rank for rank in pattern]
                                for pattern in d.patterns])
        outcome = _outcome(compose, listed, n)
        assert outcome[0] == "raised" and outcome == _outcome(oracle, listed, n), listed
    if compose is compose_smu:
        assert outcome[-1] == "parts [[1], [2], [7]] do not partition the non-landmark values"


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
    image = bij._doubled(bytes(values))
    return tuple(image), tuple(bij._swapped(image))


def _source_and_side(p):
    source, side = smu_to_maxmin(p)
    return source.values, side


# For each public map, (its output, its core's output) on every input of
# degree n in its domain, outputs as value tuples and splits of tuples.  The
# cores take and give bytes, one per value.
_MAP_AND_CORE = {
    "swap_top_two": lambda n: [
        (swap_top_two(p).values, tuple(bij._swapped(bytes(p.values)))) for p in smu_set(n)],
    "decompose_smu": lambda n: [
        (decompose_smu(p), bij._unpacked(bij._decompose_smu(bytes(p.values)))) for p in _lefts(n)],
    "compose_smu": lambda n: [
        (compose_smu(decompose_smu(p), n).values,
         tuple(bij._compose_smu(bij._decompose_smu(bytes(p.values)), n))) for p in _lefts(n)],
    "decompose_maxmin": lambda n: [
        (decompose_maxmin(p), bij._unpacked(bij._decompose_maxmin(bytes(p.values))))
        for p in _sources(n)],
    "compose_maxmin": lambda n: [
        (compose_maxmin(decompose_maxmin(p), n).values,
         tuple(bij._compose_maxmin(bij._decompose_maxmin(bytes(p.values)), n)))
        for p in _sources(n)],
    "maxmin_to_smu": lambda n: [
        ((maxmin_to_smu(p, 0).values, maxmin_to_smu(p, 1).values), _doubled(p.values))
        for p in _sources(n)],
    "smu_to_maxmin": lambda n: [
        (_source_and_side(p), _halved_and_side(p.values))
        for p in (smu_set(n) if n % 2 == 0 else ())],
    # The first piece of smu_to_maxmin: the input with n-1 left of n, and the bit.
    "_oriented": lambda n: [
        (_left_and_side(p), _oriented(p.values))
        for p in (smu_set(n) if n % 2 == 0 else ())],
}


def _oriented(values):
    left, side = bij._oriented(bytes(values))
    return tuple(left), side


def _halved_and_side(values):
    left, side = bij._oriented(bytes(values))
    return tuple(bij._halved(left)), side


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


_CORES = {compose_smu: bij._compose_smu, compose_maxmin: bij._compose_maxmin}


@pytest.mark.parametrize("compose", [compose_smu, compose_maxmin], ids=lambda f: f.__name__)
def test_the_compose_cores_keep_every_check(compose):
    # The check loop calls the cores directly, on bytes, so they must refuse
    # each malformed split that the public compositions refuse, for the same
    # reason.  A byte holds no negative rank: 255 is above every part here.
    core = _CORES[compose]
    for d, n, message in _malformed(compose):
        packed = packed_split(d, n)
        assert packed is not None
        with pytest.raises(ValueError, match=message):
            core(packed, n)
    for ranks in ((1, 1), (2,), (0, 1), (255,), (1, 255), (1, 3, 2, 5)):
        d, n = _split_with(compose, ranks)
        with pytest.raises(ValueError):
            core(packed_split(d, n), n)


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


def _listed_split(values, first, second):
    """The reference split of `values` around the 0-based indices `first` <
    `second`, as lists: the sorted parts and the ranks of each block."""
    return ([list(block) for block in blocks]
            for blocks in reference_split(values, first, second))


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
        parts, patterns = _listed_split(p.values, p.position_of(n - 1) - 1, p.position_of(n) - 1)
    else:
        n -= n % 2
        p = rng.choice(maxmin_set(n))
        parts, patterns = _listed_split(p.values, p.position_of(n) - 1, p.position_of(1) - 1)
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
    # oracles, like the public maps, run every check on the split in turn.
    # Both cores see every split that packs as bytes, with each part in
    # increasing order, so each sees the other's valid splits as malformed
    # ones too; both public maps see every split.  The first split carries a
    # rank above its part.
    rng = random.Random(20191)
    splits = [(_RANK_ABOVE_ITS_PART, 5)] + [_random_split(rng) for _ in range(50_000)]
    tally = Counter()
    for d, n in splits:
        packed = packed_split(d, n)
        for compose, oracle in ((compose_smu, checked_compose_smu),
                                (compose_maxmin, checked_compose_maxmin)):
            expected = _outcome(oracle, d, n)
            assert _outcome(lambda d, n: compose(d, n).values, d, n) == expected, (d, n)
            if packed is None:
                tally[compose.__name__, "unpacked"] += 1
                continue
            outcome = _outcome(lambda d, n: tuple(_CORES[compose](d, n)), packed, n)
            assert outcome == expected, (compose.__name__, d, n)
            # The reason of a rejection, without the values it names.
            reason = re.sub(r"\(.*\)|-?\d+", "", outcome[-1]) if outcome[0] == "raised" else ""
            tally[compose.__name__, reason] += 1
    # Each core accepted thousands of splits and refused some for each reason
    # it can give: five for the smu split, seven for the max-min one; the
    # public maps took thousands that do not pack.
    for compose, kinds in (("compose_smu", 5), ("compose_maxmin", 7)):
        reasons = {reason: count for (name, reason), count in tally.items() if name == compose}
        assert reasons.pop("") > 5_000 and reasons.pop("unpacked") > 5_000, compose
        assert len(reasons) == kinds and min(reasons.values()) > 100, (compose, reasons)


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


@pytest.mark.parametrize("side", [True, 1.0, False, "1"], ids=repr)
def test_maxmin_to_smu_takes_only_an_int_side(side):
    # True and 1.0 equal 1 and False equals 0, but the bit is an int, as
    # every value of a Permutation is.
    with pytest.raises(ValueError, match=re.escape(f"side must be 0 or 1, got {side!r}")):
        maxmin_to_smu(P("3412"), side)


def _above_one_byte():
    """A max-min up-down permutation of degree 256 that is also second-max-upper."""
    n = 256
    peaks, valleys = range(n - 1, 128, -1), range(3, 129)
    p = Permutation((2, n, 1, *(v for i in range(126) for v in (peaks[i], valleys[i])), peaks[126]))
    c = classify(p)
    assert (c.kind, c.minmax, c.secondmax) == (
        AltKind.UP_DOWN, MinMaxKind.MAX_MIN, SecondMaxKind.UPPER)
    return p


@pytest.mark.parametrize("name", ["swap_top_two", "decompose_smu", "decompose_maxmin",
                                  "maxmin_to_smu", "smu_to_maxmin"])
def test_a_map_of_a_degree_above_one_byte_names_the_limit(name):
    # The cores hold one byte per value; the message is the one
    # bijection_checks gives for a max_n above 255.
    p = _above_one_byte()
    call = {"swap_top_two": lambda: swap_top_two(p), "decompose_smu": lambda: decompose_smu(p),
            "decompose_maxmin": lambda: decompose_maxmin(p),
            "maxmin_to_smu": lambda: maxmin_to_smu(p, 0),
            "smu_to_maxmin": lambda: smu_to_maxmin(p)}[name]
    with pytest.raises(ValueError, match="^degree must be at most 255, as each value is packed "
                                         "in one byte$"):
        call()


def test_a_split_of_degree_256_composes_under_both_maps():
    # The public compositions run the checks on the split as given and pack
    # nothing, so they take any degree.
    v = _above_one_byte().values
    n = len(v)
    left = top_two_swapped(v)  # n - 1 left of n
    smu = Decomposition(*reference_split(left, left.index(n - 1), left.index(n)))
    maxmin = Decomposition(*reference_split(v, v.index(n), v.index(1)))
    assert compose_smu(smu, n).values == left
    assert compose_maxmin(maxmin, n).values == v


@pytest.mark.parametrize("compose", [compose_smu, compose_maxmin], ids=lambda f: f.__name__)
def test_a_split_that_does_not_pack_keeps_its_message(compose):
    # A rank below 0, above 255 or that is no int, a part out of order, and
    # a degree below 2 or that is no int do not pack as bytes, so no core
    # could take such a split: the public maps refuse it as its tuple oracle
    # refuses it, with the same message.
    oracle = {compose_smu: checked_compose_smu, compose_maxmin: checked_compose_maxmin}[compose]
    unsorted = {compose_smu: (Decomposition(((1,), (2,), (4, 3)), ((1,), (1,), (2, 1))), 5),
                compose_maxmin: (Decomposition(((5,), (), (4, 3, 7)), ((1,), (), (3, 1, 2))), 6)}
    shaped = _split_with(compose, (1,))[0]
    cases = ([_split_with(compose, ranks) for ranks in ((-1,), (256,), (1.0,))]
             + [(shaped, degree) for degree in (0, 1, 5.0)] + [unsorted[compose]])
    for d, n in cases:
        assert packed_split(d, n) is None, d
        outcome = _outcome(lambda d, n: compose(d, n).values, d, n)
        assert outcome[0] == "raised" and outcome == _outcome(oracle, d, n), d
    assert "(4, 3" in str(outcome[-1])
    # A valid split with a part out of order composes as with the part sorted.
    valid, n = _split_with(compose, (1, 2) if compose is compose_maxmin else (1, 3, 2))
    (a, b, c), patterns = valid
    shuffled = Decomposition((a, tuple(reversed(b)), tuple(reversed(c))), patterns)
    assert packed_split(shuffled, n) is None
    assert compose(shuffled, n) == compose(valid, n)


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
    bij._check_one(bytes((2, 4, 1, 3)), 4, bij._DegreeResult())
    assert calls == [bytes((1, 3, 2, 4)), bytes((1, 3, 2, 4))]
    assert not hasattr(bij, "_to_maxmin")


def test_the_doubling_cores_equal_the_split_map():
    # The relabelling cores against split, rewire and compose, on both
    # sides of every max-min up-down permutation of even degree up to 8;
    # degree 10 (49,136 images) takes about 2.5 s and is left out.
    checked = 0
    for n in range(2, 9, 2):
        for p in maxmin_set(n):
            for side, q in enumerate(_doubled(p.values)):
                assert q == split_doubling(p.values, side), (p, side)
                assert _halved_and_side(q) == split_halving(q) == (p.values, side), (p, side)
                checked += 1
    assert checked == 2 * (2 + 28 + 662)


def _cores_against_oracles(n):
    """Run every core on every up-down permutation of degree n, as bytes, and
    assert that each gives what its tuple oracle in tests/helpers gives: the
    swap, both splits and the composition of each, whatever the order of its
    landmarks, the second-max-upper check, and at even n both doubling
    images of each max-min permutation and the inverse of each
    second-max-upper one.  Returns how many of each ran."""
    ran = Counter()
    splits = (("smu", bij._decompose_smu, bij._compose_smu, checked_compose_smu, (n - 1, n)),
              ("maxmin", bij._decompose_maxmin, bij._compose_maxmin, checked_compose_maxmin, (n, 1)))
    for v in (p.values for p in updown(n)):
        packed = bytes(v)
        assert bij._swapped(packed) == bytes(top_two_swapped(v)), v
        smu = reference_zigzags(v, True) and v.index(n - 1) % 2 == 1
        assert _outcome(lambda v, n: bij._require_smu(v), packed, n)[0] == (
            "values" if smu else "raised"), v
        for name, decompose, compose, oracle, marks in splits:
            first, second = sorted(map(v.index, marks))
            reference = reference_split(v, first, second)
            split = bij._split(packed, first, second)
            assert bij._unpacked(split) == reference, (name, v)
            if first == v.index(marks[0]):
                assert decompose(packed) == split, (name, v)
            outcome = _outcome(lambda d, n: tuple(compose(d, n)), split, n)
            assert outcome == _outcome(oracle, reference, n), (name, v)
            ran[name, outcome[0]] += 1
        if n % 2:
            continue
        if v.index(n) < v.index(1):
            image = bij._doubled(packed)
            assert tuple(image) == split_doubling(v, 0), v
            assert tuple(bij._swapped(image)) == split_doubling(v, 1), v
            ran["doubled"] += 1
        if smu:
            left, side = bij._oriented(packed)
            assert (tuple(bij._halved(left)), side) == split_halving(v), v
            ran["halved"] += 1
    return ran


def test_every_core_agrees_with_its_tuple_oracle():
    # Degree 10 (50,521 permutations) takes about 5 s and is left out.
    ran = Counter()
    for n in range(2, 9, 2):
        ran.update(_cores_against_oracles(n))
    # The split around n - 1 and n of each second-max-upper permutation
    # composes, to its form with n - 1 left of n, and so does the max-min
    # split of each max-min one; every other split is refused, as the oracles
    # refuse it.
    assert ran["smu", "values"] == sum(len(smu_set(n)) for n in range(2, 9, 2))
    assert ran["maxmin", "values"] == ran["doubled"] == 2 + 28 + 662
    assert ran["halved"] == 2 * ran["doubled"]
    assert (ran["smu", "raised"], ran["maxmin", "raised"]) == (68, 760)


def test_the_doubling_map_relabels_the_three_blocks():
    # 10 and 1 cut v into A = (7), B = (3, 5, 2, 6) and C = (9, 4, 8), and
    # flip(C) is (4, 9, 8): the image is A-1, 9, flip(C)-1, 10, B-1.
    v = (7, 10, 3, 5, 2, 6, 1, 9, 4, 8)
    assert classify(Permutation(v)).minmax is MinMaxKind.MAX_MIN
    assert bij._doubled(bytes(v)) == bytes((6, 9, 3, 8, 7, 10, 2, 4, 1, 5))
    assert smu_to_maxmin(Permutation((6, 10, 3, 8, 7, 9, 2, 4, 1, 5))) == (Permutation(v), 1)
    assert bij._halved(bytes((6, 9, 3, 8, 7, 10, 2, 4, 1, 5))) == bytes(v)


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

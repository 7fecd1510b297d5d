"""Involution, splittings and the doubling map, exhaustively at small degree."""

import pytest

from euler_refine import (
    Decomposition,
    Permutation,
    SecondMaxKind,
    classify,
    compose_maxmin,
    compose_smu,
    decompose_maxmin,
    decompose_smu,
    maxmin_to_smu,
    smu_to_maxmin,
    swap_top_two,
)
from euler_refine import bij, complement, is_down_up, is_up_down
from euler_refine.bij import embed, standardize

from helpers import downup, maxmin_set, smu_set, updown

P = Permutation.from_text


def test_standardize_and_embed_invert():
    block = (5, 2, 7)
    pattern = standardize(block)
    assert pattern == P("213")
    assert embed(pattern, sorted(block)) == block
    assert standardize(()) == Permutation(())


def test_block_patterns_are_built_once_and_shared():
    blocks = {p.values[i:j] for n in range(1, 9) for p in updown(n)
              for i in range(n + 1) for j in range(i, n + 1)}
    for block in blocks:
        ordered = sorted(block)
        fresh = Permutation(tuple(ordered.index(v) + 1 for v in block))
        pattern = standardize(block)
        assert pattern == fresh and type(pattern.values) is tuple, block
        assert standardize(block) is pattern, block
        assert bij._ranked(block, ordered) is pattern, block


def test_pattern_memos_equal_the_plain_maps():
    patterns = [Permutation(())] + [p for n in range(1, 9) for p in updown(n) + downup(n)]
    memos = ((bij._complement, complement), (bij._is_up_down, is_up_down),
             (bij._is_down_up, is_down_up))
    for p in patterns:
        for memo, plain in memos:
            assert memo(p) == memo(p) == plain(p), (p, plain.__name__)


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
            (Decomposition(((1, 2), (3,), ()), (P("12"), P("1"), P(""))), 5, "odd"),
            (Decomposition(((1,), (1,), (3,)), d.patterns), 5, "partition"),
            (Decomposition(((1,), (1,), (2, 3)), (P("1"), P("1"), P("12"))), 5, "partition"),
            (Decomposition(d.parts, (P("132"), d.patterns[1], d.patterns[2])), 5, "cannot use"),
            (Decomposition(((1,), (2,), (3, 4, 5)), (P("1"), P("1"), P("321"))), 7,
             "block pattern 321 is not up-down"),
        ]
    d = decompose_maxmin(P("3412"))
    return [
        (Decomposition(((3,), (2, 3), (2,)), (P("1"), P("12"), P("1"))), 4, "partition"),
        (d, 6, "partition"),
        (Decomposition(d.parts, (P("132"), d.patterns[1], d.patterns[2])), 4, "cannot use"),
        (Decomposition(((5,), (4,), (2, 3)), (P("1"), P("1"), P("21"))), 6,
         r"\(odd, even, odd\)"),
        (Decomposition(((3, 4, 5), (), (2,)), (P("321"), P(""), P("1"))), 6, "up-down patterns"),
        (Decomposition(((5,), (), (2, 3, 4)), (P("1"), P(""), P("123"))), 6, "down-up pattern"),
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


def _outcome(fn, *args):
    """What `fn` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def test_memoised_maps_equal_their_unmemoised_forms():
    # Each memoised call runs twice, so that the second one is answered
    # from the memo.
    for n in range(1, 9):
        splits = []
        for p in updown(n):
            for decompose in (decompose_smu, decompose_maxmin):
                expected = _outcome(decompose.__wrapped__, p)
                assert _outcome(decompose, p) == _outcome(decompose, p) == expected, p
                if isinstance(expected, Decomposition):
                    splits.append(expected)
        for d in splits:
            for compose in (compose_smu, compose_maxmin):
                expected = _outcome(compose.__wrapped__, d, n)
                assert _outcome(compose, d, n) == _outcome(compose, d, n) == expected, d
            for rewire in (bij._smu_split_of, bij._maxmin_split_of):
                expected = _outcome(rewire.__wrapped__, d)
                assert _outcome(rewire, d) == _outcome(rewire, d) == expected, d


def test_malformed_splits_raise_alike_memoised_or_not():
    for compose in (compose_smu, compose_maxmin):
        for d, n, _ in _malformed(compose):
            expected = _outcome(compose.__wrapped__, d, n)
            assert expected[0] is ValueError
            assert _outcome(compose, d, n) == _outcome(compose, d, n) == expected
    # Rank tuples that are no permutation, as a block with a repeated
    # value would give, are rejected by the pattern table every time.
    for ranks in ((1, 1), (2,), (0, 1), (1, 3, 2, 5)):
        expected = _outcome(Permutation, ranks)
        assert expected[0] is ValueError
        assert _outcome(bij._pattern, ranks) == _outcome(bij._pattern, ranks) == expected
    assert _outcome(standardize, (4, 4)) == _outcome(Permutation, (1, 1))


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

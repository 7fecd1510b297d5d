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
from euler_refine.bij import embed, standardize

from helpers import maxmin_set, smu_set, updown

P = Permutation.from_text


def test_standardize_and_embed_invert():
    block = (5, 2, 7)
    pattern = standardize(block)
    assert pattern == P("213")
    assert embed(pattern, sorted(block)) == block
    assert standardize(()) == Permutation(())


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


def test_compose_smu_rejects_malformed():
    d = decompose_smu(P("14253"))
    assert compose_smu(d, 5) == P("14253")
    with pytest.raises(ValueError, match="partition"):
        compose_smu(d, 7)
    bad_sizes = Decomposition(((1, 2), (3,), ()), (P("12"), P("1"), P("")))
    with pytest.raises(ValueError, match="odd"):
        compose_smu(bad_sizes, 5)
    bad_parts = Decomposition(((1,), (1,), (3,)), d.patterns)
    with pytest.raises(ValueError, match="partition"):
        compose_smu(bad_parts, 5)
    repeated = Decomposition(((1,), (1,), (2, 3)), (P("1"), P("1"), P("12")))
    with pytest.raises(ValueError, match="partition"):
        compose_smu(repeated, 5)
    bad_pattern = Decomposition(d.parts, (P("132"), d.patterns[1], d.patterns[2]))
    with pytest.raises(ValueError, match="cannot use"):
        compose_smu(bad_pattern, 5)


def test_compose_maxmin_rejects_malformed():
    d = decompose_maxmin(P("3412"))
    assert compose_maxmin(d, 4) == P("3412")
    repeated = Decomposition(((3,), (2, 3), (2,)), (P("1"), P("12"), P("1")))
    with pytest.raises(ValueError, match="partition"):
        compose_maxmin(repeated, 4)
    with pytest.raises(ValueError, match="partition"):
        compose_maxmin(d, 6)
    bad_pattern = Decomposition(d.parts, (P("132"), d.patterns[1], d.patterns[2]))
    with pytest.raises(ValueError, match="cannot use"):
        compose_maxmin(bad_pattern, 4)
    odd_middle = Decomposition(((5,), (4,), (2, 3)), (P("1"), P("1"), P("21")))
    with pytest.raises(ValueError, match=r"\(odd, even, odd\)"):
        compose_maxmin(odd_middle, 6)


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

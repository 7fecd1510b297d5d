"""The cross-route verification engine, including its failure paths."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import euler_refine
from euler_refine import bij, bijection_checks, euler_numbers, perm, run_verification
from euler_refine.cli import main
from euler_refine.report import report_formats

from helpers import (ONE_CPU, TWO_CPUS, maxmin_set, rendered, smu_set,
                     whole_degree_bijection_checks)


def test_default_scale_run_passes():
    reports = run_verification(max_n=8, egf_order=14)
    assert reports
    for r in reports:
        assert r.passed, (r.identity, r.failures()[:3])


def test_methods_are_tagged():
    reports = run_verification(max_n=4, egf_order=6)
    tags = {(r.left_method, r.right_method) for r in reports}
    assert ("enumeration", "formula") in tags
    assert ("formula", "egf") in tags
    assert ("egf", "egf") in tags


def test_corrupted_euler_prefix_flags_dependent_identities():
    corrupted = euler_numbers(10)
    corrupted[4] = 6
    reports = {r.identity: r for r in run_verification(max_n=8, egf_order=8,
                                                       euler=corrupted)}
    flagged = {name for name, r in reports.items() if not r.passed}
    assert "Euler numbers: triangle vs sec+tan series" in flagged
    assert "alternating count: enumeration vs triangle" in flagged
    assert "second-max-upper count: enumeration vs convolution" in flagged
    assert "second-max-lower count: enumeration vs recurrence" in flagged
    assert "even-degree theorem chain" in flagged
    assert "series identity: second-max-lower counts vs sec+2tan" in flagged
    # Identities not touching the corrupted prefix stay green.
    assert reports["min-max partition of E_n"].passed
    assert reports["series identity: sec^2 = 1 + tan^2"].passed
    assert reports["series identity: Ene+Enw = Eup+Edown"].passed


def test_exceptions_become_failed_entries():
    # A prefix that is too short breaks the formula legs without
    # aborting the run.
    reports = run_verification(max_n=6, egf_order=8, euler=euler_numbers(5))
    broken = [r for r in reports if not r.passed]
    assert broken
    noted = [e for r in broken for e in r.entries if e.note]
    assert noted and any("too short" in e.note or "index" in e.note for e in noted)


def test_a_count_that_raises_at_one_degree_fails_only_that_degree(monkeypatch):
    count = perm.count_refinements

    def broken(n):
        if n == 3:
            raise ValueError("no count at degree 3")
        return count(n)

    monkeypatch.setattr(perm, "count_refinements", broken)
    reports = run_verification(5, 6)
    reading = [(r, e) for r in reports if "enumeration" in (r.left_method, r.right_method)
               for e in r.entries]
    assert {e.n for _, e in reading} == {2, 3, 4, 5}
    for r, e in reading:
        if e.n != 3:
            assert e.passed, (r.identity, e)
            continue
        assert not e.passed, (r.identity, e)
        for side, method in (("left", r.left_method), ("right", r.right_method)):
            assert (f"{side}: no count at degree 3" in e.note) == (method == "enumeration")
    assert all(e.passed for r in reports for e in r.entries
               if "enumeration" not in (r.left_method, r.right_method))


def test_report_serialization_is_deterministic():
    a = [r.to_json_dict() for r in run_verification(max_n=4, egf_order=6)]
    b = [r.to_json_dict() for r in run_verification(max_n=4, egf_order=6)]
    assert a == b


def test_bijection_checks_pass():
    reports = bijection_checks(max_n=7)
    for r in reports:
        assert r.passed, (r.identity, r.failures()[:3])
    names = {r.identity for r in reports}
    assert names == {
        "swap_top_two involution",
        "second-max-upper split round trip",
        "max-min split round trip",
        "doubling map bijectivity",
    }


def test_bijection_failure_names_first_bad_permutation(monkeypatch, capsys):
    original = bij._compose_smu

    def broken(decomposition, n):
        values = original(decomposition, n)
        return bij._swapped(values) if n == 5 else values

    monkeypatch.setattr(bij, "_compose_smu", broken)
    first = next(p for p in smu_set(5) if p.position_of(4) < p.position_of(5))
    witness = f"first bad permutation: {first.to_text()}"
    report = {r.identity: r for r in bijection_checks(max_n=6)}["second-max-upper split round trip"]
    failures = report.failures()
    assert [(e.n, e.label, e.note) for e in failures] == [(5, "round-trip failures", witness)]
    assert main(["bijection-check", "--max-n", "6"]) == 1
    assert f"({witness})" in capsys.readouterr().out


def test_passing_bijection_entries_carry_no_note():
    for report in bijection_checks(max_n=6):
        assert all(e.note == "" for e in report.entries)


def _use_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)


def _entries(reports):
    return [(r.identity, e.n, e.label, e.left, e.right, e.note)
            for r in reports for e in r.entries]


def test_shard_count_does_not_change_the_reports(monkeypatch, capsys):
    outputs = []
    for cpus in (ONE_CPU, TWO_CPUS):
        _use_cpus(monkeypatch, cpus)
        reports = bijection_checks(max_n=8)
        assert main(["bijection-check", "--max-n", "8", "--format", "json"]) == 0
        outputs.append((_entries(reports), capsys.readouterr().out))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("cpus", [ONE_CPU, TWO_CPUS])
@pytest.mark.parametrize("name", ["_compose_smu", "_doubled", "_halved"],
                         ids=["compose_smu", "maxmin_to_smu", "smu_to_maxmin"])
def test_a_raising_map_fails_the_run_with_a_witness(monkeypatch, capfd, cpus, name):
    # The check loop runs the cores of bij's maps; forked workers inherit
    # the patched one.
    def broken(*args):
        raise ValueError("broken map")

    _use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(bij, name, broken)
    reports = bijection_checks(max_n=6)
    failures = [e for r in reports for e in r.failures()]
    assert failures
    noted = [e for e in failures if "raised ValueError: broken map" in e.note]
    assert noted and all(e.note.startswith("first bad permutation: ") for e in noted)
    assert main(["bijection-check", "--max-n", "6"]) == 1
    out, err = capfd.readouterr()
    assert "FAIL" in out and "raised ValueError: broken map" in out
    assert "Traceback" not in out + err


def test_the_loop_inverts_each_left_form_once(monkeypatch):
    # The loop takes a source for an input equal to one it has inverted: for
    # every max-min permutation of even degree up to 10 it inverts one form,
    # the side-0 image, which is the form with n-1 left of n of both images,
    # and gets the permutation back.
    seen, halved = [], bij._halved
    monkeypatch.setattr(bij, "_halved", lambda left: seen.append(left) or halved(left))
    for n in range(2, 11, 2):
        seen.clear()
        for first in range(1, n + 1):
            bij._check_subtree((n, first))
        sources = [bytes(v) for v in perm._walk(n, perm.AltKind.UP_DOWN) if v.index(n) < v.index(1)]
        assert seen == [bij._doubled(v) for v in sources]
        assert [halved(left) for left in seen] == sources


@pytest.mark.parametrize("cpus", [ONE_CPU, TWO_CPUS])
def test_an_inverse_that_returns_another_source_fails_the_inverse(monkeypatch, cpus):
    # The inverse of bad's side-0 image, which is also the form with n-1
    # left of n of its side-1 image, gives other as the source.
    bad, other = maxmin_set(8)[0], maxmin_set(8)[1]
    image, original = bytes(bij.maxmin_to_smu(bad, 0).values), bij._halved

    _use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(bij, "_halved",
                        lambda left: bytes(other.values) if left == image else original(left))
    reports = bijection_checks(max_n=8)
    assert [(r.identity, e.n, e.label, e.left, e.note) for r in reports for e in r.failures()] == [
        ("doubling map bijectivity", 8, "inverse round-trip failures", 2,
         f"first bad permutation: {bad.to_text()} with side 0")]


@pytest.mark.parametrize("cpus", [ONE_CPU, TWO_CPUS])
def test_a_side_1_image_of_another_left_form_is_inverted_afresh(monkeypatch, cpus):
    # bad's side-1 image becomes other's, whose form with n-1 left of n is
    # other's side-0 image, not bad's: side 0's source must not stand in.
    bad, other = maxmin_set(8)[0], maxmin_set(8)[1]
    _use_cpus(monkeypatch, cpus)
    _collide(monkeypatch, bad, other)
    doubling = {r.identity: r for r in bijection_checks(max_n=8)}["doubling map bijectivity"]
    failed = {e.label: e for e in doubling.failures()}
    assert (failed["inverse round-trip failures"].left, failed["inverse round-trip failures"].note) == (
        1, f"first bad permutation: {bad.to_text()} with side 1")


def test_the_first_failure_in_enumeration_order_is_named(monkeypatch):
    # One failure in each of two shards: the first comes from the forked
    # worker, the second from this process.
    bad = maxmin_set(8)[0], maxmin_set(8)[-1]
    original = bij._decompose_maxmin

    def broken(values):
        p = perm.Permutation(values)
        if p in bad:
            raise ValueError(f"cannot split {p}")
        return original(values)

    _use_cpus(monkeypatch, TWO_CPUS)
    monkeypatch.setattr(bij, "_decompose_maxmin", broken)
    report = {r.identity: r for r in bijection_checks(max_n=8)}["max-min split round trip"]
    first = bad[0].to_text()
    assert [(e.n, e.left, e.note) for e in report.failures()] == [
        (8, 2, f"first bad permutation: {first} raised ValueError: cannot split {first}")
    ]


@pytest.mark.parametrize("cpus", [ONE_CPU, TWO_CPUS])
def test_streamed_units_equal_the_whole_degree_path(monkeypatch, cpus):
    _use_cpus(monkeypatch, cpus)
    streamed = report_formats(bijection_checks(max_n=8))
    whole = report_formats(whole_degree_bijection_checks(8))
    for fmt in ("json", "csv", "table"):
        assert rendered(streamed[fmt]) == rendered(whole[fmt]), fmt


def test_a_unit_checks_the_subtree_of_its_first_value():
    for n in (7, 8):
        for first in range(1, n + 1):
            r = bij._check_subtree((n, first))
            smu = [p for p in smu_set(n) if p.values[0] == first]
            maxmin = [p for p in maxmin_set(n) if p.values[0] == first and n % 2 == 0]
            assert (r.smu, r.maxmin) == (len(smu), len(maxmin))
            # The doubling map and its image are checked at even degree only,
            # each permutation packed as n bytes: the images in one blob per
            # first value of the image, each in the order of its (p, side),
            # and the second-max-upper permutations in one sorted blob.
            images = [bij.maxmin_to_smu(p, side).values for p in maxmin for side in (0, 1)]
            assert {f: [tuple(blob[i:i + n]) for i in range(0, len(blob), n)]
                    for f, blob in r.images.items()} == {
                f: [q for q in images if q[0] == f] for f in {q[0] for q in images}}
            assert r.smu_values == [b"".join(bytes(v) for v in sorted(p.values for p in smu)
                                             if n % 2 == 0)]


def test_a_merged_degree_reads_as_its_images_and_its_second_max_upper_set():
    for n in (2, 4, 6, 8):
        r = bij._DegreeResult()
        for first in range(1, n + 1):
            r.absorb(bij._check_subtree((n, first)))
        images = [bij.maxmin_to_smu(p, side).values for p in maxmin_set(n) for side in (0, 1)]
        smu = [p.values for p in smu_set(n)]
        size, image_text, smu_text = r.read(n)
        assert (size, image_text, smu_text) == (
            len(set(images)), str(sorted(set(images))), str(sorted(smu)))
        assert smu_text is image_text
        assert not r.images and not r.smu_values


def test_only_the_second_max_upper_text_keeps_a_repeat():
    # One image lands in the bucket of its first value from two units, and
    # one second-max-upper record is packed twice.
    image, other = (1, 3, 2, 4), (2, 3, 1, 4)
    r, later = bij._DegreeResult(), bij._DegreeResult()
    r.images[1].extend(image)
    later.images[1].extend(image)
    later.images[2].extend(other)
    r.smu_values, later.smu_values = [bytes(image) * 2], [bytes(other)]
    r.absorb(later)
    assert r.read(4) == (2, str([image, other]), str([image, image, other]))


@pytest.mark.parametrize("cpus", [ONE_CPU, TWO_CPUS])
def test_a_raising_maxmin_composition_fails_only_its_round_trip(monkeypatch, tmp_path, cpus):
    # The composition of p's split raises, once, in its round trip; the
    # doubling map relabels p's values without it, so that report passes.
    p, original, calls = maxmin_set(8)[0], bij._compose_maxmin, tmp_path / "calls"
    split = bij._decompose_maxmin(bytes(p.values))

    def broken(d, n):
        if d == split:
            with open(calls, "a", encoding="utf-8") as fh:  # seen from a forked worker too
                fh.write("call\n")
            raise ValueError("cannot compose")
        return original(d, n)

    _use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(bij, "_compose_maxmin", broken)
    reports = {r.identity: r for r in bijection_checks(max_n=8)}
    assert [(r.identity, e.n, e.label, e.left, e.note)
            for r in reports.values() for e in r.failures()] == [
        ("max-min split round trip", 8, "round-trip failures", 1,
         f"first bad permutation: {p.to_text()} raised ValueError: cannot compose")]
    assert reports["doubling map bijectivity"].passed
    assert calls.read_text(encoding="utf-8") == "call\n"


def test_the_check_of_one_permutation_runs_with_only_bij_imported():
    # Of the five up-down permutations of degree 4, all but 3412 have 3 at
    # a peak, 1324 and 2314 with 3 left of 4; 2413 and 3412 are max-min, and
    # their images 2314, 1324 and their swaps are every second-max-upper one.
    src = str(Path(euler_refine.__file__).resolve().parent.parent)
    code = """if True:
        import sys
        from euler_refine import bij
        r = bij._DegreeResult()
        for v in [(1, 3, 2, 4), (1, 4, 2, 3), (2, 3, 1, 4), (2, 4, 1, 3), (3, 4, 1, 2)]:
            bij._check_one(bytes(v), 4, r)
        print((r.smu, r.lefts, r.maxmin), sorted(r.smu_values),
              sorted(bytes(blob) for blob in r.images.values()),
              r.fixed + r.involution_bad + r.smu_bad + r.maxmin_bad + r.inverse_bad,
              sorted(name for name in sys.modules if name.startswith('euler_refine.')))
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    smu = [bytes(v) for v in [(1, 3, 2, 4), (1, 4, 2, 3), (2, 3, 1, 4), (2, 4, 1, 3)]]
    images = [smu[0] + smu[1], smu[2] + smu[3]]  # 1324 1423 from 2413, 2314 2413 from 3412
    assert proc.stdout.strip() == " ".join(map(str, [
        (4, 2, 2), smu, images, [], ["euler_refine.bij", "euler_refine.perm", "euler_refine.report"]]))


@pytest.mark.parametrize("unit", [(8, 3), (9, 2)], ids=["8-3", "9-2"])
def test_a_unit_keeps_no_permutation_it_has_checked(monkeypatch, unit):
    # The walk holds each value tuple it yields in `seen`; one that nothing
    # else refers to any more has a reference count of 2 (`seen` and the
    # argument of getrefcount).  Only the loop's current one may still be
    # held.
    original = perm._walk
    seen, alive, most = [], set(), []

    def held(n, kind, first=None):
        for v in original(n, kind, first):
            seen.append(v)
            alive.add(len(seen) - 1)
            del v
            yield seen[-1]
            alive.difference_update([i for i in alive if sys.getrefcount(seen[i]) == 2])
            most.append(len(alive))

    monkeypatch.setattr(perm, "_walk", held)
    bij._check_subtree(unit)
    assert len(seen) > 100
    assert max(most) <= 1


def test_a_unit_builds_no_permutation(monkeypatch):
    # The unit walks value tuples.  Constructions are counted through
    # Permutation.__post_init__, the hook the benchmark's tracer patches;
    # the one built at the end shows that the hook counts.
    built, init = [], perm.Permutation.__post_init__
    monkeypatch.setattr(perm.Permutation, "__post_init__",
                        lambda p: (built.append(p), init(p))[1])
    r = bij._check_subtree((9, 2))
    assert r.smu > 100
    assert built == []
    perm.Permutation((2, 1))
    assert len(built) == 1


def test_a_degree_above_one_byte_is_refused_before_any_unit_runs(monkeypatch):
    ran = []
    monkeypatch.setattr(bij, "_check_subtree", ran.append)
    with pytest.raises(ValueError, match="max_n must be at most 255, as each value is packed"):
        bijection_checks(max_n=256)
    assert ran == []


@pytest.mark.parametrize("value", [3.0, "3", True], ids=repr)
@pytest.mark.parametrize("check, name", [(bijection_checks, "max_n"),
                                         (run_verification, "max_n"),
                                         (run_verification, "egf_order")],
                         ids=["bijection_checks-max_n", "run_verification-max_n",
                              "run_verification-egf_order"])
def test_a_degree_that_is_no_int_is_refused_by_name(check, name, value):
    # 3.0 and True compare as ints do, and "3" compares with no int; each is
    # refused before any comparison, with its name and its value.
    with pytest.raises(ValueError, match=f"^{name} must be an int, got {value!r}$"):
        check(**{name: value})


def _doubling_failures_at_8(images, smu):
    """The failing degree-8 entries of the doubling report, each side of
    the set entry asserted to be rendered as from the lists `images` and
    `smu` of value tuples: ``str(sorted(set(images)))`` and ``str(sorted(smu))``."""
    doubling = {r.identity: r for r in bijection_checks(max_n=8)}["doubling map bijectivity"]
    assert all(e.passed for e in doubling.entries if e.n != 8)
    failed = {e.label: e for e in doubling.failures()}
    entry = {e.label: e for e in doubling.entries if e.n == 8}["image = second-max-upper set"]
    assert (entry.left, entry.right) == (str(sorted(set(images))), str(sorted(smu)))
    return failed


def _collide(monkeypatch, bad, other):
    """Patch the doubling map so that (bad, 1) maps to the image of (other, 1),
    still a second-max-upper permutation: the image loses one element and
    gains none.  Returns every image of degree 8 under the patched map.

    The side-1 image is the side-0 image with n-1 and n swapped, so the swap
    is patched on bad's side-0 image; the involution check, which swaps that
    permutation too, fails as well."""
    original = bij._swapped
    source, wrong = bytes(bij.maxmin_to_smu(bad, 0).values), bytes(bij.maxmin_to_smu(other, 1).values)

    def broken(values):
        return wrong if values == source else original(values)

    monkeypatch.setattr(bij, "_swapped", broken)
    return [bij.maxmin_to_smu(p, side).values for p in maxmin_set(8) for side in (0, 1)]


@pytest.mark.parametrize("cpus", [ONE_CPU, TWO_CPUS])
def test_a_wrong_image_fails_the_image_set_with_two_renderings(monkeypatch, cpus):
    _use_cpus(monkeypatch, cpus)
    images = _collide(monkeypatch, maxmin_set(8)[0], maxmin_set(8)[1])
    failed = _doubling_failures_at_8(images, [p.values for p in smu_set(8)])
    assert {"image size", "image = second-max-upper set"} <= set(failed)
    assert (failed["image size"].left, failed["image size"].right) == (
        len(set(images)), 2 * len(maxmin_set(8)))
    assert failed["image = second-max-upper set"].left != failed[
        "image = second-max-upper set"].right


@pytest.mark.parametrize("cpus", [ONE_CPU, TWO_CPUS])
def test_two_pairs_from_different_units_with_one_image_fail_the_image_set(monkeypatch, cpus):
    # The two max-min permutations start with different values, so their
    # units run in different processes on two CPUs; the image they share is
    # counted in its first value's bucket only once.
    bad = maxmin_set(8)[0]
    other = next(p for p in maxmin_set(8) if p.values[0] != bad.values[0])
    _use_cpus(monkeypatch, cpus)
    images = _collide(monkeypatch, bad, other)
    assert len(images) - len(set(images)) == 1
    failed = _doubling_failures_at_8(images, [p.values for p in smu_set(8)])
    assert {"image size", "image = second-max-upper set"} <= set(failed)
    assert failed["image size"].left == 2 * len(maxmin_set(8)) - 1


@pytest.mark.parametrize("cpus", [ONE_CPU, TWO_CPUS])
def test_a_second_max_upper_permutation_seen_twice_fails_the_image_set(monkeypatch, cpus):
    # A min-max one, so the max-min list and the images stay as they are:
    # only the second-max-upper list holds one permutation twice.
    twice = next(p for p in smu_set(8) if perm.classify(p).minmax is perm.MinMaxKind.MIN_MAX)
    original = perm._walk

    def doubled(n, kind, first=None):
        for v in original(n, kind, first):
            yield v
            if v == twice.values:
                yield v

    _use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(perm, "_walk", doubled)
    images = [bij.maxmin_to_smu(p, side).values for p in maxmin_set(8) for side in (0, 1)]
    smu = [p.values for p in smu_set(8)] + [twice.values]
    failed = _doubling_failures_at_8(images, smu)
    assert "image = second-max-upper set" in failed
    assert "image size" not in failed


@pytest.mark.parametrize("cpus", [ONE_CPU, TWO_CPUS])
def test_a_subtree_enumerated_in_reverse_gives_the_same_reports(monkeypatch, cpus):
    # A unit sorts its second-max-upper values itself, so the set entry
    # does not rest on the walk's lexicographic order.
    _use_cpus(monkeypatch, cpus)
    expected = _entries(bijection_checks(max_n=8))
    original = perm._walk
    monkeypatch.setattr(perm, "_walk",
                        lambda n, kind, first=None: reversed(list(original(n, kind, first))))
    reports = bijection_checks(max_n=8)
    assert all(r.passed for r in reports)
    assert _entries(reports) == expected


@pytest.mark.parametrize("cpus", [ONE_CPU, TWO_CPUS])
@pytest.mark.parametrize("first", [9, 1])
def test_an_image_of_another_degree_is_named_and_left_out_of_the_set(monkeypatch, cpus, first):
    # Packed n bytes a record, an image of degree 9 would be dropped (first
    # value 9) or cut the records after it in its bucket (first value 1).
    # The doubling core relabels bad into the degree-9 image, and the swap
    # still gives bad's side-1 image.
    bad = maxmin_set(8)[0]
    wrong = perm.Permutation([first] + [v for v in range(1, 10) if v != first])
    images = [bij.maxmin_to_smu(p, side).values for p in maxmin_set(8) for side in (0, 1)
              if (p, side) != (bad, 0)]
    right = bytes(bij.maxmin_to_smu(bad, 1).values)
    doubled, swapped = bij._doubled, bij._swapped

    _use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(bij, "_doubled",
                        lambda v: bytes(wrong.values) if v == bytes(bad.values) else doubled(v))
    monkeypatch.setattr(bij, "_swapped",
                        lambda values: right if values == bytes(wrong.values) else swapped(values))
    failed = _doubling_failures_at_8(images, [p.values for p in smu_set(8)])
    assert {"image size", "image = second-max-upper set"} <= set(failed)
    assert failed["image size"].left == 2 * len(maxmin_set(8)) - 1
    assert failed["inverse round-trip failures"].note == (
        f"first bad permutation: {bad.to_text()} with side 0 raised ValueError: "
        f"its image {wrong.to_text()} has degree 9")


@pytest.mark.parametrize("cpus", [ONE_CPU, TWO_CPUS])
@pytest.mark.parametrize("text", ["78132546", "21436587"], ids=["second-max-lower", "down-up"])
def test_an_image_that_is_not_second_max_upper_fails_its_inverse(monkeypatch, cpus, text):
    # The doubling core relabels bad into an image of degree 8 that is not
    # second-max-upper up-down.  Its inverse does not run, and the reason is
    # the one smu_to_maxmin gives for it.
    bad = maxmin_set(8)[0]
    wrong = perm.Permutation.from_text(text)
    with pytest.raises(ValueError) as refused:
        bij.smu_to_maxmin(wrong)
    doubled = bij._doubled

    _use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(bij, "_doubled",
                        lambda v: bytes(wrong.values) if v == bytes(bad.values) else doubled(v))
    doubling = {r.identity: r for r in bijection_checks(max_n=8)}["doubling map bijectivity"]
    failed = {e.label: e for e in doubling.failures()}
    assert (failed["inverse round-trip failures"].left, failed["inverse round-trip failures"].note) == (
        2, f"first bad permutation: {bad.to_text()} with side 0 raised ValueError: {refused.value}")
    assert "image = second-max-upper set" in failed


@pytest.mark.parametrize("cpus", [ONE_CPU, TWO_CPUS])
def test_the_first_failure_across_first_value_units_is_named(monkeypatch, cpus):
    # Units are dealt in turn, so on two CPUs the subtrees of first values
    # 2 and 3 at degree 8 are checked in different processes.
    lefts = [p for p in smu_set(8) if p.position_of(7) < p.position_of(8)]
    bad = ([p for p in lefts if p.values[0] == 3][-1],
           next(p for p in lefts if p.values[0] == 2))
    original = bij._decompose_smu

    def broken(values):
        p = perm.Permutation(values)
        if p in bad:
            raise ValueError(f"cannot split {p}")
        return original(values)

    _use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(bij, "_decompose_smu", broken)
    reports = {r.identity: r for r in bijection_checks(max_n=8)}
    first = bad[1].to_text()
    assert [(e.n, e.label, e.left, e.note)
            for e in reports["second-max-upper split round trip"].failures()] == [
        (8, "round-trip failures", 2,
         f"first bad permutation: {first} raised ValueError: cannot split {first}")
    ]


def _cold_run(monkeypatch, capfd, cpus, args):
    """Exit code, stdout and stderr of one CLI run with no counts cached."""
    _use_cpus(monkeypatch, cpus)
    perm.count_refinements.cache_clear()
    try:
        code = main(args)
    finally:
        perm.count_refinements.cache_clear()
    return (code, *capfd.readouterr())


def _lost_in_a_worker(how, original, here):
    """`original`, whose forked worker exits with code 3 or raises, as
    `how` says; each call in this process is recorded in `here`."""
    parent = os.getpid()

    def lost(*args):
        if os.getpid() != parent:
            if how == "exits":
                os._exit(3)
            raise RuntimeError("results lost")
        here.append(args)
        return original(*args)

    return lost


@pytest.mark.parametrize("how", ["exits", "raises"])
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_a_lost_bijection_worker_is_checked_again_here(monkeypatch, capfd, fmt, how):
    args = ["bijection-check", "--max-n", "6", "--format", fmt]
    expected = _cold_run(monkeypatch, capfd, ONE_CPU, args)
    assert expected[0] == 0 and expected[2] == ""
    here = []
    monkeypatch.setattr(bij, "_check_subtree",
                        _lost_in_a_worker(how, bij._check_subtree, here))
    assert _cold_run(monkeypatch, capfd, TWO_CPUS, args) == expected
    # This process ran the forked shard's units as well as its own: every
    # (degree, first value) unit, once.
    assert sorted(unit for unit, in here) == [(n, first) for n in range(2, 7)
                                              for first in range(1, n + 1)]


@pytest.mark.parametrize("args", [["verify", "--max-n", "9"],
                                  ["table", "--method", "enum", "--max-n", "9"],
                                  ["bijection-check", "--max-n", "6"]])
def test_a_shard_that_cannot_fork_runs_here(monkeypatch, capfd, args):
    # The counted runs start no worker; the bijection check runs its
    # forked shard here.  Either way the output is the one-CPU output.
    expected = _cold_run(monkeypatch, capfd, ONE_CPU, args)

    def cannot_fork():
        raise OSError("no process for the worker")

    monkeypatch.setattr(os, "fork", cannot_fork)
    assert _cold_run(monkeypatch, capfd, TWO_CPUS, args) == expected


def test_the_count_never_forks(monkeypatch):
    # An error no fork caller catches, so that any fork fails the count.
    def forked():
        raise AssertionError("the count forked")

    _use_cpus(monkeypatch, ONE_CPU)
    perm.count_refinements.cache_clear()
    try:
        expected = perm.count_refinements(11)
        perm.count_refinements.cache_clear()
        _use_cpus(monkeypatch, TWO_CPUS)
        monkeypatch.setattr(os, "fork", forked)
        assert perm.count_refinements(11) == expected
    finally:
        perm.count_refinements.cache_clear()


def test_importing_the_cli_does_not_import_multiprocessing():
    # Nor does running the count and the sharded bijection check on two CPUs.
    src = str(Path(euler_refine.__file__).resolve().parent.parent)
    code = """if True:
        import contextlib, io, os, sys
        os.sched_getaffinity = lambda pid: {0, 1}
        from euler_refine.cli import main
        seen = ['multiprocessing' in sys.modules]
        for args in (['verify', '--max-n', '11'], ['bijection-check', '--max-n', '6']):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(args) == 0
            seen.append('multiprocessing' in sys.modules)
        print(seen)
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.stdout.strip() == "[False, False, False]", proc.stderr

"""Cross-route verification of the counting identities.

Each identity is checked by comparing two independently computed sides
(enumeration, closed formula or recurrence, series coefficients) and
recorded as a :class:`VerifyReport`.  Exceptions raised while computing
a side become failed entries rather than crashes, so a corrupted input
sequence flags every dependent identity instead of aborting the run.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from . import bij, perm, seq, series
from .report import CheckEntry, VerifyReport


def _entry(n: int, label: str, left: Callable[[], object], right: Callable[[], object]) -> CheckEntry:
    notes = []
    lval = rval = None
    try:
        lval = left()
    except Exception as exc:
        notes.append(f"left: {exc}")
    try:
        rval = right()
    except Exception as exc:
        notes.append(f"right: {exc}")
    return CheckEntry(n, label, lval, rval, "; ".join(notes))


def _theorem_report(max_n: int, euler: Sequence[int]) -> VerifyReport:
    try:
        return seq.theorem_check(max_n, euler)
    except ValueError as exc:
        report = VerifyReport("even-degree theorem chain", "formula", "formula")
        report.entries.append(CheckEntry(max_n, "theorem_check", note=str(exc)))
        return report


def _per_degree(compute: Callable[[int], object]) -> Callable[[int], object]:
    """`compute` evaluated at most once per degree.

    An exception it raises is kept and raised again on every later call
    for that degree, so each entry that reads the degree fails.
    """
    done: dict[int, object] = {}

    def value(n: int) -> object:
        if n not in done:
            try:
                done[n] = compute(n)
            except Exception as exc:
                done[n] = exc
        result = done[n]
        if isinstance(result, Exception):
            raise result
        return result

    return value


def _pairwise_report(
    identity: str,
    left_method: str,
    right_method: str,
    ns: Sequence[int],
    label: str,
    left: Callable[[int], object],
    right: Callable[[int], object],
) -> VerifyReport:
    report = VerifyReport(identity, left_method, right_method)
    for n in ns:
        report.entries.append(_entry(n, label, lambda: left(n), lambda: right(n)))
    return report


def run_verification(
    max_n: int = 10,
    egf_order: int = 20,
    euler: Optional[Sequence[int]] = None,
) -> list[VerifyReport]:
    """Check every identity three ways at desk scale.

    `euler` optionally replaces the Euler-number prefix used by the
    formula legs; hand it a corrupted prefix to watch the dependent
    identities fail.
    """
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    if egf_order < 2:
        raise ValueError("egf_order must be at least 2")
    ee = euler if euler is not None else seq.euler_numbers(max(max_n, egf_order + 2))
    ns = range(2, max_n + 1)
    odd_ns = range(3, max_n + 1, 2)
    # A degree whose enumeration raises fails the entries that read it.
    table = _per_degree(perm.count_refinements)
    pair = _per_degree(lambda n: seq.e_ne_nw_pair(n, ee))

    sec = series.sec_egf(egf_order)
    tan = series.tan_egf(egf_order)
    sec_tan_counts = series.extract_counts(sec + tan)
    ene_counts = series.extract_counts(series.ene_egf(egf_order))
    enw_counts = series.extract_counts(series.enw_egf(egf_order))
    eup_counts = series.extract_counts(series.eup_egf(egf_order))
    edown_counts = series.extract_counts(series.edown_egf(egf_order))
    sec_squared = (sec * sec).coeffs
    one_plus_tan_squared = (series.one_egf(egf_order) + tan * tan).coeffs

    reports = [
        _pairwise_report(
            "Euler numbers: triangle vs sec+tan series", "formula", "egf",
            range(0, egf_order + 1), "E_n",
            lambda n: ee[n], lambda n: sec_tan_counts[n],
        ),
        _pairwise_report(
            "alternating count: enumeration vs triangle", "enumeration", "formula",
            ns, "E_n",
            lambda n: table(n).e, lambda n: ee[n],
        ),
        _pairwise_report(
            "min-max count: enumeration vs convolution", "enumeration", "formula",
            ns, "Ene_n",
            lambda n: table(n).ene, lambda n: pair(n)[0],
        ),
        _pairwise_report(
            "max-min count: enumeration vs convolution", "enumeration", "formula",
            ns, "Enw_n",
            lambda n: table(n).enw, lambda n: pair(n)[1],
        ),
        _pairwise_report(
            "second-max-upper count: enumeration vs convolution", "enumeration", "formula",
            ns, "Eup_n",
            lambda n: table(n).eup, lambda n: seq.e_up_formula(n, ee),
        ),
        _pairwise_report(
            "second-max-lower count: enumeration vs recurrence", "enumeration", "formula",
            ns, "Edown_n",
            lambda n: table(n).edown, lambda n: seq.e_down_recurrence(n, ee),
        ),
        _pairwise_report(
            "min-max partition of E_n", "enumeration", "enumeration",
            ns, "Ene+Enw = E",
            lambda n: table(n).ene + table(n).enw, lambda n: table(n).e,
        ),
        _pairwise_report(
            "second-max partition of E_n", "enumeration", "enumeration",
            ns, "Eup+Edown = E",
            lambda n: table(n).eup + table(n).edown, lambda n: table(n).e,
        ),
        _pairwise_report(
            "down-up second-max partition of E_n", "enumeration", "enumeration",
            ns, "Dup+Ddown = E",
            lambda n: table(n).dup + table(n).ddown, lambda n: table(n).e,
        ),
        _pairwise_report(
            "odd-degree min-max symmetry", "enumeration", "enumeration",
            odd_ns, "Ene = Enw",
            lambda n: table(n).ene, lambda n: table(n).enw,
        ),
        _theorem_report(max_n, ee),
        _pairwise_report(
            "series identity: min-max counts vs sec^2(sec+tan)", "formula", "egf",
            range(2, egf_order + 3), "Ene_n",
            lambda n: pair(n)[0], lambda n: ene_counts[n - 2],
        ),
        _pairwise_report(
            "series identity: max-min counts vs sec tan(sec+tan)", "formula", "egf",
            range(2, egf_order + 3), "Enw_n",
            lambda n: pair(n)[1], lambda n: enw_counts[n - 2],
        ),
        _pairwise_report(
            "series identity: second-max-upper counts vs 2tan^2(sec+tan)", "formula", "egf",
            range(2, egf_order + 3), "Eup_n",
            lambda n: seq.e_up_formula(n, ee), lambda n: eup_counts[n - 2],
        ),
        _pairwise_report(
            "series identity: second-max-lower counts vs sec+2tan", "formula", "egf",
            range(2, egf_order + 3), "Edown_n",
            lambda n: seq.e_down_recurrence(n, ee), lambda n: edown_counts[n - 2],
        ),
        _pairwise_report(
            "series identity: Ene+Enw = Eup+Edown", "egf", "egf",
            range(0, egf_order + 1), "[x^n]",
            lambda n: ene_counts[n] + enw_counts[n],
            lambda n: eup_counts[n] + edown_counts[n],
        ),
        _pairwise_report(
            "series identity: sec^2 = 1 + tan^2", "egf", "egf",
            range(0, egf_order + 1), "[x^n]",
            lambda n: sec_squared[n], lambda n: one_plus_tan_squared[n],
        ),
    ]
    return reports


def _failure_count(n: int, label: str, witnesses: Sequence[str]) -> CheckEntry:
    """Entry expecting no failures; a failing one names its first witness."""
    note = f"first bad permutation: {witnesses[0]}" if witnesses else ""
    return CheckEntry(n, label, len(witnesses), 0, note)


def bijection_checks(max_n: int = 8) -> list[VerifyReport]:
    """Exhaustive checks of the involution, the splittings and the doubling map.

    Every count entry compares an observed failure or cardinality
    against its expected value, degree by degree up to max_n.  A failing
    failure count names its first bad permutation in the entry's note.
    """
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    smu_sets = {}
    maxmin_sets = {}
    for n in range(2, max_n + 1):
        ups = list(perm.enumerate_alternating(n, perm.AltKind.UP_DOWN))
        smu_sets[n] = [
            p for p in ups if perm.classify(p).secondmax is perm.SecondMaxKind.UPPER
        ]
        if n % 2 == 0:
            maxmin_sets[n] = [
                p for p in ups if perm.classify(p).minmax is perm.MinMaxKind.MAX_MIN
            ]

    involution = VerifyReport("swap_top_two involution", "enumeration", "enumeration")
    for n in range(2, max_n + 1):
        fixed, bad = [], []
        for p in smu_sets[n]:
            q = bij.swap_top_two(p)
            if q == p:
                fixed.append(p.to_text())
            if bij.swap_top_two(q) != p or perm.classify(q).secondmax is not perm.SecondMaxKind.UPPER:
                bad.append(p.to_text())
        involution.entries.append(_failure_count(n, "fixed points", fixed))
        involution.entries.append(_failure_count(n, "involution violations", bad))

    smu_roundtrip = VerifyReport("second-max-upper split round trip", "enumeration", "enumeration")
    for n in range(2, max_n + 1):
        bad = []
        lefts = 0
        for p in smu_sets[n]:
            if p.position_of(n - 1) > p.position_of(n):
                continue
            lefts += 1
            if bij.compose_smu(bij.decompose_smu(p), n) != p:
                bad.append(p.to_text())
        smu_roundtrip.entries.append(_failure_count(n, "round-trip failures", bad))
        smu_roundtrip.entries.append(CheckEntry(n, "left-oriented half", 2 * lefts, len(smu_sets[n])))

    maxmin_roundtrip = VerifyReport("max-min split round trip", "enumeration", "enumeration")
    for n in range(2, max_n + 1, 2):
        bad = [
            p.to_text() for p in maxmin_sets[n]
            if bij.compose_maxmin(bij.decompose_maxmin(p), n) != p
        ]
        maxmin_roundtrip.entries.append(_failure_count(n, "round-trip failures", bad))

    doubling = VerifyReport("doubling map bijectivity", "enumeration", "enumeration")
    for n in range(2, max_n + 1, 2):
        images = set()
        bad_inverse = []
        for p in maxmin_sets[n]:
            for side in (0, 1):
                q = bij.maxmin_to_smu(p, side)
                images.add(q)
                if bij.smu_to_maxmin(q) != (p, side):
                    bad_inverse.append(f"{p.to_text()} with side {side}")
        doubling.entries.append(CheckEntry(n, "image size", len(images), 2 * len(maxmin_sets[n])))
        doubling.entries.append(
            CheckEntry(
                n,
                "image = second-max-upper set",
                sorted(p.values for p in images),
                sorted(p.values for p in smu_sets[n]),
            )
        )
        doubling.entries.append(_failure_count(n, "inverse round-trip failures", bad_inverse))

    return [involution, smu_roundtrip, maxmin_roundtrip, doubling]

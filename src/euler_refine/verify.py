"""Cross-route verification of the counting identities.

Each identity is checked by comparing two independently computed sides
(enumeration, closed formula or recurrence, series coefficients) and
recorded as a :class:`VerifyReport`.  Exceptions raised while computing
a side become failed entries rather than crashes, so a corrupted input
sequence flags every dependent identity instead of aborting the run.

The enumeration, the bijections and the fork helper (``perm``, ``bij``
and ``workers``) are imported by the functions that run them, so a
command that only evaluates formulas and series never loads them.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence

from . import seq, series
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


class SequenceRoutes(NamedTuple):
    """Where each route finds one counting sequence.

    `offset` is the first degree of the sequence's b-file and the shift
    of its series: the series at order k carries degrees offset..offset+k.
    `field` names its :class:`~euler_refine.report.CountTable` column, and
    ``formula(ee, n)`` computes degree n from the Euler prefix `ee`.  The
    titles name its two reports in :func:`run_verification`; the down-up
    sequences have none, as those reports cover the up-down population.
    """

    offset: int
    field: str
    series: Callable[[int], series.TruncatedEGF]
    formula: Callable[[Sequence[int], int], int]
    enum_title: str = ""  # its enumeration vs formula report
    series_title: str = ""  # its formula vs series report


# Each function is looked up in its module when called, never bound here.
SEQUENCES: dict[str, SequenceRoutes] = {
    "E": SequenceRoutes(
        0, "e", lambda k: series.sec_egf(k) + series.tan_egf(k), lambda ee, n: ee[n],
        "alternating count: enumeration vs triangle",
        "Euler numbers: triangle vs sec+tan series"),
    "Ene": SequenceRoutes(
        2, "ene", lambda k: series.ene_egf(k), lambda ee, n: seq.e_ne_formula(n, ee),
        "min-max count: enumeration vs convolution",
        "series identity: min-max counts vs sec^2(sec+tan)"),
    "Enw": SequenceRoutes(
        2, "enw", lambda k: series.enw_egf(k), lambda ee, n: seq.e_nw_formula(n, ee),
        "max-min count: enumeration vs convolution",
        "series identity: max-min counts vs sec tan(sec+tan)"),
    "Eup": SequenceRoutes(
        2, "eup", lambda k: series.eup_egf(k), lambda ee, n: seq.e_up_formula(n, ee),
        "second-max-upper count: enumeration vs convolution",
        "series identity: second-max-upper counts vs 2tan^2(sec+tan)"),
    "Edown": SequenceRoutes(
        2, "edown", lambda k: series.edown_egf(k), lambda ee, n: seq.e_down_recurrence(n, ee),
        "second-max-lower count: enumeration vs recurrence",
        "series identity: second-max-lower counts vs sec+2tan"),
    # In a down-up permutation n-1 can sit at a valley only at an end, next to
    # n, as an interior valley needs two larger neighbours.  At odd n both ends
    # are peaks: Dup = E_n and Ddown = 0.  At even n, reversal maps up-down onto
    # down-up and peaks onto peaks, so Dup = Eup; and n-1 at the last position
    # with n before it leaves, once both are deleted, any down-up permutation
    # of degree n-2, so Ddown = E_{n-2}.
    "Dup": SequenceRoutes(
        2, "dup", lambda k: series.dup_egf(k),
        lambda ee, n: seq.e_up_formula(n, ee) if n % 2 == 0 else ee[n]),
    "Ddown": SequenceRoutes(
        2, "ddown", lambda k: series.ddown_egf(k),
        lambda ee, n: ee[n - 2] if n % 2 == 0 else 0),
}
# The down-up sequences, in table order.
DOWN_UP = ("Dup", "Ddown")


def run_verification(
    max_n: int = 10,
    egf_order: int = 20,
    euler: Optional[Sequence[int]] = None,
) -> list[VerifyReport]:
    """Check every identity three ways at desk scale.

    `euler` optionally replaces the Euler-number prefix used by the
    formula legs and the theorem chain; hand it a corrupted or short
    prefix to watch the dependent identities fail.  A degree whose
    :func:`~euler_refine.perm.count_refinements` raises fails every
    entry that reads it.

    The three partition reports pass by construction: ``count_refinements``
    sets ``enw``, ``edown`` and ``ddown`` to ``e`` less the other part, and
    :class:`~euler_refine.report.CountTable` rejects any other split.  What
    they test is the population total, which ``count_refinements`` checks
    across its up-down and down-up passes.
    """
    from . import perm

    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    if egf_order < 2:
        raise ValueError("egf_order must be at least 2")
    ee = euler if euler is not None else seq.euler_numbers(max(max_n, egf_order + 2))
    ns = range(2, max_n + 1)
    table = perm.count_refinements
    up_down = {name: s for name, s in SEQUENCES.items() if name not in DOWN_UP}
    counts = {name: series.extract_counts(s.series(egf_order)) for name, s in up_down.items()}
    sec, tan = series.sec_egf(egf_order), series.tan_egf(egf_order)
    sec_squared = (sec * sec).coeffs
    one_plus_tan_squared = (series.one_egf(egf_order) + tan * tan).coeffs

    enum_reports = [
        _pairwise_report(
            s.enum_title, "enumeration", "formula", ns, f"{name}_n",
            lambda n: getattr(table(n), s.field), lambda n: s.formula(ee, n),
        )
        for name, s in up_down.items()
    ]
    series_reports = [
        _pairwise_report(
            s.series_title, "formula", "egf",
            range(s.offset, egf_order + s.offset + 1), f"{name}_n",
            lambda n: s.formula(ee, n), lambda n: counts[name][n - s.offset],
        )
        for name, s in up_down.items()
    ]
    ene, enw, eup, edown = (counts[name] for name in ("Ene", "Enw", "Eup", "Edown"))
    partition_reports = [
        _pairwise_report(
            f"{split} partition of E_n", "enumeration", "enumeration", ns, f"{a}+{b} = E",
            lambda n: (getattr(table(n), SEQUENCES[a].field)
                       + getattr(table(n), SEQUENCES[b].field)),
            lambda n: table(n).e,
        )
        for split, a, b in (("min-max", "Ene", "Enw"), ("second-max", "Eup", "Edown"),
                            ("down-up second-max", *DOWN_UP))
    ]
    # The Euler-number series check leads, the refined ones follow the theorem chain.
    return series_reports[:1] + enum_reports + partition_reports + [
        _pairwise_report(
            "odd-degree min-max symmetry", "enumeration", "enumeration",
            range(3, max_n + 1, 2), "Ene = Enw",
            lambda n: table(n).ene, lambda n: table(n).enw,
        ),
        seq.theorem_check(max_n, ee),
    ] + series_reports[1:] + [
        _pairwise_report(
            "series identity: Ene+Enw = Eup+Edown", "egf", "egf",
            range(0, egf_order + 1), "[x^n]",
            lambda n: ene[n] + enw[n], lambda n: eup[n] + edown[n],
        ),
        _pairwise_report(
            "series identity: sec^2 = 1 + tan^2", "egf", "egf",
            range(0, egf_order + 1), "[x^n]",
            lambda n: sec_squared[n], lambda n: one_plus_tan_squared[n],
        ),
    ]


def _failure_count(n: int, label: str, witnesses: Sequence[str]) -> CheckEntry:
    """Entry expecting no failures; a failing one names its first witness."""
    note = f"first bad permutation: {witnesses[0]}" if witnesses else ""
    return CheckEntry(n, label, len(witnesses), 0, note)


def bijection_checks(max_n: int = 8) -> list[VerifyReport]:
    """Exhaustive checks of the involution, the splittings and the doubling map.

    Every count entry compares an observed failure or cardinality against its
    expected value, degree by degree up to max_n.  A failing failure count names
    its first bad permutation in the entry's note; a map that raises, or doubles
    to another degree, counts as a failure and the note says why.

    The work is cut into units, one per degree and first value, dealt in
    turn to one shard per CPU this process may run on (see
    :func:`euler_refine.workers.map_dealt`).  Each unit enumerates, classifies
    and checks its subtree in :func:`euler_refine.bij._check_subtree` and
    returns what it found, the values packed; the results are merged in
    enumeration order, so the reports do not depend on the CPU count.
    """
    from . import bij, workers

    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    if max_n > 255:
        raise ValueError("max_n must be at most 255, as each value is packed in one byte")
    degrees = range(2, max_n + 1)
    units = [(n, first) for n in degrees for first in range(1, n + 1)]
    results = {n: bij._DegreeResult() for n in degrees}
    for (n, _), part in zip(units, workers.map_dealt(bij._check_subtree, units, workers.cpu_count())):
        results[n].absorb(part)

    reports = involution, smu_roundtrip, maxmin_roundtrip, doubling = [
        VerifyReport(identity, "enumeration", "enumeration")
        for identity in ("swap_top_two involution", "second-max-upper split round trip",
                         "max-min split round trip", "doubling map bijectivity")]
    for n, r in results.items():
        involution.entries += [_failure_count(n, "fixed points", r.fixed),
                               _failure_count(n, "involution violations", r.involution_bad)]
        smu_roundtrip.entries += [_failure_count(n, "round-trip failures", r.smu_bad),
                                  CheckEntry(n, "left-oriented half", 2 * r.lefts, r.smu)]
        if n % 2 == 0:
            maxmin_roundtrip.entries.append(_failure_count(n, "round-trip failures", r.maxmin_bad))
    # The records are read last: an entry made after a read can keep the memory it freed.
    for n in degrees[::2]:
        r = results[n]
        size, image_text, smu_text = r.read(n)
        doubling.entries += [CheckEntry(n, "image size", size, 2 * r.maxmin),
                             CheckEntry(n, "image = second-max-upper set", image_text, smu_text),
                             _failure_count(n, "inverse round-trip failures", r.inverse_bad)]
    return reports

"""Cross-route verification of the counting identities.

Each identity is checked by comparing two independently computed sides
(enumeration, closed formula or recurrence, series coefficients) and
recorded as a :class:`VerifyReport`.  Exceptions raised while computing
a side become failed entries rather than crashes, so a corrupted input
sequence flags every dependent identity instead of aborting the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Sequence

from . import bij, perm, seq, series, workers
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


class FormulaRoute:
    """The formula route over one Euler-number prefix `euler`.

    ``pair(n)`` is the (ene, enw) pair of degree n, computed once and
    shared by the two sequences it gives.
    """

    def __init__(self, euler: Sequence[int]) -> None:
        self.euler = euler
        self.pair = _per_degree(lambda n: seq.e_ne_nw_pair(n, euler))


@dataclass(frozen=True)
class SequenceRoutes:
    """Where each route finds one counting sequence.

    `offset` is the first degree of the sequence's b-file and the shift
    of its series: the series at order k carries degrees offset..offset+k.
    `field` names its :class:`~euler_refine.seq.CountTable` column.  A
    sequence without `formula` and `series` is enumeration-only, and has
    no report titles.
    """

    offset: int
    field: str
    enum_title: str = ""  # its enumeration vs formula report
    series_title: str = ""  # its formula vs series report
    formula: Optional[Callable[[FormulaRoute, int], int]] = None
    series: Optional[Callable[[int], series.TruncatedEGF]] = None


# Each function is looked up in its module when called, never bound here.
SEQUENCES: dict[str, SequenceRoutes] = {
    "E": SequenceRoutes(
        0, "e", "alternating count: enumeration vs triangle",
        "Euler numbers: triangle vs sec+tan series",
        lambda f, n: f.euler[n], lambda k: series.sec_egf(k) + series.tan_egf(k)),
    "Ene": SequenceRoutes(
        2, "ene", "min-max count: enumeration vs convolution",
        "series identity: min-max counts vs sec^2(sec+tan)",
        lambda f, n: f.pair(n)[0], lambda k: series.ene_egf(k)),
    "Enw": SequenceRoutes(
        2, "enw", "max-min count: enumeration vs convolution",
        "series identity: max-min counts vs sec tan(sec+tan)",
        lambda f, n: f.pair(n)[1], lambda k: series.enw_egf(k)),
    "Eup": SequenceRoutes(
        2, "eup", "second-max-upper count: enumeration vs convolution",
        "series identity: second-max-upper counts vs 2tan^2(sec+tan)",
        lambda f, n: seq.e_up_formula(n, f.euler), lambda k: series.eup_egf(k)),
    "Edown": SequenceRoutes(
        2, "edown", "second-max-lower count: enumeration vs recurrence",
        "series identity: second-max-lower counts vs sec+2tan",
        lambda f, n: seq.e_down_recurrence(n, f.euler), lambda k: series.edown_egf(k)),
    "Dup": SequenceRoutes(2, "dup"),
    "Ddown": SequenceRoutes(2, "ddown"),
}


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
    # A degree whose enumeration raises fails the entries that read it.
    table = _per_degree(perm.count_refinements)
    formulas = FormulaRoute(ee)
    closed_form = {name: s for name, s in SEQUENCES.items() if s.formula}
    counts = {name: series.extract_counts(s.series(egf_order)) for name, s in closed_form.items()}
    sec, tan = series.sec_egf(egf_order), series.tan_egf(egf_order)
    sec_squared = (sec * sec).coeffs
    one_plus_tan_squared = (series.one_egf(egf_order) + tan * tan).coeffs

    enum_reports = [
        _pairwise_report(
            s.enum_title, "enumeration", "formula", ns, f"{name}_n",
            lambda n: getattr(table(n), s.field), lambda n: s.formula(formulas, n),
        )
        for name, s in closed_form.items()
    ]
    series_reports = [
        _pairwise_report(
            s.series_title, "formula", "egf",
            range(s.offset, egf_order + s.offset + 1), f"{name}_n",
            lambda n: s.formula(formulas, n), lambda n: counts[name][n - s.offset],
        )
        for name, s in closed_form.items()
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
                            ("down-up second-max", "Dup", "Ddown"))
    ]
    # The Euler-number series check leads, the refined ones follow the theorem chain.
    return series_reports[:1] + enum_reports + partition_reports + [
        _pairwise_report(
            "odd-degree min-max symmetry", "enumeration", "enumeration",
            range(3, max_n + 1, 2), "Ene = Enw",
            lambda n: table(n).ene, lambda n: table(n).enw,
        ),
        _theorem_report(max_n, ee),
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


def _raised(witness: str, exc: Exception) -> str:
    return f"{witness} raised {type(exc).__name__}: {exc}"


@dataclass
class _DegreeResult:
    """What one slice of one degree found; witnesses in enumeration order."""

    fixed: list[str] = field(default_factory=list)
    involution_bad: list[str] = field(default_factory=list)
    smu_bad: list[str] = field(default_factory=list)
    lefts: int = 0
    maxmin_bad: list[str] = field(default_factory=list)
    images: list[tuple[int, ...]] = field(default_factory=list)
    inverse_bad: list[str] = field(default_factory=list)

    def absorb(self, later: "_DegreeResult") -> None:
        """Append the results of the slice that follows this one."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(later, f.name))


def _check_unit(
    unit: tuple[int, Sequence[perm.Permutation], Sequence[perm.Permutation]],
) -> _DegreeResult:
    """Run every per-permutation check on one unit: a degree n and one
    slice each of its second-max-upper and max-min permutations.

    A map that raises on a permutation records that permutation as a
    failure, with the exception in its witness.
    """
    n, smu, maxmin = unit
    r = _DegreeResult()
    for p in smu:
        try:
            q = bij.swap_top_two(p)
            if q == p:
                r.fixed.append(p.to_text())
            if (bij.swap_top_two(q) != p
                    or perm.classify(q).secondmax is not perm.SecondMaxKind.UPPER):
                r.involution_bad.append(p.to_text())
        except Exception as exc:
            r.involution_bad.append(_raised(p.to_text(), exc))
        if p.position_of(n - 1) > p.position_of(n):
            continue
        r.lefts += 1
        try:
            if bij.compose_smu(bij.decompose_smu(p), n) != p:
                r.smu_bad.append(p.to_text())
        except Exception as exc:
            r.smu_bad.append(_raised(p.to_text(), exc))
    for p in maxmin:
        try:
            if bij.compose_maxmin(bij.decompose_maxmin(p), n) != p:
                r.maxmin_bad.append(p.to_text())
        except Exception as exc:
            r.maxmin_bad.append(_raised(p.to_text(), exc))
        for side in (0, 1):
            try:
                q = bij.maxmin_to_smu(p, side)
                r.images.append(q.values)
                if bij.smu_to_maxmin(q) != (p, side):
                    r.inverse_bad.append(f"{p.to_text()} with side {side}")
            except Exception as exc:
                r.inverse_bad.append(_raised(f"{p.to_text()} with side {side}", exc))
    return r


def _slices(items: Sequence[perm.Permutation], count: int) -> list[Sequence[perm.Permutation]]:
    """`items` cut into `count` contiguous slices of near-equal length."""
    size = len(items)
    return [items[i * size // count:(i + 1) * size // count] for i in range(count)]


def bijection_checks(max_n: int = 8) -> list[VerifyReport]:
    """Exhaustive checks of the involution, the splittings and the doubling map.

    Every count entry compares an observed failure or cardinality
    against its expected value, degree by degree up to max_n.  A failing
    failure count names its first bad permutation in the entry's note;
    a map that raises counts as a failure, and the note carries the
    exception.

    The per-permutation work of each degree is cut into contiguous
    slices, one per CPU this process may run on, and slice i of every
    degree is dealt to shard i (see
    :func:`euler_refine.workers.map_dealt`).  The shards run at the same
    time: this process works one, forked workers the others, and a
    shard whose worker is lost is checked again in this process.  With
    one CPU nothing is forked.  The slices' results are merged in
    enumeration order, so the reports do not depend on the CPU count.
    """
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    degrees = range(2, max_n + 1)
    smu_sets = {}
    maxmin_sets = {}
    for n in degrees:
        smu, maxmin = [], []
        for p in perm.enumerate_alternating(n, perm.AltKind.UP_DOWN):
            c = perm.classify(p)
            if c.secondmax is perm.SecondMaxKind.UPPER:
                smu.append(p)
            if n % 2 == 0 and c.minmax is perm.MinMaxKind.MAX_MIN:
                maxmin.append(p)
        smu_sets[n], maxmin_sets[n] = smu, maxmin

    count = max(1, min(workers.cpu_count(), len(smu_sets[max_n])))
    units = [(n, smu, maxmin) for n in degrees
             for smu, maxmin in zip(_slices(smu_sets[n], count), _slices(maxmin_sets[n], count))]
    results = {n: _DegreeResult() for n in degrees}
    for (n, _, _), part in zip(units, workers.map_dealt(_check_unit, units, count)):
        results[n].absorb(part)

    involution = VerifyReport("swap_top_two involution", "enumeration", "enumeration")
    smu_roundtrip = VerifyReport("second-max-upper split round trip", "enumeration", "enumeration")
    for n in degrees:
        r = results[n]
        involution.entries.append(_failure_count(n, "fixed points", r.fixed))
        involution.entries.append(_failure_count(n, "involution violations", r.involution_bad))
        smu_roundtrip.entries.append(_failure_count(n, "round-trip failures", r.smu_bad))
        smu_roundtrip.entries.append(
            CheckEntry(n, "left-oriented half", 2 * r.lefts, len(smu_sets[n]))
        )

    maxmin_roundtrip = VerifyReport("max-min split round trip", "enumeration", "enumeration")
    doubling = VerifyReport("doubling map bijectivity", "enumeration", "enumeration")
    for n in range(2, max_n + 1, 2):
        r = results[n]
        maxmin_roundtrip.entries.append(_failure_count(n, "round-trip failures", r.maxmin_bad))
        images = set(r.images)
        doubling.entries.append(CheckEntry(n, "image size", len(images), 2 * len(maxmin_sets[n])))
        doubling.entries.append(
            CheckEntry(
                n,
                "image = second-max-upper set",
                sorted(images),
                sorted(p.values for p in smu_sets[n]),
            )
        )
        doubling.entries.append(_failure_count(n, "inverse round-trip failures", r.inverse_bad))

    return [involution, smu_roundtrip, maxmin_roundtrip, doubling]

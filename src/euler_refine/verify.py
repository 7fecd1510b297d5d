"""Cross-route verification of the counting identities.

Each identity is checked by comparing two independently computed sides
(enumeration, closed formula or recurrence, series coefficients) and
recorded as a :class:`VerifyReport`.  Exceptions raised while computing
a side become failed entries rather than crashes, so a corrupted input
sequence flags every dependent identity instead of aborting the run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
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


def _raised(witness: str, exc: Exception) -> str:
    return f"{witness} raised {type(exc).__name__}: {exc}"


@dataclass
class _DegreeResult:
    """What one shard of one degree found; witnesses in enumeration order."""

    fixed: list[str] = field(default_factory=list)
    involution_bad: list[str] = field(default_factory=list)
    smu_bad: list[str] = field(default_factory=list)
    lefts: int = 0
    maxmin_bad: list[str] = field(default_factory=list)
    images: list[tuple[int, ...]] = field(default_factory=list)
    inverse_bad: list[str] = field(default_factory=list)

    def absorb(self, later: "_DegreeResult") -> None:
        """Append the results of the shard that follows this one."""
        self.fixed += later.fixed
        self.involution_bad += later.involution_bad
        self.smu_bad += later.smu_bad
        self.lefts += later.lefts
        self.maxmin_bad += later.maxmin_bad
        self.images += later.images
        self.inverse_bad += later.inverse_bad


# One contiguous slice of each degree's second-max-upper and max-min lists.
_Shard = Sequence[tuple[int, Sequence[perm.Permutation], Sequence[perm.Permutation]]]


def _check_shard(shard: _Shard) -> list[_DegreeResult]:
    """Run every per-permutation check on one shard.

    A map that raises on a permutation records that permutation as a
    failure, with the exception in its witness.
    """
    results = []
    for n, smu, maxmin in shard:
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
        results.append(r)
    return results


def _unchecked_shard(shard: _Shard, reason: str) -> list[_DegreeResult]:
    """Results of a shard whose worker returned none: each of its
    permutations fails every check it takes part in."""
    results = []
    for _, smu, maxmin in shard:
        smu_texts = [f"{p.to_text()} unchecked: {reason}" for p in smu]
        maxmin_texts = [f"{p.to_text()} unchecked: {reason}" for p in maxmin]
        results.append(_DegreeResult(
            involution_bad=smu_texts, smu_bad=smu_texts,
            maxmin_bad=maxmin_texts, inverse_bad=maxmin_texts,
        ))
    return results


def _shard_worker(shard: _Shard, sender) -> None:
    """Forked entry point: send the shard's results, or why there are none."""
    try:
        sender.send(_check_shard(shard))
    except Exception as exc:
        sender.send(f"the worker raised {type(exc).__name__}: {exc}")


def _run_shards(shards: Sequence[_Shard]) -> list[list[_DegreeResult]]:
    """`_check_shard` of every shard, in shard order.

    The last shard runs in this process, every other one in a forked
    worker, all at the same time.  A worker that returns no results
    leaves its shard unchecked, which fails its permutations.
    """
    if len(shards) == 1:
        return [_check_shard(shards[0])]
    import multiprocessing

    context = multiprocessing.get_context("fork")
    workers = []
    try:
        for shard in shards[:-1]:
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(target=_shard_worker, args=(shard, sender), daemon=True)
            process.start()
            sender.close()
            workers.append((process, receiver))
        own = _check_shard(shards[-1])
        results = []
        for shard, (process, receiver) in zip(shards, workers):
            try:
                result = receiver.recv()
            except Exception:
                result = None
            process.join()
            if isinstance(result, list) and process.exitcode == 0:
                results.append(result)
                continue
            if not isinstance(result, str):
                result = (f"the worker exited with code {process.exitcode} "
                          "before returning its results")
            results.append(_unchecked_shard(shard, result))
    finally:
        for process, receiver in workers:
            receiver.close()
            if process.is_alive():
                process.kill()
            process.join()
    return results + [own]


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
    shards, one per CPU this process may run on, and the shards run at
    the same time: this process works one, forked workers the others.
    With one CPU nothing is forked.  The shards' results are merged in
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

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    count = max(1, min(cpus, len(smu_sets[max_n])))
    shards = [[] for _ in range(count)]
    for n in degrees:
        slices = zip(_slices(smu_sets[n], count), _slices(maxmin_sets[n], count))
        for shard, (smu, maxmin) in zip(shards, slices):
            shard.append((n, smu, maxmin))
    results = {n: _DegreeResult() for n in degrees}
    for shard_results in _run_shards(shards):
        for n, part in zip(degrees, shard_results):
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

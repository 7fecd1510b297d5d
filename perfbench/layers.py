"""Spans and counts around calls into the euler_refine layers, applied from outside.

:func:`install` replaces the public entry points of each layer module
with wrappers that report to a :class:`Tracer`, and patches the names
other modules imported directly (``cli.run_verification``,
``cli.bijection_checks``, ``bij.classify``) so calls made through them
are seen too.  Apart from the ``enumerate_alternating`` generator,
functions not listed in :data:`SPANS` are not wrapped; their time
counts toward the span that called them.

Per-item functions (``classify``, the bijection maps, each resumption of
the enumeration generator) run hundreds of thousands of times, so the
tracer keeps no per-call records: it aggregates calls, inclusive time,
self time, and time per (caller, callee) pair in memory.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter
from typing import Callable

# Wrapped functions per layer module.  `report` is folded into `verify`.
SPANS: dict[str, tuple[str, ...]] = {
    "perm": ("count_refinements", "classify"),
    "seq": ("euler_numbers", "e_up_formula", "e_ne_nw_pair", "e_down_recurrence",
            "theorem_check"),
    "series": ("sec_egf", "tan_egf", "egf_mul", "egf_reciprocal", "egf_add",
               "extract_counts", "ene_egf", "enw_egf", "eup_egf", "edown_egf"),
    "bij": ("swap_top_two", "decompose_smu", "decompose_maxmin", "compose_smu",
            "compose_maxmin", "maxmin_to_smu", "smu_to_maxmin"),
    "verify": ("run_verification", "bijection_checks"),
    "cli": ("main",),
}
# Names bound by `from .x import y`, patched alongside their home module.
IMPORTED = {"cli": ("verify", ("run_verification", "bijection_checks")),
            "bij": ("perm", ("classify",))}


class Stat:
    """Aggregate of one span name; `total` counts outermost activations only."""

    __slots__ = ("name", "calls", "total", "self_s", "open")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.total = self.self_s = 0.0
        self.open = 0


class Tracer:
    """Aggregated spans.  Self time is a span's duration minus its child spans."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.edges: Counter = Counter()  # (caller, callee) Stat pair -> callee time
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [stat, child seconds, start]

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat(name))

    def begin(self, stat: Stat) -> list:
        stat.open += 1
        frame = [stat, 0.0, perf_counter()]
        self._stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        duration = perf_counter() - frame[2]
        stack = self._stack
        stack.pop()
        stat = frame[0]
        stat.open -= 1
        stat.calls += 1
        stat.self_s += duration - frame[1]
        if not stat.open:
            stat.total += duration
        if stack:
            parent = stack[-1]
            parent[1] += duration
            self.edges[parent[0], stat] += duration

    def edge(self, caller: str, callee: str) -> float:
        return self.edges[self.stat(caller), self.stat(callee)]


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    stat, begin, end = tracer.stat(name), tracer.begin, tracer.end

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = begin(stat)
        try:
            return fn(*args, **kwargs)
        finally:
            end(frame)
    return traced


def _wrap_generator(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Each resumption is one span and each item yielded one ``perm.leaves``."""
    stat, begin, end = tracer.stat(name), tracer.begin, tracer.end
    done = object()

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        gen = fn(*args, **kwargs)
        leaves = 0
        try:
            while True:
                frame = begin(stat)
                try:
                    item = next(gen, done)
                finally:
                    end(frame)
                if item is done:
                    return
                leaves += 1
                yield item
        finally:
            tracer.counts["perm.leaves"] += leaves
    return traced


def _wrap_checks(tracer: Tracer, fn: Callable) -> Callable:
    """Count the check entries a verify entry point returns."""
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        reports = fn(*args, **kwargs)
        for report in reports:
            tracer.counts["verify.checks"] += len(report.entries)
            tracer.counts["verify.checks_failed"] += len(report.failures())
        return reports
    return counted


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer entry point; returns a function that undoes it."""
    from euler_refine import bij, cli, perm, seq, series, verify

    modules = {"perm": perm, "seq": seq, "series": series, "bij": bij,
               "verify": verify, "cli": cli}
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, value) -> None:
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    for layer, names in SPANS.items():
        for fn_name in names:
            fn = getattr(modules[layer], fn_name)
            wrapped = _wrap(tracer, f"{layer}.{fn_name}", fn)
            if layer == "verify":
                wrapped = _wrap_checks(tracer, wrapped)
            patch(modules[layer], fn_name, wrapped)
    patch(perm, "enumerate_alternating", _wrap_generator(
        tracer, "perm.enumerate_alternating", perm.enumerate_alternating))
    for importer, (home, names) in IMPORTED.items():
        for fn_name in names:
            patch(modules[importer], fn_name, getattr(modules[home], fn_name))

    built, init = tracer.stat("perm.Permutation"), perm.Permutation.__post_init__

    def count_built(self) -> None:
        built.calls += 1
        init(self)

    patch(perm.Permutation, "__post_init__", count_built)

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


def span_table(tracer: Tracer) -> str:
    """Calls, inclusive and self seconds of every span, slowest first."""
    rows = sorted((s for s in tracer.stats.values() if s.calls), key=lambda s: -s.total)
    lines = [f"{'span':34} {'calls':>9} {'total_s':>9} {'self_s':>9}"]
    lines += [f"{s.name:34} {s.calls:9d} {s.total:9.4f} {s.self_s:9.4f}" for s in rows]
    return "\n".join(lines)


def metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass (0 for a layer it did not reach)."""
    stat, counts = tracer.stat, tracer.counts

    def total(*names: str) -> float:
        return sum(stat(name).total for name in names)

    def calls(*names: str) -> int:
        return sum(stat(name).calls for name in names)

    leaves = counts["perm.leaves"]
    classify_calls = calls("perm.classify")
    return {
        # DFS time: count_refinements with the classify calls it made excluded.
        "perm.count_refinements_self_s": total("perm.count_refinements")
            - tracer.edge("perm.count_refinements", "perm.classify"),
        "perm.leaves": leaves,
        "perm.classify_s": total("perm.classify"),
        "perm.classify_calls": classify_calls,
        "perm.classify_per_leaf": classify_calls / leaves if leaves else 0.0,
        "perm.permutations_built": calls("perm.Permutation"),
        "perm.enumerate_alternating_s": total("perm.enumerate_alternating"),
        "seq.euler_numbers_s": total("seq.euler_numbers"),
        "seq.e_up_formula_s": total("seq.e_up_formula"),
        "seq.e_ne_nw_pair_s": total("seq.e_ne_nw_pair"),
        "seq.e_down_recurrence_s": total("seq.e_down_recurrence"),
        "seq.theorem_check_s": total("seq.theorem_check"),
        "seq.calls": calls(*(f"seq.{n}" for n in SPANS["seq"])),
        "series.sec_egf_s": total("series.sec_egf"),
        "series.tan_egf_s": total("series.tan_egf"),
        "series.egf_mul_s": total("series.egf_mul"),
        "series.egf_mul_calls": calls("series.egf_mul"),
        "series.egf_reciprocal_s": total("series.egf_reciprocal"),
        "series.refined_egf_s": total(*(f"series.{n}_egf" for n in ("ene", "enw", "eup", "edown"))),
        "series.sec_egf_calls": calls("series.sec_egf"),
        "series.extract_counts_s": total("series.extract_counts"),
        "bij.swap_top_two_s": total("bij.swap_top_two"),
        "bij.decompose_s": total("bij.decompose_smu", "bij.decompose_maxmin"),
        "bij.compose_s": total("bij.compose_smu", "bij.compose_maxmin"),
        "bij.maxmin_to_smu_s": total("bij.maxmin_to_smu"),
        "bij.smu_to_maxmin_s": total("bij.smu_to_maxmin"),
        "bij.maps": calls(*(f"bij.{n}" for n in SPANS["bij"])),
        "verify.run_verification_self_s": stat("verify.run_verification").self_s,
        "verify.bijection_checks_self_s": stat("verify.bijection_checks").self_s,
        "verify.checks": counts["verify.checks"],
        "verify.checks_failed": counts["verify.checks_failed"],
        "cli.self_s": stat("cli.main").self_s,
    }

"""Exact enumeration and cross-verification of alternating-permutation
refinements of the Euler (secant and tangent) numbers.

Four independent routes to every count: brute-force enumeration
(:mod:`~euler_refine.perm`), convolution formulas and recurrences
(:mod:`~euler_refine.seq`), exact truncated series over integer counts
(:mod:`~euler_refine.series`), and explicit bijections
(:mod:`~euler_refine.bij`).  :mod:`~euler_refine.verify` compares them
all; :mod:`~euler_refine.cli` is the command-line front end.

Importing the package loads none of these modules.  Each name in
``__all__`` is looked up in its home module on first access, and a
submodule loads when it is first named (PEP 562), so a command loads
only the modules it runs.
"""

import importlib

# Each module and the public names the package takes from it.
_EXPORTS = {
    "bij": (
        "Decomposition", "compose_maxmin", "compose_smu", "decompose_maxmin",
        "decompose_smu", "maxmin_to_smu", "smu_to_maxmin", "swap_top_two",
    ),
    "perm": (
        "AltKind", "Classification", "MinMaxKind", "Permutation", "SecondMaxKind",
        "classify", "count_refinements", "enumerate_alternating",
    ),
    "report": ("CheckEntry", "CountTable", "VerifyReport"),
    "seq": (
        "e_down_recurrence", "e_ne_formula", "e_ne_nw_pair", "e_nw_formula",
        "e_up_formula", "e_up_terms", "euler_numbers", "theorem_check",
    ),
    "series": (
        "TruncatedEGF", "cos_egf", "ddown_egf", "dup_egf", "edown_egf", "egf_add", "egf_mul",
        "egf_reciprocal", "ene_egf", "enw_egf", "eup_egf", "extract_counts", "one_egf",
        "sec_egf", "sin_egf", "tan_egf",
    ),
    "verify": ("bijection_checks", "run_verification"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "workers")

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})

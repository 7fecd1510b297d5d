"""Exact enumeration and cross-verification of alternating-permutation
refinements of the Euler (secant and tangent) numbers.

Four independent routes to every count: brute-force enumeration
(:mod:`~euler_refine.perm`), convolution formulas and recurrences
(:mod:`~euler_refine.seq`), exact truncated series over integer counts
(:mod:`~euler_refine.series`), and explicit bijections
(:mod:`~euler_refine.bij`).  :mod:`~euler_refine.verify` compares them
all; :mod:`~euler_refine.cli` is the command-line front end.
"""

from .bij import (
    Decomposition,
    compose_maxmin,
    compose_smu,
    decompose_maxmin,
    decompose_smu,
    maxmin_to_smu,
    smu_to_maxmin,
    swap_top_two,
)
from .perm import (
    AltKind,
    Classification,
    MinMaxKind,
    Permutation,
    SecondMaxKind,
    classify,
    complement,
    count_refinements,
    enumerate_alternating,
    is_down_up,
    is_up_down,
)
from .report import CheckEntry, VerifyReport
from .seq import (
    CountTable,
    e_down_recurrence,
    e_ne_nw_pair,
    e_nw_formula,
    e_up_formula,
    e_up_terms,
    euler_numbers,
    theorem_check,
)
from .series import (
    TruncatedEGF,
    cos_egf,
    edown_egf,
    egf_add,
    egf_mul,
    egf_reciprocal,
    ene_egf,
    enw_egf,
    eup_egf,
    extract_counts,
    one_egf,
    sec_egf,
    sin_egf,
    tan_egf,
)
from .verify import bijection_checks, run_verification

__version__ = "0.1.0"

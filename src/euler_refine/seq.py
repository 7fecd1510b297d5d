"""Euler numbers and their refinements, computed without any enumeration.

The up-down permutation counts E_n come from the boustrophedon (Seidel)
triangle.  The refined sequences split E_n two ways:

* by the relative order of the values 1 and n: min-max (1 before n,
  written ``ene``) versus max-min (n before 1, written ``enw``);
* by where the second-largest value n-1 sits: in the upper row, i.e. at
  a peak position (``eup``), or not (``edown``).

``eup`` has a doubled three-block convolution formula and ``edown`` a
two-term recurrence.  At even degree ``ene`` and ``enw`` each have their
own three-block convolution; at odd degree each is E_n / 2.  All are
exact integer computations here.  Every function accepts an optional
precomputed Euler-number prefix so a shared prefix can be computed once
and reused.  The inner pair convolution of the three-block sums depends
only on the prefix, so it is tabulated once per prefix value: evaluating
every degree over a prefix of length N costs O(N^2) terms, not O(N^3).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import add, mul
from typing import NamedTuple, Optional, Sequence

from .report import CheckEntry, VerifyReport


class _CountFields(NamedTuple):
    n: int
    e: int
    ene: int
    enw: int
    eup: int
    edown: int
    dup: int
    ddown: int


class CountTable(_CountFields):
    """Per-degree record of the alternating-permutation counts.

    ``ene``/``enw`` and ``eup``/``edown`` refine the up-down count ``e``;
    ``dup``/``ddown`` refine the down-up count (same total).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> CountTable:
        self = super().__new__(cls, *args, **kwargs)
        if self.ene + self.enw != self.e:
            raise ValueError(f"min-max split {self.ene}+{self.enw} != {self.e}")
        if self.eup + self.edown != self.e:
            raise ValueError(f"second-max split {self.eup}+{self.edown} != {self.e}")
        if self.eup % 2 != 0:
            raise ValueError(f"second-max-upper count must be even, got {self.eup}")
        if self.dup + self.ddown != self.e:
            raise ValueError(f"down-up split {self.dup}+{self.ddown} != {self.e}")
        return self

    @classmethod
    def _make(cls, iterable) -> CountTable:
        # The namedtuple _make, which _replace calls, would skip the checks.
        return cls(*iterable)


def euler_numbers(n_max: int) -> list[int]:
    """E_0..E_{n_max} by the boustrophedon triangle.

    Row n is filled by T(n, k) = T(n, k-1) + T(n-1, n-k) with T(0, 0) = 1
    and T(n, 0) = 0; the row ends T(n, n) are the Euler numbers
    1, 1, 1, 2, 5, 16, 61, ...
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    out = [1]
    row = [1]
    for n in range(1, n_max + 1):
        prev = row
        row = [0]
        for k in range(1, n + 1):
            row.append(row[k - 1] + prev[n - k])
        out.append(row[n])
    return out


def _euler_prefix(upto: int, euler: Optional[Sequence[int]]) -> Sequence[int]:
    """Euler numbers through index `upto`, validating a caller-supplied prefix."""
    if euler is None:
        return euler_numbers(max(upto, 0))
    if len(euler) <= upto:
        raise ValueError(f"euler prefix too short: need index {upto}, have {len(euler) - 1}")
    return euler


def e_up_terms(
    n: int, euler: Optional[Sequence[int]] = None
) -> list[tuple[tuple[int, int, int], int]]:
    """Per-triple breakdown of the second-max-upper convolution at degree n.

    Returns ((s1, s2, s3), term) for every block-size triple with s1, s2
    odd and s1 + s2 + s3 = n - 2, where
    term = C(n-2, s1) C(n-2-s1, s2) E_{s1} E_{s2} E_{s3}.
    The full count is twice the sum of the terms.
    """
    if n < 2:
        raise ValueError("degree must be at least 2")
    ee = _euler_prefix(n - 2, euler) if n > 2 else []
    total = n - 2
    terms = []
    for s1 in range(1, total + 1, 2):
        for s2 in range(1, total - s1 + 1, 2):
            s3 = total - s1 - s2
            coeff = comb(total, s1) * comb(total - s1, s2)
            terms.append(((s1, s2, s3), coeff * ee[s1] * ee[s2] * ee[s3]))
    return terms


@lru_cache(maxsize=4)
def _pair_sums(prefix: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The pair convolutions P(m) = sum_{s2} C(m, s2) E_{s2} E_{m-s2} over the prefix.

    Returns (even, odd): the sums over even s2 and over odd s2, for every
    m with E_0..E_m in the prefix, in one pass over Pascal's triangle.
    Cached by the prefix's values, so a corrupted or mutated prefix gets
    its own table.
    """
    even, odd = [], []
    row = [1]
    for m in range(len(prefix)):
        if m:
            row = [1, *map(add, row, row[1:]), 1]
        head, tail = prefix[:m + 1], prefix[m::-1]  # tail[s2] is E_{m-s2}
        even.append(sum(map(mul, map(mul, row[0::2], head[0::2]), tail[0::2])))
        odd.append(sum(map(mul, map(mul, row[1::2], head[1::2]), tail[1::2])))
    return tuple(even), tuple(odd)


def _three_block(total: int, ee: Sequence[int], s1_start: int, s2_start: int) -> int:
    """Sum of C(total, s1) C(total-s1, s2) E_{s1} E_{s2} E_{s3} over s1 + s2 + s3 = total,
    s1 of the parity of s1_start and s2 of the parity of s2_start (each 0 or 1).

    Factored as an outer sum over s1 of C(total, s1) E_{s1} times the
    pair convolution P(total - s1), read from the one table
    :func:`_pair_sums` builds per prefix.  Each degree costs O(total)
    terms; the table costs O(N^2) once for a prefix of length N.
    """
    pair = _pair_sums(tuple(ee))[s2_start]
    return sum(comb(total, s1) * ee[s1] * pair[total - s1]
               for s1 in range(s1_start, total + 1, 2))


def e_up_formula(n: int, euler: Optional[Sequence[int]] = None) -> int:
    """Count of up-down permutations of degree n with n-1 at a peak position.

    Twice the sum of the :func:`e_up_terms` triples (s1, s2 odd).
    """
    if n < 2:
        raise ValueError("degree must be at least 2")
    ee = _euler_prefix(n - 2, euler) if n > 2 else []
    return 2 * _three_block(n - 2, ee, 1, 1)


def e_down_recurrence(n: int, euler: Optional[Sequence[int]] = None) -> int:
    """Count of up-down permutations of degree n with n-1 off the peaks.

    Such a permutation is forced to carry n-1 and n at one end (two ends
    for odd degree), so the count is E_{n-2} for even n and 2 E_{n-2}
    for odd n.
    """
    if n < 2:
        raise ValueError("degree must be at least 2")
    ee = _euler_prefix(n - 2, euler)
    return ee[n - 2] if n % 2 == 0 else 2 * ee[n - 2]


def _minmax_formula(n: int, euler: Optional[Sequence[int]], s1_start: int) -> int:
    """E_n / 2 at odd degree n; at even degree the three-block sum with s1
    of the parity of s1_start and s2 even, which makes s3 of that parity too."""
    if n < 2:
        raise ValueError("degree must be at least 2")
    if n % 2 == 1:
        ee = _euler_prefix(n, euler)
        if ee[n] % 2 != 0:
            raise ValueError(f"odd-degree count E_{n} = {ee[n]} is not even")
        return ee[n] // 2
    return _three_block(n - 2, _euler_prefix(n - 2, euler), s1_start, 0)


def e_ne_formula(n: int, euler: Optional[Sequence[int]] = None) -> int:
    """Min-max count of the up-down permutations of degree n.

    At even degree the value 1 sits at a valley before n at a peak, and
    the three blocks around them all have even sizes summing to n - 2:
    the count is sum C(n-2, s1) C(n-2-s1, s2) E_{s1} E_{s2} E_{s3} over
    even s1, s2, s3, the coefficient [x^{n-2}/(n-2)!] of sec^3.  At odd
    degree the min-max and max-min counts agree, so each is E_n / 2.
    """
    return _minmax_formula(n, euler, 0)


def e_nw_formula(n: int, euler: Optional[Sequence[int]] = None) -> int:
    """Max-min count of the up-down permutations of degree n.

    At even degree, splitting around the largest value (a peak) and the
    value 1 (a valley) leaves blocks of sizes (odd, even, odd) summing
    to n - 2: the count is sum C(n-2, s1) C(n-2-s1, s2) E_{s1} E_{s2}
    E_{s3}.  At odd degree it is E_n / 2, as the min-max count is.
    """
    return _minmax_formula(n, euler, 1)


def e_ne_nw_pair(n: int, euler: Optional[Sequence[int]] = None) -> tuple[int, int]:
    """(min-max, max-min) counts at degree n over up-down permutations:
    :func:`e_ne_formula` and :func:`e_nw_formula`."""
    return e_ne_formula(n, euler), e_nw_formula(n, euler)


def theorem_check(n_max: int, euler: Optional[Sequence[int]] = None) -> VerifyReport:
    """Verify the even-degree identity chain by formulas alone.

    For every even n <= n_max this checks eup = 2 enw, ene - enw =
    E_{n-2}, E_n = 2 enw + E_{n-2} and E_n = eup + edown, recording both
    sides of each.  Failures become report entries, never exceptions: a
    prefix `euler` too short for n_max gives the one failed entry
    (n_max, "theorem_check").  Only n_max below 2 raises.

    The first entry is an identity of the formula code and passes on any
    prefix: for odd m, C(m, s2) E_{s2} E_{m-s2} is unchanged by
    s2 -> m - s2, which swaps the parity of s2, so :func:`e_up_formula`
    is twice :func:`e_nw_formula` at every even n.  The other three test
    the prefix: ene and enw are separate convolutions.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    report = VerifyReport("even-degree theorem chain", "formula", "formula")
    try:
        ee = _euler_prefix(n_max, euler)
    except ValueError as exc:
        report.entries.append(CheckEntry(n_max, "theorem_check", note=str(exc)))
        return report
    for n in range(2, n_max + 1, 2):
        try:
            ene, enw = e_ne_nw_pair(n, ee)
            eup = e_up_formula(n, ee)
            edown = e_down_recurrence(n, ee)
        except ValueError as exc:
            report.entries.append(CheckEntry(n, "formula evaluation", note=str(exc)))
            continue
        report.entries.append(CheckEntry(n, "eup = 2*enw", eup, 2 * enw))
        report.entries.append(CheckEntry(n, "ene - enw = E_{n-2}", ene - enw, ee[n - 2]))
        report.entries.append(CheckEntry(n, "E_n = 2*enw + E_{n-2}", ee[n], 2 * enw + ee[n - 2]))
        report.entries.append(CheckEntry(n, "E_n = eup + edown", ee[n], eup + edown))
    return report

"""Exact truncated exponential generating functions over integer counts.

A counting series F(x) = sum_n a_n x^n/n! is stored by its counts
a_0..a_N themselves.  A product of two such series is the binomial
convolution (fg)_n = sum_k C(n, k) f_k g_{n-k}, and the reciprocal of a
series whose constant term is 1 or -1 (such as cos, giving sec) stays
integral, so the counting series never leave the integers.  A series
with non-integral counts (one built from arbitrary rational
coefficients) holds those counts as ``Fraction`` and the same
arithmetic applies to it.  The plain power-series coefficients
c_n = a_n/n! remain available as the read-only view ``coeffs``.

Everything here is exact: equality of series means equality of the
count vectors, with no tolerance anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import mul
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]


def _exact(x: Rational) -> Rational:
    """x as an int when it is integral, otherwise as a Fraction."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def _quotient(a: Rational, b: Rational) -> Rational:
    if type(a) is int and type(b) is int and a % b == 0:
        return a // b
    return _exact(Fraction(a) / b)


def _pascal_rows(n: int) -> Iterable[list[int]]:
    """Rows 0..n of Pascal's triangle, each [C(m, 0), ..., C(m, m)]."""
    row = [1]
    yield row
    for _ in range(n):
        row = [1, *map(int.__add__, row, row[1:]), 1]
        yield row


@dataclass(frozen=True, init=False)
class TruncatedEGF:
    """A series truncated at x^N, holding its exact counts a_0..a_N.

    ``TruncatedEGF(coeffs)`` builds the series from its power-series
    coefficients c_n = a_n/n!; :func:`egf_from_counts` builds it from
    the counts.
    """

    counts: tuple[Rational, ...]

    def __init__(self, coeffs: Iterable[Rational]) -> None:
        counts = []
        fact = 1
        for n, c in enumerate(coeffs):
            fact *= n or 1
            counts.append(_exact(Fraction(c) * fact))
        _init_counts(self, counts)

    @classmethod
    def _of_counts(cls, counts: Iterable[Rational]) -> "TruncatedEGF":
        f = object.__new__(cls)
        _init_counts(f, counts)
        return f

    @property
    def order(self) -> int:
        return len(self.counts) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-series coefficients c_n = a_n/n!."""
        out = []
        fact = 1
        for n, a in enumerate(self.counts):
            fact *= n or 1
            out.append(Fraction(a) / fact)
        return tuple(out)

    def __add__(self, other: "TruncatedEGF") -> "TruncatedEGF":
        return egf_add(self, other)

    def __mul__(self, other) -> "TruncatedEGF":
        if isinstance(other, TruncatedEGF):
            return egf_mul(self, other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other) -> "TruncatedEGF":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Rational) -> "TruncatedEGF":
        c = _exact(Fraction(c))
        return TruncatedEGF._of_counts(_exact(c * a) for a in self.counts)

    def to_json_dict(self) -> dict:
        """JSON form {"order": N, "a": [...]} with a_n as decimal strings."""
        return {"order": self.order, "a": [str(a) for a in extract_counts(self)]}


def _init_counts(f: TruncatedEGF, counts: Iterable[Rational]) -> None:
    counts = tuple(counts)
    if not counts:
        raise ValueError("a truncated series needs at least the constant term")
    object.__setattr__(f, "counts", counts)


def zero_egf(order: int) -> TruncatedEGF:
    return TruncatedEGF._of_counts((0,) * (order + 1))


def one_egf(order: int) -> TruncatedEGF:
    return TruncatedEGF._of_counts((1,) + (0,) * order)


def egf_from_coeffs(coeffs: Iterable[Rational]) -> TruncatedEGF:
    return TruncatedEGF(coeffs)


def egf_from_counts(counts: Sequence[Rational]) -> TruncatedEGF:
    """Build the series with a_n = counts[n], i.e. c_n = counts[n]/n!."""
    return TruncatedEGF._of_counts(_exact(Fraction(a)) for a in counts)


def egf_add(f: TruncatedEGF, g: TruncatedEGF) -> TruncatedEGF:
    if f.order != g.order:
        raise ValueError(f"order mismatch: {f.order} != {g.order}")
    return TruncatedEGF._of_counts(_exact(a + b) for a, b in zip(f.counts, g.counts))


def egf_mul(f: TruncatedEGF, g: TruncatedEGF) -> TruncatedEGF:
    """Binomial convolution (fg)_m = sum_i C(m, i) f_i g_{m-i}, truncated at the common order."""
    if f.order != g.order:
        raise ValueError(f"order mismatch: {f.order} != {g.order}")
    fa, ga = f.counts, g.counts
    out = []
    for m, row in enumerate(_pascal_rows(f.order)):
        out.append(_exact(sum(map(mul, map(mul, row, fa), ga[m::-1]))))
    return TruncatedEGF._of_counts(out)


def egf_reciprocal(f: TruncatedEGF) -> TruncatedEGF:
    """Multiplicative inverse up to the truncation order.

    Uses the triangular recurrence g_0 = 1/f_0,
    g_m = -(sum_{i=1..m} C(m, i) f_i g_{m-i}) / f_0, which stays integral
    when f_0 is 1 or -1.
    """
    fa = f.counts
    f0 = fa[0]
    if f0 == 0:
        raise ValueError("series with zero constant term has no reciprocal")
    tail = fa[1:]
    inv = [_quotient(1, f0)]
    for row in islice(_pascal_rows(f.order), 1, None):
        acc = sum(map(mul, map(mul, row[1:], tail), reversed(inv)))
        inv.append(_quotient(-acc, f0))
    return TruncatedEGF._of_counts(inv)


def sin_egf(order: int) -> TruncatedEGF:
    if order < 0:
        raise ValueError("order must be nonnegative")
    return TruncatedEGF._of_counts(
        0 if m % 2 == 0 else (-1) ** ((m - 1) // 2) for m in range(order + 1)
    )


def cos_egf(order: int) -> TruncatedEGF:
    if order < 0:
        raise ValueError("order must be nonnegative")
    return TruncatedEGF._of_counts(
        (-1) ** (m // 2) if m % 2 == 0 else 0 for m in range(order + 1)
    )


def sec_egf(order: int) -> TruncatedEGF:
    return egf_reciprocal(cos_egf(order))


def tan_egf(order: int) -> TruncatedEGF:
    return egf_mul(sin_egf(order), sec_egf(order))


def extract_counts(f: TruncatedEGF) -> list[int]:
    """Read off (a_0, ..., a_N), requiring each to be integral."""
    for n, a in enumerate(f.counts):
        if type(a) is not int:
            raise ValueError(f"coefficient of x^{n} gives non-integral count {a}")
    return list(f.counts)


# Named series for the refined counting sequences, each shifted two steps:
# the [x^n] coefficient carries the count at degree n + 2.

def ene_egf(order: int) -> TruncatedEGF:
    """Series for min-max counts: sec(x)^2 (sec(x) + tan(x))."""
    sec, tan = sec_egf(order), tan_egf(order)
    return sec * sec * (sec + tan)


def enw_egf(order: int) -> TruncatedEGF:
    """Series for max-min counts: sec(x) tan(x) (sec(x) + tan(x))."""
    sec, tan = sec_egf(order), tan_egf(order)
    return sec * tan * (sec + tan)


def eup_egf(order: int) -> TruncatedEGF:
    """Series for second-max-upper counts: 2 tan(x)^2 (sec(x) + tan(x))."""
    sec, tan = sec_egf(order), tan_egf(order)
    return 2 * tan * tan * (sec + tan)


def edown_egf(order: int) -> TruncatedEGF:
    """Series for second-max-lower counts: sec(x) + 2 tan(x)."""
    return sec_egf(order) + 2 * tan_egf(order)

"""Exact truncated exponential generating functions over integer counts.

A counting series F(x) = sum_n a_n x^n/n! is stored by its counts
a_0..a_N themselves.  A product of two such series is the binomial
convolution (fg)_n = sum_k C(n, k) f_k g_{n-k}, and the reciprocal of a
series whose constant term is 1 or -1 (such as cos, giving sec) stays
integral, so the counting series never leave the integers.  The plain
power-series coefficients c_n = a_n/n! remain available as the
read-only view ``coeffs``.

Everything here is exact: equality of series means equality of the
count vectors, with no tolerance anywhere.  Products and reciprocals read
their binomials from one Pascal triangle, kept for the process and grown
to the largest order asked for.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import mul
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from fractions import Fraction


_ROWS: list[tuple[int, ...]] = [(1,)]


def _pascal_rows(n: int) -> list[tuple[int, ...]]:
    """Rows 0..n of Pascal's triangle, each (C(m, 0), ..., C(m, m)), from the shared triangle."""
    for _ in range(len(_ROWS), n + 1):
        row = _ROWS[-1]
        _ROWS.append((1, *map(int.__add__, row, row[1:]), 1))
    return _ROWS[:n + 1]


class TruncatedEGF:
    """A series truncated at x^N, holding its integer counts a_0..a_N.

    ``TruncatedEGF(counts)`` takes the counts as any iterable of ints.
    An instance is immutable: assigning to ``counts`` raises
    AttributeError.
    """

    __slots__ = ("counts",)
    counts: tuple[int, ...]

    def __init__(self, counts: Iterable[int]) -> None:
        counts = tuple(counts)
        if not counts:
            raise ValueError("a truncated series needs at least the constant term")
        for n, a in enumerate(counts):
            if type(a) is not int:
                raise ValueError(f"the count of x^{n} must be an int, got {a!r}")
        object.__setattr__(self, "counts", counts)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return TruncatedEGF, (self.counts,)

    def __repr__(self) -> str:
        return f"TruncatedEGF(counts={self.counts!r})"

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self.counts == other.counts
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.counts,))

    @property
    def order(self) -> int:
        return len(self.counts) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-series coefficients c_n = a_n/n!."""
        from fractions import Fraction

        factorials = accumulate(range(1, len(self.counts)), mul, initial=1)
        return tuple(map(Fraction, self.counts, factorials))

    def __add__(self, other) -> "TruncatedEGF":
        if isinstance(other, TruncatedEGF):
            return egf_add(self, other)
        return NotImplemented

    def __mul__(self, other) -> "TruncatedEGF":
        if isinstance(other, TruncatedEGF):
            return egf_mul(self, other)
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, c: int) -> "TruncatedEGF":
        return TruncatedEGF(c * a for a in self.counts)


def one_egf(order: int) -> TruncatedEGF:
    return TruncatedEGF((1,) + (0,) * order)


def egf_add(f: TruncatedEGF, g: TruncatedEGF) -> TruncatedEGF:
    if f.order != g.order:
        raise ValueError(f"order mismatch: {f.order} != {g.order}")
    return TruncatedEGF(a + b for a, b in zip(f.counts, g.counts))


def egf_mul(f: TruncatedEGF, g: TruncatedEGF) -> TruncatedEGF:
    """Binomial convolution (fg)_m = sum_i C(m, i) f_i g_{m-i}, truncated at the common order."""
    if f.order != g.order:
        raise ValueError(f"order mismatch: {f.order} != {g.order}")
    fa, ga = f.counts, g.counts
    return TruncatedEGF(sum(map(mul, map(mul, fa, ga[m::-1]), row))
                        for m, row in enumerate(_pascal_rows(f.order)))


def egf_reciprocal(f: TruncatedEGF) -> TruncatedEGF:
    """Multiplicative inverse up to the truncation order.

    Uses the triangular recurrence g_0 = 1/f_0,
    g_m = -(sum_{j=0..m-1} C(m, j) g_j f_{m-j}) / f_0.  Dividing by f_0
    is multiplying by it, because f_0 must be 1 or -1.
    """
    fa = f.counts
    f0 = fa[0]
    if f0 not in (1, -1):
        raise ValueError(f"only a series with constant term 1 or -1 has an integral "
                         f"reciprocal, got constant term {f0}")
    inv = [f0]
    for m, row in enumerate(_pascal_rows(f.order)[1:], 1):
        inv.append(-f0 * sum(map(mul, map(mul, inv, fa[m:0:-1]), row)))
    return TruncatedEGF(inv)


def sin_egf(order: int) -> TruncatedEGF:
    if order < 0:
        raise ValueError("order must be nonnegative")
    return TruncatedEGF(
        0 if m % 2 == 0 else (-1) ** ((m - 1) // 2) for m in range(order + 1)
    )


def cos_egf(order: int) -> TruncatedEGF:
    if order < 0:
        raise ValueError("order must be nonnegative")
    return TruncatedEGF(
        (-1) ** (m // 2) if m % 2 == 0 else 0 for m in range(order + 1)
    )


# sec and tan are cached per order: every named series below is built from
# them, and TruncatedEGF.__setattr__ refuses every assignment, so one instance
# can be shared.
@lru_cache(maxsize=8)
def sec_egf(order: int) -> TruncatedEGF:
    return egf_reciprocal(cos_egf(order))


@lru_cache(maxsize=8)
def tan_egf(order: int) -> TruncatedEGF:
    return egf_mul(sin_egf(order), sec_egf(order))


def extract_counts(f: TruncatedEGF) -> list[int]:
    """Read off (a_0, ..., a_N)."""
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


def ddown_egf(order: int) -> TruncatedEGF:
    """Series for down-up counts with n-1 off the peaks: sec(x).  n-1 cannot be
    an interior valley (only n exceeds it), so it is an end valley next to n:
    at odd n both ends are peaks (count 0), and at even n deleting n-1 and n
    leaves an alternating permutation of degree n-2 (count E_{n-2})."""
    return sec_egf(order)


def dup_egf(order: int) -> TruncatedEGF:
    """Series for down-up counts with n-1 at a peak: 2 sec(x) tan(x) (sec(x) + tan(x)).
    Dup = E - Ddown, and E shifted two steps is (sec + tan)'' = sec (sec + tan)^2,
    which less sec is 2 sec tan (sec + tan), as sec^2 - 1 = tan^2."""
    sec, tan = sec_egf(order), tan_egf(order)
    return 2 * sec * tan * (sec + tan)

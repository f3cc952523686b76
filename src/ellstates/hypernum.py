"""Exact arithmetic in the lexicographic unit interval.

Values are formal sums ``r + eps*s`` with rational ``r`` (the standard part,
kept inside [0, 1]) and rational ``s`` (the infinitesimal coefficient),
ordered lexicographically.  ``eps`` is never materialised as a number: it is
the positional convention of the second component.

The interval carries MV operations::

    x (+) y = (x + y) /\\ (1, 0)       componentwise sum, lexicographic meet
    x (*) y = (x + y - (1, 0)) \\/ (0, 0)
    neg x   = (1, 0) - x

Coefficients are :class:`fractions.Fraction`, so every comparison and
equality below is exact; there is no floating point anywhere in this module.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from typing import Union

RationalLike = Union[Fraction, int, str]


class Ordering(Enum):
    LT = -1
    EQ = 0
    GT = 1


def _rat(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def parse_exact(text: str) -> Fraction:
    """The Fraction that ``text`` writes, such as "7/3" or "1.5e3".  A decimal
    exponent above Python's digit limit for integer literals in magnitude is
    refused, since its power of ten would take unbounded time to build.  An
    integer or a quotient of integers is read through int, twice as fast."""
    num, slash, den = text.partition("/")
    if num.removeprefix("-").isdecimal() and (den.isdecimal() or not slash):
        return Fraction(int(num), int(den or 1))
    if "e" in text or "E" in text:
        exponent, limit = re.search(r"[eE]([-+]?[\d_]+)\s*\Z", text), sys.get_int_max_str_digits()
        if exponent and abs(int(exponent[1])) > limit:
            raise ValueError(f"decimal exponent above {limit} in magnitude: {text[:40]!r}")
    return Fraction(text)


def format_exact(q: Fraction) -> str:
    """``str(q)``, or past Python's digit limit for integer strings the same
    digits written through Decimal, which is exact and has no such limit."""
    try:
        return str(q)
    except ValueError:
        num = str(Decimal(q.numerator))
        return num if q.denominator == 1 else f"{num}/{Decimal(q.denominator)}"


def interval_defect(std: Fraction, inf: Fraction) -> str:
    """Why the pair ``std + eps*inf`` lies outside the interval, or "" when
    it lies inside; read from numerators, faster than Fraction comparisons."""
    if not 0 <= std.numerator <= std.denominator:
        return f"standard part {format_exact(std)} outside [0, 1]"
    if std.numerator == 0 and inf.numerator < 0:
        return f"0 + eps*{format_exact(inf)} lies below (0, 0)"
    if std.numerator == std.denominator and inf.numerator > 0:
        return f"1 + eps*{format_exact(inf)} lies above (1, 0)"
    return ""


@dataclass(frozen=True, order=True)
class DualRational:
    """One element of the interval: ``std + eps*inf``.

    Membership in the interval [(0,0), (1,0)] of the lexicographic product
    is enforced at construction: the standard part lies in [0, 1], and the
    infinitesimal coefficient may not push the value below (0,0) or above
    (1,0) at the boundary.  The order is the dataclass one on the fields,
    (std, inf) as a tuple, which is the lexicographic order.
    """

    std: Fraction
    inf: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        defect = interval_defect(self.std, self.inf)
        if defect:
            raise ValueError(defect)

    def __str__(self) -> str:
        return format_dual(self)


DUAL_ZERO = DualRational(Fraction(0))
DUAL_ONE = DualRational(Fraction(1))


def dual(std: RationalLike, inf: RationalLike = 0) -> DualRational:
    """Convenience constructor accepting ints, fraction strings, Fractions."""
    return DualRational(_rat(std), _rat(inf))


def parts(x: DualRational) -> tuple[Fraction, Fraction]:
    """Project onto (standard part, infinitesimal coefficient)."""
    return (x.std, x.inf)


def lex_compare(x: DualRational, y: DualRational) -> Ordering:
    """The dataclass order of x and y, read from cross-multiplied numerators,
    standard part first, which is faster than comparing Fractions."""
    a, b = x.std, y.std
    lhs, rhs = a.numerator * b.denominator, b.numerator * a.denominator
    if lhs == rhs:
        a, b = x.inf, y.inf
        lhs, rhs = a.numerator * b.denominator, b.numerator * a.denominator
    return Ordering.EQ if lhs == rhs else Ordering.LT if lhs < rhs else Ordering.GT


def mv_oplus(x: DualRational, y: DualRational) -> DualRational:
    r = x.std + y.std
    s = x.inf + y.inf
    if (r, s) > (Fraction(1), Fraction(0)):
        return DUAL_ONE
    return DualRational(r, s)


def mv_otimes(x: DualRational, y: DualRational) -> DualRational:
    r = x.std + y.std - 1
    s = x.inf + y.inf
    if (r, s) < (Fraction(0), Fraction(0)):
        return DUAL_ZERO
    return DualRational(r, s)


def mv_neg(x: DualRational) -> DualRational:
    return DualRational(1 - x.std, -x.inf)


def format_dual(x: DualRational | tuple[Fraction, Fraction]) -> str:
    """Render as ``"r+es"`` with exact fraction strings, e.g. ``"1/2+e-3/4"``;
    also a raw (std, inf) pair, such as a sum that left the interval."""
    std, inf = parts(x) if isinstance(x, DualRational) else x
    return f"{format_exact(std)}+e{format_exact(inf)}"


def parse_dual(text: str) -> DualRational:
    """Inverse of :func:`format_dual`; the roundtrip is bit-exact."""
    head, sep, tail = text.partition("+e")
    if not sep or not head or not tail:
        raise ValueError(f"not a dual-rational literal: {text!r}")
    try:
        return DualRational(parse_exact(head), parse_exact(tail))
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc

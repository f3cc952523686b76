"""Exact arithmetic in the lexicographic unit interval.

Values are formal sums ``r + eps*s`` with rational ``r`` (the standard part,
kept inside [0, 1]) and rational ``s`` (the infinitesimal coefficient),
ordered lexicographically.  ``eps`` is never materialised as a number: it is
the positional convention of the second component.

The interval carries MV operations::

    x (+) y = (x + y) /\\ (1, 0)       componentwise sum, lexicographic meet
    x (*) y = (x + y - (1, 0)) \\/ (0, 0)
    neg x   = (1, 0) - x

A value is held as integers in one form: the numerators ``a`` of r and ``b``
of s over one denominator ``d > 0``, with gcd(a, b, d) = 1.  So every
comparison and equality below is exact integer arithmetic; there is no
floating point anywhere in this module.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from functools import total_ordering
from math import gcd
from typing import Union

RationalLike = Union[Fraction, int, str]


class Ordering(Enum):
    LT = -1
    EQ = 0
    GT = 1


# Read once: an Enum member is a class attribute lookup on every read.
_LT, _EQ, _GT = Ordering


def _rat(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def _literal(text: str) -> tuple[int, int]:
    """A numerator and positive denominator of what ``text`` writes, such as
    "7/3" or "1.5e3".  A decimal exponent above Python's digit limit for
    integer literals in magnitude is refused, since its power of ten would
    take unbounded time to build.  An integer or a quotient of integers with
    a nonzero denominator is read through int, twice as fast as Fraction."""
    num, slash, den = text.partition("/")
    if num.removeprefix("-").isdecimal() and (den.isdecimal() or not slash):
        n, d = int(num), int(den or 1)
        if d:
            return n, d
    if "e" in text or "E" in text:
        exponent, limit = re.search(r"[eE]([-+]?[\d_]+)\s*\Z", text), sys.get_int_max_str_digits()
        if exponent and abs(int(exponent[1])) > limit:
            raise ValueError(f"decimal exponent above {limit} in magnitude: {text[:40]!r}")
    q = Fraction(text)
    return q.numerator, q.denominator


def parse_exact(text: str) -> Fraction:
    """The Fraction that ``text`` writes (see _literal), with Fraction's errors."""
    return Fraction(*_literal(text))


def _ratio(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for den > 0, or past Python's digit limit for
    integer strings the same digits through Decimal, which has no such limit."""
    g = gcd(num, den)
    try:
        return f"{num // g}/{den // g}" if den != g else str(num // g)
    except ValueError:
        return f"{Decimal(num // g)}/{Decimal(den // g)}" if den != g else str(Decimal(num // g))


def format_exact(q: Fraction) -> str:
    """``str(q)``, also past Python's digit limit (see _ratio)."""
    return _ratio(q.numerator, q.denominator)


def _over(std: Fraction, inf: Fraction) -> tuple[int, int, int]:
    """The numerators of std and inf over one positive denominator, and it."""
    p, q = std.denominator, inf.denominator
    return std.numerator * q, inf.numerator * p, p * q


def _defect(a: int, b: int, d: int) -> str:
    """:func:`interval_defect` of ``(a + eps*b)/d``, for d > 0."""
    if not 0 <= a <= d:
        return f"standard part {_ratio(a, d)} outside [0, 1]"
    if a == 0 and b < 0:
        return f"0 + eps*{_ratio(b, d)} lies below (0, 0)"
    if a == d and b > 0:
        return f"1 + eps*{_ratio(b, d)} lies above (1, 0)"
    return ""


def interval_defect(std: Fraction, inf: Fraction) -> str:
    """Why the pair ``std + eps*inf`` lies outside the interval, or "" when
    it lies inside; read from integer numerators over one denominator."""
    return _defect(*_over(std, inf))


@total_ordering
class DualRational:
    """One element of the interval: ``std + eps*inf``.

    Held as integers ``(a, b, d)``, std = a/d and inf = b/d with d > 0 and
    gcd(a, b, d) = 1, the one form of the value, so ``==`` and ``hash`` read
    that tuple; ``std`` and ``inf`` are read-only Fraction views.  The order
    is lexicographic on (std, inf), one cross-multiplication.  Membership in
    the interval [(0,0), (1,0)] is enforced at construction: the standard
    part lies in [0, 1], and the infinitesimal coefficient may not push the
    value below (0,0) or above (1,0) at the boundary.
    """

    __slots__ = ("_key",)

    def __new__(cls, std: Fraction, inf: Fraction = Fraction(0)) -> DualRational:
        return _checked(*_over(std, inf))

    @property
    def std(self) -> Fraction:
        return Fraction(self._key[0], self._key[2])

    @property
    def inf(self) -> Fraction:
        return Fraction(self._key[1], self._key[2])

    def __eq__(self, other) -> bool:
        return self._key == other._key if isinstance(other, DualRational) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __lt__(self, other) -> bool:
        return lex_compare(self, other) is _LT if isinstance(other, DualRational) else NotImplemented

    def __repr__(self) -> str:
        return f"DualRational(std={self.std!r}, inf={self.inf!r})"

    def __str__(self) -> str:
        return format_dual(self)


def canonical(a: int, b: int, d: int) -> DualRational:
    """``(a + eps*b)/d``, for d > 0, with no interval check: the caller's, or
    the fact that the MV operations below stay in the interval."""
    g = gcd(a, b, d)
    x = object.__new__(DualRational)
    x._key = (a // g, b // g, d // g) if g > 1 else (a, b, d)
    return x


def _checked(a: int, b: int, d: int) -> DualRational:
    """:func:`canonical`, once the value is checked to lie in the interval."""
    defect = _defect(a, b, d)
    if defect:
        raise ValueError(defect)
    return canonical(a, b, d)


DUAL_ZERO = DualRational(Fraction(0))
DUAL_ONE = DualRational(Fraction(1))


def dual(std: RationalLike, inf: RationalLike = 0) -> DualRational:
    """Convenience constructor accepting ints, fraction strings, Fractions."""
    return DualRational(_rat(std), _rat(inf))


def parts(x: DualRational) -> tuple[Fraction, Fraction]:
    """Project onto (standard part, infinitesimal coefficient)."""
    return (x.std, x.inf)


def lex_compare(x: DualRational, y: DualRational) -> Ordering:
    """The order of x and y, read from one cross-multiplication."""
    (a, b, d), (c, e, f) = x._key, y._key
    lhs, rhs = (a * f, b * f), (c * d, e * d)
    return _EQ if lhs == rhs else _LT if lhs < rhs else _GT


def mv_oplus(x: DualRational, y: DualRational) -> DualRational:
    (a, b, d), (c, e, f) = x._key, y._key
    r, s, den = a * f + c * d, b * f + e * d, d * f
    return DUAL_ONE if (r, s) > (den, 0) else canonical(r, s, den)


def mv_otimes(x: DualRational, y: DualRational) -> DualRational:
    (a, b, d), (c, e, f) = x._key, y._key
    r, s, den = a * f + c * d - d * f, b * f + e * d, d * f
    return DUAL_ZERO if (r, s) < (0, 0) else canonical(r, s, den)


def mv_neg(x: DualRational) -> DualRational:
    a, b, d = x._key
    return canonical(d - a, -b, d)


def format_dual(x: DualRational | tuple[Fraction, Fraction]) -> str:
    """Render as ``"r+es"`` with exact fraction strings, e.g. ``"1/2+e-3/4"``;
    also a raw (std, inf) pair, such as a sum that left the interval."""
    a, b, d = x._key if isinstance(x, DualRational) else _over(*x)
    return f"{_ratio(a, d)}+e{_ratio(b, d)}"


def parse_dual(text: str) -> DualRational:
    """Inverse of :func:`format_dual`; the roundtrip is bit-exact.  Both parts
    are read as integers (see _literal), and the value is checked once."""
    head, sep, tail = text.partition("+e")
    if not sep or not head or not tail:
        raise ValueError(f"not a dual-rational literal: {text!r}")
    try:
        (a, p), (b, q) = _literal(head), _literal(tail)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc
    return _checked(a * q, b * p, p * q)

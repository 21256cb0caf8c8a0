"""Exact coefficient rings for functional values.

Two commutative unital rings with exact equality are provided:

* ``RationalRing`` — arbitrary-precision rationals (``fractions.Fraction``).
* ``TruncatedSeriesRing(M)`` — rational power series modulo ``X^(M+1)``,
  stored as coefficient tuples of length M+1.  An element is a unit iff its
  constant term is nonzero, and then the inverse is again a truncated series.

Both rings are Q-algebras (``scale`` divides exactly by any nonzero integer),
which is what the exponential/logarithm series require.

Besides ``add``/``mul``/``scale``, every ring used by the convolution kernel
has ``sum_products(terms)``: the sum of ``c * a * b`` over a list of
``(c, a, b)`` with c a positive integer and a, b ring elements, equal to the
fold of ``mul``, ``scale`` and ``add`` from ``zero`` (``zero`` for no terms).
Over the rationals it is one integer sum over the lcm of the term
denominators and one ``Fraction`` (one gcd), instead of a reduced
``Fraction`` per product and per partial sum.

Both rings are Q[X]/X^w, with w = 1 for the rationals and M + 1 for
``series:M``: ``width`` is w, the number of rational coordinates of an
element, and ``coordinates``/``from_coordinates`` convert an element to and
from them.  The evolution solver's ``Poly`` reads a ring only through these
and does its arithmetic on integer numerators.

``poly_products`` is the product of coefficient sequences for series modulo
X^(M+1) and formal series: each degree's products of nonzero coefficients are
one ``sum_products``.
"""

from __future__ import annotations

import operator
import sys
from collections import defaultdict
from fractions import Fraction
from math import lcm

from .errors import SIZE_BUDGET, NotInvertibleError, ParseError, ResourceLimitError

_ZERO = Fraction(0)
_ONE = Fraction(1)


class RationalRing:
    """The field of rationals."""

    key = "rational"
    has_rational_scaling = True
    width = 1

    zero = _ZERO
    one = _ONE

    @staticmethod
    def add(a: Fraction, b: Fraction) -> Fraction:
        return a + b

    @staticmethod
    def neg(a: Fraction) -> Fraction:
        return -a

    @staticmethod
    def mul(a: Fraction, b: Fraction) -> Fraction:
        return a * b

    @staticmethod
    def scale(a: Fraction, q: Fraction) -> Fraction:
        return a * q

    @staticmethod
    def sum_products(terms) -> Fraction:
        num, den = 0, 1
        for c, a, b in terms:
            na, da = a.as_integer_ratio()
            nb, db = b.as_integer_ratio()
            d = da * db
            if den % d:
                common = lcm(den, d)
                num *= common // den
                den = common
            num += c * na * nb * (den // d)
        return Fraction(num, den)

    is_zero = staticmethod(operator.not_)

    @staticmethod
    def coordinates(a: Fraction) -> tuple[Fraction]:
        return (a,)

    @staticmethod
    def from_coordinates(cs) -> Fraction:
        return cs[0]

    @staticmethod
    def is_unit(a: Fraction) -> bool:
        return a != 0

    @staticmethod
    def inv(a: Fraction) -> Fraction:
        if a == 0:
            raise NotInvertibleError("0 is not invertible in the rationals")
        return 1 / a

    @staticmethod
    def format_element(a: Fraction) -> str:
        return str(a)

    @staticmethod
    def parse_element(text: str) -> Fraction:
        try:
            return Fraction(text.strip())
        except (AttributeError, ValueError, ZeroDivisionError):  # not text, or not a rational
            raise ParseError(f"bad rational {text!r}", 0) from None

    def __repr__(self) -> str:
        return "RationalRing()"


RATIONAL = RationalRing()


class TruncatedSeriesRing:
    """Rational coefficients modulo X^(M+1); elements are tuples of length M+1."""

    has_rational_scaling = True

    def __init__(self, modulus_degree: int):
        if modulus_degree < 1:
            raise ValueError(f"series modulus degree must be >= 1, got {modulus_degree}")
        if modulus_degree >= SIZE_BUDGET:
            raise ResourceLimitError(f"series:{modulus_degree} exceeds {SIZE_BUDGET} terms")
        self.modulus_degree = modulus_degree
        self.width = modulus_degree + 1
        self.key = f"series:{modulus_degree}"
        self.zero = (_ZERO,) * (modulus_degree + 1)
        self.one = (_ONE,) + (_ZERO,) * modulus_degree
        self.x = (_ZERO, _ONE) + (_ZERO,) * (modulus_degree - 1)

    def element(self, coeffs) -> tuple[Fraction, ...]:
        cs = [Fraction(c) for c in coeffs][: self.modulus_degree + 1]
        cs += [_ZERO] * (self.modulus_degree + 1 - len(cs))
        return tuple(cs)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        return self.sum_products([(1, a, b)])

    def scale(self, a, q: Fraction):
        return tuple(x * q for x in a)

    def sum_products(self, terms):
        return tuple(poly_products(RATIONAL, terms, self.modulus_degree + 1))

    def is_zero(self, a) -> bool:
        return all(x == 0 for x in a)

    @staticmethod
    def coordinates(a) -> tuple[Fraction, ...]:
        return a

    @staticmethod
    def from_coordinates(cs) -> tuple[Fraction, ...]:
        return tuple(cs)

    def is_unit(self, a) -> bool:
        return a[0] != 0

    def inv(self, a):
        if a[0] == 0:
            raise NotInvertibleError("series with zero constant term is not invertible")
        m = self.modulus_degree
        inv0 = 1 / a[0]
        out = [inv0] + [_ZERO] * m
        for n in range(1, m + 1):
            out[n] = -inv0 * sum(a[k] * out[n - k] for k in range(1, n + 1))
        return tuple(out)

    def format_element(self, a) -> str:
        return ",".join(str(c) for c in a)

    def parse_element(self, text: str):
        parts = text.split(",")
        try:
            coeffs = [Fraction(p.strip()) for p in parts]
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad series element {text!r}", 0) from None
        return self.element(coeffs)

    def __repr__(self) -> str:
        return f"TruncatedSeriesRing({self.modulus_degree})"


def poly_products(base, terms, size: int | None = None) -> list:
    """The coefficients of the sum of c * p * q over ``(c, p, q)``, for
    coefficient sequences p, q over the ring ``base``: products of nonzero
    coefficients are bucketed by degree, one ``base.sum_products`` per
    nonempty bucket.  With ``size``, degrees >= size are dropped and the list
    is padded to ``size``; without it, it ends at the highest degree reached."""
    is_zero, buckets = base.is_zero, defaultdict(list)
    top = sys.maxsize if size is None else size
    for c, p, q in terms:
        right = [(j, b) for j, b in enumerate(q) if not is_zero(b)]
        for i, a in enumerate(p):
            if not is_zero(a):
                for j, b in right:
                    if i + j >= top:
                        break
                    buckets[i + j].append((c, a, b))
    out = [base.zero] * (max(buckets, default=-1) + 1 if size is None else size)
    for k, bucket in buckets.items():
        out[k] = base.sum_products(bucket)
    return out


def resolve_ring(key: str):
    """Map a ring id ("rational" or "series:M", M in ASCII digits with no
    leading zero, so that the id is the key) to a ring instance."""
    if key == "rational":
        return RATIONAL
    if isinstance(key, str) and key.startswith("series:"):
        digits = key[len("series:"):]
        try:
            if digits.isascii() and digits.isdigit() and digits[0] != "0":
                return TruncatedSeriesRing(int(digits))
        except ValueError:  # too many digits
            pass
        raise ParseError(f"bad ring id {key!r} (want series:M with M >= 1)", 0)
    raise ParseError(f"unknown ring id {key!r}", 0)

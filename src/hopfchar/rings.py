"""Exact coefficient rings for functional values.

Two commutative unital rings with exact equality are provided:

* ``RationalRing`` — arbitrary-precision rationals (``fractions.Fraction``).
* ``TruncatedSeriesRing(M)`` — rational power series modulo ``X^(M+1)``,
  stored as coefficient tuples of length M+1.  An element is a unit iff its
  constant term is nonzero, and then the inverse is again a truncated series.

Both rings are Q-algebras (``scale`` divides exactly by any nonzero integer),
which is what the exponential/logarithm series require.

The convolution kernel does not work on ring elements but on their kernel
form, where tuple equality is value equality.  A rational is a reduced pair
``(numerator, denominator)`` of ints with a positive denominator.  A
``series:M`` element is a pair ``(nums, den)``: the integer numerators of its
coefficients of X^0, X^1, ... with trailing zeros dropped, over one positive
denominator, with gcd(den, *nums) = 1 (``lowest_terms``), so that its zero is
``((), 1)``.  ``to_kernel`` and ``from_kernel`` convert one element;
``kernel_mul`` and ``kernel_neg`` are the product and the negation in kernel
form, and ``sum_products(terms)`` is the sum of ``c * a * b`` over a list of
``(c, a, b)`` with c a nonzero integer and a, b in kernel form, equal to
``to_kernel`` of the fold of ``mul``, ``scale`` and ``add`` from ``zero``
(``to_kernel(zero)`` for no terms or terms that cancel).  The convolution
kernel is ``sum_row(row, f, g)``: that sum over the (c, f[l], g[r]) of an
``IndexTable`` coproduct row's triples (c, l, r) with f[l] and g[r] not
None.  Over the rationals both are one integer sum over the lcm of the term
denominators, reduced by one gcd, read from the row with no term list; a
rational product in kernel form cancels the two cross gcds, so that no
``Fraction`` is built.  Over ``series:M`` they are one integer convolution
over the lcm of the term denominators, cut at X^M, then one gcd; the inner
loop walks the nonzero entries of the right factor only.

Both rings are Q[X]/X^w, with w = 1 for the rationals and M + 1 for
``series:M``: ``width`` is w, the number of rational coordinates of an
element, and ``coordinates``/``from_coordinates`` convert an element to and
from them.  The evolution solver's ``Poly`` reads a ring only through these
and keeps its integer numerators in the same ``lowest_terms`` form.

Every rational literal read into a ring or into the CLI's ``--series`` goes
through ``parse_rational``, and every ring element written out through
``format_rational``.  Both keep to the interpreter's
``sys.get_int_max_str_digits()`` (4300 by default): a literal's exponent
beyond it is a ``ParseError``, found before 10**exponent is computed, and a
value with a longer numerator or denominator is a ``ResourceLimitError``.
"""

from __future__ import annotations

import operator
import re
import sys
from fractions import Fraction
from functools import cached_property, partial
from math import gcd, lcm

from .errors import SIZE_BUDGET, NotInvertibleError, ParseError, ResourceLimitError

_ZERO = Fraction(0)
_ONE = Fraction(1)
try:  # a reduced pair as a Fraction, without the gcd that ``Fraction(n, d)`` takes
    _coprime_fraction = Fraction._from_coprime_ints  # CPython 3.12 and later
except AttributeError:
    _coprime_fraction = partial(Fraction, _normalize=False)
# The exponent of a decimal literal, as ``Fraction`` reads it.
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def parse_rational(text: str) -> Fraction:
    """``Fraction(text)`` for a literal such as ``-3/4``, ``1.5`` or ``2e-3``.
    Anything else is a ``ParseError``, and so is an exponent of magnitude
    above ``sys.get_int_max_str_digits()``, before 10**exponent is computed."""
    try:
        if "e" in text or "E" in text:  # skip the regex on most literals
            limit, match = sys.get_int_max_str_digits(), _EXPONENT.search(text)
            if limit and match and abs(int(match[1])) > limit:
                raise ParseError(f"bad rational {text!r}: exponent magnitude over {limit}")
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError):  # not text, not a rational, too long
        raise ParseError(f"bad rational {text!r}") from None


def format_rational(q: Fraction, where="a basis element") -> str:
    """``str(q)``; a numerator or denominator of more than
    ``sys.get_int_max_str_digits()`` digits is a ``ResourceLimitError`` naming
    ``where``, the basis element (or its description) the value stands on."""
    try:
        return str(q)
    except ValueError:
        raise ResourceLimitError(f"the value on {where} has more than"
                                 f" {sys.get_int_max_str_digits()} digits") from None


class RationalRing:
    """The field of rationals."""

    key = "rational"
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
    def sum_products(terms) -> tuple[int, int]:
        num, den = 0, 1
        for c, (na, da), (nb, db) in terms:
            d = da * db
            if den % d:
                common = lcm(den, d)
                num *= common // den
                den = common
            num += c * na * nb * (den // d)
        g = gcd(num, den)
        return num // g, den // g

    @staticmethod
    def sum_row(row, f, g) -> tuple[int, int]:
        num, den = 0, 1
        for c, left, right in row:
            if (a := f[left]) is not None and (b := g[right]) is not None:
                (na, da), (nb, db) = a, b
                if den % (d := da * db):
                    common = lcm(den, d)
                    num, den = num * (common // den), common
                num += c * na * nb * (den // d)
        k = gcd(num, den)
        return num // k, den // k

    @staticmethod
    def to_kernel(a: Fraction) -> tuple[int, int]:
        return a.as_integer_ratio()

    @staticmethod
    def from_kernel(k: tuple[int, int]) -> Fraction:
        return _coprime_fraction(*k) if k[0] else _ZERO

    @staticmethod
    def kernel_mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
        (p, q), (r, s) = a, b
        g, h = gcd(p, s), gcd(r, q)
        return (p // g) * (r // h), (q // h) * (s // g)

    @staticmethod
    def kernel_neg(a: tuple[int, int]) -> tuple[int, int]:
        return -a[0], a[1]

    is_zero = staticmethod(operator.not_)

    @staticmethod
    def coordinates(a: Fraction) -> tuple[Fraction]:
        return (a,)

    @staticmethod
    def from_coordinates(cs) -> Fraction:
        return cs[0]

    @staticmethod
    def inv(a: Fraction) -> Fraction:
        if a == 0:
            raise NotInvertibleError("0 is not invertible in the rationals")
        return 1 / a

    format_element = staticmethod(format_rational)
    parse_element = staticmethod(parse_rational)

    def __repr__(self) -> str:
        return "RationalRing()"


RATIONAL = RationalRing()


class TruncatedSeriesRing:
    """Rational coefficients modulo X^(M+1); elements are tuples of length M+1."""

    def __init__(self, modulus_degree: int):
        if modulus_degree < 1:
            raise ValueError(f"series modulus degree must be >= 1, got {modulus_degree}")
        if modulus_degree >= SIZE_BUDGET:
            raise ResourceLimitError(f"series:{modulus_degree} exceeds {SIZE_BUDGET} terms")
        self.modulus_degree = modulus_degree
        self.width = modulus_degree + 1
        self.key = f"series:{modulus_degree}"

    # Built on first use: a payload refused for its width builds no (M + 1)-tuple.
    zero = cached_property(lambda self: (_ZERO,) * self.width)
    one = cached_property(lambda self: (_ONE,) + (_ZERO,) * self.modulus_degree)

    def element(self, coeffs) -> tuple[Fraction, ...]:
        cs = [Fraction(c) for c in coeffs][: self.modulus_degree + 1]
        cs += [_ZERO] * (self.modulus_degree + 1 - len(cs))
        return tuple(cs)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        return self.from_kernel(self.kernel_mul(self.to_kernel(a), self.to_kernel(b)))

    def scale(self, a, q: Fraction):
        return tuple(x * q for x in a)

    def sum_products(self, terms) -> tuple:
        size, den = self.width, lcm(*[a[1] * b[1] for _c, a, b in terms])
        out = [0] * size
        for c, (p, p_den), (q, q_den) in terms:
            c *= den // (p_den * q_den)
            right = [(j, y) for j, y in enumerate(q) if y]
            for i, x in enumerate(p):
                if x:
                    x *= c
                    for j, y in right:
                        if i + j >= size:
                            break
                        out[i + j] += x * y
        return lowest_terms(out, den)

    def sum_row(self, row, f, g) -> tuple:
        return self.sum_products([(c, a, b) for c, left, right in row
                                  if (a := f[left]) is not None and (b := g[right]) is not None])

    @staticmethod
    def to_kernel(a) -> tuple:
        # Over the lcm of reduced denominators gcd(den, *nums) is already 1.
        ratios = [x.as_integer_ratio() for x in a]
        den = lcm(*{d for _n, d in ratios})
        nums = [n and n * (den // d) for n, d in ratios]
        while nums and not nums[-1]:
            nums.pop()
        return tuple(nums), den

    def from_kernel(self, k) -> tuple[Fraction, ...]:
        nums, den = k
        return (tuple([Fraction(n, den) if n else _ZERO for n in nums])
                + (_ZERO,) * (self.width - len(nums)))

    def kernel_mul(self, a, b) -> tuple:
        return self.sum_products([(1, a, b)])

    @staticmethod
    def kernel_neg(a) -> tuple:
        return tuple([-n for n in a[0]]), a[1]

    def is_zero(self, a) -> bool:
        return all(x == 0 for x in a)

    @staticmethod
    def coordinates(a) -> tuple[Fraction, ...]:
        return a

    @staticmethod
    def from_coordinates(cs) -> tuple[Fraction, ...]:
        return tuple(cs)

    def inv(self, a):
        """out[n] = -a0^-1 * sum of a[k] out[n-k] over the nonzero a[k], k >= 1."""
        if a[0] == 0:
            raise NotInvertibleError("series with zero constant term is not invertible")
        inv0, terms = 1 / a[0], [(k, x) for k, x in enumerate(a) if k and x]
        out = [inv0] + [_ZERO] * self.modulus_degree
        for n in range(1, len(out)):
            out[n] = -inv0 * sum(x * out[n - k] for k, x in terms if k <= n)
        return tuple(out)

    def format_element(self, a, where="a basis element") -> str:
        return ",".join(format_rational(c, where) for c in a)

    def parse_element(self, text: str):
        return self.element(parse_rational(p) for p in text.split(","))

    def __repr__(self) -> str:
        return f"TruncatedSeriesRing({self.modulus_degree})"


def lowest_terms(nums: list, den: int) -> tuple[tuple, int]:
    """nums/den, den > 0, with trailing zeros dropped and gcd(den, *nums) = 1:
    the one spelling of its value, ``((), 1)`` for zero."""
    while nums and not nums[-1]:
        nums.pop()
    g = gcd(den, *nums)
    if g != 1:
        return tuple(x // g for x in nums), den // g
    return tuple(nums), den


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
        raise ParseError(f"bad ring id {key!r} (want series:M with M >= 1)")
    raise ParseError(f"unknown ring id {key!r}")

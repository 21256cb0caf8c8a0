"""Functional calculus on the augmentation ideal of the convolution algebra.

``FormalSeries`` holds the coefficients of a rational power series truncated
at X^N; its Cauchy product is ``rings.poly_products`` over the rationals.
``apply_series(f, a)`` substitutes a functional with zero degree-0 part into
such a series.  Since a lives in the augmentation ideal, its k-th
convolution power has no components below degree k, so the series truncates
exactly at the truncation degree.  Evaluation runs Horner-style in the
convolution product (the raw composition formula is a test oracle).

On top of this sit ``exp``, ``log`` (mutually inverse between the ideal and
its unit translate) and the truncated BCH ``log(exp(x) * exp(y))``, for any
such functionals.  ``characters.char_exp`` is ``exp``; ``char_log`` is solved
on generators by the evolution kernel instead.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .convolution import (
    TruncatedFunctional,
    conv_unit,
    convolve,
    require_augmentation,
    require_unit_normalized,
)
from .errors import ParseError, UnsupportedRingError
from .rings import RATIONAL, poly_products

_ZERO = Fraction(0)
_ONE = Fraction(1)


class FormalSeries:
    """Coefficients c_0..c_N of a rational power series, truncated at X^N."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable):
        self.coefficients = tuple(Fraction(c) for c in coefficients)
        if not self.coefficients:
            raise ValueError("a series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalSeries) and self.coefficients == other.coefficients

    def __repr__(self) -> str:
        return f"FormalSeries({list(self.coefficients)})"

    def __add__(self, other: "FormalSeries") -> "FormalSeries":
        n = max(self.order, other.order)
        a = self.padded(n).coefficients
        b = other.padded(n).coefficients
        return FormalSeries(x + y for x, y in zip(a, b))

    def __mul__(self, other: "FormalSeries") -> "FormalSeries":
        """Cauchy product truncated at the larger of the two orders."""
        return FormalSeries(poly_products(
            RATIONAL, [(1, self.coefficients, other.coefficients)],
            max(self.order, other.order) + 1))

    def padded(self, order: int) -> "FormalSeries":
        """The same series with coefficients listed up to X^order."""
        cs = self.coefficients[: order + 1]
        return FormalSeries(cs + (_ZERO,) * (order + 1 - len(cs)))

    def format(self) -> str:
        return ",".join(str(c) for c in self.coefficients)

    @staticmethod
    def parse(text: str) -> "FormalSeries":
        try:
            return FormalSeries(Fraction(p.strip()) for p in text.split(","))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad series literal {text!r}", 0) from None


def x_series(order: int) -> FormalSeries:
    return FormalSeries([0, 1]).padded(order)


def exp_series(order: int) -> FormalSeries:
    coeffs, fact = [], 1
    for k in range(order + 1):
        fact = fact * k if k else 1
        coeffs.append(Fraction(1, fact))
    return FormalSeries(coeffs)


def log1p_series(order: int) -> FormalSeries:
    return FormalSeries(
        [_ZERO] + [Fraction((-1) ** (k + 1), k) for k in range(1, order + 1)]
    )


def geometric_series(order: int) -> FormalSeries:
    return FormalSeries([_ONE] * (order + 1))


def apply_series(f: FormalSeries, a: TruncatedFunctional) -> TruncatedFunctional:
    """Substitute ``a`` (zero degree-0 part required) into ``f``.

    For fixed a this is a unital algebra morphism from series under the
    Cauchy product into the convolution algebra.
    """
    require_augmentation(a)
    if not a.ring.has_rational_scaling:
        raise UnsupportedRingError(f"ring {a.ring.key} lacks rational scaling")
    unit = conv_unit(a.hopf, a.ring, a.truncation)
    coeffs = f.padded(a.truncation).coefficients
    # Horner: c_0 + a * (c_1 + a * (...)).
    acc = unit.scale(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = unit.scale(c) + convolve(a, acc)
    return acc


def exp(a: TruncatedFunctional) -> TruncatedFunctional:
    """Convolution exponential of an augmentation-ideal element."""
    return apply_series(exp_series(a.truncation), a)


def log(u: TruncatedFunctional) -> TruncatedFunctional:
    """Convolution logarithm of a functional with degree-0 value the ring unit.

    Exact inverse of :func:`exp` at the shared truncation.
    """
    require_unit_normalized(u)
    return apply_series(log1p_series(u.truncation), u.drop_degree0())


def bch(x: TruncatedFunctional, y: TruncatedFunctional) -> TruncatedFunctional:
    """The truncated BCH combination log(exp(x) * exp(y)) of two ideal elements."""
    require_augmentation(x)
    require_augmentation(y)
    return log(convolve(exp(x), exp(y)))

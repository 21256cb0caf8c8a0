"""Exact solver for the right-translation evolution equation
eta'(t) = eta(t) * gamma(t), eta(0) = unit, for polynomial-in-t curves gamma
into the infinitesimal characters.

The solution stays in the character group, so eta is one character with
values in the polynomial algebra R[t] (``PolyRing``) and is fixed by its
generator values.  Because gamma vanishes in degree 0 and on products, the
value of eta * gamma on a generator g of degree n only involves eta in degree
< n and gamma(g): eta(g) integrates ``convolve_at(eta, gamma, g)`` from 0,
and products multiply.  ``evolution_pass`` asks for gamma(g) once the rest of
eta(g) is known, so it also solves ``characters.char_log``.

The kernel's sum of polynomial products, ``poly_sum_products``, is the
untruncated ``rings.poly_products``: each t-degree's coefficient products are
one ``sum_products`` of the coefficient ring, so over the rationals each
coefficient of eta(g) costs one gcd.  ``Poly.__mul__`` is its one-term case.
Everything stays in exact rational arithmetic; ``evol`` checks that the
result is a character.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable

from .characters import (Character, InfinitesimalCharacter, _multiplicative,
                         char_from_generator_values, character_violation)
from .convolution import TruncatedFunctional, convolve_at, json_entries
from .errors import InternalError, ParseError
from .hopf import HopfStructure
from .rings import poly_products


class Poly:
    """A polynomial in the time variable with coefficient-ring values."""

    __slots__ = ("ring", "coefficients")

    def __init__(self, ring, coefficients: Iterable = ()):
        coeffs = list(coefficients)
        while coeffs and ring.is_zero(coeffs[-1]):
            coeffs.pop()
        self.ring = ring
        self.coefficients = tuple(coeffs)

    @classmethod
    def zero(cls, ring) -> "Poly":
        return cls(ring)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.ring.key == other.ring.key
            and self.coefficients == other.coefficients
        )

    def __add__(self, other: "Poly") -> "Poly":
        ring = self.ring
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, value in enumerate(b):
            out[i] = ring.add(out[i], value)
        return Poly(ring, out)

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly(self.ring,
                    poly_products(self.ring, [(1, self.coefficients, other.coefficients)]))

    def scale(self, q) -> "Poly":
        q = Fraction(q)
        return Poly(self.ring, [self.ring.scale(c, q) for c in self.coefficients])

    def shift_scale(self, q, power: int) -> "Poly":
        """q * t^power * self."""
        q = Fraction(q)
        return Poly(
            self.ring,
            [self.ring.zero] * power
            + [self.ring.scale(c, q) for c in self.coefficients],
        )

    def integrate(self) -> "Poly":
        """Antiderivative with zero constant term."""
        out = [self.ring.zero]
        for k, c in enumerate(self.coefficients):
            out.append(self.ring.scale(c, Fraction(1, k + 1)))
        return Poly(self.ring, out)

    def differentiate(self) -> "Poly":
        return Poly(
            self.ring,
            [
                self.ring.scale(c, Fraction(k))
                for k, c in enumerate(self.coefficients)
            ][1:],
        )

    def __call__(self, t):
        """Evaluate at a rational time."""
        t = Fraction(t)
        total = self.ring.zero
        power = Fraction(1)
        for c in self.coefficients:
            total = self.ring.add(total, self.ring.scale(c, power))
            power *= t
        return total

    def __repr__(self) -> str:
        return f"Poly({list(self.coefficients)})"


def poly_sum_products(ring, terms) -> Poly:
    """The sum of c * p * q over ``(c, p, q)`` in terms, for polynomials over
    ``ring``: one ``ring.sum_products`` per coefficient of the result."""
    return Poly(ring, poly_products(
        ring, [(c, p.coefficients, q.coefficients) for c, p, q in terms]))


class PolyRing:
    """R[t] as a coefficient ring for ``convolve_at`` and ``_multiplicative``;
    the sum and product are ``Poly``'s own."""

    add, mul = operator.add, operator.mul

    def __init__(self, ring):
        self.base = ring
        self.zero = Poly(ring)
        self.one = Poly(ring, [ring.one])

    def sum_products(self, terms) -> Poly:
        return poly_sum_products(self.base, terms)

    @staticmethod
    def scale(p: Poly, q) -> Poly:
        return p.scale(q)

    @staticmethod
    def is_zero(p: Poly) -> bool:
        return not p.coefficients


class FunctionalCurve:
    """gamma(t) = sum_j t^j gamma_j with every coefficient an infinitesimal
    character over a shared Hopf algebra, ring and truncation."""

    __slots__ = ("coefficients", "hopf", "ring", "truncation")

    def __init__(self, coefficients: Iterable[TruncatedFunctional]):
        coeffs = tuple(coefficients)
        if not coeffs:
            raise ValueError("a curve needs at least one coefficient")
        first = coeffs[0]
        for c in coeffs:
            first._compatible(c)
            InfinitesimalCharacter(c)  # raises MembershipError if not infinitesimal
        self.coefficients = coeffs
        self.hopf: HopfStructure = first.hopf
        self.ring = first.ring
        self.truncation = first.truncation

    @property
    def poly_degree(self) -> int:
        return len(self.coefficients) - 1

    def value_poly(self, basis) -> Poly:
        """gamma evaluated at one basis element, as a polynomial in t."""
        return Poly(self.ring, [c.value(basis) for c in self.coefficients])

    def to_json_dict(self) -> dict:
        return {"coeffs": [c.to_json_dict() for c in self.coefficients]}

    @staticmethod
    def from_json_dict(data: dict) -> "FunctionalCurve":
        coeffs = json_entries(data, "coeffs", list, dict)
        if not coeffs:
            raise ParseError("coeffs must be a nonempty JSON list", 0)
        return FunctionalCurve(TruncatedFunctional.from_json_dict(entry) for entry in coeffs)


def evolution_pass(hopf: HopfStructure, ring, truncation: int, rate) -> tuple[dict, list]:
    """Solve eta' = eta * gamma over R[t] in basis order.  At a generator g,
    ``rest`` integrates ``convolve_at(eta, gamma, g)`` while gamma(g) is still
    unknown (only the 1 (x) g term is missing), ``rate(g, rest)`` gives
    gamma(g) as a ``Poly`` and eta(g) = rest + its integral; products multiply.
    Returns the nonzero values of eta on the basis, and the values of gamma
    as a list in basis order (None for zero and off the generators)."""
    polys, table = PolyRing(ring), hopf.table(truncation)
    gamma = [None] * len(table.basis)

    def on_generator(i, eta):
        rest = convolve_at(table, polys, eta, gamma, i).integrate()
        value = rate(table.basis[i], rest)
        if value.coefficients:
            gamma[i] = value
        return rest + value.integrate()

    eta = _multiplicative(hopf, polys, truncation, on_generator).functional.values
    return eta, gamma


def evolve_polynomials(curve: FunctionalCurve) -> dict:
    """The full solution: for each basis element of degree <= N, the value of
    eta as a ``Poly`` in t."""
    eta, _gamma = evolution_pass(curve.hopf, curve.ring, curve.truncation,
                                 lambda g, rest: curve.value_poly(g))
    zero = Poly.zero(curve.ring)
    return {b: eta.get(b, zero) for b in curve.hopf.all_basis_upto(curve.truncation)}


def evolve(curve: FunctionalCurve, t_end) -> TruncatedFunctional:
    """eta(t_end), exactly."""
    hopf, truncation = curve.hopf, curve.truncation
    eta = evolve_polynomials(curve)
    values = {g: eta[g](t_end) for g in hopf.generators(truncation)}
    return char_from_generator_values(values, hopf, truncation, curve.ring).functional


def evol(curve: FunctionalCurve) -> Character:
    """The time-1 evolution, wrapped as a character.

    A predicate failure here signals a solver bug, never expected input.
    """
    functional = evolve(curve, 1)
    violation = character_violation(functional)
    if violation is not None:
        raise InternalError(
            f"evolution left the character group at {violation.describe(functional.ring)}"
        )
    return Character._wrap(functional)

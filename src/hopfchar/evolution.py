"""Exact solver for the right-translation evolution equation
eta'(t) = eta(t) * gamma(t), eta(0) = unit, for polynomial-in-t curves gamma
into the infinitesimal characters.

The solution stays in the character group, so eta is one character with
values in the polynomial algebra R[t] (``PolyRing``), built by the character
builder ``characters._multiplicative_values`` like every other character.
Because gamma vanishes in degree 0 and on products, the value of eta * gamma
on a generator g of degree n only involves eta in degree < n and gamma(g):
eta(g) integrates ``convolve_at(eta, gamma, g)`` from 0, and products
multiply.  So no generator reads eta on a product of degree N, and these
products are the largest: ``evolve`` leaves them out of the solve by the
builder's index bound and extends its generator values at t_end
multiplicatively, while ``evolve_polynomials`` multiplies them out in t.

A ``Poly`` over Q[X]/X^w is one tuple of integer numerators over one common
denominator, so the kernel's sum of polynomial products over a row
(``PolyRing.sum_row``) is one integer convolution and one gcd, and
integration and evaluation make no ``Fraction`` per coefficient; the ring is
read only through its width and coordinates.  ``Poly.__mul__`` is the
one-term sum.  Everything stays in exact rational arithmetic; ``evol`` checks
that the result is a character.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm
from typing import Iterable

from .characters import (Character, InfinitesimalCharacter, _multiplicative,
                         _multiplicative_values, character_violation)
from .convolution import TruncatedFunctional, convolve_at, json_entries
from .errors import InternalError, ParseError
from .hopf import HopfStructure
from .rings import lowest_terms


class Poly:
    """A polynomial in the time variable t over a coefficient ring
    Q[X]/X^w, w = ``ring.width`` (1 for the rationals, M + 1 for
    ``series:M``), stored as integer numerators ``nums`` over one positive
    denominator ``den``: entry k*w + m is the numerator of the coefficient of
    t^k X^m.  The form is canonical (``rings.lowest_terms``: no trailing zero
    entry and gcd(den, *nums) = 1), so equal polynomials have equal fields.
    ``coefficients`` gives the ring elements, built on read."""

    __slots__ = ("ring", "nums", "den", "_below")

    def __init__(self, ring, coefficients: Iterable = ()):
        ratios = [x.as_integer_ratio() for c in coefficients for x in ring.coordinates(c)]
        den = lcm(*(d for _n, d in ratios))
        self.ring = ring
        self.nums, self.den = lowest_terms([n * (den // d) for n, d in ratios], den)

    @classmethod
    def _of(cls, ring, nums: list, den: int) -> "Poly":
        """The polynomial with these numerators over den > 0."""
        p = cls.__new__(cls)
        p.ring = ring
        p.nums, p.den = lowest_terms(nums, den)
        return p

    @property
    def coefficients(self) -> tuple:
        ring, den, w = self.ring, self.den, self.ring.width
        nums = self.nums + (0,) * (-len(self.nums) % w)
        return tuple(ring.from_coordinates([Fraction(n, den) for n in nums[k:k + w]])
                     for k in range(0, len(nums), w))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.ring.key == other.ring.key
            and self.nums == other.nums
            and self.den == other.den
        )

    def __mul__(self, other: "Poly") -> "Poly":
        return _sum_products(self.ring, ((1, self, other),))

    def _masked(self) -> list:
        """below[r]: the nonzero entries (j, nums_j) with j mod w <= r, the
        ones a factor entry at X^(w-1-r) meets; memoized, as a ``Poly`` is
        immutable."""
        try:
            return self._below
        except AttributeError:
            w = self.ring.width
            entries = [(j, y) for j, y in enumerate(self.nums) if y]
            self._below = [[(j, y) for j, y in entries if j % w <= r] for r in range(w - 1)]
            self._below.append(entries)
            return self._below

    def integrate(self) -> "Poly":
        """Antiderivative with zero constant term: the denominator gains
        lcm(1, ..., top degree + 1)."""
        w, nums = self.ring.width, self.nums
        degrees = range(1, (len(nums) + w - 1) // w + 1)
        common = lcm(*degrees)
        factors = [common // k for k in degrees]
        return Poly._of(self.ring, [0] * w + [x * factors[i // w] for i, x in enumerate(nums)],
                        self.den * common)

    def __call__(self, t):
        """Evaluate at a rational time p/q: for each X-coordinate, one integer
        Horner sum_k nums_k p^k q^(K-k), K the top degree, and one
        ``Fraction`` over den q^K."""
        w, nums = self.ring.width, self.nums
        p, q = Fraction(t).as_integer_ratio()
        top = max(len(nums) - 1, 0) // w
        q_powers = [q ** k for k in range(top + 1)]
        den, coords = self.den * q_powers[-1], []
        for m in range(w):
            row, acc = nums[m::w], 0
            for x, q_power in zip(row[::-1], q_powers[top + 1 - len(row):]):
                acc = acc * p + x * q_power
            coords.append(Fraction(acc, den))
        return self.ring.from_coordinates(coords)

    def __repr__(self) -> str:
        return f"Poly({list(self.coefficients)})"


def _sum_products(ring, terms) -> Poly:
    """The sum of c * p * q over ``(c, p, q)`` in terms, for polynomials over
    Q[X]/X^w: one integer convolution of the numerators over the lcm of the
    products' denominators, keeping a pair of entries t^i X^m1, t^j X^m2
    only when m1 + m2 < w; a zero factor adds nothing.  The shorter factor is
    the outer loop; the longer one gives its entries from ``Poly._masked``."""
    w, out = ring.width, []
    den = lcm(*[p.den * q.den for _c, p, q in terms])
    for c, p, q in terms:
        c *= den // (p.den * q.den)
        if len(p.nums) > len(q.nums):
            p, q = q, p
        out.extend([0] * (len(p.nums) + len(q.nums) - 1 - len(out)))
        masked = q._masked()
        for i, x in enumerate(p.nums):
            if x:
                x *= c
                for j, y in masked[w - 1 - i % w]:
                    out[i + j] += x * y
    return Poly._of(ring, out, den)


class PolyRing:
    """R[t] as a kernel ring: a ``Poly`` is its own kernel form, the sum of
    products over a row is ``_sum_products``, and ``operator.mul``
    finds ``Poly.__mul__``."""

    to_kernel = staticmethod(lambda p: p)
    kernel_mul = staticmethod(operator.mul)

    def __init__(self, ring):
        self.base = ring
        self.zero = Poly(ring)
        self.one = Poly(ring, [ring.one])

    def sum_row(self, row, f, g) -> Poly:
        terms = [(c, p, q) for c, left, right in row
                 if (p := f[left]) is not None and (q := g[right]) is not None]
        return _sum_products(self.base, terms)


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

    def value_poly(self, basis) -> Poly:
        """gamma evaluated at one basis element, as a polynomial in t."""
        return Poly(self.ring, [c.value(basis) for c in self.coefficients])

    def to_json_dict(self) -> dict:
        return {"coeffs": [c.to_json_dict() for c in self.coefficients]}

    @staticmethod
    def from_json_dict(data: dict) -> "FunctionalCurve":
        coeffs = json_entries(data, "coeffs", list, dict)
        if not coeffs:
            raise ParseError("coeffs must be a nonempty JSON list")
        return FunctionalCurve(TruncatedFunctional.from_json_dict(entry) for entry in coeffs)


def _solve(curve: FunctionalCurve, degree: int) -> tuple:
    """The index table at N and eta's values in its order, as the builder
    leaves them: the character over R[t] whose value on a generator g
    integrates ``convolve_at(eta, gamma, g)``, None where that is zero, with
    products of degree above ``degree`` left None.  At g, eta(g) is not yet
    known and gamma(1) = 0, so the convolution is all of eta'(g): its term
    eta(1) gamma(g) brings in gamma(g)."""
    table, polys = curve.hopf.table(curve.truncation), PolyRing(curve.ring)
    gamma = [None] * len(table.basis)
    for i in table.generators:
        value = curve.value_poly(table.basis[i])
        if value.nums:
            gamma[i] = value
    def rate(i, eta):
        derivative = convolve_at(table, polys, eta, gamma, i)
        return derivative.integrate() if derivative.nums else None
    return table, _multiplicative_values(table, polys, rate, table.ends[degree])


def evolve_polynomials(curve: FunctionalCurve) -> dict:
    """The full solution: for each basis element of degree <= N, the value of
    eta as a ``Poly`` in t."""
    table, eta = _solve(curve, curve.truncation)
    zero = Poly(curve.ring)
    return {b: zero if value is None else value for b, value in zip(table.basis, eta)}


def evolve(curve: FunctionalCurve, t_end) -> TruncatedFunctional:
    """eta(t_end), exactly: eta at t_end on the generators, extended
    multiplicatively."""
    ring, n = curve.ring, curve.truncation
    _table, eta = _solve(curve, max(n - 1, 0))
    at_end = lambda i, out: None if eta[i] is None else ring.to_kernel(eta[i](t_end))
    return _multiplicative(curve.hopf, ring, n, at_end).functional


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

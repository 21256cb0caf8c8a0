"""The truncated convolution algebra of linear functionals on a Hopf algebra.

A ``TruncatedFunctional`` stores one coefficient-ring value per basis element
of degree <= N (sparse storage, absent means zero).  ``convolve_at`` is the
one convolution kernel.  It works on the ``IndexTable`` of the Hopf algebra
at N: values are lists in basis order with None for zero (``value_list`` and
``from_value_list`` convert), and the value at index i is the ring's
``sum_products`` over the coproduct triples (c, l, r) of basis[i] whose
f[l] and g[r] are both nonzero.  Because the coproduct respects the grading,
every degree-n output value only involves inputs of degree <= n, so
degree-wise truncation is exact: the degree-n part of any result agrees with
the one computed at any larger truncation.

A functional is invertible iff its degree-0 value is a ring unit.  The
inverse is then solved for one basis element at a time in degree order (see
``conv_inverse``); antipode precomposition and the functional-calculus route
in :mod:`hopfchar.series` reproduce it and are cross-checked in the tests.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping

from .errors import (AugmentationError, DomainError, IncompatibleError, ParseError,
                     TruncationOverflowError)
from .hopf import GradedVector, HopfStructure, IndexTable, resolve_hopf
from .rings import resolve_ring


class TruncatedFunctional:
    """An element of Hom(H, B) known on all basis elements of degree <= N.

    Immutable; all operations return fresh functionals.
    """

    __slots__ = ("hopf", "ring", "truncation", "values")

    def __init__(self, hopf: HopfStructure, ring, truncation: int,
                 values: Mapping | None = None):
        if truncation < 0:
            raise ValueError(f"truncation must be >= 0, got {truncation}")
        self.hopf = hopf
        self.ring = ring
        self.truncation = truncation
        vals = {}
        if values:
            for basis, value in values.items():
                if basis.degree > truncation:
                    raise ValueError(
                        f"value on degree-{basis.degree} element exceeds truncation {truncation}"
                    )
                if not ring.is_zero(value):
                    vals[basis] = value
        self.values = vals

    # -- basic structure ----------------------------------------------------

    def value(self, basis):
        """The stored value on a basis element (ring zero when absent)."""
        return self.values.get(basis, self.ring.zero)

    def evaluate(self, vec: GradedVector):
        """Linear extension to rational combinations of basis elements."""
        ring = self.ring
        total = ring.zero
        for basis, coeff in vec:
            if basis.degree <= self.truncation:
                value = self.values.get(basis)
                if value is not None:
                    total = ring.add(total, ring.scale(value, coeff))
        return total

    @property
    def degree0(self):
        return self.value(self.hopf.unit_basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedFunctional)
            and self.hopf.key == other.hopf.key
            and self.ring.key == other.ring.key
            and self.truncation == other.truncation
            and self.values == other.values
        )

    def __hash__(self):
        raise TypeError("TruncatedFunctional is not hashable")

    def __repr__(self) -> str:
        items = ", ".join(
            f"{b.serial}: {self.ring.format_element(v)}"
            for b, v in sorted(self.values.items(), key=lambda kv: (kv[0].degree, kv[0].serial))
        )
        return f"<functional {self.hopf.key}/{self.ring.key} N={self.truncation} {{{items}}}>"

    def _compatible(self, other: "TruncatedFunctional") -> None:
        if (
            self.hopf.key != other.hopf.key
            or self.ring.key != other.ring.key
            or self.truncation != other.truncation
        ):
            raise IncompatibleError(
                f"functionals disagree: ({self.hopf.key},{self.ring.key},N={self.truncation})"
                f" vs ({other.hopf.key},{other.ring.key},N={other.truncation})"
            )

    def _build(self, values: dict) -> "TruncatedFunctional":
        return TruncatedFunctional(self.hopf, self.ring, self.truncation, values)

    def value_list(self) -> list:
        """The values in the basis order of ``hopf.table(truncation)``, None for
        zero: the kernel's form of a functional."""
        get = self.values.get
        return [get(b) for b in self.hopf.table(self.truncation).basis]

    @staticmethod
    def from_value_list(hopf: HopfStructure, ring, truncation: int,
                        values: list) -> "TruncatedFunctional":
        """Inverse of ``value_list``; None and ring zeros are dropped."""
        basis = hopf.table(truncation).basis
        return TruncatedFunctional(hopf, ring, truncation,
                                   {b: v for b, v in zip(basis, values) if v is not None})

    # -- linear operations --------------------------------------------------

    def __add__(self, other: "TruncatedFunctional") -> "TruncatedFunctional":
        self._compatible(other)
        out = dict(self.values)
        for basis, value in other.values.items():
            out[basis] = self.ring.add(out.get(basis, self.ring.zero), value)
        return self._build(out)

    def __sub__(self, other: "TruncatedFunctional") -> "TruncatedFunctional":
        return self + (-other)

    def __neg__(self) -> "TruncatedFunctional":
        return self._build({b: self.ring.neg(v) for b, v in self.values.items()})

    def scale(self, q) -> "TruncatedFunctional":
        """Scalar multiple by a rational."""
        q = Fraction(q)
        return self._build({b: self.ring.scale(v, q) for b, v in self.values.items()})

    def scale_ring(self, r) -> "TruncatedFunctional":
        """Pointwise multiple by a ring element."""
        return self._build({b: self.ring.mul(v, r) for b, v in self.values.items()})

    def __mul__(self, other):
        if isinstance(other, TruncatedFunctional):
            return convolve(self, other)
        return self.scale(other)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    # -- graded structure ---------------------------------------------------

    def project(self, degree: int) -> "TruncatedFunctional":
        """Keep only the values on basis elements of the given degree."""
        if degree > self.truncation:
            raise ValueError(f"degree {degree} exceeds truncation {self.truncation}")
        return self._build({b: v for b, v in self.values.items() if b.degree == degree})

    def drop_degree0(self) -> "TruncatedFunctional":
        return self._build(
            {b: v for b, v in self.values.items() if b.degree >= 1}
        )

    def restrict(self, truncation: int) -> "TruncatedFunctional":
        """The same functional at a smaller truncation degree."""
        if truncation > self.truncation:
            raise ValueError("restrict cannot raise the truncation")
        return TruncatedFunctional(
            self.hopf, self.ring, truncation,
            {b: v for b, v in self.values.items() if b.degree <= truncation},
        )

    def is_zero(self) -> bool:
        return not self.values

    # -- convolution-algebra operations --------------------------------------

    def precompose_antipode(self) -> "TruncatedFunctional":
        """The functional b -> self(S(b))."""
        out = {}
        for basis in self.hopf.all_basis_upto(self.truncation):
            value = self.evaluate(self.hopf.antipode(basis))
            if not self.ring.is_zero(value):
                out[basis] = value
        return self._build(out)

    def to_json_dict(self) -> dict:
        values = {
            b.serial: self.ring.format_element(v, b)
            for b, v in sorted(self.values.items(), key=lambda kv: (kv[0].degree, kv[0].serial))
        }
        return {
            "hopf": self.hopf.key,
            "ring": self.ring.key,
            "truncation": self.truncation,
            "values": values,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @staticmethod
    def from_json_dict(data: dict) -> "TruncatedFunctional":
        hopf = resolve_hopf(json_field(data, "hopf"))
        ring = resolve_ring(json_field(data, "ring"))
        truncation = parse_truncation(json_field(data, "truncation"))
        values = {
            hopf.parse_basis(key): ring.parse_element(text)
            for key, text in json_entries(data, "values", dict, str, {}).items()
        }
        try:
            return TruncatedFunctional(hopf, ring, truncation, values)
        except ValueError as err:  # a value above the truncation
            raise TruncationOverflowError(str(err)) from None

    @staticmethod
    def from_json(text: str) -> "TruncatedFunctional":
        return TruncatedFunctional.from_json_dict(json.loads(text))


def parse_truncation(value) -> int:
    """The ``truncation`` field of a JSON payload: an integer >= 0."""
    if type(value) is not int:
        raise ParseError(f"truncation must be an integer, got {value!r}", 0)
    if value < 0:
        raise DomainError(f"truncation must be >= 0, got {value}")
    return value


def json_field(data: dict, field: str):
    """``data[field]``; a payload that is not a JSON object, or lacks the
    field, is a ``ParseError`` (naming the field when it is missing)."""
    if not isinstance(data, dict):
        raise ParseError("expected a JSON object", 0)
    if field not in data:
        raise ParseError(f"missing field {field!r}", 0)
    return data[field]


def json_entries(data: dict, field: str, container: type, item: type, default=None):
    """``data[field]`` (``default`` when absent, if given), checked to be a
    dict or list ``container`` whose entries are all of type ``item``."""
    value = json_field(data, field) if default is None else data.get(field, default)
    if not isinstance(value, container) or not all(
        isinstance(v, item) for v in (value.values() if container is dict else value)
    ):
        raise ParseError(f"{field} must be a JSON {container.__name__} of {item.__name__}", 0)
    return value


def conv_unit(hopf: HopfStructure, ring, truncation: int) -> TruncatedFunctional:
    """The convolution unit: the ring unit on the degree-0 basis element."""
    return TruncatedFunctional(hopf, ring, truncation, {hopf.unit_basis: ring.one})


def delta(hopf: HopfStructure, ring, truncation: int, basis) -> TruncatedFunctional:
    """The indicator functional of a single basis element."""
    return TruncatedFunctional(hopf, ring, truncation, {basis: ring.one})


def convolve_at(table: IndexTable, ring, f: list, g: list, i: int):
    """(f * g)(table.basis[i]) for value lists f and g in basis order (None
    for zero): ``ring.sum_products`` of (c, f[l], g[r]) over the coproduct
    triples of basis[i] with both values present."""
    terms = []
    for c, left, right in table.coproduct[i]:
        a = f[left]
        if a is not None:
            b = g[right]
            if b is not None:
                terms.append((c, a, b))
    return ring.sum_products(terms)


def convolve(phi: TruncatedFunctional, psi: TruncatedFunctional) -> TruncatedFunctional:
    """Convolution: ``convolve_at`` on every basis element of degree <= N.
    Associative with unit ``conv_unit``."""
    phi._compatible(psi)
    hopf, ring, n = phi.hopf, phi.ring, phi.truncation
    table, f, g = hopf.table(n), phi.value_list(), psi.value_list()
    return TruncatedFunctional.from_value_list(
        hopf, ring, n, [convolve_at(table, ring, f, g, i) for i in range(len(f))])


def conv_power(phi: TruncatedFunctional, exponent: int) -> TruncatedFunctional:
    """Iterated convolution power (exponent >= 0)."""
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    result = conv_unit(phi.hopf, phi.ring, phi.truncation)
    for _ in range(exponent):
        result = convolve(result, phi)
    return result


def conv_inverse(phi: TruncatedFunctional) -> TruncatedFunctional:
    """Convolution inverse, defined exactly when the degree-0 value a0 is a
    ring unit.  In degree order, psi(b) = (counit(b) - convolve_at(psi, phi, b))
    * a0^-1: the term psi(b) * a0 drops out because b is not yet in psi."""
    ring, hopf, n = phi.ring, phi.hopf, phi.truncation
    a0_inv = ring.inv(phi.degree0)  # NotInvertibleError unless a ring unit
    table, f = hopf.table(n), phi.value_list()
    out = [None] * len(f)
    out[0] = a0_inv  # the unit comes first
    for i in range(1, len(f)):
        value = ring.mul(ring.neg(convolve_at(table, ring, out, f, i)), a0_inv)
        if not ring.is_zero(value):
            out[i] = value
    return TruncatedFunctional.from_value_list(hopf, ring, n, out)


def require_augmentation(phi: TruncatedFunctional) -> None:
    """Raise unless the functional vanishes in degree 0."""
    if not phi.ring.is_zero(phi.degree0):
        raise AugmentationError("functional has nonzero degree-0 part")


def require_unit_normalized(phi: TruncatedFunctional) -> None:
    """Raise unless the degree-0 value equals the ring unit."""
    if phi.degree0 != phi.ring.one:
        raise AugmentationError("functional degree-0 part is not the ring unit")

"""The truncated convolution algebra of linear functionals on a Hopf algebra.

A ``TruncatedFunctional`` stores one coefficient-ring value per basis element
of degree <= N (sparse storage, absent means zero).  ``convolve_at`` is the
one convolution kernel.  It works on the ``IndexTable`` of the Hopf algebra
at N: values are lists in basis order with None for zero, each value in the
ring's kernel form (a reduced integer pair for a rational, integer
numerators over one denominator for a ``series:M`` element, see
:mod:`hopfchar.rings`).  ``value_list``
converts each stored value once, and ``from_value_list`` builds one ring
element per nonzero entry of a result, so that no ``Fraction`` is built in
the kernel's loops.  The value at index i is the ring's ``sum_row``: the
sum of c * f[l] * g[r] over the coproduct row of basis[i], its triples
(c, l, r) with f[l] and g[r] present, with no term list.  Because the
coproduct respects the grading, every degree-n output value only involves
inputs of degree <= n, so degree-wise truncation is exact: the degree-n
part of any result agrees with the one computed at any larger truncation.

A functional is invertible iff its degree-0 value is a ring unit.  The
inverse is then solved for one basis element at a time in degree order (see
``conv_inverse``); antipode precomposition and the functional-calculus route
in :mod:`hopfchar.series` reproduce it and are cross-checked in the tests.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping

from .errors import (SIZE_BUDGET, AugmentationError, DomainError, IncompatibleError, ParseError,
                     ResourceLimitError, TruncationOverflowError)
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
        """Linear extension to rational combinations of basis elements; terms
        above the truncation or off the stored values count zero.  The sum of
        coeff * value is one ``ring.sum_products`` in kernel form: a
        coefficient p/q is the integer factor p times 1/q, the kernel form of
        1/q built once per distinct q in the call (1/1 is the ring's one)."""
        ring, get, n, to_kernel = self.ring, self.values.get, self.truncation, self.ring.to_kernel
        inverses, terms = {1: to_kernel(ring.one)}, []
        for basis, coeff in vec:
            if basis.degree <= n and (value := get(basis)) is not None:
                p, q = coeff.as_integer_ratio()
                if q not in inverses:
                    inverses[q] = to_kernel(ring.scale(ring.one, Fraction(1, q)))
                terms.append((p, to_kernel(value), inverses[q]))
        return ring.from_kernel(ring.sum_products(terms))

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
        """The values in the basis order of ``hopf.table(truncation)`` and in
        the ring's kernel form, None for zero: the kernel's form of a
        functional."""
        get, to_kernel = self.values.get, self.ring.to_kernel
        return [None if (v := get(b)) is None else to_kernel(v)
                for b in self.hopf.table(self.truncation).basis]

    @staticmethod
    def from_value_list(hopf: HopfStructure, ring, truncation: int,
                        values: list) -> "TruncatedFunctional":
        """Inverse of ``value_list``; None and ring zeros are dropped.  The
        values are nonzero and of degree <= truncation by construction, so
        the checks of ``__init__`` are skipped."""
        basis, from_kernel = hopf.table(truncation).basis, ring.from_kernel
        zero = ring.to_kernel(ring.zero)
        out = TruncatedFunctional.__new__(TruncatedFunctional)
        out.hopf, out.ring, out.truncation = hopf, ring, truncation
        out.values = {b: from_kernel(v) for b, v in zip(basis, values)
                      if v is not None and v != zero}
        return out

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

    def __mul__(self, other):
        if isinstance(other, TruncatedFunctional):
            return convolve(self, other)
        return self.scale(other)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    # -- graded structure ---------------------------------------------------

    def drop_degree0(self) -> "TruncatedFunctional":
        return self._build(
            {b: v for b, v in self.values.items() if b.degree >= 1}
        )

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
        require_value_budget(hopf, ring, truncation)
        values = json_values(data, "values", hopf.parse_basis, ring.parse_element)
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
        raise ParseError(f"truncation must be an integer, got {value!r}")
    if value < 0:
        raise DomainError(f"truncation must be >= 0, got {value}")
    return value


def require_value_budget(hopf: HopfStructure, ring, truncation: int) -> None:
    """Refuse a payload whose functional could hold more than ``SIZE_BUDGET``
    rational coordinates: ring width times the basis elements of degree <= N.
    Only a ring wider than the rationals is checked; the basis of degree <= N
    is counted level by level, up to the first level past the budget."""
    if ring.width == 1:
        return
    count = 0
    for degree in range(truncation + 1):
        count += len(hopf.basis(degree))
        if ring.width * count > SIZE_BUDGET:
            raise ResourceLimitError(f"{ring.key} on {hopf.key} at truncation {truncation}"
                                     f" exceeds {SIZE_BUDGET} value coordinates")


def json_field(data: dict, field: str):
    """``data[field]``; a payload that is not a JSON object, or lacks the
    field, is a ``ParseError`` (naming the field when it is missing)."""
    if not isinstance(data, dict):
        raise ParseError("expected a JSON object")
    if field not in data:
        raise ParseError(f"missing field {field!r}")
    return data[field]


def json_entries(data: dict, field: str, container: type, item: type, default=None):
    """``data[field]`` (``default`` when absent, if given), checked to be a
    dict or list ``container`` whose entries are all of type ``item``."""
    value = json_field(data, field) if default is None else data.get(field, default)
    if not isinstance(value, container) or not all(
        isinstance(v, item) for v in (value.values() if container is dict else value)
    ):
        raise ParseError(f"{field} must be a JSON {container.__name__} of {item.__name__}")
    return value


def json_values(data: dict, field: str, parse_key, parse_value) -> dict:
    """The JSON object ``data[field]`` of strings (empty when absent) as
    ``{parse_key(key): parse_value(text)}``; two keys that parse to one
    element are a ``ParseError`` naming both."""
    values, keys = {}, {}
    for key, text in json_entries(data, field, dict, str, {}).items():
        element = parse_key(key)
        if element in keys:
            raise ParseError(f"{field} keys {keys[element]!r} and {key!r} both name {element}")
        keys[element] = key
        values[element] = parse_value(text)
    return values


def conv_unit(hopf: HopfStructure, ring, truncation: int) -> TruncatedFunctional:
    """The convolution unit: the ring unit on the degree-0 basis element."""
    return TruncatedFunctional(hopf, ring, truncation, {hopf.unit_basis: ring.one})


def delta(hopf: HopfStructure, ring, truncation: int, basis) -> TruncatedFunctional:
    """The indicator functional of a single basis element."""
    return TruncatedFunctional(hopf, ring, truncation, {basis: ring.one})


def convolve_at(table: IndexTable, ring, f: list, g: list, i: int):
    """(f * g)(table.basis[i]) in kernel form, for value lists f and g in
    basis order (None for zero): ``ring.sum_row`` of the coproduct row of
    basis[i], summing c * f[l] * g[r] where both values are present."""
    return ring.sum_row(table.coproduct[i], f, g)


def convolve(phi: TruncatedFunctional, psi: TruncatedFunctional) -> TruncatedFunctional:
    """Convolution: ``convolve_at`` on every basis element of degree <= N.
    Associative with unit ``conv_unit``."""
    phi._compatible(psi)
    hopf, ring, n = phi.hopf, phi.ring, phi.truncation
    table, f, g = hopf.table(n), phi.value_list(), psi.value_list()
    return TruncatedFunctional.from_value_list(
        hopf, ring, n, [convolve_at(table, ring, f, g, i) for i in range(len(f))])


def conv_inverse(phi: TruncatedFunctional) -> TruncatedFunctional:
    """Convolution inverse, defined exactly when the degree-0 value a0 is a
    ring unit.  In degree order, psi(b) = (counit(b) - convolve_at(psi, phi, b))
    * a0^-1: the term psi(b) * a0 drops out because b is not yet in psi."""
    ring, hopf, n = phi.ring, phi.hopf, phi.truncation
    a0_inv = ring.inv(phi.degree0)  # NotInvertibleError unless a ring unit
    table, f, mul = hopf.table(n), phi.value_list(), ring.kernel_mul
    zero = ring.to_kernel(ring.zero)
    out = [None] * len(f)
    out[0] = ring.to_kernel(a0_inv)  # the unit comes first
    minus_a0_inv = ring.kernel_neg(out[0])
    for i in range(1, len(f)):
        value = mul(convolve_at(table, ring, out, f, i), minus_a0_inv)
        if value != zero:
            out[i] = value
    return TruncatedFunctional.from_value_list(hopf, ring, n, out)


def require_augmentation(phi: TruncatedFunctional) -> None:
    """Raise unless the functional vanishes in degree 0."""
    if not phi.ring.is_zero(phi.degree0):
        raise AugmentationError("functional has nonzero degree-0 part")

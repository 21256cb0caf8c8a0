"""Characters and infinitesimal characters at a finite truncation.

A character is a unital algebra homomorphism into the coefficient ring; an
infinitesimal character is the corresponding derivation-like object.  Both
built-in algebras are free, so with b = first * rest from the
``IndexTable``, membership is one pass over the basis in degree order:
phi(b) = phi(first) phi(rest) (or 0) on every product b.  A character is
fixed by its generator values, and ``_multiplicative`` builds every one here,
on value lists in basis order: the product evaluates the convolution kernel
on generators, the inverse solves phi^-1 * phi = unit there, and the Butcher
law is the product on trees.
The exponential (on the series) is a bijection from infinitesimal characters
onto characters; its inverse, the logarithm, is solved on generators by the
evolution kernel.  The commutator bracket is the Lie structure.
"""

from __future__ import annotations

from typing import Mapping

from . import series
from .convolution import (TruncatedFunctional, conv_unit, convolve_at, json_entries,
                          json_field, parse_truncation)
from .errors import MembershipError
from .hopf import HopfStructure, ck_hopf
from .rings import RATIONAL, resolve_ring
from .trees import RootedTree, enumerate_trees, parse_tree, single_tree_forest


class Violation(tuple):
    """The pair ``(first, rest)`` at which a functional breaks a membership
    rule, with the value ``found`` on their product and the value the rule
    ``expected`` there.  ``(unit, unit)`` reports a wrong value on the unit."""

    def __new__(cls, first, rest, found, expected):
        pair = super().__new__(cls, (first, rest))
        pair.found, pair.expected = found, expected
        return pair

    def describe(self, ring) -> str:
        first, rest = self
        return (f"({first.serial}, {rest.serial}): found {ring.format_element(self.found)},"
                f" expected {ring.format_element(self.expected)}")


def character_violation(phi: TruncatedFunctional):
    """None when phi is a character; otherwise the ``Violation`` at the first
    product basis element, in degree order, on which phi is not
    multiplicative."""
    return _violation(phi, phi.ring.one, phi.ring.mul)


def infinitesimal_violation(phi: TruncatedFunctional):
    """As ``character_violation``, for the rule that an infinitesimal
    character vanishes on the unit and on every product."""
    zero = phi.ring.zero
    return _violation(phi, zero, lambda a, b: zero)


def _violation(phi: TruncatedFunctional, unit_value, expected):
    # Below the returned pair phi obeys the rule on every product, hence on
    # every pair (b1, b2): the pair has least degree among pairwise violations.
    table, zero = phi.hopf.table(phi.truncation), phi.ring.zero
    values = [zero if v is None else v for v in phi.value_list()]
    basis = table.basis
    if values[0] != unit_value:
        return Violation(basis[0], basis[0], values[0], unit_value)
    for value, first, rest in zip(values, table.first, table.rest):
        if rest:
            want = expected(values[first], values[rest])
            if value != want:
                return Violation(basis[first], basis[rest], value, want)
    return None


def is_character(phi: TruncatedFunctional) -> bool:
    return character_violation(phi) is None


def is_infinitesimal(phi: TruncatedFunctional) -> bool:
    return infinitesimal_violation(phi) is None


class Character:
    """A functional that passed the character predicate at construction."""

    __slots__ = ("functional",)

    def __init__(self, functional: TruncatedFunctional):
        violation = character_violation(functional)
        if violation is not None:
            raise MembershipError(
                f"not a character: violated at {violation.describe(functional.ring)}"
            )
        self.functional = functional

    @classmethod
    def _wrap(cls, functional: TruncatedFunctional) -> "Character":
        """Wrap without re-checking; for constructions that are multiplicative
        by design (multiplicative extension of generator values)."""
        char = cls.__new__(cls)
        char.functional = functional
        return char

    def __eq__(self, other) -> bool:
        return isinstance(other, Character) and self.functional == other.functional

    def __repr__(self) -> str:
        return f"Character({self.functional!r})"


class InfinitesimalCharacter:
    """A functional that passed the infinitesimal-character predicate."""

    __slots__ = ("functional",)

    def __init__(self, functional: TruncatedFunctional):
        violation = infinitesimal_violation(functional)
        if violation is not None:
            raise MembershipError(
                "not an infinitesimal character: violated at"
                f" {violation.describe(functional.ring)}"
            )
        self.functional = functional

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, InfinitesimalCharacter)
            and self.functional == other.functional
        )

    def __repr__(self) -> str:
        return f"InfinitesimalCharacter({self.functional!r})"


# -- group and Lie-algebra operations ----------------------------------------


def char_unit(hopf: HopfStructure, ring, truncation: int) -> Character:
    return Character(conv_unit(hopf, ring, truncation))


def _multiplicative(hopf: HopfStructure, ring, truncation: int, on_generator) -> Character:
    """The character with ``on_generator(i, out)`` on each generator basis[i]
    of ``hopf.table(truncation)``, where the list out holds the values found
    so far (None for zero and for not yet known), and out[first] * out[rest]
    on each product."""
    table = hopf.table(truncation)
    out = [None] * len(table.basis)
    out[0] = ring.one  # the unit comes first
    for i in range(1, len(out)):
        rest = table.rest[i]
        if rest:
            a, b = out[table.first[i]], out[rest]
            if a is None or b is None:
                continue
            value = ring.mul(a, b)
        else:
            value = on_generator(i, out)
        if not ring.is_zero(value):
            out[i] = value
    return Character._wrap(TruncatedFunctional.from_value_list(hopf, ring, truncation, out))


def char_from_generator_values(
    values: Mapping, hopf: HopfStructure, truncation: int, ring=RATIONAL
) -> Character:
    """The unique character with the given values on generators (single-tree
    forests, one-letter words); missing generators count as zero."""
    basis = hopf.table(truncation).basis
    return _multiplicative(hopf, ring, truncation,
                           lambda i, out: values.get(basis[i], ring.zero))


def char_mul(phi: Character, psi: Character) -> Character:
    """Group product: the convolution on generators, extended multiplicatively."""
    f, g = phi.functional, psi.functional
    f._compatible(g)
    hopf, ring, n = f.hopf, f.ring, f.truncation
    table, fv, gv = hopf.table(n), f.value_list(), g.value_list()
    return _multiplicative(hopf, ring, n, lambda i, out: convolve_at(table, ring, fv, gv, i))


def char_inv(phi: Character) -> Character:
    """Group inverse: phi^-1(g) = -convolve_at(phi^-1, phi, g) on a generator g,
    where the term phi^-1(g) * phi(1) drops out because g is not yet known."""
    f = phi.functional
    hopf, ring, n = f.hopf, f.ring, f.truncation
    table, fv = hopf.table(n), f.value_list()
    return _multiplicative(hopf, ring, n,
                           lambda i, out: ring.neg(convolve_at(table, ring, out, fv, i)))


def char_exp(phi: InfinitesimalCharacter) -> Character:
    """The convolution exponential, landing in the character group."""
    return Character(series.exp(phi.functional))


def char_log(psi: Character) -> InfinitesimalCharacter:
    """The convolution logarithm: the infinitesimal character phi whose
    evolution exp(t phi) reaches psi at t = 1.  On each generator g the
    evolution kernel gives eta(g) = rest + t phi(g), so phi(g) = psi(g) - rest(1)."""
    from .evolution import Poly, evolution_pass  # evolution imports this module
    f, ring = psi.functional, psi.functional.ring

    def rate(g, rest):
        return Poly(ring, [ring.add(f.value(g), ring.neg(rest(1)))])

    _eta, phi = evolution_pass(f.hopf, ring, f.truncation, rate)
    return InfinitesimalCharacter(TruncatedFunctional.from_value_list(
        f.hopf, ring, f.truncation, [None if p is None else p.coefficients[0] for p in phi]))


def lie_bracket(
    phi: InfinitesimalCharacter, psi: InfinitesimalCharacter
) -> InfinitesimalCharacter:
    """Commutator bracket.  Infinitesimal characters are closed under it, so
    the bracket is fixed by its generator values, (f * g - g * f)(g_i), and
    vanishes on the unit and on products."""
    f, g = phi.functional, psi.functional
    f._compatible(g)
    hopf, ring, n = f.hopf, f.ring, f.truncation
    table, fv, gv = hopf.table(n), f.value_list(), g.value_list()
    values = {table.basis[i]: ring.add(convolve_at(table, ring, fv, gv, i),
                                       ring.neg(convolve_at(table, ring, gv, fv, i)))
              for i, rest in enumerate(table.rest) if i and not rest}
    return InfinitesimalCharacter(TruncatedFunctional(hopf, ring, n, values))


# -- the Butcher-group view on the rooted-forest instance ---------------------


def char_from_tree_values(
    values: Mapping[RootedTree, object], truncation: int, ring=RATIONAL
) -> Character:
    """The unique character with the given values on single trees.

    Missing trees count as zero; forests get the product of their tree values.
    """
    generator_values = {single_tree_forest(t): v for t, v in values.items()}
    return char_from_generator_values(generator_values, ck_hopf(), truncation, ring)


def tree_values(phi: Character) -> dict[RootedTree, object]:
    """Restriction of a rooted-forest character to single trees."""
    out = {}
    for basis, value in phi.functional.values.items():
        if len(basis.trees) == 1:
            out[basis.trees[0]] = value
    return out


def tree_values_to_json_dict(
    values: Mapping[RootedTree, object], truncation: int, ring=RATIONAL
) -> dict:
    """Tree-value map codec: ``{"truncation": N, "trees": {"[]": "1", ...}}``."""
    data = {"truncation": truncation}
    if ring.key != "rational":
        data["ring"] = ring.key
    data["trees"] = {
        tree.serial: ring.format_element(value, tree)
        for tree, value in sorted(
            values.items(), key=lambda kv: (kv[0].order, kv[0].serial)
        )
        if not ring.is_zero(value)
    }
    return data


def tree_values_from_json_dict(data: dict):
    """Inverse codec; returns (values, truncation, ring)."""
    truncation = parse_truncation(json_field(data, "truncation"))
    ring = resolve_ring(data.get("ring", "rational"))
    values = {
        parse_tree(key): ring.parse_element(text)
        for key, text in json_entries(data, "trees", dict, str, {}).items()
    }
    return values, truncation, ring


def infinitesimal_from_tree_values(
    values: Mapping[RootedTree, object], truncation: int, ring=RATIONAL
) -> InfinitesimalCharacter:
    """The infinitesimal character supported on single trees with the given
    values (zero on the unit and on every multi-tree forest)."""
    out = {single_tree_forest(t): v for t, v in values.items() if t.order <= truncation}
    return InfinitesimalCharacter(TruncatedFunctional(ck_hopf(), ring, truncation, out))


def butcher_compose(
    a: Mapping[RootedTree, object],
    b: Mapping[RootedTree, object],
    truncation: int,
    ring=RATIONAL,
) -> dict[RootedTree, object]:
    """The Butcher composition law on tree maps: the tree values of the
    character product, with an entry (possibly zero) for every tree of order
    <= N."""
    product = tree_values(char_mul(char_from_tree_values(a, truncation, ring),
                                   char_from_tree_values(b, truncation, ring)))
    return {t: product.get(t, ring.zero) for level in enumerate_trees(truncation) for t in level}


# -- the additive view on the tensor instance ---------------------------------


def tensor_char_group_iso(phi: Character) -> tuple:
    """Restrict a tensor-algebra character to the degree-1 words.

    This is a group isomorphism onto d-vectors under componentwise addition.
    """
    hopf = phi.functional.hopf
    return tuple(phi.functional.value(w) for w in hopf.basis(1))


def tensor_char_from_vector(
    vector, hopf: HopfStructure, truncation: int, ring=RATIONAL
) -> Character:
    """Multiplicative extension of degree-1 values to a tensor-algebra character."""
    return char_from_generator_values(dict(zip(hopf.basis(1), vector)), hopf, truncation, ring)

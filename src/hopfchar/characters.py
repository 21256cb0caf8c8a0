"""Characters and infinitesimal characters at a finite truncation.

A character is a unital algebra homomorphism into the coefficient ring; an
infinitesimal character is the corresponding derivation-like object.  Both
built-in algebras are free, so with b = first * rest from the
``IndexTable``, membership is one pass over the basis in degree order:
phi(b) = phi(first) phi(rest) (or 0) on every product b.  A character is
fixed by its generator values, and ``_multiplicative_values`` builds every
one, on value lists in basis order: the product evaluates the convolution
kernel on generators, the inverse solves phi^-1 * phi = unit there, the
Butcher law evaluates the kernel on trees only, and the evolution solve
builds one over R[t], with its products of degree N left out by index.
The exponential is a bijection from infinitesimal characters onto
characters.  ``char_exp`` and its inverse ``char_log`` both run
``series.apply_series`` on the unit and the generators, a set closed under
right factors: ``char_exp`` extends the result by ``_multiplicative``, and
``char_log`` leaves it zero on products.  So ``char_bch``, the truncated BCH
combination log(exp(x) * exp(y)), also runs on the unit and the generators
only.  The commutator bracket is the Lie structure, computed on the
generators too.
"""

from __future__ import annotations

from typing import Mapping

from . import series
from .convolution import (TruncatedFunctional, conv_unit, convolve_at, json_field,
                          json_values, parse_truncation, require_value_budget)
from .errors import IncompatibleError, MembershipError
from .hopf import HopfStructure, TensorHopf, ck_hopf
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
    table, zero, get = phi.hopf.table(phi.truncation), phi.ring.zero, phi.values.get
    values = [get(b, zero) for b in table.basis]
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


class _Checked:
    """A functional that passed its class's membership predicate at
    construction: ``_check`` returns None or the ``Violation`` to report.  It
    looks the predicate up in this module on every call, so that a wrapper set
    on the module attribute sees every membership check."""

    __slots__ = ("functional",)
    _noun: str

    def __init__(self, functional: TruncatedFunctional):
        violation = self._check(functional)
        if violation is not None:
            raise MembershipError(
                f"not {self._noun}: violated at {violation.describe(functional.ring)}")
        self.functional = functional

    @classmethod
    def _wrap(cls, functional: TruncatedFunctional):
        """Wrap without re-checking; for constructions that obey the predicate
        by design (multiplicative extension, a series on the generators)."""
        checked = cls.__new__(cls)
        checked.functional = functional
        return checked

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.functional == other.functional

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.functional!r})"


class Character(_Checked):
    """A functional that passed the character predicate at construction."""

    __slots__ = ()
    _noun = "a character"
    _check = staticmethod(lambda phi: character_violation(phi))


class InfinitesimalCharacter(_Checked):
    """A functional that passed the infinitesimal-character predicate."""

    __slots__ = ()
    _noun = "an infinitesimal character"
    _check = staticmethod(lambda phi: infinitesimal_violation(phi))


# -- group and Lie-algebra operations ----------------------------------------


def char_unit(hopf: HopfStructure, ring, truncation: int) -> Character:
    return Character(conv_unit(hopf, ring, truncation))


def _multiplicative_values(table, ring, on_generator, stop=None) -> list:
    """The kernel-form value list (None for zero) of the character with
    ``on_generator(i, out)`` on each generator basis[i] of ``table``, out holding
    the values so far (None for zero or unknown), and out[first] * out[rest] on
    the products before index ``stop`` (all for None).  Each value is stored
    untested: every reader takes a kernel zero as zero."""
    mul = ring.kernel_mul
    out = [None] * len(table.basis)
    out[0] = ring.to_kernel(ring.one)  # the unit comes first
    for i in range(1, len(out)):
        rest = table.rest[i]
        if not rest:
            out[i] = on_generator(i, out)
        elif stop is None or i < stop:
            a, b = out[table.first[i]], out[rest]
            if a is not None and b is not None:
                out[i] = mul(a, b)
    return out


def _multiplicative(hopf: HopfStructure, ring, truncation: int, on_generator) -> Character:
    out = _multiplicative_values(hopf.table(truncation), ring, on_generator)
    return Character._wrap(TruncatedFunctional.from_value_list(hopf, ring, truncation, out))


def _reading(values: Mapping, ring, key):
    """The ``on_generator`` reading values.get(key(i)) in kernel form, None if missing."""
    to_kernel = ring.to_kernel
    return lambda i, out: None if (v := values.get(key(i))) is None else to_kernel(v)


def char_from_generator_values(
    values: Mapping, hopf: HopfStructure, truncation: int, ring=RATIONAL
) -> Character:
    """The unique character with the given values on generators (single-tree
    forests, one-letter words); missing generators count as zero."""
    key = hopf.table(truncation).basis.__getitem__
    return _multiplicative(hopf, ring, truncation, _reading(values, ring, key))


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
    table, fv, neg = hopf.table(n), f.value_list(), ring.kernel_neg
    return _multiplicative(hopf, ring, n, lambda i, out: neg(convolve_at(table, ring, out, fv, i)))


def char_exp(phi: InfinitesimalCharacter) -> Character:
    """The convolution exponential, landing in the character group: Horner
    on the unit and the generators (closed under right factors, see
    ``IndexTable``), extended multiplicatively."""
    f = phi.functional
    on_generators = series.apply_series(series.exp_series(f.truncation), f,
                                        (0,) + f.hopf.table(f.truncation).generators)
    return char_from_generator_values(on_generators.values, f.hopf, f.truncation, f.ring)


def char_log(psi: Character) -> InfinitesimalCharacter:
    """The convolution logarithm log1p(psi - 1), back in the infinitesimal
    characters: Horner on the unit and the generators, as in ``char_exp``,
    and zero on products, so the result is not re-checked."""
    f = psi.functional
    return InfinitesimalCharacter._wrap(series.apply_series(
        series.log1p_series(f.truncation), f.drop_degree0(),
        (0,) + f.hopf.table(f.truncation).generators))


def char_bch(x: InfinitesimalCharacter, y: InfinitesimalCharacter) -> InfinitesimalCharacter:
    """The truncated BCH combination log(exp(x) * exp(y)), through
    ``char_exp``, ``char_mul`` and ``char_log``: on the unit and the
    generators only."""
    return char_log(char_mul(char_exp(x), char_exp(y)))


def lie_bracket(
    phi: InfinitesimalCharacter, psi: InfinitesimalCharacter
) -> InfinitesimalCharacter:
    """Commutator bracket.  Infinitesimal characters are closed under it, so
    the bracket is fixed by its generator values, (f * g - g * f)(g_i), and
    vanishes on the unit and on products, so it is not re-checked."""
    f, g = phi.functional, psi.functional
    f._compatible(g)
    hopf, ring, n = f.hopf, f.ring, f.truncation
    table, fv, gv, one = hopf.table(n), f.value_list(), g.value_list(), ring.to_kernel(ring.one)
    values = [None] * len(fv)
    for i in table.generators:  # the difference of two kernel values, as x * 1 - y * 1
        values[i] = ring.sum_products([(1, convolve_at(table, ring, fv, gv, i), one),
                                       (-1, convolve_at(table, ring, gv, fv, i), one)])
    return InfinitesimalCharacter._wrap(TruncatedFunctional.from_value_list(hopf, ring, n, values))


# -- the Butcher-group view on the rooted-forest instance ---------------------


def char_from_tree_values(
    values: Mapping[RootedTree, object], truncation: int, ring=RATIONAL
) -> Character:
    """The unique character with the given values on single trees.

    Missing trees count as zero; forests get the product of their tree values.
    """
    basis = ck_hopf().table(truncation).basis
    return _multiplicative(ck_hopf(), ring, truncation,
                           _reading(values, ring, lambda i: basis[i].trees[0]))


def tree_values(phi: Character) -> dict[RootedTree, object]:
    """Restriction of a rooted-forest character to single trees."""
    return {b.trees[0]: v for b, v in phi.functional.values.items() if len(b.trees) == 1}


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
    require_value_budget(ck_hopf(), ring, truncation)
    json_field(data, "trees")  # required: a functional's payload has none
    values = json_values(data, "trees", parse_tree, ring.parse_element)
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
    <= N in the order of ``enumerate_trees``.  The kernel runs on trees only:
    a tree's row reads b only on the unit and on trees, so only a is lifted."""
    if truncation < 1:
        enumerate_trees(truncation)  # raises its ValueError: there are no trees
    table = ck_hopf().table(truncation)
    tree = lambda i: table.basis[i].trees[0]
    f = _multiplicative_values(table, ring, _reading(a, ring, tree))
    g = [f[0]] + [None] * (len(f) - 1)  # the unit (first in f), then b on the trees
    for i in table.generators:
        g[i] = None if ring.is_zero(v := b.get(tree(i), ring.zero)) else ring.to_kernel(v)
    return {tree(i): ring.from_kernel(convolve_at(table, ring, f, g, i))
            for i in table.generators}


# -- the additive view on the tensor instance ---------------------------------


def tensor_char_group_iso(phi: Character) -> tuple:
    """Restrict a tensor-algebra character to the degree-1 words.

    This is a group isomorphism onto d-vectors under componentwise addition.
    """
    hopf = phi.functional.hopf
    _require_tensor(hopf)
    return tuple(phi.functional.value(w) for w in hopf.basis(1))


def tensor_char_from_vector(
    vector, hopf: HopfStructure, truncation: int, ring=RATIONAL
) -> Character:
    """Multiplicative extension of degree-1 values, one per letter, to a
    tensor-algebra character."""
    _require_tensor(hopf)
    letters = hopf.basis(1)
    if len(vector) != len(letters):
        raise IncompatibleError(
            f"{len(vector)} values for the {len(letters)} letters of {hopf.key}")
    return char_from_generator_values(dict(zip(letters, vector)), hopf, truncation, ring)


def _require_tensor(hopf: HopfStructure) -> None:
    if not isinstance(hopf, TensorHopf):
        raise IncompatibleError(f"the additive view needs tensor(d), not {hopf.key}")

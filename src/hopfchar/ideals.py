"""Homogeneous Hopf ideals given by finite generator sets, and the annihilator
subgroups they cut out of the character group.

A character (or infinitesimal character) annihilates the generated ideal as
soon as it vanishes on the generators of degree <= N: characters are
multiplicative, so values on products of a generator vanish, and infinitesimal
characters satisfy the derivation identity against the counit, which kills
generators.  ``annihilates`` therefore only evaluates generators; the tests
validate this shortcut against a per-degree linear-span oracle.

The flagship instance is the ideal of the symplectic tree maps, generated in
each degree by  graft(t,u) + graft(u,t) - t*u  over unordered tree pairs.
"""

from __future__ import annotations

import json
from typing import Iterator, Mapping, Union

from .characters import (
    Character,
    InfinitesimalCharacter,
    character_violation,
    infinitesimal_violation,
)
from .convolution import json_entries, json_field
from .errors import IdealError, MembershipError
from .hopf import GradedVector, HopfStructure, ck_hopf, resolve_hopf, vector_of
from .rings import RATIONAL
from .trees import RootedTree, butcher_product, enumerate_trees, single_tree_forest


class HopfIdealSpec:
    """A finite list of homogeneous generators of degree >= 1."""

    __slots__ = ("hopf", "generators")

    def __init__(self, hopf: HopfStructure, generators):
        gens = tuple(generators)
        for gen in gens:
            if gen.is_zero() or not gen.is_homogeneous():
                raise IdealError("generators must be nonzero and homogeneous")
            if gen.degree() < 1:  # so the counit kills every generator
                raise IdealError("generators must have degree >= 1")
        self.hopf = hopf
        self.generators = gens

    @property
    def max_degree(self) -> int:
        return max((gen.degree() for gen in self.generators), default=0)

    def generators_upto(self, degree: int) -> tuple[GradedVector, ...]:
        return tuple(g for g in self.generators if g.degree() <= degree)

    def to_json_dict(self) -> dict:
        return {
            "hopf": self.hopf.key,
            "generators": [
                {
                    basis.serial: str(coeff)
                    for basis, coeff in sorted(
                        gen, key=lambda kv: (kv[0].degree, kv[0].serial)
                    )
                }
                for gen in self.generators
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @staticmethod
    def from_json_dict(data: dict) -> "HopfIdealSpec":
        hopf = resolve_hopf(json_field(data, "hopf"))
        gens = [
            GradedVector(
                (hopf.parse_basis(key), RATIONAL.parse_element(text))
                for key, text in entry.items()
            )
            for entry in json_entries(data, "generators", list, dict, [])
        ]
        return HopfIdealSpec(hopf, gens)

    @staticmethod
    def from_json(text: str) -> "HopfIdealSpec":
        return HopfIdealSpec.from_json_dict(json.loads(text))

    def __repr__(self) -> str:
        return f"HopfIdealSpec({self.hopf.key}, {len(self.generators)} generators)"


def annihilator_violation(
    phi: Union[Character, InfinitesimalCharacter], ideal: HopfIdealSpec
):
    """The first generator of degree <= N that phi does not kill, or None.

    A raw functional is accepted if it passes one of the two membership
    predicates (that is what makes generator-only evaluation sufficient);
    otherwise ``MembershipError`` is raised.
    """
    if isinstance(phi, (Character, InfinitesimalCharacter)):
        functional = phi.functional
    else:
        functional = phi
        if character_violation(functional) is not None and \
                infinitesimal_violation(functional) is not None:
            raise MembershipError(
                "annihilator test needs a character or infinitesimal character"
            )
    ring = functional.ring
    for gen in ideal.generators_upto(functional.truncation):
        if not ring.is_zero(functional.evaluate(gen)):
            return gen
    return None


def annihilates(phi: Union[Character, InfinitesimalCharacter], ideal: HopfIdealSpec) -> bool:
    """Whether phi kills every generator (hence the whole ideal) up to N."""
    return annihilator_violation(phi, ideal) is None


def tree_pairs(truncation: int) -> Iterator[tuple[RootedTree, RootedTree]]:
    """Each unordered pair of trees with total order <= N once, as
    ``(tau, upsilon)`` in tree enumeration order; none below N = 2."""
    trees = [t for level in enumerate_trees(max(truncation - 1, 1)) for t in level]
    for i, tau in enumerate(trees):
        for upsilon in trees[i:]:
            if tau.order + upsilon.order <= truncation:
                yield tau, upsilon


def symplectic_generators(truncation: int) -> HopfIdealSpec:
    """Generators of the symplectic ideal: for each unordered pair of trees
    with total order <= N,  graft(t,u) + graft(u,t) - t*u.  Each generator is
    homogeneous (grafting preserves the node count)."""
    if truncation < 2:
        raise IdealError(f"symplectic generators need truncation >= 2, got {truncation}")
    generators = [
        vector_of(single_tree_forest(butcher_product(tau, upsilon)))
        + vector_of(single_tree_forest(butcher_product(upsilon, tau)))
        - vector_of(single_tree_forest(tau).union(single_tree_forest(upsilon)))
        for tau, upsilon in tree_pairs(truncation)
    ]
    return HopfIdealSpec(ck_hopf(), generators)


def is_symplectic(
    values: Mapping[RootedTree, object], truncation: int, ring=RATIONAL
) -> bool:
    """Direct symplecticity of a tree map:
    a(graft(t,u)) + a(graft(u,t)) = a(t) a(u) for all pairs with total order <= N.
    Missing trees count as zero.  Agrees with ``annihilates`` through the
    tree-map/character correspondence."""
    for tau, upsilon in tree_pairs(truncation):
        lhs = ring.add(
            values.get(butcher_product(tau, upsilon), ring.zero),
            values.get(butcher_product(upsilon, tau), ring.zero),
        )
        rhs = ring.mul(values.get(tau, ring.zero), values.get(upsilon, ring.zero))
        if lhs != rhs:
            return False
    return True

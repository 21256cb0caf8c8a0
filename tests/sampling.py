"""Seeded random generators for functionals, characters and annihilating
elements; the property-test suites drive everything through these.

Characters are sampled by choosing bounded rational values on the generators
(single trees, degree-1 words) and extending multiplicatively.  Annihilating
infinitesimal characters come from an exact null-space computation: the
constraints "kill each generator" are linear in the tree values.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hopfchar.characters import (
    Character,
    InfinitesimalCharacter,
    char_exp,
    char_from_generator_values,
    infinitesimal_from_tree_values,
)
from hopfchar.convolution import TruncatedFunctional
from hopfchar.hopf import HopfStructure
from hopfchar.ideals import HopfIdealSpec
from hopfchar.rings import RATIONAL, TruncatedSeriesRing
from hopfchar.trees import RootedTree, enumerate_trees
from linalg import nullspace


def random_fraction(rng: random.Random, bound: int = 9) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_ring_element(ring, rng: random.Random, bound: int = 9):
    if isinstance(ring, TruncatedSeriesRing):
        return ring.element(
            random_fraction(rng, bound) for _ in range(ring.modulus_degree + 1)
        )
    return random_fraction(rng, bound)


def random_unit(ring, rng: random.Random, bound: int = 9):
    while True:
        value = random_ring_element(ring, rng, bound)
        if ring.coordinates(value)[0]:  # a nonzero constant term
            return value


def random_functional(
    hopf: HopfStructure, ring, truncation: int, rng: random.Random,
    density: float = 0.7,
) -> TruncatedFunctional:
    values = {
        basis: random_ring_element(ring, rng)
        for basis in hopf.all_basis_upto(truncation)
        if rng.random() < density
    }
    return TruncatedFunctional(hopf, ring, truncation, values)


def random_invertible(
    hopf: HopfStructure, ring, truncation: int, rng: random.Random
) -> TruncatedFunctional:
    phi = random_functional(hopf, ring, truncation, rng)
    values = dict(phi.values)
    values[hopf.unit_basis] = random_unit(ring, rng)
    return TruncatedFunctional(hopf, ring, truncation, values)


def random_ideal_element(
    hopf: HopfStructure, ring, truncation: int, rng: random.Random
) -> TruncatedFunctional:
    """A random element of the augmentation ideal (zero degree-0 part)."""
    return random_functional(hopf, ring, truncation, rng).drop_degree0()


def random_tree_values(
    truncation: int, rng: random.Random, ring=RATIONAL
) -> dict[RootedTree, object]:
    return {
        tree: random_ring_element(ring, rng)
        for level in enumerate_trees(truncation)
        for tree in level
    }


def random_character(
    hopf: HopfStructure, ring, truncation: int, rng: random.Random
) -> Character:
    table = hopf.table(truncation)
    values = {table.basis[i]: random_ring_element(ring, rng) for i in table.generators}
    return char_from_generator_values(values, hopf, truncation, ring)


def random_infinitesimal(
    hopf: HopfStructure, ring, truncation: int, rng: random.Random
) -> InfinitesimalCharacter:
    table = hopf.table(truncation)
    values = {table.basis[i]: random_ring_element(ring, rng) for i in table.generators}
    return InfinitesimalCharacter(TruncatedFunctional(hopf, ring, truncation, values))


def annihilating_tree_value_basis(
    ideal: HopfIdealSpec, truncation: int
) -> tuple[list[RootedTree], list[list[Fraction]]]:
    """Tree coordinates and a basis of the tree-value subspace on which the
    induced infinitesimal characters kill the ideal's generators.

    An infinitesimal character vanishes on multi-tree forests, so evaluating a
    generator only sees its single-tree terms; each generator of degree <= N
    contributes one linear constraint on the tree values.
    """
    trees = [t for level in enumerate_trees(truncation) for t in level]
    index = {tree: i for i, tree in enumerate(trees)}
    constraints = []
    for gen in ideal.generators_upto(truncation):
        row = [Fraction(0)] * len(trees)
        for basis, coeff in gen:
            if len(basis.trees) == 1:
                row[index[basis.trees[0]]] += coeff
        if any(row):
            constraints.append(row)
    return trees, nullspace(constraints, len(trees))


def random_annihilating_infinitesimal(
    ideal: HopfIdealSpec, ring, truncation: int, rng: random.Random
) -> InfinitesimalCharacter:
    trees, basis = annihilating_tree_value_basis(ideal, truncation)
    values = {tree: ring.zero for tree in trees}
    for vec in basis:
        weight = random_ring_element(ring, rng)
        for tree, coord in zip(trees, vec):
            if coord:
                values[tree] = ring.add(values[tree], ring.scale(weight, coord))
    return infinitesimal_from_tree_values(values, truncation, ring)


def random_annihilating_character(
    ideal: HopfIdealSpec, ring, truncation: int, rng: random.Random
) -> Character:
    """exp of a random annihilating infinitesimal character; lands in the
    annihilator subgroup."""
    return char_exp(random_annihilating_infinitesimal(ideal, ring, truncation, rng))

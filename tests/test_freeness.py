"""The generator-only routes against the older pairwise and raw-formula routes
kept in ``helpers`` as oracles: the coproduct tables, membership predicates,
Butcher composition, the character inverse, the convolution inverse and the
evolution solver; and the character logarithm against the Horner series in
``series``."""

import random
from fractions import Fraction

import pytest

from helpers import (
    butcher_compose_raw,
    conv_inverse_geometric,
    coproduct_by_components,
    coproduct_by_recursion,
    evolve_polynomials_by_basis,
    log,
    pairwise_violations,
    poly_coefficients,
    split,
    unshuffle_by_masks,
)
from hopfchar.characters import (
    butcher_compose,
    char_exp,
    char_from_generator_values,
    char_inv,
    char_log,
    character_violation,
    infinitesimal_violation,
)
from hopfchar.convolution import TruncatedFunctional, conv_inverse
from hopfchar.evolution import FunctionalCurve, evolve, evolve_polynomials
from hopfchar.hopf import CKHopf, TensorHopf, ck_hopf, tensor_hopf
from hopfchar.rings import RATIONAL, TruncatedSeriesRing
from sampling import (
    random_character,
    random_functional,
    random_infinitesimal,
    random_invertible,
    random_ring_element,
    random_tree_values,
)

SERIES = TruncatedSeriesRing(2)
CASES = [
    pytest.param(ck_hopf(), RATIONAL, 5, id="ck"),
    pytest.param(tensor_hopf(2), RATIONAL, 5, id="tensor(2)"),
    pytest.param(ck_hopf(), SERIES, 5, id="ck-series:2"),
]
LOG_CASES = CASES + [pytest.param(tensor_hopf(3), RATIONAL, 4, id="tensor(3)")]


@pytest.mark.parametrize("make, oracle, truncation", [
    pytest.param(CKHopf, coproduct_by_components, 6, id="ck"),
    pytest.param(lambda: TensorHopf(2), unshuffle_by_masks, 6, id="tensor(2)"),
    pytest.param(lambda: TensorHopf(3), unshuffle_by_masks, 4, id="tensor(3)"),
])
def test_coproduct_tables_match_oracles(make, oracle, truncation):
    # A fresh instance, read from the top degree down: the first call builds
    # the whole table of the top degree.
    hopf = make()
    for basis in reversed(hopf.all_basis_upto(truncation)):
        terms = hopf.coproduct(basis)
        table = {(left, right): coeff for coeff, left, right in terms}
        assert len(table) == len(terms)  # equal pairs combined
        assert all(type(c) is Fraction and c.denominator == 1 and c > 0 for c in table.values())
        assert table == oracle(basis)


@pytest.mark.parametrize("make, truncation", [
    pytest.param(CKHopf, 8, id="ck"),
    pytest.param(lambda: TensorHopf(2), 7, id="tensor(2)"),
    pytest.param(lambda: TensorHopf(3), 5, id="tensor(3)"),
])
def test_index_rows_match_the_object_recursion(make, truncation):
    hopf, memo = make(), {}
    table = hopf.table(truncation)
    basis = table.basis
    for element, row in zip(basis, table.coproduct):
        pairs = {(basis[left], basis[right]): c for c, left, right in row}
        assert len(pairs) == len(row)  # equal pairs combined
        assert all(type(c) is int and c > 0 for c in pairs.values())
        assert pairs == coproduct_by_recursion(hopf, element, memo)


@pytest.mark.parametrize("make, truncation", [
    pytest.param(CKHopf, 7, id="ck"),
    pytest.param(lambda: TensorHopf(2), 6, id="tensor(2)"),
])
def test_smaller_tables_are_prefixes(make, truncation):
    hopf = make()
    top = hopf.table(truncation)
    for degree in range(truncation):
        table = hopf.table(degree)
        size = len(table.basis)
        assert table.basis == top.basis[:size]
        assert (table.first, table.rest) == (top.first[:size], top.rest[:size])
        assert table.coproduct == top.coproduct[:size]


@pytest.mark.parametrize("make, truncation, size, terms", [
    pytest.param(CKHopf, 9, 1205, 37702, id="ck-9"),
    pytest.param(CKHopf, 10, 3047, 135017, id="ck-10"),
    pytest.param(lambda: TensorHopf(2), 7, 255, 8655, id="tensor(2)-7"),
])
def test_table_sizes(make, truncation, size, terms):
    table = make().table(truncation)
    assert len(table.basis) == size
    assert sum(map(len, table.coproduct)) == terms


def _pair_degree(pair) -> int:
    return pair[0].degree + pair[1].degree


def _products(hopf, truncation):
    return [b for b in hopf.all_basis_upto(truncation) if split(b)[1].degree]


def _with_value(phi, basis, value):
    values = dict(phi.values)
    values[basis] = value
    return TruncatedFunctional(phi.hopf, phi.ring, phi.truncation, values)


def _membership_inputs(hopf, ring, truncation, rng):
    """Characters, infinitesimals, dense non-characters (unit value 1 and 0),
    and characters and infinitesimals with one product value changed."""
    products = _products(hopf, truncation)
    out = []
    for _ in range(4):
        char = random_character(hopf, ring, truncation, rng).functional
        inf = random_infinitesimal(hopf, ring, truncation, rng).functional
        dense = random_functional(hopf, ring, truncation, rng)
        out += [char, inf, _with_value(dense, hopf.unit_basis, ring.one), dense.drop_degree0()]
        target = rng.choice(products)
        out.append(_with_value(char, target, ring.add(char.value(target), ring.one)))
        out.append(_with_value(inf, rng.choice(products), random_ring_element(ring, rng)))
    return out


@pytest.mark.parametrize("hopf, ring, truncation", CASES)
def test_predicates_agree_with_pairwise_oracle(hopf, ring, truncation):
    rng = random.Random(71)
    verdicts = set()
    for phi in _membership_inputs(hopf, ring, truncation, rng):
        for predicate, infinitesimal in (
            (character_violation, False),
            (infinitesimal_violation, True),
        ):
            found = predicate(phi)
            oracle = list(pairwise_violations(phi, infinitesimal))
            verdicts.add((infinitesimal, found is None))
            if found is None:
                assert not oracle
                continue
            assert found in oracle
            assert _pair_degree(found) == min(map(_pair_degree, oracle))
    # both predicates saw members and non-members
    assert verdicts == {(False, True), (False, False), (True, True), (True, False)}


@pytest.mark.parametrize("ring", [RATIONAL, SERIES], ids=["rational", "series:2"])
def test_butcher_compose_matches_raw_formula(ring):
    rng = random.Random(72)
    for truncation in (1, 3, 5):
        for _ in range(4):
            a = random_tree_values(truncation, rng, ring)
            b = random_tree_values(truncation, rng, ring)
            sparse = dict(list(a.items())[::3])
            for x, y in ((a, b), (b, a), (sparse, b), (a, {})):
                assert butcher_compose(x, y, truncation, ring) == butcher_compose_raw(
                    x, y, truncation, ring
                )


@pytest.mark.parametrize("hopf, ring, truncation", CASES)
def test_char_inv_matches_antipode_precomposition(hopf, ring, truncation):
    rng = random.Random(73)
    for _ in range(4):
        phi = random_character(hopf, ring, truncation, rng)
        assert char_inv(phi).functional == phi.functional.precompose_antipode()


@pytest.mark.parametrize("hopf, ring, truncation", CASES)
def test_conv_inverse_matches_geometric_series(hopf, ring, truncation):
    rng = random.Random(74)
    for _ in range(4):
        phi = random_invertible(hopf, ring, truncation, rng)
        assert conv_inverse(phi) == conv_inverse_geometric(phi)


def _curves(hopf, ring, truncation, rng):
    """Curves of polynomial degree 0, 1 and 2, and one whose coefficients
    vanish on every other generator."""
    def coefficient():
        return random_infinitesimal(hopf, ring, truncation, rng).functional

    curves = [FunctionalCurve([coefficient() for _ in range(k + 1)]) for k in range(3)]
    table = hopf.table(truncation)
    kept = [table.basis[i] for i in table.generators][::2]
    sparse = [TruncatedFunctional(hopf, ring, truncation, {g: c.value(g) for g in kept})
              for c in (coefficient(), coefficient())]
    return curves + [FunctionalCurve(sparse)]


@pytest.mark.parametrize("hopf, ring, truncation", CASES)
def test_evolution_matches_per_basis_integration(hopf, ring, truncation):
    rng = random.Random(75)
    for curve in _curves(hopf, ring, truncation, rng):
        oracle = evolve_polynomials_by_basis(curve)
        assert poly_coefficients(evolve_polynomials(curve)) == poly_coefficients(oracle)
        for t in (0, Fraction(1, 2), 1, -2):
            expected = {b: poly(t) for b, poly in oracle.items()}
            assert evolve(curve, t) == TruncatedFunctional(hopf, ring, truncation, expected)


def _characters(hopf, ring, truncation, rng):
    """Random characters, and characters with values on every other generator,
    on the top-degree generators only, and on none (the unit)."""
    table = hopf.table(truncation)
    gens = [table.basis[i] for i in table.generators]
    chars = [random_character(hopf, ring, truncation, rng) for _ in range(3)]
    for kept in (gens[::2], [g for g in gens if g.degree == truncation], []):
        values = {g: random_ring_element(ring, rng) for g in kept}
        chars.append(char_from_generator_values(values, hopf, truncation, ring))
    return chars


@pytest.mark.parametrize("hopf, ring, truncation", LOG_CASES)
def test_char_log_matches_horner_series(hopf, ring, truncation):
    rng = random.Random(76)
    for psi in _characters(hopf, ring, truncation, rng):
        assert char_log(psi).functional == log(psi.functional)


@pytest.mark.parametrize("hopf, ring, truncation", LOG_CASES)
def test_char_log_inverts_char_exp(hopf, ring, truncation):
    rng = random.Random(77)
    for _ in range(4):
        x = random_infinitesimal(hopf, ring, truncation, rng)
        assert char_log(char_exp(x)) == x


@pytest.mark.parametrize("hopf, ring, truncation", LOG_CASES)
def test_factor_table_and_generators_match_split(hopf, ring, truncation):
    basis = hopf.all_basis_upto(truncation)
    table = hopf.table(truncation)
    assert [(b, table.basis[f], table.basis[r])
            for b, f, r in zip(table.basis, table.first, table.rest)] == [
        (b, *split(b)) for b in basis
    ]
    assert [table.basis[i] for i in table.generators] == [
        b for b in basis if b.degree and not split(b)[1].degree
    ]

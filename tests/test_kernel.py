"""The index-table convolution kernel against the dict-keyed kernel in
``helpers``: every operation routed through it returns the oracle's exact
values, and every ring's ``sum_products`` equals the plain fold."""

import random
from fractions import Fraction

import pytest

from helpers import (
    FoldPolyRing,
    char_inv_by_dict,
    char_log_by_dict,
    char_mul_by_dict,
    conv_inverse_by_dict,
    convolve_by_dict,
    evolve_polynomials_by_dict,
    multiplicative_by_dict,
)
from hopfchar.characters import butcher_compose, char_inv, char_log, char_mul
from hopfchar.convolution import TruncatedFunctional, conv_inverse, convolve
from hopfchar.evolution import FunctionalCurve, Poly, PolyRing, evolve_polynomials
from hopfchar.hopf import ck_hopf, tensor_hopf
from hopfchar.rings import RATIONAL, TruncatedSeriesRing
from hopfchar.sampling import (
    random_character,
    random_functional,
    random_infinitesimal,
    random_invertible,
    random_ring_element,
    random_tree_values,
)
from hopfchar.trees import single_tree_forest

CK = ck_hopf()
SERIES = TruncatedSeriesRing(2)

CASES = [
    (CK, RATIONAL, 6),
    (tensor_hopf(2), RATIONAL, 6),
    (tensor_hopf(3), RATIONAL, 4),
    (CK, SERIES, 5),
]
IDS = [f"{h.key}/{r.key}/N={n}" for h, r, n in CASES]


@pytest.mark.parametrize("hopf, ring, truncation", CASES, ids=IDS)
def test_convolve_and_inverse_match_dict_kernel(hopf, ring, truncation):
    rng = random.Random(81)
    for _ in range(3):
        f = random_functional(hopf, ring, truncation, rng)
        g = random_functional(hopf, ring, truncation, rng, density=0.3)
        assert convolve(f, g) == convolve_by_dict(f, g)
        h = random_invertible(hopf, ring, truncation, rng)
        assert conv_inverse(h) == conv_inverse_by_dict(h)


@pytest.mark.parametrize("hopf, ring, truncation", CASES, ids=IDS)
def test_group_product_and_inverse_match_dict_kernel(hopf, ring, truncation):
    rng = random.Random(82)
    for _ in range(3):
        a = random_character(hopf, ring, truncation, rng)
        b = random_character(hopf, ring, truncation, rng)
        assert char_mul(a, b).functional == char_mul_by_dict(a.functional, b.functional)
        assert char_inv(a).functional == char_inv_by_dict(a.functional)


@pytest.mark.parametrize("hopf, ring, truncation", CASES, ids=IDS)
def test_evolution_and_log_match_dict_kernel(hopf, ring, truncation):
    rng = random.Random(83)
    x = random_infinitesimal(hopf, ring, truncation, rng).functional
    y = random_infinitesimal(hopf, ring, truncation, rng).functional
    curve = FunctionalCurve([x, y, x.scale(Fraction(-2, 3))])
    assert evolve_polynomials(curve) == evolve_polynomials_by_dict(curve)
    psi = random_character(hopf, ring, truncation, rng)
    assert char_log(psi).functional == char_log_by_dict(psi.functional)


@pytest.mark.parametrize("ring, truncation", [(RATIONAL, 6), (SERIES, 5)], ids=["rational", "series:2"])
def test_butcher_compose_matches_dict_kernel(ring, truncation):
    rng = random.Random(84)

    def character(tree_values):
        values = {single_tree_forest(t): v for t, v in tree_values.items()}
        return TruncatedFunctional(CK, ring, truncation, multiplicative_by_dict(
            CK, ring, truncation, lambda g, out: values.get(g, ring.zero)))

    for _ in range(3):
        a = random_tree_values(truncation, rng, ring)
        b = random_tree_values(truncation, rng, ring)
        product = char_mul_by_dict(character(a), character(b))
        want = {f.trees[0]: v for f, v in product.values.items() if len(f.trees) == 1}
        got = butcher_compose(a, b, truncation, ring)
        assert {t: v for t, v in got.items() if not ring.is_zero(v)} == want


# -- sum_products --------------------------------------------------------------


def _fold(ring, terms):
    total = ring.zero
    for c, a, b in terms:
        total = ring.add(total, ring.scale(ring.mul(a, b), Fraction(c)))
    return total


def _element(ring, rng, huge=False):
    if isinstance(ring, PolyRing):
        return Poly(ring.base, [_element(ring.base, rng, huge) for _ in range(3)])
    if huge:  # denominators far above 2^64
        value = Fraction(rng.randint(-10**30, 10**30), rng.randint(2**64, 2**80))
        return ring.element([value, -value / 3]) if ring is SERIES else value
    return random_ring_element(ring, rng)


SUM_RINGS = [RATIONAL, SERIES, PolyRing(RATIONAL), PolyRing(SERIES)]
SUM_IDS = ["rational", "series:2", "poly/rational", "poly/series:2"]


@pytest.mark.parametrize("ring", SUM_RINGS, ids=SUM_IDS)
def test_sum_products_equals_the_fold(ring):
    rng = random.Random(85)
    fold_ring = FoldPolyRing(ring.base) if isinstance(ring, PolyRing) else ring
    shapes = {
        "no terms": [],
        "one term": [(1, _element(ring, rng), _element(ring, rng))],
        "c > 1": [(c, _element(ring, rng), _element(ring, rng)) for c in (2, 5, 1, 12)],
        "huge denominators": [(c, _element(ring, rng, True), _element(ring, rng, True))
                              for c in (1, 3, 7)],
    }
    a, b = _element(ring, rng), _element(ring, rng)
    minus_a = a.scale(-1) if isinstance(a, Poly) else ring.neg(a)
    shapes["negative values"] = [(1, a, b), (3, minus_a, a), (2, minus_a, minus_a), (1, minus_a, b)]
    for name, terms in shapes.items():
        assert ring.sum_products(terms) == _fold(fold_ring, terms), name
    assert ring.sum_products([]) == ring.zero
    assert ring.sum_products([(1, a, b), (1, minus_a, b)]) == ring.zero

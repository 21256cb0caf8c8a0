"""The index-table convolution kernel against the dict-keyed kernel in
``helpers``: every operation routed through it returns the oracle's exact
values, the Lie bracket on generators equals two full convolutions, and every
ring's ``sum_products`` and ``sum_row`` equal the plain fold."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from helpers import (
    FoldPolyRing,
    FractionPoly,
    SchoolbookSeriesRing,
    SumPolyRing,
    char_inv_by_dict,
    char_log_by_dict,
    char_mul_by_dict,
    conv_inverse_by_dict,
    convolve_by_dict,
    evolve_polynomials_by_dict,
    lie_bracket_by_convolution,
    multiplicative_by_dict,
    poly_coefficients,
)
from hopfchar.characters import (butcher_compose, char_from_generator_values, char_inv, char_log,
                                 char_mul, lie_bracket)
from hopfchar.convolution import TruncatedFunctional, conv_inverse, convolve, convolve_at
from hopfchar.evolution import FunctionalCurve, Poly, PolyRing, evolve, evolve_polynomials
from hopfchar.hopf import ck_hopf, tensor_hopf
from hopfchar.rings import RATIONAL, TruncatedSeriesRing
from sampling import (
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


def _primes(count: int) -> list[int]:
    primes, k = [], 2
    while len(primes) < count:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


PRIMES = _primes(500)


def _prime_values(ring, basis, offset: int = 0) -> dict:
    """Nonzero values on ``basis`` whose rational coordinates each have a
    distinct prime denominator, with signs mixed: coordinate j of the k-th
    value is +-(k + j + 1) / p, a new prime p each time."""
    primes = iter(PRIMES[offset:])
    return {b: ring.from_coordinates([Fraction((-1) ** (k + j) * (k + j + 1), next(primes))
                                      for j in range(ring.width)])
            for k, b in enumerate(basis)}


def _prime_functional(hopf, ring, truncation):
    """A dense invertible functional with distinct prime denominators."""
    return TruncatedFunctional(hopf, ring, truncation,
                               _prime_values(ring, hopf.all_basis_upto(truncation)))


def _prime_character(hopf, ring, truncation, offset: int = 0):
    """The character with distinct prime denominators on the generators."""
    table = hopf.table(truncation)
    values = _prime_values(ring, [table.basis[i] for i in table.generators], offset)
    return char_from_generator_values(values, hopf, truncation, ring)


@pytest.mark.parametrize("hopf, ring, truncation", CASES, ids=IDS)
def test_convolve_and_inverse_match_dict_kernel(hopf, ring, truncation):
    rng = random.Random(81)
    for _ in range(3):
        f = random_functional(hopf, ring, truncation, rng)
        g = random_functional(hopf, ring, truncation, rng, density=0.3)
        assert convolve(f, g) == convolve_by_dict(f, g)
        h = random_invertible(hopf, ring, truncation, rng)
        assert conv_inverse(h) == conv_inverse_by_dict(h)
    h = _prime_functional(hopf, ring, truncation)
    assert convolve(h, g) == convolve_by_dict(h, g)
    assert conv_inverse(h) == conv_inverse_by_dict(h)


@pytest.mark.parametrize("hopf, ring, truncation", CASES, ids=IDS)
def test_group_product_and_inverse_match_dict_kernel(hopf, ring, truncation):
    rng = random.Random(82)
    for _ in range(3):
        a = random_character(hopf, ring, truncation, rng)
        b = random_character(hopf, ring, truncation, rng)
        assert char_mul(a, b).functional == char_mul_by_dict(a.functional, b.functional)
        assert char_inv(a).functional == char_inv_by_dict(a.functional)
    a, b = _prime_character(hopf, ring, truncation), _prime_character(hopf, ring, truncation, 250)
    assert char_mul(a, b).functional == char_mul_by_dict(a.functional, b.functional)
    assert char_inv(a).functional == char_inv_by_dict(a.functional)


EVOLUTION_CASES = ([(CK, RATIONAL, n) for n in range(1, 8)]
                   + [(tensor_hopf(2), RATIONAL, n) for n in range(1, 7)]
                   + [(tensor_hopf(3), RATIONAL, 4)] + [(CK, SERIES, n) for n in range(1, 6)])


@pytest.mark.parametrize("hopf, ring, truncation", EVOLUTION_CASES,
                         ids=[f"{h.key}/{r.key}/N={n}" for h, r, n in EVOLUTION_CASES])
def test_evolution_and_log_match_dict_kernel(hopf, ring, truncation):
    rng = random.Random(83)
    x = random_infinitesimal(hopf, ring, truncation, rng).functional
    y = random_infinitesimal(hopf, ring, truncation, rng).functional
    curve = FunctionalCurve([x, y, x.scale(Fraction(-2, 3))])
    oracle = evolve_polynomials_by_dict(curve)
    assert poly_coefficients(evolve_polynomials(curve)) == poly_coefficients(oracle)
    for t in (0, Fraction(-3, 7), 2):
        expected = {b: p(t) for b, p in oracle.items()}
        assert evolve(curve, t) == TruncatedFunctional(hopf, ring, truncation, expected)
    for psi in (random_character(hopf, ring, truncation, rng),
                _prime_character(hopf, ring, truncation)):
        assert char_log(psi).functional == char_log_by_dict(psi.functional)


def test_a_product_that_vanishes_has_no_entry():
    """Over series:1, X on the leaf squares to zero on ``[] []``.  The builder
    stores products without a zero test, so every reader must take that
    product as zero: no entry in a character or in ``evolve``, and the zero
    ``Poly`` in ``evolve_polynomials``."""
    ring, truncation = TruncatedSeriesRing(1), 3
    leaf, pair, x = CK.parse_basis("[]"), CK.parse_basis("[] []"), ring.element([0, 1])
    phi = char_from_generator_values({leaf: x}, CK, truncation, ring).functional
    assert phi.values == multiplicative_by_dict(
        CK, ring, truncation, lambda g, out: x if g == leaf else ring.zero)
    assert pair not in phi.values
    curve = FunctionalCurve([TruncatedFunctional(CK, ring, truncation, {leaf: x})])
    oracle = evolve_polynomials_by_dict(curve)
    polys = evolve_polynomials(curve)
    assert poly_coefficients(polys) == poly_coefficients(oracle)
    assert polys[pair] == Poly(ring)
    for t in (1, Fraction(-2, 3)):
        eta = evolve(curve, t)
        want = {b: p(t) for b, p in oracle.items()}
        assert eta == TruncatedFunctional(CK, ring, truncation, want)
        assert pair not in eta.values


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


BRACKET_CASES = ([(CK, RATIONAL, n) for n in range(1, 7)]
                 + [(tensor_hopf(2), RATIONAL, n) for n in range(1, 7)] + [(CK, SERIES, 5)])


@pytest.mark.parametrize("hopf, ring, truncation", BRACKET_CASES,
                         ids=[f"{h.key}/{r.key}/N={n}" for h, r, n in BRACKET_CASES])
def test_lie_bracket_matches_two_convolutions(hopf, ring, truncation):
    rng = random.Random(86)
    for _ in range(3):
        x = random_infinitesimal(hopf, ring, truncation, rng)
        y = random_infinitesimal(hopf, ring, truncation, rng)
        assert lie_bracket(x, y).functional == lie_bracket_by_convolution(x, y)


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
        return value if ring is RATIONAL else ring.element([value, -value / 3])
    return random_ring_element(ring, rng)


SUM_RINGS = [RATIONAL, SERIES, SumPolyRing(RATIONAL), SumPolyRing(SERIES),
             SumPolyRing(TruncatedSeriesRing(1))]
SUM_IDS = ["rational", "series:2", "poly/rational", "poly/series:2", "poly/series:1"]


def _fold_ring(ring):
    """The ring with a ``mul`` that does not call ``sum_products``."""
    if isinstance(ring, PolyRing):
        return FoldPolyRing(_fold_ring(ring.base))
    return ring if ring is RATIONAL else SchoolbookSeriesRing(ring.modulus_degree)


def _fold_terms(fold_ring, terms):
    """The terms with each ``Poly`` as a ``FractionPoly`` over the fold ring."""
    if not isinstance(fold_ring, FoldPolyRing):
        return terms
    return [(c, FractionPoly(fold_ring.ring, a.coefficients),
             FractionPoly(fold_ring.ring, b.coefficients)) for c, a, b in terms]


def _coefficients(value):
    return value.coefficients if isinstance(value, (Poly, FractionPoly)) else value


def _negated(ring, value):
    if isinstance(value, Poly):
        return Poly(value.ring, map(value.ring.neg, value.coefficients))
    return ring.neg(value)


def _kernel(ring, value):
    """A ring element in the kernel form that ``sum_products`` takes and
    returns; a ``Poly`` is its own."""
    return value if isinstance(ring, PolyRing) else ring.to_kernel(value)


@pytest.mark.parametrize("ring", SUM_RINGS, ids=SUM_IDS)
def test_sum_products_equals_the_fold(ring):
    rng = random.Random(85)
    fold_ring = _fold_ring(ring)
    shapes = {
        "no terms": [],
        "one term": [(1, _element(ring, rng), _element(ring, rng))],
        "c > 1": [(c, _element(ring, rng), _element(ring, rng)) for c in (2, 5, 1, 12)],
        "huge denominators": [(c, _element(ring, rng, True), _element(ring, rng, True))
                              for c in (1, 3, 7)],
    }
    a, b = _element(ring, rng), _element(ring, rng)
    minus_a = _negated(ring, a)
    shapes["negative values"] = [(1, a, b), (3, minus_a, a), (2, minus_a, minus_a), (1, minus_a, b)]
    if isinstance(ring, PolyRing):  # zero coefficients, inside and at the ends
        base, huge = ring.base, _element(ring.base, rng, True)
        gappy = Poly(base, [base.zero, _element(base, rng), base.zero, huge])
        shapes["zero coefficients"] = [(1, gappy, a), (2, ring.zero, a), (1, gappy, gappy),
                                       (4, a, Poly(base, [base.zero, base.zero, huge]))]
    for name, terms in shapes.items():
        want = _fold(fold_ring, _fold_terms(fold_ring, terms))
        got = ring.sum_products([(c, _kernel(ring, x), _kernel(ring, y)) for c, x, y in terms])
        assert _coefficients(got) == _coefficients(_kernel(ring, want)), name
    a, b, minus_a = (_kernel(ring, x) for x in (a, b, minus_a))
    assert ring.sum_products([]) == _kernel(ring, ring.zero)
    assert ring.sum_products([(1, a, b), (1, minus_a, b)]) == _kernel(ring, ring.zero)


# -- sum_row -------------------------------------------------------------------


def _gappy(ring, rng, huge=False):
    """Eight ring elements, None at 1 and 4 and the ring zero at 6."""
    values = [_element(ring, rng, huge) for _ in range(8)]
    values[1] = values[4] = None
    values[6] = ring.zero
    return values


ROWS = {
    "only f, only g, neither": [(1, 0, 1), (3, 5, 4), (2, 1, 0), (1, 4, 4), (2, 1, 5)],
    "mixed": [(1, 0, 0), (1, 0, 1), (2, 3, 7), (1, 4, 2), (1, 6, 5), (3, 5, 6)],
    "empty": [],
    "repeated indices": [(1, 0, 0), (2, 0, 0), (1, 3, 3), (5, 0, 3), (1, 3, 0), (1, 3, 3)],
    "negative c": [(-1, 0, 3), (-4, 3, 0), (2, 5, 5), (-7, 7, 2)],
}


@pytest.mark.parametrize("ring", SUM_RINGS, ids=SUM_IDS)
@pytest.mark.parametrize("huge", [False, True], ids=["small", "huge denominators"])
def test_sum_row_equals_sum_products_and_the_fold(ring, huge):
    """``sum_row(row, f, g)`` sums c * f[l] * g[r] over the row's present
    terms: it equals ``sum_products`` of those terms and the fold, and an
    empty row gives the kernel zero."""
    rng = random.Random(88)
    fold_ring = _fold_ring(ring)
    f, g = _gappy(ring, rng, huge), _gappy(ring, rng, huge)
    fk, gk = ([None if x is None else _kernel(ring, x) for x in v] for v in (f, g))
    for name, row in ROWS.items():
        present = [(c, l, r) for c, l, r in row if f[l] is not None and g[r] is not None]
        got = ring.sum_row(row, fk, gk)
        assert got == ring.sum_products([(c, fk[l], gk[r]) for c, l, r in present]), name
        want = _fold(fold_ring, _fold_terms(fold_ring, [(c, f[l], g[r]) for c, l, r in present]))
        assert _coefficients(got) == _coefficients(_kernel(ring, want)), name
    assert ring.sum_row([], fk, gk) == _kernel(ring, ring.zero)


@pytest.mark.parametrize("ring, zero", [(RATIONAL, (0, 1)), (SERIES, ((), 1)),
                                        (PolyRing(RATIONAL), Poly(RATIONAL))],
                         ids=["rational", "series:2", "poly/rational"])
def test_a_cancelling_row_is_exactly_the_kernel_zero(ring, zero):
    """``conv_inverse`` and ``apply_series`` drop a ``convolve_at`` value that
    equals ``to_kernel(zero)``: a row whose terms cancel must return exactly
    that value, not an equal element in another form."""
    rng = random.Random(89)
    a, b = _element(ring, rng), _element(ring, rng)
    minus_a = _negated(ring, a)
    f, g = [_kernel(ring, a), _kernel(ring, minus_a)], [_kernel(ring, b)]
    assert ring.to_kernel(ring.zero) == zero
    for row in ([(1, 0, 0), (1, 1, 0)], [(2, 0, 0), (-2, 0, 0)], [(3, 1, 0), (1, 0, 0), (2, 0, 0)]):
        got = convolve_at(SimpleNamespace(coproduct=[row]), ring, f, g, 0)
        assert type(got) is type(zero) and got == zero, row

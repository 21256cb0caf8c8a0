import random
from fractions import Fraction

import pytest

from helpers import (FractionPoly, assert_solves_evolution_ode, evolve_polynomials_by_dict, exp,
                     poly_coefficients, split)
from hopfchar.characters import InfinitesimalCharacter, char_exp, char_unit
from hopfchar.convolution import TruncatedFunctional, conv_unit, convolve, delta
from hopfchar.errors import IncompatibleError, MembershipError
from hopfchar.evolution import (FunctionalCurve, Poly, _sum_products, evol, evolve,
                                evolve_polynomials)
from hopfchar.hopf import ck_hopf, tensor_hopf
from hopfchar.rings import RATIONAL, TruncatedSeriesRing
from sampling import random_infinitesimal, random_ring_element
from hopfchar.trees import Forest, LEAF, parse_tree

CK = ck_hopf()
T2 = tensor_hopf(2)
CHAIN = parse_tree("[[]]")
CHERRY = parse_tree("[[] []]")
F_LEAF = Forest([LEAF])
F_CHAIN = Forest([CHAIN])


def zero_functional(hopf=CK, ring=RATIONAL, truncation=4):
    return conv_unit(hopf, ring, truncation) - conv_unit(hopf, ring, truncation)


def test_poly_arithmetic():
    ring = RATIONAL
    p = Poly(ring, [Fraction(1), Fraction(2)])  # 1 + 2t
    q = Poly(ring, [Fraction(0), Fraction(0), Fraction(3)])  # 3t^2
    assert (p * p).coefficients == (1, 4, 4)
    assert (p * q).coefficients == (0, 0, 3, 6)
    assert p.integrate().coefficients == (0, 1, 1)
    assert p(Fraction(1, 2)) == 2
    assert Poly(ring, [Fraction(0)]).coefficients == ()  # trailing zeros trimmed


POLY_RINGS = [RATIONAL, TruncatedSeriesRing(1), TruncatedSeriesRing(2)]


def _poly_coefficients(ring, rng):
    """Coefficient lists with zero entries, small and huge denominators."""
    def small():
        return random_ring_element(ring, rng)

    def huge():  # denominators far above 2^64
        value = Fraction(rng.randint(-10**30, 10**30), rng.randint(2**64, 2**80))
        return value if ring is RATIONAL else ring.element(
            [value] + [0] * (ring.modulus_degree - 1) + [-value])

    zero = ring.zero
    return [[], [small()], [zero, zero, small()], [small(), zero, huge()],
            [huge(), small(), small(), zero], [small() for _ in range(5)]]


@pytest.mark.parametrize("ring", POLY_RINGS, ids=lambda r: r.key)
def test_poly_ops_match_fraction_poly(ring):
    rng = random.Random(79)
    cases = _poly_coefficients(ring, rng)
    times = (0, 1, -1, Fraction(-3, 7), Fraction(5, 12), Fraction(2**70 + 1, 3**45))
    for coeffs in cases:
        p, want = Poly(ring, coeffs), FractionPoly(ring, coeffs)
        assert p.coefficients == want.coefficients
        assert p.integrate().coefficients == want.integrate().coefficients
        for t in times:
            assert p(t) == want(t), t
        for other in cases:
            r, want_r = Poly(ring, other), FractionPoly(ring, other)
            assert (p * r).coefficients == (want * want_r).coefficients


@pytest.mark.parametrize("ring", POLY_RINGS, ids=lambda r: r.key)
def test_poly_form_is_canonical(ring):
    """Equal values compare equal however their denominators were built."""
    def const(q):
        return Poly(ring, [ring.scale(ring.one, Fraction(q))])

    half = const(Fraction(1, 2))
    assert half * const(2) == Poly(ring, [ring.one]) == const(2) * half
    p = Poly(ring, [ring.one, ring.zero, ring.scale(ring.one, Fraction(3, 2**70))])
    assert p * const(Fraction(2**70, 9)) * const(Fraction(9, 2**70)) == p
    assert p * const(0) == Poly(ring, []) == Poly(ring, [ring.zero, ring.zero])
    assert Poly(ring, [ring.zero]).coefficients == ()
    t_over_6 = Poly(ring, [ring.zero, ring.scale(ring.one, Fraction(1, 6))])
    assert _sum_products(ring, [(1, p, t_over_6), (-1, t_over_6, p)]) == Poly(ring, [])
    assert Poly(ring, [ring.zero, ring.scale(ring.one, 2)]).integrate() == Poly(
        ring, [ring.zero, ring.zero, ring.one])


SERIES3 = TruncatedSeriesRing(3)


def test_poly_call_on_partial_top_rows_matches_fraction_poly():
    """series:3 polynomials whose top t-row stops short of X^3, so the
    X-coordinates of the top degree are trimmed and each coordinate's Horner
    runs over a different number of t-degrees."""
    ring, x = SERIES3, Fraction
    cases = [
        [ring.element([x(1, 2), x(-3), x(5, 7), x(2)]), ring.element([x(4, 9), x(1, 3)])],
        [ring.zero, ring.element([x(0), x(0), x(-7, 5)]), ring.element([x(3, 8)])],
        [ring.element([x(0), x(2, 3)]), ring.zero, ring.element([x(-1, 6), x(0), x(5, 4)])],
        [ring.element([x(0), x(0), x(0), x(9, 2)])],
    ]
    for coeffs in cases:
        p, want = Poly(ring, coeffs), FractionPoly(ring, coeffs)
        if len(coeffs) > 1:
            assert len(p.nums) % ring.width, coeffs  # the top row is partial
        for t in (0, 1, -2, Fraction(7, 3)):
            assert p(t) == want(t), (coeffs, t)


@pytest.mark.parametrize("ring", [RATIONAL, TruncatedSeriesRing(2)], ids=lambda r: r.key)
def test_sum_products_of_unequal_lengths_in_both_orders(ring):
    """Factors of different lengths, in either order, with denominators
    that differ from term to term, against the ``FractionPoly`` fold."""
    rng = random.Random(87)

    def element(den):
        return ring.scale(random_ring_element(ring, rng), Fraction(1, den))

    short = [element(3), element(5)]
    long = [element(4), ring.zero, element(9), element(7), element(2)]
    longer = [element(11), element(6), ring.zero, ring.zero, element(25), element(1), element(8)]
    pairs = [(short, long), (long, short), (short, longer), (longer, long), (long, longer)]
    terms, want = [], FractionPoly(ring)
    for c, (a, b) in zip((1, 3, 2, 7, 5), pairs):
        p, q = Poly(ring, a), Poly(ring, b)
        product = (FractionPoly(ring, a) * FractionPoly(ring, b)).scale(c)
        assert _sum_products(ring, [(c, p, q)]).coefficients == product.coefficients
        assert _sum_products(ring, [(c, q, p)]).coefficients == product.coefficients
        terms.append((c, p, q))
        want = want + product
    assert _sum_products(ring, terms).coefficients == want.coefficients
    assert _sum_products(ring, terms[::-1]).coefficients == want.coefficients


def _count_poly_mul(monkeypatch) -> list:
    calls = []
    original = Poly.__mul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting)
    return calls


def _sparse_curve(hopf, truncation):
    """A curve that vanishes on some generators, so that some products have
    a zero factor: on ck it lives on the chain and the cherry, on tensor(2)
    on the letter v0."""
    if hopf is CK:
        chain, cherry = (delta(CK, RATIONAL, truncation, Forest([t])) for t in (CHAIN, CHERRY))
        return FunctionalCurve([chain.scale(Fraction(2, 3)), cherry.scale(-3)])
    v0 = delta(hopf, RATIONAL, truncation, hopf.parse_basis("v0"))
    return FunctionalCurve([v0.scale(Fraction(-5, 4)), v0])


SOLVER_CASES = [(CK, 5, "random"), (CK, 5, "sparse"), (T2, 4, "random"), (T2, 4, "sparse")]


@pytest.mark.parametrize("hopf, truncation, kind", SOLVER_CASES,
                         ids=[f"{h.key}/N={n}/{k}" for h, n, k in SOLVER_CASES])
def test_evolve_multiplies_only_products_below_the_truncation(monkeypatch, hopf, truncation,
                                                                kind):
    """``evolve`` reads eta on generators only, and a left factor in a
    generator's coproduct row has degree < N, so the solver multiplies the
    products of degree < N whose two factors are nonzero, and no product of
    degree N."""
    if kind == "random":
        rng = random.Random(88)
        curve = FunctionalCurve([random_infinitesimal(hopf, RATIONAL, truncation, rng).functional
                                 for _ in range(2)])
    else:
        curve = _sparse_curve(hopf, truncation)
    oracle = evolve_polynomials_by_dict(curve)
    want = 0
    for basis in hopf.all_basis_upto(truncation - 1):
        first, rest = split(basis)
        if rest.degree and oracle[first].coefficients and oracle[rest].coefficients:
            want += 1
    calls = _count_poly_mul(monkeypatch)
    evolve(curve, Fraction(5, 3))
    assert len(calls) == want
    if kind == "sparse":
        assert any(not p.coefficients for b, p in oracle.items() if split(b)[1].degree)


@pytest.mark.parametrize("hopf", [CK, T2], ids=lambda h: h.key)
@pytest.mark.parametrize("truncation", [0, 1])
def test_evolution_at_the_lowest_truncations(hopf, truncation):
    rng = random.Random(89)
    curve = FunctionalCurve([random_infinitesimal(hopf, RATIONAL, truncation, rng).functional,
                             random_infinitesimal(hopf, RATIONAL, truncation, rng).functional])
    oracle = evolve_polynomials_by_dict(curve)
    polys = evolve_polynomials(curve)
    assert list(polys) == hopf.all_basis_upto(truncation)
    assert poly_coefficients(polys) == poly_coefficients(oracle)
    for t in (0, Fraction(-2, 5), 3):
        assert evolve(curve, t) == TruncatedFunctional(
            hopf, RATIONAL, truncation, {b: p(t) for b, p in oracle.items()})


@pytest.mark.parametrize("hopf", [CK, T2], ids=lambda h: h.key)
def test_zero_curve_solves_without_products(monkeypatch, hopf):
    curve = FunctionalCurve([zero_functional(hopf, RATIONAL, 4)] * 2)
    calls = _count_poly_mul(monkeypatch)
    assert evolve(curve, Fraction(7, 2)) == conv_unit(hopf, RATIONAL, 4)
    assert not calls
    polys = evolve_polynomials(curve)
    assert list(polys) == hopf.all_basis_upto(4)
    assert polys[hopf.unit_basis] == Poly(RATIONAL, [1])
    assert all(p == Poly(RATIONAL) for b, p in polys.items() if b.degree)


def test_zero_curve_gives_unit_at_all_times():
    curve = FunctionalCurve([zero_functional()])
    unit = conv_unit(CK, RATIONAL, 4)
    for t in (0, 1, Fraction(3, 7), -2):
        assert evolve(curve, t) == unit


def test_constant_curve_is_one_parameter_group():
    d = delta(CK, RATIONAL, 4, F_LEAF)
    curve = FunctionalCurve([d])
    assert evolve(curve, 1) == exp(d)
    assert evolve(curve, 1).value(F_CHAIN) == Fraction(1, 2)
    for t in (Fraction(1, 3), Fraction(2), Fraction(-1, 2)):
        assert evolve(curve, t) == exp(d.scale(t))


def test_linear_curve_reduces_to_commuting_exponential():
    # gamma(t) = t * delta: all values commute, so eta(1) = exp(delta / 2)
    d = delta(CK, RATIONAL, 4, F_LEAF)
    curve = FunctionalCurve([zero_functional(), d])
    eta = evolve(curve, 1)
    assert eta == exp(d.scale(Fraction(1, 2)))
    assert eta.value(F_LEAF) == Fraction(1, 2)


def test_flow_property_for_constant_curves():
    rng = random.Random(71)
    for _ in range(5):
        phi = random_infinitesimal(CK, RATIONAL, 4, rng).functional
        curve = FunctionalCurve([phi])
        s = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        t = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        assert evolve(curve, s + t) == convolve(evolve(curve, s), evolve(curve, t))


def test_evol_wraps_characters():
    assert evol(FunctionalCurve([zero_functional()])) == char_unit(CK, RATIONAL, 4)
    d = delta(CK, RATIONAL, 4, F_LEAF)
    assert evol(FunctionalCurve([d])) == char_exp(
        InfinitesimalCharacter(d)
    )


def test_noncommuting_curve_differs_from_naive_exponential():
    # gamma(t) = delta_leaf + t delta_chain; naive guess exp(integral gamma)
    # disagrees first at the cherry, where the defect is 1/6
    d1 = delta(CK, RATIONAL, 4, F_LEAF)
    d2 = delta(CK, RATIONAL, 4, F_CHAIN)
    curve = FunctionalCurve([d1, d2])
    eta = evolve(curve, 1)
    naive = exp(d1 + d2.scale(Fraction(1, 2)))
    difference = eta - naive
    assert difference.values
    witnesses = sorted(
        difference.values, key=lambda basis: (basis.degree, basis.serial)
    )
    assert witnesses[0] == Forest([CHERRY])
    assert difference.value(Forest([CHERRY])) == Fraction(1, 6)
    assert all(basis.degree <= 4 for basis in witnesses)


def test_degree_zero_normalization():
    rng = random.Random(72)
    curve = FunctionalCurve(
        [random_infinitesimal(CK, RATIONAL, 4, rng).functional for _ in range(3)]
    )
    for t in (0, Fraction(1, 3), 1, Fraction(5, 2)):
        assert evolve(curve, t).degree0 == 1


def test_solutions_are_characters_at_sample_times():
    rng = random.Random(73)
    for _ in range(5):
        curve = FunctionalCurve(
            [random_infinitesimal(CK, RATIONAL, 5, rng).functional for _ in range(3)]
        )
        for t in (Fraction(1, 3), Fraction(1, 2), 1):
            eta = evolve(curve, t)
            from hopfchar.characters import is_character

            assert is_character(eta)


def test_polynomial_ode_identity():
    rng = random.Random(74)
    for _ in range(5):
        curve = FunctionalCurve(
            [random_infinitesimal(CK, RATIONAL, 4, rng).functional for _ in range(2)]
        )
        assert_solves_evolution_ode(curve, evolve_polynomials(curve))


def test_evolution_over_series_ring_and_tensor():
    ring = TruncatedSeriesRing(2)
    rng = random.Random(75)
    curve = FunctionalCurve(
        [random_infinitesimal(CK, ring, 3, rng).functional for _ in range(2)]
    )
    eta = evol(curve)  # stays in the character group
    assert eta.functional.degree0 == ring.one
    t_curve = FunctionalCurve(
        [random_infinitesimal(T2, RATIONAL, 3, rng).functional]
    )
    evol(t_curve)


def test_curve_validation():
    with pytest.raises(MembershipError):
        FunctionalCurve([conv_unit(CK, RATIONAL, 3)])
    with pytest.raises(IncompatibleError):
        FunctionalCurve(
            [zero_functional(truncation=3), zero_functional(truncation=4)]
        )
    with pytest.raises(ValueError):
        FunctionalCurve([])


def test_curve_json_roundtrip():
    d = delta(CK, RATIONAL, 3, F_LEAF)
    curve = FunctionalCurve([zero_functional(truncation=3), d])
    restored = FunctionalCurve.from_json_dict(curve.to_json_dict())
    assert restored.coefficients == curve.coefficients

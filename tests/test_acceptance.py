"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its time budget.  Run with ``pytest tests/test_acceptance.py -v -s``.

Everything is exact rational arithmetic; every equality below is exact
(zero tolerance).
"""

import contextlib
import random
import time
from fractions import Fraction

from hopfchar.characters import (
    InfinitesimalCharacter,
    butcher_compose,
    char_exp,
    char_from_tree_values,
    char_inv,
    char_log,
    char_mul,
    char_unit,
    is_character,
    is_infinitesimal,
    lie_bracket,
    tensor_char_from_vector,
    tensor_char_group_iso,
    tree_values,
)
from hopfchar.convolution import TruncatedFunctional, conv_inverse, conv_unit, convolve
from hopfchar.evolution import FunctionalCurve, evol, evolve, evolve_polynomials
from hopfchar.hopf import GradedVector, ck_hopf, tensor_hopf
from hopfchar.ideals import annihilates, is_symplectic, symplectic_generators
from linalg import in_span
from hopfchar.rings import RATIONAL, TruncatedSeriesRing
from sampling import (
    random_annihilating_character,
    random_annihilating_infinitesimal,
    random_character,
    random_functional,
    random_ideal_element,
    random_infinitesimal,
    random_invertible,
    random_tree_values,
)
from hopfchar.series import apply_series
from hopfchar.trees import Forest, enumerate_trees

from helpers import (
    antipode_by_axiom,
    apply_series_raw,
    assert_solves_evolution_ode,
    bch,
    coproduct_triple,
    exp,
    geometric_series,
    grow_trees,
    ideal_degree_span,
    log,
    project,
    restrict,
    schoolbook_product,
    vector_of,
)

CK = ck_hopf()
T2 = tensor_hopf(2)
SERIES2 = TruncatedSeriesRing(2)


@contextlib.contextmanager
def criterion(number, name, budget_seconds):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.time() - start
    within = elapsed < budget_seconds
    verdict = "PASS" if within else "FAIL (time budget exceeded)"
    print(f"ACCEPTANCE {number} ({name}): {verdict} [{elapsed:.1f}s / {budget_seconds}s]")
    assert within


def rnd_series(rng, order):
    return tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(order + 1))


def test_criterion_01_hopf_axioms():
    with criterion(1, "Hopf axioms on degree <= 5, both instances", 60):
        for hopf in (CK, T2):
            for basis in hopf.all_basis_upto(5):
                # coassociativity
                assert coproduct_triple(hopf, basis, True) == coproduct_triple(
                    hopf, basis, False
                )
                # counit axiom
                cop = hopf.coproduct(basis)
                assert GradedVector(
                    (r, c * hopf.counit(l)) for c, l, r in cop
                ) == vector_of(basis)
                assert GradedVector(
                    (l, c * hopf.counit(r)) for c, l, r in cop
                ) == vector_of(basis)
                # antipode axiom, both sides
                target = GradedVector([(hopf.unit_basis, hopf.counit(basis))])
                left = GradedVector((x, k * c) for c, a, b in cop
                                    for x, k in hopf.multiply(hopf.antipode(a), vector_of(b)))
                right = GradedVector((x, k * c) for c, a, b in cop
                                     for x, k in hopf.multiply(vector_of(a), hopf.antipode(b)))
                assert left == target
                assert right == target
                # and the closed-form antipodes match the axiom recursion
                assert hopf.antipode(basis) == antipode_by_axiom(hopf, basis)


def test_criterion_02_tree_enumeration():
    with criterion(2, "tree counts 1..8 vs growth oracle", 30):
        mine = enumerate_trees(8)
        oracle = grow_trees(8)
        assert [len(level) for level in mine] == [1, 1, 2, 4, 9, 20, 48, 115]
        for got, expected in zip(mine, oracle):
            assert {t.serial for t in got} == {t.serial for t in expected}


def test_criterion_03_convolution_algebra():
    with criterion(3, "convolution laws, 100 random triples, both rings", 60):
        rng = random.Random(103)
        for index in range(100):
            ring = RATIONAL if index < 70 else SERIES2
            unit = conv_unit(CK, ring, 6)
            a = random_functional(CK, ring, 6, rng)
            b = random_functional(CK, ring, 6, rng)
            c = random_functional(CK, ring, 6, rng)
            assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))
            assert convolve(a, unit) == a and convolve(unit, a) == a
            phi = random_invertible(CK, ring, 6, rng)
            inv = conv_inverse(phi)
            assert convolve(phi, inv) == unit and convolve(inv, phi) == unit
            if index % 5 == 0:
                # geometric-series path reproduces the inverse
                a0_inv = ring.inv(phi.degree0)
                body = {b: ring.mul(v, a0_inv) for b, v in phi.drop_degree0().values.items()}
                series = apply_series(geometric_series(6),
                                      TruncatedFunctional(CK, ring, 6, body).scale(-1))
                assert {b: ring.mul(v, a0_inv) for b, v in series.values.items()} == inv.values


def test_criterion_04_functional_calculus():
    with criterion(4, "functional calculus: morphism, exp/log, raw formula", 120):
        rng = random.Random(104)
        for _ in range(100):
            a = random_ideal_element(CK, RATIONAL, 5, rng)
            f = rnd_series(rng, 5)
            g = rnd_series(rng, 5)
            assert apply_series(schoolbook_product(f, g, 6), a) == convolve(
                apply_series(f, a), apply_series(g, a)
            )
        unit = conv_unit(CK, RATIONAL, 5)
        for _ in range(100):
            a = random_ideal_element(CK, RATIONAL, 5, rng)
            assert log(exp(a)) == a
            u = unit + random_ideal_element(CK, RATIONAL, 5, rng)
            assert exp(log(u)) == u
        for index in range(25):
            hopf = CK if index % 2 == 0 else T2
            a = random_ideal_element(hopf, RATIONAL, 4, rng)
            f = rnd_series(rng, 4)
            assert apply_series(f, a) == apply_series_raw(f, a)


def test_criterion_05_character_bijection():
    with criterion(5, "exp/log bijection on 100 random characters", 60):
        rng = random.Random(105)
        cases = (
            [(CK, RATIONAL, 6)] * 60 + [(CK, SERIES2, 4)] * 20 + [(T2, RATIONAL, 5)] * 20
        )
        for hopf, ring, n in cases:
            phi = random_infinitesimal(hopf, ring, n, rng)
            image = char_exp(phi)  # built multiplicatively, without a re-check
            assert is_character(image.functional)
            assert char_log(image) == phi
            psi = random_character(hopf, ring, n, rng)
            back = char_log(psi)  # constructor asserts is_infinitesimal
            assert is_infinitesimal(back.functional)
            assert char_exp(back) == psi


def test_criterion_06_bracket_and_bch():
    with criterion(6, "bracket laws at N=5 and BCH degree-2 term", 60):
        rng = random.Random(106)
        for _ in range(50):
            x = random_infinitesimal(CK, RATIONAL, 5, rng)
            y = random_infinitesimal(CK, RATIONAL, 5, rng)
            z = random_infinitesimal(CK, RATIONAL, 5, rng)
            xy, yx, yz, zx = (lie_bracket(a, b) for a, b in ((x, y), (y, x), (y, z), (z, x)))
            cyclic = (lie_bracket(x, yz), lie_bracket(y, zx), lie_bracket(z, xy))
            for bracket in (xy, yx, yz, zx) + cyclic:
                assert is_infinitesimal(bracket.functional)
            assert xy.functional == -yx.functional
            jacobi = cyclic[0].functional + cyclic[1].functional + cyclic[2].functional
            assert not jacobi.values
        # BCH: for single-degree-supported x, y the (1,1)-bilinear part sits in
        # degree deg x + deg y and equals half the commutator
        for p, q in ((1, 1), (1, 2), (2, 3), (2, 2)):
            for _ in range(3):
                x = project(random_functional(CK, RATIONAL, 5, rng), p)
                y = project(random_functional(CK, RATIONAL, 5, rng), q)
                combined = bch(x, y)
                half_bracket = (convolve(x, y) - convolve(y, x)).scale(
                    Fraction(1, 2)
                )
                assert project(combined, p + q) == project(half_bracket, p + q)
        # commuting collapse
        x = random_ideal_element(CK, RATIONAL, 5, rng)
        assert bch(x, x.scale(Fraction(2, 3))) == x.scale(Fraction(5, 3))


def test_criterion_07_butcher_isomorphism():
    with criterion(7, "Butcher composition matches the character group", 60):
        rng = random.Random(107)
        for _ in range(100):
            a = random_tree_values(6, rng)
            b = random_tree_values(6, rng)
            composed = butcher_compose(a, b, 6)
            phi = char_from_tree_values(a, 6)
            psi = char_from_tree_values(b, 6)
            via_chars = tree_values(char_mul(phi, psi))
            assert composed == {
                t: via_chars.get(t, Fraction(0)) for t in composed
            }
        for _ in range(10):
            a = random_tree_values(6, rng)
            phi = char_from_tree_values(a, 6)
            inverse_values = tree_values(char_inv(phi))
            for level in enumerate_trees(6):
                for tree in level:
                    expected = phi.functional.evaluate(CK.antipode(Forest([tree])))
                    assert inverse_values.get(tree, Fraction(0)) == expected


def test_criterion_08_ideal_subgroup():
    with criterion(8, "symplectic annihilator subgroup closure", 120):
        rng = random.Random(108)
        ideal6 = symplectic_generators(6)
        infinitesimals = [
            random_annihilating_infinitesimal(ideal6, RATIONAL, 6, rng)
            for _ in range(25)
        ]
        characters = [char_exp(phi) for phi in infinitesimals]
        for phi in characters:
            assert annihilates(phi, ideal6)
            assert annihilates(char_inv(phi), ideal6)
            assert annihilates(char_log(phi), ideal6)
        for phi, psi in zip(characters[:-1], characters[1:]):
            assert annihilates(char_mul(phi, psi), ideal6)
        for x, y in zip(infinitesimals[:-1], infinitesimals[1:]):
            assert annihilates(lie_bracket(x, y), ideal6)
            assert annihilates(char_exp(x), ideal6)
        # agreement of the direct tree-map condition with the ideal route
        ideal5 = symplectic_generators(5)
        agreements = 0
        for index in range(200):
            if index % 4 == 0:
                values = tree_values(
                    random_annihilating_character(ideal5, RATIONAL, 5, rng)
                )
            else:
                values = random_tree_values(5, rng)
            direct = is_symplectic(values, 5)
            via_ideal = annihilates(char_from_tree_values(values, 5), ideal5)
            assert direct == via_ideal
            agreements += direct
        assert agreements >= 50  # the seeded quarter really is symplectic
        # generator shortcut vs the per-degree linear-span oracle
        ideal4 = symplectic_generators(4)
        probes = [
            random_annihilating_character(ideal4, RATIONAL, 4, rng) for _ in range(5)
        ] + [
            random_annihilating_infinitesimal(ideal4, RATIONAL, 4, rng)
            for _ in range(5)
        ]
        for degree in range(1, 5):
            basis, span = ideal_degree_span(ideal4, degree)
            for vec in span:
                element = GradedVector(zip(basis, vec))
                for phi in probes:
                    assert RATIONAL.is_zero(phi.functional.evaluate(element))
            # annihilating the generators is exactly annihilating the span:
            # each generator of this degree lies in the span
            for gen in ideal4.generators:
                if gen.degrees() == {degree}:
                    target = [Fraction(0)] * len(basis)
                    for b, c in gen:
                        target[basis.index(b)] += c
                    assert in_span(span, target)


def test_criterion_09_evolution():
    with criterion(9, "evolution equation: 50 random polynomial curves", 180):
        rng = random.Random(109)
        for index in range(50):
            coeff_count = 1 + index % 3  # polynomial degree D <= 2
            curve = FunctionalCurve(
                [
                    random_infinitesimal(CK, RATIONAL, 5, rng).functional
                    for _ in range(coeff_count)
                ]
            )
            for t in (Fraction(1, 3), Fraction(1, 2), 1):
                assert is_character(evolve(curve, t))
            polys = evolve_polynomials(curve)
            assert polys[CK.unit_basis].coefficients == (RATIONAL.one,)
            assert_solves_evolution_ode(curve, polys)
        for _ in range(10):
            phi = random_infinitesimal(CK, RATIONAL, 5, rng).functional
            constant = FunctionalCurve([phi])
            for t in (Fraction(1, 3), 1, Fraction(7, 4)):
                assert evolve(constant, t) == exp(phi.scale(t))
            assert evol(constant).functional == exp(phi)


def test_criterion_10_tensor_character_group():
    with criterion(10, "tensor character group is the additive group", 30):
        rng = random.Random(110)
        for dimension in (2, 3):
            hopf = tensor_hopf(dimension)
            unit = char_unit(hopf, RATIONAL, 4)
            assert tensor_char_group_iso(unit) == (Fraction(0),) * dimension
            for _ in range(50):
                phi = random_character(hopf, RATIONAL, 4, rng)
                psi = random_character(hopf, RATIONAL, 4, rng)
                assert tensor_char_group_iso(char_mul(phi, psi)) == tuple(
                    x + y
                    for x, y in zip(
                        tensor_char_group_iso(phi), tensor_char_group_iso(psi)
                    )
                )
                assert (
                    tensor_char_from_vector(tensor_char_group_iso(phi), hopf, 4)
                    == phi
                )


def test_criterion_11_truncation_stability():
    with criterion(11, "truncation stability N=4 vs N=6", 60):
        rng = random.Random(111)
        unit6 = conv_unit(CK, RATIONAL, 6)
        for index in range(50):
            a6 = random_functional(CK, RATIONAL, 6, rng)
            b6 = random_functional(CK, RATIONAL, 6, rng)
            a4, b4 = restrict(a6, 4), restrict(b6, 4)
            assert restrict(convolve(a6, b6), 4) == convolve(a4, b4)
            assert restrict(a6.precompose_antipode(), 4) == a4.precompose_antipode()
            assert restrict(project(a6, 3), 4) == project(a4, 3)
            inv6 = conv_inverse(unit6 + a6.drop_degree0())
            inv4 = conv_inverse(conv_unit(CK, RATIONAL, 4) + a4.drop_degree0())
            assert restrict(inv6, 4) == inv4
            x6 = a6.drop_degree0()
            x4 = restrict(x6, 4)
            f = rnd_series(rng, 6)
            assert restrict(apply_series(f, x6), 4) == apply_series(f[:5], x4)
            assert restrict(exp(x6), 4) == exp(x4)
            u6 = unit6 + x6
            assert restrict(log(u6), 4) == log(restrict(u6, 4))
            y6 = b6.drop_degree0()
            assert restrict(bch(x6, y6), 4) == bch(x4, restrict(y6, 4))
            if index % 5 == 0:
                values = random_tree_values(6, rng)
                phi6 = char_from_tree_values(values, 6)
                psi6 = char_exp(random_infinitesimal(CK, RATIONAL, 6, rng))
                phi4 = char_from_tree_values(values, 4)
                psi4 = char_exp(
                    InfinitesimalCharacter(
                        restrict(char_log(psi6).functional, 4)
                    )
                )
                assert restrict(char_mul(phi6, psi6).functional, 4) == char_mul(
                    phi4, psi4
                ).functional
                assert restrict(char_inv(phi6).functional, 4) == char_inv(
                    phi4
                ).functional
                assert restrict(char_log(psi6).functional, 4) == char_log(
                    psi4
                ).functional
                x = random_infinitesimal(CK, RATIONAL, 6, rng)
                y = random_infinitesimal(CK, RATIONAL, 6, rng)
                bracket6 = lie_bracket(x, y).functional
                bracket4 = lie_bracket(
                    InfinitesimalCharacter(restrict(x.functional, 4)),
                    InfinitesimalCharacter(restrict(y.functional, 4)),
                ).functional
                assert restrict(bracket6, 4) == bracket4
                a_map = random_tree_values(6, rng)
                b_map = random_tree_values(6, rng)
                full = butcher_compose(a_map, b_map, 6)
                small = butcher_compose(a_map, b_map, 4)
                assert all(full[t] == small[t] for t in small)
                curve6 = FunctionalCurve(
                    [random_infinitesimal(CK, RATIONAL, 6, rng).functional]
                )
                curve4 = FunctionalCurve(
                    [restrict(curve6.coefficients[0], 4)]
                )
                assert restrict(evolve(curve6, Fraction(2, 3)), 4) == evolve(
                    curve4, Fraction(2, 3)
                )

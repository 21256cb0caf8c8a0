"""Known answers from B-series theory, on elementary weights computed here
from rational Runge–Kutta tableaux (Butcher, *Numerical Methods for ODEs*;
Hairer–Lubich–Wanner, *Geometric Numerical Integration*, ch. III and VI).

With the coproduct (cut forest) (x) (kept subtree), the Butcher group law is
the composition of B-series normalized by 1/sigma(t).  The exact flow is
exp(delta_leaf), with value 1/gamma(t) (the tree factorial) on each tree; a
method has order p when its weights agree with it through order p; and a
method is symplectic when its tree map solves
a(t o u) + a(u o t) = a(t) a(u), which for Runge–Kutta methods is
Sanz-Serna's b_i a_ij + b_j a_ji = b_i b_j.

At N = 9 the group operations meet answers that need no Hopf code: a step
of M1 then a step of M2 is the Runge–Kutta method [[A1, 0], [1 b1^T, A2]]
with weights (b1, b2), and the inverse of (A, b) is (A - 1 b^T, -b).  The log
of a method's character is its modified vector field (ch. IX): zero on every
tree of even order for a symmetric method, and killing the symplectic ideal
for a symplectic one.  The evolution map splits as a flow does.
"""

from fractions import Fraction

import pytest

from hopfchar.characters import (Character, InfinitesimalCharacter, butcher_compose, char_bch,
                                 char_exp, char_from_tree_values, char_inv, char_log, char_mul,
                                 infinitesimal_from_tree_values, tree_values)
from hopfchar.convolution import TruncatedFunctional, delta
from hopfchar.evolution import FunctionalCurve, evolve
from hopfchar.hopf import ck_hopf
from hopfchar.ideals import annihilates, is_symplectic, symplectic_generators
from hopfchar.rings import RATIONAL
from hopfchar.trees import LEAF, enumerate_trees, single_tree_forest

H = Fraction(1, 2)
RK4 = ([[0, 0, 0, 0], [H, 0, 0, 0], [0, H, 0, 0], [0, 0, 1, 0]],
       [Fraction(1, 6), Fraction(1, 3), Fraction(1, 3), Fraction(1, 6)])
MIDPOINT = ([[H]], [1])
DIRK = ([[Fraction(1, 4), 0], [H, Fraction(1, 4)]], [H, H])
TRAPEZOID = ([[0, 0], [H, H]], [H, H])
TABLEAUX = {"rk4": RK4, "midpoint": MIDPOINT, "dirk": DIRK}
SYMPLECTIC = {"rk4": False, "midpoint": True, "dirk": True}
N = 6
N_LARGE = 9


def trees_upto(order):
    return [t for level in enumerate_trees(order) for t in level]


def tree_factorial(tree) -> int:
    value = tree.order
    for child in tree.children:
        value *= tree_factorial(child)
    return value


def elementary_weights(tableau, max_order: int) -> dict:
    """Phi(t) = sum_i b_i Phi_i(t), where the stage weight Phi_i(t) is the
    product over the children c of t of sum_j a_ij Phi_j(c)."""
    a, b = tableau
    stages = range(len(b))
    stage_weights, weights = {}, {}
    for tree in trees_upto(max_order):  # children come before their parents
        per_stage = []
        for i in stages:
            value = Fraction(1)
            for child in tree.children:
                value *= sum(a[i][j] * stage_weights[child][j] for j in stages)
            per_stage.append(value)
        stage_weights[tree] = per_stage
        weights[tree] = sum(b[i] * per_stage[i] for i in stages)
    return weights


def sanz_serna(tableau) -> bool:
    a, b = tableau
    stages = range(len(b))
    return all(b[i] * a[i][j] + b[j] * a[j][i] == b[i] * b[j] for i in stages for j in stages)


def composed(first, second):
    """The tableau of a step of ``first`` followed by a step of ``second``."""
    (a1, b1), (a2, b2) = first, second
    a = [list(row) + [0] * len(b2) for row in a1] + [list(b1) + list(row) for row in a2]
    return a, list(b1) + list(b2)


def inverse(tableau):
    """The tableau (A - 1 b^T, -b) of the inverse method."""
    a, b = tableau
    return [[a_ij - b_j for a_ij, b_j in zip(row, b)] for row in a], [-b_j for b_j in b]


def nonzero(weights: dict) -> dict:
    return {t: v for t, v in weights.items() if v}


def leaf_delta(max_order: int) -> TruncatedFunctional:
    return delta(ck_hopf(), RATIONAL, max_order, single_tree_forest(LEAF))


def exact_flow(max_order: int) -> dict:
    """The tree values of exp(delta_leaf)."""
    return tree_values(char_exp(InfinitesimalCharacter(leaf_delta(max_order))))


def test_exp_of_the_leaf_delta_is_one_over_the_tree_factorial():
    flow = exact_flow(N)
    assert flow == {t: Fraction(1, tree_factorial(t)) for t in trees_upto(N)}
    assert {t.serial: tree_factorial(t) for t in trees_upto(3)} == {
        "[]": 1, "[[]]": 2, "[[] []]": 3, "[[[]]]": 6}


def test_rk4_has_order_four_exactly():
    flow, weights = exact_flow(N), elementary_weights(RK4, N)
    assert all(weights[t] == flow[t] for t in trees_upto(4))
    assert any(weights[t] != flow[t] for t in enumerate_trees(5)[4])


@pytest.mark.parametrize("name", TABLEAUX)
def test_symplecticity_criteria_agree(name):
    tableau = TABLEAUX[name]
    weights = elementary_weights(tableau, N)
    character = char_from_tree_values(weights, N)
    assert sanz_serna(tableau) is SYMPLECTIC[name]
    assert is_symplectic(weights, N) is SYMPLECTIC[name]
    assert annihilates(character, symplectic_generators(N)) is SYMPLECTIC[name]


def test_rk4_is_symplectic_up_to_its_order():
    """Below order 5 RK4 agrees with the exact flow, which is symplectic."""
    weights = elementary_weights(RK4, 4)
    assert is_symplectic(exact_flow(N), N)
    assert is_symplectic(weights, 4)
    assert annihilates(char_from_tree_values(weights, 4), symplectic_generators(4))


def test_butcher_compose_is_the_composed_method():
    """M1's step comes first; the other order is another method."""
    dirk, rk4 = elementary_weights(DIRK, N_LARGE), elementary_weights(RK4, N_LARGE)
    dirk_then_rk4 = elementary_weights(composed(DIRK, RK4), N_LARGE)
    assert butcher_compose(dirk, rk4, N_LARGE) == dirk_then_rk4
    assert butcher_compose(rk4, dirk, N_LARGE) == elementary_weights(composed(RK4, DIRK), N_LARGE)
    assert butcher_compose(rk4, dirk, N_LARGE) != dirk_then_rk4


def test_char_inv_is_the_inverse_method():
    rk4 = char_from_tree_values(elementary_weights(RK4, N_LARGE), N_LARGE)
    assert tree_values(char_inv(rk4)) == nonzero(elementary_weights(inverse(RK4), N_LARGE))


def test_evolve_of_t_times_the_leaf_delta_is_the_flow_at_one_half():
    """eta' = eta * t delta_leaf gives eta(1) = exp(delta_leaf / 2)."""
    zero = TruncatedFunctional(ck_hopf(), RATIONAL, N_LARGE, {})
    eta = evolve(FunctionalCurve([zero, leaf_delta(N_LARGE)]), 1)
    assert {t: eta.value(single_tree_forest(t)) for t in trees_upto(N_LARGE)} == {
        t: Fraction(1, 2 ** t.order * tree_factorial(t)) for t in trees_upto(N_LARGE)}


def test_log_inverts_exp_and_bch_adds_multiples_of_the_leaf_delta():
    leaf = leaf_delta(N_LARGE)
    assert char_log(char_exp(InfinitesimalCharacter(leaf))).functional == leaf
    third = InfinitesimalCharacter(leaf.scale(Fraction(1, 3)))
    two_thirds = InfinitesimalCharacter(leaf.scale(Fraction(2, 3)))
    assert char_bch(third, two_thirds).functional == leaf


# (symmetric, symplectic) for each method: the trapezoidal rule and RK4 are the controls.
MODIFIED_EQUATIONS = {"midpoint": (MIDPOINT, True, True), "dirk": (DIRK, True, True),
                      "trapezoid": (TRAPEZOID, True, False), "rk4": (RK4, False, False)}


@pytest.mark.parametrize("name", MODIFIED_EQUATIONS)
def test_the_log_of_a_method_is_its_modified_vector_field(name):
    """A symmetric method's log vanishes on every tree of even order, and a
    symplectic method's log kills the symplectic ideal."""
    tableau, symmetric, symplectic = MODIFIED_EQUATIONS[name]
    log = char_log(char_from_tree_values(elementary_weights(tableau, N_LARGE), N_LARGE))
    even = [log.functional.value(single_tree_forest(t))
            for t in trees_upto(N_LARGE) if t.order % 2 == 0]
    assert (not any(even)) is symmetric
    assert annihilates(log, symplectic_generators(N_LARGE)) is symplectic


def test_the_evolution_of_a_shifted_curve_splits_the_flow():
    """eta(s + t) = eta(s) * zeta(t), where zeta solves the curve gamma(s + .):
    for gamma(t) = x + t y that is (x + s y) + t y."""
    s, t = Fraction(1, 3), Fraction(2, 5)
    x = leaf_delta(N_LARGE)
    y = infinitesimal_from_tree_values(
        {tree: Fraction((-1) ** tree.order, tree.order) for tree in trees_upto(N_LARGE)},
        N_LARGE).functional
    curve, shifted = FunctionalCurve([x, y]), FunctionalCurve([x + y.scale(s), y])
    product = char_mul(Character(evolve(curve, s)), Character(evolve(shifted, t)))
    assert product.functional == evolve(curve, s + t)

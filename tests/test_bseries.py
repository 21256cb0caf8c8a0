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
"""

from fractions import Fraction

import pytest

from hopfchar.characters import (InfinitesimalCharacter, char_exp, char_from_tree_values,
                                 tree_values)
from hopfchar.convolution import delta
from hopfchar.hopf import ck_hopf
from hopfchar.ideals import annihilates, is_symplectic, symplectic_generators
from hopfchar.rings import RATIONAL
from hopfchar.trees import LEAF, enumerate_trees, single_tree_forest

H = Fraction(1, 2)
RK4 = ([[0, 0, 0, 0], [H, 0, 0, 0], [0, H, 0, 0], [0, 0, 1, 0]],
       [Fraction(1, 6), Fraction(1, 3), Fraction(1, 3), Fraction(1, 6)])
MIDPOINT = ([[H]], [1])
DIRK = ([[Fraction(1, 4), 0], [H, Fraction(1, 4)]], [H, H])
TABLEAUX = {"rk4": RK4, "midpoint": MIDPOINT, "dirk": DIRK}
SYMPLECTIC = {"rk4": False, "midpoint": True, "dirk": True}
N = 6


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


def exact_flow(max_order: int) -> dict:
    """The tree values of exp(delta_leaf)."""
    leaf = InfinitesimalCharacter(delta(ck_hopf(), RATIONAL, max_order, single_tree_forest(LEAF)))
    return tree_values(char_exp(leaf))


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

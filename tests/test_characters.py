import random
from fractions import Fraction

import pytest

from hopfchar.characters import (
    Character,
    InfinitesimalCharacter,
    butcher_compose,
    char_exp,
    char_from_tree_values,
    char_inv,
    char_log,
    char_mul,
    char_unit,
    character_violation,
    infinitesimal_from_tree_values,
    infinitesimal_violation,
    is_character,
    is_infinitesimal,
    lie_bracket,
    tensor_char_from_vector,
    tensor_char_group_iso,
    tree_values,
)
from hopfchar.convolution import conv_inverse, conv_unit, convolve, delta
from hopfchar.errors import MembershipError
from hopfchar.hopf import ck_hopf, tensor_hopf
from hopfchar.rings import RATIONAL, TruncatedSeriesRing
from hopfchar.sampling import (
    random_character,
    random_infinitesimal,
    random_tree_values,
)
from hopfchar.series import exp
from hopfchar.trees import Forest, LEAF, enumerate_trees, parse_tree

CK = ck_hopf()
T2 = tensor_hopf(2)
SERIES_RING = TruncatedSeriesRing(2)
CHAIN = parse_tree("[[]]")
CHAIN3 = parse_tree("[[[]]]")
CHERRY = parse_tree("[[] []]")
F_LEAF = Forest([LEAF])
F_CHAIN = Forest([CHAIN])


def test_unit_is_character_not_infinitesimal():
    unit = conv_unit(CK, RATIONAL, 4)
    assert is_character(unit)
    assert not is_infinitesimal(unit)
    assert infinitesimal_violation(unit) == (CK.unit_basis, CK.unit_basis)


def test_delta_is_infinitesimal_not_character():
    d = delta(CK, RATIONAL, 4, F_LEAF)
    assert is_infinitesimal(d)
    assert not is_character(d)
    assert character_violation(d) == (CK.unit_basis, CK.unit_basis)


def test_character_violation_reports_product_pair():
    # right unit value but wrong multiplicativity
    phi = conv_unit(CK, RATIONAL, 3) + delta(CK, RATIONAL, 3, F_LEAF)
    violation = character_violation(phi)
    assert violation is not None
    b1, b2 = violation
    assert b1.degree >= 1 and b2.degree >= 1  # phi(leaf^2)=0 but phi(leaf)^2=1


def test_exp_of_delta_is_character_exhaustively_at_n6():
    d = delta(CK, RATIONAL, 6, F_LEAF)
    assert is_character(exp(d))


def test_wrappers_enforce_membership():
    # the message names the pair, the value found and the value expected
    with pytest.raises(MembershipError, match=r"at \(1, 1\): found 0, expected 1$"):
        Character(delta(CK, RATIONAL, 3, F_LEAF))
    with pytest.raises(MembershipError, match=r"at \(1, 1\): found 1, expected 0$"):
        InfinitesimalCharacter(conv_unit(CK, RATIONAL, 3))
    with pytest.raises(MembershipError, match=r"at \(\[\], \[\]\): found 0, expected 1$"):
        Character(conv_unit(CK, RATIONAL, 3) + delta(CK, RATIONAL, 3, F_LEAF))
    with pytest.raises(MembershipError, match=r"at \(\[\], \[\]\): found 2/3, expected 0$"):
        InfinitesimalCharacter(delta(CK, RATIONAL, 3, Forest([LEAF, LEAF])).scale(Fraction(2, 3)))


def test_char_from_tree_values():
    unit = char_from_tree_values({}, 4)
    assert unit.functional == conv_unit(CK, RATIONAL, 4)
    phi = char_from_tree_values({LEAF: Fraction(1)}, 4)
    assert phi.functional.value(Forest([LEAF, LEAF])) == 1
    assert phi.functional.value(F_CHAIN) == 0
    rng = random.Random(41)
    values = random_tree_values(4, rng)
    assert tree_values(char_from_tree_values(values, 4)) == {
        t: v for t, v in values.items() if v != 0
    }


def test_butcher_law_small_orders():
    rng = random.Random(42)
    a = random_character(CK, RATIONAL, 3, rng)
    b = random_character(CK, RATIONAL, 3, rng)
    prod = char_mul(a, b).functional
    fa, fb = a.functional, b.functional
    assert prod.value(F_LEAF) == fa.value(F_LEAF) + fb.value(F_LEAF)
    assert prod.value(F_CHAIN) == (
        fa.value(F_CHAIN) + fa.value(F_LEAF) * fb.value(F_LEAF) + fb.value(F_CHAIN)
    )


def test_char_mul_unit_neutral():
    rng = random.Random(43)
    unit = char_unit(CK, RATIONAL, 4)
    phi = random_character(CK, RATIONAL, 4, rng)
    assert char_mul(unit, phi) == phi
    assert char_mul(phi, unit) == phi


def test_char_inv():
    unit = char_unit(CK, RATIONAL, 4)
    assert char_inv(unit) == unit
    d = delta(CK, RATIONAL, 4, F_LEAF)
    phi = char_exp(InfinitesimalCharacter(d))
    assert char_inv(phi).functional == exp(-d)
    rng = random.Random(44)
    for _ in range(10):
        psi = random_character(CK, RATIONAL, 4, rng)
        assert char_mul(psi, char_inv(psi)) == unit
        assert char_inv(psi).functional == conv_inverse(psi.functional)


def test_char_exp_and_log():
    zero = InfinitesimalCharacter(
        conv_unit(CK, RATIONAL, 4) - conv_unit(CK, RATIONAL, 4)
    )
    assert char_exp(zero) == char_unit(CK, RATIONAL, 4)
    d = InfinitesimalCharacter(delta(CK, RATIONAL, 4, F_LEAF))
    assert char_exp(d).functional.value(F_CHAIN) == Fraction(1, 2)
    ones = char_from_tree_values(
        {t: Fraction(1) for level in enumerate_trees(4) for t in level},
        4,
    )
    assert is_infinitesimal(char_log(ones).functional)


@pytest.mark.parametrize(
    "hopf,ring",
    [(CK, RATIONAL), (CK, SERIES_RING), (T2, RATIONAL)],
    ids=["ck/rational", "ck/series", "tensor/rational"],
)
def test_exp_log_bijection_randomized(hopf, ring):
    rng = random.Random(45)
    for _ in range(8):
        phi = random_infinitesimal(hopf, ring, 4, rng)
        image = char_exp(phi)  # constructor re-checks the character predicate
        assert char_log(image) == phi
        psi = random_character(hopf, ring, 4, rng)
        assert char_exp(char_log(psi)) == psi


def test_infinitesimal_antipode_negation():
    rng = random.Random(46)
    for _ in range(10):
        phi = random_infinitesimal(CK, RATIONAL, 4, rng).functional
        assert phi.precompose_antipode() == -phi


def test_bracket_small_values_two_ways():
    d1 = InfinitesimalCharacter(delta(CK, RATIONAL, 4, F_LEAF))
    d2 = InfinitesimalCharacter(delta(CK, RATIONAL, 4, F_CHAIN))
    bracket = lie_bracket(d1, d2).functional
    # oracle: coproduct tables give (d1*d2)(cherry)=2, (d2*d1)(cherry)=0,
    # and both convolutions take value 1 on the 3-chain
    assert bracket.value(Forest([CHERRY])) == 2
    assert bracket.value(Forest([CHAIN3])) == 0
    direct = convolve(d1.functional, d2.functional) - convolve(
        d2.functional, d1.functional
    )
    assert bracket == direct
    assert lie_bracket(d1, d1).functional.is_zero()


def test_bracket_properties_randomized():
    rng = random.Random(47)
    for _ in range(5):
        x = random_infinitesimal(CK, RATIONAL, 5, rng)
        y = random_infinitesimal(CK, RATIONAL, 5, rng)
        z = random_infinitesimal(CK, RATIONAL, 5, rng)
        xy = lie_bracket(x, y)  # constructor asserts closure
        yx = lie_bracket(y, x)
        assert xy.functional == -yx.functional
        jacobi = (
            lie_bracket(x, lie_bracket(y, z)).functional
            + lie_bracket(y, lie_bracket(z, x)).functional
            + lie_bracket(z, lie_bracket(x, y)).functional
        )
        assert jacobi.is_zero()


def test_butcher_compose_direct():
    rng = random.Random(48)
    zero_map = {}
    a = random_tree_values(4, rng)
    assert butcher_compose(a, zero_map, 4) == {
        t: a.get(t, Fraction(0))
        for level in enumerate_trees(4)
        for t in level
    }
    b = random_tree_values(4, rng)
    comp = butcher_compose(a, b, 4)
    assert comp[LEAF] == a[LEAF] + b[LEAF]


def test_butcher_compose_matches_character_product():
    rng = random.Random(49)
    for _ in range(10):
        a = random_tree_values(5, rng)
        b = random_tree_values(5, rng)
        comp = butcher_compose(a, b, 5)
        via_chars = tree_values(
            char_mul(char_from_tree_values(a, 5), char_from_tree_values(b, 5))
        )
        assert comp == {
            t: via_chars.get(t, Fraction(0)) for t in comp
        }


def test_butcher_inverse_via_antipode():
    rng = random.Random(50)
    a = random_tree_values(5, rng)
    phi = char_from_tree_values(a, 5)
    inverse_map = tree_values(char_inv(phi))
    # the inverse tree map evaluates the antipode under the original map
    for level in enumerate_trees(5):
        for tree in level:
            expected = phi.functional.evaluate(CK.antipode(Forest([tree])))
            assert inverse_map.get(tree, Fraction(0)) == expected


def test_group_axioms_over_series_ring():
    rng = random.Random(51)
    unit = char_unit(CK, SERIES_RING, 4)
    for _ in range(5):
        a = random_character(CK, SERIES_RING, 4, rng)
        b = random_character(CK, SERIES_RING, 4, rng)
        c = random_character(CK, SERIES_RING, 4, rng)
        assert char_mul(char_mul(a, b), c) == char_mul(a, char_mul(b, c))
        assert char_mul(a, char_inv(a)) == unit


def test_group_axioms_at_n6_hundred_triples():
    # associativity, unit and inverse laws of the character group, exact
    rng = random.Random(53)
    unit = conv_unit(CK, RATIONAL, 6)
    for _ in range(100):
        a = random_character(CK, RATIONAL, 6, rng).functional
        b = random_character(CK, RATIONAL, 6, rng).functional
        c = random_character(CK, RATIONAL, 6, rng).functional
        assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))
        assert convolve(a, unit) == a and convolve(unit, a) == a
        inv = a.precompose_antipode()
        assert convolve(a, inv) == unit and convolve(inv, a) == unit


def test_bracket_laws_over_series_ring():
    rng = random.Random(54)
    for _ in range(3):
        x = random_infinitesimal(CK, SERIES_RING, 4, rng)
        y = random_infinitesimal(CK, SERIES_RING, 4, rng)
        z = random_infinitesimal(CK, SERIES_RING, 4, rng)
        xy = lie_bracket(x, y)  # constructor asserts closure
        assert xy.functional == -lie_bracket(y, x).functional
        jacobi = (
            lie_bracket(x, lie_bracket(y, z)).functional
            + lie_bracket(y, lie_bracket(z, x)).functional
            + lie_bracket(z, lie_bracket(x, y)).functional
        )
        assert jacobi.is_zero()


def test_tensor_iso():
    unit = char_unit(T2, RATIONAL, 4)
    assert tensor_char_group_iso(unit) == (0, 0)
    rng = random.Random(52)
    for dim in (2, 3):
        hopf = tensor_hopf(dim)
        for _ in range(8):
            phi = random_character(hopf, RATIONAL, 4, rng)
            psi = random_character(hopf, RATIONAL, 4, rng)
            lhs = tensor_char_group_iso(char_mul(phi, psi))
            rhs = tuple(
                x + y
                for x, y in zip(tensor_char_group_iso(phi), tensor_char_group_iso(psi))
            )
            assert lhs == rhs
            # roundtrip: multiplicative extension inverts the restriction
            back = tensor_char_from_vector(
                tensor_char_group_iso(phi), hopf, 4
            )
            assert back == phi


def test_infinitesimal_from_tree_values():
    phi = infinitesimal_from_tree_values({LEAF: Fraction(2)}, 3)
    assert phi.functional.value(F_LEAF) == 2
    assert phi.functional.value(Forest([LEAF, LEAF])) == 0
    assert is_infinitesimal(phi.functional)

import random
from fractions import Fraction

import pytest

from hopfchar import characters
from hopfchar.characters import (
    Character,
    InfinitesimalCharacter,
    butcher_compose,
    char_bch,
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
    tree_values_from_json_dict,
)
from hopfchar.convolution import TruncatedFunctional, conv_inverse, conv_unit, convolve, delta
from hopfchar.errors import IncompatibleError, MembershipError, ParseError
from hopfchar.hopf import ck_hopf, tensor_hopf
from hopfchar.rings import RATIONAL, TruncatedSeriesRing
from sampling import (
    random_character,
    random_infinitesimal,
    random_tree_values,
)
from hopfchar.trees import Forest, LEAF, enumerate_trees, parse_tree

from helpers import bch, exp, log, project

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
    # the message names the predicate, the pair, the value found and the
    # value expected
    char = r"^not a character: violated at "
    infinitesimal = r"^not an infinitesimal character: violated at "
    with pytest.raises(MembershipError, match=char + r"\(1, 1\): found 0, expected 1$"):
        Character(delta(CK, RATIONAL, 3, F_LEAF))
    with pytest.raises(MembershipError, match=infinitesimal + r"\(1, 1\): found 1, expected 0$"):
        InfinitesimalCharacter(conv_unit(CK, RATIONAL, 3))
    with pytest.raises(MembershipError, match=char + r"\(\[\], \[\]\): found 0, expected 1$"):
        Character(conv_unit(CK, RATIONAL, 3) + delta(CK, RATIONAL, 3, F_LEAF))
    with pytest.raises(MembershipError, match=infinitesimal + r"\(\[\], \[\]\): found 2/3, expected 0$"):
        InfinitesimalCharacter(delta(CK, RATIONAL, 3, Forest([LEAF, LEAF])).scale(Fraction(2, 3)))


def test_wrappers_repr_and_compare_by_class_and_functional():
    unit, d = conv_unit(CK, RATIONAL, 3), delta(CK, RATIONAL, 3, F_LEAF)
    assert repr(Character(unit)) == f"Character({unit!r})"
    assert repr(InfinitesimalCharacter(d)) == f"InfinitesimalCharacter({d!r})"
    assert Character(unit) == Character(conv_unit(CK, RATIONAL, 3))
    assert InfinitesimalCharacter(d) != InfinitesimalCharacter(d.scale(Fraction(2)))
    assert Character._wrap(d) != InfinitesimalCharacter(d)
    assert InfinitesimalCharacter(d) != Character._wrap(d)
    assert Character(unit) != unit


def test_functionals_and_wrappers_are_unhashable():
    """They compare by value, and a functional's values may change."""
    unit, d = conv_unit(CK, RATIONAL, 3), delta(CK, RATIONAL, 3, F_LEAF)
    for value in (unit, Character(unit), InfinitesimalCharacter(d)):
        with pytest.raises(TypeError):
            hash(value)


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
        image = char_exp(phi)  # built multiplicatively, without a re-check
        assert is_character(image.functional)
        assert char_log(image) == phi
        psi = random_character(hopf, ring, 4, rng)
        assert char_exp(char_log(psi)) == psi


def test_generator_rows_have_generator_right_factors():
    """The unit and the generators are closed under right factors: in the
    coproduct row of a generator, each triple (c, l, r) with l off the unit
    has r the unit or a generator.  ``char_exp`` and ``char_log`` run Horner
    on that set."""
    for hopf, top in ((CK, 8), (T2, 7), (tensor_hopf(3), 5)):
        for n in range(top + 1):
            table = hopf.table(n)
            for i, rest in enumerate(table.rest):
                if not rest:
                    for _c, left, right in table.coproduct[i]:
                        assert not left or not table.rest[right], (hopf.key, n, table.basis[i])


def test_char_exp_equals_the_full_basis_exponential():
    """exp on the unit and generators, extended multiplicatively, equals the
    series exponential over the whole basis, on ck N = 0-7, tensor(2) N = 0-6,
    tensor(3) N = 4 and ck over series:2 N = 0-5, for random x and x = 0; and
    log on the unit and generators inverts it and equals the series
    logarithm over the whole basis."""
    rng = random.Random(49)
    spaces = ([(CK, RATIONAL, n) for n in range(8)] + [(T2, RATIONAL, n) for n in range(7)]
              + [(tensor_hopf(3), RATIONAL, 4)] + [(CK, SERIES_RING, n) for n in range(6)])
    for hopf, ring, n in spaces:
        zero = InfinitesimalCharacter(TruncatedFunctional(hopf, ring, n))
        for x in (random_infinitesimal(hopf, ring, n, rng),
                  random_infinitesimal(hopf, ring, n, rng), zero):
            image = char_exp(x)
            where = f"{hopf.key}/{ring.key} N={n} x={x}"
            assert image == Character(exp(x.functional)), where
            assert is_character(image.functional)
            assert char_log(image) == x, where
            assert char_log(image).functional == log(image.functional), where


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
    assert not lie_bracket(d1, d1).functional.values


def assert_lie_laws(x, y, z):
    """Every bracket of x, y, z is infinitesimal; antisymmetry and Jacobi hold."""
    xy, yx, yz, zx = (lie_bracket(a, b) for a, b in ((x, y), (y, x), (y, z), (z, x)))
    cyclic = (lie_bracket(x, yz), lie_bracket(y, zx), lie_bracket(z, xy))
    for bracket in (xy, yx, yz, zx) + cyclic:
        assert is_infinitesimal(bracket.functional)
    assert xy.functional == -yx.functional
    assert not (cyclic[0].functional + cyclic[1].functional + cyclic[2].functional).values


def test_bracket_properties_randomized():
    rng = random.Random(47)
    for _ in range(5):
        assert_lie_laws(*(random_infinitesimal(CK, RATIONAL, 5, rng) for _ in range(3)))


def test_lie_bracket_skips_the_membership_recheck(monkeypatch):
    """The bracket is zero on the unit and on products by construction, so it
    wraps its result without calling ``infinitesimal_violation``."""
    rng = random.Random(55)
    x, y = (random_infinitesimal(CK, RATIONAL, 5, rng) for _ in range(2))
    calls = []
    original = characters.infinitesimal_violation

    def counting(phi):
        calls.append(1)
        return original(phi)

    monkeypatch.setattr(characters, "infinitesimal_violation", counting)
    xy = lie_bracket(x, y)
    assert not calls
    assert is_infinitesimal(xy.functional)


@pytest.mark.parametrize(
    "hopf,ring,truncation",
    [(CK, RATIONAL, 6), (CK, SERIES_RING, 5), (tensor_hopf(3), RATIONAL, 5)],
    ids=["ck/rational", "ck/series", "tensor3/rational"],
)
def test_char_bch_equals_the_full_basis_bch(hopf, ring, truncation):
    """BCH on the unit and the generators equals log(exp(x) * exp(y)) over
    the whole basis, for random x and y and with a zero argument."""
    rng = random.Random(56)
    zero = InfinitesimalCharacter(TruncatedFunctional(hopf, ring, truncation))
    pairs = [(random_infinitesimal(hopf, ring, truncation, rng),
              random_infinitesimal(hopf, ring, truncation, rng)) for _ in range(3)]
    for x, y in pairs + [(pairs[0][0], zero), (zero, pairs[0][1])]:
        combined = char_bch(x, y)
        assert combined.functional == bch(x.functional, y.functional), (x, y)
        assert is_infinitesimal(combined.functional)


def test_char_bch_on_the_tensor_algebra_adds_the_letter_vectors():
    """tensor(2)'s character group is abelian, so BCH is the sum."""
    rng = random.Random(57)
    for _ in range(3):
        x, y = (random_infinitesimal(T2, RATIONAL, 7, rng) for _ in range(2))
        assert char_bch(x, y).functional == x.functional + y.functional


def test_char_bch_bilinear_part_is_half_the_bracket():
    """For x in degree p and y in degree q, char_bch(x, y) is x + y below
    degree p + q and half the bracket in degree p + q."""
    rng = random.Random(58)
    for p, q in ((1, 1), (1, 2), (2, 3), (2, 2)):
        x, y = (InfinitesimalCharacter(project(random_infinitesimal(CK, RATIONAL, 5, rng)
                                               .functional, d)) for d in (p, q))
        combined = char_bch(x, y).functional
        for d in range(p + q):
            assert project(combined, d) == project(x.functional + y.functional, d), (p, q, d)
        half_bracket = lie_bracket(x, y).functional.scale(Fraction(1, 2))
        assert project(combined, p + q) == project(half_bracket, p + q), (p, q)


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


def compose_via_characters(a, b, truncation, ring=RATIONAL):
    """The oracle for ``butcher_compose``: the tree values of the product of
    the two characters, with a zero entry on every other tree, in the order
    of ``enumerate_trees``."""
    product = tree_values(char_mul(char_from_tree_values(a, truncation, ring),
                                   char_from_tree_values(b, truncation, ring)))
    return {t: product.get(t, ring.zero) for level in enumerate_trees(truncation) for t in level}


def sparse_tree_values(truncation, rng, ring=RATIONAL):
    """Random values on about half the trees of order <= truncation."""
    return {t: v for t, v in random_tree_values(truncation, rng, ring).items()
            if rng.random() < 0.5}


def test_butcher_compose_matches_character_product():
    rng = random.Random(49)
    trees = [t for level in enumerate_trees(5) for t in level]
    for _ in range(10):
        a, b = sparse_tree_values(5, rng), sparse_tree_values(5, rng)
        comp = butcher_compose(a, b, 5)
        assert list(comp) == trees
        assert list(comp.items()) == list(compose_via_characters(a, b, 5).items())
    comp = butcher_compose({LEAF: Fraction(1)}, {}, 5)  # zero on every other tree
    assert list(comp) == trees
    assert comp == {t: Fraction(t == LEAF) for t in trees}


def test_butcher_compose_over_both_rings_ignores_trees_above_n_and_zeros():
    rng = random.Random(52)
    for ring in (RATIONAL, SERIES_RING, TruncatedSeriesRing(1)):
        a, b = sparse_tree_values(4, rng, ring), sparse_tree_values(4, rng, ring)
        comp = butcher_compose(a, b, 4, ring)
        assert list(comp.items()) == list(compose_via_characters(a, b, 4, ring).items())
        above = {t: v for t, v in random_tree_values(6, rng, ring).items() if t.order > 4}

        def padded(values):  # explicit zeros on the missing trees, and trees above N
            zeros = {t: ring.zero for level in enumerate_trees(4) for t in level}
            return {**zeros, **values, **above}

        assert list(butcher_compose(padded(a), padded(b), 4, ring).items()) == list(comp.items())


def test_negative_or_zero_truncation_raises_value_error():
    with pytest.raises(ValueError):
        butcher_compose({LEAF: Fraction(1)}, {}, 0)
    with pytest.raises(ValueError):
        butcher_compose({}, {}, -1)
    with pytest.raises(ValueError):
        char_from_tree_values({}, -1)
    with pytest.raises(ValueError):
        tensor_char_from_vector([1, 2], T2, -1)


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
        assert_lie_laws(*(random_infinitesimal(CK, SERIES_RING, 4, rng) for _ in range(3)))


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


def test_tensor_vector_of_the_wrong_length_is_refused():
    """One value per letter: a longer vector is not cut and a shorter one is
    not padded with zeros."""
    for hopf, vector in ((T2, [1, 2, 3]), (T2, [1]), (T2, []), (tensor_hopf(3), [1, 2])):
        with pytest.raises(IncompatibleError):
            tensor_char_from_vector(vector, hopf, 2)
    assert tensor_char_group_iso(tensor_char_from_vector([1, 2], T2, 2)) == (1, 2)


def test_the_additive_view_refuses_the_rooted_forests():
    """The letter-vector maps are the group isomorphism of tensor(d) only: on
    ck, restricting to degree 1 would drop the value 7 on [[]]."""
    with pytest.raises(IncompatibleError):
        tensor_char_group_iso(char_from_tree_values({LEAF: 2, CHAIN: 7}, 3))
    with pytest.raises(IncompatibleError):
        tensor_char_from_vector([5], CK, 3)


def test_infinitesimal_from_tree_values():
    phi = infinitesimal_from_tree_values({LEAF: Fraction(2)}, 3)
    assert phi.functional.value(F_LEAF) == 2
    assert phi.functional.value(Forest([LEAF, LEAF])) == 0
    assert is_infinitesimal(phi.functional)


def test_two_spellings_of_one_tree_are_a_parse_error():
    data = {"truncation": 3, "trees": {"[]": "1", "[[][]]": "1/2", "[[] []]": "1/3"}}
    with pytest.raises(ParseError) as err:
        tree_values_from_json_dict(data)
    assert "'[[][]]'" in str(err.value) and "'[[] []]'" in str(err.value)
    del data["trees"]["[[][]]"]
    assert tree_values_from_json_dict(data)[0] == {LEAF: 1, CHERRY: Fraction(1, 3)}

from collections import Counter
from fractions import Fraction

import pytest

from hopfchar.characters import char_from_generator_values, char_mul
from hopfchar.errors import ParseError, ResourceLimitError, TruncationOverflowError
from hopfchar.hopf import (
    EMPTY_WORD,
    CKHopf,
    GradedVector,
    TensorHopf,
    Word,
    ck_hopf,
    parse_word,
    resolve_hopf,
    tensor_hopf,
    vector_of,
)
from hopfchar.trees import EMPTY_FOREST, LEAF, Forest, parse_tree

from helpers import (
    antipode_by_axiom,
    antipode_by_edge_partitions,
    antipode_by_reversal,
    as_multiset,
    coproduct_triple,
)

CK = ck_hopf()
T2 = tensor_hopf(2)
CHAIN = parse_tree("[[]]")
CHERRY = parse_tree("[[] []]")
F_LEAF = Forest([LEAF])
F_CHAIN = Forest([CHAIN])
F_LL = Forest([LEAF, LEAF])


def coproduct_multiset(hopf, basis):
    return {(l.serial, r.serial): c for c, l, r in hopf.coproduct(basis)}


# -- words and vectors ---------------------------------------------------------


def test_word_basics():
    w = Word([0, 1, 0])
    assert w.degree == 3
    assert w.serial == "v0v1v0"
    assert EMPTY_WORD.serial == "1"
    assert parse_word("v0v1v0") == w
    assert parse_word("1") == EMPTY_WORD
    assert parse_word("v12") == Word([12])
    with pytest.raises(ParseError):
        parse_word("w0")
    with pytest.raises(ParseError):
        parse_word("v")
    for blank in ("", " ", "\t\n"):
        with pytest.raises(ParseError, match="empty word input"):
            parse_word(blank)


@pytest.mark.parametrize("text, offset", [("v\u00b2", 1), ("v1\u00b2", 2), ("v\u0661", 1),
                                          ("v0v\u0661\u0662", 3)],
                         ids=["superscript", "superscript-after-index", "arabic-indic",
                              "arabic-indic-second-letter"])
def test_parse_word_takes_only_ascii_digits(text, offset):
    """``str.isdigit`` also holds for superscripts, which ``int`` refuses,
    and for other scripts' decimal digits, which ``int`` reads."""
    with pytest.raises(ParseError) as info:
        parse_word(text)
    assert info.value.offset == offset
    with pytest.raises(ParseError):
        T2.parse_basis(text)


def test_graded_vector_arithmetic():
    v = vector_of(F_LEAF) * 2 + vector_of(F_CHAIN)
    w = v - vector_of(F_CHAIN)
    assert w == vector_of(F_LEAF) * 2
    assert (v - v).is_zero()
    assert v[F_LEAF] == 2
    assert v[F_LL] == 0
    assert v.degrees() == {1, 2}
    assert not v.is_homogeneous()
    assert (vector_of(F_LL) * Fraction(1, 3)).degree() == 2


def test_graded_vector_format():
    v = vector_of(F_LL) - vector_of(F_CHAIN)
    assert v.format() == "-[[]] + [] []"
    assert GradedVector().format() == "0"
    assert (vector_of(F_LEAF) * -2).format() == "-2 []"


# -- structure maps: frozen small cases ---------------------------------------


def test_ck_coproduct_unit_and_leaf():
    assert coproduct_multiset(CK, EMPTY_FOREST) == {("1", "1"): 1}
    assert coproduct_multiset(CK, F_LEAF) == {("[]", "1"): 1, ("1", "[]"): 1}


def test_ck_coproduct_of_square_matches_bialgebra_expansion():
    # oracle: square (leaf x 1 + 1 x leaf) in the componentwise product
    base = [(F_LEAF, EMPTY_FOREST), (EMPTY_FOREST, F_LEAF)]
    expected = {}
    for l1, r1 in base:
        for l2, r2 in base:
            key = (l1.union(l2).serial, r1.union(r2).serial)
            expected[key] = expected.get(key, 0) + 1
    assert coproduct_multiset(CK, F_LL) == expected
    assert expected[("[]", "[]")] == 2


def test_ck_coproduct_chain_and_cherry():
    assert coproduct_multiset(CK, F_CHAIN) == {
        ("[[]]", "1"): 1,
        ("[]", "[]"): 1,
        ("1", "[[]]"): 1,
    }
    assert coproduct_multiset(CK, Forest([CHERRY])) == {
        ("[[] []]", "1"): 1,
        ("[] []", "[]"): 1,
        ("[]", "[[]]"): 2,
        ("1", "[[] []]"): 1,
    }


def test_ck_counit():
    assert CK.counit(EMPTY_FOREST) == 1
    assert CK.counit(F_LEAF) == 0
    assert CK.counit(Forest([LEAF, CHAIN])) == 0


def test_ck_antipode_small_cases():
    assert CK.antipode(EMPTY_FOREST) == vector_of(EMPTY_FOREST)
    assert CK.antipode(F_LEAF) == -vector_of(F_LEAF)
    assert CK.antipode(F_CHAIN) == vector_of(F_LL) - vector_of(F_CHAIN)
    # forests multiply: S(leaf^2) = (-leaf)^2
    assert CK.antipode(F_LL) == vector_of(F_LL)


def test_tensor_coproduct_small_cases():
    assert coproduct_multiset(T2, EMPTY_WORD) == {("1", "1"): 1}
    assert coproduct_multiset(T2, Word([0])) == {("v0", "1"): 1, ("1", "v0"): 1}
    # oracle: product (v0 x 1 + 1 x v0)(v1 x 1 + 1 x v1) in the tensor square
    base0 = [(Word([0]), EMPTY_WORD), (EMPTY_WORD, Word([0]))]
    base1 = [(Word([1]), EMPTY_WORD), (EMPTY_WORD, Word([1]))]
    expected = {}
    for l1, r1 in base0:
        for l2, r2 in base1:
            key = (
                Word(l1.letters + l2.letters).serial,
                Word(r1.letters + r2.letters).serial,
            )
            expected[key] = expected.get(key, 0) + 1
    assert coproduct_multiset(T2, Word([0, 1])) == expected
    assert expected == {
        ("v0v1", "1"): 1,
        ("v0", "v1"): 1,
        ("v1", "v0"): 1,
        ("1", "v0v1"): 1,
    }


def test_tensor_antipode():
    assert T2.antipode(EMPTY_WORD) == vector_of(EMPTY_WORD)
    assert T2.antipode(Word([0])) == -vector_of(Word([0]))
    assert T2.antipode(Word([0, 1])) == vector_of(Word([1, 0]))
    assert T2.antipode(Word([0, 1, 1])) == -vector_of(Word([1, 1, 0]))


# -- axioms --------------------------------------------------------------------


@pytest.mark.parametrize("hopf", [CK, T2], ids=lambda h: h.key)
def test_coassociativity_through_degree_5(hopf):
    for basis in hopf.all_basis_upto(5):
        assert coproduct_triple(hopf, basis, True) == coproduct_triple(hopf, basis, False)


@pytest.mark.parametrize("hopf", [CK, T2], ids=lambda h: h.key)
def test_counit_axiom_through_degree_6(hopf):
    for basis in hopf.all_basis_upto(6):
        left = GradedVector(
            (right, coeff * hopf.counit(l))
            for coeff, l, right in hopf.coproduct(basis)
        )
        right_side = GradedVector(
            (l, coeff * hopf.counit(r)) for coeff, l, r in hopf.coproduct(basis)
        )
        assert left == vector_of(basis)
        assert right_side == vector_of(basis)


@pytest.mark.parametrize("hopf", [CK, T2], ids=lambda h: h.key)
def test_antipode_axiom_through_degree_5(hopf):
    unit = vector_of(hopf.unit_basis)
    for basis in hopf.all_basis_upto(5):
        target = unit * hopf.counit(basis)
        left = GradedVector()
        right = GradedVector()
        for coeff, a, b in hopf.coproduct(basis):
            left = left + hopf.multiply(hopf.antipode(a), vector_of(b)) * coeff
            right = right + hopf.multiply(vector_of(a), hopf.antipode(b)) * coeff
        assert left == target
        assert right == target


@pytest.mark.parametrize("hopf", [CK, T2], ids=lambda h: h.key)
def test_antipode_matches_axiom_recursion(hopf):
    # the explicit formulas against the independent degree-by-degree solve
    for basis in hopf.all_basis_upto(5):
        assert hopf.antipode(basis) == antipode_by_axiom(hopf, basis)


@pytest.mark.parametrize("hopf", [CK, T2], ids=lambda h: h.key)
def test_coproduct_respects_grading(hopf):
    for basis in hopf.all_basis_upto(6):
        for coeff, left, right in hopf.coproduct(basis):
            assert coeff > 0
            assert left.degree + right.degree == basis.degree


@pytest.mark.parametrize("hopf", [CK, T2], ids=lambda h: h.key)
def test_coproduct_gives_fractions_and_rows_give_ints(hopf):
    table = hopf.table(5)
    for i, basis in enumerate(table.basis):
        terms = hopf.coproduct(basis)
        assert all(type(c) is Fraction and c.denominator == 1 for c, _l, _r in terms)
        row = table.coproduct[i]
        assert all(type(c) is int for c, _l, _r in row)
        assert sorted(row) == sorted((c, table.index[l], table.index[r]) for c, l, r in terms)


def test_size_budget_is_checked_before_allocation():
    # The tensor(2) table of degree <= 10 sums 1,398,101 coproduct terms, that
    # of degree <= 11 5,592,405; the budget is 2,000,000.  Every refused table
    # fails on its top degree, before any basis element is built.
    assert len(tensor_hopf(2).basis(10)) == 1024
    for hopf, degree in ((tensor_hopf(2), 11), (tensor_hopf(1000), 10), (tensor_hopf(1000), 2),
                         (CK, 13)):
        with pytest.raises(ResourceLimitError):
            hopf.table(degree)
        with pytest.raises(ResourceLimitError):
            hopf.basis(degree)
    with pytest.raises(ResourceLimitError):
        CK.coproduct(Forest([parse_tree("[" + "[]" * 12 + "]")]))


def test_terms_formed_count_against_the_size_budget(monkeypatch):
    # With the budget at 1,000 terms, one element's structure and a table
    # that form a few thousand are refused; at the real budget they work.
    import hopfchar.hopf as hopf_module

    chain16, word11 = Forest([parse_tree("[" * 16 + "]" * 16)]), Word([0, 1] * 5 + [0])
    monkeypatch.setattr(hopf_module, "SIZE_BUDGET", 1000)
    for call in (lambda: CKHopf().antipode(chain16), lambda: CKHopf().table(7),
                 lambda: TensorHopf(2).coproduct(word11)):
        with pytest.raises(ResourceLimitError, match="exceeds 1000 terms"):
            call()
    monkeypatch.undo()
    assert len(CKHopf().antipode(chain16)) == 231
    assert len(TensorHopf(2).coproduct(word11)) == 1104


@pytest.mark.parametrize("hopf", [CK, T2], ids=lambda h: h.key)
def test_connectedness(hopf):
    assert len(hopf.basis(0)) == 1


# -- products and bases ---------------------------------------------------------


def test_algebra_product():
    assert CK.product(EMPTY_FOREST, F_LEAF) == vector_of(F_LEAF)
    assert CK.product(F_LEAF, F_LEAF) == vector_of(F_LL)
    v0, v1 = Word([0]), Word([1])
    assert T2.product(v0, v1) == vector_of(Word([0, 1]))
    assert T2.product(v0, v1) != T2.product(v1, v0)


def test_product_truncation_overflow():
    with pytest.raises(TruncationOverflowError):
        CK.product(F_CHAIN, F_CHAIN, truncation=3)
    assert CK.product(F_CHAIN, F_CHAIN, truncation=4) == vector_of(
        Forest([CHAIN, CHAIN])
    )
    # multiply drops overflow terms instead of raising
    clipped = CK.multiply(vector_of(F_CHAIN), vector_of(F_CHAIN), truncation=3)
    assert clipped.is_zero()


def test_basis_sizes():
    assert [len(CK.basis(n)) for n in range(7)] == [1, 1, 2, 4, 9, 20, 48]
    assert [len(T2.basis(n)) for n in range(5)] == [1, 2, 4, 8, 16]
    assert [len(tensor_hopf(3).basis(n)) for n in range(4)] == [1, 3, 9, 27]


def test_parse_basis():
    assert CK.parse_basis("[] [[]]") == Forest([LEAF, CHAIN])
    assert T2.parse_basis("v0v1") == Word([0, 1])
    with pytest.raises(ParseError):
        T2.parse_basis("v2")  # out of range for d=2


LOOKUP_CASES = [
    (CKHopf, 7, {" [] [[]] ": "[] [[]]", "[[]] []": "[] [[]]", "[[[]] []]": "[[] [[]]]",
                 "\t1\n": "1"}),
    (lambda: TensorHopf(2), 6, {" v0v1 ": "v0v1", "v1v0\n": "v1v0", " 1": "1"}),
    (lambda: TensorHopf(3), 4, {" v2v0 ": "v2v0"}),
]
MALFORMED_KEYS = ["[[", "[]]", "", "v", "v²", "1 []"]


def _parse_outcome(hopf, text):
    try:
        return hopf.parse_basis(text)
    except ParseError as err:
        return str(err), err.offset


@pytest.mark.parametrize("make, truncation, spellings", LOOKUP_CASES,
                         ids=["ck", "tensor(2)", "tensor(3)"])
def test_parse_basis_lookup_equals_the_grammar(make, truncation, spellings):
    # A fresh instance has no table, so it parses every key and builds none;
    # once table(N) is built, a serial of its basis is that very element.
    cold, warm = make(), make()
    basis = make().all_basis_upto(truncation)
    assert [cold.parse_basis(b.serial) for b in basis] == basis
    assert not cold._tables
    table = warm.table(truncation)
    assert all(warm.parse_basis(b.serial) is b for b in table.basis)
    assert list(table.basis) == basis
    for text, canonical in spellings.items():
        for hopf in (cold, warm):
            assert hopf.parse_basis(text) == hopf.parse_basis(canonical)
            assert hopf.parse_basis(text).serial == canonical
    for text in MALFORMED_KEYS:
        outcome = _parse_outcome(cold, text)
        assert _parse_outcome(warm, text) == outcome
        assert isinstance(outcome, tuple)  # refused on both algebras


ONE_ELEMENT_CASES = [pytest.param(make, truncation, id=name) for (make, truncation, _), name
                     in zip(LOOKUP_CASES, ["ck", "tensor(2)", "tensor(3)"])]


@pytest.mark.parametrize("make, truncation", ONE_ELEMENT_CASES)
def test_one_element_structure_builds_no_table(make, truncation):
    # A fresh instance builds the rows of one element's own keys: its
    # coproduct is the row of that element in another instance's table(N),
    # and its antipode is the edge-subset sum (ck) or the signed reversal.
    hopf, table = make(), make().table(truncation)
    for basis in hopf.all_basis_upto(truncation):
        row = table.coproduct[table.index[basis]]
        assert Counter((c, l.serial, r.serial) for c, l, r in hopf.coproduct(basis)) == Counter(
            (c, table.basis[l].serial, table.basis[r].serial) for c, l, r in row)
        expected = (antipode_by_reversal(basis) if isinstance(basis, Word)
                    else antipode_by_edge_partitions(hopf, basis))
        assert hopf.antipode(basis) == expected
    assert not hopf._tables


@pytest.mark.parametrize("make, truncation", ONE_ELEMENT_CASES)
def test_first_and_rest_follow_their_definition(make, truncation):
    # b = first * rest with first the tree of b of least basis index, or the
    # first letter of a word: the pair that character_violation reports.
    table = make().table(truncation)
    basis, index = table.basis, table.index
    for i, b in enumerate(basis):
        if isinstance(b, Word):
            first, rest = Word(b.letters[:1]), Word(b.letters[1:])
        else:
            trees = sorted(b.trees, key=lambda tree: index[Forest([tree])])
            first, rest = Forest(trees[:1]), Forest(trees[1:])
        assert (basis[table.first[i]], basis[table.rest[i]]) == (first, rest)


def test_parse_basis_lookup_keeps_the_dimension_check():
    tensor_hopf(3).table(4)
    T2.table(4)
    assert tensor_hopf(3).parse_basis("v2") == Word([2])
    with pytest.raises(ParseError, match="out of range for tensor\\(2\\)"):
        T2.parse_basis("v2")


def test_resolve_hopf():
    assert resolve_hopf("ck") is CK
    assert resolve_hopf("tensor(2)") is T2
    assert resolve_hopf("tensor:3") is tensor_hopf(3)
    with pytest.raises(ParseError):
        resolve_hopf("group-algebra")
    for bad in ("tensor(0_2)", "tensor:+2", "tensor( 2)", "tensor(02)", "tensor()",
                "tensor(-2)", "tensor(\u0662)"):
        with pytest.raises(ParseError):
            resolve_hopf(bad)
    with pytest.raises(ValueError):
        tensor_hopf(0)


def test_multiset_helper_consistency():
    # the helper used across the suite counts multiplicities
    pairs = [(F_LEAF, F_LEAF), (F_LEAF, F_LEAF), (F_LEAF, F_CHAIN)]
    assert as_multiset(pairs) == {("[]", "[]"): 2, ("[]", "[[]]"): 1}


def _first_product(hopf):
    """A character product at truncation 6, which builds the index table of
    degree 6 on first use."""
    values = {g: Fraction(k + 1, 7) for k, g in enumerate(hopf.generators(6))}
    phi = char_from_generator_values(values, hopf, 6)
    return char_mul(phi, phi).functional


def _parse_around_first_table(hopf, serials):
    """Every serial parsed, half before and half after the first table(6), so
    that parsing races another thread's first build."""
    half = len(serials) // 2
    parsed = [hopf.parse_basis(s) for s in serials[:half]]
    basis = hopf.table(6).basis
    parsed += [hopf.parse_basis(s) for s in serials[half:]]
    assert parsed == list(basis)
    return parsed


def test_concurrent_first_factor_table_calls_agree():
    # Four threads make the first call to factored(6), to the coproduct of a
    # top-degree element, to a character product at degree 6, or parse every
    # serial of degree <= 6 around their first table(6), on a fresh instance
    # while the interpreter switches threads as often as it can.  The table
    # and serial memos are unlocked: racing threads may each build a whole
    # table, all equal, and one of them is kept, so every caller sees one.
    import sys
    import threading

    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for make in (CKHopf, lambda: TensorHopf(2)):
            top = make().basis(6)[-1]
            serials = [b.serial for b in make().all_basis_upto(6)]
            for call in (lambda hopf: hopf.factored(6), lambda hopf: hopf.coproduct(top),
                         _first_product, lambda hopf: _parse_around_first_table(hopf, serials)):
                expected = call(make())
                for _ in range(5):
                    hopf, results = make(), []
                    threads = [threading.Thread(target=lambda: results.append(call(hopf)))
                               for _ in range(4)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=60)
                    assert not any(thread.is_alive() for thread in threads)
                    assert results == [expected] * 4
                    assert call(hopf) == expected
    finally:
        sys.setswitchinterval(interval)

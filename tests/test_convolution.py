import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from hopfchar.characters import tree_values_from_json_dict
from hopfchar.convolution import (
    TruncatedFunctional,
    conv_inverse,
    conv_unit,
    convolve,
    delta,
)
from hopfchar.errors import IncompatibleError, NotInvertibleError, ParseError, ResourceLimitError
from hopfchar.evolution import FunctionalCurve
from hopfchar.hopf import CKHopf, TensorHopf, Word, ck_hopf, tensor_hopf
from hopfchar.rings import RATIONAL, TruncatedSeriesRing
from sampling import (
    random_character,
    random_functional,
    random_invertible,
)
from hopfchar.trees import Forest, LEAF, parse_tree

from helpers import project, restrict

CK = ck_hopf()
T2 = tensor_hopf(2)
SERIES = TruncatedSeriesRing(2)
CHAIN = parse_tree("[[]]")
CHAIN3 = parse_tree("[[[]]]")
CHERRY = parse_tree("[[] []]")
F_LEAF = Forest([LEAF])
F_CHAIN = Forest([CHAIN])
F_LL = Forest([LEAF, LEAF])

INSTANCES = [(CK, RATIONAL), (CK, SERIES), (T2, RATIONAL)]
INSTANCE_IDS = [f"{h.key}/{r.key}" for h, r in INSTANCES]


def test_unit_laws():
    unit = conv_unit(CK, RATIONAL, 5)
    d = delta(CK, RATIONAL, 5, F_LEAF)
    assert convolve(unit, unit) == unit
    assert convolve(d, unit) == d
    assert convolve(unit, d) == d
    assert unit.value(CK.unit_basis) == 1
    assert unit.value(F_LEAF) == 0


def test_delta_leaf_square():
    d = delta(CK, RATIONAL, 4, F_LEAF)
    dd = convolve(d, d)
    assert dd.value(F_CHAIN) == 1
    assert dd.value(F_LL) == 2
    assert dd.value(F_LEAF) == 0


def test_tensor_convolution_on_degree_one_support():
    rng = random.Random(21)
    for _ in range(10):
        phi = TruncatedFunctional(
            T2, RATIONAL, 3,
            {w: Fraction(rng.randint(-5, 5)) for w in T2.basis(1)},
        )
        psi = TruncatedFunctional(
            T2, RATIONAL, 3,
            {w: Fraction(rng.randint(-5, 5)) for w in T2.basis(1)},
        )
        prod = convolve(phi, psi)
        v0, v1 = Word([0]), Word([1])
        expected = phi.value(v0) * psi.value(v1) + phi.value(v1) * psi.value(v0)
        assert prod.value(Word([0, 1])) == expected


@pytest.mark.parametrize("hopf,ring", INSTANCES, ids=INSTANCE_IDS)
def test_associativity_and_bilinearity(hopf, ring):
    rng = random.Random(22)
    for _ in range(5):
        a = random_functional(hopf, ring, 4, rng)
        b = random_functional(hopf, ring, 4, rng)
        c = random_functional(hopf, ring, 4, rng)
        assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))
        assert convolve(a + b, c) == convolve(a, c) + convolve(b, c)
        assert convolve(a, b + c) == convolve(a, b) + convolve(a, c)
        q = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        assert convolve(a.scale(q), b) == convolve(a, b).scale(q)


def test_inverse_small_cases():
    unit = conv_unit(CK, RATIONAL, 4)
    assert conv_inverse(unit) == unit
    inv = conv_inverse(unit + delta(CK, RATIONAL, 4, F_LEAF))
    assert inv.value(F_LEAF) == -1
    assert inv.value(F_CHAIN) == 1


def test_inverse_over_series_ring():
    ring = SERIES
    phi = TruncatedFunctional(CK, ring, 3, {CK.unit_basis: ring.element([1, 1])})
    inv = conv_inverse(phi)
    assert inv.degree0 == ring.element([1, -1, 1])
    assert convolve(phi, inv) == conv_unit(CK, ring, 3)


@pytest.mark.parametrize("hopf,ring", INSTANCES, ids=INSTANCE_IDS)
def test_inverse_law_randomized(hopf, ring):
    rng = random.Random(23)
    unit = conv_unit(hopf, ring, 4)
    for _ in range(10):
        phi = random_invertible(hopf, ring, 4, rng)
        inv = conv_inverse(phi)
        assert convolve(phi, inv) == unit
        assert convolve(inv, phi) == unit


def test_non_invertible_error():
    with pytest.raises(NotInvertibleError):
        conv_inverse(delta(CK, RATIONAL, 3, F_LEAF))
    ring = SERIES
    phi = TruncatedFunctional(CK, ring, 3, {CK.unit_basis: ring.element([0, 1])})
    with pytest.raises(NotInvertibleError):
        conv_inverse(phi)


def test_project():
    unit = conv_unit(CK, RATIONAL, 4)
    d = delta(CK, RATIONAL, 4, F_LEAF)
    assert project(unit, 0) == unit
    assert not project(d, 0).values
    assert project(unit + d, 1) == d


def test_degree_zero_projection_is_multiplicative():
    rng = random.Random(24)
    for _ in range(10):
        a = random_functional(CK, RATIONAL, 4, rng)
        b = random_functional(CK, RATIONAL, 4, rng)
        assert project(convolve(a, b), 0) == convolve(project(a, 0), project(b, 0))


def test_precompose_antipode():
    unit = conv_unit(CK, RATIONAL, 4)
    assert unit.precompose_antipode() == unit
    d = delta(CK, RATIONAL, 4, F_LEAF)
    assert d.precompose_antipode().value(F_LEAF) == -1


def test_antipode_precomposition_inverts_characters():
    rng = random.Random(25)
    for hopf, ring in INSTANCES:
        for _ in range(5):
            phi = random_character(hopf, ring, 4, rng).functional
            assert phi.precompose_antipode() == conv_inverse(phi)


def test_generic_convolution_is_not_commutative():
    # witnessed at the cherry: delta_leaf * delta_chain sees the two cut
    # positions, the reverse order sees none
    d1 = delta(CK, RATIONAL, 4, F_LEAF)
    d2 = delta(CK, RATIONAL, 4, F_CHAIN)
    forward = convolve(d1, d2)
    backward = convolve(d2, d1)
    assert forward.value(Forest([CHERRY])) == 2
    assert backward.value(Forest([CHERRY])) == 0
    assert forward.value(Forest([CHAIN3])) == 1
    assert backward.value(Forest([CHAIN3])) == 1
    assert forward != backward


def test_truncation_stability():
    rng = random.Random(26)
    for _ in range(10):
        a6 = random_functional(CK, RATIONAL, 6, rng)
        b6 = random_functional(CK, RATIONAL, 6, rng)
        a4, b4 = restrict(a6, 4), restrict(b6, 4)
        assert restrict(convolve(a6, b6), 4) == convolve(a4, b4)
        inv6 = conv_inverse(a6 + conv_unit(CK, RATIONAL, 6))
        inv4 = conv_inverse(a4 + conv_unit(CK, RATIONAL, 4))
        assert restrict(inv6, 4) == inv4


def test_incompatibility_errors():
    a = conv_unit(CK, RATIONAL, 4)
    with pytest.raises(IncompatibleError):
        convolve(a, conv_unit(CK, RATIONAL, 5))
    with pytest.raises(IncompatibleError):
        convolve(a, conv_unit(T2, RATIONAL, 4))
    with pytest.raises(IncompatibleError):
        convolve(a, conv_unit(CK, SERIES, 4))


def test_values_above_truncation_rejected():
    with pytest.raises(ValueError):
        TruncatedFunctional(CK, RATIONAL, 1, {F_CHAIN: Fraction(1)})


def test_zero_values_dropped():
    phi = TruncatedFunctional(CK, RATIONAL, 2, {F_LEAF: Fraction(0)})
    assert not phi.values
    assert phi == TruncatedFunctional(CK, RATIONAL, 2, {})


def test_json_roundtrip_and_golden_shape():
    phi = conv_unit(CK, RATIONAL, 6) + delta(CK, RATIONAL, 6, F_CHAIN).scale(
        Fraction(1, 2)
    )
    data = json.loads(phi.to_json())
    assert data == {
        "hopf": "ck",
        "ring": "rational",
        "truncation": 6,
        "values": {"1": "1", "[[]]": "1/2"},
    }
    assert TruncatedFunctional.from_json(phi.to_json()) == phi


def test_json_roundtrip_series_and_tensor():
    ring = SERIES
    phi = TruncatedFunctional(
        T2, ring, 3, {Word([0]): ring.element([0, 1]), Word([1, 0]): ring.one}
    )
    assert TruncatedFunctional.from_json(phi.to_json()) == phi


def test_wide_series_payload_is_refused_before_the_ring_builds_an_element():
    # series:1999999 on the 8 ck basis elements of degree <= 3 is 16,000,000
    # coordinates, past SIZE_BUDGET; one of its (M + 1)-tuples alone takes 16 MB.
    payload = {"hopf": "ck", "ring": "series:1999999", "truncation": 3, "values": {}}
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="exceeds 2000000 value coordinates"):
            TruncatedFunctional.from_json_dict(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


@pytest.mark.parametrize("payload", ["5", "null", '"x"', "[]"])
@pytest.mark.parametrize("decode", [
    TruncatedFunctional.from_json,
    lambda text: FunctionalCurve.from_json_dict(json.loads(text)),
    lambda text: tree_values_from_json_dict(json.loads(text)),
], ids=["functional", "curve", "tree-values"])
def test_codecs_refuse_non_objects(decode, payload):
    with pytest.raises(ParseError, match="^expected a JSON object"):
        decode(payload)


@pytest.mark.parametrize("hopf, first, second", [
    ("ck", "[[]] []", "[] [[]]"),
    ("tensor(2)", "v0v1", " v0v1"),
], ids=["ck", "tensor(2)"])
def test_two_spellings_of_one_element_are_a_parse_error(hopf, first, second):
    data = {"hopf": hopf, "ring": "rational", "truncation": 3,
            "values": {"1": "1", first: "1", second: "2"}}
    with pytest.raises(ParseError) as err:
        TruncatedFunctional.from_json_dict(data)
    assert repr(first) in str(err.value) and repr(second) in str(err.value)


@pytest.mark.parametrize("hopf, make, truncation", [(CK, CKHopf, 5),
                                                    (T2, lambda: TensorHopf(2), 4)],
                         ids=["ck", "tensor(2)"])
def test_warm_decoding_never_calls_the_grammar(monkeypatch, hopf, make, truncation):
    # With table(N) built, every key of a dense character is the serial of
    # one of its elements, so the grammar parser is never called; a fresh
    # instance with no table parses each key once.
    from hopfchar import hopf as hopf_module

    calls = []

    def counting(parse):
        def wrapped(text):
            calls.append(text)
            return parse(text)
        return wrapped

    monkeypatch.setattr(hopf_module, "parse_forest", counting(hopf_module.parse_forest))
    monkeypatch.setattr(hopf_module, "parse_word", counting(hopf_module.parse_word))
    phi = random_character(hopf, RATIONAL, truncation, random.Random(14)).functional
    text = phi.to_json()
    keys = list(json.loads(text)["values"])
    hopf.table(truncation)
    del calls[:]
    assert TruncatedFunctional.from_json(text) == phi
    assert calls == []
    fresh = make()
    assert [fresh.parse_basis(key) for key in keys] == [hopf.parse_basis(key) for key in keys]
    assert calls == keys


@pytest.mark.parametrize("hopf, truncation, key", [("ck", 50, "[[]] []"),
                                                   ("tensor(2)", 40, "v1v0")],
                         ids=["ck", "tensor(2)"])
def test_sparse_payload_beyond_any_table_loads(hopf, truncation, key):
    # Parsing builds no table: one at this truncation would exceed its cap.
    data = {"hopf": hopf, "ring": "rational", "truncation": truncation,
            "values": {"1": "1", key: "-1/2"}}
    phi = TruncatedFunctional.from_json_dict(data)
    assert phi.truncation == truncation and len(phi.values) == 2
    assert truncation not in phi.hopf._tables
    with pytest.raises(ParseError, match="expected"):
        TruncatedFunctional.from_json_dict(dict(data, values={"1": "1", "x": "1"}))

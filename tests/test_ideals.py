import json
import random
import re
import sys
import threading
from fractions import Fraction

import pytest

from hopfchar import cli, ideals
from hopfchar.characters import (
    InfinitesimalCharacter,
    char_exp,
    char_from_tree_values,
    char_inv,
    char_log,
    char_mul,
    char_unit,
    lie_bracket,
    tree_values,
)
from hopfchar.convolution import TruncatedFunctional, conv_unit, delta
from hopfchar.errors import IdealError, IncompatibleError, MembershipError, ResourceLimitError
from hopfchar.hopf import GradedVector, Word, ck_hopf, tensor_hopf
from hopfchar.ideals import (
    HopfIdealSpec,
    annihilates,
    annihilator_violation,
    is_symplectic,
    symplectic_generators,
)
from hopfchar.rings import RATIONAL, TruncatedSeriesRing
from sampling import (
    annihilating_tree_value_basis,
    random_annihilating_character,
    random_annihilating_infinitesimal,
    random_character,
    random_functional,
    random_ring_element,
    random_tree_values,
)
from hopfchar.trees import Forest, LEAF, enumerate_trees, parse_tree

from helpers import (
    antipode_vector,
    coproduct_in_coideal,
    evaluate_by_fold,
    ideal_degree_span,
    parent_array,
    symplectic_generators_by_pairs,
    vector_in_ideal_degree,
    vector_of,
)

CK = ck_hopf()
T2 = tensor_hopf(2)
CHAIN = parse_tree("[[]]")
CHAIN3 = parse_tree("[[[]]]")
CHERRY = parse_tree("[[] []]")
F_LEAF = Forest([LEAF])
F_CHAIN = Forest([CHAIN])


def test_ideal_spec_validation():
    good = GradedVector([(F_CHAIN, 2), (Forest([LEAF, LEAF]), -1)])
    HopfIdealSpec(CK, [good])
    mixed = GradedVector([(F_CHAIN, 1), (F_LEAF, 1)])  # degrees 2 and 1
    with pytest.raises(IdealError):
        HopfIdealSpec(CK, [mixed])
    with pytest.raises(IdealError):
        HopfIdealSpec(CK, [vector_of(CK.unit_basis)])  # degree 0
    with pytest.raises(IdealError):
        HopfIdealSpec(CK, [GradedVector()])  # zero


def test_symplectic_generators_small():
    ideal2 = symplectic_generators(2)
    assert len(ideal2.generators) == 1
    assert ideal2.generators[0].format() == "2 [[]] - [] []"
    ideal3 = symplectic_generators(3)
    formats = {g.format() for g in ideal3.generators}
    assert "2 [[]] - [] []" in formats
    assert "[[[]]] + [[] []] - [] [[]]" in formats
    assert len(ideal3.generators) == 2
    for truncation in (2, 3, 4, 5):
        ideal = symplectic_generators(truncation)
        assert [g.degrees() for g in ideal.generators] == [{d} for d in ideal.degrees]
        assert max(ideal.degrees) <= truncation
    with pytest.raises(IdealError):
        symplectic_generators(1)


def test_unit_annihilates_everything():
    ideal = symplectic_generators(4)
    assert annihilates(char_unit(CK, RATIONAL, 4), ideal)


def test_midpoint_sample_annihilates_order_2():
    ideal = symplectic_generators(2)
    phi = char_from_tree_values({LEAF: Fraction(1), CHAIN: Fraction(1, 2)}, 2)
    assert annihilates(phi, ideal)
    # 2 * (1/2) - 1 * 1 = 0 on the single generator
    assert phi.functional.evaluate(ideal.generators[0]) == 0


def test_delta_chain_fails_with_reported_generator():
    ideal = symplectic_generators(2)
    d = InfinitesimalCharacter(delta(CK, RATIONAL, 2, F_CHAIN))
    violated = annihilator_violation(d, ideal)
    assert violated is not None
    assert d.functional.evaluate(violated) == 2


def test_annihilates_rejects_non_members():
    ideal = symplectic_generators(3)
    bad = conv_unit(CK, RATIONAL, 3) + delta(CK, RATIONAL, 3, F_LEAF)
    with pytest.raises(MembershipError):
        annihilates(bad, ideal)
    # raw functionals passing a predicate are fine
    assert annihilates(delta(CK, RATIONAL, 3, F_LEAF), ideal)


def test_annihilates_refuses_an_ideal_over_another_algebra(monkeypatch):
    # Lookups across algebras would all miss and count as zero, so a tensor
    # character would "annihilate" the symplectic ideal.  The keys are compared
    # before any generator is read: reading one would call None.
    rng = random.Random(7)
    commutator = HopfIdealSpec(T2, [GradedVector([(Word([0, 1]), 1), (Word([1, 0]), -1)])])
    cases = [(random_character(T2, RATIONAL, 4, rng), symplectic_generators(4)),
             (random_character(CK, RATIONAL, 4, rng), commutator)]
    monkeypatch.setattr(HopfIdealSpec, "generators_upto", None)
    for phi, ideal in cases:
        message = f"functional over {phi.functional.hopf.key} vs ideal over {ideal.hopf.key}"
        for candidate in (phi, phi.functional):
            with pytest.raises(IncompatibleError, match=re.escape(message)):
                annihilates(candidate, ideal)


def test_is_symplectic_samples():
    assert is_symplectic({}, 4)  # the identity tree map (all zeros)
    assert is_symplectic({LEAF: Fraction(1), CHAIN: Fraction(1, 2)}, 2)
    assert not is_symplectic({LEAF: Fraction(1), CHAIN: Fraction(0)}, 2)


def test_exact_flow_map_is_symplectic():
    def density(tree):
        d = tree.order
        for child in tree.children:
            d *= density(child)
        return d

    values = {
        t: Fraction(1, density(t)) for level in enumerate_trees(6) for t in level
    }
    assert is_symplectic(values, 6)
    assert annihilates(char_from_tree_values(values, 6), symplectic_generators(6))


@pytest.mark.parametrize("ring", [RATIONAL, TruncatedSeriesRing(3)], ids=["rational", "series3"])
def test_is_symplectic_agrees_with_annihilates(ring):
    rng = random.Random(61)
    ideal = symplectic_generators(5)
    for _ in range(25):
        values = random_tree_values(5, rng, ring)
        direct = is_symplectic(values, 5, ring)
        via_ideal = annihilates(char_from_tree_values(values, 5, ring), ideal)
        assert direct == via_ideal
    for _ in range(10):
        phi = random_annihilating_character(ideal, ring, 5, rng)
        values = tree_values(phi)
        assert is_symplectic(values, 5, ring)
        assert annihilates(phi, ideal)
    # A member moved by X^3 (the top coordinate; 1 over the rationals) on one
    # tree of order 5: that tree is a graft but never a factor, so every broken
    # relation differs in the top coordinate alone.
    top = ring.from_coordinates([Fraction(0)] * (ring.width - 1) + [Fraction(1)])
    tree = enumerate_trees(5)[-1][0]
    values[tree] = ring.add(values.get(tree, ring.zero), top)
    assert not is_symplectic(values, 5, ring)
    assert not annihilates(char_from_tree_values(values, 5, ring), ideal)


def test_subgroup_closure():
    rng = random.Random(62)
    ideal = symplectic_generators(5)
    for _ in range(5):
        phi = random_annihilating_character(ideal, RATIONAL, 5, rng)
        psi = random_annihilating_character(ideal, RATIONAL, 5, rng)
        assert annihilates(char_mul(phi, psi), ideal)
        assert annihilates(char_inv(phi), ideal)
        a = random_annihilating_infinitesimal(ideal, RATIONAL, 5, rng)
        b = random_annihilating_infinitesimal(ideal, RATIONAL, 5, rng)
        assert annihilates(lie_bracket(a, b), ideal)
        assert annihilates(char_exp(a), ideal)
        assert annihilates(char_log(phi), ideal)


def test_subgroup_closure_over_series_ring():
    rng = random.Random(63)
    ring = TruncatedSeriesRing(2)
    ideal = symplectic_generators(4)
    phi = random_annihilating_character(ideal, ring, 4, rng)
    psi = random_annihilating_character(ideal, ring, 4, rng)
    assert annihilates(char_mul(phi, psi), ideal)
    assert annihilates(char_inv(phi), ideal)


def test_generator_shortcut_against_span_oracle():
    # vanishing on generators implies vanishing on the full degree-d piece of
    # the generated ideal (degree <= 4), and membership is genuinely larger
    # than the generators alone
    rng = random.Random(64)
    ideal = symplectic_generators(4)
    characters = [
        random_annihilating_character(ideal, RATIONAL, 4, rng) for _ in range(5)
    ]
    infinitesimals = [
        random_annihilating_infinitesimal(ideal, RATIONAL, 4, rng) for _ in range(5)
    ]
    for degree in range(1, 5):
        basis, span = ideal_degree_span(ideal, degree)
        for vec in span:
            element = GradedVector(zip(basis, vec))
            for phi in characters:
                assert RATIONAL.is_zero(phi.functional.evaluate(element))
            for phi in infinitesimals:
                assert RATIONAL.is_zero(phi.functional.evaluate(element))
    # the degree-4 piece contains products generator * monomial beyond the
    # generators themselves
    _, span4 = ideal_degree_span(ideal, 4)
    assert len(span4) > len(ideal.generators_upto(4))


def _free_trees(n):
    """The free (unrooted) trees with n nodes, each mapped to whether it is
    non-superfluous, found by rerooting every rooted tree of order n.  A free
    tree is superfluous when one of its edges joins two isomorphic halves."""
    found = {}
    for tree in enumerate_trees(n)[n - 1]:
        adjacent = [[] for _ in range(n)]
        for node, parent in enumerate(parent_array(tree)):
            if parent >= 0:
                adjacent[node].append(parent)
                adjacent[parent].append(node)

        def code(node, away_from):  # the half at node once its edge to away_from is cut
            return "(" + "".join(sorted(code(m, node) for m in adjacent[node]
                                        if m != away_from)) + ")"
        key = min(code(root, -1) for root in range(n))
        found[key] = not any(code(u, v) == code(v, u) for u in range(n) for v in adjacent[u])
    return found


def test_symplectic_lie_algebra_dimension_by_order():
    """The annihilating infinitesimal characters of the symplectic ideal have,
    in order n, the dimension of the non-superfluous free trees with n nodes
    (Chartier-Faou-Murua 2006).  Order 9 takes over a second, so n <= 8."""
    counts = [_free_trees(n) for n in range(1, 9)]
    assert [len(c) for c in counts] == [1, 1, 1, 2, 3, 6, 11, 23]
    non_superfluous = [sum(c.values()) for c in counts]
    assert non_superfluous == [1, 0, 1, 1, 3, 4, 11, 19]
    trees, basis = annihilating_tree_value_basis(symplectic_generators(8), 8)
    orders = [{t.order for t, coord in zip(trees, vec) if coord} for vec in basis]
    assert all(len(o) == 1 for o in orders)  # the ideal is homogeneous
    assert [orders.count({n}) for n in range(1, 9)] == non_superfluous


def test_symplectic_ideal_is_coideal_and_antipode_stable():
    # finite check at degree <= 5 via the span oracle; the construction only
    # guarantees an algebra ideal, these two properties are extra
    ideal = symplectic_generators(5)
    for gen, degree in zip(ideal.generators, ideal.degrees):
        assert vector_in_ideal_degree(ideal, antipode_vector(CK, gen), degree)
        assert coproduct_in_coideal(ideal, gen)


# -- the memoized pair table and spec ------------------------------------------


def test_memoized_generators_equal_a_fresh_construction():
    for truncation in range(2, 10):
        spec, fresh = symplectic_generators(truncation), symplectic_generators_by_pairs(truncation)
        assert spec.generators == fresh.generators  # generator by generator, in order
        degrees = tuple(d for g in fresh.generators for d in g.degrees())
        assert spec.degrees == fresh.degrees == degrees
        assert spec.hopf is fresh.hopf
        assert symplectic_generators(truncation) is spec


def test_refusals_are_not_memoized():
    for _ in range(2):
        with pytest.raises(IdealError):
            symplectic_generators(1)
        with pytest.raises(ResourceLimitError):
            symplectic_generators(14)
        with pytest.raises(ResourceLimitError):
            is_symplectic({}, 14)
    assert is_symplectic({}, 0) and is_symplectic({}, -3)
    kept = set(range(2, ideals.MEMO_MAX_TRUNCATION + 1))
    assert set(ideals._symplectic_specs) <= kept and set(ideals._pair_tables) <= kept


def test_truncations_past_the_memo_are_built_per_call(monkeypatch):
    # N = 11 keeps 4 MB and N = 13 27 MB; such an N is built afresh each call
    monkeypatch.setattr(ideals, "_pair_tables", {})
    monkeypatch.setattr(ideals, "_symplectic_specs", {})
    truncation = ideals.MEMO_MAX_TRUNCATION + 1
    spec = symplectic_generators(truncation)
    again = symplectic_generators(truncation)
    assert again is not spec and again.generators == spec.generators
    assert is_symplectic({}, truncation)
    assert ideals._pair_tables == {} and ideals._symplectic_specs == {}


def test_racing_first_calls_get_equal_specs(monkeypatch):
    # Four threads make the first call on a cleared memo while the interpreter
    # switches threads as often as it can; each may build a spec, one is kept.
    fresh = symplectic_generators_by_pairs(7)
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for _ in range(5):
            monkeypatch.setattr(ideals, "_pair_tables", {})
            monkeypatch.setattr(ideals, "_symplectic_specs", {})
            barrier, specs = threading.Barrier(4), []

            def first_call():
                barrier.wait()
                specs.append(symplectic_generators(7))

            threads = [threading.Thread(target=first_call) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert len(specs) == 4 and all(spec.generators == fresh.generators for spec in specs)
            assert all(spec is symplectic_generators(7) for spec in specs)
    finally:
        sys.setswitchinterval(interval)


def test_cli_generator_count_equals_the_pairs(tmp_path, capsys):
    counts = []
    for truncation in range(8):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"truncation": truncation, "trees": {"[]": "1"}}))
        assert cli.main(["char", "symplectic", str(path), "--format", "json"]) == 0
        counts.append(json.loads(capsys.readouterr().out)["generators"])
    assert counts == [0, 0] + [len(symplectic_generators_by_pairs(n).generators)
                               for n in range(2, 8)]
    assert counts == [0, 0, 1, 2, 5, 11, 27, 64]  # as the parent commit reports them


def _count_calls(monkeypatch, module, name) -> list:
    """Patch ``module.name`` with a wrapper that appends to the returned list
    on each call."""
    calls, original = [], getattr(module, name)

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_warm_memo_grafts_nothing(monkeypatch):
    monkeypatch.setattr(ideals, "_pair_tables", {})
    monkeypatch.setattr(ideals, "_symplectic_specs", {})
    grafts = _count_calls(monkeypatch, ideals, "butcher_product")
    vectors = _count_calls(monkeypatch, ideals, "GradedVector")
    values = random_tree_values(7, random.Random(65))
    spec = symplectic_generators(7)
    assert len(grafts) == 2 * len(spec.generators)  # each pair grafted both ways, once
    assert len(vectors) == len(spec.generators)
    grafts.clear()
    vectors.clear()
    assert symplectic_generators(7) is spec
    is_symplectic(values, 7)
    assert grafts == [] and vectors == []


# -- evaluate against the fold of scale and add --------------------------------


LARGE_COPRIME = (10**19 + 51, 2**64 - 59, 3**41, 7**23)  # pairwise coprime denominators


def _coefficient(rng, large: bool) -> Fraction:
    if large:
        return Fraction(rng.randint(-10**20, 10**20), rng.choice(LARGE_COPRIME))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


@pytest.mark.parametrize("hopf, ring", [(CK, RATIONAL), (CK, TruncatedSeriesRing(3)),
                                        (T2, RATIONAL), (T2, TruncatedSeriesRing(3))],
                         ids=["rational", "series3", "tensor2/rational", "tensor2/series3"])
def test_evaluate_agrees_with_the_fold(hopf, ring):
    rng = random.Random(66)
    truncation = 4
    above = list(hopf.all_basis_upto(truncation + 2))  # terms up to two degrees above N
    for trial in range(60):
        phi = random_functional(hopf, ring, truncation, rng, density=0.5)  # absent bases too
        vec = GradedVector((b, _coefficient(rng, trial % 2))
                           for b in rng.sample(above, rng.randint(1, 12)))
        assert phi.evaluate(vec) == evaluate_by_fold(phi, vec)
    phi = random_functional(hopf, ring, truncation, rng)
    assert phi.evaluate(GradedVector()) == ring.zero
    # terms that cancel: equal values on two bases, coefficients c and -c
    value = random_ring_element(ring, rng)
    a, b = hopf.basis(3)[:2]
    phi = TruncatedFunctional(hopf, ring, truncation, {a: value, b: value})
    vec = GradedVector([(a, Fraction(7, LARGE_COPRIME[0])), (b, Fraction(-7, LARGE_COPRIME[0]))])
    assert phi.evaluate(vec) == evaluate_by_fold(phi, vec) == ring.zero


@pytest.mark.parametrize("ring", [RATIONAL, TruncatedSeriesRing(3)], ids=["rational", "series3"])
def test_violation_is_the_first_violated_generator(ring):
    rng = random.Random(67)
    truncation = 5
    ideal = symplectic_generators(truncation)
    trees = [t for level in enumerate_trees(truncation) for t in level]
    found = set()
    for trial in range(20):
        # a member nudged on one tree, as an infinitesimal character or its exp
        member = random_annihilating_infinitesimal(ideal, ring, truncation, rng).functional
        nudge = delta(CK, ring, truncation, Forest([rng.choice(trees)])).scale(rng.randint(1, 3))
        phi = InfinitesimalCharacter(member + nudge)
        if trial % 2:
            phi = char_exp(phi)
        first = next((g for g in ideal.generators
                      if not ring.is_zero(evaluate_by_fold(phi.functional, g))), None)
        assert annihilator_violation(phi, ideal) is first
        found.add(ideal.generators.index(first) if first is not None else None)
    assert len(found) > 5  # violations spread over many generators

import itertools
import tracemalloc

import pytest

from hopfchar import trees
from hopfchar.errors import SIZE_BUDGET, ParseError, ResourceLimitError
from hopfchar.hopf import EMPTY_WORD
from hopfchar.trees import (
    EMPTY_FOREST,
    LEAF,
    Forest,
    butcher_product,
    edge_partitions,
    enumerate_forests,
    enumerate_trees,
    ordered_subtrees,
    parse_forest,
    parse_tree,
)

from helpers import (
    as_multiset,
    edge_partitions_by_edge_masks,
    grow_trees,
    parent_array,
    parse_tree_at_by_recursion,
    subtree_pairs_by_vertex_subsets,
    trees_isomorphic,
)

CHAIN = parse_tree("[[]]")
CHAIN3 = parse_tree("[[[]]]")
CHERRY = parse_tree("[[] []]")


def all_trees(max_order):
    return [t for level in enumerate_trees(max_order) for t in level]


def test_parse_smallest_trees():
    assert parse_tree("[]") == LEAF
    assert parse_tree("[]").order == 1
    assert parse_tree("[[]]").order == 2
    assert parse_tree(" [ [ ] ] ") == CHAIN


def test_parse_canonicalizes_child_order():
    a = parse_tree("[[] [[]]]")
    b = parse_tree("[[[]] []]")
    assert a == b
    assert a.serial == b.serial
    # the isomorphism oracle agrees they are the same tree
    assert trees_isomorphic(a, b)


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse_tree("[[]")
    assert err.value.offset == 3
    with pytest.raises(ParseError):
        parse_tree("[] []")  # a forest, not a tree
    with pytest.raises(ParseError):
        parse_tree("x")
    with pytest.raises(ParseError):
        parse_tree("")


def _parse_outcomes(texts) -> list:
    """What ``parse_tree`` and ``parse_forest`` make of each text: the
    result's repr, or the ``ParseError`` message and offset."""
    out = []
    for text in texts:
        for parse in (parse_tree, parse_forest):
            try:
                out.append(repr(parse(text)))
            except ParseError as err:
                out.append((str(err), err.offset))
    return out


def test_stack_parser_agrees_with_the_recursive_parser(monkeypatch):
    # every string of length <= 7 over "[", "]", " ", "1": results, messages
    # and offsets as the parser that recurses once per nesting level gives
    # them, on an empty intern table and again on the table the first pass filled
    texts = ["".join(chars) for n in range(8) for chars in itertools.product("[] 1", repeat=n)]
    monkeypatch.setattr(trees, "_PARSED", {})
    cold = _parse_outcomes(texts)
    assert trees._PARSED
    warm = _parse_outcomes(texts)
    monkeypatch.setattr(trees, "_PARSED", {})
    monkeypatch.setattr(trees, "_parse_tree_at", parse_tree_at_by_recursion)
    assert cold == warm == _parse_outcomes(texts)
    assert not trees._PARSED


def test_parse_interns_each_tree_once(monkeypatch):
    monkeypatch.setattr(trees, "_PARSED", {})
    tree = parse_tree("[[] [[]]]")
    assert parse_tree("[[] [[]]]") is tree
    assert parse_tree("[[[]] []]") is tree
    assert parse_tree(" [ [] [ [ ] ] ]\n") is tree
    assert any(t is tree for t in parse_forest("[[]] [[[]] []]"))
    assert tree.children == (parse_tree("[]"), parse_tree("[[]]"))
    assert all(child is parse_tree(child.serial) for child in tree.children)


def test_intern_table_holds_canonical_keys_up_to_the_order_cap(monkeypatch):
    monkeypatch.setattr(trees, "_PARSED", {})
    for text in [" [ [] ] ", "[[[]] []]", "[[] [[]]]", "[" * 1000 + "]" * 1000]:
        parse_tree(text)
    table = trees._PARSED
    assert all(key == tree.serial and tree.order <= trees.DEFAULT_ORDER_CAP
               for key, tree in table.items())
    chains = {"[" * k + "]" * k for k in range(1, trees.DEFAULT_ORDER_CAP + 1)}
    assert set(table) == chains | {"[[] [[]]]"}


class _RecordingDict(dict):
    """A dict that records the keys it is asked for with ``get``."""

    def __init__(self):
        super().__init__()
        self.asked: list[str] = []

    def get(self, key, default=None):
        self.asked.append(key)
        return super().get(key, default)


def test_parse_looks_up_only_texts_short_enough_to_be_interned(monkeypatch):
    # a tree of order n serializes in at most 3n - 2 bytes, so longer text is
    # never looked up: the whitespace inside a deep chain is read once, not
    # once per enclosing bracket
    table = _RecordingDict()
    monkeypatch.setattr(trees, "_PARSED", table)
    cap = trees.DEFAULT_ORDER_CAP
    assert parse_forest("[" * 100 + " " * 10_000 + "]" * 100).degree == 100
    assert table.asked == [] and set(table) == {"[" * k + "]" * k for k in range(1, cap + 1)}
    star = parse_tree("[" + " ".join(["[]"] * (cap - 1)) + "]")
    assert len(star.serial) == 3 * cap - 2 and table[star.serial] is star
    assert table.asked[-1] == star.serial and all(len(key) < 3 * cap for key in table.asked)


@pytest.mark.parametrize("fits, refused", [((1414,), (1415,)), ((424, 1348), (424, 1349))],
                         ids=["one-chain", "two-chains"])
def test_serial_budget_is_the_same_cold_and_warm(monkeypatch, fits, refused):
    # d open brackets count d^2 bytes, and a chain d deep then keeps d(d+1)
    # bytes of serials, hit or miss: 424 * 425 + 1349^2 is the budget plus 1
    def chains(depths):
        return " ".join("[" * d + "]" * d for d in depths)

    parses = [parse_forest] + ([parse_tree] if len(fits) == 1 else [])
    monkeypatch.setattr(trees, "_PARSED", {})
    for _ in range(2):  # on an empty table, then on the table the first pass filled
        for parse in parses:
            assert parse(chains(fits)).serial == chains(fits)
            with pytest.raises(ResourceLimitError, match=f"exceed {SIZE_BUDGET} bytes"):
                parse(chains(refused))
    assert len(trees._PARSED) == trees.DEFAULT_ORDER_CAP


def test_parse_nesting_deeper_than_the_recursion_limit():
    depth = 1200
    chain = parse_tree("[" * depth + "]" * depth)
    assert chain.order == depth
    assert parse_forest("[] " + "[" * depth + " ]" * depth).degree == depth + 1
    with pytest.raises(ParseError) as err:
        parse_tree("[" * depth + "]" * (depth - 1))
    assert err.value.offset == 2 * depth - 1 and "unclosed" in str(err.value)


@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,  # open brackets alone would need ~10 GB
    "[" * 1000 + "[]" * 10_000 + "]" * 1000,  # each of 1,000 ancestors holds 20 KB
    "[" * 1100 + "]" * 1100 + " [" * 1100 + " ]" * 1100,  # two chains, one forest
], ids=["deep-chain", "wide-bottom", "two-chains"])
def test_parse_refuses_serials_past_the_size_budget(text):
    # a chain d deep keeps d(d+1) bytes of serials; the budget allows ~1,400
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=f"exceed {SIZE_BUDGET} bytes"):
            parse_forest(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * SIZE_BUDGET


def test_parse_serialize_roundtrip_up_to_order_6():
    for tree in all_trees(6):
        assert parse_tree(tree.serial) == tree


def test_canonical_form_matches_isomorphism_oracle():
    # two trees of order <= 5 serialize identically iff they are isomorphic
    trees = all_trees(5)
    for a in trees:
        for b in trees:
            assert (a.serial == b.serial) == trees_isomorphic(a, b)


def test_forest_canonical_form():
    f = Forest([LEAF, CHAIN, LEAF])
    assert f.serial == "[] [] [[]]"
    assert f.degree == 4
    assert Forest([CHAIN, LEAF, LEAF]) == f
    assert EMPTY_FOREST.serial == "1"
    assert EMPTY_FOREST.degree == 0


def test_parse_forest():
    assert parse_forest("1") == EMPTY_FOREST
    assert parse_forest("[] [[]]") == Forest([LEAF, CHAIN])
    assert parse_forest("[[]] []") == Forest([LEAF, CHAIN])
    with pytest.raises(ParseError):
        parse_forest("")
    with pytest.raises(ParseError):
        parse_forest("1 []")


def test_enumerate_counts_match_growth_oracle():
    oracle = grow_trees(8)
    mine = enumerate_trees(8)
    assert [len(level) for level in mine] == [1, 1, 2, 4, 9, 20, 48, 115]
    for got, expected in zip(mine, oracle):
        assert {t.serial for t in got} == {t.serial for t in expected}
        assert len(got) == len(set(t.serial for t in got))  # no duplicates


def test_enumerate_order_one():
    assert enumerate_trees(1) == [[LEAF]]


def test_order_8_from_principal_subtrees_of_order_9():
    direct = {t.serial for t in enumerate_trees(8)[7]}
    via_children = {
        child.serial
        for tree in enumerate_trees(9)[8]
        for child in tree.children
        if child.order == 8
    }
    assert via_children == direct


def test_enumerate_resource_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_trees(trees.DEFAULT_ORDER_CAP + 1)
    with pytest.raises(ResourceLimitError):
        enumerate_forests(trees.DEFAULT_ORDER_CAP + 1)
    with pytest.raises(ValueError):
        enumerate_trees(0)


def test_enumeration_at_the_cap():
    cap = trees.DEFAULT_ORDER_CAP
    levels = enumerate_trees(cap)
    # OEIS A000081: rooted trees by number of nodes
    assert [len(level) for level in levels] == [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766]
    forests = [enumerate_forests(d) for d in range(cap)]
    for d in range(cap):
        # hanging a root over each forest of degree d gives each tree of order d + 1 once
        serials = [f.serial for f in forests[d]]
        assert serials == sorted(Forest(t.children).serial for t in levels[d])
    for level in levels + forests:
        serials = [x.serial for x in level]
        assert all(a < b for a, b in zip(serials, serials[1:]))  # ascending, no duplicates
    levels[3].clear()
    levels.clear()
    forests[4].clear()
    assert len(enumerate_trees(cap)[3]) == 4
    assert len(enumerate_forests(4)) == 9


def test_forest_counts_shift_tree_counts():
    # forests of degree n correspond to trees of order n+1 (hang a new root)
    for degree in range(7):
        assert len(enumerate_forests(degree)) == len(enumerate_trees(degree + 1)[degree])


def test_ordered_subtrees_smallest_cases():
    assert list(ordered_subtrees(LEAF)) == [
        (Forest([LEAF]), EMPTY_FOREST),
        (EMPTY_FOREST, Forest([LEAF])),
    ]
    chain_pairs = as_multiset(ordered_subtrees(CHAIN))
    assert chain_pairs == {
        ("[[]]", "1"): 1,
        ("[]", "[]"): 1,
        ("1", "[[]]"): 1,
    }


def test_ordered_subtrees_cherry_keeps_multiplicity():
    pairs = as_multiset(ordered_subtrees(CHERRY))
    # subsets: empty, {root}, {root,left}, {root,right}, full
    assert pairs == {
        ("[[] []]", "1"): 1,
        ("[] []", "[]"): 1,
        ("[]", "[[]]"): 2,
        ("1", "[[] []]"): 1,
    }


def test_ordered_subtrees_match_vertex_subset_oracle():
    for tree in all_trees(6):
        assert as_multiset(ordered_subtrees(tree)) == as_multiset(
            subtree_pairs_by_vertex_subsets(tree)
        )


def test_subtree_degree_bookkeeping():
    for tree in all_trees(6):
        pairs = ordered_subtrees(tree)
        assert len(pairs) >= 2
        for cut, kept in pairs:
            assert cut.degree + kept.degree == tree.order


def test_subtrees_and_partitions_are_memoized():
    tree = parse_tree("[[[]] []]")
    assert ordered_subtrees(tree) is ordered_subtrees(parse_tree("[[] [[]]]"))
    assert edge_partitions(tree) is edge_partitions(parse_tree("[[] [[]]]"))


def test_edge_partitions_smallest_cases():
    assert list(edge_partitions(LEAF)) == [(Forest([LEAF]), LEAF)]
    chain_entries = as_multiset(edge_partitions(CHAIN))
    assert chain_entries == {
        ("[[]]", "[]"): 1,
        ("[] []", "[[]]"): 1,
    }


def test_edge_partitions_cherry():
    entries = edge_partitions(CHERRY)
    assert len(entries) == 4
    assert sorted(skeleton.order for _, skeleton in entries) == [1, 2, 2, 3]


def test_edge_partition_bookkeeping():
    for tree in all_trees(6):
        entries = edge_partitions(tree)
        assert len(entries) == 2 ** (tree.order - 1)
        for forest, skeleton in entries:
            assert forest.degree == tree.order
            assert skeleton.order == len(forest.trees)


def test_edge_partitions_match_edge_mask_oracle():
    for tree in all_trees(7):
        assert as_multiset(edge_partitions(tree)) == as_multiset(
            edge_partitions_by_edge_masks(tree)
        )


def test_butcher_product_small_cases():
    assert butcher_product(LEAF, LEAF) == CHAIN
    assert butcher_product(LEAF, CHAIN) == CHAIN3
    assert butcher_product(CHAIN, LEAF) == CHERRY
    assert butcher_product(LEAF, CHAIN) != butcher_product(CHAIN, LEAF)


def test_butcher_product_order_additivity():
    trees = all_trees(7)
    for a in trees:
        for b in trees:
            if a.order + b.order <= 8:
                assert butcher_product(a, b).order == a.order + b.order


def test_parent_array():
    assert parent_array(LEAF) == [-1]
    assert parent_array(CHAIN) == [-1, 0]
    assert parent_array(CHERRY) == [-1, 0, 0]
    assert parent_array(parse_tree("[[[]] []]")) == [-1, 0, 0, 2]


def test_tree_and_forest_compare_by_class_and_serial():
    tree, forest = parse_tree("[]"), parse_forest("[]")
    assert tree.serial == forest.serial
    assert hash(tree) == hash(forest)
    assert tree != forest
    assert forest != tree
    assert EMPTY_WORD != EMPTY_FOREST
    assert EMPTY_FOREST != EMPTY_WORD


@pytest.mark.parametrize("parse, text, respelled", [
    (parse_tree, "[[[]] []]", " [ [] [ [ ] ] ] "),
    (parse_forest, "[] [[]]", "[[ ]]  []"),
])
def test_two_spellings_parse_to_one_value(parse, text, respelled):
    assert parse(text) == parse(respelled)
    assert hash(parse(text)) == hash(parse(respelled))


def test_repr_and_str():
    assert repr(CHAIN) == "RootedTree('[[]]')"
    assert repr(parse_forest("[] []")) == "Forest('[] []')"
    assert str(CHAIN) == "[[]]"
    assert str(parse_forest("[[]] []")) == "[] [[]]"
    assert str(EMPTY_FOREST) == "1"


def test_concurrent_parses_share_one_tree_per_serial(monkeypatch):
    # Eight threads parse one key list at once on an emptied intern table
    # while the interpreter switches threads as often as it can.  Racing
    # parses may each build a tree, and the table keeps one of them: every
    # subtree of every result is the table's own tree for its serial.
    import sys
    import threading

    keys = ([(parse_tree, t.serial) for t in all_trees(8)]
            + [(parse_forest, f.serial) for d in range(1, 7) for f in enumerate_forests(d)]
            + [(parse_tree, "[[[]] []]"), (parse_tree, " [ [] ] "), (parse_forest, "[[]] []")])
    expected = [parse(text) for parse, text in keys]
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for _ in range(10):
            monkeypatch.setattr(trees, "_PARSED", {})
            results = []
            threads = [threading.Thread(
                target=lambda: results.append([parse(text) for parse, text in keys]))
                for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [expected] * 8
            table, pending = trees._PARSED, [t for result in results for x in result
                                             for t in getattr(x, "trees", (x,))]
            seen = set()
            while pending:
                tree = pending.pop()
                assert table[tree.serial] is tree
                seen.add(tree.serial)
                pending.extend(tree.children)
            assert seen == set(table)
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_first_enumeration_agrees():
    # Eight threads make the first call to enumerate_trees(9) on emptied
    # memos while the interpreter switches threads as often as it can.  Racing
    # calls may each build a level, and every caller must see the same levels.
    import sys
    import threading

    expected_trees = [[t.serial for t in level] for level in enumerate_trees(9)]
    expected_forests = [[f.serial for f in enumerate_forests(d)] for d in range(9)]
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for _ in range(10):
            trees._trees_of_order.cache_clear()
            trees._forests_of_degree.cache_clear()
            results = []

            def first_call():
                results.append([[t.serial for t in level] for level in enumerate_trees(9)])

            threads = [threading.Thread(target=first_call) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [expected_trees] * 8
            assert [[f.serial for f in enumerate_forests(d)] for d in range(9)] == expected_forests
    finally:
        sys.setswitchinterval(interval)

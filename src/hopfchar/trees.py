"""Rooted trees and forests with a canonical form, plus the combinatorics
of the rooted-tree Hopf algebra: root-containing subtrees, edge partitions,
and the Butcher (root-grafting) product.

``hopf.Rows`` builds the coproduct and the antipode, so the root-containing
subtrees and the edge partitions feed only the test oracles.  Both come from
a recursion over the root's children: a root-containing subtree keeps or cuts
each child's branch, and an edge partition keeps or removes each child edge.

Canonical form
--------------
A tree serializes as ``"[" + " ".join(children) + "]"``.  Children are kept
sorted in *descending* lexicographic order of their canonical serializations;
this is a stable total order on trees (serializations are unique), so two
trees are equal iff they are root-preserving graph isomorphic iff their
serializations coincide.  Forests sort their trees by the same order and the
empty forest serializes as ``"1"``.

All values are immutable after construction.  The trees and forests of each
order, the subtrees and the edge partitions are memoized with
``functools.cache``; the parser interns each tree of order <= 12 it builds
(at most 7,813 trees, about 2 MB).  None needs a lock: threads racing on a
new entry each build it, and they store equal values.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator

from .errors import SIZE_BUDGET, ParseError, ResourceLimitError

#: Largest tree order the enumerator will materialize.
DEFAULT_ORDER_CAP = 12


class _Canonical:
    """A value named by its canonical serial: equal to another of the same
    class with the same serial, hashed, printed and repr'd by the serial."""

    __slots__ = ("serial", "_hash")

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.serial == other.serial

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.serial!r})"

    def __str__(self) -> str:
        return self.serial


class RootedTree(_Canonical):
    """An unlabeled rooted tree in canonical form.

    ``children`` may be given in any order; the constructor sorts them.
    """

    __slots__ = ("children", "order")

    def __init__(self, children: Iterable["RootedTree"] = ()):
        kids = sorted(children, key=lambda t: t.serial, reverse=True)
        self.children: tuple[RootedTree, ...] = tuple(kids)
        self.order: int = 1 + sum(c.order for c in kids)
        self.serial: str = "[" + " ".join(c.serial for c in kids) + "]"
        self._hash = hash(self.serial)


#: The one-node tree (the generator everything else is grafted from).
LEAF = RootedTree()


class Forest(_Canonical):
    """A finite multiset of rooted trees; the monomial basis of the
    rooted-tree algebra.  Degree is the total node count (0 when empty)."""

    __slots__ = ("trees", "degree")

    def __init__(self, trees: Iterable[RootedTree] = ()):
        ts = sorted(trees, key=lambda t: t.serial, reverse=True)
        self.trees: tuple[RootedTree, ...] = tuple(ts)
        self.degree: int = sum(t.order for t in ts)
        self.serial: str = " ".join(t.serial for t in ts) if ts else "1"
        self._hash = hash(self.serial)

    def __len__(self) -> int:
        return len(self.trees)

    def __iter__(self) -> Iterator[RootedTree]:
        return iter(self.trees)


EMPTY_FOREST = Forest()


def single_tree_forest(tree: RootedTree) -> Forest:
    return Forest((tree,))


# ---------------------------------------------------------------------------
# Parsing.  Grammar:  Tree := "[" ws (Tree ws)* "]"
# A forest is "1" or whitespace-separated trees.
# ---------------------------------------------------------------------------


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


#: Each tree of order <= ``DEFAULT_ORDER_CAP`` that a parse built, by serial.
_PARSED: dict[str, RootedTree] = {}


def _parse_tree_at(text: str, pos: int, spent: int = 0) -> tuple[RootedTree, int, int]:
    """The tree whose '[' is at pos, the offset after its ']', and ``spent``
    plus the bytes of its subtrees' serials.  An explicit stack holds the
    offset and children of each open '[', so depth costs no frames.  At each
    ']' the text back to its '[' is looked up in ``_PARSED``: a canonical
    subtree met before is reused.  Every subtree keeps its serial, hit or
    miss, so d open brackets cost about d^2 bytes; the parse is refused once
    that plus ``spent`` passes ``SIZE_BUDGET``."""
    stack: list[tuple[int, list[RootedTree]]] = []
    while True:
        if pos >= len(text) or text[pos] != "[":
            raise ParseError("expected '['", pos)
        stack.append((pos, []))
        pos = _skip_ws(text, pos + 1)
        while True:
            if spent + len(stack) ** 2 > SIZE_BUDGET:
                raise ResourceLimitError(f"tree serials exceed {SIZE_BUDGET} bytes")
            if pos >= len(text) or text[pos] != "]":
                break
            left, kids = stack.pop()
            # no tree of order <= the cap has a serial 3 * cap long
            tree = _PARSED.get(text[left:pos + 1]) if pos - left < 3 * DEFAULT_ORDER_CAP else None
            if tree is None:
                tree = RootedTree(kids)
                if tree.order <= DEFAULT_ORDER_CAP:
                    tree = _PARSED.setdefault(tree.serial, tree)
            spent += len(tree.serial)
            if not stack:
                return tree, pos + 1, spent
            stack[-1][1].append(tree)
            pos = _skip_ws(text, pos + 1)
        if pos >= len(text):
            raise ParseError("unclosed '['", pos)


def parse_tree(text: str) -> RootedTree:
    """Parse a bracket serialization into a canonical tree.

    Raises ``ParseError`` (with byte offset) on malformed input, and
    ``ResourceLimitError`` past the serial budget (a chain ~1,400 deep).
    """
    if (tree := _PARSED.get(text)) is not None:
        return tree
    pos = _skip_ws(text, 0)
    tree, pos, _ = _parse_tree_at(text, pos)
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise ParseError("trailing input after tree", pos)
    return tree


def parse_forest(text: str) -> Forest:
    """Parse a forest: ``"1"`` for the empty forest, else juxtaposed trees."""
    pos = _skip_ws(text, 0)
    if pos < len(text) and text[pos] == "1":
        rest = _skip_ws(text, pos + 1)
        if rest != len(text):
            raise ParseError("trailing input after '1'", rest)
        return EMPTY_FOREST
    trees: list[RootedTree] = []
    spent = 0  # serial bytes over all the trees (see ``_parse_tree_at``)
    while pos < len(text):
        tree, pos, spent = _parse_tree_at(text, pos, spent)
        trees.append(tree)
        pos = _skip_ws(text, pos)
    if not trees:
        raise ParseError("empty forest input (use '1')", pos)
    return Forest(trees)


# ---------------------------------------------------------------------------
# Enumeration of canonical trees and forests by order.
# ---------------------------------------------------------------------------

@functools.cache
def _trees_of_order(n: int) -> tuple[RootedTree, ...]:
    # A tree of order n is a root carrying a forest of degree n-1.
    trees = [RootedTree(forest.trees) for forest in _forests_of_degree(n - 1)]
    return tuple(sorted(trees, key=lambda t: t.serial))


@functools.cache
def _forests_of_degree(m: int) -> tuple[Forest, ...]:
    if m == 0:
        return (EMPTY_FOREST,)
    # Each multiset comes out once, as its largest tree t over a forest of
    # the remainder whose largest tree does not exceed t.
    forests = [
        Forest((t,) + rest.trees)
        for k in range(1, m + 1)
        for t in _trees_of_order(k)
        for rest in _forests_of_degree(m - k)
        if not rest.trees or rest.trees[0].serial <= t.serial
    ]
    return tuple(sorted(forests, key=lambda f: f.serial))


def enumerate_trees(max_order: int) -> list[list[RootedTree]]:
    """All canonical trees of order 1..max_order, one list per order,
    each sorted by serialization.  Orders beyond ``DEFAULT_ORDER_CAP`` raise
    ``ResourceLimitError``."""
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    if max_order > DEFAULT_ORDER_CAP:
        raise ResourceLimitError(f"max_order {max_order} exceeds cap {DEFAULT_ORDER_CAP}")
    return [list(_trees_of_order(n)) for n in range(1, max_order + 1)]


def enumerate_forests(degree: int) -> list[Forest]:
    """All canonical forests of the given total degree, sorted by serialization."""
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if degree > DEFAULT_ORDER_CAP:
        raise ResourceLimitError(f"degree {degree} exceeds cap {DEFAULT_ORDER_CAP}")
    return list(_forests_of_degree(degree))


# ---------------------------------------------------------------------------
# Root-containing subtrees and edge partitions.
# ---------------------------------------------------------------------------

@functools.cache
def ordered_subtrees(tree: RootedTree) -> tuple[tuple[Forest, Forest], ...]:
    """All (cut forest, kept part) pairs of the tree, one per connected
    root-containing vertex subset (including the empty subset).

    The kept part is returned as a forest: empty for the empty subset, a
    single tree otherwise.  Distinct vertex subsets are separate entries even
    when they produce equal pairs.
    """
    entries: list[tuple[Forest, Forest]] = [(single_tree_forest(tree), EMPTY_FOREST)]
    # Keeping the root: each child independently contributes either its full
    # tree to the cut forest or a kept sub-branch of its own.
    child_options = [ordered_subtrees(child) for child in tree.children]
    for combo in itertools.product(*child_options):
        cut: list[RootedTree] = []
        kept_children: list[RootedTree] = []
        for cut_forest, kept in combo:
            cut.extend(cut_forest.trees)
            kept_children.extend(kept.trees)
        entries.append((Forest(cut), single_tree_forest(RootedTree(kept_children))))
    return tuple(entries)


@functools.cache
def edge_partitions(tree: RootedTree) -> tuple[tuple[Forest, RootedTree], ...]:
    """All (cut forest, skeleton) pairs, one per subset of the edge set.

    Removing the chosen edges leaves the cut forest; contracting each of its
    components and re-installing the chosen edges gives the skeleton, whose
    order equals the number of components.
    """
    return tuple((Forest((root,) + apart), skeleton)
                 for root, apart, skeleton in _components(tree))


def _components(tree: RootedTree) -> list[tuple[RootedTree, tuple[RootedTree, ...], RootedTree]]:
    """(root's component, the other components, skeleton) per edge subset."""
    # Keeping a child's edge merges the child's root component and skeleton
    # node into the root's; removing it leaves that component apart, with its
    # skeleton node hung below the root's.
    partial = [((), (), ())]  # (root component's children, apart, skeleton's children)
    for child in tree.children:
        parts = _components(child)
        partial = [entry for kept, apart, below in partial for root, rest, skeleton in parts
                   for entry in ((kept + (root,), apart + rest, below + skeleton.children),
                                 (kept, apart + (root,) + rest, below + (skeleton,)))]
    return [(RootedTree(kept), apart, RootedTree(below)) for kept, apart, below in partial]


def butcher_product(tau: RootedTree, upsilon: RootedTree) -> RootedTree:
    """Graft ``upsilon`` onto the root of ``tau`` as an extra child.

    Not commutative: grafting a leaf onto the 2-chain gives the cherry while
    the reverse grafting gives the 3-chain.
    """
    return RootedTree(tau.children + (upsilon,))

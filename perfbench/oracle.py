"""Independent exact oracle for the benchmark checks.

Nothing here imports hopfchar.  Trees, forests and words are handled as their
canonical serializations (the grammar in the project README): a tree is
``"[" + " ".join(children) + "]"`` with children in descending string order,
a forest is its trees in the same order joined by one space (``"1"`` when
empty), a tensor word is ``"v0v1..."`` (``"1"`` when empty).

The Butcher-group identities come from Runge-Kutta theory (Hairer-Wanner
1974; Butcher, *Numerical Methods for ODEs*): the character of a tableau
``(A, b)`` takes the elementary weight on each tree; running tableau ``a``
and then tableau ``b`` is the concatenated tableau; the inverse method is
``(A - 1 b^T, -b)``; the exact flow takes ``1 / t!`` (tree factorial).
"""

from __future__ import annotations

import functools
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Rationals:
    """The rationals as an oracle coefficient ring."""

    zero = _ZERO
    one = _ONE

    @staticmethod
    def lift(q) -> Fraction:
        return Fraction(q)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a


class Series:
    """Rational power series modulo X^(M+1), as coefficient tuples."""

    def __init__(self, modulus_degree: int):
        self.m = modulus_degree
        self.zero = (_ZERO,) * (modulus_degree + 1)
        self.one = (_ONE,) + (_ZERO,) * modulus_degree

    def lift(self, q):
        return (Fraction(q),) + (_ZERO,) * self.m

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def mul(self, a, b):
        out = [_ZERO] * (self.m + 1)
        for i, x in enumerate(a):
            for j in range(self.m + 1 - i):
                out[i + j] += x * b[j]
        return tuple(out)

    def neg(self, a):
        return tuple(-x for x in a)


# -- combinatorics on serializations ------------------------------------------


def split_trees(text: str) -> tuple[str, ...]:
    """The top-level trees of a space-separated sequence of tree serials."""
    out, depth, start = [], 0, 0
    for pos, ch in enumerate(text):
        if ch == "[":
            if depth == 0:
                start = pos
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth == 0:
                out.append(text[start:pos + 1])
    return tuple(out)


def children(tree: str) -> tuple[str, ...]:
    return split_trees(tree[1:-1])


def order(tree: str) -> int:
    return tree.count("[")


def _canonical(trees) -> str:
    return " ".join(sorted(trees, reverse=True))


@functools.lru_cache(maxsize=None)
def forests_of_degree(m: int) -> tuple[tuple[str, ...], ...]:
    """Multisets of trees of total order m, as descending-sorted tuples."""
    if m == 0:
        return ((),)
    found = set()
    for k in range(1, m + 1):
        for tree in trees_of_order(k):
            for rest in forests_of_degree(m - k):
                found.add(tuple(sorted(rest + (tree,), reverse=True)))
    return tuple(sorted(found))


@functools.lru_cache(maxsize=None)
def trees_of_order(n: int) -> tuple[str, ...]:
    """Canonical trees with n nodes: a root over a forest of degree n - 1."""
    return tuple(sorted("[" + " ".join(f) + "]" for f in forests_of_degree(n - 1)))


def tree_serials(max_order: int) -> list[str]:
    return [t for n in range(1, max_order + 1) for t in trees_of_order(n)]


def forest_serials(max_degree: int) -> list[str]:
    out = []
    for m in range(max_degree + 1):
        out.extend(" ".join(f) if f else "1" for f in forests_of_degree(m))
    return out


def word_serials(dimension: int, max_degree: int) -> list[str]:
    words = [""]
    out = ["1"]
    for _ in range(max_degree):
        words = [w + f"v{i}" for w in words for i in range(dimension)]
        out.extend(words)
    return out


def graft(tau: str, upsilon: str) -> str:
    """Butcher product: upsilon grafted onto the root of tau."""
    return "[" + _canonical(children(tau) + (upsilon,)) + "]"


def tree_factorial(tree: str) -> int:
    value = order(tree)
    for child in children(tree):
        value *= tree_factorial(child)
    return value


# -- Runge-Kutta tableaux -------------------------------------------------------


def elementary_weights(tableau, ring, max_order: int) -> dict[str, object]:
    """Tree serial -> sum_i b_i g_i(tree), g_i([t1..tm]) = prod_k sum_j a_ij g_j(t_k)."""
    a, b = tableau
    stages = range(len(b))
    internal: dict[str, tuple] = {}

    def g(tree: str) -> tuple:
        cached = internal.get(tree)
        if cached is None:
            vals = [ring.one for _ in stages]
            for child in children(tree):
                gc = g(child)
                for i in stages:
                    s = ring.zero
                    for j in stages:
                        s = ring.add(s, ring.mul(a[i][j], gc[j]))
                    vals[i] = ring.mul(vals[i], s)
            cached = internal[tree] = tuple(vals)
        return cached

    out = {}
    for tree in tree_serials(max_order):
        total = ring.zero
        gt = g(tree)
        for i in stages:
            total = ring.add(total, ring.mul(b[i], gt[i]))
        out[tree] = total
    return out


def concatenate(first, second, ring):
    """The tableau that runs ``first`` and then ``second`` (one step each)."""
    (a1, b1), (a2, b2) = first, second
    s1, s2 = len(b1), len(b2)
    a = [list(row) + [ring.zero] * s2 for row in a1]
    a += [list(b1) + list(row) for row in a2]
    return a, list(b1) + list(b2)


def inverse_tableau(tableau, ring):
    """The method whose step undoes one step of ``tableau``: (A - 1 b^T, -b)."""
    a, b = tableau
    return (
        [[ring.add(a[i][j], ring.neg(b[j])) for j in range(len(b))] for i in range(len(b))],
        [ring.neg(x) for x in b],
    )


def symplectic_pairs(max_order: int) -> list[tuple[str, str]]:
    """Unordered tree pairs with total order <= max_order."""
    trees = tree_serials(max(max_order - 1, 1))
    return [
        (tau, ups)
        for i, tau in enumerate(trees)
        for ups in trees[i:]
        if order(tau) + order(ups) <= max_order
    ]


def is_symplectic_map(values: dict, ring, max_order: int) -> bool:
    """a(graft(t,u)) + a(graft(u,t)) == a(t) a(u) for all pairs, zero when absent."""
    get = lambda t: values.get(t, ring.zero)  # noqa: E731
    return all(
        ring.add(get(graft(t, u)), get(graft(u, t))) == ring.mul(get(t), get(u))
        for t, u in symplectic_pairs(max_order)
    )

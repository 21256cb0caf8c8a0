"""Graded connected Hopf algebra structures.

Two instances share one interface:

* ``CKHopf`` — the commutative algebra of rooted forests.  The coproduct of a
  tree sums (cut forest) x (kept subtree) over its root-containing subtrees;
  the antipode of a tree sums signed cut forests over edge subsets, with sign
  ``(-1)^(number of components)``; it extends multiplicatively to forests.
* ``TensorHopf(d)`` — the tensor algebra on d generators with word basis,
  concatenation product, unshuffle coproduct (letters are primitive) and
  antipode ``w -> (-1)^|w| reversed(w)``.

Both algebras are free, and the coproduct is an algebra morphism, hence the
multiplicative extension of its generator values; a generator's value follows
from a lower one through the Connes-Kreimer 1-cocycle B+.

``HopfStructure.table(N)`` compiles the basis of degree <= N once into an
``IndexTable``: the basis in basis order, the index of each element, the
indices of its first generator and of the rest, and its coproduct as positive
integer triples ``(c, i, j)``.  The convolution kernel works on these indices
only.  Instances are stateless apart from memo dicts: racing threads may each
build a whole, equal table, and one is kept.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import SIZE_BUDGET, ParseError, ResourceLimitError, TruncationOverflowError
from .trees import (
    EMPTY_FOREST,
    Forest,
    edge_partitions,
    enumerate_forests,
    parse_forest,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Word:
    """A word in generators ``v0 .. v(d-1)``; the empty word serializes as "1"."""

    __slots__ = ("letters", "degree", "_serial", "_hash")

    def __init__(self, letters: Iterable[int] = ()):
        self.letters: tuple[int, ...] = tuple(map(int, letters))
        self.degree = len(self.letters)
        self._serial = None  # built on first use: most words are never printed
        self._hash = hash(("word", self.letters))

    @property
    def serial(self) -> str:
        if self._serial is None:
            self._serial = "v" + "v".join(map(str, self.letters)) if self.letters else "1"
        return self._serial

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Word({self.serial!r})"

    def __str__(self) -> str:
        return self.serial


EMPTY_WORD = Word()


def parse_word(text: str) -> Word:
    text = text.strip()
    if text == "1":
        return EMPTY_WORD
    letters: list[int] = []
    pos = 0
    while pos < len(text):
        if text[pos] != "v":
            raise ParseError("expected 'v'", pos)
        pos += 1
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if pos == start:
            raise ParseError("expected generator index", pos)
        letters.append(int(text[start:pos]))
    return Word(letters)


class GradedVector:
    """A finite rational linear combination of basis elements.

    No zero coefficients are stored.  Supports +, -, and scalar * by
    int/Fraction; products in the algebra live on the Hopf structure.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        data: dict = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for basis, coeff in items:
            c = Fraction(coeff)
            if c:
                c += data.pop(basis, _ZERO)
                if c:
                    data[basis] = c
                else:
                    data.pop(basis, None)
        self.terms: dict = data

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedVector) and self.terms == other.terms

    def __iter__(self) -> Iterator:
        return iter(self.terms.items())

    def __len__(self) -> int:
        return len(self.terms)

    def __getitem__(self, basis) -> Fraction:
        return self.terms.get(basis, _ZERO)

    def __add__(self, other: "GradedVector") -> "GradedVector":
        out = dict(self.terms)
        for basis, coeff in other.terms.items():
            c = out.pop(basis, _ZERO) + coeff
            if c:
                out[basis] = c
        vec = GradedVector()
        vec.terms = out
        return vec

    def __sub__(self, other: "GradedVector") -> "GradedVector":
        return self + (-other)

    def __neg__(self) -> "GradedVector":
        return self * -1

    def __mul__(self, scalar) -> "GradedVector":
        q = Fraction(scalar)
        vec = GradedVector()
        if q:
            vec.terms = {basis: coeff * q for basis, coeff in self.terms.items()}
        return vec

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"GradedVector({self.format()!r})"

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set[int]:
        return {basis.degree for basis in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degree(self) -> int:
        """Degree of a nonzero homogeneous vector."""
        degs = self.degrees()
        if len(degs) != 1:
            raise ValueError("vector is zero or not homogeneous")
        return degs.pop()

    def format(self) -> str:
        """Signed sum in canonical basis order, e.g. ``"-[[]] + [] []"``."""
        if not self.terms:
            return "0"
        parts: list[str] = []
        for basis in sorted(self.terms, key=lambda b: (b.degree, b.serial)):
            coeff = self.terms[basis]
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            body = basis.serial if mag == 1 else f"{mag} {basis.serial}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def vector_of(basis) -> GradedVector:
    return GradedVector([(basis, 1)])


class IndexTable:
    """The basis of degree <= N of one Hopf algebra, compiled to indices.

    ``basis`` lists the elements in basis order (the unit first, degrees
    ascending) and ``index`` maps each to its position; ``ends[d]`` is the
    number of elements of degree <= d, so ``basis[:ends[d]]`` is that degree
    prefix.  ``first[i]`` and ``rest[i]`` index the split
    b = first * rest of ``basis[i]``; ``rest[i] == 0`` exactly on the unit and
    on generators.  ``coproduct[i]`` holds Delta(basis[i]) as integer triples
    ``(c, left, right)`` with equal pairs combined, built on ``hopf.ids`` in
    basis order: a generator b = B+(f) grafts the row of f by the cocycle
    Delta(B+(f)) = B+(f) x 1 + (id x B+) Delta(f), and a product takes
    Delta(first) Delta(rest) through a memo of key merges.
    """

    __slots__ = ("basis", "index", "ends", "first", "rest", "coproduct")

    def __init__(self, hopf: "HopfStructure", max_degree: int):
        self.basis = basis = tuple(hopf.all_basis_upto(max_degree))
        self.index = {b: i for i, b in enumerate(basis)}
        counts = [0] * (max_degree + 1)
        for b in basis:
            counts[b.degree] += 1
        self.ends = tuple(itertools.accumulate(counts))
        keys, children, merge = hopf.ids(basis)
        at = {key: i for i, key in enumerate(keys)}
        self.first = first = tuple(at[key[:1]] for key in keys)
        self.rest = rest = tuple(at[key[1:]] for key in keys)
        graft, products = {}, [{} for _ in basis]  # products[a][b]: index of a * b
        rows = [((1, 0, 0),)]
        for i in range(1, len(basis)):
            if rest[i]:
                pairs, rest_row = {}, rows[rest[i]]
                for c1, l1, r1 in rows[first[i]]:
                    times_l, times_r = products[l1], products[r1]
                    for c2, l2, r2 in rest_row:
                        left = times_l.get(l2)
                        if left is None:
                            left = times_l[l2] = at[merge(keys[l1], keys[l2])]
                        right = times_r.get(r2)
                        if right is None:
                            right = times_r[r2] = at[merge(keys[r1], keys[r2])]
                        pairs[left, right] = pairs.get((left, right), 0) + c1 * c2
                rows.append(tuple((c, left, right) for (left, right), c in pairs.items()))
            else:
                # graft[f] = B+(f) for each f so far, so for each right factor
                # of Delta(f); letters share f = 1 and read it at once.
                f = at[children[i]]
                graft[f] = i
                rows.append(((1, i, 0),) + tuple((c, left, graft[right])
                                                 for c, left, right in rows[f]))
        self.coproduct = tuple(rows)


class HopfStructure:
    """Common driver for a graded connected Hopf algebra with a chosen basis.

    Subclasses provide the basis per degree, the product and ``ids``: the int
    key of each basis element (its generators, first generator first), the key
    of f on each generator B+(f), and the merge of two keys into their product's.
    """

    key: str

    def __init__(self):
        self._tables: dict[int, IndexTable] = {}

    def basis(self, degree: int) -> tuple:
        raise NotImplementedError

    @property
    def unit_basis(self):
        return self.basis(0)[0]

    def all_basis_upto(self, max_degree: int) -> list:
        # The top degree first, so that an oversized request fails at once.
        levels = [self.basis(n) for n in range(max_degree, -1, -1)]
        return [b for level in reversed(levels) for b in level]

    def product(self, b1, b2, truncation: int | None = None) -> GradedVector:
        """Algebra product of two basis elements (a single basis term here)."""
        if truncation is not None and b1.degree + b2.degree > truncation:
            raise TruncationOverflowError(
                f"product degree {b1.degree + b2.degree} exceeds truncation {truncation}"
            )
        return vector_of(self._product_basis(b1, b2))

    def multiply(self, v1: GradedVector, v2: GradedVector,
                 truncation: int | None = None) -> GradedVector:
        """Bilinear extension of the product, optionally dropping terms above
        the truncation degree."""
        terms = []
        for b1, c1 in v1:
            for b2, c2 in v2:
                if truncation is not None and b1.degree + b2.degree > truncation:
                    continue
                terms.append((self._product_basis(b1, b2), c1 * c2))
        return GradedVector(terms)

    def table(self, max_degree: int) -> IndexTable:
        """The ``IndexTable`` of the basis of degree <= max_degree, memoized."""
        table = self._tables.get(max_degree)
        if table is None:
            table = self._tables[max_degree] = IndexTable(self, max_degree)
        return table

    def factored(self, max_degree: int) -> tuple:
        """``(b, first, rest)`` for the basis elements b = first * rest of degree
        <= max_degree in basis order, first a generator (or b = 1 = first)."""
        table = self.table(max_degree)
        basis = table.basis
        return tuple((b, basis[f], basis[r]) for b, f, r in zip(basis, table.first, table.rest))

    def generators(self, max_degree: int) -> list:
        """The generators of degree 1..max_degree, in basis order."""
        table = self.table(max_degree)
        return [b for b, r in zip(table.basis[1:], table.rest[1:]) if not r]

    def coproduct(self, basis) -> tuple:
        """Delta(basis) as ``(Fraction, left, right)`` from ``table(basis.degree)``."""
        table = self.table(basis.degree)
        return tuple((Fraction(c), table.basis[left], table.basis[right])
                     for c, left, right in table.coproduct[table.index[basis]])

    def counit(self, basis) -> Fraction:
        return _ONE if basis.degree == 0 else _ZERO

    def antipode(self, basis) -> GradedVector:
        raise NotImplementedError

    def parse_basis(self, text: str):
        raise NotImplementedError

    def _product_basis(self, b1, b2):
        raise NotImplementedError


class CKHopf(HopfStructure):
    """The rooted-forest Hopf algebra, graded by total node count."""

    key = "ck"

    def __init__(self):
        super().__init__()
        self._antipode_cache: dict = {}

    def basis(self, degree: int) -> tuple[Forest, ...]:
        return tuple(enumerate_forests(degree))

    def _product_basis(self, b1: Forest, b2: Forest) -> Forest:
        return b1.union(b2)

    def ids(self, basis: tuple[Forest, ...]) -> tuple:
        # A forest is the sorted tuple of its trees' generator indices, so keys
        # merge by sorting; a tree is B+ of the forest of its root's children.
        generator = {b.trees[0]: i for i, b in enumerate(basis) if len(b.trees) == 1}

        def key(trees):
            return tuple(sorted(generator[t] for t in trees))
        return ([key(b.trees) for b in basis],
                [key(b.trees[0].children) if len(b.trees) == 1 else None for b in basis],
                lambda key1, key2: tuple(sorted(key1 + key2)))

    coproduct = HopfStructure.coproduct  # on each class: perfbench traces it there

    def _tree_antipode(self, tree) -> GradedVector:
        cached = self._antipode_cache.get(tree)
        if cached is None:
            cached = GradedVector(
                (forest, (-1) ** len(forest.trees))
                for forest, _skeleton in edge_partitions(tree)
            )
            self._antipode_cache[tree] = cached
        return cached

    def antipode(self, basis: Forest) -> GradedVector:
        # Algebra anti-morphism; the target is commutative, so a plain
        # product of the per-tree antipodes.
        out = vector_of(EMPTY_FOREST)
        for tree in basis.trees:
            out = self.multiply(out, self._tree_antipode(tree))
        return out

    def parse_basis(self, text: str) -> Forest:
        return parse_forest(text)

    def __repr__(self) -> str:
        return "CKHopf()"


class TensorHopf(HopfStructure):
    """The tensor algebra on d generators, graded by word length."""

    def __init__(self, dimension: int = 2):
        if dimension < 1:
            raise ValueError(f"tensor dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        self.key = f"tensor({dimension})"
        super().__init__()

    def basis(self, degree: int) -> tuple[Word, ...]:
        # Before equal pairs combine, Delta(w) has 2^|w| terms, so the table
        # of degree <= n holds sum_k (2d)^k of them; (2d)^64 alone is too many.
        if sum((2 * self.dimension) ** k for k in range(min(degree, 64) + 1)) > SIZE_BUDGET:
            raise ResourceLimitError(f"{self.key} at degree {degree} exceeds {SIZE_BUDGET} terms")
        return tuple(
            Word(letters)
            for letters in itertools.product(range(self.dimension), repeat=degree)
        )

    def _product_basis(self, b1: Word, b2: Word) -> Word:
        return Word(b1.letters + b2.letters)

    def ids(self, basis: tuple[Word, ...]) -> tuple:
        # A word is its letter tuple, so keys merge by concatenation; a letter
        # is B+ of the unit (one B+ per letter).
        return [w.letters for w in basis], [()] * len(basis), operator.add

    coproduct = HopfStructure.coproduct

    def antipode(self, basis: Word) -> GradedVector:
        return GradedVector([(Word(reversed(basis.letters)), (-1) ** basis.degree)])

    def parse_basis(self, text: str) -> Word:
        word = parse_word(text)
        if any(i >= self.dimension for i in word.letters):
            raise ParseError(f"generator index out of range for {self.key}", 0)
        return word

    def __repr__(self) -> str:
        return f"TensorHopf({self.dimension})"


@functools.lru_cache(maxsize=None)
def ck_hopf() -> CKHopf:
    return CKHopf()


@functools.lru_cache(maxsize=None)
def tensor_hopf(dimension: int = 2) -> TensorHopf:
    return TensorHopf(dimension)


def resolve_hopf(key: str) -> HopfStructure:
    """Map an id "ck", "tensor(d)" or "tensor:d" (d in ASCII digits, no leading
    zero) to a shared instance."""
    if key == "ck":
        return ck_hopf()
    for prefix, suffix in (("tensor(", ")"), ("tensor:", "")):
        if isinstance(key, str) and key.startswith(prefix) and key.endswith(suffix):
            digits = key[len(prefix):len(key) - len(suffix)]
            try:
                if digits.isascii() and digits.isdigit() and digits[0] != "0":
                    return tensor_hopf(int(digits))
            except ValueError:  # too many digits
                pass
            raise ParseError(f"bad Hopf algebra id {key!r}", 0)
    raise ParseError(f"unknown Hopf algebra id {key!r}", 0)

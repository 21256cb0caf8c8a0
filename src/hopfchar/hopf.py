"""Graded connected Hopf algebra structures.

``CKHopf`` (rooted forests, commutative) and ``TensorHopf(d)`` (words in d
letters) are free, and ``Rows`` defines the coproduct and the antipode of both:
Delta(first * rest) = Delta(first) Delta(rest), and a generator B+(f) (a tree
over the forest f of its root's children, or a letter over f = 1) takes the
Connes-Kreimer cocycle Delta(B+(f)) = B+(f) x 1 + (id x B+) Delta(f).  So each
right factor in the coproduct of a generator g is the unit or a lower
generator, and m (id x S) Delta = 0 gives S(g) = -sum c l S(r) over the terms
c l x r of Delta(g) but 1 x g, with S(uv) = S(v) S(u).

``HopfStructure.table(N)`` runs ``Rows`` over the basis of degree <= N into an
``IndexTable``, on whose indices the convolution kernel works; ``coproduct(b)``
and ``antipode(b)`` run it on the keys b needs and build no table.  Each table
indexes its basis by serial, so ``parse_basis`` looks a key up among the tables
built so far and otherwise parses it.  Instances are stateless apart from memo
dicts: racing threads may each build a whole, equal table or value."""

from __future__ import annotations

import collections
import functools
import itertools
import operator
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import SIZE_BUDGET, ParseError, ResourceLimitError, TruncationOverflowError
from .trees import DEFAULT_ORDER_CAP, Forest, RootedTree, enumerate_forests, parse_forest

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
    if not text:
        raise ParseError("empty word input (use '1')", 0)
    letters: list[int] = []
    pos = 0
    while pos < len(text):
        if text[pos] != "v":
            raise ParseError("expected 'v'", pos)
        pos += 1
        start = pos
        while pos < len(text) and text[pos] in "0123456789":  # ASCII digits only
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


class Memo(dict):
    """A dict that makes, stores and returns the value of a missing key."""

    def __init__(self, make, items=()):
        super().__init__(items)
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class Rows:
    """Delta and S on keys, built when first asked for; each table and each
    one-element call builds its own, forming at most ``SIZE_BUDGET`` terms.  A
    key is the tuple of ids of an element's generators, sorted if the algebra
    commutes, and ``at`` numbers keys as met: the unit () as 0, a generator as
    its one-term key.  ``row(i)`` and ``antipode(i)`` are Delta and S of
    keys[i] as integer triples ``(c, left, right)``, right = 0 in S."""

    def __init__(self, hopf: "HopfStructure"):
        self.hopf, self.keys, self.graft = hopf, [()], Memo(self._grafted)  # graft[f] = B+(f)
        self.at = Memo(self._append, {(): 0})  # key -> id
        self.rows, self.antipodes, self.budget = {0: ((1, 0, 0),)}, {0: ((1, 0, 0),)}, SIZE_BUDGET
        self.products = Memo(lambda a: Memo(functools.partial(self._times, a)))  # [a][b]: a * b
        self.generators, self.generator_ids = {}, Memo(self._number)  # id <-> tree or letter
        self.arrange = sorted if hopf.commutative else tuple  # keys are tuple(arrange(ids))

    def _append(self, key: tuple) -> int:
        self.keys.append(key)
        return len(self.keys) - 1

    def _number(self, generator) -> int:
        i = self.at[(len(self.keys),)]
        self.generators[i] = generator
        return i

    def id_of(self, generators) -> int:
        """The id of the product of ``generators``, numbering new ones."""
        return self.at[tuple(self.arrange(map(self.generator_ids.__getitem__, generators)))]

    def element(self, i: int):
        return self.hopf.element(map(self.generators.get, self.keys[i]))

    def _times(self, a: int, b: int) -> int:
        return self.at[tuple(self.arrange(self.keys[a] + self.keys[b]))]

    def spend(self, terms: int) -> None:
        self.budget -= terms
        if self.budget < 0:
            raise ResourceLimitError(f"structure map exceeds {SIZE_BUDGET} terms")

    def sum_products(self, factors) -> tuple:
        """Sum row1 * row2 over the pairs of rows in ``factors``."""
        pairs, products = {}, self.products
        for row1, row2 in factors:
            self.spend(len(row1) * len(row2))
            for c1, l1, r1 in row1:
                times_l, times_r = products[l1], products[r1]
                for c2, l2, r2 in row2:
                    pair = times_l[l2], times_r[r2]
                    pairs[pair] = pairs.get(pair, 0) + c1 * c2
        return tuple([(c, left, right) for (left, right), c in pairs.items()])

    def row(self, i: int) -> tuple:
        row = self.rows.get(i)
        if row is None:
            key, rows = self.keys[i], self.rows
            if len(key) > 1:  # built rows are never empty: `or` builds a missing one
                first, rest = key[0], self.at[key[1:]]
                row = self.sum_products([(rows.get(first) or self.row(first),
                                          rows.get(rest) or self.row(rest))])
            else:
                # keys[i] = B+(f), graft[r] = B+(r); letters share f = 1, read at once
                f = self.id_of(getattr(self.generators[key[0]], "children", ()))
                below, graft = rows.get(f) or self.row(f), self.graft
                graft[f] = i
                self.spend(len(below) + 1)
                row = ((1, i, 0),) + tuple([(c, left, graft[r]) for c, left, r in below])
            self.rows[i] = row
        return row

    def _grafted(self, f: int) -> int:  # the tree B+(keys[f])
        return self.generator_ids[RootedTree(map(self.generators.get, self.keys[f]))]

    def antipode(self, i: int) -> tuple:
        s = self.antipodes.get(i)
        if s is None:
            key, half = self.keys[i], len(self.keys[i]) // 2
            if half:  # S(uv) = S(v) S(u), u the first half of the key
                s = self.sum_products([(self.antipode(self.at[key[half:]]),
                                        self.antipode(self.at[key[:half]]))])
            else:  # m (id x S) Delta = 0 solved for S of its 1 x keys[i] term
                s = self.sum_products((((-c, left, 0),), self.antipode(right))
                                      for c, left, right in self.row(i) if right != i)
            self.antipodes[i] = s
        return s


class IndexTable:
    """The basis of degree <= N of one Hopf algebra, compiled to indices.

    ``basis`` lists the elements in basis order (the unit first, degrees
    ascending), ``index`` maps each to its position, and ``basis[:ends[d]]`` is
    the prefix of degree <= d.  ``first[i]`` and ``rest[i]`` index the split
    b = first * rest of ``basis[i]``, first its generator of least index;
    ``rest[i] == 0`` exactly on the unit and on ``generators``.  ``coproduct[i]``
    is the ``Rows`` row of basis[i]: keys met in basis order have its indices.
    """

    __slots__ = ("basis", "index", "ends", "first", "rest", "generators", "coproduct")

    def __init__(self, hopf: "HopfStructure", max_degree: int):
        self.basis = basis = tuple(hopf.all_basis_upto(max_degree))
        self.index = {b: i for i, b in enumerate(basis)}
        counts = collections.Counter(b.degree for b in basis)
        self.ends = tuple(itertools.accumulate(counts[d] for d in range(max_degree + 1)))
        rows = Rows(hopf)
        for b in basis:
            rows.id_of(hopf.factors(b))
        self.first = tuple(rows.at[key[:1]] for key in rows.keys)
        self.rest = rest = tuple(rows.at[key[1:]] for key in rows.keys)
        self.generators = tuple(i for i in range(1, len(basis)) if not rest[i])
        self.coproduct = tuple(map(rows.row, range(len(basis))))


class HopfStructure:
    """Common driver for a graded connected Hopf algebra with a chosen basis.

    Subclasses provide the basis per degree, the product, the grammar of keys
    (``_parse_basis``), ``element`` and ``factors`` (a basis element from and
    to its generators), ``commutative`` and ``coproduct_cap``, the top degree
    of ``coproduct``.
    """

    key: str

    def __init__(self):
        self._tables: dict[int, IndexTable] = {}
        self._serials: dict[str, object] = {}  # serial -> element of a built table
        self._coproducts, self._antipodes = {}, {}  # element -> its coproduct, antipode

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
            table = IndexTable(self, max_degree)
            self._serials.update((b.serial, b) for b in table.basis)
            self._tables[max_degree] = table
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
        return [table.basis[i] for i in table.generators]

    def coproduct(self, basis) -> tuple:
        """Delta(basis) as ``(Fraction, left, right)`` terms; builds no table."""
        terms = self._coproducts.get(basis)
        if terms is None:
            if basis.degree > self.coproduct_cap:
                raise ResourceLimitError(f"degree {basis.degree} exceeds cap {self.coproduct_cap}")
            rows = Rows(self)
            terms = self._coproducts[basis] = tuple(
                (Fraction(c), rows.element(left), rows.element(right))
                for c, left, right in rows.row(rows.id_of(self.factors(basis))))
        return terms

    def counit(self, basis) -> Fraction:
        return _ONE if basis.degree == 0 else _ZERO

    def antipode(self, basis) -> GradedVector:
        """S(basis); builds no table."""
        vec = self._antipodes.get(basis)
        if vec is None:
            rows = Rows(self)
            vec = self._antipodes[basis] = GradedVector(
                (rows.element(i), c) for c, i, _ in rows.antipode(rows.id_of(self.factors(basis))))
        return vec

    def parse_basis(self, text: str):
        """The basis element that ``text`` names.  A canonical serial of an
        element of a built table is that element; other text goes to the
        algebra's grammar, which raises ``ParseError`` on malformed input."""
        element = self._serials.get(text)
        return self._parse_basis(text) if element is None else element

    def _parse_basis(self, text: str):
        raise NotImplementedError

    def _product_basis(self, b1, b2):
        raise NotImplementedError


class CKHopf(HopfStructure):
    """The rooted-forest Hopf algebra, graded by total node count."""

    key = "ck"
    element, factors, commutative = Forest, operator.attrgetter("trees"), True
    coproduct_cap = DEFAULT_ORDER_CAP

    def basis(self, degree: int) -> tuple[Forest, ...]:
        return tuple(enumerate_forests(degree))

    def _product_basis(self, b1: Forest, b2: Forest) -> Forest:
        return b1.union(b2)

    coproduct = HopfStructure.coproduct  # on each class: perfbench traces it there
    antipode = HopfStructure.antipode

    def _parse_basis(self, text: str) -> Forest:
        return parse_forest(text)

    def __repr__(self) -> str:
        return "CKHopf()"


class TensorHopf(HopfStructure):
    """The tensor algebra on d generators, graded by word length."""

    element, factors, commutative = Word, operator.attrgetter("letters"), False
    coproduct_cap = SIZE_BUDGET.bit_length() - 1  # a word's 2^n terms before pairs combine

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

    coproduct = HopfStructure.coproduct
    antipode = HopfStructure.antipode

    def _parse_basis(self, text: str) -> Word:
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

"""Independent oracles shared by the test modules.

Everything here recomputes expected values along a different route than the
library: graph-level isomorphism instead of canonical serialization, raw
vertex-subset enumeration instead of the child recursion, the componentwise
product over a forest's trees and the unshuffle over letter masks instead of
the multiplicative extension of the coproduct, the antipode axiom, the
signed sum over edge subsets of each tree (multiplied out over a forest's
trees) and the signed reversal of a word instead of the recursion on
coproduct rows, the per-degree composition sum and Horner on
value dicts over the whole basis instead of Horner on degree prefixes of value
lists, a linear-span ideal membership test instead of
generator-only evaluation, the product rule on every pair of basis elements
instead of on (first generator, rest), the root-containing-subtree sum
instead of the character product for Butcher composition, the geometric
series instead of the triangular recursion for the convolution inverse,
integration of the coproduct sum on every basis element instead of on
generators only for the evolution equation, and a convolution kernel on
value dicts keyed by basis objects, folding ``mul``/``scale``/``add`` term by
term, instead of the index-table kernel with one ``sum_products`` per value,
the schoolbook truncated product of coefficient lists instead of the
degree-bucketed ``poly_products``, two full-basis convolutions instead
of the generator values for the Lie bracket, the coproduct recursion on
basis objects, with root-containing subtrees as tree values, instead of the
index table's cocycle on ids, and polynomials in t as tuples of ring
elements (``FractionPoly``) instead of ``Poly``'s integer numerators over one
denominator.
"""

import operator
from fractions import Fraction

from hopfchar.convolution import TruncatedFunctional, conv_unit, convolve
from hopfchar.hopf import GradedVector, Word
from hopfchar.linalg import in_span
from hopfchar.rings import TruncatedSeriesRing
from hopfchar.trees import Forest, RootedTree, edge_partitions, enumerate_trees, ordered_subtrees


# -- rooted trees -------------------------------------------------------------


def trees_isomorphic(a: RootedTree, b: RootedTree) -> bool:
    """Root-preserving graph isomorphism by recursive multiset matching.

    Does not look at serializations: children are matched by searching over
    assignments.
    """
    if a.order != b.order or len(a.children) != len(b.children):
        return False
    remaining = list(b.children)
    for child in a.children:
        for i, candidate in enumerate(remaining):
            if trees_isomorphic(child, candidate):
                del remaining[i]
                break
        else:
            return False
    return True


def grow_trees(max_order: int) -> list[list[RootedTree]]:
    """Enumerate trees by attaching a new leaf to every vertex of every
    smaller tree, deduplicating by canonical form.  Independent of the
    child-multiset recursion the library uses."""

    def attach_everywhere(tree: RootedTree) -> list[RootedTree]:
        grown = [RootedTree(tree.children + (RootedTree(),))]
        for i, child in enumerate(tree.children):
            rest = tree.children[:i] + tree.children[i + 1 :]
            grown.extend(
                RootedTree(rest + (bigger,)) for bigger in attach_everywhere(child)
            )
        return grown

    levels = [[RootedTree()]]
    for _ in range(max_order - 1):
        seen = {}
        for tree in levels[-1]:
            for grown in attach_everywhere(tree):
                seen[grown.serial] = grown
        levels.append(sorted(seen.values(), key=lambda t: t.serial))
    return levels


def subtree_pairs_by_vertex_subsets(tree: RootedTree) -> list[tuple[Forest, Forest]]:
    """All (cut forest, kept part) pairs by brute-force enumeration of vertex
    subsets, filtering for connectivity through the root."""
    parents = tree.parent_array()
    n = tree.order
    children_of = [[] for _ in range(n)]
    for v in range(1, n):
        children_of[parents[v]].append(v)

    def build(v: int, keep) -> RootedTree:
        return RootedTree(build(c, keep) for c in children_of[v] if c in keep)

    pairs = []
    for mask in range(1 << n):
        keep = {v for v in range(n) if mask >> v & 1}
        if keep and 0 not in keep:
            continue
        # connected through the root: every kept vertex's parent is kept
        if any(v != 0 and parents[v] not in keep for v in keep):
            continue
        # a cut component's top vertex is not kept while its parent is (or it
        # is the tree root itself, for the empty subset)
        cut_roots = [v for v in range(n) if v not in keep and (v == 0 or parents[v] in keep)]
        full = set(range(n))
        cut_forest = Forest(build(r, full - keep) for r in cut_roots)
        kept_part = Forest([build(0, keep)]) if keep else Forest()
        pairs.append((cut_forest, kept_part))
    return pairs


def as_multiset(pairs) -> dict:
    out = {}
    for item in pairs:
        key = tuple(str(x) for x in item)
        out[key] = out.get(key, 0) + 1
    return out


# -- Hopf structure -----------------------------------------------------------


def coproduct_by_components(forest: Forest) -> dict:
    """Delta(forest) as ``{(left, right): coefficient}``: the componentwise
    tensor product, tree by tree, of the vertex-subset pairs of each tree."""
    pairs = {(Forest(), Forest()): Fraction(1)}
    for tree in forest.trees:
        grown = {}
        for (left, right), coeff in pairs.items():
            for cut, kept in subtree_pairs_by_vertex_subsets(tree):
                pair = (left.union(cut), right.union(kept))
                grown[pair] = grown.get(pair, Fraction(0)) + coeff
        pairs = grown
    return pairs


def split(basis) -> tuple:
    """``(first generator, product of the rest)`` of a forest or a word, on
    objects: the tree first in basis order (least order, then least serial),
    or the first letter."""
    if isinstance(basis, Word):
        return Word(basis.letters[:1]), Word(basis.letters[1:])
    trees = sorted(basis.trees, key=lambda t: (t.order, t.serial))
    return Forest(trees[:1]), Forest(trees[1:])


def coproduct_by_recursion(hopf, basis, memo: dict) -> dict:
    """Delta(basis) as ``{(left, right): int coefficient}`` by the memoized
    object-level recursion Delta(first) Delta(rest), with the root-containing
    subtrees of a tree and g x 1 + 1 x g for a letter as generator values."""
    pairs = memo.get(basis)
    if pairs is not None:
        return pairs
    first, rest = split(basis)
    pairs = {}
    if rest.degree:
        product, rest_pairs = hopf._product_basis, coproduct_by_recursion(hopf, rest, memo)
        for (l1, r1), c1 in coproduct_by_recursion(hopf, first, memo).items():
            for (l2, r2), c2 in rest_pairs.items():
                pair = (product(l1, l2), product(r1, r2))
                pairs[pair] = pairs.get(pair, 0) + c1 * c2
    elif isinstance(basis, Word):
        unit = Word()
        pairs = {(basis, unit): 1, (unit, basis): 1} if basis.degree else {(unit, unit): 1}
    else:
        for left, right in ordered_subtrees(basis.trees[0]) if basis.degree else [(basis, basis)]:
            pairs[left, right] = pairs.get((left, right), 0) + 1
    memo[basis] = pairs
    return pairs


def unshuffle_by_masks(word: Word) -> dict:
    """Delta(word) as ``{(left, right): coefficient}``: one term per subset
    of letter positions, the chosen letters going left in order."""
    n = word.degree
    pairs = {}
    for mask in range(1 << n):
        left = Word(word.letters[i] for i in range(n) if mask >> i & 1)
        right = Word(word.letters[i] for i in range(n) if not mask >> i & 1)
        pairs[(left, right)] = pairs.get((left, right), Fraction(0)) + 1
    return pairs


def antipode_by_axiom(hopf, basis) -> GradedVector:
    """Solve m (S x id) Delta = unit . counit degree by degree."""
    if basis.degree == 0:
        return GradedVector([(basis, 1)])
    total = GradedVector()
    for coeff, left, right in hopf.coproduct(basis):
        if left.degree == basis.degree and right.degree == 0:
            continue  # the S(basis) term itself
        total = total + hopf.multiply(
            antipode_by_axiom(hopf, left), GradedVector([(right, coeff)])
        )
    return -total


def antipode_by_edge_partitions(hopf, forest: Forest) -> GradedVector:
    """S(forest): the product over its trees of the sum, over edge subsets, of
    (-1)^(number of components) times the forest of components."""
    out = GradedVector([(Forest(), 1)])
    for tree in forest.trees:
        out = hopf.multiply(out, GradedVector(
            (cut, (-1) ** len(cut.trees)) for cut, _skeleton in edge_partitions(tree)))
    return out


def antipode_by_reversal(word: Word) -> GradedVector:
    """S(word) = (-1)^|word| reversed(word)."""
    return GradedVector([(Word(reversed(word.letters)), (-1) ** word.degree)])


def antipode_vector(hopf, vec: GradedVector) -> GradedVector:
    """The linear extension of the antipode to a vector."""
    out = GradedVector()
    for basis, coeff in vec:
        out = out + hopf.antipode(basis) * coeff
    return out


def coproduct_triple(hopf, basis, left_first: bool):
    """(Delta x id) Delta or (id x Delta) Delta as a combined term multiset."""
    out = {}
    for coeff, a, b in hopf.coproduct(basis):
        inner = hopf.coproduct(a) if left_first else hopf.coproduct(b)
        for c2, x, y in inner:
            key = (x, y, b) if left_first else (a, x, y)
            out[key] = out.get(key, 0) + coeff * c2
    return {k: v for k, v in out.items() if v}


# -- functional calculus ------------------------------------------------------


def compositions(total: int, parts: int):
    """All ways to write ``total`` as an ordered tuple of ``parts`` positive ints."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def apply_series_raw(series, a: TruncatedFunctional) -> TruncatedFunctional:
    """The per-degree composition-sum formula for f[a], term by term."""
    n_max = a.truncation
    parts = [a.project(n) for n in range(n_max + 1)]
    coeffs = series.padded(n_max).coefficients
    result = conv_unit(a.hopf, a.ring, a.truncation).scale(coeffs[0])
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            if not coeffs[k]:
                continue
            for alpha in compositions(n, k):
                term = parts[alpha[0]]
                for index in alpha[1:]:
                    term = convolve(term, parts[index])
                result = result + term.scale(coeffs[k])
    return result


def apply_series_by_dict(series, a: TruncatedFunctional) -> TruncatedFunctional:
    """Horner's rule c_0 + a * (c_1 + a * (...)) on value dicts, with one
    full-basis dict-kernel convolution per coefficient."""
    unit = conv_unit(a.hopf, a.ring, a.truncation)
    coeffs = series.padded(a.truncation).coefficients
    acc = unit.scale(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = unit.scale(c) + convolve_by_dict(a, acc)
    return acc


# -- characters ---------------------------------------------------------------


def basis_pairs(hopf, truncation: int):
    """Every ordered pair of basis elements with degree sum <= truncation."""
    for i in range(truncation + 1):
        for b1 in hopf.basis(i):
            for j in range(truncation + 1 - i):
                for b2 in hopf.basis(j):
                    yield b1, b2


def pairwise_violations(phi: TruncatedFunctional, infinitesimal: bool = False):
    """Every basis pair (b1, b2) at which phi breaks the product rule of a
    character, phi(b1 b2) = phi(b1) phi(b2), or of an infinitesimal
    character, phi(b1 b2) = phi(b1) counit(b2) + counit(b1) phi(b2).  A wrong
    unit value (1 for characters, 0 for infinitesimals) yields (unit, unit)
    first."""
    ring, hopf = phi.ring, phi.hopf
    unit = hopf.unit_basis
    if phi.degree0 != (ring.zero if infinitesimal else ring.one):
        yield unit, unit
    for b1, b2 in basis_pairs(hopf, phi.truncation):
        lhs = phi.evaluate(hopf.product(b1, b2))
        if infinitesimal:
            rhs = ring.add(
                ring.scale(phi.value(b1), hopf.counit(b2)),
                ring.scale(phi.value(b2), hopf.counit(b1)),
            )
        else:
            rhs = ring.mul(phi.value(b1), phi.value(b2))
        if lhs != rhs:
            yield b1, b2


def butcher_compose_raw(a, b, truncation: int, ring) -> dict:
    """(a.b)(tree) as the sum, over root-containing subtrees, of
    b(kept subtree) times the product of a over the cut forest."""
    out = {}
    for level in enumerate_trees(truncation):
        for tree in level:
            total = ring.zero
            for cut, kept in ordered_subtrees(tree):
                term = ring.one if not kept.trees else b.get(kept.trees[0], ring.zero)
                for theta in cut.trees:
                    term = ring.mul(term, a.get(theta, ring.zero))
                total = ring.add(total, term)
            out[tree] = total
    return out


def conv_inverse_geometric(phi: TruncatedFunctional) -> TruncatedFunctional:
    """(sum_k (-a0^-1 b)^k) a0^-1 with b the positive-degree part; the
    series terminates at the truncation degree."""
    ring = phi.ring
    a0_inv = ring.inv(phi.degree0)
    b = phi.drop_degree0().scale_ring(a0_inv).scale(-1)
    acc = unit = conv_unit(phi.hopf, ring, phi.truncation)
    for _ in range(phi.truncation):
        acc = unit + convolve(b, acc)
    return acc.scale_ring(a0_inv)


# -- the dict-keyed convolution kernel -----------------------------------------


def convolve_at(hopf, ring, f, g, basis):
    """(f * g)(basis): the ring sum of f(left) * g(right) over the coproduct
    terms of basis.  f and g map basis elements to values, absent meaning 0."""
    total = ring.zero
    for coeff, left, right in hopf.coproduct(basis):
        a = f.get(left)
        if a is None:
            continue
        b = g.get(right)
        if b is None:
            continue
        term = ring.mul(a, b)
        if coeff != 1:
            term = ring.scale(term, coeff)
        total = ring.add(total, term)
    return total


def schoolbook_product(a, b, size: int) -> list:
    """The coefficients below X^size of the product of two rational
    coefficient lists: one ``Fraction`` multiply and add per pair, zeros
    included."""
    out = [Fraction(0)] * size
    for i, x in enumerate(a[:size]):
        for j, y in enumerate(b[:size - i]):
            out[i + j] += x * y
    return out


def random_coefficients(rng, length: int, zeros: float = 0.0, huge: bool = False) -> list:
    """``length`` random rationals, each zero with probability ``zeros``;
    ``huge`` ones have denominators far above 2^64."""
    out = []
    for _ in range(length):
        if rng.random() < zeros:
            out.append(Fraction(0))
        elif huge:
            out.append(Fraction(rng.randint(-10**30, 10**30), rng.randint(2**64, 2**80)))
        else:
            out.append(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    return out


class SchoolbookSeriesRing(TruncatedSeriesRing):
    """``series:M`` whose ``mul`` is the schoolbook product, so that a fold of
    ``mul``/``scale``/``add`` does not run through ``sum_products``."""

    def mul(self, a, b):
        return tuple(schoolbook_product(a, b, self.modulus_degree + 1))


def lie_bracket_by_convolution(phi, psi) -> TruncatedFunctional:
    """The commutator f * g - g * f, convolved on every basis element."""
    f, g = phi.functional, psi.functional
    return convolve(f, g) - convolve(g, f)


class FractionPoly:
    """A polynomial in t as a tuple of ring elements, trailing zeros trimmed:
    every operation is a fold of the ring's ``add``/``mul``/``scale``, and the
    product is the schoolbook one, one ring ``mul`` and ``add`` per pair of
    nonzero coefficients."""

    __slots__ = ("ring", "coefficients")

    def __init__(self, ring, coefficients=()):
        coeffs = list(coefficients)
        while coeffs and ring.is_zero(coeffs[-1]):
            coeffs.pop()
        self.ring = ring
        self.coefficients = tuple(coeffs)

    def __add__(self, other):
        ring = self.ring
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, value in enumerate(b):
            out[i] = ring.add(out[i], value)
        return FractionPoly(ring, out)

    def __mul__(self, other):
        ring = self.ring
        p, q = self.coefficients, other.coefficients
        out = [ring.zero] * max(len(p) + len(q) - 1, 0)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                if not ring.is_zero(a) and not ring.is_zero(b):
                    out[i + j] = ring.add(out[i + j], ring.mul(a, b))
        return FractionPoly(ring, out)

    def scale(self, q):
        q = Fraction(q)
        return FractionPoly(self.ring, [self.ring.scale(c, q) for c in self.coefficients])

    def shift_scale(self, q, power):
        """q * t^power * self."""
        return FractionPoly(self.ring, [self.ring.zero] * power + list(self.scale(q).coefficients))

    def integrate(self):
        ring = self.ring
        return FractionPoly(ring, [ring.zero] + [ring.scale(c, Fraction(1, k + 1))
                                                 for k, c in enumerate(self.coefficients)])

    def differentiate(self):
        ring = self.ring
        return FractionPoly(ring, [ring.scale(c, Fraction(k))
                                   for k, c in enumerate(self.coefficients)][1:])

    def __call__(self, t):
        ring, t = self.ring, Fraction(t)
        total, power = ring.zero, Fraction(1)
        for c in self.coefficients:
            total = ring.add(total, ring.scale(c, power))
            power *= t
        return total


class FoldPolyRing:
    """R[t] on ``FractionPoly``, as a coefficient ring for the dict kernel."""

    def __init__(self, ring):
        self.ring = ring
        self.zero = FractionPoly(ring)
        self.one = FractionPoly(ring, [ring.one])

    add, mul = operator.add, operator.mul

    @staticmethod
    def scale(p, q):
        return p.scale(q)

    @staticmethod
    def is_zero(p):
        return not p.coefficients


def poly_coefficients(polys: dict) -> dict:
    """A dict of polynomials (``Poly`` or ``FractionPoly``) as their
    coefficient tuples, for comparing the library with the oracles."""
    return {b: p.coefficients for b, p in polys.items()}


def multiplicative_by_dict(hopf, ring, truncation: int, on_generator) -> dict:
    """The nonzero values of the character with ``on_generator(b, out)`` on
    each generator b (out: the values so far) and out[first] * out[rest] on
    each product, in basis order."""
    out = {hopf.unit_basis: ring.one}
    for basis in hopf.all_basis_upto(truncation)[1:]:
        first, rest = split(basis)
        if rest.degree:
            a, b = out.get(first), out.get(rest)
            value = ring.zero if a is None or b is None else ring.mul(a, b)
        else:
            value = on_generator(basis, out)
        if not ring.is_zero(value):
            out[basis] = value
    return out


def convolve_by_dict(phi, psi) -> TruncatedFunctional:
    hopf, ring = phi.hopf, phi.ring
    return phi._build({b: convolve_at(hopf, ring, phi.values, psi.values, b)
                       for b in hopf.all_basis_upto(phi.truncation)})


def conv_inverse_by_dict(phi) -> TruncatedFunctional:
    ring, hopf = phi.ring, phi.hopf
    a0_inv = ring.inv(phi.degree0)
    out = {hopf.unit_basis: a0_inv}
    for basis in hopf.all_basis_upto(phi.truncation)[1:]:
        value = ring.mul(ring.neg(convolve_at(hopf, ring, out, phi.values, basis)), a0_inv)
        if not ring.is_zero(value):
            out[basis] = value
    return phi._build(out)


def char_mul_by_dict(phi, psi) -> TruncatedFunctional:
    """The character product of two character functionals."""
    hopf, ring = phi.hopf, phi.ring
    return phi._build(multiplicative_by_dict(
        hopf, ring, phi.truncation,
        lambda b, out: convolve_at(hopf, ring, phi.values, psi.values, b)))


def char_inv_by_dict(phi) -> TruncatedFunctional:
    hopf, ring = phi.hopf, phi.ring
    return phi._build(multiplicative_by_dict(
        hopf, ring, phi.truncation,
        lambda b, out: ring.neg(convolve_at(hopf, ring, out, phi.values, b))))


def evolution_pass_by_dict(hopf, ring, truncation: int, rate) -> tuple[dict, dict]:
    """eta' = eta * gamma on generators, with ``rate(g, rest)`` giving gamma(g):
    the nonzero values of eta and of gamma, as dicts of ``FractionPoly``."""
    polys, gamma = FoldPolyRing(ring), {}

    def on_generator(g, eta):
        rest = convolve_at(hopf, polys, eta, gamma, g).integrate()
        value = rate(g, rest)
        if value.coefficients:
            gamma[g] = value
        return rest + value.integrate()

    return multiplicative_by_dict(hopf, polys, truncation, on_generator), gamma


def curve_value_poly(curve, basis) -> FractionPoly:
    """gamma evaluated at one basis element, as a ``FractionPoly`` in t."""
    return FractionPoly(curve.ring, [c.value(basis) for c in curve.coefficients])


def evolve_polynomials_by_dict(curve) -> dict:
    eta, _gamma = evolution_pass_by_dict(curve.hopf, curve.ring, curve.truncation,
                                         lambda g, rest: curve_value_poly(curve, g))
    zero = FractionPoly(curve.ring)
    return {b: eta.get(b, zero) for b in curve.hopf.all_basis_upto(curve.truncation)}


def char_log_by_dict(psi) -> TruncatedFunctional:
    """The infinitesimal character phi with exp(phi) = psi, solved on generators."""
    ring = psi.ring

    def rate(g, rest):
        return FractionPoly(ring, [ring.add(psi.value(g), ring.neg(rest(1)))])

    _eta, gamma = evolution_pass_by_dict(psi.hopf, ring, psi.truncation, rate)
    return psi._build({g: p.coefficients[0] for g, p in gamma.items()})


# -- evolution ----------------------------------------------------------------


def evolve_polynomials_by_basis(curve) -> dict:
    """eta as a ``FractionPoly`` in t on every basis element of degree <= N:
    degree by degree, eta(b) integrates the sum of eta(left) gamma(right) over
    all coproduct terms of b, products included."""
    hopf, ring = curve.hopf, curve.ring
    eta: dict = {hopf.unit_basis: FractionPoly(ring, [ring.one])}
    for degree in range(1, curve.truncation + 1):
        for basis in hopf.basis(degree):
            rate = FractionPoly(ring)
            for coeff, left, right in hopf.coproduct(basis):
                if right.degree == 0:
                    continue  # gamma vanishes in degree 0
                gamma_poly = curve_value_poly(curve, right)
                if not gamma_poly.coefficients:
                    continue
                rate = rate + (eta[left] * gamma_poly).scale(coeff)
            eta[basis] = rate.integrate()
    return eta


# -- ideals -------------------------------------------------------------------


def ideal_degree_span(ideal, degree: int) -> tuple[list, list[list[Fraction]]]:
    """Basis elements of the given degree and spanning vectors of the ideal's
    degree-``degree`` piece, namely all products generator * basis monomial."""
    hopf = ideal.hopf
    basis = list(hopf.basis(degree))
    index = {b: i for i, b in enumerate(basis)}
    vectors = []
    for gen in ideal.generators_upto(degree):
        cofactor_degree = degree - gen.degree()
        for monomial in hopf.basis(cofactor_degree):
            product = hopf.multiply(gen, GradedVector([(monomial, 1)]))
            vec = [Fraction(0)] * len(basis)
            for b, c in product:
                vec[index[b]] += c
            if any(vec):
                vectors.append(vec)
    return basis, vectors


def vector_in_ideal_degree(ideal, vec: GradedVector, degree: int) -> bool:
    basis, span = ideal_degree_span(ideal, degree)
    index = {b: i for i, b in enumerate(basis)}
    target = [Fraction(0)] * len(basis)
    for b, c in vec:
        if b.degree != degree:
            return False
        target[index[b]] += c
    return in_span(span, target)


def coproduct_in_coideal(ideal, gen: GradedVector) -> bool:
    """Whether Delta(gen) lies in I (x) H + H (x) I, bidegree by bidegree."""
    hopf = ideal.hopf
    degree = gen.degree()
    # Collect Delta(gen) terms by bidegree.
    by_bidegree: dict[tuple[int, int], dict] = {}
    for basis, coeff in gen:
        for c, left, right in hopf.coproduct(basis):
            key = (left.degree, right.degree)
            slot = by_bidegree.setdefault(key, {})
            slot[(left, right)] = slot.get((left, right), Fraction(0)) + coeff * c
    for (i, j), terms in by_bidegree.items():
        terms = {k: v for k, v in terms.items() if v}
        if not terms:
            continue
        left_basis = list(hopf.basis(i))
        right_basis = list(hopf.basis(j))
        pair_index = {}
        for li, lb in enumerate(left_basis):
            for ri, rb in enumerate(right_basis):
                pair_index[(lb, rb)] = li * len(right_basis) + ri
        dim = len(left_basis) * len(right_basis)
        target = [Fraction(0)] * dim
        for pair, value in terms.items():
            target[pair_index[pair]] += value
        span = []
        _, iv_left = ideal_degree_span(ideal, i)
        for vec in iv_left:
            for ri in range(len(right_basis)):
                row = [Fraction(0)] * dim
                for li, value in enumerate(vec):
                    row[li * len(right_basis) + ri] = value
                span.append(row)
        _, iv_right = ideal_degree_span(ideal, j)
        for vec in iv_right:
            for li in range(len(left_basis)):
                row = [Fraction(0)] * dim
                for ri, value in enumerate(vec):
                    row[li * len(right_basis) + ri] = value
                span.append(row)
        if not in_span(span, target):
            return False
    return True

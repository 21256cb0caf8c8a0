"""Independent oracles shared by the test modules.

Everything here recomputes expected values along a different route than the
library: graph-level isomorphism instead of canonical serialization, raw
vertex-subset enumeration instead of the child recursion, the componentwise
product over a forest's trees and the unshuffle over letter masks instead of
the multiplicative extension of the coproduct, the antipode axiom instead of
the partition formula, the per-degree composition sum instead of
Horner evaluation, a linear-span ideal membership test instead of
generator-only evaluation, the product rule on every pair of basis elements
instead of on (first generator, rest), the root-containing-subtree sum
instead of the character product for Butcher composition, the geometric
series instead of the triangular recursion for the convolution inverse,
integration of the coproduct sum on every basis element instead of on
generators only for the evolution equation, and a convolution kernel on
value dicts keyed by basis objects, folding ``mul``/``scale``/``add`` term by
term, instead of the index-table kernel with one ``sum_products`` per value.
"""

from fractions import Fraction

from hopfchar.convolution import TruncatedFunctional, conv_unit, convolve
from hopfchar.evolution import Poly
from hopfchar.hopf import GradedVector, Word
from hopfchar.linalg import in_span
from hopfchar.trees import Forest, RootedTree, enumerate_trees, ordered_subtrees


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


class FoldPolyRing:
    """R[t] with the schoolbook product, one ring ``mul`` and ``add`` per pair
    of nonzero coefficients."""

    def __init__(self, ring):
        self.ring = ring
        self.zero = Poly(ring)
        self.one = Poly(ring, [ring.one])

    @staticmethod
    def add(p, q):
        return p + q

    def mul(self, p, q):
        ring = self.ring
        out = [ring.zero] * max(len(p.coefficients) + len(q.coefficients) - 1, 0)
        for i, a in enumerate(p.coefficients):
            for j, b in enumerate(q.coefficients):
                if not ring.is_zero(a) and not ring.is_zero(b):
                    out[i + j] = ring.add(out[i + j], ring.mul(a, b))
        return Poly(ring, out)

    @staticmethod
    def scale(p, q):
        return p.scale(q)

    @staticmethod
    def is_zero(p):
        return not p.coefficients


def multiplicative_by_dict(hopf, ring, truncation: int, on_generator) -> dict:
    """The nonzero values of the character with ``on_generator(b, out)`` on
    each generator b (out: the values so far) and out[first] * out[rest] on
    each product, in basis order."""
    out = {hopf.unit_basis: ring.one}
    for basis in hopf.all_basis_upto(truncation)[1:]:
        first, rest = hopf.split(basis)
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
    the nonzero values of eta and of gamma, as dicts of ``Poly``."""
    polys, gamma = FoldPolyRing(ring), {}

    def on_generator(g, eta):
        rest = convolve_at(hopf, polys, eta, gamma, g).integrate()
        value = rate(g, rest)
        if value.coefficients:
            gamma[g] = value
        return rest + value.integrate()

    return multiplicative_by_dict(hopf, polys, truncation, on_generator), gamma


def evolve_polynomials_by_dict(curve) -> dict:
    eta, _gamma = evolution_pass_by_dict(curve.hopf, curve.ring, curve.truncation,
                                         lambda g, rest: curve.value_poly(g))
    zero = Poly.zero(curve.ring)
    return {b: eta.get(b, zero) for b in curve.hopf.all_basis_upto(curve.truncation)}


def char_log_by_dict(psi) -> TruncatedFunctional:
    """The infinitesimal character phi with exp(phi) = psi, solved on generators."""
    ring = psi.ring

    def rate(g, rest):
        return Poly(ring, [ring.add(psi.value(g), ring.neg(rest(1)))])

    _eta, gamma = evolution_pass_by_dict(psi.hopf, ring, psi.truncation, rate)
    return psi._build({g: p.coefficients[0] for g, p in gamma.items()})


# -- evolution ----------------------------------------------------------------


def evolve_polynomials_by_basis(curve) -> dict:
    """eta as a ``Poly`` in t on every basis element of degree <= N: degree by
    degree, eta(b) integrates the sum of eta(left) gamma(right) over all
    coproduct terms of b, products included."""
    hopf, ring = curve.hopf, curve.ring
    eta: dict = {hopf.unit_basis: Poly(ring, [ring.one])}
    for degree in range(1, curve.truncation + 1):
        for basis in hopf.basis(degree):
            rate = Poly.zero(ring)
            for coeff, left, right in hopf.coproduct(basis):
                if right.degree == 0:
                    continue  # gamma vanishes in degree 0
                gamma_poly = curve.value_poly(right)
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

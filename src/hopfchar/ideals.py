"""Homogeneous Hopf ideals given by finite generator sets, and the annihilator
subgroups they cut out of the character group.

A ``HopfIdealSpec`` is built in Python from ``GradedVector`` generators; it has
no JSON form, since no CLI command reads an ideal.

A character (or infinitesimal character) annihilates the generated ideal as
soon as it vanishes on the generators of degree <= N: characters are
multiplicative, so values on products of a generator vanish, and infinitesimal
characters satisfy the derivation identity against the counit, which kills
generators.  So ``annihilates`` only evaluates generators, each one
kernel-form ``ring.sum_products`` (``TruncatedFunctional.evaluate``); the tests
validate this shortcut against a per-degree linear-span oracle.

The flagship instance is the ideal of the symplectic tree maps, generated in
each degree by  graft(t,u) + graft(u,t) - t*u  over unordered tree pairs.
``pair_table(N)`` grafts each pair once and is memoized per N.
``is_symplectic`` reads it with one kernel-form ``ring.sum_products`` per pair,
and ``symplectic_generators(N)`` builds one spec from it, memoized per N and
shared by every caller (a spec and its vectors are immutable).  Threads racing
on a first call may each build one; they build equal values, and one is kept.
Only N <= ``MEMO_MAX_TRUNCATION`` is kept, about 2.5 MB for all of them; a
larger N is built per call (N = 12 would keep 10 MB, N = 13 27 MB).
"""

from __future__ import annotations

from typing import Mapping, Union

from .characters import (
    Character,
    InfinitesimalCharacter,
    character_violation,
    infinitesimal_violation,
)
from .errors import IdealError, IncompatibleError, MembershipError
from .hopf import GradedVector, HopfStructure, ck_hopf
from .rings import RATIONAL
from .trees import Forest, RootedTree, butcher_product, enumerate_trees


class HopfIdealSpec:
    """A finite list of homogeneous generators of degree >= 1, with their
    degrees (``degrees``, in generator order)."""

    __slots__ = ("hopf", "generators", "degrees")

    def __init__(self, hopf: HopfStructure, generators):
        gens = tuple(generators)
        degrees = []
        for gen in gens:
            degs = gen.degrees()
            if len(degs) != 1:
                raise IdealError("generators must be nonzero and homogeneous")
            degrees.extend(degs)
            if degrees[-1] < 1:  # so the counit kills every generator
                raise IdealError("generators must have degree >= 1")
        self.hopf = hopf
        self.generators = gens
        self.degrees = tuple(degrees)

    def generators_upto(self, degree: int) -> tuple[GradedVector, ...]:
        return tuple(g for g, d in zip(self.generators, self.degrees) if d <= degree)

    def __repr__(self) -> str:
        return f"HopfIdealSpec({self.hopf.key}, {len(self.generators)} generators)"


def annihilator_violation(
    phi: Union[Character, InfinitesimalCharacter], ideal: HopfIdealSpec
):
    """The first generator of degree <= N that phi does not kill, or None.

    A raw functional is accepted if it passes one of the two membership
    predicates (that is what makes generator-only evaluation sufficient);
    otherwise ``MembershipError`` is raised.  A functional and an ideal over
    different Hopf algebras raise ``IncompatibleError``.
    """
    if isinstance(phi, (Character, InfinitesimalCharacter)):
        functional = phi.functional
    else:
        functional = phi
        if character_violation(functional) is not None and \
                infinitesimal_violation(functional) is not None:
            raise MembershipError(
                "annihilator test needs a character or infinitesimal character"
            )
    if functional.hopf.key != ideal.hopf.key:
        raise IncompatibleError(
            f"functional over {functional.hopf.key} vs ideal over {ideal.hopf.key}"
        )
    ring = functional.ring
    for gen in ideal.generators_upto(functional.truncation):
        if not ring.is_zero(functional.evaluate(gen)):
            return gen
    return None


def annihilates(phi: Union[Character, InfinitesimalCharacter], ideal: HopfIdealSpec) -> bool:
    """Whether phi kills every generator (hence the whole ideal) up to N."""
    return annihilator_violation(phi, ideal) is None


MEMO_MAX_TRUNCATION = 10
_pair_tables: dict[int, tuple] = {}
_symplectic_specs: dict[int, HopfIdealSpec] = {}


def pair_table(truncation: int) -> tuple:
    """``(tau, upsilon, graft(tau, upsilon), graft(upsilon, tau))`` for each
    unordered pair of trees with total order <= N once, in tree enumeration
    order: memoized for 2 <= N <= ``MEMO_MAX_TRUNCATION``, empty below 2."""
    if truncation < 2:
        return ()
    table = _pair_tables.get(truncation)
    if table is None:
        trees = [t for level in enumerate_trees(truncation - 1) for t in level]
        table = tuple(
            (tau, upsilon, butcher_product(tau, upsilon), butcher_product(upsilon, tau))
            for i, tau in enumerate(trees) for upsilon in trees[i:]
            if tau.order + upsilon.order <= truncation)
        if truncation <= MEMO_MAX_TRUNCATION:
            table = _pair_tables.setdefault(truncation, table)
    return table


def symplectic_generators(truncation: int) -> HopfIdealSpec:
    """Generators of the symplectic ideal: for each unordered pair of trees
    with total order <= N,  graft(t,u) + graft(u,t) - t*u, in ``pair_table``
    order.  Each generator is homogeneous (grafting preserves the node count).
    The spec is memoized for N <= ``MEMO_MAX_TRUNCATION`` and shared by every
    caller."""
    spec = _symplectic_specs.get(truncation)
    if spec is None:
        if truncation < 2:
            raise IdealError(f"symplectic generators need truncation >= 2, got {truncation}")
        spec = HopfIdealSpec(ck_hopf(), [
            GradedVector([(Forest((tu,)), 1), (Forest((ut,)), 1), (Forest((tau, upsilon)), -1)])
            for tau, upsilon, tu, ut in pair_table(truncation)
        ])
        if truncation <= MEMO_MAX_TRUNCATION:
            spec = _symplectic_specs.setdefault(truncation, spec)
    return spec


def is_symplectic(
    values: Mapping[RootedTree, object], truncation: int, ring=RATIONAL
) -> bool:
    """Direct symplecticity of a tree map:
    a(graft(t,u)) + a(graft(u,t)) = a(t) a(u) for all pairs with total order <= N.
    Missing trees count as zero; each pair is one kernel-form ``ring.sum_products``
    compared with the kernel zero.  Agrees with ``annihilates`` through the
    tree-map/character correspondence."""
    a = {t: ring.to_kernel(v) for t, v in values.items() if t.order <= truncation}.get
    zero, one = ring.to_kernel(ring.zero), ring.to_kernel(ring.one)
    for tau, upsilon, tu, ut in pair_table(truncation):
        if ring.sum_products([(1, a(tu, zero), one), (1, a(ut, zero), one),
                              (-1, a(tau, zero), a(upsilon, zero))]) != zero:
            return False
    return True

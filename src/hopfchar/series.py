"""Functional calculus on the augmentation ideal of the convolution algebra.

A rational power series is a plain sequence of coefficients c_0, c_1, ...;
``exp_series`` and ``log1p_series`` are tuples of ``Fraction``.
``apply_series(coefficients, a)`` substitutes a functional with zero
degree-0 part into such a series.  Since a lives in the augmentation ideal,
its k-th convolution power has no components below degree k, so the series
truncates exactly at the truncation degree N: coefficients past X^N are
ignored.  Evaluation runs Horner's rule on value lists through
``convolve_at``, each step only over the degree prefix of the basis that can
still reach the result (the raw composition formula, Horner on value dicts
and the geometric-series inverse are test oracles).

``apply_series`` can also run on a set of basis indices closed under right
factors, as ``characters.char_exp`` and ``char_log`` do on the unit and the
generators; those two, with ``characters.char_bch``, are the library's
exponential, logarithm and BCH (the full-basis ``exp``/``log``/``bch`` of
any ideal element are test oracles).
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from .convolution import TruncatedFunctional, convolve_at, require_augmentation

_ZERO = Fraction(0)


def exp_series(order: int) -> tuple:
    coeffs, fact = [], 1
    for k in range(order + 1):
        fact = fact * k if k else 1
        coeffs.append(Fraction(1, fact))
    return tuple(coeffs)


def log1p_series(order: int) -> tuple:
    return (_ZERO,) + tuple(Fraction((-1) ** (k + 1), k) for k in range(1, order + 1))


def apply_series(coefficients, a: TruncatedFunctional, indices=None) -> TruncatedFunctional:
    """Substitute ``a`` (zero degree-0 part required) into the series
    c_0 + c_1 X + ... with the given ``coefficients``, each read as
    ``Fraction(c)``; terms past X^N drop out, and missing ones are zero.

    For fixed a this is a unital algebra morphism from series under the
    Cauchy product into the convolution algebra.  Horner's rule
    acc_j = c_j 1 + a * acc_(j+1) runs on value lists (None for zero) through
    ``convolve_at``.  Since a raises degree, only the degree <= N - j part of
    acc_j reaches the result, and that part is the prefix ``ends[N - j]`` of
    the basis order.  The shorter acc list is never read past its end: a
    coproduct triple (c, l, r) of a degree-d element with a[l] nonzero has l
    off the unit, where a vanishes, so r has degree < d.

    ``indices`` (default: every basis index) restricts each step to a set of
    basis indices of ``hopf.table(N)``.  The set must hold 0 and be closed
    under right factors: for each triple (c, l, r) of one of its elements
    with l off the unit, r is in the set.  Then every acc value that a step
    reads is computed, and the result is exact on the set and zero off it.
    """
    coeffs = [Fraction(c) for c in coefficients]
    if not coeffs:
        raise ValueError("a series needs at least the constant coefficient")
    require_augmentation(a)
    ring, hopf, n = a.ring, a.hopf, a.truncation
    table, values, zero = hopf.table(n), a.value_list(), ring.to_kernel(ring.zero)
    order = range(len(table.basis)) if indices is None else sorted(indices)
    coeffs += [_ZERO] * (n + 1 - len(coeffs))
    acc = []
    for j in range(n, -1, -1):
        end = table.ends[n - j]
        step = [None] * end
        if coeffs[j]:
            step[0] = ring.to_kernel(ring.scale(ring.one, coeffs[j]))
        for i in order[1:bisect_left(order, end)]:
            value = convolve_at(table, ring, values, acc, i)
            if value != zero:
                step[i] = value
        acc = step
    return TruncatedFunctional.from_value_list(hopf, ring, n, acc)

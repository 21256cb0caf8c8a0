import random
from fractions import Fraction

import pytest

from hopfchar.convolution import conv_inverse, conv_unit, convolve, delta
from hopfchar.errors import AugmentationError
from hopfchar.hopf import ck_hopf, tensor_hopf
from hopfchar.rings import RATIONAL, TruncatedSeriesRing
from sampling import random_ideal_element, random_invertible
from hopfchar.series import apply_series, exp_series, log1p_series
from hopfchar.trees import Forest, LEAF, parse_tree

from helpers import (apply_series_by_dict, apply_series_raw, bch, exp, geometric_series, log,
                     project, schoolbook_product)

CK = ck_hopf()
T2 = tensor_hopf(2)
SERIES_RING = TruncatedSeriesRing(2)
CHAIN = parse_tree("[[]]")
F_LEAF = Forest([LEAF])
F_CHAIN = Forest([CHAIN])
F_LL = Forest([LEAF, LEAF])


def rnd_series(rng, order):
    return tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(order + 1))


def test_named_series():
    assert exp_series(3) == (1, 1, Fraction(1, 2), Fraction(1, 6))
    assert log1p_series(3) == (0, 1, Fraction(-1, 2), Fraction(1, 3))
    assert geometric_series(2) == (1, 1, 1)


def test_apply_series_identity_and_unit():
    """Coefficients of any exact type, read as ``Fraction``; a series shorter
    or longer than N + 1 is padded with zeros or cut at X^N."""
    d = delta(CK, RATIONAL, 4, F_LEAF)
    assert apply_series((0, 1), d) == d
    assert apply_series([0, "1", 0, 0, 0, 7, Fraction(-1, 3)], d) == d
    assert apply_series([1], d) == conv_unit(CK, RATIONAL, 4)
    assert apply_series(("1", "-1/2", 1.5), d) == conv_unit(CK, RATIONAL, 4) + d.scale(
        Fraction(-1, 2)) + convolve(d, d).scale(Fraction(3, 2))
    with pytest.raises(ValueError):
        apply_series([], d)


def test_apply_series_square():
    d = delta(CK, RATIONAL, 4, F_LEAF)
    sq = apply_series((0, 0, 1), d)
    assert sq == convolve(d, d)
    assert sq.value(F_LL) == 2
    assert sq.value(F_CHAIN) == 1


def test_apply_series_requires_augmentation_ideal():
    with pytest.raises(AugmentationError):
        apply_series((0, 1), conv_unit(CK, RATIONAL, 3))


def test_morphism_law_randomized():
    rng = random.Random(31)
    for _ in range(10):
        a = random_ideal_element(CK, RATIONAL, 5, rng)
        f = rnd_series(rng, 5)
        g = rnd_series(rng, 5)
        assert apply_series(schoolbook_product(f, g, 6), a) == convolve(
            apply_series(f, a), apply_series(g, a)
        )


HORNER_SPACES = ([(CK, RATIONAL, n) for n in range(7)] + [(T2, RATIONAL, n) for n in range(7)]
                 + [(tensor_hopf(3), RATIONAL, 4)] + [(CK, SERIES_RING, n) for n in range(6)])


def test_horner_agrees_with_raw_composition_formula():
    """Horner on degree prefixes equals the per-degree composition sum and
    Horner on value dicts over the whole basis.  Inputs: ck N = 0-6,
    tensor(2) N = 0-6, tensor(3) N = 4 and ck over series:2 N = 0-5; a random
    a, one with no degree-1 part and the zero functional; series with a zero
    top coefficient, the zero series and series shorter and longer than N + 1."""
    rng = random.Random(32)
    for hopf in (CK, T2):
        for _ in range(5):
            a = random_ideal_element(hopf, RATIONAL, 4, rng)
            f = rnd_series(rng, 4)
            assert apply_series(f, a) == apply_series_raw(f, a)
    for hopf, ring, n in HORNER_SPACES:
        a = random_ideal_element(hopf, ring, n, rng)
        no_degree1 = a - project(a, 1) if n else a
        full = rnd_series(rng, n)
        series = [full, full[:-1] + (0,), (0,) * (n + 1),
                  rnd_series(rng, n // 2), rnd_series(rng, n + 2), (Fraction(-3, 2),)]
        for x in (a, random_ideal_element(hopf, ring, n, rng), no_degree1, a - a):
            for f in series:
                case = f"{hopf.key}/{ring.key} N={n} f={f} a={x}"
                want = apply_series_raw(f, x)
                assert apply_series(f, x) == want, case
                assert apply_series_by_dict(f, x) == want, case


def test_exp_small_values():
    d = delta(CK, RATIONAL, 4, F_LEAF)
    e = exp(d)
    assert e.value(F_LEAF) == 1
    assert e.value(F_CHAIN) == Fraction(1, 2)
    assert e.value(F_LL) == 1
    zero = conv_unit(CK, RATIONAL, 4) - conv_unit(CK, RATIONAL, 4)
    assert exp(zero) == conv_unit(CK, RATIONAL, 4)


def test_exp_one_parameter_group():
    rng = random.Random(33)
    d = delta(CK, RATIONAL, 5, F_LEAF)
    for _ in range(5):
        t = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        s = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        assert convolve(exp(d.scale(t)), exp(d.scale(s))) == exp(d.scale(t + s))


def test_log_small_values():
    unit = conv_unit(CK, RATIONAL, 4)
    assert not log(unit).values
    d = delta(CK, RATIONAL, 4, F_LEAF)
    l = log(unit + d)
    assert l.value(F_CHAIN) == Fraction(-1, 2)


def test_log_requires_unit_degree_zero():
    d = delta(CK, RATIONAL, 3, F_LEAF)
    with pytest.raises(AugmentationError):
        log(d)
    with pytest.raises(AugmentationError):
        log(conv_unit(CK, RATIONAL, 3).scale(2))


@pytest.mark.parametrize(
    "hopf,ring",
    [(CK, RATIONAL), (CK, SERIES_RING), (T2, RATIONAL)],
    ids=["ck/rational", "ck/series", "tensor/rational"],
)
def test_exp_log_roundtrip_randomized(hopf, ring):
    rng = random.Random(34)
    unit = conv_unit(hopf, ring, 4)
    for _ in range(10):
        a = random_ideal_element(hopf, ring, 4, rng)
        assert log(exp(a)) == a
        u = unit + random_ideal_element(hopf, ring, 4, rng)
        assert exp(log(u)) == u


def test_exp_derivative_at_zero_by_interpolation():
    # the degree-n part of exp(h a) is a polynomial in h; its linear
    # coefficient, extracted by exact interpolation, must equal a_n
    rng = random.Random(35)
    N = 4
    a = random_ideal_element(CK, RATIONAL, N, rng)
    samples = [Fraction(k) for k in range(N + 1)]
    basis = CK.all_basis_upto(N)
    values = {h: exp(a.scale(h)) for h in samples}
    for b in basis:
        # Newton forward differences at 0,1,...,N give exact coefficients
        ys = [values[h].value(b) for h in samples]
        # linear coefficient of the interpolating polynomial in h
        coeffs = _monomial_coefficients(samples, ys)
        assert coeffs[1] == a.value(b)


def _monomial_coefficients(xs, ys):
    # exact Lagrange interpolation: solve the Vandermonde system
    n = len(xs)
    rows = [[x**j for j in range(n)] + [y] for x, y in zip(xs, ys)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        factor = rows[col][col]
        rows[col] = [v / factor for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                scale = rows[r][col]
                rows[r] = [v - scale * w for v, w in zip(rows[r], rows[col])]
    return [rows[i][n] for i in range(n)]


def test_geometric_series_reproduces_inverse():
    rng = random.Random(36)
    for _ in range(5):
        phi = random_invertible(CK, RATIONAL, 4, rng)
        a0 = phi.degree0
        b = phi.drop_degree0().scale(RATIONAL.inv(a0))
        via_series = apply_series(geometric_series(4), b.scale(-1)).scale(RATIONAL.inv(a0))
        assert via_series == conv_inverse(phi)


def test_bch_trivial_cases():
    d = delta(CK, RATIONAL, 4, F_LEAF)
    zero = d - d
    assert bch(d, zero) == d
    assert bch(zero, d) == d


def test_bch_commuting_collapse():
    d = delta(CK, RATIONAL, 5, F_LEAF)
    dd = convolve(d, d)  # commutes with d
    assert bch(d, dd) == d + dd
    assert bch(d, d.scale(Fraction(3, 7))) == d.scale(Fraction(10, 7))


def test_bch_bilinear_component_is_half_bracket():
    d1 = delta(CK, RATIONAL, 5, F_LEAF)
    d2 = delta(CK, RATIONAL, 5, F_CHAIN)
    z = bch(d1, d2)
    half_bracket = (convolve(d1, d2) - convolve(d2, d1)).scale(Fraction(1, 2))
    assert project(z, 3) == project(half_bracket, 3)
    assert project(z, 1) == d1
    assert project(z, 2) == d2

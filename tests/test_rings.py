import random
import sys
from fractions import Fraction

import pytest

from hopfchar.errors import SIZE_BUDGET, NotInvertibleError, ParseError, ResourceLimitError
from hopfchar.rings import RATIONAL, TruncatedSeriesRing, poly_products, resolve_ring
from sampling import random_ring_element, random_unit

from helpers import random_coefficients, schoolbook_product

SERIES = TruncatedSeriesRing(3)


@pytest.mark.parametrize("ring", [RATIONAL, SERIES], ids=lambda r: r.key)
def test_ring_axioms_randomized(ring):
    rng = random.Random(11)
    for _ in range(50):
        a = random_ring_element(ring, rng)
        b = random_ring_element(ring, rng)
        c = random_ring_element(ring, rng)
        assert ring.add(a, b) == ring.add(b, a)
        assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
        assert ring.mul(a, b) == ring.mul(b, a)
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
        assert ring.add(a, ring.zero) == a
        assert ring.mul(a, ring.one) == a
        assert ring.add(a, ring.neg(a)) == ring.zero


@pytest.mark.parametrize("ring", [RATIONAL, SERIES], ids=lambda r: r.key)
def test_inverse_law_randomized(ring):
    rng = random.Random(12)
    for _ in range(30):
        a = random_unit(ring, rng)
        assert ring.mul(a, ring.inv(a)) == ring.one


def test_series_unit_iff_nonzero_constant_term():
    rng = random.Random(13)
    for _ in range(40):
        a = random_ring_element(SERIES, rng)
        if a[0]:
            assert SERIES.mul(a, SERIES.inv(a)) == SERIES.one
        else:
            with pytest.raises(NotInvertibleError):
                SERIES.inv(a)
    with pytest.raises(NotInvertibleError):
        SERIES.inv(SERIES.element([0, 1]))


def test_series_inverse_example():
    # (1 + X)^-1 = 1 - X + X^2 - X^3 modulo X^4
    one_plus_x = SERIES.element([1, 1])
    assert SERIES.inv(one_plus_x) == SERIES.element([1, -1, 1, -1])


def test_series_inverse_of_sparse_elements_at_width_2001():
    # The inverse sums over the nonzero coefficients only: the unit, 1 + X and
    # 2 - 3X^7 are inverted in time linear in the width.
    ring = TruncatedSeriesRing(2000)
    assert ring.inv(ring.one) == ring.one
    assert ring.inv(ring.element([1, 1])) == ring.element((-1) ** k for k in range(2001))
    sparse = ring.element([2] + [0] * 6 + [-3])
    assert ring.inv(sparse) == ring.element(
        Fraction(3 ** (k // 7), 2 ** (k // 7 + 1)) if k % 7 == 0 else 0 for k in range(2001))


def test_series_truncation_in_product():
    ring = TruncatedSeriesRing(2)
    x = ring.element([0, 1])
    assert ring.mul(x, x) == ring.element([0, 0, 1])
    assert ring.mul(ring.mul(x, x), x) == ring.zero


def test_rational_inverse_of_zero():
    with pytest.raises(NotInvertibleError):
        RATIONAL.inv(Fraction(0))


def test_scale_is_rational_module_structure():
    assert RATIONAL.scale(Fraction(3, 2), Fraction(2, 3)) == 1
    a = SERIES.element([2, 4])
    assert SERIES.scale(a, Fraction(1, 2)) == SERIES.element([1, 2])


@pytest.mark.parametrize("ring", [RATIONAL, SERIES], ids=lambda r: r.key)
def test_format_parse_roundtrip(ring):
    rng = random.Random(14)
    for _ in range(20):
        a = random_ring_element(ring, rng)
        assert ring.parse_element(ring.format_element(a)) == a


def test_rational_formatting_lowest_terms():
    assert RATIONAL.format_element(Fraction(2, 4)) == "1/2"
    assert RATIONAL.format_element(Fraction(3)) == "3"
    assert RATIONAL.format_element(Fraction(1, -2)) == "-1/2"


def test_resolve_ring():
    assert resolve_ring("rational") is RATIONAL
    assert resolve_ring("series:4").modulus_degree == 4
    with pytest.raises(ParseError):
        resolve_ring("series:x")
    for bad in ("series:1_0", "series: +3", "series:03", "series:+3", "series:",
                "series:-3", "series:\u0663"):
        with pytest.raises(ParseError):
            resolve_ring(bad)
    with pytest.raises(ParseError):
        resolve_ring("integers")
    with pytest.raises(ValueError):
        TruncatedSeriesRing(0)
    for oversized in ("series:1000000000", f"series:{SIZE_BUDGET}"):
        with pytest.raises(ResourceLimitError):
            resolve_ring(oversized)


def test_parse_element_errors():
    with pytest.raises(ParseError):
        RATIONAL.parse_element("1/0")
    with pytest.raises(ParseError):
        SERIES.parse_element("1,nope")
    # An exponent is refused beyond the digit limit, in either sign.
    limit = sys.get_int_max_str_digits()
    assert RATIONAL.parse_element(f"1e{limit}") == 10 ** limit
    assert RATIONAL.parse_element(f" -2.5E-{limit} ") == Fraction(-25, 10 ** (limit + 1))
    assert RATIONAL.parse_element("3e0_001") == 30
    for bad in (f"1e{limit + 1}", f"1E-{limit + 1}", f"1e+{limit + 1} ", "1e" + "9" * 5000, 5):
        with pytest.raises(ParseError):
            RATIONAL.parse_element(bad)
    with pytest.raises(ParseError):
        SERIES.parse_element(f"1,1e{limit + 1}")


# -- products of coefficient lists against the schoolbook product --------------

# (probability of a zero coefficient in a, in b, huge denominators)
PRODUCT_SHAPES = [(0.0, 0.0, False), (0.5, 0.0, False), (0.0, 0.5, False), (0.4, 0.4, False),
                  (1.0, 0.0, False), (0.0, 1.0, False), (0.0, 0.0, True), (0.3, 0.3, True)]


def _schoolbook_sum(terms, size):
    out = [Fraction(0)] * size
    for c, a, b in terms:
        for k, x in enumerate(schoolbook_product(a, b, size)):
            out[k] += c * x
    return tuple(out)


@pytest.mark.parametrize("m", range(1, 6), ids=lambda m: f"series:{m}")
def test_series_product_equals_the_schoolbook_product(m):
    ring = TruncatedSeriesRing(m)
    rng = random.Random(100 + m)
    for zeros_a, zeros_b, huge in PRODUCT_SHAPES:
        for _ in range(5):
            a = ring.element(random_coefficients(rng, m + 1, zeros_a, huge))
            b = ring.element(random_coefficients(rng, m + 1, zeros_b, huge))
            assert ring.mul(a, b) == tuple(schoolbook_product(a, b, m + 1))
            terms = [(1, a, b), (3, b, b), (2, a, ring.element(random_coefficients(rng, m + 1)))]
            kernel_terms = [(c, ring.to_kernel(x), ring.to_kernel(y)) for c, x, y in terms]
            assert ring.sum_products(kernel_terms) == ring.to_kernel(_schoolbook_sum(terms, m + 1))
    assert ring.sum_products([]) == ring.to_kernel(ring.zero)


def _pairs(values) -> list:
    """Rationals as the reduced integer pairs ``poly_products`` works on."""
    return [Fraction(x).as_integer_ratio() for x in values]


def test_poly_products_sizes():
    a, b = [Fraction(1), Fraction(0), Fraction(2)], [Fraction(0), Fraction(3)]
    full = _pairs(schoolbook_product(a, b, 4))
    a, b = _pairs(a), _pairs(b)
    assert poly_products([(1, a, b)], 4) == full
    assert poly_products([(1, a, b)], 2) == full[:2]
    assert poly_products([(1, a, b)], 6) == full + _pairs([0, 0])
    assert poly_products([(2, a, b), (1, b, b)], 3) == _pairs([0, 6, 9])
    assert poly_products([], 3) == _pairs([0, 0, 0])
    assert poly_products([(1, _pairs([0]), a)], 2) == _pairs([0, 0])

import math
import random
import sys
import time
from fractions import Fraction

import pytest

from hopfchar.errors import SIZE_BUDGET, NotInvertibleError, ParseError, ResourceLimitError
from hopfchar.characters import char_from_tree_values, char_inv, char_mul, char_unit
from hopfchar.convolution import TruncatedFunctional, conv_inverse, conv_unit, convolve
from hopfchar.hopf import ck_hopf
from hopfchar.rings import RATIONAL, TruncatedSeriesRing, resolve_ring
from hopfchar.trees import enumerate_trees
from sampling import random_ring_element, random_unit

from helpers import random_coefficients, schoolbook_product

SERIES = TruncatedSeriesRing(3)
CK = ck_hopf()


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


@pytest.mark.parametrize("m, product", [(1, (0, 3)), (3, (0, 3, 0, 6)), (5, (0, 3, 0, 6))],
                         ids=["series:1", "series:3", "series:5"])
def test_series_products_truncate_at_x_to_the_m(m, product):
    # (1 + 2X^2) * 3X = 3X + 6X^3, cut at X^m, numerators with no trailing zero.
    ring = TruncatedSeriesRing(m)
    a, b = (ring.to_kernel(ring.element(cs)) for cs in ([1, 0, 2], [0, 3]))
    assert ring.kernel_mul(a, b) == (product, 1)
    assert ring.sum_products([(2, a, b), (1, b, b)]) == ((0, 6, 9, 12)[:m + 1], 1)
    assert ring.sum_products([]) == ring.kernel_mul(ring.to_kernel(ring.zero), a) == ((), 1)


# -- the kernel form: integer numerators over one denominator -------------------


def _assert_canonical(kernel):
    nums, den = kernel
    assert type(nums) is tuple and den > 0 and math.gcd(den, *nums) == 1
    assert not nums or nums[-1], kernel


@pytest.mark.parametrize("m", range(1, 7), ids=lambda m: f"series:{m}")
def test_series_kernel_form_is_canonical(m):
    ring = TruncatedSeriesRing(m)
    rng = random.Random(200 + m)
    assert ring.to_kernel(ring.zero) == ((), 1)
    for _ in range(20):
        a, b = (ring.element(random_coefficients(rng, m + 1, 0.4)) for _ in range(2))
        ka, kb = ring.to_kernel(a), ring.to_kernel(b)
        for kernel in (ka, kb, ring.kernel_mul(ka, kb), ring.kernel_neg(ka),
                       ring.sum_products([(3, ka, kb), (2, kb, ka)])):
            _assert_canonical(kernel)
            assert ring.to_kernel(ring.from_kernel(kernel)) == kernel
        assert ring.from_kernel(ka) == a
        # A sum whose top coefficients cancel is spelled as its value is.
        minus_b = ring.kernel_neg(kb)
        assert ring.sum_products([(1, ka, kb), (1, ka, minus_b)]) == ((), 1)
        top = ring.to_kernel(ring.element([0] * m + [1]))
        assert (ring.sum_products([(1, ka, ring.to_kernel(ring.one)), (1, top, kb), (-1, top, kb)])
                == ka)
    # 1/4 * 2 is 2/4 before its gcd; 1/2 coefficients, given or padded.
    half = ring.to_kernel(ring.element([Fraction(1, 2)]))
    assert half == ((1,), 2)
    assert ring.kernel_mul(ring.to_kernel(ring.element([Fraction(1, 4)])),
                           ring.to_kernel(ring.element([2]))) == half
    assert ring.to_kernel((Fraction(2, 4),) + (Fraction(0),) * m) == half
    assert ring.to_kernel(ring.element([Fraction(1, 2), 0, 0])) == half


def _odd_primes(count: int) -> list:
    primes, n = [], 3
    while len(primes) < count:
        if all(n % p for p in primes if p * p <= n):
            primes.append(n)
        n += 2
    return primes


def test_series_values_with_a_distinct_prime_denominator_on_every_coefficient():
    # Every coefficient of every value has its own odd prime denominator, so
    # no two values share a denominator.
    ring, n, rng = TruncatedSeriesRing(4), 5, random.Random(210)
    basis, trees = CK.table(n).basis, [t for level in enumerate_trees(n) for t in level]
    primes = iter(_odd_primes((len(basis) + len(trees)) * ring.width))
    def element():
        return ring.element(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), next(primes))
                            for _ in range(ring.width))
    f = TruncatedFunctional(CK, ring, n, {b: element() for b in basis})
    assert convolve(conv_inverse(f), f) == conv_unit(CK, ring, n)
    phi = char_from_tree_values({t: element() for t in trees}, n, ring)
    assert char_mul(phi, char_inv(phi)) == char_unit(CK, ring, n)


def test_wide_sparse_series_product_walks_only_nonzero_entries():
    # 300 scattered nonzeros times 1 + X^M over series:200000.  The schoolbook
    # answer is a + a_0 X^M; walking the zeros of a factor in the inner loop
    # takes seconds.
    m, rng = 200_000, random.Random(220)
    ring = TruncatedSeriesRing(m)
    coeffs = [Fraction(0)] * (m + 1)
    for k in rng.sample(range(m + 1), 300):
        coeffs[k] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    a, b = tuple(coeffs), ring.element([1] + [0] * (m - 1) + [1])
    want = list(coeffs)
    want[m] += coeffs[0]
    start = time.perf_counter()
    got = ring.mul(a, b)
    elapsed = time.perf_counter() - start
    assert got == tuple(want)
    assert elapsed < 1.0, f"series:{m} sparse product took {elapsed:.2f}s / 1s"

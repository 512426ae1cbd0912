"""Exact scalar layer: cyclotomic values and kernels, and complex points."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclotomic_oracle as oracle
from orbconfig.arrangement import MAX_FIELD_ORDER
from orbconfig.exactfield import (
    MAX_RATIONAL_DIGITS,
    ComplexPoint,
    Cyclotomic,
    InvalidOrderError,
    OrderMismatchError,
    _reduced_point,
    _zeta_power,
    complex_sqrt_exact,
    cyclotomic_polynomial,
    euler_phi,
    format_rational,
    norm_cofactor,
    parse_rational,
    residue_product,
)


def test_cyclotomic_polynomials_match_table():
    for m, coeffs in oracle.TABLE_PHI.items():
        assert cyclotomic_polynomial(m) == coeffs


def test_the_oracle_float_product_matches_the_table():
    # the oracle takes Phi_m for an order its table lacks from this product
    for m, coeffs in oracle.TABLE_PHI.items():
        assert oracle.float_phi(m) == coeffs, m
    assert [oracle.degree(m) for m in range(1, 61)] == [euler_phi(m) for m in range(1, 61)]


def test_euler_phi_small_values():
    assert [euler_phi(m) for m in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_zeta3_cubes_to_one_against_long_division_oracle():
    # Oracle: x^3 reduced mod Phi_3 by independent long division; the
    # constructor reduces a long coefficient vector to the same element
    assert oracle.poly_mod([0, 0, 0, 1], oracle.TABLE_PHI[3]) == [Fraction(1)]
    assert Cyclotomic(3, [0, 0, 0, 1]) == Cyclotomic(3, [1]) == 1
    assert _zeta_power(3, 3) == _zeta_power(3, 0) == 1


def test_inverse_of_one_plus_zeta3_is_minus_zeta3():
    # 1 + zeta_3 = -zeta_3^2 is a unit: the oracle's inverse is -zeta_3, and
    # so is the norm cofactor, the conjugate 1 + zeta_3^2, since the norm is 1
    assert oracle.inverse((1, 1), 3) == (0, -1)
    assert norm_cofactor(3, [1, 1]) == [0, -1]
    assert residue_product(3, [1, 1], [0, -1]) == [1, 0]


def test_primitive_root_powers_distinct_for_order_6():
    powers = [_zeta_power(6, k) for k in range(6)]
    assert len(set(powers)) == 6
    assert [p.coeffs for p in powers] == [oracle.zeta(6, k).coeffs for k in range(6)]


@pytest.mark.parametrize("m", range(1, 13))
def test_root_of_unity_relations(m):
    # zeta^m = 1, and for m >= 2 the m-th roots of unity sum to 0: the
    # constructor reduces x^m and 1 + x + ... + x^(m-1) mod Phi_m
    assert Cyclotomic(m, [0] * m + [1]) == Cyclotomic(m, [1]) == 1
    assert _zeta_power(m, m) == 1
    if m >= 2:
        assert Cyclotomic(m, [1] * m) == Cyclotomic.zero(m) == 0
        assert oracle.reduce([1] * m, m) == (0,) * euler_phi(m)


small_rationals = st.fractions(
    min_value=-3, max_value=3, max_denominator=6
)


def cyclotomic_coefficients(m):
    return st.lists(small_rationals, min_size=euler_phi(m), max_size=euler_phi(m))


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=1, max_value=MAX_FIELD_ORDER), st.data())
def test_field_laws(m, data):
    # the oracle's field: its products, its extended-Euclid inverse and its
    # conjugations, which the tests rely on, obey the field laws
    a = oracle.Element(m, data.draw(cyclotomic_coefficients(m)))
    b = oracle.Element(m, data.draw(cyclotomic_coefficients(m)))
    c = oracle.Element(m, data.draw(cyclotomic_coefficients(m)))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    k = data.draw(st.sampled_from([k for k in range(1, m + 1) if math.gcd(k, m) == 1]))
    # sigma_k by substitution is the sum of the coefficients times zeta^(k i),
    # and a ring map
    powers = sum((x * oracle.zeta(m, k * i) for i, x in enumerate(a.coeffs)), oracle.Element(m))
    assert oracle.conjugate(a.coeffs, k, m) == powers.coeffs
    sigma = oracle.Element(m, oracle.conjugate(a.coeffs, k, m))
    assert sigma * oracle.Element(m, oracle.conjugate(b.coeffs, k, m)) == oracle.Element(
        m, oracle.conjugate((a * b).coeffs, k, m)
    )
    if a:
        assert a * (1 / a) == 1
        assert a / a == 1
        assert (c / a) * a == c
    else:
        with pytest.raises(ZeroDivisionError):
            oracle.inverse(a.coeffs, m)


def test_order_mismatch_raises():
    # products and embeddings across orders raise OrderMismatchError, where
    # they are compared with the oracle below
    with pytest.raises(InvalidOrderError):
        Cyclotomic.zero(0)
    with pytest.raises(InvalidOrderError):
        Cyclotomic(-3, [1])
    assert Cyclotomic(3, [0, 1]) != Cyclotomic(6, [0, 1])


def test_embedding_into_larger_field():
    # zeta_6 -> zeta_12^2, against the oracle's substitution x -> x^2
    assert Cyclotomic(6, [0, 1]).embed(12).coeffs == oracle.embed((0, 1), 6, 12) == oracle.zeta(12, 2).coeffs
    a = (Fraction(1, 2), Fraction(-2))
    assert Cyclotomic(6, a).embed(12).coeffs == oracle.embed(a, 6, 12)
    with pytest.raises(OrderMismatchError):
        Cyclotomic(5, [0, 1]).embed(12)


def test_rational_serialization_round_trip():
    for text in ["3/4", "-7/2", "5", "0"]:
        assert format_rational(parse_rational(text)) == text
    a = Cyclotomic(4, [Fraction(1, 3), Fraction(-2)])
    assert Cyclotomic.from_json(4, a.to_json()) == a


def test_parse_rational_digit_bound_names_the_field():
    widest = 10**MAX_RATIONAL_DIGITS - 1
    assert parse_rational(f"-{widest}/{widest - 1}") == Fraction(-widest, widest - 1)
    assert parse_rational("25e-2") == Fraction(1, 4)
    for text in (f"{widest + 1}", f"1/{widest + 1}", "1e4000", "1e-4000", "1e999999", "7" * 20000):
        with pytest.raises(ValueError, match=f"^center re has more than {MAX_RATIONAL_DIGITS} "):
            parse_rational(text, "center re")
    for text in ("1/0", "x", ""):
        with pytest.raises(ValueError, match="^center re: "):
            parse_rational(text, "center re")


def test_complex_point_exact_arithmetic():
    z = ComplexPoint.exact(Fraction(1, 2), Fraction(3))
    w = ComplexPoint.exact(2, -1)
    assert (z * w).re == Fraction(1, 2) * 2 - 3 * (-1)
    assert (z / w) * w == z
    assert z ** 3 == z * z * z
    assert (z - z) == ComplexPoint.exact(0)
    with pytest.raises(ZeroDivisionError):
        z / ComplexPoint.exact(0)


def test_complex_point_no_false_merges_at_2eps():
    # Points 3e-9 apart, more than 2*eps for the default eps = 1e-9, stay
    # distinct: equality and hashing are exact, with no tolerance to merge them.
    eps = Fraction(1, 10 ** 9)
    pairs = [
        (ComplexPoint.exact(0), ComplexPoint.exact(Fraction(3, 10 ** 9))),
        (ComplexPoint.exact(1, 1), ComplexPoint.exact(1, Fraction(10 ** 9 + 3, 10 ** 9))),
    ]
    for a, b in pairs:
        assert (a - b).norm2() == Fraction(9, 10 ** 18) > (2 * eps) ** 2
        assert a != b
        assert len({a, b}) == 2
        assert a == ComplexPoint.exact(a.re, a.im)


def test_complex_point_refuses_floats_and_round_trips_json():
    a = ComplexPoint.exact(1, 2)
    for operand in (1.0, 1j, complex(1, 2)):
        for op in (lambda x, y: x + y, lambda x, y: y - x, lambda x, y: x * y, lambda x, y: x / y):
            with pytest.raises(TypeError):
                op(a, operand)
    assert a != complex(1, 2)
    assert ComplexPoint.exact(1) != 1.0
    assert a * 2 == a + a and a / 2 == a * Fraction(1, 2)
    assert ComplexPoint.from_json(a.to_json()) == a
    assert a.to_json() == {"re": "1", "im": "2", "mode": "exact"}
    assert ComplexPoint.from_json({"re": "1", "im": "2"}) == a
    assert ComplexPoint.from_json("3/4") == ComplexPoint.exact(Fraction(3, 4))
    for mode in ("approx", "bogus", None):
        with pytest.raises(ValueError):
            ComplexPoint.from_json({"re": 1.0, "im": 2.0, "mode": mode})


def test_complex_point_copies_and_pickles():
    a = ComplexPoint.exact(Fraction(-3, 4), Fraction(5, 6))
    for copied in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(copied) is ComplexPoint
        assert copied == a and hash(copied) == hash(a)
        assert (copied._a, copied._b, copied._d) == (-9, 10, 12)
        with pytest.raises(AttributeError):
            copied._a = 0


def test_complex_sqrt_exact():
    root = complex_sqrt_exact(ComplexPoint.exact(3, 4))
    assert root == ComplexPoint.exact(2, 1)
    assert root * root == ComplexPoint.exact(3, 4)
    assert complex_sqrt_exact(ComplexPoint.exact(-9)) == ComplexPoint.exact(0, 3)
    assert complex_sqrt_exact(ComplexPoint.exact(2)) is None
    assert complex_sqrt_exact(ComplexPoint.exact(1, 1)) is None
    w = ComplexPoint.exact(Fraction(2, 3), Fraction(-5, 7))
    sq = w * w
    root = complex_sqrt_exact(sq)
    assert root is not None and root * root == sq


def _fraction_sqrt(value: Fraction):
    # the rational square root the Fraction-based reference below was written on
    if value < 0:
        return None
    rn, rd = math.isqrt(value.numerator), math.isqrt(value.denominator)
    if rn * rn != value.numerator or rd * rd != value.denominator:
        return None
    return Fraction(rn, rd)


def _fraction_complex_sqrt(z: ComplexPoint):
    # complex_sqrt_exact as it was computed on Fractions: z = (x + yi)^2
    # forces x^2 = (Re z + |z|) / 2 with |z| rational
    a, b = z.re, z.im
    if b == 0:
        if a >= 0:
            x = _fraction_sqrt(a)
            return ComplexPoint.exact(x) if x is not None else None
        y = _fraction_sqrt(-a)
        return ComplexPoint.exact(0, y) if y is not None else None
    s = _fraction_sqrt(a * a + b * b)
    if s is None:
        return None
    x = _fraction_sqrt((a + s) / 2)
    if x is None or x == 0:
        return None
    return ComplexPoint.exact(x, b / (2 * x))


def test_complex_sqrt_exact_matches_the_fraction_reference():
    rng = random.Random(2025)
    bound = 10**6

    def entry(square_denominator: bool) -> Fraction:
        den = rng.randint(1, 1000) ** 2 if square_denominator else rng.randint(1, bound)
        return Fraction(rng.randint(-bound, bound), den)

    # every small Gaussian rational, such as 4 + 3i and 24 + 7i, whose norms
    # are squares while they are not
    cases = [
        ComplexPoint.exact(Fraction(a, d), Fraction(b, d))
        for a in range(-25, 26)
        for b in range(-25, 26)
        for d in (1, 2, 4, 5, 9)
    ]
    for _ in range(1500):
        square_den = rng.random() < 0.5
        w = ComplexPoint.exact(entry(square_den), entry(square_den))
        cases.append(w * w)  # a square
        # rational |z| but no root: i and 2 are not squares in Q(i)
        cases.append(w * w * ComplexPoint.exact(0, 1))
        cases.append(w * w * 2)
        cases.append(w)  # almost never a square
        cases.append(ComplexPoint.exact(-abs(entry(square_den))))  # a negative real
        cases.append(ComplexPoint.exact(0, entry(square_den)))  # a pure imaginary
        k = rng.randint(1, 1000)
        cases.append(ComplexPoint.exact(Fraction(-(k * k), rng.randint(1, 1000) ** 2)))
        t = Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))
        cases.append(ComplexPoint.exact(0, 2 * t * t))  # (t + ti)^2
    found = {"square": 0, "none": 0}
    for z in cases:
        root = complex_sqrt_exact(z)
        assert root == _fraction_complex_sqrt(z), z
        if root is None:
            found["none"] += 1
            continue
        found["square"] += 1
        assert root * root == z
        assert root.re > 0 or (root.re == 0 and root.im >= 0), z
    # both outcomes are well represented
    assert min(found.values()) > 4000, found


@settings(max_examples=60, deadline=None)
@given(small_rationals, small_rationals)
def test_gaussian_rational_cyclotomic_embedding(re, im):
    # the oracle's Q(i) -> Q(zeta_L) is a ring map, so ComplexPoint's
    # square lands on the oracle's square of the image
    z = ComplexPoint.exact(re, im)
    for order in (4, 12):
        image = oracle.gaussian(re, im, order)
        square = z * z
        assert oracle.mul(image, image, order) == oracle.gaussian(square.re, square.im, order)


# ---------------------------------------------------------------------------
# Exact points against Gaussian rationals kept as Fraction pairs
# ---------------------------------------------------------------------------

gaussian_rationals = st.tuples(
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
)


def _g_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _g_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _g_inverse(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def _g_pow(x, k):
    base = _g_inverse(x) if k < 0 else x
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        out = _g_mul(out, base)
    return out


def _same_point(z, expected):
    """z has the oracle's value, Fraction parts, and the canonical form:
    it equals and hashes like the point built directly from the value."""
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == expected
    direct = ComplexPoint.exact(*expected)
    assert z == direct and hash(z) == hash(direct)


@settings(max_examples=200, deadline=None)
@given(gaussian_rationals, gaussian_rationals, st.integers(min_value=-4, max_value=6))
def test_exact_points_match_the_fraction_pair_oracle(x, y, k):
    z, w = ComplexPoint.exact(*x), ComplexPoint.exact(*y)
    zero = (Fraction(0), Fraction(0))
    _same_point(z, x)
    _same_point(z + w, _g_add(x, y))
    _same_point(z - w, _g_add(x, (-y[0], -y[1])))
    _same_point(z * w, _g_mul(x, y))
    _same_point(-z, (-x[0], -x[1]))
    _same_point(z.conjugate(), (x[0], -x[1]))
    _same_point(z + 3, _g_add(x, (Fraction(3), Fraction(0))))
    _same_point(w * Fraction(1, 3), _g_mul(y, (Fraction(1, 3), Fraction(0))))
    norm = z.norm2()
    assert type(norm) is Fraction and norm == x[0] ** 2 + x[1] ** 2
    assert bool(z) == (x != zero)
    assert (z == w) == (x == y) and (z != w) == (x != y)
    if x == y:
        assert hash(z) == hash(w)
    for point, value in ((z, x), (z * w, _g_mul(x, y))):
        back = ComplexPoint.from_json(point.to_json())
        _same_point(back, value)
    if x == zero:
        for op in (z.inverse, lambda: w / z, lambda: z ** -1):
            with pytest.raises(ZeroDivisionError):
                op()
        if k >= 0:
            _same_point(z ** k, _g_pow(x, k))
        return
    _same_point(z.inverse(), _g_inverse(x))
    _same_point(w / z, _g_mul(y, _g_inverse(x)))
    _same_point(z ** k, _g_pow(x, k))
    # the same value reached by different routes has one form
    _same_point((w * z) / z, y)
    _same_point((w + z) - z, y)


def test_exact_points_are_canonical():
    half = ComplexPoint.exact(Fraction(1, 2))
    for same in (
        ComplexPoint.exact(Fraction(2, 4), 0),
        ComplexPoint.exact("2/4"),
        ComplexPoint.exact(0.5),
        ComplexPoint(Fraction(3, 6), "0"),
        ComplexPoint.exact(Fraction(1, 4)) * 2,
    ):
        assert same == half and hash(same) == hash(half)
    square = ComplexPoint.exact(1, 1) ** 2
    assert square == ComplexPoint.exact(0, 2)
    assert hash(square) == hash(ComplexPoint.exact(0, 2))
    assert len({square, ComplexPoint.exact(0, 2), ComplexPoint.exact(0, Fraction(4, 2))}) == 1
    quarter = ComplexPoint.exact(Fraction(1, 2), Fraction(1, 2)) ** 2
    assert quarter == ComplexPoint.exact(0, Fraction(1, 2))
    assert type(quarter.re) is Fraction and quarter.im == Fraction(1, 2)


# ---------------------------------------------------------------------------
# Cyclotomic values and residue kernels against Fraction polynomials
# reduced mod Phi_m (tests/cyclotomic_oracle.py)
# ---------------------------------------------------------------------------

ORACLE_ORDERS = (3, 4, 5, 8, 12, 13, 16)

# numerators up to 10^6 over denominators of unequal size
oracle_rationals = st.builds(
    Fraction,
    st.integers(min_value=-(10**6), max_value=10**6),
    st.sampled_from([1, 2, 3, 4, 6, 9, 35, 1024, 10**6 + 3]),
)


def _same_element(x, expected, m):
    """x has the oracle's coefficients and the canonical form: it equals
    and hashes like the element built directly from those coefficients."""
    assert x.order == m
    assert x.coeffs == expected and all(type(c) is Fraction for c in x.coeffs)
    direct = Cyclotomic(m, expected)
    assert x == direct and hash(x) == hash(direct) and x.coeffs == direct.coeffs


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ORACLE_ORDERS), st.data())
def test_cyclotomic_matches_the_fraction_polynomial_oracle(m, data):
    phi = oracle.degree(m)
    # a long coefficient vector exercises the constructor's reduction
    raw = [data.draw(st.lists(oracle_rationals, min_size=1, max_size=2 * phi + 1)) for _ in range(2)]
    x, y = (oracle.reduce(r, m) for r in raw)
    a, b = (Cyclotomic(m, r) for r in raw)
    _same_element(a, x, m)
    _same_element(b, y, m)
    assert bool(a) == any(x) and (a == b) == (x == y)
    assert a.as_rational() == (x[0] if not any(x[1:]) else None)
    _same_element(Cyclotomic.from_json(m, a.to_json()), x, m)
    # the two products the benchmark times
    _same_element(a * b, oracle.mul(x, y, m), m)
    _same_element(a * Fraction(3, 7), tuple(p * Fraction(3, 7) for p in x), m)
    with pytest.raises(OrderMismatchError):
        a * Cyclotomic(2 * m, [1])
    for target in sorted({math.lcm(m, 4), 2 * m}):
        _same_element(a.embed(target), oracle.embed(x, m, target), target)


# residues with many zeros and a few large entries
kernel_residues = st.one_of(
    st.just(0), st.integers(min_value=-3, max_value=3), st.integers(min_value=-(10**9), max_value=10**9)
)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=3, max_value=MAX_FIELD_ORDER), st.data())
def test_residue_kernels_match_the_oracle(m, data):
    # the integer kernels of the F_p certificate and the exact walk: a
    # product reduced mod Phi_m, and the norm cofactor, whose product with
    # a is the norm N(a), a positive rational integer for a != 0
    phi = oracle.degree(m)
    residues = st.lists(kernel_residues, min_size=phi, max_size=phi)
    a, b = data.draw(residues), data.draw(residues)
    product = residue_product(m, a, b)
    assert all(type(c) is int for c in product)
    assert tuple(product) == oracle.mul(a, b, m)
    cofactor = norm_cofactor(m, a)
    assert all(type(c) is int for c in cofactor)
    expected = oracle.reduce([1], m)
    for k in range(2, m):
        if math.gcd(k, m) == 1:
            expected = oracle.mul(expected, oracle.conjugate(a, k, m), m)
    assert tuple(cofactor) == expected
    norm = oracle.mul(a, cofactor, m)
    assert norm == oracle.norm(a, m)
    if any(a):
        assert not any(norm[1:]) and norm[0] > 0 and norm[0].denominator == 1
    else:
        assert not any(norm)


def test_to_complex_divides_the_triple_as_fraction_float_does():
    # int true division is correctly rounded, as Fraction.__float__ is, so
    # the floats are bit-identical whether or not a / d is in lowest terms
    rng = random.Random(27)
    for t in range(20_000):
        size = 10 ** rng.randint(1, 60)
        d = rng.randint(1, size)
        z = _reduced_point(rng.randint(-size, size), rng.randint(-size, size), d if t % 3 else 1)
        got = z.to_complex()
        expected = complex(z.re, z.im)  # the Fraction form
        assert (got.real.hex(), got.imag.hex()) == (expected.real.hex(), expected.imag.hex()), z
    for big in (_reduced_point(10**400, 1, 1), _reduced_point(3, -(10**400), 7)):
        with pytest.raises(OverflowError):
            big.to_complex()
        with pytest.raises(OverflowError):
            complex(big.re, big.im)
    # and past the float range downwards, both give zero
    tiny = _reduced_point(1, -1, 10**400)
    assert tiny.to_complex() == complex(tiny.re, tiny.im) == 0

"""Exact scalar arithmetic: rationals, cyclotomic field elements, complex points.

Every decision that feeds a rank computation, a set membership test, or a
fiber count is made in exact arithmetic.  Rationals are ``fractions.Fraction``
(arbitrary precision, always reduced, positive denominator).  An element of
Q(zeta_m) is a dense vector of integer numerators over one positive
denominator, gcd-canonical, in the power basis 1, zeta, ..., zeta^(phi(m)-1)
modulo the m-th cyclotomic polynomial; Phi_m is monic, so products reduce
by an integer table of x^k mod Phi_m (residue_product), and a residue times
the product of its other Galois conjugates is its norm, a rational integer
(norm_cofactor).  A complex point is a Gaussian rational stored the same
way, (a + b*i) / d with gcd(a, b, d) = 1.  So each value has one canonical
form and its arithmetic runs on ints.  There is no approximate point: the
one float map of the package (the exponential cover in ``covering``) works
on builtin ``complex`` values with an explicit tolerance.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import AbstractSet, Iterable, Optional, Sequence, Union

RationalLike = Union[int, Fraction]

class InvalidOrderError(ValueError):
    """Cyclotomic order must be a positive integer."""


class OrderMismatchError(ValueError):
    """Arithmetic attempted between elements of different cyclotomic fields."""


#: Most decimal digits the numerator or the denominator of a rational read
#: from JSON may have.  Reports print points a digit or two longer than
#: their inputs (an obstruction witness s + k/2 doubles the center's
#: denominator), and CPython refuses to print an int of more than 4300
#: digits, so the bound keeps room below that limit.
MAX_RATIONAL_DIGITS = 4000
_DIGIT_BOUND = 10**MAX_RATIONAL_DIGITS
# Longer text cannot be an admitted rational short of padding; an exponent
# of more than five digits would make Fraction build a huge power of ten.
_MAX_RATIONAL_TEXT = 4 * MAX_RATIONAL_DIGITS
_EXPONENT = re.compile(r"e[-+]?([0-9_]+)$", re.IGNORECASE)


def parse_rational(text: str, field: str = "rational") -> Fraction:
    """Parse a "p/q", "p" or decimal string into an exact rational.

    Raises ValueError naming ``field`` when the text is not a rational, has
    a zero denominator, or has a numerator or denominator of more than
    MAX_RATIONAL_DIGITS digits.
    """
    text = str(text).strip()
    too_long = f"{field} has more than {MAX_RATIONAL_DIGITS} digits"
    exponent = _EXPONENT.search(text)
    if len(text) > _MAX_RATIONAL_TEXT or (exponent and len(exponent[1]) > 5):
        raise ValueError(too_long)
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{field}: {exc}") from None
    if abs(value.numerator) >= _DIGIT_BOUND or value.denominator >= _DIGIT_BOUND:
        raise ValueError(too_long)
    return value


def json_int(value, name: str) -> int:
    """A JSON integer field; bools, floats, strings and nulls raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def json_shape(value, shape: type, what: str, keys: Optional[AbstractSet[str]] = None):
    """value, when it is the JSON object (shape dict), list (shape list) or
    string (shape str); ValueError otherwise, or when an object has a key
    outside keys."""
    if not isinstance(value, shape):
        noun = {dict: "an object", list: "a list", str: "a string"}[shape]
        raise ValueError(f"{what} must be {noun}, got {value!r}")
    if keys is not None:
        unknown = sorted(set(value) - keys)
        if unknown:
            raise ValueError(f"unknown {what} key {unknown[0]!r}")
    return value


def json_kind(data, what: str, keys: dict, field: str = "kind", error: type = ValueError) -> str:
    """data[field] for a JSON object whose kinds are the keys of keys, once
    data uses no key outside keys[data[field]].  An unknown kind raises
    error; a wrong shape or an unknown key raises ValueError."""
    kind = json_shape(data, dict, what).get(field)
    if not isinstance(kind, str) or kind not in keys:
        raise error(f"unknown {what} {field} {kind!r}")
    json_shape(data, dict, f"{kind} {what}", keys[kind])
    return kind


def format_rational(q: RationalLike) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    if m < 1:
        raise InvalidOrderError(f"order must be >= 1, got {m}")
    result = m
    n, p = m, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


# ---------------------------------------------------------------------------
# Integer polynomial helpers (ascending coefficient lists).  Phi_m is monic
# with integer coefficients, so reduction modulo Phi_m stays in the integers.
# ---------------------------------------------------------------------------


def _int_poly_div(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials, den monic; remainder must vanish.
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(out) - 1, -1, -1):
        c = num[shift + len(den) - 1]
        out[shift] = c
        if c:
            for i, d in enumerate(den):
                num[shift + i] -= c * d
    assert all(c == 0 for c in num), "non-exact polynomial division"
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients (ascending) of the m-th cyclotomic polynomial."""
    if m < 1:
        raise InvalidOrderError(f"order must be >= 1, got {m}")
    if m == 1:
        return (-1, 1)
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num = _int_poly_div(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


def _times_x(vec: list[int], modulus: tuple[int, ...]) -> list[int]:
    """x * vec modulo the monic modulus, for vec of length deg(modulus)."""
    top = vec[-1]
    out = [0] + vec[:-1]
    if top:
        for i, t in enumerate(modulus[:-1]):
            if t:
                out[i] -= top * t
    return out


@lru_cache(maxsize=None)
def _reduction_table(order: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """x^k mod Phi_order for phi <= k < 2 phi - 1, as sparse rows of
    (index, coefficient): the degrees a product of two residues reaches."""
    modulus = cyclotomic_polynomial(order)
    phi = len(modulus) - 1
    rows = []
    power = [0] * (phi - 1) + [1]  # x^(phi - 1)
    for _ in range(phi - 1):
        power = _times_x(power, modulus)
        rows.append(tuple((r, c) for r, c in enumerate(power) if c))
    return tuple(rows)


def residue_product(order: int, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The integer residue of a * b mod Phi_order, for integer residues a
    and b of length phi(order): an integer convolution, then
    x^k -> (x^k mod Phi_order) for k >= phi."""
    phi = len(a)
    out = [0] * (2 * phi - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    out[j] += x * y
    for row, c in zip(_reduction_table(order), out[phi:]):
        if c:
            for r, t in row:
                out[r] += c * t
    del out[phi:]
    return out


@lru_cache(maxsize=None)
def _conjugate_images(order: int) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
    """For each k in 2..m-1 coprime to m = order, the images of zeta^i (i <
    phi) under sigma_k: zeta -> zeta^k, as sparse integer rows."""
    return tuple(
        tuple(
            tuple((r, c) for r, c in enumerate(_zeta_power(order, k * i)._n) if c)
            for i in range(euler_phi(order))
        )
        for k in range(2, order)
        if math.gcd(k, order) == 1
    )


def norm_cofactor(order: int, a: Sequence[int]) -> list[int]:
    """The product of sigma_k(a) over k in 2..m-1 coprime to m = order.

    a times it is the norm N(a), the product of all conjugates of a: an
    integer, positive for a != 0 and m >= 3 (Cohen, A Course in
    Computational Algebraic Number Theory, 4.3).
    """
    phi = len(a)
    cofactor = [1] + [0] * (phi - 1)
    for images in _conjugate_images(order):
        conjugate = [0] * phi
        for x, image in zip(a, images):
            if x:
                for r, t in image:
                    conjugate[r] += x * t
        cofactor = residue_product(order, cofactor, conjugate)
    return cofactor


class Cyclotomic:
    """An element of Q(zeta_m) in the power basis modulo Phi_m.

    The element is stored as integer numerators (n_0, ..., n_(phi(m)-1))
    over one denominator d > 0 with gcd(n_0, ..., d) = 1, so each value has
    one canonical form.  ``coeffs`` reads the coefficients back as
    Fractions, and ``==`` also takes ints and Fractions.  It is a value
    type: decisions do their field arithmetic on bare residues, through
    residue_product and norm_cofactor.
    """

    # order m and integer numerators _n over the denominator _d > 0
    __slots__ = ("order", "_n", "_d")

    def __init__(self, order: int, coeffs: Iterable[RationalLike]):
        if order < 1:
            raise InvalidOrderError(f"order must be >= 1, got {order}")
        phi = euler_phi(order)
        parts = [_parts(c) for c in coeffs]
        d = math.lcm(*(q for _, q in parts))
        nums = [p * (d // q) for p, q in parts]
        if len(nums) > phi:
            # Horner's rule in x, reducing modulo Phi_m at every step
            modulus, reduced = cyclotomic_polynomial(order), [0] * phi
            for c in reversed(nums):
                reduced = _times_x(reduced, modulus)
                reduced[0] += c
            nums = reduced
        nums += [0] * (phi - len(nums))
        _set_cyclotomic(self, order, nums, d)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("Cyclotomic elements are immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self._d) for n in self._n)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Cyclotomic":
        return cls(order, [])

    @classmethod
    def from_rational(cls, order: int, value: RationalLike) -> "Cyclotomic":
        return cls(order, [value])

    # -- structure ----------------------------------------------------------

    def __bool__(self) -> bool:
        return any(self._n)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(self.order, other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        # (numerators, denominator) is canonical
        return self.order == other.order and self._d == other._d and self._n == other._n

    def __hash__(self) -> int:
        return hash((self.order, self._n, self._d))

    def __repr__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(format_rational(c))
            else:
                base = f"z{k}" if k > 1 else "z"
                terms.append(base if c == 1 else f"{format_rational(c)}*{base}")
        body = " + ".join(terms) if terms else "0"
        return f"Cyclotomic({self.order}, {body})"

    def as_rational(self) -> Optional[Fraction]:
        """The element as a Fraction when it lies in Q, else None."""
        if any(self._n[1:]):
            return None
        return Fraction(self._n[0], self._d)

    # -- products ------------------------------------------------------------
    # * and embed are kept for the benchmark's scalar kernel rates.

    def __mul__(self, other):
        if type(other) is not Cyclotomic:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            # a rational scalar scales the numerators and the denominator
            p, q = _parts(other)
            return _reduced_cyclotomic(self.order, [x * p for x in self._n], self._d * q)
        if other.order != self.order:
            raise OrderMismatchError(f"cannot mix Q(zeta_{self.order}) with Q(zeta_{other.order})")
        nums = residue_product(self.order, self._n, other._n)
        return _reduced_cyclotomic(self.order, nums, self._d * other._d)

    __rmul__ = __mul__

    def embed(self, target_order: int) -> "Cyclotomic":
        """Image under Q(zeta_m) -> Q(zeta_L), zeta_m -> zeta_L^(L/m), m | L."""
        if target_order % self.order != 0:
            raise OrderMismatchError(
                f"{self.order} does not divide target order {target_order}"
            )
        out = [0] * euler_phi(target_order)
        for x, image in zip(self._n, _embedding_images(self.order, target_order)):
            if x:
                for r, t in image:
                    out[r] += x * t
        return _reduced_cyclotomic(target_order, out, self._d)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"coeffs": [format_rational(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, order: int, data: dict, field: str = "element") -> "Cyclotomic":
        coeffs = json_shape(json_shape(data, dict, field, {"coeffs"})["coeffs"], list, f"{field} coeffs")
        return cls(order, [parse_rational(c, f"{field} coeffs[{k}]") for k, c in enumerate(coeffs)])


_new_cyclotomic = object.__new__
_set_order = Cyclotomic.order.__set__
_set_numerators = Cyclotomic._n.__set__
_set_denominator = Cyclotomic._d.__set__


def _set_cyclotomic(z: Cyclotomic, order: int, nums: list[int], d: int) -> None:
    """Store nums / d (d > 0) on z, reduced by the gcd of all entries."""
    g = math.gcd(d, *nums)
    if g != 1:
        nums, d = [x // g for x in nums], d // g
    _set_order(z, order)
    _set_numerators(z, tuple(nums))
    _set_denominator(z, d)


def _reduced_cyclotomic(order: int, nums: list[int], d: int) -> Cyclotomic:
    """The element nums / d for d > 0 and len(nums) == phi(order)."""
    z = _new_cyclotomic(Cyclotomic)
    _set_cyclotomic(z, order, nums, d)
    return z


@lru_cache(maxsize=None)
def _zeta_power(order: int, exponent: int) -> Cyclotomic:
    """zeta_order^exponent, derived once per (order, exponent) and shared."""
    return Cyclotomic(order, [0] * (exponent % order) + [1])


@lru_cache(maxsize=None)
def _embedding_images(order: int, target_order: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """zeta_L^((L/m) k) for k < phi(m), L = target_order, as sparse integer rows."""
    step = target_order // order
    return tuple(
        tuple((r, c) for r, c in enumerate(_zeta_power(target_order, step * k)._n) if c)
        for k in range(euler_phi(order))
    )


@lru_cache(maxsize=None)
def _gaussian_images(order: int, target_order: int) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
    """For k < phi(m), the residues of zeta_L^(sk) and of
    i zeta_L^(sk) = zeta_L^(sk + L/4), s = L/m, L = target_order (4 | L),
    as pairs of sparse integer rows: the two real columns of zeta_m^k in
    Q(zeta_L)."""
    step, quarter = target_order // order, target_order // 4
    return tuple(
        tuple(
            tuple((r, c) for r, c in enumerate(_zeta_power(target_order, e % target_order)._n) if c)
            for e in (step * k, step * k + quarter)
        )
        for k in range(euler_phi(order))
    )


def _parts(value) -> tuple[int, int]:
    """(numerator, denominator) of anything Fraction() accepts; ints and
    Fractions are read without building a new Fraction."""
    if type(value) is int:
        return value, 1
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator, value.denominator


class ComplexPoint:
    """An exact point of C: a Gaussian rational.

    A point is stored as integers (a + b*i) / d with d > 0 and
    gcd(a, b, d) = 1.  That triple is canonical, so equality and hashing
    compare triples, and arithmetic runs on ints with one gcd reduction per
    result; ``re`` and ``im`` read back as Fractions.  Arithmetic and
    equality accept ints and Fractions besides points and refuse floats and
    complex numbers, so an approximate value never reaches an exact decision.
    """

    # integer numerators _a, _b over the denominator _d > 0
    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RationalLike, im: RationalLike = 0):
        (p, q), (s, t) = _parts(re), _parts(im)
        d = math.lcm(q, t)
        # over the lcm of two reduced denominators, gcd(a, b, d) is 1
        _set_point(self, p * (d // q), s * (d // t), d)

    def __setattr__(self, name, value):
        raise AttributeError("ComplexPoint is immutable")

    def __reduce__(self):
        # copies and pickles rebuild the point from its canonical triple,
        # since the slots refuse setattr
        return _exact_point, (self._a, self._b, self._d)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- constructors --------------------------------------------------------

    @classmethod
    def exact(cls, re: RationalLike, im: RationalLike = 0) -> "ComplexPoint":
        return cls(re, im)

    def to_complex(self) -> complex:
        # int true division rounds correctly, as Fraction.__float__ does
        return complex(self._a / self._d, self._b / self._d)

    # -- arithmetic ----------------------------------------------------------
    # Each operator takes another point, an int or a Fraction; anything else
    # is NotImplemented.

    def __add__(self, other):
        if type(other) is not ComplexPoint:
            other = _operand(other)
            if other is None:
                return NotImplemented
        return _point_sum(self, other._a, other._b, other._d)

    __radd__ = __add__

    def __neg__(self):
        return _exact_point(-self._a, -self._b, self._d)

    def __sub__(self, other):
        if type(other) is not ComplexPoint:
            other = _operand(other)
            if other is None:
                return NotImplemented
        return _point_sum(self, -other._a, -other._b, other._d)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if type(other) is ComplexPoint:
            a, b, c, e = self._a, self._b, other._a, other._b
            return _reduced_point(a * c - b * e, a * e + b * c, self._d * other._d)
        if isinstance(other, (int, Fraction)):
            # a rational scalar scales the numerators and the denominator
            p, q = _parts(other)
            return _reduced_point(self._a * p, self._b * p, self._d * q)
        return NotImplemented

    __rmul__ = __mul__

    def conjugate(self) -> "ComplexPoint":
        return _exact_point(self._a, -self._b, self._d)

    def norm2(self) -> Fraction:
        """|z|^2."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def inverse(self) -> "ComplexPoint":
        # d / (a + bi) = d (a - bi) / (a^2 + b^2)
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("inverse of zero complex point")
        return _reduced_point(a * d, -b * d, n)

    def __truediv__(self, other):
        if type(other) is not ComplexPoint:
            other = _operand(other)
            if other is None:
                return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        # square-and-multiply on the Gaussian integer a + bi; the
        # denominator is d^exponent, reduced once at the end
        re, im, x, y, e = 1, 0, self._a, self._b, exponent
        while e:
            if e & 1:
                re, im = re * x - im * y, re * y + im * x
            e >>= 1
            if e:
                x, y = x * x - y * y, 2 * x * y
        return _reduced_point(re, im, self._d**exponent)

    # -- comparison ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._a) or bool(self._b)

    def __eq__(self, other) -> bool:
        if type(other) is not ComplexPoint:
            other = _operand(other)
            if other is None:
                return NotImplemented
        # triples are canonical
        return self._d == other._d and self._a == other._a and self._b == other._b

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def __repr__(self) -> str:
        return f"ComplexPoint({format_rational(self.re)}, {format_rational(self.im)})"

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"re": format_rational(self.re), "im": format_rational(self.im), "mode": "exact"}

    @classmethod
    def from_json(cls, data, field: str = "point") -> "ComplexPoint":
        """A point from "p/q" text or {"re", "im"[, "mode": "exact"]}; any
        other key or mode, or a part parse_rational refuses, raises
        ValueError."""
        if isinstance(data, dict):
            mode = data.get("mode", "exact")
            if mode != "exact":
                raise ValueError(f"points must be exact, got mode {mode!r}")
            json_shape(data, dict, field, {"re", "im", "mode"})
            return cls.exact(
                parse_rational(data["re"], f"{field} re"),
                parse_rational(data.get("im", 0), f"{field} im"),
            )
        return cls.exact(parse_rational(data, field))


_new_point = object.__new__
_set_a = ComplexPoint._a.__set__
_set_b = ComplexPoint._b.__set__
_set_d = ComplexPoint._d.__set__


def _set_point(z: ComplexPoint, a: int, b: int, d: int) -> None:
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)


def _operand(value) -> Optional[ComplexPoint]:
    """An int or Fraction as a point; None for anything else."""
    if isinstance(value, (int, Fraction)):
        return ComplexPoint.exact(value)
    return None


def _exact_point(a: int, b: int, d: int) -> ComplexPoint:
    """The point (a + bi) / d from a triple that is already canonical."""
    z = _new_point(ComplexPoint)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _point_sum(z: ComplexPoint, c: int, e: int, f: int) -> ComplexPoint:
    """z + (c + e*i) / f over the lcm of the two denominators (Henrici's
    method, as Fraction adds), so no product of full denominators is
    reduced by a gcd."""
    a, b, d = z._a, z._b, z._d
    g = math.gcd(d, f)
    if g == 1:
        # a prime of d or f dividing both cross sums would divide every
        # entry of z's or the other triple, so this triple is canonical
        return _exact_point(a * f + c * d, b * f + e * d, d * f)
    s, t = d // g, f // g
    x, y = a * t + c * s, b * t + e * s
    # a common factor of x, y and the lcm s * f divides g alone
    h = math.gcd(x, y, g)
    if h == 1:
        return _exact_point(x, y, s * f)
    return _exact_point(x // h, y // h, s * (f // h))


def _reduced_point(a: int, b: int, d: int) -> ComplexPoint:
    """The point (a + bi) / d for d > 0, reduced by gcd(a, b, d)."""
    g = math.gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _exact_point(a, b, d)


def complex_sqrt_exact(z: ComplexPoint) -> Optional[ComplexPoint]:
    """An exact square root of an exact point when one exists in Q(i).

    z = (a + bi)/d has the root r/d exactly when the Gaussian integer
    (a + bi)*d = A + Bi has the root r in Z[i], since Z[i] is integrally
    closed.  r = x + yi forces s = x^2 + y^2 = |A + Bi|, x^2 = (A + s)/2 and
    y^2 = (s - A)/2, so three integer square roots decide it.  Returns the
    root with x > 0, or x == 0 and y >= 0.
    """
    d = z._d
    root = _gaussian_sqrt(z._a * d, z._b * d)
    return None if root is None else _reduced_point(*root, d)


def _gaussian_sqrt(big_a: int, big_b: int) -> Optional[tuple[int, int]]:
    """(x, y) with (x + yi)^2 = A + Bi, x > 0 or x == 0 and y >= 0, when the
    Gaussian integer A + Bi is a square in Z[i]; None otherwise."""
    s = math.isqrt(big_a * big_a + big_b * big_b)
    if s * s != big_a * big_a + big_b * big_b or (s + big_a) & 1:
        return None
    x2, y2 = (s + big_a) >> 1, (s - big_a) >> 1
    x, y = math.isqrt(x2), math.isqrt(y2)
    if x * x != x2 or y * y != y2:
        return None
    # (x + yi)^2 = A + 2xy i with (2xy)^2 = s^2 - A^2 = B^2: y takes B's sign
    return x, -y if big_b < 0 else y

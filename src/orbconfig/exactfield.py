"""Exact scalar arithmetic: rationals, cyclotomic field elements, complex points.

Every decision that feeds a rank computation, a set membership test, or a
fiber count is made in exact arithmetic.  Rationals are ``fractions.Fraction``
(arbitrary precision, always reduced, positive denominator).  An element of
Q(zeta_m) is a dense coefficient vector in the power basis
1, zeta, ..., zeta^(phi(m)-1), reduced modulo the m-th cyclotomic polynomial.
A complex point is a Gaussian rational stored as integer numerators over
one positive denominator, (a + b*i) / d with gcd(a, b, d) = 1, so each value
has one canonical form and its arithmetic runs on ints.  There is no
approximate point: the one float map of the package (the exponential cover
in ``covering``) works on builtin ``complex`` values with an explicit
tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Union

Rational = Fraction
RationalLike = Union[int, Fraction]

class InvalidOrderError(ValueError):
    """Cyclotomic order must be a positive integer."""


class OrderMismatchError(ValueError):
    """Arithmetic attempted between elements of different cyclotomic fields."""


def parse_rational(text: str) -> Fraction:
    """Parse a "p/q" or "p" decimal string into an exact rational."""
    return Fraction(str(text).strip())


def json_int(value, name: str) -> int:
    """A JSON integer field; bools, floats, strings and nulls raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def format_rational(q: RationalLike) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


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
# Integer polynomial helpers (ascending coefficient lists) used only to build
# cyclotomic polynomials; Fraction polynomial helpers used for field division.
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


def _trim(coeffs: list[Fraction]) -> list[Fraction]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _trim(out)


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _trim(out)


def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    for shift in range(len(q) - 1, -1, -1):
        c = a[shift + len(b) - 1] * inv_lead
        q[shift] = c
        if c:
            for i, d in enumerate(b):
                a[shift + i] -= c * d
    return _trim(q), _trim(a)


class Cyclotomic:
    """An element of Q(zeta_m) in the power basis modulo Phi_m.

    Coefficient vectors always have length phi(m).  Arithmetic between
    elements of different orders raises OrderMismatchError; ints and
    Fractions coerce into the constant coefficient.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[RationalLike]):
        if order < 1:
            raise InvalidOrderError(f"order must be >= 1, got {order}")
        phi = euler_phi(order)
        vec = [Fraction(c) for c in coeffs]
        if len(vec) > phi:
            vec = self._reduce(order, vec)
        vec += [Fraction(0)] * (phi - len(vec))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(vec))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("Cyclotomic elements are immutable")

    @staticmethod
    def _reduce(order: int, vec: list[Fraction]) -> list[Fraction]:
        phi_poly = [Fraction(c) for c in cyclotomic_polynomial(order)]
        _, rem = _poly_divmod(_trim(list(vec)), phi_poly)
        return rem

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Cyclotomic":
        return cls(order, [])

    @classmethod
    def one(cls, order: int) -> "Cyclotomic":
        return cls(order, [1])

    @classmethod
    def from_rational(cls, order: int, value: RationalLike) -> "Cyclotomic":
        return cls(order, [Fraction(value)])

    @classmethod
    def zeta(cls, order: int) -> "Cyclotomic":
        """The primitive m-th root of unity generating the field."""
        return cls(order, [0, 1])

    # -- structure ----------------------------------------------------------

    def _coerce(self, other) -> "Cyclotomic":
        if isinstance(other, Cyclotomic):
            if other.order != self.order:
                raise OrderMismatchError(
                    f"cannot mix Q(zeta_{self.order}) with Q(zeta_{other.order})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(self.order, other)
        return NotImplemented  # type: ignore[return-value]

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(self.order, other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

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

    def sort_key(self) -> tuple[Fraction, ...]:
        return self.coeffs

    def as_rational(self) -> Optional[Fraction]:
        """The element as a Fraction when it lies in Q, else None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Cyclotomic(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Cyclotomic(self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prod = _poly_mul(_trim(list(self.coeffs)), _trim(list(other.coeffs)))
        return Cyclotomic(self.order, self._reduce(self.order, prod))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse via the extended Euclidean algorithm.

        gcd(a, Phi_m) is a nonzero constant because Phi_m is irreducible
        over Q and deg a < deg Phi_m; Bezout gives u with u*a = gcd mod Phi_m.
        """
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        phi_poly = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r0, r1 = phi_poly, _trim(list(self.coeffs))
        u0, u1 = [], [Fraction(1)]  # invariant: u_k * a == r_k  (mod Phi_m)
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            u0, u1 = u1, _poly_sub(u0, _poly_mul(q, u1))
        assert len(r0) == 1, "cyclotomic polynomial must be coprime to a nonzero element"
        scale = 1 / r0[0]
        return Cyclotomic(self.order, [c * scale for c in u0])

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Cyclotomic.one(self.order)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def embed(self, target_order: int) -> "Cyclotomic":
        """Image under Q(zeta_m) -> Q(zeta_L), zeta_m -> zeta_L^(L/m), m | L."""
        if target_order % self.order != 0:
            raise OrderMismatchError(
                f"{self.order} does not divide target order {target_order}"
            )
        zeta = _zeta_power(target_order, target_order // self.order)
        result = Cyclotomic.zero(target_order)
        for c in reversed(self.coeffs):
            result = result * zeta + c
        return result

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"coeffs": [format_rational(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, order: int, data: dict) -> "Cyclotomic":
        return cls(order, [parse_rational(c) for c in data["coeffs"]])


@lru_cache(maxsize=None)
def _zeta_power(order: int, exponent: int) -> Cyclotomic:
    """zeta_order^exponent, derived once per (order, exponent) and shared."""
    return Cyclotomic.zeta(order) ** exponent


def rational_sqrt(value: RationalLike) -> Optional[Fraction]:
    """Exact square root of a rational, or None when it is not a square."""
    value = Fraction(value)
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)


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
        return complex(self.re, self.im)

    # -- arithmetic ----------------------------------------------------------
    # Each operator takes another point, an int or a Fraction; anything else
    # is NotImplemented.

    def __add__(self, other):
        if type(other) is not ComplexPoint:
            other = _operand(other)
            if other is None:
                return NotImplemented
        d, f = self._d, other._d
        return _reduced_point(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    __radd__ = __add__

    def __neg__(self):
        return _exact_point(-self._a, -self._b, self._d)

    def __sub__(self, other):
        if type(other) is not ComplexPoint:
            other = _operand(other)
            if other is None:
                return NotImplemented
        d, f = self._d, other._d
        return _reduced_point(self._a * f - other._a * d, self._b * f - other._b * d, d * f)

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
    def from_json(cls, data) -> "ComplexPoint":
        """A point from "p/q" text or {"re", "im"[, "mode": "exact"]}; any
        other mode raises ValueError."""
        if isinstance(data, dict):
            mode = data.get("mode", "exact")
            if mode != "exact":
                raise ValueError(f"points must be exact, got mode {mode!r}")
            return cls.exact(parse_rational(data["re"]), parse_rational(data.get("im", 0)))
        return cls.exact(parse_rational(data))


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
    _set_point(z, a, b, d)
    return z


def _reduced_point(a: int, b: int, d: int) -> ComplexPoint:
    """The point (a + bi) / d for d > 0, reduced by gcd(a, b, d)."""
    g = math.gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _exact_point(a, b, d)


def complex_sqrt_exact(z: ComplexPoint) -> Optional[ComplexPoint]:
    """An exact square root of an exact point when one exists in Q(i).

    z = (x+yi)^2 forces x^2 = (Re z + |z|)/2 with |z| rational, so the search
    reduces to two rational square roots.  Returns the root with x > 0, or
    x == 0 and y >= 0.
    """
    a, b = z.re, z.im
    if b == 0:
        if a >= 0:
            x = rational_sqrt(a)
            return ComplexPoint.exact(x) if x is not None else None
        y = rational_sqrt(-a)
        return ComplexPoint.exact(0, y) if y is not None else None
    s = rational_sqrt(a * a + b * b)
    if s is None:
        return None
    x = rational_sqrt((a + s) / 2)
    if x is None or x == 0:
        return None
    y = b / (2 * x)
    return ComplexPoint.exact(x, y)


def complex_to_cyclotomic(z: ComplexPoint, order: int) -> Cyclotomic:
    """Embed a Gaussian rational into Q(zeta_L) with 4 | L (i = zeta_L^(L/4))."""
    if order % 4 != 0:
        raise OrderMismatchError(f"embedding Q(i) needs 4 | order, got {order}")
    i_unit = _zeta_power(order, order // 4)
    return Cyclotomic.from_rational(order, z.re) + i_unit * Fraction(z.im)

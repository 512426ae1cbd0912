"""A model of Q(zeta_m) for the tests, on tuples of Fractions.

It imports nothing from orbconfig and shares no code with it, so the tests
can check the package's residue kernels against it and build in it the
field values they hand to the package.  An element of Q(zeta_m) is the
tuple of its phi(m) Fraction coefficients in the power basis 1, zeta, ...,
zeta^(phi(m) - 1):

- Phi_m comes from the textbook table below, or, for an order the table
  lacks, from the product of (x - e^(2 pi i k / m)) over k coprime to m in
  floats, rounded to integers; the tests check that product against the
  table;
- reduction mod Phi_m is long division;
- the inverse is the extended Euclidean algorithm over Q[x] against Phi_m
  (von zur Gathen and Gerhard, Modern Computer Algebra, ch. 4);
- sigma_k: zeta -> zeta^k is the substitution x -> x^k, then reduction.

``Element`` wraps one such tuple with the field operators, for oracles
written once for Q (on Fractions) and Q(zeta_m) alike.
"""

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest

# Textbook cyclotomic polynomials, ascending coefficients.
TABLE_PHI = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    12: (1, 0, -1, 0, 1),
    13: (1,) * 13,
    16: (1, 0, 0, 0, 0, 0, 0, 0, 1),
    20: (1, 0, -1, 0, 1, 0, -1, 0, 1),
    24: (1, 0, 0, 0, -1, 0, 0, 0, 1),
    26: (1, -1) * 6 + (1,),
    32: (1,) + (0,) * 15 + (1,),
    52: (1, 0, -1, 0) * 6 + (1,),
}


def float_phi(m):
    """Phi_m as the rounded float product of (x - w) over the primitive
    m-th roots of unity w."""
    poly = [complex(1)]
    for k in range(1, m + 1):
        if math.gcd(k, m) == 1:
            w = cmath.exp(2j * math.pi * k / m)
            poly = [a - w * b for a, b in zip([0j] + poly, poly + [0j])]
    rounded = tuple(round(c.real) for c in poly)
    # far below 1/2, so each rounding is unambiguous; up to m = 60, the
    # largest order the tests use, the error stays below 0.003
    assert all(abs(c - r) < 0.01 for c, r in zip(poly, rounded)), m
    return rounded


@lru_cache(maxsize=None)
def phi_poly(m):
    """Integer coefficients (ascending) of Phi_m."""
    return TABLE_PHI[m] if m in TABLE_PHI else float_phi(m)


def degree(m):
    """phi(m), the degree of Phi_m."""
    return len(phi_poly(m)) - 1


def _trim(poly):
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _fractions(poly):
    return [c if type(c) is Fraction else Fraction(c) for c in poly]


def _divmod(num, den):
    """(quotient, remainder) of Fraction polynomials by long division."""
    num, den = _trim(_fractions(num)), _trim(_fractions(den))
    quotient = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    while len(num) >= len(den):
        lead = num[-1] / den[-1]
        shift = len(num) - len(den)
        quotient[shift] = lead
        for i, c in enumerate(den):
            if c:
                num[shift + i] -= lead * c
        _trim(num)
    return quotient, num


def poly_mod(poly, modulus):
    """The remainder of poly by modulus, trailing zeros dropped."""
    return _divmod(poly, modulus)[1]


def reduce(poly, m):
    """Fraction coefficients of poly mod Phi_m, padded to length phi(m)."""
    rem = poly_mod(poly, phi_poly(m)) if len(poly) > degree(m) else _fractions(poly)
    return tuple(rem) + (Fraction(0),) * (degree(m) - len(rem))


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    out[j] += x * y
    return out


def mul(a, b, m):
    return reduce(_poly_mul(a, b), m)


def embed(a, m, target):
    """The image under zeta_m -> zeta_L^(L/m), L = target: coefficient k
    moves to degree k L/m."""
    step = target // m
    out = [Fraction(0)] * (step * (len(a) - 1) + 1)
    for k, c in enumerate(a):
        out[k * step] = c
    return reduce(out, target)


def gaussian(re, im, target):
    """re + im i in Q(zeta_L), L = target with 4 | L, i = zeta_L^(L/4)."""
    poly = [Fraction(0)] * (target // 4 + 1)
    poly[0], poly[-1] = Fraction(re), Fraction(im)
    return reduce(poly, target)


def conjugate(a, k, m):
    """sigma_k(a), zeta -> zeta^k, by the substitution x -> x^k."""
    out = [Fraction(0)] * (k * (len(a) - 1) + 1)
    for i, c in enumerate(a):
        out[k * i] = c
    return reduce(out, m)


def norm(a, m):
    """The product of sigma_k(a) over k in 1..m coprime to m."""
    out = reduce([1], m)
    for k in range(1, m + 1):
        if math.gcd(k, m) == 1:
            out = mul(out, conjugate(a, k, m), m)
    return out


def inverse(a, m):
    """a^-1 in Q(zeta_m): s with s a + t Phi_m = g, a nonzero constant,
    divided by g; the extended Euclidean algorithm over Q[x]."""
    r0, r1 = _trim([Fraction(c) for c in phi_poly(m)]), _trim([Fraction(c) for c in a])
    if not r1:
        raise ZeroDivisionError("inverse of zero")
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = _divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _trim([x - y for x, y in zip_longest(s0, _poly_mul(q, s1), fillvalue=0)])
    # Phi_m is irreducible over Q, so the gcd of a != 0 with it is constant
    assert len(r0) == 1, r0
    return reduce([c / r0[0] for c in s0], m)


class Element:
    """An element of Q(zeta_m) as its reduced Fraction tuple ``coeffs``.

    The operators take another Element of the same order, an int or a
    Fraction; anything else is NotImplemented, so an Element never mixes
    with a package value.
    """

    __slots__ = ("m", "coeffs")

    def __init__(self, m, coeffs=()):
        self.m, self.coeffs = m, reduce(coeffs, m)

    def _other(self, x):
        if isinstance(x, Element):
            assert x.m == self.m, (self.m, x.m)
            return x.coeffs
        if isinstance(x, (int, Fraction)):
            return reduce([x], self.m)
        return None

    def _binary(self, other, fn):
        b = self._other(other)
        return NotImplemented if b is None else Element(self.m, fn(self.coeffs, b))

    def __add__(self, other):
        return self._binary(other, lambda a, b: [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: [x - y for x, y in zip(a, b)])

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: [y - x for x, y in zip(a, b)])

    def __neg__(self):
        return Element(self.m, [-x for x in self.coeffs])

    def __mul__(self, other):
        return self._binary(other, lambda a, b: mul(a, b, self.m))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, lambda a, b: mul(a, inverse(b, self.m), self.m))

    def __rtruediv__(self, other):
        return self._binary(other, lambda a, b: mul(b, inverse(a, self.m), self.m))

    def __eq__(self, other):
        b = self._other(other)
        return NotImplemented if b is None else self.coeffs == b

    def __hash__(self):
        return hash((self.m, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return f"Element({self.m}, {[str(c) for c in self.coeffs]})"


def zeta(m, k=1):
    """zeta_m^k."""
    return Element(m, [0] * (k % m) + [1])

"""Independent answers the benchmark checks orbconfig's outputs against.

Nothing here imports orbconfig.  Every oracle is a closed form or a brute
force written from the definitions, so a fault in the package cannot make
its own check pass.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product


# ---------------------------------------------------------------------------
# Arrangements
# ---------------------------------------------------------------------------


def product_poincare(exponents) -> list[int]:
    """Ascending coefficients of prod(1 + e t) over the exponents."""
    coeffs = [1]
    for e in exponents:
        coeffs = [a + e * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    while coeffs[-1] == 0:  # an exponent 0 adds no degree
        coeffs.pop()
    return coeffs


def braid_poincare(n: int) -> list[int]:
    """The braid arrangement x_i = x_j in C^n: prod_{k=1}^{n-1} (1 + k t)."""
    return product_poincare(range(1, n))


def gmmn_exponents(n: int, m: int) -> list[int]:
    """Exponents of the reflection arrangement of G(m, m, n) (Orlik-Terao 6.4):
    1, m + 1, ..., (n - 2) m + 1 and (n - 1)(m - 1)."""
    return [1 + k * m for k in range(n - 1)] + [(n - 1) * (m - 1)]


def gmmn_poincare(n: int, m: int) -> list[int]:
    return product_poincare(gmmn_exponents(n, m))


def eval_poly(coeffs, x: int) -> int:
    """Value at x of the polynomial with ascending coefficients."""
    return sum(c * x**k for k, c in enumerate(coeffs))


def field_point_count(dim: int, rows, q: int) -> int:
    """Points of F_q^dim that lie on none of the hyperplanes a . x = b.

    rows holds (normal, offset) pairs of integers or Fractions.  Each row
    is scaled to a primitive integer row before it is reduced mod q.
    """
    mod_rows = []
    for normal, offset in rows:
        entries = [Fraction(e) for e in (*normal, offset)]
        scale = math.lcm(*(e.denominator for e in entries))
        ints = [int(e * scale) for e in entries]
        common = math.gcd(*ints)
        ints = [(e // common) % q for e in ints]
        mod_rows.append((ints[:-1], ints[-1]))
    count = 0
    for x in product(range(q), repeat=dim):
        for normal, offset in mod_rows:
            if (sum(a * v for a, v in zip(normal, x)) - offset) % q == 0:
                break
        else:
            count += 1
    return count


def unit(dim: int, i: int) -> list[int]:
    row = [0] * dim
    row[i] = 1
    return row


def braid_rows(n: int) -> list:
    """x_i - x_j = 0 for i < j."""
    return [
        (tuple(a - b for a, b in zip(unit(n, i), unit(n, j))), 0)
        for i, j in combinations(range(n), 2)
    ]


def signed_pair_rows(dim: int) -> list:
    """x_i - x_j = 0 and x_i + x_j = 0 for i < j."""
    rows = []
    for i, j in combinations(range(dim), 2):
        for sign in (-1, 1):
            rows.append((tuple(a + sign * b for a, b in zip(unit(dim, i), unit(dim, j))), 0))
    return rows


def sign_flip_rows(n: int) -> list:
    """The cone arrangement of the sign-flip action: x_i = +-x_j and x_1 = 0."""
    return signed_pair_rows(n + 1) + [(tuple(unit(n + 1, 0)), 0)]


# ---------------------------------------------------------------------------
# Orbit configurations and power differences
# ---------------------------------------------------------------------------


def gaussian_power(a: int, b: int, m: int) -> tuple[int, int]:
    """(a + b i)^m in Z[i]."""
    re, im = 1, 0
    for _ in range(m):
        re, im = re * a - im * b, re * b + im * a
    return re, im


def distinct_rotation_orbits(scaled_points, m: int) -> bool:
    """Whether Gaussian integers lie in distinct orbits of z -> e^(2 pi i/m) z.

    Two points share an orbit exactly when their m-th powers agree.
    """
    powers = [gaussian_power(a, b, m) for a, b in scaled_points]
    return len(set(powers)) == len(powers)


def scaled_gaussian(re: Fraction, im: Fraction, scale: int) -> tuple[int, int]:
    """(scale re, scale im) as integers; the coordinates must allow it."""
    a, b = Fraction(re) * scale, Fraction(im) * scale
    if a.denominator != 1 or b.denominator != 1:
        raise ValueError(f"{re} + {im}i is not on the 1/{scale} grid")
    return int(a), int(b)


def pair_mul(z, w):
    return (z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0])


def pair_pow(z, m: int):
    out = (Fraction(1), Fraction(0))
    for _ in range(m):
        out = pair_mul(out, z)
    return out


def power_differences(points, m: int) -> list[tuple[Fraction, Fraction]]:
    """z_n^m - z_j^m for j < n, on (re, im) Fraction pairs."""
    last = pair_pow(points[-1], m)
    out = []
    for z in points[:-1]:
        p = pair_pow(z, m)
        out.append((last[0] - p[0], last[1] - p[1]))
    return out


# ---------------------------------------------------------------------------
# Finite groups and groupoids
# ---------------------------------------------------------------------------


class Group:
    """A finite group given by its elements and a multiplication function."""

    def __init__(self, elements, mul, identity):
        self.elements = list(elements)
        self.mul = mul
        self.identity = identity
        self.inv = {
            a: next(b for b in self.elements if mul(a, b) == identity) for a in self.elements
        }

    @classmethod
    def cyclic(cls, n: int) -> "Group":
        return cls(range(n), lambda a, b: (a + b) % n, 0)

    @classmethod
    def dihedral(cls, n: int) -> "Group":
        """r^k s^e as (k, e), with s r s = r^-1."""

        def mul(x, y):
            return ((x[0] + (y[0] if x[1] == 0 else -y[0])) % n, (x[1] + y[1]) % 2)

        return cls([(k, e) for k in range(n) for e in range(2)], mul, (0, 0))

    @classmethod
    def direct(cls, g: "Group", h: "Group") -> "Group":
        return cls(
            [(a, b) for a in g.elements for b in h.elements],
            lambda x, y: (g.mul(x[0], y[0]), h.mul(x[1], y[1])),
            (g.identity, h.identity),
        )

    def closure(self, generators) -> frozenset:
        current = {self.identity, *generators}
        frontier = list(current)
        while frontier:
            a = frontier.pop()
            for b in list(current):
                for c in (self.mul(a, b), self.mul(b, a)):
                    if c not in current:
                        current.add(c)
                        frontier.append(c)
        return frozenset(current)

    def normal_subgroup_count(self) -> int:
        """Normal subgroups among the closures of every set of at most three
        elements, which is every subgroup of a group of order <= 16 without
        a subgroup (C2)^4."""
        subgroups = {self.closure(())}
        for r in (1, 2, 3):
            for gens in combinations(self.elements, r):
                subgroups.add(self.closure(gens))
        return sum(
            all(self.mul(self.mul(g, h), self.inv[g]) in s for g in self.elements for h in s)
            for s in subgroups
        )


def orbit_distinct_tuples(points, orbit_of, n: int) -> int:
    """Brute-force count of n-tuples of points in pairwise distinct orbits."""
    return sum(
        len({orbit_of(x) for x in tup}) == n for tup in product(points, repeat=n)
    )

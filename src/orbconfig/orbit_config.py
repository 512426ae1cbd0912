"""Orbit configuration spaces of planar actions.

A configuration is a tuple of domain points lying in pairwise distinct
orbits.  This module provides the membership predicates, a deterministic
rational sampler, the standard hyperplane-arrangement models of these
spaces (the braid arrangement, the rotation arrangements, and the central
sign-flip cone arrangement), and the coning homeomorphism that identifies
the cone complement with scale times a sign-flip configuration space.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .arrangement import QQ, ArrangementSpec, ScalarField, _spec_from_rows, make_arrangement
from .exactfield import ComplexPoint, _parts, _reduced_point, _zeta_power
from .orbmodel import CyclicRotation, IntegerDihedral, PlanarAction, SignFlipPunctured

Box = tuple[Fraction, Fraction, Fraction, Fraction]

DEFAULT_BOX: Box = (Fraction(-2), Fraction(2), Fraction(-2), Fraction(2))

_ZERO = ComplexPoint.exact(0)


class MembershipError(ValueError):
    """A point failed a configuration-space membership precondition."""


class SamplingError(RuntimeError):
    """The rejection sampler ran out of attempts."""


def same_orbit(action: PlanarAction, z: ComplexPoint, w: ComplexPoint) -> bool:
    """Whether z and w lie on one orbit of the action, decided exactly.

    Raises DomainError when the action's domain excludes an argument.
    """
    return action.same_orbit(z, w)


def is_orbit_config(action: PlanarAction, points: Sequence[ComplexPoint]) -> bool:
    """Whether the tuple is a configuration: in the domain, orbits distinct.

    Unlike same_orbit, a coordinate outside the domain makes the answer
    False rather than an error; the predicate decides membership in the
    orbit configuration space.  Orbits are compared by hashing one
    ``orbit_invariant`` per point.
    """
    return _config_invariants(action, points)[0]


# the actions whose domain is the whole plane: contains is always True
_WHOLE_PLANE = (CyclicRotation, IntegerDihedral)


class _SampledPoints(tuple):
    """The points of a sampled configuration, carrying the action they were
    accepted for and the orbit invariant of each point.

    It compares and hashes as the plain tuple, and copies and pickles to
    one; slices and sums are plain tuples too, so the invariants never
    outlive the points they were computed on.
    """

    def __new__(cls, points: tuple, action: PlanarAction, invariants: tuple):
        self = super().__new__(cls, points)
        self.action = action
        self.invariants = invariants
        return self

    def __reduce__(self):
        return tuple, (tuple(self),)


def _config_invariants(
    action: PlanarAction, points: Sequence[ComplexPoint]
) -> tuple[bool, Optional[tuple]]:
    """is_orbit_config, plus the orbit invariant of each point when the
    points lie in the action's domain (None otherwise), so a caller that
    needs the invariants does not compute them again.  The points of a
    sample for an equal action are read, not checked again."""
    if type(points) is _SampledPoints and points.action == action:
        return True, points.invariants
    if type(action) not in _WHOLE_PLANE:
        points = tuple(points)
        if not all(map(action.contains, points)):
            return False, None
    keys = tuple(map(action.orbit_invariant, points))
    return len(set(keys)) == len(keys), keys


@dataclass(frozen=True)
class ConfigPoint:
    """A point of the orbit configuration space of a planar action."""

    action: PlanarAction
    points: tuple[ComplexPoint, ...]

    @property
    def n(self) -> int:
        return len(self.points)

    def to_json(self) -> dict:
        return {
            "action": self.action.to_json(),
            "points": [z.to_json() for z in self.points],
        }


def _grid_range(lo: tuple[int, int], hi: tuple[int, int], denominator: int) -> range:
    """The integers k with lo <= k / denominator <= hi, for bounds (p, q)
    read as p / q with q > 0; lo > hi raises ValueError."""
    (p, q), (r, t) = lo, hi
    if p * t > r * q:
        raise ValueError("empty sampling box")
    return range(-(-p * denominator // q), r * denominator // t + 1)


def sample_orbit_config(
    action: PlanarAction,
    n: int,
    seed: int = 0,
    box: Box = DEFAULT_BOX,
    denominator: int = 8,
    max_attempts: int = 1000,
) -> ConfigPoint:
    """Deterministically sample an exact configuration by rejection.

    Coordinates are drawn uniformly from the grid of rationals with the
    given denominator inside the closed box (re_lo, re_hi, im_lo, im_hi);
    tuples failing is_orbit_config are rejected.  The same seed always
    yields the same configuration.  Its points carry the orbit invariants
    they were accepted on, which the maps of ``covering`` read.
    """
    points = _sample_points(action, n, seed, box, denominator, max_attempts)
    return ConfigPoint(action=action, points=points)


def _sample_points(
    action: PlanarAction,
    n: int,
    seed: int,
    box: Box = DEFAULT_BOX,
    denominator: int = 8,
    max_attempts: int = 1000,
    avoid_zero: bool = False,
) -> _SampledPoints:
    """The points of sample_orbit_config; with avoid_zero, tuples holding
    0 are rejected too, drawing on from the same stream."""
    if n < 0:
        raise ValueError("configuration size must be nonnegative")
    if denominator < 1:
        raise ValueError("grid denominator must be positive")
    re_lo, re_hi, im_lo, im_hi = (_parts(b) for b in box)
    # grid numerators k with lo <= k / denominator <= hi; an empty range is
    # an error only when a coordinate is to be drawn, so n = 0 still succeeds
    re_grid = _grid_range(re_lo, re_hi, denominator)
    im_grid = _grid_range(im_lo, im_hi, denominator)
    if n and not (re_grid and im_grid):
        raise ValueError("sampling box contains no grid point")
    # choice(range) reads the Mersenne stream as randint over its bounds
    choice = random.Random(seed).choice
    for _ in range(max_attempts):
        # the canonical triples of (k_re + k_im i) / denominator, with k_re
        # drawn first
        candidate = tuple(
            [_reduced_point(choice(re_grid), choice(im_grid), denominator) for _ in range(n)]
        )
        if avoid_zero and _ZERO in candidate:
            continue
        is_config, invariants = _config_invariants(action, candidate)
        if is_config:
            return _SampledPoints(candidate, action, invariants)
    raise SamplingError(
        f"no valid {n}-point configuration in {max_attempts} attempts; "
        "enlarge the box or the grid denominator"
    )


# ---------------------------------------------------------------------------
# Arrangement models
# ---------------------------------------------------------------------------


def braid_arrangement(n: int) -> ArrangementSpec:
    """The hyperplanes x_i = x_j, 1 <= i < j <= n, over Q."""
    if n < 1:
        raise ValueError("braid arrangement needs n >= 1")
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            normal = [Fraction(0)] * n
            normal[i], normal[j] = Fraction(1), Fraction(-1)
            rows.append((tuple(normal), Fraction(0)))
    return make_arrangement(n, QQ, rows, label=f"braid({n})")


def rotation_arrangement(n: int, m: int) -> ArrangementSpec:
    """Hyperplanes z_i = zeta_m^k z_j modeling rotation-orbit collisions.

    A point of C^n avoids all of them exactly when its coordinates lie in
    pairwise distinct orbits of the order-m rotation about 0, since
    z_i^m = z_j^m iff z_i = zeta_m^k z_j for some k.  The origin needs no
    separate handling: two coordinates at 0 lie on z_i = z_j and share an
    orbit, while a single coordinate at 0 is neither on a hyperplane nor in
    a shared orbit.  There are m * n(n-1)/2 hyperplanes.  The field is Q
    for m <= 2 and Q(zeta_m) otherwise.
    """
    if n < 1 or m < 1:
        raise ValueError("rotation arrangement needs n >= 1 and m >= 1")
    field = QQ if m <= 2 else ScalarField("cyclotomic", m)
    # the integer residues of -zeta_m^k in Z[zeta_m] (in Z for m <= 2)
    if m <= 2:
        negated = [(-1,)] if m == 1 else [(-1,), (1,)]
    else:
        negated = [tuple(-x for x in _zeta_power(m, k)._n) for k in range(m)]
    phi = len(negated[0])
    # row (i, j, k), the flat residues of entries 1 at i and -zeta_m^k at j
    # and of the offset 0, is primitive, since one of its entries is 1
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for root in negated:
                row = [0] * ((n + 1) * phi)
                row[i * phi] = 1
                row[j * phi : (j + 1) * phi] = root
                rows.append(tuple(row))
    return _spec_from_rows(n, field, rows, f"case1({m},{n})")


def sign_flip_arrangement(n: int) -> ArrangementSpec:
    """The central cone arrangement x_i = +-x_j (i < j) plus x_1 = 0.

    Its complement in C^(n+1) is the image of the coning homeomorphism on
    scale times an n-point sign-flip configuration; it has
    2 * C(n+1, 2) + 1 hyperplanes in dimension n + 1.
    """
    if n < 0:
        raise ValueError("sign flip arrangement needs n >= 0")
    dim = n + 1
    rows = []
    for i in range(dim):
        for j in range(i + 1, dim):
            for sign in (Fraction(-1), Fraction(1)):
                normal = [Fraction(0)] * dim
                normal[i], normal[j] = Fraction(1), sign
                rows.append((tuple(normal), Fraction(0)))
    axis = [Fraction(0)] * dim
    axis[0] = Fraction(1)
    rows.append((tuple(axis), Fraction(0)))
    return make_arrangement(dim, QQ, rows, label=f"case3X({n})")


# ---------------------------------------------------------------------------
# The coning homeomorphism (lambda, w) -> (lambda, lambda w)
# ---------------------------------------------------------------------------


def in_cone_complement(xs: Sequence[ComplexPoint]) -> bool:
    """x_1 != 0 and x_i != +-x_j for all i < j.

    Over a field x_i = +-x_j exactly when x_i^2 = x_j^2, so the pairs are
    compared by hashing one square per coordinate.
    """
    if not xs or not xs[0]:
        return False
    squares = {x * x for x in xs}
    return len(squares) == len(xs)


def cone_coordinates(
    lam: ComplexPoint, points: Sequence[ComplexPoint]
) -> tuple[ComplexPoint, ...]:
    """Map (lambda, w_1..w_n) to (lambda, lambda w_1, .., lambda w_n).

    Requires lambda != 0 and the w tuple to be a sign-flip configuration;
    the image then lies in the cone complement, which is re-checked.
    """
    if not lam:
        raise MembershipError("scale coordinate must be nonzero")
    if not is_orbit_config(SignFlipPunctured(), points):
        raise MembershipError("points do not form a sign-flip configuration")
    image = (lam,) + tuple(lam * w for w in points)
    if not in_cone_complement(image):
        raise MembershipError("image left the cone complement")
    return image


def cone_coordinates_inverse(
    xs: Sequence[ComplexPoint],
) -> tuple[ComplexPoint, tuple[ComplexPoint, ...]]:
    """Recover (lambda, w) from a cone-complement point; exact inverse."""
    if not in_cone_complement(xs):
        raise MembershipError("point is not in the cone complement")
    lam = xs[0]
    inv = lam.inverse()
    return lam, tuple(x * inv for x in xs[1:])

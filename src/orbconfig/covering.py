"""Explicit covering and fibration maps between planar configuration spaces.

The algebraic maps (the degree-2 rational quotient map, coordinatewise
squaring, the power-difference fibration) evaluate exactly on ComplexPoint
inputs, and their membership checks take no tolerance.  The transcendental
exponential cover is the one float map: it takes and returns builtin
``complex`` values, compared to an explicit eps (DEFAULT_EPS unless given).
Square roots outside Q(i), in the quotient map's fiber and in squaring,
fall back to ``complex`` values too.  verify_cover spot-checks the covering
claims on seeded samples: constant generic fiber cardinality, exact branch
data via discriminant vanishing, and deck-transformation invariance,
recording per check whether it ran exactly or to a tolerance.
"""

from __future__ import annotations

import cmath
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from typing import Optional, Sequence

from .arrangement import SizeGuardError
from .exactfield import ComplexPoint, _gaussian_sqrt, _reduced_point, complex_sqrt_exact
from .orbmodel import CyclicRotation, DomainError, IntegerDihedral, SignFlipPunctured
from .orbit_config import MembershipError, _config_invariants, _sample_points, sample_orbit_config

_ZERO = ComplexPoint.exact(0)
_ONE = ComplexPoint.exact(1)

#: Default tolerance of the floating-point checks (the exponential cover and
#: the float fallbacks of the quotient map and of squaring).  Exact checks
#: take no tolerance.
DEFAULT_EPS = 1e-9

#: Rail on a whole run: samples times the declared degree (2 for q, 2^n for
#: squaring and qE), the fiber points checked; about 0.01 ms each for q,
#: 0.02 ms for qE and under 0.01 ms for squaring (2 cores, Python 3.11.7).
MAX_FIBER_POINTS = 20_000

#: Rail on a whole qE run: each sample walks every combination of the
#: 2 * window logarithms per coordinate, so samples * (2 * window)^n of them.
MAX_EXP_COMBINATIONS = 1_000_000


def joukowski_map(w: ComplexPoint) -> ComplexPoint:
    """v = (1/4)(1 - (1 + w^2) / (2w)), the degree-2 quotient of the
    punctured plane folding w with 1/w."""
    if not w:
        raise DomainError("the quotient map has a pole at 0")
    # v = -(w - 1)^2 / (8w) on the triple w = (a + bi)/d: with x = a - d,
    # (w - 1)^2 = (s + ti)/d^2 for s = x^2 - b^2 and t = 2xb, and dividing
    # by 8w multiplies by (a - bi) over 8d(a^2 + b^2)
    a, b, d = w._a, w._b, w._d
    x = a - d
    s, t = x * x - b * b, 2 * x * b
    return _reduced_point(-(s * a + t * b), s * b - t * a, 8 * d * (a * a + b * b))


def _joukowski_float(w: complex) -> complex:
    """joukowski_map on a float value, for the exponential composite."""
    if not w:
        raise DomainError("the quotient map has a pole at 0")
    return (1 - (1 + w * w) / (2 * w)) / 4


def joukowski_fiber(v: ComplexPoint, eps: float = DEFAULT_EPS) -> tuple:
    """Roots of w^2 - (2 - 8v) w + 1 = 0; both preimages of v, sorted by
    (real, imag), or one double root at the branch values v = 0 and v = 1/2.

    The two generic roots are reciprocal (their product is the constant
    term 1).  Roots are exact points whenever the discriminant is a square
    in Q(i); otherwise they are ``complex`` values from
    ``_joukowski_float_roots`` with tolerance eps.
    """
    # On v = (p + qi)/e the roots are c +- sqrt(c^2 - 1) for the half trace
    # c = 1 - 4v = (h + ki)/e, h = e - 4p and k = -4q, and c^2 - 1 is the
    # Gaussian integer (h + ki)^2 - e^2 over e^2.  It is a square in Q(i)
    # exactly when that integer is one in Z[i].
    p, q, e = v._a, v._b, v._d
    h, k = e - 4 * p, -4 * q
    big_a, big_b = h * h - k * k - e * e, 2 * h * k
    if not (big_a or big_b):
        return (_reduced_point(h, k, e),)
    root = _gaussian_sqrt(big_a, big_b)
    if root is None:
        return _joukowski_float_roots(v.to_complex(), eps)
    # the root x + yi has x > 0, or x == 0 and y > 0, so c - root comes
    # first in (real, imag) order
    x, y = root
    return (_reduced_point(h - x, k - y, e), _reduced_point(h + x, k + y, e))


def _joukowski_float_roots(v: complex, eps: float) -> tuple[complex, ...]:
    """joukowski_fiber in floating point: one root when the discriminant is
    within eps^2 of 0, else both roots sorted by (real, imag)."""
    trace = 2 - 8 * v
    disc = trace * trace - 4
    if abs(disc) <= eps * eps:
        return (trace / 2,)
    root = cmath.sqrt(disc)
    # Take the larger-magnitude root first and recover the other from the
    # exact product 1; this avoids cancellation when |trace| is large.
    big = (trace + root) / 2
    alt = (trace - root) / 2
    if abs(alt) > abs(big):
        big = alt
    return tuple(sorted((big, 1 / big), key=lambda z: (z.real, z.imag)))


def joukowski_branch_points() -> tuple[tuple[ComplexPoint, ComplexPoint, int], ...]:
    """(base value, preimage, local degree) at the two branch values."""
    return (
        (_ZERO, _ONE, 2),
        (ComplexPoint.exact(Fraction(1, 2)), ComplexPoint.exact(-1), 2),
    )


def exp_cover(z: complex) -> complex:
    """z -> exp(2 pi i z); transcendental, so evaluated in floating point."""
    return cmath.exp(2j * math.pi * z)


def exp_fiber(w: complex, window: int = 3, eps: float = DEFAULT_EPS) -> tuple[complex, ...]:
    """Preimages z0 + k, |k| <= window, of w under exp(2 pi i .); z0 is the
    principal logarithm divided by 2 pi i.  |w| <= eps counts as 0, which is
    not in the image."""
    if abs(w) <= eps:
        raise DomainError("0 is not in the image of the exponential cover")
    z0 = cmath.log(w) / (2j * math.pi)
    return tuple(z0 + k for k in range(-window, window + 1))


def exp_joukowski_composite(
    zs: Sequence[ComplexPoint], eps: float = DEFAULT_EPS
) -> tuple[complex, ...]:
    """Coordinatewise v_j = joukowski(exp(2 pi i z_j)), as ``complex`` values.

    The input must be an exact configuration for the integer dihedral
    action (z_i +- z_j never an integer); the images are then pairwise
    distinct, which is re-checked to the tolerance eps.  Cone values 0 and
    1/2 are allowed as outputs.
    """
    if not isinstance(zs, tuple):
        zs = tuple(zs)
    # a sample for the integer dihedral action is read, not checked again
    if not _config_invariants(IntegerDihedral(), zs)[0]:
        raise MembershipError(
            "input is not an integer-dihedral configuration (z_i +- z_j hits Z)"
        )
    images = tuple(_joukowski_float(exp_cover(z.to_complex())) for z in zs)
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            if abs(images[i] - images[j]) <= eps:
                raise MembershipError("composite images collided within tolerance")
    return images


def squaring_cover(ws: Sequence[ComplexPoint]) -> tuple[ComplexPoint, ...]:
    """(w_1, ..., w_n) -> (w_1^2, ..., w_n^2) on sign-flip configurations.

    Output coordinates are pairwise distinct and never 1; the fiber over a
    generic image has the full 2^n sign choices.
    """
    # w^2 is the sign flip's orbit invariant, so membership computes the
    # image, or a sign-flip sample carries it
    is_config, squares = _config_invariants(SignFlipPunctured(), ws)
    if not is_config:
        raise MembershipError("input is not a sign-flip configuration")
    return squares


def squaring_fiber(vs: Sequence[ComplexPoint], eps: float = DEFAULT_EPS) -> tuple[tuple, ...]:
    """All sign-enumeration preimage tuples of vs under coordinatewise
    squaring: one square root per coordinate, then every sign pattern.

    A root is an exact point when the coordinate is a square in Q(i) and a
    ``complex`` value otherwise.  A root equal to 0 (within eps for a
    ``complex`` root) contributes a single degenerate choice.
    """
    choices: list[tuple] = []
    for v in vs:
        root = complex_sqrt_exact(v)
        if root is None:
            root = cmath.sqrt(v.to_complex())
            degenerate = abs(root) <= eps
        else:
            degenerate = not root
        choices.append((root,) if degenerate else (root, -root))
    return tuple(product(*choices))


def in_punctured_configuration(points: Sequence[ComplexPoint]) -> bool:
    """Membership in the configuration space of the punctured plane:
    every coordinate nonzero and pairwise distinct."""
    distinct = set(points)
    return _ZERO not in distinct and len(distinct) == len(points)


def power_difference_map(zs: Sequence[ComplexPoint], m: int) -> tuple[ComplexPoint, ...]:
    """b_j = z_n^m - z_j^m for j < n, on rotation-orbit configurations.

    The output lies in the configuration space of the punctured plane:
    distinct rotation orbits make every b_j nonzero and pairwise distinct.
    That consequence is re-checked and enforced.
    """
    if not isinstance(zs, tuple):
        zs = tuple(zs)
    if m < 1:
        raise ValueError("rotation order must be >= 1")
    if not zs:
        raise MembershipError("need at least one coordinate")
    # the rotation about 0 has orbit invariant z^m, so the membership check
    # hands back every power the map needs, or a rotation sample carries them
    is_config, powers = _config_invariants(CyclicRotation(m), zs)
    if not is_config:
        raise MembershipError("input coordinates do not lie in distinct rotation orbits")
    last = powers[-1]
    base = tuple(last - p for p in powers[:-1])
    if not in_punctured_configuration(base):
        raise MembershipError("power differences left the punctured configuration space")
    return base


# ---------------------------------------------------------------------------
# Sampled verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoveringReport:
    map_id: str
    n: int
    declared_degree: int
    window: Optional[int]
    samples: int
    used: int
    skipped: int
    fiber_sizes: tuple[tuple[int, int], ...]  # (size, count), sorted
    branch_points: tuple[dict, ...]
    deck_checks: tuple[tuple[str, str, bool], ...]  # (name, mode, ok)
    max_defect: float
    eps: float
    seed: int
    passed: bool

    def to_json(self) -> dict:
        return {
            "map": self.map_id,
            "n": self.n,
            "declared_degree": self.declared_degree,
            "window": self.window,
            "samples": self.samples,
            "used": self.used,
            "skipped_singular": self.skipped,
            "fiber_sizes": [list(pair) for pair in self.fiber_sizes],
            "branch_points": list(self.branch_points),
            "deck_checks": [
                {"name": name, "mode": mode, "ok": ok}
                for name, mode, ok in self.deck_checks
            ],
            "max_defect": self.max_defect,
            "epsilon": self.eps,
            "seed": self.seed,
            "pass": self.passed,
        }


class _ReportBuilder:
    def __init__(self) -> None:
        self.sizes: dict[int, int] = {}
        self.checks: dict[tuple[str, str], bool] = {}
        self.max_defect = 0.0
        self.skipped = 0
        self.used = 0

    def fiber(self, size: int) -> None:
        self.sizes[size] = self.sizes.get(size, 0) + 1
        self.used += 1

    def check(self, name: str, mode: str, ok: bool) -> None:
        key = (name, mode)
        self.checks[key] = self.checks.get(key, True) and ok

    def defect(self, value: float) -> None:
        if value > self.max_defect:
            self.max_defect = value


def _verify_quotient_map(rb: _ReportBuilder, samples: int, rng: random.Random) -> tuple[dict, ...]:
    skip_at = {_ZERO, _ONE, ComplexPoint.exact(-1)}
    randint = rng.randint
    for _ in range(samples):
        # (k_re + k_im i) / 8 on the grid |k| <= 24, k_re drawn first
        w = _reduced_point(randint(-24, 24), randint(-24, 24), 8)
        if w in skip_at:
            rb.skipped += 1
            continue
        v = joukowski_map(w)
        fiber = joukowski_fiber(v)
        rb.fiber(len(fiber))
        w_inv = w.inverse()
        # the map is evaluated once per distinct point of w, 1/w and the
        # roots: just 1/w when the fiber is right
        images = {w: v}
        for z in (w_inv, *fiber):
            if z not in images:
                images[z] = joukowski_map(z)
        rb.check("fiber_matches_parametrization", "exact", set(fiber) == {w, w_inv})
        if len(fiber) == 2:
            rb.check("reciprocal_root_product", "exact", fiber[0] * fiber[1] == _ONE)
        rb.check("maps_back", "exact", all(images[root] == v for root in fiber))
        rb.check("deck_invariance", "exact", images[w_inv] == v)
    branch_records = []
    for base, preimage, degree in joukowski_branch_points():
        trace = _ONE * 2 - base * 8
        disc_vanishes = trace * trace - 4 == _ZERO
        fiber = joukowski_fiber(base)
        verified = (
            disc_vanishes
            and fiber == (preimage,)
            and joukowski_map(preimage) == base
        )
        rb.check("branch_data", "exact", verified)
        branch_records.append(
            {
                "value": base.to_json(),
                "preimage": preimage.to_json(),
                "local_degree": degree,
                "verified": verified,
            }
        )
    return tuple(branch_records)


def _verify_squaring(rb: _ReportBuilder, n: int, samples: int, rng: random.Random) -> None:
    action = SignFlipPunctured()
    for _ in range(samples):
        # samples avoid 0, which squares to the cone point with a
        # degenerate fiber
        ws = _sample_points(action, n, rng.randrange(2**32), avoid_zero=True)
        vs = squaring_cover(ws)
        fiber = squaring_fiber(vs)
        # The 2^n fiber tuples and signed samples take a few distinct points,
        # +-w_i when the cover is right.  Each gets an integer id, and its
        # domain membership and the id of its square (its orbit invariant)
        # are decided once; every row then reads ids only.  The samples come
        # first, with ids 0..n-1: their squares are vs, with the same ids.
        ids = dict(zip(ws, range(n)))
        fiber_ids = [tuple([ids.setdefault(z, len(ids)) for z in t]) for t in fiber]
        signed_ids = [(j, ids.setdefault(-w, len(ids))) for j, w in enumerate(ws)]
        outside = {j for j, z in enumerate(ids) if not action.contains(z)}
        square_ids = dict(zip(vs, range(n)))
        square_of = (
            list(range(n))
            + [
                square_ids.setdefault(action.orbit_invariant(z), len(square_ids))
                for z in islice(ids, n, None)
            ]
        ).__getitem__
        image = tuple(range(n))

        def in_space(t: tuple) -> bool:
            return outside.isdisjoint(t) and len(set(map(square_of, t))) == len(t)

        def maps_to_image(t: tuple) -> bool:
            return tuple(map(square_of, t)) == image

        # the signed samples w * s over the sign patterns s in product((1, -1), repeat=n)
        signed = list(product(*signed_ids))
        distinct = set(fiber_ids)
        rb.fiber(len(distinct))
        rb.check("fiber_is_sign_enumeration", "exact", distinct == set(signed))
        rb.check("fiber_in_configuration_space", "exact", all(map(in_space, fiber_ids)))
        rb.check("maps_back", "exact", all(map(maps_to_image, fiber_ids)))
        for t in signed:
            if not in_space(t):
                # as squaring_cover refuses it
                raise MembershipError("input is not a sign-flip configuration")
        rb.check("sign_action_invariance", "exact", all(map(maps_to_image, signed)))


def _strip_logs(w: complex, window: int) -> list[complex]:
    z0 = cmath.log(w) / (2j * math.pi)
    z0 -= math.floor(z0.real)
    return [z0 + k for k in range(window)]


def _verify_exp_composite(
    rb: _ReportBuilder, n: int, samples: int, window: int, eps: float, rng: random.Random
) -> None:
    unit_box = (Fraction(0), Fraction(7, 8), Fraction(-1), Fraction(1))
    dihedral = IntegerDihedral()
    for _ in range(samples):
        zs = sample_orbit_config(
            dihedral, n, seed=rng.randrange(2**32), box=unit_box
        ).points
        vs = exp_joukowski_composite(zs, eps)
        per_coord: list[list[complex]] = []
        singular = False
        for v in vs:
            disc = (2 - 8 * v) ** 2 - 4
            if abs(disc) <= eps:
                singular = True
                break
            logs = [z for r in _joukowski_float_roots(v, eps) for z in _strip_logs(r, window)]
            per_coord.append(logs)
        if singular:
            rb.skipped += 1
            continue
        # a combination's cell is the floors of its logarithms' real parts,
        # so each log is floored once and the cells counted over their product
        floors = [[math.floor(z.real) for z in logs] for logs in per_coord]
        window_counts = Counter(product(*floors))
        cells_ok = len(window_counts) == window**n and all(
            count == 2**n for count in window_counts.values()
        )
        rb.check("per_window_count", "approx", cells_ok)
        rb.fiber(min(window_counts.values()) if window_counts else 0)
        probe = [per_coord[i][0] for i in range(n)]
        back = [_joukowski_float(exp_cover(zc)) for zc in probe]
        defect = max(abs(a - b) for a, b in zip(back, vs))
        rb.defect(defect)
        rb.check("maps_back", "approx", defect <= eps)
        shifted = (zs[0] + 1,) + zs[1:]
        negated = (-zs[0],) + zs[1:]
        for name, moved in (("translation_periodicity", shifted), ("negation_invariance", negated)):
            moved_vs = exp_joukowski_composite(moved, eps)
            gap = max(abs(a - b) for a, b in zip(moved_vs, vs))
            rb.defect(gap)
            rb.check(name, "approx", gap <= eps)


def verify_cover(
    map_id: str,
    n: int = 2,
    samples: int = 200,
    window: int = 3,
    eps: float = DEFAULT_EPS,
    seed: int = 0,
) -> CoveringReport:
    """Sample-based verification of a declared covering map.

    map ids: "q" (degree 2), "squaring" (degree 2^n, full sign
    enumeration), "qE" (the exponential-then-quotient composite; 2^n
    preimages per fundamental window, scanned over window^n cells).
    Singular samples (branch values of q and qE) are skipped and counted,
    never silently dropped; squaring samples avoid 0, where squaring
    branches, so none is skipped.  Guard rails, checked before any
    sample: every map takes samples * degree <= MAX_FIBER_POINTS, which
    also bounds the squaring n, and qE takes samples * (2 * window)^n <=
    MAX_EXP_COMBINATIONS.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if window < 1:
        raise ValueError("window must be >= 1")
    if not 0 < eps < math.inf:  # nan fails both; inf passes every tolerance check
        raise ValueError("epsilon must be positive and finite")
    if map_id not in ("q", "squaring", "qE"):
        raise ValueError(f"unknown map id {map_id!r}")
    if map_id == "q":
        n = 1
    elif n < 1:
        raise ValueError(f"{map_id} needs n >= 1")
    # 2 * window >= 2, so an exponent past the cap's bit length exceeds it
    elif map_id == "qE" and (
        samples * (2 * window) ** min(n, MAX_EXP_COMBINATIONS.bit_length()) > MAX_EXP_COMBINATIONS
    ):
        raise SizeGuardError(
            f"qE verification capped at samples * (2 * window)^n <= {MAX_EXP_COMBINATIONS} "
            f"(logarithm combinations per run)"
        )
    # the degree is 2^n; an exponent past the cap's bit length exceeds it
    if samples * 2 ** min(n, MAX_FIBER_POINTS.bit_length()) > MAX_FIBER_POINTS:
        raise SizeGuardError(
            f"{map_id} verification capped at samples * degree <= {MAX_FIBER_POINTS} (fiber points per run)"
        )
    declared = 2**n
    rng = random.Random(seed)
    rb = _ReportBuilder()
    branch_records = _verify_quotient_map(rb, samples, rng) if map_id == "q" else ()
    if map_id == "squaring":
        _verify_squaring(rb, n, samples, rng)
    elif map_id == "qE":
        _verify_exp_composite(rb, n, samples, window, eps, rng)
    sizes = tuple(sorted(rb.sizes.items()))
    generic_ok = all(size == declared for size, _ in sizes) and rb.used > 0
    checks_ok = all(rb.checks.values())
    passed = generic_ok and checks_ok and rb.max_defect <= eps
    return CoveringReport(
        map_id=map_id,
        n=n,
        declared_degree=declared,
        window=window if map_id == "qE" else None,
        samples=samples,
        used=rb.used,
        skipped=rb.skipped,
        fiber_sizes=sizes,
        branch_points=branch_records,
        deck_checks=tuple(
            (name, mode, ok) for (name, mode), ok in sorted(rb.checks.items())
        ),
        max_defect=rb.max_defect,
        eps=eps,
        seed=seed,
        passed=passed,
    )

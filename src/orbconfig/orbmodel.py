"""Closed-form 2-orbifolds and the planar group actions that produce them.

An Orbifold2D records an underlying surface (genus, orientability, punctures,
boundary circles) plus a multiset of cone orders.  Reflector features are not
representable; inputs carrying them are rejected at parse time and should be
doubled into cone data by the caller first.

The planar actions are the three quotient models used throughout the package:
a finite rotation about a center, the infinite dihedral action generated by
z -> z+1 and z -> -z, and the sign flip w -> -w on the twice-punctured plane
C minus {+1, -1} (the fixed point 0 stays in the domain; the punctures are
the preimages of the puncture of the quotient).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .arrangement import SizeGuardError
from .exactfield import ComplexPoint, format_rational, json_int, json_kind, json_shape


class ReflectorError(ValueError):
    """Input carries reflector data, which this model does not represent."""


class DomainError(ValueError):
    """A point lies outside the domain of the action."""


# the keys of an Orbifold2D JSON spec; any other key is refused, so a
# misspelt field cannot fall back to its default
_ORBIFOLD_KEYS = frozenset({"schema", "genus", "orientable", "punctures", "boundary", "cones", "reflectors"})


@dataclass(frozen=True)
class Orbifold2D:
    """A 2-orbifold without reflector features.

    genus counts handles when orientable, crosscaps otherwise.  Punctures and
    boundary circles both remove an open disk from the Euler characteristic.
    Cone orders are kept as a sorted tuple; every order is at least 2.
    """

    genus: int = 0
    orientable: bool = True
    punctures: int = 0
    boundary: int = 0
    cone_orders: tuple[int, ...] = ()

    def __post_init__(self):
        if self.genus < 0 or self.punctures < 0 or self.boundary < 0:
            raise ValueError("genus, punctures and boundary must be nonnegative")
        if not self.orientable and self.genus < 1:
            raise ValueError("a non-orientable surface needs at least one crosscap")
        orders = tuple(sorted(int(m) for m in self.cone_orders))
        if any(m < 2 for m in orders):
            raise ValueError("cone orders must be integers >= 2")
        object.__setattr__(self, "cone_orders", orders)

    @property
    def closed(self) -> bool:
        return self.punctures == 0 and self.boundary == 0

    @classmethod
    def sphere(cls, *cone_orders: int) -> "Orbifold2D":
        return cls(genus=0, cone_orders=tuple(cone_orders))

    @classmethod
    def plane(cls, *cone_orders: int, extra_punctures: int = 0) -> "Orbifold2D":
        """The plane (a once-punctured sphere), minus extra_punctures points."""
        return cls(genus=0, punctures=1 + extra_punctures, cone_orders=tuple(cone_orders))

    def to_json(self) -> dict:
        return {
            "genus": self.genus,
            "orientable": self.orientable,
            "punctures": self.punctures,
            "boundary": self.boundary,
            "cones": list(self.cone_orders),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Orbifold2D":
        json_shape(data, dict, "orbifold", _ORBIFOLD_KEYS)
        if data.get("reflectors"):
            raise ReflectorError(
                "reflector features are not representable; double the orbifold "
                "along its reflector locus and resubmit the cone data"
            )
        orientable = data.get("orientable", True)
        if not isinstance(orientable, bool):
            raise ValueError(f"orientable must be true or false, got {orientable!r}")
        cones = data.get("cones", [])
        if not isinstance(cones, (list, tuple)):
            raise ValueError(f"cones must be a list of integers, got {cones!r}")
        return cls(
            genus=json_int(data.get("genus", 0), "genus"),
            orientable=orientable,
            punctures=json_int(data.get("punctures", 0), "punctures"),
            boundary=json_int(data.get("boundary", 0), "boundary"),
            cone_orders=tuple(json_int(m, "cone order") for m in cones),
        )


def euler_characteristic_orb(orbifold: Orbifold2D) -> Fraction:
    """Orbifold Euler characteristic, exact.

    chi of the underlying surface (punctures and boundary circles each remove
    a disk), minus sum(1 - 1/m) over cone orders.
    """
    if orbifold.orientable:
        chi = 2 - 2 * orbifold.genus
    else:
        chi = 2 - orbifold.genus
    chi = Fraction(chi - orbifold.punctures - orbifold.boundary)
    for m in orbifold.cone_orders:
        chi -= 1 - Fraction(1, m)
    return chi


@dataclass(frozen=True)
class Classification:
    """Good/bad, asphericity and pi_1 finiteness verdicts for a 2-orbifold.

    pi1_infinite is None when the input falls outside the decision table
    (the verdict is then deliberately left unknown rather than guessed).
    """

    is_good: bool
    is_aspherical: bool
    pi1_infinite: Optional[bool]
    chi_orb: Fraction
    reason: str

    def to_json(self) -> dict:
        tri = {True: "yes", False: "no", None: "unknown"}
        return {
            "is_good": tri[self.is_good],
            "is_aspherical": tri[self.is_aspherical],
            "pi1_infinite": tri[self.pi1_infinite],
            "chi_orb": format_rational(self.chi_orb),
            "reason": self.reason,
        }


def _is_bad(orbifold: Orbifold2D) -> bool:
    # The bad closed 2-orbifolds without reflectors: a sphere with a single
    # cone point, or with exactly two cone points of different orders.
    if not (orbifold.closed and orbifold.orientable and orbifold.genus == 0):
        return False
    cones = orbifold.cone_orders
    if len(cones) == 1:
        return True
    return len(cones) == 2 and cones[0] != cones[1]


def classify(orbifold: Orbifold2D) -> Classification:
    """Decide goodness, asphericity, and pi_1 infiniteness.

    An orbifold here is aspherical exactly when it is good and not a closed
    orbifold of positive orbifold Euler characteristic (those are spherical).
    """
    chi = euler_characteristic_orb(orbifold)
    bad = _is_bad(orbifold)
    good = not bad
    if bad:
        kind = "single cone point" if len(orbifold.cone_orders) == 1 else "unequal cone orders"
        return Classification(
            is_good=False,
            is_aspherical=False,
            pi1_infinite=False,
            chi_orb=chi,
            reason=f"bad: sphere with {kind}; pi_1 is finite cyclic",
        )
    spherical = orbifold.closed and chi > 0
    aspherical = not spherical
    if chi <= 0:
        pi1_infinite: Optional[bool] = True
        reason = "good with chi_orb <= 0; infinite pi_1"
    elif spherical:
        pi1_infinite = False
        reason = "good, closed, chi_orb > 0: spherical quotient with finite pi_1"
    else:
        pi1_infinite = None
        reason = "good and open with chi_orb > 0; pi_1 verdict outside the decision table"
    return Classification(
        is_good=True,
        is_aspherical=aspherical,
        pi1_infinite=pi1_infinite,
        chi_orb=chi,
        reason=reason,
    )


# ---------------------------------------------------------------------------
# Planar actions
# ---------------------------------------------------------------------------

_ZERO = ComplexPoint.exact(0)
_ONE = ComplexPoint.exact(1)
_MINUS_ONE = ComplexPoint.exact(-1)
_HALF = ComplexPoint.exact(Fraction(1, 2))

# the keys of each planar action's JSON spec; "schema" is the CLI envelope's
_ACTION_KEYS = {
    "rotation": {"schema", "kind", "order", "center"},
    "integer_dihedral": {"schema", "kind"},
    "sign_flip": {"schema", "kind"},
}

#: Rail on rotation orders read from JSON: a rotation's orbit invariant is
#: an order-th power, whose digit count grows linearly with the order.
MAX_ROTATION_ORDER = 1024


def _require_exact(z: ComplexPoint):
    if not isinstance(z, ComplexPoint):
        raise TypeError(f"expected ComplexPoint, got {type(z).__name__}")


class PlanarAction:
    """Base class; concrete actions define domain, orbits and the quotient."""

    kind: str = "abstract"
    #: number of points already removed from the planar domain
    domain_punctures: int = 0

    def contains(self, z: ComplexPoint) -> bool:
        raise NotImplementedError

    def require_in_domain(self, z: ComplexPoint):
        if not self.contains(z):
            raise DomainError(f"{z!r} is outside the domain of {self.kind}")

    def orbit_invariant(self, z: ComplexPoint):
        """A value two domain points share exactly when they lie on one orbit."""
        raise NotImplementedError

    def same_orbit(self, z: ComplexPoint, w: ComplexPoint) -> bool:
        self.require_in_domain(z)
        self.require_in_domain(w)
        return self.orbit_invariant(z) == self.orbit_invariant(w)

    def special_points(self) -> tuple[tuple[ComplexPoint, int], ...]:
        """Orbit representatives with nontrivial isotropy, with their orders."""
        return ()

    def group_order(self) -> Optional[int]:
        """Order of the acting group, None when infinite."""
        raise NotImplementedError

    def quotient_orbifold(self) -> Orbifold2D:
        raise NotImplementedError

    def to_json(self) -> dict:
        return {"kind": self.kind}

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


@dataclass(frozen=True, repr=False)
class CyclicRotation(PlanarAction):
    """Rotation by 2*pi/order about a center; order 1 is the trivial action."""

    order: int
    center: ComplexPoint = field(default=_ZERO)
    kind = "rotation"
    domain_punctures = 0

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("rotation order must be >= 1")
        _require_exact(self.center)

    def contains(self, z) -> bool:
        return True

    def orbit_invariant(self, z: ComplexPoint) -> ComplexPoint:
        if self.center:
            z = z - self.center
        return z**self.order

    def special_points(self):
        if self.order >= 2:
            return ((self.center, self.order),)
        return ()

    def group_order(self):
        return self.order

    def quotient_orbifold(self) -> Orbifold2D:
        cones = (self.order,) if self.order >= 2 else ()
        return Orbifold2D.plane(*cones)

    def to_json(self) -> dict:
        return {"kind": self.kind, "order": self.order, "center": self.center.to_json()}

    def __repr__(self):
        return f"CyclicRotation({self.order}, center={self.center!r})"


@dataclass(frozen=True, repr=False)
class IntegerDihedral(PlanarAction):
    """The infinite dihedral action generated by z -> z + 1 and z -> -z.

    Two points share an orbit exactly when z - w or z + w is an integer.
    """

    kind = "integer_dihedral"
    domain_punctures = 0

    def contains(self, z) -> bool:
        return True

    def orbit_invariant(self, z: ComplexPoint) -> tuple[int, tuple[int, int]]:
        # z = (a + b i) / d; shifting by an integer keeps d and b and moves a
        # mod d, negating maps (a, b) to (-a, -b), so the orbit is fixed by d
        # and the smaller of the two residue pairs
        a, b, d = z._a, z._b, z._d
        return d, min((a % d, b), (-a % d, -b))

    def special_points(self):
        return ((_ZERO, 2), (_HALF, 2))

    def group_order(self):
        return None

    def quotient_orbifold(self) -> Orbifold2D:
        return Orbifold2D.plane(2, 2)


@dataclass(frozen=True, repr=False)
class SignFlipPunctured(PlanarAction):
    """w -> -w on C minus {+1, -1}; 0 is the order-2 fixed point.

    The removed points are the preimages of the quotient's puncture, so the
    quotient is the plane minus one point with a single cone of order 2 at 0.
    """

    kind = "sign_flip"
    domain_punctures = 2

    def contains(self, z) -> bool:
        return z != _ONE and z != _MINUS_ONE

    def orbit_invariant(self, z: ComplexPoint) -> ComplexPoint:
        return z * z

    def special_points(self):
        return ((_ZERO, 2),)

    def group_order(self):
        return 2

    def quotient_orbifold(self) -> Orbifold2D:
        return Orbifold2D.plane(2, extra_punctures=1)


def quotient_orbifold(action: PlanarAction) -> Orbifold2D:
    """The quotient 2-orbifold of a planar action."""
    return action.quotient_orbifold()


def action_from_json(data: dict) -> PlanarAction:
    """A planar action from its JSON spec.  An unknown kind or key raises
    ValueError.  A rotation order must be a JSON integer (ValueError
    otherwise) of at most MAX_ROTATION_ORDER (SizeGuardError otherwise)."""
    kind = json_kind(data, "action", _ACTION_KEYS)
    if kind == "rotation":
        order = json_int(data["order"], "rotation order")
        if order > MAX_ROTATION_ORDER:
            raise SizeGuardError(
                f"rotation order {order} exceeds the rail (order <= {MAX_ROTATION_ORDER})"
            )
        center = ComplexPoint.from_json(data["center"], "center") if "center" in data else _ZERO
        return CyclicRotation(order, center)
    if kind == "integer_dihedral":
        return IntegerDihedral()
    return SignFlipPunctured()

"""The non-quasifibration obstruction for coordinate-forgetting maps.

Forgetting the last coordinate of an orbit configuration fibers over the
shorter configurations, but the fibers are planar domains minus whole
orbits, so their first Betti number jumps between orbit sizes.  Anchoring
a base tuple at a fixed point versus a nearby free point exhibits the
jump; a quasifibration would force weakly equivalent fibers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .exactfield import ComplexPoint
from .orbmodel import PlanarAction
from .orbit_config import MembershipError, is_orbit_config

_ZERO = ComplexPoint.exact(0)
_HALF = ComplexPoint.exact(Fraction(1, 2))


#: Candidate free points s + k/2, k = 1..MAX_WITNESS_STEPS, that the witness
#: search tries; each places at most one coordinate after the anchor, so no
#: n above MAX_WITNESS_STEPS + 1 can succeed.
MAX_WITNESS_STEPS = 400


class UnsupportedActionError(ValueError):
    """The acting group is infinite; fiber puncture counts diverge."""


class NoWitnessError(RuntimeError):
    """The action has no fixed point, so the witness pair cannot anchor."""


def orbit_size(action: PlanarAction, z: ComplexPoint) -> Union[int, float]:
    """|Hz| = |H| / |H_z|; math.inf when the acting group is infinite."""
    action.require_in_domain(z)
    order = action.group_order()
    if order is None:
        return math.inf
    for representative, isotropy in action.special_points():
        if action.same_orbit(z, representative):
            return order // isotropy
    return order


@dataclass(frozen=True)
class FiberDescriptor:
    """Topology of one fiber of the forgetting map.

    The fiber over a base tuple is the action's planar domain minus the
    union of the base orbits, so b1 counts the removed points plus any
    punctures the domain already carries.
    """

    base: tuple[ComplexPoint, ...]
    orbit_sizes: tuple[int, ...]
    punctures_removed: int
    domain_punctures: int
    b1: int

    def to_json(self) -> dict:
        return {
            "base": [z.to_json() for z in self.base],
            "orbit_sizes": list(self.orbit_sizes),
            "punctures_removed": self.punctures_removed,
            "domain_punctures": self.domain_punctures,
            "b1": self.b1,
        }


def fiber_descriptor(action: PlanarAction, base: Sequence[ComplexPoint]) -> FiberDescriptor:
    """Puncture bookkeeping for the fiber over a validated base tuple."""
    base = tuple(base)
    if action.group_order() is None:
        raise UnsupportedActionError(
            "fiber descriptors need a finite acting group; orbits here are infinite"
        )
    if not is_orbit_config(action, base):
        raise MembershipError("base tuple is not an orbit configuration")
    sizes = tuple(orbit_size(action, z) for z in base)
    removed = sum(sizes)
    return FiberDescriptor(
        base=base,
        orbit_sizes=sizes,
        punctures_removed=removed,
        domain_punctures=action.domain_punctures,
        b1=removed + action.domain_punctures,
    )


NOT_QUASIFIBRATION = "not-quasifibration"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class WitnessReport:
    """A fixed-anchored and a free-anchored fiber over shared coordinates."""

    action: PlanarAction
    n: int
    fixed_anchor: FiberDescriptor
    free_anchor: FiberDescriptor
    verdict: str
    narrative: str

    def __bool__(self) -> bool:
        return self.verdict == NOT_QUASIFIBRATION

    def to_json(self) -> dict:
        return {
            "action": self.action.to_json(),
            "n": self.n,
            "fixed_anchor": self.fixed_anchor.to_json(),
            "free_anchor": self.free_anchor.to_json(),
            "b1_pair": [self.fixed_anchor.b1, self.free_anchor.b1],
            "verdict": self.verdict,
            "narrative": self.narrative,
        }


def _format_point(z: ComplexPoint) -> str:
    if z.im == 0:
        return str(z.re)
    return f"{z.re}+{z.im}i"


def _find_fixed_point(action: PlanarAction) -> ComplexPoint:
    order = action.group_order()
    for representative, isotropy in action.special_points():
        if isotropy == order:
            return representative
    if order == 1:
        anchor = getattr(action, "center", _ZERO)
        if action.contains(anchor):
            return anchor
    raise NoWitnessError(f"{action.kind} has no fixed point to anchor the witness")


def quasifibration_witness(action: PlanarAction, n: int) -> WitnessReport:
    """The witness pair: two base tuples differing only in their anchor.

    One tuple starts at a fixed point s, the other at a free point s'
    chosen from the rational grid s + k/2; the remaining n-2 coordinates
    are shared free points in pairwise distinct orbits.  The verdict is
    not-quasifibration exactly when the two fiber b1 values differ.
    A candidate's orbit is compared with the chosen ones by hashing its
    ``orbit_invariant``.
    """
    if n < 2:
        raise ValueError("the forgetting map needs n >= 2 coordinates")
    order = action.group_order()
    if order is None:
        raise UnsupportedActionError(
            "quasifibration witnesses are defined for finite acting groups"
        )
    s = _find_fixed_point(action)
    if n - 1 > MAX_WITNESS_STEPS:
        raise NoWitnessError("could not place enough free witness coordinates")
    chosen: list[ComplexPoint] = [s]
    taken = {action.orbit_invariant(s)}
    step = 0
    while len(chosen) < n and step < MAX_WITNESS_STEPS:
        step += 1
        candidate = s + _HALF * step
        if not action.contains(candidate):
            continue
        if orbit_size(action, candidate) != order:
            continue
        key = action.orbit_invariant(candidate)
        if key in taken:
            continue
        taken.add(key)
        chosen.append(candidate)
    if len(chosen) < n:
        raise NoWitnessError("could not place enough free witness coordinates")
    s_free = chosen[1]
    shared = tuple(chosen[2:])
    fixed_anchor = fiber_descriptor(action, (s, *shared))
    free_anchor = fiber_descriptor(action, (s_free, *shared))
    verdict = (
        NOT_QUASIFIBRATION if fixed_anchor.b1 != free_anchor.b1 else INCONCLUSIVE
    )
    narrative = (
        f"over the base anchored at the fixed point s={_format_point(s)} the fiber "
        f"has b1={fixed_anchor.b1}; moving the anchor to the free point "
        f"s'={_format_point(s_free)} gives b1={free_anchor.b1}; "
        + (
            "a quasifibration would force these to agree, so the forgetting map is not one."
            if verdict == NOT_QUASIFIBRATION
            else "the two fibers agree here, so this pair exhibits no obstruction."
        )
    )
    return WitnessReport(
        action=action,
        n=n,
        fixed_anchor=fixed_anchor,
        free_anchor=free_anchor,
        verdict=verdict,
        narrative=narrative,
    )

"""Fiber puncture counts and the non-quasifibration witness pair."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbconfig.exactfield import ComplexPoint
from orbconfig.obstruction import (
    INCONCLUSIVE,
    NOT_QUASIFIBRATION,
    FiberDescriptor,
    NoWitnessError,
    UnsupportedActionError,
    fiber_descriptor,
    orbit_size,
    quasifibration_witness,
)
from orbconfig.orbit_config import MembershipError
from orbconfig.orbmodel import (
    CyclicRotation,
    DomainError,
    IntegerDihedral,
    PlanarAction,
    SignFlipPunctured,
)


def pt(re, im=0) -> ComplexPoint:
    return ComplexPoint.exact(Fraction(re), Fraction(im))


# -- orbit sizes -------------------------------------------------------------


def test_orbit_size_rotation():
    action = CyclicRotation(4)
    assert orbit_size(action, pt(0)) == 1
    assert orbit_size(action, pt(1)) == 4
    assert orbit_size(action, pt(0, 1)) == 4


def test_orbit_size_sign_flip_and_domain():
    action = SignFlipPunctured()
    assert orbit_size(action, pt(2)) == 2
    assert orbit_size(action, pt(0)) == 1
    with pytest.raises(DomainError):
        orbit_size(action, pt(1))


def test_orbit_size_infinite_group():
    assert orbit_size(IntegerDihedral(), pt(Fraction(1, 4))) == math.inf


def test_orbit_size_off_center_rotation():
    action = CyclicRotation(3, center=pt(2))
    assert orbit_size(action, pt(2)) == 1
    assert orbit_size(action, pt(0)) == 3


# -- fiber descriptors --------------------------------------------------------


def test_fiber_descriptor_rotation_examples():
    action = CyclicRotation(2)
    at_fixed = fiber_descriptor(action, (pt(0), pt(1)))
    assert at_fixed.orbit_sizes == (1, 2)
    assert at_fixed.punctures_removed == 3
    assert at_fixed.b1 == 3
    at_free = fiber_descriptor(action, (pt(3), pt(1)))
    assert at_free.punctures_removed == 4
    assert at_free.b1 == 4


def test_fiber_descriptor_single_fixed_point():
    descriptor = fiber_descriptor(CyclicRotation(5), (pt(0),))
    assert descriptor.orbit_sizes == (1,)
    assert descriptor.b1 == 1


def test_fiber_descriptor_counts_domain_punctures():
    descriptor = fiber_descriptor(SignFlipPunctured(), (pt(2),))
    assert descriptor.punctures_removed == 2
    assert descriptor.domain_punctures == 2
    assert descriptor.b1 == 4


def test_fiber_descriptor_rejections():
    with pytest.raises(UnsupportedActionError):
        fiber_descriptor(IntegerDihedral(), (pt(Fraction(1, 4)),))
    with pytest.raises(MembershipError):
        fiber_descriptor(CyclicRotation(2), (pt(1), pt(-1)))


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=-3, max_value=3))
def test_fiber_descriptor_orbit_mate_invariance(numerator, shift):
    action = CyclicRotation(4)
    z = pt(Fraction(numerator, 2) + shift, 1)
    base = (z, pt(7))
    mate = z * pt(0, 1)  # rotate the first coordinate a quarter turn
    rotated = fiber_descriptor(action, (mate, pt(7)))
    original = fiber_descriptor(action, base)
    assert rotated.orbit_sizes == original.orbit_sizes
    assert rotated.b1 == original.b1


def test_fiber_descriptor_json():
    data = fiber_descriptor(CyclicRotation(2), (pt(0), pt(1))).to_json()
    assert data["b1"] == 3
    assert data["orbit_sizes"] == [1, 2]
    assert len(data["base"]) == 2


# -- witness pairs ------------------------------------------------------------


def test_witness_rotation_two_three():
    report = quasifibration_witness(CyclicRotation(2), 3)
    assert (report.fixed_anchor.b1, report.free_anchor.b1) == (3, 4)
    assert report.verdict == NOT_QUASIFIBRATION
    assert bool(report)


def test_witness_rotation_pairs_closed_form():
    for m in range(2, 7):
        for n in range(2, 7):
            report = quasifibration_witness(CyclicRotation(m), n)
            assert report.fixed_anchor.b1 == 1 + m * (n - 2)
            assert report.free_anchor.b1 == m * (n - 1)
            assert report.verdict == NOT_QUASIFIBRATION


def test_witness_trivial_rotation_is_inconclusive():
    report = quasifibration_witness(CyclicRotation(1), 3)
    assert report.fixed_anchor.b1 == report.free_anchor.b1 == 2
    assert report.verdict == INCONCLUSIVE
    assert not bool(report)


def test_witness_sign_flip():
    report = quasifibration_witness(SignFlipPunctured(), 2)
    assert (report.fixed_anchor.b1, report.free_anchor.b1) == (3, 4)
    assert report.verdict == NOT_QUASIFIBRATION
    shared = report.fixed_anchor.base[1:]
    assert shared == report.free_anchor.base[1:]


def test_witness_narrative_names_both_anchors():
    report = quasifibration_witness(CyclicRotation(3), 2)
    assert "s=0" in report.narrative
    assert "s'=1/2" in report.narrative
    assert "not" in report.narrative


def test_witness_shares_all_but_the_anchor():
    report = quasifibration_witness(CyclicRotation(4), 5)
    assert report.fixed_anchor.base[1:] == report.free_anchor.base[1:]
    assert report.fixed_anchor.base[0] != report.free_anchor.base[0]
    assert len(report.fixed_anchor.base) == 4


def test_witness_rejections():
    with pytest.raises(UnsupportedActionError):
        quasifibration_witness(IntegerDihedral(), 2)
    with pytest.raises(ValueError):
        quasifibration_witness(CyclicRotation(2), 1)


class _FreeInvolution(PlanarAction):
    """z -> z + 1 folded to order two on a torus-like toy; no fixed point."""

    kind = "free_involution"
    domain_punctures = 0

    def contains(self, z):
        return True

    def orbit_invariant(self, z):
        return z.re % 1, z.im

    def group_order(self):
        return 2

    def special_points(self):
        return ()


def _fold(z):
    return z - 2 if z.re >= 1 else z


class _Folded(PlanarAction):
    """A toy order-2 action whose orbits are the level sets of z^2 after
    folding Re z >= 1 back by 2, so the witness search meets candidates on
    the orbits of points it already chose."""

    kind = "folded"

    def contains(self, z):
        return True

    def orbit_invariant(self, z):
        z = _fold(z)
        return z * z

    def group_order(self):
        return 2

    def special_points(self):
        return ((pt(0), 2),)


def _rotation_mates(order, center):
    """w on the orbit of z: (w - c) / (z - c) is an order-th root of unity."""

    def mates(z, w):
        if z == center or w == center:
            return z == w
        return ((w - center) / (z - center)) ** order == 1

    return mates


# action -> (fixed point s, domain, pairwise orbit relation, whether a point
# has a free orbit), each written out here rather than read from the action
_PAIRWISE_ORACLES = {
    "folded": (
        _Folded(),
        pt(0),
        lambda z: True,
        lambda z, w: _fold(w) in (_fold(z), -_fold(z)),
        lambda z: bool(_fold(z)),
    ),
    "trivial": (
        CyclicRotation(1, pt(1, 1)),
        pt(1, 1),
        lambda z: True,
        _rotation_mates(1, pt(1, 1)),
        lambda z: True,
    ),
    "rotation3": (
        CyclicRotation(3, pt(Fraction(1, 3), -1)),
        pt(Fraction(1, 3), -1),
        lambda z: True,
        _rotation_mates(3, pt(Fraction(1, 3), -1)),
        lambda z: z != pt(Fraction(1, 3), -1),
    ),
    "sign-flip": (
        SignFlipPunctured(),
        pt(0),
        lambda z: z not in (pt(1), pt(-1)),
        lambda z, w: w in (z, -z),
        lambda z: bool(z),
    ),
}


@pytest.mark.parametrize("name", list(_PAIRWISE_ORACLES))
def test_witness_hashed_invariants_match_the_pairwise_scan(name):
    """The witness search against a pairwise scan that shares no orbit code
    with the package: each candidate s + k/2 in the domain with a free orbit
    is kept unless it shares an orbit with a point already kept."""
    action, s, contains, mates, free = _PAIRWISE_ORACLES[name]
    order, punctures = action.group_order(), action.domain_punctures
    for n in range(2, 9):
        chosen, step = [s], 0
        while len(chosen) < n:
            step += 1
            candidate = s + Fraction(step, 2)
            if contains(candidate) and free(candidate) and not any(mates(z, candidate) for z in chosen):
                chosen.append(candidate)
        report = quasifibration_witness(action, n)
        assert report.fixed_anchor.base == (s, *chosen[2:])
        assert report.free_anchor.base == tuple(chosen[1:])
        # the fixed point's orbit has one point, every other orbit has order
        b1_pair = [1 + (n - 2) * order + punctures, (n - 1) * order + punctures]
        assert report.to_json()["b1_pair"] == b1_pair


def test_witness_skips_orbit_mates_of_chosen_points():
    report = quasifibration_witness(_Folded(), 4)
    # 3/2 and 5/2 fold onto 1/2, 2 onto the fixed point 0, and 3 onto 1
    assert report.free_anchor.base == (pt(Fraction(1, 2)), pt(1), pt(Fraction(7, 2)))


def test_witness_requires_a_fixed_point():
    with pytest.raises(NoWitnessError):
        quasifibration_witness(_FreeInvolution(), 2)


def test_witness_json_shape():
    data = quasifibration_witness(CyclicRotation(2), 3).to_json()
    assert data["b1_pair"] == [3, 4]
    assert data["verdict"] == NOT_QUASIFIBRATION
    assert data["action"]["order"] == 2
    assert "s=0" in data["narrative"]

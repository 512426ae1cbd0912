"""Covering maps: the degree-2 quotient, exponential, squaring, and the
power-difference fibration, plus the sampled verifier."""

import cmath
import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbconfig import covering, orbit_config
from orbconfig.covering import (
    CoveringReport,
    _joukowski_float,
    exp_cover,
    exp_fiber,
    exp_joukowski_composite,
    in_punctured_configuration,
    joukowski_branch_points,
    joukowski_fiber,
    joukowski_map,
    power_difference_map,
    squaring_cover,
    squaring_fiber,
    verify_cover,
)
from orbconfig.exactfield import ComplexPoint
from orbconfig.orbmodel import CyclicRotation, DomainError, SignFlipPunctured
from orbconfig.orbit_config import MembershipError, is_orbit_config, sample_orbit_config


def pt(re, im=0) -> ComplexPoint:
    return ComplexPoint.exact(Fraction(re), Fraction(im))


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=8)
gaussian_points = st.builds(pt, small_rationals, small_rationals)


# -- the degree-2 quotient map ---------------------------------------------


def test_quotient_map_branch_values():
    assert joukowski_map(pt(1)) == pt(0)
    assert joukowski_map(pt(-1)) == pt(Fraction(1, 2))
    assert joukowski_map(pt(0, 1)) == pt(Fraction(1, 4))


def test_quotient_map_pole():
    with pytest.raises(DomainError):
        joukowski_map(pt(0))
    with pytest.raises(DomainError):
        _joukowski_float(0j)


def test_quotient_map_modes():
    exact = joukowski_map(pt(2))
    assert type(exact) is ComplexPoint
    assert exact == pt(Fraction(1, 4) - Fraction(5, 16))
    # the float formula the exponential composite uses agrees
    loose = _joukowski_float(2 + 0j)
    assert type(loose) is complex
    assert abs(loose - exact.to_complex()) <= 1e-12


def test_fiber_at_quarter_is_imaginary_pair():
    fiber = joukowski_fiber(pt(Fraction(1, 4)))
    assert set(fiber) == {pt(0, 1), pt(0, -1)}
    assert all(type(w) is ComplexPoint for w in fiber)


def test_fiber_double_roots_at_branch_values():
    assert joukowski_fiber(pt(0)) == (pt(1),)
    assert joukowski_fiber(pt(Fraction(1, 2))) == (pt(-1),)


def test_branch_point_table():
    table = joukowski_branch_points()
    assert [(v, w, d) for v, w, d in table] == [
        (pt(0), pt(1), 2),
        (pt(Fraction(1, 2)), pt(-1), 2),
    ]


@given(gaussian_points)
def test_fiber_matches_reciprocal_pair(w):
    assume(w != pt(0) and w != pt(1) and w != pt(-1))
    v = joukowski_map(w)
    fiber = joukowski_fiber(v)
    assert set(fiber) == {w, w.inverse()}
    assert fiber[0] * fiber[1] == pt(1)


@given(gaussian_points)
def test_deck_identity_exact(w):
    assume(w != pt(0))
    assert joukowski_map(w) == joukowski_map(w.inverse())


def test_fiber_falls_back_to_floats_off_the_square_locus():
    fiber = joukowski_fiber(pt(1))
    assert len(fiber) == 2
    assert all(type(w) is complex for w in fiber)
    assert abs(fiber[0] * fiber[1] - 1) < 1e-12
    for w in fiber:
        assert abs(_joukowski_float(w) - 1) <= 1e-9


# -- exponential cover ------------------------------------------------------


def test_exp_cover_basics():
    one = exp_cover(0j)
    assert type(one) is complex
    assert abs(one - 1) <= 1e-12
    z = complex(0.3, 0.2)
    assert abs(exp_cover(z) - exp_cover(z + 1)) <= 1e-12


def test_exp_fiber_window_of_one():
    fiber = exp_fiber(1 + 0j, window=2)
    assert len(fiber) == 5
    values = sorted(z.real for z in fiber)
    assert values == pytest.approx([-2, -1, 0, 1, 2], abs=1e-12)
    assert all(abs(z.imag) < 1e-12 for z in fiber)


def test_exp_fiber_roundtrip_and_pole():
    w = complex(0.4, -1.1)
    for z in exp_fiber(w, window=1):
        assert abs(exp_cover(z) - w) <= 1e-9
    with pytest.raises(DomainError):
        exp_fiber(0j)
    with pytest.raises(DomainError):
        exp_fiber(1e-12 + 0j)  # within the default tolerance of 0


# -- the composite on dihedral configurations -------------------------------


def test_composite_single_coordinate_hits_quarter():
    (image,) = exp_joukowski_composite((pt(Fraction(1, 4)),))
    assert abs(image - 0.25) <= 1e-12


def test_composite_deck_invariance():
    zs = (pt(Fraction(1, 8), Fraction(1, 2)), pt(Fraction(3, 8), Fraction(-1, 4)))
    base = exp_joukowski_composite(zs)
    shifted = exp_joukowski_composite((zs[0] + 1, zs[1]))
    negated = exp_joukowski_composite((-zs[0], zs[1]))
    for moved in (shifted, negated):
        for a, b in zip(base, moved):
            assert abs(a - b) <= 1e-9


def test_composite_rejects_integral_sums():
    with pytest.raises(MembershipError):
        exp_joukowski_composite((pt(Fraction(1, 4)), pt(Fraction(3, 4))))
    with pytest.raises(MembershipError):
        exp_joukowski_composite((pt(Fraction(1, 4)), pt(Fraction(1, 4)) + 2))


# -- squaring ----------------------------------------------------------------


def test_squaring_spec_pair():
    assert squaring_cover((pt(2), pt(3))) == (pt(4), pt(9))


def test_squaring_fiber_is_sign_enumeration():
    fiber = set(squaring_fiber((pt(4), pt(9))))
    assert fiber == {
        (pt(2), pt(3)),
        (pt(2), pt(-3)),
        (pt(-2), pt(3)),
        (pt(-2), pt(-3)),
    }


def test_squaring_fiber_mixes_exact_and_float_roots():
    # 2 is not a square in Q(i): its roots are complex; 0 has one exact root
    fiber = squaring_fiber((pt(2), pt(0), pt(-4)))
    assert len(fiber) == 4
    for first, zero, last in fiber:
        assert type(first) is complex and abs(first * first - 2) <= 1e-12
        assert zero == pt(0)
        assert last in (pt(0, 2), pt(0, -2))
    assert {(first.real > 0, last) for first, _, last in fiber} == {
        (True, pt(0, 2)), (True, pt(0, -2)), (False, pt(0, 2)), (False, pt(0, -2))
    }


def test_squaring_rejects_punctures_and_collisions():
    with pytest.raises(MembershipError):
        squaring_cover((pt(1), pt(3)))
    with pytest.raises(MembershipError):
        squaring_cover((pt(2), pt(-2)))


def test_squaring_fiber_sizes_up_to_four_coordinates():
    from orbconfig.orbmodel import SignFlipPunctured

    for n in range(1, 5):
        ws = sample_orbit_config(SignFlipPunctured(), n, seed=11 * n).points
        assume_zero_free = all(w != pt(0) for w in ws)
        if not assume_zero_free:
            continue
        vs = squaring_cover(ws)
        fiber = set(squaring_fiber(vs))
        assert len(fiber) == 2**n
        assert ws in fiber
        for tup in fiber:
            assert squaring_cover(tup) == vs


# -- power differences -------------------------------------------------------


def test_power_difference_spec_examples():
    assert power_difference_map((pt(1), pt(2)), 2) == (pt(3),)
    assert power_difference_map((pt(1), pt(2), pt(5)), 1) == (pt(4), pt(3))


def test_power_difference_rejects_shared_orbits():
    with pytest.raises(MembershipError):
        power_difference_map((pt(2), pt(-2)), 2)
    with pytest.raises(ValueError):
        power_difference_map((pt(1), pt(2)), 0)


def test_power_difference_lands_in_punctured_configuration():
    for m in range(1, 5):
        for n in range(2, 5):
            zs = sample_orbit_config(CyclicRotation(m), n, seed=100 * m + n).points
            base = power_difference_map(zs, m)
            assert len(base) == n - 1
            assert in_punctured_configuration(base)


def test_a_sample_for_another_action_gets_the_full_check():
    quarter = (Fraction(-1, 4), Fraction(1, 4), Fraction(-1, 4), Fraction(1, 4))
    zs = sample_orbit_config(CyclicRotation(1), 2, seed=90, box=quarter).points
    # z and -z: one orbit of the rotation of order 2 and of the sign flip
    assert zs[0] == -zs[1]
    with pytest.raises(MembershipError):
        power_difference_map(zs, 2)
    with pytest.raises(MembershipError):
        squaring_cover(zs)
    assert power_difference_map(zs, 1) == (zs[1] - zs[0],)
    shifted = sample_orbit_config(CyclicRotation(1), 2, seed=34).points
    # z and z - 1: one orbit of the integer dihedral action
    assert shifted[0] - shifted[1] == pt(1)
    with pytest.raises(MembershipError):
        exp_joukowski_composite(shifted)


def test_plain_tuples_off_the_configuration_space_still_raise():
    for a in (pt(1, 1), pt(Fraction(1, 2), 3)):
        # a and -a: one orbit for each of the three actions
        for make in (tuple, list, iter):
            with pytest.raises(MembershipError):
                power_difference_map(make((a, -a)), 2)
            with pytest.raises(MembershipError):
                squaring_cover(make((a, -a)))
            with pytest.raises(MembershipError):
                exp_joukowski_composite(make((a, -a)))
    with pytest.raises(MembershipError):
        exp_joukowski_composite((pt(Fraction(1, 3)), pt(Fraction(7, 3))))
    with pytest.raises(MembershipError):
        squaring_cover([pt(1, 1), pt(-1)])


def test_power_difference_map_reads_the_sample_invariants(monkeypatch):
    invariants, draws = [], []
    orbit_invariant, draw = CyclicRotation.orbit_invariant, orbit_config._reduced_point
    monkeypatch.setattr(
        CyclicRotation, "orbit_invariant", lambda a, z: invariants.append(z) or orbit_invariant(a, z)
    )
    monkeypatch.setattr(orbit_config, "_reduced_point", lambda *t: draws.append(t) or draw(*t))
    quarter = (Fraction(-1, 4), Fraction(1, 4), Fraction(-1, 4), Fraction(1, 4))
    zs = sample_orbit_config(CyclicRotation(4), 3, seed=5, box=quarter).points
    # this seed rejects two tuples first: one invariant per drawn coordinate
    assert len(draws) == 9 and len(invariants) == 9
    invariants.clear()
    base = power_difference_map(zs, 4)
    assert invariants == []
    assert power_difference_map(tuple(zs), 4) == base
    assert len(invariants) == 3


def test_in_punctured_configuration_edges():
    assert in_punctured_configuration((pt(1), pt(2)))
    assert not in_punctured_configuration((pt(0), pt(2)))
    assert not in_punctured_configuration((pt(2), pt(2)))
    # membership is exact: points 1e-12 apart are distinct
    near = pt(1, Fraction(1, 10**12))
    assert in_punctured_configuration((pt(1), near))
    assert not in_punctured_configuration((near, pt(2), near))
    assert not in_punctured_configuration((pt(2), pt(1), pt(0)))


# -- sampled verification ----------------------------------------------------


def test_verify_cover_quotient_map_passes():
    report = verify_cover("q", samples=200, seed=3)
    assert report.passed
    assert report.declared_degree == 2
    assert report.used + report.skipped == 200
    assert report.fiber_sizes == ((2, report.used),)
    assert all(entry["verified"] for entry in report.branch_points)
    assert report.max_defect == 0.0
    assert all(mode == "exact" for _, mode, _ in report.deck_checks)


def test_verify_cover_is_deterministic():
    a = verify_cover("q", samples=50, seed=9).to_json()
    b = verify_cover("q", samples=50, seed=9).to_json()
    assert a == b


def test_verify_cover_squaring_degrees():
    for n in (1, 2, 3):
        report = verify_cover("squaring", n=n, samples=40, seed=n)
        assert report.passed
        assert report.declared_degree == 2**n


def test_verify_cover_exp_composite():
    report = verify_cover("qE", n=2, samples=30, window=3, seed=5)
    assert report.passed
    assert report.declared_degree == 4
    assert report.window == 3
    assert report.used + report.skipped == 30
    approx_checks = {name for name, mode, _ in report.deck_checks if mode == "approx"}
    assert "translation_periodicity" in approx_checks
    assert "negation_invariance" in approx_checks
    assert report.max_defect <= report.eps


def test_verify_cover_rejects_unknown_map():
    with pytest.raises(ValueError):
        verify_cover("mystery")
    with pytest.raises(ValueError):
        verify_cover("q", samples=0)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0.0])
def test_verify_cover_rejects_non_finite_or_nonpositive_eps(eps):
    # nan passes an eps <= 0 check, and inf passes every tolerance check
    with pytest.raises(ValueError, match="epsilon"):
        verify_cover("qE", n=2, samples=5, eps=eps)


def test_covering_report_json_shape():
    report = verify_cover("q", samples=20, seed=1)
    data = report.to_json()
    assert data["map"] == "q"
    assert data["pass"] is True
    assert data["seed"] == 1
    assert isinstance(data["fiber_sizes"], list)
    assert {"name", "mode", "ok"} <= set(data["deck_checks"][0])
    assert data["samples"] == data["used"] + data["skipped_singular"]


# -- the squaring verifier against a per-tuple reference ---------------------


def _sign_flip_reference_sample(n: int, seed: int) -> tuple:
    """The squaring verifier's sample as the sampler first drew it: a randint
    per coordinate part on the 1/8 grid of [-2, 2]^2, real part first, each
    tuple decided pair by pair; a tuple holding 0, where squaring branches,
    is drawn again like one off the configuration space."""
    rng = random.Random(seed)
    for _ in range(1000):
        ws = [pt(Fraction(rng.randint(-16, 16), 8), Fraction(rng.randint(-16, 16), 8)) for _ in range(n)]
        if any(w in (pt(0), pt(1), pt(-1)) for w in ws):
            continue
        if not any(z == w or z == -w for z, w in combinations(ws, 2)):
            return tuple(ws)
    raise AssertionError("the reference ran out of attempts")


def _squaring_reference(n: int, samples: int, seed: int) -> dict:
    """verify_cover("squaring", ...).to_json() with the four rows decided
    tuple by tuple on points, as the verifier first decided them."""
    rng = random.Random(seed)
    signs = list(product((1, -1), repeat=n))
    sizes: dict = {}
    checks: dict = {}
    used = 0

    def check(name, ok):
        checks[name] = checks.get(name, True) and ok

    for _ in range(samples):
        ws = _sign_flip_reference_sample(n, rng.randrange(2**32))
        vs = squaring_cover(ws)
        fiber = covering.squaring_fiber(vs)
        distinct = set(fiber)
        sizes[len(distinct)] = sizes.get(len(distinct), 0) + 1
        used += 1
        signed = [tuple(w * s for w, s in zip(ws, pattern)) for pattern in signs]
        check("fiber_is_sign_enumeration", distinct == set(signed))
        check(
            "fiber_in_configuration_space",
            all(is_orbit_config(SignFlipPunctured(), t) for t in fiber),
        )
        check("maps_back", all(tuple(z * z for z in t) == vs for t in fiber))
        check("sign_action_invariance", all(squaring_cover(t) == vs for t in signed))
    passed = all(size == 2**n for size in sizes) and used > 0 and all(checks.values())
    return {
        "map": "squaring",
        "n": n,
        "declared_degree": 2**n,
        "window": None,
        "samples": samples,
        "used": used,
        "skipped_singular": 0,
        "fiber_sizes": [[size, count] for size, count in sorted(sizes.items())],
        "branch_points": [],
        "deck_checks": [
            {"name": name, "mode": "exact", "ok": ok} for name, ok in sorted(checks.items())
        ],
        "max_defect": 0.0,
        "epsilon": 1e-9,
        "seed": seed,
        "pass": passed,
    }


def test_verify_squaring_matches_the_per_tuple_reference():
    # seeds 48, 124, 169 and 243 drew samples holding 0 before squaring
    # samples avoided it
    cases = [(n, seed) for n in range(1, 9) for seed in range(5)]
    cases += [(2, 124), (3, 124), (3, 169), (3, 243), (4, 48)]
    for n, seed in cases:
        report = verify_cover("squaring", n=n, samples=2, seed=seed).to_json()
        assert report == _squaring_reference(n, 2, seed), (n, seed)
        assert report["pass"] is True


def test_squaring_samples_avoid_the_cone_point():
    # the one sample of this seed drew 0 and was skipped: used 0, pass false
    report = verify_cover("squaring", n=7, samples=1, seed=1098435636)
    assert (report.used, report.skipped, report.passed) == (1, 0, True)
    assert report.to_json() == _squaring_reference(7, 1, 1098435636)


def _drop_last(fiber):
    return fiber[:-1]


def _conjugate_one_root(fiber):
    # conj(w)^2 = w^2 only for w on an axis, so take a root off both axes
    first = fiber[0]
    i = next(i for i, z in enumerate(first) if z.re and z.im)
    return (first[:i] + (first[i].conjugate(),) + first[i + 1 :],) + fiber[1:]


def _plant_one(fiber):
    # +-1 are the punctures of the sign-flip domain
    middle = len(fiber) // 2
    t = fiber[middle]
    return fiber[:middle] + ((pt(-1),) + t[1:],) + fiber[middle + 1 :]


@pytest.mark.parametrize(
    "fault, row",
    [
        (_drop_last, "fiber_is_sign_enumeration"),
        (_conjugate_one_root, "maps_back"),
        (_plant_one, "fiber_in_configuration_space"),
    ],
)
def test_verify_squaring_fails_the_row_of_a_planted_fault(monkeypatch, fault, row):
    exact = covering.squaring_fiber
    monkeypatch.setattr(covering, "squaring_fiber", lambda vs: fault(exact(vs)))
    for n in (3, 5):
        report = verify_cover("squaring", n=n, samples=3, seed=4)
        data = report.to_json()
        assert report.used == 3
        assert data["pass"] is False
        assert {"name": row, "mode": "exact", "ok": False} in data["deck_checks"]
        assert data == _squaring_reference(n, 3, 4)


# -- the quotient verifier against a per-sample reference ----------------------


def _joukowski_map_reference(w):
    """joukowski_map as first written, on ComplexPoint arithmetic."""
    if not w:
        raise DomainError("the quotient map has a pole at 0")
    one = pt(1)
    return (one - (one + w * w) * (w * 2).inverse()) * Fraction(1, 4)


def _joukowski_fiber_reference(v, eps=1e-9):
    """joukowski_fiber as first written: the trace and discriminant as
    points, and complex_sqrt_exact on the discriminant."""
    trace = pt(1) * 2 - v * 8
    disc = trace * trace - 4
    half = Fraction(1, 2)
    if not disc:
        return (trace * half,)
    root = covering.complex_sqrt_exact(disc)
    if root is None:
        return covering._joukowski_float_roots(complex(v.re, v.im), eps)
    return ((trace - root) * half, (trace + root) * half)


def _grid_point(rng, span=24, den=8):
    return ComplexPoint.exact(Fraction(rng.randint(-span, span), den), Fraction(rng.randint(-span, span), den))


def _quotient_reference(samples, seed, jmap=_joukowski_map_reference, fiber_of=_joukowski_fiber_reference):
    """verify_cover("q", ...).to_json() with the map evaluated four times a
    sample, as the verifier first decided its rows."""
    rng = random.Random(seed)
    sizes: dict = {}
    checks: dict = {}
    used = skipped = 0

    def check(name, ok):
        checks[name] = checks.get(name, True) and ok

    for _ in range(samples):
        w = _grid_point(rng)
        if w in {pt(0), pt(1), pt(-1)}:
            skipped += 1
            continue
        v = jmap(w)
        fiber = fiber_of(v)
        sizes[len(fiber)] = sizes.get(len(fiber), 0) + 1
        used += 1
        check("fiber_matches_parametrization", set(fiber) == {w, w.inverse()})
        if len(fiber) == 2:
            check("reciprocal_root_product", fiber[0] * fiber[1] == pt(1))
        check("maps_back", all(jmap(root) == v for root in fiber))
        check("deck_invariance", jmap(w.inverse()) == v)
    branch_records = []
    for base, preimage, degree in ((pt(0), pt(1), 2), (pt(Fraction(1, 2)), pt(-1), 2)):
        trace = pt(2) - base * 8
        verified = trace * trace - 4 == pt(0) and fiber_of(base) == (preimage,) and jmap(preimage) == base
        check("branch_data", verified)
        branch_records.append(
            {"value": base.to_json(), "preimage": preimage.to_json(), "local_degree": degree, "verified": verified}
        )
    passed = all(size == 2 for size in sizes) and used > 0 and all(checks.values())
    return {
        "map": "q",
        "n": 1,
        "declared_degree": 2,
        "window": None,
        "samples": samples,
        "used": used,
        "skipped_singular": skipped,
        "fiber_sizes": [[size, count] for size, count in sorted(sizes.items())],
        "branch_points": branch_records,
        "deck_checks": [{"name": name, "mode": "exact", "ok": ok} for name, ok in sorted(checks.items())],
        "max_defect": 0.0,
        "epsilon": 1e-9,
        "seed": seed,
        "pass": passed,
    }


def test_verify_quotient_map_matches_the_per_sample_reference():
    for seed in range(200):
        report = verify_cover("q", samples=60, seed=seed).to_json()
        assert report == _quotient_reference(60, seed), seed
        assert report["pass"] is True
    # the grid's three skipped points come up, and are counted
    assert verify_cover("q", samples=2000, seed=1).skipped > 0
    assert verify_cover("q", samples=2000, seed=1).to_json() == _quotient_reference(2000, 1)


def _random_triple(rng, size):
    return covering._reduced_point(rng.randint(-size, size), rng.randint(-size, size), rng.randint(1, size))


def test_joukowski_map_and_fiber_match_the_point_formulas():
    rng = random.Random(27)
    exact = floats = double = 0
    points = [pt(0), pt(Fraction(1, 2)), pt(1), pt(-1), pt(0, 1), pt(Fraction(1, 4))]
    for t in range(20_000):
        size = (2, 9, 60, 10**6, 10**40)[t % 5]
        points.append(_random_triple(rng, size))
    # the images of the grid points have square discriminants, as do their
    # multiples of the branch values
    points += [joukowski_map(w) for w in (_random_triple(rng, 30) for _ in range(2_000)) if w]
    for z in points:
        if z:
            assert joukowski_map(z) == _joukowski_map_reference(z), z
        fiber = joukowski_fiber(z)
        assert fiber == _joukowski_fiber_reference(z), z
        kinds = {type(w) for w in fiber}
        exact += kinds == {ComplexPoint}
        floats += kinds == {complex}
        double += len(fiber) == 1
    assert exact >= 2_000 and floats >= 10_000 and double >= 2, (exact, floats, double)


def _swap_in_a_second_root(fiber):
    # a fiber of two points whose product is not 1
    return fiber if len(fiber) < 2 else (fiber[0], fiber[1] * 2)


def _negate_roots(fiber):
    # -w is a root of the fiber of the negated trace, and never of v's
    return fiber if len(fiber) < 2 else tuple(-w for w in fiber)


def _double_a_branch_fiber(fiber):
    # a grid sample never has one root, so only the branch rows see this
    return fiber * 2 if len(fiber) == 1 else fiber


@pytest.mark.parametrize(
    "fault, row",
    [
        (lambda fiber: fiber[:1], "fiber_matches_parametrization"),
        (_swap_in_a_second_root, "reciprocal_root_product"),
        (_negate_roots, "maps_back"),
        (_double_a_branch_fiber, "branch_data"),
    ],
    ids=["one_root", "product_two", "negated", "branch_doubled"],
)
def test_verify_quotient_map_fails_the_row_of_a_planted_fiber_fault(monkeypatch, fault, row):
    exact = covering.joukowski_fiber
    faulty = lambda v, eps=1e-9: fault(exact(v, eps))  # noqa: E731
    monkeypatch.setattr(covering, "joukowski_fiber", faulty)
    report = verify_cover("q", samples=40, seed=6)
    data = report.to_json()
    assert data["pass"] is False
    assert {"name": row, "mode": "exact", "ok": False} in data["deck_checks"]
    assert data == _quotient_reference(40, 6, fiber_of=lambda v: fault(_joukowski_fiber_reference(v)))


def test_verify_quotient_map_fails_the_deck_row_of_a_map_wrong_outside_the_disc(monkeypatch):
    exact = covering.joukowski_map

    def faulty(w):
        # J(-w) outside the unit circle: still a map with exact fibers, but
        # J(1/w) != J(w) for w off the circle and off the axes' fixed points
        return exact(-w if w.norm2() > 1 else w)

    monkeypatch.setattr(covering, "joukowski_map", faulty)
    data = verify_cover("q", samples=40, seed=6).to_json()
    assert data["pass"] is False
    assert {"name": "deck_invariance", "mode": "exact", "ok": False} in data["deck_checks"]
    reference = _quotient_reference(40, 6, jmap=lambda w: _joukowski_map_reference(-w if w.norm2() > 1 else w))
    assert data == reference


# -- the exponential composite against a per-combination reference ------------


def _window_counts_reference(n, samples, window, seed, eps=1e-9):
    """The per_window_count rows of verify_cover("qE", ...), each cell built
    from one floor per coordinate per combination, as first written."""
    rng = random.Random(seed)
    unit_box = (Fraction(0), Fraction(7, 8), Fraction(-1), Fraction(1))
    rows = []
    for _ in range(samples):
        zs = sample_orbit_config(covering.IntegerDihedral(), n, seed=rng.randrange(2**32), box=unit_box).points
        vs = exp_joukowski_composite(zs, eps)
        if any(abs((2 - 8 * v) ** 2 - 4) <= eps for v in vs):
            continue
        per_coord = [
            [z for r in covering._joukowski_float_roots(v, eps) for z in covering._strip_logs(r, window)] for v in vs
        ]
        counts: dict = {}
        for combo in product(*per_coord):
            cell = tuple(math.floor(z.real) for z in combo)
            counts[cell] = counts.get(cell, 0) + 1
        rows.append(counts)
    return rows


def test_window_counts_match_the_per_combination_reference(monkeypatch):
    seen = []
    real_counter = covering.Counter

    def recording(cells):
        counts = real_counter(cells)
        seen.append(counts)
        return counts

    monkeypatch.setattr(covering, "Counter", recording)
    for n, samples, window in ((1, 20, 3), (2, 10, 3), (2, 6, 2), (3, 3, 3), (4, 1, 2)):
        for seed in range(8):
            seen.clear()
            report = verify_cover("qE", n=n, samples=samples, window=window, seed=seed)
            assert report.passed
            reference = _window_counts_reference(n, samples, window, seed)
            assert [list(c.items()) for c in seen] == [list(c.items()) for c in reference], (n, seed)


def test_verify_exp_composite_fails_the_window_row_of_a_planted_fault(monkeypatch):
    exact = covering._strip_logs
    # one logarithm short per root: the cells of the last window go uncounted
    monkeypatch.setattr(covering, "_strip_logs", lambda w, window: exact(w, window)[:-1])
    data = verify_cover("qE", n=2, samples=6, seed=3).to_json()
    assert data["pass"] is False
    checks = {entry["name"]: entry["ok"] for entry in data["deck_checks"]}
    assert checks == {
        "maps_back": True,
        "negation_invariance": True,
        "per_window_count": False,
        "translation_periodicity": True,
    }

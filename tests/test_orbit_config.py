"""Configuration membership, the rational sampler, and arrangement builders."""

import copy
import math
import pickle
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbconfig.arrangement import (
    MAX_FIELD_ORDER,
    ArrangementSpec,
    ScalarField,
    complement_contains,
    make_arrangement,
)
import cyclotomic_oracle as oracle
from orbconfig.exactfield import ComplexPoint, Cyclotomic
from orbconfig.orbmodel import (
    CyclicRotation,
    DomainError,
    IntegerDihedral,
    SignFlipPunctured,
)
from orbconfig.orbit_config import (
    DEFAULT_BOX,
    MembershipError,
    SamplingError,
    braid_arrangement,
    cone_coordinates,
    cone_coordinates_inverse,
    in_cone_complement,
    is_orbit_config,
    rotation_arrangement,
    same_orbit,
    sample_orbit_config,
    sign_flip_arrangement,
)


def pt(re, im=0) -> ComplexPoint:
    return ComplexPoint.exact(Fraction(re), Fraction(im))


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=8)
gaussian_points = st.builds(pt, small_rationals, small_rationals)


# -- same_orbit -----------------------------------------------------------


def test_rotation_same_orbit_fourth_roots():
    action = CyclicRotation(4)
    assert same_orbit(action, pt(1), pt(0, 1))
    assert same_orbit(action, pt(1), pt(-1))
    assert not same_orbit(action, pt(1), pt(2))


def _dihedral_window_oracle(z: ComplexPoint, w: ComplexPoint) -> bool:
    """Brute enumeration of w = +-z + k over a window covering the inputs."""
    for k in range(-8, 9):
        if w == z + k or w == -z + k:
            return True
    return False


def test_dihedral_same_orbit_quarter_points():
    action = IntegerDihedral()
    assert same_orbit(action, pt(Fraction(1, 4)), pt(Fraction(7, 4)))
    assert _dihedral_window_oracle(pt(Fraction(1, 4)), pt(Fraction(7, 4)))
    assert not same_orbit(action, pt(Fraction(1, 4)), pt(Fraction(1, 3)))


@given(z=gaussian_points, w=gaussian_points)
def test_dihedral_same_orbit_matches_window_oracle(z, w):
    assert same_orbit(IntegerDihedral(), z, w) == _dihedral_window_oracle(z, w)


# points +-b + k over a few base points b, so orbit mates are common; real
# parts stay in [-4, 4], inside the oracle's window
dihedral_tuples = st.lists(gaussian_points, min_size=1, max_size=3).flatmap(
    lambda bases: st.lists(
        st.builds(
            lambda b, sign, k: b * sign + k,
            st.sampled_from(bases),
            st.sampled_from((1, -1)),
            st.integers(-1, 1),
        ),
        min_size=1,
        max_size=5,
    )
)


@given(pts=dihedral_tuples)
def test_dihedral_config_matches_window_oracle(pts):
    pairwise = not any(_dihedral_window_oracle(z, w) for z, w in combinations(pts, 2))
    assert is_orbit_config(IntegerDihedral(), pts) == pairwise


def test_sign_flip_same_orbit():
    action = SignFlipPunctured()
    assert same_orbit(action, pt(2), pt(-2))
    assert not same_orbit(action, pt(2), pt(3))
    with pytest.raises(DomainError):
        same_orbit(action, pt(1), pt(2))


# -- is_orbit_config ------------------------------------------------------


def test_is_orbit_config_rotation():
    action = CyclicRotation(4)
    assert not is_orbit_config(action, [pt(1), pt(0, 1)])
    assert is_orbit_config(action, [pt(1), pt(0, 2)])
    assert is_orbit_config(action, [pt(1), pt(2)])


def test_is_orbit_config_sign_flip():
    action = SignFlipPunctured()
    assert not is_orbit_config(action, [pt(2), pt(-2)])
    assert not is_orbit_config(action, [pt(1), pt(3)])  # puncture preimage
    assert is_orbit_config(action, [pt(0), pt(2)])  # fixed point is allowed
    assert is_orbit_config(action, [pt(2), pt(3)])


def test_is_orbit_config_decides_near_points_exactly():
    # -1 + 1e-12 i is not on the orbit of 1 under the half turn, however
    # close it is to -1; only the exact orbit mate -1 collides.
    action = CyclicRotation(2)
    tiny = Fraction(1, 10**12)
    assert is_orbit_config(action, [pt(1), pt(-1, tiny)])
    assert not is_orbit_config(action, [pt(1), pt(-1)])
    assert is_orbit_config(IntegerDihedral(), [pt(Fraction(1, 3)), pt(Fraction(2, 3), tiny)])
    assert not is_orbit_config(IntegerDihedral(), [pt(Fraction(1, 3)), pt(Fraction(2, 3))])
    assert is_orbit_config(SignFlipPunctured(), [pt(1, tiny)])


# -- sampler --------------------------------------------------------------


def test_sampler_is_deterministic_and_valid():
    action = CyclicRotation(3)
    first = sample_orbit_config(action, 4, seed=11)
    second = sample_orbit_config(action, 4, seed=11)
    assert first.points == second.points
    assert first.n == 4
    assert is_orbit_config(action, first.points)
    for z in first.points:
        assert type(z) is ComplexPoint
        assert 8 % z.re.denominator == 0 and 8 % z.im.denominator == 0


PINNED_ACTIONS = (
    CyclicRotation(1),
    CyclicRotation(2),
    CyclicRotation(3),
    CyclicRotation(4),
    SignFlipPunctured(),
    IntegerDihedral(),
)
ODD_BOX = (Fraction(-1, 3), Fraction(1, 2), Fraction(1, 5), Fraction(7, 5))
# the draw sample_orbit_config(PINNED_ACTIONS[a], n, seed=10 * a + n, ...)
# at n = 0..5, on DEFAULT_BOX for even n and ODD_BOX for odd n, with
# denominator 8 for n = 0, 1, 4, 5 and 6 for n = 2, 3; each point is given
# by its numerators (re, im) over the denominator
PINNED_DRAWS = (
    # CyclicRotation(1)
    (
        (),
        ((-1, 11),),
        ((-11, -10), (-10, -1)),
        ((-1, 6), (2, 3), (0, 6)),
        ((-1, 3), (-10, 9), (14, -7), (-11, -12)),
        ((2, 6), (3, 7), (4, 10), (-2, 9), (4, 5)),
    ),
    # CyclicRotation(2)
    (
        (),
        ((1, 10),),
        ((3, -4), (9, 4)),
        ((0, 4), (3, 7), (-1, 7)),
        ((-10, -1), (1, 0), (2, -12), (12, 3)),
        ((-1, 2), (2, 2), (-1, 5), (-2, 2), (4, 4)),
    ),
    # CyclicRotation(3)
    (
        (),
        ((-1, 8),),
        ((-8, -5), (-12, 7)),
        ((0, 8), (-2, 2), (2, 4)),
        ((8, -5), (-3, -6), (-4, -6), (-11, -7)),
        ((2, 8), (-2, 11), (4, 3), (2, 5), (2, 11)),
    ),
    # CyclicRotation(4)
    (
        (),
        ((-2, 9),),
        ((-10, -6), (-8, -3)),
        ((2, 3), (3, 3), (0, 5)),
        ((6, -15), (-2, -15), (8, 7), (-12, 11)),
        ((0, 11), (-2, 10), (4, 6), (3, 7), (4, 11)),
    ),
    # SignFlipPunctured()
    (
        (),
        ((1, 7),),
        ((8, -9), (-12, 11)),
        ((-2, 4), (3, 8), (-1, 5)),
        ((10, -9), (-5, 8), (-2, 2), (-15, -2)),
        ((0, 8), (1, 6), (-2, 6), (0, 2), (-2, 9)),
    ),
    # IntegerDihedral()
    (
        (),
        ((-1, 10),),
        ((-4, -11), (11, 4)),
        ((2, 8), (-1, 5), (2, 7)),
        ((-8, 12), (3, 14), (15, 8), (-2, 12)),
        ((-2, 5), (-1, 6), (4, 3), (3, 4), (0, 3)),
    ),
)


def test_sampler_draws_are_pinned():
    # the grid bounds are computed once per call; the draws must not move
    first = sample_orbit_config(CyclicRotation(3), 4, seed=11).points
    assert first == tuple(
        pt(Fraction(a), Fraction(b))
        for a, b in (("3/2", "13/8"), ("3/2", "2"), ("-1/2", "-5/8"), ("2", "7/4"))
    )
    second = sample_orbit_config(SignFlipPunctured(), 3, seed=5, box=ODD_BOX, denominator=6).points
    assert second == tuple(
        pt(Fraction(a), Fraction(b)) for a, b in (("1/3", "2/3"), ("1/2", "2/3"), ("1/2", "4/3"))
    )
    for a, action in enumerate(PINNED_ACTIONS):
        for n, numerators in enumerate(PINNED_DRAWS[a]):
            box = ODD_BOX if n % 2 else DEFAULT_BOX
            den = 6 if n in (2, 3) else 8
            points = sample_orbit_config(action, n, seed=10 * a + n, box=box, denominator=den).points
            assert points == tuple(pt(Fraction(re, den), Fraction(im, den)) for re, im in numerators)


def test_sampler_empty_grid_raises_only_when_drawing():
    box = (Fraction(1, 3), Fraction(1, 3), Fraction(0), Fraction(0))
    assert sample_orbit_config(CyclicRotation(2), 0, box=box).points == ()
    with pytest.raises(ValueError, match="no grid point"):
        sample_orbit_config(CyclicRotation(2), 1, box=box)
    # a box with lo > hi is refused before any draw, even at n = 0
    for inverted in ((Fraction(1, 3), Fraction(1, 4), 0, 0), (0, 0, Fraction(-1, 5), Fraction(-1, 4))):
        with pytest.raises(ValueError, match="empty sampling box"):
            sample_orbit_config(CyclicRotation(2), 0, box=inverted)


def test_sampler_different_seeds_differ():
    action = SignFlipPunctured()
    a = sample_orbit_config(action, 3, seed=1)
    b = sample_orbit_config(action, 3, seed=2)
    assert a.points != b.points


def test_sampler_exhaustion():
    zero_box = (Fraction(0), Fraction(0), Fraction(0), Fraction(0))
    with pytest.raises(SamplingError):
        sample_orbit_config(CyclicRotation(2), 2, seed=0, box=zero_box)


# -- the sampler against a reference drawn with randint ---------------------


def _fraction_power(z: tuple, m: int) -> tuple:
    re, im = Fraction(1), Fraction(0)
    for _ in range(m):
        re, im = re * z[0] - im * z[1], re * z[1] + im * z[0]
    return re, im


def _integral(x: Fraction) -> bool:
    return x.denominator == 1


# pairwise orbit tests on (re, im) Fraction pairs, sharing no code with the
# orbit invariants: (domain test, same-orbit test) per action
REFERENCE_RULES = {
    "rotation(3)": (
        lambda z: True,
        lambda z, w: _fraction_power(z, 3) == _fraction_power(w, 3),
    ),
    "sign_flip": (
        lambda z: z not in ((1, 0), (-1, 0)),
        lambda z, w: z == w or z == (-w[0], -w[1]),
    ),
    "integer_dihedral": (
        lambda z: True,
        lambda z, w: (z[1] == w[1] and _integral(z[0] - w[0]))
        or (z[1] == -w[1] and _integral(z[0] + w[0])),
    ),
}
REFERENCE_ACTIONS = {
    "rotation(3)": CyclicRotation(3),
    "sign_flip": SignFlipPunctured(),
    "integer_dihedral": IntegerDihedral(),
}


def _reference_sample(rule: str, n: int, seed: int, box, den: int, max_attempts: int):
    """sample_orbit_config(...).points as the sampler first drew them: a
    randint per coordinate part over the grid numerators, real part first,
    each tuple decided pair by pair; None when the attempts run out."""
    in_domain, same = REFERENCE_RULES[rule]
    re_lo, re_hi = math.ceil(box[0] * den), math.floor(box[1] * den)
    im_lo, im_hi = math.ceil(box[2] * den), math.floor(box[3] * den)
    rng = random.Random(seed)
    for _ in range(max_attempts):
        pairs = []
        for _ in range(n):
            # randint refuses an empty range with ValueError, as the sampler does
            re = Fraction(rng.randint(re_lo, re_hi), den)
            pairs.append((re, Fraction(rng.randint(im_lo, im_hi), den)))
        if all(map(in_domain, pairs)) and not any(same(z, w) for z, w in combinations(pairs, 2)):
            return tuple(pt(re, im) for re, im in pairs)
    return None


def test_sampler_draws_match_the_randint_reference():
    boxes = (DEFAULT_BOX, (Fraction(-1), Fraction(3, 2), Fraction(-1, 2), Fraction(1)))
    for rule, action in REFERENCE_ACTIONS.items():
        for n in range(6):
            for box in boxes:
                for den in (1, 5, 8):
                    for seed in range(20):
                        expected = _reference_sample(rule, n, seed, box, den, 100)
                        label = (rule, n, box, den, seed)
                        if expected is None:
                            with pytest.raises(SamplingError):
                                sample_orbit_config(action, n, seed, box, den, max_attempts=100)
                        else:
                            got = sample_orbit_config(action, n, seed, box, den, max_attempts=100)
                            assert got.points == expected, label


def test_sampler_empty_grid_matches_the_randint_reference():
    # no point k / 2 with 1/3 <= k / 2 <= 2/5
    box = (Fraction(1, 3), Fraction(2, 5), Fraction(0), Fraction(1))
    for rule, action in REFERENCE_ACTIONS.items():
        assert sample_orbit_config(action, 0, seed=3, box=box, denominator=2).points == ()
        assert _reference_sample(rule, 0, 3, box, 2, 1) == ()
        with pytest.raises(ValueError):
            _reference_sample(rule, 2, 3, box, 2, 1)
        with pytest.raises(ValueError, match="no grid point"):
            sample_orbit_config(action, 2, seed=3, box=box, denominator=2)


# -- the invariants a sample carries ---------------------------------------


def test_sampled_points_behave_as_the_plain_tuple():
    for action in REFERENCE_ACTIONS.values():
        points = sample_orbit_config(action, 3, seed=4).points
        plain = tuple(points)
        assert points == plain and plain == points
        assert hash(points) == hash(plain)
        assert repr(points) == repr(plain)
        for copied in (copy.copy(points), copy.deepcopy(points), pickle.loads(pickle.dumps(points))):
            assert type(copied) is tuple
            assert copied == plain
        # a slice or a sum is a new plain tuple
        assert type(points[1:]) is tuple and type(points + ()) is tuple


def test_sampled_points_are_read_for_an_equal_action_only():
    points = sample_orbit_config(CyclicRotation(3), 3, seed=2).points
    assert is_orbit_config(CyclicRotation(3), points)
    # (2, 3) under the rotation of order 2: z and -z share an orbit
    shared = sample_orbit_config(
        CyclicRotation(1), 2, seed=90, box=(Fraction(-1, 4), Fraction(1, 4), Fraction(-1, 4), Fraction(1, 4))
    ).points
    assert shared[0] == -shared[1]
    assert is_orbit_config(CyclicRotation(1), shared)
    assert not is_orbit_config(CyclicRotation(2), shared)
    assert not is_orbit_config(SignFlipPunctured(), shared)
    assert not is_orbit_config(IntegerDihedral(), shared)
    assert not is_orbit_config(CyclicRotation(2), list(shared))


# -- arrangement builders -------------------------------------------------


def test_braid_arrangement_shape():
    spec = braid_arrangement(3)
    assert spec.dim == 3
    assert len(spec.hyperplanes) == 3
    assert spec.field.is_rational
    assert spec.label == "braid(3)"
    assert len(braid_arrangement(5).hyperplanes) == 10
    assert all(h.offset == 0 for h in spec.hyperplanes)


def test_trivial_rotation_arrangement_is_braid():
    assert rotation_arrangement(3, 1).hyperplanes == braid_arrangement(3).hyperplanes


def test_rotation_arrangement_counts_and_fields():
    two = rotation_arrangement(2, 2)
    assert two.field.is_rational
    assert {h.normal for h in two.hyperplanes} == {
        (Fraction(1), Fraction(-1)),
        (Fraction(1), Fraction(1)),
    }
    nine = rotation_arrangement(3, 3)
    assert nine.field == ScalarField("cyclotomic", 3)
    assert len(nine.hyperplanes) == 9
    assert len(set(nine.hyperplanes)) == 9
    assert len(rotation_arrangement(2, 4).hyperplanes) == 4


def test_sign_flip_arrangement_counts():
    for n, expected in [(0, 1), (1, 3), (2, 7), (3, 13)]:
        spec = sign_flip_arrangement(n)
        assert spec.dim == n + 1
        assert len(spec.hyperplanes) == expected
        assert spec.label == f"case3X({n})"


def test_arrangement_json_round_trip():
    for spec in [braid_arrangement(3), rotation_arrangement(2, 3), sign_flip_arrangement(2)]:
        assert ArrangementSpec.from_json(spec.to_json()) == spec


# -- complement membership matches the predicates -------------------------


@settings(max_examples=60)
@given(zs=st.tuples(gaussian_points, gaussian_points))
def test_rotation_complement_matches_config_predicate_over_q(zs):
    spec = rotation_arrangement(2, 2)
    assert complement_contains(spec, zs) == is_orbit_config(CyclicRotation(2), zs)


@settings(max_examples=25, deadline=None)
@given(zs=st.tuples(gaussian_points, gaussian_points))
def test_rotation_complement_matches_config_predicate_cyclotomic(zs):
    spec = rotation_arrangement(2, 4)
    assert complement_contains(spec, zs) == is_orbit_config(CyclicRotation(4), zs)


@settings(max_examples=60)
@given(xs=st.tuples(gaussian_points, gaussian_points, gaussian_points))
def test_cone_complement_matches_sign_flip_arrangement(xs):
    spec = sign_flip_arrangement(2)
    assert complement_contains(spec, xs) == in_cone_complement(xs)


# -- compiled membership over Q(zeta_3), evaluated in Q(zeta_12) ----------

Q_ZETA3 = ScalarField("cyclotomic", 3)
ZETA3 = Cyclotomic(3, [0, 1])
ZETA3_SQUARED = Cyclotomic(3, [0, 0, 1])  # -1 - zeta_3


def _offset_plane(offset) -> ArrangementSpec:
    """z_1 + zeta_3 z_2 + zeta_3^2 z_3 = offset, with a rational offset."""
    return make_arrangement(3, Q_ZETA3, [((1, ZETA3, ZETA3_SQUARED), offset)])


def test_cyclotomic_complement_with_rational_offset():
    # 1 + zeta_3 + zeta_3^2 = 0, so (offset + w, w, w) lies on the plane
    w = pt(1, 1)
    plus, minus = _offset_plane(Fraction(1, 2)), _offset_plane(Fraction(-1, 2))
    on_plus = (pt(Fraction(3, 2), 1), w, w)
    on_minus = (pt(Fraction(1, 2), 1), w, w)
    for _ in range(2):  # alternating specs must never share compiled forms
        assert not complement_contains(plus, on_plus)
        assert complement_contains(minus, on_plus)
        assert complement_contains(plus, on_minus)
        assert not complement_contains(minus, on_minus)
    assert complement_contains(plus, (pt(Fraction(3, 2), 1), w, pt(1)))


def _on_some_hyperplane_in_q_zeta_12(spec, zs) -> bool:
    """Reference: evaluate every form directly in Q(zeta_12), in the tests'
    own model of the field."""
    m = spec.field.order
    for h in spec.hyperplanes:
        gap = oracle.Element(12, oracle.embed([-c for c in h.offset.coeffs], m, 12))
        for a, z in zip(h.normal, zs):
            term = oracle.mul(oracle.embed(a.coeffs, m, 12), oracle.gaussian(z.re, z.im, 12), 12)
            gap = gap + oracle.Element(12, term)
        if not gap:
            return True
    return False


collision_points = st.sampled_from(
    [pt(0), pt(1), pt(-1), pt(0, 1), pt(1, 1), pt(Fraction(1, 2)), pt(Fraction(3, 2))]
)


@settings(max_examples=60, deadline=None)
@given(zs=st.tuples(collision_points, collision_points, collision_points))
def test_compiled_membership_matches_direct_field_evaluation(zs):
    rows = [(h.normal, h.offset) for h in rotation_arrangement(3, 3).hyperplanes]
    rows.append(((1, ZETA3, ZETA3_SQUARED), Fraction(1, 2)))
    spec = make_arrangement(3, Q_ZETA3, rows)
    assert complement_contains(spec, zs) == (
        not _on_some_hyperplane_in_q_zeta_12(spec, zs)
    )


# -- integer membership kernel against z_i^m = z_j^m on Fraction pairs ------


def _pair_power(z: tuple, m: int) -> tuple:
    # (x + yi)^m on a pair of Fractions, by repeated multiplication
    re, im = Fraction(1), Fraction(0)
    for _ in range(m):
        re, im = re * z[0] - im * z[1], re * z[1] + im * z[0]
    return re, im


def _distinct_powers(pairs: list, m: int) -> bool:
    powers = [_pair_power(z, m) for z in pairs]
    return len(set(powers)) == len(powers)


# large denominators of unequal size, so coordinates rarely share one
big_rationals = st.builds(
    Fraction,
    st.integers(min_value=-(10**30), max_value=10**30),
    st.sampled_from([1, 2, 3, 7, 10**6 + 3, 2**61 - 1, 10**20 + 39, 3**40]),
)
# z_j = u * z_i for a unit u in {1, -1, i, -i}
PLANTS = [lambda x, y: (x, y), lambda x, y: (-x, -y), lambda x, y: (-y, x), lambda x, y: (y, -x)]


def _at_every_order(test):
    """One explicit example per m <= MAX_FIELD_ORDER, so that every compile
    width phi(lcm(m, 4)), 2 to 24, is checked whatever is drawn: z, i z and
    -z, where z and -z share an orbit when 2 | m and i z joins them when
    4 | m."""
    z = (Fraction(1, 3), Fraction(-2, 7))
    pairs = [z, PLANTS[2](*z), PLANTS[1](*z)]
    for m in range(1, MAX_FIELD_ORDER + 1):
        test = example(m=m, pairs=list(pairs), plant=None)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=MAX_FIELD_ORDER),
    pairs=st.lists(st.tuples(big_rationals, big_rationals), min_size=2, max_size=4),
    plant=st.none() | st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from(PLANTS)),
)
@_at_every_order
def test_integer_membership_matches_fraction_power_oracle(m, pairs, plant):
    if plant is not None:
        i, j, unit = plant
        i, j = i % len(pairs), j % len(pairs)
        if i != j:
            pairs[j] = unit(*pairs[i])
    point = [ComplexPoint.exact(x, y) for x, y in pairs]
    spec = rotation_arrangement(len(pairs), m)
    assert complement_contains(spec, point) == _distinct_powers(pairs, m)


# -- the coning homeomorphism ---------------------------------------------


def test_cone_coordinates_round_trip():
    lam = pt(2, 1)
    w = (pt(1, 1), pt(3))
    xs = cone_coordinates(lam, w)
    assert xs[0] == lam
    assert xs[1] == lam * w[0]
    assert complement_contains(sign_flip_arrangement(2), xs)
    lam_back, w_back = cone_coordinates_inverse(xs)
    assert lam_back == lam and w_back == w


def test_cone_coordinates_rejects_bad_inputs():
    with pytest.raises(MembershipError):
        cone_coordinates(pt(0), (pt(2), pt(3)))
    with pytest.raises(MembershipError):
        cone_coordinates(pt(1), (pt(1), pt(3)))  # puncture preimage
    with pytest.raises(MembershipError):
        cone_coordinates(pt(1), (pt(2), pt(-2)))  # one orbit twice
    with pytest.raises(MembershipError):
        cone_coordinates_inverse((pt(0), pt(1)))


@settings(max_examples=60)
@given(
    lam=gaussian_points,
    w=st.tuples(gaussian_points, gaussian_points),
)
def test_cone_coordinates_round_trips_on_valid_inputs(lam, w):
    if lam == pt(0) or not is_orbit_config(SignFlipPunctured(), w):
        with pytest.raises(MembershipError):
            cone_coordinates(lam, w)
        return
    lam_back, w_back = cone_coordinates_inverse(cone_coordinates(lam, w))
    assert lam_back == lam and w_back == w

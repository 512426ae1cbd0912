"""Flat posets, arrangement polynomials, chambers, and finite field counts.

Frozen constants come from independent computations: braid and sign-flip
chamber counts from the classical product formulas and from hand counts by
deletion of coordinate hyperplanes, cyclotomic characteristic polynomials
from direct orbit counting over F_q with q = 1 mod m, and small chamber
pictures (concurrent lines, crossing lines) from elementary geometry.
"""

import hashlib
import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cyclotomic_oracle as oracle
from cyclotomic_oracle import Element
from orbconfig import arrangement
from orbconfig.arrangement import (
    MAX_FIELD_ORDER,
    ArrangementSpec,
    BadPrimeError,
    CentralityError,
    NotRealError,
    Polynomial,
    QQ,
    ScalarField,
    SizeGuardError,
    chamber_count,
    characteristic_polynomial,
    common_point,
    enumerate_chambers,
    finite_field_count,
    flat_poset,
    good_primes,
    is_simplicial,
    make_arrangement,
    poincare_polynomial,
)
from orbconfig.cli import BUILDER_SIZES, _check_rails
from orbconfig.exactfield import Cyclotomic, cyclotomic_polynomial
from orbconfig.orbit_config import (
    braid_arrangement,
    rotation_arrangement,
    sign_flip_arrangement,
)
from test_acceptance import _field_rail_spec, _rail_spec

F = Fraction


def lines(*rows, dim=2):
    return make_arrangement(dim, QQ, [(tuple(map(F, r[:-1])), F(r[-1])) for r in rows])


# Field values cross into the tests' own model of Q(zeta_m)
# (tests/cyclotomic_oracle.py) and back, so that every sum, product and
# quotient a test computes is the model's; over Q they are Fractions.


def _lift(x):
    """A spec's scalar as the model's value: Element over Q(zeta_m)."""
    return Element(x.order, x.coeffs) if isinstance(x, Cyclotomic) else x


def _package(x):
    """The model's value as make_arrangement reads it."""
    return Cyclotomic(x.m, x.coeffs) if isinstance(x, Element) else x


def _lifted_rows(spec):
    """[a | b] of each hyperplane of the read view, in the model."""
    return [[_lift(a) for a in h.normal] + [_lift(h.offset)] for h in spec.hyperplanes]


def _oracle_zero(field):
    return F(0) if field.is_rational else Element(field.order)


# -- construction and normalization ----------------------------------------


def test_make_arrangement_normalizes_and_dedups():
    spec = lines((2, -2, 0), (1, -1, 0), (-1, 1, 0), (0, 3, 1))
    assert len(spec.hyperplanes) == 2
    assert spec.hyperplanes[0].normal == (F(0), F(1))
    assert spec.hyperplanes[0].offset == F(1, 3)
    with pytest.raises(ValueError):
        lines((0, 0, 1))
    with pytest.raises(ValueError):
        make_arrangement(3, QQ, [((F(1), F(0)), F(0))])


def test_make_arrangement_dedups_cyclotomic_scalings():
    # (zeta, -1) times zeta^2 is (1, -zeta^2) = (1, 1 + zeta)
    field = ScalarField("cyclotomic", 3)
    spec = make_arrangement(
        2,
        field,
        [
            ((Cyclotomic(3, [0, 1]), Cyclotomic(3, [-1])), field.zero()),
            ((Cyclotomic(3, [1]), Cyclotomic(3, [1, 1])), field.zero()),
        ],
    )
    assert len(spec.hyperplanes) == 1


def test_make_arrangement_reads_ints_fractions_and_rational_cyclotomics_alike():
    hyperplanes = [((2, -4, 0), 1), ((0, 3, -1), -2), ((1, 1, 1), 0)]

    def build(to_scalar):
        return make_arrangement(
            3, QQ, [(tuple(map(to_scalar, normal)), to_scalar(offset)) for normal, offset in hyperplanes]
        )

    as_ints = build(int)
    assert as_ints.rows == ((0, 3, -1, -2), (2, -4, 0, 1), (1, 1, 1, 0))
    # scaled by 3/2: the same rows after the lcm and gcd
    assert build(lambda x: F(x) * F(3, 2)) == as_ints
    assert build(lambda x: Cyclotomic.from_rational(5, F(x))) == as_ints
    mixed = [((2, F(-4), Cyclotomic.from_rational(3, F(0))), F(1))]
    mixed += [(tuple(map(F, normal)), offset) for normal, offset in hyperplanes[1:]]
    assert make_arrangement(3, QQ, mixed) == as_ints
    with pytest.raises(ValueError, match="does not lie in Q"):
        make_arrangement(2, QQ, [((1, Cyclotomic(3, [0, 1])), 0)])
    with pytest.raises(ValueError, match="normal of length 1 in dimension 2"):
        make_arrangement(2, QQ, [((F(1),), 0)])
    with pytest.raises(ValueError, match="zero normal"):
        make_arrangement(2, QQ, [((0, F(0)), F(1))])


def _coefficients(x):
    return x.coeffs if isinstance(x, Cyclotomic) else (x,)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), m=st.sampled_from([1, 3, 4, 5, 13, MAX_FIELD_ORDER]))
def test_make_arrangement_ignores_scaling_and_order(data, m):
    # each equation times a nonzero scalar, outside Q over Q(zeta_m) so that
    # normalizing needs a norm cofactor, some of them twice, in any order
    field = QQ if m == 1 else ScalarField("cyclotomic", m)
    spec = data.draw(_affine_specs(field))
    if field.is_rational:
        scalar = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    else:
        residues = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=2), min_size=1, max_size=4)
        scalar = residues.map(lambda c: Element(m, c))
    scalar = scalar.filter(bool)
    raw = []
    for *normal, offset in _lifted_rows(spec):
        for _ in range(data.draw(st.integers(min_value=1, max_value=2))):
            c = data.draw(scalar)
            raw.append((tuple(_package(c * a) for a in normal), _package(c * offset)))
    rebuilt = make_arrangement(spec.dim, field, data.draw(st.permutations(raw)))
    assert rebuilt.rows == spec.rows
    assert rebuilt.hyperplanes == spec.hyperplanes
    # the view scales each hyperplane to a leading one and lists them once,
    # in the lexicographic order of those coefficients
    assert all(next(a for a in h.normal if a) == 1 for h in spec.hyperplanes)
    keys = [tuple(c for a in h.normal + (h.offset,) for c in _coefficients(a)) for h in spec.hyperplanes]
    assert keys == sorted(set(keys))


# -- flat posets and Mobius values ------------------------------------------


def test_flat_poset_of_three_concurrent_planes():
    poset = flat_poset(braid_arrangement(3))
    assert poset.count_by_dim() == {3: 1, 2: 3, 1: 1}
    assert poset.rank == 2
    by_size = {}
    for f in poset.flats:
        by_size.setdefault(len(f.contains), []).append(f.mobius)
    assert by_size[0] == [1]
    assert by_size[1] == [-1, -1, -1]
    assert by_size[3] == [2]


def test_mobius_interval_zero_sum():
    for spec in [braid_arrangement(4), sign_flip_arrangement(2)]:
        poset = flat_poset(spec)
        for top in poset.flats:
            if not top.contains:
                continue
            interval = [f.mobius for f in poset.flats if f.contains <= top.contains]
            assert sum(interval) == 0


def test_mobius_signs_alternate_with_codimension():
    for spec in [braid_arrangement(4), sign_flip_arrangement(2), rotation_arrangement(2, 3)]:
        poset = flat_poset(spec)
        for f in poset.flats:
            codim = spec.dim - f.dim
            assert f.mobius != 0
            assert f.mobius * (-1) ** codim > 0


def _oracle_rank(rows):
    """(rank of the normals, consistency) of the rows [a | b] by forward
    Fraction elimination; a pivot in the offset column is a contradiction."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        if col == len(rows[0]) - 1:
            return rank, False
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] / rows[rank][col]
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank, True


def _oracle_flats(dim, rows):
    """{members: (dim, mu)} from every subset of the hyperplanes.

    Each consistent subset S cuts out the flat whose members are the
    hyperplanes that add no rank to S; mu comes from Whitney's crosscut
    formula mu(X) = sum of (-1)^|S| over the subsets S cutting out X.
    """
    flats = {}
    for size in range(len(rows) + 1):
        for subset in combinations(range(len(rows)), size):
            chosen = [rows[i] for i in subset]
            rank, consistent = _oracle_rank(chosen)
            if not consistent:
                continue
            members = frozenset(
                j for j, row in enumerate(rows)
                if _oracle_rank(chosen + [row]) == (rank, True)
            )
            flat_dim, mu = flats.get(members, (dim - rank, 0))
            flats[members] = (flat_dim, mu + (-1) ** size)
    return flats


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(min_value=1, max_value=3), data=st.data())
def test_flat_poset_matches_brute_force_intersections(dim, data):
    entry = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    raw = data.draw(
        st.lists(
            st.tuples(st.tuples(*([entry] * dim)), entry), min_size=0, max_size=6
        )
    )
    raw = [(normal, offset) for normal, offset in raw if any(normal)]
    spec = make_arrangement(dim, QQ, raw)
    rows = [list(h.normal) + [h.offset] for h in spec.hyperplanes]
    poset = flat_poset(spec)
    found = {f.contains: (f.dim, f.mobius) for f in poset.flats}
    assert len(found) == len(poset.flats)
    assert found == _oracle_flats(dim, rows)


def _moment_curve_spec():
    """x . (1, t, t^2, t^3) = t^4 for t = 1..8: x lies on the hyperplane of
    t exactly when t is a root of t^4 - x_4 t^3 - x_3 t^2 - x_2 t - x_1.
    So any k <= 4 of them meet in a flat of dimension 4 - k (a Vandermonde
    system) that no other one contains, since a monic quartic has at most
    four roots."""
    return make_arrangement(4, QQ, [((1, t, t * t, t**3), t**4) for t in range(1, 9)])


def test_flat_poset_of_the_moment_curve_arrangement():
    # generic: every subset of at most four hyperplanes is a flat of its own
    spec = _moment_curve_spec()
    poset = flat_poset(spec)
    assert poset.count_by_dim() == {4: 1, 3: 8, 2: 28, 1: 56, 0: 70}
    assert all(f.mobius == (-1) ** (4 - f.dim) for f in poset.flats)
    assert characteristic_polynomial(poset).coeffs == (70, -56, 28, -8, 1)
    assert chamber_count(poset) == (163, 35)
    rows = [list(h.normal) + [h.offset] for h in spec.hyperplanes]
    assert {f.contains: (f.dim, f.mobius) for f in poset.flats} == _oracle_flats(4, rows)


@pytest.mark.parametrize(
    "dim, raw",
    [
        # five planes through the origin of Q^3, and one that misses it
        (3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((1, 1, 1), 0), ((1, 2, 3), 0), ((1, 1, 0), 1)]),
        # six hyperplanes through (1, 1, 1, 1) in Q^4, one parallel to one of them, one generic
        (
            4,
            [
                ((1, 0, 0, 0), 1),
                ((0, 1, 0, 0), 1),
                ((0, 0, 1, 0), 1),
                ((0, 0, 0, 1), 1),
                ((1, 1, 1, 1), 4),
                ((1, -1, 0, 0), 0),
                ((1, 0, 0, 0), 3),
                ((1, 2, -1, 3), 2),
            ],
        ),
    ],
)
def test_flat_poset_of_points_shared_by_many_hyperplanes(dim, raw):
    spec = make_arrangement(dim, QQ, raw)
    poset = flat_poset(spec)
    assert poset.count_by_dim()[0] >= 2
    rows = [list(h.normal) + [h.offset] for h in spec.hyperplanes]
    assert {f.contains: (f.dim, f.mobius) for f in poset.flats} == _oracle_flats(dim, rows)


def _rational_flats(spec):
    """{frozenset of (normal, offset) as rationals: (dim, mu)} of a spec over
    either field, so that posets over Q and over Q(zeta_m) compare."""
    def rational(x):
        return x.as_rational() if isinstance(x, Cyclotomic) else x

    keys = [
        (tuple(rational(a) for a in h.normal), rational(h.offset))
        for h in spec.hyperplanes
    ]
    return {
        frozenset(keys[i] for i in f.contains): (f.dim, f.mobius)
        for f in flat_poset(spec).flats
    }


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(min_value=1, max_value=4), data=st.data())
def test_flat_poset_agrees_across_fields(dim, data):
    # the rational search runs on integer rows, the cyclotomic one on field
    # elements; the same hyperplanes must give the same lattice
    entry = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    raw = data.draw(
        st.lists(
            st.tuples(st.tuples(*([entry] * dim)), entry), min_size=0, max_size=8
        )
    )
    raw = [(normal, offset) for normal, offset in raw if any(normal)]
    over_q = make_arrangement(dim, QQ, raw)
    over_zeta = make_arrangement(dim, ScalarField("cyclotomic", 3), raw)
    assert _rational_flats(over_q) == _rational_flats(over_zeta)


def _all_pairs_mobius(poset):
    """{members: mu} by mu(X) = -sum of mu(Z) over every flat Z strictly
    containing X, walking the flats from the ambient space down."""
    mu = {}
    for f in sorted(poset.flats, key=lambda f: -f.dim):
        above = [mu[g] for g in mu if g < f.contains]
        mu[f.contains] = -sum(above) if f.contains else 1
    return mu


def _random_spec(rng, dim, count):
    raw = []
    for _ in range(count):
        normal = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
        if any(normal):
            raw.append((normal, F(rng.randint(-2, 2))))
    return make_arrangement(dim, QQ, raw)


def test_mobius_matches_all_pairs_recursion():
    rng = random.Random(5)
    specs = [
        braid_arrangement(5),
        sign_flip_arrangement(3),
        rotation_arrangement(3, 3),
    ] + [_random_spec(rng, rng.randint(1, 4), rng.randint(1, 8)) for _ in range(40)]
    for spec in specs:
        poset = flat_poset(spec)
        assert {f.contains: f.mobius for f in poset.flats} == _all_pairs_mobius(poset)


def _zeta3_pencil():
    """z1 = 0, z2 = 0 and z1 = zeta^k z2 (k = 0, 1, 2) over Q(zeta_3), five
    lines through the origin, and z1 + zeta z2 = 1, which meets each of them
    in a point of its own."""
    one, zero = Element(3, [1]), Element(3)
    raw = [((one, zero), zero), ((zero, one), zero)]
    raw += [((one, -oracle.zeta(3, k)), zero) for k in range(3)]
    raw.append(((one, oracle.zeta(3)), one))
    packed = [(tuple(map(_package, normal)), _package(offset)) for normal, offset in raw]
    return make_arrangement(2, ScalarField("cyclotomic", 3), packed)


@pytest.mark.parametrize(
    "spec, digest",
    [
        (braid_arrangement(6), "c473b933b59a8bb2bc816bd25e55cf9375302777882d475b4d52297d9d7b9bf9"),
        (sign_flip_arrangement(3), "760c15e3346d7923acde776836c5cf5100eb1ea934499e064d51d48c77484e7c"),
        (rotation_arrangement(3, 4), "6cbcca3387259b5eaac4a464af7b67d931e6589e8280dcadf42ad1adbffce071"),
        (_moment_curve_spec(), "6f83a065d70c672c761e2972a36ad3d9fb2bfe21072d4c7b0209b30aff91a9b0"),
        (
            ArrangementSpec.from_json(json.loads(_field_rail_spec(11, 11))),
            "15222bae93f3882700d00b3e5b25e22527980485168ee99234cea4f6b86bf703",
        ),
        (
            ArrangementSpec.from_json(json.loads(_rail_spec(central=True))),
            "1145630fb5226c71290af143f12cfc7c55bb32263b8f45e455011426ba687838",
        ),
    ],
    ids=["braid-n6", "case3X-n3", "case1-n3-m4", "moment-curve", "field-rail-m11", "rail-central"],
)
def test_flat_poset_discovery_order_is_pinned(spec, digest):
    # the SHA-256 of the JSON list of [sorted members, dim, mu] per flat, in
    # FlatPoset.flats order: the walk's discovery order, which the other
    # tests compare only with the same walk
    flats = [(sorted(f.contains), f.dim, f.mobius) for f in flat_poset(spec).flats]
    assert hashlib.sha256(json.dumps(flats).encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "spec",
    [
        # x = 0, y = 0 and x = y through the line x = y = 0, a triple point
        # on every plane z = c, among three generic planes
        make_arrangement(
            3, QQ, [((1, 0, 0), 0), ((0, 1, 0), 0), ((1, -1, 0), 0), ((0, 0, 1), 1), ((1, 2, 3), 4), ((2, -1, 5), 3)]
        ),
        # five central planes in Q^3 with normals (1, t, t^2): any three are
        # independent, so only the origin has more members than its codimension
        make_arrangement(3, QQ, [((1, t, t * t), 0) for t in range(1, 6)]),
        # braid(4) plus two generic hyperplanes, which cut its non-boolean
        # flats into more
        make_arrangement(
            4,
            QQ,
            [(h.normal, h.offset) for h in braid_arrangement(4).hyperplanes]
            + [((1, 2, 4, 8), 1), ((1, 3, 9, 27), 2)],
        ),
        _zeta3_pencil(),
    ],
    ids=["triple-point", "central-origin", "braid4-plus-two", "zeta3-pencil"],
)
def test_mobius_of_boolean_and_other_flats_matches_the_crosscut_and_all_pairs_oracles(spec, monkeypatch):
    # flat_poset reads mu(X) = (-1)^codim X off a flat with exactly codim X
    # members and sums mu over the up-set of any other; each spec has both
    # kinds, and the Q(zeta_3) one takes the certified walk over F_p
    walks = []
    exact_walk = arrangement._exact_walk
    monkeypatch.setattr(arrangement, "_exact_walk", lambda spec: walks.append(spec) or exact_walk(spec))
    poset = flat_poset(spec)
    assert walks == ([spec] if spec.field.is_rational else [])
    boolean = [len(f.contains) == spec.dim - f.dim for f in poset.flats]
    assert any(boolean) and not all(boolean)
    assert {f.contains: f.mobius for f in poset.flats} == _all_pairs_mobius(poset)
    oracle_flats = _oracle_flats(spec.dim, _lifted_rows(spec))
    assert {f.contains: (f.dim, f.mobius) for f in poset.flats} == oracle_flats


# -- characteristic and Poincare polynomials --------------------------------


def test_braid_characteristic_polynomials():
    assert characteristic_polynomial(flat_poset(braid_arrangement(3))) == Polynomial(
        (0, 2, -3, 1)
    )
    assert characteristic_polynomial(flat_poset(braid_arrangement(4))) == Polynomial(
        (0, -6, 11, -6, 1)
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_braid_poincare_product_formula(n):
    pi = poincare_polynomial(flat_poset(braid_arrangement(n)))
    product = Polynomial((1,))
    for i in range(1, n):
        product = product * Polynomial((1, i))
    assert pi == product


@pytest.mark.parametrize("n, m", [(3, 4), (3, 5), (4, 3)])
def test_rotation_poincare_freeness_product(n, m):
    # rotation_arrangement(n, m) is the reflection arrangement of G(m, m, n),
    # a free arrangement with exponents 1, m + 1, ..., (n - 2)m + 1 and
    # (n - 1)(m - 1) (Orlik-Terao, Arrangements of Hyperplanes, 6.4), so its
    # Poincare polynomial is the product of the factors 1 + e t.
    exponents = [k * m + 1 for k in range(n - 1)] + [(n - 1) * (m - 1)]
    product = Polynomial((1,))
    for e in exponents:
        product = product * Polynomial((1, e))
    assert poincare_polynomial(flat_poset(rotation_arrangement(n, m))) == product


def test_rotation_arrangement_cyclotomic_invariants():
    two = flat_poset(rotation_arrangement(2, 3))
    assert characteristic_polynomial(two) == Polynomial((2, -3, 1))
    assert poincare_polynomial(two) == Polynomial((1, 3, 2))
    # F_q orbit count for q = 1 mod 3: (q-1)(q-4)^2 points off the
    # arrangement, i.e. chi(t) = (t-1)(t-4)^2
    three = flat_poset(rotation_arrangement(3, 3))
    assert characteristic_polynomial(three) == Polynomial((-16, 24, -9, 1))
    with pytest.raises(NotRealError):
        chamber_count(three)


def test_d3_characteristic_matches_brute_force_field_count():
    spec = rotation_arrangement(3, 2)
    chi = characteristic_polynomial(flat_poset(spec))
    assert chi == Polynomial((-6, 11, -6, 1))
    assert finite_field_count(spec, 7) == chi(7) == 120


def _assert_deletion_restriction(spec, index):
    """chi(A) = chi(A - H) - chi(A^H) for H the index-th hyperplane: the
    deletion drops H's row, and the restriction is the division oracle's
    (_oracle_restrict)."""
    deleted = ArrangementSpec(spec.dim, spec.field, spec.rows[:index] + spec.rows[index + 1 :])
    chi = characteristic_polynomial(flat_poset(spec))
    assert chi == characteristic_polynomial(flat_poset(deleted)) - characteristic_polynomial(
        flat_poset(_oracle_restrict(spec, index))
    ), (spec.rows, index)


def test_deletion_restriction_recursion():
    for spec in [
        braid_arrangement(4),
        sign_flip_arrangement(2),
        rotation_arrangement(2, 3),
        lines((1, 0, 0), (1, 0, 1), (0, 1, 0)),
    ]:
        _assert_deletion_restriction(spec, 0)


# -- chamber counts ----------------------------------------------------------


def test_zaslavsky_counts():
    assert chamber_count(flat_poset(braid_arrangement(3))) == (6, 0)
    assert chamber_count(flat_poset(braid_arrangement(4))) == (24, 0)
    assert chamber_count(flat_poset(rotation_arrangement(2, 2))) == (4, 0)
    assert chamber_count(flat_poset(sign_flip_arrangement(1))) == (6, 0)
    assert chamber_count(flat_poset(sign_flip_arrangement(2))) == (32, 0)
    # two points on a line: 3 chambers, 1 bounded
    assert chamber_count(flat_poset(lines((1, 0), (1, -1), dim=1))) == (3, 1)


def test_bounded_chambers_need_an_essential_arrangement():
    # two parallel lines cut Q^2 into three chambers, the middle one a strip
    assert chamber_count(flat_poset(lines((1, 0, 0), (1, 0, 1)))) == (3, 0)
    # with no hyperplane the one chamber is the whole space, bounded only
    # when the space is the point Q^0
    assert chamber_count(flat_poset(make_arrangement(2, QQ, []))) == (1, 0)
    assert chamber_count(flat_poset(make_arrangement(0, QQ, []))) == (1, 1)
    # essential: the triangle cut out by three lines in general position
    assert chamber_count(flat_poset(lines((1, 0, 0), (0, 1, 0), (1, 1, 1)))) == (7, 1)


def test_sign_flip_counts_against_field_counts():
    spec = sign_flip_arrangement(2)
    chi = characteristic_polynomial(flat_poset(spec))
    for q in good_primes(spec, 2):
        assert finite_field_count(spec, q) == chi(q)


def _witness_ok(spec, chamber):
    for sign, h in zip(chamber.signs, spec.hyperplanes):
        gap = sum(a * x for a, x in zip(h.normal, chamber.witness)) - h.offset
        assert gap != 0
        assert (gap > 0) == (sign == "+")


def test_enumerate_chambers_braid3():
    spec = braid_arrangement(3)
    chambers = enumerate_chambers(spec)
    assert len(chambers) == 6
    assert len(chambers.sign_vectors()) == 6
    for c in chambers.chambers:
        _witness_ok(spec, c)
    assert chambers.to_json()["count"] == 6


def test_enumerate_chambers_crossing_lines():
    chambers = enumerate_chambers(rotation_arrangement(2, 2))
    assert len(chambers) == 4
    assert chambers.sign_vectors() == {"++", "+-", "-+", "--"}


def test_chamber_set_builds_its_witnesses_on_first_read():
    segment = lines((1, 0), (1, -1), dim=1)
    for spec in (braid_arrangement(3), segment):
        chambers = enumerate_chambers(spec)
        count, signs = len(chambers), chambers.sign_vectors()
        assert "chambers" not in vars(chambers)
        built = chambers.chambers
        assert chambers.chambers is built
        assert count == len(built) == chambers.to_json()["count"]
        assert signs == {c.signs for c in built}
        assert all(len(c.signs) == len(spec.rows) for c in built)
        for c in built:
            _witness_ok(spec, c)


def test_enumeration_guard_rails():
    # the rails of is_simplicial, which runs the same enumeration
    assert len(enumerate_chambers(sign_flip_arrangement(3))) == 240  # 13 hyperplanes
    lines = [((F(1), F(k)), F(0)) for k in range(17)]  # through the origin of Q^2
    assert len(enumerate_chambers(make_arrangement(2, QQ, lines[:16]))) == 32
    with pytest.raises(SizeGuardError):
        enumerate_chambers(make_arrangement(2, QQ, lines))

    def axis(dim):
        return make_arrangement(dim, QQ, [(tuple(F(int(i == 0)) for i in range(dim)), F(0))])

    assert len(enumerate_chambers(axis(6))) == 2
    with pytest.raises(SizeGuardError):
        enumerate_chambers(axis(7))
    with pytest.raises(NotRealError):
        enumerate_chambers(rotation_arrangement(2, 3))


small_coeff = st.integers(min_value=-2, max_value=2)


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_enumeration_matches_zaslavsky(dim, data):
    rows = data.draw(
        st.lists(
            st.tuples(
                st.tuples(*([small_coeff] * dim)),
                st.integers(min_value=-1, max_value=1),
            ),
            min_size=1,
            max_size=4,
        )
    )
    rows = [(normal, offset) for normal, offset in rows if any(normal)]
    if not rows:
        return
    spec = make_arrangement(dim, QQ, rows)
    chambers = enumerate_chambers(spec)
    total, _ = chamber_count(flat_poset(spec))
    assert len(chambers) == total
    assert len(chambers.sign_vectors()) == total
    for c in chambers.chambers:
        _witness_ok(spec, c)


def _central_spec(dim, normals):
    raw = [(tuple(map(F, a)), F(0)) for a in normals if any(a)]
    return make_arrangement(dim, QQ, raw) if raw else None


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(min_value=2, max_value=4), data=st.data())
def test_central_chambers_match_a_translate(dim, data):
    """A central spec's chambers come from its affine slice; translated by
    an integer vector off every hyperplane, the same hyperplanes take the
    affine path, and the two must realize the same sign vectors."""
    normal = st.tuples(*([small_coeff] * dim))
    spec = _central_spec(dim, data.draw(st.lists(normal, min_size=1, max_size=7)))
    if spec is None:
        return
    shift = data.draw(st.tuples(*([st.integers(min_value=-3, max_value=3)] * dim)))
    if any(sum(a * t for a, t in zip(h.normal, shift)) == 0 for h in spec.hyperplanes):
        # with |a_j| <= 2, a . (1, 3, 9, ...) is nonzero for every normal a
        shift = tuple(3**j for j in range(dim))
    moved = make_arrangement(
        dim, QQ, [(h.normal, sum(a * t for a, t in zip(h.normal, shift))) for h in spec.hyperplanes]
    )
    assert [h.normal for h in moved.hyperplanes] == [h.normal for h in spec.hyperplanes]
    assert all(h.offset != 0 for h in moved.hyperplanes)
    chambers = enumerate_chambers(spec)
    realized = chambers.sign_vectors()
    assert enumerate_chambers(moved).sign_vectors() == realized
    flip = str.maketrans("+-", "-+")
    assert {signs.translate(flip) for signs in realized} == realized
    assert len(chambers) == len(realized)
    for c in chambers.chambers:
        _witness_ok(spec, c)


def _oracle_strictly_feasible(rows):
    """Whether {x : a . x + c > 0 for every (a, c) in rows} is nonempty.

    Fourier-Motzkin on the last variable: each pair of a lower and an upper
    bound on it combines, positively, into one strict row without it, and
    the system is feasible exactly when the combined one is.  Rows are
    scaled to a leading coefficient of +-1 and deduplicated.
    """
    rows = set(rows)
    while True:
        scaled = set()
        for a, c in rows:
            lead = next((abs(x) for x in a if x), None)
            if lead is None:
                if c <= 0:
                    return False
            else:
                scaled.add((tuple(x / lead for x in a), c / lead))
        if not scaled:
            return True
        lower = [(a, c) for a, c in scaled if a[-1] > 0]
        upper = [(a, c) for a, c in scaled if a[-1] < 0]
        rows = {(a[:-1], c) for a, c in scaled if a[-1] == 0}
        for a, c in lower:
            for b, d in upper:
                rows.add(
                    (
                        tuple(-b[-1] * x + a[-1] * y for x, y in zip(a[:-1], b[:-1])),
                        -b[-1] * c + a[-1] * d,
                    )
                )


def _fourier_motzkin_cases(dim):
    # small fractions meet in many flats; integers up to 10^4 make nearly
    # parallel walls, where the step off a restricted witness is tight
    entry = st.fractions(min_value=-2, max_value=2, max_denominator=2) | st.integers(
        min_value=-(10**4), max_value=10**4
    ).map(F)
    rows = st.lists(st.tuples(st.tuples(*([entry] * dim)), entry), min_size=0, max_size=5)
    return st.tuples(st.just(dim), rows)


NEARLY_PARALLEL = [((1, 10**4), 1), ((1, 10**4 + 1), -1)]
# three lines through (1, 1): on the last one the traces of the other two
# cut at the same point
CONCURRENT = [((1, 0), 1), ((0, 1), 1), ((1, 1), 2)]
# x = 0 and x = 1 parallel, crossed by y = x: on x = 1 the trace of x = 0
# is constant, and on y = x the traces of the other two cut at 0 and 1
PARALLEL_AND_CROSSING = [((1, 0), 0), ((1, 0), 1), ((1, -1), 0)]
# three points on a line, given out of order
THREE_CUTS = [((1,), 2), ((1,), -3), ((2,), 5)]


@settings(max_examples=80, deadline=None)
@given(case=st.integers(min_value=1, max_value=3).flatmap(_fourier_motzkin_cases))
@example(case=(2, NEARLY_PARALLEL))
@example(case=(2, CONCURRENT))
@example(case=(2, PARALLEL_AND_CROSSING))
@example(case=(1, THREE_CUTS))
def test_enumeration_matches_fourier_motzkin_feasibility(case):
    dim, raw = case
    raw = [(normal, offset) for normal, offset in raw if any(normal)]
    spec = make_arrangement(dim, QQ, raw)
    chambers = enumerate_chambers(spec)
    realized = chambers.sign_vectors()
    assert len(realized) == len(chambers)
    count = len(spec.hyperplanes)
    for mask in range(2**count):
        signs = [1 if mask >> i & 1 else -1 for i in range(count)]
        rows = [
            (tuple(s * a for a in h.normal), -s * h.offset)
            for h, s in zip(spec.hyperplanes, signs)
        ]
        text = "".join("+" if s > 0 else "-" for s in signs)
        assert (text in realized) == _oracle_strictly_feasible(rows), text
    for c in chambers.chambers:
        _witness_ok(spec, c)


def _line_masks_at(rows, x):
    """The mask of the rows (a, b) at the rational x, or None when x lies on
    one of them."""
    mask = 0
    for i, (a, b) in enumerate(rows):
        if a * x == b:
            return None
        mask |= (a * x > b) << i
    return mask


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(min_value=-4, max_value=4), st.integers(min_value=-6, max_value=6)),
        max_size=7,
    ),
)
@example(rows=[(0, -1), (2, 3), (0, 2), (-4, -6), (1, 0)])
@example(rows=[(1, -2), (-1, -2), (0, -1), (3, 1), (1, 5), (-2, -10)])
def test_line_chambers_match_sample_points(rows):
    # any integer rows, with zero normals of either offset sign and repeated
    # cut points among them; the samples are a grid of step 1 / (4 L) for L
    # the lcm of the nonzero a, which puts a point inside every interval
    # between two cut points
    found = arrangement._enumerate_chambers(rows, 1)
    step = F(1, 4 * math.lcm(*(a for a, _ in rows if a)))
    cuts = [F(b, a) for a, b in rows if a] or [F(0)]
    start, stop = int(min(cuts) / step) - 8, int(max(cuts) / step) + 8
    sampled = {_line_masks_at(rows, k * step) for k in range(start, stop + 1)} - {None}
    assert set(found) == sampled
    for mask, ((p,), d) in found.items():
        assert d > 0 and math.gcd(p, d) == 1
        assert _line_masks_at(rows, F(p, d)) == mask


def _random_batch(seed, dim):
    rng = random.Random(seed)
    return [_random_spec(rng, dim, count) for count in (3, 5, 7, 9)]


# Specs whose enumeration reaches the dimension-2 step, each pinned by the
# SHA-256 of its chambers' JSON: sign vectors and witnesses, byte for byte.
CHAMBER_SPECS = {
    # five lines through (1, 1)
    "concurrent-lines": lambda: lines((1, 0, 1), (0, 1, 1), (1, 1, 2), (1, -1, 0), (2, 1, 3)),
    # two families of parallel lines and one line across them: on each line
    # the trace of its parallels has a zero normal
    "parallel-lines": lambda: lines((1, 0, 0), (1, 0, 1), (1, 0, -2), (0, 1, 0), (0, 1, 3), (1, 1, 1)),
    # on x = 1 the trace of x = 0 has a zero normal, and on the planes that
    # cross both the two traces are parallel lines
    "zero-normal-trace": lambda: lines(
        (1, 0, 0, 0), (1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 1), dim=3
    ),
    # x = 1, y = 1 and x + y = 2 share a line: restricted to the third, the
    # first two trace that line twice, and on it the one trace vanishes
    "vanishing-trace": lambda: lines(
        (1, 0, 0, 1), (0, 1, 0, 1), (1, 1, 0, 2), (0, 0, 1, 0), (1, 0, 1, 3), dim=3
    ),
    # central, three of them through the z-axis: enumerated on the slice
    # x = 1, where the traces are two pairs of parallel lines
    "vanishing-trace-central": lambda: lines(
        (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (1, 0, 1, 0), dim=3
    ),
    "braid4": lambda: braid_arrangement(4),
    "moment-curve": _moment_curve_spec,
}
CHAMBER_BATCHES = {f"random-q{dim}-seed{seed}": (seed, dim) for dim in (2, 3) for seed in (7, 8)}


def _chambers_digest(specs):
    text = json.dumps([enumerate_chambers(s).to_json() for s in specs], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


CHAMBER_DIGESTS = {
    "concurrent-lines": "b17cc55292aec24b882d71cd51429c62626a15b741d787428eb351192e918fa7",
    "parallel-lines": "48153bb3494d6b7aeee0018d4bbb5676998cfa053f62e9948e6ee7a37eef154e",
    "zero-normal-trace": "6e3be971b7a6c2184a436cfeea3a2291052fccd41aa65b98721aa07428f1e886",
    "vanishing-trace": "5cfd61e275388be37cd1a261da9916707ff0f38243dc68d8f47e72a288fea92d",
    "vanishing-trace-central": "32b1e533effa69dfb38ea212b8243d4b6d10f149a92e20d3a59d8a081b580e11",
    "braid4": "cf4f45249824e800062136594ab4520124f55d21c41cf9778064335beb9d931c",
    "moment-curve": "780858a3e3dec2c1b8a72e423bd50d42e38e27d3aacd24dc9c6771ca1daf3aeb",
    "random-q2-seed7": "e0c4a0c6f22d8d93104d55cd6f7230169c5898e6ddf6531f51c2e514f380e4fc",
    "random-q2-seed8": "9c77c50c85a5410bed0852bc9f2d7a384aedf2565f81b58e7111f0250b10d2cf",
    "random-q3-seed7": "43506243ecc5f769602ce2f3d0573571c301301d3f1a7839eb3d8824293db46e",
    "random-q3-seed8": "d1f3ec1e960ce419fdd555a7b05ddf0062ede36fa972566f7eb42f6198cd49b0",
}


@pytest.mark.parametrize("name", [*CHAMBER_SPECS, *CHAMBER_BATCHES])
def test_chamber_reports_are_pinned_byte_for_byte(name):
    specs = [CHAMBER_SPECS[name]()] if name in CHAMBER_SPECS else _random_batch(*CHAMBER_BATCHES[name])
    assert _chambers_digest(specs) == CHAMBER_DIGESTS[name]


# -- centrality, essentialization, simpliciality ----------------------------

# Oracles by field division, sharing no code with the integer elimination:
# a reduced row echelon form, the common point read off it, essentialization
# in the coordinates of a row-space basis of the normals, and restriction by
# a null-space parametrization of the hyperplane.  They compute in the
# tests' model of the field (_lift).


def _oracle_rref(rows, zero):
    """(nonzero rows, pivot columns) of the reduced row echelon form."""
    one = zero + 1
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != zero), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = one / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != zero:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _oracle_common_point(spec):
    zero = _oracle_zero(spec.field)
    reduced, pivots = _oracle_rref(_lifted_rows(spec), zero)
    if spec.dim in pivots:
        return None
    point = [zero] * spec.dim
    for row, pivot in zip(reduced, pivots):
        point[pivot] = row[spec.dim]
    return point


def _oracle_essentialize(spec):
    """The central spec in the coordinates of a row-space basis of its
    normals, each normal solved for against that basis, offsets zero."""
    center = _oracle_common_point(spec)
    assert center is not None
    zero = _oracle_zero(spec.field)
    normals = [row[:-1] for row in _lifted_rows(spec)]
    basis, _ = _oracle_rref(normals, zero)
    rank = len(basis)
    if rank == spec.dim and all(c == zero for c in center):
        return spec
    new_rows = []
    for normal in normals:
        augmented = [list(col) + [a] for col, a in zip(zip(*basis), normal)]
        solved, pivots = _oracle_rref(augmented, zero)
        assert rank not in pivots
        coeffs = [zero] * rank
        for row, pivot in zip(solved, pivots):
            coeffs[pivot] = row[rank]
        new_rows.append((tuple(map(_package, coeffs)), _package(zero)))
    return make_arrangement(rank, spec.field, new_rows, label=f"{spec.label} (essential)")


def _oracle_restrict(spec, index):
    """Traces on H, parametrized as x = anchor + sum of y_c times the
    null-space basis vectors of H's normal, one per free column c."""
    zero = _oracle_zero(spec.field)
    one = zero + 1
    rows = _lifted_rows(spec)
    reduced, pivots = _oracle_rref([rows[index]], zero)
    anchor = [zero] * spec.dim
    anchor[pivots[0]] = reduced[0][spec.dim]
    basis = []
    for c in range(spec.dim):
        if c != pivots[0]:
            vec = [zero] * spec.dim
            vec[c] = one
            vec[pivots[0]] = -reduced[0][c]
            basis.append(vec)
    traces = []
    for i, (*other, other_offset) in enumerate(rows):
        if i == index:
            continue
        normal = tuple(sum((b * a for b, a in zip(vec, other)), zero) for vec in basis)
        if any(v != zero for v in normal):
            offset = other_offset - sum((a * x for a, x in zip(other, anchor)), zero)
            traces.append((tuple(map(_package, normal)), _package(offset)))
    return make_arrangement(spec.dim - 1, spec.field, traces, label=f"{spec.label} | {index}")


def test_common_point_and_essentialize():
    spec = braid_arrangement(3)
    assert common_point(spec) == [F(0), F(0), F(0)]
    essential = _oracle_essentialize(spec)
    assert essential.dim == 2
    assert len(essential.hyperplanes) == 3
    assert chamber_count(flat_poset(essential))[0] == 6
    report = is_simplicial(spec)
    assert (report.rank, report.chamber_count) == (2, 6)
    already = rotation_arrangement(2, 2)
    assert _oracle_essentialize(already) is already
    offcenter = lines((1, 0, 0), (1, 0, 1))
    assert common_point(offcenter) is None
    with pytest.raises(CentralityError):
        is_simplicial(offcenter)


def _wall_counts(realized):
    """Walls per chamber, in sorted sign-string order."""
    return tuple(len(_walls(signs, realized)) for signs in sorted(realized))


@st.composite
def _affine_specs(draw, field=QQ):
    """Specs in dimension 1..4, central about a random point in about half
    of the draws, with normals often in a proper subspace so that the
    common intersection has lineality directions."""
    dim = draw(st.integers(min_value=1, max_value=4))
    small = st.integers(min_value=-2, max_value=2)
    if field.is_rational:
        scalar = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    else:
        scalar = st.lists(small, min_size=1, max_size=2).map(lambda c: Element(field.order, c))
    span = draw(st.lists(st.tuples(*([small] * dim)), min_size=1, max_size=dim))
    center = draw(st.tuples(*([scalar] * dim))) if draw(st.booleans()) else None
    raw = []
    for _ in range(draw(st.integers(min_value=0, max_value=7))):
        if draw(st.booleans()):
            coeffs = [draw(small) for _ in span]
            normal = [sum(c * v[j] for c, v in zip(coeffs, span)) for j in range(dim)]
            normal = tuple(draw(scalar) * a for a in normal)
        else:
            normal = tuple(draw(scalar) for _ in range(dim))
        if not any(normal):
            continue
        if center is None:
            offset = draw(scalar)
        else:
            offset = sum((a * x for a, x in zip(normal, center)), _oracle_zero(field))
        raw.append((tuple(map(_package, normal)), _package(offset)))
    return make_arrangement(dim, field, raw)


def _assert_point_and_traces_match_the_oracles(spec):
    point = common_point(spec)
    assert (point if point is None else list(map(_lift, point))) == _oracle_common_point(spec)
    for i in range(len(spec.rows)):
        _assert_deletion_restriction(spec, i)


@settings(max_examples=100, deadline=None)
@given(spec=_affine_specs())
def test_integer_elimination_matches_the_division_oracles_over_q(spec):
    _assert_point_and_traces_match_the_oracles(spec)
    if common_point(spec) is None:
        with pytest.raises(CentralityError):
            is_simplicial(spec)
        return
    essential = _oracle_essentialize(spec)
    realized = enumerate_chambers(essential).sign_vectors()
    report = is_simplicial(spec)
    assert report.rank == essential.dim
    assert report.chamber_count == len(realized)
    assert report.wall_counts == _wall_counts(realized)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), m=st.sampled_from([3, 4, 5, 13, MAX_FIELD_ORDER]))
def test_field_elimination_matches_the_division_oracles_over_cyclotomics(data, m):
    _assert_point_and_traces_match_the_oracles(
        data.draw(_affine_specs(ScalarField("cyclotomic", m)))
    )


def test_rotation_specs_match_the_division_oracles():
    for n, m in [(2, 3), (3, 3), (3, 4), (2, 5)]:
        _assert_point_and_traces_match_the_oracles(rotation_arrangement(n, m))


def test_is_simplicial_on_sector_arrangements():
    report = is_simplicial(braid_arrangement(3))
    assert report.simplicial and bool(report)
    assert report.rank == 2
    assert report.chamber_count == 6
    assert set(report.wall_counts) == {2}
    assert is_simplicial(rotation_arrangement(2, 2)).simplicial


def test_is_simplicial_detects_a_non_simplicial_cone():
    # four generic planes through the origin in R^3: 14 chambers, and the
    # chambers meeting all four planes have 4 walls
    spec = make_arrangement(
        3,
        QQ,
        [
            ((F(1), F(0), F(0)), F(0)),
            ((F(0), F(1), F(0)), F(0)),
            ((F(0), F(0), F(1)), F(0)),
            ((F(1), F(1), F(1)), F(0)),
        ],
    )
    report = is_simplicial(spec)
    assert not report.simplicial
    assert report.chamber_count == 14
    assert set(report.wall_counts) == {3, 4}
    assert report.to_json()["simplicial"] is False


def test_is_simplicial_requires_central_rational_input():
    with pytest.raises(CentralityError):
        is_simplicial(lines((1, 0, 0), (1, 0, 1)))
    with pytest.raises(NotRealError):
        is_simplicial(rotation_arrangement(2, 3))


def _walls(signs, realized):
    """Indices of the hyperplanes whose flip leads to another chamber."""
    flip = {"+": "-", "-": "+"}
    return [
        i for i in range(len(signs))
        if signs[:i] + flip[signs[i]] + signs[i + 1 :] in realized
    ]


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(min_value=1, max_value=4), data=st.data())
def test_chambers_with_rank_walls_have_independent_walls(dim, data):
    normal = st.tuples(*([st.integers(min_value=-2, max_value=2)] * dim))
    normals = data.draw(st.lists(normal, min_size=1, max_size=7))
    raw = [(tuple(map(F, a)), F(0)) for a in normals if any(a)]
    if not raw:
        return
    spec = make_arrangement(dim, QQ, raw)
    essential = _oracle_essentialize(spec)
    rank = essential.dim
    realized = enumerate_chambers(essential).sign_vectors()
    simplicial = True
    wall_counts = []
    for signs in sorted(realized):
        walls = _walls(signs, realized)
        wall_counts.append(len(walls))
        wall_rows = [list(essential.hyperplanes[i].normal) + [F(0)] for i in walls]
        assert len(walls) >= rank
        if len(walls) == rank:
            assert _oracle_rank(wall_rows) == (rank, True)
        else:
            simplicial = False
    report = is_simplicial(spec)
    assert report.rank == rank
    assert report.chamber_count == len(realized)
    assert report.wall_counts == tuple(wall_counts)
    assert report.simplicial == simplicial


def test_is_simplicial_guard_rail():
    report = is_simplicial(braid_arrangement(6))  # 15 hyperplanes
    assert report.simplicial and report.chamber_count == 720
    wide = make_arrangement(
        3, QQ, [((F(1), F(k), F(k * k)), F(0)) for k in range(17)]
    )
    with pytest.raises(SizeGuardError):
        is_simplicial(wide)


def _assert_wall_incidence(spec):
    """Each wall of a chamber is a facet on one hyperplane H, a chamber of
    the restriction A^H, and each such facet bounds two chambers; so the
    walls total 2 sum_H c(A^H), and every chamber has rank walls exactly
    when that total is rank c(A).  The counts are Zaslavsky's, on the
    division oracle's restrictions."""
    report = is_simplicial(spec)
    total, _ = chamber_count(flat_poset(spec))
    facets = sum(
        chamber_count(flat_poset(_oracle_restrict(spec, i)))[0] for i in range(len(spec.rows))
    )
    assert report.chamber_count == total
    assert sum(report.wall_counts) == 2 * facets
    assert report.simplicial == (2 * facets == report.rank * total)


def test_wall_incidence_of_braid_and_sign_flip_arrangements():
    for n in range(2, 7):
        _assert_wall_incidence(braid_arrangement(n))
    for n in range(1, 4):
        _assert_wall_incidence(sign_flip_arrangement(n))


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(min_value=1, max_value=4), data=st.data())
def test_wall_incidence_of_random_central_spec(dim, data):
    normal = st.tuples(*([small_coeff] * dim))
    spec = _central_spec(dim, data.draw(st.lists(normal, min_size=1, max_size=7)))
    if spec is not None:
        _assert_wall_incidence(spec)


# -- invariance under field automorphisms and affine changes of coordinates ---


def _galois_conjugate(x, k):
    """sigma_k(x), zeta -> zeta^k, by the model's substitution x -> x^k."""
    return Cyclotomic(x.order, oracle.conjugate(x.coeffs, k, x.order))


def _planted_cyclotomic_spec(rng, m, dim):
    """Three random hyperplanes over Q(zeta_m), coefficients a + b zeta,
    then dependent ones: zeta^j times one row plus another, through the
    intersection of the two, and zeta^j times a normal with a new offset,
    parallel to it."""
    field = ScalarField("cyclotomic", m)

    def scalar():
        return Element(m, [rng.randint(-1, 1), rng.randint(-1, 1)])

    rows = []
    while len(rows) < 3:
        normal = tuple(scalar() for _ in range(dim))
        if any(normal):
            rows.append((normal, scalar()))
    for _ in range(2):
        (a, b), c = rng.sample(rows, 2), rng.choice(rows)
        power = oracle.zeta(m, rng.randrange(1, m))
        rows.append((tuple(power * x + y for x, y in zip(a[0], b[0])), power * a[1] + b[1]))
        rows.append((tuple(power * x for x in c[0]), scalar()))
    return make_arrangement(
        dim, field, [(tuple(map(_package, normal)), _package(offset)) for normal, offset in rows if any(normal)]
    )


def _exact_flats(spec):
    """The flats of flat_poset's walk on the exact integer rows, in order."""
    return arrangement._flats(arrangement._exact_walk(spec))


def _galois_conjugate_specs(rng, m):
    """Planted specs over Q(zeta_m) in dimensions 2, 3, 2 and 3, each with
    its images under every sigma_k, k coprime to m."""
    conjugates = [k for k in range(2, m) if math.gcd(k, m) == 1]
    for dim in (2, 3, 2, 3):
        spec = _planted_cyclotomic_spec(rng, m, dim)
        images = [
            make_arrangement(
                dim,
                spec.field,
                [
                    (tuple(_galois_conjugate(a, k) for a in h.normal), _galois_conjugate(h.offset, k))
                    for h in spec.hyperplanes
                ],
            )
            for k in conjugates
        ]
        yield spec, images


@pytest.mark.parametrize("m", [3, 5, 7])
def test_characteristic_polynomial_is_invariant_under_galois_conjugation(m, monkeypatch):
    # sigma_k for k coprime to m is a field automorphism, so applied to
    # every coefficient it keeps the intersection lattice and chi; the
    # planted rows make the lattice non-generic, and their leads outside Z
    # reach the norm cofactor of _normalize in the exact walk, which
    # flat_poset's walk over F_p must equal, flat for flat and in order
    calls = []
    cofactor = arrangement.norm_cofactor
    monkeypatch.setattr(arrangement, "norm_cofactor", lambda order, a: calls.append(order) or cofactor(order, a))
    conjugates = sum(math.gcd(k, m) == 1 for k in range(2, m))
    nongeneric = compared = moved = 0
    for spec, images in _galois_conjugate_specs(random.Random(m), m):
        del calls[:]
        exact = _exact_flats(spec)
        assert calls, "no residue lead outside Z"
        poset = flat_poset(spec)
        assert poset.flats == exact
        nongeneric += any(len(f.contains) > spec.dim - f.dim for f in poset.flats)
        chi = characteristic_polynomial(poset)
        for conjugate in images:
            moved += conjugate.rows != spec.rows
            conjugate_poset = flat_poset(conjugate)
            assert conjugate_poset.flats == _exact_flats(conjugate)
            assert characteristic_polynomial(conjugate_poset) == chi, conjugate.rows
            compared += 1
    assert nongeneric == 4 and moved == compared == 4 * conjugates


# -- flat posets over F_p, certified exactly ----------------------------------


def _oracle_is_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _oracle_prime_factors_of(m):
    return [f for f in range(2, m + 1) if m % f == 0 and _oracle_is_prime(f)]


def _has_order(r, m, p):
    return pow(r, m, p) == 1 and all(pow(r, m // f, p) != 1 for f in _oracle_prime_factors_of(m))


def test_reduction_primes_are_the_least_above_two_to_the_thirty():
    # zeta -> r is a ring map Z[zeta_m] -> F_p when r has order m, the
    # roots of Phi_m mod p for p = 1 mod m; a composite candidate has a
    # small factor, so trial division skips it at once
    floor = 2**30
    for m in range(3, MAX_FIELD_ORDER + 1):
        primes = arrangement._reduction_primes(m)
        expected = [p for p in range(floor + 1, primes[-1][0] + 1) if p % m == 1 and _oracle_is_prime(p)]
        assert [p for p, _ in primes] == expected[:3] == expected, m
        for p, r in primes:
            assert _has_order(r, m, p), (m, p, r)
            assert sum(c * pow(r, k, p) for k, c in enumerate(cyclotomic_polynomial(m))) % p == 0


def _zeta3_lines(coefficient, offset):
    """x = 0 and x + coefficient y = offset over Q(zeta_3), for coefficient
    and offset in the model."""
    field = ScalarField("cyclotomic", 3)
    one, zero = Cyclotomic(3, [1]), Cyclotomic.zero(3)
    return make_arrangement(2, field, [((one, zero), zero), ((one, _package(coefficient)), _package(offset))])


def _certified_primes(monkeypatch, primes):
    """Force flat_poset's primes; record each certificate's verdict and
    each exact walk."""
    verdicts, exact = [], []
    certified, walk = arrangement._certified, arrangement._exact_walk
    monkeypatch.setattr(arrangement, "_reduction_primes", lambda m: primes)
    monkeypatch.setattr(arrangement, "_certified", lambda *a: verdicts.append(certified(*a)) or verdicts[-1])
    monkeypatch.setattr(arrangement, "_exact_walk", lambda spec: exact.append(spec) or walk(spec))
    return verdicts, exact


@pytest.mark.parametrize("offset", [0, 1], ids=["merged-check-a", "parallel-check-b"])
def test_a_prime_that_breaks_a_dependency_is_refused_by_its_check(monkeypatch, offset):
    # zeta -> 2 has order 3 mod 7 and sends zeta - 2 to 0, so mod 7 the
    # second line is x = offset: at offset 0 the two lines merge, one atom
    # with two members, which check (a) refuses; at offset 1 they are
    # parallel, while over Q(zeta_3) they meet in a point, which check (b)
    # keeps
    zeta = oracle.zeta(3)
    spec = _zeta3_lines(zeta - 2, Element(3, [offset]))
    exact = _exact_flats(spec)
    assert [sorted(f.contains) for f in exact] == [[], [0], [1], [0, 1]]
    good = arrangement._reduction_primes(3)[0]
    verdicts, walks = _certified_primes(monkeypatch, ((7, 2), good))
    assert flat_poset(spec).flats == exact
    assert verdicts == [False, True] and walks == []


def test_the_exact_walk_runs_when_every_prime_is_refused(monkeypatch):
    # (zeta - 2)(zeta - 9)(zeta - 7) vanishes under zeta -> 2 mod 7, 9 mod
    # 13 and 7 mod 19, each of order 3; and a line whose normal vanishes
    # under zeta -> 4 mod 7 has no hyperplane there
    zeta = oracle.zeta(3)
    spec = _zeta3_lines((zeta - 2) * (zeta - 9) * (zeta - 7), Element(3))
    exact = _exact_flats(spec)
    verdicts, walks = _certified_primes(monkeypatch, ((7, 2), (13, 9), (19, 7)))
    assert flat_poset(spec).flats == exact
    assert verdicts == [False, False, False] and walks == [spec]
    field = ScalarField("cyclotomic", 3)
    vanishing = make_arrangement(2, field, [((_package(zeta - 4), Cyclotomic.zero(3)), Cyclotomic(3, [1]))])
    exact = _exact_flats(vanishing)
    del verdicts[:], walks[:]
    monkeypatch.setattr(arrangement, "_reduction_primes", lambda m: ((7, 4),))
    assert flat_poset(vanishing).flats == exact
    assert verdicts == [] and walks == [vanishing]


def test_certified_flat_posets_of_rotation_specs_equal_the_exact_walk():
    # case1 (3, 3) and (3, 4) are among the pinned reports of test_cli
    for n, m in ((2, 3), (2, 4), (2, 5), (2, 8), (2, 12), (2, 13), (2, 16), (4, 3)):
        spec = rotation_arrangement(n, m)
        assert flat_poset(spec).flats == _exact_flats(spec), (n, m)


# An independent oracle for chi over Q(zeta_m): with p = 1 mod m and r of
# order m, zeta -> r reduces the coefficients to F_p, and when no nonzero
# minor of [A | b] reduces to 0 every subsystem keeps its rank and its
# consistency, so chi(p) counts the points of F_p^d off the reduced
# hyperplanes (Athanasiadis, Adv. Math. 122, 1996).  The minors are built
# in the tests' model of the field and the points counted one at a time.


def _oracle_cyclotomic_det(matrix, rows, cols, known):
    """The minor on rows x cols by Laplace expansion along its first row,
    each smaller minor computed once and kept in known."""
    if (rows, cols) not in known:
        one = known[(), ()]  # the empty minor
        total = one - one
        for j, c in enumerate(cols):
            a = matrix[rows[0]][c]
            if a:
                minor = a * _oracle_cyclotomic_det(matrix, rows[1:], cols[:j] + cols[j + 1 :], known)
                total = total + minor if j % 2 == 0 else total - minor
        known[rows, cols] = total
    return known[rows, cols]


def _oracle_reduce(x, p, r):
    """x under zeta -> r mod p, or None when p divides a denominator."""
    if any(c.denominator % p == 0 for c in x.coeffs):
        return None
    return sum(c.numerator * pow(c.denominator, -1, p) * pow(r, k, p) for k, c in enumerate(x.coeffs)) % p


def _oracle_reduction(matrix, m, limit):
    """The least p = 1 mod m below limit, with the least r of order m,
    under which every entry reduces and no nonzero minor reduces to 0."""
    known = {((), ()): Element(m, [1])}
    minors = [
        _oracle_cyclotomic_det(matrix, rows, cols, known)
        for size in range(1, min(len(matrix), len(matrix[0])) + 1)
        for rows in combinations(range(len(matrix)), size)
        for cols in combinations(range(len(matrix[0])), size)
    ]
    nonzero = [x for x in minors if x]
    for p in range(m + 1, limit, m):
        if _oracle_is_prime(p):
            for r in range(2, p):
                if _has_order(r, m, p):
                    images = [_oracle_reduce(x, p, r) for x in nonzero + [x for row in matrix for x in row]]
                    if None not in images and all(images[: len(nonzero)]):
                        return p, r
    return None


def _oracle_points_off(matrix, p, r):
    """Points of F_p^d on no reduced hyperplane, a line along the last
    coordinate at a time: on the line over the first d - 1 coordinates a
    row with a_d != 0 holds at one point, and one with a_d = 0 at every
    point or none."""
    rows = [[_oracle_reduce(x, p, r) for x in row] for row in matrix]
    count = 0
    for head in product(range(p), repeat=len(matrix[0]) - 2):
        on = set()
        for *normal, a, b in rows:
            gap = (sum(c * x for c, x in zip(normal, head)) - b) % p
            if a:
                on.add(-gap * pow(a, -1, p) % p)
            elif not gap:
                on = set(range(p))
        count += p - len(on)
    return count


def _oracle_specs():
    """Specs over Q(zeta_m), m in 3, 4, 5 and 7: random ones in dimension
    at most 3 with at most 5 hyperplanes, every residue in -1, 0 and 1, and
    the planted Galois-conjugate ones."""
    rng = random.Random(35)
    for m in (3, 4, 5, 7):
        field, phi = ScalarField("cyclotomic", m), arrangement.euler_phi(m)
        for dim in (1, 2, 3, 2, 3):
            raw = []
            for _ in range(rng.randint(1, 5)):
                normal = tuple(Cyclotomic(m, [rng.randint(-1, 1) for _ in range(phi)]) for _ in range(dim))
                if any(normal):
                    raw.append((normal, Cyclotomic(m, [rng.randint(-1, 1) for _ in range(phi)])))
            yield make_arrangement(dim, field, raw)
    for m in (3, 5, 7):
        for spec, images in _galois_conjugate_specs(random.Random(m), m):
            yield spec
            yield images[0]


def test_characteristic_polynomial_counts_points_over_f_p():
    counted = 0
    for spec in _oracle_specs():
        m = spec.field.order
        matrix = _lifted_rows(spec)
        reduction = _oracle_reduction(matrix, m, 100)
        assert reduction is not None, spec.rows
        p, r = reduction
        assert characteristic_polynomial(flat_poset(spec))(p) == _oracle_points_off(matrix, p, r), (spec.rows, p, r)
        counted += 1
    assert counted == 20 + 2 * 12


def _unimodular(rng, dim):
    """An integer matrix of determinant +-1: a product of elementary row
    additions and sign changes."""
    u = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(3 * dim):
        i = rng.randrange(dim)
        if dim > 1:
            j = rng.choice([j for j in range(dim) if j != i])
            u[i] = [x + rng.choice([-2, -1, 1, 2]) * y for x, y in zip(u[i], u[j])]
        if rng.random() < 0.3:
            u[i] = [-x for x in u[i]]
    return u


def _moved(spec, u, shift):
    """The spec in the coordinates y with x = u y + shift: a . x = b reads
    (u^T a) . y = b - a . shift."""
    dim = spec.dim
    raw = [
        (
            tuple(sum(u[i][j] * h.normal[i] for i in range(dim)) for j in range(dim)),
            h.offset - sum(a * t for a, t in zip(h.normal, shift)),
        )
        for h in spec.hyperplanes
    ]
    return make_arrangement(dim, QQ, raw)


def test_unimodular_changes_and_translations_keep_chi_chambers_and_simpliciality():
    # an affine isomorphism of Q^d keeps the intersection lattice, the
    # chambers and the shape of each chamber; the bad primes may move, so
    # they are not compared
    rng = random.Random(31)
    specs = [braid_arrangement(n) for n in (3, 4)] + [sign_flip_arrangement(2), rotation_arrangement(2, 2)]
    specs += [_random_spec(rng, dim, 5) for dim in (1, 2, 3, 3)]
    for dim in (2, 3, 3, 4):
        specs.append(_central_spec(dim, [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(5)]))
    verdicts = set()
    for spec in specs:
        poset = flat_poset(spec)
        chi, counts = characteristic_polynomial(poset), chamber_count(poset)
        chambers = len(enumerate_chambers(spec))
        verdict = is_simplicial(spec).simplicial if common_point(spec) is not None else None
        verdicts.add(verdict)
        for _ in range(3):
            shift = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(spec.dim)]
            moved = _moved(spec, _unimodular(rng, spec.dim), shift)
            moved_poset = flat_poset(moved)
            assert characteristic_polynomial(moved_poset) == chi, spec.label
            assert chamber_count(moved_poset) == counts
            assert len(enumerate_chambers(moved)) == chambers
            if verdict is not None:
                assert is_simplicial(moved).simplicial == verdict
    assert verdicts == {True, False, None}


# -- finite field counts -----------------------------------------------------


def test_finite_field_counts_on_braid():
    spec = braid_arrangement(3)
    chi = characteristic_polynomial(flat_poset(spec))
    assert good_primes(spec, 2) == [2, 3]
    assert finite_field_count(spec, 2) == chi(2) == 0
    assert finite_field_count(spec, 5) == chi(5) == 60


def test_finite_field_guards():
    spec = rotation_arrangement(2, 2)
    assert 2 in _oracle_bad_primes(spec)
    assert good_primes(spec, 3) == [3, 5, 7]
    with pytest.raises(ValueError):
        finite_field_count(spec, 4)
    with pytest.raises(BadPrimeError):
        finite_field_count(spec, 2)
    with pytest.raises(SizeGuardError):
        finite_field_count(braid_arrangement(5), 23)
    # integer rows exist over Z[zeta_3] too, so each guard is explicit
    cyclotomic = rotation_arrangement(2, 3)
    with pytest.raises(NotRealError):
        finite_field_count(cyclotomic, 7)
    with pytest.raises(NotRealError):
        good_primes(cyclotomic)


def test_size_cap_precedes_the_primality_test():
    # 2^61 - 1 is prime, but q^3 is past the cap; trial division up to its
    # square root ran for more than 20 s before the cap was read
    start = time.monotonic()
    with pytest.raises(SizeGuardError):
        finite_field_count(braid_arrangement(3), 2**61 - 1)
    with pytest.raises(SizeGuardError):
        finite_field_count(braid_arrangement(3), 2**61)
    assert time.monotonic() - start < 1.0


def test_good_primes_above_a_large_coefficient():
    # x = 0 and y = 10^18: candidates start past 10^18, where trial division
    # did not return within 20 s; the least primes above 10^18 are
    # 10^18 + 3 and 10^18 + 9, and the minors 1 and 10^18 exclude neither
    start = time.monotonic()
    spec = make_arrangement(2, QQ, [((1, 0), 0), ((0, 1), 10**18)])
    assert good_primes(spec) == [10**18 + 3, 10**18 + 9]
    assert time.monotonic() - start < 1.0


def test_is_prime_matches_trial_division_and_refuses_past_its_bound():
    assert [n for n in range(-3, 20_000) if arrangement._is_prime(n)] == [
        n for n in range(-3, 20_000) if _oracle_is_prime(n)
    ]
    # strong pseudoprimes to the first 4, 5, 7, 8 and 9 prime bases, and
    # Carmichael numbers
    for n in (3215031751, 2152302898747, 3474749660383, 341550071728321, 3825123056546413051, 561, 41041):
        assert not arrangement._is_prime(n), n
    for n in (2**31 - 1, 2**61 - 1, 10**18 + 3, 10**18 + 9):
        assert arrangement._is_prime(n), n
    assert not arrangement._is_prime((2**31 - 1) * (2**41 - 1))
    # the bound is a strong pseudoprime to all twelve bases; past it, a
    # number with no base as a factor is refused
    for n in (arrangement._PRIME_BOUND, 2**89 - 1):
        with pytest.raises(SizeGuardError):
            arrangement._is_prime(n)
    assert not arrangement._is_prime(2**89)


def test_size_guard_precedes_the_bad_prime_check():
    # the minor [[1, 2], [8, -3]] is -19, so 19 is a bad prime in every
    # dimension; 19^4 points are within the enumeration cap, 19^5 are not
    for dim, error in ((4, BadPrimeError), (5, SizeGuardError)):
        pad = (F(0),) * (dim - 2)
        spec = make_arrangement(dim, QQ, [((F(1), F(2)) + pad, F(0)), ((F(8), F(-3)) + pad, F(0))])
        assert 19 in _oracle_bad_primes(spec)
        with pytest.raises(error):
            finite_field_count(spec, 19)


# An independent oracle for the bad primes: the primitive integer rows
# [a | b] rebuilt from the public hyperplanes, every square submatrix's
# determinant by Gaussian elimination over Fraction, and trial division.
# The package factors no minor: good_primes skips the primes that divide
# their product, and finite_field_count refuses them.


def _oracle_rows(spec):
    rows = []
    for h in spec.hyperplanes:
        entries = h.normal + (h.offset,)
        scale = math.lcm(*(e.denominator for e in entries))
        row = [int(e * scale) for e in entries]
        g = math.gcd(*row)
        rows.append([v // g for v in row])
    return rows


def _oracle_det(matrix):
    m = [[F(v) for v in row] for row in matrix]
    det = F(1)
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            factor = m[r][c] / m[c][c]
            m[r] = [x - factor * y for x, y in zip(m[r], m[c])]
    assert det.denominator == 1
    return int(det)


def _oracle_prime_factors(value):
    value, p, primes = abs(value), 2, set()
    while p * p <= value:
        while value % p == 0:
            primes.add(p)
            value //= p
        p += 1
    if value > 1:
        primes.add(value)
    return primes


def _oracle_bad_primes(spec):
    rows = _oracle_rows(spec)
    ncols = spec.dim + 1
    primes = set()
    for size in range(1, min(len(rows), ncols) + 1):
        for chosen in combinations(rows, size):
            for cols in combinations(range(ncols), size):
                primes |= _oracle_prime_factors(_oracle_det([[row[c] for c in cols] for row in chosen]))
    return primes


def _oracle_good_primes(spec, bad, count):
    q = max((abs(v) for row in _oracle_rows(spec) for v in row), default=1)
    out = []
    while len(out) < count:
        q += 1
        if _oracle_prime_factors(q) == {q} and q not in bad:
            out.append(q)
    return out


def test_bad_and_good_primes_match_an_independent_oracle():
    rng = random.Random(16)
    specs = [braid_arrangement(n) for n in (3, 4, 5)]
    while len(specs) < 43:
        dim = rng.randint(1, 4)
        raw = []
        for _ in range(rng.randint(0, 8)):
            normal = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim)]
            if not any(normal):
                normal[rng.randrange(dim)] = F(1)
            raw.append((tuple(normal), F(rng.randint(-5, 5), rng.randint(1, 3))))
        specs.append(make_arrangement(dim, QQ, raw))
    refused = 0
    for spec in specs:
        bad = _oracle_bad_primes(spec)
        assert good_primes(spec, 3) == _oracle_good_primes(spec, bad, 3), spec
        for q in sorted(bad):
            if q**spec.dim <= arrangement.MAX_FIELD_POINTS:
                with pytest.raises(BadPrimeError):
                    finite_field_count(spec, q)
                refused += 1
    assert refused >= 100, refused


def _points_off(spec, q):
    """Points of F_q^d on no hyperplane, one point at a time: x lies on the
    integer row [a | b] mod q when q divides a . x - b."""
    count = 0
    for point in product(range(q), repeat=spec.dim):
        count += all((sum(a * x for a, x in zip(row, point)) - row[-1]) % q for row in spec.rows)
    return count


@settings(max_examples=120, deadline=None)
@given(dim=st.integers(min_value=1, max_value=4), data=st.data())
def test_finite_field_count_matches_pointwise_count(dim, data):
    head = st.integers(min_value=-3, max_value=3)
    if data.draw(st.booleans()):
        # the count walks planes in the last two columns it keeps; drawing the
        # last two columns from a small set makes rows constant on the plane
        # (both zero), parallel lines, lines that coincide mod q on some
        # planes, and three or more lines through one point common
        last = st.sampled_from([0, 0, 0, 1, -1, 2])
        tail = [last] * min(dim, 2)
        normals = st.tuples(*([head] * (dim - len(tail)) + tail))
    else:
        # combinations of fewer vectors than columns, whose entries are
        # often zero: the rank falls below dim, the leading columns are
        # dependent or zero, and the pivots fall anywhere
        entry = st.sampled_from([0, 0, 1, -1, 2])
        basis = data.draw(st.lists(st.tuples(*[entry] * dim), min_size=1, max_size=max(1, dim - 1)))
        normals = st.tuples(*[st.integers(min_value=-1, max_value=2)] * len(basis)).map(
            lambda w: tuple(sum(c * b[j] for c, b in zip(w, basis)) for j in range(dim))
        )
    rows = data.draw(st.lists(st.tuples(normals, head), min_size=0, max_size=6))
    raw = [(tuple(map(F, a)), F(b)) for a, b in rows if any(a)]
    spec = make_arrangement(dim, QQ, raw)
    for q in good_primes(spec, 2):
        if q**dim <= 3000:
            assert finite_field_count(spec, q) == _points_off(spec, q)


@pytest.mark.parametrize(
    "dim, rows, rank",
    [
        # no hyperplane: F_q^3 itself
        (3, [], 0),
        # three parallel planes
        (3, [(1, 2, -1, 0), (1, 2, -1, 1), (2, 4, -2, 3)], 1),
        # rank d - 1: normals in the plane x_1 = x_2 + x_3, two of them parallel
        (3, [(1, 1, 0, 0), (1, 0, 1, 1), (0, 1, -1, 2), (2, 1, 1, -1), (0, 1, -1, -1)], 2),
        # rank 2 with the first two columns zero or dependent
        (4, [(0, 0, 1, -1, 2), (0, 1, 0, 0, 1), (0, 2, 1, -1, 0)], 2),
        (4, [(0, 1, 1, 0, 0), (0, 0, 1, 1, 1), (0, 1, 0, -1, -1), (0, 1, 2, 1, 2)], 2),
        # rank d - 1 with every pivot after column 0
        (4, [(0, 1, 0, 0, 0), (0, 0, 1, 0, 1), (0, 0, 0, 1, -1), (0, 1, 1, 1, 2)], 3),
    ],
)
def test_finite_field_count_on_the_essential_arrangement(dim, rows, rank):
    spec = lines(*rows, dim=dim)
    poset = flat_poset(spec)
    assert poset.rank == rank
    chi = characteristic_polynomial(poset)
    for q in good_primes(spec, 2):
        assert finite_field_count(spec, q) == _points_off(spec, q) == chi(q)


@pytest.mark.parametrize("q", [5, 7])
def test_finite_field_count_of_braid4(q):
    spec = braid_arrangement(4)
    assert finite_field_count(spec, q) == _points_off(spec, q) == q * (q - 1) * (q - 2) * (q - 3)


def test_finite_field_count_of_two_parallel_hyperplanes_in_q6():
    # rank 1: F_q^5 times the q - 2 residues of x_1 + 2 x_2 - x_6 off 0 and 3
    spec = lines((1, 2, 0, 0, 0, -1, 0), (1, 2, 0, 0, 0, -1, 3), dim=6)
    assert finite_field_count(spec, 11) == 11**5 * 9


def test_finite_field_count_of_concurrent_and_parallel_lines():
    # x = 0, y = 0 and x + y = 0 meet at the origin, and x + y = 1 is
    # parallel to x + y = 0 and meets x = 0 and y = 0 at (0, 1) and (1, 0):
    # the 4 lines cover 4q - 2 - 1 - 1 points, which leaves (q - 2)^2
    spec = lines((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1))
    primes = good_primes(spec, 4)
    assert primes == [2, 3, 5, 7]
    for q in primes:
        assert finite_field_count(spec, q) == (q - 2) ** 2 == _points_off(spec, q)


# -- polynomial helper -------------------------------------------------------


def test_polynomial_arithmetic_and_eval():
    chi = Polynomial((0, 2, -3, 1))
    assert chi(3) == 6
    assert chi(Fraction(1, 2)) == Fraction(1) - Fraction(3, 4) + Fraction(1, 8)
    assert (Polynomial((1, 1)) * Polynomial((1, 2))) == Polynomial((1, 3, 2))
    assert Polynomial((1, 0, 0)) == Polynomial((1,))
    assert Polynomial((1, 2)).to_json() == [1, 2]


def test_flat_poset_json_shape():
    data = flat_poset(braid_arrangement(3)).to_json()
    assert data["rank"] == 2
    assert len(data["flats"]) == 5
    assert data["flats"][0] == {"hyperplanes": [], "dim": 3, "mobius": 1}


def test_round_trip_preserves_poset():
    spec = sign_flip_arrangement(2)
    again = ArrangementSpec.from_json(spec.to_json())
    assert characteristic_polynomial(flat_poset(again)) == characteristic_polynomial(
        flat_poset(spec)
    )


# -- specs and their real equations built on integer residues ------------------


def _rotation_reference(n, m):
    """rotation_arrangement through make_arrangement's coercions, as first
    written: field elements 1 and -zeta^k."""
    field = QQ if m <= 2 else ScalarField("cyclotomic", m)
    zero, one = field.zero(), field.coerce(1)
    if m <= 2:
        roots = [F(1)] if m == 1 else [F(1), F(-1)]
    else:
        roots = [oracle.zeta(m, k) for k in range(m)]
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for root in roots:
                normal = [zero] * n
                normal[i], normal[j] = one, _package(-root)
                rows.append((tuple(normal), zero))
    return make_arrangement(n, field, rows, label=f"case1({m},{n})")


def _real_equations_reference(spec):
    """spec._real_equations compiled through embeddings and a product by i
    in the tests' model of the field."""
    order = spec.field.ring_order
    phi = arrangement.euler_phi(order)
    target = math.lcm(order, 4)
    i_unit = oracle.zeta(target, target // 4).coeffs
    compiled = []
    for row in spec.rows:
        columns = []
        for j in range(spec.dim):
            if any(entry := row[j * phi : (j + 1) * phi]):
                a = oracle.embed(entry, order, target)
                columns += [(2 * j, a), (2 * j + 1, oracle.mul(a, i_unit, target))]
        rhs = oracle.embed(row[-phi:], order, target)
        compiled.append(tuple((b, tuple((k, c[r]) for k, c in columns if c[r])) for r, b in enumerate(rhs)))
    return tuple(compiled)


def _inside_the_rails(n, m):
    hyperplanes = m * n * (n - 1) // 2
    try:
        arrangement.check_field_rail(m, hyperplanes)
    except SizeGuardError:
        return False
    return n <= arrangement.MAX_SIMPLICIAL_DIM and hyperplanes <= arrangement.MAX_SIMPLICIAL_HYPERPLANES


def test_rotation_specs_from_residues_match_the_coerced_builder():
    inside = 0
    for m in range(1, MAX_FIELD_ORDER + 1):
        for n in range(1, arrangement.MAX_SIMPLICIAL_DIM + 1):
            # past the rails too at n <= 4 and the orders the workloads use
            if not (_inside_the_rails(n, m) or (n <= 4 and m in (1, 2, 3, 4, 5, 6, 8, 12))):
                continue
            inside += _inside_the_rails(n, m)
            spec, reference = rotation_arrangement(n, m), _rotation_reference(n, m)
            assert spec == reference, (n, m)
            assert spec._real_equations == _real_equations_reference(spec), (n, m)
    assert inside >= 20, inside


def _braid_from_integer_rows(n):
    """braid(n) from its primitive integer rows, 1 at i and -1 at j with
    offset 0, handed straight to _spec_from_rows."""
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            row = [0] * (n + 1)
            row[i], row[j] = 1, -1
            rows.append(tuple(row))
    return arrangement._spec_from_rows(n, QQ, rows, f"braid({n})")


def _sign_flip_from_integer_rows(n):
    """case3X(n) from the primitive integer rows of x_i + sign x_j = 0 and
    x_1 = 0, handed straight to _spec_from_rows."""
    dim = n + 1
    rows = []
    for i in range(dim):
        for j in range(i + 1, dim):
            for sign in (-1, 1):
                row = [0] * (dim + 1)
                row[i], row[j] = 1, sign
                rows.append(tuple(row))
    rows.append(tuple([1] + [0] * dim))
    return arrangement._spec_from_rows(dim, QQ, rows, f"case3X({n})")


@pytest.mark.parametrize(
    "name, builder, reference, first",
    [
        ("braid", braid_arrangement, _braid_from_integer_rows, 1),
        ("case3X", sign_flip_arrangement, _sign_flip_from_integer_rows, 0),
    ],
)
def test_braid_and_sign_flip_builders_match_their_integer_rows(name, builder, reference, first):
    # the builders coerce Fraction rows through make_arrangement; their
    # primitive integer rows given straight to _spec_from_rows, as
    # rotation_arrangement gives its rows, must build the same spec, at every
    # n the CLI rails admit, up to the first one they refuse
    n = first
    while True:
        try:
            _check_rails(*BUILDER_SIZES[name](n, 2))
        except SizeGuardError:
            break
        spec, expected = builder(n), reference(n)
        assert spec == expected, n
        assert spec.hyperplanes == expected.hyperplanes, n
        assert spec._real_equations == _real_equations_reference(spec), n
        n += 1
    assert n == {"braid": 7, "case3X": 4}[name]


def test_spec_from_integer_rows_matches_the_field_element_builder():
    # primitive integer rows as rotation_arrangement passes them, against
    # make_arrangement on the same hyperplanes written as field elements over
    # a leading one: leads negative, leads in Z but not units, leads outside
    # Z, and hyperplanes repeated times the unit -zeta^k
    rng = random.Random(37)
    kinds = dict.fromkeys(("negative", "not a unit", "outside Z", "repeated"), 0)
    for m in (1, *range(3, MAX_FIELD_ORDER + 1)):
        field = QQ if m == 1 else ScalarField("cyclotomic", m)
        phi = arrangement.euler_phi(m)

        def entry():
            roll = rng.random()
            if roll < 0.4:
                return [0] * phi
            if roll < 0.7:
                return [rng.randint(-4, 4)] + [0] * (phi - 1)
            return [rng.randint(-3, 3) for _ in range(phi)]

        for _ in range(8):
            dim = rng.randint(1, 3)
            rows = []
            while len(rows) < 6:
                row = [x for _ in range(dim + 1) for x in entry()]
                if not any(row[:-phi]):
                    continue
                g = math.gcd(*row)
                rows.append(tuple(x // g for x in row))
                if rng.random() < 0.3:
                    unit = -oracle.zeta(m, rng.randrange(m))
                    elements = [unit * Element(m, rows[-1][k : k + phi]) for k in range(0, len(rows[-1]), phi)]
                    rows.append(tuple(int(c) for a in elements for c in a.coeffs))
                    kinds["repeated"] += 1
            raw = []
            for row in rows:
                elements = [Element(m, row[k : k + phi]) for k in range(0, len(row), phi)]
                lead = next(a for a in elements if a)
                if any(lead.coeffs[1:]):
                    kinds["outside Z"] += 1
                elif lead.coeffs[0] < 0:
                    kinds["negative"] += 1
                elif lead.coeffs[0] > 1:
                    kinds["not a unit"] += 1
                scaled = [a / lead for a in elements]
                values = [a.coeffs[0] for a in scaled] if m == 1 else [_package(a) for a in scaled]
                raw.append((tuple(values[:-1]), values[-1]))
            spec = arrangement._spec_from_rows(dim, field, rows, "custom")
            expected = make_arrangement(dim, field, raw)
            assert spec == expected, (m, rows)
            assert spec.hyperplanes == expected.hyperplanes, (m, rows)
    assert min(kinds.values()) >= 20, kinds


def test_real_equations_from_residues_match_the_cyclotomic_compile():
    rng = random.Random(27)
    specs = [braid_arrangement(4), sign_flip_arrangement(3)]
    for m in range(3, MAX_FIELD_ORDER + 1):
        field = ScalarField("cyclotomic", m)
        phi = arrangement.euler_phi(m)
        for offsets in (False, True):
            # as the CLI tests draw them: a + b zeta with a, b in -1..1; and
            # with dense coefficients and offsets
            raw = []
            for _ in range(8):
                width = phi if offsets else 2
                normal = tuple(Cyclotomic(m, [rng.randint(-1, 1) for _ in range(width)]) for _ in range(4))
                offset = Cyclotomic(m, [rng.randint(-3, 3) for _ in range(width)] if offsets else [0])
                if any(normal):
                    raw.append((normal, offset))
            specs.append(make_arrangement(4, field, raw))
    specs.append(lines((1, 2, 3), (F(1, 2), -4, F(5, 3)), (0, 1, -7)))
    for spec in specs:
        assert spec._real_equations == _real_equations_reference(spec), spec.label

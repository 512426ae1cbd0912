"""End-to-end guarantees of the toolkit, with runtime budgets.

Each test states one headline promise: exact branch data for the degree-two
quotient map, simpliciality of the sign-flip complements, agreement between
the three independent chamber counters, the arrangement report and the
good-prime search at the CLI's size rail, the cyclotomic report at the
field rail and its certified flat posets against the exact walk,
predicate/arrangement equivalence
for rotation configurations, well-definedness of the power-difference map,
covering degrees with deck identities, the first-Betti-number obstruction,
the exhaustive groupoid suite, the explicit model of the largest regular
action, and the orbifold decision table.
"""

import json
import random
import time
from fractions import Fraction
from math import comb

import pytest

from orbconfig import arrangement, cli

from orbconfig.arrangement import (
    QQ,
    ArrangementSpec,
    SizeGuardError,
    chamber_count,
    characteristic_polynomial,
    complement_contains,
    enumerate_chambers,
    finite_field_count,
    flat_poset,
    good_primes,
    is_simplicial,
    make_arrangement,
)
from orbconfig.covering import (
    in_punctured_configuration,
    joukowski_fiber,
    joukowski_map,
    power_difference_map,
    verify_cover,
)
from orbconfig.exactfield import ComplexPoint, euler_phi
from orbconfig.groupoid import (
    FiniteGroup,
    GroupAction,
    configuration_groupoid,
    is_covering_hom,
    morita_triple,
    subgroup_covering_hom,
    translation_groupoid,
)
from orbconfig.obstruction import quasifibration_witness
from orbconfig.orbmodel import (
    CyclicRotation,
    IntegerDihedral,
    Orbifold2D,
    SignFlipPunctured,
    classify,
    quotient_orbifold,
)
from orbconfig.orbit_config import (
    braid_arrangement,
    is_orbit_config,
    rotation_arrangement,
    sample_orbit_config,
    sign_flip_arrangement,
)

ONE = ComplexPoint.exact(1)


def test_quotient_map_branch_data_exact_on_sampled_rationals():
    start = time.monotonic()
    assert joukowski_map(ComplexPoint.exact(1)) == ComplexPoint.exact(0)
    assert joukowski_map(ComplexPoint.exact(-1)) == ComplexPoint.exact(Fraction(1, 2))
    for value, root in ((Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(-1))):
        fiber = joukowski_fiber(ComplexPoint.exact(value))
        assert fiber == (ComplexPoint.exact(root),)
        assert type(fiber[0]) is ComplexPoint

    rng = random.Random(1415)
    seen = 0
    while seen < 200:
        w = ComplexPoint.exact(Fraction(rng.randint(-60, 60), rng.randint(1, 12)))
        if w in (ComplexPoint.exact(0), ComplexPoint.exact(1), ComplexPoint.exact(-1)):
            continue
        v = joukowski_map(w)
        fiber = joukowski_fiber(v)
        assert len(fiber) == 2
        assert all(type(root) is ComplexPoint for root in fiber)
        assert fiber[0] * fiber[1] == ONE
        assert set(fiber) == {w, w.inverse()}
        assert all(joukowski_map(root) == v for root in fiber)
        seen += 1
    assert time.monotonic() - start < 1.0


def test_sign_flip_complements_are_simplicial():
    start = time.monotonic()
    for n in (1, 2, 3):
        report = is_simplicial(sign_flip_arrangement(n))
        assert report.simplicial
        assert report.wall_counts
        assert all(count == report.rank for count in report.wall_counts)
    assert time.monotonic() - start < 60.0


def _random_rational_arrangements(count, seed):
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        dim = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(1, 8)):
            normal = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
            if all(a == 0 for a in normal):
                normal[rng.randrange(dim)] = Fraction(1)
            rows.append((tuple(normal), Fraction(rng.randint(-2, 2))))
        specs.append(make_arrangement(dim, QQ, rows, label=f"random({len(specs)})"))
    return specs


def test_chamber_count_agrees_with_enumeration():
    start = time.monotonic()
    specs = _random_rational_arrangements(100, seed=987)
    specs += [braid_arrangement(n) for n in (2, 3, 4)]
    specs += [rotation_arrangement(n, 2) for n in (1, 2, 3)]
    specs += [sign_flip_arrangement(n) for n in (1, 2)]
    for spec in specs:
        total, _ = chamber_count(flat_poset(spec))
        assert total == len(enumerate_chambers(spec)), spec.label
    assert time.monotonic() - start < 120.0


def test_characteristic_polynomial_matches_finite_field_counts():
    start = time.monotonic()
    corpus = [
        braid_arrangement(2),
        braid_arrangement(3),
        braid_arrangement(4),
        rotation_arrangement(2, 2),
        rotation_arrangement(3, 2),
        sign_flip_arrangement(1),
        sign_flip_arrangement(2),
        make_arrangement(
            2,
            QQ,
            [((1, 0), 0), ((0, 1), 0), ((1, 1), 1), ((1, -1), 2)],
            label="affine-mixed",
        ),
        make_arrangement(
            3,
            QQ,
            [((1, 2, 0), 1), ((0, 1, -1), 0), ((1, 0, 1), 2), ((2, -1, 1), 0)],
            label="generic-int",
        ),
    ]
    for spec in corpus:
        chi = characteristic_polynomial(flat_poset(spec))
        for q in good_primes(spec, 2):
            assert chi(q) == finite_field_count(spec, q), (spec.label, q)
    assert time.monotonic() - start < 60.0


def _rail_spec(central):
    """16 random integer hyperplanes in Q^6, the largest input the CLI's
    arrangement rail admits; offsets zero when central."""
    rng = random.Random(1)
    hyperplanes = []
    for _ in range(16):
        normal = [rng.randint(-9, 9) for _ in range(6)]
        offset = rng.randint(-9, 9)
        hyperplanes.append({"normal": normal, "offset": 0 if central else offset})
    return json.dumps(
        {"schema": 1, "dim": 6, "field": {"type": "Q"}, "hyperplanes": hyperplanes}
    )


def test_arrangement_report_at_the_size_rail(capsys):
    # Generic position pins every invariant: chi(t) = sum over k of
    # (-1)^k C(16, k) t^(6 - k), with k <= 5 and mu(0) = C(15, 5) when
    # central, and a central generic arrangement has 2 sum_{i <= 5} C(15, i)
    # chambers, not all simplicial.  enumerate_chambers shares the rail of
    # is_simplicial and lists them all.
    start = time.monotonic()
    assert cli.main(["arrangement", _rail_spec(central=False)]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    affine = [(-1) ** k * comb(16, k) for k in range(7)][::-1]
    assert report["characteristic"]["coefficients"] == affine
    assert report["chambers"]["total"] == sum(comb(16, k) for k in range(7)) == 14893
    assert report["simplicial"] is None
    spec = ArrangementSpec.from_json(json.loads(_rail_spec(central=False)))
    assert len(enumerate_chambers(spec)) == 14893

    assert cli.main(["arrangement", _rail_spec(central=True)]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    central = [comb(15, 5)] + affine[1:]
    assert report["characteristic"]["coefficients"] == central
    chambers = 2 * sum(comb(15, i) for i in range(6))
    assert chambers == 9888
    assert report["chambers"]["total"] == chambers
    assert report["simplicial"]["chambers"] == chambers
    assert report["simplicial"]["simplicial"] is False
    spec = ArrangementSpec.from_json(json.loads(_rail_spec(central=True)))
    assert len(enumerate_chambers(spec)) == chambers
    assert time.monotonic() - start < 20.0


def _field_rail_spec(m, count):
    """count random hyperplanes in Q^6 over Q(zeta_m), every residue of
    every coefficient and offset drawn from -1, 0 and 1."""
    rng = random.Random(1)

    def scalar():
        return {"coeffs": [rng.randint(-1, 1) for _ in range(euler_phi(m))]}

    hyperplanes = [{"normal": [scalar() for _ in range(6)], "offset": scalar()} for _ in range(count)]
    field = {"type": "cyclotomic", "m": m}
    return json.dumps({"schema": 1, "dim": 6, "field": field, "hyperplanes": hyperplanes})


def test_cyclotomic_arrangement_report_at_the_field_rail(capsys):
    # Over Q(zeta_4) (phi = 2) the field rail admits 16 - 1 = 15
    # hyperplanes.  Of the specs at the rail for every m <= 16, this one and
    # those at m = 3 and 6, with 15 hyperplanes too, had the costliest flat
    # posets, within noise of each other: the 9,940 flats here are walked
    # over F_p and certified exactly in 0.25-0.3 s on a 2-core host (the
    # exact walk alone takes 0.9 s).  Above the points it is generic, so
    # chi(t) has the coefficients (-1)^k C(15, k) of t^(6 - k) for k <= 5;
    # one point lies on seven hyperplanes, with mu = 6 in place of C(7, 6)
    # generic points, and three sets of six meet in no point, so
    # chi(0) = 5005 - 7 + 6 - 3.
    start = time.monotonic()
    assert cli.main(["arrangement", _field_rail_spec(4, 15)]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["characteristic"]["coefficients"] == [5001] + [(-1) ** k * comb(15, k) for k in range(6)][::-1]
    assert report["flats_by_dim"]["0"] == 5005 - 7 + 1 - 3
    assert report["rank"] == 6
    assert cli.main(["arrangement", _field_rail_spec(4, 16)]) == 4
    assert time.monotonic() - start < 20.0


@pytest.mark.parametrize("m", range(3, 17))
def test_certified_flat_posets_at_the_field_rail_equal_the_exact_walk(m):
    # every spec at the rail, walked over F_p and certified, against the
    # walk on the exact integer rows over Z[zeta_m], called directly: the
    # same flats in the same order
    spec = ArrangementSpec.from_json(json.loads(_field_rail_spec(m, 16 - euler_phi(m) // 2)))
    assert flat_poset(spec).flats == arrangement._flats(arrangement._exact_walk(spec))


def test_good_primes_at_the_size_rail():
    # good_primes builds every minor of [A | b] once: at this shape about
    # 245,000 minors, with 105,000 distinct nonzero values when affine and
    # 33,000 when central.  About 2.4 s for both on a 2-core host; the
    # budget keeps 4x headroom.  A count at q^6 above the enumeration cap
    # is refused before the minors are read.
    start = time.monotonic()
    for central, primes in ((False, [15361, 21149]), (True, [5419, 5693])):
        spec = ArrangementSpec.from_json(json.loads(_rail_spec(central)))
        with pytest.raises(SizeGuardError):
            finite_field_count(spec, 13)
        assert good_primes(spec, 2) == primes
    assert time.monotonic() - start < 10.0


def test_rotation_complement_equals_configuration_predicate():
    start = time.monotonic()
    rng = random.Random(55)

    def draw():
        return ComplexPoint.exact(
            Fraction(rng.randint(-16, 16), 8), Fraction(rng.randint(-16, 16), 8)
        )

    imaginary = ComplexPoint.exact(0, 1)
    for m in (2, 3, 4):
        for n in (2, 3, 4):
            spec = rotation_arrangement(n, m)
            action = CyclicRotation(m)
            members = 0
            for _ in range(1000):
                zs = [draw() for _ in range(n)]
                roll = rng.random()
                if roll < 0.15:
                    i, j = rng.sample(range(n), 2)
                    zs[j] = zs[i]
                elif roll < 0.30 and m % 2 == 0:
                    i, j = rng.sample(range(n), 2)
                    zs[j] = -zs[i]
                elif roll < 0.35:
                    zs[rng.randrange(n)] = ComplexPoint.exact(0)
                elif roll < 0.40 and m == 4:
                    i, j = rng.sample(range(n), 2)
                    zs[j] = zs[i] * imaginary
                zs = tuple(zs)
                inside = complement_contains(spec, zs)
                assert inside == is_orbit_config(action, zs)
                members += inside
            # the mix must exercise both sides of the equivalence
            assert 0 < members < 1000
    assert time.monotonic() - start < 60.0


def test_power_difference_map_lands_in_punctured_configuration():
    start = time.monotonic()
    for m in (1, 2, 3, 4):
        action = CyclicRotation(m)
        for n in (2, 3, 4):
            for seed in range(1000):
                zs = sample_orbit_config(action, n, seed=seed).points
                image = power_difference_map(zs, m)
                assert len(image) == n - 1
                assert in_punctured_configuration(image)
    assert time.monotonic() - start < 30.0


def test_covering_degrees_and_deck_identities():
    start = time.monotonic()

    quotient = verify_cover("q", samples=200, seed=3)
    assert quotient.passed
    assert quotient.fiber_sizes == ((2, quotient.used),)
    checks = {name: (mode, ok) for name, mode, ok in quotient.deck_checks}
    assert checks["deck_invariance"] == ("exact", True)
    assert checks["branch_data"] == ("exact", True)
    assert all(mode == "exact" and ok for mode, ok in checks.values())

    for n in (1, 2, 3, 4):
        squaring = verify_cover("squaring", n=n, samples=60, seed=5)
        assert squaring.passed
        assert squaring.declared_degree == 2**n
        assert squaring.fiber_sizes == ((2**n, squaring.used),)

    composite = verify_cover("qE", n=2, samples=150, window=3, seed=11)
    assert composite.passed
    assert composite.declared_degree == 4
    assert composite.max_defect <= 1e-9
    names = {name for name, _, ok in composite.deck_checks if ok}
    assert {"translation_periodicity", "negation_invariance", "per_window_count"} <= names

    assert time.monotonic() - start < 60.0


def test_rotation_witness_matches_closed_form():
    start = time.monotonic()
    for m in range(2, 7):
        for n in range(2, 7):
            report = quasifibration_witness(CyclicRotation(m), n)
            assert report.verdict == "not-quasifibration"
            assert report.to_json()["b1_pair"] == [1 + m * (n - 2), m * (n - 1)]
    assert time.monotonic() - start < 1.0


def test_groupoid_axioms_coverings_and_morita_exhaustively():
    start = time.monotonic()

    covering_actions = [
        GroupAction.negation_mod(6),
        GroupAction.negation_mod(12),
        GroupAction.rotation_mod(12, 4),
        GroupAction.rotation_mod(12, 6),
        GroupAction.regular(FiniteGroup.cyclic(5)),
        GroupAction.regular(FiniteGroup.cyclic(8)),
        GroupAction.regular(FiniteGroup.klein()),
        GroupAction.regular(FiniteGroup.dihedral(3)),
        GroupAction.regular(FiniteGroup.dihedral(4)),
        GroupAction.regular(FiniteGroup.product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(4))),
    ]
    inclusions = 0
    for action in covering_actions:
        assert action.group.order <= 8 and len(action.points) <= 12
        groupoid = translation_groupoid(action)
        assert groupoid.verify_axioms().passed
        for subgroup in action.group.subgroups():
            hom = subgroup_covering_hom(action, subgroup)
            assert hom.verify().passed
            verdict = is_covering_hom(hom)
            assert verdict.passed, (action.group.name, sorted(map(str, subgroup)))
            inclusions += 1
    assert inclusions >= 40

    base = translation_groupoid(GroupAction.negation_mod(6))
    assert base.verify_axioms().passed
    for n in (2, 3):
        configuration = configuration_groupoid(base, n, verify=False)
        assert configuration.verify_axioms().passed

    morita_groups = [
        FiniteGroup.klein(),
        FiniteGroup.cyclic(4),
        FiniteGroup.cyclic(8),
        FiniteGroup.cyclic(12),
        FiniteGroup.dihedral(4),
        FiniteGroup.dihedral(6),
        FiniteGroup.product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)),
        FiniteGroup.product(FiniteGroup.cyclic(4), FiniteGroup.cyclic(4)),
        FiniteGroup.product(FiniteGroup.dihedral(4), FiniteGroup.cyclic(2)),
    ]
    triples = 0
    for group in morita_groups:
        assert group.order <= 16
        action = GroupAction.regular(group)
        normals = group.normal_subgroups()
        for first in normals:
            for second in normals:
                triple = morita_triple(action, first, second)
                assert triple.middle.verify_axioms().passed
                assert triple.first_check.passed, (group.name, triple.first_check.first_failure())
                assert triple.second_check.passed, (group.name, triple.second_check.first_failure())
                triples += 1
    assert triples >= 200

    assert time.monotonic() - start < 120.0


def test_groupoid_checks_at_the_rails():
    # the largest models the JSON rails admit: 128 points under a group of
    # order 32 (MAX_ACTION_POINTS, MAX_GROUP_ORDER), and the regular action
    # of a group of order 32
    start = time.monotonic()
    group = FiniteGroup.cyclic(32)
    trivial = frozenset({group.identity})
    triple = morita_triple(GroupAction.rotation_mod(128, 32), trivial, trivial)
    assert len(triple.middle.morphisms) == 128 * 32
    assert triple.middle.verify_axioms().passed
    assert triple.passed, (triple.first_check.first_failure(), triple.second_check.first_failure())
    regular = translation_groupoid(GroupAction.regular(group))
    assert regular.verify_axioms().passed
    assert time.monotonic() - start < 10.0


def _explicit_model(groupoid):
    """The groupoid's tables as an explicit CLI model; objects and
    morphisms are named by their places."""
    ids = {m: f"m{i}" for i, m in enumerate(groupoid.morphisms)}
    names = {x: f"o{i}" for i, x in enumerate(groupoid.objects)}
    return {
        "schema": 1,
        "type": "explicit",
        "objects": list(names.values()),
        "morphisms": [
            {"id": ids[m], "src": names[groupoid.source[m]], "tgt": names[groupoid.target[m]]}
            for m in groupoid.morphisms
        ],
        "compose": [[ids[g], ids[f], ids[h]] for (g, f), h in groupoid.compose.items()],
        "identities": {names[x]: ids[e] for x, e in groupoid.identity.items()},
        "inverses": {ids[m]: ids[i] for m, i in groupoid.inverse.items()},
    }


def test_explicit_groupoid_of_the_largest_regular_action(capsys):
    # explicit models have no size rail, and their associativity row scans
    # every composable triple: for the regular action of C32 (MAX_GROUP_ORDER),
    # 1,024 morphisms and 32,768 compose entries, that is 32^4 triples.
    # About 0.4 s on a 2-core host; the budget keeps at least 4x headroom.
    model = json.dumps(_explicit_model(translation_groupoid(GroupAction.regular(FiniteGroup.cyclic(32)))))
    start = time.monotonic()
    assert cli.main(["groupoid", model]) == 0
    elapsed = time.monotonic() - start
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["summary"] == {"objects": 32, "morphisms": 1024}
    assert report["pass"] is True
    assert elapsed < 5.0


def test_groupoid_forget_at_the_rail(capsys):
    # C2 fixing each of 353 points at n = 2: at most (353 * 2)^2 = 498,436
    # morphisms under MAX_FORGET_SIZE, and 354 points exceed it.  Of the
    # inputs measured that the old (|points| * |group|^2)^n rail refused,
    # it is the costliest (about 1.2 s on a 2-core host).  The 124,256
    # configuration objects, each with 4 arrows, map onto the 353 objects
    # and 706 arrows of the base.
    table = [{"g": g, "x": x, "y": x} for g in range(2) for x in range(353)]
    model = {
        "schema": 1,
        "type": "forget",
        "group": {"kind": "cyclic", "n": 2},
        "action": {"kind": "table", "points": list(range(353)), "table": table},
        "n": 2,
    }
    assert (353 * 2) ** 2 <= cli.MAX_FORGET_SIZE < (354 * 2) ** 2
    assert (353 * 2**2) ** 2 > cli.MAX_FORGET_SIZE
    start = time.monotonic()
    assert cli.main(["groupoid", json.dumps(model)]) == 0
    elapsed = time.monotonic() - start
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["summary"] == {"base_objects": 353, "configuration_objects": 353 * 352}
    hom_rows = {row["name"]: row["pass"] for row in report["checks"][0]["checks"]}
    assert all(hom_rows.values()) and "preserves_composition" in hom_rows
    # the four arrows at a pair map to the two at its first point, in pairs
    cover_rows = {row["name"]: row["pass"] for row in report["checks"][1]["checks"]}
    assert cover_rows == {
        "homomorphism": True,
        "object_map_surjective": True,
        "unique_source_lift": False,
        "fiber_constant_on_orbits": True,
    }
    assert elapsed < 10.0


def test_classification_decision_table():
    start = time.monotonic()
    for k in (2, 3, 4, 5, 9):
        verdict = classify(Orbifold2D.sphere(k))
        assert not verdict.is_good and not verdict.is_aspherical
    teardrop_pair = classify(Orbifold2D.sphere(2, 3))
    assert not teardrop_pair.is_good and not teardrop_pair.is_aspherical
    for m in (2, 3, 4, 7):
        verdict = classify(Orbifold2D.plane(m))
        assert verdict.is_good and verdict.is_aspherical
    for action in (IntegerDihedral(), SignFlipPunctured()):
        verdict = classify(quotient_orbifold(action))
        assert verdict.is_good and verdict.is_aspherical
    sphere = classify(Orbifold2D.sphere())
    assert sphere.is_good and not sphere.is_aspherical
    assert time.monotonic() - start < 1.0

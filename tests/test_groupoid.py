"""Finite groupoid models: translation groupoids, configurations,
coverings, equivalences, and the Morita triple construction."""

import random
import re
from collections import Counter

import pytest

from orbconfig.groupoid import (
    CheckResult,
    FiniteGroup,
    FiniteGroupoid,
    GroupAction,
    GroupoidHom,
    InvalidModelError,
    configuration_groupoid,
    forget_map,
    group_action_from_json,
    group_from_json,
    groupoid_from_json,
    inclusion_hom,
    induced_configuration_hom,
    is_covering_hom,
    is_equivalence,
    morita_triple,
    orbit_space,
    skeleton_inclusion,
    subgroup_covering_hom,
    translation_groupoid,
)


def unit_groupoid(labels):
    trivial = FiniteGroup.cyclic(1)
    return translation_groupoid(
        GroupAction.from_function(trivial, labels, lambda g, x: x)
    )


def negation_groupoid():
    return translation_groupoid(GroupAction.negation_mod(6))


# -- groups -------------------------------------------------------------------


def test_group_constructors():
    assert FiniteGroup.cyclic(5).order == 5
    assert FiniteGroup.klein().order == 4
    d4 = FiniteGroup.dihedral(4)
    assert d4.order == 8
    r, s = (1, 0), (0, 1)
    assert d4.op(s, d4.op(r, s)) == d4.inv(r)


def test_group_rejects_bad_tables():
    with pytest.raises(InvalidModelError):
        FiniteGroup([0, 1], {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}, 0)


def test_subgroup_enumeration_counts():
    assert len(FiniteGroup.cyclic(4).subgroups()) == 3
    assert len(FiniteGroup.klein().subgroups()) == 5
    d4 = FiniteGroup.dihedral(4)
    assert len(d4.subgroups()) == 10
    assert len(d4.normal_subgroups()) == 6


def test_quotient_group():
    c4 = FiniteGroup.cyclic(4)
    quotient, coset_of = c4._quotient(frozenset({0, 2}))
    assert quotient.order == 2
    assert coset_of[0] == coset_of[2] == quotient.index[quotient.identity]
    assert coset_of[1] == coset_of[3] != coset_of[0]
    with pytest.raises(InvalidModelError):
        FiniteGroup.dihedral(4)._quotient(frozenset({(0, 0), (0, 1)}))


# -- actions ------------------------------------------------------------------


def test_action_validation():
    group = FiniteGroup.cyclic(2)
    with pytest.raises(InvalidModelError):
        GroupAction(group, [0, 1], {(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 1): 0})


def _orbits(action):
    """The orbits of an action, in the order of their first points."""
    return orbit_space(translation_groupoid(action)).blocks


def test_negation_orbits():
    assert _orbits(GroupAction.negation_mod(6)) == ({0}, {1, 5}, {2, 4}, {3})


def test_rotation_mod_orbits():
    assert _orbits(GroupAction.rotation_mod(12, 4)) == ({0, 3, 6, 9}, {1, 4, 7, 10}, {2, 5, 8, 11})
    with pytest.raises(InvalidModelError):
        GroupAction.rotation_mod(10, 4)


def test_quotient_action_of_klein():
    klein = FiniteGroup.klein()
    action = GroupAction.regular(klein)
    quotient, point_of, coset_of = action._quotient(frozenset({(0, 0), (1, 0)}))
    assert quotient.group.order == 2
    assert len(quotient.points) == 2
    assert point_of[action.index[(0, 0)]] == point_of[action.index[(1, 0)]]


# -- translation groupoids ----------------------------------------------------


def test_translation_one_point_isotropy():
    groupoid = translation_groupoid(
        GroupAction.from_function(FiniteGroup.cyclic(2), ["p"], lambda g, x: x)
    )
    assert len(groupoid.objects) == 1
    assert len(groupoid.morphisms) == 2
    assert groupoid.verify_axioms().passed


def test_translation_swap():
    swap = GroupAction.from_function(
        FiniteGroup.cyclic(2), ["a", "b"], lambda g, x: x if g == 0 else ("b" if x == "a" else "a")
    )
    groupoid = translation_groupoid(swap)
    assert len(groupoid.objects) == 2
    assert len(groupoid.morphisms) == 4
    assert len(orbit_space(groupoid)) == 1
    assert groupoid.verify_axioms().passed


def test_translation_cyclic_rotation_is_free_and_transitive():
    groupoid = translation_groupoid(GroupAction.rotation_mod(5, 5))
    assert len(groupoid.objects) == 5
    assert len(groupoid.morphisms) == 25
    assert len(orbit_space(groupoid)) == 1
    loops = [m for m in groupoid.morphisms if groupoid.source[m] == groupoid.target[m]]
    assert len(loops) == 5  # identities only: the action is free
    assert groupoid.verify_axioms().passed


def test_negation_translation_counts():
    groupoid = negation_groupoid()
    assert len(groupoid.objects) == 6
    assert len(groupoid.morphisms) == 12
    assert groupoid.verify_axioms().passed


def _stored_copy(groupoid):
    """The groupoid rebuilt from its label tables, composites stored."""
    return FiniteGroupoid(
        groupoid.objects,
        groupoid.morphisms,
        groupoid.source,
        groupoid.target,
        groupoid.compose,
        groupoid.identity,
        groupoid.inverse,
    )


_KERNEL_ACTIONS = [
    lambda: GroupAction.negation_mod(6),
    lambda: _d3_sign_action(),
    lambda: GroupAction.regular(FiniteGroup.dihedral(4)),
    lambda: GroupAction.rotation_mod(12, 4),
]
_KERNEL_IDS = ["negation6", "d3_sign", "regular_d4", "rotation12_4"]


@pytest.mark.parametrize("make", _KERNEL_ACTIONS, ids=_KERNEL_IDS)
def test_row_and_column_kernels_match_compose_on_every_pair(make):
    groupoid = translation_groupoid(make())
    stored = _stored_copy(groupoid)
    assert stored.morphisms == groupoid.morphisms
    everything = list(range(len(groupoid.morphisms)))
    for g in everything:
        expected = [groupoid._compose(g, f) for f in everything]
        assert expected == [stored._compose(g, f) for f in everything]
        assert groupoid._row(g, everything) == expected == stored._row(g, everything)
    # a translation groupoid lists its composable pairs column by column
    assert sorted(groupoid._pairs()) == sorted(stored._pairs())
    assert groupoid._hom_index == stored._hom_index
    assert groupoid.verify_axioms().checks == stored.verify_axioms().checks


# -- orbit spaces and configurations ------------------------------------------


def test_orbit_space_unit_groupoid():
    assert len(orbit_space(unit_groupoid(["a", "b", "c"]))) == 3


def test_orbit_space_negation():
    blocks = {tuple(sorted(b)) for b in orbit_space(negation_groupoid()).blocks}
    assert blocks == {(0,), (3,), (1, 5), (2, 4)}


def test_configuration_of_unit_groupoid():
    pb2 = configuration_groupoid(unit_groupoid([1, 2]), 2)
    assert sorted(pb2.objects) == [(1, 2), (2, 1)]
    assert len(pb2.morphisms) == 2  # identities only
    assert pb2.warning is None


def _swap_action():
    return GroupAction.from_function(
        FiniteGroup.cyclic(2), ["a", "b"], lambda g, x: x if g == 0 else ("b" if x == "a" else "a")
    )


def test_configuration_with_single_orbit_is_empty():
    pb2 = configuration_groupoid(translation_groupoid(_swap_action()), 2)
    assert pb2.objects == ()
    assert pb2.morphisms == ()
    assert "orbits" in pb2.warning


def test_configuration_negation_counts():
    groupoid = negation_groupoid()
    pb2 = configuration_groupoid(groupoid, 2)
    orbits = orbit_space(groupoid)
    expected_objects = [
        (x, y)
        for x in groupoid.objects
        for y in groupoid.objects
        if orbits.of(x) != orbits.of(y)
    ]
    assert len(pb2.objects) == len(expected_objects) == 26
    assert len(pb2.morphisms) == 104
    assert len(orbit_space(pb2)) == 12  # ordered pairs of distinct orbits


def test_configuration_three_coordinates():
    pb3 = configuration_groupoid(negation_groupoid(), 3)
    assert len(pb3.objects) == 72
    assert len(pb3.morphisms) == 576
    assert len(orbit_space(pb3)) == 24  # 4*3*2 ordered orbit triples


@pytest.mark.parametrize(
    "make, n",
    [
        (lambda: GroupAction.negation_mod(6), 1),
        (lambda: GroupAction.negation_mod(6), 2),
        (lambda: GroupAction.negation_mod(6), 3),
        (lambda: GroupAction.rotation_mod(12, 4), 2),
        (_swap_action, 2),
    ],
    ids=["negation6_n1", "negation6_n2", "negation6_n3", "rotation12_4_n2", "single_orbit_n2"],
)
def test_configuration_of_a_translation_groupoid_matches_the_stored_builder(make, n):
    # the translation groupoid of G^n on orbit-distinct tuples against the
    # composites of the base computed pair by pair from a stored-table copy
    base = translation_groupoid(make())
    stored_base = _stored_copy(base)
    built, stored = configuration_groupoid(base, n), configuration_groupoid(stored_base, n)
    assert built.warning == stored.warning
    if built.objects:
        assert built.warning is None and built._axioms_hold_on_group()
    else:
        assert "only 1 orbits" in built.warning
    assert built.objects == stored.objects
    assert sorted(built.morphisms) == sorted(stored.morphisms)
    assert built._src == sorted(built._src)  # object-tuple-major
    for table in ("source", "target", "identity", "inverse", "compose"):
        assert getattr(built, table) == getattr(stored, table), table
    assert built.verify_axioms().checks == stored.verify_axioms().checks

    def rows(hom, verdict):
        return hom.verify().checks, verdict(hom).checks

    induced = [induced_configuration_hom(skeleton_inclusion(b), n) for b in (base, stored_base)]
    assert rows(induced[0], is_equivalence) == rows(induced[1], is_equivalence)
    if n > 1:
        assert rows(forget_map(base, n), is_covering_hom) == rows(forget_map(stored_base, n), is_covering_hom)


# -- the forgetting homomorphism ----------------------------------------------


def test_forget_map_is_a_functor():
    hom = forget_map(negation_groupoid(), 2)
    assert hom.verify().passed
    for m in hom.src.morphisms:
        assert hom.morphism_map[m] == m[:-1]


def test_forget_fiber_counts_match_puncture_formula():
    groupoid = negation_groupoid()
    hom = forget_map(groupoid, 3)
    orbits = orbit_space(groupoid)
    counts = Counter(hom.object_map[obj] for obj in hom.src.objects)
    for base, count in counts.items():
        removed = sum(len(orbits.blocks[orbits.of(x)]) for x in base)
        assert count == 6 - removed


def test_forget_unit_groupoid_has_unique_source_lifts():
    hom = forget_map(unit_groupoid(["a", "b", "c"]), 2)
    lifts = Counter((hom.morphism_map[m], hom.src.source[m]) for m in hom.src.morphisms)
    assert set(lifts.values()) == {1}
    object_fibers = Counter(hom.object_map[obj] for obj in hom.src.objects)
    assert set(object_fibers.values()) == {2}  # 3 - |orbit| = 2 per base point


# -- covering homomorphisms ----------------------------------------------------


def test_subgroup_inclusions_are_coverings():
    models = [
        (GroupAction.negation_mod(6), frozenset({0})),
        (GroupAction.negation_mod(6), frozenset({0, 1})),
        (GroupAction.rotation_mod(12, 4), frozenset({0, 2})),
        (GroupAction.regular(FiniteGroup.dihedral(4)), frozenset({(0, 0), (2, 0)})),
    ]
    for action, subgroup in models:
        report = is_covering_hom(subgroup_covering_hom(action, subgroup))
        assert report.passed, report.first_failure()


def _identity_hom(groupoid):
    return inclusion_hom(groupoid, groupoid, name="id")


def test_identity_is_a_covering():
    assert is_covering_hom(_identity_hom(negation_groupoid())).passed


def test_each_hom_is_verified_once():
    hom = subgroup_covering_hom(GroupAction.rotation_mod(12, 4), frozenset({0, 2}))
    calls = []
    check = hom._generators_preserved
    hom._generators_preserved = lambda: calls.append(1) or check()
    report = hom.verify()
    assert report.passed and calls == [1]
    assert is_covering_hom(hom).passed
    assert hom.verify() is report and calls == [1]


def test_forget_map_is_not_a_covering():
    report = is_covering_hom(forget_map(negation_groupoid(), 2))
    assert not report.passed
    name, detail = report.first_failure()
    assert name == "unique_source_lift"
    assert "104" in detail and "52" in detail


def _pair_groupoid(labels):
    objects = list(labels)
    morphisms = [("m", a, b) for a in objects for b in objects]
    return FiniteGroupoid(
        objects,
        morphisms,
        {m: m[1] for m in morphisms},
        {m: m[2] for m in morphisms},
        {
            (("m", b2, c), ("m", a, b)): ("m", a, c)
            for a in objects
            for b in objects
            for b2 in objects
            for c in objects
            if b == b2
        },
        {x: ("m", x, x) for x in objects},
        {m: ("m", m[2], m[1]) for m in morphisms},
    )


def test_constant_fiber_condition_is_independent():
    # Homomorphism + surjectivity + unique lifts can all hold while the
    # object fibers vary along one base orbit; the fourth check catches it.
    source = unit_groupoid(["a", "b", "c"])
    target = _pair_groupoid(["y1", "y2"])
    assert target.verify_axioms().passed
    f0 = {"a": "y1", "b": "y1", "c": "y2"}
    hom = GroupoidHom(
        source,
        target,
        f0,
        {m: ("m", f0[m[0]], f0[m[0]]) for m in source.morphisms},
        name="uneven",
    )
    report = is_covering_hom(hom)
    assert not report.passed
    failed = [name for name, ok, _ in report.checks if not ok]
    assert failed == ["fiber_constant_on_orbits"]


# -- equivalences ---------------------------------------------------------------


def test_skeleton_inclusion_is_an_equivalence():
    hom = skeleton_inclusion(negation_groupoid())
    assert hom.src.objects == (0, 1, 2, 3)
    assert len(hom.src.morphisms) == 6
    assert is_equivalence(hom).passed


def test_identity_is_an_equivalence():
    assert is_equivalence(_identity_hom(negation_groupoid())).passed


def test_non_full_inclusion_fails_condition_two():
    ambient = negation_groupoid()
    skeleton_objects = [0, 1, 2, 3]
    thin = unit_groupoid(skeleton_objects)
    hom = GroupoidHom(
        thin,
        ambient,
        {x: x for x in skeleton_objects},
        {m: ambient.identity[m[0]] for m in thin.morphisms},
        name="thin",
    )
    assert hom.verify().passed
    report = is_equivalence(hom)
    assert not report.passed
    assert dict((n, ok) for n, ok, _ in report.checks)["essentially_surjective"]
    name, detail = report.first_failure()
    assert name == "fully_faithful_bijection"
    # six ambient arrows join skeleton objects: the identities and the
    # negations at 0 and 3; the thin groupoid covers only the identities
    assert detail == "2 fibered-product triples have no preimage"


def test_equivalence_commutes_with_forgetting():
    groupoid = negation_groupoid()
    skeleton = skeleton_inclusion(groupoid)
    induced2 = induced_configuration_hom(skeleton, 2)
    induced1 = induced_configuration_hom(skeleton, 1)
    forget_small = forget_map(skeleton.src, 2)
    forget_big = forget_map(groupoid, 2)
    assert induced2.verify().passed
    for obj in induced2.src.objects:
        via_big = forget_big.object_map[induced2.object_map[obj]]
        via_small = induced1.object_map[forget_small.object_map[obj]]
        assert via_big == via_small


# -- Morita triples --------------------------------------------------------------


def test_morita_klein_factors():
    klein = FiniteGroup.klein()
    action = GroupAction.regular(klein)
    triple = morita_triple(
        action, frozenset({(0, 0), (1, 0)}), frozenset({(0, 0), (0, 1)})
    )
    assert triple.passed
    assert triple.to_first.src is triple.middle
    assert triple.to_second.src is triple.middle
    # N1 n N2 is trivial, so the middle model is G(S, Gamma) itself
    assert len(triple.middle.objects) == 4
    assert len(triple.middle.morphisms) == 16


def test_morita_equal_subgroups_gives_isomorphism():
    action = GroupAction.regular(FiniteGroup.cyclic(4))
    half = frozenset({0, 2})
    triple = morita_triple(action, half, half)
    assert triple.passed
    assert len(triple.middle.objects) == len(triple.to_first.dst.objects) == 2
    assert set(triple.to_first.object_map.values()) == set(triple.to_first.dst.objects)


def test_morita_cyclic_four():
    action = GroupAction.regular(FiniteGroup.cyclic(4))
    triple = morita_triple(action, frozenset({0, 2}), frozenset({0, 1, 2, 3}))
    assert triple.passed
    assert triple.to_json()["pass"] is True


def test_morita_dihedral_center_and_rotations():
    d4 = FiniteGroup.dihedral(4)
    action = GroupAction.regular(d4)
    center = frozenset({(0, 0), (2, 0)})
    rotations = frozenset({(k, 0) for k in range(4)})
    triple = morita_triple(action, center, rotations)
    assert triple.passed


def _quotient_tables(result):
    action, point_of, coset_of = result
    return action.group.elements, action.group.table, action.points, action.perms, point_of, coset_of


def test_quotient_action_is_shared_per_normal_subgroup():
    action = GroupAction.regular(FiniteGroup.dihedral(4))
    center = frozenset({(0, 0), (2, 0)})
    first = action._quotient(center)
    assert action._quotient(center) is first
    assert action._quotient(set(center)) is first
    fresh = GroupAction.regular(FiniteGroup.dihedral(4))._quotient(set(center))
    assert _quotient_tables(fresh) == _quotient_tables(first)
    reflection = frozenset({(0, 0), (0, 1)})  # not normal in D4
    for normal in (reflection, set(reflection)):
        with pytest.raises(InvalidModelError):
            action._quotient(normal)


def test_morita_reports_agree_on_shared_and_fresh_actions():
    group = FiniteGroup.product(FiniteGroup.dihedral(4), FiniteGroup.cyclic(2))
    shared = GroupAction.regular(group)
    normals = group.normal_subgroups()
    for first in normals:
        for second in normals:
            fresh = GroupAction.regular(group)
            assert (
                morita_triple(shared, first, second).to_json()
                == morita_triple(fresh, first, second).to_json()
            ), (first, second)


def test_morita_rejects_non_normal_inputs():
    d4 = FiniteGroup.dihedral(4)
    action = GroupAction.regular(d4)
    reflection = frozenset({(0, 0), (0, 1)})  # not normal in D4
    rotations = frozenset((k, 0) for k in range(4))
    named = re.escape(f"{sorted(map(repr, reflection))} is not a normal subgroup")
    with pytest.raises(InvalidModelError, match=named):
        morita_triple(action, reflection, frozenset(d4.elements))
    # the intersection with the rotations is trivial, hence normal
    with pytest.raises(InvalidModelError, match=named):
        morita_triple(action, rotations, reflection)


# -- JSON models ------------------------------------------------------------------


def test_group_and_action_from_json():
    group = group_from_json({"kind": "product", "factors": [{"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 2}]})
    assert group.order == 4
    action = group_action_from_json({"kind": "regular"}, group)
    assert len(action.points) == 4
    negation = group_action_from_json({"kind": "negation", "n": 6}, group_from_json({"kind": "cyclic", "n": 2}))
    assert len(_orbits(negation)) == 4
    with pytest.raises(InvalidModelError):
        group_from_json({"kind": "free"})


def test_rotation_model_acts_through_the_given_cyclic_group():
    c2xc3 = group_from_json({"kind": "product", "factors": [{"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 3}]})
    action = group_action_from_json({"kind": "rotation", "n": 12}, c2xc3)
    assert action.group is c2xc3
    # (1, 1) is the first element of order 6, so it adds 12 / 6 = 2, and
    # (0, 1) = (1, 1)^4 adds 8
    assert [action.apply((1, 1), x) for x in range(3)] == [2, 3, 4]
    assert action.apply((0, 1), 0) == 8
    assert action.apply((1, 0), 0) == 6
    assert len(_orbits(action)) == 2
    # a cyclic model keeps the labels and table of rotation_mod
    c4 = group_action_from_json({"kind": "rotation", "n": 12}, group_from_json({"kind": "cyclic", "n": 4}))
    reference = GroupAction.rotation_mod(12, 4)
    assert (c4.group.elements, c4.group.table) == (reference.group.elements, reference.group.table)
    assert c4.perms == reference.perms


@pytest.mark.parametrize("group", [{"kind": "dihedral", "n": 4}, {"kind": "klein"}], ids=["D4", "klein"])
def test_rotation_model_refuses_a_group_that_is_not_cyclic(group):
    with pytest.raises(InvalidModelError, match="rotation acts through a cyclic group"):
        group_action_from_json({"kind": "rotation", "n": 8}, group_from_json(group))


def _cyclic3_spec(corrupt=False):
    compose = []
    for a in range(3):
        for b in range(3):
            compose.append([f"g{a}", f"g{b}", f"g{(a + b) % 3}"])
    if corrupt:
        compose = [row for row in compose if row[:2] != ["g2", "g2"]]
        compose.append(["g2", "g2", "g2"])  # should be g1
    return {
        "objects": ["x"],
        "morphisms": [{"id": f"g{k}", "src": "x", "tgt": "x"} for k in range(3)],
        "identities": {"x": "g0"},
        "compose": compose,
        "inverses": {"g0": "g0", "g1": "g2", "g2": "g1"},
    }


def test_groupoid_from_json_roundtrip():
    groupoid = groupoid_from_json(_cyclic3_spec())
    report = groupoid.verify_axioms()
    assert report.passed


def test_groupoid_from_json_coerces_string_keys_to_integer_labels():
    # the pair groupoid on objects 0 and 1: JSON object keys are strings,
    # so identities and inverses name the integer labels by their text
    ends = {10: (0, 0), 11: (1, 1), 12: (0, 1), 13: (1, 0)}
    compose = [
        [g, f, next(h for h, e in ends.items() if e == (ends[f][0], ends[g][1]))]
        for g in ends
        for f in ends
        if ends[g][0] == ends[f][1]
    ]
    groupoid = groupoid_from_json({
        "objects": [0, 1],
        "morphisms": [{"id": m, "src": s, "tgt": t} for m, (s, t) in ends.items()],
        "identities": {"0": 10, "1": 11},
        "compose": compose,
        "inverses": {"10": 10, "11": 11, "12": 13, "13": 12},
    })
    assert groupoid.identity == {0: 10, 1: 11}
    assert groupoid.inverse == {10: 10, 11: 11, 12: 13, 13: 12}
    assert groupoid.verify_axioms().passed


def test_corrupted_composition_table_names_the_triple():
    groupoid = groupoid_from_json(_cyclic3_spec(corrupt=True))
    report = groupoid.verify_axioms()
    assert not report.passed
    failures = {name: detail for name, ok, detail in report.checks if not ok}
    assert any("triple" in detail for detail in failures.values())


def test_check_result_json():
    report = negation_groupoid().verify_axioms()
    data = report.to_json()
    assert data["pass"] is True
    assert {row["name"] for row in data["checks"]} >= {"associativity", "inverse_laws"}


# -- verify_axioms against an all-pairs brute force --------------------------------


def _brute_force_axioms(groupoid):
    """The rows verify_axioms must report, from the public tables alone:
    every ordered pair and every composable triple is visited in row-major
    morphism order, and each check names its first failure."""
    objects, arrows = set(groupoid.objects), set(groupoid.morphisms)
    src, tgt, comp = groupoid.source, groupoid.target, groupoid.compose
    ident, inv = groupoid.identity, groupoid.inverse
    order = groupoid.morphisms
    total = all(m in src and m in tgt and src[m] in objects and tgt[m] in objects for m in arrows)
    id_detail = ""
    for x in groupoid.objects:
        e = ident.get(x)
        if e not in arrows or src.get(e) != x or tgt.get(e) != x:
            id_detail = f"identity of {x!r} is missing or has wrong endpoints"
            break
    id_ok = not id_detail
    comp_detail = ""
    for g in order:
        for f in order:
            defined = src.get(g) == tgt.get(f)
            if defined != ((g, f) in comp):
                comp_detail = f"composition defined on the wrong pairs at (g={g!r}, f={f!r})"
            elif defined:
                h = comp[(g, f)]
                if h not in arrows or src[h] != src[f] or tgt[h] != tgt[g]:
                    comp_detail = f"composite of (g={g!r}, f={f!r}) has wrong endpoints"
            if comp_detail:
                break
        if comp_detail:
            break
    comp_ok = not comp_detail
    unit_detail = assoc_detail = inv_detail = ""
    if id_ok and comp_ok:
        for f in order:
            if comp.get((ident[tgt[f]], f)) != f or comp.get((f, ident[src[f]])) != f:
                unit_detail = f"unit law fails at {f!r}"
                break
        for f in order:
            g = inv.get(f)
            if (
                g not in arrows
                or src.get(g) != tgt[f]
                or tgt.get(g) != src[f]
                or comp.get((g, f)) != ident[src[f]]
                or comp.get((f, g)) != ident[tgt[f]]
            ):
                inv_detail = f"inverse law fails at {f!r}"
                break
    if comp_ok:
        triples = (
            (g, f, e)
            for g in order
            for f in order
            for e in order
            if src[g] == tgt[f] and src[f] == tgt[e]
        )
        for g, f, e in triples:
            if comp[(comp[(g, f)], e)] != comp[(g, comp[(f, e)])]:
                assoc_detail = f"associativity fails on the triple (g={g!r}, f={f!r}, e={e!r})"
                break
    return (
        ("structure_maps_total", total, "" if total else "a morphism lacks source or target"),
        ("identities_exist", id_ok, id_detail),
        ("composition_wellformed", comp_ok, comp_detail),
        ("unit_laws", id_ok and not unit_detail, unit_detail),
        ("associativity", not assoc_detail, assoc_detail),
        ("inverse_laws", not inv_detail, inv_detail),
    )


def _corruptions(groupoid):
    """Tables of the groupoid with one entry wrong, each corruption kind
    applied systematically: every compose entry dropped and redirected,
    extra entries on non-composable pairs, and every wrong identity,
    inverse and target."""
    tables = {
        "objects": groupoid.objects,
        "morphisms": groupoid.morphisms,
        "source": groupoid.source,
        "target": groupoid.target,
        "compose": groupoid.compose,
        "identity": groupoid.identity,
        "inverse": groupoid.inverse,
    }
    arrows, compose = groupoid.morphisms, groupoid.compose
    for pair, h in compose.items():
        yield {**tables, "compose": {k: v for k, v in compose.items() if k != pair}}
        for other in arrows:
            if other != h:
                yield {**tables, "compose": {**compose, pair: other}}
    for g in arrows:
        for f in arrows:
            if (g, f) not in compose:
                yield {**tables, "compose": {**compose, (g, f): g}}
    for x, e in groupoid.identity.items():
        for other in arrows:
            if other != e:
                yield {**tables, "identity": {**groupoid.identity, x: other}}
    for m in arrows:
        for other in arrows:
            if other != groupoid.inverse[m]:
                yield {**tables, "inverse": {**groupoid.inverse, m: other}}
        for y in groupoid.objects:
            if y != groupoid.target[m]:
                yield {**tables, "target": {**groupoid.target, m: y}}


def _d3_sign_action():
    """D3 acting on two points through the parity of its reflections: two
    objects, each with vertex group C3."""
    return GroupAction.from_function(FiniteGroup.dihedral(3), [0, 1], lambda g, x: (x + g[1]) % 2)


# (the groupoid, the share of its corruptions checked); every corrupted copy
# is a stored table, so each row, associativity included, is its scan
@pytest.mark.parametrize(
    "make, share",
    [
        (lambda: translation_groupoid(GroupAction.negation_mod(4)), 1),
        (lambda: groupoid_from_json(_cyclic3_spec()), 1),
        (lambda: _pair_groupoid(["a", "b"]), 1),
        # six objects; vertex groups C2 at the fixed points 0 and 3
        (lambda: translation_groupoid(GroupAction.negation_mod(6)), 1),
        # the pair groupoid on the six elements of D3: every hom-set is one
        # morphism; its 10,000 or so corruptions are sampled
        (lambda: translation_groupoid(GroupAction.regular(FiniteGroup.dihedral(3))), 0.015),
        (lambda: translation_groupoid(_d3_sign_action()), 1),
    ],
    ids=["negation4", "cyclic3", "pair2", "negation6", "regular_d3", "d3_sign"],
)
def test_verify_axioms_matches_all_pairs_brute_force(make, share):
    rng = random.Random(4)
    pristine = make()
    cases = 0
    for tables in _corruptions(pristine):
        if share < 1 and rng.random() >= share:
            continue
        shuffled = list(tables["morphisms"])
        rng.shuffle(shuffled)
        for morphisms in (tables["morphisms"], shuffled):
            groupoid = FiniteGroupoid(**{**tables, "morphisms": morphisms})
            expected = _brute_force_axioms(groupoid)
            assert groupoid.verify_axioms().checks == expected, (tables, morphisms)
            cases += 1
    assert cases >= 70


# -- the generator shortcuts against full scans -----------------------------------
#
# Group associativity, action compatibility and a hom's composition law are
# each checked over a generating set only.  The oracles below scan every
# entry with their own multiplication, from the public label tables.


def _dihedral_mul(n):
    def mul(a, b):
        (k1, e1), (k2, e2) = a, b
        return ((k1 + (k2 if e1 == 0 else -k2)) % n, (e1 + e2) % 2)

    return mul


def _associative_at(elements, table, a):
    return all(table[(table[(x, a)], y)] == table[(x, table[(a, y)])] for x in elements for y in elements)


@pytest.mark.parametrize("n", [3, 4])
def test_group_validation_catches_corruptions_off_the_generators(n):
    group = FiniteGroup.dihedral(n)
    elements, identity, s = list(group.elements), (0, 0), (0, 1)
    mul = _dihedral_mul(n)
    # Light's test checks the middles of a generating set; the first one
    # here is the reflection s
    generators = [group.elements[a] for a in group._generating_set()]
    assert generators[0] == s and len(generators) == 2
    table = {(a, b): mul(a, b) for a in elements for b in elements}
    cases = 0
    for x in elements:
        for y in elements:
            # (x, y) and (x s, s y) take one wrong value together, so s stays
            # an associative middle: (x s)(s y) = x y = x (s (s y))
            pair = {(x, y), (mul(x, s), mul(s, y))}
            if {x, y, mul(x, s), mul(s, y)} & {identity, s} or table[(x, y)] == identity:
                continue
            for wrong in elements:
                if wrong in (table[(x, y)], identity):
                    continue
                corrupted = {**table, **dict.fromkeys(pair, wrong)}
                assert _associative_at(elements, corrupted, s)
                assert not all(_associative_at(elements, corrupted, a) for a in elements)
                with pytest.raises(InvalidModelError, match="associativity"):
                    FiniteGroup(elements, corrupted, identity)
                cases += 1
    assert cases >= 20


def _compatible_at(mul, elements, points, act, h):
    return all(act[(mul(g, h), x)] == act[(g, act[(h, x)])] for g in elements for x in points)


@pytest.mark.parametrize(
    "points", [list(range(4)), [(k, e) for k in range(4) for e in range(2)]], ids=["square", "regular"]
)
def test_action_validation_catches_corruptions_off_the_generators(points):
    group = FiniteGroup.dihedral(4)
    elements, s = list(group.elements), (0, 1)
    mul = _dihedral_mul(4)
    generators = [group.elements[h] for h in group._generating_set()]
    assert generators == [s, (1, 0)]
    if len(points) == 4:
        act = {(g, x): (g[0] + (-x if g[1] else x)) % 4 for g in elements for x in points}
    else:
        act = {(g, x): mul(g, x) for g in elements for x in points}
    GroupAction(group, points, act)
    cases = 0
    # swap two images of one element h off the generators
    for h in elements:
        if h in generators or h == group.identity:
            continue
        for i, x1 in enumerate(points):
            for x2 in points[i + 1 :]:
                corrupted = {**act, (h, x1): act[(h, x2)], (h, x2): act[(h, x1)]}
                assert not all(_compatible_at(mul, elements, points, corrupted, k) for k in elements)
                with pytest.raises(InvalidModelError, match="compatible"):
                    GroupAction(group, points, corrupted)
                cases += 1
    twisted_cases = 0
    # r^k s acts as r^k after a transposition t of two points: compatible
    # at the generator s (t is an involution) and wrong elsewhere, unless t
    # happens to make a true action
    for i, x1 in enumerate(points):
        for x2 in points[i + 1 :]:
            swap = {x1: x2, x2: x1}
            twisted = {(g, x): act[((g[0], 0), swap.get(x, x))] if g[1] else act[(g, x)] for g, x in act}
            assert _compatible_at(mul, elements, points, twisted, s)
            if all(_compatible_at(mul, elements, points, twisted, k) for k in elements):
                GroupAction(group, points, twisted)
                continue
            with pytest.raises(InvalidModelError, match="compatible"):
                GroupAction(group, points, twisted)
            twisted_cases += 1
    assert cases >= 30 and twisted_cases >= 4


def _full_scan_hom_rows(src, dst, f0, f1):
    """The rows GroupoidHom.verify must report, every composable pair
    scanned in the order of src.compose."""
    dst_objects, dst_arrows = set(dst.objects), set(dst.morphisms)
    rows = []
    objects_ok = all(f0.get(x) in dst_objects for x in src.objects)
    rows.append(("object_map_total", objects_ok, "" if objects_ok else "object map misses an object"))
    arrows_ok = all(f1.get(m) in dst_arrows for m in src.morphisms)
    rows.append(("morphism_map_total", arrows_ok, "" if arrows_ok else "morphism map misses a morphism"))
    if not (objects_ok and arrows_ok):
        return tuple(rows)
    st_detail = ""
    for m in src.morphisms:
        if dst.source[f1[m]] != f0[src.source[m]] or dst.target[f1[m]] != f0[src.target[m]]:
            st_detail = f"endpoints not preserved at {m!r}"
            break
    rows.append(("preserves_endpoints", not st_detail, st_detail))
    id_ok = all(f1[src.identity[x]] == dst.identity[f0[x]] for x in src.objects)
    rows.append(("preserves_identities", id_ok, "" if id_ok else "an identity is not preserved"))
    comp_detail = ""
    for (g, f), h in src.compose.items():
        if dst.compose.get((f1[g], f1[f])) != f1[h]:
            comp_detail = f"composition not preserved at (g={g!r}, f={f!r})"
            break
    rows.append(("preserves_composition", not comp_detail, comp_detail))
    inv_ok = all(f1[src.inverse[m]] == dst.inverse[f1[m]] for m in src.morphisms)
    rows.append(("preserves_inverses", inv_ok, "" if inv_ok else "an inverse is not preserved"))
    return tuple(rows)


@pytest.mark.parametrize(
    "make",
    [
        lambda: _identity_hom(translation_groupoid(_d3_sign_action())),
        lambda: _identity_hom(
            translation_groupoid(GroupAction.from_function(FiniteGroup.dihedral(4), ["p"], lambda g, x: x))
        ),
        lambda: subgroup_covering_hom(
            GroupAction.from_function(FiniteGroup.dihedral(4), ["p", "q"], lambda g, x: x),
            frozenset((k, e) for k in (0, 2) for e in (0, 1)),
        ),
    ],
    ids=["d3_sign", "d4_point", "d4_subgroup"],
)
def test_hom_verify_matches_full_scan_off_the_generators(make):
    hom = make()
    src, dst = hom.src, hom.dst
    group = src._action.group
    generators = {group.elements[s] for s in group._generating_set()}
    f0, f1 = dict(hom.object_map), dict(hom.morphism_map)
    assert hom.verify().checks == _full_scan_hom_rows(src, dst, f0, f1)
    cases = broken = 0
    for f in src.morphisms:
        # skip the arrows (x, s) for s in the source group's generating set
        if f[1] in generators:
            continue
        for other in dst.morphisms:
            # same endpoints, so the generator check is the one that runs
            if other == f1[f] or (dst.source[other], dst.target[other]) != (dst.source[f1[f]], dst.target[f1[f]]):
                continue
            corrupted = {**f1, f: other}
            checks = GroupoidHom(src, dst, f0, corrupted, name="c").verify().checks
            expected = _full_scan_hom_rows(src, dst, f0, corrupted)
            assert checks == expected, (f, other)
            cases += 1
            broken += not expected[4][1]
    assert cases >= 10
    assert broken == cases


# -- group-level decisions against full scans and stored tables -------------------
#
# A translation groupoid decides its axiom rows, and a map between two of
# them its hom rows, on the group tables and the actions.  Each decision is
# checked against the scans of the same object and against a stored-table
# copy built from the label tables, which reads no group table at all.


def _d4_by_c2():
    return FiniteGroup.product(FiniteGroup.dihedral(4), FiniteGroup.cyclic(2))


def _c4_by_c4():
    return FiniteGroup.product(FiniteGroup.cyclic(4), FiniteGroup.cyclic(4))


def _quotient_middle_action():
    """D4 x C2 acting on itself, modulo the centre of its D4 factor."""
    centre = frozenset({((0, 0), 0), ((2, 0), 0)})
    return GroupAction.regular(_d4_by_c2())._quotient(centre)[0]


_AXIOM_ACTIONS = [
    lambda: GroupAction.negation_mod(6),
    lambda: GroupAction.rotation_mod(12, 4),
    lambda: GroupAction.regular(FiniteGroup.dihedral(4)),
    lambda: GroupAction.regular(_c4_by_c4()),
    _quotient_middle_action,
]


def _scanned_rows(groupoid):
    """verify_axioms of the groupoid with the group-level decision off."""
    groupoid._axioms_hold_on_group = lambda: False
    try:
        return groupoid.verify_axioms().checks
    finally:
        del groupoid._axioms_hold_on_group


def _damage(groupoid, rng):
    """Change one entry of _tgt, _inv, _ident or _mul in place, to another
    object, morphism or element index; returns the array's name.  "action"
    changes one entry of _tgt and rebuilds _inv from it as the constructor
    does, so that only the action law is broken."""
    name = rng.choice(["_tgt", "_inv", "_ident", "_mul", "action"])
    if name == "action":
        _damage_entry(groupoid, "_tgt", rng)
        order, inverse = groupoid._order, groupoid._action.group.inverse
        groupoid._inv = [t * order + inverse[m % order] for m, t in enumerate(groupoid._tgt)]
        return name
    if name == "_mul":
        rows = [list(row) for row in groupoid._mul]
        a, b = rng.randrange(len(rows)), rng.randrange(len(rows))
        rows[a][b] = rng.choice([c for c in range(len(rows)) if c != rows[a][b]])
        groupoid._mul = rows
        return name
    _damage_entry(groupoid, name, rng)
    return name


def _damage_entry(groupoid, name, rng):
    values = list(getattr(groupoid, name))
    bound = len(groupoid._objects) if name == "_tgt" else len(groupoid._src)
    i = rng.randrange(len(values))
    values[i] = rng.choice([v for v in range(bound) if v != values[i]])
    setattr(groupoid, name, values)


def test_axioms_decided_on_the_group_match_the_scans_and_a_stored_table():
    rng = random.Random(23)
    damaged = Counter()
    for make in _AXIOM_ACTIONS:
        groupoid = translation_groupoid(make())
        assert groupoid._axioms_hold_on_group()
        rows = groupoid.verify_axioms().checks
        assert all(ok for _, ok, _ in rows)
        assert rows == _scanned_rows(groupoid) == _stored_copy(groupoid).verify_axioms().checks
        for _ in range(60):
            copy = translation_groupoid(make())
            damaged[_damage(copy, rng)] += 1
            # each change breaks a law that the decision reads
            assert not copy._axioms_hold_on_group()
            rows = copy.verify_axioms().checks
            assert not all(ok for _, ok, _ in rows)
            assert rows == _stored_copy(copy).verify_axioms().checks
    assert sum(damaged.values()) >= 200 and min(damaged.values()) >= 30, damaged


def test_axioms_decided_on_the_group_refute_tables_that_fail_one_condition_only():
    # a constant product is associative, e e = e and h h^-1 = e still hold,
    # and an action that fixes every point satisfies the action law for any
    # product: only the identity row and column of the table refute it
    constant = translation_groupoid(GroupAction.from_function(FiniteGroup.dihedral(4), ["p"], lambda g, x: x))
    constant._mul = [[constant._unit] * 8 for _ in range(8)]
    # the trivial group has no generators at which to test the action law, so
    # only "e fixes every point" refutes an e that moves a
    moved = unit_groupoid(["a", "b", "c"])
    moved._tgt = [1, 1, 2]
    moved._inv = [1, 1, 2]
    # a table on the indices of C4 with the identity and inverses of C4, in
    # which Light's test holds at 1, the generator of C4, but not at 2: here
    # 1 generates {0, 1, 3} only, and generators of this table include 2
    skewed = translation_groupoid(GroupAction.from_function(FiniteGroup.cyclic(4), ["p"], lambda g, x: x))
    assert skewed._action.group._generating_set() == [1]
    skewed._mul = [[0, 1, 2, 3], [1, 3, 2, 0], [2, 2, 0, 2], [3, 0, 2, 1]]
    for groupoid in (constant, moved, skewed):
        assert not groupoid._axioms_hold_on_group()
        rows = groupoid.verify_axioms().checks
        assert not all(ok for _, ok, _ in rows)
        assert rows == _stored_copy(groupoid).verify_axioms().checks


def _stored_checks(hom):
    """psi -> the rows of the product-form hom (phi, psi) with the hom's
    ends and phi, decided on the groups, and of the same map between
    stored-table copies of both ends, which is scanned arrow by arrow,
    asserted equal."""
    src, dst = _stored_copy(hom.src), _stored_copy(hom.dst)
    assert (src.morphisms, dst.morphisms) == (hom.src.morphisms, hom.dst.morphisms)
    phi, order, width = hom._object_images, hom.src._order, hom.dst._order

    def check(psi):
        product = GroupoidHom._product(hom.src, hom.dst, phi, psi, hom.name)
        rows = _hom_rows(product)
        images = [phi[m // order] * width + psi[m % order] for m in range(len(src.morphisms))]
        assert rows == _hom_rows(GroupoidHom._encoded(src, dst, phi, images, hom.name))
        return rows

    return check


def _translation_homs(rng):
    """Quotient arrows of Morita triples (a seeded sample of the pairs of
    normal subgroups of each group) and subgroup coverings."""
    for group in (FiniteGroup.dihedral(4), _c4_by_c4(), _d4_by_c2()):
        action = GroupAction.regular(group)
        normals = group.normal_subgroups()
        pairs = [(a, b) for a in normals for b in normals]
        for first, second in rng.sample(pairs, min(6, len(pairs))):
            triple = morita_triple(action, first, second)
            yield triple.to_first
            yield triple.to_second
    trivial = GroupAction.from_function(FiniteGroup.dihedral(4), ["p", "q"], lambda g, x: x)
    for action in (GroupAction.rotation_mod(12, 4), GroupAction.regular(FiniteGroup.dihedral(4)), trivial):
        for subgroup in action.group.subgroups():
            yield subgroup_covering_hom(action, subgroup)


def _hom_rows(hom):
    verdict = is_equivalence(hom) if hom.name.startswith("to_") else is_covering_hom(hom)
    return hom.verify().checks, verdict.checks


def _twisted(hom, rng, c):
    """psi multiplied on the left by the element c on one left coset g<s>
    (g outside <s>) of the first generator s of the src group: psi(x s) =
    psi(x) psi(s) still holds for every x, so only another generator can
    refute the twisted psi; None when <s> is the whole group."""
    group, psi = hom.src._action.group, hom._psi
    generators = group._generating_set()
    if len(generators) < 2:
        return None
    s = generators[0]
    cyclic = group._closure([s])
    g = rng.choice([a for a in range(group.order) if a not in cyclic])
    coset = {group.table[g][a] for a in cyclic}
    return [hom.dst._mul[c][p] if h in coset else p for h, p in enumerate(psi)]


def test_homs_decided_on_the_group_match_stored_tables():
    rng = random.Random(23)
    homs = changed = failing = twisted = reached = 0
    for hom in _translation_homs(rng):
        check = _stored_checks(hom)
        assert hom._psi is not None
        check(hom._psi)
        homs += 1
        order, width = hom.src._order, hom.dst._order
        if width == 1:
            continue
        # psi changed on one element h
        h, shift = rng.randrange(order), rng.randrange(1, width)
        psi = list(hom._psi)
        psi[h] = (psi[h] + shift) % width
        rows = check(psi)
        changed += 1
        failing += not all(ok for _, ok, _ in rows[0])
        # psi twisted on a coset; where endpoints hold and composition
        # fails, a generator other than the first refutes it
        others = [c for c in range(width) if c != hom.dst._unit]
        for c in rng.sample(others, min(4, len(others))):
            psi = _twisted(hom, rng, c)
            if psi is None:
                break
            rows = check(psi)
            twisted += 1
            reached += rows[0][2][1] and not rows[0][4][1]
    assert homs >= 40 and changed >= 25 and failing >= 40
    assert twisted >= 60 and reached >= 5, (twisted, reached)


# -- the equivalence decision against a brute-force oracle ------------------------
#
# is_equivalence decides a map (phi, psi) between translation groupoids on
# orbits and stabilizers.  The oracle reads only the label views and builds
# the fibered-product triples from the definition; the scans are the same
# call with the decision off.


def _oracle_equivalence(hom):
    """(essentially surjective, fully faithful) from the definition: every
    base object is reached by an arrow out of the image, and h -> (F(h),
    s(h), t(h)) is a bijection onto the triples (g, x, x') with s(g) = F(x)
    and t(g) = F(x')."""
    src, dst = hom.src, hom.dst
    f0, f1 = hom.object_map, hom.morphism_map
    image = {f0[x] for x in src.objects}
    surjective = {dst.target[g] for g in dst.morphisms if dst.source[g] in image} == set(dst.objects)
    over: dict = {}
    for x in src.objects:
        over.setdefault(f0[x], []).append(x)
    triples = {
        (g, x, y) for g in dst.morphisms for x in over.get(dst.source[g], ()) for y in over.get(dst.target[g], ())
    }
    images = [(f1[h], src.source[h], src.target[h]) for h in src.morphisms]
    faithful = len(set(images)) == len(images) and set(images) == triples
    return surjective, faithful


def _scanned_equivalence(hom):
    """is_equivalence of the hom with the orbit-stabilizer decision off."""
    hom._equivalence_holds = lambda: False
    try:
        return is_equivalence(hom)
    finally:
        del hom._equivalence_holds


def _check_equivalence(hom):
    """Asserts the decision's CheckResult equal to the scan's and, for a
    verified hom, its two rows equal to the oracle's verdict; returns
    (decided on orbits and stabilizers, is an equivalence)."""
    result = is_equivalence(hom)
    assert result == _scanned_equivalence(hom), hom.name
    if not hom.verify().passed:
        return False, False
    rows = {name: ok for name, ok, _ in result.checks}
    assert (rows["essentially_surjective"], rows["fully_faithful_bijection"]) == _oracle_equivalence(hom), hom.name
    return hom._psi is not None, result.passed


def _morita_arrows(action):
    for first in action.group.normal_subgroups():
        for second in action.group.normal_subgroups():
            triple = morita_triple(action, first, second)
            yield triple.to_first
            yield triple.to_second


_MORITA_GROUPS = [
    FiniteGroup.klein,
    lambda: FiniteGroup.cyclic(4),
    lambda: FiniteGroup.cyclic(8),
    lambda: FiniteGroup.cyclic(12),
    lambda: FiniteGroup.dihedral(4),
    lambda: FiniteGroup.dihedral(6),
    lambda: FiniteGroup.product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)),
    _c4_by_c4,
    _d4_by_c2,
]
# actions that are not free, so some quotient arrows are not equivalences
_MORITA_ACTIONS = [
    lambda: GroupAction.negation_mod(6),
    lambda: GroupAction.negation_mod(7),
    lambda: GroupAction.rotation_mod(12, 4),
    lambda: GroupAction.rotation_mod(12, 6),
    _d3_sign_action,
    lambda: GroupAction.from_function(FiniteGroup.dihedral(4), ["p", "q"], lambda g, x: x),
]


def test_equivalence_decision_matches_the_scans_and_the_oracle_on_pristine_homs():
    decided = failing = 0
    homs = [arrow for make in _MORITA_GROUPS for arrow in _morita_arrows(GroupAction.regular(make()))]
    homs += [arrow for make in _MORITA_ACTIONS for arrow in _morita_arrows(make())]
    for make in (*_MORITA_ACTIONS, lambda: GroupAction.negation_mod(12), lambda: GroupAction.regular(_d4_by_c2())):
        action = make()
        homs += [subgroup_covering_hom(action, subgroup) for subgroup in action.group.subgroups()]
        homs.append(skeleton_inclusion(translation_groupoid(action)))
        homs.append(_identity_hom(translation_groupoid(action)))
    for make, n in ((GroupAction.negation_mod, 6), (GroupAction.negation_mod, 7)):
        base = translation_groupoid(make(n))
        homs += [forget_map(base, 2), forget_map(base, 3), skeleton_inclusion(configuration_groupoid(base, 2))]
    homs.append(forget_map(translation_groupoid(GroupAction.rotation_mod(12, 4)), 2))
    for hom in homs:
        by_orbits, passed = _check_equivalence(hom)
        decided += by_orbits
        failing += not passed
    # quotient arrows, subgroup covers and forget maps are built in product
    # form; the identities, given by labels, and skeleton inclusions are scanned
    assert len(homs) >= 1800 and decided >= 1800 and failing >= 100, (len(homs), decided, failing)


def _fixing(group, points):
    return GroupAction.from_function(group, points, lambda g, x: x)


def _damaged_homs():
    """(name, hom) for product-form homs that fail one condition of the
    decision each and pass the others."""
    c2 = FiniteGroup.cyclic(2)
    negation = GroupAction.negation_mod(6)
    # Z/6 and an extra point z that both elements fix: phi misses {z}
    plus_point = GroupAction.from_function(c2, [*range(6), "z"], lambda g, x: x if x == "z" or not g else (-x) % 6)
    yield "an H-orbit missed", GroupoidHom._product(
        translation_groupoid(negation), translation_groupoid(plus_point), list(range(6)), [0, 1], "missed"
    )
    # two copies of Z/6 folded onto one: phi identifies orbits
    copies = [(c, x) for c in (0, 1) for x in range(6)]
    twice = GroupAction.from_function(c2, copies, lambda g, p: (p[0], (-p[1]) % 6 if g else p[1]))
    yield "orbits identified", GroupoidHom._product(
        translation_groupoid(twice), translation_groupoid(negation), list(range(6)) * 2, [0, 1], "folded"
    )
    # C2 fixing a point onto C2 fixing a point through the trivial map:
    # equal stabilizers, but ker psi is all of them
    yield "ker psi meets a stabilizer", GroupoidHom._product(
        translation_groupoid(_fixing(c2, ["p"])), translation_groupoid(_fixing(c2, ["q"])), [0], [0, 0], "trivial"
    )
    # the trivial group onto C2 at a fixed point: psi is injective, but the
    # stabilizers have orders 1 and 2
    yield "unequal stabilizers", GroupoidHom._product(
        translation_groupoid(_fixing(FiniteGroup.cyclic(1), ["p", "r"])),
        translation_groupoid(_fixing(c2, ["q", "s"])),
        [0, 1],
        [0],
        "included",
    )


def test_equivalence_decision_refutes_homs_that_fail_one_condition_only():
    expected = {
        "an H-orbit missed": (False, True),
        "orbits identified": (True, False),
        "ker psi meets a stabilizer": (True, False),
        "unequal stabilizers": (True, False),
    }
    for name, hom in _damaged_homs():
        assert hom.verify().passed, name
        assert not hom._equivalence_holds(), name
        result = is_equivalence(hom)
        assert result == _scanned_equivalence(hom), name
        rows = tuple(ok for _, ok, _ in result.checks[1:])
        assert rows == expected[name] == _oracle_equivalence(hom), name
    # the rows and details of the scans
    rows = {hom.name: is_equivalence(hom).checks[1:] for _, hom in _damaged_homs()}
    assert rows["missed"][0] == ("essentially_surjective", False, "misses base objects [\"'z'\"]")
    # the arrows between the two copies of a point have no preimage
    assert rows["folded"][1] == ("fully_faithful_bijection", False, "24 fibered-product triples have no preimage")
    same_triple = "two morphisms map to the same triple (('q', 0), 'p', 'p')"
    assert rows["trivial"][1] == ("fully_faithful_bijection", False, same_triple)
    assert rows["included"][1] == ("fully_faithful_bijection", False, "2 fibered-product triples have no preimage")


def test_equivalence_decided_on_product_form_builds_no_arrow_images():
    action = GroupAction.regular(_d4_by_c2())
    centre = frozenset({((0, 0), 0), ((2, 0), 0)})
    triple = morita_triple(action, centre, frozenset({((0, 0), 0), ((0, 0), 1)}))
    assert triple.passed
    for hom in (triple.to_first, triple.to_second):
        assert hom._psi is not None and "_arrow_images" not in vars(hom)
        # the coarse ends read neither source nor inverse arrays
        assert "_src" not in vars(hom.dst) and "_inv" not in vars(hom.dst)
    # the label views and the scans build the images from phi and psi: the
    # middle's points and elements are blocks and cosets of N1 n N2, each
    # sent to the block and coset of N1 that holds its members
    hom = triple.to_first
    dst_points, dst_group = hom.dst._action.points, hom.dst._action.group
    block = {x: y for y in dst_points for x in y}
    coset = {h: c for c in dst_group.elements for h in c}
    expected = [(block[min(x)], coset[min(h)]) for x, h in hom.src.morphisms]
    assert [hom.dst._arrows[a] for a in hom._arrow_images] == expected
    assert list(hom.morphism_map.values()) == expected


@pytest.mark.parametrize(
    "make",
    _KERNEL_ACTIONS + [_MORITA_ACTIONS[i] for i in (1, 3, 5)],
    ids=_KERNEL_IDS + ["negation7", "rotation12_6", "d4_fixing"],
)
def test_orbit_ids_read_off_the_rows_match_the_search(make):
    base = translation_groupoid(make())
    assert base._orbit_ids() == _stored_copy(base)._orbit_ids()
    for groupoid in [base] + [configuration_groupoid(base, n, verify=False) for n in (1, 2, 3)]:
        if not groupoid.objects:
            continue
        rows = groupoid._orbit_ids()
        assert rows == FiniteGroupoid._orbit_ids(groupoid)
        # numbered in object order: each orbit first appears after the last
        assert [orbit for x, orbit in enumerate(rows) if orbit not in rows[:x]] == list(range(max(rows) + 1))


def _forget_case(make, n):
    return lambda: (forget_map(translation_groupoid(make()), n), lambda x: x[:-1], lambda m: m[:-1])


def _cover_case(make, subgroup):
    return lambda: (subgroup_covering_hom(make(), frozenset(subgroup)), lambda x: x, lambda m: m)


def _quotient_case(make, first, second, arrow):
    """A Morita quotient arrow with its label maps: each block and coset of
    the middle goes to the block and coset of the coarse model holding its
    members."""

    def build():
        hom = getattr(morita_triple(make(), frozenset(first), frozenset(second)), arrow)
        block = {x: y for y in hom.dst.objects for x in y}
        coset = {h: c for c in hom.dst._action.group.elements for h in c}
        return hom, lambda x: block[min(x)], lambda m: (block[min(m[0])], coset[min(m[1])])

    return build


_D4_CENTRE = {(0, 0), (2, 0)}
_D4C2_CENTRE, _D4C2_FACTOR = {((0, 0), 0), ((2, 0), 0)}, {((0, 0), 0), ((0, 0), 1)}


# Every builder of product-form homs, against the same map given by label
# dicts, which is scanned: forget maps, subgroup covers and quotient arrows.
@pytest.mark.parametrize(
    "build",
    [
        _forget_case(lambda: GroupAction.negation_mod(6), 2),
        _forget_case(lambda: GroupAction.negation_mod(6), 3),
        _forget_case(lambda: GroupAction.rotation_mod(12, 4), 2),
        _forget_case(lambda: _fixing(FiniteGroup.dihedral(3), [0, 1, 2]), 2),
        _forget_case(lambda: _fixing(FiniteGroup.cyclic(2), ["a", "b", "c"]), 3),
        _cover_case(lambda: GroupAction.negation_mod(6), {0}),
        _cover_case(lambda: GroupAction.rotation_mod(12, 4), {0, 2}),
        _cover_case(lambda: GroupAction.regular(FiniteGroup.dihedral(4)), _D4_CENTRE),
        _cover_case(
            lambda: _fixing(FiniteGroup.dihedral(4), ["p", "q"]), {(k, e) for k in (0, 2) for e in (0, 1)}
        ),
        _quotient_case(lambda: GroupAction.regular(_d4_by_c2()), _D4C2_CENTRE, _D4C2_FACTOR, "to_first"),
        _quotient_case(lambda: GroupAction.regular(_d4_by_c2()), _D4C2_CENTRE, _D4C2_FACTOR, "to_second"),
        _quotient_case(lambda: GroupAction.negation_mod(6), {0}, {0, 1}, "to_second"),
        _quotient_case(lambda: GroupAction.rotation_mod(12, 4), {0, 2}, {0, 1, 2, 3}, "to_second"),
        _quotient_case(lambda: _fixing(FiniteGroup.dihedral(4), ["p", "q"]), _D4_CENTRE, _D4_CENTRE, "to_first"),
    ],
    ids=[
        "negation6_n2",
        "negation6_n3",
        "rotation12_4_n2",
        "d3_fixing_n2",
        "c2_fixing_n3",
        "cover_negation6_trivial",
        "cover_rotation12_4_c2",
        "cover_regular_d4_centre",
        "cover_d4_fixing_klein",
        "quotient_d4c2_centre",
        "quotient_d4c2_factor",
        "quotient_negation6_all",
        "quotient_rotation12_4_all",
        "quotient_d4_fixing_centre",
    ],
)
def test_forget_map_in_product_form_matches_the_label_map(build):
    hom, on_objects, on_morphisms = build()
    assert hom._psi is not None
    src, dst = hom.src, hom.dst
    labelled = GroupoidHom(
        src, dst, {x: on_objects(x) for x in src.objects}, {m: on_morphisms(m) for m in src.morphisms}, hom.name
    )
    assert labelled._psi is None
    assert hom.verify() == labelled.verify()
    assert is_covering_hom(hom) == is_covering_hom(labelled)
    assert is_equivalence(hom) == is_equivalence(labelled)
    assert hom._object_images == labelled._object_images
    assert hom._arrow_images == labelled._arrow_images


# -- unique lifts decided on psi ------------------------------------------------


def _scanned_covering(f):
    """is_covering_hom as it reads every (image, source) pair: the rows and
    details of the scan, with no decision on psi."""
    checks = []
    hom = f.verify()
    checks.append(("homomorphism", hom.passed, "" if hom else f"not a homomorphism: {hom.first_failure()}"))
    if not hom.passed:
        return CheckResult(f"covering {f.name}", tuple(checks))
    src, dst = f.src, f.dst
    f0, f1 = f._object_images[: len(src._objects)], f._arrow_images
    surjective = set(f0) == set(range(len(dst._objects)))
    checks.append(("object_map_surjective", surjective, "" if surjective else "object map misses part of the base"))
    image: dict = {}
    injective, inj_detail = True, ""
    for h, key in enumerate(zip(f1, src._src)):
        if key in image:
            injective = False
            outgoing, _ = dst._hom_index
            fibered = sum(len(outgoing.get(y, ())) for y in f0)
            inj_detail = (
                f"morphisms {src._arrows[image[key]]!r} and {src._arrows[h]!r} share image and source; "
                f"|H1|={len(src.morphisms)} vs fibered product {fibered}"
            )
            break
        image[key] = h
    checks.append(("unique_source_lift", injective, inj_detail))
    fiber_sizes: dict = {}
    counts = Counter(f0)
    for y, orbit in enumerate(dst._orbit_ids()):
        fiber_sizes.setdefault(orbit, set()).add(counts[y])
    constant = all(len(sizes) == 1 for sizes in fiber_sizes.values())
    detail = "" if constant else "object fibers vary along one base orbit: " + repr(
        {k: sorted(v) for k, v in fiber_sizes.items() if len(v) > 1}
    )
    checks.append(("fiber_constant_on_orbits", constant, detail))
    return CheckResult(f"covering {f.name}", tuple(checks))


_COVERING_ACTIONS = [
    lambda: GroupAction.negation_mod(6),
    lambda: GroupAction.negation_mod(12),
    lambda: GroupAction.rotation_mod(12, 4),
    lambda: GroupAction.rotation_mod(12, 6),
    lambda: GroupAction.regular(FiniteGroup.cyclic(5)),
    lambda: GroupAction.regular(FiniteGroup.cyclic(8)),
    lambda: GroupAction.regular(FiniteGroup.klein()),
    lambda: GroupAction.regular(FiniteGroup.dihedral(3)),
    lambda: GroupAction.regular(FiniteGroup.dihedral(4)),
    lambda: GroupAction.regular(FiniteGroup.product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(4))),
]


def test_covering_decided_on_psi_matches_the_scan_on_every_subgroup_cover():
    homs = 0
    for make in _COVERING_ACTIONS + _MORITA_ACTIONS:
        action = make()
        for subgroup in action.group.subgroups():
            hom = subgroup_covering_hom(action, subgroup)
            result = is_covering_hom(hom)
            assert result.passed, result.first_failure()
            # decided on psi: neither the arrow images nor the src's source
            # array is built
            assert "_arrow_images" not in vars(hom) and "_src" not in vars(hom.src)
            fresh = subgroup_covering_hom(action, subgroup)
            assert result == _scanned_covering(fresh)
            homs += 1
    assert homs >= 70, homs


def test_covering_with_a_psi_that_is_not_injective_is_scanned():
    homs = [arrow for make in _MORITA_GROUPS[:5] for arrow in _morita_arrows(GroupAction.regular(make()))]
    homs += [arrow for make in _MORITA_ACTIONS for arrow in _morita_arrows(make())]
    homs += [hom for _, hom in _damaged_homs()]
    refuted = 0
    for hom in homs:
        assert hom._psi is not None
        result = is_covering_hom(hom)
        assert result == _scanned_covering(hom), hom.name
        if hom.verify().passed and len(set(hom._psi)) < len(hom._psi):
            rows = {name: ok for name, ok, _ in result.checks}
            assert not rows["unique_source_lift"], hom.name
            refuted += 1
    assert refuted >= 100, refuted
    # the detail names the first colliding pair, as the scan finds it
    trivial = dict(_damaged_homs())["ker psi meets a stabilizer"]
    assert is_covering_hom(trivial).checks[2] == (
        "unique_source_lift",
        False,
        "morphisms ('p', 0) and ('p', 1) share image and source; |H1|=2 vs fibered product 2",
    )

"""The benchmark's three workloads.

Each workload has three parts:

* ``build(seed)`` makes the inputs.  It runs in set-up, before the first
  timed operation.
* ``run_round(inputs, op)`` performs one round of operations, each through
  ``op(key, fn, *args)``.  The worker times every call and keeps what it
  returns.  Every round performs the same operations on the same inputs.
* ``check(inputs, results)`` compares the outputs of one round with
  ``oracles``.  It returns one message per wrong answer and the number of
  checks made.

Library calls go through module attributes (``A.flat_poset`` rather than a
name imported on its own), so the traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction

from orbconfig import arrangement as A
from orbconfig import cli
from orbconfig import covering as C
from orbconfig import groupoid as G
from orbconfig import orbit_config as O
from orbconfig.exactfield import ComplexPoint
from orbconfig.orbmodel import CyclicRotation

import oracles


def cli_run(argv: list[str]) -> tuple[int, str]:
    """orbconfig.cli.main in-process; returns the exit code and the report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class Checker:
    """Collects the outcome of each comparison."""

    def __init__(self) -> None:
        self.errors: list[str] = []
        self.count = 0

    def expect(self, ok: bool, message: str) -> None:
        self.count += 1
        if not ok:
            self.errors.append(message)


# ---------------------------------------------------------------------------
# arrangements: the invariant pipeline
# ---------------------------------------------------------------------------

# (builder, n, m) for the in-process CLI reports
CLI_BUILDERS = (
    ("braid", 5, None),
    ("braid", 6, None),
    ("case1", 4, 2),
    ("case1", 3, 3),
    ("case1", 3, 4),
    ("case3X", 3, None),
)
# the rational builders the chamber acceptance test uses
NAMED_BUILDERS = (
    [("braid", n) for n in (2, 3, 4)]
    + [("case1", n) for n in (1, 2, 3)]
    + [("case3X", n) for n in (1, 2)]
)

# One random arrangement per (dimension, hyperplane count), drawn once from
# the chamber acceptance test's seed.  A run's seed multiplies each equation
# by a random nonzero rational and shuffles the equations: the input changes
# with the seed, the spec that make_arrangement normalizes it to does not.
# Redrawing the arrangements per seed moved op_p50_ms by more than half
# between seeds, because random arrangements of one shape differ tenfold in
# cost; a signed permutation of the coordinates, which keeps the lattice,
# still moved single analyses by up to 35%.
RANDOM_DIMS = range(1, 5)
RANDOM_COUNTS = range(1, 9)
CORPUS_SEED = 987
# A round runs the CLI reports once and analyses each spec ANALYSIS_PASSES
# times, or SMALL_SPEC_PASSES times if it has at most SMALL_SPEC_HYPERPLANES
# hyperplanes.  The operations near the median take 3-20 ms and one such
# execution varies by half on a shared host, so they need a dozen executions
# per run; the small specs are a fifth of the analysis time.
ANALYSIS_PASSES = 2
SMALL_SPEC_PASSES = 6
SMALL_SPEC_HYPERPLANES = 6
# finite_field_count runs where the two good primes give at most this many
# points together; a few random arrangements have good primes near 40, and
# 40^4 points would make one operation outweigh the rest of the round
FIELD_POINT_BUDGET = 20_000
# the primes for the benchmark's own point counts on the CLI's Q reports;
# every minor of these +-1 matrices is a power of two, so odd primes are good
CLI_FIELD_PRIMES = (3, 5)


def _builder_spec(name: str, n: int):
    if name == "braid":
        return O.braid_arrangement(n)
    if name == "case1":
        return O.rotation_arrangement(n, 2)
    return O.sign_flip_arrangement(n)


def _builder_rows(name: str, n: int) -> list:
    """The benchmark's own equations for a rational builder (case1 at m = 2)."""
    if name == "braid":
        return oracles.braid_rows(n)
    if name == "case1":
        return oracles.signed_pair_rows(n)
    return oracles.sign_flip_rows(n)


def _random_rows(rng: random.Random, dim: int, count: int) -> list:
    """One arrangement drawn as the chamber acceptance test draws them."""
    rows = []
    for _ in range(count):
        normal = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
        if all(a == 0 for a in normal):
            normal[rng.randrange(dim)] = Fraction(1)
        rows.append((tuple(normal), Fraction(rng.randint(-2, 2))))
    return rows


def _rescaled(rng: random.Random, rows: list) -> list:
    """The rows in random order, each equation multiplied by a random
    nonzero rational: the same hyperplanes."""
    scaled = []
    for normal, offset in rows:
        factor = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
        scaled.append((tuple(factor * a for a in normal), factor * offset))
    rng.shuffle(scaled)
    return scaled


def build_arrangements(seed: int) -> dict:
    argvs = []
    for builder, n, m in CLI_BUILDERS:
        argv = ["arrangement", "--builder", builder, "--n", str(n)]
        argvs.append(argv + (["--m", str(m)] if m else []))
    corpus = random.Random(CORPUS_SEED)
    rng = random.Random(f"arrangements/{seed}")
    batch = [
        (f"random({dim},{count})", dim, _rescaled(rng, _random_rows(corpus, dim, count)))
        for dim in RANDOM_DIMS
        for count in RANDOM_COUNTS
    ]
    passes = lambda rows: (  # noqa: E731
        SMALL_SPEC_PASSES if len(rows) <= SMALL_SPEC_HYPERPLANES else ANALYSIS_PASSES
    )
    builders = [(name, n, passes(_builder_rows(name, n))) for name, n in NAMED_BUILDERS]
    return {
        "argvs": argvs,
        "batch": batch,
        "builders": builders,
        "batch_passes": [passes(rows) for _, _, rows in batch],
    }


def analyse(spec) -> tuple:
    poset = A.flat_poset(spec)
    chi = A.characteristic_polynomial(poset).coeffs
    poincare = A.poincare_polynomial(poset).coeffs
    total, _ = A.chamber_count(poset)
    chambers = len(A.enumerate_chambers(spec))
    primes = tuple(A.good_primes(spec, 2))
    counts = None
    if sum(q**spec.dim for q in primes) <= FIELD_POINT_BUDGET:
        counts = tuple(A.finite_field_count(spec, q) for q in primes)
    return chi, poincare, total, chambers, primes, counts


def _analyse_builder(name: str, n: int) -> tuple:
    return analyse(_builder_spec(name, n))


def _analyse_rows(label: str, dim: int, rows: list) -> tuple:
    return analyse(A.make_arrangement(dim, A.QQ, rows, label=label))


def round_arrangements(inputs: dict, op) -> None:
    for argv in inputs["argvs"]:
        op(("cli", *argv), cli_run, argv)
    for done in range(max(ANALYSIS_PASSES, SMALL_SPEC_PASSES)):
        for name, n, passes in inputs["builders"]:
            if done < passes:
                op(("builder", name, n), _analyse_builder, name, n)
        for (label, dim, rows), passes in zip(inputs["batch"], inputs["batch_passes"]):
            if done < passes:
                op(("random", label), _analyse_rows, label, dim, rows)


def _check_analysis(ck: Checker, label: str, dim: int, rows: list, out: tuple) -> None:
    chi, _, total, chambers, primes, counts = out
    ck.expect(total == chambers, f"{label}: chamber_count {total} != {chambers} enumerated")
    if counts is None:
        return
    for q, count in zip(primes, counts):
        own = oracles.field_point_count(dim, rows, q)
        ck.expect(count == own, f"{label}: finite_field_count({q}) = {count}, brute force {own}")
        value = oracles.eval_poly(chi, q)
        ck.expect(value == own, f"{label}: chi({q}) = {value}, brute force {own}")


def _check_cli_arrangement(ck: Checker, argv: list, out: tuple) -> None:
    code, text = out
    builder, n = argv[2], int(argv[4])
    m = int(argv[6]) if len(argv) > 6 else 1
    label = " ".join(argv)
    ck.expect(code == 0, f"{label}: exit code {code}")
    if code != 0:
        return
    report = json.loads(text)["report"]
    poincare = report["poincare"]["coefficients"]
    if builder == "braid":
        ck.expect(poincare == oracles.braid_poincare(n), f"{label}: Poincare {poincare}")
        total = report["chambers"]["total"]
        ck.expect(total == math.factorial(n), f"{label}: {total} chambers, not {n}!")
        ck.expect(report["simplicial"]["simplicial"] is True, f"{label}: not simplicial")
    elif builder == "case1":
        expected = oracles.gmmn_poincare(n, m)
        ck.expect(poincare == expected, f"{label}: Poincare {poincare}, G({m},{m},{n}) {expected}")
    if report["field"]["type"] == "Q":
        rows = _builder_rows(builder, n)
        chi = report["characteristic"]["coefficients"]
        for q in CLI_FIELD_PRIMES:
            own = oracles.field_point_count(report["dim"], rows, q)
            value = oracles.eval_poly(chi, q)
            ck.expect(value == own, f"{label}: chi({q}) = {value}, brute force {own}")
        simplicial = report["simplicial"]
        if simplicial is not None:
            ck.expect(
                simplicial["chambers"] == report["chambers"]["total"],
                f"{label}: {simplicial['chambers']} enumerated chambers, "
                f"{report['chambers']['total']} by Zaslavsky",
            )


def check_arrangements(inputs: dict, results: list) -> Checker:
    ck = Checker()
    batch = {label: (dim, rows) for label, dim, rows in inputs["batch"]}
    for key, out in results:
        kind = key[0]
        if kind == "cli":
            _check_cli_arrangement(ck, list(key[1:]), out)
        elif kind == "builder":
            _, name, n = key
            label = f"{name}({n})"
            dim = n + 1 if name == "case3X" else n
            _check_analysis(ck, label, dim, _builder_rows(name, n), out)
            poincare = list(out[1])
            if name == "braid":
                ck.expect(poincare == oracles.braid_poincare(n), f"{label}: Poincare {poincare}")
                ck.expect(out[2] == math.factorial(n), f"{label}: {out[2]} chambers, not {n}!")
            elif name == "case1":
                expected = oracles.gmmn_poincare(n, 2)
                ck.expect(poincare == expected, f"{label}: Poincare {poincare}, expected {expected}")
        else:
            label = key[1]
            dim, rows = batch[label]
            _check_analysis(ck, label, dim, rows, out)
    return ck


# ---------------------------------------------------------------------------
# orbit_sampling: many small exact queries against a few fixed specs
# ---------------------------------------------------------------------------

MEMBERSHIP_ORDERS = (2, 3, 4)
MEMBERSHIP_SIZES = (2, 3, 4)
MEMBERSHIP_POINTS = 60
SAMPLING_ORDERS = (1, 2, 3, 4)
SAMPLING_SIZES = (2, 3, 4)
SAMPLING_SEEDS = 30
GRID = 8  # membership coordinates are k/8, as in the acceptance test
# (map id, n, samples, window): squaring at small n with many samples and at
# larger n with few, the degree-two quotient and the exponential composite
COVERS = (
    ("q", 1, 100, 3),
    ("squaring", 1, 30, 3),
    ("squaring", 2, 30, 3),
    ("squaring", 3, 20, 3),
    ("squaring", 6, 2, 3),
    ("squaring", 7, 1, 3),
    ("qE", 2, 30, 3),
    ("qE", 3, 5, 3),
)


def _membership_points(rng: random.Random, m: int, n: int) -> list:
    """Points on the 1/8 grid with planted collisions, as the acceptance test
    plants them, as integer pairs (8 re, 8 im)."""
    draws = []
    for _ in range(MEMBERSHIP_POINTS):
        zs = [(rng.randint(-16, 16), rng.randint(-16, 16)) for _ in range(n)]
        roll = rng.random()
        if roll < 0.15:
            i, j = rng.sample(range(n), 2)
            zs[j] = zs[i]
        elif roll < 0.30 and m % 2 == 0:
            i, j = rng.sample(range(n), 2)
            zs[j] = (-zs[i][0], -zs[i][1])
        elif roll < 0.35:
            zs[rng.randrange(n)] = (0, 0)
        elif roll < 0.40 and m == 4:
            i, j = rng.sample(range(n), 2)
            zs[j] = (-zs[i][1], zs[i][0])
        draws.append(tuple(zs))
    return draws


def build_orbit_sampling(seed: int) -> dict:
    rng = random.Random(f"orbit_sampling/{seed}")
    membership = []
    for m in MEMBERSHIP_ORDERS:
        for n in MEMBERSHIP_SIZES:
            for raw in _membership_points(rng, m, n):
                points = tuple(ComplexPoint.exact(Fraction(a, GRID), Fraction(b, GRID)) for a, b in raw)
                membership.append((m, n, raw, points))
    sampling = [
        (m, n, rng.randrange(2**32))
        for m in SAMPLING_ORDERS
        for n in SAMPLING_SIZES
        for _ in range(SAMPLING_SEEDS)
    ]
    covers = [(map_id, n, samples, window, rng.randrange(2**32)) for map_id, n, samples, window in COVERS]
    return {"membership": membership, "sampling": sampling, "covers": covers}


def _membership(specs: dict, m: int, n: int, points: tuple) -> tuple[bool, bool]:
    # the first point of each (m, n) builds and compiles the spec, as every
    # CLI run would; later points reuse it
    if (m, n) not in specs:
        specs[(m, n)] = (O.rotation_arrangement(n, m), CyclicRotation(m))
    spec, action = specs[(m, n)]
    return A.complement_contains(spec, points), O.is_orbit_config(action, points)


def _sample_and_map(m: int, n: int, seed: int) -> tuple:
    points = O.sample_orbit_config(CyclicRotation(m), n, seed=seed).points
    return points, C.power_difference_map(points, m)


def _cover(map_id: str, n: int, samples: int, window: int, seed: int):
    return C.verify_cover(map_id, n=n, samples=samples, window=window, seed=seed)


def round_orbit_sampling(inputs: dict, op) -> None:
    specs: dict = {}
    for index, (m, n, _, points) in enumerate(inputs["membership"]):
        op(("member", index), _membership, specs, m, n, points)
    for m, n, seed in inputs["sampling"]:
        op(("sample", m, n, seed), _sample_and_map, m, n, seed)
    for args in inputs["covers"]:
        op(("cover", *args), _cover, *args)


def check_orbit_sampling(inputs: dict, results: list) -> Checker:
    ck = Checker()
    for key, out in results:
        kind = key[0]
        if kind == "member":
            m, n, raw, _ = inputs["membership"][key[1]]
            expected = oracles.distinct_rotation_orbits(raw, m)
            inside, config = out
            ck.expect(inside == expected, f"complement_contains(m={m}, {raw}) = {inside}")
            ck.expect(config == expected, f"is_orbit_config(m={m}, {raw}) = {config}")
        elif kind == "sample":
            _, m, n, seed = key
            points, image = out
            pairs = [(z.re, z.im) for z in points]
            scaled = [oracles.scaled_gaussian(re, im, GRID) for re, im in pairs]
            ck.expect(
                len(points) == n and oracles.distinct_rotation_orbits(scaled, m),
                f"sample_orbit_config(m={m}, n={n}, seed={seed}) gave {pairs}",
            )
            expected = oracles.power_differences(pairs, m)
            got = [(b.re, b.im) for b in image]
            ck.expect(got == expected, f"power_difference_map(m={m}, {pairs}) = {got}")
            ck.expect(
                all(b != (0, 0) for b in got) and len(set(got)) == len(got),
                f"power differences of {pairs} not nonzero and distinct",
            )
        else:
            _, map_id, n, samples, _, _ = key
            degree = 2 if map_id == "q" else 2**n
            label = f"verify_cover({map_id}, n={n}, samples={samples})"
            ck.expect(out.passed, f"{label} did not pass")
            ck.expect(out.declared_degree == degree, f"{label}: degree {out.declared_degree}")
            ck.expect(
                all(size == degree for size, _ in out.fiber_sizes),
                f"{label}: fiber sizes {out.fiber_sizes}, declared {degree}",
            )
            ck.expect(out.used + out.skipped == samples, f"{label}: {out.used} + {out.skipped} samples")
    return ck


# ---------------------------------------------------------------------------
# groupoids: the exhaustive groupoid suite
# ---------------------------------------------------------------------------

# the acceptance test's actions for translation groupoids and covering homs:
# (label, builder, |G|, |X|)
COVERING_ACTIONS = (
    ("negation_mod(6)", lambda: G.GroupAction.negation_mod(6), 2, 6),
    ("negation_mod(12)", lambda: G.GroupAction.negation_mod(12), 2, 12),
    ("rotation_mod(12,4)", lambda: G.GroupAction.rotation_mod(12, 4), 4, 12),
    ("rotation_mod(12,6)", lambda: G.GroupAction.rotation_mod(12, 6), 6, 12),
    ("regular(C5)", lambda: G.GroupAction.regular(G.FiniteGroup.cyclic(5)), 5, 5),
    ("regular(C8)", lambda: G.GroupAction.regular(G.FiniteGroup.cyclic(8)), 8, 8),
    ("regular(C2xC2)", lambda: G.GroupAction.regular(G.FiniteGroup.klein()), 4, 4),
    ("regular(D3)", lambda: G.GroupAction.regular(G.FiniteGroup.dihedral(3)), 6, 6),
    ("regular(D4)", lambda: G.GroupAction.regular(G.FiniteGroup.dihedral(4)), 8, 8),
    (
        "regular(C2xC4)",
        lambda: G.GroupAction.regular(
            G.FiniteGroup.product(G.FiniteGroup.cyclic(2), G.FiniteGroup.cyclic(4))
        ),
        8,
        8,
    ),
)


def _morita_groups():
    """(name, orbconfig group, the benchmark's own copy) for the groups of
    order <= 16 the acceptance test runs Morita triples on."""
    F, own = G.FiniteGroup, oracles.Group
    return (
        ("C2xC2", F.klein(), own.direct(own.cyclic(2), own.cyclic(2))),
        ("C4", F.cyclic(4), own.cyclic(4)),
        ("C8", F.cyclic(8), own.cyclic(8)),
        ("C12", F.cyclic(12), own.cyclic(12)),
        ("D4", F.dihedral(4), own.dihedral(4)),
        ("D6", F.dihedral(6), own.dihedral(6)),
        ("C2xC4", F.product(F.cyclic(2), F.cyclic(4)), own.direct(own.cyclic(2), own.cyclic(4))),
        ("C4xC4", F.product(F.cyclic(4), F.cyclic(4)), own.direct(own.cyclic(4), own.cyclic(4))),
        (
            "D4xC2",
            F.product(F.dihedral(4), F.cyclic(2)),
            own.direct(own.dihedral(4), own.cyclic(2)),
        ),
    )


# In the groups of order 16 a round takes, for every order of N1 n N2, pairs
# (N1, N2) of this many size classes (|N1|, |N2|, |N1 n N2|); the other
# groups take every pair.  All 586 pairs of the two groups of order 16 take
# about 50 s (2 cores, Python 3.11), ten times the rest of the round.  The
# cost of a pair follows the sizes of its quotients, so the classes are
# drawn once from CLASS_SEED and the run's seed draws the pair within each.
LARGE_GROUP_ORDER = 16
CLASSES_PER_INTERSECTION = 1
CLASS_SEED = 16
CONFIGURATION_SIZES = (2, 3)
NEGATION_POINTS = 6
# the explicit model: C4 acting on two points by h . x = x + h mod 2
EXPLICIT_GROUP, EXPLICIT_POINTS = 4, 2


def _explicit_model(rng: random.Random) -> tuple[str, list]:
    """The translation groupoid of the explicit model as CLI JSON, with one
    composite replaced by another morphism.  Returns the JSON text and the
    corrupted entry."""
    n, k = EXPLICIT_GROUP, EXPLICIT_POINTS
    label = lambda x, h: f"{x}.{h}"  # noqa: E731
    morphisms = [
        {"id": label(x, h), "src": str(x), "tgt": str((x + h) % k)} for x in range(k) for h in range(n)
    ]
    compose = [
        [label((x + h1) % k, h2), label(x, h1), label(x, (h1 + h2) % n)]
        for x in range(k)
        for h1 in range(n)
        for h2 in range(n)
    ]
    entry = rng.randrange(len(compose))
    wrong = rng.choice([m["id"] for m in morphisms if m["id"] != compose[entry][2]])
    compose[entry] = [compose[entry][0], compose[entry][1], wrong]
    model = {
        "schema": 1,
        "type": "explicit",
        "objects": [str(x) for x in range(k)],
        "morphisms": morphisms,
        "compose": compose,
        "identities": {str(x): label(x, 0) for x in range(k)},
        "inverses": {label(x, h): label((x + h) % k, (-h) % n) for x in range(k) for h in range(n)},
    }
    return json.dumps(model, sort_keys=True), compose[entry]


def build_groupoids(seed: int) -> dict:
    rng = random.Random(f"groupoids/{seed}")
    covering = []
    for label, make, order, points in COVERING_ACTIONS:
        action = make()
        covering.append((label, action, order, points, action.group.subgroups()))
    morita = []
    normal_counts = {}
    for name, group, own in _morita_groups():
        action = G.GroupAction.regular(group)
        normals = group.normal_subgroups()
        normal_counts[name] = (len(normals), own)
        pairs = [(a, b) for a in normals for b in normals]
        if group.order >= LARGE_GROUP_ORDER:
            classes: dict = {}
            for a, b in pairs:
                classes.setdefault((len(a & b), len(a), len(b)), []).append((a, b))
            by_order: dict = {}
            for size_class in sorted(classes):
                by_order.setdefault(size_class[0], []).append(size_class)
            chooser = random.Random(f"{CLASS_SEED}/{name}")
            pairs = [
                rng.choice(classes[size_class])
                for size in sorted(by_order)
                for size_class in chooser.sample(by_order[size], min(CLASSES_PER_INTERSECTION, len(by_order[size])))
            ]
        morita += [(name, group.order, action, a, b) for a, b in pairs]
    base = G.translation_groupoid(G.GroupAction.negation_mod(NEGATION_POINTS))
    explicit, corrupted = _explicit_model(rng)
    return {
        "covering": covering,
        "morita": morita,
        "normal_counts": normal_counts,
        "base": base,
        "explicit": explicit,
        "corrupted": corrupted,
    }


def _translation(action) -> tuple:
    groupoid = G.translation_groupoid(action)
    return len(groupoid.objects), len(groupoid.morphisms), groupoid.verify_axioms().passed


def _subgroup_cover(action, subgroup) -> tuple:
    hom = G.subgroup_covering_hom(action, subgroup)
    return hom.verify().passed, G.is_covering_hom(hom).passed


def _configuration(base, n: int) -> tuple:
    groupoid = G.configuration_groupoid(base, n, verify=False)
    return len(groupoid.objects), len(groupoid.morphisms), groupoid.verify_axioms().passed


def _morita(action, first, second) -> tuple:
    triple = G.morita_triple(action, first, second)
    middle = triple.middle
    return (
        len(middle.objects),
        len(middle.morphisms),
        middle.verify_axioms().passed,
        triple.first_check.passed,
        triple.second_check.passed,
    )


def round_groupoids(inputs: dict, op) -> None:
    for label, action, _, _, subgroups in inputs["covering"]:
        op(("translation", label), _translation, action)
        for index, subgroup in enumerate(subgroups):
            op(("subgroup_cover", label, index), _subgroup_cover, action, subgroup)
    for n in CONFIGURATION_SIZES:
        op(("configuration", n), _configuration, inputs["base"], n)
    for index, (name, _, action, first, second) in enumerate(inputs["morita"]):
        op(("morita", name, index), _morita, action, first, second)
    op(("cli", "groupoid", "explicit"), cli_run, ["groupoid", inputs["explicit"]])


def check_groupoids(inputs: dict, results: list) -> Checker:
    ck = Checker()
    covering = {label: (order, points) for label, _, order, points, _ in inputs["covering"]}
    morita = inputs["morita"]
    for name, (count, own) in inputs["normal_counts"].items():
        expected = own.normal_subgroup_count()
        ck.expect(count == expected, f"{name}: {count} normal subgroups, brute force {expected}")
    negation = lambda x: min(x, (-x) % NEGATION_POINTS)  # noqa: E731
    for key, out in results:
        kind = key[0]
        if kind == "translation":
            order, points = covering[key[1]]
            objects, morphisms, passed = out
            ck.expect(objects == points, f"translation {key[1]}: {objects} objects")
            ck.expect(morphisms == order * points, f"translation {key[1]}: {morphisms} morphisms")
            ck.expect(passed, f"translation {key[1]}: axioms fail")
        elif kind == "subgroup_cover":
            ck.expect(all(out), f"subgroup cover {key[1]} #{key[2]}: checks {out}")
        elif kind == "configuration":
            n = key[1]
            objects, morphisms, passed = out
            expected = oracles.orbit_distinct_tuples(range(NEGATION_POINTS), negation, n)
            ck.expect(objects == expected, f"configuration n={n}: {objects} objects, brute force {expected}")
            ck.expect(morphisms == expected * 2**n, f"configuration n={n}: {morphisms} morphisms")
            ck.expect(passed, f"configuration n={n}: axioms fail")
        elif kind == "morita":
            name, order, _, first, second = morita[key[2]]
            quotient = order // len(first & second)
            objects, morphisms, *passes = out
            ck.expect(objects == quotient, f"morita {name} #{key[2]}: {objects} objects")
            ck.expect(morphisms == quotient**2, f"morita {name} #{key[2]}: {morphisms} morphisms")
            ck.expect(all(passes), f"morita {name} #{key[2]}: checks {passes}")
        else:
            code, text = out
            ck.expect(code == 0, f"explicit model: exit code {code}")
            if code == 0:
                passed = json.loads(text)["report"]["pass"]
                ck.expect(
                    passed is False,
                    f"explicit model with composite {inputs['corrupted']} reports pass {passed}",
                )
    return ck


WORKLOADS = {
    "arrangements": (build_arrangements, round_arrangements, check_arrangements),
    "orbit_sampling": (build_orbit_sampling, round_orbit_sampling, check_orbit_sampling),
    "groupoids": (build_groupoids, round_groupoids, check_groupoids),
}

"""Finite groupoid models: translation groupoids of finite group actions,
orbit spaces, configuration groupoids, and the covering/equivalence checks.

Everything is a dense table over tiny finite sets, because the point of
these models is exhaustive verification: every axiom, every composable
triple, every fibered-product element is enumerated.  "Surjective
submersion" and "fibered product of manifolds" from the smooth theory are
discretized to plain surjectivity and set-level fibered products.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from math import prod
from typing import Callable, Iterable, Optional, Sequence

from .arrangement import SizeGuardError
from .exactfield import json_int

# Largest group a JSON model may name: validating the group's table and a
# regular action's table each take O(|G|^3) steps.
MAX_GROUP_ORDER = 32
# Largest point count of a negation or rotation model, read from the JSON
# before any table is built.  Tables grow with points times group order; a
# Morita triple of rotation(128) under C32 with trivial subgroups, the worst
# case the two rails allow, builds about 140 MB of them.
MAX_ACTION_POINTS = 128


class InvalidModelError(ValueError):
    """Input tables do not define a group, action, or groupoid."""


# ---------------------------------------------------------------------------
# Finite groups
# ---------------------------------------------------------------------------


class FiniteGroup:
    """A finite group as a dense multiplication table over hashable labels."""

    def __init__(self, elements: Sequence, multiply: dict, identity, name: str = "G"):
        self.elements = tuple(elements)
        self.multiply = dict(multiply)
        self.identity = identity
        self.name = name
        self._validate()
        self.inverses = {
            a: next(b for b in self.elements if self.multiply[(a, b)] == identity)
            for a in self.elements
        }

    def _validate(self) -> None:
        members = set(self.elements)
        if len(members) != len(self.elements):
            raise InvalidModelError("duplicate group elements")
        if self.identity not in members:
            raise InvalidModelError("identity is not an element")
        for a in self.elements:
            for b in self.elements:
                if (a, b) not in self.multiply or self.multiply[(a, b)] not in members:
                    raise InvalidModelError("multiplication table is not closed")
            if self.multiply[(self.identity, a)] != a or self.multiply[(a, self.identity)] != a:
                raise InvalidModelError("identity law fails")
            if not any(self.multiply[(a, b)] == self.identity for b in self.elements):
                raise InvalidModelError(f"{a!r} has no inverse")
        for a in self.elements:
            for b in self.elements:
                for c in self.elements:
                    if self.multiply[(self.multiply[(a, b)], c)] != self.multiply[
                        (a, self.multiply[(b, c)])
                    ]:
                        raise InvalidModelError("associativity fails")

    @property
    def order(self) -> int:
        return len(self.elements)

    def op(self, a, b):
        return self.multiply[(a, b)]

    def inv(self, a):
        return self.inverses[a]

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order {self.order})"

    # -- constructions -------------------------------------------------------

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        if n < 1:
            raise InvalidModelError("cyclic order must be >= 1")
        elems = range(n)
        table = {(a, b): (a + b) % n for a in elems for b in elems}
        return cls(elems, table, 0, name=f"C{n}")

    @classmethod
    def klein(cls) -> "FiniteGroup":
        return cls.product(cls.cyclic(2), cls.cyclic(2))

    @classmethod
    def dihedral(cls, n: int) -> "FiniteGroup":
        """Order 2n; elements (k, e) for r^k s^e with s r s = r^{-1}."""
        if n < 1:
            raise InvalidModelError("dihedral parameter must be >= 1")
        elems = [(k, e) for k in range(n) for e in range(2)]
        table = {}
        for k1, e1 in elems:
            for k2, e2 in elems:
                k = (k1 + (k2 if e1 == 0 else -k2)) % n
                table[((k1, e1), (k2, e2))] = (k, (e1 + e2) % 2)
        return cls(elems, table, (0, 0), name=f"D{n}")

    @classmethod
    def product(cls, g: "FiniteGroup", h: "FiniteGroup") -> "FiniteGroup":
        elems = [(a, b) for a in g.elements for b in h.elements]
        table = {
            ((a1, b1), (a2, b2)): (g.op(a1, a2), h.op(b1, b2))
            for a1, b1 in elems
            for a2, b2 in elems
        }
        return cls(elems, table, (g.identity, h.identity), name=f"{g.name}x{h.name}")

    # -- subgroup machinery ----------------------------------------------------

    def closure(self, generators: Iterable) -> frozenset:
        current = {self.identity, *generators}
        while True:
            grown = {self.op(a, b) for a in current for b in current}
            grown |= {self.inv(a) for a in current}
            if grown <= current:
                return frozenset(current)
            current |= grown

    def subgroups(self) -> tuple[frozenset, ...]:
        """All subgroups generated by at most three elements.

        Complete for every group whose subgroups are 3-generated, which
        covers all the models used here (orders at most 16 without a
        rank-4 elementary abelian subgroup).
        """
        found = {self.closure(())}
        for r in (1, 2, 3):
            for gens in combinations(self.elements, r):
                found.add(self.closure(gens))
        return tuple(sorted(found, key=lambda s: (len(s), sorted(map(repr, s)))))

    def is_subgroup(self, subset: frozenset) -> bool:
        if self.identity not in subset or not subset <= set(self.elements):
            return False
        return all(self.op(a, b) in subset and self.inv(a) in subset for a in subset for b in subset)

    def is_normal(self, subset: frozenset) -> bool:
        if not self.is_subgroup(subset):
            return False
        return all(
            self.op(self.op(g, h), self.inv(g)) in subset
            for g in self.elements
            for h in subset
        )

    def normal_subgroups(self) -> tuple[frozenset, ...]:
        return tuple(s for s in self.subgroups() if self.is_normal(s))

    def quotient(self, normal: frozenset) -> tuple["FiniteGroup", dict]:
        """(Quotient group with frozenset cosets, projection map)."""
        if not self.is_normal(normal):
            raise InvalidModelError("quotient requires a normal subgroup")
        projection = {}
        reps = {}  # coset -> its first element, cosets in order of first appearance
        for g in self.elements:
            coset = projection[g] = frozenset(self.op(g, n) for n in normal)
            reps.setdefault(coset, g)
        cosets = list(reps)
        table = {
            (a, b): projection[self.op(reps[a], reps[b])] for a in cosets for b in cosets
        }
        quotient = FiniteGroup(
            cosets, table, projection[self.identity], name=f"{self.name}/N{len(normal)}"
        )
        return quotient, projection


# ---------------------------------------------------------------------------
# Group actions
# ---------------------------------------------------------------------------


class GroupAction:
    """A left action of a finite group on a finite set, as a dense table."""

    def __init__(self, group: FiniteGroup, points: Sequence, table: dict):
        self.group = group
        self.points = tuple(points)
        self.table = dict(table)
        self._validate()
        self._quotients: dict = {}  # frozenset(N) -> quotient_action(N)

    def _validate(self) -> None:
        points = set(self.points)
        if len(points) != len(self.points):
            raise InvalidModelError("duplicate action points")
        for g in self.group.elements:
            seen = set()
            for x in self.points:
                if (g, x) not in self.table or self.table[(g, x)] not in points:
                    raise InvalidModelError("action table is not total")
                seen.add(self.table[(g, x)])
            if seen != points:
                raise InvalidModelError(f"{g!r} does not act bijectively")
        for x in self.points:
            if self.table[(self.group.identity, x)] != x:
                raise InvalidModelError("identity does not act trivially")
        for g in self.group.elements:
            for h in self.group.elements:
                gh = self.group.op(g, h)
                for x in self.points:
                    if self.table[(gh, x)] != self.table[(g, self.table[(h, x)])]:
                        raise InvalidModelError("action is not compatible with multiplication")

    def apply(self, g, x):
        return self.table[(g, x)]

    @classmethod
    def from_function(cls, group: FiniteGroup, points: Sequence, fn: Callable) -> "GroupAction":
        table = {(g, x): fn(g, x) for g in group.elements for x in points}
        return cls(group, points, table)

    @classmethod
    def regular(cls, group: FiniteGroup) -> "GroupAction":
        return cls.from_function(group, group.elements, group.op)

    @classmethod
    def negation_mod(cls, n: int) -> "GroupAction":
        """C2 acting on Z/n by x -> -x."""
        group = FiniteGroup.cyclic(2)
        return cls.from_function(group, range(n), lambda g, x: (-x) % n if g else x)

    @classmethod
    def rotation_mod(cls, n: int, order: int) -> "GroupAction":
        """C_order acting on Z/n by x -> x + (n/order) g; order must divide n."""
        if n % order:
            raise InvalidModelError("rotation order must divide the point count")
        group = FiniteGroup.cyclic(order)
        step = n // order
        return cls.from_function(group, range(n), lambda g, x: (x + step * g) % n)

    def orbits(self) -> tuple[frozenset, ...]:
        seen: dict = {}
        blocks = []
        for x in self.points:
            if x in seen:
                continue
            block = frozenset(self.apply(g, x) for g in self.group.elements)
            blocks.append(block)
            for y in block:
                seen[y] = block
        return tuple(blocks)

    def restrict_group(self, subgroup: frozenset) -> "GroupAction":
        if not self.group.is_subgroup(subgroup):
            raise InvalidModelError("restriction requires a subgroup")
        sub_elems = [g for g in self.group.elements if g in subgroup]
        table = {(g, h): self.group.op(g, h) for g in sub_elems for h in sub_elems}
        sub = FiniteGroup(sub_elems, table, self.group.identity, name=f"{self.group.name}|H")
        return GroupAction.from_function(sub, self.points, self.apply)

    def quotient_action(self, normal: frozenset) -> tuple["GroupAction", dict, dict]:
        """The induced action of group/N on the N-orbit space of the points.

        Returns (action, point projection, group projection); well-defined
        because conjugation by any group element preserves N.  The result is
        built once per N (given as a set or frozenset) and shared by every
        later call on this action, so callers must not mutate it.
        """
        normal = frozenset(normal)
        if normal in self._quotients:
            return self._quotients[normal]
        quotient, group_proj = self.group.quotient(normal)
        point_proj = {}
        blocks = []
        for x in self.points:
            # N is a subgroup, so the block of a point not yet projected is new
            if x not in point_proj:
                block = frozenset(self.apply(n, x) for n in normal)
                blocks.append(block)
                point_proj.update(dict.fromkeys(block, block))
        reps = {}
        for g in self.group.elements:
            reps.setdefault(group_proj[g], g)
        action = GroupAction.from_function(
            quotient, blocks, lambda coset, block: point_proj[self.apply(reps[coset], next(iter(block)))]
        )
        self._quotients[normal] = action, point_proj, group_proj
        return self._quotients[normal]


# ---------------------------------------------------------------------------
# Check results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """Named condition outcomes for one verification subject."""

    subject: str
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def __bool__(self) -> bool:
        return self.passed

    def first_failure(self) -> Optional[tuple[str, str]]:
        for name, ok, detail in self.checks:
            if not ok:
                return name, detail
        return None

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "pass": self.passed,
            "checks": [
                {"name": name, "pass": ok, "detail": detail}
                for name, ok, detail in self.checks
            ],
        }


# ---------------------------------------------------------------------------
# Finite groupoids
# ---------------------------------------------------------------------------


class FiniteGroupoid:
    """Objects, morphisms, and dense structure maps; morphism labels are
    hashable and compositions live in an explicit table keyed (g, f)."""

    def __init__(
        self,
        objects: Sequence,
        morphisms: Sequence,
        source: dict,
        target: dict,
        compose: dict,
        identity: dict,
        inverse: dict,
        warning: Optional[str] = None,
    ):
        self.objects = tuple(objects)
        self.morphisms = tuple(morphisms)
        self.source = dict(source)
        self.target = dict(target)
        self.compose = dict(compose)
        self.identity = dict(identity)
        self.inverse = dict(inverse)
        self.warning = warning

    def __repr__(self) -> str:
        return f"FiniteGroupoid({len(self.objects)} objects, {len(self.morphisms)} morphisms)"

    # Built on first use, so the morphisms and structure maps must not change
    # afterwards.  Keyed with .get, as the checks read the maps.
    @cached_property
    def _hom_index(self) -> tuple[dict, dict]:
        """Morphisms by source and by target, each list in morphism order."""
        outgoing, incoming = {}, {}
        for m in self.morphisms:
            outgoing.setdefault(self.source.get(m), []).append(m)
            incoming.setdefault(self.target.get(m), []).append(m)
        return outgoing, incoming

    def _generators(self) -> list:
        """A set S of morphisms whose composites give every morphism.

        S starts from a spanning forest of the object graph and each forest
        arrow's inverse entry; then, in morphism order, every morphism the
        closure of S has not reached joins S.  The closure is a BFS by left
        multiplication through the compose table, so each morphism it reaches
        is a composite of elements of S.  Needs a well-formed composition.
        """
        outgoing, _ = self._hom_index
        source, target, compose = self.source.get, self.target.get, self.compose
        generators: list = []
        leaving: dict = {}  # object -> the generators with that source
        entering: dict = {}  # object -> the reached morphisms with that target
        reached: set = set()
        frontier: list = []

        def reach(m) -> None:
            reached.add(m)
            entering.setdefault(target(m), []).append(m)
            frontier.append(m)

        def generate(a) -> None:
            if a in reached:
                return
            generators.append(a)
            leaving.setdefault(source(a), []).append(a)
            reach(a)
            for m in entering.get(source(a), ()):
                if (am := compose[(a, m)]) not in reached:
                    reach(am)
            while frontier:
                m = frontier.pop()
                for b in leaving.get(target(m), ()):
                    if (bm := compose[(b, m)]) not in reached:
                        reach(bm)

        morphisms = set(self.morphisms)
        seen: set = set()
        for root in self.objects:
            if root in seen:
                continue
            seen.add(root)
            stack = [root]
            while stack:
                for m in outgoing.get(stack.pop(), ()):
                    if target(m) not in seen:
                        seen.add(target(m))
                        stack.append(target(m))
                        generate(m)
                        if self.inverse.get(m) in morphisms:
                            generate(self.inverse[m])
        for m in self.morphisms:
            generate(m)
        return generators

    def _generators_associate(self) -> bool:
        """(x o a) o y == x o (a o y) for every a in _generators() and every
        composable x and y.  Needs a well-formed composition."""
        outgoing, incoming = self._hom_index
        source, target, compose = self.source.get, self.target.get, self.compose
        for a in self._generators():
            after = incoming.get(source(a), ())
            composites = [compose[(a, y)] for y in after]
            for x in outgoing.get(target(a), ()):
                xa = compose[(x, a)]
                for y, ay in zip(after, composites):
                    if compose[(xa, y)] != compose[(x, ay)]:
                        return False
        return True

    def verify_axioms(self) -> CheckResult:
        """Exhaustive check of every groupoid axiom on the dense tables.

        Each row names the first failure in row-major morphism order.
        Associativity is decided by Light's test once the
        composition_wellformed row has passed, that is once compose is
        defined exactly on the composable pairs and every composite has the
        right endpoints.  The middles a at which (x o a) o y == x o (a o y)
        holds for every composable x, y are closed under composition: for
        such a and b, (x o ab) o y = ((x o a) o b) o y = (x o a) o (b o y)
        = x o (a o (b o y)) = x o (ab o y).  So checking only the middles of
        a set S whose composites give every morphism (_generators) decides
        the law everywhere.  When that short check fails, the full scan over
        every composable triple runs, so the failure named is the first one
        in row-major order.
        """
        checks = []
        objects = set(self.objects)
        morphisms = set(self.morphisms)
        _, incoming = self._hom_index
        stray: dict = {}  # g -> the f with (g, f) keyed in compose but not composable
        for g, f in self.compose:
            if f in morphisms and self.source.get(g) != self.target.get(f):
                stray.setdefault(g, []).append(f)

        total = all(
            m in self.source and m in self.target and self.source[m] in objects and self.target[m] in objects
            for m in morphisms
        )
        checks.append(("structure_maps_total", total, "" if total else "a morphism lacks source or target"))

        id_ok, id_detail = True, ""
        for x in self.objects:
            e = self.identity.get(x)
            if e not in morphisms or self.source.get(e) != x or self.target.get(e) != x:
                id_ok, id_detail = False, f"identity of {x!r} is missing or has wrong endpoints"
                break
        checks.append(("identities_exist", id_ok, id_detail))

        # only composable pairs and stray ones can fail; visit them in
        # row-major order so the first failure named is the first of all pairs
        comp_ok, comp_detail = True, ""
        source, target, compose = self.source, self.target, self.compose
        for g in self.morphisms:
            s_g = source.get(g)
            row = incoming.get(s_g, [])
            if g in stray:
                row = sorted({*row, *stray[g]}, key=self.morphisms.index)
            for f in row:
                composable = s_g == target.get(f)
                if composable != ((g, f) in compose):
                    comp_ok = False
                    comp_detail = f"composition defined on the wrong pairs at (g={g!r}, f={f!r})"
                    break
                if composable:
                    h = compose[(g, f)]
                    if h not in morphisms or source[h] != source[f] or target[h] != target[g]:
                        comp_ok = False
                        comp_detail = f"composite of (g={g!r}, f={f!r}) has wrong endpoints"
                        break
            if not comp_ok:
                break
        checks.append(("composition_wellformed", comp_ok, comp_detail))

        unit_ok, unit_detail = True, ""
        if id_ok and comp_ok:
            for f in self.morphisms:
                left = self.compose.get((self.identity[self.target[f]], f))
                right = self.compose.get((f, self.identity[self.source[f]]))
                if left != f or right != f:
                    unit_ok, unit_detail = False, f"unit law fails at {f!r}"
                    break
        checks.append(("unit_laws", unit_ok and id_ok, unit_detail))

        assoc_ok, assoc_detail = True, ""
        if comp_ok and not self._generators_associate():
            # with composition well-formed, g o f is defined exactly for the
            # f in incoming[s(g)]
            for g in self.morphisms:
                for f in incoming.get(self.source.get(g), ()):
                    gf = self.compose[(g, f)]
                    for e in incoming.get(self.source.get(f), ()):
                        if self.compose[(gf, e)] != self.compose[(g, self.compose[(f, e)])]:
                            assoc_ok = False
                            assoc_detail = (
                                f"associativity fails on the triple (g={g!r}, f={f!r}, e={e!r})"
                            )
                            break
                    if not assoc_ok:
                        break
                if not assoc_ok:
                    break
        checks.append(("associativity", assoc_ok, assoc_detail))

        inv_ok, inv_detail = True, ""
        if id_ok and comp_ok:
            for f in self.morphisms:
                g = self.inverse.get(f)
                if (
                    g not in morphisms
                    or self.source.get(g) != self.target[f]
                    or self.target.get(g) != self.source[f]
                    or self.compose.get((g, f)) != self.identity[self.source[f]]
                    or self.compose.get((f, g)) != self.identity[self.target[f]]
                ):
                    inv_ok, inv_detail = False, f"inverse law fails at {f!r}"
                    break
        checks.append(("inverse_laws", inv_ok, inv_detail))
        return CheckResult("groupoid axioms", tuple(checks))


def translation_groupoid(action: GroupAction, verify: bool = True) -> FiniteGroupoid:
    """Objects are the points, morphisms the pairs (x, h) with s(x,h) = x,
    t(x,h) = h(x), and (h(x), h') o (x, h) = (x, h'h)."""
    morphisms = [(x, h) for x in action.points for h in action.group.elements]
    source = {m: m[0] for m in morphisms}
    target = {m: action.apply(m[1], m[0]) for m in morphisms}
    compose = {}
    for x, h in morphisms:
        hx = action.apply(h, x)
        for h2 in action.group.elements:
            compose[((hx, h2), (x, h))] = (x, action.group.op(h2, h))
    identity = {x: (x, action.group.identity) for x in action.points}
    inverse = {
        (x, h): (action.apply(h, x), action.group.inv(h)) for x, h in morphisms
    }
    groupoid = FiniteGroupoid(action.points, morphisms, source, target, compose, identity, inverse)
    if verify:
        report = groupoid.verify_axioms()
        if not report:
            raise InvalidModelError(f"translation groupoid failed axioms: {report.first_failure()}")
    return groupoid


@dataclass(frozen=True)
class OrbitSpace:
    blocks: tuple[frozenset, ...]
    index: dict

    def of(self, x) -> int:
        return self.index[x]

    def __len__(self) -> int:
        return len(self.blocks)

    def to_json(self) -> dict:
        return {"orbits": [sorted(map(repr, block)) for block in self.blocks]}


def orbit_space(groupoid: FiniteGroupoid) -> OrbitSpace:
    """Partition of objects by reachability: y in orbit(x) iff some
    morphism runs x -> y."""
    outgoing, _ = groupoid._hom_index
    index: dict = {}
    blocks: list[set] = []
    for x in groupoid.objects:
        if x in index:
            continue
        block = {x}
        frontier = [x]
        while frontier:
            current = frontier.pop()
            for m in outgoing.get(current, ()):
                if groupoid.target[m] not in block:
                    block.add(groupoid.target[m])
                    frontier.append(groupoid.target[m])
        for y in block:
            index[y] = len(blocks)
        blocks.append(block)
    return OrbitSpace(tuple(frozenset(b) for b in blocks), index)


def configuration_groupoid(groupoid: FiniteGroupoid, n: int, verify: bool = True) -> FiniteGroupoid:
    """Objects: n-tuples of objects in pairwise distinct orbits; morphisms:
    n-tuples of morphisms whose source and target tuples both qualify.

    With fewer than n orbits the result is the empty groupoid carrying a
    warning flag instead of an error.
    """
    if n < 1:
        raise ValueError("configuration length must be >= 1")
    orbits = orbit_space(groupoid)
    warning = None
    if len(orbits) < n:
        warning = f"only {len(orbits)} orbits; no {n}-tuples with distinct orbits exist"
        return FiniteGroupoid((), (), {}, {}, {}, {}, {}, warning=warning)

    def qualifies(tup) -> bool:
        ids = [orbits.of(x) for x in tup]
        return len(set(ids)) == n

    objects = [tup for tup in product(groupoid.objects, repeat=n) if qualifies(tup)]
    object_set = set(objects)
    morphisms = []
    for tup in product(groupoid.morphisms, repeat=n):
        src = tuple(groupoid.source[m] for m in tup)
        tgt = tuple(groupoid.target[m] for m in tup)
        if src in object_set and tgt in object_set:
            morphisms.append(tup)
    source = {m: tuple(groupoid.source[c] for c in m) for m in morphisms}
    target = {m: tuple(groupoid.target[c] for c in m) for m in morphisms}
    identity = {obj: tuple(groupoid.identity[x] for x in obj) for obj in objects}
    inverse = {m: tuple(groupoid.inverse[c] for c in m) for m in morphisms}
    result = FiniteGroupoid(objects, morphisms, source, target, {}, identity, inverse, warning)
    outgoing, _ = result._hom_index
    for f in morphisms:
        for g in outgoing.get(target[f], ()):
            result.compose[(g, f)] = tuple(groupoid.compose[(g[i], f[i])] for i in range(n))
    if verify:
        report = result.verify_axioms()
        if not report:
            raise InvalidModelError(f"configuration groupoid failed axioms: {report.first_failure()}")
    return result


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GroupoidHom:
    src: FiniteGroupoid
    dst: FiniteGroupoid
    object_map: dict
    morphism_map: dict
    name: str = "f"

    def verify(self) -> CheckResult:
        checks = []
        f0, f1 = self.object_map, self.morphism_map
        dst_objects, dst_morphisms = set(self.dst.objects), set(self.dst.morphisms)
        objects_ok = all(f0.get(x) in dst_objects for x in self.src.objects)
        checks.append(("object_map_total", objects_ok, "" if objects_ok else "object map misses an object"))
        morphs_ok = all(f1.get(m) in dst_morphisms for m in self.src.morphisms)
        checks.append(("morphism_map_total", morphs_ok, "" if morphs_ok else "morphism map misses a morphism"))
        if not (objects_ok and morphs_ok):
            return CheckResult(f"homomorphism {self.name}", tuple(checks))
        st_ok, st_detail = True, ""
        for m in self.src.morphisms:
            if self.dst.source[f1[m]] != f0[self.src.source[m]] or self.dst.target[f1[m]] != f0[self.src.target[m]]:
                st_ok, st_detail = False, f"endpoints not preserved at {m!r}"
                break
        checks.append(("preserves_endpoints", st_ok, st_detail))
        id_ok = all(f1[self.src.identity[x]] == self.dst.identity[f0[x]] for x in self.src.objects)
        checks.append(("preserves_identities", id_ok, "" if id_ok else "an identity is not preserved"))
        comp_ok, comp_detail = True, ""
        dst_compose = self.dst.compose
        for (g, f), h in self.src.compose.items():
            if dst_compose.get((f1[g], f1[f])) != f1[h]:
                comp_ok, comp_detail = False, f"composition not preserved at (g={g!r}, f={f!r})"
                break
        checks.append(("preserves_composition", comp_ok, comp_detail))
        inv_ok = all(f1[self.src.inverse[m]] == self.dst.inverse[f1[m]] for m in self.src.morphisms)
        checks.append(("preserves_inverses", inv_ok, "" if inv_ok else "an inverse is not preserved"))
        return CheckResult(f"homomorphism {self.name}", tuple(checks))


def identity_hom(groupoid: FiniteGroupoid) -> GroupoidHom:
    return inclusion_hom(groupoid, groupoid, name="id")


def forget_map(groupoid: FiniteGroupoid, n: int) -> GroupoidHom:
    """PB_n -> PB_{n-1}: drop the last coordinate on objects and morphisms."""
    if n < 2:
        raise ValueError("forgetting needs n >= 2")
    big = configuration_groupoid(groupoid, n, verify=False)
    small = configuration_groupoid(groupoid, n - 1, verify=False)
    return GroupoidHom(
        big,
        small,
        {obj: obj[:-1] for obj in big.objects},
        {m: m[:-1] for m in big.morphisms},
        name=f"forget_{n}",
    )


def full_subgroupoid(groupoid: FiniteGroupoid, objects: Sequence) -> FiniteGroupoid:
    kept = set(objects)
    morphisms = [
        m for m in groupoid.morphisms if groupoid.source[m] in kept and groupoid.target[m] in kept
    ]
    mset = set(morphisms)
    return FiniteGroupoid(
        tuple(objects),
        morphisms,
        {m: groupoid.source[m] for m in morphisms},
        {m: groupoid.target[m] for m in morphisms},
        {pair: h for pair, h in groupoid.compose.items() if pair[0] in mset and pair[1] in mset},
        {x: groupoid.identity[x] for x in objects},
        {m: groupoid.inverse[m] for m in morphisms},
    )


def inclusion_hom(sub: FiniteGroupoid, ambient: FiniteGroupoid, name: str = "incl") -> GroupoidHom:
    return GroupoidHom(
        sub,
        ambient,
        {x: x for x in sub.objects},
        {m: m for m in sub.morphisms},
        name=name,
    )


def skeleton_inclusion(groupoid: FiniteGroupoid) -> GroupoidHom:
    """Inclusion of the full subgroupoid on one object per orbit."""
    orbits = orbit_space(groupoid)
    representatives = []
    seen = set()
    for x in groupoid.objects:
        block = orbits.of(x)
        if block not in seen:
            seen.add(block)
            representatives.append(x)
    return inclusion_hom(full_subgroupoid(groupoid, representatives), groupoid, name="skeleton")


def subgroup_covering_hom(action: GroupAction, subgroup: frozenset) -> GroupoidHom:
    """G(S, H') -> G(S, H) for H' <= H: identity on points, inclusion on arrows."""
    restricted = action.restrict_group(subgroup)
    small = translation_groupoid(restricted, verify=False)
    big = translation_groupoid(action, verify=False)
    return inclusion_hom(small, big, name="subgroup_inclusion")


# ---------------------------------------------------------------------------
# Covering and equivalence predicates
# ---------------------------------------------------------------------------


def is_covering_hom(f: GroupoidHom) -> CheckResult:
    """Discrete covering-homomorphism test.

    Conditions: verified homomorphism; object map onto the base; the map
    h -> (f1(h), s(h)) into the fibered product G1 x_{G0} H0 injective
    (unique lifts with prescribed source); and f0-fiber cardinality
    constant along each base orbit.  The last condition is independent of
    the others and is what makes the induced map on orbit spaces an even
    covering in the finite picture.
    """
    checks = []
    hom = f.verify()
    checks.append(("homomorphism", hom.passed, "" if hom else f"not a homomorphism: {hom.first_failure()}"))
    if not hom.passed:
        return CheckResult(f"covering {f.name}", tuple(checks))
    f0, f1 = f.object_map, f.morphism_map
    surjective = set(f0.values()) == set(f.dst.objects)
    checks.append((
        "object_map_surjective",
        surjective,
        "" if surjective else "object map misses part of the base",
    ))
    image = {}
    injective, inj_detail = True, ""
    for h in f.src.morphisms:
        key = (f1[h], f.src.source[h])
        if key in image:
            injective = False
            fibered = sum(len(set(f.dst._hom_index[0].get(f0[y], ()))) for y in set(f.src.objects))
            inj_detail = (
                f"morphisms {image[key]!r} and {h!r} share image and source; "
                f"|H1|={len(f.src.morphisms)} vs fibered product {fibered}"
            )
            break
        image[key] = h
    checks.append(("unique_source_lift", injective, inj_detail))
    base_orbits = orbit_space(f.dst)
    fiber_sizes: dict[int, set] = {}
    counts = Counter(f0[x] for x in f.src.objects)
    for y in f.dst.objects:
        fiber_sizes.setdefault(base_orbits.of(y), set()).add(counts[y])
    constant = all(len(sizes) == 1 for sizes in fiber_sizes.values())
    checks.append((
        "fiber_constant_on_orbits",
        constant,
        ""
        if constant
        else "object fibers vary along one base orbit: "
        + repr({k: sorted(v) for k, v in fiber_sizes.items() if len(v) > 1}),
    ))
    return CheckResult(f"covering {f.name}", tuple(checks))


def is_equivalence(f: GroupoidHom) -> CheckResult:
    """Definition of equivalence, discretized.

    Condition 1: (g, x) -> t(g) from the fibered product
    G1 x_{G0} H0 (pairs with s(g) = f0(x)) is onto the base objects.
    Condition 2: h -> (f1(h), s(h), t(h)) is a bijection onto the triples
    (g, x, x') with s(g) = f0(x) and t(g) = f0(x').
    """
    checks = []
    hom = f.verify()
    checks.append(("homomorphism", hom.passed, "" if hom else f"not a homomorphism: {hom.first_failure()}"))
    if not hom.passed:
        return CheckResult(f"equivalence {f.name}", tuple(checks))
    f1 = f.morphism_map
    fiber = Counter(f.object_map[x] for x in set(f.src.objects))  # |f0^-1(y)|
    reached = {f.dst.target[g] for g in f.dst.morphisms if f.dst.source[g] in fiber}
    cond1 = reached == set(f.dst.objects)
    checks.append((
        "essentially_surjective",
        cond1,
        "" if cond1 else f"misses base objects {sorted(map(repr, set(f.dst.objects) - reached))}",
    ))
    triples = sum(fiber[f.dst.source[g]] * fiber[f.dst.target[g]] for g in set(f.dst.morphisms))
    image = {}
    bijective, detail = True, ""
    for h in f.src.morphisms:
        key = (f1[h], f.src.source[h], f.src.target[h])
        if key in image:
            bijective, detail = False, f"two morphisms map to the same triple {key!r}"
            break
        image[key] = h
    # a verified hom maps each h to a triple, so distinct images are onto
    # exactly when they are as many as the triples
    if bijective and len(image) != triples:
        bijective = False
        detail = f"{triples - len(image)} fibered-product triples have no preimage"
    checks.append(("fully_faithful_bijection", bijective, detail))
    return CheckResult(f"equivalence {f.name}", tuple(checks))


def induced_configuration_hom(f: GroupoidHom, n: int) -> GroupoidHom:
    """Apply f componentwise on n-tuples.

    Requires f to be injective on orbits (true for the equivalences used
    here), so distinct-orbit tuples stay distinct-orbit.
    """
    src_orbits = orbit_space(f.src)
    dst_orbits = orbit_space(f.dst)
    blocks = {}
    for x in f.src.objects:
        blocks.setdefault(src_orbits.of(x), set()).add(dst_orbits.of(f.object_map[x]))
    if any(len(images) != 1 for images in blocks.values()) or len(
        {next(iter(v)) for v in blocks.values()}
    ) != len(blocks):
        raise InvalidModelError("componentwise induction needs an orbit-injective map")
    big_src = configuration_groupoid(f.src, n, verify=False)
    big_dst = configuration_groupoid(f.dst, n, verify=False)
    return GroupoidHom(
        big_src,
        big_dst,
        {obj: tuple(f.object_map[x] for x in obj) for obj in big_src.objects},
        {m: tuple(f.morphism_map[c] for c in m) for m in big_src.morphisms},
        name=f"{f.name}^{n}",
    )


# ---------------------------------------------------------------------------
# The Morita triple construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MoritaTriple:
    middle: FiniteGroupoid
    to_first: GroupoidHom
    to_second: GroupoidHom
    first_check: CheckResult
    second_check: CheckResult

    @property
    def passed(self) -> bool:
        return self.first_check.passed and self.second_check.passed

    def __bool__(self) -> bool:
        return self.passed

    def to_json(self) -> dict:
        return {
            "middle": {
                "objects": len(self.middle.objects),
                "morphisms": len(self.middle.morphisms),
            },
            "to_first": self.first_check.to_json(),
            "to_second": self.second_check.to_json(),
            "pass": self.passed,
        }


def _quotient_arrow(
    action: GroupAction, fine: FiniteGroupoid, projections: Sequence, outer: frozenset, name: str
) -> GroupoidHom:
    """fine = G(S/inner, Gamma/inner) -> G(S/outer, Gamma/outer) for inner <= outer,
    given the point and group projections onto fine."""
    fine_points, fine_groups = projections
    coarse_action, coarse_points, coarse_groups = action.quotient_action(outer)
    coarse = translation_groupoid(coarse_action, verify=False)
    point_map = {fine_points[x]: coarse_points[x] for x in action.points}
    group_map = {fine_groups[g]: coarse_groups[g] for g in action.group.elements}
    return GroupoidHom(
        fine,
        coarse,
        {p: point_map[p] for p in fine.objects},
        {(p, c): (point_map[p], group_map[c]) for p, c in fine.morphisms},
        name=name,
    )


def morita_triple(
    action: GroupAction, normal_first: frozenset, normal_second: frozenset
) -> MoritaTriple:
    """Common refinement of two normal quotient models.

    Given Gamma acting on S and normal subgroups N1, N2, the middle
    groupoid is G(S/(N1 n N2), Gamma/(N1 n N2)) and the arrows to
    G(S/N_i, Gamma/N_i) come from the quotient projections.  Both arrows
    are checked against the two equivalence conditions.
    """
    for candidate in (normal_first, normal_second):
        if not action.group.is_normal(frozenset(candidate)):
            raise InvalidModelError(f"{sorted(map(repr, candidate))} is not a normal subgroup")
    intersection = frozenset(normal_first) & frozenset(normal_second)
    middle_action, *projections = action.quotient_action(intersection)
    middle = translation_groupoid(middle_action, verify=False)
    e1 = _quotient_arrow(action, middle, projections, frozenset(normal_first), "to_first")
    e2 = _quotient_arrow(action, middle, projections, frozenset(normal_second), "to_second")
    return MoritaTriple(
        middle=middle,
        to_first=e1,
        to_second=e2,
        first_check=is_equivalence(e1),
        second_check=is_equivalence(e2),
    )


# ---------------------------------------------------------------------------
# JSON models
# ---------------------------------------------------------------------------


def _freeze(value):
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        raise InvalidModelError(f"a label must not be a JSON object, got {value!r}")
    return value


def _json_shape(value, shape: type, what: str):
    """value, when it is the JSON object (shape dict) or list (shape list)."""
    if not isinstance(value, shape):
        noun = "an object" if shape is dict else "a list"
        raise InvalidModelError(f"{what} must be {noun}, got {value!r}")
    return value


def _point_count(data: dict, kind: str) -> int:
    """The point count of a negation or rotation model, inside its rail."""
    n = json_int(data["n"], f"{kind} n")
    if n > MAX_ACTION_POINTS:
        raise SizeGuardError(f"{kind} with n = {n} exceeds the groupoid rail (n <= {MAX_ACTION_POINTS})")
    return n


def _guard_order(order: int) -> None:
    if order > MAX_GROUP_ORDER:
        raise SizeGuardError(f"group order {order} exceeds the groupoid rail (order <= {MAX_GROUP_ORDER})")


def group_from_json(data: dict) -> FiniteGroup:
    """The group a JSON model names; no table above MAX_GROUP_ORDER is built."""
    kind = _json_shape(data, dict, "group model").get("kind")
    if kind in ("cyclic", "dihedral"):
        n = json_int(data["n"], f"{kind} n")
        _guard_order(n if kind == "cyclic" else 2 * n)
        return FiniteGroup.cyclic(n) if kind == "cyclic" else FiniteGroup.dihedral(n)
    if kind == "klein":
        return FiniteGroup.klein()
    if kind == "product":
        factors = [group_from_json(f) for f in _json_shape(data["factors"], list, "product factors")]
        if len(factors) < 2:
            raise InvalidModelError("product needs at least two factors")
        _guard_order(prod(g.order for g in factors))
        out = factors[0]
        for nxt in factors[1:]:
            out = FiniteGroup.product(out, nxt)
        return out
    raise InvalidModelError(f"unknown group kind {kind!r}")


def group_action_from_json(data: dict, group: FiniteGroup) -> GroupAction:
    """The action a JSON model names; negation and rotation models have at
    most MAX_ACTION_POINTS points."""
    kind = _json_shape(data, dict, "action model").get("kind")
    if kind == "regular":
        return GroupAction.regular(group)
    if kind == "negation":
        if group.order != 2:
            raise InvalidModelError("negation model acts through a group of order 2")
        base = GroupAction.negation_mod(_point_count(data, kind))
        table = {
            (g, x): base.apply(gi, x)
            for gi, g in zip(base.group.elements, group.elements)
            for x in base.points
        }
        return GroupAction(group, base.points, table)
    if kind == "rotation":
        return GroupAction.rotation_mod(_point_count(data, kind), group.order)
    if kind == "table":
        points = [_freeze(p) for p in _json_shape(data["points"], list, "action points")]
        table = {}
        for row in _json_shape(data["table"], list, "action table"):
            row = _json_shape(row, dict, "action table row")
            table[(_freeze(row["g"]), _freeze(row["x"]))] = _freeze(row["y"])
        return GroupAction(group, points, table)
    raise InvalidModelError(f"unknown action kind {kind!r}")


def groupoid_from_json(data: dict) -> FiniteGroupoid:
    """Explicit groupoid tables, as emitted by hand-written CLI inputs."""
    try:
        objects = [_freeze(x) for x in data["objects"]]
        morphisms = []
        source, target = {}, {}
        for row in data["morphisms"]:
            label = _freeze(row["id"])
            morphisms.append(label)
            source[label] = _freeze(row["src"])
            target[label] = _freeze(row["tgt"])
        compose = {}
        for g, f, h in data["compose"]:
            compose[(_freeze(g), _freeze(f))] = _freeze(h)
        identity = {_freeze(x): _freeze(m) for x, m in data["identities"].items()}
        inverse = {_freeze(m): _freeze(v) for m, v in data["inverses"].items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidModelError(f"malformed groupoid spec: {exc}") from exc
    if set(identity) != set(objects):
        # JSON object keys are strings; tolerate integer-labeled objects
        coerced = {}
        for key, value in identity.items():
            coerced[_coerce_label(key, objects)] = value
        identity = coerced
    inverse = { _coerce_label(k, morphisms): v for k, v in inverse.items() }
    return FiniteGroupoid(objects, morphisms, source, target, compose, identity, inverse)


def _coerce_label(key, universe):
    if key in set(universe):
        return key
    for candidate in universe:
        if str(candidate) == key:
            return candidate
    return key

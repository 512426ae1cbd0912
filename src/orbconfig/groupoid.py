"""Finite groupoid models: translation groupoids of finite group actions,
orbit spaces, configuration groupoids, and the covering/equivalence checks.

The point of these models is exhaustive verification: every axiom, every
composable pair and every fibered-product element is enumerated.  So the
checks run on integers.  The hashable labels a model is given in are
mapped to indices 0..n-1 once, when the model is read, and mapped back
only in reports and failure details.  Groups and actions (orbconfig.groups)
are Cayley tables and permutation lists; a groupoid keeps integer source,
target, identity and inverse lists.  A translation groupoid computes its
composites from the group table.  So does the configuration groupoid of
one, which is the translation groupoid of G^n acting on the orbit
configuration space.  Every other model keeps its composites in a table
keyed by pairs of indices.  "Surjective submersion" and "fibered product
of manifolds" from the smooth theory are discretized to plain
surjectivity and set-level fibered products.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product
from math import prod
from typing import Iterable, Optional, Sequence

from .arrangement import SizeGuardError
from .exactfield import json_int, json_kind, json_shape
from .groups import _MISSING, FiniteGroup, GroupAction, InvalidModelError, _label_index
from .groups import _associative_at, _generating_set

# Largest group a JSON model may name.  Its Cayley table and a regular
# action's permutations each have |G|^2 entries, and validating either
# takes O(|G|^2 |S|) steps for a generating set S.
MAX_GROUP_ORDER = 32
# Largest point count of a negation or rotation model, read from the JSON
# before any table is built.  Tables grow with points times group order; a
# Morita triple of rotation(128) under C32 with trivial subgroups, the worst
# case the two rails allow, peaks at about 2 MB of them (tracemalloc).
MAX_ACTION_POINTS = 128

# Codes _compose returns besides morphism indices: the pair has no
# composite, or its composite is a label that names no morphism.
ABSENT = -1
NOT_MORPHISM = -2

# The rows of verify_axioms, in report order.
_AXIOM_ROWS = (
    "structure_maps_total",
    "identities_exist",
    "composition_wellformed",
    "unit_laws",
    "associativity",
    "inverse_laws",
)


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
    """Objects, morphisms and structure maps on integer indices.

    Objects and morphisms are hashable labels; a label given twice names
    the one object or morphism of its first place.  For the morphism
    indices 0..M-1 the core keeps the lists _src and _tgt of endpoint codes
    and _inv of inverse indices, and for each endpoint code the index
    _ident of its identity.  Codes 0..n-1 are the objects.  Tables read
    from labels give every other endpoint label, and a missing endpoint,
    a code past n; _ident is None there.  An identity or inverse that names
    no morphism is None.  _compose(g, f) is the index of g o f, ABSENT, or
    NOT_MORPHISM; this class keeps the composites in _table, keyed
    g * M + f.

    source, target, compose, identity and inverse read as label dicts:
    the ones given to the constructor, or views built from the core on
    first use, where an entry that names no morphism reads None.
    """

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
        self._objects = tuple(dict.fromkeys(self.objects))
        self._arrows = tuple(dict.fromkeys(self.morphisms))
        self._object_index = {x: i for i, x in enumerate(self._objects)}
        self._arrow_index = arrows = {m: i for i, m in enumerate(self._arrows)}
        codes = dict(self._object_index)
        self._src = [codes.setdefault(self.source.get(m, _MISSING), len(codes)) for m in self._arrows]
        self._tgt = [codes.setdefault(self.target.get(m, _MISSING), len(codes)) for m in self._arrows]
        self._ident = [arrows.get(self.identity.get(x, _MISSING)) for x in self._objects]
        self._ident += [None] * (len(codes) - len(self._objects))
        self._inv = [arrows.get(self.inverse.get(m, _MISSING)) for m in self._arrows]
        size = len(self._arrows)
        self._table = {
            arrows[g] * size + arrows[f]: arrows.get(h, NOT_MORPHISM)
            for (g, f), h in self.compose.items()
            if g in arrows and f in arrows
        }

    @classmethod
    def _encoded(
        cls, objects: tuple, morphisms: tuple, src: list, tgt: list, ident: list, inv: list, table: dict
    ) -> "FiniteGroupoid":
        groupoid = cls.__new__(cls)
        groupoid.objects = groupoid._objects = objects
        groupoid.morphisms = groupoid._arrows = morphisms
        groupoid._src, groupoid._tgt, groupoid._ident, groupoid._inv = src, tgt, ident, inv
        groupoid._table = table
        groupoid.warning = None
        return groupoid

    def __repr__(self) -> str:
        return f"FiniteGroupoid({len(self._objects)} objects, {len(self._src)} morphisms)"

    # -- composites ------------------------------------------------------------

    def _compose(self, g: int, f: int) -> int:
        return self._table.get(g * len(self._src) + f, ABSENT)

    def _row(self, g: int, fs: Sequence[int]) -> list:
        """[_compose(g, f) for f in fs]."""
        table, base = self._table, g * len(self._src)
        return [table.get(base + f, ABSENT) for f in fs]

    def _pairs(self) -> Iterable[tuple[int, int, int]]:
        """(g, f, composite) for every pair with a composite, in the order
        of the compose mapping."""
        size = len(self._src)
        for key, h in self._table.items():
            yield (*divmod(key, size), h)

    def _stray(self) -> dict:
        """g -> the f with a composite g o f although s(g) != t(f)."""
        stray: dict = {}
        src, tgt = self._src, self._tgt
        for g, f, _ in self._pairs():
            if src[g] != tgt[f]:
                stray.setdefault(g, []).append(f)
        return stray

    # -- label views -------------------------------------------------------------

    @cached_property
    def _arrows(self) -> tuple:
        return self.morphisms

    @cached_property
    def _object_index(self) -> dict:
        return {x: i for i, x in enumerate(self._objects)}

    @cached_property
    def _arrow_index(self) -> dict:
        return {m: i for i, m in enumerate(self._arrows)}

    @cached_property
    def source(self) -> dict:
        return {m: self._objects[s] for m, s in zip(self._arrows, self._src)}

    @cached_property
    def target(self) -> dict:
        return {m: self._objects[t] for m, t in zip(self._arrows, self._tgt)}

    @cached_property
    def compose(self) -> dict:
        arrows = self._arrows
        return {(arrows[g], arrows[f]): arrows[h] if h >= 0 else None for g, f, h in self._pairs()}

    @cached_property
    def identity(self) -> dict:
        arrows = self._arrows
        return {x: None if e is None else arrows[e] for x, e in zip(self._objects, self._ident)}

    @cached_property
    def inverse(self) -> dict:
        arrows = self._arrows
        return {m: None if i is None else arrows[i] for m, i in zip(arrows, self._inv)}

    # -- structure -----------------------------------------------------------------

    # Built on first use, so the structure maps must not change afterwards.
    @cached_property
    def _hom_index(self) -> tuple[dict, dict]:
        """Morphism indices by source code and by target code, each list in
        morphism order."""
        outgoing: dict = {}
        incoming: dict = {}
        for m, (s, t) in enumerate(zip(self._src, self._tgt)):
            outgoing.setdefault(s, []).append(m)
            incoming.setdefault(t, []).append(m)
        return outgoing, incoming

    def _nonassociative_triple(self) -> Optional[tuple[int, int, int]]:
        """The first composable triple (g, f, e), in row-major morphism
        order, with (g o f) o e != g o (f o e), or None.

        Needs a well-formed composition: g o f is then a morphism, defined
        exactly for the f in incoming[s(g)], and s(g o f) = s(f).  So with
        rows[m] = [m o e for e in incoming[s(m)]], the triples of one pair
        (g, f) are the entries of rows[g o f] and of g composed with rows[f].
        """
        _, incoming = self._hom_index
        src, row = self._src, self._row
        rows = [row(m, incoming.get(s, ())) for m, s in enumerate(src)]
        for g in range(len(src)):
            for f, gf in zip(incoming.get(src[g], ()), rows[g]):
                right = row(g, rows[f])
                if rows[gf] != right:
                    es = incoming.get(src[f], ())
                    return g, f, next(e for e, a, b in zip(es, rows[gf], right) if a != b)
        return None

    def _axioms_hold_on_group(self) -> bool:
        """True when the group and the action behind the tables show that
        every axiom holds.  Only a translation groupoid has them."""
        return False

    def _orbit_ids(self) -> list:
        """The orbit number of each object index, numbered in object order:
        y is in the orbit of x iff some morphism runs x -> y."""
        outgoing, _ = self._hom_index
        tgt = self._tgt
        orbit: list = [None] * len(self._objects)
        count = 0
        for x in range(len(orbit)):
            if orbit[x] is not None:
                continue
            orbit[x] = count
            frontier = [x]
            while frontier:
                for m in outgoing.get(frontier.pop(), ()):
                    y = tgt[m]
                    if y < len(orbit) and orbit[y] is None:
                        orbit[y] = count
                        frontier.append(y)
            count += 1
        return orbit

    def verify_axioms(self) -> CheckResult:
        """Exhaustive check of every groupoid axiom on the tables.

        A translation groupoid, the configuration groupoid of one included,
        first decides every row on its group table and action
        (_axioms_hold_on_group); when that decision fails, or for a stored
        table, the scans below run.  Each row names the first failure in
        row-major morphism order.  composition_wellformed reads one _row per
        morphism g, over the f composable with g and any f with a stored
        g o f although s(g) != t(f).  Once that row has passed, associativity
        is the scan over every composable triple (_nonassociative_triple).
        """
        if self._axioms_hold_on_group():
            return CheckResult("groupoid axioms", tuple((name, True, "") for name in _AXIOM_ROWS))
        checks = []
        arrows = self._arrows
        n, size = len(self._objects), len(self._src)
        src, tgt, ident, inv, compose = self._src, self._tgt, self._ident, self._inv, self._compose
        _, incoming = self._hom_index

        total = max(src, default=-1) < n and max(tgt, default=-1) < n
        checks.append(("structure_maps_total", total, "" if total else "a morphism lacks source or target"))

        id_ok, id_detail = True, ""
        for x in range(n):
            e = ident[x]
            if e is None or src[e] != x or tgt[e] != x:
                id_ok, id_detail = False, f"identity of {self._objects[x]!r} is missing or has wrong endpoints"
                break
        checks.append(("identities_exist", id_ok, id_detail))

        # only composable pairs and stray ones can fail; visit them in
        # row-major order so the first failure named is the first of all pairs
        comp_ok, comp_detail = True, ""
        stray = self._stray()
        for g in range(size):
            s_g = src[g]
            row = incoming.get(s_g, [])
            if g in stray:
                row = sorted({*row, *stray[g]})
            for f, h in zip(row, self._row(g, row)):
                composable = s_g == tgt[f]
                if composable != (h != ABSENT):
                    comp_ok = False
                    comp_detail = f"composition defined on the wrong pairs at (g={arrows[g]!r}, f={arrows[f]!r})"
                    break
                if composable and (h < 0 or src[h] != src[f] or tgt[h] != tgt[g]):
                    comp_ok = False
                    comp_detail = f"composite of (g={arrows[g]!r}, f={arrows[f]!r}) has wrong endpoints"
                    break
            if not comp_ok:
                break
        checks.append(("composition_wellformed", comp_ok, comp_detail))

        unit_ok, unit_detail = True, ""
        if id_ok and comp_ok:
            for f in range(size):
                left, right = ident[tgt[f]], ident[src[f]]
                if left is None or right is None or compose(left, f) != f or compose(f, right) != f:
                    unit_ok, unit_detail = False, f"unit law fails at {arrows[f]!r}"
                    break
        checks.append(("unit_laws", unit_ok and id_ok, unit_detail))

        triple = self._nonassociative_triple() if comp_ok else None
        assoc_detail = ""
        if triple is not None:
            g, f, e = (arrows[m] for m in triple)
            assoc_detail = f"associativity fails on the triple (g={g!r}, f={f!r}, e={e!r})"
        checks.append(("associativity", triple is None, assoc_detail))

        inv_ok, inv_detail = True, ""
        if id_ok and comp_ok:
            for f in range(size):
                g = inv[f]
                if (
                    g is None
                    or src[g] != tgt[f]
                    or tgt[g] != src[f]
                    or compose(g, f) != ident[src[f]]
                    or compose(f, g) != ident[tgt[f]]
                ):
                    inv_ok, inv_detail = False, f"inverse law fails at {arrows[f]!r}"
                    break
        checks.append(("inverse_laws", inv_ok, inv_detail))
        return CheckResult("groupoid axioms", tuple(checks))


class _TranslationGroupoid(FiniteGroupoid):
    """The translation groupoid of an action, configuration groupoids of
    one included.  Morphism x * |G| + h is (x, h), and its composites
    (h.x, h2) o (x, h) = (x, h2 h) come from the group table _mul.

    verify_axioms first reads every row off the group table and the
    action's target array T, T[x][h] = _tgt[x * |G| + h] = h.x, in
    O(|S| |G| (|G| + |X|)) steps for a generating set S of the table
    (_axioms_hold_on_group).  With e a two-sided identity of _mul that
    fixes every point, (x, h2) o (x', h) is defined exactly when x = h.x',
    and its composite starts at x'; it ends at its right target exactly
    when the action law T[x][g h] = T[T[x][h]][g] holds.  The h at which
    that holds for every x and g are closed under products once _mul is
    associative: T[x][g (h1 h2)] = T[x][(g h1) h2] = T[T[x][h2]][g h1] =
    T[T[T[x][h2]][h1]][g] = T[T[x][h1 h2]][g].  They hold e, so the law
    needs testing for h in S only, and associativity is Light's test on S.
    The groupoid is then associative exactly when _mul is, the unit laws
    are the identity row and column of _mul, and the inverse laws hold
    when _inv is built from the table's inverse list.
    """

    def __init__(self, action: GroupAction):
        group = action.group
        order, points = group.order, range(len(action.points))
        self._action = action
        self._order, self._mul = order, group.table
        self._unit = e = group._identity
        self._group_inverse = group.inverse
        self.objects = self._objects = action.points
        self.warning = None
        self._table = None
        self._tgt = [y for column in zip(*action.perms) for y in column]  # column[h] = h.x
        self._ident = [x * order + e for x in points]

    # _src and _inv are built on first read: the coarse ends of a Morita
    # triple read neither
    @cached_property
    def _src(self) -> list:
        return [x for x in range(len(self._objects)) for _ in range(self._order)]

    @cached_property
    def _inv(self) -> list:
        order = self._order
        return [t * order + i for t, i in zip(self._tgt, self._group_inverse * len(self._objects))]

    @cached_property
    def morphisms(self) -> tuple:
        return tuple((x, h) for x in self._action.points for h in self._action.group.elements)

    def _compose(self, g: int, f: int) -> int:
        if self._src[g] != self._tgt[f]:
            return ABSENT
        h = f % self._order
        return f - h + self._mul[g % self._order][h]

    def _row(self, g: int, fs: Sequence[int]) -> list:
        order, s_g, tgt = self._order, self._src[g], self._tgt
        product_row = self._mul[g % order]
        return [f - f % order + product_row[f % order] if tgt[f] == s_g else ABSENT for f in fs]

    def _axioms_hold_on_group(self) -> bool:
        """Every axiom row passes, decided on the arrays the composites
        read (_tgt, _ident, _inv, _mul); see the class docstring.  False
        only means that the scans must decide."""
        order, mul, tgt, e = self._order, self._mul, self._tgt, self._unit
        count = len(self._objects)
        elements = list(range(order))
        images = [tgt[start : start + order] for start in range(0, len(tgt), order)]  # T[x]
        if not (
            max(tgt, default=-1) < count
            and self._ident == [x * order + e for x in range(count)]
            and all(row[e] == x for x, row in enumerate(images))
            and mul[e] == elements
            and [row[e] for row in mul] == elements
        ):
            return False
        # generators of _mul itself, so the closure argument holds on the
        # table the composites read
        generators = _generating_set(mul, e)
        if not all(_associative_at(mul, s) for s in generators):
            return False
        for s in generators:
            column = [row[s] for row in mul]  # g -> g s
            if any([row[c] for c in column] != images[row[s]] for row in images):
                return False
        inverse = self._group_inverse
        return all(row[i] == e for row, i in zip(mul, inverse)) and self._inv == [
            t * order + i for t, i in zip(tgt, inverse * count)
        ]

    def _orbit_ids(self) -> list:
        """The orbit of x is its row T[x] = _tgt[x * |G| : (x + 1) * |G|],
        so each orbit is read off the row of its first point, and the
        numbering is FiniteGroupoid._orbit_ids's."""
        order, tgt = self._order, self._tgt
        orbit: list = [None] * len(self._objects)
        count = 0
        for x, start in enumerate(range(0, len(tgt), order)):
            if orbit[x] is None:
                for y in tgt[start : start + order]:
                    orbit[y] = count
                count += 1
        return orbit

    def _pairs(self) -> Iterable[tuple[int, int, int]]:
        # f-major, as the composable pairs of every other model are built
        order, mul = self._order, self._mul
        for f, t in enumerate(self._tgt):
            h = f % order
            for h2, product_row in enumerate(mul):
                yield t * order + h2, f, f - h + product_row[h]


def translation_groupoid(action: GroupAction) -> FiniteGroupoid:
    """Objects are the points, morphisms the pairs (x, h) with s(x,h) = x,
    t(x,h) = h(x), and (h(x), h') o (x, h) = (x, h'h).  Lawful by
    construction: GroupAction checked the action laws when it was built."""
    return _TranslationGroupoid(action)


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
    orbit = groupoid._orbit_ids()
    blocks: list = [set() for _ in range(max(orbit, default=-1) + 1)]
    for x, label in zip(orbit, groupoid._objects):
        blocks[x].add(label)
    return OrbitSpace(tuple(frozenset(b) for b in blocks), dict(zip(groupoid._objects, orbit)))


def configuration_groupoid(groupoid: FiniteGroupoid, n: int, verify: bool = True) -> FiniteGroupoid:
    """Objects: n-tuples of objects in pairwise distinct orbits, in the
    product order of the base's objects; morphisms: n-tuples of morphisms
    whose source and target tuples both qualify.

    The configuration groupoid of a translation groupoid is a translation
    groupoid itself (_translation_configuration); of any other groupoid it
    is built with every composite stored (_stored_configuration).  With
    fewer than n orbits the result is the empty groupoid carrying a warning
    flag instead of an error.
    """
    if n < 1:
        raise ValueError("configuration length must be >= 1")
    orbit = groupoid._orbit_ids()
    orbits = len(set(orbit))
    if orbits < n:
        warning = f"only {orbits} orbits; no {n}-tuples with distinct orbits exist"
        return FiniteGroupoid((), (), {}, {}, {}, {}, {}, warning=warning)
    parts = [tup for tup in product(range(len(orbit)), repeat=n) if len({orbit[x] for x in tup}) == n]
    build = _translation_configuration if isinstance(groupoid, _TranslationGroupoid) else _stored_configuration
    result = build(groupoid, parts)
    if verify:
        report = result.verify_axioms()
        if not report:
            raise InvalidModelError(f"configuration groupoid failed axioms: {report.first_failure()}")
    return result


def _translation_configuration(groupoid: _TranslationGroupoid, parts: list) -> FiniteGroupoid:
    """The translation groupoid of G^n acting coordinatewise on the n-tuples
    of point indices in parts (the orbit configuration space), read from
    the base's action.  As in FiniteGroup.product, (h1, ..., hn) has the
    index h1 |G|^(n-1) + ... + hn, so the morphisms run object-tuple-major
    and each is the tuple of base morphisms ((x1, h1), ..., (xn, hn))."""
    action = groupoid._action
    columns = list(zip(*action.perms))  # columns[x][h] = h.x
    position = {t: i for i, t in enumerate(parts)}
    images = [[position[y] for y in product(*(columns[x] for x in t))] for t in parts]
    points = [tuple(action.points[x] for x in t) for t in parts]
    power = reduce(FiniteGroup.product, [action.group] * len(parts[0]))
    result = _TranslationGroupoid(GroupAction._from_perms(power, points, [list(perm) for perm in zip(*images)]))
    order, arrows = groupoid._order, groupoid._arrows
    blocks = [arrows[x * order : (x + 1) * order] for x in range(len(columns))]
    result.morphisms = tuple(m for t in parts for m in product(*(blocks[x] for x in t)))
    return result


def _stored_configuration(groupoid: FiniteGroupoid, object_parts: list) -> FiniteGroupoid:
    """The configuration groupoid on the given object tuples, every
    composite computed from the base and stored; the morphisms run in the
    product order of the base's morphisms."""
    objects = {tup: i for i, tup in enumerate(object_parts)}
    base_src, base_tgt = groupoid._src, groupoid._tgt
    arrow_parts, src, tgt = [], [], []
    for tup in product(range(len(base_src)), repeat=len(object_parts[0])):
        s = objects.get(tuple(base_src[c] for c in tup))
        t = objects.get(tuple(base_tgt[c] for c in tup))
        if s is not None and t is not None:
            arrow_parts.append(tup)
            src.append(s)
            tgt.append(t)
    arrows = {tup: i for i, tup in enumerate(arrow_parts)}
    ident = [arrows.get(tuple(groupoid._ident[x] for x in tup)) for tup in object_parts]
    inv = [arrows.get(tuple(groupoid._inv[c] for c in tup)) for tup in arrow_parts]
    leaving: dict = {}
    for m, s in enumerate(src):
        leaving.setdefault(s, []).append(m)
    size, compose, table = len(arrow_parts), groupoid._compose, {}
    for f, f_parts in enumerate(arrow_parts):
        for g in leaving.get(tgt[f], ()):
            composite = tuple(map(compose, arrow_parts[g], f_parts))
            table[g * size + f] = arrows.get(composite, NOT_MORPHISM)
    base_objects, base_arrows = groupoid._objects, groupoid._arrows
    return FiniteGroupoid._encoded(
        tuple(tuple(base_objects[x] for x in tup) for tup in object_parts),
        tuple(tuple(base_arrows[c] for c in tup) for tup in arrow_parts),
        src,
        tgt,
        ident,
        inv,
        table,
    )


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------


class GroupoidHom:
    """A map of finite groupoids, run on indices: _object_images[x] is the
    dst object index of src object code x and _arrow_images[m] the dst
    index of morphism m, None where the image names no dst object or
    morphism (and past the src objects).  object_map and morphism_map read
    as label dicts: the ones given, or views built on first use.

    A map between translation groupoids may be given in product form,
    F(x, h) = (phi(x), psi(h)) (_product): phi is _object_images and psi
    the list _psi of dst element indices, and _arrow_images is built only
    when a scan or a label view reads it.  Every other hom has _psi None."""

    _psi: Optional[list] = None

    def __init__(
        self, src: FiniteGroupoid, dst: FiniteGroupoid, object_map: dict, morphism_map: dict, name: str = "f"
    ):
        self.src, self.dst, self.name = src, dst, name
        self.object_map, self.morphism_map = object_map, morphism_map

    @classmethod
    def _encoded(
        cls, src: FiniteGroupoid, dst: FiniteGroupoid, objects: list, arrows: list, name: str
    ) -> "GroupoidHom":
        hom = cls.__new__(cls)
        hom.src, hom.dst, hom.name = src, dst, name
        hom._object_images = objects + [None] * (len(src._ident) - len(objects))
        hom._arrow_images = arrows
        return hom

    @classmethod
    def _product(
        cls, src: "_TranslationGroupoid", dst: "_TranslationGroupoid", phi: list, psi: list, name: str
    ) -> "GroupoidHom":
        """F(x, h) = (phi[x], psi[h]) between translation groupoids, for
        total lists phi of dst point indices and psi of dst element
        indices; every arrow image then names a dst morphism."""
        hom = cls.__new__(cls)
        hom.src, hom.dst, hom.name = src, dst, name
        hom._object_images, hom._psi = phi, psi
        return hom

    @cached_property
    def _object_images(self) -> list:
        index = self.dst._object_index
        images = [index.get(self.object_map.get(x, _MISSING)) for x in self.src._objects]
        return images + [None] * (len(self.src._ident) - len(images))

    @cached_property
    def _arrow_images(self) -> list:
        if self._psi is not None:
            width, psi = self.dst._order, self._psi
            return [y * width + p for y in self._object_images for p in psi]
        index = self.dst._arrow_index
        return [index.get(self.morphism_map.get(m, _MISSING)) for m in self.src._arrows]

    def _images(self, arrows: list) -> list:
        """[_arrow_images[m] for m in arrows], read off phi and psi in
        product form."""
        if self._psi is not None:
            phi, psi, order, width = self._object_images, self._psi, self.src._order, self.dst._order
            return [phi[m // order] * width + psi[m % order] for m in arrows]
        images = self._arrow_images
        return [images[m] for m in arrows]

    @cached_property
    def object_map(self) -> dict:
        objects = self.dst._objects
        return {x: objects[y] for x, y in zip(self.src._objects, self._object_images)}

    @cached_property
    def morphism_map(self) -> dict:
        arrows = self.dst._arrows
        return {m: arrows[a] for m, a in zip(self.src._arrows, self._arrow_images)}

    def _equivariant(self, psi: list) -> bool:
        """psi(h).phi(x) = phi(h.x) for every point x and element h, as one
        comparison of two lists in morphism order: for a map (phi, psi)
        between translation groupoids, the endpoint law."""
        phi, width, dst_tgt = self._object_images, self.dst._order, self.dst._tgt
        return [dst_tgt[y * width + p] for y in phi for p in psi] == [phi[y] for y in self.src._tgt]

    def _generators_preserved(self) -> bool:
        """F(g o f) == F(g) o F(f) for every composable pair, for a map
        (phi, psi) between translation groupoids (_psi) that preserves
        endpoints.

        The law then reads psi(g h) = psi(g) psi(h) on the group tables.
        The s at which that holds for every g are closed under products,
        psi(g s1 s2) = psi(g s1) psi(s2) = psi(g) psi(s1) psi(s2) =
        psi(g) psi(s1 s2), and e is one of them exactly when psi(e) = e';
        so psi(e) = e' and the s in the src group's generating set decide
        it."""
        src, dst, psi = self.src, self.dst, self._psi
        if psi[src._unit] != dst._unit:
            return False
        for s in src._action.group._generating_set():
            column = [row[psi[s]] for row in dst._mul]  # g' -> g' psi(s)
            if [psi[row[s]] for row in src._mul] != [column[p] for p in psi]:
                return False
        return True

    def verify(self) -> CheckResult:
        """Every homomorphism law, each row naming its first failure in
        morphism order.

        For a hom built in product form, F(x, h) = (phi(x), psi(h))
        (_product), the rows are decided on the groups and actions:
        endpoints are psi(h).phi(x) = phi(h.x) (_equivariant), the identity
        row reads the image of each identity, composition is psi(g s) =
        psi(g) psi(s) for s in a generating set (_generators_preserved),
        and, once endpoints hold, inverses are psi(h^-1) = psi(h)^-1, since
        the ends build their inverse arrays from the group's inverse list.  Such a hom is total once phi is,
        and none of these decisions reads _arrow_images.  For any other
        hom, or where such a decision fails, the scans below name the
        first failure; composition is then scanned over every composable
        pair, in the order of src.compose.  The result is computed once per
        hom and kept, like the index maps, so the maps must not change
        afterwards; is_covering_hom and is_equivalence read the same
        result."""
        return self._verified

    @cached_property
    def _verified(self) -> CheckResult:
        checks = []
        src, dst = self.src, self.dst
        f0 = self._object_images
        objects_ok = None not in f0[: len(src._objects)]
        checks.append(("object_map_total", objects_ok, "" if objects_ok else "object map misses an object"))
        psi = self._psi
        morphs_ok = objects_ok if psi is not None else None not in self._arrow_images
        checks.append(("morphism_map_total", morphs_ok, "" if morphs_ok else "morphism map misses a morphism"))
        if not (objects_ok and morphs_ok):
            return CheckResult(f"homomorphism {self.name}", tuple(checks))
        st_ok, st_detail = True, ""
        if psi is None or not self._equivariant(psi):
            for m, image in enumerate(self._arrow_images):
                if dst._src[image] != f0[src._src[m]] or dst._tgt[image] != f0[src._tgt[m]]:
                    st_ok, st_detail = False, f"endpoints not preserved at {src._arrows[m]!r}"
                    break
        checks.append(("preserves_endpoints", st_ok, st_detail))
        identities, count = src._ident[: len(src._objects)], len(src._objects)
        id_ok = None not in identities and self._images(identities) == [dst._ident[y] for y in f0[:count]]
        checks.append(("preserves_identities", id_ok, "" if id_ok else "an identity is not preserved"))
        comp_ok, comp_detail = True, ""
        if not (st_ok and psi is not None and self._generators_preserved()):
            # the full scan, in the order of src.compose, names the first failure
            f1 = self._arrow_images
            for g, f, h in src._pairs():
                if h < 0 or dst._compose(f1[g], f1[f]) != f1[h]:
                    comp_ok = False
                    arrows = src._arrows
                    comp_detail = f"composition not preserved at (g={arrows[g]!r}, f={arrows[f]!r})"
                    break
        checks.append(("preserves_composition", comp_ok, comp_detail))
        inv_ok = (
            st_ok
            and psi is not None
            and [psi[i] for i in src._group_inverse] == [dst._group_inverse[p] for p in psi]
        )
        if not inv_ok:
            f1 = self._arrow_images
            inv_ok = all(i is not None and f1[i] == dst._inv[a] for i, a in zip(src._inv, f1))
        checks.append(("preserves_inverses", inv_ok, "" if inv_ok else "an inverse is not preserved"))
        return CheckResult(f"homomorphism {self.name}", tuple(checks))

    def _equivalence_holds(self) -> bool:
        """Both rows of is_equivalence pass, decided on orbits and
        stabilizers for a verified map (phi, psi) between translation
        groupoids (_psi); False only means that the scans must decide.

        The orbit of x is the row T[x] of the action (_orbit_ids).  Every
        H-orbit must meet phi(X).  The src arrows x -> x' are a coset
        g Stab_G(x) when x' = g.x and none otherwise, and psi maps them into
        the coset psi(g) Stab_H(phi x) of arrows phi(x) -> phi(x'); so the
        map is a bijection onto the fibered-product triples exactly when phi
        is injective on orbits, ker psi meets Stab_G(x) in e only and
        |Stab_G(x)| = |Stab_H(phi x)|.  Stabilizers along an orbit are
        conjugate and ker psi is normal, so one x per G-orbit decides.  Like
        verify's decisions, this reads both ends as groups acting on points,
        which a translation groupoid built from a GroupAction is."""
        psi = self._psi
        if psi is None:
            return False
        src, dst, phi = self.src, self.dst, self._object_images
        src_orbit, dst_orbit = src._orbit_ids(), dst._orbit_ids()
        if len({dst_orbit[y] for y in phi}) != max(dst_orbit, default=-1) + 1:
            return False
        first: dict = {}
        for x, orbit in enumerate(src_orbit):
            first.setdefault(orbit, x)
        if len({dst_orbit[phi[x]] for x in first.values()}) != len(first):
            return False
        order, width, tgt, dst_tgt = src._order, dst._order, src._tgt, dst._tgt
        e, e_dst = src._unit, dst._unit
        for x in first.values():
            stabilizer = [h for h, y in enumerate(tgt[x * order : (x + 1) * order]) if y == x]
            if any(psi[h] == e_dst for h in stabilizer if h != e):
                return False
            y = phi[x]
            if dst_tgt[y * width : (y + 1) * width].count(y) != len(stabilizer):
                return False
        return True


def forget_map(groupoid: FiniteGroupoid, n: int) -> GroupoidHom:
    """PB_n -> PB_{n-1}: drop the last coordinate on objects and morphisms.

    Between the configuration groupoids of a translation groupoid of G the
    map has product form: phi drops the last point of each tuple, and psi
    the last factor of G^n, h -> h // |G| on the indices of
    FiniteGroup.product."""
    if n < 2:
        raise ValueError("forgetting needs n >= 2")
    big = configuration_groupoid(groupoid, n, verify=False)
    small = configuration_groupoid(groupoid, n - 1, verify=False)
    if isinstance(big, _TranslationGroupoid):
        position = small._action.index
        phi = [position[obj[:-1]] for obj in big._objects]
        psi = [h // groupoid._order for h in range(big._order)]
        return GroupoidHom._product(big, small, phi, psi, f"forget_{n}")
    return GroupoidHom(
        big,
        small,
        {obj: obj[:-1] for obj in big.objects},
        {m: m[:-1] for m in big.morphisms},
        name=f"forget_{n}",
    )


def _full_subgroupoid(groupoid: FiniteGroupoid, objects: list) -> tuple[FiniteGroupoid, list]:
    """The full subgroupoid on the given object indices, and the
    groupoid's index of each of its morphisms."""
    position = {x: i for i, x in enumerate(objects)}
    src, tgt = groupoid._src, groupoid._tgt
    kept = [m for m, (s, t) in enumerate(zip(src, tgt)) if s in position and t in position]
    index = {m: i for i, m in enumerate(kept)}
    size, table = len(kept), {}
    for g, f, h in groupoid._pairs():
        if g in index and f in index:
            table[index[g] * size + index[f]] = index.get(h, NOT_MORPHISM)
    sub = FiniteGroupoid._encoded(
        tuple(groupoid._objects[x] for x in objects),
        tuple(groupoid._arrows[m] for m in kept),
        [position[src[m]] for m in kept],
        [position[tgt[m]] for m in kept],
        [index.get(groupoid._ident[x]) for x in objects],
        [index.get(groupoid._inv[m]) for m in kept],
        table,
    )
    return sub, kept


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
    first: dict = {}
    for x, orbit in enumerate(groupoid._orbit_ids()):
        first.setdefault(orbit, x)
    representatives = list(first.values())
    sub, kept = _full_subgroupoid(groupoid, representatives)
    return GroupoidHom._encoded(sub, groupoid, representatives, kept, "skeleton")


def subgroup_covering_hom(action: GroupAction, subgroup: frozenset) -> GroupoidHom:
    """G(S, H') -> G(S, H) for H' <= H: identity on points, inclusion on arrows."""
    restricted = action.restrict_group(subgroup)
    small = translation_groupoid(restricted)
    big = translation_groupoid(action)
    kept = [action.group.index[g] for g in restricted.group.elements]
    return GroupoidHom._product(small, big, list(range(len(action.points))), kept, "subgroup_inclusion")


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

    For a verified hom built in product form, F(x, h) = (phi(x), psi(h))
    (_product), the arrows (x, g) and (x, g') share image and source
    exactly when psi(g) = psi(g'), so unique lifts hold when psi is
    injective, and neither _arrow_images nor the src's source array is
    built; the fiber condition reads phi alone.  Any other map, or a psi
    that is not injective, is scanned for its first collision, which names
    the detail.
    """
    checks = []
    hom = f.verify()
    checks.append(("homomorphism", hom.passed, "" if hom else f"not a homomorphism: {hom.first_failure()}"))
    if not hom.passed:
        return CheckResult(f"covering {f.name}", tuple(checks))
    src, dst = f.src, f.dst
    f0 = f._object_images[: len(src._objects)]
    surjective = set(f0) == set(range(len(dst._objects)))
    checks.append((
        "object_map_surjective",
        surjective,
        "" if surjective else "object map misses part of the base",
    ))
    psi = f._psi
    decided = psi is not None and len(set(psi)) == len(psi)
    image: dict = {}
    injective, inj_detail = True, ""
    for h, key in enumerate(() if decided else zip(f._arrow_images, src._src)):
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
    base_orbits = dst._orbit_ids()
    fiber_sizes: dict[int, set] = {}
    counts = Counter(f0)
    for y, orbit in enumerate(base_orbits):
        fiber_sizes.setdefault(orbit, set()).add(counts[y])
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

    For a verified hom built in product form between translation
    groupoids X//G -> Y//H, F(x, h) = (phi(x), psi(h)) (_product), both
    conditions are first decided on orbits and stabilizers
    (GroupoidHom._equivalence_holds), the criterion for
    action groupoids: condition 1 holds exactly when every H-orbit meets
    phi(X), and condition 2 exactly when phi is injective on orbits and,
    at one x per G-orbit, ker psi meets Stab_G(x) in e only and
    |Stab_G(x)| = |Stab_H(phi x)|.  That costs O(#orbits (|G| + |H|)) past
    the orbit numbering.  When the decision fails, or for any other map,
    the scans below decide, so every row and detail string is theirs:
    condition 2 collects one triple per morphism.
    """
    checks = []
    hom = f.verify()
    checks.append(("homomorphism", hom.passed, "" if hom else f"not a homomorphism: {hom.first_failure()}"))
    if not hom.passed:
        return CheckResult(f"equivalence {f.name}", tuple(checks))
    if f._equivalence_holds():
        checks += [("essentially_surjective", True, ""), ("fully_faithful_bijection", True, "")]
        return CheckResult(f"equivalence {f.name}", tuple(checks))
    src, dst = f.src, f.dst
    f1 = f._arrow_images
    fiber = Counter(f._object_images[: len(src._objects)])  # |f0^-1(y)|
    reached = {t for s, t in zip(dst._src, dst._tgt) if s in fiber}
    missed = set(range(len(dst._objects))) - reached
    cond1 = not missed and len(reached) == len(dst._objects)
    checks.append((
        "essentially_surjective",
        cond1,
        "" if cond1 else f"misses base objects {sorted(repr(dst._objects[y]) for y in missed)}",
    ))
    triples = sum(fiber[s] * fiber[t] for s, t in zip(dst._src, dst._tgt))
    image: set = set()
    bijective, detail = True, ""
    for key in zip(f1, src._src, src._tgt):
        if key in image:
            g, x, y = key
            labels = (dst._arrows[g], src._objects[x], src._objects[y])
            bijective, detail = False, f"two morphisms map to the same triple {labels!r}"
            break
        image.add(key)
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
                "objects": len(self.middle._objects),
                "morphisms": len(self.middle._src),
            },
            "to_first": self.first_check.to_json(),
            "to_second": self.second_check.to_json(),
            "pass": self.passed,
        }


def _quotient_arrow(
    action: GroupAction, fine: FiniteGroupoid, projections: Sequence, outer: frozenset, name: str
) -> GroupoidHom:
    """fine = G(S/inner, Gamma/inner) -> G(S/outer, Gamma/outer) for inner <= outer,
    given the point and coset index of each point and element in fine."""
    fine_points, fine_cosets = projections
    coarse_action, coarse_points, coarse_cosets = action._quotient(outer)
    coarse = translation_groupoid(coarse_action)
    point_map = [0] * len(fine._objects)
    for p, q in zip(fine_points, coarse_points):
        point_map[p] = q
    coset_map = [0] * fine._order
    for c, d in zip(fine_cosets, coarse_cosets):
        coset_map[c] = d
    return GroupoidHom._product(fine, coarse, point_map, coset_map, name)


def morita_triple(
    action: GroupAction, normal_first: frozenset, normal_second: frozenset
) -> MoritaTriple:
    """Common refinement of two normal quotient models.

    Given Gamma acting on S and normal subgroups N1, N2, the middle
    groupoid is G(S/(N1 n N2), Gamma/(N1 n N2)) and the arrows to
    G(S/N_i, Gamma/N_i) come from the quotient projections.  Both arrows
    are checked against the two equivalence conditions.
    """
    # the per-N quotient cache decides normality; N1 and N2 go through it
    # first, so a refusal names an input rather than their intersection
    action._quotient(normal_first)
    action._quotient(normal_second)
    intersection = frozenset(normal_first) & frozenset(normal_second)
    middle_action, *projections = action._quotient(intersection)
    middle = translation_groupoid(middle_action)
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


# the keys each group and action model kind reads; any other key is refused,
# so a misspelt field cannot fall back to a default
_GROUP_KEYS = {
    "cyclic": {"kind", "n"},
    "dihedral": {"kind", "n"},
    "klein": {"kind"},
    "product": {"kind", "factors"},
}
_ACTION_KEYS = {
    "regular": {"kind"},
    "negation": {"kind", "n"},
    "rotation": {"kind", "n"},
    "table": {"kind", "points", "table"},
}


def _point_count(data: dict, kind: str) -> int:
    """The point count of a negation or rotation model, inside its rail."""
    n = json_int(data["n"], f"{kind} n")
    if n < 1:
        raise InvalidModelError(f"{kind} n must be at least 1, got {n}")
    if n > MAX_ACTION_POINTS:
        raise SizeGuardError(f"{kind} with n = {n} exceeds the groupoid rail (n <= {MAX_ACTION_POINTS})")
    return n


def _guard_order(order: int) -> None:
    if order > MAX_GROUP_ORDER:
        raise SizeGuardError(f"group order {order} exceeds the groupoid rail (order <= {MAX_GROUP_ORDER})")


def group_from_json(data: dict) -> FiniteGroup:
    """The group a JSON model names; no table above MAX_GROUP_ORDER is built."""
    kind = json_kind(data, "group model", _GROUP_KEYS, error=InvalidModelError)
    if kind in ("cyclic", "dihedral"):
        n = json_int(data["n"], f"{kind} n")
        _guard_order(n if kind == "cyclic" else 2 * n)
        return FiniteGroup.cyclic(n) if kind == "cyclic" else FiniteGroup.dihedral(n)
    if kind == "klein":
        return FiniteGroup.klein()
    factors = [group_from_json(f) for f in json_shape(data["factors"], list, "product factors")]
    if len(factors) < 2:
        raise InvalidModelError("product needs at least two factors")
    _guard_order(prod(g.order for g in factors))
    out = factors[0]
    for nxt in factors[1:]:
        out = FiniteGroup.product(out, nxt)
    return out


def group_action_from_json(data: dict, group: FiniteGroup) -> GroupAction:
    """The action a JSON model names; negation and rotation models have at
    most MAX_ACTION_POINTS points."""
    kind = json_kind(data, "action model", _ACTION_KEYS, error=InvalidModelError)
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
        return GroupAction.rotation(group, _point_count(data, kind))
    points = [_freeze(p) for p in json_shape(data["points"], list, "action points")]
    table = {}
    for row in json_shape(data["table"], list, "action table"):
        row = json_shape(row, dict, "action table row", {"g", "x", "y"})
        table[(_freeze(row["g"]), _freeze(row["x"]))] = _freeze(row["y"])
    return GroupAction(group, points, table)


def groupoid_from_json(data: dict) -> FiniteGroupoid:
    """Explicit groupoid tables, as emitted by hand-written CLI inputs.

    Every entry must reach the tables: a wrong JSON shape, an object label
    or morphism id given twice, a compose entry whose g or f names no
    morphism id, a compose pair given twice, and an identities or inverses
    key that names no object or morphism raise InvalidModelError.  A
    composite, identity or inverse that names nothing is an axiom failure."""
    try:
        objects = [_freeze(x) for x in json_shape(data["objects"], list, "objects")]
        morphisms = []
        source, target = {}, {}
        for row in json_shape(data["morphisms"], list, "morphisms"):
            label = _freeze(json_shape(row, dict, "morphism", {"id", "src", "tgt"})["id"])
            morphisms.append(label)
            source[label] = _freeze(row["src"])
            target[label] = _freeze(row["tgt"])
        entries = []
        for i, entry in enumerate(json_shape(data["compose"], list, "compose")):
            if len(json_shape(entry, list, f"compose[{i}]")) != 3:
                raise ValueError(f"compose[{i}] must be a list of 3 labels, got {entry!r}")
            entries.append([_freeze(label) for label in entry])
        identities = json_shape(data["identities"], dict, "identities")
        inverses = json_shape(data["inverses"], dict, "inverses")
        identity = {_freeze(x): _freeze(m) for x, m in identities.items()}
        inverse = {_freeze(m): _freeze(v) for m, v in inverses.items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidModelError(f"malformed groupoid spec: {exc}") from exc
    # a repeated id would keep its last endpoints, and the report count every repeat
    object_index = _label_index(objects, "objects")
    arrows = _label_index(morphisms, "morphism ids")
    compose: dict = {}
    for i, (g, f, h) in enumerate(entries):
        if g not in arrows or f not in arrows:
            raise InvalidModelError(f"compose[{i}] {[g, f, h]!r} names no morphism id for g or f")
        if (g, f) in compose:
            raise InvalidModelError(f"compose[{i}] {[g, f, h]!r} gives the pair {(g, f)!r} a second composite")
        compose[g, f] = h
    if set(identity) != set(objects):
        # JSON object keys are strings; tolerate integer-labeled objects
        coerce = _label_coercion(objects)
        identity = {coerce(key): value for key, value in identity.items()}
    coerce = _label_coercion(morphisms)
    inverse = {coerce(key): value for key, value in inverse.items()}
    for field, keys, labels, kind in (
        ("identities", identity, object_index, "object"),
        ("inverses", inverse, arrows, "morphism id"),
    ):
        stray = [key for key in keys if key not in labels]
        if stray:
            raise InvalidModelError(f"{field} key {stray[0]!r} names no {kind}")
    return FiniteGroupoid(objects, morphisms, source, target, compose, identity, inverse)


def _label_coercion(universe):
    """Map a JSON object key to a label: the key itself when it is one, else
    the first label whose str() is the key, else the key unchanged."""
    labels = set(universe)
    by_text = {}
    for label in universe:
        by_text.setdefault(str(label), label)
    return lambda key: key if key in labels else by_text.get(key, key)

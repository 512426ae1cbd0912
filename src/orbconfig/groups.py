"""Finite groups and their actions on finite sets, on integer indices.

A group is a Cayley table on the indices 0..|G|-1 of its hashable element
labels, with an inverse list, and an action is one permutation list per
group element.  Labels are mapped to indices once, when a group or action
is built, and back only in reports and error messages.  Group
associativity and action compatibility are checked over a generating set
of the group, by the closure argument of Light's test.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence

# A missing entry of a label map, distinct from every label.
_MISSING = object()


class InvalidModelError(ValueError):
    """Input tables do not define a group, action, or groupoid."""


def _label_index(labels: tuple, what: str) -> dict:
    """label -> index, for labels that must be distinct."""
    index = {label: i for i, label in enumerate(labels)}
    if len(index) != len(labels):
        repeated = next(label for i, label in enumerate(labels) if index[label] != i)
        raise InvalidModelError(f"duplicate {what}: {repeated!r}")
    return index


def _associative_at(rows: list, a: int) -> bool:
    """Light's rows at the middle a of a closed Cayley table: (x a) y ==
    x (a y) for every x and y, one list comparison per x."""
    column = rows[a]
    return all(rows[row[a]] == [row[ay] for ay in column] for row in rows)


def _generating_set(rows: list, identity: int) -> list:
    """Indices S such that every index is identity s1 s2 ... sk for some
    s1, ..., sk in S, products read off rows: in index order, each index
    the products have not reached joins S.  Needs a closed table; it need
    not be a group."""
    generators: list = []
    reached = {identity}
    for a in range(len(rows)):
        if a in reached:
            continue
        generators.append(a)
        frontier = list(reached)
        while frontier:
            row = rows[frontier.pop()]
            for s in generators:
                if row[s] not in reached:
                    reached.add(row[s])
                    frontier.append(row[s])
    return generators


# ---------------------------------------------------------------------------
# Finite groups
# ---------------------------------------------------------------------------


class FiniteGroup:
    """A finite group as a Cayley table on the indices 0..|G|-1 of its
    hashable element labels: table[a][b] is the index of a*b and inverse[a]
    that of a^-1."""

    def __init__(self, elements: Sequence, multiply: dict, identity, name: str = "G"):
        elements = tuple(elements)
        index = _label_index(elements, "group elements")
        if identity not in index:
            raise InvalidModelError("identity is not an element")
        rows = [[index.get(multiply.get((a, b), _MISSING)) for b in elements] for a in elements]
        self._init(elements, index, rows, index[identity], name)

    @classmethod
    def _from_table(cls, elements: Sequence, rows: list, identity: int, name: str) -> "FiniteGroup":
        group = cls.__new__(cls)
        elements = tuple(elements)
        group._init(elements, _label_index(elements, "group elements"), rows, identity, name)
        return group

    def _init(self, elements: tuple, index: dict, rows: list, identity: int, name: str) -> None:
        self.elements = elements
        self.index = index
        self.table = rows
        self.identity = elements[identity]
        self._identity = identity
        self.name = name
        self._validate()
        self.inverse = [row.index(identity) for row in rows]

    def _validate(self) -> None:
        rows, e = self.table, self._identity
        for a, row in enumerate(rows):
            if None in row:
                raise InvalidModelError("multiplication table is not closed")
            if rows[e][a] != a or row[e] != a:
                raise InvalidModelError("identity law fails")
            if e not in row:
                raise InvalidModelError(f"{self.elements[a]!r} has no inverse")
        # Light's test: the a with (x a) y == x (a y) for all x and y are
        # closed under products, so checking a over generators decides the law
        self._generators = _generating_set(rows, e)
        if not all(_associative_at(rows, a) for a in self._generators):
            raise InvalidModelError("associativity fails")

    def _generating_set(self) -> list:
        """Indices S whose products give every element (_generating_set on
        the table), found once, when the table is validated."""
        return self._generators

    @property
    def order(self) -> int:
        return len(self.elements)

    def op(self, a, b):
        return self.elements[self.table[self.index[a]][self.index[b]]]

    def inv(self, a):
        return self.elements[self.inverse[self.index[a]]]

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order {self.order})"

    # -- constructions -------------------------------------------------------

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        if n < 1:
            raise InvalidModelError("cyclic order must be >= 1")
        rows = [[(a + b) % n for b in range(n)] for a in range(n)]
        return cls._from_table(range(n), rows, 0, f"C{n}")

    @classmethod
    def klein(cls) -> "FiniteGroup":
        return cls.product(cls.cyclic(2), cls.cyclic(2))

    @classmethod
    def dihedral(cls, n: int) -> "FiniteGroup":
        """Order 2n; elements (k, e) for r^k s^e with s r s = r^{-1}."""
        if n < 1:
            raise InvalidModelError("dihedral parameter must be >= 1")
        elems = [(k, e) for k in range(n) for e in range(2)]
        rows = [
            [2 * ((k1 + (k2 if e1 == 0 else -k2)) % n) + (e1 + e2) % 2 for k2, e2 in elems]
            for k1, e1 in elems
        ]
        return cls._from_table(elems, rows, 0, f"D{n}")

    @classmethod
    def product(cls, g: "FiniteGroup", h: "FiniteGroup") -> "FiniteGroup":
        width = h.order
        elems = [(a, b) for a in g.elements for b in h.elements]
        rows = [
            [ga * width + hb for ga in g_row for hb in h_row]
            for g_row in g.table
            for h_row in h.table
        ]
        return cls._from_table(elems, rows, g._identity * width + h._identity, f"{g.name}x{h.name}")

    # -- subgroup machinery ----------------------------------------------------

    def _closure(self, generators: Iterable[int]) -> set:
        """Indices of the subgroup the generator indices generate: a BFS by
        right multiplication from the identity."""
        rows = self.table
        reached = {self._identity}
        frontier = [self._identity]
        while frontier:
            row = rows[frontier.pop()]
            for s in generators:
                if row[s] not in reached:
                    reached.add(row[s])
                    frontier.append(row[s])
        return reached

    def closure(self, generators: Iterable) -> frozenset:
        members = self._closure([self.index[g] for g in generators])
        return frozenset(self.elements[a] for a in members)

    def subgroups(self) -> tuple[frozenset, ...]:
        """All subgroups generated by at most three elements.

        Complete for every group whose subgroups are 3-generated, which
        covers all the models used here (orders at most 16 without a
        rank-4 elementary abelian subgroup).
        """
        found = {
            frozenset(self._closure(gens))
            for r in range(4)
            for gens in combinations(range(self.order), r)
        }
        labeled = (frozenset(self.elements[a] for a in members) for members in found)
        return tuple(sorted(labeled, key=lambda s: (len(s), sorted(map(repr, s)))))

    def _subgroup_indices(self, subset) -> Optional[set]:
        """The indices of subset when it is a subgroup, else None."""
        if self.identity not in subset or not all(a in self.index for a in subset):
            return None
        members = {self.index[a] for a in subset}
        rows, inverse = self.table, self.inverse
        if all(inverse[a] in members and all(rows[a][b] in members for b in members) for a in members):
            return members
        return None

    def is_normal(self, subset: frozenset) -> bool:
        members = self._subgroup_indices(subset)
        if members is None:
            return False
        rows = self.table
        return all(
            rows[rows[g][h]][inv_g] in members
            for g, inv_g in enumerate(self.inverse)
            for h in members
        )

    def normal_subgroups(self) -> tuple[frozenset, ...]:
        return tuple(s for s in self.subgroups() if self.is_normal(s))

    def _quotient(self, normal) -> tuple["FiniteGroup", list]:
        """(Quotient group with frozenset cosets, the index of each
        element's coset); cosets in order of first appearance."""
        if not self.is_normal(normal):
            raise InvalidModelError(f"{sorted(map(repr, normal))} is not a normal subgroup")
        members = [self.index[n] for n in normal]
        rows = self.table
        coset_of: list = [None] * self.order
        reps, cosets = [], []
        for g, row in enumerate(rows):
            if coset_of[g] is None:
                coset = frozenset(self.elements[row[n]] for n in members)
                for h in coset:
                    coset_of[self.index[h]] = len(reps)
                reps.append(g)
                cosets.append(coset)
        table = [[coset_of[rows[a][b]] for b in reps] for a in reps]
        quotient = FiniteGroup._from_table(
            cosets, table, coset_of[self._identity], f"{self.name}/N{len(normal)}"
        )
        return quotient, coset_of


# ---------------------------------------------------------------------------
# Group actions
# ---------------------------------------------------------------------------


class GroupAction:
    """A left action of a finite group on a finite set: perms[g][x] is the
    index of g.x, for the group's element indices and the point indices."""

    def __init__(self, group: FiniteGroup, points: Sequence, table: dict):
        points = tuple(points)
        index = _label_index(points, "action points")
        perms = [[index.get(table.get((g, x), _MISSING)) for x in points] for g in group.elements]
        self._init(group, points, index, perms)

    @classmethod
    def _from_perms(cls, group: FiniteGroup, points: Sequence, perms: list, index: Optional[dict] = None):
        action = cls.__new__(cls)
        points = tuple(points)
        action._init(group, points, index or _label_index(points, "action points"), perms)
        return action

    def _init(self, group: FiniteGroup, points: tuple, index: dict, perms: list) -> None:
        self.group = group
        self.points = points
        self.index = index
        self.perms = perms
        self._validate()
        # frozenset(N) -> _quotient(N)
        self._quotients: dict = {}

    def _validate(self) -> None:
        n = len(self.points)
        for g, perm in enumerate(self.perms):
            if None in perm:
                raise InvalidModelError("action table is not total")
            if len(set(perm)) != n:
                raise InvalidModelError(f"{self.group.elements[g]!r} does not act bijectively")
        if self.perms[self.group._identity] != list(range(n)):
            raise InvalidModelError("identity does not act trivially")
        # the h with (g h).x == g.(h.x) for all g and x are closed under
        # products, so checking h over generators of the group decides it
        rows = self.group.table
        for h in self.group._generating_set():
            perm_h = self.perms[h]
            for g, perm_g in enumerate(self.perms):
                if self.perms[rows[g][h]] != [perm_g[y] for y in perm_h]:
                    raise InvalidModelError("action is not compatible with multiplication")

    def apply(self, g, x):
        return self.points[self.perms[self.group.index[g]][self.index[x]]]

    @classmethod
    def from_function(cls, group: FiniteGroup, points: Sequence, fn: Callable) -> "GroupAction":
        table = {(g, x): fn(g, x) for g in group.elements for x in points}
        return cls(group, points, table)

    @classmethod
    def regular(cls, group: FiniteGroup) -> "GroupAction":
        return cls._from_perms(group, group.elements, group.table, group.index)

    @classmethod
    def negation_mod(cls, n: int) -> "GroupAction":
        """C2 acting on Z/n by x -> -x."""
        group = FiniteGroup.cyclic(2)
        return cls.from_function(group, range(n), lambda g, x: (-x) % n if g else x)

    @classmethod
    def rotation_mod(cls, n: int, order: int) -> "GroupAction":
        """C_order acting on Z/n by x -> x + (n/order) g; order must divide n."""
        return cls.rotation(FiniteGroup.cyclic(order), n)

    @classmethod
    def rotation(cls, group: FiniteGroup, n: int) -> "GroupAction":
        """A cyclic group acting on Z/n through its own labels: the first
        element c of order |G| adds n/|G|, so c^k adds k n/|G|.  |G| must
        divide n, and a group with no element of order |G| is refused."""
        order, rows, e = group.order, group.table, group._identity
        if n % order:
            raise InvalidModelError("rotation order must divide the point count")
        for c in range(order):
            powers = [e]
            while (p := rows[powers[-1]][c]) != e:
                powers.append(p)
            if len(powers) == order:
                break
        else:
            raise InvalidModelError(
                f"rotation acts through a cyclic group; {group.name} has no element of order {order}"
            )
        shift = [0] * order
        for k, g in enumerate(powers):
            shift[g] = k * (n // order)
        return cls._from_perms(group, range(n), [[(x + s) % n for x in range(n)] for s in shift])

    def restrict_group(self, subgroup: frozenset) -> "GroupAction":
        members = self.group._subgroup_indices(subgroup)
        if members is None:
            raise InvalidModelError("restriction requires a subgroup")
        kept = sorted(members)
        position = {g: i for i, g in enumerate(kept)}
        rows = self.group.table
        sub = FiniteGroup._from_table(
            [self.group.elements[g] for g in kept],
            [[position[rows[a][b]] for b in kept] for a in kept],
            position[self.group._identity],
            f"{self.group.name}|H",
        )
        return GroupAction._from_perms(sub, self.points, [self.perms[g] for g in kept], self.index)

    def _quotient(self, normal) -> tuple["GroupAction", list, list]:
        """(The induced action of group/N on the N-orbits of the points,
        well-defined as N is normal; the index of each point's orbit; the
        index of each element's coset), built once per N, given as a set or
        frozenset, and shared by later calls, so callers must not mutate it."""
        normal = frozenset(normal)
        if normal not in self._quotients:
            quotient, coset_of = self.group._quotient(normal)
            members = [self.group.index[n] for n in normal]
            point_of: list = [None] * len(self.points)
            reps, blocks = [], []
            for x in range(len(self.points)):
                # N is a subgroup, so the block of a point not yet projected is new
                if point_of[x] is None:
                    block = frozenset(self.points[self.perms[n][x]] for n in members)
                    for y in block:
                        point_of[self.index[y]] = len(reps)
                    reps.append(x)
                    blocks.append(block)
            coset_reps: dict = {}
            for g, c in enumerate(coset_of):
                coset_reps.setdefault(c, g)
            perms = [[point_of[self.perms[coset_reps[c]][x]] for x in reps] for c in range(quotient.order)]
            self._quotients[normal] = GroupAction._from_perms(quotient, blocks, perms), point_of, coset_of
        return self._quotients[normal]

"""Hyperplane arrangements over Q and Q(zeta_m), with exact invariants.

Both fields are worked on one form, the only one a spec stores: primitive
integer rows [a | b] over Z[zeta_m], each entry its phi(m) residues, each
row normalized to a positive integer lead.  The hyperplanes as field
elements scaled to a leading one are a read view of those rows, for JSON
output and equation checks.  No float and no field division enters a spec
or any rank or membership decision.  One pair of row operations answers
every exact linear-algebra question, building a spec included:
normalizing makes a row's lead a positive integer, since a lead times its
other Galois conjugates is its norm (Cohen, A Course in Computational
Algebraic Number Theory, 4.3), and elimination is fraction free (Bareiss,
Math. Comp. 1968).  The flat poset applies them to residues (over
Q(zeta_m) it walks the rows reduced to F_p and checks exactly, with them,
only the dependencies that walk asserts), and one reduced echelon form of
all rows gives the common point and the essential rank.
Essentialization is projection onto the pivot columns of the normal
matrix, which keeps each hyperplane's order and signs.

Flats are computed as a breadth-first closure under intersection: each flat
but a point carries the residues of the hyperplanes not containing it, and
the hyperplanes whose residues are proportional cut out one flat together;
a flat is keyed by the bitmask of its members.  The search records which
flats produce each flat; those are its covers, so the Mobius function is a
sum over each interval [V, X] alone (Orlik-Terao, Arrangements of
Hyperplanes, 2.3), and a flat with as many members as its codimension has
a boolean interval, whose value is a sign (Stanley, Enumerative
Combinatorics I, ch. 3).  The poset drives the characteristic and
Poincare polynomials and the chamber counts.  Chambers of rational
arrangements are enumerated by deletion and restriction on the integer
rows: a new hyperplane cuts exactly the chambers whose sign vectors are
realized on it, which is the same enumeration one dimension lower, down to
a line, whose chambers are read off its sorted cut points; so no linear
program runs.  In the plane, each line's restriction is read in one pass
over the rows before it.  A central arrangement is enumerated on an affine
slice, whose chambers are half of its own, by the same restrict-and-lift
step.  Every chamber carries an exact interior witness: the new half of a
cut chamber steps off the witness lifted onto the hyperplane by a step that
an integer gap bound, computed once per hyperplane, keeps inside.
Points over F_q are counted on the essential arrangement: the normals
reduced mod q have rank r and r pivot columns, the complement in F_q^d is
F_q^(d-r) times that of the rows read on those columns in F_q^r, and there
they are counted a plane at a time, from the lines that the hyperplanes
cut on each plane and the points where they meet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, combinations, compress, count, zip_longest
from operator import mul, xor
from typing import Iterable, NamedTuple, Optional, Sequence

from .exactfield import (
    ComplexPoint,
    Cyclotomic,
    _gaussian_images,
    euler_phi,
    format_rational,
    json_int,
    json_kind,
    json_shape,
    norm_cofactor,
    parse_rational,
    residue_product,
)


class NotRealError(ValueError):
    """Operation requires the rational (real) form of the arrangement."""


class CentralityError(ValueError):
    """Operation requires a central arrangement."""


class BadPrimeError(ValueError):
    """The requested prime collides with the arrangement's bad primes."""


class SizeGuardError(ValueError):
    """Input exceeds the documented size rails for this operation."""


# ---------------------------------------------------------------------------
# Scalar fields and arrangement data
# ---------------------------------------------------------------------------


# Largest cyclotomic order m; check_field_rail also caps the hyperplanes
# over Q(zeta_m) at 16 - phi(m) // 2, for the exact walk of the flat poset,
# which runs when every reduction prime is refused.  On a 2-core host that
# walk takes 0.9-5.0 s at the cap for every m; at m = 13 it grows about 1.9x
# per generic affine hyperplane in Q^6 (1.9 s at 9, 14.7 s at 12), and 16
# take 83 s.  See the timed test at that cap, whose certified walk over F_p
# costs about its flat count (0.04-0.35 s).
MAX_FIELD_ORDER = 16

# the keys of an arrangement spec, of each of its hyperplanes and of each
# field type; any other key is refused, so a misspelt optional field cannot
# fall back to its default
_SPEC_KEYS = frozenset({"schema", "dim", "field", "hyperplanes", "label"})
_HYPERPLANE_KEYS = frozenset({"normal", "offset"})
_FIELD_KEYS = {"Q": {"type"}, "cyclotomic": {"type", "m"}}


@dataclass(frozen=True)
class ScalarField:
    """Q, or the cyclotomic field Q(zeta_m) for m >= 3."""

    kind: str  # "Q" | "cyclotomic"
    order: Optional[int] = None

    def __post_init__(self):
        if self.kind == "Q":
            if self.order is not None:
                raise ValueError("rational field takes no order")
        elif self.kind == "cyclotomic":
            if not self.order or self.order < 3:
                # Q(zeta_1) = Q(zeta_2) = Q, whose reports read the real form
                raise ValueError(f'cyclotomic field needs m >= 3, got {self.order!r}; for Q use {{"type": "Q"}}')
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    @property
    def is_rational(self) -> bool:
        return self.kind == "Q"

    @property
    def ring_order(self) -> int:
        """m of the ring Z[zeta_m] that holds the integer rows; 1 (Z) over Q."""
        return 1 if self.is_rational else self.order

    def from_residues(self, nums: Sequence[int], den: int):
        """The element with integer residues nums over the denominator den > 0."""
        if self.is_rational:
            return Fraction(nums[0], den)
        return Cyclotomic(self.order, [Fraction(x, den) for x in nums])

    def zero(self):
        return Fraction(0) if self.is_rational else Cyclotomic.zero(self.order)

    def coerce(self, value):
        if self.is_rational:
            if isinstance(value, Cyclotomic):
                q = value.as_rational()
                if q is None:
                    raise ValueError("cyclotomic value does not lie in Q")
                return q
            return Fraction(value)
        if isinstance(value, Cyclotomic):
            if value.order != self.order:
                raise ValueError("cyclotomic order mismatch")
            return value
        return Cyclotomic.from_rational(self.order, Fraction(value))

    def scalar_to_json(self, value):
        if self.is_rational:
            return format_rational(value)
        return value.to_json()

    def scalar_from_json(self, data, field: str = "scalar"):
        if self.is_rational:
            return parse_rational(data, field)
        return Cyclotomic.from_json(self.order, data, field)

    def to_json(self) -> dict:
        if self.is_rational:
            return {"type": "Q"}
        return {"type": "cyclotomic", "m": self.order}

    @classmethod
    def from_json(cls, data: dict) -> "ScalarField":
        if json_kind(data, "field", _FIELD_KEYS, "type") == "Q":
            return cls("Q")
        return cls("cyclotomic", json_int(data["m"], "field order m"))


QQ = ScalarField("Q")


@dataclass(frozen=True)
class Hyperplane:
    """The affine hyperplane normal . x = offset, scaled so that its first
    nonzero normal coefficient is one: a read view of one of a spec's rows."""

    normal: tuple
    offset: object


@dataclass(frozen=True)
class ArrangementSpec:
    """Pairwise distinct hyperplanes in a fixed dimension, built by make_arrangement.

    Each is one primitive integer row [a | b] over Z[zeta_m], entry j the
    phi(m) residues of the j-th coefficient stored flat (phi = 1 over Q),
    normalized to a positive integer lead: one canonical row per hyperplane.
    """

    dim: int
    field: ScalarField
    rows: tuple[tuple[int, ...], ...]
    label: str = "custom"

    @cached_property
    def hyperplanes(self) -> tuple[Hyperplane, ...]:
        """The rows as field elements over their lead: a read view, for JSON
        output and callers that evaluate equations."""
        phi = euler_phi(self.field.ring_order)
        out = []
        for row in self.rows:
            lead = next(x for x in row if x)
            *normal, offset = (self.field.from_residues(row[k : k + phi], lead) for k in range(0, len(row), phi))
            out.append(Hyperplane(tuple(normal), offset))
        return tuple(out)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "label": self.label,
            "dim": self.dim,
            "field": self.field.to_json(),
            "hyperplanes": [
                {
                    "normal": [self.field.scalar_to_json(a) for a in h.normal],
                    "offset": self.field.scalar_to_json(h.offset),
                }
                for h in self.hyperplanes
            ],
        }

    @cached_property
    def _real_equations(self) -> tuple:
        """Each hyperplane as integer equations in (Re z_1, Im z_1, ...).

        Each entry of a row, an element of Z[zeta_m] (m = 1 over Q), and the
        Gaussian coordinates all live in Q(zeta_L) for L = lcm(m, 4), with
        i = zeta_L^(L/4).  a . z - b is Z-linear in the real coordinates x,
        so each of its power-basis components is one equation
        ``(rhs, ((k, c), ...))`` meaning sum(c * x_k) == rhs in ints, with
        zero coefficients dropped.  A point lies on the hyperplane
        exactly when all of its equations hold.  The columns of Re z_j and
        Im z_j are the residues of a_j and i a_j in Q(zeta_L): integer sums
        over the residues of zeta_m^k and i zeta_m^k, a table cached per
        (m, L) (_gaussian_images).

        The rows of a spec repeat few distinct entries (the m + 1
        coefficients 1 and -zeta_m^k of a rotation arrangement), so each
        distinct entry is embedded once per compile, its nonzero terms are
        built once per coordinate it occupies, and every row's equations are
        joined from them.  Those tables live only while the spec compiles.
        """
        order = self.field.ring_order
        phi = euler_phi(order)
        target = math.lcm(order, 4)
        width = euler_phi(target)
        # the residues of zeta_m^k and i zeta_m^k in Q(zeta_L), k < phi(m)
        images = _gaussian_images(order, target)

        def combine(entry: Sequence[int], part: int) -> list[int]:
            # the residue of sum_k entry[k] zeta_m^k (part 0), or of i times it
            out = [0] * width
            for x, pair in zip(entry, images):
                if x:
                    for r, t in pair[part]:
                        out[r] += x * t
            return out

        # each distinct entry's Re and Im columns, once per spec
        columns: dict[tuple, tuple] = {}

        def columns_of(entry: tuple) -> tuple:
            if entry not in columns:
                columns[entry] = combine(entry, 0), combine(entry, 1)
            return columns[entry]

        # per coordinate j and distinct entry there, its nonzero terms at
        # each residue r, in the columns 2j and 2j + 1 of Re z_j and Im z_j
        terms: dict[tuple, tuple] = {}
        compiled = []
        for row in self.rows:
            parts = []
            for j in range(self.dim):
                entry = row[j * phi : (j + 1) * phi]
                if any(entry):
                    if (j, entry) not in terms:
                        pairs = tuple(zip((2 * j, 2 * j + 1), columns_of(entry)))
                        terms[j, entry] = tuple(tuple((k, c[r]) for k, c in pairs if c[r]) for r in range(width))
                    parts.append(terms[j, entry])
            # at each residue r, the offset's Re column is the rhs, and the
            # terms are those of the nonzero entries in coordinate order
            rhs = columns_of(row[-phi:])[0]
            compiled.append(tuple(zip(rhs, (sum(at_r, ()) for at_r in zip(*parts)))))
        return tuple(compiled)

    @property
    def _rational_rows(self) -> tuple[tuple[int, ...], ...]:
        """rows of a rational spec, for chambers, finite field counts and
        their primes; NotRealError over Q(zeta_m)."""
        if not self.field.is_rational:
            raise NotRealError("finite field counts need integer (rational) coefficients")
        return self.rows

    @cached_property
    def _minor_values(self) -> frozenset[int]:
        """The distinct nonzero |minor| values of the integer system [A | b].

        Computed once per spec, one minor size at a time (_nonzero_minors).
        good_primes and finite_field_count test divisibility only, through
        _minor_product; no minor is factored.
        """
        return frozenset(_nonzero_minors(self._rational_rows))

    @cached_property
    def _minor_product(self) -> int:
        """The product of _minor_values: a prime divides some nonzero minor
        exactly when it divides this product.

        Multiplied pairwise, so that the operands of each level have equal
        size; a running product would cost time quadratic in the number of
        values.
        """
        factors = list(self._minor_values) or [1]
        while len(factors) > 1:
            factors = [math.prod(factors[i : i + 2]) for i in range(0, len(factors), 2)]
        return factors[0]

    @cached_property
    def _echelon(self) -> tuple[tuple[int, tuple], ...]:
        """The reduced echelon form of the integer rows [a | b], as (pivot
        column, row) pairs in column order; computed once per spec for
        common_point and is_simplicial.

        Each row is reduced by the pivot rows so far, normalized at its first
        nonzero entry, and eliminated from them in turn, so every pivot row is
        zero in every other pivot column and positive there.  A pivot in the
        offset column means the hyperplanes share no point; the other pivot
        columns are those of the normal matrix.
        """
        order = self.field.ring_order
        phi = euler_phi(order)
        pivots: dict[int, tuple] = {}
        for row in self.rows:
            for col, pivot_row in pivots.items():
                row = _eliminate(row, pivot_row, col, order, phi)
            lead = next((c for c, x in enumerate(row) if x), None)
            if lead is not None:
                col = lead // phi
                row = _normalize(row, col, order, phi)
                pivots = {c: _eliminate(other, row, col, order, phi) for c, other in pivots.items()}
                pivots[col] = row
        return tuple(sorted(pivots.items()))

    @classmethod
    def from_json(cls, data: dict) -> "ArrangementSpec":
        """A spec from JSON; a wrong shape or an unknown key raises
        ValueError naming its path, such as ``hyperplanes[0] normal``."""
        json_shape(data, dict, "arrangement spec", _SPEC_KEYS)
        field = ScalarField.from_json(data["field"])
        dim = json_int(data["dim"], "dim")
        listed = json_shape(data["hyperplanes"], list, "hyperplanes")
        if not field.is_rational:
            check_field_rail(field.order, len(listed))
        raw = []
        for i, h in enumerate(listed):
            where = f"hyperplanes[{i}]"
            json_shape(h, dict, where, _HYPERPLANE_KEYS)
            normal = json_shape(h["normal"], list, f"{where} normal")
            normal = tuple(field.scalar_from_json(a, f"{where} normal[{j}]") for j, a in enumerate(normal))
            offset = field.scalar_from_json(h["offset"], f"{where} offset") if "offset" in h else field.zero()
            raw.append((normal, offset))
        label = json_shape(data.get("label", "custom"), str, "label")
        return make_arrangement(dim, field, raw, label=label)


def check_field_rail(order: int, hyperplanes: int) -> None:
    """Refuse m = order > MAX_FIELD_ORDER, or more hyperplanes than
    MAX_SIMPLICIAL_HYPERPLANES - phi(m) // 2 over Q(zeta_m) (m = 1 over Q),
    before Phi_m or any element is built."""
    if order > MAX_FIELD_ORDER:
        raise SizeGuardError(f"cyclotomic field order {order} exceeds the rail (m <= {MAX_FIELD_ORDER})")
    cap = MAX_SIMPLICIAL_HYPERPLANES - euler_phi(order) // 2
    if hyperplanes > cap:
        raise SizeGuardError(f"{hyperplanes} hyperplanes over Q(zeta_{order}) exceed the rail (<= {cap})")


def make_arrangement(
    dim: int,
    field: ScalarField,
    raw_hyperplanes: Iterable[tuple],
    label: str = "custom",
) -> ArrangementSpec:
    """A spec from (normal, offset) pairs of field elements or rationals.

    Each pair becomes one primitive integer row, its residues times the lcm
    of their denominators over the gcd, for _spec_from_rows; so rescaled
    duplicates collapse and the input order does not matter.  Over Q an
    int or Fraction entry is read as its numerator and denominator as it
    stands; every other entry goes through field.coerce, whose errors it
    raises.
    """
    if dim < 0:
        raise ValueError("dimension must be nonnegative")
    rational = field.is_rational
    rows = []
    for normal, offset in raw_hyperplanes:
        values = [
            a if rational and isinstance(a, (int, Fraction)) else field.coerce(a) for a in (*normal, offset)
        ]
        if len(values) != dim + 1:
            raise ValueError(f"normal of length {len(values) - 1} in dimension {dim}")
        if not any(values[:-1]):
            raise ValueError("zero normal vector is not a hyperplane")
        entries = [
            (e._n, e._d) if isinstance(e, Cyclotomic) else ((e.numerator,), e.denominator) for e in values
        ]
        lcm = math.lcm(*(d for _, d in entries))
        row = [x * (lcm // d) for nums, d in entries for x in nums]
        g = math.gcd(*row)
        rows.append(tuple([x // g for x in row]))
    return _spec_from_rows(dim, field, rows, label)


def _spec_from_rows(dim: int, field: ScalarField, rows: Iterable[tuple], label: str) -> ArrangementSpec:
    """The spec of primitive integer rows with nonzero normals, each
    normalized at its lead, without duplicates, sorted by the values over the
    lead: the lexicographic order of the hyperplanes scaled to a leading one.

    Each row's lead is found once, and a row whose lead is the lcm of the
    leads is its own sort key, so most keys cost nothing."""
    order = field.ring_order
    phi = euler_phi(order)
    leads: dict[tuple, int] = {}
    for row in rows:
        col = next(c for c, x in enumerate(row) if x) // phi
        row = _normalize(row, col, order, phi)
        leads[row] = row[col * phi]
    # each row over its lead, times the lcm of the leads: exact integer keys
    scale = math.lcm(*leads.values())

    def key(row: tuple) -> tuple:
        lead = leads[row]
        return row if lead == scale else tuple([x * (scale // lead) for x in row])

    return ArrangementSpec(dim, field, tuple(sorted(leads, key=key)), label)


def complement_contains(spec: ArrangementSpec, point: Sequence[ComplexPoint]) -> bool:
    """Exact test that a complex point avoids every hyperplane of the spec.

    Coordinates must be exact Gaussian rationals.  The point lies on a
    hyperplane exactly when it satisfies all of that hyperplane's
    ``_real_equations``, which the spec compiles once to integer rows.  The
    point is read as integer coordinates X over D, the lcm of its
    coordinates' denominators, so each equation is one integer dot product:
    sum(c * X_k) - rhs * D == 0.
    """
    if len(point) != spec.dim:
        raise ValueError(f"point of length {len(point)} in dimension {spec.dim}")
    if any(type(z) is not ComplexPoint for z in point):
        raise ValueError("complement membership is decided on exact points only")
    den = math.lcm(*(z._d for z in point))
    coords = []
    for z in point:
        scale = den // z._d
        coords += (z._a * scale, z._b * scale)
    for equations in spec._real_equations:
        for rhs, terms in equations:
            gap = -rhs * den
            for k, c in terms:
                gap += c * coords[k]
            if gap:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Exact linear algebra over the arrangement's field
# ---------------------------------------------------------------------------


def _scaled(order: int, factor: Sequence[int], row: tuple) -> list[int]:
    """Each entry of the flat row times the residue factor, in Z[zeta_m]."""
    phi = len(factor)
    entries = (row[k : k + phi] for k in range(0, len(row), phi))
    return [x for e in entries for x in (residue_product(order, factor, e) if any(e) else e)]


def _normalize(row: tuple, col: int, order: int, phi: int) -> tuple:
    """The primitive multiple of a primitive row with a positive integer in
    entry col: a lead outside Z first becomes its norm, the row times the
    lead's norm cofactor over the gcd.  Proportional rows give one row.
    phi = euler_phi(order), read once by the caller."""
    start = col * phi
    if phi > 1 and any(row[start + 1 : start + phi]):
        out = _scaled(order, norm_cofactor(order, row[start : start + phi]), row)
        g = math.gcd(*out)
        row = tuple([x // g for x in out])
    return row if row[start] > 0 else tuple([-x for x in row])


def _eliminate(row: tuple, pivot_row: tuple, col: int, order: int, phi: int) -> tuple:
    """p * row - row[col] * pivot_row over the gcd, for p = pivot_row[col]
    a positive integer: primitive and zero in entry col.  A factor row[col]
    in Z scales pivot_row directly, one outside Z entry by entry."""
    start = col * phi
    factor = row[start]
    p = pivot_row[start]
    if phi > 1 and any(row[start + 1 : start + phi]):
        scaled = _scaled(order, row[start : start + phi], pivot_row)
        out = [p * x - y for x, y in zip(row, scaled)]
    elif factor:
        out = [p * x - factor * y for x, y in zip(row, pivot_row)]
    else:
        return row
    g = math.gcd(*out)
    return tuple(out) if g < 2 else tuple([x // g for x in out])


# ---------------------------------------------------------------------------
# Flats, Mobius function, polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Flat:
    """A nonempty intersection of hyperplanes.

    contains lists the indices of every hyperplane containing the flat; the
    ambient space is the flat with an empty index set.
    """

    contains: frozenset[int]
    dim: int
    mobius: int


@dataclass(frozen=True)
class FlatPoset:
    spec: ArrangementSpec
    flats: tuple[Flat, ...]

    @property
    def rank(self) -> int:
        return self.spec.dim - min(f.dim for f in self.flats)

    def count_by_dim(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for f in self.flats:
            out[f.dim] = out.get(f.dim, 0) + 1
        return out

    def to_json(self) -> dict:
        return {
            "flats": [
                {"hyperplanes": sorted(f.contains), "dim": f.dim, "mobius": f.mobius}
                for f in sorted(self.flats, key=lambda f: (-f.dim, sorted(f.contains)))
            ],
            "rank": self.rank,
        }


# flat_poset over Q(zeta_m) tries this many primes p = 1 mod m above the
# floor before its exact walk
_REDUCTION_PRIMES = 3
_REDUCTION_FLOOR = 2**30


@lru_cache(maxsize=None)
def _reduction_primes(order: int) -> tuple[tuple[int, int], ...]:
    """The least _REDUCTION_PRIMES primes p = 1 mod m above 2^30, m = order,
    each with r of order m mod p: r = g^((p - 1) / m) for the least g >= 2
    with r^(m / f) != 1 for every prime f dividing m.  As p does not divide
    m, x^m - 1 has distinct roots mod p, and those of order m are the roots
    of Phi_m; so zeta -> r is a ring map Z[zeta_m] -> F_p."""
    factors = [f for f in range(2, order + 1) if order % f == 0 and _is_prime(f)]
    out = []
    p = _REDUCTION_FLOOR + 1 + -_REDUCTION_FLOOR % order
    while len(out) < _REDUCTION_PRIMES:
        if _is_prime(p):
            g = 2
            while any(pow(g, (p - 1) // f, p) == 1 for f in factors):
                g += 1
            out.append((p, pow(g, (p - 1) // order, p)))
        p += order
    return tuple(out)


def flat_poset(spec: ArrangementSpec) -> FlatPoset:
    """All nonempty intersections, with Mobius values from the top.

    Flats are closed under intersection breadth first, one rank per pass.
    Each flat X of the frontier carries, for every hyperplane not
    containing X, that hyperplane's residue: its row [a | b] with the pivot
    columns of X's echelon form eliminated, stored normalized with its lead
    column.  A residue is never zero, and one that is zero outside the
    offset column marks a hyperplane parallel to X.  H_j contains X cap H
    exactly when H_j's row lies in the span of X's rows and H's, that is,
    when H_j's residue is a multiple of H's: the vectors of that span that
    vanish on X's pivot columns are the multiples of H's residue.  So the
    normalized residues of X fall into classes, one per flat X cap H, and
    each class is the set of hyperplanes that flat adds to X's members.  The
    member set, as a bitmask, is the flat's canonical key.  A new flat's
    residues are X's other residues, but the parallel ones, with the class's
    pivot column eliminated; one that is zero there is carried unchanged.
    A point gets none and leaves the frontier: every hyperplane not
    containing it misses it, so it produces no flat, and its covers are all
    recorded in the pass that finds it, since every flat of a pass has the
    same dimension.  Flats keep the order of their first discovery.

    The walk runs on one of two row arithmetics (_exact_walk, _modular_walk).
    Over Q it runs on the spec's primitive integer rows; a residue is
    normalized to a positive lead, and elimination is fraction free
    (_eliminate), so residues stay primitive and proportional residues
    normalize to one row, their class key.  Over Q(zeta_m) it first runs on
    the rows reduced to F_p by zeta -> r, for a prime p = 1 mod m and r a
    root of Phi_m mod p (_reduction_primes), each residue scaled to a
    leading one.  That reduction is a ring map, so a minor that vanishes
    over Q(zeta_m) vanishes mod p: on the coned rows and the offset vector
    e, rank mod p is at most the rank over Q(zeta_m) for every set of
    vectors, a weak map of matroids (Oxley, Matroid Theory).  So each
    basis the F_p walk finds is independent over Q(zeta_m), its exact span
    holds every row that lies in it, a hyperplane the F_p walk meets is met
    exactly, and the F_p walk is the exact one unless it asserts a
    dependency that does not hold.  A certificate checks each of those
    exactly, with _eliminate and _normalize (_certified): (a) in each flat
    with more members than its codimension, every member outside its F_p
    basis lies in the exact span of that basis, and (b) each hyperplane
    found parallel to a flat has a normal in the exact span of the flat's
    basis normals.  A flat found again from another flat has a basis of the
    same size inside the same exact span.  So when both checks hold, every
    flat has the same members, dimension and covers, in the same order as
    the exact walk, which the F_p walk is then shown to be (von zur Gathen
    and Gerhard, Modern Computer Algebra, ch. 5).  A prime under which a
    normal vanishes, or that fails a check, gives way to the next, and after
    the last the exact walk runs on the integer rows over Z[zeta_m], each
    residue normalized by its lead's norm cofactor.

    Every flat Y that produces X = Y cap H is covered by X, and every cover
    Y of X produces it: take H containing X but not Y.  So the producers of
    X, found again or not, are its covers, and the flats strictly above X
    are its covers and theirs.  mu(ambient) = 1 and mu(X) = -sum of mu(Z)
    over that set, the interval [V, X] alone (Orlik-Terao, Arrangements of
    Hyperplanes, 2.3).  That interval is the lattice of the hyperplanes
    containing X.  When X has exactly codim X of them, their normals are
    independent, so [V, X] is boolean and mu(X) = (-1)^codim X (Stanley,
    Enumerative Combinatorics I, ch. 3), with no sum.  The zero-sum identity
    over each lower interval is a consequence and is exercised by the tests.
    """
    if not spec.field.is_rational:
        for p, r in _reduction_primes(spec.field.order):
            walk = _modular_walk(spec, p, r)
            if walk is not None and _certified(spec, walk):
                return FlatPoset(spec=spec, flats=_flats(walk))
    return FlatPoset(spec=spec, flats=_flats(_exact_walk(spec)))


class _Walk(NamedTuple):
    """The flats of one walk in discovery order: for each, its members, its
    dimension, the flats that produced it, its basis (the hyperplanes whose
    rows were its pivots, in order) and, in parallel, the (flat, hyperplane)
    pairs where a residue was first zero outside the offset column.  The
    walk keys flats by member bitmasks; each member set is built once, when
    its flat is found."""

    members: list[frozenset]
    dims: list[int]
    covers: list[list[int]]
    bases: list[tuple[int, ...]]
    parallel: list[tuple[int, int]]


def _walk(dim: int, residues: dict[int, tuple[int, tuple]], restrict) -> _Walk:
    """The breadth-first walk of flat_poset from the ambient space, whose
    residues are the normalized rows {j: (lead column, row)}.
    restrict(residues, members, col, pivot_row) gives the residues of a new
    flat: those of hyperplanes neither among its members (a bitmask, bit j
    for H_j) nor parallel, with column col eliminated by the normalized
    pivot row."""
    walk = _Walk([frozenset()], [dim], [[]], [()], [])
    members_of, dims, covers, bases = walk.members, walk.dims, walk.covers, walk.bases
    masks = [0]
    frontier = [(0, residues)]
    while frontier:
        next_frontier = []
        found: dict[int, int] = {}
        for source, residues in frontier:
            classes: dict[tuple, tuple[int, list[int]]] = {}
            for j, (col, row) in residues.items():
                if col < dim:
                    classes.setdefault(row, (col, []))[1].append(j)
                else:  # H_j is parallel to X
                    walk.parallel.append((source, j))
            for pivot_row, (col, joined) in classes.items():
                members = masks[source]
                for j in joined:
                    members |= 1 << j
                target = found.get(members)
                if target is not None:
                    covers[target].append(source)
                    continue
                target = found[members] = len(masks)
                masks.append(members)
                members_of.append(members_of[source].union(joined))
                dims.append(dims[source] - 1)
                covers.append([source])
                bases.append(bases[source] + (joined[0],))
                if dims[target]:  # a point meets every other hyperplane in the empty set
                    next_frontier.append((target, restrict(residues, members, col, pivot_row)))
        frontier = next_frontier
    return walk


def _exact_walk(spec: ArrangementSpec) -> _Walk:
    """The walk on the spec's integer rows over Z[zeta_m] (Z over Q)."""
    dim = spec.dim
    order = spec.field.ring_order
    phi = euler_phi(order)

    def restrict(residues, members, col, pivot_row):
        start, stop = col * phi, (col + 1) * phi
        out = {}
        for j, residue in residues.items():
            lead, row = residue
            if lead == dim or members >> j & 1:
                continue
            if row[start] or (phi > 1 and any(row[start + 1 : stop])):
                row = _eliminate(row, pivot_row, col, order, phi)
                if lead == col:  # before col the pivot row is zero, so a lead there stays
                    lead = next(compress(count(), row)) // phi
                    if lead < dim:
                        row = _normalize(row, lead, order, phi)
                residue = lead, row
            out[j] = residue
        return out

    leads = (next(compress(count(), row)) // phi for row in spec.rows)
    return _walk(dim, dict(enumerate(zip(leads, spec.rows))), restrict)


def _modular_walk(spec: ArrangementSpec, p: int, r: int) -> Optional[_Walk]:
    """The walk on the spec's rows reduced to F_p by zeta -> r, for r a root
    of Phi_m mod p (_reduction_primes), each residue scaled to a leading
    one; None when a normal vanishes mod p."""
    dim = spec.dim
    phi = euler_phi(spec.field.order)
    powers = [pow(r, k, p) for k in range(phi)]

    def restrict(residues, members, col, pivot_row):
        out = {}
        for j, residue in residues.items():
            lead, row = residue
            if lead == dim or members >> j & 1:
                continue
            if f := row[col]:
                row = [(x - f * y) % p for x, y in zip(row, pivot_row)]
                if lead == col:  # before col the pivot row is zero, so a lead of one there stays
                    lead = next(compress(count(), row))
                    if lead < dim:
                        inv = pow(row[lead], -1, p)
                        row = [x * inv % p for x in row]
                residue = lead, tuple(row)
            out[j] = residue
        return out

    residues = {}
    for j, row in enumerate(spec.rows):
        reduced = [sum(map(mul, row[k : k + phi], powers)) % p for k in range(0, len(row), phi)]
        lead = next(compress(count(), reduced[:dim]), None)
        if lead is None:
            return None
        inv = pow(reduced[lead], -1, p)
        residues[j] = (lead, tuple([x * inv % p for x in reduced]))
    return _walk(dim, residues, restrict)


def _certified(spec: ArrangementSpec, walk: _Walk) -> bool:
    """Whether the dependencies that a walk over F_p asserts hold over
    Q(zeta_m): checks (a) and (b) of flat_poset, on the integer rows.

    The rows of a basis are reduced in order by the pivots of the rows
    before them and normalized there, an echelon form built once per basis
    prefix; a row lies in the basis's span when it reduces to zero by those
    pivots, and its normal in the span of the basis normals when it reduces
    to zero outside the offset column.
    """
    order = spec.field.ring_order
    phi = euler_phi(order)
    rows, offset = spec.rows, spec.dim * phi
    echelons: dict[tuple, tuple] = {(): ()}

    def residue(j: int, basis: tuple) -> tuple:
        row = rows[j]
        for col, pivot_row in echelon(basis):
            row = _eliminate(row, pivot_row, col, order, phi)
        return row

    def echelon(basis: tuple) -> tuple:
        if basis not in echelons:
            row = residue(basis[-1], basis[:-1])
            col = next(compress(count(), row)) // phi
            echelons[basis] = echelon(basis[:-1]) + ((col, _normalize(row, col, order, phi)),)
        return echelons[basis]

    for members, basis in zip(walk.members, walk.bases):
        if len(members) > len(basis) and any(any(residue(j, basis)) for j in members.difference(basis)):
            return False
    return not any(any(residue(j, walk.bases[flat])[:offset]) for flat, j in walk.parallel)


# bin() digits to the bytes 0 and 1, which itertools.compress reads as selectors
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _flats(walk: _Walk) -> tuple[Flat, ...]:
    """The flats of a walk, with mu(X) = (-1)^codim X when X has exactly
    codim X members, a boolean interval, and otherwise -sum of mu over the
    flats above X: its up-set, a bitset over flat indices, the union of its
    covers' up-sets with the covers themselves."""
    top = walk.dims[0]
    # None marks a flat whose value is a sum, filled in below
    mobius: list[Optional[int]] = [
        (-1 if len(members) & 1 else 1) if len(members) == top - dim else None
        for members, dim in zip(walk.members, walk.dims)
    ]
    closed: list[int] = []
    for index, parents in enumerate(walk.covers):
        up = 0
        for parent in parents:
            up |= closed[parent]
        closed.append(up | 1 << index)
        if mobius[index] is None:
            # the bits of up, least significant first, select the flats above X
            mobius[index] = -sum(compress(mobius, bin(up)[:1:-1].encode().translate(_BIT_BYTES)))
    return tuple(map(Flat, walk.members, walk.dims, mobius))


@dataclass(frozen=True)
class Polynomial:
    """Integer-coefficient polynomial, ascending coefficients."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        trimmed = list(self.coeffs)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        object.__setattr__(self, "coeffs", tuple(trimmed))

    def __call__(self, x):
        total = 0
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(tuple(a - b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not self.coeffs or not other.coeffs:
            return Polynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(tuple(out))

    def to_json(self) -> list[int]:
        return list(self.coeffs)


def characteristic_polynomial(poset: FlatPoset) -> Polynomial:
    """chi(t) = sum over flats of mu(X) t^dim(X)."""
    coeffs = [0] * (poset.spec.dim + 1)
    for f in poset.flats:
        coeffs[f.dim] += f.mobius
    return Polynomial(tuple(coeffs))


def poincare_polynomial(poset: FlatPoset) -> Polynomial:
    """pi(t) = sum over flats of |mu(X)| t^codim(X).

    Cross-checked in place against the substitution (-t)^d chi(-1/t); a
    mismatch would mean a broken Mobius computation and raises.
    """
    d = poset.spec.dim
    coeffs = [0] * (d + 1)
    for f in poset.flats:
        coeffs[d - f.dim] += abs(f.mobius)
    pi = Polynomial(tuple(coeffs))
    chi = characteristic_polynomial(poset)
    substituted = [0] * (d + 1)
    for j, c in enumerate(chi.coeffs):
        substituted[d - j] += c * (-1) ** (d - j)
    if Polynomial(tuple(substituted)) != pi:
        raise ArithmeticError("Poincare polynomial failed the substitution identity")
    return pi


def chamber_count(poset: FlatPoset) -> tuple[int, int]:
    """(total, bounded) chamber counts of the real form, by sign-alternation.

    total = (-1)^d chi(-1).  Zaslavsky's (-1)^rank chi(1) counts the chambers
    bounded along the span of the normals; when rank < d every chamber
    contains a line, so none is bounded in R^d and bounded is 0.  Requires a
    rational arrangement (the real picture is meaningless over a cyclotomic
    field).
    """
    if not poset.spec.field.is_rational:
        raise NotRealError("chamber counts need an arrangement defined over Q")
    chi = characteristic_polynomial(poset)
    d = poset.spec.dim
    total = (-1) ** d * chi(-1)
    bounded = (-1) ** d * chi(1) if poset.rank == d else 0
    return total, bounded


# ---------------------------------------------------------------------------
# Chamber enumeration with exact witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chamber:
    signs: str  # one of "+"/"-" per hyperplane, in spec order
    witness: tuple[Fraction, ...]


class ChamberSet:
    """The chambers of an arrangement, kept as the enumeration returns them:
    {mask: (numerators, denominator)}, where bit i of a mask is the side of
    the arrangement's hyperplane i.  len() and sign_vectors() read the
    masks.  The Chamber tuples, with their Fraction witnesses and sign
    strings, are built on the first read of chambers or in to_json, since
    most callers need the count only."""

    def __init__(self, spec: ArrangementSpec, raw: dict):
        self.spec, self._raw = spec, raw

    def __len__(self):
        return len(self._raw)

    @cached_property
    def chambers(self) -> tuple[Chamber, ...]:
        count = len(self.spec.rows)
        return tuple(
            Chamber(signs=_sign_string(mask, count), witness=tuple(Fraction(x, den) for x in nums))
            for mask, (nums, den) in self._raw.items()
        )

    def sign_vectors(self) -> frozenset[str]:
        count = len(self.spec.rows)
        return frozenset(_sign_string(mask, count) for mask in self._raw)

    def to_json(self) -> dict:
        return {
            "count": len(self),
            "chambers": [
                {"signs": c.signs, "witness": [format_rational(x) for x in c.witness]}
                for c in sorted(self.chambers, key=lambda c: c.signs)
            ],
        }


def _reduced(nums: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    g = math.gcd(den, *nums)
    return (tuple(nums), den) if g == 1 else (tuple([x // g for x in nums]), den // g)


def _restrict(
    row: Sequence[int], others: Sequence[Sequence[int]], dim: int
) -> dict[int, tuple[tuple[int, ...], int]]:
    """Chambers of the rows others on the hyperplane of row, each witness
    a point on that hyperplane.

    Each other row loses x_p, for p the first nonzero entry of row's
    normal: the elimination clears it with row normalized to a positive
    entry there, which leaves a positive multiple of the other row on the
    hyperplane, so every point of it keeps its sign.  The traces are
    enumerated one dimension lower, and x_p is solved back from row.
    """
    p = next(j for j, a in enumerate(row[:-1]) if a)
    onto = _normalize(row, p, 1, 1)
    *rest, b = onto[:p] + onto[p + 1 :]
    ap = onto[p]
    traces = [_eliminate(other, onto, p, 1, 1) for other in others]
    on_h = _enumerate_chambers([t[:p] + t[p + 1 :] for t in traces], dim - 1)
    lifted = {}
    for m, (ys, dy) in on_h.items():
        nums = [ap * y for y in ys]
        nums.insert(p, b * dy - sum(map(mul, rest, ys)))
        lifted[m] = _reduced(nums, ap * dy)
    return lifted


def _enumerate_chambers(rows: Sequence[Sequence[int]], dim: int) -> dict[int, tuple[tuple[int, ...], int]]:
    """Chambers of the integer rows (a | b), by deletion and restriction.

    Returns {mask: (numerators, denominator)}: bit i of mask is set when
    a_i . x > b_i on the chamber, and the numerators over the positive
    denominator are a point strictly inside it.  Row k cuts the
    chamber of rows 0..k-1 with mask m exactly when m is realized on the
    hyperplane a_k . x = b_k, which is the same enumeration one dimension
    lower (_restrict).  There, a row that vanishes keeps the constant sign
    of -b, and a row that vanishes with its offset leaves no chamber.

    The half of a cut chamber that holds its old witness keeps it; the
    other half steps off the witness P / D found on row k's hyperplane, to
    (S P +- a_k) / (S D) with S = 2 max(1, max_i |a_i . a_k|) over the
    earlier rows.  P and D > 0 are integers, however the lower level chose
    them, so a_i . P - b_i D is a nonzero integer: a_i . x - b_i is at
    least 1 / D away from zero at P / D, and the step moves it by
    a_i . a_k / (S D), at most 1 / (2 D).  So the new point keeps every
    earlier sign, and a_k . x - b_k = +-|a_k|^2 / (S D) puts it strictly on
    its side of row k.

    Dimension 1 is solved directly (_line_chambers), and dimension 2 reads
    each row's restriction in one pass (_plane_chambers).  Central rows
    (every offset 0) in dimension 2 or more take their chambers from the
    affine slice a_0 . x = 1 instead (_cone_chambers), which has half as
    many.
    """
    if any(not any(row) for row in rows):
        return {}
    if dim == 1:
        return _line_chambers(rows)
    if rows and dim > 1 and not any(row[-1] for row in rows):
        return _cone_chambers(rows, dim)
    if dim == 2:
        return _plane_chambers(rows)
    cells = {0: ((0,) * dim, 1)}
    for k, row in enumerate(rows):
        bit = 1 << k
        *normal, b = row
        if not any(normal):
            if b < 0:
                cells = {m | bit: w for m, w in cells.items()}
            continue
        earlier = rows[:k]
        on_h = _restrict(row, earlier, dim)
        s = 2 * max(1, max((abs(sum(map(mul, other, normal))) for other in earlier), default=0))
        updated = {}
        for m, witness in cells.items():
            nums, den = witness
            gap = sum(map(mul, normal, nums)) - b * den
            lifted = on_h.get(m)
            if lifted is None:  # the chamber lies on one side of row k
                updated[m | bit if gap > 0 else m] = witness
                continue
            ps, d = lifted
            updated[m | bit] = (
                witness if gap > 0 else _reduced([s * x + a for x, a in zip(ps, normal)], s * d)
            )
            updated[m] = witness if gap < 0 else _reduced([s * x - a for x, a in zip(ps, normal)], s * d)
        cells = updated
    return cells


def _plane_chambers(rows: Sequence[Sequence[int]]) -> dict[int, tuple[tuple[int, ...], int]]:
    """The deletion and restriction of _enumerate_chambers on rows
    (a_1, a_2 | b) in the plane, each row's restriction read in one pass.

    Row k, normalized to a positive a_p at its first nonzero normal entry
    p, restricts each earlier row (c_1, c_2 | e) to its line as _restrict
    does: a row with c_p = 0 keeps (c_o | e), for o the other column, and
    any other becomes (a_p c_o - c_p a_o | a_p e - c_p b) over the gcd, the
    trace that _eliminate leaves.  _line_chambers reads the traces in the
    coordinate x_o, unless one vanishes, which leaves no chamber, and x_p =
    (b - a_o x_o) / a_p lifts each witness back.  So the rows, the
    witnesses and the masks are those of the general step.
    """
    cells = {0: ((0, 0), 1)}
    for k, row in enumerate(rows):
        bit = 1 << k
        a1, a2, b = row
        if not (a1 or a2):
            if b < 0:
                cells = {m | bit: w for m, w in cells.items()}
            continue
        p, o = (0, 1) if a1 else (1, 0)
        sign = 1 if row[p] > 0 else -1
        ap, ao, bp = sign * row[p], sign * row[o], sign * b
        traces = []
        s = 1
        for other in rows[:k]:
            s = max(s, abs(other[0] * a1 + other[1] * a2))
            cp, co, e = other[p], other[o], other[2]
            if cp:
                co, e = ap * co - cp * ao, ap * e - cp * bp
                g = math.gcd(co, e)
                if g > 1:
                    co, e = co // g, e // g
            traces.append((co, e))
        on_h = {}
        if (0, 0) not in traces:
            for m, ((y,), dy) in _line_chambers(traces).items():
                point = [0, 0]
                point[p], point[o] = bp * dy - ao * y, ap * y
                on_h[m] = _reduced(point, ap * dy)
        s *= 2
        updated = {}
        for m, witness in cells.items():
            (x1, x2), den = witness
            gap = a1 * x1 + a2 * x2 - b * den
            lifted = on_h.get(m)
            if lifted is None:  # the chamber lies on one side of row k
                updated[m | bit if gap > 0 else m] = witness
                continue
            (p1, p2), d = lifted
            updated[m | bit] = witness if gap > 0 else _reduced([s * p1 + a1, s * p2 + a2], s * d)
            updated[m] = witness if gap < 0 else _reduced([s * p1 - a1, s * p2 - a2], s * d)
        cells = updated
    return cells


def _line_chambers(rows: Sequence[Sequence[int]]) -> dict[int, tuple[tuple[int, ...], int]]:
    """Chambers of the rows (a, b) on a line, for _enumerate_chambers.

    Row i cuts the line at b_i / a_i = c_i / L, for L the lcm of the
    nonzero a and c_i an integer.  The chambers are the open intervals
    between the distinct sorted cut points, and beyond the end ones, with
    the witnesses (c + c') / (2 L) between neighbours c < c', and
    (c - 1) / L and (c + 1) / L beyond the first and the last; 0 when
    nothing cuts.  Left of every cut a . x > b holds when a < 0, or when
    a = 0 and b < 0; crossing a cut point flips the rows that cut there.
    """
    lcm = math.lcm(*(a for a, _ in rows if a))
    flips: dict[int, int] = {}
    mask = 0
    for i, (a, b) in enumerate(rows):
        if a:
            cut = b * (lcm // a)
            flips[cut] = flips.get(cut, 0) | 1 << i
        if a < 0 or (not a and b < 0):
            mask |= 1 << i
    cuts = sorted(flips)
    if not cuts:
        witnesses = [(0, 1)]
    else:
        middles = [(c + d, 2 * lcm) for c, d in zip(cuts, cuts[1:])]
        witnesses = [(cuts[0] - 1, lcm), *middles, (cuts[-1] + 1, lcm)]
    masks = accumulate(map(flips.__getitem__, cuts), xor, initial=mask)
    return {m: _reduced((p,), d) for m, (p, d) in zip(masks, witnesses)}


def _cone_chambers(
    rows: Sequence[Sequence[int]], dim: int
) -> dict[int, tuple[tuple[int, ...], int]]:
    """Chambers of central rows with nonzero normals, from the affine slice
    a_0 . x = 1 of row 0 (decone and cone: Orlik-Terao, Arrangements of
    Hyperplanes, 1.6).

    Every chamber is a cone on one side of row 0.  Those on its positive
    side meet the slice in the chambers of rows 1.. there, found by the
    restriction step deletion and restriction uses (_restrict).  A slice
    chamber with mask m lifts to mask m << 1 | 1 with its witness on the
    slice, and its negative, the complement mask with the witness negated,
    is the chamber opposite.
    """
    full = (1 << len(rows)) - 1
    cells = {}
    for m, (nums, den) in _restrict((*rows[0][:-1], 1), rows[1:], dim).items():
        mask = m << 1 | 1
        cells[mask] = (nums, den)
        cells[full ^ mask] = (tuple([-x for x in nums]), den)
    return cells


def _sign_string(mask: int, count: int) -> str:
    return "".join("+" if mask >> i & 1 else "-" for i in range(count))


def enumerate_chambers(spec: ArrangementSpec) -> ChamberSet:
    """All chambers of a rational arrangement, with exact interior witnesses.

    A central arrangement in dimension 2 or more is enumerated on its
    affine slice, one dimension lower, and each chamber found there gives
    two: itself and its negative.
    Guard rails: dimension <= MAX_SIMPLICIAL_DIM and at most
    MAX_SIMPLICIAL_HYPERPLANES hyperplanes, the rails of is_simplicial,
    which runs the same enumeration.
    """
    if not spec.field.is_rational:
        raise NotRealError("chamber enumeration needs an arrangement defined over Q")
    if spec.dim > MAX_SIMPLICIAL_DIM or len(spec.rows) > MAX_SIMPLICIAL_HYPERPLANES:
        raise SizeGuardError(
            f"chamber enumeration capped at dim {MAX_SIMPLICIAL_DIM} and "
            f"{MAX_SIMPLICIAL_HYPERPLANES} hyperplanes"
        )
    return ChamberSet(spec, _enumerate_chambers(spec._rational_rows, spec.dim))


# ---------------------------------------------------------------------------
# Centrality and simpliciality
# ---------------------------------------------------------------------------


def common_point(spec: ArrangementSpec) -> Optional[list]:
    """A point on every hyperplane, or None when the hyperplanes share none.

    Read off the reduced echelon form of the integer rows [a | b], with
    every free coordinate zero: a pivot row with the positive integer p in
    column col puts its offset over p at coordinate col.
    """
    field = spec.field
    phi = euler_phi(field.ring_order)
    point = [field.zero()] * spec.dim
    for col, row in spec._echelon:
        if col == spec.dim:
            return None
        point[col] = field.from_residues(row[-phi:], row[col * phi])
    return point


MAX_SIMPLICIAL_DIM = 6
MAX_SIMPLICIAL_HYPERPLANES = 16


@dataclass(frozen=True)
class SimplicialityReport:
    simplicial: bool
    rank: int
    chamber_count: int
    wall_counts: tuple[int, ...]

    def __bool__(self) -> bool:
        return self.simplicial

    def to_json(self) -> dict:
        return {
            "simplicial": self.simplicial,
            "rank": self.rank,
            "chambers": self.chamber_count,
            "wall_counts": list(self.wall_counts),
        }


def is_simplicial(spec: ArrangementSpec) -> SimplicialityReport:
    """Whether every chamber of the essential arrangement is simplicial.

    The essential arrangement is read off the echelon form that decides
    centrality.  Let P be the pivot columns of the normal matrix, so rank =
    |P|, and b_k the normal of the reduced row with pivot p_k, scaled to
    one there.  A normal a is the combination sum of a[p_k] b_k, so in the
    coordinates y_k = b_k . (x - center) of the quotient by the common
    intersection, a . x - offset = sum of a[p_k] y_k: the projected row
    [a[P] | 0] has the same sign as the hyperplane's row at every point.  A normal's first nonzero entry
    lies in a pivot column, and two distinct normals first differ in a
    pivot column, so the projected hyperplanes keep the spec's order and
    orientation under a spec's normalization and sort.  The sign
    strings, and the order of wall_counts, are those of the essential spec.

    A chamber is simplicial when it has exactly rank walls with linearly
    independent normals.  Walls are read off the full chamber list: the i-th
    hyperplane bounds a chamber exactly when flipping the i-th bit of its
    sign vector yields another realizable chamber.

    Independence needs no check.  Let v lie in the kernel of every wall
    normal of a chamber C of an essential central arrangement.  C is cut
    out by its walls alone, so x + t v lies in C for every x in C and every
    real t; then v lies in every hyperplane, and v = 0.  So the wall normals
    of every chamber span R^rank, every chamber has at least rank walls, and
    exactly rank walls are independent.  wall_counts lists the chambers in
    sorted sign-string order, sorted without building the strings: the
    complement mask written in binary and reversed has a 0 for each "+"
    and a 1 for each "-", and "+" < "-" as 0 < 1.

    Guard rails: at most MAX_SIMPLICIAL_HYPERPLANES hyperplanes and rank at
    most MAX_SIMPLICIAL_DIM, the CLI's arrangement rails.
    """
    if not spec.field.is_rational:
        raise NotRealError("simpliciality is checked on the rational real form")
    if len(spec.rows) > MAX_SIMPLICIAL_HYPERPLANES:
        raise SizeGuardError(
            f"simpliciality capped at {MAX_SIMPLICIAL_HYPERPLANES} hyperplanes"
        )
    pivots = [col for col, _ in spec._echelon]
    if spec.dim in pivots:
        raise CentralityError("simpliciality requires a central arrangement")
    rank = len(pivots)
    if rank > MAX_SIMPLICIAL_DIM:
        raise SizeGuardError(f"simpliciality capped at rank {MAX_SIMPLICIAL_DIM}")
    essential = [[row[p] for p in pivots] + [0] for row in spec._rational_rows]
    raw = _enumerate_chambers(essential, rank)
    count = len(spec.rows)
    bits = [1 << i for i in range(count)]
    full = (1 << count) - 1
    wall_counts = tuple(
        sum(map(raw.__contains__, map(mask.__xor__, bits)))
        for mask in sorted(raw, key=lambda mask: format(full ^ mask, f"0{count}b")[::-1])
    )
    return SimplicialityReport(
        simplicial=all(walls == rank for walls in wall_counts),
        rank=rank,
        chamber_count=len(raw),
        wall_counts=wall_counts,
    )


# ---------------------------------------------------------------------------
# Finite field point counts
# ---------------------------------------------------------------------------

MAX_FIELD_POINTS = 2_000_000


def _nonzero_minors(rows: Sequence[Sequence[int]]) -> set[int]:
    """The distinct nonzero |minor| values of an integer matrix.

    Every square minor is computed once, one size at a time.  The k x k
    minor on rows R and columns C is the Laplace expansion along row R[0]:
    the sum over j of (-1)^j rows[R[0]][C[j]] times the (k-1) x (k-1) minor
    on rows R[1:] and columns C without C[j], read from the previous size.
    A size maps each row set to its minors, one per column set in
    combinations order, and only two sizes are kept at once.  A k x k minor
    costs at most k products, against k! for expanding it on its own.
    """
    ncols = len(rows[0]) if rows else 0
    values: set[int] = set()
    below: dict[tuple, list[int]] = {(): [1]}  # the empty minor
    index = {(): 0}
    for size in range(1, min(len(rows), ncols) + 1):
        col_sets = list(combinations(range(ncols), size))
        # each column set's expansion: (column, sign, index of the columns left)
        terms = [
            [(c, -1 if j % 2 else 1, index[cols[:j] + cols[j + 1 :]]) for j, c in enumerate(cols)]
            for cols in col_sets
        ]
        index = {cols: i for i, cols in enumerate(col_sets)}
        level: dict[tuple, list[int]] = {}
        for first in range(len(rows) - size + 1):
            row = rows[first]
            # the expansion along this row, with its zero entries dropped
            weighted = [[(sign * row[c], i) for c, sign, i in t if row[c]] for t in terms]
            for rest in combinations(range(first + 1, len(rows)), size - 1):
                minors_below = below[rest]
                minors = []
                for t in weighted:
                    total = 0
                    for a, i in t:
                        total += a * minors_below[i]
                    minors.append(total)
                level[(first,) + rest] = minors
                values.update(minors)
        below = level
    values = set(map(abs, values))
    values.discard(0)
    return values


# the first twelve primes, the bases of _is_prime, and the bound below which
# they decide primality (Sorenson and Webster, Math. Comp. 86, 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_BOUND = 318_665_857_834_031_151_167_461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over _PRIME_BASES, exact below _PRIME_BOUND.

    The bases are first tried as factors, up to the square root of n, so a
    number below 37^2 is decided by trial division alone.  Any other number
    past the bound raises SizeGuardError: such a prime is never countable
    under MAX_FIELD_POINTS.
    """
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if b * b > n:
            return True
        if n % b == 0:
            return False
    if n >= _PRIME_BOUND:
        raise SizeGuardError(f"primality of {n} is decided below {_PRIME_BOUND} only")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def good_primes(spec: ArrangementSpec, count: int = 2) -> list[int]:
    """The smallest admissible primes for finite_field_count.

    Candidates run upward from the largest coefficient magnitude, each
    tested by _is_prime, and a prime is bad when it divides the product of
    the distinct nonzero minors; nothing is factored.  The minor table is
    the exponential part: at the CLI's largest shape, 16 hyperplanes in
    Q^6, it holds about 245,000 minors, and the timed test of that shape
    bounds this call.
    """
    rows = spec._rational_rows
    floor = max((abs(v) for row in rows for v in row), default=1)
    out: list[int] = []
    q = floor
    while len(out) < count:
        q += 1
        if _is_prime(q) and spec._minor_product % q:
            out.append(q)
    return out


def _pivot_columns_mod(rows: Sequence[Sequence[int]], dim: int, q: int) -> list[int]:
    """Pivot columns of the normal matrix of the rows reduced mod the prime
    q, in increasing order: columns that form a basis of its column space.

    Each row is cleared at the pivots found so far, in the order found, by
    subtracting its entry there over the pivot entry times the pivot's row;
    each pivot row is zero mod q at the pivots found before it, so a later
    clearing keeps the earlier zeros.  The first entry left nonzero mod q,
    if any, is a new pivot, and the scan stops once every column is one.
    """
    basis: list[tuple[int, int, Sequence[int]]] = []  # (column, inverse of the entry there, row)
    for row in rows:
        v = row[:dim]
        for col, inv, pivot_row in basis:
            if f := v[col] * inv % q:
                v = [(x - f * y) % q for x, y in zip(v, pivot_row)]
        for col, x in enumerate(v):
            if x % q:
                basis.append((col, pow(x, -1, q), v))
                if len(basis) == dim:
                    return list(range(dim))
                break
    return sorted(col for col, _, _ in basis)


def finite_field_count(spec: ArrangementSpec, q: int) -> int:
    """Points of F_q^d avoiding every hyperplane, counted on the essential
    arrangement a plane at a time.

    Requires a prime q larger than every coefficient magnitude, with q^d at
    most MAX_FIELD_POINTS, that divides no nonzero minor of [A | b].  The
    size cap is checked first, so a refused count never tests q for
    primality or builds the spec's minor table.

    Let P be r pivot columns of the normal matrix A mod q (_pivot_columns_mod).
    Its columns P are a basis of its column space, so A = A_P C for an r x d
    matrix C with the identity on the columns P, and y = C x maps F_q^d onto
    F_q^r with q^(d-r) points over each y.  A point x avoids a row exactly
    when y avoids the row read on P, (a_P | b): the count is q^(d-r) times
    the count of those rows in F_q^r (Orlik-Terao, Arrangements of
    Hyperplanes, ch. 1-2).  This is linear algebra mod q alone, which holds for
    every q, and shares nothing with flat_poset.  It saves planes from
    d = 3 on, so only there are the pivots found; below, r stands for d.

    Rank 0 leaves F_q^r a point.  For r = 1 each row a y = b excludes the
    one residue b / a.  Otherwise an odometer walks F_q^(r-2), the first
    r - 2 coordinates y', and each step of coordinate i adds a step to
    every row's tracked value, a wrap included.  On the plane over y', a
    row with (a_(r-1), a_r) = 0 is the constant a' . y' - b, which excludes
    the whole plane when it is 0 mod q and nothing otherwise.  Every other
    row is a line, scaled to a leading one in (a_(r-1), a_r): rows with one
    scaled direction are parallel, and they coincide when their tracked
    right sides (b - a' . y') / lead agree.  Two lines of different
    directions meet in one point, solved with the inverse determinant of
    their directions, computed once per pair.  With L distinct lines and
    m_p lines through each point p met by two or more, the lines cover
    q L - sum of (m_p - 1) points, and a point met by m_p lines is found
    by C(m_p, 2) pairs.  This is the finite-field method of Athanasiadis
    (Adv. Math. 122, 1996) on one plane: q^(r-2) planes of O(n^2) work for
    n rows, while the size cap still reads q^d.
    """
    rows = spec._rational_rows
    if q ** spec.dim > MAX_FIELD_POINTS:
        raise SizeGuardError(f"{q}^{spec.dim} exceeds the enumeration cap")
    if not _is_prime(q):
        raise ValueError(f"{q} is not prime")
    if any(abs(v) >= q for row in rows for v in row):
        raise BadPrimeError(f"q = {q} does not exceed all coefficient magnitudes")
    if spec._minor_product % q == 0:
        raise BadPrimeError(f"q = {q} is a bad prime for this arrangement")
    dim, free = spec.dim, 1
    if dim > 2:  # below, the walk is one plane at most, whatever the rank
        pivots = _pivot_columns_mod(rows, dim, q)
        if len(pivots) < dim:
            free = q ** (dim - len(pivots))
            rows = [[row[c] for c in pivots] + [row[-1]] for row in rows]
            dim = len(pivots)
    if dim == 0:
        return free  # no hyperplane: a hyperplane needs a nonzero normal
    if dim == 1:
        return free * (q - len({b * pow(a, -1, q) % q for a, b in rows}))
    u, v = dim - 2, dim - 1
    flat = [row for row in rows if not (row[u] or row[v])]
    # each line's direction (1, a_r / a_(r-1)) or (0, 1), and its rows
    by_direction: dict[tuple[int, int], list[tuple]] = {}
    for row in rows:
        if row[u] or row[v]:
            lead = row[u] or row[v]
            inv = pow(lead, -1, q)
            direction = (row[u] * inv % q, row[v] * inv % q)
            by_direction.setdefault(direction, []).append((row, inv))
    directions = list(by_direction)
    lines = [line for group in by_direction.values() for line in group]
    ends = list(accumulate(map(len, by_direction.values())))
    spans = list(zip([0] + ends, ends))
    # for lines s u + t v = c and s' u + t' v = c' with D = s t' - s' t:
    # u = (t' c - t c') / D and v = (s c' - s' c) / D
    meets = []
    for i, j in combinations(range(len(directions)), 2):
        (s, t), (s2, t2) = directions[i], directions[j]
        inv = pow(s * t2 - s2 * t, -1, q)
        meets.append((i, j, t2 * inv % q, -t * inv % q, -s2 * inv % q, s * inv % q))
    # a point met by m lines is found by C(m, 2) pairs, and adds m - 1
    extra = {m * (m - 1) // 2: m - 1 for m in range(2, len(lines) + 1)}
    # right sides (b - a' . y') / lead of the lines and a' . y' - b of the
    # constant rows, both at y' = 0
    line_vals = [row[dim] * inv % q for row, inv in lines]
    flat_vals = [-row[dim] % q for row in flat]
    line_steps = [[-row[i] * inv % q for row, inv in lines] for i in range(u)]
    flat_steps = [[row[i] % q for row in flat] for i in range(u)]
    plane = q * q
    digits = [0] * u
    count = 0
    while True:
        if all(flat_vals):
            sides = [set(line_vals[a:b]) for a, b in spans]
            pairs: dict[int, int] = {}
            for i, j, cu, cu2, cv, cv2 in meets:
                for c in sides[i]:
                    for c2 in sides[j]:
                        point = (cu * c + cu2 * c2) % q * q + (cv * c + cv2 * c2) % q
                        pairs[point] = pairs.get(point, 0) + 1
            count += plane - q * sum(map(len, sides)) + sum(extra[k] for k in pairs.values())
        for i in range(u):
            line_vals = [(x + s) % q for x, s in zip(line_vals, line_steps[i])]
            flat_vals = [(x + s) % q for x, s in zip(flat_vals, flat_steps[i])]
            digits[i] += 1
            if digits[i] < q:
                break
            digits[i] = 0
        else:
            return free * count

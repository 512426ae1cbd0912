"""Per-layer measurement for the traced run.

``Tracer.install`` wraps public orbconfig functions and rebinds every name
that refers to them in every orbconfig module, so calls between modules are
traced too.  Each call records a span (name, start, end, parent) in memory;
a span's self time is its duration minus the durations of its child spans.
Counters read the arguments and results at the same boundaries.  Untraced
runs never call ``install``.
"""

from __future__ import annotations

import functools
import math
import random
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction

perf_counter = time.perf_counter


def _flats(counts, result, spec):
    counts["arrangement.flats"] += len(result.flats)


def _chambers(counts, result, spec):
    counts["arrangement.chambers"] += len(result)


def _field_points(counts, result, spec, q):
    counts["arrangement.field_points"] += q**spec.dim


def _cover_report(counts, result, *args, **kw):
    counts["covering.fiber_points"] += sum(size * count for size, count in result.fiber_sizes)
    counts["covering.samples_used"] += result.used
    counts["covering.samples_drawn"] += result.samples


def _groupoid_pairs(counts, result, groupoid):
    incoming = Counter(groupoid.target.get(m) for m in groupoid.morphisms)
    outgoing = Counter(groupoid.source.get(m) for m in groupoid.morphisms)
    counts["groupoid.morphism_pairs"] += len(groupoid.morphisms) ** 2
    counts["groupoid.composable_pairs"] += sum(incoming[x] * outgoing[x] for x in outgoing)


# (module, attribute path, span name, counter hook).  Spans that are not
# reported as metrics still take their time out of their callers' self time,
# cli.main's in particular.
SPANS = (
    ("arrangement", "make_arrangement", "arrangement.make_arrangement", None),
    ("arrangement", "flat_poset", "arrangement.flat_poset", _flats),
    ("arrangement", "characteristic_polynomial", "arrangement.characteristic_polynomial", None),
    ("arrangement", "poincare_polynomial", "arrangement.poincare_polynomial", None),
    ("arrangement", "chamber_count", "arrangement.chamber_count", None),
    ("arrangement", "enumerate_chambers", "arrangement.enumerate_chambers", _chambers),
    ("arrangement", "common_point", "arrangement.common_point", None),
    ("arrangement", "is_simplicial", "arrangement.is_simplicial", None),
    ("arrangement", "good_primes", "arrangement.good_primes", None),
    ("arrangement", "finite_field_count", "arrangement.finite_field_count", _field_points),
    ("arrangement", "complement_contains", "arrangement.complement_contains", None),
    ("arrangement", "ArrangementSpec.from_json", "arrangement.spec_from_json", None),
    ("orbit_config", "braid_arrangement", "orbit_config.braid_arrangement", None),
    ("orbit_config", "rotation_arrangement", "orbit_config.rotation_arrangement", None),
    ("orbit_config", "sign_flip_arrangement", "orbit_config.sign_flip_arrangement", None),
    ("orbit_config", "is_orbit_config", "orbit_config.is_orbit_config", None),
    ("orbit_config", "sample_orbit_config", "orbit_config.sample_orbit_config", None),
    ("covering", "power_difference_map", "covering.power_difference_map", None),
    ("covering", "verify_cover", "covering.verify_cover", _cover_report),
    ("groupoid", "FiniteGroupoid.verify_axioms", "groupoid.verify_axioms", _groupoid_pairs),
    ("groupoid", "GroupoidHom.verify", "groupoid.hom_verify", None),
    ("groupoid", "translation_groupoid", "groupoid.translation_groupoid", None),
    ("groupoid", "configuration_groupoid", "groupoid.configuration_groupoid", None),
    ("groupoid", "subgroup_covering_hom", "groupoid.subgroup_covering_hom", None),
    ("groupoid", "morita_triple", "groupoid.morita_triple", None),
    ("groupoid", "is_equivalence", "groupoid.is_equivalence", None),
    ("groupoid", "is_covering_hom", "groupoid.is_covering_hom", None),
    ("groupoid", "groupoid_from_json", "groupoid.groupoid_from_json", None),
    ("cli", "main", "cli.main", None),
)
# scalar methods that are only counted: a span each would cost more than
# the multiplication it times
COUNTED = (("exactfield", "Cyclotomic", ("__mul__", "__rmul__"), "exactfield.cyclotomic_mul.calls"),)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._undo: list[tuple] = []

    def _span(self, name: str, fn, hook):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            if hook is not None:
                hook(counts, result, *args, **kwargs)
            return result

        return traced

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [mod for name, mod in sys.modules.items() if name.startswith("orbconfig.")]
        for module_name, path, name, hook in SPANS:
            owner = sys.modules[f"orbconfig.{module_name}"]
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._span(name, original.__func__, hook))
                self._set(owner, attr, wrapped)
                continue
            wrapped = self._span(name, original, hook)
            if parents:
                self._set(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapped)
        for module_name, cls_name, attrs, key in COUNTED:
            cls = getattr(sys.modules[f"orbconfig.{module_name}"], cls_name)
            for attr in attrs:
                self._set(cls, attr, self._counted(key, cls.__dict__[attr]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def self_times(self, first: int, last: int) -> tuple[dict, Counter]:
        """Self time and call count per span name over spans[first:last]."""
        self_s: dict = {}
        calls: Counter = Counter()
        spans = self.spans
        for name, start, end, parent in spans[first:last]:
            duration = end - start
            self_s[name] = self_s.get(name, 0.0) + duration
            calls[name] += 1
            if parent >= 0:
                parent_name = spans[parent][0]
                self_s[parent_name] = self_s.get(parent_name, 0.0) - duration
        return self_s, calls


# ---------------------------------------------------------------------------
# Scalar kernel rates on fixed seeded operands
# ---------------------------------------------------------------------------

KERNEL_ORDERS = (3, 4, 8, 12)
KERNEL_OPERANDS = 64
KERNEL_REPEATS = 3
KERNEL_MIN_SECONDS = 0.15


def _rate(fn, operands) -> float:
    """Median over repeats of operations per second on the operand list."""
    rates = []
    for _ in range(KERNEL_REPEATS):
        done = 0
        start = perf_counter()
        while True:
            for operand in operands:
                fn(operand)
            done += len(operands)
            elapsed = perf_counter() - start
            if elapsed >= KERNEL_MIN_SECONDS:
                break
        rates.append(done / elapsed)
    return statistics.median(rates)


def kernel_rates() -> dict:
    """Operations per second of the scalar kernels, on operands drawn from a
    fixed seed so that runs compare."""
    from orbconfig.exactfield import ComplexPoint, Cyclotomic, euler_phi

    rng = random.Random("kernels")

    def element(order: int):
        return Cyclotomic(
            order, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(euler_phi(order))]
        )

    rates = {}
    for m in KERNEL_ORDERS:
        pairs = [(element(m), element(m)) for _ in range(KERNEL_OPERANDS)]
        rates[f"exactfield.cyclotomic_mul_per_s.m{m}"] = _rate(lambda p: p[0] * p[1], pairs)
    # each order into lcm(m, 4), the field complement_contains compiles into
    embeds = [(element(m), math.lcm(m, 4)) for m in KERNEL_ORDERS for _ in range(KERNEL_OPERANDS // 4)]
    rates["exactfield.cyclotomic_embed_per_s"] = _rate(lambda p: p[0].embed(p[1]), embeds)
    powers = [
        (ComplexPoint.exact(Fraction(rng.randint(-16, 16), 8), Fraction(rng.randint(-16, 16), 8)), m)
        for m in (2, 3, 4)
        for _ in range(KERNEL_OPERANDS // 3)
    ]
    rates["exactfield.complexpoint_pow_per_s"] = _rate(lambda p: p[0] ** p[1], powers)
    return rates


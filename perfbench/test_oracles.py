"""The benchmark's own tests: its oracles catch seeded wrong answers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import dataclasses
import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from orbconfig import arrangement, orbit_config  # noqa: E402
from orbconfig.covering import verify_cover  # noqa: E402


class OracleValues(unittest.TestCase):
    def test_closed_forms(self):
        self.assertEqual(oracles.braid_poincare(4), [1, 6, 11, 6])
        # G(3,3,3): exponents 1, 4, 4
        self.assertEqual(oracles.gmmn_poincare(3, 3), [1, 9, 24, 16])
        # m = 1 is the braid arrangement; its extra exponent 0 adds nothing
        self.assertEqual(oracles.gmmn_poincare(5, 1), oracles.braid_poincare(5))

    def test_brute_force_counts(self):
        self.assertEqual(oracles.field_point_count(3, oracles.braid_rows(3), 5), 5 * 4 * 3)
        negation = lambda x: min(x, (-x) % 6)  # noqa: E731
        self.assertEqual(oracles.orbit_distinct_tuples(range(6), negation, 2), 26)
        own = oracles.Group
        self.assertEqual(own.direct(own.cyclic(4), own.cyclic(4)).normal_subgroup_count(), 15)
        self.assertEqual(own.direct(own.dihedral(4), own.cyclic(2)).normal_subgroup_count(), 19)

    def test_orbits_and_power_differences(self):
        # 1 and i share an orbit of the order-4 rotation, not of order 2
        self.assertFalse(oracles.distinct_rotation_orbits([(8, 0), (0, 8)], 4))
        self.assertTrue(oracles.distinct_rotation_orbits([(8, 0), (0, 8)], 2))
        half = Fraction(1, 2)
        self.assertEqual(oracles.power_differences([(half, 0), (0, half)], 2), [(-half, 0)])


class SeededWrongAnswers(unittest.TestCase):
    """Each oracle passes the program's real output and flags one wrong value."""

    def test_flipped_membership_bit(self):
        inputs = workloads.build_orbit_sampling(seed=3)
        specs: dict = {}
        results = [
            (("member", index), workloads._membership(specs, m, n, points))
            for index, (m, n, _, points) in enumerate(inputs["membership"][:40])
        ]
        self.assertEqual(workloads.check_orbit_sampling(inputs, results).errors, [])
        key, (inside, config) = results[17]
        results[17] = (key, (not inside, config))
        errors = workloads.check_orbit_sampling(inputs, results).errors
        self.assertEqual(len(errors), 1)
        self.assertIn("complement_contains", errors[0])

    def test_wrong_poincare_coefficient(self):
        for argv in (
            ["arrangement", "--builder", "braid", "--n", "4"],
            ["arrangement", "--builder", "case1", "--n", "2", "--m", "3"],
        ):
            code, text = workloads.cli_run(argv)
            results = [(("cli", *argv), (code, text))]
            self.assertEqual(workloads.check_arrangements({"batch": []}, results).errors, [])
            envelope = json.loads(text)
            envelope["report"]["poincare"]["coefficients"][1] += 1
            results = [(("cli", *argv), (code, json.dumps(envelope)))]
            errors = workloads.check_arrangements({"batch": []}, results).errors
            self.assertEqual(len(errors), 1, argv)
            self.assertIn("Poincare", errors[0])

    def test_wrong_fiber_size(self):
        args = ("squaring", 2, 5, 3, 1)
        report = verify_cover("squaring", n=2, samples=5, window=3, seed=1)
        results = [(("cover", *args), report)]
        self.assertEqual(workloads.check_orbit_sampling({"membership": []}, results).errors, [])
        wrong = dataclasses.replace(report, fiber_sizes=((3, 1), (4, 4)))
        errors = workloads.check_orbit_sampling({"membership": []}, [(("cover", *args), wrong)]).errors
        self.assertEqual(len(errors), 1)
        self.assertIn("fiber sizes", errors[0])


class Tracing(unittest.TestCase):
    def test_spans_nest_and_bindings_are_restored(self):
        original = arrangement.make_arrangement
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(orbit_config.make_arrangement, original)
            arrangement.flat_poset(orbit_config.braid_arrangement(3))
        finally:
            tracer.uninstall()
        self.assertIs(orbit_config.make_arrangement, original)
        self.assertIs(arrangement.make_arrangement, original)
        names = [span[0] for span in tracer.spans]
        self.assertEqual(
            names,
            ["orbit_config.braid_arrangement", "arrangement.make_arrangement", "arrangement.flat_poset"],
        )
        self.assertEqual(tracer.spans[1][3], 0)  # make_arrangement runs inside the builder
        self_s, calls = tracer.self_times(0, len(tracer.spans))
        self.assertEqual(calls["arrangement.flat_poset"], 1)
        self.assertGreaterEqual(self_s["orbit_config.braid_arrangement"], 0.0)
        self.assertEqual(tracer.counts["arrangement.flats"], 5)


if __name__ == "__main__":
    unittest.main()

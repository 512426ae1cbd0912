"""One workload in a fresh process: set up, time whole rounds, check.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

run.py starts this with PYTHONPATH pointing at the checkout's src/.  The
worker prints ``ready`` on its own line once set-up is done (the orbconfig
import and the inputs are built), then times the reference computation
(see REFERENCE_NOMINAL_S) and prints one JSON line of results last.  With
--setup-only it prints only the factor that scales its set-up time.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
# At least two rounds: every output is compared with its repeats.
MIN_ROUNDS = 2
TAIL_BEYOND = 10  # op_tail_ms has this many operations beyond it
FAILED = object()  # the output of an operation that raised
# On a shared 2-core host the speed of one Python process drifts by 10-40%
# over a minute, and every operation's time drifts with it.  So the worker
# also times a fixed reference computation, REFERENCE_WARMUP times after
# set-up and then at most every REFERENCE_EVERY_S seconds between
# operations, and scales every timing metric by REFERENCE_NOMINAL_S over the
# median reference time of the run: the metrics read as seconds on a host
# where the reference takes REFERENCE_NOMINAL_S.  The reference calls
# nothing in orbconfig, so no change to the program moves it.
REFERENCE_EVERY_S = 0.1
REFERENCE_WARMUP = 20
REFERENCE_NOMINAL_S = 0.002


def reference() -> int:
    """Fixed pure-Python work, about 2 ms: Fraction arithmetic, tuples,
    dicts and sets, the operations orbconfig spends its time in."""
    total = Fraction(0)
    table: dict = {}
    seen = set()
    for i in range(1, 120):
        term = Fraction(i, i + 3) * Fraction(2 * i + 1, 7) - total / 11
        total = term if i % 16 == 0 else total + term
        key = (i % 13, i % 7, total.denominator % 17)
        table[key] = table.get(key, 0) + 1
        seen.add((key, i & 3))
    return len(table) + len(seen) + total.numerator % 97


class Rounds:
    """Times rounds of one workload.

    An operation is identified by its key.  A round may perform one
    operation several times; every execution is one attempt.  Each
    operation keeps the times of all its executions and its first output,
    and every later output of it must equal that first one.  Between
    operations the reference computation is timed now and then.
    """

    def __init__(self, run_round, inputs) -> None:
        self.run_round = run_round
        self.inputs = inputs
        self.walls: list[float] = []
        self.sequence: list = []  # the keys of the first round, in order
        self.times: dict = {}  # key -> the times of its executions
        self.outputs: dict = {}  # key -> first output
        self.references: list[float] = []
        self.last_reference = 0.0
        self.attempted = 0
        self.failures: list[str] = []  # one per failed execution
        self.mismatches: list[str] = []

    def time_reference(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # the collector's work depends on the workload's heap
        start = time.perf_counter()
        reference()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.references.append(end - start)
        self.last_reference = end

    def run(self) -> None:
        keys = []
        times, outputs = self.times, self.outputs
        clock = time.perf_counter

        def op(key, fn, *args):
            start = clock()
            try:
                out = fn(*args)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = FAILED
                self.failures.append(f"{key}: {type(exc).__name__}: {exc}")
            end = clock()
            keys.append(key)
            if key not in outputs:
                outputs[key] = out
                times[key] = [end - start]
            else:
                times[key].append(end - start)
                if out != outputs[key]:
                    self.mismatches.append(f"{key}: output differs from its first execution")
            if end - self.last_reference >= REFERENCE_EVERY_S:
                self.time_reference()

        start = clock()
        self.run_round(self.inputs, op)
        self.walls.append(clock() - start)
        self.attempted += len(keys)
        if not self.sequence:
            self.sequence = keys
        elif keys != self.sequence:
            self.mismatches.append("a round performed other operations than the first")

    def warm_up(self) -> float:
        """Times the reference REFERENCE_WARMUP times; returns the factor
        that brings the set-up just finished to the nominal host speed."""
        for _ in range(REFERENCE_WARMUP):
            self.time_reference()
        return self.scale()

    def run_for(self, seconds: float, min_rounds: int) -> None:
        start = time.perf_counter()
        while len(self.walls) < min_rounds or time.perf_counter() - start < seconds:
            self.run()

    def results(self) -> list:
        """(key, first output) of every operation that did not fail."""
        return [(key, out) for key, out in self.outputs.items() if out is not FAILED]

    def scale(self) -> float:
        """The factor that brings this run's times to the nominal host speed."""
        return REFERENCE_NOMINAL_S / statistics.median(self.references)

    def op_stats(self) -> dict:
        """Round time, and the median and tail over operations, each
        operation timed by the median of its executions, all scaled by
        scale()."""
        scale = self.scale()
        per_op = sorted(map(statistics.median, self.times.values()))
        count = len(per_op)
        round_s = sum(map(sum, self.times.values())) / len(self.walls)
        return {
            "operations": count,
            "executions_per_round": len(self.sequence),
            "reference_samples": len(self.references),
            "reference_median_ms": statistics.median(self.references) * 1e3,
            "scale": scale,
            "round_s": scale * round_s,
            "op_p50_ms": scale * statistics.median(per_op) * 1e3,
            "op_tail_ms": scale * per_op[count - TAIL_BEYOND - 1] * 1e3,
            "tail_percentile": 100.0 * (count - TAIL_BEYOND) / count,
            "unscaled_round_s": round_s,
        }


def report_bytes(rounds: Rounds) -> int:
    """Bytes of CLI reports written in one round."""
    return sum(len(out[1].encode()) for key, out in rounds.results() if key[0] == "cli")


SELF_TIMES = (
    "arrangement.flat_poset",
    "arrangement.enumerate_chambers",
    "arrangement.is_simplicial",
    "arrangement.good_primes",
    "arrangement.finite_field_count",
    "arrangement.complement_contains",
    "orbit_config.is_orbit_config",
    "orbit_config.sample_orbit_config",
    "covering.power_difference_map",
    "covering.verify_cover",
    "groupoid.verify_axioms",
    "groupoid.translation_groupoid",
    "groupoid.configuration_groupoid",
    "groupoid.morita_triple",
    "groupoid.is_equivalence",
    "groupoid.is_covering_hom",
    "cli.main",
)
CALLS = (
    "arrangement.flat_poset",
    "arrangement.complement_contains",
    "orbit_config.is_orbit_config",
    "orbit_config.sample_orbit_config",
    "groupoid.verify_axioms",
    "groupoid.translation_groupoid",
)
COUNTS = (
    "arrangement.flats",
    "arrangement.chambers",
    "arrangement.field_points",
    "covering.fiber_points",
    "groupoid.morphism_pairs",
    "exactfield.cyclotomic_mul.calls",
)


def layer_metrics(tracer, rounds: Rounds, marks: list[tuple]) -> dict:
    """Per-layer figures for one round: self times are medians over the
    traced rounds; counts are totals divided by the number of traced rounds.
    marks holds the span index range of each traced round; rounds alternate
    untraced and traced."""
    per_round = [tracer.self_times(a, b) for a, b in marks]
    traced = len(per_round)
    counts = tracer.counts
    metrics = {
        f"{name}.self_s": statistics.median(times.get(name, 0.0) for times, _ in per_round)
        for name in SELF_TIMES
    }
    for name in CALLS:
        metrics[f"{name}.calls"] = sum(calls[name] for _, calls in per_round) / traced
    for name in COUNTS:
        metrics[name] = counts[name] / traced
    drawn, pairs = counts["covering.samples_drawn"], counts["groupoid.morphism_pairs"]
    metrics["covering.samples_used_ratio"] = counts["covering.samples_used"] / drawn if drawn else 0.0
    metrics["groupoid.composable_pair_ratio"] = counts["groupoid.composable_pairs"] / pairs if pairs else 0.0
    metrics["cli.report_bytes"] = report_bytes(rounds)
    metrics["trace.overhead_s"] = min(rounds.walls[1::2]) - min(rounds.walls[0::2])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None, help="write the traced spans here")
    args = parser.parse_args(argv)

    import orbconfig

    source = Path(orbconfig.__file__).resolve()
    if HERE.parent / "src" not in source.parents:
        print(f"worker: imported orbconfig from {source}, not from the checkout", file=sys.stderr)
        return 2
    import workloads

    build, run_round, check = workloads.WORKLOADS[args.workload]
    inputs = build(args.seed)
    print("ready", flush=True)
    rounds = Rounds(run_round, inputs)
    setup_scale = rounds.warm_up()
    if args.setup_only:
        print(json.dumps({"setup_scale": setup_scale}), flush=True)
        return 0

    stats: dict = {}
    if args.trace:
        import tracing

        # untraced and traced rounds alternate, so drift in the host's speed
        # falls on both sides of trace.overhead_s alike
        tracer = tracing.Tracer()
        marks = []
        start = time.perf_counter()
        while not marks or time.perf_counter() - start < args.seconds:
            rounds.run()
            first = len(tracer.spans)
            tracer.install()
            try:
                rounds.run()
            finally:
                tracer.uninstall()
            marks.append((first, len(tracer.spans)))
        metrics = layer_metrics(tracer, rounds, marks)
        metrics.update(tracing.kernel_rates())
        if args.trace_out:
            names = sorted({span[0] for span in tracer.spans})
            index = {name: i for i, name in enumerate(names)}
            Path(args.trace_out).write_text(
                json.dumps(
                    {
                        "names": names,
                        "rounds": marks,
                        "spans": [[index[n], s, e, p] for n, s, e, p in tracer.spans],
                        "counts": dict(tracer.counts),
                    }
                ),
                encoding="utf-8",
            )
    else:
        rounds.run_for(args.seconds, MIN_ROUNDS)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        stats = rounds.op_stats()
        metrics = {
            "round_s": stats["round_s"],
            "op_p50_ms": stats["op_p50_ms"],
            "op_tail_ms": stats["op_tail_ms"],
            "peak_rss_mb": peak_rss_mb,
        }

    checker = check(inputs, rounds.results())
    errors = rounds.mismatches + checker.errors
    result = {
        "correct": not errors,
        "attempted": rounds.attempted,
        "failed": len(rounds.failures),
        "metrics": metrics,
        "info": {
            "setup_scale": setup_scale,
            "rounds": len(rounds.walls),
            "round_walls_s": rounds.walls,
            "checks": checker.count,
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            **stats,
        },
        "errors": errors[:20],
        "failures": sorted(set(rounds.failures))[:20],
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

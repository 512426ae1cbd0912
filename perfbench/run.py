"""The orbconfig benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload runs in its own fresh
process (worker.py), one after another, with the checkout's src/ on
PYTHONPATH; nothing is installed.  Set-up time is measured on
SETUP_SAMPLES fresh processes, from their start to their "ready" line, and
reported as the median.  The last line printed is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer ones with --trace 1.  Results and traces are also
written under perfbench/results/.  The exit status is 0 when the run
completed and every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("arrangements", "orbit_sampling", "groupoids")
SETUP_SAMPLES = 7  # six set-up-only processes and the measured one
DEADLINE_S = 170.0  # every run ends within 180 s
UNITS = {"round_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


def layer_unit(name: str) -> str:
    if "_per_s" in name:
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "cli.report_bytes":
        return "bytes"
    return "count"


class RunError(RuntimeError):
    pass


def start_worker(args: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its "ready" line; returns the process and
    the seconds from its start to that line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - started
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RunError(f"worker did not get ready: {line.strip() or 'no output'}")
    if time.perf_counter() > deadline:
        proc.kill()
        proc.wait()
        raise RunError("set-up ran past the deadline")
    return proc, setup


def finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError("the workload ran past the deadline") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    return out


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []  # (measured set-up time, the worker's scale factor)
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup = start_worker([*common, "--setup-only"], deadline)
        lines = finish(proc, deadline).strip().splitlines()
        if not lines:
            raise RunError("set-up worker printed no scale")
        setups.append((setup, json.loads(lines[-1])["setup_scale"]))
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    extra = ["--trace-out", str(results / f"spans-{stem}.json")] if trace else []
    proc, setup = start_worker(
        [*common, "--seconds", str(seconds), "--trace", str(trace), *extra], deadline
    )
    lines = finish(proc, deadline).strip().splitlines()
    if not lines:
        raise RunError("worker printed no result")
    result = json.loads(lines[-1])
    setups.append((setup, result["info"]["setup_scale"]))
    result["info"]["setup_samples_s"] = [setup for setup, _ in setups]
    if trace:
        metrics = {name: (value, layer_unit(name)) for name, value in result["metrics"].items()}
    else:
        result["metrics"]["setup_s"] = statistics.median(setup * scale for setup, scale in setups)
        metrics = {name: (result["metrics"][name], unit) for name, unit in UNITS.items()}
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    (results / f"result-{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def show(workload: str, seed: int, result: dict) -> None:
    info = result["info"]
    print(f"{workload}  seed {seed}  nproc {info['nproc']}  python {info['python']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(
        f"  attempted {result['attempted']}  failed {result['failed']}  "
        f"checks {info['checks']}  correct {str(result['correct']).lower()}"
    )
    if "operations" in info:
        print(
            f"  {info['operations']} operations, {info['executions_per_round']} executions per round, "
            f"{info['rounds']} rounds; op_tail_ms is the p{info['tail_percentile']:.1f} "
            "of the operations' median times"
        )
        print(
            f"  timings scaled by {info['scale']:.4f}: the reference took {info['reference_median_ms']:.4f} ms "
            f"(median of {info['reference_samples']}); unscaled round {info['unscaled_round_s']:.4f} s"
        )
    for line in result["errors"] + result["failures"]:
        print(f"  ! {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="orbconfig benchmark")
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "orbconfig" / "__init__.py").is_file():
        print(f"run.py: no orbconfig sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except (RunError, ValueError, KeyError) as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            return 1
        show(name, args.seed, result)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

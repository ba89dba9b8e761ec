"""The wordlen benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run uses fresh processes (bench/worker.py) that import wordlen from
../src.  With --trace 0 it times SETUP_RUNS cold starts (interpreter,
``import wordlen`` and building the seeded inputs) for ``setup_s``, then
runs the workload untraced for S seconds in one more process and reports
the end-to-end metrics.  With --trace 1 it runs the workload with every
public layer call traced and reports the per-layer metrics.  The last line
of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

Timings are medians over many short timed batches spread through the run,
with their quartiles printed beside them.  They are in reference seconds
(see calibrate.py), because a shared host's speed drifts by tens of percent
over a minute; the wall-clock values are printed beside them.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweep", "longword", "alg_span", "alg_liw")
SETUP_RUNS = 9
DEADLINE_S = 170  # the whole run ends within this
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
# Fixed string hashing, so that set and dict layouts repeat between runs, and
# cached bytecode, as an installed CLI has.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
CHILD_ENV["PYTHONHASHSEED"] = "0"


def worker(args: argparse.Namespace, mode: str, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if args.plant:
        cmd.append("--plant")
    done = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE,
                          text=True, timeout=timeout, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples beyond it (nearest
    rank), as (value, percentile, samples beyond); the maximum when there
    are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end(args: argparse.Namespace, deadline: float) -> tuple[dict, dict]:
    worker(args, "setup", timeout=60)  # compiles bytecode; not timed
    reference = calibrate.Reference(every_s=0)
    setup = []
    for _ in range(SETUP_RUNS):
        k = reference.tick()
        start = time.perf_counter()
        worker(args, "setup", timeout=60)
        setup.append((time.perf_counter() - start, k))
    reference.close()
    run = worker(args, "measure", timeout=deadline - time.monotonic())
    run["setup"] = {"ref": [dt * reference.factor(k) for dt, k in setup],
                    "wall": [dt for dt, _ in setup]}
    run["kernel_s"] += reference.kernels

    metrics = {}
    for clock in ("ref", "wall"):
        rates, lat, setup_s = run[clock]["batch_rates"], run[clock]["latencies_ms"], run["setup"][clock]
        tail_ms, pct, beyond = tail(lat)
        suffix = "" if clock == "ref" else " (wall clock)"
        metrics[clock] = {
            "items_per_s": (statistics.median(rates), "1/s",
                            "median of %d batches, quartiles %.6g..%.6g%s"
                            % (len(rates), *quartiles(rates), suffix)),
            "item_p50_ms": (statistics.median(lat), "ms",
                            "median of %d items, quartiles %.6g..%.6g%s"
                            % (len(lat), *quartiles(lat), suffix)),
            "item_tail_ms": (tail_ms, "ms",
                             "p%.2f of %d items, %d beyond%s" % (pct, len(lat), beyond, suffix)),
            "setup_s": (statistics.median(setup_s), "s",
                        "median of %d cold starts, quartiles %.6g..%.6g%s"
                        % (len(setup_s), *quartiles(setup_s), suffix)),
        }
    metrics["ref"]["peak_rss_mb"] = (run["peak_rss_mb"], "MB",
                                     "peak resident memory of the measuring process")
    return metrics, run


def per_layer(args: argparse.Namespace, deadline: float) -> tuple[dict, dict]:
    run = worker(args, "trace", timeout=deadline - time.monotonic())
    metrics = {name: (value, run["units"][name], "")
               for name, value in run["metrics"].items()}
    metrics["trace.overhead_ratio"] = (
        run["metrics"]["trace.overhead_ratio"], "ratio",
        "traced over untraced items/s, medians of %d passes each" % run["passes"])
    return {"ref": metrics}, run


def main() -> int:
    deadline = time.monotonic() + DEADLINE_S
    parser = argparse.ArgumentParser(description="wordlen benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--plant", action="store_true",
                        help="make one public call return a wrong output (self-test)")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "wordlen" / "__init__.py").is_file():
        print(f"run.py: no wordlen source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  python {platform.python_version()}  "
          f"nproc {os.cpu_count()} (usable {affinity})  "
          "loadavg %.2f %.2f %.2f" % os.getloadavg())
    try:
        metrics, run = (per_layer if args.trace else end_to_end)(args, deadline)
    except subprocess.TimeoutExpired:
        print("run.py: the workload did not finish in time", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        print(f"run.py: worker exited with {exc.returncode}", file=sys.stderr)
        return 1

    print("inputs " + json.dumps(run["info"], sort_keys=True))
    if "kernel_s" in run:
        kernel = run["kernel_s"]
        print("reference kernel: nominal %.6g s, measured median %.6g s (quartiles %.6g..%.6g) "
              "over %d timings; times below are in reference seconds"
              % (calibrate.NOMINAL_S, statistics.median(kernel), *quartiles(kernel), len(kernel)))
    if args.trace:
        print(f"per pass over the input set; times are medians of {run['passes']} traced "
              f"passes; counts repeat across passes: {run['counts_repeat']}; "
              f"{run['spans']} spans written to {run['spans_file']}")
    for clock in metrics.values():
        for name, (value, unit, note) in clock.items():
            print(f"{name:44s} {value:>14.6g} {unit:9s} {note}".rstrip())
    attempted, failed = run["attempted"], run["failed"]
    print(f"{'fail_ratio':44s} {failed / attempted:>14.6g} {'ratio':9s} "
          f"{failed} failed of {attempted} attempted")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics["ref"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

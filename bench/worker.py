"""Runs one workload in a fresh process and prints one JSON line.

    python3 bench/worker.py --workload NAME --seed N --seconds S --mode MODE [--plant]

MODE is one of
  setup    build the inputs into library objects and exit; bench/run.py
           times this cold start;
  measure  run batches untraced until S seconds have passed, recording the
           throughput of each batch and the latency of each item;
  trace    alternate untraced and traced passes over the whole input set
           until S seconds have passed, and report the per-layer counters.
--plant makes one public call return a wrong output (for bench/selftest.py).

Every output is checked outside the timed region; an item fails if its call
raises, reports a counterexample, or returns an output that fails its check.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import workloads  # noqa: E402

MAX_REPORTED_FAILURES = 5
CALIBRATE_EVERY_S = 0.1


class Checker:
    """Counts attempted and failed items.  An output equal to one already
    checked for the same item reuses that verdict."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._verdicts: dict[int, tuple[object, int]] = {}

    def record(self, item: workloads.Item, out: object) -> None:
        self.attempted += item.weight
        if isinstance(out, Exception):
            bad = item.weight
        else:
            seen = self._verdicts.get(id(item))
            if seen is not None and seen[0] == out:
                bad = seen[1]
            else:
                try:
                    bad = item.check(out)
                except Exception:
                    traceback.print_exc()
                    bad = item.weight
                self._verdicts[id(item)] = (out, bad)
        if bad and self.failed < MAX_REPORTED_FAILURES:
            print(f"failed: {item.label}", file=sys.stderr)
        self.failed += bad


def run_batch(batch: list[workloads.Item], checker: Checker, tracer=None,
              reference: calibrate.Reference | None = None) -> list[tuple[float, int]]:
    """Times each item of the batch, then checks the outputs.  Returns, per
    item, its wall seconds and the index of the kernel timing before it."""
    timed = []
    for j, item in enumerate(batch):
        k = reference.tick() if reference is not None else -1
        start = time.perf_counter()
        try:
            if tracer is None:
                out = item.call()
            else:
                with tracer.item(j):
                    out = item.call()
        except Exception as exc:
            traceback.print_exc()
            out = exc
        timed.append((item, out, time.perf_counter() - start, k))
    for item, out, _, _ in timed:
        checker.record(item, out)
    return [(dt, k) for _, _, dt, k in timed]


def measure(wl: workloads.Workload, seconds: float) -> dict:
    """Batches until `seconds` have passed; per-batch rates and per-item
    latencies in reference seconds (see calibrate.py) and in wall seconds."""
    checker = Checker()
    reference = calibrate.Reference(CALIBRATE_EVERY_S)
    timed: list[tuple[int, workloads.Item, float, int]] = []
    end = time.perf_counter() + seconds
    b = 0
    while True:
        batch = wl.batches[b % len(wl.batches)]
        for item, (dt, k) in zip(batch, run_batch(batch, checker, reference=reference)):
            timed.append((b, item, dt, k))
        b += 1
        if time.perf_counter() >= end:
            break
    reference.close()

    result = {}
    for clock, scale in (("ref", reference.factor), ("wall", lambda k: 1.0)):
        items, busy = [0] * b, [0.0] * b
        latencies_ms = []
        for i, item, dt, k in timed:
            busy_s = dt * scale(k)
            items[i] += item.weight
            busy[i] += busy_s
            latencies_ms.append(1000 * busy_s / item.weight)
        result[clock] = {"batch_rates": [n / s for n, s in zip(items, busy)],
                         "latencies_ms": latencies_ms}
    result.update({
        "kernel_s": reference.kernels,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    return result


def run_pass(wl: workloads.Workload, checker: Checker, tracer=None) -> float:
    """Items per second over one pass through every batch."""
    busy = 0.0
    for batch in wl.batches:
        busy += sum(dt for dt, _ in run_batch(batch, checker, tracer))
        if tracer is not None:
            tracer.keep_spans = False  # spans of the first traced batch only
    return wl.items_per_pass / busy


def trace(wl: workloads.Workload, seconds: float, spans_path: Path) -> dict:
    import tracer as tracing

    tracer = tracing.Tracer()
    checker = Checker()
    calls_per_pass = sum(len(batch) for batch in wl.batches)
    untraced: list[float] = []
    traced: list[float] = []
    passes: list[dict[str, float]] = []
    end = time.perf_counter() + seconds
    while True:
        untraced.append(run_pass(wl, checker))
        tracer.reset()
        tracer.install()
        try:
            traced.append(run_pass(wl, checker, tracer))
        finally:
            tracer.uninstall()
        passes.append(tracer.metrics(calls_per_pass))
        if time.perf_counter() >= end:
            break
    tracer.write_spans(spans_path)
    units = tracing.metric_units()
    counts = [name for name, unit in units.items() if unit != "s"]
    counts_repeat = all(p[name] == passes[0][name] for p in passes for name in counts)
    metrics = {name: passes[-1][name] if name in counts
               else statistics.median(p[name] for p in passes) for name in units}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    units["trace.overhead_ratio"] = "ratio"
    return {
        "metrics": metrics,
        "units": units,
        "passes": len(passes),
        "counts_repeat": counts_repeat,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "attempted": checker.attempted,
        "failed": checker.failed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--plant", action="store_true")
    args = parser.parse_args()

    wl = workloads.BUILDERS[args.workload](args.seed)
    if args.mode == "setup":
        result = {"items_per_pass": wl.items_per_pass}
    else:
        if args.plant:
            wl.plant()
        if args.mode == "measure":
            result = measure(wl, args.seconds)
        else:
            spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            result = trace(wl, args.seconds, spans)
        result["info"] = wl.info
        result["items_per_pass"] = wl.items_per_pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

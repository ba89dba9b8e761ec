"""Self-test of the benchmark.

    python3 bench/selftest.py

For every workload:
  - a short untraced run reports no failed item, and a run with a planted
    wrong output (run.py --plant) reports failed items, so fail_ratio rises;
  - the metrics printed are exactly those BENCHMARK.json names;
  - the traced run confirms the bypasses: no linalg or algebra call on
    sweep and longword, and no enumerated word or factor_count call on the
    alg_* workloads.
Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BYPASSED = {
    "sweep": ("linalg.", "algebra."),
    "longword": ("linalg.", "algebra."),
    "alg_span": ("oracles.enumerate_words.words", "words.factor_count.calls"),
    "alg_liw": ("oracles.enumerate_words.words", "words.factor_count.calls"),
}


def run(workload: str, trace: int, *extra: str) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), *extra]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        sys.exit(1)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        name = w["name"]
        clean = run(name, 0)
        expect(clean["correct"] and clean["failed"] == 0 and clean["attempted"] > 0,
               f"{name}: no failed item in {clean['attempted']}")
        expect({k: v["unit"] for k, v in clean["metrics"].items()} == end_to_end,
               f"{name}: end-to-end metrics and units match BENCHMARK.json")
        planted = run(name, 0, "--plant")
        expect(not planted["correct"] and planted["failed"] > 0,
               f"{name}: planted wrong output fails {planted['failed']} of "
               f"{planted['attempted']} items")
        traced = run(name, 1)
        expect({k: v["unit"] for k, v in traced["metrics"].items()} == per_layer,
               f"{name}: per-layer metrics and units match BENCHMARK.json")
        nonzero = [k for k, v in traced["metrics"].items()
                   if k.startswith(BYPASSED[name]) and v["value"]]
        expect(not nonzero, f"{name}: bypassed layers do no work {nonzero or ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

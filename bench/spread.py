"""Run the benchmark once per seed and report each metric's spread.

Usage (from the repository root):

    python3 bench/spread.py --workloads ridge-sweep,logistic-l1 --seeds 1-10 \
        --seconds 30 --trace 0 [--out bench/baseline.json]

For every workload and metric it prints the median over the runs, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json.  With
``--out`` the numbers, every run's value and the machine facts are merged
into that JSON file under "end_to_end" or "per_layer".
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import machine

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else 0.0,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="ridge-sweep,logistic-l1,gossip-m1000")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    section = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[section]}
    seeds = _seeds(args.seeds)
    results = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(_run(workload, seed, seconds, args.trace))
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']}", file=sys.stderr)
        table = {}
        for name in bounds:
            table[name] = summarize([r["metrics"][name]["value"] for r in runs])
            table[name]["unit"] = runs[0]["metrics"][name]["unit"]
        results[workload] = {
            "metrics": table,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
        }
        print(f"{workload}: {results[workload]['failed']} of {results[workload]['attempted']} jobs failed")
        for name, row in table.items():
            bound = bounds[name]
            flag = "" if bound is None else f"  bound {bound}  {'ok' if row['spread'] < bound / 3 else 'WIDE'}"
            print(f"  {name:40s} median {row['median']:.6g} {row['unit']}  "
                  f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  spread {row['spread']:.4f}{flag}")

    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc["machine"] = machine.facts()
        doc[section] = {"seeds": seeds, "run_seconds": seconds, "workloads": results}
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

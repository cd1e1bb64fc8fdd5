"""sonatasim benchmark: end-to-end and per-layer metrics of three workloads.

Usage (from the repository root):

    python3 bench/run.py --workload ridge-sweep --seed 1 --seconds 36 --trace 0

The run makes its inputs from ``--seed`` (see ``workloads.py`` for the three
workloads and why each was chosen), then runs jobs one at a time in a closed
loop, each in a fresh Python process, until ``--seconds`` have passed (at
least ``MIN_JOBS`` jobs).  Every job repeats the same input and its outputs
are checked (``check.py``).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are end to end, each the best value over the
jobs of the run that passed their check:

* ``wall_s``: job wall time, first library call to last output written.
* ``setup_s``: job start to the first entry into ``accel.acc_sonata_run``.
* ``rounds_per_s``: simulated communication rounds per second spent inside
  ``accel.acc_sonata_run``.
* ``comms``: communication rounds to reach the target gap (summed over the
  sweep's two modes); identical across the jobs of a run.
* ``peak_rss_mb``: peak resident memory of the job's process.

Best, not median: on a shared 2-core host the same job's wall time varies
by up to 1.8x with the load of other tenants.  Host load only adds time,
while a slower program slows every job, the fastest included.  In a
5-minute series of ridge-sweep jobs, the median job of each 36-second window
spread 24% (quartile spread over windows) and the fastest job 6%; drift of
the host's speed over several minutes still moves both.  Every job's wall
time is printed with the result.

``failed_frac`` (failed jobs over jobs attempted) is printed with them and
is ``failed / attempted`` of the JSON line.

With ``--trace 1`` jobs alternate between untraced and traced, and the
metrics are per layer (``tracing.py``), the mean over the traced jobs, so
that the self times and ``trace.unattributed_s`` add up to ``trace.wall_s``.
``trace.overhead_frac`` compares the traced jobs' wall time with the
untraced ones'.  The spans of the last traced run of each workload are kept
in ``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import check
import machine
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_ROOT = ROOT / ".bench_work"

MIN_JOBS = 3
# Every run must end within 180 s; no job starts once this budget would
# be passed by a job as long as the last one.
BUDGET_S = 160.0


def _run_child(job: dict, work: Path, timeout: float) -> dict | None:
    job_file = work / f"job{job['id']}.json"
    job_file.write_text(json.dumps(job))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "job.py"), str(job_file)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"job {job['id']} timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"job {job['id']} exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def run_jobs(workload: str, spec: dict, work: Path, seconds: float, trace: bool) -> list:
    """Closed loop: one job at a time until the measuring time has passed.
    With tracing, jobs alternate untraced / traced and end on a full pair."""
    spans = WORK_ROOT / "traces" / f"{workload}.jsonl"
    if trace:
        spans.parent.mkdir(parents=True, exist_ok=True)
        spans.unlink(missing_ok=True)
    min_jobs = 2 if trace else MIN_JOBS
    records = []
    start = perf_counter()
    longest = 0.0
    while True:
        job_start = perf_counter()
        traced = trace and len(records) % 2 == 1
        job = {
            "id": len(records),
            "workload": workload,
            "spec": spec,
            "out_dir": str(work / f"out{len(records)}"),
            "trace": traced,
            "spans": str(spans),
        }
        record = _run_child(job, work, timeout=BUDGET_S - (job_start - start))
        if record is not None:
            record["traced"] = traced
        records.append(record)
        longest = max(longest, perf_counter() - job_start)
        elapsed = perf_counter() - start
        if elapsed + longest > BUDGET_S:
            break
        if trace and len(records) % 2 == 1:
            continue
        if len(records) >= min_jobs and elapsed + longest > seconds:
            break
    return records


def end_to_end(records: list, passed: list, units: dict) -> dict:
    use = [r for r, ok in zip(records, passed) if ok and r] or [r for r in records if r]
    setups = [r["setup_s"] for r in use if r["setup_s"] is not None]
    rates = [r["rounds"] / r["solve_s"] for r in use if r["solve_s"]]
    comms = [c for c in (check.job_comms(r["output"]) for r in use) if c is not None]
    values = {
        "wall_s": min(r["wall_s"] for r in use),
        "setup_s": min(setups, default=None),
        "rounds_per_s": max(rates, default=None),
        "comms": statistics.median_low(comms) if comms else None,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in use),
    }
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def per_layer(records: list, units: dict) -> dict:
    traced = [r for r in records if r and r["traced"] and "layers" in r]
    plain = [r for r in records if r and not r["traced"]]
    if not traced:
        return {}
    values = {
        name: statistics.fmean(r["layers"][name] for r in traced) for name in traced[0]["layers"]
    }
    if plain:
        base = statistics.fmean(r["wall_s"] for r in plain)
        values["trace.overhead_frac"] = values["trace.wall_s"] / base - 1.0
    return {name: {"value": values[name], "unit": units[name]} for name in units if name in values}


def _units(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sonatasim" / "__init__.py").is_file():
        print(f"no sonatasim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    units = _units(bool(args.trace))

    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        spec = workloads.make_input(args.workload, args.seed, work)
        records = run_jobs(args.workload, spec, work, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reasons = check.run_failures(records)
    passed = [not why for why in reasons]
    for i, why in enumerate(reasons):
        for reason in why:
            print(f"job {i} failed: {reason}", file=sys.stderr)
    if not any(records):
        print("no job produced a record", file=sys.stderr)
        return 1

    metrics = per_layer(records, units) if args.trace else end_to_end(records, passed, units)
    missing = [name for name in units if metrics.get(name, {}).get("value") is None]
    if missing:
        print(f"could not measure {missing}", file=sys.stderr)
        return 1

    failed = passed.count(False)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  jobs {len(records)}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':40s} {failed / len(records):.6g} ({failed} of {len(records)} jobs)")
    walls = " ".join(f"{r['wall_s']:.3f}" for r in records if r)
    print(f"  {'job wall_s':40s} {walls}")
    print("machine " + json.dumps(machine.facts(), sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(records),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark job in this (fresh) process and print its record.

Usage: python3 bench/job.py JOB_JSON

JOB_JSON names the workload, its input spec, the output directory, whether
to trace, and where to append the spans.  The last line of standard output is
the job's record as JSON: wall and set-up time, time inside the accelerated
solver, the rounds it simulated, peak resident memory, the summaries of every
accelerated run, the outputs read back from disk, and, when traced, the
per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    out_dir = Path(job["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    # Import the library before the clock starts: a user pays the import
    # once per process, not per job.
    import sonatasim.cli  # noqa: F401

    rec = tracing.Recorder()
    error, output = None, None
    with tracing.installed(rec, full=job["trace"]):
        start = perf_counter()
        try:
            output = workloads.run_job(job["workload"], job["spec"], out_dir)
        except Exception as exc:  # reported as a failed job, not a crash
            traceback.print_exc()
            error = f"{type(exc).__name__}: {exc}"
        end = perf_counter()

    solves = [s for s in rec.spans if s[0] == tracing.ACC]
    record = {
        "error": error,
        "output": output,
        "runs": rec.runs,
        "wall_s": end - start,
        "setup_s": solves[0][1] - start if solves else None,
        "solve_s": sum(s[2] - s[1] for s in solves),
        "rounds": sum(r["comms"] for r in rec.runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if job["trace"]:
        record["layers"] = tracing.layer_metrics(rec, end - start)
        rec.write_spans(job["spans"], job["id"])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

"""Output checks: which jobs count as failed.

Every comparison is written so that NaN fails it: a gap passes only when
``gap <= target`` holds, never because ``gap > target`` does not.
"""

from __future__ import annotations

from collections import Counter


def _gap_ok(gap, target) -> bool:
    return isinstance(gap, (int, float)) and target is not None and gap <= target


def _run_failures(run: dict) -> list[str]:
    reasons = []
    if run.get("converged") is not True:
        reasons.append("accelerated run did not converge")
    if not _gap_ok(run.get("final_gap"), run.get("target_gap")):
        reasons.append(f"final gap {run.get('final_gap')!r} not <= {run.get('target_gap')!r}")
    if run.get("subproblems_converged") is not True:
        reasons.append("a local subproblem did not converge")
    return reasons


def job_comms(output: dict | None):
    """Communication rounds to the target gap that the job wrote, summed over
    the sweep's modes; None when the output holds no count."""
    if not output:
        return None
    if "rows" in output:
        try:
            return sum(int(r["comms_F"]) + int(r["comms_L"]) for r in output["rows"])
        except (KeyError, ValueError):
            return None
    comms = output.get("result", {}).get("comms")
    return comms if isinstance(comms, int) else None


def job_failures(record: dict | None) -> list[str]:
    """Reasons one job failed its output check; empty when it passed."""
    if not record:
        return ["job produced no record"]
    reasons = []
    if record.get("error"):
        reasons.append(f"raised: {record['error']}")
    runs = record.get("runs") or []
    if not runs:
        reasons.append("no accelerated run completed")
    for run in runs:
        reasons += _run_failures(run)
    output = record.get("output") or {}
    for row in output.get("rows", []):
        if "not-reached" in row.values():
            reasons.append("sweep row reads not-reached")
    if "result" in output:
        # The written result carries no target: check it against the run's.
        target = runs[-1].get("target_gap") if runs else None
        reasons += [
            f"written result: {r}"
            for r in _run_failures(dict(output["result"], target_gap=target))
        ]
    if job_comms(output) is None:
        reasons.append("no communication count in the output")
    return reasons


def run_failures(records: list) -> list[list[str]]:
    """Per-job failure reasons for the jobs of one run, which all repeat the
    same input: a job whose comms differs from the most common value fails."""
    reasons = [job_failures(r) for r in records]
    counts = Counter(job_comms((r or {}).get("output")) for r in records)
    counts.pop(None, None)
    if counts:
        common = counts.most_common(1)[0][0]
        for r, why in zip(records, reasons):
            comms = job_comms((r or {}).get("output"))
            if comms is not None and comms != common:
                why.append(f"comms {comms} differs from repeat value {common}")
    return reasons

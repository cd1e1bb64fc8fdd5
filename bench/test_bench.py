"""Tests of the benchmark's output check and span accounting.

Run from the repository root: python3 -m pytest bench -q
"""

import math
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import tracing  # noqa: E402


def _record(**result):
    run = {
        "converged": True,
        "final_gap": 5e-7,
        "target_gap": 1e-6,
        "subproblems_converged": True,
        "comms": 1504,
    }
    written = {k: run[k] for k in ("converged", "final_gap", "subproblems_converged", "comms")}
    run.update(result)
    written.update(result)
    return {"error": None, "runs": [run], "output": {"result": written}}


def test_passing_job_has_no_failures():
    assert check.job_failures(_record()) == []


def test_nan_gap_fails():
    why = check.job_failures(_record(final_gap=math.nan))
    assert any("final gap nan" in reason for reason in why)


def test_missing_gap_fails():
    assert check.job_failures(_record(final_gap=None))


def test_not_converged_fails():
    why = check.job_failures(_record(converged=False))
    assert any("did not converge" in reason for reason in why)


def test_unconverged_subproblem_fails():
    assert check.job_failures(_record(subproblems_converged=False))


def test_error_and_missing_record_fail():
    assert check.job_failures(None) == ["job produced no record"]
    assert check.job_failures(dict(_record(), error="ValueError: boom"))


def test_not_reached_sweep_row_fails():
    rec = _record()
    rec["output"] = {"rows": [{"comms_F": "not-reached", "comms_L": "1272"}]}
    why = check.job_failures(rec)
    assert any("not-reached" in reason for reason in why)


def test_comms_differing_between_repeats_fails():
    records = [_record(), _record(), _record(comms=1600)]
    reasons = check.run_failures(records)
    assert reasons[0] == [] and reasons[1] == []
    assert any("differs" in reason for reason in reasons[2])


def test_self_times_and_unattributed_add_up_to_wall():
    rec = tracing.Recorder()

    def leaf():
        time.sleep(0.002)

    wrapped_leaf = rec.span("problems.batch_grads", leaf)

    def middle():
        wrapped_leaf()
        time.sleep(0.001)
        wrapped_leaf()

    outer = rec.span(tracing.ACC, rec.span("sonata.sonata_run", middle))
    start = time.perf_counter()
    outer()
    time.sleep(0.001)
    wall = time.perf_counter() - start

    m = tracing.layer_metrics(rec, wall)
    attributed = sum(m[name] for name in tracing.SELF_TIME_METRICS.values())
    assert math.isclose(attributed + m["trace.unattributed_s"], wall, rel_tol=1e-9)
    assert m["problems.batch_grads.calls"] == 2
    assert m["problems.batch_grads.self_s"] >= 0.004
    assert m["trace.unattributed_s"] >= 0.001
    assert all(m[name] >= 0 for name in tracing.SELF_TIME_METRICS.values())

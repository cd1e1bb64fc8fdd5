"""Spans and counters recorded at the library's layer boundaries.

Every boundary below is a module or class attribute that the library looks
up at call time, so replacing the attribute with a wrapper records each call
without touching the library's files.  An untraced job wraps only
``accel.acc_sonata_run`` (one entry and one exit timestamp per call); a
traced job wraps every boundary listed in ``_boundaries``.

Spans live in memory as ``[name, start, end, parent index]`` and are written
out once the job has finished.  A span's self time is its duration minus the
durations of its direct children, so the self times of all spans plus the
time outside every span add up to the job's wall time.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

ACC = "accel.acc_sonata_run"
DIAGNOSTIC_SPANS = ("diagnostics.optimality_gap", "diagnostics.observer")

# Reported self time of each span name.  These, plus trace.unattributed_s,
# sum to the traced wall time; the spans reported as ".s" never have a
# traced child, so their self time is their whole duration.
SELF_TIME_METRICS = {
    "problems.batch_grads": "problems.batch_grads.self_s",
    "problems.average_value": "problems.average_value.self_s",
    "problems.estimate_constants": "problems.estimate_constants.s",
    "sonata.sonata_run": "sonata.local_step.self_s",
    "sonata.gossip_round": "sonata.gossip_round.self_s",
    "network.erdos_renyi": "network.erdos_renyi.s",
    "network.metropolis_hastings": "network.metropolis_hastings.s",
    "network.chebyshev_accelerate": "network.chebyshev_accelerate.s",
    ACC: "accel.acc_sonata_run.self_s",
    "accel.tracking_check": "accel.tracking_check.self_s",
    "diagnostics.centralized_solve": "diagnostics.centralized_solve.self_s",
    "diagnostics.optimality_gap": "diagnostics.optimality_gap.self_s",
    "diagnostics.observer": "diagnostics.observer.self_s",
    "diagnostics.write_csv": "diagnostics.write_csv.s",
    "datagen.gen_ridge": "datagen.gen_ridge.s",
    "datagen.load_libsvm": "datagen.load_libsvm.s",
}


class Recorder:
    """In-memory spans, counters and accelerated-run summaries of one job."""

    def __init__(self):
        self.spans: list[list] = []
        self.stats: dict[str, float] = defaultdict(float)
        self.runs: list[dict] = []
        self._stack: list[int] = []

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def span(self, name, fn, note=None):
        """Wrap fn so each call records a span; note(args, kwargs, out) sees the result."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if note is not None:
                note(args, kwargs, out)
            return out

        return wrapper

    def counter(self, fn, note):
        """Wrap fn so each call updates counters only, without a span."""

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            note(args, kwargs, out)
            return out

        return wrapper

    def write_spans(self, path, job_id: int) -> None:
        with open(path, "a") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"job": job_id, "id": i, "name": name, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )


def _note_run(rec: Recorder):
    def note(args, kwargs, out):
        W = args[2] if len(args) > 2 else kwargs["W"]
        rec.runs.append(
            {
                "converged": out.converged,
                "final_gap": out.gaps[-1] if out.gaps else None,
                "target_gap": kwargs.get("target_gap"),
                "subproblems_converged": all(out.subproblem_converged),
                "comms": out.comms,
                "K_done": out.K_done,
                "rounds_per_application": W.rounds_per_application,
            }
        )

    return note


def _boundaries(rec: Recorder, full: bool):
    """(owner, attribute, wrapper factory) for every boundary to wrap."""
    from sonatasim import accel, datagen, diagnostics, network, problems, sonata

    out = [(accel, "acc_sonata_run", lambda fn: rec.span(ACC, fn, _note_run(rec)))]
    if not full:
        return out
    stats = rec.stats

    def note_batch_grads(args, kwargs, _):
        m, n, d = args[0].A.shape
        stats["batch_grads.flop"] += 4.0 * m * n * d  # A x and A^T r per agent
        stats["batch_grads.bytes"] += 2.0 * args[0].A.nbytes  # two passes over A

    def note_gossip(args, kwargs, _):
        m, d = args[0].shape
        stats["gossip_round.flop"] += 2 * 2.0 * m * m * d  # W @ X and W @ Y, dense

    def note_local_grad(args, kwargs, _):
        stats["local_grad.calls"] += 1

    def note_sonata_run(args, kwargs, out):
        stats["iterations"] += len(out.subproblem_converged)
        stats["iterations_converged"] += sum(out.subproblem_converged)

    def note_subproblem(args, kwargs, out):
        iters = out[2]
        stats["inner_iters.sum"] += iters
        stats["inner_iters.max"] = max(stats["inner_iters.max"], iters)

    def note_edges(args, kwargs, out):
        stats["edges"] = len(out.edges)

    def note_libsvm(args, kwargs, _):
        stats["load_libsvm.bytes"] += os.path.getsize(args[0])

    def note_csv(args, kwargs, _):
        stats["write_csv.bytes"] += os.path.getsize(args[1])

    def tracking_check(fn):
        # Only the call made by the outer loop is the tracking check; the
        # inner loop calls the same function for its gradient refresh.
        traced = rec.span("accel.tracking_check", fn)

        def wrapper(*args, **kwargs):
            if rec.parent_name() == ACC:
                return traced(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def span(name, note=None):
        return lambda fn: rec.span(name, fn, note)

    def count(note):
        return lambda fn: rec.counter(fn, note)

    out += [
        (problems, "batch_grads", span("problems.batch_grads", note_batch_grads)),
        (problems, "local_grad", count(note_local_grad)),
        (problems, "average_value", span("problems.average_value")),
        (problems, "estimate_constants", span("problems.estimate_constants")),
        (sonata, "sonata_run", span("sonata.sonata_run", note_sonata_run)),
        (sonata, "gossip_round", span("sonata.gossip_round", note_gossip)),
        (sonata, "_prox_gradient_subproblem", count(note_subproblem)),
        (sonata, "shifted_grads", tracking_check),
        (network, "erdos_renyi", span("network.erdos_renyi", note_edges)),
        (network, "metropolis_hastings", span("network.metropolis_hastings")),
        (network, "chebyshev_accelerate", span("network.chebyshev_accelerate")),
        (diagnostics, "centralized_solve", span("diagnostics.centralized_solve")),
        (diagnostics, "optimality_gap", span("diagnostics.optimality_gap")),
        (diagnostics.Trajectory, "write_csv", span("diagnostics.write_csv", note_csv)),
        (datagen, "gen_ridge", span("datagen.gen_ridge")),
        (datagen, "load_libsvm", span("datagen.load_libsvm", note_libsvm)),
    ]
    for event in ("on_init", "on_outer_start", "on_inner_step", "on_outer_end"):
        out.append((diagnostics.TrajectoryBuilder, event, span("diagnostics.observer")))
    return out


@contextmanager
def installed(rec: Recorder, full: bool):
    """Wrap the boundaries for the duration of the block, then restore them."""
    saved = []
    try:
        for owner, attr, factory in _boundaries(rec, full):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _per_name(spans):
    calls, total, self_time = defaultdict(int), defaultdict(float), defaultdict(float)
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child[i]
    return calls, total, self_time


def layer_metrics(rec: Recorder, wall_s: float) -> dict:
    """Per-layer metrics of one traced job whose wall time was wall_s."""
    calls, total, self_time = _per_name(rec.spans)
    stats = rec.stats
    m = {metric: self_time[name] for name, metric in SELF_TIME_METRICS.items()}

    bg_calls = calls["problems.batch_grads"]
    m["problems.batch_grads.calls"] = bg_calls
    m["problems.batch_grads.us_per_call"] = (
        1e6 * self_time["problems.batch_grads"] / bg_calls if bg_calls else 0.0
    )
    m["problems.batch_grads.gflop_computed"] = stats["batch_grads.flop"] / 1e9
    m["problems.batch_grads.gb_computed"] = stats["batch_grads.bytes"] / 1e9
    m["problems.local_grad.calls"] = stats["local_grad.calls"]
    m["problems.average_value.calls"] = calls["problems.average_value"]

    m["sonata.inner_iters.sum"] = stats["inner_iters.sum"]
    m["sonata.inner_iters.max"] = stats["inner_iters.max"]
    m["sonata.subproblems_converged_frac"] = (
        stats["iterations_converged"] / stats["iterations"] if stats["iterations"] else 0.0
    )
    m["sonata.gossip_round.calls"] = calls["sonata.gossip_round"]
    m["sonata.gossip_round.gflop_computed"] = stats["gossip_round.flop"] / 1e9

    m["network.rounds_per_application"] = max(
        (r["rounds_per_application"] for r in rec.runs), default=0
    )
    m["network.edges"] = stats["edges"]

    m["accel.outer_iters"] = sum(r["K_done"] for r in rec.runs)
    m["accel.tracking_check.s"] = total["accel.tracking_check"]

    m["diagnostics.centralized_solve.s"] = total["diagnostics.centralized_solve"]
    m["diagnostics.optimality_gap.calls"] = calls["diagnostics.optimality_gap"]
    # Diagnostics time inside the solve, each nested call counted once.
    names = [s[0] for s in rec.spans]
    diag = sum(
        end - start
        for name, start, end, parent in rec.spans
        if name in DIAGNOSTIC_SPANS and (parent < 0 or names[parent] not in DIAGNOSTIC_SPANS)
    )
    m["diagnostics.share"] = diag / total[ACC] if total[ACC] else 0.0
    m["diagnostics.write_csv.bytes"] = stats["write_csv.bytes"]

    load_s = total["datagen.load_libsvm"]
    m["datagen.load_libsvm.mb_per_s"] = stats["load_libsvm.bytes"] / 1e6 / load_s if load_s else 0.0

    m["trace.wall_s"] = wall_s
    m["trace.unattributed_s"] = wall_s - sum(self_time.values())
    return m

"""The benchmark wraps library attributes by name and reads their arguments
(bench/tracing.py); a refactor that renames one, or passes by keyword what a
wrapper reads by position, would make ``--trace 1`` fail."""

import importlib.util
from pathlib import Path

from sonatasim import cli, sonata

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "data" / "sample200.libsvm"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_bench_module("tracing")


def traced_job(job, spec, out_dir):
    """job(spec, out_dir) with every boundary traced; returns the recorder
    after checking that the per-layer metrics can be computed from it."""
    tracing = load_tracing()
    rec = tracing.Recorder()
    with tracing.installed(rec, full=True):
        job(spec, out_dir)
    tracing.layer_metrics(rec, 1.0)
    return rec


def test_traced_boundaries_are_library_attributes():
    tracing = load_tracing()
    boundaries = tracing._boundaries(tracing.Recorder(), full=True)
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _ in boundaries if attr not in owner.__dict__
    ]
    assert boundaries and not missing


def test_traced_dataset_run(tmp_path, monkeypatch):
    tracing = load_tracing()
    counts = []  # the iteration count of every local step
    solve = sonata.LocalSolver.solve

    def counting_solve(self, *args, **kwargs):
        out = solve(self, *args, **kwargs)
        counts.append(out[2])
        return out

    monkeypatch.setattr(sonata.LocalSolver, "solve", counting_solve)
    cfg = cli.load_config(None, {
        "problem": {"dataset": {"path": str(FIXTURE), "m": 4, "lam": 0.1}},
        "algorithm": {"K_max": 3},
    })
    rec = tracing.Recorder()
    with tracing.installed(rec, full=True):
        cli.execute_run(cfg, tmp_path)
    assert rec.stats["load_libsvm.bytes"] == FIXTURE.stat().st_size
    assert rec.stats["write_csv.bytes"] > 0 and len(rec.runs) == 1
    # the tracer counts the local steps' iterations and none of the oracle's
    assert rec.stats["inner_iters.sum"] == sum(counts) > 0


def test_traced_ridge_sweep_job(tmp_path):
    workloads = load_bench_module("workloads")
    config = {
        "seed": 3,
        "problem": {"synthetic": {"m": 6, "n": 60, "d": 5, "L0": 100.0}},
        "topology": {"kind": "erdos_renyi", "p": 0.6, "seed": 1},
        "output": str(tmp_path / "out"),
    }
    spec = {"config": config, "axis": "beta_over_mu", "points": [60], "eps": 1e-3}
    rec = traced_job(workloads._ridge_sweep_job, spec, tmp_path / "out")
    assert len(rec.runs) == 2  # one accelerated run per surrogate mode
    assert all(run["comms"] > 0 for run in rec.runs)
    assert rec.stats["iterations"] > 0
    # the sweep's gaps pass the traced boundary, so diagnostics.share cannot
    # read 0: one call at each run's start and one stacked call per outer iteration
    metrics = load_tracing().layer_metrics(rec, 1.0)
    assert metrics["diagnostics.optimality_gap.calls"] == metrics["accel.outer_iters"] + 2
    assert metrics["diagnostics.share"] > 0


def test_traced_gossip_job(tmp_path):
    workloads = load_bench_module("workloads")
    spec = {
        "ridge": {"m": 12, "n": 10, "d": 6, "mu0": 1.0, "L0": 100.0, "seed": 7},
        "topology": {"kind": "erdos_renyi", "p": 0.4, "target_rho": 0.3, "seed": 1},
        "mode": "L",
        "target_gap": 1e-6,
    }
    rec = traced_job(workloads._gossip_job, spec, tmp_path)
    (run,) = rec.runs
    assert run["converged"] and run["rounds_per_application"] > 1
    assert rec.stats["edges"] > 0

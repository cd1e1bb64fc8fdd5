"""The benchmark wraps library attributes by name and reads their arguments
(bench/tracing.py); a refactor that renames one, or passes by keyword what a
wrapper reads by position, would make ``--trace 1`` fail."""

import importlib.util
from pathlib import Path

from sonatasim import cli, sonata

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "data" / "sample200.libsvm"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


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

"""Golden outputs: seven ``sonatasim run`` invocations, two ``sonatasim sweep``
invocations and one ``sonatasim lowerbound-check`` rerun byte for byte.

``tests/data/golden/<name>/`` holds the files that ``ARGV[name]`` writes:
``trajectory.csv`` and ``metadata.json`` for a run, ``summary.csv`` and
``metadata.json`` for a sweep, ``lowerbound.json`` for the lower-bound check.
A run or sweep reads ``CONFIGS[name]``.  The metadata is stored without its
``effective_config`` output path and dataset path, which name where a run
happened rather than what it computed.  A change that moves any of these
files regenerates them with ``python tests/test_golden.py --write`` and says
why; that also records the environment that wrote them (``environment.py``),
which a byte mismatch compares with the current one.
"""

import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import environment
from sonatasim import cli, diagnostics, problems

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

# a small synthetic instance whose kappa points calibrate n with lam > 0
SWEEP_CONFIG = {"problem": {"synthetic": {"m": 6, "n": 400, "d": 6, "L0": 100}}}

CONFIGS = {
    # the default config
    "default": {},
    # l1-logistic on a LIBSVM file: the iterative local step with its forcing term
    "logistic-l1": {
        "problem": {
            "dataset": {"path": str(DATA / "sample200.libsvm"), "m": 4, "loss": "logistic", "lam": 0.01}
        },
        "regularizer": {"kind": "l1", "weight": 1e-3},
        "algorithm": {"target_gap": 1e-8},
    },
    # degree-3 Chebyshev gossip on a sparse random graph: the sparse recurrence
    "chebyshev-er": {"topology": {"kind": "erdos_renyi", "p": 0.3, "target_rho": 0.2}},
    # the default config in mode L with potentials: the shifted oracle's error weights
    "potentials-L": {},
    # n < d under Chebyshev gossip: gradients, Hessian bounds and the objective from A
    "d-gt-n": {
        "problem": {"synthetic": {"m": 12, "n": 5, "d": 10}},
        "topology": {"kind": "erdos_renyi", "p": 0.4, "target_rho": 0.3},
        "algorithm": {"mode": "L"},
    },
    # l1 on an exact loss: the reference solver's proximal path on the closed form
    "ridge-l1": {
        "problem": {"synthetic": {"m": 8, "n": 100, "d": 10, "L0": 100}},
        "regularizer": {"kind": "l1", "weight": 200.0},
    },
    # the default smooth-hinge loss on a LIBSVM file under a box constraint
    "hinge-box": {
        "problem": {"dataset": {"path": str(DATA / "sample200.libsvm"), "m": 4, "lam": 0.01}},
        "regularizer": {"kind": "box", "lo": -0.25, "hi": 0.25},
    },
    # the sample-size axis, and the kappa axis with its calibration of n
    "sweep-bmu": SWEEP_CONFIG,
    "sweep-kappa": SWEEP_CONFIG,
}

# the command line of each golden, without its -c and --output
ARGV = {
    "default": ["run"],
    "logistic-l1": ["run"],
    "chebyshev-er": ["run"],
    "potentials-L": ["run", "--potentials", "--mode", "L", "--k-max", "10"],
    "d-gt-n": ["run"],
    "ridge-l1": ["run"],
    "hinge-box": ["run"],
    "sweep-bmu": ["sweep", "--eps", "1e-4", "--axis", "beta_over_mu", "--points", "100,400"],
    "sweep-kappa": ["sweep", "--eps", "1e-4", "--axis", "kappa", "--points", "3,5"],
    # the split-quadratic fixture on weighted line gossip (m = 5 agents)
    "lowerbound": ["lowerbound-check", "--rho", "0.9", "--d", "8", "--rounds", "30"],
}

RUNS = sorted(name for name in ARGV if ARGV[name][0] == "run")
SWEEPS = sorted(name for name in ARGV if ARGV[name][0] == "sweep")


def _without_paths(metadata_text: str) -> str:
    meta = json.loads(metadata_text)
    cfg = meta["effective_config"]
    del cfg["output"]
    cfg["problem"].get("dataset", {}).pop("path", None)
    return json.dumps(meta, indent=2, sort_keys=True, allow_nan=False) + "\n"


def outputs(name: str, work: Path) -> dict[str, bytes]:
    """Run golden ``name`` in ``work``; the bytes of each file it writes, its
    metadata without paths."""
    argv = list(ARGV[name])
    if name in CONFIGS:
        config = work / "config.json"
        config.write_text(json.dumps(CONFIGS[name]))
        argv += ["-c", str(config)]
    out = work / "out"
    assert cli.main([*argv, "--output", str(out)]) == 0
    files = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "metadata.json":
            data = _without_paths(data.decode()).encode()
        files[path.name] = data
    return files


def _check(name, work):
    golden = GOLDEN / name
    files = outputs(name, work)
    assert sorted(files) == sorted(path.name for path in golden.iterdir())
    for fname, data in files.items():
        environment.assert_same_bytes(data, golden / fname)


@pytest.mark.parametrize("name", RUNS)
def test_run_reproduces_golden_output(name, tmp_path):
    _check(name, tmp_path)


@pytest.mark.parametrize("name", RUNS)
def test_run_evaluates_each_point_once(name, tmp_path, monkeypatch):
    # the local step re-evaluated the gradients its caller held, the outer
    # potential the suboptimality of the trajectory row just written, and
    # the inner potential that row's consensus and tracking errors
    calls = Counter()
    batch_grads, suboptimality = problems.batch_grads, diagnostics.Oracle.suboptimality
    consensus_error = diagnostics.consensus_error

    def counted_grads(p, X):
        calls["batch_grads", X.tobytes()] += 1
        return batch_grads(p, X)

    def counted_suboptimality(oracle, X):  # keyed by the problem the oracle solves
        calls["suboptimality", oracle.x_star.tobytes(), np.asarray(X).tobytes()] += 1
        return suboptimality(oracle, X)

    def counted_consensus_error(X):
        calls["consensus_error", np.asarray(X).tobytes()] += 1
        return consensus_error(X)

    monkeypatch.setattr(problems, "batch_grads", counted_grads)
    monkeypatch.setattr(diagnostics.Oracle, "suboptimality", counted_suboptimality)
    monkeypatch.setattr(diagnostics, "consensus_error", counted_consensus_error)
    outputs(name, tmp_path)
    repeated = {"batch_grads": 0, "suboptimality": 0, "consensus_error": 0}
    for (kind, *_), n in calls.items():
        repeated[kind] += n - 1
    assert {kind for kind, *_ in calls} == set(repeated)
    assert repeated == {"batch_grads": 0, "suboptimality": 0, "consensus_error": 0}


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_reproduces_golden_output(name, tmp_path):
    _check(name, tmp_path)


def test_lowerbound_check_reproduces_golden_output(tmp_path):
    _check("lowerbound", tmp_path)


def test_byte_mismatch_names_each_environment_field_that_differs(tmp_path, monkeypatch):
    here = environment.current()
    monkeypatch.setattr(environment, "RECORD", tmp_path / "environment.json")
    committed = tmp_path / "trajectory.csv"
    committed.write_bytes(b"k,gap\n0,1.0\n")
    environment.assert_same_bytes(b"k,gap\n0,1.0\n", committed)
    environment.RECORD.write_text(json.dumps(dict(here, numpy="1.0.0", openblas_core="Haswell")))
    with pytest.raises(AssertionError) as failure:
        environment.assert_same_bytes(b"k,gap\n0,1.1\n", committed)
    message = str(failure.value)
    assert message.startswith(f"{committed}: bytes differ; the environment differs")
    assert f"numpy 1.0.0 recorded, {here['numpy']} here" in message
    assert f"openblas_core Haswell recorded, {here['openblas_core']} here" in message
    assert "python" not in message and "scipy" not in message
    environment.RECORD.write_text(json.dumps(here))
    with pytest.raises(AssertionError, match="the environment is the one that wrote"):
        environment.assert_same_bytes(b"", committed)


def test_environment_record_names_every_field():
    recorded = json.loads(environment.RECORD.read_text())
    assert sorted(recorded) == sorted(environment.current())


def write_goldens() -> None:
    """Regenerate every golden directory from :data:`ARGV` and :data:`CONFIGS`,
    and record the environment that wrote them."""
    for name in ARGV:
        with tempfile.TemporaryDirectory() as work:
            files = outputs(name, Path(work))
        golden = GOLDEN / name
        golden.mkdir(parents=True, exist_ok=True)
        for stale in golden.iterdir():
            stale.unlink()
        for fname, data in files.items():
            (golden / fname).write_bytes(data)
        print(f"wrote {golden}")
    environment.write()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    write_goldens()

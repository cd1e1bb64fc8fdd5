"""Golden outputs: three ``sonatasim run`` configs and one
``sonatasim lowerbound-check`` rerun byte for byte.

``tests/data/golden/<name>/`` holds the ``trajectory.csv`` and
``metadata.json`` of each run below.  The metadata is stored without its
``effective_config`` output path and dataset path, which name where a run
happened rather than what it computed.  ``tests/data/golden/lowerbound/``
holds the ``lowerbound.json`` of :data:`LOWERBOUND_ARGV`.  A change that
moves any of these files regenerates it and says why.
"""

import json
from pathlib import Path

import pytest

from sonatasim import cli

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"

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
}

# the split-quadratic fixture on weighted line gossip (m = 5 agents)
LOWERBOUND_ARGV = ["lowerbound-check", "--rho", "0.9", "--d", "8", "--rounds", "30"]


def _without_paths(metadata_text: str) -> str:
    meta = json.loads(metadata_text)
    cfg = meta["effective_config"]
    del cfg["output"]
    cfg["problem"].get("dataset", {}).pop("path", None)
    return json.dumps(meta, indent=2, sort_keys=True, allow_nan=False) + "\n"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_reproduces_golden_output(name, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIGS[name]))
    out = tmp_path / "out"
    assert cli.main(["run", "-c", str(config), "--output", str(out)]) == 0
    golden = GOLDEN / name
    assert (out / "trajectory.csv").read_bytes() == (golden / "trajectory.csv").read_bytes()
    assert _without_paths((out / "metadata.json").read_text()) == (golden / "metadata.json").read_text()


def test_lowerbound_check_reproduces_golden_output(tmp_path):
    out = tmp_path / "out"
    assert cli.main([*LOWERBOUND_ARGV, "--output", str(out)]) == 0
    golden = GOLDEN / "lowerbound" / "lowerbound.json"
    assert (out / "lowerbound.json").read_bytes() == golden.read_bytes()

"""The benchmark's workloads: inputs made from a seed, and one job each.

``make_input`` runs in the benchmark process and writes everything the job
reads into a work directory; ``run_job`` runs in a fresh process, calls the
library the way a user does, and returns what the job wrote, read back from
its output files.

Each workload solves one fixed data instance, and the seed draws its
network.  Data instances drawn from different seeds differ by up to 2x in
condition number at these sizes, and so in communication rounds and time;
at a fixed instance the count does not depend on the graph drawn, so every
seed does the same work and run-to-run spread is measurement noise.

Why these three (working sets against this machine's L2 of 2 MiB per core,
4 MiB in all, and shared L3 of 105 MiB):

* ``ridge-sweep``: one point of the paper's headline ``beta_over_mu`` sweep
  (``sonatasim sweep``; n=600, m=30, d=25, both surrogate modes).  n >> d
  on a small dense graph; the batched quadratic gradient takes most of the
  time.  A = 30*600*25 doubles = 3.6 MB, about the size of L2; W = 7 KB.
  The sweep's n=2000 point does the same kind of work but takes 2.5x as
  long per job, which leaves too few jobs per run for a steady median.
* ``logistic-l1``: ``sonatasim run`` on a LIBSVM file (N=8000, d=50, m=20,
  logistic loss with an l1 term, mode F).  The only workload on the
  loop-per-agent prox-gradient local solver, on a non-quadratic gradient and
  on the LIBSVM reader.  A = 8000*50 doubles = 3.2 MB, about the size of L2;
  W = 3.2 KB.
* ``gossip-m1000``: the README library quick start at m=1000 agents, n=20,
  d=40, mode L, on a sparse Erdos-Renyi graph with Chebyshev-accelerated
  gossip.  The only workload where the dense m x m mix and the topology
  build matter; n < d per agent.  A = 1000*20*40 doubles = 6.4 MB and
  W = 1000*1000 doubles = 8 MB, both between L2 and L3.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

RIDGE_DATA_SEED = 23  # the acceptance suite's sweep instance (runs/acceptance-bmu)
RIDGE_N = 600  # one of the acceptance sweep's points
RIDGE_EPS = 1e-4

# One fixed file and sharding: files drawn from different seeds, or
# different shardings of one file, differ by up to 10% in communication.
LOGISTIC_DATA_SEED = 1
LOGISTIC_N_SAMPLES = 8000
LOGISTIC_D = 50
LOGISTIC_TARGET = 1e-8
LOGISTIC_SCALES = (0.1, 0.6)  # feature standard deviations, spread over the d columns
LOGISTIC_W_NORM = 2.0  # norm of the planted weight vector

GOSSIP_DATA_SEED = 7  # the README quick start's instance
GOSSIP_M = 1000
GOSSIP_TOPOLOGY = {"kind": "erdos_renyi", "p": 0.01, "target_rho": 0.3}
# Chebyshev degree that most Erdos-Renyi draws at this size need for the
# target; the seed's first draw that needs it is used, so every run pays the
# same rounds per mix (the degree is 3 to 6 over draws).
GOSSIP_ROUNDS = 4
GOSSIP_TARGET = 1e-6


def _ridge_sweep_input(seed: int, work: Path) -> dict:
    config = {
        "seed": RIDGE_DATA_SEED,
        "problem": {
            "synthetic": {"m": 30, "n": RIDGE_N, "d": 25, "mu0": 1.0, "L0": 1000.0, "lam": 0.0}
        },
        "topology": {"kind": "erdos_renyi", "p": 0.5, "seed": seed},
        "output": str(work / "out"),
    }
    return {"config": config, "axis": "beta_over_mu", "points": [RIDGE_N], "eps": RIDGE_EPS}


def _ridge_sweep_job(spec: dict, out_dir: Path) -> dict:
    from sonatasim import cli

    cfg = cli.load_config(None, spec["config"])
    cli.execute_sweep(cfg, spec["axis"], spec["points"], out_dir, spec["eps"])
    with open(out_dir / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {"rows": rows}


def write_libsvm(path: Path, seed: int, n_samples: int, d: int) -> None:
    """Planted logistic model: Gaussian features with a spread of scales,
    labels drawn from the model, written as dense LIBSVM text."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    scales = np.linspace(*LOGISTIC_SCALES, d)
    features = rng.standard_normal((n_samples, d)) * scales
    w = rng.standard_normal(d)
    w *= LOGISTIC_W_NORM / np.linalg.norm(w)
    prob = 1.0 / (1.0 + np.exp(-features @ w))
    labels = np.where(rng.random(n_samples) < prob, 1, -1)
    with open(path, "w") as fh:
        for label, row in zip(labels, features):
            tokens = " ".join(f"{j + 1}:{v:.6f}" for j, v in enumerate(row))
            fh.write(f"{label:+d} {tokens}\n")


def _logistic_l1_input(seed: int, work: Path) -> dict:
    data = work / "logistic.libsvm"
    write_libsvm(data, LOGISTIC_DATA_SEED, LOGISTIC_N_SAMPLES, LOGISTIC_D)
    config = {
        "seed": LOGISTIC_DATA_SEED,
        "problem": {"dataset": {"path": str(data), "m": 20, "loss": "logistic", "lam": 1e-3}},
        "regularizer": {"kind": "l1", "weight": 1e-3},
        "topology": {"kind": "erdos_renyi", "p": 0.5, "seed": seed},
        "algorithm": {"mode": "F", "target_gap": LOGISTIC_TARGET},
        "output": str(work / "out"),
    }
    return {"config": config}


def _logistic_l1_job(spec: dict, out_dir: Path) -> dict:
    from sonatasim import cli

    cfg = cli.load_config(None, spec["config"])
    cli.execute_run(cfg, out_dir)
    with open(out_dir / "metadata.json") as fh:
        meta = json.load(fh)
    return {"result": meta["result"]}


def _gossip_input(seed: int, work: Path) -> dict:
    from sonatasim import network

    for topology_seed in range(100 * seed, 100 * seed + 100):
        base = network.metropolis_hastings(
            network.erdos_renyi(GOSSIP_M, GOSSIP_TOPOLOGY["p"], topology_seed)
        )
        if network.rounds_for_target(base.rho, GOSSIP_TOPOLOGY["target_rho"]) == GOSSIP_ROUNDS:
            break
    else:
        raise RuntimeError(f"no graph needing {GOSSIP_ROUNDS} rounds for seed {seed}")
    return {
        "ridge": {"m": GOSSIP_M, "n": 20, "d": 40, "mu0": 1.0, "L0": 100.0, "seed": GOSSIP_DATA_SEED},
        "topology": dict(GOSSIP_TOPOLOGY, seed=topology_seed),
        "mode": "L",
        "target_gap": GOSSIP_TARGET,
    }


def _gossip_job(spec: dict, out_dir: Path) -> dict:
    from sonatasim import accel, cli, datagen, diagnostics, problems

    p = datagen.gen_ridge(datagen.SyntheticRidgeConfig(**spec["ridge"]))
    constants = problems.estimate_constants(p)
    W = cli.build_gossip({"seed": spec["topology"]["seed"], "topology": spec["topology"]}, p.m)
    params = accel.tune(constants, spec["mode"])
    oracle = diagnostics.centralized_solve(p)
    result = accel.acc_sonata_run(
        p,
        params,
        W,
        gap_fn=lambda X: diagnostics.optimality_gap(p, X, oracle),
        target_gap=spec["target_gap"],
    )
    summary = {
        "K_done": result.K_done,
        "comms": result.comms,
        "converged": result.converged,
        "final_gap": result.gaps[-1] if result.gaps else None,
        "subproblems_converged": all(result.subproblem_converged),
    }
    with open(out_dir / "result.json", "w") as fh:
        json.dump(summary, fh)
    return {"result": summary}


WORKLOADS = {
    "ridge-sweep": (_ridge_sweep_input, _ridge_sweep_job),
    "logistic-l1": (_logistic_l1_input, _logistic_l1_job),
    "gossip-m1000": (_gossip_input, _gossip_job),
}


def make_input(name: str, seed: int, work: Path) -> dict:
    return WORKLOADS[name][0](seed, work)


def run_job(name: str, spec: dict, out_dir: Path) -> dict:
    return WORKLOADS[name][1](spec, out_dir)

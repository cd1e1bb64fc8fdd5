"""Experiment runner: single runs, scaling sweeps, and the lower-bound fixture
check, all driven by a JSON config with CLI-flag overrides.

Outputs per run: a trajectory CSV (one row per inner iteration) and a metadata
JSON sidecar recording every effective parameter.  Sweeps additionally write a
summary CSV with one row per sweep point.  The environment variable
``SONATASIM_OUTPUT_DIR``, when set, is prepended to relative output paths.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import inspect
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import accel, datagen, diagnostics, network, problems, sonata

DEFAULT_TARGET_GAP = 1e-4

# A few extra inner iterations on top of the tuned length keep the inner
# solves uniformly tight across a sweep, so the measured communication
# counts isolate the outer-rate scaling.
SWEEP_T_EXTRA = 4

DEFAULT_CONFIG = {
    "seed": 0,
    "problem": {
        "synthetic": {
            "m": 30,
            "n": 500,
            "d": 25,
            "mu0": 1.0,
            "L0": 1000.0,
            "lam": 0.0,
            "noise_std": datagen.DEFAULT_NOISE_STD,
        }
    },
    "regularizer": {"kind": "zero"},
    "topology": {"kind": "erdos_renyi", "p": 0.5},
    "algorithm": {
        "mode": "F",
        "delta": None,
        "T": None,
        "K_max": 200,
        "c_seq": 0.5,
        "target_gap": DEFAULT_TARGET_GAP,
        "mu_override": None,
        "tuning_variant": "main",
        "subproblem_tol": 1e-10,
        "max_inner_iters": 5000,
    },
    "diagnostics": {"potentials": False},
    "output": "runs/out",
}


class ConfigError(ValueError):
    pass


# problem/topology/regularizer blocks are replaced whole and checked by the
# constructors they feed; algorithm and diagnostics merge field by field.
_REPLACE_BLOCKS = ("problem", "topology", "regularizer", "output", "seed")


def _merge(base: dict, override: dict, path="") -> dict:
    out = dict(base)
    for key, val in override.items():
        if key not in base:
            raise ConfigError(f"unknown config field {path + key!r}")
        if isinstance(base[key], dict) and isinstance(val, dict) and key not in _REPLACE_BLOCKS:
            out[key] = _merge(base[key], val, path + key + ".")
        else:
            out[key] = val
    return out


def load_config(path: str | None, overrides: dict | None = None) -> dict:
    cfg = DEFAULT_CONFIG
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
        except OSError as exc:
            raise ConfigError(f"{path}: {exc.strerror}") from None
        cfg = _merge(cfg, user)
    if overrides:
        cfg = _merge(cfg, overrides)
    return cfg


def resolve_output(cfg_output: str) -> Path:
    base = os.environ.get("SONATASIM_OUTPUT_DIR")
    path = Path(cfg_output)
    if base and not path.is_absolute():
        path = Path(base) / path
    path.mkdir(parents=True, exist_ok=True)
    return path


def _call(block: str, fn, *args, **fields):
    """fn(*args, **fields) for config block ``block``: a field fn does not
    take, a missing one, or a value fn rejects is a ConfigError naming the block."""
    try:
        inspect.signature(fn).bind(*args, **fields)
        return fn(*args, **fields)
    except problems.InputError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{block}: {exc}") from None


def build_regularizer(cfg: dict) -> problems.Regularizer:
    return _call("regularizer", problems.Regularizer, **cfg["regularizer"])


def ridge_config(cfg: dict) -> datagen.SyntheticRidgeConfig:
    """Generator settings from the ``problem.synthetic`` block; its seed
    defaults to the run's."""
    block = {"seed": cfg["seed"], **cfg["problem"]["synthetic"]}
    return _call("problem.synthetic", datagen.SyntheticRidgeConfig, **block)


def build_problem(cfg: dict) -> problems.ProblemSpec:
    block = cfg["problem"]
    reg = build_regularizer(cfg)
    if ("synthetic" in block) == ("dataset" in block):
        raise ConfigError("problem: exactly one of 'synthetic' or 'dataset' required")
    if "synthetic" in block:
        p = datagen.gen_ridge(ridge_config(cfg))
        p.reg = reg
        return p
    ds = {"seed": cfg["seed"], **block["dataset"], "reg": reg}
    path = ds.pop("path", None)
    if path is None or not os.path.isfile(path):
        raise ConfigError(f"problem.dataset.path: no such file {path!r}")
    return _call("problem.dataset", datagen.load_libsvm, path, **ds)


# topology.kind -> graph builder, called with the node count, the topology
# seed and the block's remaining fields.  Each looks its network function up
# at call time, so a wrapper installed on the module (bench/tracing.py) sees it.
_GRAPHS = {
    "erdos_renyi": lambda m, seed, p=0.5: network.erdos_renyi(m, p, seed),
    "line": lambda m, seed: network.line_graph(m),
    "star": lambda m, seed: network.star_graph(m),
    "complete": lambda m, seed: network.complete_graph(m),
}


def build_gossip(cfg: dict, m: int) -> network.GossipMatrix:
    topo = {"seed": cfg["seed"], **cfg["topology"]}
    kind, target = topo.pop("kind", None), topo.pop("target_rho", None)
    if kind == "exact_averaging":  # W = 11^T/m: no graph and nothing to accelerate
        return _call("topology", lambda m, seed: network.exact_averaging(m), m=m, **topo)
    if kind not in _GRAPHS:
        raise ConfigError(f"topology.kind: unknown kind {kind!r}")
    W = network.metropolis_hastings(_call("topology", _GRAPHS[kind], m=m, **topo))
    if target is not None:
        M = _call("topology", network.rounds_for_target, base_rho=W.rho, target_rho=target)
        W = network.chebyshev_accelerate(W, M)
    return W


def _number(alg: dict, name: str, kind, positive: bool = False):
    """algorithm.<name> as a float or int; a value kind rejects, or with
    positive set one that is not exactly a finite value > 0, is a config error."""
    value = alg[name]
    try:
        number = kind(value)
    except (TypeError, ValueError):
        number = None
    if number is None or positive and not (0 < number < math.inf and number == value):
        what = f"a finite {kind.__name__} > 0" if positive else "a number"
        raise ConfigError(f"algorithm.{name}: expected {what}, got {value!r}")
    return number


# algorithm fields that the run reads; every other one is a keyword of accel.tune
_RUN_FIELDS = ("target_gap", "subproblem_tol", "max_inner_iters")


def tune_from_config(constants: problems.Constants, alg: dict) -> accel.AccelParams:
    """accel.tune on an algorithm block; a field value it rejects is a config error."""
    tuning = {k: v for k, v in alg.items() if k not in _RUN_FIELDS}
    return _call("algorithm", accel.tune, constants=constants, **tuning)


def _constants_dict(c: problems.Constants) -> dict:
    return {
        "mu_hat": c.mu_hat,
        "L_hat": c.L_hat,
        "Lmx_hat": c.Lmx_hat,
        "beta_hat": c.beta_hat,
        "kappa_hat": c.kappa_hat,
        "beta_over_mu_hat": c.beta_hat / c.mu_hat,
    }


def _params_dict(params: accel.AccelParams) -> dict:
    return {
        "mode": params.mode,
        "delta": params.delta,
        "alpha": params.alpha,
        "T": params.T,
        "mu": params.mu,
        "surrogate_kind": params.surrogate.kind,
        "surrogate_weight": params.surrogate.weight,
        "c_seq": params.c_seq,
        "K_max": params.K_max,
    }


def _recorded_run(p, params, W, alg: dict, target_gap, **builder_kwargs):
    """acc_sonata_run observed by a TrajectoryBuilder, stopping once the
    recorded gap reaches target_gap; returns (result, trajectory)."""
    subproblem_tol = _number(alg, "subproblem_tol", float, positive=True)
    max_inner_iters = _number(alg, "max_inner_iters", int, positive=True)
    oracle = diagnostics.centralized_solve(p)
    builder = diagnostics.TrajectoryBuilder(p, oracle, params, **builder_kwargs)
    result = accel.acc_sonata_run(
        p,
        params,
        W,
        observer=builder,
        gap_fn=lambda X: builder.traj.rows[-1].gap,  # recorded at X, since T >= 1
        target_gap=target_gap,
        subproblem_tol=subproblem_tol,
        max_inner_iters=max_inner_iters,
    )
    return result, builder.traj


def execute_run(cfg: dict, out_dir: Path) -> dict:
    """One full experiment; writes trajectory.csv + metadata.json, returns metadata."""
    p = build_problem(cfg)
    constants = problems.estimate_constants(p)
    W = build_gossip(cfg, p.m)
    alg = cfg["algorithm"]
    params = tune_from_config(constants, alg)
    result, traj = _recorded_run(
        p,
        params,
        W,
        alg,
        None if alg.get("target_gap") is None else _number(alg, "target_gap", float),
        constants=constants,
        potentials=bool(cfg["diagnostics"]["potentials"]),
    )
    traj.write_csv(out_dir / "trajectory.csv")
    meta = {
        "schema_version": diagnostics.CSV_SCHEMA_VERSION,
        "seed": cfg["seed"],
        "effective_config": cfg,
        "constants": _constants_dict(constants),
        "params": _params_dict(params),
        "network": {
            "rho": W.rho,
            "rounds_per_application": W.rounds_per_application,
            "m": W.m,
        },
        "result": {
            "K_done": result.K_done,
            "comms": result.comms,
            "converged": result.converged,
            "final_gap": result.gaps[-1] if result.gaps else None,
            "subproblems_converged": all(result.subproblem_converged),
        },
    }
    with open(out_dir / "metadata.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return meta


def _comms_for_mode(p, constants, W, alg, mode, eps, T_override=None):
    alg = dict(alg, mode=mode, T=T_override if T_override is not None else alg.get("T"))
    try:
        params = tune_from_config(constants, alg)
    except (accel.DegenerateSimilarityError, accel.PerfectlyConditionedError):
        params = tune_from_config(constants, dict(alg, delta=0.0))
    _, traj = _recorded_run(p, params, W, alg, eps)
    return diagnostics.comms_to_accuracy(traj, eps), params


def calibrate_n_for_beta(
    base: datagen.SyntheticRidgeConfig, beta_target: float, n_start: int, tol: float = 0.06
) -> int:
    """Pick n so the measured similarity lands near beta_target.

    Secant iteration on log n with the locally measured decay exponent
    (roughly n^-1/2, steeper at small n); only returns a value whose
    similarity was actually measured within tolerance or at the last probe.
    """

    def measure(n):
        cfg = dataclasses.replace(base, n=n)
        return problems.estimate_constants(datagen.gen_ridge(cfg)).beta_hat

    n = max(int(n_start), 10)
    history = [(n, measure(n))]
    for _ in range(8):
        n_cur, beta = history[-1]
        ratio = beta / beta_target
        if 1 - tol <= ratio <= 1 + tol:
            break
        exponent = 0.5
        if len(history) >= 2:
            (n1, b1), (n2, b2) = history[-2], history[-1]
            if n1 != n2 and b1 != b2 and b1 > 0 and b2 > 0:
                est = math.log(b1 / b2) / math.log(n2 / n1)
                if 0.2 <= est <= 1.5:
                    exponent = est
        n_next = max(10, int(round(n_cur * ratio ** (1.0 / exponent))))
        if n_next == n_cur:
            break
        history.append((n_next, measure(n_next)))
    return history[-1][0]


def execute_sweep(cfg: dict, axis: str, points: list[float], out_dir: Path, eps: float) -> dict:
    """Sweep an instance axis and record comms-to-eps for both surrogate modes.

    ``beta_over_mu`` and ``samples`` vary the local sample size at fixed
    covariance; ``kappa`` varies the ridge coefficient to hit target condition
    numbers while recalibrating n to hold the similarity ratio fixed.  T is
    frozen per mode across the sweep (largest tuned value) so the measured
    communication counts isolate the outer-rate dependence.
    """
    if "synthetic" not in cfg["problem"]:
        raise ConfigError("sweep requires a synthetic problem block")
    if not points:
        raise ConfigError("sweep needs at least one axis point")
    base = ridge_config(cfg)
    reg = build_regularizer(cfg)
    alg = cfg["algorithm"]

    instances = []
    if axis in ("beta_over_mu", "samples"):
        for n in points:
            instances.append((float(n), dataclasses.replace(base, n=int(n))))
    elif axis == "kappa":
        probe = dataclasses.replace(base, lam=0.0)
        c0 = problems.estimate_constants(datagen.gen_ridge(probe))
        mu_sigma, L_sigma = c0.mu_hat, c0.L_hat
        ratio_target = c0.beta_hat / c0.mu_hat
        for kappa_target in points:
            kt = float(kappa_target)
            if kt <= 1.0:
                raise ConfigError(f"kappa target must exceed 1, got {kt}")
            if kt >= L_sigma / mu_sigma:
                lam = 0.0
            else:
                lam = 0.5 * (L_sigma - kt * mu_sigma) / (kt - 1.0)
            mu_new = mu_sigma + 2 * lam
            n_new = calibrate_n_for_beta(
                dataclasses.replace(base, lam=lam), ratio_target * mu_new, base.n
            )
            instances.append((kt, dataclasses.replace(base, n=n_new, lam=lam)))
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}")

    prepared = []
    for point, gen_cfg in instances:
        p = datagen.gen_ridge(gen_cfg)
        p.reg = reg
        constants = problems.estimate_constants(p)
        prepared.append((point, gen_cfg, p, constants))

    # T does not depend on delta; a given delta skips the degenerate-instance
    # checks, so instances where a mode cannot accelerate still count.
    T_f = max(accel.tune(c, "F", delta=0.0).T for _, _, _, c in prepared) + SWEEP_T_EXTRA
    T_l = max(accel.tune(c, "L", delta=0.0).T for _, _, _, c in prepared) + SWEEP_T_EXTRA

    rows = []
    for point, gen_cfg, p, constants in prepared:
        W = build_gossip(cfg, p.m)
        comms_f, _ = _comms_for_mode(p, constants, W, alg, "F", eps, T_override=T_f)
        comms_l, _ = _comms_for_mode(p, constants, W, alg, "L", eps, T_override=T_l)
        rows.append(
            {
                "axis": axis,
                "point": point,
                "n": gen_cfg.n,
                "lam": float(gen_cfg.lam),
                "beta_over_mu_hat": constants.beta_hat / constants.mu_hat,
                "kappa_hat": constants.kappa_hat,
                "comms_F": comms_f,
                "comms_L": comms_l,
            }
        )

    with open(out_dir / "summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {k: ("not-reached" if v is None else v) for k, v in row.items()}
            )
    meta = {
        "schema_version": diagnostics.CSV_SCHEMA_VERSION,
        "axis": axis,
        "points": points,
        "eps": eps,
        "T_F": T_f,
        "T_L": T_l,
        "rows": rows,
        "effective_config": cfg,
    }
    with open(out_dir / "metadata.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return meta


class SupportTracker(accel.RunObserver):
    """Asserts that nonzero coordinates of left-class agents grow no faster
    than one index per cut crossing (plus the always-available first two)."""

    def __init__(self, left_agents, d_c, threshold=1e-12):
        self.left = list(left_agents)
        self.d_c = d_c
        self.threshold = threshold
        self.max_index_per_round = []  # (comms, max 1-based nonzero index, allowed)
        self.ok = True

    def _check(self, comms, X):
        block = np.abs(X[self.left])
        scale = max(1.0, float(block.max()))
        nz = np.nonzero(block.max(axis=0) > self.threshold * scale)[0]
        max_idx = int(nz[-1]) + 1 if nz.size else 0
        allowed = comms // self.d_c + 2
        self.max_index_per_round.append((comms, max_idx, allowed))
        if max_idx > allowed:
            self.ok = False

    def on_inner_step(self, k, t, comms, X, Y):
        self._check(comms, X)


def lowerbound_check(
    mu: float,
    beta: float,
    rho_target: float,
    d: int,
    rounds: int = 50,
    max_m: int = 4096,
) -> dict:
    """Build the prescribed-deviation line gossip and the split-quadratic
    instance, run the accelerated method, and report cut and support metrics."""
    W, m = network.line_gossip_for_rho(rho_target, max_m)
    p = network.hard_instance(mu, beta, m, d)
    constants = problems.estimate_constants(p)
    params = accel.tune(constants, "F")
    d_c = network.cut_distance(m)
    tracker = SupportTracker(p.meta["left"], d_c)
    # Half-duplex counting: the tracking exchange reads gradients at the
    # already-mixed x, so one local+gossip iteration moves information up to
    # two hops.  The support bound is stated in physical rounds.
    K = max(1, math.ceil(rounds / (2 * params.T)))
    oracle = diagnostics.centralized_solve(p)
    result = accel.acc_sonata_run(
        p,
        params,
        W,
        K_max=K,
        observer=tracker,
        gap_fn=lambda X: diagnostics.optimality_gap(p, X, oracle),
        count_half_duplex=True,
    )
    cut_bound = 0.16 * math.sqrt(1.0 / (1.0 - rho_target))
    return {
        "rho_target": rho_target,
        "rho_achieved": W.rho,
        "m": m,
        "d_c": d_c,
        "cut_bound": cut_bound,
        "cut_bound_ok": (d_c >= cut_bound) if m >= 3 else None,
        "rounds_run": result.comms,
        "support_ok": tracker.ok,
        "max_index_per_round": tracker.max_index_per_round,
        "final_gap": result.gaps[-1] if result.gaps else None,
    }


def _add_common(parser):
    parser.add_argument("-c", "--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument("--output", help="override output directory")


def _overrides_from_args(args) -> dict:
    over: dict = {}
    if getattr(args, "seed", None) is not None:
        over["seed"] = args.seed
    if getattr(args, "output", None):
        over["output"] = args.output
    alg = {}
    for name in ("mode", "K_max", "target_gap", "T"):
        val = getattr(args, name.lower(), None)
        if val is not None:
            alg[name] = val
    if getattr(args, "plain", False):
        alg["delta"] = 0.0
    if alg:
        over["algorithm"] = alg
    if getattr(args, "potentials", False):
        over["diagnostics"] = {"potentials": True}
    return over


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sonatasim",
        description="Decentralized optimization experiments over gossip networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="single experiment -> trajectory CSV")
    _add_common(run_p)
    run_p.add_argument("--mode", choices=["F", "L"])
    run_p.add_argument("--k-max", dest="k_max", type=int)
    run_p.add_argument("--target-gap", dest="target_gap", type=float)
    run_p.add_argument("--plain", action="store_true", help="delta = 0 (no acceleration)")
    run_p.add_argument("--potentials", action="store_true", help="record potential functions")

    sweep_p = sub.add_parser("sweep", help="scaling study -> summary CSV")
    _add_common(sweep_p)
    sweep_p.add_argument("--axis", required=True, choices=["beta_over_mu", "kappa", "samples"])
    sweep_p.add_argument("--points", required=True, help="comma-separated axis points")
    sweep_p.add_argument("--eps", type=float, default=DEFAULT_TARGET_GAP)

    lb_p = sub.add_parser("lowerbound-check", help="hard-instance fixture report")
    lb_p.add_argument("--mu", type=float, default=0.01)
    lb_p.add_argument("--beta", type=float, default=0.5)
    lb_p.add_argument("--rho", type=float, required=True)
    lb_p.add_argument("--d", type=int, default=12)
    lb_p.add_argument("--rounds", type=int, default=50)
    lb_p.add_argument("--output", help="output directory")

    est_p = sub.add_parser("estimate-constants", help="print estimated problem constants")
    _add_common(est_p)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = load_config(args.config, _overrides_from_args(args))
            out_dir = resolve_output(cfg["output"])
            meta = execute_run(cfg, out_dir)
            print(json.dumps({"output": str(out_dir), **meta["result"]}, sort_keys=True))
            print(json.dumps({"params": meta["params"], "constants": meta["constants"]}, sort_keys=True))
            return 0
        if args.command == "sweep":
            cfg = load_config(args.config, _overrides_from_args(args))
            out_dir = resolve_output(cfg["output"])
            points = [float(tok) for tok in args.points.split(",") if tok]
            meta = execute_sweep(cfg, args.axis, points, out_dir, args.eps)
            print(json.dumps({"output": str(out_dir), "rows": meta["rows"]}, sort_keys=True))
            return 0
        if args.command == "lowerbound-check":
            report = lowerbound_check(args.mu, args.beta, args.rho, args.d, args.rounds)
            if args.output:
                out_dir = resolve_output(args.output)
                with open(out_dir / "lowerbound.json", "w") as fh:
                    json.dump(report, fh, indent=2, sort_keys=True)
                    fh.write("\n")
            summary = {k: v for k, v in report.items() if k != "max_index_per_round"}
            print(json.dumps(summary, sort_keys=True))
            if not report["support_ok"]:
                print("support-propagation invariant violated", file=sys.stderr)
                return 1
            return 0
        if args.command == "estimate-constants":
            cfg = load_config(args.config, _overrides_from_args(args))
            p = build_problem(cfg)
            constants = problems.estimate_constants(p)
            print(json.dumps(_constants_dict(constants), indent=2, sort_keys=True))
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except problems.InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (diagnostics.OracleNotConvergedError, network.TopologyError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

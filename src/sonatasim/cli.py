"""Experiment runner: single runs, scaling sweeps, and the lower-bound fixture
check, all driven by a JSON config with CLI-flag overrides.

Outputs per run: a trajectory CSV (one row per inner iteration) and a metadata
JSON sidecar recording every effective parameter.  Sweeps additionally write a
summary CSV with one row per sweep point.  The environment variable
``SONATASIM_OUTPUT_DIR``, when set, is prepended to relative output paths.
Calibration and support cutoffs are :data:`CALIBRATION_TOL`,
:data:`CALIBRATION_MAX_PROBES` and :data:`SUPPORT_THRESHOLD`.
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

from . import accel, datagen, diagnostics, network, problems

# A few extra inner iterations on top of the tuned length keep the inner
# solves uniformly tight across a sweep, so the measured communication
# counts isolate the outer-rate scaling.
SWEEP_T_EXTRA = 4
CALIBRATION_TOL = 0.06  # largest relative miss of a kappa point's similarity target
CALIBRATION_MAX_PROBES = 20  # sample sizes a kappa point's calibration tries
SUPPORT_THRESHOLD = 1e-12  # support cutoff, relative to max(1, the left block's largest entry)


def _keyword_defaults(fn, *skip) -> dict:
    """The parameters of fn that have a default, but those named in skip."""
    return {q.name: q.default for q in inspect.signature(fn).parameters.values()
            if q.default is not q.empty and q.name not in skip}


DEFAULT_CONFIG = {
    "seed": 0,
    "problem": {
        "synthetic": {"m": 30, "n": 500, "d": 25},
    },
    "regularizer": {"kind": "zero"},
    "topology": {"kind": "erdos_renyi", "p": 0.5},
    # every field but target_gap is a keyword of accel.tune, which checks it;
    # target_gap is where run stops and what sweep measures to (its --eps)
    "algorithm": {"mode": "F", **_keyword_defaults(accel.tune), "target_gap": 1e-4},
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


def load_config(path: str | None, overrides: dict | None) -> dict:
    cfg = DEFAULT_CONFIG
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from None
        except OSError as exc:
            raise ConfigError(f"{path}: {exc.strerror}") from None
        if not isinstance(user, dict):
            raise ConfigError(f"{path}: expected an object, got {json.dumps(user)}")
        cfg = _merge(cfg, user)
    if overrides:
        cfg = _merge(cfg, overrides)
    _check_problem_keys(cfg["problem"])
    _check_values(cfg, DEFAULT_CONFIG)
    return cfg


def _check_problem_keys(block):
    """The problem block, replaced whole by _merge, holds exactly one problem
    source and nothing else, so a misspelt sibling of it does not go unnoticed."""
    if not isinstance(block, dict):
        raise ConfigError(f"problem: expected an object, got {json.dumps(block)}")
    for key, source in block.items():
        if key not in ("synthetic", "dataset"):
            raise ConfigError(f"unknown config field {'problem.' + key!r}")
        if not isinstance(source, dict):
            raise ConfigError(f"problem: {key!r} takes an object, got {json.dumps(source)}")
    if len(block) != 1:
        raise ConfigError("problem: exactly one of 'synthetic' or 'dataset' required")


def _check_values(cfg: dict, defaults, path=""):
    """Reject a value of another type in a field whose default is an object,
    a boolean or a string, a JSON true/false in a field whose default is not
    a boolean (float(True) == 1.0 passes any numeric check) and a non-finite
    number, which metadata.json could not echo back."""
    for key, val in cfg.items():
        default = defaults.get(key) if isinstance(defaults, dict) else None
        where = path[:-1] or key
        if isinstance(default, dict) and not isinstance(val, dict):
            raise ConfigError(f"{where}: {key!r} takes an object, got {json.dumps(val)}")
        if isinstance(default, (bool, str)) and type(val) is not type(default):
            kind = "boolean" if isinstance(default, bool) else "string"
            raise ConfigError(f"{where}: {key!r} takes a {kind}, got {json.dumps(val)}")
        if isinstance(val, dict):
            _check_values(val, default, path + key + ".")
        elif isinstance(val, bool) and not isinstance(default, bool):
            raise ConfigError(f"{where}: {key!r} takes no boolean, got {json.dumps(val)}")
        elif isinstance(val, float) and not math.isfinite(val):
            raise ConfigError(f"{where}: {key!r} takes a finite number, got {val!r}")


def _json(obj, indent=None) -> str:
    """obj as JSON text; a non-finite number in it is a DivergenceError, so
    that NaN or Infinity never reaches an output."""
    try:
        return json.dumps(obj, indent=indent, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise problems.DivergenceError(f"non-finite value in the output ({exc})") from None


def _write_json(path: Path, obj) -> None:
    path.write_text(_json(obj, indent=2) + "\n")


def output_path(cfg_output: str) -> Path:
    """The output directory a config names, under SONATASIM_OUTPUT_DIR when
    that is set and the name is relative; nothing is created.  An empty name
    is a ConfigError: it would write into the working directory.  So is a
    name whose nearest existing path is not a directory, which no run could
    write into."""
    if not cfg_output:
        raise ConfigError("output: the output directory is an empty path")
    base = os.environ.get("SONATASIM_OUTPUT_DIR")
    path = Path(cfg_output)
    if base and not path.is_absolute():
        path = Path(base) / path
    existing = next(q for q in (path, *path.parents) if q.exists())
    if not existing.is_dir():
        raise ConfigError(f"output: {existing} is not a directory")
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
    reg = build_regularizer(cfg)  # checked before any data is generated or read
    if "synthetic" in block:
        p = datagen.gen_ridge(ridge_config(cfg))
    else:
        ds = {"seed": cfg["seed"], **block["dataset"]}
        path = ds.pop("path", None)
        if not isinstance(path, str) or not os.path.isfile(path):
            raise ConfigError(f"problem.dataset.path: no such file {path!r}")
        p = _call("problem.dataset", datagen.load_libsvm, path, **ds)
    p.reg = reg
    return p


def build_gossip(cfg: dict, m: int) -> network.GossipMatrix | network.ChebyshevGossip:
    """The topology block's operator on m nodes: its kind's base matrix (a
    graph's weighted by Metropolis-Hastings), accelerated to target_rho by
    :func:`network.chebyshev_accelerate` when set.  Only erdos_renyi takes a
    seed, the run's unless the block sets one.  Each builder looks its
    network function up at call time, so a wrapper installed on the module
    (bench/tracing.py) sees it."""
    topo = dict(cfg["topology"])
    kind, target = topo.pop("kind", None), topo.pop("target_rho", None)
    bases = {
        "erdos_renyi": lambda p=0.5, seed=cfg["seed"]: network.erdos_renyi(m, p, seed),
        "line": lambda: network.line_graph(m),
        "star": lambda: network.star_graph(m),
        "complete": lambda: network.complete_graph(m),
        "exact_averaging": lambda: network.exact_averaging(m),
    }
    if kind not in bases:
        raise ConfigError(f"topology.kind: unknown kind {kind!r}")
    W = _call("topology", bases[kind], **topo)
    if isinstance(W, network.Graph):
        W = network.metropolis_hastings(W)
    if target is not None:
        W = _call("topology", network.chebyshev_accelerate, W, target_rho=target)
    return W


def _check_target_gap(value, sweep: bool) -> float | None:
    """algorithm.target_gap, the gap a run stops at and a sweep measures to
    (its --eps): a finite number > 0, or for a run null (no early stop)."""
    if value is None and not sweep:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < math.inf:
        name = "sweep eps (algorithm.target_gap)" if sweep else "algorithm.target_gap"
        expected = "a finite number > 0" + ("" if sweep else " or null")
        raise ConfigError(f"{name}: expected {expected}, got {value!r}")
    return float(value)


def tune_from_config(constants: problems.Constants, alg: dict) -> accel.AccelParams:
    """accel.tune on an algorithm block but target_gap; a value it rejects is a config error."""
    tuning = {k: v for k, v in alg.items() if k != "target_gap"}
    return _call("algorithm", accel.tune, constants=constants, **tuning)


def effective_config(cfg: dict) -> dict:
    """cfg with the generator's or reader's defaults filled into its problem
    block, but the seed, which follows the top-level one unless set."""
    kind = "synthetic" if "synthetic" in cfg["problem"] else "dataset"
    fn = datagen.SyntheticRidgeConfig if kind == "synthetic" else datagen.load_libsvm
    defaults = _keyword_defaults(fn, "seed")
    return {**cfg, "problem": {**cfg["problem"], kind: {**defaults, **cfg["problem"][kind]}}}


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
        "delta": params.delta,
        "alpha": params.alpha,
        "T": params.T,
        "surrogate_weight": params.surrogate_weight,
    }


def execute_run(cfg: dict, out_dir: Path) -> dict:
    """One full experiment; writes trajectory.csv + metadata.json, returns
    metadata.  out_dir is created only once the run has finished."""
    target_gap = _check_target_gap(cfg["algorithm"]["target_gap"], sweep=False)
    p = build_problem(cfg)
    constants = problems.estimate_constants(p)
    W = build_gossip(cfg, p.m)
    params = tune_from_config(constants, cfg["algorithm"])
    # the potentials are recorded when the builder is given the constants
    builder = diagnostics.TrajectoryBuilder(
        p,
        diagnostics.centralized_solve(p),
        params,
        constants if cfg["diagnostics"]["potentials"] else None,
    )
    result = accel.acc_sonata_run(
        p,
        params,
        W,
        observer=builder,
        gap_fn=lambda X: builder.traj.rows[-1].gap,  # recorded at X, since T >= 1
        target_gap=target_gap,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    builder.traj.write_csv(out_dir / "trajectory.csv")
    meta = {
        "schema_version": diagnostics.CSV_SCHEMA_VERSION,
        "effective_config": effective_config(cfg),
        "constants": _constants_dict(constants),
        "params": _params_dict(params),
        "network": {
            "rho": W.rho,
            "rounds_per_application": W.rounds_per_application,
        },
        "result": {
            "K_done": result.K_done,
            "comms": result.comms,
            "converged": result.converged,
            "final_gap": result.gaps[-1] if result.gaps else None,
            "subproblems_converged": all(result.subproblem_converged),
        },
    }
    _write_json(out_dir / "metadata.json", meta)
    return meta


def _comms_for_mode(p, oracle, constants, W, alg, mode, eps, T):
    """Communication rounds until the gap to ``oracle`` first reaches eps in
    ``mode`` with inner length T (None: tuned), None if it never does, from
    a run that stops once its outer iterate does."""
    alg = dict(alg, mode=mode, T=T)
    try:
        params = tune_from_config(constants, alg)
    except (accel.DegenerateSimilarityError, accel.PerfectlyConditionedError):
        params = tune_from_config(constants, dict(alg, delta=0.0))
    counter = diagnostics.CommsToAccuracy(p, oracle, eps)
    accel.acc_sonata_run(
        p, params, W, observer=counter, gap_fn=lambda X: counter.gap, target_gap=eps
    )
    return counter.comms


class CalibrationError(problems.RuntimeFailure):
    """A kappa sweep point's sample size missed its similarity target."""


def calibrate_n_for_beta(
    instance, lam: float, beta_target: float, n_start: int
) -> tuple[problems.ProblemSpec, problems.Constants]:
    """Pick n so the measured similarity of ``instance(n)`` with ridge
    coefficient lam lands within :data:`CALIBRATION_TOL` of beta_target;
    returns the instance and the constants of the first probe that does.

    Each step is a secant step on log n with the locally measured decay
    exponent (roughly n^-1/2, steeper at small n).  Once the target is
    bracketed by the closest sizes probed on either side of it, a step that
    is not strictly inside the bracket probes its geometric midpoint instead.
    ``instance(n)`` is a generated instance with n samples per agent, whose
    lam is replaced.  A size probed twice, or :data:`CALIBRATION_MAX_PROBES`
    probes, without landing raises :class:`CalibrationError`.
    """
    history = []  # (n, beta_hat) of every probe, in order
    probes = {}

    def lands(n):
        p = dataclasses.replace(instance(n), lam=lam)
        probes[n] = p, problems.estimate_constants(p)
        history.append((n, probes[n][1].beta_hat))
        return 1 - CALIBRATION_TOL <= history[-1][1] / beta_target <= 1 + CALIBRATION_TOL

    n = max(int(n_start), 10)
    while not lands(n):
        n_cur, beta = history[-1]
        exponent = 0.5
        if len(history) >= 2:
            (n1, b1), (n2, b2) = history[-2], history[-1]
            if n1 != n2 and b1 != b2 and b1 > 0 and b2 > 0:
                est = math.log(b1 / b2) / math.log(n2 / n1)
                if 0.2 <= est <= 1.5:
                    exponent = est
        n = max(10, int(round(n_cur * (beta / beta_target) ** (1.0 / exponent))))
        # the similarity falls as n grows: too few samples above the target
        small = [k for k, b in history if b > beta_target]
        large = [k for k, b in history if b < beta_target and k > max(small, default=0)]
        if small and large:
            lo, hi = max(small), min(large)
            if not lo < n < hi:
                n = int(round(math.sqrt(lo * hi)))
        if n in probes or len(history) == CALIBRATION_MAX_PROBES:
            n, beta = history[-1]
            raise CalibrationError(
                f"similarity {beta:.6g} at n = {n} is {beta / beta_target:.3f} times the "
                f"target {beta_target:.6g}, outside the {CALIBRATION_TOL:.0%} tolerance"
            )
    return probes[n]


# Fields a sweep sets itself or has no use for: any other value than the
# default would be recorded in metadata.json without taking effect.
_SWEEP_UNUSED = {
    ("algorithm", "mode"): "a sweep runs both modes",
    ("algorithm", "T"): "a sweep fixes T per mode across its points",
    ("diagnostics", "potentials"): "a sweep records no potentials",
}


def _check_unused(field: str, reason: str, val, default) -> None:
    if val != default:
        raise ConfigError(
            f"{field}: {reason}; leave it at {json.dumps(default)}, got {json.dumps(val)}"
        )


def execute_sweep(
    cfg: dict, axis: str, points: list[float], out_dir: Path, eps: float
) -> list[dict]:
    """Sweep an instance axis and record comms-to-eps for both surrogate modes.

    ``beta_over_mu`` varies the local sample size at fixed covariance;
    ``kappa`` varies the ridge coefficient to hit target condition numbers
    while recalibrating n to hold the similarity ratio fixed, so a configured
    ``problem.synthetic.lam`` other than the default is an error, and a point
    whose calibration misses raises :class:`CalibrationError`.  Each sample
    size is generated once, whatever the points need it for.  T is frozen per
    mode across the sweep (largest tuned value) so the measured communication
    counts isolate the outer-rate dependence.  eps is recorded as the
    effective config's ``algorithm.target_gap``.  out_dir is created only
    once every point has run.  Returns the rows of summary.csv, with None
    where it has ``not-reached``.
    """
    if "synthetic" not in cfg["problem"]:
        raise ConfigError("sweep requires a synthetic problem block")
    for (block, key), reason in _SWEEP_UNUSED.items():
        _check_unused(f"{block}.{key}", reason, cfg[block][key], DEFAULT_CONFIG[block][key])
    if not points:
        raise ConfigError("sweep needs at least one axis point")
    eps = _check_target_gap(eps, sweep=True)
    if axis not in ("beta_over_mu", "kappa"):
        raise ConfigError(f"unknown sweep axis {axis!r}")
    for point in points:
        if axis == "kappa" and not 1 < point < math.inf:
            raise ConfigError(f"kappa target must be finite and exceed 1, got {point!r}")
        if axis != "kappa" and not (1 <= point < math.inf and point == int(point)):
            raise ConfigError(f"{axis} point must be an integer >= 1, got {point!r}")
    base = ridge_config(cfg)
    if axis == "kappa":
        lam = _keyword_defaults(datagen.SyntheticRidgeConfig)["lam"]
        _check_unused("problem.synthetic.lam", "the kappa axis sets lam per point", base.lam, lam)
    reg = build_regularizer(cfg)
    alg = cfg["algorithm"]

    # A and b do not depend on lam, so each sample size is generated once
    generated = {}

    def instance(n):
        if n not in generated:
            generated[n] = datagen.gen_ridge(dataclasses.replace(base, n=n))
        return generated[n]

    prepared = []  # (point, instance, constants)
    if axis == "beta_over_mu":
        for n in points:
            p = instance(int(n))
            prepared.append((float(n), p, problems.estimate_constants(p)))
    else:
        c0 = problems.estimate_constants(dataclasses.replace(instance(base.n), lam=0.0))
        if not c0.beta_hat > 0:
            raise problems.InputError(
                f"the kappa axis holds beta_hat / mu_hat fixed, and the lam = 0 base "
                f"instance has beta_hat = {c0.beta_hat}: no sample size can calibrate it"
            )
        mu_sigma, L_sigma = c0.mu_hat, c0.L_hat
        ratio_target = c0.beta_hat / c0.mu_hat
        for kappa_target in points:
            kt = float(kappa_target)
            if kt >= L_sigma / mu_sigma:
                lam = 0.0
            else:
                lam = 0.5 * (L_sigma - kt * mu_sigma) / (kt - 1.0)
            mu_new = mu_sigma + 2 * lam
            try:
                calibrated = calibrate_n_for_beta(instance, lam, ratio_target * mu_new, base.n)
            except CalibrationError as exc:
                raise CalibrationError(f"kappa point {kt!r}: {exc}") from None
            prepared.append((kt, *calibrated))
    for _, p, _ in prepared:
        p.reg = reg  # the constants are the loss's alone

    # T does not depend on delta; a given delta skips the degenerate-instance
    # checks, so instances where a mode cannot accelerate still count.
    T_f = max(accel.tune(c, "F", delta=0.0).T for _, _, c in prepared) + SWEEP_T_EXTRA
    T_l = max(accel.tune(c, "L", delta=0.0).T for _, _, c in prepared) + SWEEP_T_EXTRA

    # every point has the base's m agents, so one gossip matrix serves them all
    W = build_gossip(cfg, base.m)
    rows = []
    for point, p, constants in prepared:
        oracle = diagnostics.centralized_solve(p)
        comms_f = _comms_for_mode(p, oracle, constants, W, alg, "F", eps, T_f)
        comms_l = _comms_for_mode(p, oracle, constants, W, alg, "L", eps, T_l)
        rows.append(
            {
                "axis": axis,
                "point": point,
                "n": p.n,
                "lam": float(p.lam),
                "beta_over_mu_hat": constants.beta_hat / constants.mu_hat,
                "kappa_hat": constants.kappa_hat,
                "comms_F": comms_f,
                "comms_L": comms_l,
            }
        )

    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {k: ("not-reached" if v is None else v) for k, v in row.items()}
            )
    meta = {
        "schema_version": diagnostics.CSV_SCHEMA_VERSION,
        "T_F": T_f,
        "T_L": T_l,
        "effective_config": effective_config(dict(cfg, algorithm=dict(alg, target_gap=eps))),
    }
    _write_json(out_dir / "metadata.json", meta)
    return rows


class SupportTracker(accel.RunObserver):
    """Asserts that nonzero coordinates of left-class agents grow no faster
    than one index per cut crossing (plus the always-available first two)."""

    def __init__(self, left_agents, d_c):
        self.left = list(left_agents)
        self.d_c = d_c
        self.max_index_per_round = []  # (comms, max 1-based nonzero index, allowed)

    def on_inner_step(self, k, t, comms, X, Y):
        block = np.abs(X[self.left])
        scale = max(1.0, float(block.max()))
        nz = np.nonzero(block.max(axis=0) > SUPPORT_THRESHOLD * scale)[0]
        max_idx = int(nz[-1]) + 1 if nz.size else 0
        self.max_index_per_round.append((comms, max_idx, comms // self.d_c + 2))


def lowerbound_check(mu: float, beta: float, rho_target: float, d: int, rounds: int) -> dict:
    """Build the prescribed-deviation line gossip and the split-quadratic
    instance, run the accelerated method, and report cut and support metrics."""
    if rounds < 1:
        raise problems.InputError(f"rounds must be >= 1, got {rounds}")
    W = network.line_gossip_for_rho(rho_target)
    m = W.m
    # Half-duplex counting: the tracking exchange reads gradients at the
    # already-mixed x, so one local+gossip iteration moves information up to
    # two hops.  The support bound is stated in physical rounds.
    W = dataclasses.replace(W, rounds_per_application=2)
    p = network.hard_instance(mu, beta, m, d)
    constants = problems.estimate_constants(p)
    params = accel.tune(constants, "F")
    K = math.ceil(rounds / (W.rounds_per_application * params.T))
    params = dataclasses.replace(params, K_max=K)
    d_c = network.cut_distance(m)
    tracker = SupportTracker(network.boundary_classes(m)[0], d_c)
    oracle = diagnostics.centralized_solve(p)
    result = accel.acc_sonata_run(
        p,
        params,
        W,
        observer=tracker,
        gap_fn=lambda X: diagnostics.optimality_gap(p, X, oracle),
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
        "support_ok": all(idx <= allowed for _, idx, allowed in tracker.max_index_per_round),
        "max_index_per_round": tracker.max_index_per_round,
        "final_gap": result.gaps[-1] if result.gaps else None,
    }


def _add_common(parser):
    parser.add_argument("-c", "--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="override config seed")


def _overrides_from_args(args) -> dict:
    over: dict = {}
    if getattr(args, "seed", None) is not None:
        over["seed"] = args.seed
    if getattr(args, "output", None) is not None:
        over["output"] = args.output
    alg = {}
    for name in ("mode", "K_max", "target_gap"):
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
    run_p.add_argument("--output", help="override output directory")
    run_p.add_argument("--mode", choices=["F", "L"])
    run_p.add_argument("--k-max", dest="k_max", type=int)
    run_p.add_argument("--target-gap", dest="target_gap", type=float)
    run_p.add_argument("--plain", action="store_true", help="delta = 0 (no acceleration)")
    run_p.add_argument("--potentials", action="store_true", help="record potential functions")

    sweep_p = sub.add_parser("sweep", help="scaling study -> summary CSV")
    _add_common(sweep_p)
    sweep_p.add_argument("--output", help="override output directory")
    sweep_p.add_argument("--axis", required=True, choices=["beta_over_mu", "kappa"])
    sweep_p.add_argument("--points", required=True, help="comma-separated axis points")
    sweep_p.add_argument("--eps", dest="target_gap", type=float, help="algorithm.target_gap")

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
            out_dir = output_path(cfg["output"])
            meta = execute_run(cfg, out_dir)
            print(_json({"output": str(out_dir), **meta["result"]}))
            print(_json({"params": meta["params"], "constants": meta["constants"]}))
            return 0
        if args.command == "sweep":
            cfg = load_config(args.config, _overrides_from_args(args))
            try:
                points = [float(tok) for tok in args.points.split(",")]
            except ValueError:
                raise ConfigError(f"--points: not a list of numbers: {args.points!r}") from None
            out_dir = output_path(cfg["output"])
            rows = execute_sweep(cfg, args.axis, points, out_dir, cfg["algorithm"]["target_gap"])
            print(_json({"output": str(out_dir), "rows": rows}))
            return 0
        if args.command == "lowerbound-check":
            out_dir = None if args.output is None else output_path(args.output)
            report = lowerbound_check(args.mu, args.beta, args.rho, args.d, args.rounds)
            if out_dir is not None:
                out_dir.mkdir(parents=True, exist_ok=True)
                _write_json(out_dir / "lowerbound.json", report)
            summary = {k: v for k, v in report.items() if k != "max_index_per_round"}
            print(_json(summary))
            if not report["support_ok"]:
                print("support-propagation invariant violated", file=sys.stderr)
                return 1
            return 0
        if args.command == "estimate-constants":
            cfg = load_config(args.config, _overrides_from_args(args))
            p = build_problem(cfg)
            constants = problems.estimate_constants(p)
            print(_json(_constants_dict(constants), indent=2))
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except problems.InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except problems.RuntimeFailure as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an output that cannot be written, say
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

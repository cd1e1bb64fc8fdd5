"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  Run with `pytest tests/test_acceptance.py -v -s`.

Criteria 6 and 7 also compare their sweeps byte for byte with the committed
copies under ``runs/``; a change that moves either regenerates both with
``python tests/test_acceptance.py --write`` and says why; that also records
the environment that wrote them (``environment.py``), which a byte mismatch
compares with the current one.
"""

import json
import math
import sys
import time
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import environment
import reference
from sonatasim import accel, cli, datagen, diagnostics, network, problems, sonata


def _report(number, name, elapsed, budget, detail=""):
    print(f"ACCEPTANCE {number:>2} {name}: PASS ({elapsed:.2f}s < {budget}s) {detail}")
    assert elapsed < budget, f"runtime budget exceeded: {elapsed:.1f}s >= {budget}s"


RUNS = Path(__file__).resolve().parent.parent / "runs"


def _assert_matches_committed(out, name):
    """The regenerated sweep equals the committed reference copy byte for
    byte, and the committed effective config loads back as a config unchanged."""
    committed = RUNS / name
    committed_config = json.loads((committed / "metadata.json").read_text())["effective_config"]
    assert cli.load_config(None, committed_config) == committed_config
    for fname in ("metadata.json", "summary.csv"):
        environment.assert_same_bytes((out / fname).read_bytes(), committed / fname)


def _timer():
    start = time.perf_counter()
    return lambda: time.perf_counter() - start


@lru_cache(maxsize=None)
def _pilot_seed(m=30, d=25, min_ratio=25.0):
    """First candidate seed whose synthetic family reaches a high
    similarity-to-strong-convexity ratio at moderate sample size."""
    for seed in (23, 47, 53, 17, 41, 43, 5, 7, 11, 13):
        cfg = datagen.SyntheticRidgeConfig(m=m, n=400, d=d, mu0=1.0, L0=1000.0, seed=seed)
        c = problems.estimate_constants(datagen.gen_ridge(cfg))
        if c.beta_hat / c.mu_hat >= min_ratio:
            return seed
    raise RuntimeError("no candidate seed qualifies")


def _sweep_config(n):
    """Config of criteria 6 and 7's sweeps: the pilot family at base size n."""
    return {
        "seed": _pilot_seed(),
        "problem": {"synthetic": {"m": 30, "d": 25, "n": n, "mu0": 1.0, "L0": 1000.0, "lam": 0.0}},
        "topology": {"kind": "erdos_renyi", "p": 0.5},
    }


def _bmu_sweep():
    """(config, axis, points) of criterion 6."""
    return _sweep_config(400), "beta_over_mu", [50, 180, 600, 2000, 7000]


def _kappa_sweep():
    """(config, axis, points) of criterion 7: the base instance's condition
    number down to a thirteenth of it."""
    cfg = _sweep_config(5000)
    kappa0 = problems.estimate_constants(datagen.gen_ridge(cli.ridge_config(cfg))).kappa_hat
    return cfg, "kappa", [kappa0, kappa0 / 2.0, kappa0 / 4.0, kappa0 / 8.0, kappa0 / 13.0]


SWEEPS = {"acceptance-bmu": _bmu_sweep, "acceptance-kappa": _kappa_sweep}


def run_sweep(name, out):
    """Run sweep ``name`` to eps 1e-4 into out and return its rows; the
    metadata records the committed copy's output path, runs/<name>."""
    cfg, axis, points = SWEEPS[name]()
    cfg = cli.load_config(None, dict(cfg, output=f"runs/{name}"))
    return cli.execute_sweep(cfg, axis, points, out, 1e-4)


def test_criterion_01_gossip_matrix_contract():
    done = _timer()
    matrices = [
        network.metropolis_hastings(network.erdos_renyi(30, 0.5, seed=1)),
        network.metropolis_hastings(network.line_graph(12)),
        network.metropolis_hastings(network.star_graph(9)),
        network.exact_averaging(7),
        network.line_gossip_for_rho(0.9),
        network.ChebyshevGossip(
            network.metropolis_hastings(network.erdos_renyi(20, 0.4, seed=2)), 4
        ),
    ]
    for gm in matrices:
        ones = np.ones(gm.m)
        W = gm.mix(np.eye(gm.m))
        assert np.max(np.abs(W @ ones - ones)) <= 1e-12
        assert np.max(np.abs(W.T @ ones - ones)) <= 1e-12
        fresh = np.abs(network._spectrum(W)).max()
        assert abs(gm.rho - fresh) <= 1e-10
        assert gm.rho < 1
    _report(1, "gossip matrix contract", done(), 1.0, f"{len(matrices)} matrices")


def test_criterion_02_chebyshev_acceleration():
    done = _timer()
    details = []
    for rho_bar in (0.5, 0.9, 0.99):
        base = network.line_gossip_for_rho(rho_bar)
        acc = network.chebyshev_accelerate(base, 0.1)
        ones = np.ones(base.m)
        assert np.max(np.abs(acc.mix(np.eye(base.m)) @ ones - ones)) <= 1e-12
        assert acc.rho <= 0.1
        details.append(f"rho={rho_bar}:M={acc.M},achieved={acc.rho:.3g}")
    _report(2, "chebyshev acceleration", done(), 5.0, " ".join(details))


def test_criterion_03_tracking_conservation():
    done = _timer()
    cfg = datagen.SyntheticRidgeConfig(m=12, n=300, d=20, mu0=1.0, L0=500.0, seed=15)
    p = datagen.gen_ridge(cfg)
    c = problems.estimate_constants(p)
    params = accel.tune(c, "F")
    W = network.metropolis_hastings(network.erdos_renyi(p.m, 0.5, seed=3))
    worst = [0.0]
    checks = [0]

    class Watch(accel.RunObserver):
        def __init__(self):
            self.Z = None

        def on_outer_start(self, X, Y_warm, Z):
            self.Z = np.array(Z)
            worst[0] = max(worst[0], reference.tracking_gap(p, X, Y_warm, params.delta, Z))
            checks[0] += 1

        def on_inner_step(self, k, t, comms, X, Y):
            worst[0] = max(worst[0], reference.tracking_gap(p, X, Y, params.delta, self.Z))
            checks[0] += 1

    accel.acc_sonata_run(p, replace(params, K_max=20), W, observer=Watch())
    assert worst[0] <= 1e-10
    _report(3, "tracking conservation", done(), 10.0,
            f"max drift {worst[0]:.2e} over {checks[0]} checks (K=20, T={params.T})")


@pytest.mark.parametrize("mode,limit", [("F", 33.0 / 34.0), ("L", 9.0 / 10.0)])
def test_criterion_04_inner_q_linear_contraction(mode, limit):
    done = _timer()
    cfg = datagen.SyntheticRidgeConfig(m=10, n=400, d=20, mu0=1.0, L0=300.0, seed=9)
    p = datagen.gen_ridge(cfg)
    c = problems.estimate_constants(p)
    params = accel.tune(c, mode)
    base = network.metropolis_hastings(network.erdos_renyi(p.m, 0.5, seed=4))
    rho_adm = reference.admissible_rho(c, mode)
    W = network.chebyshev_accelerate(base, rho_adm)
    assert W.rho <= rho_adm

    T = 12
    Z = np.zeros((p.m, p.d))
    X0 = np.zeros((p.m, p.d))
    grads0 = problems.batch_grads(p, X0)
    Y0 = sonata.shifted_grads(X0, params.delta, Z, grads0)
    oracle_k = diagnostics.centralized_solve(p, delta=params.delta, Z=Z)
    vals = [reference.inner_potential(X0, Y0, c, mode, oracle_k)["total"]]
    sonata.sonata_run(
        p, sonata.SonataState(X0, Y0, Y0, grads0, 0), T, W, params.local_solver(p), Z=Z,
        on_step=lambda t, cm, X, Y: vals.append(
            reference.inner_potential(X, Y, c, mode, oracle_k)["total"]
        ),
    )
    ratios = np.array(vals[1:]) / np.array(vals[:-1])
    assert len(ratios) >= 10
    assert ratios.max() <= limit + 1e-6
    _report(4, f"inner contraction mode {mode}", done(), 30.0,
            f"max ratio {ratios.max():.4f} <= {limit:.4f} (rho={W.rho:.2e}, M={W.M})")


def test_criterion_05_outer_linear_rate():
    done = _timer()
    seed = _pilot_seed()
    # pick the sample size whose measured similarity ratio lands near 100
    p = c = ratio = None
    for n in (100, 200, 400, 800, 1600):
        cfg = datagen.SyntheticRidgeConfig(m=30, n=n, d=25, mu0=1.0, L0=1000.0, seed=seed)
        cand = datagen.gen_ridge(cfg)
        cc = problems.estimate_constants(cand)
        if 50.0 <= cc.beta_hat / cc.mu_hat <= 200.0:
            p, c, ratio = cand, cc, cc.beta_hat / cc.mu_hat
            break
    assert p is not None, "no sample size produced beta/mu near 100"
    params = accel.tune(c, "F")
    W = network.metropolis_hastings(network.erdos_renyi(p.m, 0.5, seed=1))
    oracle = diagnostics.centralized_solve(p)
    res = accel.acc_sonata_run(
        p, replace(params, K_max=200), W,
        gap_fn=lambda X: diagnostics.optimality_gap(p, X, oracle),
        target_gap=1e-4,
    )
    assert res.converged, "did not reach the 1e-4 gap"
    factor = reference.fit_contraction_factor(res.gaps)
    required = 1.0 - 0.05 * math.sqrt(c.mu_hat / c.beta_hat)
    assert factor <= required
    _report(5, "outer linear rate", done(), 30.0,
            f"beta/mu={ratio:.0f}, factor={factor:.4f} <= {required:.4f}, K={res.K_done}")


def test_criterion_06_sqrt_beta_over_mu_scaling(tmp_path):
    done = _timer()
    rows = run_sweep("acceptance-bmu", tmp_path)
    _assert_matches_committed(tmp_path, "acceptance-bmu")
    assert all(r["comms_F"] is not None and r["comms_L"] is not None for r in rows)
    bm = np.array([r["beta_over_mu_hat"] for r in rows])
    kap = np.array([r["kappa_hat"] for r in rows])
    comms_f = np.array([r["comms_F"] for r in rows], dtype=float)
    comms_l = np.array([r["comms_L"] for r in rows], dtype=float)
    assert len(rows) >= 4
    assert bm.max() / bm.min() >= 10.0, "similarity ratio must span a decade"
    kap_var = (kap.max() - kap.min()) / kap.min()
    assert kap_var <= 0.15, f"kappa variation {kap_var:.3f} > 15%"
    slope = np.polyfit(np.log(bm), np.log(comms_f), 1)[0]
    assert 0.35 <= slope <= 0.65, f"mode F slope {slope:.3f} outside 0.5 +/- 0.15"
    l_var = (comms_l.max() - comms_l.min()) / comms_l.min()
    assert l_var <= 0.20, f"mode L comms vary by {l_var:.3f} > 20%"
    _report(6, "sqrt(beta/mu) scaling", done(), 180.0,
            f"slope={slope:.3f}, L-var={l_var:.2%}, kappa-var={kap_var:.2%}")


def test_criterion_07_sqrt_kappa_scaling(tmp_path):
    done = _timer()
    rows = run_sweep("acceptance-kappa", tmp_path)
    _assert_matches_committed(tmp_path, "acceptance-kappa")
    assert all(r["comms_F"] is not None and r["comms_L"] is not None for r in rows)
    kap = np.array([r["kappa_hat"] for r in rows])
    bm = np.array([r["beta_over_mu_hat"] for r in rows])
    comms_f = np.array([r["comms_F"] for r in rows], dtype=float)
    comms_l = np.array([r["comms_L"] for r in rows], dtype=float)
    assert len(rows) >= 4
    assert kap.max() / kap.min() >= 10.0, "kappa must span a decade"
    bm_var = (bm.max() - bm.min()) / bm.min()
    assert bm_var <= 0.15, f"similarity ratio variation {bm_var:.3f} > 15%"
    slope = np.polyfit(np.log(kap), np.log(comms_l), 1)[0]
    assert 0.35 <= slope <= 0.65, f"mode L slope {slope:.3f} outside 0.5 +/- 0.15"
    f_var = (comms_f.max() - comms_f.min()) / comms_f.min()
    assert f_var <= 0.25, f"mode F comms vary by {f_var:.3f} > 25%"
    _report(7, "sqrt(kappa) scaling", done(), 180.0,
            f"slope={slope:.3f}, F-var={f_var:.2%}, bmu-var={bm_var:.2%}")


def test_criterion_08_f_dominates_l_under_similarity():
    done = _timer()
    chosen = None
    for seed, n in ((47, 15000), (23, 20000), (53, 15000), (17, 20000)):
        gc = datagen.SyntheticRidgeConfig(m=10, n=n, d=25, mu0=1.0, L0=1000.0, seed=seed)
        p = datagen.gen_ridge(gc)
        c = problems.estimate_constants(p)
        if c.beta_hat / c.mu_hat <= c.kappa_hat / 20.0:
            chosen = (p, c)
            break
    assert chosen is not None, "no pilot instance satisfied beta/mu <= kappa/20"
    p, c = chosen
    cfg = cli.load_config(None, {"seed": 1, "topology": {"kind": "erdos_renyi", "p": 0.5}})
    W = cli.build_gossip(cfg, p.m)
    oracle = diagnostics.centralized_solve(p)
    comms_f = cli._comms_for_mode(p, oracle, c, W, cfg["algorithm"], "F", 1e-4, None)
    comms_l = cli._comms_for_mode(p, oracle, c, W, cfg["algorithm"], "L", 1e-4, None)
    assert comms_f is not None and comms_l is not None
    assert comms_f <= 0.5 * comms_l
    _report(8, "F-vs-L dominance", done(), 30.0,
            f"beta/mu={c.beta_hat / c.mu_hat:.1f} kappa={c.kappa_hat:.0f} "
            f"comms F={comms_f} L={comms_l}")


def test_criterion_09_lower_bound_fixtures():
    done = _timer()
    for rho in (0.9, 0.97):
        report = cli.lowerbound_check(0.02, 0.5, rho, 8, rounds=50)
        assert abs(report["rho_achieved"] - rho) <= 1e-6
        assert report["m"] >= 3
        assert report["d_c"] >= 0.16 * math.sqrt(1.0 / (1.0 - rho))
        assert report["support_ok"]
        assert report["rounds_run"] >= 50
    _report(9, "lower-bound fixtures", done(), 10.0, "rho in {0.9, 0.97}")


def test_criterion_10_degenerate_equivalences():
    done = _timer()

    # (a) m = 1 matches a single-machine accelerated proximal reference
    rng = np.random.default_rng(2)
    A = rng.standard_normal((1, 60, 8))
    b = rng.standard_normal((1, 60))
    p1 = problems.ProblemSpec("quadratic-ridge", A, b, lam=0.05)
    c1 = problems.estimate_constants(p1)
    mu, delta, beta = c1.mu_hat, 0.5 * (c1.L_hat - c1.mu_hat), 0.3 * c1.L_hat
    params = accel.AccelParams(mode="F", delta=delta, T=3, mu=mu, weight=beta)
    outs = []

    class Cap(accel.RunObserver):
        def on_outer_end(self, X, X_prev):
            outs.append(X[0].copy())

    accel.acc_sonata_run(p1, replace(params, K_max=8), network.exact_averaging(1), observer=Cap())
    H = reference.hessian_bound(p1, 0)
    h = p1.A[0].T @ p1.b[0] / p1.n
    x = np.zeros(8)
    z = x.copy()
    worst_a = 0.0
    for k in range(8):
        xc = x.copy()
        for _ in range(params.T):
            xc = np.linalg.solve(H + (delta + beta) * np.eye(8), h + delta * z + beta * xc)
        z = xc + params.extrapolation_coef * (xc - x)
        x = xc
        worst_a = max(worst_a, float(np.max(np.abs(outs[k] - x))))
    assert worst_a <= 1e-9

    # (b) delta = 0 equals the plain inner method
    cfg = datagen.SyntheticRidgeConfig(m=6, n=120, d=10, mu0=1.0, L0=100.0, seed=11)
    p = datagen.gen_ridge(cfg)
    c = problems.estimate_constants(p)
    W = network.metropolis_hastings(network.erdos_renyi(6, 0.6, seed=4))
    pp = accel.tune(c, "F", delta=0.0, T=3)
    acc_iters = []

    class Cap2(accel.RunObserver):
        def on_inner_step(self, k, t, comms, X, Y):
            acc_iters.append(np.array(X))

    accel.acc_sonata_run(p, replace(pp, K_max=6), W, observer=Cap2())
    X0 = np.zeros((p.m, p.d))
    Y0 = problems.batch_grads(p, X0)
    plain_iters = []
    sonata.sonata_run(p, sonata.SonataState(X0, Y0, Y0, Y0, 0), 18, W, pp.local_solver(p),
                      Z=X0,
                      on_step=lambda t, cm, X, Y: plain_iters.append(np.array(X)))
    worst_b = max(float(np.max(np.abs(a - b))) for a, b in zip(acc_iters, plain_iters))
    assert worst_b <= 1e-12

    # (c) exact averaging reproduces the master/workers path
    params_star = accel.tune(c, "F")
    Wavg = network.exact_averaging(p.m)
    mesh_outer = []

    class Cap3(accel.RunObserver):
        def on_outer_end(self, X, X_prev):
            mesh_outer.append(X[0].copy())

    accel.acc_sonata_run(p, replace(params_star, K_max=7), Wavg, observer=Cap3())
    star_outer = []
    reference.acc_sonata_star_run(
        p, replace(params_star, K_max=7),
        on_inner_step=lambda k, t, cm, xs: star_outer.append(xs.copy())
        if t == params_star.T else None,
    )
    worst_c = max(float(np.max(np.abs(a - b))) for a, b in zip(mesh_outer, star_outer))
    assert worst_c <= 1e-12

    _report(10, "degenerate equivalences", done(), 10.0,
            f"m=1:{worst_a:.1e} delta=0:{worst_b:.1e} star:{worst_c:.1e}")


def test_criterion_11_oracle_and_gradient_checks():
    done = _timer()
    # finite differences for all three losses
    rng = np.random.default_rng(6)
    specs = []
    cfg = datagen.SyntheticRidgeConfig(m=4, n=50, d=8, mu0=1.0, L0=50.0, seed=3)
    specs.append(datagen.gen_ridge(cfg))
    Araw = rng.standard_normal((3, 30, 7))
    lbl = np.where(rng.random((3, 30)) < 0.5, -1.0, 1.0)
    specs.append(problems.ProblemSpec("smooth-hinge", Araw, lbl, lam=0.02))
    specs.append(problems.ProblemSpec("logistic", Araw.copy(), lbl.copy(), lam=0.02))
    h = 1e-6
    worst = 0.0
    for p in specs:
        for _ in range(4):
            i = int(rng.integers(p.m))
            x = rng.standard_normal(p.d)
            g = problems.local_grad(p, i, x)
            fd = np.empty(p.d)
            for j in range(p.d):
                e = np.zeros(p.d)
                e[j] = h
                fd[j] = (reference.local_value(p, i, x + e) - reference.local_value(p, i, x - e)) / (2 * h)
            rel = np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g))
            worst = max(worst, rel)
    assert worst <= 1e-5

    # noiseless planted recovery
    cfg = datagen.SyntheticRidgeConfig(m=4, n=40, d=10, lam=0.0, noise_std=0.0, seed=19)
    p = datagen.gen_ridge(cfg)
    oracle = diagnostics.centralized_solve(p)
    err = np.linalg.norm(oracle.x_star - reference.planted(cfg)[0])
    assert err <= 1e-8
    _report(11, "oracle and gradient checks", done(), 5.0,
            f"fd-rel={worst:.1e} recovery={err:.1e}")


def test_criterion_12_network_factor():
    # comms ~ sqrt((beta/mu) / (1 - rho)): on Metropolis-Hastings lines the
    # base rho runs from 0.967 to 0.99967 while beta/mu barely moves, so the
    # network enters only through the Chebyshev degree M.  A line's bulk runs
    # from about -1/3 to rho, so psi(1) - 1 ~ 1.5 (1 - rho) and T_M(psi(1)) ~
    # cosh(M sqrt(3 (1 - rho))): meeting target 0.3 takes M sqrt(1 - rho) ~
    # arccosh(1 / 0.3) / sqrt(3) = 1.082 (the two-sided degree gives 1.325)
    done = _timer()
    target, eps = 0.3, 1e-4
    rows = []
    for m in (10, 20, 50, 100):
        cfg = cli.load_config(None, {
            "seed": 0,
            "problem": {"synthetic": {"m": m, "n": 500, "d": 25}},
            "topology": {"kind": "line", "target_rho": target},
            "algorithm": {"mode": "F", "target_gap": eps},
        })
        p = cli.build_problem(cfg)
        c = problems.estimate_constants(p)
        W = cli.build_gossip(cfg, m)
        assert W.rho <= target
        M, gap = W.rounds_per_application, 1.0 - W.base.rho
        comms = cli._comms_for_mode(p, diagnostics.centralized_solve(p), c, W, cfg["algorithm"], "F", eps, None)
        assert comms is not None
        rows.append((gap, M, math.sqrt(c.beta_hat / c.mu_hat), comms))
    gap, M, sqrt_bmu, comms = (np.array(col, dtype=float) for col in zip(*rows))
    network_factor = M * np.sqrt(gap)
    assert gap.max() / gap.min() >= 50.0, "1 - rho must span more than a decade and a half"
    assert np.all((1.0 <= network_factor) & (network_factor <= 1.2)), network_factor
    per_round = comms / (M * sqrt_bmu)
    spread = per_round.max() / per_round.min()
    assert spread <= 1.10, f"comms / (M sqrt(beta/mu)) varies by {spread:.3f}"
    slope = np.polyfit(np.log(1.0 / gap), np.log(comms / sqrt_bmu), 1)[0]
    assert 0.45 <= slope <= 0.55, f"slope {slope:.3f} outside 0.5 +/- 0.05"
    _report(12, "network factor", done(), 5.0,
            f"M*sqrt(1-rho)={network_factor.min():.3f}-{network_factor.max():.3f} "
            f"comms/(M*sqrt(b/mu))={per_round.min():.1f}-{per_round.max():.1f} slope={slope:.3f}")


def write_committed() -> None:
    """Regenerate the committed copy of every sweep in :data:`SWEEPS`, and
    record the environment that wrote them."""
    for name in SWEEPS:
        out = RUNS / name
        out.mkdir(parents=True, exist_ok=True)
        run_sweep(name, out)
        print(f"wrote {out}")
    environment.write()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_acceptance.py --write")
    write_committed()

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import hinge_problem
from reference import admissible_rho, hessian_bound, inner_potential, tracking_gap
from sonatasim import accel, diagnostics, network, problems, sonata
from sonatasim.problems import Regularizer
from sonatasim.sonata import (
    gossip_round,
    shifted_grads,
    sonata_run,
)


def cold_start(p):
    X0 = np.zeros((p.m, p.d))
    return X0, problems.batch_grads(p, X0)


def per_agent_prox_gradient(p, i, x, y, g, z, beta, delta, tol, max_iters=5000, forcing=0.0):
    """Reference for one agent's iterative local step, written as a plain
    accelerated proximal-gradient loop.  The agent's own tolerance is
    max(tol, forcing * its gradient mapping at the start x)."""
    step = 1.0 / (np.linalg.eigvalsh(hessian_bound(p, i))[-1] + delta + beta)
    q = (p.loss.ridge * p.lam + beta + delta) * step
    theta = (1.0 - np.sqrt(q)) / (1.0 + np.sqrt(q))
    u, v = x.copy(), x.copy()
    for it in range(max_iters):
        grad = problems.local_grad(p, i, v) + beta * (v - x) + (y - g) + delta * (v - z)
        u_next = problems.prox_r(p, v - step * grad, step)
        if it == 0:
            tol = max(tol, forcing * np.linalg.norm(u_next - x) / step)
        done = np.linalg.norm(u_next - v) / step <= tol
        u, v = u_next, u_next + theta * (u_next - u)
        if done:
            return u, it + 1
    return u, max_iters


class TestLocalSubproblem:
    def test_linearized_kind_is_explicit_step(self, small_ridge, rng):
        p = small_ridge
        X = rng.standard_normal((p.m, p.d))
        Y = rng.standard_normal((p.m, p.d))
        grads = problems.batch_grads(p, X)
        out, ok, _ = sonata.LocalSolver(p, "L", 7.0, 0.0).solve(X, Y, grads, X, grads)
        assert ok
        assert out == pytest.approx(X - Y / 7.0, abs=1e-14)

    def test_full_kind_closed_form_vs_iterative(self, small_ridge, rng):
        # solve the same strongly convex subproblem by plain gradient descent
        p = small_ridge
        i, beta, delta = 1, 5.0, 2.0
        X = rng.standard_normal((p.m, p.d))
        Z = rng.standard_normal((p.m, p.d))
        Y = rng.standard_normal((p.m, p.d))
        grads = problems.batch_grads(p, X)
        G = shifted_grads(p, X, delta, Z, grads)
        out, ok, _ = sonata.LocalSolver(p, "F", beta, delta).solve(X, Y, G, Z, grads)
        assert ok
        x, z, g = X[i], Z[i], G[i]
        H = hessian_bound(p, i)
        L_sub = np.linalg.eigvalsh(H)[-1] + delta + beta
        v = x.copy()
        lin = Y[i] - g
        for _ in range(4000):
            grad = problems.local_grad(p, i, v) + delta * (v - z) + beta * (v - x) + lin
            v = v - grad / L_sub
        assert out[i] == pytest.approx(v, abs=1e-9)

    def test_large_prox_weight_collapses_to_current_point(self, small_ridge, rng):
        p = small_ridge
        X = rng.standard_normal((p.m, p.d))
        Y = rng.standard_normal((p.m, p.d))
        grads = problems.batch_grads(p, X)
        out, _, _ = sonata.LocalSolver(p, "F", 1e12, 0.0).solve(X, Y, grads, X, grads)
        assert np.linalg.norm(out - X) <= 1e-9

    def test_iterative_path_with_l1(self, rng, monkeypatch):
        p = hinge_problem(reg=Regularizer("l1", weight=0.01))
        X = rng.standard_normal((p.m, p.d))
        Y = problems.batch_grads(p, X)
        monkeypatch.setattr(sonata, "SUBPROBLEM_TOL", 1e-10)
        monkeypatch.setattr(sonata, "FORCING", 0.0)
        out, ok, iters = sonata.LocalSolver(p, "F", 3.0, 0.0).solve(X, Y, Y, X, Y)
        assert ok and iters > 0
        # optimality: gradient mapping of every agent's subproblem vanishes
        beta = 3.0
        grad = problems.batch_grads(p, out) + beta * (out - X)
        step = 1e-3
        moved = problems.prox_r(p, out - step * grad, step)
        assert np.linalg.norm(moved - out, axis=1).max() / step <= 1e-6

    @pytest.mark.parametrize(
        "loss_kind, reg",
        [
            ("smooth-hinge", Regularizer("l1", weight=0.02)),
            ("logistic", Regularizer("box", lo=-0.5, hi=0.5)),
            ("quadratic-ridge", Regularizer("l1", weight=0.02)),
        ],
        ids=["hinge-l1", "logistic-box", "quadratic-l1"],
    )
    def test_batched_prox_gradient_matches_per_agent_loop(self, rng, monkeypatch, loss_kind, reg):
        # agents with feature scales a decade apart take different steps and
        # stop after different numbers of iterations
        m, n, d = 4, 30, 5
        A = rng.standard_normal((m, n, d)) * np.array([0.3, 1.0, 2.0, 4.0])[:, None, None]
        b = np.where(rng.random((m, n)) < 0.5, -1.0, 1.0)
        p = problems.ProblemSpec(loss_kind, A, b, lam=0.05, reg=reg)
        beta, delta, tol = 0.7, 0.4, 1e-6
        X, Y, Z = (rng.standard_normal((m, d)) for _ in range(3))
        grads = problems.batch_grads(p, X)
        G = shifted_grads(p, X, delta, Z, grads)
        monkeypatch.setattr(sonata, "SUBPROBLEM_TOL", tol)
        monkeypatch.setattr(sonata, "FORCING", 0.0)

        def reference(max_iters=5000):
            runs = [
                per_agent_prox_gradient(p, i, X[i], Y[i], G[i], Z[i], beta, delta, tol, max_iters)
                for i in range(m)
            ]
            return np.array([v for v, _ in runs]), [k for _, k in runs]

        ref, counts = reference()
        assert len(set(counts)) > 1
        solver = sonata.LocalSolver(p, "F", beta, delta)
        out, ok, iters = solver.solve(X, Y, G, Z, grads)
        assert ok and iters == max(counts)
        assert np.max(np.abs(out - ref)) <= 1e-12
        # cut the batched run just at and just past each agent's own count:
        # every row must have moved exactly min(cut, count_i) times
        for cut in sorted({c + s for c in counts for s in (0, 1)}):
            ref_cut, _ = reference(cut)
            monkeypatch.setattr(sonata, "MAX_INNER_ITERS", cut)
            cut_solver = sonata.LocalSolver(p, "F", beta, delta)
            out_cut, ok_cut, iters_cut = cut_solver.solve(X, Y, G, Z, grads)
            assert np.max(np.abs(out_cut - ref_cut)) <= 1e-12
            assert ok_cut == (cut >= max(counts))
            assert iters_cut == min(cut, max(counts))

    @pytest.mark.parametrize(
        "loss_kind, reg",
        [
            ("smooth-hinge", Regularizer("l1", weight=0.02)),
            ("logistic", Regularizer("box", lo=-0.5, hi=0.5)),
            ("quadratic-ridge", Regularizer("l1", weight=0.02)),
        ],
        ids=["hinge-l1", "logistic-box", "quadratic-l1"],
    )
    def test_forcing_term_stops_each_row_at_its_own_tolerance(
        self, rng, monkeypatch, loss_kind, reg
    ):
        # the agents of the batched test, each stopped at
        # max(tol, forcing * its warm-start gradient mapping)
        m, n, d = 4, 30, 5
        A = rng.standard_normal((m, n, d)) * np.array([0.3, 1.0, 2.0, 4.0])[:, None, None]
        b = np.where(rng.random((m, n)) < 0.5, -1.0, 1.0)
        p = problems.ProblemSpec(loss_kind, A, b, lam=0.05, reg=reg)
        beta, delta, tol, forcing = 0.7, 0.4, 1e-6, sonata.FORCING
        X, Y, Z = (rng.standard_normal((m, d)) for _ in range(3))
        grads = problems.batch_grads(p, X)
        G = shifted_grads(p, X, delta, Z, grads)
        monkeypatch.setattr(sonata, "SUBPROBLEM_TOL", tol)

        def reference(c):
            runs = [
                per_agent_prox_gradient(p, i, X[i], Y[i], G[i], Z[i], beta, delta, tol, forcing=c)
                for i in range(p.m)
            ]
            return np.array([v for v, _ in runs]), [k for _, k in runs]

        ref, counts = reference(forcing)
        _, exact_counts = reference(0.0)
        assert all(c < e for c, e in zip(counts, exact_counts)) and len(set(counts)) > 1
        solver = sonata.LocalSolver(p, "F", beta, delta)
        out, ok, iters = solver.solve(X, Y, G, Z, grads)
        assert ok and iters == max(counts)
        assert np.max(np.abs(out - ref)) <= 1e-12

        # forcing 0 is the absolute rule, bit for bit
        monkeypatch.setattr(sonata, "FORCING", 0.0)
        absolute = sonata.LocalSolver(p, "F", beta, delta)
        steps = absolute.steps
        direct = sonata._prox_gradient_subproblem(
            p, X, Y, G, Z, beta, delta, steps, tol, 5000, grads
        )
        out0, ok0, iters0 = absolute.solve(X, Y, G, Z, grads)
        assert np.array_equal(out0, direct[0]) and (ok0, iters0) == direct[1:]
        assert iters0 == max(exact_counts)

    def test_nan_row_raises_at_first_iteration(self, rng):
        # a NaN row makes its forcing tolerance NaN, which no move satisfies;
        # the non-finite iterate must still stop the step at once
        p = hinge_problem(m=4, lam=0.05, reg=Regularizer("l1", weight=0.01))
        params = accel.tune(problems.estimate_constants(p), "F")
        solver = params.local_solver(p)
        assert solver.forcing == sonata.FORCING > 0
        for poisoned in ("X", "Y"):
            X, Y, Z = (rng.standard_normal((p.m, p.d)) for _ in range(3))
            {"X": X, "Y": Y}[poisoned][2, 1] = np.nan
            grads = problems.batch_grads(p, X)
            G = shifted_grads(p, X, params.delta, Z, grads)
            with pytest.raises(problems.DivergenceError, match="iteration 1$"):
                solver.solve(X, Y, G, Z, grads)


class TestGossipRound:
    def test_identity_matrix_only_refreshes_gradients(self, small_ridge, rng):
        p = small_ridge
        X = rng.standard_normal((p.m, p.d))
        Y = rng.standard_normal((p.m, p.d))
        G = problems.batch_grads(p, X)
        identity = SimpleNamespace(mix=lambda X: np.eye(p.m) @ X, rounds_per_application=1)
        X2, Y2, _, _ = gossip_round(X, Y, G, identity, p)
        assert np.array_equal(X2, X)
        assert Y2 == pytest.approx(Y, abs=1e-14)

    def test_tracking_conservation(self, small_ridge, small_gossip, rng):
        p = small_ridge
        X = rng.standard_normal((p.m, p.d))
        G = problems.batch_grads(p, X)
        Y = G.copy()
        for _ in range(5):
            X_half = X + 0.1 * rng.standard_normal((p.m, p.d))
            X, Y, G, _ = gossip_round(X_half, Y, G, small_gossip, p)
            assert tracking_gap(p, X, Y) <= 1e-10

    def test_exact_averaging_reaches_consensus_in_one_round(self, small_ridge, rng):
        p = small_ridge
        W = network.exact_averaging(p.m)
        X = rng.standard_normal((p.m, p.d))
        G = problems.batch_grads(p, X)
        X2, _, _, _ = gossip_round(X, G.copy(), G, W, p)
        assert np.max(np.abs(X2 - X2.mean(axis=0))) <= 1e-12

    def test_consensus_error_contracts_by_rho(self, small_gossip, rng):
        X = rng.standard_normal((small_gossip.m, 7))
        before = X - X.mean(axis=0)
        after = small_gossip.W @ X - (small_gossip.W @ X).mean(axis=0)
        assert np.linalg.norm(after) <= small_gossip.rho * np.linalg.norm(before) + 1e-12


class TestSonataRun:
    def test_zero_iterations_returns_input(self, small_ridge, small_gossip):
        p = small_ridge
        X0, Y0 = cold_start(p)
        solver = sonata.LocalSolver(p, "F", 5.0, 0.0)
        res = sonata_run(p, X0, Y0, 0, small_gossip, solver, Z=X0, grads0=Y0)
        assert np.array_equal(res.X, X0) and np.array_equal(res.Y, Y0)
        assert res.comms == 0

    def test_identical_agents_stay_identical(self, small_gossip):
        A = np.random.default_rng(0).standard_normal((30, 8))
        b = A.sum(axis=1)  # same data for every agent: similarity is zero
        p = problems.ProblemSpec(
            "quadratic-ridge", np.stack([A] * 6), np.stack([b] * 6), lam=0.1
        )
        X0, Y0 = cold_start(p)
        solver = sonata.LocalSolver(p, "F", 1.0, 0.0)
        res = sonata_run(p, X0, Y0, 8, small_gossip, solver, Z=X0, grads0=Y0)
        assert np.max(np.abs(res.X - res.X[0])) <= 1e-10

    def test_comm_counting(self, small_ridge, small_gossip):
        p = small_ridge
        X0, Y0 = cold_start(p)
        solver = sonata.LocalSolver(p, "F", 5.0, 0.0)
        res = sonata_run(p, X0, Y0, 7, small_gossip, solver, Z=X0, grads0=Y0, comms_start=3)
        assert res.comms == 3 + 7 * small_gossip.rounds_per_application
        doubled = dataclasses.replace(small_gossip, rounds_per_application=2)
        res2 = sonata_run(p, X0, Y0, 7, doubled, solver, Z=X0, grads0=Y0)
        assert res2.comms == 14

    def test_single_agent_reduces_to_proximal_gradient(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((1, 30, 6))
        b = rng.standard_normal((1, 30))
        p = problems.ProblemSpec("quadratic-ridge", A, b, lam=0.05)
        L_surr = problems.curvature(p).lmax[0]
        X0, Y0 = cold_start(p)
        solver = sonata.LocalSolver(p, "L", L_surr, 0.0)
        res = sonata_run(p, X0, Y0, 12, network.exact_averaging(1), solver, Z=X0, grads0=Y0)
        x = np.zeros(6)
        for _ in range(12):
            x = x - problems.local_grad(p, 0, x) / L_surr
        assert res.X[0] == pytest.approx(x, abs=1e-10)

    def test_single_agent_full_surrogate_is_proximal_point_like(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((1, 30, 6))
        b = rng.standard_normal((1, 30))
        p = problems.ProblemSpec("quadratic-ridge", A, b, lam=0.05)
        beta = 2.0
        X0, Y0 = cold_start(p)
        solver = sonata.LocalSolver(p, "F", beta, 0.0)
        res = sonata_run(p, X0, Y0, 9, network.exact_averaging(1), solver, Z=X0, grads0=Y0)
        H = hessian_bound(p, 0)
        h = A[0].T @ b[0] / 30
        x = np.zeros(6)
        for _ in range(9):
            x = np.linalg.solve(H + beta * np.eye(6), h + beta * x)
        assert res.X[0] == pytest.approx(x, abs=1e-10)

    def test_inner_contraction_on_admissible_network(self, small_ridge):
        # fresh shifted problem, tight network: the inner potential must
        # contract at least at the nominal worst-case factor every step
        p = small_ridge
        c = problems.estimate_constants(p)
        delta = c.beta_hat - c.mu_hat
        base = network.metropolis_hastings(network.erdos_renyi(p.m, 0.6, seed=4))
        M = network.rounds_for_target(base.rho, admissible_rho(c, "F"))
        W = network.chebyshev_accelerate(base, M)
        Z = np.zeros((p.m, p.d))
        X0 = np.zeros((p.m, p.d))
        grads0 = problems.batch_grads(p, X0)
        Y0 = shifted_grads(p, X0, delta, Z, grads0)
        oracle_k = diagnostics.centralized_solve(p, delta=delta, Z=Z)
        vals = [inner_potential(X0, Y0, c, "F", oracle_k)["total"]]
        sonata_run(
            p,
            X0,
            Y0,
            11,
            W,
            sonata.LocalSolver(p, "F", c.beta_hat, delta),
            Z=Z,
            grads0=grads0,
            on_step=lambda t, cm, X, Y: vals.append(
                inner_potential(X, Y, c, "F", oracle_k)["total"]
            ),
        )
        ratios = np.array(vals[1:]) / np.array(vals[:-1])
        assert ratios.max() <= 33.0 / 34.0 + 1e-6

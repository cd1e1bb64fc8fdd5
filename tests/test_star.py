from dataclasses import replace

import numpy as np

import reference
from conftest import hinge_problem
from sonatasim import accel, network, problems, sonata


class TestSonataStarEquivalence:
    def _mesh_vs_star(self, p, surrogate, T=6, delta=0.0, z=None):
        m = p.m
        W = network.exact_averaging(m)
        x0 = np.zeros(p.d)
        X0 = np.tile(x0, (m, 1))
        Z = X0 if z is None else np.tile(z, (m, 1))
        # consensus tracking start: the hub can average gradients in one round
        grads0 = problems.batch_grads(p, X0)
        g_avg = grads0.mean(axis=0)
        if delta != 0.0:
            g_avg = g_avg + delta * (x0 - z)
        Y0 = np.tile(g_avg, (m, 1))
        solver = sonata.LocalSolver(p, *surrogate, delta)
        mesh = sonata.sonata_run(p, X0, Y0, T, W, solver, Z=Z, grads0=grads0)
        xs, comms = reference.sonata_star_run(p, x0, T, solver, z=z)
        return mesh, xs, comms

    def test_full_surrogate_quadratic(self, small_ridge, small_ridge_constants):
        sur = ("F", small_ridge_constants.beta_hat)
        mesh, xs, comms = self._mesh_vs_star(small_ridge, sur)
        assert np.max(np.abs(mesh.X - xs[None, :])) <= 1e-12
        assert comms == 6

    def test_linearized_surrogate(self, small_ridge, small_ridge_constants):
        sur = ("L", small_ridge_constants.L_hat)
        mesh, xs, _ = self._mesh_vs_star(small_ridge, sur)
        assert np.max(np.abs(mesh.X - xs[None, :])) <= 1e-12

    def test_with_proximal_shift(self, small_ridge, small_ridge_constants):
        rng = np.random.default_rng(3)
        z = rng.standard_normal(small_ridge.d)
        sur = ("F", small_ridge_constants.beta_hat)
        mesh, xs, _ = self._mesh_vs_star(small_ridge, sur, delta=1.7, z=z)
        assert np.max(np.abs(mesh.X - xs[None, :])) <= 1e-12

    def test_nonquadratic_iterative_path(self, monkeypatch):
        monkeypatch.setattr(sonata, "FORCING", 0.0)
        p = hinge_problem(m=3, n=25, d=5, lam=0.05)
        c = problems.estimate_constants(p)
        sur = ("F", max(c.beta_hat, 0.5))
        mesh, xs, _ = self._mesh_vs_star(p, sur, T=4)
        assert np.max(np.abs(mesh.X - xs[None, :])) <= 1e-9


class TestAccStarEquivalence:
    def test_accelerated_paths_match(self, small_ridge, small_ridge_constants):
        p = small_ridge
        params = accel.tune(small_ridge_constants, "F")
        W = network.exact_averaging(p.m)
        mesh_outer = []

        class Cap(accel.RunObserver):
            def on_outer_end(self, X, X_prev):
                mesh_outer.append(X[0].copy())

        # supply the hub-averaged gradient as the tracking start so the first
        # inner correction matches the master/workers algorithm exactly
        Y0 = np.tile(problems.batch_grads(p, np.zeros((p.m, p.d))).mean(axis=0), (p.m, 1))
        accel.acc_sonata_run(p, replace(params, K_max=7), W, observer=Cap(), Y0=Y0)

        star_outer = []
        reference.acc_sonata_star_run(
            p,
            replace(params, K_max=7),
            on_inner_step=lambda k, t, c, x: star_outer.append(x.copy())
            if t == params.T
            else None,
        )
        assert len(mesh_outer) == len(star_outer) == 7
        for a, b in zip(mesh_outer, star_outer):
            assert np.max(np.abs(a - b[None, :])) <= 1e-12

    def test_accelerated_iterative_paths_match(self):
        # non-quadratic mode F: both sides take their local step from
        # params.local_solver, so both stop it by the same forcing rule
        p = hinge_problem(m=3, n=25, d=5, lam=0.05, reg=problems.Regularizer("l1", weight=0.01))
        params = replace(accel.tune(problems.estimate_constants(p), "F"), K_max=7)
        assert params.local_solver(p).forcing == sonata.FORCING > 0
        W = network.exact_averaging(p.m)
        mesh_outer = []

        class Cap(accel.RunObserver):
            def on_outer_end(self, X, X_prev):
                mesh_outer.append(X.copy())

        Y0 = np.tile(problems.batch_grads(p, np.zeros((p.m, p.d))).mean(axis=0), (p.m, 1))
        accel.acc_sonata_run(p, params, W, observer=Cap(), Y0=Y0)
        star_outer = []
        reference.acc_sonata_star_run(
            p,
            params,
            on_inner_step=lambda k, t, c, x: star_outer.append(x.copy())
            if t == params.T
            else None,
        )
        assert len(mesh_outer) == len(star_outer) == 7
        for a, b in zip(mesh_outer, star_outer):
            assert np.max(np.abs(a - b[None, :])) <= 1e-9

    def test_star_converges(self, small_ridge, small_ridge_constants):
        from sonatasim import diagnostics

        p = small_ridge
        oracle = diagnostics.centralized_solve(p)
        params = accel.tune(small_ridge_constants, "F")
        res = reference.acc_sonata_star_run(
            p,
            replace(params, K_max=100),
            gap_fn=lambda X: diagnostics.optimality_gap(p, X, oracle),
            target_gap=1e-8,
        )
        assert res.converged

from dataclasses import replace

import numpy as np
import pytest

from conftest import classification_problem, hinge_problem, logistic_problem
from reference import (
    admissible_rho,
    fit_contraction_factor,
    inner_potential,
    local_value,
    planted,
)
from sonatasim import accel, datagen, diagnostics, network, problems
from sonatasim.diagnostics import (
    CommsToAccuracy,
    ShiftedObjective,
    TrajectoryBuilder,
    centralized_solve,
    consensus_error,
    error_weights,
    optimality_gap,
    outer_potential,
)
from sonatasim.problems import Constants, Regularizer


def comms_to_accuracy(traj: diagnostics.Trajectory, eps: float):
    """First cumulative communication count at which the gap is <= eps;
    None when the trajectory never reaches it."""
    if not traj.rows:
        raise ValueError("empty trajectory")
    for r in traj.rows:
        if r.gap <= eps:
            return r.comms
    return None


def measure_epsilon_constant(P0: float, alpha: float, g_e_finals) -> float:
    """Largest c in (0, 1) whose geometric error sequence eps_k = P0 (1 - c a)^k
    dominates the recorded final inner potentials (0 if none works)."""
    c_best = 1.0 - 1e-9
    for k, val in enumerate(g_e_finals):
        if val <= 0:
            continue
        ratio = (val / P0) ** (1.0 / (k + 1))
        c_best = min(c_best, (1.0 - ratio) / alpha)
    return max(0.0, float(c_best))


def potential_decay_c2(
    constants: Constants, mode: str, alpha: float, c_seq: float, delta: float
) -> float:
    """The constant c2 of the outer potential's decay bound."""
    c_x, _ = error_weights(constants, mode)
    ca = c_seq * alpha
    c1 = 1.0 + (delta / c_x) * (1.5 * (1 - ca) ** 2 + 5 - 4 * ca) / (1 - ca) ** 2
    if alpha >= 1.0:
        return float("inf")  # delta = 0: the outer bound degenerates
    return float(
        (2.0 + np.sqrt(c1)) ** 2 / ((np.sqrt((1 - ca) / (1 - alpha)) - 1.0) ** 2 * (1 - alpha))
    )


class WarmStartBuilder(TrajectoryBuilder):
    """A TrajectoryBuilder that also keeps the inner potential at each outer
    iteration's warm start."""

    def __init__(self, p, oracle, params, constants):
        super().__init__(p, oracle, params, constants)
        self.constants = constants
        self.g_e_warm = []

    def on_outer_start(self, X, Y_warm, Z):
        super().on_outer_start(X, Y_warm, Z)
        self.g_e_warm.append(
            inner_potential(X, Y_warm, self.constants, self.params.mode, self._oracle_k)["total"]
        )


class TestCentralizedSolve:
    def test_recovers_planted_solution(self):
        cfg = datagen.SyntheticRidgeConfig(m=4, n=30, d=8, lam=0.0, noise_std=0.0, seed=13)
        p = datagen.gen_ridge(cfg)
        oracle = centralized_solve(p)
        assert np.linalg.norm(oracle.x_star - planted(cfg)[0]) <= 1e-8

    def test_optimality_against_random_points(self, small_ridge, rng):
        oracle = centralized_solve(small_ridge)
        obj = oracle.objective
        for _ in range(100):
            x = oracle.x_star + rng.standard_normal(small_ridge.d)
            assert obj.values(x) >= oracle.u_star - 1e-12

    def test_gradient_mapping_at_solution(self, monkeypatch):
        p = hinge_problem(lam=0.05)
        tol = 1e-10
        monkeypatch.setattr(diagnostics, "ORACLE_TOL", tol)
        oracle = centralized_solve(p)
        g = oracle.objective.grad(oracle.x_star)
        assert np.linalg.norm(g) <= 10 * tol

    def test_iterative_path_with_l1(self, monkeypatch):
        p = hinge_problem(lam=0.05, reg=Regularizer("l1", weight=0.01))
        monkeypatch.setattr(diagnostics, "ORACLE_TOL", 1e-11)
        oracle = centralized_solve(p)
        # fixed point of the proximal-gradient map
        L = np.linalg.eigvalsh(problems.curvature(p).H_bar)[-1]
        step = 1.0 / L
        moved = problems._prox_into(
            p, oracle.x_star - step * oracle.objective.grad(oracle.x_star), step
        )
        assert np.linalg.norm(moved - oracle.x_star) * L <= 1e-9

    def test_shifted_solve_matches_prox_update(self, small_ridge):
        # re-solving the shifted problem equals shifting the previous solve
        # through the exact proximal formula on quadratics
        p = small_ridge
        rng = np.random.default_rng(8)
        delta = 2.5
        Z1 = rng.standard_normal((p.m, p.d))
        Z2 = Z1 + rng.standard_normal((p.m, p.d))
        o1 = centralized_solve(p, delta=delta, Z=Z1)
        o2 = centralized_solve(p, delta=delta, Z=Z2)
        H = o1.objective._H + delta * np.eye(p.d)
        shift = np.linalg.solve(H, delta * (Z2.mean(axis=0) - Z1.mean(axis=0)))
        assert np.linalg.norm((o1.x_star + shift) - o2.x_star) <= 1e-9

    def test_oracle_cap_raises(self, monkeypatch):
        p = hinge_problem(lam=1e-4)
        monkeypatch.setattr(diagnostics, "ORACLE_TOL", 1e-14)
        monkeypatch.setattr(diagnostics, "ORACLE_MAX_ITERS", 5)
        with pytest.raises(diagnostics.OracleNotConvergedError):
            centralized_solve(p)


class TestOptimalityGap:
    def test_zero_at_consensus_optimum(self, small_ridge):
        oracle = centralized_solve(small_ridge)
        X = np.tile(oracle.x_star, (small_ridge.m, 1))
        assert optimality_gap(small_ridge, X, oracle) <= 1e-10

    def test_gap_arm_dominates_at_consensus(self, small_ridge):
        oracle = centralized_solve(small_ridge)
        x = oracle.x_star + 0.5
        X = np.tile(x, (small_ridge.m, 1))
        expect = oracle.objective.values(x) - oracle.u_star
        assert optimality_gap(small_ridge, X, oracle) == pytest.approx(expect)

    def test_consensus_arm_counts_spread(self, small_ridge, rng):
        oracle = centralized_solve(small_ridge)
        E = rng.standard_normal((small_ridge.m, small_ridge.d))
        E -= E.mean(axis=0)
        X = oracle.x_star[None, :] + E
        gap = optimality_gap(small_ridge, X, oracle)
        assert gap >= consensus_error(X) - 1e-12
        assert consensus_error(X) == pytest.approx((E**2).sum(axis=1).mean())

    def test_recorded_gap_stands_in_for_the_gap_fn(
        self, small_ridge, small_ridge_constants, small_gossip
    ):
        # the last row of an outer iteration is recorded at the X its end tests
        p, W = small_ridge, small_gossip
        params = accel.tune(small_ridge_constants, "F")
        oracle = centralized_solve(p)

        def run(observer, gap_fn):
            return accel.acc_sonata_run(
                p, replace(params, K_max=40), W, observer=observer, gap_fn=gap_fn, target_gap=0.05
            )

        plain = run(TrajectoryBuilder(p, oracle, params, None), lambda X: optimality_gap(p, X, oracle))
        builder = TrajectoryBuilder(p, oracle, params, None)
        reused = run(builder, lambda X: builder.traj.rows[-1].gap)
        assert plain.converged and plain.K_done < 40
        assert reused.gaps == plain.gaps
        assert (reused.K_done, reused.comms) == (plain.K_done, plain.comms)


class TestStackedGap:
    @pytest.mark.parametrize(
        "loss,delta",
        [("quadratic", 0.0), ("logistic-l1", 0.0), ("quadratic", 2.5), ("logistic-l1", 0.7)],
    )
    def test_stack_matches_per_slice_calls(self, loss, delta, rng):
        if loss == "quadratic":  # exact curvature: the closed quadratic form
            p = datagen.gen_ridge(datagen.SyntheticRidgeConfig(m=5, n=40, d=6, lam=0.0, seed=3))
        else:
            p = logistic_problem(reg=Regularizer("l1", weight=0.01))
        Z = rng.standard_normal((p.m, p.d)) if delta else None
        oracle = centralized_solve(p, delta=delta, Z=Z)
        stack = oracle.x_star + 0.3 * rng.standard_normal((7, p.m, p.d))
        stack[2] = oracle.x_star  # a slice at the optimum, where the arms nearly vanish
        gaps = optimality_gap(p, stack, oracle)
        assert gaps.shape == (7,)
        for fn, got in (
            (lambda X: optimality_gap(p, X, oracle), gaps),
            (oracle.suboptimality, oracle.suboptimality(stack)),
            (consensus_error, consensus_error(stack)),
        ):
            singles = [fn(X) for X in stack]
            assert all(type(v) is float for v in singles)
            np.testing.assert_array_equal(got, singles)

    def test_stack_is_exact_at_the_sweep_shape(self, ridge_sweep_instance, rng):
        # a stack flattened to (k*m, d) rows ran X @ H as one larger matmul,
        # which rounded differently from the (m, d) calls here (by 1.9e-12)
        p = ridge_sweep_instance
        oracle = centralized_solve(p)
        stack = oracle.x_star + 0.3 * rng.standard_normal((9, p.m, p.d))
        singles = [optimality_gap(p, X, oracle) for X in stack]
        np.testing.assert_array_equal(optimality_gap(p, stack, oracle), singles)

    def test_non_finite_point_has_nan_suboptimality(self):
        p = logistic_problem()
        oracle = centralized_solve(p)
        X = np.tile(oracle.x_star, (p.m, 1))
        X[1, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            oracle.objective.values(X)  # u itself still refuses the point
        assert np.isnan(oracle.suboptimality(X))
        with np.errstate(invalid="ignore"):  # inf - inf in the consensus arm
            assert np.isnan(optimality_gap(p, np.stack([X, X]), oracle)).all()

    def test_nan_in_either_arm_is_nan(self, small_ridge):
        oracle = centralized_solve(small_ridge)
        X = np.tile(oracle.x_star, (small_ridge.m, 1))
        X[1, 0] = np.nan
        assert np.isnan(optimality_gap(small_ridge, X, oracle))
        assert np.isnan(optimality_gap(small_ridge, np.stack([X, X]), oracle)).all()


class TestCommsToAccuracyObserver:
    """The gap-only observer counts what comms_to_accuracy reads from a full
    trajectory, in a run that stops at the same outer iteration."""

    def _both(self, p, params, eps):
        W = network.metropolis_hastings(network.erdos_renyi(p.m, 0.6, seed=4))
        oracle = centralized_solve(p)
        builder = TrajectoryBuilder(p, oracle, params, None)
        full = accel.acc_sonata_run(
            p, params, W, observer=builder, gap_fn=lambda X: builder.traj.rows[-1].gap,
            target_gap=eps,
        )
        counter = CommsToAccuracy(p, oracle, eps)
        lean = accel.acc_sonata_run(
            p, params, W, observer=counter, gap_fn=lambda X: counter.gap, target_gap=eps
        )
        assert (lean.K_done, lean.comms, lean.converged) == (full.K_done, full.comms, full.converged)
        assert counter.gap == builder.traj.rows[-1].gap
        return counter.comms, comms_to_accuracy(builder.traj, eps)

    @pytest.mark.parametrize("mode", ["F", "L"])
    def test_quadratic_without_regularizer(self, small_ridge, small_ridge_constants, mode):
        params = replace(accel.tune(small_ridge_constants, mode), K_max=100)
        lean, full = self._both(small_ridge, params, 1e-4)
        assert lean == full is not None

    @pytest.mark.parametrize("mode", ["F", "L"])
    def test_iterative_local_step_with_l1(self, mode):
        p = hinge_problem(lam=0.05, reg=Regularizer("l1", weight=0.01))
        params = replace(accel.tune(problems.estimate_constants(p), mode), K_max=60)
        if mode == "F":
            assert params.local_solver(p).steps is not None  # the iterative local step
        lean, full = self._both(p, params, 1e-6)
        assert lean == full is not None

    def test_ridge_sweep_instance(self, ridge_sweep_instance):
        p = ridge_sweep_instance
        params = accel.tune(problems.estimate_constants(p), "F")
        lean, full = self._both(p, params, 1e-4)
        assert lean == full is not None

    def test_target_never_reached(self, small_ridge, small_ridge_constants):
        params = replace(accel.tune(small_ridge_constants, "F"), K_max=3)
        assert self._both(small_ridge, params, 1e-14) == (None, None)

    def test_non_finite_gap_raises(self, small_ridge):
        counter = CommsToAccuracy(small_ridge, centralized_solve(small_ridge), 1e-4)
        X = np.zeros((small_ridge.m, small_ridge.d))
        counter.on_init(X, X)
        counter.on_inner_step(0, 1, 1, X + np.inf, X)
        with np.errstate(invalid="ignore"):
            with pytest.raises(problems.DivergenceError, match="non-finite optimality gap"):
                counter.on_outer_end(X, X)


class TestInnerPotential:
    def test_zero_at_shifted_optimum_with_exact_tracking(self, small_ridge, small_ridge_constants):
        p = small_ridge
        delta = small_ridge_constants.beta_hat - small_ridge_constants.mu_hat
        Z = np.zeros((p.m, p.d))
        ok = centralized_solve(p, delta=delta, Z=Z)
        X = np.tile(ok.x_star, (p.m, 1))
        Y = np.tile(ok.objective.grad(ok.x_star), (p.m, 1))
        pot = inner_potential(X, Y, small_ridge_constants, "F", ok)
        assert pot["total"] <= 1e-9 * max(1.0, abs(ok.u_star))

    def test_error_term_linear_in_weights(self, small_ridge, small_ridge_constants, rng):
        p = small_ridge
        ok = centralized_solve(p)
        X = rng.standard_normal((p.m, p.d))
        Y = rng.standard_normal((p.m, p.d))
        c_x, c_y = error_weights(small_ridge_constants, "F")
        pot = inner_potential(X, Y, small_ridge_constants, "F", ok)
        assert pot["e"] == pytest.approx(
            c_x * consensus_error(X) + c_y * consensus_error(Y)
        )

    def test_mode_constants(self):
        c = Constants(mu_hat=1.0, L_hat=10.0, Lmx_hat=12.0, beta_hat=4.0)
        c_x, c_y = error_weights(c, "F")
        assert c_x == pytest.approx(8 * (10 + 8 - 1) ** 2 / 4.0)
        assert c_y == pytest.approx(1.0)
        c_x, c_y = error_weights(c, "L")
        assert c_x == pytest.approx(56 * (20 + 4 - 1) ** 2 / 10.0)
        assert c_y == pytest.approx(2.8)

    def test_zero_similarity_has_no_mode_f_weights(self):
        # mode F's weights divided by beta_hat = 0 (one agent) with a
        # ZeroDivisionError; mode L's do not read it
        c = Constants(mu_hat=1.0, L_hat=10.0, Lmx_hat=10.0, beta_hat=0.0)
        with pytest.raises(problems.InputError, match="beta_hat = 0.0"):
            error_weights(c, "F")
        assert error_weights(c, "L") == (56.0 * 19.0**2 / 10.0, 2.8)

    @pytest.mark.parametrize(
        "mode,L,beta",
        [("F", 1e300, 1e299), ("L", 1e300, 1e299), ("F", 1.0, 1e-320)],
        ids=["F-squared", "L-squared", "F-quotient"],
    )
    def test_overflowing_weights_are_an_input_error(self, mode, L, beta):
        # squaring a spread near 1e300 raised OverflowError; dividing by a
        # subnormal beta_hat gave an inf weight
        c = Constants(mu_hat=min(beta, 1.0), L_hat=L, Lmx_hat=L, beta_hat=beta)
        with pytest.raises(problems.CurvatureOverflowError, match=f"mode {mode}'s .* overflow"):
            error_weights(c, mode)

    def test_builder_weighs_once(self, small_ridge, small_ridge_constants, monkeypatch):
        # the weights are run constants, recomputed on every row
        calls = []
        monkeypatch.setattr(
            diagnostics, "error_weights", lambda *a: calls.append(a) or error_weights(*a)
        )
        params = replace(accel.tune(small_ridge_constants, "F"), K_max=2)
        builder = TrajectoryBuilder(small_ridge, centralized_solve(small_ridge), params, small_ridge_constants)
        accel.acc_sonata_run(small_ridge, params, network.exact_averaging(small_ridge.m), observer=builder)
        assert len(calls) == 1 and builder.traj.rows[-1].g_plus_e is not None


class TestAdmissibleRho:
    def test_closed_forms(self):
        c = Constants(mu_hat=1.0, L_hat=10.0, Lmx_hat=12.0, beta_hat=10.0)
        expect_f = 10.0 * 19.0 / (4 * np.sqrt(1785.0) * 29.0 * 49.0)
        assert admissible_rho(c, "F") == pytest.approx(expect_f)
        expect_l = 100.0 / (70 * np.sqrt(15.0) * 29.0**2)
        assert admissible_rho(c, "L") == pytest.approx(expect_l)

    def test_monotone_in_beta_for_mode_f(self):
        vals = [
            admissible_rho(Constants(1.0, 50.0, 60.0, b), "F")
            for b in np.linspace(2.0, 40.0, 12)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_always_a_valid_deviation(self):
        for beta in (1.5, 20.0, 500.0):
            for L in (2.0, 100.0, 1e4):
                c = Constants(1.0, L, L * 1.2, beta)
                for mode in ("F", "L"):
                    assert 0.0 < admissible_rho(c, mode) < 1.0


class TestOuterPotential:
    def test_initial_value_formula(self, small_ridge):
        p = small_ridge
        oracle = centralized_solve(p)
        mu = 3.7
        X0 = np.zeros((p.m, p.d))
        P0 = outer_potential(
            X0, X0, alpha=0.5, mu=mu, e_prev_final=0.0, oracle=oracle,
            sub=oracle.suboptimality(X0),
        )
        expect = (oracle.objective.values(np.zeros(p.d)) - oracle.u_star) + 0.5 * mu * (
            oracle.x_star @ oracle.x_star
        )
        assert P0 == pytest.approx(expect)

    def test_dominates_suboptimality_arm(self, small_ridge, rng):
        p = small_ridge
        oracle = centralized_solve(p)
        X_prev = rng.standard_normal((p.m, p.d))
        X = rng.standard_normal((p.m, p.d))
        P = outer_potential(X_prev, X, 0.6, 2.0, 0.1, oracle, oracle.suboptimality(X))
        sub = oracle.objective.values(X).mean() - oracle.u_star
        assert P >= sub


class TestCommsToAccuracy:
    def _traj(self, gaps, comms):
        t = diagnostics.Trajectory()
        for i, (g, c) in enumerate(zip(gaps, comms)):
            t.rows.append(diagnostics.TrajRow(0, i, c, g, 0.0, 0.0))
        return t

    def test_immediate_hit(self):
        t = self._traj([0.5, 0.1], [0, 3])
        assert comms_to_accuracy(t, 1.0) == 0

    def test_zero_eps_never_reached(self):
        t = self._traj([0.5, 0.1], [0, 3])
        assert comms_to_accuracy(t, 0.0) is None

    def test_monotone_in_eps(self):
        t = self._traj([1.0, 0.3, 0.05, 0.001], [0, 2, 4, 6])
        counts = [comms_to_accuracy(t, e) for e in (0.5, 0.1, 0.01)]
        assert counts == [2, 4, 6]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            comms_to_accuracy(diagnostics.Trajectory(), 0.1)


class TestPotentialDecay:
    def _compliant_run(self):
        cfg = datagen.SyntheticRidgeConfig(m=8, n=300, d=15, mu0=1.0, L0=200.0, seed=21)
        p = datagen.gen_ridge(cfg)
        c = problems.estimate_constants(p)
        params = accel.tune(c, "F")
        base = network.metropolis_hastings(network.erdos_renyi(p.m, 0.5, seed=2))
        W = network.chebyshev_accelerate(base, admissible_rho(c, "F"))
        oracle = centralized_solve(p)
        builder = WarmStartBuilder(p, oracle, params, constants=c)
        accel.acc_sonata_run(p, replace(params, K_max=20), W, observer=builder)
        return p, c, params, builder

    @staticmethod
    def _outer_ends(builder):
        """The last trajectory row of each outer iteration: its g_plus_e is the
        final inner potential, its P_k the outer potential after extrapolation."""
        return list({r.k: r for r in builder.traj.rows[1:]}.values())

    def test_proposition_style_bound_on_outer_potential(self):
        p, c, params, builder = self._compliant_run()
        ends = self._outer_ends(builder)
        assert len(ends) == 20
        P0 = builder.traj.rows[0].P_k
        c_meas = measure_epsilon_constant(P0, params.alpha, [r.g_plus_e for r in ends])
        assert c_meas > 0
        c_eval = min(c_meas, 0.9)
        # termination rule holds at c_eval for every outer iteration
        for k, r in enumerate(ends):
            assert r.g_plus_e <= P0 * (1 - c_eval * params.alpha) ** (k + 1) + 1e-12
        c2 = potential_decay_c2(c, "F", params.alpha, c_eval, params.delta)
        for k, r in enumerate(ends):
            bound = c2 * P0 * (1 - c_eval * params.alpha) ** (k + 1)
            assert r.P_k <= bound

    def test_warm_start_potential_stays_bounded_relative_to_eps(self):
        p, c, params, builder = self._compliant_run()
        ends = self._outer_ends(builder)
        P0 = builder.traj.rows[0].P_k
        c_meas = min(
            measure_epsilon_constant(P0, params.alpha, [r.g_plus_e for r in ends]), 0.9
        )
        ratios = [
            g_e_warm / (P0 * (1 - c_meas * params.alpha) ** k)
            for k, g_e_warm in enumerate(builder.g_e_warm)
        ]
        assert len(ratios) == 20
        assert max(ratios) <= 50.0  # bounded, no blow-up across restarts

    def test_trajectory_comms_strictly_increasing(self):
        _, _, _, builder = self._compliant_run()
        comms = [r.comms for r in builder.traj.rows]
        assert np.all(np.diff(comms) > 0)


class TestNonnegativity:
    def test_all_potentials_nonnegative_along_a_run(self):
        cfg = datagen.SyntheticRidgeConfig(m=6, n=150, d=10, mu0=1.0, L0=80.0, seed=31)
        p = datagen.gen_ridge(cfg)
        c = problems.estimate_constants(p)
        params = accel.tune(c, "F")
        W = network.metropolis_hastings(network.erdos_renyi(p.m, 0.6, seed=1))
        oracle = centralized_solve(p)
        builder = TrajectoryBuilder(p, oracle, params, constants=c)
        accel.acc_sonata_run(p, replace(params, K_max=10), W, observer=builder)
        tol = -1e-9 * builder.traj.rows[0].P_k
        for row in builder.traj.rows:
            assert row.gap >= tol
            assert row.consensus_err >= 0 and row.tracking_err >= 0
            if row.g_plus_e is not None:
                assert row.g_plus_e >= tol
            if row.P_k is not None:
                assert row.P_k >= tol


class TestFitContraction:
    def test_exact_geometric_sequence(self):
        vals = 3.0 * 0.8 ** np.arange(20)
        assert fit_contraction_factor(vals) == pytest.approx(0.8, rel=1e-9)

    def test_requires_positive_tail(self):
        with pytest.raises(ValueError):
            fit_contraction_factor([0.0, 0.0])


def _reference_values(p, delta, Z, X):
    """u at each row of X by a loop over rows and agents."""
    out = []
    for x in X:
        v = sum(local_value(p, i, x) for i in range(p.m)) / p.m
        if delta != 0.0:
            v += delta / (2 * p.m) * np.sum((x[None, :] - Z) ** 2)
        if p.reg.kind == "l1":
            v += p.reg.weight * np.abs(x).sum()
        if p.reg.kind == "box" and not np.all((x >= p.reg.lo) & (x <= p.reg.hi)):
            v = np.inf
        out.append(v)
    return np.array(out)


REGULARIZERS = {
    "zero": Regularizer(),
    "l1": Regularizer("l1", weight=0.05),
    "box": Regularizer("box", lo=-0.6, hi=0.6),
}


def _problem(loss_kind, reg):
    if loss_kind == "quadratic-ridge":
        cfg = datagen.SyntheticRidgeConfig(m=5, n=60, d=6, mu0=1.0, L0=50.0, lam=0.01, seed=3)
        p = datagen.gen_ridge(cfg)
        p.reg = reg
        return p
    return classification_problem(loss_kind, 5, 60, 6, 0.02, seed=4, reg=reg)


class TestShiftedObjective:
    def test_matches_direct_evaluation(self, small_ridge, rng):
        p = small_ridge
        delta = 1.3
        Z = rng.standard_normal((p.m, p.d))
        obj = ShiftedObjective(p, delta, Z)
        x = rng.standard_normal(p.d)
        direct = problems.average_value(p, x) + delta / (2 * p.m) * np.sum(
            (x[None, :] - Z) ** 2
        )
        assert obj.values(x) == pytest.approx(direct, rel=1e-12)

    def test_gradient_consistency(self, small_ridge, rng):
        p = small_ridge
        obj = ShiftedObjective(p, 0.7, rng.standard_normal((p.m, p.d)))
        x = rng.standard_normal(p.d)
        h = 1e-6
        g = obj.grad(x)
        for j in range(0, p.d, 3):
            e = np.zeros(p.d)
            e[j] = h
            fd = (obj.values(x + e) - obj.values(x - e)) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("delta", [0.0, 0.8])
    @pytest.mark.parametrize("reg", list(REGULARIZERS))
    @pytest.mark.parametrize("loss_kind", ["quadratic-ridge", "smooth-hinge", "logistic"])
    def test_matches_reference_loop(self, loss_kind, reg, delta):
        p = _problem(loss_kind, REGULARIZERS[reg])
        rng = np.random.default_rng(17)
        Z = rng.standard_normal((p.m, p.d)) if delta else None
        # k > d rows, so the evaluation runs in more than one block; some
        # rows leave the box, where u is inf
        X = 0.3 * rng.standard_normal((2 * p.d + 3, p.d))
        X[0] = 0.0
        X[1, 0] = 2.0
        got = ShiftedObjective(p, delta, Z).values(X)
        ref = _reference_values(p, delta, Z, X)
        assert got.shape == ref.shape
        finite = np.isfinite(ref)
        assert np.array_equal(np.isfinite(got), finite)
        if reg == "box":
            assert not finite[1]
        np.testing.assert_allclose(got[finite], ref[finite], rtol=1e-12, atol=0.0)
        if delta == 0.0 and reg == "zero":
            np.testing.assert_allclose(problems.average_value(p, X), ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("loss_kind", ["quadratic-ridge", "logistic"])
    def test_point_gives_scalar_of_row_zero(self, loss_kind):
        p = _problem(loss_kind, REGULARIZERS["l1"])
        X = 0.3 * np.random.default_rng(5).standard_normal((4, p.d))
        obj = ShiftedObjective(p, 0.5, X)
        v = obj.values(X[0])
        assert isinstance(v, float)
        assert v == pytest.approx(obj.values(X)[0], rel=1e-12)
        assert problems.average_value(p, X[0]) == pytest.approx(
            problems.average_value(p, X)[0], rel=1e-12
        )

    @pytest.mark.parametrize("loss_kind", ["smooth-hinge", "logistic"])
    def test_non_finite_row_raises(self, loss_kind):
        p = _problem(loss_kind, REGULARIZERS["zero"])
        X = np.zeros((p.m, p.d))
        X[2, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ShiftedObjective(p, 0.0, None).values(X)

    def test_stack_shape_checked(self):
        p = _problem("logistic", REGULARIZERS["zero"])
        for bad in (np.zeros((3, p.d + 1)), np.zeros((2, 3, p.d)), np.zeros(())):
            with pytest.raises(ValueError, match="shape"):
                problems.average_value(p, bad)

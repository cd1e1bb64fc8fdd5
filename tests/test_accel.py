import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import hinge_problem, logistic_problem, traced_peak
from sonatasim import datagen, diagnostics, network, problems, sonata
from sonatasim.accel import (
    AccelParams,
    DegenerateSimilarityError,
    PerfectlyConditionedError,
    RunObserver,
    acc_sonata_run,
    tune,
)
from sonatasim.problems import Constants, Regularizer


class TestTune:
    def test_alpha_formula(self):
        c = Constants(mu_hat=1.0, L_hat=10.0, Lmx_hat=12.0, beta_hat=4.0)
        params = tune(c, "F")
        assert params.delta == pytest.approx(3.0)
        assert params.alpha == pytest.approx(0.5)

    def test_alpha_identity_invariant(self):
        c = Constants(mu_hat=0.37, L_hat=210.0, Lmx_hat=260.0, beta_hat=55.0)
        for mode in ("F", "L"):
            p = tune(c, mode)
            assert abs(p.alpha**2 * (p.mu + p.delta) - p.mu) <= 1e-12

    def test_inner_length_log_rule(self):
        mu = 1.0
        c = Constants(mu_hat=mu, L_hat=100.0, Lmx_hat=120.0, beta_hat=math.e**2)
        assert tune(c, "F").T == 2
        c2 = Constants(mu_hat=mu, L_hat=100.0, Lmx_hat=120.0, beta_hat=1.0001)
        assert tune(c2, "F").T == 1
        c3 = Constants(mu_hat=1.0, L_hat=math.e**3, Lmx_hat=math.e**3, beta_hat=2.0)
        assert tune(c3, "L").T == 3

    def test_degenerate_modes_raise(self):
        c = Constants(mu_hat=5.0, L_hat=50.0, Lmx_hat=60.0, beta_hat=2.0)
        with pytest.raises(DegenerateSimilarityError):
            tune(c, "F")
        c2 = Constants(mu_hat=5.0, L_hat=5.0, Lmx_hat=5.0, beta_hat=2.0)
        with pytest.raises(PerfectlyConditionedError):
            tune(c2, "L")

    def test_surrogate_weights(self):
        c = Constants(mu_hat=1.0, L_hat=10.0, Lmx_hat=12.0, beta_hat=4.0)
        pf = tune(c, "F")
        assert (pf.mode, pf.surrogate_weight) == ("F", 4.0)
        pl = tune(c, "L")
        assert pl.mode == "L"
        assert pl.surrogate_weight == pytest.approx(10.0 + 9.0)  # L + delta

    def test_replace_delta_recomputes_alpha(self):
        c = Constants(mu_hat=1.0, L_hat=10.0, Lmx_hat=12.0, beta_hat=4.0)
        p = replace(tune(c, "F"), delta=8.0)
        assert p.alpha == pytest.approx(math.sqrt(1.0 / 9.0))
        assert tune(c, "F", delta=8.0) == p

    def test_replace_delta_rederives_mode_l_weight(self):
        c = Constants(mu_hat=1.0, L_hat=10.0, Lmx_hat=12.0, beta_hat=4.0)
        p = replace(tune(c, "L"), delta=100.0)
        assert p.mode == "L"
        assert p.surrogate_weight == pytest.approx(10.0 + 100.0)
        pf = replace(tune(c, "F"), delta=100.0)
        assert (pf.mode, pf.surrogate_weight) == ("F", 4.0)

    def test_given_delta_skips_degenerate_checks(self):
        # delta = 0 is the plain inner method; it needs no acceleration premise
        c = Constants(mu_hat=5.0, L_hat=5.0, Lmx_hat=5.0, beta_hat=0.0)
        pf = tune(c, "F", delta=0.0)
        assert pf.alpha == 1.0 and pf.T == 1
        assert (pf.mode, pf.surrogate_weight) == ("F", 5.0)  # beta = 0 falls back to mu
        pl = tune(c, "L", delta=0.0)
        assert (pl.mode, pl.surrogate_weight) == ("L", 5.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("K_max", -1),
        ],
    )
    def test_run_settings_are_checked(self, field, value):
        c = Constants(mu_hat=1.0, L_hat=10.0, Lmx_hat=12.0, beta_hat=4.0)
        with pytest.raises(ValueError, match=field):
            tune(c, "F", **{field: value})

    @pytest.mark.parametrize("field", ["T", "K_max"])
    def test_counts_reject_booleans(self, field):
        # isinstance(True, int) holds, so T=True and K_max=True were accepted
        params = AccelParams("F", 1.0, 2, 1.0, 1.0)
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            replace(params, **{field: True})

    def test_local_solver_carries_run_settings(self, small_ridge, small_ridge_constants):
        params = tune(small_ridge_constants, "L")
        solver = params.local_solver(small_ridge)
        assert (solver.mode, solver.weight, solver.delta) == (
            params.mode, params.surrogate_weight, params.delta
        )
        assert (solver.tol, solver.max_iters, solver.forcing) == (
            sonata.SUBPROBLEM_TOL, sonata.MAX_INNER_ITERS, sonata.FORCING
        )

    def test_extrapolation_coefficient_range(self):
        for delta in (0.0, 0.5, 10.0, 1e6):
            p = AccelParams(mode="F", delta=delta, T=1, mu=1.0, weight=1.0)
            assert 0.0 <= p.extrapolation_coef < 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        mode=st.sampled_from(["F", "L"]),
        mu=st.floats(1e-6, 1e6),
        delta=st.floats(0.0, 1e6),
        weight=st.floats(1e-6, 1e6),
        new_delta=st.floats(0.0, 1e6),
    )
    def test_derived_values_follow_replaced_delta(self, mode, mu, delta, weight, new_delta):
        tuned = AccelParams(mode=mode, delta=delta, T=1, mu=mu, weight=weight)
        for p in (tuned, replace(tuned, delta=new_delta)):
            assert abs(p.alpha**2 * (p.mu + p.delta) - p.mu) <= 1e-12 * max(1.0, p.mu)
            if mode == "L":
                assert p.surrogate_weight == p.weight + p.delta
            else:
                assert p.surrogate_weight == p.weight


class TestAccSonataRun:
    def test_tracking_identity_across_warm_restarts(
        self, small_ridge, small_ridge_constants, small_gossip
    ):
        p = small_ridge
        params = tune(small_ridge_constants, "F")
        worst = [0.0]

        class Watch(RunObserver):
            def __init__(self):
                self.delta_z = None

            def on_outer_start(self, X, Y_warm, Z):
                self.delta_z = np.array(Z)
                worst[0] = max(
                    worst[0], reference.tracking_gap(p, X, Y_warm, params.delta, Z)
                )

            def on_inner_step(self, k, t, comms, X, Y):
                worst[0] = max(
                    worst[0], reference.tracking_gap(p, X, Y, params.delta, self.delta_z)
                )

        acc_sonata_run(p, replace(params, K_max=20), small_gossip, observer=Watch())
        assert worst[0] <= 1e-10

    def test_delta_zero_equals_plain_inner_loop(
        self, small_ridge, small_ridge_constants, small_gossip
    ):
        p = small_ridge
        params = tune(small_ridge_constants, "F", delta=0.0, T=3)
        seen = []

        class Cap(RunObserver):
            def on_inner_step(self, k, t, comms, X, Y):
                seen.append(np.array(X))

        acc_sonata_run(p, replace(params, K_max=6), small_gossip, observer=Cap())
        X0 = np.zeros((p.m, p.d))
        Y0 = problems.batch_grads(p, X0)
        plain = []
        sonata.sonata_run(
            p,
            sonata.SonataState(X0, Y0, Y0, Y0, 0),
            18,
            small_gossip,
            params.local_solver(p),
            Z=X0,
            on_step=lambda t, cm, X, Y: plain.append(np.array(X)),
        )
        for a, b in zip(seen, plain):
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_non_finite_tracking_start_raises(
        self, small_ridge, small_ridge_constants, small_gossip, monkeypatch
    ):
        # a NaN drift compares False against any tolerance: the start's
        # gradients, which seed Y, turn NaN
        params = tune(small_ridge_constants, "F")
        batch_grads, calls = problems.batch_grads, itertools.count()

        def failing(p, X):
            return batch_grads(p, X) * (math.nan if next(calls) == 0 else 1.0)

        monkeypatch.setattr(problems, "batch_grads", failing)
        with pytest.raises(problems.DivergenceError, match="at outer 0: drift nan"):
            acc_sonata_run(small_ridge, replace(params, K_max=2), small_gossip)
        assert next(calls) == 1

    def test_tracking_drift_is_caught_when_the_gradients_are_huge(self, monkeypatch):
        # gradients near 1e300: ||G_bar|| overflowed to inf, so the identity
        # passed whatever the drift; the clean run passes without a warning
        cfg = datagen.SyntheticRidgeConfig(m=4, n=50, d=5, mu0=1e-300, L0=1e300)
        p = datagen.gen_ridge(cfg)
        params = replace(tune(problems.estimate_constants(p), "F"), K_max=2)
        W = network.exact_averaging(p.m)
        assert acc_sonata_run(p, params, W).K_done == 2
        state = sonata.SonataState

        def corrupted(X, Y, G, grads, comms):  # trackers off by 1e-6 relative
            return state(X, Y * (1.0 + 1e-6), G, grads, comms)

        monkeypatch.setattr(sonata, "SonataState", corrupted)
        with pytest.raises(problems.DivergenceError, match="at outer 0: drift [0-9.]+e\\+29[0-9]"):
            acc_sonata_run(p, params, W)

    @pytest.mark.parametrize("nan", [False, True], ids=["inf", "inf-and-nan"])
    def test_non_finite_gradient_mean_fails(
        self, small_ridge, small_ridge_constants, small_gossip, monkeypatch, nan
    ):
        # an inf in the start's gradients but not in its trackers made both
        # norms inf, and inf <= 1e-8 * inf passed; math.hypot gives inf, not
        # NaN, for an inf beside a NaN
        state = sonata.SonataState

        def corrupted(X, Y, G, grads, comms):
            grads = grads.copy()
            grads[0, 0] = np.inf
            grads[1, 1] = np.nan if nan else grads[1, 1]
            return state(X, Y, G, grads, comms)

        monkeypatch.setattr(sonata, "SonataState", corrupted)
        params = replace(tune(small_ridge_constants, "F"), K_max=2)
        with pytest.raises(problems.DivergenceError, match="at outer 0: drift inf"):
            acc_sonata_run(small_ridge, params, small_gossip)

    def test_state_of_a_run_stopped_on_target_is_checked(
        self, small_ridge, small_ridge_constants, small_gossip, monkeypatch
    ):
        # the last gossip refresh of outer 0 turns NaN and outer 0 meets the
        # target: the run used to return converged=True with NaN trackers
        params = tune(small_ridge_constants, "F")
        batch_grads, calls = problems.batch_grads, itertools.count()

        def failing(p, X):
            return batch_grads(p, X) * (1.0 if next(calls) < params.T else math.nan)

        monkeypatch.setattr(problems, "batch_grads", failing)
        with pytest.raises(problems.DivergenceError, match="at outer 1: drift nan"):
            acc_sonata_run(small_ridge, params, small_gossip, gap_fn=lambda X: 0.0, target_gap=1e9)
        assert next(calls) == 1 + params.T  # the check takes no gradient of its own

    def test_boundary_gradients_are_computed_once(
        self, small_ridge, small_ridge_constants, small_gossip, monkeypatch
    ):
        # the start-up Y and each inner loop's last gossip round hold the local
        # gradients at the next boundary's X; mode L's local step takes none,
        # so a run makes one call at X = 0 and one per gossip round
        params = replace(tune(small_ridge_constants, "L"), K_max=4)
        batch_grads, calls = problems.batch_grads, []

        def counting(p, X):
            calls.append(1)
            return batch_grads(p, X)

        monkeypatch.setattr(problems, "batch_grads", counting)
        acc_sonata_run(small_ridge, params, small_gossip)
        assert len(calls) == 1 + params.K_max * params.T

    @pytest.mark.parametrize("mode", ["F", "L"])
    def test_shifted_gradients_once_per_boundary_and_round(
        self, small_ridge, small_ridge_constants, small_gossip, monkeypatch, mode
    ):
        # the inner loop starts from the shifted gradients the boundary
        # checked; it used to shift them again, 2 K + 1 + K T calls in all
        params = replace(tune(small_ridge_constants, mode), K_max=5)
        shifted_grads, calls = sonata.shifted_grads, []

        def counting(*args):
            calls.append(1)
            return shifted_grads(*args)

        monkeypatch.setattr(sonata, "shifted_grads", counting)
        res = acc_sonata_run(small_ridge, params, small_gossip)
        assert res.K_done == 5
        assert len(calls) == (res.K_done + 1) + res.K_done * params.T

    def test_comm_counter_is_k_times_t_times_rounds(
        self, small_ridge, small_ridge_constants, small_gossip
    ):
        p = small_ridge
        base = small_gossip
        W = network.ChebyshevGossip(base, 3)
        params = tune(small_ridge_constants, "F")
        res = acc_sonata_run(p, replace(params, K_max=5), W)
        assert res.comms == 5 * params.T * W.rounds_per_application

    def test_half_duplex_flag_doubles_count(
        self, small_ridge, small_ridge_constants, small_gossip
    ):
        # half-duplex accounting is a W that charges two rounds per application
        params = tune(small_ridge_constants, "F")
        W = replace(small_gossip, rounds_per_application=2)
        res = acc_sonata_run(small_ridge, replace(params, K_max=3), W)
        assert res.comms == 2 * 3 * params.T

    def test_target_gap_stops_early(self, small_ridge, small_ridge_constants, small_gossip):
        p = small_ridge
        oracle = diagnostics.centralized_solve(p)
        params = tune(small_ridge_constants, "F")
        res = acc_sonata_run(
            p,
            replace(params, K_max=200),
            small_gossip,
            gap_fn=lambda X: diagnostics.optimality_gap(p, X, oracle),
            target_gap=1e-6,
        )
        assert res.converged and res.K_done < 200
        assert res.gaps[-1] <= 1e-6

    def test_target_gap_without_gap_fn_raises(
        self, small_ridge, small_ridge_constants, small_gossip, monkeypatch
    ):
        # the run went on to K_max and returned converged False with no gaps
        def unevaluated(*args):
            raise AssertionError("a gradient was evaluated before the target was checked")

        monkeypatch.setattr(problems, "batch_grads", unevaluated)
        params = tune(small_ridge_constants, "F")
        with pytest.raises(ValueError, match="target_gap needs a gap_fn"):
            acc_sonata_run(small_ridge, params, small_gossip, target_gap=1e-6)

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_gap_stops_the_run(
        self, small_ridge, small_ridge_constants, small_gossip, bad
    ):
        # gap_fn turns non-finite after outer iteration 3: the run used to go
        # on to K_max, recording the gap, with no target to compare it with
        class Counting(RunObserver):
            ends = 0

            def on_outer_end(self, X, X_prev):
                self.ends += 1

        observer, gaps = Counting(), iter([1.0, 0.5, bad, 0.25])
        params = replace(tune(small_ridge_constants, "F"), K_max=10)
        with pytest.raises(problems.DivergenceError) as info:
            acc_sonata_run(
                small_ridge, params, small_gossip, observer=observer, gap_fn=lambda X: next(gaps)
            )
        # counted as the tracking check counts its boundaries: 3 outer iterations done
        assert str(info.value) == f"non-finite optimality gap at outer 3: {bad}"
        assert observer.ends == 3

    def test_gap_decreases_geometrically_in_tail(
        self, small_ridge, small_ridge_constants, small_gossip
    ):
        p = small_ridge
        oracle = diagnostics.centralized_solve(p)
        params = tune(small_ridge_constants, "F")
        res = acc_sonata_run(
            p,
            replace(params, K_max=40),
            small_gossip,
            gap_fn=lambda X: diagnostics.optimality_gap(p, X, oracle),
        )
        factor = reference.fit_contraction_factor(res.gaps)
        assert factor < 1.0

    @pytest.mark.parametrize(
        "case, m, edge_p, bound",
        [("L", 60, 0.2, 11.5), ("L", 300, 0.05, 11.5), ("F-iterative", 60, 0.2, 16.0)],
        ids=["dense", "csr", "iterative-step"],
    )
    def test_solve_holds_no_dead_stack(self, case, m, edge_p, bound):
        # in mode L the solve's peak is in the tracker mix: Z, the outer
        # iterate the extrapolation reads, the state's Y and G, the local
        # step's output, the round's mixed iterate, its two gradient stacks
        # and tracker update, and the degree-2 mix's two products, 11 (m, d)
        # stacks.  Holding the pre-restart tracker, the previous centers or
        # outer iterate, or an iterate or its gradients the local step has
        # read adds one stack each; the loops used to hold 19 here.  Mode
        # F's iterative step peaks in its own arrays, 15.6 stacks, into
        # which the last round's output, held past its mix, adds one (22.6
        # in the old loops).
        if case == "L":
            p = datagen.gen_ridge(
                datagen.SyntheticRidgeConfig(m=m, n=20, d=40, mu0=1.0, L0=100.0, seed=3)
            )
        else:
            p = logistic_problem(m=m, n=20, d=40, reg=Regularizer("l1", weight=1e-3))
        base = network.metropolis_hastings(network.erdos_renyi(m, edge_p, seed=3))
        W = network.chebyshev_accelerate(base, 0.3)
        assert isinstance(base.W, np.ndarray) == (m == 60) and W.M == 2
        params = replace(tune(problems.estimate_constants(p), case[0]), K_max=2)
        assert params.T >= 2 and params.local_solver(p).steps is not None
        _, peak = traced_peak(lambda: acc_sonata_run(p, params, W))
        assert peak / (m * p.d * 8) <= bound


@pytest.fixture(scope="module")
def hinge_l1():
    p = hinge_problem(m=6, lam=0.05, reg=Regularizer("l1", weight=0.01))
    return p, problems.estimate_constants(p)


class TestTrackingProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        hinge=st.booleans(),
        mode=st.sampled_from(["F", "L"]),
        delta_over_L=st.floats(0.0, 10.0),
        T=st.integers(1, 6),
        K_max=st.integers(1, 4),
    )
    def test_identity_holds_under_any_delta_and_T(
        self, small_ridge, small_ridge_constants, small_gossip, hinge_l1,
        hinge, mode, delta_over_L, T, K_max,
    ):
        # the identity does not depend on how well the local step is solved
        p, c = hinge_l1 if hinge else (small_ridge, small_ridge_constants)
        params = tune(c, mode, delta=delta_over_L * c.L_hat, T=T)
        worst = []

        class Watch(RunObserver):
            def on_outer_start(self, X, Y_warm, Z):
                self.Z = np.array(Z)

            def on_inner_step(self, k, t, comms, X, Y):
                G = sonata.shifted_grads(X, params.delta, self.Z, problems.batch_grads(p, X))
                gap = reference.tracking_gap(p, X, Y, params.delta, self.Z)
                worst.append(gap / (1.0 + np.linalg.norm(G.mean(axis=0))))

        acc_sonata_run(p, replace(params, K_max=K_max), small_gossip, observer=Watch())
        assert len(worst) == K_max * T
        assert max(worst) <= 1e-10


class TestInexactLocalSteps:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: hinge_problem(m=6, lam=0.05, reg=Regularizer("l1", weight=0.01)),
            lambda: logistic_problem(m=6, lam=0.05, reg=Regularizer("box", lo=-0.5, hi=0.5)),
            lambda: logistic_problem(m=6, lam=0.05, reg=Regularizer("l1", weight=0.01)),
        ],
        ids=["hinge-l1", "logistic-box", "logistic-l1"],
    )
    def test_forcing_term_keeps_the_communication_count(self, small_gossip, monkeypatch, make):
        # stopping each local step at FORCING times its warm-start gradient
        # mapping must not cost a single extra communication round
        p = make()
        oracle = diagnostics.centralized_solve(p)
        params = replace(tune(problems.estimate_constants(p), "F"), K_max=200)
        target = 1e-8
        solve = sonata._prox_gradient_subproblem

        def run():
            iters = []

            def counted(*args):
                out = solve(*args)
                iters.append(out[2])
                return out

            monkeypatch.setattr(sonata, "_prox_gradient_subproblem", counted)
            res = acc_sonata_run(
                p, params, small_gossip,
                gap_fn=lambda X: diagnostics.optimality_gap(p, X, oracle),
                target_gap=target,
            )
            return res, sum(iters)

        inexact, inexact_iters = run()
        monkeypatch.setattr(sonata, "FORCING", 0.0)
        exact, exact_iters = run()
        assert inexact.converged and exact.converged
        assert all(inexact.subproblem_converged)
        assert (inexact.K_done, inexact.comms) == (exact.K_done, exact.comms)
        assert inexact.gaps[-1] <= target
        assert inexact_iters < exact_iters


class TestCompositeObjective:
    def test_l1_run_reaches_composite_optimum(self, small_gossip):
        from sonatasim.problems import Regularizer
        from sonatasim import datagen

        cfg = datagen.SyntheticRidgeConfig(m=6, n=120, d=10, mu0=1.0, L0=100.0, seed=11)
        p = datagen.gen_ridge(cfg)
        p.reg = Regularizer("l1", weight=0.5)
        c = problems.estimate_constants(p)
        oracle = diagnostics.centralized_solve(p)
        params = tune(c, "F")
        res = acc_sonata_run(
            p, replace(params, K_max=150), small_gossip,
            gap_fn=lambda X: diagnostics.optimality_gap(p, X, oracle),
            target_gap=1e-7,
        )
        assert res.converged
        assert all(res.subproblem_converged)

    def test_box_constraint_keeps_iterates_feasible(self, small_gossip):
        from sonatasim.problems import Regularizer
        from sonatasim import datagen

        cfg = datagen.SyntheticRidgeConfig(m=6, n=120, d=10, mu0=1.0, L0=100.0, seed=11)
        p = datagen.gen_ridge(cfg)
        p.reg = Regularizer("box", lo=0.0, hi=4.0)
        c = problems.estimate_constants(p)
        params = tune(c, "L")
        seen = []

        class Cap(RunObserver):
            def on_inner_step(self, k, t, comms, X, Y):
                seen.append(np.array(X))

        acc_sonata_run(p, replace(params, K_max=10), small_gossip, observer=Cap())
        final = seen[-1]
        assert final.min() >= -1e-12 and final.max() <= 4.0 + 1e-12

    def test_subproblem_cap_is_flagged_not_fatal(self, small_gossip, monkeypatch):
        from sonatasim.problems import Regularizer
        from sonatasim import datagen

        cfg = datagen.SyntheticRidgeConfig(m=6, n=120, d=10, mu0=1.0, L0=100.0, seed=11)
        p = datagen.gen_ridge(cfg)
        p.reg = Regularizer("l1", weight=0.1)
        c = problems.estimate_constants(p)
        params = replace(tune(c, "F"), K_max=3)
        monkeypatch.setattr(sonata, "MAX_INNER_ITERS", 2)
        monkeypatch.setattr(sonata, "SUBPROBLEM_TOL", 1e-14)
        res = acc_sonata_run(p, params, small_gossip)
        assert res.K_done == 3
        assert not all(res.subproblem_converged)


def single_agent_problem(seed=2, n=60, d=8):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((1, n, d))
    b = rng.standard_normal((1, n))
    return problems.ProblemSpec("quadratic-ridge", A, b, lam=0.05)


class TestSingleMachineEquivalence:
    def _params(self, p, mode):
        c = problems.estimate_constants(p)
        mu = c.mu_hat
        delta = 0.5 * (c.L_hat - mu)
        weight = 0.3 * c.L_hat if mode == "F" else c.L_hat
        return AccelParams(mode=mode, delta=delta, T=3, mu=mu, weight=weight), c

    def test_full_surrogate_matches_reference(self):
        p = single_agent_problem()
        params, c = self._params(p, "F")
        beta = params.surrogate_weight
        outs = []

        class Cap(RunObserver):
            def on_outer_end(self, X, X_prev):
                outs.append(X[0].copy())

        acc_sonata_run(p, replace(params, K_max=8), network.exact_averaging(1), observer=Cap())

        H = reference.hessian_bound(p, 0)
        h = p.A[0].T @ p.b[0] / p.n
        x = np.zeros(p.d)
        z = x.copy()
        coef = params.extrapolation_coef
        for k in range(8):
            xc = x.copy()
            for _ in range(params.T):
                xc = np.linalg.solve(
                    H + (params.delta + beta) * np.eye(p.d),
                    h + params.delta * z + beta * xc,
                )
            z = xc + coef * (xc - x)
            x = xc
            assert np.max(np.abs(outs[k] - x)) <= 1e-9

    def test_linearized_surrogate_matches_reference(self):
        p = single_agent_problem(seed=3)
        params, c = self._params(p, "L")
        L_surr = params.surrogate_weight
        outs = []

        class Cap(RunObserver):
            def on_outer_end(self, X, X_prev):
                outs.append(X[0].copy())

        acc_sonata_run(p, replace(params, K_max=8), network.exact_averaging(1), observer=Cap())

        H = reference.hessian_bound(p, 0)
        h = p.A[0].T @ p.b[0] / p.n
        x = np.zeros(p.d)
        z = x.copy()
        coef = params.extrapolation_coef
        for k in range(8):
            xc = x.copy()
            for _ in range(params.T):
                g = H @ xc - h + params.delta * (xc - z)
                xc = xc - g / L_surr
            z = xc + coef * (xc - x)
            x = xc
            assert np.max(np.abs(outs[k] - x)) <= 1e-9

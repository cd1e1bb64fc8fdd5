import dataclasses
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import classification_problem, hinge_problem, logistic_problem, traced_peak
from reference import curvature_in_one_call, hessian_bound, local_value
from sonatasim import datagen, diagnostics, problems, sonata
from sonatasim.problems import (
    DegenerateProblemError,
    ProblemSpec,
    Regularizer,
    estimate_constants,
    local_grad,
    smooth_hinge_deriv,
)


def quad_problem(A_list, b_list, lam=0.0):
    return ProblemSpec(
        loss_kind="quadratic-ridge",
        A=np.stack(A_list),
        b=np.stack(b_list),
        lam=lam,
    )


class TestLocalValue:
    def test_quadratic_identity_rows(self):
        # 1/(2n) ||I x||^2 with n = 2 rows and x = (1, 1)
        p = quad_problem([np.eye(2)], [np.zeros(2)])
        assert local_value(p, 0, np.array([1.0, 1.0])) == pytest.approx(2.0 / 4.0)

    def test_hinge_zero_past_margin(self):
        # single sample with margin 2 contributes no loss, only the ridge term
        A = np.array([[[2.0, 0.0]]])
        b = np.array([[1.0]])
        p = ProblemSpec("smooth-hinge", A, b, lam=0.5)
        x = np.array([1.0, 3.0])
        assert local_value(p, 0, x) == pytest.approx(0.25 * (x @ x))

    def test_hinge_quadratic_piece(self):
        A = np.array([[[0.5, 0.0]]])
        b = np.array([[1.0]])
        p = ProblemSpec("smooth-hinge", A, b, lam=0.0)
        assert local_value(p, 0, np.array([1.0, 0.0])) == pytest.approx(0.125)

    def test_rejects_non_finite(self):
        p = quad_problem([np.eye(2)], [np.zeros(2)])
        with pytest.raises(ValueError):
            local_value(p, 0, np.array([np.nan, 0.0]))


class TestSmoothHinge:
    def test_pieces(self):
        past, below, quadratic = problems._smooth_hinge_into(np.array([1.5, -1.0, 0.5]))
        assert past == 0.0
        assert below == pytest.approx(1.5)
        assert quadratic == pytest.approx(0.125)

    def test_derivative_continuous_at_knots(self):
        eps = 1e-12
        assert smooth_hinge_deriv(0.0) == pytest.approx(-1.0)
        assert smooth_hinge_deriv(-eps) == pytest.approx(-1.0)
        assert smooth_hinge_deriv(1.0) == pytest.approx(0.0)
        assert smooth_hinge_deriv(1.0 + eps) == 0.0

    def test_convex_and_1_smooth(self):
        # second difference quotients on a grid stay in [0, 1]
        t = np.linspace(-3, 3, 1201)
        h = t[1] - t[0]
        vals = problems._smooth_hinge_into(t.copy())
        second = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / h**2
        assert second.min() >= -1e-9
        assert second.max() <= 1.0 + 1e-9


class TestGradients:
    def _fd_check(self, p, points=10, h=1e-6, tol=1e-5, seed=0):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        for i in range(p.m):
            for _ in range(points // p.m + 1):
                x = rng.standard_normal(p.d)
                g = local_grad(p, i, x)
                fd = np.empty(p.d)
                for j in range(p.d):
                    e = np.zeros(p.d)
                    e[j] = h
                    fd[j] = (local_value(p, i, x + e) - local_value(p, i, x - e)) / (2 * h)
                assert np.linalg.norm(g - fd) <= tol * max(1.0, np.linalg.norm(g))

    def test_quadratic_formula(self, small_ridge):
        p = small_ridge
        x = np.arange(p.d, dtype=float) / p.d
        expect = p.A[2].T @ (p.A[2] @ x - p.b[2]) / p.n
        assert local_grad(p, 2, x) == pytest.approx(expect, abs=1e-12)

    def test_finite_differences_all_losses(self, small_ridge):
        self._fd_check(small_ridge)
        self._fd_check(hinge_problem())
        self._fd_check(logistic_problem())

    def test_average_gradient_vanishes_at_minimizer(self, small_ridge):
        from sonatasim import diagnostics

        oracle = diagnostics.centralized_solve(small_ridge)
        g = np.mean(
            [local_grad(small_ridge, i, oracle.x_star) for i in range(small_ridge.m)],
            axis=0,
        )
        assert np.linalg.norm(g) <= 1e-8

    def test_batch_grads_match_loops(self, small_ridge):
        X = np.random.default_rng(1).standard_normal((small_ridge.m, small_ridge.d))
        G = problems.batch_grads(small_ridge, X)
        for i in range(small_ridge.m):
            assert G[i] == pytest.approx(local_grad(small_ridge, i, X[i]), abs=1e-12)


class TestRegularizer:
    @pytest.mark.parametrize(
        "fields",
        [
            {"kind": "zero", "weight": 5.0},
            {"kind": "zero", "lo": 0.0},
            {"kind": "l1", "weight": 0.1, "hi": 1.0},
            {"kind": "box", "lo": 0.0, "hi": 1.0, "weight": 0.1},
        ],
    )
    def test_field_of_another_kind_rejected(self, fields):
        # such a field used to be accepted and ignored
        with pytest.raises(ValueError, match="takes no"):
            Regularizer(**fields)


class TestProx:
    def test_zero_is_identity(self, small_ridge, rng):
        x = rng.standard_normal(small_ridge.d)
        assert problems._prox_into(small_ridge, x.copy(), 0.7) == pytest.approx(x)

    def test_l1_soft_threshold(self):
        p = ProblemSpec(
            "quadratic-ridge",
            np.zeros((1, 1, 2)),
            np.zeros((1, 1)),
            lam=1.0,
            reg=Regularizer("l1", weight=1.0),
        )
        out = problems._prox_into(p, np.array([2.0, -0.5]), 1.0)
        assert out == pytest.approx([1.0, 0.0])

    def test_box_clamp(self):
        p = ProblemSpec(
            "quadratic-ridge",
            np.zeros((1, 1, 3)),
            np.zeros((1, 1)),
            lam=1.0,
            reg=Regularizer("box", lo=0.0, hi=1.0),
        )
        got = problems._prox_into(p, np.array([-3.0, 0.4, 7.0]), 2.0)
        assert got == pytest.approx([0.0, 0.4, 1.0])

    @pytest.mark.parametrize("reg", ["zero", "l1", "box"])
    @pytest.mark.parametrize(
        "step",
        [0.0, -1.0, np.nan, np.array([[0.5], [np.nan], [0.5]])],
        ids=["zero", "negative", "nan", "one-bad-row"],
    )
    def test_bad_step_rejected(self, rng, step, reg):
        p = ProblemSpec(
            "quadratic-ridge",
            np.zeros((1, 1, 4)),
            np.zeros((1, 1)),
            lam=0.0,
            reg={
                "zero": Regularizer(),
                "l1": Regularizer("l1", weight=0.8),
                "box": Regularizer("box", lo=-1.0, hi=2.0),
            }[reg],
        )
        with pytest.raises(ValueError, match="step must be > 0"):
            problems.check_step(step)
        # the proximal-gradient solver checks its steps before any gradient
        x = rng.standard_normal((3, 4))
        before = x.tobytes()

        def grad(V):
            raise AssertionError("gradient evaluated")

        with pytest.raises(ValueError, match="step must be > 0"):
            problems.prox_gradient(p, grad, x, step, np.full(3, 0.5), 1e-8, 10)
        assert x.tobytes() == before

    @given(
        kind=st.sampled_from(["zero", "l1", "box"]),
        step=st.floats(0.01, 10.0),
        data=st.lists(st.floats(-50, 50), min_size=4, max_size=4),
        data2=st.lists(st.floats(-50, 50), min_size=4, max_size=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_nonexpansive(self, kind, step, data, data2):
        reg = {
            "zero": Regularizer(),
            "l1": Regularizer("l1", weight=0.8),
            "box": Regularizer("box", lo=-1.0, hi=2.0),
        }[kind]
        p = ProblemSpec(
            "quadratic-ridge", np.zeros((1, 1, 4)), np.zeros((1, 1)), lam=0.0, reg=reg
        )
        x, y = np.array(data), np.array(data2)
        px, py = (problems._prox_into(p, v.copy(), step) for v in (x, y))
        lhs = np.linalg.norm(px - py)
        assert lhs <= np.linalg.norm(x - y) + 1e-12


class TestConstants:
    def test_identical_agents_have_zero_similarity(self):
        A = np.random.default_rng(3).standard_normal((20, 5))
        p = quad_problem([A] * 4, [np.zeros(20)] * 4, lam=0.1)
        c = estimate_constants(p)
        assert c.beta_hat <= 1e-12

    def test_single_agent_diag(self):
        p = quad_problem([np.diag([1.0, 2.0])], [np.zeros(2)])
        c = estimate_constants(p)
        assert c.mu_hat == pytest.approx(0.5)
        assert c.L_hat == pytest.approx(2.0)

    def test_ordering_invariant(self, small_ridge_constants):
        c = small_ridge_constants
        assert 0 < c.mu_hat <= c.L_hat <= c.Lmx_hat + 1e-12

    def test_ordering_on_classification(self):
        c = estimate_constants(hinge_problem(lam=0.05))
        assert c.mu_hat == pytest.approx(0.05)
        assert c.mu_hat <= c.L_hat <= c.Lmx_hat + 1e-12

    def test_beta_is_exact_hessian_deviation_for_quadratic(self, small_ridge):
        p = small_ridge
        H = [hessian_bound(p, i) for i in range(p.m)]
        H_bar = np.mean(H, axis=0)
        expect = max(np.abs(np.linalg.eigvalsh(Hi - H_bar)).max() for Hi in H)
        c = estimate_constants(p)
        assert c.beta_hat == pytest.approx(expect, rel=1e-12)

    def test_degenerate_raises(self):
        # rank-1 data, no ridge: the average Hessian is singular
        A = np.outer(np.ones(3), np.array([1.0, 2.0]))
        p = quad_problem([A], [np.zeros(3)], lam=0.0)
        with pytest.raises(DegenerateProblemError):
            estimate_constants(p)
        with pytest.raises(DegenerateProblemError):
            estimate_constants(hinge_problem(lam=0.0))

    def test_nan_beta_rejected(self):
        with pytest.raises(ValueError, match="beta_hat"):
            problems.Constants(1.0, 2.0, 3.0, float("nan"))

    def test_curvature_caps(self):
        # logistic Hessian bound uses 1/4, hinge uses 1
        ph = hinge_problem(seed=8)
        pl = logistic_problem(seed=8)
        Hh = hessian_bound(ph, 0) - ph.lam * np.eye(ph.d)
        Hl = hessian_bound(pl, 0) - pl.lam * np.eye(pl.d)
        assert Hh == pytest.approx(4.0 * Hl)


def random_quad(m, n, d, lam, seed=3):
    rng = np.random.default_rng(seed)
    A, b = rng.standard_normal((m, n, d)), rng.standard_normal((m, n))
    return ProblemSpec("quadratic-ridge", A, b, lam=lam)


NO_GRAM = {
    "quadratic-n-below-d": lambda: random_quad(4, 5, 8, lam=0.3),
    "hinge": hinge_problem,
    "logistic": logistic_problem,
}


class TestShape:
    """m and d are fixed with n when a spec is built."""

    @pytest.mark.parametrize("make", [lambda: random_quad(4, 5, 8, lam=0.3), hinge_problem])
    def test_rows_spec(self, make):
        p = make()
        assert (p.m, p.n, p.d) == p.A.shape

    def test_generated_spec_reads_no_rows(self):
        p = datagen.gen_ridge(datagen.SyntheticRidgeConfig(m=3, n=20, d=4, seed=5))
        assert (p.m, p.n, p.d) == (3, 20, 4)
        q = dataclasses.replace(p, lam=0.5)
        assert (q.m, q.n, q.d) == (3, 20, 4)
        assert p.rows.cache_info().currsize == 0  # the statistics gave m and d
        assert p.A.shape == (3, 20, 4)

    @pytest.mark.parametrize("shape", [(4, 5, 8), (5, 40, 6)], ids=["d>n", "d<=n"])
    def test_after_replace(self, shape):
        p = random_quad(*shape, lam=0.3)
        q = dataclasses.replace(p, lam=0.1, reg=Regularizer("l1", weight=0.1))
        assert (q.m, q.n, q.d) == shape == q.A.shape


class TestGramMemo:
    """Exact-curvature d <= n instances keep one Gram stack; all others use A."""

    def test_statistics_computed_at_construction(self):
        p = random_quad(5, 40, 6, lam=0.3)
        assert not any(a.flags.writeable for a in p.stats)
        A, b = p.A, p.b
        At = A.transpose(0, 2, 1)
        expect = (
            np.matmul(At, A) / p.n,
            np.matmul(At, b[:, :, None])[..., 0] / p.n,
            (b**2).sum(axis=1),
        )
        assert all(np.array_equal(a, e) for a, e in zip(p.stats, expect))
        assert dataclasses.replace(p, lam=0.7).stats is p.stats

    @pytest.mark.parametrize("make", NO_GRAM.values(), ids=NO_GRAM.keys())
    def test_no_statistics_at_construction(self, make):
        p = make()
        assert p.stats is None and dataclasses.replace(p, lam=0.7).stats is None

    @pytest.mark.parametrize("m,n,d", [(6, 120, 10), (3, 7, 7), (1, 40, 5)])
    def test_gradients_match_the_data_path(self, m, n, d):
        p = random_quad(m, n, d, lam=0.3)
        X = np.random.default_rng(2).standard_normal((m, d))
        G = problems.batch_grads(p, X)
        assert not any(a.flags.writeable for a in p.stats)
        expect = np.stack([local_grad(p, i, X[i]) for i in range(m)])  # from A
        assert np.all(np.linalg.norm(G - expect, axis=1) <= 1e-12 * np.linalg.norm(expect, axis=1))

    @pytest.mark.parametrize("make", NO_GRAM.values(), ids=NO_GRAM.keys())
    def test_no_memo_kept(self, make):
        p = make()
        problems.batch_grads(p, np.ones((p.m, p.d)))
        estimate_constants(p)
        diagnostics.ShiftedObjective(p, 0.0, None)
        sonata.LocalSolver(p, "F", 1.0, 0.0)
        assert p.stats is None

    @pytest.mark.parametrize(
        "make",
        [lambda: random_quad(6, 120, 10, lam=0.3), *NO_GRAM.values()],
        ids=["quadratic", *NO_GRAM.keys()],
    )
    def test_hessian_bounds_equal_the_stacked_bounds(self, make):
        p = make()
        expect = np.stack([hessian_bound(p, i) for i in range(p.m)])
        assert np.array_equal(problems.hessian_bounds(p), expect)
        assert np.array_equal(problems.hessian_bounds(p), expect)  # the memo is not written

    def test_constants_leave_the_memo_intact(self):
        # curvature subtracts H_bar from its stack in place, which must be a copy
        X = np.random.default_rng(4).standard_normal((6, 8))
        first = random_quad(6, 60, 8, lam=0.2)
        G = problems.batch_grads(first, X)
        estimate_constants(first)
        assert np.array_equal(problems.batch_grads(first, X), G)
        second = random_quad(6, 60, 8, lam=0.2)
        estimate_constants(second)
        assert np.array_equal(problems.batch_grads(second, X), G)


def bits(*arrays) -> list:
    """The bytes, shape and dtype of each value, to compare for bit-equality."""
    return [(a.tobytes(), a.shape, a.dtype) for a in map(np.asarray, arrays)]


def curvature_bits(c: problems.Curvature) -> list:
    return bits(c.H_bar, c.H_bar_min, c.H_bar_max, c.lmax, c.beta)


RANGE_CASES = {
    "rows-n<d-odd-m": lambda: random_quad(7, 5, 8, lam=0.3),
    "classification": lambda: logistic_problem(m=5),
    "statistics": lambda: random_quad(5, 40, 6, lam=0.2),
    "m=1": lambda: random_quad(1, 5, 8, lam=0.3),
    "d=300": lambda: random_quad(3, 2, 300, lam=0.1),
}


@pytest.fixture
def agent_ranges(monkeypatch):
    """Ranges of one agent upwards; returns a setter of the CPU count."""
    monkeypatch.setattr(problems, "MIN_RANGE_AGENTS", 1)
    return lambda cpus: monkeypatch.setattr(problems, "_usable_cpus", lambda: cpus)


class TestAgentRanges:
    """The per-agent curvature kernels run in agent ranges, one per CPU, on
    threads, with every result bit-equal to one call on the whole stack."""

    @pytest.mark.parametrize(
        "m,cpus,expect",
        [(7, 3, [(0, 2), (2, 4), (4, 7)]), (2, 5, [(0, 1), (1, 2)]), (5, 1, [(0, 5)])],
    )
    def test_ranges_cover_the_agents_in_order(self, agent_ranges, m, cpus, expect):
        agent_ranges(cpus)
        assert problems._by_agent_ranges(m, lambda s: (s.start, s.stop)) == expect

    @pytest.mark.parametrize("m", [2 * problems.MIN_RANGE_AGENTS - 1, 4])
    def test_small_stack_starts_no_thread(self, monkeypatch, m):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(problems, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(problems.threading, "Thread", no_thread)
        assert problems._by_agent_ranges(m, lambda s: (s.start, s.stop)) == [(0, m)]

    @pytest.mark.parametrize("cpus", [1, 2, 3, 64], ids=lambda c: f"cpus={c}")
    @pytest.mark.parametrize("make", RANGE_CASES.values(), ids=RANGE_CASES.keys())
    def test_bit_equal_to_one_call(self, agent_ranges, make, cpus):
        agent_ranges(cpus)
        start = threading.active_count()
        p = make()
        expect = curvature_in_one_call(p)
        assert curvature_bits(problems.curvature(p)) == curvature_bits(expect)
        assert bits(problems.hessian_bounds(p)) == bits(
            np.stack([hessian_bound(p, i) for i in range(p.m)])
        )
        one_call = dataclasses.replace(p)
        one_call._curvature = expect  # the memo estimate_constants reads
        assert estimate_constants(p) == estimate_constants(one_call)
        assert threading.active_count() == start

    @pytest.mark.parametrize("agent", [0, -1], ids=["worker-range", "caller-range"])
    def test_overflow_in_a_range_is_an_input_error(self, agent_ranges, agent):
        # without the caller's errstate a worker range warned "overflow
        # encountered in matmul", which the error filter turns into the error
        agent_ranges(2)
        A = np.random.default_rng(1).standard_normal((4, 3, 2))
        A[agent, 0, 0] = 1e200
        p = ProblemSpec("logistic", A, np.ones((4, 3)), lam=0.1)
        start = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(problems.CurvatureOverflowError):
                problems.curvature(p)
        assert threading.active_count() == start

    def test_error_in_a_worker_range_reaches_the_caller(self, agent_ranges, monkeypatch):
        agent_ranges(3)
        caller, eigvalsh = threading.current_thread(), np.linalg.eigvalsh

        def fails_off_the_caller(a):
            if threading.current_thread() is not caller:
                raise np.linalg.LinAlgError("a worker range failed")
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", fails_off_the_caller)
        start = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError, match="a worker range failed"):
            problems.curvature(random_quad(6, 5, 8, lam=0.3))
        assert threading.active_count() == start


def masked_sigmoid(t):
    """1 / (1 + exp(-t)) by sign masks, the formula the kernel must reproduce."""
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class TestLossKernels:
    """The elementwise loss kernels and the gradients computed from A."""

    EDGES = [0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf]

    def grid(self):
        draws = np.random.default_rng(7).standard_normal(100_000) * np.logspace(-3, 3, 100_000)
        return np.concatenate([self.EDGES, draws])

    def test_sigmoid_bit_identical_to_masked_formula(self):
        t = self.grid()
        for label in (1.0, -1.0):
            got = problems.LOSSES["logistic"].deriv(t, np.full_like(t, label))
            want = -masked_sigmoid(-label * t) * label
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_logistic_derivative_bit_identical_to_sigmoid_form(self):
        # the kernel computed -sigmoid(-b t) * b in 13 array passes, with
        # sigmoid(s) = where(s >= 0, 1 / (1 + e), e / (1 + e)), e = exp(-|s|)
        def before(t, b):
            s = -b * t
            e = np.exp(-np.abs(s))
            return -np.where(s >= 0, 1.0 / (1.0 + e), e / (1.0 + e)) * b

        edges = [0.0, -0.0, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf]
        rng = np.random.default_rng(9)
        draws = rng.standard_normal(24_000) * np.logspace(-3, 3, 24_000)
        t = np.concatenate([edges, edges, draws])
        signs = np.where(rng.random(draws.size) < 0.5, -1.0, 1.0)
        b = np.concatenate([np.ones(len(edges)), -np.ones(len(edges)), signs])
        got = problems.LOSSES["logistic"].deriv(t, b)
        assert np.array_equal(got.view(np.int64), before(t, b).view(np.int64))

    def test_smooth_hinge_bit_identical_to_piecewise_form(self):
        # the kernel evaluates 0.5 (clip(t, 0, 1) - 1)^2 + max(-t, 0) without branches
        edges = [1.0, 1.0 + 2**-52, 1.0 - 2**-53, 5e-324, -5e-324, 0.5, 2.0, 1e308, -1e308]
        t = np.concatenate([self.grid(), edges, np.random.default_rng(3).uniform(-2, 2, 10_000)])
        with np.errstate(over="ignore"):  # the piecewise form squares every t
            want = np.where(t > 1.0, 0.0, np.where(t < 0.0, 0.5 - t, 0.5 * (t - 1.0) ** 2))
        hinge = problems.LOSSES["smooth-hinge"]
        for got in (
            problems._smooth_hinge_into(t.copy()),
            hinge.value_into(t.copy(), np.ones_like(t)),
        ):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("label", [1.0, -1.0])
    def test_logistic_value_within_4_ulp_of_logaddexp(self, label):
        t = self.grid()
        got = problems.LOSSES["logistic"].value_into(t.copy(), np.full_like(t, label))
        want = np.logaddexp(0.0, -label * t)
        finite = np.isfinite(want)
        assert np.array_equal(got[~finite], want[~finite])
        assert np.all(np.abs(got[finite] - want[finite]) <= 4 * np.spacing(want[finite]))

    @pytest.mark.parametrize("make", NO_GRAM.values(), ids=NO_GRAM.keys())
    def test_gradients_from_A_match_per_agent_loop(self, make):
        p = make()
        rng = np.random.default_rng(8)
        X = rng.standard_normal((p.m, p.d))
        G = problems.batch_grads(p, X)
        expect = np.stack([local_grad(p, i, X[i]) for i in range(p.m)])
        assert np.all(np.linalg.norm(G - expect, axis=1) <= 1e-13 * np.linalg.norm(expect, axis=1))
        x = rng.standard_normal(p.d)
        g = problems.average_grad(p, x)
        expect = np.mean([local_grad(p, i, x) for i in range(p.m)], axis=0)
        assert np.linalg.norm(g - expect) <= 1e-13 * np.linalg.norm(expect)


class TestAverageValue:
    @pytest.mark.parametrize("shape", [(6,), (4, 6), (15, 6)], ids=["point", "k<d", "k>d"])
    @pytest.mark.parametrize("loss", sorted(problems.LOSSES))
    def test_bit_equal_to_mean_loss_value(self, loss, shape):
        # lam = 0: the value is the mean loss alone, evaluated in place in
        # blocks of d points
        p = classification_problem(loss, 3, 50, 6, 0.0, seed=2)
        X = np.random.default_rng(4).standard_normal(shape)
        stack = np.atleast_2d(X)
        A, b = p.A.reshape(-1, p.d), p.b.reshape(-1)
        want = p.loss.value_into(stack @ A.T, b).mean(axis=1)
        got = np.atleast_1d(problems.average_value(p, X))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("loss", ["logistic", "smooth-hinge"])
    def test_peak_memory_at_most_two_and_a_half_blocks(self, loss):
        p = classification_problem(loss, 4, 2000, 10, 0.1, seed=3)
        X = np.random.default_rng(5).standard_normal((2 * p.d, p.d))
        block = p.d * p.m * p.n * 8  # the predictions of d points
        problems.average_value(p, X)  # the first call pays one-time imports and caches
        _, peak = traced_peak(lambda: problems.average_value(p, X))
        assert peak <= 2.5 * block


class TestLabelsValidation:
    def test_classification_rejects_non_pm1(self):
        with pytest.raises(ValueError):
            ProblemSpec(
                "smooth-hinge",
                np.ones((1, 2, 2)),
                np.array([[1.0, 2.0]]),
                lam=0.1,
            )

    def test_negative_lam_rejected(self):
        with pytest.raises(ValueError):
            ProblemSpec("quadratic-ridge", np.ones((1, 2, 2)), np.ones((1, 2)), lam=-1.0)

    def test_nan_lam_rejected(self):
        # it used to construct, and estimate_constants then raised LinAlgError
        with pytest.raises(ValueError, match="lam must be >= 0"):
            ProblemSpec("quadratic-ridge", np.ones((1, 2, 2)), np.ones((1, 2)), lam=np.nan)
        p = random_quad(2, 5, 3, lam=0.1)
        with pytest.raises(ValueError, match="lam must be >= 0"):
            dataclasses.replace(p, lam=np.nan)

    def test_nan_label_of_a_quadratic_rejected(self):
        # its statistics are computed at construction, and |b_i|^2 is NaN
        b = np.ones((1, 2))
        b[0, 1] = np.nan
        with pytest.raises(ValueError, match=r"\|b_i\|\^2"):
            ProblemSpec("quadratic-ridge", np.ones((1, 2, 2)), b, lam=0.1)


def stats_spec(loss_kind="quadratic-ridge", n=6, **changes):
    """A spec built from the statistics of a random (3, 6, 4) quadratic
    instance, with any of H, h and b_sq replaced."""
    src = random_quad(3, 6, 4, lam=0.1)
    H, h, b_sq = (changes.get(k, a.copy()) for k, a in src.stats._asdict().items())
    return ProblemSpec(
        loss_kind, lam=0.1, n=n, stats=problems.GramStats(H, h, b_sq), rows=src.rows
    )


class TestStatisticsValidation:
    def test_well_formed_statistics_accepted(self):
        p = stats_spec()
        assert (p.m, p.n, p.d) == (3, 6, 4)
        assert not any(a.flags.writeable for a in p.stats)

    @pytest.mark.parametrize(
        "changes",
        [
            {"H": np.zeros((3, 4, 5))},
            {"H": np.zeros((2, 4, 4))},
            {"h": np.zeros((3, 5))},
            {"h": np.zeros(4)},
            {"b_sq": np.zeros((3, 1))},
            {"b_sq": np.zeros(2)},
        ],
        ids=["H-not-square", "H-other-m", "h-other-d", "h-1d", "b_sq-2d", "b_sq-other-m"],
    )
    def test_wrong_shapes_rejected(self, changes):
        with pytest.raises(ValueError, match="statistics must be"):
            stats_spec(**changes)

    @pytest.mark.parametrize("loss_kind", ["smooth-hinge", "logistic"])
    def test_non_exact_loss_rejected(self, loss_kind):
        with pytest.raises(ValueError, match="not served by statistics"):
            stats_spec(loss_kind)

    @pytest.mark.parametrize("n", [3, float("nan")])
    def test_d_above_n_rejected(self, n):
        with pytest.raises(ValueError, match="d <= n"):
            stats_spec(n=n)

    @pytest.mark.parametrize("bad", [-1.0, np.nan])
    def test_negative_or_nan_b_sq_rejected(self, bad):
        with pytest.raises(ValueError, match=r"\|b_i\|\^2"):
            stats_spec(b_sq=np.array([1.0, bad, 2.0]))

    def test_rows_given_once(self):
        p = random_quad(2, 5, 3, lam=0.1)
        for kwargs in ({"rows": p.rows}, {"rows": p.rows, "A": p.A, "b": p.b, "n": 5}):
            with pytest.raises(ValueError, match="rows"):
                ProblemSpec("quadratic-ridge", lam=0.1, **kwargs)
        with pytest.raises(ValueError, match="A must be"):
            ProblemSpec("quadratic-ridge", p.A, p.b, lam=0.1, n=4)

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from sonatasim import network, problems
from sonatasim.network import (
    Graph,
    GossipMatrix,
    InstanceTooLargeError,
    UnreachableTargetError,
    boundary_classes,
    chebyshev_accelerate,
    complete_graph,
    cut_distance,
    erdos_renyi,
    exact_averaging,
    hard_instance,
    line_gossip_for_rho,
    line_graph,
    line_rho_value,
    metropolis_hastings,
    rounds_for_target,
    star_graph,
)


def chebyshev_bound_one_sided(base_rho: float, M: int) -> float:
    """Classical acceleration bound for a base whose bulk lies in [0, base_rho]."""
    xi = (1.0 - np.sqrt(1.0 - base_rho)) / (1.0 + np.sqrt(1.0 - base_rho))
    return float(2.0 * xi**M / (1.0 + xi ** (2 * M)))


def assert_doubly_stochastic(W, tol=1e-12):
    ones = np.ones(W.shape[0])
    assert np.max(np.abs(W @ ones - ones)) <= tol
    assert np.max(np.abs(W.T @ ones - ones)) <= tol


def fresh_rho(W):
    m = W.shape[0]
    M = W - np.full((m, m), 1.0 / m)
    M = 0.5 * (M + M.T)
    return np.abs(np.linalg.eigvalsh(M)).max()


def rounds_by_nested_search(base_rho, target_rho):
    """The degree search as first written: the closed form from scratch for
    each candidate M, O(M^2) in all; a reference for rounds_for_target."""
    for M in range(1, network.MAX_ROUNDS + 1):
        if reference.chebyshev_bound_two_sided(base_rho, M) <= target_rho:
            return M
    raise UnreachableTargetError(f"target {target_rho} not reached")


class TestGraphs:
    def test_complete_from_p_one(self):
        g = erdos_renyi(8, 1.0, seed=0)
        assert len(g.edges) == 8 * 7 // 2

    def test_er_paper_setup_connected(self):
        g = erdos_renyi(30, 0.5, seed=1)
        assert g.m == 30  # Graph constructor enforces connectivity

    def test_er_deterministic(self):
        assert erdos_renyi(12, 0.3, seed=5).edges == erdos_renyi(12, 0.3, seed=5).edges
        assert erdos_renyi(12, 0.3, seed=5).edges != erdos_renyi(12, 0.3, seed=6).edges

    @pytest.mark.parametrize(
        "m,p,seed", [(3, 0.4, 0), (12, 0.3, 5), (30, 0.5, 1), (100, 0.05, 7), (1000, 0.01, 3)]
    )
    def test_er_matches_per_pair_draws(self, m, p, seed):
        # one rng.random() per pair in row-major order, resampled until connected
        for attempt in np.random.SeedSequence(seed).spawn(100):
            rng = np.random.default_rng(attempt)
            edges = frozenset(
                (i, j) for i in range(m) for j in range(i + 1, m) if rng.random() < p
            )
            if network._connected(m, edges):
                break
        assert erdos_renyi(m, p, seed).edges == edges

    def test_line_and_star(self):
        assert line_graph(3).edges == frozenset({(0, 1), (1, 2)})
        assert star_graph(4).edges == frozenset({(0, 1), (0, 2), (0, 3)})
        for m in (2, 3, 7):
            line_graph(m)
            star_graph(m)  # constructor would raise if disconnected

    def test_degrees(self):
        assert list(star_graph(4).degrees()) == [3, 1, 1, 1]
        assert list(Graph(1, frozenset()).degrees()) == [0]


class TestMetropolisHastings:
    def test_two_node_complete(self):
        W = metropolis_hastings(complete_graph(2))
        assert W.W == pytest.approx(np.full((2, 2), 0.5))
        assert W.rho == pytest.approx(0.0, abs=1e-12)

    def test_line3_weights_and_rho(self):
        W = metropolis_hastings(line_graph(3))
        assert W.W[0, 1] == pytest.approx(1 / 3)
        assert W.W[1, 2] == pytest.approx(1 / 3)
        assert W.W[0, 0] == pytest.approx(2 / 3)
        assert W.W[1, 1] == pytest.approx(1 / 3)
        # eigenvalues of W - J/3 are {2/3, 0}; largest magnitude 2/3
        assert W.rho == pytest.approx(2 / 3, abs=1e-12)

    @pytest.mark.parametrize(
        "g",
        [erdos_renyi(30, 0.5, seed=1), erdos_renyi(8, 0.6, seed=4), line_graph(6), star_graph(5),
         complete_graph(4)],
        ids=["er30", "er8", "line", "star", "complete"],
    )
    def test_matches_per_edge_loop(self, g):
        deg = [sum(i in e for e in g.edges) for i in range(g.m)]
        ref = np.zeros((g.m, g.m))
        for i, j in g.edges:
            ref[i, j] = ref[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
        np.fill_diagonal(ref, 1.0 - ref.sum(axis=1))
        assert np.array_equal(metropolis_hastings(g).W, ref)

    def test_doubly_stochastic_and_cached_rho(self):
        for g in (erdos_renyi(15, 0.4, seed=2), line_graph(9), star_graph(7)):
            W = metropolis_hastings(g)
            assert_doubly_stochastic(W.W)
            assert abs(W.rho - fresh_rho(W.W)) <= 1e-10


class TestExactAveraging:
    def test_averages_in_one_round(self):
        W = exact_averaging(3)
        out = W.W @ np.array([[1.0], [2.0], [6.0]])
        assert out == pytest.approx(np.full((3, 1), 3.0))
        assert W.rho == 0.0

    def test_validation_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            GossipMatrix(np.array([[0.5, 0.4], [0.5, 0.6]]))  # rows don't sum to 1
        with pytest.raises(ValueError):
            GossipMatrix(np.eye(3))  # rho = 1


class TestOperatorChecks:
    """Each operator checks itself on construction, and a NaN fails each check."""

    def test_rejects_a_permutation_that_never_mixes(self):
        # a cyclic shift has unit row and column sums, but it is not symmetric
        # and never mixes; its symmetrised spectrum gave rho 0.809
        with pytest.raises(ValueError, match="not symmetric"):
            GossipMatrix(np.roll(np.eye(5), 1, axis=1))

    def test_rejects_a_nan_bulk(self, monkeypatch):
        # max(map(abs, bulk)) read 0.1 for the bulk (0.1, nan)
        W = metropolis_hastings(line_graph(4)).W
        monkeypatch.setattr(network, "_spectrum", lambda W: np.array([0.1, np.nan]))
        with pytest.raises(ValueError, match="rho must be < 1, got nan"):
            GossipMatrix(W)

    @pytest.mark.parametrize("M", [None, 3], ids=["plain", "chebyshev"])
    def test_rounds_per_application_below_one_raises(self, M):
        W = metropolis_hastings(erdos_renyi(12, 0.4, seed=3))
        if M is not None:
            W = chebyshev_accelerate(W, M)
        with pytest.raises(ValueError, match="rounds_per_application must be >= 1"):
            dataclasses.replace(W, rounds_per_application=0)


class TestChebyshev:
    def test_degree_one_on_symmetric_bulk_is_identity_polynomial(self):
        # the weighted line construction has a (nearly) symmetric bulk only in
        # special cases; use a two-node matrix where bulk = {2p-1}
        W0 = metropolis_hastings(line_graph(5))
        acc = chebyshev_accelerate(W0, 1)
        assert acc.rho <= W0.rho + 1e-12
        assert_doubly_stochastic(acc.mix(np.eye(5)))

    def test_fixes_consensus_eigenvector(self):
        base = metropolis_hastings(erdos_renyi(12, 0.4, seed=3))
        for M in (1, 2, 5):
            acc = chebyshev_accelerate(base, M)
            ones = np.ones(12)
            assert np.max(np.abs(acc.mix(np.eye(12)) @ ones - ones)) <= 1e-12
            assert acc.rounds_per_application == M

    def test_never_increases_rho(self):
        base = metropolis_hastings(erdos_renyi(10, 0.5, seed=8))
        prev = base.rho
        for M in (1, 2, 3, 4):
            acc = chebyshev_accelerate(base, M)
            assert acc.rho <= prev + 1e-12
            prev = acc.rho

    def test_one_sided_bound_achieved_on_psd_bulk(self):
        # lazy matrix has bulk in [0, rho]; the classical bound is then exact
        mh = metropolis_hastings(erdos_renyi(14, 0.4, seed=6))
        lazy = GossipMatrix(0.5 * (mh.W + np.eye(14)))
        for M in (1, 2, 4, 7):
            acc = chebyshev_accelerate(lazy, M)
            assert acc.rho <= chebyshev_bound_one_sided(lazy.rho, M) + 1e-8

    def test_two_sided_bound_for_general_bulk(self):
        base = metropolis_hastings(erdos_renyi(14, 0.4, seed=6))
        for M in (1, 3, 6):
            acc = chebyshev_accelerate(base, M)
            assert acc.rho <= reference.chebyshev_bound_two_sided(base.rho, M) + 1e-8

    def test_respects_hop_locality(self):
        base = metropolis_hastings(line_graph(9))
        for M in (1, 2, 3):
            W = chebyshev_accelerate(base, M).mix(np.eye(9))
            for i in range(9):
                for j in range(9):
                    if abs(i - j) > M:
                        assert W[i, j] == 0.0

    @pytest.fixture
    def eigvalsh_shapes(self, monkeypatch):
        """Shapes of the matrices np.linalg.eigvalsh decomposes from here on."""
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        return shapes

    def test_base_spectrum_is_not_decomposed_again(self, eigvalsh_shapes):
        # the base's eigenvalues are read from the base, measured when it was
        # built, and the result's bulk is the polynomial on them
        base = metropolis_hastings(erdos_renyi(12, 0.4, seed=6))
        eigvalsh_shapes.clear()
        acc = chebyshev_accelerate(base, 4)
        assert eigvalsh_shapes == []
        assert acc.rho == max(abs(acc.bulk[0]), abs(acc.bulk[1]))

    def test_replaced_matrix_keeps_its_spectrum(self, eigvalsh_shapes):
        # replace copies the measured eigenvalues with the bulk, so the
        # half-duplex copy of a base is accelerated without a decomposition
        base = metropolis_hastings(erdos_renyi(200, 0.1, seed=1))
        eigvalsh_shapes.clear()
        acc = chebyshev_accelerate(dataclasses.replace(base, rounds_per_application=2), 3)
        assert eigvalsh_shapes == []
        assert acc.bulk == chebyshev_accelerate(base, 3).bulk

    def test_replaced_W_is_measured_again(self):
        # replace(W=...) used to keep the old bulk (-0.312, 0.624) and, with
        # it, the old rho and eigenvalues
        mh = metropolis_hastings(erdos_renyi(14, 0.4, seed=6))
        lazy = 0.5 * (mh.W + np.eye(14))
        fresh = GossipMatrix(lazy)
        replaced = dataclasses.replace(mh, W=lazy)
        assert replaced.bulk == fresh.bulk and replaced.rho == fresh.rho
        assert replaced.bulk == pytest.approx((1.1e-16, 0.812), abs=1e-3)
        np.testing.assert_array_equal(replaced.spectrum(), fresh.spectrum())
        assert chebyshev_accelerate(replaced, 3).bulk == chebyshev_accelerate(fresh, 3).bulk

    def test_operator_holds_no_dense_matrix(self):
        g = erdos_renyi(40, 0.1, seed=2)
        acc = chebyshev_accelerate(metropolis_hastings(g), 3)
        assert acc.base.nnz == g.m + 2 * len(g.edges)
        assert not any(isinstance(v, np.ndarray) and v.shape == (40, 40) for v in vars(acc).values())

    # p >= 0.4 keeps a connected draw within erdos_renyi's resampling budget
    @settings(max_examples=100, deadline=None)
    @given(
        m=st.integers(2, 30),
        p=st.floats(0.4, 1.0),
        seed=st.integers(0, 2**16),
        M=st.integers(1, 6),
    )
    def test_sparse_recurrence_matches_dense_polynomial(self, m, p, seed, M):
        base = metropolis_hastings(erdos_renyi(m, p, seed=seed))
        lo, hi = base.bulk
        assume(hi - lo >= 1e-13)  # a point bulk stays a plain matrix
        # dense T_M(Y) / T_M(psi(1)), Y = psi(W), by the matrix recurrence
        Y = (2.0 * base.W - (hi + lo) * np.eye(m)) / (hi - lo)
        T_prev, T = np.eye(m), Y
        for _ in range(M - 1):
            T_prev, T = T, 2.0 * Y @ T - T_prev
        dense = T / np.cosh(M * np.arccosh((2.0 - hi - lo) / (hi - lo)))
        acc = chebyshev_accelerate(base, M)
        assert np.max(np.abs(acc.mix(np.eye(m)) - dense)) <= 1e-12
        X = np.random.default_rng(seed).standard_normal((m, 3))
        assert np.max(np.abs(acc.mix(X) - dense @ X)) <= 1e-12
        # the bulk evaluated on the base's eigenvalues is the dense matrix's
        fresh = np.linalg.eigvalsh(dense - np.full((m, m), 1.0 / m))
        assert acc.bulk == pytest.approx((fresh[0], fresh[-1]), abs=1e-10)

    def test_plain_topologies_do_not_import_scipy(self):
        # importing scipy costs about 0.2 s and 20 MB; only a Chebyshev build needs it
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from sonatasim import cli, network\n"
            "W = cli.build_gossip({'seed': 1, 'topology': {'kind': 'erdos_renyi', 'p': 0.5}}, 8)\n"
            "W.mix(np.ones((8, 2)))\n"
            "assert 'scipy' not in sys.modules\n"
            "network.chebyshev_accelerate(W, 2)\n"
            "assert 'scipy' in sys.modules\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_operator_checks_itself_on_construction(self):
        # a halved bulk makes the polynomial's measured deviation exceed its
        # closed form, which the operator's own constructor checks
        acc = chebyshev_accelerate(metropolis_hastings(erdos_renyi(12, 0.4, seed=3)), 3)
        with pytest.raises(network.TopologyError, match="exceeds closed-form"):
            dataclasses.replace(acc, lo=acc.lo / 2, hi=acc.hi / 2)

    def test_overflowing_degree_fails_its_check(self):
        # T_M(psi(1)) overflows, so scale and rho are NaN
        base = metropolis_hastings(erdos_renyi(12, 0.4, seed=3))
        with pytest.raises(network.TopologyError, match="measured rho nan"):
            chebyshev_accelerate(base, 5000)

    def test_point_bulk_collapses_to_averaging(self):
        W = exact_averaging(4)
        acc = chebyshev_accelerate(W, 3)
        assert acc.rho <= 1e-12

    # p >= 0.4 keeps a connected draw within erdos_renyi's resampling budget
    @settings(max_examples=100, deadline=None)
    @given(
        m=st.integers(2, 30),
        p=st.floats(0.4, 1.0),
        seed=st.integers(0, 2**16),
        M=st.integers(1, 6),
    )
    def test_random_graphs_stay_doubly_stochastic_within_closed_form(self, m, p, seed, M):
        base = metropolis_hastings(erdos_renyi(m, p, seed=seed))
        acc = chebyshev_accelerate(base, M)
        W = acc.mix(np.eye(m))
        assert np.max(np.abs(W - W.T)) <= 1e-12
        assert_doubly_stochastic(W)
        # closed form 1 / T_M(psi(1)), psi mapping the bulk [lo, hi] onto [-1, 1]
        bulk = np.linalg.eigvalsh(base.W - np.full((m, m), 1.0 / m))
        lo, hi = bulk[0], bulk[-1]
        if hi - lo < 1e-13:
            bound = 0.0  # the bulk is one point, which the affine map zeroes
        else:
            bound = 1.0 / np.cosh(M * np.arccosh((2.0 - hi - lo) / (hi - lo)))
        assert acc.rho <= bound + 1e-8


class TestRoundsForTarget:
    def test_trivial_cases(self):
        assert rounds_for_target(0.3, 0.5) == 1
        assert rounds_for_target(0.0, 0.1) == 1

    def test_zero_target_unreachable(self):
        with pytest.raises(UnreachableTargetError):
            rounds_for_target(0.5, 0.0)

    def test_formula_then_spectral_check(self):
        base, _ = line_gossip_for_rho(0.9, 200)
        M = rounds_for_target(base.rho, 0.1)
        acc = chebyshev_accelerate(base, M)
        assert acc.rho <= 0.1
        # M is minimal wrt the worst-case closed form
        assert reference.chebyshev_bound_two_sided(0.9, M - 1) > 0.1

    def test_tiny_base_rho_is_searched(self):
        # M = 1 reaches only 1e-16; a shortcut returned 1 for any base below 1e-15
        assert reference.chebyshev_bound_two_sided(1e-16, 1) > 1e-17
        assert rounds_for_target(1e-16, 1e-17) == 2

    def test_unreachable_target_stops_at_max_rounds(self):
        with pytest.raises(UnreachableTargetError, match=f"within {network.MAX_ROUNDS} rounds"):
            rounds_for_target(1 - 1e-9, 0.01)

    @pytest.mark.parametrize("base_rho", [1e-16, 1e-3, 0.3, 0.9, 0.99, 0.999, 1 - 1e-4])
    def test_matches_nested_search(self, base_rho):
        deep = (1e-17, 1e-300) if base_rho <= 0.9 else ()  # the reference is quadratic in M
        for target in (0.5, 0.1, 1e-2, 1e-4, 1e-8, *deep):
            if target < base_rho:
                assert rounds_for_target(base_rho, target) == rounds_by_nested_search(base_rho, target)

    def test_monotone_in_target(self):
        Ms = [rounds_for_target(0.95, t) for t in (0.5, 0.2, 0.05, 0.01)]
        assert Ms == sorted(Ms)


class TestLineGossip:
    def test_unweighted_matches_cosine_formula(self):
        for rho in (0.7, 0.9, 0.99):
            gm, m = line_gossip_for_rho(rho, 500)
            W0 = network._line_gossip_matrix(m, 0.0, rho)
            assert abs(fresh_rho(W0) - line_rho_value(rho, m)) <= 1e-10

    def test_hits_target_and_doubly_stochastic(self):
        for rho in (0.6, 0.9, 0.97):
            gm, m = line_gossip_for_rho(rho, 500)
            assert abs(gm.rho - rho) <= 1e-6
            assert_doubly_stochastic(gm.W)
            assert abs(gm.rho - fresh_rho(gm.W)) <= 1e-10

    def test_bracketing_property(self):
        for rho in (0.7, 0.9, 0.99):
            _, m = line_gossip_for_rho(rho, 500)
            assert line_rho_value(rho, m) < rho <= line_rho_value(rho, m + 1)

    def test_too_large_raises(self):
        with pytest.raises(InstanceTooLargeError):
            line_gossip_for_rho(0.999999, max_m=16)


class TestHardInstance:
    def test_coupling_patterns(self):
        p = hard_instance(0.05, 0.5, 8, 6)
        left, right = boundary_classes(8)
        H_left = reference.hessian_bound(p, left[0])
        H_right = reference.hessian_bound(p, right[0])
        off_left = {(i, j) for i in range(6) for j in range(6) if i < j and H_left[i, j] != 0}
        off_right = {(i, j) for i in range(6) for j in range(6) if i < j and H_right[i, j] != 0}
        assert off_left == {(1, 2), (3, 4)}  # 1-based pairs (2,3), (4,5)
        assert off_right == {(0, 1), (2, 3), (4, 5)}  # 1-based pairs (1,2), (3,4), (5,6)

    @pytest.mark.parametrize("d", range(4, 41, 2))
    def test_class_gram_is_scaled_pair_coupling(self, d):
        # left agents hold the root of scale * I + couplings on 1-based pairs
        # (2,3), (4,5), ..., right agents on (1,2), (3,4), ...; middle agents none
        mu, beta, m = 0.03, 0.4, 40
        p = hard_instance(mu, beta, m, d)
        left, right = boundary_classes(m)
        scale = beta * (1.0 - mu) / 4.0 * (m / len(left))
        gram = np.einsum("mnd,mne->mde", p.A, p.A) / p.n
        for agents, start in ((left, 1), (right, 0)):
            expected = scale * network._pair_coupling(d, start)
            for i in agents:
                assert np.max(np.abs(gram[i] - expected)) <= 1e-14 * scale
        middle = [i for i in range(m) if i not in left and i not in right]
        assert middle and not gram[middle].any()

    def test_strong_convexity_floor(self):
        p = hard_instance(0.03, 0.4, 10, 8)
        for i in range(p.m):
            w = np.linalg.eigvalsh(reference.hessian_bound(p, i))
            assert w[0] >= 0.03 - 1e-10

    def test_only_left_agents_carry_linear_term(self):
        p = hard_instance(0.02, 0.5, 8, 6)
        left, right = boundary_classes(8)
        zero = np.zeros(6)
        for i in range(8):
            g = problems.local_grad(p, i, zero)
            if i in left:
                assert g[0] != 0 and np.all(g[1:] == 0)
            else:
                assert np.all(g == 0)

    def test_middle_agents_are_pure_ridge(self):
        p = hard_instance(0.02, 0.5, 16, 6)
        left, right = boundary_classes(16)
        mid = [i for i in range(16) if i not in left and i not in right]
        assert mid
        for i in mid:
            H = reference.hessian_bound(p, i)
            assert H == pytest.approx(0.02 * np.eye(6), abs=1e-15)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            hard_instance(1.0, 0.5, 8, 6)
        with pytest.raises(ValueError):
            hard_instance(0.1, 0.5, 8, 5)  # odd d

    def test_cut_distance_formula(self):
        for m in (2, 5, 33, 64):
            left, right = boundary_classes(m)
            assert cut_distance(m) == right[0] - left[-1]
            assert left[-1] < right[0]

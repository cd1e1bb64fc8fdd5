import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse

import reference
from conftest import traced_peak
from sonatasim import accel, cli, datagen, diagnostics, network, problems
from sonatasim.network import (
    ChebyshevGossip,
    Graph,
    GossipMatrix,
    InstanceTooLargeError,
    UnreachableTargetError,
    boundary_classes,
    chebyshev_accelerate,
    complete_graph,
    cut_distance,
    degree_for_target,
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


@pytest.fixture
def eigvalsh_shapes(monkeypatch):
    """Shapes of the matrices np.linalg.eigvalsh decomposes from here on."""
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return shapes


class TestGraphs:
    def test_complete_from_p_one(self):
        g = erdos_renyi(8, 1.0, seed=0)
        assert len(g.edges) == 8 * 7 // 2

    def test_er_paper_setup_connected(self):
        g = erdos_renyi(30, 0.5, seed=1)
        assert g.m == 30  # Graph constructor enforces connectivity

    @pytest.mark.parametrize("seed", [[1], -1, 1.5, True])
    def test_er_seed_is_an_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            erdos_renyi(8, 0.5, seed)

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

    @pytest.mark.parametrize("m,p,seed,draws", [(3, 0.4, 0, 5), (30, 0.5, 1, 1), (100, 0.05, 7, 2)])
    def test_er_checks_connectivity_once_per_draw(self, monkeypatch, m, p, seed, draws):
        # draws: how many the per-pair recipe above takes to a connected graph
        calls = []
        connected = network._connected

        def counting(m, edges):
            calls.append(len(edges))
            return connected(m, edges)

        monkeypatch.setattr(network, "_connected", counting)
        g = erdos_renyi(m, p, seed)
        assert len(calls) == draws and calls[-1] == len(g.edges)

    def test_line_and_star(self):
        assert line_graph(3).edges == frozenset({(0, 1), (1, 2)})
        assert star_graph(4).edges == frozenset({(0, 1), (0, 2), (0, 3)})
        for m in (2, 3, 7):
            line_graph(m)
            star_graph(m)  # constructor would raise if disconnected


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

    def test_degrees_from_the_edge_array(self):
        # star(4) has degrees [3, 1, 1, 1], so every edge weighs 1/4; one node
        # has no edges and keeps all its weight
        W = metropolis_hastings(star_graph(4)).W
        assert np.array_equal(W[0], [0.25, 0.25, 0.25, 0.25])
        assert np.array_equal(np.diag(W), [0.25, 0.75, 0.75, 0.75])
        assert np.array_equal(metropolis_hastings(Graph(1, frozenset())).W, [[1.0]])

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
        monkeypatch.setattr(network, "_spectrum", lambda W: (0.1, np.nan))
        with pytest.raises(ValueError, match="rho must be < 1, got nan"):
            GossipMatrix(W)

    @pytest.mark.parametrize("M", [None, 3], ids=["plain", "chebyshev"])
    def test_rounds_per_application_below_one_raises(self, M, monkeypatch):
        W = metropolis_hastings(erdos_renyi(12, 0.4, seed=3))
        if M is not None:
            W = chebyshev_accelerate(W, M)
        # a Chebyshev operator's count is its degree times its base's
        count = "rounds_per_application" if M is None else "M"

        def unmeasured(*args):
            raise AssertionError("measured before the count was checked")

        # 1.5 was accepted and made every run's comms a float
        monkeypatch.setattr(network, "_spectrum", unmeasured)
        monkeypatch.setattr(network, "_lanczos", unmeasured)
        for bad in (0, 1.5, float("nan")):
            with pytest.raises(ValueError, match=f"{count} must be an integer >= 1"):
                dataclasses.replace(W, **{count: bad})

    @pytest.mark.parametrize("M", [None, 3], ids=["plain", "chebyshev"])
    def test_equality_is_identity(self, M):
        # the generated __eq__ compared the W arrays inside a tuple and raised
        # "The truth value of an array ... is ambiguous"
        def build():
            W = metropolis_hastings(line_graph(4))
            return W if M is None else chebyshev_accelerate(W, M)

        a, b = build(), build()
        assert a == a and not a == b and a != b
        assert len({a, b}) == 2


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

    def test_round_count_is_degree_times_base_count(self):
        # ChebyshevGossip(W, 3, 1) was accepted and charged one round for
        # three neighbour exchanges
        base = metropolis_hastings(erdos_renyi(12, 0.4, seed=3))
        acc = ChebyshevGossip(base, 3)
        assert acc.rounds_per_application == 3
        doubled = ChebyshevGossip(dataclasses.replace(base, rounds_per_application=2), 3)
        assert doubled.rounds_per_application == 6
        assert dataclasses.replace(acc, M=5).rounds_per_application == 5
        assert dataclasses.replace(doubled, M=5).rounds_per_application == 10

    def test_degree_is_checked_before_any_mix(self, monkeypatch):
        # ChebyshevGossip(W, 0) was accepted, and chebyshev_accelerate of a
        # one-point bulk at degree 2.5 returned a plain matrix
        base = metropolis_hastings(erdos_renyi(12, 0.4, seed=3))

        def unmixed(*args):
            raise AssertionError("mixed before the degree was checked")

        monkeypatch.setattr(ChebyshevGossip, "mix", unmixed)
        monkeypatch.setattr(network, "_lanczos", unmixed)
        for bad in (0, 2.5, True):
            with pytest.raises(ValueError, match="M must be an integer >= 1"):
                ChebyshevGossip(base, bad)
            with pytest.raises(ValueError, match="M must be an integer >= 1"):
                chebyshev_accelerate(base, bad)
            with pytest.raises(ValueError, match="M must be an integer >= 1"):
                chebyshev_accelerate(exact_averaging(5), bad)

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

    def test_base_spectrum_is_not_decomposed_again(self, eigvalsh_shapes):
        # the base's bulk is read from the base, measured when it was built,
        # and the result's rho is the closed form on it
        base = metropolis_hastings(erdos_renyi(12, 0.4, seed=6))
        eigvalsh_shapes.clear()
        acc = chebyshev_accelerate(base, 4)
        assert eigvalsh_shapes == []
        assert acc.rho == 1 / acc.scale

    def test_replace_measures_the_matrix_again(self, eigvalsh_shapes):
        # replace is a rebuild: it decomposes W once, as a fresh build does
        base = metropolis_hastings(erdos_renyi(20, 0.3, seed=1))
        eigvalsh_shapes.clear()
        doubled = dataclasses.replace(base, rounds_per_application=2)
        assert eigvalsh_shapes == [(20, 20)]
        fresh = GossipMatrix(base.W, 2)
        assert doubled.bulk == fresh.bulk and doubled.rho == fresh.rho
        assert doubled.rounds_per_application == 2

    def test_eigenvalues_are_not_an_argument(self):
        # given eigenvalues were trusted: these zeros made the line matrix
        # (measured rho 0.911) report rho 0
        W = metropolis_hastings(line_graph(6)).W
        with pytest.raises(TypeError):
            GossipMatrix(W, 1, np.zeros(6), W)
        assert [f.name for f in dataclasses.fields(GossipMatrix) if f.init] == [
            "W",
            "rounds_per_application",
        ]
        assert GossipMatrix(W).rho == pytest.approx(0.911, abs=1e-3)

    def test_replaced_W_is_measured_again(self):
        # replace(W=...) used to keep the old bulk (-0.312, 0.624) and, with
        # it, the old rho
        mh = metropolis_hastings(erdos_renyi(14, 0.4, seed=6))
        lazy = 0.5 * (mh.W + np.eye(14))
        fresh = GossipMatrix(lazy)
        replaced = dataclasses.replace(mh, W=lazy)
        assert replaced.bulk == fresh.bulk and replaced.rho == fresh.rho
        assert replaced.bulk == pytest.approx((1.1e-16, 0.812), abs=1e-3)
        assert chebyshev_accelerate(replaced, 3).rho == chebyshev_accelerate(fresh, 3).rho

    def test_operators_hold_only_their_measured_numbers(self):
        # the base kept all m eigenvalues (for a CSR W, its Ritz values), and
        # the accelerated operator the polynomial on them as a second bulk
        base = metropolis_hastings(erdos_renyi(20, 0.3, seed=1))
        acc = chebyshev_accelerate(base, 3)
        assert [f.name for f in dataclasses.fields(GossipMatrix)] == [
            "W",
            "rounds_per_application",
            "bulk",
        ]
        assert [f.name for f in dataclasses.fields(acc) if not f.init] == ["scale"]
        assert not hasattr(base, "eigenvalues") and not hasattr(acc, "bulk")
        assert len(base.bulk) == 2 and all(type(end) is float for end in base.bulk)
        held = {**vars(acc), **vars(base)}.values()
        assert [v.shape for v in held if isinstance(v, np.ndarray)] == [(20, 20), (20, 20)]

    def test_operator_keeps_its_base_storage(self, small_graphs_sparse):
        g = erdos_renyi(40, 0.1, seed=2)
        assert isinstance(chebyshev_accelerate(metropolis_hastings(g), 3)._twice_psi, np.ndarray)
        small_graphs_sparse()
        acc = chebyshev_accelerate(metropolis_hastings(g), 3)
        assert isinstance(acc._twice_psi, sparse.csr_array)
        assert acc._twice_psi.nnz == g.m + 2 * len(g.edges)
        held = {**vars(acc), **vars(acc.base)}.values()
        assert not any(isinstance(v, np.ndarray) and v.shape == (40, 40) for v in held)

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
        # the closed-form rho is the dense matrix's deviation
        fresh = np.linalg.eigvalsh(dense - np.full((m, m), 1.0 / m))
        assert acc.rho == pytest.approx(np.abs(fresh).max(), abs=1e-10)

    def test_plain_topologies_do_not_import_scipy(self):
        # importing scipy costs about 0.2 s and 20 MB; only a CSR matrix needs it
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from sonatasim import cli, network\n"
            "topology = {'kind': 'erdos_renyi', 'p': 0.5}\n"
            "W = cli.build_gossip({'seed': 1, 'topology': topology}, 8)\n"
            "W.mix(np.ones((8, 2)))\n"
            "acc = cli.build_gossip({'seed': 1, 'topology': dict(topology, target_rho=0.05)}, 8)\n"
            "assert isinstance(acc, network.ChebyshevGossip) and acc.M > 1\n"
            "acc.mix(np.ones((8, 2)))\n"
            "assert 'scipy' not in sys.modules\n"
            "network.DENSE_MAX_M, network.SPARSE_MAX_FILL = 1, 1.0\n"
            "network.chebyshev_accelerate(network.metropolis_hastings(network.line_graph(8)), 2)\n"
            "assert 'scipy' in sys.modules\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_mix_is_measured_not_only_the_given_spectrum(self, monkeypatch):
        # a base whose bulk is measured at half its ends gets a closed-form
        # rho below the truth; Lanczos on mix sees the eigenvalues outside
        # [lo, hi]
        true_spectrum = network._spectrum
        monkeypatch.setattr(network, "_spectrum", lambda W: tuple(e / 2 for e in true_spectrum(W)))
        base = metropolis_hastings(erdos_renyi(40, 0.2, seed=3))
        with pytest.raises(network.TopologyError, match="Ritz value of magnitude"):
            chebyshev_accelerate(base, 3)

    def test_overflowing_degree_fails_its_check(self):
        # T_M(psi(1)) overflows to inf, then inf - inf = NaN, which rho = 1 / scale
        # would carry; the error names the overflow, not the NaN
        base = metropolis_hastings(erdos_renyi(12, 0.4, seed=3))
        with pytest.raises(network.TopologyError, match=r"T_M\(psi\(1\)\) overflowed the float range at degree 5000"):
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
    # one reorthogonalisation pass in the Lanczos check on mix found a Ritz
    # value above the closed form 0.00097 and raised TopologyError
    @example(m=29, p=0.89453125, seed=31729, M=3)
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


@pytest.fixture
def small_graphs_sparse(monkeypatch):
    """Make every Metropolis-Hastings matrix from here on a CSR array."""

    def use_csr():
        monkeypatch.setattr(network, "DENSE_MAX_M", 1)
        monkeypatch.setattr(network, "SPARSE_MAX_FILL", 1.0)

    return use_csr


class TestSparsePath:
    """Above DENSE_MAX_M nodes and below SPARSE_MAX_FILL, W is CSR and its
    spectrum comes from Lanczos; on small graphs both paths can be compared."""

    @pytest.mark.parametrize(
        "g",
        [erdos_renyi(30, 0.3, seed=1), erdos_renyi(17, 0.5, seed=4), line_graph(20), star_graph(12)],
        ids=["er30", "er17", "line", "star"],
    )
    def test_csr_path_matches_dense(self, g, small_graphs_sparse):
        dense = metropolis_hastings(g)
        small_graphs_sparse()
        csr = metropolis_hastings(g)
        assert isinstance(dense.W, np.ndarray) and not isinstance(csr.W, np.ndarray)
        assert csr.bulk == pytest.approx(dense.bulk, abs=1e-12)
        assert abs(csr.rho - dense.rho) <= 1e-12
        X = np.random.default_rng(0).standard_normal((g.m, 4))
        assert np.max(np.abs(csr.mix(X) - dense.mix(X))) <= 1e-12
        for M in (2, 5):
            a, b = chebyshev_accelerate(dense, M), chebyshev_accelerate(csr, M)
            assert isinstance(a._twice_psi, np.ndarray) and not isinstance(b._twice_psi, np.ndarray)
            assert np.max(np.abs(a.mix(X) - b.mix(X))) <= 1e-12
            assert abs(a.rho - b.rho) <= 1e-10

    def test_short_run_spends_the_same_communication(self, small_graphs_sparse):
        p = datagen.gen_ridge(datagen.SyntheticRidgeConfig(m=20, n=40, d=8, L0=50.0, seed=3))
        cfg = {"seed": 5, "topology": {"kind": "erdos_renyi", "p": 0.3, "target_rho": 0.2}}
        params = accel.tune(problems.estimate_constants(p), "L")
        oracle = diagnostics.centralized_solve(p)

        def gap(X):
            return diagnostics.optimality_gap(p, X, oracle)

        def run():
            W = cli.build_gossip(cfg, p.m)
            return W, accel.acc_sonata_run(p, params, W, gap_fn=gap, target_gap=1e-6)

        W_dense, dense = run()
        small_graphs_sparse()
        assert not isinstance(metropolis_hastings(erdos_renyi(20, 0.3, seed=5)).W, np.ndarray)
        W_csr, csr = run()
        assert W_dense.M == W_csr.M and abs(W_dense.rho - W_csr.rho) <= 1e-10
        assert dense.converged and csr.converged
        assert (csr.K_done, csr.comms) == (dense.K_done, dense.comms)

    def test_large_sparse_build_forms_no_square_array(self, eigvalsh_shapes):
        # one dense float64 2000 x 2000 array is 32 MB
        m = 2000
        cfg = {"seed": 3, "topology": {"kind": "erdos_renyi", "p": 0.005, "target_rho": 0.3}}
        tracemalloc.start()
        try:
            W = cli.build_gossip(cfg, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * m * 8
        assert (m, m) not in eigvalsh_shapes
        assert W.rho <= 0.3

    def test_unconverged_lanczos_is_measured_densely(self, small_graphs_sparse, monkeypatch, eigvalsh_shapes):
        g = erdos_renyi(30, 0.3, seed=1)
        dense = metropolis_hastings(g)
        small_graphs_sparse()
        monkeypatch.setattr(network, "LANCZOS_MAX_STEPS", 5)
        csr = metropolis_hastings(g)
        assert not isinstance(csr.W, np.ndarray)
        assert eigvalsh_shapes == [(30, 30), (30, 30)]
        assert csr.bulk == pytest.approx(dense.bulk, abs=1e-12)

    @pytest.mark.parametrize("target_rho", [None, 0.99])
    def test_long_line_builds_at_default_constants(self, target_rho, monkeypatch):
        # a line's extreme eigenvalues cluster, so Lanczos stops at its cap
        # and the CSR spectrum is measured densely
        topology = {"kind": "line"} if target_rho is None else {"kind": "line", "target_rho": target_rho}
        cfg = {"seed": 0, "topology": topology}
        m = 400
        assert not isinstance(metropolis_hastings(line_graph(m)).W, np.ndarray)
        csr = cli.build_gossip(cfg, m)
        monkeypatch.setattr(network, "DENSE_MAX_M", m)
        dense = cli.build_gossip(cfg, m)
        assert abs(csr.rho - dense.rho) <= 1e-12
        if target_rho is not None:
            assert csr.M == dense.M and csr.rho <= target_rho

    @pytest.mark.parametrize("fault", ["nan", "row_sum"])
    def test_csr_fails_the_dense_checks(self, fault):
        W = metropolis_hastings(line_graph(6)).W
        if fault == "nan":
            W[0, 1] = W[1, 0] = np.nan
        else:
            W[2, 2] += 1e-9
        messages = []
        for kind in (np.asarray, sparse.csr_array):
            with pytest.raises(ValueError) as err:
                GossipMatrix(kind(W))
            messages.append(str(err.value))
        assert messages[0] == messages[1]


class TestRoundsForTarget:
    def test_trivial_cases(self):
        assert rounds_for_target(0.3, 0.5) == 1
        assert rounds_for_target(0.0, 0.1) == 1

    def test_zero_target_unreachable(self):
        with pytest.raises(UnreachableTargetError):
            rounds_for_target(0.5, 0.0)

    def test_formula_then_spectral_check(self):
        base = line_gossip_for_rho(0.9)
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


def walk_scale(bulk, M):
    """T_M(psi(1)) on the bulk [lo, hi], by the recurrence written out."""
    lo, hi = bulk
    z = (2.0 - hi - lo) / (hi - lo)
    t_prev, t = 1.0, z
    for _ in range(M - 1):
        t_prev, t = t, 2.0 * z * t - t_prev
    return t


class TestDegreeForTarget:
    def assert_minimal_within_bound(self, base, target):
        M = degree_for_target(base, target)
        acc = chebyshev_accelerate(base, M)
        assert acc.rho <= target
        if M > 1:
            assert chebyshev_accelerate(base, M - 1).rho > target
        assert M <= rounds_for_target(base.rho, target)
        return M, acc

    @pytest.mark.parametrize("target", [0.3, 0.1, 1e-2, 1e-6])
    def test_minimal_and_within_the_two_sided_degree(self, target):
        for base in (
            metropolis_hastings(line_graph(20)),
            metropolis_hastings(star_graph(15)),
            metropolis_hastings(erdos_renyi(30, 0.3, seed=4)),
            line_gossip_for_rho(0.9),
        ):
            self.assert_minimal_within_bound(base, target)

    def test_scale_is_the_walk_that_stopped(self):
        base = metropolis_hastings(erdos_renyi(25, 0.4, seed=7))
        for target in (0.3, 1e-3, 1e-9):
            M, acc = self.assert_minimal_within_bound(base, target)
            assert acc.scale == walk_scale(base.bulk, M)
            assert 1.0 / walk_scale(base.bulk, M) <= target

    @pytest.mark.parametrize(
        "m,target,bulk_degree,two_sided",
        [(20, 0.3, 12, 15), (100, 0.3, 60, 74), (199, 0.3, 119, 146), (20, 1e-2, 34, 42), (100, 1e-2, 169, 207)],
    )
    def test_lopsided_line_bulk_needs_fewer_rounds(self, m, target, bulk_degree, two_sided):
        # a Metropolis-Hastings line's bulk runs from about -1/3 to near 1
        base = metropolis_hastings(line_graph(m))
        assert degree_for_target(base, target) == bulk_degree
        assert rounds_for_target(base.rho, target) == two_sided

    def test_gossip_benchmark_graph(self):
        # the 1000-node graph that the two-sided rule gives degree 4 at 0.3
        base = metropolis_hastings(erdos_renyi(1000, 0.01, 102))
        assert rounds_for_target(base.rho, 0.3) == 4
        M, acc = self.assert_minimal_within_bound(base, 0.3)
        assert M == 3 and acc.rho <= 0.3

    def test_base_within_target_needs_degree_1(self):
        base = metropolis_hastings(erdos_renyi(30, 0.5, seed=1))
        assert degree_for_target(base, base.rho) == 1
        assert degree_for_target(exact_averaging(6), 0.0) == 1

    def test_collapsed_bulk_needs_degree_1(self):
        # a bulk [0, 1e-14] is one point to chebyshev_accelerate, which
        # ignores the degree; the walk on it would ask for 2
        m = 6
        W = np.full((m, m), 1.0 / m) + 1e-14 * (np.eye(m) - 1.0 / m)
        base = GossipMatrix(W)
        assert network._collapsed(base.bulk) and base.rho > 1e-15
        assert network._degree(network._psi_one(base.bulk), 1e-15)[0] == 2
        assert degree_for_target(base, 1e-15) == 1

    def test_collapsed_bulk_missing_the_target_is_refused(self, monkeypatch):
        # the affine map of that bulk has rho 4.996e-15, and the build used
        # to return it for target 1e-15 and say nothing
        m = 6
        base = GossipMatrix(np.full((m, m), 1.0 / m) + 1e-14 * (np.eye(m) - 1.0 / m))
        assert chebyshev_accelerate(base, degree_for_target(base, 1e-15)).rho > 1e-15
        monkeypatch.setattr(network, "exact_averaging", lambda m: base)
        cfg = {"seed": 0, "topology": {"kind": "exact_averaging", "target_rho": 1e-15}}
        with pytest.raises(UnreachableTargetError, match=r"target_rho 1e-15 not reached: .* rho [0-9.]+e-15$"):
            cli.build_gossip(cfg, m)
        assert cli.build_gossip(dict(cfg, topology={"kind": "exact_averaging", "target_rho": 5e-15}), m).rho <= 5e-15

    def test_zero_and_overflowing_targets_are_unreachable(self):
        base = metropolis_hastings(erdos_renyi(30, 0.6, seed=5))
        with pytest.raises(UnreachableTargetError, match="only exact averaging"):
            degree_for_target(base, 0.0)
        with pytest.raises(UnreachableTargetError, match="T_M overflows the float range before"):
            degree_for_target(base, 5e-324)  # below 1 / (largest float)
        M = degree_for_target(base, 1e-300)  # met before the overflow
        assert chebyshev_accelerate(base, M).rho <= 1e-300

    def test_overflow_at_the_degree_that_meets_the_target(self):
        # a bulk [0, 2e-13] multiplies T_M by about 2e13 a step: T_23 is
        # finite and short of 1e307, T_24 overflows, so no scale is finite
        m = 6
        base = GossipMatrix(np.full((m, m), 1.0 / m) + 2e-13 * (np.eye(m) - 1.0 / m))
        assert not network._collapsed(base.bulk)
        with pytest.raises(UnreachableTargetError, match=r"T_M\(psi\(1\)\) overflows the float range at degree 24"):
            degree_for_target(base, 1e-307)
        with pytest.raises(network.TopologyError, match="overflowed the float range at degree 24"):
            chebyshev_accelerate(base, 24)

    @pytest.mark.parametrize("target", [-0.1, 1.0, float("nan")])
    def test_target_outside_the_unit_interval_is_rejected(self, target):
        with pytest.raises(ValueError, match="target_rho must lie in"):
            degree_for_target(metropolis_hastings(line_graph(5)), target)

    # p >= 0.4 keeps a connected draw within erdos_renyi's resampling budget
    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(2, 30),
        p=st.floats(0.4, 1.0),
        seed=st.integers(0, 2**16),
        target=st.floats(1e-8, 0.99),
    )
    def test_random_graphs_meet_their_target(self, m, p, seed, target):
        self.assert_minimal_within_bound(metropolis_hastings(erdos_renyi(m, p, seed=seed)), target)


class TestLineGossip:
    def test_unweighted_matches_cosine_formula(self):
        for rho in (0.7, 0.9, 0.99):
            m = line_gossip_for_rho(rho).m
            W0 = network._line_gossip_matrix(m, 0.0, rho)
            assert abs(fresh_rho(W0) - line_rho_value(rho, m)) <= 1e-10

    @pytest.mark.parametrize("m", [2, 3, 5, 17, 181, 400])
    def test_matrix_matches_per_edge_loop(self, m):
        for a in (0.0, 0.3, 0.5, 1.0 - 1e-15):
            for rho in (0.6, 0.9, 0.99):
                got = network._line_gossip_matrix(m, a, rho)
                assert got.tobytes() == reference.line_gossip_matrix(m, a, rho).tobytes()

    def test_hits_target_and_doubly_stochastic(self):
        for rho in (0.6, 0.9, 0.97):
            gm = line_gossip_for_rho(rho)
            assert abs(gm.rho - rho) <= 1e-6
            assert_doubly_stochastic(gm.W)
            assert abs(gm.rho - fresh_rho(gm.W)) <= 1e-10

    def test_bracketing_property(self):
        for rho in (0.7, 0.9, 0.99):
            m = line_gossip_for_rho(rho).m
            assert line_rho_value(rho, m) < rho <= line_rho_value(rho, m + 1)

    def test_too_large_raises(self, monkeypatch):
        monkeypatch.setattr(network, "MAX_LINE_NODES", 16)
        with pytest.raises(InstanceTooLargeError):
            line_gossip_for_rho(0.999999)


def pair_coupling(d: int, start: int, scale: float) -> np.ndarray:
    """scale * I with -scale couplings on the 0-based index pairs
    (start, start+1), (start+2, start+3), ..."""
    B = scale * np.eye(d)
    for i in range(start, d - 1, 2):
        B[i, i + 1] = B[i + 1, i] = -scale
    return B


class TestHardInstance:
    def test_coupling_patterns(self):
        p = hard_instance(0.05, 0.5, 8, 6)
        left, right = boundary_classes(8)
        H_left, H_right = problems.hessian_bounds(p)[[left[0], right[0]]]
        off_left = {(i, j) for i in range(6) for j in range(6) if i < j and H_left[i, j] != 0}
        off_right = {(i, j) for i in range(6) for j in range(6) if i < j and H_right[i, j] != 0}
        assert off_left == {(1, 2), (3, 4)}  # 1-based pairs (2,3), (4,5)
        assert off_right == {(0, 1), (2, 3), (4, 5)}  # 1-based pairs (1,2), (3,4), (5,6)

    @pytest.mark.parametrize("d", range(4, 41, 2))
    def test_class_gram_is_scaled_pair_coupling(self, d):
        # left agents hold scale * I + couplings on 1-based pairs (2,3),
        # (4,5), ..., right agents on (1,2), (3,4), ...; middle agents none;
        # only the left agents carry the linear term scale * e_1
        mu, beta, m = 0.03, 0.4, 40
        p = hard_instance(mu, beta, m, d)
        left, right = boundary_classes(m)
        scale = beta * (1.0 - mu) / 4.0 * (m / len(left))
        H, h, b_sq = p.stats
        for agents, start in ((left, 1), (right, 0)):
            expected = pair_coupling(d, start, scale)
            for i in agents:
                assert np.array_equal(H[i], expected)
        middle = [i for i in range(m) if i not in left and i not in right]
        assert middle and not H[middle].any()
        e_1 = np.eye(d)[0]
        assert np.array_equal(h, [scale * e_1 if i in left else 0 * e_1 for i in range(m)])
        assert np.array_equal(b_sq, [d * scale if i in left else 0.0 for i in range(m)])
        assert p.n == d

    def test_strong_convexity_floor(self):
        p = hard_instance(0.03, 0.4, 10, 8)
        for H in problems.hessian_bounds(p):
            assert np.linalg.eigvalsh(H)[0] >= 0.03 - 1e-10

    def test_only_left_agents_carry_linear_term(self):
        p = hard_instance(0.02, 0.5, 8, 6)
        left, right = boundary_classes(8)
        G = problems.batch_grads(p, np.zeros((8, 6)))
        for i, g in enumerate(G):
            if i in left:
                assert g[0] != 0 and np.all(g[1:] == 0)
            else:
                assert np.all(g == 0)

    def test_middle_agents_are_pure_ridge(self):
        p = hard_instance(0.02, 0.5, 16, 6)
        left, right = boundary_classes(16)
        mid = [i for i in range(16) if i not in left and i not in right]
        assert mid
        for H in problems.hessian_bounds(p)[mid]:
            assert H == pytest.approx(0.02 * np.eye(6), abs=1e-15)

    def test_keeps_no_rows(self):
        p = hard_instance(0.02, 0.5, 8, 6)
        for q in (p, dataclasses.replace(p, lam=0.5)):
            for read in (lambda: q.A, lambda: q.b):
                with pytest.raises(problems.InputError, match="held by its statistics"):
                    read()

    def test_holds_only_its_statistics(self):
        # the build's peak: rows beside their statistics would double it
        p, peak = traced_peak(lambda: hard_instance(0.01, 0.5, 5, 200))
        held = sum(a.nbytes for a in p.stats)  # 1.6 MB
        assert peak <= 1.1 * held

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

"""Topologies and gossip matrices: Metropolis-Hastings weights, Chebyshev
polynomial acceleration, the exact-averaging (star) matrix, and the weighted
line-graph / split-quadratic fixtures used for lower-bound experiments.

Every matrix built here is symmetric and doubly stochastic; one multiplication
by W models ``rounds_per_application`` physical communication rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .problems import InputError, ProblemSpec, Regularizer, RuntimeFailure

DS_TOL = 1e-12  # doubly-stochastic row/col sum tolerance


class TopologyError(RuntimeFailure):
    """Random topology generation failed to produce a connected graph."""


class UnreachableTargetError(InputError):
    """Requested spectral target cannot be reached by polynomial acceleration."""


class InstanceTooLargeError(InputError):
    """The required node count exceeds the allowed maximum."""


class FixtureParameterError(InputError):
    """A lower-bound fixture parameter lies outside its range."""


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph on nodes 0..m-1; self-loops implied, not stored."""

    m: int
    edges: frozenset  # of (i, j) tuples with i < j

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        for i, j in self.edges:
            if not (0 <= i < j < self.m):
                raise ValueError(f"bad edge ({i}, {j})")
        if not _connected(self.m, self.edges):
            raise ValueError("graph must be connected")

    def degrees(self) -> np.ndarray:
        return np.bincount(np.array(list(self.edges), dtype=int).reshape(-1), minlength=self.m)


def _connected(m, edges) -> bool:
    # union-find with path halving
    parent = list(range(m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    return len({find(i) for i in range(m)}) == 1


def erdos_renyi(m: int, p: float, seed: int = 0, max_resamples: int = 100) -> Graph:
    """Sample each pair independently with probability p (one uniform per pair
    i < j, in row-major order); resample until connected."""
    if m < 2 or not 0 < p <= 1:
        raise ValueError("need m >= 2 and p in (0, 1]")
    rows, cols = np.triu_indices(m, 1)
    root = np.random.SeedSequence(seed)
    for attempt_seq in root.spawn(max_resamples):
        keep = np.random.default_rng(attempt_seq).random(rows.size) < p
        edges = frozenset(zip(rows[keep].tolist(), cols[keep].tolist()))
        if _connected(m, edges):
            return Graph(m, edges)
    raise TopologyError(f"no connected graph in {max_resamples} resamples (p={p})")


def line_graph(m: int) -> Graph:
    if m < 2:
        raise ValueError("m must be >= 2")
    return Graph(m, frozenset((i, i + 1) for i in range(m - 1)))


def star_graph(m: int) -> Graph:
    if m < 2:
        raise ValueError("m must be >= 2")
    return Graph(m, frozenset((0, i) for i in range(1, m)))


def complete_graph(m: int) -> Graph:
    if m < 2:
        raise ValueError("m must be >= 2")
    return Graph(m, frozenset((i, j) for i in range(m) for j in range(i + 1, m)))


def _bulk_interval(W: np.ndarray) -> tuple[float, float]:
    """[min, max] of the non-consensus eigenvalues of a symmetric DS matrix:
    those of W - 11^T/m, whose spectral norm is the larger magnitude."""
    m = W.shape[0]
    M = W - np.full((m, m), 1.0 / m)
    M = 0.5 * (M + M.T)
    w = np.linalg.eigvalsh(M)
    return float(w[0]), float(w[-1])


@dataclass
class GossipMatrix:
    """Doubly stochastic mixing matrix with its bulk interval [lo, hi]
    (measured once, when not given) and spectral deviation rho derived from it.

    ``rounds_per_application`` is what one iteration of the algorithms costs:
    the number of physical communication rounds that one multiplication by W
    stands for (the polynomial degree after Chebyshev acceleration).  The
    algorithms count communication from this field alone, so a different
    accounting is a W built with a different value, e.g. doubled to count
    half-duplex rounds.
    """

    W: np.ndarray
    bulk: tuple[float, float] = field(default=None)  # type: ignore[assignment]
    rounds_per_application: int = 1

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=float)
        m = self.m
        ones = np.ones(m)
        if np.max(np.abs(self.W @ ones - ones)) > DS_TOL or np.max(
            np.abs(self.W.T @ ones - ones)
        ) > DS_TOL:
            raise ValueError("matrix is not doubly stochastic within 1e-12")
        if self.bulk is None:
            self.bulk = _bulk_interval(self.W)
        if not self.rho < 1:
            raise ValueError(f"rho must be < 1, got {self.rho}")
        if self.rounds_per_application < 1:
            raise ValueError("rounds_per_application must be >= 1")

    @property
    def m(self) -> int:
        return self.W.shape[0]

    @property
    def rho(self) -> float:
        return max(map(abs, self.bulk))


def metropolis_hastings(g: Graph) -> GossipMatrix:
    """w_ij = 1 / (1 + max(deg_i, deg_j)) on edges, diagonal fills to row sum 1."""
    deg = g.degrees()
    i, j = np.array(list(g.edges), dtype=int).reshape(-1, 2).T
    W = np.zeros((g.m, g.m))
    W[i, j] = W[j, i] = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    return GossipMatrix(W)


def exact_averaging(m: int) -> GossipMatrix:
    """W = 11^T/m: one round of exact averaging (master-node consensus)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return GossipMatrix(np.full((m, m), 1.0 / m), bulk=(0.0, 0.0))


def _cheb_scalars(z: float, M: int) -> float:
    """T_M(z) by the three-term recurrence (z may be any real)."""
    t_prev, t = 1.0, z
    if M == 0:
        return t_prev
    for _ in range(M - 1):
        t_prev, t = t, 2.0 * z * t - t_prev
    return t


def chebyshev_accelerate(base: GossipMatrix, M: int) -> GossipMatrix:
    """Degree-M Chebyshev polynomial of the base matrix, fixing P_M(1) = 1.

    The polynomial is the minimax choice for the base's measured bulk interval
    [lo, hi]: P_M(x) = T_M(psi(x)) / T_M(psi(1)) with the affine map psi taking
    [lo, hi] onto [-1, 1].  Applied through the matrix three-term recurrence;
    the build fails loudly if the measured deviation exceeds the closed-form
    value 1 / T_M(psi(1)) beyond 1e-8.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if not base.rho < 1:
        raise ValueError("base must have rho < 1")
    m = base.m
    lo, hi = base.bulk

    if hi - lo < 1e-13:
        # bulk collapsed to a point c: the affine (W - cI)/(1 - c) zeroes it
        c = 0.5 * (hi + lo)
        W = (base.W - c * np.eye(m)) / (1.0 - c)
        return GossipMatrix(W, rounds_per_application=base.rounds_per_application)

    def psi(x):
        return (2.0 * x - hi - lo) / (hi - lo)

    Y = (2.0 * base.W - (hi + lo) * np.eye(m)) / (hi - lo)
    T_prev, T_cur = np.eye(m), Y
    for _ in range(M - 1):
        T_prev, T_cur = T_cur, 2.0 * Y @ T_cur - T_prev
    scale = _cheb_scalars(psi(1.0), M)
    W = T_cur / scale

    predicted = 1.0 / scale
    result = GossipMatrix(W, rounds_per_application=M * base.rounds_per_application)
    if result.rho > predicted + 1e-8:
        raise AssertionError(
            f"chebyshev build inconsistent: measured rho {result.rho} exceeds "
            f"closed-form value {predicted}"
        )
    return result


def chebyshev_bound_one_sided(base_rho: float, M: int) -> float:
    """Classical acceleration bound for a base whose bulk lies in [0, base_rho]."""
    xi = (1.0 - np.sqrt(1.0 - base_rho)) / (1.0 + np.sqrt(1.0 - base_rho))
    return float(2.0 * xi**M / (1.0 + xi ** (2 * M)))


def chebyshev_bound_two_sided(base_rho: float, M: int) -> float:
    """Worst-case deviation after degree-M acceleration of a bulk in [-rho, rho]."""
    return 1.0 / _cheb_scalars(1.0 / base_rho, M)


def rounds_for_target(base_rho: float, target_rho: float, max_rounds: int = 10_000) -> int:
    """Smallest polynomial degree M whose accelerated deviation is <= target_rho.

    Uses the two-sided worst-case closed form, so the spectrally measured
    deviation of :func:`chebyshev_accelerate` meets the target for any base
    with the given rho, whatever the sign pattern of its bulk.
    """
    if not 0 <= target_rho < 1 or not 0 <= base_rho < 1:
        raise ValueError("rho values must lie in [0, 1)")
    if base_rho <= target_rho or base_rho < 1e-15:
        return 1
    if target_rho == 0.0:
        raise UnreachableTargetError("only exact averaging achieves rho = 0")
    for M in range(1, max_rounds + 1):
        if chebyshev_bound_two_sided(base_rho, M) <= target_rho:
            return M
    raise UnreachableTargetError(f"target {target_rho} not reached within {max_rounds} rounds")


# ---------------------------------------------------------------------------
# Lower-bound fixtures: weighted line gossip with a prescribed deviation, and
# the split-quadratic instance whose support can only grow across the cut.
# ---------------------------------------------------------------------------

ZETA = 1.0 / 32.0  # fraction of agents in each boundary class


def line_rho_value(rho: float, m: int) -> float:
    """Deviation of the unweighted line matrix I - L/(2+rho) on m nodes."""
    return rho / (2.0 + rho) + 2.0 / (2.0 + rho) * np.cos(np.pi / m)


def _line_gossip_matrix(m: int, a: float, rho: float) -> np.ndarray:
    """W = I - L_{m,a}/(2+rho): line Laplacian whose first edge has weight 1-a."""
    L = np.zeros((m, m))
    for i in range(m - 1):
        w = (1.0 - a) if i == 0 else 1.0  # first edge carries the weight parameter
        L[i, i + 1] = -w
        L[i + 1, i] = -w
    np.fill_diagonal(L, -L.sum(axis=1))
    return np.eye(m) - L / (2.0 + rho)


def line_gossip_for_rho(
    rho_target: float, max_m: int = 4096, tol: float = 1e-6
) -> tuple[GossipMatrix, int]:
    """Weighted line-graph gossip matrix with deviation exactly rho_target.

    Picks the node count m with rho_m < rho_target <= rho_{m+1}, then bisects
    the weight parameter of one edge until the deviation matches.
    """
    if not 0 < rho_target < 1:
        raise FixtureParameterError(f"rho_target must be in (0, 1), got {rho_target}")
    m = 2
    while line_rho_value(rho_target, m + 1) < rho_target:
        m += 1
        if m > max_m:
            raise InstanceTooLargeError(f"needs more than {max_m} nodes")

    lo_a, hi_a = 0.0, 1.0 - 1e-15
    f_lo = max(map(abs, _bulk_interval(_line_gossip_matrix(m, lo_a, rho_target)))) - rho_target
    if f_lo > 0:
        raise AssertionError("bracket failure: rho at a=0 should be below target")
    for _ in range(200):
        mid = 0.5 * (lo_a + hi_a)
        f_mid = max(map(abs, _bulk_interval(_line_gossip_matrix(m, mid, rho_target)))) - rho_target
        if abs(f_mid) <= tol * 1e-3:
            lo_a = hi_a = mid
            break
        if f_mid < 0:
            lo_a = mid
        else:
            hi_a = mid
    a = 0.5 * (lo_a + hi_a)
    W = _line_gossip_matrix(m, a, rho_target)
    gm = GossipMatrix(W)
    if abs(gm.rho - rho_target) > tol:
        raise AssertionError(f"bisection missed target: {gm.rho} vs {rho_target}")
    return gm, m


def boundary_classes(m: int) -> tuple[list[int], list[int]]:
    """(left, right) agent index sets of the split-quadratic instance, 0-based."""
    n_l = int(np.ceil(ZETA * m))
    first_r = int(np.floor((1.0 - ZETA) * m)) + 1  # 1-based
    left = list(range(n_l))
    right = list(range(first_r - 1, m))
    return left, right


def cut_distance(m: int) -> int:
    """Line-graph hop distance between the left and right agent classes."""
    left, right = boundary_classes(m)
    return right[0] - left[-1]


def _pair_coupling(d: int, start: int) -> np.ndarray:
    """Identity plus -1 couplings on index pairs (start, start+1), (start+2, ...)."""
    A = np.eye(d)
    for i in range(start, d - 1, 2):
        A[i, i + 1] = -1.0
        A[i + 1, i] = -1.0
    return A


def _structured_sqrt(Q: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root of c*(I + pair couplings); exact zero fill-in."""
    d = Q.shape[0]
    S = np.zeros((d, d))
    i = 0
    while i < d:
        if i + 1 < d and Q[i, i + 1] != 0.0:
            q1, q2 = Q[i, i], -Q[i, i + 1]
            s_plus = np.sqrt(q1 + q2)
            s_minus = np.sqrt(max(q1 - q2, 0.0))
            S[i, i] = S[i + 1, i + 1] = 0.5 * (s_plus + s_minus)
            S[i, i + 1] = S[i + 1, i] = -0.5 * (s_plus - s_minus)
            i += 2
        else:
            S[i, i] = np.sqrt(Q[i, i])
            i += 1
    return S


def hard_instance(mu: float, beta: float, m: int, d: int) -> ProblemSpec:
    """Split-quadratic instance: left agents couple odd index pairs and carry the
    only linear term, right agents couple even pairs, middle agents are pure
    ridge.  Communication across the line cut is the only way support spreads.
    """
    if not 0 <= mu < 1 or not 0 < beta < 1:
        raise FixtureParameterError(f"need mu in [0, 1) and beta in (0, 1), got {mu}, {beta}")
    if d < 4 or d % 2:
        raise FixtureParameterError(f"d must be even and >= 4, got {d}")
    if m < 2:
        raise FixtureParameterError(f"m must be >= 2, got {m}")
    left, right = boundary_classes(m)
    scale = beta * (1.0 - mu) / 4.0 * (m / len(left))

    A1 = _pair_coupling(d, 1)  # couples (2,3), (4,5), ... in 1-based indexing
    A2 = _pair_coupling(d, 0)  # couples (1,2), (3,4), ...
    n = d
    A = np.zeros((m, n, d))
    b = np.zeros((m, n))
    S1 = _structured_sqrt(scale * A1) * np.sqrt(n)
    S2 = _structured_sqrt(scale * A2) * np.sqrt(n)
    # linear term -scale * e_1 on left agents, encoded through b: A^T b = n*scale*e_1
    b_left = np.zeros(d)
    b_left[0] = n * scale / S1[0, 0]
    for i in left:
        A[i] = S1
        b[i] = b_left
    for i in right:
        A[i] = S2
    return ProblemSpec(
        loss_kind="quadratic-ridge",
        A=A,
        b=b,
        lam=mu / 2.0,  # ridge term lam*||x||^2 contributes mu*I to every Hessian
        reg=Regularizer(),
        meta={"left": left},
    )

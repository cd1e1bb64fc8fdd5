"""Topologies and gossip operators: Metropolis-Hastings weights, Chebyshev
polynomial acceleration, the exact-averaging (star) matrix, and the weighted
line-graph / split-quadratic fixtures used for lower-bound experiments.

Every operator built here is symmetric and doubly stochastic, and checks so
when it is built; the algorithms apply it only through ``mix(X)``; one
application models ``rounds_per_application`` physical communication rounds.
A plain :class:`GossipMatrix` is built from ``W`` and that count alone,
measures its eigenvalues (and from them its bulk and rho) on every build, and
mixes as the dense product ``W @ X``.  A :class:`ChebyshevGossip` (from
:func:`chebyshev_accelerate`) keeps its base matrix in scipy's CSR format and
applies the degree-M polynomial as M sparse neighbour exchanges by the
three-term recurrence, never forming the dense polynomial; its bulk interval
comes from evaluating the polynomial on the base's measured eigenvalues.
scipy is imported only when such an operator is built.  Two operators are
equal only when they are the same object.  The builders' limits
are constants: :data:`MAX_RESAMPLES`, :data:`MAX_ROUNDS`, :data:`LINE_RHO_TOL`
and :data:`MAX_LINE_NODES`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .problems import InputError, ProblemSpec, RuntimeFailure

if TYPE_CHECKING:
    from scipy import sparse

DS_TOL = 1e-12  # symmetry and unit row-sum tolerance
MAX_RESAMPLES = 100  # random graphs drawn by erdos_renyi before it gives up
MAX_ROUNDS = 10_000  # largest polynomial degree rounds_for_target tries
LINE_RHO_TOL = 1e-6  # deviation error line_gossip_for_rho accepts
MAX_LINE_NODES = 4096  # largest line line_gossip_for_rho builds


class TopologyError(RuntimeFailure):
    """A gossip matrix could not be built as specified: no connected random
    graph was found, or a built matrix fails its own consistency check."""


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


def erdos_renyi(m: int, p: float, seed: int = 0) -> Graph:
    """Sample each pair independently with probability p (one uniform per pair
    i < j, in row-major order); resample until connected, at most
    :data:`MAX_RESAMPLES` times."""
    if m < 2 or not 0 < p <= 1:
        raise ValueError("need m >= 2 and p in (0, 1]")
    rows, cols = np.triu_indices(m, 1)
    root = np.random.SeedSequence(seed)
    for attempt_seq in root.spawn(MAX_RESAMPLES):
        keep = np.random.default_rng(attempt_seq).random(rows.size) < p
        edges = frozenset(zip(rows[keep].tolist(), cols[keep].tolist()))
        if _connected(m, edges):
            return Graph(m, edges)
    raise TopologyError(f"no connected graph in {MAX_RESAMPLES} resamples (p={p})")


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


def _spectrum(W: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of W - 11^T/m for a symmetric W with unit row
    sums: its non-consensus eigenvalues, with the consensus one at 0.  The
    largest magnitude is the spectral norm of W - 11^T/m."""
    return np.linalg.eigvalsh(W - 1.0 / W.shape[0])


@dataclass(eq=False)
class GossipMatrix:
    """Symmetric mixing matrix with unit row sums (so doubly stochastic),
    checked within :data:`DS_TOL`.  Its ``eigenvalues`` (those of
    W - 11^T/m, ascending) are measured whenever it is built, a
    ``dataclasses.replace`` included; its bulk interval [lo, hi] is their two
    ends and its spectral deviation rho their largest magnitude.

    ``rounds_per_application`` is what one iteration of the algorithms costs:
    the number of physical communication rounds that one ``mix`` stands for
    (the polynomial degree in a :class:`ChebyshevGossip`).  The
    algorithms count communication from this field alone, so a different
    accounting is a W built with a different value, e.g. doubled to count
    half-duplex rounds.
    """

    W: np.ndarray
    rounds_per_application: int = 1
    eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=float)
        # written `not x <= tol` so that a NaN fails each check
        if not np.max(np.abs(self.W - self.W.T)) <= DS_TOL:
            raise ValueError(f"matrix is not symmetric within {DS_TOL}")
        if not np.max(np.abs(self.W.sum(axis=1) - 1.0)) <= DS_TOL:
            raise ValueError(f"matrix rows do not sum to 1 within {DS_TOL}")
        self.eigenvalues = _spectrum(self.W)
        if not self.rho < 1:
            raise ValueError(f"rho must be < 1, got {self.rho}")
        if not self.rounds_per_application >= 1:
            raise ValueError("rounds_per_application must be >= 1")

    @property
    def m(self) -> int:
        return self.W.shape[0]

    @property
    def bulk(self) -> tuple[float, float]:
        return float(self.eigenvalues[0]), float(self.eigenvalues[-1])

    @property
    def rho(self) -> float:
        return float(np.max(np.abs(self.bulk)))  # NaN if either end is

    def mix(self, X: np.ndarray) -> np.ndarray:
        """One application: the dense product W @ X."""
        return self.W @ X


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
    return GossipMatrix(np.full((m, m), 1.0 / m))


def _cheb_scalars(z: float, M: int) -> float:
    """T_M(z), M >= 1, by the three-term recurrence (z any real, or an array)."""
    t_prev, t = 1.0, z
    for _ in range(M - 1):
        t_prev, t = t, 2.0 * z * t - t_prev
    return t


@dataclass(eq=False)
class ChebyshevGossip:
    """P_M(W) = T_M(psi(W)) / T_M(psi(1)) of a sparse base W, with psi the
    affine map taking the base's bulk [lo, hi] onto [-1, 1], applied without
    forming it: ``mix`` runs the three-term recurrence
    T_{k+1} = 2 psi(W) T_k - T_{k-1}, one sparse product per round.

    ``bulk`` is the range of P_M over ``spectrum``, the base's eigenvalues of
    W - 11^T/m, whose consensus entry (the one nearest 0) maps to 0, as
    P_M(1) - 1 does; rho derives from it as for a :class:`GossipMatrix`.
    ``scale`` is T_M(psi(1)), so 1 / scale is the closed-form deviation.
    Construction raises :class:`TopologyError` if rho exceeds 1 / scale by
    1e-8 or ``mix`` moves the all-ones vector by :data:`DS_TOL`, or if either
    is NaN, and ``ValueError`` if ``rounds_per_application`` is below 1.
    """

    base: sparse.csr_array
    lo: float
    hi: float
    M: int
    rounds_per_application: int
    spectrum: np.ndarray = field(repr=False)
    bulk: tuple[float, float] = field(init=False)
    scale: float = field(init=False)

    def __post_init__(self):
        from scipy import sparse

        if not self.rounds_per_application >= 1:
            raise ValueError("rounds_per_application must be >= 1")
        lo, hi = self.lo, self.hi
        # 2 psi(W): doubling is exact, so each step rounds as 2 psi(W) T_k does
        eye = sparse.identity(self.m, format="csr")
        self._twice_psi = (2.0 * (2.0 * self.base - (hi + lo) * eye) / (hi - lo)).tocsr()
        self.scale = _cheb_scalars((2.0 - hi - lo) / (hi - lo), self.M)
        values = _cheb_scalars((2.0 * self.spectrum - hi - lo) / (hi - lo), self.M) / self.scale
        values[np.argmin(np.abs(self.spectrum))] = 0.0
        self.bulk = (float(values.min()), float(values.max()))
        if not self.rho <= 1.0 / self.scale + 1e-8:
            raise TopologyError(
                f"chebyshev build inconsistent: measured rho {self.rho} exceeds "
                f"closed-form value {1.0 / self.scale}"
            )
        ones = np.ones(self.m)
        drift = np.max(np.abs(self.mix(ones) - ones))
        if not drift <= DS_TOL:
            raise TopologyError(f"chebyshev build inconsistent: mix(ones) moves by {drift}")

    @property
    def m(self) -> int:
        return self.base.shape[0]

    @property
    def rho(self) -> float:
        return float(np.max(np.abs(self.bulk)))  # NaN if either end is

    def mix(self, X: np.ndarray) -> np.ndarray:
        """One application: M sparse neighbour exchanges."""
        S = self._twice_psi
        T_prev, T = X, 0.5 * (S @ X)
        for _ in range(self.M - 1):
            T_next = S @ T
            T_next -= T_prev
            T_prev, T = T, T_next
        T /= self.scale
        return T


def chebyshev_accelerate(base: GossipMatrix, M: int) -> GossipMatrix | ChebyshevGossip:
    """Degree-M Chebyshev polynomial of the base matrix, fixing P_M(1) = 1.

    The polynomial is the minimax choice for the base's measured bulk interval
    [lo, hi]: P_M(x) = T_M(psi(x)) / T_M(psi(1)) with the affine map psi taking
    [lo, hi] onto [-1, 1].  It is returned as a :class:`ChebyshevGossip` on
    the base's sparsity pattern, or as a plain matrix when the bulk is one
    point.  Its bulk interval is P_M on the base's eigenvalues
    (:attr:`GossipMatrix.eigenvalues`), so the build decomposes nothing; the
    operator checks that bulk against the closed form when it is built.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    lo, hi = base.bulk
    if hi - lo < 1e-13:
        # bulk collapsed to a point c: the affine (W - cI)/(1 - c) zeroes it
        c = 0.5 * (hi + lo)
        W = (base.W - c * np.eye(base.m)) / (1.0 - c)
        return GossipMatrix(W, rounds_per_application=base.rounds_per_application)

    from scipy import sparse

    return ChebyshevGossip(
        sparse.csr_array(base.W), lo, hi, M, M * base.rounds_per_application, base.eigenvalues
    )


def rounds_for_target(base_rho: float, target_rho: float) -> int:
    """Smallest polynomial degree M, at most :data:`MAX_ROUNDS`, whose
    accelerated deviation is <= target_rho.

    Uses the two-sided worst-case closed form 1 / T_M(1 / base_rho), the
    deviation after degree-M acceleration of a bulk in [-rho, rho], so the
    spectrally measured deviation of :func:`chebyshev_accelerate` meets the
    target for any base with the given rho, whatever the sign pattern of its
    bulk.  One running recurrence gives it for each M in turn.
    """
    if not 0 <= target_rho < 1 or not 0 <= base_rho < 1:
        raise ValueError("rho values must lie in [0, 1)")
    if base_rho <= target_rho:
        return 1
    if target_rho == 0.0:
        raise UnreachableTargetError("only exact averaging achieves rho = 0")
    z = 1.0 / base_rho
    t_prev, t = 1.0, z  # T_0(z), T_1(z)
    for M in range(1, MAX_ROUNDS + 1):
        if 1.0 / t <= target_rho:
            return M
        t_prev, t = t, 2.0 * z * t - t_prev
    raise UnreachableTargetError(f"target {target_rho} not reached within {MAX_ROUNDS} rounds")


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


def line_gossip_for_rho(rho_target: float) -> GossipMatrix:
    """Weighted line-graph gossip matrix with deviation exactly rho_target.

    Picks the node count m (the result's ``m``) with rho_m < rho_target <=
    rho_{m+1}, then bisects the weight parameter of one edge until the
    deviation matches; a matrix that misses it by more than
    :data:`LINE_RHO_TOL` raises :class:`TopologyError`, and a target that
    needs more than :data:`MAX_LINE_NODES` nodes raises
    :class:`InstanceTooLargeError`.
    """
    if not 0 < rho_target < 1:
        raise FixtureParameterError(f"rho_target must be in (0, 1), got {rho_target}")
    m = 2
    while line_rho_value(rho_target, m + 1) < rho_target:
        m += 1
        if m > MAX_LINE_NODES:
            raise InstanceTooLargeError(f"needs more than {MAX_LINE_NODES} nodes")

    def excess(a):  # deviation above the target at first-edge weight 1 - a
        return np.abs(_spectrum(_line_gossip_matrix(m, a, rho_target))).max() - rho_target

    lo_a, hi_a = 0.0, 1.0 - 1e-15
    if not excess(lo_a) <= 0:
        raise TopologyError("bracket failure: rho at a=0 should be below target")
    for _ in range(200):
        mid = 0.5 * (lo_a + hi_a)
        f_mid = excess(mid)
        if abs(f_mid) <= LINE_RHO_TOL * 1e-3:
            lo_a = hi_a = mid
            break
        if f_mid < 0:
            lo_a = mid
        else:
            hi_a = mid
    gm = GossipMatrix(_line_gossip_matrix(m, 0.5 * (lo_a + hi_a), rho_target))
    if abs(gm.rho - rho_target) > LINE_RHO_TOL:
        raise TopologyError(f"bisection missed target: {gm.rho} vs {rho_target}")
    return gm


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


def _pair_coupling_root(d: int, start: int, c: float) -> np.ndarray:
    """Symmetric PSD square root of c * _pair_coupling(d, start): each coupled
    pair's block B = [[1, -1], [-1, 1]] has B^2 = 2B, so its root is
    sqrt(c/2) B, and each unpaired index's is sqrt(c)."""
    A = _pair_coupling(d, start)
    S = np.sqrt(c / 2.0) * A
    unpaired = np.count_nonzero(A, axis=1) == 1
    S[unpaired, unpaired] = np.sqrt(c)
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

    n = d
    A = np.zeros((m, n, d))
    b = np.zeros((m, n))
    # each class's Gram matrix S^T S / n is scale * _pair_coupling
    S1 = _pair_coupling_root(d, 1, scale) * np.sqrt(n)  # couples (2,3), (4,5), ... 1-based
    S2 = _pair_coupling_root(d, 0, scale) * np.sqrt(n)  # couples (1,2), (3,4), ...
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
    )

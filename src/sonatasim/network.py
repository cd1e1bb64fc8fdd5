"""Topologies and gossip operators: Metropolis-Hastings weights, Chebyshev
polynomial acceleration, the exact-averaging (star) matrix, and the weighted
line-graph / split-quadratic fixtures used for lower-bound experiments; the
split-quadratic instance is held by its statistics, written in closed form,
and keeps no rows.

Every operator built here is symmetric and doubly stochastic, and checks so
when it is built; the algorithms apply it only through ``mix(X)``; one
application models ``rounds_per_application`` physical communication rounds.
A plain :class:`GossipMatrix` is built from ``W`` and that count alone,
measures the two ends of its spectrum (its bulk, and from it rho) on every
build, and mixes as the product ``W @ X``.  Its ``W`` is a dense array,
except for a Metropolis-Hastings matrix of a graph with more than
:data:`DENSE_MAX_M` nodes that stores at most :data:`SPARSE_MAX_FILL` of its
m^2 entries: that one is a scipy CSR array built from the edge list, and its
bulk is measured by Lanczos (:data:`LANCZOS_MAX_STEPS`, :data:`LANCZOS_TOL`),
so no m x m array is formed on that path unless Lanczos does not converge (a
long line, whose extreme eigenvalues cluster): then it is measured densely,
as for a dense W.  Small graphs stay dense because dense BLAS is as fast
there and needs no scipy; dense graphs stay dense because above that fill a
CSR product is slower than a dense one.
A :class:`ChebyshevGossip` (from :func:`chebyshev_accelerate`) is built on
its base :class:`GossipMatrix`, keeps the affine 2 psi(W) in the base's own
storage (dense or CSR) and applies the degree-M polynomial as M neighbour
exchanges by the three-term recurrence, never forming the polynomial; its
rho is the closed form 1 / T_M(psi(1)), which a short Lanczos run on
``mix`` checks.  :func:`degree_for_target` picks the smallest degree whose
closed-form deviation on the measured bulk meets a target, by the same walk
over T_M(psi(1)) that sets ``scale``, and a target that T_M overflows before
meeting is unreachable; :func:`rounds_for_target`, the two-sided worst case
for a bulk in [-rho, rho], bounds that degree from above.
scipy is imported only when a CSR matrix is built or accelerated.  Two
operators are equal only when they are the same object.  The builders'
limits are constants: :data:`MAX_RESAMPLES`, :data:`MAX_ROUNDS`,
:data:`LINE_RHO_TOL`, :data:`MAX_LINE_NODES` and those above.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .problems import GramStats, InputError, ProblemSpec, RuntimeFailure, check_dense, check_int

if TYPE_CHECKING:
    from scipy import sparse

DS_TOL = 1e-12  # symmetry and unit row-sum tolerance
MAX_RESAMPLES = 100  # random graphs drawn by erdos_renyi before it gives up
MAX_ROUNDS = 10_000  # largest polynomial degree a degree search tries
LINE_RHO_TOL = 1e-6  # deviation error line_gossip_for_rho accepts
MAX_LINE_NODES = 4096  # largest line line_gossip_for_rho builds
ER_BLOCK = 1 << 16  # uniforms erdos_renyi draws at a time
# A Metropolis-Hastings W is CSR only above this size and at most this fill
# (stored entries m + 2|E| over m^2), where a CSR product is no slower than a
# dense one.  At m = 1000, d = 40, W @ X takes 1.2-1.5 ms dense at any fill
# and 0.17 / 0.73 / 1.18 / 2.07 / 7.08 ms in CSR at fill 0.011 / 0.051 /
# 0.081 / 0.101 / 0.501 (best of 15, 2-core Xeon, OpenBLAS with 2 threads),
# so CSR breaks even between fill 0.08 and 0.10.
DENSE_MAX_M = 256
SPARSE_MAX_FILL = 0.09
LANCZOS_MAX_STEPS = 300  # a CSR spectrum not converged by then is measured densely
LANCZOS_TOL = 1e-8  # residual bound of the extreme Ritz pairs at convergence
# Steps between convergence tests, each an eigh of the k x k tridiagonal.
# Testing every step took the Metropolis-Hastings build of an m = 1000,
# p = 0.01 graph from 14 to 52 ms, and of a 1000-node line (300 steps, then
# the dense fallback) from 0.26 to 1.13 s (one thread).
LANCZOS_BLOCK = 8
CHEB_CHECK_STEPS = 32  # Lanczos steps ChebyshevGossip's check runs on mix


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


def erdos_renyi(m: int, p: float, seed: int) -> Graph:
    """Sample each pair independently with probability p (one uniform per pair
    i < j, in row-major order); resample until connected, at most
    :data:`MAX_RESAMPLES` times.  The uniforms are drawn :data:`ER_BLOCK`
    at a time, the same stream, and only the kept pairs are indexed."""
    if m < 2 or not 0 < p <= 1:
        raise ValueError("need m >= 2 and p in (0, 1]")
    check_int("seed", seed, 0)
    pairs = m * (m - 1) // 2
    row_start = np.arange(m) * (2 * m - np.arange(m) - 1) // 2  # index of pair (i, i+1)
    root = np.random.SeedSequence(seed)
    for attempt_seq in root.spawn(MAX_RESAMPLES):
        rng = np.random.default_rng(attempt_seq)
        kept = [
            start + np.flatnonzero(rng.random(min(ER_BLOCK, pairs - start)) < p)
            for start in range(0, pairs, ER_BLOCK)
        ]
        k = np.concatenate(kept)
        rows = np.searchsorted(row_start, k, side="right") - 1
        cols = k - row_start[rows] + rows + 1
        try:  # the Graph's own connectivity check is this draw's only one
            return Graph(m, frozenset(zip(rows.tolist(), cols.tolist())))
        except ValueError:  # disconnected: every pair is in range by construction
            pass
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


def _lanczos(apply, m: int, max_steps: int) -> tuple[np.ndarray, bool]:
    """Ritz values, ascending, of a symmetric operator that keeps the
    complement of the all-ones vector, restricted to that complement: at most
    ``max_steps`` Lanczos steps from a fixed start, fully reorthogonalised
    in two passes and kept orthogonal to the ones vector.  Also returns whether the run
    converged: both extreme Ritz pairs' residual bounds are at most
    :data:`LANCZOS_TOL`, tested every :data:`LANCZOS_BLOCK` steps, or the
    Krylov space is exhausted."""
    n = min(max_steps, m - 1)
    Q = np.empty((n, m))
    alpha, beta = np.empty(n), np.empty(n)
    q = np.random.default_rng(0).standard_normal(m)
    q -= q.mean()
    Q[0] = q / np.linalg.norm(q)
    for k in range(n):
        w = apply(Q[k])
        alpha[k] = Q[k] @ w
        for _ in range(2):  # "twice is enough": one pass leaves rounding in Q's span
            w -= Q[: k + 1].T @ (Q[: k + 1] @ w)
        w -= w.mean()
        beta[k] = np.linalg.norm(w)
        if (k + 1) % LANCZOS_BLOCK == 0 or k + 1 == n or beta[k] <= LANCZOS_TOL:
            T = np.diag(alpha[: k + 1]) + np.diag(beta[:k], 1) + np.diag(beta[:k], -1)
            theta, S = np.linalg.eigh(T)
            # the residual of Ritz pair i is beta_k times its vector's last entry
            if k + 1 == m - 1 or beta[k] * np.abs(S[-1, [0, -1]]).max() <= LANCZOS_TOL:
                return theta, True
        if k + 1 < n:
            Q[k + 1] = w / beta[k]
    return theta, False


def _spectrum(W) -> tuple[float, float]:
    """The smallest and largest eigenvalues of W - 11^T/m for a symmetric W
    with unit row sums, whose spectrum is W's non-consensus eigenvalues and
    the consensus one at 0.  A CSR W is measured by :func:`_lanczos`: the
    ends of its Ritz values, which converge to the spectrum's, and of the 0;
    one whose run has not converged in :data:`LANCZOS_MAX_STEPS` is measured
    by a dense ``eigvalsh`` instead."""
    m = W.shape[0]
    if not isinstance(W, np.ndarray):
        ritz, converged = _lanczos(W.__matmul__, m, LANCZOS_MAX_STEPS)
        if converged:
            return min(float(ritz[0]), 0.0), max(float(ritz[-1]), 0.0)
        W = W.toarray()  # clustered ends (a long line, say): measured densely
    spectrum = np.linalg.eigvalsh(W - 1.0 / m)
    return float(spectrum[0]), float(spectrum[-1])


@dataclass(eq=False)
class GossipMatrix:
    """Symmetric mixing matrix with unit row sums (so doubly stochastic),
    checked within :data:`DS_TOL`.  Its ``bulk`` [lo, hi], the smallest and
    largest eigenvalues of W - 11^T/m, is measured whenever it is built, a
    ``dataclasses.replace`` included; its spectral deviation rho is their
    larger magnitude.  ``W`` is a dense array or a scipy CSR array, whose
    bulk is measured by Lanczos unless that does not converge (see
    :func:`_spectrum`).

    ``rounds_per_application`` is what one iteration of the algorithms costs:
    the number of physical communication rounds that one ``mix`` stands for
    (a :class:`ChebyshevGossip`'s is its degree times its base's), an integer
    >= 1.  The algorithms count communication from this field alone, so a
    different accounting is a W built with a different value, e.g. doubled to
    count half-duplex rounds (a Chebyshev operator's base doubled).
    """

    W: np.ndarray | sparse.csr_array
    rounds_per_application: int = 1
    bulk: tuple[float, float] = field(init=False)

    def __post_init__(self):
        check_int("rounds_per_application", self.rounds_per_application, 1)
        if not hasattr(self.W, "tocsr"):  # a scipy sparse W is kept as given
            self.W = np.asarray(self.W, dtype=float)
        # written `not x <= tol` so that a NaN fails each check
        if not abs(self.W - self.W.T).max() <= DS_TOL:
            raise ValueError(f"matrix is not symmetric within {DS_TOL}")
        if not np.max(np.abs(self.W @ np.ones(self.m) - 1.0)) <= DS_TOL:
            raise ValueError(f"matrix rows do not sum to 1 within {DS_TOL}")
        self.bulk = _spectrum(self.W)
        if not self.rho < 1:
            raise ValueError(f"rho must be < 1, got {self.rho}")

    @property
    def m(self) -> int:
        return self.W.shape[0]

    @property
    def rho(self) -> float:
        return float(np.max(np.abs(self.bulk)))  # NaN if either end is

    def mix(self, X: np.ndarray) -> np.ndarray:
        """One application: the product W @ X."""
        return self.W @ X


def metropolis_hastings(g: Graph) -> GossipMatrix:
    """w_ij = 1 / (1 + max(deg_i, deg_j)) on edges, diagonal fills to row sum 1.

    Dense, unless g has more than :data:`DENSE_MAX_M` nodes and W would store
    at most :data:`SPARSE_MAX_FILL` of its entries: then a CSR array built
    from the edge list, its diagonal from the sparse row sums."""
    # int32, the index type scipy gives a CSR array converted from a dense one
    i, j = np.array(list(g.edges), dtype=np.int32).reshape(-1, 2).T
    rows = np.concatenate([i, j])
    deg = np.bincount(rows, minlength=g.m)
    w = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
    if g.m <= DENSE_MAX_M or g.m + 2 * len(g.edges) > SPARSE_MAX_FILL * g.m**2:
        W = np.zeros((g.m, g.m))
        W[i, j] = W[j, i] = w
        np.fill_diagonal(W, 1.0 - W.sum(axis=1))
        return GossipMatrix(W)

    from scipy import sparse

    shape = (g.m, g.m)
    off = sparse.csr_array((np.concatenate([w, w]), (rows, np.concatenate([j, i]))), shape)
    diag = np.arange(g.m, dtype=np.int32)
    return GossipMatrix(off + sparse.csr_array((1.0 - off @ np.ones(g.m), (diag, diag)), shape))


def exact_averaging(m: int) -> GossipMatrix:
    """W = 11^T/m: one round of exact averaging (master-node consensus)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return GossipMatrix(np.full((m, m), 1.0 / m))


def _chebyshev(z):
    """T_1(z), T_2(z), ... without end, by the three-term recurrence
    T_{k+1}(z) = 2 z T_k(z) - T_{k-1}(z) from T_0 = 1 (z any real, or an array)."""
    t_prev, t = 1.0, z
    while True:
        yield t
        t_prev, t = t, 2.0 * z * t - t_prev


def _psi_one(bulk: tuple[float, float]) -> float:
    """psi(1), the consensus eigenvalue under the affine map taking the bulk
    [lo, hi] onto [-1, 1]."""
    lo, hi = bulk
    return (2.0 - hi - lo) / (hi - lo)


def _collapsed(bulk: tuple[float, float]) -> bool:
    """Whether the bulk is one point, which no polynomial needs to shrink."""
    lo, hi = bulk
    return hi - lo < 1e-13


def _degree(z: float, target_rho: float) -> tuple[int, float]:
    """(M, T_M(z)) for the smallest M, at most :data:`MAX_ROUNDS`, with
    1 / T_M(z) <= target_rho, walking :func:`_chebyshev` (z > 1).  A T_M
    that overflows to inf is above every finite float, so it meets any target
    at or above 1 / (largest float); a smaller target, zero included, is
    unreachable."""
    if target_rho == 0.0:
        raise UnreachableTargetError("only exact averaging achieves rho = 0")
    if target_rho < 1.0 / np.finfo(float).max:
        raise UnreachableTargetError(
            f"target {target_rho} not reached: T_M overflows the float range before 1 / T_M is that small"
        )
    for M, t in zip(range(1, MAX_ROUNDS + 1), _chebyshev(z)):
        if 1.0 / t <= target_rho:
            return M, t
    raise UnreachableTargetError(f"target {target_rho} not reached within {MAX_ROUNDS} rounds")


@dataclass(eq=False)
class ChebyshevGossip:
    """P_M(W) = T_M(psi(W)) / T_M(psi(1)) of a base :class:`GossipMatrix`,
    with psi the affine map taking the base's bulk [lo, hi] onto [-1, 1],
    applied without forming it: ``mix`` runs the three-term recurrence
    T_{k+1} = 2 psi(W) T_k - T_{k-1}, one product per round, with
    2 psi(W) kept in the base's storage (a dense array or a CSR array).

    ``scale`` is T_M(psi(1)), and rho is 1 / scale: |P_M| <= 1 / scale on
    [lo, hi], with equality at both ends, which are measured eigenvalues.
    Construction raises :class:`TopologyError` if ``scale`` is not finite
    (T_M(psi(1)) overflows at a high degree), if ``mix`` moves the all-ones
    vector by :data:`DS_TOL`, or if a Ritz value of ``mix`` on the
    complement of the ones vector, from :data:`CHEB_CHECK_STEPS` Lanczos
    steps, exceeds 1 / scale by 1e-8 in magnitude or is NaN; and
    ``ValueError``, before any mix, if M is not an integer >= 1.
    Ritz values never exceed the true spectrum, so the last check catches a
    build whose deviation is clearly above the closed form (a base whose
    bulk was mismeasured, say), at the cost of a few dozen applications.
    """

    base: GossipMatrix
    M: int
    scale: float = field(init=False)

    def __post_init__(self):
        check_int("M", self.M, 1)
        (lo, hi), W = self.base.bulk, self.base.W
        if isinstance(W, np.ndarray):
            eye = np.eye(self.m)
        else:
            from scipy import sparse

            eye = sparse.identity(self.m, format="csr")
        # 2 psi(W): doubling is exact, so each step rounds as 2 psi(W) T_k does
        self._twice_psi = 2.0 * (2.0 * W - (hi + lo) * eye) / (hi - lo)
        # the same walk that degree_for_target stops on, so the same float
        self.scale = next(itertools.islice(_chebyshev(_psi_one(self.base.bulk)), self.M - 1, None))
        if not np.isfinite(self.scale):  # inf, or inf - inf = NaN a step later
            raise TopologyError(
                f"chebyshev build inconsistent: the closed form T_M(psi(1)) overflowed "
                f"the float range at degree {self.M}"
            )
        ones = np.ones(self.m)
        drift = np.max(np.abs(self.mix(ones) - ones))
        if not drift <= DS_TOL:
            raise TopologyError(f"chebyshev build inconsistent: mix(ones) moves by {drift}")
        ritz, _ = _lanczos(self.mix, self.m, CHEB_CHECK_STEPS)
        measured = np.max(np.abs(ritz))
        if not measured <= self.rho + 1e-8:
            raise TopologyError(
                f"chebyshev build inconsistent: mix has a Ritz value of magnitude "
                f"{measured} above closed-form value {self.rho}"
            )

    @property
    def m(self) -> int:
        return self.base.m

    @property
    def rho(self) -> float:
        return 1.0 / self.scale

    @property
    def rounds_per_application(self) -> int:
        return self.M * self.base.rounds_per_application

    def mix(self, X: np.ndarray) -> np.ndarray:
        """One application: M neighbour exchanges."""
        S = self._twice_psi
        T_prev, T = X, S @ X
        T *= 0.5
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
    the base, in the base's storage, or as a plain matrix when the bulk is
    one point.  Its rho is the closed form 1 / T_M(psi(1)) on the base's
    measured bulk, so the build decomposes nothing; a short Lanczos run on
    the operator's own ``mix`` checks it when it is built.
    """
    check_int("M", M, 1)
    if _collapsed(base.bulk):
        # bulk collapsed to a point c: the affine (W - cI)/(1 - c) zeroes it
        lo, hi = base.bulk
        c = 0.5 * (hi + lo)
        W = (base.W - c * np.eye(base.m)) / (1.0 - c)
        return GossipMatrix(W, rounds_per_application=base.rounds_per_application)
    return ChebyshevGossip(base, M)


def degree_for_target(base: GossipMatrix, target_rho: float) -> int:
    """Smallest polynomial degree M, at most :data:`MAX_ROUNDS`, at which
    :func:`chebyshev_accelerate` of ``base`` has rho <= target_rho.

    It walks T_M(psi(1)) on the base's measured bulk, the sequence whose
    M-th term is the operator's ``scale``, so the operator's rho 1 / scale
    meets the target exactly, not up to rounding.  A base that already
    meets it, or whose bulk is one point, needs degree 1; a point's affine
    map has a rounding-level rho, which a smaller target misses, so
    ``cli.build_gossip`` checks the built operator.  A degree whose
    T_M overflows the float range before the target is met raises
    :class:`UnreachableTargetError`, as does a zero target.
    """
    if not 0 <= target_rho < 1:
        raise ValueError(f"target_rho must lie in [0, 1), got {target_rho}")
    if base.rho <= target_rho or _collapsed(base.bulk):
        return 1
    M, scale = _degree(_psi_one(base.bulk), target_rho)
    if scale == np.inf:  # the operator's scale would be inf
        raise UnreachableTargetError(
            f"target {target_rho} not reached: T_M(psi(1)) overflows the float range at degree {M}"
        )
    return M


def rounds_for_target(base_rho: float, target_rho: float) -> int:
    """Smallest polynomial degree M, at most :data:`MAX_ROUNDS`, with
    1 / T_M(1 / base_rho) <= target_rho: the two-sided worst case, the
    deviation after degree-M acceleration of a bulk in [-base_rho, base_rho].

    It is the same walk as :func:`degree_for_target` on that symmetric bulk,
    and a bound that the degree for a measured bulk with this rho never
    exceeds: a bulk [lo, hi] inside [-rho, rho] has psi(1) >= 1 / rho.
    """
    if not 0 <= target_rho < 1 or not 0 <= base_rho < 1:
        raise ValueError("rho values must lie in [0, 1)")
    if base_rho <= target_rho:
        return 1
    return _degree(1.0 / base_rho, target_rho)[0]


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
    w = np.ones(m - 1)
    w[0] = 1.0 - a  # the first edge carries the weight parameter
    L = np.diag(-w, 1) + np.diag(-w, -1)
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


def _pair_coupling(H: np.ndarray, start: int, c: float) -> None:
    """Write c times the identity plus -c couplings on the index pairs
    (start, start+1), (start+2, start+3), ... into every (d, d) block of the
    zero stack H."""
    i = np.arange(H.shape[-1])
    H[:, i, i] = c
    i = i[start:-1:2]
    H[:, i, i + 1] = H[:, i + 1, i] = -c


def hard_instance(mu: float, beta: float, m: int, d: int) -> ProblemSpec:
    """Split-quadratic instance: left agents couple odd index pairs and carry the
    only linear term, right agents couple even pairs, middle agents are pure
    ridge.  Communication across the line cut is the only way support spreads.

    Held by its statistics alone, written in closed form with n = d: a
    boundary agent's H_i is scale times its class's coupling pattern
    (:func:`_pair_coupling`), a middle agent's is 0, and a left agent's h_i
    is scale * e_1 with |b_i|^2 = n * scale.  It keeps no rows.
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
    check_dense(InputError, "the stack of split-quadratic statistics", m, d, d)
    H = np.zeros((m, d, d))
    _pair_coupling(H[: len(left)], 1, scale)  # the classes are the line's two ends
    _pair_coupling(H[right[0] :], 0, scale)
    h = np.zeros((m, d))
    h[left, 0] = scale
    b_sq = np.zeros(m)
    b_sq[left] = n * scale
    return ProblemSpec(
        loss_kind="quadratic-ridge",
        n=n,
        stats=GramStats(H, h, b_sq),
        lam=mu / 2.0,  # ridge term lam*||x||^2 contributes mu*I to every Hessian
    )

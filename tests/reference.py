"""Reference code that only the tests use: per-agent oracles, analysis helpers
of the convergence theory, and the master/workers (star) variant written
independently of the mesh loops.

Each one checks a library result against a plainer or an independent
computation; no ``sonatasim`` command runs any of it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from sonatasim import network, problems
from sonatasim.accel import AccelParams
from sonatasim.diagnostics import Oracle, consensus_error, error_weights
from sonatasim.problems import Constants, ProblemSpec
from sonatasim.sonata import LocalSolver, shifted_grads

# ---------------------------------------------------------------------------
# Per-agent oracles
# ---------------------------------------------------------------------------


def local_value(p: ProblemSpec, i: int, x) -> float:
    """Value of agent i's local loss f_i at x."""
    x = problems._check_point(x, p.d)
    loss = p.loss.value_into(p.A[i] @ x, p.b[i])  # the predictions are this call's own
    return float(loss.mean() + 0.5 * p.loss.ridge * p.lam * (x @ x))


def hessian_bound(p: ProblemSpec, i: int) -> np.ndarray:
    """Data-dependent upper bound H_i on agent i's Hessian.

    Exact for the quadratic loss; for classification losses it caps the scalar
    curvature at 1 (hinge) or 1/4 (logistic).
    """
    return p.loss.cap * (p.A[i].T @ p.A[i]) / p.n + p.loss.ridge * p.lam * np.eye(p.d)


def curvature_in_one_call(p: ProblemSpec) -> problems.Curvature:
    """problems.curvature with each per-agent kernel (the Gram product and
    both decompositions) one numpy call on the whole (m, d, d) stack."""
    ridge = p.loss.ridge * p.lam * np.eye(p.d)
    if p.stats is not None:
        H = p.stats.H + ridge
    else:
        H = p.loss.cap * np.matmul(p.A.transpose(0, 2, 1), p.A) / p.n
        H += ridge
    H_bar = H.mean(axis=0)
    w = np.linalg.eigvalsh(H_bar)
    lmax = np.linalg.eigvalsh(H)[:, -1]
    beta = np.abs(np.linalg.eigvalsh(H - H_bar)[:, [0, -1]]).max()
    return problems.Curvature(H_bar, float(w[0]), float(w[-1]), lmax, float(beta))


def tracking_gap(p: ProblemSpec, X, Y, delta: float = 0.0, Z=None) -> float:
    """Norm of avg(y_i) - avg(shifted grad_i(x_i)); zero under exact tracking."""
    X = np.asarray(X, dtype=float)
    G = shifted_grads(X, delta, Z, problems.batch_grads(p, X))
    return float(np.linalg.norm(Y.mean(axis=0) - G.mean(axis=0)))


# ---------------------------------------------------------------------------
# Analysis helpers
# ---------------------------------------------------------------------------


def admissible_rho(constants: Constants, mode: str) -> float:
    """Largest network deviation for which the inner potential provably
    contracts at the mode's nominal factor."""
    mu, L, beta = constants.mu_hat, constants.L_hat, constants.beta_hat
    if mode == "F":
        return float(
            beta * (2 * beta - mu) / (4 * np.sqrt(1785.0) * (L + 2 * beta - mu) * (L + 4 * beta - mu))
        )
    if mode == "L":
        return float(L**2 / (70 * np.sqrt(15.0) * (2 * L - mu + beta) ** 2))
    raise ValueError("mode must be 'F' or 'L'")


def inner_potential(X, Y, constants: Constants, mode: str, oracle_k: Oracle) -> dict:
    """g + e of the inner loop: average shifted suboptimality plus weighted
    consensus and tracking errors.  ``oracle_k`` must solve the same shifted
    problem the states are evolving on."""
    c_x, c_y = error_weights(constants, mode)
    g = oracle_k.suboptimality(X)
    e = c_x * consensus_error(X) + c_y * consensus_error(Y)
    return {"g": g, "e": e, "total": g + e}


def chebyshev_bound_two_sided(base_rho: float, M: int) -> float:
    """Worst-case deviation after degree-M acceleration of a bulk in [-rho, rho]."""
    return 1.0 / next(itertools.islice(network._chebyshev(1.0 / base_rho), M - 1, None))


def line_gossip_matrix(m: int, a: float, rho: float) -> np.ndarray:
    """W = I - L_{m,a}/(2+rho), the Laplacian filled one edge at a time."""
    L = np.zeros((m, m))
    for i in range(m - 1):
        w = (1.0 - a) if i == 0 else 1.0  # first edge carries the weight parameter
        L[i, i + 1] = -w
        L[i + 1, i] = -w
    np.fill_diagonal(L, -L.sum(axis=1))
    return np.eye(m) - L / (2.0 + rho)


def fit_contraction_factor(values) -> float:
    """Geometric fit: exp(slope of log(values) per iteration) over the tail half."""
    vals = np.asarray(values, dtype=float)
    vals = vals[vals > 0]
    tail = vals[len(vals) // 2 :]
    if len(tail) < 2:
        raise ValueError("need at least two positive values")
    t = np.arange(len(tail))
    slope = np.polyfit(t, np.log(tail), 1)[0]
    return float(np.exp(slope))


# ---------------------------------------------------------------------------
# Master/workers variant: exact averaging replaces gossip, the master
# broadcasts the aggregate gradient, and no tracking variable is needed.
#
# Equivalent to the mesh algorithms run with the rank-one averaging matrix
# (deviation zero) when the tracking variables start alike: the accelerated
# run's first local step takes each worker's own gradient, as the mesh run's
# tracking variable does before any exchange.  The outer and inner loops here
# are written independently of the mesh ones as a cross-check; the workers'
# local step is the shared LocalSolver, called on stacks in which every row
# holds the shared point.
# ---------------------------------------------------------------------------


def sonata_star_run(
    p: ProblemSpec,
    x0,
    T: int,
    solver: LocalSolver,
    *,
    z=None,
    comms_start: int = 0,
    on_step=None,
    own_start: bool = False,
):
    """T master/workers iterations from the shared point x0, local steps by
    ``solver`` (whose delta shifts the gradients toward z); returns (x_T, comms).

    Each iteration: workers send local gradients, master broadcasts the
    average, workers solve their surrogate subproblem with the correction
    grad_f - grad_f_i, master averages the solutions.  With ``own_start`` the
    first iteration's workers step on their own gradients, with no
    correction.  Counted as one communication round per iteration, mirroring
    the mesh bookkeeping for the rank-one averaging matrix.
    """
    x = np.array(x0, dtype=float)
    Z = np.tile(x if z is None else z, (p.m, 1))
    comms = comms_start
    for t in range(1, T + 1):
        X = np.tile(x, (p.m, 1))
        grads = problems.batch_grads(p, X)
        G = shifted_grads(X, solver.delta, Z, grads)
        Y = G if own_start and t == 1 else np.tile(G.mean(axis=0), (p.m, 1))
        halves, _, _ = solver.solve(X, Y, G, Z, grads)
        x = halves.mean(axis=0)
        comms += 1
        if on_step is not None:
            on_step(t, comms, x)
    return x, comms


@dataclass
class StarResult:
    x: np.ndarray
    K_done: int
    comms: int
    converged: bool
    gaps: list = field(default_factory=list)


def acc_sonata_star_run(
    p: ProblemSpec,
    params: AccelParams,
    *,
    gap_fn=None,
    target_gap: float | None = None,
    on_inner_step=None,
) -> StarResult:
    """Accelerated outer loop on the star architecture: shared x and z, from
    x = 0, for up to params.K_max outer iterations with one local solver; its
    first local step is on the workers' own gradients, as the mesh run's."""
    x = np.zeros(p.d)
    z = x.copy()
    comms = 0
    result = StarResult(x, 0, comms, False)
    solver = params.local_solver(p)
    for k in range(params.K_max):
        x_prev = x
        x, comms = sonata_star_run(
            p,
            x,
            params.T,
            solver,
            z=z,
            comms_start=comms,
            own_start=k == 0,
            on_step=(
                None
                if on_inner_step is None
                else lambda t, c, xs, _k=k: on_inner_step(_k, t, c, xs)
            ),
        )
        z = x + params.extrapolation_coef * (x - x_prev)
        result.K_done = k + 1
        if gap_fn is not None:
            gap = float(gap_fn(x[None, :]))
            result.gaps.append(gap)
            if target_gap is not None and gap <= target_gap:
                result.converged = True
                break
    result.x, result.comms = x, comms
    return result

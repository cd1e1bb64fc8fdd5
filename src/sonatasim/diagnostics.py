"""Centralized oracles and run diagnostics: optimality gap, consensus and
tracking errors, the inner and outer potential functions with their
mode-specific constants, and communication-to-accuracy extraction.

Everything here is offline instrumentation: it reads state snapshots and never
feeds back into the algorithms.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields

import numpy as np

from . import problems
from .accel import AccelParams, RunObserver
from .problems import Constants, ProblemSpec, r_value

INNER_CONTRACTION = {"F": 33.0 / 34.0, "L": 9.0 / 10.0}


class OracleNotConvergedError(problems.RuntimeFailure):
    """The centralized reference solver hit its iteration cap."""


class ShiftedObjective:
    """u_k(x) = f(x) + delta/(2m) sum_i ||x - z_i||^2 + r(x), with fast batched
    evaluation (closed quadratic form when the loss has exact curvature)."""

    def __init__(self, p: ProblemSpec, delta: float = 0.0, Z=None):
        self.p = p
        self.delta = float(delta)
        self.Z = None if Z is None else np.asarray(Z, dtype=float)
        self.z_bar = None if self.Z is None else self.Z.mean(axis=0)
        self.z_sq_mean = 0.0 if self.Z is None else float((self.Z**2).sum(axis=1).mean())
        self.exact = p.loss.exact
        self._H = problems.curvature(p).H_bar
        if self.exact:
            stats = problems.gram(p)
            if stats is not None:
                self._h = stats[1].mean(axis=0)
            else:  # d > n: from A
                self._h = np.einsum("mnd,mn->d", p.A, p.b) / (p.n * p.m)
            self._c = float((p.b**2).sum(axis=1).mean() / (2.0 * p.n))

    def values(self, X):
        """u at a (d,) point (a float), at every row of a (k, d) stack, or at
        every row of each slice of a (k, m, d) stack, a slice computed as on its own."""
        X = np.asarray(X, dtype=float)
        if self.exact:  # a stacked matmul runs one X @ H per slice
            v = 0.5 * np.einsum("...d,...d->...", X @ self._H, X) - X @ self._h + self._c
        elif X.ndim == 3:
            v = np.stack([problems.average_value(self.p, x) for x in X])
        else:
            v = problems.average_value(self.p, X)
        if self.delta != 0.0:
            sq = np.einsum("...d,...d->...", X, X)
            v = v + self.delta * (0.5 * sq - X @ self.z_bar + 0.5 * self.z_sq_mean)
        v = v + r_value(self.p, X)
        return float(v) if X.ndim == 1 else v

    def grad(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.exact:
            g = self._H @ x - self._h
        else:
            g = problems.average_grad(self.p, x)
        if self.delta != 0.0:
            g = g + self.delta * (x - self.z_bar)
        return g


@dataclass(frozen=True)
class Oracle:
    """Centralized minimizer and optimal value of a (shifted) problem."""

    x_star: np.ndarray
    u_star: float
    objective: ShiftedObjective

    def suboptimality(self, X):
        """Mean of u(x_i) - u_star over the rows of an (m, d) X (a float), or
        over each (m, d) slice of a (k, m, d) stack (a (k,) array), each slice
        equal to its own (m, d) call; NaN where X is not finite."""
        X = np.asarray(X, dtype=float)
        if np.isfinite(X).all():
            gap = self.objective.values(X).mean(axis=-1) - self.u_star
        else:  # u rejects a non-finite point
            gap = np.full(X.shape[:-2], np.nan)
        return float(gap) if X.ndim == 2 else gap


def centralized_solve(
    p: ProblemSpec,
    tol: float = 1e-12,
    delta: float = 0.0,
    Z=None,
    max_iters: int = 500_000,
) -> Oracle:
    """Solve the (shifted) global problem to high accuracy.

    Quadratic losses with r = zero use a direct symmetric solve plus one round
    of iterative refinement; everything else runs :func:`problems.prox_gradient`
    on one row until the gradient-mapping norm drops below tol.
    """
    obj = ShiftedObjective(p, delta, Z)
    if obj.exact and p.reg.kind == "zero":
        K = obj._H + delta * np.eye(p.d)
        rhs = obj._h + (delta * obj.z_bar if delta != 0.0 else 0.0)
        x = np.linalg.solve(K, rhs)
        x = x + np.linalg.solve(K, rhs - K @ x)  # one refinement pass
        return Oracle(x, obj.values(x), obj)

    w = np.linalg.eigvalsh(obj._H)
    L = w[-1] + delta
    mu = (w[0] if obj.exact else p.lam) + delta
    if mu <= 0:
        raise ValueError("centralized solve requires a strongly convex problem")
    step = np.array([1.0 / L])
    X, converged, _ = problems.prox_gradient(
        p, lambda V: obj.grad(V[0])[None], np.zeros((1, p.d)), step, mu * step, tol, max_iters
    )
    if not converged:
        raise OracleNotConvergedError(f"no convergence to {tol} in {max_iters} iterations")
    return Oracle(X[0], obj.values(X[0]), obj)


def consensus_error(X):
    """(1/m) sum_i ||x_i - x_bar||^2 of an (m, d) X (a float), or of each
    (m, d) slice of a (k, m, d) stack (a (k,) array)."""
    X = np.asarray(X, dtype=float)
    centered = X - X.mean(axis=-2, keepdims=True)
    err = (centered**2).sum(axis=-1).mean(axis=-1)
    return float(err) if X.ndim == 2 else err


def optimality_gap(p: ProblemSpec, X, oracle: Oracle):
    """max of average objective suboptimality and average consensus error at
    an (m, d) X (a float), or at each (m, d) slice of a (k, m, d) stack (a
    (k,) array); NaN in either arm is NaN."""
    gap = np.maximum(oracle.suboptimality(X), consensus_error(X))
    return float(gap) if np.ndim(gap) == 0 else gap


def error_weights(constants: Constants, mode: str) -> tuple[float, float]:
    """(c_x, c_y) weights of the consensus/tracking error in the inner potential."""
    mu, L, beta = constants.mu_hat, constants.L_hat, constants.beta_hat
    if mode == "F":
        return 8.0 * (L + 2 * beta - mu) ** 2 / beta, 4.0 / beta
    if mode == "L":
        return 56.0 * (2 * L + beta - mu) ** 2 / L, 28.0 / L
    raise ValueError("mode must be 'F' or 'L'")


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


def outer_potential(
    X_prev, X, alpha: float, mu: float, e_prev_final: float, oracle: Oracle
) -> float:
    """Suboptimality plus a momentum-corrected distance to the solution plus
    the carried-over inner error: decays linearly on compliant runs."""
    X = np.asarray(X, dtype=float)
    X_prev = np.asarray(X_prev, dtype=float)
    V = X_prev + (X - X_prev) / alpha
    dist = float(((V - oracle.x_star) ** 2).sum(axis=1).mean())
    return oracle.suboptimality(X) + 0.5 * mu * dist + e_prev_final


@dataclass(frozen=True)
class PotentialConstants:
    """Inner error weights, nominal contraction, admissible deviation, and the
    outer-rate constants of the potential decay bound."""

    c_x: float
    c_y: float
    contraction: float
    rho_bound: float
    c1: float
    c2: float


def potential_constants(
    constants: Constants, mode: str, alpha: float, c_seq: float, delta: float
) -> PotentialConstants:
    c_x, c_y = error_weights(constants, mode)
    ca = c_seq * alpha
    c1 = 1.0 + (delta / c_x) * (1.5 * (1 - ca) ** 2 + 5 - 4 * ca) / (1 - ca) ** 2
    if alpha < 1.0:
        c2 = (2.0 + np.sqrt(c1)) ** 2 / (
            (np.sqrt((1 - ca) / (1 - alpha)) - 1.0) ** 2 * (1 - alpha)
        )
    else:
        c2 = float("inf")  # delta = 0: the outer bound degenerates
    return PotentialConstants(
        c_x=c_x,
        c_y=c_y,
        contraction=INNER_CONTRACTION[mode],
        rho_bound=admissible_rho(constants, mode),
        c1=float(c1),
        c2=float(c2),
    )


# ---------------------------------------------------------------------------
# Trajectory recording
# ---------------------------------------------------------------------------

CSV_SCHEMA_VERSION = 1


@dataclass
class TrajRow:
    """One trajectory.csv row; the fields are its columns, in order."""

    k: int
    t: int
    comms: int
    gap: float
    consensus_err: float
    tracking_err: float
    g_plus_e: float | None = None
    P_k: float | None = None


CSV_FIELDS = tuple(f.name for f in fields(TrajRow))


@dataclass
class Trajectory:
    """The rows of trajectory.csv and, when the potentials are recorded, the
    inner potential at each outer iteration's warm start.  The final inner
    potential and the outer potential after the extrapolation of outer
    iteration k are the ``g_plus_e`` and ``P_k`` of its last row."""

    rows: list = field(default_factory=list)
    g_e_warm: list = field(default_factory=list)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_FIELDS)
            for r in self.rows:
                writer.writerow(_csv_cell(getattr(r, name)) for name in CSV_FIELDS)


def _csv_cell(v):
    """A float written to round-trip, an int as is, None as an empty cell."""
    if v is None:
        return ""
    return f"{v:.17g}" if isinstance(v, float) else v


def comms_to_accuracy(traj: Trajectory, eps: float):
    """First cumulative communication count at which the gap is <= eps;
    None when the trajectory never reaches it."""
    if not traj.rows:
        raise ValueError("empty trajectory")
    for r in traj.rows:
        if r.gap <= eps:
            return r.comms
    return None


class TrajectoryBuilder(RunObserver):
    """Observer that assembles a Trajectory from an accelerated run.

    It evaluates the outer potential after every extrapolation.  Given
    ``constants`` it also records the potentials: it re-solves the shifted
    problem at every outer iteration to evaluate the inner potential, and
    keeps its value at each warm start.
    """

    def __init__(
        self,
        p: ProblemSpec,
        oracle: Oracle,
        params: AccelParams,
        constants: Constants | None = None,
    ):
        self.p = p
        self.oracle = oracle
        self.params = params
        self.constants = constants
        self.traj = Trajectory()
        self._oracle_k: Oracle | None = None
        self._last_inner: dict | None = None
        self.P0: float | None = None

    def _row(self, k, t, comms, X, Y, g_plus_e=None, P_k=None):
        self.traj.rows.append(
            TrajRow(
                k, t, comms, optimality_gap(self.p, X, self.oracle),
                consensus_error(X), consensus_error(Y), g_plus_e, P_k,
            )
        )

    def on_init(self, comms, X, Y, Z):
        self.P0 = outer_potential(X, X, self.params.alpha, self.params.mu, 0.0, self.oracle)
        self._row(0, 0, comms, X, Y, P_k=self.P0)

    def on_outer_start(self, k, comms, X, Y_warm, Z, Z_prev):
        if self.constants is None:
            return
        self._oracle_k = centralized_solve(self.p, delta=self.params.delta, Z=Z)
        self._last_inner = inner_potential(
            X, Y_warm, self.constants, self.params.mode, self._oracle_k
        )
        self.traj.g_e_warm.append(self._last_inner["total"])

    def on_inner_step(self, k, t, comms, X, Y):
        g_plus_e = None
        if self._oracle_k is not None:
            self._last_inner = inner_potential(
                X, Y, self.constants, self.params.mode, self._oracle_k
            )
            g_plus_e = self._last_inner["total"]
        self._row(k, t, comms, X, Y, g_plus_e=g_plus_e)

    def on_outer_end(self, k, comms, X, X_prev, Y, Z, Z_prev):
        e_final = self._last_inner["e"] if self._last_inner else 0.0
        P_next = outer_potential(
            X_prev, X, self.params.alpha, self.params.mu, e_final, self.oracle
        )
        if self.traj.rows:
            self.traj.rows[-1].P_k = P_next


class CommsToAccuracy(RunObserver):
    """Observer that records only what :func:`comms_to_accuracy` reads of a
    trajectory: the first cumulative communication count at which the gap is
    <= eps (``comms``, None until then), and the gap at the latest outer
    iterate (``gap``, what the run's stop test reads).

    It holds the inner iterates of one outer iteration and evaluates their
    gaps at its end in one stacked :func:`optimality_gap` call.  A non-finite
    gap raises :class:`problems.DivergenceError`.
    """

    def __init__(self, p: ProblemSpec, oracle: Oracle, eps: float):
        self.p = p
        self.oracle = oracle
        self.eps = eps
        self.comms: int | None = None
        self.gap: float | None = None
        self._X: list = []  # each inner step's X is a fresh array
        self._comms: list = []

    def _record(self, gaps, comms):
        if not np.isfinite(gaps).all():
            raise problems.DivergenceError(f"non-finite optimality gap by comms {comms[-1]}")
        if self.comms is None:
            hit = np.flatnonzero(gaps <= self.eps)
            if hit.size:
                self.comms = comms[hit[0]]
        self.gap = float(gaps[-1])

    def on_init(self, comms, X, Y, Z):
        self._record(optimality_gap(self.p, X[None], self.oracle), [comms])

    def on_inner_step(self, k, t, comms, X, Y):
        self._X.append(X)
        self._comms.append(comms)

    def on_outer_end(self, k, comms, X, X_prev, Y, Z, Z_prev):
        self._record(optimality_gap(self.p, np.stack(self._X), self.oracle), self._comms)
        self._X, self._comms = [], []


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

"""Centralized oracles and run diagnostics: optimality gap, consensus and
tracking errors, the outer potential function and the inner one's
mode-specific error weights, trajectory recording, and
communication-to-accuracy extraction.

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


# gradient-mapping tolerance and iteration cap of the iterative centralized solve
ORACLE_TOL = 1e-12
ORACLE_MAX_ITERS = 500_000


class OracleNotConvergedError(problems.RuntimeFailure):
    """The centralized reference solver hit its iteration cap."""


class ShiftedObjective:
    """u_k(x) = f(x) + delta/(2m) sum_i ||x - z_i||^2 + r(x), with fast batched
    evaluation (closed quadratic form when the loss has exact curvature)."""

    def __init__(self, p: ProblemSpec, delta: float, Z):
        self.p = p
        self.delta = float(delta)
        if Z is None:
            self.z_bar, self.z_sq_mean = None, 0.0
        else:
            Z = np.asarray(Z, dtype=float)
            self.z_bar, self.z_sq_mean = Z.mean(axis=0), float((Z**2).sum(axis=1).mean())
        self._H = problems.curvature(p).H_bar
        if p.loss.exact:
            if p.stats is not None:
                self._h = p.stats.h.mean(axis=0)
                b_sq = p.stats.b_sq
            else:  # d > n: from A
                self._h = np.einsum("mnd,mn->d", p.A, p.b) / (p.n * p.m)
                b_sq = (p.b**2).sum(axis=1)
            self._c = float(b_sq.mean() / (2.0 * p.n))

    def values(self, X):
        """u at a (d,) point (a float), at every row of a (k, d) stack, or at
        every row of each slice of a (k, m, d) stack, a slice computed as on its own."""
        X = np.asarray(X, dtype=float)
        if self.p.loss.exact:  # a stacked matmul runs one X @ H per slice
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
        if self.p.loss.exact:
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


def centralized_solve(p: ProblemSpec, delta: float = 0.0, Z=None) -> Oracle:
    """Solve the (shifted) global problem to high accuracy.

    Quadratic losses with r = zero use a direct symmetric solve plus one round
    of iterative refinement; everything else runs :func:`problems.prox_gradient`
    on one row until the gradient-mapping norm drops below :data:`ORACLE_TOL`,
    and raises :class:`OracleNotConvergedError` after :data:`ORACLE_MAX_ITERS`
    iterations.
    """
    obj = ShiftedObjective(p, delta, Z)
    if p.loss.exact and p.reg.kind == "zero":
        K = obj._H + delta * np.eye(p.d)
        rhs = obj._h + (delta * obj.z_bar if delta != 0.0 else 0.0)
        x = np.linalg.solve(K, rhs)
        x = x + np.linalg.solve(K, rhs - K @ x)  # one refinement pass
        return Oracle(x, obj.values(x), obj)

    curv = problems.curvature(p)
    L = curv.H_bar_max + delta
    mu = (curv.H_bar_min if p.loss.exact else p.loss.ridge * p.lam) + delta
    if mu <= 0:
        raise ValueError("centralized solve requires a strongly convex problem")
    step = np.array([1.0 / L])
    X, converged, _ = problems.prox_gradient(
        p, lambda V: obj.grad(V[0])[None], np.zeros((1, p.d)), step, mu * step,
        ORACLE_TOL, ORACLE_MAX_ITERS,
    )
    if not converged:
        raise OracleNotConvergedError(
            f"no convergence to {ORACLE_TOL} in {ORACLE_MAX_ITERS} iterations"
        )
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
    """(c_x, c_y) weights of the consensus/tracking error in the inner
    potential; mode F's divide by beta_hat, so beta_hat = 0 raises
    :class:`problems.InputError`, and weights that overflow the float range
    raise :class:`problems.CurvatureOverflowError`."""
    mu, L, beta = constants.mu_hat, constants.L_hat, constants.beta_hat
    if mode == "F":
        if not beta > 0:
            raise problems.InputError(
                f"mode F's inner potential weighs its errors by 1 / beta_hat, and beta_hat = {beta}"
            )
        c, spread, scale = 8.0, L + 2 * beta - mu, beta
    elif mode == "L":
        c, spread, scale = 56.0, 2 * L + beta - mu, L
    else:
        raise ValueError("mode must be 'F' or 'L'")
    try:
        weights = c * spread**2 / scale, 0.5 * c / scale
    except OverflowError:  # a float's ** raises where * and / give inf
        weights = (np.inf,)
    if not np.all(np.isfinite(weights)):
        raise problems.CurvatureOverflowError(
            f"mode {mode}'s inner-potential error weights overflow the float range "
            f"(L_hat = {L:.3g}, beta_hat = {beta:.3g}); rescale the features"
        )
    return weights


def outer_potential(
    X_prev, X, alpha: float, mu: float, e_prev_final: float, oracle: Oracle, sub: float
) -> float:
    """Suboptimality ``sub`` = ``oracle.suboptimality(X)``, which the caller
    has evaluated, plus a momentum-corrected distance to the solution plus
    the carried-over inner error: decays linearly on compliant runs."""
    X = np.asarray(X, dtype=float)
    X_prev = np.asarray(X_prev, dtype=float)
    V = X_prev + (X - X_prev) / alpha
    dist = float(((V - oracle.x_star) ** 2).sum(axis=1).mean())
    return sub + 0.5 * mu * dist + e_prev_final


# ---------------------------------------------------------------------------
# Trajectory recording
# ---------------------------------------------------------------------------

CSV_SCHEMA_VERSION = 2


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
    """The rows of trajectory.csv.  The final inner potential and the outer
    potential after the extrapolation of outer iteration k are the
    ``g_plus_e`` and ``P_k`` of its last row."""

    rows: list = field(default_factory=list)

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


class TrajectoryBuilder(RunObserver):
    """Observer that assembles a Trajectory from an accelerated run.

    Each row evaluates the suboptimality and the consensus error of its X
    once: the row's gap is their max, as :func:`optimality_gap` takes it, and
    its ``consensus_err`` column is the latter.  The outer potential at the
    start and after every extrapolation is the ``P_k`` of the row at the
    same X (row 0, or the outer iteration's last inner step, since T >= 1)
    and reads that row's suboptimality.  Given ``constants`` (not None) it
    also records the potentials: it re-solves the shifted problem at every
    outer iteration, and an inner step's row adds the shifted suboptimality
    g to e, its consensus and tracking errors weighted by
    :func:`error_weights`, which it computes once, when it is built.
    """

    def __init__(
        self, p: ProblemSpec, oracle: Oracle, params: AccelParams, constants: Constants | None
    ):
        self.p = p
        self.oracle = oracle
        self.params = params
        self._weights = None if constants is None else error_weights(constants, params.mode)
        self.traj = Trajectory()
        self._oracle_k: Oracle | None = None
        self._e_final = 0.0  # the last inner step's weighted errors
        self._sub = 0.0  # the last row's suboptimality

    def _row(self, k, t, comms, X, Y):
        self._sub = self.oracle.suboptimality(X)
        cons, track = consensus_error(X), consensus_error(Y)
        gap = float(np.maximum(self._sub, cons))  # NaN in either arm is NaN
        g_plus_e = None
        if self._oracle_k is not None:  # an inner step of a run with potentials
            c_x, c_y = self._weights
            self._e_final = c_x * cons + c_y * track
            g_plus_e = self._oracle_k.suboptimality(X) + self._e_final
        self.traj.rows.append(TrajRow(k, t, comms, gap, cons, track, g_plus_e))

    def _outer_potential(self, X_prev, X, e_prev_final):
        """P_k of the last row, which is at X."""
        self.traj.rows[-1].P_k = outer_potential(
            X_prev, X, self.params.alpha, self.params.mu, e_prev_final, self.oracle, self._sub
        )

    def on_init(self, X, Y):
        self._row(0, 0, 0, X, Y)
        self._outer_potential(X, X, 0.0)

    def on_outer_start(self, X, Y_warm, Z):
        if self._weights is not None:
            self._oracle_k = centralized_solve(self.p, delta=self.params.delta, Z=Z)

    def on_inner_step(self, k, t, comms, X, Y):
        self._row(k, t, comms, X, Y)

    def on_outer_end(self, X, X_prev):
        self._outer_potential(X_prev, X, self._e_final)


class CommsToAccuracy(RunObserver):
    """Observer that records, of a run's gaps, only the first cumulative
    communication count at which the gap is <= eps (``comms``, None until
    then), and the gap at the latest outer iterate (``gap``, what the run's
    stop test reads).

    It holds the inner iterates of one outer iteration and evaluates their
    gaps at its end in one stacked :func:`optimality_gap` call.  A gap that
    is not finite stops the run in :func:`accel.acc_sonata_run`, not here.
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
        if self.comms is None:
            hit = np.flatnonzero(gaps <= self.eps)
            if hit.size:
                self.comms = comms[hit[0]]
        self.gap = float(gaps[-1])

    def on_init(self, X, Y):
        self._record(optimality_gap(self.p, X[None], self.oracle), [0])

    def on_inner_step(self, k, t, comms, X, Y):
        self._X.append(X)
        self._comms.append(comms)

    def on_outer_end(self, X, X_prev):
        self._record(optimality_gap(self.p, np.stack(self._X), self.oracle), self._comms)
        self._X, self._comms = [], []


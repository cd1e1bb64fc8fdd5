"""Outer loop: inexact accelerated proximal point over the network.

Every outer iteration k shifts each local loss by a proximal term centered at
the agent's extrapolation variable z_i, runs the inner tracking loop for T
iterations warm-started from the previous iterate, and then extrapolates

    z_i <- x_i+ + (1 - alpha) / (1 + alpha) * (x_i+ - x_i).

The tracking variable is restarted as y + delta * (z_prev - z), which keeps
the average-tracking identity valid across the change of objective: the
previous loop tracked gradients shifted toward z_prev, the new one must track
gradients shifted toward z, and the two differ by exactly delta * (z_prev - z)
on average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import problems, sonata
from .problems import Constants, ProblemSpec
from .sonata import Surrogate


class DegenerateSimilarityError(ValueError):
    """Mode F tuning needs beta_hat > mu_hat; use delta = 0 (plain inner loop)."""


class PerfectlyConditionedError(ValueError):
    """Mode L tuning needs kappa_hat > 1."""


@dataclass(frozen=True)
class AccelParams:
    """Tuning bundle: proximal coefficient, momentum root, inner length."""

    mode: str  # "F" | "L"
    delta: float
    alpha: float
    T: int
    mu: float
    surrogate: Surrogate
    c_seq: float = 0.5
    K_max: int = 200

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if abs(self.alpha**2 * (self.mu + self.delta) - self.mu) > 1e-12 * max(
            1.0, self.mu
        ):
            raise ValueError("alpha must equal sqrt(mu / (mu + delta))")
        if self.T < 1 or self.delta < 0:
            raise ValueError("need T >= 1 and delta >= 0")
        if not 0 < self.c_seq < 1:
            raise ValueError("c_seq must be in (0, 1)")

    @property
    def extrapolation_coef(self) -> float:
        return (1.0 - self.alpha) / (1.0 + self.alpha)


def tune(
    constants: Constants,
    mode: str,
    c_seq: float = 0.5,
    mu_override: float | None = None,
    tuning_variant: str = "main",
    K_max: int = 200,
) -> AccelParams:
    """Theory-driven tuning: delta and T from the estimated constants.

    Mode F sets delta = beta - mu with T = ceil(log(beta/mu)); mode L sets
    delta = L - mu with T = ceil(log(kappa)).  ``tuning_variant="alt"`` swaps
    in the alternative pairing T_F = ceil(1.4 log(L/mu)), T_L =
    ceil(log(beta/mu)).
    """
    if mode not in ("F", "L"):
        raise ValueError("mode must be 'F' or 'L'")
    if tuning_variant not in ("main", "alt"):
        raise ValueError("tuning_variant must be 'main' or 'alt'")
    mu = float(mu_override) if mu_override is not None else constants.mu_hat
    beta, L = constants.beta_hat, constants.L_hat
    if mode == "F":
        if beta <= mu:
            raise DegenerateSimilarityError(
                f"beta_hat={beta} <= mu_hat={mu}: run the plain inner loop instead"
            )
        delta = beta - mu
        T = math.ceil(math.log(beta / mu)) if tuning_variant == "main" else math.ceil(
            1.4 * math.log(L / mu)
        )
        surrogate = Surrogate("F", beta)
    else:
        if L <= mu:
            raise PerfectlyConditionedError(f"kappa_hat={L / mu} <= 1: nothing to accelerate")
        delta = L - mu
        T = math.ceil(math.log(L / mu)) if tuning_variant == "main" else math.ceil(
            math.log(beta / mu)
        )
        surrogate = Surrogate("L", L + delta)
    alpha = math.sqrt(mu / (mu + delta))
    return AccelParams(
        mode=mode,
        delta=delta,
        alpha=alpha,
        T=max(1, T),
        mu=mu,
        surrogate=surrogate,
        c_seq=c_seq,
        K_max=K_max,
    )


def plain_params(
    constants: Constants, mode: str, T: int | None = None, K_max: int = 200
) -> AccelParams:
    """delta = 0 variant: the outer loop degenerates to the plain inner method.

    T only sets the spacing of gap evaluations here; its default mirrors the
    accelerated tuning but tolerates degenerate constants (beta <= mu, or
    kappa ~ 1), where the accelerated variants refuse to run.
    """
    mu = constants.mu_hat
    if T is None:
        ratio = constants.beta_hat / mu if mode == "F" else constants.kappa_hat
        T = max(1, math.ceil(math.log(max(ratio, 1.0))))
    if mode == "F":
        weight = constants.beta_hat if constants.beta_hat > 0 else mu
        surrogate = Surrogate("F", weight)
    else:
        surrogate = Surrogate("L", constants.L_hat)
    return AccelParams(
        mode=mode,
        delta=0.0,
        alpha=1.0,
        T=T,
        mu=mu,
        surrogate=surrogate,
        K_max=K_max,
    )


def with_overrides(params: AccelParams, **kwargs) -> AccelParams:
    """Replace tuning fields, re-deriving what depends on them: alpha when
    delta or mu change, and the mode-L surrogate weight L + delta when delta
    changes."""
    mu = kwargs.get("mu", params.mu)
    delta = kwargs.get("delta", params.delta)
    if "delta" in kwargs or "mu" in kwargs:
        kwargs["alpha"] = math.sqrt(mu / (mu + delta))
    if "delta" in kwargs and params.surrogate.kind == "L":
        weight = params.surrogate.weight - params.delta + delta
        kwargs["surrogate"] = Surrogate("L", weight)
    return replace(params, **kwargs)


class RunObserver:
    """No-op observer; diagnostics subclass the events they need."""

    def on_init(self, comms, X, Y, Z):
        pass

    def on_outer_start(self, k, comms, X, Y_warm, Z, Z_prev):
        pass

    def on_inner_step(self, k, t, comms, X, Y):
        pass

    def on_outer_end(self, k, comms, X, X_prev, Y, Z, Z_prev):
        pass


@dataclass
class AccelResult:
    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    K_done: int
    comms: int
    converged: bool
    gaps: list = field(default_factory=list)  # one entry per completed outer iteration
    subproblem_converged: list = field(default_factory=list)


def acc_sonata_run(
    p: ProblemSpec,
    params: AccelParams,
    W,
    K_max: int | None = None,
    *,
    observer: RunObserver | None = None,
    gap_fn=None,
    target_gap: float | None = None,
    X0=None,
    Y0=None,
    subproblem_tol: float = 1e-10,
    max_inner_iters: int = 5000,
    count_half_duplex: bool = False,
    check_tracking: bool = True,
) -> AccelResult:
    """Run up to K_max outer iterations; stop early once gap_fn(X) <= target_gap.

    Y0 defaults to each agent's own local gradient at the start point.  On a
    star-equivalent (exact averaging) network the caller may override it with
    the averaged gradient, which the hub can compute in one round.
    """
    K = K_max if K_max is not None else params.K_max
    observer = observer or RunObserver()
    delta, alpha, T = params.delta, params.alpha, params.T

    X = np.zeros((p.m, p.d)) if X0 is None else np.array(X0, dtype=float)
    Z = X.copy()
    Z_prev = X.copy()
    Y = problems.batch_grads(p, X) if Y0 is None else np.array(Y0, dtype=float)

    _, rounds = sonata._as_mixer(W)
    comm_cost = 2 * rounds if count_half_duplex else rounds
    solver = sonata.LocalSolver(p, params.surrogate, delta)

    comms = 0
    observer.on_init(comms, X, Y, Z)
    result = AccelResult(X, Y, Z, 0, comms, False)

    for k in range(K):
        Y_warm = Y + delta * (Z_prev - Z)
        observer.on_outer_start(k, comms, X, Y_warm, Z, Z_prev)
        if check_tracking:
            G_shift = sonata.shifted_grads(p, X, delta, Z)
            drift = np.linalg.norm(Y_warm.mean(axis=0) - G_shift.mean(axis=0))
            scale = 1.0 + np.linalg.norm(G_shift.mean(axis=0))
            if not drift <= 1e-8 * scale:  # also catches a NaN drift
                raise AssertionError(
                    f"tracking identity violated at outer {k}: drift {drift}"
                )

        inner = sonata.sonata_run(
            p,
            X,
            Y_warm,
            T,
            W,
            params.surrogate,
            delta=delta,
            Z=Z,
            solver=solver,
            subproblem_tol=subproblem_tol,
            max_inner_iters=max_inner_iters,
            comms_start=comms,
            comm_cost=comm_cost,
            on_step=lambda t, c, Xs, Ys, _k=k: observer.on_inner_step(_k, t, c, Xs, Ys),
        )
        X_prev, X, Y, comms = X, inner.X, inner.Y, inner.comms
        result.subproblem_converged.append(all(inner.subproblem_converged))

        Z_prev, Z = Z, X + params.extrapolation_coef * (X - X_prev)
        observer.on_outer_end(k, comms, X, X_prev, Y, Z, Z_prev)

        result.K_done = k + 1
        if gap_fn is not None:
            gap = float(gap_fn(X))
            result.gaps.append(gap)
            if target_gap is not None and gap <= target_gap:
                result.converged = True
                break

    result.X, result.Y, result.Z, result.comms = X, Y, Z, comms
    return result

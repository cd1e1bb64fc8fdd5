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

The proximal coefficient delta fixes the momentum root
alpha = sqrt(mu / (mu + delta)) and, in mode L, the model constant L + delta.
:class:`AccelParams` stores neither: both are derived from delta on access, so
``dataclasses.replace(params, delta=...)`` is consistent by construction.
It also owns the run length K_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import problems, sonata
from .problems import Constants, DivergenceError, InputError, ProblemSpec


class DegenerateSimilarityError(InputError):
    """Mode F tuning needs beta_hat > mu_hat; use delta = 0 (plain inner loop)."""


class PerfectlyConditionedError(InputError):
    """Mode L tuning needs kappa_hat > 1."""


@dataclass(frozen=True)
class AccelParams:
    """Run settings: mode, proximal coefficient, inner length, strong
    convexity, the surrogate constant before the proximal shift (the
    similarity-sized prox weight in mode F, the smoothness L in mode L) and
    run length."""

    mode: str  # "F" | "L"
    delta: float
    T: int
    mu: float
    weight: float
    K_max: int = 200

    def __post_init__(self):
        if self.mode not in ("F", "L"):
            raise ValueError("mode must be 'F' or 'L'")
        problems.check_int("T", self.T, 1)
        problems.check_int("K_max", self.K_max, 0)
        if not self.delta >= 0:
            raise ValueError(f"need delta >= 0, got {self.delta!r}")
        if not (self.mu > 0 and self.weight > 0):
            raise ValueError("need mu > 0 and weight > 0")

    @property
    def alpha(self) -> float:
        return math.sqrt(self.mu / (self.mu + self.delta))

    @property
    def surrogate_weight(self) -> float:
        """Mode L models the shifted loss, whose smoothness is L + delta."""
        return self.weight + self.delta if self.mode == "L" else self.weight

    @property
    def extrapolation_coef(self) -> float:
        return (1.0 - self.alpha) / (1.0 + self.alpha)

    def local_solver(self, p: ProblemSpec) -> sonata.LocalSolver:
        """The local step of every inner iteration of a run on p; its accuracy
        is :data:`sonata.SUBPROBLEM_TOL`, :data:`sonata.MAX_INNER_ITERS` and
        :data:`sonata.FORCING`, which the solver reads when it is built."""
        return sonata.LocalSolver(p, self.mode, self.surrogate_weight, self.delta)


def tune(
    constants: Constants,
    mode: str,
    *,
    delta: float | None = None,
    T: int | None = None,
    K_max: int = AccelParams.K_max,
) -> AccelParams:
    """Theory-driven tuning from the estimated constants; a given delta or T
    replaces the tuned value, and the run length passes through to
    :class:`AccelParams`.

    Mode F tunes delta = beta - mu with T = ceil(log(beta/mu)); mode L tunes
    delta = L - mu with T = ceil(log(kappa)); T is at least 1.  Any other
    inner length is a given T.  Only a tuned delta needs the mode's premise
    (beta > mu for F, kappa > 1 for L), so ``delta=0.0``, the plain inner
    method, runs on any instance.  :class:`AccelParams` checks the mode.
    """
    mu, beta, L = constants.mu_hat, constants.beta_hat, constants.L_hat
    if delta is None:
        if mode == "F" and beta <= mu:
            raise DegenerateSimilarityError(
                f"beta_hat={beta} <= mu_hat={mu}: nothing to accelerate; run the "
                "plain inner loop (--plain or algorithm.delta: 0)"
            )
        if mode == "L" and L <= mu:
            raise PerfectlyConditionedError(f"kappa_hat={L / mu} <= 1: nothing to accelerate")
        delta = (beta if mode == "F" else L) - mu
    if T is None:
        top = beta if mode == "F" else L
        T = max(1, math.ceil(math.log(max(top / mu, 1.0))))
    weight = (beta if beta > 0 else mu) if mode == "F" else L
    return AccelParams(mode, float(delta), T, mu, weight, K_max)


class RunObserver:
    """No-op observer; diagnostics subclass the events they need.

    Each event receives what some observer reads:

    - ``on_init(X, Y)``: the start point and its tracking variable, where
      the communication count is 0;
    - ``on_outer_start(X, Y_warm, Z)``: the warm start of an outer
      iteration and the extrapolation point its shifted problem is centered at;
    - ``on_inner_step(k, t, comms, X, Y)``: step t of outer iteration k and
      the cumulative communication count after it;
    - ``on_outer_end(X, X_prev)``: the outer iterate and the one before it.
    """

    def on_init(self, X, Y):
        pass

    def on_outer_start(self, X, Y_warm, Z):
        pass

    def on_inner_step(self, k, t, comms, X, Y):
        pass

    def on_outer_end(self, X, X_prev):
        pass


@dataclass
class AccelResult:
    K_done: int
    comms: int
    converged: bool
    gaps: list = field(default_factory=list)  # one entry per completed outer iteration
    subproblem_converged: list = field(default_factory=list)


def acc_sonata_run(
    p: ProblemSpec,
    params: AccelParams,
    W,
    *,
    observer: RunObserver | None = None,
    gap_fn=None,
    target_gap: float | None = None,
) -> AccelResult:
    """Run up to params.K_max outer iterations from X = 0, every local step
    by one :meth:`AccelParams.local_solver`; stop early once gap_fn(X) <= target_gap
    (a target_gap without a gap_fn raises ``ValueError``).  A gap that is not
    finite raises :class:`DivergenceError` at once, naming outer k as the
    tracking check does: k outer iterations done.

    W is a :class:`~sonatasim.network.GossipMatrix` or a
    :class:`~sonatasim.network.ChebyshevGossip` built on one; every inner
    iteration costs its ``rounds_per_application`` communication rounds.
    Each agent's tracking variable starts at its own local gradient at the
    start point.

    The local gradients at each outer boundary are evaluated once: those
    that seed Y at the start, then those of each inner loop's last gossip
    round, the final loop's included, whether the run stops at K_max or on
    its target.  Shifted toward the new centers, they check the tracking
    identity (a violated or non-finite drift raises) and, with the
    unshifted ones, seed the next inner loop and its first local step.

    Each (m, d) array has one live name, dropped after its last read: the
    warm restart replaces the tracker, the previous centers go once the
    restart has read them and the previous outer iterate once the
    extrapolation and ``on_outer_end`` have, and every inner loop advances
    one :class:`~sonatasim.sonata.SonataState` in place.  While an inner
    loop runs, this loop holds only the centers Z and the outer iterate the
    extrapolation will read, so a gossip round's working set is those two
    and :func:`~sonatasim.sonata.sonata_run`'s: at most 9 + min(M, 3)
    stacks for a mix of M products.
    """
    if target_gap is not None and gap_fn is None:
        raise ValueError("target_gap needs a gap_fn to stop on")
    observer = observer or RunObserver()
    delta = params.delta

    X = np.zeros((p.m, p.d))
    Z = X.copy()
    Z_prev = X.copy()
    grads = problems.batch_grads(p, X)
    # each agent's tracker starts at its own gradient; G is set at each boundary
    state = sonata.SonataState(X, grads, grads, grads, 0)
    del grads  # the first gossip round replaces them

    solver = params.local_solver(p)

    observer.on_init(X, state.Y)
    result = AccelResult(0, 0, False)

    # a diverging run's arithmetic overflows; the NaN-aware checks below stop it
    with np.errstate(over="ignore", invalid="ignore"):
        # boundary k checks the state that outer k - 1 left, the last one's too
        for k in range(params.K_max + 1):
            state.Y = state.Y + delta * (Z_prev - Z)
            del Z_prev
            state.G = sonata.shifted_grads(X, delta, Z, state.grads)
            G_bar = state.G.mean(axis=0)
            # math.hypot scales its arguments, so a norm overflows only past the
            # largest float; a NaN or an inf fails
            drift = math.hypot(*(state.Y.mean(axis=0) - G_bar).tolist())
            bound = 1e-8 * (1.0 + math.hypot(*G_bar.tolist()))
            if not drift <= bound < math.inf:
                raise DivergenceError(f"tracking identity violated at outer {k}: drift {drift}")
            if k == params.K_max or result.converged:
                break
            observer.on_outer_start(X, state.Y, Z)

            sonata.sonata_run(
                p,
                state,
                params.T,
                W,
                solver,
                Z=Z,
                on_step=lambda t, c, Xs, Ys, _k=k: observer.on_inner_step(_k, t, c, Xs, Ys),
            )
            X_prev, X, result.comms = X, state.X, state.comms
            result.subproblem_converged.append(all(state.subproblem_converged))

            Z_prev, Z = Z, X + params.extrapolation_coef * (X - X_prev)
            observer.on_outer_end(X, X_prev)
            del X_prev

            result.K_done = k + 1
            if gap_fn is not None:
                gap = float(gap_fn(X))
                if not math.isfinite(gap):  # outer k + 1: the boundary that would check X
                    raise DivergenceError(f"non-finite optimality gap at outer {k + 1}: {gap}")
                result.gaps.append(gap)
                result.converged = target_gap is not None and gap <= target_gap

    return result

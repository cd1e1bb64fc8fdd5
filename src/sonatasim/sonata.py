"""Inner loop: one local surrogate step for every agent followed by one
combined consensus + gradient-tracking exchange.

Each agent i keeps an optimization copy x_i and a tracking variable y_i that
estimates the global gradient.  One iteration is

  local:  x_i+ = argmin_x  ftilde_i(x; x_i) + <y_i - grad_i(x_i), x - x_i> + r(x)
  gossip: x_i  = sum_j w_ij x_j+ ;  y_i = sum_j w_ij (y_j + grad_j(x_j_new) - grad_j(x_j_old))

where grad_i is the gradient of the (possibly proximally shifted) local loss
f_i(x) + delta/2 ||x - z_i||^2.  Both exchanges ride the same gossip round, so
one iteration costs W.rounds_per_application communication rounds.

Two surrogates are supported: the full local function plus a similarity-sized
proximal term ("F"), and plain linearization with an L-sized proximal term
("L", which collapses to one proximal-gradient step).  One
:class:`LocalSolver`, built once per run, takes the local step of all m
agents at once: a closed form, one proximal step, or proximal gradient on the
whole stack.  The subproblems only read previous-round state, so results are
identical to any parallel schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import problems
from .problems import ProblemSpec, prox_r


@dataclass(frozen=True)
class Surrogate:
    """Local model choice: kind "F" with prox weight beta, or "L" with model
    constant l_surr (smoothness of the shifted loss)."""

    kind: str  # "F" | "L"
    weight: float

    def __post_init__(self):
        if self.kind not in ("F", "L"):
            raise ValueError("surrogate kind must be 'F' or 'L'")
        if self.weight <= 0:
            raise ValueError("surrogate weight must be > 0")


@dataclass
class SonataResult:
    X: np.ndarray
    Y: np.ndarray
    comms: int
    subproblem_converged: list = field(default_factory=list)  # one flag per iteration


def _as_mixer(W) -> tuple[np.ndarray, int]:
    """Accept a GossipMatrix or a raw doubly stochastic ndarray (tests only)."""
    if hasattr(W, "W"):
        return W.W, W.rounds_per_application
    return np.asarray(W, dtype=float), 1


def shifted_grads(p: ProblemSpec, X: np.ndarray, delta: float, Z) -> np.ndarray:
    """Gradients of f_i(x) + delta/2 ||x - z_i||^2 at each agent's own point."""
    G = problems.batch_grads(p, X)
    if delta != 0.0:
        G = G + delta * (X - Z)
    return G


def _prox_gradient_subproblem(p, X, Y, G, Z, beta, delta, steps, tol, max_iters):
    """Iterative mode-F local step of all agents at once.

    Agent i minimizes f_i(v) + delta/2||v-z_i||^2 + beta/2||v-x_i||^2
    + <y_i - g_i, v> + r(v) by proximal gradient with its own step steps[i].
    Its row freezes once its gradient mapping drops to tol, so every row and
    its iteration count match a loop over agents.  Returns (X_half, whether
    all agents converged, the largest iteration count).
    """
    step = steps[:, None]
    lin = Y - G
    V = X.copy()
    active = np.ones(p.m, dtype=bool)
    for it in range(max_iters):
        problems._check_point(V, p.m, p.d)
        grad = problems.batch_grads(p, V) + beta * (V - X) + lin
        if delta != 0.0:
            grad = grad + delta * (V - Z)
        V_next = prox_r(p, V - step * grad, step)
        move = np.linalg.norm(V_next - V, axis=1) / steps
        V[active] = V_next[active]
        active &= ~(move <= tol)
        if not active.any():
            return V, True, it + 1
    return V, False, max_iters


class LocalSolver:
    """The local step of all m agents for one surrogate and proximal shift.

    Mode L is one proximal-gradient step on the whole stack.  Mode F on an
    exact-curvature loss with r = zero is the closed form
    x_i - (H_i + (delta+beta) I)^-1 y_i: the proximal centers and the
    gradient cache cancel out of the optimality condition.  Every other mode-F
    case runs :func:`_prox_gradient_subproblem`.  Build it once per run; the
    closed form factors its (constant) system matrices here.
    """

    def __init__(self, p: ProblemSpec, surrogate: Surrogate, delta: float = 0.0):
        self.p = p
        self.surrogate = surrogate
        self.delta = delta
        self.K_inv = self.steps = None
        if surrogate.kind == "L":
            return
        if p.loss.exact and p.reg.kind == "zero":
            K = problems.hessian_bounds(p)
            K += (delta + surrogate.weight) * np.eye(p.d)
            self.K_inv = np.linalg.inv(K)
        else:
            self.steps = 1.0 / (problems.curvature(p).lmax + delta + surrogate.weight)

    def solve(self, X, Y, G, Z=None, tol: float = 1e-10, max_iters: int = 5000):
        """Local step from (m, d) stacks of points X, trackers Y, shifted local
        gradients G and proximal centers Z (default X); returns
        (X_half, converged, inner_iters)."""
        if self.surrogate.kind == "L":
            step = 1.0 / self.surrogate.weight
            return prox_r(self.p, X - step * Y, step), True, 0
        if self.K_inv is not None:
            return X - np.einsum("mab,mb->ma", self.K_inv, Y), True, 0
        Z = X if Z is None else Z
        beta = self.surrogate.weight
        return _prox_gradient_subproblem(
            self.p, X, Y, G, Z, beta, self.delta, self.steps, tol, max_iters
        )


def gossip_round(X_half, Y, G, W, p: ProblemSpec, delta: float = 0.0, Z=None):
    """Communication step: mix the x's, refresh gradients at the mixed points, mix the
    tracking variables with the fresh gradient differences folded in."""
    W_mat, _ = _as_mixer(W)
    X_new = W_mat @ X_half
    G_new = shifted_grads(p, X_new, delta, Z)
    # associate as y + (difference): the correction is small near convergence
    Y_new = W_mat @ (Y + (G_new - G))
    return X_new, Y_new, G_new


def sonata_run(
    p: ProblemSpec,
    X0,
    Y0,
    T: int,
    W,
    surrogate: Surrogate,
    *,
    delta: float = 0.0,
    Z=None,
    G0=None,
    solver=None,
    subproblem_tol: float = 1e-10,
    max_inner_iters: int = 5000,
    comms_start: int = 0,
    comm_cost: int | None = None,
    on_step=None,
) -> SonataResult:
    """Run T iterations (local step + communication step) from (X0, Y0).

    Y0 is supplied by the caller: a cold start uses the shifted local
    gradients at X0, the accelerated outer loop supplies its warm restart.
    ``on_step(t, comms, X, Y)`` fires after every completed iteration.
    """
    X = np.array(X0, dtype=float)
    Y = np.array(Y0, dtype=float)
    if X.shape != (p.m, p.d) or Y.shape != X.shape:
        raise ValueError("X0 and Y0 must be (m, d)")
    G = np.array(G0, dtype=float) if G0 is not None else shifted_grads(p, X, delta, Z)
    _, rounds = _as_mixer(W)
    cost = comm_cost if comm_cost is not None else rounds

    comms = comms_start
    result = SonataResult(X, Y, comms)
    if solver is None:
        solver = LocalSolver(p, surrogate, delta)

    for t in range(1, T + 1):
        X_half, converged, _ = solver.solve(
            X, Y, G, Z, subproblem_tol, max_inner_iters
        )
        X, Y, G = gossip_round(X_half, Y, G, W, p, delta, Z)
        comms += cost
        result.subproblem_converged.append(converged)
        if on_step is not None:
            on_step(t, comms, X, Y)

    result.X, result.Y, result.comms = X, Y, comms
    return result


def tracking_gap(p: ProblemSpec, X, Y, delta: float = 0.0, Z=None) -> float:
    """Norm of avg(y_i) - avg(shifted grad_i(x_i)); zero under exact tracking."""
    G = shifted_grads(p, np.asarray(X, dtype=float), delta, Z)
    return float(np.linalg.norm(Y.mean(axis=0) - G.mean(axis=0)))

"""Inner loop: one local surrogate step for every agent followed by one
combined consensus + gradient-tracking exchange.

Each agent i keeps an optimization copy x_i and a tracking variable y_i that
estimates the global gradient.  One iteration is

  local:  x_i+ = argmin_x  ftilde_i(x; x_i) + <y_i - grad_i(x_i), x - x_i> + r(x)
  gossip: x_i  = sum_j w_ij x_j+ ;  y_i = sum_j w_ij (y_j + grad_j(x_j_new) - grad_j(x_j_old))

where grad_i is the gradient of the (possibly proximally shifted) local loss
f_i(x) + delta/2 ||x - z_i||^2.  Both exchanges are one ``W.mix`` each and ride
the same gossip round, so one iteration costs W.rounds_per_application
communication rounds.

Two surrogates are supported: the full local function plus a similarity-sized
proximal term ("F"), and plain linearization with an L-sized proximal term
("L", which collapses to one proximal-gradient step).  One
:class:`LocalSolver`, built once per run, defines the local step whole
(surrogate, shift delta, accuracy) and takes it for all m agents at once: a
closed form, one proximal step, or accelerated proximal gradient on the whole
stack.  The subproblems only read previous-round state, so results are
identical to any parallel schedule.  The solver checks its proximal steps
once, when it is built, and a round writes only into arrays it creates: the
local step applies the proximal map over the point it has just formed, and
the gradients and the mixed tracker are assembled in place in their own new
arrays, so no function changes an array it was given.

The iterative local step is inexact by design: it stops agent i at
max(SUBPROBLEM_TOL, FORCING * r0_i), where r0_i is the gradient mapping of
its subproblem at the warm start x_i, or after MAX_INNER_ITERS iterations.
r0_i shrinks with the outer error, so the local accuracy tightens
geometrically as the run converges, as in inexact Newton methods' forcing
terms and Catalyst's relative stopping test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import problems
from .problems import ProblemSpec

# forcing term, tolerance floor and iteration cap of the iterative local step
# (see the module docstring)
FORCING = 1e-2
SUBPROBLEM_TOL = 1e-10
MAX_INNER_ITERS = 5000


@dataclass
class SonataState:
    """What the inner loop carries from one iteration to the next: the
    iterates X, the trackers Y, the shifted local gradients G at X, the
    unshifted ``grads = problems.batch_grads(p, X)`` they came from and the
    cumulative communication count.  :func:`sonata_run` advances it in place
    and sets ``subproblem_converged`` to one flag per iteration it ran."""

    X: np.ndarray
    Y: np.ndarray
    G: np.ndarray
    grads: np.ndarray
    comms: int
    subproblem_converged: list = field(init=False, default_factory=list)


def shifted_grads(X: np.ndarray, delta: float, Z, grads) -> np.ndarray:
    """Gradients of f_i(x) + delta/2 ||x - z_i||^2 at each agent's own point,
    from its unshifted ``grads = problems.batch_grads(p, X)``."""
    if delta != 0.0:
        S = X - Z
        S *= delta
        S += grads
        return S
    return grads


def _prox_gradient_subproblem(p, X, Y, G, Z, beta, delta, steps, tol, max_iters, grads):
    """Iterative mode-F local step of all agents at once.

    Agent i minimizes f_i(v) + delta/2||v-z_i||^2 + beta/2||v-x_i||^2
    + <y_i - g_i, v> + r(v), which is (ridge*lam + beta + delta)-strongly
    convex, by :func:`problems.prox_gradient` from x_i with step steps[i] to
    tolerance tol, a scalar or one entry per agent.  The routine's first
    gradient is taken at its start X, where it reads ``grads``, the unshifted
    ``problems.batch_grads(p, X)``.  Returns (X_half, whether all agents
    converged, the largest iteration count).
    """
    lin = Y - G
    carried = [grads]

    def grad(V):
        F = carried.pop() if carried else problems.batch_grads(p, V)
        return F + beta * (V - X) + lin + delta * (V - Z)

    q = (p.loss.ridge * p.lam + beta + delta) * steps
    return problems.prox_gradient(p, grad, X, steps, q, tol, max_iters)


class LocalSolver:
    """The local step of all m agents for one surrogate and proximal shift.
    The surrogate is ``mode`` "F" with prox weight beta = ``weight``, or "L"
    with model constant ``weight``, the smoothness of the shifted loss (see
    :attr:`~sonatasim.accel.AccelParams.surrogate_weight`).  An iterative
    step stops agent i at max(SUBPROBLEM_TOL, FORCING * r0_i), r0_i the
    gradient mapping of its subproblem at the warm start x_i, or after
    MAX_INNER_ITERS iterations; the three constants are read, and the
    proximal steps checked (:func:`problems.check_step`), when the solver is
    built.

    Mode L is one proximal-gradient step on the whole stack.  Mode F on an
    exact-curvature loss with r = zero is the closed form
    x_i - (H_i + (delta+beta) I)^-1 y_i: the proximal centers and the
    gradient cache cancel out of the optimality condition.  Every other mode-F
    case runs :func:`_prox_gradient_subproblem`, accelerated proximal gradient
    on the whole stack.  Build it once per run; the closed form factors its
    (constant) system matrices here, from :func:`problems.hessian_bounds`
    (the statistics ``p.stats`` when d <= n).
    """

    def __init__(self, p: ProblemSpec, mode: str, weight: float, delta: float):
        self.p = p
        self.mode = mode
        self.weight = weight
        self.delta = delta
        self.tol = SUBPROBLEM_TOL
        self.max_iters = MAX_INNER_ITERS
        self.forcing = FORCING
        self.K_inv = self.steps = None
        if mode == "F" and p.loss.exact and p.reg.kind == "zero":
            K = problems.hessian_bounds(p)
            K += (delta + weight) * np.eye(p.d)
            self.K_inv = np.linalg.inv(K)
        else:  # mode L takes one step of 1/weight, mode F one per agent
            self.steps = (
                1.0 / weight if mode == "L" else 1.0 / (problems.curvature(p).lmax + delta + weight)
            )
            problems.check_step(self.steps)

    def solve(self, X, Y, G, Z, grads):
        """Local step from (m, d) stacks of points X, trackers Y, shifted local
        gradients G and proximal centers Z; returns (X_half, converged,
        inner_iters).  ``grads`` is the unshifted ``problems.batch_grads(p, X)``:
        the iterative step's first iterate is X, so it reads them rather than
        evaluating the gradients at X again."""
        if self.mode == "L":
            return problems._prox_into(self.p, X - self.steps * Y, self.steps), True, 0
        if self.K_inv is not None:
            V = np.einsum("mab,mb->ma", self.K_inv, Y)
            return np.subtract(X, V, out=V), True, 0
        # at v = x_i the subproblem's gradient is y_i: the linear term
        # y_i - g_i cancels the shifted local gradient g_i
        step = self.steps[:, None]
        V = problems._prox_into(self.p, X - step * Y, step)
        V -= X
        r0 = np.linalg.norm(V, axis=1) / self.steps
        tol = np.maximum(self.tol, self.forcing * r0)
        return _prox_gradient_subproblem(
            self.p, X, Y, G, Z, self.weight, self.delta, self.steps, tol, self.max_iters, grads
        )


def gossip_round(X_half, Y, G, W, p: ProblemSpec, delta: float, Z):
    """Communication step: mix the x's, refresh gradients at the mixed points, mix the
    tracking variables with the fresh gradient differences folded in; the
    gradients are shifted by delta toward the centers Z (:func:`shifted_grads`).
    Returns (X, Y, shifted gradients, unshifted gradients) at the mixed points."""
    X_new = W.mix(X_half)
    grads = problems.batch_grads(p, X_new)
    G_new = shifted_grads(X_new, delta, Z, grads)
    # associate as y + (difference): the correction is small near convergence
    D = G_new - G
    D += Y
    Y_new = W.mix(D)
    return X_new, Y_new, G_new, grads


def sonata_run(
    p: ProblemSpec, state: SonataState, T: int, W, solver: LocalSolver, *, Z, on_step
) -> SonataState:
    """Advance ``state`` by T iterations (local step + communication step) in
    place and return it; each iteration costs ``W.rounds_per_application``
    communication rounds.  The local step and the gradients' proximal shift
    delta toward the centers Z are ``solver``'s.

    The state's tracker is supplied by the caller: a cold start uses the
    shifted local gradients at its X, the accelerated outer loop its warm
    restart.  Each iterate's unshifted local gradients are evaluated once,
    at the start or in the gossip round that mixed it, and serve both its
    shifted gradients and the first iterate of its local step.
    ``on_step(t, comms, X, Y)`` fires after every completed iteration.  The
    advanced state carries the unshifted local gradients at its X, for a
    caller that shifts them toward new proximal centers.

    Each (m, d) array is dropped after its last read: the iterate and its
    unshifted gradients once the local step has read them, the local step's
    output once the gossip round has mixed it.  A gossip round's peak is in
    its tracker mix, which holds the state's trackers and shifted gradients,
    the local step's output, the mixed iterate, its unshifted and shifted
    gradients, the tracker update and min(M, 3) products of a mix of M
    products (:class:`~sonatasim.network.ChebyshevGossip` keeps the last
    three of its recurrence): 7 + min(M, 3) (m, d) stacks beside Z and what
    the caller holds by other names.
    """
    if state.X.shape != (p.m, p.d) or state.Y.shape != state.X.shape:
        raise ValueError("the state's X and Y must be (m, d)")
    state.subproblem_converged = []
    for t in range(1, T + 1):
        X_half, ok, _ = solver.solve(state.X, state.Y, state.G, Z, state.grads)
        del state.X, state.grads  # the local step was their last reader
        state.X, state.Y, state.G, state.grads = gossip_round(
            X_half, state.Y, state.G, W, p, solver.delta, Z
        )
        del X_half
        state.comms += W.rounds_per_application
        state.subproblem_converged.append(ok)
        on_step(t, state.comms, state.X, state.Y)
    return state

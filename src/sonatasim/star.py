"""Master/workers variant: exact averaging replaces gossip, the master
broadcasts the aggregate gradient, and no tracking variable is needed.

Equivalent to the mesh algorithms run with the rank-one averaging matrix
(deviation zero), up to the initialization of the tracking variable.  The
outer and inner loops here are written independently of the mesh ones as a
cross-check; the workers' local step is the shared
:class:`~sonatasim.sonata.LocalSolver`, called on stacks in which every row
holds the shared point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .accel import AccelParams
from .problems import ProblemSpec
from .sonata import LocalSolver, shifted_grads


def sonata_star_run(
    p: ProblemSpec,
    x0,
    T: int,
    solver: LocalSolver,
    *,
    z=None,
    comms_start: int = 0,
    on_step=None,
):
    """T master/workers iterations from the shared point x0, local steps by
    ``solver`` (whose delta shifts the gradients toward z); returns (x_T, comms).

    Each iteration: workers send local gradients, master broadcasts the
    average, workers solve their surrogate subproblem with the correction
    grad_f - grad_f_i, master averages the solutions.  Counted as one
    communication round per iteration, mirroring the mesh bookkeeping for the
    rank-one averaging matrix.
    """
    x = np.array(x0, dtype=float)
    Z = np.tile(x if z is None else z, (p.m, 1))
    comms = comms_start
    for t in range(1, T + 1):
        X = np.tile(x, (p.m, 1))
        G = shifted_grads(p, X, solver.delta, Z)
        Y = np.tile(G.mean(axis=0), (p.m, 1))
        halves, _, _ = solver.solve(X, Y, G, Z)
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
    x = 0, for up to params.K_max outer iterations with one local solver."""
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

"""Local loss oracles, the nonsmooth term, and data-driven constant estimation.

A distributed problem is a collection of m agent losses f_i plus a shared
nonsmooth term r.  Three loss families are supported, one entry each in
``LOSSES``, so every oracle has a single code path:

* ``quadratic-ridge``:  f_i(x) = 1/(2n) ||A_i x - b_i||^2 + lam * ||x||^2
* ``smooth-hinge``:     f_i(x) = 1/n sum_j hinge(b_ij <x, a_ij>) + lam/2 ||x||^2
* ``logistic``:         f_i(x) = 1/n sum_j log(1 + exp(-b_ij <x, a_ij>)) + lam/2 ||x||^2

A quadratic instance with d <= n is served by its per-agent statistics
(:class:`GramStats`), fixed when it is built, so it may hold them without its
rows.  All oracles are pure functions of immutable arrays and safe to call
from multiple workers.  :func:`curvature` decomposes the whole stack of
Hessian bounds H_i once, for both ends of each spectrum, and decomposes
H_i - H_bar only for the agents that Weyl's bounds from those ends, with a
derived slack for rounding, leave a candidate for beta.  Its per-agent
kernels (the Gram products and the decompositions of the stack and of the
candidates) run in agent ranges, one per usable CPU, on the standard
library's thread pool, bit-equal to one call on the whole stack.
"""

from __future__ import annotations

import contextvars
import math
import numbers
import os
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

FEAS_TOL = 1e-9  # box feasibility tolerance of r_value
# Fewest agents a range of the per-agent curvature kernels takes
# (_by_agent_ranges).  A pool of two workers runs two empty ranges in copied
# contexts, start to shutdown, in 140-170 us (medians of 2000; 2-core Xeon,
# Python 3.11); the cheapest kernel that runs in ranges, the Gram product of
# a 20 x 40 block, takes 6 us per agent, so at 64 agents a range costs about
# 5 times its share of the pool.  Stacks of fewer than 128 agents stay one call.
MIN_RANGE_AGENTS = 64


def check_int(name: str, value, low: int) -> None:
    """A count or seed is an integer >= low; a fraction, a bool or a string is an error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


class InputError(ValueError):
    """Input the library cannot work with (data, instance or target); the CLI
    reports every subclass as an input error with exit code 2."""


class DegenerateProblemError(InputError):
    """The problem has no usable strong convexity (mu_hat <= 0)."""


class CurvatureOverflowError(InputError):
    """The Hessian bounds of finite data overflow the float range."""


class RuntimeFailure(RuntimeError):
    """A computation on accepted input failed; the CLI reports every subclass
    as a runtime failure with exit code 1."""


class DivergenceError(RuntimeFailure):
    """An iterate became non-finite or a run invariant was violated."""


def _physical_memory() -> int:
    """Bytes of physical memory, the most one dense array may take."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_dense(error: type[InputError], what: str, *shape: int) -> None:
    """Raise error, before a dense float array of this shape is allocated,
    if it would be larger than physical memory; the message names the array
    by ``what`` and gives its size."""
    nbytes = 8 * math.prod(shape)  # Python ints: no overflow
    if nbytes > _physical_memory():
        kind = "matrix" if len(shape) == 2 else "array"
        size = f"{' x '.join(map(str, shape))} {kind} of {nbytes / 2**30:.4g} GiB"
        raise error(f"{what} needs a dense {size}, more than memory")


@dataclass(frozen=True)
class Regularizer:
    """Descriptor of the nonsmooth term r: zero, l1(weight), or a box constraint."""

    kind: str = "zero"  # "zero" | "l1" | "box"
    weight: float | None = None  # required by l1
    lo: float | None = None  # lo and hi required by box
    hi: float | None = None

    def __post_init__(self):
        if self.kind not in ("zero", "l1", "box"):
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        own = {"zero": (), "l1": ("weight",), "box": ("lo", "hi")}[self.kind]
        stray = [f for f in ("weight", "lo", "hi") if f not in own and getattr(self, f) is not None]
        if stray:
            raise ValueError(f"a {self.kind} regularizer takes no {', '.join(stray)}")
        if self.kind == "l1" and (self.weight is None or not self.weight >= 0):
            raise ValueError(f"l1 requires a weight >= 0, got {self.weight!r}")
        if self.kind == "box" and (self.lo is None or self.hi is None or not self.lo <= self.hi):
            raise ValueError(f"box requires lo <= hi, got lo={self.lo!r}, hi={self.hi!r}")


class GramStats(NamedTuple):
    """The statistics of an exact-curvature loss's data with d <= n, per
    agent: H_i = A_i^T A_i / n (m, d, d), h_i = A_i^T b_i / n (m, d) and
    |b_i|^2 (m,).  Every oracle of such an instance but the rows' own
    (:func:`local_grad`, :func:`average_value`, :func:`average_grad`) reads
    them and n alone."""

    H: np.ndarray
    h: np.ndarray
    b_sq: np.ndarray


@dataclass(init=False)
class ProblemSpec:
    """m agents, each holding n samples: an (n, d) feature block and an
    n-vector of labels.

    Built from the rows, ``ProblemSpec(loss_kind, A, b, lam=...)`` with
    ``A`` stacked (m, n, d) and ``b`` (m, n); or, for an exact-curvature
    loss with d <= n, from ``n`` and the statistics ``stats`` alone, with
    an optional ``rows`` recipe that returns (A, b), the same arrays on
    every call.  ``p.A`` and ``p.b`` read ``rows()``; a spec held by its
    statistics with no recipe keeps no rows, and reading them raises
    :class:`InputError`.  m and d are fixed with n at construction, from
    the statistics when the spec holds them (its rows are not read for
    them) and from ``A`` otherwise.  ``dataclasses.replace`` shares the
    statistics and the rows.  Every agent has identical n and d by
    construction.  The loss kind, the data and the statistics are fixed at
    construction: when not given, ``stats`` is computed from the rows for an
    exact-curvature loss with d <= n, and is None for any other loss or with
    d > n, where H would be larger than A; every statistics array is
    read-only.  :func:`curvature` is memoized on the instance.
    """

    # A and b are not fields: dataclasses.replace reads every field, and
    # reading the rows of a generated spec draws them (of a spec held by its
    # statistics alone, raises).
    loss_kind: str
    lam: float
    reg: Regularizer
    n: int
    stats: GramStats | None
    rows: Callable[[], tuple[np.ndarray, np.ndarray]] | None
    # not init fields: dataclasses.replace passes every init field to __init__
    m: int = field(init=False)
    d: int = field(init=False)

    def __init__(
        self,
        loss_kind: str,
        A=None,
        b=None,
        *,
        lam: float,
        reg: Regularizer = Regularizer(),
        n: int | None = None,
        stats: GramStats | None = None,
        rows: Callable | None = None,
    ):
        self.loss_kind, self.lam, self.reg = loss_kind, lam, reg
        if loss_kind not in LOSSES:
            raise ValueError(f"unknown loss kind {loss_kind!r}")
        if not lam >= 0:
            raise ValueError(f"lam must be >= 0, got {lam!r}")
        if rows is None and stats is None:
            A = np.ascontiguousarray(A, dtype=float)
            b = np.ascontiguousarray(b, dtype=float)
            if A.ndim != 3 or b.shape != A.shape[:2] or n not in (None, A.shape[1]):
                raise ValueError("A must be (m, n, d) and b (m, n)")
            if not self.loss.exact and not np.all(np.abs(b) == 1.0):
                raise ValueError("classification labels must be +/-1")
            n, rows = A.shape[1], lambda: (A, b)
        elif A is not None or b is not None or n is None:
            raise ValueError("give the rows as A and b, or n with statistics or a rows callable")
        self.n, self.rows = n, rows
        if stats is None and self.loss.exact:
            A, b = rows()
            if A.shape[2] <= n:
                At = A.transpose(0, 2, 1)
                H, h = np.matmul(At, A) / n, np.matmul(At, b[:, :, None])[..., 0] / n
                stats = GramStats(H, h, (b**2).sum(axis=1))
        if stats is not None:
            H, h, b_sq = stats
            if h.ndim != 2 or H.shape != (*h.shape, h.shape[1]) or b_sq.shape != h.shape[:1]:
                raise ValueError("statistics must be H (m, d, d), h (m, d) and |b_i|^2 (m,)")
            if not self.loss.exact:
                raise ValueError(f"a {loss_kind} loss is not served by statistics")
            if not h.shape[1] <= n:
                raise ValueError(f"statistics are kept for d <= n, got d = {h.shape[1]}, n = {n}")
            if not np.all(b_sq >= 0):
                raise ValueError("|b_i|^2 must be >= 0")
            for a in stats:
                a.flags.writeable = False
            self.m, self.d = stats.h.shape
        else:
            self.m, _, self.d = rows()[0].shape
        self.stats = stats
        self._curvature = None

    @property
    def A(self) -> np.ndarray:
        return self._rows()[0]

    @property
    def b(self) -> np.ndarray:
        return self._rows()[1]

    def _rows(self):
        if self.rows is None:
            raise InputError("the instance is held by its statistics and keeps no rows")
        return self.rows()

    @property
    def loss(self) -> Loss:
        return LOSSES[self.loss_kind]


def _smooth_hinge_into(t):
    """Smoothed hinge loss of the float array t: 0 past margin 1, quadratic
    on [0, 1], linear below 0, written over t, which is returned; one more
    array of t's size holds the quadratic piece.

    Evaluated without branches as 0.5 * (clip(t, 0, 1) - 1)^2 + max(-t, 0),
    which is each piece to the bit: the quadratic one plus +0 on [0, 1],
    0 + 0 above 1, and 0.5 + (-t), which is 0.5 - t, below 0 (a NaN may
    differ only in its sign bit)."""
    w = np.maximum(t, 0.0, out=np.empty_like(t))  # an array for a 0-d t too
    np.minimum(w, 1.0, out=w)
    np.subtract(w, 1.0, out=w)
    np.square(w, out=w)
    np.multiply(0.5, w, out=w)
    np.negative(t, out=t)
    np.maximum(t, 0.0, out=t)
    return np.add(t, w, out=t)


def smooth_hinge_deriv(t):
    """Derivative of the smoothed hinge loss (:func:`_smooth_hinge_into`);
    continuous at the knots 0 and 1."""
    t = np.asarray(t, dtype=float)
    return np.where(t > 1.0, 0.0, np.where(t < 0.0, -1.0, t - 1.0))


def _logistic_deriv(t, b):
    """-b * sigmoid(-b t), the sigmoid s = -b t taken as 1 / (1 + e) or
    e / (1 + e) by its sign, from e = exp(-|s|) <= 1 so neither overflows."""
    s = -b * t
    e = np.exp(-np.abs(s))
    return np.where(s >= 0, 1.0, e) / (1.0 + e) * -b


def _log1pexp_into(z):
    """log(1 + exp(z)) = max(z, 0) + log(1 + exp(-|z|)), overflow-free, of
    the float array z, written over z, which is returned; one more array of
    z's size holds the second term."""
    w = np.abs(z, out=np.empty_like(z))  # an array for a 0-d z too
    np.negative(w, out=w)
    np.exp(w, out=w)
    np.log1p(w, out=w)
    np.maximum(z, 0.0, out=z)
    return np.add(z, w, out=z)


@dataclass(frozen=True)
class Loss:
    """One loss family in terms of the prediction t = <a, x> and the label b.

    f_i(x) = mean_j value(t_ij, b_ij) + ridge/2 * lam * ||x||^2, and its
    Hessian is bounded by H_i = cap * A_i^T A_i / n + ridge * lam * I, with
    equality when ``exact`` is set.  ``value_into(t, b)`` writes the values
    over t, a float array of the full shape that the caller owns, and returns
    it.
    """

    value_into: Callable  # elementwise loss value, in place
    deriv: Callable  # elementwise derivative in t
    cap: float  # bound on the second derivative in t
    ridge: float
    exact: bool


# Labels enter the classification losses through the margin b * t.
# log(1 + exp(-bt)) and its derivative -b * sigmoid(-bt) are evaluated stably
# for either sign of the margin.
LOSSES = {
    "quadratic-ridge": Loss(
        lambda t, b: np.multiply(0.5, np.square(np.subtract(t, b, out=t), out=t), out=t),
        lambda t, b: t - b,
        1.0,
        2.0,
        True,
    ),
    "smooth-hinge": Loss(
        lambda t, b: _smooth_hinge_into(np.multiply(b, t, out=t)),
        lambda t, b: smooth_hinge_deriv(b * t) * b,
        1.0,
        1.0,
        False,
    ),
    "logistic": Loss(
        lambda t, b: _log1pexp_into(np.multiply(-b, t, out=t)), _logistic_deriv, 0.25, 1.0, False
    ),
}


def _check_point(x, *shape):
    x = np.asarray(x, dtype=float)
    if x.shape != shape:
        raise ValueError(f"expected a point of shape {shape}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite point")
    return x


def local_grad(p: ProblemSpec, i: int, x) -> np.ndarray:
    """Exact gradient of agent i's local loss at x."""
    x = _check_point(x, p.d)
    dl = p.loss.deriv(p.A[i] @ x, p.b[i])
    return p.A[i].T @ dl / p.n + p.loss.ridge * p.lam * x


def batch_grads(p: ProblemSpec, X: np.ndarray) -> np.ndarray:
    """Gradients of every agent at its own point: X is (m, d), result is (m, d)."""
    if p.stats is not None:  # H_i x_i - h_i + ridge * lam * x_i
        g = np.matmul(p.stats.H, X[:, :, None])[..., 0]
        g -= p.stats.h
    else:
        dl = p.loss.deriv(np.matmul(p.A, X[:, :, None])[..., 0], p.b)  # (m, n)
        g = np.matmul(dl[:, None, :], p.A)[:, 0, :]
        g /= p.n
    g += p.loss.ridge * p.lam * X
    return g


def average_value(p: ProblemSpec, X):
    """Smooth part of the global objective, f(x) = (1/m) sum_i f_i(x), at a
    (d,) point (a float) or at every row of a (k, d) stack (a (k,) array)."""
    X = _check_point(X, *np.shape(X)[:-1][:1], p.d)  # (d,) or (k, d)
    stack = np.atleast_2d(X)
    A, b = p.A.reshape(-1, p.d), p.b.reshape(-1)
    out = 0.5 * p.loss.ridge * p.lam * np.einsum("kd,kd->k", stack, stack)
    # Blocks of at most d rows keep the (rows, m*n) predictions no larger
    # than A.  The loss is evaluated in place in each fresh predictions block,
    # so at most two blocks are live (the logistic value's second term).
    for s in range(0, len(stack), p.d):
        out[s : s + p.d] += p.loss.value_into(stack[s : s + p.d] @ A.T, b).mean(axis=1)
    return float(out[0]) if X.ndim == 1 else out


def average_grad(p: ProblemSpec, x) -> np.ndarray:
    """Gradient of f = (1/m) sum_i f_i at x."""
    x = _check_point(x, p.d)
    dl = p.loss.deriv(p.A @ x, p.b)  # (m, n)
    return dl.reshape(-1) @ p.A.reshape(-1, p.d) / (p.n * p.m) + p.loss.ridge * p.lam * x


def r_value(p: ProblemSpec, X):
    """Value of the nonsmooth term r at a (d,) point (a float) or at every row
    of a (k, d) stack (a (k,) array); inf outside the box, up to FEAS_TOL."""
    X = np.asarray(X, dtype=float)
    reg = p.reg
    if reg.kind == "zero":
        r = np.zeros(X.shape[:-1])
    elif reg.kind == "l1":
        r = reg.weight * np.abs(X).sum(axis=-1)
    else:
        inside = (X >= reg.lo - FEAS_TOL) & (X <= reg.hi + FEAS_TOL)
        r = np.where(inside.all(axis=-1), 0.0, np.inf)
    return float(r) if X.ndim == 1 else r


def check_step(step) -> None:
    """A proximal step, or every entry of an array of steps, is > 0; a NaN is an error."""
    if not np.all(np.asarray(step) > 0):
        raise ValueError("step must be > 0")


def _prox_into(p: ProblemSpec, x, step) -> np.ndarray:
    """Proximal map of r with the given step, argmin_y r(y) + ||y - x||^2 /
    (2 step), of the float array x, whose steps the caller has checked
    (:func:`check_step`), written over x, which is returned (x itself for
    r = zero).  Elementwise, so x may be a stack of points with step
    broadcast against it."""
    reg = p.reg
    if reg.kind == "l1":
        shrunk = np.abs(x, out=np.empty_like(x))  # an array for a 0-d x too
        shrunk -= step * reg.weight
        np.maximum(shrunk, 0.0, out=shrunk)
        np.sign(x, out=x)
        x *= shrunk
    elif reg.kind == "box":
        np.clip(x, reg.lo, reg.hi, out=x)
    return x


def prox_gradient(p: ProblemSpec, grad, X0, steps, q, tol: float, max_iters: int):
    """Accelerated proximal gradient on a (k, d) stack of independent problems.

    Row i minimizes s_i + r from X0[i] with step steps[i] and momentum
    (1 - sqrt(q_i)) / (1 + sqrt(q_i)), q_i = mu_i * steps[i] for a
    mu_i-strongly convex s_i; grad(V) returns the (k, d) gradients of the s_i.
    A row freezes once its gradient mapping at the extrapolated point is at
    most tol, a scalar or a (k,) array of per-row tolerances.  Returns (X,
    whether all rows converged, the largest iteration count); a step that is
    not > 0 raises ValueError before any gradient, a non-finite iterate
    DivergenceError.
    """
    check_step(steps)
    step = steps[:, None]
    theta = ((1.0 - np.sqrt(q)) / (1.0 + np.sqrt(q)))[:, None]
    X = np.array(X0, dtype=float)
    V = X.copy()
    active = np.ones(len(X), dtype=bool)
    for it in range(max_iters):
        X_next = _prox_into(p, V - step * grad(V), step)
        if not np.all(np.isfinite(X_next)):
            raise DivergenceError(f"non-finite iterate at proximal-gradient iteration {it + 1}")
        move = np.linalg.norm(X_next - V, axis=1) / steps
        V[active] = (X_next + theta * (X_next - X))[active]
        X[active] = X_next[active]
        active &= ~(move <= tol)
        if not active.any():
            return X, True, it + 1
    return X, False, max_iters


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _by_agent_ranges(m: int, kernel: Callable[[slice], object]) -> list:
    """[kernel(s) for s in ranges], the ranges contiguous slices that cover
    the m agents in order, one per usable CPU, each of at least
    :data:`MIN_RANGE_AGENTS` agents.

    A single range is one call in the caller.  More run on a
    concurrent.futures.ThreadPoolExecutor, one worker per range, each in
    a copy of the caller's context, which carries numpy's errstate; once
    every range has run, the error of the first range that raised is
    raised.  kernel calls numpy only: numpy releases the GIL in its
    batched products and decompositions and computes each agent's result
    by the same per-matrix call however the stack is cut, so the results
    are bit-identical to one call on the whole stack."""
    k = max(1, min(_usable_cpus(), m // MIN_RANGE_AGENTS))
    if k == 1:
        return [kernel(slice(0, m))]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(k) as pool:  # leaving waits for every range
        futures = [
            pool.submit(contextvars.copy_context().run, kernel, slice(m * j // k, m * (j + 1) // k))
            for j in range(k)
        ]
    return [f.result() for f in futures]


def hessian_bounds(p: ProblemSpec) -> np.ndarray:
    """All m Hessian bounds stacked (m, d, d), a new array on every call;
    callers must not keep it on p."""
    check_dense(InputError, "the stack of Hessian bounds", p.m, p.d, p.d)
    ridge = p.loss.ridge * p.lam * np.eye(p.d)
    if p.stats is not None:  # the statistics are read-only
        return p.stats.H + ridge
    A, cap, n = p.A, p.loss.cap, p.n
    H = np.empty((p.m, p.d, p.d))

    def bounds(s):  # cap * A_i^T A_i / n + ridge, written over H[s]
        np.matmul(A[s].transpose(0, 2, 1), A[s], out=H[s])
        H[s] *= cap
        H[s] /= n
        H[s] += ridge

    _by_agent_ranges(p.m, bounds)
    return H


@dataclass(frozen=True)
class Curvature:
    """Small summaries of the Hessian bounds H_i: their mean H_bar and its
    extreme eigenvalues, each agent's largest eigenvalue, and
    beta = max_i ||H_i - H_bar||_2."""

    H_bar: np.ndarray
    H_bar_min: float
    H_bar_max: float
    lmax: np.ndarray
    beta: float


def curvature(p: ProblemSpec) -> Curvature:
    """The curvature summaries of p, memoized on p.  Bounds that overflow
    the float range, from finite but huge feature values, raise
    :class:`CurvatureOverflowError`.

    One batched decomposition of the whole stack gives both ends of each
    H_i's spectrum, and lmax.  With H_bar's ends they bound each agent's
    deviation by Weyl's inequality (Horn & Johnson, Matrix Analysis,
    Thm 4.3.1)::

        low_i = max(|lmax(H_i) - lmax(H_bar)|, |lmin(H_i) - lmin(H_bar)|)
             <= ||H_i - H_bar||_2 <=
        high_i = max(lmax(H_i) - lmin(H_bar), lmax(H_bar) - lmin(H_i))

    and H_i - H_bar is decomposed only for the candidates, the agents with
    high_i + slack >= max_j low_j.  The argmax of low is always one, since
    rounding is monotone and so the computed low_i <= high_i.

    slack covers rounding.  LAPACK's symmetric eigensolvers return each
    eigenvalue of X within c(d) * eps * ||X||_2 (LAPACK Users' Guide,
    sec. 4.7, c a modestly growing function), taken here as c = d^2.
    With S the largest |end| computed, ||H_i||_2 and ||H_bar||_2 are below
    2 S, ||H_i - H_bar||_2 below 4 S and its stored difference below 5 S.
    So the value a decomposition of H_i - H_bar gives is within 7 c eps S
    of ||H_i - H_bar||_2 (5 from the decomposition, 2 from storing the
    difference, whose rounding is below sqrt(d) eps / 2 of its norm), each
    Weyl bound within 5 c eps S of its side (two ends and one
    subtraction), and the test's own addition within 2 eps S.  A pruned
    agent's value is then below the argmax's by at least
    slack - 26 c eps S, and slack = 32 c eps S.  So beta is the largest of
    exactly the per-agent values that decomposing every H_i - H_bar gives,
    bit for bit.  The candidates are moved to the front of the stack and
    subtracted in place, so no stack is copied.
    """
    if p._curvature is None:
        with np.errstate(over="ignore", invalid="ignore"):
            H = hessian_bounds(p)
            H_bar = H.mean(axis=0)
        # an inf or NaN anywhere in the stack reaches its mean
        if not np.all(np.isfinite(H_bar)):
            raise CurvatureOverflowError(
                "the Hessian bounds overflow the float range: A_i^T A_i / n is not "
                "finite; rescale the features"
            )
        w = np.linalg.eigvalsh(H_bar)
        lo, hi = w[0], w[-1]

        def extremes(s):
            return np.linalg.eigvalsh(H[s])[:, [0, -1]]

        ends = np.concatenate(_by_agent_ranges(p.m, extremes))
        lmin, lmax = ends.T.copy()
        low = np.maximum(np.abs(lmax - hi), np.abs(lmin - lo))
        high = np.maximum(lmax - lo, hi - lmin)
        scale = max(np.abs(ends).max(), abs(lo), abs(hi))
        slack = 32 * p.d**2 * np.finfo(float).eps * scale
        candidates = np.flatnonzero(~(high + slack < low.max()))
        for j, i in enumerate(candidates):  # moved to the front, in order
            if i != j:
                H[j] = H[i]

        def deviations(s):  # the ends of each H_i - H_bar, subtracted in place
            H[s] -= H_bar
            return extremes(s)

        beta = np.abs(np.concatenate(_by_agent_ranges(candidates.size, deviations))).max()
        p._curvature = Curvature(H_bar, float(lo), float(hi), lmax, float(beta))
    return p._curvature


@dataclass(frozen=True)
class Constants:
    """Estimated problem constants: strong convexity, smoothness, similarity."""

    mu_hat: float
    L_hat: float
    Lmx_hat: float
    beta_hat: float

    @property
    def kappa_hat(self) -> float:
        return self.L_hat / self.mu_hat

    def __post_init__(self):
        if not (0 < self.mu_hat <= self.L_hat <= self.Lmx_hat * (1 + 1e-12)):
            raise ValueError(
                f"constants must satisfy 0 < mu <= L <= Lmx, got "
                f"({self.mu_hat}, {self.L_hat}, {self.Lmx_hat})"
            )
        if not self.beta_hat >= 0:
            raise ValueError(f"beta_hat must be >= 0, got {self.beta_hat!r}")


def estimate_constants(p: ProblemSpec) -> Constants:
    """Estimate (mu, L, Lmx, beta) from the data.

    Exact-curvature losses use the extreme eigenvalues of the average
    Hessian.  Classification losses use the curvature-capped bounds H_i:
    mu_hat = ridge * lam, L_hat = mean_i lmax(H_i).
    beta_hat = max_i ||H_i - mean_j H_j||_2.
    """
    curv = curvature(p)
    if p.loss.exact:
        mu, L = curv.H_bar_min, curv.H_bar_max
    else:
        mu = p.loss.ridge * p.lam
        L = curv.lmax.mean()
    if mu <= 1e-12 * max(1.0, L):
        raise DegenerateProblemError(
            "no strong convexity: lam = 0 with a rank-deficient average Hessian"
            if p.loss.exact
            else "no strong convexity: classification losses require lam > 0"
        )
    return Constants(float(mu), float(L), float(curv.lmax.max()), curv.beta)

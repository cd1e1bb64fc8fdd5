"""Synthetic ridge-regression instances and LIBSVM-format ingestion.

The synthetic generator draws agent rows from N(0, Sigma) with a planted
solution; data similarity across agents then shrinks as the local sample size
grows.  RNG streams are split per agent from a single 64-bit seed, so agent
i's data does not depend on how many agents follow it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .problems import InputError, ProblemSpec, Regularizer

DEFAULT_NOISE_STD = float(np.sqrt(0.1))


class LibsvmParseError(InputError):
    """A line of the input file does not parse as 'label idx:val ...'."""


class InsufficientDataError(InputError):
    """Fewer usable samples than agents."""


@dataclass(frozen=True)
class SyntheticRidgeConfig:
    """Generator knobs: eigenvalue range [mu0, L0] of the row covariance,
    per-agent sample count n, dimension d, ridge coefficient, noise level."""

    m: int
    n: int
    d: int
    mu0: float = 1.0
    L0: float = 1000.0
    lam: float = 0.0
    noise_std: float = DEFAULT_NOISE_STD
    seed: int = 0

    def __post_init__(self):
        for name, low in (("m", 1), ("n", 1), ("d", 1), ("seed", 0)):
            _check_int(name, getattr(self, name), low)
        if not 0 < self.mu0 <= self.L0:
            raise ValueError("need 0 < mu0 <= L0")
        if not (self.lam >= 0 and self.noise_std >= 0):
            raise ValueError("lam and noise_std must be >= 0")


def _check_int(name: str, value, low: int) -> None:
    """A count or seed is an integer >= low; a fraction, a bool or a string is an error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _covariance_root(cfg: SyntheticRidgeConfig, rng: np.random.Generator):
    """Sigma^(1/2) with eigenvalues uniform in [mu0, L0] and Haar-ish basis from QR."""
    eigs = rng.uniform(cfg.mu0, cfg.L0, size=cfg.d)
    Q, _ = np.linalg.qr(rng.standard_normal((cfg.d, cfg.d)))
    root = (Q * np.sqrt(eigs)) @ Q.T
    return root, eigs


def gen_ridge(cfg: SyntheticRidgeConfig) -> ProblemSpec:
    """Generate a synthetic distributed ridge instance, deterministic in cfg.seed.

    Stream 0 of the seed draws the shared covariance and the planted solution;
    stream i+1 draws agent i's feature rows and noise.
    """
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.m + 1)
    shared = np.random.default_rng(streams[0])
    root, eigs = _covariance_root(cfg, shared)
    x_star = 5.0 + shared.standard_normal(cfg.d)

    A = np.empty((cfg.m, cfg.n, cfg.d))
    b = np.empty((cfg.m, cfg.n))
    for i in range(cfg.m):
        rng = np.random.default_rng(streams[i + 1])
        A[i] = rng.standard_normal((cfg.n, cfg.d)) @ root
        b[i] = A[i] @ x_star + cfg.noise_std * rng.standard_normal(cfg.n)

    return ProblemSpec(
        loss_kind="quadratic-ridge",
        A=A,
        b=b,
        lam=cfg.lam,
        reg=Regularizer(),
        meta={"x_star_planted": x_star, "sigma_eigs": np.sort(eigs), "config": cfg},
    )


def _parse_libsvm_line(line: str, lineno: int):
    parts = line.split()
    try:
        label = float(parts[0])
    except (ValueError, IndexError):
        raise LibsvmParseError(f"line {lineno}: missing or bad label") from None
    pairs = []
    for tok in parts[1:]:
        try:
            idx, val = tok.split(":", 1)
            idx = int(idx)
            val = float(val)
        except ValueError:
            raise LibsvmParseError(f"line {lineno}: bad feature token {tok!r}") from None
        if idx < 1:
            raise LibsvmParseError(f"line {lineno}: feature indices are 1-based")
        pairs.append((idx, val))
    return label, pairs


def _map_labels(labels: np.ndarray) -> np.ndarray:
    values = np.unique(labels)
    if values.size == 2:
        return np.where(labels == values[0], -1.0, 1.0)
    if values.size == 1 and values[0] in (-1.0, 1.0):
        return labels
    raise LibsvmParseError(f"cannot map labels {values.tolist()} to +/-1")


def load_libsvm(
    path,
    m: int,
    loss: str = "smooth-hinge",
    lam: float = 0.0,
    limit: int | None = None,
    seed: int = 0,
    reg: Regularizer | None = None,
) -> ProblemSpec:
    """Read a LIBSVM text file, densify, shuffle by seed, shard across m agents.

    Keeps the first ``limit`` samples (post-parse, pre-shuffle) when given;
    drops the remainder of an uneven split so every agent holds the same n.
    """
    _check_int("m", m, 1)
    if limit is not None:
        _check_int("limit", limit, 1)
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append(_parse_libsvm_line(line, lineno))
    if limit is not None:
        rows = rows[:limit]
    if len(rows) < m:
        raise InsufficientDataError(f"{len(rows)} samples for {m} agents")

    d = max((idx for _, pairs in rows for idx, _ in pairs), default=0)
    if d == 0:
        raise LibsvmParseError("no features found in file")
    N = len(rows)
    features = np.zeros((N, d))
    labels = np.empty(N)
    for r, (label, pairs) in enumerate(rows):
        labels[r] = label
        for idx, val in pairs:
            features[r, idx - 1] = val
    labels = _map_labels(labels)

    order = np.random.default_rng(np.random.SeedSequence(seed)).permutation(N)
    n = N // m
    keep = order[: n * m]
    A = features[keep].reshape(m, n, d)
    b = labels[keep].reshape(m, n)
    return ProblemSpec(
        loss_kind=loss,
        A=A,
        b=b,
        lam=lam,
        reg=reg if reg is not None else Regularizer(),
        meta={"source": str(path), "total_samples": N},
    )

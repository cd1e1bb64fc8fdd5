"""Synthetic ridge-regression instances and LIBSVM-format ingestion.

The synthetic generator draws agent rows from N(0, Sigma) with a planted
solution; data similarity across agents then shrinks as the local sample size
grows.  RNG streams are split per agent from a single 64-bit seed, so agent
i's data does not depend on how many agents follow it.
"""

from __future__ import annotations

import math
import numbers
import os
from array import array
from dataclasses import dataclass

import numpy as np

from .problems import InputError, ProblemSpec, Regularizer

DEFAULT_NOISE_STD = float(np.sqrt(0.1))
_MAX_INDEX = 2**63 - 1  # a feature index is stored as an int64


class LibsvmParseError(InputError):
    """A line of the input file does not parse as 'label idx:val ...' with a
    finite label and finite values."""


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
        meta={"x_star_planted": x_star, "sigma_eigs": np.sort(eigs)},
    )


def _line_error(line: str, lineno: int) -> LibsvmParseError:
    """The error for a line the reader rejected, naming its first bad part:
    the label, then each 'idx:val' token in turn."""
    parts = line.split()
    try:
        label = float(parts[0])
    except ValueError:
        return LibsvmParseError(f"line {lineno}: missing or bad label")
    if not math.isfinite(label):
        return LibsvmParseError(f"line {lineno}: non-finite label {parts[0]!r}")
    for tok in parts[1:]:
        try:
            idx, val = tok.split(":", 1)
            idx = int(idx)
            val = float(val)
        except ValueError:
            return LibsvmParseError(f"line {lineno}: bad feature token {tok!r}")
        if idx < 1:
            return LibsvmParseError(f"line {lineno}: feature indices are 1-based")
        if idx > _MAX_INDEX:
            return LibsvmParseError(f"line {lineno}: feature index {idx} out of range")
        if not math.isfinite(val):
            return LibsvmParseError(f"line {lineno}: non-finite feature value {tok!r}")
    raise AssertionError(f"line {lineno} was rejected but has no bad part")


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

    Every line must parse, with a finite label and finite values, or a
    LibsvmParseError names it; a repeated index keeps its last value, and a
    dense matrix larger than physical memory is refused.  Keeps the first
    ``limit`` samples (post-parse, pre-shuffle) when given; drops the
    remainder of an uneven split so every agent holds the same n.
    """
    _check_int("m", m, 1)
    if limit is not None:
        _check_int("limit", limit, 1)
    # Streamed into flat buffers: per sample its label and feature count, per
    # feature its 1-based index and value.
    labels, counts, index, values = array("d"), array("q"), array("q"), array("d")
    keys_prev = index_prev = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            pieces = line.replace(":", " ").split()
            F = len(parts) - 1
            try:
                # Each feature token holds one colon with text on both sides
                # exactly when these checks pass; pieces is then
                # [label, idx_1, val_1, ..., idx_F, val_F].
                if (
                    line.count(":") != F
                    or len(pieces) != 2 * F + 1
                    or not all(":" in tok for tok in parts[1:])
                ):
                    raise ValueError
                label = float(pieces[0])
                keys = pieces[1::2]
                if keys != keys_prev:  # the rows of a dense file share their indices
                    keys_prev, index_prev = keys, array("q", map(int, keys))
                    if keys and min(index_prev) < 1:
                        raise ValueError
                row = array("d", map(float, pieces[2::2]))
                if not (math.isfinite(label) and all(map(math.isfinite, row))):
                    raise ValueError
            except (ValueError, OverflowError):
                raise _line_error(line, lineno) from None
            labels.append(label)
            counts.append(F)
            index.extend(index_prev)
            values.extend(row)
    N = len(labels) if limit is None else min(len(labels), limit)
    if N < m:
        raise InsufficientDataError(f"{N} samples for {m} agents")

    counts = np.frombuffer(counts, dtype=np.int64)[:N]
    nnz = int(counts.sum())
    index = np.frombuffer(index, dtype=np.int64)[:nnz]
    vals = np.frombuffer(values)[:nnz]
    d = int(index.max()) if nnz else 0
    if d == 0:
        raise LibsvmParseError("no features found in file")
    nbytes = N * d * 8  # Python ints: no overflow
    if nbytes > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        size = f"{N} x {d} matrix of {nbytes / 2**30:.4g} GiB"
        raise LibsvmParseError(f"largest feature index {d} needs a dense {size}, more than memory")
    flat = np.repeat(np.arange(N) * d - 1, counts)  # position of row r, index idx: r*d + idx-1
    flat += index
    if not np.all(flat[1:] > flat[:-1]):  # unsorted or repeated: an index's last value wins
        flat, last = np.unique(flat[::-1], return_index=True)
        vals = vals[::-1][last]
    features = np.zeros((N, d))
    features.reshape(-1)[flat] = vals
    labels = _map_labels(np.frombuffer(labels)[:N])

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
    )

"""Synthetic ridge-regression instances and LIBSVM-format ingestion.

The synthetic generator draws agent rows from N(0, Sigma) with a planted
solution; data similarity across agents then shrinks as the local sample size
grows.  RNG streams are split per agent from a single 64-bit seed, so agent
i's data does not depend on how many agents follow it.  With d <= n an
instance is held by its statistics, summed over each agent's rows a bounded
chunk at a time, and its rows are drawn again from the same streams only if
they are read.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .problems import LOSSES, GramStats, InputError, ProblemSpec, check_dense, check_int

DEFAULT_NOISE_STD = float(np.sqrt(0.1))
_MAX_INDEX = 2**63 - 1  # a feature index is stored as an int64
SCATTER_ROWS = 128  # lines load_libsvm scatters into the dense array at a time
# Rows of an agent gen_ridge draws at a time for its statistics.  Above every
# n of a committed output or a test, so each of their agents' statistics is
# one product over its rows, bit-equal to the Gram stack of the rows.
GEN_CHUNK_ROWS = 2**15


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
            check_int(name, getattr(self, name), low)
        if not 0 < self.mu0 <= self.L0:
            raise ValueError("need 0 < mu0 <= L0")
        if not (self.lam >= 0 and self.noise_std >= 0):
            raise ValueError("lam and noise_std must be >= 0")


def _covariance_root(cfg: SyntheticRidgeConfig, rng: np.random.Generator):
    """Sigma^(1/2) with eigenvalues uniform in [mu0, L0] and Haar-ish basis from QR."""
    check_dense(InputError, "the covariance draw", cfg.d, cfg.d)
    eigs = rng.uniform(cfg.mu0, cfg.L0, size=cfg.d)
    Q, _ = np.linalg.qr(rng.standard_normal((cfg.d, cfg.d)))
    root = (Q * np.sqrt(eigs)) @ Q.T
    return root, eigs


def _chunk(cfg: SyntheticRidgeConfig, features, noise, k: int, root, x_star):
    """The next k rows A of an agent, from its features generator, and their
    labels b = A x_star + noise, from its noise generator."""
    A = features.standard_normal((k, cfg.d)) @ root
    return A, A @ x_star + cfg.noise_std * noise.standard_normal(k)


def _draw_rows(cfg: SyntheticRidgeConfig, streams, root, x_star):
    """Every agent's rows, stacked (m, n, d), and labels (m, n): its stream
    holds the n*d feature normals, then the n noise normals."""
    check_dense(InputError, "the stack of generated rows", cfg.m, cfg.n, cfg.d)
    A = np.empty((cfg.m, cfg.n, cfg.d))
    b = np.empty((cfg.m, cfg.n))
    for i, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        A[i], b[i] = _chunk(cfg, rng, rng, cfg.n, root, x_star)
    return A, b


def _agent_stats(cfg: SyntheticRidgeConfig, stream, root, x_star):
    """An agent's A_i^T A_i / n, A_i^T b_i / n and |b_i|^2, from the rows
    :func:`_draw_rows` draws, streamed :data:`GEN_CHUNK_ROWS` at a time."""
    n, size = cfg.n, GEN_CHUNK_ROWS
    features = noise = np.random.default_rng(stream)
    if size < n:  # a second generator on the stream skips the features
        noise = np.random.default_rng(stream)
        for s in range(0, n, size):
            noise.standard_normal((min(size, n - s), cfg.d))
    H = h = b_sq = 0.0  # 0.0 + x is x: one chunk sums as the rows would
    for s in range(0, n, size):
        A, b = _chunk(cfg, features, noise, min(size, n - s), root, x_star)
        H = H + A.T @ A
        h = h + A.T @ b
        b_sq = b_sq + (b**2).sum()
        del A, b  # freed before the next chunk is drawn
    return H / n, h / n, b_sq


def gen_ridge(cfg: SyntheticRidgeConfig) -> ProblemSpec:
    """Generate a synthetic distributed ridge instance, deterministic in cfg.seed.

    Stream 0 of the seed draws the shared covariance and the planted solution;
    stream i+1 draws agent i's feature rows and noise.  With d <= n the spec
    holds the statistics (:class:`problems.GramStats`), streamed per agent,
    and draws the rows from the same streams when they are first read; with
    d > n it holds the rows.
    """
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.m + 1)
    shared = np.random.default_rng(streams[0])
    root, eigs = _covariance_root(cfg, shared)
    x_star = 5.0 + shared.standard_normal(cfg.d)
    meta = {"x_star_planted": x_star, "sigma_eigs": np.sort(eigs)}

    rows = functools.partial(_draw_rows, cfg, streams[1:], root, x_star)
    if cfg.d > cfg.n:
        A, b = rows()
        return ProblemSpec("quadratic-ridge", A, b, lam=cfg.lam, meta=meta)
    check_dense(InputError, "the stack of Gram statistics", cfg.m, cfg.d, cfg.d)
    stats = [_agent_stats(cfg, stream, root, x_star) for stream in streams[1:]]
    return ProblemSpec(
        "quadratic-ridge",
        lam=cfg.lam,
        meta=meta,
        n=cfg.n,
        stats=GramStats(*map(np.array, zip(*stats))),
        rows=functools.cache(rows),
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
) -> ProblemSpec:
    """Read a LIBSVM text file, densify, shuffle by seed, shard across m agents.

    Every line must parse, with a finite label and finite values, or a
    LibsvmParseError names it; a repeated index keeps its last value, and a
    dense matrix larger than physical memory is refused.  A classification
    loss maps the two label values to -1 and +1; ``quadratic-ridge`` keeps
    the labels as read.  Keeps the first ``limit`` samples (post-parse,
    pre-shuffle) when given: the lines past them are validated but not kept.
    Drops the remainder of an uneven split so every agent holds the same n.

    Besides the dense (m, n, d) result the reader holds one float per stored
    value of the kept lines, and a run of lines sharing an index list holds
    that list once; the values are scattered :data:`SCATTER_ROWS` lines at a
    time straight into their shuffled rows of the result.
    """
    if loss not in LOSSES:
        raise ValueError(f"unknown loss kind {loss!r}")
    check_int("m", m, 1)
    check_int("seed", seed, 0)
    if limit is not None:
        check_int("limit", limit, 1)
    # Streamed into flat buffers: per kept line its label, its values, its
    # feature count and the offset of its 1-based index list in ``index``.
    labels, values, counts, starts = array("d"), array("d"), array("q"), array("q")
    index = array("q")  # each run of lines sharing an index list holds it once
    keys_prev = None
    repeats = False  # whether some kept line repeats an index
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
                new_list = keys != keys_prev  # the lines of a dense file share their indices
                if new_list:
                    keys_prev, cols = keys, array("q", map(int, keys))
                    if keys and min(cols) < 1:
                        raise ValueError
                row = array("d", map(float, pieces[2::2]))
                if not (math.isfinite(label) and all(map(math.isfinite, row))):
                    raise ValueError
            except (ValueError, OverflowError):
                raise _line_error(line, lineno) from None
            if len(labels) == limit:  # past limit: validated, not kept
                continue
            if new_list:
                at = len(index)
                index.extend(cols)
                repeats = repeats or len(set(cols)) < F
            labels.append(label)
            values.extend(row)
            counts.append(F)
            starts.append(at)
    N = len(labels)
    if N < m:
        raise InsufficientDataError(f"{N} samples for {m} agents")

    index = np.frombuffer(index, dtype=np.int64)
    d = int(index.max()) if len(index) else 0
    if d == 0:
        raise LibsvmParseError("no features found in file")
    check_dense(LibsvmParseError, f"largest feature index {d}", N, d)
    labels = np.frombuffer(labels)
    if not LOSSES[loss].exact:  # a classification loss: labels +/-1
        labels = _map_labels(labels)

    order = np.random.default_rng(np.random.SeedSequence(seed)).permutation(N)
    n = N // m
    keep = order[: n * m]
    A = np.zeros((n * m, d))
    dest = np.full(N, -1)  # line r is row dest[r] of A, or -1 past the split
    dest[keep] = np.arange(n * m)
    counts = np.frombuffer(counts, dtype=np.int64)
    starts = np.frombuffer(starts, dtype=np.int64)
    values = np.frombuffer(values)
    ends = np.cumsum(counts)  # line r's values are values[ends[r] - counts[r] : ends[r]]
    for r in range(0, N, SCATTER_ROWS):
        rows = slice(r, r + SCATTER_ROWS)
        F, last = counts[rows], ends[rows]
        first = last - F
        # value v of line l goes to row dest[l], column index[starts[l] + v - first[l]] - 1
        pos = np.repeat(starts[rows] - first, F)
        pos += np.arange(first[0], last[-1])
        pos = index[pos]
        pos += np.repeat(dest[rows] * d - 1, F)
        vals = values[first[0] : last[-1]]
        live = np.repeat(dest[rows] >= 0, F)
        if not live.all():
            pos, vals = pos[live], vals[live]
        if repeats:  # an index's last value in its line wins; numpy does not
            # promise which of repeated fancy-assignment targets is written last
            pos, kept = np.unique(pos[::-1], return_index=True)
            vals = vals[::-1][kept]
        A.reshape(-1)[pos] = vals
    return ProblemSpec(loss_kind=loss, A=A.reshape(m, n, d), b=labels[keep].reshape(m, n), lam=lam)

import csv
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import traced_peak
from sonatasim import cli, datagen, diagnostics, problems
from sonatasim.datagen import (
    InsufficientDataError,
    LibsvmParseError,
    SyntheticRidgeConfig,
    gen_ridge,
    load_libsvm,
)

FIXTURE = Path(__file__).parent / "data" / "sample200.libsvm"

# Comments, blank lines, a label-only row, unsorted and repeated indices, and
# runs of rows sharing their indices.
IRREGULAR = """# header comment
+1 1:0.5 3:-1.25 3:2.0

-1 2:1e-3
+1
-1 5:3.5 1:0.25
  # indented comment
+1 1:1 2:2 3:3 4:4 5:5
-1 1:-1 2:-2 3:-3 4:-4 5:-5
+1 1:0.1 2:0.2 3:0.3 4:0.4 5:0.5
-1 4:-0.0 2:7 4:1.5
+1 1:9 2:8 3:7 4:6 5:5 6:4
-1 1:.5 2:+1.5E2 3:1_0
"""


def sparse_text(rows=90, d=30, seed=8):
    """A sparse file: each row its own unsorted index list, every third one
    repeating an index; label-only rows, comment and blank lines between."""
    rng = np.random.default_rng(seed)
    lines = ["# generated sparse file"]
    for r in range(rows):
        label = rng.choice(["+1", "-1"])
        if r % 11 == 5:
            lines += ["", "  # comment", label]
            continue
        idx = rng.permutation(d)[: rng.integers(1, 8)] + 1
        if r % 3 == 0:
            idx = np.append(idx, idx[0])
        vals = rng.standard_normal(idx.size) * 10.0 ** rng.integers(-3, 4, idx.size)
        lines.append(" ".join([label] + [f"{i}:{v:.17g}" for i, v in zip(idx, vals)]))
    return "\n".join(lines) + "\n"


def dense_text(rows, d, seed):
    rng = np.random.default_rng(seed)
    return "".join(
        " ".join([rng.choice(["+1", "-1"])] + [f"{j + 1}:{v:.6f}" for j, v in enumerate(row)]) + "\n"
        for row in rng.standard_normal((rows, d))
    )


def reference_load(path, m, limit=None, seed=0):
    """load_libsvm by the plain recipe: each line parsed token by token into
    a dict (a repeated index keeps its last value), densified, labels mapped,
    then shuffled by seed and sharded."""
    rows = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        label, *tokens = line.split()
        features = {}
        for token in tokens:
            idx, val = token.split(":")
            features[int(idx)] = float(val)
        rows.append((float(label), features))
    rows = rows[:limit]
    N, d = len(rows), max(max(f, default=0) for _, f in rows)
    X, y = np.zeros((N, d)), np.array([label for label, _ in rows])
    for r, (_, features) in enumerate(rows):
        for idx, val in features.items():
            X[r, idx - 1] = val
    values = np.unique(y)
    if values.size == 2:
        y = np.where(y == values[0], -1.0, 1.0)
    order = np.random.default_rng(np.random.SeedSequence(seed)).permutation(N)
    n = N // m
    keep = order[: n * m]
    return X[keep].reshape(m, n, d), y[keep].reshape(m, n)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestGenRidge:
    def test_deterministic(self):
        cfg = SyntheticRidgeConfig(m=4, n=50, d=8, seed=123)
        p1, p2 = gen_ridge(cfg), gen_ridge(cfg)
        assert np.array_equal(p1.A, p2.A)
        assert np.array_equal(p1.b, p2.b)

    def test_seed_changes_data(self):
        base = dict(m=4, n=50, d=8)
        p1 = gen_ridge(SyntheticRidgeConfig(seed=1, **base))
        p2 = gen_ridge(SyntheticRidgeConfig(seed=2, **base))
        assert not np.array_equal(p1.A, p2.A)

    def test_agent_streams_independent_of_m(self):
        # agent 0's data must not change when more agents are appended
        p_small = gen_ridge(SyntheticRidgeConfig(m=2, n=30, d=6, seed=9))
        p_big = gen_ridge(SyntheticRidgeConfig(m=5, n=30, d=6, seed=9))
        assert np.array_equal(p_small.A[0], p_big.A[0])
        assert np.array_equal(p_small.b[1], p_big.b[1])

    def test_noiseless_recovers_planted_solution(self):
        cfg = SyntheticRidgeConfig(m=3, n=40, d=10, lam=0.0, noise_std=0.0, seed=7)
        p = gen_ridge(cfg)
        oracle = diagnostics.centralized_solve(p)
        assert np.linalg.norm(oracle.x_star - p.meta["x_star_planted"]) <= 1e-8

    def test_similarity_decreases_with_n(self):
        medians = []
        for n in (100, 1000, 10000):
            betas = []
            for seed in (1, 2, 3):
                cfg = SyntheticRidgeConfig(m=4, n=n, d=10, L0=100.0, seed=seed)
                betas.append(problems.estimate_constants(gen_ridge(cfg)).beta_hat)
            medians.append(np.median(betas))
        assert medians[0] > medians[1] > medians[2]

    def test_row_covariance_approaches_sigma(self):
        cfg = SyntheticRidgeConfig(m=6, n=40, d=8, L0=50.0, seed=3)
        p = gen_ridge(cfg)
        rows = p.A.reshape(-1, cfg.d)
        C = rows.T @ rows / rows.shape[0]
        eigs = np.sort(np.linalg.eigvalsh(C))
        sigma_eigs = p.meta["sigma_eigs"]
        rel = np.abs(eigs - sigma_eigs).max() / sigma_eigs[-1]
        assert rel <= 0.2

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SyntheticRidgeConfig(m=2, n=10, d=4, mu0=2.0, L0=1.0)
        with pytest.raises(ValueError):
            SyntheticRidgeConfig(m=0, n=10, d=4)


ROOT = Path(__file__).resolve().parents[1]


def committed_sample_sizes():
    """Every n of a committed sweep summary or run or sweep config: the
    acceptance sweeps under runs/ and the goldens."""
    sizes = set()
    for base in (ROOT / "runs", Path(__file__).parent / "data" / "golden"):
        for path in base.glob("*/summary.csv"):
            sizes.update(int(row["n"]) for row in csv.DictReader(path.read_text().splitlines()))
        for path in base.glob("*/metadata.json"):
            synthetic = json.loads(path.read_text())["effective_config"]["problem"].get("synthetic")
            if synthetic:
                sizes.add(synthetic["n"])
    return sizes


class TestGenRidgeStatistics:
    """With d <= n a generated spec holds the statistics, and its rows are
    drawn the first time they are read."""

    @pytest.mark.parametrize(
        "m,n,d,seed",
        [(30, 600, 25, 23), (4, 7000, 25, 1), (5, 9, 9, 2)],
        ids=["ridge-sweep", "n-7000", "n-equals-d"],
    )
    def test_statistics_bit_equal_to_the_gram_of_the_rows(self, m, n, d, seed):
        p = gen_ridge(SyntheticRidgeConfig(m=m, n=n, d=d, seed=seed))
        assert n <= datagen.GEN_CHUNK_ROWS
        from_rows = problems.ProblemSpec("quadratic-ridge", p.A, p.b, lam=p.lam)
        assert all(same_bits(a, b) for a, b in zip(p.stats, from_rows.stats))

    def test_chunked_statistics_match_and_rows_do_not_move(self, monkeypatch):
        cfg = SyntheticRidgeConfig(m=3, n=50, d=6, seed=4)
        whole = gen_ridge(cfg)
        monkeypatch.setattr(datagen, "GEN_CHUNK_ROWS", 7)  # 8 chunks, the last one row
        chunked = gen_ridge(cfg)
        for a, b in zip(chunked.stats, whole.stats):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
        assert same_bits(chunked.A, whole.A) and same_bits(chunked.b, whole.b)

    def test_rows_drawn_once_on_first_read_and_shared_by_replace(self, monkeypatch):
        calls, draw = [], datagen._draw_rows
        monkeypatch.setattr(datagen, "_draw_rows", lambda *args: calls.append(1) or draw(*args))
        p = gen_ridge(SyntheticRidgeConfig(m=3, n=40, d=5, seed=6))
        q = dataclasses.replace(p, lam=0.5)
        assert q.stats is p.stats and q.lam == 0.5 and not calls
        problems.estimate_constants(q)
        problems.batch_grads(q, np.ones((q.m, q.d)))
        diagnostics.centralized_solve(q)
        assert not calls
        assert q.A is p.A and p.b is q.b and len(calls) == 1

    def test_statistics_peak_memory_does_not_grow_with_n(self, monkeypatch):
        # a dense A would grow tenfold, 1.6 to 16 MB
        monkeypatch.setattr(datagen, "GEN_CHUNK_ROWS", 1000)

        def build(n):
            p = gen_ridge(SyntheticRidgeConfig(m=2, n=n, d=10, seed=3))
            return problems.estimate_constants(p)

        build(100)  # the first call pays one-time imports and caches
        peaks = [traced_peak(lambda: build(n))[1] for n in (10**4, 10**5)]
        assert peaks[1] < 1.2 * peaks[0]

    def test_beta_over_mu_sweep_draws_no_rows(self, monkeypatch, tmp_path):
        def refuse(*args):
            raise AssertionError("a sweep drew its rows")

        monkeypatch.setattr(datagen, "_draw_rows", refuse)
        cfg = cli.load_config(
            None, {"problem": {"synthetic": {"m": 6, "n": 100, "d": 6, "L0": 100}}, "seed": 2}
        )
        rows = cli.execute_sweep(cfg, "beta_over_mu", [60, 200], tmp_path / "out", 1e-4)
        assert [row["n"] for row in rows] == [60, 200]

    def test_chunk_exceeds_every_committed_sample_size(self):
        # so every committed output is computed on the one-chunk path
        sizes = committed_sample_sizes()
        assert 7000 in sizes and max(sizes) < datagen.GEN_CHUNK_ROWS


class TestLoadLibsvm:
    def test_two_line_example(self, tmp_path):
        f = tmp_path / "tiny.txt"
        f.write_text("+1 1:0.5\n-1 2:1.0\n")
        p = load_libsvm(f, m=1, lam=0.1)
        rows = {tuple(row) for row in p.A[0]}
        assert rows == {(0.5, 0.0), (0.0, 1.0)}
        # labels follow their rows through the shuffle
        for row, label in zip(p.A[0], p.b[0]):
            assert label == (1.0 if row[0] == 0.5 else -1.0)

    def test_equal_shards_with_limit(self):
        p = load_libsvm(FIXTURE, m=3, limit=3 * 33, lam=0.1)
        assert p.m == 3 and p.n == 33

    def test_union_of_shards_is_permutation_of_capped_prefix(self, tmp_path):
        f = tmp_path / "seq.txt"
        f.write_text("".join(f"+1 1:{i}.0\n" if i % 2 else f"-1 1:{i}.0\n" for i in range(1, 13)))
        p = load_libsvm(f, m=3, limit=9, lam=0.1, seed=5)
        vals = sorted(p.A.reshape(-1).tolist())
        assert vals == [float(i) for i in range(1, 10)]

    def test_shuffle_reproducible(self):
        p1 = load_libsvm(FIXTURE, m=4, lam=0.1, seed=8)
        p2 = load_libsvm(FIXTURE, m=4, lam=0.1, seed=8)
        assert np.array_equal(p1.A, p2.A) and np.array_equal(p1.b, p2.b)
        p3 = load_libsvm(FIXTURE, m=4, lam=0.1, seed=9)
        assert not np.array_equal(p1.A, p3.A)

    @pytest.mark.parametrize("limit", [-40, 0, 2.5, "99", True])
    def test_bad_limit_rejected(self, limit):
        # a negative limit used to slice from the end: -40 kept 160 of 200 samples
        with pytest.raises(ValueError, match="limit"):
            load_libsvm(FIXTURE, m=4, limit=limit)

    @pytest.mark.parametrize(
        "source,m,limit,seed",
        [
            ("fixture", 5, None, 0),
            ("fixture", 3, 99, 4),
            ("irregular", 3, None, 1),
            ("irregular", 2, 7, 3),
            ("sparse", 9, None, 2),
            ("sparse", 7, None, 5),
            ("sparse", 4, 61, 6),
        ],
    )
    def test_bit_identical_to_reference_parse(self, tmp_path, monkeypatch, source, m, limit, seed):
        # 7-line scatter chunks: every file spans several, and a sparse one
        # has label-only and skipped rows in some of them
        monkeypatch.setattr(datagen, "SCATTER_ROWS", 7)
        path = FIXTURE
        if source != "fixture":
            path = tmp_path / f"{source}.libsvm"
            path.write_text(IRREGULAR if source == "irregular" else sparse_text())
        p = load_libsvm(path, m=m, limit=limit, seed=seed, lam=0.1)
        A, b = reference_load(path, m, limit, seed)
        assert same_bits(p.A, A) and same_bits(p.b, b)

    def test_peak_memory_is_the_result_and_one_float_per_value(self, tmp_path):
        # parsed values (one float each) plus the dense result, and a little
        # more: not the per-entry index arrays and dense copies
        path = tmp_path / "dense.libsvm"
        path.write_text(dense_text(4000, 40, seed=3))
        load_libsvm(path, m=4)  # the first call pays one-time imports and caches
        p, peak = traced_peak(lambda: load_libsvm(path, m=4))
        assert p.A.shape == (4, 1000, 40)
        assert peak <= 2.5 * p.A.nbytes

    @pytest.mark.parametrize(
        "text,message",
        [
            ("+1 1:0.5\n-1 oops\n", "line 2: bad feature token 'oops'"),
            ("+1 0:0.5\n", "line 1: feature indices are 1-based"),
            ("# c\n\n+1 1:1\n-1 -2:1\n", "line 4: feature indices are 1-based"),
            ("abc 1:0.5\n", "line 1: missing or bad label"),
            ("+1:1 2:3\n", "line 1: missing or bad label"),
            ("+1 1:0.5 2:1\n-1 1:0.5 2:x\n", "line 2: bad feature token '2:x'"),
            ("+1 1:2:3 5\n", "line 1: bad feature token '1:2:3'"),
            ("+1 1 :2\n", "line 1: bad feature token '1'"),
            ("+1 :5\n", "line 1: bad feature token ':5'"),
            ("+1 5:\n", "line 1: bad feature token '5:'"),
            ("+1 1:1.5\n-1 1.5:2\n", "line 2: bad feature token '1.5:2'"),
            ("+1 1:0.5\n-1 2:nan\n", "line 2: non-finite feature value '2:nan'"),
            ("+1 1:inf\n", "line 1: non-finite feature value '1:inf'"),
            ("+1 1:1 2:1\n-1 1:-Infinity 2:1\n", "line 2: non-finite feature value '1:-Infinity'"),
            ("nan 1:0.5\n-1 1:1\n", "line 1: non-finite label 'nan'"),
            ("+1 1:0.5\ninf 1:1\n", "line 2: non-finite label 'inf'"),
            ("+1 99999999999999999999:1\n", "line 1: feature index 99999999999999999999 out of range"),
        ],
        ids=[
            "no-colon", "zero-index", "negative-index-after-comments", "bad-label", "colon-in-label",
            "bad-value-same-indices", "two-colons", "space-before-colon", "empty-index",
            "empty-value", "fractional-index", "nan-value", "inf-value", "minus-infinity-value",
            "nan-label", "inf-label", "index-overflow",
        ],
    )
    def test_bad_line_names_line_and_token(self, tmp_path, text, message):
        f = tmp_path / "bad.txt"
        f.write_text(text)
        with pytest.raises(LibsvmParseError, match=f"^{re.escape(message)}$"):
            load_libsvm(f, m=1)

    def test_bad_line_past_limit_still_rejected(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("+1 1:0.5\n-1 1:0.25\n+1 1:nan\n")
        with pytest.raises(LibsvmParseError, match="line 3"):
            load_libsvm(f, m=1, limit=2)

    def test_parse_error_reports_line(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("+1 1:0.5\n-1 oops\n")
        with pytest.raises(LibsvmParseError, match="line 2"):
            load_libsvm(f, m=1)

    def test_zero_based_index_rejected(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("+1 0:0.5\n")
        with pytest.raises(LibsvmParseError, match="1-based"):
            load_libsvm(f, m=1)

    @pytest.mark.parametrize("index", [10**12, 2**63 - 1])
    def test_unallocatable_dense_matrix_rejected(self, tmp_path, index):
        # the dense matrix is sized by the largest index: 10^12 used to end in
        # a MemoryError traceback, 2^63 - 1 in an int64 overflow
        path = tmp_path / "wide.libsvm"
        path.write_text(f"+1 1:0.5\n-1 {index}:1\n")
        with pytest.raises(LibsvmParseError, match=f"largest feature index {index} "):
            load_libsvm(path, m=1)

    def test_insufficient_samples(self, tmp_path):
        f = tmp_path / "two.txt"
        f.write_text("+1 1:0.5\n-1 2:1.0\n")
        with pytest.raises(InsufficientDataError):
            load_libsvm(f, m=3)

    def test_label_mapping_two_values(self, tmp_path):
        f = tmp_path / "labels.txt"
        f.write_text("1 1:1.0\n2 1:2.0\n1 1:3.0\n2 1:4.0\n")
        p = load_libsvm(f, m=1, lam=0.1)
        assert set(p.b[0]) == {-1.0, 1.0}

    def test_label_mapping_one_value(self, tmp_path):
        f = tmp_path / "labels.txt"
        f.write_text("-1 1:1.0\n-1 1:2.0\n")
        assert list(load_libsvm(f, m=1, lam=0.1).b[0]) == [-1.0, -1.0]

    @pytest.mark.parametrize("labels", [(1, 2, 3), (0, 0)], ids=["three-values", "one-value-not-pm1"])
    def test_label_mapping_rejected(self, tmp_path, labels):
        f = tmp_path / "labels.txt"
        f.write_text("".join(f"{y} 1:1.0\n" for y in labels))
        with pytest.raises(LibsvmParseError, match="cannot map labels"):
            load_libsvm(f, m=1, lam=0.1)

    def test_ridge_keeps_regression_targets(self, tmp_path):
        # quadratic-ridge refused them with "cannot map labels" (exit 2)
        f = tmp_path / "targets.txt"
        f.write_text("1.5 1:1.0 2:0.2\n-0.7 1:2.0\n2.25 2:3.0\n0.3 1:4.0 2:-1.0\n")
        p = load_libsvm(f, m=2, loss="quadratic-ridge", lam=0.1)
        assert sorted(p.b.ravel()) == [-0.7, 0.3, 1.5, 2.25]

    def test_ridge_fits_zero_one_labels_as_read(self, tmp_path):
        # a {0, 1} file was fitted against -1/+1 targets
        f = tmp_path / "labels.txt"
        f.write_text("0 1:1.0\n1 1:2.0\n1 1:3.0\n0 1:4.0\n")
        p = load_libsvm(f, m=1, loss="quadratic-ridge", lam=0.1)
        assert sorted(p.b[0]) == [0.0, 0.0, 1.0, 1.0]
        p = load_libsvm(f, m=1, loss="logistic", lam=0.1)
        assert sorted(p.b[0]) == [-1.0, -1.0, 1.0, 1.0]

    def test_fixture_loads_and_estimates(self):
        p = load_libsvm(FIXTURE, m=5, lam=0.05)
        assert p.m == 5 and p.n == 40 and p.d == 12
        c = problems.estimate_constants(p)
        assert c.mu_hat == pytest.approx(0.05)

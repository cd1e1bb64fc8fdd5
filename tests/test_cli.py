import collections
import csv
import dataclasses
import errno
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sonatasim import accel, cli, datagen, diagnostics, network, problems
from sonatasim.cli import ConfigError, execute_run, execute_sweep, load_config, lowerbound_check

FIXTURE = Path(__file__).parent / "data" / "sample200.libsvm"
README = Path(__file__).resolve().parents[1] / "README.md"
# many samples on few features: local Hessians nearly agree, so beta_hat < mu_hat
DEGENERATE_SYNTHETIC = {"m": 4, "n": 20000, "d": 3, "L0": 1.5}
DATASET = {"path": str(FIXTURE), "lam": 0.1}
TWO_SOURCES = {"synthetic": {"m": 6, "n": 100, "d": 5}, "dataset": dict(DATASET, m=4)}
COMMANDS = [["run"], ["sweep", "--axis", "beta_over_mu", "--points", "100"], ["estimate-constants"]]
# the commands that write an output directory
OUTPUT_COMMANDS = [
    ["run"],
    ["sweep", "--axis", "beta_over_mu", "--points", "100"],
    ["lowerbound-check", "--rho", "0.9", "--d", "8", "--rounds", "10"],
]


def base_config(tmp_path, **extra):
    cfg = {
        "seed": 5,
        "problem": {"synthetic": {"m": 8, "n": 150, "d": 10, "mu0": 1.0, "L0": 100.0, "lam": 0.0}},
        "topology": {"kind": "erdos_renyi", "p": 0.6},
        "algorithm": {"mode": "F", "K_max": 40, "target_gap": 1e-5},
        "output": str(tmp_path / "out"),
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestRun:
    def test_outputs_and_metadata(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config(tmp_path)), None)
        out = cli.output_path(cfg["output"])
        meta = execute_run(cfg, out)
        assert (out / "trajectory.csv").exists()
        assert (out / "metadata.json").exists()
        assert meta["result"]["converged"]
        with open(out / "trajectory.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == list(cli.diagnostics.CSV_FIELDS)
        comms = [int(r["comms"]) for r in rows]
        assert comms == sorted(comms) and len(set(comms)) == len(comms)
        assert comms[0] == 0
        # every effective parameter is recorded
        saved = json.loads((out / "metadata.json").read_text())
        assert saved["params"]["T"] >= 1
        assert saved["network"]["rho"] < 1
        assert saved["schema_version"] == cli.diagnostics.CSV_SCHEMA_VERSION

    def test_byte_identical_reruns(self, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            cfg = load_config(None, base_config(tmp_path, output=str(tmp_path / sub)))
            out = cli.output_path(cfg["output"])
            execute_run(cfg, out)
            blobs.append((out / "trajectory.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_mode_l_runs(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["algorithm"]["mode"] = "L"
        cfg["algorithm"]["K_max"] = 120
        cfg = load_config(None, cfg)
        out = cli.output_path(cfg["output"])
        meta = execute_run(cfg, out)
        assert meta["result"]["converged"]

    def test_mode_l_delta_override_rederives_surrogate_weight(self, tmp_path):
        # a stale weight L + delta_tuned made this run diverge to an infinite gap
        cfg = load_config(None, {
            "algorithm": {"mode": "L", "delta": 1e5, "K_max": 30},
            "problem": {"synthetic": {"m": 10, "n": 100, "d": 10}},
            "output": str(tmp_path / "out"),
        })
        out = cli.output_path(cfg["output"])
        meta = execute_run(cfg, out)
        L_hat = meta["constants"]["L_hat"]
        assert meta["params"]["surrogate_weight"] == pytest.approx(L_hat + 1e5, rel=1e-12)
        with open(out / "trajectory.csv") as fh:
            first_gap = float(next(csv.DictReader(fh))["gap"])
        final_gap = meta["result"]["final_gap"]
        assert math.isfinite(final_gap) and final_gap < first_gap

    def test_dataset_problem_block(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["problem"] = {
            "dataset": {"path": str(FIXTURE), "m": 4, "loss": "smooth-hinge", "lam": 0.1}
        }
        cfg["algorithm"]["K_max"] = 15
        cfg["algorithm"]["target_gap"] = 1e-3
        cfg = load_config(None, cfg)
        out = cli.output_path(cfg["output"])
        meta = execute_run(cfg, out)
        assert meta["constants"]["mu_hat"] == pytest.approx(0.1)

    @pytest.mark.parametrize(
        "problem,filled",
        [
            (
                {"synthetic": {"m": 8, "n": 150, "d": 10}},
                {"mu0": 1.0, "L0": 1000.0, "lam": 0.0, "noise_std": datagen.DEFAULT_NOISE_STD},
            ),
            ({"dataset": dict(DATASET, m=4)}, {"loss": "smooth-hinge", "limit": None}),
        ],
        ids=["synthetic", "dataset"],
    )
    def test_metadata_records_defaulted_problem_fields(self, tmp_path, problem, filled):
        # a replaced problem block used to leave its generator or reader
        # defaults out of effective_config
        cfg = load_config(None, base_config(tmp_path, problem=problem, output=str(tmp_path / "a")))
        cfg["algorithm"]["K_max"] = 5
        execute_run(cfg, tmp_path / "a")
        saved = json.loads((tmp_path / "a" / "metadata.json").read_text())["effective_config"]
        (kind, block), = problem.items()
        assert saved["problem"] == {kind: {**block, **filled}}
        # fed back as a config, the recorded one runs the same problem
        rerun = load_config(None, dict(saved, output=str(tmp_path / "b")))
        execute_run(rerun, tmp_path / "b")
        for name in ("trajectory.csv", "metadata.json"):
            a, b = ((tmp_path / sub / name).read_text() for sub in "ab")
            assert a == b.replace(str(tmp_path / "b"), str(tmp_path / "a"))

    def test_output_dir_env_override(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SONATASIM_OUTPUT_DIR", str(tmp_path / "redirected"))
        out = cli.output_path("runs/exp")
        assert out == tmp_path / "redirected" / "runs" / "exp"
        assert not out.exists()
        argv = ["lowerbound-check", "--rho", "0.5", "--rounds", "20", "--output", "runs/exp"]
        assert cli.main(argv) == 0
        assert (out / "lowerbound.json").is_file()

    def test_potentials_column_present_when_enabled(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["diagnostics"] = {"potentials": True}
        cfg["algorithm"]["K_max"] = 5
        cfg["algorithm"]["target_gap"] = None
        cfg = load_config(None, cfg)
        out = cli.output_path(cfg["output"])
        execute_run(cfg, out)
        with open(out / "trajectory.csv") as fh:
            rows = list(csv.DictReader(fh))
        inner = [r for r in rows if int(r["t"]) >= 1]
        assert all(r["g_plus_e"] != "" for r in inner)


class TestDefaultConfig:
    def test_default_synthetic_setup_reaches_target(self, tmp_path):
        # stock settings: 30 agents, edge probability 0.5, covariance
        # eigenvalues in [1, 1000], mode F, gap target 1e-4
        cfg = load_config(None, {"output": str(tmp_path / "default")})
        out = cli.output_path(cfg["output"])
        meta = execute_run(cfg, out)
        assert meta["result"]["converged"]
        assert meta["result"]["final_gap"] <= 1e-4


class TestConfigValidation:
    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            load_config(None, {"nonsense": 1})

    def test_unknown_algorithm_key_rejected(self):
        with pytest.raises(ConfigError, match="algorithm.bogus"):
            load_config(None, {"algorithm": {"bogus": 2}})

    def test_problem_source_exclusive(self, tmp_path):
        for problem in ({}, TWO_SOURCES):
            with pytest.raises(ConfigError, match="exactly one"):
                load_config(None, {"problem": problem})

    @pytest.mark.parametrize("problem", [[], "synthetic", None], ids=["list", "string", "null"])
    def test_problem_must_be_an_object(self, problem):
        with pytest.raises(ConfigError, match="problem: expected an object"):
            load_config(None, {"problem": problem})

    def test_missing_dataset_file(self):
        cfg = load_config(None, {"problem": {"dataset": {"path": "/no/such/file", "m": 2}}})
        with pytest.raises(ConfigError, match="no such file"):
            cli.build_problem(cfg)

    def test_bad_topology_kind(self):
        cfg = load_config(None, {"topology": {"kind": "torus"}})
        with pytest.raises(ConfigError, match="topology.kind"):
            cli.build_gossip(cfg, 4)

    def test_readme_config_example_loads_unchanged(self, tmp_path):
        # the JSON block under "Config file" lists every field, each a valid value
        section = README.read_text().split("### Config file", 1)[1]
        example = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
        assert load_config(write_config(tmp_path, example), None) == example

    def test_exact_averaging_topology(self):
        W = cli.build_gossip(load_config(None, {"topology": {"kind": "exact_averaging"}}), 5)
        assert np.array_equal(W.W, np.full((5, 5), 0.2)) and W.rho == 0.0
        cfg = load_config(None, {"topology": {"kind": "exact_averaging", "p": 0.5}})
        with pytest.raises(ConfigError, match="topology: .*'p'"):
            cli.build_gossip(cfg, 5)

    def test_exact_averaging_target_changes_nothing(self, tmp_path):
        # exact averaging is accelerated like any kind, and its spectrum of
        # zeros is a point bulk, so the accelerated operator is W bit for bit
        blobs = []
        for sub, topology in (("plain", {}), ("target", {"target_rho": 0.5})):
            cfg = base_config(tmp_path, topology={"kind": "exact_averaging", **topology})
            cfg = load_config(None, dict(cfg, output=str(tmp_path / sub)))
            out = cli.output_path(cfg["output"])
            execute_run(cfg, out)
            blobs.append((out / "trajectory.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestReadmeLibraryCode:
    """The code under README's "Library quick start" runs as written."""

    SECTION = README.read_text().split("## Library quick start", 1)[1]

    def test_quick_start_runs(self, capsys):
        scope = {}
        exec(self.SECTION.split("```python", 1)[1].split("```", 1)[0], scope)
        result = scope["result"]
        assert result.converged and result.gaps[-1] <= 1e-6
        printed = capsys.readouterr().out.split()
        assert printed == [str(result.K_done), str(result.comms), str(result.gaps[-1])]

    @pytest.mark.parametrize("target_rho", [None, 0.1], ids=["plain", "chebyshev"])
    def test_accounting_recipe_doubles_the_rounds(self, target_rho):
        # a plain matrix doubles its own count, a Chebyshev operator its base's
        recipes = re.findall(r"`(dataclasses\.replace\(W,.*?)`", self.SECTION, re.S)
        assert len(recipes) == 2
        recipe = recipes[target_rho is not None]
        W = network.metropolis_hastings(network.erdos_renyi(12, 0.4, seed=3))
        if target_rho is not None:
            W = network.chebyshev_accelerate(W, target_rho)
            assert W.rounds_per_application > 1
        doubled = eval(recipe, {"dataclasses": dataclasses, "W": W})
        assert type(doubled) is type(W)
        assert doubled.rounds_per_application == 2 * W.rounds_per_application
        assert doubled.rho == W.rho
        X = np.random.default_rng(0).standard_normal((12, 3))
        assert np.array_equal(doubled.mix(X), W.mix(X))


class TestMainEntry:
    def test_run_and_estimate_constants(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path))
        assert cli.main(["run", "-c", path]) == 0
        out = capsys.readouterr().out
        assert "converged" in out
        assert cli.main(["estimate-constants", "-c", path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mu_hat"] > 0

    def test_estimate_constants_takes_no_output_exit_2(self, tmp_path, capsys):
        # --output was accepted and ignored: exit 0, and nothing written there
        path = write_config(tmp_path, base_config(tmp_path))
        out = tmp_path / "constants"
        with pytest.raises(SystemExit) as exc:
            cli.main(["estimate-constants", "-c", path, "--output", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --output" in capsys.readouterr().err
        assert not out.exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert cli.main(["run", "-c", str(bad)]) == 2

    def test_alpha_is_not_a_config_field(self, tmp_path, capsys):
        # alpha is fixed by mu and delta, so the config has no knob for it
        path = write_config(tmp_path, base_config(tmp_path, algorithm={"alpha": 0.5}))
        assert cli.main(["run", "-c", path]) == 2
        assert "unknown config field" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode,good_calls,message",
        [
            ("F", 0, "tracking identity violated"),
            ("F", 1, "non-finite iterate"),
            ("L", 2, "tracking identity violated at outer 1: drift nan"),
        ],
        ids=["tracking-check", "local-step", "mode-L-gap"],
    )
    def test_divergence_exit_1(self, tmp_path, capsys, monkeypatch, mode, good_calls, message):
        # gradients turn NaN after good_calls calls: the first call seeds the
        # trackers and is the tracking check at outer 0; in mode F the second
        # is the local step, in mode L every later call a gossip round's refresh.
        # Each failure used to escape main as a traceback; in mode L the local
        # step takes a NaN gradient without failing, and the gap of its NaN
        # iterate raised ValueError where it is now NaN.
        batch_grads, calls = problems.batch_grads, itertools.count()

        def failing(p, X):
            return batch_grads(p, X) * (1.0 if next(calls) < good_calls else math.nan)

        monkeypatch.setattr(problems, "batch_grads", failing)
        cfg = base_config(tmp_path, problem={"dataset": dict(DATASET, m=4)})
        cfg["algorithm"]["mode"] = mode
        assert cli.main(["run", "-c", write_config(tmp_path, cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("runtime failure:") and message in err and "Traceback" not in err

    def test_state_after_last_outer_iteration_is_checked(self, tmp_path, capsys, monkeypatch):
        # the default run makes one gradient call at X = 0 and one per gossip
        # round, T = 4 with --k-max 1; the last, which no later outer
        # iteration checked, turns NaN: the run used to exit 0 and write a
        # trajectory whose last tracking_err is nan
        batch_grads, calls = problems.batch_grads, itertools.count()

        def failing(p, X):
            return batch_grads(p, X) * (1.0 if next(calls) < 4 else math.nan)

        monkeypatch.setattr(problems, "batch_grads", failing)
        out = tmp_path / "out"
        assert cli.main(["run", "--k-max", "1", "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: tracking identity violated at outer 1: drift nan")
        assert next(calls) == 5 and not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["run", "--k-max", "3"], ["lowerbound-check", "--rho", "0.9", "--d", "8", "--rounds", "10"]],
        ids=["run", "lowerbound-check"],
    )
    def test_non_finite_output_exit_1(self, tmp_path, capsys, monkeypatch, argv):
        # a NaN gap used to be written to metadata.json as NaN with exit 0
        monkeypatch.setattr(diagnostics.Oracle, "suboptimality", lambda self, X: math.nan)
        if argv[0] == "run":
            argv = [*argv, "-c", write_config(tmp_path, base_config(tmp_path))]
        assert cli.main([*argv, "--output", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("runtime failure: non-finite value")
        assert "Traceback" not in captured.err and "NaN" not in captured.out
        assert not any(f.suffix == ".json" for f in (tmp_path / "out").iterdir())

    def test_non_finite_sweep_gap_exit_1(self, tmp_path, capsys, monkeypatch):
        # a NaN gap never reached eps, so the sweep wrote not-reached with exit 0
        monkeypatch.setattr(diagnostics, "optimality_gap", lambda p, X, oracle: math.nan)
        path = write_config(tmp_path, base_config(tmp_path))
        argv = ["sweep", "-c", path, "--axis", "beta_over_mu", "--points", "100", "--eps", "1e-3"]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("runtime failure: non-finite optimality gap")
        assert "Traceback" not in captured.err
        assert not (tmp_path / "out").exists()

    def test_kappa_calibration_miss_exit_1(self, tmp_path, capsys):
        # kappa 1.01 needs a similarity that no n >= 10 reaches: the
        # calibration used to return the n = 10 instance and say nothing
        synthetic = {"m": 4, "n": 60, "d": 4, "mu0": 1.0, "L0": 50.0, "lam": 0.0}
        path = write_config(tmp_path, base_config(tmp_path, problem={"synthetic": synthetic}))
        argv = ["sweep", "-c", path, "--axis", "kappa", "--points", "1.01", "--eps", "1e-3"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: kappa point 1.01: ") and "Traceback" not in err
        assert "at n = 10 " in err and "times the target" in err
        assert not (tmp_path / "out").exists()

    def test_chebyshev_inconsistency_exit_1(self, tmp_path, capsys, monkeypatch):
        # a polynomial built on a base whose bulk is measured at half its ends
        # has a Ritz value above the closed form; the check raised a bare
        # AssertionError that escaped main
        true_spectrum = network._spectrum
        monkeypatch.setattr(network, "_spectrum", lambda W: tuple(e / 2 for e in true_spectrum(W)))
        cfg = base_config(tmp_path, topology={"kind": "erdos_renyi", "p": 0.6, "target_rho": 0.1})
        assert cli.main(["run", "-c", write_config(tmp_path, cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: chebyshev build inconsistent: mix has a Ritz value")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_deep_target_is_met_at_a_finite_scale(self, tmp_path):
        # target_rho 1e-300 was given the two-sided degree, at which T_M(psi(1))
        # overflowed, and the run exited 1; the bulk degree stops before that
        cfg = base_config(tmp_path, topology={"kind": "erdos_renyi", "p": 0.6, "target_rho": 1e-300})
        W = cli.build_gossip(cfg, 8)
        assert np.isfinite(W.scale) and W.rho <= 1e-300

    def test_overflowing_chebyshev_degree_exit_2(self, tmp_path, capsys):
        # no finite T_M reaches 1 / 5e-324: the degree search returned the
        # degree at which T_M overflowed, since 1 / inf meets any target, and
        # the build then exited 1 with "T_M(psi(1)) is nan"
        cfg = base_config(tmp_path, topology={"kind": "erdos_renyi", "p": 0.6, "target_rho": 5e-324})
        assert cli.main(["run", "-c", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: target 5e-324 not reached: T_M overflows the float range")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("m", [7, 100])
    def test_target_below_rounding_level_exit_2(self, tmp_path, capsys, m):
        # a complete graph's bulk is one point, and its affine map's rho is
        # rounding-level (1.9e-16 at m = 7); the run used to exit 0 with that
        # rho in its metadata
        cfg = base_config(tmp_path, topology={"kind": "complete", "target_rho": 1e-17})
        cfg["problem"]["synthetic"].update(m=m, n=50, d=5)
        assert cli.main(["run", "-c", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        line = r"input error: target_rho 1e-17 not reached: the built operator has rho [0-9.]+e-1[56]\n"
        assert re.fullmatch(line, err)
        assert not (tmp_path / "out").exists()

    def test_line_gossip_bracket_failure_exit_1(self, capsys, monkeypatch):
        # a line matrix whose deviation sits above the target at every weight
        monkeypatch.setattr(network, "_spectrum", lambda W: (0.0, 0.999))
        assert cli.main(["lowerbound-check", "--rho", "0.9", "--d", "8", "--rounds", "10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: bracket failure") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [["run"], ["sweep", "--axis", "beta_over_mu", "--points", "100"]],
        ids=["run", "sweep"],
    )
    def test_misspelt_problem_key_exit_2(self, tmp_path, capsys, argv):
        # problem is replaced whole, so a stray sibling of the source used to run silently
        problem = {"synthetic": base_config(tmp_path)["problem"]["synthetic"], "datset": DATASET}
        path = write_config(tmp_path, base_config(tmp_path, problem=problem))
        assert cli.main([*argv, "-c", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown config field 'problem.datset'")
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "bad_line,lineno",
        [("-1 1:0.3 2:nan", 3), ("+1 1:inf 2:0.1", 2), ("nan 1:0.2 2:0.4", 4)],
        ids=["nan-value", "inf-value", "nan-label"],
    )
    def test_non_finite_libsvm_input_exit_2(self, tmp_path, capsys, bad_line, lineno):
        # a NaN or inf value used to reach estimate_constants and end in a
        # ValueError traceback; a NaN label was mapped to +/-1 silently
        lines = ["+1 1:0.5 2:0.1", "-1 1:0.2 2:0.7", "+1 1:0.9 2:0.3", "-1 1:0.4 2:0.8"]
        lines[lineno - 1] = bad_line
        data = tmp_path / "data.libsvm"
        data.write_text("\n".join(lines) + "\n")
        cfg = base_config(tmp_path, problem={"dataset": {"path": str(data), "m": 2, "lam": 0.1}})
        assert cli.main(["run", "-c", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: line {lineno}: non-finite") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_unallocatable_libsvm_exit_2(self, tmp_path, capsys):
        # an index of 2^63 - 1 used to overflow the dense layout and exit 2
        # as "config error: problem.dataset: array is too big"
        data = tmp_path / "wide.libsvm"
        data.write_text(f"+1 1:0.5\n-1 {2**63 - 1}:1\n")
        cfg = base_config(tmp_path, problem={"dataset": {"path": str(data), "m": 1, "lam": 0.1}})
        assert cli.main(["run", "-c", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: largest feature index") and "Traceback" not in err

    @pytest.mark.parametrize(
        "problem,message",
        [
            (
                {"synthetic": {"m": 2, "n": 3, "d": 800}},
                "the covariance draw needs a dense 800 x 800 matrix",
            ),
            (
                {"synthetic": {"m": 800, "n": 4, "d": 200}},
                "the stack of generated rows needs a dense 800 x 4 x 200 array",
            ),
            (
                {"synthetic": {"m": 300, "n": 100, "d": 50}},
                "the stack of Gram statistics needs a dense 300 x 50 x 50 array",
            ),
            (
                {"dataset": {"index": 1000}},
                "the stack of Hessian bounds needs a dense 2 x 1000 x 1000 array",
            ),
            (
                {"dataset": {"index": 200000}},
                "largest feature index 200000 needs a dense 4 x 200000 matrix of 0.00596 GiB",
            ),
        ],
        ids=["covariance", "rows", "statistics", "curvature", "libsvm-rows"],
    )
    @pytest.mark.parametrize("command", ["run", "estimate-constants"])
    def test_oversized_instance_exit_2(
        self, tmp_path, capsys, monkeypatch, command, problem, message
    ):
        # each instance ended in a numpy MemoryError traceback (exit 1) once
        # its array was larger than memory; here memory is 4 MiB and every
        # array an instance needs before the one named is smaller than that
        monkeypatch.setattr(problems, "_physical_memory", lambda: 4 << 20)
        if "dataset" in problem:
            index = problem["dataset"]["index"]
            data = tmp_path / "wide.libsvm"
            data.write_text(f"+1 1:0.5\n-1 {index}:1\n+1 2:0.3\n-1 1:0.4\n")
            problem = {"dataset": {"path": str(data), "m": 2, "lam": 0.1}}
        cfg = base_config(tmp_path, problem=problem)
        assert cli.main([command, "-c", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {message}") and "more than memory" in err
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    def test_oversized_lowerbound_instance_exit_2(self, tmp_path, capsys, monkeypatch):
        # the split-quadratic statistics at rho 0.9 (5 agents) and d = 400 are 6.4 MB
        monkeypatch.setattr(problems, "_physical_memory", lambda: 4 << 20)
        argv = ["lowerbound-check", "--rho", "0.9", "--d", "400", "--output", str(tmp_path / "lb")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "input error: the stack of split-quadratic statistics needs a dense 5 x 400 x 400 array"
        )
        assert "Traceback" not in err and not (tmp_path / "lb").exists()

    @pytest.mark.parametrize(
        "kind,array",
        [
            ("exact_averaging", "the exact-averaging matrix"),
            ("line", "the dense gossip matrix of an unconverged Lanczos run"),
        ],
    )
    def test_oversized_gossip_matrix_exit_2(self, tmp_path, capsys, monkeypatch, kind, array):
        # both m x m arrays were allocated unchecked; a 1000-node line's
        # Lanczos run does not converge, so it is measured densely
        monkeypatch.setattr(problems, "_physical_memory", lambda: 4 << 20)
        problem = {"synthetic": {"m": 1000, "n": 10, "d": 4}}
        cfg = base_config(tmp_path, problem=problem, topology={"kind": kind})
        assert cli.main(["run", "-c", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err == f"input error: {array} needs a dense 1000 x 1000 matrix of 0.007451 GiB, more than memory\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [["run", "--plain", "--potentials"], ["sweep", "--axis", "kappa", "--points", "3"]],
        ids=["potentials", "kappa-sweep"],
    )
    def test_zero_similarity_exit_2(self, tmp_path, capsys, argv):
        # one agent has beta_hat = 0: mode F's error weights and the kappa
        # calibration divided by it and exited 1 with a ZeroDivisionError
        cfg = {
            "problem": {"synthetic": {"m": 1, "n": 50, "d": 5}},
            "topology": {"kind": "exact_averaging"},
            "output": str(tmp_path / "out"),
        }
        assert cli.main([*argv, "-c", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"input error: [^\n]*beta_hat = 0\.0[^\n]*\n", err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["F", "L"])
    def test_overflowing_error_weights_exit_2(self, tmp_path, capsys, mode):
        # L_hat near 1e300: squaring it in the error weights raised an
        # OverflowError traceback and exited 1
        cfg = {
            "problem": {"synthetic": {"m": 4, "n": 50, "d": 5, "mu0": 1e-300, "L0": 1e300}},
            "output": str(tmp_path / "out"),
        }
        argv = ["run", "--plain", "--potentials", "--mode", mode, "-c", write_config(tmp_path, cfg)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(rf"input error: mode {mode}'s [^\n]*error weights overflow[^\n]*\n", err)
        assert not (tmp_path / "out").exists()

    def test_ridge_runs_on_regression_targets(self, tmp_path):
        # load_libsvm mapped every file's labels to +/-1, and these exited 2
        data = tmp_path / "targets.libsvm"
        data.write_text("1.5 1:1.0 2:0.2\n-0.7 1:2.0\n2.25 2:3.0\n0.3 1:4.0 2:-1.0\n")
        dataset = {"path": str(data), "m": 2, "loss": "quadratic-ridge", "lam": 0.1}
        cfg = base_config(tmp_path, problem={"dataset": dataset})
        assert cli.main(["run", "-c", write_config(tmp_path, cfg)]) == 0
        assert (tmp_path / "out" / "trajectory.csv").exists()

    def test_unknown_loss_is_a_config_error(self, tmp_path, capsys):
        # checked before the labels are mapped, which look the loss up
        dataset = dict(DATASET, m=4, loss="hinge")
        cfg = base_config(tmp_path, problem={"dataset": dataset})
        assert cli.main(["estimate-constants", "-c", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: problem.dataset: unknown loss kind 'hinge'\n"

    @pytest.mark.parametrize("command", ["run", "estimate-constants"])
    def test_overflowing_curvature_exit_2(self, tmp_path, capsys, command):
        # a finite value of 1e200 overflowed A^T A / n: both commands printed
        # RuntimeWarnings and exited 1 on "constants must satisfy 0 < mu <= L"
        data = tmp_path / "huge.libsvm"
        data.write_text("+1 1:0.5 2:0.1\n-1 1:1e200 2:0.7\n+1 1:0.9 2:0.3\n-1 1:0.4 2:0.8\n")
        cfg = base_config(tmp_path, problem={"dataset": {"path": str(data), "m": 2, "lam": 0.1}})
        assert cli.main([command, "-c", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: the Hessian bounds overflow") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--axis", "beta_over_mu", "--points", "abc"],
            ["sweep", "--axis", "beta_over_mu", "--points", "0"],
            ["sweep", "--axis", "beta_over_mu", "--points", "100", "--eps", "-1"],
            ["run"],
        ],
        ids=["points-abc", "points-0", "eps-negative", "run-missing-dataset"],
    )
    def test_rejected_command_creates_no_output_dir(self, tmp_path, capsys, argv):
        # the output directory used to be created before these inputs were checked
        cfg = base_config(tmp_path)
        if argv[0] == "run":
            cfg["problem"] = {"dataset": dict(DATASET, path=str(tmp_path / "absent.libsvm"), m=4)}
        out = tmp_path / "rejected"
        assert cli.main([*argv, "-c", write_config(tmp_path, cfg), "--output", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["run"],
            ["sweep", "--axis", "beta_over_mu", "--points", "100"],
            ["lowerbound-check", "--rho", "0.9", "--d", "8", "--rounds", "10"],
        ],
        ids=["run", "sweep", "lowerbound-check"],
    )
    def test_empty_output_flag_exit_2(self, tmp_path, capsys, monkeypatch, argv):
        # run and sweep ignored --output "" and wrote into the config's
        # output, and lowerbound-check wrote nothing; each exited 0
        monkeypatch.chdir(tmp_path)
        if argv[0] != "lowerbound-check":
            argv = [*argv, "-c", write_config(tmp_path, base_config(tmp_path))]
        assert cli.main([*argv, "--output", ""]) == 2
        err = capsys.readouterr().err
        assert err == "config error: output: the output directory is an empty path\n"
        assert not {"out", "lowerbound.json"} & {f.name for f in tmp_path.iterdir()}

    @pytest.mark.parametrize(
        "argv",
        [["run"], ["sweep", "--axis", "beta_over_mu", "--points", "100"]],
        ids=["run", "sweep"],
    )
    def test_empty_output_in_config_exit_2(self, tmp_path, capsys, monkeypatch, argv):
        # "output": "" wrote trajectory.csv, metadata.json and summary.csv
        # into the working directory, where a sweep overwrote a run's metadata
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, base_config(tmp_path, output=""))
        assert cli.main([*argv, "-c", path]) == 2
        err = capsys.readouterr().err
        assert err == "config error: output: the output directory is an empty path\n"
        assert [f.name for f in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize(
        "argv",
        [["run"], ["sweep", "--axis", "beta_over_mu", "--points", "100"], ["estimate-constants"]],
        ids=["run", "sweep", "estimate-constants"],
    )
    def test_two_problem_sources_exit_2(self, tmp_path, capsys, argv):
        # sweep used to take the synthetic block and exit 0
        out = tmp_path / "rejected"
        cfg = base_config(tmp_path, problem=TWO_SOURCES, output=str(out))
        assert cli.main([*argv, "-c", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: problem: exactly one of 'synthetic' or 'dataset' required\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", COMMANDS, ids=[a[0] for a in COMMANDS])
    @pytest.mark.parametrize(
        "config,message",
        [
            ([], "config.json: expected an object, got []"),
            (42, "config.json: expected an object, got 42"),
            ("x", 'config.json: expected an object, got "x"'),
            (None, "config.json: expected an object, got null"),
            ({"algorithm": 5}, "algorithm: 'algorithm' takes an object, got 5"),
            ({"diagnostics": []}, "diagnostics: 'diagnostics' takes an object, got []"),
            ({"topology": 7}, "topology: 'topology' takes an object, got 7"),
            ({"regularizer": "l1"}, "regularizer: 'regularizer' takes an object, got \"l1\""),
            ({"problem": {"synthetic": 5}}, "problem: 'synthetic' takes an object, got 5"),
            ({"problem": {"dataset": 3}}, "problem: 'dataset' takes an object, got 3"),
        ],
        ids=[
            "top-array", "top-number", "top-string", "top-null", "algorithm-number",
            "diagnostics-array", "topology-number", "regularizer-string",
            "synthetic-number", "dataset-number",
        ],
    )
    def test_block_that_is_not_an_object_exit_2(
        self, tmp_path, capsys, monkeypatch, argv, config, message
    ):
        # a top-level non-object raised AttributeError in every command, each
        # block TypeError in run and sweep; estimate-constants took
        # {"algorithm": 5} and exited 0
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert cli.main([*argv, "-c", "config.json"]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert [f.name for f in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("argv", OUTPUT_COMMANDS, ids=[a[0] for a in OUTPUT_COMMANDS])
    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-a-file"])
    def test_output_that_cannot_be_a_directory_exit_2(
        self, tmp_path, capsys, monkeypatch, argv, below
    ):
        # each command ran the whole job, then raised FileExistsError or
        # NotADirectoryError with exit 1
        def no_work(p):
            raise AssertionError("constants estimated")

        monkeypatch.setattr(problems, "estimate_constants", no_work)
        blocker = tmp_path / "taken"
        blocker.write_text("kept\n")
        if argv[0] != "lowerbound-check":
            argv = [*argv, "-c", write_config(tmp_path, base_config(tmp_path))]
        assert cli.main([*argv, "--output", str(blocker / below)]) == 2
        assert capsys.readouterr().err == f"config error: output: {blocker} is not a directory\n"
        assert blocker.read_text() == "kept\n"
        assert sorted(f.name for f in tmp_path.iterdir()) == sorted(
            ["taken"] + (["config.json"] if argv[0] != "lowerbound-check" else [])
        )

    @pytest.mark.parametrize("argv", OUTPUT_COMMANDS, ids=[a[0] for a in OUTPUT_COMMANDS])
    def test_failed_output_write_exit_1(self, tmp_path, capsys, monkeypatch, argv):
        def full(path, obj):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        monkeypatch.setattr(cli, "_write_json", full)
        if argv[0] != "lowerbound-check":
            argv = [*argv, "-c", write_config(tmp_path, base_config(tmp_path))]
        assert cli.main([*argv, "--output", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: [Errno 28] No space left on device")
        assert err.count("\n") == 1

    def test_sweep_of_a_dataset_exit_2(self, tmp_path, capsys):
        cfg = base_config(tmp_path, problem={"dataset": dict(DATASET, m=4)})
        argv = ["sweep", "-c", write_config(tmp_path, cfg), "--axis", "beta_over_mu", "--points", "100"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "config error: sweep requires a synthetic problem block\n"
        assert not (tmp_path / "out").exists()

    def test_run_seed_and_potentials_flags(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path))
        assert cli.main(["run", "-c", path, "--seed", "9", "--potentials", "--k-max", "3"]) == 0
        cfg = json.loads((tmp_path / "out" / "metadata.json").read_text())["effective_config"]
        assert cfg["seed"] == 9 and cfg["diagnostics"]["potentials"]
        with open(tmp_path / "out" / "trajectory.csv") as fh:
            inner = [r for r in csv.DictReader(fh) if int(r["t"]) >= 1]
        assert inner and all(r["g_plus_e"] != "" for r in inner)

    def test_lowerbound_support_violation_exit_1(self, capsys, monkeypatch):
        # a cut this long allows no support growth past the first two indices
        monkeypatch.setattr(network, "cut_distance", lambda m: 10**6)
        assert cli.main(["lowerbound-check", "--rho", "0.9", "--d", "8", "--rounds", "30"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["support_ok"] is False
        assert captured.err == "support-propagation invariant violated\n"

    def test_library_runtime_errors_share_one_base(self):
        # main maps this base to exit 1 with one except clause
        for cls in (
            diagnostics.OracleNotConvergedError,
            network.TopologyError,
            problems.DivergenceError,
        ):
            assert issubclass(cls, problems.RuntimeFailure)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("plain", True),
            ("sweep_T_extra", 4),
            ("count_half_duplex", False),
            ("c_seq", 2),
            ("c_seq", True),
            ("tuning_variant", "x"),
            ("mu_override", 0.5),
        ],
    )
    def test_removed_algorithm_fields_rejected(self, tmp_path, capsys, field, value):
        path = write_config(tmp_path, base_config(tmp_path, algorithm={field: value}))
        assert cli.main(["run", "-c", path]) == 2
        assert "unknown config field" in capsys.readouterr().err

    def test_plain_flag_runs_on_degenerate_constants(self, tmp_path, capsys):
        # beta_hat < mu_hat: mode F cannot accelerate, but delta = 0 runs anyway
        cfg = base_config(tmp_path, problem={"synthetic": DEGENERATE_SYNTHETIC})
        path = write_config(tmp_path, cfg)
        assert cli.main(["run", "-c", path]) == 2
        assert "--plain" in capsys.readouterr().err
        assert cli.main(["run", "-c", path, "--plain"]) == 0
        meta = json.loads((Path(cfg["output"]) / "metadata.json").read_text())
        assert meta["params"]["delta"] == 0.0
        assert meta["params"]["alpha"] == 1.0
        assert meta["effective_config"]["algorithm"]["delta"] == 0.0

    @pytest.mark.parametrize(
        "block,argv",
        [
            ({"topology": {"kind": "erdos_renyi", "p": 0.6, "target_rho": 0}}, None),
            (
                {"problem": {"dataset": {"path": str(FIXTURE), "m": 4, "loss": "logistic", "lam": 0}}},
                None,
            ),
            ({"problem": {"synthetic": DEGENERATE_SYNTHETIC}}, None),
            (None, ["lowerbound-check", "--rho", "0.9999999"]),
        ],
        ids=["target-rho-zero", "logistic-lam-zero", "degenerate-similarity", "too-many-nodes"],
    )
    def test_library_input_errors_exit_2(self, tmp_path, capsys, block, argv):
        # each of these used to escape main as a traceback with exit 1
        if block is not None:
            argv = ["run", "-c", write_config(tmp_path, base_config(tmp_path, **block))]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "field,value",
        [
            ("T", 0),
            ("T", 2.5),
            ("delta", -1),
            ("delta", math.nan),
            ("K_max", "a"),
            ("target_gap", "x"),
            ("target_gap", "1e-3"),
            ("target_gap", -1),
            ("target_gap", 0),
        ],
    )
    def test_bad_algorithm_values_exit_2(self, tmp_path, capsys, field, value):
        # each of these used to escape main as a traceback with exit 1
        path = write_config(tmp_path, base_config(tmp_path, algorithm={field: value}))
        assert cli.main(["run", "-c", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "block,config",
        [
            ("problem.synthetic", {"synthetic": {"m": 8, "d": 10}}),
            ("problem.synthetic", {"synthetic": {"m": 8, "n": 150, "d": 10, "L_0": 5}}),
            ("problem.synthetic", {"synthetic": {"m": 4.5, "n": 150, "d": 10}}),
            ("problem.synthetic", {"synthetic": {"m": "x", "n": 150, "d": 10}}),
            ("problem.synthetic", {"synthetic": {"m": 8, "n": 150, "d": True}}),
            ("regularizer", {"kind": "l1"}),
            ("regularizer", {"kind": "box"}),
            ("regularizer", {"kind": "box", "lo": 1, "hi": 0}),
            ("regularizer", {"kind": "zero", "weight": 5}),
            ("regularizer", {"kind": "box", "lo": 0, "hi": 1, "weight": 0.1}),
            ("topology", {"kind": "erdos_renyi", "p": 0.6, "target-rho": 0.01}),
            ("topology", {"kind": "line", "p": 0.3}),
            ("topology", {"kind": "erdos_renyi", "p": 2}),
            ("topology", {"kind": "line", "seed": 3}),
            ("topology", {"kind": "exact_averaging", "target_rho": 7}),
            ("topology", {"kind": "exact_averaging", "target_rho": "abc"}),
            ("problem.dataset", {"dataset": dict(DATASET)}),
            ("problem.dataset", {"dataset": dict(DATASET, m=4, loss_kind="logistic")}),
            ("problem.dataset", {"dataset": dict(DATASET, m=4, loss="logit")}),
            ("problem.dataset", {"dataset": dict(DATASET, m=4, limit=-40)}),
        ],
        ids=[
            "synthetic-missing-n", "synthetic-L_0", "synthetic-fractional-m", "synthetic-string-m",
            "synthetic-bool-d",
            "l1-without-weight", "box-without-bounds", "box-lo-above-hi",
            "zero-with-weight", "box-with-weight",
            "target-rho-misspelt", "line-with-p", "erdos-renyi-p-2", "line-with-seed",
            "exact-averaging-target-7", "exact-averaging-target-string",
            "dataset-missing-m", "dataset-loss_kind", "dataset-unknown-loss",
            "dataset-negative-limit",
        ],
    )
    def test_bad_block_fields_exit_2(self, tmp_path, capsys, block, config):
        # each of these used to run silently or escape main as a traceback with exit 1
        key = block.split(".")[0]
        path = write_config(tmp_path, base_config(tmp_path, **{key: config}))
        assert cli.main(["run", "-c", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {block}:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "field,block",
        [
            ("problem.synthetic.lam", {"problem": {"synthetic": {"m": 8, "n": 150, "d": 10, "lam": True}}}),
            ("problem.synthetic.mu0", {"problem": {"synthetic": {"m": 8, "n": 150, "d": 10, "mu0": True}}}),
            ("problem.synthetic.L0", {"problem": {"synthetic": {"m": 8, "n": 150, "d": 10, "L0": True}}}),
            ("problem.synthetic.noise_std",
             {"problem": {"synthetic": {"m": 8, "n": 150, "d": 10, "noise_std": False}}}),
            ("problem.dataset.lam", {"problem": {"dataset": dict(DATASET, m=4, lam=True)}}),
            ("regularizer.weight", {"regularizer": {"kind": "l1", "weight": True}}),
            ("regularizer.lo", {"regularizer": {"kind": "box", "lo": False, "hi": 1.0}}),
            ("regularizer.hi", {"regularizer": {"kind": "box", "lo": 0.0, "hi": True}}),
            ("topology.p", {"topology": {"kind": "erdos_renyi", "p": True}}),
            ("topology.target_rho", {"topology": {"kind": "erdos_renyi", "p": 0.6, "target_rho": True}}),
            ("algorithm.target_gap", {"algorithm": {"target_gap": True}}),
            ("algorithm.T", {"algorithm": {"T": True}}),
            ("topology.seed", {"topology": {"kind": "erdos_renyi", "p": 0.6, "seed": True}}),
            ("algorithm.K_max", {"algorithm": {"K_max": True}}),
            ("algorithm.delta", {"algorithm": {"delta": False}}),
            ("seed", {"seed": True}),
            ("algorithm.target_gap", {"algorithm": {"target_gap": math.inf}}),
        ],
    )
    def test_boolean_or_non_finite_in_numeric_field_exit_2(self, tmp_path, capsys, field, block):
        # float(True) == 1.0: each boolean used to run to exit 0 with the field read as 1
        path = write_config(tmp_path, base_config(tmp_path, **block))
        assert cli.main(["run", "-c", path]) == 2
        block, _, leaf = field.rpartition(".")
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {block or leaf}: {leaf!r}") and "Traceback" not in err

    @pytest.mark.parametrize(
        "field,block",
        [
            ("diagnostics.potentials", {"diagnostics": {"potentials": "no"}}),
            ("diagnostics.potentials", {"diagnostics": {"potentials": 1}}),
            ("topology.kind", {"topology": {"kind": [1]}}),
            ("output", {"output": 5}),
        ],
        ids=["potentials-string", "potentials-number", "topology-kind-array", "output-number"],
    )
    def test_other_type_in_boolean_or_string_field_exit_2(self, tmp_path, capsys, field, block):
        # "no" and 1 turned the potentials on and were recorded; [1] and 5
        # escaped main as TypeError tracebacks with exit 1
        path = write_config(tmp_path, base_config(tmp_path, **block))
        assert cli.main(["run", "-c", path]) == 2
        block, _, leaf = field.rpartition(".")
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {block or leaf}: {leaf!r} takes a ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", [[1], -1, 1.5, "1"])
    def test_topology_seed_must_be_an_integer(self, tmp_path, capsys, seed):
        # [1] was taken as numpy entropy and ran to exit 0
        topology = {"kind": "erdos_renyi", "p": 0.6, "seed": seed}
        path = write_config(tmp_path, base_config(tmp_path, topology=topology))
        assert cli.main(["run", "-c", path]) == 2
        assert capsys.readouterr().err.startswith("config error: topology: seed must be an integer")

    @pytest.mark.parametrize("seed", [[1], None])
    def test_dataset_seed_must_be_an_integer(self, tmp_path, capsys, seed):
        # [1] was taken as numpy entropy and null as fresh entropy from the
        # operating system, a different shuffle on every run; both ran to exit 0
        problem = {"dataset": dict(DATASET, m=4, seed=seed)}
        path = write_config(tmp_path, base_config(tmp_path, problem=problem))
        assert cli.main(["run", "-c", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: problem.dataset: seed must be an integer")

    def test_boolean_field_still_takes_a_boolean(self, tmp_path):
        cfg = load_config(None, {"diagnostics": {"potentials": True}})
        assert cfg["diagnostics"]["potentials"] is True

    def test_oracle_tol_is_not_a_config_field(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path, diagnostics={"oracle_tol": 1e-10}))
        assert cli.main(["run", "-c", path]) == 2
        assert "unknown config field 'diagnostics.oracle_tol'" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["subproblem_tol", "max_inner_iters"])
    def test_local_step_accuracy_is_not_a_config_field(self, tmp_path, capsys, field):
        # the local step's floor and cap are sonata.SUBPROBLEM_TOL and MAX_INNER_ITERS
        path = write_config(tmp_path, base_config(tmp_path, algorithm={field: 1}))
        assert cli.main(["run", "-c", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: unknown config field 'algorithm.{field}'")
        assert not (tmp_path / "out").exists()

    def test_missing_config_file_exit_2(self, tmp_path, capsys):
        assert cli.main(["run", "-c", str(tmp_path / "absent.json")]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--rho", "nan"],
            ["--rho", "1.5"],
            ["--rho", "0"],
            ["--rho", "0.9", "--mu", "nan"],
            ["--rho", "0.9", "--beta", "0"],
            ["--rho", "0.9", "--d", "5"],
            ["--rho", "0.9", "--rounds", "0"],
        ],
        ids=["rho-nan", "rho-1.5", "rho-0", "mu-nan", "beta-0", "d-odd", "rounds-0"],
    )
    def test_bad_lowerbound_flags_exit_2(self, capsys, flags):
        # each of these used to escape main as a ValueError traceback with
        # exit 1; --rounds 0 ran one outer iteration
        assert cli.main(["lowerbound-check", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "Traceback" not in err

    def test_library_input_errors_share_one_base(self):
        # main maps this base to exit 2 with one except clause
        for cls in (
            datagen.LibsvmParseError,
            datagen.InsufficientDataError,
            network.UnreachableTargetError,
            network.InstanceTooLargeError,
            problems.DegenerateProblemError,
            accel.DegenerateSimilarityError,
            accel.PerfectlyConditionedError,
        ):
            assert issubclass(cls, problems.InputError)

    def test_lowerbound_subcommand(self, tmp_path, capsys):
        rc = cli.main(
            ["lowerbound-check", "--rho", "0.9", "--d", "8", "--mu", "0.02",
             "--beta", "0.5", "--rounds", "30", "--output", str(tmp_path / "lb")]
        )
        assert rc == 0
        report = json.loads((tmp_path / "lb" / "lowerbound.json").read_text())
        assert report["support_ok"]
        assert abs(report["rho_achieved"] - 0.9) <= 1e-6

    def test_sweep_subcommand(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        cfg["problem"]["synthetic"]["m"] = 6
        cfg["problem"]["synthetic"]["d"] = 8
        path = write_config(tmp_path, cfg)
        rc = cli.main(
            ["sweep", "-c", path, "--axis", "beta_over_mu", "--points", "100,400", "--eps", "1e-3"]
        )
        assert rc == 0
        with open(Path(cfg["output"]) / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[0]["beta_over_mu_hat"]) > float(rows[1]["beta_over_mu_hat"])


class TestSweep:
    def test_one_gossip_build_and_one_oracle_per_point(self, tmp_path, monkeypatch):
        counts = collections.Counter()

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(cli, "build_gossip")
        count(diagnostics, "centralized_solve")
        cfg = load_config(None, base_config(tmp_path))
        rows = execute_sweep(cfg, "beta_over_mu", [100.0, 400.0], tmp_path / "sweep", 1e-3)
        assert len(rows) == 2
        assert counts == {"build_gossip": 1, "centralized_solve": 2}

    def test_degenerate_mode_f_runs_plain(self, tmp_path):
        # beta_hat < mu_hat leaves mode F nothing to accelerate: it runs delta = 0
        cfg = load_config(None, {
            "seed": 2,
            "problem": {"synthetic": {"m": 6, "n": 400, "d": 4, "mu0": 1, "L0": 1}},
            "output": str(tmp_path / "out"),
        })
        row = execute_sweep(cfg, "beta_over_mu", [400.0], tmp_path / "out", 1e-4)[0]
        assert row["beta_over_mu_hat"] < 1
        assert row["comms_F"] == 6

    def test_not_reached_recorded(self, tmp_path):
        cfg = load_config(None, base_config(tmp_path))
        cfg["algorithm"]["K_max"] = 1  # far too few outer iterations
        out = cli.output_path(cfg["output"])
        rows = execute_sweep(cfg, "beta_over_mu", [100.0], out, 1e-12)
        assert rows[0]["comms_F"] is None
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["comms_F"] == "not-reached"

    def test_empty_points_rejected(self, tmp_path):
        cfg = load_config(None, base_config(tmp_path))
        out = cli.output_path(cfg["output"])
        with pytest.raises(ConfigError, match="at least one"):
            execute_sweep(cfg, "beta_over_mu", [], out, 1e-3)

    @pytest.mark.parametrize("eps", [math.nan, -1.0, 0.0, math.inf, None, "1e-3"])
    def test_bad_eps_rejected(self, tmp_path, eps):
        # a NaN eps used to be echoed into metadata.json; -1 ran to "not-reached"
        cfg = load_config(None, base_config(tmp_path))
        out = cli.output_path(cfg["output"])
        with pytest.raises(ConfigError, match="eps"):
            execute_sweep(cfg, "beta_over_mu", [100], out, eps)

    @pytest.mark.parametrize("value", ["1e-3", None], ids=["string", "null"])
    def test_target_gap_not_a_number_exit_2(self, tmp_path, capsys, value):
        # a string target used to run and be echoed into metadata.json as a
        # string; null, no target, is a run's choice and means nothing to a sweep
        cfg = base_config(tmp_path)
        cfg["algorithm"]["target_gap"] = value
        argv = ["sweep", "-c", write_config(tmp_path, cfg), "--axis", "beta_over_mu", "--points", "100"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: sweep eps (algorithm.target_gap):")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "block,field,value",
        [("algorithm", "T", 1), ("algorithm", "mode", "L"), ("diagnostics", "potentials", True)],
    )
    def test_fields_a_sweep_does_not_use_exit_2(self, tmp_path, capsys, block, field, value):
        # the sweep sets T and mode itself and records no potentials, yet each
        # value used to be recorded in metadata.json with exit 0
        cfg = base_config(tmp_path, diagnostics={})
        cfg[block][field] = value
        argv = ["sweep", "-c", write_config(tmp_path, cfg), "--axis", "beta_over_mu", "--points", "100"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {block}.{field}: a sweep ")
        assert not (tmp_path / "out").exists()

    def test_lam_on_the_kappa_axis_exit_2(self, tmp_path, capsys):
        # the kappa axis sets lam per point: lam 5.0 and 0.0 gave identical
        # rows, yet metadata.json recorded 5.0, with exit 0
        cfg = base_config(tmp_path)
        cfg["problem"]["synthetic"].update(m=6, n=400, d=6, lam=5.0)
        path = write_config(tmp_path, cfg)
        argv = ["sweep", "-c", path, "--axis", "kappa", "--points", "20,10", "--eps", "1e-3"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            "config error: problem.synthetic.lam: the kappa axis sets lam per point; "
            "leave it at 0.0, got 5.0\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("eps_flag,recorded", [(["--eps", "1e-3"], 1e-3), ([], 1e-5)])
    def test_eps_is_the_recorded_target_gap(self, tmp_path, capsys, eps_flag, recorded):
        # the config's target_gap, unused, used to be recorded next to --eps;
        # without --eps the sweep runs to it
        cfg = base_config(tmp_path)
        cfg["algorithm"]["target_gap"] = 0.5 if eps_flag else 1e-5
        path = write_config(tmp_path, cfg)
        assert cli.main(["sweep", "-c", path, "--axis", "beta_over_mu", "--points", "100", *eps_flag]) == 0
        meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
        assert "eps" not in meta
        assert meta["effective_config"]["algorithm"]["target_gap"] == recorded

    def test_samples_axis_is_gone(self, tmp_path):
        # it was a second name for beta_over_mu, building the same instances
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--axis", "samples", "--points", "100"])
        assert exc.value.code == 2
        cfg = load_config(None, base_config(tmp_path))
        with pytest.raises(ConfigError, match="unknown sweep axis"):
            execute_sweep(cfg, "samples", [100], tmp_path / "out", 1e-3)
        assert not (tmp_path / "out").exists()

    def test_kappa_target_below_one_rejected(self, tmp_path):
        cfg = load_config(None, base_config(tmp_path))
        out = cli.output_path(cfg["output"])
        with pytest.raises(ConfigError, match="exceed 1"):
            execute_sweep(cfg, "kappa", [0.5], out, 1e-3)

    @pytest.mark.parametrize(
        "axis,points",
        [
            ("beta_over_mu", "abc"),
            ("beta_over_mu", "nan"),
            ("beta_over_mu", "0"),
            ("beta_over_mu", "-5"),
            ("beta_over_mu", "100.7"),
            ("beta_over_mu", "150,inf"),
            ("kappa", "nan"),
            ("kappa", "inf"),
            ("kappa", "20,1"),
            ("beta_over_mu", "100,,300"),
            ("beta_over_mu", "100,"),
            ("beta_over_mu", ",100"),
            ("kappa", "20,,10"),
        ],
    )
    def test_bad_points_rejected_before_any_instance(
        self, tmp_path, capsys, monkeypatch, axis, points
    ):
        # each used to end in a traceback, run a truncated n, run the whole
        # sweep before failing on a non-finite output, or drop an empty entry
        def no_instance(*args, **kwargs):
            raise AssertionError("an instance was built")

        monkeypatch.setattr(datagen, "gen_ridge", no_instance)
        path = write_config(tmp_path, base_config(tmp_path))
        assert cli.main(["sweep", "-c", path, "--axis", axis, "--points", points]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        if "" in points.split(","):
            assert err == f"config error: --points: not a list of numbers: {points!r}\n"
        assert not (tmp_path / "out" / "summary.csv").exists()

    def test_kappa_axis_holds_similarity_ratio(self, tmp_path):
        cfg = load_config(None, base_config(tmp_path))
        cfg["problem"]["synthetic"].update({"m": 10, "d": 15, "n": 1500, "L0": 300.0})
        out = cli.output_path(cfg["output"])
        rows = execute_sweep(cfg, "kappa", [40.0, 12.0], out, 1e-3)
        bm = [r["beta_over_mu_hat"] for r in rows]
        assert abs(bm[0] - bm[1]) / min(bm) <= 0.3
        kap = [r["kappa_hat"] for r in rows]
        assert kap[0] > 2.0 * kap[1]

    def test_kappa_sweep_generates_each_instance_once(self, tmp_path, monkeypatch):
        # a lam = 0 point used to regenerate the sweep's probe as its first
        # calibration probe, a calibration that revisits an n (here the
        # second point's) regenerated that instance, and each lam > 0 point
        # regenerated the base n; A and b do not depend on lam
        made = []
        gen_ridge = datagen.gen_ridge

        def recording(cfg):
            made.append(cfg)
            return gen_ridge(cfg)

        synthetic = {"m": 8, "n": 400, "d": 6, "mu0": 1.0, "L0": 100.0, "lam": 0.0}
        cfg = load_config(None, base_config(tmp_path, seed=3, problem={"synthetic": synthetic}))
        kappa0 = problems.estimate_constants(gen_ridge(cli.ridge_config(cfg))).kappa_hat
        monkeypatch.setattr(datagen, "gen_ridge", recording)
        out = cli.output_path(cfg["output"])
        rows = execute_sweep(cfg, "kappa", [kappa0, kappa0 / 2.0], out, 1e-3)
        assert rows[0]["lam"] == 0.0 and rows[1]["lam"] > 0.0
        assert len(made) == len(set(made)) >= 3
        assert len(made) == len({c.n for c in made})

    def test_kappa_calibration_probes_each_size_once(self, tmp_path, monkeypatch):
        # the secant steps on this point used to wander: n = 400, 39, 21, 30,
        # 26, 31, 19, 26, 29, 27, probing 26 twice; a step outside the
        # bracket now probes its geometric midpoint
        calibrate, probed = cli.calibrate_n_for_beta, []

        def recording(instance, *args):
            return calibrate(lambda n: probed.append(n) or instance(n), *args)

        synthetic = {"m": 8, "n": 400, "d": 6, "L0": 100}
        cfg = load_config(None, base_config(tmp_path, seed=3, problem={"synthetic": synthetic}))
        kappa0 = problems.estimate_constants(datagen.gen_ridge(cli.ridge_config(cfg))).kappa_hat
        monkeypatch.setattr(cli, "calibrate_n_for_beta", recording)
        rows = execute_sweep(cfg, "kappa", [kappa0 / 2.0], cli.output_path(cfg["output"]), 1e-3)
        assert len(rows) == 1 and rows[0]["lam"] > 0.0
        assert probed[0] == 400 and len(probed) == len(set(probed)) <= 6


class TestLowerboundCheck:
    def test_report_fields(self):
        report = lowerbound_check(0.02, 0.5, 0.9, 8, rounds=30)
        assert abs(report["rho_achieved"] - 0.9) <= 1e-6
        assert report["support_ok"]
        assert report["d_c"] >= 1
        assert report["m"] >= 3
        assert report["cut_bound_ok"]

    def test_small_rho_two_nodes(self):
        report = lowerbound_check(0.05, 0.4, 0.5, 8, rounds=20)
        assert report["m"] == 2
        assert report["cut_bound_ok"] is None
        assert report["support_ok"]


def _typed_leaves(block, path=()):
    """(path, default) of each leaf of a config block with a boolean, string
    or number default."""
    for key, val in block.items():
        if isinstance(val, dict):
            yield from _typed_leaves(val, path + (key,))
        elif isinstance(val, (bool, str, int, float)):
            yield path + (key,), val


def _json_type(value) -> str:
    kinds = {bool: "boolean", str: "string", int: "number", float: "number"}
    kinds.update({type(None): "null", list: "array", dict: "object"})
    return kinds[type(value)]


# one value of each JSON type; algorithm.target_gap takes null (no early stop)
OTHER_TYPED = [
    (".".join(leaf), value)
    for leaf, default in _typed_leaves(cli.DEFAULT_CONFIG)
    for value in ("text", 3, True, None, [1], {"a": 1})
    if _json_type(value) != _json_type(default)
    and not (leaf == ("algorithm", "target_gap") and value is None)
]


@pytest.mark.parametrize("field,value", OTHER_TYPED)
def test_every_leaf_rejects_a_value_of_another_type(tmp_path, capsys, field, value):
    cfg = json.loads(json.dumps(cli.DEFAULT_CONFIG))
    cfg["problem"]["synthetic"] = {"m": 4, "n": 20, "d": 3}
    cfg["algorithm"]["K_max"] = 2
    cfg["output"] = str(tmp_path / "out")
    *parents, leaf = field.split(".")
    block = cfg
    for key in parents:
        block = block[key]
    block[leaf] = value
    assert cli.main(["run", "-c", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


class TestProcessExit:
    """``python -m sonatasim.cli`` exits with main's code and prints no traceback."""

    def _run(self, tmp_path, *argv, stdin=None):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run(
            [sys.executable, "-m", "sonatasim.cli", *argv],
            stdin=stdin, capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
        )

    def test_estimate_constants_exit_0(self, tmp_path):
        cfg = {"problem": {"synthetic": {"m": 4, "n": 30, "d": 3}}}
        proc = self._run(tmp_path, "estimate-constants", "-c", write_config(tmp_path, cfg))
        assert proc.returncode == 0 and "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["mu_hat"] > 0

    def test_dataset_path_must_be_a_string(self, tmp_path):
        # path 0 read the dataset from file descriptor 0, stdin, and ran to exit 0
        cfg = {"problem": {"dataset": dict(DATASET, m=4, path=0)}, "output": str(tmp_path / "out")}
        with open(FIXTURE) as stdin:
            proc = self._run(tmp_path, "run", "-c", write_config(tmp_path, cfg), stdin=stdin)
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("config error: problem.dataset.path:")
        assert not (tmp_path / "out").exists()

    def test_config_error_exit_2(self, tmp_path):
        cfg = {"problem": TWO_SOURCES, "output": str(tmp_path / "out")}
        path = write_config(tmp_path, cfg)
        proc = self._run(tmp_path, "sweep", "-c", path, "--axis", "beta_over_mu", "--points", "100")
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("config error:")

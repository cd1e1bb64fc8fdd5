import csv
import json
import math
from pathlib import Path

import pytest

from sonatasim import accel, cli, datagen, network, problems
from sonatasim.cli import ConfigError, execute_run, execute_sweep, load_config, lowerbound_check

FIXTURE = Path(__file__).parent / "data" / "sample200.libsvm"
# many samples on few features: local Hessians nearly agree, so beta_hat < mu_hat
DEGENERATE_SYNTHETIC = {"m": 4, "n": 20000, "d": 3, "L0": 1.5}
DATASET = {"path": str(FIXTURE), "lam": 0.1}


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
        cfg = load_config(write_config(tmp_path, base_config(tmp_path)))
        out = cli.resolve_output(cfg["output"])
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
            out = cli.resolve_output(cfg["output"])
            execute_run(cfg, out)
            blobs.append((out / "trajectory.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_mode_l_runs(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["algorithm"]["mode"] = "L"
        cfg["algorithm"]["K_max"] = 120
        cfg = load_config(None, cfg)
        out = cli.resolve_output(cfg["output"])
        meta = execute_run(cfg, out)
        assert meta["result"]["converged"]

    def test_mode_l_delta_override_rederives_surrogate_weight(self, tmp_path):
        # a stale weight L + delta_tuned made this run diverge to an infinite gap
        cfg = load_config(None, {
            "algorithm": {"mode": "L", "delta": 1e5, "K_max": 30},
            "problem": {"synthetic": {"m": 10, "n": 100, "d": 10}},
            "output": str(tmp_path / "out"),
        })
        out = cli.resolve_output(cfg["output"])
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
        out = cli.resolve_output(cfg["output"])
        meta = execute_run(cfg, out)
        assert meta["constants"]["mu_hat"] == pytest.approx(0.1)

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SONATASIM_OUTPUT_DIR", str(tmp_path / "redirected"))
        out = cli.resolve_output("runs/exp")
        assert out == tmp_path / "redirected" / "runs" / "exp"
        assert out.is_dir()

    def test_potentials_column_present_when_enabled(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["diagnostics"] = {"potentials": True}
        cfg["algorithm"]["K_max"] = 5
        cfg["algorithm"]["target_gap"] = None
        cfg = load_config(None, cfg)
        out = cli.resolve_output(cfg["output"])
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
        out = cli.resolve_output(cfg["output"])
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
        cfg = load_config(None, {"problem": {}})
        with pytest.raises(ConfigError, match="exactly one"):
            cli.build_problem(cfg)

    def test_missing_dataset_file(self):
        cfg = load_config(None, {"problem": {"dataset": {"path": "/no/such/file", "m": 2}}})
        with pytest.raises(ConfigError, match="no such file"):
            cli.build_problem(cfg)

    def test_bad_topology_kind(self):
        cfg = load_config(None, {"topology": {"kind": "torus"}})
        with pytest.raises(ConfigError, match="topology.kind"):
            cli.build_gossip(cfg, 4)


class TestMainEntry:
    def test_run_and_estimate_constants(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path))
        assert cli.main(["run", "-c", path]) == 0
        out = capsys.readouterr().out
        assert "converged" in out
        assert cli.main(["estimate-constants", "-c", path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mu_hat"] > 0

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
        "field,value", [("plain", True), ("sweep_T_extra", 4), ("count_half_duplex", False)]
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
            ("tuning_variant", "x"),
            ("mu_override", -1),
            ("mu_override", 0),
            ("c_seq", 2),
            ("T", 0),
            ("T", 2.5),
            ("delta", -1),
            ("delta", math.nan),
            ("K_max", "a"),
            ("target_gap", "x"),
            ("subproblem_tol", "x"),
            ("max_inner_iters", "x"),
            ("subproblem_tol", -1),
            ("subproblem_tol", 0),
            ("subproblem_tol", math.nan),
            ("max_inner_iters", 0),
            ("max_inner_iters", 2.5),
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
            ("regularizer", {"kind": "l1"}),
            ("regularizer", {"kind": "box"}),
            ("regularizer", {"kind": "box", "lo": 1, "hi": 0}),
            ("topology", {"kind": "erdos_renyi", "p": 0.6, "target-rho": 0.01}),
            ("topology", {"kind": "line", "p": 0.3}),
            ("topology", {"kind": "erdos_renyi", "p": 2}),
            ("problem.dataset", {"dataset": dict(DATASET)}),
            ("problem.dataset", {"dataset": dict(DATASET, m=4, loss_kind="logistic")}),
            ("problem.dataset", {"dataset": dict(DATASET, m=4, loss="logit")}),
        ],
        ids=[
            "synthetic-missing-n", "synthetic-L_0", "synthetic-fractional-m", "synthetic-string-m",
            "l1-without-weight", "box-without-bounds", "box-lo-above-hi",
            "target-rho-misspelt", "line-with-p", "erdos-renyi-p-2",
            "dataset-missing-m", "dataset-loss_kind", "dataset-unknown-loss",
        ],
    )
    def test_bad_block_fields_exit_2(self, tmp_path, capsys, block, config):
        # each of these used to run silently or escape main as a traceback with exit 1
        key = block.split(".")[0]
        path = write_config(tmp_path, base_config(tmp_path, **{key: config}))
        assert cli.main(["run", "-c", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {block}:") and "Traceback" not in err

    def test_oracle_tol_is_not_a_config_field(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config(tmp_path, diagnostics={"oracle_tol": 1e-10}))
        assert cli.main(["run", "-c", path]) == 2
        assert "unknown config field 'diagnostics.oracle_tol'" in capsys.readouterr().err

    def test_missing_config_file_exit_2(self, tmp_path, capsys):
        assert cli.main(["run", "-c", str(tmp_path / "absent.json")]) == 2
        assert capsys.readouterr().err.startswith("config error:")

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
            ["sweep", "-c", path, "--axis", "samples", "--points", "100,400", "--eps", "1e-3"]
        )
        assert rc == 0
        with open(Path(cfg["output"]) / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[0]["beta_over_mu_hat"]) > float(rows[1]["beta_over_mu_hat"])


class TestSweep:
    def test_not_reached_recorded(self, tmp_path):
        cfg = load_config(None, base_config(tmp_path))
        cfg["algorithm"]["K_max"] = 1  # far too few outer iterations
        out = cli.resolve_output(cfg["output"])
        meta = execute_sweep(cfg, "samples", [100.0], out, 1e-12)
        assert meta["rows"][0]["comms_F"] is None
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["comms_F"] == "not-reached"

    def test_empty_points_rejected(self, tmp_path):
        cfg = load_config(None, base_config(tmp_path))
        out = cli.resolve_output(cfg["output"])
        with pytest.raises(ConfigError, match="at least one"):
            execute_sweep(cfg, "samples", [], out, 1e-3)

    def test_kappa_target_below_one_rejected(self, tmp_path):
        cfg = load_config(None, base_config(tmp_path))
        out = cli.resolve_output(cfg["output"])
        with pytest.raises(ConfigError, match="exceed 1"):
            execute_sweep(cfg, "kappa", [0.5], out, 1e-3)

    def test_kappa_axis_holds_similarity_ratio(self, tmp_path):
        cfg = load_config(None, base_config(tmp_path))
        cfg["problem"]["synthetic"].update({"m": 10, "d": 15, "n": 1500, "L0": 300.0})
        out = cli.resolve_output(cfg["output"])
        meta = execute_sweep(cfg, "kappa", [40.0, 12.0], out, 1e-3)
        rows = meta["rows"]
        bm = [r["beta_over_mu_hat"] for r in rows]
        assert abs(bm[0] - bm[1]) / min(bm) <= 0.3
        kap = [r["kappa_hat"] for r in rows]
        assert kap[0] > 2.0 * kap[1]


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

import json
import re
from pathlib import Path

import numpy as np
import pytest

from ssue import NumericalFailureError, monte_carlo, tracking_preset
from ssue.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
SUMMARY_KEYS = ["seed", "steps", "identified", "identification_correct", "final_mu",
                "final_delta_hat", "true_delta", "final_delta_abs_error", "rmse"]

LINEAR_MODEL = {
    "A": [[1.0, 0.0], [0.0, 1.0]],
    "locations": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
    "delta_domain": [[-0.1, -0.1]],
    "Q": [[0.001, 0.0], [0.0, 0.001]],
    "R": [[0.5, 0.0], [0.0, 0.5]],
    "P0": [[1.0, 0.0], [0.0, 1.0]],
    "measurement": {"type": "linear", "C": [[1.0, 0.0], [0.0, 1.0]]},
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def preset_config(tmp_path, out="out", **scenario):
    scenario = {"steps": 30, "seed": 5, **scenario}
    return write_config(tmp_path, {"scenario": scenario,
                                   "output_dir": str(tmp_path / out)})


class TestSimulateCommand:
    def test_happy_path_writes_files(self, tmp_path):
        cfg = preset_config(tmp_path)
        assert main(["simulate", "--config", cfg]) == 0
        out = tmp_path / "out"
        truth = (out / "truth.csv").read_text().strip().splitlines()
        meas = (out / "measurements.csv").read_text().strip().splitlines()
        assert len(truth) == 31 and len(meas) == 31  # header + steps rows
        assert (out / "meta.json").exists()

    def test_asymmetric_Q_exits_2(self, tmp_path):
        model = json.loads(json.dumps(LINEAR_MODEL))
        model["Q"] = [[0.001, 0.5], [0.0, 0.001]]
        cfg = write_config(tmp_path, {
            "scenario": {"model": model, "true_delta": -0.1, "true_loc_index": 0,
                         "x0_truth": [1.0, 1.0], "steps": 10, "seed": 1},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["simulate", "--config", cfg]) == 2

    def test_unwritable_output_dir_exits_2(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")  # a file where a directory is required
        cfg = preset_config(tmp_path)
        assert main(["simulate", "--config", cfg, "--out", str(blocker / "sub")]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2


class TestEstimateCommand:
    def test_summary_fields(self, tmp_path):
        cfg = preset_config(tmp_path, seed=42)
        assert main(["estimate", "--config", cfg]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert list(summary) == SUMMARY_KEYS
        assert summary["identified"] in {"A1", "A2", "A3"}
        mu = np.asarray(summary["final_mu"])
        assert mu.shape == (3,) and abs(mu.sum() - 1.0) < 1e-9 and np.all(mu >= 0)
        assert set(summary["rmse"]) == {"ssue", "ekf"}
        assert (tmp_path / "out" / "estimates.csv").exists()
        assert (tmp_path / "out" / "weights.csv").exists()

    def test_single_hypothesis_identifies_it(self, tmp_path):
        model = json.loads(json.dumps(LINEAR_MODEL))
        model["locations"] = [[[1, 0], [0, 0]]]
        cfg = write_config(tmp_path, {
            "scenario": {"model": model, "true_delta": -0.1, "true_loc_index": 0,
                         "x0_truth": [1.0, -1.0], "steps": 15, "seed": 3},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["estimate", "--config", cfg]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["identified"] == "A1"
        assert summary["final_mu"] == [1.0]

    def test_runs_batch_writes_per_run_and_aggregate(self, tmp_path):
        cfg = preset_config(tmp_path, steps=20)
        assert main(["estimate", "--config", cfg, "--runs", "3"]) == 0
        out = tmp_path / "out"
        for i in range(3):
            assert (out / f"run_{i:03d}" / "summary.json").exists()
        aggregate = json.loads((out / "aggregate.json").read_text())
        assert aggregate["runs"] == 3
        assert len(aggregate["per_run"]) == 3
        seeds = [s["seed"] for s in aggregate["per_run"]]
        assert seeds == [5, 6, 7]

    def test_runs_batch_is_the_library_batch(self, tmp_path):
        cfg = preset_config(tmp_path)
        assert main(["estimate", "--config", cfg, "--runs", "3", "--steps", "20"]) == 0
        aggregate = json.loads((tmp_path / "out" / "aggregate.json").read_text())
        summary = monte_carlo(tracking_preset(steps=20), n_runs=3, seed_base=5)
        assert aggregate == json.loads(json.dumps(summary.to_dict()))
        assert aggregate["failed_runs"] == []
        for i, run in enumerate(aggregate["per_run"]):
            on_disk = json.loads((tmp_path / "out" / f"run_{i:03d}" / "summary.json").read_text())
            assert run == on_disk

    def test_runs_batch_files_equal_single_runs(self, tmp_path):
        cfg = preset_config(tmp_path, steps=20)
        assert main(["estimate", "--config", cfg, "--runs", "3",
                     "--out", str(tmp_path / "batch")]) == 0
        for i, seed in enumerate((5, 6, 7)):
            solo = tmp_path / f"solo_{seed}"
            assert main(["estimate", "--config", cfg, "--seed", str(seed), "--out", str(solo)]) == 0
            for name in ("truth.csv", "measurements.csv", "estimates.csv", "weights.csv",
                         "summary.json"):
                assert (tmp_path / "batch" / f"run_{i:03d}" / name).read_bytes() \
                    == (solo / name).read_bytes()

    def test_runs_batch_failure_keeps_lower_seeds_and_exits_3(self, tmp_path, monkeypatch,
                                                              capsys):
        import ssue.sim as sim_mod
        real = sim_mod.simulate

        def flaky(scenario):
            if scenario.seed == 6:
                raise NumericalFailureError("synthetic failure", context={"seed": 6})
            return real(scenario)

        monkeypatch.setattr(sim_mod, "simulate", flaky)
        cfg = preset_config(tmp_path, steps=10)
        assert main(["estimate", "--config", cfg, "--runs", "3"]) == 3
        out = tmp_path / "out"
        assert (out / "run_000" / "summary.json").exists()
        assert not (out / "run_001").exists() and not (out / "run_002").exists()
        assert not (out / "aggregate.json").exists()
        assert "synthetic failure" in capsys.readouterr().err

    def test_input_reuses_simulated_measurements(self, tmp_path):
        cfg = preset_config(tmp_path, out="sim", seed=11)
        assert main(["simulate", "--config", cfg]) == 0
        cfg2 = preset_config(tmp_path, out="est", seed=11)
        assert main(["estimate", "--config", cfg2, "--input", str(tmp_path / "sim")]) == 0
        sim_meas = (tmp_path / "sim" / "measurements.csv").read_text()
        est_meas = (tmp_path / "est" / "measurements.csv").read_text()
        assert sim_meas == est_meas

    def test_malformed_input_record_exits_2(self, tmp_path, capsys):
        cfg = preset_config(tmp_path, out="sim", seed=11)
        assert main(["simulate", "--config", cfg]) == 0
        path = tmp_path / "sim" / "measurements.csv"
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[2] = "1.2.3"
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        cfg2 = preset_config(tmp_path, out="est", seed=11)
        capsys.readouterr()
        assert main(["estimate", "--config", cfg2, "--input", str(tmp_path / "sim")]) == 2
        err = capsys.readouterr().err
        assert "measurements.csv" in err and "line 4" in err
        assert "Traceback" not in err

    def test_seed_override_wins(self, tmp_path):
        cfg = preset_config(tmp_path, seed=5, steps=10)
        assert main(["estimate", "--config", cfg, "--seed", "99",
                     "--out", str(tmp_path / "o99")]) == 0
        summary = json.loads((tmp_path / "o99" / "summary.json").read_text())
        assert summary["seed"] == 99

    def test_byte_identical_reruns(self, tmp_path):
        cfg = preset_config(tmp_path, steps=15)
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "r1")]) == 0
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "r2")]) == 0
        for name in ("truth.csv", "measurements.csv", "estimates.csv", "weights.csv"):
            assert ((tmp_path / "r1" / name).read_bytes()
                    == (tmp_path / "r2" / name).read_bytes())


class TestConfigTypes:
    LINEAR_SCENARIO = {"model": LINEAR_MODEL, "true_delta": -0.1, "true_loc_index": 0,
                       "x0_truth": [1.0, 1.0], "seed": 1}

    @pytest.mark.parametrize("command, cfg, named", [
        ("observability", {"scenario": {"steps": 10}, "observability": {"K": "ten"}}, "K"),
        ("observability", {"scenario": {"steps": 10}, "observability": {"tolerance_policy": 3}},
         "tolerance_policy"),
        ("estimate", {"scenario": {"steps": 10, "seed": "x"}}, "seed"),
        ("estimate", {"scenario": {"steps": 2.5}}, "steps"),
        ("estimate", {"scenario": {"steps": 10, "true_loc_index": 1.5}}, "true_loc_index"),
        ("estimate", {"scenario": {"steps": True}}, "steps"),
        ("estimate", {"scenario": {"steps": 10, "sensors": [[0, 0, 1]]}}, "scenario"),
        ("observability", {"scenario": {"steps": 10, "sensors": [[0, 0, 1]]}}, "scenario"),
        ("observability", {"scenario": {"steps": 10}, "observability": {"K": 2.7}},
         "observability.K"),
        ("estimate", {"scenario": {**LINEAR_SCENARIO, "steps": 2.5}}, "scenario.steps"),
        ("estimate", {"scenario": {**LINEAR_SCENARIO, "steps": 10, "seed": True}},
         "scenario.seed"),
        ("analyze", {"analysis": {"ratio_pairs": 5}}, "analysis.ratio_pairs"),
        ("analyze", {"analysis": {"ratio_pairs": [[0]]}}, "analysis.ratio_pairs"),
        ("analyze", {"analysis": {"ratio_pairs": [[0.5, 1]]}}, "analysis.ratio_pairs"),
    ], ids=["K", "tolerance_policy", "seed", "steps", "true_loc_index", "steps_bool",
            "sensors_estimate", "sensors_observability", "K_fractional", "model_steps_fractional",
            "model_seed_bool", "ratio_pairs_int", "ratio_pairs_short", "ratio_pairs_fractional"])
    def test_wrong_type_exits_2_without_traceback(self, tmp_path, capsys, command, cfg, named):
        path = write_config(tmp_path, {**cfg, "output_dir": str(tmp_path / "out")})
        # analyze checks its options before it reads the (here absent) record
        extra = ["--input", str(tmp_path / "record")] if command == "analyze" else []
        assert main([command, "--config", path, *extra]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert named in err


class TestNewtonConfig:
    def test_removed_option_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario": {"steps": 5},
                                       "newton": {"step_tolerance": 1e-9},
                                       "output_dir": str(tmp_path / "out")})
        assert main(["estimate", "--config", path]) == 2
        assert "bad newton option" in capsys.readouterr().err


class TestNonFiniteModel:
    """A NaN in a model matrix is a configuration error that names the matrix,
    not an eigenvalue failure or a definiteness verdict on NaN."""

    @pytest.mark.parametrize("command", ["simulate", "estimate", "observability"])
    def test_nan_process_noise_exits_2(self, tmp_path, capsys, command):
        path = write_config(tmp_path, {"scenario": {"steps": 5, "q": float("nan")},
                                       "output_dir": str(tmp_path / "out")})
        assert main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "Q has non-finite entries" in err

    def test_nan_initial_covariance_exits_2(self, tmp_path, capsys):
        model = json.loads(json.dumps(LINEAR_MODEL))
        model["P0"][1][1] = float("nan")
        path = write_config(tmp_path, {
            "scenario": {"model": model, "true_delta": -0.1, "true_loc_index": 0,
                         "x0_truth": [1.0, 1.0], "steps": 10, "seed": 1},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "P0 has non-finite entries" in err
        assert "positive definite" not in err


class TestReadme:
    def test_config_example_runs(self, tmp_path):
        text = README.read_text()
        block = re.search(r"Config example.*?```json\n(.*?)```", text, re.S)
        path = write_config(tmp_path, json.loads(block.group(1)))
        assert main(["estimate", "--config", path, "--steps", "5",
                     "--out", str(tmp_path / "out")]) == 0


class TestScenarioConfigRoundTrip:
    def test_scenario_to_dict_feeds_back_through_config(self, tmp_path):
        from ssue import tracking_preset
        from ssue.cli import _scenario_from_config

        scn = tracking_preset(seed=17, steps=25)
        rebuilt = _scenario_from_config({"scenario": scn.to_dict()})
        assert rebuilt.hash() == scn.hash()
        assert rebuilt.seed == 17 and rebuilt.steps == 25

    def test_non_object_scenario_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": 5,
                                      "output_dir": str(tmp_path / "out")})
        assert main(["simulate", "--config", cfg]) == 2


class TestObservabilityCommand:
    def test_observable_linear_model_exits_0(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": {"model": LINEAR_MODEL, "true_delta": -0.1, "true_loc_index": 0,
                         "x0_truth": [1.0, 1.0], "steps": 10, "seed": 1},
            "observability": {"K": 3, "grid_points": 1},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["observability", "--config", cfg]) == 0
        report = json.loads((tmp_path / "out" / "observability_report.json").read_text())
        assert report["smallest_passing_N"] == 1
        assert report["failures"] == []
        assert report["grid"]["points"] == 1

    def test_tracking_preset_structural_failures_exit_4(self, tmp_path):
        # the tracking geometry has indistinguishable hypothesis pairs, so the
        # all-pairs certificate is unreachable on any multi-point grid
        cfg = write_config(tmp_path, {
            "scenario": {"steps": 10, "seed": 1},
            "observability": {"K": 4, "grid_points": 5},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["observability", "--config", cfg]) == 4
        report = json.loads((tmp_path / "out" / "observability_report.json").read_text())
        assert report["smallest_passing_N"] is None
        assert len(report["failures"]) > 0

    def test_zero_grid_exits_4_with_warnings(self, tmp_path):
        model = json.loads(json.dumps(LINEAR_MODEL))
        model["delta_domain"] = [[0.0, 0.0]]
        cfg = write_config(tmp_path, {
            "scenario": {"model": model, "true_delta": 0.0, "true_loc_index": 0,
                         "x0_truth": [1.0, 1.0], "steps": 10, "seed": 1},
            "observability": {"K": 3, "grid_points": 1},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["observability", "--config", cfg]) == 4
        report = json.loads((tmp_path / "out" / "observability_report.json").read_text())
        assert report["warnings"]

    def test_invalid_horizon_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {
            "scenario": {"steps": 10, "seed": 1},
            "observability": {"K": 0},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["observability", "--config", cfg]) == 2


class TestAnalyzeCommand:
    def test_outputs_from_estimate_record(self, tmp_path):
        cfg = preset_config(tmp_path, out="rec", seed=21, steps=25)
        assert main(["estimate", "--config", cfg]) == 0
        cfg2 = write_config(tmp_path, {
            "analysis": {"horizon": 6},
            "output_dir": str(tmp_path / "ana"),
        }, name="ana.json")
        assert main(["analyze", "--config", cfg2, "--input", str(tmp_path / "rec")]) == 0
        out = tmp_path / "ana"
        kl = (out / "kl_matrix.csv").read_text().strip().splitlines()
        assert len(kl) == 4  # header + 3 locations
        for t in range(3):
            row = [float(v) for v in kl[t + 1].split(",")[1:]]
            assert row[t] == 0.0
            assert all(v > 0 for i, v in enumerate(row) if i != t)
        ratio = (out / "loglik_ratio_A2_vs_A1.csv").read_text().strip().splitlines()
        assert len(ratio) == 26  # header + steps rows

    def test_csv_shapes_consistent(self, tmp_path):
        cfg = preset_config(tmp_path, out="shape", seed=6, steps=8)
        assert main(["estimate", "--config", cfg]) == 0
        for name in ("truth.csv", "measurements.csv", "estimates.csv", "weights.csv"):
            lines = (tmp_path / "shape" / name).read_text().strip().splitlines()
            widths = {len(line.split(",")) for line in lines}
            assert len(widths) == 1  # header and every row share one column count

    def test_self_ratio_pair_is_zero_trajectory(self, tmp_path):
        cfg = preset_config(tmp_path, out="rec2", seed=4, steps=10)
        assert main(["estimate", "--config", cfg]) == 0
        cfg2 = write_config(tmp_path, {
            "analysis": {"horizon": 4, "ratio_pairs": [[1, 1]]},
            "output_dir": str(tmp_path / "ana2"),
        }, name="ana2.json")
        assert main(["analyze", "--config", cfg2, "--input", str(tmp_path / "rec2")]) == 0
        lines = (tmp_path / "ana2" / "loglik_ratio_A2_vs_A2.csv").read_text().strip().splitlines()
        assert all(float(line.split(",")[1]) == 0.0 for line in lines[1:])

    def test_missing_record_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"output_dir": str(tmp_path / "ana")})
        assert main(["analyze", "--config", cfg, "--input", str(tmp_path / "nope")]) == 2

    def test_simulate_only_record_exits_2(self, tmp_path):
        cfg = preset_config(tmp_path, out="simonly", seed=2, steps=5)
        assert main(["simulate", "--config", cfg]) == 0
        cfg2 = write_config(tmp_path, {"output_dir": str(tmp_path / "ana3")}, name="a3.json")
        assert main(["analyze", "--config", cfg2, "--input", str(tmp_path / "simonly")]) == 2

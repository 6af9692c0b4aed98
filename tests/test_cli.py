import json
import re
from pathlib import Path

import numpy as np
import pytest

from ssue import (
    ConfigurationError,
    ContractError,
    DeltaGrid,
    NumericalFailureError,
    Scenario,
    linearized_C,
    model_from_json,
    monte_carlo,
    pairwise_rank_test,
    run_estimation,
    tracking_preset,
)
from ssue.cli import build_parser, main

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

    def test_runs_batch_failure_writes_the_rest_and_exits_3(self, tmp_path, monkeypatch,
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
        assert (out / "run_002" / "summary.json").exists()
        assert not (out / "run_001").exists()
        aggregate = json.loads((out / "aggregate.json").read_text())
        assert aggregate["runs"] == 2
        assert aggregate["failed_runs"] == [{"seed": 6, "error": "synthetic failure"}]
        assert "seed 6" in capsys.readouterr().err
        summary = monte_carlo(tracking_preset(steps=10), n_runs=3, seed_base=5)
        assert aggregate == json.loads(json.dumps(summary.to_dict()))

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

    @pytest.mark.parametrize("truth_rows, meas_rows, named", [
        (0, 0, r"measurements\.csv holds no steps"),
        (3, 6, r"truth\.csv has 3 steps, measurements\.csv has 6"),
    ], ids=["headers_only", "short_truth"])
    def test_input_record_without_matching_steps_exits_2(self, tmp_path, capsys,
                                                         truth_rows, meas_rows, named):
        cfg = preset_config(tmp_path, out="sim", seed=11, steps=6)
        assert main(["simulate", "--config", cfg]) == 0
        for name, rows in (("truth.csv", truth_rows), ("measurements.csv", meas_rows)):
            path = tmp_path / "sim" / name
            path.write_text("\n".join(path.read_text().splitlines()[:1 + rows]) + "\n")
        capsys.readouterr()
        cfg2 = preset_config(tmp_path, out="est", seed=11, steps=6)
        assert main(["estimate", "--config", cfg2, "--input", str(tmp_path / "sim")]) == 2
        assert re.search(named, capsys.readouterr().err)

    def test_input_record_of_another_measurement_width_exits_2(self, tmp_path, capsys):
        cfg = preset_config(tmp_path, out="sim", seed=11, steps=6)
        assert main(["simulate", "--config", cfg]) == 0
        path = tmp_path / "sim" / "measurements.csv"  # the last of 3 ranges cut off
        path.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                                for line in path.read_text().splitlines()))
        capsys.readouterr()
        cfg2 = preset_config(tmp_path, out="est", seed=11, steps=6)
        assert main(["estimate", "--config", cfg2, "--input", str(tmp_path / "sim")]) == 2
        err = capsys.readouterr().err
        assert "measurements of shape (6, 2)" in err and "p = 3" in err
        assert "jacobian" not in err

    @pytest.mark.parametrize("flags, named", [
        (["--runs", "0"], "--runs must be >= 1"),
        (["--input", "{record}", "--runs", "2"], "--input and --runs cannot be combined"),
        (["--input", "{record}"], "no meta.json"),
    ], ids=["zero_runs", "input_with_runs", "input_without_meta"])
    def test_refused_arguments_leave_no_output_dir(self, tmp_path, capsys, flags, named):
        (tmp_path / "record").mkdir()  # holds no meta.json
        cfg = preset_config(tmp_path, steps=5)
        argv = [flag.format(record=tmp_path / "record") for flag in flags]
        assert main(["estimate", "--config", cfg, *argv]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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


class TestConfigErrors:
    @pytest.mark.parametrize("command, text, named", [
        ("simulate", "{bad", "is not valid JSON"),
        ("simulate", "[1, 2]", "config root must be a JSON object"),
        ("analyze", json.dumps({"scenario": {"steps": 10}}), "analyze needs --input"),
        ("simulate", json.dumps({"scenario": {"model": LINEAR_MODEL, "true_loc_index": 0,
                                              "x0_truth": [1.0, 1.0], "steps": 10}}),
         "scenario is missing field 'true_delta'"),
    ], ids=["json_syntax", "json_root_list", "analyze_without_input", "model_without_true_delta"])
    def test_exits_2_with_its_message(self, tmp_path, capsys, command, text, named):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert named in err
        assert not (tmp_path / "out").exists()


class TestUnknownConfigKeys:
    """Each config object accepts only the keys it reads; a typo is named, not ignored."""

    @pytest.mark.parametrize("command, cfg, named", [
        ("simulate", {"scenario": {"sed": 7, "steps": 10}}, "'scenario.sed'"),
        ("estimate", {"scenario": {**TestConfigTypes.LINEAR_SCENARIO, "steps": 10,
                                   "x0": [1.0, 1.0]}}, "'scenario.x0'"),
        ("observability", {"scenario": {"steps": 10}, "observability": {"k": 3}},
         "'observability.k'"),
        ("analyze", {"analysis": {"horizn": 4}}, "'analysis.horizn'"),
        ("simulate", {"scenario": {"steps": 10}, "ouput_dir": "elsewhere"}, "'ouput_dir'"),
        # the MAP update takes no options: a "newton" object is refused whatever it holds
        ("estimate", {"scenario": {"steps": 10}, "newton": {"max_iterations": 10}}, "'newton'"),
        ("estimate", {"scenario": {"steps": 10}, "newton": {"mode": "full_newton"}}, "'newton'"),
        ("estimate", {"scenario": {"steps": 10}, "newton": {"max_iter": 3}}, "'newton'"),
    ], ids=["preset_seed", "model_x0", "observability_K", "analysis_horizon", "top_level",
            "newton", "newton_mode", "newton_max_iter"])
    def test_typo_exits_2_naming_the_key(self, tmp_path, capsys, command, cfg, named):
        path = write_config(tmp_path, {**cfg, "output_dir": str(tmp_path / "out")})
        extra = ["--input", str(tmp_path / "record")] if command == "analyze" else []
        assert main([command, "--config", path, *extra]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"unknown config key {named}" in err
        assert not (tmp_path / "out").exists()


class TestFaultyModelAgreement:
    """The CLI and the API give one verdict on each faulty model field: SystemModel
    refuses a Q, R or P0 that is asymmetric or indefinite, model_from_json a
    measurement that is not an object, and the filter alone refuses a singular R."""

    FAULTS = {
        "asymmetric_Q": ("Q", [[0.001, 0.5], [0.0, 0.001]]),
        "singular_R": ("R", [[0.5, 0.0], [0.0, 0.0]]),
        "singular_P0": ("P0", [[1.0, 0.0], [0.0, 0.0]]),
        "indefinite_Q": ("Q", [[0.001, 0.0], [0.0, -0.001]]),
        "measurement_not_an_object": ("measurement", 5),
    }

    # exit codes of simulate, estimate, observability and analyze; the error of
    # constructing the model; the error of run_estimation on it
    @pytest.mark.parametrize("fault, exits, construct_error, estimate_error", [
        ("asymmetric_Q", (2, 2, 2, 2), ConfigurationError, None),
        ("singular_R", (0, 2, 0, 0), None, ContractError),
        ("singular_P0", (0, 0, 0, 0), None, None),
        ("indefinite_Q", (2, 2, 2, 2), ConfigurationError, None),
        ("measurement_not_an_object", (2, 2, 2, 2), ConfigurationError, None),
    ], ids=list(FAULTS))
    def test_cli_and_api_agree(self, tmp_path, fault, exits, construct_error, estimate_error):
        name, matrix = self.FAULTS[fault]
        model = {**LINEAR_MODEL, name: matrix}
        scenario = {**TestConfigTypes.LINEAR_SCENARIO, "steps": 10}
        # analyze reads the model from the record: a sound record with the faulty model
        sound = write_config(tmp_path, {"scenario": {**scenario, "model": LINEAR_MODEL},
                                        "output_dir": str(tmp_path / "record")}, "sound.json")
        assert main(["estimate", "--config", sound]) == 0
        meta = tmp_path / "record" / "meta.json"
        doc = json.loads(meta.read_text())
        doc["scenario"]["model"] = model
        meta.write_text(json.dumps(doc))

        got = []
        for command in ("simulate", "estimate", "observability", "analyze"):
            cfg = write_config(tmp_path, {"scenario": {**scenario, "model": model},
                                          "analysis": {"horizon": 4},
                                          "output_dir": str(tmp_path / command)})
            extra = ["--input", str(tmp_path / "record")] if command == "analyze" else []
            got.append(main([command, "--config", cfg, *extra]))
        assert tuple(got) == exits

        if construct_error is not None:
            with pytest.raises(construct_error, match=name):
                model_from_json(json.dumps(model))
            return
        scn = Scenario.from_dict({**scenario, "model": model, "Ts": 0.1})
        if estimate_error is not None:
            with pytest.raises(estimate_error, match=name):
                run_estimation(scn)
        else:
            assert run_estimation(scn).mu.shape == (10, 2)


class TestNewtonConfig:
    def test_removed_option_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"scenario": {"steps": 5},
                                       "newton": {"step_tolerance": 1e-9},
                                       "output_dir": str(tmp_path / "out")})
        assert main(["estimate", "--config", path]) == 2
        assert "unknown config key 'newton'" in capsys.readouterr().err


class TestMalformedRecord:
    """A record that ``ssue estimate`` would not write exits 2 naming the faulty
    file in both commands that read records."""

    @pytest.mark.parametrize("command", ["estimate", "analyze"])
    def test_exits_2_naming_the_file(self, tmp_path, capsys, break_record, command):
        cfg = preset_config(tmp_path, out="rec", seed=11, steps=6)
        assert main(["estimate", "--config", cfg]) == 0
        name = break_record(tmp_path / "rec")
        capsys.readouterr()
        cfg2 = preset_config(tmp_path, out="again", seed=11, steps=6)
        assert main([command, "--config", cfg2, "--input", str(tmp_path / "rec")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert name in err


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


class TestNonFiniteScenario:
    """A NaN in a scenario field is a configuration error that names the field;
    a simulation that overflows is a numerical failure that names the step."""

    @staticmethod
    def linear_with_nan_C():
        model = json.loads(json.dumps(LINEAR_MODEL))
        model["measurement"]["C"][0][0] = float("nan")
        return {"model": model, "true_delta": -0.1, "true_loc_index": 0,
                "x0_truth": [1.0, 1.0], "steps": 5, "seed": 1}

    @pytest.mark.parametrize("command", ["simulate", "estimate", "observability"])
    @pytest.mark.parametrize("scenario, named", [
        ({"steps": 5, "x0": [float("nan"), 5, 1, -0.5]}, "x0_truth"),
        ({"steps": 5, "true_delta": float("nan")}, "true_delta"),
        ({"steps": 5, "sensors": [[-10, 0], [10, float("nan")], [0, 10]]}, "sensor_positions"),
        (None, "measurement C"),
    ], ids=["x0", "true_delta", "sensor", "linear_C"])
    def test_nan_field_exits_2_and_names_it(self, tmp_path, capsys, command, scenario, named):
        scenario = self.linear_with_nan_C() if scenario is None else scenario
        path = write_config(tmp_path, {"scenario": scenario, "output_dir": str(tmp_path / "out")})
        assert main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert named in err and ("non-finite" in err or "must be finite" in err)
        assert not (tmp_path / "out" / "truth.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_overflow_exits_3_and_names_the_step(self, tmp_path, capsys, command):
        path = write_config(tmp_path, {"scenario": {"true_delta": 50.0},
                                       "output_dir": str(tmp_path / "out")})
        assert main([command, "--config", path]) == 3
        err = capsys.readouterr().err
        assert "not finite at step 180" in err
        assert not (tmp_path / "out" / "truth.csv").exists()


class TestSubcommandFlags:
    @pytest.mark.parametrize("argv", [
        ["observability", "--seed", "3"],
        ["observability", "--steps", "9"],
        ["observability", "--input", "x"],
        ["analyze", "--seed", "3"],
        ["analyze", "--steps", "3"],
        ["simulate", "--input", "x"],
    ])
    def test_unread_flag_is_rejected(self, tmp_path, argv):
        path = write_config(tmp_path, {"output_dir": str(tmp_path / "out")})
        with pytest.raises(SystemExit) as info:
            main(argv + ["--config", path])
        assert info.value.code == 2


class TestReadme:
    def test_config_example_runs(self, tmp_path):
        text = README.read_text()
        block = re.search(r"Config example.*?```json\n(.*?)```", text, re.S)
        path = write_config(tmp_path, json.loads(block.group(1)))
        assert main(["estimate", "--config", path, "--steps", "5",
                     "--out", str(tmp_path / "out")]) == 0


    def test_synopses_list_each_subcommands_options(self):
        import argparse

        import ssue.cli

        parser = build_parser()
        (commands,) = [a.choices for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction)]
        want = {name: {s for a in cmd._actions for s in a.option_strings} - {"-h", "--help"}
                for name, cmd in commands.items()}
        readme = re.search(r"## CLI\n\n```bash\n(.*?)```", README.read_text(), re.S).group(1)
        docstring = ssue.cli.__doc__.split("Commands::")[1].split("\n\n")[1]
        for synopsis in (readme, docstring):
            got = {}
            for line in synopsis.splitlines():
                words = line.split()
                if words[:1] == ["ssue"]:
                    name = words[1]
                got.setdefault(name, set()).update(re.findall(r"--[a-z]+", line))
            assert got == want


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
        assert report["failures"] == [] and report["required_rank"] is None
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
        # one row per failing pair: the JSON rows are the API's rows
        scenario = tracking_preset(steps=10, seed=1)
        model = scenario.model
        expected = pairwise_rank_test(model.A, linearized_C(model, x_ref=scenario.x0_truth),
                                      model.locations,
                                      DeltaGrid.from_domain(model.domain, points_per_interval=5), 4)
        assert report["failure_fields"] == ["delta_a", "loc_a", "delta_b", "loc_b", "rank"]
        assert tuple(map(tuple, report["failures"])) == expected.failures
        assert report["required_rank"] == expected.required_rank == 8

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

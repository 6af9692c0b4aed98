import dataclasses
import json
import re

import numpy as np
import numpy.testing as npt
import pytest

import ssue
from ssue import (
    ConfigurationError,
    ContractError,
    LocationSet,
    NumericalFailureError,
    monte_carlo,
    run_estimation,
    run_metrics,
    simulate,
    tracking_preset,
)


class TestTrackingPreset:
    def test_default_scenario_matrices(self):
        scn = tracking_preset()
        A = scn.model.A
        Ts = scn.Ts
        npt.assert_array_equal(A, [[1, 0, Ts, 0], [0, 1, 0, Ts], [0, 0, 1, 0], [0, 0, 0, 1]])
        L1, L2, L3 = (loc.entries for loc in scn.model.locations)
        expected_L1 = np.zeros((4, 4)); expected_L1[0, 3] = 1
        expected_L2 = np.zeros((4, 4)); expected_L2[0, 0] = 1; expected_L2[1, 1] = 1
        expected_L3 = np.zeros((4, 4)); expected_L3[2, 2] = 1
        npt.assert_array_equal(L1, expected_L1)
        npt.assert_array_equal(L2, expected_L2)
        npt.assert_array_equal(L3, expected_L3)
        assert scn.true_delta == -0.05
        assert scn.true_loc_index == 1  # the second location is the true one
        q = 0.05
        npt.assert_allclose(scn.model.Q, q * np.array([
            [Ts**3 / 3, 0, Ts**2 / 2, 0],
            [0, Ts**3 / 3, 0, Ts**2 / 2],
            [Ts**2 / 2, 0, Ts, 0],
            [0, Ts**2 / 2, 0, Ts],
        ]), rtol=1e-15)
        npt.assert_array_equal(scn.model.R, 2.0 * np.eye(3))

    def test_Q_formula_hand_value(self):
        scn = tracking_preset(Ts=1.0, q=3.0)
        assert scn.model.Q[0, 0] == pytest.approx(1.0)

    def test_zero_spectral_density(self):
        scn = tracking_preset(q=0.0)
        npt.assert_array_equal(scn.model.Q, np.zeros((4, 4)))

    def test_perturbed_dynamics_spectrum(self):
        scn = tracking_preset()
        A_true = scn.model.A + scn.true_delta * scn.model.locations[1].entries
        eig = np.sort(np.linalg.eigvals(A_true).real)
        npt.assert_allclose(eig, [0.95, 0.95, 1.0, 1.0], rtol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ContractError):
            tracking_preset(Ts=0.0)
        with pytest.raises(ContractError):
            tracking_preset(r=0.0)
        with pytest.raises(ContractError):
            tracking_preset(steps=0)
        with pytest.raises(ContractError):
            tracking_preset(true_loc_index=7)

    @pytest.mark.parametrize("field", ["steps", "seed", "true_loc_index"])
    def test_booleans_are_not_integers(self, field):
        with pytest.raises(ContractError, match=field):
            tracking_preset(**{field: True})


class TestScenarioDict:
    LINEAR_MODEL = {
        "A": [[1.0, 0.1], [0.0, 1.0]],
        "locations": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
        "delta_domain": [[-0.1, -0.01]],
        "Q": [[0.01, 0.0], [0.0, 0.01]],
        "R": [[0.5]],
        "P0": [[1.0, 0.0], [0.0, 1.0]],
        "measurement": {"type": "linear", "C": [[1.0, 0.0]]},
    }

    def test_from_dict_inverts_to_dict(self):
        linear = ssue.Scenario(model=ssue.model_from_json(json.dumps(self.LINEAR_MODEL)),
                               true_delta=-0.05, true_loc_index=1, x0_truth=[1.0, -2.0],
                               steps=7, seed=3, Ts=0.2)
        for scn in (tracking_preset(seed=17, steps=25), linear):
            rebuilt = ssue.Scenario.from_dict(scn.to_dict())
            assert rebuilt.hash() == scn.hash()
            assert rebuilt.to_dict() == scn.to_dict()


class TestNonFiniteScenario:
    @pytest.mark.parametrize("field, value", [("x0_truth", [np.nan, 5.0, 1.0, -0.5]),
                                              ("true_delta", np.inf)])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ContractError, match=field):
            dataclasses.replace(tracking_preset(steps=5), **{field: value})

    def test_overflowing_simulation_names_the_step(self):
        scn = tracking_preset(true_delta=50.0)
        with pytest.raises(NumericalFailureError, match="step 180") as info:
            simulate(scn)
        assert info.value.context["step"] == 180


class TestSimulate:
    def test_noise_free_nominal_dynamics(self):
        scn = tracking_preset(q=0.0, true_delta=0.0, steps=20, seed=5)
        model = dataclasses.replace(scn.model, R=np.zeros((3, 3)))
        scn = dataclasses.replace(scn, model=model)
        rec = simulate(scn)
        x = scn.x0_truth.copy()
        for k in range(20):
            x = scn.model.A @ x  # truth[k] holds the state after k+1 propagations
            npt.assert_allclose(rec.truth[k], x, rtol=1e-13)
            npt.assert_allclose(rec.measurements[k], scn.model.map.evaluate(x), rtol=1e-13)

    def test_state_at_sensor_measures_zero_range(self):
        scn = tracking_preset(q=0.0, true_delta=0.0, x0=(-10.0, 0.0, 0.0, 0.0),
                              steps=5, seed=1)
        model = dataclasses.replace(scn.model, R=np.zeros((3, 3)))
        scn = dataclasses.replace(scn, model=model)
        rec = simulate(scn)
        npt.assert_array_equal(rec.measurements[:, 0], np.zeros(5))

    def test_seeding_contract(self):
        scn = tracking_preset(seed=123, steps=30)
        a, b = simulate(scn), simulate(scn)
        npt.assert_array_equal(a.truth, b.truth)
        npt.assert_array_equal(a.measurements, b.measurements)
        c = simulate(dataclasses.replace(scn, seed=124))
        assert not np.array_equal(a.truth, c.truth)

    def test_indefinite_Q_is_numerical_failure(self):
        scn = tracking_preset(steps=5)
        bad_Q = np.diag([1.0, 1.0, 1.0, -1.0])
        with pytest.raises(ConfigurationError, match="Q is indefinite"):
            dataclasses.replace(scn.model, Q=bad_Q)


class TestRunEstimation:
    def test_structure_and_simplex_invariant(self):
        scn = tracking_preset(seed=42, steps=50)
        rec = run_estimation(scn)
        assert rec.mu.shape == (50, 3)
        assert rec.fused_means.shape == (50, 5)
        assert rec.ekf_means.shape == (50, 4)
        npt.assert_allclose(rec.mu.sum(axis=1), np.ones(50), atol=1e-12)
        assert rec.log_lambdas.shape == (50, 3)
        assert np.all(np.isfinite(rec.log_lambdas))

    def test_single_hypothesis_weights_constant(self):
        scn = tracking_preset(seed=2, steps=20)
        model = scn.model
        single = dataclasses.replace(model, locations=LocationSet((model.locations[1],)))
        scn = dataclasses.replace(scn, model=single, true_loc_index=0)
        rec = run_estimation(scn)
        npt.assert_array_equal(rec.mu, np.ones((20, 1)))

    def test_reuses_supplied_measurements(self):
        scn = tracking_preset(seed=9, steps=15)
        base = simulate(scn)
        rec = run_estimation(scn, record=base)
        assert rec is base  # same record object: EKF and filter share measurements

    def test_non_finite_measurement_is_contract_error(self):
        scn = tracking_preset(seed=3, steps=10)
        record = simulate(scn)
        record.measurements[4, 1] = np.nan
        with pytest.raises(ContractError, match="non-finite") as info:
            run_estimation(scn, record=record)
        assert info.value.context["step"] == 4
        assert record.mu is None

    def test_bit_reproducible(self):
        scn = tracking_preset(seed=77, steps=25)
        a, b = run_estimation(scn), run_estimation(scn)
        npt.assert_array_equal(a.mu, b.mu)
        npt.assert_array_equal(a.fused_means, b.fused_means)
        npt.assert_array_equal(a.ekf_means, b.ekf_means)


class TestMonteCarlo:
    def test_single_run_equals_run_metrics(self):
        scn = tracking_preset(seed=0, steps=30)
        summary = monte_carlo(scn, n_runs=1, seed_base=55)
        direct = run_metrics(run_estimation(dataclasses.replace(scn, seed=55)))
        assert summary.per_run[0].success == direct.success
        npt.assert_array_equal(summary.per_run[0].final_mu, direct.final_mu)
        npt.assert_array_equal(summary.rmse_ssue_mean, direct.rmse_ssue)
        assert summary.median_final_delta_error == direct.delta_error_traj[-1]

    def test_near_noise_free_identification_is_certain(self):
        scn = tracking_preset(q=0.0, r=1e-6, steps=40)
        summary = monte_carlo(scn, n_runs=3, seed_base=10)
        assert summary.success_rate == 1.0
        assert summary.failures == ()

    def test_failed_runs_recorded_not_dropped(self, monkeypatch):
        import ssue.sim as sim_mod
        scn = tracking_preset(steps=10)
        real = sim_mod.simulate

        def flaky(scenario):
            if scenario.seed == 101:
                raise NumericalFailureError("synthetic failure", context={})
            return real(scenario)

        monkeypatch.setattr(sim_mod, "simulate", flaky)
        summary = sim_mod.monte_carlo(scn, n_runs=3, seed_base=100)
        assert len(summary.per_run) == 2
        assert summary.failures == ((101, "synthetic failure"),)

    def test_batch_runs_equal_solo_runs(self):
        scn = tracking_preset(steps=25)
        summary = monte_carlo(scn, n_runs=3, seed_base=30)
        for got in summary.per_run:
            want = run_metrics(run_estimation(dataclasses.replace(scn, seed=got.seed)))
            assert got.to_dict() == want.to_dict()
            npt.assert_array_equal(got.delta_error_traj, want.delta_error_traj)

    def test_numerical_failure_ends_only_its_run(self):
        # Of seeds 27-29, only seed 28's estimates reach position x > 6 (a few
        # steps in), so only its run fails; the batch redoes that step run by
        # run and goes on with the other two.
        scn = tracking_preset(steps=40)
        ranges = scn.model.map

        def jacobian(x):
            if np.any(np.asarray(x)[..., 0] > 6.0):
                raise NumericalFailureError("synthetic failure past x = 6")
            return ranges.jacobian(x)

        model = dataclasses.replace(scn.model, map=dataclasses.replace(ranges, jacobian=jacobian))
        scn = dataclasses.replace(scn, model=model)
        summary = monte_carlo(scn, n_runs=3, seed_base=27)
        assert [seed for seed, _ in summary.failures] == [28]
        assert [r.seed for r in summary.per_run] == [27, 29]
        batch = ssue.estimate_batch([dataclasses.replace(scn, seed=s) for s in (27, 28, 29)])
        assert isinstance(batch[1], NumericalFailureError)
        assert batch[1].context["step"] > 0
        for rec in (batch[0], batch[2]):
            solo = run_estimation(dataclasses.replace(scn, seed=rec.scenario.seed))
            for name in ("mu", "log_lambdas", "fused_means", "identified", "ekf_means"):
                npt.assert_array_equal(getattr(rec, name), getattr(solo, name))
        with pytest.raises(NumericalFailureError, match="past x = 6"):
            run_estimation(dataclasses.replace(scn, seed=28))

    def test_ssue_step_loop_equals_run_estimation(self):
        scn = tracking_preset(seed=42, steps=120)
        rec = run_estimation(scn)
        bank = ssue.initial_bank(scn.model)
        for k, y in enumerate(rec.measurements):
            result = ssue.ssue_step(bank, y, scn.model, step=k)
            bank = result.bank
            npt.assert_array_equal(bank.weights, rec.mu[k])
            npt.assert_array_equal(result.log_lambdas, rec.log_lambdas[k])
            npt.assert_array_equal(result.fused.xi_mean, rec.fused_means[k])

    def test_n_runs_validation(self):
        with pytest.raises(ContractError):
            monte_carlo(tracking_preset(), n_runs=0, seed_base=0)



class TestEstimateBatchInputs:
    """A malformed batch is a ContractError before any run is simulated."""

    def test_empty_batch(self):
        with pytest.raises(ContractError, match="got 0 scenarios"):
            ssue.estimate_batch([])

    def test_records_must_match_scenarios(self):
        s1 = tracking_preset(seed=1, steps=5)
        s2 = dataclasses.replace(s1, seed=2)
        with pytest.raises(ContractError, match="got 2 scenarios and 1 records"):
            ssue.estimate_batch([s1, s2], records=[simulate(s1)])

    def test_singular_R_rejected_before_simulating(self, monkeypatch):
        import ssue.sim as sim_mod
        scn = tracking_preset(steps=5)
        scn = dataclasses.replace(scn, model=dataclasses.replace(scn.model, R=np.zeros((3, 3))))
        calls = []
        monkeypatch.setattr(sim_mod, "simulate", lambda scenario: calls.append(scenario))
        with pytest.raises(ContractError, match="covariance R is not positive definite"):
            run_estimation(scn)
        with pytest.raises(ContractError, match="covariance R is not positive definite"):
            monte_carlo(scn, n_runs=3, seed_base=0)
        assert calls == []


class TestRecordPersistence:
    def test_round_trip(self, tmp_path):
        scn = tracking_preset(seed=8, steps=12)
        rec = run_estimation(scn)
        out = ssue.save_record(rec, tmp_path / "run")
        loaded = ssue.load_record(out)
        npt.assert_allclose(loaded.truth, rec.truth, rtol=0, atol=0)
        npt.assert_allclose(loaded.measurements, rec.measurements, rtol=0)
        npt.assert_allclose(loaded.mu, rec.mu, rtol=0)
        npt.assert_allclose(loaded.log_lambdas, rec.log_lambdas, rtol=0)
        npt.assert_allclose(loaded.fused_means, rec.fused_means, rtol=0)
        npt.assert_array_equal(loaded.identified, rec.identified)
        assert loaded.scenario.seed == 8
        assert loaded.scenario.true_delta == scn.true_delta

    def test_csv_bodies_deterministic(self, tmp_path):
        scn = tracking_preset(seed=3, steps=10)
        a = ssue.save_record(run_estimation(scn), tmp_path / "a")
        b = ssue.save_record(run_estimation(scn), tmp_path / "b")
        for name in ("truth.csv", "measurements.csv", "estimates.csv", "weights.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("bad_cell", ["abc", "", "1.0,2.0"])
    def test_malformed_cell_is_configuration_error(self, tmp_path, bad_cell):
        out = ssue.save_record(ssue.simulate(tracking_preset(seed=8, steps=5)), tmp_path / "run")
        path = out / "truth.csv"
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[1] = bad_cell
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match=r"truth\.csv: line 3"):
            ssue.load_record(out)

    @pytest.mark.parametrize("truth_rows, meas_rows, named", [
        (0, 0, r"measurements\.csv holds no steps"),
        (3, 5, r"truth\.csv has 3 steps, measurements\.csv has 5"),
        (5, 2, r"truth\.csv has 5 steps, measurements\.csv has 2"),
    ], ids=["headers_only", "short_truth", "short_measurements"])
    def test_steps_missing_or_unequal_is_configuration_error(self, tmp_path, truth_rows,
                                                            meas_rows, named):
        out = ssue.save_record(ssue.simulate(tracking_preset(seed=8, steps=5)), tmp_path / "run")
        for name, rows in (("truth.csv", truth_rows), ("measurements.csv", meas_rows)):
            path = out / name
            path.write_text("\n".join(path.read_text().splitlines()[:1 + rows]) + "\n")
        with pytest.raises(ConfigurationError, match=named):
            ssue.load_record(out)

    def test_record_unlike_save_record_is_configuration_error(self, tmp_path, break_record):
        # a malformed meta.json, a step count off measurements.csv's, or a
        # weights/estimates header other than save_record's is named, never read
        out = ssue.save_record(run_estimation(tracking_preset(seed=8, steps=6)), tmp_path / "run")
        name = break_record(out)
        with pytest.raises(ConfigurationError, match=re.escape(str(out / name))):
            ssue.load_record(out)

    def test_missing_directory_is_contract_error(self, tmp_path):
        with pytest.raises(ContractError):
            ssue.load_record(tmp_path / "nope")

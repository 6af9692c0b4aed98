import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
from scipy.optimize import minimize

from ssue import (
    ContractError,
    DegenerateEvidenceError,
    HypothesisBank,
    JointBelief,
    LocationMatrix,
    LocationSet,
    MeasurementMap,
    NewtonOptions,
    SystemModel,
    UncertaintyDomain,
    ekf_step,
    estimate_batch,
    initial_bank,
    linear_map,
    log_likelihood,
    newton_update,
    predict,
    run_estimation,
    simulate,
    ssue_step,
    tracking_preset,
    update_weights_log,
)

# ---------------------------------------------------------------------------
# Independent oracles


def kalman_update_oracle(xi_pred, P_pred, y, C_aug, R):
    """Textbook Kalman measurement update of the augmented state (gain form)."""
    S = C_aug @ P_pred @ C_aug.T + R
    K = P_pred @ C_aug.T @ np.linalg.inv(S)
    xi_post = xi_pred + K @ (y - C_aug @ xi_pred)
    P_post = (np.eye(xi_pred.size) - K @ C_aug) @ P_pred
    return xi_post, 0.5 * (P_post + P_post.T)


def map_cost(xi, xi_pred, P_pred, y, measurement_map, R):
    """Negative log posterior (up to constants); minimized by the MAP update."""
    nu = y - measurement_map.evaluate(xi[1:])
    dxi = xi - xi_pred
    return float(nu @ np.linalg.solve(R, nu) + dxi @ np.linalg.solve(P_pred, dxi))


def random_belief(rng, n, x_scale=1.0):
    W = rng.normal(size=(n + 1, n + 1))
    P = W @ W.T + (n + 1) * np.eye(n + 1)
    xi = np.concatenate([[rng.uniform(-0.15, -0.05)], rng.normal(size=n) * x_scale])
    return JointBelief(xi, P)


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


# ---------------------------------------------------------------------------
# Prediction


class TestPredict:
    def test_zero_delta_reduces_to_nominal_dynamics(self, rng):
        n = 3
        A = rng.normal(size=(n, n))
        loc = LocationMatrix(np.diag([1.0, 0.0, 1.0]))
        b = JointBelief(np.concatenate([[0.0], rng.normal(size=n)]), np.eye(n + 1))
        out = predict(b, loc, A, np.zeros((n, n)))
        npt.assert_allclose(out.x_mean, A @ b.x_mean, rtol=1e-14)

    def test_scalar_hand_case_mean(self):
        b = JointBelief(np.array([-0.05, 2.0]), np.eye(2))
        out = predict(b, LocationMatrix(np.ones((1, 1))), np.ones((1, 1)), np.zeros((1, 1)))
        npt.assert_allclose(out.x_mean, [1.9], rtol=1e-14)

    def test_scalar_hand_case_covariance_blocks(self):
        # A=[1], L=[1], delta=0, x=[1], unit joint covariance, Q=[0]:
        # F=[1,1], P^x+ = 2, P^{dx}+ = 1, P^d+ = 1 (Q jitter perturbs at 1e-9)
        b = JointBelief(np.array([0.0, 1.0]), np.eye(2))
        out = predict(b, LocationMatrix(np.ones((1, 1))), np.ones((1, 1)), np.zeros((1, 1)))
        assert out.p_delta == 1.0
        npt.assert_allclose(out.p_x, [[2.0]], atol=1e-8)
        npt.assert_allclose(out.p_delta_x, [1.0], atol=1e-8)

    def test_preserves_delta_variance_exactly(self, rng, tracking_scenario):
        model = tracking_scenario.model
        b = random_belief(rng, model.n)
        out = predict(b, model.locations[1], model.A, model.Q)
        assert out.p_delta == b.p_delta
        assert out.delta_mean == b.delta_mean

    def test_output_joint_covariance_is_spd(self, rng, tracking_scenario):
        model = tracking_scenario.model
        for _ in range(10):
            b = random_belief(rng, model.n)
            out = predict(b, model.locations[0], model.A, model.Q)
            P = out.xi_cov
            npt.assert_array_equal(P, P.T)
            assert np.linalg.eigvalsh(P)[0] > 0


# ---------------------------------------------------------------------------
# MAP measurement update


class TestNewtonUpdate:
    def test_zero_innovation_is_fixed_point(self, rng):
        n, p = 3, 2
        mmap = linear_map(rng.normal(size=(p, n)))
        pred = random_belief(rng, n)
        y = mmap.evaluate(pred.x_mean)
        post, report = newton_update(pred, y, mmap, np.eye(p))
        npt.assert_allclose(post.xi_mean, pred.xi_mean, rtol=0, atol=1e-12)
        assert report.converged

    @pytest.mark.parametrize("max_iterations", [1, 3, 10])
    def test_linear_map_equals_kalman_update(self, rng, max_iterations):
        n, p = 4, 2
        C = rng.normal(size=(p, n))
        mmap = linear_map(C)
        R = np.diag(rng.uniform(0.5, 2.0, p))
        C_aug = np.hstack([np.zeros((p, 1)), C])
        opts = NewtonOptions(max_iterations=max_iterations)
        for _ in range(10):
            pred = random_belief(rng, n)
            y = mmap.evaluate(pred.x_mean) + rng.normal(size=p)
            post, _ = newton_update(pred, y, mmap, R, opts)
            xi_ref, P_ref = kalman_update_oracle(
                pred.xi_mean, pred.xi_cov, y, C_aug, R)
            assert rel_err(post.xi_mean, xi_ref) <= 1e-8
            assert rel_err(post.xi_cov, P_ref) <= 1e-8

    def test_full_newton_matches_gauss_newton_on_linear_map(self, rng):
        n, p = 3, 2
        mmap = linear_map(rng.normal(size=(p, n)))
        pred = random_belief(rng, n)
        y = rng.normal(size=p)
        R = np.eye(p)
        post_gn, _ = newton_update(pred, y, mmap, R, NewtonOptions(mode="gauss_newton"))
        post_fn, _ = newton_update(pred, y, mmap, R, NewtonOptions(mode="full_newton"))
        npt.assert_allclose(post_fn.xi_mean, post_gn.xi_mean, rtol=1e-10)

    def test_range_map_matches_derivative_free_minimizer(self, rng, tracking_scenario):
        model = tracking_scenario.model
        opts = NewtonOptions(max_iterations=50)
        for _ in range(5):
            pred = random_belief(rng, model.n, x_scale=3.0)
            x_true = pred.x_mean + rng.normal(size=model.n)
            y = model.map.evaluate(x_true) + rng.normal(size=model.p) * 0.5
            post, _ = newton_update(pred, y, model.map, model.R, opts)
            P_pred = pred.xi_cov
            res = minimize(
                map_cost, pred.xi_mean,
                args=(pred.xi_mean, P_pred, y, model.map, model.R),
                method="Nelder-Mead",
                options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000, "maxfev": 20000},
            )
            res = minimize(
                map_cost, res.x,
                args=(pred.xi_mean, P_pred, y, model.map, model.R),
                method="Nelder-Mead",
                options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000, "maxfev": 20000},
            )
            assert np.linalg.norm(post.xi_mean - res.x) <= 1e-4

    def test_full_newton_and_gauss_newton_share_fixed_point_on_ranges(
            self, rng, tracking_scenario):
        model = tracking_scenario.model
        opts = dict(max_iterations=100)
        for _ in range(5):
            pred = random_belief(rng, model.n, x_scale=3.0)
            y = model.map.evaluate(pred.x_mean + rng.normal(size=model.n) * 0.5)
            post_gn, rep_gn = newton_update(pred, y, model.map, model.R,
                                            NewtonOptions(mode="gauss_newton", **opts))
            post_fn, rep_fn = newton_update(pred, y, model.map, model.R,
                                            NewtonOptions(mode="full_newton", **opts))
            assert rep_gn.converged and rep_fn.converged
            assert np.linalg.norm(post_gn.xi_mean - post_fn.xi_mean) < 1e-6

    def test_full_newton_without_hessian_raises(self, rng):
        def evaluate(x):
            a, b = x[..., 0], x[..., 1]
            return np.stack([np.sin(a) + b ** 2, a * b], axis=-1)

        def jacobian(x):
            a, b = x[..., 0], x[..., 1]
            return np.stack([np.stack([np.cos(a), 2 * b], axis=-1),
                             np.stack([b, a], axis=-1)], axis=-2)

        without_hess = MeasurementMap(2, evaluate, jacobian, None)
        pred = random_belief(rng, 2)
        y = evaluate(pred.x_mean) + 0.1
        with pytest.raises(ContractError, match="hessian"):
            newton_update(pred, y, without_hess, np.eye(2), NewtonOptions(mode="full_newton"))
        # Gauss-Newton never needs the Hessian
        newton_update(pred, y, without_hess, np.eye(2), NewtonOptions(mode="gauss_newton"))

    def test_backtracking_cost_trajectory_non_increasing(self, rng, tracking_scenario):
        model = tracking_scenario.model
        for _ in range(10):
            pred = random_belief(rng, model.n, x_scale=4.0)
            y = model.map.evaluate(pred.x_mean + rng.normal(size=model.n) * 2.0)
            _, report = newton_update(pred, y, model.map, model.R)
            costs = np.asarray(report.cost_trajectory)
            assert np.all(np.diff(costs) <= 1e-12)
            assert report.final_cost == costs[-1]

    def test_singular_predicted_covariance_is_numerical_failure(self, tracking_scenario):
        # the update whitens with the inverse of the predicted factor, which a
        # singular (PSD) covariance does not have; no jitter hides that
        from ssue import NumericalFailureError
        model = tracking_scenario.model
        P = np.eye(model.n + 1)
        P[2, 2] = 0.0
        pred = JointBelief(np.ones(model.n + 1), P)
        with pytest.raises(NumericalFailureError, match="singular") as info:
            newton_update(pred, np.ones(model.p), model.map, model.R)
        assert info.value.context["hypothesis"] == 0

    def test_options_validation(self):
        with pytest.raises(ContractError):
            NewtonOptions(max_iterations=0)
        with pytest.raises(ContractError):
            NewtonOptions(mode="bfgs")

    @pytest.mark.parametrize("removed", [{"step_tolerance": 1e-9}, {"line_search": "none"}],
                             ids=["step_tolerance", "line_search"])
    def test_removed_options_are_type_errors(self, removed):
        # the update stops on the Newton decrement and always backtracks
        with pytest.raises(TypeError):
            NewtonOptions(**removed)


# ---------------------------------------------------------------------------
# Likelihood and weights


class TestLikelihood:
    def test_scalar_zero_innovation_value(self):
        # p=1, h(x)=x, P^x=1, R=1, nu=0: (2 pi * 2)^{-1/2}
        pred = JointBelief(np.array([0.0, 1.5]), np.eye(2))
        mmap = linear_map(np.eye(1))
        loglam = log_likelihood(pred, np.array([1.5]), mmap, np.eye(1))
        npt.assert_allclose(loglam, np.log(1.0 / np.sqrt(4.0 * np.pi)), rtol=1e-12)
        npt.assert_allclose(loglam, np.log(0.28209), rtol=1e-4)

    def test_huge_innovation_underflows_but_log_is_finite(self):
        pred = JointBelief(np.array([0.0, 0.0]), np.eye(2))
        mmap = linear_map(np.eye(1))
        y = np.array([100.0 * np.sqrt(2.0)])  # 100 sigma for Gamma = 2
        loglam = log_likelihood(pred, y, mmap, np.eye(1))
        assert np.exp(loglam) == 0.0  # the linear-domain value underflows
        expected = -0.5 * 100.0 ** 2 - 0.5 * np.log(2 * np.pi * 2.0)
        npt.assert_allclose(loglam, expected, rtol=1e-12)

    def test_maximal_at_zero_innovation(self, rng):
        pred = JointBelief(np.array([0.0, 0.0]), np.eye(2))
        mmap = linear_map(np.eye(1))
        peak = log_likelihood(pred, np.zeros(1), mmap, np.eye(1))
        for _ in range(20):
            y = rng.normal(size=1) * 5
            assert log_likelihood(pred, y, mmap, np.eye(1)) <= peak


class TestUpdateWeights:
    def test_uniform_evidence_leaves_weights(self):
        mu = np.array([0.25, 0.5, 0.25])
        out = update_weights_log(mu, np.log([3.0, 3.0, 3.0]), floor=0.0)
        npt.assert_allclose(out, mu, rtol=1e-14)

    def test_direct_normalization(self):
        out = update_weights_log([0.5, 0.5], np.log([2.0, 1.0]), floor=0.0)
        npt.assert_allclose(out, [2 / 3, 1 / 3], rtol=1e-14)

    def test_floor_revives_dead_hypotheses(self):
        out = update_weights_log([1.0, 0.0], np.log([1.0, 1.0]), floor=1e-12)
        assert out[1] == pytest.approx(1e-12, rel=1e-6)
        npt.assert_allclose(out.sum(), 1.0, atol=1e-15)

    def test_all_zero_evidence_raises(self):
        with np.errstate(divide="ignore"):
            zero_evidence = np.log([0.0, 0.0])
        with pytest.raises(DegenerateEvidenceError):
            update_weights_log([0.5, 0.5], zero_evidence)

    def test_contract_errors(self):
        with pytest.raises(ContractError):
            update_weights_log([0.5, 0.5], np.log([1.0]))
        with pytest.raises(ContractError):
            update_weights_log([0.7, 0.7], np.log([1.0, 1.0]))

    def test_identified_location_invariant_under_lambda_scaling(self, rng):
        for _ in range(20):
            mu = rng.uniform(0.1, 1.0, 3)
            mu = mu / mu.sum()
            lam = rng.uniform(0.1, 5.0, 3)
            scale = rng.uniform(1e-3, 1e3)
            a = update_weights_log(mu, np.log(lam))
            b = update_weights_log(mu, np.log(lam * scale))
            npt.assert_allclose(a, b, rtol=1e-10)
            assert np.argmax(a) == np.argmax(b)


# ---------------------------------------------------------------------------
# Full step and EKF baseline


class TestSsueStep:
    def test_single_hypothesis_bank(self, rng):
        scn = tracking_preset(seed=3)
        model = scn.model
        single = SystemModel(
            A=model.A, locations=LocationSet((model.locations[1],)),
            domain=model.domain, Q=model.Q, R=model.R, P0=model.P0, map=model.map)
        bank = initial_bank(single)
        y = model.map.evaluate(rng.normal(size=4) * 3)
        result = ssue_step(bank, y, single)
        npt.assert_array_equal(result.bank.weights, [1.0])
        npt.assert_array_equal(result.fused.xi_mean, result.bank.xi_means[0])
        assert result.identified_index == 0

    def test_identical_locations_keep_weights_symmetric(self, rng):
        scn = tracking_preset(seed=4)
        model = scn.model
        loc = model.locations[1]
        twin_set = object.__new__(LocationSet)  # bypass the distinctness invariant
        object.__setattr__(twin_set, "members", (loc, loc))
        twins = SystemModel(A=model.A, locations=twin_set, domain=model.domain,
                            Q=model.Q, R=model.R, P0=model.P0, map=model.map)
        bank = initial_bank(twins)
        y = model.map.evaluate(rng.normal(size=4) * 2)
        result = ssue_step(bank, y, twins)
        assert result.log_lambdas[0] == result.log_lambdas[1]
        npt.assert_allclose(result.bank.weights, [0.5, 0.5], atol=1e-15)

    def test_bank_model_mismatch_is_contract_error(self, tracking_scenario):
        model = tracking_scenario.model
        single = SystemModel(
            A=model.A, locations=LocationSet((model.locations[0],)),
            domain=model.domain, Q=model.Q, R=model.R, P0=model.P0, map=model.map)
        bank = initial_bank(single)
        with pytest.raises(ContractError):
            ssue_step(bank, np.zeros(model.p), model)

    def test_belief_dimension_mismatch_is_contract_error(self, tracking_scenario):
        model = tracking_scenario.model
        small = JointBelief(np.zeros(4), np.eye(4))  # n = 3 on the 4-state preset
        bank = HypothesisBank(np.stack([small.xi_mean] * model.M),
                              np.stack([small.xi_cov] * model.M), np.full(model.M, 1.0 / model.M))
        with pytest.raises(ContractError, match="state dimension") as info:
            ssue_step(bank, np.zeros(model.p), model, step=2)
        assert info.value.context["step"] == 2

    def test_weights_simplex_and_covariances_spd_along_run(self):
        scn = tracking_preset(seed=11, steps=40)
        bank = initial_bank(scn.model)
        import ssue as _ssue
        rec = _ssue.simulate(scn)
        for k in range(scn.steps):
            result = ssue_step(bank, rec.measurements[k], scn.model, step=k)
            bank = result.bank
            assert abs(bank.weights.sum() - 1.0) <= 1e-12
            for P in bank.xi_covs:
                npt.assert_array_equal(P, P.T)
                eig = np.linalg.eigvalsh(P)
                assert eig[0] > -1e-10 * max(eig[-1], 1.0)
            for rep in result.reports:
                assert np.all(np.diff(rep.cost_trajectory) <= 1e-12)


class TestMapCalls:
    """A step calls the map once per stage for all hypotheses together, and the
    MAP update starts from the h and C that the likelihood evaluated at the
    predicted means instead of evaluating them again."""

    @staticmethod
    def counting(model):
        calls = {"evaluate": 0, "jacobian": 0}

        def counted(name):
            fn = getattr(model.map, name)

            def call(x):
                calls[name] += 1
                return fn(x)
            return call

        mmap = dataclasses.replace(model.map, evaluate=counted("evaluate"),
                                   jacobian=counted("jacobian"))
        return dataclasses.replace(model, map=mmap), calls

    # likelihood: 1 + 1; each Gauss-Newton round: one residual, and a Jacobian
    # from the second round on; the posterior: one Jacobian at the last iterate
    @pytest.mark.parametrize("max_iterations, expected", [(1, 2), (2, 3), (4, 5)])
    def test_calls_per_step_do_not_grow_with_hypotheses(self, rng, tracking_scenario,
                                                         max_iterations, expected):
        y = tracking_scenario.model.map.evaluate(rng.normal(size=4) * 3)
        model, calls = self.counting(tracking_scenario.model)
        assert model.M == 3
        opts = NewtonOptions(max_iterations=max_iterations)
        result = ssue_step(initial_bank(model), y, model, opts)
        assert all(r.iterations_used == max_iterations for r in result.reports)
        assert calls == {"evaluate": expected, "jacobian": expected}

    @pytest.fixture(scope="class")
    def preset_run(self, tracking_scenario):
        """The reports and map calls of 300 online steps of the preset at seed 42."""
        model, calls = self.counting(tracking_scenario.model)
        bank, reports = initial_bank(model), []
        for y in simulate(tracking_scenario).measurements:
            result = ssue_step(bank, y, model)
            bank = result.bank
            reports += result.reports
        return reports, calls

    def test_no_update_stalls_on_the_preset(self, preset_run):
        # an update stops on its Newton decrement or at the iteration cap, never in
        # a backtracking search that finds no step at the minimum
        reports, _ = preset_run
        assert len(reports) == 900
        cap = NewtonOptions().max_iterations
        assert all(r.iterations_used == cap for r in reports if not r.converged)

    def test_preset_run_evaluation_budget(self, preset_run):
        _, calls = preset_run
        assert calls["evaluate"] <= 2000

    def test_single_state_map_is_contract_error(self, tracking_scenario):
        model = tracking_scenario.model
        C = np.eye(model.p, model.n)
        single = MeasurementMap(model.p, lambda x: C @ x[0], lambda x: C)
        bad = dataclasses.replace(model, map=single)
        with pytest.raises(ContractError, match=r"returned shape \(3, 4\)") as info:
            ssue_step(initial_bank(bad), np.ones(model.p), bad, step=4)
        assert info.value.context["step"] == 4


class TestFactorCalls:
    """The step path factors with Cholesky and QR only: no eigenvalue check or
    eigh factor on a well-posed model."""

    def test_step_paths_make_no_eigen_calls(self, monkeypatch, rng):
        calls = []
        for name in ("eigvalsh", "eigh"):
            def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        scn = tracking_preset(steps=1)  # a fresh model: its filter constants are built here
        y = scn.model.map.evaluate(rng.normal(size=4) * 3)
        ssue_step(initial_bank(scn.model), y, scn.model)
        (record,) = estimate_batch([scn])
        assert record.mu.shape == (1, 3)
        assert calls == []


class TestStepObjects:
    """A step reads and writes the bank's arrays; it builds no per-hypothesis beliefs."""

    def test_step_builds_only_the_fused_belief(self, monkeypatch, rng, tracking_scenario):
        model = tracking_scenario.model
        bank = initial_bank(model)
        built = []
        real = JointBelief.__post_init__
        monkeypatch.setattr(JointBelief, "__post_init__",
                            lambda self: (built.append(self), real(self))[1])
        result = ssue_step(bank, model.map.evaluate(rng.normal(size=4) * 3), model)
        assert len(built) == 1 and built[0] is result.fused


class TestSingularMeasurementNoise:
    """An R that is not positive definite is rejected by name, not jittered
    into a huge whitening gain."""

    @pytest.fixture()
    def scenario(self, tracking_scenario):
        model = dataclasses.replace(tracking_scenario.model, R=np.zeros((3, 3)))
        return dataclasses.replace(tracking_scenario, model=model, steps=5)

    def test_step_and_run_reject(self, scenario):
        model = scenario.model
        with pytest.raises(ContractError, match="covariance R is not positive definite"):
            ssue_step(initial_bank(model), np.ones(model.p), model)
        with pytest.raises(ContractError, match="covariance R is not positive definite"):
            run_estimation(scenario)

    def test_update_and_likelihood_reject(self, scenario):
        model = scenario.model
        bank = initial_bank(model)
        pred = JointBelief(bank.xi_means[0], bank.xi_covs[0])
        with pytest.raises(ContractError, match="covariance R is not positive definite"):
            newton_update(pred, np.ones(model.p), model.map, model.R)
        with pytest.raises(ContractError, match="covariance R is not positive definite"):
            log_likelihood(pred, np.ones(model.p), model.map, model.R)


class TestRowFallbacks:
    """The jitter fallback of the stacked normal-equation solve applies to the
    failing row alone; the other rows keep the step they get on their own."""

    GOOD = np.array([[4.0, 1.0], [1.0, 3.0]])
    SINGULAR = np.ones((2, 2))

    @staticmethod
    def normal_solve(N, g):
        from ssue.filters import NORMAL_EQUATION_JITTER, _rowwise
        return _rowwise(lambda A, rows: np.linalg.solve(A, -g[rows, :, None])[..., 0], N,
                        "test stack is singular", NORMAL_EQUATION_JITTER)

    def test_jitter_stays_in_its_row(self):
        from ssue.filters import NORMAL_EQUATION_JITTER
        stack = np.stack([self.GOOD, self.SINGULAR, 2.0 * self.GOOD])
        g = np.arange(6.0).reshape(3, 2)
        out = self.normal_solve(stack, g)
        npt.assert_array_equal(out[0], np.linalg.solve(self.GOOD, -g[0]))
        npt.assert_array_equal(out[2], np.linalg.solve(2.0 * self.GOOD, -g[2]))
        npt.assert_array_equal(out[1], np.linalg.solve(
            self.SINGULAR + NORMAL_EQUATION_JITTER * np.eye(2), -g[1]))

    def test_failing_row_is_named(self):
        from ssue import NumericalFailureError
        from ssue.filters import NORMAL_EQUATION_JITTER
        singular_after_jitter = np.diag([0.0, -NORMAL_EQUATION_JITTER])
        with pytest.raises(NumericalFailureError, match="singular") as info:
            self.normal_solve(np.stack([self.GOOD, singular_after_jitter]), np.ones((2, 2)))
        assert info.value.context["hypothesis"] == 1


class TestNonFiniteMeasurement:
    """NaN/inf measurements are contract violations, not evidence: they must be
    rejected before they reach the factorizations or the weight update."""

    @pytest.fixture(params=[np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def bad_y(self, request, tracking_scenario):
        y = tracking_scenario.model.map.evaluate(tracking_scenario.x0_truth)
        y[1] = request.param
        return y

    def test_ssue_step_reports_step(self, bad_y, tracking_scenario):
        model = tracking_scenario.model
        with pytest.raises(ContractError, match="non-finite") as info:
            ssue_step(initial_bank(model), bad_y, model, step=7)
        assert info.value.context["step"] == 7

    def test_update_likelihood_and_ekf_reject(self, bad_y, tracking_scenario):
        model = tracking_scenario.model
        bank = initial_bank(model)
        pred = JointBelief(bank.xi_means[0], bank.xi_covs[0])
        with pytest.raises(ContractError, match="non-finite"):
            newton_update(pred, bad_y, model.map, model.R)
        with pytest.raises(ContractError, match="non-finite"):
            log_likelihood(pred, bad_y, model.map, model.R)
        with pytest.raises(ContractError, match="non-finite"):
            ekf_step(np.zeros(model.n), model.P0, bad_y, model)


class TestInitialBank:
    def test_midpoint_and_halfwidth(self, tracking_scenario):
        bank = initial_bank(tracking_scenario.model)
        assert bank.M == 3
        npt.assert_allclose(bank.weights, np.full(3, 1 / 3), atol=1e-15)
        b = JointBelief(bank.xi_means[0], bank.xi_covs[0])
        assert b.delta_mean == pytest.approx(-0.105)
        assert b.p_delta == pytest.approx(0.095 ** 2)
        npt.assert_array_equal(b.x_mean, np.zeros(4))
        npt.assert_array_equal(b.p_x, tracking_scenario.model.P0)
        npt.assert_array_equal(b.p_delta_x, np.zeros(4))


class TestEkfStep:
    def make_linear_model(self, rng, n=3, p=2):
        A = np.eye(n) + 0.1 * rng.normal(size=(n, n))
        C = rng.normal(size=(p, n))
        loc = LocationMatrix(np.diag([1.0] + [0.0] * (n - 1)))
        W = rng.normal(size=(n, n))
        Q = 0.1 * (W @ W.T) + 0.01 * np.eye(n)
        return SystemModel(A=A, locations=LocationSet((loc,)),
                           domain=UncertaintyDomain(((-0.1, 0.1),)),
                           Q=Q, R=np.eye(p), P0=np.eye(n), map=linear_map(C))

    def test_linear_map_reduces_to_kalman_filter(self, rng):
        model = self.make_linear_model(rng)
        mean, cov = rng.normal(size=3), np.eye(3)
        y = rng.normal(size=2)
        got_mean, got_cov = ekf_step(mean, cov, y, model)

        # independent textbook KF recursion
        m_pred = model.A @ mean
        P_pred = model.A @ cov @ model.A.T + model.Q
        C = model.map.jacobian(m_pred)
        S = C @ P_pred @ C.T + model.R
        K = P_pred @ C.T @ np.linalg.inv(S)
        ref_mean = m_pred + K @ (y - C @ m_pred)
        ref_cov = (np.eye(3) - K @ C) @ P_pred
        npt.assert_allclose(got_mean, ref_mean, rtol=1e-10)
        npt.assert_allclose(got_cov, 0.5 * (ref_cov + ref_cov.T), rtol=1e-10)

    def test_zero_innovation_keeps_predicted_mean(self, rng):
        model = self.make_linear_model(rng)
        mean = rng.normal(size=3)
        y = model.map.evaluate(model.A @ mean)
        got_mean, _ = ekf_step(mean, np.eye(3), y, model)
        npt.assert_allclose(got_mean, model.A @ mean, rtol=0, atol=1e-12)

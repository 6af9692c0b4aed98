import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
from scipy.optimize import minimize

from ssue import filters
from ssue import (
    ContractError,
    HypothesisBank,
    JointBelief,
    LocationMatrix,
    LocationSet,
    MeasurementMap,
    NumericalFailureError,
    SystemModel,
    UncertaintyDomain,
    ekf_step,
    estimate_batch,
    initial_bank,
    linear_map,
    run_estimation,
    simulate,
    ssue_step,
    tracking_preset,
)
from ssue.belief import psd_factor, symmetrize

# ---------------------------------------------------------------------------
# Independent oracles.  The filter has two entries, ssue_step and estimate_batch;
# the kernel's prediction, likelihood, MAP update and weight update are checked
# through ssue_step, mostly on one-location models.


def prediction_oracle(belief, model):
    """Textbook augmented-state EKF prediction under the model's first location L:
    mean [delta; (A + delta L) x] and covariance F P F^T + blkdiag(0, Q) with the
    Jacobian F = [[1, 0], [L x, A + delta L]]."""
    L, delta, x = model.locations[0].entries, belief.xi_mean[0], belief.xi_mean[1:]
    F = np.zeros((model.n + 1, model.n + 1))
    F[0, 0], F[1:, 0], F[1:, 1:] = 1.0, L @ x, model.A + delta * L
    P = F @ belief.xi_cov @ F.T
    P[1:, 1:] += model.Q
    return np.concatenate([[delta], F[1:, 1:] @ x]), P


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


def linear_model(A, Q, C, R, loc=None):
    """One-location model x+ = (A + delta L) x + w, y = C x + v; L defaults to I."""
    n = A.shape[0]
    loc = LocationMatrix(np.eye(n)) if loc is None else loc
    return SystemModel(A=A, locations=LocationSet((loc,)), domain=UncertaintyDomain(((-0.2, 0.0),)),
                       Q=Q, R=R, P0=np.eye(n), map=linear_map(C))


def one_location(model, i=0):
    """``model`` with its location ``i`` as the only candidate."""
    return dataclasses.replace(model, locations=LocationSet(model.locations[i:i + 1]))


def twin_model(model, count):
    """``model`` with ``count`` copies of its location 1 as the candidates."""
    loc = model.locations[1]
    twins = object.__new__(LocationSet)  # bypass the distinctness invariant
    object.__setattr__(twins, "members", (loc,) * count)
    object.__setattr__(twins, "entries", np.stack([loc.entries] * count))
    return dataclasses.replace(model, locations=twins)


def step_belief(belief, y, model):
    """``ssue_step`` of a one-location model from ``belief`` (its covariance factored
    here): the posterior belief, the log evidence of y and the update's report."""
    bank = HypothesisBank(belief.xi_mean[None], psd_factor(belief.xi_cov[None]), [1.0])
    result = ssue_step(bank, y, model)
    post = JointBelief(result.bank.xi_means[0], result.bank.xi_covs[0])
    return post, result.log_lambdas[0], result.reports[0]


def predicted(belief, model):
    """The step's prediction of ``belief`` under a one-location ``model``: a step under
    the uninformative map C = 0, whose update keeps the prediction."""
    blind = dataclasses.replace(model, map=linear_map(np.zeros((1, model.n))), R=np.eye(1))
    return step_belief(belief, np.zeros(1), blind)[0]


# ---------------------------------------------------------------------------
# Prediction


class TestPredict:
    def test_zero_delta_reduces_to_nominal_dynamics(self, rng):
        n = 3
        A = rng.normal(size=(n, n))
        model = linear_model(A, np.zeros((n, n)), np.eye(n), np.eye(n),
                             LocationMatrix(np.diag([1.0, 0.0, 1.0])))
        b = JointBelief(np.concatenate([[0.0], rng.normal(size=n)]), np.eye(n + 1))
        out = predicted(b, model)
        npt.assert_allclose(out.xi_mean[1:], A @ b.xi_mean[1:], rtol=1e-14)

    def test_scalar_hand_case_mean(self):
        b = JointBelief(np.array([-0.05, 2.0]), np.eye(2))
        out = predicted(b, linear_model(np.ones((1, 1)), np.zeros((1, 1)), np.eye(1), np.eye(1)))
        npt.assert_allclose(out.xi_mean[1:], [1.9], rtol=1e-14)

    def test_scalar_hand_case_covariance_blocks(self):
        # A=[1], L=[1], delta=0, x=[1], unit joint covariance, Q=[0]:
        # F=[1,1], P^x+ = 2, P^{dx}+ = 1, P^d+ = 1 (the singular Q is used as it is)
        b = JointBelief(np.array([0.0, 1.0]), np.eye(2))
        out = predicted(b, linear_model(np.ones((1, 1)), np.zeros((1, 1)), np.eye(1), np.eye(1)))
        npt.assert_array_equal(out.xi_cov, [[1.0, 1.0], [1.0, 2.0]])

    def test_preserves_delta_mean_and_variance(self, rng, tracking_scenario):
        # delta has no dynamics and no process noise: its mean carries over exactly,
        # its variance |S[0, :]|^2 of the predicted factor to rounding
        model = one_location(tracking_scenario.model, 1)
        b = random_belief(rng, model.n)
        out = predicted(b, model)
        assert out.delta_mean == b.delta_mean
        npt.assert_allclose(out.xi_cov[0, 0], b.xi_cov[0, 0], rtol=1e-14)

    def test_output_joint_covariance_is_spd(self, rng, tracking_scenario):
        model = one_location(tracking_scenario.model)
        for _ in range(10):
            b = random_belief(rng, model.n)
            out = predicted(b, model)
            P = out.xi_cov
            npt.assert_array_equal(P, P.T)
            assert np.linalg.eigvalsh(P)[0] > 0
            assert rel_err(P, prediction_oracle(b, model)[1]) <= 1e-12


# ---------------------------------------------------------------------------
# MAP measurement update


class TestNewtonUpdate:
    def test_zero_innovation_is_fixed_point(self, rng):
        n, p = 3, 2
        model = linear_model(np.eye(n), np.eye(n), rng.normal(size=(p, n)), np.eye(p))
        prior = random_belief(rng, n)
        xi_pred, _ = prediction_oracle(prior, model)
        post, _, report = step_belief(prior, model.map.evaluate(xi_pred[1:]), model)
        npt.assert_allclose(post.xi_mean, xi_pred, rtol=0, atol=1e-12)
        assert report.converged

    @pytest.mark.parametrize("max_iterations", [1, 3, 10])
    def test_linear_map_equals_kalman_update(self, rng, monkeypatch, max_iterations):
        monkeypatch.setattr(filters, "MAX_ITERATIONS", max_iterations)
        n, p = 4, 2
        C = rng.normal(size=(p, n))
        R = np.diag(rng.uniform(0.5, 2.0, p))
        C_aug = np.hstack([np.zeros((p, 1)), C])
        # a rank-deficient prior (one state pinned) under Q = 0 predicts a singular
        # covariance, which the update uses exactly
        W = rng.normal(size=(n + 1, n + 1))
        W[n] = 0.0
        pinned = JointBelief(np.concatenate([[-0.1], rng.normal(size=n)]), W @ W.T)
        cases = [(np.eye(n), random_belief(rng, n)) for _ in range(10)] + [(np.zeros((n, n)), pinned)]
        for Q, prior in cases:
            model = linear_model(np.eye(n), Q, C, R)
            xi_pred, P_pred = prediction_oracle(prior, model)
            y = C @ xi_pred[1:] + rng.normal(size=p)
            post, _, _ = step_belief(prior, y, model)
            xi_ref, P_ref = kalman_update_oracle(xi_pred, P_pred, y, C_aug, R)
            assert rel_err(post.xi_mean, xi_ref) <= 1e-8
            assert rel_err(post.xi_cov, P_ref) <= 1e-8
        assert np.linalg.matrix_rank(P_pred) == n  # the pinned case's

    def test_range_map_matches_derivative_free_minimizer(self, rng, tracking_scenario):
        model = one_location(tracking_scenario.model)
        for _ in range(5):
            prior = random_belief(rng, model.n, x_scale=3.0)
            xi_pred, P_pred = prediction_oracle(prior, model)
            x_true = xi_pred[1:] + rng.normal(size=model.n)
            y = model.map.evaluate(x_true) + rng.normal(size=model.p) * 0.5
            post, _, _ = step_belief(prior, y, model)
            res = minimize(
                map_cost, xi_pred,
                args=(xi_pred, P_pred, y, model.map, model.R),
                method="Nelder-Mead",
                options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000, "maxfev": 20000},
            )
            res = minimize(
                map_cost, res.x,
                args=(xi_pred, P_pred, y, model.map, model.R),
                method="Nelder-Mead",
                options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000, "maxfev": 20000},
            )
            assert np.linalg.norm(post.xi_mean - res.x) <= 1e-4

    def test_backtracking_cost_trajectory_non_increasing(self, rng, tracking_scenario):
        model = one_location(tracking_scenario.model)
        for _ in range(10):
            prior = random_belief(rng, model.n, x_scale=4.0)
            xi_pred, _ = prediction_oracle(prior, model)
            y = model.map.evaluate(xi_pred[1:] + rng.normal(size=model.n) * 2.0)
            _, _, report = step_belief(prior, y, model)
            costs = np.asarray(report.cost_trajectory)
            assert np.all(np.diff(costs) <= 1e-12)
            assert report.final_cost == costs[-1]

    @pytest.mark.parametrize("removed", [{"step_tolerance": 1e-9}, {"line_search": "none"},
                                         {"mode": "full_newton"}, {"opts": None}],
                             ids=["step_tolerance", "line_search", "mode", "opts"])
    def test_removed_options_are_type_errors(self, removed):
        # the step has no update options: Gauss-Newton only, stopping on the Newton
        # decrement or at MAX_ITERATIONS, always backtracking
        model = linear_model(np.eye(2), np.eye(2), np.eye(2), np.eye(2))
        with pytest.raises(TypeError):
            ssue_step(initial_bank(model), np.zeros(2), model, **removed)


# ---------------------------------------------------------------------------
# Likelihood and weights


class TestLikelihood:
    """The step's log evidence of y is the innovation density under its prediction.
    A prior with delta = 0 and x = 0 under A = 1 and Q = 0 is its own prediction."""

    @staticmethod
    def scalar():
        """h(x) = x with A = 1, Q = 0 and R = 1."""
        return linear_model(np.eye(1), np.zeros((1, 1)), np.eye(1), np.eye(1))

    @staticmethod
    def loglik(prior, y, model):
        return step_belief(prior, y, model)[1]

    def test_scalar_zero_innovation_value(self):
        # p=1, h(x)=x, P^x=1, R=1, nu=0: (2 pi * 2)^{-1/2}
        prior = JointBelief(np.zeros(2), np.eye(2))
        loglam = self.loglik(prior, np.zeros(1), self.scalar())
        npt.assert_allclose(loglam, np.log(1.0 / np.sqrt(4.0 * np.pi)), rtol=1e-12)
        npt.assert_allclose(loglam, np.log(0.28209), rtol=1e-4)

    def test_huge_innovation_underflows_but_log_is_finite(self):
        prior = JointBelief(np.zeros(2), np.eye(2))
        y = np.array([100.0 * np.sqrt(2.0)])  # 100 sigma for Gamma = 2
        loglam = self.loglik(prior, y, self.scalar())
        assert np.exp(loglam) == 0.0  # the linear-domain value underflows
        expected = -0.5 * 100.0 ** 2 - 0.5 * np.log(2 * np.pi * 2.0)
        npt.assert_allclose(loglam, expected, rtol=1e-12)

    def test_maximal_at_zero_innovation(self, rng):
        prior, model = JointBelief(np.zeros(2), np.eye(2)), self.scalar()
        peak = self.loglik(prior, np.zeros(1), model)
        for _ in range(20):
            y = rng.normal(size=1) * 5
            assert self.loglik(prior, y, model) <= peak

    @pytest.mark.parametrize("p, n, rank", [(2, 2, 3), (3, 2, 3), (2, 4, 5), (3, 4, 5), (3, 4, 2)])
    def test_matches_dense_gaussian_density(self, rng, p, n, rank):
        # rank < n + 1: under Q = 0 the predicted joint covariance is singular and is
        # used as it is
        W = rng.normal(size=(n + 1, rank))
        prior = JointBelief(rng.normal(size=n + 1), W @ W.T)
        C, V = rng.normal(size=(p, n)), rng.normal(size=(p, p))
        R = V @ V.T + np.eye(p)
        model = linear_model(np.eye(n), np.zeros((n, n)), C, R)
        xi_pred, P_pred = prediction_oracle(prior, model)
        y = C @ xi_pred[1:] + 2.0 * rng.normal(size=p)
        Sigma, nu = C @ P_pred[1:, 1:] @ C.T + R, y - C @ xi_pred[1:]
        dense = -0.5 * (p * np.log(2 * np.pi) + np.linalg.slogdet(Sigma)[1]
                        + nu @ np.linalg.solve(Sigma, nu))
        npt.assert_allclose(self.loglik(prior, y, model), dense, rtol=1e-12)


class TestUpdateWeights:
    """The step's weights are the Bayes update of the bank's weights by its own log
    evidences, floored at ``WEIGHT_FLOOR`` and renormalized."""

    def test_uniform_evidence_leaves_weights(self, rng, tracking_scenario):
        model = twin_model(tracking_scenario.model, 3)
        start = initial_bank(model)
        mu = np.array([0.25, 0.5, 0.25])
        bank = HypothesisBank(start.xi_means, start.xi_factors, mu)
        result = ssue_step(bank, model.map.evaluate(rng.normal(size=4) * 3), model)
        assert len(set(result.log_lambdas.tolist())) == 1
        npt.assert_allclose(result.bank.weights, mu, rtol=1e-14)

    def test_direct_normalization(self, rng, tracking_scenario):
        model = tracking_scenario.model
        start = initial_bank(model)
        mu = np.array([0.2, 0.3, 0.5])
        bank = HypothesisBank(start.xi_means, start.xi_factors, mu)
        result = ssue_step(bank, model.map.evaluate(rng.normal(size=4)), model)
        lam = np.exp(result.log_lambdas - result.log_lambdas.max())
        assert len(set(result.log_lambdas.tolist())) == 3
        npt.assert_allclose(result.bank.weights, mu * lam / (mu @ lam), rtol=1e-14)

    def test_floor_revives_dead_hypotheses(self, tracking_scenario):
        # a zero weight has log -inf (no warning) and comes back at the floor
        model = dataclasses.replace(tracking_scenario.model,
                                    locations=LocationSet(tracking_scenario.model.locations[:2]))
        start = initial_bank(model)
        bank = HypothesisBank(start.xi_means, start.xi_factors, [1.0, 0.0])
        result = ssue_step(bank, model.map.evaluate(tracking_scenario.x0_truth), model)
        out = result.bank.weights
        npt.assert_allclose(out[1], 1e-12, rtol=1e-6)  # pytest.approx would accept 0
        npt.assert_allclose(out.sum(), 1.0, atol=1e-15)
        assert result.identified_index == 0

    def test_identified_location_invariant_under_lambda_scaling(self, rng, tracking_scenario):
        # an extra output that no state moves, y_extra ~ N(0, r), multiplies every
        # hypothesis' evidence by one factor N(c; 0, r) and leaves the weights as they are
        model = tracking_scenario.model
        h, p = model.map, model.p

        def padded(a, tail):
            return np.concatenate([a, np.zeros(np.shape(a)[:-len(tail)] + tail)], axis=-len(tail))

        wide_map = MeasurementMap(p + 1, lambda x: padded(h.evaluate(x), (1,)),
                                  lambda x: padded(h.jacobian(x), (1, model.n)))
        start = initial_bank(model)
        for _ in range(20):
            mu = rng.uniform(0.1, 1.0, 3)
            mu = mu / mu.sum()
            r, c = rng.uniform(0.1, 5.0), rng.normal()
            R = np.zeros((p + 1, p + 1))
            R[:p, :p], R[p, p] = model.R, r
            wide = dataclasses.replace(model, map=wide_map, R=R)
            bank = HypothesisBank(start.xi_means, start.xi_factors, mu)
            y = h.evaluate(rng.normal(size=4) * 3)
            a = ssue_step(bank, y, model)
            b = ssue_step(bank, np.append(y, c), wide)
            npt.assert_allclose(b.log_lambdas - a.log_lambdas,
                                -0.5 * (np.log(2 * np.pi * r) + c * c / r), rtol=1e-10)
            npt.assert_allclose(a.bank.weights, b.bank.weights, rtol=1e-10)
            assert a.identified_index == b.identified_index


# ---------------------------------------------------------------------------
# Full step and EKF baseline


class TestSsueStep:
    def test_single_hypothesis_bank(self, rng):
        scn = tracking_preset(seed=3)
        model = scn.model
        single = one_location(model, 1)
        bank = initial_bank(single)
        y = model.map.evaluate(rng.normal(size=4) * 3)
        result = ssue_step(bank, y, single)
        npt.assert_array_equal(result.bank.weights, [1.0])
        npt.assert_array_equal(result.fused.xi_mean, result.bank.xi_means[0])
        assert result.identified_index == 0

    def test_identical_locations_keep_weights_symmetric(self, rng):
        scn = tracking_preset(seed=4)
        twins = twin_model(scn.model, 2)
        bank = initial_bank(twins)
        y = scn.model.map.evaluate(rng.normal(size=4) * 2)
        result = ssue_step(bank, y, twins)
        assert result.log_lambdas[0] == result.log_lambdas[1]
        npt.assert_allclose(result.bank.weights, [0.5, 0.5], atol=1e-15)
        assert result.identified_index == 0  # a tie goes to the lowest index

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
                              psd_factor(np.stack([small.xi_cov] * model.M)),
                              np.full(model.M, 1.0 / model.M))
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
            assert result.identified_index == np.argmax(bank.weights)
            for P in bank.xi_covs:
                npt.assert_array_equal(P, P.T)
                eig = np.linalg.eigvalsh(P)
                assert eig[0] > -1e-10 * max(eig[-1], 1.0)
            for rep in result.reports:
                assert np.all(np.diff(rep.cost_trajectory) <= 1e-12)


class TestMapCalls:
    """A step calls the map once per stage for all hypotheses together, and the
    likelihood comes from the first Gauss-Newton round, so h and C are evaluated
    at the predicted means once for both."""

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

    # round 0 at the predicted means (likelihood and first step): 1 + 1; each
    # Gauss-Newton round: one residual, then a Jacobian at the new iterates, for
    # the next round or, after the last, for the posterior
    @pytest.mark.parametrize("max_iterations, expected", [(1, 2), (2, 3), (4, 5)])
    def test_calls_per_step_do_not_grow_with_hypotheses(self, rng, monkeypatch,
                                                         tracking_scenario, max_iterations,
                                                         expected):
        monkeypatch.setattr(filters, "MAX_ITERATIONS", max_iterations)
        y = tracking_scenario.model.map.evaluate(rng.normal(size=4) * 3)
        model, calls = self.counting(tracking_scenario.model)
        assert model.M == 3
        result = ssue_step(initial_bank(model), y, model)
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
        cap = filters.MAX_ITERATIONS
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
    """The filter paths make no eigenvalue check or eigh factor on a well-posed model:
    the SSUE step factors with QR only, and the EKF with Cholesky."""

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


class TestLinalgCalls:
    """The stacked factorizations of one step: a QR each for the prediction and the
    posterior, one solve per Gauss-Newton round, the log-determinant of round 0's
    normal matrix for the likelihood and one inverse of the posterior root.  The
    step takes the bank's factors as they are, so it factors no covariance, not
    even a singular one, and the likelihood needs no factorization of the
    innovation covariance of its own."""

    @pytest.mark.parametrize("max_iterations, preset", [
        pytest.param(1, {}, id="1"),
        pytest.param(2, {}, id="2"),
        pytest.param(4, {}, id="4"),
        pytest.param(2, {"q": 0.0, "P0": np.diag([25.0, 25.0, 0.0, 0.0])}, id="singular_P0_q0-2"),
    ])
    def test_step_linalg_call_budget(self, rng, monkeypatch, count_linalg, max_iterations,
                                     preset):
        monkeypatch.setattr(filters, "MAX_ITERATIONS", max_iterations)
        model = tracking_preset(seed=1000, **preset).model
        y = model.map.evaluate(rng.normal(size=(2, 4)) * 3)
        bank = ssue_step(initial_bank(model), y[0], model).bank  # a step's output is the input
        calls, _ = count_linalg()
        result = ssue_step(bank, y[1], model)
        assert all(r.iterations_used == max_iterations for r in result.reports)
        assert calls == {"qr": 2, "solve": max_iterations, "slogdet": 1, "inv": 1}


class TestFrozenRows:
    """Every update round works on all rows of its working set: a row that has
    finished takes a zero step and keeps its iterate bit for bit while the other
    rows go on, and dropping finished rows from the set changes no number."""

    def test_row_done_in_round_one_equals_it_stepped_alone(self, tracking_scenario):
        model = tracking_scenario.model
        xi = np.array([-0.105, 5.0, 5.0, 1.0, -0.5])
        bank = HypothesisBank(np.tile(xi, (3, 1)), initial_bank(model).xi_factors, np.full(3, 1 / 3))
        # a measurement that the first location's prediction explains to within 1e-7,
        # so that row's first step is small enough to be its last, but not zero
        x_pred = (model.A + xi[0] * model.locations[0].entries) @ xi[1:]
        y = model.map.evaluate(x_pred) + 1e-7 * np.array([1.0, -1.0, 1.0])
        result = ssue_step(bank, y, model)
        first = result.reports[0]
        assert first.converged and first.iterations_used == 1
        assert min(r.iterations_used for r in result.reports[1:]) > 2
        assert all(len(r.cost_trajectory) == r.iterations_used + 1 for r in result.reports)

        alone_model = dataclasses.replace(model, locations=LocationSet(model.locations[:1]))
        alone = ssue_step(HypothesisBank(bank.xi_means[:1], bank.xi_factors[:1], [1.0]), y,
                          alone_model)
        npt.assert_array_equal(result.bank.xi_means[0], alone.bank.xi_means[0])
        npt.assert_array_equal(result.bank.xi_factors[0], alone.bank.xi_factors[0])
        npt.assert_array_equal(result.log_lambdas[0], alone.log_lambdas[0])
        assert first == alone.reports[0]

    def test_backtracking_row_beside_full_steps_equals_it_stepped_alone(self,
                                                                       tracking_scenario):
        # h(x) = 10 arctan(x[:3]) from a prediction far from y makes row 1 backtrack in
        # rounds where rows 0 and 2, predicted near y, take their full Gauss-Newton step
        def jacobian(x):
            J = np.zeros(np.shape(x)[:-1] + (3, np.shape(x)[-1]))
            J[..., range(3), range(3)] = 10.0 / (1.0 + np.asarray(x)[..., :3] ** 2)
            return J

        events = []
        mmap = MeasurementMap(3, lambda x: (events.append("E"), 10.0 * np.arctan(x[..., :3]))[1],
                              lambda x: (events.append("J"), jacobian(x))[1])
        model = dataclasses.replace(tracking_scenario.model, map=mmap)
        truth = np.array([2.0, -1.0, 0.5, 0.3])
        start = initial_bank(model)
        means = np.array(start.xi_means)
        means[:, 1:] = truth
        means[1, 1:] = [-3.0, 4.0, -2.0, 0.0]
        bank = HypothesisBank(means, 0.3 * start.xi_factors, start.weights)
        y = 10.0 * np.arctan(truth[:3])

        def backtracked():  # per update round after round 0: more than one evaluation
            return ["EE" in calls for calls in "".join(events)[2:].split("J")]

        result = ssue_step(bank, y, model)
        its = [r.iterations_used for r in result.reports]
        assert any(backtracked()[:min(its[0], its[2])])
        for i in range(model.M):
            one = dataclasses.replace(model, locations=LocationSet(model.locations[i:i + 1]))
            events.clear()
            alone = ssue_step(HypothesisBank(bank.xi_means[i:i + 1], bank.xi_factors[i:i + 1],
                                             [1.0]), y, one)
            assert any(backtracked()) == (i == 1)
            npt.assert_array_equal(result.bank.xi_means[i], alone.bank.xi_means[0])
            npt.assert_array_equal(result.bank.xi_factors[i], alone.bank.xi_factors[0])
            npt.assert_array_equal(result.log_lambdas[i], alone.log_lambdas[0])
            assert result.reports[i] == alone.reports[0]

    def test_dropping_finished_rows_changes_no_number(self, monkeypatch):
        # gathering the finished rows out of a round (GATHER_MIN_ROWS = 1: whenever they
        # are half the working set) passes fewer rows to the map and gives every row the
        # numbers and report it has when they are carried to the end
        evaluated = []
        base = tracking_preset(steps=40)
        real = base.model.map.evaluate
        mmap = dataclasses.replace(base.model.map,
                                   evaluate=lambda x: (evaluated.append(len(x)), real(x))[1])
        template = dataclasses.replace(base, model=dataclasses.replace(base.model, map=mmap))
        scenarios = [dataclasses.replace(template, seed=s) for s in range(60, 68)]
        records = [simulate(s) for s in scenarios]
        runs = []
        for min_rows in (1, 10**9):
            monkeypatch.setattr(filters, "GATHER_MIN_ROWS", min_rows)
            evaluated.clear()
            batch = estimate_batch(scenarios, records)
            bank, reports = initial_bank(template.model), []
            for y in records[0].measurements:
                result = ssue_step(bank, y, template.model)
                bank, reports = result.bank, reports + list(result.reports)
            runs.append((batch, sum(evaluated), bank, reports))
        (batch, rows, bank, reports), (batch_c, rows_c, bank_c, reports_c) = runs
        assert rows < rows_c
        for rec, rec_c in zip(batch, batch_c):
            for name in ("mu", "log_lambdas", "fused_means", "identified"):
                npt.assert_array_equal(getattr(rec, name), getattr(rec_c, name))
        npt.assert_array_equal(bank.xi_means, bank_c.xi_means)
        npt.assert_array_equal(bank.xi_factors, bank_c.xi_factors)
        assert reports == reports_c


class TestStepObjects:
    """A step reads and writes the bank's arrays; the fused belief, the update reports
    and the bank's covariances are derived when first read."""

    def test_step_derives_fused_reports_and_covariances_on_read(self, monkeypatch, rng,
                                                                tracking_scenario):
        model = tracking_scenario.model
        beliefs, reports = [], []
        real_init, real_report = JointBelief.__post_init__, filters.UpdateReport
        monkeypatch.setattr(JointBelief, "__post_init__",
                            lambda self: (beliefs.append(self), real_init(self))[1])
        monkeypatch.setattr(filters, "UpdateReport",
                            lambda *args: (reports.append(args), real_report(*args))[1])
        result = ssue_step(initial_bank(model), model.map.evaluate(rng.normal(size=4) * 3), model)
        assert not beliefs and not reports
        fused = result.fused
        assert result.fused is fused and len(beliefs) == 1 and beliefs[0] is fused
        assert len(result.reports) == model.M == len(reports)
        S = result.bank.xi_factors
        npt.assert_array_equal(result.bank.xi_covs, symmetrize(S @ np.swapaxes(S, -1, -2)))
        with pytest.raises(ValueError):
            result.bank.xi_covs[0, 0, 0] = 1.0


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

    def test_ekf_rejects(self, scenario):
        model = scenario.model
        with pytest.raises(ContractError, match="covariance R is not positive definite"):
            ekf_step(np.zeros(model.n), np.eye(model.n), np.ones(model.p), model)


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

    def test_ekf_rejects(self, bad_y, tracking_scenario):
        model = tracking_scenario.model
        with pytest.raises(ContractError, match="non-finite"):
            ekf_step(np.zeros(model.n), model.P0, bad_y, model)

    def test_stacked_ekf_rejects(self, bad_y, tracking_scenario):
        # the stacked mode (R runs) checks its (R, p) measurements as the single mode does
        model = tracking_scenario.model
        means, covs = np.zeros((2, model.n)), np.stack([model.P0] * 2)
        good_y = model.map.evaluate(tracking_scenario.x0_truth)
        with pytest.raises(ContractError, match="non-finite"):
            ekf_step(means, covs, np.stack([good_y, bad_y]), model)
        with pytest.raises(ContractError, match=r"shape \(2, 3\), got \(2, 2\)"):
            ekf_step(means, covs, np.stack([good_y, good_y])[:, :2], model)


class TestNonFiniteEvidence:
    """A map that gives NaN at a predicted mean is a numerical failure naming the
    hypothesis and the step, not zero evidence; NaN at a line-search trial point
    is backtracked past."""

    @staticmethod
    def nan_beyond(model, x0_max):
        real = model.map.evaluate
        mmap = dataclasses.replace(model.map, evaluate=lambda x: np.where(
            np.asarray(x)[..., :1] > x0_max, np.nan, real(x)))
        return dataclasses.replace(model, map=mmap)

    def test_step_names_hypothesis_and_step(self, tracking_scenario):
        model = self.nan_beyond(tracking_scenario.model, 4.9)
        start = initial_bank(model)
        means = start.xi_means.copy()
        means[0, 1] = 5.0  # hypothesis 0 predicts x0 = 5
        bank = HypothesisBank(means, start.xi_factors, start.weights)
        y = tracking_scenario.model.map.evaluate(tracking_scenario.x0_truth)
        with pytest.raises(NumericalFailureError, match="log-likelihood") as info:
            ssue_step(bank, y, model, step=9)
        assert info.value.context == {"hypothesis": 0, "step": 9}

    def test_batch_ends_only_the_failing_run(self, tracking_scenario):
        clean = dataclasses.replace(tracking_scenario, steps=40)
        scenarios = [clean, dataclasses.replace(clean, x0_truth=[-5.0, 5.0, 1.0, -0.5])]
        records = [simulate(s) for s in scenarios]  # measured without the NaN region
        model = self.nan_beyond(clean.model, 4.0)
        failed, finished = estimate_batch(
            [dataclasses.replace(s, model=model) for s in scenarios], records)
        assert isinstance(failed, NumericalFailureError)
        assert set(failed.context) == {"hypothesis", "step"}
        assert finished.mu.shape == (40, 3) and np.isfinite(finished.log_lambdas).all()


class TestNonFiniteJacobian:
    """A Jacobian that is not finite at a state the filter keeps (a predicted mean or an
    accepted Gauss-Newton iterate; the EKF's predicted mean) is a numerical failure at
    the step where it happens, naming the hypothesis, not NaN rows carried on."""

    @staticmethod
    def nan_beyond(model, x0_max):
        real = model.map.jacobian
        mmap = dataclasses.replace(model.map, jacobian=lambda x: np.where(
            np.asarray(x)[..., :1, None] > x0_max, np.nan, real(x)))
        return dataclasses.replace(model, map=mmap)

    @staticmethod
    def online_failure(scenario, model):
        bank = initial_bank(model)
        with pytest.raises(NumericalFailureError, match="Jacobian is not finite") as info:
            for k, y in enumerate(simulate(scenario).measurements):
                bank = ssue_step(bank, y, model, step=k).bank
        return info.value.context

    def test_at_a_predicted_mean(self, tracking_scenario):
        model = self.nan_beyond(tracking_scenario.model, 4.9)
        start = initial_bank(model)
        means = start.xi_means.copy()
        means[2, 1] = 5.0  # hypothesis 2 predicts x0 = 5
        bank = HypothesisBank(means, start.xi_factors, start.weights)
        y = tracking_scenario.model.map.evaluate(tracking_scenario.x0_truth)
        with pytest.raises(NumericalFailureError, match="Jacobian is not finite") as info:
            ssue_step(bank, y, model, step=9)
        assert info.value.context == {"hypothesis": 2, "step": 9}

    def test_at_an_accepted_iterate(self, tracking_scenario):
        # every predicted mean of step 0 has x0 = 0, so the failure is at an iterate
        model = self.nan_beyond(tracking_scenario.model, 0.5)
        assert self.online_failure(tracking_scenario, model) == {"hypothesis": 0, "step": 0}

    def test_batch_names_the_step_and_ends_only_the_failing_run(self, tracking_scenario):
        clean = dataclasses.replace(tracking_scenario, steps=40)
        scenarios = [dataclasses.replace(clean, x0_truth=[-5.0, 5.0, 1.0, -0.5]), clean]
        model = self.nan_beyond(clean.model, 4.0)
        finished, failed = estimate_batch(
            [dataclasses.replace(s, model=model) for s in scenarios],
            [simulate(s) for s in scenarios])
        assert isinstance(failed, NumericalFailureError)
        assert failed.context == self.online_failure(clean, model)
        assert finished.mu.shape == (40, 3) and np.isfinite(finished.log_lambdas).all()

    def test_ekf_step(self, tracking_scenario):
        model = self.nan_beyond(tracking_scenario.model, 0.5)
        y = model.map.evaluate(tracking_scenario.x0_truth)
        means = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])  # predicted x0 0 and 1
        with pytest.raises(NumericalFailureError, match="EKF measurement Jacobian"):
            ekf_step(means[1], model.P0, y, model)
        with pytest.raises(NumericalFailureError, match="EKF measurement Jacobian"):
            ekf_step(means, np.stack([model.P0] * 2), np.stack([y, y]), model)
        assert np.isfinite(ekf_step(means[0], model.P0, y, model)[0]).all()


class TestInitialBank:
    def test_midpoint_and_halfwidth(self, tracking_scenario):
        bank = initial_bank(tracking_scenario.model)
        assert bank.M == 3
        npt.assert_allclose(bank.weights, np.full(3, 1 / 3), atol=1e-15)
        xi, P = bank.xi_means[0], bank.xi_covs[0]
        assert xi[0] == pytest.approx(-0.105)
        assert P[0, 0] == pytest.approx(0.095 ** 2)
        npt.assert_array_equal(xi[1:], np.zeros(4))
        npt.assert_array_equal(P[1:, 1:], tracking_scenario.model.P0)
        npt.assert_array_equal(P[0, 1:], np.zeros(4))


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

    @pytest.mark.parametrize("case", ["nan_mean", "inf_cov", "nan_cov", "short_mean",
                                      "matrix_mean", "short_cov", "unstacked_cov"])
    def test_bad_mean_or_covariance_is_contract_error(self, rng, case):
        model = self.make_linear_model(rng)
        mean, cov, y = np.zeros(3), np.eye(3), np.zeros(2)
        mean, cov, y, match = {
            "nan_mean": (np.array([0.0, np.nan, 0.0]), cov, y, "EKF mean has non-finite"),
            "inf_cov": (mean, np.diag([1.0, np.inf, 1.0]), y, "EKF covariance has non-finite"),
            "nan_cov": (mean, np.full((3, 3), np.nan), y, "EKF covariance has non-finite"),
            "short_mean": (np.zeros(2), cov, y, r"EKF mean must have shape \(3,\), got \(2,\)"),
            "matrix_mean": (np.zeros((1, 1, 3)), cov, y, r"EKF mean must have shape \(3,\)"),
            "short_cov": (mean, np.eye(2), y, r"EKF covariance must have shape \(3, 3\), got"),
            "unstacked_cov": (np.zeros((2, 3)), cov, np.zeros((2, 2)),
                              r"EKF covariance must have shape \(2, 3, 3\), got \(3, 3\)"),
        }[case]
        with pytest.raises(ContractError, match=match):
            ekf_step(mean, cov, y, model)

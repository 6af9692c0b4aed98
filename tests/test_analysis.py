import dataclasses
import json
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from ssue import (
    ContractError,
    DeltaGrid,
    LocationMatrix,
    LocationSet,
    SystemModel,
    UncertaintyDomain,
    kl_separation,
    linear_map,
    linearized_C,
    loglik_ratio_trajectory,
    model_from_json,
    output_covariance,
    stack_observability,
    tracking_preset,
)


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def random_linear_model(n, p, seed):
    """A seeded linear model with 2-3 random locations, rank-deficient Q and P0
    and a positive definite R."""
    rng = np.random.default_rng(seed)
    A = 0.9 * rng.normal(size=(n, n)) / np.sqrt(n)
    cells = rng.choice(n * n, size=int(rng.integers(2, 4)), replace=False)
    locations = LocationSet(tuple(LocationMatrix(np.eye(n * n)[c].reshape(n, n))
                                  for c in cells))
    F = rng.normal(size=(n, n - 1))
    G = rng.normal(size=(n, 1))
    V = rng.normal(size=(p, p))
    return SystemModel(A=A, locations=locations, domain=UncertaintyDomain(((-0.3, 0.3),)),
                       Q=0.1 * F @ F.T, R=V @ V.T + 0.5 * np.eye(p), P0=G @ G.T,
                       map=linear_map(rng.normal(size=(p, n))))


def dense_kl_oracle(model, grid, k):
    """Pairwise KL from each dense Sigma_k = [O I_k] Omega [O I_k]^T + I (x) R, with
    O and I_k built from matrix powers, via slogdet and solve."""
    n, C = model.n, linearized_C(model, np.zeros(model.n))
    Omega = np.kron(np.eye(k + 1), model.Q)
    Omega[:n, :n] = model.P0
    sigmas = []
    for d in grid.values:
        for loc in model.locations:
            A = model.A + d * loc.entries
            power = [C @ np.linalg.matrix_power(A, j) for j in range(k + 1)]
            Pi = np.zeros(((k + 1) * model.p, (k + 1) * n))
            for i in range(k + 1):
                Pi[i * model.p:(i + 1) * model.p, :n] = power[i]
                for j in range(i):  # w_j reaches y_i through C A^(i-j-1)
                    Pi[i * model.p:(i + 1) * model.p, (j + 1) * n:(j + 2) * n] = power[i - j - 1]
            sigmas.append(Pi @ Omega @ Pi.T + np.kron(np.eye(k + 1), model.R))
    log_dets = [np.linalg.slogdet(S)[1] for S in sigmas]
    m = sigmas[0].shape[0]
    return np.array([[0.5 * (np.trace(np.linalg.solve(Si, St)) - m + ldi - ldt)
                      for Si, ldi in zip(sigmas, log_dets)]
                     for St, ldt in zip(sigmas, log_dets)])


def gaussian_kl(Sigma_t, Sigma_i) -> float:
    """Oracle: D(N(0, Sigma_t) || N(0, Sigma_i)) from the Cholesky factors of
    both covariances; one that is not positive definite is a ContractError."""
    try:
        L_t, L_i = (np.linalg.cholesky(np.asarray(S, dtype=float)) for S in (Sigma_t, Sigma_i))
    except np.linalg.LinAlgError as exc:
        raise ContractError("covariances must be positive definite") from exc
    W = np.linalg.solve(L_i, L_t)
    log_dets = [2.0 * np.sum(np.log(np.diag(L))) for L in (L_t, L_i)]
    return 0.5 * (float(np.sum(W * W)) - len(L_t) + log_dets[1] - log_dets[0])


def input_matrix(delta, loc, A, C, k):
    """I_k of :func:`output_covariance` for the model x+ = (A + delta L) x + w, y = C x + v."""
    n, p = A.shape[0], C.shape[0]
    model = SystemModel(A=A, locations=LocationSet((loc,)), domain=UncertaintyDomain(((-1, 1),)),
                        Q=np.eye(n), R=np.eye(p), P0=np.eye(n), map=linear_map(C))
    return output_covariance(delta, loc, model, k, x_ref=np.zeros(n)).I_k


class TestStackedInputMatrix:
    """I_k: the block-Toeplitz map from the stacked process noise [w_0; ...; w_{k-1}]
    to the stacked outputs, block (i, j) = C (A + delta L)^(i-j-1) for i > j."""

    def test_k1_layout(self, rng):
        C = rng.normal(size=(2, 3))
        loc = LocationMatrix(np.diag([1.0, 0.0, 0.0]))
        I1 = input_matrix(-0.1, loc, np.eye(3), C, 1)
        npt.assert_array_equal(I1[:2], np.zeros((2, 3)))
        npt.assert_array_equal(I1[2:], C)

    def test_k2_zero_delta_layout(self, rng):
        A = rng.normal(size=(2, 2))
        C = rng.normal(size=(1, 2))
        loc = LocationMatrix(np.diag([1.0, 0.0]))
        I2 = input_matrix(0.0, loc, A, C, 2)
        expected = np.zeros((3, 4))
        expected[1, :2] = C
        expected[2, :2] = C @ A
        expected[2, 2:] = C
        npt.assert_allclose(I2, expected, rtol=1e-14)

    def test_matches_forward_simulation_of_noise(self, rng):
        n, p, k = 3, 2, 6
        A = 0.5 * rng.normal(size=(n, n))
        C = rng.normal(size=(p, n))
        loc = LocationMatrix(np.diag([0.0, 1.0, 0.0]))
        delta = -0.3
        W = rng.normal(size=(k, n))
        I_k = input_matrix(delta, loc, A, C, k)
        stacked = I_k @ W.reshape(-1)

        # forward simulation with x0 = 0 and no measurement noise
        A_pert = A + delta * loc.entries
        x = np.zeros(n)
        outputs = [C @ x]
        for j in range(k):
            x = A_pert @ x + W[j]
            outputs.append(C @ x)
        npt.assert_allclose(stacked, np.concatenate(outputs), rtol=1e-12, atol=1e-12)

    def test_k0_is_empty_and_negative_k_rejected(self):
        # y_0 carries no process noise, so I_0 has no columns
        assert input_matrix(0.0, LocationMatrix(np.eye(1)), np.eye(1), np.eye(1), 0).shape == (1, 0)
        with pytest.raises(ContractError, match="horizon"):
            input_matrix(0.0, LocationMatrix(np.eye(1)), np.eye(1), np.eye(1), -1)


class TestLinearizedC:
    def test_nonlinear_map_needs_x_ref(self, tracking_scenario):
        model = tracking_scenario.model
        with pytest.raises(ContractError, match="x_ref"):
            linearized_C(model)
        with pytest.raises(ContractError, match="x_ref"):
            output_covariance(-0.05, model.locations[1], model, 2)
        x_ref = tracking_scenario.x0_truth
        npt.assert_array_equal(linearized_C(model, x_ref), model.map.jacobian(x_ref))

    def test_linear_map_needs_no_x_ref(self):
        C = [[1.0, 0.0], [0.5, 2.0]]
        model = model_from_json(json.dumps({
            "A": [[1.0, 0.1], [0.0, 1.0]],
            "locations": [[[1, 0], [0, 0]]],
            "delta_domain": [[-0.1, 0.1]],
            "Q": [[0.01, 0.0], [0.0, 0.01]],
            "R": [[1.0, 0.0], [0.0, 1.0]],
            "P0": [[1.0, 0.0], [0.0, 1.0]],
            "measurement": {"type": "linear", "C": C},
        }))
        npt.assert_array_equal(linearized_C(model), C)
        assert output_covariance(0.05, model.locations[0], model, 2).Sigma_k.shape == (6, 6)


class TestOutputCovariance:
    def test_k0_formula(self, tracking_scenario):
        model = tracking_scenario.model
        x_ref = tracking_scenario.x0_truth
        C = linearized_C(model, x_ref)
        out = output_covariance(-0.05, model.locations[1], model, 0, x_ref=x_ref)
        npt.assert_allclose(out.Sigma_k, C @ model.P0 @ C.T + model.R, rtol=1e-12)

    def test_no_state_randomness_leaves_measurement_noise(self, tracking_scenario):
        model = dataclasses.replace(tracking_scenario.model,
                                    Q=np.zeros((4, 4)), P0=np.zeros((4, 4)))
        out = output_covariance(-0.05, model.locations[1], model, 3,
                                x_ref=tracking_scenario.x0_truth)
        npt.assert_array_equal(out.Sigma_k, np.kron(np.eye(4), model.R))

    @pytest.mark.parametrize("k", [0, 1, 4, 20])
    @pytest.mark.parametrize("preset", [
        pytest.param({}, id="preset"),
        pytest.param({"q": 0.0, "P0": np.diag([25.0, 25.0, 0.0, 0.0])}, id="singular_P0_q0"),
    ])
    def test_blocks_assemble_to_sigma(self, tracking_scenario, preset, k):
        # dense oracle: [O_k I_k] blkdiag(P0, Q, ..., Q) [O_k I_k]^T + I (x) R
        model = tracking_preset(seed=42, **preset).model
        x_ref = tracking_scenario.x0_truth
        out = output_covariance(-0.05, model.locations[0], model, k, x_ref=x_ref)
        O = stack_observability(-0.05, model.locations[0], model.A,
                                linearized_C(model, x_ref), k)
        Omega = np.kron(np.eye(k + 1), model.Q)
        Omega[:model.n, :model.n] = model.P0
        Pi = np.hstack([O, out.I_k])
        ref = Pi @ Omega @ Pi.T + np.kron(np.eye(k + 1), model.R)
        npt.assert_allclose(out.Sigma_k, 0.5 * (ref + ref.T), rtol=1e-12)
        eig = np.linalg.eigvalsh(out.Sigma_k)
        assert eig[0] > 0

    def test_matches_monte_carlo_sample_covariance(self, tracking_scenario):
        model = tracking_scenario.model
        x_ref = tracking_scenario.x0_truth
        k = 5
        delta = -0.05
        loc = model.locations[1]
        out = output_covariance(delta, loc, model, k, x_ref=x_ref)

        rng = np.random.default_rng(7)
        n_samples = 200_000
        C = linearized_C(model, x_ref)
        A_pert = model.A + delta * loc.entries
        Lx = np.linalg.cholesky(model.P0)
        Lq = np.linalg.cholesky(model.Q)
        Lr = np.linalg.cholesky(model.R)
        x = rng.standard_normal((n_samples, 4)) @ Lx.T
        stacks = []
        for j in range(k + 1):
            v = rng.standard_normal((n_samples, 3)) @ Lr.T
            stacks.append(x @ C.T + v)
            if j < k:
                w = rng.standard_normal((n_samples, 4)) @ Lq.T
                x = x @ A_pert.T + w
        Y = np.hstack(stacks)
        sample_cov = (Y.T @ Y) / n_samples
        prod_std = np.sqrt(np.einsum("si,sj->ij", Y**2, Y**2) / n_samples - sample_cov**2)
        se = prod_std / np.sqrt(n_samples)
        assert np.all(np.abs(sample_cov - out.Sigma_k) <= 3 * se)

    def test_zero_delta_hypotheses_coincide_exactly(self, tracking_scenario):
        model = tracking_scenario.model
        x_ref = tracking_scenario.x0_truth
        a = output_covariance(0.0, model.locations[0], model, 6, x_ref=x_ref)
        b = output_covariance(0.0, model.locations[2], model, 6, x_ref=x_ref)
        npt.assert_array_equal(a.Sigma_k, b.Sigma_k)


class TestGaussianKl:
    """The Cholesky oracle that TestKlSeparation compares against."""

    def test_identical_is_zero(self, rng):
        W = rng.normal(size=(4, 4))
        S = W @ W.T + np.eye(4)
        assert gaussian_kl(S, S) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_formula_values(self):
        assert gaussian_kl([[2.0]], [[1.0]]) == pytest.approx(0.5 * (1.0 - np.log(2.0)))
        assert gaussian_kl([[2.0]], [[1.0]]) == pytest.approx(0.15343, abs=1e-5)
        assert gaussian_kl([[1.0]], [[2.0]]) == pytest.approx(0.5 * (0.5 - 1.0 + np.log(2.0)))
        assert gaussian_kl([[1.0]], [[2.0]]) == pytest.approx(0.09657, abs=1e-5)

    def test_nonnegative_on_random_pairs(self, rng):
        for _ in range(25):
            W1, W2 = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
            S1 = W1 @ W1.T + 0.5 * np.eye(3)
            S2 = W2 @ W2.T + 0.5 * np.eye(3)
            assert gaussian_kl(S1, S2) >= 0.0

    def test_strictly_positive_for_distinct_inputs(self):
        S = np.diag([1.0, 2.0])
        nudged = S + np.diag([1e-6, 0.0])
        assert gaussian_kl(S, nudged) > 0.0
        assert gaussian_kl(nudged, S) > 0.0

    def test_non_pd_is_contract_error(self):
        with pytest.raises(ContractError):
            gaussian_kl(np.zeros((2, 2)), np.eye(2))
        with pytest.raises(ContractError):
            gaussian_kl(np.eye(2), np.diag([1.0, -1.0]))


class TestKlSeparation:
    def test_diagonal_zero_and_entries_nonnegative(self, tracking_scenario):
        model = tracking_scenario.model
        grid = DeltaGrid(values=[-0.05])
        D = kl_separation(model, grid, 8, x_ref=tracking_scenario.x0_truth)
        assert D.shape == (3, 3)
        npt.assert_array_equal(np.diag(D), np.zeros(3))
        assert np.all(D >= 0)
        # delta = 0 makes every location one hypothesis: the whole block reads 0
        D = kl_separation(model, DeltaGrid(values=[-0.05, 0.0]), 5,
                          x_ref=tracking_scenario.x0_truth)
        assert D.shape == (6, 6)
        npt.assert_array_equal(D[3:, 3:], np.zeros((3, 3)))
        assert np.all(D >= 0) and np.all(D[:3, 3:] > 0) and np.all(D[3:, :3] > 0)

    def test_matches_pairwise_gaussian_kl(self, tracking_scenario):
        model = tracking_scenario.model
        x_ref = tracking_scenario.x0_truth
        grid = DeltaGrid(values=[-0.2, -0.1, -0.01])
        k = 5
        D = kl_separation(model, grid, k, x_ref=x_ref)
        sigmas = [output_covariance(d, model.locations[i], model, k, x_ref=x_ref).Sigma_k
                  for d in grid.values for i in range(model.M)]
        oracle = np.array([[gaussian_kl(St, Si) for Si in sigmas] for St in sigmas])
        npt.assert_allclose(D, oracle, rtol=1e-10, atol=0)

    def test_non_pd_sigma_names_hypothesis(self):
        # with no noise, Sigma_1 = O P0 O^T is singular exactly when C A = c C,
        # which for A = I + delta diag(1, 0) and C = [1, 1] happens at delta = 0
        model = model_from_json(json.dumps({
            "A": [[1.0, 0.0], [0.0, 1.0]],
            "locations": [[[1, 0], [0, 0]]],
            "delta_domain": [[-0.1, 0.1]],
            "Q": [[0.01, 0.0], [0.0, 0.01]],
            "R": [[1.0]],
            "P0": [[0.5, 0.0], [0.0, 0.5]],
            "measurement": {"type": "linear", "C": [[1.0, 1.0]]},
        }))
        model = dataclasses.replace(model, Q=np.zeros((2, 2)), R=np.zeros((1, 1)))
        assert kl_separation(model, DeltaGrid(values=[-0.1, 0.05]), 1).shape == (2, 2)
        with pytest.raises(ContractError, match="hypothesis 1 ") as info:
            kl_separation(model, DeltaGrid(values=[-0.1, 0.0]), 1)
        assert info.value.context == {"hypothesis": 1, "step": 1}
        with pytest.raises(ContractError, match="positive definite"):  # the same pass
            output_covariance(0.0, model.locations[0], model, 1)

    def test_tracking_true_vs_wrong_strictly_positive(self, tracking_scenario):
        model = tracking_scenario.model
        grid = DeltaGrid(values=[-0.05])
        D = kl_separation(model, grid, 20, x_ref=tracking_scenario.x0_truth)
        t = 1  # hypothesis ordering is grid-major; single delta, so index = location
        for i in (0, 2):
            assert D[t, i] > 1e-6
            assert D[i, t] > 1e-6

    @pytest.mark.parametrize("k", [0, 1, 6])
    @pytest.mark.parametrize("n, p", [(n, p) for n in (2, 3, 5) for p in (1, 2, 3)])
    def test_matches_dense_oracle_on_random_models(self, n, p, k):
        model = random_linear_model(n, p, seed=100 * n + p)
        grid = DeltaGrid(values=[-0.3, -0.1, 0.2])
        D = kl_separation(model, grid, k, x_ref=np.zeros(n))
        oracle = dense_kl_oracle(model, grid, k)
        off = ~np.eye(len(D), dtype=bool)
        npt.assert_array_equal(np.diag(D), 0.0)
        # KL is a difference of O(m) terms, so an entry near 0 (every entry at
        # k = 0, some near 1e-8 at k = 1) keeps ~1e-15 of rounding in any method
        npt.assert_allclose(D[off], oracle[off], rtol=1e-10, atol=1e-14)

    def test_benchmark_reference_matrix(self):
        # the geometry and tolerances of the benchmark's KL check: the preset,
        # a 21-point grid over its domain, horizon 20, x_ref = x0_truth
        scenario = tracking_preset()
        grid = DeltaGrid.from_domain(scenario.model.domain, points_per_interval=21)
        D = kl_separation(scenario.model, grid, 20, x_ref=scenario.x0_truth)
        reference = np.array(json.loads(REFERENCE.read_text())["kl_matrix"])
        npt.assert_allclose(D, reference, rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("a2", [0.5, -0.5])
    def test_identical_sigma_not_identical_hypothesis_reads_zero(self, a2, count_linalg):
        # C = [1, 0] never sees the second state, so perturbing A[1, 1] (location 0)
        # leaves Sigma_k unchanged for every delta, while location 1 moves it
        model = SystemModel(
            A=np.diag([0.9, a2]),
            locations=LocationSet((LocationMatrix(np.diag([0.0, 1.0])),
                                   LocationMatrix(np.diag([1.0, 0.0])))),
            domain=UncertaintyDomain(((-0.3, 0.3),)),
            Q=np.array([[0.2, 0.05], [0.05, 0.1]]), R=np.eye(1),
            P0=np.array([[1.0, 0.3], [0.3, 2.0]]), map=linear_map([[1.0, 0.0]]))
        grid = DeltaGrid(values=[-0.3, -0.1, 0.1, 0.3])
        k, x_ref = 4, np.zeros(2)
        _, shapes = count_linalg()
        D = kl_separation(model, grid, k, x_ref=x_ref)
        # no m x m factorization: one (8, p, p) cholesky and inverse per step
        assert shapes == [("cholesky", (8, 1, 1)), ("inv", (8, 1, 1))] * (k + 1)
        sigmas = [output_covariance(d, model.locations[i], model, k, x_ref=x_ref).Sigma_k
                  for d in grid.values for i in range(model.M)]
        unobservable = np.arange(0, 8, 2)
        for q in unobservable[1:]:
            # one Sigma_k for location 0, four for location 1; every hypothesis of
            # location 0 reads its row and column from one representative
            npt.assert_array_equal(sigmas[q], sigmas[0])
            npt.assert_array_equal(D[q], D[0])
            npt.assert_array_equal(D[:, q], D[:, 0])
        same = np.zeros((8, 8), dtype=bool)
        same[np.ix_(unobservable, unobservable)] = True
        npt.assert_array_equal(D[same], 0.0)  # 12 ordered pairs and their diagonal
        npt.assert_array_equal(np.diag(D), 0.0)
        oracle = np.array([[gaussian_kl(St, Si) for Si in sigmas] for St in sigmas])
        off = ~same & ~np.eye(8, dtype=bool)
        assert np.all(D[off] > 0)
        npt.assert_allclose(D[off], oracle[off], rtol=1e-10, atol=0)

    def test_factors_each_distinct_sigma_once(self, tracking_scenario, count_linalg):
        # grid (-0.05, 0.0): 6 hypotheses, the three at delta = 0 share one Sigma_k
        model = tracking_scenario.model
        k = 5
        _, shapes = count_linalg()
        D = kl_separation(model, DeltaGrid(values=[-0.05, 0.0]), k,
                          x_ref=tracking_scenario.x0_truth)
        assert D.shape == (6, 6)
        # Sigma_k itself is never factorized: one (6, p, p) cholesky and inverse
        # of the innovation covariances per step
        p = model.p
        assert shapes == [("cholesky", (6, p, p)), ("inv", (6, p, p))] * (k + 1)
        for q in (4, 5):  # the delta = 0 hypotheses read one representative's row
            npt.assert_array_equal(D[q], D[3])
            npt.assert_array_equal(D[:, q], D[:, 3])


class TestLogLikRatioTrajectory:
    class FakeRun:
        def __init__(self, log_lambdas):
            self.log_lambdas = log_lambdas

    def test_self_ratio_is_zero(self, rng):
        run = self.FakeRun(rng.normal(size=(30, 3)))
        npt.assert_array_equal(loglik_ratio_trajectory(run, 1, 1), np.zeros(30))

    def test_single_step_log2(self):
        run = self.FakeRun(np.array([[np.log(2.0), 0.0]]))
        npt.assert_allclose(loglik_ratio_trajectory(run, 0, 1), [np.log(2.0)], rtol=1e-15)

    def test_antisymmetry(self, rng):
        run = self.FakeRun(rng.normal(size=(50, 3)))
        npt.assert_array_equal(loglik_ratio_trajectory(run, 0, 2),
                               -loglik_ratio_trajectory(run, 2, 0))

    def test_missing_likelihoods_is_contract_error(self):
        run = self.FakeRun(None)
        run.log_lambdas = None
        with pytest.raises(ContractError):
            loglik_ratio_trajectory(run, 0, 1)

    def test_bad_indices_rejected(self, rng):
        run = self.FakeRun(rng.normal(size=(10, 2)))
        with pytest.raises(ContractError):
            loglik_ratio_trajectory(run, 0, 5)

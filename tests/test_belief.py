import numpy as np
import numpy.testing as npt
import pytest

from ssue import (
    ContractError,
    HypothesisBank,
    JointBelief,
    LocationSet,
    NumericalFailureError,
    SystemModel,
    fuse,
    initial_bank,
    ssue_step,
    tracking_preset,
)
from ssue.belief import PSD_REL_TOL, psd_factor, symmetrize


def make_belief(delta=0.0, x=(0.0,), p_delta=1.0, p_dx=None, p_x=None):
    n = len(x)
    cov = np.zeros((n + 1, n + 1))
    cov[0, 0] = p_delta
    cov[0, 1:] = cov[1:, 0] = np.zeros(n) if p_dx is None else p_dx
    cov[1:, 1:] = np.eye(n) if p_x is None else p_x
    return JointBelief(np.concatenate(([delta], np.asarray(x, dtype=float))), cov)


def bank_of(belief, M):
    """The stacked means and covariance factors of M copies of one belief."""
    return np.stack([belief.xi_mean] * M), psd_factor(np.stack([belief.xi_cov] * M))


def mixture_moments(means, covs, weights):
    """Exact first two moments of a Gaussian mixture (independent oracle)."""
    means = np.asarray(means, dtype=float)
    weights = np.asarray(weights, dtype=float)
    mean = sum(w * m for w, m in zip(weights, means))
    cov = sum(w * (np.asarray(c) + np.outer(m - mean, m - mean))
              for w, m, c in zip(weights, means, covs))
    return mean, cov


class TestAssemble:
    def test_identity_blocks(self):
        b = make_belief()
        npt.assert_array_equal(b.xi_cov, np.eye(2))

    def test_block_layout(self):
        b = make_belief(p_delta=2.0, p_dx=[0.5], p_x=[[3.0]])
        npt.assert_array_equal(b.xi_cov, [[2.0, 0.5], [0.5, 3.0]])

    def test_round_trip_exact(self, rng):
        A = rng.normal(size=(4, 4))
        P = A @ A.T + 4 * np.eye(4)
        xi = rng.normal(size=4)
        b = JointBelief(xi, P)
        npt.assert_array_equal(b.xi_cov, 0.5 * (P + P.T))
        npt.assert_array_equal(b.xi_mean, xi)

    def test_transpose_exactly_symmetric(self, rng):
        b = make_belief(x=(1.0, -2.0, 0.5), p_x=np.diag([1.0, 2.0, 3.0]),
                        p_dx=rng.normal(size=3))
        P = b.xi_cov
        npt.assert_array_equal(P, P.T)

    def test_nonpositive_p_delta_rejected(self):
        with pytest.raises(ContractError):
            make_belief(p_delta=0.0)


class TestFuse:
    def test_single_component_identity(self):
        b = make_belief(delta=-0.1, x=(2.0, 1.0), p_x=np.diag([2.0, 3.0]))
        bank = HypothesisBank(*bank_of(b, 1), weights=np.array([1.0]))
        fused = fuse(bank)
        npt.assert_array_equal(fused.xi_mean, b.xi_mean)
        npt.assert_array_equal(fused.xi_cov, bank.xi_covs[0])
        npt.assert_allclose(fused.xi_cov, b.xi_cov, rtol=1e-15, atol=0)

    def test_identical_components_zero_spread(self):
        b = make_belief(delta=0.2, x=(1.0,), p_x=[[4.0]])
        bank = HypothesisBank(*bank_of(b, 2), weights=np.array([0.5, 0.5]))
        fused = fuse(bank)
        npt.assert_allclose(fused.xi_mean, b.xi_mean, rtol=0, atol=1e-15)
        npt.assert_allclose(fused.xi_cov, b.xi_cov, rtol=0, atol=1e-15)

    def test_scalar_two_component_hand_case(self):
        # means 0 and 2 (in the delta slot), unit variances, equal weights:
        # mixture mean 1, variance 1 + 1 = 2
        b1 = make_belief(delta=0.0, x=(), p_delta=1.0, p_dx=[], p_x=np.zeros((0, 0)))
        b2 = make_belief(delta=2.0, x=(), p_delta=1.0, p_dx=[], p_x=np.zeros((0, 0)))
        bank = HypothesisBank(np.stack([b1.xi_mean, b2.xi_mean]),
                              psd_factor(np.stack([b1.xi_cov, b2.xi_cov])),
                              weights=np.array([0.5, 0.5]))
        fused = fuse(bank)
        npt.assert_allclose(fused.xi_mean, [1.0], atol=1e-15)
        npt.assert_allclose(fused.xi_cov, [[2.0]], atol=1e-15)

    def test_one_hot_returns_selected_hypothesis(self, rng):
        beliefs = tuple(
            make_belief(delta=rng.normal(), x=rng.normal(size=2),
                        p_x=np.diag(rng.uniform(1, 2, 2)))
            for _ in range(3)
        )
        bank = HypothesisBank(np.stack([b.xi_mean for b in beliefs]),
                              psd_factor(np.stack([b.xi_cov for b in beliefs])),
                              weights=np.array([0.0, 1.0, 0.0]))
        fused = fuse(bank)
        npt.assert_array_equal(fused.xi_mean, beliefs[1].xi_mean)
        npt.assert_array_equal(fused.xi_cov, bank.xi_covs[1])

    def test_matches_exact_mixture_moment_oracle(self, rng):
        beliefs = []
        for _ in range(3):
            W = rng.normal(size=(3, 3))
            beliefs.append(JointBelief(rng.normal(size=3), W @ W.T + np.eye(3)))
        w = rng.uniform(0.5, 2.0, 3)
        w = w / w.sum()
        bank = HypothesisBank(np.stack([b.xi_mean for b in beliefs]),
                              psd_factor(np.stack([b.xi_cov for b in beliefs])), weights=w)
        fused = fuse(bank)
        mean, cov = mixture_moments([b.xi_mean for b in beliefs],
                                    [b.xi_cov for b in beliefs], w)
        npt.assert_allclose(fused.xi_mean, mean, rtol=0, atol=1e-12)
        npt.assert_allclose(fused.xi_cov, cov, rtol=0, atol=1e-12)

    def test_matches_monte_carlo_mixture_moments(self):
        rng = np.random.default_rng(7)
        means = [np.array([0.0, 1.0, -1.0]), np.array([2.0, -1.0, 0.5])]
        covs = []
        for scale in (1.0, 2.0):
            W = rng.normal(size=(3, 3))
            covs.append(scale * (W @ W.T + np.eye(3)))
        w = np.array([0.3, 0.7])
        bank = HypothesisBank(np.stack(means), psd_factor(np.stack(covs)), weights=w)
        fused = fuse(bank)

        n_samples = 1_000_000
        counts = rng.multinomial(n_samples, w)
        samples = np.vstack([
            rng.standard_normal((cnt, 3)) @ np.linalg.cholesky(c).T + m
            for cnt, m, c in zip(counts, means, covs)
        ])
        sample_mean = samples.mean(axis=0)
        se_mean = samples.std(axis=0, ddof=1) / np.sqrt(n_samples)
        assert np.all(np.abs(sample_mean - fused.xi_mean) <= 3 * se_mean)

        centered = samples - fused.xi_mean
        sample_cov = centered.T @ centered / n_samples
        second_moment = np.einsum("si,sj->ij", centered ** 2, centered ** 2) / n_samples
        se_cov = np.sqrt(second_moment - sample_cov ** 2) / np.sqrt(n_samples)
        assert np.all(np.abs(sample_cov - fused.xi_cov) <= 3 * se_cov)

    def test_weight_sum_violation_is_contract_error(self):
        b = make_belief()
        with pytest.raises(ContractError):
            HypothesisBank(*bank_of(b, 2), weights=np.array([0.6, 0.6]))


class TestIdentifyLocation:
    """The identified location is the argmax of the posterior weights, ties to the
    lowest index. M copies of one belief at one repeated location get equal evidence,
    so the posterior weights are the prior's and the rule acts on them directly."""

    @staticmethod
    def identified(weights):
        model = tracking_preset(seed=4).model
        loc = model.locations[1]
        M = len(weights)
        twin_set = object.__new__(LocationSet)  # bypass the distinctness invariant
        object.__setattr__(twin_set, "members", (loc,) * M)
        object.__setattr__(twin_set, "entries", np.stack([loc.entries] * M))
        twins = SystemModel(A=model.A, locations=twin_set, domain=model.domain,
                            Q=model.Q, R=model.R, P0=model.P0, map=model.map)
        start = initial_bank(twins)
        bank = HypothesisBank(start.xi_means, start.xi_factors, np.asarray(weights))
        result = ssue_step(bank, model.map.evaluate(np.ones(model.n)), twins)
        assert np.all(result.log_lambdas == result.log_lambdas[0])
        npt.assert_allclose(result.bank.weights, weights, rtol=1e-14)
        return result.identified_index

    def test_unique_max(self):
        assert self.identified(np.array([0.2, 0.7, 0.1])) == 1

    def test_tie_breaks_to_lowest_index(self):
        assert self.identified(np.array([0.5, 0.5])) == 0
        assert self.identified(np.full(3, 1 / 3)) == 0

    def test_invariant_under_positive_scaling(self, rng):
        for _ in range(20):
            w = rng.uniform(0.01, 1.0, 4)
            w = w / w.sum()
            scaled = w * rng.uniform(0.1, 10.0)
            assert self.identified(w) == self.identified(scaled / scaled.sum())
            assert self.identified(w) == np.argmax(w)


def _spd(n, seed=3):
    W = np.random.default_rng(seed).normal(size=(n, n))
    return W @ W.T + n * np.eye(n)


class TestJointBeliefContract:
    @pytest.mark.parametrize("mean, cov", [
        (np.zeros(3), np.eye(2)),
        (np.zeros(2), np.eye(3)),
        (np.zeros(3), np.zeros((3, 2))),
        (np.zeros(0), np.zeros((0, 0))),
    ], ids=["cov_too_small", "cov_too_large", "cov_not_square", "empty"])
    def test_shape_mismatch_is_contract_error(self, mean, cov):
        with pytest.raises(ContractError):
            JointBelief(mean, cov)

    @pytest.mark.parametrize("attr", ["xi_cov", "xi_mean"])
    def test_arrays_are_read_only(self, attr):
        b = JointBelief(np.arange(4.0), _spd(4))
        with pytest.raises(ValueError):
            getattr(b, attr)[...] = 0.0

    @pytest.mark.parametrize("entry", ["mean", "cov"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_entries_are_contract_error(self, entry, bad):
        mean, cov = np.arange(4.0), _spd(4)
        (mean if entry == "mean" else cov)[2] = bad
        with pytest.raises(ContractError, match="non-finite"):
            JointBelief(mean, cov)

    def test_does_not_alias_caller_arrays(self):
        mean, cov = np.arange(4.0), _spd(4)
        b = JointBelief(mean, cov)
        mean[:] = -1.0
        cov[:] = -1.0
        npt.assert_array_equal(b.xi_mean, np.arange(4.0))
        npt.assert_array_equal(b.xi_cov, _spd(4))

    @pytest.mark.parametrize("mean, cov", [
        (np.arange(4.0), _spd(4)),
        (np.zeros(2), np.array([[1.0, 1e-14], [0.0, 1.0]])),
    ], ids=["spd", "asymmetric"])
    def test_blocks_are_slices_of_symmetrized_covariance(self, mean, cov):
        b = JointBelief(mean, cov)
        npt.assert_array_equal(b.xi_cov, b.xi_cov.T)
        npt.assert_array_equal(b.xi_cov, 0.5 * (cov + cov.T))
        assert b.delta_mean == b.xi_mean[0]


class TestPsdFactor:
    def test_pd_gets_cholesky_of_symmetrized(self):
        M = _spd(3)
        M[0, 2] += 1e-13
        npt.assert_array_equal(psd_factor(M), np.linalg.cholesky(0.5 * (M + M.T)))

    @pytest.mark.parametrize("eig_min", [0.0, -0.5 * PSD_REL_TOL], ids=["singular", "within_tol"])
    def test_psd_singular_gets_exact_factor(self, eig_min):
        F = psd_factor(np.diag([1.0, eig_min]))
        npt.assert_array_equal(F @ F.T, np.diag([1.0, 0.0]))

    def test_indefinite_beyond_tolerance_raises_with_spectrum(self):
        with pytest.raises(NumericalFailureError) as info:
            psd_factor(np.diag([1.0, -10 * PSD_REL_TOL]), "test matrix")
        assert "test matrix" in str(info.value)
        assert info.value.context["eig_min"] == pytest.approx(-10 * PSD_REL_TOL)
        assert info.value.context["eig_max"] == pytest.approx(1.0)
        assert "hypothesis" not in info.value.context

    def test_stack_factors_each_matrix_alone(self):
        stack = np.stack([_spd(2), np.diag([1.0, 0.0]), _spd(2)])
        out = psd_factor(stack)
        npt.assert_array_equal(out[0], psd_factor(stack[0]))
        npt.assert_array_equal(out[1], psd_factor(stack[1]))
        npt.assert_array_equal(out[1] @ out[1].T, np.diag([1.0, 0.0]))
        npt.assert_array_equal(out[2], psd_factor(stack[2]))

    def test_indefinite_matrix_of_a_stack_is_named(self):
        stack = np.stack([_spd(2), _spd(2), np.diag([1.0, -1.0])])
        with pytest.raises(NumericalFailureError) as info:
            psd_factor(stack, "test stack")
        assert info.value.context["hypothesis"] == 2
        assert info.value.context["eig_min"] == pytest.approx(-1.0)
        assert info.value.context["eig_max"] == pytest.approx(1.0)


class TestHypothesisBankContract:
    """The bank holds validated, read-only copies of stacked means (M, n+1),
    covariance factors (M, n+1, n+1) and weights (M,), and the covariances
    S S^T derived from the factors."""

    @staticmethod
    def rows(M=3, n1=3):
        means = np.arange(M * n1, dtype=float).reshape(M, n1)
        factors = psd_factor(np.stack([_spd(n1, seed=i) for i in range(M)]))
        return means, factors, np.full(M, 1.0 / M)

    @pytest.mark.parametrize("case", ["means_1d", "means_3d", "factors_short",
                                      "factors_not_square", "weights_short", "weights_2d"])
    def test_shape_mismatch_is_contract_error(self, case):
        means, factors, w = self.rows()
        means, factors, w = {
            "means_1d": (means[0], factors, w),
            "means_3d": (means[None], factors, w),
            "factors_short": (means, factors[:2], w),
            "factors_not_square": (means, factors[:, :, :2], w),
            "weights_short": (means, factors, np.full(2, 0.5)),
            "weights_2d": (means, factors, w[None]),
        }[case]
        with pytest.raises(ContractError):
            HypothesisBank(means, factors, w)

    @pytest.mark.parametrize("entry", ["means", "factors", "weights"])
    def test_non_finite_entry_is_contract_error(self, entry):
        arrays = dict(zip(("means", "factors", "weights"), self.rows()))
        arrays[entry].reshape(-1)[1] = np.nan
        with pytest.raises(ContractError, match="non-finite|sum to 1"):
            HypothesisBank(*arrays.values())

    def test_zero_p_delta_names_its_row(self):
        means, factors, w = self.rows()
        factors[2, 0] = 0.0  # a zero first factor row: p_delta = 0
        with pytest.raises(ContractError, match=r"\(row 2\)") as info:
            HypothesisBank(means, factors, w)
        assert info.value.context["hypothesis"] == 2

    def test_covariances_are_derived_from_the_factors(self, rng):
        means, _, w = self.rows()
        factors = rng.normal(size=(3, 3, 3))  # any square factor, not only a triangular one
        bank = HypothesisBank(means, factors, w)
        npt.assert_array_equal(bank.xi_covs, symmetrize(factors @ np.swapaxes(factors, -1, -2)))

    @pytest.mark.parametrize("attr", ["xi_means", "xi_factors", "xi_covs", "weights"])
    def test_arrays_are_read_only(self, attr):
        bank = HypothesisBank(*self.rows())
        with pytest.raises(ValueError):
            getattr(bank, attr)[0] = 0.0

    def test_no_aliasing_of_caller_arrays(self):
        means, factors, w = self.rows()
        bank = HypothesisBank(means, factors, w)
        fields = ("xi_means", "xi_factors", "xi_covs", "weights")
        kept = [getattr(bank, f).copy() for f in fields]
        for a in (means, factors, w):
            a[...] = 0.0
        for f, want in zip(fields, kept):
            npt.assert_array_equal(getattr(bank, f), want)

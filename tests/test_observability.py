import numpy as np
import numpy.testing as npt
import pytest

from ssue import (
    ContractError,
    DeltaGrid,
    ExcitationError,
    LocationMatrix,
    LocationSet,
    NoMatchError,
    UncertaintyDomain,
    pairwise_rank_test,
    reconstruct,
    stack_observability,
)


def two_state_example():
    """A = I, C = I with diagonal perturbation locations: jointly observable
    because delta (L1 - L2) is invertible for any nonzero delta."""
    A = np.eye(2)
    C = np.eye(2)
    locations = LocationSet((LocationMatrix(np.diag([1.0, 0.0])),
                             LocationMatrix(np.diag([0.0, 1.0]))))
    return A, C, locations


def tracking_matrices():
    from ssue import tracking_preset
    scn = tracking_preset()
    return scn.model.A, scn.model.locations


class TestDeltaGrid:
    def test_from_single_interval(self):
        grid = DeltaGrid.from_domain(UncertaintyDomain(((-0.2, -0.01),)), 20)
        assert len(grid) == 20
        assert grid.values[0] == -0.2 and grid.values[-1] == -0.01
        assert grid.resolution == pytest.approx(0.19 / 19)

    def test_union_of_intervals_merges_and_sorts(self):
        domain = UncertaintyDomain(((0.1, 0.2), (-0.2, -0.1)))
        grid = DeltaGrid.from_domain(domain, 5)
        assert np.all(np.diff(grid.values) > 0)
        assert len(grid) == 10

    def test_degenerate_interval_gives_single_point(self):
        grid = DeltaGrid.from_domain(UncertaintyDomain(((-0.1, -0.1),)), 101)
        npt.assert_array_equal(grid.values, [-0.1])

    def test_duplicates_removed(self):
        grid = DeltaGrid(values=[0.1, 0.1, 0.2])
        assert len(grid) == 2

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            DeltaGrid(values=[])

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ContractError, match="non-finite"):
            DeltaGrid(values=[bad, 0.1])


class TestStackObservability:
    def test_k_zero_is_C(self, rng):
        C = rng.normal(size=(2, 3))
        loc = LocationMatrix(np.diag([1.0, 0.0, 0.0]))
        out = stack_observability(-0.1, loc, np.eye(3), C, 0)
        npt.assert_array_equal(out, C)

    def test_scalar_powers(self):
        a, delta = 0.7, -0.2
        loc = LocationMatrix(np.ones((1, 1)))
        out = stack_observability(delta, loc, [[a]], [[1.0]], 2)
        npt.assert_allclose(out[:, 0], [1.0, a + delta, (a + delta) ** 2], rtol=1e-14)

    def test_zero_delta_is_classical_observability_matrix(self, rng):
        A = rng.normal(size=(3, 3))
        C = rng.normal(size=(2, 3))
        loc1 = LocationMatrix(np.diag([1.0, 0.0, 0.0]))
        loc2 = LocationMatrix(np.diag([0.0, 1.0, 1.0]))
        out1 = stack_observability(0.0, loc1, A, C, 3)
        out2 = stack_observability(0.0, loc2, A, C, 3)
        classical = np.vstack([C, C @ A, C @ A @ A, C @ A @ A @ A])
        npt.assert_allclose(out1, classical, rtol=1e-13)
        npt.assert_array_equal(out1, out2)


class TestPairwiseRankTest:
    def test_duplicated_hypothesis_has_rank_n(self, rng):
        A = rng.normal(size=(3, 3))
        C = rng.normal(size=(2, 3))
        loc = LocationMatrix(np.diag([1.0, 0.0, 0.0]))
        O = stack_observability(-0.1, loc, A, C, 4)
        assert np.linalg.matrix_rank(np.hstack([O, O])) == 3

    def test_two_state_example_passes_at_k1(self):
        A, C, locations = two_state_example()
        report = pairwise_rank_test(A, C, locations, DeltaGrid(values=[-0.1]), K=2)
        assert report.smallest_passing_N == 1
        assert report.failures == ()
        assert report.warnings == ()

    def test_zero_delta_grid_fails_at_every_k_with_warnings(self):
        A, C, locations = two_state_example()
        report = pairwise_rank_test(A, C, locations, DeltaGrid(values=[0.0]), K=3)
        assert report.smallest_passing_N is None
        assert len(report.failures) == 1
        assert report.failures[0].rank == 2  # both hypotheses share one rank-2 stack
        assert report.failures[0].required_rank == 4
        assert len(report.warnings) == 1

    def test_rank_symmetric_in_pair_order(self, rng):
        A = rng.normal(size=(3, 3))
        C = rng.normal(size=(1, 3))
        loc1 = LocationMatrix(np.diag([1.0, 1.0, 0.0]))
        loc2 = LocationMatrix(np.diag([0.0, 0.0, 1.0]))
        Oa = stack_observability(-0.15, loc1, A, C, 6)
        Ob = stack_observability(-0.05, loc2, A, C, 6)
        assert (np.linalg.matrix_rank(np.hstack([Oa, Ob]))
                == np.linalg.matrix_rank(np.hstack([Ob, Oa])))

    def test_rank_non_decreasing_in_k(self, rng):
        A, locations = tracking_matrices()
        C = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        ranks = []
        for k in range(1, 8):
            Oa = stack_observability(-0.2, locations[0], A, C, k)
            Ob = stack_observability(-0.05, locations[1], A, C, k)
            ranks.append(np.linalg.matrix_rank(np.hstack([Oa, Ob])))
        assert all(r2 >= r1 for r1, r2 in zip(ranks, ranks[1:]))

    def test_report_matches_brute_force_ranks(self, rng):
        A, locations = tracking_matrices()
        A2, C2, locations2 = two_state_example()
        cases = [  # every pair fails; 2 of 6 pairs fail (same location, other delta)
            (A, np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]]), locations, [-0.2, -0.05], 6),
            (A2, C2, locations2, [-0.1, -0.05], 3),
        ]
        for A, C, locations, values, K in cases:
            grid = DeltaGrid(values=values)
            report = pairwise_rank_test(A, C, locations, grid, K)
            # brute force every pair at horizon K with the default rank rule
            hyps = [(d, i) for d in grid.values for i in range(len(locations))]
            failing = {}
            for a in range(len(hyps)):
                for b in range(a + 1, len(hyps)):
                    Oa = stack_observability(hyps[a][0], locations[hyps[a][1]], A, C, K)
                    Ob = stack_observability(hyps[b][0], locations[hyps[b][1]], A, C, K)
                    rank = np.linalg.matrix_rank(np.hstack([Oa, Ob]))
                    if rank < 2 * A.shape[0]:
                        failing[(hyps[a], hyps[b])] = rank
            got = {((f.delta_a, f.loc_a), (f.delta_b, f.loc_b)): f.rank
                   for f in report.failures}
            assert got == failing
            assert failing and report.smallest_passing_N is None
        assert len(failing) < len(hyps) * (len(hyps) - 1) // 2  # some pairs pass

    def test_tracking_structural_degeneracies(self):
        """Hypothesis pairs of the tracking preset that can never reach rank 2n:
        pure-position initial states (px, py, 0, 0) are fixed points of every
        A1 and A3 variant (A2 would scale them by 1 + delta)."""
        A, locations = tracking_matrices()
        C = np.eye(4)  # even full state measurement cannot separate these
        for (da, ia), (db, ib), cap in [
            ((-0.2, 0), (-0.01, 0), 5),   # same location, different delta
            ((-0.2, 2), (-0.01, 2), 5),
            ((-0.2, 0), (-0.01, 2), 6),   # cross location, shared fixed points
        ]:
            Oa = stack_observability(da, locations[ia], A, C, 10)
            Ob = stack_observability(db, locations[ib], A, C, 10)
            assert np.linalg.matrix_rank(np.hstack([Oa, Ob])) <= cap

    def test_invalid_horizon(self):
        A, C, locations = two_state_example()
        with pytest.raises(ContractError):
            pairwise_rank_test(A, C, locations, DeltaGrid(values=[-0.1]), K=0)

    def test_single_hypothesis_is_vacuously_observable(self):
        A, C, _ = two_state_example()
        solo = LocationSet((LocationMatrix(np.diag([1.0, 0.0])),))
        report = pairwise_rank_test(A, C, solo, DeltaGrid(values=[-0.1]), K=2)
        assert report.smallest_passing_N == 1
        assert report.failures == ()

    def test_failure_ranks_honest_when_horizon_has_few_rows(self):
        # K=1 gives 2 rows for a 1-output map: rank capped at 2, required 4 --
        # the reported rank must be the computed one, not a placeholder
        A, _, locations = two_state_example()
        C = np.array([[1.0, 0.0]])
        report = pairwise_rank_test(A, C, locations, DeltaGrid(values=[-0.1]), K=1)
        assert report.smallest_passing_N is None
        for f in report.failures:
            Oa = stack_observability(f.delta_a, locations[f.loc_a], A, C, 1)
            Ob = stack_observability(f.delta_b, locations[f.loc_b], A, C, 1)
            assert f.rank == np.linalg.matrix_rank(np.hstack([Oa, Ob]))


class TestReconstruct:
    def setup_method(self):
        A, locations = tracking_matrices()
        self.A = A
        self.locations = locations
        self.C = np.eye(4)
        self.grid = DeltaGrid(values=np.linspace(-0.2, -0.01, 20))

    def generate(self, delta, loc_index, x0, k=10):
        O = stack_observability(delta, self.locations[loc_index], self.A, self.C, k)
        return O @ x0

    def test_on_grid_truth_recovered_exactly(self, rng):
        for _ in range(10):
            d = float(rng.choice(self.grid.values))
            i = int(rng.integers(3))
            x0 = rng.normal(0, 3, 4)
            Y = self.generate(d, i, x0)
            out = reconstruct(Y, self.A, self.C, self.locations, self.grid, tol=1e-8)
            assert out.delta == d
            assert out.loc_index == i
            assert np.linalg.norm(out.x0 - x0) <= 1e-8 * np.linalg.norm(x0)

    def test_zero_output_is_excitation_error(self):
        with pytest.raises(ExcitationError):
            reconstruct(np.zeros(44), self.A, self.C, self.locations, self.grid)

    def test_off_grid_delta_behavior(self, rng):
        x0 = rng.normal(0, 3, 4)
        off = -0.0553  # between grid points
        O = stack_observability(off, self.locations[1], self.A, self.C, 10)
        Y = O @ x0
        with pytest.raises(NoMatchError):
            reconstruct(Y, self.A, self.C, self.locations, self.grid, tol=1e-10)
        out = reconstruct(Y, self.A, self.C, self.locations, self.grid, tol=0.5)
        assert out.residual > 0
        spacing = float(np.diff(self.grid.values).max())
        assert abs(out.delta - off) <= spacing

    def test_observable_configuration_residual_tiny(self, rng):
        # single-point grid: only the cross-location pair exists and it passes
        # (same-location pairs with different delta are rank deficient here,
        # since each diagonal location leaves the other coordinate untouched)
        A, C, locations = two_state_example()
        grid = DeltaGrid(values=[-0.05])
        report = pairwise_rank_test(A, C, locations, grid, K=3)
        assert report.smallest_passing_N is not None
        k = report.smallest_passing_N
        x0 = rng.normal(size=2)
        O = stack_observability(-0.05, locations[1], A, C, k)
        Y = O @ x0
        out = reconstruct(Y, A, C, locations, grid, tol=1e-8)
        assert out.residual <= 1e-10
        assert out.loc_index == 1 and out.delta == -0.05

    def test_non_finite_stack_is_contract_error(self):
        with pytest.raises(ContractError, match="non-finite"):
            reconstruct(np.full(44, np.nan), self.A, self.C, self.locations, self.grid)

    def test_bad_stack_length_is_contract_error(self):
        with pytest.raises(ContractError):
            reconstruct(np.ones(7), self.A, np.eye(4), self.locations, self.grid)

    def test_matches_per_candidate_lstsq(self, rng):
        """The per-candidate lstsq loop is the oracle: same first-minimum
        candidate, same minimum-norm x0, also where every stack is rank
        deficient (one output row at k=1)."""
        # [1, 1] is a left eigenvector of every A + delta I below, so each 2x2
        # stack is rank 1 up to a singular value of about 1e-17 that lstsq cuts
        A2 = np.array([[0.6, 0.1], [0.1, 0.6]])
        solo = LocationSet((LocationMatrix(np.eye(2)),))
        cases = [(self.A, self.C, self.locations, self.grid, 10)] * 20 + [
            (A2, np.array([[0.1, 0.1]]), solo, DeltaGrid(values=[-0.3, -0.1, -0.05]), 1),
        ] * 10
        for A, C, locations, grid, k in cases:
            d = float(rng.choice(grid.values))
            i = int(rng.integers(len(locations)))
            Y = stack_observability(d, locations[i], A, C, k) @ rng.normal(0, 3, A.shape[0])
            best = None
            for dc in grid.values:
                for ic in range(len(locations)):
                    O = stack_observability(dc, locations[ic], A, C, k)
                    x0 = np.linalg.lstsq(O, Y, rcond=None)[0]
                    residual = np.linalg.norm(O @ x0 - Y) / np.linalg.norm(Y)
                    if best is None or residual < best[3]:
                        best = (dc, ic, x0, residual)
            out = reconstruct(Y, A, C, locations, grid, tol=1e-8)
            assert (out.delta, out.loc_index) == (best[0], best[1])
            npt.assert_allclose(out.x0, best[2], rtol=1e-12, atol=1e-12 * np.linalg.norm(Y))
            assert out.residual == pytest.approx(best[3], abs=1e-12)

import dataclasses
import threading
import types

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
    NumericalFailureError,
    UncertaintyDomain,
    kl_separation,
    linearized_C,
    pairwise_rank_test,
    reconstruct,
    stack_observability,
    tracking_preset,
)
from ssue import observability


def two_state_example():
    """A = I, C = I with diagonal perturbation locations: jointly observable
    because delta (L1 - L2) is invertible for any nonzero delta."""
    A = np.eye(2)
    C = np.eye(2)
    locations = LocationSet((LocationMatrix(np.diag([1.0, 0.0])),
                             LocationMatrix(np.diag([0.0, 1.0]))))
    return A, C, locations


def tracking_matrices():
    scn = tracking_preset()
    return scn.model.A, scn.model.locations


def generic_matrices():
    """Acceptance criterion 4's generic stable model: certified at a finite N."""
    n = 4
    rng = np.random.default_rng(0)
    A = rng.normal(size=(n, n))
    A *= 0.9 / np.max(np.abs(np.linalg.eigvals(A)))
    return A, rng.normal(size=(2, n))


def oracle_ranks(A, C, locations, grid, k):
    """Rank of every pair at horizon k, one np.linalg.matrix_rank call per pair,
    in the report's order (grid-major hypotheses, pairs (a, b) with a < b)."""
    hyps = [(d, i) for d in grid.values for i in range(len(locations))]
    stacks = [stack_observability(d, locations[i], A, C, k) for d, i in hyps]
    return [(hyps[a], hyps[b], int(np.linalg.matrix_rank(np.hstack([stacks[a], stacks[b]]))))
            for a in range(len(hyps)) for b in range(a + 1, len(hyps))]


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
        assert report.required_rank == 4
        assert report.warnings == ()

    def test_zero_delta_grid_fails_at_every_k_with_warnings(self):
        A, C, locations = two_state_example()
        report = pairwise_rank_test(A, C, locations, DeltaGrid(values=[0.0]), K=3)
        assert report.smallest_passing_N is None
        assert len(report.failures) == 1
        *_, rank = report.failures[0]
        assert rank == 2  # both hypotheses share one rank-2 stack
        assert report.required_rank == 4
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
            got = {((delta_a, loc_a), (delta_b, loc_b)): rank
                   for delta_a, loc_a, delta_b, loc_b, rank in report.failures}
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
        for delta_a, loc_a, delta_b, loc_b, rank in report.failures:
            Oa = stack_observability(delta_a, locations[loc_a], A, C, 1)
            Ob = stack_observability(delta_b, locations[loc_b], A, C, 1)
            assert rank == np.linalg.matrix_rank(np.hstack([Oa, Ob]))


# 31 grid points x 3 locations: 93 hypotheses, 4278 pairs
MANY_POINTS = DeltaGrid(values=np.linspace(-0.2, -0.01, 31))


@pytest.fixture(scope="module")
def preset_case():
    """The tracking preset's rank-test inputs on MANY_POINTS, with the per-pair
    oracle at K=10 (every pair fails there, see test_acceptance criterion 4)."""
    scn = tracking_preset()
    args = (scn.model.A, linearized_C(scn.model, x_ref=scn.x0_truth),
            scn.model.locations, MANY_POINTS)
    return args, oracle_ranks(*args, 10)


def split_chunks(monkeypatch, cpus, chunk=1000):
    """Rank pairs in chunks of chunk // cpus on `cpus` threads."""
    monkeypatch.setattr(observability, "_SVD_CHUNK", chunk)
    monkeypatch.setattr(observability, "_cpu_count", lambda: cpus)


class TestChunkedRanks:
    """The pairs are ranked in chunks on one thread per CPU; the report must
    not depend on the chunking or the thread count."""

    @pytest.mark.parametrize("cpus", [None, 1, 2, 3], ids=["platform", "1cpu", "2cpu", "3cpu"])
    def test_failures_match_per_pair_oracle(self, preset_case, monkeypatch, cpus):
        if cpus is not None:
            split_chunks(monkeypatch, cpus)
        args, oracle = preset_case
        report = pairwise_rank_test(*args, K=10)
        assert len(oracle) == 4278 and all(rank < 8 for *_, rank in oracle)
        got = [((delta_a, loc_a), (delta_b, loc_b), rank)
               for delta_a, loc_a, delta_b, loc_b, rank in report.failures]
        assert got == oracle  # same ranks, same order
        assert report.smallest_passing_N is None

    @pytest.mark.parametrize("cpus", [None, 3], ids=["platform", "3cpu"])
    def test_smallest_passing_horizon_matches_oracle(self, monkeypatch, cpus):
        if cpus is not None:
            split_chunks(monkeypatch, cpus)
        A, C = generic_matrices()
        _, locations = tracking_matrices()
        report = pairwise_rank_test(A, C, locations, MANY_POINTS, K=10)
        expected = next(k for k in range(1, 11) if all(
            rank == 8 for *_, rank in oracle_ranks(A, C, locations, MANY_POINTS, k)))
        assert report.smallest_passing_N == expected
        assert report.failures == ()

    def test_no_thread_outlives_the_call(self, preset_case, monkeypatch):
        split_chunks(monkeypatch, 3)
        before = threading.active_count()
        pairwise_rank_test(*preset_case[0], K=10)
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    def test_at_most_svd_chunk_pairs_ranked_at_once(self, preset_case, monkeypatch, cpus):
        split_chunks(monkeypatch, cpus)
        svd, lock = np.linalg.svd, threading.Lock()
        live, peak = [0], [0]

        def counting_svd(X, *args, **kwargs):
            with lock:
                live[0] += len(X)
                peak[0] = max(peak[0], live[0])
            try:
                return svd(X, *args, **kwargs)
            finally:
                with lock:
                    live[0] -= len(X)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        pairwise_rank_test(*preset_case[0], K=10)
        assert 0 < peak[0] <= 1000

    def test_exception_in_a_chunk_surfaces_unchanged(self, preset_case, monkeypatch):
        split_chunks(monkeypatch, 2)
        svd, lock, calls = np.linalg.svd, threading.Lock(), []
        boom = RuntimeError("chunk failed")

        def failing_svd(X, *args, **kwargs):
            with lock:
                calls.append(len(X))
                if len(calls) == 3:
                    raise boom
            return svd(X, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            pairwise_rank_test(*preset_case[0], K=10)
        assert info.value is boom
        assert threading.active_count() == before


class StandInLocations:
    """A location set built from raw entries, which may hold values that
    LocationMatrix refuses (NaN)."""

    def __init__(self, entries):
        self.entries = entries

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return types.SimpleNamespace(entries=self.entries[i])


class TestNonFiniteInputs:
    """Every public function that builds observability stacks refuses
    non-finite A, C or location entries (ContractError) and names the first
    hypothesis and power j whose C (A + delta L)^j overflows
    (NumericalFailureError), before any rank is computed."""

    grid = DeltaGrid(values=[-0.2, -0.1])

    def setup_method(self):
        self.A, self.locations = tracking_matrices()
        self.C = np.eye(4)[:2]

    def run(self, fn, A, C, locations):
        if fn is stack_observability:
            return stack_observability(self.grid.values[0], locations[0], A, C, 10)
        if fn is reconstruct:
            return reconstruct(np.ones(11 * len(C)), A, C, locations, self.grid)
        return pairwise_rank_test(A, C, locations, self.grid, 10)

    @pytest.mark.parametrize("fn", [pairwise_rank_test, reconstruct, stack_observability],
                             ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("bad", ["A", "C", "entries"])
    def test_non_finite_input_is_contract_error(self, fn, bad):
        A, C = self.A.copy(), self.C.copy()
        locations = self.locations
        if bad == "A":
            A[1, 2] = np.nan
        elif bad == "C":
            C[0, 3] = np.inf
        else:
            entries = self.locations.entries.copy()
            entries[:, 0, 0] = np.nan
            locations = StandInLocations(entries)
        with pytest.raises(ContractError, match="non-finite"):
            self.run(fn, A, C, locations)

    @pytest.mark.parametrize("fn", [pairwise_rank_test, reconstruct, stack_observability],
                             ids=lambda fn: fn.__name__)
    def test_overflowing_power_names_hypothesis(self, fn):
        with pytest.raises(NumericalFailureError, match="overflows") as info:
            self.run(fn, self.A * 1e200, self.C, self.locations)
        expected = {"delta": -0.2, "power": 2}
        if fn is not stack_observability:  # a lone LocationMatrix has no index
            expected["location"] = 0
        assert info.value.context == expected

    def test_kl_separation(self):
        scn = tracking_preset()
        model = dataclasses.replace(scn.model, A=scn.model.A * 1e200)
        with pytest.raises(NumericalFailureError) as info:
            kl_separation(model, self.grid, 10, x_ref=scn.x0_truth)
        assert info.value.context == {"delta": -0.2, "location": 0, "power": 2}
        nan_jacobian = dataclasses.replace(
            scn.model.map, jacobian=lambda x: np.full(np.shape(x)[:-1] + (3, 4), np.nan))
        model = dataclasses.replace(scn.model, map=nan_jacobian)
        with pytest.raises(ContractError, match="C has non-finite"):
            kl_separation(model, self.grid, 10, x_ref=scn.x0_truth)


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

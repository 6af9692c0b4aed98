"""Joint observability testing and noise-free hypothesis reconstruction.

Two triplets (x0, delta, L) and (x0', delta', L') are distinguishable from
noise-free outputs exactly when the side-by-side stacked observability
matrices of the two hypotheses have full combined column rank 2n.  The
perturbation interval is continuous, so the test runs on a finite grid of
delta values and the result is a grid certificate, not a proof over the
whole domain.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import ContractError, ExcitationError, NoMatchError, NumericalFailureError
from .model import LocationMatrix, LocationSet, UncertaintyDomain

_SVD_CHUNK = 8192  # pairs in memory at once, over all rank-test threads


@dataclass(frozen=True)
class DeltaGrid:
    """Finite set of perturbation values standing in for the continuous domain."""

    values: np.ndarray
    resolution: float = 0.0

    def __post_init__(self):
        v = np.unique(np.asarray(self.values, dtype=float).reshape(-1))
        if v.size == 0:
            raise ContractError("delta grid must be nonempty")
        if not np.isfinite(v).all():
            raise ContractError("delta grid has non-finite values")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "resolution", float(self.resolution))

    def __len__(self):
        return self.values.size

    @classmethod
    def from_domain(cls, domain: UncertaintyDomain, points_per_interval: int = 101) -> "DeltaGrid":
        """Uniform grid per interval, merged over the union."""
        if points_per_interval < 1:
            raise ContractError("points_per_interval must be >= 1")
        values = []
        spacings = [0.0]
        for lo, hi in domain.intervals:
            if hi == lo or points_per_interval == 1:
                values.append(lo)
            else:
                values.extend(np.linspace(lo, hi, points_per_interval))
                spacings.append((hi - lo) / (points_per_interval - 1))
        return cls(values=np.asarray(values), resolution=max(spacings))


def _rank_cutoff(shape: tuple[int, ...], sigma_max: np.ndarray) -> np.ndarray:
    """The numerical-rank rule: singular values of a rows x cols matrix count
    when they exceed max(rows, cols) * eps * sigma_max (numpy's matrix_rank rule)."""
    return max(shape[-2:]) * np.finfo(float).eps * sigma_max


@dataclass(frozen=True, slots=True)
class PairFailure:
    """One hypothesis pair that missed full combined rank at the tested horizon."""

    delta_a: float
    loc_a: int
    delta_b: float
    loc_b: int
    rank: int
    required_rank: int


@dataclass(frozen=True)
class ObservabilityReport:
    horizon_tested: int
    smallest_passing_N: int | None
    failures: tuple[PairFailure, ...]
    warnings: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "horizon_tested": self.horizon_tested,
            "smallest_passing_N": self.smallest_passing_N,
            "failures": [
                {
                    "hypothesis_a": {"delta": f.delta_a, "location": f.loc_a},
                    "hypothesis_b": {"delta": f.delta_b, "location": f.loc_b},
                    "rank": f.rank,
                    "required_rank": f.required_rank,
                }
                for f in self.failures
            ],
            "warnings": list(self.warnings),
        }


def _hypotheses(grid: DeltaGrid, locations: LocationSet):
    """Grid-major hypotheses (all locations for the first delta, then the next
    delta, ...) as deltas (N,), location indices (N,) and entries (N, n, n)."""
    M = len(locations)
    locs = np.tile(np.arange(M), len(grid))
    return np.repeat(grid.values, M), locs, locations.entries[locs]


def _stack_blocks(deltas, entries, A, C, k: int, locs=None) -> np.ndarray:
    """Blocks C (A + delta_q L_q)^j for every hypothesis q and j = 0..k, as an
    (N, k+1, p, n) array built with k batched matmuls.

    Non-finite inputs are a ContractError; a power that overflows is a
    NumericalFailureError naming the first such hypothesis (its delta, its
    location index when ``locs`` is given) and the power j.
    """
    if k < 0:
        raise ContractError("horizon k must be >= 0")
    A = np.asarray(A, dtype=float)
    C = np.atleast_2d(np.asarray(C, dtype=float))
    deltas = np.asarray(deltas, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or C.shape[1] != n or entries.shape[1:] != (n, n):
        raise ContractError("A, C and the location matrix disagree on dimensions")
    for name, value in (("A", A), ("C", C), ("a location matrix", entries), ("delta", deltas)):
        if not np.isfinite(value).all():
            raise ContractError(f"{name} has non-finite entries")
    blocks = np.empty((len(deltas), k + 1, C.shape[0], n))
    blocks[:, 0] = C
    with np.errstate(over="ignore", invalid="ignore"):
        A_pert = A + deltas[:, None, None] * entries
        for j in range(k):
            blocks[:, j + 1] = blocks[:, j] @ A_pert
    if not np.isfinite(blocks).all():
        finite = np.isfinite(blocks).all(axis=(2, 3))
        q = int(np.flatnonzero(~finite.all(axis=1))[0])
        j = int(np.flatnonzero(~finite[q])[0])
        context = {"delta": float(deltas[q]), "power": j}
        if locs is not None:
            context["location"] = int(locs[q])
        raise NumericalFailureError(
            f"C (A + delta L)^{j} overflows for the hypothesis {context}", context)
    return blocks


def stack_observability(delta: float, loc: LocationMatrix, A, C, k: int) -> np.ndarray:
    """Rows C (A + delta L)^j for j = 0..k, stacked into a ((k+1)p) x n matrix."""
    blocks = _stack_blocks([float(delta)], loc.entries[None], A, C, k)
    return blocks.reshape(-1, blocks.shape[-1])


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pair_ranks(stacks: np.ndarray, ia, ib) -> np.ndarray:
    """Numerical ranks of [stacks[a], stacks[b]] for each pair, via singular
    values.

    The pairs go in chunks to one thread per CPU (numpy's SVD releases the
    GIL).  Each chunk is _SVD_CHUNK // CPUs pairs, so at most _SVD_CHUNK
    pairs are in memory at once; every matrix's singular values come from
    its own LAPACK call, so the ranks do not depend on the chunking.
    """
    from concurrent.futures import ThreadPoolExecutor  # here, not at import: ~5 ms of setup

    cpus = _cpu_count()
    size = max(1, _SVD_CHUNK // cpus)
    starts = range(0, ia.size, size)
    ranks = np.empty(ia.size, dtype=int)

    def rank_chunk(start):
        part = slice(start, start + size)
        X = np.concatenate([stacks[ia[part]], stacks[ib[part]]], axis=2)
        sv = np.linalg.svd(X, compute_uv=False)
        ranks[part] = (sv > _rank_cutoff(X.shape, sv[:, :1])).sum(axis=1)

    with ThreadPoolExecutor(max(1, min(cpus, len(starts)))) as pool:
        list(pool.map(rank_chunk, starts))  # re-raises a chunk's exception here
    return ranks


def pairwise_rank_test(A, C, locations: LocationSet, grid: DeltaGrid,
                       K: int) -> ObservabilityReport:
    """Rank-test every unordered pair of distinct (delta, location) hypotheses.

    Every pair's side-by-side matrix is rank-checked once at horizon K; the
    pairs below 2n there are the failures, and no horizon is certified.  Only
    when every pair passes at K is the smallest passing horizon searched,
    k = 1..K-1 ascending, retesting just the pairs that have not passed yet
    (rank is non-decreasing in k).

    Ranks are computed in chunks of pairs on one thread per CPU, with at most
    ``_SVD_CHUNK`` pairs in memory at once; ranks, failure order and
    ``smallest_passing_N`` do not depend on the thread count.  Non-finite
    inputs and overflowing powers raise on the caller's thread before any
    worker starts.
    """
    if K < 1:
        raise ContractError("horizon K must be >= 1")
    deltas, locs, entries = _hypotheses(grid, locations)
    full = _stack_blocks(deltas, entries, A, C, K, locs)
    N, _, p, n = full.shape
    full = full.reshape(N, (K + 1) * p, n)
    required = 2 * n
    warnings = [
        "delta=0 collapses the hypotheses: "
        f"(0, location {i}) and (0, location {j}) share one observability "
        f"matrix, so combined rank {required} is unreachable"
        for i, j in zip(*np.triu_indices(len(locations), k=1)) if np.any(grid.values == 0.0)
    ]

    ia, ib = np.triu_indices(N, k=1)
    ranks_at_K = _pair_ranks(full, ia, ib)
    failing = np.flatnonzero(ranks_at_K < required)
    smallest = None
    if failing.size == 0:
        smallest = K
        pool = np.arange(ia.size)
        for k in range(1, K):
            rows = (k + 1) * p
            if pool.size and rows >= required:  # rank <= row count below that
                pool = pool[_pair_ranks(full[:, :rows], ia[pool], ib[pool]) < required]
            if pool.size == 0:
                smallest = k
                break

    a, b = ia[failing], ib[failing]
    failures = tuple(map(PairFailure, deltas[a].tolist(), locs[a].tolist(), deltas[b].tolist(),
                         locs[b].tolist(), ranks_at_K[failing].tolist(), repeat(required)))
    return ObservabilityReport(horizon_tested=K, smallest_passing_N=smallest,
                               failures=failures, warnings=tuple(warnings))


@dataclass(frozen=True)
class ReconstructionResult:
    x0: np.ndarray
    delta: float
    loc_index: int
    residual: float


def reconstruct(Y_star, A, C, locations: LocationSet, grid: DeltaGrid,
                tol: float = 1e-8) -> ReconstructionResult:
    """Invert a noise-free output stack into (x0, delta, location).

    Solves the least-squares problem for x0 of every hypothesis on the grid
    in one batched SVD and keeps the candidate with the smallest relative
    residual (the first one in grid-major order on ties).  Residual at or
    below ``tol`` realizes the membership condition "the stack lies in the
    column space of the candidate".
    """
    Y = np.asarray(Y_star, dtype=float).reshape(-1)
    if not np.isfinite(Y).all():
        raise ContractError("output stack has non-finite entries")
    norm_Y = float(np.linalg.norm(Y))
    if norm_Y == 0.0:
        raise ExcitationError(
            "output stack is identically zero: every hypothesis fits and none is identifiable"
        )
    C = np.atleast_2d(np.asarray(C, dtype=float))
    p = C.shape[0]
    if Y.size % p != 0 or Y.size < p:
        raise ContractError(f"output stack length {Y.size} is not a multiple of p={p}")
    k = Y.size // p - 1

    deltas, locs, entries = _hypotheses(grid, locations)
    O = _stack_blocks(deltas, entries, A, C, k, locs).reshape(deltas.size, Y.size, -1)
    # Minimum-norm least squares for every candidate at once, over the
    # singular values that count toward numerical rank.
    U, s, Vt = np.linalg.svd(O, full_matrices=False)
    keep = s > _rank_cutoff(O.shape, s[:, :1])
    coef = np.divide(Y @ U, s, out=np.zeros_like(s), where=keep)
    x0s = (coef[:, None, :] @ Vt)[:, 0]
    residuals = np.linalg.norm((O @ x0s[:, :, None])[..., 0] - Y, axis=1) / norm_Y
    q = int(np.argmin(residuals))  # first minimum in grid-major order
    best = ReconstructionResult(x0=x0s[q], delta=float(deltas[q]), loc_index=int(locs[q]),
                                residual=float(residuals[q]))
    if best.residual > tol:
        raise NoMatchError(
            f"no hypothesis fits within tolerance {tol:g}; best candidate "
            f"(delta={best.delta:g}, location {best.loc_index}) has residual {best.residual:.3e}"
        )
    return best

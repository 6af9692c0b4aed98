"""Consistency diagnostics: stacked output statistics, KL separation, evidence ratios.

For the linear-measurement reduction, the stacked output sequence
Y_k = [y_0; ...; y_k] is zero-mean Gaussian with covariance

    Sigma_k = [O_k  I_k] blkdiag(P0, Q, ..., Q) [O_k  I_k]^T + blkdiag(R, ..., R)

per hypothesis.  Positive KL divergence between the true hypothesis's Sigma_k
and every wrong one is what makes the location probabilities consistent; the
empirical counterpart is the cumulative log evidence ratio along a run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .belief import symmetrize
from .errors import ContractError
from .model import LocationMatrix, SystemModel
from .observability import DeltaGrid, _hypotheses, _stack_blocks


@dataclass(frozen=True)
class StackedOutputModel:
    """Stacked input matrix I_k and output covariance Sigma_k of one hypothesis."""

    I_k: np.ndarray
    Sigma_k: np.ndarray


def linearized_C(model: SystemModel, x_ref=None) -> np.ndarray:
    """Measurement matrix used by the stacked-output statistics.

    For a map that the model's ``measurement_spec`` declares linear this is
    just its constant Jacobian; any other map is linearized at ``x_ref``,
    which is then required to make the choice explicit.
    """
    if x_ref is None:
        if (model.measurement_spec or {}).get("type") != "linear":
            raise ContractError("linearizing a measurement map not declared linear needs x_ref")
        x_ref = np.zeros(model.n)
    return np.atleast_2d(np.asarray(model.map.jacobian(np.asarray(x_ref, dtype=float))))


def _input_blocks(blocks: np.ndarray) -> np.ndarray:
    """Block-Toeplitz I_k from (N, k+1, p, n) stacked blocks C A^j: block (i, j)
    of each (k+1)p x kn result is C A^(i-j-1) for i > j and zero otherwise."""
    N, K1, p, n = blocks.shape
    lag = np.arange(K1)[:, None] - np.arange(K1 - 1)[None, :] - 1
    tiles = np.where((lag >= 0)[:, :, None, None], blocks[:, np.maximum(lag, 0)], 0.0)
    return tiles.transpose(0, 1, 3, 2, 4).reshape(N, K1 * p, (K1 - 1) * n)


def _stacked_outputs(model: SystemModel, deltas, entries, k: int, x_ref, locs=None):
    """The (N, k+1, p, n) stacked powers C (A + delta L)^j and the batched Sigma_k.

    Sigma_k = X X^T + blkdiag(R, ..., R) with X = [O_k P0^(1/2), I_k (I (x) Q^(1/2))]
    taken from the model's factors in one product: no O_k, I_k, Omega_k or stacked
    R is formed."""
    blocks = _stack_blocks(deltas, entries, model.A, linearized_C(model, x_ref), k, locs)
    N, K1, p, n = blocks.shape
    X = np.concatenate([(blocks @ model.P0_factor).reshape(N, K1 * p, n),
                        _input_blocks(blocks @ model.Q_factor)], axis=2)
    Sigma = X @ X.transpose(0, 2, 1)
    Sigma.reshape(N, K1, p, K1, p)[:, range(K1), :, range(K1), :] += model.R
    return blocks, symmetrize(Sigma)


def output_covariance(delta: float, loc: LocationMatrix, model: SystemModel, k: int,
                      x_ref=None) -> StackedOutputModel:
    """Covariance of the stacked outputs [y_0; ...; y_k] under one hypothesis.

    I_k maps the k process noises w_0..w_{k-1} (covariance Q each) to the outputs.
    """
    blocks, Sigma = _stacked_outputs(model, [float(delta)], loc.entries[None], k, x_ref)
    return StackedOutputModel(I_k=_input_blocks(blocks)[0], Sigma_k=Sigma[0])


def _chol_or_contract(Sigma: np.ndarray, name: str) -> np.ndarray:
    Sigma = np.asarray(Sigma, dtype=float)
    if Sigma.ndim != 2 or Sigma.shape[0] != Sigma.shape[1]:
        raise ContractError(f"{name} must be a square matrix")
    try:
        return np.linalg.cholesky(Sigma)
    except np.linalg.LinAlgError as exc:
        raise ContractError(f"{name} must be positive definite") from exc


def gaussian_kl(Sigma_t, Sigma_i) -> float:
    """KL divergence D(N(0, Sigma_t) || N(0, Sigma_i)) via Cholesky log-determinants."""
    Sigma_t = np.asarray(Sigma_t, dtype=float)
    Sigma_i = np.asarray(Sigma_i, dtype=float)
    if Sigma_t.shape != Sigma_i.shape:
        raise ContractError("covariances must share one dimension")
    L_t = _chol_or_contract(Sigma_t, "Sigma_t")
    L_i = _chol_or_contract(Sigma_i, "Sigma_i")
    m = Sigma_t.shape[0]
    W = np.linalg.solve(L_i, L_t)
    trace = float(np.sum(W * W))
    log_det_t = 2.0 * float(np.sum(np.log(np.diag(L_t))))
    log_det_i = 2.0 * float(np.sum(np.log(np.diag(L_i))))
    return 0.5 * (trace - m + log_det_i - log_det_t)


def kl_separation(model: SystemModel, grid: DeltaGrid, k: int, x_ref=None) -> np.ndarray:
    """Matrix of pairwise KL divergences between all (delta, location) hypotheses.

    Entry (t, i) is D(Sigma_k(t) || Sigma_k(i)); hypotheses are ordered
    grid-major (all locations for the first delta, then the next delta, ...).
    Hypotheses whose Sigma_k are equal entry for entry (their bytes after adding
    0.0, which maps -0.0 to +0.0) share one Cholesky factor and read exactly 0
    against each other: identical Sigma_k, not identical (delta, L), decide
    that, so every location at delta = 0 and every delta of an unobservable
    perturbation coincide.  The trace terms tr(Sigma_i^-1 Sigma_t) =
    <Sigma_i^-1, Sigma_t>_F of all pairs form one matrix product.
    """
    deltas, locs, entries = _hypotheses(grid, model.locations)
    sigmas = _stacked_outputs(model, deltas, entries, k, x_ref, locs)[1]
    N, m, _ = sigmas.shape
    sigmas += 0.0
    first: dict[bytes, int] = {}
    group = np.array([first.setdefault(s.tobytes(), len(first)) for s in sigmas])
    del first  # its keys copy every Sigma_k: free them before factoring
    distinct = sigmas[np.unique(group, return_index=True)[1]]
    try:
        chols = np.linalg.cholesky(distinct)
    except np.linalg.LinAlgError as exc:
        for q in range(N):  # name the first offending hypothesis
            _chol_or_contract(sigmas[q], f"Sigma_k of hypothesis {q}")
        raise ContractError("Sigma_k must be positive definite") from exc
    chol_inv = np.linalg.inv(chols)
    inv = chol_inv.transpose(0, 2, 1) @ chol_inv
    log_dets = 2.0 * np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
    D = 0.5 * (distinct.reshape(len(inv), -1) @ inv.reshape(len(inv), -1).T - m
               + log_dets[None, :] - log_dets[:, None])
    np.fill_diagonal(D, 0.0)
    return np.maximum(D, 0.0)[group[:, None], group[None, :]]


def loglik_ratio_trajectory(run, t_index: int, i_index: int) -> np.ndarray:
    """Cumulative log evidence ratio sum_tau [log lambda_t - log lambda_i].

    ``run`` must carry per-step log likelihoods for every hypothesis (a full
    estimation record).  Under the true hypothesis t the trajectory drifts
    upward against every wrong i when the hypotheses are separated.
    """
    log_lams = getattr(run, "log_lambdas", None)
    if log_lams is None:
        raise ContractError("run record carries no stored per-hypothesis log likelihoods")
    log_lams = np.asarray(log_lams, dtype=float)
    M = log_lams.shape[1]
    if not (0 <= t_index < M and 0 <= i_index < M):
        raise ContractError(f"hypothesis indices must lie in [0, {M})")
    return np.cumsum(log_lams[:, t_index] - log_lams[:, i_index])

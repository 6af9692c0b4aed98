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
from scipy.linalg import block_diag, solve_triangular

from .errors import ContractError
from .model import LocationMatrix, SystemModel
from .observability import DeltaGrid, stack_observability


@dataclass(frozen=True)
class StackedOutputModel:
    """Pieces of the stacked output covariance for one (delta, location) hypothesis."""

    O_k: np.ndarray
    I_k: np.ndarray
    Omega_k: np.ndarray
    R_k_stacked: np.ndarray
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


def stacked_input_matrix(delta: float, loc: LocationMatrix, A, C, k: int) -> np.ndarray:
    """Block-Toeplitz map from the stacked process noise [w_0; ...; w_{k-1}]
    to the stacked outputs: block (i, j) is C (A + delta L)^(i-j-1) for i > j."""
    if k < 1:
        raise ContractError("stacked input matrix needs k >= 1")
    A = np.asarray(A, dtype=float)
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n = A.shape[0]
    p = C.shape[0]
    A_pert = A + float(delta) * loc.entries
    powers = [C]
    for _ in range(k - 1):
        powers.append(powers[-1] @ A_pert)
    I_k = np.zeros(((k + 1) * p, k * n))
    for i in range(1, k + 1):
        for j in range(i):
            I_k[i * p:(i + 1) * p, j * n:(j + 1) * n] = powers[i - j - 1]
    return I_k


def output_covariance(delta: float, loc: LocationMatrix, model: SystemModel, k: int,
                      x_ref=None) -> StackedOutputModel:
    """Covariance of the stacked outputs [y_0; ...; y_k] under one hypothesis.

    The noise block of Omega_k holds k copies of Q (one per w_0..w_{k-1}).
    """
    if k < 0:
        raise ContractError("horizon k must be >= 0")
    C = linearized_C(model, x_ref)
    O_k = stack_observability(delta, loc, model.A, C, k)
    if k == 0:
        I_k = np.zeros((C.shape[0], 0))
        Omega = model.P0.copy()
    else:
        I_k = stacked_input_matrix(delta, loc, model.A, C, k)
        Omega = block_diag(model.P0, *([model.Q] * k))
    R_stacked = block_diag(*([model.R] * (k + 1)))
    Pi = np.hstack([O_k, I_k])
    Sigma = Pi @ Omega @ Pi.T + R_stacked
    return StackedOutputModel(O_k=O_k, I_k=I_k, Omega_k=Omega,
                              R_k_stacked=R_stacked, Sigma_k=0.5 * (Sigma + Sigma.T))


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
    W = solve_triangular(L_i, L_t, lower=True)
    trace = float(np.sum(W * W))
    log_det_t = 2.0 * float(np.sum(np.log(np.diag(L_t))))
    log_det_i = 2.0 * float(np.sum(np.log(np.diag(L_i))))
    return 0.5 * (trace - m + log_det_i - log_det_t)


def kl_separation(model: SystemModel, grid: DeltaGrid, k: int, x_ref=None) -> np.ndarray:
    """Matrix of pairwise KL divergences between all (delta, location) hypotheses.

    Entry (t, i) is D(Sigma_k(t) || Sigma_k(i)); hypotheses are ordered
    grid-major (all locations for the first delta, then the next delta, ...).
    """
    hyps = [(float(d), i) for d in grid.values for i in range(model.M)]
    sigmas = [output_covariance(d, model.locations[i], model, k, x_ref=x_ref).Sigma_k
              for d, i in hyps]
    chols = [_chol_or_contract(S, f"Sigma_k of hypothesis {q}") for q, S in enumerate(sigmas)]
    log_dets = [2.0 * float(np.sum(np.log(np.diag(L)))) for L in chols]
    m = sigmas[0].shape[0]
    N = len(hyps)
    D = np.zeros((N, N))
    for t in range(N):
        for i in range(N):
            if t == i:
                continue
            W = solve_triangular(chols[i], chols[t], lower=True)
            D[t, i] = 0.5 * (float(np.sum(W * W)) - m + log_dets[i] - log_dets[t])
    return D


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

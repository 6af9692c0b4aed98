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


def _innovations(model: SystemModel, deltas, entries, k: int, x_ref, locs=None):
    """One pass over j = 0..k for the N hypotheses q (A_q = A + delta_q L_q).

    Returns the (N, k+1, p, n) stacked powers C A_q^j, Sigma_k, its inverse
    Cholesky factor W (lower block triangular, W Sigma_k W^T = I) and
    log det Sigma_k; nothing larger than p x p is factorized.

    Sigma_k: with X_0 = P0 and X_(j+1) = A_q X_j A_q^T + Q, block (j, l <= j) is
    C A_q^(j-l) X_l C^T (+ R when l = j).  Column block l is written once, with
    its mirror, so Sigma_k is exactly symmetric.

    W is the Kalman one-step predictor of y_j from y_0..y_(j-1): the innovations
    form of Sigma_k's block Cholesky factorization (Kailath, Sayed & Hassibi,
    *Linear Estimation*, 2000).  With P_0 = P0 and T_0 = 0 (T_j maps the data to
    the predicted state), S_j = C P_j C^T + R = L_j L_j^T, row block j of W is
    L_j^-1 [-C T_j, I_p] and log det Sigma_k = 2 sum_j log det L_j.  With
    G_j = A_q P_j C^T L_j^-T and the gain K_j = G_j L_j^-1,
    T_(j+1) = [(A_q - K_j C) T_j, K_j] and P_(j+1) = A_q P_j A_q^T + Q - G_j G_j^T.

    Sigma_k is positive definite exactly when every S_j is.  The first step j
    whose S_j is not is a ContractError naming the lowest such hypothesis.
    """
    C = linearized_C(model, x_ref)
    blocks = _stack_blocks(deltas, entries, model.A, C, k, locs)
    N, K1, p, n = blocks.shape
    m = K1 * p
    A_q = model.A + np.asarray(deltas, dtype=float)[:, None, None] * entries
    A_qT = A_q.transpose(0, 2, 1).copy()  # contiguous operands take numpy's fast matmul
    Ct = C.T.copy()
    Sigma = np.empty((N, m, m))
    W = np.zeros((N, m, m))
    T = np.zeros((N, n, m))
    X = P = np.broadcast_to(model.P0, (N, n, n))
    log_det = np.zeros(N)
    for j in range(K1):
        lo, hi = j * p, (j + 1) * p
        PCt = P @ Ct
        column = blocks[:, :K1 - j].reshape(N, m - lo, n) @ (X @ Ct)
        column[:, :p] = symmetrize(column[:, :p]) + model.R
        Sigma[:, lo:, lo:hi] = column
        Sigma[:, lo:hi, lo:] = column.transpose(0, 2, 1)
        S = C @ PCt + model.R
        try:
            L = np.linalg.cholesky(S)
        except np.linalg.LinAlgError as exc:
            for q in range(N):  # name the lowest-index hypothesis that fails at step j
                try:
                    np.linalg.cholesky(S[q])
                except np.linalg.LinAlgError:
                    raise ContractError(f"Sigma_k of hypothesis {q} must be positive definite",
                                        {"hypothesis": q, "step": j}) from exc
            raise
        log_det += 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
        L_inv = np.linalg.inv(L)
        W[:, lo:hi, :lo] = -L_inv @ C @ T[:, :, :lo]
        W[:, lo:hi, lo:hi] = L_inv
        if j < k:
            G = A_q @ PCt @ L_inv.transpose(0, 2, 1)
            K = G @ L_inv
            T[:, :, :lo] = (A_q - K @ C) @ T[:, :, :lo]
            T[:, :, lo:hi] = K
            X = A_q @ X @ A_qT + model.Q
            P = A_q @ P @ A_qT + model.Q - G @ G.transpose(0, 2, 1)
    return blocks, Sigma, W, log_det


def output_covariance(delta: float, loc: LocationMatrix, model: SystemModel, k: int,
                      x_ref=None) -> StackedOutputModel:
    """Covariance of the stacked outputs [y_0; ...; y_k] under one hypothesis.

    I_k maps the k process noises w_0..w_{k-1} (covariance Q each) to the outputs.
    Sigma_k comes from the innovations pass that ``kl_separation`` runs, so a
    Sigma_k that is not positive definite is a ContractError here too.
    """
    blocks, Sigma, _, _ = _innovations(model, [float(delta)], loc.entries[None], k, x_ref)
    return StackedOutputModel(I_k=_input_blocks(blocks)[0], Sigma_k=Sigma[0])


def kl_separation(model: SystemModel, grid: DeltaGrid, k: int, x_ref=None) -> np.ndarray:
    """Matrix of pairwise KL divergences between all (delta, location) hypotheses.

    Entry (t, i) is D(Sigma_k(t) || Sigma_k(i)); hypotheses are ordered
    grid-major (all locations for the first delta, then the next delta, ...).
    Sigma_k, its inverse Cholesky factor W and log det Sigma_k come from one
    innovations pass (no factorization larger than p x p), and Sigma_i^-1 =
    W_i^T W_i.  Hypotheses whose Sigma_k are equal entry for entry (their bytes
    after adding 0.0, which maps -0.0 to +0.0) share one W and read exactly 0
    against each other: identical Sigma_k, not identical (delta, L), decide
    that, so every location at delta = 0 and every delta of an unobservable
    perturbation coincide.  The trace terms tr(Sigma_i^-1 Sigma_t) =
    <Sigma_i^-1, Sigma_t>_F of all pairs form one matrix product.
    """
    deltas, locs, entries = _hypotheses(grid, model.locations)
    _, sigmas, W, log_dets = _innovations(model, deltas, entries, k, x_ref, locs)
    m = sigmas.shape[1]
    sigmas += 0.0
    first: dict[bytes, int] = {}
    group = np.array([first.setdefault(s.tobytes(), len(first)) for s in sigmas])
    del first  # its keys copy every Sigma_k: free them before the products
    rep = np.unique(group, return_index=True)[1]
    if rep.size < group.size:  # keep one hypothesis per distinct Sigma_k
        sigmas, W, log_dets = sigmas[rep], W[rep], log_dets[rep]
    inv = W.transpose(0, 2, 1) @ W
    D = 0.5 * (sigmas.reshape(rep.size, -1) @ inv.reshape(rep.size, -1).T - m
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

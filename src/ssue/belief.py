"""Gaussian beliefs over the augmented vector [delta; x] and their fusion.

Each hypothesis (one candidate location matrix) carries a joint Gaussian over
the perturbation and the state.  A bank holds these as one row per hypothesis
of stacked arrays, means and square-root factors S of the joint covariances
(S S^T = P, derived on first read), plus the posterior location probabilities:
the full filter state.  Banks are collapsed to a single moment-matched
Gaussian (a :class:`JointBelief`, which holds a covariance) for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError, NumericalFailureError

WEIGHT_SUM_TOL = 1e-12
# PSD policy: eigenvalues down to -1e-10 * max eigenvalue count as PSD.
PSD_REL_TOL = 1e-10


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Average away floating-point asymmetry (of each matrix of a stack)."""
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def psd_factor(M: np.ndarray, name: str = "covariance") -> np.ndarray:
    """Factor F with F F^T = M for each matrix of a stack ``(..., m, m)``: the lower
    Cholesky factor of a positive definite matrix, else the exact eigh factor of a
    PSD one (exact zeros stay exact).  Raises :class:`NumericalFailureError` when a
    matrix is indefinite beyond the documented tolerance, naming its flat position
    in a stack as ``hypothesis``."""
    M = symmetrize(np.asarray(M, dtype=float))
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        pass
    out = np.empty_like(M)
    for row, i in enumerate(np.ndindex(M.shape[:-2])):  # each matrix as it would be alone
        try:
            out[i] = np.linalg.cholesky(M[i])
        except np.linalg.LinAlgError:
            w, V = np.linalg.eigh(M[i])
            if w[0] < -PSD_REL_TOL * max(abs(w[-1]), 1.0):
                info = {"eig_min": float(w[0]), "eig_max": float(w[-1])}
                if M.ndim > 2:
                    info["hypothesis"] = row
                raise NumericalFailureError(f"{name} is indefinite (min eigenvalue {w[0]:.3e})",
                                            context=info) from None
            out[i] = V * np.sqrt(np.clip(w, 0.0, None))
    return out


@dataclass(frozen=True)
class JointBelief:
    """Gaussian over [delta; x]: stacked mean ``xi_mean`` and joint covariance ``xi_cov``,
    read-only; ``delta_mean`` is the perturbation mean xi_mean[0]."""

    xi_mean: np.ndarray
    xi_cov: np.ndarray

    def __post_init__(self):
        xi = np.array(self.xi_mean, dtype=float).reshape(-1)
        P = np.asarray(self.xi_cov, dtype=float)
        if xi.size < 1 or P.shape != xi.shape * 2:
            raise ContractError(f"inconsistent belief: mean {xi.shape}, covariance {P.shape}")
        if not (np.isfinite(xi).all() and np.isfinite(P).all()):
            raise ContractError("belief has non-finite entries")
        P = symmetrize(P)
        if not P[0, 0] > 0.0:
            raise ContractError(f"p_delta must be positive, got {P[0, 0]}")
        for name, a in (("xi_mean", xi), ("xi_cov", P)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def delta_mean(self) -> float:
        return float(self.xi_mean[0])


@dataclass(frozen=True)
class HypothesisBank:
    """The filter state: one joint Gaussian over [delta; x] per candidate location,
    stacked as means ``xi_means`` (M, n+1) and square covariance factors
    ``xi_factors`` (M, n+1, n+1), plus the posterior location probabilities
    ``weights`` (M,).  All three are read-only copies of the inputs, checked as
    stored: finite, with p_delta = |S[i, 0, :]|^2 > 0 (a failing row is named as
    ``hypothesis``), and weights on the simplex.  The read-only covariances
    ``xi_covs`` = S S^T are derived on first read."""

    xi_means: np.ndarray
    xi_factors: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        means, S = np.array(self.xi_means, dtype=float), np.array(self.xi_factors, dtype=float)
        if S.ndim != 3 or S.shape[1] != S.shape[2]:
            raise ContractError(f"bank factors must be square matrices (M, n+1, n+1), "
                                f"got shape {S.shape}")
        if means.ndim != 2 or means.shape[-1] < 1 or S.shape[:2] != means.shape:
            raise ContractError(f"inconsistent belief: means {means.shape}, covariances {S.shape}")
        if not (np.isfinite(means).all() and np.isfinite(S).all()):
            raise ContractError("belief has non-finite entries")
        p_delta = np.vecdot(S[:, 0], S[:, 0])
        bad = np.flatnonzero(~(p_delta > 0.0))
        if bad.size:
            raise ContractError(f"p_delta must be positive, got {p_delta[bad[0]]} (row {bad[0]})",
                                context={"hypothesis": int(bad[0])})
        w = np.array(self.weights, dtype=float)
        if w.shape != means.shape[:1]:
            raise ContractError(f"{means.shape[0]} hypotheses but weights of shape {w.shape}")
        if not (np.all(w >= 0.0) and abs(w.sum() - 1.0) <= WEIGHT_SUM_TOL):
            raise ContractError(f"weights must be nonnegative and sum to 1, got {w}")
        for name, a in (("xi_means", means), ("xi_factors", S), ("weights", w)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @cached_property
    def xi_covs(self) -> np.ndarray:
        covs = symmetrize(self.xi_factors @ np.swapaxes(self.xi_factors, -1, -2))
        covs.setflags(write=False)
        return covs

    @property
    def M(self) -> int:
        return self.weights.shape[0]


def fuse(bank: HypothesisBank) -> JointBelief:
    """Moment-matched mixture collapse.

    Mean is the weight-averaged mean; covariance adds the spread-of-means term
    so the result matches the exact first two mixture moments.
    """
    mus, means = bank.weights, bank.xi_means
    xi = mus @ means
    diff = means - xi
    cov = np.einsum("i,ijk->jk", mus, bank.xi_covs) + np.einsum("i,ij,ik->jk", mus, diff, diff)
    return JointBelief(xi, cov)

"""Gaussian beliefs over the augmented vector [delta; x] and their fusion.

Each hypothesis (one candidate location matrix) carries a joint Gaussian over
the perturbation and the state.  A bank holds these as one row per hypothesis
of stacked arrays, means and square-root factors S of the joint covariances
(S S^T = P, derived for readers), plus the posterior location probabilities:
the full filter state.  Banks are collapsed to a single moment-matched
Gaussian (a :class:`JointBelief`, which holds a covariance) for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _joint_rows(means, covs):
    """Checked copies of M joint Gaussians over [delta; x], means (M, n+1) and
    covariances (M, n+1, n+1): finite, with p_delta > 0 (a failing row is named as
    ``hypothesis``), covariances symmetrized, both arrays read-only."""
    means, covs = np.array(means, dtype=float), np.asarray(covs, dtype=float)
    n1 = means.shape[-1] if means.ndim == 2 else 0
    if n1 < 1 or covs.shape != means.shape + (n1,):
        raise ContractError(f"inconsistent belief: means {means.shape}, covariances {covs.shape}")
    if not (np.isfinite(means).all() and np.isfinite(covs).all()):
        raise ContractError("belief has non-finite entries")
    covs = symmetrize(covs)
    bad = np.flatnonzero(~(covs[:, 0, 0] > 0.0))
    if bad.size:
        raise ContractError(f"p_delta must be positive, got {covs[bad[0], 0, 0]} (row {bad[0]})",
                            context={"hypothesis": int(bad[0])})
    means.setflags(write=False)
    covs.setflags(write=False)
    return means, covs


@dataclass(frozen=True)
class JointBelief:
    """Gaussian over [delta; x]: stacked mean ``xi_mean`` and joint covariance ``xi_cov``.

    The blocks are read-only views of these two arrays: ``p_delta`` is the
    scalar perturbation variance, ``p_delta_x`` the 1 x n cross covariance
    (a length-n vector) and ``p_x`` the n x n state covariance.
    """

    xi_mean: np.ndarray
    xi_cov: np.ndarray

    def __post_init__(self):
        means, covs = _joint_rows(np.reshape(self.xi_mean, (1, -1)), np.asarray(self.xi_cov)[None])
        object.__setattr__(self, "xi_mean", means[0])
        object.__setattr__(self, "xi_cov", covs[0])

    @property
    def n(self) -> int:
        return self.xi_mean.shape[0] - 1

    @property
    def delta_mean(self) -> float:
        return float(self.xi_mean[0])

    @property
    def x_mean(self) -> np.ndarray:
        return self.xi_mean[1:]

    @property
    def p_delta(self) -> float:
        return float(self.xi_cov[0, 0])

    @property
    def p_delta_x(self) -> np.ndarray:
        return self.xi_cov[0, 1:]

    @property
    def p_x(self) -> np.ndarray:
        return self.xi_cov[1:, 1:]


@dataclass(frozen=True)
class HypothesisBank:
    """The filter state: one joint Gaussian over [delta; x] per candidate location,
    stacked as means ``xi_means`` (M, n+1) and square covariance factors
    ``xi_factors`` (M, n+1, n+1), plus the posterior location probabilities
    ``weights`` (M,).  All three are read-only copies of the inputs; the read-only
    covariances ``xi_covs`` = S S^T are derived and checked as a belief's are."""

    xi_means: np.ndarray
    xi_factors: np.ndarray
    weights: np.ndarray
    xi_covs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        S = np.array(self.xi_factors, dtype=float)
        if S.ndim != 3 or S.shape[1] != S.shape[2]:
            raise ContractError(f"bank factors must be square matrices (M, n+1, n+1), "
                                f"got shape {S.shape}")
        means, covs = _joint_rows(self.xi_means, S @ np.swapaxes(S, -1, -2))
        w = np.array(self.weights, dtype=float)
        if w.shape != means.shape[:1]:
            raise ContractError(f"{means.shape[0]} hypotheses but weights of shape {w.shape}")
        if not (np.all(w >= 0.0) and abs(w.sum() - 1.0) <= WEIGHT_SUM_TOL):
            raise ContractError(f"weights must be nonnegative and sum to 1, got {w}")
        S.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "xi_means", means)
        object.__setattr__(self, "xi_factors", S)
        object.__setattr__(self, "xi_covs", covs)
        object.__setattr__(self, "weights", w)

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

"""Gaussian beliefs over the augmented vector [delta; x] and their fusion.

Each hypothesis (one candidate location matrix) carries a joint Gaussian over
the perturbation and the state, stored as a stacked mean and a joint
covariance.  A bank of such beliefs plus posterior location probabilities is
the full filter state; banks are collapsed to a single moment-matched Gaussian
of the same kind for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Gaussian over [delta; x]: stacked mean ``xi_mean`` and joint covariance ``xi_cov``.

    The blocks are read-only views of these two arrays: ``p_delta`` is the
    scalar perturbation variance, ``p_delta_x`` the 1 x n cross covariance
    (a length-n vector) and ``p_x`` the n x n state covariance.
    """

    xi_mean: np.ndarray
    xi_cov: np.ndarray

    def __post_init__(self):
        mean = np.array(self.xi_mean, dtype=float).reshape(-1)
        cov = np.asarray(self.xi_cov, dtype=float)
        n1 = mean.shape[0]
        if n1 < 1 or cov.shape != (n1, n1):
            raise ContractError(f"inconsistent belief: mean {mean.shape}, covariance {cov.shape}")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ContractError("belief has non-finite entries")
        cov = symmetrize(cov)
        if not cov[0, 0] > 0.0:
            raise ContractError(f"p_delta must be positive, got {cov[0, 0]}")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "xi_mean", mean)
        object.__setattr__(self, "xi_cov", cov)

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
    """Per-location beliefs plus the posterior location probabilities."""

    beliefs: tuple[JointBelief, ...]
    weights: np.ndarray

    def __post_init__(self):
        beliefs = tuple(self.beliefs)
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if len(beliefs) != w.shape[0]:
            raise ContractError(f"{len(beliefs)} beliefs but {w.shape[0]} weights")
        if np.any(w < 0.0):
            raise ContractError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ContractError(f"weights must sum to 1, got {w.sum()!r}")
        w.setflags(write=False)
        object.__setattr__(self, "beliefs", beliefs)
        object.__setattr__(self, "weights", w)

    @property
    def M(self) -> int:
        return len(self.beliefs)


def fuse(bank: HypothesisBank) -> JointBelief:
    """Moment-matched mixture collapse.

    Mean is the weight-averaged mean; covariance adds the spread-of-means term
    so the result matches the exact first two mixture moments.
    """
    mus = bank.weights
    means = np.stack([b.xi_mean for b in bank.beliefs])
    covs = np.stack([b.xi_cov for b in bank.beliefs])
    xi = mus @ means
    diff = means - xi
    cov = np.einsum("i,ijk->jk", mus, covs) + np.einsum("i,ij,ik->jk", mus, diff, diff)
    return JointBelief(xi, cov)


def identify_location(bank: HypothesisBank) -> int:
    """Index (0-based position in the bank) of the most probable location.

    Ties break toward the lowest index so runs are reproducible.
    """
    return int(np.argmax(bank.weights))

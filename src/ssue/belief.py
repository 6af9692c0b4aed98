"""Gaussian beliefs over the augmented vector [delta; x] and their fusion.

Each hypothesis (one candidate location matrix) carries a joint Gaussian over
the perturbation and the state, stored in block form.  A bank of such beliefs
plus posterior location probabilities is the full filter state; banks are
collapsed to a single moment-matched Gaussian for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, NumericalFailureError

WEIGHT_SUM_TOL = 1e-12
# PSD policy: eigenvalues down to -1e-10 * max eigenvalue count as PSD;
# matrices failing strict PD get 1e-12 jitter before any inversion.
PSD_REL_TOL = 1e-10
PD_JITTER = 1e-12


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Average away floating-point asymmetry; applied after every covariance op."""
    return 0.5 * (M + M.T)


def ensure_spd(M: np.ndarray, context: str = "covariance") -> np.ndarray:
    """Symmetrize and, if needed, jitter a covariance so Cholesky can succeed.

    Raises :class:`NumericalFailureError` when the matrix is indefinite beyond
    the documented tolerance.
    """
    M = symmetrize(np.asarray(M, dtype=float))
    eigs = np.linalg.eigvalsh(M)
    eig_min, eig_max = float(eigs[0]), float(eigs[-1])
    scale = max(abs(eig_max), 1.0)
    if eig_min < -PSD_REL_TOL * scale:
        raise NumericalFailureError(
            f"{context} is indefinite (min eigenvalue {eig_min:.3e})",
            context={"eig_min": eig_min, "eig_max": eig_max},
        )
    if eig_min <= 0.0:
        M = M + PD_JITTER * np.eye(M.shape[0])
    return M


@dataclass(frozen=True)
class JointBelief:
    """Gaussian over [delta; x] in block form.

    ``p_delta`` is the scalar perturbation variance, ``p_delta_x`` the
    1 x n cross covariance (stored as a length-n vector) and ``p_x`` the n x n
    state covariance.
    """

    delta_mean: float
    x_mean: np.ndarray
    p_delta: float
    p_delta_x: np.ndarray
    p_x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x_mean, dtype=float).reshape(-1)
        pdx = np.asarray(self.p_delta_x, dtype=float).reshape(-1)
        px = np.asarray(self.p_x, dtype=float)
        n = x.shape[0]
        if pdx.shape != (n,) or px.shape != (n, n):
            raise ContractError(
                f"inconsistent belief blocks: x {x.shape}, p_delta_x {pdx.shape}, p_x {px.shape}"
            )
        if not self.p_delta > 0.0:
            raise ContractError(f"p_delta must be positive, got {self.p_delta}")
        for arr in (x, pdx, px):
            arr.setflags(write=False)
        object.__setattr__(self, "delta_mean", float(self.delta_mean))
        object.__setattr__(self, "p_delta", float(self.p_delta))
        object.__setattr__(self, "x_mean", x)
        object.__setattr__(self, "p_delta_x", pdx)
        object.__setattr__(self, "p_x", px)

    @property
    def n(self) -> int:
        return self.x_mean.shape[0]

    @property
    def xi_mean(self) -> np.ndarray:
        """Stacked mean [delta; x]."""
        return np.concatenate(([self.delta_mean], self.x_mean))


def assemble_joint_covariance(belief: JointBelief) -> np.ndarray:
    """Block matrix [[p_delta, p_delta_x], [p_delta_x^T, p_x]], symmetric by construction."""
    n = belief.n
    P = np.empty((n + 1, n + 1))
    P[0, 0] = belief.p_delta
    P[0, 1:] = belief.p_delta_x
    P[1:, 0] = belief.p_delta_x
    P[1:, 1:] = symmetrize(belief.p_x)
    return P


def belief_from_joint(xi_mean: np.ndarray, xi_cov: np.ndarray) -> JointBelief:
    """Split a stacked mean/covariance back into belief blocks."""
    xi_mean = np.asarray(xi_mean, dtype=float).reshape(-1)
    xi_cov = symmetrize(np.asarray(xi_cov, dtype=float))
    return JointBelief(
        delta_mean=float(xi_mean[0]),
        x_mean=xi_mean[1:],
        p_delta=float(xi_cov[0, 0]),
        p_delta_x=xi_cov[0, 1:],
        p_x=xi_cov[1:, 1:],
    )


@dataclass(frozen=True)
class FusedEstimate:
    """Moment-matched single Gaussian over [delta; x]."""

    xi_mean: np.ndarray
    xi_cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.xi_mean, dtype=float).reshape(-1)
        cov = symmetrize(np.asarray(self.xi_cov, dtype=float))
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "xi_mean", mean)
        object.__setattr__(self, "xi_cov", cov)

    @property
    def delta_mean(self) -> float:
        return float(self.xi_mean[0])

    @property
    def x_mean(self) -> np.ndarray:
        return self.xi_mean[1:]


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

    def with_weights(self, weights) -> "HypothesisBank":
        return replace(self, weights=np.asarray(weights, dtype=float))


def fuse(bank: HypothesisBank) -> FusedEstimate:
    """Moment-matched mixture collapse.

    Mean is the weight-averaged mean; covariance adds the spread-of-means term
    so the result matches the exact first two mixture moments.
    """
    mus = bank.weights
    means = np.stack([b.xi_mean for b in bank.beliefs])
    covs = np.stack([assemble_joint_covariance(b) for b in bank.beliefs])
    xi = mus @ means
    diff = means - xi
    cov = np.einsum("i,ijk->jk", mus, covs) + np.einsum("i,ij,ik->jk", mus, diff, diff)
    return FusedEstimate(xi_mean=xi, xi_cov=symmetrize(cov))


def identify_location(bank: HypothesisBank) -> int:
    """Index (0-based position in the bank) of the most probable location.

    Ties break toward the lowest index so runs are reproducible.
    """
    return int(np.argmax(bank.weights))

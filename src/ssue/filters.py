"""Multi-hypothesis joint state/perturbation filter and the EKF baseline.

One filter step runs, per candidate location: a prediction of the joint
[delta; x] belief through the perturbed dynamics, an innovation likelihood,
and an iterative MAP measurement update (Newton or Gauss-Newton on the
negative log posterior).  Location probabilities are then reweighted by the
likelihoods and the bank is collapsed to a fused estimate.

Likelihoods are handled in log domain throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .belief import (
    HypothesisBank,
    JointBelief,
    ensure_spd,
    fuse,
    identify_location,
    symmetrize,
)
from .errors import ContractError, DegenerateEvidenceError, NumericalFailureError
from .model import LocationMatrix, MeasurementMap, SystemModel

LINE_SEARCH_CONTRACTION = 0.5
LINE_SEARCH_MAX_HALVINGS = 20
NORMAL_EQUATION_JITTER = 1e-12
DEFAULT_WEIGHT_FLOOR = 1e-12


@dataclass(frozen=True)
class NewtonOptions:
    """Knobs of the iterative MAP update.

    ``mode`` selects Gauss-Newton (second-order residual term dropped) or full
    Newton; ``line_search`` "backtracking" halves the step until the cost stops
    increasing, "none" reproduces the raw iteration.  ``q_jitter`` is added to
    a singular process covariance before prediction.
    """

    max_iterations: int = 10
    step_tolerance: float = 1e-9
    mode: str = "gauss_newton"
    line_search: str = "backtracking"
    q_jitter: float = 1e-9

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ContractError("max_iterations must be >= 1")
        if not self.step_tolerance > 0.0:
            raise ContractError("step_tolerance must be positive")
        if self.mode not in ("gauss_newton", "full_newton"):
            raise ContractError(f"unknown mode {self.mode!r}")
        if self.line_search not in ("none", "backtracking"):
            raise ContractError(f"unknown line_search {self.line_search!r}")
        if self.q_jitter < 0.0:
            raise ContractError("q_jitter must be >= 0")


@dataclass(frozen=True)
class UpdateReport:
    """Diagnostics of one MAP update.

    ``converged`` means an accepted step fell below the step tolerance; hitting
    the iteration cap, or the backtracking search finding no non-increasing
    step (stalled at a numerical minimum), leaves it False.
    """

    iterations_used: int
    final_cost: float
    cost_trajectory: tuple[float, ...]
    converged: bool


@dataclass(frozen=True)
class StepResult:
    """Output of one full filter step."""

    bank: HypothesisBank
    fused: JointBelief
    identified_index: int
    log_lambdas: np.ndarray
    reports: tuple[UpdateReport, ...] = field(default=())


def initial_bank(model: SystemModel) -> HypothesisBank:
    """Uniform-weight bank: delta at the domain hull midpoint with the hull
    half-width as standard deviation, state at zero with covariance P0."""
    lo, hi = model.domain.hull()
    half = 0.5 * (hi - lo)
    xi_cov = np.zeros((model.n + 1, model.n + 1))
    xi_cov[0, 0] = max(half * half, 1e-12)
    xi_cov[1:, 1:] = model.P0
    belief = JointBelief(np.concatenate(([0.5 * (lo + hi)], np.zeros(model.n))), xi_cov)
    weights = np.full(model.M, 1.0 / model.M)
    return HypothesisBank(beliefs=(belief,) * model.M, weights=weights)


def _cholesky_or_none(M: np.ndarray):
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return None


def _inverse_cholesky(M: np.ndarray) -> np.ndarray:
    """L^{-1} for the lower Cholesky factor L of M, so that M^{-1} = L^{-T} L^{-1}."""
    return np.linalg.inv(np.linalg.cholesky(M))


def _measurement_vector(y, p: int) -> np.ndarray:
    """y as a flat float vector of length p, rejecting any NaN or inf entry."""
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape != (p,):
        raise ContractError(f"measurement must have shape ({p},), got {y.shape}")
    if not np.isfinite(y).all():
        raise ContractError(f"measurement has non-finite entries: {y}")
    return y


def predict(belief: JointBelief, loc: LocationMatrix, A: np.ndarray, Q: np.ndarray,
            q_jitter: float = 1e-9) -> JointBelief:
    """Propagate a joint belief one step through x+ = (A + delta * L) x + w.

    The joint covariance is pushed through the Jacobian
    F = [[1, 0], [L x, A + delta L]] of [delta; x] -> [delta; x+], so the
    perturbation mean and variance carry over unchanged.
    """
    n = belief.n
    A = np.asarray(A, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if A.shape != (n, n) or Q.shape != (n, n) or loc.n != n:
        raise ContractError("prediction inputs disagree on the state dimension")
    if q_jitter > 0.0 and _cholesky_or_none(symmetrize(Q)) is None:
        Q = Q + q_jitter * np.eye(n)

    A_pert = A + belief.delta_mean * loc.entries
    F = np.zeros((n + 1, n + 1))
    F[0, 0] = 1.0
    F[1:, 0] = loc.entries @ belief.x_mean
    F[1:, 1:] = A_pert

    predicted = F @ belief.xi_cov @ F.T
    predicted[1:, 1:] += Q
    predicted = ensure_spd(predicted, "predicted joint covariance")
    return JointBelief(np.concatenate(([belief.delta_mean], A_pert @ belief.x_mean)), predicted)


def _solve_step(N: np.ndarray, g: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(N, -g)
    except np.linalg.LinAlgError:
        pass
    try:
        return np.linalg.solve(N + NORMAL_EQUATION_JITTER * np.eye(N.shape[0]), -g)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            "singular normal-equations matrix in the MAP update even after jitter",
            context={"condition": float(np.linalg.cond(N))},
        ) from exc


def newton_update(pred: JointBelief, y: np.ndarray, measurement_map: MeasurementMap,
                  R: np.ndarray, opts: NewtonOptions = NewtonOptions()) -> tuple[JointBelief, UpdateReport]:
    """Iterative MAP measurement update of the predicted joint belief.

    Minimizes the stacked least-squares cost

        L(xi) = ||R^{-1/2} (y - h(x))||^2 + ||P^{-1/2} (xi - xi_pred)||^2

    starting from the prediction, where the matrix square roots are lower
    Cholesky factors (the iterate only depends on them through R^{-1} and
    P^{-1}, so the factor choice is immaterial).  The posterior covariance is
    the inverse Fisher information [H + P_pred^{-1}]^{-1} with
    H = blkdiag(0, C^T R^{-1} C) evaluated at the last iterate.  Full Newton
    needs the map's ``hessian``.
    """
    if opts.mode == "full_newton" and measurement_map.hessian is None:
        raise ContractError("full_newton mode needs a measurement map with a hessian")
    p = measurement_map.output_dim
    y = _measurement_vector(y, p)
    n1 = pred.n + 1
    xi_pred = pred.xi_mean
    LP_inv = _inverse_cholesky(ensure_spd(pred.xi_cov, "predicted joint covariance"))
    LR_inv = _inverse_cholesky(ensure_spd(R, "measurement noise covariance"))

    def residual(xi):
        return np.concatenate([LR_inv @ (y - measurement_map.evaluate(xi[1:])),
                               LP_inv @ (xi - xi_pred)])

    xi = xi_pred.copy()
    r = residual(xi)
    costs = [float(r @ r)]
    iterations = 0
    converged = False
    # Stacked Jacobian of the residual: [0, -LR^{-1} C] over the constant LP^{-1}.
    J = np.zeros((p + n1, n1))
    J[p:] = LP_inv

    for _ in range(opts.max_iterations):
        J[:p, 1:] = -(LR_inv @ measurement_map.jacobian(xi[1:]))
        g = J.T @ r
        N = J.T @ J
        if opts.mode == "full_newton":
            # residual curvature -sum_m w_m Hess(h_m), w = R^{-1} (y - h(x))
            hess = np.asarray(measurement_map.hessian(xi[1:]), dtype=float)
            N[1:, 1:] -= np.einsum("m,mij->ij", LR_inv.T @ r[:p], hess)
        d = _solve_step(N, g)

        if opts.line_search == "none":
            xi_new = xi + d
            r_new = residual(xi_new)
            step = d
        else:
            alpha = 1.0
            step = None
            for _ in range(LINE_SEARCH_MAX_HALVINGS + 1):
                cand = xi + alpha * d
                r_cand = residual(cand)
                if float(r_cand @ r_cand) <= costs[-1]:
                    xi_new, r_new, step = cand, r_cand, alpha * d
                    break
                alpha *= LINE_SEARCH_CONTRACTION
            if step is None:
                break  # no non-increasing step exists; keep the current iterate

        xi, r = xi_new, r_new
        costs.append(float(r @ r))
        iterations += 1
        if np.linalg.norm(step) < opts.step_tolerance:
            converged = True
            break

    W = LR_inv @ measurement_map.jacobian(xi[1:])
    info = LP_inv.T @ LP_inv
    info[1:, 1:] += W.T @ W
    info = symmetrize(info)
    L_info = _cholesky_or_none(info)
    if L_info is None:
        L_info = _cholesky_or_none(info + NORMAL_EQUATION_JITTER * np.eye(n1))
    if L_info is None:
        raise NumericalFailureError("posterior information matrix is not positive definite",
                                    context={"eig_min": float(np.linalg.eigvalsh(info)[0])})
    L_info_inv = np.linalg.inv(L_info)
    P_post = L_info_inv.T @ L_info_inv

    report = UpdateReport(
        iterations_used=iterations,
        final_cost=costs[-1],
        cost_trajectory=tuple(costs),
        converged=converged,
    )
    return JointBelief(xi, P_post), report


def log_likelihood(pred: JointBelief, y: np.ndarray, measurement_map: MeasurementMap,
                   R: np.ndarray) -> float:
    """Log innovation density of y under the predicted belief.

    Gaussian with mean h(x_pred) and covariance C P^x C^T + R, with C the
    measurement Jacobian at the predicted state mean.
    """
    y = _measurement_vector(y, measurement_map.output_dim)
    C = measurement_map.jacobian(pred.x_mean)
    nu = y - measurement_map.evaluate(pred.x_mean)
    Gamma = ensure_spd(C @ pred.p_x @ C.T + np.asarray(R, dtype=float),
                       "innovation covariance")
    L = np.linalg.cholesky(Gamma)
    z = np.linalg.solve(L, nu)
    log_det = 2.0 * float(np.sum(np.log(np.diag(L))))
    return -0.5 * (y.shape[0] * np.log(2.0 * np.pi) + log_det + float(z @ z))


def update_weights_log(mu_prev, log_lambdas, floor: float = DEFAULT_WEIGHT_FLOOR) -> np.ndarray:
    """Bayes update of the location probabilities from log evidences."""
    mu = np.asarray(mu_prev, dtype=float).reshape(-1)
    ll = np.asarray(log_lambdas, dtype=float).reshape(-1)
    if mu.shape != ll.shape:
        raise ContractError("weights and likelihoods must have equal length")
    if np.any(mu < 0.0) or abs(float(mu.sum()) - 1.0) > 1e-12:
        raise ContractError(f"weights must form a simplex, got sum {mu.sum()!r}")
    with np.errstate(divide="ignore"):
        log_post = ll + np.log(mu)
    finite = np.isfinite(log_post)
    if not np.any(finite):
        raise DegenerateEvidenceError("all hypotheses received zero evidence")
    shifted = np.exp(log_post - np.max(log_post[finite]))
    shifted[~finite] = 0.0
    mu_new = shifted / shifted.sum()
    if floor > 0.0:
        mu_new = np.maximum(mu_new, floor)
        mu_new = mu_new / mu_new.sum()
    return mu_new


def ssue_step(bank: HypothesisBank, y, model: SystemModel,
              opts: NewtonOptions = NewtonOptions(), step: int | None = None,
              weight_floor: float = DEFAULT_WEIGHT_FLOOR) -> StepResult:
    """One full filter cycle: per-hypothesis predict / likelihood / MAP update,
    then weight update, location identification and fusion.

    The likelihood is evaluated on the predicted belief, so it is independent
    of the MAP update outcome.
    """
    if bank.M != model.M:
        raise ContractError(f"bank has {bank.M} hypotheses, model has {model.M} locations")
    try:
        y = _measurement_vector(y, model.map.output_dim)
    except ContractError as exc:
        if step is not None:
            exc.context.setdefault("step", step)
        raise
    posteriors = []
    log_lams = []
    reports = []
    for i, (b, loc) in enumerate(zip(bank.beliefs, model.locations)):
        try:
            pred = predict(b, loc, model.A, model.Q, q_jitter=opts.q_jitter)
            log_lams.append(log_likelihood(pred, y, model.map, model.R))
            post, rep = newton_update(pred, y, model.map, model.R, opts)
        except NumericalFailureError as exc:
            exc.context.setdefault("hypothesis", i)
            if step is not None:
                exc.context.setdefault("step", step)
            raise
        posteriors.append(post)
        reports.append(rep)
    try:
        mu = update_weights_log(bank.weights, log_lams, floor=weight_floor)
    except DegenerateEvidenceError as exc:
        if step is not None:
            exc.context.setdefault("step", step)
        raise
    new_bank = HypothesisBank(beliefs=tuple(posteriors), weights=mu)
    log_lams = np.asarray(log_lams)
    return StepResult(
        bank=new_bank,
        fused=fuse(new_bank),
        identified_index=identify_location(new_bank),
        log_lambdas=log_lams,
        reports=tuple(reports),
    )


def ekf_step(mean, cov, y, model: SystemModel) -> tuple[np.ndarray, np.ndarray]:
    """Extended Kalman filter step on the nominal model (perturbation ignored)."""
    mean = np.asarray(mean, dtype=float).reshape(-1)
    y = _measurement_vector(y, model.map.output_dim)
    m_pred = model.A @ mean
    P_pred = symmetrize(model.A @ cov @ model.A.T + model.Q)
    C = model.map.jacobian(m_pred)
    LS_inv = _inverse_cholesky(ensure_spd(C @ P_pred @ C.T + model.R,
                                          "EKF innovation covariance"))
    K = P_pred @ (LS_inv @ C).T @ LS_inv
    mean_post = m_pred + K @ (y - model.map.evaluate(m_pred))
    cov_post = symmetrize((np.eye(mean.shape[0]) - K @ C) @ P_pred)
    return mean_post, cov_post

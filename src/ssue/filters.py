"""Multi-hypothesis joint state/perturbation filter and the EKF baseline.

One filter step runs, per candidate location: a prediction of the joint
[delta; x] belief through the perturbed dynamics, an innovation likelihood,
and an iterative MAP measurement update (Newton or Gauss-Newton on the
negative log posterior).  Location probabilities are then reweighted by the
likelihoods and the bank is collapsed to a fused estimate.

One stacked kernel, ``_step_rows``, does all of this for B = runs x M rows at
once; rows never mix, so a run's numbers are bit-identical alone or in a batch.

Likelihoods are handled in log domain throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .belief import HypothesisBank, JointBelief, fuse, psd_factor, symmetrize
from .errors import ContractError, DegenerateEvidenceError, NumericalFailureError
from .model import LocationMatrix, MeasurementMap, SystemModel

LINE_SEARCH_CONTRACTION = 0.5
LINE_SEARCH_MAX_HALVINGS = 20
DECREMENT_TOL = 1e-12  # Newton decrement |g^T d| at which a MAP update stops, in cost (chi^2) units
NORMAL_EQUATION_JITTER = 1e-12
Q_JITTER = 1e-9  # added to a singular process covariance, so every prediction is SPD
DEFAULT_WEIGHT_FLOOR = 1e-12


@dataclass(frozen=True)
class NewtonOptions:
    """Knobs of the iterative MAP update.

    ``mode`` selects Gauss-Newton (second-order residual term dropped) or full
    Newton.  Every step is backtracked, halving it until the cost stops
    increasing; a row stops after the step whose Newton decrement |g^T d| is
    below ``DECREMENT_TOL``, or after ``max_iterations`` steps.
    """

    max_iterations: int = 10
    mode: str = "gauss_newton"

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ContractError("max_iterations must be >= 1")
        if self.mode not in ("gauss_newton", "full_newton"):
            raise ContractError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class UpdateReport:
    """Diagnostics of one MAP update.

    ``converged`` means the update took a step whose Newton decrement |g^T d|,
    its predicted cost decrease, was below ``DECREMENT_TOL``; hitting the
    iteration cap, or the backtracking search finding no non-increasing step,
    leaves it False.
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
    xi_mean = np.concatenate(([0.5 * (lo + hi)], np.zeros(model.n)))
    return HypothesisBank(np.tile(xi_mean, (model.M, 1)), np.tile(xi_cov, (model.M, 1, 1)),
                          np.full(model.M, 1.0 / model.M))


def _q_factor(Q: np.ndarray) -> np.ndarray:
    """Q^{1/2}, of Q + Q_JITTER I when Q itself is singular."""
    try:
        return np.linalg.cholesky(symmetrize(Q))
    except np.linalg.LinAlgError:
        return psd_factor(Q + Q_JITTER * np.eye(Q.shape[0]), "process noise covariance Q")


def _r_factors(R: np.ndarray):
    """R^{1/2} and R^{-1/2} (lower Cholesky) of a positive definite R."""
    try:
        LR = np.linalg.cholesky(symmetrize(np.asarray(R, dtype=float)))
    except np.linalg.LinAlgError:
        raise ContractError("measurement noise covariance R is not positive definite") from None
    return LR, np.linalg.inv(LR)


def _model_constants(model: SystemModel):
    """Q^{1/2}, R^{1/2}, R^{-1/2} and the stacked locations, kept on the (immutable) model."""
    if "_filter_constants" not in model.__dict__:
        locations = np.stack([loc.entries for loc in model.locations])
        object.__setattr__(model, "_filter_constants",
                           (_q_factor(model.Q), *_r_factors(model.R), locations))
    return model.__dict__["_filter_constants"]


def _measurement_vector(y, p: int) -> np.ndarray:
    """y as a flat float vector of length p, rejecting any NaN or inf entry."""
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape != (p,):
        raise ContractError(f"measurement must have shape ({p},), got {y.shape}")
    if not np.isfinite(y).all():
        raise ContractError(f"measurement has non-finite entries: {y}")
    return y


# Stacked stages over rows (leading axis); a failing row is named as ``hypothesis``.

def _mv(A, x):
    return (A @ x[..., None])[..., 0]  # row-wise matrix-vector product


def _dot(a, b):
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]  # row-wise inner product


def _map_call(fn, X: np.ndarray, tail: tuple, name: str) -> np.ndarray:
    """One measurement-map call on a state stack, checked against the stack contract."""
    out = np.asarray(fn(X), dtype=float)
    if out.shape != X.shape[:-1] + tail:
        raise ContractError(f"measurement map {name} returned shape {out.shape}, "
                            f"not {X.shape[:-1] + tail}")
    return out


def _rowwise(solve, M: np.ndarray, what: str, jitter: float = 0.0) -> np.ndarray:
    """``solve(M[rows], rows)`` for all rows, else row by row with a ``jitter`` retry."""
    try:
        return solve(M, slice(None))
    except np.linalg.LinAlgError:
        pass
    out = []
    for b in range(M.shape[0]):
        rows = slice(b, b + 1)
        for attempt in (M[rows], M[rows] + jitter * np.eye(M.shape[-1]))[:1 + (jitter > 0.0)]:
            try:
                out.append(solve(attempt, rows)[0])
                break
            except np.linalg.LinAlgError:
                continue
        else:
            raise NumericalFailureError(
                what, context={"hypothesis": b, "condition": float(np.linalg.cond(M[b]))})
    return np.stack(out)


def _qr_root(top, bottom):
    """Upper triangular U with U^T U = T^T T + [0, D]^T [0, D], T = ``top`` (B, k, c) and
    D = ``bottom`` (..., m, j) filling the last j columns: one stacked QR of [T; [0, D]]."""
    B, k, c = top.shape
    stack = np.zeros((B, k + bottom.shape[-2], c))
    stack[:, :k] = top
    stack[:, k:, c - bottom.shape[-1]:] = bottom
    return np.linalg.qr(stack, mode="r")


def _predict_rows(xi, S, L, A, LQ):
    """:func:`predict` of rows (B, n+1) with covariance factors S (B, n+1, n+1),
    locations L (B, n, n) and Q^{1/2}, to the predicted means and factors."""
    delta, x = xi[:, :1], xi[:, 1:]
    A_pert = A + delta[:, :, None] * L
    # S_pred S_pred^T = (F S)(F S)^T + blkdiag(0, Q) with the Jacobian F = [[1, 0], [L x, A_pert]]
    FS = np.concatenate([S[:, :1], _mv(L, x)[:, :, None] * S[:, :1] + A_pert @ S[:, 1:]], axis=1)
    S_pred = np.swapaxes(_qr_root(np.swapaxes(FS, -1, -2), LQ.T), -1, -2)
    return np.concatenate([delta, _mv(A_pert, x)], axis=1), S_pred


def _innovation_rows(xi_pred, S_pred, y, measurement_map, LR):
    """:func:`log_likelihood` of rows, plus h and C at the predicted means."""
    x, p = xi_pred[:, 1:], y.shape[-1]
    C = _map_call(measurement_map.jacobian, x, (p, x.shape[-1]), "jacobian")
    h = _map_call(measurement_map.evaluate, x, (p,), "evaluate")
    # innovation covariance C P^x C^T + R = U^T U, with P^x = S^x S^x^T for the state rows S^x
    U = _qr_root(np.swapaxes(C @ S_pred[:, 1:], -1, -2), LR.T)
    z = np.linalg.solve(np.swapaxes(U, -1, -2), (y - h)[..., None])[..., 0]
    log_det = 2.0 * np.log(np.abs(np.diagonal(U, axis1=-2, axis2=-1))).sum(axis=-1)
    return -0.5 * (p * np.log(2.0 * np.pi) + log_det + _dot(z, z)), h, C


def _reports(iterations, costs, converged) -> tuple[UpdateReport, ...]:
    """One report per row; row b's cost trajectory is costs[:iterations[b] + 1, b]."""
    return tuple(UpdateReport(int(it), float(costs[it, b]), tuple(costs[:it + 1, b].tolist()),
                              bool(ok)) for b, (it, ok) in enumerate(zip(iterations, converged)))


def _update_rows(xi_pred, S_pred, y, measurement_map, LR_inv, opts, h, C):
    """:func:`newton_update` of B rows from their factors and h and C at the predicted
    means; a row that converges or stalls leaves the active set and does no further work."""
    (B, n1), (p, n) = xi_pred.shape, C.shape[-2:]
    LP_inv = _rowwise(lambda A, rows: np.linalg.inv(A), S_pred,
                      "predicted joint covariance is singular")

    def residual(xi, y, LP_inv, xi_pred, hx=None):
        hx = _map_call(measurement_map.evaluate, xi[:, 1:], (p,), "evaluate") if hx is None else hx
        return np.concatenate([_mv(LR_inv, y - hx), _mv(LP_inv, xi - xi_pred)], axis=1)

    xi = xi_pred.copy()
    r = residual(xi, y, LP_inv, xi_pred, h)
    cost = _dot(r, r)
    costs = np.vstack([cost, np.full((opts.max_iterations, B), np.nan)])
    iterations, converged = np.zeros(B, dtype=int), np.zeros(B, dtype=bool)
    C = np.array(C)
    # Stacked Jacobian of the residual: [0, -LR^{-1} C] over the constant LP^{-1}.
    J = np.zeros((B, p + n1, n1))
    J[:, p:] = LP_inv
    act = np.arange(B)
    for t in range(opts.max_iterations):
        if t:  # every active row moved in the last round
            C[act] = _map_call(measurement_map.jacobian, xi[act, 1:], (p, n), "jacobian")
        Ja = J[act]
        Ja[:, :p, 1:] = -(LR_inv @ C[act])
        Jt = np.swapaxes(Ja, -1, -2)
        xa, ra, ca, ya, LPa, xpa = xi[act], r[act], cost[act], y[act], LP_inv[act], xi_pred[act]
        g, N = _mv(Jt, ra), Jt @ Ja
        if opts.mode == "full_newton":
            # residual curvature -sum_m w_m Hess(h_m), w = R^{-1} (y - h(x))
            hess = _map_call(measurement_map.hessian, xa[:, 1:], (p, n, n), "hessian")
            w = _mv(LR_inv.T, ra[:, :p])
            N[:, 1:, 1:] -= (w[:, None, :] @ hess.reshape(-1, p, n * n)).reshape(-1, n, n)
        d = _rowwise(lambda A, rows: np.linalg.solve(A, -g[rows, :, None])[..., 0], N,
                     "singular normal-equations matrix in the MAP update even after jitter",
                     NORMAL_EQUATION_JITTER)

        # the step with a decrement at rounding level is the last; its cost may rise by as much
        small = np.abs(_dot(g, d)) < DECREMENT_TOL
        limit = ca + np.where(small, DECREMENT_TOL, 0.0)
        new, rn, cn = np.empty_like(xa), np.empty_like(ra), np.empty_like(ca)
        ok, s, alpha = np.zeros(act.size, dtype=bool), np.arange(act.size), 1.0
        for _ in range(1 + LINE_SEARCH_MAX_HALVINGS):  # the full step, then backtracking
            new[s] = xa[s] + alpha * d[s]  # every row s still searching is at this fraction
            rn[s] = residual(new[s], ya[s], LPa[s], xpa[s])
            cn[s] = _dot(rn[s], rn[s])
            ok[s] = cn[s] <= limit[s]
            s, alpha = s[~ok[s]], alpha * LINE_SEARCH_CONTRACTION
            if not s.size:
                break
        # rows with no non-increasing step keep their current iterate and stop
        moved = act[ok]
        xi[moved], r[moved], cost[moved] = new[ok], rn[ok], cn[ok]
        iterations[moved] += 1
        costs[iterations[moved], moved] = cn[ok]
        converged[moved[small[ok]]] = True
        act = moved[~small[ok]]
        if not act.size:
            break

    moved_last = converged.copy()  # rows that stalled kept the iterate C was evaluated at
    moved_last[act] = True
    if moved_last.any():
        C[moved_last] = _map_call(measurement_map.jacobian, xi[moved_last, 1:], (p, n), "jacobian")
    # U^T U = S_pred^{-T} S_pred^{-1} + blkdiag(0, C^T R^{-1} C) is the posterior information
    S_post = np.linalg.inv(_qr_root(LP_inv, LR_inv @ C))
    return xi, symmetrize(S_post @ np.swapaxes(S_post, -1, -2)), iterations, costs, converged


def _step_rows(xi, P, mu, y, model: SystemModel, opts: NewtonOptions):
    """The stacked kernel: one filter step of R runs of one model, from means
    (R, M, n+1), covariances (R, M, n+1, n+1), weights (R, M), measurements
    (R, p), to posterior rows, weights, log likelihoods, fused means,
    identified indices and the raw :func:`_update_rows` result.  In between, each
    row's covariance is carried as a factor S (S S^T = P), so it stays SPD by construction."""
    (R_runs, M), n1 = mu.shape, xi.shape[-1]
    LQ, LR, LR_inv, locations = _model_constants(model)
    Y = np.repeat(y, M, axis=0)
    try:
        S = psd_factor(P.reshape(-1, n1, n1), "joint covariance")
        xi_pred, S_pred = _predict_rows(xi.reshape(-1, n1), S,
                                        np.concatenate([locations] * R_runs), model.A, LQ)
        ll, h, C = _innovation_rows(xi_pred, S_pred, Y, model.map, LR)
        upd = _update_rows(xi_pred, S_pred, Y, model.map, LR_inv, opts, h, C)
    except NumericalFailureError as exc:
        if "hypothesis" in exc.context:  # the failing row's position in the stack
            exc.context["hypothesis"] %= M
        raise
    mu_new = update_weights_log(mu, ll.reshape(R_runs, M))
    xi_post = upd[0].reshape(xi.shape)
    return (xi_post, upd[1].reshape(P.shape), mu_new, ll.reshape(R_runs, M),
            (mu_new[:, None, :] @ xi_post)[:, 0], np.argmax(mu_new, axis=-1), upd)


# Public per-belief API: the one-row case of the stacked stages.

def predict(belief: JointBelief, loc: LocationMatrix, A: np.ndarray, Q: np.ndarray) -> JointBelief:
    """Propagate a joint belief one step through x+ = (A + delta * L) x + w.

    The joint covariance is pushed through the Jacobian F = [[1, 0], [L x, A + delta L]]
    of [delta; x] -> [delta; x+], so the perturbation mean and variance carry over
    unchanged.  As in the filter, a singular Q gets ``Q_JITTER`` on its diagonal.
    """
    n = belief.n
    A, Q = np.asarray(A, dtype=float), np.asarray(Q, dtype=float)
    if A.shape != (n, n) or Q.shape != (n, n) or loc.n != n:
        raise ContractError("prediction inputs disagree on the state dimension")
    S = psd_factor(belief.xi_cov[None], "joint covariance")
    xi, S_pred = _predict_rows(belief.xi_mean[None], S, loc.entries[None], A, _q_factor(Q))
    P = symmetrize(S_pred[0] @ S_pred[0].T)
    P[0, 0] = belief.p_delta  # exact: delta has no process noise, and sqrt(p)^2 need not be p
    return JointBelief(xi[0], P)


def newton_update(pred: JointBelief, y: np.ndarray, measurement_map: MeasurementMap,
                  R: np.ndarray, opts: NewtonOptions = NewtonOptions()) -> tuple[JointBelief, UpdateReport]:
    """Iterative MAP measurement update of the predicted joint belief.

    Minimizes the stacked least-squares cost

        L(xi) = ||R^{-1/2} (y - h(x))||^2 + ||P^{-1/2} (xi - xi_pred)||^2

    starting from the prediction, where the matrix square roots are the
    factors of R and P (the iterate only depends on them through R^{-1} and
    P^{-1}, so the factor choice is immaterial); Gauss-Newton on it is the
    iterated EKF update (Bell & Cathey 1993).  The posterior covariance is
    the inverse Fisher information [H + P_pred^{-1}]^{-1} with
    H = blkdiag(0, C^T R^{-1} C) evaluated at the last iterate.  Full Newton
    needs the map's ``hessian``.
    """
    if opts.mode == "full_newton" and measurement_map.hessian is None:
        raise ContractError("full_newton mode needs a measurement map with a hessian")
    p, x = measurement_map.output_dim, pred.x_mean[None]
    y = _measurement_vector(y, p)[None]
    C = _map_call(measurement_map.jacobian, x, (p, pred.n), "jacobian")
    h = _map_call(measurement_map.evaluate, x, (p,), "evaluate")
    _, LR_inv = _r_factors(R)
    S_pred = psd_factor(pred.xi_cov[None], "predicted joint covariance")
    xi, P, *rows = _update_rows(pred.xi_mean[None], S_pred, y, measurement_map, LR_inv, opts, h, C)
    return JointBelief(xi[0], P[0]), _reports(*rows)[0]


def log_likelihood(pred: JointBelief, y: np.ndarray, measurement_map: MeasurementMap,
                   R: np.ndarray) -> float:
    """Log innovation density of y under the predicted belief.

    Gaussian with mean h(x_pred) and covariance C P^x C^T + R, with C the
    measurement Jacobian at the predicted state mean.
    """
    y = _measurement_vector(y, measurement_map.output_dim)[None]
    S_pred = psd_factor(pred.xi_cov[None], "predicted joint covariance")
    ll, _, _ = _innovation_rows(pred.xi_mean[None], S_pred, y, measurement_map, _r_factors(R)[0])
    return float(ll[0])


def update_weights_log(mu_prev, log_lambdas, floor: float = DEFAULT_WEIGHT_FLOOR) -> np.ndarray:
    """Bayes update of the location probabilities from log evidences; stacks
    (R, M) of weights and log evidences are updated one run (row) at a time."""
    mu, ll = np.asarray(mu_prev, dtype=float), np.asarray(log_lambdas, dtype=float)
    if mu.ndim != 2:
        mu, ll = mu.reshape(-1), ll.reshape(-1)
    if mu.shape != ll.shape:
        raise ContractError("weights and likelihoods must have equal length")
    if np.any(mu < 0.0) or np.any(np.abs(mu.sum(axis=-1) - 1.0) > 1e-12):
        raise ContractError(f"weights must form a simplex, got sum {mu.sum(axis=-1)!r}")
    with np.errstate(divide="ignore"):
        log_post = ll + np.log(mu)
    finite = np.isfinite(log_post)
    if not finite.any(axis=-1).all():
        raise DegenerateEvidenceError("all hypotheses received zero evidence")
    top = np.max(np.where(finite, log_post, -np.inf), axis=-1, keepdims=True)
    shifted = np.where(finite, np.exp(log_post - top), 0.0)
    mu_new = shifted / shifted.sum(axis=-1, keepdims=True)
    if floor > 0.0:
        mu_new = np.maximum(mu_new, floor)
        mu_new = mu_new / mu_new.sum(axis=-1, keepdims=True)
    return mu_new


def ssue_step(bank: HypothesisBank, y, model: SystemModel,
              opts: NewtonOptions = NewtonOptions(), step: int | None = None) -> StepResult:
    """One full filter cycle: per-hypothesis predict / likelihood / MAP update,
    then weight update, location identification and fusion.

    The likelihood is evaluated on the predicted belief, so it is independent
    of the MAP update outcome.  One run (B = M rows) of the stacked kernel.
    """
    try:
        if bank.M != model.M:
            raise ContractError(f"bank has {bank.M} hypotheses, model has {model.M} locations")
        if bank.xi_means.shape[1] != model.n + 1:
            raise ContractError(f"bank beliefs differ from the model's state dimension {model.n}")
        y = _measurement_vector(y, model.map.output_dim)
        xi, P, mu, ll, _, identified, upd = _step_rows(
            bank.xi_means[None], bank.xi_covs[None], bank.weights[None], y[None], model, opts)
    except (ContractError, NumericalFailureError) as exc:
        if step is not None:
            exc.context.setdefault("step", step)
        raise
    new_bank = HypothesisBank(xi[0], P[0], mu[0])
    return StepResult(new_bank, fuse(new_bank), int(identified[0]), ll[0], _reports(*upd[2:]))


def ekf_step(mean, cov, y, model: SystemModel) -> tuple[np.ndarray, np.ndarray]:
    """Extended Kalman filter step on the nominal model (perturbation ignored).

    Also steps R runs at once: means (R, n), covariances (R, n, n), measurements (R, p).
    """
    mean, cov = np.asarray(mean, dtype=float), np.asarray(cov, dtype=float)
    y = np.asarray(y, dtype=float) if mean.ndim > 1 else _measurement_vector(y, model.p)
    m_pred = _mv(model.A, mean)
    P_pred = symmetrize(model.A @ cov @ model.A.T + model.Q)
    C = _map_call(model.map.jacobian, m_pred, (model.p, model.n), "jacobian")
    LS_inv = np.linalg.inv(psd_factor(C @ P_pred @ np.swapaxes(C, -1, -2) + model.R,
                                      "EKF innovation covariance"))
    K = P_pred @ np.swapaxes(LS_inv @ C, -1, -2) @ LS_inv
    nu = y - _map_call(model.map.evaluate, m_pred, (model.p,), "evaluate")
    return m_pred + _mv(K, nu), symmetrize((np.eye(model.n) - K @ C) @ P_pred)

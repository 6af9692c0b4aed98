"""Multi-hypothesis joint state/perturbation filter and the EKF baseline.

One filter step runs, per candidate location: a prediction of the joint
[delta; x] belief through the perturbed dynamics and an iterative MAP
measurement update (Gauss-Newton on the negative log posterior, i.e. the
iterated EKF, stopped by the module constants ``DECREMENT_TOL`` and
``MAX_ITERATIONS``) whose first round, at the predicted mean, also gives the
innovation likelihood.  Location probabilities are then reweighted by the
likelihoods and the bank is collapsed to a fused estimate.

One stacked kernel, ``_step_rows``, does all of this for B = runs x M rows at
once.  An update round works on all rows still in its working set, and a
finished row takes a zero step and keeps its iterate; a large batch drops its
finished rows once they are half the set.  Rows never mix, so a run's numbers
are bit-identical alone or in a batch.

The kernel has two entries: :func:`ssue_step` advances one run's bank by one
measurement, and :func:`ssue.sim.estimate_batch` advances many runs of one
model together.  Between steps each row's covariance is the square-root factor
S (S S^T = P) that the bank stores, so no step factors its input.

Likelihoods are handled in log domain throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .belief import HypothesisBank, JointBelief, fuse, psd_factor, symmetrize
from .errors import ContractError, NumericalFailureError
from .model import SystemModel

LINE_SEARCH_CONTRACTION = 0.5
LINE_SEARCH_MAX_HALVINGS = 20
DECREMENT_TOL = 1e-12  # Newton decrement |g^T d| at which a MAP update stops, in cost (chi^2) units
MAX_ITERATIONS = 10  # Gauss-Newton steps after which a MAP update stops unconverged
GATHER_MIN_ROWS = 16  # fewer finished rows are carried through a MAP round, not gathered out
WEIGHT_FLOOR = 1e-12


@dataclass(frozen=True)
class UpdateReport:
    """Diagnostics of one MAP update.

    ``converged`` means the update took a step whose Newton decrement |g^T d|,
    its predicted cost decrease, was below ``DECREMENT_TOL``; hitting the
    iteration cap ``MAX_ITERATIONS``, or the backtracking search finding no
    non-increasing step, leaves it False.
    """

    iterations_used: int
    final_cost: float
    cost_trajectory: tuple[float, ...]
    converged: bool


@dataclass(frozen=True)
class StepResult:
    """Output of one full filter step.  The fused belief and the update reports are
    derived on first read, from the bank and from the kernel's report rows
    ``report_rows`` (iterations, cost trajectories, converged flags)."""

    bank: HypothesisBank
    identified_index: int
    log_lambdas: np.ndarray
    report_rows: tuple = field(repr=False, compare=False)

    @cached_property
    def fused(self) -> JointBelief:
        return fuse(self.bank)

    @cached_property
    def reports(self) -> tuple[UpdateReport, ...]:
        return _reports(*self.report_rows)


def initial_bank(model: SystemModel) -> HypothesisBank:
    """Uniform-weight bank: delta at the domain hull midpoint with the hull
    half-width as standard deviation, state at zero with covariance P0; the
    factor is block diagonal, [max(half-width, 1e-6)] and ``model.P0_factor``."""
    lo, hi = model.domain.hull()
    half = 0.5 * (hi - lo)
    xi_factor = np.zeros((model.n + 1, model.n + 1))
    xi_factor[0, 0] = max(half, 1e-6)
    xi_factor[1:, 1:] = model.P0_factor
    xi_mean = np.concatenate(([0.5 * (lo + hi)], np.zeros(model.n)))
    return HypothesisBank(np.tile(xi_mean, (model.M, 1)), np.tile(xi_factor, (model.M, 1, 1)),
                          np.full(model.M, 1.0 / model.M))


def _r_whitener(model: SystemModel) -> np.ndarray:
    """The model's R^{-1/2}, which only a positive definite R has."""
    if model.R_whitener is None:
        raise ContractError("measurement noise covariance R is not positive definite")
    return model.R_whitener


def _checked(a, shape: tuple, name: str) -> np.ndarray:
    """``a`` as a float array of ``shape`` with no NaN or inf entry; else a
    :class:`ContractError` naming it."""
    a = np.asarray(a, dtype=float)
    if a.shape != shape:
        raise ContractError(f"{name} must have shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ContractError(f"{name} has non-finite entries: {a}")
    return a


def _measurements(y, shape: tuple) -> np.ndarray:
    """y checked as (p,) for one run or (R, p) for a stack of runs; one run's measurement
    may come in any shape of p entries."""
    y = np.asarray(y, dtype=float)
    return _checked(y.reshape(-1) if len(shape) == 1 else y, shape, "measurement")


# Stacked stages over rows (leading axis); a failing row is named as ``hypothesis``.

def _map_call(fn, X: np.ndarray, tail: tuple, name: str) -> np.ndarray:
    """One measurement-map call on a state stack, checked against the stack contract."""
    out = np.asarray(fn(X), dtype=float)
    if out.shape != X.shape[:-1] + tail:
        raise ContractError(f"measurement map {name} returned shape {out.shape}, "
                            f"not {X.shape[:-1] + tail}")
    return out


def _jacobian(measurement_map, X: np.ndarray, p: int, rows=slice(None)) -> np.ndarray:
    """The map's Jacobian at states X (B, n) the update keeps (predicted means and accepted
    iterates, never a line-search trial point); a non-finite one is a numerical failure
    naming its row, through ``rows`` for a working set, as ``hypothesis``."""
    C = _map_call(measurement_map.jacobian, X, (p, X.shape[-1]), "jacobian")
    if not np.isfinite(C).all():
        bad = np.flatnonzero(~np.isfinite(C).all(axis=(-2, -1)))[0]
        row = bad if isinstance(rows, slice) else rows[bad]
        raise NumericalFailureError(f"measurement Jacobian is not finite at state {X[bad]}",
                                    context={"hypothesis": int(row)})
    return C


@cache
def _upper(c: int) -> np.ndarray:
    """Read-only mask of the upper triangle of a c x c matrix."""
    mask = np.triu(np.ones((c, c), dtype=bool))
    mask.setflags(write=False)
    return mask


def _qr_root(top, bottom):
    """Upper triangular U with U^T U = T^T T + [0, D]^T [0, D], T = ``top`` (..., k, c) and
    D = ``bottom`` (..., m, j) filling the last j columns: one stacked QR of [T; [0, D]],
    whose raw form holds U, transposed, above its Householder vectors."""
    k, c = top.shape[-2:]
    stack = np.zeros(top.shape[:-2] + (k + bottom.shape[-2], c))
    stack[..., :k, :] = top
    stack[..., k:, c - bottom.shape[-1]:] = bottom
    h = np.linalg.qr(stack, mode="raw")[0]
    return np.where(_upper(c), np.swapaxes(h, -1, -2)[..., :c, :], 0.0)


def _predict_rows(xi, S, L, A, LQ):
    """Prediction of rows (..., n+1) with covariance factors S (..., n+1, n+1) through
    x+ = (A + delta L) x + w, w ~ N(0, Q), for locations L (..., n, n) and Q^{1/2} = LQ,
    to the predicted means and factors.  The joint covariance is pushed through the
    Jacobian F = [[1, 0], [L x, A + delta L]] of [delta; x] -> [delta; x+], so the
    perturbation mean carries over exactly and its variance to rounding.  A singular Q
    is used exactly: no jitter is added."""
    delta, x = xi[..., :1], xi[..., 1:]
    A_pert = A + delta[..., None] * L
    # S_pred S_pred^T = (F S)(F S)^T + blkdiag(0, Q) with the Jacobian F = [[1, 0], [L x, A_pert]]
    S0 = S[..., :1, :]
    FS = np.concatenate([S0, np.matvec(L, x)[..., None] * S0 + A_pert @ S[..., 1:, :]], axis=-2)
    S_pred = np.swapaxes(_qr_root(np.swapaxes(FS, -1, -2), LQ.T), -1, -2)
    return np.concatenate([delta, np.matvec(A_pert, x)], axis=-1), S_pred


def _reports(iterations, costs, converged) -> tuple[UpdateReport, ...]:
    """One report per row; row b's cost trajectory is costs[:iterations[b] + 1, b]."""
    return tuple(UpdateReport(int(it), float(costs[it, b]), tuple(costs[:it + 1, b].tolist()),
                              bool(ok)) for b, (it, ok) in enumerate(zip(iterations, converged)))


def _residual(x, y, measurement_map, LR_inv):
    """Whitened residuals r = R^{-1/2} (y - h(x)) at states x (B, n)."""
    return np.matvec(LR_inv, y - _map_call(measurement_map.evaluate, x, y.shape[-1:], "evaluate"))


def _gauss_newton(G, u, r, eye):
    """Gradient g = u - G^T r of the cost ||r||^2 + ||u||^2, normal matrix I + G^T G, step d."""
    Gt = np.swapaxes(G, -1, -2)
    g = u - np.matvec(Gt, r)
    N = Gt @ G + eye
    return g, N, np.linalg.solve(N, -g[..., None])[..., 0]


def _first_round(xi_pred, S_pred, y, measurement_map, LR, LR_inv):
    """Round 0 of the update, at the predicted means (u = 0): the log innovation density
    of y, the whitened innovation r = R^{-1/2} (y - h), G = R^{-1/2} C S^x and the step.

    The innovation covariance is Sigma = C P^x C^T + R = R^{1/2} (I + G G^T) R^{T/2}, so
    by the matrix determinant lemma log det Sigma = log det R + log det(I + G^T G), and by
    Woodbury's identity nu^T Sigma^{-1} nu = ||r - G d||^2 + ||d||^2 for round 0's step d."""
    x, p = xi_pred[:, 1:], y.shape[-1]
    C = _jacobian(measurement_map, x, p)
    r = _residual(x, y, measurement_map, LR_inv)
    G = LR_inv @ C @ S_pred[:, 1:]
    g, N, d = _gauss_newton(G, np.zeros_like(xi_pred), r, np.eye(xi_pred.shape[-1]))
    e = r - np.matvec(G, d)
    log_det = 2.0 * np.log(LR.diagonal()).sum() + np.linalg.slogdet(N)[1]
    ll = -0.5 * (p * np.log(2.0 * np.pi) + log_det + np.vecdot(e, e) + np.vecdot(d, d))
    bad = np.flatnonzero(~np.isfinite(ll))  # e.g. a map that gives NaN at a predicted mean
    if bad.size:
        raise NumericalFailureError(f"log-likelihood at the predicted mean is {ll[bad[0]]}",
                                    context={"hypothesis": int(bad[0])})
    return ll, r, G, g, d


def _update_rows(xi_pred, S_pred, y, measurement_map, LR, LR_inv):
    """The log innovation densities and the iterative MAP measurement updates of B
    predicted rows under the measurement map h and noise covariance R = LR LR^T.

    Each update minimizes the stacked least-squares cost

        L(u) = ||R^{-1/2} (y - h(x))||^2 + ||u||^2,   xi = xi_pred + S_pred u,

    in whitened coordinates u from the prediction u = 0, where S_pred S_pred^T = P_pred;
    for a nonsingular P_pred the prior term is ||P_pred^{-1/2} (xi - xi_pred)||^2.
    Gauss-Newton on it is the iterated EKF update (Bell & Cathey 1993), and its iterates
    do not depend on the choice of S_pred or of coordinates (Bell 1994).  The normal
    matrix I + G^T G, with G = R^{-1/2} C S^x for the state rows S^x of S_pred, is never
    singular, so a singular P_pred is used exactly: xi stays in xi_pred + range(P_pred),
    and P_pred is neither inverted nor jittered.  Every step is backtracked, halving it
    until the cost stops increasing; a row stops after the step whose Newton decrement
    |g^T d| is below ``DECREMENT_TOL``, or after ``MAX_ITERATIONS`` steps.  The posterior
    covariance is S_pred (I + G^T G)^{-1} S_pred^T with C at the last iterate; for a
    nonsingular P_pred that is the inverse Fisher information [H + P_pred^{-1}]^{-1},
    H = blkdiag(0, C^T R^{-1} C).

    The likelihood comes from round 0 (:func:`_first_round`).  Every round works on all
    working rows, where a converged or stalled row takes a zero step and keeps its iterate;
    when every searching row accepts its full step the round takes the trial wholesale, else
    the rows that refuse it backtrack.  Once half of the working rows, and
    ``GATHER_MIN_ROWS`` or more, are finished, those are dropped."""
    (B, n1), p = xi_pred.shape, y.shape[-1]
    ll, r, G, g, d = _first_round(xi_pred, S_pred, y, measurement_map, LR, LR_inv)
    u, xi, cost, S, eye = np.zeros((B, n1)), xi_pred, np.vecdot(r, r), S_pred, np.eye(n1)
    costs = np.vstack([cost, np.full((MAX_ITERATIONS, B), np.nan)])
    converged, done = np.zeros(B, bool), np.zeros(B, bool)
    rows, xi_out, G_out = slice(None), np.empty_like(xi_pred), np.empty_like(G)  # working rows
    for t in range(MAX_ITERATIONS):
        if t:
            g, _, d = _gauss_newton(G, u, r, eye)
        d = np.where(done[:, None], 0.0, d)
        step = np.matvec(S, d)  # d moves xi by S_pred d
        # the step with a decrement at rounding level is the last; its cost may rise by as much
        small = np.abs(np.vecdot(g, d)) < DECREMENT_TOL
        limit = np.where(small, cost + DECREMENT_TOL, cost)
        u0, xi0, search = u, xi, ~done
        for k in range(1 + LINE_SEARCH_MAX_HALVINGS):  # the full step, then backtracking
            u_try, xi_try = u0 + d, xi0 + step
            r_try = _residual(xi_try[:, 1:], y, measurement_map, LR_inv)
            c_try = np.vecdot(r_try, r_try) + np.vecdot(u_try, u_try)
            ok = search & (c_try <= limit)
            search &= ~ok
            if not (k or search.any()):  # every row takes its full step; a done row's is zero
                u, xi, r, cost = u_try, xi_try, r_try, c_try
                break
            keep = ok[:, None]
            u, xi, r = np.where(keep, u_try, u), np.where(keep, xi_try, xi), np.where(keep, r_try, r)
            cost = np.where(ok, c_try, cost)
            if not search.any():
                break
            d, step = LINE_SEARCH_CONTRACTION * d, LINE_SEARCH_CONTRACTION * step
        # rows with no non-increasing step keep their current iterate and stop
        moved = ~(done | search)
        costs[t + 1, rows] = np.where(moved, cost, np.nan)
        converged[rows] |= moved & small
        done |= search | small
        if not moved.any():
            break
        C = _jacobian(measurement_map, xi[:, 1:], p, rows)
        G = LR_inv @ C @ S[:, 1:]  # at every row's iterate, for the next round or the posterior
        finished = np.count_nonzero(done)
        if finished == done.size:
            break
        if finished >= max(GATHER_MIN_ROWS, done.size - finished):
            xi_out[rows], G_out[rows], live = xi, G, ~done
            rows = np.arange(B)[rows][live]
            u, xi, r, cost, G, S, y, done = (a[live] for a in (u, xi, r, cost, G, S, y, done))
    xi_out[rows], G_out[rows] = xi, G
    # U^T U = G^T G + I is the posterior information in u, so S_pred U^{-1} is the posterior factor
    S_post = S_pred @ np.linalg.inv(_qr_root(G_out, eye))
    iterations = np.count_nonzero(~np.isnan(costs[1:]), axis=0)  # the rounds a row moved in
    return ll, xi_out, S_post, (iterations, costs, converged)


def _step_rows(xi, S, mu, y, model: SystemModel):
    """The stacked kernel: one filter step of R runs of one model, from means
    (R, M, n+1), covariance factors S (R, M, n+1, n+1) with S S^T = P, weights
    (R, M), measurements (R, p), to posterior means and factors, weights, log
    likelihoods, fused means, identified indices and the :func:`_update_rows`
    report rows.  Every covariance stays PSD by construction."""
    (R_runs, M), n1 = mu.shape, xi.shape[-1]
    LR_inv = _r_whitener(model)
    Y = np.repeat(y, M, axis=0)
    try:
        xi_pred, S_pred = _predict_rows(xi, S, model.locations.entries, model.A, model.Q_factor)
        ll, xi_post, S_post, rows = _update_rows(xi_pred.reshape(-1, n1),
                                                 S_pred.reshape(-1, n1, n1), Y, model.map,
                                                 model.R_factor, LR_inv)
    except NumericalFailureError as exc:
        if "hypothesis" in exc.context:  # the failing row's position in the stack
            exc.context["hypothesis"] %= M
        raise
    ll, xi_post = ll.reshape(R_runs, M), xi_post.reshape(xi.shape)
    mu_new = _reweight(mu, ll)
    return (xi_post, S_post.reshape(S.shape), mu_new, ll,
            (mu_new[:, None, :] @ xi_post)[:, 0], mu_new.argmax(axis=-1), rows)


def _reweight(mu, ll):
    """Bayes update of the location probabilities, stacks (R, M) of weights on the
    simplex and finite log evidences, one run (row) at a time.  A zero weight has
    log -inf and gets exp(-inf) = 0; each posterior weight is then floored at
    ``WEIGHT_FLOOR`` and the row renormalized, so no hypothesis dies for good."""
    with np.errstate(divide="ignore"):
        log_post = ll + np.log(mu)
    shifted = np.exp(log_post - log_post.max(axis=-1, keepdims=True))
    mu_new = np.maximum(shifted / shifted.sum(axis=-1, keepdims=True), WEIGHT_FLOOR)
    return mu_new / mu_new.sum(axis=-1, keepdims=True)


def ssue_step(bank: HypothesisBank, y, model: SystemModel, *,
              step: int | None = None) -> StepResult:
    """One full filter cycle of one run: per hypothesis, the prediction, the innovation
    likelihood and the MAP update (:func:`_predict_rows`, :func:`_update_rows`), then the
    weight update and location identification; the fused belief and the update reports
    are derived when the result's ``fused``/``reports`` are read.

    The likelihood is evaluated on the predicted belief, so it is independent of the
    MAP update's outcome.  One run (B = M rows) of the stacked kernel; a failure carries
    ``step`` in its context.
    """
    try:
        if bank.M != model.M:
            raise ContractError(f"bank has {bank.M} hypotheses, model has {model.M} locations")
        if bank.xi_means.shape[1] != model.n + 1:
            raise ContractError(f"bank beliefs differ from the model's state dimension {model.n}")
        y = _measurements(y, (model.p,))
        xi, S, mu, ll, _, identified, rows = _step_rows(
            bank.xi_means[None], bank.xi_factors[None], bank.weights[None], y[None], model)
    except (ContractError, NumericalFailureError) as exc:
        if step is not None:
            exc.context.setdefault("step", step)
        raise
    return StepResult(HypothesisBank(xi[0], S[0], mu[0]), int(identified[0]), ll[0], rows)


def ekf_step(mean, cov, y, model: SystemModel) -> tuple[np.ndarray, np.ndarray]:
    """Extended Kalman filter step on the nominal model (perturbation ignored).

    Also steps R runs at once: means (R, n), covariances (R, n, n), measurements (R, p).
    A mean or covariance of another shape, or with a NaN or inf entry, and an R that is not
    positive definite are a :class:`ContractError`; a Jacobian that is not finite at the
    predicted mean is a :class:`NumericalFailureError`.
    """
    _r_whitener(model)  # refuses an R that is not positive definite, as every entry point does
    mean, n = np.asarray(mean, dtype=float), model.n
    runs = mean.shape[:1] if mean.ndim == 2 else ()
    mean = _checked(mean, runs + (n,), "EKF mean")
    cov = _checked(cov, runs + (n, n), "EKF covariance")
    y = _measurements(y, runs + (model.p,))
    m_pred = np.matvec(model.A, mean)
    P_pred = symmetrize(model.A @ cov @ model.A.T + model.Q)
    C = _map_call(model.map.jacobian, m_pred, (model.p, n), "jacobian")
    if not np.isfinite(C).all():
        raise NumericalFailureError("EKF measurement Jacobian is not finite at the predicted mean")
    LS_inv = np.linalg.inv(psd_factor(C @ P_pred @ np.swapaxes(C, -1, -2) + model.R,
                                      "EKF innovation covariance"))
    K = P_pred @ np.swapaxes(LS_inv @ C, -1, -2) @ LS_inv
    nu = y - _map_call(model.map.evaluate, m_pred, (model.p,), "evaluate")
    return m_pred + np.matvec(K, nu), symmetrize((np.eye(n) - K @ C) @ P_pred)

"""Truth/measurement generation, the range-sensor tracking preset, Monte Carlo.

Sampling is fully deterministic per seed: noise comes from
``numpy.random.default_rng`` (PCG64), drawn in a fixed order (process noise
then measurement noise, once per step) through Cholesky-style factors of Q
and R.  Identical seeds give bit-identical records.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, ContractError, NumericalFailureError
from .filters import _r_whitener, _step_rows, ekf_step, initial_bank
from .model import (
    LocationMatrix,
    LocationSet,
    SystemModel,
    UncertaintyDomain,
    model_from_json,
    model_to_json,
    range_sensor_map,
)

DEFAULT_SENSORS = ((-10.0, 0.0), (10.0, 0.0), (0.0, 10.0))
DEFAULT_X0 = (5.0, 5.0, 1.0, -0.5)
DEFAULT_DELTA_DOMAIN = ((-0.2, -0.01),)


@dataclass(frozen=True)
class Scenario:
    """One reproducible experiment: a model plus the hidden truth and a seed."""

    model: SystemModel
    true_delta: float
    true_loc_index: int
    x0_truth: np.ndarray
    steps: int
    seed: int
    Ts: float = 0.1

    def __post_init__(self):
        x0 = np.asarray(self.x0_truth, dtype=float).reshape(-1)
        if x0.shape != (self.model.n,):
            raise ContractError(f"x0_truth must have shape ({self.model.n},), got {x0.shape}")
        object.__setattr__(self, "true_delta", float(self.true_delta))
        for name, value in (("x0_truth", x0.tolist()), ("true_delta", self.true_delta)):
            if not np.isfinite(value).all():
                raise ContractError(f"{name} must be finite, got {value}")
        for name in ("true_loc_index", "steps", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ContractError(f"{name} must be an integer, got {value!r}")
        if not 0 <= self.true_loc_index < self.model.M:
            raise ContractError(f"true_loc_index {self.true_loc_index} out of range")
        if self.steps < 1:
            raise ContractError("steps must be >= 1")
        if not self.Ts > 0.0:
            raise ContractError("Ts must be positive")
        if self.seed < 0:
            raise ContractError("seed must be >= 0")
        x0.setflags(write=False)
        object.__setattr__(self, "x0_truth", x0)
        object.__setattr__(self, "Ts", float(self.Ts))

    def to_dict(self) -> dict:
        return {
            "model": json.loads(model_to_json(self.model)),
            "true_delta": self.true_delta,
            "true_loc_index": self.true_loc_index,
            "x0_truth": self.x0_truth.tolist(),
            "steps": self.steps,
            "seed": self.seed,
            "Ts": self.Ts,
        }

    @classmethod
    def from_dict(cls, d: dict) -> Scenario:
        """Inverse of :meth:`to_dict`."""
        return cls(model=model_from_json(json.dumps(d["model"])), true_delta=d["true_delta"],
                   true_loc_index=d["true_loc_index"], x0_truth=d["x0_truth"],
                   steps=d["steps"], seed=d["seed"], Ts=d["Ts"])

    def hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class RunRecord:
    """Everything one run produces; estimation fields are None for truth-only records."""

    scenario: Scenario | None
    truth: np.ndarray
    measurements: np.ndarray
    mu: np.ndarray | None = None
    log_lambdas: np.ndarray | None = None
    fused_means: np.ndarray | None = None
    identified: np.ndarray | None = None
    ekf_means: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @property
    def steps(self) -> int:
        return self.truth.shape[0]


def tracking_preset(Ts: float = 0.1, q: float = 0.05, r: float = 2.0,
                    sensors=DEFAULT_SENSORS, true_delta: float = -0.05,
                    true_loc_index: int = 1, x0=DEFAULT_X0, steps: int = 300,
                    seed: int = 0, delta_domain=DEFAULT_DELTA_DOMAIN,
                    P0=None) -> Scenario:
    """Planar constant-velocity target tracked by fixed range sensors.

    State is (position x, position y, velocity x, velocity y).  The three
    candidate perturbation locations touch, respectively, the position-x /
    velocity-y coupling, both position diagonal entries (the default truth),
    and the velocity-x diagonal entry.  ``q`` scales the discretized
    white-acceleration process noise, ``r`` the per-sensor range variance.
    """
    if not Ts > 0.0:
        raise ContractError("Ts must be positive")
    if q < 0.0 or not r > 0.0:
        raise ContractError("q must be >= 0 and r > 0")
    A = np.array([
        [1.0, 0.0, Ts, 0.0],
        [0.0, 1.0, 0.0, Ts],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    L1 = np.zeros((4, 4)); L1[0, 3] = 1.0
    L2 = np.zeros((4, 4)); L2[0, 0] = 1.0; L2[1, 1] = 1.0
    L3 = np.zeros((4, 4)); L3[2, 2] = 1.0
    locations = LocationSet((
        LocationMatrix(L1, label="A1"),
        LocationMatrix(L2, label="A2"),
        LocationMatrix(L3, label="A3"),
    ))
    Q = q * np.array([
        [Ts ** 3 / 3.0, 0.0, Ts ** 2 / 2.0, 0.0],
        [0.0, Ts ** 3 / 3.0, 0.0, Ts ** 2 / 2.0],
        [Ts ** 2 / 2.0, 0.0, Ts, 0.0],
        [0.0, Ts ** 2 / 2.0, 0.0, Ts],
    ])
    try:
        sensors = tuple((float(sx), float(sy)) for sx, sy in sensors)
    except (TypeError, ValueError) as exc:
        raise ContractError(f"sensors must be (sx, sy) pairs: {exc}") from exc
    R = r * np.eye(len(sensors))
    if P0 is None:
        P0 = np.diag([25.0, 25.0, 4.0, 4.0])
    measurement_spec = {"type": "range", "sensors": [list(s) for s in sensors],
                        "position_indices": [0, 1]}
    model = SystemModel(
        A=A, locations=locations, domain=UncertaintyDomain(tuple(delta_domain)),
        Q=Q, R=R, P0=np.asarray(P0, dtype=float),
        map=range_sensor_map(sensors, (0, 1), state_dim=4),
        measurement_spec=measurement_spec,
    )
    return Scenario(model=model, true_delta=true_delta, true_loc_index=true_loc_index,
                    x0_truth=np.asarray(x0, dtype=float), steps=steps, seed=seed, Ts=Ts)


def simulate(scenario: Scenario) -> RunRecord:
    """Generate the truth trajectory and measurements (no estimation).  A run
    whose state or measurement overflows is a :class:`NumericalFailureError`
    naming the first step that is not finite."""
    model = scenario.model
    n, p = model.n, model.p
    loc = model.locations[scenario.true_loc_index]
    A_true = model.A + scenario.true_delta * loc.entries
    Fq, Fr = model.Q_factor, model.R_factor
    rng = np.random.default_rng(scenario.seed)

    truth = np.empty((scenario.steps, n))
    meas = np.empty((scenario.steps, p))
    x = scenario.x0_truth.copy()
    with np.errstate(all="ignore"):  # an overflow is reported below, by its step
        for k in range(scenario.steps):
            x = A_true @ x + Fq @ rng.standard_normal(n)
            meas[k] = model.map.evaluate(x) + Fr @ rng.standard_normal(p)
            truth[k] = x
    bad = np.flatnonzero(~(np.isfinite(truth).all(axis=1) & np.isfinite(meas).all(axis=1)))
    if bad.size:
        raise NumericalFailureError(
            f"simulated state or measurement is not finite at step {bad[0]}",
            context={"step": int(bad[0]), "seed": scenario.seed})
    meta = {"seed": scenario.seed}
    try:
        meta["scenario_hash"] = scenario.hash()
    except ConfigurationError:
        pass  # hand-built measurement maps have no serializable form to hash
    return RunRecord(scenario=scenario, truth=truth, measurements=meas, meta=meta)


def run_estimation(scenario: Scenario, record: RunRecord | None = None) -> RunRecord:
    """Simulate (unless a record is supplied) and run the filter plus the EKF baseline.

    The EKF consumes the exact same measurement sequence, initialized at the
    same state mean and covariance as the filter bank (:func:`estimate_batch`).
    """
    (outcome,) = estimate_batch([scenario], [record])
    if isinstance(outcome, NumericalFailureError):
        raise outcome
    return outcome


def estimate_batch(scenarios, records=None) -> list:
    """Run the filter and the EKF over scenarios of one model as one batch, one
    stacked filter step over all B = runs x M rows per time step.  Returns per
    scenario its completed :class:`RunRecord` (``records[i]`` when given, else
    a fresh simulation) or the :class:`NumericalFailureError` that ended it.
    A failing step is redone run by run, so a failure ends only its own run,
    and each run's numbers are bit-identical to filtering it alone.  The filter
    takes no options; every run uses the constants of :mod:`ssue.filters`."""
    records = [None] * len(scenarios) if records is None else records
    if not scenarios or len(records) != len(scenarios):
        raise ContractError("a batch needs one or more scenarios and one record (or None) "
                            f"each, got {len(scenarios)} scenarios and {len(records)} records")
    model = scenarios[0].model
    if any(scn.model is not model for scn in scenarios):
        raise ContractError("the scenarios of a batch must share one model")
    _r_whitener(model)  # reject a model the filter cannot run before simulating
    outcomes = []
    for scn, rec in zip(scenarios, records):
        try:
            outcomes.append(rec if rec is not None else simulate(scn))
        except NumericalFailureError as exc:
            outcomes.append(exc)
    batch = [i for i, rec in enumerate(outcomes) if isinstance(rec, RunRecord)]
    if len({outcomes[i].measurements.shape for i in batch}) != 1:
        if batch:
            raise ContractError("the records of a batch must have equal lengths")
        return outcomes
    Y = np.stack([outcomes[i].measurements for i in batch])
    if Y.shape[2:] != (model.p,):
        raise ContractError(f"records have measurements of shape {Y.shape[1:]} (steps, p), "
                            f"the model's measurement map gives p = {model.p}")
    if not np.isfinite(Y).all():
        raise ContractError("measurement has non-finite entries",
                            context={"step": int(np.argwhere(~np.isfinite(Y))[0, 1])})
    runs, steps = Y.shape[:2]
    bank = initial_bank(model)
    state = [np.repeat(a[None], runs, 0) for a in (bank.xi_means, bank.xi_factors, bank.weights)]
    state += [np.zeros((runs, model.n)), np.repeat(model.P0[None], runs, 0)]  # the EKF's
    out = {}

    def advance(live, k):
        try:
            xi, S, mu, ll, fused, identified, _ = _step_rows(
                *(a[live] for a in state[:3]), Y[live, k], model)
            ekf = ekf_step(state[3][live], state[4][live], Y[live, k], model)
        except NumericalFailureError as exc:
            if live.size > 1:
                return np.concatenate([advance(live[j:j + 1], k) for j in range(live.size)])
            exc.context.setdefault("step", k)
            outcomes[batch[live[0]]] = exc
            return live[:0]
        for a, value in zip(state, (xi, S, mu) + ekf):
            a[live] = value
        for name, v in zip(("mu", "log_lambdas", "fused_means", "identified", "ekf_means"),
                           (mu, ll, fused, identified, ekf[0])):
            out.setdefault(name, np.empty((runs, steps) + v.shape[1:], v.dtype))[live, k] = v
        return live

    live = np.arange(runs)
    for k in range(steps):
        if live.size:
            live = advance(live, k)
    for j in live:
        for name, values in out.items():
            setattr(outcomes[batch[j]], name, values[j])
    return outcomes


@dataclass(frozen=True)
class RunMetrics:
    """One estimation run's identification and accuracy; ``to_dict`` is ``summary.json``."""

    seed: int
    steps: int
    identified: str
    success: bool
    final_mu: np.ndarray
    final_delta_hat: float
    true_delta: float
    delta_error_traj: np.ndarray
    rmse_ssue: np.ndarray
    rmse_ekf: np.ndarray

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "steps": self.steps,
            "identified": self.identified,
            "identification_correct": self.success,
            "final_mu": self.final_mu.tolist(),
            "final_delta_hat": self.final_delta_hat,
            "true_delta": self.true_delta,
            "final_delta_abs_error": float(self.delta_error_traj[-1]),
            "rmse": {"ssue": self.rmse_ssue.tolist(), "ekf": self.rmse_ekf.tolist()},
        }


@dataclass(frozen=True)
class MetricsSummary:
    """Per-run metrics plus simple aggregates over a Monte Carlo batch;
    ``to_dict`` is its ``aggregate.json``."""

    per_run: tuple[RunMetrics, ...]
    failures: tuple[tuple[int, str], ...]
    success_rate: float
    median_final_delta_error: float
    rmse_ssue_mean: np.ndarray
    rmse_ekf_mean: np.ndarray
    ssue_beats_ekf_rate: np.ndarray

    @classmethod
    def from_outcomes(cls, scenarios, outcomes) -> MetricsSummary:
        """Aggregate the :func:`estimate_batch` outcomes of ``scenarios``: the
        metrics of every completed run, and (seed, message) of every failed one."""
        per_run = tuple(run_metrics(rec) for rec in outcomes if isinstance(rec, RunRecord))
        failures = tuple((scn.seed, str(exc)) for scn, exc in zip(scenarios, outcomes)
                         if not isinstance(exc, RunRecord))
        if not per_run:
            raise NumericalFailureError("every Monte Carlo run failed",
                                        context={"failures": list(failures)})
        rmse_ssue = np.stack([r.rmse_ssue for r in per_run])
        rmse_ekf = np.stack([r.rmse_ekf for r in per_run])
        return cls(
            per_run=per_run,
            failures=failures,
            success_rate=float(np.mean([r.success for r in per_run])),
            median_final_delta_error=float(np.median([r.delta_error_traj[-1] for r in per_run])),
            rmse_ssue_mean=rmse_ssue.mean(axis=0),
            rmse_ekf_mean=rmse_ekf.mean(axis=0),
            ssue_beats_ekf_rate=np.mean(rmse_ssue < rmse_ekf, axis=0),
        )

    def to_dict(self) -> dict:
        return {
            "runs": len(self.per_run),
            "success_rate": self.success_rate,
            "median_final_delta_abs_error": self.median_final_delta_error,
            "rmse_ssue_mean": self.rmse_ssue_mean.tolist(),
            "rmse_ekf_mean": self.rmse_ekf_mean.tolist(),
            "per_run": [r.to_dict() for r in self.per_run],
            "failed_runs": [{"seed": s, "error": msg} for s, msg in self.failures],
            "ssue_beats_ekf_rate": self.ssue_beats_ekf_rate.tolist(),
        }


def run_metrics(record: RunRecord) -> RunMetrics:
    """Identification and accuracy metrics of one completed estimation run."""
    scn = record.scenario
    err_ssue = record.fused_means[:, 1:] - record.truth
    err_ekf = record.ekf_means - record.truth
    return RunMetrics(
        seed=scn.seed,
        steps=record.steps,
        identified=scn.model.locations.labels[record.identified[-1]],
        success=bool(record.identified[-1] == scn.true_loc_index),
        final_mu=record.mu[-1].copy(),
        final_delta_hat=float(record.fused_means[-1, 0]),
        true_delta=scn.true_delta,
        delta_error_traj=np.abs(record.fused_means[:, 0] - scn.true_delta),
        rmse_ssue=np.sqrt(np.mean(err_ssue ** 2, axis=0)),
        rmse_ekf=np.sqrt(np.mean(err_ekf ** 2, axis=0)),
    )


def monte_carlo(scenario_template: Scenario, n_runs: int, seed_base: int) -> MetricsSummary:
    """Repeat the experiment with seeds seed_base, seed_base+1, ... and aggregate.

    The runs are filtered as one batch (:func:`estimate_batch`).  Runs that die
    with a numerical failure are reported in ``failures`` rather than dropped.
    """
    if n_runs < 1:
        raise ContractError("n_runs must be >= 1")
    scenarios = [replace(scenario_template, seed=seed_base + i) for i in range(n_runs)]
    return MetricsSummary.from_outcomes(scenarios, estimate_batch(scenarios))


# ---------------------------------------------------------------------------
# Record persistence: one directory per run, CSV bodies deterministic
# (shortest round-trip floats), volatile data confined to meta.json.

def _write_csv(path: Path, header: list[str], rows) -> None:
    """Rows of Python numbers (``tolist()``), so floats are written as their repr."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _rows_by_step(*arrays):
    """Per step k, the row [k, arrays[0][k]..., arrays[1][k]..., ...] in Python numbers."""
    return ([k] + sum(row, []) for k, row in enumerate(zip(*(a.tolist() for a in arrays))))


def _weights_header(M: int) -> list[str]:
    return ["step"] + [f"mu_{i}" for i in range(M)] + [f"log_lambda_{i}" for i in range(M)]


def _estimates_header(n: int) -> list[str]:
    return (["step", "delta_hat"] + [f"xhat_{j}" for j in range(n)]
            + [f"ekf_{j}" for j in range(n)] + ["identified"])


def save_record(record: RunRecord, directory) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    n = record.truth.shape[1]
    p = record.measurements.shape[1]

    _write_csv(directory / "truth.csv", ["step"] + [f"x{j}" for j in range(n)],
               _rows_by_step(record.truth))
    _write_csv(directory / "measurements.csv", ["step"] + [f"y{j}" for j in range(p)],
               _rows_by_step(record.measurements))

    if record.mu is not None:
        _write_csv(directory / "weights.csv", _weights_header(record.mu.shape[1]),
                   _rows_by_step(record.mu, record.log_lambdas))
        _write_csv(directory / "estimates.csv", _estimates_header(n),
                   _rows_by_step(record.fused_means, record.ekf_means, record.identified[:, None]))

    meta = dict(record.meta)
    meta.setdefault("created_unix", time.time())
    if record.scenario is not None:
        meta["scenario"] = record.scenario.to_dict()
        meta["labels"] = record.scenario.model.locations.labels
    (directory / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    return directory


def load_record(directory) -> RunRecord:
    """Inverse of :func:`save_record`; a malformed ``meta.json``, cell, step count,
    ``weights.csv``/``estimates.csv`` header or a ``weights.csv`` hypothesis count other
    than the scenario's is a ConfigurationError naming the file."""
    directory = Path(directory)
    meta_path = directory / "meta.json"
    if not meta_path.exists():
        raise ContractError(f"no meta.json in {directory}")
    try:
        meta = json.loads(meta_path.read_text())
        if not isinstance(meta, dict):
            raise TypeError(f"a JSON {type(meta).__name__}, not an object")
        scenario = Scenario.from_dict(meta["scenario"]) if "scenario" in meta else None
    except (KeyError, TypeError, ValueError) as exc:  # ValueError: ssue's errors included
        raise ConfigurationError(
            f"malformed {meta_path}: {type(exc).__name__}: {exc}") from exc

    def read_csv(name, header_for=None):
        """Columns after ``step`` of ``name``, or None; ``header_for(width)`` is its header."""
        path = directory / name
        if not path.exists():
            return None
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if header_for is not None and header != header_for(len(header)):
                raise ConfigurationError(f"{path} has header {header}, "
                                         f"not {header_for(len(header))}")
            rows = []
            for row in reader:
                if not row:
                    continue
                try:
                    if len(row) != len(header):
                        raise ValueError(f"{len(row)} cells, header has {len(header)}")
                    rows.append([float(v) for v in row])
                except ValueError as exc:
                    raise ConfigurationError(
                        f"malformed {path}: line {reader.line_num}: {exc}") from exc
        data = np.array(rows, dtype=float).reshape(len(rows), len(header))
        return data[:, 1:]  # drop the step column

    truth = read_csv("truth.csv")
    meas = read_csv("measurements.csv")
    if truth is None or meas is None:
        raise ContractError(f"{directory} is missing truth.csv or measurements.csv")
    if not len(meas):
        raise ConfigurationError(f"{directory / 'measurements.csv'} holds no steps")
    n = truth.shape[1]
    weights = read_csv("weights.csv", lambda width: _weights_header((width - 1) // 2))
    estimates = read_csv("estimates.csv", lambda width: _estimates_header(n))
    for name, data in (("truth.csv", truth), ("weights.csv", weights),
                       ("estimates.csv", estimates)):
        if data is not None and len(data) != len(meas):
            raise ConfigurationError(f"{directory / name} has {len(data)} steps, "
                                     f"measurements.csv has {len(meas)}")

    if weights is not None and scenario is not None and weights.shape[1] // 2 != scenario.model.M:
        raise ConfigurationError(f"{directory / 'weights.csv'} has {weights.shape[1] // 2} "
                                 f"hypotheses, the scenario has {scenario.model.M} locations")
    record = RunRecord(scenario=scenario, truth=truth, measurements=meas, meta=meta)
    if weights is not None:
        M = weights.shape[1] // 2
        record.mu = weights[:, :M]
        record.log_lambdas = weights[:, M:]
    if estimates is not None:
        record.fused_means = estimates[:, :n + 1]
        record.ekf_means = estimates[:, n + 1:2 * n + 1]
        record.identified = estimates[:, -1].astype(int)
    return record

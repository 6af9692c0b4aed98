"""System description: perturbed linear dynamics with a (possibly nonlinear) sensor.

The process model is ``x_{k+1} = (A + delta * L) x_k + w_k`` where ``delta`` is an
unknown scalar confined to a set of intervals and ``L`` is one 0/1 "location"
matrix out of a finite candidate set marking which entries of ``A`` the
perturbation touches.  Measurements are ``y_k = h(x_k) + v_k`` with ``h``
wrapped in a :class:`MeasurementMap`.

All types here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .belief import psd_factor
from .errors import ConfigurationError, NumericalFailureError, SingularGradientError

_SYMMETRY_TOL = 1e-10


def _as_matrix(value, name: str) -> np.ndarray:
    m = np.array(value, dtype=float)  # a copy: freezing it leaves the caller's array writable
    if m.ndim != 2:
        raise ConfigurationError(f"{name} must be a 2-d matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ConfigurationError(f"{name} has non-finite entries")
    return m


@dataclass(frozen=True)
class LocationMatrix:
    """Binary n x n matrix marking which entries of A are perturbed."""

    entries: np.ndarray
    label: str = ""

    def __post_init__(self):
        entries = _as_matrix(self.entries, "location matrix")
        if entries.shape[0] != entries.shape[1]:
            raise ConfigurationError(f"location matrix must be square, got {entries.shape}")
        if not np.all((entries == 0.0) | (entries == 1.0)):
            raise ConfigurationError("location matrix entries must be exactly 0 or 1")
        if not np.any(entries):
            raise ConfigurationError(
                "location matrix must have at least one nonzero entry; "
                "an all-zero location makes the perturbation unidentifiable"
            )
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class LocationSet:
    """Ordered candidate location matrices (the hypothesis index set), stacked in ``entries``."""

    members: tuple[LocationMatrix, ...]
    entries: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ConfigurationError("location set must contain at least one matrix")
        n = members[0].n
        for m in members:
            if m.n != n:
                raise ConfigurationError("all location matrices must share one dimension")
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if np.array_equal(members[i].entries, members[j].entries):
                    raise ConfigurationError(
                        f"location matrices {i} and {j} are identical; members must be distinct"
                    )
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "entries", np.stack([m.entries for m in members]))
        self.entries.setflags(write=False)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i) -> LocationMatrix:
        return self.members[i]

    @property
    def n(self) -> int:
        return self.members[0].n

    @property
    def labels(self) -> list[str]:
        return [m.label or f"A{i + 1}" for i, m in enumerate(self.members)]


@dataclass(frozen=True)
class UncertaintyDomain:
    """Admissible values of the scalar perturbation: a union of closed intervals."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ivals = []
        for iv in self.intervals:
            lo, hi = float(iv[0]), float(iv[1])
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ConfigurationError(f"interval bounds must be finite, got [{lo}, {hi}]")
            if lo > hi:
                raise ConfigurationError(f"interval [{lo}, {hi}] has lo > hi")
            ivals.append((lo, hi))
        if not ivals:
            raise ConfigurationError("uncertainty domain needs at least one interval")
        object.__setattr__(self, "intervals", tuple(ivals))

    def hull(self) -> tuple[float, float]:
        """Smallest single interval containing the whole domain."""
        return (min(lo for lo, _ in self.intervals), max(hi for _, hi in self.intervals))


@dataclass(frozen=True)
class MeasurementMap:
    """Measurement function h with its Jacobian.

    Each function takes a state ``(n,)`` or a stack of states ``(..., n)``
    and works row by row: ``evaluate`` gives h(x) ``(..., p)`` and
    ``jacobian`` the partials ``(..., p, n)``.  The filter calls each once per
    stage for all rows and rejects a wrongly shaped result (``ContractError``).
    The Gauss-Newton MAP update needs no second derivatives.
    """

    output_dim: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]


def linear_map(C) -> MeasurementMap:
    """Measurement map h(x) = C x with constant Jacobian."""
    C = _as_matrix(C, "C")
    if C.shape[0] < 1:
        raise ConfigurationError("C needs at least one row")
    p, n = C.shape
    return MeasurementMap(
        output_dim=p,
        evaluate=lambda x: (C @ np.asarray(x, dtype=float)[..., None])[..., 0],
        jacobian=lambda x: np.broadcast_to(C, np.shape(x)[:-1] + (p, n)),
    )


def range_sensor_map(sensor_positions: Sequence[Sequence[float]],
                     position_indices: tuple[int, int],
                     state_dim: int = 4) -> MeasurementMap:
    """Ranges from planar position components of the state to fixed sensors.

    Output i is the Euclidean distance between ``(x[ix], x[iy])`` and sensor i.
    The Jacobian is analytic and zero outside the position coordinates.
    Evaluating the range at a sensor position is legal (range 0); the Jacobian
    there raises :class:`SingularGradientError` because the gradient direction
    is undefined.
    """
    sensors = _as_matrix(sensor_positions, "sensor_positions")
    if sensors.shape[1] != 2 or sensors.shape[0] < 1:
        raise ConfigurationError("sensor_positions must be a non-empty list of (sx, sy) pairs")
    ix, iy = int(position_indices[0]), int(position_indices[1])
    if not (0 <= ix < state_dim and 0 <= iy < state_dim) or ix == iy:
        raise ConfigurationError(
            f"position indices {(ix, iy)} invalid for state dimension {state_dim}"
        )
    p = sensors.shape[0]

    def _offsets(x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (state_dim,):
            raise ConfigurationError(f"state must have shape (..., {state_dim}), got {x.shape}")
        dx, dy = x[..., ix, None] - sensors[:, 0], x[..., iy, None] - sensors[:, 1]
        return dx, dy, np.hypot(dx, dy)

    def evaluate(x):
        return _offsets(x)[2]

    def _guard(r, x):
        bad = r <= 0.0
        if bad.any():
            at = np.unravel_index(np.argmax(bad), bad.shape)
            raise SingularGradientError(
                f"state position coincides with sensor {at[-1]}; range gradient undefined",
                context={"sensor": int(at[-1]), "state": np.asarray(x)[at[:-1]].tolist()},
            )

    def jacobian(x):
        dx, dy, r = _offsets(x)
        _guard(r, x)
        J = np.zeros(r.shape + (state_dim,))
        J[..., ix] = dx / r
        J[..., iy] = dy / r
        return J

    return MeasurementMap(output_dim=p, evaluate=evaluate, jacobian=jacobian)


@dataclass(frozen=True)
class SystemModel:
    """Complete description of the uncertain system plus noise statistics.

    ``A`` is the nominal dynamics, ``locations`` the candidate perturbation
    locations, ``domain`` the admissible perturbation interval(s), ``Q``/``R``
    the process/measurement noise covariances, ``P0`` the initial state
    covariance, and ``map`` the measurement function.  Noise covariances are
    time-invariant.  ``Q``, ``R`` and ``P0`` must be symmetric and positive
    semidefinite (:func:`~ssue.belief.psd_factor`); a consumer that needs more
    checks that itself (the filter needs a positive definite ``R``).  The
    factors ``Q_factor``, ``R_factor`` and ``P0_factor`` (``F F^T = Q``, ``R``,
    ``P0``) are the ones :func:`~ssue.belief.psd_factor` returns, computed once here, and
    ``R_whitener`` is ``R_factor^{-1}`` (R^{-1/2}), or None when ``R`` is
    not positive definite.
    """

    A: np.ndarray
    locations: LocationSet
    domain: UncertaintyDomain
    Q: np.ndarray
    R: np.ndarray
    P0: np.ndarray
    map: MeasurementMap
    measurement_spec: Optional[dict] = field(default=None, compare=False)
    Q_factor: np.ndarray = field(init=False, repr=False, compare=False)
    R_factor: np.ndarray = field(init=False, repr=False, compare=False)
    P0_factor: np.ndarray = field(init=False, repr=False, compare=False)
    R_whitener: Optional[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        Q = _as_matrix(self.Q, "Q")
        R = _as_matrix(self.R, "R")
        P0 = _as_matrix(self.P0, "P0")
        n = A.shape[0]
        if A.shape != (n, n):
            raise ConfigurationError(f"A must be square, got {A.shape}")
        if self.locations.n != n:
            raise ConfigurationError(
                f"location matrices are {self.locations.n}x{self.locations.n}, A is {n}x{n}"
            )
        if Q.shape != (n, n) or P0.shape != (n, n):
            raise ConfigurationError("Q and P0 must match the state dimension")
        p = self.map.output_dim
        if R.shape != (p, p):
            raise ConfigurationError(f"R must be {p}x{p} to match the measurement map")
        factors = {}
        for name, m in (("Q", Q), ("R", R), ("P0", P0)):
            if np.max(np.abs(m - m.T)) > _SYMMETRY_TOL * max(1.0, np.max(np.abs(m))):
                raise ConfigurationError(f"{name} is not symmetric")
            try:
                factors[name] = psd_factor(m, name)
            except NumericalFailureError as exc:
                raise ConfigurationError(str(exc)) from None
        LR, whitener = factors["R"], None
        # psd_factor returns R's lower Cholesky factor exactly when R is positive definite
        if (LR.diagonal() > 0.0).all() and not np.triu(LR, 1).any():
            whitener = np.linalg.inv(LR)
            whitener.setflags(write=False)
        for m in (A, Q, R, P0, *factors.values()):
            m.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "P0", P0)
        object.__setattr__(self, "Q_factor", factors["Q"])
        object.__setattr__(self, "R_factor", LR)
        object.__setattr__(self, "P0_factor", factors["P0"])
        object.__setattr__(self, "R_whitener", whitener)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.map.output_dim

    @property
    def M(self) -> int:
        return len(self.locations)


def _measurement_from_spec(spec: dict, n: int) -> MeasurementMap:
    if not isinstance(spec, dict):
        raise TypeError(f"measurement must be an object, got {spec!r}")
    kind = spec.get("type")
    if kind == "linear":
        C = _as_matrix(spec["C"], "measurement C")
        if C.shape[1] != n:
            raise ConfigurationError(f"measurement C has {C.shape[1]} columns, state dim is {n}")
        return linear_map(C)
    if kind == "range":
        ix, iy = spec["position_indices"]
        return range_sensor_map(spec["sensors"], (ix, iy), state_dim=n)
    raise ConfigurationError(f"unknown measurement type {kind!r}")


def model_to_json(model: SystemModel) -> str:
    """Serialize to the documented JSON schema (indices are 0-based)."""
    if model.measurement_spec is None:
        raise ConfigurationError(
            "model carries no measurement spec; build it via model_from_json or the presets"
        )
    doc = {
        "A": model.A.tolist(),
        "locations": [m.entries.astype(int).tolist() for m in model.locations],
        "delta_domain": [list(iv) for iv in model.domain.intervals],
        "Q": model.Q.tolist(),
        "R": model.R.tolist(),
        "P0": model.P0.tolist(),
        "measurement": model.measurement_spec,
    }
    return json.dumps(doc, indent=2)


def model_from_json(text: str) -> SystemModel:
    """Inverse of :func:`model_to_json`; a missing or malformed field is a ConfigurationError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"model JSON is not valid JSON: {exc}") from exc
    try:
        A = _as_matrix(doc["A"], "A")
        locations = LocationSet(tuple(
            LocationMatrix(np.asarray(m, dtype=float), label=f"A{i + 1}")
            for i, m in enumerate(doc["locations"])
        ))
        domain = UncertaintyDomain(tuple((iv[0], iv[1]) for iv in doc["delta_domain"]))
        mmap = _measurement_from_spec(doc["measurement"], A.shape[0])
        return SystemModel(
            A=A, locations=locations, domain=domain,
            Q=_as_matrix(doc["Q"], "Q"), R=_as_matrix(doc["R"], "R"),
            P0=_as_matrix(doc["P0"], "P0"), map=mmap,
            measurement_spec=doc["measurement"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(f"model JSON field missing or malformed: "
                                 f"{type(exc).__name__}: {exc}") from exc

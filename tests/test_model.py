import dataclasses
import json

import numpy as np
import numpy.testing as npt
import pytest

from ssue import (
    ConfigurationError,
    LocationMatrix,
    LocationSet,
    SingularGradientError,
    UncertaintyDomain,
    linear_map,
    model_from_json,
    model_to_json,
    range_sensor_map,
    tracking_preset,
)


def fd_jacobian(measurement_map, x, h=1e-6):
    """Central-difference oracle for the analytic Jacobians."""
    x = np.asarray(x, dtype=float)
    p = measurement_map.output_dim
    J = np.empty((p, x.size))
    for j in range(x.size):
        e = np.zeros(x.size)
        e[j] = h * (1.0 + abs(x[j]))
        J[:, j] = (measurement_map.evaluate(x + e) - measurement_map.evaluate(x - e)) / (2 * e[j])
    return J


class TestLinearMap:
    def test_identity_1x1(self):
        m = linear_map([[1.0]])
        npt.assert_array_equal(m.evaluate(np.array([3.0])), [3.0])
        npt.assert_array_equal(m.jacobian(np.array([3.0])), [[1.0]])

    def test_identity_2x2(self):
        m = linear_map(np.eye(2))
        npt.assert_array_equal(m.evaluate(np.array([2.0, -1.0])), [2.0, -1.0])

    def test_row_map_matches_finite_differences(self):
        m = linear_map([[1.0, 2.0]])
        x = np.array([1.0, 1.0])
        npt.assert_array_equal(m.evaluate(x), [3.0])
        npt.assert_allclose(m.jacobian(x), fd_jacobian(m, x), rtol=1e-5)

    def test_jacobian_state_independent(self, rng):
        m = linear_map(rng.normal(size=(3, 4)))
        x1, x2 = rng.normal(size=4), rng.normal(size=4)
        npt.assert_array_equal(m.jacobian(x1), m.jacobian(x2))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ConfigurationError):
            linear_map(np.zeros((0, 2)))


class TestRangeSensorMap:
    def test_hand_computed_range_and_gradient(self):
        m = range_sensor_map([(0.0, 0.0)], (0, 1), state_dim=2)
        x = np.array([3.0, 4.0])
        npt.assert_allclose(m.evaluate(x), [5.0])
        npt.assert_allclose(m.jacobian(x), [[0.6, 0.8]])

    def test_coincident_sensor_gradient_raises(self):
        m = range_sensor_map([(1.0, 1.0)], (0, 1), state_dim=2)
        x = np.array([1.0, 1.0])
        npt.assert_array_equal(m.evaluate(x), [0.0])  # the range itself is defined
        with pytest.raises(SingularGradientError):
            m.jacobian(x)

    def test_jacobian_matches_finite_differences_at_100_points(self, rng):
        sensors = [(-10.0, 0.0), (10.0, 0.0), (0.0, 10.0)]
        m = range_sensor_map(sensors, (0, 1), state_dim=4)
        for _ in range(100):
            x = rng.uniform(-20, 20, size=4)
            if min(np.hypot(x[0] - sx, x[1] - sy) for sx, sy in sensors) < 1e-3:
                continue
            npt.assert_allclose(m.jacobian(x), fd_jacobian(m, x), rtol=1e-5, atol=1e-8)

    def test_translation_invariance_and_nonnegativity(self, rng):
        shift = rng.normal(size=2)
        sensors = [(-3.0, 1.0), (4.0, 4.0)]
        shifted = [(sx + shift[0], sy + shift[1]) for sx, sy in sensors]
        m0 = range_sensor_map(sensors, (0, 1), state_dim=2)
        m1 = range_sensor_map(shifted, (0, 1), state_dim=2)
        for _ in range(25):
            x = rng.normal(size=2) * 5
            r = m0.evaluate(x)
            assert np.all(r >= 0)
            npt.assert_allclose(r, m1.evaluate(x + shift), rtol=1e-12)

    def test_bad_indices_rejected(self):
        with pytest.raises(ConfigurationError):
            range_sensor_map([(0.0, 0.0)], (0, 0), state_dim=4)
        with pytest.raises(ConfigurationError):
            range_sensor_map([(0.0, 0.0)], (0, 9), state_dim=4)
        with pytest.raises(ConfigurationError):
            range_sensor_map([], (0, 1), state_dim=4)


class TestLocationTypes:
    def test_entries_must_be_binary(self):
        with pytest.raises(ConfigurationError):
            LocationMatrix(np.array([[0.5, 0.0], [0.0, 0.0]]))

    def test_all_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            LocationMatrix(np.zeros((2, 2)))

    def test_members_must_be_distinct(self):
        a = LocationMatrix(np.eye(2))
        b = LocationMatrix(np.eye(2))
        with pytest.raises(ConfigurationError):
            LocationSet((a, b))

    def test_labels_default(self):
        s = LocationSet((LocationMatrix(np.eye(2)), LocationMatrix(np.diag([1.0, 0.0]))))
        assert s.labels == ["A1", "A2"]

    def test_set_stacks_its_entries_read_only(self):
        s = LocationSet((LocationMatrix(np.eye(2)), LocationMatrix(np.diag([1.0, 0.0]))))
        npt.assert_array_equal(s.entries, [np.eye(2), np.diag([1.0, 0.0])])
        with pytest.raises(ValueError, match="read-only"):
            s.entries[0, 0, 0] = 0.0

    def test_domain_validation(self):
        with pytest.raises(ConfigurationError):
            UncertaintyDomain(((0.2, 0.1),))
        with pytest.raises(ConfigurationError):
            UncertaintyDomain(((0.0, np.inf),))
        d = UncertaintyDomain(((-0.2, -0.1), (0.1, 0.3)))
        assert d.hull() == (-0.2, 0.3)


def with_measurement(model, spec):
    """``model`` read back from its JSON with ``spec`` as its measurement."""
    doc = json.loads(model_to_json(model))
    doc["measurement"] = spec
    return model_from_json(json.dumps(doc))


@pytest.mark.parametrize("build, named", [
    (lambda model: LocationSet(()), "location set must contain at least one matrix"),
    (lambda model: LocationSet((LocationMatrix(np.eye(2)), LocationMatrix(np.eye(3)))),
     "all location matrices must share one dimension"),
    (lambda model: LocationMatrix(np.ones((2, 3))), r"location matrix must be square, got \(2, 3\)"),
    (lambda model: UncertaintyDomain(()), "uncertainty domain needs at least one interval"),
    (lambda model: model_to_json(dataclasses.replace(model, measurement_spec=None)),
     "model carries no measurement spec"),
    (lambda model: model_from_json("{bad"), "model JSON is not valid JSON"),
    (lambda model: with_measurement(model, {"type": "sonar"}), "unknown measurement type 'sonar'"),
    (lambda model: with_measurement(model, {"type": "linear", "C": [[1.0, 0.0, 0.0]]}),
     "measurement C has 3 columns, state dim is 4"),
    (lambda model: dataclasses.replace(model, A=np.ones((3, 4))), r"A must be square, got \(3, 4\)"),
    (lambda model: dataclasses.replace(model, R=np.eye(2)),
     "R must be 3x3 to match the measurement map"),
], ids=["empty_location_set", "mixed_location_sizes", "non_square_location", "empty_domain",
        "to_json_without_spec", "json_syntax", "sonar_measurement", "C_columns", "A_not_square",
        "R_size"])
def test_configuration_error_names_its_field(tracking_scenario, build, named):
    with pytest.raises(ConfigurationError, match=named):
        build(tracking_scenario.model)


class TestModelCovariances:
    """SystemModel accepts symmetric PSD Q, R and P0 and refuses anything else by name."""

    def test_tracking_preset_constructs(self):
        assert tracking_preset().model.n == 4

    def test_asymmetric_Q_rejected(self, tracking_scenario):
        Q = tracking_scenario.model.Q.copy()
        Q[0, 1] = 0.5  # break symmetry
        with pytest.raises(ConfigurationError, match="Q is not symmetric"):
            dataclasses.replace(tracking_scenario.model, Q=Q)

    def test_indefinite_R_rejected(self, tracking_scenario):
        R = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ConfigurationError, match=r"\bR\b"):
            dataclasses.replace(tracking_scenario.model, R=R)

    @pytest.mark.parametrize("name", ["R", "P0"])
    def test_zero_covariance_constructs(self, tracking_scenario, name):
        zero = np.zeros_like(getattr(tracking_scenario.model, name))
        model = dataclasses.replace(tracking_scenario.model, **{name: zero})
        npt.assert_array_equal(getattr(model, name), zero)


class TestCallerArrays:
    """Constructors keep read-only copies: the caller's arrays stay writable, and
    writing to them leaves the constructed object as it was."""

    def test_model_copies_its_matrices(self, tracking_scenario):
        model = tracking_scenario.model
        Q = model.Q.copy()
        replaced = dataclasses.replace(model, Q=Q)
        Q[0, 0] = 1.0
        npt.assert_array_equal(replaced.Q, model.Q)
        with pytest.raises(ValueError, match="read-only"):
            replaced.Q[0, 0] = 1.0

    def test_location_matrix_copies_its_entries(self):
        L = np.eye(2)
        loc = LocationMatrix(L)
        L[1, 1] = 0.0
        npt.assert_array_equal(loc.entries, np.eye(2))

    def test_maps_copy_their_constants(self):
        C, sensors = np.eye(2), np.array([[10.0, 0.0], [0.0, 10.0]])
        linear, ranges = linear_map(C), range_sensor_map(sensors, (0, 1), state_dim=2)
        C[0, 0], sensors[0, 0] = 5.0, 3.0
        npt.assert_array_equal(linear.evaluate(np.ones(2)), [1.0, 1.0])
        npt.assert_allclose(ranges.evaluate(np.zeros(2)), [10.0, 10.0])


class TestModelJson:
    def test_tracking_preset_round_trip(self, tracking_scenario):
        text = model_to_json(tracking_scenario.model)
        model = model_from_json(text)
        npt.assert_array_equal(model.A, tracking_scenario.model.A)
        npt.assert_array_equal(model.Q, tracking_scenario.model.Q)
        npt.assert_array_equal(model.R, tracking_scenario.model.R)
        assert model.M == 3
        assert model.domain.intervals == tracking_scenario.model.domain.intervals
        x = np.array([1.0, 2.0, 0.3, -0.1])
        npt.assert_allclose(model.map.evaluate(x), tracking_scenario.model.map.evaluate(x))

    def test_linear_round_trip(self):
        doc = {
            "A": [[1.0, 0.1], [0.0, 1.0]],
            "locations": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
            "delta_domain": [[-0.1, -0.1]],
            "Q": [[0.01, 0.0], [0.0, 0.01]],
            "R": [[1.0]],
            "P0": [[1.0, 0.0], [0.0, 1.0]],
            "measurement": {"type": "linear", "C": [[1.0, 0.0]]},
        }
        model = model_from_json(json.dumps(doc))
        assert model.p == 1 and model.n == 2 and model.M == 2
        round_tripped = json.loads(model_to_json(model))
        assert round_tripped == doc

    def test_missing_field_is_config_error(self):
        with pytest.raises(ConfigurationError):
            model_from_json(json.dumps({"A": [[1.0]]}))

    @pytest.mark.parametrize("field, value", [("A", "x"), ("delta_domain", [5]),
                                              ("measurement", 5)],
                             ids=["A_not_numeric", "interval_not_a_pair",
                                  "measurement_not_an_object"])
    def test_malformed_field_is_config_error(self, tracking_scenario, field, value):
        doc = json.loads(model_to_json(tracking_scenario.model))
        doc[field] = value
        with pytest.raises(ConfigurationError, match="model JSON field missing or malformed"):
            model_from_json(json.dumps(doc))

    def test_dimension_mismatch_is_config_error(self):
        doc = {
            "A": [[1.0, 0.0], [0.0, 1.0]],
            "locations": [[[1, 0], [0, 0]]],
            "delta_domain": [[-0.1, 0.1]],
            "Q": [[0.01]],
            "R": [[1.0]],
            "P0": [[1.0, 0.0], [0.0, 1.0]],
            "measurement": {"type": "linear", "C": [[1.0, 0.0]]},
        }
        with pytest.raises(ConfigurationError):
            model_from_json(json.dumps(doc))


class TestStackContract:
    """Maps take a stack of states (..., n); each row must come out exactly as
    the single-state call gives it, since the filter stacks hypotheses and runs."""

    @pytest.fixture(params=["linear", "range"])
    def mmap(self, request, rng):
        if request.param == "linear":
            return linear_map(rng.normal(size=(3, 4)))
        return range_sensor_map([(-10.0, 0.0), (10.0, 0.0), (0.0, 10.0)], (0, 1), state_dim=4)

    @pytest.mark.parametrize("name", ["evaluate", "jacobian"])
    def test_stack_equals_row_by_row_bit_for_bit(self, mmap, name, rng):
        X = rng.normal(size=(7, 4)) * 5.0
        fn = getattr(mmap, name)
        stacked = fn(X)
        rows = np.stack([fn(x) for x in X])
        assert stacked.shape == rows.shape == (7,) + rows.shape[1:]
        npt.assert_array_equal(stacked, rows)
        npt.assert_array_equal(fn(X.reshape(7, 1, 4)), rows[:, None])

    def test_coincident_sensor_in_a_stack_raises(self):
        m = range_sensor_map([(0.0, 0.0), (3.0, 4.0)], (0, 1), state_dim=2)
        X = np.array([[1.0, 1.0], [3.0, 4.0], [2.0, 2.0]])
        npt.assert_array_equal(m.evaluate(X)[1], [5.0, 0.0])
        with pytest.raises(SingularGradientError) as info:
            m.jacobian(X)
        assert info.value.context == {"sensor": 1, "state": [3.0, 4.0]}

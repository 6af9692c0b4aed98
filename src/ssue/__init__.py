"""Simultaneous state and uncertainty estimation.

Multi-hypothesis Bayesian estimation of a linear system's state together with
a scalar parameter perturbation and the binary "location" matrix marking
where the perturbation enters the dynamics, plus observability testing,
consistency diagnostics and a seeded tracking simulation harness.
"""

from .analysis import (
    StackedOutputModel,
    kl_separation,
    linearized_C,
    loglik_ratio_trajectory,
    output_covariance,
)
from .belief import (
    HypothesisBank,
    JointBelief,
    fuse,
)
from .errors import (
    ConfigurationError,
    ContractError,
    ExcitationError,
    NoMatchError,
    NumericalFailureError,
    SingularGradientError,
)
from .filters import (
    StepResult,
    UpdateReport,
    ekf_step,
    initial_bank,
    ssue_step,
)
from .model import (
    LocationMatrix,
    LocationSet,
    MeasurementMap,
    SystemModel,
    UncertaintyDomain,
    linear_map,
    model_from_json,
    model_to_json,
    range_sensor_map,
)
from .observability import (
    DeltaGrid,
    ObservabilityReport,
    ReconstructionResult,
    pairwise_rank_test,
    reconstruct,
    stack_observability,
)
from .sim import (
    MetricsSummary,
    RunMetrics,
    RunRecord,
    Scenario,
    estimate_batch,
    load_record,
    monte_carlo,
    run_estimation,
    run_metrics,
    save_record,
    simulate,
    tracking_preset,
)

__version__ = "0.1.0"

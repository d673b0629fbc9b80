"""Soft rod dynamics, geometric tracking control, and Lie-group state estimation."""

from .control import (
    GainProfile,
    TrackingBasinReport,
    TrackingErrors,
    TrajectoryPoint,
    check_tracking_basin,
    feedforward_transform,
    lyapunov_value,
    tracking_errors,
    virtual_inputs,
)
from .discretize import (
    CflReport,
    IntegratorConfig,
    check_cfl,
    d_ds,
    step,
    step_coupled,
)
from .estimate import (
    CovarianceBlowup,
    EstimatorState,
    LinearizedOperator,
    NoiseModel,
    ekf_step,
    filter_update,
    linearize_dynamics,
    regularized_gain,
    riccati_step,
)
from .geometry import (
    NearPiRotation,
    NotSkewSymmetric,
    SingularMatrix,
    axial,
    c_matrix,
    exp_so3,
    hat,
    log_so3,
    project_so3,
    rotation_error,
    vee,
)
from .harness import (
    MetricsRecord,
    RunConfig,
    RunResult,
    Snapshot,
    SwingTrajectory,
    emit_csv,
    load_config,
    run_closed_loop,
)
from .rod import (
    Grid,
    NonFiniteState,
    RodParams,
    RodState,
    StateRates,
    Wrench,
    dynamics_rhs,
    make_initial_state,
    strain_profile,
    strains,
)

__version__ = "0.1.0"

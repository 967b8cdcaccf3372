"""Model-predictive steering of a tendon-driven needle.

Public surface: the bilinear tip kinematics, the tension mapping, the
box-constrained optimizer, the receding-horizon controller, reference
generators, the simulation harness and the calibration pipeline.
"""

from .calibration import CalibrationResult, CalibrationRun, calibrate
from .errors import (
    DegenerateFitError,
    InvalidConfigError,
    InvalidInputError,
    NeedleMpcError,
    NumericalFailureError,
    OutOfRangeError,
    SchemaError,
)
from .harness import (
    OpenLoopResult,
    PlantConfig,
    RunConfig,
    ScenarioResult,
    StepRecord,
    Summary,
    compute_metrics,
    run_closed_loop,
    run_open_loop,
)
from .kinematics import (
    NeedleState,
    SystemMatrices,
    VirtualInput,
    derivative,
    rollout,
    step_euler,
    step_exact,
    system_matrices,
)
from .mapping import (
    InverseMapResult,
    TendonCommand,
    TendonGeometry,
    curvature_of_tension,
    estimate_curvature,
    fit_gain,
    forward_map,
    inverse_map,
    rates_from_command,
)
from .mpc import (
    HorizonSolution,
    MpcConfig,
    RecedingHorizonController,
    horizon_cost,
    solve_horizon,
)
from .optimizer import BoxNlp, MinimizeResult, gradient_check, minimize
from .references import (
    FixedTarget,
    Helix,
    Replay,
    ReferenceSpec,
    SharpTurn,
    Sinusoidal,
    WaypointPath,
    check_path_speed,
    horizon_samples,
    sample,
)
from .scenario import (
    Scenario,
    load_preset,
    load_scenario,
    preset_names,
    scenario_from_dict,
    scenario_to_dict,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

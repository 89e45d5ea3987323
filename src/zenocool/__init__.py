"""Measurement-driven ground-state cooling of a thermal bosonic resonator.

The package simulates a harmonic resonator coupled to a three-level
ancilla whose ground state is projectively measured after every free
evolution interval. Populations evolve exactly through closed-form
per-level coefficients; a brute-force propagator oracle and a Monte Carlo
trajectory sampler validate the fast path.
"""

__version__ = "0.1.0"

from .params import HBAR, KB, PhysicalParams
from .fock import (
    DEFAULT_EPSILON_TAIL,
    DEFAULT_HARD_CAP,
    CapacityError,
    PopulationDistribution,
    ThermalSpec,
    mean_occupation,
    thermal_distribution,
    thermal_occupation,
)
from .coefficients import (
    VARIANTS,
    CoefficientTable,
    CoolingFreeReport,
    ProtectedIndex,
    build_table,
    coefficient,
    cooling_free_report,
    first_protected_index,
)
from .protocol import (
    AsymptoticReport,
    ProtocolSchedule,
    RunResult,
    Segment,
    StepRecord,
    SweepPoint,
    asymptotic_limit,
    effective_temperature,
    initial_state,
    run,
    step,
    sweep,
)
from .oracle import (
    OracleNumericalError,
    TrajectoryBatch,
    compare_random_draws,
    sample_trajectories,
    unitarity_defect,
)
from .config import (
    PRESETS,
    ConfigError,
    ExperimentConfig,
    OutputOptions,
    SegmentSpec,
    SweepOptions,
    parse_config,
    parse_config_data,
)
from .runner import (
    run_experiment,
    run_oracle_check,
    run_sweep,
    run_trajectories,
)

__all__ = [
    "HBAR", "KB", "PhysicalParams",
    "DEFAULT_EPSILON_TAIL", "DEFAULT_HARD_CAP", "CapacityError",
    "PopulationDistribution", "ThermalSpec", "mean_occupation",
    "thermal_distribution", "thermal_occupation",
    "VARIANTS", "CoefficientTable", "CoolingFreeReport", "ProtectedIndex",
    "build_table", "coefficient", "cooling_free_report",
    "first_protected_index",
    "AsymptoticReport", "ProtocolSchedule", "RunResult", "Segment",
    "StepRecord", "SweepPoint", "asymptotic_limit", "effective_temperature",
    "initial_state", "run", "step", "sweep",
    "OracleNumericalError", "TrajectoryBatch", "compare_random_draws",
    "sample_trajectories", "unitarity_defect",
    "PRESETS", "ConfigError", "ExperimentConfig", "OutputOptions",
    "SegmentSpec", "SweepOptions", "parse_config", "parse_config_data",
    "run_experiment", "run_oracle_check", "run_sweep", "run_trajectories",
    "__version__",
]

"""Simulation and certificates for diffusions whose drift and diffusion
switch among countably many regimes with state-dependent switching rates.

The pieces: coefficient/Lyapunov descriptions (model), finite truncations of
the regime chain with invariant measures and Poisson solves (markov_chain),
a deterministic hybrid Euler simulator with a regime coupling (simulator),
stability/instability certificates from averaged drift coefficients
(stability), pathwise convergence-rate estimation against an integral
envelope (rates), and scenario files plus a CLI (scenarios, cli).
"""

from .errors import (
    ConfigurationError,
    ContractError,
    DomainError,
    ErgodicityError,
    EvaluationError,
    NumericError,
    RateEstimationError,
    StructuralError,
    SwitchDiffError,
)
from .markov_chain import (
    ErgodicityDiagnostic,
    InvariantMeasure,
    PoissonSolution,
    TruncatedChain,
    birth_death_invariant,
    ergodicity_diagnostic,
    ergodicity_times,
    invariant_measure,
    solve_poisson,
    solve_poisson_integral,
    transition_matrix,
    truncate,
    write_measure_csv,
)
from .model import (
    DriftReport,
    DriftView,
    DriftViolation,
    ExactLinearization,
    LyapunovSpec,
    ModelSpec,
    RateKernel,
    ScanGrid,
    apply_full_generator,
    apply_generator_Li,
    generator_Li,
    radial_grid,
    verify_drift_condition,
)
from .rates import (
    G,
    G_inverse,
    RateEstimate,
    RateProfile,
    custom_profile,
    default_lambda_grid,
    estimate_pathwise_rate,
    identity_profile,
    power_profile,
    write_quantile_curve,
)
from .scenarios import (
    build_kernel,
    build_model,
    ScenarioBundle,
    load_scenario,
    parse_scenario,
    preset,
    preset_names,
    scenario_hash,
)
from .simulator import (
    ConvergesToZero,
    CoupledTrajectory,
    EnsembleSummary,
    FunctionalEstimate,
    Occupation,
    SimConfig,
    StayInBall,
    Trajectory,
    occupation_fraction,
    path_streams,
    run_ensemble,
    simulate,
    simulate_coupled,
    wilson_interval,
    write_trajectory_csv,
)
from .stability import (
    CriterionReport,
    KernelContinuityScan,
    LinearCriterionReport,
    LinearizationData,
    MeanDriftResult,
    MgScan,
    check_theorem_hypotheses,
    k_scan,
    linearize,
    mean_drift_criterion,
    proposition41_criterion,
    scan_kernel_continuity,
    scan_mg,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

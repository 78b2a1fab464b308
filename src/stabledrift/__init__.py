"""Drift estimation for scalar SDEs driven by heavy-tailed stable noise.

The package simulates ergodic diffusions with alpha-stable jumps, estimates
their drift nonparametrically from high-frequency observations by local
linear and kernel-ratio regression, and ships Monte Carlo experiments that
verify the estimators' rate, bias, and limit-law behavior at desk scale.
"""

from __future__ import annotations

from .errors import ConfigurationError, NumericError, ParameterError, SimulationError
from .estimate import (
    AsymptoticConstants,
    DriftEstimate,
    KernelRatioConstants,
    KernelSums,
    asymptotic_constants,
    density_estimate,
    kernel_sums,
    local_linear_drift,
    local_linear_drift_ratio,
    nadaraya_watson_drift,
    nw_asymptotic_constants,
    s_nk,
    write_drift_curve_csv,
)
from .experiments import (
    Check,
    ExperimentReport,
    ReplicateRecord,
    Schedule,
    ScheduleDiagnostics,
    config_hash,
    read_records_csv,
    run_bias_comparison,
    run_clt,
    run_consistency,
    run_lln_check,
    validate_schedule,
    write_report,
)
from .kernels import (
    Kernel,
    builtin_kernel,
    kernel_names,
    lambda_fractional_integral,
    lambda_weight_changes_sign,
    nw_fractional_integral,
)
from .models import (
    SdeModel,
    StationaryDensity,
    builtin_model,
    model_names,
    stationary_density_oracle,
    validate_model,
)
from .simulate import (
    ObservedPath,
    derive_replicate_seed,
    increment_diagnostics,
    read_path_csv,
    simulate_path,
    simulate_paths,
    write_path_csv,
)
from .stable import (
    StableParams,
    empirical_char_fn,
    hill_tail_index,
    ks_critical_value,
    sample_standard_stable,
    theoretical_char_fn,
    two_sample_ks,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConfigurationError",
    "NumericError",
    "ParameterError",
    "SimulationError",
    "StableParams",
    "sample_standard_stable",
    "theoretical_char_fn",
    "empirical_char_fn",
    "two_sample_ks",
    "ks_critical_value",
    "hill_tail_index",
    "Kernel",
    "builtin_kernel",
    "kernel_names",
    "lambda_fractional_integral",
    "lambda_weight_changes_sign",
    "nw_fractional_integral",
    "SdeModel",
    "StationaryDensity",
    "builtin_model",
    "model_names",
    "validate_model",
    "stationary_density_oracle",
    "ObservedPath",
    "simulate_path",
    "simulate_paths",
    "derive_replicate_seed",
    "write_path_csv",
    "read_path_csv",
    "increment_diagnostics",
    "DriftEstimate",
    "AsymptoticConstants",
    "KernelRatioConstants",
    "KernelSums",
    "kernel_sums",
    "s_nk",
    "local_linear_drift",
    "local_linear_drift_ratio",
    "nadaraya_watson_drift",
    "density_estimate",
    "asymptotic_constants",
    "nw_asymptotic_constants",
    "write_drift_curve_csv",
    "Schedule",
    "ScheduleDiagnostics",
    "validate_schedule",
    "ReplicateRecord",
    "Check",
    "ExperimentReport",
    "run_consistency",
    "run_bias_comparison",
    "run_clt",
    "run_lln_check",
    "write_report",
    "read_records_csv",
    "config_hash",
]

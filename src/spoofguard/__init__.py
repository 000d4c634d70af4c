"""Spoof-resilient state estimation with attack detection and escape-time analysis."""

from .analysis import (DriftAnalysis, EscapeTimeReport, confidence_bound,
                       covariance_magnitude, drift_matrices, escape_report,
                       escape_time, escape_time_lower_bound, is_detectable,
                       spectral_norm, stationary_covariance)
from .chi2 import chi2_cdf, chi2_quantile, chi2_sf
from .detector import (DetectorConfig, cusum_update, residual,
                       residual_covariance)
from .estimator import (EstimatorState, GainPair, Mode, StackedSensorForms,
                        covariance_update, emergency_gain, fuse, optimal_gain,
                        predict)
from .exceptions import ConfigError, ConvergenceError, NumericalError
from .harness import (MonteCarloSummary, RunSummary, ScenarioConfig,
                      ScenarioShared, ScenarioTrace, StepRecord,
                      builtin_config_path, derive_run_seed, export_trace,
                      monte_carlo, parse_config, pd_control, run_scenario)
from .model import (AttackSignal, GaussianSampler, PlantState, SystemModel,
                    measure_gps, measure_imu, step_dynamics, validate_model)

__version__ = "0.1.0"

__all__ = [
    "AttackSignal", "ConfigError", "ConvergenceError", "DetectorConfig",
    "DriftAnalysis", "EscapeTimeReport", "EstimatorState", "GainPair",
    "GaussianSampler", "Mode", "MonteCarloSummary", "NumericalError",
    "PlantState", "RunSummary", "ScenarioConfig", "ScenarioShared",
    "ScenarioTrace", "StackedSensorForms", "StepRecord", "SystemModel",
    "builtin_config_path", "chi2_cdf", "chi2_quantile", "chi2_sf",
    "confidence_bound", "covariance_magnitude", "covariance_update",
    "cusum_update", "derive_run_seed", "drift_matrices", "emergency_gain",
    "escape_report", "escape_time", "escape_time_lower_bound", "export_trace",
    "fuse", "is_detectable", "measure_gps", "measure_imu", "monte_carlo",
    "optimal_gain", "parse_config", "pd_control", "predict", "residual",
    "residual_covariance", "run_scenario", "spectral_norm",
    "stationary_covariance", "step_dynamics", "validate_model",
]

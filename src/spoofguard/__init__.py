"""Spoof-resilient state estimation with attack detection and escape-time analysis."""

from .analysis import (DriftAnalysis, EscapeTimeReport, covariance_magnitude,
                       drift_matrices, escape_report, escape_time,
                       escape_time_lower_bound, is_detectable, spectral_norm,
                       stationary_covariance)
from .chi2 import chi2_cdf, chi2_quantile, chi2_sf
from .detector import (DetectorConfig, cusum_update, residual,
                       residual_covariance)
from .estimator import (EstimatorState, Mode, StackedSensorForms,
                        covariance_update, fuse, optimal_gain)
from .exceptions import ConfigError, ConvergenceError, NumericalError
from .harness import (MonteCarloSummary, RunSummary, ScenarioConfig,
                      ScenarioShared, ScenarioTrace, builtin_config_path,
                      derive_run_seed, export_trace, monte_carlo,
                      parse_config, pd_control, run_scenario)
from .model import (AttackSignal, GaussianSampler, PlantState, SystemModel,
                    measure_gps, measure_imu, step_dynamics, validate_model)

__version__ = "0.1.0"

# The public names are the names imported above.
__all__ = sorted(name for name, value in globals().items()
                 if getattr(value, "__module__", "").startswith("spoofguard."))

"""The package's public surface and the README's library quick tour."""

import re
from pathlib import Path

import spoofguard

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names():
    # Adding or removing a public name is a decision: change this list with it.
    assert spoofguard.__all__ == [
        "AttackSignal", "ConfigError", "ConvergenceError", "DetectorConfig",
        "DriftAnalysis", "EscapeTimeReport", "EstimatorState",
        "GaussianSampler", "Mode", "MonteCarloSummary", "NumericalError",
        "PlantState", "RunSummary", "ScenarioConfig", "ScenarioShared",
        "ScenarioTrace", "StackedSensorForms", "SystemModel",
        "builtin_config_path", "chi2_cdf", "chi2_quantile", "chi2_sf",
        "covariance_magnitude", "covariance_update", "cusum_update",
        "derive_run_seed", "drift_matrices", "escape_report", "escape_time",
        "escape_time_lower_bound", "export_trace", "fuse", "is_detectable",
        "measure_gps", "measure_imu", "monte_carlo", "optimal_gain",
        "parse_config", "pd_control", "residual", "residual_covariance",
        "run_scenario", "spectral_norm", "stationary_covariance",
        "step_dynamics", "validate_model"]


def test_readme_quick_tour_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    tour = text.split("## Library quick tour", 1)[1]
    [code] = re.findall(r"```python\n(.*?)```", tour, flags=re.S)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
    assert 285 <= int(printed[1]) <= 295
    assert (tmp_path / "trace.csv").is_file()

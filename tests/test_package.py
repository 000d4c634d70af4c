"""The package's public surface and the README's library quick tour."""

import os
import re
import subprocess
import sys
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


REIMPORT = """
import gc, sys, weakref
import spoofguard
config = spoofguard.parse_config(spoofguard.builtin_config_path())
spoofguard.escape_report(config.model, 2.0, 0.01)
old = weakref.ref(spoofguard.harness.ScenarioConfig)
for name in [m for m in sys.modules if m.split(".")[0] == "spoofguard"]:
    del sys.modules[name]
del spoofguard, config
import spoofguard
gc.collect()
print(old() is None)
"""


def test_reimported_package_releases_the_old_one():
    # A fresh import, as the benchmark's set-ups make, leaves the old
    # package to the collector: no typing cache keeps a subscript of its
    # classes (typing.Optional[EscapeTimeReport] pinned every old copy).
    src = str(Path(spoofguard.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", REIMPORT], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "True\n"

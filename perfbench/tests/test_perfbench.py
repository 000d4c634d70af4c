"""Tests of the benchmark itself: tracer counts and restore, workload checks, spec.

Run from the repository root with the package on the path:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import CliWorkload, MonteCarloWorkload, set_up  # noqa: E402

import spoofguard  # noqa: E402
from spoofguard import estimator, harness, model  # noqa: E402


@pytest.fixture()
def config():
    return set_up()


def test_traced_counts_are_exact_on_a_small_batch(config):
    with Tracer() as tracer:
        harness.monte_carlo(replace(config, runs=1, steps=10))
    metrics = tracer.metrics()
    assert metrics["estimator.fuse.calls"][0] == 10
    assert metrics["model.sample.calls"][0] == 30
    assert metrics["harness.run_scenario.calls"][0] == 1
    assert metrics["harness.monte_carlo.calls"][0] == 1
    assert tracer.missing == []


def test_tracer_restores_every_original(config):
    fuse, sample = estimator.fuse, model.GaussianSampler.sample
    with pytest.raises(RuntimeError):
        with Tracer():
            assert harness.fuse is not fuse
            raise RuntimeError("leave the block early")
    assert spoofguard.harness.fuse is spoofguard.estimator.fuse
    assert estimator.fuse is fuse and spoofguard.fuse is fuse
    assert model.GaussianSampler.sample is sample


def test_self_time_excludes_child_spans(config):
    with Tracer() as tracer:
        harness.monte_carlo(replace(config, runs=2, steps=20))
    metrics = tracer.metrics()
    total = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    assert 0.0 < metrics["harness.monte_carlo.self_s"][0] < total


def test_missing_function_is_reported_not_fatal(config, monkeypatch):
    monkeypatch.delattr(harness, "pd_control")
    with Tracer() as tracer:
        pass
    assert tracer.missing == ["harness.pd_control"]
    assert tracer.metrics()["harness.pd_control.calls"] == (0, "count")


def _traced_op(workload_factory, index=0):
    workload = workload_factory()
    with Tracer() as tracer:
        result = workload.op(index)
    return result, {k: v for k, (v, _) in tracer.metrics().items()
                    if not k.endswith("self_s")}


def test_quality_and_counts_repeat_for_a_seed(config):
    def factory():
        return MonteCarloWorkload(config, 11, attacked=False, runs=4, steps=200)
    first, first_counts = _traced_op(factory)
    second, second_counts = _traced_op(factory)
    assert first.false_alarm_runs == second.false_alarm_runs
    assert first_counts == second_counts
    assert first_counts["estimator.fuse.calls"] == 4 * 200


def test_attack_checks_detection_and_pooled_coverage(config):
    workload = MonteCarloWorkload(config, 3, attacked=True, runs=2, steps=720)
    result = workload.op(0)
    assert result.failed == 0
    assert result.detect_delays == [0, 0]
    assert workload.final_check(1) == 0
    runs, _, post_steps = workload._pooled[0]
    workload._pooled[0] = (runs, int(0.94 * post_steps), post_steps)
    assert workload.final_check(1) == runs


def test_unbiasedness_check_rejects_a_biased_mean(config):
    workload = MonteCarloWorkload(config, 5, attacked=False, runs=5, steps=200)
    workload.op(0)
    assert workload.final_check(1) == 0
    runs, sums = workload._pooled[0]
    shift = 5.0 * np.sqrt(workload._reference_var)     # 5 single-run sds
    workload._pooled[0] = (runs, sums + runs * shift)
    assert workload.final_check(1) == runs


def test_cli_cycle_passes_its_checks(config, tmp_path):
    workload = CliWorkload(config, 2, str(tmp_path), steps=1000)
    result = workload.op(0)
    assert (result.attempted, result.failed, result.runs) == (4, 0, 2)
    assert len(result.command_s["run"]) == len(result.command_s["analyze"]) == 2
    assert result.steps == 2000


def test_cli_cycle_counts_a_failed_command(config, tmp_path, monkeypatch):
    monkeypatch.setattr(spoofguard.cli, "run_scenario", _raise_numerical)
    result = CliWorkload(config, 2, str(tmp_path), steps=1000).op(0)
    assert result.failed == 2 and result.runs == 0


def _raise_numerical(*args, **kwargs):
    raise spoofguard.NumericalError("injected")


def test_p90_needs_ten_samples_beyond_it():
    assert isinstance(run.percentiles(list(range(99)))["p90"], str)
    assert run.percentiles(list(range(100)))["p90"] == pytest.approx(89.9)


def test_benchmark_json_matches_the_code():
    committed = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert committed == run.spec()


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

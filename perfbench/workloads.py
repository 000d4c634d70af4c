"""The benchmark workloads: what one operation does and how its output is checked.

All workloads run the shipped ``paper_uav`` configuration.  Every input is
derived from the benchmark's master seed and the operation's index, so a
seed always produces the same operations.  Calls into the program go through
module attributes (``self.harness.monte_carlo``), so a tracer that rebinds
those attributes sees them.

An operation is one call into the program that a user would make:

* ``mc_attack`` and ``mc_clean``: one ``monte_carlo`` batch;
* ``cli``: one cycle of ``run`` (CSV) -> ``analyze`` -> ``run`` (JSON) ->
  ``analyze`` through the in-process ``spoofguard.cli.main``.

Each operation reports the program time it measured (checks and trace
parsing stay outside the clock), the runs or commands it attempted and the
ones that failed their output check.
"""

import contextlib
import io
import json
import sys
import traceback
from dataclasses import dataclass, field, replace
from time import perf_counter as _clock

import numpy as np

CHECK_STEPS = (50, 100, 200)       # unbiasedness check points of mc_clean
DETECTION_WINDOW = 3               # detection must land in [start, start + 3]
MIN_POST_ATTACK_COVERAGE = 0.95
ESCAPE_TIME_RANGE = (285, 295)


def set_up():
    """The set-up every workload pays before its first operation.

    Imports the package (a fresh import when it is not loaded), parses the
    shipped configuration and builds the model-derived ``ScenarioShared``.
    """
    import spoofguard
    config = spoofguard.parse_config(spoofguard.builtin_config_path())
    spoofguard.ScenarioShared(config.model)
    return config


def op_seed(master_seed: int, index: int) -> int:
    """Seed of operation `index`; independent of the program's own seeding."""
    return int(np.random.SeedSequence([master_seed, index]).generate_state(1)[0])


@dataclass
class OpResult:
    op_s: float                 # wall time of the operation's program calls
    sim_s: float                # the part of op_s spent in calls that simulate
    steps: int                  # simulated run-steps
    attempted: int              # MC runs or CLI commands
    failed: int = 0
    runs: int = 0               # simulated runs seen by the quality metrics
    false_alarm_runs: int = 0   # runs with an alarm before the attack onset
    detect_delays: list = field(default_factory=list)
    command_s: dict = field(default_factory=dict)   # cli: latency per command


def _false_alarm(first_alarm_step, attack_start) -> bool:
    if first_alarm_step is None:
        return False
    return attack_start is None or first_alarm_step < attack_start


class MonteCarloWorkload:
    """One ``monte_carlo`` batch of `runs` x `steps` per operation.

    Each batch builds its own ``ScenarioShared``, as a ``spoofguard mc`` call
    does, so the lazy ``stationary_P`` is paid inside every batch.
    """

    def __init__(self, config, master_seed: int, *, attacked: bool,
                 runs: int, steps: int):
        from spoofguard import harness
        from spoofguard.model import AttackSignal
        self.harness = harness
        self.master_seed = master_seed
        self.attacked = attacked
        if not attacked:
            config = replace(config, attack=AttackSignal.none())
        self.config = replace(config, runs=runs, steps=steps)
        self.attack_start = config.attack.start_step if attacked else None
        self._pooled = {}           # op index -> what final_check pools
        self._reference_var = None if attacked else _reference_variances(
            self.config.model, max(CHECK_STEPS))

    def op(self, index: int) -> OpResult:
        config = replace(self.config, seed=op_seed(self.master_seed, index))
        runs, steps = config.runs, config.steps
        start = _clock()
        try:
            batch = self.harness.monte_carlo(config)
        except Exception:
            elapsed = _clock() - start
            traceback.print_exc(file=sys.stderr)
            return OpResult(elapsed, elapsed, runs * steps, runs, failed=runs)
        elapsed = _clock() - start

        result = OpResult(elapsed, elapsed, runs * steps, runs, runs=runs)
        for run in batch.runs:
            result.false_alarm_runs += _false_alarm(run.first_alarm_step,
                                                    self.attack_start)
        if self.attacked:
            hi = self.attack_start + DETECTION_WINDOW
            for run in batch.runs:
                step = run.attack_detection_step
                if step is None or not self.attack_start <= step <= hi:
                    result.failed += 1
                else:
                    result.detect_delays.append(step - self.attack_start)
            self._pooled[index] = (
                runs, sum(run.covered_post_attack for run in batch.runs),
                sum(run.post_attack_steps for run in batch.runs))
        else:
            rows = [k - 1 for k in CHECK_STEPS]
            self._pooled[index] = (runs, batch.mean_error[rows] * runs)
        return result

    def final_check(self, ops: int) -> int:
        """Runs failing the checks on the pooled runs of operations 0 .. ops-1.

        Like acceptance criteria 6 and 7, these are statistics of a batch,
        so they are taken over the pooled runs, not per operation:

        * attacked: post-attack coverage of the confidence envelope >= 0.95;
        * clean: at k = 50, 100 and 200 each component of the mean error lies
          within 4 sqrt(P_kk / N), with P_kk from the normal-mode covariance
          recursion.

        A failure fails every pooled run.
        """
        pooled = [self._pooled[i] for i in range(ops) if i in self._pooled]
        if not pooled:
            return 0
        n = sum(entry[0] for entry in pooled)
        if self.attacked:
            covered = sum(entry[1] for entry in pooled)
            post_steps = sum(entry[2] for entry in pooled)
            ok = post_steps > 0 and covered / post_steps >= MIN_POST_ATTACK_COVERAGE
        else:
            mean = sum(entry[1] for entry in pooled) / n
            ok = bool(np.all(np.abs(mean) <= 4.0 * np.sqrt(self._reference_var / n)))
        return 0 if ok else n


def _reference_variances(model, last_step: int) -> np.ndarray:
    """diag(P_k) at CHECK_STEPS along the optimal-gain recursion from P_0 = 0."""
    from spoofguard.estimator import (StackedSensorForms, covariance_update,
                                      optimal_gain)
    stacked = StackedSensorForms(model)
    P = np.zeros((model.n, model.n))
    rows = []
    for k in range(1, last_step + 1):
        P = covariance_update(P, optimal_gain(P, model, stacked), model, stacked)
        if k in CHECK_STEPS:
            rows.append(np.diag(P).copy())
    return np.array(rows)


class CliWorkload:
    """``run`` (CSV), ``analyze``, ``run`` (JSON), ``analyze`` per operation.

    Commands run in process through ``spoofguard.cli.main`` with stdout
    captured.  Traces go to `out_dir`, which the caller owns.
    """

    FORMATS = ("csv", "json")

    def __init__(self, config, master_seed: int, out_dir, *, steps: int):
        from spoofguard import builtin_config_path, cli
        self.cli = cli
        self.master_seed = master_seed
        self.steps = steps
        self.config_path = str(builtin_config_path())
        self.attack_start = config.attack.start_step
        self.out_dir = out_dir

    def _command(self, argv):
        out = io.StringIO()
        start = _clock()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.main(argv)
        except (Exception, SystemExit):
            traceback.print_exc(file=sys.stderr)
            code = None
        return _clock() - start, code, out.getvalue()

    def op(self, index: int) -> OpResult:
        result = OpResult(0.0, 0.0, 0, 0)
        for j, fmt in enumerate(self.FORMATS):
            path = f"{self.out_dir}/trace.{fmt}"
            seed = op_seed(self.master_seed, 2 * index + j)
            elapsed, code, stdout = self._command([
                "run", "--config", self.config_path, "--seed", str(seed),
                "--steps", str(self.steps), "--out", path, "--format", fmt])
            result.command_s.setdefault("run", []).append(elapsed)
            result.op_s += elapsed
            result.sim_s += elapsed
            result.steps += self.steps
            result.attempted += 1
            summary = _run_output(code, stdout, path, fmt, self.steps,
                                  self.attack_start)
            if summary is None:
                result.failed += 1
            else:
                result.runs += 1
                result.false_alarm_runs += _false_alarm(
                    summary["first_alarm_step"], self.attack_start)
                result.detect_delays.append(
                    summary["attack_detection_step"] - self.attack_start)

            elapsed, code, stdout = self._command(
                ["analyze", "--config", self.config_path])
            result.command_s.setdefault("analyze", []).append(elapsed)
            result.op_s += elapsed
            result.attempted += 1
            if not _analyze_ok(code, stdout):
                result.failed += 1
        return result

    def final_check(self, ops: int) -> int:
        return 0


def _run_output(code, stdout, path, fmt, steps, attack_start):
    """The run summary if the command's outputs check out, else None.

    Checks: exit code 0, one trace row or record per step, and detection of
    the shipped attack within DETECTION_WINDOW steps of its onset.
    """
    if code != 0:
        return None
    try:
        summary = json.loads(stdout)
        with open(path, encoding="utf-8") as fh:
            if fmt == "csv":
                rows = sum(1 for _ in fh) - 1       # minus the header
            else:
                rows = len(json.load(fh)["records"])
    except (OSError, ValueError, KeyError, TypeError):
        return None
    detected = summary.get("attack_detection_step")
    if rows != steps or not isinstance(detected, int):
        return None
    if not attack_start <= detected <= attack_start + DETECTION_WINDOW:
        return None
    return summary


def _analyze_ok(code, stdout) -> bool:
    if code != 0:
        return False
    try:
        escape = json.loads(stdout)["escape_time"]
    except (ValueError, KeyError, TypeError):
        return False
    lo, hi = ESCAPE_TIME_RANGE
    return isinstance(escape, int) and lo <= escape <= hi

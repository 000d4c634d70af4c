import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from operator import setitem

import numpy as np
import pytest

import spoofguard
from spoofguard import (AttackSignal, ConfigError, DetectorConfig,
                        ScenarioConfig, SystemModel, builtin_config_path, cli,
                        parse_config, run_scenario)
from spoofguard.cli import main

from conftest import IMU_BLIND_CONFIG, imu_blind_config


@pytest.fixture()
def config_path():
    return str(builtin_config_path())


class TestRun:
    def test_run_writes_trace_and_summary(self, config_path, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(["run", "--config", config_path, "--steps", "750",
                     "--out", str(out), "--format", "csv"])
        assert code == 0
        assert out.exists()
        assert len(out.read_text().splitlines()) == 751
        summary = json.loads(capsys.readouterr().out)
        assert summary["attack_detection_step"] == 700
        assert summary["escape_time"] is not None

    def test_run_json_format(self, config_path, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(["run", "--config", config_path, "--steps", "100",
                     "--out", str(out), "--format", "json"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["records"]) == 100

    def test_seed_override(self, config_path, capsys):
        main(["run", "--config", config_path, "--steps", "50", "--seed", "3"])
        first = capsys.readouterr().out
        main(["run", "--config", config_path, "--steps", "50", "--seed", "3"])
        assert capsys.readouterr().out == first


class TestMc:
    def test_batch_summary(self, config_path, tmp_path, capsys):
        out = tmp_path / "mc.json"
        code = main(["mc", "--config", config_path, "--runs", "3",
                     "--steps", "750", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["runs"] == 3
        assert all(700 <= s <= 703 for s in payload["attack_detection_steps"])
        assert payload["coverage_post_attack"] >= 0.95

    def test_horizon_before_the_onset_reports_no_coverage(self, config_path,
                                                           capsys):
        code = main(["mc", "--config", config_path, "--runs", "2",
                     "--steps", "200"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["attack_start"] == 700
        assert payload["coverage_post_attack"] is None


class TestAnalyze:
    def test_report_fields(self, config_path, capsys):
        code = main(["analyze", "--config", config_path])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["first_alarm_step"] is None
        assert 285 <= payload["escape_time"] <= 295
        assert payload["detectable_gps"] is True
        assert payload["detectable_drift_pair"] is False
        assert payload["branch"] == "general"


class TestSharedForms:
    @pytest.mark.parametrize("argv", [
        ["run", "--format", "csv"], ["run", "--format", "json"], ["analyze"]])
    def test_a_command_builds_one_set_of_sensor_forms(self, config_path,
                                                      tmp_path, monkeypatch,
                                                      capsys, argv):
        # The model keeps its StackedSensorForms, which the run, the
        # stationary covariance, the drift analysis and both escape analyses
        # (a JSON trace runs the one from the alarm too) read, so a command
        # builds one.
        built, init = [], spoofguard.StackedSensorForms.__init__

        def counted(self, model):
            built.append(model)
            init(self, model)
        monkeypatch.setattr(spoofguard.StackedSensorForms, "__init__",
                            counted)
        if argv[0] == "run":
            argv = argv + ["--out", str(tmp_path / "trace")]
        assert main(argv + ["--config", config_path]) == 0
        capsys.readouterr()
        assert len(built) == 1


class TestValidate:
    def test_valid_config(self, config_path, capsys):
        assert main(["validate", "--config", config_path]) == 0
        assert "ok" in capsys.readouterr().out

    def test_schema_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"steps": 5}))
        assert main(["validate", "--config", str(bad)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "none.json")]) == 1

    def test_default_target_has_one_entry_per_input(self, tmp_path, capsys):
        # A 2-state, 1-input model (position, velocity) without a target.
        raw = {"model": {"A": [[1.0, 0.01], [0.0, 1.0]], "B": [[0.0], [0.01]],
                         "C_G": [[1.0, 0.0]], "C_I": [[0.0, 1.0]],
                         "Sigma_w": [[1e-4, 0.0], [0.0, 1e-4]],
                         "Sigma_G": [[1e-3]], "Sigma_I": [[1e-3]]},
               "steps": 50}
        cfg = tmp_path / "one_input.json"
        cfg.write_text(json.dumps(raw))
        assert spoofguard.parse_config(cfg).target.tolist() == [10.0]
        assert main(["validate", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == "ok\n"
        assert main(["run", "--config", str(cfg)]) == 0

    def test_flag_bounds_checked(self, config_path):
        assert main(["run", "--config", config_path, "--steps", "0"]) == 1
        assert main(["run", "--config", config_path, "--seed", "-1"]) == 1
        assert main(["mc", "--config", config_path, "--runs", "0"]) == 1

    @pytest.mark.parametrize("keys, value", [
        (("model", "A", 0, 0), math.nan),
        (("attack", "d", 0), math.inf),
        (("attack", "d", 1), -math.inf)])
    def test_non_finite_number_exits_one(self, config_path, tmp_path, capsys,
                                         keys, value):
        with open(config_path, encoding="utf-8") as fh:
            raw = json.load(fh)
        node = raw
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))     # writes NaN, Infinity, -Infinity
        assert main(["run", "--config", str(bad), "--steps", "10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_overflowing_number_exits_one(self, config_path, tmp_path, capsys):
        with open(config_path, encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["attack"]["d"][0] = "@"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw).replace('"@"', "1e400"))
        assert main(["run", "--config", str(bad), "--steps", "10"]) == 1
        assert "non-finite number 1e400" in capsys.readouterr().err

    @pytest.mark.parametrize("keys, value, message", [
        (("controller", "kp"), "abc", "controller.kp: must be a number"),
        (("detector", "alpha"), True, "detector.alpha: must be a number"),
        (("attack", "start_step"), "x",
         "attack.start_step: must be an integer"),
        (("steps",), 720.7, "steps: must be an integer"),
        (("steps",), True, "steps: must be an integer"),
        (("seed",), 1.0, "seed: must be an integer"),
        (("x0",), ["a", 0, 0, 0], "x0: must hold numbers only"),
        (("attack",), {"kind": "custom-sequence", "start_step": 700,
                       "sequence": [[1.0, 1.0]] * 300},
         "attack.sequence: has 300 entries")])
    def test_loose_type_exits_one(self, config_path, tmp_path, capsys, keys,
                                  value, message):
        with open(config_path, encoding="utf-8") as fh:
            raw = json.load(fh)
        node = raw
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["run", "--config", str(bad), "--steps", "10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert message in err

    def test_integer_too_large_for_a_float_exits_one(self, config_path,
                                                     tmp_path, capsys):
        with open(config_path, encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["attack"]["d"][0] = "@"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw).replace('"@"', "1" * 401))
        assert main(["run", "--config", str(bad), "--steps", "10"]) == 1
        err = capsys.readouterr().err
        assert err == (f"config error: {bad}: integer of 401 digits does not "
                       f"fit in a float\n")

    def test_sequence_checked_again_after_steps_flag(self, config_path,
                                                     tmp_path, capsys):
        # Steps 5..10 need six entries; --steps 11 needs seven.
        with open(config_path, encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["steps"] = 10
        raw["attack"] = {"kind": "custom-sequence", "start_step": 5,
                         "sequence": [[1.0, 1.0]] * 6}
        cfg = tmp_path / "seq.json"
        cfg.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--steps", "11"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: attack.sequence: has 6 entries")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("n, p", [(1, 1), (3, 2)])
    def test_state_shorter_than_two_input_blocks_exits_one(self, tmp_path,
                                                           capsys, n, p):
        # The controller reads positions x[:p] and velocities x[p:2p].
        eye = [[float(i == j) for j in range(n)] for i in range(n)]
        raw = {"model": {"A": eye, "B": [[0.01] * p] * n, "C_G": eye[:1],
                         "C_I": eye[-1:], "Sigma_w": eye, "Sigma_G": [[1.0]],
                         "Sigma_I": [[1.0]]},
               "target": [10.0] * p, "steps": 5}
        cfg = tmp_path / "short_state.json"
        cfg.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == (f"config error: model: state dimension {n} is below "
                       f"2p = {2 * p}; the controller reads positions x[:p] "
                       f"and velocities x[p:2p]\n")


_DELETE = object()
_RAGGED = [[0.0, 0.0], [0.0]]


def _ragged_error() -> str:
    """numpy's own message for the ragged list, which parse_config passes on."""
    try:
        np.asarray(_RAGGED, dtype=float)
    except ValueError as exc:
        return str(exc)
    raise AssertionError("a ragged list converted")


class TestValidateRejections:
    @pytest.mark.parametrize("keys, value, message", [
        ((), [], "{cfg}: top level must be an object"),
        (("model",), [], "model: must be an object"),
        (("controller",), [1.0], "controller: must be an object"),
        (("detector",), 0.01, "detector: must be an object"),
        (("attack",), "constant-bias", "attack: must be an object"),
        (("model", "Sigma_I"), _DELETE, "model: missing keys ['Sigma_I']"),
        (("model", "B"), [0.01, 0.01],
         "model: B must be 2-dimensional, got shape (2,)"),
        (("target",), [10.0, 10.0, 0.0], "target: has shape (3,), expected "
         "(2,) to match the input dimension"),
        (("controller", "kp"), 0.0,
         "controller: gains must be positive, got kp=0.0, kd=2.0"),
        (("zeta_norm",), -2.0, "zeta_norm: must be positive, got -2.0"),
        (("attack", "kind"), "jam", "attack.kind: unknown kind 'jam', "
         "expected one of ('none', 'constant-bias', 'ramp', "
         "'custom-sequence')"),
        (("attack", "d"), [1.0, 2.0, 3.0],
         "attack.d: has shape (3,), expected (2,)"),
        (("attack",), {"kind": "custom-sequence"},
         "attack.sequence: required for kind 'custom-sequence'"),
        (("attack",), {"kind": "custom-sequence", "sequence": 1.0},
         "attack.sequence: must be a list"),
        (("attack",), {"kind": "custom-sequence",
                       "sequence": [[1.0, 1.0], [1.0]]},
         "attack.sequence[1]: has shape (1,), expected (2,)"),
        (("x0",), _RAGGED, None)])
    def test_rejection_exits_one_with_its_message(self, config_path, tmp_path,
                                                  capsys, keys, value,
                                                  message):
        with open(config_path, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not keys:
            raw = value
        else:
            node = raw
            for key in keys[:-1]:
                node = node[key]
            if value is _DELETE:
                del node[keys[-1]]
            else:
                node[keys[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        if message is None:
            message = f"x0: {_ragged_error()}"
        assert main(["validate", "--config", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message.format(cfg=bad)}\n"


class TestOutputErrors:
    def test_missing_out_directory_fails_before_simulating(
            self, config_path, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("simulated before checking --out")
        monkeypatch.setattr(cli, "run_scenario", no_run)
        out = tmp_path / "missing" / "trace.csv"
        assert main(["run", "--config", config_path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"output error: --out {out}: no such directory\n"

    def test_unwritable_out_file_is_an_output_error(self, config_path,
                                                    tmp_path, capsys):
        # The path names a directory: the check passes, the write fails.
        assert main(["run", "--config", config_path, "--steps", "20",
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("output error: [Errno ") and \
            err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["run", "--steps", "20"], ["validate"]])
    def test_closed_stdout_is_an_output_error(self, config_path, argv):
        # The reader closes the pipe before the output is written, as
        # `spoofguard run ... | head -3` can.  Buffered stdout, as in a
        # shell: the interpreter flushes it again at exit.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(spoofguard.__file__)),
             os.environ.get("PYTHONPATH", "")])
        proc = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from spoofguard.cli import main; sys.exit(main())",
             argv[0], "--config", config_path, *argv[1:]],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait() == 1
        assert err == "output error: [Errno 32] Broken pipe\n"


class TestZeroProcessNoise:
    """Sigma_w = 0 is a valid PSD covariance: the stationary covariance is 0
    and dead reckoning keeps it 0 bit for bit, so the tolerance never
    escapes: escape_time is null.  mc runs no escape analysis."""

    @pytest.fixture()
    def noiseless(self, config_path, tmp_path):
        with open(config_path, encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["model"]["Sigma_w"] = [[0.0] * 4] * 4
        cfg = tmp_path / "noiseless.json"
        cfg.write_text(json.dumps(raw))
        return str(cfg)

    @pytest.mark.parametrize("argv", [["analyze"], ["run", "--steps", "750"],
                                      ["mc", "--runs", "1", "--steps", "750"]])
    def test_tolerance_stays_credible(self, noiseless, capsys, argv):
        code = main([argv[0], "--config", noiseless, *argv[1:]])
        captured = capsys.readouterr()
        if argv[0] == "mc":
            assert code == 0 and captured.err == ""
            payload = json.loads(captured.out)
            assert payload["runs"] == 1
            assert payload["first_alarm_steps"] == [264]
            assert payload["attack_detection_steps"] == [700]
            assert payload["per_run"][0]["steps"] == 750
            return
        assert code == 0 and captured.err == ""
        payload = json.loads(captured.out, parse_constant=_reject)
        assert payload["escape_time"] is None
        assert payload["escape_time_lower_bound"] is None

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_run_writes_no_trace(self, noiseless, tmp_path, capsys, fmt):
        # The verdict "never" is a result: the run writes its trace, and
        # its escape fields are null, the alarm's too.
        out = tmp_path / f"trace.{fmt}"
        assert main(["run", "--config", noiseless, "--steps", "750",
                     "--format", fmt, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["escape_time"] is None
        if fmt == "csv":
            assert len(out.read_text().splitlines()) == 751
            return
        report = json.loads(out.read_text(),
                            parse_constant=_reject)["summary"]["escape_report"]
        assert report["k_escape"] is None
        assert report["k_escape_from_alarm"] is None


def _reject(constant):
    """json's parse_constant: a bare Infinity, -Infinity or NaN fails."""
    raise ValueError(f"not strict JSON: {constant}")


class TestContractingPlant:
    """Every A[i][i] = 0.9: dead reckoning stays bounded, and its limit is
    credible, so the tolerance never escapes; analyze and run exit 0."""

    @pytest.fixture()
    def contracting(self, derived):
        return derived("contracting")

    def test_analyze_reports_never(self, contracting, capsys):
        assert main(["analyze", "--config", contracting]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out, parse_constant=_reject)
        assert payload["escape_time"] is None
        assert payload["detectable_drift_pair"] is True

    def test_run_reports_never(self, contracting, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["run", "--config", contracting, "--steps", "800",
                     "--format", "json", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        summary = json.loads(captured.out, parse_constant=_reject)
        assert summary["attack_detection_step"] == 700
        assert summary["escape_time"] is None
        trace = json.loads(out.read_text(), parse_constant=_reject)
        assert trace["summary"]["escape_report"]["k_escape"] is None
        assert trace["summary"]["escape_report"]["k_escape_from_alarm"] is None


class TestOverflowingRun:
    def test_overflowing_error_norm_exits_two_without_a_trace(
            self, config_path, tmp_path, capsys):
        # x and x_hat stay finite near the target, but |x - x_hat| does not:
        # no trace with a bare inf, one line and exit 2 instead.
        with open(config_path, encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["target"] = [1e300, 1e300]
        cfg, out = tmp_path / "far.json", tmp_path / "trace.json"
        cfg.write_text(json.dumps(raw))
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["run", "--config", str(cfg), "--steps", "50",
                         "--format", "json", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("numerical failure: run with seed 0: a value "
                                "of step 2 is not finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["run", "--format", "csv"],
                                      ["run", "--format", "json"],
                                      ["mc", "--runs", "2"]])
    def test_overflowing_confidence_radius_exits_two_without_output(
            self, derived, tmp_path, capsys, argv):
        # Noise covariances near 1e306 keep P finite, but sqrt(q |P|_2)
        # overflows at step 90 of seed 0 and of mc's first run.
        cfg, out = derived("huge"), tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(argv + ["--config", cfg, "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        seed = 0 if argv[0] == "run" else spoofguard.derive_run_seed(0, 0)
        assert captured.out == ""
        assert captured.err == (f"numerical failure: run with seed {seed}: "
                                f"a value of step 90 is not finite\n")
        assert not out.exists()


class TestDivergingModel:
    """Velocity entries A[2][2] = A[3][3] = 3 pass validation; the run,
    attacked from step 10, overflows at step 361.  No np.errstate here:
    pytest turns a RuntimeWarning into an error, as the console-script
    table (tests/test_console.py) does."""

    @pytest.mark.parametrize("argv", [["run"], ["mc", "--runs", "2"]])
    def test_exits_two_with_one_line(self, derived, capsys, argv):
        assert main([*argv, "--config", derived("diverging")]) == 2
        captured = capsys.readouterr()
        seed = 0 if argv[0] == "run" else spoofguard.derive_run_seed(0, 0)
        assert captured.out == ""
        assert captured.err == (f"numerical failure: run with seed {seed}: "
                                f"a value of step 361 is not finite\n")


class TestUnexcitedUnstableMode:
    """A = diag(2, 1) whose unstable mode gets no process noise: the model is
    valid and detectable, but the stationary covariance's doubling
    overflows (its G_k grows like 4^(2^k)).  The non-finite check reports
    it: analyze and run exit 2 with one line and nothing on stdout; mc runs
    no escape analysis, and its stretches are finite, so it exits 0.  No
    np.errstate here: pytest turns a RuntimeWarning into an error, as the
    console-script table (tests/test_console.py) does."""

    @pytest.fixture()
    def unexcited(self, derived):
        return derived("unexcited")

    @pytest.mark.parametrize("argv", [["analyze"], ["run"],
                                      ["mc", "--runs", "2"]])
    def test_overflow_is_one_numerical_failure_line(self, unexcited, capsys,
                                                     argv):
        code = main([argv[0], "--config", unexcited, *argv[1:]])
        captured = capsys.readouterr()
        if argv[0] == "mc":
            assert code == 0 and captured.err == ""
            assert json.loads(captured.out)["runs"] == 2
            return
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("numerical failure: non-finite covariance "
                                "after 10 doublings\n")


class TestImuBlindConfig:
    """tests/configs/imu_blind.json: a drift-free model whose unstable modes
    the IMU does not see, so dead reckoning's P passes 1e300.  No
    np.errstate here: pytest turns a RuntimeWarning into an error, as the
    console-script table (tests/test_console.py) does."""

    def test_the_file_is_rebuilt_by_its_helper(self):
        assert IMU_BLIND_CONFIG.read_text(encoding="utf-8") == \
            json.dumps(imu_blind_config(), indent=2) + "\n"

    @pytest.mark.parametrize("zeta, want", [(1e20, 117), (1e30, 178),
                                            (1e60, 360)])
    def test_analyze_finds_the_escape_time(self, tmp_path, capsys, zeta,
                                           want):
        # The escape times of dead reckoning's recursion in extended
        # precision; with C_I (A - I) left at its 1e-16 roundoff each read
        # a NaN iterate as credible and gave up after 100000 steps.
        raw = imu_blind_config()
        raw["zeta_norm"] = zeta
        cfg = tmp_path / "zeta.json"
        cfg.write_text(json.dumps(raw))
        assert main(["analyze", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["escape_time"] == want

    def test_a_singular_residual_covariance_exits_two(self, tmp_path,
                                                      capsys):
        # A 50 m bias from step 10 latches the alarm; dead reckoning drives
        # P_d's 1-norm condition to 1/eps at step 59, whose P_d^{-1} is NaN
        # and gives a NaN statistic, and the run's final check names that
        # step.  (Whether LAPACK's inverse itself came out NaN hung on the
        # last bits: step 125 with the cancelling normal H_1.)
        raw = imu_blind_config()
        raw["attack"] = {"kind": "constant-bias", "d": [50.0] * 4,
                         "start_step": 10}
        cfg = tmp_path / "bias.json"
        cfg.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("numerical failure: run with seed 0: a value "
                                "of step 59 is not finite\n")

    def test_a_nan_spoof_runs_until_the_covariance_overflows(
            self, monkeypatch, capsys):
        # A NaN reading scores inf before P_d^{-1} is read, so a NaN spoof
        # from step 10 latches the alarm and never meets a singular P_d:
        # the run ends where dead reckoning's P overflows.  A config file
        # cannot hold NaN, so the spoof is set on the parsed config.
        def spoofed(path):
            return replace(parse_config(path), attack=AttackSignal(
                kind="custom-sequence", start_step=10,
                sequence=[np.full(4, np.nan)] * 991))
        monkeypatch.setattr(cli, "parse_config", spoofed)
        assert main(["run", "--config", str(IMU_BLIND_CONFIG),
                     "--steps", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("numerical failure: run with seed 0: a value "
                                "of step 940 is not finite\n")


class TestHugeNoiseAnalyze:
    def test_reports_the_fixed_point_without_a_warning(self, derived,
                                                       capsys):
        # Noise covariances near 1e306: the fixed point's trace is 4.04e307,
        # and neither norm of the convergence test overflows.
        assert main(["analyze", "--config", derived("huge")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 4.03e307 < payload["stationary_trace_P"] < 4.05e307
        assert payload["escape_time"] == 0


class TestLargeFiniteSpoof:
    @pytest.mark.parametrize("argv, key, want", [
        (["run"], "attack_detection_step", 700),
        (["mc", "--runs", "2"], "attack_detection_steps", [700, 700])])
    def test_alarms_at_the_onset_without_a_warning(self, derived, capsys,
                                                  argv, key, want):
        # The detector's quadratic form of a 1e200 residual overflows: it
        # scores inf, under pytest's error::RuntimeWarning as in CI.
        assert main([*argv, "--config", derived("large")]) == 0
        assert json.loads(capsys.readouterr().out)[key] == want


class TestHorizonTooLarge:
    @pytest.mark.parametrize("command", ["run", "mc"])
    @pytest.mark.parametrize("attacked", [True, False])
    def test_unallocatable_steps_is_a_config_error(
            self, config_path, tmp_path, capsys, command, attacked):
        # numpy refuses 2^62 rows before allocating anything, on any host;
        # the columns come before the attack's per-step list.
        with open(config_path, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not attacked:
            del raw["attack"]
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw))
        code = main([command, "--config", str(cfg),
                     "--steps", "4611686018427387904"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "config error: steps: 4611686018427387904 steps cannot be "
            "allocated (")
        assert captured.err.count("\n") == 1

    def test_a_console_run_prints_one_line(self, config_path, tmp_path):
        # 10^18 steps from the console, under error::RuntimeWarning: exit 1,
        # the one config error line and no traceback.
        env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning",
               "PYTHONPATH": os.pathsep.join(
                   [os.path.dirname(os.path.dirname(spoofguard.__file__)),
                    os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "spoofguard.cli", "run", "--config",
             config_path, "--steps", "1000000000000000000"], cwd=tmp_path,
            env=env, capture_output=True, text=True, check=False)
        assert (done.returncode, done.stdout) == (1, "")
        assert re.fullmatch(r"config error: steps: 1000000000000000000 "
                            r"steps cannot be allocated \(.+\)\n",
                            done.stderr), done.stderr

    def test_nothing_is_allocated(self, config_path, capsys):
        # numpy refuses the first column, the (steps, n + p) record of [x';
        # u], before allocating it: the run's peak traced memory stays far
        # below one row per step of any column.
        main(["validate", "--config", config_path])
        tracemalloc.start()
        try:
            code = main(["run", "--config", config_path,
                         "--steps", "1000000000000000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert peak < 2 ** 20


class TestLargeTolerance:
    def test_analyze_fails_with_one_line(self, derived, capsys):
        # zeta_norm ** 2 overflows: the squared tolerance is inf, credible
        # at every finite covariance, so the tolerance never escapes and
        # the lower bound is inf; both are null in strict JSON.
        assert main(["analyze", "--config", derived("wide")]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out, parse_constant=_reject)
        assert payload["escape_time"] is None
        assert payload["escape_time_lower_bound"] is None


class TestFarTolerance:
    def test_analyze_finds_a_far_horizon(self, derived, capsys):
        # 41165 steps of dead reckoning, bracketed by the emergency trunk,
        # whose own escape is searched by doubling.
        assert main(["analyze", "--config", derived("far_zeta")]) == 0
        assert json.loads(capsys.readouterr().out)["escape_time"] == 41165


class TestBeyondTheStepBudget:
    def test_run_reports_the_escape_from_the_alarm(self, derived, tmp_path,
                                                   capsys):
        # zeta_norm 20000, seed 13: the covariance at detection does not
        # lie below its successor.  A step loop with a 100000-step budget
        # raised "still credible" there and the run exited 2; the trunk's
        # bracket gives stepping's 191460.
        out = tmp_path / "trace.json"
        assert main(["run", "--config", derived("beyond_horizon"), "--seed",
                     "13", "--format", "json", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text(), parse_constant=_reject)[
            "summary"]["escape_report"]
        assert report["k_escape_from_alarm"] == 191460


class TestSmallSignificanceLevel:
    def test_analyze_uses_the_true_quantile(self, derived, capsys):
        # chi2(4, 1e-20) is 99.97.  Bisection on the CDF saturated at 82.34
        # for every alpha <= 1e-17 and reported escape time 95 (bound 89.75).
        assert main(["analyze", "--config", derived("small_alpha")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["escape_time"] == 80
        assert payload["escape_time_lower_bound"] == pytest.approx(73.93,
                                                                   abs=5e-3)


_ONE_STATE = SystemModel(A=[[1.0]], B=[[0.01]], C_G=[[1.0]], C_I=[[1.0]],
                         Sigma_w=[[1.0]], Sigma_G=[[1.0]], Sigma_I=[[1.0]])
_SEQUENCE = {"kind": "custom-sequence", "start_step": 5,
             "sequence": [[1.0, 1.0]] * 6}


def _rule(name, edit, fields, message, cli=None):
    """A scenario rule: an edit of the shipped JSON that breaks it, the
    ScenarioConfig fields that hold the same values (built when called), the
    message, and optionally a CLI call (command, edit of the file, flags)
    that breaks it by a flag."""
    return pytest.param(edit, fields, message, cli, id=name)


# Each rule is checked once, by the type that holds the value; parse_config,
# dataclasses.replace and the CLI's flags all reach it.
_RULES = [
    _rule("n-below-2p",
          {"model": {k: [[1.0]] for k in ("A", "C_G", "C_I", "Sigma_w",
                                          "Sigma_G", "Sigma_I")}
           | {"B": [[0.01]]}, "x0": [0.0], "target": [1.0]},
          lambda: {"model": _ONE_STATE},
          "model: state dimension 1 is below 2p = 2; the controller reads "
          "positions x[:p] and velocities x[p:2p]"),
    _rule("x0-shape", {"x0": [0.0] * 3}, lambda: {"x0": np.zeros(3)},
          "x0: has shape (3,), expected (4,)"),
    _rule("target-shape", {"target": [3.0]},
          lambda: {"target": np.array([3.0])},
          "target: has shape (1,), expected (2,) to match the input "
          "dimension"),
    _rule("positive-gains", {"controller": {"kp": -1.0}},
          lambda: {"kp": -1.0},
          "controller: gains must be positive, got kp=-1.0, kd=2.0"),
    _rule("steps", {"steps": 0}, lambda: {"steps": 0},
          "steps: must be >= 1, got 0", ("run", {}, ["--steps", "0"])),
    _rule("seed", {"seed": -1}, lambda: {"seed": -1},
          "seed: must be >= 0, got -1", ("run", {}, ["--seed", "-1"])),
    _rule("runs", {"runs": 0}, lambda: {"runs": 0},
          "runs: must be >= 1, got 0", ("mc", {}, ["--runs", "0"])),
    # Before the types checked integers, each of these replaced values ended
    # a run or a batch in a TypeError.
    _rule("steps-float", {"steps": 10.5}, lambda: {"steps": 10.5},
          "steps: must be an integer, got 10.5"),
    _rule("steps-bool", {"steps": True}, lambda: {"steps": True},
          "steps: must be an integer, got True"),
    _rule("seed-float", {"seed": 1.5}, lambda: {"seed": 1.5},
          "seed: must be an integer, got 1.5"),
    _rule("runs-float", {"runs": 2.0}, lambda: {"runs": 2.0},
          "runs: must be an integer, got 2.0"),
    _rule("zeta-norm", {"zeta_norm": -2.0}, lambda: {"zeta_norm": -2.0},
          "zeta_norm: must be positive, got -2.0"),
    _rule("detector-delta", {"detector": {"delta": 1.5}},
          lambda: {"detector": DetectorConfig(delta=1.5)},
          "detector: forgetting factor delta must lie in (0, 1), got 1.5"),
    _rule("attack-kind", {"attack": {"kind": "jam"}},
          lambda: {"attack": AttackSignal(kind="jam")},
          "attack.kind: unknown kind 'jam', expected one of ('none', "
          "'constant-bias', 'ramp', 'custom-sequence')"),
    _rule("attack-start",
          {"attack": {"kind": "ramp", "start_step": -1, "d": [1.0, 1.0]}},
          lambda: {"attack": AttackSignal(kind="ramp", start_step=-1,
                                          d=[1.0, 1.0])},
          "attack.start_step: must be >= 0, got -1"),
    _rule("attack-start-float",
          {"attack": {"kind": "ramp", "start_step": 2.5, "d": [1.0, 1.0]}},
          lambda: {"attack": AttackSignal(kind="ramp", start_step=2.5,
                                          d=[1.0, 1.0])},
          "attack.start_step: must be an integer, got 2.5"),
    _rule("attack-d-required", {"attack": {"kind": "ramp"}},
          lambda: {"attack": AttackSignal(kind="ramp")},
          "attack.d: required for kind 'ramp'"),
    _rule("attack-d-shape", {"attack": {"kind": "constant-bias", "d": [1.0]}},
          lambda: {"attack": AttackSignal(kind="constant-bias", d=[1.0])},
          "attack.d: has shape (1,), expected (2,)"),
    # Before the rules moved onto the types, replace broadcast these rows
    # onto both GPS rows.
    _rule("sequence-row-shape",
          {"attack": {**_SEQUENCE, "sequence": [[1.0]] * 1000}},
          lambda: {"attack": AttackSignal(**{**_SEQUENCE,
                                             "sequence": [[1.0]] * 1000})},
          "attack.sequence[0]: has shape (1,), expected (2,)"),
    _rule("sequence-horizon", {"attack": _SEQUENCE, "steps": 11},
          lambda: {"attack": AttackSignal(**_SEQUENCE), "steps": 11},
          "attack.sequence: has 6 entries, but steps 5..11 need 7",
          ("run", {"attack": _SEQUENCE, "steps": 10}, ["--steps", "11"]))]


class TestScenarioRules:
    @staticmethod
    def _write(config_path, tmp_path, edit):
        with open(config_path, encoding="utf-8") as fh:
            raw = json.load(fh)
        for key, value in edit.items():
            if key in ("controller", "detector"):
                value = {**raw[key], **value}
            raw[key] = value
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw))
        return str(cfg)

    @pytest.mark.parametrize("edit, fields, message, cli", _RULES)
    def test_one_message_on_every_path(self, config_path, uav_config,
                                       tmp_path, capsys, edit, fields,
                                       message, cli):
        with pytest.raises(ConfigError) as parsed:
            parse_config(self._write(config_path, tmp_path, edit))
        assert str(parsed.value) == message
        with pytest.raises(ConfigError) as replaced:
            replace(uav_config, **fields())
        assert str(replaced.value) == message
        if cli is None:
            return
        command, base, flags = cli
        cfg = self._write(config_path, tmp_path, base)
        assert main([command, "--config", cfg, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"

    def test_config_is_frozen(self, uav_config):
        with pytest.raises(FrozenInstanceError):
            uav_config.steps = 10
        assert uav_config.steps == 1000

    def test_hand_built_config_is_checked(self, uav_model):
        # Before the rules moved onto ScenarioConfig, this target was
        # broadcast onto both inputs.
        with pytest.raises(ConfigError, match=r"^target: has shape \(1,\)"):
            ScenarioConfig(model=uav_model, x0=np.zeros(4),
                           target=np.array([3.0]))

    # A value a config holds fails at the assignment; before every part was
    # frozen, start_step = 2.5 ended a later run in a TypeError, alpha = 2.0
    # in a bare ValueError and x0[0] = nan in a NumericalError at step 1.
    @pytest.mark.parametrize("mutate, error", [
        pytest.param(lambda c, s: setattr(c.attack, "start_step", 2.5),
                     FrozenInstanceError, id="attack.start_step"),
        pytest.param(lambda c, s: setattr(c.detector, "alpha", 2.0),
                     FrozenInstanceError, id="detector.alpha"),
        pytest.param(lambda c, s: setattr(c.model, "A", np.zeros((4, 4))),
                     FrozenInstanceError, id="model.A"),
        pytest.param(lambda c, s: setitem(c.x0, 0, math.nan),
                     ValueError, id="x0[0]"),
        pytest.param(lambda c, s: setitem(c.target, 0, 0.0),
                     ValueError, id="target[0]"),
        pytest.param(lambda c, s: setitem(c.attack.d, 0, 0.0),
                     ValueError, id="attack.d[0]"),
        pytest.param(lambda c, s: setitem(s.attack.sequence[0], 0, 0.0),
                     ValueError, id="attack.sequence[0][0]"),
        pytest.param(lambda c, s: setitem(s.attack.sequence, 0, [0.0, 0.0]),
                     TypeError, id="attack.sequence[0]")])
    def test_held_values_fail_at_the_assignment(self, uav_config, mutate,
                                                error):
        sequenced = replace(uav_config, attack=AttackSignal(**_SEQUENCE),
                            steps=10)
        with pytest.raises(error):
            mutate(uav_config, sequenced)
        for config in (uav_config, sequenced):
            run_scenario(replace(config, steps=10))
        assert uav_config.x0.tolist() == [0.0] * 4
        assert sequenced.attack.sequence[0].tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("change, message", [
        pytest.param(lambda c: replace(c.attack, start_step=2.5),
                     "attack.start_step: must be an integer, got 2.5",
                     id="attack"),
        pytest.param(lambda c: replace(c.detector, delta=1.0),
                     "detector: forgetting factor delta must lie in (0, 1), "
                     "got 1.0", id="detector"),
        pytest.param(lambda c: replace(c, attack=replace(c.attack, d=[1.0])),
                     "attack.d: has shape (1,), expected (2,)",
                     id="config")])
    def test_replace_checks_every_level(self, uav_config, change, message):
        with pytest.raises(ConfigError) as info:
            change(uav_config)
        assert str(info.value) == message


class TestCrossProcessReproducibility:
    """A seed reproduces its outputs byte for byte in two processes, under
    the warnings rule of the console-script table."""

    COMMANDS = [["run", "--seed", "7", "--format", "csv",
                 "--out", "seed7.csv"],
                ["run", "--seed", "7", "--format", "json",
                 "--out", "seed7.json"],
                ["mc", "--runs", "4"],
                ["analyze"]]

    def test_two_processes_write_the_same_bytes(self, config_path, tmp_path):
        env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning",
               "PYTHONPATH": os.pathsep.join(
                   [os.path.dirname(os.path.dirname(spoofguard.__file__)),
                    os.environ.get("PYTHONPATH", "")])}
        dirs = [tmp_path / "1", tmp_path / "2"]
        for directory in dirs:
            directory.mkdir()
        for command, *flags in self.COMMANDS:
            procs = [subprocess.Popen(
                [sys.executable, "-m", "spoofguard.cli", command,
                 "--config", config_path, *flags], cwd=directory,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
                for directory in dirs]
            (out_1, err_1), (out_2, err_2) = (p.communicate() for p in procs)
            assert [p.returncode for p in procs] == [0, 0], err_1 + err_2
            assert err_1 == err_2 == b""
            assert out_1 == out_2
        for name in ("seed7.csv", "seed7.json"):
            assert (dirs[0] / name).read_bytes() == \
                (dirs[1] / name).read_bytes()
        with open(dirs[0] / "seed7.json", encoding="utf-8") as fh:
            json.load(fh)       # rejects a bare inf or nan

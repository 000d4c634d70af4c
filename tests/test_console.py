"""The console-script table: each row runs ``python -m spoofguard.cli`` in a
subprocess under PYTHONWARNINGS=error::RuntimeWarning, the rule pyproject's
filterwarnings sets for the tests, and checks the exit code, the exact
stderr and the stdout.  The derived configs are scripts/same_output.py's
DERIVED (from the shipped config) and IMU_BLIND (from
tests/configs/imu_blind.json), defined there once; two config errors are
defined here."""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import pytest  # noqa: E402
from same_output import (DERIVED, IMU_BLIND, IMU_BLIND_CONFIG,  # noqa: E402
                         _set, _write)

import spoofguard  # noqa: E402
from spoofguard import builtin_config_path  # noqa: E402

CONFIG_ERRORS = {
    "start_float": _set((("attack", "start_step"), 2.5)),
    "alpha2": _set((("detector", "alpha"), 2)),
}


def strict_json(text):
    """The JSON document, rejecting a bare inf or nan."""
    def bare(constant):
        raise ValueError(f"bare {constant}")
    return json.loads(text, parse_constant=bare)


def field(name, want):
    """A stdout check: strict JSON whose field `name` is `want`."""
    return lambda out: strict_json(out)[name] == want


def empty(out):
    return out == ""


DIVERGED = "numerical failure: run with seed 0: a value of step {} is not " \
    "finite\n"
UNEXCITED = "numerical failure: non-finite covariance after 10 doublings\n"

# (config, argv after the command's --config, exit code, stderr, stdout
# check); "shipped" is the shipped config.
ROWS = [
    ("shipped", ["validate"], 0, "", "ok\n".__eq__),
    ("shipped", ["analyze"], 0, "", field("escape_time", 291)),
    ("shipped", ["run", "--steps", "1000", "--format", "csv", "--out",
                 "run.csv"], 0, "", field("attack_detection_step", 700)),
    ("shipped", ["run", "--steps", "1000", "--format", "json", "--out",
                 "run.json"], 0, "", field("attack_detection_step", 700)),
    ("shipped", ["mc", "--runs", "4"], 0, "",
     field("attack_detection_steps", [700] * 4)),
    # A flag is checked by the rule its config value is checked by.
    ("shipped", ["run", "--steps", "0"], 1,
     "config error: steps: must be >= 1, got 0\n", empty),
    # Without an attack no alarm is a detection, false alarms included.
    ("clean", ["run"], 0, "", field("attack_detection_step", None)),
    ("clean", ["mc", "--runs", "4"], 0, "",
     field("attack_detection_steps", [None] * 4)),
    # A large finite spoof makes the detector's quadratic form overflow: it
    # scores inf and alarms at the onset, without a warning.
    ("large", ["run"], 0, "", field("attack_detection_step", 700)),
    ("large", ["mc", "--runs", "2"], 0, "",
     field("attack_detection_steps", [700, 700])),
    # A 1e120 spoof: the form, about 1e240, is past normalized_residual's
    # 1e100 scaling yet finite, so S stays finite and alarms at the onset.
    ("far_bias", ["run"], 0, "", field("attack_detection_step", 700)),
    # A diverging model overflows at step 361: the run's final check is the
    # only report.
    ("diverging", ["run"], 2, DIVERGED.format(361), empty),
    # A = diag(2, 1) whose unstable mode gets no process noise: the
    # stationary covariance's doubling overflows, and its non-finite check
    # is the only report; mc runs no escape analysis.
    ("unexcited", ["analyze"], 2, UNEXCITED, empty),
    ("unexcited", ["run"], 2, UNEXCITED, empty),
    ("unexcited", ["mc", "--runs", "2"], 0, "", field("runs", 2)),
    # Noise covariances near 1e306: the stationary covariance's convergence
    # test stays finite.
    ("huge", ["analyze"], 0, "", field("escape_time", 0)),
    # chi2(4, 1e-20) = 99.97 gives escape time 80.
    ("small_alpha", ["analyze"], 0, "", field("escape_time", 80)),
    # 41165 steps of dead reckoning, bracketed by the emergency trunk.
    ("far_zeta", ["analyze"], 0, "", field("escape_time", 41165)),
    # A tolerance whose square overflows never escapes: null in strict JSON.
    ("wide", ["analyze"], 0, "", field("escape_time", None)),
    # Every A[i][i] = 0.9: dead reckoning's limit, reached where a power
    # triple's A_m is 0, is credible: never, null in strict JSON.
    ("contracting", ["analyze"], 0, "", field("escape_time", None)),
    # 191461 steps, past the 100000 the doubling search once stopped at.
    ("beyond_horizon", ["analyze"], 0, "", field("escape_time", 191461)),
    # C_I = C_G, the IMU reading position increments: a drifting model, so
    # dead reckoning's gain differs per row and its predictor rows are a
    # product; it escapes at 394 and still detects at the onset.
    ("drift", ["analyze"], 0, "", field("escape_time", 394)),
    ("drift", ["run"], 0, "", field("attack_detection_step", 700)),
    # Sigma_w = 1e8 I, 1e11 times Sigma_G: the stationary covariance from
    # H_1 in Joseph form, past the tolerance at the start.
    ("noisy", ["analyze"], 0, "", field("escape_time", 0)),
    # Dead reckoning's covariance reaches 1e39 at step 117, where the
    # tolerance 1e20 stops being credible.
    ("imu_blind", ["analyze"], 0, "", field("escape_time", 117)),
    # With a 50 m bias from step 10 the IMU-blind run's P_d reaches
    # condition 1/eps at step 59, where the detector's weight is NaN.
    ("imu_blind_bias", ["run"], 2, DIVERGED.format(59), empty),
    # Every part of a config is frozen: a broken value in the file is still
    # a config error, not a FrozenInstanceError.
    ("start_float", ["validate"], 1,
     "config error: attack.start_step: must be an integer, got 2.5\n", empty),
    ("alpha2", ["validate"], 1, "config error: detector: significance level "
     "alpha must lie in (0, 1), got 2.0\n", empty),
]
IDS = [f"{config}: {' '.join(argv)}" for config, argv, *_ in ROWS]


@pytest.fixture(scope="module")
def console(tmp_path_factory):
    """{row id: finished process} of every row, two at a time, in one
    directory holding the derived configs."""
    out_dir = tmp_path_factory.mktemp("console")
    shipped = builtin_config_path()
    paths = {"shipped": str(shipped)}
    for configs, source in ((DERIVED, shipped), (CONFIG_ERRORS, shipped),
                            ({name: mutate for name, (_, mutate)
                              in IMU_BLIND.items()}, IMU_BLIND_CONFIG)):
        raw = json.loads(Path(source).read_text(encoding="utf-8"))
        for name, mutate in configs.items():
            paths[name] = _write(raw, mutate, out_dir, name)
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning",
           "PYTHONPATH": os.pathsep.join(
               [os.path.dirname(os.path.dirname(spoofguard.__file__)),
                os.environ.get("PYTHONPATH", "")])}

    def run(row):
        config, (command, *flags) = row[0], row[1]
        return subprocess.run(
            [sys.executable, "-m", "spoofguard.cli", command, "--config",
             paths[config], *flags], cwd=out_dir, env=env,
            capture_output=True, text=True, check=False)
    with ThreadPoolExecutor(2) as pool:
        return dict(zip(IDS, pool.map(run, ROWS)))


def test_every_derived_config_has_a_row():
    assert {config for config, *_ in ROWS} == {
        "shipped", *DERIVED, *IMU_BLIND, *CONFIG_ERRORS}


@pytest.mark.parametrize("name, row", list(zip(IDS, ROWS)), ids=IDS)
def test_console_row(console, name, row):
    _, _, code, stderr, check = row
    done = console[name]
    assert (done.returncode, done.stderr) == (code, stderr)
    assert check(done.stdout), done.stdout

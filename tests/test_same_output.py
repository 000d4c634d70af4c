"""scripts/same_output.py's comparison of two outputs."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import pytest  # noqa: E402
from same_output import commands, compare  # noqa: E402

from spoofguard import builtin_config_path  # noqa: E402


def test_floats_report_their_largest_differences():
    relative, absolute, same = compare('{"x": [1.5, 2e-3], "k": 7}',
                                       '{"x": [1.5000003, 2.5e-3], "k": 7}')
    assert same
    assert relative == pytest.approx(0.2, rel=1e-12)
    assert absolute == pytest.approx(5e-4, rel=1e-12)


def test_integers_text_and_layout_are_other_fields():
    assert compare("exit 0\nstep 291", "exit 0\nstep 290")[2] is False
    assert compare("exit 0", "exit 2")[2] is False
    assert compare("mode,normal", "mode,emergency")[2] is False
    assert compare("[1.0, 2.0]", "[1.0, 2.0, 3.0]")[2] is False


def test_equal_floats_written_differently_match():
    assert compare("0.0, 1.0", "-0.0, 1.00") == (0.0, 0.0, True)


def test_the_command_list(tmp_path):
    # run CSV and JSON for seeds 0-4, mc --runs 20 for seeds 0-4, analyze,
    # analyze and run on each of CI's eight derived configs, analyze on the
    # IMU-blind config and run on it with a bias; the config files are
    # written next to the outputs under relative names.
    listed = commands(str(builtin_config_path()), str(tmp_path))
    names = [name for name, _, _ in listed]
    assert len(names) == len(set(names)) == 10 + 5 + 1 + 16 + 2
    assert sum(trace is not None for _, _, trace in listed) == 10
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{name}.json" for name in ("clean", "large", "diverging",
                                    "unexcited", "huge", "small_alpha",
                                    "far_zeta", "wide", "imu_blind",
                                    "imu_blind_bias"))

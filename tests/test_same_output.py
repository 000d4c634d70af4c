"""scripts/same_output.py's comparison of two outputs."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import pytest  # noqa: E402
from same_output import (column_differences, commands, compare,  # noqa: E402
                         report)

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


def test_a_csv_trace_names_the_columns_that_moved():
    # Each header column whose floats differ, with its largest relative
    # difference; other outputs keep their one line, and only a non-float
    # field sets the exit status.
    parent = "k,x1,S,mode\n1,1.5,2.0,normal\n2,-0.0,4.0,normal\n"
    child = "k,x1,S,mode\n1,1.5,2.000002,normal\n2,0.0,4.00004,normal\n"
    assert column_differences(parent, child) == {
        "S": pytest.approx(4e-5 / 4.00004, rel=1e-9)}
    lines, differs = report("run seed 0 csv: trace", parent, child)
    assert lines == ["run seed 0 csv: trace: floats differ by at most "
                     "1e-05 relative, 4e-05 absolute; other fields match",
                     "  S: 1e-05"]
    assert not differs
    assert report("run seed 0 json: trace", parent, child)[0] == [
        lines[0].replace("csv", "json")]
    assert report("run seed 0 csv: trace", parent, parent) == (
        ["run seed 0 csv: trace: identical"], False)
    moved = parent.replace("normal\n2", "emergency\n3")
    lines, differs = report("run seed 0 csv: trace", parent, moved)
    assert differs and lines[0].endswith("other fields DIFFER")
    assert column_differences(parent, "k,x1\n") == {}


def test_the_command_list(tmp_path):
    # run CSV and JSON for seeds 0-4 and JSON for seed 13, mc --runs 20 for
    # seeds 0-4, analyze, analyze and run on each of the console table's
    # thirteen derived configs (the drifting C_I = C_G among them; far_bias
    # runs with a JSON trace), run JSON for seed 13 on beyond_horizon,
    # analyze on the IMU-blind config and run on it with a bias; the config
    # files are written next to the outputs under relative names.
    listed = commands(str(builtin_config_path()), str(tmp_path))
    names = [name for name, _, _ in listed]
    assert len(names) == len(set(names)) == 11 + 5 + 1 + 26 + 1 + 2
    assert sum(trace is not None for _, _, trace in listed) == 13
    [(_, argv, trace)] = [entry for entry in listed
                          if entry[0] == "run far_bias"]
    assert argv == ["run", "--config", "far_bias.json", "--format", "json",
                    "--out", trace]
    [(_, argv, trace)] = [entry for entry in listed
                          if entry[0] == "run beyond_horizon seed 13 json"]
    assert argv == ["run", "--config", "beyond_horizon.json", "--seed", "13",
                    "--format", "json", "--out", trace]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{name}.json" for name in ("clean", "large", "diverging",
                                    "unexcited", "huge", "small_alpha",
                                    "far_zeta", "wide", "contracting",
                                    "beyond_horizon", "drift", "noisy",
                                    "far_bias", "imu_blind",
                                    "imu_blind_bias"))

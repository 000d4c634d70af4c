"""Golden outputs of the shipped config, rebuilt from fresh runs.

`run` seeds 0-4 (1000 steps), `mc --runs 20` seeds 0-4 and `analyze`, each
through cli.main, with every run's columns caught from run_scenario.  The
discrete outputs are held exactly: alarm and detection steps, each run's
alarm column as run lengths, covered_steps, the escape integers and
analyze's verdicts.  Every float, in the summaries and in each run's x_hat,
P and S at the held steps, is held to 1e-12 x max(1, |value|), so a change
that moves only the last bits of the covariance arithmetic keeps it.

Regenerate the file with `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import json
import math
from pathlib import Path

from spoofguard import builtin_config_path, cli, harness

GOLDEN = Path(__file__).parent / "golden" / "paper_uav.json"
SEEDS = range(5)
HELD_STEPS = (1, 100, 700, 701, 1000)
RTOL = 1e-12


def _run_lengths(alarmed) -> list:
    """Lengths of the alternating stretches of the alarm column, the first
    one normal (0 when the run alarms at step 1)."""
    lengths, current, count = [], False, 0
    for value in alarmed.tolist():
        if value != current:
            lengths.append(count)
            current, count = value, 0
        count += 1
    return lengths + [count]


def _columns(trace) -> dict:
    cols = trace.columns
    rows = [k - 1 for k in HELD_STEPS]
    return {"first_alarm_step": trace.first_alarm_step,
            "attack_detection_step": trace.attack_detection_step,
            "alarm_run_lengths": _run_lengths(cols.alarmed),
            "x_hat": cols.x_hat[rows].tolist(), "P": cols.P[rows].tolist(),
            "S": cols.S[rows].tolist()}


def _command(argv, traces) -> dict:
    """cli.main's JSON output for argv, and the columns of each run it made."""
    del traces[:]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return {"output": json.loads(out.getvalue()),
            "runs": [_columns(trace) for trace in traces]}


def golden_outputs() -> dict:
    config = str(builtin_config_path())
    traces, run_scenario = [], harness.run_scenario

    def recorded(*args, **kwargs):
        traces.append(run_scenario(*args, **kwargs))
        return traces[-1]
    patched = [(cli, "run_scenario"), (harness, "run_scenario")]
    for module, name in patched:
        setattr(module, name, recorded)
    try:
        return {
            "run": [_command(["run", "--config", config, "--seed", str(seed),
                              "--steps", "1000"], traces) for seed in SEEDS],
            "mc": [_command(["mc", "--config", config, "--seed", str(seed),
                             "--runs", "20"], traces) for seed in SEEDS],
            "analyze": _command(["analyze", "--config", config], traces),
        }
    finally:
        for module, name in patched:
            setattr(module, name, run_scenario)


def _mismatches(got, want, path="") -> list:
    """Where got differs from want: a float beyond RTOL x max(1, |want|),
    anything else unequal, or a different structure."""
    if isinstance(want, float) and isinstance(got, float):
        if math.isfinite(want) and math.isfinite(got):
            ok = abs(got - want) <= RTOL * max(1.0, abs(want))
        else:
            ok = got == want
        return [] if ok else [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for key in want
                for m in _mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def test_fresh_outputs_match_the_golden_file():
    want = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(golden_outputs()))
    assert _mismatches(got, want) == []


def test_a_float_past_the_tolerance_is_reported():
    assert _mismatches({"a": [1.0, 2]}, {"a": [1.0 + 1e-13, 2]}) == []
    assert _mismatches({"a": [1.0, 2]}, {"a": [1.0 + 1e-11, 2]}) != []
    assert _mismatches({"a": [1.0, 3]}, {"a": [1.0, 2]}) != []
    assert _mismatches({"a": [1.0, 2.0]}, {"a": [1.0, 2]}) != []
    assert _mismatches([None], [1]) != []


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_outputs(), indent=0,
                                 separators=(",", ":")) + "\n")

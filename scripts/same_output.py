"""Compare the command-line outputs of two source trees.

    python scripts/same_output.py --parent <checkout> [--child <tree>]

Runs one fixed command list in each tree, through ``python -m spoofguard.cli``
with the tree's ``src`` on PYTHONPATH and PYTHONWARNINGS=error::RuntimeWarning:

* ``run`` with a CSV and a JSON trace, seeds 0-4, on the shipped config,
  and with a JSON trace on seed 13, whose covariance at the alarm does not
  lie below its successor;
* ``mc --runs 20``, seeds 0-4, and ``analyze`` on the shipped config;
* ``analyze`` and ``run`` on the configs the console-script table
  (``tests/test_console.py``) derives from it, the ``run`` with a JSON
  trace on its ``far_bias`` config (a 1e120 bias from step 700, whose
  detector form is past 1e100 yet finite), and ``run`` with a JSON trace
  on seed 13 of its ``beyond_horizon`` config (``zeta_norm`` 20000), whose
  escape from the alarm lies 191460 steps out;
* ``analyze`` on the IMU-blind test config (``tests/configs/imu_blind.json``,
  read from this script's tree), and ``run`` on it with a 50 m bias from
  step 10.

For every output (stdout, stderr, trace file; the exit code goes with stdout,
and the tree's own path reads <tree>, as in a traceback's file names) it
prints "identical", or the largest relative and absolute differences of the
floats and whether every other field (text, integers, exit codes) matches;
under a CSV trace that differs, it names each header column whose floats
differ, with its largest relative difference ("S: 1.8e-13").  A token is a
float if either side writes it with a point or an exponent.  The exit status
is 1 if some non-float field differs, else 0.  --child defaults to the tree
this script belongs to.
"""

import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
SEEDS = range(5)
IMU_BLIND_CONFIG = Path(__file__).resolve().parent.parent / "tests" / \
    "configs" / "imu_blind.json"


def _eye(k, value):
    return [[value * (i == j) for j in range(k)] for i in range(k)]


def _set(*path_values):
    """A config mutation setting raw[path...] = value for each pair."""
    def mutate(raw):
        for path, value in path_values:
            *outer, last = path
            for key in outer:
                raw = raw[key]
            raw[last] = value
    return mutate


def _diverging(raw):
    raw["model"]["A"][2][2] = raw["model"]["A"][3][3] = 3
    raw["attack"]["start_step"] = 10


def _unexcited(raw):
    raw["model"] = {
        "A": [[2.0, 0.0], [0.0, 1.0]], "B": [[0.0], [0.0]], "C_G": _eye(2, 1.0),
        "C_I": [[1.0, 0.0]], "Sigma_w": [[0.0, 0.0], [0.0, 1e-4]],
        "Sigma_G": _eye(2, 1.0), "Sigma_I": [[1.0]]}
    raw["x0"], raw["target"] = [0.0, 0.0], [10.0]


def _huge(raw):
    raw["model"].update(Sigma_w=_eye(4, 2e305), Sigma_G=_eye(2, 2e306),
                        Sigma_I=_eye(2, 2e306))


def _contracting(raw):
    for i, row in enumerate(raw["model"]["A"]):
        row[i] = 0.9


def _drift(raw):
    raw["model"]["C_I"] = raw["model"]["C_G"]


# The console-script table's configs: name -> mutation of the raw JSON.
DERIVED = {
    "clean": _set((("attack", "kind"), "none")),
    "large": _set((("attack", "d"), [1e200, 1e200])),
    "diverging": _diverging,
    "unexcited": _unexcited,
    "huge": _huge,
    "small_alpha": _set((("detector", "alpha"), 1e-20)),
    "far_zeta": _set((("zeta_norm",), 2000)),
    "wide": _set((("zeta_norm",), 1e200)),
    "contracting": _contracting,
    "beyond_horizon": _set((("zeta_norm",), 20000)),
    "drift": _drift,
    "noisy": _set((("model", "Sigma_w"), _eye(4, 1e8))),
    "far_bias": _set((("attack", "d"), [1e120, 1e120])),
}
# The derived configs whose run writes a JSON trace.
TRACED = ("far_bias",)

# The IMU-blind config's commands: name -> (command, mutation of its JSON).
IMU_BLIND = {
    "imu_blind": ("analyze", _set()),
    "imu_blind_bias": ("run", _set((("attack",), {
        "kind": "constant-bias", "d": [50.0] * 4, "start_step": 10}))),
}


def _write(raw, mutate, out_dir, name) -> str:
    """The path, relative to out_dir, of a mutated copy of raw written
    there."""
    derived = json.loads(json.dumps(raw))
    mutate(derived)
    path = f"{name}.json"
    Path(out_dir, path).write_text(json.dumps(derived), encoding="utf-8")
    return path


def commands(config, out_dir):
    """(name, argv, trace path or None) of the fixed command list; the
    derived configs are written to out_dir, and every path it names but
    the shipped config's is relative to out_dir, so both trees print the
    same paths."""
    out = []
    for seed in SEEDS:
        for fmt in ("csv", "json"):
            trace = f"run_{seed}.{fmt}"
            out.append((f"run seed {seed} {fmt}",
                        ["run", "--config", config, "--seed", str(seed),
                         "--format", fmt, "--out", trace], trace))
    out.append(("run seed 13 json",
                ["run", "--config", config, "--seed", "13", "--format",
                 "json", "--out", "run_13.json"], "run_13.json"))
    out += [(f"mc seed {seed}", ["mc", "--config", config, "--runs", "20",
                                 "--seed", str(seed)], None) for seed in SEEDS]
    out.append(("analyze", ["analyze", "--config", config], None))
    raw = json.loads(Path(config).read_text(encoding="utf-8"))
    for name, mutate in DERIVED.items():
        path = _write(raw, mutate, out_dir, name)
        trace = f"run_{name}.json" if name in TRACED else None
        out += [(f"analyze {name}", ["analyze", "--config", path], None),
                (f"run {name}", ["run", "--config", path] + (
                    ["--format", "json", "--out", trace] if trace else []),
                 trace)]
    out.append(("run beyond_horizon seed 13 json",
                ["run", "--config", "beyond_horizon.json", "--seed", "13",
                 "--format", "json", "--out", "run_beyond_horizon_13.json"],
                "run_beyond_horizon_13.json"))
    raw = json.loads(IMU_BLIND_CONFIG.read_text(encoding="utf-8"))
    for name, (command, mutate) in IMU_BLIND.items():
        path = _write(raw, mutate, out_dir, name)
        out.append((f"{command} {name}", [command, "--config", path], None))
    return out


def run_tree(tree, out_dir):
    """{output name: text} of the command list in one tree."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree, "src").resolve()),
               PYTHONWARNINGS="error::RuntimeWarning",
               PYTHONDONTWRITEBYTECODE="1")
    config = str(Path(tree, "src", "spoofguard", "configs",
                      "paper_uav.json").resolve())
    outputs, own = {}, str(Path(tree).resolve())
    for name, argv, trace in commands(config, out_dir):
        done = subprocess.run([sys.executable, "-m", "spoofguard.cli", *argv],
                              env=env, cwd=out_dir, capture_output=True,
                              text=True, check=False)
        outputs[f"{name}: stdout"] = f"exit {done.returncode}\n{done.stdout}"
        outputs[f"{name}: stderr"] = done.stderr.replace(own, "<tree>")
        if trace is not None:
            trace = Path(out_dir, trace)
            outputs[f"{name}: trace"] = trace.read_text(encoding="utf-8") \
                if trace.exists() else "(no file)"
    return outputs


def compare(parent: str, child: str):
    """(largest relative and absolute float differences, whether every other
    field matches) of two texts."""
    a_tokens, b_tokens = NUMBER.split(parent), NUMBER.split(child)
    a_numbers, b_numbers = NUMBER.findall(parent), NUMBER.findall(child)
    if a_tokens != b_tokens or len(a_numbers) != len(b_numbers):
        return 0.0, 0.0, False
    relative = absolute = 0.0
    same = True
    for a, b in zip(a_numbers, b_numbers):
        if a == b:
            continue
        if not any(c in a + b for c in ".eE"):
            same = False        # integers differ
            continue
        x, y = float(a), float(b)
        if x == y:              # 0.0 and -0.0, or 1.0 and 1.00
            continue
        absolute = max(absolute, abs(x - y))
        relative = max(relative, abs(x - y) / max(abs(x), abs(y)))
    return relative, absolute, same


def column_differences(parent: str, child: str) -> dict:
    """{header column: largest relative float difference} of two CSV texts,
    for the columns whose floats differ; {} unless both have the same header
    and row count."""
    a_rows, b_rows = (list(csv.reader(io.StringIO(text)))
                      for text in (parent, child))
    if a_rows[:1] != b_rows[:1] or len(a_rows) != len(b_rows):
        return {}
    moved = {}
    for a_row, b_row in zip(a_rows[1:], b_rows[1:]):
        for column, a, b in zip(a_rows[0], a_row, b_row):
            relative = compare(a, b)[0]
            if relative:
                moved[column] = max(moved.get(column, 0.0), relative)
    return moved


def report(name: str, parent: str, child: str):
    """(the lines printed for one output, whether a non-float field
    differs)."""
    if parent == child:
        return [f"{name}: identical"], False
    relative, absolute, same = compare(parent, child)
    lines = [f"{name}: floats differ by at most {relative:.2g} relative, "
             f"{absolute:.2g} absolute; other fields "
             f"{'match' if same else 'DIFFER'}"]
    if name.endswith(" csv: trace"):
        lines += [f"  {column}: {value:.2g}" for column, value in
                  column_differences(parent, child).items()]
    return lines, not same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="the tree to compare against")
    parser.add_argument("--child", default=str(Path(__file__).resolve()
                                               .parent.parent),
                        help="the tree under test (default: this one)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        results = []
        for side in ("parent", "child"):
            out_dir = os.path.join(tmp, side)
            os.mkdir(out_dir)
            results.append(run_tree(getattr(args, side), out_dir))
    parent, child = results
    status = 0
    for name in parent:
        lines, differs = report(name, parent[name], child[name])
        print("\n".join(lines))
        status |= differs
    return status


if __name__ == "__main__":
    sys.exit(main())

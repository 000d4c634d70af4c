"""Property test: small random configurations through every CLI command.

Whatever the configuration, a command ends with exit 0 (no stderr), 1 (one
"config error" line) or 2 (one "numerical failure" line), never with an
exception.  Examples are derandomized so the suite stays reproducible.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from spoofguard.cli import main

ENTRIES = st.sampled_from([1.0, 0.5, 0.0, -1.0, 0.01, 2.0])
EXIT_PREFIX = {1: "config error: ", 2: "numerical failure: "}


@st.composite
def configs(draw):
    p = draw(st.integers(1, 2))
    # n = 2p - 1 leaves the controller without a full velocity block.
    short = draw(st.sampled_from([False, False, False, True]))
    n = 2 * p - 1 if short else draw(st.integers(2 * p, 4))
    m_G, m_I = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def matrix(rows, cols):
        """Leading rows of the identity, or random entries."""
        if draw(st.booleans()):
            return [[float(i == j) for j in range(cols)] for i in range(rows)]
        return draw(st.lists(st.lists(ENTRIES, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    def scaled_eye(k, scales):
        c = draw(st.sampled_from(scales))
        return [[c * (i == j) for j in range(k)] for i in range(k)]

    # A = I + s N: the identity, a near-identity plant, or an arbitrary one.
    s = draw(st.sampled_from([0.01, 0.0, 1.0]))
    A = [[(i == j) + s * v for j, v in enumerate(row)]
         for i, row in enumerate(matrix(n, n))]
    steps = draw(st.integers(1, 30))
    start = draw(st.integers(0, steps + 1))
    attack = draw(st.sampled_from(["none", "constant-bias", "ramp",
                                   "custom-sequence"]))
    attack_raw = {"kind": attack, "start_step": start}
    if attack in ("constant-bias", "ramp"):
        attack_raw["d"] = draw(st.lists(ENTRIES, min_size=m_G, max_size=m_G))
    elif attack == "custom-sequence":
        # One entry short of the horizon half of the time.
        length = steps - start + 1 - draw(st.integers(0, 1))
        attack_raw["sequence"] = [
            draw(st.lists(ENTRIES, min_size=m_G, max_size=m_G))
            for _ in range(max(length, 0))]
    return {
        "model": {"A": A, "B": matrix(n, p), "C_G": matrix(m_G, n),
                  "C_I": matrix(m_I, n),
                  "Sigma_w": scaled_eye(n, [0.0, 1e-4, 1.0]),
                  "Sigma_G": scaled_eye(m_G, [1e-3, 1.0]),
                  "Sigma_I": scaled_eye(m_I, [1e-3, 1.0])},
        "x0": draw(st.lists(ENTRIES, min_size=n, max_size=n)),
        "target": draw(st.lists(ENTRIES, min_size=p, max_size=p)),
        "attack": attack_raw,
        "detector": {"alpha": draw(st.sampled_from([0.01, 0.2])),
                     "delta": draw(st.sampled_from([0.15, 0.9]))},
        "steps": steps,
        "zeta_norm": draw(st.sampled_from([0.1, 2.0])),
    }


COMMANDS = st.sampled_from([["validate"], ["analyze"],
                            ["run", "--format", "csv"],
                            ["run", "--format", "json"],
                            ["mc", "--runs", "2"]])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(raw=configs(), command=COMMANDS)
def test_cli_exits_cleanly_on_random_configs(raw, command):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(raw))
        argv = [command[0], "--config", str(cfg), *command[1:]]
        if command[0] in ("run", "mc"):
            argv += ["--out", str(Path(tmp) / "out")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    message = err.getvalue()
    if code == 0:
        assert message == ""
    else:
        assert message.startswith(EXIT_PREFIX[code])
        assert message.count("\n") == 1 and message.endswith("\n")

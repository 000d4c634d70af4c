"""Command line interface.

Subcommands: run (single scenario), mc (Monte Carlo batch), analyze
(escape-time and detectability report without simulation), validate
(configuration lint).  Exit codes: 0 success, 1 configuration error or
failed write (trace, --out file or stdout), 2 numerical failure.
"""

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .exceptions import ConfigError, NumericalError
from .harness import (ScenarioShared, export_trace, monte_carlo, parse_config,
                      run_scenario, _escape_fields)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spoofguard",
        description="Spoof-resilient state estimation scenarios and analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a single scenario")
    _common_flags(run_p)
    run_p.add_argument("--out", help="write the trace to this path")
    run_p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="trace file format (default csv)")

    mc_p = sub.add_parser("mc", help="run a Monte Carlo batch")
    _common_flags(mc_p)
    mc_p.add_argument("--runs", type=int, help="override the run count")
    mc_p.add_argument("--out", help="write the batch summary JSON to this path")

    an_p = sub.add_parser("analyze",
                          help="escape time and detectability, no simulation")
    an_p.add_argument("--config", required=True)
    an_p.add_argument("--out", help="write the report JSON to this path")

    va_p = sub.add_parser("validate", help="lint a configuration file")
    va_p.add_argument("--config", required=True)
    return parser


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, help="override the configured seed")
    p.add_argument("--steps", type=int, help="override the configured horizon")


def _load(args):
    out = getattr(args, "out", None)
    if out and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        raise FileNotFoundError(f"--out {out}: no such directory")
    overrides = {name: getattr(args, name)
                 for name in ("seed", "steps", "runs")
                 if getattr(args, name, None) is not None}
    return replace(parse_config(args.config), **overrides)


def _emit(payload: dict, out_path=None) -> None:
    text = json.dumps(payload, indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def cmd_run(args) -> int:
    config = _load(args)
    trace = run_scenario(config)
    summary = trace.summary()   # a failing escape analysis writes no trace
    if args.out:
        export_trace(trace, args.out, args.format)
    _emit(summary)
    return 0


def cmd_mc(args) -> int:
    config = _load(args)
    batch = monte_carlo(config)
    payload = {
        "runs": batch.n_runs,
        "attack_start": batch.attack_start,
        "first_alarm_steps": [r.first_alarm_step for r in batch.runs],
        "attack_detection_steps": [r.attack_detection_step for r in batch.runs],
        "coverage_post_attack": batch.coverage_post_attack(),
        "mean_final_error": np.linalg.norm(batch.mean_error[-1]).item(),
        "per_run": [{
            "index": r.index,
            "seed": r.seed,
            "first_alarm_step": r.first_alarm_step,
            "attack_detection_step": r.attack_detection_step,
            "covered_steps": r.covered_steps,
            "steps": r.steps,
            "final_err_norm": r.final_err_norm,
        } for r in batch.runs],
    }
    _emit(payload, args.out)
    return 0


def cmd_analyze(args) -> int:
    config = _load(args)
    shared = ScenarioShared(config.model)
    report = shared.escape(config.zeta_norm, config.detector.alpha)
    payload = {
        "first_alarm_step": None,
        **_escape_fields(report, shared.drift),
        "norm_A": report.norm_A,
        "branch": report.branch,
        "zeta_norm": config.zeta_norm,
        "alpha": config.detector.alpha,
        "df": config.model.n,
    }
    _emit(payload, args.out)
    return 0


def cmd_validate(args) -> int:
    parse_config(args.config)   # raises ConfigError on any broken rule
    print("ok")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "mc": cmd_mc,
                "analyze": cmd_analyze, "validate": cmd_validate}
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()      # a failed write to stdout raises here
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:      # parse_config reports its reads as ConfigError
        print(f"output error: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:     # stdout failed: devnull takes the flush at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""spoofguard benchmark: Monte Carlo throughput, CLI latency and per-layer traces.

Run from the repository root:

    python3 perfbench/run.py --workload mc_attack --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --write-spec     # regenerate BENCHMARK.json

The program is imported from ``src/`` of the checkout the script sits in.
``--trace 0`` times the workload untraced and reports the end-to-end
metrics, with each timed call scaled to a reference machine speed (see
calibrate()); ``--trace 1`` runs a fixed list of operations untraced and then
traced, and reports the per-layer metrics with the tracer's own overhead.
The last line of stdout is the result; the line before it holds provenance,
sample counts and the figures that are not bounded metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

if __name__ == "__main__":
    # One process, one thread: keep BLAS from starting a thread pool.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import numpy as np

from tracer import Tracer
from workloads import CliWorkload, MonteCarloWorkload, set_up

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_SECONDS = 30
SET_UPS = 25        # set-ups timed per run; setup_s is their median
# calibrate() time at the reference speed: the median on a 2-vCPU Xeon VM
# (Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31) in a quiet spell.
CALIBRATION_REFERENCE_S = 0.03
CALIBRATION_STEPS = 500


@dataclass(frozen=True)
class Workload:
    why: str
    make: object            # (config, master_seed, out_dir) -> workload
    quality_ops: int        # operations always run; quality metrics use them
    traced_ops: int         # operations in each pass of a traced run


WORKLOADS = {
    "mc_attack": Workload(
        "1000-step batches attacked at step 700: every run alarms and dead-reckons "
        "its last 30 % of steps, so the whole per-step loop runs in both modes",
        lambda config, seed, out_dir: MonteCarloWorkload(
            config, seed, attacked=True, runs=4, steps=1000),
        quality_ops=10, traced_ops=3),
    "mc_clean": Workload(
        "200-step batches without attack: per-run fixed cost (seeding, chi2 "
        "quantiles, escape analysis after false alarms) and aggregation come first",
        lambda config, seed, out_dir: MonteCarloWorkload(
            config, seed, attacked=False, runs=25, steps=200),
        quality_ops=20, traced_ops=4),
    "cli": Workload(
        "in-process run (CSV, then JSON) and analyze commands: the one-run path "
        "with trace export and the fixed-point stationary covariance",
        lambda config, seed, out_dir: CliWorkload(
            config, seed, out_dir, steps=1000),
        quality_ops=20, traced_ops=4),
}

# name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "run_steps_per_s": ("1/s", "higher", 0.2),
    "op_p50_s": ("s", "lower", 0.2),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "false_alarm_run_frac": ("ratio", "lower", 0.25),
}
TRACER_OVERHEAD = {"tracer.overhead_s": "s", "tracer.overhead_frac": "ratio"}


def spec() -> dict:
    """The content of BENCHMARK.json."""
    per_layer = {name: unit for name, (_, unit) in Tracer().metrics().items()}
    per_layer.update(TRACER_OVERHEAD)
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w.why}
                      for name, w in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, (unit, better, bound) in END_TO_END.items()],
        "per_layer": [{"name": name, "unit": unit, "better": "lower"}
                      for name, unit in per_layer.items()],
    }


def import_program():
    """Import spoofguard from this checkout's sources, or exit non-zero."""
    if not (SRC / "spoofguard" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no spoofguard sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spoofguard
    if not Path(spoofguard.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: imported spoofguard from "
                         f"{spoofguard.__file__}, not from {SRC}")


def timed_set_up():
    """One fresh set-up, timed: the package is imported anew first."""
    for name in [m for m in sys.modules
                 if m == "spoofguard" or m.startswith("spoofguard.")]:
        del sys.modules[name]
    start = perf_counter()
    config = set_up()
    return perf_counter() - start, config


def calibrate() -> float:
    """Time a fixed Kalman-filter kernel that does not touch spoofguard.

    On a shared machine the speed this process gets swings by a factor of
    up to two over minutes.  The kernel uses the program's instruction mix
    (a Python loop over 4x4 numpy algebra), so its time, taken around each
    timed call, tells how fast the machine runs at that moment.
    """
    rng = np.random.default_rng(0)
    A = np.eye(4)
    A[0, 2] = A[1, 3] = 0.01
    C, Q, R = np.eye(2, 4), 1e-4 * np.eye(4), 1e-3 * np.eye(2)
    x, P = np.zeros(4), np.zeros((4, 4))
    start = perf_counter()
    for _ in range(CALIBRATION_STEPS):
        x = A @ x + 0.01 * rng.standard_normal(4)
        P = A @ P @ A.T + Q
        S = C @ P @ C.T + R
        K = np.linalg.solve(S, C @ P).T
        x = x + K @ (0.03 * rng.standard_normal(2) - C @ x)
        P = P - K @ S @ K.T
        np.linalg.eigvalsh(0.5 * (P + P.T))
    return perf_counter() - start


def percentiles(values) -> dict:
    """Median, and p90 only when at least ten samples lie beyond it."""
    out = {"n": len(values), "p50": statistics.median(values)}
    if len(values) >= 10:
        p90 = statistics.quantiles(values, n=10)[-1]
        if sum(v > p90 for v in values) >= 10:
            out["p90"] = p90
    if "p90" not in out:
        out["p90"] = "omitted: fewer than ten samples beyond it"
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(),
        "master_seed": seed,
    }


def end_to_end(wl: Workload, seed: int, seconds: int):
    """Untraced run: every end-to-end metric.

    Each timed call is scaled to the reference speed by the calibrate()
    times around it: an operation by the mean of the calibrations just
    before and just after it, a set-up by the one just before it.  The raw
    wall-clock figures are reported beside the scaled ones.
    """
    calibrations = [calibrate()]
    elapsed, config = timed_set_up()
    set_ups = [(elapsed, calibrations[-1])]
    results = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as out_dir:
        program = wl.make(config, seed, out_dir)
        calibrations.append(calibrate())
        deadline = perf_counter() + seconds
        while len(results) < wl.quality_ops or perf_counter() < deadline:
            results.append(program.op(len(results)))
            calibrations.append(calibrate())
            # Set-ups between operations sample the machine over the run,
            # not only in its first second.  The workload keeps the modules
            # it was built with.
            if len(set_ups) < SET_UPS:
                set_ups.append((timed_set_up()[0], calibrations[-1]))
    while len(set_ups) < SET_UPS:
        calibration = calibrate()
        set_ups.append((timed_set_up()[0], calibration))
    # calibrations[1 + i] and [2 + i] bracket operation i.
    scales = [2.0 * CALIBRATION_REFERENCE_S / (before + after)
              for before, after in zip(calibrations[1:], calibrations[2:])]
    attempted = sum(r.attempted for r in results)
    failed = min(attempted, sum(r.failed for r in results)
                 + program.final_check(wl.quality_ops))
    quality = results[:wl.quality_ops]
    runs = sum(r.runs for r in quality)
    delays = [d for r in quality for d in r.detect_delays]
    median = statistics.median
    metrics = {
        "setup_s": median([t * CALIBRATION_REFERENCE_S / c for t, c in set_ups]),
        "run_steps_per_s": median([r.steps / (r.sim_s * k)
                                   for r, k in zip(results, scales)]),
        "op_p50_s": median([r.op_s * k for r, k in zip(results, scales)]),
        "peak_rss_mb": peak_rss_mb(),
        "false_alarm_run_frac":
            sum(r.false_alarm_runs for r in quality) / runs if runs else 1.0,
    }
    detail = {
        "samples": {"setup_s": len(set_ups),
                    "run_steps_per_s": len(results), "op_p50_s": len(results),
                    "peak_rss_mb": 1, "false_alarm_run_frac": runs},
        "speed_scale": percentiles(scales),
        "raw_setup_s": percentiles([t for t, _ in set_ups]),
        "raw_run_steps_per_s": median([r.steps / r.sim_s for r in results]),
        "raw_op_s": percentiles([r.op_s for r in results]),
        "detect_delay_steps": {"mean": statistics.fmean(delays) if delays else None,
                               "n": len(delays)},
    }
    for command in ("run", "analyze"):
        times = [t for r in results for t in r.command_s.get(command, [])]
        if times:
            detail[f"raw_{command}_s"] = percentiles(times)
    return metrics, attempted, failed, detail


def per_layer(wl: Workload, seed: int, seconds: int):
    """Traced run: the same fixed operations untraced, then traced.

    The operation count is fixed and `seconds` is not used, so that counts
    repeat exactly for a seed.  Times are scaled to the reference speed by
    the calibrations around each pass; the difference of the two passes is
    the tracer's overhead.
    """
    _, config = timed_set_up()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as out_dir:
        program = wl.make(config, seed, out_dir)

        def one_pass():
            before = calibrate()
            start = perf_counter()
            set_up()
            results = [program.op(i) for i in range(wl.traced_ops)]
            elapsed = perf_counter() - start
            return elapsed, 2.0 * CALIBRATION_REFERENCE_S / (before + calibrate()), results

        untraced_s, untraced_scale, untraced = one_pass()
        with Tracer() as tracer:
            traced_s, traced_scale, traced = one_pass()
    results = untraced + traced
    attempted = sum(r.attempted for r in results)
    failed = min(attempted, sum(r.failed for r in results)
                 + program.final_check(wl.traced_ops))
    metrics = {name: value * traced_scale if name.endswith(".self_s") else value
               for name, (value, _) in tracer.metrics().items()}
    reference_s = untraced_s * untraced_scale
    metrics["tracer.overhead_s"] = traced_s * traced_scale - reference_s
    metrics["tracer.overhead_frac"] = metrics["tracer.overhead_s"] / reference_s
    detail = {"samples": dict.fromkeys(metrics, 1),
              "traced_ops": wl.traced_ops, "raw_untraced_s": untraced_s,
              "raw_traced_s": traced_s, "speed_scale": [untraced_scale, traced_scale],
              "missing": tracer.missing}
    return metrics, attempted, failed, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the repository root")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.workload is None or args.seed is None or args.seed < 0:
        parser.error("--workload and a non-negative --seed are required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    import_program()
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed, detail = measure(
        WORKLOADS[args.workload], args.seed, args.seconds)
    units = ({n: u for n, (u, _, _) in END_TO_END.items()} if not args.trace
             else {e["name"]: e["unit"] for e in spec()["per_layer"]})
    print(json.dumps({"perfbench": {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(args.seed), **detail}}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

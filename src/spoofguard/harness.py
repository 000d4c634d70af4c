"""Closed-loop scenario runner: plant + tracking controller + detector + estimator.

Per step the runner (1) computes the control from the current estimate,
(2) steps the plant, reads both sensors and forms the GPS residual in one
StackedSensorForms product, [x'; y_G - d; y_I; d_hat - d] = Pi [x; u; w;
v_G; v_I; x - x_hat], (3) updates the detector from d_hat, (4) picks the
mode from the updated statistic and (5) fuses in that mode, so a detected
attack never corrupts the estimate on the step it is detected.

run_scenario steps one run; each step's results go into arrays, one row per
step (the run's columns; P is copied from each stretch as the run leaves
it); the exports and monte_carlo's aggregates read them, and the spectral
norms and confidence radii are built from them on first read, as is the
run's escape analysis.  monte_carlo calls run_scenario once per run, all on
one ScenarioShared, so each run reads the trunk's covariances until its
first alarm.

Randomness: a run owns three numpy Generator streams (process, GPS, IMU)
spawned from SeedSequence(seed), drawn one vector per step.  Monte
Carlo run i uses the derived seed
SeedSequence([master_seed, i]).generate_state(1)[0], so batches are
reproducible and runs are independent.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass, field, replace
from functools import cached_property, partial, reduce
from importlib import resources
from typing import List, Optional

import numpy as np

from .analysis import (EscapeTimeReport, drift_matrices, escape_report,
                       escape_time, _spectral_norms)
from .chi2 import chi2_quantile
from .detector import DetectorConfig, normalized_residual
from .estimator import (EstimatorState, Mode, StackedSensorForms, fuse,
                        _detector_weight, _Stretch)
from .exceptions import ConfigError, NumericalError
from .model import (MATRIX_NAMES, AttackSignal, GaussianSampler, SystemModel,
                    validate_model, _check_count, _read_only)

CSV_FORMAT = "csv"
JSON_FORMAT = "json"


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario; every rule on its values is checked on construction,
    and x0 and target are stored as read-only float copies, so change a
    config, or the attack or detector it holds, with dataclasses.replace."""

    model: SystemModel
    x0: np.ndarray
    target: np.ndarray
    kp: float = 1.0
    kd: float = 2.0
    attack: AttackSignal = field(default_factory=AttackSignal.none)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    steps: int = 1000
    seed: int = 0
    zeta_norm: float = 2.0
    runs: int = 1

    def __post_init__(self):
        n, p = self.model.n, self.model.p
        if n < 2 * p:
            raise ConfigError(
                f"model: state dimension {n} is below 2p = {2 * p}; "
                f"the controller reads positions x[:p] and velocities x[p:2p]")
        if np.shape(self.x0) != (n,):
            raise ConfigError(
                f"x0: has shape {np.shape(self.x0)}, expected ({n},)")
        if np.shape(self.target) != (p,):
            raise ConfigError(
                f"target: has shape {np.shape(self.target)}, expected ({p},) "
                f"to match the input dimension")
        if not (self.kp > 0 and self.kd > 0):
            raise ConfigError(f"controller: gains must be positive, "
                              f"got kp={self.kp}, kd={self.kd}")
        for name, least in (("steps", 1), ("seed", 0), ("runs", 1)):
            _check_count(name, getattr(self, name), least)
        if not self.zeta_norm > 0:
            raise ConfigError(
                f"zeta_norm: must be positive, got {self.zeta_norm}")
        self.attack.check(self.model.m_G, self.steps)
        object.__setattr__(self, "x0", _read_only(self.x0))
        object.__setattr__(self, "target", _read_only(self.target))

    def attack_start(self) -> Optional[int]:
        """Onset step of the attack, or None without one."""
        return self.attack.start_step if self.attack.kind != "none" else None

    def attack_onset(self) -> int:
        """Index of the first step the attack can change, steps without one."""
        start = self.attack_start()
        return self.steps if start is None else min(max(start - 1, 0), self.steps)


@dataclass
class ScenarioTrace:
    """One run's columns and alarm steps, with the config it ran with; its
    escape analysis is derived on first read."""

    columns: "_RunColumns" = field(repr=False)
    first_alarm_step: Optional[int]
    attack_detection_step: Optional[int]
    config: ScenarioConfig = field(repr=False, compare=False)

    @cached_property
    def escape(self) -> Optional[EscapeTimeReport]:
        """The stationary covariance's escape report, None without alarms."""
        if self.first_alarm_step is None:
            return None
        return escape_report(self.config.model, self.config.zeta_norm,
                             self.config.detector.alpha)

    @cached_property
    def escape_time_from_alarm(self) -> Optional[int]:
        """Escape time from the covariance at the attack's detection; None
        without a detection or when the tolerance never escapes."""
        step, config = self.attack_detection_step, self.config
        if step is None:
            return None
        return escape_time(self.columns.P[step - 1], config.model,
                           config.zeta_norm, config.detector.alpha)

    def summary(self) -> dict:
        return {"first_alarm_step": self.first_alarm_step,
                "attack_detection_step": self.attack_detection_step,
                **_escape_fields(self.escape, self.config.model)}


def _escape_fields(report: Optional[EscapeTimeReport], model) -> dict:
    """The escape and detectability (from the model's drift analysis) fields
    of a run summary and of analyze; the escape fields are None without a
    report."""
    drift = model._derived(drift_matrices)
    escape = {} if report is None else report.to_dict()
    return {"escape_time": escape.get("k_escape"),
            "escape_time_lower_bound": escape.get("k_lower_bound"),
            "stationary_trace_P": escape.get("stationary_trace_P"),
            "detectable_gps": drift.gps_pair_detectable,
            "detectable_drift_pair": drift.drift_pair_detectable}


@dataclass
class RunSummary:
    index: int
    seed: int
    first_alarm_step: Optional[int]
    attack_detection_step: Optional[int]
    steps: int
    covered_steps: int
    post_attack_steps: int
    covered_post_attack: int
    final_err_norm: float


@dataclass
class MonteCarloSummary:
    n_runs: int
    mean_error: np.ndarray          # (steps, n) mean of x - x_hat per step
    coverage: np.ndarray            # (steps,) fraction of runs with err <= radius
    runs: List[RunSummary]
    attack_start: Optional[int]

    def coverage_post_attack(self) -> Optional[float]:
        total = sum(r.post_attack_steps for r in self.runs)
        if total == 0:
            return None
        return sum(r.covered_post_attack for r in self.runs) / total


class ScenarioShared:
    """Run state reused across runs of one model: the forms the model keeps,
    the three noise samplers and the trunk (the normal stretch from P = 0,
    see estimator), built on first read.  Samplers and stretches keep
    scratch arrays: give each thread a ScenarioShared of its own."""

    def __init__(self, model: SystemModel):
        self.model = model
        self.stacked = model._derived(StackedSensorForms)
        self.sampler_w, self.sampler_G, self.sampler_I = map(
            GaussianSampler, (model.Sigma_w, model.Sigma_G, model.Sigma_I))

    trunk = cached_property(lambda self: _Stretch(
        Mode.NORMAL, np.zeros((self.model.n,) * 2), self.stacked))


def pd_control(x_hat, target, kp: float, kd: float) -> np.ndarray:
    """Tracking input kp * (target - position) - kd * velocity."""
    u_ref, L = _control_law(target, kp, kd, len(x_hat))
    return u_ref - L.dot(x_hat)


def _control_law(target, kp: float, kd: float, n: int):
    """u_ref = kp target and L = [kp I, kd I, 0] of u = u_ref - L x_hat for
    x = [positions, velocities, ...], p each; ScenarioConfig checks n >= 2p."""
    p = len(target)
    L = np.hstack([kp * np.eye(p), kd * np.eye(p), np.zeros((p, n - 2 * p))])
    return kp * np.asarray(target, dtype=float), L


def derive_run_seed(master_seed: int, run_index: int) -> int:
    """Deterministic per-run seed for Monte Carlo batches."""
    ss = np.random.SeedSequence([int(master_seed), int(run_index)])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(eq=False)
class _RunColumns:
    """Per-step results of one run, one row per step."""

    x: np.ndarray               # (steps, n) true states
    x_hat: np.ndarray           # (steps, n) estimates
    u: np.ndarray               # (steps, p) inputs
    S: np.ndarray               # (steps,) detector statistic
    alarmed: np.ndarray         # (steps,) alarm, i.e. emergency mode
    trace_P: np.ndarray         # (steps,)
    err_norm: np.ndarray        # (steps,) |x - x_hat|
    P: np.ndarray               # (steps, n, n) covariances
    q: float                    # chi2 quantile of conf_radius = sqrt(q norm_P)
    # (steps,) each, computed on first read: spectral norm of P, conf_radius
    norm_P = cached_property(lambda self: _spectral_norms(self.P))
    conf_radius = cached_property(lambda self: np.sqrt(self.q * self.norm_P))


def _covered(cols: _RunColumns) -> np.ndarray:
    """err_norm <= conf_radius per step, decided by the bracket max |P_ii| <=
    |P|_2 <= |P|_F with 1e-9 margins; the rows it leaves open, and those whose
    squares may underflow (|P|_F < 1e-140), are decomposed.  Each radius is
    sqrt(q) sqrt(norm), which cannot overflow."""
    P, err, q = cols.P, cols.err_norm, cols.q
    # max|P_ii| column by column: numpy's max over a short last axis is slow
    diagonal = reduce(np.maximum, np.abs(np.einsum("kii->ki", P)).T)
    squares = np.einsum("kij,kij->k", P, P)
    covered = err <= math.sqrt(q * (1 - 1e-9)) * np.sqrt(diagonal)
    rows = np.flatnonzero(~covered & ((squares < 1e-280) | (
        err <= math.sqrt(q * (1 + 1e-9)) * np.sqrt(np.sqrt(squares)))))
    covered[rows] = err[rows] <= np.sqrt(q * _spectral_norms(P[rows]))
    return covered


_MODES = {False: Mode.NORMAL, True: Mode.EMERGENCY}


def _first_step(mask: np.ndarray) -> Optional[int]:
    """The first step (1-based) where mask holds, else None."""
    return int(mask.argmax()) + 1 if mask.any() else None


@np.errstate(all="ignore")      # only the final guard reports non-finite values
def _simulate(config: ScenarioConfig, shared: ScenarioShared,
              detector_enabled: bool) -> _RunColumns:
    """Advance one closed-loop run and return its per-step columns; it
    starts on the trunk, the normal stretch from P = 0."""
    model, stacked = config.model, shared.stacked
    steps, n, m_G, plant = config.steps, model.n, model.m_G, stacked._plant
    det, delta = config.detector, config.detector.delta
    threshold = det.threshold(m_G) if detector_enabled else math.inf
    u_ref, L = _control_law(config.target, config.kp, config.kd, n)
    rng_w, rng_G, rng_I = (np.random.default_rng(s) for s in
                           np.random.SeedSequence(config.seed).spawn(3))
    sample_w, sample_G, sample_I = (s.sample for s in (
        shared.sampler_w, shared.sampler_G, shared.sampler_I))
    # The product's operand and the product, filled in place each step; no
    # column or state keeps a view of either.
    plant_in, z = np.empty(plant.shape[1]), np.empty(len(plant))
    x_in, u, w, v_G, v_I, error = np.split(plant_in, np.cumsum(
        (n, model.p, n, m_G, model.m_I)))
    x, y_G, y_I, d_hat = np.split(z, np.cumsum((n, m_G, model.m_I)))
    try:    # before the attack's (steps - onset, m_G) array
        xs, x_hats, us = (np.empty((steps, k)) for k in (n, n, model.p))
        Ps, S_col = np.empty((steps, n, n)), np.empty(steps)
        alarm_col = np.zeros(steps, dtype=bool)
    except (MemoryError, ValueError) as exc:    # ValueError: array is too big
        raise ConfigError(
            f"steps: {steps} steps cannot be allocated ({exc})") from exc
    onset = config.attack_onset()
    attack = config.attack.signal_range(onset + 1, steps + 1, m_G)

    x_in[:] = config.x0
    est = EstimatorState.initial(config.x0)
    est.stretch = shared.trunk
    S, alarmed = 0.0, False
    stretch, first, row = est.stretch, 0, 1     # Ps[first:] = stretch.P[row:]

    for i in range(steps):
        np.subtract(u_ref, L.dot(est.x_hat), out=u)
        sample_w(rng_w, out=w)
        sample_G(rng_G, out=v_G)
        sample_I(rng_I, out=v_I)
        np.subtract(x_in, est.x_hat, out=error)
        plant.dot(plant_in, out=z)
        x_in[...] = x
        if i >= onset:
            d = attack[i - onset]
            y_G += d
            d_hat += d

        # The detector sees the GPS innovation against the previous estimate
        # and covariance, in both modes; its alarm picks this step's mode.
        # P_d^{-1} is the state's stretch row's, read before this step's
        # mode replaces the state's.
        if detector_enabled:
            S = delta * S + normalized_residual(d_hat,
                                                _detector_weight(est, stacked))
            alarmed = S > threshold
        est.mode = _MODES[alarmed]
        est = fuse(est, model, stacked, u, y_G, y_I)
        if est.stretch is not stretch:
            Ps[first:i] = stretch.P[row:row + i - first]
            stretch, first, row = est.stretch, i, est.row

        xs[i], x_hats[i], us[i] = x, est.x_hat, u
        S_col[i], alarm_col[i] = S, alarmed
    Ps[first:] = stretch.P[row:row + steps - first]

    cols = _RunColumns(
        x=xs, x_hat=x_hats, u=us, S=S_col, alarmed=alarm_col,
        trace_P=np.trace(Ps, axis1=1, axis2=2),
        err_norm=np.linalg.norm(xs - x_hats, axis=-1), P=Ps,
        q=chi2_quantile(n, det.alpha))
    # Columns but S must be finite, S not NaN (min(S, 0) is 0 at inf, the
    # latched alarm); conf_radius can overflow only where |P|_F > 1e150.
    exported = (Ps, xs, x_hats, us, cols.trace_P, cols.err_norm,
                np.minimum(S_col, 0.0))
    big = np.flatnonzero(np.einsum("kij,kij->k", Ps, Ps) > 1e300)
    if big.size or not all(np.isfinite(col).all() for col in exported):
        finite = np.ones(steps, dtype=bool)
        for col in exported:
            finite &= np.isfinite(col.reshape(steps, -1)).all(axis=1)
        big = big[finite[big]]
        finite[big] = np.isfinite(np.sqrt(cols.q * _spectral_norms(Ps[big])))
        if not finite.all():
            raise NumericalError(f"run with seed {config.seed}: a value of "
                                 f"step {_first_step(~finite)} is not finite")
    return cols


def run_scenario(config: ScenarioConfig, *, detector_enabled: bool = True,
                 shared: Optional[ScenarioShared] = None) -> ScenarioTrace:
    """Execute one seeded closed-loop run; the trace it returns derives its
    escape analysis on first read.

    detector_enabled=False disables the alarm entirely (the statistic is not
    accumulated and the estimator stays in normal mode), matching an
    infinite-threshold detector.  A run without a shared builds its own
    trunk on a new ScenarioShared.
    """
    shared = shared or ScenarioShared(config.model)
    cols = _simulate(config, shared, detector_enabled)
    first_alarm = _first_step(cols.alarmed)
    # Detection latency is measured against the attack onset; noise can trip
    # transient alarms earlier, which are kept separate.  Without an attack
    # the onset is the horizon, so no alarm counts as a detection.
    detect_from = config.attack_onset()
    detection_step = _first_step(cols.alarmed[detect_from:])
    if detection_step is not None:
        detection_step += detect_from
    return ScenarioTrace(columns=cols, first_alarm_step=first_alarm,
                         attack_detection_step=detection_step, config=config)


def monte_carlo(config: ScenarioConfig, *, detector_enabled: bool = True,
                shared: Optional[ScenarioShared] = None) -> MonteCarloSummary:
    """Run `config.runs` independent scenarios with derived seeds and aggregate."""
    shared = shared or ScenarioShared(config.model)
    post_from = config.attack_onset()
    post_steps = config.steps - post_from

    # Arrays from the first run on, once _simulate has allocated the horizon.
    err_sum = covered_sum = 0
    summaries: List[RunSummary] = []
    for i in range(config.runs):
        seed = derive_run_seed(config.seed, i)
        trace = run_scenario(replace(config, seed=seed, runs=1),
                             detector_enabled=detector_enabled, shared=shared)
        cols = trace.columns
        err_sum += cols.x - cols.x_hat
        covered = _covered(cols)
        covered_sum += covered
        summaries.append(RunSummary(
            index=i, seed=seed, first_alarm_step=trace.first_alarm_step,
            attack_detection_step=trace.attack_detection_step,
            steps=config.steps, covered_steps=int(covered.sum()),
            post_attack_steps=post_steps,
            covered_post_attack=int(covered[post_from:].sum()),
            final_err_norm=float(cols.err_norm[-1])))

    return MonteCarloSummary(
        n_runs=config.runs, mean_error=err_sum / config.runs,
        coverage=covered_sum / config.runs, runs=summaries,
        attack_start=config.attack_start())


# --- configuration files -----------------------------------------------------

_TOP_KEYS = ("model", "x0", "target", "controller", "attack", "detector",
             "steps", "seed", "zeta_norm", "runs")


def builtin_config_path(name: str = "paper_uav"):
    """Path to a configuration shipped with the package."""
    return resources.files("spoofguard").joinpath("configs", f"{name}.json")


def parse_config(path) -> ScenarioConfig:
    """Read a scenario configuration file (strict schema): JSON types,
    unknown keys and the model's findings; ScenarioConfig checks the rest."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            finite = partial(_finite_float, path)
            raw = json.load(fh, parse_constant=finite, parse_float=finite,
                            parse_int=partial(_float_sized_int, path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    except OSError as exc:
        raise ConfigError(str(exc)) from exc

    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _reject_unknown(raw, _TOP_KEYS, "")

    if "model" not in raw:
        raise ConfigError("model: section is required")
    model_raw = _section(raw, "model", MATRIX_NAMES)
    missing = [k for k in MATRIX_NAMES if k not in model_raw]
    if missing:
        raise ConfigError(f"model: missing keys {missing}")
    matrices = {k: _numbers(model_raw[k], f"model.{k}") for k in MATRIX_NAMES}
    try:
        model = SystemModel(**matrices)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc
    findings = validate_model(model)
    if findings:
        raise ConfigError("model: " + "; ".join(findings))

    x0 = _numbers(raw.get("x0", [0.0] * model.n), "x0")
    target = _numbers(raw.get("target", [10.0] * model.p), "target")
    controller = _section(raw, "controller", ("kp", "kd"))
    det_raw = _section(raw, "detector", ("alpha", "delta"))
    return ScenarioConfig(
        model=model, x0=x0, target=target,
        kp=_number(controller, "kp", 1.0, "controller."),
        kd=_number(controller, "kd", 2.0, "controller."),
        attack=_parse_attack(raw.get("attack")),
        detector=DetectorConfig(
            alpha=_number(det_raw, "alpha", 0.01, "detector."),
            delta=_number(det_raw, "delta", 0.15, "detector.")),
        steps=raw.get("steps", 1000), seed=raw.get("seed", 0),
        zeta_norm=_number(raw, "zeta_norm", 2.0), runs=raw.get("runs", 1))


def _section(raw: dict, key: str, keys) -> dict:
    """raw[key] as an object holding only the given keys, {} when absent."""
    section = raw.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{key}: must be an object")
    _reject_unknown(section, keys, f"{key}.")
    return section


def _parse_attack(raw) -> AttackSignal:
    if raw is None:
        return AttackSignal.none()
    if not isinstance(raw, dict):
        raise ConfigError("attack: must be an object")
    _reject_unknown(raw, ("kind", "d", "start_step", "sequence"), "attack.")
    d, sequence = raw.get("d"), raw.get("sequence")
    if d is not None:
        d = _numbers(d, "attack.d")
    if sequence is not None:
        if not isinstance(sequence, list):
            raise ConfigError("attack.sequence: must be a list")
        sequence = [_numbers(s, f"attack.sequence[{i}]")
                    for i, s in enumerate(sequence)]
    return AttackSignal(kind=raw.get("kind", "none"), d=d,
                        start_step=raw.get("start_step", 0),
                        sequence=sequence)


def _finite_float(path, token: str) -> float:
    """json.load hook: NaN, Infinity, -Infinity and overflowing floats fail."""
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError(f"{path}: non-finite number {token} is not allowed")
    return value


def _float_sized_int(path, token: str) -> int:
    """json.load hook: an integer too large for a float fails."""
    if not math.isfinite(float(token)):
        raise ConfigError(f"{path}: integer of {len(token.lstrip('-'))} "
                          f"digits does not fit in a float")
    return int(token)


def _number(section: dict, key: str, default: float, prefix: str = "") -> float:
    """section[key] as a float from a JSON number; bools and strings fail."""
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{prefix}{key}: must be a number, "
                          f"got {reprlib.repr(value)}")
    return float(value)


def _numbers(value, name: str) -> np.ndarray:
    """A JSON number or nested list of numbers as a float array."""
    if not _all_numbers(value):
        raise ConfigError(f"{name}: must hold numbers only")
    try:
        return np.asarray(value, dtype=float)
    except ValueError as exc:       # ragged nesting
        raise ConfigError(f"{name}: {exc}") from exc


def _all_numbers(value) -> bool:
    if isinstance(value, list):
        return all(map(_all_numbers, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _reject_unknown(section: dict, allowed, prefix: str) -> None:
    unknown = [k for k in section if k not in allowed]
    if unknown:
        raise ConfigError(f"unknown key '{prefix}{unknown[0]}'")


# --- trace export -------------------------------------------------------------

def export_trace(trace: ScenarioTrace, path, fmt: str = CSV_FORMAT) -> None:
    """Write a trace to disk as CSV (per-step rows) or JSON (records + summary)."""
    if fmt == CSV_FORMAT:
        _export_csv(trace, path)
    elif fmt == JSON_FORMAT:
        _export_json(trace, path)
    else:
        raise ValueError(f"unknown export format {fmt!r}, expected 'csv' or 'json'")


# A JSON trace record's keys, in the order of the CSV columns.
_RECORD_KEYS = ("k", "x", "x_hat", "u", "S", "mode", "alarmed", "trace_P",
                "norm_P", "conf_radius", "err_norm")


def _export_rows(row: str, cols: _RunColumns, S: list) -> List[str]:
    """Each step's values in _RECORD_KEYS order, mode and alarmed as text."""
    before = np.hstack([cols.x, cols.x_hat, cols.u]).tolist()
    after = np.column_stack([cols.trace_P, cols.norm_P, cols.conf_radius,
                             cols.err_norm]).tolist()
    flags = [("emergency", "true") if a else ("normal", "false")
             for a in cols.alarmed.tolist()]
    return [row % (k, *b, s, *flag, *a) for k, b, s, flag, a in zip(
        range(1, len(flags) + 1), before, S, flags, after)]


def _export_csv(trace: ScenarioTrace, path) -> None:
    """One row per step, read from the columns; floats as '%.17g'."""
    cols = trace.columns
    n, p = cols.x.shape[1], cols.u.shape[1]
    header = (["k"]
              + [f"x{i + 1}" for i in range(n)]
              + [f"xhat{i + 1}" for i in range(n)]
              + [f"u{i + 1}" for i in range(p)]
              + ["S", "mode", "alarmed", "trace_P", "norm_P",
                 "conf_radius", "err_norm"])
    row = "%d," + "%.17g," * (2 * n + p + 1) + "%s,%s,%.17g,%.17g,%.17g,%.17g"
    lines = [",".join(header)] + _export_rows(row, cols, cols.S.tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _export_json(trace: ScenarioTrace, path) -> None:
    """Records from the columns, one JSON object per line, then the summary.

    A record is one %-template filled with the bytes json.dumps writes for
    its dict: %r for floats, json's text while finite (the run's guard keeps
    all but S finite), and S as json.dumps writes it, inf as Infinity.
    """
    cols = trace.columns
    summary = trace.summary()
    if trace.escape is not None:
        summary["escape_report"] = trace.escape.to_dict()
        summary["escape_report"]["k_escape_from_alarm"] = trace.escape_time_from_alarm
    x, u = ("[" + ", ".join(["%r"] * a.shape[1]) + "]"
            for a in (cols.x, cols.u))
    slots = ("%d", x, x, u, "%s", '"%s"', "%s", "%r", "%r", "%r", "%r")
    row = "{" + ", ".join(f'"{key}": {slot}' for key, slot in
                          zip(_RECORD_KEYS, slots)) + "}"
    records = _export_rows(row, cols,
                           json.dumps(cols.S.tolist())[1:-1].split(", "))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"records": [\n')
        fh.write(",\n".join(records))
        fh.write('\n], "summary": ')
        fh.write(json.dumps(summary, indent=2))
        fh.write("}\n")

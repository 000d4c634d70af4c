"""Offline analysis: stationary covariance, drift structure, escape time.

Norm conventions used throughout the escape-time analysis:

* the size of a covariance matrix is measured with the Frobenius norm, which
  upper-bounds the worst-direction standard deviation and therefore declares
  escape earlier (the conservative side for a safety margin);
* the growth factor of the dead-reckoning recursion uses the spectral norm
  of A and of the additive noise floor Sigma_bar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .chi2 import chi2_quantile
from .estimator import Mode, StackedSensorForms, _apply
from .exceptions import ConvergenceError, NumericalError
from .model import SystemModel, _read_only

# stationary_covariance's relative stop test and doubling cap; escape_time
# searches the rows below row 2^MAX_DOUBLINGS.
FIXED_POINT_TOL = 1e-12
MAX_DOUBLINGS = 64


def spectral_norm(M) -> float:
    """Largest singular value."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return 0.0
    if M.shape[0] == M.shape[1] and (M == M.T).all():
        return float(_spectral_norms(M[None])[0])
    return float(np.linalg.norm(M, 2))


def _spectral_norms(Ms: np.ndarray) -> np.ndarray:
    """max(lambda_max, -lambda_min) of each symmetric M, its largest singular
    value, by one eigvalsh (much cheaper than an SVD)."""
    eigvals = np.linalg.eigvalsh(Ms)
    return np.maximum(eigvals[:, -1], -eigvals[:, 0])


@np.errstate(over="ignore", invalid="ignore")
def covariance_magnitude(P):
    """Frobenius norm, the escape analysis's covariance size, of P (a float)
    or of each P of a stack (an array).  A sum of squares out of the float
    range is redone at the power of two of its matrix's largest entry."""
    P = np.asarray(P, dtype=float)
    flat = P.reshape(*P.shape[:-2], 1, P.shape[-2] * P.shape[-1])
    square = (flat @ flat.swapaxes(-1, -2))[..., 0, 0]  # flat.dot(flat)'s bits
    magnitudes = np.sqrt(square)
    redo = ~(square >= 1e-290) | (square == math.inf)
    if redo.any():
        scale = np.ldexp(1.0, np.frexp(np.abs(flat).max(
            axis=(-2, -1), initial=0.0))[1] - 1)
        flat = flat / scale[..., None, None]
        magnitudes = np.where(redo, np.sqrt(
            (flat @ flat.swapaxes(-1, -2))[..., 0, 0]) * scale, magnitudes)
    return float(magnitudes) if P.ndim == 2 else magnitudes


@dataclass(frozen=True)
class DriftAnalysis:
    """Derived matrices describing dead-reckoning error growth.

    C_bar_I = C_I (I - A^{-1}) is the output matrix of the equivalent
    filtering problem seen by the relative sensor alone; L decouples its
    process and measurement noises; A_bar = (I - L C_bar_I) A is the
    decoupled transition; Sigma_bar is the per-step covariance floor added
    during dead reckoning; drift_free is True when the relative sensor carries
    no drift structure (C_bar_I = 0).  C_bar_I, Sigma_bar and drift_free are
    read from StackedSensorForms, which defines them.  The arrays are
    read-only.
    """

    C_bar_I: np.ndarray
    L: np.ndarray
    A_bar: np.ndarray
    Sigma_bar: np.ndarray
    gps_pair_detectable: bool
    drift_pair_detectable: bool
    drift_free: bool


@dataclass
class EscapeTimeReport:
    """Escape horizon (None: never) plus the closed-form lower bound and its
    inputs; to_dict writes a bound that is not finite as None."""

    k_escape: Optional[int]
    k_lower_bound: Optional[float]
    zeta: float
    alpha: float
    df: int
    stationary_P: np.ndarray
    norm_A: float
    branch: str

    def to_dict(self) -> dict:
        return {
            "k_escape": None if self.k_escape is None else int(self.k_escape),
            "k_lower_bound": None if self.k_lower_bound is None or not
            math.isfinite(self.k_lower_bound) else float(self.k_lower_bound),
            "zeta": self.zeta,
            "alpha": float(self.alpha),
            "df": int(self.df),
            "stationary_trace_P": float(np.trace(self.stationary_P)),
            "norm_A": float(self.norm_A),
            "branch": self.branch,
        }


def is_detectable(C, A) -> bool:
    """Rank test: every eigenvalue of A with |lambda| >= 1 must be visible in C.

    For each such eigenvalue the stacked matrix [A - lambda I; C] must have
    full column rank; rank is counted against the threshold 1e-8 sigma_max.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n = A.shape[0]
    if C.shape[0] and C.shape[1] != n:
        raise ValueError(f"C has {C.shape[1]} columns, expected {n}")
    for lam in np.linalg.eigvals(A):
        if abs(lam) < 1.0 - 1e-9:       # margin absorbs eigenvalue roundoff
            continue
        stackmat = np.vstack([A - lam * np.eye(n), C.astype(complex)])
        sv = np.linalg.svd(stackmat, compute_uv=False)
        rank = int(np.sum(sv > 1e-8 * sv[0])) if sv.size else 0
        if rank < n:
            return False
    return True


def drift_matrices(model: SystemModel) -> DriftAnalysis:
    """Build the dead-reckoning drift structure from the model's
    StackedSensorForms; requires invertible A."""
    n = model.n
    stacked = model._derived(StackedSensorForms)
    A_inv, C_bar = stacked.A_inv, stacked.C_bar_I
    CI_Ainv = model.C_I @ A_inv

    if model.m_I == 0:
        L = np.zeros((n, 0))
    else:
        lhs = (C_bar + C_bar @ A_inv) @ model.Sigma_w @ CI_Ainv.T + model.Sigma_I
        rhs = model.Sigma_w @ CI_Ainv.T
        try:
            L = np.linalg.solve(lhs.T, rhs.T).T
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                "noise-decoupling system is singular") from exc

    A_bar = (np.eye(n) - L @ C_bar) @ model.A
    return DriftAnalysis(
        C_bar_I=_read_only(C_bar),
        L=_read_only(L),
        A_bar=_read_only(A_bar),
        Sigma_bar=_read_only(stacked.Sigma_bar),
        gps_pair_detectable=is_detectable(model.C_G, model.A),
        drift_pair_detectable=is_detectable(C_bar, A_bar),
        drift_free=stacked.drift_free,
    )


def stationary_covariance(model: SystemModel) -> np.ndarray:
    """Fixed point of the optimal-gain covariance recursion.

    Solves the recursion's Riccati equation by structure-preserving doubling
    after removing its cross term (Anderson & Moore, Optimal Filtering, 1979;
    Chu, Fan, Lin et al.): doubling k reads H_m of the normal mode's m =
    2^k-step triple (A_m, G_m, H_m) from the model's StackedSensorForms, for
    k up to MAX_DOUBLINGS, and stops on its own doublings.  From P = 0 they
    never decrease, H_2m - H_m = A_m^T H_m (I + G_m H_m)^{-1} A_m >= 0, so
    converged means |H_2m - H_m| <= FIXED_POINT_TOL * |H_2m| < inf
    (covariance_magnitude's norm), a relative test at every scale that a
    fixed point meets exactly (Sigma_w = 0, or A_m = 0).  The fixed point is
    returned read-only.  Raises ConvergenceError (carrying the last iterate
    and residual) when MAX_DOUBLINGS doublings do not converge or an
    iterate is not finite, and fails fast on an undetectable GPS pair.
    """
    stacked = model._derived(StackedSensorForms)
    if not is_detectable(model.C_G, model.A):
        raise NumericalError(
            "(C_G, A) is not detectable: the covariance recursion has no "
            "bounded fixed point")
    H, resid = stacked._power(Mode.NORMAL, 0)[2], math.inf
    for doublings in range(1, MAX_DOUBLINGS + 1):
        previous, H = H, stacked._power(Mode.NORMAL, doublings)[2]
        if not np.isfinite(H).all():
            raise ConvergenceError(
                f"non-finite covariance after {doublings} doublings",
                last_iterate=H, residual=math.inf)
        resid = covariance_magnitude(H - previous)
        if resid <= FIXED_POINT_TOL * covariance_magnitude(H) < math.inf:
            return H
    raise ConvergenceError(
        f"covariance fixed point not reached in {MAX_DOUBLINGS} doublings "
        f"(last residual {resid:.3e})", last_iterate=H, residual=resid)


def _start(P, model: SystemModel, name: str) -> np.ndarray:
    """P as an (n, n) float array: ValueError, naming the argument, for
    another shape, and NumericalError for a NaN or infinite entry."""
    P = np.asarray(P, dtype=float)
    if P.shape != (model.n,) * 2:
        raise ValueError(f"{name} must have shape {(model.n,) * 2}, got "
                         f"{P.shape}")
    if not np.isfinite(P).all():
        raise NumericalError("non-finite covariance at the attack step")
    return P


def _tolerance(zeta, name: str) -> float:
    """zeta as a float (TypeError for an array of several entries), and
    ValueError, naming the argument, unless it is > 0."""
    zeta = float(zeta)
    if not zeta > 0.0:
        raise ValueError(f"{name} must be > 0, got {zeta}")
    return zeta


def _growth(model: SystemModel):
    """||A||_2 and the escape bound's branch: "unit-norm" when ||A||_2 is 1
    within 1e-12, where the geometric sum degenerates, else "general"."""
    norm_A = spectral_norm(model.A)
    return norm_A, "unit-norm" if abs(norm_A - 1.0) <= 1e-12 else "general"


@np.errstate(over="ignore", invalid="ignore", divide="ignore")     # helpers too
def escape_time(P_at_attack: np.ndarray, model: SystemModel, zeta: float,
                alpha: float) -> Optional[int]:
    """Steps of dead reckoning until the error tolerance stops being credible,
    None when it never does.

    The statistic is the squared norm tolerance zeta^2 divided by the
    Frobenius magnitude of P_k (inf when that is zero), tested against the
    chi-square quantile with n degrees of freedom, the state dimension.
    Counting starts at the covariance supplied for the attack step: 0 when
    the tolerance is not credible there, "never" when zeta^2 overflows.
    ValueError for a start not (n, n) or a zeta not > 0; NumericalError for
    a NaN or infinite entry in the start or a row read.

    Row k is f^k(P), f dead reckoning's one-step map.  f and the Frobenius
    norm are monotone on PSD matrices (Bitmead, Gevers, Petersen & Kaye,
    1985): once P <= f^m(P), m = 2^b, no class of rows mod m decreases, so
    block t, rows t m .. t m + m - 1, holds a row not credible from some t
    on.  Block 0 is read by doubling (half l: power triple l on the rows
    before it), returning at a row not credible, up to the first b whose
    row 2^b, or trunk row H_{2^b} = f^{2^b}(0), lies above P: it holds at
    most 2^b rows, 2^b < 2 i if trunk row H_i does.  Galloping (power
    triple b + l maps block 0 to block 2^l; past the last finite triple,
    strides by it) and bisecting find the first block with such a row.

    The trunk only certifies "never": its galloping rows H_{2^l}, the power
    triples' H parts, are read without a map up to one not credible or one
    repeating the last bit for bit, a fixed point H; then P is "never" if
    it lies below H or c H is credible, c = max(1, lambda_max(P) /
    lambda_min(H)) (f(c Q) <= c f(Q): a Joseph form is T Q T^T + N, N >=
    0).  So is a start whose galloping block repeats the last bit for bit.
    ConvergenceError: the escape time is left open for a start not PSD,
    one with a fixed-point trunk that c H does not certify, and one that no
    trunk or own row 2^l of a finite power triple lies above; "still
    credible" when row 2^MAX_DOUBLINGS would be next.
    """
    P = _start(P_at_attack, model, "P_at_attack")
    zeta = _tolerance(zeta, "zeta")
    quantile, zeta_sq = chi2_quantile(model.n, alpha), zeta * zeta

    def credible(Ps):   # whether each statistic (inf at 0) is above quantile
        return zeta_sq / covariance_magnitude(Ps) > quantile

    if not credible(P[None])[0]:
        return 0
    if zeta_sq == math.inf:     # zeta past 1e154
        return None
    if not _lies_below(np.zeros_like(P), P[None])[0]:
        raise ConvergenceError("escape time left open: no row of the emergency"
                               " trunk lies below the start", last_iterate=P)
    power = partial(model._derived(StackedSensorForms)._power, Mode.EMERGENCY)
    H = np.zeros_like(P)        # H_0, then the trunk's galloping rows
    for triple in map(power, range(MAX_DOUBLINGS)):
        if not (np.isfinite(triple).all() and credible(triple[2][None])[0]):
            break
        if triple[2].tobytes() == H.tobytes():
            eigvals = np.linalg.eigvalsh(np.stack([P, H]))
            scale = max(1.0, eigvals[0, -1] / max(eigvals[1, 0], 0.0))
            if _lies_below(P, H[None])[0] or credible(scale * H[None])[0]:
                return None
            raise ConvergenceError(
                "escape time left open: the emergency trunk never escapes, "
                "and its limit scaled to lie above the start is not credible",
                last_iterate=P)
        H = triple[2]

    rows, b, above = P[None], 0, None       # block 0 by doubling
    while True:
        half = _apply(power(b), rows)
        if not credible(half).all():
            return _first_miss(half, len(rows), credible)
        if _lies_below(P, half[:1])[0]:
            break
        if above is None:
            above = _level_above(P, power)
        if b == above:      # P <= H_{2^b} <= row 2^b
            break
        rows, b = np.concatenate([rows, half]), b + 1

    t, block, level, top = 1, half, 1, MAX_DOUBLINGS    # block t: credible
    while True:
        stride = b + level > top
        ahead = t + (1 << (top - b)) if stride else 1 << level
        if ahead << b >= 1 << MAX_DOUBLINGS:
            value = zeta_sq / covariance_magnitude(block[-1:])[0]
            raise ConvergenceError(
                f"tolerance still credible after {((t + 1) << b) - 1} steps "
                f"(last statistic {value:.6g} > quantile {quantile:.6g})",
                block[-1], value)
        triple = power(top if stride else b + level)
        if not np.isfinite(triple).all():
            top = b + level - 1
            continue
        candidate = _apply(triple, block if stride else rows)
        if not credible(candidate).all():
            break
        if candidate.tobytes() == block.tobytes():
            return None
        t, block, level = ahead, candidate, level + 1
    for level in reversed(range((ahead - t).bit_length() - 1)):
        lower = _apply(power(b + level), block)
        if credible(lower).all():
            t, block = t + (1 << level), lower
        else:
            candidate = lower
    return _first_miss(candidate, (t + 1) << b, credible)


def _lies_below(P, Hs) -> np.ndarray:
    """Whether P <= H for each H of the stack Hs: H - P, scaled to the unit
    diagonal of H + P so that each direction's roundoff is at its own size,
    has no eigenvalue below -1e-12 times its largest."""
    diagonal = np.diagonal(Hs, axis1=-2, axis2=-1) + np.diagonal(P)
    s = 1.0 / np.sqrt(np.where(diagonal > 0.0, diagonal, 1.0))
    eigvals = np.linalg.eigvalsh((Hs - P) * s[:, :, None] * s[:, None, :])
    return eigvals[:, 0] >= -1e-12 * eigvals[:, -1]


def _level_above(P, power) -> int:
    """The first level l of a finite power triple whose trunk row H_{2^l}
    lies above P, or else whose row 2^l, f^{2^l}(P), does (or overflows);
    ConvergenceError (open) if none does."""
    for own in (False, True):       # trunk rows first: they take no map
        for level in range(MAX_DOUBLINGS):
            triple = power(level)
            if not np.isfinite(triple).all():
                break
            row = _apply(triple, P) if own else triple[2]
            if not np.isfinite(row).all() or _lies_below(P, row[None])[0]:
                return level
    raise ConvergenceError("escape time left open: no row of the emergency "
                           "trunk lies above the start", last_iterate=P)


def _first_miss(rows, k: int, credible) -> int:
    """The step of the first of rows, steps k on, that is not credible;
    NumericalError if that row is not finite."""
    at = int((~credible(rows)).argmax())
    if not np.isfinite(rows[at]).all():
        raise NumericalError(
            f"non-finite covariance at dead-reckoning step {k + at}")
    return k + at


def escape_time_lower_bound(P: np.ndarray, model: SystemModel,
                            zeta_norm: float, alpha: float) -> float:
    """Closed-form lower bound on the escape time, for drift-free models.

    Requires C_I (I - A^{-1}) = 0 so that dead reckoning reduces to
    P_k = A P_{k-1} A^T + Sigma_bar.  The bound sees P through its Frobenius
    magnitude and A, Sigma_bar through their spectral norms; when the spectral
    norm of A is 1 the geometric sum degenerates and the linear branch is
    used.  Results below zero clamp to zero (tolerance already exceeded).
    ValueError for a P whose shape is not (n, n) or a zeta_norm not > 0;
    NumericalError for a NaN or infinite entry in P.
    """
    P, zeta_norm = _start(P, model, "P"), _tolerance(zeta_norm, "zeta_norm")
    drift = model._derived(drift_matrices)
    if not drift.drift_free:
        raise ValueError(
            "escape-time lower bound requires a drift-free relative sensor "
            "(C_I (I - A^{-1}) = 0); this model has "
            f"max |C_bar_I| = {np.abs(drift.C_bar_I).max():.3e}")

    quantile = chi2_quantile(model.n, alpha)
    target = zeta_norm * zeta_norm / quantile  # inf past 1e154
    norm_A, branch = _growth(model)
    norm_P = covariance_magnitude(P)
    norm_S = spectral_norm(drift.Sigma_bar)

    if target <= norm_P:
        return 0.0  # tolerance already exceeded at the attack step
    if norm_P == 0.0 and norm_S == 0.0:
        return math.inf  # P_k = 0 at every step: the tolerance stays credible

    if branch == "unit-norm":
        return (target - norm_P) / norm_S if norm_S > 0.0 else math.inf

    growth = norm_A * norm_A
    offset = norm_S / (growth - 1.0)
    numerator = target + offset
    denominator = norm_P + offset
    if growth > 1.0:
        # offset > 0 and target > norm_P, so the logarithm is well defined.
        return math.log(numerator / denominator) / math.log(growth)
    # Contracting A: the norm bound tends to norm_S / (1 - growth).  The
    # target is reachable only from below that limit.
    if numerator >= 0.0 or denominator >= 0.0:
        return math.inf
    return math.log(numerator / denominator) / math.log(growth)


def escape_report(model: SystemModel, zeta_norm: float,
                  alpha: float) -> EscapeTimeReport:
    """Escape time and lower bound from the stationary covariance, which,
    like the drift analysis, the model keeps from its first use; ValueError
    for a zeta_norm not > 0."""
    zeta_norm = _tolerance(zeta_norm, "zeta_norm")
    stationary_P = model._derived(stationary_covariance)
    k_esc = escape_time(stationary_P, model, zeta_norm, alpha)
    norm_A, branch = _growth(model)
    k_lb = None
    if model._derived(drift_matrices).drift_free:
        k_lb = escape_time_lower_bound(stationary_P, model, zeta_norm, alpha)
    return EscapeTimeReport(
        k_escape=k_esc, k_lower_bound=k_lb, zeta=zeta_norm,
        alpha=alpha, df=model.n, stationary_P=stationary_P, norm_A=norm_A,
        branch=branch)

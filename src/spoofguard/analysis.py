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
from typing import Optional

import numpy as np

from .chi2 import chi2_quantile
from .estimator import Mode, StackedSensorForms, _apply, _chunk
from .exceptions import ConvergenceError, NumericalError
from .model import SystemModel, _read_only

# stationary_covariance's relative stop test and doubling cap; escape_time
# searches its emergency trunk's rows below row 2^MAX_DOUBLINGS.
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


def _finite_covariance(P) -> np.ndarray:
    """P as a float array; NumericalError if an entry is NaN or infinite."""
    P = np.asarray(P, dtype=float)
    if not np.isfinite(P).all():
        raise NumericalError("non-finite covariance at the attack step")
    return P


def _growth(model: SystemModel):
    """||A||_2 and the escape bound's branch: "unit-norm" when ||A||_2 is 1
    within 1e-12, where the geometric sum degenerates, else "general"."""
    norm_A = spectral_norm(model.A)
    return norm_A, "unit-norm" if abs(norm_A - 1.0) <= 1e-12 else "general"


@np.errstate(over="ignore", invalid="ignore")      # for its helpers too
def escape_time(P_at_attack: np.ndarray, model: SystemModel, zeta: float,
                alpha: float) -> Optional[int]:
    """Steps of dead reckoning until the error tolerance stops being credible,
    None when it never does.

    The statistic is the squared norm tolerance zeta^2 divided by the
    Frobenius magnitude of P_k (inf when that is zero), tested against the
    chi-square quantile with n degrees of freedom, the state dimension.
    Counting starts at the covariance supplied for the attack step: 0 when
    the tolerance is not credible there, "never" when zeta^2 overflows.  A
    NaN or infinite entry in it, or in a row read, raises NumericalError.

    The emergency map f and the Frobenius norm are monotone on PSD matrices
    (Bitmead, Gevers, Petersen & Kaye, 1985), so H_j <= P <= H_i on the
    trunk H_k = f^k(0) (_trunk: escape step k_0) puts the escape step in
    [k_0 - i, k_0 - j]: i is the first trunk row read above P, or one probe
    between it and the last read below, or, when none is, a power row past
    them (then i > k_0); the power triples carry P max(0, k_0 - i) steps,
    and at most i - j rows are read.  If k_0 is "never", so is P <= c H_inf,
    c = max(1, lambda_max(P) / lambda_min(H_inf)), if c H_inf is credible
    (f(c Q) <= c f(Q): a Joseph form is T Q T^T + N, N >= 0).  A start not
    PSD, above every row read and every power row of a finite triple, or
    not "never" by the scaled limit, is open: ConvergenceError.
    """
    quantile = chi2_quantile(model.n, alpha)
    zeta_sq = float(zeta) * float(zeta)     # inf past 1e154

    def credible(Ps):   # each statistic (inf at 0), and if above quantile
        m = covariance_magnitude(Ps)
        value = np.divide(zeta_sq, m, out=np.full_like(m, math.inf),
                          where=m != 0.0)
        return value, value > quantile

    stacked = model._derived(StackedSensorForms)
    P = _finite_covariance(P_at_attack)
    if not credible(P[None])[1][0]:
        return 0
    if zeta_sq == math.inf:
        return None
    if not _lies_below(np.zeros_like(P), P[None])[0]:
        raise ConvergenceError("escape time left open: no row of the emergency"
                               " trunk lies below the start", last_iterate=P)
    k_0, rows, top = _trunk(credible, quantile, stacked)
    ks = sorted(rows)
    above = _lies_below(P, np.stack([rows[k] for k in ks]))
    if k_0 is None:
        eigvals = np.linalg.eigvalsh(np.stack([P, rows[ks[-1]]]))
        scale = max(1.0, eigvals[0, -1] / eigvals[1, 0]) \
            if eigvals[1, 0] > 0.0 else math.inf
        if above.any() or credible(scale * rows[ks[-1]][None])[1][0]:
            return None
        raise ConvergenceError(
            "escape time left open: the emergency trunk never escapes, and "
            "its limit scaled to lie above the start is not credible",
            last_iterate=P)
    lo, start = 0, P    # or a power row past those read lies above P
    if above.any():
        at = int(above.argmax())
        i = ks[at]
        if at and i - ks[at - 1] > 1:     # a row between: the rows read halve
            level = (i - ks[at - 1] - 1).bit_length() - 1
            probe = _apply(stacked._power(Mode.EMERGENCY, level),
                           rows[ks[at - 1]])
            if _lies_below(P, probe[None])[0]:
                i = ks[at - 1] + (1 << level)
        lo = max(0, k_0 - i)
    elif not _below_a_power_row(P, ks[-1].bit_length(), stacked):
        raise ConvergenceError(
            "escape time left open: no row of the emergency trunk lies above "
            "the start", last_iterate=P)
    for level in (b for b in range(lo.bit_length()) if lo >> b & 1):
        triple = stacked._power(Mode.EMERGENCY, min(level, top))
        for _ in range(1 << max(0, level - top)):   # finite triples only
            start = _apply(triple, start)
    return _first_escape(start, lo, credible, stacked)


def _trunk(credible, quantile, stacked):
    """(k_0, rows, top): the emergency trunk's escape step ("never": None),
    the rows {k: H_k} read, and the last level whose power triple is finite
    (or MAX_DOUBLINGS).  Galloping reads row 2^l, H_m of the m = 2^l-step
    triple (A_m, G_m, H_m), for l up to top, then strides by top's triple,
    H_{k+m} = H_m + A_m^T H_k (I + G_m H_k)^{-1} A_m, to a miss; bisecting
    tries each smaller triple once.  "Never": a credible galloping row
    repeats the last bit for bit, a fixed point (Sigma_bar or an A_m exactly
    0).  ConvergenceError when row 2^MAX_DOUBLINGS would be next."""
    H = np.zeros_like(stacked.Sigma_bar)
    k, rows, level, top = 0, {0: H}, 0, MAX_DOUBLINGS
    while True:
        row = 1 << level if level <= top else k + (1 << top)
        if row >= 1 << MAX_DOUBLINGS:
            value = float(credible(H[None])[0][0])
            raise ConvergenceError(
                f"tolerance still credible after {k} steps (last statistic "
                f"{value:.6g} > quantile {quantile:.6g})", H, value)
        if level > top:
            candidate = _apply(stacked._power(Mode.EMERGENCY, top), H)
        else:
            triple = stacked._power(Mode.EMERGENCY, level)
            if not np.isfinite(triple).all():   # not an overflowing row
                top = level - 1
                continue
            candidate = triple[2]
        rows[row] = candidate
        if not credible(candidate[None])[1][0]:
            break
        if candidate.tobytes() == H.tobytes():
            return None, rows, top
        k, H, level = row, candidate, level + 1
    for level in reversed(range((row - k).bit_length() - 1)):   # below row - k
        candidate = _apply(stacked._power(Mode.EMERGENCY, level), H)
        rows[k + (1 << level)] = candidate
        if credible(candidate[None])[1][0]:
            k, H = k + (1 << level), candidate
    return k + 1, rows, top


def _lies_below(P, Hs) -> np.ndarray:
    """Whether P <= H for each H of the stack Hs: H - P, scaled to the unit
    diagonal of H + P so that each direction's roundoff is at its own size,
    has no eigenvalue below -1e-12 times its largest."""
    diagonal = np.diagonal(Hs, axis1=-2, axis2=-1) + np.diagonal(P)
    s = 1.0 / np.sqrt(np.where(diagonal > 0.0, diagonal, 1.0))
    eigvals = np.linalg.eigvalsh((Hs - P) * s[:, :, None] * s[:, None, :])
    return eigvals[:, 0] >= -1e-12 * eigvals[:, -1]


def _below_a_power_row(P, level: int, stacked) -> bool:
    """Whether P lies below a trunk row 2^l, l from level on, read from a
    finite power triple of fewer than 2^MAX_DOUBLINGS steps."""
    for level in range(level, MAX_DOUBLINGS):
        triple = stacked._power(Mode.EMERGENCY, level)
        if not np.isfinite(triple).all():
            return False
        if _lies_below(P, triple[2][None])[0]:
            return True
    return False


def _first_escape(P, k: int, credible, stacked) -> int:
    """The first step from k, P's, whose row (by emergency stretch chunks,
    _chunk) is not credible; NumericalError if that row is not finite."""
    rows = np.empty((stacked._table(Mode.EMERGENCY)[2] + 1, *P.shape))
    rows[0], lo, done = P, -1, 0        # row 0 is step k
    while True:
        miss = ~credible(rows[lo + 1:done + 1])[1]      # a non-finite row too
        if miss.any():
            at = lo + 1 + int(miss.argmax())
            if not np.isfinite(rows[at]).all():
                raise NumericalError("non-finite covariance at "
                                     f"dead-reckoning step {k + at}")
            return k + at
        if done == len(rows) - 1:
            rows[0], k, done = rows[done], k + done, 0
        lo, done = done, _chunk(rows, done, Mode.EMERGENCY, stacked)


def escape_time_lower_bound(P: np.ndarray, model: SystemModel,
                            zeta_norm: float, alpha: float) -> float:
    """Closed-form lower bound on the escape time, for drift-free models.

    Requires C_I (I - A^{-1}) = 0 so that dead reckoning reduces to
    P_k = A P_{k-1} A^T + Sigma_bar.  The bound sees P through its Frobenius
    magnitude and A, Sigma_bar through their spectral norms; when the spectral
    norm of A is 1 the geometric sum degenerates and the linear branch is
    used.  Results below zero clamp to zero (tolerance already exceeded).
    A NaN or infinite entry in P raises NumericalError.
    """
    P = _finite_covariance(P)
    drift = model._derived(drift_matrices)
    if not drift.drift_free:
        raise ValueError(
            "escape-time lower bound requires a drift-free relative sensor "
            "(C_I (I - A^{-1}) = 0); this model has "
            f"max |C_bar_I| = {np.abs(drift.C_bar_I).max():.3e}")

    quantile = chi2_quantile(model.n, alpha)
    target = float(zeta_norm) * float(zeta_norm) / quantile  # inf past 1e154
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
    like the drift analysis, the model keeps from its first use."""
    stationary_P = model._derived(stationary_covariance)
    k_esc = escape_time(stationary_P, model, float(zeta_norm), alpha)
    norm_A, branch = _growth(model)
    k_lb = None
    if model._derived(drift_matrices).drift_free:
        k_lb = escape_time_lower_bound(stationary_P, model, float(zeta_norm),
                                       alpha)
    return EscapeTimeReport(
        k_escape=k_esc, k_lower_bound=k_lb, zeta=float(zeta_norm),
        alpha=alpha, df=model.n, stationary_P=stationary_P, norm_A=norm_A,
        branch=branch)

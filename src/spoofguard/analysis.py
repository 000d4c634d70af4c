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
from .estimator import Mode, StackedSensorForms, _apply, _Stretch
from .exceptions import ConvergenceError, NumericalError
from .model import SystemModel, _read_only

# stationary_covariance's relative stop test and doubling cap, the cap
# of escape_time's doubling search, and its step loop's budget.
FIXED_POINT_TOL = 1e-12
MAX_DOUBLINGS = 64
STEP_BUDGET = 100_000


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


def covariance_magnitude(P) -> float:
    """Frobenius norm, the covariance-size measure of the escape analysis; a
    sum of squares out of the float range is redone at a power-of-two scale."""
    flat = np.asarray(P, dtype=float).ravel(order="K")
    square = np.vdot(flat, flat)    # flat.dot(flat)'s bits, without a warning
    if (square == math.inf or square < 1e-290) and np.isfinite(flat).all():
        scale = 2.0 ** (math.frexp(np.abs(flat).max(initial=0.0))[1] - 1)
        return math.sqrt(np.vdot(flat / scale, flat / scale)) * scale
    return math.sqrt(square)


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


def _finite_covariance(P, where: str = "the attack step") -> np.ndarray:
    """P as a float array; NumericalError naming where if an entry is NaN
    or infinite."""
    P = np.asarray(P, dtype=float)
    if not np.isfinite(P).all():
        raise NumericalError(f"non-finite covariance at {where}")
    return P


def _growth(model: SystemModel):
    """||A||_2 and the escape bound's branch: "unit-norm" when ||A||_2 is 1
    within 1e-12, where the geometric sum degenerates, else "general"."""
    norm_A = spectral_norm(model.A)
    return norm_A, "unit-norm" if abs(norm_A - 1.0) <= 1e-12 else "general"


def escape_time(P_at_attack: np.ndarray, model: SystemModel, zeta: float,
                alpha: float) -> Optional[int]:
    """Steps of dead reckoning until the error tolerance stops being credible,
    None when it never does.

    The statistic is the squared norm tolerance zeta^2 divided by the
    Frobenius magnitude of P_k (inf when that is zero), tested against the
    chi-square quantile with n degrees of freedom, the state dimension.
    Counting starts at the covariance supplied for the attack step; the
    count is 0 when the tolerance is already not credible there.  A NaN or
    infinite entry in it, or in an iterate read, raises NumericalError
    naming that step.

    None ("never") follows from an exact rule only: zeta^2 overflows (the
    statistic is inf at every finite P); one step returns the start bit for
    bit, as with Sigma_w = 0; the doubling search's limit is credible; or
    P - f(P) passes _grows, so the statistic never falls.  From a start that
    passes _grows, _doubling_search answers in O(log k) products over the
    power triples of the model's StackedSensorForms, at any k below
    2^MAX_DOUBLINGS.  Other starts, and a search meeting a non-finite
    value, read emergency stretch rows for at most STEP_BUDGET steps.  A
    tolerance still credible at either cap raises ConvergenceError.
    """
    quantile = chi2_quantile(model.n, alpha)
    zeta_sq = float(zeta) * float(zeta)     # inf past 1e154

    def statistic(P):
        magnitude = covariance_magnitude(P)
        return zeta_sq / magnitude if magnitude > 0.0 else math.inf

    stacked = model._derived(StackedSensorForms)
    P = _finite_covariance(P_at_attack)
    if not statistic(P) > quantile:
        return 0
    P_next = _apply(stacked._power(Mode.EMERGENCY, 0), P)
    if zeta_sq == math.inf or P_next.tobytes() == P.tobytes():
        return None
    if _grows(P, P_next):
        found = _doubling_search(P_next, quantile, statistic, stacked)
        if found is not None:
            return None if found == math.inf else found
    elif _grows(P, P_next, -1.0):
        return None
    iterates = _dead_reckoning(P, stacked)
    for k in range(1, STEP_BUDGET + 1):
        value = statistic(_finite_covariance(next(iterates),
                                             f"dead-reckoning step {k}"))
        if not value > quantile:
            return k
    raise _still_credible(STEP_BUDGET, value, quantile, next(iterates))


def _still_credible(steps, value, quantile, P) -> ConvergenceError:
    """The error for a tolerance credible after `steps` steps, value being
    that step's statistic, carrying P."""
    return ConvergenceError(
        f"tolerance still credible after {steps} steps "
        f"(last statistic {value:.6g} > quantile {quantile:.6g})",
        last_iterate=P, residual=value)


def _dead_reckoning(P, stacked: StackedSensorForms):
    """Dead reckoning's f^k(P), k = 1, 2, ..., the emergency stretch's rows."""
    stretch = _Stretch(Mode.EMERGENCY, P, stacked)
    while True:
        for j in range(len(stretch.F)):
            stretch._ready(j)
            yield stretch.P[j + 1]
        stretch = stretch.restart


def _grows(P: np.ndarray, P_next: np.ndarray, sign: float = 1.0) -> bool:
    """escape_time's doubling condition, by one eigvalsh: P_0 = P (as each
    step leaves it, symmetric) and sign D_0 = sign (P_next - P_0) positive
    semidefinite (smallest eigenvalue >= -1e-12 x largest): the iterates
    never decrease (sign 1) or never increase (sign -1)."""
    if not np.isfinite(P_next).all():
        return False
    sym = 0.5 * (P + P.T)
    eigvals = np.linalg.eigvalsh(np.stack([sign * (P_next - sym), sym]))
    return bool((eigvals[:, 0] >= -1e-12 * eigvals[:, -1]).all())


@np.errstate(over="ignore", invalid="ignore")
def _doubling_search(P, quantile, statistic, stacked):
    """The escape step of a credible P_0 whose iterates never decrease, from
    its first step P_1 = P: 1 when P is not credible, math.inf for "never",
    None when a candidate is not finite (the step loop then decides).

    stacked's emergency triple of m = 2^k steps gives P_{k+m} = H_m + A_m^T
    P_k (I + G_m P_k)^{-1} A_m.  Galloping tries m = 2, 4, ... from the
    last credible k, until a miss, from which bisecting tries each smaller
    triple once.  A galloping level whose A_m is exactly 0 maps every start
    to H_m, the limit of every later iterate: "never" when it is credible.
    A tolerance still credible after MAX_DOUBLINGS galloping levels raises
    ConvergenceError carrying P_k.
    """
    value = statistic(P)
    if not value > quantile:
        return 1
    k, level, galloping = 1, 1, True
    while level >= 0:
        if level == MAX_DOUBLINGS:
            raise _still_credible(k, value, quantile, P)
        triple = stacked._power(Mode.EMERGENCY, level)
        A_m, _, H_m = triple
        if galloping and not A_m.any() and statistic(H_m) > quantile:
            return math.inf
        candidate = _apply(triple, P)
        if not np.isfinite(candidate).all():
            return None
        candidate_value = statistic(candidate)
        if candidate_value > quantile:
            k, P, value = k + (1 << level), candidate, candidate_value
            level += 1 if galloping else -1
        else:
            galloping, level = False, level - 1
    return k + 1


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

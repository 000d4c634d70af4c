"""Offline analysis: stationary covariance, drift structure, escape time.

Norm conventions used throughout the escape-time analysis:

* the size of a covariance matrix is measured with the Frobenius norm, which
  upper-bounds the worst-direction standard deviation and therefore declares
  escape earlier (the conservative side for a safety margin);
* the growth factor of the dead-reckoning recursion uses the spectral norm
  of A and of the additive noise floor Sigma_bar.

The per-step confidence radius (confidence_bound) uses the spectral norm of
P, which gives a statistically valid per-step tail bound.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chi2 import chi2_quantile
from .estimator import EstimatorState, StackedSensorForms, optimal_gain, \
    _covariance_update_stacked, _dead_reckoning, _solve_gain
from .exceptions import ConvergenceError, NumericalError
from .model import SystemModel


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


@dataclass
class DriftAnalysis:
    """Derived matrices describing dead-reckoning error growth.

    C_bar_I = C_I (I - A^{-1}) is the output matrix of the equivalent
    filtering problem seen by the relative sensor alone; L decouples its
    process and measurement noises; A_bar = (I - L C_bar_I) A is the
    decoupled transition; Sigma_bar is the per-step covariance floor added
    during dead reckoning; drift_free is True when the relative sensor carries
    no drift structure (C_bar_I = 0).  C_bar_I, Sigma_bar and drift_free are
    read from StackedSensorForms, which defines them.
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
    """Escape horizon plus the closed-form lower bound and its inputs."""

    k_escape: int
    k_lower_bound: Optional[float]
    zeta: float
    alpha: float
    df: int
    stationary_P: np.ndarray
    norm_A: float
    branch: str

    def to_dict(self) -> dict:
        return {
            "k_escape": int(self.k_escape),
            "k_lower_bound": None if self.k_lower_bound is None
            else float(self.k_lower_bound),
            "zeta": self.zeta,
            "alpha": float(self.alpha),
            "df": int(self.df),
            "stationary_trace_P": float(np.trace(self.stationary_P)),
            "norm_A": float(self.norm_A),
            "branch": self.branch,
        }


def is_detectable(C, A, tol: float = 1e-8) -> bool:
    """Rank test: every eigenvalue of A with |lambda| >= 1 must be visible in C.

    For each such eigenvalue the stacked matrix [A - lambda I; C] must have
    full column rank; rank is counted against the threshold tol * sigma_max.
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
        rank = int(np.sum(sv > tol * sv[0])) if sv.size else 0
        if rank < n:
            return False
    return True


def drift_matrices(model: SystemModel) -> DriftAnalysis:
    """Build the dead-reckoning drift structure; requires invertible A."""
    n = model.n
    stacked = StackedSensorForms(model)
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
        C_bar_I=C_bar,
        L=L,
        A_bar=A_bar,
        Sigma_bar=stacked.Sigma_bar,
        gps_pair_detectable=is_detectable(model.C_G, model.A),
        drift_pair_detectable=is_detectable(C_bar, A_bar),
        drift_free=stacked.drift_free,
    )


def stationary_covariance(model: SystemModel, tol: float = 1e-12,
                          max_iter: int = 64) -> np.ndarray:
    """Fixed point of the optimal-gain covariance recursion.

    Solves the recursion's Riccati equation by structure-preserving doubling
    after removing its cross term (Anderson & Moore, Optimal Filtering, 1979;
    Chu, Fan, Lin et al.).  k doublings cover 2^k steps of the recursion, so
    max_iter counts doublings.  Converged means |f(P) - P| <= tol * |P| < inf
    for the one-step recursion f (covariance_magnitude's norm), a relative
    test at every scale.  Raises ConvergenceError (carrying the last iterate
    and residual) when max_iter doublings do not converge or an iterate is
    not finite, and fails fast on an undetectable GPS pair (no fixed point).
    """
    stacked = StackedSensorForms(model)
    if not is_detectable(model.C_G, model.A):
        raise NumericalError(
            "(C_G, A) is not detectable: the covariance recursion has no "
            "bounded fixed point")
    n, M, m = model.n, stacked._M, len(stacked.C)
    # [M^T; Sigma_w C^T] R^{-1}, R = C Sigma_w C^T + Sigma_y: the P = 0 system.
    R, Sw_Ct = np.split(stacked._innovation_noise, [m])
    scaled = _solve_gain(R, np.vstack([M.T, Sw_Ct]),
                         "measurement noise covariance")
    # Doubling iterates: A_k -> 0, G_k and H_k symmetric, H_k -> P.
    A_k = (model.A - scaled[n:].dot(M)).T
    G = scaled[:n].dot(M)
    H = model.Sigma_w - scaled[n:].dot(Sw_Ct.T)
    resid = math.inf
    for doublings in range(1, max_iter + 1):
        W_inv = np.linalg.solve(stacked._I_n + G.dot(H), np.hstack([A_k, G]))
        W_inv_A = W_inv[:, :n]
        G = G + A_k.dot(W_inv[:, n:]).dot(A_k.T)
        H = H + A_k.T.dot(H).dot(W_inv_A)
        A_k = A_k.dot(W_inv_A)
        G, H = 0.5 * (G + G.T), 0.5 * (H + H.T)
        if not np.isfinite(H).all():
            raise ConvergenceError(
                f"non-finite covariance after {doublings} doublings",
                last_iterate=H, residual=math.inf)
        K = optimal_gain(H, model, stacked)
        resid = covariance_magnitude(_covariance_update_stacked(H, K, stacked)[1] - H)
        if resid <= tol * covariance_magnitude(H) < math.inf:
            return H
    raise ConvergenceError(
        f"covariance fixed point not reached in {max_iter} doublings "
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


def escape_time(P_at_attack: np.ndarray, model: SystemModel, zeta,
                alpha: float, *, max_horizon: int = 100_000) -> int:
    """Steps of dead reckoning until the error tolerance stops being credible.

    The chi-square quantile has n degrees of freedom, the state dimension.
    zeta may be an n-vector (directional test zeta^T P_k^{-1} zeta against the
    quantile) or a scalar norm (isotropic test ||zeta||^2 divided by the
    Frobenius magnitude of P_k, inf when that is zero).  Counting
    starts at the covariance supplied for the attack step; the count is 0
    when the tolerance is already not credible there.  A NaN or infinite
    entry in it raises NumericalError.
    """
    quantile = chi2_quantile(model.n, alpha)
    zeta_arr = np.asarray(zeta, dtype=float)
    if zeta_arr.ndim == 0:
        zeta_sq = float(zeta_arr) ** 2

        def quad(P):
            magnitude = covariance_magnitude(P)
            return zeta_sq / magnitude if magnitude > 0.0 else math.inf
    elif zeta_arr.ndim == 1:
        if zeta_arr.shape != (model.n,):
            raise ValueError(
                f"directional tolerance has shape {zeta_arr.shape}, "
                f"expected ({model.n},)")

        def quad(P):
            return float(zeta_arr @ np.linalg.solve(P, zeta_arr))
    else:
        raise ValueError("zeta must be a scalar norm or an n-vector")

    stacked = StackedSensorForms(model)
    P = _finite_covariance(P_at_attack)
    k = 0
    value = quad(P)
    while value > quantile:
        P_prev, P = P, _dead_reckoning(EstimatorState(None, P), model,
                                       stacked)[1]
        k += 1
        if k > max_horizon:
            raise ConvergenceError(
                f"tolerance still credible after {max_horizon} steps "
                f"(last statistic {value:.6g} > quantile {quantile:.6g})",
                last_iterate=P, residual=value)
        last, value = value, quad(P)
        if value == last and P.tobytes() == P_prev.tobytes():
            k = max_horizon     # a fixed point stays credible to the horizon
    return k


def escape_time_lower_bound(P: np.ndarray, model: SystemModel,
                            zeta_norm: float, alpha: float, *,
                            drift: Optional[DriftAnalysis] = None) -> float:
    """Closed-form lower bound on the escape time, for drift-free models.

    Requires C_I (I - A^{-1}) = 0 so that dead reckoning reduces to
    P_k = A P_{k-1} A^T + Sigma_bar.  The bound sees P through its Frobenius
    magnitude and A, Sigma_bar through their spectral norms; when the spectral
    norm of A is 1 the geometric sum degenerates and the linear branch is
    used.  Results below zero clamp to zero (tolerance already exceeded).
    drift, the model's drift analysis, is computed when absent.  A NaN or
    infinite entry in P raises NumericalError.
    """
    P = _finite_covariance(P)
    drift = drift_matrices(model) if drift is None else drift
    if not drift.drift_free:
        raise ValueError(
            "escape-time lower bound requires a drift-free relative sensor "
            "(C_I (I - A^{-1}) = 0); this model has "
            f"max |C_bar_I| = {np.abs(drift.C_bar_I).max():.3e}")

    quantile = chi2_quantile(model.n, alpha)
    target = float(zeta_norm) ** 2 / quantile
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


def confidence_bound(P, alpha: float) -> float:
    """Radius sqrt(quantile * ||P||_2) covering the error at level 1 - alpha,
    the chi-square quantile with len(P) degrees of freedom."""
    return math.sqrt(chi2_quantile(len(P), alpha) * spectral_norm(P))


def escape_report(model: SystemModel, zeta_norm: float, alpha: float, *,
                  stationary_P: Optional[np.ndarray] = None,
                  drift: Optional[DriftAnalysis] = None) -> EscapeTimeReport:
    """Escape time and lower bound from the stationary covariance; each of
    stationary_P and drift (the drift analysis) is computed when absent."""
    if stationary_P is None:
        stationary_P = stationary_covariance(model)
    drift = drift_matrices(model) if drift is None else drift
    k_esc = escape_time(stationary_P, model, float(zeta_norm), alpha)
    norm_A, branch = _growth(model)
    k_lb = None
    if drift.drift_free:
        k_lb = escape_time_lower_bound(stationary_P, model, float(zeta_norm),
                                       alpha, drift=drift)
    return EscapeTimeReport(
        k_escape=k_esc, k_lower_bound=k_lb, zeta=float(zeta_norm),
        alpha=alpha, df=model.n, stationary_P=stationary_P, norm_A=norm_A,
        branch=branch)

"""Spoofing detector: attack-vector estimate and forgetting-factor CUSUM test.

The attack vector is estimated from the GPS innovation against the previous
fused estimate,

    d_hat_k = y_k^G - C_G (A x_hat_{k-1} + B u_{k-1}),

normalized by its predicted covariance

    P_d = C_G (A P_{k-1} A^T + Sigma_w) C_G^T + Sigma_G,

and accumulated into the detector statistic

    S_k = delta * S_{k-1} + d_hat^T P_d^{-1} d_hat,   S_0 = 0,

which alarms when S_k exceeds chi2_quantile(df, alpha) / (1 - delta).
The statistic is updated from the GPS residual in both operating modes, so
detection keeps running while the estimator dead-reckons.
"""

import math
from dataclasses import dataclass

import numpy as np

from .chi2 import chi2_quantile
from .exceptions import NumericalError
from .model import SystemModel


@dataclass
class DetectorConfig:
    """Significance level, forgetting factor, and residual dimension."""

    alpha: float = 0.01
    delta: float = 0.15
    df: int = 2

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(
                f"significance level alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(
                f"forgetting factor delta must lie in (0, 1), got {self.delta}")
        if self.df < 1:
            raise ValueError(f"degrees of freedom must be >= 1, got {self.df}")

    def threshold(self) -> float:
        """Alarm threshold: the chi-square tail quantile scaled by the geometric sum."""
        return chi2_quantile(self.df, self.alpha) / (1.0 - self.delta)


@dataclass
class DetectorState:
    S: float = 0.0
    threshold: float = math.inf
    alarmed: bool = False

    @classmethod
    def from_config(cls, config: DetectorConfig) -> "DetectorState":
        return cls(S=0.0, threshold=config.threshold(), alarmed=False)


@dataclass
class Residual:
    """Attack-vector estimate with its covariance and normalized magnitude."""

    d_hat: np.ndarray
    P_d: np.ndarray
    normalized: float


def residual(y_G, x_hat_prev, u_prev, model: SystemModel) -> np.ndarray:
    """GPS innovation against the previous fused estimate.

    The previous estimate must be used here; the current one is correlated
    with the current measurement and would bias the statistic.
    """
    pred = model.A @ np.asarray(x_hat_prev, dtype=float) + \
        model.B @ np.asarray(u_prev, dtype=float)
    return np.asarray(y_G, dtype=float) - model.C_G @ pred


def residual_covariance(P_prev: np.ndarray, model: SystemModel) -> np.ndarray:
    """Predicted residual covariance C_G (A P A^T + Sigma_w) C_G^T + Sigma_G."""
    inner = model.A @ P_prev @ model.A.T + model.Sigma_w
    P_d = model.C_G @ inner @ model.C_G.T + model.Sigma_G
    return 0.5 * (P_d + P_d.T)


def normalized_residual(d_hat: np.ndarray, P_d: np.ndarray) -> float:
    """Quadratic form d_hat^T P_d^{-1} d_hat via a linear solve."""
    try:
        z = np.linalg.solve(P_d, d_hat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("residual covariance is singular") from exc
    q = float(d_hat @ z)
    # Clamp to zero: roundoff can leave a tiny negative value for d_hat ~ 0.
    # A NaN or infinite GPS reading gives inf, which latches the alarm.
    return max(0.0, q) if math.isfinite(q) else math.inf


def evaluate_residual(y_G, x_hat_prev, u_prev, P_prev,
                      model: SystemModel) -> Residual:
    """Build the full residual record for one step."""
    d_hat = residual(y_G, x_hat_prev, u_prev, model)
    P_d = residual_covariance(P_prev, model)
    return Residual(d_hat=d_hat, P_d=P_d,
                    normalized=normalized_residual(d_hat, P_d))


def cusum_update(S_prev: float, d_hat: np.ndarray, P_d: np.ndarray,
                 delta: float) -> float:
    """Advance the detector statistic: delta * S_prev + normalized residual."""
    return delta * S_prev + normalized_residual(np.asarray(d_hat, dtype=float),
                                                np.asarray(P_d, dtype=float))


def alarm(det: DetectorState) -> bool:
    """Alarm on strict exceedance; a tie with the threshold stays quiet."""
    return det.S > det.threshold

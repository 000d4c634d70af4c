"""Spoofing detector: attack-vector estimate and forgetting-factor CUSUM test.

The attack vector is estimated from the GPS innovation against the previous
fused estimate,

    d_hat_k = y_k^G - C_G (A x_hat_{k-1} + B u_{k-1}),

normalized by its predicted covariance

    P_d = C_G (A P_{k-1} A^T + Sigma_w) C_G^T + Sigma_G,

and accumulated into the detector statistic

    S_k = delta * S_{k-1} + d_hat^T P_d^{-1} d_hat,   S_0 = 0,

which alarms when S_k strictly exceeds chi2_quantile(m_G, alpha) / (1 - delta)
(a tie stays quiet), in both operating modes.  The runner reads d_hat =
C_G A (x - x_hat) + C_G w + v_G + d (x: the state before the step) from its
run-step product, and P_d^{-1} from the stretch row of P_{k-1}; cusum_update
solves it from P_d.  The runner's float product d_hat^T (W d_hat) is this
form bit for bit in [0, inf); any other value goes to normalized_residual.
"""

import math
from dataclasses import dataclass

import numpy as np

from .chi2 import chi2_quantile
from .estimator import _solve_gain
from .exceptions import ConfigError
from .model import SystemModel


@dataclass(frozen=True)
class DetectorConfig:
    """Significance level and forgetting factor; the chi-square degrees of
    freedom are the model's GPS dimension m_G."""

    alpha: float = 0.01
    delta: float = 0.15

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"detector: significance level alpha must lie "
                              f"in (0, 1), got {self.alpha}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"detector: forgetting factor delta must lie "
                              f"in (0, 1), got {self.delta}")

    def threshold(self, m_G: int) -> float:
        """Alarm threshold: the chi-square tail quantile with m_G degrees of
        freedom scaled by the geometric sum."""
        return chi2_quantile(m_G, self.alpha) / (1.0 - self.delta)


def residual(y_G, x_hat, u, model: SystemModel) -> np.ndarray:
    """GPS innovation y_G - C_G (A x_hat + B u) against the previous fused
    estimate x_hat and the previous input u.

    The previous estimate must be used here; the current one is correlated
    with the current measurement and would bias the statistic.
    """
    pred = model.A @ np.asarray(x_hat, dtype=float) + \
        model.B @ np.asarray(u, dtype=float)
    return np.asarray(y_G, dtype=float) - model.C_G @ pred


def residual_covariance(P_prev: np.ndarray, model: SystemModel) -> np.ndarray:
    """Predicted residual covariance C_G (A P A^T + Sigma_w) C_G^T + Sigma_G."""
    inner = model.A @ P_prev @ model.A.T + model.Sigma_w
    P_d = model.C_G @ inner @ model.C_G.T + model.Sigma_G
    return 0.5 * (P_d + P_d.T)


def normalized_residual(d_hat: np.ndarray, P_d_inv: np.ndarray) -> float:
    """Quadratic form d_hat^T (P_d^{-1} d_hat), clamped at zero against
    roundoff; NaN for a singular P_d's NaN weight, which the run's final
    check reports.  A NaN or infinite GPS reading gives inf, which latches
    the alarm; it is caught before the product, where inf * 0 would warn.  A
    residual above 1e100 is scaled by a power of two, which changes no bit,
    so a form that overflows is inf as well, without a warning."""
    values = d_hat.tolist()
    if not sum(map(abs, values)) <= 1e100:     # NaN, inf or large
        if not all(map(math.isfinite, values)):
            return math.inf
        scale = 2.0 ** (math.frexp(max(map(abs, values)))[1] - 1)
        return normalized_residual(d_hat / scale, P_d_inv) * scale * scale
    q = float(d_hat.dot(P_d_inv.dot(d_hat)))
    return math.inf if q == -math.inf else max(q, 0.0)   # max(NaN, 0) is NaN


def cusum_update(S_prev: float, d_hat: np.ndarray, P_d: np.ndarray,
                 delta: float) -> float:
    """Advance the detector statistic: delta * S_prev + normalized residual."""
    P_d = np.asarray(P_d, dtype=float)
    P_d_inv = _solve_gain(P_d, np.eye(len(P_d)), "residual covariance")
    return delta * S_prev + normalized_residual(np.asarray(d_hat, dtype=float),
                                                P_d_inv)

"""Two-mode state estimator fusing absolute (GPS) and relative (IMU) sensors.

Normal mode applies the jointly optimal gain over both sensors.  Emergency
mode forces the GPS gain to zero and dead-reckons on the relative sensor
alone, so spoofed measurements never touch the estimate.

With the stacked output matrix C = [C_G; C_I], the block-diagonal measurement
covariance Sigma_y, the selector D that zeroes the GPS block and passes the
IMU block, and M = C A - D C, the covariance obeys

    P' = (A - K M) P (A - K M)^T + (I - K C) Sigma_w (I - K C)^T
         + K Sigma_y K^T

and the trace-minimizing gain is

    K = (A P M^T + Sigma_w C^T) (M P M^T + C Sigma_w C^T + Sigma_y)^{-1}.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exceptions import NumericalError
from .model import SystemModel, _transition_inverse


class Mode(Enum):
    NORMAL = "normal"
    EMERGENCY = "emergency"


@dataclass
class GainPair:
    """Gain split into the GPS block and the IMU block."""

    K_G: np.ndarray
    K_I: np.ndarray

    def stacked(self) -> np.ndarray:
        return np.hstack([self.K_G, self.K_I])


@dataclass
class EstimatorState:
    x_hat: np.ndarray
    P: np.ndarray
    mode: Mode = Mode.NORMAL

    @classmethod
    def initial(cls, x0, P0=None, mode: Mode = Mode.NORMAL) -> "EstimatorState":
        x0 = np.asarray(x0, dtype=float)
        if P0 is None:
            P0 = np.zeros((x0.size, x0.size))
        return cls(x_hat=x0.copy(), P=np.asarray(P0, dtype=float).copy(),
                   mode=mode)


class StackedSensorForms:
    """Stacked sensor matrices, products reused in the per-step loop, and the
    model invariants of dead reckoning.

    The invariants are defined here once: A^{-1} (ValueError for a singular
    A), C_bar_I = C_I (I - A^{-1}), the drift-free flag C_bar_I = 0, the
    constant emergency gain K_I and its per-step noise floor
    Sigma_bar = (I - K_I C_I) Sigma_w (I - K_I C_I)^T + K_I Sigma_I K_I^T.
    """

    def __init__(self, model: SystemModel):
        self.A_inv = _transition_inverse(model.A)    # ValueError if singular
        n, m_G, m_I = model.n, model.m_G, model.m_I
        m = m_G + m_I
        self.C = np.vstack([model.C_G, model.C_I])
        self.Sigma_y = np.zeros((m, m))
        self.Sigma_y[:m_G, :m_G] = model.Sigma_G
        self.Sigma_y[m_G:, m_G:] = model.Sigma_I
        self.D = np.zeros((m, m))
        self.D[m_G:, m_G:] = np.eye(m_I)

        self._A = model.A
        self._Sigma_w = model.Sigma_w
        self._m_G = m_G
        self._I_n = np.eye(n)
        self._M = self.C @ model.A - self.D @ self.C
        self._Sw_Ct = model.Sigma_w @ self.C.T
        self._C_Sw_Ct_Sy = self.C @ self._Sw_Ct + self.Sigma_y
        # _innovation_system's operands (contiguous M^T: a faster dot) and its
        # last (key, R, G) result.
        self._M_T = np.ascontiguousarray(self._M.T)
        self._M_A = np.vstack([self._M, model.A])
        self._innovation_noise = np.vstack([self._C_Sw_Ct_Sy, self._Sw_Ct])
        self._innovation = (None, None, None)

        # IMU-only subproblem (used when emergency mode cannot rely on a
        # constant gain): drop the GPS rows, selector becomes the identity.
        self._M_imu = self._M[m_G:]
        self._Sw_CIt = model.Sigma_w @ model.C_I.T
        self._CI_Sw_CIt_SI = model.C_I @ self._Sw_CIt + model.Sigma_I

        # Dead reckoning's invariants (class docstring).
        self.C_bar_I = model.C_I @ (self._I_n - self.A_inv)
        scale = max(1.0, float(np.abs(model.C_I).max(initial=0.0)))
        self.drift_free = bool(
            np.abs(self.C_bar_I).max(initial=0.0) <= 1e-12 * scale)
        self.K_I = emergency_gain(model)
        IKC = self._I_n - self.K_I @ model.C_I
        Sigma_bar = (IKC @ model.Sigma_w @ IKC.T
                     + self.K_I @ model.Sigma_I @ self.K_I.T)
        self.Sigma_bar = 0.5 * (Sigma_bar + Sigma_bar.T)
        if self.drift_free:
            # The constant gain K_E = [0, K_I] is then exactly optimal and
            # dead reckoning is the constant map P -> T_E P T_E^T + Sigma_bar,
            # with T_E = A - K_E M (A itself when C_I A = C_I exactly).
            self._T_emergency = model.A - self.K_I.dot(self._M_imu)


def predict(est: EstimatorState, model: SystemModel, u) -> np.ndarray:
    """One-step state prediction A x_hat + B u."""
    return model.A.dot(est.x_hat) + model.B.dot(np.asarray(u, dtype=float))


def optimal_gain(P_prev: np.ndarray, model: SystemModel,
                 stacked: StackedSensorForms) -> GainPair:
    """Trace-minimizing stacked gain for the given prior covariance."""
    K = _optimal_gain_stacked(P_prev, stacked)
    m_G = stacked._m_G
    return GainPair(K_G=K[:, :m_G], K_I=K[:, m_G:])


def _solve_gain(innov_cov: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Gain rhs innov_cov^{-1}."""
    try:
        return np.linalg.solve(innov_cov.T, rhs.T).T
    except np.linalg.LinAlgError as exc:
        cond = np.linalg.cond(innov_cov)
        raise NumericalError(
            f"{what} is singular (condition number {cond:.3e})") from exc


def _innovation_system(P_prev: np.ndarray, stacked: StackedSensorForms):
    """Normal-mode innovation covariance and gain numerator for a prior P.

    Returns R = M P M^T + C Sigma_w C^T + Sigma_y and G = A P M^T + Sigma_w C^T
    from one product [M; A] (P M^T).  R's GPS-GPS block is the detector's
    residual covariance (the GPS rows of M are C_G A), so the runner's
    detector and fuse share one result, kept on stacked under P's bytes;
    callers must not write to it.
    """
    key = P_prev.tobytes()
    cached = stacked._innovation
    if cached[0] != key:
        system = stacked._M_A.dot(P_prev.dot(stacked._M_T)) \
            + stacked._innovation_noise
        m = len(stacked.C)
        cached = stacked._innovation = (key, system[:m], system[m:])
    return cached[1], cached[2]


def _optimal_gain_stacked(P_prev: np.ndarray,
                          stacked: StackedSensorForms) -> np.ndarray:
    return _solve_gain(*_innovation_system(P_prev, stacked),
                       "innovation covariance")


def emergency_gain(model: SystemModel) -> np.ndarray:
    """Constant IMU gain Sigma_w C_I^T (C_I Sigma_w C_I^T + Sigma_I)^{-1}."""
    rhs = model.Sigma_w @ model.C_I.T
    return _solve_gain(model.C_I @ rhs + model.Sigma_I, rhs,
                       "IMU innovation covariance of the emergency gain")


def covariance_update(P_prev: np.ndarray, K: GainPair, model: SystemModel,
                      stacked: StackedSensorForms) -> np.ndarray:
    """Covariance propagation for an arbitrary stacked gain, re-symmetrized."""
    return _covariance_update_stacked(P_prev, K.stacked(), stacked)


def _covariance_update_stacked(P_prev: np.ndarray, K: np.ndarray,
                               stacked: StackedSensorForms) -> np.ndarray:
    """Covariance propagation for the stacked gain K = [K_G, K_I]."""
    T = stacked._A - K.dot(stacked._M)
    IKC = stacked._I_n - K.dot(stacked.C)
    P = (T.dot(P_prev).dot(T.T)
         + IKC.dot(stacked._Sigma_w).dot(IKC.T)
         + K.dot(stacked.Sigma_y).dot(K.T))
    return 0.5 * (P + P.T)


def _imu_only_gain(P_prev: np.ndarray, model: SystemModel,
                   stacked: StackedSensorForms) -> np.ndarray:
    M = stacked._M_imu
    return _solve_gain(M @ P_prev @ M.T + stacked._CI_Sw_CIt_SI,
                       model.A @ P_prev @ M.T + stacked._Sw_CIt,
                       "IMU-only innovation covariance")


def _dead_reckoning(P_prev: np.ndarray, model: SystemModel,
                    stacked: StackedSensorForms):
    """IMU gain and re-symmetrized covariance of one step with zero GPS gain.

    With the constant emergency gain the covariance map is the constant
    P -> T_E P T_E^T + Q_E; otherwise the IMU-only gain is optimal for P.
    """
    if stacked.drift_free:
        T = stacked._T_emergency
        P = T.dot(P_prev).dot(T.T) + stacked.Sigma_bar
        return stacked.K_I, 0.5 * (P + P.T)
    K_I = _imu_only_gain(P_prev, model, stacked)
    K = np.hstack([np.zeros((model.n, stacked._m_G)), K_I])
    return K_I, _covariance_update_stacked(P_prev, K, stacked)


def fuse(est: EstimatorState, model: SystemModel, stacked: StackedSensorForms,
         u, y_G, y_I) -> EstimatorState:
    """Run one measurement update in the state's current mode.

    Normal mode corrects the prediction with both innovations.  Emergency
    mode never evaluates the GPS innovation, so the returned estimate is
    bit-for-bit independent of y_G.
    """
    pred = predict(est, model, u)
    innov_imu = np.asarray(y_I, dtype=float) - model.C_I.dot(pred - est.x_hat)
    m_G = stacked._m_G

    if est.mode is Mode.EMERGENCY:
        K_I, P_new = _dead_reckoning(est.P, model, stacked)
        x_new = pred + K_I.dot(innov_imu)
    else:
        K_full = _optimal_gain_stacked(est.P, stacked)
        innov_gps = np.asarray(y_G, dtype=float) - model.C_G.dot(pred)
        x_new = (pred + K_full[:, :m_G].dot(innov_gps)
                 + K_full[:, m_G:].dot(innov_imu))
        P_new = _covariance_update_stacked(est.P, K_full, stacked)
    return EstimatorState(x_hat=x_new, P=P_new, mode=est.mode)

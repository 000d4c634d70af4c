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

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .exceptions import NumericalError
from .model import SystemModel, _inv, _transition_inverse


class Mode(Enum):
    NORMAL = "normal"
    EMERGENCY = "emergency"


@dataclass
class EstimatorState:
    x_hat: np.ndarray
    P: np.ndarray
    mode: Mode = Mode.NORMAL    # the mode that produced P
    # P's normal-mode step; never passed in, so replace never copies it.
    step: "_NormalStep" = field(default=None, init=False, repr=False,
                                compare=False)

    @classmethod
    def initial(cls, x0) -> "EstimatorState":
        """Normal mode at x0 with P = 0."""
        x0 = np.asarray(x0, dtype=float)
        return cls(x_hat=x0.copy(), P=np.zeros((x0.size, x0.size)))


class StackedSensorForms:
    """Stacked sensor matrices, products reused in the per-step loop, and the
    model invariants of dead reckoning.

    origin is the step from P = 0, whose chain of next steps is the trunk.
    _innovation_system builds a state's step, its innovation system and the
    one inverse behind P_d^{-1} and the gains; _covariance_update_stacked is
    the one Joseph update.  The invariants are defined here once: A^{-1}
    (ValueError for a singular A), C_bar_I = C_I (I - A^{-1}), the
    drift-free flag C_bar_I = 0, the emergency gain
    K_I = Sigma_w C_I^T (C_I Sigma_w C_I^T + Sigma_I)^{-1}, the IMU block of
    the P = 0 system, and Sigma_bar = (I - K_I C_I) Sigma_w (I - K_I C_I)^T
    + K_I Sigma_I K_I^T, the Joseph update of P = 0 with K_E = [0, K_I].
    """

    def __init__(self, model: SystemModel):
        self.A_inv = _transition_inverse(model.A)    # ValueError if singular
        n, p, m_G, m_I = model.n, model.p, model.m_G, model.m_I
        m = m_G + m_I
        self.C = np.vstack([model.C_G, model.C_I])
        # The Joseph weight blockdiag(P, 0_p, Sigma_y, Sigma_w); updates write P.
        k = n + p + m
        self._joseph_weight = np.zeros((k + n, k + n))
        self._joseph_weight[k:, k:] = model.Sigma_w
        self.Sigma_y = self._joseph_weight[n + p:k, n + p:k]
        self.Sigma_y[:m_G, :m_G] = model.Sigma_G
        self.Sigma_y[m_G:, m_G:] = model.Sigma_I
        self.D = np.zeros((m, m))
        self.D[m_G:, m_G:] = np.eye(m_I)

        self._m_G = m_G
        self._I_n, self._I_G = np.eye(n), np.eye(m_G)
        self._M = self.C @ model.A - self.D @ self.C
        # _innovation_system's operands (contiguous M^T: a faster dot).
        self._M_T = np.ascontiguousarray(self._M.T)
        self._M_A = np.vstack([self._M, model.A])
        Sw_Ct = model.Sigma_w @ self.C.T
        self._innovation_noise = np.vstack([self.C @ Sw_Ct + self.Sigma_y,
                                            Sw_Ct])
        self._M_G = self._M[:m_G]       # P_d = M_G P M_G^T + _P_d_noise
        self._P_d_noise = self._innovation_noise[:m_G, :m_G]
        self.origin = _NormalStep(np.zeros((n, n)))
        self.origin.P.setflags(write=False)
        # Selects [R, blockdiag(P_d, R_II)] from R into _inverse_in, 0 off it.
        same_block = np.equal.outer(np.arange(m) < m_G, np.arange(m) < m_G)
        self._inverse_mask = np.stack([same_block | True, same_block])
        self._inverse_in = np.zeros((2, m, m))

        # One product per step quantity, with M = [C_G A; C_I (A - I)]: the
        # plant and sensors, [x'; y_G - d; y_I] = _plant [x; u; w; v_G; v_I],
        # whose GPS rows start with the detector's [C_G A, C_G B]; the gain's
        # blocks [T, B_K, K, I - K C] = [A, B, 0, I] - K [M, CB, -I, C], formed
        # transposed, each contiguous.  F_E has no y_G column: 0 * NaN is NaN.
        A, B, CB = model.A, model.B, self.C @ model.B
        self._plant = np.block([[A, B, self._I_n, np.zeros((n, m))],
                                [self._M, CB, self.C, np.eye(m)]])
        self._gain_base_T = np.vstack([A.T, B.T, np.zeros((m, n)), self._I_n])
        self._gain_coef_T = np.vstack([self._M_T, CB.T, -np.eye(m), self.C.T])
        self._emergency_cols = np.r_[:n + p, n + p + m_G:n + p + m]

        # Dead reckoning's invariants (class docstring).
        self.C_bar_I = model.C_I @ (self._I_n - self.A_inv)
        scale = max(1.0, float(np.abs(model.C_I).max(initial=0.0)))
        self.drift_free = bool(
            np.abs(self.C_bar_I).max(initial=0.0) <= 1e-12 * scale)
        self.K_I = _solve_gain(self._innovation_noise[m_G:m, m_G:],
                               self._innovation_noise[m:, m_G:],
                               "IMU innovation covariance of the emergency gain")
        K_E = np.hstack([np.zeros((n, m_G)), self.K_I])
        blocks, self.Sigma_bar = _covariance_update_stacked(
            np.zeros((n, n)), K_E, self)
        if self.drift_free:
            # K_E is then optimal: dead reckoning is the constant F_E and
            # P -> T_E P T_E^T + Sigma_bar (T_E = A when C_I A = C_I exactly).
            self._F_emergency = blocks[:, self._emergency_cols]
            self._T_emergency = self._F_emergency[:, :n]


def optimal_gain(P_prev: np.ndarray, model: SystemModel,
                 stacked: StackedSensorForms) -> np.ndarray:
    """Trace-minimizing stacked gain K = [K_G, K_I], (n, m_G + m_I), for the
    given prior covariance."""
    return _gain(_innovation_system(EstimatorState(None, P_prev), stacked))


def _solve_gain(innov_cov: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Gain rhs innov_cov^{-1}."""
    try:
        return np.linalg.solve(innov_cov.T, rhs.T).T
    except np.linalg.LinAlgError as exc:
        cond = np.linalg.cond(innov_cov)
        raise NumericalError(
            f"{what} is singular (condition number {cond:.3e})") from exc


class _NormalStep:
    """The normal-mode step from a prior P; its arrays are read-only.  fuse
    adds P_next, the predictor F = [T, B_K, K] (the gain's blocks but I - K C)
    and next, P_next's step or, where P_next's bytes equal P's, itself."""

    __slots__ = ("P", "R", "G", "inverse", "F", "P_next", "next")

    def __init__(self, P: np.ndarray):
        self.P, self.R, self.G, self.inverse = P, None, None, None
        self.F = self.P_next = self.next = None


def _innovation_system(est: EstimatorState,
                       stacked: StackedSensorForms) -> _NormalStep:
    """The state's step, made from its P if it has none, with its innovation
    system built once: R = M P M^T + C Sigma_w C^T + Sigma_y and
    G = A P M^T + Sigma_w C^T from one product [M; A] (P M^T), and
    [R^{-1}, blockdiag(P_d, R_II)^{-1}] from one inv call, None if one is
    singular (each user then solves its own block, which names the error).
    R's GPS-GPS block is the detector's P_d (the GPS rows of M are C_G A).
    """
    if est.step is None:
        est.step = _NormalStep(est.P)
    step = est.step
    if step.R is None:
        system = stacked._M_A.dot(step.P.dot(stacked._M_T)) \
            + stacked._innovation_noise
        system.setflags(write=False)
        m = len(stacked.C)
        step.R, step.G = system[:m], system[m:]
        try:
            np.copyto(stacked._inverse_in, step.R, where=stacked._inverse_mask)
            step.inverse = _inv(stacked._inverse_in)
            step.inverse.setflags(write=False)
        except np.linalg.LinAlgError:
            pass
    return step


def _gain(step: _NormalStep) -> np.ndarray:
    """The step's normal-mode gain K = G R^{-1}."""
    return step.G.dot(step.inverse[0]) if step.inverse is not None \
        else _solve_gain(step.R, step.G, "innovation covariance")


def _detector_weight(est: EstimatorState,
                     stacked: StackedSensorForms) -> np.ndarray:
    """The detector's P_d^{-1} for the state's P: a view of its step's
    inverse, but P_d's own after dead reckoning on a drift-free model."""
    m_G = stacked._m_G
    if est.mode is Mode.EMERGENCY and stacked.drift_free:
        P_d = stacked._M_G.dot(est.P.dot(stacked._M_T))[:, :m_G] \
            + stacked._P_d_noise
        try:
            return _inv(P_d)
        except np.linalg.LinAlgError:
            return _solve_gain(P_d, stacked._I_G, "residual covariance")
    step = _innovation_system(est, stacked)
    return step.inverse[1, :m_G, :m_G] if step.inverse is not None \
        else _solve_gain(step.R[:m_G, :m_G], stacked._I_G,
                         "residual covariance")


def covariance_update(P_prev: np.ndarray, K: np.ndarray, model: SystemModel,
                      stacked: StackedSensorForms) -> np.ndarray:
    """Covariance propagation for an arbitrary stacked gain K = [K_G, K_I],
    re-symmetrized."""
    return _covariance_update_stacked(P_prev, K, stacked)[1]


def _covariance_update_stacked(P_prev: np.ndarray, K: np.ndarray,
                               stacked: StackedSensorForms):
    """The gain's blocks W = [T, B_K, K, I - K C], one product, and the
    covariance propagated by the stacked gain K, the Joseph update as one
    quadratic form W blockdiag(P, 0_p, Sigma_y, Sigma_w) W^T."""
    blocks = (stacked._gain_base_T - stacked._gain_coef_T.dot(K.T)).T
    n = len(blocks)
    weight = stacked._joseph_weight
    weight[:n, :n] = P_prev
    P = blocks.dot(weight).dot(blocks.T)
    return blocks, 0.5 * (P + P.T)


def _dead_reckoning(est: EstimatorState, model: SystemModel,
                    stacked: StackedSensorForms):
    """Predictor F_E = [T_E, B - K_I C_I B, K_I] of x' = F_E [x_hat; u; y_I]
    and the re-symmetrized covariance of one step from the state's P with zero
    GPS gain: the constant emergency gain's on a drift-free model, else the
    IMU-only gain solved from the IMU blocks of the state's step.
    """
    if stacked.drift_free:
        return stacked._F_emergency, _propagate(
            stacked._T_emergency, stacked.Sigma_bar, est.P)
    step, m_G = _innovation_system(est, stacked), stacked._m_G
    K_I = step.G[:, m_G:].dot(step.inverse[1, m_G:, m_G:]) \
        if step.inverse is not None \
        else _solve_gain(step.R[m_G:, m_G:], step.G[:, m_G:],
                         "IMU-only innovation covariance")
    K = np.hstack([np.zeros((model.n, m_G)), K_I])
    blocks, P = _covariance_update_stacked(est.P, K, stacked)
    return blocks[:, stacked._emergency_cols], P


def _propagate(Phi: np.ndarray, S: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Phi P Phi^T + S, re-symmetrized: one drift-free dead-reckoning step
    for (Phi, S) = (T_E, Sigma_bar), m steps for the pair (Phi_m, S_m) of
    the escape analysis's doubling, and the pair of 2m steps from S_m."""
    P = Phi.dot(P).dot(Phi.T) + S
    return 0.5 * (P + P.T)


def fuse(est: EstimatorState, model: SystemModel, stacked: StackedSensorForms,
         u, y_G, y_I) -> EstimatorState:
    """Run one measurement update in the state's current mode, one product.

    Normal mode: x' = F [x_hat; u; y_G; y_I], the prediction A x_hat + B u
    corrected by both innovations, in a state that holds P_next's step.
    Emergency mode: x' = F_E [x_hat; u; y_I], the IMU innovation only; y_G is
    never evaluated, so the estimate is bit-for-bit independent of it.
    """
    if est.mode is Mode.EMERGENCY:
        F_E, P_new = _dead_reckoning(est, model, stacked)
        x_new = F_E.dot(np.concatenate((est.x_hat, u, y_I)))
        return EstimatorState(x_hat=x_new, P=P_new, mode=est.mode)
    step = _innovation_system(est, stacked)
    if step.F is None:
        K = _gain(step)
        blocks, P_next = _covariance_update_stacked(step.P, K, stacked)
        blocks.setflags(write=False)
        P_next.setflags(write=False)
        step.F, step.P_next = blocks[:, :-len(blocks)], P_next
        step.next = step if P_next.tobytes() == step.P.tobytes() \
            else _NormalStep(P_next)
    x_new = step.F.dot(np.concatenate((est.x_hat, u, y_G, y_I)))
    new = EstimatorState(x_hat=x_new, P=step.P_next, mode=est.mode)
    new.step = step.next
    return new

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

Each mode's covariance is one Riccati map f of P, so a run reads it, its
predictor and P_d^{-1} only from a _Stretch: row j is f^j(P_a), P_a at the
mode's last switch, from j-step triples f^j(P) = H_j + A_j^T P (I + G_j P)^{-1}
A_j (Anderson & Moore, Optimal Filtering, 1979); a singular inverse is NaN, an
overflow inf, for the run's final check.  covariance_update is the Joseph
form the rows match.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .exceptions import NumericalError
from .model import (SystemModel, _inverse, _read_only, _solve,
                    _transition_inverse)

_FIRST_CHUNK, _STRETCH = 8, 256     # rows of a stretch's first chunk, at most


class Mode(Enum):
    NORMAL = "normal"
    EMERGENCY = "emergency"


@dataclass
class EstimatorState:
    x_hat: np.ndarray
    P: np.ndarray
    mode: Mode = Mode.NORMAL    # the mode that produced P
    # P as row `row` of a stretch; never passed in, so replace never copies it.
    stretch: "_Stretch" = field(default=None, init=False, repr=False,
                                compare=False)
    row: int = field(default=0, init=False, repr=False, compare=False)

    @classmethod
    def initial(cls, x0) -> "EstimatorState":
        """Normal mode at x0 with P = 0."""
        x0 = np.asarray(x0, dtype=float)
        return cls(x_hat=x0.copy(), P=np.zeros((x0.size, x0.size)))


class StackedSensorForms:
    """Stacked sensor matrices, per-step products (_plant: plant, sensors and
    residual), each mode's triple table, and dead reckoning's invariants.

    _table(mode) holds the mode's j-step triples, j = 1..8, and its 2^k-step
    ones, which stretches and the escape analysis read; _innovation_system
    is the innovation system of one P; _covariance_update_stacked is the one
    Joseph update.  The invariants are defined here once: A^{-1} (ValueError
    for a singular A), C_bar_I = C_I (I - A^{-1}), the drift-free flag
    C_bar_I = 0 within 1e-12, whereupon C_bar_I and M's IMU rows C_I (A - I)
    are exact zeros in every form, so the flag and the matrices agree, the
    emergency gain K_I = Sigma_w C_I^T (C_I Sigma_w C_I^T + Sigma_I)^{-1},
    and Sigma_bar = (I - K_I C_I) Sigma_w (I - K_I C_I)^T + K_I Sigma_I
    K_I^T, the Joseph update of P = 0 with K_E = [0, K_I].
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
        self.D = np.diag(np.arange(m) >= m_G).astype(float)

        self._model, self._tables, self._m_G = model, {}, m_G
        self._I_n = np.eye(n)
        # The drift-free structure (class docstring), before any form reads M.
        self.C_bar_I = model.C_I @ (self._I_n - self.A_inv)
        scale = max(1.0, float(np.abs(model.C_I).max(initial=0.0)))
        self.drift_free = bool(
            np.abs(self.C_bar_I).max(initial=0.0) <= 1e-12 * scale)
        self._M = self.C @ model.A - self.D @ self.C
        if self.drift_free:
            self.C_bar_I[:] = self._M[m_G:] = 0.0
        # _innovation_system's operands (contiguous M^T: a faster dot).
        self._M_T = np.ascontiguousarray(self._M.T)
        self._M_A = np.vstack([self._M, model.A])
        Sw_Ct = model.Sigma_w @ self.C.T
        self._innovation_noise = np.vstack([self.C @ Sw_Ct + self.Sigma_y,
                                            Sw_Ct])

        # One product per step quantity, with M = [C_G A; C_I (A - I)]: the
        # plant, the sensors and the detector's residual d_hat = y_G - C_G (A
        # x_hat + B u), [x'; y_G - d; y_I; d_hat - d] = _plant [x; u; w; v_G;
        # v_I; x - x_hat]; the gain's blocks [T, B_K, K, I - K C] = [A, B, 0,
        # I] - K [M, CB, -I, C], formed transposed, each contiguous.  F_E has
        # no y_G column: 0 * NaN is NaN.
        A, B, CB = model.A, model.B, self.C @ model.B
        self._plant = np.block([
            [A, B, self._I_n, np.zeros((n, m + n))],
            [self._M, CB, self.C, np.eye(m), np.zeros((m, n))],
            [np.zeros((m_G, n + p)), model.C_G, np.eye(m_G, m), self._M[:m_G]]])
        self._gain_base_T = np.vstack([A.T, B.T, np.zeros((m, n)), self._I_n])
        self._gain_coef_T = np.vstack([self._M_T, CB.T, -np.eye(m), self.C.T])
        self._predictor_cols = {Mode.NORMAL: np.s_[:n + p + m],
                                Mode.EMERGENCY: np.r_[:n + p, n + p + m_G:k]}
        # fuse's slots in [x_hat; u; y_G; y_I], or [x_hat; u; y_I] (F_E).
        self._operand_cuts = {Mode.NORMAL: (n, n + p, n + p + m_G),
                              Mode.EMERGENCY: (n, n + p)}

        # Dead reckoning's gain and noise floor (class docstring).
        K_E = _mode_gain(np.zeros((n, n)), Mode.EMERGENCY, self)
        self.K_I = K_E[:, m_G:]
        self.Sigma_bar = _covariance_update_stacked(np.zeros((n, n)), K_E,
                                                    self)[1]

    def _table(self, mode: Mode):
        """[stack, powers, length], read-only, built on first use: the mode's
        j-step triples (A_j, G_j, H_j), j = 1..8, by three stacked doublings,
        cut before the first non-finite one; its 2^k-step triples (_power);
        its stretch length, 8 doubled per finite power.  NumericalError for
        a singular noise covariance or a non-finite one-step triple."""
        if mode not in self._tables:
            powers = [tuple(map(_read_only, _riccati_triple(
                self._model, self, 0 if mode is Mode.NORMAL else self._m_G)))]
            stack = [t[None] for t in powers[0]]
            for k in range(3):      # triples 1..2^(k + 1)
                stack = [np.concatenate(pair) for pair in zip(
                    stack, _compose(stack, powers[k]))]
                powers.append(tuple(map(_read_only, (t[-1] for t in stack))))
            finite = int(np.isfinite(np.concatenate(stack, axis=1)).all(
                axis=(1, 2)).cumprod().sum())
            if not finite:
                raise NumericalError(f"non-finite {mode.value} one-step triple")
            self._tables[mode] = table = [
                [_read_only(t[:finite]) for t in stack], powers, finite]
            while _FIRST_CHUNK <= table[2] < _STRETCH and np.isfinite(
                    self._power(mode, table[2].bit_length() - 1)).all():
                table[2] *= 2
        return self._tables[mode]

    def _power(self, mode: Mode, k: int):
        """The mode's 2^k-step triple, squared on demand and kept."""
        powers = self._table(mode)[1]
        while len(powers) <= k:
            last = powers[-1]
            powers.append(tuple(map(_read_only, _compose(last, last))))
        return powers[k]


def optimal_gain(P_prev: np.ndarray, model: SystemModel,
                 stacked: StackedSensorForms) -> np.ndarray:
    """Trace-minimizing stacked gain K = [K_G, K_I], (n, m_G + m_I), for the
    given prior covariance."""
    return _mode_gain(P_prev, Mode.NORMAL, stacked)


def _solve_gain(innov_cov: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Gain rhs innov_cov^{-1}."""
    try:
        return np.linalg.solve(innov_cov.T, rhs.T).T
    except np.linalg.LinAlgError as exc:
        cond = np.linalg.cond(innov_cov)
        raise NumericalError(
            f"{what} is singular (condition number {cond:.3e})") from exc


def _innovation_system(P: np.ndarray, stacked: StackedSensorForms):
    """(R, G) of P from one product [M; A] (P M^T): R = M P M^T + C Sigma_w
    C^T + Sigma_y, whose GPS-GPS block is the detector's P_d (the GPS rows
    of M are C_G A), and G = A P M^T + Sigma_w C^T."""
    system = stacked._M_A.dot(P.dot(stacked._M_T)) + stacked._innovation_noise
    return system[:len(stacked.C)], system[len(stacked.C):]


def _detector_weight(est: EstimatorState,
                     stacked: StackedSensorForms) -> np.ndarray:
    """P_d^{-1} of the state's P, read from its stretch row (NaN where P_d
    is singular); a bare state opens a stretch, as fuse does."""
    stretch, j = _stretch_row(est, stacked)
    return stretch.P_d_inv[j]


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


def _mode_gain(P: np.ndarray, mode: Mode, stacked: StackedSensorForms):
    """The mode's optimal gain for P, solved from P's own system: the normal
    gain G R^{-1}, or the IMU-only one [0, G_I R_II^{-1}]."""
    (R, G), m_G = _innovation_system(P, stacked), stacked._m_G
    if mode is Mode.NORMAL:
        return _solve_gain(R, G, "innovation covariance")
    return np.hstack([np.zeros_like(G[:, :m_G]), _solve_gain(
        R[m_G:, m_G:], G[:, m_G:], "IMU-only innovation covariance")])


def _joseph_step(P: np.ndarray, mode: Mode, stacked: StackedSensorForms):
    """The mode's predictor, [T, B_K, K] or F_E = [T_E, B - K_I C_I B, K_I],
    and covariance one step from P by the Joseph update with P's own gain
    (dead reckoning's step in emergency mode)."""
    blocks, P = _covariance_update_stacked(P, _mode_gain(P, mode, stacked),
                                           stacked)
    return blocks[:, stacked._predictor_cols[mode]], P


class _Stretch:
    """Row j of P is f^j(P_a), j = 0..L, L = 256 unless a power triple
    overflows, then the restart stretch from row L.  Chunks, as read: rows
    1..8 are the stack's triples on P_a, rows lo + 1..2 lo (lo = 8, ...,
    128) the power triple lo on rows 1..lo.  Prior row j < L has P_d^{-1}
    and predictor F (as _joseph_step's), read-only, from one stacked inverse
    per chunk of each reader's operand (P_d; R, or R_II in emergency mode),
    so a singular one is NaN in its own row and reader only.  It keeps
    fuse's operand, so one stretch must not be stepped from two threads."""

    def __init__(self, mode: Mode, P_a: np.ndarray, stacked: StackedSensorForms):
        self.mode, (self._stack, _, length) = mode, stacked._table(mode)
        F_T = stacked._gain_base_T[stacked._predictor_cols[mode]]
        self._buffers = [np.empty((length + k, *shape)) for k, shape in (
            (1, P_a.shape), (0, (stacked._m_G,) * 2), (0, F_T.T.shape))]
        self._buffers[0][0] = P_a
        self.P, self.P_d_inv, self.F = views = [b.view() for b in self._buffers]
        for view in views:
            view.flags.writeable = False
        self._operand = np.empty(len(F_T))      # fuse's, filled each step
        self._slots = np.split(self._operand, stacked._operand_cuts[mode])
        self.restart, self._done = None, 0

    def _ready(self, j: int, stacked: StackedSensorForms) -> bool:
        """Whether prior row j has P_d^{-1} and F, computing its chunk."""
        if self._done <= j < len(self.F):
            self._extend(stacked)
        return j < self._done

    @np.errstate(over="ignore", invalid="ignore")   # the run's check reports
    def _extend(self, stacked: StackedSensorForms) -> None:
        """Rows lo + 1..hi by one stacked solve, P_d^{-1} and F of rows lo..
        hi - 1 by a stacked inverse each, and after the last the restart."""
        (P, P_d_inv, F), lo = self._buffers, self._done
        hi = self._done = min(len(F), max(_FIRST_CHUNK, 2 * lo))
        (A, G, H), P_in = (stacked._power(self.mode, lo.bit_length() - 1),
                           P[1:lo + 1]) if lo else (self._stack, P[0])
        rows = H + A.swapaxes(-1, -2) @ (P_in @ _solve(
            stacked._I_n + G @ P_in, A))
        P[lo + 1:hi + 1] = 0.5 * (rows + rows.swapaxes(1, 2))
        system = stacked._M_A @ (P[lo:hi] @ stacked._M_T) \
            + stacked._innovation_noise
        m, m_G = len(stacked.C), stacked._m_G
        P_d_inv[lo:hi] = _inverse(system[:, :m_G, :m_G])
        # G R^{-1}, or G_I R_II^{-1} in K_I's columns: F_E needs no R^{-1}.
        gain = np.s_[:m] if self.mode is Mode.NORMAL else np.s_[m_G:m]
        K = system[:, m:, gain] @ _inverse(system[:, gain, gain])
        blocks = stacked._gain_base_T \
            - stacked._gain_coef_T[:, gain] @ K.swapaxes(1, 2)
        F[lo:hi] = blocks.swapaxes(1, 2)[..., stacked._predictor_cols[
            self.mode]]
        if hi == len(F):
            self.restart = _Stretch(self.mode, P[hi], stacked)


def _stretch_row(est: EstimatorState, stacked: StackedSensorForms):
    """The state's (stretch, row), computed; new at a switch or bare state."""
    stretch, j = est.stretch, est.row
    if stretch is None or stretch.mode is not est.mode:
        stretch, j = _Stretch(est.mode, est.P, stacked), 0
    stretch._ready(j, stacked)
    return stretch, j


def fuse(est: EstimatorState, model: SystemModel, stacked: StackedSensorForms,
         u, y_G, y_I) -> EstimatorState:
    """Run one measurement update in the state's current mode, one product.

    Normal mode: x' = F [x_hat; u; y_G; y_I], the prediction A x_hat + B u
    corrected by both innovations.  Emergency mode: x' = F_E [x_hat; u; y_I],
    the IMU innovation only; y_G is never evaluated, so the estimate is
    bit-for-bit independent of it: the stretch's operand has no y_G slot.
    F and P' are read from the state's stretch, NaN or inf where they
    failed; a mode switch or a bare state opens one.
    """
    stretch, j = _stretch_row(est, stacked)
    for slot, value in zip(stretch._slots, (est.x_hat, u, y_I) if est.mode
                           is Mode.EMERGENCY else (est.x_hat, u, y_G, y_I)):
        slot[...] = value
    x_new = stretch.F[j].dot(stretch._operand)
    stretch, j = (stretch, j + 1) if j + 1 < len(stretch.F) else \
        (stretch.restart, 0)
    new = EstimatorState(x_hat=x_new, P=stretch.P[j], mode=est.mode)
    new.stretch, new.row = stretch, j
    return new


def _riccati_triple(model: SystemModel, stacked: StackedSensorForms,
                    first: int):
    """The one-step triple (A_1, G_1, H_1) of the optimal-gain recursion on
    the sensor rows from first on (0: normal mode; m_G: the IMU alone), its
    cross term removed by the P = 0 system R = C Sigma_w C^T + Sigma_y."""
    n, m, noise = model.n, len(stacked.C), stacked._innovation_noise
    M, R, Sw_Ct = stacked._M[first:], noise[first:m, first:], noise[m:, first:]
    scaled = _solve_gain(R, np.vstack([M.T, Sw_Ct]),
                         "measurement noise covariance")
    return ((model.A - scaled[n:].dot(M)).T, scaled[:n].dot(M),
            model.Sigma_w - scaled[n:].dot(Sw_Ct.T))


@np.errstate(over="ignore", invalid="ignore")
def _compose(first, second):
    """The triple of first's map, then second's (first may be a stack): with
    W = (I + G_2 H_1)^{-1}, A_1 W A_2, G_1 + A_1 W G_2 A_1^T, H_2 + A_2^T H_1 W
    A_2, G and H re-symmetrized; overflow is left non-finite, unwarned."""
    (A_1, G_1, H_1), (A_2, G_2, H_2) = first, second
    n = H_1.shape[-1]
    W = _solve(np.eye(n) + G_2 @ H_1, np.concatenate([A_2, G_2], axis=-1))
    G = G_1 + A_1 @ W[..., n:] @ A_1.swapaxes(-1, -2)
    H = H_2 + A_2.swapaxes(-1, -2) @ H_1 @ W[..., :n]
    return (A_1 @ W[..., :n], 0.5 * (G + G.swapaxes(-1, -2)),
            0.5 * (H + H.swapaxes(-1, -2)))

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
A_j (Anderson & Moore, Optimal Filtering, 1979), which _apply, the one map,
evaluates; a singular inverse is NaN, an overflow inf, for the run's final
check.  covariance_update (Joseph) and optimal_gain are reference forms only.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .exceptions import NumericalError
from .model import (SystemModel, _cut, _inverse, _read_only, _solve,
                    _transition_inverse)

_FIRST_CHUNK, _STRETCH = 8, 256     # rows of a stretch's first chunk, at most
_EPS = np.finfo(float).eps


class Mode(Enum):
    NORMAL = "normal"
    EMERGENCY = "emergency"


@dataclass(slots=True)
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
    is the innovation system of one P or a stack.  The invariants are
    defined here once: A^{-1} (ValueError for a singular A), C_bar_I = C_I
    (I - A^{-1}), the drift-free flag C_bar_I = 0 within 1e-12, whereupon
    C_bar_I and M's IMU rows C_I (A - I) are exact zeros in every form, so
    the flag and the matrices agree, and Sigma_bar, dead reckoning's floor,
    the emergency table's one-step H_1 (_riccati_triple).
    A model keeps its forms (SystemModel._derived) for any thread to read:
    every array is read-only, and a table or power is kept whole, equal
    from whichever thread built it.
    """

    def __init__(self, model: SystemModel):
        self.A_inv = _transition_inverse(model.A)    # ValueError if singular
        n, p, m_G, m_I = model.n, model.p, model.m_G, model.m_I
        m = m_G + m_I
        self.C = np.vstack([model.C_G, model.C_I])
        k = n + p + m
        self.Sigma_y = np.zeros((m, m))
        self.Sigma_y[:m_G, :m_G] = model.Sigma_G
        self.Sigma_y[m_G:, m_G:] = model.Sigma_I
        self.D = np.diag(np.arange(m) >= m_G).astype(float)
        self._lambda_min_G = np.linalg.eigvalsh(model.Sigma_G).min(initial=np.inf)

        self._model, self._tables, self._m_G = model, {}, m_G
        I_n = np.eye(n)
        # The drift-free structure (class docstring), before any form reads M.
        self.C_bar_I = model.C_I @ (I_n - self.A_inv)
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
            [A, B, I_n, np.zeros((n, m + n))],
            [self._M, CB, self.C, np.eye(m), np.zeros((m, n))],
            [np.zeros((m_G, n + p)), model.C_G, np.eye(m_G, m), self._M[:m_G]]])
        self._gain_base_T = np.vstack([A.T, B.T, np.zeros((m, n)), I_n])
        self._gain_coef_T = np.vstack([self._M_T, CB.T, -np.eye(m), self.C.T])
        # Per mode, the predictor's rows of them, F^T = base_T - coef_T K^T
        # for K in the gain columns: [T, B_K, K] on fuse's slots [x_hat; u;
        # y_G; y_I], or F_E = [T_E, B_E, K_I] on [x_hat; u; y_I].
        self._predictor = {mode: (gain, _read_only(self._gain_base_T[rows]),
                                  _read_only(self._gain_coef_T[rows, gain]),
                                  sizes) for mode, rows, gain, sizes in (
            (Mode.NORMAL, np.s_[:k], np.s_[:], (n, p, m_G, m_I)),
            (Mode.EMERGENCY, np.r_[:n + p, n + p + m_G:k], np.s_[m_G:],
             (n, p, m_I)))}
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def _table(self, mode: Mode):
        """(stack, powers, length), read-only, built on first use: the mode's
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
            length = int(np.isfinite(np.concatenate(stack, axis=1)).all(
                axis=(1, 2)).cumprod().sum())
            if not length:
                raise NumericalError(f"non-finite {mode.value} one-step triple")
            stack = [_read_only(t[:length]) for t in stack]
            while _FIRST_CHUNK <= length < _STRETCH and np.isfinite(
                    _square(powers, length.bit_length() - 1)).all():
                length *= 2
            self._tables.setdefault(mode, (stack, powers, length))
        return self._tables[mode]

    def _power(self, mode: Mode, k: int):
        """The mode's 2^k-step triple, squared on demand and kept."""
        return _square(self._table(mode)[1], k)

    Sigma_bar = property(lambda self: self._power(Mode.EMERGENCY, 0)[2])


def _square(powers: list, k: int):
    """powers[k], each power it lacks squared and stored at its own index."""
    for i in range(len(powers), k + 1):
        last = powers[i - 1]
        powers[i:i + 1] = [tuple(map(_read_only, _compose(last, last)))]
    return powers[k]


def optimal_gain(P_prev: np.ndarray, model: SystemModel,
                 stacked: StackedSensorForms) -> np.ndarray:
    """Trace-minimizing stacked gain K = [K_G, K_I], (n, m_G + m_I), for the
    given prior covariance: G R^{-1} of its innovation system."""
    return _solve_gain(*_innovation_system(P_prev, stacked),
                       "innovation covariance")


def _solve_gain(innov_cov: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """Gain rhs innov_cov^{-1}."""
    try:
        return np.linalg.solve(innov_cov.T, rhs.T).T
    except np.linalg.LinAlgError as exc:
        cond = np.linalg.cond(innov_cov)
        raise NumericalError(
            f"{what} is singular (condition number {cond:.3e})") from exc


def _innovation_system(P: np.ndarray, stacked: StackedSensorForms):
    """(R, G) of P, or of each P of a stack, from one product [M; A] (P
    M^T): R = M P M^T + C Sigma_w C^T + Sigma_y, whose GPS-GPS block is the
    detector's P_d (the GPS rows of M are C_G A), and G = A P M^T + Sigma_w
    C^T."""
    system = stacked._M_A @ (P @ stacked._M_T) + stacked._innovation_noise
    return system[..., :len(stacked.C), :], system[..., len(stacked.C):, :]


def covariance_update(P_prev: np.ndarray, K: np.ndarray, model: SystemModel,
                      stacked: StackedSensorForms) -> np.ndarray:
    """Covariance propagation for an arbitrary stacked gain K = [K_G, K_I],
    re-symmetrized: the Joseph update as one quadratic form W blockdiag(P,
    0_p, Sigma_y, Sigma_w) W^T of the gain's blocks W = [T, B_K, K, I - K
    C], one product."""
    W = (stacked._gain_base_T - stacked._gain_coef_T.dot(K.T)).T
    weight, at = np.zeros((W.shape[1],) * 2), 0
    for block in (P_prev, np.zeros((model.p,) * 2), stacked.Sigma_y,
                  model.Sigma_w):
        weight[at:at + len(block), at:at + len(block)] = block
        at += len(block)
    P = W.dot(weight).dot(W.T)
    return 0.5 * (P + P.T)


def _apply(triple, P: np.ndarray) -> np.ndarray:
    """f^j(P) = H_j + A_j^T P (I + G_j P)^{-1} A_j of a triple (A_j, G_j,
    H_j), re-symmetrized, for one P or a stack (the triple may be a stack
    too), in the caller's error state: where it ignores invalid values, a
    singular I + G_j P gives NaN."""
    A, G, H = triple
    GP = G @ P      # made I + G_j P in place: 1 added to its diagonal
    GP.reshape(*GP.shape[:-2], -1)[..., ::H.shape[-1] + 1] += 1.0
    rows = H + A.swapaxes(-1, -2) @ (P @ _solve(GP, A))
    return 0.5 * (rows + rows.swapaxes(-1, -2))


class _Stretch:
    """Row j of P is f^j(P_a), j = 0..L, L = 256 unless a power triple
    overflows, then the restart stretch from row L, in _extend's chunks, as
    read.  Prior row j < L has P_d^{-1} and predictor F ([T, B_K, K], or
    F_E), read-only, from one stacked inverse per chunk of each reader's
    operand (P_d; R, or R_II in emergency mode), so a singular one is NaN in
    its own row and reader only; F is one product of the mode's predictor
    rows (StackedSensorForms._predictor).  It keeps its forms and fuse's
    operand, cut once into slots: step one stretch from one thread only."""

    def __init__(self, mode: Mode, P_a: np.ndarray, stacked: StackedSensorForms):
        self.mode, length, self._stacked = mode, stacked._table(mode)[2], stacked
        _, base_T, _, sizes = stacked._predictor[mode]
        self._buffers = [np.empty((length + k, *shape)) for k, shape in (
            (1, P_a.shape), (0, (stacked._m_G,) * 2), (0, base_T.T.shape))]
        self._buffers[0][0] = P_a
        self.P, self.P_d_inv, self.F = views = [b.view() for b in self._buffers]
        for view in views:
            view.flags.writeable = False
        self._operand = np.empty(len(base_T))       # fuse's, filled each step
        self._slots = _cut(self._operand, sizes)
        self.restart, self._done = None, 0

    def _ready(self, j: int) -> None:
        """Compute prior row j's chunk, P_d^{-1} and F, unless it is done."""
        if self._done <= j < len(self.F):
            self._extend()

    @np.errstate(over="ignore", invalid="ignore")   # the run's check reports
    def _extend(self) -> None:
        """Rows lo + 1..hi by one stacked map, 1..8 by the table's stack of
        triples on row 0, lo + 1..2 lo by power lo on rows 1..lo; P_d^{-1}
        and F of rows lo..hi - 1 by a stacked inverse each, done once
        written; after the last the restart, the stretch itself where row L
        is row 0 bit for bit."""
        (P, P_d_inv, F), lo, stacked = self._buffers, self._done, self._stacked
        hi = min(len(F), max(_FIRST_CHUNK, 2 * lo))
        if lo:
            P[lo + 1:hi + 1] = _apply(
                stacked._power(self.mode, lo.bit_length() - 1), P[1:lo + 1])
        else:
            P[1:hi + 1] = _apply(stacked._table(self.mode)[0], P[0])
        (R, G), m_G = _innovation_system(P[lo:hi], stacked), stacked._m_G
        P_d, weight = R[:, :m_G, :m_G], P_d_inv[lo:hi]
        weight[...] = _inverse(P_d)
        # A row whose 1-norm condition reaches 1/eps is NaN, for the run's
        # check; P_d >= Sigma_G bounds it by trace(P_d) / lambda_min(Sigma_G).
        if P_d.trace(axis1=1, axis2=2).max() * _EPS >= stacked._lambda_min_G:
            weight[np.abs(P_d).sum(1).max(1) * np.abs(weight).sum(1).max(1)
                   * _EPS >= 1.0] = np.nan
        # G R^{-1}, or G_I R_II^{-1} in K_I's columns: F_E needs no R^{-1}.
        gain, base_T, coef_T, _ = stacked._predictor[self.mode]
        K = G[..., gain] @ _inverse(R[:, gain, gain])
        F[lo:hi] = (base_T - coef_T @ K.swapaxes(1, 2)).swapaxes(1, 2)
        if hi == len(F):
            self.restart = self if P[hi].tobytes() == P[0].tobytes() else \
                _Stretch(self.mode, P[hi], stacked)
        self._done = hi


def fuse(est: EstimatorState, model: SystemModel,
         u, y_G, y_I) -> EstimatorState:
    """Run one measurement update in the state's current mode, one product.

    Normal mode: x' = F [x_hat; u; y_G; y_I], the prediction A x_hat + B u
    corrected by both innovations.  Emergency mode: x' = F_E [x_hat; u; y_I],
    the IMU innovation only; y_G is never evaluated, so the estimate is
    bit-for-bit independent of it: the stretch's operand has no y_G slot.
    The operand's slots are filled in place, the mode's own only.  F and P'
    are read from the state's stretch, NaN or inf where they failed; a mode
    switch or a bare state opens one on the model's kept forms, and the
    row's chunk is computed unless a reader (the run's detector) already has.
    """
    stretch, j = est.stretch, est.row
    if stretch is None or stretch.mode is not est.mode:
        stretch, j = _Stretch(est.mode, est.P,
                              model._derived(StackedSensorForms)), 0
    stretch._ready(j)
    slots = stretch._slots
    slots[0][...], slots[1][...], slots[-1][...] = est.x_hat, u, y_I
    if est.mode is Mode.NORMAL:
        slots[2][...] = y_G
    x_new = stretch.F[j].dot(stretch._operand)
    stretch, j = (stretch, j + 1) if j + 1 < len(stretch.F) else \
        (stretch.restart, 0)
    new = EstimatorState(x_new, stretch.P[j], est.mode)
    new.stretch, new.row = stretch, j
    return new


@np.errstate(over="ignore", invalid="ignore")      # _table reports
def _riccati_triple(model: SystemModel, stacked: StackedSensorForms,
                    first: int):
    """The one-step triple (A_1, G_1, H_1) of the optimal-gain recursion on
    the sensor rows from first on (0: normal mode; m_G: the IMU alone), its
    cross term removed by the P = 0 system's R = C Sigma_w C^T + Sigma_y and
    gain K = Sigma_w C^T R^{-1}; H_1 = f(0) is in Joseph form, (I - K C)
    Sigma_w (I - K C)^T + K Sigma_y K^T, which does not cancel as Sigma_w /
    Sigma_y grows."""
    n, m, noise = model.n, len(stacked.C), stacked._innovation_noise
    M, R, Sw_Ct = stacked._M[first:], noise[first:m, first:], noise[m:, first:]
    M_T_R_inv, K = np.split(_solve_gain(R, np.vstack([M.T, Sw_Ct]),
                                        "measurement noise covariance"), 2)
    I_KC = np.eye(n) - K.dot(stacked.C[first:])
    H = I_KC.dot(model.Sigma_w).dot(I_KC.T) \
        + K.dot(stacked.Sigma_y[first:, first:]).dot(K.T)
    return (model.A - K.dot(M)).T, M_T_R_inv.dot(M), 0.5 * (H + H.T)


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

"""Reference forms of the paper's equations that the program is checked
against, kept out of the package.

joseph_step is one step of a mode's covariance recursion by the Joseph
update with the prior's own optimal gain: the step-by-step oracle for the
Riccati map estimator._apply, which the stretches and the escape analysis
apply.  lies_below is the Loewner order, and emergency_trunk and
trunk_bracket the emergency trunk that brackets every escape time.
long_joseph_rows and long_fixed_point are the long-double judge: the Joseph
recursion and the normal mode's doubling in np.longdouble.
"""

from types import ModuleType

import numpy as np

import spoofguard
from spoofguard.estimator import (Mode, covariance_update,
                                  _innovation_system, _solve_gain)


def gain_blocks(K, stacked):
    """The stacked gain's blocks W = [T, B_K, K, I - K C] = [A, B, 0, I] - K
    [M, C B, -I, C], one product, as covariance_update forms them."""
    return (stacked._gain_base_T - stacked._gain_coef_T.dot(K.T)).T


def mode_gain(P, mode, stacked):
    """The mode's optimal gain for P, solved from P's own innovation system:
    G R^{-1}, or the IMU-only [0, G_I R_II^{-1}]."""
    (R, G), m_G = _innovation_system(P, stacked), stacked._m_G
    if mode is Mode.NORMAL:
        return _solve_gain(R, G, "innovation covariance")
    return np.hstack([np.zeros_like(G[:, :m_G]), _solve_gain(
        R[m_G:, m_G:], G[:, m_G:], "IMU-only innovation covariance")])


def joseph_step(P, mode, stacked):
    """(predictor, P') one step from P in the mode: the predictor [T, B_K,
    K], or F_E = [T_E, B - K_I C_I B, K_I], and covariance_update's Joseph
    update with P's own gain (dead reckoning's step in emergency mode)."""
    K = mode_gain(P, mode, stacked)
    n_p, m_G = stacked._model.n + stacked._model.p, stacked._m_G
    columns = np.s_[:n_p + len(stacked.C)] if mode is Mode.NORMAL else \
        np.r_[:n_p, n_p + m_G:n_p + len(stacked.C)]     # F_E: no K_G
    return (gain_blocks(K, stacked)[:, columns],
            covariance_update(P, K, stacked._model, stacked))


def lies_below(P, Q) -> bool:
    """P <= Q in the Loewner order, by one eigvalsh: Q - P has no eigenvalue
    below -1e-12 times its largest."""
    eigvals = np.linalg.eigvalsh(np.asarray(Q, dtype=float) - P)
    return bool(eigvals[0] >= -1e-12 * eigvals[-1])


def emergency_trunk(stacked, steps) -> list:
    """H_0..H_steps of the emergency trunk H_k = f^k(0), by joseph_step."""
    rows = [np.zeros((stacked._model.n,) * 2)]
    for _ in range(steps):
        rows.append(joseph_step(rows[-1], Mode.EMERGENCY, stacked)[1])
    return rows


def trunk_bracket(P, trunk) -> tuple:
    """(j, i): the last row of trunk below P and the first above it, None
    where no row is."""
    below = [k for k, H in enumerate(trunk) if lies_below(H, P)]
    above = [k for k, H in enumerate(trunk) if lies_below(P, H)]
    return (below[-1] if below else None, above[0] if above else None)


def forbid_joseph_forms(patch):
    """Make the Joseph update and the optimal gain raise when called, on a
    monkeypatch or its context, in every spoofguard module that holds them:
    the program keeps them as reference forms only, so from a model's first
    use on, its forms, runs and analyses read every covariance from the
    triples."""
    def forbidden(*args):
        raise AssertionError("a Joseph step")
    modules = [spoofguard] + [value for value in vars(spoofguard).values()
                              if isinstance(value, ModuleType)]
    for module in modules:
        for name in ("covariance_update", "optimal_gain"):
            if hasattr(module, name):
                patch.setattr(module, name, forbidden)


# The long-double judge: the same maps in np.longdouble (18 digits), for the
# small models of the tests (n <= 6).  numpy.linalg rejects long double, so
# it solves by its own Gaussian elimination.

def _long(a) -> np.ndarray:
    return np.asarray(a, dtype=np.longdouble)


def long_solve(A, B) -> np.ndarray:
    """A^{-1} B in long double: Gauss-Jordan elimination with partial
    pivoting on [A, B]."""
    work = np.concatenate([_long(A), _long(B)], axis=1)
    n = len(work)
    for i in range(n):
        pivot = i + int(np.abs(work[i:, i]).argmax())
        work[[i, pivot]] = work[[pivot, i]]
        work[i] /= work[i, i]
        others = np.arange(n) != i
        work[others] -= np.outer(work[others, i], work[i])
    return work[:, n:]


def _long_mode(mode, stacked):
    """(A, Sigma_w, M, C, Sigma_y) of the mode's sensor rows in long double:
    both sensors, or the IMU alone.  M is the forms' own, whose IMU rows
    are exact zeros on a drift-free model."""
    rows = np.s_[:] if mode is Mode.NORMAL else np.s_[stacked._m_G:]
    model = stacked._model
    return (_long(model.A), _long(model.Sigma_w), _long(stacked._M[rows]),
            _long(stacked.C[rows]), _long(stacked.Sigma_y[rows, rows]))


def long_joseph_rows(P, mode, stacked, steps) -> np.ndarray:
    """P_1..P_steps of the mode's Joseph recursion from P in long double,
    each step with its prior's own optimal gain K = G R^{-1}."""
    A, Sw, M, C, Sy = _long_mode(mode, stacked)
    eye, P, rows = np.eye(len(A), dtype=np.longdouble), _long(P), []
    for _ in range(steps):
        R = M @ P @ M.T + C @ Sw @ C.T + Sy
        K = long_solve(R, (A @ P @ M.T + Sw @ C.T).T).T
        T, I_KC = A - K @ M, eye - K @ C
        P = T @ P @ T.T + I_KC @ Sw @ I_KC.T + K @ Sy @ K.T
        rows.append(P)
    return np.array(rows)


def long_fixed_point(stacked, doublings=64) -> np.ndarray:
    """The normal mode's stationary covariance by doubling in long double,
    from the one-step triple with H_1 = f(0) in Joseph form, until H_m
    stops changing."""
    A, Sw, M, C, Sy = _long_mode(Mode.NORMAL, stacked)
    R = C @ Sw @ C.T + Sy
    K = long_solve(R, C @ Sw).T
    I_KC = np.eye(len(A), dtype=np.longdouble) - K @ C
    A_m, G_m, H_m = ((A - K @ M).T, M.T @ long_solve(R, M),
                     I_KC @ Sw @ I_KC.T + K @ Sy @ K.T)
    for _ in range(doublings):
        W = long_solve(np.eye(len(A)) + G_m @ H_m, np.hstack([A_m, G_m]))
        W_A, W_G = np.hsplit(W, 2)
        previous = H_m
        A_m, G_m, H_m = (A_m @ W_A, G_m + A_m @ W_G @ A_m.T,
                         H_m + A_m.T @ H_m @ W_A)
        if (H_m == previous).all():
            break
    return H_m

"""Reference forms of the paper's equations that the program is checked
against, kept out of the package.

joseph_step is one step of a mode's covariance recursion by the Joseph
update with the prior's own optimal gain: the step-by-step oracle for the
Riccati map estimator._apply, which the stretches, the escape search and
escape_time's first step apply.
"""

import numpy as np

from spoofguard import estimator
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


def forbid_joseph_forms(patch):
    """Make estimator's Joseph update and optimal gain raise when called, on
    a monkeypatch or its context: past StackedSensorForms' invariants,
    which they build, a run reads every covariance from stretches."""
    def forbidden(*args):
        raise AssertionError("a Joseph step")
    for name in ("covariance_update", "optimal_gain"):
        patch.setattr(estimator, name, forbidden)

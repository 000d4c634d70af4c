from pathlib import Path

import numpy as np
import pytest

from spoofguard import (ScenarioShared, SystemModel, builtin_config_path,
                        estimator, harness, parse_config,
                        stationary_covariance)
from spoofguard.model import MATRIX_NAMES

# Draw 4 of imu_blind_model from default_rng(1), as written by
# imu_blind_config.
IMU_BLIND_CONFIG = Path(__file__).resolve().parent / "configs" / \
    "imu_blind.json"


def make_uav_model() -> SystemModel:
    """Planar double integrator, 0.01 s sampling, position GPS, velocity IMU."""
    dt = 0.01
    A = np.eye(4)
    A[0, 2] = dt
    A[1, 3] = dt
    B = np.zeros((4, 2))
    B[2, 0] = dt
    B[3, 1] = dt
    C_G = np.array([[1.0, 0.0, 0.0, 0.0],
                    [0.0, 1.0, 0.0, 0.0]])
    C_I = np.array([[0.0, 0.0, 1.0, 0.0],
                    [0.0, 0.0, 0.0, 1.0]])
    return SystemModel(A=A, B=B, C_G=C_G, C_I=C_I,
                       Sigma_w=1e-4 * np.eye(4),
                       Sigma_G=1e-3 * np.eye(2),
                       Sigma_I=1e-3 * np.eye(2))


@pytest.fixture(scope="session")
def uav_model() -> SystemModel:
    return make_uav_model()


@pytest.fixture(scope="session")
def uav_stationary_P(uav_model) -> np.ndarray:
    return stationary_covariance(uav_model)


def random_invertible_model(rng: np.random.Generator) -> SystemModel:
    """Random model with a well-conditioned A, for decoupling property tests."""
    n = int(rng.integers(2, 5))
    m_I = int(rng.integers(1, n + 1))
    U = np.linalg.qr(rng.normal(size=(n, n)))[0]
    V = np.linalg.qr(rng.normal(size=(n, n)))[0]
    A = U @ np.diag(rng.uniform(0.5, 2.0, size=n)) @ V
    C_I = rng.normal(size=(m_I, n))
    R = rng.normal(size=(n, n))
    Sigma_w = R @ R.T + 0.1 * np.eye(n)
    S = rng.normal(size=(m_I, m_I))
    Sigma_I = S @ S.T + 0.1 * np.eye(m_I)
    return SystemModel(A=A, B=np.zeros((n, 1)), C_G=np.eye(n), C_I=C_I,
                       Sigma_w=Sigma_w, Sigma_G=np.eye(n), Sigma_I=Sigma_I)


def imu_blind_model(rng):
    """A random model made drift-free by A + c^T (c - c A) / (c c^T), with
    C_I = c its first IMU row and Sigma_I = 1: unstable modes up to about
    1.6 that the IMU does not see, so dead reckoning's P reaches 1e32."""
    base = random_invertible_model(rng)
    c = base.C_I[:1]
    return SystemModel(A=base.A + c.T @ (c - c @ base.A) / (c @ c.T),
                       B=base.B, C_G=base.C_G, C_I=c, Sigma_w=base.Sigma_w,
                       Sigma_G=base.Sigma_G, Sigma_I=np.eye(1))


def imu_blind_config() -> dict:
    """The raw config of IMU_BLIND_CONFIG: draw 4 of imu_blind_model from
    default_rng(1), unattacked, with zeta_norm 1e20 (escape time 117).  B
    is 0, so the state grows with the unstable modes; 140 steps keep seed 0
    and a batch of three runs finite.  Dead reckoning after a false alarm
    drives P_d's condition to 1/eps, where the detector's weight is NaN:
    the batch's second run at 150 steps ends at step 145, and 1000-step
    runs of 40 seeds end from step 76 on."""
    rng = np.random.default_rng(1)
    for _ in range(5):
        model = imu_blind_model(rng)
    return {"model": {name: getattr(model, name).tolist()
                      for name in MATRIX_NAMES},
            "x0": [0.0] * model.n, "target": [10.0],
            "attack": {"kind": "none"}, "steps": 140, "seed": 0,
            "zeta_norm": 1e20}


def stretch_chain(stretch) -> list:
    """The stretch and its restarts, in order, as far as rows are computed;
    a stretch that is its own restart (a float fixed point) ends it."""
    stretches = []
    while stretch is not None and stretch._done and (
            not stretches or stretch is not stretches[-1]):
        stretches.append(stretch)
        stretch = stretch.restart
    return stretches


def detector_weight(est, stacked) -> np.ndarray:
    """P_d^{-1} of the state's P as a run's detector reads it, from its
    stretch row (NaN where P_d is singular); a bare state, or one whose mode
    is not its stretch's, opens a stretch, as fuse does."""
    stretch, j = est.stretch, est.row
    if stretch is None or stretch.mode is not est.mode:
        stretch, j = estimator._Stretch(est.mode, est.P, stacked), 0
    stretch._ready(j)
    return stretch.P_d_inv[j]


def trunk_stretches(model) -> list:
    """The stretches with computed rows of the trunk the model keeps: the
    normal stretch from P = 0, then each restart; none before a run of the
    model reads it."""
    return stretch_chain(model._derived(ScenarioShared).__dict__.get("trunk"))


def trunk_rows(model) -> np.ndarray:
    """The trunk's computed covariances P_1, P_2, ... across its restarts,
    one per stretch row (a self-restart's rows once)."""
    return np.concatenate([np.empty((0, model.n, model.n))] + [
        s.P[1:s._done + 1] for s in trunk_stretches(model)])


def run_columns(cols) -> tuple:
    """A run's ten columns: x to err_norm in _RECORD_KEYS order, then P."""
    return (*(getattr(cols, key) for key in harness._RECORD_KEYS
              if key not in ("k", "mode")), cols.P)


def decoupling_residual(model: SystemModel, L: np.ndarray,
                        C_bar: np.ndarray) -> float:
    """Residual of the noise-decoupling identity that L must satisfy:
    (I - L C_bar - L C_bar A^{-1}) Sigma_w (C_I A^{-1})^T - L Sigma_I = 0.
    """
    n = model.n
    A_inv = np.linalg.inv(model.A)
    lhs = (np.eye(n) - L @ C_bar - L @ C_bar @ A_inv) @ model.Sigma_w \
        @ (model.C_I @ A_inv).T - L @ model.Sigma_I
    return float(np.abs(lhs).max()) if lhs.size else 0.0


@pytest.fixture()
def uav_config():
    """The shipped config parsed anew: its model keeps no run state yet."""
    return parse_config(builtin_config_path())


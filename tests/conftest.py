import numpy as np
import pytest

from spoofguard import (ScenarioShared, SystemModel, builtin_config_path,
                        parse_config, stationary_covariance)


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


def chain_steps(stacked) -> list:
    """The steps of the chain from stacked.origin, P = 0, in order, up to the
    last one built: the trunk's steps, the last of which may be unfused.  A
    step whose next is itself, the exact fixed point, ends the chain."""
    steps, step = [], stacked.origin
    while step is not None and step.R is not None:
        steps.append(step)
        step = None if step.next is step else step.next
    return steps


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
    return parse_config(builtin_config_path())


@pytest.fixture(scope="session")
def uav_shared():
    config = parse_config(builtin_config_path())
    return ScenarioShared(config.model)

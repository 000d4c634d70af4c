"""Linear plant with an absolute (GPS) sensor and a relative (IMU) sensor.

The plant is

    x_k = A x_{k-1} + B u_{k-1} + w_{k-1}
    y_k^G = C_G x_k + d_k + v_k^G         (absolute position fix, spoofable)
    y_k^I = C_I (x_k - x_{k-1}) + v_k^I   (relative measurement, trusted)

with iid zero-mean Gaussian noises of covariances Sigma_w, Sigma_G, Sigma_I.
The additive term d_k is the injected spoofing signal.
"""

from __future__ import annotations

import reprlib
from dataclasses import FrozenInstanceError, dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .exceptions import ConfigError

ATTACK_KINDS = ("none", "constant-bias", "ramp", "custom-sequence")
MATRIX_NAMES = ("A", "B", "C_G", "C_I", "Sigma_w", "Sigma_G", "Sigma_I")


def _check_count(name: str, value, least: int) -> None:
    """Raise ConfigError unless value is an integer (numpy's too, bools not)
    of at least `least`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(
            f"{name}: must be an integer, got {reprlib.repr(value)}")
    if value < least:
        raise ConfigError(f"{name}: must be >= {least}, got {value}")


def _read_only(values) -> np.ndarray:
    """A read-only float copy of values."""
    values = np.array(values, dtype=float)
    values.setflags(write=False)
    return values


class SystemModel:
    """Immutable container for the plant and sensor matrices: each is a
    read-only float copy, and every attribute fails at assignment, as a
    frozen dataclass's does.  _derived keeps what is built from it alone.

    Construction only coerces shapes; use validate_model() to get a report
    of violated invariants (dimensions, positive definiteness, singular A).
    """

    def __init__(self, A, B, C_G, C_I, Sigma_w, Sigma_G, Sigma_I):
        for name, M in zip(MATRIX_NAMES,
                           (A, B, C_G, C_I, Sigma_w, Sigma_G, Sigma_I)):
            M = _read_only(M)
            if M.ndim != 2:
                raise ValueError(
                    f"{name} must be 2-dimensional, got shape {M.shape}")
            object.__setattr__(self, name, M)
        for name, size in (("n", self.A.shape[0]), ("p", self.B.shape[1]),
                           ("m_G", self.C_G.shape[0]),
                           ("m_I", self.C_I.shape[0])):
            object.__setattr__(self, name, size)
        object.__setattr__(self, "_memo", {})

    def _derived(self, build):
        """build(self), built on first use and kept; a build that raises
        keeps nothing.  Threads that build at once all get the first kept."""
        if build not in self._memo:
            self._memo.setdefault(build, build(self))
        return self._memo[build]

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        return (f"SystemModel(n={self.n}, p={self.p}, "
                f"m_G={self.m_G}, m_I={self.m_I})")


@dataclass
class PlantState:
    """True state of the plant, keeping the previous state for the relative sensor."""

    x: np.ndarray
    x_prev: np.ndarray
    k: int = 0

    @classmethod
    def initial(cls, x0) -> "PlantState":
        x0 = np.asarray(x0, dtype=float)
        # x_prev starts equal to x0 so the first relative reading is pure noise.
        return cls(x=x0.copy(), x_prev=x0.copy(), k=0)


@dataclass(frozen=True)
class AttackSignal:
    """Additive spoofing signal d_k applied to the absolute sensor.

    kind 'none':            d_k = 0 for all k.
    kind 'constant-bias':   d_k = d for k >= start_step, else 0.
    kind 'ramp':            d_k = (k - start_step) * d for k >= start_step.
    kind 'custom-sequence': d_k = sequence[k - start_step] for k >= start_step.

    d and the sequence's rows (a tuple) are stored as read-only float copies.
    """

    kind: str = "none"
    d: Optional[np.ndarray] = None
    start_step: int = 0
    sequence: Optional[Sequence[np.ndarray]] = None

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ConfigError(f"attack.kind: unknown kind {self.kind!r}, "
                              f"expected one of {ATTACK_KINDS}")
        _check_count("attack.start_step", self.start_step, 0)
        if self.kind in ("constant-bias", "ramp") and self.d is None:
            raise ConfigError(f"attack.d: required for kind {self.kind!r}")
        if self.kind == "custom-sequence" and self.sequence is None:
            raise ConfigError(
                "attack.sequence: required for kind 'custom-sequence'")
        if self.d is not None:
            object.__setattr__(self, "d", _read_only(self.d))
        if self.sequence is not None:
            object.__setattr__(self, "sequence",
                               tuple(map(_read_only, self.sequence)))

    @classmethod
    def none(cls) -> "AttackSignal":
        return cls(kind="none")

    def check(self, m_G: int, steps: int) -> None:
        """Raise ConfigError unless d, or each sequence row, has m_G entries
        and a custom sequence lasts through step `steps`."""
        if self.kind in ("constant-bias", "ramp") and self.d.shape != (m_G,):
            raise ConfigError(
                f"attack.d: has shape {self.d.shape}, expected ({m_G},)")
        if self.kind != "custom-sequence":
            return
        for i, row in enumerate(self.sequence):
            if row.shape != (m_G,):
                raise ConfigError(f"attack.sequence[{i}]: has shape "
                                  f"{row.shape}, expected ({m_G},)")
        needed = steps - self.start_step + 1
        if len(self.sequence) < needed:
            raise ConfigError(
                f"attack.sequence: has {len(self.sequence)} entries, but "
                f"steps {self.start_step}..{steps} need {needed}")

    def signal_at(self, k: int, m_G: int) -> np.ndarray:
        """Evaluate d_k for step k; zero before start_step."""
        return self.signal_range(k, k + 1, m_G)[0]

    def signal_range(self, first: int, stop: int, m_G: int) -> np.ndarray:
        """d_k for the steps first <= k < stop, one row each, for an attack
        that passes check(m_G, stop - 1)."""
        d, start = np.zeros((max(stop - first, 0), m_G)), self.start_step
        lo = max(first, start)
        if self.kind == "none" or lo >= stop:
            return d
        if self.kind == "constant-bias":
            d[lo - first:] = self.d
        elif self.kind == "ramp":
            d[lo - first:] = np.arange(lo - start, stop - start)[:, None] \
                * self.d
        else:
            d[lo - first:] = self.sequence[lo - start:stop - start]
        return d


def step_dynamics(model: SystemModel, state: PlantState,
                  u: np.ndarray, w: np.ndarray) -> PlantState:
    """Advance the plant one step: x' = A x + B u + w."""
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    if state.x.shape != (model.n,):
        raise ValueError(f"state has shape {state.x.shape}, expected ({model.n},)")
    if u.shape != (model.p,):
        raise ValueError(f"input has shape {u.shape}, expected ({model.p},)")
    if w.shape != (model.n,):
        raise ValueError(f"process noise has shape {w.shape}, expected ({model.n},)")
    x_new = model.A @ state.x + model.B @ u + w
    return PlantState(x=x_new, x_prev=state.x, k=state.k + 1)


def measure_gps(model: SystemModel, state: PlantState,
                attack: AttackSignal, v_G: np.ndarray) -> np.ndarray:
    """Absolute measurement y^G = C_G x + d_k + v_G at the state's current step."""
    return model.C_G @ state.x + attack.signal_at(state.k, model.m_G) + np.asarray(v_G, dtype=float)


def measure_imu(model: SystemModel, state: PlantState, v_I: np.ndarray) -> np.ndarray:
    """Relative measurement y^I = C_I (x - x_prev) + v_I."""
    return model.C_I @ (state.x - state.x_prev) + np.asarray(v_I, dtype=float)


class GaussianSampler:
    """Zero-mean Gaussian draws with a fixed covariance.

    The covariance is factored once (symmetric eigendecomposition with small
    negative eigenvalues clamped to zero at a -1e-12 tolerance) and the factor
    is reused across draws, since covariances are constant per scenario.
    Each draw's standard normals go into a scratch array the sampler keeps,
    so one sampler must not be used from two threads at once.
    """

    def __init__(self, Sigma):
        Sigma = np.atleast_2d(np.asarray(Sigma, dtype=float))
        if Sigma.shape[0] != Sigma.shape[1]:
            raise ValueError(f"covariance must be square, got shape {Sigma.shape}")
        self.dim = Sigma.shape[0]
        sym = 0.5 * (Sigma + Sigma.T)
        eigvals, eigvecs = np.linalg.eigh(sym)      # (0,) and (0, 0) at dim 0
        tol = 1e-12 * max(1.0, float(np.abs(eigvals).max(initial=0.0)))
        if eigvals.min(initial=0.0) < -tol:
            raise ValueError(
                f"covariance is not positive semidefinite "
                f"(min eigenvalue {eigvals.min():.3e})")
        self._factor = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
        self._draw = np.empty(self.dim)

    def sample(self, rng: np.random.Generator, out=None) -> np.ndarray:
        """Draw one vector, into out if given, else into a new array; the
        stream and the bits are those of standard_normal(dim)."""
        return self._factor.dot(rng.standard_normal(out=self._draw), out=out)


def validate_model(model: SystemModel) -> list:
    """Check the model invariants and return a list of findings (empty = valid)."""
    findings = [f"{name}: holds a non-finite entry" for name in MATRIX_NAMES
                if not np.isfinite(getattr(model, name)).all()]
    n = model.n
    if model.A.shape != (n, n):
        findings.append(f"A: must be square, got shape {model.A.shape}")
    if model.B.shape[0] != n:
        findings.append(f"B: has {model.B.shape[0]} rows, expected {n}")
    if model.C_G.shape[1] != n:
        findings.append(f"C_G: has {model.C_G.shape[1]} columns, expected {n}")
    if model.C_I.shape[1] != n:
        findings.append(f"C_I: has {model.C_I.shape[1]} columns, expected {n}")
    if model.Sigma_w.shape != (n, n):
        findings.append(f"Sigma_w: has shape {model.Sigma_w.shape}, expected ({n}, {n})")
    if model.Sigma_G.shape != (model.m_G, model.m_G):
        findings.append(
            f"Sigma_G: has shape {model.Sigma_G.shape}, expected "
            f"({model.m_G}, {model.m_G}) to match the C_G row count")
    if model.Sigma_I.shape != (model.m_I, model.m_I):
        findings.append(
            f"Sigma_I: has shape {model.Sigma_I.shape}, expected "
            f"({model.m_I}, {model.m_I}) to match the C_I row count")
    if findings:
        return findings  # the checks below need finite, well-shaped matrices

    for name, strict in (("Sigma_w", False), ("Sigma_G", True), ("Sigma_I", True)):
        findings.extend(_covariance_findings(name, getattr(model, name), strict))

    try:
        _transition_inverse(model.A)
    except ValueError as exc:
        findings.append(str(exc))
    return findings


def _transition_inverse(A: np.ndarray) -> np.ndarray:
    """A^{-1}, or ValueError when an entry of A is not finite, or A is
    singular or numerically singular.

    Invertible A is a model invariant: dead reckoning's drift structure
    C_I (I - A^{-1}) needs it.
    """
    if not np.isfinite(A).all():
        raise ValueError("A: holds a non-finite entry")
    sv = np.linalg.svd(A, compute_uv=False)
    if sv.size and not sv.min() > 1e-12 * max(1.0, sv.max()):
        raise ValueError(
            f"A: singular or numerically singular (min singular value "
            f"{sv.min():.3e}); the model requires invertible A")
    return _inverse(A)


# a^{-1} b and a^{-1} for float64 stacks by LAPACK's gufuncs, in the caller's
# error state: where it ignores invalid values, a singular a gives NaN.
_solve = partial(_umath_linalg.solve, signature="dd->d")
_inverse = partial(_umath_linalg.inv, signature="d->d")


def _covariance_findings(name: str, Sigma: np.ndarray, strict: bool) -> list:
    findings = []
    if Sigma.size == 0:
        return findings
    asym = np.abs(Sigma - Sigma.T).max()
    if asym > 1e-10 * max(1.0, np.abs(Sigma).max()):
        findings.append(f"{name}: not symmetric (max asymmetry {asym:.3e})")
        return findings
    eigvals = np.linalg.eigvalsh(0.5 * (Sigma + Sigma.T))
    tol = 1e-12 * max(1.0, float(np.abs(eigvals).max()))
    if strict:
        if eigvals.min() <= tol:
            findings.append(
                f"{name}: not positive definite (min eigenvalue {eigvals.min():.3e}); "
                f"sensor noise covariances must be invertible")
    elif eigvals.min() < -tol:
        findings.append(
            f"{name}: not positive semidefinite (min eigenvalue {eigvals.min():.3e})")
    return findings

import math
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from spoofguard import (AttackSignal, EstimatorState, Mode,
                        NumericalError, ScenarioShared, StackedSensorForms,
                        SystemModel, builtin_config_path,
                        covariance_update, cusum_update, drift_matrices,
                        escape_time, estimator, fuse, monte_carlo,
                        optimal_gain, parse_config, harness, run_scenario,
                        stationary_covariance)

from spoofguard.detector import normalized_residual
from spoofguard.estimator import (_STRETCH, _Stretch, _apply, _compose,
                                  _innovation_system, _riccati_triple)
from spoofguard.model import MATRIX_NAMES, _inverse

from conftest import (detector_weight, imu_blind_model, make_uav_model,
                      random_invertible_model, run_columns, stretch_chain,
                      trunk_rows, trunk_stretches)
from reference import (forbid_joseph_forms, gain_blocks, joseph_step,
                       long_joseph_rows)


@pytest.fixture(scope="module")
def model():
    return make_uav_model()


@pytest.fixture(scope="module")
def stacked(model):
    return StackedSensorForms(model)


def zero_gain(model):
    return np.zeros((model.n, model.m_G + model.m_I))


def on_stretch(P, stacked, mode=Mode.NORMAL):
    """A state at x_hat = 0 whose P is row 0 of a new stretch of the mode."""
    est = EstimatorState(np.zeros(len(P)), P, mode)
    est.stretch = _Stretch(mode, P, stacked)
    return est


def stretch_rows(stretch, steps):
    """The covariances of `steps` steps from the stretch's row 0, read as
    fuse reads them, across restarts."""
    rows, j = [], 0
    for _ in range(steps):
        stretch._ready(j)
        assert j < stretch._done
        j += 1
        if j == len(stretch.F):
            stretch, j = stretch.restart, 0
        rows.append(stretch.P[j])
    return np.array(rows)


class TestStackedForms:
    def test_blocks(self, model, stacked):
        np.testing.assert_array_equal(stacked.C[:2], model.C_G)
        np.testing.assert_array_equal(stacked.C[2:], model.C_I)
        np.testing.assert_array_equal(stacked.Sigma_y[:2, :2], model.Sigma_G)
        np.testing.assert_array_equal(stacked.Sigma_y[2:, 2:], model.Sigma_I)

    def test_selector_idempotent(self, stacked):
        np.testing.assert_array_equal(stacked.D @ stacked.D, stacked.D)

    def test_selector_zeroes_gps_block(self, stacked):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(stacked.D @ y, [0.0, 0.0, 3.0, 4.0])


class TestInnovationSystem:
    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4])
    def test_stacked_product_equals_two_products(self, model, seed):
        # None is the UAV model; an integer seeds a random model.
        rng = np.random.default_rng(99 if seed is None else seed)
        if seed is not None:
            model = random_invertible_model(rng)
        stacked = StackedSensorForms(model)
        M, m = stacked._M, len(stacked.C)
        C_Sw_Ct_Sy = stacked._innovation_noise[:m]
        Sw_Ct = stacked._innovation_noise[m:]
        for _ in range(10):
            R = rng.normal(size=(model.n, model.n))
            P = R @ R.T
            P_Mt = P.dot(M.T)
            innov_cov, gain_rhs = _innovation_system(P, stacked)
            assert np.array_equal(innov_cov, M.dot(P_Mt) + C_Sw_Ct_Sy)
            assert np.array_equal(gain_rhs, model.A.dot(P_Mt) + Sw_Ct)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_a_state_never_reads_another_covariances_step(self, model, mode):
        # The stretch lives on the state whose P is its row: neither
        # dataclasses.replace nor a hand-built state carries one over.
        stacked = StackedSensorForms(model)
        rng = np.random.default_rng(7)
        x_hat, u, y_G, y_I = (rng.normal(size=2 * k) for k in (2, 1, 1, 1))
        first = fuse(EstimatorState(x_hat, 1e-3 * np.eye(4)), model,
                     u, y_G, y_I)
        assert first.stretch is not None and first.row == 1
        assert np.shares_memory(first.P, first.stretch.P)
        detector_weight(first, stacked)
        other = 5.0 * first.P

        def outputs(est):
            out = fuse(est, model, u, y_G, y_I)
            return (detector_weight(est, stacked), out.x_hat, out.P,
                    optimal_gain(est.P, model, stacked))

        want = outputs(EstimatorState(first.x_hat, other, mode))
        for est in (replace(first, P=other, mode=mode),
                    EstimatorState(first.x_hat, other, mode)):
            assert est.stretch is None
            for got, w in zip(outputs(est), want):
                assert got.tobytes() == w.tobytes()
            assert est.stretch is None


class TestStateSlots:
    """EstimatorState is a slotted dataclass: a state holds its five fields
    only, and fuse builds a new one each step."""

    def test_replace_carries_no_stretch(self, model):
        est = fuse(EstimatorState.initial(np.ones(4)), model,
                   np.zeros(2), np.zeros(2), np.zeros(2))
        assert (est.stretch is not None, est.row) == (True, 1)
        assert not hasattr(est, "__dict__")
        with pytest.raises(AttributeError):
            est.gain = None
        for mode in Mode:
            moved = replace(est, mode=mode)
            assert (moved.stretch, moved.row, moved.mode) == (None, 0, mode)
            assert moved.x_hat is est.x_hat and moved.P is est.P

    @pytest.mark.parametrize("mode", list(Mode))
    def test_fuse_leaves_its_input_and_shares_its_row(self, model, mode):
        # 300 steps cross a stretch's restart; a bare state opens one.
        rng = np.random.default_rng(23)
        est = EstimatorState(rng.normal(size=4), 1e-3 * np.eye(4), mode)
        for _ in range(300):
            u, y_G, y_I = rng.normal(size=(3, 2))
            before = (est.x_hat.tobytes(), est.P.tobytes(), est.mode,
                      est.stretch, est.row)
            out = fuse(est, model, u, y_G, y_I)
            assert (est.x_hat.tobytes(), est.P.tobytes(), est.mode,
                    est.stretch, est.row) == before
            assert out.mode is mode and out.stretch.mode is mode
            assert np.shares_memory(out.P, out.stretch.P[out.row])
            assert out.P.tobytes() == out.stretch.P[out.row].tobytes()
            est = out


@pytest.fixture(scope="module")
def priors_per_model():
    """(model, priors): every prior of a 1000-step attacked paper_uav run,
    then five random models with random priors and P = 0."""
    config = parse_config(builtin_config_path())
    trace = run_scenario(config)
    n = config.model.n
    cases = [(config.model, [np.zeros((n, n)), *trace.columns.P[:-1]])]
    rng = np.random.default_rng(41)
    for _ in range(5):
        model = random_invertible_model(rng)
        Rs = rng.normal(size=(20, model.n, model.n))
        cases.append((model, [np.zeros((model.n, model.n)),
                              *(R @ R.T for R in Rs)]))
    return cases


class TestNormalStepCoefficients:
    """The detector's P_d^{-1} and fuse's one-step predictor, read from a
    stretch row, against the solve and the innovation form they replace."""

    def test_quadratic_form_matches_the_solve(self, priors_per_model):
        rng = np.random.default_rng(42)
        for model, priors in priors_per_model:
            stacked, m_G = StackedSensorForms(model), model.m_G
            for P in priors:
                d_hat = rng.normal(size=m_G)
                P_d = _innovation_system(P, stacked)[0][:m_G, :m_G]
                q = normalized_residual(d_hat, detector_weight(
                    on_stretch(P, stacked), stacked))
                expected = d_hat @ np.linalg.solve(P_d, d_hat)
                assert abs(q - expected) <= 1e-12 * expected

    def test_a_nan_weight_is_a_nan_statistic(self):
        # A singular P_d's NaN inverse: the run's final check reports the
        # NaN, where inf would be a latched alarm.
        P_d_inv = np.full((2, 2), np.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(normalized_residual(np.ones(2), P_d_inv))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_residual_is_inf_without_a_warning(self, bad):
        # The diagonal P_d's inverse has exact zeros, so inf would meet 0
        # inside the product.
        P_d_inv = np.linalg.inv(np.diag([2.0, 0.5]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d_hat in ([bad, 0.0], [1.0, bad], [bad, -bad]):
                assert normalized_residual(np.array(d_hat), P_d_inv) == \
                    math.inf

    def test_singular_residual_covariance_raises(self, model):
        # Sigma_w = 0 and Sigma_G = 0, which validate_model rejects: at P = 0
        # P_d = 0 and R = blockdiag(0, Sigma_I).  The normal mode has no
        # triple, so the stretch a bare state opens for its weight raises
        # _table's error; the emergency mode's does not, and its P_d^{-1}
        # is NaN, for the run's check.  cusum_update solves its P_d.
        quiet = SystemModel(A=model.A, B=model.B, C_G=model.C_G, C_I=model.C_I,
                            Sigma_w=np.zeros((4, 4)), Sigma_G=np.zeros((2, 2)),
                            Sigma_I=model.Sigma_I)
        stacked = StackedSensorForms(quiet)
        with pytest.raises(NumericalError, match="^measurement noise "
                                                 "covariance is singular"):
            detector_weight(EstimatorState(np.zeros(4), np.zeros((4, 4))),
                            stacked)
        assert np.isnan(detector_weight(EstimatorState(
            np.zeros(4), np.zeros((4, 4)), Mode.EMERGENCY), stacked)).all()
        with pytest.raises(NumericalError, match="residual covariance"):
            cusum_update(0.0, np.ones(2), np.zeros((2, 2)), 0.15)

    def test_normal_fuse_equals_the_innovation_form(self, priors_per_model):
        rng = np.random.default_rng(43)
        for model, priors in priors_per_model:
            stacked = StackedSensorForms(model)
            A, B, C_G, C_I = model.A, model.B, model.C_G, model.C_I
            for P in priors:
                x_hat = rng.normal(size=model.n)
                u = rng.normal(size=model.p)
                y_G, y_I = rng.normal(size=model.m_G), rng.normal(size=model.m_I)
                got = fuse(EstimatorState(x_hat, P), model, u, y_G, y_I).x_hat
                K = optimal_gain(P, model, stacked)
                pred = A @ x_hat + B @ u
                want = (pred + K[:, :model.m_G] @ (y_G - C_G @ pred)
                        + K[:, model.m_G:] @ (y_I - C_I @ (pred - x_hat)))
                assert np.linalg.norm(got - want) <= \
                    1e-12 * np.linalg.norm(x_hat)


class TestStackedInverse:
    """Each chunk of a stretch inverts one operand per reader, stacked over
    its rows: P_d for the detector's P_d^{-1}, and R (normal mode) or R_II
    (emergency mode) for the predictor's gain.  A singular operand is NaN
    in its own row and slot only, for the run's final check."""

    def test_blocks_match_the_solves(self, priors_per_model):
        drift_free = set()
        for model, priors in priors_per_model:
            stacked, m_G = StackedSensorForms(model), model.m_G
            drift_free.add(stacked.drift_free)
            for P in priors:
                P_d = _innovation_system(P, stacked)[0][:m_G, :m_G]
                want_P_d_inv = np.linalg.solve(P_d, np.eye(m_G))
                for mode in Mode:
                    est = on_stretch(P, stacked, mode)
                    P_d_inv = detector_weight(est, stacked)
                    assert (np.abs(P_d_inv - want_P_d_inv).max()
                            <= 1e-12 * np.abs(want_P_d_inv).max())
                    F, want = est.stretch.F[0], joseph_step(P, mode,
                                                            stacked)[0]
                    assert (np.abs(F - want).max()
                            <= 1e-12 * np.abs(want).max())
        assert drift_free == {True, False}

    def test_one_inverse_per_reader_per_chunk_on_drift_models(
            self, priors_per_model, monkeypatch):
        # From one state the detector, then fuse, read the inverses that its
        # row's chunk made, one of P_d and one of the gain's block; the rows
        # of a chunk make no further call, and the next chunk two more.
        # optimal_gain solves and inverts nothing.
        calls, inverse = [], estimator._inverse

        def counted(*args, **kwargs):
            calls.append(args)
            return inverse(*args, **kwargs)
        monkeypatch.setattr(estimator, "_inverse", counted)
        for model, priors in priors_per_model[1:]:
            stacked = StackedSensorForms(model)
            assert not stacked.drift_free
            n, p, m_G, m_I = model.n, model.p, model.m_G, model.m_I
            for P in priors[:5]:
                for mode in Mode:
                    del calls[:]
                    est = on_stretch(P, stacked, mode)
                    for _ in range(9):
                        detector_weight(est, stacked)
                        est = fuse(est, model, np.zeros(p),
                                   np.zeros(m_G), np.zeros(m_I))
                        assert len(calls) == 2 * (1 + (est.row > 8))
                optimal_gain(P, model, stacked)
                assert len(calls) == 4

    def test_a_failed_inverse_is_nan_for_the_runs_check(
            self, priors_per_model, monkeypatch):
        # Inverses that fail (LAPACK's NaN for a singular matrix) leave the
        # chunk's P_d^{-1} and predictors NaN and its covariances as they
        # are: no other computation takes their place.
        def singular(a):
            return np.full(np.shape(a), np.nan)

        def quantities(model, est, stacked):
            out = fuse(est, model, np.ones(model.p),
                       np.ones(model.m_G), np.ones(model.m_I))
            return detector_weight(est, stacked), out.x_hat, out.P

        for model, priors in priors_per_model:
            for P in priors[:5]:
                for mode in Mode:
                    want = quantities(model, on_stretch(
                        P, StackedSensorForms(model), mode),
                        StackedSensorForms(model))
                    stacked = StackedSensorForms(model)
                    with monkeypatch.context() as patched:
                        patched.setattr(estimator, "_inverse", singular)
                        forbid_joseph_forms(patched)
                        P_d_inv, x_hat, P_next = quantities(
                            model, on_stretch(P, stacked, mode), stacked)
                    assert np.isnan(P_d_inv).all() and np.isnan(x_hat).all()
                    assert P_next.tobytes() == want[2].tobytes()

    @pytest.mark.parametrize("bad", ["nan", "inf off the blocks",
                                     "singular"])
    def test_no_stale_input_after_a_failed_inverse(self, model, bad):
        # A stretch whose R held NaN, or inf only off its diagonal blocks,
        # leaves nothing behind: a later stretch's chunk inverts its own
        # rows' P_d, bit for bit.  A model whose noise covariance is
        # singular has no normal triple: opening a normal stretch raises
        # _table's error, for every state.
        if bad == "singular":     # at P = 0, R = blockdiag(0, Sigma_I)
            model = SystemModel(A=model.A, B=model.B, C_G=model.C_G,
                                C_I=model.C_I, Sigma_w=np.zeros((4, 4)),
                                Sigma_G=np.zeros((2, 2)),
                                Sigma_I=model.Sigma_I)
            stacked = StackedSensorForms(model)
            for P in (np.zeros((4, 4)), np.eye(4)):
                with pytest.raises(NumericalError, match="^measurement noise "
                                   "covariance is singular"):
                    on_stretch(P, stacked)
            return
        if bad == "nan":
            P_bad = np.full((4, 4), np.nan)
        else:   # M = [2, 0; 0, 2]: (M P M^T)_GI = 4 * 5e307 overflows
            model = SystemModel(A=np.diag([2.0, 3.0]), B=np.ones((2, 1)),
                                C_G=[[1.0, 0.0]], C_I=[[0.0, 1.0]],
                                Sigma_w=np.eye(2), Sigma_G=np.eye(1),
                                Sigma_I=np.eye(1))
            P_bad = np.array([[1.0, 5e307], [5e307, 1.0]])
        stacked, n, m_G = StackedSensorForms(model), model.n, model.m_G
        stretch = _Stretch(Mode.NORMAL, P_bad, stacked)
        stretch._ready(0)
        assert 0 < stretch._done
        # a non-finite predictor, for the run's final check
        assert not np.isfinite(stretch.F[0]).all()
        if bad == "inf off the blocks":
            with np.errstate(over="ignore"):
                R = _innovation_system(P_bad, stacked)[0]
            assert np.isfinite([R[0, 0], R[1, 1]]).all()
            assert np.isinf([R[0, 1], R[1, 0]]).all()
            # P_d is finite: the detector's slot is too.
            assert np.isfinite(stretch.P_d_inv[0]).all()
        X = np.random.default_rng(5).normal(size=(n, n))
        for P in (np.eye(n), X @ X.T):
            est = on_stretch(P, stacked)
            got = detector_weight(est, stacked)
            R = _innovation_system(P, stacked)[0]
            assert got.tobytes() == np.linalg.inv(R[:m_G, :m_G]).tobytes()
            assert np.isfinite(est.stretch.F[0]).all()

    def test_a_singular_P_d_is_nan_in_its_own_slot(self, model, stacked):
        # P_a = -diag(s, s, 0, 0) with s = 1e-4 + 1e-3 makes row 0's P_d
        # exactly 0 on paper_uav (C_G A = [I, dt I]).  Its P_d^{-1} alone is
        # NaN: every other prior of the chunk has the bytes of a stretch
        # opened at its row, and row 0's emergency predictor, which needs
        # only R_II^{-1}, stays finite and matches the Joseph oracle's.
        s = 1e-4 + 1e-3
        P_a = -np.diag([s, s, 0.0, 0.0])
        assert not _innovation_system(P_a, stacked)[0][:2, :2].any()
        stretch = _Stretch(Mode.EMERGENCY, P_a, stacked)
        stretch._ready(0)
        assert 0 < stretch._done
        assert np.isnan(stretch.P_d_inv[0]).all()
        for j in range(1, 8):
            alone = _Stretch(Mode.EMERGENCY, stretch.P[j], stacked)
            alone._ready(0)
            assert 0 < alone._done
            assert np.isfinite(stretch.P_d_inv[j]).all()
            assert alone.P_d_inv[0].tobytes() == stretch.P_d_inv[j].tobytes()
            assert alone.F[0].tobytes() == stretch.F[j].tobytes()
        want = joseph_step(P_a, Mode.EMERGENCY, stacked)[0]
        assert np.isfinite(stretch.F[0]).all()
        assert np.abs(stretch.F[0] - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("big, kept", [(1e11, True), (4.7e12, True),
                                           (1e14, False)])
    def test_an_ill_conditioned_P_d_is_nan_in_its_own_slot(self, stacked,
                                                           big, kept):
        # P_a = diag(big, 0, 0, 0) gives row 0 P_d = diag(big + s, s), s =
        # 1.1e-3 on paper_uav: condition 9e13 (no chunk check, as trace(P_d)
        # eps < lambda_min(Sigma_G) = 1e-3), 4.3e15 (checked, below 1/eps)
        # and 9e16, whose P_d^{-1} is NaN though LAPACK inverts it.  Row 0's
        # emergency predictor stays finite.
        P_a = np.diag([big, 0.0, 0.0, 0.0])
        stretch = _Stretch(Mode.EMERGENCY, P_a, stacked)
        stretch._ready(0)
        want = np.linalg.inv(_innovation_system(P_a, stacked)[0][:2, :2])
        assert np.isfinite(want).all() and np.isfinite(stretch.F[0]).all()
        if kept:
            assert stretch.P_d_inv[0].tobytes() == want.tobytes()
        else:
            assert np.isnan(stretch.P_d_inv[0]).all()

    def test_emergency_fuse_follows_long_double_until_overflow(
            self, monkeypatch):
        # The 20 imu_blind_model draws: drift-free, with unstable modes the
        # IMU does not see.  1000 emergency fuse calls from P = 0 stay
        # within 1e-11 of dead reckoning's recursion P <- A P A^T +
        # Sigma_bar in extended precision until it leaves the float range,
        # and the first non-finite P comes at that step or one before (on 7
        # draws; the other 13 stay finite).  No call makes a Joseph step.
        # With C_I (A - I) left at its 1e-16 roundoff, up to 952 of the 1000
        # calls were Joseph steps, and draw 4's rows stalled near 1e34.
        rng, overflowed = np.random.default_rng(1), {}
        big = np.finfo(float).max
        for draw in range(20):
            model = imu_blind_model(rng)
            stacked, n = model._derived(StackedSensorForms), model.n
            assert stacked.drift_free
            est = EstimatorState(np.zeros(n), np.zeros((n, n)),
                                 Mode.EMERGENCY)
            rows = []
            with np.errstate(over="ignore", invalid="ignore"), \
                    monkeypatch.context() as patched:
                forbid_joseph_forms(patched)
                for _ in range(1000):
                    est = fuse(est, model, np.zeros(model.p),
                               np.zeros(model.m_G), np.zeros(model.m_I))
                    rows.append(est.P)
            A, floor = (np.asarray(a, dtype=np.longdouble)
                        for a in (model.A, stacked.Sigma_bar))
            P, oracle = np.zeros_like(A), []
            for _ in range(1000):
                P = A @ P @ A.T + floor
                oracle.append(P)
            oracle = np.array(oracle)
            rows = np.array(rows)
            inside = np.abs(oracle).max(axis=(1, 2)) <= big
            stop = int(inside.argmin()) if not inside.all() else 1000
            finite = np.isfinite(rows).all(axis=(1, 2))
            first_bad = int(finite.argmin()) if not finite.all() else 1000
            assert first_bad in (stop - 1, stop)
            assert largest_relative_gap(rows[:first_bad],
                                        oracle[:first_bad]) <= 1e-11
            if stop < 1000:
                overflowed[draw] = first_bad + 1    # as a 1-based step
        assert overflowed == {1: 996, 3: 753, 4: 935, 6: 820, 9: 793,
                              10: 972, 14: 750}

    def test_singular_innovation_covariance_raises(self, model):
        # Sigma_w = 0 and Sigma_G = 0: at P = 0, R = blockdiag(0, Sigma_I).
        # The normal stretch fuse opens raises _table's error; optimal_gain
        # solves R itself.
        quiet = SystemModel(A=model.A, B=model.B, C_G=model.C_G, C_I=model.C_I,
                            Sigma_w=np.zeros((4, 4)), Sigma_G=np.zeros((2, 2)),
                            Sigma_I=model.Sigma_I)
        stacked, P = StackedSensorForms(quiet), np.zeros((4, 4))
        with pytest.raises(NumericalError, match="^measurement noise "
                                                 "covariance is singular"):
            fuse(EstimatorState(np.zeros(4), P), quiet,
                 np.zeros(2), np.zeros(2), np.zeros(2))
        with pytest.raises(NumericalError, match="^innovation covariance"):
            optimal_gain(P, quiet, stacked)


class TestInverseHelper:
    """model._inverse, which the chunks and the transition inverse call, is
    np.linalg.inv's gufunc without the wrapper's argument handling: the same
    bytes on invertible operands, and no warning."""

    @staticmethod
    def outcome(inv, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = inv(a)
        return got.dtype, got.shape, got.tobytes()

    def same_as_inv(self, a):
        want = self.outcome(np.linalg.inv, a)
        assert self.outcome(_inverse, a) == want
        return want

    def test_equals_inv_on_the_steps_operands(self, priors_per_model):
        # A chunk's operands, each prior's R, P_d and R_II, and the model's
        # A, whose inverse the forms keep.
        for model, priors in priors_per_model:
            stacked, m_G = StackedSensorForms(model), model.m_G
            assert stacked.A_inv.tobytes() == \
                np.linalg.inv(model.A).tobytes()
            for P in priors:
                R = _innovation_system(P, stacked)[0]
                for a in (R, R[:m_G, :m_G], R[m_G:, m_G:]):
                    assert self.same_as_inv(a)[0] == np.float64

    def test_equals_inv_on_random_spd_matrices(self):
        rng = np.random.default_rng(17)
        for size in range(1, 7):
            for _ in range(20):
                X = rng.normal(size=(size, size))
                spd = X @ X.T + 1e-3 * np.eye(size)
                assert self.same_as_inv(spd)[0] == np.float64

    def test_the_program_never_calls_np_linalg_inv(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg.inv called")
        monkeypatch.setattr(np.linalg, "inv", forbidden)
        config = parse_config(builtin_config_path())
        assert run_scenario(config).attack_detection_step == 700
        batch = monte_carlo(replace(config, runs=4, steps=200))
        assert batch.n_runs == 4 and np.isfinite(batch.mean_error).all()


class TestDeadReckoningDetector:
    """After an alarm the detector reads P_d^{-1} from the emergency
    stretch: a chunk inverts its rows' P_d and R_II, no inverse per step
    and no R^{-1}, on drift-free and drift models."""

    def test_equals_the_steps_block_bit_for_bit(self):
        # P_d^{-1} alone has the bytes of P_d's block of blockdiag(P_d,
        # R_II)^{-1}, which earlier versions inverted.
        config = parse_config(builtin_config_path())
        m_G = config.model.m_G
        for seed in range(5):
            cols = run_scenario(replace(config, seed=seed)).columns
            priors = cols.P[cols.alarmed]
            assert len(priors) >= 300
            stacked = config.model._derived(StackedSensorForms)
            for P in priors:
                got = detector_weight(on_stretch(P, stacked, Mode.EMERGENCY),
                                      stacked)
                R = _innovation_system(P, stacked)[0]
                assert got.tobytes() == np.linalg.inv(R[:m_G, :m_G]).tobytes()
                R[:m_G, m_G:] = R[m_G:, :m_G] = 0.0
                assert got.tobytes() == np.linalg.inv(R)[:m_G, :m_G].tobytes()

    def test_emergency_chunks_invert_one_block_pair(self, model, stacked,
                                                    monkeypatch):
        P = stacked.Sigma_bar
        for _ in range(2):
            P = joseph_step(P, Mode.EMERGENCY, stacked)[1]
        est = on_stretch(P, stacked, Mode.EMERGENCY)
        shapes, inverse = [], estimator._inverse

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return inverse(a, *args, **kwargs)
        monkeypatch.setattr(estimator, "_inverse", counted)
        for _ in range(8):
            detector_weight(est, stacked)
            est = fuse(est, model, np.zeros(2), np.zeros(2), np.zeros(2))
        assert shapes == [(8, 2, 2), (8, 2, 2)]     # P_d, R_II

    def test_a_spoofed_run_builds_no_step_after_its_alarm(self, monkeypatch):
        # A NaN spoof from step 150 of seed 1 (no earlier alarm): the trunk's
        # chunks give priors 0..149 (8, 8, 16, 32, 64 and 128 rows, each
        # inverting P_d, then R), the emergency stretch's priors 0..50 (8,
        # 8, 16 and 32 rows, P_d, then R_II), and no step is a Joseph step.
        config = parse_config(builtin_config_path())
        config = replace(config, seed=1, steps=200, attack=AttackSignal(
            kind="custom-sequence", start_step=150,
            sequence=[np.full(2, np.nan)] * 51))
        shapes, inverse, simulate = [], estimator._inverse, harness._simulate

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return inverse(a, *args, **kwargs)

        def simulated(*args, **kwargs):
            with monkeypatch.context() as patched:
                patched.setattr(estimator, "_inverse", counted)
                forbid_joseph_forms(patched)
                return simulate(*args, **kwargs)
        monkeypatch.setattr(harness, "_simulate", simulated)
        # The model's forms, built before the run forbids the Joseph forms.
        m = len(config.model._derived(StackedSensorForms).C)
        cols = run_scenario(config).columns
        assert np.flatnonzero(cols.alarmed).tolist() == list(range(149, 200))
        assert [s._done for s in trunk_stretches(config.model)] == [256]
        assert shapes == [shape for k in (8, 8, 16, 32, 64, 128)
                          for shape in ((k, 2, 2), (k, m, m))] \
            + [shape for k in (8, 8, 16, 32) for shape in ((k, 2, 2),
                                                           (k, 2, 2))]

    def test_drift_models_read_the_stretch(self, priors_per_model):
        for model, priors in priors_per_model[1:]:
            stacked = StackedSensorForms(model)
            for P in priors[:5]:
                est = on_stretch(P, stacked, Mode.EMERGENCY)
                got = detector_weight(est, stacked)
                assert np.shares_memory(got, est.stretch.P_d_inv)
                assert not got.flags.writeable


class TestOneProductBlocks:
    """The gain's blocks [T, B_K, K, I - K C] = [A, B, 0, I] - K [M, CB, -I, C]
    and the emergency predictor F_E taken from them, against the separate
    products and the innovation form they replace."""

    @staticmethod
    def blocks_and_separate(model, stacked, P):
        K = optimal_gain(P, model, stacked)
        n, p, m = model.n, model.p, K.shape[1]
        blocks = gain_blocks(K, stacked)
        separate = (model.A - K.dot(stacked._M),
                    model.B - K.dot(stacked.C @ model.B), K,
                    np.eye(n) - K.dot(stacked.C))
        return np.split(blocks, [n, n + p, n + p + m], axis=1), separate

    def test_blocks_byte_equal_on_paper_uav(self, priors_per_model):
        model, priors = priors_per_model[0]
        stacked = StackedSensorForms(model)
        for P in priors:
            for got, want in zip(*self.blocks_and_separate(model, stacked, P)):
                assert got.tobytes() == want.tobytes()

    def test_blocks_agree_on_random_models(self, priors_per_model):
        for model, priors in priors_per_model[1:]:
            stacked = StackedSensorForms(model)
            for P in priors:
                for got, want in zip(*self.blocks_and_separate(model, stacked,
                                                               P)):
                    assert (np.linalg.norm(got - want)
                            <= 1e-14 * np.linalg.norm(want))

    def test_emergency_predictor_equals_the_innovation_form(
            self, priors_per_model):
        # paper_uav's constant F_E, then drift models, whose IMU-only gain
        # follows the prior.
        rng = np.random.default_rng(44)
        for index, (model, priors) in enumerate(priors_per_model):
            stacked = StackedSensorForms(model)
            assert stacked.drift_free == (index == 0)
            A, B, C_I, Sw = model.A, model.B, model.C_I, model.Sigma_w
            M_I = C_I @ A - C_I
            for P in priors:
                x_hat = rng.normal(size=model.n)
                u = rng.normal(size=model.p)
                y_I = rng.normal(size=model.m_I)
                got = fuse(EstimatorState(x_hat, P, Mode.EMERGENCY), model,
                           u, np.full(model.m_G, np.nan), y_I).x_hat
                K_I = np.linalg.solve(
                    (M_I @ P @ M_I.T + C_I @ Sw @ C_I.T + model.Sigma_I).T,
                    (A @ P @ M_I.T + Sw @ C_I.T).T).T
                pred = A @ x_hat + B @ u
                want = pred + K_I @ (y_I - C_I @ (pred - x_hat))
                assert np.linalg.norm(got - want) <= \
                    1e-12 * np.linalg.norm(x_hat)


class TestCovarianceUpdate:
    def test_zero_gain_is_open_loop(self, model, stacked):
        rng = np.random.default_rng(1)
        R = rng.normal(size=(4, 4))
        P = R @ R.T
        out = covariance_update(P, zero_gain(model), model, stacked)
        np.testing.assert_allclose(out, model.A @ P @ model.A.T + model.Sigma_w,
                                   rtol=1e-14)

    def test_process_noise_floor(self, model, stacked):
        out = covariance_update(np.zeros((4, 4)), zero_gain(model), model, stacked)
        np.testing.assert_allclose(out, 1e-4 * np.eye(4), rtol=1e-14)

    def test_emergency_gain_gives_closed_form(self, model, stacked):
        # With a drift-free relative sensor the dead-reckoning covariance law
        # collapses to A P A^T + Sigma_bar.
        drift = drift_matrices(model)
        K = np.hstack([np.zeros((4, 2)), closed_form_invariants(model)[0]])
        P = stationary_covariance(model)
        for _ in range(50):
            updated = covariance_update(P, K, model, stacked)
            closed = model.A @ P @ model.A.T + drift.Sigma_bar
            assert np.linalg.norm(updated - closed) <= 1e-12 * np.linalg.norm(closed)
            P = updated

    def test_one_quadratic_form_equals_the_three_terms(self,
                                                       priors_per_model):
        # W blockdiag(P, 0_p, Sigma_y, Sigma_w) W^T against
        # T P T^T + (I - K C) Sigma_w (I - K C)^T + K Sigma_y K^T, for the
        # optimal gain and a perturbed one.
        rng = np.random.default_rng(45)
        for model, priors in priors_per_model:
            stacked, n = StackedSensorForms(model), model.n
            for P in priors:
                K = optimal_gain(P, model, stacked)
                for gain in (K, K + rng.normal(scale=0.1, size=K.shape)):
                    got = covariance_update(P, gain, model, stacked)
                    T = model.A - gain @ stacked._M
                    IKC = np.eye(n) - gain @ stacked.C
                    want = (T @ P @ T.T + IKC @ model.Sigma_w @ IKC.T
                            + gain @ stacked.Sigma_y @ gain.T)
                    want = 0.5 * (want + want.T)
                    assert (np.abs(got - want).max()
                            <= 1e-14 * np.linalg.norm(want, 2))

    def test_output_symmetric_psd(self, model, stacked):
        rng = np.random.default_rng(7)
        P = 1e-4 * np.eye(4)
        for _ in range(1000):
            K = optimal_gain(P, model, stacked)
            P = covariance_update(P, K, model, stacked)
            assert np.array_equal(P, P.T)
            assert np.linalg.eigvalsh(P).min() >= -1e-10
        # also holds for random (suboptimal) gains
        P = 1e-4 * np.eye(4)
        for _ in range(200):
            K = np.hstack([rng.normal(scale=0.1, size=(4, 2)),
                           rng.normal(scale=0.1, size=(4, 2))])
            P = covariance_update(P, K, model, stacked)
            assert np.array_equal(P, P.T)
            assert np.linalg.eigvalsh(P).min() >= -1e-10


class TestOptimalGain:
    def test_beats_perturbed_gains(self, model, stacked):
        rng = np.random.default_rng(123)
        for _ in range(20):
            R = rng.normal(size=(4, 4)) * 0.5
            P = R @ R.T
            K_opt = optimal_gain(P, model, stacked)
            base = np.trace(covariance_update(P, K_opt, model, stacked))
            for _ in range(20):
                eps = rng.normal(size=(4, 4))
                eps *= 1e-2 / np.linalg.norm(eps)
                K_pert = K_opt + eps
                assert base <= np.trace(covariance_update(P, K_pert, model, stacked))

    def test_first_order_condition(self, model, stacked):
        # The gradient of the trace objective must vanish at the solution:
        # (A - K M) P (-M)^T - (I - K C) Sigma_w C^T + K Sigma_y = 0.
        rng = np.random.default_rng(99)
        C, D, Sy = stacked.C, stacked.D, stacked.Sigma_y
        M = C @ model.A - D @ C
        for _ in range(25):
            R = rng.normal(size=(4, 4))
            P = R @ R.T
            K = optimal_gain(P, model, stacked)
            resid = ((model.A - K @ M) @ P @ (-M).T
                     - (np.eye(4) - K @ C) @ model.Sigma_w @ C.T
                     + K @ Sy)
            assert np.abs(resid).max() <= 1e-9

    def test_no_uncertainty_no_correction(self):
        base = make_uav_model()
        model = SystemModel(A=base.A, B=base.B, C_G=base.C_G, C_I=base.C_I,
                            Sigma_w=np.zeros((4, 4)), Sigma_G=base.Sigma_G,
                            Sigma_I=base.Sigma_I)
        stacked = StackedSensorForms(model)
        K = optimal_gain(np.zeros((4, 4)), model, stacked)
        assert np.abs(K).max() <= 1e-15


class TestEmergencyGain:
    def test_uav_values(self, model):
        K = closed_form_invariants(model)[0]
        expected = np.zeros((4, 2))
        expected[2, 0] = 1e-4 / 1.1e-3
        expected[3, 1] = 1e-4 / 1.1e-3
        np.testing.assert_allclose(K, expected, rtol=1e-12)

    def test_useless_sensor_ignored(self):
        base = make_uav_model()
        model = SystemModel(A=base.A, B=base.B, C_G=base.C_G, C_I=base.C_I,
                            Sigma_w=base.Sigma_w, Sigma_G=base.Sigma_G,
                            Sigma_I=1e6 * np.eye(2))
        assert np.linalg.norm(closed_form_invariants(model)[0]) <= 1e-6

    def test_symmetric_scalar_blend(self):
        one = np.eye(1)
        model = SystemModel(A=one, B=one, C_G=one, C_I=one,
                            Sigma_w=one, Sigma_G=one, Sigma_I=one)
        np.testing.assert_allclose(closed_form_invariants(model)[0], [[0.5]],
                                   rtol=1e-14)


def closed_form_invariants(model):
    """Dead reckoning's gain K_I = Sigma_w C_I^T (C_I Sigma_w C_I^T +
    Sigma_I)^{-1} from the P = 0 system, and Sigma_bar = (I - K_I C_I)
    Sigma_w (I - K_I C_I)^T + K_I Sigma_I K_I^T, the emergency H_1."""
    Sw_CIt = model.Sigma_w @ model.C_I.T
    K_I = np.linalg.solve((model.C_I @ Sw_CIt + model.Sigma_I).T, Sw_CIt.T).T
    IKC = np.eye(model.n) - K_I @ model.C_I
    return K_I, IKC @ model.Sigma_w @ IKC.T + K_I @ model.Sigma_I @ K_I.T


class TestDerivedInvariants:
    def test_uav_closed_forms_bit_for_bit(self, model, stacked):
        Sigma_bar = closed_form_invariants(model)[1]
        assert stacked.Sigma_bar.tobytes() == Sigma_bar.tobytes()
        assert stacked.Sigma_bar is stacked._power(Mode.EMERGENCY, 0)[2]

    def test_random_closed_forms(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            model = random_invertible_model(rng)
            got = StackedSensorForms(model).Sigma_bar
            want = closed_form_invariants(model)[1]
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_long_double_judges_the_floor_and_the_rows(self):
        # The 20 drift-free draws: Sigma_bar and 300 emergency rows from P =
        # 0 against the Joseph recursion in long double (tests/reference.py).
        rng = np.random.default_rng(1)
        for _ in range(20):
            model = drift_free_random_model(rng)
            stacked, zero = StackedSensorForms(model), np.zeros((model.n,) * 2)
            want = long_joseph_rows(zero, Mode.EMERGENCY, stacked, 300)
            assert largest_relative_gap(stacked.Sigma_bar[None],
                                        want[:1]) <= 1e-15
            rows = stretch_rows(_Stretch(Mode.EMERGENCY, zero, stacked), 300)
            assert largest_relative_gap(rows, want) <= 1e-13


class TestNonFiniteOneStepTriple:
    """A one-step triple that overflows, on paper_uav with A scaled by
    1e200, is _table's NumericalError, and no warning comes before it."""

    @pytest.fixture()
    def overflowing(self, model):
        return SystemModel(A=1e200 * model.A, B=model.B, C_G=model.C_G,
                           C_I=model.C_I, Sigma_w=model.Sigma_w,
                           Sigma_G=model.Sigma_G, Sigma_I=model.Sigma_I)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_table_raises(self, overflowing, mode):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=(
                    f"^non-finite {mode.value} one-step triple$")):
                StackedSensorForms(overflowing)._table(mode)

    @pytest.mark.parametrize("analyse", [
        drift_matrices, lambda m: escape_time(np.zeros((4, 4)), m, 2.0, 0.01)],
        ids=["drift_matrices", "escape_time"])
    def test_analyses_raise_without_a_warning(self, overflowing, analyse):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=(
                    "^non-finite emergency one-step triple$")):
                analyse(overflowing)


class TestFuse:
    def test_noise_free_consistency(self, model):
        # Perfect initial estimate and no noise: the estimate tracks exactly.
        x = np.array([1.0, -1.0, 0.2, 0.1])
        est = EstimatorState.initial(x)
        u = np.array([0.3, -0.2])
        for _ in range(100):
            x_prev = x
            x = model.A @ x + model.B @ u
            y_G = model.C_G @ x
            y_I = model.C_I @ (x - x_prev)
            est = fuse(est, model, u, y_G, y_I)
            assert np.linalg.norm(x - est.x_hat) <= 1e-9

    def test_emergency_ignores_gps_bit_exact(self, model):
        # The constant predictor of a drift-free model: the estimate and P
        # are bit-for-bit those of the unspoofed readings.
        rng = np.random.default_rng(17)
        est1 = EstimatorState(x_hat=np.zeros(4), P=1e-3 * np.eye(4),
                              mode=Mode.EMERGENCY)
        est2 = EstimatorState(x_hat=np.zeros(4), P=1e-3 * np.eye(4),
                              mode=Mode.EMERGENCY)
        for _ in range(50):
            u = rng.normal(size=2)
            y_I = rng.normal(size=2)
            y_truth = rng.normal(size=2)
            est1 = fuse(est1, model, u, y_truth, y_I)
            est2 = fuse(est2, model, u, y_truth + 1e6, y_I)
            assert np.array_equal(est1.x_hat, est2.x_hat)
            assert np.array_equal(est1.P, est2.P)

    @pytest.mark.parametrize("spoof", [1e6, np.inf, -np.inf, np.nan])
    def test_emergency_ignores_non_finite_gps(self, model, spoof):
        rng = np.random.default_rng(18)
        est1 = EstimatorState(x_hat=np.zeros(4), P=1e-3 * np.eye(4),
                              mode=Mode.EMERGENCY)
        est2 = EstimatorState(x_hat=np.zeros(4), P=1e-3 * np.eye(4),
                              mode=Mode.EMERGENCY)
        for _ in range(20):
            u, y_I, y_truth = rng.normal(size=(3, 2))
            est1 = fuse(est1, model, u, y_truth, y_I)
            est2 = fuse(est2, model, u, np.full(2, spoof), y_I)
            assert np.array_equal(est1.x_hat, est2.x_hat)
            assert np.array_equal(est1.P, est2.P)

    def test_emergency_gps_gain_is_zero(self, model, stacked):
        K = optimal_gain(1e-3 * np.eye(4), model, stacked)
        assert np.abs(K[:, :2]).max() > 0  # normal mode uses GPS
        # emergency covariance equals the zero-GPS-gain update
        est = EstimatorState(x_hat=np.zeros(4), P=1e-3 * np.eye(4),
                             mode=Mode.EMERGENCY)
        out = fuse(est, model, np.zeros(2), np.zeros(2), np.zeros(2))
        K_emergency = np.hstack([np.zeros((4, 2)),
                                 closed_form_invariants(model)[0]])
        expected = covariance_update(est.P, K_emergency, model, stacked)
        np.testing.assert_allclose(out.P, expected, rtol=1e-14)

    def test_emergency_covariance_is_the_dead_reckoning_map(self, model,
                                                            stacked):
        # fuse's emergency covariance is the emergency stretch's row 1, f(P)
        # from the one-step triple, bit for bit; the escape analysis's
        # dead-reckoning step and the Joseph update with the zero-padded
        # gain agree with it to 1e-15.  On the UAV model the triple is
        # (A^T, 0, Sigma_bar): f(P) = A P A^T + Sigma_bar.
        assert stacked.drift_free
        A_1, G_1, H_1 = stacked._power(Mode.EMERGENCY, 0)
        np.testing.assert_array_equal(A_1, model.A.T)
        assert not G_1.any()
        assert np.linalg.norm(H_1 - stacked.Sigma_bar) <= \
            1e-15 * np.linalg.norm(stacked.Sigma_bar)
        np.testing.assert_array_equal(stacked.Sigma_bar,
                                      drift_matrices(model).Sigma_bar)
        K_emergency = np.hstack([np.zeros((4, 2)),
                                 closed_form_invariants(model)[0]])
        rng = np.random.default_rng(19)
        for P in (stationary_covariance(model), 1e-3 * np.eye(4),
                  *(R @ R.T for R in rng.normal(size=(3, 4, 4)))):
            est = EstimatorState(x_hat=np.zeros(4), P=P,
                                 mode=Mode.EMERGENCY)
            out = fuse(est, model, np.zeros(2), np.zeros(2), np.zeros(2))
            stretch = _Stretch(Mode.EMERGENCY, P, stacked)
            stretch._ready(0)
            assert 0 < stretch._done
            assert out.P.tobytes() == stretch.P[1].tobytes()
            for other in (covariance_update(P, K_emergency, model, stacked),
                          joseph_step(P, Mode.EMERGENCY, stacked)[1]):
                assert np.linalg.norm(out.P - other) <= \
                    1e-15 * np.linalg.norm(other)


class TestEmergencyWithDrift:
    """fuse's emergency branch on models whose relative sensor drifts
    (C_I A != C_I), where the IMU-only gain follows the prior."""

    @pytest.mark.parametrize("seed", range(8))
    def test_covariance_is_joseph_with_imu_only_gain(self, seed):
        rng = np.random.default_rng(seed)
        model = random_invertible_model(rng)
        stacked = StackedSensorForms(model)
        assert not stacked.drift_free
        A, C_I, Sw, S_I = model.A, model.C_I, model.Sigma_w, model.Sigma_I
        M_I = C_I @ A - C_I
        R = rng.normal(size=(model.n, model.n))
        est = EstimatorState(x_hat=rng.normal(size=model.n), P=R @ R.T,
                             mode=Mode.EMERGENCY)
        for _ in range(10):
            P = est.P
            K_I = np.linalg.solve((M_I @ P @ M_I.T + C_I @ Sw @ C_I.T + S_I).T,
                                  (A @ P @ M_I.T + Sw @ C_I.T).T).T
            T = A - K_I @ M_I
            IKC = np.eye(model.n) - K_I @ C_I
            want = T @ P @ T.T + IKC @ Sw @ IKC.T + K_I @ S_I @ K_I.T
            est = fuse(est, model, rng.normal(size=1),
                       rng.normal(size=model.m_G), rng.normal(size=model.m_I))
            assert np.linalg.norm(est.P - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("spoof", [1e6, np.inf, -np.inf, np.nan])
    def test_estimate_ignores_gps(self, spoof):
        rng = np.random.default_rng(21)
        model = random_invertible_model(rng)
        stacked = StackedSensorForms(model)
        assert not stacked.drift_free
        est1 = est2 = EstimatorState(x_hat=np.zeros(model.n),
                                     P=np.eye(model.n),
                                     mode=Mode.EMERGENCY)
        for _ in range(20):
            u, y_I = rng.normal(size=1), rng.normal(size=model.m_I)
            y_truth = rng.normal(size=model.m_G)
            est1 = fuse(est1, model, u, y_truth, y_I)
            est2 = fuse(est2, model, u, np.full(model.m_G, spoof), y_I)
            assert np.array_equal(est1.x_hat, est2.x_hat)
            assert np.array_equal(est1.P, est2.P)


class TestModeBehaviour:
    def test_normal_mode_covariance_converges(self, model, stacked):
        # Bounded covariance with the GPS pair detectable.  The contraction
        # rate is about 0.981 per step, so the per-step change first drops
        # below 1e-9 near step 700 and the distance to the fixed point falls
        # below 1e-8 near step 900; 1500 steps covers both with margin.
        P = model.Sigma_w.copy()
        first_below = None
        for k in range(1, 1501):
            K = optimal_gain(P, model, stacked)
            P_next = covariance_update(P, K, model, stacked)
            diff = np.linalg.norm(P_next - P)
            P = P_next
            if first_below is None and diff <= 1e-9:
                first_below = k
        assert first_below is not None
        assert np.linalg.norm(P - stationary_covariance(model)) <= 1e-8

    def test_emergency_mode_covariance_grows_unbounded(self, model, stacked):
        K = np.hstack([np.zeros((4, 2)), closed_form_invariants(model)[0]])
        P = stationary_covariance(model)
        start_trace = np.trace(P)
        prev = start_trace
        crossed = None
        for k in range(1, 10_001):
            P = covariance_update(P, K, model, stacked)
            tr = np.trace(P)
            assert tr > prev
            prev = tr
            if crossed is None and tr > 1e3 * start_trace:
                crossed = k
        assert crossed is not None


def unexcited_unstable_model(a=2.0):
    """A = diag(a, 1) whose unstable mode gets no process noise: valid and
    detectable, but its triples' G_j grow like a^(2j)."""
    return SystemModel(A=np.diag([a, 1.0]), B=np.zeros((2, 1)), C_G=np.eye(2),
                       C_I=[[1.0, 0.0]], Sigma_w=np.diag([0.0, 1e-4]),
                       Sigma_G=np.eye(2), Sigma_I=np.eye(1))


def drift_free_random_model(rng, gaussian=False):
    """A random model whose IMU row c has c A = c (so C_bar_I = 0): A = V
    diag(1, lambda) V^{-1} with the other eigenvalues in [0.5, 0.95], V = U
    diag(s) (U orthogonal, s in [0.5, 2]) well conditioned, or Gaussian,
    and c the first row of V^{-1}."""
    base = random_invertible_model(rng)
    n = base.n
    V = rng.normal(size=(n, n)) if gaussian else np.linalg.qr(
        rng.normal(size=(n, n)))[0] @ np.diag(rng.uniform(0.5, 2.0, size=n))
    V_inv = np.linalg.inv(V)
    A = V @ np.diag([1.0, *rng.uniform(0.5, 0.95, size=n - 1)]) @ V_inv
    return SystemModel(A=A, B=base.B, C_G=base.C_G, C_I=V_inv[:1],
                       Sigma_w=base.Sigma_w, Sigma_G=base.Sigma_G,
                       Sigma_I=base.Sigma_I[:1, :1])


def riccati_map(triple, P):
    """H + A^T P (I + G P)^{-1} A of one triple (A, G, H), re-symmetrized."""
    A, G, H = triple
    row = H + A.T @ (P @ np.linalg.solve(np.eye(len(P)) + G @ P, A))
    return 0.5 * (row + row.T)


def joseph_rows(P, mode, stacked, steps):
    """The covariances of `steps` Joseph updates from P, each with the
    mode's optimal gain for its prior."""
    rows = []
    for _ in range(steps):
        P = joseph_step(P, mode, stacked)[1]
        rows.append(P)
    return np.array(rows)


def largest_relative_gap(rows, oracle):
    """max over rows of |row - oracle|_F / |oracle|_F."""
    return (np.linalg.norm(rows - oracle, axis=(1, 2))
            / np.linalg.norm(oracle, axis=(1, 2))).max()


class TestStretch:
    """Row j of a stretch is f^j(P_a) from the j-step triple, computed in
    chunks; a stretch restarts from its last row."""

    @pytest.mark.parametrize("index", range(4))
    def test_rows_are_byte_equal_in_any_chunks(self, priors_per_model,
                                               index):
        # Each row has the bytes it has in a chunk of its own: row j <= 8 is
        # the stack's triple j on P_a, row lo + i (lo = 8, ..., 128, i =
        # 1..lo) the power triple lo on row i.  Each prior's P_d^{-1} and
        # predictor are those of a stretch opened at its row.  Both modes.
        model, priors = priors_per_model[index]
        P_a, stacked = priors[-1], StackedSensorForms(model)
        for mode in Mode:
            stretch = _Stretch(mode, P_a, stacked)
            for j in range(_STRETCH):
                stretch._ready(j)
                assert j < stretch._done
            stack = stacked._table(mode)[0]
            for j in range(1, _STRETCH + 1):
                if j <= 8:
                    want = riccati_map([t[j - 1] for t in stack], P_a)
                else:
                    lo = 1 << ((j - 1).bit_length() - 1)
                    want = riccati_map(
                        stacked._power(mode, lo.bit_length() - 1),
                        stretch.P[j - lo])
                assert stretch.P[j].tobytes() == want.tobytes()
            for j in range(_STRETCH):
                alone = _Stretch(mode, stretch.P[j], stacked)
                alone._ready(0)
                assert 0 < alone._done
                assert alone.P_d_inv[0].tobytes() == \
                    stretch.P_d_inv[j].tobytes()
                assert alone.F[0].tobytes() == stretch.F[j].tobytes()

    @pytest.mark.parametrize("drift", [True, False])
    def test_powers_are_squarings_of_the_one_step_triple(self, drift):
        # The table's 2^k-step triples, k = 0..9, the stack's for k <= 3,
        # are k two-dimensional squarings of the one-step triple, bit for
        # bit, in both modes: on paper_uav and 10 random draws, with and
        # without drift.
        rng = np.random.default_rng(3)
        models = [random_invertible_model(rng) for _ in range(10)]
        if not drift:
            models = [parse_config(builtin_config_path()).model] + [
                drift_free_random_model(rng) for _ in range(10)]
        for model in models:
            stacked = StackedSensorForms(model)
            assert stacked.drift_free is not drift
            for mode in Mode:
                triple = _riccati_triple(model, stacked,
                                         0 if mode is Mode.NORMAL
                                         else model.m_G)
                for k in range(10):
                    power = stacked._power(mode, k)
                    assert all(a.tobytes() == b.tobytes()
                               for a, b in zip(power, triple))
                    assert not any(a.flags.writeable for a in power)
                    triple = _compose(triple, triple)
                stack = stacked._table(mode)[0]
                for k in range(4):
                    assert all(a.tobytes() == t[(1 << k) - 1].tobytes()
                               for a, t in zip(stacked._power(mode, k),
                                               stack))

    def test_rows_follow_the_joseph_recursion_on_paper_uav(self, model,
                                                          stacked):
        # 1000 steps in each mode from P = 0 and from the stationary
        # covariance, across three restarts: within 1e-13.
        for P_a in (np.zeros((4, 4)), stationary_covariance(model)):
            for mode in Mode:
                rows = stretch_rows(_Stretch(mode, P_a, stacked), 1000)
                oracle = joseph_rows(P_a, mode, stacked, 1000)
                assert largest_relative_gap(rows, oracle) <= 1e-13

    @pytest.mark.parametrize("drift", [True, False])
    def test_rows_follow_the_joseph_recursion_on_random_models(self, drift):
        # 20 draws with a drifting IMU (random_invertible_model) and 20
        # without (C_I A = C_I): 1000 steps in each mode from P = 0, within
        # 1e-11.
        rng = np.random.default_rng(0 if drift else 1)
        for _ in range(20):
            model = random_invertible_model(rng) if drift \
                else drift_free_random_model(rng)
            stacked = StackedSensorForms(model)
            assert stacked.drift_free is not drift
            P_a = np.zeros((model.n, model.n))
            for mode in Mode:
                rows = stretch_rows(_Stretch(mode, P_a, stacked), 1000)
                oracle = joseph_rows(P_a, mode, stacked, 1000)
                assert largest_relative_gap(rows, oracle) <= 1e-11

    def test_a_non_normal_model_keeps_its_digits(self):
        # Draw 13 with a Gaussian V: cond(A) near 2150.  Its 1000 emergency
        # rows from P = 0 stay within 5e-9 relative of dead reckoning's
        # recursion P <- A P A^T + Sigma_bar in extended precision (the
        # Joseph recursion gets within about 8e-10).
        rng = np.random.default_rng(1)
        for _ in range(14):
            model = drift_free_random_model(rng, gaussian=True)
        stacked = StackedSensorForms(model)
        assert stacked.drift_free and 2000 < np.linalg.cond(model.A) < 2300
        rows = stretch_rows(_Stretch(Mode.EMERGENCY, np.zeros((model.n,) * 2),
                                     stacked), 1000)
        A, floor = (np.asarray(a, dtype=np.longdouble)
                    for a in (model.A, stacked.Sigma_bar))
        P, oracle = np.zeros_like(A), []
        for _ in range(1000):
            P = A @ P @ A.T + floor
            oracle.append(P)
        assert largest_relative_gap(rows, np.array(oracle)) <= 5e-9

    @pytest.mark.parametrize("a", [2.0, 8.0, 16.0])
    def test_overflowing_triples_cut_the_stack(self, a):
        # The unexcited unstable mode, whose G_j grows like a^(2j): at a = 2
        # and 8 every power triple up to 128 steps is finite (at a = 8 the
        # 256-step one is not, but no stretch reads it); at a = 16 the
        # 128-step triple is the first non-finite power, so stretches end at
        # row 128 and restart there.  All follow the Joseph recursion over
        # 1000 steps to 1e-12, and a batch runs without a warning.
        model = unexcited_unstable_model(a)
        stacked = StackedSensorForms(model)
        length = {2.0: 256, 8.0: 256, 16.0: 128}[a]
        for mode in Mode:
            stack, _, got = stacked._table(mode)
            assert got == length
            assert [len(t) for t in stack] == [8] * 3
            assert all(np.isfinite(t).all() for t in stack)
            finite = [bool(np.isfinite(stacked._power(mode, k)).all())
                      for k in range(8)]
            assert finite == [(1 << k) < length for k in range(8)]
            stretch = _Stretch(mode, np.zeros((2, 2)), stacked)
            rows = stretch_rows(stretch, 1000)
            assert len(stretch_chain(stretch)) == -(-1000 // length)
            oracle = joseph_rows(np.zeros((2, 2)), mode, stacked, 1000)
            assert largest_relative_gap(rows, oracle) <= 1e-12
        config = harness.ScenarioConfig(
            model=model, x0=np.zeros(2), target=np.ones(1), steps=400,
            runs=3, attack=AttackSignal(kind="constant-bias",
                                        d=np.full(2, 50.0), start_step=200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = monte_carlo(config)
        assert [r.attack_detection_step for r in batch.runs] == [200] * 3


class TestOneMap:
    """_apply and _innovation_system take one P or a stack: escape_time
    applies the map to one P, a stretch to a stack, so each row of a stack
    must have the bytes of that row passed alone."""

    @pytest.mark.parametrize("index", [0, 1])
    def test_a_stack_row_has_the_bytes_of_the_row_alone(self,
                                                        priors_per_model,
                                                        index):
        # paper_uav (emergency G_j = 0) and a drift model (G_j != 0): 64
        # rows of each mode's stretch from its last prior, under the 8-step
        # power, and the stack of triples 1..8 on one P.
        model, priors = priors_per_model[index]
        stacked = StackedSensorForms(model)
        for mode in Mode:
            stretch = _Stretch(mode, priors[-1], stacked)
            for j in range(64):
                stretch._ready(j)
                assert j < stretch._done
            rows = stretch.P[:64]
            power, stack = stacked._power(mode, 3), stacked._table(mode)[0]
            mapped, (R, G) = (_apply(power, rows),
                              _innovation_system(rows, stacked))
            for i, row in enumerate(rows):
                assert mapped[i].tobytes() == _apply(power, row).tobytes()
                R_i, G_i = _innovation_system(row, stacked)
                assert R[i].tobytes() == R_i.tobytes()
                assert G[i].tobytes() == G_i.tobytes()
            mapped = _apply(stack, priors[-1])
            for j in range(len(stack[0])):
                assert mapped[j].tobytes() == _apply(
                    [t[j] for t in stack], priors[-1]).tobytes()
            # escape_time's first step is the emergency stretch's row 1.
            if mode is Mode.EMERGENCY:
                assert _apply(stacked._power(mode, 0), priors[-1]).tobytes() \
                    == stretch.P[1].tobytes()


def noisy_uav_model(scale):
    """paper_uav with Sigma_w = scale * 1e-4 I."""
    m = make_uav_model()
    return SystemModel(A=m.A, B=m.B, C_G=m.C_G, C_I=m.C_I,
                       Sigma_w=scale * m.Sigma_w, Sigma_G=m.Sigma_G,
                       Sigma_I=m.Sigma_I)


NOISE_SCALES = [1.0, 1e4, 1e8, 1e12, 1e16, 1e50]


def gap_to_joseph(model, mode, steps=200):
    """The largest relative gap of the mode's stretch rows from P = 0 to
    the Joseph recursion over `steps` steps."""
    stacked, zero = StackedSensorForms(model), np.zeros((model.n,) * 2)
    return largest_relative_gap(
        stretch_rows(_Stretch(mode, zero, stacked), steps),
        joseph_rows(zero, mode, stacked, steps))


class TestNoiseRatio:
    """Stretch rows against the Joseph oracle as Sigma_w / Sigma_y grows, on
    paper_uav with Sigma_w = s 1e-4 I, 200 rows from P = 0."""

    @pytest.mark.parametrize("scale", NOISE_SCALES)
    def test_emergency_rows_keep_their_digits(self, scale):
        assert gap_to_joseph(noisy_uav_model(scale), Mode.EMERGENCY) <= 1e-14

    def test_normal_rows_keep_their_digits(self):
        # With H_1 = Sigma_w - Sigma_w C^T R^{-1} C Sigma_w, which cancels
        # as Sigma_w / Sigma_y grows, the rows were 1.5e-13 from the Joseph
        # recursion at s = 1e4, 1.6e-10 at 1e8, 1.7e-5 at 1e12, 2.3e-2 at
        # 1e16 and 1.0 from 1e50; H_1 in Joseph form keeps them within
        # 1.3e-14.
        assert max(gap_to_joseph(noisy_uav_model(scale), Mode.NORMAL)
                   for scale in NOISE_SCALES) <= 1e-12


def form_arrays(stacked) -> dict:
    """The forms' array attributes, by name."""
    return {name: value for name, value in vars(stacked).items()
            if isinstance(value, np.ndarray)}


class TestFormsAnyThreadMayShare:
    """A model keeps its StackedSensorForms, so every run and analysis of
    one model reads the same forms, from any thread."""

    def test_every_array_is_read_only(self, model):
        stacked = StackedSensorForms(model)
        arrays = form_arrays(stacked)
        assert len(arrays) == 12
        arrays["Sigma_bar"] = stacked.Sigma_bar
        for name, value in arrays.items():
            assert not value.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                value[...] = 0.0

    def test_covariance_update_leaves_the_forms(self, model):
        # It wrote P into the kept Joseph weight.
        stacked = StackedSensorForms(model)
        before = {name: value.tobytes()
                  for name, value in form_arrays(stacked).items()}
        P = stationary_covariance(model)
        covariance_update(3.0 * P, optimal_gain(P, model, stacked), model,
                          stacked)
        assert {name: value.tobytes() for name, value in
                form_arrays(stacked).items()} == before

    def test_threads_get_the_single_thread_bytes(self, monkeypatch):
        # Four threads on one fresh model build its forms at once, run an
        # attacked batch (both modes), which builds its tables, and a
        # 1200-step detector-off run, then square both modes' powers up to
        # level 40.  Every run is on the one run state the model keeps,
        # held in turn, and the trunk the threads grew is one thread's.
        config = replace(parse_config(builtin_config_path()), steps=720,
                         runs=3)
        threads = 4
        barrier = threading.Barrier(threads)
        held, simulate = [], harness._simulate

        def recorded(*args):
            held.append(args[1])
            return simulate(*args)
        monkeypatch.setattr(harness, "_simulate", recorded)

        def fresh():
            m = config.model
            return SystemModel(**{name: getattr(m, name)
                                  for name in MATRIX_NAMES})

        def work(model, wait=lambda: None):
            wait()
            forms = model._derived(StackedSensorForms)
            batch = monte_carlo(replace(config, model=model))
            run = run_scenario(replace(config, model=model, steps=1200),
                               detector_enabled=False)
            wait()
            powers = b"".join(np.stack(forms._power(mode, level))
                              .tobytes() for mode in Mode
                              for level in range(41))
            runs = [(r.first_alarm_step, r.attack_detection_step,
                     r.covered_steps, r.final_err_norm) for r in batch.runs]
            return (forms, batch.mean_error.tobytes(),
                    batch.coverage.tobytes(), runs, [
                        column.tobytes()
                        for column in run_columns(run.columns)], powers)

        single = fresh()
        _, *want = work(single)
        trunk = trunk_rows(single)
        assert len(trunk) == 5 * _STRETCH      # 1200 rows, whole stretches
        model, interval = fresh(), sys.getswitchinterval()
        del held[:]
        sys.setswitchinterval(1e-6)     # switch threads as often as it can
        try:
            with ThreadPoolExecutor(threads) as pool:
                futures = [pool.submit(work, model, lambda: barrier.wait(60))
                           for _ in range(threads)]
                got = [future.result() for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert {id(forms) for forms, *_ in got} == {
            id(model._derived(StackedSensorForms))}
        for _, *values in got:
            assert values == want
        assert len(held) == threads * (config.runs + 1)
        assert {id(shared) for shared in held} == {
            id(model._derived(ScenarioShared))}
        assert trunk_rows(model).tobytes() == trunk.tobytes()

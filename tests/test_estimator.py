import numpy as np
import pytest

from spoofguard import (EstimatorState, GainPair, Mode, StackedSensorForms,
                        SystemModel, covariance_update, drift_matrices,
                        emergency_gain, fuse, optimal_gain, predict,
                        stationary_covariance)

from spoofguard.estimator import _dead_reckoning, _innovation_system

from conftest import make_uav_model, random_invertible_model


@pytest.fixture(scope="module")
def model():
    return make_uav_model()


@pytest.fixture(scope="module")
def stacked(model):
    return StackedSensorForms(model)


def zero_gain(model):
    return GainPair(K_G=np.zeros((model.n, model.m_G)),
                    K_I=np.zeros((model.n, model.m_I)))


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
        M = stacked._M
        for _ in range(10):
            R = rng.normal(size=(model.n, model.n))
            P = R @ R.T
            P_Mt = P.dot(M.T)
            innov_cov, gain_rhs = _innovation_system(P, stacked)
            assert np.array_equal(innov_cov,
                                  M.dot(P_Mt) + stacked._C_Sw_Ct_Sy)
            assert np.array_equal(gain_rhs,
                                  model.A.dot(P_Mt) + stacked._Sw_Ct)

    def test_in_place_change_of_P_recomputes(self, model):
        stacked = StackedSensorForms(model)
        P = np.eye(4)
        first = [a.copy() for a in _innovation_system(P, stacked)]
        P *= 3.0
        second = _innovation_system(P, stacked)
        fresh = _innovation_system(3.0 * np.eye(4), StackedSensorForms(model))
        for got, want, old in zip(second, fresh, first):
            assert np.array_equal(got, want)
            assert not np.array_equal(got, old)


class TestPredict:
    def test_zero(self, model):
        est = EstimatorState.initial(np.zeros(4))
        np.testing.assert_array_equal(predict(est, model, np.zeros(2)), np.zeros(4))

    def test_velocity_advects(self, model):
        est = EstimatorState.initial([0.0, 0.0, 1.0, 1.0])
        np.testing.assert_allclose(predict(est, model, np.zeros(2)),
                                   [0.01, 0.01, 1.0, 1.0], atol=1e-15)

    def test_input_term(self, model):
        est = EstimatorState.initial(np.zeros(4))
        np.testing.assert_allclose(predict(est, model, [1.0, 1.0]),
                                   [0.0, 0.0, 0.01, 0.01], atol=1e-15)


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
        K = GainPair(K_G=np.zeros((4, 2)), K_I=emergency_gain(model))
        P = stationary_covariance(model)
        for _ in range(50):
            updated = covariance_update(P, K, model, stacked)
            closed = model.A @ P @ model.A.T + drift.Sigma_bar
            assert np.linalg.norm(updated - closed) <= 1e-12 * np.linalg.norm(closed)
            P = updated

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
            K = GainPair(K_G=rng.normal(scale=0.1, size=(4, 2)),
                         K_I=rng.normal(scale=0.1, size=(4, 2)))
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
                K_pert = GainPair(K_G=K_opt.K_G + eps[:, :2],
                                  K_I=K_opt.K_I + eps[:, 2:])
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
            K = optimal_gain(P, model, stacked).stacked()
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
        assert np.abs(K.stacked()).max() <= 1e-15


class TestEmergencyGain:
    def test_uav_values(self, model):
        K = emergency_gain(model)
        expected = np.zeros((4, 2))
        expected[2, 0] = 1e-4 / 1.1e-3
        expected[3, 1] = 1e-4 / 1.1e-3
        np.testing.assert_allclose(K, expected, rtol=1e-12)

    def test_useless_sensor_ignored(self):
        base = make_uav_model()
        model = SystemModel(A=base.A, B=base.B, C_G=base.C_G, C_I=base.C_I,
                            Sigma_w=base.Sigma_w, Sigma_G=base.Sigma_G,
                            Sigma_I=1e6 * np.eye(2))
        assert np.linalg.norm(emergency_gain(model)) <= 1e-6

    def test_symmetric_scalar_blend(self):
        one = np.eye(1)
        model = SystemModel(A=one, B=one, C_G=one, C_I=one,
                            Sigma_w=one, Sigma_G=one, Sigma_I=one)
        np.testing.assert_allclose(emergency_gain(model), [[0.5]], rtol=1e-14)


class TestFuse:
    def test_noise_free_consistency(self, model, stacked):
        # Perfect initial estimate and no noise: the estimate tracks exactly.
        x = np.array([1.0, -1.0, 0.2, 0.1])
        est = EstimatorState.initial(x)
        u = np.array([0.3, -0.2])
        for _ in range(100):
            x_prev = x
            x = model.A @ x + model.B @ u
            y_G = model.C_G @ x
            y_I = model.C_I @ (x - x_prev)
            est = fuse(est, model, stacked, u, y_G, y_I)
            assert np.linalg.norm(x - est.x_hat) <= 1e-9

    def test_emergency_ignores_gps_bit_exact(self, model, stacked):
        rng = np.random.default_rng(17)
        est1 = EstimatorState.initial(np.zeros(4), P0=1e-3 * np.eye(4),
                                      mode=Mode.EMERGENCY)
        est2 = EstimatorState.initial(np.zeros(4), P0=1e-3 * np.eye(4),
                                      mode=Mode.EMERGENCY)
        for _ in range(50):
            u = rng.normal(size=2)
            y_I = rng.normal(size=2)
            y_truth = rng.normal(size=2)
            est1 = fuse(est1, model, stacked, u, y_truth, y_I)
            est2 = fuse(est2, model, stacked, u, y_truth + 1e6, y_I)
            assert np.array_equal(est1.x_hat, est2.x_hat)
            assert np.array_equal(est1.P, est2.P)

    @pytest.mark.parametrize("spoof", [1e6, np.inf, -np.inf, np.nan])
    def test_emergency_ignores_non_finite_gps(self, model, stacked, spoof):
        rng = np.random.default_rng(18)
        est1 = EstimatorState.initial(np.zeros(4), P0=1e-3 * np.eye(4),
                                      mode=Mode.EMERGENCY)
        est2 = EstimatorState.initial(np.zeros(4), P0=1e-3 * np.eye(4),
                                      mode=Mode.EMERGENCY)
        for _ in range(20):
            u, y_I, y_truth = rng.normal(size=(3, 2))
            est1 = fuse(est1, model, stacked, u, y_truth, y_I)
            est2 = fuse(est2, model, stacked, u, np.full(2, spoof), y_I)
            assert np.array_equal(est1.x_hat, est2.x_hat)
            assert np.array_equal(est1.P, est2.P)

    def test_emergency_gps_gain_is_zero(self, model, stacked):
        K = optimal_gain(1e-3 * np.eye(4), model, stacked)
        assert np.abs(K.K_G).max() > 0  # normal mode uses GPS
        # emergency covariance equals the zero-GPS-gain update
        est = EstimatorState.initial(np.zeros(4), P0=1e-3 * np.eye(4),
                                     mode=Mode.EMERGENCY)
        out = fuse(est, model, stacked, np.zeros(2), np.zeros(2), np.zeros(2))
        K_emergency = GainPair(K_G=np.zeros((4, 2)), K_I=emergency_gain(model))
        expected = covariance_update(est.P, K_emergency, model, stacked)
        np.testing.assert_allclose(out.P, expected, rtol=1e-14)

    def test_emergency_covariance_is_the_dead_reckoning_map(self, model,
                                                            stacked):
        # fuse's constant emergency step, the escape analysis's
        # dead-reckoning step and the Joseph update with the zero-padded
        # gain are one map; on the UAV model it is A P A^T + Sigma_bar.
        assert stacked.drift_free
        np.testing.assert_array_equal(stacked._T_emergency, model.A)
        np.testing.assert_array_equal(stacked.Sigma_bar,
                                      drift_matrices(model).Sigma_bar)
        K_emergency = GainPair(K_G=np.zeros((4, 2)), K_I=emergency_gain(model))
        rng = np.random.default_rng(19)
        for P in (stationary_covariance(model), 1e-3 * np.eye(4),
                  *(R @ R.T for R in rng.normal(size=(3, 4, 4)))):
            est = EstimatorState.initial(np.zeros(4), P0=P,
                                         mode=Mode.EMERGENCY)
            out = fuse(est, model, stacked, np.zeros(2), np.zeros(2),
                       np.zeros(2))
            joseph = covariance_update(P, K_emergency, model, stacked)
            scale = np.linalg.norm(joseph)
            assert np.array_equal(out.P, _dead_reckoning(P, model, stacked)[1])
            assert np.linalg.norm(out.P - joseph) <= 1e-15 * scale


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
        K = GainPair(K_G=np.zeros((4, 2)), K_I=emergency_gain(model))
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

import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from spoofguard import (AttackSignal, ConfigError, DetectorConfig,
                        EstimatorState, GaussianSampler, PlantState,
                        ScenarioConfig, StackedSensorForms, SystemModel,
                        chi2_quantile, cusum_update, fuse, measure_gps,
                        measure_imu, residual, residual_covariance,
                        run_scenario, step_dynamics)
from spoofguard.detector import normalized_residual


@dataclass(frozen=True)
class FixedThreshold(DetectorConfig):
    """Detector configuration whose alarm threshold is given directly."""

    fixed: float = math.inf

    def threshold(self, m_G: int) -> float:
        return self.fixed


class TestResidual:
    def test_zero_for_perfect_prediction(self, uav_model):
        x_prev = np.array([1.0, 2.0, 0.5, -0.5])
        u = np.array([0.1, 0.2])
        x = uav_model.A @ x_prev + uav_model.B @ u
        y_G = uav_model.C_G @ x
        np.testing.assert_allclose(residual(y_G, x_prev, u, uav_model),
                                   np.zeros(2), atol=1e-15)

    def test_recovers_injected_bias(self, uav_model):
        x_prev = np.zeros(4)
        u = np.zeros(2)
        y_G = np.array([100.0, 100.0])  # prediction is zero, bias shows through
        np.testing.assert_allclose(residual(y_G, x_prev, u, uav_model),
                                   [100.0, 100.0])

    def test_no_attack_covariance_matches_prediction(self, uav_model):
        # Run the closed loop long enough for stationarity, then compare the
        # empirical covariance of the residual with the predicted formula.
        stacked = StackedSensorForms(uav_model)
        samplers = [GaussianSampler(S) for S in
                    (uav_model.Sigma_w, uav_model.Sigma_G, uav_model.Sigma_I)]
        rngs = [np.random.default_rng(s)
                for s in np.random.SeedSequence(2024).spawn(3)]
        plant = PlantState.initial(np.zeros(4))
        est = EstimatorState.initial(np.zeros(4))
        attack = AttackSignal.none()
        residuals = []
        P_pred = None
        u = np.zeros(2)
        for k in range(1, 10_001):
            plant = step_dynamics(uav_model, plant, u, samplers[0].sample(rngs[0]))
            y_G = measure_gps(uav_model, plant, attack, samplers[1].sample(rngs[1]))
            y_I = measure_imu(uav_model, plant, samplers[2].sample(rngs[2]))
            d_hat = residual(y_G, est.x_hat, u, uav_model)
            if k > 500:  # skip the transient
                residuals.append(d_hat)
                if P_pred is None:
                    P_pred = residual_covariance(est.P, uav_model)
            est = fuse(est, uav_model, stacked, u, y_G, y_I)
        emp = np.cov(np.array(residuals).T)
        rel = np.linalg.norm(emp - P_pred) / np.linalg.norm(P_pred)
        assert rel < 0.10


class TestResidualCovariance:
    def test_pure_sensor_noise(self):
        from conftest import make_uav_model
        from spoofguard import SystemModel
        base = make_uav_model()
        model = SystemModel(A=base.A, B=base.B, C_G=base.C_G, C_I=base.C_I,
                            Sigma_w=np.zeros((4, 4)), Sigma_G=base.Sigma_G,
                            Sigma_I=base.Sigma_I)
        np.testing.assert_allclose(
            residual_covariance(np.zeros((4, 4)), model), base.Sigma_G)

    def test_uav_zero_prior(self, uav_model):
        out = residual_covariance(np.zeros((4, 4)), uav_model)
        np.testing.assert_allclose(out, 1.1e-3 * np.eye(2), rtol=1e-14)

    def test_linear_in_prior(self, uav_model):
        rng = np.random.default_rng(5)
        R = rng.normal(size=(4, 4))
        P = R @ R.T
        base = residual_covariance(np.zeros((4, 4)), uav_model)
        one = residual_covariance(P, uav_model) - base
        four = residual_covariance(4.0 * P, uav_model) - base
        np.testing.assert_allclose(four, 4.0 * one, rtol=1e-12)

    def test_symmetric_positive_definite(self, uav_model):
        rng = np.random.default_rng(6)
        for _ in range(20):
            R = rng.normal(size=(4, 4))
            P_d = residual_covariance(R @ R.T, uav_model)
            assert np.array_equal(P_d, P_d.T)
            assert np.linalg.eigvalsh(P_d).min() > 0


class TestCusum:
    def test_zero_residual_keeps_zero(self):
        assert cusum_update(0.0, np.zeros(2), np.eye(2), 0.15) == 0.0

    def test_pure_geometric_decay(self):
        assert cusum_update(10.0, np.zeros(2), np.eye(2), 0.15) == pytest.approx(1.5)

    def test_geometric_series_limit(self):
        # Constant per-step quadratic value q drives S toward q / (1 - delta).
        delta = 0.15
        d = np.array([1.0, 2.0])
        P_d = np.diag([0.5, 2.0])
        q = float(d @ np.linalg.solve(P_d, d))
        S = 0.0
        for _ in range(50):
            S = cusum_update(S, d, P_d, delta)
        assert abs(S - q / (1.0 - delta)) < 1e-6

    def test_nonnegative_under_noise(self):
        rng = np.random.default_rng(0)
        S = 0.0
        for _ in range(1000):
            d = rng.normal(size=2) * 1e-6
            S = cusum_update(S, d, 1e-3 * np.eye(2), 0.15)
            assert S >= 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_residual_latches_the_alarm(self, bad):
        S = cusum_update(0.0, np.array([bad, 0.0]), np.eye(2), 0.15)
        assert S == math.inf
        # The statistic never decays from inf, so the alarm stays on.
        assert cusum_update(S, np.zeros(2), np.eye(2), 0.15) == math.inf

    @pytest.mark.parametrize("d", [[1e200, 1e200], [1e308, -1e308],
                                   [0.0, 1e155]])
    def test_overflowing_form_latches_the_alarm(self, d):
        # A finite residual whose form overflows scores inf, as a non-finite
        # one does, without an overflow warning.
        S = cusum_update(0.0, np.array(d), 1e-3 * np.eye(2), 0.15)
        assert S == math.inf

    def test_large_residual_form_is_bit_for_bit_unscaled(self):
        # Above 1e100 the form is scaled by a power of two: where the plain
        # product is finite, it gives the same bits, else inf.
        rng, finite = np.random.default_rng(5), set()
        for exponent in range(95, 200, 3):
            R = rng.normal(size=(2, 2))
            P_d_inv = R @ R.T * 10.0 ** rng.uniform(-250, 3)
            d_hat = rng.normal(size=2) * 10.0 ** exponent
            with np.errstate(over="ignore"):
                want = float(d_hat.dot(P_d_inv.dot(d_hat)))
            got = normalized_residual(d_hat, P_d_inv)
            assert got == (want if math.isfinite(want) else math.inf)
            finite.add(math.isfinite(want))
        assert finite == {True, False}

    def test_quadratic_form_via_solve_matches_inverse(self):
        rng = np.random.default_rng(8)
        R = rng.normal(size=(3, 3))
        P_d = R @ R.T + 0.5 * np.eye(3)
        d = rng.normal(size=3)
        expected = 0.3 * 7.0 + d @ np.linalg.inv(P_d) @ d
        assert cusum_update(7.0, d, P_d, 0.3) == pytest.approx(expected, rel=1e-12)


class TestAlarm:
    def test_threshold_value_and_strictness(self, uav_config, uav_shared):
        config = DetectorConfig(alpha=0.01, delta=0.15)
        threshold = config.threshold(2)
        assert threshold == pytest.approx(9.210340371976184 / 0.85, abs=1e-8)
        # The runner alarms on strict exceedance.  A run that never alarms
        # does not depend on its threshold, so the largest statistic of a
        # quiet run, taken as the threshold, is a tie at its first step.
        quiet = replace(uav_config, steps=300, attack=AttackSignal.none())

        def run(fixed):
            return run_scenario(replace(quiet, detector=FixedThreshold(
                fixed=fixed)), shared=uav_shared)
        S = run(math.inf).columns.S
        peak = float(S.max())
        tie = run(peak)
        assert tie.first_alarm_step is None  # a tie stays quiet
        np.testing.assert_array_equal(tie.columns.S, S)
        assert run(np.nextafter(peak, 0.0)).first_alarm_step == \
            int(S.argmax()) + 1

    def test_threshold_at_a_tiny_alpha(self):
        # chi2(2, alpha) = -2 ln(alpha); the CDF-based bisection gave 88.07.
        assert DetectorConfig(alpha=1e-20).threshold(2) == pytest.approx(
            -2.0 * math.log(1e-20) / 0.85, rel=1e-12)

    def test_threshold_has_the_model_gps_dimension(self):
        # A hand-built scenario with one GPS row: its threshold is
        # chi2(1, 0.01) / 0.85 = 7.806, not chi2(2, 0.01) / 0.85 = 10.836.
        # Seed 0's statistic lies between the two at step 222 only.
        model = SystemModel(A=[[1.0, 0.01], [0.0, 1.0]], B=[[0.0], [0.01]],
                            C_G=[[1.0, 0.0]], C_I=[[0.0, 1.0]],
                            Sigma_w=1e-4 * np.eye(2), Sigma_G=[[1e-3]],
                            Sigma_I=[[1e-3]])
        config = ScenarioConfig(model=model, x0=np.zeros(2),
                                target=np.array([1.0]), steps=300)
        trace = run_scenario(config)
        S = trace.columns.S
        threshold = chi2_quantile(1, 0.01) / 0.85
        assert config.detector.threshold(model.m_G) == threshold
        assert 7.805 < threshold < 7.806
        np.testing.assert_array_equal(trace.columns.alarmed, S > threshold)
        assert trace.first_alarm_step == 222
        assert threshold < S[221] <= chi2_quantile(2, 0.01) / 0.85

    def test_zero_statistic_never_alarms(self, uav_config, uav_shared):
        assert DetectorConfig().threshold(2) > 0.0
        # With the detector off the statistic stays zero and the attack at
        # step 700 never raises the alarm.
        trace = run_scenario(replace(uav_config, steps=800),
                             detector_enabled=False, shared=uav_shared)
        assert not trace.columns.S.any()
        assert not trace.columns.alarmed.any()
        assert trace.first_alarm_step is None

    def test_decay_steps_after_attack_stops(self):
        # With nominal residuals after a spike, S decays geometrically; it
        # drops below the threshold within ceil(log(threshold / S_peak) / log(delta)).
        config = DetectorConfig(alpha=0.01, delta=0.15)
        threshold = config.threshold(2)
        S = 5e4
        expected_steps = math.ceil(math.log(threshold / S) / math.log(config.delta))
        steps = 0
        while S >= threshold:
            S = cusum_update(S, np.zeros(2), np.eye(2), config.delta)
            steps += 1
        assert steps <= expected_steps


class TestConfigValidation:
    def test_rejects_bad_delta(self):
        with pytest.raises(ConfigError, match="^detector: forgetting factor"):
            DetectorConfig(alpha=0.01, delta=1.5)
        with pytest.raises(ConfigError, match="^detector: forgetting factor"):
            DetectorConfig(alpha=0.01, delta=0.0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigError, match="^detector: .* alpha"):
            DetectorConfig(alpha=0.0, delta=0.15)

    def test_rejects_bad_df(self):
        # The degrees of freedom are the model's m_G, passed to threshold;
        # the config holds none.
        with pytest.raises(TypeError):
            DetectorConfig(alpha=0.01, delta=0.15, df=2)
        with pytest.raises(ValueError, match="degrees of freedom"):
            DetectorConfig(alpha=0.01, delta=0.15).threshold(0)


class TestEvaluateResidual:
    def test_normalized_nonnegative_and_consistent(self, uav_model):
        rng = np.random.default_rng(21)
        for _ in range(50):
            y_G = rng.normal(size=2)
            x_prev = rng.normal(size=4)
            u = rng.normal(size=2)
            R = rng.normal(size=(4, 4)) * 0.1
            d_hat = residual(y_G, x_prev, u, uav_model)
            P_d = residual_covariance(R @ R.T, uav_model)
            normalized = normalized_residual(d_hat, np.linalg.inv(P_d))
            assert normalized >= 0.0
            expected = d_hat @ np.linalg.solve(P_d, d_hat)
            assert normalized == pytest.approx(expected, rel=1e-12)

    def test_normalized_matches_chi2_scale_under_null(self, uav_model):
        # Sanity: with the true covariance, the average normalized residual
        # over many draws is close to the residual dimension.
        rng = np.random.default_rng(3)
        P_d = residual_covariance(np.zeros((4, 4)), uav_model)
        sampler = GaussianSampler(P_d)
        vals = []
        for _ in range(4000):
            d = sampler.sample(rng)
            vals.append(float(d @ np.linalg.solve(P_d, d)))
        assert np.mean(vals) == pytest.approx(2.0, abs=0.15)

import inspect
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from spoofguard import (ConvergenceError, NumericalError, StackedSensorForms,
                        SystemModel, builtin_config_path, chi2_quantile,
                        covariance_magnitude, covariance_update,
                        drift_matrices, escape_report, escape_time,
                        escape_time_lower_bound, is_detectable, optimal_gain,
                        parse_config, run_scenario, spectral_norm,
                        stationary_covariance)
from spoofguard import analysis
from spoofguard.estimator import Mode, _Stretch
from spoofguard.harness import _RunColumns

from conftest import (decoupling_residual, make_uav_model,
                      random_invertible_model)
from test_estimator import stretch_rows
from reference import (emergency_trunk, joseph_step, lies_below,
                       long_fixed_point, trunk_bracket)


def scalar_model(a=1.0, sigma_w=1.0, sigma_g=1.0):
    """Single-state model with a GPS-style sensor and no relative sensor."""
    one = np.eye(1)
    return SystemModel(A=a * one, B=one, C_G=one, C_I=np.zeros((0, 1)),
                       Sigma_w=sigma_w * one, Sigma_G=sigma_g * one,
                       Sigma_I=np.zeros((0, 0)))


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_uav_transition(self, uav_model):
        # closed-form singular value of the [[1, h], [0, 1]] block, h = 0.01
        h = 0.01
        expected = math.sqrt(1 + h * h / 2 + h * math.sqrt(1 + h * h / 4))
        assert spectral_norm(uav_model.A) == pytest.approx(expected, rel=1e-10)
        assert spectral_norm(uav_model.A) == pytest.approx(1.0050125, abs=1e-6)

    def test_signed_diagonal(self):
        assert spectral_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, abs=1e-12)

    def test_matches_svd_for_nonsymmetric(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            M = rng.normal(size=(4, 3))
            sv = np.linalg.svd(M, compute_uv=False)
            assert spectral_norm(M) == pytest.approx(sv[0], rel=1e-12)

    @pytest.mark.parametrize("kind", ["symmetric", "indefinite", "diagonal"])
    def test_symmetric_branch_is_the_batched_rule(self, kind):
        # One rule for the norm of a symmetric matrix: spectral_norm gives
        # bit for bit what the batched rule gives for the whole stack.
        rng = np.random.default_rng(7)
        n = 4
        if kind == "symmetric":
            R = rng.normal(size=(20, n, n))
            Ms = R @ R.transpose(0, 2, 1)
        elif kind == "indefinite":
            R = rng.normal(size=(20, n, n))
            Ms = R + R.transpose(0, 2, 1)
        else:
            Ms = np.stack([np.diag(d) for d in rng.normal(size=(20, n))])
        batched = analysis._spectral_norms(Ms)
        assert [spectral_norm(M) for M in Ms] == batched.tolist()
        if kind != "symmetric":     # some norms come from lambda_min
            assert (batched == -np.linalg.eigvalsh(Ms)[:, 0]).any()


    def test_empty_matrix_has_norm_zero(self):
        assert spectral_norm(np.zeros((0, 0))) == 0.0


class TestDetectability:
    def test_rejects_an_output_matrix_of_the_wrong_width(self, uav_model):
        with pytest.raises(ValueError, match="^C has 3 columns, expected 4$"):
            is_detectable(np.ones((2, 3)), uav_model.A)

    def test_gps_pair_detectable(self, uav_model):
        assert is_detectable(uav_model.C_G, uav_model.A) is True

    def test_zero_drift_pair_not_detectable(self, uav_model):
        C_bar = np.zeros((2, 4))
        assert is_detectable(C_bar, uav_model.A) is False

    def test_full_state_always_detectable(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            A = rng.normal(size=(3, 3))
            assert is_detectable(np.eye(3), A) is True

    def test_stable_modes_need_no_observation(self):
        # strictly stable A is detectable through anything, even zero output
        A = np.diag([0.5, -0.3])
        assert is_detectable(np.zeros((1, 2)), A) is True

    def test_unstable_unobserved_mode(self):
        A = np.diag([2.0, 0.5])
        C = np.array([[0.0, 1.0]])  # watches only the stable mode
        assert is_detectable(C, A) is False


class TestStationaryCovariance:
    def test_uav_fixed_point(self, uav_model, uav_stationary_P):
        P = uav_stationary_P
        stacked = StackedSensorForms(uav_model)
        K = optimal_gain(P, uav_model, stacked)
        resid = np.linalg.norm(covariance_update(P, K, uav_model, stacked) - P)
        assert resid <= 1e-12
        assert np.trace(P) > 0

    def test_cross_check_against_long_filter_run(self, uav_model, uav_stationary_P):
        # Iterating the public estimator operations from a different start
        # must land on the same fixed point.
        stacked = StackedSensorForms(uav_model)
        P = np.eye(4)
        for _ in range(10_000):
            P = covariance_update(P, optimal_gain(P, uav_model, stacked),
                                  uav_model, stacked)
        assert np.linalg.norm(P - uav_stationary_P) <= 1e-10

    @pytest.mark.parametrize("sigma_w, tol", [(1e-4, 1e-12), (1e8, 1e-8)])
    def test_long_double_doubling_judges_it(self, uav_model, sigma_w, tol):
        # paper_uav, and its Sigma_w raised to 1e8 I, against the doubling
        # in long double (tests/reference.py).  At 1e8 the one-step triple's
        # H_1 = Sigma_w - K C Sigma_w cancelled, and a Joseph residual of
        # 7.5e-13 accepted a fixed point 8.4e-6 away.
        model = SystemModel(A=uav_model.A, B=uav_model.B, C_G=uav_model.C_G,
                            C_I=uav_model.C_I, Sigma_w=sigma_w * np.eye(4),
                            Sigma_G=uav_model.Sigma_G,
                            Sigma_I=uav_model.Sigma_I)
        want = long_fixed_point(StackedSensorForms(model)).astype(float)
        got = stationary_covariance(model)
        assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)

    def test_scalar_riccati_oracle(self):
        # Fixed point of the scalar recursion with a = 1/2 and unit noises
        # solves 0.25 P^2 + 1.75 P - 1 = 0, giving P = (-7 + sqrt(65)) / 2.
        model = scalar_model(a=0.5)
        P = stationary_covariance(model)
        assert P[0, 0] == pytest.approx((-7 + math.sqrt(65)) / 2, abs=1e-12)

    def test_noiseless_plant_converges_to_zero(self):
        model = SystemModel(A=0.5 * np.eye(1), B=np.eye(1), C_G=np.eye(1),
                            C_I=np.zeros((0, 1)), Sigma_w=np.zeros((1, 1)),
                            Sigma_G=np.eye(1), Sigma_I=np.zeros((0, 0)))
        np.testing.assert_allclose(stationary_covariance(model),
                                   np.zeros((1, 1)), atol=1e-12)

    def test_rejects_undetectable_pair(self):
        A = np.diag([2.0, 0.5])
        model = SystemModel(A=A, B=np.zeros((2, 1)),
                            C_G=np.array([[0.0, 1.0]]), C_I=np.zeros((0, 2)),
                            Sigma_w=np.eye(2), Sigma_G=np.eye(1),
                            Sigma_I=np.zeros((0, 0)))
        with pytest.raises(NumericalError, match="detectable"):
            stationary_covariance(model)

    def test_nonconvergence_carries_context(self, uav_model, monkeypatch):
        # Two doublings cover four recursion steps, far short of the tolerance.
        monkeypatch.setattr(analysis, "MAX_DOUBLINGS", 2)
        with pytest.raises(ConvergenceError) as info:
            stationary_covariance(uav_model)
        assert info.value.last_iterate is not None
        assert info.value.residual > 0

    @pytest.mark.parametrize("seed", [None, "scaled", "small", "tiny",
                                      0, 1, 2, 3])
    def test_matches_scipy_dare(self, uav_model, seed):
        # scipy is a test-only oracle: the filter DARE with cross term
        # S = Sigma_w C^T, in scipy's control form (A^T, M^T).  "scaled",
        # "small" and "tiny" are the UAV model with its three covariances
        # times 1e6, 1e-6 and 1e-8: an absolute residual test never
        # converges on the first and stops early on the other two.
        from scipy.linalg import solve_discrete_are

        def oracle_of(model):
            stacked = StackedSensorForms(model)
            m = len(stacked.C)
            return solve_discrete_are(model.A.T, stacked._M.T, model.Sigma_w,
                                      stacked._innovation_noise[:m],
                                      s=stacked._innovation_noise[m:])
        scale = {"scaled": 1e6, "small": 1e-6, "tiny": 1e-8}.get(seed)
        if seed is None:
            model = uav_model
        elif scale is not None:
            model = SystemModel(A=uav_model.A, B=uav_model.B,
                                C_G=uav_model.C_G, C_I=uav_model.C_I,
                                Sigma_w=scale * uav_model.Sigma_w,
                                Sigma_G=scale * uav_model.Sigma_G,
                                Sigma_I=scale * uav_model.Sigma_I)
        else:
            model = random_invertible_model(np.random.default_rng(seed))
        oracle = oracle_of(model)
        if scale is not None and scale < 1.0:
            # The solution scales with the covariances.  scipy's own solve
            # loses accuracy at small scales (at 1e-8 it is 1.4e-12 from
            # 1e-8 times its UAV solution, with a relative Riccati residual
            # of 2.8e-14), so the oracle is the scaled UAV solution.
            oracle = scale * oracle_of(uav_model)
        P = stationary_covariance(model)
        assert np.linalg.norm(P - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_uav_converges_in_few_doublings(self, uav_model, monkeypatch):
        # Raises ConvergenceError if 20 doublings do not reach the tolerance.
        monkeypatch.setattr(analysis, "MAX_DOUBLINGS", 20)
        stationary_covariance(uav_model)

    def test_huge_noise_converges_at_a_scaled_test(self, uav_model):
        # Both Frobenius norms of the test overflow unscaled: inf <= tol *
        # inf held after one doubling, at a relative residual of 0.42.
        model = SystemModel(A=uav_model.A, B=uav_model.B, C_G=uav_model.C_G,
                            C_I=uav_model.C_I, Sigma_w=2e305 * np.eye(4),
                            Sigma_G=2e306 * np.eye(2),
                            Sigma_I=2e306 * np.eye(2))
        H = stationary_covariance(model)
        stacked = StackedSensorForms(model)
        update = covariance_update(H, optimal_gain(H, model, stacked), model,
                                   stacked)
        scale = 2.0 ** (math.frexp(np.abs(H).max())[1] - 1)
        assert (np.linalg.norm((update - H) / scale)
                <= 1e-12 * np.linalg.norm(H / scale))
        assert 4.03e307 < np.trace(H) < 4.05e307

    @pytest.mark.parametrize("scale", [1e-250, 1e-160, 1e200, 1e250])
    def test_extreme_noise_scales_keep_the_uav_solution(self, uav_model,
                                                         uav_stationary_P,
                                                         scale):
        # The solution scales with the covariances.  Unscaled, both norms of
        # the test underflowed to 0 (or overflowed to inf) and it passed
        # after one doubling, 98 % away from the fixed point.
        model = SystemModel(A=uav_model.A, B=uav_model.B, C_G=uav_model.C_G,
                            C_I=uav_model.C_I,
                            Sigma_w=scale * uav_model.Sigma_w,
                            Sigma_G=scale * uav_model.Sigma_G,
                            Sigma_I=scale * uav_model.Sigma_I)
        P = stationary_covariance(model) / scale
        assert (np.linalg.norm(P - uav_stationary_P)
                <= 1e-12 * np.linalg.norm(uav_stationary_P))

    @pytest.mark.parametrize("a, sigma_w", [(1.0, 1e4), (1.0, 1e5),
                                            (1.0, 1e6), (0.9, 1e4)])
    def test_process_noise_dwarfing_gps_noise(self, a, sigma_w):
        # |P| stays near Sigma_G = 1 while Sigma_w reaches 1e6: P_1 = H_1 is
        # already near the fixed point, and the doubling stops after one or
        # two doublings, where H_2m is within tol of H_m (equal at 1e5).
        # Closed form: P = p / (p + 1), p = a^2 P + sigma_w.
        b = sigma_w + 1.0 - a * a
        expected = 2.0 * sigma_w / (b + math.sqrt(b * b + 4 * a * a * sigma_w))
        P = stationary_covariance(scalar_model(a=a, sigma_w=sigma_w))
        assert P[0, 0] == pytest.approx(expected, rel=1e-11)

    def test_huge_process_noise_fails_fast(self, uav_model):
        model = SystemModel(A=uav_model.A, B=uav_model.B, C_G=uav_model.C_G,
                            C_I=uav_model.C_I, Sigma_w=1e300 * np.eye(4),
                            Sigma_G=uav_model.Sigma_G,
                            Sigma_I=uav_model.Sigma_I)
        t0 = time.perf_counter()
        with pytest.raises(ConvergenceError) as info:
            stationary_covariance(model)
        assert time.perf_counter() - t0 < 1.0
        assert info.value.last_iterate is not None


class TestDriftMatrices:
    def test_uav_drift_free(self, uav_model):
        drift = drift_matrices(uav_model)
        assert np.abs(drift.C_bar_I).max() == 0.0
        np.testing.assert_array_equal(drift.A_bar, uav_model.A)
        assert drift.gps_pair_detectable is True
        assert drift.drift_pair_detectable is False
        assert drift.drift_free is True

    def test_uav_noise_floor(self, uav_model):
        drift = drift_matrices(uav_model)
        vel = 1e-4 * 1e-3 / 1.1e-3  # fused one-axis velocity variance
        np.testing.assert_allclose(np.diag(drift.Sigma_bar),
                                   [1e-4, 1e-4, vel, vel], rtol=1e-12)

    def test_contracting_A_has_drift(self):
        model = SystemModel(A=0.5 * np.eye(2), B=np.zeros((2, 1)),
                            C_G=np.eye(2), C_I=np.eye(2),
                            Sigma_w=np.eye(2), Sigma_G=np.eye(2),
                            Sigma_I=np.eye(2))
        drift = drift_matrices(model)
        np.testing.assert_allclose(drift.C_bar_I, -np.eye(2), atol=1e-14)
        assert decoupling_residual(model, drift.L, drift.C_bar_I) <= 1e-10
        assert drift.drift_free is False

    def test_rejects_singular_A(self):
        A = np.eye(2)
        A[1, 1] = 0.0
        model = SystemModel(A=A, B=np.zeros((2, 1)), C_G=np.eye(2),
                            C_I=np.eye(2), Sigma_w=np.eye(2),
                            Sigma_G=np.eye(2), Sigma_I=np.eye(2))
        with pytest.raises(ValueError, match="singular"):
            drift_matrices(model)

    def test_singular_decoupling_system_raises(self, uav_model):
        # Built without validate_model, Sigma_I = 0: on the drift-free
        # paper_uav the decoupling system is Sigma_I itself.
        m = uav_model
        model = SystemModel(A=m.A, B=m.B, C_G=m.C_G, C_I=m.C_I,
                            Sigma_w=m.Sigma_w, Sigma_G=m.Sigma_G,
                            Sigma_I=np.zeros((2, 2)))
        with pytest.raises(NumericalError, match="^noise-decoupling system "
                                                 "is singular$"):
            drift_matrices(model)

    def test_decoupling_identity_random_models(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            model = random_invertible_model(rng)
            drift = drift_matrices(model)
            assert decoupling_residual(model, drift.L, drift.C_bar_I) <= 1e-10


class TestEscapeTime:
    def test_uav_escape_steps(self, uav_model, uav_stationary_P):
        k = escape_time(uav_stationary_P, uav_model, 2.0, 0.01)
        assert 285 <= k <= 295

    def test_already_escaped(self, uav_model):
        # Large covariance at the attack step: the tolerance is already
        # not credible, so the count is zero.
        P0 = 10.0 * np.eye(4)
        assert escape_time(P0, uav_model, 2.0, 0.01) == 0

    def test_scalar_arithmetic_progression(self):
        # P_k = 1 + k crosses zeta^2 / chi2 = 11 at k = 10.
        model = scalar_model(a=1.0)
        chi2 = chi2_quantile(1, 0.05)
        zeta = math.sqrt(11.0 * chi2)
        assert escape_time(np.eye(1), model, zeta, 0.05) == 10

    def test_stable_plant_never_escapes(self):
        # P_k rises from 1 to its limit 4/3, far inside zeta^2 / chi2: the
        # verdict is "never", from the limit.
        model = scalar_model(a=0.5)
        assert escape_time(np.eye(1), model, 100.0, 0.05) is None

    def test_a_shrinking_credible_start_never_escapes(self):
        # Every diagonal entry of A at 0.9: all modes decay.  From 10 times
        # its dead-reckoning limit (3000 steps from the stationary
        # covariance) f(P) <= P, above every row of the trunk.  Its limit
        # H_inf scaled by c = lambda_max(P) / lambda_min(H_inf), about 11,
        # lies above P and is still credible, and every later iterate lies
        # below c H_inf: "never" at once, where stepping took 100000 Joseph
        # steps and then raised ConvergenceError.
        config = parse_config(builtin_config_path())
        m, A = config.model, config.model.A.copy()
        np.fill_diagonal(A, 0.9)
        model = SystemModel(A=A, B=m.B, C_G=m.C_G, C_I=m.C_I,
                            Sigma_w=m.Sigma_w, Sigma_G=m.Sigma_G,
                            Sigma_I=m.Sigma_I)
        stacked, P = StackedSensorForms(model), stationary_covariance(model)
        for _ in range(3000):
            P = joseph_step(P, Mode.EMERGENCY, stacked)[1]
        start = 10.0 * P
        P1 = joseph_step(start, Mode.EMERGENCY, stacked)[1]
        assert not lies_below(start, P1)
        assert lies_below(P1, start)
        zeta, alpha = config.zeta_norm, config.detector.alpha
        began = time.perf_counter()
        assert escape_time(start, model, zeta, alpha) is None
        assert time.perf_counter() - began < 0.25
        assert stepped_escape_time(start, model, zeta, alpha,
                                   horizon=2000) is None

    def test_rejects_bad_zeta_shape(self, uav_model):
        # zeta is the scalar norm tolerance; a vector, directional or not,
        # is not a number.
        for zeta in (np.ones(3), np.array([2.0, 0.0, 0.0, 0.0])):
            with pytest.raises(TypeError):
                escape_time(np.eye(4), uav_model, zeta, 0.01)

    def test_zero_covariance_is_an_infinite_statistic(self, uav_model):
        # P = 0 makes the tolerance credible, not a division by zero; with
        # process noise dead reckoning leaves 0 after one step.
        assert escape_time(np.zeros((4, 4)), uav_model, 2.0, 0.01) >= 1
        # Without process noise P stays 0, so the tolerance never escapes.
        assert escape_time(np.zeros((1, 1)), scalar_model(a=2.0, sigma_w=0.0),
                           1.0, 0.05) is None

    def test_fixed_point_fails_without_walking_the_horizon(self, uav_model,
                                                           monkeypatch):
        # Without process noise Sigma_bar is exactly 0, so the emergency
        # trunk stays 0 and never escapes, and P = 0 lies below it: "never"
        # without a one-step map, where stepping took 100000.
        m = uav_model
        model = SystemModel(A=m.A, B=m.B, C_G=m.C_G, C_I=m.C_I,
                            Sigma_w=np.zeros((4, 4)), Sigma_G=m.Sigma_G,
                            Sigma_I=m.Sigma_I)
        calls = counted_steps(monkeypatch)
        assert escape_time(np.zeros((4, 4)), model, 2.0, 0.01) is None
        assert calls == []

    def test_tolerance_whose_square_overflows(self, uav_model,
                                              uav_stationary_P):
        # 1e200 ** 2 raises OverflowError; the squared tolerance is inf, a
        # statistic inf at every finite covariance: never, at once.
        assert escape_time(uav_stationary_P, uav_model, 1e200, 0.01) is None
        assert escape_time_lower_bound(uav_stationary_P, uav_model, 1e200,
                                       0.01) == math.inf
        # Neither field has a finite value: the report writes both as None.
        report = escape_report(uav_model, 1e200, 0.01).to_dict()
        assert report["k_escape"] is None and report["k_lower_bound"] is None


def stepped_escape_time(P, model, zeta, alpha, horizon=math.inf):
    """escape_time by the definition: dead-reckon one step at a time until
    the statistic drops to the quantile; None if it has not after horizon
    steps."""
    stacked = StackedSensorForms(model)
    quantile = chi2_quantile(model.n, alpha)
    k, magnitude = 0, covariance_magnitude(P)
    while magnitude == 0.0 or zeta * zeta / magnitude > quantile:
        if k == horizon:
            return None
        P = joseph_step(P, Mode.EMERGENCY, stacked)[1]
        k, magnitude = k + 1, covariance_magnitude(P)
    return k


def uav_variant(a=1.0, noise=1.0):
    """The UAV model with position entries A[0][0] = A[1][1] = a (C_I A = C_I
    still, so drift-free) and every noise covariance scaled by noise."""
    m = make_uav_model()
    A = m.A.copy()
    A[0, 0] = A[1, 1] = a
    return SystemModel(A=A, B=m.B, C_G=m.C_G, C_I=m.C_I,
                       Sigma_w=noise * m.Sigma_w, Sigma_G=noise * m.Sigma_G,
                       Sigma_I=noise * m.Sigma_I)


def counted_steps(monkeypatch) -> list:
    """The list escape_time's maps append their names to: "_apply" for each
    one-step map on one P (the trunk's bisection, the probe for the row
    above the start, then carrying the start into its bracket), "_chunk"
    for each stacked chunk of stretch rows it reads; the two are the maps
    analysis holds."""
    calls = []
    for name in ("_apply", "_chunk"):
        def counted(*args, name=name, original=getattr(analysis, name)):
            calls.append(name)
            return original(*args)
        monkeypatch.setattr(analysis, name, counted)
    return calls


def bracket_maps(model, zeta, alpha) -> int:
    """The most one-step maps escape_time makes on one P: one per bisection
    level below the trunk's escape step k_0, one probe for the row i above
    the start, then one per bit of the k_0 - i < k_0 steps that carry the
    start into its bracket.  k_0 is the escape time of P = 0, the trunk's
    row 0, carried to row k_0 itself."""
    k_0 = escape_time(np.zeros((model.n,) * 2), model, zeta, alpha)
    return 2 * k_0.bit_length() + 1


def first_zero_level(stacked) -> int:
    """The first level whose emergency power triple's A_m is exactly 0."""
    return next(level for level in range(analysis.MAX_DOUBLINGS)
                if not stacked._power(Mode.EMERGENCY, level)[0].any())


# The chunks of one emergency stretch's 256 rows: 8, 8, 16, ..., 128.
STRETCH_CHUNKS = 6


class TestEscapeTimeByDoubling:
    """Every start's escape step is bracketed by the emergency trunk, whose
    own is searched by doubling, on any model; its k is the one stepping
    gives."""

    def test_uav_tolerance_grid(self, uav_model, uav_stationary_P):
        ks = [escape_time(uav_stationary_P, uav_model, zeta, 0.01)
              for zeta in (2.0, 20.0, 200.0, 2000.0)]
        assert ks == [291, 1805, 8784, 41165]

    def test_far_horizon_takes_few_products(self, uav_model,
                                            uav_stationary_P, monkeypatch):
        # Stepping took 41165 dead-reckoning steps and about 0.4 s.  The
        # bracket is (2, 155) rows; the probe between power rows 128 and
        # 256, row 192, lies above the start, so it reads the first 128 rows
        # of one stretch, 5 of its chunks.
        bound = bracket_maps(uav_model, 2000.0, 0.01)
        calls = counted_steps(monkeypatch)
        start = time.perf_counter()
        assert escape_time(uav_stationary_P, uav_model, 2000.0, 0.01) == 41165
        assert time.perf_counter() - start < 0.25
        assert calls.count("_apply") <= bound
        assert calls.count("_chunk") == STRETCH_CHUNKS - 1

    @pytest.mark.parametrize("model, zeta", [
        pytest.param(uav_variant(), 2.0, id="uav"),
        pytest.param(uav_variant(noise=1e-3), 0.1, id="uav-quiet"),
        pytest.param(uav_variant(noise=1e3), 50.0, id="uav-loud"),
        pytest.param(uav_variant(a=0.99), 2.0, id="uav-contracting"),
        pytest.param(uav_variant(a=1.01), 20.0, id="uav-expanding"),
        pytest.param(scalar_model(a=1.0, sigma_w=0.3), 10.0, id="scalar"),
        pytest.param(scalar_model(a=0.9, sigma_w=2.0), 6.2,
                     id="scalar-contracting"),
        pytest.param(scalar_model(a=1.02, sigma_w=1e-3), 3.0,
                     id="scalar-expanding")])
    def test_equals_the_stepped_loop(self, model, zeta, monkeypatch):
        stacked = StackedSensorForms(model)
        assert stacked.drift_free
        n = model.n
        starts = [stationary_covariance(model), np.zeros((n, n)),
                  1e-3 * np.trace(stacked.Sigma_bar) * np.eye(n)]
        bound = bracket_maps(model, zeta, 0.05)
        calls = counted_steps(monkeypatch)
        for P0 in starts:
            P1 = joseph_step(P0, Mode.EMERGENCY, stacked)[1]
            assert lies_below(P0, P1)
            calls.clear()
            k = escape_time(P0, model, zeta, 0.05)
            assert calls.count("_apply") <= bound
            assert k == stepped_escape_time(P0, model, zeta, 0.05)
            assert k > 10

    def test_drift_models_equal_the_stepped_loop(self, monkeypatch):
        # The stationary covariance lies below a row of the emergency trunk
        # (f_N <= f_E): one bracket per start.  A model whose trunk limit
        # stays credible is "never", read from the galloping rows alone: the
        # one after the first A_m exactly 0 repeats it bit for bit, without
        # a one-step map; stepping then stays credible over 2000 steps.
        rng = np.random.default_rng(0)
        calls = counted_steps(monkeypatch)
        verdicts = []
        for _ in range(20):
            model = random_invertible_model(rng)
            assert not StackedSensorForms(model).drift_free
            P0 = stationary_covariance(model)
            for factor in (3.0, 1000.0):
                zeta = math.sqrt(factor * chi2_quantile(model.n, 0.05)
                                 * covariance_magnitude(P0))
                calls.clear()
                k = escape_time(P0, model, zeta, 0.05)
                if k is None:
                    assert calls == [] and first_zero_level(
                        StackedSensorForms(model)) < analysis.MAX_DOUBLINGS
                else:
                    assert calls.count("_apply") <= bracket_maps(model, zeta,
                                                                 0.05)
                assert k == stepped_escape_time(P0, model, zeta, 0.05,
                                                horizon=2000)
                verdicts.append(k is None)
        assert 10 <= sum(verdicts) <= 30

    def test_failing_start_reads_an_emergency_stretch(self, uav_model,
                                                      monkeypatch):
        # A large velocity variance: D_0 = f(P_0) - P_0 is indefinite (its
        # position-velocity block has determinant below 0).  The trunk
        # brackets it all the same, rows (0, 167): escape_time reads one
        # emergency stretch's chunks, and gives the k that stepping gives.
        P0 = np.diag([0.0, 0.0, 1e-2, 1e-2])
        stacked = StackedSensorForms(uav_model)
        P1 = joseph_step(P0, Mode.EMERGENCY, stacked)[1]
        assert not lies_below(P0, P1) and not lies_below(P1, P0)
        bound = bracket_maps(uav_model, 2.0, 0.01)
        calls = counted_steps(monkeypatch)
        k = escape_time(P0, uav_model, 2.0, 0.01)
        assert calls.count("_apply") <= bound
        assert 0 < calls.count("_chunk") <= STRETCH_CHUNKS
        assert k == stepped_escape_time(P0, uav_model, 2.0, 0.01) > 256

    def test_detections_that_fail_the_check_read_a_stretch(self,
                                                           monkeypatch):
        # 9 of paper_uav's seeds 0-39 detect the attack at a covariance that
        # does not lie below its successor: their escape from the alarm
        # reads the first 128 rows of one emergency stretch from its
        # probed bracket, as the stationary start's does, and gives
        # stepping's 290.
        config = parse_config(builtin_config_path())
        stacked = config.model._derived(StackedSensorForms)
        bound = bracket_maps(config.model, config.zeta_norm,
                             config.detector.alpha)
        calls = counted_steps(monkeypatch)
        for seed in (13, 21, 23, 26, 31, 32, 35, 36, 38):
            trace = run_scenario(replace(config, seed=seed))
            P = trace.columns.P[trace.attack_detection_step - 1]
            assert not lies_below(P, joseph_step(
                P, Mode.EMERGENCY, stacked)[1])
            calls.clear()
            assert trace.escape_time_from_alarm == 290 == stepped_escape_time(
                P, config.model, config.zeta_norm, config.detector.alpha)
            assert calls.count("_apply") <= bound
            assert calls.count("_chunk") == STRETCH_CHUNKS - 1

    @pytest.mark.parametrize("zeta, k", [(20000.0, 191461),
                                         (1e9, 259997622)])
    def test_no_horizon_cuts_the_search(self, uav_model, uav_stationary_P,
                                        monkeypatch, zeta, k):
        # Both lie past the 100000 steps the search once stopped at; the
        # first equals stepping the emergency stretch rows (about 0.8 s).
        bound = bracket_maps(uav_model, zeta, 0.01)
        calls = counted_steps(monkeypatch)
        assert escape_time(uav_stationary_P, uav_model, zeta, 0.01) == k
        assert calls.count("_apply") <= bound
        assert calls.count("_chunk") <= STRETCH_CHUNKS
        if k < 1e6:
            quantile = chi2_quantile(4, 0.01)
            rows = stretch_rows(_Stretch(Mode.EMERGENCY, uav_stationary_P,
                                         StackedSensorForms(uav_model)), k)
            statistics = zeta * zeta / covariance_magnitude(rows)
            assert statistics[:-1].min() > quantile >= statistics[-1]

    def test_a_non_monotone_start_escapes_past_the_step_budget(self):
        # The shipped config at zeta_norm 20000, seed 13: a false alarm at
        # step 33, the attack detected at step 700.  P - f(P) is indefinite
        # there, and on drift-free paper_uav keeps its inertia under A (.)
        # A^T, so no later iterate lies below its successor; a step loop
        # with a 100000-step budget raised "still credible".  The trunk's
        # bracket gives stepping's 191460, as seeds 0-2 do.
        config = replace(parse_config(builtin_config_path()),
                         zeta_norm=20000.0, seed=13)
        trace = run_scenario(config)
        assert (trace.first_alarm_step, trace.attack_detection_step) == (
            33, 700)
        P = trace.columns.P[699]
        assert not lies_below(P, joseph_step(
            P, Mode.EMERGENCY, StackedSensorForms(config.model))[1])
        assert escape_time(P, config.model, config.zeta_norm,
                           config.detector.alpha) == 191460

    def test_the_search_stops_after_64_levels(self, uav_model,
                                              uav_stationary_P):
        # At zeta = 1e150 the trunk's cubic growth stays credible at its
        # row 2^63, the 64th galloping level's, and no A_m of the unit-norm
        # transition is 0: ConvergenceError naming the trunk's steps
        # searched and carrying its row.
        with pytest.raises(ConvergenceError) as info:
            escape_time(uav_stationary_P, uav_model, 1e150, 0.01)
        value = 1e150 * 1e150 / covariance_magnitude(info.value.last_iterate)
        assert str(info.value) == (
            f"tolerance still credible after {2 ** 63} steps (last "
            f"statistic {value:.6g} > quantile {chi2_quantile(4, 0.01):.6g})")
        assert info.value.residual == value

    @pytest.mark.parametrize("zeta, k", [(1.0, 1670), (2.0, 6677),
                                         (4.2, 29442)])
    def test_a_non_finite_candidate_hands_the_start_to_the_steps(
            self, zeta, k, monkeypatch):
        # The unexcited unstable mode's G_m overflows on the way: the power
        # triple of 1024 steps is not finite, so the trunk's search strides
        # by 512 rows, the last finite triple's, and bisects below it; 29442
        # lies past the 512 * 55 rows that 64 levels counting each stride
        # once would reach.  P = 0, the trunk's row 0, is carried to row k
        # by those triples alone and gets the k that Joseph stepping gives,
        # reading no rows.
        from test_estimator import unexcited_unstable_model
        model, P0 = unexcited_unstable_model(), np.zeros((2, 2))
        stacked = model._derived(StackedSensorForms)
        assert np.isfinite(stacked._power(Mode.EMERGENCY, 9)).all()
        assert not np.isfinite(stacked._power(Mode.EMERGENCY, 10)).all()
        calls = counted_steps(monkeypatch)
        assert escape_time(P0, model, zeta, 0.05) == k
        assert "_chunk" not in calls
        assert calls.count("_apply") <= 2 * (9 + k // 512)
        assert stepped_escape_time(P0, model, zeta, 0.05) == k

    def test_a_trunk_past_its_finite_triples_still_converges(self):
        # The unexcited unstable mode, with the other mode contracting by
        # 0.999: the power triples overflow from 1024 steps on, long before
        # the trunk's variance (1e-4 / (1 - 0.999^2), about 0.05) settles
        # below the tolerance's 1 / chi2.  Strides of the last finite triple
        # reach a row that repeats bit for bit: "never", as stepping says,
        # where a 100000-step loop raised "still credible".
        model = SystemModel(A=np.diag([2.0, 0.999]), B=np.zeros((2, 1)),
                            C_G=np.eye(2), C_I=[[1.0, 0.0]],
                            Sigma_w=np.diag([0.0, 1e-4]), Sigma_G=np.eye(2),
                            Sigma_I=np.eye(1))
        began = time.perf_counter()
        assert escape_time(np.zeros((2, 2)), model, 1.0, 0.05) is None
        assert time.perf_counter() - began < 0.25
        assert stepped_escape_time(np.zeros((2, 2)), model, 1.0, 0.05,
                                   horizon=5000) is None


class TestTrunkBracket:
    """The emergency trunk H_k = f^k(0) brackets every escape time: a run's
    covariances lie below it row by row, and H_j <= P <= H_i puts the
    escape step of P in [k_0 - i, k_0 - j], k_0 the trunk's own."""

    @pytest.fixture()
    def config(self, derived):
        """name -> the shipped config, or its DERIVED variant `name`."""
        return lambda name: parse_config(builtin_config_path()
                                         if name == "shipped" else derived(name))

    @pytest.mark.parametrize("name", ["shipped", "drift"])
    def test_every_run_covariance_lies_below_the_trunk(self, name, config):
        # f_N <= f_E, the normal gain being optimal over both sensors: from
        # P_0 = H_0 = 0 every step keeps P_k <= H_k, in either mode.
        config = config(name)
        trunk = np.array(emergency_trunk(
            config.model._derived(StackedSensorForms), config.steps))
        for seed in range(5):
            trace = run_scenario(replace(config, seed=seed))
            assert trace.attack_detection_step == 700
            eigvals = np.linalg.eigvalsh(trunk[1:] - trace.columns.P)
            assert (eigvals[:, 0] >= -1e-12 * eigvals[:, -1]).all()

    @pytest.mark.parametrize("name, brackets, escapes", [
        ("shipped", [(2, 155), (3, 156), (3, 156), (0, 167)],
         {2.0: [291, 290, 290, 291], 20.0: [1805, 1804, 1804, 1803]}),
        ("drift", [(2, 152), (3, 153), (3, 153), (0, 147)],
         {2.0: [394, 393, 393, 397]}),
        ("contracting", [(2, 71), (3, 72), (3, 72), (0, None)],
         {2.0: [None] * 4})])
    def test_the_bracket_holds_the_stepped_escape(self, name, brackets,
                                                  escapes, config):
        # The stationary covariance, the covariance at detection on seeds 0
        # and 13, and a large velocity variance.  The contracting trunk
        # never escapes: "never", the last start's by the scaled trunk.
        config = config(name)
        model, alpha = config.model, config.detector.alpha
        starts = [model._derived(stationary_covariance)]
        for seed in (0, 13):
            trace = run_scenario(replace(config, seed=seed))
            starts.append(trace.columns.P[trace.attack_detection_step - 1])
        starts.append(np.diag([0.0, 0.0, 1e-2, 1e-2]))
        trunk = emergency_trunk(model._derived(StackedSensorForms), 200)
        assert [trunk_bracket(P, trunk) for P in starts] == brackets
        for zeta, ks in escapes.items():
            k_0 = stepped_escape_time(trunk[0], model, zeta, alpha,
                                      horizon=2000)
            for P, (j, i), k in zip(starts, brackets, ks):
                assert escape_time(P, model, zeta, alpha) == k == \
                    stepped_escape_time(P, model, zeta, alpha, horizon=2000)
                assert k_0 is None or k_0 - i <= k <= k_0 - j

    @pytest.mark.parametrize("name, why", [
        ("contracting", "the emergency trunk never escapes, and its limit "
         "scaled to lie above the start is not credible"),
        ("shipped", "no row of the emergency trunk lies below the start")])
    def test_an_open_bracket_fails_at_once(self, name, why, config):
        # On the contracting plant, a variance along the trunk limit's
        # least eigenvector that its scale puts past the tolerance; on the
        # shipped one, a negative variance, which not even H_0 = 0 lies
        # below.  Both are credible starts.
        model = config(name).model
        if name == "contracting":
            stacked = model._derived(StackedSensorForms)
            limit = stacked._power(Mode.EMERGENCY, first_zero_level(
                stacked))[2]
            least = np.linalg.eigh(limit)[1][:, 0]
            P = 0.2 * np.outer(least, least)
        else:
            P = np.diag([-1e-3, 0.0, 0.0, 0.0])
        began = time.perf_counter()
        with pytest.raises(ConvergenceError) as info:
            escape_time(P, model, 2.0, 0.01)
        assert time.perf_counter() - began < 0.25
        assert str(info.value) == f"escape time left open: {why}"
        assert info.value.last_iterate is P

    def test_a_start_no_trunk_row_covers_fails_at_once(self):
        # A variance of 10 along a mode contracting by 0.5, past its trunk
        # limit 4/3, while the other mode's random walk of 1e-4 a step
        # drives the trunk's escape, at about 1.7e9 steps: no trunk row
        # lies above the start.  Read from step 0, the escape would take
        # as many rows; it is left open at once instead.
        model = SystemModel(A=np.diag([1.0, 0.5]), B=np.eye(2),
                            C_G=np.eye(2), C_I=np.zeros((0, 2)),
                            Sigma_w=np.diag([1e-4, 1.0]), Sigma_G=np.eye(2),
                            Sigma_I=np.zeros((0, 0)))
        P = np.diag([0.0, 10.0])
        began = time.perf_counter()
        with pytest.raises(ConvergenceError) as info:
            escape_time(P, model, 1e3, 0.05)
        assert time.perf_counter() - began < 0.25
        assert str(info.value) == ("escape time left open: no row of the "
                                   "emergency trunk lies above the start")
        assert info.value.last_iterate is P


class TestNonFiniteCovariance:
    # The message is the check: ConvergenceError, which escape_time raised
    # for a NaN P, is a NumericalError too.
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("zeta", [2.0])
    def test_escape_time_names_the_covariance(self, uav_model,
                                              uav_stationary_P, bad, zeta):
        P = uav_stationary_P.copy()
        P[1, 2] = bad
        with pytest.raises(NumericalError) as info:
            escape_time(P, uav_model, zeta, 0.01)
        assert str(info.value) == "non-finite covariance at the attack step"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_non_finite_iterate_names_its_step(self, uav_model,
                                                 monkeypatch, bad):
        # A velocity variance that no trunk row the search reads lies
        # above, but power row 1024, past the trunk's escape at 371, does:
        # i > k_0, so escape_time reads the rows from the start itself,
        # step 0 on.  A non-finite fifth row is a NumericalError naming that
        # step, never an escape time (NaN's statistic read as credible,
        # inf's as escaped).
        chunk = analysis._chunk

        def corrupted(P, lo, *args):
            hi = chunk(P, lo, *args)
            if lo < 5 <= hi:
                P[5] = bad
            return hi
        monkeypatch.setattr(analysis, "_chunk", corrupted)
        with pytest.raises(NumericalError) as info:
            escape_time(np.diag([0.0, 0.0, 5e-2, 5e-2]), uav_model, 2.0,
                        0.01)
        assert str(info.value) == \
            "non-finite covariance at dead-reckoning step 5"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_lower_bound_names_the_covariance(self, uav_model,
                                              uav_stationary_P, bad):
        P = uav_stationary_P.copy()
        P[0, 0] = bad
        with pytest.raises(NumericalError) as info:
            escape_time_lower_bound(P, uav_model, 2.0, 0.01)
        assert str(info.value) == "non-finite covariance at the attack step"


class TestEscapeTimeLowerBound:
    def test_uav_bound(self, uav_model, uav_stationary_P):
        bound = escape_time_lower_bound(uav_stationary_P, uav_model, 2.0, 0.01)
        assert 252 <= math.ceil(bound) <= 262

    def test_bound_below_escape(self, uav_model, uav_stationary_P):
        bound = escape_time_lower_bound(uav_stationary_P, uav_model, 2.0, 0.01)
        k = escape_time(uav_stationary_P, uav_model, 2.0, 0.01)
        assert bound <= k

    def test_scalar_unit_branch_exact(self):
        # ||A|| = 1: linear growth of the covariance bound, exact count.
        model = scalar_model(a=1.0)
        chi2 = chi2_quantile(1, 0.05)
        zeta = math.sqrt(11.0 * chi2)
        bound = escape_time_lower_bound(np.eye(1), model, zeta, 0.05)
        assert bound == pytest.approx(10.0, abs=1e-9)

    def test_degenerate_tolerance_clamps_to_zero(self):
        model = scalar_model(a=1.0)
        # zeta^2 / chi2 < ||P||: already outside the tolerable region
        assert escape_time_lower_bound(5.0 * np.eye(1), model, 0.1, 0.05) == 0.0

    def test_rejects_drifting_relative_sensor(self):
        model = SystemModel(A=0.5 * np.eye(2), B=np.zeros((2, 1)),
                            C_G=np.eye(2), C_I=np.eye(2),
                            Sigma_w=np.eye(2), Sigma_G=np.eye(2),
                            Sigma_I=np.eye(2))
        with pytest.raises(ValueError, match="drift-free"):
            escape_time_lower_bound(np.eye(2), model, 1.0, 0.05)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_zero_covariance_without_noise_bound_is_infinite(self, a):
        # P_k = A^k 0 A^kT = 0 at every step: the bound is inf in each branch.
        model = scalar_model(a=a, sigma_w=0.0)
        bound = escape_time_lower_bound(np.zeros((1, 1)), model, 1.0, 0.05)
        assert bound == math.inf

    def test_stable_plant_bound_is_infinite(self):
        model = scalar_model(a=0.5)
        bound = escape_time_lower_bound(np.eye(1), model, 100.0, 0.05)
        assert math.isinf(bound)

    def test_stable_plant_already_exceeded_is_zero(self):
        # Contracting A with the tolerance already exceeded at the attack
        # step: both escape and its bound are zero.
        model = scalar_model(a=0.5)
        chi2 = chi2_quantile(1, 0.05)
        zeta = math.sqrt(2.0 * chi2)  # target 2 < ||P0|| = 3
        P0 = 3.0 * np.eye(1)
        assert escape_time_lower_bound(P0, model, zeta, 0.05) == 0.0
        assert escape_time(P0, model, zeta, 0.05) == 0

    def test_stable_plant_climbing_case_dominated(self):
        # Dead-reckoning covariance climbs from 1 toward 4/3; a target in
        # between is reached in finitely many steps and the bound stays below.
        model = scalar_model(a=0.5)
        chi2 = chi2_quantile(1, 0.05)
        zeta = math.sqrt(1.2 * chi2)
        bound = escape_time_lower_bound(np.eye(1), model, zeta, 0.05)
        k = escape_time(np.eye(1), model, zeta, 0.05)
        assert 0.0 < bound <= k

    def test_dominance_across_tolerances(self, uav_model, uav_stationary_P):
        for zeta in (1.0, 2.0, 4.0, 8.0):
            bound = escape_time_lower_bound(uav_stationary_P, uav_model,
                                            zeta, 0.01)
            k = escape_time(uav_stationary_P, uav_model, zeta, 0.01)
            assert bound <= k


class TestCovarianceMagnitude:
    """A sum of squares that overflows or falls below 1e-290 is redone at a
    power-of-two scale; pytest makes any overflow warning an error."""

    def test_in_range_it_has_the_bits_of_the_plain_sum(self):
        rng = np.random.default_rng(8)
        for exponent in (-140, -5, 0, 5, 140, 151, 152):
            P = rng.normal(size=(4, 4)) * 10.0 ** exponent
            flat = P.ravel()
            assert covariance_magnitude(P) == math.sqrt(flat.dot(flat))

    def test_squares_out_of_range(self):
        # Exact where the norm is a float; inf only beyond the float range.
        assert covariance_magnitude(1e300 * np.eye(4)) == 2e300
        assert covariance_magnitude(np.full((2, 2), 8e307)) == 2 * 8e307
        assert covariance_magnitude(np.full((2, 2), 1e308)) == math.inf
        assert covariance_magnitude(1e-170 * np.eye(4)) == 2e-170
        assert covariance_magnitude(np.zeros((3, 3))) == 0.0

    def test_non_finite_entries(self):
        assert covariance_magnitude([[math.inf, 1e308]]) == math.inf
        assert math.isnan(covariance_magnitude([[math.nan, 1.0]]))
        assert math.isnan(covariance_magnitude([[math.inf, math.nan]]))

    def test_a_stack_has_the_bits_of_each_alone(self):
        # The escape analysis tests a chunk of rows at once, by the rule
        # that tests one row.
        rng = np.random.default_rng(8)
        stack = np.concatenate([
            rng.normal(size=(20, 4, 4))
            * 10.0 ** rng.uniform(-160, 160, size=(20, 1, 1)),
            [1e300 * np.eye(4), 1e-170 * np.eye(4), np.zeros((4, 4)),
             np.full((4, 4), math.inf), np.full((4, 4), math.nan)]])
        magnitudes = covariance_magnitude(stack)
        np.testing.assert_array_equal(
            magnitudes, [covariance_magnitude(P) for P in stack])
        np.testing.assert_array_equal(
            covariance_magnitude(stack.reshape(5, 5, 4, 4)),
            magnitudes.reshape(5, 5))


class TestEmergencyGrowth:
    def test_covariance_magnitude_monotone(self, uav_model, uav_stationary_P):
        drift = drift_matrices(uav_model)
        P = uav_stationary_P.copy()
        prev_fro = covariance_magnitude(P)
        prev_spec = spectral_norm(P)
        for _ in range(400):
            P = uav_model.A @ P @ uav_model.A.T + drift.Sigma_bar
            fro = covariance_magnitude(P)
            spec = spectral_norm(P)
            assert fro >= prev_fro
            assert spec >= prev_spec
            prev_fro, prev_spec = fro, spec


def confidence_radius(P, alpha):
    """The confidence radius sqrt(chi2(n, alpha) ||P||_2), written out."""
    return math.sqrt(chi2_quantile(len(P), alpha) * spectral_norm(P))


def run_radius(P, alpha):
    """The runner's conf_radius for one step whose covariance is P."""
    cols = _RunColumns(*[None] * 7, P=np.asarray([P], dtype=float),
                       q=chi2_quantile(len(P), alpha))
    return float(cols.conf_radius[0])


class TestConfidenceBound:
    # _RunColumns.conf_radius is the one confidence-radius rule.
    def test_identity_covariance(self):
        expected = math.sqrt(chi2_quantile(4, 0.01))
        assert run_radius(np.eye(4), 0.01) == pytest.approx(expected)
        assert run_radius(np.eye(4), 0.01) == pytest.approx(3.6437, abs=1e-4)
        assert run_radius(np.eye(4), 0.01) == confidence_radius(np.eye(4),
                                                                0.01)

    def test_zero_covariance(self):
        assert run_radius(np.zeros((4, 4)), 0.01) == 0.0

    def test_equals_the_run_columns(self, uav_config):
        # spectral_norm and the written-out radius give a run's norm_P and
        # conf_radius columns bit for bit.
        cols = run_scenario(uav_config).columns
        alpha = uav_config.detector.alpha
        assert [spectral_norm(P) for P in cols.P] == cols.norm_P.tolist()
        assert [confidence_radius(P, alpha) for P in cols.P] == \
            cols.conf_radius.tolist()

    def test_scales_with_sqrt(self):
        rng = np.random.default_rng(12)
        R = rng.normal(size=(4, 4))
        P = R @ R.T
        one = run_radius(P, 0.01)
        two = run_radius(2.0 * P, 0.01)
        assert two == pytest.approx(math.sqrt(2.0) * one, rel=1e-12)


class TestEscapeReport:
    def test_uav_report(self, uav_model, uav_stationary_P):
        report = escape_report(uav_model, 2.0, 0.01)
        assert report.stationary_P.tobytes() == uav_stationary_P.tobytes()
        assert report.df == 4
        assert report.branch == "general"
        assert 285 <= report.k_escape <= 295
        assert report.k_lower_bound <= report.k_escape
        payload = report.to_dict()
        assert payload["k_escape"] == report.k_escape
        assert payload["branch"] == "general"
        assert payload["stationary_trace_P"] == pytest.approx(
            np.trace(uav_stationary_P))

    def test_drifting_model_has_no_bound(self):
        # Stable A with a drifting relative sensor: the closed-form bound
        # does not apply, so the report carries only the iterated count
        # (zero here because the tolerance is tiny).
        model = SystemModel(A=0.5 * np.eye(2), B=np.zeros((2, 1)),
                            C_G=np.eye(2), C_I=np.eye(2),
                            Sigma_w=0.01 * np.eye(2), Sigma_G=0.01 * np.eye(2),
                            Sigma_I=0.01 * np.eye(2))
        report = escape_report(model, 1e-3, 0.05)
        assert report.k_escape == 0
        assert report.k_lower_bound is None


class TestDegreesOfFreedom:
    """The chi-square quantiles take the state dimension as their degrees of
    freedom, so no function takes a df; a positional one is a TypeError.
    What the model alone determines (its sensor forms, stationary
    covariance and drift analysis) the model keeps, so no function takes
    it either."""

    @pytest.mark.parametrize("function, names", [
        (stationary_covariance, ["model"]),
        (drift_matrices, ["model"]),
        (escape_time, ["P_at_attack", "model", "zeta", "alpha"]),
        (escape_time_lower_bound, ["P", "model", "zeta_norm", "alpha"]),
        (escape_report, ["model", "zeta_norm", "alpha"])])
    def test_only_the_papers_inputs(self, function, names):
        parameters = inspect.signature(function).parameters.values()
        assert [p.name for p in parameters] == names
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty
                   for p in parameters)

    @pytest.mark.parametrize("call", [
        lambda m, P: escape_time(P, m, 2.0, 0.01, 4),
        lambda m, P: escape_time_lower_bound(P, m, 2.0, 0.01, 4),
        lambda m, P: escape_report(m, 2.0, 0.01, 4)])
    def test_positional_df_is_rejected(self, uav_model, uav_stationary_P,
                                       call):
        with pytest.raises(TypeError):
            call(uav_model, uav_stationary_P)

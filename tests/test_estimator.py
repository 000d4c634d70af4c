import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from spoofguard import (AttackSignal, EstimatorState, Mode,
                        NumericalError, ScenarioShared, StackedSensorForms,
                        SystemModel, builtin_config_path,
                        covariance_update, cusum_update, drift_matrices,
                        estimator, fuse, monte_carlo, optimal_gain,
                        parse_config, harness, run_scenario,
                        stationary_covariance)

from spoofguard.detector import normalized_residual
from spoofguard.estimator import (_covariance_update_stacked,
                                  _dead_reckoning, _detector_weight,
                                  _innovation_system)
from spoofguard.model import _inv

from conftest import chain_steps, make_uav_model, random_invertible_model


@pytest.fixture(scope="module")
def model():
    return make_uav_model()


@pytest.fixture(scope="module")
def stacked(model):
    return StackedSensorForms(model)


def zero_gain(model):
    return np.zeros((model.n, model.m_G + model.m_I))


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
            step = _innovation_system(EstimatorState(None, P), stacked)
            innov_cov, gain_rhs = step.R, step.G
            assert np.array_equal(innov_cov, M.dot(P_Mt) + C_Sw_Ct_Sy)
            assert np.array_equal(gain_rhs, model.A.dot(P_Mt) + Sw_Ct)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_a_state_never_reads_another_covariances_step(self, model, mode):
        # The step lives on the state that holds its P: neither
        # dataclasses.replace nor a hand-built state carries one over.
        stacked = StackedSensorForms(model)
        rng = np.random.default_rng(7)
        x_hat, u, y_G, y_I = (rng.normal(size=2 * k) for k in (2, 1, 1, 1))
        first = fuse(EstimatorState(x_hat, 1e-3 * np.eye(4)), model, stacked,
                     u, y_G, y_I)
        assert first.step is not None and first.step.P is first.P
        _detector_weight(first, stacked)
        assert first.step.R is not None
        other = 5.0 * first.P

        def outputs(est):
            out = fuse(est, model, stacked, u, y_G, y_I)
            return (_detector_weight(est, stacked), out.x_hat, out.P,
                    optimal_gain(est.P, model, stacked))

        want = outputs(EstimatorState(first.x_hat, other, mode))
        for est in (replace(first, P=other, mode=mode),
                    EstimatorState(first.x_hat, other, mode)):
            assert est.step is None
            for got, w in zip(outputs(est), want):
                assert got.tobytes() == w.tobytes()
            assert est.step is None or est.step.P is other


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
    """The detector's P_d^{-1} and fuse's one-step predictor, cached on the
    normal-mode step, against the solve and the innovation form they
    replace."""

    def test_quadratic_form_matches_the_solve(self, priors_per_model):
        rng = np.random.default_rng(42)
        for model, priors in priors_per_model:
            stacked, m_G = StackedSensorForms(model), model.m_G
            for P in priors:
                d_hat = rng.normal(size=m_G)
                P_d = _innovation_system(EstimatorState(None, P),
                                         stacked).R[:m_G, :m_G]
                q = normalized_residual(d_hat, _detector_weight(
                    EstimatorState(np.zeros(model.n), P), stacked))
                expected = d_hat @ np.linalg.solve(P_d, d_hat)
                assert abs(q - expected) <= 1e-12 * expected

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
        quiet = SystemModel(A=model.A, B=model.B, C_G=model.C_G, C_I=model.C_I,
                            Sigma_w=np.zeros((4, 4)), Sigma_G=np.zeros((2, 2)),
                            Sigma_I=model.Sigma_I)
        with pytest.raises(NumericalError, match="residual covariance"):
            _detector_weight(EstimatorState(np.zeros(4), np.zeros((4, 4))),
                             StackedSensorForms(quiet))
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
                got = fuse(EstimatorState(x_hat, P), model, stacked, u, y_G,
                           y_I).x_hat
                K = optimal_gain(P, model, stacked)
                pred = A @ x_hat + B @ u
                want = (pred + K[:, :model.m_G] @ (y_G - C_G @ pred)
                        + K[:, model.m_G:] @ (y_I - C_I @ (pred - x_hat)))
                assert np.linalg.norm(got - want) <= \
                    1e-12 * np.linalg.norm(x_hat)


class TestStackedInverse:
    """One inv call per new prior gives R^{-1}, P_d^{-1} and R_II^{-1}; when
    it fails, each user solves its own block, as without the stacked
    inverse."""

    def test_blocks_match_the_solves(self, priors_per_model):
        drift_free = set()
        for model, priors in priors_per_model:
            stacked, m_G = StackedSensorForms(model), model.m_G
            drift_free.add(stacked.drift_free)
            for P in priors:
                est = EstimatorState(np.zeros(model.n), P)
                P_d_inv = _detector_weight(est, stacked)
                R, inverse = est.step.R, est.step.inverse
                assert not inverse[1, :m_G, m_G:].any()
                assert not inverse[1, m_G:, :m_G].any()
                assert np.array_equal(P_d_inv, inverse[1, :m_G, :m_G])
                for got, block in ((inverse[0], R), (P_d_inv, R[:m_G, :m_G]),
                                   (inverse[1, m_G:, m_G:], R[m_G:, m_G:])):
                    want = np.linalg.solve(block, np.eye(len(block)))
                    assert (np.abs(got - want).max()
                            <= 1e-12 * np.abs(want).max())
        assert drift_free == {True, False}

    def test_one_inv_call_per_prior_on_drift_models(self, priors_per_model,
                                                    monkeypatch):
        # From one state the detector and then a normal fuse, or dead
        # reckoning, read the inverse that the state's step builds on its
        # first use; none drops or recomputes it.  optimal_gain builds a
        # fresh step.
        calls, inv = [], estimator._inv

        def counted(*args, **kwargs):
            calls.append(args)
            return inv(*args, **kwargs)
        monkeypatch.setattr(estimator, "_inv", counted)
        for model, priors in priors_per_model[1:]:
            stacked = StackedSensorForms(model)
            assert not stacked.drift_free
            n, p, m_G, m_I = model.n, model.p, model.m_G, model.m_I
            for P in priors[:5]:
                for mode in Mode:
                    del calls[:]
                    est = EstimatorState(np.zeros(n), P, mode)
                    _detector_weight(est, stacked)
                    fuse(est, model, stacked,
                         np.zeros(p), np.zeros(m_G), np.zeros(m_I))
                    _dead_reckoning(est, model, stacked)
                    assert len(calls) == 1
                optimal_gain(P, model, stacked)
                assert len(calls) == 2

    def test_failed_inverse_falls_back_to_the_solves(self, priors_per_model,
                                                     monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        def quantities(model, est, stacked):
            return (_detector_weight(est, stacked),
                    optimal_gain(est.P, model, stacked),
                    _dead_reckoning(est, model, stacked)[1])

        for model, priors in priors_per_model:
            for P in priors[:5]:
                want = quantities(model, EstimatorState(np.zeros(model.n), P),
                                  StackedSensorForms(model))
                stacked = StackedSensorForms(model)
                est = EstimatorState(np.zeros(model.n), P)
                with monkeypatch.context() as patched:
                    patched.setattr(estimator, "_inv", singular)
                    got = quantities(model, est, stacked)
                assert est.step.R is not None and est.step.inverse is None
                for g, w in zip(got, want):
                    assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    @pytest.mark.parametrize("bad", ["nan", "inf off the blocks",
                                     "singular"])
    def test_no_stale_input_after_a_failed_inverse(self, model, bad):
        # The inverse's input is one buffer per StackedSensorForms.  A step
        # after one whose R held NaN, or inf only off its diagonal blocks,
        # or whose inverse raised LinAlgError, inverts the bytes of
        # np.where(mask, R, 0): no entry of the earlier R is left in it.
        if bad == "nan":
            P_bad = np.full((4, 4), np.nan)
        elif bad == "singular":     # at P = 0, R = blockdiag(0, Sigma_I)
            model = SystemModel(A=model.A, B=model.B, C_G=model.C_G,
                                C_I=model.C_I, Sigma_w=np.zeros((4, 4)),
                                Sigma_G=np.zeros((2, 2)),
                                Sigma_I=model.Sigma_I)
            P_bad = np.zeros((4, 4))
        else:   # M = [2, 0; 0, 2]: (M P M^T)_GI = 4 * 5e307 overflows
            model = SystemModel(A=np.diag([2.0, 3.0]), B=np.ones((2, 1)),
                                C_G=[[1.0, 0.0]], C_I=[[0.0, 1.0]],
                                Sigma_w=np.eye(2), Sigma_G=np.eye(1),
                                Sigma_I=np.eye(1))
            P_bad = np.array([[1.0, 5e307], [5e307, 1.0]])
        stacked, n = StackedSensorForms(model), model.n
        mask = stacked._inverse_mask
        with np.errstate(over="ignore", invalid="ignore"):
            step = _innovation_system(EstimatorState(None, P_bad), stacked)
        if bad == "singular":
            assert step.inverse is None
        elif bad == "inf off the blocks":
            assert np.isfinite(step.R[mask[1]]).all()
            assert np.isinf(step.R[~mask[1]]).all()
        assert not stacked._inverse_in[~mask].any()
        X = np.random.default_rng(5).normal(size=(n, n))
        for P in (np.eye(n), X @ X.T):
            step = _innovation_system(EstimatorState(None, P), stacked)
            want = _inv(np.where(mask, step.R, 0.0))
            assert step.inverse.tobytes() == want.tobytes()

    def test_singular_innovation_covariance_raises(self, model):
        # Sigma_w = 0 and Sigma_G = 0: at P = 0, R = blockdiag(0, Sigma_I).
        quiet = SystemModel(A=model.A, B=model.B, C_G=model.C_G, C_I=model.C_I,
                            Sigma_w=np.zeros((4, 4)), Sigma_G=np.zeros((2, 2)),
                            Sigma_I=model.Sigma_I)
        stacked, P = StackedSensorForms(quiet), np.zeros((4, 4))
        with pytest.raises(NumericalError, match="^innovation covariance"):
            fuse(EstimatorState(np.zeros(4), P), quiet, stacked,
                 np.zeros(2), np.zeros(2), np.zeros(2))
        with pytest.raises(NumericalError, match="^innovation covariance"):
            optimal_gain(P, quiet, stacked)


class TestInverseHelper:
    """model._inv is np.linalg.inv without the wrapper's argument handling:
    the same bytes or the same LinAlgError, and no warning."""

    @staticmethod
    def outcome(inv, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = inv(a)
            except np.linalg.LinAlgError as exc:
                return type(exc), str(exc)
        return got.dtype, got.shape, got.tobytes()

    def same_as_inv(self, a):
        want = self.outcome(np.linalg.inv, a)
        assert self.outcome(_inv, a) == want
        return want

    def test_equals_inv_on_the_steps_operands(self, priors_per_model):
        for model, priors in priors_per_model:
            stacked, m_G = StackedSensorForms(model), model.m_G
            for P in priors:
                R = _innovation_system(EstimatorState(None, P), stacked).R
                for a in (np.where(stacked._inverse_mask, R, 0.0),
                          R[:m_G, :m_G]):
                    assert self.same_as_inv(a)[0] == np.float64

    def test_equals_inv_on_random_spd_matrices(self):
        rng = np.random.default_rng(17)
        for size in range(1, 7):
            for _ in range(20):
                X = rng.normal(size=(size, size))
                spd = X @ X.T + 1e-3 * np.eye(size)
                assert self.same_as_inv(spd)[0] == np.float64

    def test_singular_raises_as_inv_does(self):
        singular = np.array([[1.0, 2.0], [2.0, 4.0]])
        for a in (singular, np.zeros((3, 3)),
                  np.stack([np.eye(2), singular])):
            assert self.same_as_inv(a) == (np.linalg.LinAlgError,
                                           "Singular matrix")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_as_inv(self, bad):
        for a in (np.array([[bad, 0.0], [0.0, 1.0]]),
                  np.array([[2.0, bad], [bad, 3.0]]), np.full((2, 2), bad),
                  np.stack([np.eye(2), np.full((2, 2), bad)])):
            self.same_as_inv(a)

    def test_keeps_its_error_state_inside_any_caller_state(self):
        # The decorator's state replaces the caller's for the call only: a
        # singular matrix is LinAlgError, not FloatingPointError, and a
        # non-finite input is the same outcome as outside.
        before = np.geterr()
        for state in ({"all": "raise"}, {"all": "ignore"}, {"all": "warn"}):
            with np.errstate(**state):
                assert self.same_as_inv(np.zeros((2, 2))) == (
                    np.linalg.LinAlgError, "Singular matrix")
                self.same_as_inv(np.full((2, 2), math.inf))
                assert np.geterr() == {**before, **{
                    k: state["all"] for k in before}}
        assert np.geterr() == before

    def test_the_program_never_calls_np_linalg_inv(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg.inv called")
        monkeypatch.setattr(np.linalg, "inv", forbidden)
        config = parse_config(builtin_config_path())
        assert run_scenario(config).attack_detection_step == 700
        batch = monte_carlo(replace(config, runs=4, steps=200))
        assert batch.n_runs == 4 and np.isfinite(batch.mean_error).all()


class TestDeadReckoningDetector:
    """After a dead-reckoning step on a drift-free model the detector
    inverts P_d alone: no normal step and no (2, m, m) inverse; a drift
    model still builds the state's step, whose inverse dead reckoning
    reads."""

    def test_equals_the_steps_block_bit_for_bit(self):
        config = parse_config(builtin_config_path())
        m_G = config.model.m_G
        for seed in range(5):
            shared = ScenarioShared(config.model)
            cols = run_scenario(replace(config, seed=seed),
                                shared=shared).columns
            priors = cols.P[cols.alarmed]
            assert len(priors) >= 300
            stacked = shared.stacked
            for P in priors:
                got = _detector_weight(
                    EstimatorState(np.zeros(config.model.n), P,
                                   Mode.EMERGENCY), stacked)
                want = _innovation_system(EstimatorState(None, P),
                                          stacked).inverse[1, :m_G, :m_G]
                assert got.tobytes() == want.tobytes()

    def test_one_small_inverse_and_no_step(self, model, stacked, monkeypatch):
        P = stacked.Sigma_bar
        for _ in range(2):
            P = _dead_reckoning(EstimatorState(np.zeros(4), P), model,
                                stacked)[1]
        est = EstimatorState(np.zeros(4), P, Mode.EMERGENCY)
        shapes, inv = [], estimator._inv

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return inv(a, *args, **kwargs)
        monkeypatch.setattr(estimator, "_inv", counted)
        _detector_weight(est, stacked)
        assert shapes == [(model.m_G, model.m_G)]
        assert est.step is None

    def test_a_spoofed_run_builds_no_step_after_its_alarm(self, monkeypatch):
        # A NaN spoof from step 150 of seed 1 (no earlier alarm): every step
        # through 150 builds a step, each later one inverts P_d only.
        config = parse_config(builtin_config_path())
        config = replace(config, seed=1, steps=200, attack=AttackSignal(
            kind="custom-sequence", start_step=150,
            sequence=[np.full(2, np.nan)] * 51))
        shapes, inv, simulate = [], estimator._inv, harness._simulate

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return inv(a, *args, **kwargs)

        def simulated(*args, **kwargs):
            with monkeypatch.context() as patched:
                patched.setattr(estimator, "_inv", counted)
                return simulate(*args, **kwargs)
        monkeypatch.setattr(harness, "_simulate", simulated)
        shared = ScenarioShared(config.model)
        cols = run_scenario(config, shared=shared).columns
        assert np.flatnonzero(cols.alarmed).tolist() == list(range(149, 200))
        # The priors P_0..P_149 are the trunk's; P_149's step is not fused.
        trunk = chain_steps(shared.stacked)
        assert len(trunk) == 150 and trunk[-1].F is None
        m, m_G = len(shared.stacked.C), config.model.m_G
        assert shapes == [(2, m, m)] * 150 + [(m_G, m_G)] * 50

    def test_drift_models_build_the_step(self, priors_per_model):
        for model, priors in priors_per_model[1:]:
            stacked, m_G = StackedSensorForms(model), model.m_G
            for P in priors[:5]:
                est = EstimatorState(np.zeros(model.n), P, Mode.EMERGENCY)
                got = _detector_weight(est, stacked)
                assert got.base is est.step.inverse


class TestOneProductBlocks:
    """The gain's blocks [T, B_K, K, I - K C] = [A, B, 0, I] - K [M, CB, -I, C]
    and the emergency predictor F_E taken from them, against the separate
    products and the innovation form they replace."""

    @staticmethod
    def blocks_and_separate(model, stacked, P):
        K = optimal_gain(P, model, stacked)
        n, p, m = model.n, model.p, K.shape[1]
        blocks = _covariance_update_stacked(P, K, stacked)[0]
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
                           stacked, u, np.full(model.m_G, np.nan), y_I).x_hat
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
        K = np.hstack([np.zeros((4, 2)), stacked.K_I])
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
                    got = _covariance_update_stacked(P, gain, stacked)[1]
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
        K = StackedSensorForms(model).K_I
        expected = np.zeros((4, 2))
        expected[2, 0] = 1e-4 / 1.1e-3
        expected[3, 1] = 1e-4 / 1.1e-3
        np.testing.assert_allclose(K, expected, rtol=1e-12)

    def test_useless_sensor_ignored(self):
        base = make_uav_model()
        model = SystemModel(A=base.A, B=base.B, C_G=base.C_G, C_I=base.C_I,
                            Sigma_w=base.Sigma_w, Sigma_G=base.Sigma_G,
                            Sigma_I=1e6 * np.eye(2))
        assert np.linalg.norm(StackedSensorForms(model).K_I) <= 1e-6

    def test_symmetric_scalar_blend(self):
        one = np.eye(1)
        model = SystemModel(A=one, B=one, C_G=one, C_I=one,
                            Sigma_w=one, Sigma_G=one, Sigma_I=one)
        np.testing.assert_allclose(StackedSensorForms(model).K_I, [[0.5]],
                                   rtol=1e-14)


def closed_form_invariants(model):
    """K_I and Sigma_bar as StackedSensorForms' docstring writes them."""
    Sw_CIt = model.Sigma_w @ model.C_I.T
    K_I = np.linalg.solve((model.C_I @ Sw_CIt + model.Sigma_I).T, Sw_CIt.T).T
    IKC = np.eye(model.n) - K_I @ model.C_I
    return K_I, IKC @ model.Sigma_w @ IKC.T + K_I @ model.Sigma_I @ K_I.T


class TestDerivedInvariants:
    def test_uav_closed_forms_bit_for_bit(self, model, stacked):
        K_I, Sigma_bar = closed_form_invariants(model)
        assert stacked.K_I.tobytes() == K_I.tobytes()
        assert stacked.Sigma_bar.tobytes() == Sigma_bar.tobytes()
        assert StackedSensorForms(model).K_I.tobytes() == K_I.tobytes()

    def test_random_closed_forms(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            model = random_invertible_model(rng)
            stacked = StackedSensorForms(model)
            for got, want in zip((stacked.K_I, stacked.Sigma_bar),
                                 closed_form_invariants(model)):
                assert (np.linalg.norm(got - want)
                        <= 1e-12 * np.linalg.norm(want))


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
            est1 = fuse(est1, model, stacked, u, y_truth, y_I)
            est2 = fuse(est2, model, stacked, u, y_truth + 1e6, y_I)
            assert np.array_equal(est1.x_hat, est2.x_hat)
            assert np.array_equal(est1.P, est2.P)

    @pytest.mark.parametrize("spoof", [1e6, np.inf, -np.inf, np.nan])
    def test_emergency_ignores_non_finite_gps(self, model, stacked, spoof):
        rng = np.random.default_rng(18)
        est1 = EstimatorState(x_hat=np.zeros(4), P=1e-3 * np.eye(4),
                              mode=Mode.EMERGENCY)
        est2 = EstimatorState(x_hat=np.zeros(4), P=1e-3 * np.eye(4),
                              mode=Mode.EMERGENCY)
        for _ in range(20):
            u, y_I, y_truth = rng.normal(size=(3, 2))
            est1 = fuse(est1, model, stacked, u, y_truth, y_I)
            est2 = fuse(est2, model, stacked, u, np.full(2, spoof), y_I)
            assert np.array_equal(est1.x_hat, est2.x_hat)
            assert np.array_equal(est1.P, est2.P)

    def test_emergency_gps_gain_is_zero(self, model, stacked):
        K = optimal_gain(1e-3 * np.eye(4), model, stacked)
        assert np.abs(K[:, :2]).max() > 0  # normal mode uses GPS
        # emergency covariance equals the zero-GPS-gain update
        est = EstimatorState(x_hat=np.zeros(4), P=1e-3 * np.eye(4),
                             mode=Mode.EMERGENCY)
        out = fuse(est, model, stacked, np.zeros(2), np.zeros(2), np.zeros(2))
        K_emergency = np.hstack([np.zeros((4, 2)), stacked.K_I])
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
        K_emergency = np.hstack([np.zeros((4, 2)), stacked.K_I])
        rng = np.random.default_rng(19)
        for P in (stationary_covariance(model), 1e-3 * np.eye(4),
                  *(R @ R.T for R in rng.normal(size=(3, 4, 4)))):
            est = EstimatorState(x_hat=np.zeros(4), P=P,
                                 mode=Mode.EMERGENCY)
            out = fuse(est, model, stacked, np.zeros(2), np.zeros(2),
                       np.zeros(2))
            joseph = covariance_update(P, K_emergency, model, stacked)
            scale = np.linalg.norm(joseph)
            assert np.array_equal(out.P,
                                  _dead_reckoning(est, model, stacked)[1])
            assert np.linalg.norm(out.P - joseph) <= 1e-15 * scale


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
            est = fuse(est, model, stacked, rng.normal(size=1),
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
            est1 = fuse(est1, model, stacked, u, y_truth, y_I)
            est2 = fuse(est2, model, stacked, u, np.full(model.m_G, spoof),
                        y_I)
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
        K = np.hstack([np.zeros((4, 2)), stacked.K_I])
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

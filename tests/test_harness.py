import csv
import gc
import inspect
import json
import math
import weakref
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spoofguard import (AttackSignal, ConfigError, EstimatorState, Mode,
                        NumericalError, PlantState, ScenarioConfig,
                        ScenarioShared, StackedSensorForms, SystemModel,
                        analysis, builtin_config_path, chi2_quantile,
                        cusum_update, derive_run_seed, drift_matrices,
                        escape_report, estimator, export_trace, fuse,
                        harness, measure_gps, measure_imu, monte_carlo,
                        parse_config, pd_control, residual,
                        residual_covariance, run_scenario, spectral_norm,
                        step_dynamics)

from spoofguard.cli import main
from spoofguard.detector import normalized_residual
from spoofguard.estimator import _STRETCH, _Stretch, _innovation_system
from spoofguard.model import MATRIX_NAMES

from conftest import (IMU_BLIND_CONFIG, detector_weight, make_uav_model,
                      random_invertible_model, run_columns, trunk_rows,
                      trunk_stretches)
from reference import forbid_joseph_forms


class TestPdControl:
    def test_at_setpoint_at_rest(self):
        u = pd_control([10.0, 10.0, 0.0, 0.0], [10.0, 10.0], kp=1.0, kd=2.0)
        np.testing.assert_allclose(u, [0.0, 0.0])

    def test_pure_proportional(self):
        u = pd_control(np.zeros(4), [10.0, 10.0], kp=1.0, kd=2.0)
        np.testing.assert_allclose(u, [10.0, 10.0])

    def test_derivative_term_opposes_velocity(self):
        u = pd_control([10.0, 10.0, 1.0, -1.0], [10.0, 10.0], kp=1.0, kd=2.0)
        np.testing.assert_allclose(u, [-2.0, 2.0])

    def test_deterministic_closed_loop_settles_before_attack_step(self, uav_model):
        # Default gains must bring the noise-free plant within 0.1 of the
        # target before step 700 under perfect state feedback.
        target = np.array([10.0, 10.0])
        state = PlantState.initial(np.zeros(4))
        settled = None
        for k in range(1, 701):
            u = pd_control(state.x, target, kp=1.0, kd=2.0)
            state = step_dynamics(uav_model, state, u, np.zeros(4))
            if settled is None and np.all(np.abs(state.x[:2] - target) <= 0.1):
                settled = k
        assert settled is not None and settled < 700


class TestRunScenario:
    def test_paper_scenario_alarm_latency(self, uav_config, tmp_path):
        trace = run_scenario(uav_config)
        # Noise can trip transient alarms before the attack; the detection
        # latency is measured from the attack onset.
        assert 700 <= trace.attack_detection_step <= 703
        assert trace.first_alarm_step <= trace.attack_detection_step
        row = _csv_rows(trace, tmp_path)[trace.attack_detection_step - 1]
        assert row["alarmed"] == "true" and row["mode"] == "emergency"

    def test_record_count_and_initial_mode(self, uav_config, tmp_path):
        trace = run_scenario(uav_config)
        rows = _csv_rows(trace, tmp_path)
        assert len(trace.columns.alarmed) == len(rows) == uav_config.steps
        assert rows[0]["k"] == "1"
        assert rows[0]["mode"] == "normal"

    def test_alarmed_steps_ran_in_emergency(self, uav_config, tmp_path):
        trace = run_scenario(uav_config)
        rows = _csv_rows(trace, tmp_path)
        for row, alarmed in zip(rows, trace.columns.alarmed.tolist()):
            assert row["alarmed"] == ("true" if alarmed else "false")
            assert row["mode"] == ("emergency" if alarmed else "normal")

    @pytest.mark.parametrize("attack", [
        AttackSignal.none(),
        AttackSignal(kind="constant-bias", d=[100.0, 100.0], start_step=601)])
    def test_false_alarm_without_attack_is_no_detection(self, uav_config,
                                                        attack):
        # Seed 1 trips a false alarm at step 311; with no attack inside the
        # horizon it is reported as the first alarm, never as a detection.
        config = replace(uav_config, attack=attack, steps=600, seed=1)
        trace = run_scenario(config)
        assert trace.first_alarm_step == 311
        assert trace.attack_detection_step is None
        assert trace.escape_time_from_alarm is None
        assert trace.summary()["attack_detection_step"] is None

    def test_spoofed_gps_never_touches_estimate(self, uav_config):
        # Identical streams, wildly different attack magnitudes: once both
        # runs alarm (same step, deterministic), the estimates must coincide
        # bit for bit because emergency mode never reads the GPS innovation.
        big = replace(uav_config,
                      attack=AttackSignal(kind="constant-bias",
                                          d=[1e6, 1e6], start_step=700))
        t1 = run_scenario(uav_config)
        t2 = run_scenario(big)
        assert t1.attack_detection_step == t2.attack_detection_step == 700
        assert t1.first_alarm_step == t2.first_alarm_step
        assert np.array_equal(t1.columns.x_hat, t2.columns.x_hat)
        assert np.array_equal(t1.columns.x, t2.columns.x)

    def test_non_finite_spoof_forces_emergency(self, uav_config):
        # A NaN or infinite GPS reading alarms on its step and latches the
        # alarm; the estimate stays finite and equals the finite-spoof run's.
        traces = [run_scenario(replace(uav_config, attack=AttackSignal(
            kind="custom-sequence", start_step=700,
            sequence=[np.full(2, v)] * 301)))
            for v in (1e6, np.nan, np.inf, -np.inf)]
        for trace in traces:
            assert trace.attack_detection_step == 700
            assert trace.columns.alarmed[699:].all()
            assert np.array_equal(trace.columns.x_hat, traces[0].columns.x_hat)
            assert np.isfinite(trace.columns.x_hat).all()

    def test_large_finite_spoof_alarms_at_its_onset(self, uav_config):
        # The detector's form of a 1e200 residual overflows: S is inf from
        # the onset, and the estimate is the 1e6 spoof's, bit for bit.
        traces = [run_scenario(replace(uav_config, attack=AttackSignal(
            kind="constant-bias", d=[v, v], start_step=700)))
            for v in (1e6, 1e200)]
        assert traces[1].attack_detection_step == 700
        assert (traces[1].columns.S[699:] == np.inf).all()
        assert np.array_equal(traces[1].columns.x_hat,
                              traces[0].columns.x_hat)

    def test_non_finite_estimate_raises(self, uav_config):
        config = replace(uav_config, x0=np.full(4, 1e308), steps=10)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match="not finite"):
            run_scenario(config)

    def test_non_finite_error_norm_raises_at_its_step(self, uav_config):
        # x and x_hat stay finite near 1e300, but |x - x_hat| overflows from
        # step 2 on.
        config = replace(uav_config, target=np.full(2, 1e300), steps=20)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match="step 2 is not finite"):
            run_scenario(config)

    def test_diverging_model_raises_at_its_step_without_a_warning(
            self, uav_config):
        # No np.errstate here: the run's own state keeps the overflowing
        # steps quiet, the guard reports the first one, and the caller's
        # state is back afterwards.
        m = uav_config.model
        A = m.A.copy()
        A[2, 2] = A[3, 3] = 3.0
        config = replace(uav_config, model=SystemModel(
            A=A, B=m.B, C_G=m.C_G, C_I=m.C_I, Sigma_w=m.Sigma_w,
            Sigma_G=m.Sigma_G, Sigma_I=m.Sigma_I),
            attack=replace(uav_config.attack, start_step=10))
        before = np.geterr()
        with pytest.raises(NumericalError, match=(
                "^run with seed 0: a value of step 361 is not finite$")):
            run_scenario(config)
        assert np.geterr() == before

    def test_input_column_is_pd_control_bit_for_bit(self, uav_config):
        # u[0] from x0, u[i] from x_hat[i - 1], through the attack on seeds
        # 0-2: the record of [x'; u] holds the input the plant received.
        for seed in range(3):
            config = replace(uav_config, seed=seed)
            cols = run_scenario(config).columns
            priors = np.vstack([config.x0, cols.x_hat[:-1]])
            for u, x_hat in zip(cols.u, priors):
                want = pd_control(x_hat, config.target, config.kp, config.kd)
                assert u.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_recorded_columns_are_contiguous_and_apart(self, uav_config,
                                                       seed):
        # x and u are cut from one record per step, S and alarmed are
        # collected apart; each column is its own C-contiguous array.
        cols = run_scenario(replace(uav_config, seed=seed)).columns
        recorded = [cols.x, cols.x_hat, cols.u, cols.S, cols.alarmed]
        assert [a.shape for a in recorded] == [
            (1000, 4), (1000, 4), (1000, 2), (1000,), (1000,)]
        assert [a.dtype for a in recorded] == [np.float64] * 4 + [np.bool_]
        for i, a in enumerate(recorded):
            assert a.flags.c_contiguous and a.flags.owndata
            for b in recorded[i + 1:]:
                assert not np.shares_memory(a, b)
        np.testing.assert_array_equal(
            cols.err_norm, np.linalg.norm(cols.x - cols.x_hat, axis=-1))

    @pytest.mark.parametrize("attack", [
        AttackSignal(kind="constant-bias", d=[100.0, 100.0], start_step=301),
        AttackSignal(kind="ramp", d=[1.0, 1.0], start_step=5000),
        AttackSignal(kind="custom-sequence", start_step=301, sequence=[])])
    def test_attack_past_the_horizon_changes_nothing(self, uav_config,
                                                     tmp_path,
                                                     attack):
        config = replace(uav_config, steps=300)
        paths = []
        for name, run_attack in (("none", AttackSignal.none()),
                                 ("late", attack)):
            trace = run_scenario(replace(config, attack=run_attack))
            paths.append(tmp_path / f"{name}.csv")
            export_trace(trace, paths[-1], "csv")
        assert paths[0].read_bytes() == paths[1].read_bytes()
        # The last step inside the horizon is attacked.
        last = run_scenario(replace(config, attack=replace(
            attack, kind="constant-bias", d=np.full(2, 100.0),
            start_step=300)))
        assert last.columns.alarmed[-1]

    @pytest.mark.parametrize("case", ["paper_uav", "drifting", "nan_spoof"])
    def test_run_matches_public_step_functions(self, uav_config, case):
        # The public step functions, stepped in a plain loop, are the
        # reference for the runner, which computes the plant, the
        # measurements and the detector's residual in one product: the same
        # alarms on every step, states and finite statistics equal to
        # roundoff, and inf where the reference's statistic is inf.  Cases:
        # paper_uav over 720 steps; its drifting variant, C_I = C_G (a
        # relative-position IMU, so M's IMU rows are not zero), attacked;
        # paper_uav with a NaN spoof from step 700.  No random_invertible_model
        # draw: its B = 0 and unstable A drive |x| past 1e16 (2.3e16 at step
        # 114 on default_rng(0)'s), where the roundoff eps |x| is as large
        # as the residual itself and flips alarms between any two evaluation
        # orders, the plain loop's and the runner's, whichever form it uses.
        config = replace(uav_config, steps=720)
        if case == "drifting":
            model = uav_config.model
            config = replace(uav_config, model=SystemModel(
                A=model.A, B=model.B, C_G=model.C_G, C_I=model.C_G,
                Sigma_w=model.Sigma_w, Sigma_G=model.Sigma_G,
                Sigma_I=model.Sigma_I))
            assert not config.model._derived(StackedSensorForms).drift_free
        elif case == "nan_spoof":
            config = _spoofed(uav_config, np.nan)
        model, det = config.model, config.detector
        trace = run_scenario(config)
        cols = trace.columns
        shared = model._derived(ScenarioShared)
        samplers = (shared.sampler_w, shared.sampler_G, shared.sampler_I)
        rngs = [np.random.default_rng(s)
                for s in np.random.SeedSequence(config.seed).spawn(3)]
        plant = PlantState.initial(config.x0)
        est = EstimatorState.initial(config.x0)
        S, threshold = 0.0, det.threshold(model.m_G)
        for i in range(config.steps):
            w, v_G, v_I = (s.sample(rng) for s, rng in zip(samplers, rngs))
            u = pd_control(est.x_hat, config.target, config.kp, config.kd)
            plant = step_dynamics(model, plant, u, w)
            y_G = measure_gps(model, plant, config.attack, v_G)
            y_I = measure_imu(model, plant, v_I)
            S = cusum_update(S, residual(y_G, est.x_hat, u, model),
                             residual_covariance(est.P, model), det.delta)
            mode = Mode.EMERGENCY if S > threshold else Mode.NORMAL
            est = fuse(replace(est, mode=mode), model, u, y_G, y_I)
            assert cols.alarmed[i] == (mode is Mode.EMERGENCY)
            np.testing.assert_allclose(cols.x[i], plant.x, rtol=1e-9,
                                       atol=1e-12)
            np.testing.assert_allclose(cols.x_hat[i], est.x_hat,
                                       rtol=1e-9, atol=1e-12)
            if math.isinf(S):
                assert cols.S[i] == S
            else:
                assert cols.S[i] == pytest.approx(S, rel=1e-9)
            assert cols.conf_radius[i] == pytest.approx(math.sqrt(
                chi2_quantile(model.n, det.alpha) * spectral_norm(est.P)),
                rel=1e-9)
        assert trace.attack_detection_step == 700
        if case == "nan_spoof":
            assert (cols.S[699:] == np.inf).all()

    def test_detector_covariance_is_the_innovation_block(self, uav_config):
        # The runner's detector reads P_d as the GPS-GPS block of the
        # estimator's innovation covariance, for the prior of every step.
        trace = run_scenario(uav_config)
        model = uav_config.model
        priors = [np.zeros((model.n, model.n))] + list(trace.columns.P[:-1])
        stacked = model._derived(StackedSensorForms)
        for P in priors:
            block = _innovation_system(P, stacked)[0][:2, :2]
            reference = residual_covariance(P, model)
            assert np.linalg.norm(block - reference) <= \
                1e-14 * np.linalg.norm(reference)

    def test_deterministic_given_seed(self, uav_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_trace(run_scenario(uav_config), a, "csv")
        export_trace(run_scenario(uav_config), b, "csv")
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_trace(self, uav_config):
        t1 = run_scenario(uav_config)
        t2 = run_scenario(replace(uav_config, seed=1))
        assert not np.array_equal(t1.columns.x[10], t2.columns.x[10])

    def test_no_attack_stays_normal(self, uav_config):
        config = replace(uav_config, attack=AttackSignal.none(), steps=10_000)
        trace = run_scenario(config)
        normal = int((~trace.columns.alarmed).sum())
        assert normal >= 0.99 * config.steps
        assert trace.first_alarm_step is None or trace.escape is not None

    def test_detector_disabled_divergence(self, uav_config):
        # Without the detector the spoofed GPS drags the true position to
        # target minus the bias while the estimate still reports the target.
        config = replace(uav_config, steps=2500)
        trace = run_scenario(config, detector_enabled=False)
        assert trace.first_alarm_step is None
        goal = np.array([10.0, 10.0, 0.0, 0.0])
        cols = trace.columns
        for x, x_hat in zip(cols.x[2000:], cols.x_hat[2000:]):
            assert np.all(np.abs(x[:2] - (-90.0)) <= 5.0)
            assert np.linalg.norm(x_hat - goal) <= 1.0

    def test_escape_report_attached_on_alarm(self, uav_config):
        trace = run_scenario(uav_config)
        assert trace.escape is not None
        assert 285 <= trace.escape.k_escape <= 295
        assert trace.escape_time_from_alarm is not None
        summary = trace.summary()
        assert summary["attack_detection_step"] == 700
        assert summary["detectable_gps"] is True
        assert summary["detectable_drift_pair"] is False


class TestMonteCarlo:
    def test_single_run_matches_derived_seed(self, uav_config):
        config = replace(uav_config, runs=1, steps=400)
        batch = monte_carlo(config)
        direct = run_scenario(
            replace(config, seed=derive_run_seed(config.seed, 0)))
        assert batch.runs[0].seed == derive_run_seed(config.seed, 0)
        assert batch.runs[0].first_alarm_step == direct.first_alarm_step
        errors = direct.columns.x - direct.columns.x_hat
        np.testing.assert_array_equal(batch.mean_error, errors)

    def test_run_result_does_not_depend_on_its_batch(self, uav_config):
        # Every run of a multi-run batch equals run_scenario with its
        # derived seed bit for bit.
        config = replace(uav_config, runs=5, steps=720)
        batch = monte_carlo(config)
        for i, run in enumerate(batch.runs):
            direct = run_scenario(
                replace(config, seed=derive_run_seed(config.seed, i), runs=1))
            cols = direct.columns
            covered = (cols.err_norm <= cols.conf_radius).tolist()
            assert run.first_alarm_step == direct.first_alarm_step
            assert run.attack_detection_step == direct.attack_detection_step
            assert run.covered_steps == sum(covered)
            assert run.covered_post_attack == sum(covered[699:])
            assert run.final_err_norm == cols.err_norm[-1]

    def test_batch_skips_the_unreported_escape_time(self, uav_config,
                                                     monkeypatch):
        # RunSummary does not report the escape time from the alarm, so a
        # batch never computes it; a single run computes it on access.
        def not_called(*args, **kwargs):
            raise AssertionError("escape_time was called")
        monkeypatch.setattr(harness, "escape_time", not_called)
        batch = monte_carlo(replace(uav_config, runs=2, steps=710))
        assert [run.attack_detection_step for run in batch.runs] == [700, 700]
        trace = run_scenario(replace(uav_config, steps=710))
        with pytest.raises(AssertionError, match="escape_time was called"):
            trace.escape_time_from_alarm

    @pytest.mark.parametrize("attacked, runs, steps", [(True, 2, 710),
                                                        (False, 25, 200)])
    def test_batch_runs_no_escape_analysis(self, uav_config, monkeypatch,
                                           attacked, runs, steps):
        # A batch reports no escape or detectability field, so it computes
        # none; a single run's summary still reports them.
        config = replace(uav_config, runs=runs, steps=steps)
        if not attacked:
            config = replace(config, attack=AttackSignal.none())
        want = monte_carlo(config).runs

        def not_called(*args, **kwargs):
            raise AssertionError("escape analysis ran")
        for module, name in ((analysis, "stationary_covariance"),
                             (harness, "drift_matrices"),
                             (harness, "escape_report"),
                             (harness, "escape_time")):
            monkeypatch.setattr(module, name, not_called)
        assert monte_carlo(config).runs == want
        trace = run_scenario(replace(config, seed=derive_run_seed(
            config.seed, 0), runs=1))
        with pytest.raises(AssertionError, match="escape analysis ran"):
            trace.summary()
        monkeypatch.undo()
        summary = trace.summary()
        assert summary["first_alarm_step"] == want[0].first_alarm_step
        assert summary["detectable_gps"] is True
        assert summary["detectable_drift_pair"] is False
        if want[0].first_alarm_step is not None:
            assert 285 <= summary["escape_time"] <= 295
            assert summary["escape_time_lower_bound"] is not None

    def test_attacked_batch_coverage(self, uav_config):
        config = replace(uav_config, runs=10)
        batch = monte_carlo(config)
        assert batch.attack_start == 700
        for run in batch.runs:
            assert run.post_attack_steps == config.steps - 700 + 1
            assert run.covered_post_attack >= 0.95 * run.post_attack_steps
        assert batch.coverage_post_attack() >= 0.95

    def test_no_attack_coverage_aggregate(self, uav_config):
        config = replace(uav_config, attack=AttackSignal.none(),
                         runs=100, steps=500)
        batch = monte_carlo(config)
        assert batch.coverage_post_attack() is None
        covered = sum(r.covered_steps for r in batch.runs)
        assert covered >= 0.95 * config.runs * config.steps

    def test_horizon_before_the_onset_has_no_post_attack_steps(
            self, uav_config):
        # The attack starts at step 700, after a 200-step horizon ends.
        batch = monte_carlo(replace(uav_config, runs=3, steps=200))
        assert batch.attack_start == 700
        for run in batch.runs:
            assert run.post_attack_steps == 0
            assert run.covered_post_attack == 0
        assert batch.coverage_post_attack() is None

    def test_rejects_nonpositive_runs(self, uav_config):
        with pytest.raises(ConfigError):
            monte_carlo(replace(uav_config, runs=0))


def _columns(P, err_norm, q):
    """A run's columns around covariances P and error norms, for _covered."""
    zeros = np.zeros((len(P), P.shape[-1]))
    return harness._RunColumns(
        x=zeros, x_hat=zeros, u=zeros, S=zeros[:, 0], alarmed=zeros[:, 0] > 0,
        trace_P=zeros[:, 0], err_norm=err_norm, P=P, q=q)


@st.composite
def _bracket_cases(draw):
    """A symmetric P (PSD, indefinite, diagonal or rank one) at a scale
    from 1e-300 to 1e150, a quantile q, and error norms at, just inside and
    just outside the radius sqrt(q max(lambda_max, -lambda_min))."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["psd", "indefinite", "diagonal", "rank_one"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = rng.normal(size=(n, n))
    P = {"psd": lambda: G @ G.T, "indefinite": lambda: G + G.T,
         "diagonal": lambda: np.diag(G[0]),
         "rank_one": lambda: np.outer(G[0], G[0]) * rng.choice([-1.0, 1.0])
         }[kind]() * 10.0 ** draw(st.integers(-300, 150))
    q = draw(st.floats(0.5, 50.0))
    eigvals = np.linalg.eigvalsh(P)
    radius = np.sqrt(q * max(eigvals[-1], -eigvals[0]))
    err = np.array([radius, np.nextafter(radius, 0),
                    np.nextafter(radius, np.inf),
                    radius * (1 - 1e-9), radius * (1 + 1e-9),
                    radius * (1 - 1e-12), radius * (1 + 1e-12),
                    0.5 * radius, 2.0 * radius, 0.0])
    return P, q, err, radius


class TestCoverage:
    """monte_carlo's coverage err_norm <= conf_radius, decided from the
    bracket max |P_ii| <= |P|_2 <= |P|_F where it can be."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_bracket_cases())
    def test_bracket_and_fallback_equal_the_decomposition(self, case):
        P, q, err, radius = case
        Ps = np.repeat(P[None], len(err), axis=0)
        covered = harness._covered(_columns(Ps, err, q))
        assert covered.tolist() == (err <= radius).tolist()

    @pytest.mark.parametrize("attack", [None, AttackSignal.none()])
    def test_runs_decompose_few_steps_and_agree(self, uav_config,
                                                 monkeypatch, attack):
        rows, spectral_norms = [], harness._spectral_norms

        def counted(Ps):
            rows.append(len(Ps))
            return spectral_norms(Ps)
        monkeypatch.setattr(harness, "_spectral_norms", counted)
        config = uav_config if attack is None else replace(uav_config,
                                                           attack=attack)
        for seed in range(5):
            cols = run_scenario(replace(config, seed=seed)).columns
            assert not rows     # the guard: no |P|_F past 1e150
            covered = harness._covered(cols)
            assert covered.tolist() == (
                cols.err_norm <= cols.conf_radius).tolist()
            assert rows[0] < 0.05 * config.steps
            assert rows[1:] == [config.steps]   # conf_radius, on first read
            del rows[:]


class TestOverflowingCovariance:
    """Noise covariances near 1e306 keep P finite up to about 1.3e307 at step
    90 (seed 0), where the confidence radius sqrt(q |P|_2) overflows."""

    @pytest.fixture()
    def config(self, uav_config):
        m = uav_config.model
        return replace(uav_config, model=SystemModel(
            A=m.A, B=m.B, C_G=m.C_G, C_I=m.C_I, Sigma_w=2e305 * np.eye(4),
            Sigma_G=2e306 * np.eye(2), Sigma_I=2e306 * np.eye(2)), runs=3)

    def test_run_scenario_raises_at_the_step(self, config):
        with np.errstate(over="ignore", invalid="ignore"):
            cols = run_scenario(replace(config, steps=89)).columns
            with pytest.raises(NumericalError, match=(
                    "^run with seed 0: a value of step 90 is not finite$")):
                run_scenario(config)
        assert np.isfinite(cols.conf_radius).all()
        assert 1e307 < np.abs(cols.P[-1]).max() < np.inf

    def test_monte_carlo_raises_at_the_step(self, config):
        seed = derive_run_seed(config.seed, 0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match=(
                    f"^run with seed {seed}: a value of step 90 is not "
                    f"finite$")):
            monte_carlo(config)


def _batch_traces(config, monkeypatch, **kwargs):
    """Run a monte_carlo batch; return the trace of each of its runs, all
    on config.model, whose run state they share."""
    traces = []

    def recorded(*args, **kw):
        traces.append(run_scenario(*args, **kw))
        return traces[-1]
    monkeypatch.setattr(harness, "run_scenario", recorded)
    monte_carlo(config, **kwargs)
    monkeypatch.undo()
    assert all(t.config.model is config.model for t in traces)
    return traces


def _fresh(config):
    """config on an equal model of its own, which keeps no forms or run
    state yet."""
    return replace(config, model=SystemModel(**{
        name: getattr(config.model, name) for name in MATRIX_NAMES}))


def _assert_same_columns(got, want):
    for a, b in zip(run_columns(got.columns), run_columns(want.columns)):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


class TestCovarianceTrunk:
    """Runs of a model share the trunk it keeps, the normal stretch from
    P = 0 and its restarts, until their first alarms; sharing must not
    change one bit of any run."""

    @pytest.mark.parametrize("case", ["clean", "detector_off", "nan_spoof"])
    def test_batch_runs_equal_runs_on_a_fresh_shared(self, uav_config,
                                                     monkeypatch, case):
        # Each run against a run of its seed on a fresh model.
        config = replace(uav_config, attack=AttackSignal.none(), runs=25,
                         steps=200)
        if case == "nan_spoof":
            config = replace(config, runs=5, attack=AttackSignal(
                kind="custom-sequence", start_step=120,
                sequence=[np.full(2, np.nan)] * 81))
        enabled = case != "detector_off"
        traces = _batch_traces(config, monkeypatch, detector_enabled=enabled)
        assert len(traces) == config.runs
        on_trunk = 0
        for i, trace in enumerate(traces):
            fresh = run_scenario(_fresh(replace(
                config, seed=derive_run_seed(config.seed, i), runs=1)),
                detector_enabled=enabled)
            _assert_same_columns(trace, fresh)
            first = trace.first_alarm_step
            on_trunk += config.steps if first is None else first - 1
        # Later runs read what the first run to reach a row computed.
        assert on_trunk > len(trunk_rows(config.model))
        if case == "nan_spoof":
            assert all(t.first_alarm_step <= 120 for t in traces)

    def test_trunk_is_read_only_and_as_long_as_the_longest_stretch(
            self, uav_config, monkeypatch):
        config = replace(uav_config, attack=AttackSignal.none(), runs=25,
                         steps=200)
        traces = _batch_traces(config, monkeypatch)
        stretches = [config.steps if t.first_alarm_step is None
                     else t.first_alarm_step - 1 for t in traces]
        longest = max(stretches)
        # Chunks of 8, 8, 16, 32, ... rows: the trunk computed the rows up
        # to the first chunk end past the last prior a run read there (its
        # detector reads the prior of its alarm step too), and the longest
        # no-alarm stretch reads rows 1..longest as its P column.
        last = max(config.steps - 1 if t.first_alarm_step is None
                   else t.first_alarm_step - 1 for t in traces)
        trunk = trunk_rows(config.model)
        assert len(trunk) == max(8, 1 << last.bit_length())
        assert np.array_equal(
            trunk[:longest], traces[stretches.index(longest)].columns.P[:longest])
        # A NaN spoof keeps a run in emergency mode from its onset on.  Seed
        # 3 alarms at step 73 only, so it leaves the trunk there: its normal
        # and emergency stretches are its own, and the trunk gains no row.
        spoofed = run_scenario(replace(
            config, seed=3, runs=1, attack=AttackSignal(
                kind="custom-sequence", start_step=150,
                sequence=[np.full(2, np.nan)] * 51)))
        alarmed = spoofed.columns.alarmed
        assert np.flatnonzero(alarmed[:149]).tolist() == [72]
        assert alarmed[149:].all()
        assert trunk_rows(config.model).tobytes() == trunk.tobytes()
        # Every array a stretch or a triple table holds is read-only: the
        # stack of triples 1..8 and the powers, 2^k steps, each mode has.
        stacked = config.model._derived(StackedSensorForms)
        arrays = [a for s in trunk_stretches(config.model)
                  for a in (s.P, s.P_d_inv, s.F)]
        for mode in Mode:
            stack, powers, _ = stacked._table(mode)
            assert len(powers) >= 8
            arrays += stack + [a for power in powers for a in power]
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 0.0

    def test_P_column_is_the_stepped_states_bit_for_bit(self, uav_config):
        # The runner copies P once per stretch segment.  A kept state stepped
        # through fuse from the trunk with the run's alarms has the column's
        # P after every step; P depends on the modes only, so the readings
        # may be any finite values.  Seed 1 false-alarms at step 311 only,
        # so the run switches both ways and restarts stretches of both
        # modes at their row 256: the trunk, the normal one opened at step
        # 312 and the attack's emergency one.
        config = replace(uav_config, seed=1)
        cols = run_scenario(config).columns
        assert np.flatnonzero(cols.alarmed[:699]).tolist() == [310]
        assert cols.alarmed[699:].all()
        est = EstimatorState.initial(config.x0)
        est.stretch = config.model._derived(ScenarioShared).trunk
        u, y = np.ones(config.model.p), np.ones(config.model.m_G)
        restarts = []
        for i, alarmed in enumerate(cols.alarmed, 1):
            before, est.mode = est, Mode.EMERGENCY if alarmed else Mode.NORMAL
            est = fuse(est, config.model, u, y, y)
            if before.stretch is not est.stretch and est.row == 0:
                restarts.append(i)
            assert cols.P[i - 1].tobytes() == est.P.tobytes()
        assert restarts == [256, 311 + 256, 699 + 256]

    @pytest.mark.parametrize("steps", [200, 1000])
    def test_private_run_roots_no_chain(self, uav_config, steps):
        # A run reads only its own model's trunk: a run on an equal model of
        # its own builds another trunk, with the same rows, and the same
        # columns.
        config = replace(uav_config, steps=steps)
        kept = run_scenario(config)
        own = _fresh(config)
        private = run_scenario(own)
        assert config.model._derived(ScenarioShared).trunk is not \
            own.model._derived(ScenarioShared).trunk
        assert trunk_rows(own.model).tobytes() == \
            trunk_rows(config.model).tobytes()
        _assert_same_columns(private, kept)
        assert private.summary() == kept.summary()

    def test_trunk_restarts_every_256_rows(self, uav_config):
        # No triple past 256 steps is read: row j of the trunk's k-th
        # stretch is f^j of row 256 of the one before, bit for bit, so a
        # run's columns are those rows, and a second run adds no row.
        config = replace(uav_config, attack=AttackSignal.none(), steps=1000)
        trace = run_scenario(config, detector_enabled=False)
        stretches = trunk_stretches(config.model)
        assert [s._done for s in stretches] == [_STRETCH] * 4
        for before, after in zip(stretches, stretches[1:]):
            assert after.P[0].tobytes() == before.P[_STRETCH].tobytes()
        assert trace.columns.P.tobytes() == \
            trunk_rows(config.model)[:config.steps].tobytes()
        rows = trunk_rows(config.model)
        run_scenario(replace(config, seed=1), detector_enabled=False)
        assert trunk_rows(config.model).tobytes() == rows.tobytes()

    def test_trunk_ends_at_its_float_fixed_point(self, uav_config):
        # On paper_uav row 256 of the trunk's 9th stretch, from step 2048,
        # is its row 0 bit for bit, so that stretch is its own restart: a
        # detector-off run of any length keeps 9 trunk stretches, and its P
        # column is the rows of freshly opened restarts, bit for bit.
        config = replace(uav_config, attack=AttackSignal.none(), steps=5000)
        cols = run_scenario(config, detector_enabled=False).columns
        stretches = trunk_stretches(config.model)
        assert len(stretches) == 9
        assert stretches[-1].restart is stretches[-1]
        assert all(s.restart is not s for s in stretches[:-1])
        stacked, P_a, rows = config.model._derived(StackedSensorForms), \
            np.zeros((config.model.n,) * 2), []
        while len(rows) < config.steps:
            stretch = _Stretch(Mode.NORMAL, P_a, stacked)
            for j in range(_STRETCH):
                stretch._ready(j)
            rows.extend(stretch.P[1:])
            P_a = stretch.P[_STRETCH]
        assert cols.P.tobytes() == np.array(rows[:config.steps]).tobytes()

    def test_an_interrupted_chunk_is_computed_anew(self, uav_config,
                                                   monkeypatch):
        # The trunk's second chunk raises at its first inverse, after its
        # rows are written and before its P_d^{-1} and predictors are: the
        # chunk is not done, so the next run computes it again instead of
        # reading unwritten rows, and equals a run on a fresh model.
        calls, inverse = [], estimator._inverse

        def failing(a):
            calls.append(len(a))
            if len(calls) == 3:
                raise RuntimeError("interrupted")
            return inverse(a)
        config = replace(uav_config, attack=AttackSignal.none(), steps=50)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimator, "_inverse", failing)
            with pytest.raises(RuntimeError, match="^interrupted$"):
                run_scenario(config)
        assert calls == [8, 8, 8]
        assert [s._done for s in trunk_stretches(config.model)] == [8]
        _assert_same_columns(run_scenario(config),
                             run_scenario(_fresh(config)))

    def test_a_second_batch_computes_no_trunk_row_again(self, uav_config,
                                                        monkeypatch):
        # A batch after another on the model computes only trunk chunks
        # past the ones the first computed, and none when it is the same.
        chunks, extend = [], _Stretch._extend

        def counted(stretch):
            chunks.append((stretch, stretch._done))
            return extend(stretch)
        monkeypatch.setattr(_Stretch, "_extend", counted)
        config = replace(uav_config, runs=4, steps=300)
        batches = []
        for batch in (config, config, replace(config, seed=1, steps=600)):
            del chunks[:]
            monte_carlo(batch)
            trunk = trunk_stretches(config.model)
            batches.append([(trunk.index(s), lo) for s, lo in chunks
                            if s in trunk])
        assert batches[0] and batches[1] == []
        assert not set(batches[0]) & set(batches[2])


class TestDriftModelBatch:
    def test_batch_runs_equal_runs_on_a_fresh_shared(self, monkeypatch):
        # On a drift model dead reckoning reads the prior's inverse, which
        # the step keeps from its first use, so a run that alarms where an
        # earlier run fused normally reads the same inverse.
        model = random_invertible_model(np.random.default_rng(0))
        model = SystemModel(A=0.98 * model.A / np.abs(
            np.linalg.eigvals(model.A)).max(), B=model.B, C_G=model.C_G,
            C_I=model.C_I, Sigma_w=model.Sigma_w, Sigma_G=model.Sigma_G,
            Sigma_I=model.Sigma_I)
        config = ScenarioConfig(
            model=model, x0=np.zeros(model.n), target=np.zeros(model.p),
            attack=AttackSignal(kind="constant-bias",
                                d=np.full(model.m_G, 5.0), start_step=60),
            steps=120, runs=8)
        traces = _batch_traces(config, monkeypatch)
        first = [t.first_alarm_step for t in traces]
        assert not model._derived(StackedSensorForms).drift_free
        assert min(first) < max(first) == 60
        for i, trace in enumerate(traces):
            _assert_same_columns(trace, run_scenario(_fresh(replace(
                config, seed=derive_run_seed(config.seed, i), runs=1))))


class TestTrunkHits:
    def test_second_run_makes_no_solve_before_its_alarm(self, uav_config,
                                                         monkeypatch):
        # Seed 11: the first run never alarms and leaves a 200-step trunk;
        # the second first alarms at step 164.  Every step before it reads
        # its predictor, covariance and P_d^{-1} from the trunk.
        config = replace(uav_config, attack=AttackSignal.none(), runs=2,
                         steps=200, seed=11)
        calls, run_starts, before_alarm, traces = [], [], [], []

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        def recorded_fuse(est, *args):
            if (len(run_starts) == 2 and est.mode is Mode.EMERGENCY
                    and not before_alarm):
                before_alarm.append(calls[run_starts[1]:])
            return fuse(est, *args)

        def recorded_run(*args, **kwargs):
            run_starts.append(len(calls))
            traces.append(run_scenario(*args, **kwargs))
            return traces[-1]
        for module, name in ((np.linalg, "solve"), (estimator, "_inverse"),
                             (estimator, "_solve")):
            monkeypatch.setattr(module, name, counted(module, name))
        monkeypatch.setattr(harness, "fuse", recorded_fuse)
        monkeypatch.setattr(harness, "run_scenario", recorded_run)
        monte_carlo(config)
        monkeypatch.undo()
        assert [t.first_alarm_step for t in traces] == [None, 164]
        assert before_alarm == [[]]
        # The first run builds the model's forms (no solve), the normal
        # table (the one-step triple's solve, three stacked doublings to
        # triple 8, then one solve per power 16..128) and the trunk: per
        # chunk of rows, one stacked solve gives its rows, one stacked
        # inverse its P_d^{-1} and one its gains; a batch runs no drift
        # analysis.
        first_run = calls[run_starts[0]:run_starts[1]]
        chunks = [8, 16, 32, 64, 128, 256]
        assert len(trunk_rows(config.model)) == chunks[-1]
        assert first_run == ["solve"] + ["_solve"] * 3 + ["_solve"] * 4 \
            + ["_solve", "_inverse", "_inverse"] * len(chunks)


class TestNoJosephStep:
    @pytest.mark.parametrize("case", ["clean", "attacked", "nan spoof",
                                      "imu blind"])
    def test_runs_read_every_covariance_from_stretches(self, case, capsys,
                                                       monkeypatch):
        # A run and a batch on paper_uav (clean, attacked, NaN-spoofed from
        # the attack step) and on the IMU-blind config (clean, with its
        # false alarms) read every covariance, P_d^{-1} and predictor from
        # stretches, and analyze reads its fixed point and escape time from
        # the triples: from a fresh model on, none makes a Joseph update or
        # solves an optimal gain.
        path = IMU_BLIND_CONFIG if case == "imu blind" \
            else builtin_config_path()
        config = parse_config(path)
        if case == "clean":
            config = replace(config, attack=AttackSignal.none())
        elif case == "nan spoof":
            config = replace(config, attack=AttackSignal(
                kind="custom-sequence", start_step=700,
                sequence=[np.full(2, np.nan)] * 301))
        forbid_joseph_forms(monkeypatch)
        trace = run_scenario(config)
        batch = monte_carlo(replace(config, runs=3))
        assert main(["analyze", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["escape_time"] == \
            trace.summary()["escape_time"]
        detected = None if case in ("clean", "imu blind") else 700
        assert trace.attack_detection_step == detected
        assert [r.attack_detection_step for r in batch.runs] == [detected] * 3
        if case == "imu blind":
            assert trace.columns.alarmed.any()


class TestDetectorStatistic:
    """The runner's statistic is one float product d_hat^T W d_hat of the
    prior row's weight W; only a form outside [0, inf) goes to
    normalized_residual, the statistic's one definition."""

    def test_a_form_past_1e100_has_the_definitions_bits(self, uav_config):
        # A 1e120 constant bias from step 700: d_hat is the bias exactly,
        # and its form, about 1e240, is past normalized_residual's 1e100
        # scaling yet finite, so the product is used.  Seed 1 false-alarms
        # at step 311 only; a kept state stepped through fuse with the
        # run's alarms is the run's state before step 700, so it reads the
        # prior row's weight.
        config = replace(uav_config, seed=1, attack=AttackSignal(
            kind="constant-bias", d=np.full(2, 1e120), start_step=700))
        trace = run_scenario(config)
        S, alarmed = trace.columns.S, trace.columns.alarmed
        assert np.flatnonzero(alarmed[:699]).tolist() == [310]
        assert trace.attack_detection_step == 700
        assert np.isfinite(S).all() and 1e243 < S[699] < 2e243
        est = EstimatorState.initial(config.x0)
        est.stretch = config.model._derived(ScenarioShared).trunk
        ones = np.ones(config.model.m_G)
        for a in alarmed[:699]:
            est.mode = Mode.EMERGENCY if a else Mode.NORMAL
            est = fuse(est, config.model, ones, ones, ones)
        W = detector_weight(est, config.model._derived(StackedSensorForms))
        assert S[699] == 0.15 * S[698] + normalized_residual(
            np.full(2, 1e120), W)

    @pytest.mark.parametrize("spoof", [None, math.nan])
    def test_the_definition_is_called_off_the_product_only(
            self, uav_config, monkeypatch, spoof):
        # The shipped attacked run never calls it; a NaN spoof calls it
        # once per step from the onset, where it latches the alarm.
        calls, definition = [], harness.normalized_residual

        def counted(d_hat, W):
            calls.append(d_hat.copy())
            return definition(d_hat, W)
        monkeypatch.setattr(harness, "normalized_residual", counted)
        config = _spoofed(uav_config, spoof)
        trace = run_scenario(config)
        assert trace.attack_detection_step == 700
        if spoof is None:
            assert calls == []
        else:
            assert len(calls) == config.steps - config.attack_onset() == 301
            assert np.isnan(calls).all()
            assert (trace.columns.S[699:] == math.inf).all()


class TestRunStateOfItsOwnModel:
    """A run takes its forms and its run state from config.model, which
    keeps them: no call passes a second copy of either."""

    def test_no_call_takes_the_forms_or_a_batchs_run_state(self):
        assert list(inspect.signature(fuse).parameters) == [
            "est", "model", "u", "y_G", "y_I"]
        assert list(inspect.signature(run_scenario).parameters) == [
            "config", "detector_enabled"]
        assert "shared" not in inspect.signature(monte_carlo).parameters
        assert list(inspect.signature(_Stretch._ready).parameters) == [
            "self", "j"]
        assert list(inspect.signature(_Stretch._extend).parameters) == [
            "self"]
        assert not hasattr(ScenarioShared(make_uav_model()), "stacked")

    def test_a_run_holds_its_models_run_state(self, uav_config,
                                              monkeypatch):
        # Each run, alone or in a batch, runs on the one run state the
        # model keeps, with its lock held.
        held, simulate = [], harness._simulate

        def recorded(config, shared, detector_enabled):
            held.append((shared, shared.lock.locked()))
            return simulate(config, shared, detector_enabled)
        monkeypatch.setattr(harness, "_simulate", recorded)
        config = replace(uav_config, steps=10)
        run_scenario(config)
        monte_carlo(replace(config, runs=2))
        shared = config.model._derived(ScenarioShared)
        assert held == [(shared, True)] * 3
        assert not shared.lock.locked()

    def test_an_unused_model_is_freed_with_its_run_state(self):
        # Nothing a model keeps holds it, so once its run and escape analysis
        # are dropped it goes at once, trunk and forms with it, without
        # waiting for the cycle collector.
        config = replace(parse_config(builtin_config_path()), steps=800)
        assert run_scenario(config).escape is not None
        kept = [weakref.ref(config.model), weakref.ref(
            config.model._derived(ScenarioShared).trunk)]
        gc.disable()
        try:
            del config
            assert [ref() for ref in kept] == [None, None]
        finally:
            gc.enable()


class TestParseConfig:
    def test_shipped_config_matches_reference_model(self, uav_config):
        ref = make_uav_model()
        model = uav_config.model
        for name in ("A", "B", "C_G", "C_I", "Sigma_w", "Sigma_G", "Sigma_I"):
            np.testing.assert_array_equal(getattr(model, name),
                                          getattr(ref, name))
        assert uav_config.attack.kind == "constant-bias"
        assert uav_config.attack.start_step == 700
        np.testing.assert_array_equal(uav_config.attack.d, [100.0, 100.0])
        assert uav_config.detector.alpha == 0.01
        assert uav_config.detector.delta == 0.15
        assert uav_config.detector.threshold(uav_config.model.m_G) == \
            chi2_quantile(2, 0.01) / 0.85
        assert uav_config.steps == 1000
        assert uav_config.zeta_norm == 2.0

    def test_defaults_applied(self, tmp_path):
        with open(builtin_config_path(), "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        for key in ("x0", "seed", "steps", "runs", "zeta_norm",
                    "controller", "detector", "attack", "target"):
            raw.pop(key, None)
        path = tmp_path / "minimal.json"
        path.write_text(json.dumps(raw))
        config = parse_config(path)
        assert config.seed == 0
        assert config.steps == 1000
        assert config.runs == 1
        assert config.kp == 1.0 and config.kd == 2.0
        assert config.attack.kind == "none"
        np.testing.assert_array_equal(config.x0, np.zeros(4))

    def test_rejects_bad_forgetting_factor(self, tmp_path):
        with open(builtin_config_path(), "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["detector"]["delta"] = 1.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="forgetting factor"):
            parse_config(path)

    def test_rejects_unknown_key(self, tmp_path):
        with open(builtin_config_path(), "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["model"]["Q"] = [[1.0]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="unknown key 'model.Q'"):
            parse_config(path)

    def test_rejects_dimension_mismatch(self, tmp_path):
        with open(builtin_config_path(), "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["x0"] = [0.0, 0.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="x0"):
            parse_config(path)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config(path)

    def test_rejects_missing_model(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"steps": 10}))
        with pytest.raises(ConfigError, match="model"):
            parse_config(path)

    def test_rejects_attack_without_magnitude(self, tmp_path):
        with open(builtin_config_path(), "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        del raw["attack"]["d"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="attack.d"):
            parse_config(path)


class TestExportTrace:
    def test_csv_line_count_and_header(self, uav_config, tmp_path):
        trace = run_scenario(uav_config)
        path = tmp_path / "trace.csv"
        export_trace(trace, path, "csv")
        lines = path.read_text().splitlines()
        assert len(lines) == uav_config.steps + 1
        assert lines[0] == ("k,x1,x2,x3,x4,xhat1,xhat2,xhat3,xhat4,u1,u2,"
                            "S,mode,alarmed,trace_P,norm_P,conf_radius,err_norm")
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[12] == "normal"
        assert first[13] == "false"

    def test_json_round_trip_summary(self, uav_config, tmp_path):
        trace = run_scenario(uav_config)
        path = tmp_path / "trace.json"
        export_trace(trace, path, "json")
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert len(payload["records"]) == uav_config.steps
        summary = trace.summary()
        for key, value in summary.items():
            assert payload["summary"][key] == value
        assert payload["summary"]["escape_report"]["k_escape"] == \
            trace.escape.k_escape

    @pytest.mark.parametrize("spoof", [None, np.nan])
    def test_csv_bytes_match_per_value_format(self, uav_config, tmp_path,
                                              spoof):
        trace = run_scenario(_spoofed(uav_config, spoof))
        path = tmp_path / "trace.csv"
        export_trace(trace, path, "csv")

        def fmt(v):
            return format(float(v), ".17g")
        lines = [("k,x1,x2,x3,x4,xhat1,xhat2,xhat3,xhat4,u1,u2,"
                  "S,mode,alarmed,trace_P,norm_P,conf_radius,err_norm")]
        for rec in _step_dicts(trace.columns):
            lines.append(",".join(
                [str(rec["k"])]
                + [fmt(v) for v in (*rec["x"], *rec["x_hat"], *rec["u"])]
                + [fmt(rec["S"]), rec["mode"],
                   "true" if rec["alarmed"] else "false"]
                + [fmt(rec[key]) for key in ("trace_P", "norm_P",
                                             "conf_radius", "err_norm")]))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("spoof", [None, np.nan])
    def test_json_loads_to_records_and_summary(self, uav_config, tmp_path,
                                               spoof):
        trace = run_scenario(_spoofed(uav_config, spoof))
        path = tmp_path / "trace.json"
        export_trace(trace, path, "json")
        summary = trace.summary()
        summary["escape_report"] = dict(
            trace.escape.to_dict(),
            k_escape_from_alarm=trace.escape_time_from_alarm)
        expected = {"records": list(_step_dicts(trace.columns)),
                    "summary": summary}
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == expected
        # One record per line; a NaN spoof latches S = inf from step 700.
        lines = path.read_text().splitlines()
        assert lines[0] == '{"records": ['
        for k, line in enumerate(lines[1:uav_config.steps + 1], start=1):
            assert json.loads(line.rstrip(","))["k"] == k
        assert ('"S": Infinity' in lines[700]) == (spoof is not None)

    @pytest.mark.parametrize("spoof", [None, np.nan])
    def test_json_bytes_match_per_record_dumps(self, uav_config, tmp_path,
                                               spoof):
        # The reference writes each record dict, keys in the order of the CSV
        # columns, with its own json.dumps; a NaN spoof gives S = Infinity
        # from 700.
        trace = run_scenario(_spoofed(uav_config, spoof))
        path = tmp_path / "trace.json"
        export_trace(trace, path, "json")
        summary = trace.summary()
        summary["escape_report"] = dict(
            trace.escape.to_dict(),
            k_escape_from_alarm=trace.escape_time_from_alarm)
        records = [json.dumps(rec) for rec in _step_dicts(trace.columns)]
        expected = ('{"records": [\n' + ",\n".join(records)
                    + '\n], "summary": ' + json.dumps(summary, indent=2)
                    + "}\n")
        assert path.read_bytes() == expected.encode()
        assert ('"S": Infinity' in records[699]) == (spoof is not None)

    def test_conf_radius_column_is_reproducible(self, uav_config):
        config = replace(uav_config, steps=200)
        trace = run_scenario(config)
        cols = trace.columns
        q = chi2_quantile(config.model.n, config.detector.alpha)
        for conf_radius, P in zip(cols.conf_radius.tolist(), cols.P):
            assert conf_radius == math.sqrt(q * spectral_norm(P))

    def test_rejects_unknown_format(self, uav_config, tmp_path):
        trace = run_scenario(replace(uav_config, steps=5))
        with pytest.raises(ValueError, match="format"):
            export_trace(trace, tmp_path / "x.bin", "parquet")


def _csv_rows(trace, tmp_path):
    """The trace's CSV export read back, one dict per step."""
    path = tmp_path / "trace.csv"
    export_trace(trace, path, "csv")
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _step_dicts(cols):
    """Each step's values from the run's columns as Python objects, keyed
    and ordered as a JSON trace record."""
    for i, alarmed in enumerate(cols.alarmed.tolist()):
        yield {"k": i + 1, "x": cols.x[i].tolist(),
               "x_hat": cols.x_hat[i].tolist(),
               "u": cols.u[i].tolist(), "S": float(cols.S[i]),
               "mode": "emergency" if alarmed else "normal",
               "alarmed": alarmed, "trace_P": float(cols.trace_P[i]),
               "norm_P": float(cols.norm_P[i]),
               "conf_radius": float(cols.conf_radius[i]),
               "err_norm": float(cols.err_norm[i])}


def _spoofed(config, spoof):
    """config unchanged, or with a constant custom-sequence spoof from 700."""
    if spoof is None:
        return config
    return replace(config, attack=AttackSignal(
        kind="custom-sequence", start_step=700,
        sequence=[np.full(2, spoof)] * (config.steps - 699)))


class TestModelKeepsItsAnalyses:
    def test_a_model_builds_each_table_once(self, uav_config, monkeypatch):
        # Runs, their summaries and escapes from the alarm,
        # and direct analyses of one model read one set of tables: one
        # one-step triple per mode.  Before the model kept its forms, each
        # run built its own.
        built, original = [], estimator._riccati_triple

        def counted(model, stacked, first):
            built.append(first)
            return original(model, stacked, first)
        monkeypatch.setattr(estimator, "_riccati_triple", counted)
        model = uav_config.model
        for seed in (0, 1):
            trace = run_scenario(replace(uav_config, seed=seed))
            assert trace.summary()["escape_time"] == 291
            assert trace.escape_time_from_alarm is not None
        assert escape_report(model, 2.0, 0.01).k_escape == 291
        assert drift_matrices(model).drift_free
        assert sorted(built) == [0, model.m_G]


class TestSharedAnalysisIsReadOnly:
    """The model keeps its stationary covariance and drift analysis, which
    every run of it reads."""

    def test_a_run_cannot_change_the_next_runs_escape(self, uav_config):
        # Before the shared results were read-only, the in-place product
        # made the next run on the shared report escape time 0.
        model = uav_config.model
        first = run_scenario(uav_config)
        assert first.escape.stationary_P is model._derived(
            analysis.stationary_covariance)
        with pytest.raises(ValueError, match="read-only"):
            first.escape.stationary_P *= 100
        drift = model._derived(analysis.drift_matrices)
        for name in ("C_bar_I", "L", "A_bar", "Sigma_bar"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(drift, name)[...] = 0.0
        with pytest.raises(FrozenInstanceError):
            drift.drift_free = False
        second = run_scenario(replace(uav_config, seed=1))
        assert second.summary()["escape_time"] == 291

    def test_shared_results_cannot_be_rebound(self, uav_config):
        # Before they were read-only properties, stationary_P = 100 I made
        # the next run on the shared report escape time 0.  The model keeps
        # its results and cannot be assigned to; its run state holds none
        # of them.
        model = uav_config.model
        shared = model._derived(ScenarioShared)
        first = model._derived(analysis.stationary_covariance)
        for name in ("_memo", "A"):
            with pytest.raises(FrozenInstanceError):
                setattr(model, name, {})
        for name in ("stationary_P", "drift", "escape"):
            assert not hasattr(shared, name)
        run = run_scenario(replace(uav_config, seed=1))
        assert run.summary()["escape_time"] == 291
        assert run.escape.stationary_P is first
        assert not hasattr(run, "shared")

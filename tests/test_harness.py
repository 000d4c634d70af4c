import json
from dataclasses import replace

import numpy as np
import pytest

from spoofguard import (AttackSignal, ConfigError, EstimatorState, Mode,
                        NumericalError, PlantState, builtin_config_path,
                        confidence_bound, cusum_update, derive_run_seed,
                        export_trace, fuse, harness, measure_gps, measure_imu,
                        monte_carlo, parse_config, pd_control, residual,
                        residual_covariance, run_scenario, step_dynamics)

from spoofguard.estimator import _innovation_system

from conftest import make_uav_model


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
    def test_paper_scenario_alarm_latency(self, uav_config, uav_shared):
        trace = run_scenario(uav_config, shared=uav_shared)
        # Noise can trip transient alarms before the attack; the detection
        # latency is measured from the attack onset.
        assert 700 <= trace.attack_detection_step <= 703
        assert trace.first_alarm_step <= trace.attack_detection_step
        rec = trace.records[trace.attack_detection_step - 1]
        assert rec.alarmed and rec.mode == "emergency"

    def test_record_count_and_initial_mode(self, uav_config, uav_shared):
        trace = run_scenario(uav_config, shared=uav_shared)
        assert len(trace.records) == uav_config.steps
        assert trace.records[0].k == 1
        assert trace.records[0].mode == "normal"

    def test_alarmed_steps_ran_in_emergency(self, uav_config, uav_shared):
        trace = run_scenario(uav_config, shared=uav_shared)
        for rec in trace.records:
            assert rec.mode == ("emergency" if rec.alarmed else "normal")

    def test_spoofed_gps_never_touches_estimate(self, uav_config, uav_shared):
        # Identical streams, wildly different attack magnitudes: once both
        # runs alarm (same step, deterministic), the estimates must coincide
        # bit for bit because emergency mode never reads the GPS innovation.
        big = replace(uav_config,
                      attack=AttackSignal(kind="constant-bias",
                                          d=[1e6, 1e6], start_step=700))
        t1 = run_scenario(uav_config, shared=uav_shared)
        t2 = run_scenario(big, shared=uav_shared)
        assert t1.attack_detection_step == t2.attack_detection_step == 700
        assert t1.first_alarm_step == t2.first_alarm_step
        for r1, r2 in zip(t1.records, t2.records):
            assert np.array_equal(r1.x_hat, r2.x_hat)
            assert np.array_equal(r1.x, r2.x)

    def test_non_finite_spoof_forces_emergency(self, uav_config, uav_shared):
        # A NaN or infinite GPS reading alarms on its step and latches the
        # alarm; the estimate stays finite and equals the finite-spoof run's.
        traces = [run_scenario(replace(uav_config, attack=AttackSignal(
            kind="custom-sequence", start_step=700,
            sequence=[np.full(2, v)] * 301)), shared=uav_shared)
            for v in (1e6, np.nan, np.inf, -np.inf)]
        for trace in traces:
            assert trace.attack_detection_step == 700
            assert trace.columns.alarmed[699:].all()
            assert np.array_equal(trace.columns.x_hat, traces[0].columns.x_hat)
            assert np.isfinite(trace.columns.x_hat).all()

    def test_non_finite_estimate_raises(self, uav_config, uav_shared):
        config = replace(uav_config, x0=np.full(4, 1e308), steps=10)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match="not finite"):
            run_scenario(config, shared=uav_shared)

    def test_run_matches_public_step_functions(self, uav_config, uav_shared):
        # The public step functions, stepped in a plain loop, are the
        # reference for the runner, which inlines the plant, the
        # measurements and the detector: the same alarms on every step,
        # states and statistics equal to roundoff.
        config = replace(uav_config, steps=720)
        model, det = config.model, config.detector
        trace = run_scenario(config, shared=uav_shared)
        samplers = (uav_shared.sampler_w, uav_shared.sampler_G,
                    uav_shared.sampler_I)
        rngs = [np.random.default_rng(s)
                for s in np.random.SeedSequence(config.seed).spawn(3)]
        plant = PlantState.initial(config.x0)
        est = EstimatorState.initial(config.x0)
        S, threshold = 0.0, det.threshold()
        for rec in trace.records:
            w, v_G, v_I = (s.sample(rng) for s, rng in zip(samplers, rngs))
            u = pd_control(est.x_hat, config.target, config.kp, config.kd)
            plant = step_dynamics(model, plant, u, w)
            y_G = measure_gps(model, plant, config.attack, v_G)
            y_I = measure_imu(model, plant, v_I)
            S = cusum_update(S, residual(y_G, est.x_hat, u, model),
                             residual_covariance(est.P, model), det.delta)
            mode = Mode.EMERGENCY if S > threshold else Mode.NORMAL
            est = fuse(replace(est, mode=mode), model, uav_shared.stacked,
                       u, y_G, y_I)
            assert rec.mode == mode.value
            np.testing.assert_allclose(rec.x, plant.x, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(rec.x_hat, est.x_hat,
                                       rtol=1e-9, atol=1e-12)
            assert rec.S == pytest.approx(S, rel=1e-9, abs=1e-12)
            assert rec.conf_radius == pytest.approx(
                confidence_bound(est.P, det.alpha, model.n), rel=1e-9)
        assert trace.attack_detection_step == 700

    def test_detector_covariance_is_the_innovation_block(self, uav_config,
                                                        uav_shared):
        # The runner's detector reads P_d as the GPS-GPS block of the
        # estimator's innovation covariance, for the prior of every step.
        trace = run_scenario(uav_config, shared=uav_shared)
        model = uav_config.model
        priors = [np.zeros((model.n, model.n))] + list(trace.columns.P[:-1])
        for P in priors:
            block = _innovation_system(P, uav_shared.stacked)[0][:2, :2]
            reference = residual_covariance(P, model)
            assert np.linalg.norm(block - reference) <= \
                1e-14 * np.linalg.norm(reference)

    def test_deterministic_given_seed(self, uav_config, uav_shared, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_trace(run_scenario(uav_config, shared=uav_shared), a, "csv")
        export_trace(run_scenario(uav_config, shared=uav_shared), b, "csv")
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_trace(self, uav_config, uav_shared):
        t1 = run_scenario(uav_config, shared=uav_shared)
        t2 = run_scenario(replace(uav_config, seed=1), shared=uav_shared)
        assert not np.array_equal(t1.records[10].x, t2.records[10].x)

    def test_no_attack_stays_normal(self, uav_config, uav_shared):
        config = replace(uav_config, attack=AttackSignal.none(), steps=10_000)
        trace = run_scenario(config, shared=uav_shared)
        normal = sum(rec.mode == "normal" for rec in trace.records)
        assert normal >= 0.99 * config.steps
        assert trace.first_alarm_step is None or trace.escape is not None

    def test_detector_disabled_divergence(self, uav_config, uav_shared):
        # Without the detector the spoofed GPS drags the true position to
        # target minus the bias while the estimate still reports the target.
        config = replace(uav_config, steps=2500)
        trace = run_scenario(config, detector_enabled=False, shared=uav_shared)
        assert trace.first_alarm_step is None
        goal = np.array([10.0, 10.0, 0.0, 0.0])
        for rec in trace.records[2000:]:
            assert np.all(np.abs(rec.x[:2] - (-90.0)) <= 5.0)
            assert np.linalg.norm(rec.x_hat - goal) <= 1.0

    def test_escape_report_attached_on_alarm(self, uav_config, uav_shared):
        trace = run_scenario(uav_config, shared=uav_shared)
        assert trace.escape is not None
        assert 285 <= trace.escape.k_escape <= 295
        assert trace.escape_time_from_alarm is not None
        summary = trace.summary()
        assert summary["attack_detection_step"] == 700
        assert summary["detectable_gps"] is True
        assert summary["detectable_drift_pair"] is False


class TestMonteCarlo:
    def test_single_run_matches_derived_seed(self, uav_config, uav_shared):
        config = replace(uav_config, runs=1, steps=400)
        batch = monte_carlo(config, shared=uav_shared)
        direct = run_scenario(
            replace(config, seed=derive_run_seed(config.seed, 0)),
            shared=uav_shared)
        assert batch.runs[0].seed == derive_run_seed(config.seed, 0)
        assert batch.runs[0].first_alarm_step == direct.first_alarm_step
        errors = np.array([rec.x - rec.x_hat for rec in direct.records])
        np.testing.assert_array_equal(batch.mean_error, errors)

    def test_run_result_does_not_depend_on_its_batch(self, uav_config,
                                                      uav_shared):
        # Every run of a multi-run batch equals run_scenario with its
        # derived seed bit for bit.
        config = replace(uav_config, runs=5, steps=720)
        batch = monte_carlo(config, shared=uav_shared)
        for i, run in enumerate(batch.runs):
            direct = run_scenario(
                replace(config, seed=derive_run_seed(config.seed, i), runs=1),
                shared=uav_shared)
            covered = [rec.err_norm <= rec.conf_radius for rec in direct.records]
            assert run.first_alarm_step == direct.first_alarm_step
            assert run.attack_detection_step == direct.attack_detection_step
            assert run.covered_steps == sum(covered)
            assert run.covered_post_attack == sum(covered[699:])
            assert run.final_err_norm == direct.records[-1].err_norm

    def test_batch_skips_the_unreported_escape_time(self, uav_config,
                                                     uav_shared, monkeypatch):
        # RunSummary does not report the escape time from the alarm, so a
        # batch never computes it; a single run computes it on access.
        def not_called(*args, **kwargs):
            raise AssertionError("escape_time was called")
        monkeypatch.setattr(harness, "escape_time", not_called)
        batch = monte_carlo(replace(uav_config, runs=2, steps=710),
                            shared=uav_shared)
        assert [run.attack_detection_step for run in batch.runs] == [700, 700]
        trace = run_scenario(replace(uav_config, steps=710), shared=uav_shared)
        with pytest.raises(AssertionError, match="escape_time was called"):
            trace.escape_time_from_alarm

    def test_attacked_batch_coverage(self, uav_config, uav_shared):
        config = replace(uav_config, runs=10)
        batch = monte_carlo(config, shared=uav_shared)
        assert batch.attack_start == 700
        for run in batch.runs:
            assert run.post_attack_steps == config.steps - 700 + 1
            assert run.covered_post_attack >= 0.95 * run.post_attack_steps
        assert batch.coverage_post_attack() >= 0.95

    def test_no_attack_coverage_aggregate(self, uav_config, uav_shared):
        config = replace(uav_config, attack=AttackSignal.none(),
                         runs=100, steps=500)
        batch = monte_carlo(config, shared=uav_shared)
        assert batch.coverage_post_attack() is None
        covered = sum(r.covered_steps for r in batch.runs)
        assert covered >= 0.95 * config.runs * config.steps

    def test_rejects_nonpositive_runs(self, uav_config):
        with pytest.raises(ConfigError):
            monte_carlo(replace(uav_config, runs=0))


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
        assert uav_config.detector.df == 2
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
    def test_csv_line_count_and_header(self, uav_config, uav_shared, tmp_path):
        trace = run_scenario(uav_config, shared=uav_shared)
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

    def test_json_round_trip_summary(self, uav_config, uav_shared, tmp_path):
        trace = run_scenario(uav_config, shared=uav_shared)
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
    def test_csv_bytes_match_per_value_format(self, uav_config, uav_shared,
                                              tmp_path, spoof):
        trace = run_scenario(_spoofed(uav_config, spoof), shared=uav_shared)
        path = tmp_path / "trace.csv"
        export_trace(trace, path, "csv")

        def fmt(v):
            return format(float(v), ".17g")
        lines = [("k,x1,x2,x3,x4,xhat1,xhat2,xhat3,xhat4,u1,u2,"
                  "S,mode,alarmed,trace_P,norm_P,conf_radius,err_norm")]
        for rec in trace.records:
            lines.append(",".join(
                [str(rec.k)] + [fmt(v) for v in (*rec.x, *rec.x_hat, *rec.u)]
                + [fmt(rec.S), rec.mode, "true" if rec.alarmed else "false"]
                + [fmt(v) for v in (rec.trace_P, rec.norm_P,
                                    rec.conf_radius, rec.err_norm)]))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("spoof", [None, np.nan])
    def test_json_loads_to_records_and_summary(self, uav_config, uav_shared,
                                               tmp_path, spoof):
        trace = run_scenario(_spoofed(uav_config, spoof), shared=uav_shared)
        path = tmp_path / "trace.json"
        export_trace(trace, path, "json")
        summary = trace.summary()
        summary["escape_report"] = dict(
            trace.escape.to_dict(),
            k_escape_from_alarm=trace.escape_time_from_alarm)
        expected = {"records": [{
            "k": rec.k, "x": rec.x.tolist(), "x_hat": rec.x_hat.tolist(),
            "u": rec.u.tolist(), "S": rec.S, "mode": rec.mode,
            "alarmed": rec.alarmed, "trace_P": rec.trace_P,
            "norm_P": rec.norm_P, "conf_radius": rec.conf_radius,
            "err_norm": rec.err_norm} for rec in trace.records],
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
    def test_json_bytes_match_per_record_dumps(self, uav_config, uav_shared,
                                               tmp_path, spoof):
        # The reference writes each record dict, in StepRecord field order,
        # with its own json.dumps; a NaN spoof gives S = Infinity from 700.
        trace = run_scenario(_spoofed(uav_config, spoof), shared=uav_shared)
        path = tmp_path / "trace.json"
        export_trace(trace, path, "json")
        summary = trace.summary()
        summary["escape_report"] = dict(
            trace.escape.to_dict(),
            k_escape_from_alarm=trace.escape_time_from_alarm)
        records = [json.dumps({
            "k": rec.k, "x": rec.x.tolist(), "x_hat": rec.x_hat.tolist(),
            "u": rec.u.tolist(), "S": rec.S, "mode": rec.mode,
            "alarmed": rec.alarmed, "trace_P": rec.trace_P,
            "norm_P": rec.norm_P, "conf_radius": rec.conf_radius,
            "err_norm": rec.err_norm}) for rec in trace.records]
        expected = ('{"records": [\n' + ",\n".join(records)
                    + '\n], "summary": ' + json.dumps(summary, indent=2)
                    + "}\n")
        assert path.read_bytes() == expected.encode()
        assert ('"S": Infinity' in records[699]) == (spoof is not None)

    def test_records_built_on_first_access(self, uav_config, uav_shared,
                                           monkeypatch):
        trace = run_scenario(replace(uav_config, steps=20), shared=uav_shared)
        assert "records" not in vars(trace)
        assert [rec.k for rec in trace.records] == list(range(1, 21))
        assert "records" in vars(trace)
        np.testing.assert_array_equal(trace.records[4].x, trace.columns.x[4])

        def not_built(trace):
            raise AssertionError("records were built")
        monkeypatch.setattr(harness.ScenarioTrace, "records",
                            property(not_built))
        monte_carlo(replace(uav_config, runs=2, steps=20), shared=uav_shared)

    def test_conf_radius_column_is_reproducible(self, uav_config, uav_shared):
        config = replace(uav_config, steps=200)
        trace = run_scenario(config, shared=uav_shared)
        for rec, P in zip(trace.records, trace.columns.P):
            assert rec.conf_radius == confidence_bound(
                P, config.detector.alpha, config.model.n)

    def test_rejects_unknown_format(self, uav_config, uav_shared, tmp_path):
        trace = run_scenario(replace(uav_config, steps=5), shared=uav_shared)
        with pytest.raises(ValueError, match="format"):
            export_trace(trace, tmp_path / "x.bin", "parquet")


def _spoofed(config, spoof):
    """config unchanged, or with a constant custom-sequence spoof from 700."""
    if spoof is None:
        return config
    return replace(config, attack=AttackSignal(
        kind="custom-sequence", start_step=700,
        sequence=[np.full(2, spoof)] * (config.steps - 699)))

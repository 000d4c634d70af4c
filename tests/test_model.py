import json
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from spoofguard import (AttackSignal, ConfigError, GaussianSampler, PlantState,
                        ScenarioShared, StackedSensorForms, SystemModel,
                        builtin_config_path, drift_matrices,
                        escape_report, measure_gps, measure_imu, run_scenario,
                        step_dynamics, validate_model)
from spoofguard.cli import main
from spoofguard.model import MATRIX_NAMES, _transition_inverse

from conftest import make_uav_model


class TestStepDynamics:
    def test_zero_fixed_point(self, uav_model):
        state = PlantState.initial(np.zeros(4))
        out = step_dynamics(uav_model, state, np.zeros(2), np.zeros(4))
        assert np.array_equal(out.x, np.zeros(4))
        assert out.k == 1

    def test_velocity_advances_position(self, uav_model):
        # A maps [0, 0, 1, 0] to [0.01, 0, 1, 0] at the 0.01 s sampling time.
        state = PlantState.initial([0.0, 0.0, 1.0, 0.0])
        out = step_dynamics(uav_model, state, np.zeros(2), np.zeros(4))
        np.testing.assert_allclose(out.x, [0.01, 0.0, 1.0, 0.0], atol=1e-15)

    def test_input_enters_velocity(self, uav_model):
        state = PlantState.initial(np.zeros(4))
        out = step_dynamics(uav_model, state, [1.0, 0.0], np.zeros(4))
        np.testing.assert_allclose(out.x, [0.0, 0.0, 0.01, 0.0], atol=1e-15)

    def test_tracks_previous_state(self, uav_model):
        state = PlantState.initial([1.0, 2.0, 3.0, 4.0])
        out = step_dynamics(uav_model, state, np.zeros(2), np.zeros(4))
        assert np.array_equal(out.x_prev, state.x)
        out2 = step_dynamics(uav_model, out, np.zeros(2), np.zeros(4))
        assert np.array_equal(out2.x_prev, out.x)

    def test_rejects_dimension_mismatch(self, uav_model):
        state = PlantState.initial(np.zeros(4))
        with pytest.raises(ValueError):
            step_dynamics(uav_model, state, np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            step_dynamics(uav_model, state, np.zeros(2), np.zeros(5))

    def test_noise_free_iteration_matches_matrix_power(self, uav_model):
        x0 = np.array([1.0, -2.0, 0.5, 0.25])
        state = PlantState.initial(x0)
        for _ in range(100):
            state = step_dynamics(uav_model, state, np.zeros(2), np.zeros(4))
        expected = np.linalg.matrix_power(uav_model.A, 100) @ x0
        np.testing.assert_allclose(state.x, expected, atol=1e-12)


class TestMeasurements:
    def test_gps_reads_position(self, uav_model):
        state = PlantState.initial([1.0, 2.0, 0.0, 0.0])
        y = measure_gps(uav_model, state, AttackSignal.none(), np.zeros(2))
        np.testing.assert_allclose(y, [1.0, 2.0])

    def test_gps_bias_injection(self, uav_model):
        state = PlantState.initial(np.zeros(4))
        attack = AttackSignal(kind="constant-bias", d=[100.0, 100.0], start_step=0)
        y = measure_gps(uav_model, state, attack, np.zeros(2))
        np.testing.assert_allclose(y, [100.0, 100.0])

    def test_gps_zero_case(self, uav_model):
        state = PlantState.initial(np.zeros(4))
        y = measure_gps(uav_model, state, AttackSignal.none(), np.zeros(2))
        np.testing.assert_allclose(y, [0.0, 0.0])

    def test_bias_respects_start_step(self, uav_model):
        attack = AttackSignal(kind="constant-bias", d=[7.0, -3.0], start_step=5)
        x = np.array([1.0, 1.0, 0.0, 0.0])
        for k in range(12):
            state = PlantState(x=x, x_prev=x, k=k)
            y = measure_gps(uav_model, state, attack, np.zeros(2))
            if k < 5:
                np.testing.assert_allclose(y, [1.0, 1.0])
            else:
                np.testing.assert_allclose(y, [8.0, -2.0])

    def test_imu_zero_difference(self, uav_model):
        x = np.array([5.0, 5.0, 1.0, 1.0])
        state = PlantState(x=x, x_prev=x.copy(), k=1)
        np.testing.assert_allclose(
            measure_imu(uav_model, state, np.zeros(2)), [0.0, 0.0])

    def test_imu_ignores_position_change(self, uav_model):
        state = PlantState(x=np.array([0.01, 0.0, 0.0, 0.0]),
                           x_prev=np.zeros(4), k=1)
        np.testing.assert_allclose(
            measure_imu(uav_model, state, np.zeros(2)), [0.0, 0.0])

    def test_imu_reads_velocity_change(self, uav_model):
        state = PlantState(x=np.array([0.0, 0.0, 0.5, -0.5]),
                           x_prev=np.zeros(4), k=1)
        np.testing.assert_allclose(
            measure_imu(uav_model, state, np.zeros(2)), [0.5, -0.5])


class TestAttackSignal:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            AttackSignal(kind="pulse")

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            AttackSignal(kind="constant-bias", d=[1.0], start_step=-1)

    def test_ramp_grows_linearly(self):
        attack = AttackSignal(kind="ramp", d=[2.0], start_step=10)
        assert attack.signal_at(9, 1) == pytest.approx([0.0])
        assert attack.signal_at(10, 1) == pytest.approx([0.0])
        assert attack.signal_at(13, 1) == pytest.approx([6.0])

    def test_custom_sequence(self):
        attack = AttackSignal(kind="custom-sequence", start_step=2,
                              sequence=[[1.0], [2.0]])
        assert attack.signal_at(0, 1) == pytest.approx([0.0])
        assert attack.signal_at(2, 1) == pytest.approx([1.0])
        assert attack.signal_at(3, 1) == pytest.approx([2.0])

    def test_custom_sequence_exhausted(self):
        attack = AttackSignal(kind="custom-sequence", start_step=0,
                              sequence=[[1.0]])
        attack.check(1, 0)
        with pytest.raises(ConfigError, match=(
                r"^attack.sequence: has 1 entries, but steps 0..1 need 2$")):
            attack.check(1, 1)

    @pytest.mark.parametrize("kind", ["none", "constant-bias", "ramp",
                                      "custom-sequence"])
    def test_range_equals_the_per_step_rule_bit_for_bit(self, kind):
        rng = np.random.default_rng(5)
        sequence = rng.normal(size=(20, 2))
        sequence[3] = [np.nan, -0.0]
        attack = AttackSignal(kind=kind, d=[-1.5, 0.3], start_step=5,
                              sequence=list(sequence))

        def per_step(k):        # the class docstring's rule for step k
            if kind == "none" or k < 5:
                return np.zeros(2)
            if kind == "constant-bias":
                return attack.d
            if kind == "ramp":
                return (k - 5) * attack.d
            return attack.sequence[k - 5]
        for first, stop in ((0, 25), (1, 5), (5, 6), (7, 25), (24, 25),
                            (9, 9)):
            rows = attack.signal_range(first, stop, 2)
            assert rows.shape == (stop - first, 2)
            for k, row in zip(range(first, stop), rows):
                assert row.tobytes() == per_step(k).tobytes()
                assert attack.signal_at(k, 2).tobytes() == row.tobytes()

    @pytest.mark.parametrize("steps, needed", [(25, 21), (30, 26), (24, None)])
    def test_check_names_the_steps_the_sequence_must_cover(self, steps,
                                                           needed):
        # 20 entries from step 5 cover steps 5..24.
        attack = AttackSignal(kind="custom-sequence", start_step=5,
                              sequence=[[1.0]] * 20)
        if needed is None:
            attack.check(1, steps)
            return
        with pytest.raises(ConfigError, match=(
                f"^attack.sequence: has 20 entries, but steps 5..{steps} "
                f"need {needed}$")):
            attack.check(1, steps)

    def test_magnitude_dimension_checked(self):
        attack = AttackSignal(kind="constant-bias", d=[1.0, 2.0, 3.0])
        with pytest.raises(ConfigError, match=(
                r"^attack.d: has shape \(3,\), expected \(2,\)$")):
            attack.check(2, 10)


class TestGaussianSampler:
    def test_zero_covariance_returns_zero(self):
        sampler = GaussianSampler(np.zeros((3, 3)))
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert np.array_equal(sampler.sample(rng), np.zeros(3))

    def test_deterministic_given_stream_state(self):
        sampler = GaussianSampler(0.5 * np.eye(2))
        a = sampler.sample(np.random.default_rng(42))
        b = sampler.sample(np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_empirical_covariance(self):
        sigma = 1e-4 * np.eye(4)
        sampler = GaussianSampler(sigma)
        rng = np.random.default_rng(7)
        draws = np.array([sampler.sample(rng) for _ in range(100_000)])
        emp = np.cov(draws.T)
        rel = np.linalg.norm(emp - sigma) / np.linalg.norm(sigma)
        assert rel < 0.05

    def test_empirical_mean_near_zero(self):
        sigma = 1e-4 * np.eye(4)
        sampler = GaussianSampler(sigma)
        rng = np.random.default_rng(11)
        n = 100_000
        draws = np.array([sampler.sample(rng) for _ in range(n)])
        bound = 4.0 * np.sqrt(np.linalg.norm(sigma, 2) / n)
        assert np.all(np.abs(draws.mean(axis=0)) <= bound)

    def test_correlated_covariance_reproduced(self):
        sigma = np.array([[2.0, 0.8], [0.8, 1.0]])
        sampler = GaussianSampler(sigma)
        rng = np.random.default_rng(3)
        draws = np.array([sampler.sample(rng) for _ in range(50_000)])
        emp = np.cov(draws.T)
        assert np.linalg.norm(emp - sigma) / np.linalg.norm(sigma) < 0.05

    @pytest.mark.parametrize("sigma", [np.array([[2.0, 0.8], [0.8, 1.0]]),
                                       1e-4 * np.eye(4), np.zeros((3, 3)),
                                       np.zeros((0, 0))])
    def test_out_holds_the_draw_of_an_equal_generator(self, sigma):
        # out may be a view, as the runner's operand slices are; the draw
        # and the stream's state are those of a call without out.
        sampler, dim = GaussianSampler(sigma), len(sigma)
        rng_out, rng = np.random.default_rng(23), np.random.default_rng(23)
        operand = np.full(dim + 3, np.nan)
        out = operand[1:dim + 1]
        for _ in range(4):
            assert sampler.sample(rng_out, out=out) is out
            assert out.tobytes() == sampler.sample(rng).tobytes()
            assert np.isnan(operand[[0, -2, -1]]).all()
        assert rng_out.bit_generator.state == rng.bit_generator.state
        assert out.shape == (dim,)

    @pytest.mark.parametrize("sigma", [np.array([[2.0, 0.8], [0.8, 1.0]]),
                                       1e-4 * np.eye(4)])
    def test_scratch_draw_is_the_fresh_draws(self, sigma):
        # The standard normals go into the sampler's scratch array: with or
        # without out, a draw is the factor times a fresh standard_normal(dim)
        # of a twin generator, bit for bit, and sample(rng) returns a new
        # array each call, so the scratch never escapes.
        sampler = GaussianSampler(sigma)
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        out = np.empty(len(sigma))
        for _ in range(3):
            for draw in (sampler.sample(rng, out=out), sampler.sample(rng)):
                want = sampler._factor.dot(twin.standard_normal(len(sigma)))
                assert draw.tobytes() == want.tobytes()
        first, second = sampler.sample(rng), sampler.sample(rng)
        assert first is not second and not np.shares_memory(first, second)
        assert not np.array_equal(first, second)
        assert not np.shares_memory(first, sampler._draw)

    def test_dimension_zero_draws_are_empty(self):
        sampler = GaussianSampler(np.zeros((0, 0)))
        assert sampler.sample(np.random.default_rng(0)).shape == (0,)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            GaussianSampler(np.array([[1.0, 0.0], [0.0, -0.5]]))

    def test_clamps_tiny_negative_eigenvalues(self):
        sigma = np.eye(2) * 1e-6
        sigma[0, 0] = -1e-14  # numerically zero, inside the clamp tolerance
        sampler = GaussianSampler(sigma)
        rng = np.random.default_rng(0)
        sampler.sample(rng)


class TestSystemModel:
    @pytest.mark.parametrize("name", [*MATRIX_NAMES, "n", "p", "m_G", "m_I"])
    def test_every_attribute_fails_at_assignment(self, name):
        # Before SystemModel was frozen, model.A = zeros replaced a parsed
        # config's transition and skipped validate_model.
        model = make_uav_model()
        before = getattr(model, name)
        with pytest.raises(FrozenInstanceError):
            setattr(model, name, np.zeros((4, 4)))
        with pytest.raises(FrozenInstanceError):
            delattr(model, name)
        assert getattr(model, name) is before


class TestValidateModel:
    def test_uav_model_valid(self, uav_model):
        assert validate_model(uav_model) == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_A_is_one_finding_everywhere(self, bad):
        # A NaN in A failed the SVD with a bare LAPACK error in every build
        # that needs A^-1.  A failed build keeps nothing with the model: a
        # second call raises the same error.
        model = make_uav_model()
        A = model.A.copy()
        A[2, 2] = bad
        model = SystemModel(A=A, B=model.B, C_G=model.C_G, C_I=model.C_I,
                            Sigma_w=model.Sigma_w, Sigma_G=model.Sigma_G,
                            Sigma_I=model.Sigma_I)
        [finding] = validate_model(model)
        assert finding == "A: holds a non-finite entry"
        for build in (lambda m: _transition_inverse(m.A), StackedSensorForms,
                      lambda m: m._derived(StackedSensorForms),
                      drift_matrices, lambda m: escape_report(m, 2.0, 0.01)):
            for _ in range(2):
                with pytest.raises(ValueError) as info:
                    build(model)
                assert type(info.value) is ValueError
                assert str(info.value) == finding

    def test_reports_indefinite_sensor_covariance(self):
        model = make_uav_model()
        bad = SystemModel(A=model.A, B=model.B, C_G=model.C_G, C_I=model.C_I,
                          Sigma_w=model.Sigma_w,
                          Sigma_G=np.diag([1e-3, -1e-3]),
                          Sigma_I=model.Sigma_I)
        findings = validate_model(bad)
        assert any("Sigma_G" in f and "positive definite" in f for f in findings)

    def test_reports_singular_A(self):
        model = make_uav_model()
        A = model.A.copy()
        A[3, :] = 0.0
        bad = SystemModel(A=A, B=model.B, C_G=model.C_G, C_I=model.C_I,
                          Sigma_w=model.Sigma_w, Sigma_G=model.Sigma_G,
                          Sigma_I=model.Sigma_I)
        findings = validate_model(bad)
        assert any("A" in f and "singular" in f for f in findings)

    def test_singular_A_is_one_finding_everywhere(self, uav_config, tmp_path,
                                                 capsys):
        # Every entry point that needs A^-1 reports validate_model's finding.
        model = uav_config.model
        A = model.A.copy()
        A[3, :] = 0.0
        bad = SystemModel(A=A, B=model.B, C_G=model.C_G, C_I=model.C_I,
                          Sigma_w=model.Sigma_w, Sigma_G=model.Sigma_G,
                          Sigma_I=model.Sigma_I)
        [finding] = validate_model(bad)
        for build in (drift_matrices, StackedSensorForms,
                      lambda m: ScenarioShared(m).trunk,
                      lambda m: run_scenario(replace(uav_config, model=m)),
                      lambda m: escape_report(m, 2.0, 0.01)):
            with pytest.raises(ValueError) as info:
                build(bad)
            assert str(info.value) == finding
        with open(builtin_config_path(), encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["model"]["A"] = A.tolist()
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"config error: model: {finding}\n"

    @pytest.mark.parametrize("name, value, finding", [
        ("A", np.hstack([np.eye(4), np.zeros((4, 1))]),
         "A: must be square, got shape (4, 5)"),
        ("B", np.zeros((3, 2)), "B: has 3 rows, expected 4"),
        ("C_G", np.eye(2, 3), "C_G: has 3 columns, expected 4"),
        ("C_I", np.eye(2, 3), "C_I: has 3 columns, expected 4"),
        ("Sigma_w", 1e-4 * np.eye(3),
         "Sigma_w: has shape (3, 3), expected (4, 4)"),
        ("Sigma_I", 1e-3 * np.eye(3), "Sigma_I: has shape (3, 3), expected "
                                      "(2, 2) to match the C_I row count"),
        ("Sigma_w", np.diag([1e-4, 1e-4, 1e-4, -1e-4]),
         "Sigma_w: not positive semidefinite (min eigenvalue -1.000e-04)"),
    ], ids=["A square", "B rows", "C_G columns", "C_I columns",
            "Sigma_w shape", "Sigma_I shape", "Sigma_w semidefinite"])
    def test_validate_prints_the_one_finding(self, name, value, finding,
                                             tmp_path, capsys):
        # The shipped config with one matrix replaced: validate exits 1 and
        # prints the finding alone, on one line of stderr.
        with open(builtin_config_path(), encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["model"][name] = value.tolist()
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "--config", str(path)]) == 1
        assert capsys.readouterr() == ("", f"config error: model: "
                                           f"{finding}\n")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", MATRIX_NAMES)
    def test_non_finite_entry_is_one_finding(self, name, bad):
        # Without the check inf in Sigma_G warned in the symmetry test, NaN
        # in A failed the SVD, and the other cases returned no finding.
        model = make_uav_model()
        matrices = {n: getattr(model, n).copy() for n in MATRIX_NAMES}
        matrices[name][0, 0] = bad
        assert validate_model(SystemModel(**matrices)) == [
            f"{name}: holds a non-finite entry"]

    def test_reports_dimension_mismatch(self):
        model = make_uav_model()
        bad = SystemModel(A=model.A, B=model.B, C_G=model.C_G, C_I=model.C_I,
                          Sigma_w=model.Sigma_w,
                          Sigma_G=np.eye(3) * 1e-3,  # wrong size for 2 GPS rows
                          Sigma_I=model.Sigma_I)
        findings = validate_model(bad)
        assert any("Sigma_G" in f for f in findings)

    def test_reports_asymmetric_covariance(self):
        model = make_uav_model()
        Sigma_G = np.array([[1e-3, 1e-4], [0.0, 1e-3]])
        bad = SystemModel(A=model.A, B=model.B, C_G=model.C_G, C_I=model.C_I,
                          Sigma_w=model.Sigma_w, Sigma_G=Sigma_G,
                          Sigma_I=model.Sigma_I)
        findings = validate_model(bad)
        assert any("symmetric" in f for f in findings)

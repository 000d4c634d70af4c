"""Acceptance gate: one test per shipped criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines as
they execute.

Criterion 4 (normal-mode stability) is checked over the reference run length,
`steps` in the shipped configuration (1000), the span over which the
normal-mode covariance feeds the detector and the confidence radius.  It was
first stated with a 500-step horizon, which no correct implementation can
meet.  The fixed point P* from scipy's solve_discrete_are, an oracle
independent of this package, agrees with stationary_covariance to 7.1e-16.
The closed loop A - K* M at P* has spectral radius 0.99051, so errors
contract at rho^2 = 0.98110 per step.  From P = Sigma_w the step change is
3.9e-8 and |P_500 - P*| is 2.0e-6 at k = 500; the step change first drops
to 1e-9 at k = 692, the distance to 1e-8 at k = 779, and |P_1000 - P*| is
1.5e-10.
"""

import math
from dataclasses import replace
from time import perf_counter

import numpy as np

from spoofguard import (AttackSignal, EstimatorState, Mode,
                        StackedSensorForms, covariance_update,
                        drift_matrices, escape_time, escape_time_lower_bound,
                        fuse, is_detectable, monte_carlo, optimal_gain,
                        run_scenario, stationary_covariance)

from conftest import decoupling_residual, random_invertible_model


def report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {verdict} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


class TestAcceptance:
    def test_01_escape_time_reproduction(self, uav_model, uav_config):
        t0 = perf_counter()
        P = stationary_covariance(uav_model)
        k = escape_time(P, uav_model, uav_config.zeta_norm, 0.01)
        elapsed = perf_counter() - t0
        ok = 285 <= k <= 295 and elapsed < 1.0
        report(1, "escape time reproduction", ok,
               f"escape={k} steps (target 290±5), {elapsed:.3f}s")

    def test_02_lower_bound_reproduction(self, uav_model, uav_stationary_P):
        t0 = perf_counter()
        bound = escape_time_lower_bound(uav_stationary_P, uav_model, 2.0, 0.01)
        k = escape_time(uav_stationary_P, uav_model, 2.0, 0.01)
        elapsed = perf_counter() - t0
        ok = 252 <= math.ceil(bound) <= 262 and bound <= k and elapsed < 1.0
        report(2, "lower bound reproduction", ok,
               f"bound={bound:.3f} (ceil {math.ceil(bound)}, target 257±5), "
               f"escape={k}, {elapsed:.3f}s")

    def test_03_detection_latency(self, uav_config, uav_shared):
        config = replace(uav_config, runs=100, steps=710)
        t0 = perf_counter()
        batch = monte_carlo(config, shared=uav_shared)
        elapsed = perf_counter() - t0
        detections = [r.attack_detection_step for r in batch.runs]
        hits = sum(1 for s in detections if s is not None and 700 <= s <= 703)
        ok = hits == 100 and elapsed < 10.0
        report(3, "detection latency", ok,
               f"{hits}/100 runs detected in [700, 703], {elapsed:.2f}s")

    def test_04_normal_mode_stability(self, uav_model, uav_config,
                                      uav_stationary_P):
        # Started at Sigma_w, the optimal-gain recursion must settle (step
        # change <= 1e-9) and end within 1e-8 of the scipy fixed point within
        # the reference run length, uav_config.steps = 1000 steps.  The
        # closed loop contracts at rho^2 = 0.98110 per step, so the first
        # passage is at k = 692 and |P_1000 - P*| = 1.5e-10; a 500-step
        # horizon cannot be met (see the module docstring).
        from scipy.linalg import solve_discrete_are
        stacked = StackedSensorForms(uav_model)
        A, C = uav_model.A, stacked.C
        M = C @ A - stacked.D @ C
        R = C @ uav_model.Sigma_w @ C.T + stacked.Sigma_y
        G = uav_model.Sigma_w @ C.T
        P_star = solve_discrete_are(A.T, M.T, uav_model.Sigma_w, R, s=G)
        K_star = (A @ P_star @ M.T + G) @ np.linalg.inv(M @ P_star @ M.T + R)
        rho = max(abs(np.linalg.eigvals(A - K_star @ M)))
        fixed_point_gap = np.linalg.norm(uav_stationary_P - P_star)

        horizon = uav_config.steps
        P = uav_model.Sigma_w.copy()
        converged_at = None
        for k in range(1, horizon + 1):
            P_next = covariance_update(P, optimal_gain(P, uav_model, stacked),
                                       uav_model, stacked)
            diff = np.linalg.norm(P_next - P)
            P = P_next
            if converged_at is None and diff <= 1e-9:
                converged_at = k
        dist = np.linalg.norm(P - P_star)
        ok = (rho < 1.0 and fixed_point_gap <= 1e-8
              and converged_at is not None and dist <= 1e-8)
        report(4, "normal-mode stability", ok,
               f"rho^2={rho ** 2:.5f} (needs rho<1), |P_stationary - P*|="
               f"{fixed_point_gap:.1e} (needs <=1e-8), step-change<=1e-9 at "
               f"k={converged_at} (needs <={horizon}), |P_{horizon} - P*|="
               f"{dist:.1e} (needs <=1e-8)")

    def test_05_emergency_mode_instability(self, uav_model, uav_stationary_P):
        drift = drift_matrices(uav_model)
        stacked = StackedSensorForms(uav_model)
        est = EstimatorState(x_hat=np.zeros(4), P=uav_stationary_P,
                             mode=Mode.EMERGENCY)
        closed = uav_stationary_P.copy()
        u = np.zeros(2)
        y = np.zeros(2)
        prev_trace = np.trace(est.P)
        strictly_increasing = True
        max_rel = 0.0
        for _ in range(10_000):
            est = fuse(est, uav_model, stacked, u, y, y)
            closed = uav_model.A @ closed @ uav_model.A.T + drift.Sigma_bar
            closed = 0.5 * (closed + closed.T)
            tr = np.trace(est.P)
            if tr <= prev_trace:
                strictly_increasing = False
            prev_trace = tr
            rel = np.linalg.norm(est.P - closed) / np.linalg.norm(closed)
            max_rel = max(max_rel, rel)
        ok = strictly_increasing and max_rel <= 1e-12
        report(5, "emergency-mode instability", ok,
               f"trace strictly increasing over 1e4 steps: {strictly_increasing}, "
               f"max closed-form deviation {max_rel:.2e} (needs <=1e-12)")

    def test_06_unbiasedness(self, uav_config, uav_shared, uav_model):
        config = replace(uav_config, attack=AttackSignal.none(),
                         runs=1000, steps=200)
        batch = monte_carlo(config, shared=uav_shared)
        # reference covariance along the nominal normal-mode recursion
        stacked = StackedSensorForms(uav_model)
        P = np.zeros((4, 4))
        diag = {}
        for k in range(1, 201):
            P = covariance_update(P, optimal_gain(P, uav_model, stacked),
                                  uav_model, stacked)
            if k in (50, 100, 200):
                diag[k] = np.diag(P).copy()
        ok = True
        worst = 0.0
        for k in (50, 100, 200):
            mean_err = batch.mean_error[k - 1]
            bound = 4.0 * np.sqrt(diag[k] / config.runs)
            ratio = np.max(np.abs(mean_err) / bound)
            worst = max(worst, ratio)
            ok = ok and np.all(np.abs(mean_err) <= bound)
        report(6, "unbiasedness", ok,
               f"N=1000 mean error within 4*sqrt(P_k[i,i]/N) at k=50,100,200; "
               f"worst ratio {worst:.2f}")

    def test_07_confidence_envelope_coverage(self, uav_config, uav_shared):
        config = replace(uav_config, runs=100, steps=1000)
        batch = monte_carlo(config, shared=uav_shared)
        frac = batch.coverage_post_attack()
        ok = frac is not None and frac >= 0.95
        report(7, "confidence envelope coverage", ok,
               f"post-attack coverage {frac:.4f} (needs >=0.95)")

    def test_08_detectability_verdicts(self, uav_model):
        drift = drift_matrices(uav_model)
        gps = is_detectable(uav_model.C_G, uav_model.A)
        pair = is_detectable(drift.C_bar_I, drift.A_bar)
        ok = gps is True and pair is False
        report(8, "detectability verdicts", ok,
               f"(C_G, A) detectable={gps}, drift pair detectable={pair}")

    def test_09_gain_optimality_probe(self, uav_model):
        stacked = StackedSensorForms(uav_model)
        C, D, Sy = stacked.C, stacked.D, stacked.Sigma_y
        M = C @ uav_model.A - D @ C
        rng = np.random.default_rng(2357)
        optimal_everywhere = True
        max_foc = 0.0
        for _ in range(100):
            R = rng.normal(size=(4, 4)) * 0.5
            P = R @ R.T
            K = optimal_gain(P, uav_model, stacked)
            base = np.trace(covariance_update(P, K, uav_model, stacked))
            foc = np.abs((uav_model.A - K @ M) @ P @ (-M).T
                         - (np.eye(4) - K @ C) @ uav_model.Sigma_w @ C.T
                         + K @ Sy).max()
            max_foc = max(max_foc, foc)
            for _ in range(100):
                eps = rng.normal(size=(4, 4))
                eps *= 1e-2 / np.linalg.norm(eps)
                K_pert = K + eps
                if base > np.trace(covariance_update(P, K_pert,
                                                     uav_model, stacked)):
                    optimal_everywhere = False
        ok = optimal_everywhere and max_foc <= 1e-9
        report(9, "gain optimality probe", ok,
               f"probe optimal in 100x100 trials: {optimal_everywhere}, "
               f"max first-order residual {max_foc:.2e} (needs <=1e-9)")

    def test_10_decoupling_identity(self):
        rng = np.random.default_rng(97)
        worst = 0.0
        for _ in range(200):
            model = random_invertible_model(rng)
            drift = drift_matrices(model)
            worst = max(worst,
                        decoupling_residual(model, drift.L, drift.C_bar_I))
        ok = worst <= 1e-10
        report(10, "decoupling identity", ok,
               f"max residual over 200 random invertible models "
               f"{worst:.2e} (needs <=1e-10)")

    def test_11_no_detector_divergence(self, uav_config, uav_shared):
        config = replace(uav_config, steps=2500)
        trace = run_scenario(config, detector_enabled=False, shared=uav_shared)
        goal = np.array([10.0, 10.0, 0.0, 0.0])
        xs, x_hats = trace.columns.x[2000:], trace.columns.x_hat[2000:]
        pos_ok = all(np.all(np.abs(x[:2] - (-90.0)) <= 5.0) for x in xs)
        est_ok = all(np.linalg.norm(x_hat - goal) <= 1.0 for x_hat in x_hats)
        ok = pos_ok and est_ok
        report(11, "no-detector divergence", ok,
               f"true position {np.round(xs[-1][:2], 2).tolist()} near "
               f"(-90, -90): {pos_ok}, estimate pinned to target: {est_ok}")

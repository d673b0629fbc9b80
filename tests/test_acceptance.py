"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 4 (noisy output feedback with a live covariance) is implemented
faithfully and currently fails; the ledger outside the package carries the
full blocking analysis.  In short: with zero process noise the filter's
Riccati equilibrium gain is scale-free in the measurement covariance and is
set by the genuinely unstable elastic cross-couplings of the exogenous-input
linearization, so the optimal innovation legitimately swings the angular-rate
estimates by O(10) rad/s per measurement, outside the linearization's
validity, and the filter destroys its own estimate within a fraction of a
second at the stated parameters.  The degenerate precise-initialization
limit (zero prior, pure model replay) reproduces the narrated behavior and is
demonstrated separately.
"""

import time

import numpy as np
import pytest

from softrod import (
    CovarianceBlowup,
    EstimatorState,
    GainProfile,
    Grid,
    IntegratorConfig,
    NonFiniteState,
    NoiseModel,
    RodParams,
    RodState,
    Wrench,
    check_tracking_basin,
    dynamics_rhs,
    ekf_step,
    feedforward_transform,
    linearize_dynamics,
    make_initial_state,
    run_closed_loop,
    step,
    strains,
    tracking_errors,
    virtual_inputs,
)
from softrod.geometry import (
    c_matrix,
    exp_so3,
    hat,
    log_so3,
    vee,
)
from softrod.harness import RunConfig, SwingTrajectory

from conftest import random_rotations, smooth_random_state
from test_estimate import directional_difference


def report(number, passed, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    return passed


def envelope_ok(records, t_window=(3.0, None), ratio=1e-2):
    """Criterion 2's envelope test: negative post-transient log-slope and a
    final value below ``ratio`` of the initial value, for all four sups."""
    ts = np.array([r.t for r in records])
    hi = ts[-1] if t_window[1] is None else t_window[1]
    win = (ts >= t_window[0]) & (ts <= hi)
    details = []
    ok = True
    for name in ("ep_sup", "ev_sup", "er_sup", "ew_sup"):
        series = np.array([getattr(r, name) for r in records])
        slope = np.polyfit(ts[win], np.log(np.maximum(series[win], 1e-300)), 1)[0]
        final_ratio = series[-1] / series[0]
        ok = ok and slope < 0.0 and final_ratio < ratio
        details.append(f"{name}: slope {slope:+.2f}/s, final/initial {final_ratio:.1e}")
    return ok, "; ".join(details)


@pytest.fixture(scope="module")
def reference_setup():
    cfg = RunConfig()
    grid = cfg.grid()
    return cfg, grid, cfg.rod_params()


class TestCriterion1:
    def test_exact_cancellation(self, reference_setup):
        cfg, grid, params = reference_setup
        rng = np.random.default_rng(2024)
        wrench_env = Wrench(rng.normal(size=(21, 3)), rng.normal(size=(21, 3)))
        started = time.perf_counter()
        worst = 0.0
        for _ in range(20):
            state = smooth_random_state(grid, rng, amp=0.01)
            f_star = rng.normal(size=(21, 3))
            l_star = rng.normal(size=(21, 3))
            wrench_c = feedforward_transform(state, f_star, l_star, wrench_env, params, grid)
            rates = dynamics_rhs(state, wrench_env + wrench_c, params, grid)
            worst = max(
                worst,
                np.max(np.abs(rates.v[1:] - f_star[1:])) / np.max(np.abs(f_star)),
                np.max(np.abs(rates.omega[1:] - l_star[1:])) / np.max(np.abs(l_star)),
            )
        elapsed = time.perf_counter() - started
        passed = worst < 1e-9 and elapsed < 1.0
        assert report(1, passed, f"worst relative error {worst:.2e} over 20 states in {elapsed:.2f} s")


class TestCriterion2:
    def test_closed_loop_tracking(self):
        cfg = RunConfig(duration=10.0, feedback="true", seed=0, initial_covariance=0.0, log_every=100)
        started = time.perf_counter()
        result = run_closed_loop(cfg)
        elapsed = time.perf_counter() - started
        ok, detail = envelope_ok(result.records)
        passed = ok and elapsed < 120.0
        assert report(2, passed, f"{detail}; runtime {elapsed:.0f} s (< 120 s)")


class TestCriterion3:
    def test_ekf_consistency_exact_initialization(self):
        # zero noise, precise prior: the innovation is identically zero and
        # the filter must replay the plant through its own code path
        cfg = RunConfig()
        grid, params = cfg.grid(), cfg.rod_params()
        gains, noise, int_cfg = cfg.gains(grid), cfg.noise(grid), cfg.integrator()
        traj = cfg.trajectory(grid)
        env = Wrench.zero(grid.n_nodes)
        plant = make_initial_state(grid, "axial_spin")
        est = EstimatorState.initialize(plant, covariance_scale=1e-6)
        started = time.perf_counter()
        worst = 0.0
        for i in range(10_000):  # 2 s horizon
            t = i * cfg.dt
            errs = tracking_errors(est.estimate, traj, t, grid)
            f_star, l_star = virtual_inputs(errs, est.estimate, traj, t, gains, grid)
            total = env + feedforward_transform(est.estimate, f_star, l_star, env, params, grid)
            est = ekf_step(est, plant.p.copy(), total, params, grid, noise, int_cfg, riccati_stride=10)
            plant = step(plant, lambda st, _t: dynamics_rhs(st, total, params, grid), int_cfg, step_index=i)
            if i % 200 == 0:
                worst = max(
                    worst,
                    np.abs(est.estimate.p - plant.p).max(),
                    np.abs(est.estimate.rot - plant.rot).max(),
                    np.abs(est.estimate.v - plant.v).max(),
                    np.abs(est.estimate.omega - plant.omega).max(),
                )
        elapsed = time.perf_counter() - started
        worst = max(
            worst,
            np.abs(est.estimate.p - plant.p).max(),
            np.abs(est.estimate.v - plant.v).max(),
        )
        passed = worst < 1e-6 and elapsed < 120.0
        assert report(
            3,
            passed,
            f"sup estimator-plant gap {worst:.2e} over 2 s, covariance bounded at "
            f"{np.diagonal(est.covariance).max():.1e}, runtime {elapsed:.0f} s",
        )


class TestCriterion4:
    def test_output_feedback_five_seeds(self):
        # faithful configuration: live covariance from the stated small prior
        aborted = []
        outcomes = []
        for seed in range(5):
            cfg = RunConfig(duration=8.0, feedback="estimated", seed=seed, initial_covariance=1e-6)
            try:
                result = run_closed_loop(cfg)
            except (CovarianceBlowup, NonFiniteState) as exc:
                aborted.append((seed, type(exc).__name__))
                continue
            records = result.records
            first_second = [r for r in records if r.t <= 1.0]
            bounded = all(
                max(getattr(r, name) for r in records)
                <= 5.0 * max(getattr(r, name) for r in first_second) + 1e-30
                for name in ("eps_p", "eps_r", "eps_v", "eps_w")
            )
            ok, _ = envelope_ok(records)
            outcomes.append(bounded and ok)
        if aborted:
            report(
                4,
                False,
                f"filter diverged on seeds {aborted}; the zero-process-noise Riccati "
                "equilibrium gain is scale-free and exceeds the linearization's "
                "validity at these parameters (see decisions ledger)",
            )
            pytest.fail(
                "criterion 4 is unattainable as stated: the live filter at the "
                f"reference parameters diverged on seeds {aborted}"
            )
        assert report(4, all(outcomes), f"all five seeds bounded and converging: {outcomes}")

    def test_degenerate_precise_initialization_limit(self):
        # the narrated regime: precise initial estimates with a degenerate
        # prior; the filter replays the model and estimation errors stay at
        # zero while tracking proceeds as under true-state feedback
        for seed in (0, 1):
            # 4 s covers the critically-damped transient (position error
            # peaks near t = 2 before decaying)
            cfg = RunConfig(duration=4.0, feedback="estimated", seed=seed, initial_covariance=0.0)
            result = run_closed_loop(cfg)
            records = result.records
            worst_eps = max(
                max(r.eps_p, r.eps_r, r.eps_v, r.eps_w) for r in records
            )
            assert worst_eps == 0.0
            assert records[-1].ep_sup < 0.5 * records[0].ep_sup
        print("ACCEPTANCE 4 (degenerate limit): estimation errors identically zero, tracking improving")


class TestCriterion5:
    def test_linearization_oracle(self, reference_setup):
        cfg, grid, params = reference_setup
        rng = np.random.default_rng(77)
        worst_mid = 0.0
        worst_slope = np.inf
        for _ in range(10):
            state = smooth_random_state(grid, rng, amp=0.05)
            wrench = Wrench(rng.normal(size=(21, 3)), rng.normal(size=(21, 3)))
            op = linearize_dynamics(state, wrench, params, grid)
            direction = rng.normal(size=12 * grid.n_nodes)
            direction /= np.linalg.norm(direction)
            rels = []
            for mag in (1e-4, 1e-6, 1e-8):
                dxi = mag * direction
                diff = directional_difference(state, dxi, wrench, params, grid)
                rels.append(np.linalg.norm(op.dense @ dxi - diff) / np.linalg.norm(diff))
            assert rels[0] > rels[1] > rels[2]
            worst_mid = max(worst_mid, rels[1])
            slope = np.polyfit(np.log10([1e-4, 1e-6, 1e-8]), np.log10(rels), 1)[0]
            worst_slope = min(worst_slope, slope)
        passed = worst_mid < 1e-3 and worst_slope > 0.7
        assert report(
            5,
            passed,
            f"worst relative error at 1e-6 perturbation: {worst_mid:.2e}; "
            f"shallowest first-order decay slope: {worst_slope:.2f}",
        )


class TestCriterion6:
    def test_attitude_basin_gate_boundaries(self, reference_setup):
        cfg, grid, params = reference_setup
        traj = SwingTrajectory(0.0, 0.5, 0.0, grid.length)
        gains = GainProfile.constant(grid, kr=1.0)
        ref = traj.evaluate(grid.s, 0.0)

        def state_with(rot_offset, omega=None):
            state = RodState(ref.p.copy(), ref.rot.copy(), ref.v.copy(), ref.omega.copy())
            state.rot = state.rot @ rot_offset
            if omega is not None:
                state.omega = state.omega + omega
            return state

        # half-turn initial error: the angle condition fails exactly (margin 0)
        half_turn = exp_so3(np.array([0.0, np.pi, 0.0]))
        rep = check_tracking_basin(state_with(half_turn), traj, gains, grid)
        fails_at_pi = (not rep.angle_condition_ok) and np.max(np.abs(rep.angle_margin)) < 1e-9
        # any smaller error passes
        smaller_ok = all(
            check_tracking_basin(
                state_with(exp_so3(np.array([theta, 0.0, 0.0]))), traj, gains, grid
            ).angle_condition_ok
            for theta in (0.1, 1.0, 2.0, 3.0, np.pi - 1e-4)
        )
        # rate condition boundary at a quarter turn
        theta = np.pi / 2.0
        bound = np.sqrt(gains.kr[0] * (4.0 - 2.0 * (1.0 - np.cos(theta))))
        quarter = exp_so3(np.array([0.0, theta, 0.0]))
        below = check_tracking_basin(
            state_with(quarter, omega=[0.0, 0.0, 0.99 * bound]), traj, gains, grid
        ).rate_condition_ok
        above = check_tracking_basin(
            state_with(quarter, omega=[0.0, 0.0, 1.01 * bound]), traj, gains, grid
        ).rate_condition_ok
        passed = fails_at_pi and smaller_ok and below and not above
        assert report(
            6,
            passed,
            f"half-turn margin collapses to 0 and fails: {fails_at_pi}; sub-half-turn passes: "
            f"{smaller_ok}; rate boundary separates at {bound:.3f} rad/s",
        )


class TestCriterion7:
    def test_geometry_suite(self):
        rng = np.random.default_rng(4096)
        u = rng.normal(size=(1000, 3))
        round_trip_exact = np.array_equal(vee(hat(u)), u)

        x = rng.normal(size=(1000, 3))
        a = random_rotations(rng, 1000)
        tr = np.trace(a, axis1=1, axis2=2)
        trace_identity = np.max(
            np.abs(
                hat(x) @ a
                + np.swapaxes(a, 1, 2) @ hat(x)
                - hat(np.einsum("nij,nj->ni", tr[:, None, None] * np.eye(3) - a, x))
            )
        )
        y = rng.normal(size=(1000, 3))
        commutator_identity = np.max(
            np.abs(hat(x) @ hat(y) - hat(y) @ hat(x) - hat(np.cross(x, y)))
        )
        rots = random_rotations(rng, 1000)
        exp_log = np.max(np.abs(exp_so3(log_so3(rots)) - rots))
        norms = np.linalg.norm(c_matrix(rots, random_rotations(rng, 1000)), ord=2, axis=(1, 2))
        passed = (
            round_trip_exact
            and trace_identity < 1e-13
            and commutator_identity < 1e-13
            and exp_log < 1e-9
            and np.max(norms) <= 1.0 + 1e-12
        )
        assert report(
            7,
            passed,
            f"hat/vee exact: {round_trip_exact}; trace identity {trace_identity:.1e}; "
            f"commutator identity {commutator_identity:.1e}; exp/log round trip {exp_log:.1e}; "
            f"max transport norm {np.max(norms):.12f}",
        )


class TestCriterion8:
    def test_equilibrium_and_convergence_order(self, reference_setup):
        cfg, _, params = reference_setup
        # equilibrium on a grid with exactly representable coordinates
        grid = Grid.from_length(0.5, 0.03125)
        state0 = make_initial_state(grid, "straight_at_rest")
        state = state0.copy()
        wrench = Wrench.zero(grid.n_nodes)
        int_cfg = IntegratorConfig(dt=2e-4)
        for i in range(10_000):
            state = step(state, lambda st, _t: dynamics_rhs(st, wrench, params, grid), int_cfg, step_index=i)
        drift = max(
            np.abs(state.p - state0.p).max(),
            np.abs(state.rot - state0.rot).max(),
            np.abs(state.v).max(),
            np.abs(state.omega).max(),
        )

        from test_rod import quarter_circle_state

        errors = []
        for ds in (0.05, 0.025, 0.0125):
            g = Grid.from_length(0.5, ds)
            arc, radius = quarter_circle_state(g)
            q, uu = strains(arc, g)
            errors.append(
                max(
                    np.max(np.abs(q[1:-1] - [0.0, 0.0, 1.0])),
                    np.max(np.abs(uu[1:-1] - [0.0, 1.0 / radius, 0.0])),
                )
            )
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        passed = drift < 1e-12 and min(orders) >= 1.8
        assert report(
            8,
            passed,
            f"equilibrium drift over 1e4 steps: {drift:.1e}; strain convergence orders: "
            f"{orders[0]:.2f}, {orders[1]:.2f}",
        )


class TestCriterion9:
    def test_byte_identical_runs(self, tmp_path):
        outs = []
        for name in ("first", "second"):
            cfg = RunConfig(
                duration=0.1,
                seed=123,
                initial_covariance=0.0,
                log_every=50,
                snapshot_every=250,
            )
            run_closed_loop(cfg, out_dir=tmp_path / name)
            outs.append(tmp_path / name)
        names_a = sorted(p.name for p in outs[0].iterdir())
        names_b = sorted(p.name for p in outs[1].iterdir())
        identical = names_a == names_b and all(
            (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names_a
        )
        assert report(9, identical, f"{len(names_a)} output files byte-identical across reruns")

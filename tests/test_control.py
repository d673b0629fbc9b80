import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from softrod import (
    GainProfile,
    Grid,
    IntegratorConfig,
    RodState,
    Wrench,
    check_tracking_basin,
    dynamics_rhs,
    feedforward_transform,
    lyapunov_value,
    make_initial_state,
    step,
    tracking_errors,
    virtual_inputs,
)
from softrod.control import position_lyapunov_matrix
from softrod.geometry import c_matrix, exp_so3
from softrod.harness import RunConfig, SwingTrajectory

from conftest import check_trajectory_consistency, random_rotations, smooth_random_state


def state_on_trajectory(traj, grid, t):
    ref = traj.evaluate(grid.s, t)
    return RodState(ref.p.copy(), ref.rot.copy(), ref.v.copy(), ref.omega.copy())


def closed_loop_rhs(traj, t, gains, params, grid, wrench_env):
    def rhs(state, tau):
        errs = tracking_errors(state, traj, tau, grid)
        f_star, l_star = virtual_inputs(errs, state, traj, tau, gains, grid)
        wrench_c = feedforward_transform(state, f_star, l_star, wrench_env, params, grid)
        return dynamics_rhs(state, wrench_env + wrench_c, params, grid)

    return rhs


UNIT_VECTORS = (
    st.tuples(*[st.floats(-1.0, 1.0)] * 3)
    .map(np.array)
    .filter(lambda a: np.linalg.norm(a) > 0.1)
    .map(lambda a: a / np.linalg.norm(a))
)


class TestGainProfile:
    def test_constant_profile(self, ref_grid):
        gains = GainProfile.constant(ref_grid)
        assert gains.kp.shape == (ref_grid.n_nodes,)
        assert np.all(gains.c < GainProfile.c_upper_bound(gains.kr, gains.kw))

    def test_positivity_required(self, ref_grid):
        ones = np.ones(ref_grid.n_nodes)
        with pytest.raises(ValueError):
            GainProfile(0.0 * ones, ones, ones, ones, 0.5 * ones)

    def test_coupling_bound_enforced(self, ref_grid):
        # with kr = 1, kw = 2 the admissible coupling range is (0, 1)
        with pytest.raises(ValueError):
            GainProfile.constant(ref_grid, c=1.0)
        GainProfile.constant(ref_grid, c=0.999)

    def test_bound_formula(self):
        assert GainProfile.c_upper_bound(1.0, 2.0) == pytest.approx(1.0)
        assert GainProfile.c_upper_bound(4.0, 1.0) == pytest.approx(
            min(1.0, 16.0 / 17.0, 2.0)
        )


class TestTrackingErrors:
    def test_zero_on_trajectory(self, ref_grid):
        traj = RunConfig().trajectory(ref_grid)
        state = state_on_trajectory(traj, ref_grid, 0.3)
        errs = tracking_errors(state, traj, 0.3, ref_grid)
        for arr in (errs.e_p, errs.e_v, errs.e_rot, errs.e_omega):
            assert np.max(np.abs(arr)) < 1e-12

    def test_pure_position_offset(self, ref_grid):
        traj = RunConfig().trajectory(ref_grid)
        state = state_on_trajectory(traj, ref_grid, 0.1)
        state.p = state.p + [0.05, 0.0, 0.0]
        errs = tracking_errors(state, traj, 0.1, ref_grid)
        assert np.allclose(errs.e_p, [0.05, 0.0, 0.0], atol=1e-14)
        assert np.max(np.abs(errs.e_v)) < 1e-14
        assert np.max(np.abs(errs.e_rot)) < 1e-14
        assert np.max(np.abs(errs.e_omega)) < 1e-14

    def test_z_rotation_error(self, ref_grid):
        traj = SwingTrajectory(0.0, 0.5, 0.0, 0.5)  # static straight reference
        state = state_on_trajectory(traj, ref_grid, 0.0)
        theta = 0.4
        state.rot = state.rot @ exp_so3(np.array([0.0, 0.0, theta]))
        errs = tracking_errors(state, traj, 0.0, ref_grid)
        assert np.allclose(errs.e_rot, [0.0, 0.0, np.sin(theta)], atol=1e-13)


class TestVirtualInputs:
    def test_pure_feedforward_at_zero_error(self, ref_grid):
        traj = RunConfig().trajectory(ref_grid)
        gains = GainProfile.constant(ref_grid)
        t = 0.7
        state = state_on_trajectory(traj, ref_grid, t)
        errs = tracking_errors(state, traj, t, ref_grid)
        f_star, l_star = virtual_inputs(errs, state, traj, t, gains, ref_grid)
        ref = traj.evaluate(ref_grid.s, t)
        assert np.max(np.abs(f_star - ref.v_t)) < 1e-12
        # on-trajectory the rate cross term is omega* x omega* = 0
        assert np.max(np.abs(l_star - ref.omega_t)) < 1e-12

    def test_static_setpoint_proportional_term(self, ref_grid):
        traj = SwingTrajectory(0.0, 0.5, 0.0, 0.5)
        gains = GainProfile.constant(ref_grid, kp=1.0, kv=2.0)
        state = state_on_trajectory(traj, ref_grid, 0.0)
        delta = 0.02
        state.p = state.p + [delta, 0.0, 0.0]
        errs = tracking_errors(state, traj, 0.0, ref_grid)
        f_star, _ = virtual_inputs(errs, state, traj, 0.0, gains, ref_grid)
        assert np.allclose(f_star, [-delta, 0.0, 0.0], atol=1e-14)

    def test_closed_loop_error_derivatives(self, ref_grid, ref_params, rng):
        # central-difference the closed loop and compare against the decoupled
        # error dynamics the cancelling controller is supposed to produce
        traj = RunConfig().trajectory(ref_grid)
        gains = GainProfile.constant(ref_grid)
        wrench_env = Wrench.zero(ref_grid.n_nodes)
        state = smooth_random_state(ref_grid, rng, amp=0.1)
        # the step holds t fixed across stages, leaving an O(h) bias in the
        # central difference; h is small enough to push it below tolerance
        t0, h = 0.4, 1e-7
        cfg = IntegratorConfig(dt=h)
        loop = closed_loop_rhs(traj, t0, gains, ref_params, ref_grid, wrench_env)
        x1 = step(state, loop, cfg, t=t0)
        x2 = step(x1, loop, cfg, t=t0 + h)
        e0 = tracking_errors(state, traj, t0, ref_grid)
        e1 = tracking_errors(x1, traj, t0 + h, ref_grid)
        e2 = tracking_errors(x2, traj, t0 + 2 * h, ref_grid)

        de_p = (e2.e_p - e0.e_p) / (2 * h)
        de_v = (e2.e_v - e0.e_v) / (2 * h)
        de_rot = (e2.e_rot - e0.e_rot) / (2 * h)
        de_omega = (e2.e_omega - e0.e_omega) / (2 * h)

        ref = traj.evaluate(ref_grid.s, t0 + h)
        transport = c_matrix(x1.rot, ref.rot)
        interior = slice(1, None)
        assert np.max(np.abs(de_p - e1.e_v)[interior]) < 5e-6
        expected_dv = -gains.kp[:, None] * e1.e_p - gains.kv[:, None] * e1.e_v
        assert np.max(np.abs(de_v - expected_dv)[interior]) < 5e-6
        expected_drot = np.einsum("nij,nj->ni", transport, e1.e_omega)
        assert np.max(np.abs(de_rot - expected_drot)[interior]) < 5e-6
        expected_dw = -gains.kr[:, None] * e1.e_rot - gains.kw[:, None] * e1.e_omega
        assert np.max(np.abs(de_omega - expected_dw)[interior]) < 5e-6


class TestFeedforward:
    def test_zero_at_undeformed_rest(self, ref_grid, ref_params):
        state = make_initial_state(ref_grid, "straight_at_rest")
        zero = np.zeros((ref_grid.n_nodes, 3))
        wrench = feedforward_transform(
            state, zero, zero, Wrench.zero(ref_grid.n_nodes), ref_params, ref_grid
        )
        assert np.max(np.abs(wrench.f)) < 1e-8  # stiffness-amplified rounding
        assert np.max(np.abs(wrench.l)) < 1e-10

    def test_exact_cancellation(self, ref_grid, ref_params, rng):
        # moderate strain deviations: the cancellation subtracts elastic terms
        # of size K (q - q_ref), so huge strains would push rounding past 1e-9
        wrench_env = Wrench(rng.normal(size=(21, 3)), rng.normal(size=(21, 3)))
        for _ in range(5):
            state = smooth_random_state(ref_grid, rng, amp=0.01)
            f_star = rng.normal(size=(21, 3))
            l_star = rng.normal(size=(21, 3))
            wrench_c = feedforward_transform(
                state, f_star, l_star, wrench_env, ref_params, ref_grid
            )
            rates = dynamics_rhs(state, wrench_env + wrench_c, ref_params, ref_grid)
            assert np.max(np.abs(rates.v[1:] - f_star[1:])) < 1e-9 * np.max(np.abs(f_star))
            assert np.max(np.abs(rates.omega[1:] - l_star[1:])) < 1e-9 * np.max(np.abs(l_star))

    def test_gravity_compensation(self, ref_grid, ref_params):
        state = make_initial_state(ref_grid, "straight_at_rest")
        n = ref_grid.n_nodes
        gravity = Wrench(np.tile([0.0, 0.0, -9.81 * ref_params.linear_mass], (n, 1)), np.zeros((n, 3)))
        zero = np.zeros((n, 3))
        wrench_c = feedforward_transform(state, zero, zero, gravity, ref_params, ref_grid)
        rates = dynamics_rhs(state, gravity + wrench_c, ref_params, ref_grid)
        assert np.max(np.abs(rates.v)) < 1e-9
        assert np.max(np.abs(rates.omega)) < 1e-9


class TestTrackingBasinGate:
    def test_perfect_alignment_margins(self, ref_grid):
        traj = SwingTrajectory(0.0, 0.5, 0.0, 0.5)
        gains = GainProfile.constant(ref_grid, kr=1.0)
        state = state_on_trajectory(traj, ref_grid, 0.0)
        report = check_tracking_basin(state, traj, gains, ref_grid)
        assert np.allclose(report.angle_margin, 4.0, atol=1e-12)
        assert np.allclose(report.rate_margin, 4.0 * gains.kr, atol=1e-12)
        assert report.all_ok

    def test_half_turn_fails_angle_condition(self, ref_grid, rng):
        traj = SwingTrajectory(0.0, 0.5, 0.0, 0.5)
        gains = GainProfile.constant(ref_grid)
        state = state_on_trajectory(traj, ref_grid, 0.0)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        state.rot = state.rot @ exp_so3(np.pi * axis)
        report = check_tracking_basin(state, traj, gains, ref_grid)
        assert not report.angle_condition_ok
        assert np.max(report.angle_margin) < 1e-9  # margin collapses to zero

    def test_below_half_turn_passes(self, ref_grid, rng):
        traj = SwingTrajectory(0.0, 0.5, 0.0, 0.5)
        gains = GainProfile.constant(ref_grid)
        for theta in (0.5, 1.5, 2.5, 3.0, np.pi - 1e-3):
            state = state_on_trajectory(traj, ref_grid, 0.0)
            state.rot = state.rot @ exp_so3(np.array([theta, 0.0, 0.0]))
            report = check_tracking_basin(state, traj, gains, ref_grid)
            assert report.angle_condition_ok

    def test_rate_condition_boundary(self, ref_grid):
        traj = SwingTrajectory(0.0, 0.5, 0.0, 0.5)
        gains = GainProfile.constant(ref_grid, kr=1.0)
        theta = np.pi / 2.0  # angle defect 2, rate bound sqrt(kr * 2)
        bound = np.sqrt(gains.kr[0] * (4.0 - 2.0 * (1.0 - np.cos(theta))))
        for scale, expect_ok in ((0.99, True), (1.01, False)):
            state = state_on_trajectory(traj, ref_grid, 0.0)
            state.rot = state.rot @ exp_so3(np.array([0.0, theta, 0.0]))
            state.omega = state.omega + [0.0, 0.0, scale * bound]
            report = check_tracking_basin(state, traj, gains, ref_grid)
            assert report.rate_condition_ok is expect_ok

    @settings(max_examples=60, deadline=None)
    @given(
        theta=st.floats(0.0, np.pi, exclude_max=True),
        axis=UNIT_VECTORS,
        rate=st.floats(0.0, 4.0),
        direction=UNIT_VECTORS,
        kr=st.floats(0.05, 8.0),
    )
    def test_rate_condition_is_the_level_bound(self, theta, axis, rate, direction, kr):
        # (kR d / 2 + |e_w|^2 / 2) / kR < 2 is kR (4 - d) - |e_w|^2 > 0, so
        # the rate condition alone decides the gate
        grid = Grid.from_length(0.5, 0.125)
        traj = SwingTrajectory(0.0, 0.5, 0.0, grid.length)
        gains = GainProfile.constant(grid, kr=kr, c=0.5 * GainProfile.c_upper_bound(kr, 2.0))
        state = state_on_trajectory(traj, grid, 0.0)
        state.rot = state.rot @ exp_so3(theta * axis)
        state.omega = state.omega + rate * direction
        energy = (0.5 * kr * 2.0 * (1.0 - np.cos(theta)) + 0.5 * rate**2) / kr
        assume(abs(energy - 2.0) > 1e-9)
        report = check_tracking_basin(state, traj, gains, grid)
        assert report.rate_condition_ok == (energy < 2.0)
        assert report.all_ok == report.rate_condition_ok

    def test_reference_scenario_passes(self, ref_grid):
        traj = RunConfig().trajectory(ref_grid)
        gains = GainProfile.constant(ref_grid, kp=1.0, kv=2.0, kr=1.0, kw=2.0)
        state = make_initial_state(ref_grid, "axial_spin")
        report = check_tracking_basin(state, traj, gains, ref_grid)
        assert report.all_ok


class TestLyapunov:
    def test_zero_on_trajectory(self, ref_grid):
        traj = RunConfig().trajectory(ref_grid)
        gains = GainProfile.constant(ref_grid)
        state = state_on_trajectory(traj, ref_grid, 0.2)
        errs = tracking_errors(state, traj, 0.2, ref_grid)
        v1, v2 = lyapunov_value(errs, state, traj, 0.2, gains, ref_grid)
        assert np.max(np.abs(v1)) < 1e-12 and np.max(np.abs(v2)) < 1e-12

    def test_position_matrix_solves_lyapunov_equation(self):
        for kp, kv in ((1.0, 2.0), (3.0, 0.7), (0.4, 1.9)):
            p11, p12, p22 = position_lyapunov_matrix(np.array(kp), np.array(kv))
            p = np.array([[p11, p12], [p12, p22]])
            a = np.array([[0.0, 1.0], [-kp, -kv]])
            assert np.allclose(a.T @ p + p @ a, -np.eye(2), atol=1e-12)
            assert np.all(np.linalg.eigvalsh(p) > 0.0)

    def test_attitude_energy_sandwich(self, ref_grid, rng):
        # e2^T M1 e2 <= V2 <= e2^T M2 e2 on states inside the level set
        kr, kw, c = 1.0, 2.0, 0.5
        gains = GainProfile.constant(ref_grid, kr=kr, kw=kw, c=c)
        traj = SwingTrajectory(0.0, 0.5, 0.0, 0.5)
        d = 1.5
        theta_max = np.arccos(1.0 - d)
        m1 = 0.5 * np.array([[kr, -c], [-c, 1.0]])
        m2 = 0.5 * np.array([[2.0 * kr / (2.0 - d), c], [c, 1.0]])
        for _ in range(200):
            theta = rng.uniform(0.0, theta_max)
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            state = state_on_trajectory(traj, ref_grid, 0.0)
            state.rot = state.rot @ exp_so3(theta * axis)
            state.omega = state.omega + rng.normal(0.0, 1.0, size=3)
            errs = tracking_errors(state, traj, 0.0, ref_grid)
            _, v2 = lyapunov_value(errs, state, traj, 0.0, gains, ref_grid)
            e2 = np.array(
                [np.linalg.norm(errs.e_rot[5]), np.linalg.norm(errs.e_omega[5])]
            )
            assert e2 @ m1 @ e2 <= v2[5] + 1e-12
            assert v2[5] <= e2 @ m2 @ e2 + 1e-12

    def test_descent_along_closed_loop(self, ref_grid, ref_params):
        traj = RunConfig().trajectory(ref_grid)
        gains = GainProfile.constant(ref_grid)
        wrench_env = Wrench.zero(ref_grid.n_nodes)
        state = make_initial_state(ref_grid, "axial_spin")
        dt = 2e-4
        cfg = IntegratorConfig(dt=dt)
        values = []
        for i in range(2000):
            t = i * dt
            if i % 100 == 0:
                errs = tracking_errors(state, traj, t, ref_grid)
                v1, v2 = lyapunov_value(errs, state, traj, t, gains, ref_grid)
                values.append(v1[1:] + v2[1:])
            state = step(
                state,
                closed_loop_rhs(traj, t, gains, ref_params, ref_grid, wrench_env),
                cfg,
                step_index=i,
                t=t,
            )
        values = np.array(values)
        drops = values[1:] - values[:-1]
        assert np.max(drops) <= 1e-8  # non-increasing at every node and instant

    def test_rotational_state_does_not_affect_position_loop(
        self, ref_grid, ref_params, rng
    ):
        traj = RunConfig().trajectory(ref_grid)
        gains = GainProfile.constant(ref_grid)
        wrench_env = Wrench.zero(ref_grid.n_nodes)
        base = smooth_random_state(ref_grid, rng, amp=0.1)
        twisted = base.copy()
        twisted.rot = base.rot @ exp_so3(rng.normal(0.0, 0.3, size=(ref_grid.n_nodes, 3)))
        twisted.rot[0] = np.eye(3)
        twisted.omega = base.omega + rng.normal(0.0, 0.5, size=(ref_grid.n_nodes, 3))
        twisted.omega[0] = 0.0
        cfg = IntegratorConfig(dt=2e-4)
        a, b = base, twisted
        for i in range(50):
            t = i * cfg.dt
            a = step(a, closed_loop_rhs(traj, t, gains, ref_params, ref_grid, wrench_env), cfg, step_index=i, t=t)
            b = step(b, closed_loop_rhs(traj, t, gains, ref_params, ref_grid, wrench_env), cfg, step_index=i, t=t)
        assert np.max(np.abs(a.p - b.p)) < 1e-10
        assert np.max(np.abs(a.v - b.v)) < 1e-10


class TestTrajectoryConsistency:
    def test_swing_satisfies_kinematics(self, ref_grid):
        traj = RunConfig().trajectory(ref_grid)
        res_p, res_rot = check_trajectory_consistency(
            traj, ref_grid.s, times=np.linspace(0.0, 2.0, 7)
        )
        assert res_p < 1e-8 and res_rot < 1e-8

    def test_zero_amplitude_is_static(self, ref_grid):
        traj = SwingTrajectory(0.0, 0.5, 0.3, 0.5)
        ref = traj.evaluate(ref_grid.s, 1.23)
        assert np.allclose(ref.p[:, 2], ref_grid.s) and np.max(np.abs(ref.v)) == 0.0
        assert np.max(np.abs(ref.omega)) == 0.0 and np.max(np.abs(ref.omega_t)) == 0.0

    def test_planarity(self, ref_grid):
        traj = RunConfig().trajectory(ref_grid)
        for t in (0.0, 0.3, 1.7):
            ref = traj.evaluate(ref_grid.s, t)
            assert np.max(np.abs(ref.p[:, 0])) == 0.0

    def test_initial_reference_differs_from_plant(self, ref_grid):
        traj = RunConfig().trajectory(ref_grid)
        state = make_initial_state(ref_grid, "axial_spin")
        ref = traj.evaluate(ref_grid.s, 0.0)
        assert np.max(np.abs(ref.p - state.p)) > 0.1

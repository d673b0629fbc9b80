import tracemalloc
from itertools import combinations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from softrod import (
    EstimatorState,
    Grid,
    IntegratorConfig,
    NoiseModel,
    NonFiniteState,
    RodParams,
    RunConfig,
    Wrench,
    dynamics_rhs,
    RodState,
    StateRates,
    ekf_step,
    filter_update,
    linearize_dynamics,
    make_initial_state,
    regularized_gain,
    riccati_step,
    step,
    strains,
)
from softrod.discretize import _first_derivative_matrix
from softrod.estimate import (
    CovarianceBlowup,
    LinearizedOperator,
    _held_buffer,
    strain_perturbation,
)
from softrod.geometry import exp_so3, hat, log_so3
from softrod.rod import strain_profile

from conftest import band_to_dense, smooth_random_state


def apply_perturbation(state, dxi):
    """State displaced by a stacked tangent vector [dp; deta; dv; dw]."""
    n = state.n_nodes
    dp, deta, dv, dw = dxi.reshape(4, n, 3)
    new = state.copy()
    new.p = state.p + dp
    new.rot = state.rot @ exp_so3(deta)
    new.v = state.v + dv
    new.omega = state.omega + dw
    return new


def directional_difference(state, dxi, wrench, params, grid, h_eta=1e-5):
    """``F(x (+) dxi) - F(x)`` expressed in the stacked tangent coordinates.

    Flat slots are plain differences of the plant rates.  The
    rotation-perturbation slot is the time rate of ``log(R_nom^T R_pert)``
    with both frames flowing under their own plant tangents, estimated by a
    central difference in the flow parameter.
    """
    pert = apply_perturbation(state, dxi)
    r0 = dynamics_rhs(state, wrench, params, grid)
    r1 = dynamics_rhs(pert, wrench, params, grid)
    rates = []
    for sign in (h_eta, -h_eta):
        rn = state.rot @ exp_so3(sign * r0.rot)
        rp = pert.rot @ exp_so3(sign * r1.rot)
        rates.append(log_so3(np.matmul(rn.transpose(0, 2, 1), rp)))
    deta_slot = (rates[0] - rates[1]) / (2.0 * h_eta)
    return np.concatenate(
        [(r1.p - r0.p).ravel(), deta_slot.ravel(), (r1.v - r0.v).ravel(), (r1.omega - r0.omega).ravel()]
    )


def lu_reference_riccati(p, op, noise, dt, measurement_dt):
    """Riccati refresh with the Cayley congruence applied by two LU solves.

    ``P_pred = (I - h)^-1 (I + h) P (I + h)^T (I - h)^-T`` with ``h = dt A/2``,
    followed by the same regularized contraction and symmetrization as
    ``riccati_step`` (no cap).
    """
    dim = p.shape[0]
    m = 3 * op.n_nodes
    half = (0.5 * dt) * op.dense
    lu = scipy.linalg.lu_factor(np.eye(dim) - half)
    plus = np.eye(dim) + half
    x = scipy.linalg.lu_solve(lu, plus @ p)
    p_pred = scipy.linalg.lu_solve(lu, plus @ x.T)
    s = measurement_dt * (noise.meas_var * np.eye(m)) + dt * p_pred[:m, :m]
    gain_reg = np.linalg.solve(s.T, p_pred[:, :m].T).T
    p_new = p_pred - dt * gain_reg @ p_pred[:m, :]
    return 0.5 * (p_new + p_new.T)


@pytest.fixture
def small_setup(rng):
    grid = Grid.from_length(0.5, 0.05)  # 11 nodes keeps the operator small
    params = RodParams(
        length=0.5, radius=0.02, density=2000.0, youngs_modulus=3.0e7, shear_modulus=1.0e7
    )
    state = smooth_random_state(grid, rng, amp=0.05)
    wrench = Wrench(rng.normal(size=(grid.n_nodes, 3)), rng.normal(size=(grid.n_nodes, 3)))
    return grid, params, state, wrench


class TestStrainPerturbation:
    def test_matches_finite_differences(self, small_setup, rng):
        grid, params, state, _ = small_setup
        n = grid.n_nodes
        base = strain_profile(state, grid)
        pert = strain_perturbation(state, base, grid)
        eps = 1e-7
        dxi = np.zeros(12 * n)
        dxi[: 6 * n] = rng.normal(size=6 * n)
        dxi *= eps / np.linalg.norm(dxi)
        displaced = apply_perturbation(state, dxi)
        new = strain_profile(displaced, grid)
        dp = dxi[: 3 * n]
        deta = dxi[3 * n : 6 * n]
        for name, (op_p, op_eta) in {
            "q": (pert.dq_p, pert.dq_eta),
            "q_s": (pert.dqs_p, pert.dqs_eta),
            "u": (None, pert.du_eta),
            "u_s": (None, pert.dus_eta),
        }.items():
            actual = (getattr(new, name) - getattr(base, name)).ravel()
            predicted = band_to_dense(op_eta) @ deta
            if op_p is not None:
                predicted = predicted + band_to_dense(op_p) @ dp
            scale = max(np.linalg.norm(actual), 1e-30)
            assert np.linalg.norm(predicted - actual) / scale < 1e-5, name

    def test_velocity_independence(self, small_setup):
        grid, params, state, _ = small_setup
        pert1 = strain_perturbation(state, strain_profile(state, grid), grid)
        other = state.copy()
        other.v = other.v + 1.0
        other.omega = other.omega - 0.5
        pert2 = strain_perturbation(other, strain_profile(other, grid), grid)
        assert np.array_equal(pert1.dq_p, pert2.dq_p)
        assert np.array_equal(pert1.du_eta, pert2.du_eta)

    @pytest.mark.parametrize("n_nodes", [5, 20, 41])
    def test_node_axis_stencil_matches_dense_stencil(self, n_nodes, ref_params, rng):
        grid, state, _ = perturbed_swing_operator(n_nodes, ref_params, rng)
        pert = strain_perturbation(state, strain_profile(state, grid), grid)
        dv = np.kron(_first_derivative_matrix(n_nodes, grid.ds), np.eye(3))
        dq_p = band_to_dense(state.rot.transpose(0, 2, 1)[:, None]) @ dv
        dq_p[-3:] = 0.0
        assert np.array_equal(band_to_dense(pert.dq_p), dq_p)  # one nonzero term per entry
        for name, expected in (
            ("dqs_p", dv @ band_to_dense(pert.dq_p)),
            ("dqs_eta", dv @ band_to_dense(pert.dq_eta)),
            ("dus_eta", dv @ band_to_dense(pert.du_eta)),
        ):
            # the (3n)^2 product may add a row's stencil terms in another
            # order (its BLAS kernel's k unrolling), so they agree to rounding
            scale = np.max(np.abs(expected))
            np.testing.assert_allclose(
                band_to_dense(getattr(pert, name)), expected, rtol=0.0, atol=1e-15 * scale, err_msg=name
            )


class TestLinearizedOperator:
    def test_blocks_at_straight_rest(self, ref_params):
        grid = Grid.from_length(0.5, 0.03125)
        n = grid.n_nodes
        m = 3 * n
        state = make_initial_state(grid, "straight_at_rest")
        wrench = Wrench.zero(n)
        wrench.l = np.tile([0.2, -0.1, 0.3], (n, 1))
        op = linearize_dynamics(state, wrench, params=ref_params, grid=grid)
        dense = op.dense

        dv = np.kron(_first_derivative_matrix(n, grid.ds), np.eye(3))
        kl = ref_params.stiffness_linear
        ka = ref_params.stiffness_angular
        jrho_inv = ref_params.rotational_mass_inv
        q_ref_hat = hat(np.array([0.0, 0.0, 1.0]))

        def rowzero_tip(mat):
            out = mat.copy()
            out[-3:] = 0.0
            return out

        def rowzero_base(mat):
            out = mat.copy()
            out[:3] = 0.0
            return out

        def bd_const(mat3):
            return np.kron(np.eye(n), mat3)

        # spin-rate block vanishes at rest, omega block is the identity
        assert np.max(np.abs(dense[m : 2 * m, m : 2 * m])) == 0.0
        eta_rows = rowzero_base(np.eye(m))
        assert np.array_equal(dense[m : 2 * m, 3 * m :], eta_rows)
        # velocity rows: I into p-rate, zero into (v, w) coupling
        assert np.array_equal(dense[:m, 2 * m : 3 * m], rowzero_base(np.eye(m)))
        assert np.max(np.abs(dense[2 * m : 3 * m, 2 * m :])) == 0.0

        expected_a31 = rowzero_base(bd_const(kl) @ dv @ rowzero_tip(dv)) / ref_params.linear_mass
        assert np.allclose(dense[2 * m : 3 * m, :m], expected_a31, atol=1e-9)

        expected_a32 = (
            rowzero_base(bd_const(kl) @ dv @ rowzero_tip(bd_const(q_ref_hat)))
            / ref_params.linear_mass
        )
        assert np.allclose(dense[2 * m : 3 * m, m : 2 * m], expected_a32, atol=1e-9)

        expected_a41 = rowzero_base(bd_const(jrho_inv @ q_ref_hat @ kl) @ rowzero_tip(dv))
        assert np.allclose(dense[3 * m :, :m], expected_a41, atol=1e-9)

        expected_a42 = rowzero_base(
            bd_const(jrho_inv @ ka) @ dv @ rowzero_tip(dv)
            + bd_const(jrho_inv @ q_ref_hat @ kl) @ rowzero_tip(bd_const(q_ref_hat))
            + bd_const(jrho_inv) @ band_to_dense(hat(wrench.l)[:, None])
        )
        assert np.allclose(dense[3 * m :, m : 2 * m], expected_a42, atol=1e-6)

        # omega-omega coupling vanishes at rest
        assert np.max(np.abs(dense[3 * m :, 3 * m :])) == 0.0

    def test_directional_difference_oracle(self, small_setup, rng):
        grid, params, state, wrench = small_setup
        op = linearize_dynamics(state, wrench, params, grid)
        direction = rng.normal(size=12 * grid.n_nodes)
        direction /= np.linalg.norm(direction)
        rels = []
        for mag in (1e-4, 1e-6, 1e-8):
            dxi = mag * direction
            diff = directional_difference(state, dxi, wrench, params, grid)
            pred = op.dense @ dxi
            rels.append(np.linalg.norm(pred - diff) / np.linalg.norm(diff))
        assert rels[1] < 1e-3
        assert rels[0] > rels[1] > rels[2]
        slope = np.polyfit(np.log10([1e-4, 1e-6, 1e-8]), np.log10(rels), 1)[0]
        assert slope > 0.7  # first-order decay of the linearization remainder

    def test_rotation_slot_rows(self, small_setup, rng):
        # the rotation-perturbation rows alone: -hat(w) deta + dw
        grid, params, state, wrench = small_setup
        n = grid.n_nodes
        op = linearize_dynamics(state, wrench, params, grid)
        dxi = 1e-5 * rng.normal(size=12 * n)
        diff = directional_difference(state, dxi, wrench, params, grid)
        pred = op.dense @ dxi
        sl = slice(3 * n, 6 * n)
        denom = np.linalg.norm(diff[sl])
        assert np.linalg.norm(pred[sl] - diff[sl]) / denom < 1e-3

    def test_sparsity(self, small_setup):
        grid, params, state, wrench = small_setup
        op = linearize_dynamics(state, wrench, params, grid)
        nnz_per_row = np.count_nonzero(op.dense, axis=1)
        assert np.max(nnz_per_row) <= 12 * 5  # own node plus stencil neighbors

    def test_clamped_rows_zero(self, small_setup):
        grid, params, state, wrench = small_setup
        n = grid.n_nodes
        op = linearize_dynamics(state, wrench, params, grid)
        for blk in range(4):
            assert np.max(np.abs(op.dense[blk * 3 * n : blk * 3 * n + 3])) == 0.0


class TestRiccati:
    def make_noise(self, n, meas_var=0.02):
        return NoiseModel(n, meas_var)

    def test_scalar_closed_form(self):
        # with a zero operator the position variance follows the scalar
        # Riccati solution p(t) = p0 / (1 + p0 t / r_int) exactly, where
        # r_int = meas_var * dt is the continuous-equivalent intensity of
        # one measurement per step
        n = 4
        r_sample = 0.02
        noise = self.make_noise(n, meas_var=r_sample)
        op = LinearizedOperator.zeros(n)
        p0 = 1.0
        p = p0 * np.eye(12 * n)
        dt = 2e-4
        r_int = r_sample * dt
        for k in range(1, 501):
            p = riccati_step(p, op, noise, dt)
            expected = p0 / (1.0 + p0 * k * dt / r_int)
            p_block = np.diagonal(p)[: 3 * n]
            assert np.max(np.abs(p_block - expected)) < 1e-12 * expected + 1e-15
        # unobserved blocks keep their prior under a zero operator
        assert np.allclose(np.diagonal(p)[3 * n :], p0, atol=1e-12)

    def test_zero_fixed_point(self):
        n = 4
        noise = self.make_noise(n)
        op = LinearizedOperator.zeros(n)
        assert np.max(np.abs(riccati_step(np.zeros((12 * n, 12 * n)), op, noise, 2e-4))) == 0.0

    def test_monotone_position_variance_decrease(self):
        n = 4
        noise = self.make_noise(n)
        op = LinearizedOperator.zeros(n)
        p = 0.5 * np.eye(12 * n)
        prev = np.diagonal(p)[: 3 * n].copy()
        for _ in range(100):
            p = riccati_step(p, op, noise, 2e-4)
            now = np.diagonal(p)[: 3 * n]
            assert np.all(now < prev)
            prev = now.copy()

    def test_symmetry_and_psd_maintained(self, rng):
        grid = Grid.from_length(0.5, 0.1)  # 6 nodes
        params = RodParams(
            length=0.5, radius=0.02, density=2000.0, youngs_modulus=3.0e7, shear_modulus=1.0e7
        )
        state = smooth_random_state(grid, rng, amp=0.05)
        wrench = Wrench.zero(grid.n_nodes)
        op = linearize_dynamics(state, wrench, params, grid)
        noise = NoiseModel(grid.n_nodes, 0.02)
        p = 1e-4 * np.eye(12 * grid.n_nodes)
        for _ in range(1000):
            p = riccati_step(p, op, noise, 2e-4)
        asym = np.max(np.abs(p - p.T))
        assert asym < 1e-9
        assert np.linalg.eigvalsh(p).min() > -1e-8

    def test_process_noise_feeds_covariance(self):
        n = 4
        grid = Grid(n_nodes=n, ds=0.1)
        noise = NoiseModel(grid.n_nodes, 1e6, 1.0)
        op = LinearizedOperator.zeros(n)
        cov = riccati_step(np.zeros((12 * n, 12 * n)), op, noise, 1e-3)
        assert np.allclose(np.diagonal(cov), 1e-3, rtol=1e-6)

    def test_blowup_detected(self):
        n = 4
        noise = self.make_noise(n)
        op = LinearizedOperator.zeros(n)
        with pytest.raises(CovarianceBlowup):
            riccati_step(2e6 * np.eye(12 * n), op, noise, 2e-4)

    @pytest.mark.parametrize("node", [1, 3])
    def test_blowup_names_the_field_and_node(self, node):
        n = 4
        prior = 1e-6 * np.eye(12 * n)
        prior[9 * n + 3 * node + 1, 9 * n + 3 * node + 1] = 2e6  # omega_y at ``node``
        with pytest.raises(
            CovarianceBlowup, match=f"exceeded cap 1.0e\\+06 at omega node {node}; filter diverged"
        ):
            riccati_step(prior, LinearizedOperator.zeros(n), self.make_noise(n), 2e-4)

    @pytest.mark.parametrize("where", ["prior", "operator"])
    def test_nan_input_raises_blowup(self, where):
        n = 4
        noise = self.make_noise(n)
        op = LinearizedOperator.zeros(n)
        prior = np.eye(12 * n)
        if where == "prior":
            prior[5, 5] = np.nan
        else:
            op.xx[1, 2, 2] = np.nan  # entry (5, 5) of the dense operator
        with pytest.raises(CovarianceBlowup, match="non-finite"):
            riccati_step(prior, op, noise, 2e-4)

    def test_singular_transition_raises_blowup(self):
        n = 4
        dt = 2e-4
        noise = self.make_noise(n)
        op = LinearizedOperator.zeros(n)
        op.xx[2, 1, 1] = 2.0 / dt  # entry (7, 7): I - dt A/2 has a zero pivot
        with pytest.raises(CovarianceBlowup, match="singular"):
            riccati_step(np.eye(12 * n), op, noise, dt)

    @pytest.mark.parametrize("n_nodes", [21, 41])
    def test_matches_lu_congruence_reference(self, n_nodes, ref_params, rng):
        # perturbed swing state at the filter's refresh interval (stride 10)
        grid = Grid.from_length(0.5, 0.5 / (n_nodes - 1))
        ref = RunConfig().trajectory(grid).evaluate(grid.s, 0.3)
        bump = smooth_random_state(grid, rng, amp=0.005)
        state = RodState(
            ref.p + bump.p - np.outer(grid.s, [0.0, 0.0, 1.0]),
            ref.rot @ bump.rot,
            ref.v + bump.v,
            ref.omega + bump.omega,
        )
        op = linearize_dynamics(state, Wrench.zero(n_nodes), ref_params, grid)
        noise = NoiseModel(grid.n_nodes, 0.02)
        dt, meas_dt = 2e-3, 2e-4
        p = 1e-6 * np.eye(12 * n_nodes)
        for _ in range(3):  # correlate the prior the way live refreshes do
            p = lu_reference_riccati(p, op, noise, dt, meas_dt)
        expected = lu_reference_riccati(p, op, noise, dt, meas_dt)
        actual = riccati_step(p, op, noise, dt, measurement_dt=meas_dt)
        assert np.max(np.abs(actual - expected)) / np.max(np.abs(expected)) <= 1e-10


def dense_cayley_riccati(p, op, noise, dt, measurement_dt, q=0.0):
    """Riccati refresh with the Cayley transition formed densely.

    ``Phi = 2 (I - dt A/2)^-1 - I`` from one (12n, 12n) inverse, applied as
    ``(Phi P) Phi^T``, plus the process noise ``dt q I``, followed by the same
    regularized contraction and symmetrization as ``riccati_step`` (no cap),
    with the gain from a solve.
    """
    dim = p.shape[0]
    m = 3 * op.n_nodes
    phi = 2.0 * scipy.linalg.inv(np.eye(dim) - (0.5 * dt) * op.dense) - np.eye(dim)
    p_pred = (phi @ p) @ phi.T + dt * q * np.eye(dim)
    s = measurement_dt * (noise.meas_var * np.eye(m)) + dt * p_pred[:m, :m]
    gain_reg = np.linalg.solve(s.T, p_pred[:, :m].T).T
    p_new = p_pred - dt * gain_reg @ p_pred[:m, :]
    return 0.5 * (p_new + p_new.T)


def transition_pattern(n):
    """Entries of the (12n, 12n) operator that ``riccati_step`` allows to be nonzero.

    Over ``x = [p; eta]`` and ``z = [v; omega]``: x-x and z-z 3x3-block
    diagonal, x-z diagonal, z-x dense.
    """
    k = 6 * n
    i, j = np.indices((12 * n, 12 * n))
    x_row, x_col = i < k, j < k
    same_block = (x_row == x_col) & (i // 3 == j // 3)
    return same_block | (x_row & ~x_col & (j - i == k)) | (~x_row & x_col)


def perturbed_swing_operator(n_nodes, params, rng):
    """Operator at a perturbed swing state (nonzero omega) under a random wrench."""
    grid = Grid.from_length(0.5, 0.5 / (n_nodes - 1))
    ref = RunConfig().trajectory(grid).evaluate(grid.s, 0.3)
    bump = smooth_random_state(grid, rng, amp=0.005)
    state = RodState(
        ref.p + bump.p - np.outer(grid.s, [0.0, 0.0, 1.0]),
        ref.rot @ bump.rot,
        ref.v + bump.v,
        ref.omega + bump.omega,
    )
    wrench = Wrench(rng.normal(size=(n_nodes, 3)), rng.normal(size=(n_nodes, 3)))
    return grid, state, linearize_dynamics(state, wrench, params, grid)


def widened(op, reach):
    """``op`` with its z-x band zero-padded to half-width ``reach``."""
    pad = reach - op.zx.shape[3] // 2
    return op._replace(zx=np.pad(op.zx, [(0, 0)] * 3 + [(pad, pad)] + [(0, 0)] * 2))


class TestStructuredTransition:
    DT, MEAS_DT = 2e-3, 2e-4

    def correlated_prior(self, op, noise):
        p = 1e-6 * np.eye(12 * op.n_nodes)
        for _ in range(3):  # correlate the prior the way live refreshes do
            p = dense_cayley_riccati(p, op, noise, self.DT, self.MEAS_DT)
        return p

    @pytest.mark.parametrize("n_nodes", [21, 41, 81])
    def test_matches_dense_transition(self, n_nodes, ref_params, rng):
        grid, state, op = perturbed_swing_operator(n_nodes, ref_params, rng)
        assert np.max(np.abs(state.omega)) > 0.0
        noise = NoiseModel(grid.n_nodes, 0.02)
        p = self.correlated_prior(op, noise)
        expected = dense_cayley_riccati(p, op, noise, self.DT, self.MEAS_DT)
        actual = riccati_step(p, op, noise, self.DT, measurement_dt=self.MEAS_DT)
        assert np.max(np.abs(actual - expected)) / np.max(np.abs(expected)) <= 1e-12

    def test_process_noise_matches_dense_transition(self, ref_params, rng):
        grid, _, op = perturbed_swing_operator(21, ref_params, rng)
        noise = NoiseModel(grid.n_nodes, 0.02, 1e-6)
        p = self.correlated_prior(op, noise)
        expected = dense_cayley_riccati(p, op, noise, self.DT, self.MEAS_DT, q=noise.process_var)
        actual = riccati_step(p, op, noise, self.DT, measurement_dt=self.MEAS_DT)
        quiet = NoiseModel(grid.n_nodes, 0.02)
        without = riccati_step(p, op, quiet, self.DT, measurement_dt=self.MEAS_DT)
        assert not np.array_equal(actual, without)  # the process noise is live
        assert np.max(np.abs(actual - expected)) / np.max(np.abs(expected)) <= 1e-12

    @pytest.mark.parametrize("n_nodes", [11, 21])
    def test_operator_is_zero_off_the_pattern(self, n_nodes, ref_params, rng):
        _, _, op = perturbed_swing_operator(n_nodes, ref_params, rng)
        assert not np.any(op.dense[~transition_pattern(n_nodes)])
        k = 6 * n_nodes
        for rows in (slice(0, k), slice(k, 2 * k)):
            for cols in (slice(0, k), slice(k, 2 * k)):
                assert np.any(op.dense[rows, cols])  # every block of the pattern is live

    def test_refresh_leaves_its_inputs_unchanged(self, ref_params, rng):
        grid, _, op = perturbed_swing_operator(21, ref_params, rng)
        noise = NoiseModel(grid.n_nodes, 0.02, 1e-6)
        prior = self.correlated_prior(op, noise)
        before = [a.tobytes() for a in (prior, *op)]
        p = riccati_step(prior, op, noise, self.DT, measurement_dt=self.MEAS_DT)
        assert [a.tobytes() for a in (prior, *op)] == before
        assert not np.shares_memory(p, prior)
        assert np.array_equal(p, p.T)

    def test_singular_schur_complement_raises_blowup(self):
        n = 4
        op = LinearizedOperator.zeros(n)
        op.zz[1, 1, 1] = 2.0 / self.DT  # v row 6n + 4 on the diagonal: S has a zero pivot
        noise = NoiseModel(n, 0.02)
        with pytest.raises(CovarianceBlowup, match="singular"):
            riccati_step(np.eye(12 * n), op, noise, self.DT)

    def test_overflowing_schur_complement_raises_blowup(self):
        n = 4
        op = LinearizedOperator.zeros(n)
        # finite and on the pattern (a v row's p column and back), but the
        # product E D1^-1 C in S = D2 - E D1^-1 C overflows
        # entries (6n + 4, 4) and (4, 6n + 4): node 1's v_y row and p_y column
        op.zx[0, 0, 1, op.zx.shape[3] // 2, 1, 1] = op.xz[4] = 1e300
        noise = NoiseModel(n, 0.02)
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(CovarianceBlowup, match="non-finite transition .* infs or NaNs"):
                riccati_step(np.eye(12 * n), op, noise, self.DT)

    def assert_matches_dense(self, grid, op):
        noise = NoiseModel(grid.n_nodes, 0.02)
        p = self.correlated_prior(op, noise)
        expected = dense_cayley_riccati(p, op, noise, self.DT, self.MEAS_DT)
        actual = riccati_step(p, op, noise, self.DT, measurement_dt=self.MEAS_DT)
        assert np.max(np.abs(actual - expected)) / np.max(np.abs(expected)) <= 1e-12

    # the operator reaches 3 nodes, so these leave the last run of 3 padded
    @pytest.mark.parametrize("n_nodes", [20, 22])
    def test_padded_last_run_matches_dense_transition(self, n_nodes, ref_params, rng):
        grid, _, op = perturbed_swing_operator(n_nodes, ref_params, rng)
        assert n_nodes % 3
        self.assert_matches_dense(grid, op)

    # a band of half-width 7 makes runs of 7 nodes, and a v row against a p
    # column 7 nodes away uses all of it; at n = 9 the last run is padded and
    # the row is the clamped node's, here made live
    @pytest.mark.parametrize(("n_nodes", "row_node", "col_node"), [(21, 10, 3), (9, 0, 7)])
    def test_reach_is_read_from_the_operator(self, n_nodes, row_node, col_node, ref_params, rng):
        grid, _, op = perturbed_swing_operator(n_nodes, ref_params, rng)
        op = widened(op, 7)
        op.zx[0, 0, row_node, col_node - row_node + 7, 0, 1] = 0.1 * np.max(np.abs(op.zx))
        op.xz[3 * row_node] = 1.0  # p rate from v; 1 already off node 0
        self.assert_matches_dense(grid, op)

    def test_dense_coupling_matches_dense_transition(self, ref_params, rng):
        # a dense E in a band of half-width n - 1 makes runs of n - 1 nodes
        n = 11
        grid, _, op = perturbed_swing_operator(n, ref_params, rng)
        op = widened(op, n - 1)
        col = np.arange(n)[:, None] + np.arange(2 * n - 1) - (n - 1)
        in_grid = ((col >= 0) & (col < n))[:, :, None, None]
        op.zx[...] += 1e4 * rng.normal(size=op.zx.shape) * in_grid
        self.assert_matches_dense(grid, op)

    def test_singular_pivot_names_its_run(self):
        n = 8
        op = LinearizedOperator.zeros(n)
        op = op._replace(zx=op.zx[:, :, :, 1:-1])  # a band of half-width 2: runs of 2 nodes
        op.zz[5, 1, 1] = 2.0 / self.DT  # zero pivot, node 5
        noise = NoiseModel(n, 0.02)
        with pytest.raises(CovarianceBlowup, match="singular transition I - dt A/2 at nodes 4–5"):
            riccati_step(np.eye(12 * n), op, noise, self.DT)

    def test_regularized_gain_matches_solve_form(self, ref_params, rng):
        grid, _, op = perturbed_swing_operator(21, ref_params, rng)
        noise = NoiseModel(grid.n_nodes, 0.02)
        p = self.correlated_prior(op, noise)
        m = 3 * grid.n_nodes
        s = self.MEAS_DT * (noise.meas_var * np.eye(m) + p[:m, :m])
        expected = np.linalg.solve(s.T, p[:, :m].T).T
        actual = regularized_gain(p, noise, self.MEAS_DT)
        np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=0.0)


def traced_peak(call):
    """Peak bytes tracemalloc sees allocated during ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRefreshBuffers:
    DT, MEAS_DT = 2e-3, 2e-4

    def refresh(self, op, prior):
        noise = NoiseModel(op.n_nodes, 0.02)
        return riccati_step(prior, op, noise, self.DT, measurement_dt=self.MEAS_DT)

    def test_allocation_budget(self, ref_params, rng):
        n = 41
        grid, state, op = perturbed_swing_operator(n, ref_params, rng)
        wrench = Wrench(rng.normal(size=(n, 3)), rng.normal(size=(n, 3)))
        prior = 1e-6 * np.eye(12 * n)
        self.refresh(op, prior)  # warm: the held buffer and the cached structure
        refresh_peak = traced_peak(lambda: self.refresh(op, prior))
        linearize_peak = traced_peak(lambda: linearize_dynamics(state, wrench, ref_params, grid))
        assert refresh_peak <= 2.5 * prior.nbytes, refresh_peak / prior.nbytes
        assert linearize_peak < (6 * n) ** 2 * 8, linearize_peak / ((6 * n) ** 2 * 8)

    def test_held_buffer_is_never_returned(self, ref_params, rng):
        ops = {n: perturbed_swing_operator(n, ref_params, rng)[2] for n in (41, 21)}
        priors = {n: 1e-6 * np.eye(12 * n) for n in ops}
        results = [self.refresh(ops[n], priors[n]) for n in (41, 21, 41)]
        assert results[2].tobytes() == results[0].tobytes()
        held = [_held_buffer(p.shape) for p in priors.values()]
        for a, b in combinations(results + held, 2):
            assert not np.shares_memory(a, b)
        results[2][...] = np.nan
        assert self.refresh(ops[41], priors[41]).tobytes() == results[0].tobytes()


class TestNoiseModel:
    @pytest.mark.parametrize("meas_var", [0.0, -1.0, np.nan])
    def test_meas_var_must_be_positive(self, meas_var):
        with pytest.raises(ValueError, match="meas_var must be positive"):
            NoiseModel(5, meas_var)

    @pytest.mark.parametrize("process_var", [-1e-6, np.nan])
    def test_process_var_must_be_nonnegative(self, process_var):
        with pytest.raises(ValueError, match="process_var must be nonnegative"):
            NoiseModel(5, 0.02, process_var)


class TestKalmanGain:
    def test_zero_covariance_zero_gain(self):
        grid = Grid(n_nodes=4, ds=0.1)
        noise = NoiseModel(grid.n_nodes, 0.02)
        gain = regularized_gain(np.zeros((48, 48)), noise, 2e-4)
        assert np.max(np.abs(gain)) == 0.0

    def test_uncoupled_fields_receive_no_innovation(self, rng):
        grid = Grid(n_nodes=4, ds=0.1)
        noise = NoiseModel(grid.n_nodes, 0.02)
        cov = np.zeros((48, 48))
        cov[:12, :12] = np.eye(12) * 0.3  # covariance touches positions only
        gain = regularized_gain(cov, noise, 2e-4)
        innovation = rng.normal(size=12)
        update = gain @ innovation
        assert np.max(np.abs(update[12:])) == 0.0
        assert np.max(np.abs(update[:12])) > 0.0


def block_innovation_rates(gain, innovation, n):
    """Innovation rates as four per-field row-block products: the bit-equality reference."""
    m = 3 * n
    return [(gain[i * m : (i + 1) * m] @ innovation).reshape(n, 3) for i in range(4)]


def reference_cycle(est, y, wrench, params, grid, noise, cfg, stride):
    """One filter cycle written out the long way: the bit-equality reference.

    ``filter_update`` supplies the covariance and the gain; the innovation
    rates, their per-field sum with the plant rates and the prediction step
    are spelled out here.
    """
    covariance, gain, _ = filter_update(
        est, y, lambda _t: wrench, params, grid, noise, cfg, riccati_stride=stride
    )
    innovation = (y - est.estimate.p).reshape(-1)
    c = StateRates(np.stack(block_innovation_rates(gain, innovation, grid.n_nodes)))

    def rhs(state, _t):
        r = dynamics_rhs(state, wrench, params, grid)
        return StateRates(np.stack((r.p + c.p, r.rot + c.rot, r.v + c.v, r.omega + c.omega)))

    new = step(est.estimate, rhs, cfg, step_index=est.step_count, t=est.step_count * cfg.dt)
    return EstimatorState(new, covariance, est.step_count + 1, gain)


def never_called(_t):
    raise AssertionError("the wrench was evaluated outside a Riccati refresh")


class TestInnovationRates:
    @settings(deadline=None, max_examples=40)
    @given(st.integers(3, 30), st.integers(0, 2**32 - 1))
    def test_batched_product_matches_row_blocks(self, n, seed):
        rng = np.random.default_rng(seed)
        grid = Grid(n_nodes=n, ds=0.1)
        state = make_initial_state(grid, "straight_at_rest")
        # the (12n, 3n) gain in the column-major layout regularized_gain returns
        gain = rng.normal(size=(3 * n, 12 * n)).T
        est = EstimatorState(state, np.zeros((12 * n, 12 * n)), step_count=1, gain=gain)
        y = state.p + rng.normal(size=(n, 3))
        noise = NoiseModel(grid.n_nodes, 0.02)
        cfg = IntegratorConfig(dt=2e-4)
        # held gain: the wrench is never evaluated
        _, held, rates = filter_update(est, y, never_called, None, grid, noise, cfg, riccati_stride=2)
        assert held is gain
        expected = block_innovation_rates(gain, (y - state.p).reshape(-1), n)
        for actual, reference in zip(rates, expected):
            assert np.array_equal(actual, reference)


class TestEstimatorStateAdvanced:
    def test_counts_the_step(self):
        grid = Grid(n_nodes=4, ds=0.1)
        est = EstimatorState.initialize(make_initial_state(grid, "straight_at_rest"))
        gain = np.zeros((48, 12))
        nxt = est.advanced(est.estimate, est.covariance, gain)
        assert nxt.step_count == est.step_count + 1
        assert nxt.gain is gain and nxt.covariance is est.covariance

    def test_nan_position_raises(self):
        grid = Grid(n_nodes=4, ds=0.1)
        est = EstimatorState.initialize(make_initial_state(grid, "straight_at_rest"))
        bad = est.estimate.copy()
        bad.p[2, 1] = np.nan
        with pytest.raises(NonFiniteState, match="estimator p field"):
            est.advanced(bad, est.covariance, None)

    def test_nan_angular_velocity_raises(self):
        # every field is checked, not only the measured one
        grid = Grid(n_nodes=4, ds=0.1)
        est = EstimatorState.initialize(make_initial_state(grid, "straight_at_rest"))
        bad = est.estimate.copy()
        bad.omega[1, 2] = np.nan
        with pytest.raises(NonFiniteState, match="^estimator omega field blew up at node 1$") as info:
            est.advanced(bad, est.covariance, None)
        assert info.value.where == "omega at node 1"


class TestEkfStep:
    def setup_run(self, n_nodes=11):
        grid = Grid.from_length(0.5, 0.5 / (n_nodes - 1))
        params = RodParams(
            length=0.5, radius=0.02, density=2000.0, youngs_modulus=3.0e7, shear_modulus=1.0e7
        )
        noise = NoiseModel(grid.n_nodes, 0.02)
        cfg = IntegratorConfig(dt=2e-4)
        return grid, params, noise, cfg

    def test_degenerate_filter_replays_plant(self):
        grid, params, noise, cfg = self.setup_run()
        plant = make_initial_state(grid, "axial_spin")
        est = EstimatorState.initialize(plant, covariance_scale=0.0)
        wrench = Wrench.zero(grid.n_nodes)
        for i in range(200):
            y = plant.p.copy()
            est = ekf_step(est, y, wrench, params, grid, noise, cfg, riccati_stride=4)
            plant = step(plant, lambda st, _t: dynamics_rhs(st, wrench, params, grid), cfg, step_index=i)
        # every refresh of the zero prior returns an exact zero covariance and gain
        assert not est.covariance.any() and not est.gain.any()
        assert np.array_equal(est.estimate.p, plant.p)
        assert np.array_equal(est.estimate.rot, plant.rot)
        assert np.array_equal(est.estimate.v, plant.v)
        assert np.array_equal(est.estimate.omega, plant.omega)

    def test_exact_init_zero_noise_tracks_plant(self):
        # nonzero prior covariance but zero measurement noise: innovation
        # stays identically zero and the filter replays the plant
        grid, params, noise, cfg = self.setup_run()
        plant = make_initial_state(grid, "axial_spin")
        est = EstimatorState.initialize(plant, covariance_scale=1e-6)
        wrench = Wrench.zero(grid.n_nodes)
        for i in range(300):
            y = plant.p.copy()
            est = ekf_step(est, y, wrench, params, grid, noise, cfg, riccati_stride=5)
            plant = step(plant, lambda st, _t: dynamics_rhs(st, wrench, params, grid), cfg, step_index=i)
        assert np.array_equal(est.estimate.p, plant.p)
        assert np.array_equal(est.estimate.v, plant.v)

    def test_static_rod_filtering_beats_raw_measurements(self):
        # a precise prior keeps the filter inside its linear-validity regime
        # (the stiffness couplings amplify loose isotropic priors into huge
        # velocity/rate covariances); the innovation path must then absorb
        # heavy position noise without corrupting the estimate
        grid, params, noise, cfg = self.setup_run(n_nodes=9)
        rng = np.random.default_rng(42)
        plant = make_initial_state(grid, "straight_at_rest")
        est = EstimatorState(plant.copy(), 1e-8 * np.eye(12 * grid.n_nodes))
        wrench = Wrench.zero(grid.n_nodes)
        errors = []
        for i in range(10_000):
            y = plant.p + rng.normal(0.0, np.sqrt(0.02), size=plant.p.shape)
            est = ekf_step(est, y, wrench, params, grid, noise, cfg, riccati_stride=10)
            if i >= 5000:
                errors.append(est.estimate.p - plant.p)
        error_var = float(np.mean(np.square(errors)))
        assert error_var < 0.25 * 0.02  # well below the raw measurement variance

    def test_live_noisy_cycle_matches_reference_cycle(self):
        grid, params, noise, cfg = self.setup_run()
        rng = np.random.default_rng(7)
        plant = make_initial_state(grid, "axial_spin")
        wrench = Wrench(
            np.tile([0.0, 0.0, -9.81 * params.linear_mass], (grid.n_nodes, 1)),
            np.zeros((grid.n_nodes, 3)),
        )
        est = EstimatorState.initialize(plant, covariance_scale=1e-6)
        ref = est
        for _ in range(25):
            y = plant.p + rng.normal(0.0, np.sqrt(0.02), size=plant.p.shape)
            est = ekf_step(est, y, wrench, params, grid, noise, cfg, riccati_stride=10)
            ref = reference_cycle(ref, y, wrench, params, grid, noise, cfg, stride=10)
            for name in ("p", "rot", "v", "omega"):
                assert np.array_equal(getattr(est.estimate, name), getattr(ref.estimate, name))
            assert np.array_equal(est.covariance, ref.covariance)
            assert np.array_equal(est.gain, ref.gain)
            assert est.step_count == ref.step_count
        assert np.max(np.abs(est.gain)) > 0.0  # the innovation path was live

    def test_gain_refresh_follows_stride(self):
        grid, params, noise, cfg = self.setup_run()
        plant = make_initial_state(grid, "axial_spin")
        est = EstimatorState.initialize(plant, covariance_scale=1e-6)
        wrench = Wrench.zero(grid.n_nodes)
        covs = []
        for i in range(6):
            y = plant.p.copy()
            est = ekf_step(est, y, wrench, params, grid, noise, cfg, riccati_stride=3)
            covs.append(est.covariance)
        assert covs[0] is covs[1] and covs[1] is covs[2]  # held between refreshes
        assert covs[2] is not covs[3]


class TestReconstruction:
    def test_position_noise_amplification(self, ref_grid, rng):
        # the central stencil turns iid position noise of std sigma into
        # strain noise of std ~ sigma / (sqrt(2) ds)
        base = make_initial_state(ref_grid, "straight_at_rest")
        q0, _ = strains(base, ref_grid)
        sigma = 1e-6
        samples = []
        for _ in range(300):
            noisy = base.copy()
            noisy.p = base.p + rng.normal(0.0, sigma, size=base.p.shape)
            q, _ = strains(noisy, ref_grid)
            samples.append((q - q0)[1:-1])
        measured = float(np.std(samples))
        expected = sigma / (np.sqrt(2.0) * ref_grid.ds)
        assert 0.7 * expected < measured < 1.3 * expected

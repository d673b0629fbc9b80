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
    Wrench,
    dynamics_rhs,
    RodState,
    StateRates,
    ekf_step,
    filter_update,
    linearize_dynamics,
    make_initial_state,
    make_swing_trajectory,
    regularized_gain,
    riccati_step,
    step,
    strains,
)
from softrod.estimate import (
    CovarianceBlowup,
    LinearizedOperator,
    _block_diag,
    strain_perturbation,
)
from softrod.geometry import exp_so3, hat, log_so3
from softrod.rod import strain_profile

from conftest import smooth_random_state


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
    s = measurement_dt * noise.meas_full() + dt * p_pred[:m, :m]
    gain_reg = np.linalg.solve(s.T, p_pred[:, :m].T).T
    p_new = p_pred - dt * gain_reg @ p_pred[:m, :]
    return 0.5 * (p_new + p_new.T)


def process_full_reference(noise):
    """Per-entry copy of the node blocks into the field-major layout."""
    n = noise.n_nodes
    out = np.zeros((12 * n, 12 * n))
    for i in range(n):
        for a in range(12):
            ga = (a // 3) * 3 * n + 3 * i + a % 3
            for b in range(12):
                gb = (b // 3) * 3 * n + 3 * i + b % 3
                out[ga, gb] = noise.process_cov[i, a, b]
    return out


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
        pert = strain_perturbation(state, grid)
        base = strain_profile(state, grid)
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
            predicted = op_eta @ deta
            if op_p is not None:
                predicted = predicted + op_p @ dp
            scale = max(np.linalg.norm(actual), 1e-30)
            assert np.linalg.norm(predicted - actual) / scale < 1e-5, name

    def test_velocity_independence(self, small_setup):
        grid, params, state, _ = small_setup
        pert1 = strain_perturbation(state, grid)
        other = state.copy()
        other.v = other.v + 1.0
        other.omega = other.omega - 0.5
        pert2 = strain_perturbation(other, grid)
        assert np.array_equal(pert1.dq_p, pert2.dq_p)
        assert np.array_equal(pert1.du_eta, pert2.du_eta)


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

        from softrod.estimate import _vector_stencil

        dv = _vector_stencil(n, grid.ds)
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
            + bd_const(jrho_inv) @ _block_diag(hat(wrench.l))
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
        grid = Grid(n_nodes=n, ds=0.1)
        return NoiseModel.isotropic(grid, meas_var=meas_var)

    def test_scalar_closed_form(self):
        # with a zero operator the position variance follows the scalar
        # Riccati solution p(t) = p0 / (1 + p0 t / r_int) exactly, where
        # r_int = meas_var * dt is the continuous-equivalent intensity of
        # one measurement per step
        n = 4
        r_sample = 0.02
        noise = self.make_noise(n, meas_var=r_sample)
        op = LinearizedOperator.zeros(n)
        state = make_initial_state(Grid(n_nodes=n, ds=0.1), "straight_at_rest")
        p0 = 1.0
        est = EstimatorState(state, p0 * np.eye(12 * n))
        dt = 2e-4
        r_int = r_sample * dt
        for k in range(1, 501):
            est.covariance = riccati_step(est, op, noise, dt)
            expected = p0 / (1.0 + p0 * k * dt / r_int)
            p_block = np.diagonal(est.covariance)[: 3 * n]
            assert np.max(np.abs(p_block - expected)) < 1e-12 * expected + 1e-15
        # unobserved blocks keep their prior under a zero operator
        assert np.allclose(np.diagonal(est.covariance)[3 * n :], p0, atol=1e-12)

    def test_zero_fixed_point(self):
        n = 4
        noise = self.make_noise(n)
        op = LinearizedOperator.zeros(n)
        state = make_initial_state(Grid(n_nodes=n, ds=0.1), "straight_at_rest")
        est = EstimatorState(state, np.zeros((12 * n, 12 * n)))
        assert np.max(np.abs(riccati_step(est, op, noise, 2e-4))) == 0.0

    def test_monotone_position_variance_decrease(self):
        n = 4
        noise = self.make_noise(n)
        op = LinearizedOperator.zeros(n)
        state = make_initial_state(Grid(n_nodes=n, ds=0.1), "straight_at_rest")
        est = EstimatorState(state, 0.5 * np.eye(12 * n))
        prev = np.diagonal(est.covariance)[: 3 * n].copy()
        for _ in range(100):
            est.covariance = riccati_step(est, op, noise, 2e-4)
            now = np.diagonal(est.covariance)[: 3 * n]
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
        noise = NoiseModel.isotropic(grid, meas_var=0.02)
        est = EstimatorState(state, 1e-4 * np.eye(12 * grid.n_nodes))
        for _ in range(1000):
            est.covariance = riccati_step(est, op, noise, 2e-4)
        asym = np.max(np.abs(est.covariance - est.covariance.T))
        assert asym < 1e-9
        assert np.linalg.eigvalsh(est.covariance).min() > -1e-8
        est.estimate.validate()

    def test_process_noise_feeds_covariance(self):
        n = 4
        grid = Grid(n_nodes=n, ds=0.1)
        noise = NoiseModel.isotropic(grid, meas_var=1e6, process_var=1.0)
        op = LinearizedOperator.zeros(n)
        state = make_initial_state(grid, "straight_at_rest")
        est = EstimatorState(state, np.zeros((12 * n, 12 * n)))
        cov = riccati_step(est, op, noise, 1e-3)
        assert np.allclose(np.diagonal(cov), 1e-3, rtol=1e-6)

    def test_blowup_detected(self):
        n = 4
        noise = self.make_noise(n)
        op = LinearizedOperator.zeros(n)
        state = make_initial_state(Grid(n_nodes=n, ds=0.1), "straight_at_rest")
        est = EstimatorState(state, 2e6 * np.eye(12 * n))
        with pytest.raises(CovarianceBlowup):
            riccati_step(est, op, noise, 2e-4)

    @pytest.mark.parametrize("where", ["prior", "operator"])
    def test_nan_input_raises_blowup(self, where):
        n = 4
        noise = self.make_noise(n)
        op = LinearizedOperator.zeros(n)
        state = make_initial_state(Grid(n_nodes=n, ds=0.1), "straight_at_rest")
        prior = np.eye(12 * n)
        (prior if where == "prior" else op.dense)[5, 5] = np.nan
        with pytest.raises(CovarianceBlowup, match="non-finite"):
            riccati_step(EstimatorState(state, prior), op, noise, 2e-4)

    def test_singular_transition_raises_blowup(self):
        n = 4
        dt = 2e-4
        noise = self.make_noise(n)
        op = LinearizedOperator.zeros(n)
        op.dense[7, 7] = 2.0 / dt  # I - dt A/2 has a zero pivot
        state = make_initial_state(Grid(n_nodes=n, ds=0.1), "straight_at_rest")
        with pytest.raises(CovarianceBlowup, match="singular"):
            riccati_step(EstimatorState(state, np.eye(12 * n)), op, noise, dt)

    @pytest.mark.parametrize("n_nodes", [21, 41])
    def test_matches_lu_congruence_reference(self, n_nodes, ref_params, rng):
        # perturbed swing state at the filter's refresh interval (stride 10)
        grid = Grid.from_length(0.5, 0.5 / (n_nodes - 1))
        ref = make_swing_trajectory(grid).evaluate(grid.s, 0.3)
        bump = smooth_random_state(grid, rng, amp=0.005)
        state = RodState(
            ref.p + bump.p - np.outer(grid.s, [0.0, 0.0, 1.0]),
            ref.rot @ bump.rot,
            ref.v + bump.v,
            ref.omega + bump.omega,
        )
        op = linearize_dynamics(state, Wrench.zero(n_nodes), ref_params, grid)
        noise = NoiseModel.isotropic(grid, meas_var=0.02)
        dt, meas_dt = 2e-3, 2e-4
        p = 1e-6 * np.eye(12 * n_nodes)
        for _ in range(3):  # correlate the prior the way live refreshes do
            p = lu_reference_riccati(p, op, noise, dt, meas_dt)
        expected = lu_reference_riccati(p, op, noise, dt, meas_dt)
        actual = riccati_step(EstimatorState(state, p), op, noise, dt, measurement_dt=meas_dt)
        assert np.max(np.abs(actual - expected)) / np.max(np.abs(expected)) <= 1e-10


def dense_cayley_riccati(p, op, noise, dt, measurement_dt):
    """Riccati refresh with the Cayley transition formed densely.

    ``Phi = 2 (I - dt A/2)^-1 - I`` from one (12n, 12n) inverse, applied as
    ``(Phi P) Phi^T``, followed by the same regularized contraction and
    symmetrization as ``riccati_step`` (no cap), with the gain from a solve.
    """
    dim = p.shape[0]
    m = 3 * op.n_nodes
    phi = 2.0 * scipy.linalg.inv(np.eye(dim) - (0.5 * dt) * op.dense) - np.eye(dim)
    p_pred = (phi @ p) @ phi.T
    s = measurement_dt * noise.meas_full() + dt * p_pred[:m, :m]
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
    ref = make_swing_trajectory(grid).evaluate(grid.s, 0.3)
    bump = smooth_random_state(grid, rng, amp=0.005)
    state = RodState(
        ref.p + bump.p - np.outer(grid.s, [0.0, 0.0, 1.0]),
        ref.rot @ bump.rot,
        ref.v + bump.v,
        ref.omega + bump.omega,
    )
    wrench = Wrench(rng.normal(size=(n_nodes, 3)), rng.normal(size=(n_nodes, 3)))
    return grid, state, linearize_dynamics(state, wrench, params, grid)


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
        noise = NoiseModel.isotropic(grid, meas_var=0.02)
        p = self.correlated_prior(op, noise)
        expected = dense_cayley_riccati(p, op, noise, self.DT, self.MEAS_DT)
        actual = riccati_step(
            EstimatorState(state, p), op, noise, self.DT, measurement_dt=self.MEAS_DT
        )
        assert np.max(np.abs(actual - expected)) / np.max(np.abs(expected)) <= 1e-12

    @pytest.mark.parametrize("n_nodes", [11, 21])
    def test_operator_is_zero_off_the_pattern(self, n_nodes, ref_params, rng):
        _, _, op = perturbed_swing_operator(n_nodes, ref_params, rng)
        assert not np.any(op.dense[~transition_pattern(n_nodes)])
        k = 6 * n_nodes
        for rows in (slice(0, k), slice(k, 2 * k)):
            for cols in (slice(0, k), slice(k, 2 * k)):
                assert np.any(op.dense[rows, cols])  # every block of the pattern is live

    def test_entry_off_the_pattern_raises(self):
        n = 4
        op = LinearizedOperator.zeros(n)
        op.dense[0, 5] = 1.0  # p row, p column of the next node
        state = make_initial_state(Grid(n_nodes=n, ds=0.1), "straight_at_rest")
        noise = NoiseModel.isotropic(Grid(n_nodes=n, ds=0.1))
        with pytest.raises(ValueError, match=r"\[p; eta\] rows x \[p; eta\] columns"):
            riccati_step(EstimatorState(state, np.eye(12 * n)), op, noise, self.DT)

    def test_singular_schur_complement_raises_blowup(self):
        n = 4
        op = LinearizedOperator.zeros(n)
        op.dense[6 * n + 4, 6 * n + 4] = 2.0 / self.DT  # a v row: S has a zero pivot
        state = make_initial_state(Grid(n_nodes=n, ds=0.1), "straight_at_rest")
        noise = NoiseModel.isotropic(Grid(n_nodes=n, ds=0.1))
        with pytest.raises(CovarianceBlowup, match="singular"):
            riccati_step(EstimatorState(state, np.eye(12 * n)), op, noise, self.DT)

    def test_overflowing_schur_complement_raises_blowup(self):
        n = 4
        op = LinearizedOperator.zeros(n)
        # finite and on the pattern (a v row's p column and back), but the
        # product E D1^-1 C in S = D2 - E D1^-1 C overflows
        op.dense[6 * n + 4, 4] = op.dense[4, 6 * n + 4] = 1e300
        state = make_initial_state(Grid(n_nodes=n, ds=0.1), "straight_at_rest")
        noise = NoiseModel.isotropic(Grid(n_nodes=n, ds=0.1))
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(CovarianceBlowup, match="non-finite transition .* infs or NaNs"):
                riccati_step(EstimatorState(state, np.eye(12 * n)), op, noise, self.DT)

    def assert_matches_dense(self, grid, state, op):
        noise = NoiseModel.isotropic(grid, meas_var=0.02)
        p = self.correlated_prior(op, noise)
        expected = dense_cayley_riccati(p, op, noise, self.DT, self.MEAS_DT)
        actual = riccati_step(
            EstimatorState(state, p), op, noise, self.DT, measurement_dt=self.MEAS_DT
        )
        assert np.max(np.abs(actual - expected)) / np.max(np.abs(expected)) <= 1e-12

    # the operator reaches 3 nodes, so these leave the last run of 3 padded
    @pytest.mark.parametrize("n_nodes", [20, 22])
    def test_padded_last_run_matches_dense_transition(self, n_nodes, ref_params, rng):
        grid, state, op = perturbed_swing_operator(n_nodes, ref_params, rng)
        assert n_nodes % 3
        self.assert_matches_dense(grid, state, op)

    # a v row against a p column 7 nodes away makes runs of 7 nodes; at n = 9
    # the last run is padded and the row is the clamped node's, here made live
    @pytest.mark.parametrize(("n_nodes", "row_node", "col_node"), [(21, 10, 3), (9, 0, 7)])
    def test_reach_is_read_from_the_operator(self, n_nodes, row_node, col_node, ref_params, rng):
        grid, state, op = perturbed_swing_operator(n_nodes, ref_params, rng)
        k = 6 * n_nodes
        op.dense[k + 3 * row_node, 3 * col_node + 1] = 0.1 * np.max(np.abs(op.dense[k:, :k]))
        op.dense[3 * row_node, k + 3 * row_node] = 1.0  # p rate from v; 1 already off node 0
        self.assert_matches_dense(grid, state, op)

    def test_dense_coupling_is_one_run(self, ref_params, rng):
        grid, state, op = perturbed_swing_operator(11, ref_params, rng)
        k = 6 * 11
        op.dense[k:, :k] += 1e4 * rng.normal(size=(k, k))
        self.assert_matches_dense(grid, state, op)

    def test_singular_pivot_names_its_run(self):
        n = 8
        op = LinearizedOperator.zeros(n)
        op.dense[6 * n + 3 * 3, 3 * 1] = 1.0  # couples nodes 3 and 1: runs of 2 nodes
        op.dense[6 * n + 3 * 5 + 1, 6 * n + 3 * 5 + 1] = 2.0 / self.DT  # zero pivot, node 5
        state = make_initial_state(Grid(n_nodes=n, ds=0.1), "straight_at_rest")
        noise = NoiseModel.isotropic(Grid(n_nodes=n, ds=0.1))
        with pytest.raises(CovarianceBlowup, match="singular transition I - dt A/2 at nodes 4–5"):
            riccati_step(EstimatorState(state, np.eye(12 * n)), op, noise, self.DT)

    def test_regularized_gain_matches_solve_form(self, ref_params, rng):
        grid, _, op = perturbed_swing_operator(21, ref_params, rng)
        noise = NoiseModel.isotropic(grid, meas_var=0.02)
        p = self.correlated_prior(op, noise)
        m = 3 * grid.n_nodes
        s = self.MEAS_DT * (noise.meas_full() + p[:m, :m])
        expected = np.linalg.solve(s.T, p[:, :m].T).T
        actual = regularized_gain(p, noise, self.MEAS_DT)
        np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=0.0)


class TestNoiseModel:
    def test_process_full_matches_per_entry_copy(self, rng):
        grid = Grid(n_nodes=5, ds=0.1)
        factors = rng.normal(size=(5, 12, 12))
        noise = NoiseModel(
            np.broadcast_to(0.02 * np.eye(3), (5, 3, 3)).copy(),
            factors @ factors.transpose(0, 2, 1),
        )
        assert np.array_equal(noise.process_full(), process_full_reference(noise))


class TestKalmanGain:
    def test_zero_covariance_zero_gain(self):
        grid = Grid(n_nodes=4, ds=0.1)
        noise = NoiseModel.isotropic(grid, meas_var=0.02)
        gain = regularized_gain(np.zeros((48, 48)), noise, 2e-4)
        assert np.max(np.abs(gain)) == 0.0

    def test_uncoupled_fields_receive_no_innovation(self, rng):
        grid = Grid(n_nodes=4, ds=0.1)
        noise = NoiseModel.isotropic(grid, meas_var=0.02)
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
        est, y, lambda _s, _t: wrench, params, grid, noise, cfg, riccati_stride=stride
    )
    innovation = (y - est.estimate.p).reshape(-1)
    c = StateRates(*block_innovation_rates(gain, innovation, grid.n_nodes))

    def rhs(state, _t):
        r = dynamics_rhs(state, wrench, params, grid)
        return StateRates(r.p + c.p, r.rot + c.rot, r.v + c.v, r.omega + c.omega)

    new = step(est.estimate, rhs, cfg, step_index=est.step_count, t=est.step_count * cfg.dt)
    return EstimatorState(new, covariance, est.step_count + 1, gain)


def never_called(_state, _t):
    raise AssertionError("the wrench was evaluated outside a Riccati refresh")


class TestInnovationRates:
    @settings(deadline=None, max_examples=40)
    @given(st.integers(2, 30), st.integers(0, 2**32 - 1))
    def test_batched_product_matches_row_blocks(self, n, seed):
        rng = np.random.default_rng(seed)
        grid = Grid(n_nodes=n, ds=0.1)
        state = make_initial_state(grid, "straight_at_rest")
        # the (12n, 3n) gain in the column-major layout regularized_gain returns
        gain = rng.normal(size=(3 * n, 12 * n)).T
        est = EstimatorState(state, np.zeros((12 * n, 12 * n)), step_count=1, gain=gain)
        y = state.p + rng.normal(size=(n, 3))
        noise = NoiseModel.isotropic(grid)
        cfg = IntegratorConfig(dt=2e-4)
        # held gain: the wrench is never evaluated
        _, held, rates = filter_update(est, y, never_called, None, grid, noise, cfg, riccati_stride=2)
        assert held is gain
        expected = block_innovation_rates(gain, (y - state.p).reshape(-1), n)
        for actual, reference in zip(rates, expected):
            assert np.array_equal(actual, reference)

    def test_degenerate_filter_never_evaluates_the_wrench(self):
        grid = Grid(n_nodes=5, ds=0.1)
        est = EstimatorState.initialize(make_initial_state(grid, "axial_spin"), 0.0)
        noise = NoiseModel.isotropic(grid)
        _, gain, rates = filter_update(
            est, est.estimate.p + 1.0, never_called, None, grid, noise, IntegratorConfig(dt=2e-4)
        )
        assert gain.shape == (60, 15) and not gain.any()
        assert not any(np.any(field) for field in rates)


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
        with pytest.raises(NonFiniteState, match="estimator position"):
            est.advanced(bad, est.covariance, None)


class TestEkfStep:
    def setup_run(self, scheme="rk4", n_nodes=11):
        grid = Grid.from_length(0.5, 0.5 / (n_nodes - 1))
        params = RodParams(
            length=0.5, radius=0.02, density=2000.0, youngs_modulus=3.0e7, shear_modulus=1.0e7
        )
        noise = NoiseModel.isotropic(grid, meas_var=0.02)
        cfg = IntegratorConfig(dt=2e-4, scheme=scheme)
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

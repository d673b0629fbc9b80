import numpy as np
import pytest

from softrod import (
    Grid,
    IntegratorConfig,
    RodParams,
    RodState,
    Wrench,
    check_cfl,
    d_ds,
    dynamics_rhs,
    make_initial_state,
    step,
    step_coupled,
)
from softrod.discretize import REORTHONORMALIZE_EVERY

from conftest import rotation_defect, smooth_random_state


def free_spin_setup(n_nodes=4):
    """Negligible stiffness: every node is an independent spinning body."""
    grid = Grid(n_nodes=n_nodes, ds=0.125)
    params = RodParams(
        length=grid.length,
        radius=0.02,
        density=2000.0,
        youngs_modulus=1e-30,
        shear_modulus=1e-30,
        inertia=np.diag([1.0, 2.0, 3.0]) * 1e-7,
    )
    state = make_initial_state(grid, "straight_at_rest")
    state.omega[1:] = [0.4, -0.3, 0.25]
    wrench = Wrench.zero(grid.n_nodes)
    return grid, params, state, wrench


class TestDerivatives:
    def test_constant_field_zero(self, ref_grid):
        field = np.full((ref_grid.n_nodes, 3), 2.5)
        assert np.max(np.abs(d_ds(field, ref_grid))) < 1e-12

    def test_linear_field(self, ref_grid):
        assert np.max(np.abs(d_ds(ref_grid.s, ref_grid) - 1.0)) < 1e-10

    def test_quadratic_exact(self, ref_grid):
        s = ref_grid.s
        d1 = d_ds(s**2, ref_grid)
        assert np.max(np.abs(d1[1:-1] - 2.0 * s[1:-1])) < 1e-12

    def test_sine_convergence(self):
        errors = []
        for ds in (0.025, 0.0125, 0.00625):
            grid = Grid.from_length(0.5, ds)
            s = grid.s
            errors.append(np.max(np.abs(d_ds(np.sin(2 * np.pi * s), grid) - 2 * np.pi * np.cos(2 * np.pi * s))))
        ratios = [errors[i] / errors[i + 1] for i in range(2)]
        assert min(ratios) > 3.4  # ~4x per halving for a second-order stencil

    def test_linearity(self, ref_grid, rng):
        f = rng.normal(size=(ref_grid.n_nodes, 3))
        g = rng.normal(size=(ref_grid.n_nodes, 3))
        combo = d_ds(2.0 * f - 3.0 * g, ref_grid)
        parts = 2.0 * d_ds(f, ref_grid) - 3.0 * d_ds(g, ref_grid)
        scale = max(1.0, float(np.max(np.abs(parts))))
        assert np.max(np.abs(combo - parts)) < 1e-12 * scale

    def test_grid_too_small(self):
        # the three-point stencils need 3 nodes, so a grid of 2 is refused
        with pytest.raises(ValueError, match="grid needs at least 3 nodes, got 2"):
            Grid(n_nodes=2, ds=0.1)

    def test_wrong_length_rejected(self, ref_grid):
        with pytest.raises(ValueError):
            d_ds(np.zeros(ref_grid.n_nodes + 1), ref_grid)


class TestIntegratorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.0)


class TestStep:
    def test_equilibrium_fixed_point(self, dyadic_grid, ref_params):
        state = make_initial_state(dyadic_grid, "straight_at_rest")
        wrench = Wrench.zero(dyadic_grid.n_nodes)
        rhs = lambda st, _t: dynamics_rhs(st, wrench, ref_params, dyadic_grid)
        new = step(state, rhs, IntegratorConfig(dt=2e-4))
        assert np.max(np.abs(new.p - state.p)) < 1e-12
        assert np.max(np.abs(new.rot - state.rot)) < 1e-12
        assert np.max(np.abs(new.v)) < 1e-12 and np.max(np.abs(new.omega)) < 1e-12

    def test_determinant_preserved_per_step(self, ref_grid, ref_params, rng):
        state = smooth_random_state(ref_grid, rng, amp=0.1)
        wrench = Wrench.zero(ref_grid.n_nodes)
        rhs = lambda st, _t: dynamics_rhs(st, wrench, ref_params, ref_grid)
        new = step(state, rhs, IntegratorConfig(dt=1e-5))
        _, det_defect = rotation_defect(new.rot)
        assert np.max(det_defect) < 1e-12

    @pytest.mark.parametrize(
        "min_flat_order,min_rot_order", [pytest.param(4.5, 2.5, id="rk4-4.5-2.5")]
    )
    def test_step_halving_order(self, min_flat_order, min_rot_order):
        # flat fields follow the classical rk4 order; the multiplicative
        # rotation update combines stage tangents without the commutator
        # correction, so its halving order is 3, not 5
        grid, params, state, wrench = free_spin_setup()
        rhs = lambda st, _t: dynamics_rhs(st, wrench, params, grid)
        flat_diffs, rot_diffs = [], []
        for dt in (0.05, 0.025, 0.0125):
            cfg = IntegratorConfig(dt=dt)
            half = IntegratorConfig(dt=dt / 2)
            full = step(state, rhs, cfg)
            two = step(step(state, rhs, half), rhs, half)
            flat_diffs.append(np.max(np.abs(full.omega - two.omega)))
            rot_diffs.append(np.max(np.abs(full.rot - two.rot)))
        flat_orders = [np.log2(flat_diffs[i] / flat_diffs[i + 1]) for i in range(2)]
        rot_orders = [np.log2(rot_diffs[i] / rot_diffs[i + 1]) for i in range(2)]
        assert min(flat_orders) >= min_flat_order
        assert min(rot_orders) >= min_rot_order

    def test_rigid_body_energy_drift(self):
        grid, params, state, wrench = free_spin_setup()
        rhs = lambda st, _t: dynamics_rhs(st, wrench, params, grid)
        cfg = IntegratorConfig(dt=1e-3)
        jrho = params.rotational_mass
        energy0 = state.omega[1] @ jrho @ state.omega[1]
        for i in range(10_000):
            state = step(state, rhs, cfg, step_index=i)
        energy = state.omega[1] @ jrho @ state.omega[1]
        assert abs(energy - energy0) / energy0 < 1e-6

    def test_long_run_orthogonality(self):
        grid, params, state, wrench = free_spin_setup()
        rhs = lambda st, _t: dynamics_rhs(st, wrench, params, grid)
        cfg = IntegratorConfig(dt=1e-3)
        for i in range(25_000):
            state = step(state, rhs, cfg, step_index=i)
        orth, det = rotation_defect(state.rot)
        assert np.max(orth) < 1e-9 and np.max(det) < 1e-9

    def test_reorthonormalization_cadence(self, rng):
        grid, params, state, wrench = free_spin_setup()
        # plant a tolerable orthogonality defect and check it is absorbed
        # exactly on the polishing step
        state.rot[2] = state.rot[2] + 1e-10 * rng.normal(size=(3, 3))
        rhs = lambda st, _t: dynamics_rhs(st, wrench, params, grid)
        cfg = IntegratorConfig(dt=1e-3)
        for i in range(REORTHONORMALIZE_EVERY - 1):
            state = step(state, rhs, cfg, step_index=i)
            assert rotation_defect(state.rot)[0].max() > 1e-11
        state = step(state, rhs, cfg, step_index=REORTHONORMALIZE_EVERY - 1)
        assert rotation_defect(state.rot)[0].max() < 1e-13


class TestStepCoupled:
    @pytest.mark.parametrize("steps", [pytest.param(REORTHONORMALIZE_EVERY, id="rk4")])
    def test_uncoupled_members_match_solo_steps(self, steps, ref_grid, ref_params, rng):
        # the harness replaces the coupled step by a solo plant step when
        # plant and estimate coincide, which is exact only if stacking the
        # members changes no bit of either one's update
        wrench = Wrench.zero(ref_grid.n_nodes)
        rhs = lambda st, _t: dynamics_rhs(st, wrench, ref_params, ref_grid)
        pair_rhs = lambda states, t: tuple(rhs(st, t) for st in states)
        cfg = IntegratorConfig(dt=1e-5)
        solo = [smooth_random_state(ref_grid, rng, amp=0.1) for _ in range(2)]
        pair = tuple(st.copy() for st in solo)
        for i in range(steps):  # the last step index polishes
            solo = [step(st, rhs, cfg, step_index=i, t=i * cfg.dt) for st in solo]
            pair = step_coupled(pair, pair_rhs, cfg, step_index=i, t=i * cfg.dt)
        for single, member in zip(solo, pair):
            for name in ("p", "rot", "v", "omega"):
                assert np.array_equal(getattr(single, name), getattr(member, name))


class TestCfl:
    def test_reference_parameters_pass(self, ref_params, ref_grid):
        report = check_cfl(ref_params, ref_grid, 2e-4)
        assert report.wave_speed_extension == pytest.approx(np.sqrt(3.0e7 / 2000.0), rel=1e-12)
        assert report.wave_speed_shear == pytest.approx(np.sqrt(1.0e7 / 2000.0), rel=1e-12)
        assert report.dt_bound == pytest.approx(0.025 / np.sqrt(15000.0), rel=1e-12)
        assert report.passed

    def test_large_dt_fails(self, ref_params, ref_grid):
        assert not check_cfl(ref_params, ref_grid, 1e-2).passed

    def test_heavy_material_always_passes(self, ref_grid):
        heavy = RodParams(
            length=0.5, radius=0.02, density=1e12, youngs_modulus=3.0e7, shear_modulus=1.0e7
        )
        assert check_cfl(heavy, ref_grid, 1.0).passed

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from softrod import (
    Grid,
    NonFiniteState,
    RodParams,
    RodState,
    Wrench,
    dynamics_rhs,
    make_initial_state,
    strains,
)
from softrod.geometry import exp_so3
from softrod.rod import (
    FIELDS,
    REFERENCE_STRETCH,
    REFERENCE_TWIST,
    StateRates,
    StrainProfile,
    _cross,
    load_terms,
    strain_profile,
)

from conftest import assert_rotations, smooth_random_state


def quarter_circle_state(grid):
    """Arc of radius 2L/pi in the xz-plane, frames aligned with the tangent."""
    radius = 2.0 * grid.length / np.pi
    theta = grid.s / radius
    n = grid.n_nodes
    p = np.zeros((n, 3))
    p[:, 0] = radius * (1.0 - np.cos(theta))
    p[:, 2] = radius * np.sin(theta)
    rot = exp_so3(np.outer(theta, [0.0, 1.0, 0.0]))
    return RodState(p, rot, np.zeros((n, 3)), np.zeros((n, 3))), radius


class TestGrid:
    def test_nodes_are_one_shared_read_only_array(self, ref_grid):
        s = ref_grid.s
        assert ref_grid.s is s
        assert np.array_equal(s, np.arange(ref_grid.n_nodes) * ref_grid.ds)
        with pytest.raises(ValueError):
            s[1] = 0.0

    def test_equality_and_hash_ignore_the_cached_nodes(self):
        a, b = Grid.from_length(0.5, 0.025), Grid.from_length(0.5, 0.025)
        a.s  # fills the cache on one of the two
        assert a == b and hash(a) == hash(b)


class TestParams:
    def test_stiffness_formulas(self, ref_params):
        e, g = 3.0e7, 1.0e7
        sigma = np.pi * 0.02**2
        second = np.pi * 0.02**4 / 4.0
        assert np.allclose(
            ref_params.stiffness_linear, np.diag([g, g, e]) * sigma, rtol=1e-15
        )
        assert np.allclose(
            ref_params.stiffness_angular,
            np.diag([e, e, g]) @ np.diag([second, second, 2 * second]),
            rtol=1e-15,
        )

    def test_default_section_constants(self, ref_params):
        assert ref_params.sigma == pytest.approx(np.pi * 0.02**2, rel=1e-15)
        second = np.pi * 0.02**4 / 4.0
        assert np.allclose(ref_params.inertia, np.diag([second, second, 2 * second]))

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            RodParams(length=0.5, radius=0.02, density=-1.0, youngs_modulus=1.0, shear_modulus=1.0)
        with pytest.raises(ValueError):
            RodParams(length=0.5, radius=0.02, density=1.0, youngs_modulus=0.0, shear_modulus=1.0)

    def test_section_area_underflow_is_refused(self):
        # sigma is always pi r^2, which underflows to zero for a tiny radius
        with pytest.raises(ValueError, match="sigma must be strictly positive"):
            RodParams(
                length=0.5, radius=1e-162, density=1.0, youngs_modulus=1.0, shear_modulus=1.0
            )

    def test_inertia_must_be_spd(self):
        with pytest.raises(ValueError):
            RodParams(
                length=0.5,
                radius=0.02,
                density=1.0,
                youngs_modulus=1.0,
                shear_modulus=1.0,
                inertia=np.diag([1.0, -1.0, 1.0]),
            )


class TestStrains:
    def test_straight_rod_reference_strains(self, ref_grid, straight_state):
        q, u = strains(straight_state, ref_grid)
        assert np.max(np.abs(q - [0.0, 0.0, 1.0])) < 1e-13
        assert np.max(np.abs(u)) < 1e-13

    def test_pure_extension(self, ref_grid, straight_state):
        state = straight_state.copy()
        state.p = state.p * 2.0
        q, u = strains(state, ref_grid)
        assert np.max(np.abs(q - [0.0, 0.0, 2.0])) < 1e-13
        assert np.max(np.abs(u)) < 1e-13

    def test_quarter_circle_strains(self):
        grid = Grid.from_length(0.5, 0.025)
        state, radius = quarter_circle_state(grid)
        q, u = strains(state, grid)
        interior = slice(1, -1)
        # truncation ~ ds^2 u^2 / 6 (stretch) and ds^2 u^3 / 6 (curvature)
        assert np.max(np.abs(q[interior] - [0.0, 0.0, 1.0])) < 2e-3
        assert np.max(np.abs(u[interior] - [0.0, 1.0 / radius, 0.0])) < 5e-3

    def test_quarter_circle_convergence_order(self):
        errors = []
        for ds in (0.05, 0.025, 0.0125):
            grid = Grid.from_length(0.5, ds)
            state, radius = quarter_circle_state(grid)
            q, u = strains(state, grid)
            err_q = np.max(np.abs(q[1:-1] - [0.0, 0.0, 1.0]))
            err_u = np.max(np.abs(u[1:-1] - [0.0, 1.0 / radius, 0.0]))
            errors.append(max(err_q, err_u))
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8

    def test_locality_ignores_velocities(self, ref_grid, rng):
        state = smooth_random_state(ref_grid, rng)
        q1, u1 = strains(state, ref_grid)
        state.v = rng.normal(size=state.v.shape)
        state.omega = rng.normal(size=state.omega.shape)
        q2, u2 = strains(state, ref_grid)
        assert np.array_equal(q1, q2) and np.array_equal(u1, u2)


def constitutive_loads(q, u, rot, params):
    """Global-frame internal loads ``n = R K_l (q - e3)``, ``m = R K_a u``."""
    n = (q - REFERENCE_STRETCH) @ params.stiffness_linear.T
    m = u @ params.stiffness_angular.T
    return np.einsum("nij,nj->ni", rot, n), np.einsum("nij,nj->ni", rot, m)


def three_cross_moment(state, profile, params):
    """``load_terms``' moment with one ``_cross`` per product: the bit-equality reference."""
    ka, kl = params.stiffness_angular, params.stiffness_linear
    dq = profile.q - REFERENCE_STRETCH
    du = profile.u - REFERENCE_TWIST
    return (
        profile.u_s @ ka.T
        + _cross(profile.u, du @ ka.T)
        + _cross(profile.q, dq @ kl.T)
        - _cross(state.omega, state.omega @ params.rotational_mass.T)
    )


class TestLoadTerms:
    @settings(deadline=None)
    @given(
        st.integers(2, 30).flatmap(
            lambda n: arrays(float, (7, n, 3), elements=st.floats(-1e3, 1e3))
        )
    )
    def test_moment_matches_three_cross_reference(self, fields):
        params = RodParams(
            length=0.5, radius=0.02, density=2000.0, youngs_modulus=3.0e7, shear_modulus=1.0e7
        )
        p, v, omega, q, u, q_s, u_s = fields
        n = p.shape[0]
        rot = np.broadcast_to(np.eye(3), (n, 3, 3))
        state = RodState(p, rot, v, omega)
        profile = StrainProfile(rot, q, u, q_s, u_s)
        _, moment = load_terms(state, profile, params)
        assert np.array_equal(moment, three_cross_moment(state, profile, params))


class TestDynamics:
    def test_equilibrium_is_exact_on_dyadic_grid(self, dyadic_grid, ref_params):
        state = make_initial_state(dyadic_grid, "straight_at_rest")
        rates = dynamics_rhs(state, Wrench.zero(dyadic_grid.n_nodes), ref_params, dyadic_grid)
        for arr in rates:
            assert np.max(np.abs(arr)) == 0.0

    def test_equilibrium_near_zero_on_ref_grid(self, ref_grid, ref_params):
        # non-dyadic node coordinates leave stiffness-amplified rounding
        state = make_initial_state(ref_grid, "straight_at_rest")
        rates = dynamics_rhs(state, Wrench.zero(ref_grid.n_nodes), ref_params, ref_grid)
        for arr in rates:
            assert np.max(np.abs(arr)) < 1e-9

    def test_uniform_force_accelerates_uniformly(self, dyadic_grid, ref_params):
        state = make_initial_state(dyadic_grid, "straight_at_rest")
        c = 3.7
        wrench = Wrench.zero(dyadic_grid.n_nodes)
        wrench.f[:, 2] = c
        rates = dynamics_rhs(state, wrench, ref_params, dyadic_grid)
        expected = c / (ref_params.density * ref_params.sigma)
        assert np.allclose(rates.v[1:], [0.0, 0.0, expected], rtol=1e-12)
        assert np.max(np.abs(rates.omega)) < 1e-12
        assert np.max(np.abs(rates.v[0])) == 0.0

    def test_clamped_node_rates_zero(self, ref_grid, ref_params, rng):
        state = smooth_random_state(ref_grid, rng)
        wrench = Wrench(rng.normal(size=(21, 3)), rng.normal(size=(21, 3)))
        rates = dynamics_rhs(state, wrench, ref_params, ref_grid)
        for arr in rates:
            assert np.max(np.abs(arr[0])) == 0.0

    def test_frame_covariance(self, ref_grid, ref_params, rng):
        state = smooth_random_state(ref_grid, rng)
        q1, u1 = strains(state, ref_grid)
        n1, m1 = constitutive_loads(q1, u1, state.rot, ref_params)
        rot_q = exp_so3(np.array([0.4, -0.3, 0.9]))
        turned = state.copy()
        turned.p = state.p @ rot_q.T
        turned.rot = np.einsum("ab,nbc->nac", rot_q, state.rot)
        q2, u2 = strains(turned, ref_grid)
        assert np.max(np.abs(q2 - q1)) < 1e-12
        assert np.max(np.abs(u2 - u1)) < 1e-12
        n2, m2 = constitutive_loads(q2, u2, turned.rot, ref_params)
        assert np.max(np.abs(n2 - n1 @ rot_q.T)) < 1e-10
        assert np.max(np.abs(m2 - m1 @ rot_q.T)) < 1e-10

    def test_modulus_scaling_scales_elastic_terms(self, ref_grid, rng):
        base = RodParams(
            length=0.5, radius=0.02, density=2000.0, youngs_modulus=3.0e7, shear_modulus=1.0e7
        )
        quadrupled = RodParams(
            length=0.5, radius=0.02, density=2000.0, youngs_modulus=1.2e8, shear_modulus=4.0e7
        )
        state = smooth_random_state(ref_grid, rng)
        state.omega[:] = 0.0  # keep only elastic contributions in the moment row
        wrench = Wrench.zero(ref_grid.n_nodes)
        r1 = dynamics_rhs(state, wrench, base, ref_grid)
        r2 = dynamics_rhs(state, wrench, quadrupled, ref_grid)
        assert np.array_equal(r2.v, 4.0 * r1.v)
        assert np.array_equal(r2.omega, 4.0 * r1.omega)
        q, u = strains(state, ref_grid)
        n1, m1 = constitutive_loads(q, u, state.rot, base)
        n2, m2 = constitutive_loads(q, u, state.rot, quadrupled)
        assert np.array_equal(n2, 4.0 * n1) and np.array_equal(m2, 4.0 * m1)

    def test_non_finite_state_raises(self, ref_grid, ref_params, straight_state):
        # p_t = v, so a NaN velocity at node 3 shows first in the position rate
        state = straight_state.copy()
        state.v[3, 1] = np.nan
        with pytest.raises(NonFiniteState, match=r"blew up \(NaN/Inf\) in p at node 3;") as info:
            dynamics_rhs(state, Wrench.zero(ref_grid.n_nodes), ref_params, ref_grid)
        assert info.value.where == "p at node 3"

    def test_tip_substitution_kills_tip_load_terms(self, ref_grid, rng):
        state = smooth_random_state(ref_grid, rng)
        profile = strain_profile(state, ref_grid)
        assert np.array_equal(profile.q[-1], REFERENCE_STRETCH)
        assert np.array_equal(profile.u[-1], np.zeros(3))


class TestFieldLayout:
    def test_rates_are_views_of_one_field_major_array(self, ref_grid, ref_params, rng):
        state = smooth_random_state(ref_grid, rng)
        wrench = Wrench(rng.normal(size=(21, 3)), rng.normal(size=(21, 3)))
        rates = dynamics_rhs(state, wrench, ref_params, ref_grid)
        assert rates.data.shape == (4, ref_grid.n_nodes, 3)
        for j, name in enumerate(FIELDS):
            view = getattr(rates, name)
            assert np.shares_memory(view, rates.data)
            view[2] = 7.0 + j
            assert np.all(rates.data[j, 2] == 7.0 + j)
        assert all(a is getattr(rates, name) for a, name in zip(rates, FIELDS))
        assert not rates.data[:, 0].any()  # the clamped base row, every field

    def test_batched_rates_view_the_field_axis(self):
        data = np.arange(2 * 4 * 5 * 3, dtype=float).reshape(2, 4, 5, 3)
        rates = StateRates(data)
        assert rates.omega.shape == (2, 5, 3)
        assert np.array_equal(rates.omega, data[:, 3])

    def test_state_iterates_its_fields_in_order(self, ref_grid, rng):
        state = smooth_random_state(ref_grid, rng)
        fields = list(state)
        assert len(fields) == len(FIELDS)
        assert all(a is getattr(state, name) for a, name in zip(fields, FIELDS))
        copied = state.copy()
        for a, b in zip(copied, state):
            assert a is not b and np.array_equal(a, b)


class TestRigidBodyRow:
    def test_moment_row_matches_euler_equations(self):
        # uniform frame field and straight shape: strain deviations vanish and
        # the angular row reduces to the rigid-body equations per node
        grid = Grid.from_length(0.5, 0.03125)
        params = RodParams(
            length=0.5,
            radius=0.02,
            density=2000.0,
            youngs_modulus=3.0e7,
            shear_modulus=1.0e7,
            inertia=np.diag([1.0, 2.0, 3.0]) * 1e-7,
        )
        rot_q = exp_so3(np.array([0.3, 0.1, -0.2]))
        n = grid.n_nodes
        p = np.outer(grid.s, rot_q @ [0.0, 0.0, 1.0])
        rot = np.broadcast_to(rot_q, (n, 3, 3)).copy()
        omega = np.tile([0.4, -0.3, 0.25], (n, 1))
        state = RodState(p, rot, np.zeros((n, 3)), omega)
        wrench = Wrench.zero(n)
        wrench.l = np.tile([0.05, -0.02, 0.01], (n, 1))
        rates = dynamics_rhs(state, wrench, params, grid)
        j = params.inertia
        w = omega[1]
        expected = np.linalg.solve(
            params.density * j,
            -np.cross(w, params.density * j @ w) + rot_q.T @ wrench.l[1],
        )
        # strain rounding (~1e-16) amplified by K_l / (rho J) leaves ~1e-7
        assert np.allclose(rates.omega[1:], expected, rtol=1e-9, atol=1e-6)


class TestInitialState:
    def test_straight_at_rest(self, ref_grid):
        state = make_initial_state(ref_grid, "straight_at_rest")
        assert_rotations(state.rot)
        q, u = strains(state, ref_grid)
        assert np.max(np.abs(q - [0, 0, 1])) < 1e-13 and np.max(np.abs(u)) < 1e-13
        assert np.max(np.abs(state.v)) == 0.0 and np.max(np.abs(state.omega)) == 0.0

    def test_axial_spin_profile(self, ref_grid):
        state = make_initial_state(ref_grid, "axial_spin")
        assert_rotations(state.rot)
        assert np.array_equal(state.v[0], np.zeros(3))
        assert np.array_equal(state.omega[0], np.zeros(3))
        assert np.allclose(state.v[1:], [0.0, 0.0, 1.0])
        assert np.allclose(state.omega[1:], [0.0, 0.0, 1.0])

    def test_unknown_scenario(self, ref_grid):
        with pytest.raises(ValueError):
            make_initial_state(ref_grid, "wobble")

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from softrod.geometry import (
    NearPiRotation,
    NotSkewSymmetric,
    SingularMatrix,
    axial,
    c_matrix,
    exp_so3,
    hat,
    log_so3,
    project_so3,
    rotation_error,
    vee,
)

from conftest import assert_rotations, random_rotations


def stacked_axial(a):
    """``axial`` in its earlier one-``np.stack`` form, the reference for bit equality."""
    a = np.asarray(a, dtype=float)
    return 0.5 * np.stack(
        [
            a[..., 2, 1] - a[..., 1, 2],
            a[..., 0, 2] - a[..., 2, 0],
            a[..., 1, 0] - a[..., 0, 1],
        ],
        axis=-1,
    )


finite_floats = st.floats(-1e6, 1e6)


def series_exp(eta, terms=20):
    """Truncated matrix-power series oracle for the exponential map."""
    w = hat(eta)
    acc = np.eye(3)
    term = np.eye(3)
    for n in range(1, terms):
        term = term @ w / n
        acc = acc + term
    return acc


class TestHatVee:
    def test_hat_zero(self):
        assert np.array_equal(hat([0.0, 0.0, 0.0]), np.zeros((3, 3)))

    def test_hat_explicit(self):
        expected = np.array([[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]])
        assert np.array_equal(hat([1.0, 2.0, 3.0]), expected)

    def test_hat_matches_cross_product(self, rng):
        u = rng.normal(size=(100, 3))
        v = rng.normal(size=(100, 3))
        hv = np.einsum("nij,nj->ni", hat(u), v)
        assert np.max(np.abs(hv - np.cross(u, v))) < 1e-14

    def test_vee_round_trip_exact(self, rng):
        u = rng.normal(size=(50, 3))
        assert np.array_equal(vee(hat(u)), u)

    def test_hat_of_vee_exact(self, rng):
        a = hat(rng.normal(size=(20, 3)))
        assert np.array_equal(hat(vee(a)), a)

    def test_vee_zero(self):
        assert np.array_equal(vee(np.zeros((3, 3))), np.zeros(3))

    def test_vee_rejects_symmetric(self):
        with pytest.raises(NotSkewSymmetric):
            vee(np.diag([1.0, 2.0, 3.0]))

    def test_axial_total_on_symmetric(self):
        assert np.array_equal(axial(np.diag([1.0, 2.0, 3.0])), np.zeros(3))
        u = np.array([0.3, -0.7, 1.1])
        assert np.allclose(axial(hat(u)), u, atol=0.0)

    @settings(deadline=None)
    @given(
        st.one_of(
            arrays(float, (3, 3), elements=finite_floats),
            st.integers(1, 30).flatmap(
                lambda n: arrays(float, (n, 3, 3), elements=finite_floats)
            ),
        )
    )
    def test_axial_matches_stacked_reference(self, a):
        assert np.array_equal(axial(a), stacked_axial(a))


class TestExpLog:
    def test_exp_zero_is_identity(self):
        assert np.array_equal(exp_so3(np.zeros(3)), np.eye(3))

    def test_exp_matches_series(self, rng):
        # 20-term series has its own tail ~ theta**20/20!; 1e-12 covers theta <= 2
        for theta in (1e-8, 1e-6, 1e-3, 0.5, 2.0):
            eta = np.array([0.0, 0.0, theta])
            assert np.max(np.abs(exp_so3(eta) - series_exp(eta))) < 1e-12
        eta = rng.normal(size=(10, 3)) * 0.4
        for e in eta:
            assert np.max(np.abs(exp_so3(e) - series_exp(e))) < 1e-12

    def test_group_inverse(self, rng):
        eta = rng.normal(size=(200, 3))
        prod = exp_so3(eta) @ exp_so3(-eta)
        assert np.max(np.abs(prod - np.eye(3))) < 1e-12

    def test_exp_output_is_rotation(self, rng):
        rot = exp_so3(rng.normal(size=(200, 3)) * 2.0)
        assert_rotations(rot)
        norms = np.linalg.norm(rot, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_branch_agreement_at_threshold(self):
        # both Rodrigues and the series branch, just on either side of 1e-6
        for theta in (0.9999e-6, 1.0001e-6):
            eta = np.array([theta, 0.0, 0.0])
            assert np.max(np.abs(exp_so3(eta) - series_exp(eta))) < 1e-12

    def test_log_identity(self):
        assert np.array_equal(log_so3(np.eye(3)), np.zeros(3))

    def test_log_round_trip(self):
        eta = np.array([0.1, -0.2, 0.3])
        assert np.max(np.abs(log_so3(exp_so3(eta)) - eta)) < 1e-10

    def test_exp_log_round_trip(self, rng):
        rot = random_rotations(rng, 200)
        assert np.max(np.abs(exp_so3(log_so3(rot)) - rot)) < 1e-9

    def test_near_pi_raises(self):
        rot = exp_so3(np.array([np.pi, 0.0, 0.0]))
        with pytest.raises(NearPiRotation):
            log_so3(rot)


class TestRotationError:
    def test_zero_at_match(self, rng):
        rot = random_rotations(rng, 10)
        assert np.max(np.abs(rotation_error(rot, rot))) < 1e-15

    def test_z_rotation_gives_sine(self):
        for theta in (0.1, 0.7, 1.3):
            rot = exp_so3(np.array([0.0, 0.0, theta]))
            # error of R against identity reference: [0, 0, sin(theta)]
            err = rotation_error(rot, np.eye(3))
            assert np.allclose(err, [0.0, 0.0, np.sin(theta)], atol=1e-14)

    def test_antisymmetry(self, rng):
        a = random_rotations(rng, 50)
        b = random_rotations(rng, 50)
        assert np.max(np.abs(rotation_error(a, b) + rotation_error(b, a))) < 1e-14


class TestCMatrix:
    def test_identity_pair(self, rng):
        rot = random_rotations(rng, 10)
        assert np.max(np.abs(c_matrix(rot, rot) - np.eye(3))) < 1e-13

    def test_spectral_norm_bound(self, rng):
        a = random_rotations(rng, 1000)
        b = random_rotations(rng, 1000)
        norms = np.linalg.norm(c_matrix(a, b), ord=2, axis=(1, 2))
        assert np.max(norms) <= 1.0 + 1e-12

    def test_trace_identity(self, rng):
        # hat(x) A + A^T hat(x) == hat((tr(A) I - A) x) for rotations A
        x = rng.normal(size=(1000, 3))
        a = random_rotations(rng, 1000)
        lhs = hat(x) @ a + np.swapaxes(a, 1, 2) @ hat(x)
        tr = np.trace(a, axis1=1, axis2=2)
        rhs = hat(np.einsum("nij,nj->ni", tr[:, None, None] * np.eye(3) - a, x))
        assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_commutator_identity(self, rng):
        # hat(x) hat(y) - hat(y) hat(x) == hat(cross(x, y))
        x = rng.normal(size=(1000, 3))
        y = rng.normal(size=(1000, 3))
        lhs = hat(x) @ hat(y) - hat(y) @ hat(x)
        assert np.max(np.abs(lhs - hat(np.cross(x, y)))) < 1e-13

    def test_c_matrix_transports_error_rate(self, rng):
        # ((tr A) I - A) x / 2 equals axial(hat(x) A), A = R*^T R
        x = rng.normal(size=(100, 3))
        a = random_rotations(rng, 100)
        lhs = np.einsum("nij,nj->ni", c_matrix(np.eye(3), a), x)  # uses A = I^T A
        rhs = axial(hat(x) @ a)
        assert np.max(np.abs(lhs - rhs)) < 1e-13


class TestProject:
    def newton_polar(self, m, iters=60):
        x = m.copy()
        for _ in range(iters):
            x = 0.5 * (x + np.linalg.inv(x).T)
        return x

    def test_idempotent(self, rng):
        rot = random_rotations(rng, 50)
        assert np.max(np.abs(project_so3(rot) - rot)) < 1e-12

    def test_small_perturbation(self, rng):
        for _ in range(20):
            rot = random_rotations(rng, 1)[0]
            noisy = rot + 1e-6 * rng.normal(size=(3, 3))
            fixed = project_so3(noisy)
            assert_rotations(fixed, tol=1e-12)
            assert np.max(np.abs(fixed - rot)) < 2e-6
            assert np.max(np.abs(fixed - self.newton_polar(noisy))) < 1e-10

    def test_scaled_identity(self):
        assert np.allclose(project_so3(2.0 * np.eye(3)), np.eye(3), atol=1e-14)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            project_so3(np.diag([1.0, 1.0, 0.0]))

    def test_negative_determinant_raises(self):
        with pytest.raises(SingularMatrix):
            project_so3(np.diag([1.0, 1.0, -1.0]))

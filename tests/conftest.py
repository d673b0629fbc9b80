import os

# One BLAS thread, set before numpy loads.  With two OpenBLAS threads the
# Riccati refresh rounds differently and criterion 4's seeds stop on
# different guards from machine to machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from softrod import Grid, RodParams, RodState, make_initial_state
from softrod.geometry import axial, exp_so3


@pytest.fixture
def ref_params():
    """Reference material set: 0.5 m rod, E = 0.03 GPa, G = 0.01 GPa."""
    return RodParams(
        length=0.5, radius=0.02, density=2000.0, youngs_modulus=3.0e7, shear_modulus=1.0e7
    )


@pytest.fixture
def ref_grid():
    return Grid.from_length(0.5, 0.025)


@pytest.fixture
def dyadic_grid():
    """Grid with exactly representable coordinates (ds = 2**-5)."""
    return Grid.from_length(0.5, 0.03125)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_rotation(rng, scale=np.pi * 0.8):
    return exp_so3(rng.uniform(-1.0, 1.0, size=3) * scale / np.sqrt(3.0))


def random_rotations(rng, n, scale=np.pi * 0.8):
    return exp_so3(rng.uniform(-1.0, 1.0, size=(n, 3)) * scale / np.sqrt(3.0))


def smooth_random_state(grid, rng, amp=0.2):
    """Reachable-looking state: clamped base, smooth low-mode deformation."""
    s = grid.s
    length = grid.length
    n = grid.n_nodes

    def smooth_field(scale):
        field = np.zeros((n, 3))
        for k in (1, 2, 3):
            coeff = rng.normal(0.0, scale / k, size=3)
            field += np.sin(0.5 * k * np.pi * s / length)[:, None] * coeff
        return field

    p = np.zeros((n, 3))
    p[:, 2] = s
    p += smooth_field(amp * length)
    theta = smooth_field(amp * np.pi)
    rot = exp_so3(theta)
    v = smooth_field(amp)
    omega = smooth_field(amp)
    p[0] = 0.0
    rot[0] = np.eye(3)
    v[0] = 0.0
    omega[0] = 0.0
    return RodState(p, rot, v, omega)


def rotation_defect(rot):
    """Frobenius distances ``(|R^T R - I|, |det R - 1|)`` for validity checks."""
    rot = np.asarray(rot, dtype=float)
    eye = np.eye(3)
    orth = np.linalg.norm(np.swapaxes(rot, -1, -2) @ rot - eye, axis=(-2, -1))
    det = np.abs(np.linalg.det(rot) - 1.0)
    return orth, det


def assert_rotations(rot, tol=1e-9):
    """Every matrix of ``rot`` is a rotation within ``tol``."""
    orth, det = rotation_defect(rot)
    assert np.max(orth) <= tol and np.max(det) <= tol, (np.max(orth), np.max(det))


def band_to_dense(band):
    """The (3n, 3n) matrix of a node band ``(n, 2R + 1, 3, 3)``: node block (i, j) is ``band[i, j - i + R]``."""
    n, width = band.shape[:2]
    reach = width // 2
    out = np.zeros((3 * n, 3 * n))
    for i in range(n):
        for j in range(max(0, i - reach), min(n, i + reach + 1)):
            out[3 * i : 3 * i + 3, 3 * j : 3 * j + 3] = band[i, j - i + reach]
    return out


def check_trajectory_consistency(traj, s, times, h=1e-5):
    """Max kinematic-consistency residuals of a trajectory by central differences.

    Returns ``(max |p_t - v|, max |vee(R^T R_t) - omega|)`` over the sampled
    times; both vanish to O(h^2) for a consistent trajectory.
    """
    worst_p = 0.0
    worst_rot = 0.0
    for t in times:
        plus = traj.evaluate(s, t + h)
        minus = traj.evaluate(s, t - h)
        now = traj.evaluate(s, t)
        p_t = (plus.p - minus.p) / (2.0 * h)
        worst_p = max(worst_p, float(np.max(np.abs(p_t - now.v))))
        rot_t = (plus.rot - minus.rot) / (2.0 * h)
        spin = np.einsum("nji,njk->nik", now.rot, rot_t)
        worst_rot = max(worst_rot, float(np.max(np.abs(axial(spin) - now.omega))))
    return worst_p, worst_rot


@pytest.fixture
def straight_state(ref_grid):
    return make_initial_state(ref_grid, "straight_at_rest")

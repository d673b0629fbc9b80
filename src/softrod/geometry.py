"""Rotation-group primitives used throughout the library.

Conventions: 3-vectors are float arrays of shape ``(3,)``, rotation matrices
``(3, 3)``.  Every function broadcasts over leading axes, so grid-sampled
fields of shape ``(n, 3)`` / ``(n, 3, 3)`` go through the same code path.
"""

from __future__ import annotations

import numpy as np

SMALL_ANGLE = 1e-6


class NotSkewSymmetric(ValueError):
    """Matrix handed to ``vee`` is not skew-symmetric within tolerance."""


class NearPiRotation(ValueError):
    """Rotation angle too close to pi for a well-conditioned logarithm."""


class SingularMatrix(ValueError):
    """Matrix is singular (or orientation-reversing) and has no projection."""


def hat(u):
    """Map vectors to skew-symmetric matrices so that ``hat(u) @ v = cross(u, v)``."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape[:-1] + (3, 3))
    x, y, z = u[..., 0], u[..., 1], u[..., 2]
    out[..., 0, 1] = -z
    out[..., 0, 2] = y
    out[..., 1, 0] = z
    out[..., 1, 2] = -x
    out[..., 2, 0] = -y
    out[..., 2, 1] = x
    return out


def vee(a, tol=1e-9):
    """Inverse of ``hat``: recover the vector from a skew-symmetric matrix.

    Raises
    ------
    NotSkewSymmetric
        If ``norm(a + a.T)`` exceeds ``tol`` for any matrix in the batch.
    """
    a = np.asarray(a, dtype=float)
    drift = np.linalg.norm(a + np.swapaxes(a, -1, -2), axis=(-2, -1))
    if np.any(drift > tol):
        raise NotSkewSymmetric(f"max |A + A^T| = {float(np.max(drift)):.3e} > {tol:.1e}")
    return np.stack([a[..., 2, 1], a[..., 0, 2], a[..., 1, 0]], axis=-1)


def axial(a):
    """Axial vector of the antisymmetric part: ``vee((a - a.T) / 2)``.

    Total on all matrices; equals ``vee(a)`` when ``a`` is exactly skew.
    """
    a = np.asarray(a, dtype=float)
    out = np.empty(a.shape[:-2] + (3,))
    np.subtract(a[..., 2, 1], a[..., 1, 2], out=out[..., 0])
    np.subtract(a[..., 0, 2], a[..., 2, 0], out=out[..., 1])
    np.subtract(a[..., 1, 0], a[..., 0, 1], out=out[..., 2])
    out *= 0.5
    return out


def exp_so3(eta):
    """Rotation matrix for a rotation vector (closed Rodrigues form).

    Below ``SMALL_ANGLE`` the trigonometric coefficients switch to their
    Taylor expansions; the two branches agree to 1e-12 at the threshold.
    """
    eta = np.asarray(eta, dtype=float)
    theta2 = np.sum(eta * eta, axis=-1)
    theta = np.sqrt(theta2)
    small = theta < SMALL_ANGLE
    safe = np.where(small, 1.0, theta)
    a = np.where(small, 1.0 - theta2 / 6.0 + theta2 * theta2 / 120.0, np.sin(safe) / safe)
    b = np.where(
        small,
        0.5 - theta2 / 24.0 + theta2 * theta2 / 720.0,
        (1.0 - np.cos(safe)) / (safe * safe),
    )
    w = hat(eta)
    out = a[..., None, None] * w
    out += b[..., None, None] * (w @ w)
    out.reshape(*eta.shape[:-1], 9)[..., ::4] += 1.0  # add the identity in place
    return out


def log_so3(rot):
    """Rotation vector of a rotation matrix.

    Raises
    ------
    NearPiRotation
        If ``trace(R) <= -1 + 1e-6`` anywhere in the batch; the axis is
        ill-conditioned near a half-turn and callers must stay away from it.
    """
    rot = np.asarray(rot, dtype=float)
    tr = np.trace(rot, axis1=-2, axis2=-1)
    if np.any(tr <= -1.0 + 1e-6):
        raise NearPiRotation(f"min trace = {float(np.min(tr)):.6f}, angle too close to pi")
    cos_theta = np.clip((tr - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_theta)
    small = theta < 1e-4
    safe = np.where(small, 1.0, theta)
    theta2 = theta * theta
    scale = np.where(
        small,
        1.0 + theta2 / 6.0 + 7.0 * theta2 * theta2 / 360.0,
        safe / np.sin(safe),
    )
    return scale[..., None] * axial(rot)


def rotation_error(rot, rot_star):
    """Attitude error vector ``axial(R*^T R)``; zero iff ``R*^T R`` is symmetric."""
    rot = np.asarray(rot, dtype=float)
    rot_star = np.asarray(rot_star, dtype=float)
    return axial(np.swapaxes(rot_star, -1, -2) @ rot)


def c_matrix(rot, rot_star):
    """Error-transport matrix ``(trace(R^T R*) I - R^T R*) / 2``; spectral norm <= 1."""
    rot = np.asarray(rot, dtype=float)
    rot_star = np.asarray(rot_star, dtype=float)
    a = np.swapaxes(rot, -1, -2) @ rot_star
    tr = np.trace(a, axis1=-2, axis2=-1)
    eye = np.broadcast_to(np.eye(3), a.shape)
    return 0.5 * (tr[..., None, None] * eye - a)


def project_so3(m):
    """Nearest rotation in Frobenius norm (polar decomposition via SVD).

    Idempotent on valid rotations.  Raises ``SingularMatrix`` when
    ``det(m) <= 1e-12`` (singular or orientation-reversing input).
    """
    m = np.asarray(m, dtype=float)
    det = np.linalg.det(m)
    if np.any(det <= 1e-12):
        raise SingularMatrix(f"min det = {float(np.min(det)):.3e} <= 1e-12")
    u, _, vt = np.linalg.svd(m)
    rot = u @ vt
    # SVD signs can flip in pairs; fold any stray reflection into the last column.
    flip = np.linalg.det(rot)
    u = u.copy()
    u[..., :, 2] *= np.where(flip < 0.0, -1.0, 1.0)[..., None]
    return u @ vt

"""Clamped-free soft rod plant.

State fields live on a uniform arc-length grid: position ``p`` (global frame),
cross-section orientation ``R``, global linear velocity ``v`` and body angular
velocity ``omega``.  Strains are recovered from the pose field, internal loads
follow a linear constitutive law, and the acceleration field is the reduced
four-state rod dynamics with a clamped base and a load-free tip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geometry import axial, require_rotation

REFERENCE_STRETCH = np.array([0.0, 0.0, 1.0])  # undeformed linear strain
REFERENCE_TWIST = np.zeros(3)  # undeformed angular strain
FIELDS = ("p", "rot", "v", "omega")  # RodState and StateRates field order


class NonFiniteState(FloatingPointError):
    """A state or derivative field picked up NaN/Inf (usually a blown-up run)."""


@dataclass(frozen=True)
class Grid:
    """Uniform arc-length grid on ``[0, length]`` with ``n_nodes`` samples."""

    n_nodes: int
    ds: float

    def __post_init__(self):
        if self.n_nodes < 2:
            raise ValueError("grid needs at least 2 nodes")
        if not self.ds > 0.0:
            raise ValueError("ds must be positive")

    @classmethod
    def from_length(cls, length, ds):
        for name, value in (("length", length), ("ds", ds)):
            if not value > 0.0:  # NaN fails too
                raise ValueError(f"{name} must be positive")
        n = int(round(length / ds)) + 1
        if abs(ds * (n - 1) - length) > 1e-12:
            raise ValueError(f"ds={ds} does not evenly divide length={length}")
        return cls(n_nodes=n, ds=float(ds))

    @property
    def length(self):
        return self.ds * (self.n_nodes - 1)

    @cached_property
    def s(self):
        """Node coordinates, computed once and read-only (callers share them)."""
        s = np.arange(self.n_nodes) * self.ds
        s.flags.writeable = False
        return s


@dataclass(frozen=True)
class RodParams:
    """Material and geometric constants of a uniform circular-section rod.

    ``sigma`` (cross-section area) and ``inertia`` (second-moment matrix)
    default to the circular-section formulas ``pi r^2`` and
    ``diag(pi r^4/4, pi r^4/4, pi r^4/2)``.  The stiffness matrices are always
    derived from the moduli: ``K_l = diag(G, G, E) sigma`` and
    ``K_a = diag(E, E, G) J``.
    """

    length: float
    radius: float
    density: float
    youngs_modulus: float
    shear_modulus: float
    sigma: float = None
    inertia: np.ndarray = None

    def __post_init__(self):
        for name in ("length", "radius", "density", "youngs_modulus", "shear_modulus"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if self.sigma is None:
            object.__setattr__(self, "sigma", float(np.pi * self.radius**2))
        if not self.sigma > 0.0:
            raise ValueError("sigma must be strictly positive")
        if self.inertia is None:
            second = np.pi * self.radius**4 / 4.0
            object.__setattr__(self, "inertia", np.diag([second, second, 2.0 * second]))
        inertia = np.asarray(self.inertia, dtype=float)
        object.__setattr__(self, "inertia", inertia)
        if inertia.shape != (3, 3) or np.linalg.norm(inertia - inertia.T) > 1e-12:
            raise ValueError("inertia must be a symmetric 3x3 matrix")
        if np.any(np.linalg.eigvalsh(inertia) <= 0.0):
            raise ValueError("inertia must be positive definite")
        e, g = self.youngs_modulus, self.shear_modulus
        object.__setattr__(self, "_stiffness_linear", np.diag([g, g, e]) * self.sigma)
        object.__setattr__(self, "_stiffness_angular", np.diag([e, e, g]) @ inertia)
        object.__setattr__(self, "_rotational_mass", self.density * inertia)
        object.__setattr__(
            self, "_rotational_mass_inv", np.linalg.inv(self.density * inertia)
        )

    @property
    def stiffness_linear(self):
        return self._stiffness_linear

    @property
    def stiffness_angular(self):
        return self._stiffness_angular

    @property
    def rotational_mass(self):
        """Sectional rotational mass ``rho J``."""
        return self._rotational_mass

    @property
    def rotational_mass_inv(self):
        return self._rotational_mass_inv

    @property
    def linear_mass(self):
        """Sectional linear mass ``rho sigma``."""
        return self.density * self.sigma


@dataclass
class RodState:
    """Grid-sampled rod configuration and velocities."""

    p: np.ndarray  # (n, 3) positions, m
    rot: np.ndarray  # (n, 3, 3) cross-section orientations
    v: np.ndarray  # (n, 3) global linear velocity, m/s
    omega: np.ndarray  # (n, 3) body angular velocity, rad/s

    def copy(self):
        return RodState(self.p.copy(), self.rot.copy(), self.v.copy(), self.omega.copy())

    @property
    def n_nodes(self):
        return self.p.shape[0]

    def validate(self, tol=1e-9):
        n = self.p.shape[0]
        for name in FIELDS:
            arr = getattr(self, name)
            if arr.shape[0] != n:
                raise ValueError(f"field {name} has {arr.shape[0]} nodes, expected {n}")
            if not np.all(np.isfinite(arr)):
                raise NonFiniteState(f"field {name} contains non-finite entries")
        require_rotation(self.rot, tol=tol)


@dataclass
class Wrench:
    """Distributed force (N/m) and moment (N*m/m) fields in the global frame."""

    f: np.ndarray  # (n, 3)
    l: np.ndarray  # (n, 3)

    @classmethod
    def zero(cls, n_nodes):
        return cls(np.zeros((n_nodes, 3)), np.zeros((n_nodes, 3)))

    def __add__(self, other):
        return Wrench(self.f + other.f, self.l + other.l)


class StateRates(NamedTuple):
    """Time derivative of a ``RodState``.

    ``rot`` holds the body angular-velocity tangent; integrators consume it
    through the exponential map rather than as a raw matrix derivative.
    """

    p: np.ndarray
    rot: np.ndarray
    v: np.ndarray
    omega: np.ndarray


class StrainProfile(NamedTuple):
    """Strain fields feeding the dynamics, with the tip pinned to the reference.

    ``q``/``u`` are the tip-substituted linear and angular strains and
    ``q_s``/``u_s`` their arc-length derivatives computed after substitution,
    so the tip carries no internal load.  ``p_s``/``rot_s`` are raw.
    """

    p_s: np.ndarray
    rot_s: np.ndarray
    q: np.ndarray
    u: np.ndarray
    q_s: np.ndarray
    u_s: np.ndarray


def _cross(a, b):
    """Row-wise cross product (cheaper than ``np.cross`` on small fields)."""
    out = np.empty_like(a)
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def _rotate_into_body(rot, field):
    """Per-node ``R_i^T x_i`` for a (n, 3) field."""
    return np.matmul(field[:, None, :], rot)[:, 0, :]


def _rotate_to_global(rot, field):
    """Per-node ``R_i x_i`` for a (n, 3) field."""
    return np.matmul(rot, field[:, :, None])[:, :, 0]


def _pose_strains(state, grid):
    """Pose derivatives ``p_s``, ``R_s`` and the raw strains they give.

    The angular strain is taken from the antisymmetric part of ``R^T R_s``:
    on a grid the product is skew only up to O(ds^2 * u * u_s), so an exact
    skewness demand would reject legitimately curved fields; frame-field
    validity itself is checked by ``RodState.validate``.
    """
    from .discretize import d_ds

    p_s = d_ds(state.p, grid)
    rot_s = d_ds(state.rot, grid)
    q = _rotate_into_body(state.rot, p_s)
    u = axial(np.matmul(state.rot.transpose(0, 2, 1), rot_s))
    return p_s, rot_s, q, u


def strains(state, grid):
    """Recover linear strain ``q = R^T p_s`` and angular strain ``u = (R^T R_s)^vee``."""
    _, _, q, u = _pose_strains(state, grid)
    return q, u


def strain_profile(state, grid):
    """Strain fields and derivatives with the free-tip substitution applied."""
    from .discretize import d_ds

    p_s, rot_s, q, u = _pose_strains(state, grid)
    # Pinning the tip strains to the reference encodes the load-free tip
    # through the constitutive law; derivatives see the substituted fields.
    q[-1] = REFERENCE_STRETCH
    u[-1] = REFERENCE_TWIST
    q_s = d_ds(q, grid)
    u_s = d_ds(u, grid)
    return StrainProfile(p_s, rot_s, q, u, q_s, u_s)


def internal_loads(q, u, rot, params):
    """Internal force/moment fields ``n = R K_l (q - q_ref)``, ``m = R K_a (u - u_ref)``."""
    dn = (q - REFERENCE_STRETCH) @ params.stiffness_linear.T
    dm = (u - REFERENCE_TWIST) @ params.stiffness_angular.T
    return _rotate_to_global(rot, dn), _rotate_to_global(rot, dm)


def load_terms(state, profile, params):
    """Elastic/Coriolis resultants shared by the plant and the cancelling controller.

    Returns the global-frame force term ``R K_l q_s + R_s K_l (q - q_ref)``
    and the body-frame moment term
    ``K_a u_s + u x K_a (u - u_ref) + q x K_l (q - q_ref) - omega x (rho J omega)``.
    Both sides of the cancellation identity evaluate this one function, so the
    subtraction is exact to rounding.
    """
    kl, ka = params.stiffness_linear, params.stiffness_angular
    dq = profile.q - REFERENCE_STRETCH
    du = profile.u - REFERENCE_TWIST
    kl_dq = dq @ kl.T
    force = _rotate_to_global(state.rot, profile.q_s @ kl.T) + _rotate_to_global(
        profile.rot_s, kl_dq
    )
    # the three cross products of the moment term in one call
    n = dq.shape[0]
    left = np.empty((3, n, 3))
    right = np.empty((3, n, 3))
    left[0] = profile.u
    right[0] = du @ ka.T
    left[1] = profile.q
    right[1] = kl_dq
    left[2] = state.omega
    right[2] = state.omega @ params.rotational_mass.T
    crosses = _cross(left, right)
    moment = profile.u_s @ ka.T + crosses[0] + crosses[1] - crosses[2]
    return force, moment


def dynamics_rhs(state, wrench, params, grid, profile=None, loads=None):
    """Time derivative of the rod state under a total distributed wrench.

    Per node: ``p_t = v``, the rotation tangent is ``omega``,
    ``v_t = (force_terms + f) / (rho sigma)`` and
    ``omega_t = (rho J)^-1 (moment_terms + R^T l)``.  The clamped base row is
    zeroed; the tip row uses the substituted strain profile.  Callers that
    already computed the state's strain profile (and its load resultants) may
    pass them in.

    Raises
    ------
    NonFiniteState
        If any output entry is NaN/Inf (typically a stability violation).
    """
    if profile is None:
        profile = strain_profile(state, grid)
    force, moment = loads if loads is not None else load_terms(state, profile, params)
    body_l = _rotate_into_body(state.rot, wrench.l)
    v_t = (force + wrench.f) / params.linear_mass
    omega_t = (moment + body_l) @ params.rotational_mass_inv.T
    p_t = state.v.copy()
    rot_t = state.omega.copy()
    # clamped base: pose and velocities frozen
    p_t[0] = 0.0
    rot_t[0] = 0.0
    v_t[0] = 0.0
    omega_t[0] = 0.0
    if not (
        np.isfinite(p_t).all()
        and np.isfinite(rot_t).all()
        and np.isfinite(v_t).all()
        and np.isfinite(omega_t).all()
    ):
        raise NonFiniteState("state derivative blew up (NaN/Inf); check the time step")
    return StateRates(p_t, rot_t, v_t, omega_t)


def make_initial_state(grid, scenario="straight_at_rest"):
    """Initial condition: a straight rod along z.

    ``straight_at_rest`` starts fully quiescent; ``axial_spin`` adds a unit
    axial velocity and unit axial spin at every node except the clamped base.
    """
    n = grid.n_nodes
    p = np.zeros((n, 3))
    p[:, 2] = grid.s
    rot = np.broadcast_to(np.eye(3), (n, 3, 3)).copy()
    v = np.zeros((n, 3))
    omega = np.zeros((n, 3))
    if scenario == "axial_spin":
        v[1:, 2] = 1.0
        omega[1:, 2] = 1.0
    elif scenario != "straight_at_rest":
        raise ValueError(f"unknown scenario {scenario!r}")
    return RodState(p, rot, v, omega)

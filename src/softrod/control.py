"""Task-space tracking control with exact feedforward cancellation.

The controller cancels the rod's elastic and Coriolis terms through a
distributed wrench, leaving each cross-section a decoupled double integrator
(position) plus attitude system, then closes PD loops on the four error
fields.  Gate checks certify the attitude-basin conditions at the initial
time, and a Lyapunov monitor certifies descent during simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import axial, rotation_error
from .rod import Wrench, _cross, load_terms, strain_profile


class TrajectoryPoint(NamedTuple):
    """Desired fields sampled over the grid at one instant."""

    p: np.ndarray  # (n, 3)
    rot: np.ndarray  # (n, 3, 3)
    v: np.ndarray  # (n, 3) global linear velocity
    omega: np.ndarray  # (n, 3) body angular velocity
    v_t: np.ndarray  # (n, 3)
    omega_t: np.ndarray  # (n, 3)


class DesiredTrajectory:
    """Smooth desired motion; subclasses implement ``evaluate(s, t)``."""

    def evaluate(self, s, t) -> TrajectoryPoint:
        raise NotImplementedError


@dataclass(frozen=True)
class GainProfile:
    """Per-node positive PD gains plus the Lyapunov coupling weight ``c``.

    Construction validates positivity and the coupling bound
    ``c < min(k_w, 4 k_R k_w / (k_w^2 + 4 k_R), sqrt(k_R))`` at every node, so
    a profile that exists is always certifiable.
    """

    kp: np.ndarray
    kv: np.ndarray
    kr: np.ndarray
    kw: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        for name in ("kp", "kv", "kr", "kw", "c"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if not np.all(arr > 0.0):
                raise ValueError(f"gain {name} must be strictly positive at every node")
        bound = self.c_upper_bound(self.kr, self.kw)
        if np.any(self.c >= bound):
            raise ValueError(
                f"coupling c violates its bound: max c = {float(np.max(self.c)):.3e}, "
                f"min bound = {float(np.min(bound)):.3e}"
            )

    @staticmethod
    def c_upper_bound(kr, kw):
        return np.minimum(np.minimum(kw, 4.0 * kr * kw / (kw**2 + 4.0 * kr)), np.sqrt(kr))

    @classmethod
    def constant(cls, grid, kp=1.0, kv=2.0, kr=1.0, kw=2.0, c=0.5):
        ones = np.ones(grid.n_nodes)
        return cls(kp * ones, kv * ones, kr * ones, kw * ones, c * ones)


@dataclass
class TrackingErrors:
    """Per-node error fields between the rod and the desired motion.

    ``rel`` (``R^T R*``) and ``omega_ref`` (the desired rate transported into
    the actual frame, ``R^T R* omega*``) are kept for ``virtual_inputs``.
    """

    e_p: np.ndarray
    e_v: np.ndarray
    e_rot: np.ndarray
    e_omega: np.ndarray
    rel: np.ndarray
    omega_ref: np.ndarray


def tracking_errors(state, traj, t, grid, ref=None):
    """Position, velocity, attitude and angular-rate errors at time ``t``.

    The angular-rate error compares body rates after transporting the desired
    rate into the actual frame: ``e_w = omega - R^T R* omega*``.  ``ref`` may
    carry a pre-evaluated trajectory point for the same ``(s, t)``.
    """
    if ref is None:
        ref = traj.evaluate(grid.s, t)
    rel = np.matmul(state.rot.transpose(0, 2, 1), ref.rot)  # R^T R*
    omega_ref = np.matmul(rel, ref.omega[:, :, None])[:, :, 0]
    return TrackingErrors(
        e_p=state.p - ref.p,
        e_v=state.v - ref.v,
        e_rot=rotation_error(state.rot, ref.rot),
        e_omega=state.omega - omega_ref,
        rel=rel,
        omega_ref=omega_ref,
    )


def virtual_inputs(errors, state, traj, t, gains, grid, ref=None):
    """Decoupled-loop accelerations: PD feedback plus transported feedforward.

    ``f* = v_t* - kp e_p - kv e_v`` and
    ``l* = R^T R* omega_t* - kR e_R - kw e_w - omega x (R^T R* omega*)``.
    With zero errors both reduce to the pure feedforward accelerations.
    ``errors`` must come from ``tracking_errors`` on the same state and time:
    its ``rel`` and ``omega_ref`` are reused here.
    """
    if ref is None:
        ref = traj.evaluate(grid.s, t)
    f_star = ref.v_t - gains.kp[:, None] * errors.e_p - gains.kv[:, None] * errors.e_v
    l_star = (
        np.matmul(errors.rel, ref.omega_t[:, :, None])[:, :, 0]
        - gains.kr[:, None] * errors.e_rot
        - gains.kw[:, None] * errors.e_omega
        - _cross(state.omega, errors.omega_ref)
    )
    return f_star, l_star


def feedforward_transform(state, f_star, l_star, wrench_env, params, grid, profile=None, loads=None):
    """Control wrench that cancels the rod nonlinearity and imposes the
    virtual accelerations.

    Substituted into the plant dynamics this yields ``v_t = f*`` and
    ``omega_t = l*`` exactly (to rounding) away from the clamped base, because
    the cancellation terms are evaluated by the same code path as the plant.
    """
    if profile is None:
        profile = strain_profile(state, grid)
    force, moment = loads if loads is not None else load_terms(state, profile, params)
    f_c = -force + params.linear_mass * f_star - wrench_env.f
    l_c = (
        -np.matmul(state.rot, (moment - l_star @ params.rotational_mass.T)[:, :, None])[:, :, 0]
        - wrench_env.l
    )
    return Wrench(f_c, l_c)


@dataclass(frozen=True)
class TrackingBasinReport:
    """Per-node attitude-basin feasibility at the initial time.

    ``angle_margin`` is ``4 - tr(I - R*^T R)`` (must stay positive) and
    ``rate_margin`` is ``kR (4 - tr) - |e_w|^2`` (must stay positive).
    ``coupling_bound`` is the admissible upper range for ``c`` and
    ``level_ratio`` the normalized initial attitude energy, feasible below 2.
    """

    angle_defect: np.ndarray
    angle_margin: np.ndarray
    rate_margin: np.ndarray
    coupling_bound: np.ndarray
    level_ratio: np.ndarray

    @property
    def angle_condition_ok(self):
        return bool(np.all(self.angle_margin > 0.0))

    @property
    def rate_condition_ok(self):
        return bool(np.all(self.rate_margin > 0.0))

    @property
    def all_ok(self):
        return self.angle_condition_ok and self.rate_condition_ok and bool(
            np.all(self.level_ratio < 2.0)
        )

    def summary(self):
        return (
            f"attitude-angle condition: {'pass' if self.angle_condition_ok else 'FAIL'} "
            f"(min margin {float(np.min(self.angle_margin)):.3e}); "
            f"angular-rate condition: {'pass' if self.rate_condition_ok else 'FAIL'} "
            f"(min margin {float(np.min(self.rate_margin)):.3e}); "
            f"max level ratio {float(np.max(self.level_ratio)):.3f} (< 2 required); "
            f"min coupling bound {float(np.min(self.coupling_bound)):.3e}"
        )


def attitude_margins(ref_rot, rot, e_omega, kr):
    """Per-node attitude defect ``tr(I - R*^T R)`` and basin rate margin.

    The rate margin is ``kR (4 - defect) - |e_w|^2``; the basin holds while it
    stays positive.
    """
    rel = np.einsum("nji,njk->nik", ref_rot, rot)  # R*^T R
    angle_defect = 3.0 - np.trace(rel, axis1=-2, axis2=-1)
    return angle_defect, kr * (4.0 - angle_defect) - np.sum(e_omega**2, axis=-1)


def check_tracking_basin(state0, traj, gains, grid):
    """Evaluate the convergence-basin inequalities on the initial state."""
    ref = traj.evaluate(grid.s, 0.0)
    errors = tracking_errors(state0, traj, 0.0, grid)
    angle_defect, rate_margin = attitude_margins(ref.rot, state0.rot, errors.e_omega, gains.kr)
    rate_sq = np.sum(errors.e_omega**2, axis=-1)
    level_ratio = (0.5 * gains.kr * angle_defect + 0.5 * rate_sq) / gains.kr
    return TrackingBasinReport(
        angle_defect=angle_defect,
        angle_margin=4.0 - angle_defect,
        rate_margin=rate_margin,
        coupling_bound=GainProfile.c_upper_bound(gains.kr, gains.kw),
        level_ratio=level_ratio,
    )


def position_lyapunov_matrix(kp, kv):
    """Quadratic-form weights for the position loop.

    Closed-form solution of ``A^T P + P A = -I`` for ``A = [[0, 1], [-kp, -kv]]``,
    taken as the fixed reproducible choice for the position-loop certificate.
    Returns the entries ``(p11, p12, p22)`` as node arrays.
    """
    p12 = 1.0 / (2.0 * kp)
    p22 = (1.0 + 1.0 / kp) / (2.0 * kv)
    p11 = kv / (2.0 * kp) + kp * p22
    return p11, p12, p22


def lyapunov_value(errors, state, traj, t, gains, grid):
    """Per-node Lyapunov fields ``(V1, V2)`` of the decoupled closed loop.

    ``V1`` is the quadratic form of ``(e_p, e_v)`` with the fixed positive
    weights of ``position_lyapunov_matrix``; ``V2`` combines the attitude
    defect, angular-rate energy and the ``c``-coupling cross term.
    """
    ref = traj.evaluate(grid.s, t)
    angle_defect, _ = attitude_margins(ref.rot, state.rot, errors.e_omega, gains.kr)
    p11, p12, p22 = position_lyapunov_matrix(gains.kp, gains.kv)
    ep2 = np.sum(errors.e_p**2, axis=-1)
    ev2 = np.sum(errors.e_v**2, axis=-1)
    cross_pv = np.sum(errors.e_p * errors.e_v, axis=-1)
    v1 = p11 * ep2 + 2.0 * p12 * cross_pv + p22 * ev2
    v2 = (
        0.5 * gains.kr * angle_defect
        + 0.5 * np.sum(errors.e_omega**2, axis=-1)
        + gains.c * np.sum(errors.e_rot * errors.e_omega, axis=-1)
    )
    return v1, v2


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

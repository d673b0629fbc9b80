"""Grid-discretized extended Kalman filter on the rotation group.

The filter state stacks the four rod fields as one vector
``[p; rotation-perturbation; v; omega]`` (field-major, 3n entries per field).
Rotation uncertainty lives in exponential coordinates: a perturbed frame is
``R exp(hat(delta))``, so the innovation enters the orientation update inside
the exponential map and every estimate stays on the rotation group.

The linearized operator is assembled as the exact Jacobian of the
*discretized* plant right-hand side (stencils, tip substitution and clamped
rows included), which agrees with the continuum operator blocks up to
O(ds^2) but matches directional finite differences of the simulated plant to
first order, the property the filter actually relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .discretize import _first_derivative_matrix, step
from .geometry import hat
from .rod import (
    REFERENCE_STRETCH,
    NonFiniteState,
    RodState,
    StateRates,
    dynamics_rhs,
    strain_profile,
)


class CovarianceBlowup(FloatingPointError):
    """Covariance diagonal crossed the divergence cap."""


# ---------------------------------------------------------------------------
# block helpers (fields are stacked per node: entry 3*i + axis)


def _block_diag(blocks):
    """Materialize (n, 3, 3) blocks as a dense (3n, 3n) block-diagonal matrix."""
    n = blocks.shape[0]
    out = np.zeros((n, 3, n, 3))
    idx = np.arange(n)
    out[idx, :, idx, :] = blocks
    return out.reshape(3 * n, 3 * n)


def _bd_mul(blocks, m):
    """Left-multiply by a block-diagonal matrix: ``blockdiag(blocks) @ m``."""
    n = blocks.shape[0]
    return np.einsum("nab,nbk->nak", blocks, m.reshape(n, 3, -1)).reshape(3 * n, -1)


def _const_mul(mat3, m):
    """Left-multiply every nodal 3-row slab by the same 3x3 matrix."""
    return np.einsum("ab,nbk->nak", mat3, m.reshape(-1, 3, m.shape[1])).reshape(m.shape)


@lru_cache(maxsize=16)
def _vector_stencil(n_nodes, ds):
    """First-derivative stencil acting on stacked per-node 3-vectors."""
    return np.kron(_first_derivative_matrix(n_nodes, ds), np.eye(3))


@lru_cache(maxsize=16)
def _stencil_pairs(n_nodes, ds):
    """COO structure (rows, cols, coefficients) of the first-derivative stencil."""
    d = _first_derivative_matrix(n_nodes, ds)
    ii, jj = np.nonzero(d)
    return ii, jj, d[ii, jj]


def _scatter_pairs(ii, jj, blocks, n):
    """Place 3x3 ``blocks[k]`` at node positions ``(ii[k], jj[k])`` of a (3n, 3n) matrix."""
    out = np.zeros((n, 3, n, 3))
    out[ii, :, jj, :] = blocks
    return out.reshape(3 * n, 3 * n)


# ---------------------------------------------------------------------------
# strain perturbation operators


class StrainPerturbation(NamedTuple):
    """Linear response of the (tip-substituted) strain fields.

    Each entry is a (3n, 3n) matrix; ``delta q = dq_p @ dp + dq_eta @ deta``
    and likewise for the derivatives, with ``du`` depending on ``deta`` only.
    """

    dq_p: np.ndarray
    dq_eta: np.ndarray
    dqs_p: np.ndarray
    dqs_eta: np.ndarray
    du_eta: np.ndarray
    dus_eta: np.ndarray


def strain_perturbation(state, grid):
    """Exact derivative of the discrete strain recovery at ``state``.

    Differentiates ``q = R^T p_s`` and ``u = axial(R^T R_s)`` through the
    stencils node by node; the tip rows are zeroed because the substituted
    tip strains are constant.  The angular part uses the identity
    ``axial(hat(x) M) = (trace(M) I - M) x / 2`` on the actual (only
    approximately skew) discrete spin matrix, so no continuum product rule is
    assumed.
    """
    n = grid.n_nodes
    dv = _vector_stencil(n, grid.ds)
    profile = strain_profile(state, grid)
    rot = state.rot

    dq_p = _bd_mul(rot.transpose(0, 2, 1), dv)
    dq_eta = _block_diag(hat(profile.q))
    dq_p[-3:] = 0.0
    dq_eta[-3:] = 0.0

    spin = np.einsum("nji,njk->nik", rot, profile.rot_s)
    tr = np.trace(spin, axis1=1, axis2=2)
    own = -0.5 * (tr[:, None, None] * np.eye(3) - spin)
    ii, jj, coef = _stencil_pairs(n, grid.ds)
    rel = np.einsum("kji,kjl->kil", rot[ii], rot[jj])  # R_i^T R_j
    tr_rel = np.trace(rel, axis1=1, axis2=2)
    pair_blocks = coef[:, None, None] * 0.5 * (
        tr_rel[:, None, None] * np.eye(3) - rel.transpose(0, 2, 1)
    )
    du_eta = _block_diag(own) + _scatter_pairs(ii, jj, pair_blocks, n)
    du_eta[-3:] = 0.0

    return StrainPerturbation(
        dq_p=dq_p,
        dq_eta=dq_eta,
        dqs_p=dv @ dq_p,
        dqs_eta=dv @ dq_eta,
        du_eta=du_eta,
        dus_eta=dv @ du_eta,
    )


# ---------------------------------------------------------------------------
# linearized dynamics operator


class LinearizedOperator:
    """Jacobian of the discretized rod dynamics at an estimate.

    Block layout over ``[p; eta; v; omega]``::

        [ 0    0        I    0   ]
        [ 0   -hat(w)   0    I   ]
        [ a31  a32      0    0   ]
        [ a41  a42      0    a44 ]

    ``dense`` is the materialized (12n, 12n) array (three-point stencils keep
    it narrowly banded) and the single source of truth for the operator.
    ``riccati_step`` relies on its pattern over ``x = [p; eta]`` and
    ``z = [v; omega]``: the x-x and z-z blocks are 3x3-block diagonal
    (per-node blocks), the x-z block is diagonal, and only the z-x block
    (``a31, a32, a41, a42``) is dense.
    """

    def __init__(self, dense, n_nodes):
        self.dense = dense
        self.n_nodes = n_nodes

    @classmethod
    def zeros(cls, n_nodes):
        return cls(np.zeros((12 * n_nodes, 12 * n_nodes)), n_nodes)


def linearize_dynamics(state, wrench_total, params, grid):
    """Assemble the Jacobian of ``dynamics_rhs`` at ``state``.

    ``wrench_total`` must carry the full applied moment field (environment
    plus control); it enters the orientation coupling of the angular block.
    Clamped-base rows are zeroed to mirror the plant.
    """
    n = grid.n_nodes
    m = 3 * n
    rot = state.rot
    profile = strain_profile(state, grid)
    pert = strain_perturbation(state, grid)
    kl, ka = params.stiffness_linear, params.stiffness_angular
    jrho = params.rotational_mass
    jrho_inv = np.linalg.inv(jrho)
    mass_l = params.linear_mass

    kl_qs = profile.q_s @ kl.T
    kl_dq = (profile.q - REFERENCE_STRETCH) @ kl.T
    ka_du = profile.u @ ka.T  # reference twist is zero

    r_kl = rot @ kl
    rs_kl = profile.rot_s @ kl
    ii, jj, coef = _stencil_pairs(n, grid.ds)
    spread_rb = _scatter_pairs(ii, jj, -coef[:, None, None] * (rot[jj] @ hat(kl_dq[ii])), n)

    a31 = (_bd_mul(r_kl, pert.dqs_p) + _bd_mul(rs_kl, pert.dq_p)) / mass_l
    a32 = (
        _bd_mul(r_kl, pert.dqs_eta)
        + _bd_mul(rs_kl, pert.dq_eta)
        - _block_diag(rot @ hat(kl_qs))
        + spread_rb
    ) / mass_l

    coef_q = hat(profile.q) @ kl - hat(kl_dq)
    coef_u = hat(profile.u) @ ka - hat(ka_du)
    body_l = np.einsum("nji,nj->ni", rot, wrench_total.l)
    a41 = _const_mul(jrho_inv, _bd_mul(coef_q, pert.dq_p))
    a42 = _const_mul(
        jrho_inv,
        _const_mul(ka, pert.dus_eta)
        + _bd_mul(coef_u, pert.du_eta)
        + _bd_mul(coef_q, pert.dq_eta)
        + _block_diag(hat(body_l)),
    )
    a44_blocks = np.einsum(
        "ab,nbc->nac", jrho_inv, hat(state.omega @ jrho.T) - hat(state.omega) @ jrho
    )

    dense = np.zeros((12 * n, 12 * n))
    dense[0:m, 2 * m : 3 * m] = np.eye(m)
    dense[m : 2 * m, m : 2 * m] = _block_diag(-hat(state.omega))
    dense[m : 2 * m, 3 * m : 4 * m] = np.eye(m)
    dense[2 * m : 3 * m, 0:m] = a31
    dense[2 * m : 3 * m, m : 2 * m] = a32
    dense[3 * m : 4 * m, 0:m] = a41
    dense[3 * m : 4 * m, m : 2 * m] = a42
    dense[3 * m : 4 * m, 3 * m : 4 * m] = _block_diag(a44_blocks)
    # clamped base: the plant returns zero rates at node 0
    for blk in range(4):
        dense[blk * m : blk * m + 3, :] = 0.0
    return LinearizedOperator(dense, n)


# ---------------------------------------------------------------------------
# noise model, covariance, gain


@dataclass(frozen=True)
class NoiseModel:
    """Node-diagonal measurement and process covariances.

    ``meas_cov`` holds per-node 3x3 position-measurement covariances (must be
    positive definite); ``process_cov`` optional per-node 12x12 blocks ordered
    ``(p, rot, v, omega)`` (default: no process noise).
    """

    meas_cov: np.ndarray
    process_cov: Optional[np.ndarray] = None

    def __post_init__(self):
        meas = np.asarray(self.meas_cov, dtype=float)
        object.__setattr__(self, "meas_cov", meas)
        if meas.ndim != 3 or meas.shape[1:] != (3, 3):
            raise ValueError("meas_cov must have shape (n_nodes, 3, 3)")
        if np.any(np.linalg.eigvalsh(meas) <= 0.0):
            raise ValueError("meas_cov must be positive definite at every node")
        if self.process_cov is not None:
            proc = np.asarray(self.process_cov, dtype=float)
            object.__setattr__(self, "process_cov", proc)
            if proc.shape != (meas.shape[0], 12, 12):
                raise ValueError("process_cov must have shape (n_nodes, 12, 12)")
            if np.any(np.linalg.eigvalsh(proc) < -1e-12):
                raise ValueError("process_cov must be positive semidefinite")

    @classmethod
    def isotropic(cls, grid, meas_var=0.02, process_var=0.0):
        n = grid.n_nodes
        meas = np.broadcast_to(meas_var * np.eye(3), (n, 3, 3)).copy()
        proc = None
        if process_var > 0.0:
            proc = np.broadcast_to(process_var * np.eye(12), (n, 12, 12)).copy()
        return cls(meas, proc)

    @property
    def n_nodes(self):
        return self.meas_cov.shape[0]

    def meas_full(self):
        """Dense block-diagonal (3n, 3n) measurement covariance."""
        return _block_diag(self.meas_cov)

    def process_full(self):
        """Process covariance mapped to the field-major (12n, 12n) layout."""
        if self.process_cov is None:
            return None
        n = self.n_nodes
        a = np.arange(12)
        idx = (a // 3) * 3 * n + 3 * np.arange(n)[:, None] + a % 3  # (n, 12) global rows
        out = np.zeros((12 * n, 12 * n))
        out[idx[:, :, None], idx[:, None, :]] = self.process_cov
        return out


def regularized_gain(covariance, noise, dt):
    """Innovation gain consistent with one measurement per ``dt``.

    ``meas_cov`` is the per-sample covariance of measurements arriving every
    ``dt``; the equivalent continuous noise intensity is ``meas_cov * dt``,
    so the innovation rate is ``K = P C^T (dt (R + C P C^T))^-1`` and the
    per-step weight ``dt K`` is the textbook discrete gain.  It reduces to
    ``P C^T (R dt)^-1`` for small covariance and keeps the update contracting
    no matter how large the covariance rides (the operator linearized along a
    driven swing is genuinely unstable, so transients can be large).
    """
    m = 3 * noise.n_nodes
    s = dt * (noise.meas_full() + covariance[:m, :m])
    return covariance[:, :m] @ np.linalg.inv(s)


@dataclass
class EstimatorState:
    """Filter estimate plus the grid-discretized covariance.

    The covariance is field-major: rows/columns ``[p; rot; v; omega]`` with
    3n entries per field (the rotation block is in exponential coordinates),
    and the held gain is the matching field-major (12n, 3n) array.
    """

    estimate: RodState
    covariance: np.ndarray
    step_count: int = 0
    gain: Optional[np.ndarray] = None

    @classmethod
    def initialize(cls, state, covariance_scale=1e-6):
        n = state.n_nodes
        return cls(state.copy(), covariance_scale * np.eye(12 * n))

    def advanced(self, estimate, covariance, gain):
        """The filter state one step on, after a finiteness check of ``estimate``."""
        if not np.all(np.isfinite(estimate.p)):
            raise NonFiniteState("estimator position field blew up")
        return EstimatorState(estimate, covariance, self.step_count + 1, gain)


def _diag_blocks(square):
    """The (k, 3, 3) diagonal blocks of a (3k, 3k) matrix."""
    k = square.shape[0] // 3
    idx = np.arange(k)
    return square.reshape(k, 3, k, 3)[idx, :, idx, :]


def _cayley_transition(op, dt):
    """``y -> Phi @ y`` for ``Phi = 2 M^-1 - I``, ``M = I - dt A/2``; ``Phi`` is never formed.

    Over ``x = [p; eta]`` and ``z = [v; omega]``, ``M = [[D1, C], [E, D2]]``
    with D1 and D2 3x3-block diagonal, C diagonal and only E dense (the
    pattern documented on ``LinearizedOperator``; an entry off it raises
    ``ValueError``), so ``M`` is inverted through the 6n x 6n Schur
    complement ``S = D2 - E D1^-1 C``.  With ``u = M^-1 y`` and
    ``F = 2 [-S^-1 E D1^-1, S^-1]``, ``2 u_z = F y`` and
    ``2 u_x = D1^-1 (2 y_x - C F y)``, and ``Phi y = 2 u - y``: one
    (6n, 12n) product plus per-node 3x3 products.
    """
    a = op.dense
    if not np.all(np.isfinite(a)):
        raise CovarianceBlowup("non-finite transition I - dt A/2: NaN/Inf in the operator")
    k = 6 * op.n_nodes
    h = 0.5 * dt
    a_xx, a_xz, a_zx, a_zz = a[:k, :k], a[:k, k:], a[k:, :k], a[k:, k:]
    blocks_x, diag_xz, blocks_z = _diag_blocks(a_xx), np.diagonal(a_xz), _diag_blocks(a_zz)
    for name, shape, region, kept in (
        ("[p; eta] rows x [p; eta] columns", "3x3-block diagonal", a_xx, blocks_x),
        ("[p; eta] rows x [v; omega] columns", "diagonal", a_xz, diag_xz),
        ("[v; omega] rows x [v; omega] columns", "3x3-block diagonal", a_zz, blocks_z),
    ):
        # a boolean mask counts faster than a strided float view
        if np.count_nonzero(region != 0.0) != np.count_nonzero(kept):
            raise ValueError(f"linearized operator block {name} is not {shape}")
    eye3 = np.eye(3)
    try:
        d1_inv = np.linalg.inv(eye3 - h * blocks_x)
        # w = A_zx D1^-1; E = -h A_zx and C = -h diag(diag_xz) give
        # E D1^-1 C = h^2 w diag(diag_xz)
        w = np.matmul(d1_inv.transpose(0, 2, 1), a_zx.T.reshape(-1, 3, k)).reshape(k, k).T
        schur = _block_diag(eye3 - h * blocks_z) - (h * h) * (w * diag_xz)
        # finite operator entries can still overflow S, and np.linalg.inv
        # does not check its input
        if not np.all(np.isfinite(schur)):
            raise CovarianceBlowup(
                "non-finite transition I - dt A/2: array must not contain infs or NaNs"
            )
        s_inv = np.linalg.inv(schur)
    except np.linalg.LinAlgError as exc:
        raise CovarianceBlowup(f"singular transition I - dt A/2: {exc}") from exc
    f = np.empty((k, 2 * k))
    np.matmul(s_inv, dt * w, out=f[:, :k])  # -2 S^-1 E D1^-1 = dt S^-1 w
    np.multiply(s_inv, 2.0, out=f[:, k:])
    # 2 u_x = D1^-1 (-C) (F y) + 2 D1^-1 y_x, so Phi y has x rows
    # (D1^-1 diag(h diag_xz)) (F y) + (2 D1^-1 - I) y_x
    from_z = d1_inv * (h * diag_xz).reshape(-1, 1, 3)
    from_x = 2.0 * d1_inv - eye3

    def apply(y):
        cols = y.shape[1]
        out = np.empty(y.shape)
        twice_z = out[k:]
        np.matmul(f, y, out=twice_z)
        phi_x = out[:k].reshape(-1, 3, cols)
        np.matmul(from_z, twice_z.reshape(-1, 3, cols), out=phi_x)
        phi_x += np.matmul(from_x, y[:k].reshape(-1, 3, cols))
        twice_z -= y[k:]
        return out

    return apply


def riccati_step(est, op, noise, dt, cap=1e6, measurement_dt=None):
    """Advance the covariance by ``dt`` holding the linearization fixed.

    The homogeneous flow is propagated by congruence with the Cayley
    transition ``Phi = (I - dt A/2)^-1 (I + dt A/2) = 2 (I - dt A/2)^-1 - I``,
    which is unconditionally stable on the rod's near-imaginary elastic-wave
    spectrum (a plain forward step amplifies those modes at any dt near the
    CFL bound) and preserves semidefiniteness.  ``I - dt A/2`` is inverted
    through its 6n x 6n Schur complement, which needs the block pattern
    documented on ``LinearizedOperator``; ``Phi`` is applied and never
    formed, as ``Phi @ (Phi @ P).T`` for the symmetric covariance ``P``.

    Measurements are per-sample draws with covariance ``noise.meas_cov``
    arriving every ``measurement_dt`` (default: one sample per update), so
    the equivalent continuous intensity is ``meas_cov * measurement_dt``.
    The contraction uses the regularized form
    ``P - dt P C^T (r_int + dt C P C^T)^-1 C P``, which reproduces the
    sequential discrete measurement updates exactly in the scalar stationary
    case.  The result is symmetrized.

    Raises
    ------
    CovarianceBlowup
        If any diagonal entry exceeds ``cap`` or is not finite, or if
        ``I - dt A/2`` is singular or not finite.
    ValueError
        If ``op.dense`` has a nonzero entry outside the block pattern.
    """
    p = est.covariance
    m = 3 * op.n_nodes
    phi = _cayley_transition(op, dt)
    p_pred = phi(phi(p).T)
    q_full = noise.process_full()
    if q_full is not None:
        p_pred = p_pred + dt * q_full
    r_int = (measurement_dt if measurement_dt is not None else dt) * noise.meas_full()
    s = r_int + dt * p_pred[:m, :m]
    gain_reg = p_pred[:, :m] @ np.linalg.inv(s)
    p_new = p_pred - dt * gain_reg @ p_pred[:m, :]
    p_new = 0.5 * (p_new + p_new.T)
    diag = np.diagonal(p_new)
    if not np.all(diag <= cap):
        cause = f"exceeded cap {cap:.1e}" if np.all(np.isfinite(diag)) else "is non-finite"
        raise CovarianceBlowup(f"covariance diagonal {cause}; filter diverged")
    return p_new


def filter_update(
    est,
    y,
    wrench,
    params,
    grid,
    noise,
    cfg,
    riccati_stride=1,
    covariance_cap=1e6,
):
    """Measurement half of the filter cycle: covariance, gain, innovation rates.

    Relinearizes and advances the covariance every ``riccati_stride``-th call
    (covering ``stride * dt`` of filter time per refresh) and returns the new
    covariance, the held gain and the per-field innovation rates for the
    current measurement.  ``wrench`` is a callable ``(state, t) -> Wrench``,
    called on a refresh only: the linearization uses its value at the
    current estimate.
    """
    n = grid.n_nodes
    m = 3 * n
    if est.gain is not None and est.step_count % riccati_stride:
        # between refreshes the covariance and the gain are held
        covariance = est.covariance
        gain = est.gain
    elif noise.process_cov is None and not est.covariance.any():
        # zero prior and no process noise: the covariance stays zero and the
        # filter degenerates to pure model replay; skip the Riccati work
        covariance = est.covariance
        gain = est.gain if est.gain is not None else np.zeros((4 * m, m))
    else:
        wrench_value = wrench(est.estimate, est.step_count * cfg.dt)
        op = linearize_dynamics(est.estimate, wrench_value, params, grid)
        covariance = riccati_step(
            est,
            op,
            noise,
            riccati_stride * cfg.dt,
            cap=covariance_cap,
            measurement_dt=cfg.dt,
        )
        gain = regularized_gain(covariance, noise, cfg.dt)
    innovation = (np.asarray(y, dtype=float) - est.estimate.p).reshape(-1)
    # one product per field row block, batched (a flat (12n, 3n) product
    # rounds differently)
    rates = (gain.reshape(4, m, m) @ innovation).reshape(4, n, 3)
    return covariance, gain, StateRates(*rates)


def with_innovation(rates, correction):
    """Plant rates plus the constant innovation rates of one filter step.

    The orientation rate correction adds to the body angular-velocity tangent,
    so the integrator's exponential update realizes
    ``R <- R exp(dt (omega + K_rot (y - p)))``.
    """
    return StateRates(*(rate + extra for rate, extra in zip(rates, correction)))


def ekf_step(
    est,
    y,
    wrench_total,
    params,
    grid,
    noise,
    cfg,
    riccati_stride=1,
    covariance_cap=1e6,
):
    """One predict-correct cycle of the filter.

    Runs ``filter_update`` and then advances the estimate under the plant
    dynamics, driven by the applied wrench ``wrench_total``, plus the
    innovation rates using the configured scheme.
    """
    covariance, gain, correction = filter_update(
        est,
        y,
        lambda _s, _t: wrench_total,
        params,
        grid,
        noise,
        cfg,
        riccati_stride=riccati_stride,
        covariance_cap=covariance_cap,
    )

    def rhs(state, _t):
        return with_innovation(dynamics_rhs(state, wrench_total, params, grid), correction)

    new_estimate = step(
        est.estimate, rhs, cfg, step_index=est.step_count, t=est.step_count * cfg.dt
    )
    return est.advanced(new_estimate, covariance, gain)

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
from numpy.lib.stride_tricks import sliding_window_view

from .discretize import _first_derivative_matrix, step
from .geometry import hat
from .rod import (
    FIELDS,
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
# node bands (fields are stacked per node: entry 3*i + axis)

# a node band holds node block (i, j) of a (3n, 3n) matrix at [i, j - i + R];
# the linearization reaches R = 3 nodes (2 inside the rod, 3 at the tip)
REACH = 3


def _band_dense(band):
    """The (3n, 3n) matrix of a node band ``(n, 2R + 1, 3, 3)``; R is read from its shape."""
    n, width = band.shape[:2]
    col = np.arange(n)[:, None] + np.arange(width) - width // 2
    i, d = np.nonzero((col >= 0) & (col < n))
    out = np.zeros((n, 3, n, 3))
    out[i, :, col[i, d], :] = band[i, d]
    return out.reshape(3 * n, 3 * n)


@lru_cache(maxsize=16)
def _stencil_pairs(n_nodes, ds):
    """COO structure (rows, cols, coefficients) of the first-derivative stencil,
    then its five diagonals as ``(e, D[i, i + e])`` for node offsets e = -2..2."""
    d = _first_derivative_matrix(n_nodes, ds)
    ii, jj = np.nonzero(d)
    by_offset = tuple((e, np.diagonal(d, e)[:, None, None, None]) for e in range(-2, 3))
    return ii, jj, d[ii, jj], by_offset


def _along_nodes(bands, by_offset):
    """The bands of ``D @ X`` for the stencil D and node bands X ``(..., n, 2R + 1, 3, 3)``.

    Row i takes ``D[i, i + e] X[i + e]`` for each offset e, shifted by -e
    along the offset axis.
    """
    out = np.zeros_like(bands)
    n, width = bands.shape[-4:-2]
    for e, coef in by_offset:
        rows, lo, hi = max(-e, 0), max(e, 0), width + min(e, 0)
        shifted = bands[..., rows + e : rows + e + n - abs(e), lo - e : hi - e, :, :]
        out[..., rows : rows + n - abs(e), lo:hi, :, :] += coef * shifted
    return out


# ---------------------------------------------------------------------------
# strain perturbation operators


class StrainPerturbation(NamedTuple):
    """Linear response of the (tip-substituted) strain fields.

    Each entry is the node band ``(n, 2R + 1, 3, 3)`` of a (3n, 3n) matrix;
    ``delta q = dq_p @ dp + dq_eta @ deta`` and likewise for the derivatives,
    with ``du`` depending on ``deta`` only.
    """

    dq_p: np.ndarray
    dq_eta: np.ndarray
    dqs_p: np.ndarray
    dqs_eta: np.ndarray
    du_eta: np.ndarray
    dus_eta: np.ndarray


def strain_perturbation(state, profile, grid):
    """Exact derivative of the discrete strain recovery at ``state``, given its ``profile``.

    Differentiates ``q = R^T p_s`` and ``u = axial(R^T R_s)`` through the
    stencils node by node; the tip rows are zeroed because the substituted
    tip strains are constant.  The angular part uses the identity
    ``axial(hat(x) M) = (trace(M) I - M) x / 2`` on the actual (only
    approximately skew) discrete spin matrix, so no continuum product rule is
    assumed.
    """
    n = grid.n_nodes
    rot = state.rot
    ii, jj, coef, by_offset = _stencil_pairs(n, grid.ds)
    pairs = ii, jj - ii + REACH

    bands = np.zeros((3, n, 2 * REACH + 1, 3, 3))
    dq_p, dq_eta, du_eta = bands
    dq_p[pairs] = coef[:, None, None] * rot[ii].transpose(0, 2, 1)
    dq_eta[:, REACH] = hat(profile.q)

    spin = np.einsum("nji,njk->nik", rot, profile.rot_s)
    tr = np.trace(spin, axis1=1, axis2=2)
    own = -0.5 * (tr[:, None, None] * np.eye(3) - spin)
    rel = np.einsum("kji,kjl->kil", rot[ii], rot[jj])  # R_i^T R_j
    tr_rel = np.trace(rel, axis1=1, axis2=2)
    du_eta[pairs] = coef[:, None, None] * 0.5 * (
        tr_rel[:, None, None] * np.eye(3) - rel.transpose(0, 2, 1)
    )
    du_eta[:, REACH] += own
    bands[:, -1] = 0.0
    dqs_p, dqs_eta, dus_eta = _along_nodes(bands, by_offset)
    return StrainPerturbation(dq_p, dq_eta, dqs_p, dqs_eta, du_eta, dus_eta)


# ---------------------------------------------------------------------------
# linearized dynamics operator


class LinearizedOperator(NamedTuple):
    """Jacobian of the discretized rod dynamics at an estimate, held as its blocks.

    Block layout over ``[p; eta; v; omega]``::

        [ 0    0        I    0   ]
        [ 0   -hat(w)   0    I   ]
        [ a31  a32      0    0   ]
        [ a41  a42      0    a44 ]

    Over ``x = [p; eta]`` and ``z = [v; omega]`` the x-x and z-z blocks are
    3x3-block diagonal, kept as their (2n, 3, 3) per-node blocks ``xx`` and
    ``zz`` (p or v rows of node j at j, eta or omega rows at n + j); the x-z
    block is diagonal, kept as its (6n,) diagonal ``xz``; and the z-x block
    (``a31, a32, a41, a42``) is kept as a node band ``zx`` of shape
    ``(2, 2, n, 2R + 1, 3, 3)``: z field (v, omega), x field (p, eta), row
    node i, offset ``j - i + R``, with zeros outside the grid.  Its
    half-width R sets the run length of the refresh's block-tridiagonal
    factorization.  ``dense`` assembles the (12n, 12n) matrix on demand.
    """

    xx: np.ndarray
    zz: np.ndarray
    xz: np.ndarray
    zx: np.ndarray

    @property
    def n_nodes(self):
        return self.xx.shape[0] // 2

    @property
    def dense(self):
        """The (12n, 12n) operator, assembled from the blocks (a read-only copy)."""
        k = 6 * self.n_nodes
        out = np.zeros((2 * k, 2 * k))
        out[:k, :k] = _band_dense(self.xx[:, None])
        out[k:, k:] = _band_dense(self.zz[:, None])
        idx = np.arange(k)
        out[idx, k + idx] = self.xz
        out[k:, :k] = np.block([[_band_dense(band) for band in row] for row in self.zx])
        out.flags.writeable = False
        return out

    @classmethod
    def zeros(cls, n_nodes):
        k, blocks = 6 * n_nodes, (2 * n_nodes, 3, 3)
        zx = np.zeros((2, 2, n_nodes, 2 * REACH + 1, 3, 3))
        return cls(np.zeros(blocks), np.zeros(blocks), np.zeros(k), zx)


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
    pert = strain_perturbation(state, profile, grid)
    kl, ka = params.stiffness_linear, params.stiffness_angular
    jrho, jrho_inv = params.rotational_mass, params.rotational_mass_inv

    kl_qs = profile.q_s @ kl.T
    kl_dq = (profile.q - REFERENCE_STRETCH) @ kl.T
    ka_du = profile.u @ ka.T  # reference twist is zero

    # per-node left factors multiply every offset of a band: (n, 1, 3, 3) @ band
    r_kl = (rot @ kl)[:, None]
    rs_kl = (profile.rot_s @ kl)[:, None]
    ii, jj, coef, _ = _stencil_pairs(n, grid.ds)

    zx = np.empty((2, 2, n, 2 * REACH + 1, 3, 3))
    zx[0, 0] = r_kl @ pert.dqs_p + rs_kl @ pert.dq_p
    zx[0, 1] = r_kl @ pert.dqs_eta + rs_kl @ pert.dq_eta
    zx[0, 1, :, REACH] -= rot @ hat(kl_qs)
    zx[0, 1, ii, jj - ii + REACH] -= coef[:, None, None] * (rot[jj] @ hat(kl_dq[ii]))
    zx[0] /= params.linear_mass

    coef_q = (hat(profile.q) @ kl - hat(kl_dq))[:, None]
    coef_u = (hat(profile.u) @ ka - hat(ka_du))[:, None]
    body_l = np.einsum("nji,nj->ni", rot, wrench_total.l)
    zx[1, 0] = coef_q @ pert.dq_p
    zx[1, 1] = ka @ pert.dus_eta + coef_u @ pert.du_eta + coef_q @ pert.dq_eta
    zx[1, 1, :, REACH] += hat(body_l)
    zx[1] = jrho_inv @ zx[1]

    xx = np.zeros((2 * n, 3, 3))
    zz = np.zeros_like(xx)
    xx[n:] = -hat(state.omega)
    zz[n:] = np.einsum(
        "ab,nbc->nac", jrho_inv, hat(state.omega @ jrho.T) - hat(state.omega) @ jrho
    )
    xz = np.ones(2 * m)
    # clamped base: the plant returns zero rates at node 0
    xx[n] = zz[n] = 0.0
    xz[:3] = xz[m : m + 3] = zx[:, :, 0] = 0.0
    return LinearizedOperator(xx, zz, xz, zx)


# ---------------------------------------------------------------------------
# noise model, covariance, gain


@dataclass(frozen=True)
class NoiseModel:
    """Two variances: R = ``meas_var I`` on the positions, Q = ``process_var I`` on the state."""

    n_nodes: int
    meas_var: float
    process_var: float = 0.0

    def __post_init__(self):
        # written as `not x > 0` so that NaN fails too
        if not self.meas_var > 0.0:
            raise ValueError("meas_var must be positive")
        if not self.process_var >= 0.0:
            raise ValueError("process_var must be nonnegative")


def regularized_gain(covariance, noise, dt):
    """Innovation gain consistent with one measurement per ``dt``.

    ``R = meas_var I`` is the per-sample covariance of measurements arriving
    every ``dt``; the equivalent continuous noise intensity is ``R dt``, so
    the innovation rate is ``K = P C^T (dt (R + C P C^T))^-1`` and the
    per-step weight ``dt K`` is the textbook discrete gain.  It reduces to
    ``P C^T (R dt)^-1`` for small covariance and keeps the update contracting
    no matter how large the covariance rides (the operator linearized along a
    driven swing is genuinely unstable, so transients can be large).
    """
    m = 3 * noise.n_nodes
    s = dt * (noise.meas_var * np.eye(m) + covariance[:m, :m])
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
        """The filter state one step on, after a finiteness check of each field of ``estimate``."""
        for name, values in zip(FIELDS, estimate):
            if not np.isfinite(values).all():
                node = np.argwhere(~np.isfinite(values))[0, 0]
                raise NonFiniteState(
                    f"estimator {name} field blew up at node {node}", f"{name} at node {node}"
                )
        return EstimatorState(estimate, covariance, self.step_count + 1, gain)


@lru_cache(maxsize=16)
def _runs(n_nodes, reach):
    """Node-major slots of a 6n field pair, in runs of ``reach`` nodes.

    Slot ``6 j + 3 f + c`` of the padded node-major order holds node ``j``,
    field ``f`` and axis ``c``; the last run is padded past node n - 1.
    Returns the field-major index of every slot of each run, shape
    ``(runs, 6 reach)``; the same for the runs ``d - 1`` off, shape
    ``(3, runs, 6 reach)``, with pad slots and absent runs at index 0; each
    (row, column) slot pair's flat index into a z-x band of half-width
    ``reach`` (0 off the band) and the mask of the pairs on it, shape
    ``(3, runs, 6 reach, 6 reach)``; and the mask of real slots.
    """
    runs = -(-n_nodes // reach)
    slot = np.arange(6 * reach * (runs + 2)).reshape(runs + 2, -1)
    node, field, axis = slot // 6 - reach, slot // 3 % 2, slot % 3
    real = (node >= 0) & (node < n_nodes)
    index = np.where(real, 3 * n_nodes * field + 3 * node + axis, 0)

    def near(a):  # the runs d - 1 off, as columns
        return np.stack([a[d : d + runs] for d in range(3)])[:, :, None, :]

    def own(a):  # each run, as rows
        return a[1:-1, :, None]

    offset = near(node) - own(node) + reach
    inside = own(real) & near(real) & (offset >= 0) & (offset <= 2 * reach)
    flat = (own(field) * 2 + near(field)) * n_nodes + own(node)
    flat = ((flat * (2 * reach + 1) + offset) * 3 + own(axis)) * 3 + near(axis)
    return index[1:-1], near(index)[:, :, 0], np.where(inside, flat, 0), inside, real[1:-1]


def _singular(first, last):
    return CovarianceBlowup(f"singular transition I - dt A/2 at nodes {first}–{last}")


def _cayley_transition(op, dt):
    """``y -> Phi @ y`` for ``Phi = 2 M^-1 - I``, ``M = I - dt A/2``; ``Phi`` is never formed.

    Over ``x = [p; eta]`` and ``z = [v; omega]``, ``M = [[D1, C], [E, D2]]``
    with D1 and D2 3x3-block diagonal, C diagonal and only E unstructured
    (the blocks ``LinearizedOperator`` holds), so ``M`` is inverted through
    the 6n x 6n Schur complement ``S = D2 - E D1^-1 C``.  With ``u = M^-1 y``,
    ``2 u_z = S^-1 r`` for ``r = 2 y_z + dt w y_x`` and ``w = A_zx D1^-1``,
    ``2 u_x = D1^-1 (2 y_x - C 2 u_z)``, and ``Phi y = 2 u - y``.

    E reaches at most R nodes, the half-width of the band ``op.zx``, so with
    the z unknowns node-major (per node ``v_j`` then ``omega_j``) in runs of
    R nodes, ``S`` and ``w`` (gathered from the band) are block tridiagonal
    with 6R x 6R blocks.  ``S`` is factored by one forward sweep
    that keeps each pivot block's inverse (pivoting only within a block).
    Each apply is one batched product of every run's three ``w`` blocks with
    a window of ``y_x``, a forward and a backward sweep over the runs, and
    per-node 3x3 products for the x rows.  A singular pivot block raises
    ``CovarianceBlowup`` naming its nodes.  The returned ``apply(y, out)``
    writes into the caller's ``out``.
    """
    if not all(np.all(np.isfinite(block)) for block in op):
        raise CovarianceBlowup("non-finite transition I - dt A/2: NaN/Inf in the operator")
    n = op.n_nodes
    k = 6 * n
    h = 0.5 * dt
    group = op.zx.shape[3] // 2
    z_slots, x_slots, band_index, inside, real = _runs(n, group)
    runs, width = z_slots.shape
    eye3 = np.eye(3)
    d1 = eye3 - h * op.xx
    try:
        d1_inv = np.linalg.inv(d1)
    except np.linalg.LinAlgError as exc:
        node = np.flatnonzero(np.linalg.det(d1) == 0.0)[0] % n
        raise _singular(node, node) from exc
    # the band of w = A_zx D1^-1: the run d - 1 off the diagonal is w[d]
    a_band = np.take(op.zx, band_index) * inside
    w = np.einsum(
        "duiqc,duqce->duiqe",
        a_band.reshape(3, runs, width, 2 * group, 3),
        d1_inv[x_slots[:, :, ::3] // 3],
        optimize=True,
    ).reshape(a_band.shape)
    # E = -h A_zx and C = -h diag(A_xz) give E D1^-1 C = h^2 w diag(A_xz)
    schur = w * op.xz[x_slots][:, :, None, :]
    schur *= -h * h
    own = np.arange(2 * group)
    schur[1].reshape(runs, 2 * group, 3, 2 * group, 3)[:, own, :, own, :] += (
        eye3 - h * (op.zz[z_slots[:, ::3] // 3] * real[:, ::3, None, None])
    ).transpose(1, 0, 2, 3)  # padded slots get identity rows
    # finite operator entries can still overflow S, and np.linalg.inv does
    # not check its input
    if not np.all(np.isfinite(schur)):
        raise CovarianceBlowup(
            "non-finite transition I - dt A/2: array must not contain infs or NaNs"
        )
    # block LU of S: pivot_inv[i] is the inverse of run i's pivot block,
    # lower[i] the multiplier of run i - 1 and upper[i] = pivot_inv[i] S[i, i + 1]
    pivot_inv = np.empty((runs, width, width))
    lower = np.empty((runs, width, width))
    pivot = schur[1, 0]
    for i in range(runs):
        if i:
            lower[i] = schur[0, i] @ pivot_inv[i - 1]
            pivot = schur[1, i] - lower[i] @ schur[2, i - 1]
        try:
            pivot_inv[i] = np.linalg.inv(pivot)
        except np.linalg.LinAlgError as exc:
            raise _singular(i * group, min(i * group + group, n) - 1) from exc
    upper = pivot_inv[:-1] @ schur[2, :-1]
    pivot_inv *= 2.0  # the sweeps solve S (u_z) = r / 2 and return 2 u_z
    # each run's [h w_(i, i-1), h w_(i, i), h w_(i, i+1)] against a window of y_x
    w_window = (h * w).transpose(1, 2, 0, 3).reshape(runs, width, 3 * width)
    # 2 u_x = D1^-1 (-C) (2 u_z) + 2 D1^-1 y_x, so Phi y has x rows
    # (D1^-1 diag(h A_xz)) (2 u_z) + (2 D1^-1 - I) y_x, taken node-major
    from_z = d1_inv * (h * op.xz).reshape(-1, 1, 3)
    from_x = 2.0 * d1_inv - eye3
    from_z, from_x = (m.reshape(2, n, 3, 3).transpose(1, 0, 2, 3) for m in (from_z, from_x))

    def apply(y, out):
        """Write ``Phi @ y`` into ``out``, a C-contiguous array of ``y``'s shape."""
        cols = y.shape[1]
        # y_x node-major with an empty run on either side, three runs per window
        y_x = np.empty(((runs + 2) * group, 2, 3, cols))
        y_x[:group] = y_x[group + n :] = 0.0
        x_nodes = y_x[group : group + n]
        x_nodes[...] = y[:k].reshape(2, n, 3, cols).transpose(1, 0, 2, 3)
        windows = sliding_window_view(y_x.reshape(-1, cols), 3 * width, axis=0)[::width]
        r = w_window @ windows.transpose(0, 2, 1)
        y_z = y[k:].reshape(2, n, 3, cols).transpose(1, 0, 2, 3)
        r.reshape(-1, 2, 3, cols)[:n] += y_z
        tmp = np.empty((width, cols))
        for i in range(1, runs):
            r[i] -= np.matmul(lower[i], r[i - 1], out=tmp)
        # backward sweep: run i becomes pivot_inv[i] r_i - upper[i] (run i + 1)
        r[-1] = np.matmul(pivot_inv[-1], r[-1], out=tmp)
        for i in range(runs - 2, -1, -1):
            np.matmul(pivot_inv[i], r[i], out=tmp)
            np.subtract(tmp, np.matmul(upper[i], r[i + 1], out=r[i]), out=r[i])
        twice_z = r.reshape(-1, 2, 3, cols)[:n]
        phi = out.reshape(4, n, 3, cols).transpose(1, 0, 2, 3)  # field-major rows, per node
        np.subtract(twice_z, y_z, out=phi[:, 2:])
        np.matmul(from_z, twice_z, out=phi[:, :2])
        phi[:, :2] += np.matmul(from_x, x_nodes, out=twice_z)  # the runs are spent

    return apply


# one work array per shape, held across refreshes
_held_buffer = lru_cache(maxsize=4)(np.empty)


def riccati_step(covariance, op, noise, dt, cap=1e6, measurement_dt=None):
    """Advance the covariance by ``dt`` holding the linearization fixed.

    The homogeneous flow is propagated by congruence with the Cayley
    transition ``Phi = (I - dt A/2)^-1 (I + dt A/2) = 2 (I - dt A/2)^-1 - I``,
    which is unconditionally stable on the rod's near-imaginary elastic-wave
    spectrum (a plain forward step amplifies those modes at any dt near the
    CFL bound) and preserves semidefiniteness.  ``I - dt A/2`` is inverted
    through its 6n x 6n Schur complement, factored as a block-tridiagonal
    band over the blocks ``LinearizedOperator`` holds; ``Phi`` is applied and
    never formed, as ``Phi @ (Phi @ P).T`` for the symmetric covariance
    ``P``.  Process noise adds ``dt * process_var`` to the predicted
    diagonal.  The contraction and the symmetrization run in place in the
    two products' buffers; neither ``covariance`` nor ``op`` is written.
    The first product's buffer is held across refreshes (one per shape, never
    returned), so the refresh is not re-entrant: two of one size must not overlap.

    Measurements are per-sample draws with covariance ``R = meas_var I``
    arriving every ``measurement_dt`` (default: one sample per update), so
    the equivalent continuous intensity is ``R * measurement_dt``.
    The contraction uses the regularized form
    ``P - dt P C^T (r_int + dt C P C^T)^-1 C P``, which reproduces the
    sequential discrete measurement updates exactly in the scalar stationary
    case.  The result is symmetrized.

    Raises
    ------
    CovarianceBlowup
        If any diagonal entry exceeds ``cap`` or is not finite (the message
        names the field and node of the first one, field-major), or if
        ``I - dt A/2`` is singular (the message names the nodes) or not
        finite.
    """
    m = 3 * op.n_nodes
    phi = _cayley_transition(op, dt)
    first, p_new = _held_buffer(covariance.shape), np.empty(covariance.shape)
    phi(covariance, first)
    phi(first.T, p_new)
    if noise.process_var:
        p_new.reshape(-1)[:: p_new.shape[0] + 1] += dt * noise.process_var
    r_int = (measurement_dt if measurement_dt is not None else dt) * (noise.meas_var * np.eye(m))
    s = r_int + dt * p_new[:m, :m]
    gain_reg = p_new[:, :m] @ np.linalg.inv(s)
    # the first product is spent: it takes the correction, then the transpose
    p_new -= np.matmul(dt * gain_reg, p_new[:m, :], out=first)
    np.copyto(first, p_new.T)
    p_new += first
    p_new *= 0.5
    diag = np.diagonal(p_new)
    if not np.all(diag <= cap):
        entry = np.flatnonzero(~(diag <= cap))[0]
        field, node = divmod(entry // 3, op.n_nodes)
        cause = f"exceeded cap {cap:.1e}" if np.isfinite(diag[entry]) else "is non-finite"
        raise CovarianceBlowup(
            f"covariance diagonal {cause} at {FIELDS[field]} node {node}; filter diverged"
        )
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
    (covering ``stride * dt`` of filter time per refresh), holds the
    covariance and the gain in between, and returns both with the per-field
    innovation rates for the current measurement.  ``wrench`` is a callable
    ``t -> Wrench`` giving the applied wrench at the current filter time,
    called on a refresh only; the linearization at the current estimate uses
    its value.  A zero covariance without process noise refreshes to an exact
    zero covariance and gain.
    """
    n = grid.n_nodes
    m = 3 * n
    if est.gain is not None and est.step_count % riccati_stride:
        # between refreshes the covariance and the gain are held
        covariance = est.covariance
        gain = est.gain
    else:
        op = linearize_dynamics(est.estimate, wrench(est.step_count * cfg.dt), params, grid)
        covariance = riccati_step(
            est.covariance,
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
    return covariance, gain, StateRates(rates)


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
    innovation rates, by one RK4 step.  The orientation rate correction adds
    to the body angular-velocity tangent, so the integrator's exponential
    update realizes ``R <- R exp(dt (omega + K_rot (y - p)))``.  A zero
    prior without process noise keeps the covariance and the gain exactly
    zero, so the estimate replays the plant model.
    """
    covariance, gain, correction = filter_update(
        est,
        y,
        lambda _t: wrench_total,
        params,
        grid,
        noise,
        cfg,
        riccati_stride=riccati_stride,
        covariance_cap=covariance_cap,
    )

    def rhs(state, _t):
        return StateRates(dynamics_rhs(state, wrench_total, params, grid).data + correction.data)

    new_estimate = step(
        est.estimate, rhs, cfg, step_index=est.step_count, t=est.step_count * cfg.dt
    )
    return est.advanced(new_estimate, covariance, gain)

"""Finite-difference operators and explicit time integration on the rod manifold.

Spatial derivatives use second-order central stencils with second-order
one-sided closures, so accuracy is uniform O(ds^2) across the grid.  Time
integration advances the flat fields additively and the rotation field
multiplicatively through the exponential map, which keeps every frame on the
rotation group without per-step projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import exp_so3, project_so3
from .rod import FIELDS, RodState, StateRates

SCHEMES = ("euler", "rk4")


class GridTooSmall(ValueError):
    """Grid has too few nodes for the requested stencil."""


@lru_cache(maxsize=32)
def _first_derivative_matrix(n_nodes, ds):
    if n_nodes < 3:
        raise GridTooSmall(f"first derivative needs >= 3 nodes, got {n_nodes}")
    d = np.zeros((n_nodes, n_nodes))
    for i in range(1, n_nodes - 1):
        d[i, i - 1] = -1.0
        d[i, i + 1] = 1.0
    d[0, 0], d[0, 1], d[0, 2] = -3.0, 4.0, -1.0
    d[-1, -1], d[-1, -2], d[-1, -3] = 3.0, -4.0, 1.0
    return d / (2.0 * ds)


def d_ds(field, grid):
    """First arc-length derivative of a per-node field (any trailing shape)."""
    field = np.asarray(field, dtype=float)
    if field.shape[0] != grid.n_nodes:
        raise ValueError(f"field has {field.shape[0]} nodes, grid has {grid.n_nodes}")
    mat = _first_derivative_matrix(grid.n_nodes, grid.ds)
    return (mat @ field.reshape(grid.n_nodes, -1)).reshape(field.shape)


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    scheme: str = "rk4"
    reorthonormalize_every: int = 100

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.reorthonormalize_every < 1:
            raise ValueError("reorthonormalize_every must be >= 1")


def _advance(state, rates, dt):
    return RodState(
        state.p + dt * rates.p,
        state.rot @ exp_so3(dt * rates.rot),
        state.v + dt * rates.v,
        state.omega + dt * rates.omega,
    )


def step(state, rhs_fn, cfg, step_index=0, t=0.0):
    """One explicit time step; rotations advance by ``R exp(dt * w_eff)``.

    ``rhs_fn(state, t)`` is evaluated at the proper stage states and stage
    times.  ``rk4`` combines the rotation tangents in the tangent space;
    flat fields keep the classical fourth order, the rotation update is
    third order locally when the angular rate does not commute with its
    derivative (no commutator correction).  Every
    ``cfg.reorthonormalize_every``-th step (by ``step_index``) the rotation
    field is polished with the polar projection to absorb rounding.  The
    fields may carry a leading batch axis, as in ``step_coupled``.
    """
    dt = cfg.dt
    if cfg.scheme == "euler":
        new = _advance(state, rhs_fn(state, t), dt)
    else:
        k1 = rhs_fn(state, t)
        k2 = rhs_fn(_advance(state, k1, dt / 2.0), t + dt / 2.0)
        k3 = rhs_fn(_advance(state, k2, dt / 2.0), t + dt / 2.0)
        k4 = rhs_fn(_advance(state, k3, dt), t + dt)
        combo = StateRates(
            (k1.p + 2.0 * k2.p + 2.0 * k3.p + k4.p) / 6.0,
            (k1.rot + 2.0 * k2.rot + 2.0 * k3.rot + k4.rot) / 6.0,
            (k1.v + 2.0 * k2.v + 2.0 * k3.v + k4.v) / 6.0,
            (k1.omega + 2.0 * k2.omega + 2.0 * k3.omega + k4.omega) / 6.0,
        )
        new = _advance(state, combo, dt)
    if (step_index + 1) % cfg.reorthonormalize_every == 0:
        new.rot = project_so3(new.rot)
    return new


def step_coupled(states, rhs_fn, cfg, step_index=0, t=0.0):
    """Advance several coupled states through one shared explicit step.

    ``rhs_fn(states, t)`` receives the tuple of stage states and returns a
    matching tuple of rates, so closures may couple the systems (e.g. a plant
    driven by a controller reading a co-integrated estimate) while every
    subsystem sees the same stage values and stage times.  The members are
    stacked on a leading axis and advanced by ``step``.
    """
    count = len(states)

    def split(batch):
        return tuple(RodState(*(getattr(batch, f)[j] for f in FIELDS)) for j in range(count))

    def stacked_rhs(batch, tau):
        return StateRates(*map(np.stack, zip(*rhs_fn(split(batch), tau))))

    stacked = RodState(*(np.stack([getattr(s, f) for s in states]) for f in FIELDS))
    return split(step(stacked, stacked_rhs, cfg, step_index=step_index, t=t))


@dataclass(frozen=True)
class CflReport:
    """Advisory stability report for explicit stepping of the elastic waves."""

    wave_speed_extension: float
    wave_speed_shear: float
    dt_bound: float
    dt: float
    margin: float
    passed: bool

    def __str__(self):
        verdict = "OK" if self.passed else "VIOLATED"
        return (
            f"CFL {verdict}: dt = {self.dt:.3e} vs bound ds/c = {self.dt_bound:.3e} "
            f"(c_l = {self.wave_speed_extension:.1f} m/s, "
            f"c_s = {self.wave_speed_shear:.1f} m/s, margin = {self.margin:.3e})"
        )


def check_cfl(params, grid, dt):
    """Compare ``dt`` against ``ds / max(sqrt(E/rho), sqrt(G/rho))`` (advisory)."""
    c_l = np.sqrt(params.youngs_modulus / params.density)
    c_s = np.sqrt(params.shear_modulus / params.density)
    bound = grid.ds / max(c_l, c_s)
    return CflReport(
        wave_speed_extension=float(c_l),
        wave_speed_shear=float(c_s),
        dt_bound=float(bound),
        dt=float(dt),
        margin=float(bound - dt),
        passed=bool(dt <= bound),
    )

"""Closed-loop simulation harness: plant + controller + filter + logging.

A run wires the rod plant, the cancelling tracking controller (fed by either
the true state or the filter estimate) and the position-measurement filter
into one seeded, deterministic time loop, logging sup-norm error metrics and
dumping full-state snapshots as CSV.
"""

from __future__ import annotations

import dataclasses
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .control import (
    GainProfile,
    TrajectoryPoint,
    attitude_margins,
    check_tracking_basin,
    feedforward_transform,
    lyapunov_value,
    tracking_errors,
    virtual_inputs,
)
from .discretize import IntegratorConfig, check_cfl, step, step_coupled
from .estimate import CovarianceBlowup, EstimatorState, NoiseModel, filter_update
from .geometry import NearPiRotation, log_so3
from .rod import (
    Grid,
    NonFiniteState,
    RodParams,
    RodState,
    StateRates,
    Wrench,
    dynamics_rhs,
    load_terms,
    make_initial_state,
    strain_profile,
    strains,
)

FEEDBACK_MODES = ("true", "estimated")
SCENARIOS = ("straight_at_rest", "axial_spin")

# a run that stops on one of these writes its partial outputs and a last-good
# snapshot; the CLI reports it as an aborted run (exit 1), not a config error,
# although NearPiRotation is a ValueError
RUN_ABORTS = (NonFiniteState, CovarianceBlowup, NearPiRotation)


@dataclass
class RunConfig:
    """Flat, file-loadable run configuration.

    Defaults reproduce the reference scenario: a 0.5 m silicone-soft rod
    (E = 0.03 GPa, G = 0.01 GPa, rho = 2000 kg/m^3, r = 0.02 m) on a
    ds = 0.025 grid stepped at dt = 2e-4 s, unit attitude/position gains with
    double damping, and position measurements with variance 0.02.
    """

    length: float = 0.5
    radius: float = 0.02
    density: float = 2000.0
    youngs_modulus: float = 3.0e7
    shear_modulus: float = 1.0e7
    ds: float = 0.025
    dt: float = 2.0e-4
    kp: float = 1.0
    kv: float = 2.0
    kr: float = 1.0
    kw: float = 2.0
    coupling_c: float = 0.5
    measurement_variance: float = 0.02
    process_variance: float = 0.0
    initial_covariance: float = 1.0e-6
    duration: float = 10.0
    feedback: str = "true"
    seed: int = 0
    scenario: str = "axial_spin"
    amplitude: float = float(np.pi / 3.0)
    frequency: float = 0.5
    phase: float = float(np.pi / 2.0)
    gravity: float = 0.0
    log_every: int = 50
    snapshot_every: int = 5000
    riccati_stride: int = 10
    covariance_cap: float = 1.0e6
    out_dir: str = "out"

    def __post_init__(self):
        # +inf passes every `x > 0` test below
        for f in dataclasses.fields(self):
            if isinstance(f.default, float) and np.isinf(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        # written as `not x > 0` so that NaN fails too
        if not self.duration >= 0.0:
            raise ValueError("duration must be nonnegative")
        if self.feedback not in FEEDBACK_MODES:
            raise ValueError(f"feedback must be one of {FEEDBACK_MODES}")
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}")
        if not self.measurement_variance > 0.0:
            raise ValueError("measurement_variance must be positive")
        if not self.initial_covariance >= 0.0:
            raise ValueError("initial_covariance must be nonnegative")
        if not self.process_variance >= 0.0:
            raise ValueError("process_variance must be nonnegative")
        if not self.covariance_cap > 0.0:
            raise ValueError("covariance_cap must be positive")
        if not np.isfinite(self.gravity):
            raise ValueError("gravity must be finite")
        for name in ("log_every", "snapshot_every", "riccati_stride"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        self.rod_params()  # validates the physical constants
        self.integrator()  # validates dt
        grid = self.grid()  # validates ds
        self.gains(grid)  # validates the gains and their coupling bound
        self.trajectory(grid)  # validates amplitude and frequency

    def rod_params(self):
        return RodParams(
            length=self.length,
            radius=self.radius,
            density=self.density,
            youngs_modulus=self.youngs_modulus,
            shear_modulus=self.shear_modulus,
        )

    def grid(self):
        return Grid.from_length(self.length, self.ds)

    def integrator(self):
        return IntegratorConfig(dt=self.dt)

    def gains(self, grid):
        return GainProfile.constant(
            grid, kp=self.kp, kv=self.kv, kr=self.kr, kw=self.kw, c=self.coupling_c
        )

    def noise(self, grid):
        return NoiseModel(grid.n_nodes, self.measurement_variance, self.process_variance)

    def trajectory(self, grid):
        return SwingTrajectory(self.amplitude, self.frequency, self.phase, grid.length)


def _parse_item(item):
    """``(key, value)`` of one ``key=value`` item, typed as the field's default."""
    key, sep, text = (part.strip() for part in item.partition("="))
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    if not sep or not text:
        raise ValueError(f"expected key=value, got {item!r}")
    if key not in defaults:
        raise ValueError(f"unknown config key {key!r}")
    try:
        return key, type(defaults[key])(text)
    except ValueError:
        raise ValueError(f"bad value for {key}: {text!r}") from None


def load_config(path):
    """Read a flat ``key=value`` config file; unknown keys are a hard error."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            key, value = _parse_item(line)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        values[key] = value
    return RunConfig(**values)


def apply_overrides(cfg, overrides):
    """New config with ``key=value`` strings applied on top of ``cfg``."""
    return dataclasses.replace(cfg, **dict(map(_parse_item, overrides)))


def config_lines(cfg):
    return [f"{f.name}={getattr(cfg, f.name)}" for f in dataclasses.fields(RunConfig)]


# ---------------------------------------------------------------------------
# desired trajectory

MEMO_SIZE = 3  # trajectory points SwingTrajectory.evaluate keeps


class SwingTrajectory:
    """Planar bending swing of a clamped rod in the yz-plane.

    The cross-section frames roll about the x-axis by
    ``phi(s, t) = amplitude * w(s) * sin(2 pi frequency t + phase)`` with the
    smooth profile ``w(s) = sin^2(pi s / 2 L)``, so the base frame stays
    aligned with the clamp (``w(0) = w'(0) = 0``) and the tip swings by the
    full amplitude.  The desired centerline is the strain-free shape of those
    frames, ``p(s) = integral of R(sigma) e_z``, realized with a fixed
    trapezoid rule over the evaluation nodes; velocities and accelerations
    apply the same rule to the time-differentiated integrand, which makes the
    kinematic-consistency relations exact by construction.  A nonzero phase
    makes the desired initial state differ from the plant's straight start.
    """

    def __init__(self, amplitude, frequency, phase, length):
        if not 0.0 <= amplitude < np.pi / 2.0:
            raise ValueError("amplitude must lie in [0, pi/2)")
        if not frequency > 0.0:
            raise ValueError("frequency must be positive")
        if not length > 0.0:
            raise ValueError("length must be positive")
        if not np.isfinite(phase):
            raise ValueError("phase must be finite")
        self.amplitude = float(amplitude)
        self.frequency = float(frequency)
        self.phase = float(phase)
        self.length = float(length)
        self._memo = []  # (t, s, point) of the last MEMO_SIZE fresh evaluations

    def swing_state(self, t):
        """Normalized swing phase and its first two time derivatives."""
        w = 2.0 * np.pi * self.frequency
        arg = w * t + self.phase
        return np.sin(arg), w * np.cos(arg), -w * w * np.sin(arg)

    @staticmethod
    def _cumtrapz(integrand, s):
        out = np.zeros_like(integrand)
        seg = 0.5 * (integrand[1:] + integrand[:-1]) * (s[1:] - s[:-1])[:, None]
        out[1:] = np.cumsum(seg, axis=0)
        return out

    def evaluate(self, s, t):
        """Reference point at nodes ``s`` and time ``t``, memoised on exact keys.

        RK4 samples ``t + dt/2`` twice per step and its ``t + dt`` is usually
        the next step's start time to the bit, so the last ``MEMO_SIZE``
        points are kept, keyed on ``t`` compared with ``==`` and on equal node
        coordinates.  A read-only ``s`` that owns its data (``Grid.s``) is
        kept by reference and matched by identity first; any other ``s`` is
        copied.  A returned point is shared between callers, so its arrays
        are read-only.
        """
        s = np.asarray(s, dtype=float)
        for key_t, key_s, point in self._memo:
            if key_t == t and (key_s is s or np.array_equal(key_s, s)):
                return point
        point = self._compute(s, t)
        shared = not s.flags.writeable and s.base is None
        self._memo.insert(0, (t, s if shared else s.copy(), point))
        del self._memo[MEMO_SIZE:]
        return point

    def _compute(self, s, t):
        n = s.shape[0]
        profile = np.sin(np.pi * s / (2.0 * self.length)) ** 2
        swing, swing_t, swing_tt = self.swing_state(t)
        phi = self.amplitude * profile * swing
        phi_t = self.amplitude * profile * swing_t
        phi_tt = self.amplitude * profile * swing_tt
        c, si = np.cos(phi), np.sin(phi)

        rot = np.zeros((n, 3, 3))
        rot[:, 0, 0] = 1.0
        rot[:, 1, 1] = c
        rot[:, 1, 2] = -si
        rot[:, 2, 1] = si
        rot[:, 2, 2] = c

        # tangent, its first and its second time derivative side by side:
        # cumsum runs per column, so one quadrature equals three
        tangents = np.zeros((n, 9))
        tangents[:, 1] = -si
        tangents[:, 2] = c
        tangents[:, 4] = -phi_t * c
        tangents[:, 5] = -phi_t * si
        tangents[:, 7] = -phi_tt * c + phi_t * phi_t * si
        tangents[:, 8] = -phi_tt * si - phi_t * phi_t * c
        integrals = self._cumtrapz(tangents, s)
        omega = np.zeros((n, 3))
        omega[:, 0] = phi_t
        omega_t = np.zeros((n, 3))
        omega_t[:, 0] = phi_tt
        point = TrajectoryPoint(
            p=integrals[:, 0:3],
            rot=rot,
            v=integrals[:, 3:6],
            omega=omega,
            v_t=integrals[:, 6:9],
            omega_t=omega_t,
        )
        for arr in point:
            arr.flags.writeable = False
        return point


# ---------------------------------------------------------------------------
# metrics and snapshots


@dataclass(frozen=True)
class MetricsRecord:
    """Sup-norm error summary at one logging instant.

    All sups run over every grid node (the base-aligned reference keeps the
    clamped node's errors identically zero).  ``basin_margin`` is the
    minimum angular-rate basin margin.
    """

    t: float
    ep_sup: float
    ev_sup: float
    er_sup: float
    ew_sup: float
    eps_p: float
    eps_r: float
    eps_v: float
    eps_w: float
    v_sup: float
    basin_margin: float


@dataclass(frozen=True)
class Snapshot:
    t: float
    state: RodState
    estimate: RodState


def compute_metrics(t, plant, estimate, traj, gains, grid):
    """Metrics record from the true state, the estimate and the reference."""
    errs = tracking_errors(plant, traj, t, grid)
    v1, v2 = lyapunov_value(errs, plant, traj, t, gains, grid)
    ref = traj.evaluate(grid.s, t)
    _, rate_margin = attitude_margins(ref.rot, plant.rot, errs.e_omega, gains.kr)
    est_rel = np.einsum("nji,njk->nik", estimate.rot, plant.rot)
    # the eight sups in MetricsRecord's field order
    fields = np.stack(
        [
            errs.e_p,
            errs.e_v,
            errs.e_rot,
            errs.e_omega,
            plant.p - estimate.p,
            log_so3(est_rel),
            plant.v - estimate.v,
            plant.omega - estimate.omega,
        ]
    )
    sups = np.linalg.norm(fields, axis=-1).max(axis=1)
    return MetricsRecord(
        float(t),
        *sups.tolist(),
        v_sup=float(np.max(v1 + v2)),
        basin_margin=float(np.min(rate_margin)),
    )


# ---------------------------------------------------------------------------
# closed loop


@dataclass
class RunResult:
    config: RunConfig
    records: list
    snapshots: list
    written: list = field(default_factory=list)


def run_closed_loop(cfg, out_dir=None):
    """Run the seeded closed loop and (optionally) emit its CSV outputs.

    The config decides the regime once.  With a zero prior and zero process
    noise the covariance and the gain stay exactly zero, so the estimate is
    the plant: each step advances the plant alone under the controller
    wrench, and no measurement is drawn.  Otherwise each step draws a noisy
    position measurement, refreshes the filter (covariance, gain, innovation
    rates), then co-advances plant and estimate through shared integrator
    stages with the controller wrench re-evaluated at the stage states of
    the configured feedback source.  On a non-finite state, a covariance
    blow-up or a near-pi rotation error the partial outputs plus a last-good
    snapshot are written before the error propagates.
    """
    params = cfg.rod_params()
    grid = cfg.grid()
    int_cfg = cfg.integrator()
    gains = cfg.gains(grid)
    noise = cfg.noise(grid)
    traj = cfg.trajectory(grid)
    rng = np.random.default_rng(cfg.seed)

    plant = make_initial_state(grid, cfg.scenario)
    replay = not (cfg.initial_covariance or cfg.process_variance)
    if replay:
        estimate = plant
    else:
        estimator = EstimatorState.initialize(plant, covariance_scale=cfg.initial_covariance)
        estimate = estimator.estimate

    gate = check_tracking_basin(plant, traj, gains, grid)
    if not gate.all_ok:
        warnings.warn(f"attitude-basin gate failed: {gate.summary()}", stacklevel=2)
    cfl = check_cfl(params, grid, cfg.dt)
    if not cfl.passed:
        warnings.warn(str(cfl), stacklevel=2)

    n = grid.n_nodes
    wrench_env = Wrench(
        np.tile([0.0, 0.0, -cfg.gravity * params.linear_mass], (n, 1)), np.zeros((n, 3))
    )
    noise_std = float(np.sqrt(cfg.measurement_variance))
    n_steps = int(round(cfg.duration / cfg.dt))

    true_feedback = cfg.feedback == "true"

    def controller_wrench(state, at_time, ref=None, loads=None):
        errs = tracking_errors(state, traj, at_time, grid, ref=ref)
        f_star, l_star = virtual_inputs(errs, state, traj, at_time, gains, grid, ref=ref)
        wrench_c = feedforward_transform(
            state, f_star, l_star, wrench_env, params, grid, loads=loads
        )
        return wrench_env + wrench_c

    def closed_loop_rates(state, tau):
        # the controller wrench at the feedback state and that state's rates,
        # sharing its loads
        ref = traj.evaluate(grid.s, tau)
        loads = load_terms(state, strain_profile(state, grid), params)
        wrench = controller_wrench(state, tau, ref=ref, loads=loads)
        return wrench, dynamics_rhs(state, wrench, params, grid, loads=loads)

    @contextmanager
    def naming(divergence, tau):
        try:
            yield
        except NonFiniteState as exc:
            raise NonFiniteState(
                f"{divergence}: its state derivative is non-finite (NaN/Inf) "
                f"in {exc.where} at stage time t={tau!r}",
                exc.where,
            ) from exc

    def coupled_rhs(correction):
        # plant and estimate advance through shared stages: the controller
        # re-evaluates its wrench at the stage states of the configured
        # feedback source, so the cancellation never goes stale within a
        # step, and the filter prediction sees the same applied wrench
        def rhs(states, tau):
            plant_stage, est_stage = states
            # the feedback source goes first: a non-finite feedback state
            # poisons the wrench, and the guard then names the source
            if true_feedback:
                wrench, plant_rates = closed_loop_rates(plant_stage, tau)
                with naming("estimate diverged", tau):
                    est_rates = dynamics_rhs(est_stage, wrench, params, grid)
            else:
                with naming("estimate diverged", tau):
                    wrench, est_rates = closed_loop_rates(est_stage, tau)
                # a finite estimate whose wrench drives the plant off must
                # not read as a time-step problem
                with naming("plant diverged under estimate-fed control", tau):
                    plant_rates = dynamics_rhs(plant_stage, wrench, params, grid)
            return plant_rates, StateRates(est_rates.data + correction.data)

        return rhs

    def solo_rhs(state, tau):
        return closed_loop_rates(state, tau)[1]

    records, snapshots = [], []
    result = RunResult(config=cfg, records=records, snapshots=snapshots)
    t = 0.0
    try:
        for i in range(n_steps):
            t = i * cfg.dt
            if i % cfg.log_every == 0:
                records.append(compute_metrics(t, plant, estimate, traj, gains, grid))
            if i % cfg.snapshot_every == 0:
                snapshots.append(Snapshot(t, plant.copy(), estimate.copy()))
            if replay:
                plant = estimate = step(plant, solo_rhs, int_cfg, step_index=i, t=t)
                continue
            y = plant.p + rng.normal(0.0, noise_std, size=(n, 3))
            fb_state = plant if true_feedback else estimate
            covariance, gain, correction = filter_update(
                estimator,
                y,
                lambda tau: controller_wrench(fb_state, tau),
                params,
                grid,
                noise,
                int_cfg,
                riccati_stride=cfg.riccati_stride,
                covariance_cap=cfg.covariance_cap,
            )
            plant, est_state = step_coupled(
                (plant, estimate), coupled_rhs(correction), int_cfg, step_index=i, t=t
            )
            estimator = estimator.advanced(est_state, covariance, gain)
            estimate = estimator.estimate
        if n_steps > 0:
            t = n_steps * cfg.dt
            records.append(compute_metrics(t, plant, estimate, traj, gains, grid))
            snapshots.append(Snapshot(t, plant.copy(), estimate.copy()))
    except RUN_ABORTS as exc:
        # the last finite states, for post-mortem, unless this step's snapshot holds them
        if not snapshots or snapshots[-1].t != t:
            snapshots.append(Snapshot(t, plant.copy(), estimate.copy()))
        if out_dir is not None:
            result.written = emit_csv(records, snapshots, cfg, out_dir, grid, abort=exc)
        raise
    if out_dir is not None:
        result.written = emit_csv(records, snapshots, cfg, out_dir, grid)
    return result


# ---------------------------------------------------------------------------
# output


METRICS_HEADER = "t,ep_sup,ev_sup,eR_sup,ew_sup,eps_p,eps_R,eps_v,eps_w,V_sup"
# MetricsRecord's fields in METRICS_HEADER's order
_METRICS_FIELDS = [f.name for f in dataclasses.fields(MetricsRecord) if f.name != "basin_margin"]

_SNAPSHOT_HEADER = ",".join(
    ["s", "p_x", "p_y", "p_z"]
    + [f"R_{i}{j}" for i in range(3) for j in range(3)]
    + ["v_x", "v_y", "v_z", "w_x", "w_y", "w_z", "q_x", "q_y", "q_z", "u_x", "u_y", "u_z"]
)


def _metrics_cells(record):
    return [repr(float(getattr(record, name))) for name in _METRICS_FIELDS]


def _snapshot_rows(state, grid):
    q, u = strains(state, grid)
    table = np.column_stack([grid.s, state.p, state.rot.reshape(-1, 9), state.v, state.omega, q, u])
    # tolist() yields Python floats: under numpy 2, repr of a numpy scalar reads np.float64(...)
    return [",".join(map(repr, row)) for row in table.tolist()]


def emit_csv(records, snapshots, cfg, out_dir, grid, abort=None):
    """Write metrics CSV, per-time snapshot CSVs, config echo and report.

    ``abort`` is the exception that stopped the run, if one did; the report
    then names it.  Output is byte-deterministic for a given run (floats via
    ``repr``).  Returns the list of written paths.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        written = []

        metrics_path = out / "metrics.csv"
        lines = [METRICS_HEADER] + [",".join(_metrics_cells(r)) for r in records]
        metrics_path.write_text("\n".join(lines) + "\n")
        written.append(metrics_path)

        times = {snap.t for snap in snapshots}
        digits = 6  # or the fewest more that keep distinct snapshot times apart
        while len({f"{t:.{digits}f}" for t in times}) < len(times):
            digits += 1
        for snap in snapshots:
            tag = f"{snap.t:.{digits}f}s"
            for label, state in (("state", snap.state), ("estimate", snap.estimate)):
                path = out / f"snapshot_{tag}_{label}.csv"
                path.write_text(
                    "\n".join([_SNAPSHOT_HEADER] + _snapshot_rows(state, grid)) + "\n"
                )
                written.append(path)

        config_path = out / "config.txt"
        config_path.write_text("\n".join(config_lines(cfg)) + "\n")
        written.append(config_path)

        report_path = out / "report.txt"
        report = [f"status={'completed' if abort is None else 'aborted'}"]
        if abort is not None:
            report.append(f"abort={type(abort).__name__}: {abort}")
        report.append(f"steps_logged={len(records)}")
        if records:
            last = _metrics_cells(records[-1])
            report.append(f"t_final={last[0]}")
            report.append("final_sups=" + ",".join(last[1:5]))
            report.append("final_estimation_sups=" + ",".join(last[5:9]))
            report.append(f"min_basin_margin={float(min(r.basin_margin for r in records))!r}")
        report_path.write_text("\n".join(report) + "\n")
        written.append(report_path)
        return written
    except OSError as exc:
        raise OSError(f"failed writing run outputs under {out}: {exc}") from exc

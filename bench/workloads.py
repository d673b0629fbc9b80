"""The benchmark's closed-loop workloads and the output checks of each.

Every workload runs in one process on one thread, closed loop: each step
starts when the previous one returns.  A workload's unit of work is an *op*:

- ``track_true`` and ``dense_log`` call ``run_closed_loop`` once per op, with
  a fixed number of steps, and write (then hash and delete) a run directory;
- ``filter_replay`` runs one fixed-length episode of criterion 3's loop per
  op, driving every step itself through the public API.

Every op is checked; a failed check or an exception makes the op a failure.
Functions are looked up through their modules at call time, so that the
tracer's patched names are the ones called.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import shutil
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

import softrod
from softrod import harness
from softrod.harness import RunConfig


@dataclass
class OpResult:
    """Timing, digest and check outcome of one op."""

    steps: int
    seconds: float
    latencies_ns: np.ndarray
    digest: str
    problems: list = field(default_factory=list)
    bytes_written: int = 0

    @property
    def rate(self):
        return self.steps / self.seconds


def _digest_dir(path):
    """sha256 over the sorted file names and contents of a run directory."""
    h = hashlib.sha256()
    nbytes = 0
    for f in sorted(path.iterdir()):
        data = f.read_bytes()
        nbytes += len(data)
        h.update(f.name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
    return h.hexdigest(), nbytes


class StepClock:
    """Entry timestamps of the integrator calls inside ``run_closed_loop``.

    One stamp per closed-loop step (the harness calls ``step`` or
    ``step_coupled`` exactly once per step), so consecutive differences are
    per-step wall latencies.  Patches only ``harness``'s own names.
    """

    NAMES = ("step", "step_coupled")

    def __init__(self):
        self.stamps = []
        self._saved = {}

    def __enter__(self):
        stamps, clock = self.stamps, time.perf_counter_ns

        def stamped(fn):
            @functools.wraps(fn)
            def inner(*args, **kwargs):
                stamps.append(clock())
                return fn(*args, **kwargs)

            return inner

        for name in self.NAMES:
            self._saved[name] = getattr(harness, name)
            setattr(harness, name, stamped(self._saved[name]))
        return self

    def __exit__(self, *exc):
        for name, fn in self._saved.items():
            setattr(harness, name, fn)
        return False

    def take(self):
        lat = np.diff(np.asarray(self.stamps, dtype=np.int64))
        self.stamps.clear()
        return lat


# ---------------------------------------------------------------------------
# run_closed_loop workloads


def _check_completed(result, cfg, out_dir):
    problems = []
    report = (out_dir / "report.txt").read_text().splitlines()
    if "status=completed" not in report:
        problems.append(f"run did not complete: {report[:1]}")
    n_steps = int(round(cfg.duration / cfg.dt))
    expected_records = -(-n_steps // cfg.log_every) + 1
    if len(result.records) != expected_records:
        problems.append(f"{len(result.records)} metrics records, expected {expected_records}")
    return problems


def check_tracking(result, cfg, out_dir):
    """Criterion 2's tracking envelope in its Lyapunov form.

    Criterion 2 fits the decay of the error sups over t >= 3 s of a 10 s run,
    which an op's horizon does not reach.  The cancelling controller's
    certificate holds from t = 0: the sup over nodes of the per-node
    Lyapunov function never increases and the attitude-basin margin stays
    positive, which bounds all four tracking-error fields.
    """
    problems = _check_completed(result, cfg, out_dir)
    records = result.records
    v = np.array([r.v_sup for r in records])
    sups = np.array([(r.ep_sup, r.ev_sup, r.er_sup, r.ew_sup) for r in records])
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(sups))):
        problems.append("non-finite tracking metrics")
    elif np.any(np.diff(v) > 0.0):
        problems.append(f"Lyapunov sup increased (max rise {float(np.max(np.diff(v))):.3e})")
    margin = min(r.basin_margin for r in records)
    if not margin > 0.0:
        problems.append(f"attitude-basin margin {margin:.3e} <= 0")
    return problems


def check_dense_log(result, cfg, out_dir):
    """Estimation errors identically 0.0; the run directory holds the expected files."""
    problems = _check_completed(result, cfg, out_dir)
    if any(r.eps_p or r.eps_r or r.eps_v or r.eps_w for r in result.records):
        problems.append("nonzero estimation error in the degenerate-filter limit")
    rows = (out_dir / "metrics.csv").read_text().splitlines()[1:]
    if len(rows) != len(result.records):
        problems.append(f"metrics.csv has {len(rows)} rows, expected {len(result.records)}")
    if any(float(x) != 0.0 for row in rows for x in row.split(",")[5:9]):
        problems.append("metrics.csv reports a nonzero estimation error")
    n_steps = int(round(cfg.duration / cfg.dt))
    snapshots = -(-n_steps // cfg.snapshot_every) + 1
    expected = 2 * snapshots + 3  # state+estimate per snapshot, metrics, config, report
    names = sorted(p.name for p in out_dir.iterdir())
    if len(names) != expected or names != sorted(p.name for p in result.written):
        problems.append(f"{len(names)} files written, expected {expected}")
    return problems


class HarnessWorkload:
    """One ``run_closed_loop`` call per op, writing its run directory."""

    drives_steps = False
    warm_steps = 50

    def __init__(self, op_steps, check, **overrides):
        self.op_steps = op_steps
        self.check = check
        self.overrides = overrides

    def setup(self, seed):
        """Build what a run builds before its first step; returns the op config."""
        cfg = RunConfig(seed=seed, **self.overrides)
        grid = cfg.grid()
        cfg.rod_params(), cfg.integrator(), cfg.gains(grid), cfg.noise(grid), cfg.trajectory(grid)
        plant = softrod.make_initial_state(grid, cfg.scenario)
        softrod.EstimatorState.initialize(plant, covariance_scale=cfg.initial_covariance)
        return SimpleNamespace(cfg=cfg, n_nodes=grid.n_nodes)

    def op(self, ctx, steps, out_dir, clock=None):
        cfg = dataclasses.replace(ctx.cfg, duration=steps * ctx.cfg.dt)
        started = time.perf_counter()
        result = harness.run_closed_loop(cfg, out_dir=out_dir)
        seconds = time.perf_counter() - started
        latencies = clock.take() if clock is not None else np.empty(0, dtype=np.int64)
        problems = self.check(result, cfg, out_dir)
        digest, nbytes = _digest_dir(out_dir)
        shutil.rmtree(out_dir)
        return OpResult(steps, seconds, latencies, digest, problems, nbytes)


# ---------------------------------------------------------------------------
# criterion 3's loop, driven step by step


class FilterReplay:
    """Controller on the estimate -> ``ekf_step`` (live covariance) -> plant ``step``.

    Zero measurement noise (``y`` is the plant position) and an exact initial
    estimate make the innovation identically zero, the regime in which the
    filter is specified to replay the plant, while the covariance is live and
    refreshed every ``RICCATI_STRIDE`` steps.
    """

    drives_steps = True
    op_steps = 500
    warm_steps = 20
    RICCATI_STRIDE = 10
    PRIOR = 1.0e-6
    CHECK_EVERY = 100
    GAP_TOL = 1.0e-6
    COVARIANCE_CAP = 1.0e6

    def setup(self, seed):
        # n = 41 nodes; dt = 1e-4 keeps the step inside the CFL bound ds / c
        cfg = RunConfig(ds=0.0125, dt=1.0e-4, seed=seed)
        grid = cfg.grid()
        plant = softrod.make_initial_state(grid, "axial_spin")
        return SimpleNamespace(
            cfg=cfg,
            n_nodes=grid.n_nodes,
            grid=grid,
            params=cfg.rod_params(),
            gains=cfg.gains(grid),
            noise=cfg.noise(grid),
            int_cfg=cfg.integrator(),
            traj=cfg.trajectory(grid),
            env=softrod.Wrench.zero(grid.n_nodes),
            plant=plant,
            estimator=softrod.EstimatorState.initialize(plant, covariance_scale=self.PRIOR),
        )

    def _check(self, plant, est):
        problems = []
        gap = max(
            float(np.max(np.abs(getattr(est.estimate, f) - getattr(plant, f))))
            for f in ("p", "rot", "v", "omega")
        )
        if not gap < self.GAP_TOL:
            problems.append(f"estimator-plant gap {gap:.3e} >= {self.GAP_TOL:.0e}")
        cov = est.covariance
        if not np.all(np.isfinite(cov)):
            problems.append("non-finite covariance")
        elif float(np.max(np.abs(cov - cov.T))) > 1e-9:
            problems.append("asymmetric covariance")
        elif not float(np.max(np.diagonal(cov))) < self.COVARIANCE_CAP:
            problems.append("covariance diagonal reached the cap")
        return problems

    def op(self, ctx, steps, out_dir=None, clock=None):
        sr = softrod
        grid, params, gains, noise, int_cfg = ctx.grid, ctx.params, ctx.gains, ctx.noise, ctx.int_cfg
        traj, env, dt = ctx.traj, ctx.env, ctx.cfg.dt
        plant = ctx.plant.copy()
        est = sr.EstimatorState(ctx.estimator.estimate.copy(), ctx.estimator.covariance.copy())
        latencies = np.empty(steps, dtype=np.int64)
        problems = []
        now = time.perf_counter_ns
        for i in range(steps):
            started = now()
            t = i * dt
            errs = sr.tracking_errors(est.estimate, traj, t, grid)
            f_star, l_star = sr.virtual_inputs(errs, est.estimate, traj, t, gains, grid)
            total = env + sr.feedforward_transform(est.estimate, f_star, l_star, env, params, grid)
            est = sr.ekf_step(
                est, plant.p.copy(), total, params, grid, noise, int_cfg,
                riccati_stride=self.RICCATI_STRIDE,
            )
            plant = sr.step(
                plant, lambda st, _t: sr.dynamics_rhs(st, total, params, grid), int_cfg, step_index=i
            )
            latencies[i] = now() - started
            if (i + 1) % self.CHECK_EVERY == 0 or i + 1 == steps:
                problems += self._check(plant, est)
        h = hashlib.sha256()
        for state in (plant, est.estimate):
            for f in ("p", "rot", "v", "omega"):
                h.update(getattr(state, f).tobytes())
        h.update(est.covariance.tobytes())
        return OpResult(steps, latencies.sum() / 1e9, latencies, h.hexdigest(), problems)


WORKLOADS = {
    # criterion 2: the reference `softrod run` (true feedback, degenerate filter)
    "track_true": HarnessWorkload(1000, check_tracking, feedback="true", initial_covariance=0.0),
    "filter_replay": FilterReplay(),
    # criterion 4's degenerate limit, logging every step and snapshotting every 100
    "dense_log": HarnessWorkload(
        1000, check_dense_log, feedback="estimated", initial_covariance=0.0, log_every=1, snapshot_every=100,
    ),
}

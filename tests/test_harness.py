import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from softrod import (
    CovarianceBlowup,
    GainProfile,
    NearPiRotation,
    NonFiniteState,
    RodState,
    SwingTrajectory,
    load_config,
    run_closed_loop,
    strains,
    tracking_errors,
)
from softrod import harness
from softrod.cli import main as cli_main
from softrod.harness import (
    FEEDBACK_MODES,
    METRICS_HEADER,
    RunConfig,
    apply_overrides,
    compute_metrics,
    config_lines,
    emit_csv,
)

from conftest import check_trajectory_consistency


def fail_log_so3(monkeypatch, from_call=2):
    """Make the metrics' rotation log raise NearPiRotation from call ``from_call`` on."""
    real = harness.log_so3
    calls = []

    def log_so3(rot):
        calls.append(None)
        if len(calls) >= from_call:
            raise NearPiRotation("forced near-pi relative rotation")
        return real(rot)

    monkeypatch.setattr(harness, "log_so3", log_so3)


def quick_config(**kw):
    base = dict(
        duration=0.04,
        log_every=25,
        snapshot_every=100,
        initial_covariance=1e-6,
        seed=7,
    )
    base.update(kw)
    return RunConfig(**base)


class TestRunConfig:
    def test_defaults_are_valid(self):
        cfg = RunConfig()
        assert cfg.grid().n_nodes == 21
        assert cfg.rod_params().youngs_modulus == 3.0e7

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(duration=-1.0)
        with pytest.raises(ValueError):
            RunConfig(feedback="psychic")
        with pytest.raises(ValueError):
            RunConfig(scenario="wiggle")
        with pytest.raises(ValueError):
            RunConfig(measurement_variance=0.0)
        with pytest.raises(ValueError):
            RunConfig(log_every=0)
        with pytest.raises(ValueError):
            RunConfig(youngs_modulus=-2.0)
        # a negative seed used to fail only in np.random.default_rng, mid-sweep
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            RunConfig(seed=-1)

    # each of these used to be accepted and then misread: a negative process
    # variance as zero process noise, a zero cap as a diverged filter on every
    # live refresh, a NaN variance as a diverged filter or a failed eigensolve
    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("process_variance", -1e-6),
            ("process_variance", float("nan")),
            ("covariance_cap", 0.0),
            ("covariance_cap", -1.0),
            ("covariance_cap", float("nan")),
            ("measurement_variance", float("nan")),
            ("initial_covariance", float("nan")),
        ],
    )
    def test_filter_values_are_validated(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            RunConfig(**{field: value})

    # NaN passes every `x <= 0` test; each of these used to end mid-run as
    # a NaN-to-int conversion, a blown-up derivative or a diverged filter
    @pytest.mark.parametrize(
        ("field", "named"),
        [
            ("duration", "duration"),
            ("dt", "dt"),
            ("ds", "ds"),
            ("length", "length"),
            ("radius", "radius"),
            ("density", "density"),
            ("youngs_modulus", "youngs_modulus"),
            ("shear_modulus", "shear_modulus"),
            ("kp", "gain kp"),
            ("kv", "gain kv"),
            ("kr", "gain kr"),
            ("kw", "gain kw"),
            ("coupling_c", "gain c"),
            ("frequency", "frequency"),
            ("phase", "phase"),
            ("gravity", "gravity"),
        ],
    )
    def test_nan_is_rejected_naming_the_field(self, field, named):
        with pytest.raises(ValueError, match=f"^{named} must be"):
            RunConfig(**{field: float("nan")})

    # +inf passes every `x > 0` test; taken, it fails later as an overflow,
    # a failed eigensolve, a mid-run abort or a zero-step run
    @pytest.mark.parametrize(
        "field",
        [f.name for f in dataclasses.fields(RunConfig) if isinstance(f.default, float)],
    )
    def test_infinite_is_rejected_naming_the_field(self, field):
        for value in (float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"^{field} must be finite$"):
                RunConfig(**{field: value})

    def test_config_file_round_trip(self, tmp_path):
        cfg = quick_config(seed=11, duration=1.25, feedback="estimated")
        path = tmp_path / "run.cfg"
        path.write_text("\n".join(config_lines(cfg)) + "\n")
        loaded = load_config(path)
        assert loaded == cfg

    def test_unknown_key_is_hard_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("length=0.5\nyoungs_modulos=3e7\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(path)

    @pytest.mark.parametrize(
        "line",
        ["duration=", "seed=abc", "nonsense", "out_dir=", "scheme=rk4", "reorthonormalize_every=100"],
    )
    def test_bad_config_line_is_reported_with_its_location(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(f"# reference run\nlength=0.5\n{line}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: "):
            load_config(path)

    def test_comments_and_blanks_allowed(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("# reference run\n\nseed=3   # rng\nduration=0.5\n")
        cfg = load_config(path)
        assert cfg.seed == 3 and cfg.duration == 0.5

    def test_overrides(self):
        cfg = apply_overrides(RunConfig(), ["seed=9", "feedback=estimated"])
        assert cfg.seed == 9 and cfg.feedback == "estimated"
        for bad in ("nonsense", "out_dir="):
            with pytest.raises(ValueError, match="expected key=value"):
                apply_overrides(RunConfig(), [bad])


class TestSwingTrajectory:
    def test_factory_defaults(self, ref_grid):
        traj = RunConfig().trajectory(ref_grid)
        assert traj.amplitude == pytest.approx(np.pi / 3.0)
        assert traj.frequency == 0.5
        assert traj.phase == pytest.approx(np.pi / 2.0)
        res_p, res_rot = check_trajectory_consistency(
            traj, ref_grid.s, times=np.linspace(0.0, 3.0, 9)
        )
        assert res_p < 1e-8 and res_rot < 1e-8

    def test_amplitude_range_enforced(self, ref_grid):
        with pytest.raises(ValueError):
            SwingTrajectory(np.pi / 2.0, 0.5, np.pi / 2.0, ref_grid.length)
        with pytest.raises(ValueError):
            SwingTrajectory(np.pi / 3.0, 0.0, np.pi / 2.0, ref_grid.length)

    def test_memo_over_rk4_stage_times_matches_fresh_points(self, ref_grid):
        traj = RunConfig().trajectory(ref_grid)
        t, dt = 0.37, 2e-4
        stage_times = (t, t + dt / 2.0, t + dt / 2.0, t + dt, t + dt)
        points = [traj.evaluate(ref_grid.s, tau) for tau in stage_times]
        for tau, point in zip(stage_times, points):
            fresh = RunConfig().trajectory(ref_grid).evaluate(ref_grid.s, tau)
            for got, want in zip(point, fresh):
                assert np.array_equal(got, want)
        # the repeated stage times are memo hits
        assert points[2] is points[1] and points[4] is points[3]

    def test_memo_misses_on_other_nodes_at_the_same_time(self, ref_grid):
        traj = RunConfig().trajectory(ref_grid)
        t = 0.25
        on_grid = traj.evaluate(ref_grid.s, t)
        s_half = ref_grid.s[::2]
        half = traj.evaluate(s_half, t)
        assert half is not on_grid
        fresh = RunConfig().trajectory(ref_grid).evaluate(s_half, t)
        for got, want in zip(half, fresh):
            assert np.array_equal(got, want)

    def test_repeated_grid_nodes_compute_nothing_new(self, ref_grid, monkeypatch):
        traj = RunConfig().trajectory(ref_grid)
        computed = []
        real = traj._compute
        monkeypatch.setattr(traj, "_compute", lambda s, t: computed.append(t) or real(s, t))
        first = traj.evaluate(ref_grid.s, 0.3)
        assert traj.evaluate(ref_grid.s, 0.3) is first
        assert computed == [0.3]
        assert traj._memo[0][1] is ref_grid.s  # kept by reference, not copied

    def test_writable_nodes_are_copied_into_the_memo(self, ref_grid):
        traj = RunConfig().trajectory(ref_grid)
        s = np.array(ref_grid.s)
        first = traj.evaluate(s, 0.3)
        s[-1] = 0.0
        assert traj.evaluate(s, 0.3) is not first
        assert traj.evaluate(ref_grid.s, 0.3) is first

    def test_memo_points_are_read_only(self, ref_grid):
        point = RunConfig().trajectory(ref_grid).evaluate(ref_grid.s, 0.1)
        for arr in point:
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestClosedLoop:
    def test_smoke_records_and_outputs(self, tmp_path):
        cfg = quick_config(initial_covariance=0.0)
        result = run_closed_loop(cfg, out_dir=tmp_path / "out")
        n_steps = round(cfg.duration / cfg.dt)
        expected_records = len(range(0, n_steps, cfg.log_every)) + 1
        assert len(result.records) == expected_records
        assert result.records[-1].t == pytest.approx(cfg.duration)
        for r in result.records:
            assert np.isfinite([r.ep_sup, r.ev_sup, r.er_sup, r.ew_sup, r.v_sup]).all()
        names = {p.name for p in result.written}
        assert {"metrics.csv", "config.txt", "report.txt"} <= names
        assert any(n.startswith("snapshot_") for n in names)
        report = (tmp_path / "out" / "report.txt").read_text().splitlines()
        assert report[0] == "status=completed"
        assert not any(line.startswith("abort=") for line in report)

    def test_degenerate_estimate_feedback_equals_true_feedback(self):
        # with a zero prior the filter replays the model exactly, so both
        # feedback sources drive the identical closed loop
        a = run_closed_loop(quick_config(initial_covariance=0.0, feedback="true"))
        b = run_closed_loop(quick_config(initial_covariance=0.0, feedback="estimated"))
        for ra, rb in zip(a.records, b.records):
            assert ra == rb

    def test_matched_start_pure_feedforward(self, ref_grid):
        # start on the reference with negligible gains: the feedforward alone
        # holds the rod on the trajectory to integrator accuracy
        cfg = RunConfig(
            duration=0.5,
            kp=1e-12,
            kv=1e-12,
            kr=1e-12,
            kw=1e-12,
            coupling_c=1e-13,
            initial_covariance=0.0,
            log_every=250,
        )
        grid = cfg.grid()
        traj = cfg.trajectory(grid)
        ref = traj.evaluate(grid.s, 0.0)
        state0 = RodState(ref.p.copy(), ref.rot.copy(), ref.v.copy(), ref.omega.copy())
        state0.v[0] = 0.0
        state0.omega[0] = 0.0

        import softrod.harness as hz

        orig = hz.make_initial_state
        hz.make_initial_state = lambda grid, scenario: state0.copy()
        try:
            result = run_closed_loop(cfg)
        finally:
            hz.make_initial_state = orig
        last = result.records[-1]
        assert last.ep_sup < 1e-6
        assert last.ev_sup < 1e-6
        assert last.er_sup < 1e-6
        assert last.ew_sup < 1e-6

    def test_gravity_is_compensated(self):
        cfg = quick_config(gravity=9.81, initial_covariance=0.0, duration=0.02)
        result = run_closed_loop(cfg)
        assert np.isfinite(result.records[-1].ep_sup)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_abort_dumps_last_good_snapshot(self, tmp_path):
        cfg = RunConfig(
            dt=10.0,
            duration=200.0,
            initial_covariance=1e-6,
            log_every=1,
            snapshot_every=1000,
        )
        out = tmp_path / "boom"
        with pytest.warns(UserWarning):
            with pytest.raises((NonFiniteState, CovarianceBlowup)):
                run_closed_loop(cfg, out_dir=out)
        assert (out / "metrics.csv").exists()
        assert "status=aborted" in (out / "report.txt").read_text()
        assert any(p.name.startswith("snapshot_") for p in out.iterdir())

    @pytest.mark.parametrize("feedback", FEEDBACK_MODES)
    def test_estimate_divergence_names_the_estimate(self, feedback, monkeypatch):
        # a non-finite innovation rate sends the estimate off at the next stage
        real = harness.filter_update

        def filter_update(*args, **kwargs):
            covariance, gain, correction = real(*args, **kwargs)
            correction.omega[:] = np.nan  # a fresh array on every call
            return covariance, gain, correction

        monkeypatch.setattr(harness, "filter_update", filter_update)
        cfg = quick_config(feedback=feedback)  # a live prior: a replay run never filters
        with pytest.raises(NonFiniteState, match=r"estimate diverged.* stage time t=0\.0001\b") as info:
            run_closed_loop(cfg)
        # the NaN reaches the estimate's rotation rate first (its clamped
        # base row stays zero), and the wrapper carries the location through
        assert " in rot at node 1 at stage time" in str(info.value)
        assert info.value.where == info.value.__cause__.where == "rot at node 1"

    @pytest.mark.parametrize("feedback", FEEDBACK_MODES)
    def test_replay_run_steps_the_plant_alone(self, feedback, tmp_path, monkeypatch):
        # zero prior and zero process noise: no filter cycle and no coupled step
        def forbidden(*args, **kwargs):
            raise AssertionError("a replay run filtered")

        monkeypatch.setattr(harness, "filter_update", forbidden)
        monkeypatch.setattr(harness, "step_coupled", forbidden)
        cfg = quick_config(initial_covariance=0.0, feedback=feedback, snapshot_every=50)
        run_closed_loop(cfg, out_dir=tmp_path)
        estimates = sorted(tmp_path.glob("snapshot_*_estimate.csv"))
        assert len(estimates) == 5  # steps 0, 50, 100, 150 and the end
        for path in estimates:
            state = path.with_name(path.name.replace("_estimate", "_state"))
            assert path.read_bytes() == state.read_bytes(), path.name

    def test_process_noise_makes_a_zero_prior_run_live(self, monkeypatch):
        calls = {"filter_update": [], "step_coupled": []}
        for name, log in calls.items():
            real = getattr(harness, name)

            def logged(*args, real=real, log=log, **kwargs):
                log.append(real(*args, **kwargs))
                return log[-1]

            monkeypatch.setattr(harness, name, logged)
        cfg = quick_config(initial_covariance=0.0, process_variance=1e-9, duration=0.01)
        run_closed_loop(cfg)
        assert len(calls["filter_update"]) == len(calls["step_coupled"]) == 50
        assert calls["filter_update"][-1][0].any()  # the last covariance

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_plant_divergence_under_estimate_feedback_names_the_plant(self):
        # the estimate stays finite while its wrench drives the plant off;
        # the plant's own guard would blame the time step
        cfg = RunConfig(
            duration=0.1,
            feedback="estimated",
            seed=0,
            initial_covariance=1e-8,
            measurement_variance=1e-4,
        )
        with pytest.raises(
            NonFiniteState, match=r"^plant diverged under estimate-fed control.* stage time t="
        ) as info:
            run_closed_loop(cfg)
        assert "check the time step" in str(info.value.__cause__)

    def test_near_pi_rotation_aborts_with_post_mortem(self, tmp_path, monkeypatch):
        fail_log_so3(monkeypatch)
        out = tmp_path / "near_pi"
        with pytest.raises(NearPiRotation):
            run_closed_loop(quick_config(), out_dir=out)
        report = (out / "report.txt").read_text().splitlines()
        assert report[:2] == [
            "status=aborted",
            "abort=NearPiRotation: forced near-pi relative rotation",
        ]
        assert any(p.name.startswith("snapshot_") for p in out.iterdir())

    def test_aborted_report_names_the_guard_that_fired(self, tmp_path):
        # the live filter at the reference noise runs into the covariance cap
        with pytest.raises(CovarianceBlowup):
            run_closed_loop(quick_config(), out_dir=tmp_path)
        report = (tmp_path / "report.txt").read_text().splitlines()
        assert [line for line in report if line.startswith("abort=")] == [
            "abort=CovarianceBlowup: covariance diagonal exceeded cap 1.0e+06 "
            "at omega node 2; filter diverged"
        ]

    def test_abort_in_the_final_record_snapshots_at_the_end_time(self, tmp_path, monkeypatch):
        # records at steps 0, 25, ..., 175, then the final one at t_end = 0.04
        cfg = quick_config(snapshot_every=199, initial_covariance=0.0)
        run_closed_loop(cfg, out_dir=tmp_path / "clean")
        fail_log_so3(monkeypatch, from_call=9)
        with pytest.raises(NearPiRotation):
            run_closed_loop(cfg, out_dir=tmp_path / "aborted")
        for label in ("state", "estimate"):
            for tag in ("0.039800s", "0.040000s"):
                name = f"snapshot_{tag}_{label}.csv"
                clean, aborted = (tmp_path / run / name for run in ("clean", "aborted"))
                assert aborted.read_bytes() == clean.read_bytes(), name

    def test_abort_on_a_snapshot_step_adds_no_second_snapshot(self, tmp_path, monkeypatch):
        real = harness.filter_update
        calls = []

        def filter_update(*args, **kwargs):
            calls.append(None)
            if len(calls) > 10:
                raise CovarianceBlowup("forced divergence at step 10")
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "filter_update", filter_update)
        written = []  # the paths emit_csv returns; an abort returns no result

        def emit(*args, **kwargs):
            written.extend(emit_csv(*args, **kwargs))
            return written

        monkeypatch.setattr(harness, "emit_csv", emit)
        with pytest.raises(CovarianceBlowup):
            run_closed_loop(quick_config(snapshot_every=10), out_dir=tmp_path)
        assert len(written) == len(set(written)) == 7
        assert sorted(p.name for p in tmp_path.glob("snapshot_*_state.csv")) == [
            "snapshot_0.000000s_state.csv",
            "snapshot_0.002000s_state.csv",
        ]


class TestEmitCsv:
    def test_duration_zero_header_only(self, tmp_path):
        cfg = quick_config(duration=0.0)
        result = run_closed_loop(cfg, out_dir=tmp_path)
        text = (tmp_path / "metrics.csv").read_text()
        assert text == METRICS_HEADER + "\n"
        assert result.records == []

    def test_initial_snapshot_positions_match_arclength(self, tmp_path):
        cfg = quick_config(initial_covariance=0.0)
        run_closed_loop(cfg, out_dir=tmp_path)
        snap = tmp_path / "snapshot_0.000000s_state.csv"
        rows = snap.read_text().strip().splitlines()
        header = rows[0].split(",")
        s_col, pz_col = header.index("s"), header.index("p_z")
        for row in rows[1:]:
            cells = row.split(",")
            assert cells[s_col] == cells[pz_col]

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            cfg = quick_config(seed=21)
            run_closed_loop(cfg, out_dir=tmp_path / name)
            outs.append(tmp_path / name)
        files_a = sorted(p.name for p in outs[0].iterdir())
        files_b = sorted(p.name for p in outs[1].iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_metrics_rows_are_the_records_fields(self, tmp_path):
        result = run_closed_loop(quick_config(duration=0.004, log_every=5), out_dir=tmp_path)
        rows = (tmp_path / "metrics.csv").read_text().splitlines()
        assert rows[0] == METRICS_HEADER
        assert len(rows) == 1 + len(result.records) == 6
        for row, record in zip(rows[1:], result.records):
            assert row == ",".join(repr(x) for x in dataclasses.astuple(record)[:10])
        cells = rows[-1].split(",")
        report = (tmp_path / "report.txt").read_text().splitlines()
        assert f"final_sups={','.join(cells[1:5])}" in report
        assert f"final_estimation_sups={','.join(cells[5:9])}" in report

    def test_sups_are_each_fields_norm_maximum(self):
        cfg = quick_config(duration=0.004)
        snap = run_closed_loop(cfg).snapshots[-1]
        plant, est = snap.state, snap.estimate
        grid = cfg.grid()
        traj = cfg.trajectory(grid)
        record = compute_metrics(snap.t, plant, est, traj, cfg.gains(grid), grid)
        errs = tracking_errors(plant, traj, snap.t, grid)
        est_rel = np.einsum("nji,njk->nik", est.rot, plant.rot)
        for name, rows in {
            "ep_sup": errs.e_p,
            "ev_sup": errs.e_v,
            "er_sup": errs.e_rot,
            "ew_sup": errs.e_omega,
            "eps_p": plant.p - est.p,
            "eps_r": harness.log_so3(est_rel),
            "eps_v": plant.v - est.v,
            "eps_w": plant.omega - est.omega,
        }.items():
            assert getattr(record, name) == float(np.max(np.linalg.norm(rows, axis=-1))), name
        assert record.eps_w > 0.0  # the live filter has moved the estimate off the plant

    def test_snapshot_cells_are_the_named_state_entries(self, tmp_path):
        cfg = quick_config(duration=0.004, snapshot_every=10)
        result = run_closed_loop(cfg, out_dir=tmp_path)
        grid = cfg.grid()
        assert len(result.snapshots) == 3  # steps 0 and 10, and the final state
        # the live filter has moved the estimate off the plant
        assert not np.array_equal(result.snapshots[-1].state.v, result.snapshots[-1].estimate.v)
        for snap in result.snapshots:
            for label, state in (("state", snap.state), ("estimate", snap.estimate)):
                q, u = strains(state, grid)
                fields = {"p": state.p, "v": state.v, "w": state.omega, "q": q, "u": u}
                text = (tmp_path / f"snapshot_{snap.t:.6f}s_{label}.csv").read_text()
                header, *rows = text.splitlines()
                assert len(rows) == grid.n_nodes
                for i, row in enumerate(rows):
                    for column, cell in zip(header.split(","), row.split(",")):
                        name, _, axis = column.partition("_")
                        if name == "s":
                            entry = grid.s[i]
                        elif name == "R":
                            entry = state.rot[i, int(axis[0]), int(axis[1])]
                        else:
                            entry = fields[name][i, "xyz".index(axis)]
                        assert cell == repr(float(entry)), (label, i, column)

    def test_snapshot_times_under_a_microsecond_apart_keep_their_files(self, tmp_path):
        # a stiff rod's CFL bound forces steps below 1 us; at 6 decimals the
        # six snapshot times would share three file names
        cfg = RunConfig(
            dt=2e-7,
            duration=1e-6,
            snapshot_every=1,
            log_every=1,
            feedback="true",
            initial_covariance=0.0,
        )
        result = run_closed_loop(cfg, out_dir=tmp_path)
        assert len(result.snapshots) == 6
        assert len(result.written) == len(set(result.written)) == 15
        assert len(list(tmp_path.iterdir())) == 15
        assert (tmp_path / "snapshot_0.0000002s_state.csv").exists()

    def test_offline_metric_recompute_matches_log(self, tmp_path):
        cfg = quick_config(duration=0.05, log_every=25, snapshot_every=100, initial_covariance=0.0)
        run_closed_loop(cfg, out_dir=tmp_path)
        loaded = load_config(tmp_path / "config.txt")
        grid = loaded.grid()
        traj = loaded.trajectory(grid)
        gains = loaded.gains(grid)

        snap = tmp_path / "snapshot_0.020000s_state.csv"
        data = np.loadtxt(snap, delimiter=",", skiprows=1)
        state = RodState(
            p=data[:, 1:4],
            rot=data[:, 4:13].reshape(-1, 3, 3),
            v=data[:, 13:16],
            omega=data[:, 16:19],
        )
        est_data = np.loadtxt(
            tmp_path / "snapshot_0.020000s_estimate.csv", delimiter=",", skiprows=1
        )
        estimate = RodState(
            p=est_data[:, 1:4],
            rot=est_data[:, 4:13].reshape(-1, 3, 3),
            v=est_data[:, 13:16],
            omega=est_data[:, 16:19],
        )
        recomputed = compute_metrics(0.02, state, estimate, traj, gains, grid)
        metrics = np.loadtxt(tmp_path / "metrics.csv", delimiter=",", skiprows=1)
        row = metrics[np.isclose(metrics[:, 0], 0.02)][0]
        assert row[1] == pytest.approx(recomputed.ep_sup, rel=1e-12)
        assert row[2] == pytest.approx(recomputed.ev_sup, rel=1e-12)
        assert row[3] == pytest.approx(recomputed.er_sup, rel=1e-12)
        assert row[4] == pytest.approx(recomputed.ew_sup, rel=1e-12)


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        rc = cli_main(
            [
                "run",
                "--out",
                str(tmp_path / "out"),
                "seed=5",
                "duration=0.02",
                "feedback=true",
            ]
        )
        assert rc == 0
        assert (tmp_path / "out" / "metrics.csv").exists()
        assert "completed" in capsys.readouterr().out

    def test_run_overrides_on_both_sides_of_an_option(self, tmp_path):
        out = tmp_path / "out"
        assert cli_main(["run", "duration=0.02", "--out", str(out), "seed=5"]) == 0
        assert "seed=5" in (out / "config.txt").read_text().splitlines()

    def test_run_with_config_file(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("duration=0.02\nseed=4\ninitial_covariance=0.0\n")
        rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 0

    @pytest.mark.parametrize(
        "line",
        [
            "process_variance=-1e-6",
            "covariance_cap=0.0",
            "duration=nan",
            "dt=nan",
            "duration=inf",
            "length=inf",
        ],
    )
    def test_bad_filter_config_exits_2_before_running(self, tmp_path, capsys, line):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(f"duration=0.02\n{line}\n")
        rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"{line.split('=')[0]} must be" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_infinite_duration_override_exits_2(self, tmp_path, capsys):
        rc = cli_main(["run", "duration=inf", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "duration must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_config_key_exits_nonzero(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("not_a_knob=1\n")
        rc = cli_main(["run", "--config", str(cfg_path)])
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_near_pi_rotation_is_an_aborted_run(self, tmp_path, monkeypatch, capsys):
        fail_log_so3(monkeypatch)
        rc = cli_main(["run", "--out", str(tmp_path / "out"), "duration=0.02"])
        assert rc == 1
        assert "run aborted" in capsys.readouterr().err
        assert "status=aborted" in (tmp_path / "out" / "report.txt").read_text()

    def test_check_subcommand(self, capsys):
        assert cli_main(["check"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out and "CFL OK" in out

    def test_check_refuses_a_grid_of_two_nodes(self, capsys):
        # ds = length gives 2 nodes, too few for the three-point stencils
        assert cli_main(["check", "ds=0.5"]) == 2
        assert "grid needs at least 3 nodes, got 2" in capsys.readouterr().err

    def test_check_flags_bad_time_step(self, tmp_path, capsys):
        cfg_path = tmp_path / "fast.cfg"
        cfg_path.write_text("dt=0.01\n")
        assert cli_main(["check", "--config", str(cfg_path)]) == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_check_overrides_on_both_sides_of_an_option(self, tmp_path, capsys):
        cfg_path = tmp_path / "my.cfg"
        cfg_path.write_text("seed=2\n")
        assert cli_main(["check", "seed=1", "--config", str(cfg_path), "dt=0.01"]) == 1
        assert "VIOLATED" in capsys.readouterr().out
        with pytest.raises(SystemExit) as info:
            cli_main(["check", "seed=1", "--config", str(cfg_path), "kr=2", "strain"])
        assert info.value.code == 2
        assert "unrecognized arguments: kr=2 strain" in capsys.readouterr().err

    def test_sweep_overrides_on_both_sides_of_an_option(self, tmp_path):
        rc = cli_main(
            [
                "sweep",
                "seed=1,duration=0.01",
                "--out",
                str(tmp_path),
                "seed=2,duration=0.01,initial_covariance=0.0",
            ]
        )
        assert rc == 0
        assert (tmp_path / "sweep_001" / "metrics.csv").exists()

    def test_sweep_subcommand(self, tmp_path, capsys):
        rc = cli_main(
            [
                "sweep",
                "--out",
                str(tmp_path),
                "seed=1,duration=0.01",
                "seed=2,duration=0.01,initial_covariance=0.0",
            ]
        )
        assert rc == 0
        assert (tmp_path / "sweep_000" / "metrics.csv").exists()
        assert (tmp_path / "sweep_001" / "metrics.csv").exists()

    def test_module_entry_point(self, tmp_path):
        # the subprocess does not inherit pytest's ``pythonpath``: point it at
        # the checkout's sources so the test passes without an install too
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "softrod", "run", "duration=0.004", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr

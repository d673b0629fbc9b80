import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from softrod import (
    CovarianceBlowup,
    GainProfile,
    NearPiRotation,
    NonFiniteState,
    RodState,
    check_trajectory_consistency,
    load_config,
    make_swing_trajectory,
    run_closed_loop,
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


def fail_second_log_so3(monkeypatch):
    """Make the metrics' rotation log raise NearPiRotation from its second call on."""
    real = harness.log_so3
    calls = []

    def log_so3(rot):
        calls.append(None)
        if len(calls) > 1:
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

    def test_comments_and_blanks_allowed(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("# reference run\n\nseed=3   # rng\nduration=0.5\n")
        cfg = load_config(path)
        assert cfg.seed == 3 and cfg.duration == 0.5

    def test_overrides(self):
        cfg = apply_overrides(RunConfig(), ["seed=9", "scheme=euler"])
        assert cfg.seed == 9 and cfg.scheme == "euler"
        with pytest.raises(ValueError):
            apply_overrides(RunConfig(), ["nonsense"])


class TestSwingTrajectory:
    def test_factory_defaults(self, ref_grid):
        traj = make_swing_trajectory(ref_grid)
        assert traj.amplitude == pytest.approx(np.pi / 3.0)
        assert traj.frequency == 0.5
        assert traj.phase == pytest.approx(np.pi / 2.0)
        res_p, res_rot = check_trajectory_consistency(
            traj, ref_grid.s, times=np.linspace(0.0, 3.0, 9)
        )
        assert res_p < 1e-8 and res_rot < 1e-8

    def test_amplitude_range_enforced(self, ref_grid):
        with pytest.raises(ValueError):
            make_swing_trajectory(ref_grid, amplitude=np.pi / 2.0)
        with pytest.raises(ValueError):
            make_swing_trajectory(ref_grid, frequency=0.0)

    def test_memo_over_rk4_stage_times_matches_fresh_points(self, ref_grid):
        traj = make_swing_trajectory(ref_grid)
        t, dt = 0.37, 2e-4
        stage_times = (t, t + dt / 2.0, t + dt / 2.0, t + dt, t + dt)
        points = [traj.evaluate(ref_grid.s, tau) for tau in stage_times]
        for tau, point in zip(stage_times, points):
            fresh = make_swing_trajectory(ref_grid).evaluate(ref_grid.s, tau)
            for got, want in zip(point, fresh):
                assert np.array_equal(got, want)
        # the repeated stage times are memo hits
        assert points[2] is points[1] and points[4] is points[3]

    def test_memo_misses_on_other_nodes_at_the_same_time(self, ref_grid):
        traj = make_swing_trajectory(ref_grid)
        t = 0.25
        on_grid = traj.evaluate(ref_grid.s, t)
        s_half = ref_grid.s[::2]
        half = traj.evaluate(s_half, t)
        assert half is not on_grid
        fresh = make_swing_trajectory(ref_grid).evaluate(s_half, t)
        for got, want in zip(half, fresh):
            assert np.array_equal(got, want)

    def test_repeated_grid_nodes_compute_nothing_new(self, ref_grid, monkeypatch):
        traj = make_swing_trajectory(ref_grid)
        computed = []
        real = traj._compute
        monkeypatch.setattr(traj, "_compute", lambda s, t: computed.append(t) or real(s, t))
        first = traj.evaluate(ref_grid.s, 0.3)
        assert traj.evaluate(ref_grid.s, 0.3) is first
        assert computed == [0.3]
        assert traj._memo[0][1] is ref_grid.s  # kept by reference, not copied

    def test_writable_nodes_are_copied_into_the_memo(self, ref_grid):
        traj = make_swing_trajectory(ref_grid)
        s = np.array(ref_grid.s)
        first = traj.evaluate(s, 0.3)
        s[-1] = 0.0
        assert traj.evaluate(s, 0.3) is not first
        assert traj.evaluate(ref_grid.s, 0.3) is first

    def test_memo_points_are_read_only(self, ref_grid):
        point = make_swing_trajectory(ref_grid).evaluate(ref_grid.s, 0.1)
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
            reorthonormalize_every=1,
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
            poisoned = correction._replace(omega=np.full_like(correction.omega, np.nan))
            return covariance, gain, poisoned

        monkeypatch.setattr(harness, "filter_update", filter_update)
        cfg = quick_config(initial_covariance=0.0, feedback=feedback)
        with pytest.raises(NonFiniteState, match=r"estimate diverged.* stage time t=0\.0001\b"):
            run_closed_loop(cfg)

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
        fail_second_log_so3(monkeypatch)
        out = tmp_path / "near_pi"
        with pytest.raises(NearPiRotation):
            run_closed_loop(quick_config(), out_dir=out)
        assert "status=aborted" in (out / "report.txt").read_text()
        assert any(p.name.startswith("snapshot_") for p in out.iterdir())


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
                "--seed",
                "5",
                "--duration",
                "0.02",
                "--feedback",
                "true",
                "--scheme",
                "rk4",
            ]
        )
        assert rc == 0
        assert (tmp_path / "out" / "metrics.csv").exists()
        assert "completed" in capsys.readouterr().out

    def test_run_with_config_file(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("duration=0.02\nseed=4\ninitial_covariance=0.0\n")
        rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 0

    @pytest.mark.parametrize(
        "line", ["process_variance=-1e-6", "covariance_cap=0.0", "duration=nan", "dt=nan"]
    )
    def test_bad_filter_config_exits_2_before_running(self, tmp_path, capsys, line):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(f"duration=0.02\n{line}\n")
        rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"{line.split('=')[0]} must be" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_config_key_exits_nonzero(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("not_a_knob=1\n")
        rc = cli_main(["run", "--config", str(cfg_path)])
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_near_pi_rotation_is_an_aborted_run(self, tmp_path, monkeypatch, capsys):
        fail_second_log_so3(monkeypatch)
        rc = cli_main(["run", "--out", str(tmp_path / "out"), "--duration", "0.02"])
        assert rc == 1
        assert "run aborted" in capsys.readouterr().err
        assert "status=aborted" in (tmp_path / "out" / "report.txt").read_text()

    def test_check_subcommand(self, capsys):
        assert cli_main(["check"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out and "CFL OK" in out

    def test_check_flags_bad_time_step(self, tmp_path, capsys):
        cfg_path = tmp_path / "fast.cfg"
        cfg_path.write_text("dt=0.01\n")
        assert cli_main(["check", "--config", str(cfg_path)]) == 1
        assert "VIOLATED" in capsys.readouterr().out

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
        proc = subprocess.run(
            [sys.executable, "-m", "softrod", "run", "--duration", "0.004", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

"""Command-line front end: run, check, sweep."""

from __future__ import annotations

import argparse
import sys

from .discretize import check_cfl
from .control import check_tracking_basin
from .harness import RUN_ABORTS, RunConfig, apply_overrides, load_config, run_closed_loop
from .rod import make_initial_state


def _base_config(args):
    return load_config(args.config) if args.config else RunConfig()


def _cmd_run(args):
    cfg = apply_overrides(_base_config(args), args.overrides)
    out_dir = args.out or cfg.out_dir
    try:
        result = run_closed_loop(cfg, out_dir=out_dir)
    except RUN_ABORTS as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 1
    last = result.records[-1] if result.records else None
    if last is not None:
        print(
            f"completed t={last.t:g}s  tracking sups: "
            f"ep={last.ep_sup:.3e} ev={last.ev_sup:.3e} "
            f"eR={last.er_sup:.3e} ew={last.ew_sup:.3e}"
        )
    print(f"outputs in {out_dir} ({len(result.written)} files)")
    return 0


def _cmd_check(args):
    cfg = apply_overrides(_base_config(args), args.overrides)
    grid = cfg.grid()
    params = cfg.rod_params()
    gains = cfg.gains(grid)
    traj = cfg.trajectory(grid)
    state0 = make_initial_state(grid, cfg.scenario)
    gate = check_tracking_basin(state0, traj, gains, grid)
    cfl = check_cfl(params, grid, cfg.dt)
    print(gate.summary())
    print(str(cfl))
    return 0 if gate.all_ok and cfl.passed else 1


def _cmd_sweep(args):
    cfg = _base_config(args)
    failures = 0
    for idx, override in enumerate(args.overrides):
        items = [part.strip() for part in override.split(",") if part.strip()]
        run_cfg = apply_overrides(cfg, items)
        out_dir = f"{args.out or run_cfg.out_dir}/sweep_{idx:03d}"
        try:
            run_closed_loop(run_cfg, out_dir=out_dir)
            print(f"sweep_{idx:03d}: ok ({override}) -> {out_dir}")
        except RUN_ABORTS as exc:
            failures += 1
            print(f"sweep_{idx:03d}: ABORTED ({override}): {exc}", file=sys.stderr)
    return 1 if failures else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="softrod",
        description="Soft-rod tracking control and state estimation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    overrides_help = "key=value config overrides, e.g. seed=1 duration=2.0"
    run = sub.add_parser("run", help="run one closed-loop simulation")
    run.add_argument("--config", help="flat key=value config file")
    run.add_argument("--out", help="output directory (default: config out_dir)")
    run.add_argument("overrides", nargs="*", help=overrides_help)
    run.set_defaults(func=_cmd_run)

    check = sub.add_parser("check", help="evaluate the pre-run gates only")
    check.add_argument("--config")
    check.add_argument("overrides", nargs="*", help=overrides_help)
    check.set_defaults(func=_cmd_check)

    sweep = sub.add_parser("sweep", help="run a list of config overrides")
    sweep.add_argument("--config")
    sweep.add_argument("--out", help="parent output directory")
    sweep.add_argument(
        "overrides",
        nargs="+",
        help="per-run override lists, e.g. 'seed=1,duration=2.0'",
    )
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    # argparse leaves the key=value overrides after an option unparsed
    args, extras = parser.parse_known_args(argv)
    if any(item.startswith("-") or "=" not in item for item in extras):
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.overrides += extras
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

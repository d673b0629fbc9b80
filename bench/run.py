"""softrod closed-loop benchmark: one workload per invocation.

    python3 bench/run.py --workload track_true --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --self-test

Run from any directory of a source checkout; the package is imported from
the checkout's ``src/``.  ``--trace 0`` measures the end-to-end metrics
untraced; ``--trace 1`` alternates untraced and traced ops and reports the
per-layer metrics.  The last line of standard output is the
result as one JSON object; the full record, with the environment, goes to
``.bench_out/results/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# one BLAS thread: with two on a 2-core machine the n=21 Riccati refresh
# ranges over 24-240 ms instead of 13.5 ms
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PROBES = 5  # fresh processes per run; the median is reported
MAX_WALL_S = 150.0  # no new op starts after this, whatever --seconds says


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("track_true", "filter_replay", "dense_log"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check the tracer and metric names")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    return args


def import_workloads():
    """Import the benchmark's workloads against the checkout's own package."""
    sys.path.insert(0, str(SRC))
    import workloads

    if Path(workloads.softrod.__file__).resolve().parent != SRC / "softrod":
        raise ImportError(f"softrod imported from {workloads.softrod.__file__}, not {SRC}")
    return workloads


# ---------------------------------------------------------------------------
# environment


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_sha256():
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "softrod").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _openblas():
    """OpenBLAS version and the thread count it actually runs with."""
    import ctypes

    import numpy as np

    try:
        version = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        version = None
    threads = None
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs[:1]:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return version, threads


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(workload, ctx):
    import numpy as np
    import scipy

    blas_version, blas_threads = _openblas()
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "workload": workload,
        "n_nodes": ctx.n_nodes,
        "dt": ctx.cfg.dt,
        "blas_thread_pin": {var: os.environ.get(var) for var in BLAS_ENV},
        "blas_threads_runtime": blas_threads,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_version,
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# measurement


def setup_probe(args):
    """Import plus building everything the workload needs before its first step."""
    started = time.perf_counter()
    wl = import_workloads()
    wl.WORKLOADS[args.workload].setup(args.seed)
    print(repr(time.perf_counter() - started))
    return 0


def measure_setup(args):
    """Setup seconds of ``SETUP_PROBES`` fresh processes, after one discarded probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples[1:]


def run_op(wl, workload, ctx, steps, out_dir, clock=None):
    """One op; an exception (an abort) is a failed op, not a crashed benchmark."""
    try:
        return workload.op(ctx, steps, out_dir, clock)
    except Exception as exc:  # the op boundary records every failure and goes on
        traceback.print_exc(file=sys.stderr)
        shutil.rmtree(out_dir, ignore_errors=True)
        if clock is not None:
            clock.take()
        return wl.OpResult(0, 0.0, None, "", [f"{type(exc).__name__}: {exc}"])


def run_window(wl, workload, ctx, budget_s, scratch, deadline, clock=None):
    """Back-to-back ops for ``budget_s`` seconds (at least one op)."""
    ops = []
    started = time.perf_counter()
    while not ops or (time.perf_counter() - started < budget_s and time.perf_counter() < deadline):
        ops.append(run_op(wl, workload, ctx, workload.op_steps, scratch / f"op{len(ops)}", clock))
    return ops


def run_traced(wl, tracer_mod, workload, ctx, budget_s, scratch, deadline):
    """Untraced and traced ops, alternating, so machine drift hits both alike."""
    tracer = tracer_mod.Tracer()
    untraced, traced = [], []
    started = time.perf_counter()
    while not traced or (time.perf_counter() - started < budget_s and time.perf_counter() < deadline):
        k = len(traced)
        untraced.append(run_op(wl, workload, ctx, workload.op_steps, scratch / f"plain{k}"))
        with tracer:
            traced.append(run_op(wl, workload, ctx, workload.op_steps, scratch / f"traced{k}"))
    return untraced, traced, tracer


def flag_nondeterminism(ops):
    """Identical ops must give identical outputs; a differing op is a failure."""
    digests = [o.digest for o in ops if not o.problems]
    if digests:
        reference = statistics.mode(digests)
        for o in ops:
            if not o.problems and o.digest != reference:
                o.problems.append(f"output digest {o.digest[:12]} differs from {reference[:12]}")
    return reference if digests else None


def median_rate(ops):
    rates = [o.rate for o in ops if not o.problems]
    return statistics.median(rates) if rates else 0.0


def end_to_end_metrics(ops, setup_samples):
    """End-to-end metrics of the timed ops.

    Identical ops repeat identical steps, so step ``i`` has one latency
    sample per op.  The per-step profile is the median over ops at each
    step index, which drops the machine's interference spikes (on a shared
    VM 1-2% of steps take 4-10 ms whatever the program does); p50 and p99
    are taken over the profile's step indices.
    """
    import numpy as np

    good = [o for o in ops if not o.problems]
    if good:
        profile = np.median(np.stack([o.latencies_ns for o in good]), axis=0) / 1e6
        p50, p99 = np.percentile(profile, [50, 99])
    else:
        profile, p50, p99 = (), 0.0, 0.0
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "steps_per_s": (median_rate(ops), "1/s"),
        "step_ms_p50": (float(p50), "ms"),
        "step_ms_p99": (float(p99), "ms"),
        "setup_s": (statistics.median(setup_samples) if setup_samples else 0.0, "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
    }, {"profile_steps": len(profile), "profile_ops": len(good)}


def refresh_gflop(n_nodes):
    """Computed (not counted) flops of one dense ``riccati_step`` at this grid.

    With N = 12 n and m = 3 n: one LU of ``I - dt A / 2`` (2N^3/3), two LU
    solves with N right-hand sides (2 x 2N^3), two N x N products
    (2 x 2N^3), the m x m gain solve with N right-hand sides
    (2m^3/3 + 2m^2 N) and the rank-m update (2N^2 m).
    """
    big, m = 12 * n_nodes, 3 * n_nodes
    flops = (2 / 3 + 8) * big**3 + (2 / 3) * m**3 + 2 * m * m * big + 2 * big * big * m
    return flops / 1e9


def per_layer_metrics(tracer_mod, tracer, traced_ops, n_nodes, untraced_ops):
    summary = tracer.summary()
    steps = sum(o.steps for o in traced_ops)
    metrics = {}
    for name in tracer_mod.SPAN_NAMES:
        calls, self_ns = summary[name]
        metrics[f"{name}.per_step"] = (calls / steps, "1/step")
        metrics[f"{name}.self_us"] = (self_ns / calls / 1e3 if calls else 0.0, "us")
    refreshes = summary["estimate.riccati_step"][0]
    metrics["estimate.riccati_step.dense_gflop"] = (
        refresh_gflop(n_nodes) if refreshes else 0.0, "GFLOP.computed"
    )
    emits = summary["harness.emit_csv"][0]
    metrics["harness.emit_csv.bytes"] = (
        sum(o.bytes_written for o in traced_ops) / emits if emits else 0.0, "B"
    )
    # paired: each traced op against the untraced op just before it
    ratios = [u.rate / t.rate - 1.0 for u, t in zip(untraced_ops, traced_ops) if not (u.problems or t.problems)]
    metrics["trace.overhead_pct"] = (statistics.median(ratios) * 100.0 if ratios else 0.0, "%")
    return metrics


def measure(args):
    wl = import_workloads()
    import tracer as tracer_mod

    deadline = time.perf_counter() + MAX_WALL_S
    workload = wl.WORKLOADS[args.workload]
    ctx = workload.setup(args.seed)
    scratch = OUT / "runs" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    extra = {}
    try:
        # the cold first op (lru-cached stencils, page cache) is not timed
        ops = [run_op(wl, workload, ctx, workload.warm_steps, scratch / "warm")]
        if args.trace == 0:
            setup_samples = measure_setup(args)
            if workload.drives_steps:
                timed = run_window(wl, workload, ctx, args.seconds, scratch, deadline)
            else:
                with wl.StepClock() as clock:
                    timed = run_window(wl, workload, ctx, args.seconds, scratch, deadline, clock)
            digest = flag_nondeterminism(timed)
            metrics, info = end_to_end_metrics(timed, setup_samples)
            extra.update(info, setup_samples=setup_samples)
            ops += timed
        else:
            untraced, traced, tracer = run_traced(wl, tracer_mod, workload, ctx, args.seconds, scratch, deadline)
            digest = flag_nondeterminism(untraced + traced)  # the tracer must not perturb outputs
            metrics = per_layer_metrics(tracer_mod, tracer, traced, ctx.n_nodes, untraced)
            spans = OUT / "spans" / f"{args.workload}-seed{args.seed}.npz"
            spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.save(spans)
            extra.update(steps_per_s_untraced=median_rate(untraced), steps_per_s_traced=median_rate(traced),
                         spans=spans.relative_to(ROOT).as_posix())
            ops += untraced + traced
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures = [p for o in ops for p in o.problems]
    failed = sum(1 for o in ops if o.problems)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "environment": environment(args.workload, ctx),
        "args": vars(args),
        "run_sha256": digest,
        "failed_frac": failed / len(ops),
        "failures": failures[:20],
        "op_steps_per_s": [o.rate for o in ops if not o.problems],
        **extra,
        "result": result,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for problem in failures[:20]:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("environment", "run_sha256", "failed_frac")}))
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# self-test


def self_test():
    """Tracer exactness and transparency, and metric names against BENCHMARK.json."""
    wl = import_workloads()
    import tracer as tracer_mod

    checks = []
    scratch = OUT / "runs" / f"self-test-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        for name, steps in (("track_true", 200), ("dense_log", 100), ("filter_replay", 20)):
            workload = wl.WORKLOADS[name]
            ctx = workload.setup(0)
            plain = workload.op(ctx, steps, scratch / f"{name}-plain")
            tracer = tracer_mod.Tracer()
            with tracer:
                traced = workload.op(ctx, steps, scratch / f"{name}-traced")
            calls = {k: c for k, (c, _) in tracer.summary().items()}
            checks.append((f"{name}: outputs pass their checks", not plain.problems and not traced.problems))
            checks.append((f"{name}: traced outputs identical to untraced", plain.digest == traced.digest))
            if name == "track_true":
                # 4 RK4 stages per step; 3 per metrics record (every 50 steps
                # plus the final one); 2 in the initial basin gate
                expected = 4 * steps + 3 * (steps // 50 + 1) + 2
                checks.append((f"track_true: {expected} trajectory evaluations",
                               calls["harness.SwingTrajectory.evaluate"] == expected))
                checks.append(("track_true: no Riccati refresh", calls["estimate.riccati_step"] == 0))
            elif name == "dense_log":
                checks.append(("dense_log: one metrics record per step plus the final one",
                               calls["harness.compute_metrics"] == steps + 1))
            else:
                stride = wl.FilterReplay.RICCATI_STRIDE
                checks.append(("filter_replay: one refresh per stride",
                               calls["estimate.riccati_step"] == steps // stride))
                checks.append(("filter_replay: one ekf_step and two plant/estimate steps per step",
                               calls["estimate.ekf_step"] == steps and calls["discretize.step"] == 2 * steps))
        # metric names from the last workload's ops
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = {m["name"]: m["unit"] for m in spec["per_layer"]}
        produced = per_layer_metrics(tracer_mod, tracer, [traced], ctx.n_nodes, [plain])
        checks.append(("per-layer metric names and units match BENCHMARK.json",
                       names == {k: u for k, (_, u) in produced.items()}))
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        produced, _ = end_to_end_metrics([plain], [1.0])
        checks.append(("end-to-end metric names and units match BENCHMARK.json",
                       e2e == {k: u for k, (_, u) in produced.items()}))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in checks) else 1


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = "1"  # before numpy is imported, here and in every probe
    if not (SRC / "softrod" / "__init__.py").is_file():
        print(f"error: no softrod package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)
    if args.self_test:
        return self_test()
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())

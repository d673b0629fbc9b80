"""The names the benchmark under ``bench/`` binds in the package.

The tracer patches every ``(module, attr)`` it lists and ``StepClock`` patches
the integrator names ``harness`` binds; a rename or deletion in the package
would only surface when the benchmark runs.  The benchmark's own self-test
runs here too.  ``bench/`` is imported and run, never edited.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from softrod import harness

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


TRACED = load_bench_module("tracer").TRACED


@pytest.mark.parametrize("module,attr", TRACED, ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_name_resolves_to_callable(module, attr):
    owner = importlib.import_module(f"softrod.{module}")
    *classes, name = attr.split(".")
    for cls_name in classes:
        owner = getattr(owner, cls_name)
    # the tracer reads a method from its class's own namespace
    assert callable(vars(owner).get(name))


def test_harness_binds_step_clock_names():
    for name in load_bench_module("workloads").StepClock.NAMES:
        assert callable(getattr(harness, name, None)), name


def test_bench_self_test_passes():
    # among its checks: the per-step count of trajectory evaluations, which
    # the trajectory memo must keep (a hit still counts as a call)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--self-test"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines and all(line.startswith("PASS ") for line in lines), proc.stdout

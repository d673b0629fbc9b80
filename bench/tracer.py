"""In-memory span tracer that wraps softrod's public functions from outside.

Callers inside the package resolve most functions through names bound at
import time (``harness`` imports ``strain_profile`` by name, ``discretize``
binds ``exp_so3``, ``estimate`` binds ``step`` ...), so wrapping one module
attribute would miss calls.  ``Tracer.install`` therefore replaces every
attribute of every loaded ``softrod`` module that *is* the original function,
and patches ``SwingTrajectory.evaluate`` on its class.  ``uninstall`` puts the
originals back, so traced and untraced windows can share one process.

Each call records one span (name, start, end, parent) in flat arrays; nothing
is written until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, attribute) of every traced public function; a dotted attribute is
# a method patched on its class.  Layer names are the module names.
TRACED = (
    ("harness", "run_closed_loop"),
    ("harness", "SwingTrajectory.evaluate"),
    ("harness", "compute_metrics"),
    ("harness", "emit_csv"),
    ("control", "tracking_errors"),
    ("control", "virtual_inputs"),
    ("control", "feedforward_transform"),
    ("control", "lyapunov_value"),
    ("rod", "strain_profile"),
    ("rod", "load_terms"),
    ("rod", "dynamics_rhs"),
    ("rod", "strains"),
    ("discretize", "step"),
    ("discretize", "step_coupled"),
    ("geometry", "exp_so3"),
    ("geometry", "log_so3"),
    ("geometry", "project_so3"),
    ("geometry", "rotation_error"),
    ("estimate", "linearize_dynamics"),
    ("estimate", "riccati_step"),
    ("estimate", "regularized_gain"),
    ("estimate", "filter_update"),
    ("estimate", "ekf_step"),
)

SPAN_NAMES = tuple(f"{module}.{attr}" for module, attr in TRACED)


class Tracer:
    """Records nested call spans of the traced functions while installed."""

    def __init__(self):
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._restore = []

    def _wrap(self, nid, fn):
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "softrod" or n.startswith("softrod.")]
        for nid, (module, attr) in enumerate(TRACED):
            owner = sys.modules[f"softrod.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(nid, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(nid, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapped)
        return self

    def uninstall(self):
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def arrays(self):
        """Spans as numpy arrays: name ids, parents, start and end in ns."""
        return tuple(
            np.frombuffer(a, dtype=np.int64).copy() for a in (self.name_id, self.parent, self.start, self.end)
        )

    def summary(self):
        """Per span name: ``(calls, total self time in ns)``.

        Self time is a span's duration minus the durations of its direct
        child spans.
        """
        names, parents, start, end = self.arrays()
        dur = (end - start).astype(np.float64)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - child
        k = len(TRACED)
        calls = np.bincount(names, minlength=k)
        self_total = np.bincount(names, weights=self_ns, minlength=k)
        return {SPAN_NAMES[i]: (int(calls[i]), float(self_total[i])) for i in range(k)}

    def save(self, path):
        """Write the spans, compressed, once the run has ended."""
        names, parents, start, end = self.arrays()
        np.savez_compressed(
            path, span_names=np.array(SPAN_NAMES), name_id=names, parent=parents, start_ns=start, end_ns=end
        )

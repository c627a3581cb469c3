"""In-memory span recorder that wraps cocogen's public functions.

Each wrapper is installed at the name where its caller looks the function
up, so that the wrapped call is the one the program actually makes. For
example ``solver`` imports ``argmin_2d`` by name, so the kernel spans come
from ``cocogen.solver.argmin_2d``, not from ``cocogen.kernels.argmin_2d``.
Spans hold (name, start, end, parent); self time is a span's duration minus
the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field


def _oracle_name(args, kwargs):
    return f"solver.grid_oracle.n{args[0].n}"


def _count_iterations(tracer, args, kwargs, report):
    tracer.counters["solver.fpi_solve.iterations"] += report.iterations


def _count_scan(tracer, args, kwargs, result):
    # Both scans evaluate F once per (i, j) pair of their two outer axes;
    # the 3-d scan's innermost axis is one envelope query per pair.
    points = len(args[0]) * len(args[2])
    inputs = sum(a.nbytes for a in args[:4])
    tracer.counters["kernels.points"] += points
    # One float64 F value per scanned point, plus the input arrays read.
    tracer.counters["kernels.bytes_computed"] += 8 * points + inputs


# (module, attribute, span name or name function, result hook)
PROGRAM_TARGETS = (
    ("cocogen.cli", "main", "cli.main", None),
    ("cocogen.cli", "cmd_sweep", "cli.cmd_sweep", None),
    ("cocogen.cli", "run_sweep", "cli.run_sweep", None),
    ("cocogen.cli", "run_sweep_job", "cli.run_sweep_job", None),
    ("cocogen.cli", "sample_scenario", "scenario.sample_scenario", None),
    ("cocogen.economics", "evaluate_profile", "economics.evaluate_profile", None),
    ("cocogen.economics", "global_error", "economics.global_error", None),
    ("cocogen.game", "potential", "game.potential", None),
    ("cocogen.solver", "fpi_solve", "solver.fpi_solve", _count_iterations),
    ("cocogen.solver", "verify_ne", "solver.verify_ne", None),
    ("cocogen.solver", "grid_oracle", _oracle_name, None),
    ("cocogen.solver", "argmin_2d", "kernels.argmin_2d", _count_scan),
    ("cocogen.solver", "argmin_3d", "kernels.argmin_3d", _count_scan),
    ("cocogen.solver", "build_lower_envelope", "kernels.build_lower_envelope", None),
    ("cocogen.baselines", "wco_solve", "baselines.wco_solve", None),
    ("cocogen.baselines", "radg_profiles", "baselines.radg_profiles", None),
    ("cocogen.scaling", "fit_scaling_law", "scaling.fit_scaling_law", None),
)

# The per-job stopwatch used for sweep latencies while tracing is off.
JOB_TIMER_TARGETS = tuple(t for t in PROGRAM_TARGETS if t[2] == "cli.run_sweep_job")


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    child_s: dict = field(default_factory=dict)  # inclusive time of direct children


@dataclass
class Tracer:
    """Records spans while installed; never shared between processes."""

    names: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    ends: list = field(default_factory=list)
    parents: list = field(default_factory=list)
    counters: defaultdict = field(default_factory=lambda: defaultdict(int))
    _stack: list = field(default_factory=lambda: [-1])

    def _open(self, name: str) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, targets=PROGRAM_TARGETS):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, name, hook in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def stats(self) -> dict[str, SpanStats]:
        """Calls, inclusive time, self time and time per child name, per span name."""
        child_time = [0.0] * len(self.starts)
        out: dict[str, SpanStats] = defaultdict(SpanStats)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                dur = self.ends[idx] - self.starts[idx]
                child_time[parent] += dur
                by_child = out[self.names[parent]].child_s
                by_child[self.names[idx]] = by_child.get(self.names[idx], 0.0) + dur
        for idx, name in enumerate(self.names):
            dur = self.ends[idx] - self.starts[idx]
            st = out[name]
            st.calls += 1
            st.total_s += dur
            st.self_s += dur - child_time[idx]
        return dict(out)

#!/usr/bin/env python3
"""Run one benchmark workload against the cocogen sources in this checkout.

    python3 perfbench/run.py --workload {sweep,certify,requests} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with tracing off. It
alternates a jobs-1 cycle in this process with a jobs-2 cycle (``sweep
--jobs 2`` for the sweep, two closed-loop clients in two worker processes
otherwise) for ``--seconds``, and on until 100 jobs-1 units are timed, so
that the 90th percentile has 10 samples beyond it. ``setup_s`` is then the
median of 5 fresh interpreters that import ``cocogen.cli`` and load the
workload's input files.

``--trace 1`` alternates untraced and traced cycles at jobs 1 for
``--seconds`` and prints the per-layer metrics. The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md for the workloads, metrics and the layer table.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_SAMPLES = 100  # the 90th percentile needs 10 samples beyond it
MIN_PAIRS = 3
SETUP_REPEATS = 5


def _git_commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
    except OSError:
        return "unknown (no git)"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _median(values):
    return statistics.median(values) if values else 0.0


def _peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def _python(call: str) -> list[str]:
    """A fresh interpreter that imports the program and this benchmark."""
    return [
        sys.executable, "-c",
        f"import sys; sys.path[:0] = [{SRC!r}, {HERE!r}]; import workloads; {call}",
    ]


def _setup_seconds(workload: str, input_dir: str) -> list[float]:
    cmd = _python(f"import cocogen.cli; workloads.load({workload!r}, {input_dir!r})")
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True)
        if i:  # the first start warms the file cache and bytecode
            times.append(time.perf_counter() - t0)
    return times


class _Clients:
    """Two closed-loop clients, each in its own interpreter (the jobs-2 side
    of ``certify`` and ``requests``, which have no parallel mode of their own)."""

    def __init__(self, workload: str, input_dir: str, out_dir: str):
        self.cmds = [
            _python(f"workloads.serve_client({workload!r}, {input_dir!r}, "
                    f"{os.path.join(out_dir, f'client{c}')!r})")
            for c in range(2)
        ]
        self.procs = []

    def __enter__(self):
        try:
            for cmd in self.cmds:
                self.procs.append(subprocess.Popen(
                    cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True))
            for proc in self.procs:
                if proc.stdout.readline().strip() != "ready":
                    raise RuntimeError("client failed to start")
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def cycle(self):
        """One cycle on each client at the same time."""
        for proc in self.procs:
            proc.stdin.write("cycle\n")
            proc.stdin.flush()
        results = []
        for proc in self.procs:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError(f"client exited with code {proc.wait()}")
            results.append(json.loads(line))
        return results

    def __exit__(self, *exc):
        for proc in self.procs:
            with contextlib.suppress(OSError):
                proc.stdin.close()
        for proc in self.procs:
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


def run_untraced(wl, args, input_dir, out_dir):
    """Alternate a jobs-1 cycle and a jobs-2 cycle so both see the same machine."""
    from spans import JOB_TIMER_TARGETS, Tracer
    from workloads import CycleResult

    total, jobs1 = CycleResult(), CycleResult()
    jobs2_units = [0, 0]
    jobs2_wall = [0.0, 0.0]
    clients = (
        contextlib.nullcontext() if wl.name == "sweep"
        else _Clients(wl.name, input_dir, out_dir)
    )
    pairs = 0
    t0 = time.perf_counter()
    with clients:
        # A failed unit already makes the run incorrect, and a request that
        # fails as a whole times no job, so the first failure ends the run.
        while not (total.failed or jobs1.failed) and (
            pairs < MIN_PAIRS
            or time.perf_counter() - t0 < args.seconds
            or len(jobs1.unit_ms) < MIN_SAMPLES
        ):
            if wl.name == "sweep":
                timer = Tracer()
                with timer.installed(JOB_TIMER_TARGETS):
                    jobs1.add(wl.run_cycle(jobs=1, job_timer=timer))
                c2 = wl.run_cycle(jobs=2)
                jobs2_units[0] += c2.units
                jobs2_wall[0] += c2.wall_s
                total.add(c2)
            else:
                jobs1.add(wl.run_cycle())
                for c, (units, failed, wall, errors) in enumerate(clients.cycle()):
                    jobs2_units[c] += units
                    jobs2_wall[c] += wall
                    total.add(CycleResult(units=units, failed=failed, errors=errors))
            pairs += 1
    rss = _peak_rss_mb()
    setup = _setup_seconds(wl.name, input_dir)

    # Rates are total units over total busy time, which averages over the
    # machine's speed changes rather than picking one of them.
    throughput = jobs1.units / jobs1.wall_s
    throughput2 = sum(u / w for u, w in zip(jobs2_units, jobs2_wall) if w)
    if len(jobs1.unit_ms) >= 2:
        deciles = statistics.quantiles(jobs1.unit_ms, n=10)
    else:  # only after a failure
        deciles = [1e3 * jobs1.wall_s / jobs1.units] * 9
    metrics = {
        "setup_s": (_median(setup), "s"),
        "throughput_per_s": (throughput, "units/s"),
        "throughput_per_s.jobs2": (throughput2, "units/s"),
        "scaling_eff.jobs2": (throughput2 / (2.0 * throughput), "ratio"),
        "unit_ms.p50": (deciles[4], "ms"),
        "unit_ms.p90": (deciles[8], "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    n = len(jobs1.unit_ms)
    notes = {
        "unit_ms.p50": f"n={n}",
        "unit_ms.p90": f"n={n}, {sum(1 for x in jobs1.unit_ms if x > deciles[8])} beyond",
        "throughput_per_s": f"{jobs1.units} units in {pairs} cycles",
        "setup_s": f"median of {len(setup)} interpreters",
    }
    total.add(jobs1)
    return metrics, notes, total


def run_traced(wl, args):
    from spans import Tracer, SpanStats
    from workloads import CycleResult

    def cycle(tracer=None):
        if wl.name == "sweep":
            return wl.run_cycle(jobs=1, job_timer=tracer)
        return wl.run_cycle(tracer=tracer)

    total = CycleResult()
    plain_walls, traced = [], []
    t0 = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - t0 < args.seconds:
        c = cycle()
        total.add(c)
        plain_walls.append(c.wall_s)
        tracer = Tracer()
        with tracer.installed():
            c = cycle(tracer)
        total.add(c)
        traced.append((tracer.stats(), dict(tracer.counters), c.wall_s))

    def per_cycle(stats, counters, wall):
        def st(name):
            return stats.get(name, SpanStats())

        ep = st("economics.evaluate_profile")
        fpi = st("solver.fpi_solve")
        iters = counters.get("solver.fpi_solve.iterations", 0)
        points = counters.get("kernels.points", 0)
        scan_s = st("kernels.argmin_2d").self_s + st("kernels.argmin_3d").self_s
        fit = st("scaling.fit_scaling_law")

        def ms_per_call(s):
            return 1e3 * s.total_s / s.calls if s.calls else 0.0

        return {
            "economics.evaluate_profile.calls": (ep.calls, "count"),
            "economics.evaluate_profile.self_s": (ep.self_s, "s"),
            "economics.evaluate_profile.profiles_per_s": (
                ep.calls / ep.total_s if ep.calls else 0.0, "1/s"),
            "economics.evaluate_profile.share": (ep.total_s / wall, "ratio"),
            "economics.global_error.calls": (st("economics.global_error").calls, "count"),
            "economics.global_error.self_s": (st("economics.global_error").self_s, "s"),
            "solver.fpi_solve.calls": (fpi.calls, "count"),
            "solver.fpi_solve.self_s": (fpi.self_s, "s"),
            "solver.fpi_solve.iterations": (iters, "count"),
            # The iteration loop's cost: fpi_solve minus its closing evaluate_profile.
            "solver.fpi_solve.us_per_iter": (
                1e6 * (fpi.total_s - fpi.child_s.get("economics.evaluate_profile", 0.0)) / iters
                if iters else 0.0, "us"),
            "game.potential.calls": (st("game.potential").calls, "count"),
            "game.potential.self_s": (st("game.potential").self_s, "s"),
            "solver.verify_ne.calls": (st("solver.verify_ne").calls, "count"),
            "solver.verify_ne.self_s": (st("solver.verify_ne").self_s, "s"),
            "solver.grid_oracle.ms.n2": (ms_per_call(st("solver.grid_oracle.n2")), "ms"),
            "solver.grid_oracle.ms.n3": (ms_per_call(st("solver.grid_oracle.n3")), "ms"),
            "kernels.argmin_2d.self_s": (st("kernels.argmin_2d").self_s, "s"),
            "kernels.argmin_3d.self_s": (st("kernels.argmin_3d").self_s, "s"),
            "kernels.build_lower_envelope.self_s": (
                st("kernels.build_lower_envelope").self_s, "s"),
            "kernels.points": (points, "count"),
            "kernels.points_per_s": (points / scan_s if scan_s else 0.0, "1/s"),
            "kernels.bytes_computed": (counters.get("kernels.bytes_computed", 0), "bytes"),
            "baselines.wco_solve.calls": (st("baselines.wco_solve").calls, "count"),
            "baselines.wco_solve.self_s": (st("baselines.wco_solve").self_s, "s"),
            "baselines.radg_profiles.self_s": (st("baselines.radg_profiles").self_s, "s"),
            "scenario.sample_scenario.calls": (st("scenario.sample_scenario").calls, "count"),
            "scenario.sample_scenario.self_s": (st("scenario.sample_scenario").self_s, "s"),
            "scaling.fit_scaling_law.calls": (fit.calls, "count"),
            "scaling.fit_scaling_law.ms_per_call": (ms_per_call(fit), "ms"),
            "cli.main.self_s": (st("cli.main").self_s, "s"),
            "cli.run_sweep_job.self_s": (st("cli.run_sweep_job").self_s, "s"),
            "cli.write_s": (st("cli.cmd_sweep").total_s - st("cli.run_sweep").total_s, "s"),
            "bench.unit.self_s": (st("bench.unit").self_s, "s"),
        }

    cycles = [per_cycle(*t) for t in traced]
    # The root spans (cli.main, bench.unit) enclose every unit, so all self
    # times together should account for nearly the whole traced wall time.
    covered = _median([sum(s.self_s for s in t[0].values()) / t[2] for t in traced])
    metrics = {}
    for name, (_, unit) in cycles[0].items():
        values = [c[name][0] for c in cycles]
        # Counts repeat exactly from cycle to cycle; times are medians.
        metrics[name] = (values[0] if unit == "count" else _median(values), unit)
    metrics["trace.overhead_frac"] = (
        1.0 - _median(plain_walls) / _median([t[2] for t in traced]), "ratio")
    counts_repeat = all(
        c[name][0] == cycles[0][name][0]
        for c in cycles for name, (_, unit) in c.items() if unit == "count"
    )
    notes = {
        "trace.overhead_frac": f"{len(plain_walls)} untraced / {len(traced)} traced cycles; "
                               f"self times cover {covered:.4f} of traced wall time",
        "solver.fpi_solve.iterations": f"repeats exactly across cycles: {counts_repeat}",
        "kernels.points": "computed from array sizes",
        "kernels.bytes_computed": "computed from array sizes: 8 B per point + inputs",
    }
    return metrics, notes, total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "certify", "requests"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cocogen", "__init__.py")):
        print(f"error: no cocogen sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import numpy as np

    from cocogen import kernels
    from workloads import WORKLOADS

    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        input_dir = os.path.join(work, "inputs")
        out_dir = os.path.join(work, "out")
        os.makedirs(input_dir)
        os.makedirs(out_dir)
        cls = WORKLOADS[args.workload]
        cls.generate(input_dir, args.seed)
        wl = cls(input_dir, out_dir)
        wl.load()
        if args.trace:
            metrics, notes, total = run_traced(wl, args)
        else:
            metrics, notes, total = run_untraced(wl, args, input_dir, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    fail_frac = total.failed / total.units if total.units else 1.0
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<44} {value:>16.6g} {unit}{note}")
    print(f"{'fail_frac':<44} {fail_frac:>16.6g} ratio  ({total.failed}/{total.units} units)")
    for err in total.errors[:20]:
        print(f"failed: {err}", file=sys.stderr)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "units_per_cycle": wl.cycle_units(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernels_backend": kernels.backend_name(),
        "git_commit": _git_commit(),
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": total.failed == 0,
        "attempted": total.units,
        "failed": total.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

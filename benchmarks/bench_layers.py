"""Per-layer timings of the sweep and request paths, written to a BENCH JSON file.

Each layer is timed with ``timeit`` as the minimum over ``--repeat`` runs,
divided by the calls per run. The per-call layers run on the first preset
sweep job's scenario, on one warm instance (column caches built), so
they measure the layer alone; ``cli.scheme_rows`` is one
job's work after sampling (both solves and the one batched pricing of the
CoCoGen, VCFL and WCO profiles and the RaDG draws).
``economics.evaluate_profiles.job`` prices that job's 103-row matrix (the
CoCoGen, VCFL and WCO profiles, then its 100 RaDG draws) in one call, as
``cli.scheme_rows`` does.
``cli.scheme_rows.fresh``, ``solver.solve_games.two_games.fresh`` (both
games' coefficients built, then solved) and
``economics.evaluate_profiles.job.fresh`` time the same work on a newly
sampled copy of that scenario per call, whose cache holds only what
validation builds, as inside a sweep job; they add the per-scenario cache
builds that the warm layers leave out. The sampling is not timed.
``baselines.wco_solve`` solves that scenario's zero-competition (WCO)
game on the scenario itself, as a one-row ``solve_games`` call (checkouts
before it built and validated a copy of the scenario with every ``gamma``
zeroed, then solved that copy).
``model.Scenario.fresh_copy`` is ``dataclasses.replace`` of that scenario,
and ``model.Scenario.antisymmetric_copy`` its copy under antisymmetric
payoffs (``replace`` of its economy too); each copy is validated when
built (in checkouts that validated scenarios by a separate call, the copy
alone is timed). ``solver.verify_ne`` certifies
that scenario's CoCoGen profile against every unilateral move on each
organization's 3001-point lattice (at an equilibrium it prices each
organization's two lattice neighbours; checkouts before that scanned every
move), and
``solver.verify_ne.antisymmetric`` does the same for a copy under
antisymmetric payoffs, at that copy's CoCoGen profile.
``solver.verify_ne.not_ne`` certifies the all-``d_min`` profile of a copy
whose generation costs are scaled by 1e-6, where every organization gains
by moving up, so the certificate searches each gain for its maximum.
``solver.solve_games.two_games`` solves that job's CoCoGen game and its
zero-competition (WCO) game as the two rows of one ``solve_games`` call,
as ``cli.scheme_rows`` does.
``model.load_scenario.example`` reads, parses and validates the shipped
10-organization example scenario file, as every ``solve`` and ``compare``
does; ``scenario.load_sweep.preset`` reads and parses the shipped preset
sweep file (the sweep's fixed blocks checked, no job expanded).
``cli.run_sweep_job`` runs the first 90 preset jobs end to end, sampling
included, and is what a sweep pays per job. ``cli.sweep.preset.jobs1`` and
``.jobs2`` are one wall-clock run each of ``cocogen sweep`` on the full
900-job preset, CSV
writing included, at ``--jobs 1`` and ``--jobs 2``; being single runs, they
are the noisiest layers. ``cli.sweep.small.jobs1`` and ``.jobs2`` run
perfbench's sweep unit the same way (the shipped preset with two
repetitions, 18 jobs, written to a temporary directory), as the minimum
over repeated runs; at this size a sweep's fixed costs, such as starting
its worker processes, weigh most. ``cli._write_text.overwrite`` writes a
7 kB text over an existing file of the same length, as each repeated sweep
into one directory rewrites its CSVs and sidecars. ``cli._aggregate``
computes the per-cell means and
standard deviations of the 3,600 rows of one in-process ``--jobs 1`` run of
that preset. ``solver.grid_oracle.n2``, ``.n3`` and ``.n10`` run the grid
oracle on the first preset job's cell drawn with 2, 3 and 10 organizations,
over 3001-point axes: it solves the game, then prices every lattice point
of the box that its proof leaves, a few points at N <= 3 and a few dozen
at N = 10. Checkouts whose oracle refuses N > 3 record no ``.n10``.
``kernels.build_lower_envelope`` builds a lower envelope over the 3001
lines of that N = 3 scenario's third axis, the benchmark's reference
kernel.
``solver.fpi_solve.per_iteration`` divides the solve's time by the report's
``iterations``, which counts the bracket steps of the scalar root solve. In
checkouts that still solved by damped Jacobi sweeps it counted sweeps, so
this layer does not compare across that change. ``scaling.fit_scaling_law``
fits a noiseless 12-point curve of the shipped law. ``cli.main.solve``,
``cli.main.compare`` and ``cli.main.fit`` are one in-process request each
(``solve`` and ``compare`` of the shipped example, ``fit`` of that curve),
argument parsing and file I/O included;
being minima over repeated calls in one process, they leave out what only
a process's first request pays. ``tier1.pytest`` is the wall time of one
Tier-1 run (``python -m pytest -q --continue-on-collection-errors`` in the
checkout holding ``--src``, with that directory on ``PYTHONPATH``), a
single run like the preset sweeps.

Time two checkouts with the same script and collect both in one file.
Each invocation appends its numbers under its label, and the file keeps the
per-layer median over a label's invocations: on a shared machine the
minimum moves between processes, so alternate the two a few times:

    for i in 1 2 3 4 5; do
        python benchmarks/bench_layers.py --src /path/to/parent/src \
            --label parent --out BENCH_N.json
        python benchmarks/bench_layers.py --src src --label change --out BENCH_N.json
    done

Every layer solves with the default ``SolverConfig``. Checkouts whose
``cli.scheme_rows``, ``cli.run_sweep_job`` and ``cli.run_sweep`` took a
solver config are timed with their own copy of this script, which passed
the default one.

Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
from dataclasses import replace
from importlib import resources


def _per_call_us(fn, number: int, repeat: int) -> float:
    return min(timeit.repeat(fn, number=number, repeat=repeat)) / number * 1e6


def _fresh_us(fn, fresh, number: int, repeat: int) -> float:
    """Time of ``fn(x)`` per call, each call on a new ``x = fresh()`` made
    before the timed run, as the minimum over ``repeat`` runs of ``number``."""
    best = float("inf")
    for _ in range(repeat):
        xs = [fresh() for _ in range(number)]
        t0 = time.perf_counter()
        for x in xs:
            fn(x)
        best = min(best, time.perf_counter() - t0)
    return best / number * 1e6


def _sweep_command(cli, path: str, out: str, jobs: int):
    """One in-process ``cocogen sweep`` of ``path`` into ``out``, as a
    function of no arguments."""
    argv = ["sweep", path, "-o", out, "--jobs", str(jobs)]
    args = cli.build_parser().parse_args(argv)
    args.argv = argv  # what cli.main records in the manifest

    def sweep():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.cmd_sweep(args)
        if code != 0:
            raise RuntimeError(f"sweep of {path} at --jobs {jobs} exited {code}")

    return sweep


def _preset_sweep_us(cli, jobs: int) -> float:
    """Wall time of one ``cocogen sweep`` of the shipped preset, in us."""
    preset = str(resources.files("cocogen").joinpath("data/sweep_default.json"))
    with tempfile.TemporaryDirectory() as out:
        sweep = _sweep_command(cli, preset, out, jobs)
        t0 = time.perf_counter()
        sweep()
        return (time.perf_counter() - t0) * 1e6


def _small_sweep_us(cli, jobs: int, repeat: int) -> float:
    """Time of one ``cocogen sweep`` of perfbench's sweep unit (the shipped
    preset with two repetitions, 18 jobs), in us."""
    shipped = resources.files("cocogen").joinpath("data/sweep_default.json")
    payload = json.loads(shipped.read_text(encoding="utf-8"))
    payload["repetitions"] = 2
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sweep.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return _per_call_us(_sweep_command(cli, path, os.path.join(tmp, "out"), jobs), 1, repeat)


def _request_us(cli, argv, number: int, repeat: int) -> float:
    """Time of one in-process ``cli.main(argv)`` request, in us."""

    def request():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cocogen {argv[0]} exited {code}")

    return _per_call_us(request, number, repeat)


def _request_layers(cli, scaling, repeat: int) -> dict:
    """``scaling.fit_scaling_law`` on a 12-point curve, and one ``solve`` and
    one ``compare`` of the shipped example and one ``fit`` of that curve
    through ``cli.main``."""
    import numpy as np

    ds = np.unique(np.geomspace(200, 20000, 12).astype(int))
    eps = 21.2 * np.power(ds.astype(float), -0.52) - 0.12  # the example's error law
    points = [scaling.CurvePoint(d=int(d), eps=float(e)) for d, e in zip(ds, eps)]
    example = str(resources.files("cocogen").joinpath("data/scenario_example.json"))
    with tempfile.TemporaryDirectory() as tmp:
        curve = os.path.join(tmp, "curve.csv")
        with open(curve, "w", encoding="utf-8") as fh:
            fh.write("d,eps\n" + "".join(f"{p.d},{p.eps!r}\n" for p in points))
        return {
            "scaling.fit_scaling_law": _per_call_us(
                lambda: scaling.fit_scaling_law(points), 50, repeat
            ),
            "cli.main.solve": _request_us(
                cli, ["solve", example, "-o", os.path.join(tmp, "solve.json")], 20, repeat
            ),
            "cli.main.fit": _request_us(
                cli, ["fit", curve, "-o", os.path.join(tmp, "fit.json")], 20, repeat
            ),
            "cli.main.compare": _request_us(
                cli, ["compare", example, "-o", os.path.join(tmp, "compare.csv")], 10, repeat
            ),
        }


def _tier1_us(src: str) -> float:
    """Wall time of one Tier-1 run of the checkout holding ``src``, in us."""
    src = os.path.abspath(src)
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=os.path.dirname(src), env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"Tier-1 exited {proc.returncode}:\n{proc.stdout[-2000:]}")
    return elapsed * 1e6


def measure(repeat: int) -> dict:
    import numpy as np

    from cocogen import baselines, cli, economics, game, kernels, scaling, solver
    from cocogen.errors import InstanceTooLarge
    from cocogen.model import PayoffMode, load_scenario
    from cocogen.scenario import default_sweep_grid, expand_sweep, load_sweep, sample_scenario

    grid = default_sweep_grid()
    jobs = expand_sweep(grid)
    job = jobs[0]
    s = sample_scenario(grid, job.cell, job.seed)
    report = solver.fpi_solve(s)

    def antisymmetric():
        return replace(s, economy=replace(s.economy, bb_mode=PayoffMode.ANTISYMMETRIC))

    anti = antisymmetric()
    anti_profile = solver.fpi_solve(anti).profile
    cheap = replace(s, eta=s.eta * 1e-6, mu=s.mu * 1e-6)
    floor = np.full(s.n, float(s.bounds.d_min))
    if solver.verify_ne(cheap, floor).is_ne:
        raise RuntimeError("the near-free floor profile was certified")
    games = np.vstack([game._linear_coeffs(s), baselines.wco_linear_coeffs(s)])
    job_profiles = np.vstack([
        report.profile.d_gen, baselines.vcfl_profile(s).d_gen,
        baselines.wco_solve(s).profile.d_gen,
        baselines.radg_profiles(s, job.seed, grid.radg_repetitions),
    ])
    example = str(resources.files("cocogen").joinpath("data/scenario_example.json"))
    preset = str(resources.files("cocogen").joinpath("data/sweep_default.json"))

    def fresh():
        return sample_scenario(grid, job.cell, job.seed)

    layers = {
        "model.load_scenario.example": _per_call_us(lambda: load_scenario(example), 200, repeat),
        "scenario.load_sweep.preset": _per_call_us(lambda: load_sweep(preset), 200, repeat),
        "scenario.sample_scenario": _per_call_us(
            lambda: sample_scenario(grid, job.cell, job.seed), 200, repeat
        ),
        "solver.fpi_solve": _per_call_us(lambda: solver.fpi_solve(s), 100, repeat),
        "baselines.wco_solve": _per_call_us(lambda: baselines.wco_solve(s), 100, repeat),
        "solver.solve_games.two_games": _per_call_us(
            lambda: solver.solve_games(s, games), 100, repeat
        ),
        "economics.evaluate_profile": _per_call_us(
            lambda: economics.evaluate_profile(s, report.profile), 500, repeat
        ),
        "economics.evaluate_profiles.job": _per_call_us(
            lambda: economics.evaluate_profiles(s, job_profiles), 500, repeat
        ),
        "cli.scheme_rows": _per_call_us(
            lambda: cli.scheme_rows(s, job.seed, grid.radg_repetitions), 100, repeat
        ),
        "solver.verify_ne": _per_call_us(
            lambda: solver.verify_ne(s, report.profile), 100, repeat
        ),
        "solver.verify_ne.antisymmetric": _per_call_us(
            lambda: solver.verify_ne(anti, anti_profile), 100, repeat
        ),
        "solver.verify_ne.not_ne": _per_call_us(
            lambda: solver.verify_ne(cheap, floor), 100, repeat
        ),
        "cli.scheme_rows.fresh": _fresh_us(
            lambda x: cli.scheme_rows(x, job.seed, grid.radg_repetitions), fresh, 100, repeat
        ),
        "solver.solve_games.two_games.fresh": _fresh_us(
            lambda x: solver.solve_games(
                x, np.vstack([game._linear_coeffs(x), baselines.wco_linear_coeffs(x)])
            ),
            fresh, 100, repeat,
        ),
        "economics.evaluate_profiles.job.fresh": _fresh_us(
            lambda x: economics.evaluate_profiles(x, job_profiles), fresh, 100, repeat
        ),
        "model.Scenario.fresh_copy": _per_call_us(lambda: replace(s), 500, repeat),
        "model.Scenario.antisymmetric_copy": _per_call_us(antisymmetric, 500, repeat),
        "cli.run_sweep_job.first_90_jobs": _per_call_us(
            lambda: [cli.run_sweep_job(grid, j) for j in jobs[:90]], 1, repeat
        )
        / 90,
    }
    for n in (2, 3, 10):
        small = replace(grid, n_orgs=n)
        first = expand_sweep(small)[0]
        oracle_s = sample_scenario(small, first.cell, first.seed)
        try:
            layers[f"solver.grid_oracle.n{n}"] = _per_call_us(
                lambda: solver.grid_oracle(oracle_s), 1, repeat
            )
        except InstanceTooLarge:  # checkouts whose oracle stops at N = 3
            pass
        if n == 3:
            lo, hi = float(oracle_s.bounds.d_min), float(oracle_s.bounds.d_max)
            values = lo + np.arange(int(hi - lo) + 1)
            scale = oracle_s.n * oracle_s.economy.varrho
            eps = economics._local_errors(oracle_s, values[:, None])[:, 2]
            lines = (np.exp(eps / scale), game._linear_coeffs(oracle_s)[2] * values)
            layers["kernels.build_lower_envelope"] = _per_call_us(
                lambda: kernels.build_lower_envelope(*lines), 20, repeat
            )
    layers["solver.fpi_solve.per_iteration"] = layers["solver.fpi_solve"] / report.iterations
    rows = cli.run_sweep(grid, jobs=1)
    layers["cli._aggregate"] = _per_call_us(lambda: cli._aggregate(rows), 3, repeat)
    with tempfile.TemporaryDirectory() as tmp:
        path, text = os.path.join(tmp, "results.csv"), "0123456789," * 636 + "\r\n"
        cli._write_text(path, text, "-o/--out-dir")
        layers["cli._write_text.overwrite"] = _per_call_us(
            lambda: cli._write_text(path, text, "-o/--out-dir"), 200, repeat
        )
    for jobs in (1, 2):
        layers[f"cli.sweep.preset.jobs{jobs}"] = _preset_sweep_us(cli, jobs)
    for jobs in (1, 2):
        layers[f"cli.sweep.small.jobs{jobs}"] = _small_sweep_us(cli, jobs, repeat)
    # Last: cli.main turns on the progress log that a sweep writes.
    layers.update(_request_layers(cli, scaling, repeat))
    return {k: round(v, 2) for k, v in layers.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default="src", help="directory holding the cocogen package")
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--out", required=True, help="BENCH JSON file to add this run to")
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np

    layers = measure(args.repeat)
    layers["tier1.pytest"] = round(_tier1_us(args.src), 2)
    payload = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            payload = json.load(fh)
    payload["machine"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
    payload["unit"] = "us per call, min of repeat timeit runs"
    payload["repeat"] = args.repeat
    run = payload.setdefault("runs", {}).setdefault(args.label, {"invocations": []})
    run["invocations"].append(layers)
    run["median"] = {
        name: round(statistics.median(inv[name] for inv in run["invocations"]), 2)
        for name in layers
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    for name, us in layers.items():
        print(f"{name:40s} {us:12.2f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())

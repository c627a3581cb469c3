"""Command-line entry point: fit, solve, sweep, and compare.

Exit codes: 0 success, 1 a ``compare`` scheme row that failed or a sweep
whose every job failed, 2 unusable input or output path (and any package
error a command does not handle), 3 curve fit with too few points or no
feasible offset, 4 solver non-convergence (suppressed by
``--allow-nonconverged``).
All numeric CSV fields carry 17 significant digits; result CSVs are plain
RFC 4180 bodies with the run manifest in a JSON sidecar next to them. Every
manifest records the command line and the Python and numpy versions and CPU
count that ran it; that of a command that solves also records its full
solver configuration and the payoff mode it solved under.
"""

from __future__ import annotations

import argparse
import collections
import csv
import functools
import io
import json
import logging
import math
import multiprocessing
import os
import platform
import statistics
import sys
import time
import traceback
from dataclasses import asdict, replace
from datetime import datetime, timezone

import numpy as np

from . import __version__, baselines, economics, game, scaling, solver
from .errors import (
    CocogenError,
    InsufficientPoints,
    NonPositiveShifted,
    UnwritableOutput,
)
from .model import PayoffMode, load_scenario, validate_scenario, with_payoff_mode
from .scenario import (
    PRNG_ID,
    SweepGrid,
    SweepJob,
    check_radg_count,
    expand_sweep,
    load_sweep,
    sample_scenario,
)

__all__ = ["main"]

logger = logging.getLogger("cocogen")

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2
EXIT_FIT = 3
EXIT_NONCONVERGED = 4

SCHEMES = ("CoCoGen", "VCFL", "WCO", "RaDG")

SWEEP_COLUMNS = (
    "gamma_level",
    "alpha_d",
    "repetition",
    "scheme",
    "welfare",
    "mean_d_gen",
    "ir_all",
    "bb_sum",
    "converged",
    "realized_gamma_bar",
    "status",
)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _manifest(args, config_paths, seed, started: str, solved=None) -> dict:
    """The run manifest of the command ``args`` (as parsed by ``main``),
    started at ``started``, finished now. ``solved`` is the
    (SolverConfig, PayoffMode) of a command that solves."""
    out = {
        "command": args.command,
        "argv": args.argv,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "config_paths": [str(p) for p in config_paths],
        "seed": seed,
        "tool_version": __version__,
        "prng_id": PRNG_ID,
        "started": started,
        "finished": _now(),
    }
    if solved is not None:
        cfg, mode = solved
        out["solver_config"] = asdict(cfg)
        out["payoff_mode"] = mode.value
    return out


def _json_text(payload: dict) -> str:
    """The indented JSON document and its final newline, built in memory so
    that it reaches the file in one write."""
    return json.dumps(payload, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    """An RFC 4180 body: the header, then every row's fields through ``_fmt``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    return buf.getvalue()


def _write_text(path, text: str, flag: str) -> None:
    """Write one output file in one call; a path that cannot be written is
    reported against the flag that gave it."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UnwritableOutput(f"{flag}: cannot write {str(path)!r}: {exc.strerror or exc}") from None


def _solver_config_from_args(args) -> solver.SolverConfig:
    return solver.SolverConfig(tol=args.tol, max_iters=args.max_iters)


def _load_scenario_for_args(args, seed: int | None = None):
    s = load_scenario(args.scenario)
    if args.payoff_mode is not None:
        s = with_payoff_mode(s, PayoffMode(args.payoff_mode))
    if seed is not None:
        s = replace(s, seed=seed)
    return validate_scenario(s)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    started = _now()
    try:
        points = scaling.read_curve_csv(args.curve)
    except (OSError, ValueError, CocogenError) as exc:
        print(f"error: cannot read curve file: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        result = scaling.fit_scaling_law(points)
    except (InsufficientPoints, NonPositiveShifted) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FIT
    payload = result.to_dict()
    payload["manifest"] = _manifest(args, [args.curve], None, started)
    _write_text(args.out, _json_text(payload), "-o/--out")
    print(
        f"fitted alpha={result.law.alpha:.6g} beta={result.law.beta:.6g} "
        f"delta={result.law.delta:.6g} rmse={result.rmse:.3e}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    started = _now()
    try:
        s = _load_scenario_for_args(args)
    except (OSError, ValueError, KeyError, CocogenError) as exc:
        print(f"error: invalid scenario: {exc}", file=sys.stderr)
        return EXIT_INPUT
    cfg = _solver_config_from_args(args)
    report = solver.fpi_solve(s, cfg)
    if args.verify_ne:
        report = replace(report, ne_certificate=solver.verify_ne(s, report.profile))
    manifest = _manifest(args, [args.scenario], None, started, (cfg, s.economy.bb_mode))
    payload = {"manifest": manifest, **report.to_dict()}
    if args.out:
        _write_text(args.out, _json_text(payload), "-o/--out")
    else:
        sys.stdout.write(_json_text(payload))
    if args.trace:
        trace = _csv_text(["iteration", "F"], enumerate(report.potential_trace))
        _write_text(args.trace, trace, "--trace")
    if not report.converged and not args.allow_nonconverged:
        print(
            f"error: not converged after {report.iterations} iterations",
            file=sys.stderr,
        )
        return EXIT_NONCONVERGED
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _realized_gamma_bar(gamma: np.ndarray) -> float:
    n = gamma.shape[0]
    if n < 2:
        return 0.0
    off = np.asarray(gamma).sum() / (n * (n - 1))
    return float(off)


def _failed_row(scheme: str, exc: CocogenError) -> dict:
    return {"scheme": scheme, "welfare": math.nan, "mean_d_gen": math.nan,
            "ir_all": False, "bb_sum": math.nan, "converged": False,
            "status": f"error:{type(exc).__name__}"}


def _ok_row(scheme: str, welfare, mean_d, ir_all, bb_sum, converged) -> dict:
    """A priced row: ``ok`` if its welfare and transfer sum are finite."""
    welfare, bb_sum = float(welfare), float(bb_sum)
    finite = math.isfinite(welfare) and math.isfinite(bb_sum)
    return {"scheme": scheme, "welfare": welfare, "mean_d_gen": float(mean_d),
            "ir_all": bool(ir_all), "bb_sum": bb_sum, "converged": bool(converged),
            "status": "ok" if finite else "error:NonFiniteWelfare"}


def scheme_rows(
    s, cfg: solver.SolverConfig, radg_seed: int, radg_count: int
) -> tuple[list[dict], solver.SolveReport | None]:
    """The CoCoGen, VCFL, WCO and RaDG rows for one scenario, in that order.

    CoCoGen's game and WCO's zero-competition game share the scenario's
    columns and differ only in F's linear coefficient, so both are solved
    as the two rows of one ``solver.solve_games`` call. A game whose
    coefficient cannot be built (WCO's when some ``psi_n`` is 0) gives its
    row the status ``error:<Type>`` and is left out of the solve; a failed
    solve fails the row of each game in it. The CoCoGen, VCFL and WCO
    profiles and the RaDG draws are priced as one profile matrix;
    ``evaluate_profiles`` prices each row as if alone, bit for bit. Also
    returns WCO's report (None if its game failed), priced on ``s`` when
    first read.
    """
    coeffs, failed = {}, {}
    for scheme, build in (("CoCoGen", game._linear_coeffs), ("WCO", baselines.wco_linear_coeffs)):
        try:
            coeffs[scheme] = build(validate_scenario(s))
        except CocogenError as exc:
            failed[scheme] = exc
    reports = {}
    if coeffs:
        try:
            reports = dict(zip(coeffs, solver.solve_games(s, np.vstack(list(coeffs.values())), cfg)))
        except CocogenError as exc:
            failed.update(dict.fromkeys(coeffs, exc))

    def outcome(scheme):
        rep = reports.get(scheme)
        return failed[scheme] if rep is None else (rep.profile.d_gen, rep.converged)

    # Scheme -> (profile, converged), or the error that stopped its solve.
    solved: dict[str, tuple | CocogenError] = {
        "CoCoGen": outcome("CoCoGen"),
        "VCFL": (baselines.vcfl_profile(s).d_gen, True),
        "WCO": outcome("WCO"),
    }

    priced = [v[0] for v in solved.values() if not isinstance(v, CocogenError)]
    draws = baselines.radg_profiles(s, radg_seed, radg_count)
    ev = economics.evaluate_profiles(s, np.vstack(priced + [draws]))
    rows, k = [], 0
    for scheme, v in solved.items():
        if isinstance(v, CocogenError):
            rows.append(_failed_row(scheme, v))
            continue
        d, converged = v
        rows.append(_ok_row(scheme, ev.welfare[k], np.mean(d), ev.ir[k].all(),
                            ev.bb_sum[k], converged))
        k += 1
    radg = slice(k, None)
    rows.append(_ok_row("RaDG", np.mean(ev.welfare[radg]), np.mean(draws.mean(axis=1)),
                        ev.ir[radg].all(), np.mean(ev.bb_sum[radg]), True))
    return rows, reports.get("WCO")


def run_sweep_job(grid: SweepGrid, job: SweepJob, cfg: solver.SolverConfig) -> list[dict]:
    """All four scheme rows for one job; failures land in the status column."""
    base = {
        "gamma_level": job.gamma_index,
        "alpha_d": job.cell.alpha_d,
        "repetition": job.repetition,
    }
    try:
        s = sample_scenario(grid, job.cell, job.seed)
    except CocogenError as exc:
        return [
            {**base, **_failed_row(scheme, exc), "realized_gamma_bar": math.nan}
            for scheme in SCHEMES
        ]
    gbar = _realized_gamma_bar(s.market.gamma)
    rows, _ = scheme_rows(s, cfg, job.seed, grid.radg_repetitions)
    return [{**base, **r, "realized_gamma_bar": gbar} for r in rows]


def _write_rows_csv(path, columns, rows, flag: str) -> None:
    _write_text(path, _csv_text(columns, ([r[c] for c in columns] for r in rows)), flag)


def _stdev(values: list[float]) -> float:
    """``statistics.stdev`` of at least two finite floats, in integer
    arithmetic: with every value m / 2**k, the variance is exactly p / q
    below; its square root is rounded once, from an integer root of at
    least 55 bits rounded to odd."""
    ratios = [x.as_integer_ratio() for x in values]
    k = max(den.bit_length() for _, den in ratios) - 1
    ms = [num << (k + 1 - den.bit_length()) for num, den in ratios]
    n, total = len(ms), sum(ms)
    p, q = n * sum(m * m for m in ms) - total * total, n * (n - 1) << 2 * k
    e = (p.bit_length() - q.bit_length()) // 2 - 56
    a, rem = divmod(p, q << 2 * e) if e >= 0 else divmod(p << -2 * e, q)
    r = math.isqrt(a)
    return math.ldexp(r | (rem > 0 or r * r != a), e)


def _aggregate(rows):
    """Per-cell, per-scheme mean and sample standard deviation."""
    groups: dict[tuple, dict[str, list[float]]] = {}
    for r in rows:
        if r["status"] != "ok":
            continue
        key = (r["gamma_level"], r["alpha_d"], r["scheme"])
        g = groups.setdefault(key, {"welfare": [], "mean_d_gen": []})
        g["welfare"].append(r["welfare"])
        g["mean_d_gen"].append(r["mean_d_gen"])
    out = []
    for (gl, ad, scheme), vals in sorted(groups.items()):
        w = vals["welfare"]
        m = vals["mean_d_gen"]
        out.append(
            {
                "gamma_level": gl,
                "alpha_d": ad,
                "scheme": scheme,
                "n": len(w),
                "welfare_mean": statistics.fmean(w),
                "welfare_std": _stdev(w) if len(w) > 1 else 0.0,
                "mean_d_gen_mean": statistics.fmean(m),
                "mean_d_gen_std": _stdev(m) if len(m) > 1 else 0.0,
            }
        )
    return out


def _share_worker(conn, grid: SweepGrid, share: list[SweepJob], cfg: solver.SolverConfig) -> None:
    """A worker process's target: run one share of the sweep's jobs and send
    their rows (a list), or the exception that stopped them and its
    formatted traceback (a tuple), in one message."""
    try:
        message = [run_sweep_job(grid, job, cfg) for job in share]
    except Exception as exc:
        message = (exc, traceback.format_exc())
    conn.send(message)
    conn.close()


def run_sweep(grid: SweepGrid, cfg: solver.SolverConfig, jobs: int = 1):
    """Execute every sweep job; the row order is independent of scheduling.

    ``jobs`` is capped at the job count and the CPU count, giving W workers;
    job i belongs to share i mod W. This process runs share 0 while W - 1
    worker processes run the others, each sending its share's rows back in
    one message; the rows are then put back in job order. At W = 1 no
    process starts. A worker's exception is raised here, caused by a
    ``RuntimeError`` that holds the worker's traceback; a worker that exits
    without sending raises ``RuntimeError`` naming its exit code.
    Every worker is joined before this returns or raises, and terminated
    first on a failure.
    """
    sweep_jobs = expand_sweep(grid)
    total, cpus = len(sweep_jobs), os.cpu_count() or 1
    workers = max(1, min(jobs, total, cpus))
    if workers < jobs:
        logger.info("sweep: --jobs %d capped at %d workers (%d jobs, %d CPUs)",
                    jobs, workers, total, cpus)
    every = -(-total // 10)  # at most ten progress lines
    done, t0 = 0, time.perf_counter()

    def progress(n: int) -> None:
        nonlocal done
        before, done = done, done + n
        if done // every > before // every or done == total:
            rate = done / (time.perf_counter() - t0)
            logger.info("sweep: %d/%d jobs done, %.0f jobs/s", done, total, rate)

    shares = [sweep_jobs[i::workers] for i in range(workers)]
    results, children = [[]], []
    if workers > 1:
        sys.stdout.flush()  # a forked worker flushes the buffers it inherits
        sys.stderr.flush()
    try:
        for share in shares[1:]:
            recv, send = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_share_worker, args=(send, grid, share, cfg))
            child.start()
            children.append((child, recv))
            send.close()  # the worker holds the only write end, so its exit ends recv
        for job in shares[0]:
            results[0].append(run_sweep_job(grid, job, cfg))
            progress(1)
        for i, (child, recv) in enumerate(children, 1):
            try:
                message = recv.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"sweep worker {i} exited with code {child.exitcode} before sending its rows"
                ) from None
            if isinstance(message, tuple):
                exc, trace = message
                raise exc from RuntimeError(f"in sweep worker {i}:\n{trace}")
            results.append(message)
            progress(len(message))
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, recv in children:
            child.join()
            recv.close()
    all_rows = [row for k in range(total) for row in results[k % workers][k // workers]]
    statuses = sorted(collections.Counter(r["status"] for r in all_rows).items())
    logger.info("sweep: %d rows: %s", len(all_rows), ", ".join(f"{c} {s}" for s, c in statuses))
    return all_rows


def cmd_sweep(args) -> int:
    started = _now()
    try:
        grid = load_sweep(args.sweep)
        if args.seed is not None:
            grid = replace(grid, base_seed=args.seed)
    except (OSError, ValueError, KeyError, CocogenError) as exc:
        print(f"error: invalid sweep file: {exc}", file=sys.stderr)
        return EXIT_INPUT
    cfg = _solver_config_from_args(args)
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise UnwritableOutput(
            f"-o/--out-dir: cannot make directory {args.out_dir!r}: {exc.strerror or exc}"
        ) from None

    rows = run_sweep(grid, cfg, jobs=args.jobs)
    ok = sum(1 for r in rows if r["status"] == "ok")
    if ok == 0:
        print("error: every sweep job failed", file=sys.stderr)
        return EXIT_FAILED

    flag = "-o/--out-dir"
    results_path = os.path.join(args.out_dir, "results.csv")
    _write_rows_csv(results_path, SWEEP_COLUMNS, rows, flag)

    agg = _aggregate(rows)
    agg_columns = (
        "gamma_level", "alpha_d", "scheme", "n",
        "welfare_mean", "welfare_std", "mean_d_gen_mean", "mean_d_gen_std",
    )
    _write_rows_csv(os.path.join(args.out_dir, "aggregate.csv"), agg_columns, agg, flag)
    fig3 = [r for r in agg if r["scheme"] == "CoCoGen"]
    _write_rows_csv(os.path.join(args.out_dir, "fig3_cocogen.csv"), agg_columns, fig3, flag)
    fig4_columns = ("gamma_level", "alpha_d", "scheme", "n", "welfare_mean", "welfare_std")
    _write_rows_csv(os.path.join(args.out_dir, "fig4_schemes.csv"), fig4_columns, agg, flag)

    manifest = _manifest(args, [args.sweep], args.seed, started, (cfg, grid.economy.bb_mode))
    for name in ("results.csv", "aggregate.csv", "fig3_cocogen.csv", "fig4_schemes.csv"):
        _write_text(
            os.path.join(args.out_dir, name + ".manifest.json"),
            _json_text({"manifest": manifest, "for_file": name}),
            flag,
        )
    print(f"wrote {len(rows)} rows ({ok} ok) to {results_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def cmd_compare(args) -> int:
    started = _now()
    try:
        s = _load_scenario_for_args(args, args.seed)
    except (OSError, ValueError, KeyError, CocogenError) as exc:
        print(f"error: invalid scenario: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        check_radg_count(args.radg_reps, s.n, "--radg-reps")
    except CocogenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    cfg = _solver_config_from_args(args)

    rows, wco = scheme_rows(s, cfg, s.seed, args.radg_reps)
    failed = [r for r in rows if r["status"] != "ok"]
    for r in failed:
        print(f"error: {r['scheme']}: {r['status']}", file=sys.stderr)
    if failed:
        return EXIT_FAILED

    header = f"{'scheme':<8} {'welfare':>16} {'mean_d_gen':>12} {'ir_all':>7} {'bb_sum':>14} {'conv':>5}"
    print(header)
    print("-" * len(header))
    for r in rows:
        print(
            f"{r['scheme']:<8} {r['welfare']:>16.6f} {r['mean_d_gen']:>12.2f} "
            f"{str(r['ir_all']).lower():>7} {r['bb_sum']:>14.6g} "
            f"{str(r['converged']).lower():>5}"
        )
    clone_welfare = replace(wco, scenario=baselines.wco_scenario(s)).welfare
    print(f"(WCO welfare under its zero-competition clone: {clone_welfare:.6f})")
    if args.out:
        columns = ("scheme", "welfare", "mean_d_gen", "ir_all", "bb_sum", "converged")
        _write_rows_csv(args.out, columns, rows, "-o/--out")
        manifest = _manifest(
            args, [args.scenario], args.seed, started, (cfg, s.economy.bb_mode)
        )
        _write_text(args.out + ".manifest.json", _json_text({"manifest": manifest}), "-o/--out")
    if not rows[0]["converged"] and not args.allow_nonconverged:
        return EXIT_NONCONVERGED
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _solver_field(name: str, convert):
    """argparse type for a flag that sets ``SolverConfig.<name>``: the value
    must pass the config's own check, so a bad one is a usage error (exit 2)
    that names the flag."""

    def parse(text: str):
        value = convert(text)
        try:
            solver.SolverConfig(**{name: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid float value" wording
    return parse


def _jobs_flag(text: str) -> int:
    """argparse type for ``--jobs``: a count below 1 is a usage error (exit 2)
    that names the flag."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("jobs must be >= 1")
    return value


_jobs_flag.__name__ = "int"  # argparse's "invalid int value" wording


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--tol", type=_solver_field("tol", float), default=1e-9,
        help="stop when the bracket on the equilibrium's mean local error is at most tol wide",
    )
    p.add_argument("--max-iters", type=_solver_field("max_iters", int), default=500)


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    """The flags of a command that solves one scenario file: its payoff mode,
    and whether a solve that does not converge still exits 0."""
    p.add_argument("--payoff-mode", choices=("literal", "antisymmetric"), default=None)
    p.add_argument("--allow-nonconverged", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the four subcommands; ``command`` names the one given."""
    parser = argparse.ArgumentParser(
        prog="cocogen",
        description="Coopetitive data-generation equilibria: fit, solve, sweep, compare.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit an error law to a learning-curve CSV")
    p_fit.add_argument("curve", help="CSV with header d,eps")
    p_fit.add_argument("-o", "--out", default="fit.json")

    p_solve = sub.add_parser("solve", help="solve one scenario to equilibrium")
    p_solve.add_argument("scenario")
    p_solve.add_argument("-o", "--out", default=None)
    p_solve.add_argument("--trace", default=None, help="write iteration,F CSV here")
    p_solve.add_argument("--verify-ne", action="store_true")
    _add_solver_flags(p_solve)
    _add_scenario_flags(p_solve)

    p_sweep = sub.add_parser("sweep", help="run the full scheme-comparison sweep")
    p_sweep.add_argument("sweep")
    p_sweep.add_argument("-o", "--out-dir", default="sweep-out")
    p_sweep.add_argument("--jobs", type=_jobs_flag, default=os.cpu_count() or 1)
    p_sweep.add_argument("--seed", type=int, default=None, help="replaces the file's base_seed")
    _add_solver_flags(p_sweep)

    p_cmp = sub.add_parser("compare", help="all four schemes on one scenario")
    p_cmp.add_argument("scenario")
    p_cmp.add_argument("-o", "--out", default=None)
    p_cmp.add_argument("--radg-reps", type=int, default=100)
    p_cmp.add_argument(
        "--seed", type=int, default=None, help="replaces the scenario's seed, which keys the RaDG draws"
    )
    _add_solver_flags(p_cmp)
    _add_scenario_flags(p_cmp)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process, built on the first ``main`` call; parsing
    leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    """Run one subcommand and return its exit code; ``argv`` defaults to
    ``sys.argv[1:]``.

    The ``cmd_<command>`` function is looked up in this module on each call,
    so a name rebound after the first call is the one that runs. A package
    error that the command does not handle exits 2 with its type and
    message.
    """
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _shared_parser().parse_args(argv)
    args.argv = argv  # recorded in the manifest
    try:
        return globals()[f"cmd_{args.command}"](args)
    except CocogenError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

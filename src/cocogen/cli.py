"""Command-line entry point: fit, solve, sweep, and compare.

Exit codes: 0 success, 1 a ``compare`` scheme row that failed or a sweep
whose every job failed, 2 unusable input (a sweep with no valid scenario
too) or output path, or a JSON output holding a non-finite number (and any
package error a command does not handle), 3 curve fit with too few points
or no feasible offset.
All numeric CSV fields carry 17 significant digits; result CSVs are plain
RFC 4180 bodies with the run manifest in a JSON sidecar next to them. Every
manifest records the command line and the Python and numpy versions and CPU
count that ran it; that of a command that solves also records the payoff
mode it solved under. Every command solves with the default
``SolverConfig``.
"""

from __future__ import annotations

import argparse
import collections
import csv
import functools
import io
import logging
import math
import multiprocessing
import os
import platform
import stat
import sys
import time
import traceback
from dataclasses import asdict, replace
from datetime import datetime, timezone

import numpy as np

from . import __version__, baselines, economics, game, scaling, solver
from .errors import CocogenError, InsufficientPoints, NonPositiveShifted, UnwritableOutput
from .model import PayoffMode, Scenario, _scenario_file_fields, check_seed, json_text
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
# The cell summaries' columns; fig4_schemes.csv has the first six.
AGGREGATE_COLUMNS = (
    "gamma_level", "alpha_d", "scheme", "n",
    "welfare_mean", "welfare_std", "mean_d_gen_mean", "mean_d_gen_std",
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
    started at ``started``, finished now. ``solved`` is the PayoffMode of a
    command that solves."""
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
        out["payoff_mode"] = solved.value
    return out


def _csv_text(header, rows) -> str:
    """An RFC 4180 body: the header, then every row's fields through ``_fmt``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    return buf.getvalue()


def _table_text(columns, rows) -> str:
    """The CSV body of the ``columns`` of dict ``rows``."""
    return _csv_text(columns, ([r[c] for c in columns] for r in rows))


def _write_text(path, text: str, flag: str) -> None:
    """Write one output file in one call; a path that cannot be written is
    reported against the flag that gave it. A regular file is cut to the new
    length after the write, which costs less than emptying it on open."""
    data = text.encode("utf-8")
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            fh.write(data)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate(len(data))
    except OSError as exc:
        raise UnwritableOutput(f"{flag}: cannot write {str(path)!r}: {exc.strerror or exc}") from None


class _BadInput(Exception):
    """An input file that cannot be read or a flag value that is refused;
    ``main`` prints ``error: `` and the message and exits 2."""


def _checked(prefix: str, call, *args):
    """``call(*args)``; an input it cannot read or refuses is raised as a
    ``_BadInput`` whose message is ``prefix`` and then the error's."""
    try:
        return call(*args)
    except (OSError, ValueError, CocogenError) as exc:
        raise _BadInput(f"{prefix}{exc}") from None


def _load_scenario_for_args(args, seed: int | None = None):
    """The scenario file under ``--payoff-mode`` and ``seed``, if given: the
    whole file is read, the flags set their fields, and one Scenario is built."""
    fields = _scenario_file_fields(args.scenario)
    if seed is not None:
        fields["seed"] = seed
    if args.payoff_mode is not None:
        fields["economy"] = replace(fields["economy"], bb_mode=PayoffMode(args.payoff_mode))
    return Scenario(**fields)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    started = _now()
    points = _checked("cannot read curve file: ", scaling.read_curve_csv, args.curve)
    try:
        result = scaling.fit_scaling_law(points)
    except (InsufficientPoints, NonPositiveShifted) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FIT
    payload = asdict(result)
    payload["manifest"] = _manifest(args, [args.curve], None, started)
    _write_text(args.out, json_text(payload, "-o/--out"), "-o/--out")
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
    s = _checked("invalid scenario: ", _load_scenario_for_args, args)
    report = solver.fpi_solve(s)
    if args.verify_ne:
        report = replace(report, ne_certificate=solver.verify_ne(s, report.profile))
    manifest = _manifest(args, [args.scenario], None, started, s.economy.bb_mode)
    payload = {"manifest": manifest, **report.to_dict()}
    text = json_text(payload, "-o/--out" if args.out else "stdout")
    if args.out:
        _write_text(args.out, text, "-o/--out")
    else:
        sys.stdout.write(text)
    if args.trace:
        trace = _csv_text(["iteration", "F"], enumerate(report.potential_trace))
        _write_text(args.trace, trace, "--trace")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _realized_gamma_bar(gamma: np.ndarray) -> float:
    n = gamma.shape[0]
    return float(gamma.sum() / (n * (n - 1))) if n > 1 else 0.0


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


def _mean(values, total) -> float:
    """``total(values)`` over their count. Where the sum of finite values
    passes the float range, it is taken of them scaled by ``2**-e`` and
    scaled back, so that their mean comes out finite."""
    with np.errstate(over="ignore"):
        try:
            mean = total(values) / len(values)
        except OverflowError:  # math.fsum's
            mean = math.inf
    if math.isinf(mean):
        e = len(values).bit_length() + 1
        mean = math.ldexp(total(np.ldexp(values, -e)) / len(values), e)
    return mean


def scheme_rows(
    s, radg_seed: int, radg_count: int
) -> tuple[list[dict], economics.ProfileMatrixEvaluation]:
    """The CoCoGen, VCFL, WCO and RaDG rows for one scenario, in that order.

    CoCoGen's game and WCO's zero-competition game share the scenario's
    columns and differ only in F's linear coefficient, so both are solved
    as the two rows of one ``solver.solve_games`` call. WCO's coefficient
    fails where some ``psi_n`` is 0 (its weight ``-psi_n`` is not negative);
    its row then gets the status ``error:<Type>`` and its game stays out of
    the solve. Nothing else here raises a ``CocogenError``: a valid scenario
    has negative weights ``z`` and positive totals ``d_loc + d_min``, so
    CoCoGen's ``-c/z`` is a plain division and the solve prices only in-box
    volumes. The profiles and the RaDG draws are priced as one matrix;
    ``evaluate_profiles`` prices each row as if alone, bit for bit. Also
    returns that pricing, in row order: CoCoGen, VCFL, WCO if it was
    solved, then the RaDG draws.
    """
    lin, wco_error = [game._linear_coeffs(s)], None
    try:
        lin.append(baselines.wco_linear_coeffs(s))
    except CocogenError as exc:
        wco_error = exc
    reports = solver._equilibria(s, np.array(lin))
    # CoCoGen, VCFL and, if it was solved, WCO: their profiles and verdicts.
    solved = [reports[0].profile.d_gen, baselines.vcfl_profile(s).d_gen]
    solved += [r.profile.d_gen for r in reports[1:]]
    converged = [reports[0].converged, True] + [r.converged for r in reports[1:]]
    k = len(solved)
    profiles = np.concatenate([solved, baselines.radg_profiles(s, radg_seed, radg_count)])
    ev = economics.evaluate_profiles(s, profiles)
    # Each row's mean volume and verdict in one call; means are sums over
    # counts, np.mean's bits without its wrapper.
    mean_d = profiles.sum(axis=1) / s.n
    ir_all = ev.ir.all(axis=1)
    rows = list(map(_ok_row, SCHEMES[:k], ev.welfare[:k].tolist(), mean_d[:k].tolist(),
                    ir_all[:k].tolist(), ev.bb_sum[:k].tolist(), converged))
    if wco_error is not None:
        rows.append(_failed_row("WCO", wco_error))
    rows.append(_ok_row("RaDG", _mean(ev.welfare[k:], np.add.reduce),
                        mean_d[k:].sum() / radg_count, ir_all[k:].all(),
                        _mean(ev.bb_sum[k:], np.add.reduce), True))
    return rows, ev


def run_sweep_job(grid: SweepGrid, job: SweepJob) -> list[dict]:
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
    rows, _ = scheme_rows(s, job.seed, grid.radg_repetitions)
    return [{**base, **r, "realized_gamma_bar": gbar} for r in rows]


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
    try:
        return math.ldexp(r | (rem > 0 or r * r != a), e)
    except OverflowError:  # a spread beyond the float range
        return math.inf


def _aggregate(rows):
    """Per-cell, per-scheme mean and sample standard deviation of each
    ``welfare`` and ``mean_d_gen``, over the rows whose status is ``ok``."""
    groups: dict[tuple, list[dict]] = {}
    for r in rows:
        if r["status"] == "ok":
            groups.setdefault((r["gamma_level"], r["alpha_d"], r["scheme"]), []).append(r)
    out = []
    for (gl, ad, scheme), members in sorted(groups.items()):
        cell = {"gamma_level": gl, "alpha_d": ad, "scheme": scheme, "n": len(members)}
        for name in ("welfare", "mean_d_gen"):
            values = [r[name] for r in members]
            cell[f"{name}_mean"] = _mean(values, math.fsum)  # statistics.fmean
            cell[f"{name}_std"] = _stdev(values) if len(values) > 1 else 0.0
        out.append(cell)
    return out


def _share_worker(conn, grid: SweepGrid, share: list[SweepJob]) -> None:
    """A worker process's target: run one share of the sweep's jobs and send
    their rows (a list), or the exception that stopped them and its
    formatted traceback (a tuple), in one message."""
    try:
        message = [run_sweep_job(grid, job) for job in share]
    except Exception as exc:
        message = (exc, traceback.format_exc())
    conn.send(message)
    conn.close()


def run_sweep(grid: SweepGrid, jobs: int = 1):
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
        # Forked workers inherit the loaded package as it is, patches included.
        context = multiprocessing.get_context("fork")
    try:
        for share in shares[1:]:
            recv, send = context.Pipe(duplex=False)
            child = context.Process(target=_share_worker, args=(send, grid, share))
            child.start()
            children.append((child, recv))
            send.close()  # the worker holds the only write end, so its exit ends recv
        for job in shares[0]:
            results[0].append(run_sweep_job(grid, job))
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
    grid = _checked("invalid sweep file: ", load_sweep, args.sweep)
    if args.seed is not None:
        grid = replace(grid, base_seed=args.seed)
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise UnwritableOutput(
            f"-o/--out-dir: cannot make directory {args.out_dir!r}: {exc.strerror or exc}"
        ) from None

    rows = run_sweep(grid, jobs=args.jobs)
    ok = sum(1 for r in rows if r["status"] == "ok")
    if ok == 0:
        if all(r["status"] == "error:ScenarioValidationError" for r in rows):
            # No scenario was valid: the first job's refusal names the fields.
            first = expand_sweep(grid)[0]
            _checked("every sweep job's scenario is invalid, the first with ",
                     sample_scenario, grid, first.cell, first.seed)
        print("error: every sweep job failed", file=sys.stderr)
        return EXIT_FAILED

    agg = _aggregate(rows)
    outputs = (
        ("results.csv", SWEEP_COLUMNS, rows),
        ("aggregate.csv", AGGREGATE_COLUMNS, agg),
        ("fig3_cocogen.csv", AGGREGATE_COLUMNS, [r for r in agg if r["scheme"] == "CoCoGen"]),
        ("fig4_schemes.csv", AGGREGATE_COLUMNS[:6], agg),
    )
    # Every text is built before the first is written, so a refused sidecar
    # leaves no file behind; the CSVs go first, then their sidecars.
    flag = "-o/--out-dir"
    manifest = _manifest(args, [args.sweep], args.seed, started, grid.economy.bb_mode)
    texts = [(name, _table_text(columns, table)) for name, columns, table in outputs]
    texts += [(name + ".manifest.json", json_text({"manifest": manifest, "for_file": name}, flag))
              for name, _, _ in outputs]
    for name, text in texts:
        _write_text(os.path.join(args.out_dir, name), text, flag)
    print(f"wrote {len(rows)} rows ({ok} ok) to {os.path.join(args.out_dir, 'results.csv')}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def cmd_compare(args) -> int:
    started = _now()
    s = _checked("invalid scenario: ", _load_scenario_for_args, args, args.seed)
    _checked("", check_radg_count, args.radg_reps, s.n, "--radg-reps")

    rows, ev = scheme_rows(s, s.seed, args.radg_reps)
    failed = [r for r in rows if r["status"] != "ok"]
    for r in failed:
        print(f"error: {r['scheme']}: {r['status']}", file=sys.stderr)
    if failed:
        return EXIT_FAILED

    # Welfare as the CSV writes it: 24 characters hold any float's .17g.
    header = f"{'scheme':<8} {'welfare':>24} {'mean_d_gen':>12} {'ir_all':>7} {'bb_sum':>14} {'conv':>5}"
    print(header)
    print("-" * len(header))
    for r in rows:
        print(
            f"{r['scheme']:<8} {_fmt(r['welfare']):>24} {r['mean_d_gen']:>12.2f} "
            f"{str(r['ir_all']).lower():>7} {r['bb_sum']:>14.6g} "
            f"{str(r['converged']).lower():>5}"
        )
    # The zero-competition clone's welfare at WCO's profile: its transfers and
    # loss are 0, and the rest is subtracted in the utility's order.
    clone_welfare = economics._column_sums(ev.revenue[2:3] - ev.cost[2:3] - ev.server_fee)[0]
    print(f"(WCO welfare under its zero-competition clone: {_fmt(clone_welfare)})")
    if args.out:
        columns = ("scheme", "welfare", "mean_d_gen", "ir_all", "bb_sum", "converged")
        manifest = _manifest(args, [args.scenario], args.seed, started, s.economy.bb_mode)
        sidecar = json_text({"manifest": manifest}, "-o/--out")
        _write_text(args.out, _table_text(columns, rows), "-o/--out")
        _write_text(args.out + ".manifest.json", sidecar, "-o/--out")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _jobs_flag(text: str) -> int:
    """argparse type for ``--jobs``: a count below 1 is a usage error (exit 2)
    that names the flag."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("jobs must be >= 1")
    return value


_jobs_flag.__name__ = "int"  # argparse's "invalid int value" wording


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

    p_sweep = sub.add_parser("sweep", help="run the full scheme-comparison sweep")
    p_sweep.add_argument("sweep")
    p_sweep.add_argument("-o", "--out-dir", default="sweep-out")
    p_sweep.add_argument("--jobs", type=_jobs_flag, default=os.cpu_count() or 1)
    p_sweep.add_argument("--seed", type=int, default=None, help="replaces the file's base_seed")

    p_cmp = sub.add_parser("compare", help="all four schemes on one scenario")
    p_cmp.add_argument("scenario")
    p_cmp.add_argument("-o", "--out", default=None)
    p_cmp.add_argument("--radg-reps", type=int, default=100)
    p_cmp.add_argument(
        "--seed", type=int, default=None, help="replaces the scenario's seed, which keys the RaDG draws"
    )
    for p in (p_solve, p_cmp):
        p.add_argument("--payoff-mode", choices=("literal", "antisymmetric"), default=None)
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
    so a name rebound after the first call is the one that runs. A
    ``--seed`` is checked before the command reads any file. An input that
    cannot be read or a refused flag exits 2 with ``error: `` and its
    message; any other package error that the command does not handle exits
    2 with its type and message.
    """
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _shared_parser().parse_args(argv)
    args.argv = argv  # recorded in the manifest
    try:
        if getattr(args, "seed", None) is not None:
            _checked("", check_seed, args.seed, "--seed")
        return globals()[f"cmd_{args.command}"](args)
    except _BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CocogenError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

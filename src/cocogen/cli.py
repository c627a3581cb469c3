"""Command-line entry point: fit, solve, sweep, and compare.

Exit codes: 0 success, 2 unusable input, 3 degenerate or infeasible curve
fit, 4 solver non-convergence (suppressed by ``--allow-nonconverged``).
All numeric CSV fields carry 17 significant digits; result CSVs are plain
RFC 4180 bodies with the run manifest in a JSON sidecar next to them.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import functools
import json
import logging
import math
import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from datetime import datetime, timezone

import numpy as np

from . import __version__, baselines, economics, scaling, solver
from .errors import (
    CocogenError,
    DegenerateFit,
    InstanceTooLarge,
    InsufficientPoints,
    NonPositiveShifted,
)
from .model import PayoffMode, load_scenario, validate_scenario, with_payoff_mode
from .scenario import (
    PRNG_ID,
    SweepGrid,
    SweepJob,
    expand_sweep,
    load_sweep,
    sample_scenario,
)

__all__ = ["main"]

logger = logging.getLogger("cocogen")

EXIT_OK = 0
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


@dataclass(frozen=True)
class RunManifest:
    command: str
    config_paths: tuple[str, ...]
    seed: int | None
    tool_version: str
    prng_id: str
    started: str
    finished: str

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "config_paths": list(self.config_paths),
            "seed": self.seed,
            "tool_version": self.tool_version,
            "prng_id": self.prng_id,
            "started": self.started,
            "finished": self.finished,
        }


class _ManifestClock:
    def __init__(self, command: str, config_paths, seed=None):
        self.command = command
        self.config_paths = tuple(str(p) for p in config_paths)
        self.seed = seed
        self.started = datetime.now(timezone.utc).isoformat()

    def finish(self) -> RunManifest:
        return RunManifest(
            command=self.command,
            config_paths=self.config_paths,
            seed=self.seed,
            tool_version=__version__,
            prng_id=PRNG_ID,
            started=self.started,
            finished=datetime.now(timezone.utc).isoformat(),
        )


def _json_text(payload: dict) -> str:
    """The indented JSON document and its final newline, built in memory so
    that it reaches the file in one write."""
    return json.dumps(payload, indent=2) + "\n"


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(payload))


def _solver_config_from_args(args) -> solver.SolverConfig:
    return solver.SolverConfig(tol=args.tol, max_iters=args.max_iters)


def _load_scenario_for_args(args):
    s = load_scenario(args.scenario)
    if args.payoff_mode is not None:
        s = with_payoff_mode(s, PayoffMode(args.payoff_mode))
    if args.seed is not None:
        s = replace(s, seed=args.seed)
    return validate_scenario(s)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    clock = _ManifestClock("fit", [args.curve], seed=None)
    try:
        points = scaling.read_curve_csv(args.curve)
    except (OSError, ValueError, CocogenError) as exc:
        print(f"error: cannot read curve file: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        result = scaling.fit_scaling_law(points)
    except (InsufficientPoints, DegenerateFit, NonPositiveShifted) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FIT
    payload = result.to_dict()
    payload["manifest"] = clock.finish().to_dict()
    _write_json(args.out, payload)
    print(
        f"fitted alpha={result.law.alpha:.6g} beta={result.law.beta:.6g} "
        f"delta={result.law.delta:.6g} rmse={result.rmse:.3e}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    clock = _ManifestClock("solve", [args.scenario], seed=args.seed)
    try:
        s = _load_scenario_for_args(args)
    except (OSError, ValueError, KeyError, CocogenError) as exc:
        print(f"error: invalid scenario: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = solver.fpi_solve(s, _solver_config_from_args(args))
    if args.verify_ne:
        try:
            cert = solver.verify_ne(s, report.profile)
        except InstanceTooLarge as exc:
            print(f"error: --verify-ne: {exc}", file=sys.stderr)
            return EXIT_INPUT
        report = replace(report, ne_certificate=cert)
    payload = {"manifest": clock.finish().to_dict(), **report.to_dict()}
    if args.out:
        _write_json(args.out, payload)
    else:
        sys.stdout.write(_json_text(payload))
    if args.trace:
        with open(args.trace, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "F"])
            for i, f_val in enumerate(report.potential_trace):
                writer.writerow([i, _fmt(f_val)])
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

    The CoCoGen, VCFL and WCO profiles and the RaDG draws are priced as one
    profile matrix; ``evaluate_profiles`` prices each row as if alone, bit
    for bit. A failed CoCoGen or WCO solve gives its row the status
    ``error:<Type>`` and is left out of the matrix. Also returns the WCO
    solve's report on the zero-competition clone (None if that solve
    failed), priced on that clone when first read.
    """
    # Scheme -> (profile, converged), or the error that stopped its solve.
    solved: dict[str, tuple | CocogenError] = {}
    try:
        rep = solver.fpi_solve(s, cfg)
        solved["CoCoGen"] = (rep.profile.d_gen, rep.converged)
    except CocogenError as exc:
        solved["CoCoGen"] = exc
    solved["VCFL"] = (baselines.vcfl_profile(s).d_gen, True)
    wco = None
    try:
        wco = baselines.wco_solve(s, cfg)
        solved["WCO"] = (wco.profile.d_gen, wco.converged)
    except CocogenError as exc:
        solved["WCO"] = exc

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
    return rows, wco


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


def _job_worker(payload):
    grid, job, cfg = payload
    return run_sweep_job(grid, job, cfg)


def _write_rows_csv(path, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for r in rows:
            writer.writerow([_fmt(r[c]) for c in columns])


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


def run_sweep(grid: SweepGrid, cfg: solver.SolverConfig, jobs: int = 1):
    """Execute every sweep job; the row order is independent of scheduling."""
    payloads = [(grid, job, cfg) for job in expand_sweep(grid)]
    every = -(-len(payloads) // 10)  # at most ten progress lines
    all_rows, t0 = [], time.perf_counter()
    with ProcessPoolExecutor(jobs) if jobs > 1 else contextlib.nullcontext() as pool:
        results = map(_job_worker, payloads) if pool is None else pool.map(
            _job_worker, payloads, chunksize=4
        )
        for i, rows in enumerate(results, 1):
            all_rows.extend(rows)
            if i % every == 0 or i == len(payloads):
                rate = i / (time.perf_counter() - t0)
                logger.info("sweep: %d/%d jobs done, %.0f jobs/s", i, len(payloads), rate)
    statuses = sorted(collections.Counter(r["status"] for r in all_rows).items())
    logger.info("sweep: %d rows: %s", len(all_rows), ", ".join(f"{c} {s}" for s, c in statuses))
    return all_rows


def cmd_sweep(args) -> int:
    clock = _ManifestClock("sweep", [args.sweep], seed=args.seed)
    try:
        grid = load_sweep(args.sweep)
        if args.seed is not None:
            grid = replace(grid, base_seed=args.seed)
    except (OSError, ValueError, KeyError, CocogenError) as exc:
        print(f"error: invalid sweep file: {exc}", file=sys.stderr)
        return EXIT_INPUT
    cfg = _solver_config_from_args(args)
    os.makedirs(args.out_dir, exist_ok=True)

    rows = run_sweep(grid, cfg, jobs=args.jobs)
    ok = sum(1 for r in rows if r["status"] == "ok")
    if ok == 0:
        print("error: every sweep job failed", file=sys.stderr)
        return 1

    results_path = os.path.join(args.out_dir, "results.csv")
    _write_rows_csv(results_path, SWEEP_COLUMNS, rows)

    agg = _aggregate(rows)
    agg_columns = (
        "gamma_level", "alpha_d", "scheme", "n",
        "welfare_mean", "welfare_std", "mean_d_gen_mean", "mean_d_gen_std",
    )
    _write_rows_csv(os.path.join(args.out_dir, "aggregate.csv"), agg_columns, agg)
    fig3 = [r for r in agg if r["scheme"] == "CoCoGen"]
    _write_rows_csv(os.path.join(args.out_dir, "fig3_cocogen.csv"), agg_columns, fig3)
    fig4_columns = ("gamma_level", "alpha_d", "scheme", "n", "welfare_mean", "welfare_std")
    _write_rows_csv(os.path.join(args.out_dir, "fig4_schemes.csv"), fig4_columns, agg)

    manifest = clock.finish().to_dict()
    for name in ("results.csv", "aggregate.csv", "fig3_cocogen.csv", "fig4_schemes.csv"):
        _write_json(
            os.path.join(args.out_dir, name + ".manifest.json"),
            {"manifest": manifest, "for_file": name},
        )
    print(f"wrote {len(rows)} rows ({ok} ok) to {results_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def cmd_compare(args) -> int:
    clock = _ManifestClock("compare", [args.scenario], seed=args.seed)
    try:
        s = _load_scenario_for_args(args)
    except (OSError, ValueError, KeyError, CocogenError) as exc:
        print(f"error: invalid scenario: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.radg_reps < 1:
        print("error: --radg-reps must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    cfg = _solver_config_from_args(args)

    rows, wco = scheme_rows(s, cfg, s.seed, args.radg_reps)
    failed = [r for r in rows if r["status"] != "ok"]
    for r in failed:
        print(f"error: {r['scheme']}: {r['status']}", file=sys.stderr)
    if failed:
        return 1

    header = f"{'scheme':<8} {'welfare':>16} {'mean_d_gen':>12} {'ir_all':>7} {'bb_sum':>14} {'conv':>5}"
    print(header)
    print("-" * len(header))
    for r in rows:
        print(
            f"{r['scheme']:<8} {r['welfare']:>16.6f} {r['mean_d_gen']:>12.2f} "
            f"{str(r['ir_all']).lower():>7} {r['bb_sum']:>14.6g} "
            f"{str(r['converged']).lower():>5}"
        )
    print(f"(WCO welfare under its zero-competition clone: {wco.welfare:.6f})")
    if args.out:
        columns = ("scheme", "welfare", "mean_d_gen", "ir_all", "bb_sum", "converged")
        _write_rows_csv(args.out, columns, rows)
        _write_json(args.out + ".manifest.json", {"manifest": clock.finish().to_dict()})
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


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--tol", type=_solver_field("tol", float), default=1e-9,
        help="stop when the bracket on the equilibrium's mean local error is at most tol wide",
    )
    p.add_argument("--max-iters", type=_solver_field("max_iters", int), default=500)
    p.add_argument("--payoff-mode", choices=("literal", "antisymmetric"), default=None)
    p.add_argument("--seed", type=int, default=None)
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

    p_sweep = sub.add_parser("sweep", help="run the full scheme-comparison sweep")
    p_sweep.add_argument("sweep")
    p_sweep.add_argument("-o", "--out-dir", default="sweep-out")
    p_sweep.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    _add_solver_flags(p_sweep)

    p_cmp = sub.add_parser("compare", help="all four schemes on one scenario")
    p_cmp.add_argument("scenario")
    p_cmp.add_argument("-o", "--out", default=None)
    p_cmp.add_argument("--radg-reps", type=int, default=100)
    _add_solver_flags(p_cmp)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process, built on the first ``main`` call; parsing
    leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.

    The ``cmd_<command>`` function is looked up in this module on each call,
    so a name rebound after the first call is the one that runs.
    """
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    args = _shared_parser().parse_args(argv)
    return globals()[f"cmd_{args.command}"](args)


if __name__ == "__main__":
    sys.exit(main())

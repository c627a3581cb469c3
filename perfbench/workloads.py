"""The three benchmark workloads: inputs from a seed, units, and gates.

Each workload writes its inputs from the workload seed alone (the program
sees only those files), loads them the way the program's users do, and runs
one *cycle*: a fixed, ordered list of units. A unit is a sweep job, a
certify instance or a CLI request. Every unit passes through a correctness
gate; a unit that raises, exits non-zero or fails its gate counts as failed.
See README.md for why each workload exists and which layers it stresses.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

MASK64 = (1 << 64) - 1
C_CMP = 0.3438 / 3.6e6  # the program's default price per joule
ETA_MU = 1.79e20  # the shipped sweep's cost calibration
SHIPPED_LAW = {"alpha": 21.2, "beta": 0.52, "delta": 0.12}


def _rng(seed: int, tag: int) -> np.random.Generator:
    key = np.array([seed & MASK64, tag], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def table1_scenario_dict(rng, n, cost_scale=1.0, eps0_fixed=False, seed=0) -> dict:
    """A scenario file drawn from the published parameter ranges."""
    gamma = rng.uniform(0.0, 1.0, size=(n, n))
    np.fill_diagonal(gamma, 0.0)
    d_loc = rng.integers(1000, 3000, size=n, endpoint=True)
    f = rng.uniform(1.0, 2.0, size=n)
    kappa = rng.uniform(2e-18, 5e-18, size=n)
    psi = rng.uniform(600.0, 900.0, size=n)
    phi = rng.uniform(200.0, 300.0, size=n)
    return {
        "organizations": [
            {
                "d_loc": int(d_loc[i]),
                "f": float(f[i]),
                "kappa": float(kappa[i]),
                "eta": ETA_MU * cost_scale,
                "mu": ETA_MU * cost_scale,
                "c_cmp": C_CMP,
                "psi": float(psi[i]),
                "law": dict(SHIPPED_LAW),
            }
            for i in range(n)
        ],
        "market": {
            "gamma": gamma.tolist(),
            "xi": 20.0,
            "phi": phi.tolist(),
        },
        "economy": {
            "varrho": 20.0,
            "c0": 0.0,
            "eps0_mode": "fixed" if eps0_fixed else "at_zero_generation",
            "eps0_value": 1.0 if eps0_fixed else None,
            "bb_mode": "literal",
        },
        "bounds": {"d_min": 0, "d_max": 3000},
        "seed": int(seed),
    }


@dataclass
class CycleResult:
    units: int = 0
    failed: int = 0
    wall_s: float = 0.0
    unit_ms: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def add(self, other: "CycleResult") -> None:
        self.units += other.units
        self.failed += other.failed
        self.wall_s += other.wall_s
        self.unit_ms.extend(other.unit_ms)
        self.errors.extend(other.errors)


def _cli_main(argv) -> int:
    """One in-process CLI request; its stdout is kept off the benchmark's."""
    from cocogen import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


# ---------------------------------------------------------------------------
# Correctness gates. Each returns a list of failure reasons; empty means pass.
# ---------------------------------------------------------------------------


def sweep_gate(csv_text: str, expected_jobs: int) -> dict[tuple, list[str]]:
    """Per-job failures in a sweep ``results.csv`` (all four scheme rows)."""
    jobs: dict[tuple, list[str]] = {}
    schemes: dict[tuple, list[str]] = {}
    for r in csv.DictReader(io.StringIO(csv_text)):
        key = (r.get("gamma_level"), r.get("alpha_d"), r.get("repetition"))
        reasons = jobs.setdefault(key, [])
        schemes.setdefault(key, []).append(r.get("scheme"))
        if r.get("status") != "ok":
            reasons.append(f"{r.get('scheme')} status {r.get('status')}")
        try:
            welfare = float(r.get("welfare", "nan"))
        except ValueError:
            welfare = math.nan
        if not math.isfinite(welfare):
            reasons.append(f"{r.get('scheme')} welfare not finite")
        if r.get("scheme") == "CoCoGen" and r.get("converged") != "true":
            reasons.append("CoCoGen not converged")
    for key, reasons in jobs.items():
        if sorted(schemes[key]) != ["CoCoGen", "RaDG", "VCFL", "WCO"]:
            reasons.append(f"scheme rows {schemes[key]}")
    missing = expected_jobs - len(jobs)
    for k in range(max(0, missing)):
        jobs[("missing", k)] = ["job missing from results.csv"]
    return jobs


ORACLE_F_GAP = 1e-6  # acceptance criterion 4: relative potential gap
ORACLE_OFFSET = 1.0  # acceptance criterion 4: samples


def oracle_gate(f_fpi, f_min, profile_fpi, profile_oracle) -> list[str]:
    gap = abs(f_fpi - f_min) / (1.0 + abs(f_min))
    offset = float(np.max(np.abs(np.asarray(profile_fpi) - np.asarray(profile_oracle))))
    reasons = []
    if not gap <= ORACLE_F_GAP:
        reasons.append(f"relative F gap {gap:.3e}")
    if not offset <= ORACLE_OFFSET:
        reasons.append(f"profile offset {offset}")
    return reasons


def ne_gate(converged: bool, is_ne: bool) -> list[str]:
    reasons = []
    if not converged:
        reasons.append("fpi_solve did not converge")
    if not is_ne:
        reasons.append("verify_ne found a profitable deviation")
    return reasons


def solve_gate(code: int, report_text: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    payload = json.loads(report_text)
    if not _finite(payload.get("welfare")):
        return ["welfare not finite"]
    return []


def compare_gate(code: int, csv_text: str) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    reasons = []
    if [r.get("scheme") for r in rows] != ["CoCoGen", "VCFL", "WCO", "RaDG"]:
        reasons.append("scheme rows missing")
    for r in rows:
        try:
            welfare = float(r.get("welfare", "nan"))
        except ValueError:
            welfare = math.nan
        if not math.isfinite(welfare):
            reasons.append(f"{r.get('scheme')} welfare not finite")
    return reasons


FIT_TOLERANCE = 1e-6  # acceptance criterion 8: noiseless recovery


def fit_gate(code: int, fit_text: str, truth: dict | None) -> list[str]:
    """A noiseless curve must fit back to its law; a noisy one must fit."""
    if code != 0:
        return [f"exit code {code}"]
    law = json.loads(fit_text)["law"]
    if not all(_finite(law.get(k)) for k in ("alpha", "beta", "delta")):
        return ["fitted law not finite"]
    if truth is None:
        return []
    reasons = []
    for k in ("alpha", "beta"):
        if abs(law[k] - truth[k]) > FIT_TOLERANCE * truth[k]:
            reasons.append(f"{k} {law[k]!r} != {truth[k]!r}")
    if abs(law["delta"] - truth["delta"]) > FIT_TOLERANCE * max(truth["delta"], 1.0):
        reasons.append(f"delta {law['delta']!r} != {truth['delta']!r}")
    return reasons


def _record(result: CycleResult, ms: float, reasons: list[str], label: str) -> None:
    result.units += 1
    result.unit_ms.append(ms)
    if reasons:
        result.failed += 1
        result.errors.append(f"{label}: {'; '.join(reasons)}")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


class Sweep:
    """The shipped 3x3 sweep grid with two repetitions, through ``cli.main``.

    Why: the north-star workload. Nearly all of its time is RaDG profile
    evaluation in ``economics``; it is the only workload that uses the
    program's process pool, and it never reaches ``kernels``.
    """

    name = "sweep"
    REPETITIONS = 2

    def __init__(self, input_dir: str, out_dir: str):
        self.input_dir = input_dir
        self.out_dir = out_dir
        self.path = os.path.join(input_dir, "sweep.json")
        self.reference: bytes | None = None

    @classmethod
    def generate(cls, input_dir: str, seed: int) -> None:
        shipped = resources.files("cocogen").joinpath("data/sweep_default.json")
        payload = json.loads(shipped.read_text(encoding="utf-8"))
        payload["repetitions"] = cls.REPETITIONS
        payload["base_seed"] = int(_rng(seed, 1).integers(0, 2**62))
        _write_json(os.path.join(input_dir, "sweep.json"), payload)

    def load(self):
        from cocogen.scenario import expand_sweep, load_sweep

        self.expected_jobs = len(expand_sweep(load_sweep(self.path)))

    def cycle_units(self) -> int:
        return self.expected_jobs

    def run_cycle(self, jobs: int = 1, job_timer=None) -> CycleResult:
        """One ``cocogen sweep`` request with the CLI's default solver flags.

        ``job_timer`` is a :class:`spans.Tracer` already installed on
        ``cli.run_sweep_job``; at ``--jobs 1`` it yields per-job latencies.
        """
        out = os.path.join(self.out_dir, f"sweep-j{jobs}")
        argv = ["sweep", self.path, "-o", out, "--jobs", str(jobs)]
        start = len(job_timer.starts) if job_timer is not None else 0
        t0 = time.perf_counter()
        try:
            code = _cli_main(argv)
        except Exception as exc:  # a crash fails every job of the request
            code = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        result = CycleResult(wall_s=wall)
        if job_timer is not None:
            result.unit_ms = [
                (job_timer.ends[i] - job_timer.starts[i]) * 1e3
                for i in range(start, len(job_timer.starts))
                if job_timer.names[i] == "cli.run_sweep_job"
            ]
        if code != 0:
            result.units = result.failed = self.expected_jobs
            result.errors.append(f"sweep --jobs {jobs}: exit {code}")
            return result
        with open(os.path.join(out, "results.csv"), "rb") as fh:
            data = fh.read()
        if self.reference is None:
            self.reference = data
        identical = data == self.reference
        for key, reasons in sweep_gate(data.decode("utf-8"), self.expected_jobs).items():
            if not identical:
                reasons = reasons + ["results.csv differs from the first run (criterion 9)"]
            result.units += 1
            if reasons:
                result.failed += 1
                result.errors.append(f"job {key}: {'; '.join(reasons)}")
        return result


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

# One block of 20 units: 6 N=1, 6 N=10, 7 N=2 and 1 N=3 instance. The
# oracle runs take about 90% of the time, so kernel work drives throughput.
# Sorted by time the kinds fill the percentiles in that order (N=1 below the
# 30th, N=10 to the 60th, N=2 to the 95th), so the median lies two thirds of
# the way into the N=10 certifications and the 90th percentile six sevenths
# of the way into the N=2 oracle runs, away from any boundary between kinds.
# A cycle is 4 blocks of distinct instances.
CERTIFY_BLOCK = (1, 10, 2, 1, 10, 2, 2, 1, 10, 2, 1, 10, 2, 2, 1, 10, 2, 1, 10, 3)
CERTIFY_BLOCKS = 4
COST_SCALES = (0.5, 1.0, 2.0, 5.0, 20.0)  # acceptance criterion 4's spread
# At cost scale 5 the N=3 oracle's time falls by up to 2.5x, by an amount
# that depends on the instance, which made a cycle's time depend on the
# seed; N=3 instances keep to the scales where it is steady.
N3_COST_SCALES = COST_SCALES[:3]


class Certify:
    """Equilibria certified against the exhaustive oracle and the NE scan.

    Why: time goes to the ``kernels`` grid scans and solver iterations while
    ``economics`` does little, so an ``economics`` change should show here as
    no change.
    """

    name = "certify"

    def __init__(self, input_dir: str, out_dir: str):
        self.input_dir = input_dir
        self.out_dir = out_dir

    @staticmethod
    def _files(input_dir):
        count = len(CERTIFY_BLOCK) * CERTIFY_BLOCKS
        return [os.path.join(input_dir, f"instance_{k:03d}.json") for k in range(count)]

    @classmethod
    def generate(cls, input_dir: str, seed: int) -> None:
        rng = _rng(seed, 2)
        per_n: dict[int, int] = {}
        for k, path in enumerate(cls._files(input_dir)):
            n = CERTIFY_BLOCK[k % len(CERTIFY_BLOCK)]
            i = per_n[n] = per_n.get(n, -1) + 1
            scales = {1: COST_SCALES, 2: COST_SCALES, 3: N3_COST_SCALES}.get(n, (1.0,))
            scale = scales[i % len(scales)]
            _write_json(path, table1_scenario_dict(rng, n, cost_scale=scale, seed=k))

    def load(self):
        from cocogen.model import load_scenario

        self.scenarios = [load_scenario(p) for p in self._files(self.input_dir)]

    def cycle_units(self) -> int:
        return len(self.scenarios)

    def run_unit(self, s) -> list[str]:
        from cocogen import game, solver

        if s.n <= 3:
            rep = solver.fpi_solve(s, solver.SolverConfig(tol=1e-13, max_iters=4000))
            res = solver.grid_oracle(s, step=1.0)
            f_fpi = game.potential(s, rep.profile)
            return oracle_gate(f_fpi, res.f_min, rep.profile.d_gen, res.profile.d_gen)
        rep = solver.fpi_solve(s, solver.SolverConfig(tol=1e-11, max_iters=2000))
        cert = solver.verify_ne(s, rep.profile, grid_step=1.0)
        return ne_gate(rep.converged, cert.is_ne)

    def run_cycle(self, tracer=None) -> CycleResult:
        result = CycleResult()
        t_cycle = time.perf_counter()
        for k, s in enumerate(self.scenarios):
            span = tracer.span("bench.unit") if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            with span:
                try:
                    reasons = self.run_unit(s)
                except Exception as exc:
                    reasons = [f"{type(exc).__name__}: {exc}"]
            _record(result, (time.perf_counter() - t0) * 1e3, reasons, f"instance {k} N={s.n}")
        result.wall_s = time.perf_counter() - t_cycle
        return result


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------

N_REQUEST_SCENARIOS = 4
N_CURVES = 4  # curves 0 and 2 are noiseless, 1 and 3 carry noise
# One cycle of 20 requests: 16 small ones (solve, solve --verify-ne, fit) put
# the median among them; the 3 literal compares are the 80th-95th percentiles,
# so the 90th percentile sits inside that group; one antisymmetric compare.
REQUEST_MIX = (
    "solve", "fit", "compare", "solve_ne", "solve", "fit", "solve_ne",
    "compare_anti", "solve", "fit", "solve_ne", "compare", "solve", "fit",
    "solve_ne", "solve", "fit", "compare", "solve_ne", "solve",
)


class Requests:
    """Single CLI requests in a fixed mix on seed-generated input files.

    Why: the latency one user sees. It is the only workload that reaches
    ``compare``'s own scheme-row code and ``scaling``, and antisymmetric
    ``compare`` takes ``economics`` down its O(N^3) path.
    """

    name = "requests"

    def __init__(self, input_dir: str, out_dir: str):
        self.input_dir = input_dir
        self.out_dir = out_dir

    @classmethod
    def generate(cls, input_dir: str, seed: int) -> None:
        rng = _rng(seed, 3)
        for i in range(N_REQUEST_SCENARIOS):
            payload = table1_scenario_dict(rng, 10, eps0_fixed=True, seed=int(rng.integers(0, 2**31)))
            _write_json(os.path.join(input_dir, f"scenario_{i}.json"), payload)
        truths = {}
        d = np.unique(np.geomspace(200, 20000, 12).astype(int))
        for j in range(N_CURVES):
            truth = {
                "alpha": float(rng.uniform(3.0, 25.0)),
                "beta": float(rng.uniform(0.3, 0.7)),
                "delta": float(rng.integers(0, 21)) / 100.0,
            }
            eps = truth["alpha"] * np.power(d.astype(float), -truth["beta"]) - truth["delta"]
            if j % 2:
                eps = eps + rng.normal(0.0, 0.005, size=eps.shape)
            else:
                truths[f"curve_{j}.csv"] = truth
            with open(os.path.join(input_dir, f"curve_{j}.csv"), "w", encoding="utf-8") as fh:
                fh.write("d,eps\n")
                for di, ei in zip(d, eps):
                    fh.write(f"{int(di)},{float(ei)!r}\n")
        # The benchmark's own record of the noiseless laws; never given to the program.
        _write_json(os.path.join(input_dir, "noiseless_truth.json"), truths)

    def load(self):
        """Parse every input file once, so that ``setup_s`` covers them; each
        request then reads its own file again, as the CLI does."""
        from cocogen.model import load_scenario
        from cocogen.scaling import read_curve_csv

        for i in range(N_REQUEST_SCENARIOS):
            load_scenario(os.path.join(self.input_dir, f"scenario_{i}.json"))
        for j in range(N_CURVES):
            read_curve_csv(os.path.join(self.input_dir, f"curve_{j}.csv"))
        with open(os.path.join(self.input_dir, "noiseless_truth.json"), encoding="utf-8") as fh:
            self.truths = json.load(fh)

    def cycle_units(self) -> int:
        return len(REQUEST_MIX)

    def requests(self):
        """The cycle as (label, argv, output path, gate) tuples."""
        out = []
        counters = {}
        for kind in REQUEST_MIX:
            k = counters.get(kind, 0)
            counters[kind] = k + 1
            target = os.path.join(self.out_dir, f"{kind}.out")
            if kind == "fit":
                name = f"curve_{k % N_CURVES}.csv"
                argv = ["fit", os.path.join(self.input_dir, name), "-o", target]
                truth = self.truths.get(name)
                gate = functools.partial(fit_gate, truth=truth)
            else:
                scenario = os.path.join(self.input_dir, f"scenario_{k % N_REQUEST_SCENARIOS}.json")
                if kind.startswith("solve"):
                    argv = ["solve", scenario, "-o", target]
                    if kind == "solve_ne":
                        argv.append("--verify-ne")
                    gate = solve_gate
                else:
                    argv = ["compare", scenario, "-o", target]
                    if kind == "compare_anti":
                        argv += ["--payoff-mode", "antisymmetric"]
                    gate = compare_gate
            out.append((f"{kind}[{k}]", argv, target, gate))
        return out

    def run_cycle(self, tracer=None) -> CycleResult:
        result = CycleResult()
        t_cycle = time.perf_counter()
        for label, argv, target, gate in self.requests():
            if os.path.exists(target):
                os.remove(target)
            t0 = time.perf_counter()
            try:
                code = _cli_main(argv)
                ms = (time.perf_counter() - t0) * 1e3
                with open(target, encoding="utf-8") as fh:
                    reasons = gate(code, fh.read())
            except Exception as exc:
                ms = (time.perf_counter() - t0) * 1e3
                reasons = [f"{type(exc).__name__}: {exc}"]
            _record(result, ms, reasons, label)
        result.wall_s = time.perf_counter() - t_cycle
        return result


WORKLOADS = {cls.name: cls for cls in (Sweep, Certify, Requests)}


def load(workload: str, input_dir: str):
    """What ``setup_s`` times in a fresh interpreter: read the input files."""
    wl = WORKLOADS[workload](input_dir, out_dir=input_dir)
    wl.load()
    return wl


def serve_client(workload, input_dir, out_dir):
    """A closed-loop client in its own interpreter, driven over stdin/stdout.

    Loads the workload once and prints ``ready``; then runs one cycle per
    line read from stdin and prints its units, failures, wall time and
    errors as one JSON line. Returns at the end of input.
    """
    os.makedirs(out_dir, exist_ok=True)
    wl = WORKLOADS[workload](input_dir, out_dir)
    wl.load()
    print("ready", flush=True)
    for _ in sys.stdin:
        c = wl.run_cycle()
        print(json.dumps([c.units, c.failed, c.wall_s, c.errors]), flush=True)

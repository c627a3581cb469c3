"""Seeded scenario sampling and the experiment sweep grid.

Reproducibility contract: all draws come from Philox4x64-10 counter-based
generators (numpy.random.Philox) keyed as (seed, family-id), one independent
stream per parameter family; uniform doubles use numpy's 53-bit mantissa
convention and integer draws use Generator.integers. Job seeds derive from
the sweep base seed XOR a splitmix64 hash of the cell content and the
repetition index, so a grid re-ordering does not change any scenario.
"""

from __future__ import annotations

import functools
import json
import struct
import threading
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import scaling
from .errors import InvariantViolation, ScenarioValidationError
from .model import (
    DEFAULT_C_CMP,
    DEFAULT_ETA,
    DEFAULT_MU,
    EconomyParams,
    Market,
    ScalingLaw,
    Scenario,
    StrategyBounds,
    _BOUNDS,
    _ECONOMY,
    _OMITTED,
    _REQUIRED,
    _array,
    _as_float,
    _as_int,
    _block,
    _check_number,
    _fields,
    _frozen,
    _non_negative,
    _positive,
    check_seed,
)

__all__ = [
    "PRNG_ID",
    "FAMILY",
    "family_stream",
    "GammaLevel",
    "SweepCell",
    "SweepGrid",
    "SweepJob",
    "sample_scenario",
    "expand_sweep",
    "stable_job_hash",
    "load_sweep",
    "sweep_from_dict",
    "default_sweep_grid",
    "MAX_RADG_ELEMENTS",
    "MAX_SWEEP_JOBS",
    "check_radg_count",
]

PRNG_ID = "philox4x64-10/numpy"

MASK64 = (1 << 64) - 1

# Under antisymmetric payoffs a job prices its RaDG draws through a
# (count, N, N) float64 product of pairwise rates and contribution gaps; this
# caps it at 128 MiB. Literal pricing allocates only (count, N) arrays.
MAX_RADG_ELEMENTS = 2**24

# The job list and every job's rows stay in memory until the sweep's CSVs are
# written, about 2.6 kB per job; this caps them near 260 MB (111 times the
# shipped preset's 900 jobs).
MAX_SWEEP_JOBS = 10**5


def check_radg_count(count: int, n_orgs: int, field: str) -> None:
    """Refuse a RaDG draw count below 1, or one whose pricing would pass
    ``MAX_RADG_ELEMENTS``, before anything is allocated."""
    if count < 1:
        raise InvariantViolation(field, "must be >= 1")
    if count * n_orgs * n_orgs > MAX_RADG_ELEMENTS:
        raise InvariantViolation(
            field,
            f"{count} draws of {n_orgs} organizations price {count * n_orgs * n_orgs} "
            f"elements (count x N^2), above the bound of {MAX_RADG_ELEMENTS}",
        )


class FAMILY:
    """Per-parameter-family stream identifiers (part of the PRNG contract)."""

    KAPPA = 1
    D_LOC = 2
    PHI = 3
    PSI = 4
    FREQ = 5
    GAMMA = 6
    RADG = 7


def family_stream(seed: int, family: int) -> np.random.Generator:
    key = np.array([seed & MASK64, family & MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


_thread = threading.local()


def _stream(seed: int, family: int) -> np.random.Generator:
    """This thread's one generator, made on first use, in a new
    ``family_stream(seed, family)``'s state, without the unused OS entropy
    that a new ``Philox`` draws; take its draws before the thread's next call.

    Each thread keeps one template of that state and rewrites only its key:
    Philox's state setter copies the arrays, so the generator's draws never
    reach the template, whose counter and buffer stay zero."""
    if not hasattr(_thread, "generator"):
        _thread.generator = np.random.Generator(np.random.Philox())
        _thread.key = np.zeros(2, np.uint64)
        _thread.state = {
            "bit_generator": "Philox", "buffer": np.zeros(4, np.uint64),
            "state": {"counter": np.zeros(4, np.uint64), "key": _thread.key},
            "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    _thread.key[0] = seed & MASK64
    _thread.key[1] = family & MASK64
    _thread.generator.bit_generator.state = _thread.state
    return _thread.generator


def _mix64(x: int) -> int:
    """splitmix64 finalizer."""
    x &= MASK64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & MASK64
    return x ^ (x >> 31)


def _float_bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", float(x)))[0]


def stable_job_hash(gamma_lo: float, gamma_hi: float, alpha_d: float, repetition: int) -> int:
    """Order-independent 64-bit hash of one sweep cell and repetition."""
    h = 0x9E3779B97F4A7C15
    for bits in (
        _float_bits(gamma_lo),
        _float_bits(gamma_hi),
        _float_bits(alpha_d),
        repetition & MASK64,
    ):
        h = _mix64(h ^ bits)
    return h


@dataclass(frozen=True)
class GammaLevel:
    lo: float
    hi: float


@dataclass(frozen=True)
class OrgDefaults:
    """Per-organization parameters not drawn from Table-style ranges."""

    eta: float = DEFAULT_ETA
    mu: float = DEFAULT_MU
    c_cmp: float = DEFAULT_C_CMP


@dataclass(frozen=True)
class SweepCell:
    gamma: GammaLevel
    alpha_d: float
    law: ScalingLaw


@dataclass(frozen=True)
class SweepGrid:
    gamma_levels: tuple[GammaLevel, ...]
    alpha_d_levels: tuple[float, ...]
    repetitions: int
    base_seed: int
    n_orgs: int = 10
    xi: float = 20.0
    org_defaults: OrgDefaults = field(default_factory=OrgDefaults)
    economy: EconomyParams = field(default_factory=EconomyParams)
    bounds: StrategyBounds = field(default_factory=StrategyBounds)
    radg_repetitions: int = 100

    def __post_init__(self):
        if self.n_orgs < 1:
            raise InvariantViolation("n_orgs", "must be >= 1")
        if self.repetitions < 1:
            raise InvariantViolation("repetitions", "must be >= 1")
        check_seed(self.base_seed, "base_seed")
        check_radg_count(self.radg_repetitions, self.n_orgs, "radg_repetitions")
        for name in ("gamma_levels", "alpha_d_levels"):
            if not getattr(self, name):
                raise InvariantViolation(name, "must not be empty")
        jobs = len(self.gamma_levels) * len(self.alpha_d_levels) * self.repetitions
        if jobs > MAX_SWEEP_JOBS:
            raise InvariantViolation(
                "repetitions", f"the grid has {jobs} jobs, more than {MAX_SWEEP_JOBS}"
            )
        for i, lv in enumerate(self.gamma_levels):
            if not (0 <= lv.lo <= lv.hi <= 1):
                raise InvariantViolation(
                    f"gamma_levels[{i}]", f"need 0 <= lo <= hi <= 1, got lo={lv.lo}, hi={lv.hi}"
                )
        # The blocks every job's scenario shares; the checks that depend on
        # the draws (xi <= min(phi), the game weights) stay with each job.
        violations = self.economy._violations() + self.bounds._violations()
        _check_number(violations, "xi", self.xi, _non_negative, "must be >= 0")
        for name in ("eta", "mu", "c_cmp"):
            value = getattr(self.org_defaults, name)
            _check_number(violations, f"org_defaults.{name}", value, _positive, "must be > 0")
        if violations:
            raise ScenarioValidationError(violations)


@dataclass(frozen=True)
class SweepJob:
    gamma_index: int
    repetition: int
    cell: SweepCell
    seed: int


@functools.lru_cache(maxsize=16)
def _constant_columns(n: int, defaults: OrgDefaults, law: ScalingLaw) -> tuple[np.ndarray, ...]:
    """The read-only eta, mu, c_cmp, alpha, beta and delta columns that the
    scenarios of a cell share."""
    values = (defaults.eta, defaults.mu, defaults.c_cmp, law.alpha, law.beta, law.delta)
    return tuple(_frozen(np.full(n, v, dtype=np.float64)) for v in values)


def sample_scenario(grid: SweepGrid, cell: SweepCell, seed: int) -> Scenario:
    """Draw one complete scenario for a sweep cell, deterministically."""
    n = grid.n_orgs
    kappa = _stream(seed, FAMILY.KAPPA).uniform(2e-18, 5e-18, size=n)
    d_loc = _stream(seed, FAMILY.D_LOC).integers(1000, 3000, size=n, endpoint=True)
    phi = _stream(seed, FAMILY.PHI).uniform(2e2, 3e2, size=n)
    psi = _stream(seed, FAMILY.PSI).uniform(6e2, 9e2, size=n)
    freq = _stream(seed, FAMILY.FREQ).uniform(1.0, 2.0, size=n)
    # n*n gamma uniforms drawn row-major; the diagonal is forced to zero.
    gamma = _stream(seed, FAMILY.GAMMA).uniform(cell.gamma.lo, cell.gamma.hi, size=(n, n))
    np.fill_diagonal(gamma, 0.0)
    d_loc = d_loc.astype(np.float64)
    for drawn in (kappa, d_loc, phi, psi, freq, gamma):
        drawn.setflags(write=False)  # fresh, so the scenario keeps it without a copy

    eta, mu, c_cmp, alpha, beta, delta = _constant_columns(n, grid.org_defaults, cell.law)
    return Scenario(
        d_loc=d_loc,
        f=freq,
        kappa=kappa,
        eta=eta,
        mu=mu,
        c_cmp=c_cmp,
        psi=psi,
        alpha=alpha,
        beta=beta,
        delta=delta,
        market=Market(gamma=gamma, xi=grid.xi, phi=phi),
        economy=grid.economy,
        bounds=grid.bounds,
        seed=seed,
    )


def _preset_laws(alpha_d_levels) -> dict[float, ScalingLaw]:
    """The error-law presets by heterogeneity level; raises for the first
    level that has none."""
    presets = scaling.heterogeneity_presets()
    for alpha_d in alpha_d_levels:
        if alpha_d not in presets:
            raise InvariantViolation("alpha_d_levels", f"no heterogeneity preset for {alpha_d!r}")
    return presets


def expand_sweep(grid: SweepGrid) -> list[SweepJob]:
    """Deterministic job list: cartesian product of levels and repetitions."""
    presets = _preset_laws(grid.alpha_d_levels)
    jobs: list[SweepJob] = []
    for gi, level in enumerate(grid.gamma_levels):
        for alpha_d in grid.alpha_d_levels:
            cell = SweepCell(gamma=level, alpha_d=alpha_d, law=presets[alpha_d])
            for rep in range(grid.repetitions):
                seed = grid.base_seed ^ stable_job_hash(level.lo, level.hi, alpha_d, rep)
                jobs.append(
                    SweepJob(
                        gamma_index=gi,
                        repetition=rep,
                        cell=cell,
                        seed=seed,
                    )
                )
    return jobs


# ---------------------------------------------------------------------------
# Sweep definition file (JSON), strict keys.
# ---------------------------------------------------------------------------


def _alpha_d_levels(value, where: str) -> tuple[float, ...]:
    """The heterogeneity levels; each one needs an error-law preset."""
    levels = _array(_as_float)(value, where)
    _preset_laws(levels)
    return levels


_SWEEP = {
    "gamma_levels": (
        _array(_block({"lo": (_as_float, _REQUIRED), "hi": (_as_float, _REQUIRED)}, GammaLevel)),
        _REQUIRED,
    ),
    "org_defaults": (
        _block({key: (_as_float, _OMITTED) for key in ("eta", "mu", "c_cmp")}, OrgDefaults),
        _OMITTED,
    ),
    "alpha_d_levels": (_alpha_d_levels, _REQUIRED),
    "repetitions": (_as_int, _REQUIRED),
    "base_seed": (_as_int, _REQUIRED),
    "n_orgs": (_as_int, _OMITTED),
    "xi": (_as_float, _OMITTED),
    "radg_repetitions": (_as_int, _OMITTED),
    "economy": (_ECONOMY, _OMITTED),
    "bounds": (_BOUNDS, _OMITTED),
}


def sweep_from_dict(obj: dict) -> SweepGrid:
    return SweepGrid(**_fields(obj, _SWEEP, "sweep"))


def load_sweep(path) -> SweepGrid:
    with open(path, "r", encoding="utf-8") as fh:
        return sweep_from_dict(json.load(fh))


def default_sweep_grid() -> SweepGrid:
    """The shipped sweep preset (competitive-intensity x heterogeneity)."""
    ref = resources.files("cocogen").joinpath("data/sweep_default.json")
    return sweep_from_dict(json.loads(ref.read_text(encoding="utf-8")))

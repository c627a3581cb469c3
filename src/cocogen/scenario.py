"""Seeded scenario sampling and the experiment sweep grid.

Reproducibility contract: all draws come from Philox4x64-10 counter-based
generators (numpy.random.Philox) keyed as (seed, family-id), one independent
stream per parameter family; uniform doubles use numpy's 53-bit mantissa
convention and integer draws use Generator.integers. Job seeds derive from
the sweep base seed XOR a splitmix64 hash of the cell content and the
repetition index, so a grid re-ordering does not change any scenario.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import scaling
from .errors import InvariantViolation
from .model import (
    DEFAULT_C_CMP,
    EconomyParams,
    Market,
    ScalingLaw,
    Scenario,
    StrategyBounds,
    _as_float,
    _as_int,
    _bounds_from_dict,
    _check_keys,
    _economy_from_dict,
    _require,
    _require_list,
    validate_scenario,
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
]

PRNG_ID = "philox4x64-10/numpy"

MASK64 = (1 << 64) - 1


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

    def _violations(self):
        if not (0 <= self.lo <= self.hi <= 1):
            raise InvariantViolation("gamma_level", f"need 0 <= lo <= hi <= 1, got {self}")


@dataclass(frozen=True)
class OrgDefaults:
    """Per-organization parameters not drawn from Table-style ranges."""

    eta: float
    mu: float
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
    org_defaults: OrgDefaults = field(
        default_factory=lambda: OrgDefaults(eta=1.0e4, mu=1.0e4)
    )
    economy: EconomyParams = field(default_factory=EconomyParams)
    bounds: StrategyBounds = field(default_factory=StrategyBounds)
    radg_repetitions: int = 100

    def __post_init__(self):
        if self.n_orgs < 1:
            raise InvariantViolation("n_orgs", "must be >= 1")
        if self.repetitions < 1:
            raise InvariantViolation("repetitions", "must be >= 1")
        if self.radg_repetitions < 1:
            raise InvariantViolation("radg_repetitions", "must be >= 1")
        for lv in self.gamma_levels:
            lv._violations()


@dataclass(frozen=True)
class SweepJob:
    gamma_index: int
    alpha_index: int
    repetition: int
    cell: SweepCell
    seed: int


def sample_scenario(grid: SweepGrid, cell: SweepCell, seed: int) -> Scenario:
    """Draw one complete scenario for a sweep cell, deterministically."""
    n = grid.n_orgs
    kappa = family_stream(seed, FAMILY.KAPPA).uniform(2e-18, 5e-18, size=n)
    d_loc = family_stream(seed, FAMILY.D_LOC).integers(1000, 3000, size=n, endpoint=True)
    phi = family_stream(seed, FAMILY.PHI).uniform(2e2, 3e2, size=n)
    psi = family_stream(seed, FAMILY.PSI).uniform(6e2, 9e2, size=n)
    freq = family_stream(seed, FAMILY.FREQ).uniform(1.0, 2.0, size=n)
    # n*n gamma uniforms drawn row-major; the diagonal is forced to zero.
    gamma = family_stream(seed, FAMILY.GAMMA).uniform(
        cell.gamma.lo, cell.gamma.hi, size=(n, n)
    )
    np.fill_diagonal(gamma, 0.0)

    defaults, law = grid.org_defaults, cell.law
    s = Scenario(
        d_loc=d_loc,
        f=freq,
        kappa=kappa,
        eta=np.full(n, defaults.eta),
        mu=np.full(n, defaults.mu),
        c_cmp=np.full(n, defaults.c_cmp),
        psi=psi,
        alpha=np.full(n, law.alpha),
        beta=np.full(n, law.beta),
        delta=np.full(n, law.delta),
        market=Market(gamma=gamma, xi=grid.xi, phi=phi),
        economy=grid.economy,
        bounds=grid.bounds,
        seed=seed,
    )
    return validate_scenario(s)


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
        for ai, alpha_d in enumerate(grid.alpha_d_levels):
            cell = SweepCell(gamma=level, alpha_d=alpha_d, law=presets[alpha_d])
            for rep in range(grid.repetitions):
                seed = (
                    grid.base_seed ^ stable_job_hash(level.lo, level.hi, alpha_d, rep)
                ) & MASK64
                jobs.append(
                    SweepJob(
                        gamma_index=gi,
                        alpha_index=ai,
                        repetition=rep,
                        cell=cell,
                        seed=seed,
                    )
                )
    return jobs


# ---------------------------------------------------------------------------
# Sweep definition file (JSON), strict keys.
# ---------------------------------------------------------------------------


def sweep_from_dict(obj: dict) -> SweepGrid:
    _check_keys(
        obj,
        (
            "gamma_levels",
            "alpha_d_levels",
            "repetitions",
            "base_seed",
            "n_orgs",
            "xi",
            "org_defaults",
            "economy",
            "bounds",
            "radg_repetitions",
        ),
        "sweep",
    )
    levels = []
    for i, raw in enumerate(_require_list(obj, "gamma_levels", "sweep")):
        where = f"gamma_levels[{i}]"
        _check_keys(raw, ("lo", "hi"), where)
        levels.append(
            GammaLevel(
                lo=_as_float(_require(raw, "lo", where), f"{where}.lo"),
                hi=_as_float(_require(raw, "hi", where), f"{where}.hi"),
            )
        )
    raw_defaults = obj.get("org_defaults", {})
    _check_keys(raw_defaults, ("eta", "mu", "c_cmp"), "org_defaults")
    defaults = OrgDefaults(
        eta=_as_float(raw_defaults.get("eta", 1.0e4), "org_defaults.eta"),
        mu=_as_float(raw_defaults.get("mu", 1.0e4), "org_defaults.mu"),
        c_cmp=_as_float(raw_defaults.get("c_cmp", DEFAULT_C_CMP), "org_defaults.c_cmp"),
    )
    alpha_d_levels = tuple(
        _as_float(x, f"alpha_d_levels[{i}]")
        for i, x in enumerate(_require_list(obj, "alpha_d_levels", "sweep"))
    )
    _preset_laws(alpha_d_levels)
    return SweepGrid(
        gamma_levels=tuple(levels),
        alpha_d_levels=alpha_d_levels,
        repetitions=_as_int(_require(obj, "repetitions", "sweep"), "repetitions"),
        base_seed=_as_int(_require(obj, "base_seed", "sweep"), "base_seed"),
        n_orgs=_as_int(obj.get("n_orgs", 10), "n_orgs"),
        xi=_as_float(obj.get("xi", 20.0), "xi"),
        org_defaults=defaults,
        economy=_economy_from_dict(obj.get("economy", {})),
        bounds=_bounds_from_dict(obj.get("bounds", {})),
        radg_repetitions=_as_int(obj.get("radg_repetitions", 100), "radg_repetitions"),
    )


def load_sweep(path) -> SweepGrid:
    with open(path, "r", encoding="utf-8") as fh:
        return sweep_from_dict(json.load(fh))


def default_sweep_grid() -> SweepGrid:
    """The shipped sweep preset (competitive-intensity x heterogeneity)."""
    ref = resources.files("cocogen").joinpath("data/sweep_default.json")
    return sweep_from_dict(json.loads(ref.read_text(encoding="utf-8")))

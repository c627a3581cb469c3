"""Comparison schemes: no generation, competition-blind, and random."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import solver
from .model import Market, Scenario, StrategyProfile, _accept, _weight_violations, validate_scenario
from .scenario import FAMILY, family_stream

__all__ = [
    "vcfl_profile",
    "wco_scenario",
    "wco_solve",
    "radg_profiles",
]


def vcfl_profile(s: Scenario) -> StrategyProfile:
    """No data generation: every organization sits at the lower bound."""
    return StrategyProfile(np.full(s.n, float(s.bounds.d_min)))


def wco_scenario(s: Scenario) -> Scenario:
    """Validated clone of the (validated) scenario with all competitive
    intensities zeroed.

    The clone shares the source's columns, economy and bounds, and its
    zeroed market passes every market check, so only the game weights need
    checking again: with no competition, ``z_n = -psi_n``.
    """
    validate_scenario(s)
    gamma = np.zeros_like(s.market.gamma)
    clone = replace(s, market=Market(gamma=gamma, xi=s.market.xi, phi=s.market.phi))
    return _accept(clone, _weight_violations(clone))


def wco_solve(s: Scenario, cfg: solver.SolverConfig | None = None) -> solver.SolveReport:
    """Solve with competition ignored: the equilibrium of the zero-competition
    clone, whose report is priced on that clone. The comparison prices the
    profile under the original market."""
    return solver.fpi_solve(wco_scenario(s), cfg)


def radg_profiles(s: Scenario, seed: int, count: int) -> np.ndarray:
    """(count, N) float matrix of independent integer-uniform profiles, one
    row per draw, from one seeded stream."""
    rng = family_stream(seed, FAMILY.RADG)
    draws = rng.integers(s.bounds.d_min, s.bounds.d_max, size=(count, s.n), endpoint=True)
    return draws.astype(np.float64)


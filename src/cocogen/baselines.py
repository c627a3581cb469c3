"""Comparison schemes: no generation, competition-blind, and random."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import economics, solver
from .model import Market, Scenario, StrategyProfile, validate_scenario
from .scenario import FAMILY, family_stream

__all__ = [
    "vcfl_profile",
    "wco_scenario",
    "wco_solve",
    "WcoOutcome",
    "radg_profile",
    "radg_profiles",
]


def vcfl_profile(s: Scenario) -> StrategyProfile:
    """No data generation: every organization sits at the lower bound."""
    return StrategyProfile(np.full(s.n, float(s.bounds.d_min)))


def wco_scenario(s: Scenario) -> Scenario:
    """Clone of the scenario with all competitive intensities zeroed."""
    gamma = np.zeros_like(np.asarray(s.market.gamma))
    clone = replace(s, market=Market(gamma=gamma, xi=s.market.xi, phi=s.market.phi))
    return validate_scenario(clone)


@dataclass(frozen=True)
class WcoOutcome:
    """Competition-blind solve, plus its value in the real competitive market."""

    clone_report: solver.SolveReport
    evaluation_original: economics.ProfileEvaluation

    @property
    def profile(self) -> StrategyProfile:
        return self.clone_report.profile

    @property
    def welfare_original(self) -> float:
        return self.evaluation_original.welfare


def wco_solve(s: Scenario, cfg: solver.SolverConfig | None = None) -> WcoOutcome:
    """Solve with competition ignored, then price the profile under the
    original market (the comparison figure)."""
    clone = wco_scenario(s)
    report = solver.fpi_solve(clone, cfg)
    return WcoOutcome(
        clone_report=report,
        evaluation_original=economics.evaluate_profile(s, report.profile),
    )


def radg_profiles(s: Scenario, seed: int, count: int) -> np.ndarray:
    """(count, N) float matrix of independent integer-uniform profiles, one
    row per draw, from one seeded stream."""
    rng = family_stream(seed, FAMILY.RADG)
    draws = rng.integers(s.bounds.d_min, s.bounds.d_max, size=(count, s.n), endpoint=True)
    return draws.astype(np.float64)


def radg_profile(s: Scenario, seed: int) -> StrategyProfile:
    """Independent integer-uniform generation volumes, deterministic in seed."""
    return StrategyProfile(radg_profiles(s, seed, 1)[0])

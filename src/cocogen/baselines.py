"""Comparison schemes: no generation, competition-blind, and random."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import game, solver
from .errors import ScenarioValidationError
from .model import Market, Scenario, StrategyProfile, _weight_violations
from .scenario import FAMILY, _stream

__all__ = [
    "vcfl_profile",
    "wco_scenario",
    "wco_linear_coeffs",
    "wco_solve",
    "radg_profiles",
]


def vcfl_profile(s: Scenario) -> StrategyProfile:
    """No data generation: every organization sits at the lower bound."""
    return StrategyProfile(np.full(s.n, float(s.bounds.d_min)))


def wco_scenario(s: Scenario) -> Scenario:
    """Clone of the scenario with all competitive intensities zeroed.

    The clone shares the source's columns, economy and bounds, and is
    validated like any scenario: with no competition ``z_n = -psi_n``, so it
    is refused where some ``psi_n`` is 0.
    """
    gamma = np.zeros_like(s.market.gamma)
    return replace(s, market=Market(gamma=gamma, xi=s.market.xi, phi=s.market.phi))


def wco_linear_coeffs(s: Scenario) -> np.ndarray:
    """F's linear coefficient in the zero-competition game on the
    scenario's own columns, ``c_n / psi_n``, from the clone's weights
    ``z_n = -psi_n``, with no clone built; the same bits as the clone's.
    Raises what :func:`wco_scenario` raises when a weight is not negative."""
    z = -s.psi
    violations = _weight_violations(z)
    if violations:
        raise ScenarioValidationError(violations)
    return game._linear_coeffs(s, z)


def wco_solve(s: Scenario, cfg: solver.SolverConfig | None = None) -> solver.SolveReport:
    """Solve with competition ignored: the equilibrium of the zero-competition
    clone, whose report is priced on that clone. The comparison prices the
    profile under the original market."""
    return solver.fpi_solve(wco_scenario(s), cfg)


def radg_profiles(s: Scenario, seed: int, count: int) -> np.ndarray:
    """(count, N) float matrix of independent integer-uniform profiles, one
    row per draw, from the stream ``family_stream(seed, FAMILY.RADG)``."""
    rng = _stream(seed, FAMILY.RADG)
    draws = rng.integers(s.bounds.d_min, s.bounds.d_max, size=(count, s.n), endpoint=True)
    return draws.astype(np.float64)


"""Comparison schemes: no generation, competition-blind, and random."""

from __future__ import annotations

import numpy as np

from . import game, solver
from .errors import ScenarioValidationError
from .model import Scenario, StrategyProfile, _weight_violations
from .scenario import FAMILY, _stream

__all__ = [
    "vcfl_profile",
    "wco_linear_coeffs",
    "wco_solve",
    "radg_profiles",
]


def vcfl_profile(s: Scenario) -> StrategyProfile:
    """No data generation: every organization sits at the lower bound."""
    return StrategyProfile(np.full(s.n, float(s.bounds.d_min)))


def wco_linear_coeffs(s: Scenario) -> np.ndarray:
    """F's linear coefficient in the zero-competition game on the
    scenario's own columns, ``c_n / psi_n``: with no transfers the game
    weights are ``z_n = -psi_n``. Raises ``ScenarioValidationError``
    (``NonNegativeZWeight``) where some ``psi_n`` is 0."""
    z = -s.psi
    violations = _weight_violations(z)
    if violations:
        raise ScenarioValidationError(violations)
    return game._linear_coeffs(s, z)


def wco_solve(s: Scenario, cfg: solver.SolverConfig | None = None) -> solver.SolveReport:
    """Solve with competition ignored: the equilibrium of the
    zero-competition game on the scenario's columns, whose report is priced
    on ``s``, under the original market."""
    return solver.solve_games(s, wco_linear_coeffs(s)[None], cfg)[0]


def radg_profiles(s: Scenario, seed: int, count: int) -> np.ndarray:
    """(count, N) float matrix of independent integer-uniform profiles, one
    row per draw, from the stream ``family_stream(seed, FAMILY.RADG)``."""
    rng = _stream(seed, FAMILY.RADG)
    draws = rng.integers(s.bounds.d_min, s.bounds.d_max, size=(count, s.n), endpoint=True)
    return draws.astype(np.float64)


"""Coopetitive data-generation equilibria for cross-silo federated learning.

Models organizations' generated-data volumes as a weighted potential game,
computes Nash equilibria by a scalar root solve with integer descent on
the potential, and runs seeded scheme-comparison sweeps.
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    EconomyParams,
    Eps0Mode,
    Market,
    PayoffMode,
    ScalingLaw,
    Scenario,
    StrategyBounds,
    StrategyProfile,
    load_scenario,
    save_scenario,
)
from .solver import SolveReport, SolverConfig, fpi_solve, grid_oracle, verify_ne  # noqa: F401

"""Nash-equilibrium computation: the equilibrium solve (a scalar root in
the mean local error, then rounding and ±1 descent on the potential), an
exhaustive grid oracle, and equilibrium certification.

Each report labels every organization's coordinate as bound-pinned or
interior by the sign of the potential's coordinate gradient at the
box-projected stationary point of the root. The labels are a diagnostic:
the profile comes from the root and the descent alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import economics, game
from .errors import InstanceTooLarge, ZeroTotalData
from .game import _benefit, _growth, _stationarity, _Stationarity
from .kernels import argmin_2d, argmin_3d, build_lower_envelope
from .model import (
    ProfileLike,
    Scenario,
    StrategyProfile,
    as_dgen,
    validate_scenario,
)

__all__ = [
    "CaseLabel",
    "SolverConfig",
    "SolveReport",
    "fpi_solve",
    "grid_oracle",
    "GridOracleResult",
    "verify_ne",
    "NeCertificate",
]

class CaseLabel:
    LOWER_BOUND = "lower_bound"
    UPPER_BOUND = "upper_bound"
    INTERIOR = "interior"


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-9  # width of the final bracket on the mean local error
    max_iters: int = 500  # bracket steps

    def __post_init__(self):
        if not (self.tol > 0):
            raise ValueError("tol must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class SolveReport:
    """An equilibrium and how it was found; priced on the scenario it was
    solved on when ``utilities``, ``welfare``, ``ir`` or ``bb`` is first read."""

    profile: StrategyProfile
    cases: tuple[str, ...]
    iterations: int
    potential_trace: tuple[float, ...]
    converged: bool
    scenario: Scenario = field(compare=False, repr=False)
    ne_certificate: "NeCertificate | None" = None

    @cached_property
    def evaluation(self) -> economics.ProfileEvaluation:
        return economics.evaluate_profile(self.scenario, self.profile)

    @property
    def utilities(self) -> tuple[economics.UtilityBreakdown, ...]:
        return self.evaluation.utilities

    @property
    def welfare(self) -> float:
        return self.evaluation.welfare

    @property
    def ir(self) -> tuple[bool, ...]:
        return self.evaluation.ir

    @property
    def bb(self) -> dict:
        return {"sum": self.evaluation.bb_sum, "balanced": self.evaluation.bb_balanced}

    def to_dict(self) -> dict:
        out = {
            "profile": [float(x) for x in self.profile.d_gen],
            "cases": list(self.cases),
            "iterations": self.iterations,
            "potential_trace": [float(x) for x in self.potential_trace],
            "converged": self.converged,
            "utilities": [u.to_dict() for u in self.utilities],
            "welfare": self.welfare,
            "ir": list(self.ir),
            "bb": dict(self.bb),
        }
        if self.ne_certificate is not None:
            out["ne_certificate"] = self.ne_certificate.to_dict()
        return out


def _stationary_points(c: _Stationarity, a1: float) -> np.ndarray:
    """Closed-form unconstrained stationary value of every coordinate, given a1.

    A bracket ``factor / growth`` that overflows puts the stationary point
    below every feasible volume (it tends to ``-d_loc``); one that
    underflows to zero, or whose power overflows, puts it above every
    volume (``+inf``). Clipping handles the rest.
    """
    with np.errstate(over="ignore", divide="ignore"):
        return (c.factor / _growth(c, a1)) ** c.exponent - c.d_loc


def _labels(c: _Stationarity, a1: float) -> tuple[str, ...]:
    """Every organization's gradient-rule case label at mean local error a1."""
    d_star = _stationary_points(c, a1)
    growth = _growth(c, a1)
    with np.errstate(over="ignore"):
        lower = (d_star < c.lo) & (-_benefit(c, c.d_loc + c.lo, growth) - c.a2 >= 0)
        upper = (d_star > c.hi) & (-_benefit(c, c.d_loc + c.hi, growth) - c.a2 <= 0)
    return tuple(
        CaseLabel.LOWER_BOUND if lo else CaseLabel.UPPER_BOUND if up else CaseLabel.INTERIOR
        for lo, up in zip(lower.tolist(), upper.tolist())
    )


def _relaxed(s: Scenario, c: _Stationarity, t: float):
    """``g(t) = t - mean eps(d(t))``, the clipped stationary profile ``d(t)``
    at mean local error t, and its local errors."""
    d = np.minimum(np.maximum(_stationary_points(c, t), c.lo), c.hi)
    eps = economics._local_errors(s, d)
    return t - float(eps.sum() / s.n), d, eps  # np.mean's bits, without its wrapper


def _descend(s: Scenario, c: _Stationarity, d: np.ndarray) -> np.ndarray:
    """Move one coordinate by one sample while that strictly lowers F. The
    profile and its ±1 neighbours are priced in one batch, so that they are
    compared on values computed the same way."""
    steps = np.vstack([np.zeros(s.n), np.eye(s.n), -np.eye(s.n)])
    while True:
        rows = d + steps
        rows = rows[np.all((rows >= c.lo) & (rows <= c.hi), axis=1)]
        f = game.potential_batch(s, rows)
        k = int(np.argmin(f))  # row 0 wins ties
        if k == 0:
            return d
        d = rows[k]


def fpi_solve(s: Scenario, cfg: SolverConfig | None = None) -> SolveReport:
    """Equilibrium of the integer game: a scalar root, rounding, then descent.

    Each coordinate's clipped stationary point rises with the mean local
    error t, so ``g(t) = t - mean eps(d(t))`` is strictly increasing, with
    one root between the mean errors of the all-``d_max`` and all-``d_min``
    profiles. Illinois regula falsi, guarded by bisection, narrows that
    bracket to width ``tol`` in at most ``max_iters`` steps (else the report
    says not converged); the trace holds F at each step's profile. The case
    labels come from the last evaluated point, whose profile is rounded half
    up and then descended by ±1 moves. F is convex along every coordinate,
    so no organization gains from any unilateral lattice deviation after.
    """
    validate_scenario(s)
    cfg = cfg or SolverConfig()
    c = _stationarity(s)
    a = float(economics._local_errors(s, np.full(s.n, c.hi)).mean())
    b = float(economics._floor_errors(s).mean())
    g_a, g_b = _relaxed(s, c, a), _relaxed(s, c, b)
    point = g_a if -g_a[0] <= g_b[0] else g_b
    if g_a[0] >= 0:
        b = a
    elif g_b[0] <= 0:
        a = b
    fa, fb = g_a[0], g_b[0]
    side = 0
    trace = []
    while b - a > cfg.tol and len(trace) < cfg.max_iters:
        t = (a * fb - b * fa) / (fb - fa)
        if not a < t < b:
            t = 0.5 * (a + b)
        point = _relaxed(s, c, t)
        g_t, d, eps = point
        trace.append(float(game.potential_from_errors(s, eps, d)))
        if g_t < 0:
            a, fa = t, g_t
            if side < 0:
                fb *= 0.5
            side = -1
        elif g_t > 0:
            b, fb = t, g_t
            if side > 0:
                fa *= 0.5
            side = 1
        else:
            a = b = t

    _, d, eps = point
    return SolveReport(
        profile=StrategyProfile(_descend(s, c, np.floor(d + 0.5))),
        cases=_labels(c, float(eps.mean())),
        iterations=len(trace),
        potential_trace=tuple(trace),
        converged=b - a <= cfg.tol,
        scenario=s,
    )


# ---------------------------------------------------------------------------
# Exhaustive grid oracle. The potential factorizes over coordinates as
#   F(d) = exp(-1/varrho) * prod_n exp(eps_n(d_n) / (N varrho)) + sum_n w_n d_n,
# so the innermost axis of the 3-d scan reduces exactly to a lower-envelope
# query; the 2-d scan is a plain full scan. See cocogen.kernels.
# ---------------------------------------------------------------------------

MAX_ORACLE_ORGS = 3
MAX_POINTS_PER_AXIS = 3001


@dataclass(frozen=True)
class GridOracleResult:
    profile: StrategyProfile
    f_min: float


def _axis_arrays(s: Scenario, values: np.ndarray, n: int):
    eps = economics._own_errors(s, n, values)
    g = np.exp(eps / (s.n * s.economy.varrho))
    return g, game._linear_coeffs(s)[n] * values


def grid_oracle(s: Scenario, step: float = 1.0) -> GridOracleResult:
    """Exhaustively minimize the potential over the strategy lattice.

    Ties break toward the lexicographically smallest profile. The reported
    minimum re-evaluates the winning profile through :func:`game.potential`
    so it is directly comparable with solver output.
    """
    validate_scenario(s)
    if s.n > MAX_ORACLE_ORGS:
        raise InstanceTooLarge(f"grid oracle supports N <= {MAX_ORACLE_ORGS}, got {s.n}")
    lo, hi = float(s.bounds.d_min), float(s.bounds.d_max)
    count = int(math.floor((hi - lo) / step)) + 1
    if count > MAX_POINTS_PER_AXIS:
        raise InstanceTooLarge(
            f"{count} points per axis exceeds the {MAX_POINTS_PER_AXIS} guard"
        )
    values = lo + step * np.arange(count)
    if np.any(s.d_loc + values[0] <= 0):
        raise ZeroTotalData("grid includes a zero-total-data point")

    b = math.exp(-1.0 / s.economy.varrho)
    g0, lin0 = _axis_arrays(s, values, 0)
    bg0 = b * g0
    if s.n == 1:
        f = bg0 + lin0
        i = int(np.argmin(f))
        idx = (i,)
    elif s.n == 2:
        g1, lin1 = _axis_arrays(s, values, 1)
        _, i, j = argmin_2d(bg0, lin0, g1, lin1)
        idx = (i, j)
    else:
        g1, lin1 = _axis_arrays(s, values, 1)
        g2, lin2 = _axis_arrays(s, values, 2)
        env = build_lower_envelope(g2, lin2)
        _, i, j, k = argmin_3d(bg0, lin0, g1, lin1, env)
        idx = (i, j, k)

    profile = np.array([values[i] for i in idx])
    return GridOracleResult(
        profile=StrategyProfile(profile), f_min=game.potential(s, profile)
    )


# ---------------------------------------------------------------------------
# Equilibrium certification by exhaustive unilateral deviation scan.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NeCertificate:
    is_ne: bool
    worst_org: int
    worst_d_alt: float
    worst_gain: float

    def to_dict(self) -> dict:
        return {
            "is_ne": self.is_ne,
            "worst_deviation": {
                "org": self.worst_org,
                "d_alt": self.worst_d_alt,
                "gain": self.worst_gain,
            },
        }


NE_IMPROVEMENT_TOLERANCE = 1e-6
MAX_NE_POINTS_PER_AXIS = 10**7  # the scan holds several float arrays this long


def _deviation_gains(s: Scenario, d: np.ndarray, xs: np.ndarray):
    """Each organization's gain from every unilateral move to a volume in
    ``xs``, one array per organization in turn.

    Organization n's gain from moving to x is
    ``A_n * (err(x, d_-n) - err(d)) - c_n * (x - d_n)``, with A_n from
    :func:`game._deviation_weights` and c_n the marginal cost of one sample.
    ``err(d)`` comes from the same ``exp`` call as the deviations' errors,
    so the null deviation gains exactly 0.0.
    """
    eps = economics._local_errors(s, d)
    weights = game._deviation_weights(s, eps)
    costs = economics._marginal_costs(s)
    total = eps.sum()
    for n in range(s.n):
        eps_n = economics._own_errors(s, n, np.append(xs, d[n]))
        err = np.exp(((total - eps[n] + eps_n) / s.n - 1.0) / s.economy.varrho)
        # Adding the cost term keeps the null deviation's 0.0 unsigned.
        yield weights[n] * (err[:-1] - err[-1]) + costs[n] * (d[n] - xs)


def verify_ne(s: Scenario, profile: ProfileLike, grid_step: float = 1.0) -> NeCertificate:
    """Scan every unilateral lattice deviation for a profitable improvement;
    a box too large for the scan is refused before any allocation."""
    d = as_dgen(profile, s.n)
    lo, hi = float(s.bounds.d_min), float(s.bounds.d_max)
    count = int(math.floor((hi - lo) / grid_step)) + 1
    if count > MAX_NE_POINTS_PER_AXIS:
        raise InstanceTooLarge(
            f"bounds.d_max: {count} points per axis exceed the NE scan's {MAX_NE_POINTS_PER_AXIS}"
        )
    xs = lo + grid_step * np.arange(count)
    utilities = economics.evaluate_profiles(s, d[None, :]).utility[0].tolist()
    worst_gain = -math.inf
    worst_org = 0
    worst_alt = float(d[0])
    is_ne = True
    for n, gains in enumerate(_deviation_gains(s, d, xs)):
        k = int(np.argmax(gains))
        if gains[k] > worst_gain:
            worst_gain = float(gains[k])
            worst_org = n
            worst_alt = float(xs[k])
        if gains[k] > NE_IMPROVEMENT_TOLERANCE * (1.0 + abs(utilities[n])):
            is_ne = False
    return NeCertificate(
        is_ne=is_ne, worst_org=worst_org, worst_d_alt=worst_alt, worst_gain=worst_gain
    )

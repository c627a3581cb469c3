"""Weighted potential function of the stage game and its analysis probes.

The game's potential is

    F(d) = global_error(d) - sum_n cost_coeff_n * d_gen[n] / z_n

with per-organization weights z_n < 0. A unilateral move of organization n
changes its utility by

    U_n(alt) - U_n(cur) = A_n * (err(alt) - err(cur)) - cost_coeff_n * (alt_n - cur_n).

Under literal payoffs A_n = z_n, so U_n(alt) - U_n(cur) = z_n * (F(alt) -
F(cur)) and the game is a weighted potential game. Under antisymmetric
payoffs A_n = z_n + xi * sum_m gamma_nm * (r_m - 1), where
r_m = exp((eps_m(d_min) - eps_m(d_m)) / (N varrho)) >= 1 does not depend on
d_n but does on the others' volumes (:func:`_deviation_weights`); there the
identity holds with A_n and not with z_n. The cost coefficient includes the
per-energy price: the utility's cost term carries it, and the identities
only hold with it present.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import economics
from .errors import ConvexityViolation, NonNegativeZWeight
from .model import PayoffMode, ProfileLike, Scenario, _readonly, as_dgen

__all__ = [
    "z_weight",
    "z_weights",
    "potential",
    "potential_from_errors",
    "potential_batch",
    "potential_gradient",
    "weighted_potential_residual",
    "convexity_probe",
    "ConvexityReport",
]


def _raw_z_weights(s: Scenario) -> np.ndarray:
    """Every organization's weight, signs unchecked, computed once per
    scenario (read-only)."""

    def build():
        rates = s.market.xi - s.market.phi
        return [np.dot(row, rates) for row in s.market.gamma] - s.psi

    return s.cached("raw_z_weights", build)


def _deviation_weights(s: Scenario, eps: np.ndarray) -> np.ndarray:
    """Every organization's weight A_n on the global error change of its own
    unilateral moves, at a profile whose local errors are ``eps``.

    ``z`` under literal payoffs; under antisymmetric payoffs
    ``z + xi * gamma @ (r - 1)``, where r_m is organization m's
    counterfactual error over the global error, unchanged by n's move.
    """
    z = _raw_z_weights(s)
    if s.economy.bb_mode is not PayoffMode.ANTISYMMETRIC:
        return z
    r = np.exp((economics._floor_errors(s) - eps) / (s.n * s.economy.varrho))
    return z + s.market.xi * (s.market.gamma @ (r - 1.0))


def z_weight(s: Scenario, n: int) -> float:
    """Potential weight of organization ``n``; strictly negative by assumption."""
    z = float(_raw_z_weights(s)[n])
    if z >= 0:
        raise NonNegativeZWeight(n, z)
    return z


def z_weights(s: Scenario) -> np.ndarray:
    """Every organization's weight (read-only); raises for the first that is
    not negative."""
    z = _raw_z_weights(s)
    bad = np.flatnonzero(z >= 0)
    if bad.size:
        raise NonNegativeZWeight(int(bad[0]), float(z[bad[0]]))
    return z


def _linear_coeffs(s: Scenario) -> np.ndarray:
    """Coefficient of d_gen[n] in F: -cost_coeff_n / z_n (positive), cached."""
    return s.cached("linear_coeffs", lambda: -economics._marginal_costs(s) / z_weights(s))


def potential(s: Scenario, profile: ProfileLike) -> float:
    d = as_dgen(profile, s.n)
    return float(potential_from_errors(s, economics.local_errors(s, d), d))


def potential_from_errors(s: Scenario, eps: np.ndarray, d: np.ndarray):
    """F at the profile ``d``, or at each row of an (m, N) matrix of them,
    whose local errors ``eps`` (same shape) are already known."""
    return economics._aggregate(s, eps) + np.dot(d, _linear_coeffs(s))


def potential_batch(s: Scenario, profiles: np.ndarray) -> np.ndarray:
    """Potential values for a (m, N) batch of profiles."""
    p = np.asarray(profiles, dtype=np.float64)
    return potential_from_errors(s, economics._local_errors(s, p), p)


@dataclass(frozen=True)
class _Stationarity:
    """Per-scenario constants of the stationarity closed forms: read-only
    float64 columns, one entry per organization, and the box."""

    a2: np.ndarray  # cost coefficient over the game weight (negative)
    factor: np.ndarray  # -a2 * N * varrho / (alpha * beta)
    exponent: np.ndarray  # -1 / (beta + 1)
    benefit: np.ndarray  # alpha * beta / (N * varrho)
    benefit_exponent: np.ndarray  # -beta - 1
    d_loc: np.ndarray
    varrho: float
    lo: float
    hi: float


def _stationarity(s: Scenario) -> _Stationarity:
    varrho = s.economy.varrho
    alphas, betas = s.alpha, s.beta
    a2 = -_linear_coeffs(s)
    return _Stationarity(
        a2=_readonly(a2),
        factor=_readonly(-a2 * s.n * varrho / (alphas * betas)),
        exponent=_readonly(-1.0 / (betas + 1.0)),
        benefit=_readonly(alphas * betas / (s.n * varrho)),
        benefit_exponent=_readonly(-betas - 1.0),
        d_loc=s.d_loc,
        varrho=varrho,
        lo=float(s.bounds.d_min),
        hi=float(s.bounds.d_max),
    )


def _growth(c: _Stationarity, a1: float) -> float:
    """``exp((a1 - 1) / varrho)`` at mean local error a1, saturating to +inf
    instead of raising on overflow."""
    try:
        return math.exp((a1 - 1.0) / c.varrho)
    except OverflowError:
        return math.inf


def _benefit(c: _Stationarity, totals: np.ndarray, growth: float) -> np.ndarray:
    """Every organization's marginal reduction of the global error term per
    generated sample at total data ``totals``, where ``growth`` is
    :func:`_growth` of the mean local error."""
    return c.benefit * totals**c.benefit_exponent * growth


def potential_gradient(s: Scenario, profile: ProfileLike) -> np.ndarray:
    """Analytic coordinate gradient of F: minus the benefit, minus a2."""
    d = as_dgen(profile, s.n)
    c = _stationarity(s)
    growth = _growth(c, float(economics.local_errors(s, d).mean()))
    return -_benefit(c, c.d_loc + d, growth) - c.a2


def weighted_potential_residual(
    s: Scenario, profile: ProfileLike, n: int, d_alt: float
) -> float:
    """Defect of the weighted-potential identity ``dU_n = z_n dF`` for one
    unilateral deviation.

    Under literal payoffs it is zero (up to float noise) for every profile,
    organization and feasible alternative; this is the executable statement
    of the game being a weighted potential game. Under antisymmetric payoffs
    it is ``(A_n - z_n) * dErr`` (module docstring).
    """
    base = as_dgen(profile, s.n)
    alt = base.copy()
    alt[n] = float(d_alt)
    u = economics.evaluate_profiles(s, np.vstack([base, alt])).utility[:, n]
    df = potential(s, alt) - potential(s, base)
    return float(u[1] - u[0]) - z_weight(s, n) * df


@dataclass(frozen=True)
class ConvexityReport:
    trials: int
    worst_midpoint_gap: float
    worst_second_difference: float


def convexity_probe(s: Scenario, trials: int = 1000, seed: int = 0) -> ConvexityReport:
    """Randomized convexity check of F over the strategy box.

    Samples profile pairs and mixing weights, asserting midpoint convexity
    within 1e-12 * |F|, plus non-negative second differences along random
    coordinate directions. Raises :class:`ConvexityViolation` with the
    witness on failure; otherwise reports the worst margins observed.
    """
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0xC0], dtype=np.uint64)))
    lo, hi = float(s.bounds.d_min), float(s.bounds.d_max)
    # Keep totals strictly positive even when d_loc = d_min = 0.
    if lo == 0 and np.any(s.d_loc == 0):
        lo = 1.0
    p = rng.uniform(lo, hi, size=(trials, s.n))
    q = rng.uniform(lo, hi, size=(trials, s.n))
    lam = rng.uniform(0.0, 1.0, size=trials)

    f_p = potential_batch(s, p)
    f_q = potential_batch(s, q)
    mid = lam[:, None] * p + (1.0 - lam)[:, None] * q
    f_mid = potential_batch(s, mid)
    chord = lam * f_p + (1.0 - lam) * f_q
    gaps = f_mid - chord
    tol = 1e-12 * np.maximum(np.abs(f_mid), np.abs(chord))
    worst_gap = float(np.max(gaps - tol))
    if worst_gap > 0:
        k = int(np.argmax(gaps - tol))
        raise ConvexityViolation(
            f"midpoint convexity violated by {gaps[k]:.3e}",
            witness={"p": p[k].tolist(), "q": q[k].tolist(), "lam": float(lam[k])},
        )

    # Second differences along random coordinates, step sized to the box.
    h = max((hi - lo) * 1e-3, 1e-3)
    coords = rng.integers(0, s.n, size=trials)
    centers = np.clip(p, lo + h, hi - h)
    plus = centers.copy()
    minus = centers.copy()
    rows = np.arange(trials)
    plus[rows, coords] += h
    minus[rows, coords] -= h
    second = potential_batch(s, plus) - 2.0 * potential_batch(s, centers) + potential_batch(s, minus)
    worst_second = float(second.min())
    if worst_second < -1e-9:
        k = int(np.argmin(second))
        raise ConvexityViolation(
            f"negative second difference {worst_second:.3e}",
            witness={"profile": centers[k].tolist(), "coord": int(coords[k]), "step": h},
        )
    return ConvexityReport(
        trials=trials,
        worst_midpoint_gap=float(np.max(gaps)),
        worst_second_difference=worst_second,
    )

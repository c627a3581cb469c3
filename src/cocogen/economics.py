"""Pure evaluation of every economic quantity of one stage game.

All functions are pure in (scenario, profile) and reentrant. Sign
conventions follow the printed transfer formulas: the contribution gap
(global error minus the counterfactual error with the organization held at
``d_min``) is non-positive, so raw pairwise payoffs and the coopetition
loss are non-positive as well; callers see the raw signed values.

One batched core, :func:`evaluate_profiles`, computes every utility term for
an (m, N) matrix of profiles; :func:`evaluate_profile` is its one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroTotalData
from .model import (
    Eps0Mode,
    PayoffMode,
    ProfileLike,
    Scenario,
    as_dgen,
)

__all__ = [
    "ProfileMatrixEvaluation",
    "local_errors",
    "global_error",
    "epsilon_zero",
    "evaluate_profile",
    "evaluate_profiles",
    "IR_TOLERANCE",
    "BB_RELATIVE_TOLERANCE",
]

IR_TOLERANCE = 1e-9
BB_RELATIVE_TOLERANCE = 1e-6


def local_errors(s: Scenario, profile: ProfileLike) -> np.ndarray:
    """Vector of per-organization local errors at the given profile."""
    return _local_errors(s, as_dgen(profile, s.n))


def _local_errors(s: Scenario, d: np.ndarray, in_box: bool = False) -> np.ndarray:
    """Local errors of any array whose last axis runs over organizations.

    ``in_box`` skips the zero-total-data check, which no profile inside a
    validated scenario's box fails.
    """
    totals = s.d_loc + d
    if not in_box and (totals <= 0).any():
        raise ZeroTotalData("some organization has zero local plus generated data")
    return s.alpha * np.power(totals, -s.beta) - s.delta


def _own_errors(s: Scenario, n: int, d):
    """Organization ``n``'s local errors at generated volume(s) ``d``."""
    return s.alpha[n] * np.power(s.d_loc[n] + d, -s.beta[n]) - s.delta[n]


def _own_error_slopes(s: Scenario, n: int, d):
    """The derivative of organization ``n``'s local error at volume(s) ``d``."""
    return -s.alpha[n] * s.beta[n] * np.power(s.d_loc[n] + d, -s.beta[n] - 1.0)


def _floor_errors(s: Scenario) -> np.ndarray:
    """Local errors of the all-``d_min`` profile, built once per scenario.

    Local errors fall as data grows, so these are the largest in the box.
    """
    return s.cached(
        "floor_errors", lambda: _local_errors(s, np.full(s.n, float(s.bounds.d_min)))
    )


def _aggregate(s: Scenario, eps: np.ndarray):
    """Exponential aggregation of the mean over the last (organization) axis.

    The mean is the sum over the count, which is how ``np.mean`` computes
    it (same bits), without its wrapper's cost on this hot path.
    """
    return np.exp((eps.sum(axis=-1) / eps.shape[-1] - 1.0) / s.economy.varrho)


def global_error(s: Scenario, profile: ProfileLike) -> float:
    """Global model error: exponential aggregation of the mean local error."""
    return float(_aggregate(s, local_errors(s, profile)))


def epsilon_zero(s: Scenario) -> float:
    """Pre-training global error, per the configured mode."""
    if s.economy.eps0_mode is Eps0Mode.FIXED:
        return float(s.economy.eps0_value)
    return float(_aggregate(s, _floor_errors(s)))


def _f_squared(s: Scenario) -> np.ndarray:
    """``f**2`` per organization as Python squares a float (libm ``pow``,
    which differs from ``f * f`` in the last bit for some ``f``)."""
    return s.cached("f_squared", lambda: [f**2 for f in s.f.tolist()])


def _marginal_costs(s: Scenario) -> np.ndarray:
    """c_cmp * kappa * (eta + mu) * f^2 per organization: the cost of one
    more generated sample."""
    return s.c_cmp * s.kappa * (s.eta + s.mu) * _f_squared(s)


@dataclass(frozen=True, eq=False)
class ProfileMatrixEvaluation:
    """Economic read-out of an (m, N) profile matrix; row k is profile k.

    Per-organization terms are (m, N) arrays; ``welfare``, ``bb_sum`` and
    ``bb_balanced`` are (m,).
    """

    counterfactual: np.ndarray
    marginal: np.ndarray
    revenue: np.ndarray
    payoff_in: np.ndarray
    cost: np.ndarray
    server_fee: float
    coopetition_loss: np.ndarray
    utility: np.ndarray
    welfare: np.ndarray
    ir: np.ndarray
    bb_sum: np.ndarray
    bb_balanced: np.ndarray


def _offdiagonal_sums(terms: np.ndarray) -> np.ndarray:
    """Zero the n == n' entries of (m, N, N) pairwise terms; sum over n'."""
    idx = np.arange(terms.shape[1])
    terms[:, idx, idx] = 0.0
    return terms.sum(axis=2)


def _column_sums(a: np.ndarray) -> np.ndarray:
    """Row totals added one organization at a time, as Python's ``sum`` does."""
    total = np.zeros(a.shape[0])
    for n in range(a.shape[1]):
        total = total + a[:, n]
    return total


def evaluate_profiles(s: Scenario, profiles: np.ndarray) -> ProfileMatrixEvaluation:
    """Evaluate every row of an (m, N) profile matrix in one numpy pass.

    Each row's numbers equal those of evaluating it alone, bit for bit: the
    counterfactual errors are means over an (m, N, N) tensor of local errors
    whose entry (k, n, n) holds organization n at ``d_min``, so every mean
    reduces the same N values in the same order as a single profile does;
    sums over organizations run column by column.
    """
    d = np.asarray(profiles, dtype=np.float64)
    if d.ndim != 2 or d.shape[1] != s.n:
        raise DimensionMismatch(f"profile matrix has shape {d.shape}, expected (m, {s.n})")
    n = d.shape[1]
    eps = _local_errors(s, d)
    eps_min = _floor_errors(s)
    err = _aggregate(s, eps)
    held = np.repeat(eps[:, None, :], n, axis=1)
    idx = np.arange(n)
    held[:, idx, idx] = eps_min
    counterfactual = _aggregate(s, held)
    marginal = err[:, None] - counterfactual

    gamma = s.market.gamma
    if s.economy.bb_mode is PayoffMode.ANTISYMMETRIC:
        gaps = marginal[:, :, None] - marginal[:, None, :]
    else:
        gaps = marginal[:, :, None]
    payoff_in = _offdiagonal_sums(s.market.xi * gamma * gaps)
    loss = _offdiagonal_sums(s.market.phi * gamma * marginal[:, :, None])

    revenue = s.psi * (epsilon_zero(s) - err)[:, None]
    # The price times the energy spent training on the mixed data and
    # generating d samples.
    cost = s.c_cmp * (s.kappa * (s.eta * (s.d_loc + d) + s.mu * d) * _f_squared(s))
    c0 = s.economy.c0
    utility = revenue + payoff_in - cost - c0 - loss
    bb_sum = _column_sums(payoff_in)
    scale = 1.0 + _column_sums(np.abs(payoff_in))
    return ProfileMatrixEvaluation(
        counterfactual=counterfactual,
        marginal=marginal,
        revenue=revenue,
        payoff_in=payoff_in,
        cost=cost,
        server_fee=c0,
        coopetition_loss=loss,
        utility=utility,
        welfare=_column_sums(utility),
        ir=utility >= -IR_TOLERANCE,
        bb_sum=bb_sum,
        bb_balanced=np.abs(bb_sum) <= BB_RELATIVE_TOLERANCE * scale,
    )


def evaluate_profile(s: Scenario, profile: ProfileLike) -> ProfileMatrixEvaluation:
    """One profile's read-out: :func:`evaluate_profiles` of a one-row matrix."""
    return evaluate_profiles(s, as_dgen(profile, s.n)[None, :])

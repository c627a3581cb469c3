"""Pure evaluation of every economic quantity of one stage game.

All functions are pure in (scenario, profile) and reentrant. Sign
conventions follow the printed transfer formulas: the contribution gap
(global error minus the counterfactual error with the organization held at
``d_min``) is non-positive, so raw pairwise payoffs and the coopetition
loss are non-positive as well; callers see the raw signed values.

The global error is an exponential of the mean local error, so holding one
organization at ``d_min`` scales it by a factor of that organization's own
error alone: the counterfactual error is ``err * (1 + f_n)`` with
``f_n = expm1((eps_n(d_min) - eps_n) / (N varrho))``, and the gap is
``-err * f_n``. No counterfactual profile is evaluated, and ``expm1`` keeps
the gap's digits that a difference of two global errors would cancel.

One batched core, :func:`evaluate_profiles`, computes every utility term for
an (m, N) matrix of profiles in O(mN) work under literal payoffs (O(mN^2)
under antisymmetric ones); :func:`evaluate_profile` is its one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    return s.cached("floor_errors", lambda: _local_errors(s, float(s.bounds.d_min)))


def _aggregate(s: Scenario, eps: np.ndarray):
    """Exponential aggregation of the mean over the last (organization) axis.

    The mean is the sum over the count, which is how ``np.mean`` computes
    it (same bits), without its wrapper's cost on this hot path.
    """
    return np.exp((eps.sum(axis=-1) / eps.shape[-1] - 1.0) / s.economy.varrho)


def global_error(s: Scenario, profile: ProfileLike) -> float:
    """Global model error: exponential aggregation of the mean local error."""
    return float(_aggregate(s, local_errors(s, profile)))


def _floor_error(s: Scenario) -> np.ndarray:
    """Global error of the all-``d_min`` profile, the largest in the box,
    built once per scenario (a 0-d array)."""
    return s.cached("floor_error", lambda: _aggregate(s, _floor_errors(s)))


def epsilon_zero(s: Scenario) -> float:
    """Pre-training global error, per the configured mode."""
    if s.economy.eps0_mode is Eps0Mode.FIXED:
        return float(s.economy.eps0_value)
    return float(_floor_error(s))


def _f_squared(s: Scenario) -> np.ndarray:
    """``f**2`` per organization as Python squares a float (libm ``pow``,
    which differs from ``f * f`` in the last bit for some ``f``)."""
    return s.cached("f_squared", lambda: [f**2 for f in s.f.tolist()])


def _marginal_costs(s: Scenario) -> np.ndarray:
    """c_cmp * kappa * (eta + mu) * f^2 per organization: the cost of one
    more generated sample, built once per scenario."""
    return s.cached("marginal_costs", lambda: s.c_cmp * s.kappa * (s.eta + s.mu) * _f_squared(s))


def _costs(s: Scenario, d) -> np.ndarray:
    """The price of the energy spent training on the mixed data and generating ``d`` samples."""
    return s.c_cmp * (s.kappa * (s.eta * (s.d_loc + d) + s.mu * d) * _f_squared(s))


@dataclass(frozen=True, eq=False)
class ProfileMatrixEvaluation:
    """Economic read-out of an (m, N) profile matrix; row k is profile k.

    Per-organization terms are (m, N) arrays; ``welfare``, ``bb_sum`` and
    ``bb_balanced`` are (m,). ``bb_balanced`` is computed when first read.
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

    @cached_property
    def bb_balanced(self) -> np.ndarray:
        """Whether each row's transfers sum to zero, relative to their size."""
        scale = 1.0 + _column_sums(np.abs(self.payoff_in))
        return np.abs(self.bb_sum) <= BB_RELATIVE_TOLERANCE * scale


def _contribution_factors(s: Scenario, eps: np.ndarray) -> np.ndarray:
    """``f_n = expm1((eps_n(d_min) - eps_n) / (N varrho))`` for local errors
    ``eps`` (last axis over organizations): the global error with
    organization n held at ``d_min`` is ``err * (1 + f_n)``, and n's
    contribution gap is ``-err * f_n``. ``f_n`` does not depend on the
    others' volumes, and ``expm1`` keeps its digits where the gap is small.
    """
    return np.expm1((_floor_errors(s) - eps) / (s.n * s.economy.varrho))


def _pair_rates(s: Scenario) -> np.ndarray:
    """``xi * gamma_nn'``, built once per scenario: the rate at which n is
    paid on a contribution gap to n'. Validation refuses a nonzero
    ``gamma_nn``, so the n == n' entries are zero."""
    return s.cached("pair_rates", lambda: s.market.xi * s.market.gamma)


def _transfer_rates(s: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Per-organization transfer rates on its own contribution gap, built
    once per scenario: ``G_n = sum_{n' != n} xi gamma_nn'`` (payments in)
    and ``Phi_n = sum_{n' != n} phi_n' gamma_nn'`` (coopetition loss). The
    game weights are ``G_n - Phi_n - psi_n`` (``game._raw_z_weights``)."""
    gains = s.cached("payoff_rates", lambda: _pair_rates(s).sum(axis=1))
    losses = s.cached("loss_rates", lambda: (s.market.phi * s.market.gamma).sum(axis=1))
    return gains, losses


def _column_sums(a: np.ndarray) -> np.ndarray:
    """Row totals added one organization at a time, as Python's ``sum`` does."""
    total = np.zeros(a.shape[0])
    for n in range(a.shape[1]):
        total = total + a[:, n]
    return total


def evaluate_profiles(s: Scenario, profiles: np.ndarray) -> ProfileMatrixEvaluation:
    """Evaluate every row of an (m, N) profile matrix in one numpy pass.

    Organization n's contribution gap is ``marginal = -err * f_n``
    (:func:`_contribution_factors`), and its counterfactual error
    ``err - marginal``. Under literal payoffs the transfers are
    ``payoff_in = marginal * G_n`` and ``loss = marginal * Phi_n``
    (:func:`_transfer_rates`), so pricing takes O(mN) work; antisymmetric
    payoffs also subtract ``sum_{n' != n} xi gamma_nn' marginal_n'``, an
    (m, N, N) product summed over its last axis. Each row's numbers equal
    those of evaluating it alone, bit for bit: every operation is
    elementwise or reduces within one row, and sums over organizations run
    column by column.
    """
    d = np.asarray(profiles, dtype=np.float64)
    if d.ndim != 2 or d.shape[1] != s.n:
        raise DimensionMismatch(f"profile matrix has shape {d.shape}, expected (m, {s.n})")
    eps = _local_errors(s, d)
    err = _aggregate(s, eps)[:, None]
    # 0.0 - f, not -f, so that a zero gap is +0.0.
    marginal = (0.0 - _contribution_factors(s, eps)) * err
    gains, losses = _transfer_rates(s)
    payoff_in = marginal * gains
    if s.economy.bb_mode is PayoffMode.ANTISYMMETRIC:
        payoff_in = payoff_in - (_pair_rates(s) * marginal[:, None, :]).sum(axis=2)
    loss = marginal * losses

    revenue = s.psi * (epsilon_zero(s) - err)
    cost = _costs(s, d)
    c0 = s.economy.c0
    utility = revenue + payoff_in - cost - c0 - loss
    return ProfileMatrixEvaluation(
        counterfactual=err - marginal,
        marginal=marginal,
        revenue=revenue,
        payoff_in=payoff_in,
        cost=cost,
        server_fee=c0,
        coopetition_loss=loss,
        utility=utility,
        welfare=_column_sums(utility),
        ir=utility >= -IR_TOLERANCE,
        bb_sum=_column_sums(payoff_in),
    )


def evaluate_profile(s: Scenario, profile: ProfileLike) -> ProfileMatrixEvaluation:
    """One profile's read-out: :func:`evaluate_profiles` of a one-row matrix."""
    return evaluate_profiles(s, as_dgen(profile, s.n)[None, :])

"""Weighted potential function of the stage game and its weights.

The game's potential is

    F(d) = global_error(d) - sum_n cost_coeff_n * d_gen[n] / z_n

with per-organization weights z_n < 0. A unilateral move of organization n
changes its utility by

    U_n(alt) - U_n(cur) = A_n * (err(alt) - err(cur)) - cost_coeff_n * (alt_n - cur_n).

Under literal payoffs A_n = z_n, so U_n(alt) - U_n(cur) = z_n * (F(alt) -
F(cur)) and the game is a weighted potential game. Under antisymmetric
payoffs A_n = z_n + xi * sum_m gamma_nm * f_m, where
f_m = expm1((eps_m(d_min) - eps_m(d_m)) / (N varrho)) >= 0 does not depend on
d_n but does on the others' volumes (:func:`_deviation_weights`); there the
identity holds with A_n and not with z_n. So a move's gain is A_n times the
fall of F with the linear coefficient ``-c / A`` (:func:`_linear_coeffs` of
A), and a lattice minimum of that F along every coordinate, with A read at
the minimum itself, is an equilibrium: the solver's passes find one, and
the ``z``-weighted F here is only their first. The cost coefficient
includes the per-energy price: the utility's cost term carries it, and the
identities only hold with it present.

F's gradient and convexity are checked by the tests (``tests/helpers.py``);
this module holds only what the solver and the certificate run.
"""

from __future__ import annotations

import numpy as np

from . import economics
from .model import PayoffMode, ProfileLike, Scenario, as_dgen

__all__ = ["z_weights", "potential", "potential_from_errors"]


def z_weights(s: Scenario) -> np.ndarray:
    """Every organization's weight ``z_n = G_n - Phi_n - psi_n`` from the
    transfer rates (``economics._transfer_rates``), computed once per
    scenario (read-only). A scenario is refused at construction unless every
    weight is negative, so no caller checks the signs."""

    def build():
        gains, losses = economics._transfer_rates(s)
        return gains - losses - s.psi

    return s.cached("z_weights", build)


def _deviation_weights(s: Scenario, eps: np.ndarray) -> np.ndarray:
    """Every organization's weight A_n on the global error change of its own
    unilateral moves, at a profile whose local errors are ``eps``.

    ``z`` under literal payoffs; under antisymmetric payoffs
    ``z + (xi gamma) @ f``, where ``1 + f_m`` is organization m's
    counterfactual error over the global error, unchanged by n's move
    (``economics._contribution_factors``).
    """
    z = z_weights(s)
    if s.economy.bb_mode is not PayoffMode.ANTISYMMETRIC:
        return z
    return z + economics._pair_rates(s) @ economics._contribution_factors(s, eps)


def _linear_coeffs(s: Scenario, z: np.ndarray | None = None) -> np.ndarray:
    """Coefficient of d_gen[n] in F: -cost_coeff_n / z_n (positive) for the
    negative weights ``z``; the scenario's own weights' are cached."""
    if z is not None:
        return -economics._marginal_costs(s) / z
    return s.cached("linear_coeffs", lambda: _linear_coeffs(s, z_weights(s)))


def potential(s: Scenario, profile: ProfileLike) -> float:
    d = as_dgen(profile, s.n)
    return float(potential_from_errors(s, economics.local_errors(s, d), d))


def potential_from_errors(s: Scenario, eps: np.ndarray, d: np.ndarray, lin=None):
    """F at the profile ``d``, or at each row of an (m, N) matrix of them,
    whose local errors ``eps`` (same shape) are already known. ``lin`` is
    F's linear coefficient, the scenario's own by default."""
    return economics._aggregate(s, eps) + np.dot(d, _linear_coeffs(s) if lin is None else lin)

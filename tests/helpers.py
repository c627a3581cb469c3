"""Shared scenario builders for the test suite."""

from __future__ import annotations

import math
from dataclasses import replace
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from cocogen.errors import ZeroTotalData
from cocogen.model import (
    ORG_COLUMNS,
    EconomyParams,
    Eps0Mode,
    Market,
    PayoffMode,
    ScalingLaw,
    Scenario,
    StrategyBounds,
)

# Matches the shipped sweep calibration so sampled instances sit in the
# interior-equilibrium regime.
ETA = 1.79e20
MU = 1.79e20
C_CMP = 0.3438 / 3.6e6


def build_scenario(
    n=2,
    alpha=5.0,
    beta=0.5,
    delta=0.0,
    d_loc=1500,
    f=1.5,
    kappa=3.5e-18,
    eta=ETA,
    mu=MU,
    c_cmp=C_CMP,
    psi=700.0,
    gamma=None,
    xi=20.0,
    phi=250.0,
    varrho=20.0,
    c0=0.0,
    eps0_mode=Eps0Mode.AT_ZERO_GENERATION,
    eps0_value=None,
    bb_mode=PayoffMode.LITERAL,
    d_min=0,
    d_max=3000,
    seed=0,
):
    """Homogeneous scenario with scalar-or-sequence overrides per field."""

    def vec(x, cast=float):
        if np.isscalar(x):
            return [cast(x) for _ in range(n)]
        return [cast(v) for v in x]

    if gamma is None:
        g = np.full((n, n), 0.5)
        np.fill_diagonal(g, 0.0)
    else:
        g = np.asarray(gamma, dtype=float)
    return Scenario(
        d_loc=vec(d_loc, int),
        f=vec(f),
        kappa=vec(kappa),
        eta=vec(eta),
        mu=vec(mu),
        c_cmp=vec(c_cmp),
        psi=vec(psi),
        alpha=vec(alpha),
        beta=vec(beta),
        delta=vec(delta),
        market=Market(gamma=g, xi=xi, phi=np.asarray(vec(phi))),
        economy=EconomyParams(
            varrho=varrho,
            c0=c0,
            eps0_mode=eps0_mode,
            eps0_value=eps0_value,
            bb_mode=bb_mode,
        ),
        bounds=StrategyBounds(d_min=d_min, d_max=d_max),
        seed=seed,
    )


def law_error(law, d):
    """The error law ``alpha d**-beta - delta`` of ``law`` at total volume(s)
    ``d``: a float for a scalar, else an array."""
    out = law.alpha * np.power(np.asarray(d, dtype=np.float64), -law.beta) - law.delta
    return float(out) if np.ndim(out) == 0 else out


def table1_scenario(seed, n=10, gamma_range=(0.0, 1.0), cost_scale=1.0, law=None, **kw):
    """Random instance drawn from the published parameter ranges."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 99], dtype=np.uint64)))
    g = rng.uniform(*gamma_range, size=(n, n))
    np.fill_diagonal(g, 0.0)
    law = law or ScalingLaw(21.2, 0.52, 0.12)
    return build_scenario(
        n=n,
        alpha=law.alpha,
        beta=law.beta,
        delta=law.delta,
        d_loc=rng.integers(1000, 3001, size=n),
        f=rng.uniform(1.0, 2.0, size=n),
        kappa=rng.uniform(2e-18, 5e-18, size=n),
        eta=ETA * cost_scale,
        mu=MU * cost_scale,
        psi=rng.uniform(600.0, 900.0, size=n),
        phi=rng.uniform(200.0, 300.0, size=n),
        gamma=g,
        xi=20.0,
        seed=seed,
        **kw,
    )


def float_resolution_scenario():
    """A preset job scaled so that its mean local errors are 2.6e8 to 4.1e8:
    the float spacing at the root (3e-8 to 6e-8) is wider than the default
    ``tol``, so its bracket can close only at float resolution."""
    from dataclasses import replace

    from cocogen.scenario import default_sweep_grid, expand_sweep, sample_scenario

    grid = default_sweep_grid()
    job = next(j for j in expand_sweep(grid)[::3] if j.seed == 7914658278984599206)
    s = sample_scenario(grid, job.cell, job.seed)
    return replace(s, alpha=s.alpha * 1e9, eta=s.eta * 1e3, mu=s.mu * 1e3,
                   economy=replace(s.economy, varrho=1e8))


# float_resolution_scenario()'s equilibrium: solvers whose bracket never
# closed there, after 500 steps, gave the same profile.
FLOAT_RESOLUTION_PROFILE = [3000.0] * 6 + [2772.0, 2877.0, 2078.0, 3000.0]


def reference_sample_scenario(grid, cell, seed):
    """The sweep sampler as first written: one record per organization,
    built from the same family streams in the same order, then turned into
    the scenario's columns."""
    from cocogen.scenario import FAMILY, family_stream

    n = grid.n_orgs
    kappa = family_stream(seed, FAMILY.KAPPA).uniform(2e-18, 5e-18, size=n)
    d_loc = family_stream(seed, FAMILY.D_LOC).integers(1000, 3000, size=n, endpoint=True)
    phi = family_stream(seed, FAMILY.PHI).uniform(2e2, 3e2, size=n)
    psi = family_stream(seed, FAMILY.PSI).uniform(6e2, 9e2, size=n)
    freq = family_stream(seed, FAMILY.FREQ).uniform(1.0, 2.0, size=n)
    gamma = family_stream(seed, FAMILY.GAMMA).uniform(
        cell.gamma.lo, cell.gamma.hi, size=(n, n)
    )
    np.fill_diagonal(gamma, 0.0)
    orgs = [
        SimpleNamespace(
            d_loc=int(d_loc[i]),
            f=float(freq[i]),
            kappa=float(kappa[i]),
            eta=grid.org_defaults.eta,
            mu=grid.org_defaults.mu,
            c_cmp=grid.org_defaults.c_cmp,
            psi=float(psi[i]),
            alpha=cell.law.alpha,
            beta=cell.law.beta,
            delta=cell.law.delta,
        )
        for i in range(n)
    ]
    return Scenario(
        **{name: [getattr(o, name) for o in orgs] for name in ORG_COLUMNS},
        market=Market(gamma=gamma, xi=grid.xi, phi=phi),
        economy=grid.economy,
        bounds=grid.bounds,
        seed=seed,
    )


def with_payoff_mode(s, mode):
    """Copy of the scenario with a different payoff-transfer convention."""
    return replace(s, economy=replace(s.economy, bb_mode=mode))


def reference_wco_scenario(s):
    """The zero-competition clone of the scenario, built through the
    constructor: every ``gamma`` zeroed, so the game weights are
    ``z_n = -psi_n``. It shares the source's columns, economy and bounds,
    and is refused where some ``psi_n`` is 0. WCO's game is this clone's."""
    gamma = np.zeros_like(s.market.gamma)
    return replace(s, market=Market(gamma=gamma, xi=s.market.xi, phi=s.market.phi))


def reference_lattice(s):
    """Every volume of the integer lattice ``d_min + k`` in the box."""
    lo, hi = float(s.bounds.d_min), float(s.bounds.d_max)
    return lo + np.arange(int(hi - lo) + 1)


def org_row(s, n):
    """Organization ``n``'s parameters as Python floats, by column name."""
    return SimpleNamespace(**{name: float(getattr(s, name)[n]) for name in ORG_COLUMNS})


def random_profile(s, seed, lo=None, hi=None):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 7], dtype=np.uint64)))
    lo = float(s.bounds.d_min) if lo is None else lo
    hi = float(s.bounds.d_max) if hi is None else hi
    return rng.uniform(lo, hi, size=s.n)


# ---------------------------------------------------------------------------
# Reference oracle: the per-organization economics from the contribution
# factor's identities, one organization at a time. Organization n's
# contribution gap is -err * f_n with f_n = expm1((eps_n(d_min) - eps_n) /
# (N varrho)), and its transfers are that gap times sums of its own pairwise
# rates. The batched core in ``cocogen.economics`` must reproduce it bit for
# bit; nothing here calls into that module.
# ---------------------------------------------------------------------------


def _ref_local_errors(s, d):
    orgs = [org_row(s, n) for n in range(s.n)]
    d_locs = np.array([o.d_loc for o in orgs])
    totals = d_locs + d
    if np.any(totals <= 0):
        raise ZeroTotalData("some organization has zero local plus generated data")
    alphas = np.array([o.alpha for o in orgs])
    betas = np.array([o.beta for o in orgs])
    deltas = np.array([o.delta for o in orgs])
    return alphas * np.power(totals, -betas) - deltas


def _ref_global_error(s, d):
    eps = _ref_local_errors(s, d)
    return float(np.exp((eps.mean() - 1.0) / s.economy.varrho))


def _ref_marginal_contribution(s, d, n):
    eps = _ref_local_errors(s, d)
    eps_min = _ref_local_errors(s, np.full(s.n, float(s.bounds.d_min)))
    f = np.expm1((eps_min[n] - eps[n]) / (s.n * s.economy.varrho))
    return float((0.0 - f) * _ref_global_error(s, d))


def _ref_pair_rates(s, n, weights):
    """``weights[n'] * gamma[n, n']`` over n', with the n' == n entry zeroed."""
    rates = weights * np.asarray(s.market.gamma[n])
    rates[n] = 0.0
    return rates


def _ref_total_payoff(s, d, n):
    rates = _ref_pair_rates(s, n, s.market.xi)
    payoff = _ref_marginal_contribution(s, d, n) * rates.sum()
    if s.economy.bb_mode is PayoffMode.ANTISYMMETRIC:
        mc = np.array([_ref_marginal_contribution(s, d, m) for m in range(s.n)])
        payoff = payoff - (rates * mc).sum()
    return float(payoff)


def _ref_coopetition_loss(s, d, n):
    rates = _ref_pair_rates(s, n, np.asarray(s.market.phi))
    return float(_ref_marginal_contribution(s, d, n) * rates.sum())


def _ref_utility(s, d, n):
    if s.economy.eps0_mode is Eps0Mode.FIXED:
        eps0 = float(s.economy.eps0_value)
    else:
        eps0 = _ref_global_error(s, np.full(s.n, float(s.bounds.d_min)))
    org = org_row(s, n)
    d_gen = float(d[n])
    energy = org.kappa * (org.eta * (org.d_loc + d_gen) + org.mu * d_gen) * org.f**2
    parts = {
        "revenue": org.psi * (eps0 - _ref_global_error(s, d)),
        "payoff_in": _ref_total_payoff(s, d, n),
        "cost": org.c_cmp * energy,
        "server_fee": s.economy.c0,
        "coopetition_loss": _ref_coopetition_loss(s, d, n),
    }
    parts["utility"] = (
        parts["revenue"] + parts["payoff_in"] - parts["cost"]
        - parts["server_fee"] - parts["coopetition_loss"]
    )
    return parts


def reference_evaluation(s, profile, ir_tolerance=1e-9, bb_tolerance=1e-6):
    """Utilities (dicts), welfare, IR verdicts and budget-balance read-out."""
    d = np.asarray(profile, dtype=np.float64)
    utilities = [_ref_utility(s, d, n) for n in range(s.n)]
    payoffs = [_ref_total_payoff(s, d, n) for n in range(s.n)]
    bb_sum = float(sum(payoffs))
    scale = 1.0 + float(sum(abs(p) for p in payoffs))
    return {
        "utilities": utilities,
        "welfare": float(sum(u["utility"] for u in utilities)),
        "ir": [u["utility"] >= -ir_tolerance for u in utilities],
        "bb_sum": bb_sum,
        "bb_balanced": abs(bb_sum) <= bb_tolerance * scale,
    }


def reference_held_out_evaluation(s, profiles):
    """The transfer terms of an (m, N) profile matrix in the held-out form
    that priced it before the contribution factor: each counterfactual
    error is the global error of an (m, N, N) tensor of local errors whose
    entry (k, n, n) holds organization n at ``d_min``, the gap is the
    difference of two global errors, and the pairwise transfers are summed
    over an (m, N, N) tensor. Revenue and cost are taken from
    ``evaluate_profiles``, which computes them as this form did."""
    from cocogen import economics

    d = np.asarray(profiles, dtype=np.float64)
    idx = np.arange(s.n)
    eps = economics._local_errors(s, d)
    err = economics._aggregate(s, eps)
    held = np.repeat(eps[:, None, :], s.n, axis=1)
    held[:, idx, idx] = economics._floor_errors(s)
    counterfactual = economics._aggregate(s, held)
    marginal = err[:, None] - counterfactual
    gamma = np.array(s.market.gamma)
    gamma[idx, idx] = 0.0
    if s.economy.bb_mode is PayoffMode.ANTISYMMETRIC:
        gaps = marginal[:, :, None] - marginal[:, None, :]
    else:
        gaps = marginal[:, :, None]
    payoff_in = (s.market.xi * gamma * gaps).sum(axis=2)
    loss = (np.asarray(s.market.phi) * gamma * marginal[:, :, None]).sum(axis=2)
    ev = economics.evaluate_profiles(s, d)
    utility = ev.revenue + payoff_in - ev.cost - ev.server_fee - loss
    return SimpleNamespace(
        global_error=err, counterfactual=counterfactual, marginal=marginal,
        payoff_in=payoff_in, coopetition_loss=loss, utility=utility,
        welfare=np.array([sum(row) for row in utility.tolist()]),
        bb_sum=np.array([sum(row) for row in payoff_in.tolist()]),
    )


# ---------------------------------------------------------------------------
# Reference NE scans. The first composes each deviation's utility term by
# term, as ``cocogen.solver.verify_ne`` priced it before it took gains from
# the deviation identity; the identity must reproduce these gains to 1e-12
# relative to 1 + |u_n|. The second prices every lattice move from that
# identity, as ``verify_ne`` did before it certified from each
# organization's neighbours.
# ---------------------------------------------------------------------------


def reference_unilateral_utilities(s: Scenario, profile: np.ndarray, n: int, xs: np.ndarray):
    """Utility of organization ``n`` at every deviation in ``xs`` (vectorized).

    Composes the utility's terms as the held-out form does
    (:func:`reference_held_out_evaluation`): each contribution gap is a
    difference of two global errors.
    """
    from cocogen import economics

    eps_base = economics.local_errors(s, profile)
    varrho = s.economy.varrho
    eps_n = economics._local_errors(s, xs, True, n)
    others = float(eps_base.sum() - eps_base[n])
    err = np.exp(((others + eps_n) / s.n - 1.0) / varrho)

    d_min = float(s.bounds.d_min)
    gamma_row = np.asarray(s.market.gamma[n]).copy()
    gamma_row[n] = 0.0

    # Counterfactual with n itself at d_min: constant in the deviation.
    eps_n_min = float(economics._local_errors(s, d_min, True, n))
    err_cf_n = math.exp(((others + eps_n_min) / s.n - 1.0) / varrho)
    mc_n = err - err_cf_n

    if s.economy.bb_mode is PayoffMode.ANTISYMMETRIC:
        payoff = np.zeros_like(xs, dtype=np.float64)
        for m in range(s.n):
            if m == n or gamma_row[m] == 0.0:
                continue
            eps_m_min = float(economics._local_errors(s, d_min, True, m))
            others_m = others - eps_base[m] + eps_m_min
            err_cf_m = np.exp(((others_m + eps_n) / s.n - 1.0) / varrho)
            payoff += s.market.xi * gamma_row[m] * (mc_n - (err - err_cf_m))
    else:
        payoff = s.market.xi * float(gamma_row.sum()) * mc_n

    eps0 = economics.epsilon_zero(s)
    rev = s.psi[n] * (eps0 - err)
    f2 = economics._f_squared(s)[n]
    cost = s.c_cmp[n] * s.kappa[n] * (s.eta[n] * (s.d_loc[n] + xs) + s.mu[n] * xs) * f2
    loss = float(np.dot(np.asarray(s.market.phi), gamma_row)) * mc_n
    return rev + payoff - cost - s.economy.c0 - loss


def reference_ne_gains(s, profile):
    """The unilateral lattice scan of ``cocogen.solver.verify_ne`` as it
    priced utilities before the deviation identity: per organization, the
    deviation lattice, the gains ``u_n(x) - u_n(d)`` and the verdict with
    the solver's tolerance."""
    from cocogen import economics, solver

    d = np.asarray(profile, dtype=np.float64)
    xs = reference_lattice(s)
    current = economics.evaluate_profile(s, d).utility[0].tolist()
    gains = []
    is_ne = True
    for n in range(s.n):
        u_ref = current[n]
        g = reference_unilateral_utilities(s, d, n, xs) - u_ref
        gains.append(g)
        if g.max() > solver.NE_IMPROVEMENT_TOLERANCE * (1.0 + abs(u_ref)):
            is_ne = False
    return xs, gains, is_ne


def reference_deviation_gains(s, d, xs):
    """Each organization's gain from every unilateral move to a volume in
    ``xs``, one array per organization in turn, from the deviation
    identity.

    Organization n's gain from moving to x is
    ``A_n * (err(x, d_-n) - err(d)) - c_n * (x - d_n)``, with A_n from
    ``game._deviation_weights`` and c_n the marginal cost of one sample.
    ``err(d)`` comes from the same ``exp`` call as the deviations' errors,
    so the null deviation gains exactly 0.0.
    """
    from cocogen import economics, game

    eps = economics._local_errors(s, d)
    weights = game._deviation_weights(s, eps)
    costs = economics._marginal_costs(s)
    total = eps.sum()
    for n in range(s.n):
        eps_n = economics._local_errors(s, np.append(xs, d[n]), True, n)
        err = np.exp(((total - eps[n] + eps_n) / s.n - 1.0) / s.economy.varrho)
        # Adding the cost term keeps the null deviation's 0.0 unsigned.
        yield weights[n] * (err[:-1] - err[-1]) + costs[n] * (d[n] - xs)


def reference_verify_ne(s, profile):
    """``cocogen.solver.verify_ne`` as a scan of every lattice move of every
    organization: the certificate, the lattice, and each organization's
    gains on it (the first maximum wins, so ties go to the smallest
    volume)."""
    from cocogen import economics, solver

    d = np.asarray(profile, dtype=np.float64)
    xs = reference_lattice(s)
    utilities = economics.evaluate_profiles(s, d[None, :]).utility[0].tolist()
    gains = list(reference_deviation_gains(s, d, xs))
    worst_gain, worst_org, worst_alt, is_ne = -math.inf, 0, float(d[0]), True
    for n, g in enumerate(gains):
        k = int(np.argmax(g))
        if g[k] > worst_gain:
            worst_gain, worst_org, worst_alt = float(g[k]), n, float(xs[k])
        if g[k] > solver.NE_IMPROVEMENT_TOLERANCE * (1.0 + abs(utilities[n])):
            is_ne = False
    cert = solver.NeCertificate(
        is_ne=is_ne, worst_org=worst_org, worst_d_alt=worst_alt, worst_gain=worst_gain
    )
    return cert, xs, gains


def reference_probe_deviations(s, profile, probes=4097):
    """Each organization's best unilateral move and its gain on a lattice
    too long to scan, found by probing: ``probes`` evenly spaced lattice
    indices over the whole lattice, then as many over the two spacings
    around the best probe, and so on until the spacing is one index. Gains
    come from :func:`reference_deviation_gains`. Returns the moves, the
    gains and the verdict with the solver's tolerance."""
    from cocogen import economics, solver

    d = np.asarray(profile, dtype=np.float64)
    lo = float(s.bounds.d_min)
    last = int(float(s.bounds.d_max) - lo)
    utilities = economics.evaluate_profiles(s, d[None, :]).utility[0]
    best_x, best_g = np.empty(s.n), np.empty(s.n)
    for n in range(s.n):
        a, b = 0, last
        while True:
            ks = np.unique(np.linspace(a, b, probes).round())
            xs = lo + ks
            g = list(reference_deviation_gains(s, d, xs))[n]
            i = int(np.argmax(g))
            if b - a < probes:
                break
            a, b = int(ks[max(i - 1, 0)]), int(ks[min(i + 1, len(ks) - 1)])
        best_x[n], best_g[n] = xs[i], g[i]
    is_ne = not np.any(best_g > solver.NE_IMPROVEMENT_TOLERANCE * (1.0 + np.abs(utilities)))
    return best_x, best_g, is_ne


# ---------------------------------------------------------------------------
# Potential analysis: F's analytic gradient and a randomized convexity check
# (criteria 2 and 3).
# ---------------------------------------------------------------------------


def reference_potential_gradient(s, d):
    """F's coordinate gradient in closed form: minus each organization's
    marginal reduction of the global error, minus a2."""
    from cocogen import economics, game

    eps = economics.local_errors(s, d)
    err = np.exp((float(eps.mean()) - 1.0) / s.economy.varrho)
    alphas, betas = s.alpha, s.beta
    benefit = (
        alphas * betas / (s.n * s.economy.varrho) * np.power(s.d_loc + d, -betas - 1.0) * err
    )
    return -benefit - economics._marginal_costs(s) / game.z_weights(s)


def potential_rows(s, profiles):
    """F at each row of a (m, N) matrix of profiles, priced as the solver's
    descent prices them."""
    from cocogen import economics, game

    p = np.asarray(profiles, dtype=np.float64)
    return game.potential_from_errors(s, economics._local_errors(s, p), p)


def convexity_margins(s, trials, seed):
    """Worst midpoint gap ``F(mid) - chord`` relative to ``|F|`` over random
    profile pairs, and worst second difference of F along random coordinates,
    from Philox draws keyed ``[seed, 0xC0]``."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0xC0], dtype=np.uint64)))
    lo, hi = float(s.bounds.d_min), float(s.bounds.d_max)
    if lo == 0 and np.any(s.d_loc == 0):
        lo = 1.0  # keep totals strictly positive
    p = rng.uniform(lo, hi, size=(trials, s.n))
    q = rng.uniform(lo, hi, size=(trials, s.n))
    lam = rng.uniform(0.0, 1.0, size=(trials, 1))
    f_mid = potential_rows(s, lam * p + (1.0 - lam) * q)
    chord = lam[:, 0] * potential_rows(s, p) + (1.0 - lam[:, 0]) * potential_rows(s, q)
    gap = np.max((f_mid - chord) / np.maximum(np.abs(f_mid), np.abs(chord)))

    h = max((hi - lo) * 1e-3, 1e-3)
    centers = np.clip(p, lo + h, hi - h)
    step = np.zeros_like(centers)
    step[np.arange(trials), rng.integers(0, s.n, size=trials)] = h
    second = (
        potential_rows(s, centers + step)
        - 2.0 * potential_rows(s, centers)
        + potential_rows(s, centers - step)
    )
    return float(gap), float(second.min())


# ---------------------------------------------------------------------------
# Reference solver: the fixed-point loop exactly as first written, with one
# potential evaluation per iterate on top of the Jacobi targets, case labels
# classified one organization at a time and integer restoration through 2N
# full potential evaluations. Run to ``tol=1e-14``, it lands on the integer
# profile that ``cocogen.solver.fpi_solve`` finds by root and descent.
# ---------------------------------------------------------------------------


def _ref_potential(s, d):
    from cocogen import economics, game

    return economics.global_error(s, d) + float(
        np.dot(-economics._marginal_costs(s) / game.z_weights(s), d)
    )


def _ref_mean_error_and_a2(s, d, n):
    from cocogen import economics, game

    eps = economics.local_errors(s, d)
    return float(eps.mean()), economics._marginal_costs(s)[n] / game.z_weights(s)[n]


def _ref_benefit(s, n, total, a1):
    law = org_row(s, n)
    if total <= 0:
        raise ZeroTotalData(f"organization {n} has zero total data")
    return (
        law.alpha
        * law.beta
        / (s.n * s.economy.varrho)
        * total ** (-law.beta - 1.0)
        * math.exp((a1 - 1.0) / s.economy.varrho)
    )


def _ref_stationary_point(s, n, a1, a2):
    org = law = org_row(s, n)
    varrho = s.economy.varrho
    bracket = -a2 * s.n * varrho / (law.alpha * law.beta) * math.exp(-(a1 - 1.0) / varrho)
    if bracket <= 0.0:
        return math.inf
    return bracket ** (-1.0 / (law.beta + 1.0)) - org.d_loc


def _ref_case_label(s, d, n):
    a1, a2 = _ref_mean_error_and_a2(s, d, n)
    d_star = _ref_stationary_point(s, n, a1, a2)
    lo, hi = float(s.bounds.d_min), float(s.bounds.d_max)
    if d_star < lo:
        if -_ref_benefit(s, n, org_row(s, n).d_loc + lo, a1) - a2 >= 0:
            return "lower_bound"
    if d_star > hi:
        if -_ref_benefit(s, n, org_row(s, n).d_loc + hi, a1) - a2 <= 0:
            return "upper_bound"
    return "interior"


def _ref_sweep_targets(s, d):
    from cocogen import economics, game

    eps = economics.local_errors(s, d)
    a1 = float(eps.mean())
    a2s = economics._marginal_costs(s) / game.z_weights(s)
    out = np.empty(s.n)
    lo, hi = float(s.bounds.d_min), float(s.bounds.d_max)
    for n in range(s.n):
        t = _ref_stationary_point(s, n, a1, a2s[n])
        out[n] = min(max(t, lo), hi)
    return out


def _ref_restore_integers(s, d):
    out = d.copy()
    for n in range(s.n):
        lo = math.floor(out[n])
        hi = math.ceil(out[n])
        if lo == hi:
            out[n] = float(lo)
            continue
        trial = out.copy()
        trial[n] = float(lo)
        f_lo = _ref_potential(s, trial)
        trial[n] = float(hi)
        f_hi = _ref_potential(s, trial)
        out[n] = float(lo) if f_lo <= f_hi else float(hi)
    return out


def _ref_initial_profile(s, init):
    lo, hi = float(s.bounds.d_min), float(s.bounds.d_max)
    return np.full(s.n, {"all_min": lo, "all_max": hi, "midpoint": 0.5 * (lo + hi)}[init])


def reference_fpi_solve(s, cfg=None, damping=0.5, init="all_min"):
    """The damped Jacobi loop, case labels and rounding as first written.

    ``cfg.tol`` bounds ``|F_k - F_{k-1}|`` and ``cfg.max_iters`` the Jacobi
    sweeps; ``init`` is ``all_min``, ``all_max`` or ``midpoint``.
    """
    from cocogen import solver
    from cocogen.model import StrategyProfile

    cfg = cfg or solver.SolverConfig()
    d = _ref_initial_profile(s, init)
    f_prev = _ref_potential(s, d)
    trace = [f_prev]
    converged = False
    iterations = 0
    for k in range(1, cfg.max_iters + 1):
        iterations = k
        targets = _ref_sweep_targets(s, d)
        d = (1.0 - damping) * d + damping * targets
        f_k = _ref_potential(s, d)
        trace.append(f_k)
        if abs(f_k - f_prev) <= cfg.tol:
            converged = True
            break
        f_prev = f_k

    cases = tuple(_ref_case_label(s, d, n) for n in range(s.n))
    return solver.SolveReport(
        profile=StrategyProfile(_ref_restore_integers(s, d)),
        labels=lambda: cases,
        iterations=iterations,
        trace=lambda: tuple(trace),
        converged=converged,
        scenario=s,
    )


def assert_lattice_equilibrium(s, d):
    """No ±1 move of one organization lowers the potential at the integer
    profile ``d``. F is convex along every coordinate, so this holds
    exactly when no organization gains from any unilateral lattice
    deviation. The profile and its feasible neighbours are priced in one
    batch, so the comparison is between values computed the same way."""
    d = np.asarray(d, dtype=np.float64)
    assert np.array_equal(d, np.round(d)), d
    lo, hi = float(s.bounds.d_min), float(s.bounds.d_max)
    assert np.all((lo <= d) & (d <= hi)), d
    rows = d + np.vstack([np.zeros(s.n), np.eye(s.n), -np.eye(s.n)])
    rows = rows[np.all((rows >= lo) & (rows <= hi), axis=1)]
    f = potential_rows(s, rows)
    assert np.all(f[0] <= f[1:]), (d, f[0] - f[1:])


def reference_scheme_rows(s, radg_seed, radg_count):
    """Scheme rows as first written: the CoCoGen, VCFL and WCO profiles each
    priced alone through ``economics.evaluate_profile`` and the RaDG draws as
    their own matrix, WCO's profile from ``fpi_solve`` of the
    zero-competition clone."""
    from cocogen import baselines, economics, solver
    from cocogen.errors import CocogenError

    rows = []

    def row(scheme, welfare, mean_d, ir_all, bb_sum, converged):
        rows.append(
            {"scheme": scheme, "welfare": welfare, "mean_d_gen": mean_d,
             "ir_all": ir_all, "bb_sum": bb_sum, "converged": converged, "status": "ok"}
        )

    def failed(scheme, exc):
        rows.append(
            {"scheme": scheme, "welfare": math.nan, "mean_d_gen": math.nan,
             "ir_all": False, "bb_sum": math.nan, "converged": False,
             "status": f"error:{type(exc).__name__}"}
        )

    try:
        rep = solver.fpi_solve(s)
        ev = economics.evaluate_profile(s, rep.profile)
        row("CoCoGen", ev.welfare.item(), float(np.mean(rep.profile.d_gen)), all(ev.ir[0]),
            ev.bb_sum.item(), rep.converged)
    except CocogenError as exc:
        failed("CoCoGen", exc)

    prof = baselines.vcfl_profile(s)
    ev = economics.evaluate_profile(s, prof)
    row("VCFL", ev.welfare.item(), float(np.mean(prof.d_gen)), all(ev.ir[0]), ev.bb_sum.item(),
        True)

    try:
        wco = solver.fpi_solve(reference_wco_scenario(s))
        ev = economics.evaluate_profile(s, wco.profile)
        row("WCO", ev.welfare.item(), float(np.mean(wco.profile.d_gen)), all(ev.ir[0]),
            ev.bb_sum.item(), wco.converged)
    except CocogenError as exc:
        failed("WCO", exc)

    draws = baselines.radg_profiles(s, radg_seed, radg_count)
    ev = economics.evaluate_profiles(s, draws)
    row("RaDG", float(np.mean(ev.welfare)), float(np.mean(draws.mean(axis=1))),
        bool(ev.ir.all()), float(np.mean(ev.bb_sum)), True)
    return rows


# ---------------------------------------------------------------------------
# Reference stationarity: the closed forms of ``cocogen.solver`` as first
# written for the root solve, one organization at a time in Python floats,
# with scalar libm ``exp`` and ``pow``. ``reference_root_solve`` runs the
# root solve, rounding and ±1 descent on this path; ``fpi_solve`` must land
# on exactly its integer profile and case labels.
# ---------------------------------------------------------------------------


def _scalar_stationarity(s):
    from cocogen import economics, game

    varrho = s.economy.varrho
    alphas, betas = s.alpha, s.beta
    a2 = economics._marginal_costs(s) / game.z_weights(s)
    return SimpleNamespace(
        a2=tuple(a2.tolist()),
        factor=tuple((-a2 * s.n * varrho / (alphas * betas)).tolist()),
        exponent=tuple((-1.0 / (betas + 1.0)).tolist()),
        benefit=tuple((alphas * betas / (s.n * varrho)).tolist()),
        benefit_exponent=tuple((-betas - 1.0).tolist()),
        d_loc=tuple(s.d_loc.tolist()),
        varrho=varrho,
        lo=float(s.bounds.d_min),
        hi=float(s.bounds.d_max),
    )


def _scalar_exp(x):
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _scalar_stationary_points(c, a1):
    growth = _scalar_exp(-(a1 - 1.0) / c.varrho)
    out = []
    for factor, exponent, d_loc in zip(c.factor, c.exponent, c.d_loc):
        bracket = factor * growth
        try:
            out.append(bracket**exponent - d_loc if bracket > 0.0 else math.inf)
        except OverflowError:
            out.append(math.inf)
    return out


def _scalar_labels(c, a1):
    growth = _scalar_exp((a1 - 1.0) / c.varrho)

    def gradient(n, total):
        return -c.benefit[n] * total ** c.benefit_exponent[n] * growth - c.a2[n]

    labels = []
    for n, d_star in enumerate(_scalar_stationary_points(c, a1)):
        label = "interior"
        if d_star < c.lo and gradient(n, c.d_loc[n] + c.lo) >= 0:
            label = "lower_bound"
        elif d_star > c.hi and gradient(n, c.d_loc[n] + c.hi) <= 0:
            label = "upper_bound"
        labels.append(label)
    return tuple(labels)


def _scalar_relaxed(s, c, t):
    from cocogen import economics

    d = np.array([min(max(x, c.lo), c.hi) for x in _scalar_stationary_points(c, t)])
    eps = economics._local_errors(s, d)
    return t - float(eps.sum() / s.n), d, eps


def _reference_descend(s, d):
    lo, hi = float(s.bounds.d_min), float(s.bounds.d_max)
    steps = np.vstack([np.zeros(s.n), np.eye(s.n), -np.eye(s.n)])
    while True:
        rows = d + steps
        rows = rows[np.all((rows >= lo) & (rows <= hi), axis=1)]
        k = int(np.argmin(potential_rows(s, rows)))
        if k == 0:
            return d
        d = rows[k]


def reference_root_solve(s, cfg=None):
    """The Illinois root solve of ``cocogen.solver.fpi_solve`` on the scalar
    stationarity path, then rounding half up and ±1 descent. Returns the
    integer profile and the case labels."""
    from cocogen import economics, solver

    cfg = cfg or solver.SolverConfig()
    c = _scalar_stationarity(s)
    a = float(economics._local_errors(s, np.full(s.n, c.hi)).mean())
    b = float(economics._floor_errors(s).mean())
    g_a, g_b = _scalar_relaxed(s, c, a), _scalar_relaxed(s, c, b)
    point = g_a if -g_a[0] <= g_b[0] else g_b
    if g_a[0] >= 0:
        b = a
    elif g_b[0] <= 0:
        a = b
    fa, fb = g_a[0], g_b[0]
    side, steps = 0, 0
    while b - a > cfg.tol and a < 0.5 * (a + b) < b and steps < cfg.max_iters:
        steps += 1
        t = (a * fb - b * fa) / (fb - fa)
        if not a < t < b:
            t = 0.5 * (a + b)
        point = _scalar_relaxed(s, c, t)
        g_t = point[0]
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
    return _reference_descend(s, np.floor(d + 0.5)), _scalar_labels(c, float(eps.mean()))


# ---------------------------------------------------------------------------
# Reference grid oracle: the exhaustive scan of every lattice point, in
# first-axis row chunks, through F's per-coordinate factorization, its
# N = 3 innermost axis through a lower envelope of lines built by a stack
# loop. ``cocogen.solver.grid_oracle`` must return this scan's profile and a
# bitwise-equal ``f_min``, its proof's lower bound must lie below this
# scan's minimum, and its box must hold this scan's argmin.
# ---------------------------------------------------------------------------


class ReferenceEnvelope(NamedTuple):
    """The lines kept, left to right: slopes, intercepts, the ``q`` at
    which each line after the first takes over, and each line's index."""

    slope: np.ndarray
    inter: np.ndarray
    thresh: np.ndarray
    k: np.ndarray


def reference_lower_envelope(slopes, intercepts):
    """The lower envelope as first written: a stack of lines, taken in
    order, from which each new line pops every line whose takeover point
    (``q = 0`` for the first) it reaches at or before; a parallel line
    replaces the kept one only if strictly lower. Slopes must be
    non-increasing."""
    slopes = np.asarray(slopes, dtype=np.float64)
    intercepts = np.asarray(intercepts, dtype=np.float64)
    ks: list[int] = []
    sl: list[float] = []
    it: list[float] = []
    th: list[float] = []
    for k in range(slopes.size):
        s = float(slopes[k])
        c = float(intercepts[k])
        if sl and s == sl[-1]:
            if c >= it[-1]:
                continue  # parallel, never below the kept line
            # parallel and strictly lower: the kept line is dominated
            sl.pop(), it.pop(), ks.pop()
            if th:
                th.pop()
        while sl:
            x = (c - it[-1]) / (sl[-1] - s)
            # Queries live on q > 0; a line whose takeover point is at or
            # before its predecessor's is never strictly best.
            prev = th[-1] if th else 0.0
            if x <= prev:
                sl.pop(), it.pop(), ks.pop()
                if th:
                    th.pop()
            else:
                th.append(x)
                break
        sl.append(s)
        it.append(c)
        ks.append(k)
    return ReferenceEnvelope(
        slope=np.array(sl),
        inter=np.array(it),
        thresh=np.array(th),
        k=np.array(ks, dtype=np.int64),
    )


def reference_axis_arrays(s, values, n):
    """Organization ``n``'s factors of F along the lattice ``values``:
    ``g = exp(eps_n / (N varrho))`` and ``lin_n * values``, with F =
    ``exp(-1/varrho) * prod_n g_n + sum_n lin_n * values``."""
    from cocogen import economics, game

    g = np.exp(economics._local_errors(s, values, True, n) / (s.n * s.economy.varrho))
    return g, game._linear_coeffs(s)[n] * values


def reference_grid_axes(s):
    """The lattice values and the first axis's factors of F:
    ``bg0 = exp(-1/varrho) * g0`` and ``lin0``."""
    values = reference_lattice(s)
    g0, lin0 = reference_axis_arrays(s, values, 0)
    return values, math.exp(-1.0 / s.economy.varrho) * g0, lin0


_SCAN_ROWS = 128  # rows per temporary of the full scan


def reference_grid_scan(s):
    """The full scan of the N <= 3 lattice: the lattice values, each
    first-axis row's smallest F, and the lexicographically first argmin's
    indices (the innermost axis of N = 3 through the reference lower
    envelope)."""
    values, bg0, lin0 = reference_grid_axes(s)
    if s.n == 1:
        f = bg0 + lin0
        return values, f, (int(np.argmin(f)),)
    g1, lin1 = reference_axis_arrays(s, values, 1)
    env = reference_lower_envelope(*reference_axis_arrays(s, values, 2)) if s.n == 3 else None
    row_min = np.empty(values.size)
    best_val, best = np.inf, None
    for i0 in range(0, values.size, _SCAN_ROWS):
        i1 = min(i0 + _SCAN_ROWS, values.size)
        if env is None:
            f = bg0[i0:i1, None] * g1[None, :] + lin0[i0:i1, None] + lin1[None, :]
        else:
            q = bg0[i0:i1, None] * g1[None, :]
            h = np.searchsorted(env.thresh, q, side="left")
            f = q * env.slope[h] + env.inter[h] + (lin0[i0:i1, None] + lin1[None, :])
        row_min[i0:i1] = f.min(axis=1)
        flat = int(np.argmin(f))
        if f.flat[flat] < best_val:
            best_val = f.flat[flat]
            best = (i0 + flat // values.size, flat % values.size)
            if env is not None:
                best += (int(env.k[h.flat[flat]]),)
    return values, row_min, best


def reference_grid_oracle(s):
    """(profile, f_min) of the full scan, ``f_min`` through ``game.potential``."""
    from cocogen import game

    values, _, idx = reference_grid_scan(s)
    profile = values[list(idx)]
    return profile, game.potential(s, profile)


# ---------------------------------------------------------------------------
# Reference curve fit: ``cocogen.scaling._LogLinear.fit`` as it priced one
# offset per call, before the grid was priced in blocks. The batched call
# must return these results bit for bit, None where they are None.
# ---------------------------------------------------------------------------


def reference_log_linear_fit(curve, delta):
    """(alpha, beta, rmse) of the line through log(eps + delta) on the
    curve's terms, or None if infeasible: some eps + delta is not positive,
    alpha or beta is not positive, or alpha or the RMSE is not finite."""
    shifted = curve.eps + delta
    if (shifted <= 0).any():
        return None
    y = np.log(shifted)
    y_mean = y.sum() / curve.n
    sxy = float(np.dot(curve.x_centred, y - y_mean))
    slope = sxy / curve.sxx
    beta = -slope
    try:
        alpha = math.exp(y_mean - slope * curve.x_mean)
    except OverflowError:
        return None
    if not (alpha > 0 and beta > 0):
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        pred = alpha * np.exp(-beta * curve.log_d) - delta
        rmse = math.sqrt(((pred - curve.eps) ** 2).sum() / curve.n)
    return (alpha, beta, rmse) if math.isfinite(rmse) else None

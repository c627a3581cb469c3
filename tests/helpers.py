"""Shared scenario builders for the test suite."""

from __future__ import annotations

import math
from types import SimpleNamespace

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
    validate_scenario,
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
    validate=True,
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
    s = Scenario(
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
    return validate_scenario(s) if validate else s


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


def org_row(s, n):
    """Organization ``n``'s parameters as Python floats, by column name."""
    return SimpleNamespace(**{name: float(getattr(s, name)[n]) for name in ORG_COLUMNS})


def random_profile(s, seed, lo=None, hi=None):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 7], dtype=np.uint64)))
    lo = float(s.bounds.d_min) if lo is None else lo
    hi = float(s.bounds.d_max) if hi is None else hi
    return rng.uniform(lo, hi, size=s.n)


# ---------------------------------------------------------------------------
# Reference oracle: the per-organization economics exactly as first written
# (one scalar call per organization and per counterfactual). The batched
# core in ``cocogen.economics`` must reproduce it bit for bit; nothing here
# calls into that module.
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
    held = d.copy()
    held[n] = float(s.bounds.d_min)
    return _ref_global_error(s, d) - _ref_global_error(s, held)


def _ref_total_payoff(s, d, n):
    gamma_row = np.asarray(s.market.gamma[n])
    if s.economy.bb_mode is PayoffMode.ANTISYMMETRIC:
        mc = np.array([_ref_marginal_contribution(s, d, m) for m in range(s.n)])
        gaps = mc[n] - mc
    else:
        gaps = np.full(s.n, _ref_marginal_contribution(s, d, n))
    terms = s.market.xi * gamma_row * gaps
    terms[n] = 0.0
    return float(terms.sum())


def _ref_coopetition_loss(s, d, n):
    mc = _ref_marginal_contribution(s, d, n)
    terms = np.asarray(s.market.phi) * np.asarray(s.market.gamma[n]) * mc
    terms[n] = 0.0
    return float(terms.sum())


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


# ---------------------------------------------------------------------------
# Reference NE scan: each deviation's utility composed term by term, as
# ``cocogen.solver.verify_ne`` priced it before it took gains from the
# deviation identity. The identity must reproduce these gains to 1e-12
# relative to 1 + |u_n|.
# ---------------------------------------------------------------------------


def reference_unilateral_utilities(s: Scenario, profile: np.ndarray, n: int, xs: np.ndarray):
    """Utility of organization ``n`` at every deviation in ``xs`` (vectorized).

    Composes the same terms, in the same order, as one row of
    :func:`economics.evaluate_profiles`.
    """
    from cocogen import economics

    eps_base = economics.local_errors(s, profile)
    varrho = s.economy.varrho
    eps_n = economics._own_errors(s, n, xs)
    others = float(eps_base.sum() - eps_base[n])
    err = np.exp(((others + eps_n) / s.n - 1.0) / varrho)

    d_min = float(s.bounds.d_min)
    gamma_row = np.asarray(s.market.gamma[n]).copy()
    gamma_row[n] = 0.0

    # Counterfactual with n itself at d_min: constant in the deviation.
    eps_n_min = float(economics._own_errors(s, n, d_min))
    err_cf_n = math.exp(((others + eps_n_min) / s.n - 1.0) / varrho)
    mc_n = err - err_cf_n

    if s.economy.bb_mode is PayoffMode.ANTISYMMETRIC:
        payoff = np.zeros_like(xs, dtype=np.float64)
        for m in range(s.n):
            if m == n or gamma_row[m] == 0.0:
                continue
            eps_m_min = float(economics._own_errors(s, m, d_min))
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


def reference_ne_gains(s, profile, grid_step=1.0):
    """The unilateral lattice scan of ``cocogen.solver.verify_ne`` as it
    priced utilities before the deviation identity: per organization, the
    deviation lattice, the gains ``u_n(x) - u_n(d)`` and the verdict with
    the solver's tolerance."""
    from cocogen import economics, solver

    d = np.asarray(profile, dtype=np.float64)
    lo, hi = float(s.bounds.d_min), float(s.bounds.d_max)
    xs = lo + grid_step * np.arange(int(math.floor((hi - lo) / grid_step)) + 1)
    current = economics.evaluate_profile(s, d).utilities
    gains = []
    is_ne = True
    for n in range(s.n):
        u_ref = current[n].utility
        g = reference_unilateral_utilities(s, d, n, xs) - u_ref
        gains.append(g)
        if g.max() > solver.NE_IMPROVEMENT_TOLERANCE * (1.0 + abs(u_ref)):
            is_ne = False
    return xs, gains, is_ne


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
    return float(eps.mean()), economics._marginal_costs(s)[n] / game.z_weight(s, n)


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
    from cocogen.model import StrategyProfile, validate_scenario

    validate_scenario(s)
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

    return solver.SolveReport(
        profile=StrategyProfile(_ref_restore_integers(s, d)),
        cases=tuple(_ref_case_label(s, d, n) for n in range(s.n)),
        iterations=iterations,
        potential_trace=tuple(trace),
        converged=converged,
        scenario=s,
    )


def assert_lattice_equilibrium(s, d):
    """No ±1 move of one organization lowers the potential at the integer
    profile ``d``. F is convex along every coordinate, so this holds
    exactly when no organization gains from any unilateral lattice
    deviation. The profile and its feasible neighbours are priced in one
    batch, so the comparison is between values computed the same way."""
    from cocogen import game

    d = np.asarray(d, dtype=np.float64)
    assert np.array_equal(d, np.round(d)), d
    lo, hi = float(s.bounds.d_min), float(s.bounds.d_max)
    assert np.all((lo <= d) & (d <= hi)), d
    rows = d + np.vstack([np.zeros(s.n), np.eye(s.n), -np.eye(s.n)])
    rows = rows[np.all((rows >= lo) & (rows <= hi), axis=1)]
    f = game.potential_batch(s, rows)
    assert np.all(f[0] <= f[1:]), (d, f[0] - f[1:])


def reference_scheme_rows(s, cfg, radg_seed, radg_count):
    """Scheme rows as first written: the CoCoGen, VCFL and WCO profiles each
    priced alone through ``economics.evaluate_profile`` and the RaDG draws as
    their own matrix. Also returns the WCO profile's welfare under its
    zero-competition clone (NaN if that solve failed)."""
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
        rep = solver.fpi_solve(s, cfg)
        ev = economics.evaluate_profile(s, rep.profile)
        row("CoCoGen", ev.welfare, float(np.mean(rep.profile.d_gen)), all(ev.ir), ev.bb_sum,
            rep.converged)
    except CocogenError as exc:
        failed("CoCoGen", exc)

    prof = baselines.vcfl_profile(s)
    ev = economics.evaluate_profile(s, prof)
    row("VCFL", ev.welfare, float(np.mean(prof.d_gen)), all(ev.ir), ev.bb_sum, True)

    clone_welfare = math.nan
    try:
        wco = baselines.wco_solve(s, cfg)
        ev = economics.evaluate_profile(s, wco.profile)
        row("WCO", ev.welfare, float(np.mean(wco.profile.d_gen)), all(ev.ir), ev.bb_sum,
            wco.converged)
        clone_welfare = economics.evaluate_profile(
            baselines.wco_scenario(s), wco.profile
        ).welfare
    except CocogenError as exc:
        failed("WCO", exc)

    draws = baselines.radg_profiles(s, radg_seed, radg_count)
    ev = economics.evaluate_profiles(s, draws)
    row("RaDG", float(np.mean(ev.welfare)), float(np.mean(draws.mean(axis=1))),
        bool(ev.ir.all()), float(np.mean(ev.bb_sum)), True)
    return rows, clone_welfare


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
    from cocogen import game

    lo, hi = float(s.bounds.d_min), float(s.bounds.d_max)
    steps = np.vstack([np.zeros(s.n), np.eye(s.n), -np.eye(s.n)])
    while True:
        rows = d + steps
        rows = rows[np.all((rows >= lo) & (rows <= hi), axis=1)]
        k = int(np.argmin(game.potential_batch(s, rows)))
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
    while b - a > cfg.tol and steps < cfg.max_iters:
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

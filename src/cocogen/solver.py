"""Nash-equilibrium computation: the equilibrium solve (a scalar root in
the mean local error, then rounding and ±1 descent on the potential), an
exhaustive grid oracle, and equilibrium certification, which finds each
organization's best unilateral lattice move from its lattice neighbours
(or the lattice's ends) and the shape of its gain.

Each report labels every organization's coordinate as bound-pinned or
interior by where its stationary point at the root lies against the box.
The labels are a diagnostic: the profile comes from the root and the
descent alone.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import economics, game
from .errors import InstanceTooLarge, InvariantViolation, ZeroTotalData
from .kernels import argmin_2d, argmin_3d, build_lower_envelope
from .model import (
    ProfileLike,
    Scenario,
    StrategyProfile,
    _readonly,
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
    solved on when ``evaluation`` or ``welfare`` is first read."""

    profile: StrategyProfile
    cases: tuple[str, ...]
    iterations: int
    potential_trace: tuple[float, ...]
    converged: bool
    scenario: Scenario = field(compare=False, repr=False)
    ne_certificate: "NeCertificate | None" = None

    @cached_property
    def evaluation(self) -> economics.ProfileMatrixEvaluation:
        """The profile's one-row read-out."""
        return economics.evaluate_profile(self.scenario, self.profile)

    @property
    def welfare(self) -> float:
        return float(self.evaluation.welfare[0])

    def to_dict(self) -> dict:
        ev = self.evaluation
        columns = zip(ev.revenue[0].tolist(), ev.payoff_in[0].tolist(), ev.cost[0].tolist(),
                      ev.coopetition_loss[0].tolist(), ev.utility[0].tolist())
        out = {
            "profile": [float(x) for x in self.profile.d_gen],
            "cases": list(self.cases),
            "iterations": self.iterations,
            "potential_trace": [float(x) for x in self.potential_trace],
            "converged": self.converged,
            "utilities": [
                {"revenue": r, "payoff_in": p, "cost": c, "server_fee": ev.server_fee,
                 "coopetition_loss": loss, "utility": u}
                for r, p, c, loss, u in columns
            ],
            "welfare": self.welfare,
            "ir": ev.ir[0].tolist(),
            "bb": {"sum": float(ev.bb_sum[0]), "balanced": bool(ev.bb_balanced[0])},
        }
        if self.ne_certificate is not None:
            out["ne_certificate"] = self.ne_certificate.to_dict()
        return out


def _growth(s: Scenario, a1: float) -> float:
    """``exp((a1 - 1) / varrho)`` at mean local error a1, saturating to +inf
    instead of raising on overflow."""
    try:
        return math.exp((a1 - 1.0) / s.economy.varrho)
    except OverflowError:
        return math.inf


def _stationary_points(s: Scenario, factor: np.ndarray, a1: float) -> np.ndarray:
    """Closed-form unconstrained stationary value of every coordinate, given
    a1 and the stationary factor ``N varrho lin / (alpha beta)``, where
    ``lin`` is F's linear coefficient (:func:`game._linear_coeffs`).

    A bracket ``factor / growth`` that overflows puts the stationary point
    below every feasible volume (it tends to ``-d_loc``); one that
    underflows to zero, or whose power overflows, puts it above every
    volume (``+inf``). Clipping handles the rest.
    """
    exponent = s.cached("stationary_exponent", lambda: -1.0 / (s.beta + 1.0))
    with np.errstate(over="ignore", divide="ignore"):
        return (factor / _growth(s, a1)) ** exponent - s.d_loc


def _labels(s: Scenario, factor: np.ndarray, a1: float) -> tuple[str, ...]:
    """Every organization's case label at mean local error a1: where its
    stationary point lies against the box. F is convex along each
    coordinate, so a point below (above) the box is the potential's
    gradient being positive (negative) at that bound."""
    lo, hi = float(s.bounds.d_min), float(s.bounds.d_max)
    return tuple(
        CaseLabel.LOWER_BOUND if d < lo else CaseLabel.UPPER_BOUND if d > hi
        else CaseLabel.INTERIOR
        for d in _stationary_points(s, factor, a1).tolist()
    )


def _relaxed(s: Scenario, factor: np.ndarray, t: float):
    """``g(t) = t - mean eps(d(t))``, the clipped stationary profile ``d(t)``
    at mean local error t, and its local errors."""
    d = _stationary_points(s, factor, t)
    d = np.minimum(np.maximum(d, float(s.bounds.d_min)), float(s.bounds.d_max))
    eps = economics._local_errors(s, d)
    return t - float(eps.sum() / s.n), d, eps  # np.mean's bits, without its wrapper


@lru_cache(maxsize=8)
def _steps(n: int) -> np.ndarray:
    """The zero move and every ±1 move of one coordinate, as read-only rows."""
    return _readonly(np.vstack([np.zeros(n), np.eye(n), -np.eye(n)]))


def _descend(s: Scenario, d: np.ndarray) -> np.ndarray:
    """Move one coordinate by one sample while that strictly lowers F. The
    profile and its ±1 neighbours are priced in one batch, so that they are
    compared on values computed the same way."""
    lo, hi = float(s.bounds.d_min), float(s.bounds.d_max)
    steps = _steps(s.n)
    while True:
        rows = d + steps
        rows = rows[np.all((rows >= lo) & (rows <= hi), axis=1)]
        f = game.potential_from_errors(s, economics._local_errors(s, rows), rows)
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
    factor = game._linear_coeffs(s) * s.n * s.economy.varrho / (s.alpha * s.beta)
    a = float(economics._local_errors(s, np.full(s.n, float(s.bounds.d_max))).mean())
    b = float(economics._floor_errors(s).mean())
    g_a, g_b = _relaxed(s, factor, a), _relaxed(s, factor, b)
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
        point = _relaxed(s, factor, t)
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
        profile=StrategyProfile(_descend(s, np.floor(d + 0.5))),
        cases=_labels(s, factor, float(eps.mean())),
        iterations=len(trace),
        potential_trace=tuple(trace),
        converged=b - a <= cfg.tol,
        scenario=s,
    )


# ---------------------------------------------------------------------------
# Exhaustive grid oracle. The potential factorizes over coordinates as
#   F(d) = exp(-1/varrho) * prod_n exp(eps_n(d_n) / (N varrho)) + sum_n w_n d_n,
# so the innermost axis of the 3-d scan reduces exactly to a lower-envelope
# query (see cocogen.kernels); the first axis is searched row by row under
# chord bounds.
# ---------------------------------------------------------------------------

MAX_ORACLE_ORGS = 3
MAX_POINTS_PER_AXIS = 3001


@dataclass(frozen=True)
class GridOracleResult:
    profile: StrategyProfile
    f_min: float


def _last_index(s: Scenario, step: float, name: str) -> int:
    """The largest k with ``d_min + step * k <= d_max``."""
    last = (float(s.bounds.d_max) - float(s.bounds.d_min)) / step if step > 0 else math.nan
    if not (math.isfinite(step) and math.isfinite(last)):
        raise InvariantViolation(name, f"must be finite, > 0 and index a float lattice, got {step}")
    return math.floor(last)


def _axis_arrays(s: Scenario, values: np.ndarray, n: int):
    eps = economics._own_errors(s, n, values)
    g = np.exp(eps / (s.n * s.economy.varrho))
    return g, game._linear_coeffs(s)[n] * values


# Margin of a row bound, relative to the magnitudes it is made of. The
# kernels price each point with a few roundings of positive terms, and near
# a breakpoint the 3-d kernel may price a line a few ulps above the exact
# lower envelope, so every computed row minimum lies within about 1e-15 of
# the exact one, relatively; 1e-12 is far above that error.
_BOUND_MARGIN = 1e-12


def _row_scan(s: Scenario, values: np.ndarray, bg0: np.ndarray, lin0: np.ndarray):
    """``scan(r)``: the kernel's exact scan of first-axis row ``r`` for N =
    2 or 3, as (F, 0, other indices), pricing every point as the full scan
    does. ``bg0`` and ``lin0`` are the first axis's factors."""
    g1, lin1 = _axis_arrays(s, values, 1)
    if s.n == 2:
        return lambda r: argmin_2d(bg0[r : r + 1], lin0[r : r + 1], g1, lin1)
    env = build_lower_envelope(*_axis_arrays(s, values, 2))
    return lambda r: argmin_3d(bg0[r : r + 1], lin0[r : r + 1], g1, lin1, env)


def _chord_bounds(rows: np.ndarray, bg0: np.ndarray, lin0: np.ndarray, fa: float, fb: float):
    """Lower bounds on the row minima of ``rows[1:-1]``, from the computed
    minima ``fa`` and ``fb`` of the end rows; ``rows`` ascend in ``bg0``.

    Row r's minimum is H(bg0[r]) + lin0[r], where H(q) is the minimum over
    the other axes of q * g1[j] (* g2[k]) + lin1[j] (+ lin2[k]). H is a
    minimum of lines in q, so it is concave for every scenario, and between
    the end rows' q it lies on or above the chord through their H values.
    """
    q, lin = bg0[rows], lin0[rows]
    ha, hb = fa - lin[0], fb - lin[-1]
    if q[-1] > q[0]:
        h = ha + (q[1:-1] - q[0]) / (q[-1] - q[0]) * (hb - ha)
    else:
        h = np.full(rows.size - 2, min(ha, hb))
    bound = h + lin[1:-1] - _BOUND_MARGIN * (max(abs(fa), abs(fb)) + np.abs(lin[1:-1]))
    return np.where(np.isnan(bound), -np.inf, bound)


def _row_search(scan, bg0: np.ndarray, lin0: np.ndarray):
    """(F, row, other indices) of the lexicographically first grid argmin.

    Rows are taken in ascending ``bg0``. The first and last are scanned
    exactly; then the run of unscanned rows between two scanned ones whose
    smallest chord bound is lowest has the row at that bound scanned (kept
    a quarter of the run from either end, so runs shrink geometrically),
    which splits the run in two. Candidates compare by (F, row), and the
    search stops once no run's bound is below the best F: the margin makes
    every bound strictly less than the F its row computes, so no unscanned
    row can then hold a smaller F, nor an equal F in an earlier row.
    """
    order = np.argsort(bg0, kind="stable")
    m = order.size
    f = np.empty(m)
    best = (math.inf, m, ())
    heap: list[tuple[float, int, int, int]] = []

    def visit(p: int):
        nonlocal best
        r = int(order[p])
        val, _, *rest = scan(r)
        f[p] = val
        best = min(best, (val, r, tuple(rest)))

    def push(a: int, b: int):
        if b - a >= 2:
            bound = _chord_bounds(order[a : b + 1], bg0, lin0, f[a], f[b])
            k = int(np.argmin(bound))
            heapq.heappush(heap, (float(bound[k]), a, b, a + 1 + k))

    visit(0)
    if m > 1:
        visit(m - 1)
        push(0, m - 1)
    while heap and heap[0][0] < best[0]:
        _, a, b, p = heapq.heappop(heap)
        quarter = (b - a) // 4
        p = min(max(p, a + quarter), b - quarter)
        visit(p)
        push(a, p)
        push(p, b)
    return best


def grid_oracle(s: Scenario, step: float = 1.0) -> GridOracleResult:
    """Exhaustively minimize the potential over the strategy lattice.

    The result is that of a scan of every grid point: the row search skips
    only first-axis rows that its chord bounds show cannot hold the first
    minimum, and prices every point it scans as the full scan does. It
    assumes nothing of the scenario's shape and uses no solver output.
    Ties break toward the lexicographically smallest profile. The reported
    minimum re-evaluates the winning profile through :func:`game.potential`
    so it is directly comparable with solver output.
    """
    validate_scenario(s)
    if s.n > MAX_ORACLE_ORGS:
        raise InstanceTooLarge(f"grid oracle supports N <= {MAX_ORACLE_ORGS}, got {s.n}")
    count = _last_index(s, step, "step") + 1
    if count > MAX_POINTS_PER_AXIS:
        raise InstanceTooLarge(
            f"{count} points per axis exceeds the {MAX_POINTS_PER_AXIS} guard"
        )
    values = float(s.bounds.d_min) + step * np.arange(count)
    if np.any(s.d_loc + values[0] <= 0):
        raise ZeroTotalData("grid includes a zero-total-data point")

    b = math.exp(-1.0 / s.economy.varrho)
    g0, lin0 = _axis_arrays(s, values, 0)
    bg0 = b * g0
    if s.n == 1:
        idx = (int(np.argmin(bg0 + lin0)),)
    else:
        _, i, rest = _row_search(_row_scan(s, values, bg0, lin0), bg0, lin0)
        idx = (i, *rest)

    profile = np.array([values[i] for i in idx])
    return GridOracleResult(
        profile=StrategyProfile(profile), f_min=game.potential(s, profile)
    )


# ---------------------------------------------------------------------------
# Equilibrium certification from each organization's lattice neighbours.
# Organization n's gain from moving to volume x is
#   g_n(x) = A_n * (err(x, d_-n) - err(d)) - c_n * (x - d_n),
# with A_n from game._deviation_weights, which does not depend on d_n, and
# err convex in x. So g_n is concave when A_n < 0, and its lattice maximum
# lies next to d_n or, on the side where a neighbour gains, where the
# discrete slope changes sign; when A_n >= 0 it is convex, and its maximum
# lies at an end of the lattice.
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
_SEARCH_PROBES = 64
_PROBE_FRACTIONS = np.arange(_SEARCH_PROBES) / (_SEARCH_PROBES - 1)


def _best_deviations(s: Scenario, d: np.ndarray, grid_step: float):
    """Every organization's best unilateral move on the lattice
    ``d_min + grid_step * k`` and its gain, as two (N,) arrays; ties go to
    the smallest volume, and not moving gains 0.0.

    Prices 3 volumes per organization, plus ``2 * _SEARCH_PROBES`` per
    search step for each organization whose concave gain rises away from
    ``d_n``; a step divides the index range it searches by about
    ``_SEARCH_PROBES``.
    """
    lo = float(s.bounds.d_min)
    last = float(_last_index(s, grid_step, "grid_step"))
    eps = economics._local_errors(s, d)
    weights = game._deviation_weights(s, eps)
    costs = economics._marginal_costs(s)
    rest = eps.sum() - eps  # the others' errors, summed as the whole is

    def volumes(k):
        return lo + grid_step * k

    def errors(orgs, x):
        return np.exp(((rest[orgs] + economics._own_errors(s, orgs, x)) / s.n - 1.0)
                      / s.economy.varrho)

    # The lattice neighbours of d_n: k is the lattice index nearest to it,
    # and d_n is on the lattice if k's volume is d_n.
    k = np.clip(np.rint((d - lo) / grid_step), 0.0, last)
    near = volumes(k)
    on = near == d
    concave = weights < 0
    # Concave: the neighbours below and above d_n; convex: the two ends. A
    # neighbour past an end of the lattice is priced at that end.
    lower = np.where(concave, k - (near >= d), 0.0)
    upper = np.where(concave, k + (near <= d), last)
    x = np.empty((s.n, 3))
    x[:, 0] = volumes(np.maximum(lower, 0.0))
    x[:, 1] = d  # err(d), priced in the same call as the moves' errors
    x[:, 2] = volumes(np.minimum(upper, last))
    every = np.s_[:, None]
    err = errors(every, x)
    err_d = err[:, 1]

    def gains(orgs, x, err):
        # Adding the cost term keeps a zero gain unsigned.
        return weights[orgs] * (err - err_d[orgs]) + costs[orgs] * (d[orgs] - x)

    g = gains(every, x, err)
    g[:, 1] = np.where(concave & on, 0.0, -np.inf)  # not moving
    col = np.argmax(g, axis=1)  # the columns ascend in volume
    idx = np.arange(s.n)
    best_x, best_g = x[idx, col], g[idx, col]

    # Where a concave gain rises away from d_n, search that side for the
    # first index whose successor gains no more. Each step prices evenly
    # spaced probes from a to b - 1 of the range [a, b] and their
    # successors, and keeps the part between the last probe whose slope is
    # positive and the first whose slope is not; a range of one index stays
    # as it is.
    rising = np.flatnonzero(concave & (best_g > 0))
    if rising.size:
        r = rising[:, None]
        up = best_x[rising] > d[rising]
        a = np.where(up, np.minimum(upper[rising], last), 0.0)
        b = np.where(up, last, np.maximum(lower[rising], 0.0))
        rows = np.arange(rising.size)
        while np.any(a < b):
            probes = a[:, None] + np.floor((b - 1.0 - a)[:, None] * _PROBE_FRACTIONS)
            x = volumes(np.concatenate([probes, probes + 1.0], axis=1))
            pair = gains(r, x, errors(r, x))
            slope_up = pair[:, _SEARCH_PROBES:] > pair[:, :_SEARCH_PROBES]
            j = slope_up.cumprod(axis=1).sum(axis=1)  # the first probe not rising
            ends = np.concatenate([(a - 1.0)[:, None], probes, b[:, None]], axis=1)
            b = ends[rows, j + 1]
            a = np.minimum(ends[rows, j] + 1.0, b)
        x = volumes(a)
        top = gains(rising, x, errors(rising, x))
        better = (top > best_g[rising]) | ((top == best_g[rising]) & (x < best_x[rising]))
        best_x[rising] = np.where(better, x, best_x[rising])
        best_g[rising] = np.where(better, top, best_g[rising])
    return best_x, best_g


def verify_ne(s: Scenario, profile: ProfileLike, grid_step: float = 1.0) -> NeCertificate:
    """Certify that no organization gains more than the tolerance from any
    unilateral move on the lattice, as a scan of every move would: the
    worst deviation is the first organization's with the largest gain. The
    profile's utilities are priced only if some move gains more than 0."""
    d = as_dgen(profile, s.n)
    alts, gains = _best_deviations(s, d, grid_step)
    worst_gain = -math.inf
    worst_org = 0
    worst_alt = float(d[0])
    for n, (alt, gain) in enumerate(zip(alts.tolist(), gains.tolist())):
        if gain > worst_gain:
            worst_gain, worst_org, worst_alt = gain, n, alt
    is_ne = True
    if worst_gain > 0:
        utilities = economics.evaluate_profiles(s, d[None, :]).utility[0]
        is_ne = not np.any(gains > NE_IMPROVEMENT_TOLERANCE * (1.0 + np.abs(utilities)))
    return NeCertificate(
        is_ne=is_ne, worst_org=worst_org, worst_d_alt=worst_alt, worst_gain=worst_gain
    )

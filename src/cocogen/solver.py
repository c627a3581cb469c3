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
from functools import cached_property, lru_cache, partial
from typing import Callable

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
    "solve_games",
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
        if not (0 < self.tol < math.inf):
            raise ValueError("tol must be finite and > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class SolveReport:
    """An equilibrium and how it was found; priced on the scenario it was
    solved on when ``evaluation`` or ``welfare`` is first read, and its
    case labels and potential trace computed by ``labels()`` and
    ``trace()`` when first read."""

    profile: StrategyProfile
    labels: Callable[[], tuple[str, ...]] = field(compare=False, repr=False)
    iterations: int
    trace: Callable[[], tuple[float, ...]] = field(compare=False, repr=False)
    converged: bool
    scenario: Scenario = field(compare=False, repr=False)
    ne_certificate: "NeCertificate | None" = None

    @cached_property
    def cases(self) -> tuple[str, ...]:
        return self.labels()

    @cached_property
    def potential_trace(self) -> tuple[float, ...]:
        return self.trace()

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


def _stationary_points(s: Scenario, factor: np.ndarray, a1: list[float]) -> np.ndarray:
    """Closed-form unconstrained stationary value of every coordinate of J
    games, given each game's mean local error ``a1[j]`` and its row of the
    (J, N) stationary factor ``N varrho lin / (alpha beta)``, where ``lin``
    is F's linear coefficient (:func:`game._linear_coeffs`). For one game
    the factor may also be its (N,) row, and so is the result.

    A bracket ``factor / growth`` that overflows puts the stationary point
    below every feasible volume (it tends to ``-d_loc``); one that
    underflows to zero, or whose power overflows, puts it above every
    volume (``+inf``). Clipping handles the rest.
    """
    exponent = s.cached("stationary_exponent", lambda: -1.0 / (s.beta + 1.0))
    growth = [_growth(s, t) for t in a1]
    # One game divides by a float, which numpy does faster than by a column.
    growth = growth[0] if len(growth) == 1 else np.array(growth)[:, None]
    with np.errstate(over="ignore", divide="ignore"):
        return (factor / growth) ** exponent - s.d_loc


def _labels(s: Scenario, factor: np.ndarray, a1: float) -> tuple[str, ...]:
    """Every organization's case label in one game, whose row of the
    stationary factor is ``factor``, at mean local error ``a1``: where its
    stationary point lies against the box. F is convex along each
    coordinate, so a point below (above) the box is the potential's gradient
    being positive (negative) at that bound."""
    lo, hi = float(s.bounds.d_min), float(s.bounds.d_max)
    return tuple(CaseLabel.LOWER_BOUND if x < lo else CaseLabel.UPPER_BOUND if x > hi
                 else CaseLabel.INTERIOR for x in _stationary_points(s, factor, [a1]).tolist())


def _relaxed(s: Scenario, factor: np.ndarray, t: list[float]):
    """For row j of the (J, N) factor at mean local error ``t[j]``: the
    clipped stationary profiles ``d(t)`` and their local errors, as (J, N)
    arrays, and the mean local errors, as a list."""
    # One game is priced as an (N,) row: numpy runs that faster than a
    # (1, N) row broadcast against the scenario's (N,) columns.
    one = len(t) == 1
    d = _stationary_points(s, factor[0] if one else factor, t)
    d = np.minimum(np.maximum(d, float(s.bounds.d_min)), float(s.bounds.d_max))
    eps = economics._local_errors(s, d, in_box=True)
    mean = (eps.sum(axis=-1) / s.n).tolist()  # np.mean's bits, without its wrapper
    return (d[None], eps[None], [mean]) if one else (d, eps, mean)


@lru_cache(maxsize=8)
def _steps(n: int) -> np.ndarray:
    """The zero move and every ±1 move of one coordinate, as read-only rows."""
    return _readonly(np.vstack([np.zeros(n), np.eye(n), -np.eye(n)]))


def _descend(s: Scenario, d: np.ndarray, lin: np.ndarray) -> np.ndarray:
    """Move one coordinate of each row of the (J, N) profiles ``d`` by one
    sample while that strictly lowers that row's F, whose linear
    coefficient is the same row of ``lin``. Every moving row's in-box ±1
    neighbours are priced in one batch, and each row's are compared on
    values computed as for that row alone; not moving wins ties."""
    lo, hi = float(s.bounds.d_min), float(s.bounds.d_max)
    steps = _steps(s.n)
    moving = list(range(len(d)))
    while moving:
        # The whole matrix while every game moves: a view costs less than a copy.
        rows = (d if len(moving) == len(d) else d[moving])[:, None, :] + steps
        inside = ((rows >= lo) & (rows <= hi)).all(axis=2)
        rows = rows[inside]  # each row's in-box moves in order, one row after another
        eps = economics._local_errors(s, rows, in_box=True)
        still, start = [], 0
        for j, count in zip(moving, inside.sum(axis=1).tolist()):
            end = start + count
            f = game.potential_from_errors(s, eps[start:end], rows[start:end], lin[j])
            k = int(np.argmin(f))
            if k:
                d[j] = rows[start + k]
                still.append(j)
            start = end
        moving = still
    return d


class _Bracket:
    """One game's Illinois regula falsi on ``g(t) = t - mean eps(d(t))``,
    guarded by bisection: the bracket [a, b], its g values, the side of the
    last two steps, each step's profile and local errors, and the last point
    evaluated (its profile and mean local error)."""

    __slots__ = ("a", "b", "fa", "fb", "side", "steps", "point")

    def __init__(self, a: float, b: float, fa: float, fb: float, point):
        self.a, self.b, self.fa, self.fb = a, b, fa, fb
        self.side = 0
        self.steps: list[tuple[np.ndarray, np.ndarray]] = []
        self.point = point
        if fa >= 0:
            self.b = a
        elif fb <= 0:
            self.a = b

    def next_t(self) -> float:
        a, b, fa, fb = self.a, self.b, self.fa, self.fb
        t = (a * fb - b * fa) / (fb - fa)
        return t if a < t < b else 0.5 * (a + b)

    def update(self, t: float, g_t: float) -> None:
        if g_t < 0:
            self.a, self.fa = t, g_t
            if self.side < 0:
                self.fb *= 0.5
            self.side = -1
        elif g_t > 0:
            self.b, self.fb = t, g_t
            if self.side > 0:
                self.fa *= 0.5
            self.side = 1
        else:
            self.a = self.b = t


def _error_bracket(s: Scenario) -> list[float]:
    """The mean local errors of the all-``d_max`` and all-``d_min``
    profiles, which bracket every game's root; built once per scenario."""

    def build():
        ceiling = economics._local_errors(s, float(s.bounds.d_max))
        return np.array([ceiling.sum(), economics._floor_errors(s).sum()]) / s.n  # np.mean's bits

    return s.cached("error_bracket", build).tolist()


def _potential_trace(s: Scenario, steps, lin: np.ndarray) -> tuple[float, ...]:
    """F, with linear coefficient ``lin``, at each step's (profile, local errors)."""
    return tuple(float(game.potential_from_errors(s, eps, d, lin)) for d, eps in steps)


def solve_games(s: Scenario, lin: np.ndarray, cfg: SolverConfig | None = None) -> list[SolveReport]:
    """Equilibria of the J integer games on the scenario's columns whose
    potentials differ only in F's linear coefficient, row j of the (J, N)
    matrix ``lin``: a scalar root per game, rounding, then descent.

    Each coordinate's clipped stationary point rises with the mean local
    error t, so ``g(t) = t - mean eps(d(t))`` is strictly increasing, with
    one root between the mean errors of the all-``d_max`` and all-``d_min``
    profiles. Illinois regula falsi, guarded by bisection, narrows each
    game's bracket to width ``tol`` in at most ``max_iters`` steps (else its
    report says not converged); the trace holds F at each step's profile,
    priced when first read.
    The case labels come from the last evaluated point, computed when first
    read, whose profile is rounded half up and then descended by ±1 moves.
    F is convex along every coordinate, so no organization gains from any
    unilateral lattice deviation after.

    Every game keeps its own bracket, but each step prices every unfinished
    game in one call and one descent moves every game. Each report equals
    the one of solving its game alone, field for field: every numpy step
    prices a row as it prices that row alone. The reports are priced on
    ``s`` when read.
    """
    validate_scenario(s)
    cfg = cfg or SolverConfig()
    lin = np.array(lin, dtype=np.float64)  # a copy: the traces read it later
    factor = lin * s.n * s.economy.varrho / (s.alpha * s.beta)
    games = len(lin)
    a, b = _error_bracket(s)
    d, _, mean = _relaxed(s, np.concatenate([factor, factor]), [a] * games + [b] * games)
    brackets = []
    for j in range(games):
        g_a, g_b = a - mean[j], b - mean[games + j]
        k = j if -g_a <= g_b else games + j
        brackets.append(_Bracket(a, b, g_a, g_b, (d[k], mean[k])))

    open_ = list(range(games))
    while True:
        open_ = [j for j in open_
                 if brackets[j].b - brackets[j].a > cfg.tol and len(brackets[j].steps) < cfg.max_iters]
        if not open_:
            break
        ts = [brackets[j].next_t() for j in open_]
        # The whole factor while every game is open, as in _descend.
        d, eps, mean = _relaxed(s, factor if len(open_) == games else factor[open_], ts)
        for i, j in enumerate(open_):
            r = brackets[j]
            r.point = (d[i], mean[i])
            r.steps.append((d[i], eps[i]))
            r.update(ts[i], ts[i] - mean[i])

    profiles = _descend(s, np.floor(np.array([r.point[0] for r in brackets]) + 0.5), lin)
    return [
        SolveReport(
            profile=StrategyProfile(profile),
            labels=partial(_labels, s, factor_row, r.point[1]),
            iterations=len(r.steps),
            trace=partial(_potential_trace, s, r.steps, row),
            converged=r.b - r.a <= cfg.tol,
            scenario=s,
        )
        for profile, r, row, factor_row in zip(profiles, brackets, lin, factor)
    ]


def fpi_solve(s: Scenario, cfg: SolverConfig | None = None) -> SolveReport:
    """Equilibrium of the scenario's integer game: :func:`solve_games` of
    its own linear coefficient."""
    validate_scenario(s)
    return solve_games(s, game._linear_coeffs(s)[None, :], cfg)[0]


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
# lies next to d_n or, on a side where g_n still rises past the neighbour,
# between that neighbour and the lattice's end; when A_n >= 0 it is convex,
# and its maximum lies at an end of the lattice.
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
_OUTWARD = np.array([-1.0, 1.0])  # a gain's slope below and above d_n, turned outward


def _best_deviations(s: Scenario, d: np.ndarray, grid_step: float):
    """Every organization's best unilateral move on the lattice
    ``d_min + grid_step * k`` and its gain, as two (N,) arrays; ties go to
    the smallest volume, and not moving gains 0.0.

    Prices 5 volumes per organization: the lattice's ends, the lattice
    neighbours of ``d_n`` and ``d_n``. Where a gain is concave, it also
    searches each side on which it may rise above 0 away from ``d_n``: where
    the end or the neighbour gains more than 0, or where the gain's
    derivative at the neighbour points away from ``d_n``. The derivative
    has no cancellation, so it keeps its sign where the neighbour's error
    change rounds to 0. A search step prices ``_SEARCH_PROBES`` volumes and
    divides the index range it searches by about ``_SEARCH_PROBES / 2``.
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
    # and d_n is on the lattice if k's volume is d_n. A neighbour past an
    # end of the lattice is priced at that end.
    k = np.clip(np.rint((d - lo) / grid_step), 0.0, last)
    near = volumes(k)
    lower, upper = k - (near >= d), k + (near <= d)
    # Columns ascending in volume: the low end, the lower neighbour, d_n
    # (its error priced in the same call as the moves'), the upper
    # neighbour and the high end.
    x = np.empty((s.n, 5))
    x[:, 0] = lo
    x[:, 1] = volumes(np.maximum(lower, 0.0))
    x[:, 2] = d
    x[:, 3] = volumes(np.minimum(upper, last))
    x[:, 4] = volumes(last)
    every = np.s_[:, None]
    err = errors(every, x)
    err_d = err[:, 2]

    def gains(orgs, x, err):
        # Adding the cost term keeps a zero gain unsigned.
        return weights[orgs] * (err - err_d[orgs]) + costs[orgs] * (d[orgs] - x)

    g = gains(every, x, err)
    concave = weights < 0
    g[:, 2] = np.where(concave & (near == d), 0.0, -np.inf)  # not moving
    col = np.argmax(g, axis=1)
    idx = np.arange(s.n)
    best_x, best_g = x[idx, col], g[idx, col]

    # The sides to search: (N, 2) flags for below and above d_n, where the
    # neighbour is not the end. slope is the gain's derivative at the
    # neighbour, turned to point away from d_n.
    ends, nbs = np.s_[:, 0:5:4], np.s_[:, 1:4:2]
    slope = _OUTWARD * (weights[every] * err[nbs] / (s.n * s.economy.varrho)
                        * economics._own_error_slopes(s, every, x[nbs]) - costs[every])
    search = (concave[every] & (x[nbs] != x[ends])
              & ((np.maximum(g[ends], g[nbs]) > 0) | (slope > 0)))
    orgs, sides = np.nonzero(search)
    if not orgs.size:
        return best_x, best_g
    # Index ranges [a, b] of at least two lattice points each, from the end
    # to the neighbour below d_n, or from the neighbour above it to the end.
    a = np.where(sides == 0, 0.0, upper[orgs])
    b = np.where(sides == 0, lower[orgs], last)
    # Each step prices evenly spaced probes from a to b and keeps the range
    # between the neighbours of the first best probe, which holds the first
    # lattice maximum of a concave gain; ranges of at most _SEARCH_PROBES
    # points are then priced whole.
    r = orgs[:, None]
    while True:
        wide = np.flatnonzero(b - a >= _SEARCH_PROBES)
        if not wide.size:
            break
        probes = a[wide, None] + np.floor((b - a)[wide, None] * _PROBE_FRACTIONS)
        x = volumes(probes)
        i = np.argmax(gains(r[wide], x, errors(r[wide], x)), axis=1)
        rows = np.arange(wide.size)
        a[wide] = probes[rows, np.maximum(i - 1, 0)]
        b[wide] = probes[rows, np.minimum(i + 1, _SEARCH_PROBES - 1)]
    x = volumes(np.minimum(a[:, None] + np.arange(_SEARCH_PROBES), b[:, None]))
    g = gains(r, x, errors(r, x))
    i = np.argmax(g, axis=1)
    rows = np.arange(orgs.size)
    # Each side's best move replaces its organization's if it gains more,
    # or as much at a smaller volume.
    for n, tx, tg in zip(orgs.tolist(), x[rows, i].tolist(), g[rows, i].tolist()):
        if tg > best_g[n] or (tg == best_g[n] and tx < best_x[n]):
            best_x[n], best_g[n] = tx, tg
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

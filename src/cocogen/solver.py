"""Nash-equilibrium computation: the equilibrium solve (a scalar root in
the mean local error, then rounding and ±1 descent on the potential), a
grid oracle that proves the potential's lattice minimum at any N, and
equilibrium certification, which finds each organization's best unilateral
lattice move from its lattice neighbours (or the lattice's ends) and the
shape of its gain.

Each report labels every organization's coordinate as bound-pinned or
interior by where its stationary point at the root lies against the box.
The labels are a diagnostic: the profile comes from the root and the
descent alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable

import numpy as np

from . import economics, game
from .errors import InstanceTooLarge, InvariantViolation
# Not called here: perfbench's span targets resolve these names in this module.
from .kernels import argmin_2d, argmin_3d, build_lower_envelope  # noqa: F401
from .model import ProfileLike, Scenario, StrategyProfile, _readonly, as_dgen

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
    tol: float = 1e-9  # the bracket on the mean local error closes at this width
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
    ``trace()`` when first read. ``converged`` says the root's bracket
    closed (at most ``tol`` wide, or at float resolution) within
    ``max_iters`` steps; the profile is a lattice minimum along every
    coordinate either way."""

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

    def closed(self, tol: float) -> bool:
        """At most ``tol`` wide, or two adjacent floats: no midpoint lies
        strictly inside, so no further step can narrow it."""
        a, b = self.a, self.b
        return b - a <= tol or not a < 0.5 * (a + b) < b

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
    game's bracket until it closes, at most ``tol`` wide or two adjacent
    floats, in at most ``max_iters`` steps; a report is ``converged`` when
    its bracket closed. The trace holds F at each step's profile, priced
    when first read.
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
    cfg = cfg or SolverConfig()
    lin = np.array(lin, dtype=np.float64)  # a copy: the traces read it later
    brackets, factor = _brackets(s, lin, cfg)
    profiles = _descend(s, np.floor(np.array([r.point[0] for r in brackets]) + 0.5), lin)
    return [
        SolveReport(
            profile=StrategyProfile(profile),
            labels=partial(_labels, s, factor_row, r.point[1]),
            iterations=len(r.steps),
            trace=partial(_potential_trace, s, r.steps, row),
            converged=r.closed(cfg.tol),
            scenario=s,
        )
        for profile, r, row, factor_row in zip(profiles, brackets, lin, factor)
    ]


def _brackets(s: Scenario, lin: np.ndarray, cfg: SolverConfig):
    """:func:`solve_games`'s root solve: each game's narrowed bracket, and
    the (J, N) stationary factor."""
    factor = lin * s.n * s.economy.varrho / (s.alpha * s.beta)
    games = len(lin)
    # The mean local errors (np.mean's bits) of the all-d_max and all-d_min
    # profiles bracket every game's root; built once per scenario.
    a, b = s.cached("error_bracket", lambda: np.array(
        [economics._ceiling_errors(s).sum(), economics._floor_errors(s).sum()]) / s.n).tolist()
    d, _, mean = _relaxed(s, np.concatenate([factor, factor]), [a] * games + [b] * games)
    brackets = []
    for j in range(games):
        g_a, g_b = a - mean[j], b - mean[games + j]
        k = j if -g_a <= g_b else games + j
        brackets.append(_Bracket(a, b, g_a, g_b, (d[k], mean[k])))

    open_ = list(range(games))
    while True:
        open_ = [j for j in open_
                 if not brackets[j].closed(cfg.tol) and len(brackets[j].steps) < cfg.max_iters]
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

    return brackets, factor


def fpi_solve(s: Scenario, cfg: SolverConfig | None = None) -> SolveReport:
    """Equilibrium of the scenario's integer game: :func:`solve_games` of
    its own linear coefficient."""
    return solve_games(s, game._linear_coeffs(s)[None, :], cfg)[0]


# ---------------------------------------------------------------------------
# Grid oracle: F's lattice minimum, proven from a box around the relaxed
# minimizer x that solve_games brackets. F is jointly convex (each eps_n is
# convex, exp of their mean is convex, the rest is linear), so with
# g = err(x) eps'(x) / (N varrho) + lin,
#   LB = F(x) + sum_n min(g_n (d_min - x_n), g_n (d_max - x_n))
# lies below F on the box. On a box [d_min, top] that holds x, F's Hessian
# is at least diag(m_n), m_n = err(top) eps_n''(top_n) / (N varrho), since
# err and eps_n'' fall with d. So F(d) >= LB + m_n (d_n - x_n)^2 / 2, and,
# with d_near the lattice point nearest x, every lattice d with
# F(d) <= F(d_near) has |d_n - x_n| <= r_n = sqrt(2 (F(d_near) - LB) / m_n).
# Recomputing m_n at top = min(top, x + r) shrinks the box until its lattice
# points stop changing, or are few; pricing each of them finds the first
# argmin.
#
# Rounding. F = err + lin . d has two positive terms, and err = exp(A), with
# A = (mean eps - 1) / varrho computed to within (N + 3) u kappa, u = 2^-53,
# where kappa = (max_n(|eps_n(d_min)| + 2 |delta_n|) + 1) / varrho bounds
# the magnitudes A is summed from. So a computed F or m_n is within
# (N + 8) u (1 + kappa) of the exact one, relatively, and a computed g_n
# within that of its two terms' magnitudes. rel = _PROOF_ULPS (N + 16) 2u
# (1 + kappa) leaves a factor of 8 for numpy's pow and exp, a few ulps
# each. The proof widens each step by rel: a candidate's exact F is at most
# F(d_near) (1 + 4 rel), which covers both computed values; LB falls by
# rel times its terms' magnitudes and m_n by rel; and r_n grows by
# rel (r_n + d_max), which covers the roundings of the index bounds, a few
# ulps of numbers at most d_max + r_n.
# ---------------------------------------------------------------------------

MAX_BOX_POINTS = 1_000_000
_PROOF_ULPS = 8
_BLOCK_ROWS = 4096  # lattice points priced per potential_from_errors call
_SMALL_BOX = 64  # a box of at most this many points is priced, not shrunk further


@dataclass(frozen=True)
class GridOracleResult:
    profile: StrategyProfile
    f_min: float


def _require_unit_step(step: float, name: str) -> None:
    if step != 1:  # strategies are sample counts: the one lattice is d_min + k
        raise InvariantViolation(name, f"must be 1 (the integer lattice), got {step}")


def _proof_margin(s: Scenario) -> float:
    """``rel`` of the rounding argument above, built once per scenario."""

    def build():
        magnitude = np.max(np.abs(economics._floor_errors(s)) + 2.0 * np.abs(s.delta))
        kappa = (magnitude + 1.0) / s.economy.varrho
        return _PROOF_ULPS * (s.n + 16) * np.finfo(np.float64).eps * (1.0 + kappa)

    return float(s.cached("proof_margin", build))


def _proof_box(s: Scenario, x: np.ndarray):
    """The first and last lattice index, per organization, of the box around
    x that holds every lattice point with F at most F(d_near), and LB."""
    lo, hi = float(s.bounds.d_min), float(s.bounds.d_max)
    lin, scale, rel = game._linear_coeffs(s), s.n * s.economy.varrho, _proof_margin(s)
    points = np.array([x, lo + np.clip(np.rint(x - lo), 0.0, hi - lo)])  # x, d_near
    eps = economics._local_errors(s, points, in_box=True)
    f_x, f_near = game.potential_from_errors(s, eps, points).tolist()
    benefit = economics._aggregate(s, eps[0]) * economics._own_error_slopes(s, np.s_[:], x) / scale
    g = benefit + lin
    lb = f_x + np.minimum(g * (lo - x), g * (hi - x)).sum()
    lb -= rel * (f_x + ((np.abs(benefit) + lin) * (hi - lo)).sum())
    gap = 2.0 * (f_near * (1.0 + 4.0 * rel) - lb)
    # m_n, lowered by rel, is err(top) (d_loc + top)^(-beta - 2) times this.
    curvature = s.alpha * s.beta * (s.beta + 1.0) / scale * (1.0 - rel)
    top, first, final = np.full(s.n, hi), np.zeros(s.n), np.full(s.n, hi - lo)
    with np.errstate(divide="ignore", over="ignore"):
        while True:
            err = economics._aggregate(s, economics._local_errors(s, top, in_box=True))
            r = np.sqrt(gap / (err * curvature * np.power(s.d_loc + top, -s.beta - 2.0)))
            r += rel * (r + hi)
            a = np.maximum(first, np.ceil(x - r - lo))
            b = np.minimum(final, np.floor(x + r - lo))
            if np.prod(b - a + 1.0) <= _SMALL_BOX or ((a == first).all() and (b == final).all()):
                return a, b, lb
            first, final, top = a, b, np.minimum(top, x + r)


def grid_oracle(s: Scenario, step: float = 1.0) -> GridOracleResult:
    """The first argmin of :func:`game.potential` (F with the ``z`` weights,
    also under antisymmetric payoffs) on the integer lattice ``d_min + k``
    (``step`` must be 1): every point of the proof's box (see above), or of
    a lattice one block holds, priced by :func:`game.potential_from_errors`
    in lexicographic order, as a full scan would. ``f_min`` is
    :func:`game.potential` of it. Raises :class:`InstanceTooLarge` before
    pricing a box of more than ``MAX_BOX_POINTS`` points."""
    _require_unit_step(step, "step")
    lo, hi = float(s.bounds.d_min), float(s.bounds.d_max)
    if (int(hi - lo) + 1) ** s.n <= _BLOCK_ROWS:  # one block prices the whole lattice
        first, final = np.zeros(s.n), np.full(s.n, hi - lo)
    else:
        (bracket,), _ = _brackets(s, game._linear_coeffs(s)[None], SolverConfig())
        first, final, _ = _proof_box(s, bracket.point[0])
    sizes = [int(b - a) + 1 for a, b in zip(first.tolist(), final.tolist())]
    count = math.prod(sizes)
    if count > MAX_BOX_POINTS:
        raise InstanceTooLarge(
            f"the proof's box holds {count} lattice points, over the {MAX_BOX_POINTS} cap"
        )
    best, best_f = None, math.inf
    for start in range(0, count, _BLOCK_ROWS):
        k = np.unravel_index(np.arange(start, min(start + _BLOCK_ROWS, count)), sizes)
        d = lo + (first + np.stack(k, axis=1))
        f = game.potential_from_errors(s, economics._local_errors(s, d, in_box=True), d)
        i = int(np.argmin(f))
        if f[i] < best_f:
            best, best_f = d[i], f[i]
    return GridOracleResult(profile=StrategyProfile(best), f_min=game.potential(s, best))


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


def _best_deviations(s: Scenario, d: np.ndarray):
    """Every organization's best unilateral move on the integer lattice
    ``d_min + k`` and its gain, as two (N,) arrays; ties go to the smallest
    volume, and not moving gains 0.0.

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
    last = float(s.bounds.d_max) - lo
    eps = economics._local_errors(s, d)
    weights = game._deviation_weights(s, eps)
    costs = economics._marginal_costs(s)
    rest = eps.sum() - eps  # the others' errors, summed as the whole is

    def errors(orgs, x):
        return np.exp(((rest[orgs] + economics._local_errors(s, x, True, orgs)) / s.n - 1.0)
                      / s.economy.varrho)

    # The lattice neighbours of d_n: k is the lattice index nearest to it,
    # and d_n is on the lattice if k's volume is d_n. A neighbour past an
    # end of the lattice is priced at that end.
    k = np.clip(np.rint(d - lo), 0.0, last)
    near = lo + k
    lower, upper = k - (near >= d), k + (near <= d)
    # Columns ascending in volume: the low end, the lower neighbour, d_n
    # (its error priced in the same call as the moves'), the upper
    # neighbour and the high end.
    x = np.empty((s.n, 5))
    x[:, 0] = lo
    x[:, 1] = lo + np.maximum(lower, 0.0)
    x[:, 2] = d
    x[:, 3] = lo + np.minimum(upper, last)
    x[:, 4] = lo + last
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
        x = lo + probes
        i = np.argmax(gains(r[wide], x, errors(r[wide], x)), axis=1)
        rows = np.arange(wide.size)
        a[wide] = probes[rows, np.maximum(i - 1, 0)]
        b[wide] = probes[rows, np.minimum(i + 1, _SEARCH_PROBES - 1)]
    x = lo + np.minimum(a[:, None] + np.arange(_SEARCH_PROBES), b[:, None])
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
    unilateral move on the integer lattice, as a scan of every move would
    (``grid_step`` must be 1): the worst deviation is the first
    organization's with the largest gain. The profile's utilities are priced
    only if some move gains more than 0."""
    _require_unit_step(grid_step, "grid_step")
    d = as_dgen(profile, s.n)
    alts, gains = _best_deviations(s, d)
    worst_org = int(np.argmax(gains))  # the first of the largest gains
    worst_gain, worst_alt = float(gains[worst_org]), float(alts[worst_org])
    is_ne = True
    if worst_gain > 0:
        utilities = economics.evaluate_profiles(s, d[None, :]).utility[0]
        is_ne = not np.any(gains > NE_IMPROVEMENT_TOLERANCE * (1.0 + np.abs(utilities)))
    return NeCertificate(
        is_ne=is_ne, worst_org=worst_org, worst_d_alt=worst_alt, worst_gain=worst_gain
    )

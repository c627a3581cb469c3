"""Fit the error law's hyperparameters from learning-curve observations.

For a fixed offset the fit is an exactly solvable log-linear least squares
problem, so the offset is the only searched dimension: a coarse grid pass
followed by golden-section refinement around the grid winner. Deterministic
and initialization-free. Also holds the error-law presets of the sweep's
heterogeneity levels.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientPoints, InvariantViolation, NonPositiveShifted
from .model import ScalingLaw

__all__ = [
    "CurvePoint",
    "FitResult",
    "DELTA_GRID",
    "MAX_REFINE",
    "fit_scaling_law",
    "heterogeneity_presets",
    "read_curve_csv",
]

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Offset candidates of the grid pass, ascending and distinct, and the
# golden-section steps that refine the grid winner.
DELTA_GRID = tuple(round(0.01 * i, 2) for i in range(51))
MAX_REFINE = 60
# Elements of one (K, n) block of offsets priced together, which bounds the
# fit's temporaries; a curve longer than this is priced one offset at a time.
_BLOCK = 2**16


@dataclass(frozen=True)
class CurvePoint:
    d: int
    eps: float

    def __post_init__(self):
        if self.d <= 0:
            raise InvariantViolation("curve point d", "must be > 0")
        try:
            float(self.d)
        except OverflowError:
            raise InvariantViolation("curve point d", "must be within the float64 range") from None
        if not math.isfinite(self.eps):
            raise InvariantViolation("curve point eps", f"must be finite, got {self.eps!r}")


@dataclass(frozen=True)
class FitResult:
    law: ScalingLaw
    rmse: float
    n_points: int


class _LogLinear:
    """Least squares of log(eps + delta) on log d for one curve.

    The parts of the normal equations that do not depend on the offset (the
    mean of log d, its centred vector and ``sxx``) are computed once per
    curve; ``fit`` does the rest for a sequence of offsets. A row's
    ``np.add.reduce(y, -1) / n`` is the sum and division that ``mean()``
    makes, without its Python overhead, so the results are bit for bit those
    of ``mean()``.
    """

    def __init__(self, points: list[CurvePoint]):
        self.log_d = np.log(np.array([float(p.d) for p in points]))
        self.eps = np.array([p.eps for p in points])
        self.eps_min = float(self.eps.min())
        self.n = len(points)
        self.x_mean = float(self.log_d.mean())
        self.x_centred = self.log_d - self.x_mean
        self.sxx = float(np.dot(self.x_centred, self.x_centred))
        self.block = max(1, _BLOCK // self.n)
        # Set once an offset is refused because its alpha or RMSE overflows.
        self.overflowed = False

    def fit(self, deltas) -> list:
        """(alpha, beta, rmse) of the line through log(eps + delta) for each
        offset in ``deltas``, in order; None where the offset is infeasible:
        some eps + delta is not positive, alpha or beta is not positive, or
        alpha or the RMSE is not finite.

        Feasible offsets are priced in blocks of ``block`` offsets, as (K, n)
        arrays whose elementwise steps and last-axis sums give each row the
        bits it has alone. ``sxy``'s dot product and ``alpha``'s
        libm ``exp`` stay per row: a BLAS matrix-vector product can change a
        row's bits with the row count.
        """
        fits = [None] * len(deltas)
        # Every eps + delta is positive iff the smallest is: rounding is monotone.
        todo = [k for k, delta in enumerate(deltas) if self.eps_min + delta > 0]
        for start in range(0, len(todo), self.block):
            rows = todo[start:start + self.block]
            # A lone offset (each golden-section step) is priced as an (n,)
            # row: priced as a (1, n) block, numpy's fixed per-call costs on
            # the 2-D shapes took the 12-point fit of BENCH_25.json from 560
            # to 935 us.
            one = len(rows) == 1
            offsets = deltas[rows[0]] if one else np.array([deltas[k] for k in rows])[:, None]
            y = np.log(self.eps + offsets)
            # Normal equations of the two-parameter line y = b0 - beta * log_d.
            y_mean = np.add.reduce(y, -1) / self.n
            centred = y - (y_mean if one else y_mean[:, None])
            keep, alphas, betas = [], [], []
            for i, mean in enumerate([y_mean] if one else y_mean.tolist()):
                slope = float(np.dot(self.x_centred, centred if one else centred[i])) / self.sxx
                beta = -slope
                try:
                    alpha = math.exp(mean - slope * self.x_mean)
                except OverflowError:  # log alpha past exp's range
                    self.overflowed = True
                    continue
                if alpha > 0 and beta > 0:
                    keep.append(i)
                    alphas.append(alpha)
                    betas.append(beta)
            if not keep:
                continue
            if one:
                pred = alphas[0] * np.exp(-betas[0] * self.log_d) - offsets
            else:
                pred = (np.array(alphas)[:, None] * np.exp(-np.array(betas)[:, None] * self.log_d)
                        - offsets[keep])
            mse = np.add.reduce((pred - self.eps) ** 2, -1) / self.n
            rmses = [math.sqrt(mse)] if one else np.sqrt(mse).tolist()
            for i, alpha, beta, rmse in zip(keep, alphas, betas, rmses):
                if math.isfinite(rmse):
                    fits[rows[i]] = (alpha, beta, rmse)
                else:
                    self.overflowed = True
        return fits


# A steep or huge curve's prediction can overflow; that offset's RMSE is then
# not finite and the offset is refused, so numpy need not warn.
@np.errstate(over="ignore", invalid="ignore")
def fit_scaling_law(points: list[CurvePoint]) -> FitResult:
    """Fit (alpha, beta, delta) to observed (d, eps) learning-curve points."""
    # Distinct after the log too: integers such as 10**300 and 10**300 + 1
    # share one float64 log, which would leave the line's slope undefined.
    if len(points) < 3 or len(set(np.log([float(p.d) for p in points]).tolist())) < 3:
        raise InsufficientPoints("need at least 3 points with 3 distinct d values")
    curve = _LogLinear(points)

    # The grid's offsets are distinct and nonnegative, so they key the table
    # in grid order; the final min then picks the first minimum on a tie.
    grid = DELTA_GRID
    evaluated: dict[float, tuple] = dict(zip(grid, curve.fit(grid)))
    feasible = [(g, fit) for g, fit in evaluated.items() if fit is not None]
    if not feasible:
        # eps + delta rises with delta, so the largest candidate shows whether
        # every candidate was refused for its sign or for its line's slope.
        if curve.eps_min + grid[-1] <= 0:
            raise NonPositiveShifted("eps + delta <= 0 for every offset candidate")
        if curve.overflowed:
            raise NonPositiveShifted(
                "no offset candidate gives a finite alpha and RMSE with a positive alpha and beta"
            )
        raise NonPositiveShifted("no offset candidate gives a positive alpha and beta")
    best_delta = min(feasible, key=lambda item: item[1][2])[0]

    # Golden-section refinement of the offset around the grid winner.
    idx = grid.index(best_delta)
    lo = grid[idx - 1] if idx > 0 else max(0.0, best_delta - (grid[1] - grid[0]))
    hi = grid[idx + 1] if idx + 1 < len(grid) else best_delta + (grid[-1] - grid[-2])

    def rmse_at(delta: float) -> float:
        delta = max(0.0, float(delta))
        if delta not in evaluated:
            evaluated[delta] = curve.fit([delta])[0]
        fit = evaluated[delta]
        return fit[2] if fit is not None else math.inf

    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    e = a + GOLDEN * (b - a)
    fc, fe = rmse_at(c), rmse_at(e)
    for _ in range(MAX_REFINE):
        if fc <= fe:
            b, e, fe = e, c, fc
            c = b - GOLDEN * (b - a)
            fc = rmse_at(c)
        else:
            a, c, fc = c, e, fe
            e = a + GOLDEN * (b - a)
            fe = rmse_at(e)

    winner_delta, winner = min(
        ((dl, fit) for dl, fit in evaluated.items() if fit is not None),
        key=lambda item: item[1][2],
    )
    alpha, beta, rmse = winner
    return FitResult(
        law=ScalingLaw(alpha=alpha, beta=beta, delta=winner_delta),
        rmse=rmse,
        n_points=len(points),
    )


def read_curve_csv(path) -> list[CurvePoint]:
    """Read learning-curve points from a CSV with header ``d,eps``.

    Every data row must hold exactly the header's two fields, an integer
    ``d > 0`` and a finite ``eps``; otherwise the InvariantViolation names
    the 1-based data row (blank lines are skipped and not counted).
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [f.strip() for f in header] != ["d", "eps"]:
            raise InvariantViolation("curve csv", "expected header 'd,eps'")
        points = []
        for row in reader:
            if not row:
                continue
            where = f"curve csv row {len(points) + 1}"
            if len(row) != 2:
                raise InvariantViolation(where, f"has {len(row)} fields, expected 2 (d,eps)")
            try:
                points.append(CurvePoint(d=int(row[0]), eps=float(row[1])))
            except (ValueError, InvariantViolation) as exc:
                raise InvariantViolation(where, str(exc)) from None
    return points


# ---------------------------------------------------------------------------
# Heterogeneity presets. Illustrative configuration values only: they order
# the error curves by heterogeneity level and were calibrated so the shipped
# sweep produces interior equilibria (see README).
# ---------------------------------------------------------------------------

_PRESETS = {
    0.1: ScalingLaw(alpha=22.23, beta=0.52, delta=0.0),
    0.5: ScalingLaw(alpha=21.2, beta=0.52, delta=0.12),
    0.9: ScalingLaw(alpha=19.3, beta=0.52, delta=0.2),
}


def heterogeneity_presets() -> dict[float, ScalingLaw]:
    """Error-law presets keyed by heterogeneity level (Dirichlet parameter)."""
    return dict(_PRESETS)

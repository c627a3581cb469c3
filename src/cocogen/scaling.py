"""Fit the error law's hyperparameters from learning-curve observations.

For a fixed offset the fit is an exactly solvable log-linear least squares
problem, so the offset is the only searched dimension: a coarse grid pass
followed by golden-section refinement around the grid winner. Deterministic
and initialization-free.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from importlib import resources

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


@dataclass(frozen=True)
class CurvePoint:
    d: int
    eps: float

    def __post_init__(self):
        if self.d <= 0:
            raise InvariantViolation("curve point d", "must be > 0")
        if not math.isfinite(self.eps):
            raise InvariantViolation("curve point eps", f"must be finite, got {self.eps!r}")


@dataclass(frozen=True)
class FitResult:
    law: ScalingLaw
    rmse: float
    n_points: int

    def to_dict(self) -> dict:
        return {
            "law": {
                "alpha": self.law.alpha,
                "beta": self.law.beta,
                "delta": self.law.delta,
            },
            "rmse": self.rmse,
            "n_points": self.n_points,
        }


class _LogLinear:
    """Least squares of log(eps + delta) on log d for one curve.

    The parts of the normal equations that do not depend on the offset (the
    mean of log d, its centred vector and ``sxx``) are computed once per
    curve; ``fit`` does the rest for one offset. ``sum() / n`` is the sum
    and division that ``mean()`` makes, without its Python overhead, so the
    results are bit for bit those of ``mean()``.
    """

    def __init__(self, points: list[CurvePoint]):
        self.log_d = np.log(np.array([float(p.d) for p in points]))
        self.eps = np.array([p.eps for p in points])
        self.n = len(points)
        self.x_mean = self.log_d.mean()
        self.x_centred = self.log_d - self.x_mean
        self.sxx = float(np.dot(self.x_centred, self.x_centred))

    def fit(self, delta: float):
        """(alpha, beta, rmse) of the line through log(eps + delta); None if infeasible."""
        shifted = self.eps + delta
        if (shifted <= 0).any():
            return None
        y = np.log(shifted)
        # Normal equations of the two-parameter line y = b0 - beta * log_d.
        y_mean = y.sum() / self.n
        sxy = float(np.dot(self.x_centred, y - y_mean))
        slope = sxy / self.sxx
        beta = -slope
        alpha = math.exp(y_mean - slope * self.x_mean)
        if not (alpha > 0 and beta > 0):
            return None
        pred = alpha * np.exp(-beta * self.log_d) - delta
        rmse = math.sqrt(((pred - self.eps) ** 2).sum() / self.n)
        return alpha, beta, rmse


def fit_scaling_law(points: list[CurvePoint]) -> FitResult:
    """Fit (alpha, beta, delta) to observed (d, eps) learning-curve points."""
    if len(points) < 3 or len({p.d for p in points}) < 3:
        raise InsufficientPoints("need at least 3 points with 3 distinct d values")
    curve = _LogLinear(points)

    evaluated: dict[float, tuple] = {}

    def try_delta(delta: float):
        delta = max(0.0, float(delta))
        if delta not in evaluated:
            evaluated[delta] = curve.fit(delta)
        return evaluated[delta]

    grid = DELTA_GRID
    feasible = [(g, try_delta(g)) for g in grid]
    feasible = [(g, fit) for g, fit in feasible if fit is not None]
    if not feasible:
        # eps + delta rises with delta, so the largest candidate shows whether
        # every candidate was refused for its sign or for its line's slope.
        if (curve.eps + grid[-1] <= 0).any():
            raise NonPositiveShifted("eps + delta <= 0 for every offset candidate")
        raise NonPositiveShifted("no offset candidate gives a positive alpha and beta")
    best_delta, best_fit = min(feasible, key=lambda item: item[1][2])

    # Golden-section refinement of the offset around the grid winner.
    idx = grid.index(best_delta)
    lo = grid[idx - 1] if idx > 0 else max(0.0, best_delta - (grid[1] - grid[0]))
    hi = grid[idx + 1] if idx + 1 < len(grid) else best_delta + (grid[-1] - grid[-2])

    def rmse_at(delta: float) -> float:
        fit = try_delta(delta)
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
# sweep produces interior equilibria (see README). Overridable by placing a
# presets.json in $COCOGEN_CONFIG_DIR.
# ---------------------------------------------------------------------------

PRESETS_ENV_VAR = "COCOGEN_CONFIG_DIR"


def _presets_payload() -> dict:
    override_dir = os.environ.get(PRESETS_ENV_VAR)
    if override_dir:
        candidate = os.path.join(override_dir, "presets.json")
        if os.path.exists(candidate):
            with open(candidate, "r", encoding="utf-8") as fh:
                return json.load(fh)
    ref = resources.files("cocogen").joinpath("data/presets.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def heterogeneity_presets() -> dict[float, ScalingLaw]:
    """Error-law presets keyed by heterogeneity level (Dirichlet parameter)."""
    payload = _presets_payload()
    out = {}
    for key, law in payload.items():
        out[float(key)] = ScalingLaw(
            alpha=float(law["alpha"]), beta=float(law["beta"]), delta=float(law["delta"])
        )
    return out

"""Grid-scan kernels of the full scan of the potential's lattice, in numpy.

Semantics contract:

* F over the grid is ``bg1[i]*g2[j](*g3[k]) + lin1[i] + lin2[j](+ lin3[k])``
  where the innermost axis of the 3-d scan is reduced exactly through a
  precomputed lower envelope of the lines ``q -> q*g3[k] + lin3[k]``.
* The argmin is the first one in lexicographic (i, j, k) order among exact
  float ties.

Each scan is one numpy expression over the rows it is given. The program
does not call them; ``tests/test_kernels.py`` checks them against brute-force
scans and the tests' stack-loop envelope, and perfbench's span targets
resolve them in ``cocogen.solver``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Envelope",
    "build_lower_envelope",
    "argmin_2d",
    "argmin_3d",
    "backend_name",
]


@dataclass(frozen=True)
class Envelope:
    """Lower envelope of the lines q -> slope[k]*q + inter[k] over q > 0."""

    slope: np.ndarray
    inter: np.ndarray
    thresh: np.ndarray  # breakpoints between consecutive hull segments
    k: np.ndarray  # original line index per hull segment


def build_lower_envelope(slopes, intercepts) -> Envelope:
    """Exact lower envelope for lines with non-increasing slopes.

    Each run of equal slopes keeps its lowest line, the first among equal
    ones; then, in passes until none is, every line whose successor takes
    over at or before the point where it took over from its predecessor
    (``q = 0`` for the first) is dropped, as never strictly best on q > 0.
    Ties in value at a breakpoint resolve to the smaller original index,
    matching the grid oracle's lexicographic tie-break.
    """
    slopes = np.asarray(slopes, dtype=np.float64)
    intercepts = np.asarray(intercepts, dtype=np.float64)
    if slopes.shape != intercepts.shape or slopes.ndim != 1 or slopes.size == 0:
        raise ValueError("need equal-length non-empty slope/intercept vectors")
    if np.any(np.diff(slopes) > 0):
        raise ValueError("slopes must be non-increasing")

    new_run = np.r_[True, slopes[1:] != slopes[:-1]]
    # A stable sort by run, then intercept: each run starts with its first lowest line.
    k = np.lexsort((intercepts, np.cumsum(new_run)))[new_run]
    while True:
        slope, inter = slopes[k], intercepts[k]
        thresh = (inter[1:] - inter[:-1]) / (slope[:-1] - slope[1:])
        drop = thresh <= np.r_[0.0, thresh[:-1]]
        if not drop.any():
            return Envelope(slope=slope, inter=inter, thresh=thresh, k=k)
        k = k[np.r_[~drop, True]]


def backend_name() -> str:
    """Name of the scan implementation; numpy is the only one."""
    return "python"


def argmin_2d(bg1, lin1, g2, lin2):
    """(F_min, i, j) over the 2-axis grid of float64 vectors."""
    f = bg1[:, None] * g2[None, :] + lin1[:, None] + lin2[None, :]
    i, j = divmod(int(np.argmin(f)), g2.shape[0])
    return float(f[i, j]), i, j


def argmin_3d(bg1, lin1, g2, lin2, env: Envelope):
    """(F_min, i, j, k) with the third axis reduced through ``env``."""
    q = bg1[:, None] * g2[None, :]
    h = np.searchsorted(env.thresh, q, side="left")
    f = q * env.slope[h] + env.inter[h] + (lin1[:, None] + lin2[None, :])
    i, j = divmod(int(np.argmin(f)), g2.shape[0])
    return float(f[i, j]), i, j, int(env.k[h[i, j]])

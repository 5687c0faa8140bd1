"""Exhalation phase windows and the concavity block.

The Volume-Flow curve is split at the peak-flow volume and at the volumes
where 25/50/75% of FVC has been exhaled.  Per phase, the chord from the
phase's endpoints serves as a baseline; the signed area between baseline and
curve (positive when the curve sags below the chord) quantifies collapse.
The trend statistic is early-phase concavity minus late-phase concavity:
large values mean collapse happens early in exhalation.

concavity_features is the one owner of the concavity block: (N, 5) rows of
the four directed areas in CONCAVITY_NAMES order, then the trend, which
featurize writes and the horizon model reads.
"""

from __future__ import annotations

import numpy as np

from .curves import VolumeFlowCurve
from .errors import DegenerateCurve, EmptyPhase

DEFAULT_N_GRID = 1000

PHASE_NAMES = ("PEF_FEF25", "FEF25_FEF50", "FEF50_FEF75", "FEF75_PLUS")
CONCAVITY_NAMES = ("c_pef_fef25", "c_fef25_fef50", "c_fef50_fef75", "c_fef75_plus")


def phase_bounds(curve: VolumeFlowCurve) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of the four phase windows [start, end), in liters, in
    PHASE_NAMES order: the peak-flow volume (first index on ties), then 25,
    50 and 75% of FVC, then FVC.  A window whose start is not below its end
    is an EmptyPhase."""
    flows = curve.flows
    if np.max(np.abs(flows)) == 0.0:
        raise DegenerateCurve("all-zero flow curve has no landmarks")
    fvc = float(curve.volumes[-1])
    marks = [float(curve.volumes[int(np.argmax(flows))]), 0.25 * fvc, 0.50 * fvc, 0.75 * fvc, fvc]
    for name, start, end in zip(PHASE_NAMES, marks, marks[1:]):
        if not start < end:
            raise EmptyPhase(f"phase {name} has start {start} >= end {end}")
    return np.array(marks[:-1]), np.array(marks[1:])


def _directed_areas(curve: VolumeFlowCurve, starts: np.ndarray, ends: np.ndarray, n_grid: int) -> np.ndarray:
    """Signed area between each window's chord and the curve.

    Positive when the curve lies below its chord (collapsed), negative when
    above (full).  The sum over the uniform volume grid is weighted by the
    grid spacing, so each value is a true area, independent of grid density.
    All windows share one (windows, n_grid) volume grid and one interpolation
    call for their endpoints and grid points.
    """
    dv = (ends - starts) / (n_grid - 1)
    # np.linspace's arithmetic, row by row: start + i * step, the end exact
    grid = np.arange(n_grid) * dv[:, None] + starts[:, None]
    grid[:, -1] = ends
    flows = curve.flow_at(np.concatenate([starts, ends, grid.ravel()]))
    n = starts.size
    fb, fg, on_grid = flows[:n], flows[n : 2 * n], flows[2 * n :].reshape(grid.shape)
    slope = (fg - fb) / (ends - starts)
    intercept = fb - slope * starts
    baseline = slope[:, None] * grid + intercept[:, None]
    return np.sum((baseline - on_grid) * dv[:, None], axis=1)


def concavity_features(curves) -> np.ndarray:
    """(N, 5) concavity block of the curves, one row per curve: the four
    phases' directed areas in CONCAVITY_NAMES order, then the trend
    c1 + c2 - c3 - c4.  A curve whose phases cannot be measured raises its
    DegenerateCurve or EmptyPhase with its index as the error's row."""
    areas = np.empty((len(curves), len(CONCAVITY_NAMES)))
    for i, curve in enumerate(curves):
        try:
            areas[i] = _directed_areas(curve, *phase_bounds(curve), DEFAULT_N_GRID)
        except (DegenerateCurve, EmptyPhase) as exc:
            exc.row = i
            raise
    trend = areas[:, 0] + areas[:, 1] - areas[:, 2] - areas[:, 3]
    return np.column_stack([areas, trend])

"""Exhalation landmarks, the four phase windows, and concavity measures.

The Volume-Flow curve is split at the peak-flow volume and at the volumes
where 25/50/75% of FVC has been exhaled.  Per phase, the chord from the
phase's endpoints serves as a baseline; the signed area between baseline and
curve (positive when the curve sags below the chord) quantifies collapse.
The trend statistic is early-phase concavity minus late-phase concavity:
large values mean collapse happens early in exhalation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .curves import VolumeFlowCurve
from .errors import DegenerateCurve, EmptyPhase, InvalidArgument

DEFAULT_N_GRID = 1000


class PhaseLabel(str, Enum):
    PEF_FEF25 = "PEF_FEF25"
    FEF25_FEF50 = "FEF25_FEF50"
    FEF50_FEF75 = "FEF50_FEF75"
    FEF75_PLUS = "FEF75_PLUS"


@dataclass(frozen=True)
class Landmarks:
    """Key volumes of the maneuver, in liters."""

    fvc: float
    pef_volume: float
    fef25_volume: float
    fef50_volume: float
    fef75_volume: float


@dataclass(frozen=True)
class Phase:
    """A volume window [start, end) of the exhalation."""

    label: PhaseLabel
    start: float
    end: float

    def __post_init__(self):
        if not self.start < self.end:
            raise EmptyPhase(f"phase {self.label} has start {self.start} >= end {self.end}")


@dataclass(frozen=True)
class ConcavityProfile:
    """Directed-area concavity per phase plus the early-minus-late trend."""

    c_pef_fef25: float
    c_fef25_fef50: float
    c_fef50_fef75: float
    c_fef75_plus: float

    @property
    def trend(self) -> float:
        return (
            self.c_pef_fef25
            + self.c_fef25_fef50
            - self.c_fef50_fef75
            - self.c_fef75_plus
        )

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.c_pef_fef25, self.c_fef25_fef50, self.c_fef50_fef75, self.c_fef75_plus]
        )


def locate_landmarks(curve: VolumeFlowCurve) -> Landmarks:
    """Peak-flow volume (first index on ties) and the FEF volume fractions."""
    flows = curve.flows
    if np.max(np.abs(flows)) == 0.0:
        raise DegenerateCurve("all-zero flow curve has no landmarks")
    pef_idx = int(np.argmax(flows))
    fvc = float(curve.volumes[-1])
    return Landmarks(
        fvc=fvc,
        pef_volume=float(curve.volumes[pef_idx]),
        fef25_volume=0.25 * fvc,
        fef50_volume=0.50 * fvc,
        fef75_volume=0.75 * fvc,
    )


def phases_from_landmarks(lm: Landmarks) -> list[Phase]:
    bounds = [
        (PhaseLabel.PEF_FEF25, lm.pef_volume, lm.fef25_volume),
        (PhaseLabel.FEF25_FEF50, lm.fef25_volume, lm.fef50_volume),
        (PhaseLabel.FEF50_FEF75, lm.fef50_volume, lm.fef75_volume),
        (PhaseLabel.FEF75_PLUS, lm.fef75_volume, lm.fvc),
    ]
    return [Phase(label, b, g) for label, b, g in bounds]


def _directed_areas(curve: VolumeFlowCurve, phases: list[Phase], n_grid: int) -> np.ndarray:
    """Signed area between each phase's chord and the curve.

    Positive when the curve lies below its chord (collapsed), negative when
    above (full).  The sum over the uniform volume grid is weighted by the
    grid spacing, so each value is a true area, independent of grid density.
    All phases share one (phases, n_grid) volume grid and one interpolation
    call for their endpoints and grid points.
    """
    if n_grid < 2:
        raise InvalidArgument("n_grid must be >= 2")
    starts = np.array([p.start for p in phases])
    ends = np.array([p.end for p in phases])
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


def concavity_features(curve: VolumeFlowCurve, n_grid: int = DEFAULT_N_GRID) -> ConcavityProfile:
    """Directed-area concavity of all four phases of the curve."""
    phases = phases_from_landmarks(locate_landmarks(curve))
    return ConcavityProfile(*_directed_areas(curve, phases, n_grid).tolist())

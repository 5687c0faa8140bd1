"""Time-Volume and Volume-Flow curve construction.

The raw signal from a forced-exhalation maneuver is an exhaled-volume series
sampled every DT seconds.  Flow (an array on the same grid) is obtained by
forward finite differences and the Volume-Flow curve by composing flow with
the (first-attainment) inverse of the volume trace.  A truncated, renormalized
Gaussian kernel suppresses sampling jitter before differentiation.
`fev1_fvc_ratio` is the one owner of the FEV1/FVC ratio, read from raw volumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .encoder import pad_rows
from .errors import InvalidArgument, InvalidCurve, NonMonotonicVolume, SpiroError

DT = 0.010  # seconds between samples
VOLUME_TOL = 1e-9  # liters of backwards drift absorbed as float noise


@dataclass(frozen=True)
class TimeVolumeCurve:
    """Exhaled volume in liters, sampled every DT seconds."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size < 2:
            raise InvalidCurve("need at least two volume samples")
        if not np.all(np.isfinite(samples)):
            raise InvalidCurve("volume samples must be finite")
        if np.any(samples < 0):
            raise InvalidCurve("volumes must be non-negative")

    def __len__(self):
        return self.samples.size


@dataclass(frozen=True)
class VolumeFlowCurve:
    """Flow as a function of exhaled volume (non-decreasing volumes)."""

    volumes: np.ndarray
    flows: np.ndarray

    def __post_init__(self):
        volumes = np.asarray(self.volumes, dtype=float)
        flows = np.asarray(self.flows, dtype=float)
        object.__setattr__(self, "volumes", volumes)
        object.__setattr__(self, "flows", flows)
        if volumes.ndim != 1 or volumes.size < 2:
            raise InvalidCurve("need at least two points")
        if volumes.shape != flows.shape:
            raise InvalidCurve("volumes and flows must have equal length")
        if not (np.all(np.isfinite(volumes)) and np.all(np.isfinite(flows))):
            raise InvalidCurve("curve values must be finite")
        if np.any(np.diff(volumes) < -VOLUME_TOL):
            raise NonMonotonicVolume("volumes must be non-decreasing")

    def __len__(self):
        return self.volumes.size

    def flow_at(self, v) -> np.ndarray:
        """Linearly interpolated flow at volume(s) v."""
        return np.interp(v, self.volumes, self.flows)


@dataclass(frozen=True)
class SmootherConfig:
    """Gaussian smoothing window: half-width k (samples) and sigma (samples)."""

    k: int = 5
    sigma: float = 2.0

    def __post_init__(self):
        if not isinstance(self.k, int) or isinstance(self.k, bool):
            raise InvalidArgument(f"window half-width k must be an integer, not {self.k!r}")
        if not isinstance(self.sigma, (int, float)) or isinstance(self.sigma, bool):
            raise InvalidArgument(f"sigma must be a real number, not {self.sigma!r}")
        if self.k < 0:
            raise InvalidArgument("window half-width k must be >= 0")
        # the kernel divides by 2 sigma**2, so its float square must be positive and finite
        try:
            s = float(self.sigma)
        except OverflowError:
            s = math.inf
        if not (s > 0 and 0 < s * s < math.inf):
            raise InvalidArgument(f"sigma must be > 0 with a positive, finite float square, not {self.sigma!r}")


# Batched passes pad consecutive slices of their batch into zero-padded float
# blocks of at most this many bytes and write the rows straight into one
# packed array per call.  Small blocks come from and return to the heap;
# freeing blocks over glibc's 128 KiB mmap threshold raised that threshold
# and left the heap fragmented, and the detector pass that followed kept
# 2-4 MB more resident on a 600-record cohort.
BLOCK_BYTES = 1 << 16


def _as_batch(curves):
    """(list of curves, whether a lone curve was given): a curve is a batch of one."""
    if isinstance(curves, TimeVolumeCurve):
        return [curves], True
    return list(curves), False


def _by_block(kernel, channels: int, *columns: list) -> list[np.ndarray]:
    """Run kernel over consecutive slices of the aligned columns, in order.

    The first column holds 1-D sample arrays; each slice pads to at most
    BLOCK_BYTES.  kernel(out, *slices) writes its rows, one after another,
    into out, a (channels, room) view of the packed result, and returns the
    rows' lengths.  Returns one (channels, length) view per row.  A
    SpiroError's row is made an index into the whole batch.
    """
    samples = columns[0]
    width = max((s.size for s in samples), default=1)
    step = max(1, BLOCK_BYTES // (8 * width))
    packed = np.empty((channels, sum(s.size for s in samples)))
    lengths = []
    for first in range(0, len(samples), step):
        try:
            lengths += kernel(packed[:, sum(lengths) :], *(column[first : first + step] for column in columns))
        except SpiroError as exc:
            if exc.row is not None:
                exc.row += first
            raise
    if not lengths:
        return []
    return np.split(packed[:, : sum(lengths)], np.cumsum(lengths)[:-1], axis=1)


def _smooth_block(out, samples, k: int, sigma: float) -> list[int]:
    sizes = np.array([s.size for s in samples])
    x, mask = pad_rows(np.concatenate(samples), sizes)
    width = x.shape[1]
    k = min(k, width - 1)  # a tap at |j| >= width reaches no sample
    num = np.zeros_like(x)
    den = np.zeros_like(x)
    # padded slots add nothing to den and +0.0 to num, so valid sums are unchanged
    for j in range(-k, k + 1):
        w = float(np.exp(-(j * j) / (2.0 * sigma**2)))
        lo = max(0, -j)
        hi = min(width, width - j)
        num[:, lo:hi] += w * x[:, lo + j : hi + j]
        np.add(den[:, lo:hi], w, out=den[:, lo:hi], where=mask[:, lo + j : hi + j])
    n = int(mask.sum())
    np.divide(num[mask], den[mask], out=out[0, :n])
    return sizes.tolist()


def _flow_block(out, samples) -> list[int]:
    sizes = np.array([s.size for s in samples])
    v, mask = pad_rows(np.concatenate(samples), sizes)
    q = np.empty_like(v)
    q[:, :-1] = np.diff(v, axis=1) / DT
    row = np.arange(len(samples))
    last = mask.sum(axis=1) - 1
    q[row, last] = q[row, last - 1]
    out[0, : int(mask.sum())] = q[mask]
    return sizes.tolist()


def _volume_flow_block(out, volumes, flows) -> list[int]:
    """Writes each row's kept volumes and flows as out's two channels."""
    sizes = np.array([s.size for s in volumes])
    v, mask = pad_rows(np.concatenate(volumes), sizes)
    q, _ = pad_rows(np.concatenate(flows), sizes)
    decreasing = np.any((np.diff(v, axis=1) < -VOLUME_TOL) & mask[:, 1:], axis=1)
    keep = mask.copy()
    keep[:, 1:] &= v[:, 1:] > np.maximum.accumulate(v, axis=1)[:, :-1]
    kept = keep.sum(axis=1)
    bad = np.flatnonzero(decreasing | (kept < 2))
    if bad.size:
        i = int(bad[0])
        if decreasing[i]:
            raise NonMonotonicVolume("volume series decreases beyond tolerance", row=i)
        raise InvalidCurve("curve collapses to fewer than two distinct volumes", row=i)
    n = int(kept.sum())
    out[0, :n] = v[keep]
    out[1, :n] = q[keep]
    return kept.tolist()


def gaussian_smooth(curves, cfg: SmootherConfig = SmootherConfig()):
    """Kernel-weighted mean with window truncated and renormalized at the ends.

    Each output sample is a convex combination of in-range input samples, so
    constants (and the input's min/max bounds) are preserved.  k = 0 is the
    identity.  Takes one TimeVolumeCurve, or a sequence of them, smoothed
    as zero-padded blocks of 2k+1 shifted adds and returned as a list.
    """
    batch, single = _as_batch(curves)
    samples = [c.samples for c in batch]
    if cfg.k == 0:
        rows = [x.copy() for x in samples]
    else:
        rows = [row[0] for row in _by_block(partial(_smooth_block, k=cfg.k, sigma=cfg.sigma), 1, samples)]
    out = [TimeVolumeCurve(row) for row in rows]
    return out[0] if single else out


def differentiate_flow(curves):
    """Forward difference flow in liters/second; the final sample duplicates
    its predecessor.  Takes one TimeVolumeCurve (returning a float array) or
    a sequence of them (returning a list of arrays).
    """
    batch, single = _as_batch(curves)
    rows = [row[0] for row in _by_block(_flow_block, 1, [c.samples for c in batch])]
    return rows[0] if single else rows


def volume_flow_curve(vols, flows):
    """Pair flow with volume, collapsing plateaus to their first attainment.

    A sample is kept only when its volume strictly exceeds every previously
    kept volume, i.e. the running maximum before it; equal-volume (or
    within-tolerance dipping) samples carry no new volume information and
    are dropped, keeping the span's first flow.  Takes a volume curve and its
    flow array, or two aligned sequences of them (returned as a list).  A batch
    raises for its first bad curve, with the curve's index as the error's row.
    """
    vol_batch, single = _as_batch(vols)
    flow_batch = [flows] if single else list(flows)
    if len(vol_batch) != len(flow_batch):
        raise InvalidCurve("need one flow series per volume series")
    for i, (vol, flow) in enumerate(zip(vol_batch, flow_batch)):
        if len(vol) != len(flow):
            raise InvalidCurve("volume and flow series must have equal length", row=i)
    pairs = _by_block(_volume_flow_block, 2, [c.samples for c in vol_batch], flow_batch)
    out = [VolumeFlowCurve(*pair) for pair in pairs]
    return out[0] if single else out


def fev1_fvc_ratio(curves) -> np.ndarray:
    """(N,) FEV1/FVC of each TimeVolumeCurve of a sequence: FEV1 is the
    volume at 1 s, sample round(1 / DT), or the last sample of a shorter
    curve, and FVC is the curve's largest volume."""
    return np.array([c.samples[min(round(1.0 / DT), len(c) - 1)] / c.samples.max() for c in curves], dtype=float)

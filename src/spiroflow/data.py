"""Synthetic cohort generation and CSV ingestion.

Synthetic maneuvers integrate a class-template flow profile: flow ramps to
a peak, then follows per-phase chords with sinusoidal concavity bumps whose
signs flip with severity (early phases sag in severe classes, late phases
sag in healthy ones), which is exactly what the concavity trend measures,
so class templates come with known ground truth.  Demographic rates
(smoking, sex, age) shift with severity in the clinically expected
directions; the FEV1/FVC ratio is not sampled but read from each curve.
"""

from __future__ import annotations

import contextlib
import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attention import DemographicRecord, SEX_CODES
from .curves import DEFAULT_DT, TimeVolumeCurve
from .errors import InvalidCurve, InvalidSpec, ParseError, ValidationError
from .horizon import HORIZON_ORDER, HorizonLabel


@dataclass(frozen=True)
class ClassTemplate:
    """Deterministic maneuver shape for one severity class.

    severity 1 means collapse concentrated in the early phases (positive
    early-phase concavity, negative late), severity 0 the reverse; the
    concavity trend of the templates is therefore monotone in severity.
    """

    severity: float  # in [0, 1]
    fvc: float  # liters
    pef: float  # liters/second
    bump: float = 0.25  # per-phase concavity amplitude, fraction of local flow

    def knots(self):
        """Post-peak knot volumes and flows: phase boundaries of the shape."""
        sev = self.severity
        v_peak = 0.08 * self.fvc
        fracs = [1.0, 0.45 + 0.40 * (1 - sev), 0.25 + 0.40 * (1 - sev), 0.10 + 0.22 * (1 - sev), 0.04]
        volumes = [v_peak, 0.25 * self.fvc, 0.50 * self.fvc, 0.75 * self.fvc, self.fvc]
        flows = [f * self.pef for f in fracs]
        return v_peak, volumes, flows

    def flow_at(self, volume: float) -> float:
        """Template flow (L/s): linear rise to PEF, then per-phase chords with
        sinusoidal concavity bumps (early bumps sag with severity, late bumps
        sag against it)."""
        v_peak, volumes, flows = self.knots()
        if volume <= 0.0:
            return 0.0
        if volume < v_peak:
            return self.pef * volume / v_peak
        if volume >= self.fvc:
            return flows[-1]
        sev = self.severity
        signs = [2 * sev - 1, 2 * sev - 1, 1 - 2 * sev, 1 - 2 * sev]
        for s in range(4):
            b, g = volumes[s], volumes[s + 1]
            if volume <= g:
                x = (volume - b) / (g - b)
                chord = flows[s] + (flows[s + 1] - flows[s]) * x
                amp = self.bump * signs[s] * min(flows[s], flows[s + 1])
                value = chord - amp * float(np.sin(np.pi * x))
                return float(np.clip(value, 0.02 * self.pef, 0.995 * self.pef))
        return flows[-1]


def _ladder_template(severity: float) -> ClassTemplate:
    return ClassTemplate(
        severity=severity,
        fvc=2.8 + 1.2 * (1 - severity),
        pef=5.0 + 3.2 * (1 - severity),
    )


# Severity ladder: collapse shifts to earlier phases as the onset horizon nears.
DEFAULT_TEMPLATES: dict[HorizonLabel, ClassTemplate] = {
    HorizonLabel.WITHIN_1Y: _ladder_template(1.0),
    HorizonLabel.WITHIN_2Y: _ladder_template(0.8),
    HorizonLabel.WITHIN_3Y: _ladder_template(0.6),
    HorizonLabel.WITHIN_4Y: _ladder_template(0.4),
    HorizonLabel.YEAR_5_PLUS: _ladder_template(0.2),
    HorizonLabel.NON_COPD: _ladder_template(0.0),
}

# Demographic sampling rates per class, ordered as HORIZON_ORDER
# (severe -> healthy): smoking prevalence, male fraction, age range.
SMOKING_RATES = (0.85, 0.75, 0.65, 0.55, 0.45, 0.25)
MALE_FRACTIONS = (0.70, 0.65, 0.60, 0.55, 0.50, 0.45)
AGE_RANGES = ((58, 80), (55, 78), (52, 76), (50, 74), (47, 72), (40, 70))


@dataclass(frozen=True)
class CohortSpec:
    n_per_class: int
    noise: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n_per_class < 1:
            raise InvalidSpec("n_per_class must be >= 1")
        if self.noise < 0:
            raise InvalidSpec("noise must be >= 0")


@dataclass(frozen=True)
class CohortRecord:
    record_id: str
    curve: TimeVolumeCurve
    demo: DemographicRecord
    horizon: HorizonLabel
    copd: int  # binary detection label


def template_curve(template: ClassTemplate) -> np.ndarray:
    """Integrate dV/dt = F(V) into a Time-Volume series (liters)."""
    min_flow = 0.08  # keeps the integration moving through near-zero flow
    volumes = [0.0]
    v = 0.0
    while v < 0.995 * template.fvc and len(volumes) < 4000:
        v = min(v + DEFAULT_DT * max(template.flow_at(v), min_flow), template.fvc)
        volumes.append(v)
    return np.array(volumes)


def _sample_demo(rng: np.random.Generator, class_idx: int) -> DemographicRecord:
    male = rng.random() < MALE_FRACTIONS[class_idx]
    smokes = rng.random() < SMOKING_RATES[class_idx]
    smoking = "current" if smokes else ("former" if rng.random() < 0.4 else "never")
    lo, hi = AGE_RANGES[class_idx]
    age = float(rng.uniform(lo, hi))
    return DemographicRecord(sex=SEX_CODES[1] if male else SEX_CODES[0], age=age, smoking=smoking)


def generate_synthetic_cohort(spec: CohortSpec) -> list[CohortRecord]:
    """Seeded severity-ladder cohort; the binary label marks every class
    other than NON_COPD as positive."""
    rng = np.random.default_rng(spec.seed)
    records = []
    for class_idx, label in enumerate(HORIZON_ORDER):
        template = DEFAULT_TEMPLATES[label]
        base = template_curve(template)
        for i in range(spec.n_per_class):
            if spec.noise > 0:
                increments = np.diff(base) + spec.noise * 0.004 * rng.standard_normal(base.size - 1)
                volumes = np.concatenate([[0.0], np.cumsum(np.clip(increments, 0.0, None))])
            else:
                volumes = base.copy()
            demo = _sample_demo(rng, class_idx)
            records.append(
                CohortRecord(
                    record_id=f"{label.value}_{i:04d}",
                    curve=TimeVolumeCurve(volumes),
                    demo=demo,
                    horizon=label,
                    copd=0 if label is HorizonLabel.NON_COPD else 1,
                )
            )
    return records


# ---------------------------------------------------------------------------
# CSV ingestion (schema: one row per blow, id then milliliter samples)


class _DigestingFile(io.RawIOBase):
    """An unbuffered binary file that feeds each byte read from it to digest."""

    def __init__(self, fh, digest):
        self._fh = fh
        self._digest = digest

    def readable(self):
        return True

    def readinto(self, buffer):
        n = self._fh.readinto(buffer)
        self._digest.update(memoryview(buffer)[:n])
        return n

    def close(self):
        self._fh.close()
        super().close()


@contextlib.contextmanager
def open_csv(path, digest=None):
    """A context manager over path opened as open(path, newline="") opens
    it; a byte the text codec rejects or a csv module error raised in it
    becomes a ParseError naming the file.  With digest (a hashlib-style
    object) every byte read is also fed to it, so a reader that reaches the
    end leaves there the digest of the bytes it parsed."""
    if digest is None:
        fh = open(path, newline="")
    else:
        fh = io.TextIOWrapper(io.BufferedReader(_DigestingFile(open(path, "rb", buffering=0), digest), 1 << 16), newline="")
    with fh:
        try:
            yield fh
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ParseError(f"{Path(path).name}: {exc}") from None


def load_time_volume_csv(path, digest=None) -> list[tuple[str, TimeVolumeCurve]]:
    """Parse blow rows 'id, ml, ml, ...' into liter curves; an id may not repeat.

    A short row, a cell that is not a number, a repeated id or a negative or
    non-finite volume raises naming the file, the row and the id; a file
    without a blow row raises ParseError naming the file.  With digest, the
    file's bytes are fed to it as they are read (open_csv).
    """
    out = []
    seen = set()
    name = Path(path).name
    with open_csv(path, digest) as fh:
        for row_no, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            blow_id = row[0].strip()
            where = f"{name} row {row_no} (id {blow_id!r})"
            if len(row) < 3:
                raise ParseError(f"{where}: need an id and at least two samples")
            if blow_id in seen:
                raise ValidationError(f"{where}: duplicate id")
            seen.add(blow_id)
            try:
                ml = np.array([float(cell) for cell in row[1:]], dtype=float)
            except ValueError as exc:
                raise ParseError(f"{where}: {exc}") from None
            if np.any(ml < 0):
                raise ValidationError(f"{where}: negative volume")
            try:
                out.append((blow_id, TimeVolumeCurve(ml / 1000.0)))
            except InvalidCurve as exc:
                raise InvalidCurve(f"{where}: {exc}") from None
    if not out:
        raise ParseError(f"{name}: no blow rows")
    return out


def _csv_cell(text: str) -> str:
    """text as csv.writer's default dialect writes it as one cell of a longer row."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_time_volume_csv(path, records: list[tuple[str, TimeVolumeCurve]]):
    """Inverse of load_time_volume_csv (liters written back as milliliters).

    Writes the bytes csv.writer writes for the row [id, repr(ml), ...], but
    takes each row's samples from one repr of their list, whose items are
    the same reprs joined by ', '.
    """
    with open(path, "w", newline="") as fh:
        for blow_id, curve in records:
            samples = repr((curve.samples * 1000.0).tolist())[1:-1].replace(", ", ",")
            fh.write(f"{_csv_cell(blow_id)},{samples}\r\n")

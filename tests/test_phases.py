import numpy as np
import pytest

from spiroflow.curves import (
    TimeVolumeCurve,
    VolumeFlowCurve,
    differentiate_flow,
    gaussian_smooth,
    volume_flow_curve,
)
from spiroflow.data import DEFAULT_TEMPLATES, template_curve
from spiroflow.errors import DegenerateCurve, EmptyPhase
from spiroflow.horizon import HorizonLabel
from spiroflow import phases
from spiroflow.phases import DEFAULT_N_GRID, _directed_areas, concavity_features, phase_bounds


def vf(volumes, flows):
    return VolumeFlowCurve(np.asarray(volumes, dtype=float), np.asarray(flows, dtype=float))


def area(curve, start, end, n_grid=DEFAULT_N_GRID):
    """The directed area of the window [start, end), through the kernel
    concavity_features runs."""
    return float(_directed_areas(curve, np.array([start]), np.array([end]), n_grid)[0])


def chord(curve, start, end):
    """(slope, intercept) of the line through the curve at the window's endpoints."""
    fb, fg = np.interp([start, end], curve.volumes, curve.flows)
    slope = (fg - fb) / (end - start)
    return slope, fb - slope * start


def late_peak(n=30):
    """A curve whose peak flow comes after 25% of FVC: it has no PEF-FEF25 phase."""
    volumes = np.linspace(0.0, 3.0, n)
    return vf(volumes, np.where(volumes < 1.5, volumes, 3.0 - volumes))


class TestLandmarks:
    def test_simple_peak(self):
        # peak flow at 1 L of an 8 L exhalation: the windows run from there
        # through 25/50/75% of FVC to FVC
        curve = vf(np.linspace(0, 8, 9), [0, 5, 3, 2, 1, 1, 1, 1, 1])
        starts, ends = phase_bounds(curve)
        assert starts.tolist() == [1.0, 2.0, 4.0, 6.0]
        assert ends.tolist() == [2.0, 4.0, 6.0, 8.0]

    def test_tie_takes_first(self):
        curve = vf(np.arange(13.0), [1, 4, 4] + [0] * 10)
        assert phase_bounds(curve)[0][0] == 1.0

    def test_matches_exhaustive_scan(self):
        # about a quarter of the draws peak before 25% of FVC and have
        # windows; the rest must raise
        rng = np.random.default_rng(3)
        for _ in range(100):
            volumes = np.cumsum(rng.uniform(0.01, 0.2, size=30))
            flows = rng.uniform(0, 8, size=30)
            curve = vf(volumes, flows)
            # brute-force scan of every sample
            best = max(range(30), key=lambda i: (flows[i], -i))
            if volumes[best] >= 0.25 * volumes[-1]:
                with pytest.raises(EmptyPhase):
                    phase_bounds(curve)
                continue
            starts, ends = phase_bounds(curve)
            assert starts[0] == volumes[best]
            assert ends[-1] == volumes[-1]
            assert starts[1] == pytest.approx(0.25 * volumes[-1])
            assert np.array_equal(starts[1:], ends[:-1])

    def test_all_zero_flow_rejected(self):
        with pytest.raises(DegenerateCurve):
            phase_bounds(vf([0, 1, 2], [0, 0, 0]))


class TestBaseline:
    def test_flat_phase(self):
        # a flat curve is its own chord
        curve = vf([0, 1, 2, 3], [4, 4, 4, 4])
        assert area(curve, 0.5, 2.5) == 0.0

    def test_direct_arithmetic(self):
        # chord 5 - 5v/3 on [0, 3]; the curve sits 2/3 above it at the kink
        # v = 1, so the area is the triangle -(1/2) * 3 * (2/3) = -1.  The
        # kink falls on the grid (999 = 3 * 333 steps), so the sum is exact.
        curve = vf([0, 1, 3, 4], [5, 4, 0, 0])
        assert area(curve, 0.0, 3.0, n_grid=1000) == pytest.approx(-1.0, abs=1e-12)

    def test_line_passes_through_endpoints(self):
        # at n_grid = 2 the grid is the two endpoints, so the area is the
        # chord's miss there times the window's width
        rng = np.random.default_rng(9)
        for _ in range(20):
            volumes = np.cumsum(rng.uniform(0.05, 0.3, size=12))
            flows = rng.uniform(0, 6, size=12)
            curve = vf(volumes, flows)
            assert area(curve, volumes[2], volumes[-2], n_grid=2) == pytest.approx(0.0, abs=1e-12)

    def test_zero_width_phase_rejected(self):
        # peak flow at exactly 25% of FVC leaves PEF-FEF25 without width
        with pytest.raises(EmptyPhase, match=r"^phase PEF_FEF25 has start 1.0 >= end 1.0$"):
            phase_bounds(vf([0, 1, 2, 3, 4], [0, 5, 3, 2, 1]))
        with pytest.raises(EmptyPhase, match=r"^phase PEF_FEF25 "):
            phase_bounds(late_peak())


class TestConcavityMeasure:
    def test_on_baseline_is_zero(self):
        curve = vf([0, 1, 2], [3, 2, 1])
        c = area(curve, 0.0, 2.0)
        assert c == pytest.approx(0.0, abs=1e-12)

    def test_above_baseline_is_negative(self):
        # bulging (full) segment lies above its chord
        volumes = np.linspace(0, 1, 101)
        flows = np.sin(np.pi * volumes)  # above the zero chord
        c = area(vf(volumes, flows), 0.0, 1.0)
        assert c < 0

    def test_quadratic_analytic_integral(self):
        # flow v^2 on [0,1] against chord v: integral of (v - v^2) dv = 1/6
        volumes = np.linspace(0, 1, 2001)
        flows = volumes**2
        c = area(vf(volumes, flows), 0.0, 1.0, n_grid=1000)
        assert c == pytest.approx(1.0 / 6.0, abs=1e-3)

    def test_sign_flip_on_reflection(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            volumes = np.cumsum(rng.uniform(0.02, 0.2, size=15))
            flows = rng.uniform(0, 5, size=15)
            curve = vf(volumes, flows)
            window = volumes[1], volumes[-2]
            m, b = chord(curve, *window)
            reflected = vf(volumes, 2 * (m * volumes + b) - flows)
            c = area(curve, *window)
            c_ref = area(reflected, *window)
            assert c_ref == pytest.approx(-c, abs=1e-9)

    def test_grid_convergence(self):
        volumes = np.linspace(0, 2, 400)
        flows = 4 * np.exp(-1.5 * volumes)
        curve = vf(volumes, flows)
        c1 = area(curve, 0.2, 1.8, n_grid=1000)
        c2 = area(curve, 0.2, 1.8, n_grid=2000)
        assert abs(c2 - c1) <= 1e-3 * (1.8 - 0.2) * flows.max()


class TestTrend:
    # the trend column of areas (c1, c2, c3, c4), whatever _directed_areas
    # measures, on a curve whose phases all have width
    @staticmethod
    def _trend(monkeypatch, areas):
        monkeypatch.setattr(phases, "_directed_areas", lambda *args: np.array(areas, dtype=float))
        return concavity_features([vf([0, 1, 2, 3, 4], [5, 4, 3, 2, 1])])[0, 4]

    def test_zero_profile(self, monkeypatch):
        assert self._trend(monkeypatch, [0, 0, 0, 0]) == 0.0

    def test_early_collapse_gives_large_trend(self, monkeypatch):
        assert self._trend(monkeypatch, [1, 1, -1, -1]) == 4.0

    def test_identity_formula(self, monkeypatch):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b, c, d = rng.standard_normal(4)
            assert self._trend(monkeypatch, [a, b, c, d]) == a + b - c - d


class TestConcavityFeatures:
    @staticmethod
    def _vf_from_template(label):
        raw = TimeVolumeCurve(template_curve(DEFAULT_TEMPLATES[label]))
        smoothed = gaussian_smooth(raw)
        return volume_flow_curve(smoothed, differentiate_flow(smoothed))

    def test_healthy_template_stays_full_early(self):
        # full (convex) early phases give negative directed areas
        [row] = concavity_features([self._vf_from_template(HorizonLabel.NON_COPD)])
        assert row[0] < 0
        assert row[1] < 0

    def test_severe_template_collapses_early(self):
        severe, healthy = concavity_features(
            [self._vf_from_template(HorizonLabel.WITHIN_1Y), self._vf_from_template(HorizonLabel.NON_COPD)]
        )
        assert severe[0] > 0
        assert severe[4] > healthy[4]

    def test_straight_line_decay_all_zero(self):
        volumes = np.linspace(0, 4, 200)
        flows = 8.0 - 1.9 * volumes
        block = concavity_features([vf(volumes, flows)])
        assert np.allclose(block[:, :4], 0.0, atol=1e-9)

    def test_trend_identity_exact(self, small_cohort_series):
        block = concavity_features([curve for _, curve, _, _ in small_cohort_series[:10]])
        c1, c2, c3, c4, trend = block.T
        assert trend.tobytes() == (c1 + c2 - c3 - c4).tobytes()

    def test_constant_flow_all_zero(self):
        # every phase chord coincides with the curve, so all measures vanish
        volumes = np.linspace(0.0, 3.0, 150)
        flows = 2.5 * np.ones_like(volumes)
        block = concavity_features([vf(volumes, flows)])
        assert np.allclose(block[:, :4], 0.0, atol=1e-9)


class TestConcavityBlock:
    def test_batch_equals_one_curve_batches(self, small_cohort_series):
        # mixed lengths: the cohort's classes differ in sample count
        curves = [curve for _, curve, _, _ in small_cohort_series]
        assert len({curve.volumes.size for curve in curves}) > 1
        block = concavity_features(curves)
        assert block.shape == (len(curves), 5)
        for i, curve in enumerate(curves):
            assert block[i].tobytes() == concavity_features([curve])[0].tobytes(), i
        assert block[:, 4].tobytes() == (block[:, 0] + block[:, 1] - block[:, 2] - block[:, 3]).tobytes()

    def test_empty_batch(self):
        assert concavity_features([]).shape == (0, 5)

    def test_error_names_its_row(self, small_cohort_series):
        curves = [curve for _, curve, _, _ in small_cohort_series[:4]]
        flat = vf([0, 1, 2], [0, 0, 0])
        for bad, error in ((late_peak(), EmptyPhase), (flat, DegenerateCurve)):
            for i in range(len(curves) + 1):
                with pytest.raises(error) as exc:
                    concavity_features(curves[:i] + [bad] + curves[i:])
                assert exc.value.row == i


def concavity_reference(curve, start, end, n_grid):
    """The per-phase measure the one-shot kernel replaced: its own grid and interpolations."""
    grid = np.linspace(start, end, n_grid)
    dv = (end - start) / (n_grid - 1)
    slope, intercept = chord(curve, start, end)
    baseline = slope * grid + intercept
    return float(np.sum((baseline - curve.flow_at(grid)) * dv))


class TestOneShotMatchesPerPhase:
    @pytest.mark.parametrize("n_grid", [2, 3, 1000, 1001, 20000])
    def test_random_curves_bit_for_bit(self, n_grid):
        rng = np.random.default_rng(n_grid)
        for _ in range(25):
            n = int(rng.integers(2, 300))
            volumes = np.concatenate([[0.0], np.cumsum(rng.random(n - 1) + 1e-3)])
            flows = rng.standard_normal(n) * rng.choice([1e-3, 1.0, 100.0])
            flows[rng.random(n) < 0.2] = -0.0
            # peak flow before a fifth of FVC, so every phase has width
            early = int(np.searchsorted(volumes, 0.2 * volumes[-1]))
            flows[rng.integers(0, max(early, 1))] = np.abs(flows).max() + 1.0
            curve = vf(volumes, flows)
            bounds = list(zip(*phase_bounds(curve)))
            expected = [concavity_reference(curve, start, end, n_grid) for start, end in bounds]
            assert _directed_areas(curve, *phase_bounds(curve), n_grid).tobytes() == np.array(expected).tobytes()
            for (start, end), e in zip(bounds, expected):
                assert area(curve, start, end, n_grid) == e

    def test_cohort_curves_bit_for_bit(self, small_cohort_series):
        curves = [curve for _, curve, _, _ in small_cohort_series]
        expected = [
            [concavity_reference(curve, start, end, DEFAULT_N_GRID) for start, end in zip(*phase_bounds(curve))]
            for curve in curves
        ]
        assert concavity_features(curves)[:, :4].tobytes() == np.array(expected).tobytes()

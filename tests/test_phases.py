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
from spiroflow.phases import (
    DEFAULT_N_GRID,
    ConcavityProfile,
    Phase,
    PhaseLabel,
    _directed_areas,
    concavity_features,
    locate_landmarks,
    phases_from_landmarks,
)


def vf(volumes, flows):
    return VolumeFlowCurve(np.asarray(volumes, dtype=float), np.asarray(flows, dtype=float))


def area(curve, phase, n_grid=DEFAULT_N_GRID):
    """One phase's directed area, through the kernel concavity_features runs."""
    return float(_directed_areas(curve, [phase], n_grid)[0])


def chord(curve, phase):
    """(slope, intercept) of the line through the curve at the phase's endpoints."""
    fb, fg = np.interp([phase.start, phase.end], curve.volumes, curve.flows)
    slope = (fg - fb) / (phase.end - phase.start)
    return slope, fb - slope * phase.start


class TestLandmarks:
    def test_simple_peak(self):
        curve = vf(np.linspace(0, 4, 5), [0, 5, 3, 2, 1])
        lm = locate_landmarks(curve)
        assert lm.fvc == 4.0
        assert lm.pef_volume == 1.0
        assert lm.fef50_volume == 2.0

    def test_tie_takes_first(self):
        curve = vf([0, 1, 2, 3], [1, 4, 4, 0])
        assert locate_landmarks(curve).pef_volume == 1.0

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            volumes = np.cumsum(rng.uniform(0.01, 0.2, size=30))
            flows = rng.uniform(0, 8, size=30)
            lm = locate_landmarks(vf(volumes, flows))
            # brute-force scan of every sample
            best = max(range(30), key=lambda i: (flows[i], -i))
            assert lm.pef_volume == volumes[best]
            assert lm.fvc == volumes[-1]
            assert lm.fef25_volume == pytest.approx(0.25 * volumes[-1])

    def test_all_zero_flow_rejected(self):
        with pytest.raises(DegenerateCurve):
            locate_landmarks(vf([0, 1, 2], [0, 0, 0]))


class TestBaseline:
    def test_flat_phase(self):
        # a flat curve is its own chord
        curve = vf([0, 1, 2, 3], [4, 4, 4, 4])
        assert area(curve, Phase(PhaseLabel.PEF_FEF25, 0.5, 2.5)) == 0.0

    def test_direct_arithmetic(self):
        # chord 5 - 5v/3 on [0, 3]; the curve sits 2/3 above it at the kink
        # v = 1, so the area is the triangle -(1/2) * 3 * (2/3) = -1.  The
        # kink falls on the grid (999 = 3 * 333 steps), so the sum is exact.
        curve = vf([0, 1, 3, 4], [5, 4, 0, 0])
        assert area(curve, Phase(PhaseLabel.PEF_FEF25, 0.0, 3.0), n_grid=1000) == pytest.approx(-1.0, abs=1e-12)

    def test_line_passes_through_endpoints(self):
        # at n_grid = 2 the grid is the two endpoints, so the area is the
        # chord's miss there times the phase width
        rng = np.random.default_rng(9)
        for _ in range(20):
            volumes = np.cumsum(rng.uniform(0.05, 0.3, size=12))
            flows = rng.uniform(0, 6, size=12)
            curve = vf(volumes, flows)
            phase = Phase(PhaseLabel.FEF25_FEF50, volumes[2], volumes[-2])
            assert area(curve, phase, n_grid=2) == pytest.approx(0.0, abs=1e-12)

    def test_zero_width_phase_rejected(self):
        with pytest.raises(EmptyPhase):
            Phase(PhaseLabel.PEF_FEF25, 1.0, 1.0)


class TestConcavityMeasure:
    def test_on_baseline_is_zero(self):
        curve = vf([0, 1, 2], [3, 2, 1])
        c = area(curve, Phase(PhaseLabel.PEF_FEF25, 0.0, 2.0))
        assert c == pytest.approx(0.0, abs=1e-12)

    def test_above_baseline_is_negative(self):
        # bulging (full) segment lies above its chord
        volumes = np.linspace(0, 1, 101)
        flows = np.sin(np.pi * volumes)  # above the zero chord
        c = area(vf(volumes, flows), Phase(PhaseLabel.PEF_FEF25, 0.0, 1.0))
        assert c < 0

    def test_quadratic_analytic_integral(self):
        # flow v^2 on [0,1] against chord v: integral of (v - v^2) dv = 1/6
        volumes = np.linspace(0, 1, 2001)
        flows = volumes**2
        c = area(vf(volumes, flows), Phase(PhaseLabel.PEF_FEF25, 0.0, 1.0), n_grid=1000)
        assert c == pytest.approx(1.0 / 6.0, abs=1e-3)

    def test_sign_flip_on_reflection(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            volumes = np.cumsum(rng.uniform(0.02, 0.2, size=15))
            flows = rng.uniform(0, 5, size=15)
            curve = vf(volumes, flows)
            phase = Phase(PhaseLabel.FEF25_FEF50, volumes[1], volumes[-2])
            m, b = chord(curve, phase)
            reflected = vf(volumes, 2 * (m * volumes + b) - flows)
            c = area(curve, phase)
            c_ref = area(reflected, phase)
            assert c_ref == pytest.approx(-c, abs=1e-9)

    def test_grid_convergence(self):
        volumes = np.linspace(0, 2, 400)
        flows = 4 * np.exp(-1.5 * volumes)
        curve = vf(volumes, flows)
        phase = Phase(PhaseLabel.FEF50_FEF75, 0.2, 1.8)
        c1 = area(curve, phase, n_grid=1000)
        c2 = area(curve, phase, n_grid=2000)
        assert abs(c2 - c1) <= 1e-3 * (phase.end - phase.start) * flows.max()


class TestTrend:
    def test_zero_profile(self):
        assert ConcavityProfile(0, 0, 0, 0).trend == 0.0

    def test_early_collapse_gives_large_trend(self):
        assert ConcavityProfile(1, 1, -1, -1).trend == 4.0

    def test_identity_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b, c, d = rng.standard_normal(4)
            assert ConcavityProfile(a, b, c, d).trend == a + b - c - d


class TestConcavityFeatures:
    @staticmethod
    def _vf_from_template(label):
        raw = TimeVolumeCurve(template_curve(DEFAULT_TEMPLATES[label]))
        smoothed = gaussian_smooth(raw)
        return volume_flow_curve(smoothed, differentiate_flow(smoothed))

    def test_healthy_template_stays_full_early(self):
        # full (convex) early phases give negative directed areas
        prof = concavity_features(self._vf_from_template(HorizonLabel.NON_COPD))
        assert prof.c_pef_fef25 < 0
        assert prof.c_fef25_fef50 < 0

    def test_severe_template_collapses_early(self):
        prof = concavity_features(self._vf_from_template(HorizonLabel.WITHIN_1Y))
        assert prof.c_pef_fef25 > 0
        healthy = concavity_features(self._vf_from_template(HorizonLabel.NON_COPD))
        assert prof.trend > healthy.trend

    def test_straight_line_decay_all_zero(self):
        volumes = np.linspace(0, 4, 200)
        flows = 8.0 - 1.9 * volumes
        prof = concavity_features(vf(volumes, flows))
        assert np.allclose(prof.as_array(), 0.0, atol=1e-9)

    def test_trend_identity_exact(self, small_cohort_series):
        for _, curve, _, _ in small_cohort_series[:10]:
            prof = concavity_features(curve)
            expected = prof.c_pef_fef25 + prof.c_fef25_fef50 - prof.c_fef50_fef75 - prof.c_fef75_plus
            assert prof.trend == expected

    def test_constant_flow_all_zero(self):
        # every phase chord coincides with the curve, so all measures vanish
        volumes = np.linspace(0.0, 3.0, 150)
        flows = 2.5 * np.ones_like(volumes)
        prof = concavity_features(vf(volumes, flows))
        assert np.allclose(prof.as_array(), 0.0, atol=1e-9)


def concavity_reference(curve, phase, n_grid):
    """The per-phase measure the one-shot kernel replaced: its own grid and interpolations."""
    grid = np.linspace(phase.start, phase.end, n_grid)
    dv = (phase.end - phase.start) / (n_grid - 1)
    slope, intercept = chord(curve, phase)
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
            phases = phases_from_landmarks(locate_landmarks(curve))
            expected = [concavity_reference(curve, p, n_grid) for p in phases]
            assert concavity_features(curve, n_grid).as_array().tobytes() == np.array(expected).tobytes()
            for p, e in zip(phases, expected):
                assert area(curve, p, n_grid) == e

    def test_cohort_curves_bit_for_bit(self, small_cohort_series):
        for _, curve, _, _ in small_cohort_series:
            phases = phases_from_landmarks(locate_landmarks(curve))
            expected = [concavity_reference(curve, p, 1000) for p in phases]
            assert concavity_features(curve).as_array().tobytes() == np.array(expected).tobytes()

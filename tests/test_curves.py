import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from spiroflow import curves as curves_module
from spiroflow.curves import (
    SmootherConfig,
    TimeFlowCurve,
    TimeVolumeCurve,
    VolumeFlowCurve,
    differentiate_flow,
    gaussian_smooth,
    volume_flow_curve,
)
from spiroflow.errors import InvalidCurve, NonMonotonicVolume


def tv(samples, dt=0.010):
    return TimeVolumeCurve(np.asarray(samples, dtype=float), dt)


class TestGaussianSmooth:
    def test_constant_preserved(self):
        out = gaussian_smooth(tv([2, 2, 2, 2]), SmootherConfig(k=2, sigma=1.0))
        assert np.allclose(out.samples, 2.0)

    def test_linear_ramp_interior_unchanged(self):
        out = gaussian_smooth(tv([0, 1, 2, 3, 4]), SmootherConfig(k=1, sigma=1.0))
        assert np.allclose(out.samples[1:-1], [1, 2, 3])

    def test_impulse_center_value(self):
        # direct evaluation of the normalized kernel at the center
        sigma = 1.0
        g = lambda j: np.exp(-j * j / (2 * sigma**2))
        expected = g(0) / (g(-1) + g(0) + g(1))
        out = gaussian_smooth(tv([0, 0, 1, 0, 0]), SmootherConfig(k=1, sigma=sigma))
        assert out.samples[2] == pytest.approx(expected, abs=1e-14)

    def test_k_zero_is_identity(self):
        x = [0.1, 0.9, 0.4, 0.7]
        out = gaussian_smooth(tv(x), SmootherConfig(k=0, sigma=2.0))
        assert np.array_equal(out.samples, x)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=40),
        st.integers(min_value=0, max_value=8),
        st.floats(min_value=0.1, max_value=5.0),
    )
    def test_output_within_input_bounds(self, samples, k, sigma):
        out = gaussian_smooth(tv(samples), SmootherConfig(k=k, sigma=sigma))
        assert out.samples.min() >= min(samples) - 1e-12
        assert out.samples.max() <= max(samples) + 1e-12

    def test_empty_curve_rejected(self):
        with pytest.raises(InvalidCurve):
            tv([1.0])

    def test_smoothing_reduces_flow_total_variation(self):
        # seeded noisy ramps: the derivative's total variation must shrink
        rng = np.random.default_rng(0)
        for _ in range(20):
            ramp = np.linspace(0, 3, 200) + 0.01 * rng.standard_normal(200)
            curve = tv(np.clip(ramp, 0, None))
            tv_raw = np.abs(np.diff(differentiate_flow(curve).samples)).sum()
            smoothed = gaussian_smooth(curve)
            tv_smooth = np.abs(np.diff(differentiate_flow(smoothed).samples)).sum()
            assert tv_smooth < tv_raw


class TestDifferentiateFlow:
    def test_constant_slope(self):
        v = np.arange(6) * 0.03
        out = differentiate_flow(tv(v))
        assert np.allclose(out.samples, 3.0)
        assert len(out) == 6

    def test_constant_volume(self):
        out = differentiate_flow(tv([1.0, 1.0, 1.0]))
        assert np.allclose(out.samples, 0.0)

    def test_quadratic_against_analytic_derivative(self):
        dt = 0.010
        t = np.arange(300) * dt
        curve = tv(t**2, dt)
        flow = differentiate_flow(curve).samples
        # forward difference of t^2 is 2t + dt; compare against 2t
        assert np.max(np.abs(flow[:-1] - 2 * t[:-1])) <= dt + 1e-12

    def test_too_short_rejected(self):
        with pytest.raises(InvalidCurve):
            tv([0.5])


class TestVolumeFlowCurve:
    def test_strictly_increasing_identity(self):
        v = tv([0.0, 0.5, 1.1, 2.0])
        q = differentiate_flow(v)
        vf = volume_flow_curve(v, q)
        assert np.array_equal(vf.volumes, v.samples)
        assert np.array_equal(vf.flows, q.samples)

    def test_plateau_collapses_to_first_attainment(self):
        v = tv([0.0, 1.0, 1.0, 2.0])
        q = TimeFlowCurve(np.array([1.0, 0.0, 0.0, 1.0]), 0.010)
        vf = volume_flow_curve(v, q)
        assert np.array_equal(vf.volumes, [0.0, 1.0, 2.0])
        assert np.array_equal(vf.flows, [1.0, 0.0, 1.0])

    def test_two_point_curve(self):
        v = tv([0.0, 0.4])
        vf = volume_flow_curve(v, differentiate_flow(v))
        assert len(vf) == 2

    def test_decreasing_volume_rejected(self):
        v = TimeVolumeCurve(np.array([0.0, 1.0, 0.5, 2.0]))
        with pytest.raises(NonMonotonicVolume):
            volume_flow_curve(v, differentiate_flow(v))

    @given(st.lists(st.floats(min_value=0, max_value=0.05), min_size=2, max_size=50))
    def test_output_volumes_non_decreasing(self, increments):
        assume(any(inc > 0 for inc in increments))
        v = tv(np.concatenate([[0.0], np.cumsum(increments)]))
        vf = volume_flow_curve(v, differentiate_flow(v))
        assert np.all(np.diff(vf.volumes) >= 0)


# ---------------------------------------------------------------------------
# the batched pass against the per-curve loops it replaced


def smooth_reference(x, k, sigma):
    """The per-curve tap loop: renormalized Gaussian window, one slice add per tap."""
    n = x.size
    if k == 0:
        return x.copy()
    num = np.zeros(n)
    den = np.zeros(n)
    for j in range(-k, k + 1):
        w = float(np.exp(-(j * j) / (2.0 * sigma**2)))
        lo = max(0, -j)
        hi = min(n, n - j)
        if lo >= hi:
            continue
        num[lo:hi] += w * x[lo + j : hi + j]
        den[lo:hi] += w
    return num / den


def flow_reference(v, dt):
    q = np.empty_like(v)
    q[:-1] = np.diff(v) / dt
    q[-1] = q[-2]
    return q


def keep_reference(v):
    """The Python keep loop: indices whose volume beats every kept one."""
    keep = [0]
    last = v[0]
    for i in range(1, v.size):
        if v[i] > last:
            keep.append(i)
            last = v[i]
    return np.array(keep)


def random_volume_series(rng, length):
    """Non-negative, non-decreasing within VOLUME_TOL: rises, plateaus, small dips, -0.0."""
    steps = rng.choice([0.0, 0.0, 1e-3, 0.02, 0.2], size=length) * rng.random(length)
    v = np.cumsum(steps)
    dips = rng.random(length) < 0.1
    v[dips] = np.maximum(v[dips] - rng.uniform(0, 0.9e-9, dips.sum()), 0.0)
    v[v == 0.0] = rng.choice([0.0, -0.0], size=int((v == 0.0).sum()))
    return v


def bits(a):
    return a.dtype, a.shape, a.tobytes()


class TestBatchedMatchesReference:
    # the default block holds whole batches here; 64 bytes splits them into blocks of a row or two
    @pytest.mark.parametrize("block_bytes", [curves_module.BLOCK_BYTES, 64])
    @pytest.mark.parametrize("k, sigma", [(0, 2.0), (1, 0.7), (5, 2.0), (12, 3.5), (60, 9.0)])
    def test_random_mixed_length_batches(self, k, sigma, block_bytes, monkeypatch):
        monkeypatch.setattr(curves_module, "BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(k)
        for _ in range(30):
            # lengths from 2 to beyond the 2k+1 window, so k also exceeds short curves
            lengths = rng.integers(2, 2 * k + 12, size=rng.integers(1, 9))
            dts = rng.choice([0.01, 0.004, 0.25], size=lengths.size)
            curves = [tv(random_volume_series(rng, n), dt) for n, dt in zip(lengths, dts)]
            smoothed = gaussian_smooth(curves, SmootherConfig(k=k, sigma=sigma))
            flows = differentiate_flow(smoothed)
            for curve, s, q in zip(curves, smoothed, flows):
                assert bits(s.samples) == bits(smooth_reference(curve.samples, k, sigma))
                assert s.dt == q.dt == curve.dt
                assert bits(q.samples) == bits(flow_reference(s.samples, curve.dt))
            usable = [i for i, s in enumerate(smoothed) if keep_reference(s.samples).size >= 2]
            vfs = volume_flow_curve([smoothed[i] for i in usable], [flows[i] for i in usable])
            for i, vf in zip(usable, vfs):
                idx = keep_reference(smoothed[i].samples)
                assert bits(vf.volumes) == bits(smoothed[i].samples[idx])
                assert bits(vf.flows) == bits(flows[i].samples[idx])

    def test_minus_zero_and_within_tolerance_dips(self):
        v = tv([-0.0, 0.0, -0.0, 0.5, 0.5 - 0.9e-9, 0.5, 1.0, 1.0])
        q = TimeFlowCurve(np.arange(8.0), 0.010)
        vf = volume_flow_curve([v], [q])[0]
        assert bits(vf.volumes) == bits(v.samples[[0, 3, 6]])
        assert np.signbit(vf.volumes[0])
        assert bits(vf.flows) == bits(np.array([0.0, 3.0, 6.0]))
        assert bits(gaussian_smooth([v], SmootherConfig(k=0))[0].samples) == bits(v.samples)

    def test_batch_of_one_equals_row_of_larger_batch(self):
        rng = np.random.default_rng(11)
        curves = [tv(random_volume_series(rng, n) + np.arange(n)) for n in (2, 7, 40, 13)]
        smoothed = gaussian_smooth(curves)
        flows = differentiate_flow(smoothed)
        vfs = volume_flow_curve(smoothed, flows)
        for i, curve in enumerate(curves):
            alone = gaussian_smooth(curve)
            assert isinstance(alone, TimeVolumeCurve)
            assert bits(alone.samples) == bits(gaussian_smooth([curve])[0].samples) == bits(smoothed[i].samples)
            flow = differentiate_flow(alone)
            assert bits(flow.samples) == bits(flows[i].samples)
            vf = volume_flow_curve(alone, flow)
            assert bits(vf.volumes) == bits(vfs[i].volumes)
            assert bits(vf.flows) == bits(vfs[i].flows)

    def test_empty_batch(self):
        assert gaussian_smooth([]) == []
        assert differentiate_flow([]) == []
        assert volume_flow_curve([], []) == []

    @pytest.mark.parametrize("block_bytes", [curves_module.BLOCK_BYTES, 64])
    def test_first_bad_curve_is_named_by_row(self, block_bytes, monkeypatch):
        monkeypatch.setattr(curves_module, "BLOCK_BYTES", block_bytes)
        good = tv([0.0, 0.5, 1.0])
        decreasing = tv([0.0, 1.0, 0.5, 2.0])
        flat = tv([1.0, 1.0, 1.0])
        for batch, error, row in (
            ([good, decreasing, flat], NonMonotonicVolume, 1),
            ([good, flat, decreasing], InvalidCurve, 1),
            ([decreasing], NonMonotonicVolume, 0),
            ([good] * 5 + [flat, decreasing], InvalidCurve, 5),
        ):
            with pytest.raises(error) as exc:
                volume_flow_curve(batch, differentiate_flow(batch))
            assert exc.value.row == row

    def test_length_mismatch_rejected(self):
        v = [tv([0.0, 0.5, 1.0]), tv([0.0, 1.0])]
        q = [TimeFlowCurve(np.ones(3)), TimeFlowCurve(np.ones(3))]
        with pytest.raises(InvalidCurve) as exc:
            volume_flow_curve(v, q)
        assert exc.value.row == 1
        with pytest.raises(InvalidCurve):
            volume_flow_curve(v, q[:1])

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from spiroflow.attention import (
    AttentionParams,
    DemographicRecord,
    FUSION_FEATURE_NAMES,
    HeadParams,
    STRUCT_FEATURE_NAMES,
    attention_backward_padded,
    attention_forward_padded,
    attention_overlay,
    demographic_block,
    fuse_and_score,
    fusion_features,
    head_backward,
    head_forward,
    init_head_params,
    overlay_svg,
    _polyline_points,
)
from spiroflow.curves import VolumeFlowCurve
from spiroflow.errors import EmptySequence, InvalidParams
from spiroflow.metrics import auroc
from spiroflow.training import train_logistic


def _params(rng, width=6, attn=3):
    """init_attention_params' draws, but with any score width attn, so the
    kernels are also checked where attn differs from width // 2."""
    return AttentionParams(
        w1=rng.normal(0.0, 1.0 / np.sqrt(width), size=(attn, width)),
        b1=np.zeros(attn),
        w_bil=rng.normal(0.0, 1.0 / np.sqrt(attn), size=(attn, attn)),
        w2=rng.normal(0.0, 1.0 / np.sqrt(attn), size=(attn,)),
        b2=np.zeros(()),
    )


class TestAttentionForward:
    def test_weights_form_distribution_over_valid(self):
        rng = np.random.default_rng(0)
        params = _params(rng)
        contexts = rng.standard_normal((3, 5, 6))
        mask = np.zeros((3, 5), dtype=np.int64)
        mask[0, :5] = 1
        mask[1, :2] = 1
        mask[2, :1] = 1
        weights, pooled, scores, _ = attention_forward_padded(contexts, mask, params)
        assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(weights[mask == 0] == 0.0)
        assert np.all(weights[mask == 1] > 0.0)

    def test_single_valid_patch_gets_full_weight(self):
        rng = np.random.default_rng(1)
        params = _params(rng)
        contexts = rng.standard_normal((1, 4, 6))
        mask = np.array([[1, 0, 0, 0]], dtype=np.int64)
        weights, pooled, _, _ = attention_forward_padded(contexts, mask, params)
        assert weights[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(pooled[0], contexts[0, 0])

    def test_pooled_is_weighted_sum(self):
        rng = np.random.default_rng(2)
        params = _params(rng)
        contexts = rng.standard_normal((2, 3, 6))
        mask = np.ones((2, 3), dtype=np.int64)
        weights, pooled, _, _ = attention_forward_padded(contexts, mask, params)
        for b in range(2):
            assert np.allclose(pooled[b], (weights[b][:, None] * contexts[b]).sum(axis=0), atol=1e-12)

    def test_score_shift_invariance(self):
        # adding a constant to the score bias leaves the weights unchanged
        rng = np.random.default_rng(3)
        params = _params(rng)
        contexts = rng.standard_normal((1, 4, 6))
        mask = np.ones((1, 4), dtype=np.int64)
        w0, _, _, _ = attention_forward_padded(contexts, mask, params)
        shifted = AttentionParams(params.w1, params.b1, params.w_bil, params.w2, params.b2 + 100.0)
        w1, _, _, _ = attention_forward_padded(contexts, mask, shifted)
        assert np.allclose(w0, w1, atol=1e-12)

    def test_padding_invariance(self):
        # extra masked slots never change the result
        rng = np.random.default_rng(4)
        params = _params(rng)
        contexts = rng.standard_normal((1, 3, 6))
        mask = np.ones((1, 3), dtype=np.int64)
        w_a, p_a, _, _ = attention_forward_padded(contexts, mask, params)
        wide = np.concatenate([contexts, rng.standard_normal((1, 2, 6))], axis=1)
        wide_mask = np.concatenate([mask, np.zeros((1, 2), dtype=np.int64)], axis=1)
        w_b, p_b, _, _ = attention_forward_padded(wide, wide_mask, params)
        assert np.allclose(w_a, w_b[:, :3], atol=1e-12)
        assert np.allclose(p_a, p_b, atol=1e-12)

    def test_all_masked_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(EmptySequence):
            attention_forward_padded(np.zeros((1, 2, 6)), np.zeros((1, 2), dtype=np.int64), _params(rng))

    def test_non_finite_params_rejected(self):
        rng = np.random.default_rng(6)
        params = _params(rng)
        params.w1[0, 0] = np.inf
        with pytest.raises(InvalidParams):
            attention_forward_padded(np.zeros((1, 2, 6)), np.ones((1, 2), dtype=np.int64), params)

    def test_swish_at_zero(self):
        # with w1 = 0 the swish stage outputs b1 * sigmoid(b1); check via scores
        rng = np.random.default_rng(7)
        params = _params(rng)
        params.w1[:] = 0.0
        params.b1[:] = 0.0
        contexts = rng.standard_normal((1, 3, 6))
        _, _, scores, _ = attention_forward_padded(contexts, np.ones((1, 3), dtype=np.int64), params)
        # swish(0) = 0 so every score collapses to the bias
        assert np.allclose(scores, float(params.b2), atol=1e-12)


class TestAttentionBackward:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        params = _params(rng, width=4, attn=3)
        contexts = rng.standard_normal((2, 3, 4))
        mask = np.array([[1, 1, 1], [1, 1, 0]], dtype=np.int64)
        proj = rng.standard_normal((2, 4))

        def loss():
            _, pooled, _, _ = attention_forward_padded(contexts, mask, params)
            return float((pooled * proj).sum())

        _, pooled, _, cache = attention_forward_padded(contexts, mask, params)
        dcontexts, grads = attention_backward_padded(proj, cache, params)
        eps = 3e-5
        for name, arr in params.arrays().items():
            flat = np.atleast_1d(arr.reshape(-1))
            g = np.atleast_1d(np.asarray(grads[name]).reshape(-1))
            for idx in range(flat.size):
                keep = flat[idx]
                flat[idx] = keep + eps
                up = loss()
                flat[idx] = keep - eps
                down = loss()
                flat[idx] = keep
                cd = (up - down) / (2 * eps)
                denom = max(abs(g[idx]), abs(cd), 1e-8)
                assert abs(g[idx] - cd) / denom < 1e-4, name
        flat = contexts.reshape(-1)
        g = dcontexts.reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + eps
            up = loss()
            flat[idx] = keep - eps
            down = loss()
            flat[idx] = keep
            cd = (up - down) / (2 * eps)
            denom = max(abs(g[idx]), abs(cd), 1e-8)
            assert abs(g[idx] - cd) / denom < 1e-4


class TestHead:
    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(9)
        params = init_head_params(rng, 6)
        probs, _ = head_forward(rng.standard_normal((4, 6)), params)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_params_give_even_split(self):
        params = HeadParams(w=np.zeros((2, 4)), b=np.zeros(2))
        probs, _ = head_forward(np.ones((1, 4)), params)
        assert probs[0, 1] == 0.5

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        params = init_head_params(rng, 4)
        pooled = rng.standard_normal((3, 4))
        labels = np.array([1, 0, 1])

        def loss():
            probs, _ = head_forward(pooled, params)
            return float(-np.log(probs[np.arange(3), labels]).mean())

        probs, _ = head_forward(pooled, params)
        dlogits = probs.copy()
        dlogits[np.arange(3), labels] -= 1.0
        dlogits /= 3
        _, grads = head_backward(dlogits, pooled, params)
        eps = 3e-5
        for name, arr in params.arrays().items():
            flat = arr.reshape(-1)
            g = grads[name].reshape(-1)
            for idx in range(flat.size):
                keep = flat[idx]
                flat[idx] = keep + eps
                up = loss()
                flat[idx] = keep - eps
                down = loss()
                flat[idx] = keep
                cd = (up - down) / (2 * eps)
                denom = max(abs(g[idx]), abs(cd), 1e-8)
                assert abs(g[idx] - cd) / denom < 1e-4, name


class TestDemographics:
    def test_one_hot_layout(self):
        # age is raw, in years: the logistic models standardize each column
        # and the FEV1/FVC ratio comes from the curve, not the demographics
        block = demographic_block(
            [DemographicRecord("male", 60.0, "former"), DemographicRecord("female", 45.0, "current")], [0.7, 0.55]
        )
        assert block.tolist() == [[0.0, 1.0, 0.0, 1.0, 0.0, 60.0, 0.7], [1.0, 0.0, 0.0, 0.0, 1.0, 45.0, 0.55]]
        assert demographic_block([], []).shape == (0, len(STRUCT_FEATURE_NAMES))
        assert STRUCT_FEATURE_NAMES[5:] == ("age", "fev1_fvc_ratio")

    def test_bad_codes_rejected(self):
        with pytest.raises(InvalidParams):
            DemographicRecord("other", 60.0, "never")
        with pytest.raises(InvalidParams):
            DemographicRecord("male", 60.0, "sometimes")


class TestFusion:
    @staticmethod
    def _fit_fusion(rng, n=200):
        # p_hat mildly informative, ratio strongly so
        labels = rng.integers(0, 2, size=n)
        demos, ratios, p_hats = [], [], []
        for y in labels:
            ratios.append(0.55 + 0.1 * rng.random() if y else 0.75 + 0.1 * rng.random())
            demo = DemographicRecord("male" if rng.random() < 0.5 else "female",
                                     float(rng.uniform(40, 75)),
                                     "current" if y and rng.random() < 0.7 else "never")
            demos.append(demo)
            p_hats.append(float(np.clip(0.5 + (0.25 if y else -0.25) + 0.2 * rng.standard_normal(), 0.01, 0.99)))
        x = fusion_features(p_hats, demographic_block(demos, ratios))
        model, _ = train_logistic(x, labels)
        return model, x, labels

    def test_contributions_are_weight_times_value(self):
        # the value is the standardized one, (value - mean) / scale, which the
        # weights act on
        rng = np.random.default_rng(12)
        model, x, _ = self._fit_fusion(rng)
        struct = demographic_block(
            [DemographicRecord("female", 50.0, "current"), DemographicRecord("male", 70.0, "never")], [0.6, 0.8]
        )
        risks, contributions = fuse_and_score([0.8, 0.3], struct, model)
        assert risks.shape == (2,) and np.all((0.0 < risks) & (risks < 1.0))
        assert contributions.shape == (2, len(FUSION_FEATURE_NAMES))
        assert FUSION_FEATURE_NAMES == ("detection_probability",) + STRUCT_FEATURE_NAMES
        gap = model.weights[1] - model.weights[0]
        for row, (p_hat, struct_row) in enumerate(zip([0.8, 0.3], struct)):
            vec = np.concatenate([[p_hat], struct_row])
            for i in range(len(FUSION_FEATURE_NAMES)):
                assert contributions[row, i] == pytest.approx(gap[i] * (vec[i] - model.mean[i]) / model.scale[i])
        # a record at the training means gets no contribution, and the
        # contributions and the bias gap give the fused log-odds
        centred = fuse_and_score([model.mean[0]], struct[:1], model)[1][0, 0]
        assert centred == pytest.approx(0.0, abs=1e-12)
        log_odds = np.log(risks / (1.0 - risks))
        assert np.allclose(contributions.sum(axis=1) + model.bias[1] - model.bias[0], log_odds, atol=1e-9)

    def test_fusion_does_not_hurt_ranking(self):
        # fused risk should rank at least as well as the raw p_hat alone
        rng = np.random.default_rng(13)
        model, x, labels = self._fit_fusion(rng)
        fused = model.predict_proba(x)[:, 1]
        assert auroc(fused, labels) >= auroc(x[:, 0], labels) - 0.02


def _weights(rng, s):
    """Attention weights (S,) of one sample with s valid patches."""
    weights, _, _, _ = attention_forward_padded(rng.standard_normal((1, s, 6)), np.ones((1, s)), _params(rng))
    return weights[0]


class TestOverlay:
    @staticmethod
    def _curve(n):
        volumes = np.linspace(0.0, 3.0, n)
        flows = np.maximum(4.0 - volumes, 0.1)
        return VolumeFlowCurve(volumes, flows)

    def test_patches_tile_the_volume_axis(self):
        rng = np.random.default_rng(14)
        curve = self._curve(10)
        overlay = attention_overlay(_weights(rng, 3), curve, 4)
        patches = overlay["patches"]
        assert len(patches) == 3
        assert patches[0]["v_start"] == curve.volumes[0]
        assert patches[-1]["v_end"] == curve.volumes[-1]
        for a, b in zip(patches, patches[1:]):
            assert a["v_end"] == b["v_start"]
        assert sum(p["weight"] for p in patches) == pytest.approx(1.0)

    def test_padded_row_maps_exactly_ceil_len_over_k_patches(self):
        # a row padded with zeros past the curve's last patch: the padded
        # slots map to nothing, and the valid ones in order
        rng = np.random.default_rng(15)
        for k, n in [(k, n) for k in (1, 3, 4, 32) for n in (2, k - 1, k, k + 1, 2 * k, 97) if n >= 2]:
            s = -(-n // k)
            row = np.concatenate([_weights(rng, s), np.zeros(int(rng.integers(0, 5)))])
            curve = self._curve(n)
            patches = attention_overlay(row, curve, k)["patches"]
            assert len(patches) == s, (k, n)
            assert [p["weight"] for p in patches] == row[:s].tolist()
            assert [p["v_start"] for p in patches] == curve.volumes[::k].tolist()
            assert patches[-1]["v_end"] == curve.volumes[-1]

    def test_svg_contains_polyline_and_heat_rects(self):
        rng = np.random.default_rng(16)
        curve = self._curve(8)
        overlay = attention_overlay(_weights(rng, 2), curve, 4)
        svg = overlay_svg(overlay, curve)
        assert svg.startswith("<svg")
        assert "<polyline" in svg
        assert svg.count("<rect") == 2

    @staticmethod
    def _fstring_points(xs, ys):
        # the per-point formatting that _polyline_points replaced
        return " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))

    def test_polyline_points_match_fstring_join(self):
        # -0.0 and small negatives print "-0.00"; the others round at the third decimal
        edge = np.array([-0.0, 0.0, -0.004, -0.005, 0.005, 0.015, 0.125, 0.135, 1.005, 2.675, 639.995, 1e-300])
        expected = (
            "-0.00,0.00 0.00,640.00 -0.00,2.67 -0.01,1.00 0.01,0.14 0.01,0.12 "
            "0.12,0.01 0.14,0.01 1.00,-0.01 2.67,-0.00 640.00,0.00 0.00,-0.00"
        )
        assert self._fstring_points(edge, edge[::-1]) == expected
        assert _polyline_points(edge, edge[::-1]) == expected
        rng = np.random.default_rng(17)
        for n in (0, 1, 240):
            xs, ys = rng.uniform(-1.0, 640.0, n), rng.uniform(-1.0, 240.0, n)
            assert _polyline_points(xs, ys) == self._fstring_points(xs, ys)

    def test_svg_polyline_matches_fstring_join(self, small_cohort_series):
        for _, curve, _, _ in small_cohort_series:
            s = -(-len(curve) // 32)
            svg = overlay_svg(attention_overlay(np.full(s, 1.0 / s), curve, 32), curve)
            v, q = curve.volumes, curve.flows
            xs = (v - v[0]) / max(v[-1] - v[0], 1e-12) * 640
            ys = 210 - q / max(float(q.max()), 1e-12) * 200
            assert f'<polyline points="{self._fstring_points(xs, ys)}" ' in svg

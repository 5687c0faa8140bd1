import hashlib
import json
import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from spiroflow import detection, encoder
from spiroflow.detection import DetectionConfig, DetectionModel
from spiroflow.encoder import (
    BiLstmParams,
    ConvEncoderParams,
    bilstm_backward_padded,
    bilstm_forward_padded,
    conv_embed_backward,
    conv_embed_forward,
    pad_rows,
    _conv1d_same,
    _conv1d_same_backward,
    _sigmoid,
)
from spiroflow.errors import InvalidArgument
from spiroflow.training import TrainConfig


def _model(k: int) -> DetectionModel:
    """A detector with k-sample patches, for its _prepare."""
    return DetectionModel(DetectionConfig(patch_len=k))


class TestPatchPlan:
    """The patch geometry, which DetectionModel._prepare owns: a series of n
    samples is cut into s = ceil(n / k) patches of k samples."""

    # n_max: the padded block width of a batch whose longest series has max_length samples
    @pytest.mark.parametrize(
        "length,max_length,k,s,n_max",
        [
            (1, 1, 32, 1, 1),
            (32, 32, 32, 1, 1),
            (33, 64, 32, 2, 2),
            (65, 200, 32, 3, 7),
            (200, 200, 32, 7, 7),
            (10, 100, 3, 4, 34),
        ],
    )
    def test_ceiling_division(self, length, max_length, k, s, n_max):
        _, lengths = _model(k)._prepare([np.ones(length), np.ones(max_length)])
        block, _ = pad_rows(np.zeros((lengths.sum(), 1)), lengths)
        assert (lengths[0], block.shape[1]) == (s, n_max)

    @given(st.integers(1, 500), st.integers(0, 500), st.integers(1, 64))
    def test_counts_cover_without_overflow(self, length, extra, k):
        _, (s, longer) = _model(k)._prepare([np.ones(length), np.ones(length + extra)])
        # s patches of k samples cover the series and waste less than one patch
        assert s * k >= length
        assert (s - 1) * k < length
        assert s <= longer

    def test_invalid_sizes_rejected(self):
        for k in (0, -1):
            with pytest.raises(InvalidArgument, match="patch_len"):
                DetectionConfig(patch_len=k)


class TestPatchify:
    """_prepare cuts a whole batch into patches in one call."""

    def test_exact_multiple(self):
        patches, lengths = _model(3)._prepare([np.arange(6.0) * detection.FLOW_SCALE])
        assert patches.shape == (2, 1, 3) and lengths.tolist() == [2]
        assert np.array_equal(patches[0, 0], [0, 1, 2])
        assert np.array_equal(patches[1, 0], [3, 4, 5])

    def test_last_patch_zero_padded(self):
        patches, _ = _model(3)._prepare([np.array([1.0, 2.0, 3.0, 4.0]) * detection.FLOW_SCALE])
        assert np.array_equal(patches[1, 0], [4.0, 0.0, 0.0])

    @pytest.mark.parametrize("k", [1, 3, 8, 32])
    def test_ragged_batch_equals_each_series_patched_alone_bit_for_bit(self, k):
        # each series / FLOW_SCALE, zero-padded to a multiple of k, cut into
        # rows of k and stacked in batch order
        rng = np.random.default_rng(k)
        sizes = [m for m in (1, k - 1, k, k + 1, 2 * k) if m >= 1] + rng.integers(1, 501, size=24).tolist()
        rng.shuffle(sizes)
        series = [rng.uniform(0.0, 12.0, size=m) for m in sizes]
        patches, lengths = _model(k)._prepare(series)
        expected = []
        for x in series:
            padded = np.zeros(math.ceil(x.size / k) * k)
            padded[: x.size] = x / detection.FLOW_SCALE
            expected.append(padded.reshape(-1, 1, k))
        expected = np.concatenate(expected)
        assert patches.shape == expected.shape and patches.dtype == expected.dtype
        assert patches.tobytes() == expected.tobytes()
        assert lengths.tolist() == [math.ceil(m / k) for m in sizes]


class TestConvEmbed:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        params = DetectionModel(DetectionConfig(channels=4, conv_kernel=3, seed=0)).conv
        feats, _ = conv_embed_forward(rng.standard_normal((5, 1, 8)), params)
        assert feats.shape == (5, 4)

    def test_patch_independence(self):
        # embedding is per patch: reordering patches reorders rows
        rng = np.random.default_rng(1)
        params = DetectionModel(DetectionConfig(channels=3, conv_kernel=3, seed=1)).conv
        patches = rng.standard_normal((4, 1, 6))
        feats, _ = conv_embed_forward(patches, params)
        perm = np.array([2, 0, 3, 1])
        feats_perm, _ = conv_embed_forward(patches[perm], params)
        assert np.allclose(feats_perm, feats[perm])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        params = DetectionModel(DetectionConfig(channels=2, conv_kernel=3, seed=7)).conv
        patches = rng.standard_normal((3, 1, 5))
        proj = rng.standard_normal((3, 2))

        def loss():
            feats, _ = conv_embed_forward(patches, params)
            return float((feats * proj).sum())

        feats, cache = conv_embed_forward(patches, params, keep_cache=True)
        grads = conv_embed_backward(proj, cache, params)
        eps = 3e-5
        for field in fields(params):
            name = field.name
            flat = getattr(params, name).reshape(-1)
            g = getattr(grads, name).reshape(-1)
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


def _naive_conv(x, w, b):
    """out[p, o, l] = b[o] + sum over c, t of w[o, c, t] * x[p, c, l + t - K // 2], zeros outside."""
    n, c_in, length = x.shape
    c_out, _, kernel = w.shape
    out = np.zeros((n, c_out, length))
    for p in range(n):
        for o in range(c_out):
            for l in range(length):
                acc = b[o]
                for c in range(c_in):
                    for t in range(kernel):
                        m = l + t - kernel // 2
                        if 0 <= m < length:
                            acc += w[o, c, t] * x[p, c, m]
                out[p, o, l] = acc
    return out


def _naive_conv_backward(dy, x, w):
    """Gradients of _naive_conv, term by term from the same definition."""
    n, c_in, length = x.shape
    c_out, _, kernel = w.shape
    dx, dw, db = np.zeros_like(x), np.zeros_like(w), np.zeros(c_out)
    for p in range(n):
        for o in range(c_out):
            for l in range(length):
                db[o] += dy[p, o, l]
                for c in range(c_in):
                    for t in range(kernel):
                        m = l + t - kernel // 2
                        if 0 <= m < length:
                            dx[p, c, m] += w[o, c, t] * dy[p, o, l]
                            dw[o, c, t] += dy[p, o, l] * x[p, c, m]
    return dx, dw, db


class TestConvKernels:
    """The channels-last blocked kernels against zero-padded correlation by
    nested loops; a block of two patches makes every call span blocks."""

    @pytest.mark.parametrize("length", [2, 7])  # 2: a patch shorter than the kernel
    @pytest.mark.parametrize("c_in", [1, 3])
    @pytest.mark.parametrize("kernel", [3, 4, 5])
    def test_forward_matches_naive(self, c_in, kernel, length, monkeypatch):
        monkeypatch.setattr(encoder, "CONV_BLOCK", 2)
        rng = np.random.default_rng(20 + kernel)
        x = rng.standard_normal((5, c_in, length))
        w = rng.standard_normal((4, c_in, kernel))
        b = rng.standard_normal(4)
        out = _conv1d_same(x.transpose(0, 2, 1), w, b).transpose(0, 2, 1)
        assert np.abs(out - _naive_conv(x, w, b)).max() < 1e-12

    @pytest.mark.parametrize("length", [2, 7])  # 2: a patch shorter than the kernel
    @pytest.mark.parametrize("c_in", [1, 3])
    @pytest.mark.parametrize("kernel", [3, 4, 5])
    def test_backward_matches_naive(self, c_in, kernel, length, monkeypatch):
        monkeypatch.setattr(encoder, "CONV_BLOCK", 2)
        rng = np.random.default_rng(30 + kernel)
        x = rng.standard_normal((5, c_in, length))
        w = rng.standard_normal((4, c_in, kernel))
        dy = rng.standard_normal((5, 4, length))
        dx, dw, db = _conv1d_same_backward(dy.transpose(0, 2, 1), x.transpose(0, 2, 1), w)
        ref_dx, ref_dw, ref_db = _naive_conv_backward(dy, x, w)
        assert np.abs(dx.transpose(0, 2, 1) - ref_dx).max() < 1e-12
        assert np.abs(dw - ref_dw).max() < 1e-12
        assert np.abs(db - ref_db).max() < 1e-12
        skipped, dw_only, _ = _conv1d_same_backward(
            dy.transpose(0, 2, 1), x.transpose(0, 2, 1), w, input_grad=False
        )
        assert skipped is None and np.array_equal(dw_only, dw)


def test_sigmoid_matches_masked_reference_bit_for_bit():
    x = np.concatenate(
        [np.random.default_rng(50).standard_normal(200) * 30, [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan]]
    )
    ref = np.empty_like(x)
    pos = x >= 0
    ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    ref[~pos] = ex / (1.0 + ex)
    assert np.array_equal(_sigmoid(x), ref, equal_nan=True)
    assert np.array_equal(_sigmoid(x.reshape(-1, 9)), ref.reshape(-1, 9), equal_nan=True)


class TestForwardOnlyLoss:
    def test_equals_loss_and_grads_bit_for_bit(self, small_cohort_series):
        # the loss that train logs after its last epoch, here the zeroth, is
        # the fitted rows' loss in the forward-only pass over every series,
        # and equals a loss pass over those rows alone
        series = [s for s, _, _, _ in small_cohort_series]
        labels = np.array([y for _, _, y, _ in small_cohort_series])
        model = DetectionModel(DetectionConfig(seed=3))
        # the whole fixture, and three records that hold both classes
        for rows in (np.arange(len(series)), np.array([0, 1, len(series) - 1])):
            assert set(labels[rows]) == {0, 1}
            subset = [series[i] for i in rows]
            trace, _, _ = model.train(series, labels, TrainConfig(epochs=0), rows)
            assert trace == [model.loss_and_grads(subset, labels[rows])[0]]


class TestCacheFreeForward:
    def test_matches_caching_pass_bit_for_bit(self, small_cohort_series):
        series = [s for s, _, _, _ in small_cohort_series]
        model = DetectionModel(DetectionConfig(seed=4))
        pooled, weights, cache = model._pool(series)
        pooled_c, weights_c, cache_c = model._pool(series, keep_cache=True)
        assert cache is None and cache_c is not None
        assert np.array_equal(pooled, pooled_c)
        assert np.array_equal(weights, weights_c)

    def test_explain_rows_equal_predict_proba(self, small_cohort_series):
        series = [s for s, _, _, _ in small_cohort_series]
        model = DetectionModel(DetectionConfig(seed=4))
        p_hat, weights = model.explain(series)
        assert np.array_equal(p_hat, model.predict_proba(series))
        counts = [math.ceil(len(x) / model.config.patch_len) for x in series]
        assert weights.shape == (len(series), max(counts))
        for row, s in zip(weights, counts):
            assert row[:s].sum() == pytest.approx(1.0)
            assert np.all(row[s:] == 0.0)

    def test_record_blocks_match_one_whole_batch_pass_bit_for_bit(self, monkeypatch):
        # 700 mixed-length records in blocks of RECORD_BLOCK, the last block
        # taking the remainder and the longest record, against one block
        rng = np.random.default_rng(18)
        lengths = rng.integers(5, 60, size=700)
        lengths[-2] = 300
        series = [np.cumsum(rng.uniform(0.0, 0.5, size=m)) for m in lengths]
        model = DetectionModel(DetectionConfig(patch_len=8, seed=7))
        blocks = []
        pool = model._pool
        monkeypatch.setattr(model, "_pool", lambda *a, **kw: blocks.append(len(a[0])) or pool(*a, **kw))
        p_hat, weights = model.explain(series)
        step = detection.RECORD_BLOCK
        n_blocks = 700 // step
        assert n_blocks >= 3 and blocks == [step] * (n_blocks - 1) + [700 - step * (n_blocks - 1)]
        blocks.clear()
        monkeypatch.setattr(detection, "RECORD_BLOCK", 700)
        p_whole, whole = model.explain(series)
        assert blocks == [700]
        assert np.array_equal(p_hat, p_whole)
        assert np.array_equal(weights, whole)
        assert weights.shape == (700, math.ceil(300 / 8))
        for row, m in zip(weights, lengths):
            assert np.all(row[math.ceil(m / 8) :] == 0.0)
        assert np.array_equal(model.predict_proba(series), p_hat)

    def test_blocked_conv_matches_whole_batch_bit_for_bit(self, monkeypatch):
        # seven patches in blocks of two: three full blocks and a partial one
        monkeypatch.setattr(encoder, "CONV_BLOCK", 2)
        rng = np.random.default_rng(16)
        params = DetectionModel(DetectionConfig(channels=3, conv_kernel=5, seed=16)).conv
        patches = rng.standard_normal((7, 1, 6))
        feats, none = conv_embed_forward(patches, params)
        feats_c, (x, z1, z2) = conv_embed_forward(patches, params, keep_cache=True)
        assert none is None
        assert np.array_equal(feats, feats_c)
        ref_z1 = np.tanh(_conv1d_same(patches.transpose(0, 2, 1), params.w1, params.b1))
        ref_z2 = np.tanh(_conv1d_same(ref_z1, params.w2, params.b2))
        assert np.array_equal(x, patches.transpose(0, 2, 1))
        assert np.array_equal(z1, ref_z1) and np.array_equal(z2, ref_z2)
        assert np.array_equal(feats, ref_z2.mean(axis=1))

    def test_backward_that_overwrites_its_cache_matches_an_out_of_place_one(self, monkeypatch):
        # seven patches in blocks of two; the reference reads copies of the
        # cache and makes a new array for every step, so z1 must still hold
        # the tanh output when the second layer's weight gradient reads it
        monkeypatch.setattr(encoder, "CONV_BLOCK", 2)
        rng = np.random.default_rng(18)
        params = DetectionModel(DetectionConfig(channels=3, conv_kernel=5, seed=18)).conv
        patches = rng.standard_normal((7, 1, 6))
        dfeats = rng.standard_normal((7, 3))
        _, cache = conv_embed_forward(patches, params, keep_cache=True)
        x, z1, z2 = (a.copy() for a in cache)
        da2 = (1.0 - z2 * z2) * (dfeats[:, None, :] / x.shape[1])
        dz1, dw2, db2 = _conv1d_same_backward(da2, z1, params.w2)
        _, dw1, db1 = _conv1d_same_backward(dz1 * (1.0 - z1 * z1), x, params.w1, input_grad=False)
        grads = conv_embed_backward(dfeats, cache, params)
        ref = ConvEncoderParams(dw1, db1, dw2, db2)
        assert isinstance(grads, ConvEncoderParams)
        for field in fields(ref):
            assert np.array_equal(getattr(grads, field.name), getattr(ref, field.name)), field.name

    def test_forward_only_conv_memory_is_bounded_by_the_block(self):
        # past two blocks, more patches add only their (P, C) output rows
        params = DetectionModel(DetectionConfig(seed=17)).conv
        peaks = {}
        for blocks in (2, 16):
            patches = np.random.default_rng(blocks).standard_normal((blocks * encoder.CONV_BLOCK, 1, 32))
            tracemalloc.start()
            try:
                conv_embed_forward(patches, params, keep_cache=False)
                peaks[blocks] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        extra_rows = 14 * encoder.CONV_BLOCK * params.channels * 8
        assert peaks[16] - peaks[2] <= extra_rows + 2**20, peaks

    def test_training_conv_memory_is_bounded_by_the_block(self):
        # past two blocks, more patches add only whole-batch arrays of one
        # value per patch sample and channel -- the caches z1s and z2s, which
        # the backward pass overwrites with da2 and the tanh slope at z1, and
        # its dz1 -- and (P, C) rows; each im2col buffer stays one block in
        # size, where a whole-batch one for the second layer alone would add
        # five arrays
        params = DetectionModel(DetectionConfig(seed=17)).conv
        peaks = {}
        for blocks in (2, 16):
            rng = np.random.default_rng(blocks)
            patches = rng.standard_normal((blocks * encoder.CONV_BLOCK, 1, 32))
            dfeats = rng.standard_normal((blocks * encoder.CONV_BLOCK, params.channels))
            tracemalloc.start()
            try:
                _, cache = conv_embed_forward(patches, params, keep_cache=True)
                conv_embed_backward(dfeats, cache, params)
                peaks[blocks] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        extra = 14 * encoder.CONV_BLOCK
        whole_batch = 3 * extra * 32 * params.channels * 8
        extra_rows = 2 * extra * params.channels * 8
        assert peaks[16] - peaks[2] <= whole_batch + extra_rows + 2**20, peaks

    def test_lstm_keeps_no_per_step_caches_unless_asked(self):
        rng = np.random.default_rng(15)
        params = DetectionModel(DetectionConfig(channels=2, hidden=3, seed=15)).lstm
        x = rng.standard_normal((2, 4, 2))
        lengths = np.array([4, 2])
        out, (cache_f, cache_b, _) = bilstm_forward_padded(x, lengths, params)
        out_c, cache = bilstm_forward_padded(x, lengths, params, keep_cache=True)
        assert cache_f is None and cache_b is None
        assert len(cache[0]) == len(cache[1]) == 4
        assert np.array_equal(out, out_c)


class TestMaskAndPack:
    """pad_rows: the one routine that pads the conv rows into the LSTM's block,
    and whose mask packs the block's gradient back into rows."""

    @staticmethod
    def _random_cohort(rng, n, s_max, channels=3):
        lengths = rng.integers(1, s_max + 1, size=n)
        return [rng.standard_normal((s, channels)) for s in lengths], lengths

    def test_mask_is_prefix_of_ones(self):
        rng = np.random.default_rng(2)
        feats, lengths = self._random_cohort(rng, 6, 5)
        _, mask = pad_rows(np.concatenate(feats), lengths)
        assert mask.shape == (6, lengths.max())
        for row, s in zip(mask, lengths):
            assert np.all(row[:s]) and not np.any(row[s:])

    def test_masked_rows_are_zero(self):
        rng = np.random.default_rng(3)
        feats, lengths = self._random_cohort(rng, 5, 4)
        block, mask = pad_rows(np.concatenate(feats), lengths)
        assert np.all(block[~mask] == 0.0)

    def test_packed_rows_concatenate_valid_spans(self):
        rng = np.random.default_rng(4)
        feats, lengths = self._random_cohort(rng, 7, 6)
        rows = np.concatenate(feats)
        block, mask = pad_rows(rows, lengths)
        assert np.array_equal(block[mask], rows)
        for i, f in enumerate(feats):
            assert np.array_equal(block[i, : len(f)], f)

    def test_pack_unpack_round_trip(self):
        # any zero-padded block survives packing through the mask and padding again
        rng = np.random.default_rng(5)
        for trial in range(10):
            lengths = rng.integers(1, 7, size=int(rng.integers(1, 9)))
            block = rng.standard_normal((lengths.size, lengths.max(), 3))
            for i, s in enumerate(lengths):
                block[i, s:] = 0.0
            _, mask = pad_rows(np.zeros((lengths.sum(), 3)), lengths)
            rebuilt, rebuilt_mask = pad_rows(block[mask], lengths)
            assert np.array_equal(rebuilt, block)
            assert np.array_equal(rebuilt_mask, mask)

    def test_explicit_width_adds_padded_slots(self):
        rng = np.random.default_rng(6)
        feats, lengths = self._random_cohort(rng, 5, 4)
        rows = np.concatenate(feats)
        block, mask = pad_rows(rows, lengths)
        wide, wide_mask = pad_rows(rows, lengths, lengths.max() + 3)
        assert wide.shape == (5, lengths.max() + 3, 3) and not np.any(wide_mask[:, lengths.max() :])
        assert np.array_equal(wide[:, : lengths.max()], block) and np.all(wide[:, lengths.max() :] == 0.0)
        assert np.array_equal(wide[wide_mask], rows)
        with pytest.raises(ValueError):
            pad_rows(rows, lengths, lengths.max() - 1)

    def test_shape_mismatch_rejected(self):
        # three rows for a sample of two patches
        with pytest.raises(ValueError):
            pad_rows(np.zeros((3, 2)), np.array([2]))


class TestLstm:
    def test_zero_input_zero_bias_outputs_zero_cell_path(self):
        # all-zero input with zero biases keeps g = tanh(0) = 0, so c and h stay 0
        params = DetectionModel(DetectionConfig(channels=3, hidden=2, seed=0)).lstm
        x = np.zeros((2, 4, 3))
        lengths = np.array([4, 2])
        out, _ = bilstm_forward_padded(x, lengths, params)
        assert np.allclose(out, 0.0)

    def test_single_step_closed_form(self):
        rng = np.random.default_rng(8)
        params = DetectionModel(DetectionConfig(channels=3, hidden=2, seed=8)).lstm
        x = rng.standard_normal((1, 1, 3))
        out, _ = bilstm_forward_padded(x, np.array([1]), params)
        # with h0 = c0 = 0: h = sigmoid(o_pre) * tanh(sigmoid(i_pre) * tanh(g_pre))
        for w, u, b, sl in ((params.w_f, params.u_f, params.b_f, slice(0, 2)), (params.w_b, params.u_b, params.b_b, slice(2, 4))):
            pre = x[0, 0] @ w.T + b
            h = 2
            i = _sigmoid(pre[:h])
            g = np.tanh(pre[2 * h : 3 * h])
            o = _sigmoid(pre[3 * h :])
            expected = o * np.tanh(i * g)
            assert np.allclose(out[0, 0, sl], expected, atol=1e-12)

    def test_padding_does_not_leak_across_samples(self):
        # each sample's output is identical whether processed alone or batched
        rng = np.random.default_rng(9)
        params = DetectionModel(DetectionConfig(channels=2, hidden=3, seed=9)).lstm
        lengths = np.array([5, 2, 3])
        x = rng.standard_normal((3, 5, 2))
        for i, s in enumerate(lengths):
            x[i, s:] = 0.0
        batched, _ = bilstm_forward_padded(x, lengths, params)
        for i, s in enumerate(lengths):
            solo, _ = bilstm_forward_padded(x[i : i + 1, :s], np.array([s]), params)
            assert np.allclose(batched[i, :s], solo[0], atol=1e-12)
            assert np.allclose(batched[i, s:], 0.0)

    def test_forward_backward_direction_symmetry(self):
        # swapping direction weights and reversing the input reverses the output halves
        rng = np.random.default_rng(10)
        p = DetectionModel(DetectionConfig(channels=2, hidden=2, seed=10)).lstm
        swapped = BiLstmParams(p.w_b, p.u_b, p.b_b, p.w_f, p.u_f, p.b_f)
        x = rng.standard_normal((1, 4, 2))
        out, _ = bilstm_forward_padded(x, np.array([4]), p)
        out_sw, _ = bilstm_forward_padded(x[:, ::-1], np.array([4]), swapped)
        h = 2
        assert np.allclose(out[0, :, :h], out_sw[0, ::-1, h:], atol=1e-12)
        assert np.allclose(out[0, :, h:], out_sw[0, ::-1, :h], atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        params = DetectionModel(DetectionConfig(channels=2, hidden=2, seed=11)).lstm
        x = rng.standard_normal((2, 3, 2))
        lengths = np.array([3, 2])
        x[1, 2:] = 0.0
        proj = rng.standard_normal((2, 3, 4))
        proj[1, 2:] = 0.0

        def loss():
            out, _ = bilstm_forward_padded(x, lengths, params)
            return float((out * proj).sum())

        out, cache = bilstm_forward_padded(x, lengths, params, keep_cache=True)
        dx, grads = bilstm_backward_padded(proj, cache, params)
        eps = 3e-5
        for field in fields(params):
            name = field.name
            flat = getattr(params, name).reshape(-1)
            g = getattr(grads, name).reshape(-1)
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
        # input gradient too, on the valid region
        flat = x.reshape(-1)
        gx = dx.reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + eps
            up = loss()
            flat[idx] = keep - eps
            down = loss()
            flat[idx] = keep
            cd = (up - down) / (2 * eps)
            denom = max(abs(gx[idx]), abs(cd), 1e-8)
            assert abs(gx[idx] - cd) / denom < 1e-4

    def test_packed_wrapper_matches_padded(self):
        # rows padded by pad_rows, run as one batch and packed back through its
        # mask equal each sample's rows run alone
        rng = np.random.default_rng(12)
        params = DetectionModel(DetectionConfig(channels=3, hidden=2, seed=12)).lstm
        lengths = np.array([4, 1, 3])
        rows = rng.standard_normal((8, 3))
        block, mask = pad_rows(rows, lengths)
        out, _ = bilstm_forward_padded(block, lengths, params)
        packed = out[mask]
        assert packed.shape == (8, 4)
        offset = 0
        for s in lengths:
            solo, _ = bilstm_forward_padded(rows[None, offset : offset + s], np.array([s]), params)
            assert np.allclose(packed[offset : offset + s], solo[0], atol=1e-12)
            offset += s


class TestEncodePatches:
    # one sequence's patch features: a batch of one through the conv kernel
    def test_full_path_shape(self):
        rng = np.random.default_rng(13)
        conv = DetectionModel(DetectionConfig(channels=4, conv_kernel=3, seed=13)).conv
        patches, lengths = _model(8)._prepare([rng.standard_normal(37)])
        feats, _ = conv_embed_forward(patches, conv)
        assert feats.shape == (lengths[0], 4) == (5, 4)

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        conv = DetectionModel(DetectionConfig(channels=4, conv_kernel=5, seed=14)).conv
        patches, _ = _model(16)._prepare([rng.standard_normal(50)])
        first, _ = conv_embed_forward(patches, conv)
        second, _ = conv_embed_forward(patches, conv)
        assert np.array_equal(first, second)


class TestUnseenLength:
    def test_series_longer_than_any_trained_on(self, small_cohort_series):
        # no dataset-wide maximum: the block is as wide as the batch's longest series
        short = [s[:64] for s, _, _, _ in small_cohort_series]
        labels = np.array([y for _, _, y, _ in small_cohort_series])
        model = DetectionModel(DetectionConfig(seed=6))
        model.train(short, labels, TrainConfig(lr=0.05, epochs=1, batch_size=8, seed=0), range(len(short)))
        longest = max((s for s, _, _, _ in small_cohort_series), key=len)
        assert len(longest) > 3 * 64
        alone = model.predict_proba([longest])[0]
        mixed = model.predict_proba(short[:3] + [longest] + short[3:5])
        assert 0.0 < alone < 1.0
        assert abs(mixed[3] - alone) <= 1e-12
        assert np.abs(mixed[[0, 1, 2, 4, 5]] - model.predict_proba(short[:5])).max() <= 1e-12


def test_checkpoint_with_max_length_still_loads():
    # checkpoints written before the dataset-wide maximum and the attention
    # width were dropped carry a max_length key and a null config.attn_width
    model = DetectionModel(DetectionConfig(seed=5))
    blob = model.to_dict()
    assert "max_length" not in blob and "attn_width" not in blob["config"]
    old = DetectionModel.from_dict({**blob, "max_length": 240, "config": {**blob["config"], "attn_width": None}})
    assert all(np.array_equal(value, old.params()[name]) for name, value in model.params().items())


# a detector whose fan-ins all differ from the default one's: c != h and kernel != kernel * c
SMALL = DetectionConfig(patch_len=8, channels=3, hidden=2, conv_kernel=3, seed=11)


class TestParameters:
    def test_initial_parameters_are_the_seeded_draws(self):
        # the bytes train-detect starts from: sha256 over each array's name
        # and bytes, in params() order
        expected = [
            (DetectionConfig(seed=0), "105ef89bc3226098b2eb19b79f268266b0c080e5b3ed262d7af8014b92833b25"),
            (DetectionConfig(seed=7), "aa0aef6e067024e22c2a978ab763d7f44d901288fa37191e38412693cf2fce9f"),
            (SMALL, "3c859f229e0f63968b94a8d095f6bd77d62e77aa95045ebaf0a9258b7d103ac7"),
        ]
        for config, digest in expected:
            h = hashlib.sha256()
            for name, value in DetectionModel(config).params().items():
                h.update(name.encode())
                h.update(value.tobytes())
            assert h.hexdigest() == digest, config

    def test_gradients_carry_the_parameters_names_order_and_shapes(self, small_cohort_series):
        # two copd records of different lengths and two non-copd ones
        batch = [small_cohort_series[i] for i in (0, 6, 30, 31)]
        model = DetectionModel(SMALL)
        _, grads = model.loss_and_grads([s for s, _, _, _ in batch], [y for _, _, y, _ in batch])
        params = model.params()
        assert list(grads) == list(params)
        assert [g.shape for g in grads.values()] == [p.shape for p in params.values()]

    @pytest.mark.parametrize("config", [DetectionConfig(seed=5), SMALL])
    def test_loaded_model_owns_the_checkpoint_arrays(self, config):
        # from_dict builds every group from the checkpoint's arrays: the same
        # names, shapes and values, each array the model's own, writable and
        # C-contiguous, because gradient checks perturb params() in place
        model = DetectionModel(config)
        loaded = DetectionModel.from_dict(json.loads(json.dumps(model.to_dict())))
        assert loaded.config == config
        drawn = model.params()
        assert list(loaded.params()) == list(drawn)
        for name, value in loaded.params().items():
            assert value.shape == drawn[name].shape and np.array_equal(value, drawn[name]), name
            assert value.flags.c_contiguous and value.flags.writeable, name
            value.reshape(-1)[0] = 9.0
            assert loaded.params()[name].reshape(-1)[0] == 9.0, name

"""End-to-end detection stack: key patches -> conv patch embedding ->
Bi-LSTM -> volume attention -> two-class head, with hand-derived gradients
(validated against finite differences in the tests) that `training.sgd`
trains on.  `DetectionModel._prepare` is the one owner of the patch
geometry: a series of n samples is cut into ceil(n / k) patches of k
samples, the last one zero-padded, and attention weight j of a record
belongs to its samples [j k, (j + 1) k).  A new model draws its parameters
from its config's seed; a checkpoint is loaded by building each parameter
group from its arrays, in the shapes its config gives, so loading a fitted
detector draws no random numbers and never imports numpy.random.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .attention import (
    AttentionParams,
    HeadParams,
    attention_backward_padded,
    attention_forward_padded,
    head_backward,
    head_forward,
    init_attention_params,
    init_head_params,
)
from .encoder import (
    DEFAULT_CHANNELS,
    DEFAULT_CONV_KERNEL,
    DEFAULT_HIDDEN,
    DEFAULT_PATCH_LEN,
    BiLstmParams,
    ConvEncoderParams,
    bilstm_backward_padded,
    bilstm_forward_padded,
    conv_embed_backward,
    conv_embed_forward,
    init_bilstm_params,
    init_conv_params,
    pad_rows,
)
from .errors import DegenerateLabels, InvalidArgument
from .training import TrainConfig, diverged, exact_array, json_object, mean_cross_entropy, sgd

FLOW_SCALE = 10.0  # liters/second; keeps tanh inputs in a sane range
RECORD_BLOCK = 128  # records per forward-only block; a multiple of BLAS's row tiles


@dataclass
class DetectionConfig:
    patch_len: int = DEFAULT_PATCH_LEN
    channels: int = DEFAULT_CHANNELS
    hidden: int = DEFAULT_HIDDEN
    conv_kernel: int = DEFAULT_CONV_KERNEL
    seed: int = 0

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidArgument(f"{name} must be an integer, not {value!r}")
            lowest = 0 if name == "seed" else 1
            if value < lowest:
                raise InvalidArgument(f"{name} must be >= {lowest}, not {value}")


def _parameter_layout(config: DetectionConfig):
    """Each parameter group's class and its arrays' checkpoint names and
    shapes, in the order of the class's fields: the shapes that the init_*
    functions draw for this config."""
    c, h, kernel = config.channels, config.hidden, config.conv_kernel
    lstm = {"w": (4 * h, c), "u": (4 * h, h), "b": (4 * h,)}
    return (
        (ConvEncoderParams, {"conv_w1": (c, 1, kernel), "conv_b1": (c,), "conv_w2": (c, c, kernel), "conv_b2": (c,)}),
        (BiLstmParams, {f"lstm_{d}_{name}": shape for d in ("fw", "bw") for name, shape in lstm.items()}),
        # the attention width is half the context width 2h
        (AttentionParams, {"attn_w1": (h, 2 * h), "attn_b1": (h,), "attn_bil": (h, h), "attn_w2": (h,), "attn_b2": ()}),
        (HeadParams, {"head_w": (2, 2 * h), "head_b": (2,)}),
    )


class DetectionModel:
    """Binary COPD detector over varied-length flow series."""

    def __init__(self, config: DetectionConfig, groups: tuple | None = None):
        """A detector of config's shape with these parameter groups (conv,
        lstm, attn, head); without them, each is drawn from config.seed."""
        self.config = config
        if groups is None:
            rng = np.random.default_rng(config.seed)
            groups = (
                init_conv_params(rng, config.channels, config.conv_kernel),
                init_bilstm_params(rng, config.channels, config.hidden),
                init_attention_params(rng, 2 * config.hidden),
                init_head_params(rng, 2 * config.hidden),
            )
        self.conv, self.lstm, self.attn, self.head = groups

    # -- parameter plumbing -------------------------------------------------

    def params(self) -> dict[str, np.ndarray]:
        out = {}
        for group in (self.conv, self.lstm, self.attn, self.head):
            out.update(group.arrays())
        return out

    # -- forward / backward -------------------------------------------------

    def _prepare(self, series_list):
        """Every series / FLOW_SCALE cut into patches of k samples, the last
        one zero-padded, in one call over the batch: (patches (P, 1, k),
        lengths), lengths[i] = ceil(len(series i) / k) patches, in order."""
        k = self.config.patch_len
        sizes = np.array([len(s) for s in series_list])
        lengths = -(-sizes // k)
        rows, _ = pad_rows(np.concatenate(series_list) / FLOW_SCALE, sizes, int(lengths.max()) * k)
        patches = rows.reshape(len(sizes), -1, k)[np.arange(lengths.max()) < lengths[:, None]]
        return patches[:, None, :], lengths

    def _pool(self, series_list, keep_cache: bool = False, width: int | None = None):
        """Conv, LSTM and attention over one batch padded to width patches
        (default: the widest series'): (pooled (N, 2H), weights, cache);
        cache is None unless keep_cache (backward follows)."""
        patches, lengths = self._prepare(series_list)
        feats, conv_cache = conv_embed_forward(patches, self.conv, keep_cache)
        block, mask = pad_rows(feats, lengths, width)
        contexts, lstm_cache = bilstm_forward_padded(block, lengths, self.lstm, keep_cache)
        weights, pooled, _, attn_cache = attention_forward_padded(contexts, mask, self.attn)
        cache = (conv_cache, mask, lstm_cache, attn_cache) if keep_cache else None
        return pooled, weights, cache

    def _infer(self, series_list):
        """The one forward-only pass: (probs (N, 2), attention weights (N, S)).

        Conv, LSTM and attention run blocks of RECORD_BLOCK records, the
        last block also taking the remainder, so the padded arrays hold
        fewer than 2 * RECORD_BLOCK records; the head then runs once over
        every block's pooled contexts.  This gives the bits of one
        whole-batch pass:
        - each block is padded to S, the patch count of the batch's longest
          series, because the attention softmax and pooling sum over the
          padded patch axis and round by its width;
        - no block is a short tail and the head sees every row at once,
          because BLAS multiplies a few rows with other kernels than many,
          which round differently.
        """
        n = len(series_list)
        width = self.patch_width(series_list)
        bounds = [0, *range(RECORD_BLOCK, n - RECORD_BLOCK + 1, RECORD_BLOCK), n]
        blocks = [self._pool(series_list[lo:hi], width=width) for lo, hi in zip(bounds, bounds[1:])]
        probs, _ = head_forward(np.concatenate([b[0] for b in blocks]), self.head)
        return probs, np.concatenate([b[1] for b in blocks])

    def patch_width(self, series_list) -> int:
        """S, the patch count of the batch's longest series: the width of
        the attention weights that explain returns for it."""
        return int(self._prepare([max(series_list, key=len)])[1][0])

    def predict_proba(self, series_list) -> np.ndarray:
        """P(disease) per sample."""
        probs, _ = self._infer(series_list)
        return probs[:, 1]

    def explain(self, series_list):
        """(p_hat (N,), attention weights (N, S)).

        Row i belongs to series i; its first ceil(len(series i) / k) weights
        are valid and sum to 1, the rest are 0.
        """
        probs, weights = self._infer(series_list)
        return probs[:, 1], weights

    def loss_and_grads(self, series_list, labels):
        """Mean cross-entropy and gradients for every parameter."""
        labels = np.asarray(labels, dtype=np.int64)
        pooled, _, cache = self._pool(series_list, keep_cache=True)
        conv_cache, mask, lstm_cache, attn_cache = cache
        probs, _ = head_forward(pooled, self.head)
        n = labels.size
        loss = mean_cross_entropy(probs, labels)
        dlogits = probs.copy()
        dlogits[np.arange(n), labels] -= 1.0
        dlogits /= n
        dpooled, head_grads = head_backward(dlogits, pooled, self.head)
        dcontexts, attn_grads = attention_backward_padded(dpooled, attn_cache, self.attn)
        dblock, lstm_grads = bilstm_backward_padded(dcontexts, lstm_cache, self.lstm)
        conv_grads = conv_embed_backward(dblock[mask], conv_cache, self.conv)
        grads = {}
        for g in (conv_grads, lstm_grads, attn_grads, head_grads):
            grads.update(g)
        return loss, grads

    # -- training -----------------------------------------------------------

    def train(self, series_list, labels, cfg: TrainConfig, rows):
        """Fit every parameter by `sgd` on these rows of series_list, then
        score every series once.

        Returns (trace, p_hat, weights): trace holds each epoch's mean
        mini-batch loss from `sgd`, then the trained model's mean
        cross-entropy over the rows, so len(trace) == cfg.epochs + 1; p_hat
        (N,) and weights (N, S) are `explain`'s answer for all of
        series_list, from that one forward-only pass.  Rows whose labels
        hold fewer than two classes raise DegenerateLabels before training,
        and a final loss that is not finite raises InvalidLoss.
        """
        labels = np.asarray(labels, dtype=np.int64)
        if len(series_list) != labels.size:
            raise InvalidArgument("series and labels must be aligned")
        rows = np.asarray(rows, dtype=np.int64)
        fitted = labels[rows]
        classes = sorted(set(fitted.tolist()))  # np.unique would import numpy.ma
        if len(classes) < 2:
            raise DegenerateLabels(f"need both classes to train the detector; its {fitted.size} labels hold {classes}")

        def batch_loss_grads(batch):
            return self.loss_and_grads([series_list[i] for i in rows[batch]], fitted[batch])

        trace = sgd(self.params(), batch_loss_grads, fitted.size, cfg)
        probs, weights = self._infer(series_list)
        trace.append(mean_cross_entropy(probs[rows], fitted))
        if not math.isfinite(trace[-1]):
            raise diverged(cfg, f"the loss after epoch {cfg.epochs} is not finite")
        return trace, probs[:, 1], weights

    # -- checkpointing ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "arrays": {name: value.tolist() for name, value in self.params().items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DetectionModel":
        """Each config field and each parameter array by name, the arrays in
        exactly the shapes the config gives; other keys are ignored.  The
        parameter groups are built from the checkpoint's arrays alone, so
        loading draws no random numbers."""
        record, arrays = json_object(d, "config"), json_object(d, "arrays")
        config = DetectionConfig(**{f.name: record[f.name] for f in fields(DetectionConfig)})
        groups = tuple(
            group(*(exact_array(arrays, name, shape) for name, shape in shapes.items()))
            for group, shapes in _parameter_layout(config)
        )
        return cls(config, groups)

"""Volume attention, detection head, demographic fusion and overlays.

Attention scores each patch context through linear -> swish -> bilinear ->
linear layers, normalizes with a softmax restricted to valid patches, and
pools the contexts with those weights.  A two-class affine head turns the
pooled context into a detection probability.  Fusion concatenates that
probability with each record's structural row, the raw demographics plus
the FEV1/FVC ratio read from its curve (`fusion_features`, the one owner of
that layout), and feeds a trained logistic model, which standardizes each
column itself; its weight gap times the standardized value doubles as each
feature's contribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import VolumeFlowCurve
from .encoder import _check_finite, _sigmoid
from .errors import EmptySequence, InvalidParams
from .training import softmax_rows

MASKED_SCORE = -1e300  # stands in for -inf so masked patches claim no mass

SEX_CODES = ("female", "male")
SMOKING_CODES = ("never", "former", "current")


@dataclass
class AttentionParams:
    """Score-stack weights; widths follow the encoder output width 2H."""

    w1: np.ndarray  # (A, 2H)
    b1: np.ndarray  # (A,)
    w_bil: np.ndarray  # (A, A)
    w2: np.ndarray  # (A,)
    b2: np.ndarray  # () scalar

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "attn_w1": self.w1,
            "attn_b1": self.b1,
            "attn_bil": self.w_bil,
            "attn_w2": self.w2,
            "attn_b2": self.b2,
        }

    def validate(self):
        _check_finite(self.arrays())


def init_attention_params(rng: np.random.Generator, context_width: int) -> AttentionParams:
    a = max(context_width // 2, 1)
    return AttentionParams(
        w1=rng.normal(0.0, 1.0 / math.sqrt(context_width), size=(a, context_width)),
        b1=np.zeros(a),
        w_bil=rng.normal(0.0, 1.0 / math.sqrt(a), size=(a, a)),
        w2=rng.normal(0.0, 1.0 / math.sqrt(a), size=(a,)),
        b2=np.zeros(()),
    )


@dataclass
class HeadParams:
    """Affine map from pooled context to two class logits."""

    w: np.ndarray  # (2, 2H)
    b: np.ndarray  # (2,)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"head_w": self.w, "head_b": self.b}

    def validate(self):
        _check_finite(self.arrays())


def init_head_params(rng: np.random.Generator, context_width: int) -> HeadParams:
    return HeadParams(
        w=rng.normal(0.0, 1.0 / math.sqrt(context_width), size=(2, context_width)),
        b=np.zeros(2),
    )


@dataclass(frozen=True)
class DemographicRecord:
    """Sex, age and smoking status; the FEV1/FVC ratio is read from the curve."""

    sex: str
    age: float
    smoking: str

    def __post_init__(self):
        if self.sex not in SEX_CODES:
            raise InvalidParams(f"unknown sex code {self.sex!r}")
        if self.smoking not in SMOKING_CODES:
            raise InvalidParams(f"unknown smoking code {self.smoking!r}")
        if not 0 < self.age < math.inf:
            raise InvalidParams(f"age must be positive and finite, not {self.age!r}")


STRUCT_FEATURE_NAMES = (
    "sex=female",
    "sex=male",
    "smoking=never",
    "smoking=former",
    "smoking=current",
    "age",
    "fev1_fvc_ratio",
)

FUSION_FEATURE_NAMES = ("detection_probability",) + STRUCT_FEATURE_NAMES


def demographic_block(demos: list[DemographicRecord], ratios) -> np.ndarray:
    """(N, 7) structural block in STRUCT_FEATURE_NAMES order, one row per
    record: one-hot sex and smoking, raw age, then the record's FEV1/FVC
    ratio from ratios (curves.fev1_fvc_ratio).  The logistic models
    standardize each column by its own train-split statistics."""
    rows = [
        [d.sex == c for c in SEX_CODES] + [d.smoking == c for c in SMOKING_CODES] + [d.age, ratio]
        for d, ratio in zip(demos, ratios, strict=True)
    ]
    return np.array(rows, dtype=float).reshape(-1, len(STRUCT_FEATURE_NAMES))


# ---------------------------------------------------------------------------
# forward and backward kernels (batched over padded samples)


def attention_forward_padded(contexts: np.ndarray, mask: np.ndarray, params: AttentionParams):
    """Attention over padded contexts (B, S, 2H) with validity mask (B, S).

    Returns (weights (B, S), pooled (B, 2H), scores (B, S), cache).
    """
    params.validate()
    if not np.any(mask):
        raise EmptySequence("no valid patches")
    x1 = contexts @ params.w1.T + params.b1
    sig = _sigmoid(x1)
    x2 = x1 * sig
    x3 = x2 @ params.w_bil
    scores = x3 @ params.w2 + params.b2
    masked_scores = np.where(mask > 0, scores, MASKED_SCORE)
    shifted = masked_scores - masked_scores.max(axis=1, keepdims=True)
    expd = np.exp(shifted) * (mask > 0)
    weights = expd / expd.sum(axis=1, keepdims=True)
    pooled = np.einsum("bs,bsc->bc", weights, contexts)
    cache = (contexts, x1, sig, x2, x3, weights)
    return weights, pooled, scores, cache


def attention_backward_padded(dpooled: np.ndarray, cache, params: AttentionParams):
    """Backward of attention_forward_padded w.r.t. contexts and parameters."""
    contexts, x1, sig, x2, x3, weights = cache
    dweights = np.einsum("bc,bsc->bs", dpooled, contexts)
    dcontexts = weights[:, :, None] * dpooled[:, None, :]
    # softmax jacobian, rows independent; masked weights are zero so stay zero
    inner = (dweights * weights).sum(axis=1, keepdims=True)
    dscores = weights * (dweights - inner)
    dx3 = dscores[:, :, None] * params.w2[None, None, :]
    dw2 = np.einsum("bs,bsa->a", dscores, x3)
    db2 = np.asarray(dscores.sum())
    dx2 = dx3 @ params.w_bil.T
    dw_bil = np.einsum("bsa,bsk->ak", x2, dx3)
    dx1 = dx2 * (sig + x1 * sig * (1.0 - sig))
    dcontexts += dx1 @ params.w1
    dw1 = np.einsum("bsa,bsc->ac", dx1, contexts)
    db1 = dx1.sum(axis=(0, 1))
    grads = {"attn_w1": dw1, "attn_b1": db1, "attn_bil": dw_bil, "attn_w2": dw2, "attn_b2": db2}
    return dcontexts, grads


def head_forward(pooled: np.ndarray, params: HeadParams):
    """Class probabilities (B, 2) from pooled contexts (B, 2H)."""
    params.validate()
    logits = pooled @ params.w.T + params.b
    return softmax_rows(logits), logits


def head_backward(dlogits: np.ndarray, pooled: np.ndarray, params: HeadParams):
    dpooled = dlogits @ params.w
    grads = {"head_w": dlogits.T @ pooled, "head_b": dlogits.sum(axis=0)}
    return dpooled, grads


def fusion_features(p_hats, struct: np.ndarray) -> np.ndarray:
    """(N, 8) fusion inputs in FUSION_FEATURE_NAMES order: each record's
    detection probability, then its row of struct (demographic_block)."""
    return np.column_stack([np.asarray(p_hats, dtype=float), struct])


def fuse_and_score(p_hats, struct: np.ndarray, fusion_model):
    """Fused risks (N,) and per-feature contributions (N, 8): the weight gap
    of the two classes times the standardized feature value, so a record at
    the training mean of a feature gets 0 from it.

    fusion_model is a fitted two-class logistic model (see training module)
    over fusion_features; all N records are scored in one call.
    """
    features = fusion_features(p_hats, struct)
    risks = fusion_model.predict_proba(features)[:, 1]
    gap_w = fusion_model.weights[1] - fusion_model.weights[0]
    return risks, gap_w * fusion_model.standardize(features)


def attention_overlay(weights: np.ndarray, curve: VolumeFlowCurve, k: int) -> dict:
    """Map one sample's padded row of per-patch weights onto contiguous
    volume spans of the curve: its first ceil(len(curve) / k) entries, one
    per patch of k samples."""
    n_points = len(curve)
    volumes = curve.volumes
    patches = []
    for j, weight in enumerate(weights[: math.ceil(n_points / k)]):
        patches.append(
            {
                "v_start": float(volumes[j * k]),
                "v_end": float(volumes[min((j + 1) * k, n_points - 1)]),
                "weight": float(weight),
            }
        )
    return {"patches": patches}


def _polyline_points(xs: np.ndarray, ys: np.ndarray) -> str:
    """SVG points "x,y x,y ..." at two decimals, from one %-format call."""
    flat = np.column_stack((xs, ys)).ravel().tolist()
    return " ".join(["%.2f,%.2f"] * len(xs)) % tuple(flat)


def overlay_svg(overlay: dict, curve: VolumeFlowCurve, width: int = 640, height: int = 240) -> str:
    """Standalone SVG: the Volume-Flow polyline with a heat strip underneath."""
    v = curve.volumes
    q = curve.flows
    v_span = max(v[-1] - v[0], 1e-12)
    q_max = max(float(q.max()), 1e-12)
    plot_h = height - 30
    xs = (v - v[0]) / v_span * width
    ys = plot_h - q / q_max * (plot_h - 10)
    pts = _polyline_points(xs, ys)
    w_max = max((p["weight"] for p in overlay["patches"]), default=1.0) or 1.0
    rects = []
    for p in overlay["patches"]:
        x0 = (p["v_start"] - v[0]) / v_span * width
        x1 = (p["v_end"] - v[0]) / v_span * width
        heat = int(255 * p["weight"] / w_max)
        rects.append(
            f'<rect x="{x0:.2f}" y="{plot_h + 5}" width="{max(x1 - x0, 0.0):.2f}" height="20" '
            f'fill="rgb(255,{255 - heat},0)" fill-opacity="0.9"/>'
        )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
        f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1.5"/>'
        + "".join(rects)
        + "</svg>"
    )

"""Losses, the one training loop, logistic models and finite-difference checks.

Everything here runs in double precision.  `sgd` is the one seeded
mini-batch gradient-descent loop under a fixed learning rate; the logistic
models here and the detection stack both train through it, so seeded runs
are bitwise reproducible.  Every analytic gradient in the repo can be
validated against central finite differences with `grad_check`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabels, InvalidArgument, InvalidLoss, InvalidParams, ParseError

PROB_CLAMP = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.05
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise InvalidArgument(f"learning rate must be positive and finite, not {self.lr!r}")
        if self.epochs < 0:
            raise InvalidArgument("epochs must be >= 0")
        if self.batch_size < 1:
            raise InvalidArgument("batch size must be >= 1")


def softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


def mean_cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-probability of each row's label, clamped at PROB_CLAMP.

    probs is (N, K) with rows summing to 1; labels are N class indices.
    """
    picked = np.clip(probs[np.arange(labels.size), labels], PROB_CLAMP, None)
    return float(-np.log(picked).mean())


def sgd(params: dict[str, np.ndarray], batch_grads, full_loss, n: int, cfg: TrainConfig) -> list[float]:
    """Seeded mini-batch gradient descent; returns the epoch loss trace.

    params are updated in place.  Each epoch visits a fresh permutation of
    the n records in batches of cfg.batch_size (the last may be short);
    batch_grads(indices) returns a gradient for every name in params.
    full_loss() is a forward-only loss over all n records, taken before
    training and after each epoch.
    """
    rng = np.random.default_rng(cfg.seed)
    trace = [full_loss()]
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            grads = batch_grads(order[start : start + cfg.batch_size])
            for name, p in params.items():
                p -= cfg.lr * grads[name]
        trace.append(full_loss())
    return trace


def json_object(blob: dict, key: str) -> dict:
    """blob[key], which must be a JSON object; ParseError otherwise."""
    value = blob[key]
    if not isinstance(value, dict):
        raise ParseError(f"{key!r} is not a JSON object")
    return value


def exact_array(blob: dict, name: str, shape: tuple) -> np.ndarray:
    """blob[name] as a finite float array of exactly this shape;
    InvalidParams naming the array otherwise."""
    try:
        value = np.array(blob[name], dtype=float)
    except (TypeError, ValueError):
        raise InvalidParams(f"array {name!r} is not numeric") from None
    if value.shape != shape:
        raise InvalidParams(f"array {name!r} has shape {value.shape}, expected {shape}")
    if not np.all(np.isfinite(value)):
        raise InvalidParams(f"array {name!r} has non-finite values")
    return value


@dataclass
class LogisticModel:
    """Multinomial logistic regression; binary is the two-class case."""

    weights: np.ndarray  # (K, d)
    bias: np.ndarray  # (K,)
    classes: np.ndarray  # original label values, sorted

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return softmax_rows(x @ self.weights.T + self.bias)

    def predict(self, x: np.ndarray) -> np.ndarray:
        idx = np.argmax(self.predict_proba(x), axis=1)
        return self.classes[idx]

    def to_dict(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "bias": self.bias.tolist(),
            "classes": self.classes.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict, width: int, labels: tuple) -> "LogisticModel":
        """A model over width features, as train_logistic writes it: its
        classes are two or more distinct values from labels, ascending, and
        weights and bias have one row per class, so a file fitted on other
        labels or another layout does not load."""
        classes = d["classes"]
        if not (
            isinstance(classes, list)
            and len(classes) >= 2
            and all(any(type(c) is type(v) and c == v for v in labels) for c in classes)
            and all(a < b for a, b in zip(classes, classes[1:]))
        ):
            raise InvalidParams(f"'classes' must be two or more distinct values from {list(labels)}, ascending")
        return cls(
            weights=exact_array(d, "weights", (len(classes), width)),
            bias=exact_array(d, "bias", (len(classes),)),
            classes=np.array(classes),
        )


def train_logistic(x: np.ndarray, y, cfg: TrainConfig) -> tuple[LogisticModel, list[float]]:
    """Mean cross-entropy fitted by `sgd` from zero weights; returns the
    model and its epoch loss trace.  A fit that ends with non-finite
    weights raises InvalidLoss."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise InvalidArgument("X and y shapes are inconsistent")
    classes = np.unique(y)
    if classes.size < 2:
        raise DegenerateLabels("need at least two classes present")
    y_idx = np.searchsorted(classes, y)
    n, d = x.shape
    w = np.zeros((classes.size, d))
    b = np.zeros(classes.size)

    def batch_grads(batch):
        xb = x[batch]
        dlogits = softmax_rows(xb @ w.T + b)
        dlogits[np.arange(batch.size), y_idx[batch]] -= 1.0
        dlogits /= batch.size
        return {"w": dlogits.T @ xb, "b": dlogits.sum(axis=0)}

    def full_loss():
        return mean_cross_entropy(softmax_rows(x @ w.T + b), y_idx)

    trace = sgd({"w": w, "b": b}, batch_grads, full_loss, n, cfg)
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
        raise InvalidLoss(f"logistic fit at learning rate {cfg.lr!r} ended with non-finite weights")
    return LogisticModel(weights=w, bias=b, classes=classes), trace


def grad_check(loss_fn, params: dict[str, np.ndarray], eps: float = 1e-6) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_fn(params) must return (loss, grads) deterministically; grads is a
    dict matching params.  Non-finite or non-reproducible losses are
    rejected.
    """
    if not (1e-7 <= eps <= 1e-4):
        raise InvalidArgument("eps must be in [1e-7, 1e-4]")
    loss_a, grads = loss_fn(params)
    loss_b, _ = loss_fn(params)
    if not (np.isfinite(loss_a) and np.isfinite(loss_b)):
        raise InvalidLoss("loss is not finite")
    if loss_a != loss_b:
        raise InvalidLoss("loss is not deterministic")
    worst = 0.0
    for name, value in params.items():
        grad = np.asarray(grads[name], dtype=float)
        flat = np.atleast_1d(value.reshape(-1))
        gflat = np.atleast_1d(grad.reshape(-1))
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up, _ = loss_fn(params)
            flat[i] = orig - eps
            down, _ = loss_fn(params)
            flat[i] = orig
            cd = (up - down) / (2.0 * eps)
            denom = max(abs(gflat[i]), abs(cd), 1e-8)
            worst = max(worst, abs(gflat[i] - cd) / denom)
    return worst


def write_training_log(path, trace: list[float], seed: int):
    """Line-delimited JSON: one record per epoch."""
    with open(path, "w") as fh:
        for epoch, loss in enumerate(trace):
            fh.write(json.dumps({"epoch": epoch, "loss": loss, "seed": seed}) + "\n")

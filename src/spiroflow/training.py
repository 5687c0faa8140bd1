"""Losses, the detector's training loop, logistic models and
finite-difference checks.

Everything here runs in double precision.  `sgd` is the seeded mini-batch
gradient-descent loop under a fixed learning rate that trains the detection
stack, so seeded runs are bitwise reproducible; it returns each epoch's
mean mini-batch loss, which the batches compute anyway, and runs no loss
pass of its own.  The fusion and horizon models are multinomial logistic
regressions, which are convex: `train_logistic` fits them exactly by
penalized Newton steps (iteratively reweighted least squares; McCullagh &
Nelder 1989, Hastie et al., *The Elements of Statistical Learning* §4.4.1)
on standardized columns, with no randomness and no learning rate.  Every
analytic gradient in the repo can be validated against central finite
differences with `grad_check`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabels, InvalidArgument, InvalidLoss, InvalidParams, ParseError

PROB_CLAMP = 1e-12
RIDGE = 1e-4  # L2 penalty on every standardized weight and bias of a logistic fit
NEWTON_TOL = 1e-10  # a logistic fit stops once its largest |gradient| is at most this
NEWTON_MAX_ITER = 50
NEWTON_MAX_HALVINGS = 30  # backtracking halvings of one Newton step before the fit stops


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.05
    epochs: int = 40
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


def diverged(cfg: TrainConfig, what: str) -> InvalidLoss:
    """The error that ends a fit whose loss or parameters stopped being finite."""
    return InvalidLoss(f"training diverged at learning rate {cfg.lr!r}: {what}")


def sgd(params: dict[str, np.ndarray], batch_loss_grads, n: int, cfg: TrainConfig) -> list[float]:
    """Seeded mini-batch gradient descent; returns each epoch's mean loss.

    params are updated in place.  Each epoch visits a fresh permutation of
    the n records in batches of cfg.batch_size (the last may be short);
    batch_loss_grads(indices) returns the batch's mean loss and a gradient
    for every name in params.  An epoch's entry is its batch losses
    weighted by batch size, sum(loss_b * len(b)) / n, each taken at the
    parameters before that batch's step.  A batch loss that is not finite,
    or a step that leaves a parameter non-finite, raises InvalidLoss naming
    the learning rate.
    """
    rng = np.random.default_rng(cfg.seed)
    means = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            loss, grads = batch_loss_grads(batch)
            if not math.isfinite(loss):
                raise diverged(cfg, f"a batch loss in epoch {epoch} is not finite")
            total += loss * batch.size
            for name, p in params.items():
                p -= cfg.lr * grads[name]
                if not np.all(np.isfinite(p)):
                    raise diverged(cfg, f"{name} is not finite in epoch {epoch}")
        means.append(total / n)
    return means


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
    """Multinomial logistic regression; binary is the two-class case.

    weights and bias act on standardized columns, (x - mean) / scale."""

    weights: np.ndarray  # (K, d)
    bias: np.ndarray  # (K,)
    classes: np.ndarray  # original label values, sorted
    mean: np.ndarray  # (d,) column means of the fitted features
    scale: np.ndarray  # (d,) their standard deviations, 1 for a constant column

    def standardize(self, x: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(np.asarray(x, dtype=float)) - self.mean) / self.scale

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return softmax_rows(self.standardize(x) @ self.weights.T + self.bias)

    def to_dict(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "bias": self.bias.tolist(),
            "classes": self.classes.tolist(),
            "mean": self.mean.tolist(),
            "scale": self.scale.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict, width: int, labels: tuple) -> "LogisticModel":
        """A model over width features, as train_logistic writes it: its
        classes are two or more distinct values from labels, ascending;
        weights and bias have one row per class; mean and scale have one
        entry per feature, every scale positive.  So a file fitted on other
        labels or another layout does not load."""
        classes = d["classes"]
        if not (
            isinstance(classes, list)
            and len(classes) >= 2
            and all(any(type(c) is type(v) and c == v for v in labels) for c in classes)
            and all(a < b for a, b in zip(classes, classes[1:]))
        ):
            raise InvalidParams(f"'classes' must be two or more distinct values from {list(labels)}, ascending")
        scale = exact_array(d, "scale", (width,))
        if not np.all(scale > 0):
            raise InvalidParams("array 'scale' has a value that is not positive")
        return cls(
            weights=exact_array(d, "weights", (len(classes), width)),
            bias=exact_array(d, "bias", (len(classes),)),
            classes=np.array(classes),
            mean=exact_array(d, "mean", (width,)),
            scale=scale,
        )


def penalized_cross_entropy(theta: np.ndarray, z: np.ndarray, y_idx: np.ndarray):
    """(loss, gradient, probabilities) of a softmax model with parameters
    theta (K, m) over the rows of z (n, m).

    The loss is the mean cross-entropy of the labels y_idx plus
    RIDGE / 2 * |theta|^2, with the log-probabilities taken exactly (no
    PROB_CLAMP), so the gradient (K, m) is the loss's own.  The
    probabilities are (n, K).
    """
    n = y_idx.size
    logits = z @ theta.T
    log_probs = logits - logits.max(axis=1, keepdims=True)
    log_probs -= np.log(np.exp(log_probs).sum(axis=1, keepdims=True))
    probs = np.exp(log_probs)
    loss = float(-log_probs[np.arange(n), y_idx].mean() + 0.5 * RIDGE * np.sum(theta * theta))
    dlogits = probs.copy()
    dlogits[np.arange(n), y_idx] -= 1.0
    return loss, dlogits.T @ z / n + RIDGE * theta, probs


def _newton_step(z: np.ndarray, probs: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """H^-1 grad for the penalized softmax loss at these probabilities.

    The (K m)^2 Hessian is built from one (m, m) block per pair of classes,
    z^T diag(p_k (delta_kl - p_l)) z / n, plus RIDGE on the diagonal, which
    makes it positive definite although the softmax's own Hessian is
    singular.  No (n, K, K) temporary is formed.
    """
    n, m = z.shape
    k = grad.shape[0]
    hess = np.empty((k, m, k, m))
    for a in range(k):
        for b in range(a, k):
            block = (z * (probs[:, a] * (float(a == b) - probs[:, b]) / n)[:, None]).T @ z
            hess[a, :, b, :] = block
            hess[b, :, a, :] = block.T
    hess = hess.reshape(k * m, k * m) + RIDGE * np.eye(k * m)
    return np.linalg.solve(hess, grad.reshape(-1)).reshape(k, m)


def train_logistic(x: np.ndarray, y) -> tuple[LogisticModel, list[dict]]:
    """Penalized mean cross-entropy fitted by Newton steps from zero weights.

    Columns are standardized by their mean and standard deviation (1 for a
    constant column), and every weight and bias carries the RIDGE penalty.
    Each step halves until the penalized loss falls; the fit stops once the
    largest |gradient| is at most NEWTON_TOL, after NEWTON_MAX_ITER steps,
    or when NEWTON_MAX_HALVINGS halvings do not lower the loss.  Returns the
    model and one row per iteration: {"iteration", "loss", "max_grad"},
    starting with the zero-weight model at iteration 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise InvalidArgument("X and y shapes are inconsistent")
    if not np.all(np.isfinite(x)):
        raise InvalidArgument("X has non-finite values")
    classes = np.array(sorted(set(y.tolist())), dtype=y.dtype)  # np.unique would import numpy.ma
    if classes.size < 2:
        raise DegenerateLabels("need at least two classes present")
    y_idx = np.searchsorted(classes, y)
    n, d = x.shape
    mean = x.mean(axis=0)
    scale = np.where(np.ptp(x, axis=0) > 0, x.std(axis=0), 1.0)
    z = np.column_stack([(x - mean) / scale, np.ones(n)])  # the last column carries the bias
    theta = np.zeros((classes.size, d + 1))
    loss, grad, probs = penalized_cross_entropy(theta, z, y_idx)
    trace = [{"iteration": 0, "loss": loss, "max_grad": float(np.max(np.abs(grad)))}]
    while trace[-1]["max_grad"] > NEWTON_TOL and len(trace) <= NEWTON_MAX_ITER:
        step = _newton_step(z, probs, grad)
        for halving in range(NEWTON_MAX_HALVINGS):
            trial = theta - 0.5**halving * step
            trial_loss, trial_grad, trial_probs = penalized_cross_entropy(trial, z, y_idx)
            if trial_loss < loss:
                break
        else:
            break  # no step lowers the loss in double precision
        theta, loss, grad, probs = trial, trial_loss, trial_grad, trial_probs
        trace.append({"iteration": len(trace), "loss": loss, "max_grad": float(np.max(np.abs(grad)))})
    return LogisticModel(weights=theta[:, :d], bias=theta[:, d], classes=classes, mean=mean, scale=scale), trace


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


def write_training_log(path, rows: list[dict]):
    """Line-delimited JSON: one object per epoch or iteration, its keys in
    the row's order."""
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")

"""Ranking metrics and subgroup slicing.

AUROC is the trapezoidal area of the (FPR, TPR) staircase with tied scores
grouped into single threshold steps, which makes it exactly the tie-aware
pair-counting probability.  AUPRC is the step-wise integral of precision
over recall under the same tie grouping.
"""

from __future__ import annotations

import numpy as np

from .errors import UndefinedMetric

YOUTH_MAX_AGE = 45  # Youth 18-44, Middle 45-54, Elderly 55+
MIDDLE_MAX_AGE = 55


def _threshold_counts(scores: np.ndarray, labels: np.ndarray):
    """Cumulative TP/FP counts at each distinct score threshold, descending."""
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    distinct = np.where(np.diff(s))[0]
    boundaries = np.concatenate([distinct, [s.size - 1]])
    tp = np.cumsum(y)[boundaries]
    fp = np.cumsum(1 - y)[boundaries]
    return tp.astype(float), fp.astype(float)


def auroc(scores, labels) -> float:
    """Trapezoidal AUROC with tie grouping; equals tie-aware pair counting."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    pos = labels.sum()
    neg = labels.size - pos
    if pos == 0 or neg == 0:
        raise UndefinedMetric("AUROC needs both classes present")
    tp, fp = _threshold_counts(scores, labels)
    tpr = np.concatenate([[0.0], tp / pos])
    fpr = np.concatenate([[0.0], fp / neg])
    return float(np.sum(np.diff(fpr) * (tpr[:-1] + tpr[1:]) / 2.0))


def auprc(scores, labels) -> float:
    """Step-wise precision-over-recall integral with tie grouping."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    pos = labels.sum()
    if pos == 0:
        raise UndefinedMetric("AUPRC needs at least one positive")
    tp, fp = _threshold_counts(scores, labels)
    recall = np.concatenate([[0.0], tp / pos])
    precision = tp / (tp + fp)
    return float(np.sum(np.diff(recall) * precision))


def f1_score(predictions, labels) -> float:
    """Harmonic mean of precision and recall; 0 with no true positive."""
    counts = confusion_counts(predictions, labels)
    tp = counts["tp"]
    if tp == 0:
        return 0.0
    precision = tp / (tp + counts["fp"])
    recall = tp / (tp + counts["fn"])
    return float(2.0 * precision * recall / (precision + recall))


def confusion_counts(predictions, labels) -> dict[str, int]:
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    return {
        "tp": int(np.sum((predictions == 1) & (labels == 1))),
        "fp": int(np.sum((predictions == 1) & (labels == 0))),
        "fn": int(np.sum((predictions == 0) & (labels == 1))),
        "tn": int(np.sum((predictions == 0) & (labels == 0))),
    }


def metrics_report(scores, labels, threshold: float = 0.5, split: str = "all") -> dict:
    """JSON-ready report: AUROC, AUPRC, F1 at the threshold, n and prevalence."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    preds = (scores > threshold).astype(np.int64)
    return {
        "split": split,
        "auroc": auroc(scores, labels),
        "auprc": auprc(scores, labels),
        "f1": f1_score(preds, labels),
        "n": int(labels.size),
        "prevalence": float(labels.mean()),
    }


def age_bin(age: float) -> str:
    if age < YOUTH_MAX_AGE:
        return "Youth"
    if age < MIDDLE_MAX_AGE:
        return "Middle"
    return "Elderly"


def subgroup_reports(scores, labels, demos, by: str, threshold: float = 0.5) -> dict[str, dict]:
    """Per-subgroup metric reports; slicing by sex, smoke or age bins.

    Subgroups where a metric is undefined (single-class) are skipped.
    """
    if by == "sex":
        keys = [d.sex for d in demos]
    elif by == "smoke":
        keys = ["smoker" if d.smoking == "current" else "non-smoker" for d in demos]
    elif by == "age":
        keys = [age_bin(d.age) for d in demos]
    else:
        raise UndefinedMetric(f"unknown subgroup axis {by!r}")
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    keys = np.asarray(keys)
    out = {}
    for key in sorted(set(keys.tolist())):
        sel = keys == key
        try:
            report = metrics_report(scores[sel], labels[sel], threshold, split=key)
        except UndefinedMetric:
            continue
        report["subgroup"] = {"by": by, "value": key}
        out[key] = report
    return out

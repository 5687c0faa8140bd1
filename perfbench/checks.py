"""Output checks computed independently of the code under test.

Each check reads the artifacts a stage wrote and recomputes a property
from first principles: AUROC by O(n^2) pair counting, gradients by central
differences, the concavity trend identity and its severity ordering, the
attention overlay's distribution and span geometry, the predict gate, and
the fall of each training loss.  Per-record checks return the ids that
failed, so each record counts as one operation.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

HORIZONS = ("WITHIN_1Y", "WITHIN_2Y", "WITHIN_3Y", "WITHIN_4Y", "YEAR_5_PLUS", "NON_COPD")
TOL = 1e-9


def pair_auroc(scores, labels) -> float:
    """P(score of a positive > score of a negative), ties counting one half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    if not pos or not neg:
        raise ValueError("AUROC needs both classes")
    wins = 0.0
    for p in pos:
        for n in neg:
            wins += 1.0 if p > n else 0.5 if p == n else 0.0
    return wins / (len(pos) * len(neg))


def read_labels(cohort: Path) -> dict[str, tuple[int, str]]:
    with open(cohort / "labels.csv", newline="") as fh:
        return {row["id"]: (int(row["copd"]), row["horizon"]) for row in csv.DictReader(fh)}


def read_jsonl(path: Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def loss_falls(log_path: Path) -> bool:
    losses = [row["loss"] for row in read_jsonl(log_path)]
    return len(losses) >= 2 and losses[-1] < losses[0]


def check_features(path: Path, labels: dict) -> tuple[list[str], list[str]]:
    """(ids whose trend != c1 + c2 - c3 - c4, table-level problems).

    Table level: one row per cohort record, and the mean trend per class
    strictly decreasing from WITHIN_1Y to NON_COPD.
    """
    bad, problems = [], []
    by_class = {h: [] for h in HORIZONS}
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        c1, c2, c3, c4 = (float(row[k]) for k in ("c_pef_fef25", "c_fef25_fef50", "c_fef50_fef75", "c_fef75_plus"))
        trend = float(row["trend"])
        if not math.isclose(trend, c1 + c2 - c3 - c4, rel_tol=TOL, abs_tol=TOL):
            bad.append(row["id"])
        if row["id"] in labels:
            by_class[labels[row["id"]][1]].append(trend)
    if sorted(r["id"] for r in rows) != sorted(labels):
        problems.append("features.csv ids differ from the cohort")
    means = [sum(v) / len(v) for v in by_class.values() if v]
    if len(means) != len(HORIZONS) or any(a <= b for a, b in zip(means, means[1:])):
        problems.append(f"class mean trend not decreasing: {means}")
    return bad, problems


def check_predictions(path: Path, ids: list[str], threshold: float) -> tuple[list[str], list[str]]:
    """(ids whose record breaks the gate or the distribution, file-level problems)."""
    records = read_jsonl(path)
    problems = []
    if [r["id"] for r in records] != ids:
        problems.append("predictions.jsonl ids differ from the cohort")
    bad = []
    for r in records:
        ok = 0.0 <= r["p_hat"] <= 1.0 and 0.0 <= r["fused_risk"] <= 1.0
        ok = ok and r["verdict"] == ("copd" if r["p_hat"] > threshold else "non_copd")
        if "horizon" in r:
            probs = r["horizon"]["label_probs"]
            ok = ok and set(probs) == set(HORIZONS) and min(probs.values()) >= 0.0
            ok = ok and abs(sum(probs.values()) - 1.0) <= TOL
            ok = ok and r["horizon"]["top_label"] == max(HORIZONS, key=lambda h: probs[h])
        elif r["verdict"] == "non_copd":
            ok = False
        if not ok:
            bad.append(r["id"])
    return bad, problems


def check_overlays(explain_dir: Path, ids: list[str], predictions: dict, svg: bool) -> list[str]:
    """Ids whose overlay is missing or wrong: weights >= 0 summing to 1,
    contiguous non-decreasing volume spans, p_hat and fused risk equal to
    the predict stage's, and the SVG when asked for."""
    bad = []
    for blow_id in ids:
        path = explain_dir / f"overlay_{blow_id}.json"
        if not path.exists() or (svg and not (explain_dir / f"overlay_{blow_id}.svg").exists()):
            bad.append(blow_id)
            continue
        overlay = json.loads(path.read_text())
        patches = overlay["patches"]
        weights = [p["weight"] for p in patches]
        ok = bool(patches) and min(weights) >= 0.0 and abs(sum(weights) - 1.0) <= TOL
        ok = ok and all(p["v_start"] <= p["v_end"] for p in patches)
        ok = ok and all(a["v_end"] == b["v_start"] for a, b in zip(patches, patches[1:]))
        pred = predictions.get(blow_id)
        ok = ok and pred is not None
        ok = ok and abs(overlay["p_hat"] - pred["p_hat"]) <= TOL
        ok = ok and abs(overlay["fused_risk"] - pred["fused_risk"]) <= TOL
        if svg:
            ok = ok and "<polyline" in (explain_dir / f"overlay_{blow_id}.svg").read_text()
        if not ok:
            bad.append(blow_id)
    return bad


def check_metrics(metrics_path: Path, predictions: dict, test_ids: list[str], labels: dict) -> list[str]:
    """AUROC in metrics.json against pair counting over the predict stage's scores."""
    report = json.loads(metrics_path.read_text())
    y = [labels[i][0] for i in test_ids]
    problems = []
    for section, key in (("detection", "p_hat"), ("fused", "fused_risk")):
        oracle = pair_auroc([predictions[i][key] for i in test_ids], y)
        if abs(oracle - report[section]["auroc"]) > TOL:
            problems.append(f"{section} auroc {report[section]['auroc']} != pair count {oracle}")
    return problems


def check_gradients(models: Path, cohort: Path, seed: int, per_group: int = 3, eps: float = 3e-5) -> float:
    """Worst error of the detector's analytic gradients against central
    differences, on sampled coordinates of every parameter array, over a
    batch of two positive and two negative test records.

    The error of one coordinate is |g - d| / max(|g|, |d|, 1e-6).
    """
    import numpy as np
    from spiroflow.curves import SmootherConfig, differentiate_flow, gaussian_smooth, volume_flow_curve
    from spiroflow.data import load_time_volume_csv
    from spiroflow.detection import DetectionModel

    blob = json.loads((models / "detect_model.json").read_text())
    model = DetectionModel.from_dict(blob)
    smoother = SmootherConfig(k=blob["smoother"]["window"], sigma=blob["smoother"]["sigma"])
    labels = read_labels(cohort)
    test = sorted(blob["test_ids"])
    batch = [i for i in test if labels[i][0] == 1][:2] + [i for i in test if labels[i][0] == 0][:2]
    curves = dict(load_time_volume_csv(cohort / "curves.csv"))
    series = []
    for blow_id in batch:
        smoothed = gaussian_smooth(curves[blow_id], smoother)
        series.append(volume_flow_curve(smoothed, differentiate_flow(smoothed)).flows)
    y = np.array([labels[i][0] for i in batch])
    _, grads = model.loss_and_grads(series, y)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, value in model.params().items():
        flat = value.reshape(-1)
        gflat = np.asarray(grads[name]).reshape(-1)
        for idx in rng.choice(flat.size, size=min(per_group, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            up, _ = model.loss_and_grads(series, y)
            flat[idx] = orig - eps
            down, _ = model.loss_and_grads(series, y)
            flat[idx] = orig
            cd = (up - down) / (2.0 * eps)
            worst = max(worst, abs(gflat[idx] - cd) / max(abs(gflat[idx]), abs(cd), 1e-6))
    return worst

"""The pipeline's answers, pinned: a change that moves one fails here, so
moving an answer is a reviewed edit of tests/answers.json.

The run is Acceptance 9's pipeline (36 records, seed 5, 3 epochs), plus a
`predict --threshold 1.0`, which sends every record through the horizon
branch.  Values are compared with a relative tolerance of REL_TOL, not by
bytes, because another CPU's BLAS kernels may round the last bits
differently; counts must match exactly.  When a change moves an answer on
purpose, the failure prints the measured answers to copy into the file.
"""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from spiroflow.cli import main as cli_main

ANSWERS = Path(__file__).with_name("answers.json")
REL_TOL = 1e-6


def _last_loss(log: Path) -> float:
    return json.loads(log.read_text().splitlines()[-1])["loss"]


def _predictions(out_dir: Path) -> list[dict]:
    return [json.loads(line) for line in (out_dir / "predictions.jsonl").read_text().splitlines()]


def _normalized_entropy(weights: np.ndarray) -> float:
    """Entropy of one record's attention weights over its valid patches (the
    nonzero ones) divided by its maximum, log of their count."""
    w = weights[weights > 0]
    return float(-(w * np.log(w)).sum() / np.log(w.size))


def _measure(root: Path) -> dict:
    cohort, models = root / "cohort", root / "models"
    common = ["--cohort", str(cohort), "--models", str(models)]
    stages = [
        ["synth", "--out-dir", str(cohort), "--n", "36", "--seed", "5"],
        ["train-detect", "--out-dir", str(models), "--cohort", str(cohort), "--epochs", "3", "--seed", "5"],
        ["train-horizon", "--out-dir", str(models), *common],
        ["evaluate", "--out-dir", str(root / "evaluate"), *common],
        ["predict", "--out-dir", str(root / "predict"), *common],
        ["predict", "--out-dir", str(root / "horizon"), *common, "--threshold", "1.0"],
    ]
    for stage in stages:
        assert cli_main(stage) == 0, stage[0]
    metrics = json.loads((root / "evaluate" / "metrics.json").read_text())
    p_hat = np.array([r["p_hat"] for r in _predictions(root / "predict")])
    # the cache's payload ends in train-detect's pass over the cohort, one
    # row per record: p_hat, then the attention weights
    record = json.loads((models / "cohort.json").read_text())
    weights = np.load(models / "cohort.npy")[2 * sum(record["lengths"]) :].reshape(-1, record["score_width"])[:, 1:]
    answers = {
        "values": {
            "detect_final_loss": _last_loss(models / "train_detect_log.jsonl"),
            "p_hat_min": float(p_hat.min()),
            "p_hat_median": float(np.median(p_hat)),
            "p_hat_max": float(p_hat.max()),
            "detection_auroc": metrics["detection"]["auroc"],
            "fused_auroc": metrics["fused"]["auroc"],
            "horizon_final_loss": _last_loss(models / "train_horizon_log.jsonl"),
            "median_attention_entropy": float(np.median([_normalized_entropy(w) for w in weights])),
        },
        "counts": {},
    }
    for threshold, out_dir in (("0.5", "predict"), ("1.0", "horizon")):
        rows = _predictions(root / out_dir)
        answers["counts"][threshold] = {
            "verdicts": dict(sorted(Counter(r["verdict"] for r in rows).items())),
            "top_labels": dict(sorted(Counter(r["horizon"]["top_label"] for r in rows if "horizon" in r).items())),
        }
    return answers


def test_pipeline_answers_are_pinned(tmp_path):
    expected = json.loads(ANSWERS.read_text())
    measured = _measure(tmp_path)
    shown = json.dumps(measured, indent=2, sort_keys=True)
    assert measured["counts"] == expected["counts"], shown
    assert measured["values"] == pytest.approx(expected["values"], rel=REL_TOL, abs=0.0), shown

#!/usr/bin/env python3
"""End-to-end demo on a synthetic cohort.

Generates a seeded cohort, trains the detection stack and the onset-horizon
model, evaluates on the held-out split and writes one attention overlay.
All artifacts land under the chosen output root; rerunning with the same
seed reproduces them byte for byte.
"""

import argparse
import json
import sys
from pathlib import Path

from spiroflow.cli import main as cli


def run(out_root: Path, n: int, epochs: int, seed: int) -> int:
    cohort = out_root / "cohort"
    models = out_root / "models"
    outputs = out_root / "outputs"
    steps = [
        ["synth", "--out-dir", str(cohort), "--n", str(n), "--seed", str(seed)],
        [
            "train-detect", "--out-dir", str(models), "--cohort", str(cohort),
            "--epochs", str(epochs), "--seed", str(seed),
        ],
        [
            "train-horizon", "--out-dir", str(models), "--cohort", str(cohort),
            "--models", str(models),
        ],
        ["evaluate", "--out-dir", str(outputs), "--cohort", str(cohort), "--models", str(models)],
        [
            "explain", "--out-dir", str(outputs), "--cohort", str(cohort),
            "--models", str(models), "--id", "WITHIN_1Y_0000", "--svg",
        ],
        ["predict", "--out-dir", str(outputs), "--cohort", str(cohort), "--models", str(models)],
    ]
    for step in steps:
        print(f"==> spiroflow {' '.join(step)}")
        code = cli(step)
        if code != 0:
            return code
    report = json.loads((outputs / "metrics.json").read_text())
    print(f"held-out AUROC: detection {report['detection']['auroc']:.4f}, "
          f"fused {report['fused']['auroc']:.4f}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-root", default="runs/demo")
    parser.add_argument("--n", type=int, default=120, help="approximate cohort size")
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sys.exit(run(Path(args.out_root), args.n, args.epochs, args.seed))

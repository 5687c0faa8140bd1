"""Acceptance gate: one test per release criterion, each printing a
single PASS/FAIL line with the measured value and its budget."""

import hashlib
import time
from pathlib import Path

import numpy as np

from spiroflow.attention import demographic_block
from spiroflow.cli import main as cli_main
from spiroflow.curves import (
    SmootherConfig,
    TimeVolumeCurve,
    VolumeFlowCurve,
    differentiate_flow,
    fev1_fvc_ratio,
    gaussian_smooth,
    volume_flow_curve,
)
from spiroflow.data import CohortSpec, generate_synthetic_cohort
from spiroflow.detection import DetectionConfig, DetectionModel
from spiroflow.encoder import pad_rows
from spiroflow.horizon import HORIZON_ORDER, future_feature_vector, predict_future_risk
from spiroflow.metrics import auprc, auroc
from spiroflow.phases import Phase, PhaseLabel, baseline_line, concavity_features, concavity_measure
from spiroflow.training import TrainConfig, grad_check, train_logistic


def _verdict(name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_gradient_fidelity():
    """Criterion 1: full-stack analytic gradients vs central differences."""
    start = time.perf_counter()
    model = DetectionModel(
        DetectionConfig(patch_len=4, channels=3, hidden=3, conv_kernel=3, seed=0)
    )
    rng = np.random.default_rng(0)
    series = [rng.uniform(0, 8, size=22), rng.uniform(0, 8, size=9)]  # 6 and 3 patches
    labels = np.array([1, 0])

    def loss_fn(_params):
        return model.loss_and_grads(series, labels)

    err = grad_check(loss_fn, model.params(), eps=3e-5)
    elapsed = time.perf_counter() - start
    _verdict(
        "1 gradient fidelity",
        err < 1e-4 and elapsed < 10.0,
        f"max rel err {err:.2e} < 1e-4, {elapsed:.1f}s < 10s",
    )


def test_metric_oracle_equivalence():
    """Criterion 2: AUROC pair counting and AUPRC threshold enumeration."""

    def pair_auroc(scores, labels):
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        total = sum(1.0 if p > q else (0.5 if p == q else 0.0) for p in pos for q in neg)
        return total / (pos.size * neg.size)

    def thresh_auprc(scores, labels):
        n_pos = labels.sum()
        area, prev = 0.0, 0.0
        for t in sorted(set(scores.tolist()), reverse=True):
            preds = scores >= t
            tp = int(np.sum(preds & (labels == 1)))
            fp = int(np.sum(preds & (labels == 0)))
            area += (tp / n_pos - prev) * tp / (tp + fp)
            prev = tp / n_pos
        return area

    start = time.perf_counter()
    rng = np.random.default_rng(7)
    checked, worst = 0, 0.0
    while checked < 200:
        n = int(rng.integers(2, 13))
        scores = rng.choice([0.1, 0.2, 0.3, 0.5, 0.7, 0.9], size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            continue
        worst = max(worst, abs(auroc(scores, labels) - pair_auroc(scores, labels)))
        worst = max(worst, abs(auprc(scores, labels) - thresh_auprc(scores, labels)))
        checked += 1
    elapsed = time.perf_counter() - start
    _verdict(
        "2 metric oracle equivalence",
        worst <= 1e-12 and elapsed < 5.0,
        f"200 sets, worst gap {worst:.1e} <= 1e-12, {elapsed:.1f}s < 5s",
    )


def test_concavity_correctness():
    """Criterion 3: analytic 1/6 value plus sign-flip and baseline-zero laws."""
    start = time.perf_counter()
    volumes = np.linspace(0, 1, 2001)
    quad = VolumeFlowCurve(volumes, volumes**2)
    c = concavity_measure(quad, Phase(PhaseLabel.PEF_FEF25, 0.0, 1.0), n_grid=1000)
    analytic_ok = abs(c - 1.0 / 6.0) < 1e-3

    rng = np.random.default_rng(11)
    props_ok = True
    for _ in range(100):
        n = int(rng.integers(5, 25))
        v = np.cumsum(rng.uniform(0.02, 0.25, size=n))
        f = rng.uniform(0.0, 6.0, size=n)
        curve = VolumeFlowCurve(v, f)
        phase = Phase(PhaseLabel.FEF25_FEF50, v[0], v[-1])
        m, b = baseline_line(curve, phase)
        measured = concavity_measure(curve, phase)
        reflected = VolumeFlowCurve(v, 2 * (m * v + b) - f)
        if abs(concavity_measure(reflected, phase) + measured) > 1e-9:
            props_ok = False
        chord = VolumeFlowCurve(v, m * v + b)
        if abs(concavity_measure(chord, phase)) > 1e-9:
            props_ok = False
    elapsed = time.perf_counter() - start
    _verdict(
        "3 concavity correctness",
        analytic_ok and props_ok and elapsed < 5.0,
        f"quadratic {c:.5f} ~ 1/6, sign-flip and baseline-zero on 100 curves, {elapsed:.1f}s < 5s",
    )


def test_mask_pack_law():
    """Criterion 4: the detector's padding routine keeps padding from leaking.

    On pad_rows, which pads the conv rows for the LSTM and whose mask packs
    their gradients back: the mask is a prefix of ones, masked slots are
    zero, packing the padded rows returns them bit for bit, and padding the
    packed rows of any zero-padded block returns that block.  On the model:
    explain's attention weights are exactly 0 on padded slots and sum to 1
    on valid ones, for a mixed-length batch.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(13)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 12))
        lengths = rng.integers(1, int(rng.integers(1, 9)) + 1, size=n)
        channels = int(rng.integers(1, 6))
        rows = rng.standard_normal((int(lengths.sum()), channels))
        block, mask = pad_rows(rows, lengths)
        ok &= block.shape == (n, lengths.max(), channels) and mask.shape == (n, lengths.max())
        for i, s in enumerate(lengths):
            ok &= bool(np.all(mask[i, :s]) and not np.any(mask[i, s:]))
        ok &= bool(np.all(block[~mask] == 0.0))
        ok &= np.array_equal(block[mask], rows)
        other = rng.standard_normal(block.shape)
        for i, s in enumerate(lengths):
            other[i, s:] = 0.0
        ok &= np.array_equal(pad_rows(other[mask], lengths)[0], other)

    model = DetectionModel(DetectionConfig(patch_len=8, seed=0))
    series = [rng.uniform(0.0, 8.0, size=m) for m in (5, 40, 17, 64, 1, 33)]
    _, weights = model.explain(series)
    worst = 0.0
    for row, m in zip(weights, series):
        s = -(-len(m) // 8)  # the patches of 8 samples that cover the series
        ok &= bool(np.all(row[s:] == 0.0))
        worst = max(worst, abs(row[:s].sum() - 1.0))
    ok &= worst <= 1e-12
    elapsed = time.perf_counter() - start
    _verdict(
        "4 mask/pack law",
        ok and elapsed < 5.0,
        f"100 cohorts: prefix masks, zero padding, pack(pad) and pad(pack) exact; "
        f"explain weights 0 on padding, |sum - 1| {worst:.1e} <= 1e-12; {elapsed:.1f}s < 5s",
    )


def _cohort_series(spec: CohortSpec):
    """The cohort's records and their Volume-Flow curves, in one batched pass."""
    records = generate_synthetic_cohort(spec)
    smoothed = gaussian_smooth([rec.curve for rec in records])
    return records, volume_flow_curve(smoothed, differentiate_flow(smoothed))


def test_end_to_end_separation():
    """Criterion 5: trained detector separates the seeded synthetic cohort."""
    start = time.perf_counter()
    records, vfs = _cohort_series(CohortSpec(n_per_class=67, noise=0.1, seed=0))
    series = [vf.flows for vf in vfs]
    labels = np.array([rec.copd for rec in records])
    n = len(series)
    rng = np.random.default_rng(0)
    order = rng.permutation(n)
    n_test = n // 5
    test_idx = order[:n_test]
    train_idx = order[n_test:]
    model = DetectionModel(DetectionConfig(seed=0))
    model.train(
        [series[i] for i in train_idx],
        labels[train_idx],
        TrainConfig(lr=0.05, epochs=30, batch_size=32, seed=0),
    )
    scores = model.predict_proba([series[i] for i in test_idx])
    value = auroc(scores, labels[test_idx])
    elapsed = time.perf_counter() - start
    _verdict(
        "5 end-to-end separation",
        value >= 0.90 and elapsed < 180.0,
        f"n={n} test AUROC {value:.4f} >= 0.90 within 30 of 200 epoch budget, {elapsed:.0f}s < 180s",
    )


def test_trend_ordering():
    """Criterion 6: mean concavity trend decreases with distance to onset."""
    start = time.perf_counter()

    def mean_trends(noise, seed):
        records, vfs = _cohort_series(CohortSpec(n_per_class=8, noise=noise, seed=seed))
        sums = {label: [] for label in HORIZON_ORDER}
        for rec, vf in zip(records, vfs):
            sums[rec.horizon].append(concavity_features(vf).trend)
        return np.array([np.mean(sums[label]) for label in HORIZON_ORDER])

    clean = mean_trends(0.0, 0)
    strict = bool(np.all(np.diff(clean) < 0))
    noisy = mean_trends(0.1, 1)
    # severity rank is 0..5 by construction; Spearman = 1 iff ranks agree
    ranks = np.argsort(np.argsort(-noisy))
    spearman = float(np.corrcoef(ranks, np.arange(6))[0, 1])
    elapsed = time.perf_counter() - start
    _verdict(
        "6 trend ordering",
        strict and spearman == 1.0 and elapsed < 30.0,
        f"noiseless strictly decreasing, Spearman {spearman:.2f} at noise 0.1, {elapsed:.0f}s < 30s",
    )


def test_horizon_model_sanity():
    """Criterion 7: valid output distributions and separable-class accuracy."""
    start = time.perf_counter()
    records, vfs = _cohort_series(CohortSpec(n_per_class=25, noise=0.1, seed=2))
    x = future_feature_vector(
        [float(rec.copd) for rec in records],
        [concavity_features(vf) for vf in vfs],
        demographic_block([rec.demo for rec in records], fev1_fvc_ratio([rec.curve for rec in records])),
    )
    y = np.array([rec.horizon.value for rec in records])
    model, _ = train_logistic(x, y)

    # random rows spread like the fitted block, whose age column is in years
    rows = x.mean(axis=0) + x.std(axis=0) * np.random.default_rng(3).standard_normal((1000, 13))
    dists = predict_future_risk(rows, model)
    dist_ok = dists.shape == (1000, 6) and np.all(np.abs(dists.sum(axis=1) - 1.0) <= 1e-9) and np.all(dists >= 0.0)
    preds = model.classes[np.argmax(model.predict_proba(x), axis=1)]
    per_class = [float(np.mean(preds[y == c] == c)) for c in np.unique(y)]
    macro = float(np.mean(per_class))
    elapsed = time.perf_counter() - start
    _verdict(
        "7 horizon model sanity",
        dist_ok and macro >= 0.6 and elapsed < 60.0,
        f"1000 valid distributions, macro-accuracy {macro:.2f} >= 0.6, {elapsed:.0f}s < 60s",
    )


def test_smoothing_stabilization():
    """Criterion 8: smoothing reduces the flow's total variation every time."""
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    wins = 0
    for _ in range(50):
        ramp = np.clip(np.linspace(0, 3, 250) + 0.01 * rng.standard_normal(250), 0, None)
        curve = TimeVolumeCurve(ramp)
        before = float(np.abs(np.diff(differentiate_flow(curve).samples)).sum())
        smoothed = gaussian_smooth(curve, SmootherConfig())
        after = float(np.abs(np.diff(differentiate_flow(smoothed).samples)).sum())
        wins += after < before
    elapsed = time.perf_counter() - start
    _verdict(
        "8 smoothing stabilization",
        wins == 50 and elapsed < 5.0,
        f"{wins}/50 noisy ramps reduce flow total variation, {elapsed:.1f}s < 5s",
    )


def test_cli_reproducibility(tmp_path):
    """Criterion 9: two seeded pipeline runs emit byte-identical artifacts."""

    def run_pipeline(root: Path) -> dict:
        cohort = root / "cohort"
        models = root / "models"
        outputs = root / "outputs"
        assert cli_main(["synth", "--out-dir", str(cohort), "--n", "36", "--seed", "5"]) == 0
        assert cli_main([
            "train-detect", "--out-dir", str(models), "--cohort", str(cohort),
            "--epochs", "3", "--seed", "5",
        ]) == 0
        assert cli_main([
            "train-horizon", "--out-dir", str(models), "--cohort", str(cohort),
            "--models", str(models),
        ]) == 0
        assert cli_main([
            "evaluate", "--out-dir", str(outputs), "--cohort", str(cohort),
            "--models", str(models),
        ]) == 0
        assert cli_main([
            "predict", "--out-dir", str(outputs), "--cohort", str(cohort),
            "--models", str(models),
        ]) == 0
        digests = {}
        for directory in (cohort, models, outputs):
            for p in sorted(directory.iterdir()):
                if p.is_file():
                    digests[f"{directory.name}/{p.name}"] = hashlib.sha256(p.read_bytes()).hexdigest()
        return digests

    a = run_pipeline(tmp_path / "run_a")
    b = run_pipeline(tmp_path / "run_b")
    ok = a == b and len(a) > 10
    _verdict(
        "9 reproducibility",
        ok,
        f"{len(a)} artifacts byte-identical across two seeded pipeline runs",
    )

"""Command-line pipeline: synth -> smooth -> featurize -> train -> evaluate
-> explain -> predict.

Every subcommand writes its artifacts (never stdout-only) plus a manifest
recording the configuration, and prints a one-line JSON summary.  All
stages are deterministic under a fixed seed, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .attention import (
    FUSION_FEATURE_NAMES,
    DemographicRecord,
    attention_overlay,
    demographic_block,
    fuse_and_score,
    fusion_features,
    overlay_svg,
)
from .curves import SmootherConfig, differentiate_flow, fev1_fvc_ratio, gaussian_smooth, volume_flow_curve
from .data import CohortSpec, generate_synthetic_cohort, load_time_volume_csv, write_time_volume_csv
from .detection import DetectionConfig, DetectionModel
from .errors import InvalidArgument, InvalidParams, ParseError, SpiroError, ValidationError
from .horizon import FUTURE_FEATURE_NAMES, HORIZON_ORDER, HorizonLabel, future_feature_vector, predict_future_risk
from .metrics import metrics_report, subgroup_reports
from .phases import concavity_features
from .training import LogisticModel, TrainConfig, json_object, train_logistic, write_training_log

FORMAT_VERSION = 1


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")


# parsed values that name the stage's inputs and outputs, not its configuration
_NOT_CONFIG = ("func", "command", "out_dir", "cohort", "models")


def _finish(args, counts: dict, smoother: SmootherConfig | None = None, **summary) -> int:
    """Write manifest_<command>.json and print the one-line JSON summary.

    The manifest's config is every flag the stage parsed except paths, plus
    the window and sigma of the smoother the stage used, which for the
    model stages is the detector checkpoint's.
    """
    config = {key: value for key, value in vars(args).items() if key not in _NOT_CONFIG}
    if smoother is not None:
        config.update(_smoother_record(smoother))
    out_dir, command = Path(args.out_dir), args.command
    _write_json(
        out_dir / f"manifest_{command.replace('-', '_')}.json",
        dict(format_version=FORMAT_VERSION, command=command, config=config, counts=counts, version=__version__),
    )
    print(json.dumps({"command": command, "out_dir": str(out_dir), **summary}, sort_keys=True))
    return 0


def _out_dir(args) -> Path:
    """--out-dir, created.  Each stage calls this just before its first
    write, so a stage that fails leaves no directory behind."""
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


# ---------------------------------------------------------------------------
# cohort files


def _write_cohort(out_dir: Path, records):
    write_time_volume_csv(out_dir / "curves.csv", [(r.record_id, r.curve) for r in records])
    with open(out_dir / "demographics.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "sex", "age", "smoking"])
        for r in records:
            writer.writerow([r.record_id, r.demo.sex, repr(r.demo.age), r.demo.smoking])
    with open(out_dir / "labels.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "copd", "horizon"])
        for r in records:
            writer.writerow([r.record_id, r.copd, r.horizon.value])


def _read_rows(path: Path, parse) -> dict:
    """id -> parse(row) over a cohort CSV with a header row.

    A missing column or a value that parse rejects raises ParseError, and a
    repeated id raises ValidationError, naming the file, the row and the id.
    """
    out = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            where = f"{path.name} row {reader.line_num} (id {row.get('id')!r})"
            try:
                value = parse(row)
            except (KeyError, TypeError, ValueError, InvalidParams) as exc:
                raise ParseError(f"{where}: {exc!r}") from None
            if row["id"] in out:
                raise ValidationError(f"{where}: duplicate id")
            out[row["id"]] = value
    return out


def _parse_demographics(row) -> DemographicRecord:
    if "fev1_fvc_ratio" in row:
        raise ValueError("the fev1_fvc_ratio column is no longer read: the ratio comes from curves.csv")
    return DemographicRecord(sex=row["sex"], age=float(row["age"]), smoking=row["smoking"])


def _parse_labels(row) -> tuple[int, HorizonLabel]:
    copd = int(row["copd"])
    if copd not in (0, 1):
        raise ValueError(f"copd must be 0 or 1, not {copd}")
    return copd, HorizonLabel(row["horizon"])


def _load_cohort(cohort_dir: Path):
    """Returns aligned lists: ids, curves, demos, copd labels, horizon labels.

    Every curves.csv id must have a row in demographics.csv and in
    labels.csv, and no file may repeat an id; either fault raises
    ValidationError.
    """
    curves = dict(load_time_volume_csv(cohort_dir / "curves.csv"))
    demos = _read_rows(cohort_dir / "demographics.csv", _parse_demographics)
    labels = _read_rows(cohort_dir / "labels.csv", _parse_labels)
    ids = sorted(curves)
    for name, table in (("demographics.csv", demos), ("labels.csv", labels)):
        missing = [i for i in ids if i not in table]
        if missing:
            raise ValidationError(f"{name} has no row for curves.csv id {missing[0]!r}")
    return (
        ids,
        [curves[i] for i in ids],
        [demos[i] for i in ids],
        np.array([labels[i][0] for i in ids]),
        [labels[i][1] for i in ids],
    )


def _smoother(record) -> SmootherConfig:
    """From a checkpoint's smoother record or vars() of --window/--sigma."""
    return SmootherConfig(k=record["window"], sigma=record["sigma"])


def _smoother_record(smoother: SmootherConfig) -> dict:
    return {"window": smoother.k, "sigma": smoother.sigma}


def _preprocess(curves, smoother: SmootherConfig):
    """Smooth, differentiate and build Volume-Flow curves and flow series,
    each step one batched call over all the curves."""
    smoothed = gaussian_smooth(curves, smoother)
    vf_curves = volume_flow_curve(smoothed, differentiate_flow(smoothed))
    return vf_curves, [vf.flows for vf in vf_curves]


@dataclass
class _Run:
    """What a cohort subcommand starts from: the smoother, the cohort in id
    order with preprocessed curves, and the trained models if loaded."""

    smoother: SmootherConfig
    ids: list
    vf_curves: list
    series: list
    demos: list
    struct: np.ndarray  # (N, 7) demographic_block: demographics and the curve's FEV1/FVC ratio
    copd: np.ndarray
    horizons: list
    models: tuple | None  # (detector, fusion model, detector test_ids)


def _start(args, models: bool = False, record_ids=None, test_split: bool = False) -> _Run:
    """Load the cohort and, if models, --models, then preprocess the
    curves with the detector checkpoint's smoother, or without models with
    --window/--sigma.  With record_ids, or with test_split (the detector
    checkpoint's test_ids), the cohort is first cut to those records, kept
    in cohort order, so only their curves are preprocessed.  A curve that
    fails preprocessing is named by its id; the FEV1/FVC ratios are read
    from the accepted curves, whose largest volumes are positive."""
    cohort = _load_cohort(Path(args.cohort))
    if models:
        loaded, smoother = _load_models(Path(args.models))
    else:
        loaded, smoother = None, _smoother(vars(args))
    if test_split:
        record_ids = loaded[2]
    if record_ids is not None:
        cohort = _cut(cohort, record_ids)
    ids, curves, demos, copd, horizons = cohort
    try:
        vf_curves, series = _preprocess(curves, smoother)
    except SpiroError as exc:
        if exc.row is None:
            raise
        raise _naming(exc, ids[exc.row]) from None
    struct = demographic_block(demos, fev1_fvc_ratio(curves))
    return _Run(smoother, ids, vf_curves, series, demos, struct, copd, horizons, loaded)


def _naming(exc: SpiroError, blow_id: str) -> SpiroError:
    """exc again, its message prefixed with the curves.csv id it is about."""
    return type(exc)(f"curves.csv id {blow_id!r}: {exc}")


def _profiles(ids, vf_curves) -> list:
    """concavity_features of each curve; a curve whose phases cannot be
    measured (an EmptyPhase when peak flow comes after 25% of FVC, a
    DegenerateCurve) is named by its id."""
    profiles = []
    for blow_id, vf in zip(ids, vf_curves):
        try:
            profiles.append(concavity_features(vf))
        except SpiroError as exc:
            raise _naming(exc, blow_id) from None
    return profiles


def _cut(cohort, record_ids):
    """The cohort's columns restricted to record_ids, in cohort order."""
    ids, curves, demos, copd, horizons = cohort
    position = {blow_id: i for i, blow_id in enumerate(ids)}
    unknown = [blow_id for blow_id in record_ids if blow_id not in position]
    if unknown:
        raise InvalidArgument(f"unknown record id {unknown[0]!r}")
    rows = sorted({position[blow_id] for blow_id in record_ids})
    return (
        [ids[i] for i in rows],
        [curves[i] for i in rows],
        [demos[i] for i in rows],
        copd[rows],
        [horizons[i] for i in rows],
    )


def _split(ids, seed: int, test_fraction: float = 0.2):
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    n_test = max(1, int(len(ids) * test_fraction))
    test = set(order[:n_test].tolist())
    return [i for i in range(len(ids)) if i not in test], sorted(test)


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args):
    n_per_class = max(1, args.n // len(HORIZON_ORDER))
    spec = CohortSpec(n_per_class=n_per_class, noise=args.noise, seed=args.seed)
    records = generate_synthetic_cohort(spec)
    _write_cohort(_out_dir(args), records)
    counts = {"total": len(records), "copd": sum(r.copd for r in records), "n_per_class": n_per_class}
    return _finish(args, counts, records=len(records))


def cmd_smooth(args):
    records = load_time_volume_csv(Path(args.cohort) / "curves.csv")
    cfg = _smoother(vars(args))
    ids = [blow_id for blow_id, _ in records]
    smoothed = gaussian_smooth([curve for _, curve in records], cfg)
    write_time_volume_csv(_out_dir(args) / "smoothed_curves.csv", list(zip(ids, smoothed)))
    return _finish(args, {"curves": len(smoothed)}, cfg, curves=len(smoothed))


def cmd_featurize(args):
    run = _start(args)
    ids = run.ids
    profiles = _profiles(ids, run.vf_curves)
    with open(_out_dir(args) / "features.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "c_pef_fef25", "c_fef25_fef50", "c_fef50_fef75", "c_fef75_plus", "trend"])
        for blow_id, profile in zip(ids, profiles):
            writer.writerow(
                [blow_id]
                + [repr(v) for v in profile.as_array().tolist()]
                + [repr(profile.trend)]
            )
    return _finish(args, {"curves": len(ids)}, run.smoother, curves=len(ids))


def cmd_train_detect(args):
    run = _start(args)
    ids, series, copd = run.ids, run.series, run.copd
    train_idx, test_idx = _split(ids, args.seed)
    model = DetectionModel(
        DetectionConfig(patch_len=args.k, channels=args.channels, hidden=args.hidden, seed=args.seed)
    )
    cfg = TrainConfig(lr=args.lr, epochs=args.epochs, batch_size=args.batch_size, seed=args.seed)
    trace, p_train = model.train([series[i] for i in train_idx], copd[train_idx], cfg)

    # fusion model on the trained detector's probabilities (its one
    # forward pass after the last epoch), train split only
    fusion, _ = train_logistic(fusion_features(p_train, run.struct[train_idx]), copd[train_idx])

    checkpoint = model.to_dict()
    checkpoint.update(
        {
            "format_version": FORMAT_VERSION,
            "kind": "detection",
            "test_ids": [ids[i] for i in test_idx],
            "smoother": _smoother_record(run.smoother),
        }
    )
    out_dir = _out_dir(args)
    _write_json(out_dir / "detect_model.json", checkpoint)
    _write_logistic(out_dir, "fusion", fusion)
    rows = [
        {"epoch": epoch, "loss": loss, "pass": "batches", "seed": args.seed}
        for epoch, loss in enumerate(trace[:-1], 1)
    ]
    rows.append({"epoch": args.epochs, "loss": trace[-1], "pass": "full", "seed": args.seed})
    write_training_log(out_dir / "train_detect_log.jsonl", rows)
    counts = {"train": len(train_idx), "test": len(test_idx)}
    return _finish(args, counts, run.smoother, final_loss=trace[-1])


def _read_model(path: Path, kind: str, build):
    """build(blob) of the JSON object in a model file whose format_version
    is FORMAT_VERSION and whose kind is kind; another value of either is an
    InvalidParams naming the key.  Text that is not a JSON object, or a key
    that is missing, raises ParseError naming the file; any other error
    build raises is re-raised naming the file."""
    try:
        blob = json.loads(path.read_text())
    except ValueError as exc:  # a JSONDecodeError, text that is not UTF-8, or an integer too long to convert
        raise ParseError(f"{path.name}: not valid JSON: {exc}") from None
    if not isinstance(blob, dict):
        raise ParseError(f"{path.name}: not a JSON object")
    try:
        for key, value in (("format_version", FORMAT_VERSION), ("kind", kind)):
            if (type(blob[key]), blob[key]) != (type(value), value):
                raise InvalidParams(f"{key!r} must be {value!r}, not {blob[key]!r}")
        return build(blob)
    except KeyError as exc:
        raise ParseError(f"{path.name}: missing key {exc}") from None
    except SpiroError as exc:
        raise type(exc)(f"{path.name}: {exc}") from None


def _test_ids(blob) -> list:
    test_ids = blob["test_ids"]
    if not (isinstance(test_ids, list) and all(isinstance(i, str) for i in test_ids)):
        raise ParseError("'test_ids' is not a list of record ids")
    return test_ids


# the feature names and the admissible classes of each logistic-model file
_LOGISTIC_FILES = {
    "fusion": (FUSION_FEATURE_NAMES, (0, 1)),
    "horizon": (FUTURE_FEATURE_NAMES, tuple(h.value for h in HORIZON_ORDER)),
}


def _write_logistic(out_dir: Path, kind: str, model: LogisticModel):
    """<kind>_model.json: the model and the names of the columns it was fitted on."""
    names, _ = _LOGISTIC_FILES[kind]
    _write_json(
        out_dir / f"{kind}_model.json",
        {"format_version": FORMAT_VERSION, "kind": kind, "features": list(names), "model": model.to_dict()},
    )


def _read_logistic(model_dir: Path, kind: str) -> LogisticModel:
    """The model in <kind>_model.json.  Its 'features' must equal the
    stage's feature names, so a file fitted on another column layout does
    not load: without the key it is a ParseError, with other names an
    InvalidParams, each naming the file and 'features'."""
    names, labels = _LOGISTIC_FILES[kind]

    def build(blob):
        if blob["features"] != list(names):
            raise InvalidParams(f"'features' must be {list(names)}")
        return LogisticModel.from_dict(json_object(blob, "model"), len(names), labels)

    return _read_model(model_dir / f"{kind}_model.json", kind, build)


def _load_models(model_dir: Path):
    """(detector, fusion model, the detector's test_ids) and the
    checkpoint's smoother."""
    model, smoother, test_ids = _read_model(
        model_dir / "detect_model.json",
        "detection",
        lambda blob: (DetectionModel.from_dict(blob), _smoother(json_object(blob, "smoother")), _test_ids(blob)),
    )
    return (model, _read_logistic(model_dir, "fusion"), test_ids), smoother


def cmd_train_horizon(args):
    run = _start(args, models=True)
    model, fusion, _ = run.models
    risks, _ = fuse_and_score(model.predict_proba(run.series), run.struct, fusion)
    profiles = _profiles(run.ids, run.vf_curves)
    features = future_feature_vector(risks, profiles, run.struct)
    labels = np.array([h.value for h in run.horizons])
    horizon_model, trace = train_logistic(features, labels)
    out_dir = _out_dir(args)
    _write_logistic(out_dir, "horizon", horizon_model)
    write_training_log(out_dir / "train_horizon_log.jsonl", trace)
    return _finish(args, {"records": len(run.ids)}, run.smoother, final_loss=trace[-1]["loss"])


def cmd_evaluate(args):
    run = _start(args, models=True, test_split=True)
    labels = run.copd
    model, fusion, _ = run.models
    p_hat = model.predict_proba(run.series)
    risks, _ = fuse_and_score(p_hat, run.struct, fusion)
    report = {
        "detection": metrics_report(p_hat, labels, args.threshold, split="test"),
        "fused": metrics_report(risks, labels, args.threshold, split="test"),
    }
    if args.subgroup:
        report["subgroups"] = subgroup_reports(p_hat, labels, run.demos, args.subgroup, args.threshold)
    _write_json(_out_dir(args) / "metrics.json", report)
    return _finish(args, {}, run.smoother, auroc=report["detection"]["auroc"])


def cmd_explain(args):
    run = _start(args, models=True, record_ids=None if args.id is None else [args.id])
    model, fusion, _ = run.models
    p_hats, weights = model.explain(run.series)
    risks, contributions = fuse_and_score(p_hats, run.struct, fusion)
    out_dir = _out_dir(args)
    for row, (blow_id, vf) in enumerate(zip(run.ids, run.vf_curves)):
        overlay = attention_overlay(weights[row], vf, model.config.patch_len)
        overlay.update({"p_hat": float(p_hats[row]), "fused_risk": float(risks[row])})
        overlay["contributions"] = dict(zip(FUSION_FEATURE_NAMES, contributions[row].tolist()))
        _write_json(out_dir / f"overlay_{blow_id}.json", overlay)
        if args.svg:
            (out_dir / f"overlay_{blow_id}.svg").write_text(overlay_svg(overlay, vf))
    return _finish(args, {"overlays": len(run.ids)}, run.smoother, overlays=len(run.ids))


def cmd_predict(args):
    run = _start(args, models=True)
    ids, vf_curves = run.ids, run.vf_curves
    model, fusion, _ = run.models
    labels = tuple(h.value for h in HORIZON_ORDER)
    horizon_model = _read_logistic(Path(args.models), "horizon")
    p_hats = model.predict_proba(run.series)
    risks, _ = fuse_and_score(p_hats, run.struct, fusion)
    negative = [i for i, p_hat in enumerate(p_hats) if p_hat <= args.threshold]
    profiles = _profiles([ids[i] for i in negative], [vf_curves[i] for i in negative])
    rows = future_feature_vector(risks[negative], profiles, run.struct[negative])
    probs = predict_future_risk(rows, horizon_model)
    horizon = {i: (vec, dist) for i, vec, dist in zip(negative, rows, probs)}
    with open(_out_dir(args) / "predictions.jsonl", "w") as fh:
        for i, blow_id in enumerate(ids):
            record = {"id": blow_id, "p_hat": float(p_hats[i]), "fused_risk": float(risks[i])}
            if i not in horizon:
                record["verdict"] = "copd"
            else:
                record["verdict"] = "non_copd"
                vec, dist = horizon[i]
                # argmax takes the first of tied labels, the nearer horizon
                record["horizon"] = {
                    "label_probs": dict(zip(labels, dist.tolist())),
                    "top_label": labels[int(np.argmax(dist))],
                    "features_used": vec.tolist(),
                }
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return _finish(args, {"records": len(ids)}, run.smoother, records=len(ids))


# ---------------------------------------------------------------------------
# parser


def _finite_float(text: str) -> float:
    """argparse type of the float flags: nan and inf are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spiroflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Each subcommand takes only the flags it reads: stages that load
    # --models smooth with the detector checkpoint's recorded smoother.
    def common(p, cohort=True, models=False, seed=False, smoother=False):
        p.add_argument("--out-dir", required=True)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if smoother:
            p.add_argument("--sigma", type=_finite_float, default=SmootherConfig.sigma)
            p.add_argument("--window", type=int, default=SmootherConfig.k)
        if cohort:
            p.add_argument("--cohort", required=True, help="directory with cohort CSV files")
        if models:
            p.add_argument("--models", required=True, help="directory with trained model files")

    p = sub.add_parser("synth", help="generate a seeded synthetic cohort")
    common(p, cohort=False, seed=True)
    p.add_argument("--n", type=int, default=60, help="approximate total cohort size")
    p.add_argument("--noise", type=_finite_float, default=CohortSpec.noise)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("smooth", help="write smoothed Time-Volume curves")
    common(p, smoother=True)
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("featurize", help="write per-curve concavity features")
    common(p, smoother=True)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train-detect", help="train the detection stack and fusion model")
    common(p, seed=True, smoother=True)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--lr", type=_finite_float, default=TrainConfig.lr)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--k", type=int, default=DetectionConfig.patch_len, help="patch length in samples")
    p.add_argument("--hidden", type=int, default=DetectionConfig.hidden)
    p.add_argument("--channels", type=int, default=DetectionConfig.channels)
    p.set_defaults(func=cmd_train_detect)

    p = sub.add_parser("train-horizon", help="fit the onset-horizon model")
    common(p, models=True)
    p.set_defaults(func=cmd_train_horizon)

    p = sub.add_parser("evaluate", help="metrics on the held-out split")
    common(p, models=True)
    p.add_argument("--threshold", type=_finite_float, default=0.5)
    p.add_argument("--subgroup", choices=["sex", "smoke", "age"], default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("explain", help="attention overlays for cohort curves")
    common(p, models=True)
    p.add_argument("--id", default=None, help="single record id (default: all)")
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("predict", help="gated detection + horizon prediction")
    common(p, models=True)
    p.add_argument("--threshold", type=_finite_float, default=0.5)
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpiroError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

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
from .curves import (
    SmootherConfig,
    VolumeFlowCurve,
    differentiate_flow,
    fev1_fvc_ratio,
    gaussian_smooth,
    volume_flow_curve,
)
from .data import CohortSpec, generate_synthetic_cohort, load_time_volume_csv, open_csv, write_time_volume_csv
from .detection import DetectionConfig, DetectionModel
from .errors import InvalidArgument, InvalidParams, ParseError, SpiroError, ValidationError
from .horizon import FUTURE_FEATURE_NAMES, HORIZON_ORDER, HorizonLabel, future_feature_vector, predict_future_risk
from .metrics import metrics_report, subgroup_reports
from .phases import CONCAVITY_NAMES, concavity_features
from .training import LogisticModel, TrainConfig, json_object, train_logistic, write_training_log

# CPython's own SHA-256 rather than hashlib's, which loads OpenSSL: that
# alone added 2.5-3.8 MB to the peak RSS of every stage (402-600 records).
# numpy.random would load it anyway; main() keeps it out (see there).
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

FORMAT_VERSION = 1


def _write_json(path: Path, payload: dict) -> bytes:
    """payload as one line of sorted-key JSON; returns the bytes written."""
    data = (json.dumps(payload, sort_keys=True) + "\n").encode()
    path.write_bytes(data)
    return data


# parsed values that name the stage's inputs and outputs, not its configuration
_NOT_CONFIG = ("func", "command", "out_dir", "cohort", "models")


def _finish(args, counts: dict, inputs: dict, smoother: SmootherConfig | None = None, **summary) -> int:
    """Write manifest_<command>.json and print the one-line JSON summary.

    The manifest's config is every flag the stage parsed except paths, plus
    the window and sigma of the smoother the stage used, which for the
    model stages is the detector checkpoint's.  Its input_sha256 is inputs:
    the SHA-256 of each file the stage read, keyed by file name.
    """
    config = {key: value for key, value in vars(args).items() if key not in _NOT_CONFIG}
    if smoother is not None:
        config.update(_smoother_record(smoother))
    out_dir, command = Path(args.out_dir), args.command
    manifest = dict(format_version=FORMAT_VERSION, command=command, config=config, counts=counts, version=__version__)
    _write_json(out_dir / f"manifest_{command.replace('-', '_')}.json", {**manifest, "input_sha256": inputs})
    print(json.dumps({"command": command, "out_dir": str(out_dir), **summary}, sort_keys=True))
    return 0


# Files are read in chunks of this many bytes.  Like curves.BLOCK_BYTES, it
# stays below glibc's 128 KiB mmap threshold: freeing larger buffers raises
# that threshold, and the heap then kept 1-4 MB more resident in the stages
# that followed (2400-record cohort).
CHUNK_BYTES = 1 << 16


def _sha256(path: Path, prefix: bytes = b"") -> str:
    """Hex SHA-256 of prefix followed by a file's bytes, read in chunks."""
    digest = sha256(prefix)
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(CHUNK_BYTES), b""):
            digest.update(chunk)
    return digest.hexdigest()


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


def _read_rows(path: Path, parse, inputs: dict) -> dict:
    """id -> parse(row) over a cohort CSV with a header row; the SHA-256 of
    the bytes parsed is recorded in inputs under the file's name.

    A missing column, a row with more cells than the header or a value that
    parse rejects raises ParseError, and a repeated id raises
    ValidationError, naming the file, the row and the id.
    """
    out = {}
    digest = sha256()
    with open_csv(path, digest) as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            where = f"{path.name} row {reader.line_num} (id {row.get('id')!r})"
            if None in row:  # DictReader files the cells past the header's under None
                raise ParseError(f"{where}: {len(row[None])} more cells than the header's {len(reader.fieldnames)}")
            try:
                record_id, value = row["id"], parse(row)
            except (KeyError, TypeError, ValueError, InvalidParams) as exc:
                raise ParseError(f"{where}: {exc!r}") from None
            if record_id in out:
                raise ValidationError(f"{where}: duplicate id")
            out[record_id] = value
    inputs[path.name] = digest.hexdigest()
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


def _load_cohort(cohort_dir: Path, inputs: dict):
    """Returns aligned lists: ids, curves, demos, copd labels, horizon labels.

    Every curves.csv id must have a row in demographics.csv and in
    labels.csv, and no file may repeat an id; either fault raises
    ValidationError.  Each file is read once, and the SHA-256 of the bytes
    parsed is recorded in inputs under its name, unless inputs already
    holds the digest of curves.csv.
    """
    path = cohort_dir / "curves.csv"
    digest = None if path.name in inputs else sha256()
    curves = dict(load_time_volume_csv(path, digest))
    if digest is not None:
        inputs[path.name] = digest.hexdigest()
    ids = sorted(curves)
    return (ids, [curves[i] for i in ids], *_join(cohort_dir, ids, inputs))


def _join(cohort_dir: Path, ids, inputs: dict):
    """demos, copd labels and horizon labels of the curves.csv ids, from
    demographics.csv and labels.csv, whose digests go to inputs; an id
    without a row in either file raises ValidationError."""
    demos = _read_rows(cohort_dir / "demographics.csv", _parse_demographics, inputs)
    labels = _read_rows(cohort_dir / "labels.csv", _parse_labels, inputs)
    for name, table in (("demographics.csv", demos), ("labels.csv", labels)):
        missing = [i for i in ids if i not in table]
        if missing:
            raise ValidationError(f"{name} has no row for curves.csv id {missing[0]!r}")
    return [demos[i] for i in ids], np.array([labels[i][0] for i in ids]), [labels[i][1] for i in ids]


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
    order with preprocessed curves, the trained models if loaded, and the
    SHA-256 of each input file read so far, keyed by file name."""

    smoother: SmootherConfig
    ids: list
    vf_curves: list
    series: list
    demos: list
    struct: np.ndarray  # (N, 7) demographic_block: demographics and the curve's FEV1/FVC ratio
    copd: np.ndarray
    horizons: list
    models: tuple | None  # (detector, fusion model, detector test_ids)
    inputs: dict
    scores: np.ndarray | None  # the cached detector pass over the whole cohort, memory-mapped


def _start(args, models: bool = False, record_ids=None, test_split: bool = False) -> _Run:
    """Load the cohort and, if models, --models, then preprocess the
    curves with the detector checkpoint's smoother, or without models with
    --window/--sigma.  With record_ids, or with test_split (the detector
    checkpoint's test_ids), the cohort is first cut to those records, kept
    in cohort order, so only their curves are preprocessed, in one batched
    _preprocess pass whose errors _by_id names by the curve's id; the
    FEV1/FVC ratios are read from the accepted curves, whose largest
    volumes are positive.

    A model stage whose --models holds train-detect's cohort cache for
    these curves.csv and detect_model.json bytes takes the curves and
    ratios of its records from there, and parses only demographics.csv and
    labels.csv; over the whole cohort it also takes the detector pass's
    scores.  It reads curves.csv only to hash it; a stage that misses the
    cache then parses it as one without models does, and keeps that one
    digest."""
    cohort_dir = Path(args.cohort)
    inputs = {}
    cached = scores = None
    if models:
        model_dir = Path(args.models)
        loaded, smoother = _load_models(model_dir, inputs)
        inputs["curves.csv"] = _sha256(cohort_dir / "curves.csv")
        cached = _read_cache(model_dir, {name: inputs[name] for name in ("curves.csv", "detect_model.json")})
    else:
        loaded, smoother = None, _smoother(vars(args))
    if cached is None:
        cohort = _load_cohort(cohort_dir, inputs)
    else:
        # the curves column holds each record's row in the cached cohort
        record, cached_curves, cached_scores = cached
        cohort = (record["ids"], range(len(record["ids"])), *_join(cohort_dir, record["ids"], inputs))
    if test_split:
        record_ids = loaded[2]
    if record_ids is not None:
        cohort = _cut(cohort, record_ids)
    ids, curves, demos, copd, horizons = cohort
    if cached is None:
        vf_curves, series = _by_id(ids, _preprocess, curves, smoother)
        ratios = fev1_fvc_ratio(curves)
    else:
        vf_curves = _cached_curves(record, cached_curves, curves)
        series = [vf.flows for vf in vf_curves]
        ratios = np.array(record["fev1_fvc_ratios"])[list(curves)]
        scores = cached_scores if record_ids is None else None
    struct = demographic_block(demos, ratios)
    return _Run(smoother, ids, vf_curves, series, demos, struct, copd, horizons, loaded, inputs, scores)


# ---------------------------------------------------------------------------
# the models directory's cache: train-detect's preprocessed cohort and its
# trained detector's pass over it, which the model stages reuse, as a JSON
# record (cohort.json) whose sha256 binds it to a .npy payload (cohort.npy)


def _record_bytes(record: dict) -> bytes:
    """What a record's digest covers before the payload's bytes: every
    other field of the record, as sorted-key JSON."""
    return json.dumps({key: value for key, value in record.items() if key != "sha256"}, sort_keys=True).encode()


def _write_cache(out_dir: Path, run: _Run, detect_sha256: str, scores: np.ndarray):
    """cohort.npy, one flat float64 array: every record's Volume-Flow
    volumes in id order, then their flows, then the detector pass's
    (N, 1 + S) rows of p_hat and attention weights; then cohort.json, whose
    sha256 covers its other fields (input_sha256, ids, lengths, FEV1/FVC
    ratios, score width) followed by the payload's bytes, so that no value
    of either file can change unseen."""
    lengths = [len(vf) for vf in run.vf_curves]
    record = {
        "format_version": FORMAT_VERSION,
        "kind": "cohort",
        "input_sha256": {"curves.csv": run.inputs["curves.csv"], "detect_model.json": detect_sha256},
        "ids": run.ids,
        "lengths": lengths,
        "fev1_fvc_ratios": run.struct[:, -1].tolist(),
        "score_width": scores.shape[1],
    }
    path = out_dir / "cohort.npy"
    size = 2 * sum(lengths) + scores.size
    header = {"descr": np.lib.format.dtype_to_descr(np.dtype(float)), "fortran_order": False, "shape": (size,)}
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for piece in [*(vf.volumes for vf in run.vf_curves), *(vf.flows for vf in run.vf_curves), scores]:
            fh.write(memoryview(np.ascontiguousarray(piece)))
    record["sha256"] = _sha256(path, _record_bytes(record))
    _write_json(out_dir / "cohort.json", record)


def _read_cache(model_dir: Path, key: dict):
    """(record, curves (2, total length), scores (N, score width)), both
    memory-mapped, of model_dir's cohort.json and cohort.npy if the
    record's input_sha256 equals key, else None (also without a record).

    A record that does not match is not checked further.  One that matches
    must hold a hex SHA-256 digest, ascending ids without repeats, one
    length of at least 2 and one finite FEV1/FVC ratio per id, and a score
    width of at least 2; its digest must be that of its fields followed by
    the payload's bytes, and the payload a flat float64 array of the size
    the fields give.  Any fault raises naming the file, as _read_model does."""
    path = model_dir / "cohort.json"
    if not path.exists():
        return None

    def build(blob):
        if blob["input_sha256"] != key:
            return None
        digest, ids, lengths = blob["sha256"], blob["ids"], blob["lengths"]
        ratios, width = blob["fev1_fvc_ratios"], blob["score_width"]
        if not (isinstance(digest, str) and len(digest) == 64 and set(digest) <= set("0123456789abcdef")):
            raise ParseError("'sha256' is not a hex SHA-256 digest")
        if not (isinstance(ids, list) and all(isinstance(i, str) for i in ids)):
            raise ParseError("'ids' is not a list of record ids")
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise ParseError("'ids' are not in ascending order without repeats")
        if not (isinstance(lengths, list) and all(type(n) is int and n >= 2 for n in lengths) and len(lengths) == len(ids)):
            raise ParseError("'lengths' is not one integer of at least 2 per id")
        if not (isinstance(ratios, list) and all(type(r) is float and math.isfinite(r) for r in ratios) and len(ratios) == len(ids)):
            raise ParseError("'fev1_fvc_ratios' is not one finite number per id")
        if not (type(width) is int and width >= 2):
            raise ParseError("'score_width' is not an integer of at least 2")
        return blob

    record = _read_model(path, "cohort", build)
    if record is None:
        return None
    payload_path = model_dir / "cohort.npy"
    if _sha256(payload_path, _record_bytes(record)) != record["sha256"]:
        raise ParseError(f"{payload_path.name}: SHA-256 of {path.name}'s fields and these bytes differs from its sha256")
    try:
        payload = np.load(payload_path, mmap_mode="r")
    except (ValueError, EOFError) as exc:
        raise ParseError(f"{payload_path.name}: not a .npy array: {exc}") from None
    total, n, width = sum(record["lengths"]), len(record["ids"]), record["score_width"]
    shape = (2 * total + n * width,)
    if payload.dtype != np.float64 or payload.shape != shape:
        raise ParseError(f"{payload_path.name}: {payload.dtype} {payload.shape}, not the {shape} float64 {path.name} gives")
    # the scores get a mapping of their own, which nothing reads until the
    # curves' mapping is gone, so that they add nothing to the stage's peak
    scores = np.memmap(payload_path, np.float64, "r", payload.offset + 16 * total, (n, width))
    return record, payload[: 2 * total].reshape(2, total), scores


def _cached_curves(record: dict, payload, rows) -> list[VolumeFlowCurve]:
    """The Volume-Flow curves of the cached cohort's rows, only their
    values copied out of the payload's volumes (row 0) and flows (row 1); a
    curve that is not a valid VolumeFlowCurve raises ParseError naming the
    file."""
    starts = np.cumsum([0] + record["lengths"]).tolist()
    curves = []
    for r in rows:
        volumes, flows = np.array(payload[:, starts[r] : starts[r + 1]])
        try:
            curves.append(VolumeFlowCurve(volumes, flows))
        except SpiroError as exc:
            raise ParseError(f"cohort.npy: id {record['ids'][r]!r}: {exc}") from None
    return curves


def _detector_pass(run: _Run):
    """(p_hat (N,), attention weights (N, S)) of the run's records: the
    cached pass that _start took for the whole cohort, which must be as
    wide as the detector's pass over it, else that one forward-only pass."""
    model = run.models[0]
    if run.scores is None:
        return model.explain(run.series)
    shape = (len(run.ids), 1 + model.patch_width(run.series))
    if run.scores.shape != shape:
        raise ParseError(f"cohort.npy: scores of shape {run.scores.shape}, not the {shape} the detector gives")
    scores = np.array(run.scores)
    return scores[:, 0], scores[:, 1:]


def _by_id(ids, batched, *args):
    """batched(*args), a batched pass over the records ids names in order;
    an error it raises about one row (say an EmptyPhase when a curve's peak
    flow comes after 25% of FVC) is raised again, its message prefixed with
    that row's curves.csv id."""
    try:
        return batched(*args)
    except SpiroError as exc:
        if exc.row is None:
            raise
        raise type(exc)(f"curves.csv id {ids[exc.row]!r}: {exc}") from None


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
    return _finish(args, counts, {}, records=len(records))


def cmd_smooth(args):
    path = Path(args.cohort) / "curves.csv"
    digest = sha256()
    records = load_time_volume_csv(path, digest)
    cfg = _smoother(vars(args))
    ids = [blow_id for blow_id, _ in records]
    smoothed = gaussian_smooth([curve for _, curve in records], cfg)
    write_time_volume_csv(_out_dir(args) / "smoothed_curves.csv", list(zip(ids, smoothed)))
    return _finish(args, {"curves": len(smoothed)}, {path.name: digest.hexdigest()}, cfg, curves=len(smoothed))


def cmd_featurize(args):
    run = _start(args)
    ids = run.ids
    rows = _by_id(ids, concavity_features, run.vf_curves)
    with open(_out_dir(args) / "features.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", *CONCAVITY_NAMES, "trend"])
        for blow_id, row in zip(ids, rows.tolist()):
            writer.writerow([blow_id, *map(repr, row)])
    return _finish(args, {"curves": len(ids)}, run.inputs, run.smoother, curves=len(ids))


def cmd_train_detect(args):
    run = _start(args)
    ids, series, copd = run.ids, run.series, run.copd
    train_idx, test_idx = _split(ids, args.seed)
    model = DetectionModel(
        DetectionConfig(patch_len=args.k, channels=args.channels, hidden=args.hidden, seed=args.seed)
    )
    cfg = TrainConfig(lr=args.lr, epochs=args.epochs, batch_size=args.batch_size, seed=args.seed)
    trace, p_hats, weights = model.train(series, copd, cfg, train_idx)

    # fusion model on the trained detector's probabilities (its one
    # forward pass over the cohort after the last epoch), train split only
    fusion, _ = train_logistic(fusion_features(p_hats[train_idx], run.struct[train_idx]), copd[train_idx])

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
    detect_sha256 = sha256(_write_json(out_dir / "detect_model.json", checkpoint)).hexdigest()
    _write_logistic(out_dir, "fusion", fusion)
    rows = [
        {"epoch": epoch, "loss": loss, "pass": "batches", "seed": args.seed}
        for epoch, loss in enumerate(trace[:-1], 1)
    ]
    rows.append({"epoch": args.epochs, "loss": trace[-1], "pass": "full", "seed": args.seed})
    write_training_log(out_dir / "train_detect_log.jsonl", rows)
    _write_cache(out_dir, run, detect_sha256, np.column_stack([p_hats, weights]))
    counts = {"train": len(train_idx), "test": len(test_idx)}
    return _finish(args, counts, run.inputs, run.smoother, final_loss=trace[-1])


def _read_model(path: Path, kind: str, build, inputs: dict | None = None):
    """build(blob) of the JSON object in a model file whose format_version
    is FORMAT_VERSION and whose kind is kind; another value of either is an
    InvalidParams naming the key.  Text that is not a JSON object, or a key
    that is missing, raises ParseError naming the file; any other error
    build raises is re-raised naming the file.  With inputs, the SHA-256 of
    the bytes read is recorded there under the file's name."""
    data = path.read_bytes()
    if inputs is not None:
        inputs[path.name] = sha256(data).hexdigest()
    try:
        blob = json.loads(data)
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


def _read_logistic(model_dir: Path, kind: str, inputs: dict | None = None) -> LogisticModel:
    """The model in <kind>_model.json.  Its 'features' must equal the
    stage's feature names, so a file fitted on another column layout does
    not load: without the key it is a ParseError, with other names an
    InvalidParams, each naming the file and 'features'."""
    names, labels = _LOGISTIC_FILES[kind]

    def build(blob):
        if blob["features"] != list(names):
            raise InvalidParams(f"'features' must be {list(names)}")
        return LogisticModel.from_dict(json_object(blob, "model"), len(names), labels)

    return _read_model(model_dir / f"{kind}_model.json", kind, build, inputs)


def _load_models(model_dir: Path, inputs: dict | None = None):
    """(detector, fusion model, the detector's test_ids) and the
    checkpoint's smoother; with inputs, the digests of both files are
    recorded there."""
    model, smoother, test_ids = _read_model(
        model_dir / "detect_model.json",
        "detection",
        lambda blob: (DetectionModel.from_dict(blob), _smoother(json_object(blob, "smoother")), _test_ids(blob)),
        inputs,
    )
    return (model, _read_logistic(model_dir, "fusion", inputs), test_ids), smoother


def cmd_train_horizon(args):
    run = _start(args, models=True)
    _, fusion, _ = run.models
    p_hats, _ = _detector_pass(run)
    risks, _ = fuse_and_score(p_hats, run.struct, fusion)
    concavity = _by_id(run.ids, concavity_features, run.vf_curves)
    features = future_feature_vector(risks, concavity, run.struct)
    labels = np.array([h.value for h in run.horizons])
    horizon_model, trace = train_logistic(features, labels)
    out_dir = _out_dir(args)
    _write_logistic(out_dir, "horizon", horizon_model)
    write_training_log(out_dir / "train_horizon_log.jsonl", trace)
    return _finish(args, {"records": len(run.ids)}, run.inputs, run.smoother, final_loss=trace[-1]["loss"])


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
    return _finish(args, {}, run.inputs, run.smoother, auroc=report["detection"]["auroc"])


def cmd_explain(args):
    run = _start(args, models=True, record_ids=None if args.id is None else [args.id])
    model, fusion, _ = run.models
    p_hats, weights = _detector_pass(run)
    risks, contributions = fuse_and_score(p_hats, run.struct, fusion)
    out_dir = _out_dir(args)
    for row, (blow_id, vf) in enumerate(zip(run.ids, run.vf_curves)):
        overlay = attention_overlay(weights[row], vf, model.config.patch_len)
        overlay.update({"p_hat": float(p_hats[row]), "fused_risk": float(risks[row])})
        overlay["contributions"] = dict(zip(FUSION_FEATURE_NAMES, contributions[row].tolist()))
        _write_json(out_dir / f"overlay_{blow_id}.json", overlay)
        if args.svg:
            (out_dir / f"overlay_{blow_id}.svg").write_text(overlay_svg(overlay, vf))
    return _finish(args, {"overlays": len(run.ids)}, run.inputs, run.smoother, overlays=len(run.ids))


def cmd_predict(args):
    run = _start(args, models=True)
    ids, vf_curves = run.ids, run.vf_curves
    _, fusion, _ = run.models
    labels = tuple(h.value for h in HORIZON_ORDER)
    horizon_model = _read_logistic(Path(args.models), "horizon", run.inputs)
    p_hats, _ = _detector_pass(run)
    risks, _ = fuse_and_score(p_hats, run.struct, fusion)
    negative = [i for i, p_hat in enumerate(p_hats) if p_hat <= args.threshold]
    concavity = _by_id([ids[i] for i in negative], concavity_features, [vf_curves[i] for i in negative])
    rows = future_feature_vector(risks[negative], concavity, run.struct[negative])
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
    return _finish(args, {"records": len(ids)}, run.inputs, run.smoother, records=len(ids))


# ---------------------------------------------------------------------------
# parser


def _finite_float(text: str) -> float:
    """argparse type of the float flags: nan and inf are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type of --seed: numpy's generators take no negative seed."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type of synth's --n: a cohort has at least one record."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spiroflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Each subcommand takes only the flags it reads: stages that load
    # --models smooth with the detector checkpoint's recorded smoother.
    def common(p, cohort=True, models=False, seed=False, smoother=False):
        p.add_argument("--out-dir", required=True)
        if seed:
            p.add_argument("--seed", type=_non_negative_int, default=0)
        if smoother:
            p.add_argument("--sigma", type=_finite_float, default=SmootherConfig.sigma)
            p.add_argument("--window", type=int, default=SmootherConfig.k)
        if cohort:
            p.add_argument("--cohort", required=True, help="directory with cohort CSV files")
        if models:
            p.add_argument("--models", required=True, help="directory with trained model files")

    p = sub.add_parser("synth", help="generate a seeded synthetic cohort")
    common(p, cohort=False, seed=True)
    p.add_argument("--n", type=_positive_int, default=60, help="approximate total cohort size")
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
    # numpy.random.bit_generator imports secrets -> hmac -> hashlib ->
    # _hashlib, which maps OpenSSL's libcrypto (3.3 MB resident) for an
    # hmac.compare_digest that nothing calls.  Without _hashlib, hmac and
    # hashlib fall back to CPython's built-ins (same digests); a process
    # that has already loaded it keeps it.
    sys.modules.setdefault("_hashlib", None)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpiroError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

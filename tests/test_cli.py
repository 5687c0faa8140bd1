import json
import hashlib
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import spiroflow
from spiroflow.attention import FUSION_FEATURE_NAMES
from spiroflow.cli import main
from spiroflow.errors import SpiroError
from spiroflow.metrics import auroc


def _run(*argv):
    return main(list(argv))


def _tree_digest(directory: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


CACHE_FILES = ("cohort.json", "cohort.npy")


def _without_cache(models: Path, dest: Path) -> Path:
    """A copy of a models directory without train-detect's cache of the
    preprocessed cohort and its detector pass, as train-detect wrote it
    before it wrote one."""
    dest.mkdir()
    for p in models.iterdir():
        if p.name not in CACHE_FILES:
            (dest / p.name).write_bytes(p.read_bytes())
    return dest


def _cached_parts(models: Path):
    """cohort.json's record and cohort.npy's payload cut into the records'
    volumes, their flows and the (N, score_width) detector-pass scores."""
    record = json.loads((models / "cohort.json").read_text())
    payload = np.load(models / "cohort.npy")
    total = sum(record["lengths"])
    scores = payload[2 * total :].reshape(len(record["ids"]), record["score_width"])
    return record, payload[:total], payload[total : 2 * total], scores


def _edited_cohort(cohort: Path, dest: Path) -> Path:
    """A copy of a cohort whose first blow's last sample, its FVC, grows by 5 ml."""
    dest.mkdir()
    for name in ("demographics.csv", "labels.csv"):
        (dest / name).write_bytes((cohort / name).read_bytes())
    blows = (cohort / "curves.csv").read_text().splitlines()
    cells = blows[0].split(",")
    cells[-1] = repr(float(cells[-1]) + 5.0)
    blows[0] = ",".join(cells)
    (dest / "curves.csv").write_text("\n".join(blows) + "\n")
    return dest


def _counting_passes(monkeypatch) -> list:
    """Record the batch size of every detector forward-only pass."""
    from spiroflow.detection import DetectionModel

    passes = []
    infer = DetectionModel._infer

    def counting(self, series_list):
        passes.append(len(series_list))
        return infer(self, series_list)

    monkeypatch.setattr(DetectionModel, "_infer", counting)
    return passes


def _rewrite_with_digest(models: Path, broken: Path, edit):
    """broken's cohort.npy replaced by edit(record, payload), which may also
    change the record, and the record's sha256 recomputed, so that the
    digest check passes and only the payload's checks remain."""
    record = json.loads((models / "cohort.json").read_text())
    np.save(broken / "cohort.npy", edit(record, np.load(models / "cohort.npy")))
    fields = json.dumps({k: v for k, v in record.items() if k != "sha256"}, sort_keys=True).encode()
    record["sha256"] = hashlib.sha256(fields + (broken / "cohort.npy").read_bytes()).hexdigest()
    (broken / "cohort.json").write_text(json.dumps(record))


def _clean_failure(capsys, code: int, out: Path) -> dict:
    """The JSON error of a stage that exited 1 without a traceback and left no --out-dir."""
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert not out.exists()
    payload = json.loads(err.strip().splitlines()[-1])
    assert sorted(payload) == ["error", "message"]
    return payload


def _counting(monkeypatch, name):
    """Replace spiroflow.cli.<name> by a wrapper; returns the list its calls' first arguments go to."""
    import spiroflow.cli

    calls = []
    fn = getattr(spiroflow.cli, name)

    def counting(*args, **kwargs):
        calls.append(args[0] if args else None)
        return fn(*args, **kwargs)

    monkeypatch.setattr(spiroflow.cli, name, counting)
    return calls


def _truncate(text):
    return text[: len(text) // 2]


def _shift_a_sample(record):
    # the lengths still sum to the payload's size
    record["lengths"][0] -= 1
    record["lengths"][1] += 1


def _longer_first_length(record, payload):
    record["lengths"][0] += 1
    return payload


def _one_more_weight_column(record, payload):
    # the record's score width grows with the payload, so only the width
    # the detector gives the cohort tells them apart
    curves = 2 * sum(record["lengths"])
    scores = payload[curves:].reshape(len(record["ids"]), record["score_width"])
    record["score_width"] += 1
    return np.concatenate([payload[:curves], np.column_stack([scores, np.zeros(len(scores))]).ravel()])


def _json_edit(change):
    """A text edit that applies change to the parsed JSON object."""

    def edit(text):
        blob = json.loads(text)
        change(blob)
        return json.dumps(blob)

    return edit


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small end-to-end run shared by the CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    cohort = root / "cohort"
    models = root / "models"
    assert _run("synth", "--out-dir", str(cohort), "--n", "36", "--noise", "0.1", "--seed", "1") == 0
    assert (
        _run(
            "train-detect",
            "--out-dir", str(models),
            "--cohort", str(cohort),
            "--epochs", "6",
            "--seed", "1",
        )
        == 0
    )
    assert (
        _run(
            "train-horizon",
            "--out-dir", str(models),
            "--cohort", str(cohort),
            "--models", str(models),
        )
        == 0
    )
    return root, cohort, models


class TestSynth:
    def test_outputs_and_manifest(self, tmp_path):
        out = tmp_path / "cohort"
        assert _run("synth", "--out-dir", str(out), "--n", "12", "--seed", "0") == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "curves.csv", "demographics.csv", "labels.csv", "manifest_synth.json"
        ]
        # the FEV1/FVC ratio is read from curves.csv, so demographics.csv does not carry it
        assert (out / "demographics.csv").read_text().splitlines()[0] == "id,sex,age,smoking"
        manifest = json.loads((out / "manifest_synth.json").read_text())
        assert manifest["counts"] == {"total": 12, "copd": 10, "n_per_class": 2}
        assert manifest["config"]["seed"] == 0

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert _run("synth", "--out-dir", str(out), "--n", "18", "--seed", "9") == 0
        assert _tree_digest(a) == _tree_digest(b)

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        _run("synth", "--out-dir", str(a), "--n", "18", "--seed", "1")
        _run("synth", "--out-dir", str(b), "--n", "18", "--seed", "2")
        assert _tree_digest(a)["curves.csv"] != _tree_digest(b)["curves.csv"]


class TestSmoothFeaturize:
    def test_smooth_writes_curves(self, pipeline, tmp_path):
        _, cohort, _ = pipeline
        out = tmp_path / "smoothed"
        assert _run("smooth", "--out-dir", str(out), "--cohort", str(cohort)) == 0
        assert (out / "smoothed_curves.csv").exists()
        assert (out / "manifest_smooth.json").exists()

    def test_featurize_writes_full_table(self, pipeline, tmp_path):
        _, cohort, _ = pipeline
        out = tmp_path / "features"
        assert _run("featurize", "--out-dir", str(out), "--cohort", str(cohort)) == 0
        lines = (out / "features.csv").read_text().splitlines()
        assert lines[0] == "id,c_pef_fef25,c_fef25_fef50,c_fef50_fef75,c_fef75_plus,trend"
        assert len(lines) == 37  # header + 36 records
        # trend column equals the signed sum of the four phase columns
        for line in lines[1:4]:
            cells = line.split(",")
            c = [float(v) for v in cells[1:5]]
            assert float(cells[5]) == pytest.approx(c[0] + c[1] - c[2] - c[3])


    def test_ids_are_kept_exactly_as_written(self, tmp_path):
        # a cohort whose every id is written as " <id> " in all three files
        # joins, and both stages write the ids back as written
        cohort, spaced = tmp_path / "cohort", tmp_path / "spaced"
        assert _run("synth", "--out-dir", str(cohort), "--n", "12", "--seed", "0") == 0

        def spaced_ids(text):
            return re.sub(r"^([A-Z0-9_]+),", r" \1 ,", text, flags=re.M)

        spaced.mkdir()
        for name in ("curves.csv", "demographics.csv", "labels.csv"):
            (spaced / name).write_text(spaced_ids((cohort / name).read_text()))
        assert (spaced / "labels.csv").read_text().splitlines()[1].startswith(" WITHIN_1Y_0000 ,")
        for command, written in (("featurize", "features.csv"), ("smooth", "smoothed_curves.csv")):
            for source in (cohort, spaced):
                assert _run(command, "--out-dir", str(tmp_path / f"{command}_{source.name}"), "--cohort", str(source)) == 0
            plain = (tmp_path / f"{command}_cohort" / written).read_text()
            assert (tmp_path / f"{command}_spaced" / written).read_text() == spaced_ids(plain), command


class TestTrainAndEvaluate:
    def test_checkpoints_written(self, pipeline):
        _, _, models = pipeline
        for name in ("detect_model.json", "fusion_model.json", "horizon_model.json", "train_detect_log.jsonl"):
            assert (models / name).exists(), name
        blob = json.loads((models / "detect_model.json").read_text())
        assert blob["kind"] == "detection"
        assert blob["test_ids"]
        assert "arrays" in blob

    def test_training_log_is_monotone_enough(self, pipeline):
        _, _, models = pipeline
        losses = [json.loads(l)["loss"] for l in (models / "train_detect_log.jsonl").read_text().splitlines()]
        assert losses[-1] < losses[0]

    def test_evaluate_report(self, pipeline, tmp_path):
        _, cohort, models = pipeline
        out = tmp_path / "eval"
        assert _run("evaluate", "--out-dir", str(out), "--cohort", str(cohort), "--models", str(models)) == 0
        report = json.loads((out / "metrics.json").read_text())
        for split in ("detection", "fused"):
            for key in ("auroc", "auprc", "f1", "n", "prevalence"):
                assert key in report[split]
        assert report["detection"]["n"] == len(
            json.loads((models / "detect_model.json").read_text())["test_ids"]
        )

    def test_evaluate_matches_library_auroc(self, pipeline, tmp_path):
        import csv as csv_mod

        from spiroflow.cli import _load_cohort, _load_models, _preprocess

        _, cohort, models = pipeline
        out = tmp_path / "eval"
        _run("evaluate", "--out-dir", str(out), "--cohort", str(cohort), "--models", str(models))
        report = json.loads((out / "metrics.json").read_text())

        ids, curves, demos, copd, _ = _load_cohort(cohort, {})
        (model, _, test_ids), smoother = _load_models(models)
        _, series = _preprocess(curves, smoother)
        sel = [i for i, blow_id in enumerate(ids) if blow_id in set(test_ids)]
        p_hat = model.predict_proba([series[i] for i in sel])
        assert report["detection"]["auroc"] == pytest.approx(auroc(p_hat, copd[sel]), abs=1e-12)

    def test_evaluate_preprocesses_only_the_test_split(self, pipeline, tmp_path, monkeypatch):
        # without train-detect's preprocessed cohort, only the test split's
        # curves are preprocessed; with it, only theirs are built from it
        import spiroflow.cli
        from spiroflow.cli import _load_cohort

        _, cohort, models = pipeline
        smoothed = []
        smooth = spiroflow.cli.gaussian_smooth

        def counting_smooth(curves, cfg):
            smoothed.append(list(curves))
            return smooth(curves, cfg)

        monkeypatch.setattr(spiroflow.cli, "gaussian_smooth", counting_smooth)
        built = _counting(monkeypatch, "VolumeFlowCurve")
        uncached = _without_cache(models, tmp_path / "uncached")
        assert _run("evaluate", "--out-dir", str(tmp_path / "eval"), "--cohort", str(cohort), "--models", str(uncached)) == 0
        test_ids = json.loads((models / "detect_model.json").read_text())["test_ids"]
        ids, curves, _, _, _ = _load_cohort(cohort, {})
        by_id = dict(zip(ids, curves))
        assert 0 < len(test_ids) < len(ids)
        assert len(smoothed) == 1
        assert len(smoothed[0]) == len(test_ids)
        assert all(np.array_equal(c.samples, by_id[i].samples) for c, i in zip(smoothed[0], test_ids))
        assert built == []

        smoothed.clear()
        assert _run("evaluate", "--out-dir", str(tmp_path / "hit"), "--cohort", str(cohort), "--models", str(models)) == 0
        assert smoothed == []
        assert len(built) == len(test_ids)
        assert _tree_digest(tmp_path / "hit") == _tree_digest(tmp_path / "eval")

    def test_train_detect_fits_fusion_on_its_last_loss_pass(self, pipeline, tmp_path, monkeypatch):
        # one forward-only pass over every cohort record, after the last
        # epoch, and no other inference pass; its train rows fit fusion
        from spiroflow.detection import DetectionModel

        _, cohort, _ = pipeline
        passes, predicts = [], []
        infer = DetectionModel._infer

        def counting_infer(self, series_list):
            passes.append(len(series_list))
            return infer(self, series_list)

        monkeypatch.setattr(DetectionModel, "_infer", counting_infer)
        monkeypatch.setattr(DetectionModel, "predict_proba", lambda self, series_list: predicts.append(1))
        out = tmp_path / "models"
        epochs = 2
        assert _run("train-detect", "--out-dir", str(out), "--cohort", str(cohort), "--epochs", str(epochs)) == 0
        counts = json.loads((out / "manifest_train_detect.json").read_text())["counts"]
        assert predicts == []
        assert passes == [counts["train"] + counts["test"]] == [36]

    def test_subgroup_flag(self, pipeline, tmp_path):
        _, cohort, models = pipeline
        out = tmp_path / "eval_sub"
        assert (
            _run(
                "evaluate", "--out-dir", str(out), "--cohort", str(cohort),
                "--models", str(models), "--subgroup", "sex",
            )
            == 0
        )
        report = json.loads((out / "metrics.json").read_text())
        assert "subgroups" in report


class TestExplain:
    def test_single_overlay(self, pipeline, tmp_path):
        _, cohort, models = pipeline
        out = tmp_path / "explain"
        blow_id = "NON_COPD_0000"
        assert (
            _run(
                "explain", "--out-dir", str(out), "--cohort", str(cohort),
                "--models", str(models), "--id", blow_id, "--svg",
            )
            == 0
        )
        overlay = json.loads((out / f"overlay_{blow_id}.json").read_text())
        assert sum(p["weight"] for p in overlay["patches"]) == pytest.approx(1.0)
        assert 0.0 <= overlay["p_hat"] <= 1.0
        assert 0.0 <= overlay["fused_risk"] <= 1.0
        assert "detection_probability" in overlay["contributions"]
        svg = (out / f"overlay_{blow_id}.svg").read_text()
        assert svg.startswith("<svg") and "<polyline" in svg

    def test_single_overlay_equals_full_run(self, pipeline, tmp_path):
        # --id preprocesses only its record: the spans and the curve are
        # byte-equal.  Its detector batch has one record, and BLAS may round a
        # batch of one differently from the full run's batch in the last bits.
        # The demographic contributions are elementwise in the record's own
        # row, so they are equal; the detection probability's carries p_hat's
        # difference times its weight gap over its scale, plus the rounding
        # of the two values.
        from spiroflow.cli import _load_cohort

        _, cohort, models = pipeline
        fusion = json.loads((models / "fusion_model.json").read_text())["model"]
        slope = abs(fusion["weights"][1][0] - fusion["weights"][0][0]) / fusion["scale"][0]
        every = tmp_path / "every"
        args = ("--cohort", str(cohort), "--models", str(models), "--svg")
        assert _run("explain", "--out-dir", str(every), *args) == 0
        ids = _load_cohort(cohort, {})[0]
        assert len(ids) == 36
        for blow_id in ids:
            one = tmp_path / blow_id
            assert _run("explain", "--out-dir", str(one), "--id", blow_id, *args) == 0
            a, b = (json.loads((d / f"overlay_{blow_id}.json").read_text()) for d in (one, every))
            assert [(p["v_start"], p["v_end"]) for p in a["patches"]] == [
                (p["v_start"], p["v_end"]) for p in b["patches"]
            ]
            polyline_a, polyline_b = (
                re.search(r"<polyline [^>]*/>", (d / f"overlay_{blow_id}.svg").read_text()).group(0)
                for d in (one, every)
            )
            assert polyline_a == polyline_b
            weights_a = np.array([p["weight"] for p in a["patches"]])
            weights_b = np.array([p["weight"] for p in b["patches"]])
            assert np.max(np.abs(weights_a - weights_b)) <= 1e-12
            assert abs(a["p_hat"] - b["p_hat"]) <= 1e-12
            assert abs(a["fused_risk"] - b["fused_risk"]) <= 1e-12
            assert sorted(a["contributions"]) == sorted(b["contributions"]) == sorted(FUSION_FEATURE_NAMES)
            detection_a = a["contributions"].pop("detection_probability")
            detection_b = b["contributions"].pop("detection_probability")
            assert a["contributions"] == b["contributions"]
            rounding = 4 * (np.spacing(abs(detection_a)) + np.spacing(abs(detection_b)))
            assert abs(detection_a - detection_b) <= slope * abs(a["p_hat"] - b["p_hat"]) + rounding

    def test_overlays_equal_predictions_bit_for_bit(self, pipeline, tmp_path, monkeypatch):
        # explain and predict score the whole cohort in the same batch, or
        # both take train-detect's pass over it from its cache
        _, cohort, models = pipeline
        passes = _counting_passes(monkeypatch)
        uncached = _without_cache(models, tmp_path / "uncached")
        for model_dir, computed in ((models, []), (uncached, [36, 36])):
            passes.clear()
            args = ("--cohort", str(cohort), "--models", str(model_dir))
            explained, predicted = tmp_path / model_dir.name / "explain", tmp_path / model_dir.name / "pred"
            assert _run("explain", "--out-dir", str(explained), "--svg", *args) == 0
            assert _run("predict", "--out-dir", str(predicted), *args) == 0
            assert passes == computed, model_dir.name
            lines = [json.loads(l) for l in (predicted / "predictions.jsonl").read_text().splitlines()]
            assert len(lines) == 36
            for rec in lines:
                overlay = json.loads((explained / f"overlay_{rec['id']}.json").read_text())
                assert overlay["p_hat"] == rec["p_hat"]
                assert overlay["fused_risk"] == rec["fused_risk"]

    def test_id_preprocesses_only_its_record(self, pipeline, tmp_path, monkeypatch):
        # the per-layer trace wraps the curve functions as spiroflow.cli globals
        import spiroflow.cli

        _, cohort, models = pipeline
        smoothed = []
        smooth = spiroflow.cli.gaussian_smooth

        def counting_smooth(curves, cfg):
            smoothed.append(list(curves))
            return smooth(curves, cfg)

        monkeypatch.setattr(spiroflow.cli, "gaussian_smooth", counting_smooth)
        built = _counting(monkeypatch, "VolumeFlowCurve")
        uncached = _without_cache(models, tmp_path / "uncached")
        args = ("--cohort", str(cohort), "--id", "NON_COPD_0000")
        assert _run("explain", "--out-dir", str(tmp_path / "explain"), *args, "--models", str(uncached)) == 0
        # one batched call, holding exactly the one curve
        assert len(smoothed) == 1
        assert len(smoothed[0]) == 1
        # from train-detect's preprocessed cohort: no smoothing, and one curve built
        smoothed.clear()
        assert _run("explain", "--out-dir", str(tmp_path / "hit"), *args, "--models", str(models)) == 0
        assert smoothed == []
        assert len(built) == 1
        assert _tree_digest(tmp_path / "hit") == _tree_digest(tmp_path / "explain")

    def test_unknown_id_is_clean_failure(self, pipeline, tmp_path, capsys):
        _, cohort, models = pipeline
        code = _run(
            "explain", "--out-dir", str(tmp_path / "explain"), "--cohort", str(cohort),
            "--models", str(models), "--id", "NO_SUCH_RECORD",
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "InvalidArgument"
        assert "NO_SUCH_RECORD" in payload["message"]


class TestPredict:
    def test_gate_contract(self, pipeline, tmp_path):
        _, cohort, models = pipeline
        out = tmp_path / "pred"
        assert (
            _run(
                "predict", "--out-dir", str(out), "--cohort", str(cohort),
                "--models", str(models), "--threshold", "0.5",
            )
            == 0
        )
        lines = [json.loads(l) for l in (out / "predictions.jsonl").read_text().splitlines()]
        assert len(lines) == 36
        for rec in lines:
            if rec["p_hat"] > 0.5:
                assert rec["verdict"] == "copd"
                assert "horizon" not in rec
            else:
                assert rec["verdict"] == "non_copd"
                probs = rec["horizon"]["label_probs"]
                assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)
                assert rec["horizon"]["top_label"] in probs
                assert len(rec["horizon"]["features_used"]) == 13
        # a horizon model without preference ties all six labels; the nearer horizon wins
        flat = tmp_path / "flat"
        flat.mkdir()
        for f in ("detect_model.json", "fusion_model.json"):
            (flat / f).write_bytes((models / f).read_bytes())
        blob = json.loads((models / "horizon_model.json").read_text())
        assert len(blob["model"]["classes"]) == 6
        blob["model"].update(weights=[[0.0] * 13] * 6, bias=[0.0] * 6)
        (flat / "horizon_model.json").write_text(json.dumps(blob))
        tied = tmp_path / "tied"
        assert _run("predict", "--out-dir", str(tied), "--cohort", str(cohort), "--models", str(flat),
                    "--threshold=1") == 0
        lines = [json.loads(l) for l in (tied / "predictions.jsonl").read_text().splitlines()]
        assert [rec["horizon"]["top_label"] for rec in lines] == ["WITHIN_1Y"] * 36

    def test_repeat_run_byte_identical(self, pipeline, tmp_path):
        _, cohort, models = pipeline
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            _run("predict", "--out-dir", str(out), "--cohort", str(cohort), "--models", str(models))
        assert _tree_digest(a) == _tree_digest(b)

    def test_batched_scores_match_single_record_calls(self, pipeline, tmp_path):
        from spiroflow.cli import _load_cohort, _load_models, _preprocess

        _, cohort, models = pipeline
        out = tmp_path / "pred"
        assert _run("predict", "--out-dir", str(out), "--cohort", str(cohort), "--models", str(models)) == 0
        lines = [json.loads(l) for l in (out / "predictions.jsonl").read_text().splitlines()]

        ids, curves, _, _, _ = _load_cohort(cohort, {})
        (model, _, _), smoother = _load_models(models)
        _, series = _preprocess(curves, smoother)
        assert [rec["id"] for rec in lines] == ids
        for rec, flows in zip(lines, series):
            single = float(model.predict_proba([flows])[0])
            assert abs(rec["p_hat"] - single) <= 1e-12
            assert rec["verdict"] == ("copd" if single > 0.5 else "non_copd")

    def test_ratio_is_read_from_the_curve(self, pipeline, tmp_path):
        # stretch one blow after 1 s: its FVC grows and its FEV1 stays, so
        # the ratio the horizon rows use must follow the edited curve
        from spiroflow.data import load_time_volume_csv
        from spiroflow.horizon import FUTURE_FEATURE_NAMES

        _, cohort, models = pipeline
        edited = tmp_path / "edited"
        edited.mkdir()
        for name in ("demographics.csv", "labels.csv"):
            (edited / name).write_bytes((cohort / name).read_bytes())
        blows = (cohort / "curves.csv").read_text().splitlines()
        cells = blows[0].split(",")
        ml = np.array([float(cell) for cell in cells[1:]])
        ml[101:] = ml[100] + 1.2 * (ml[101:] - ml[100])
        blows[0] = ",".join([cells[0]] + [repr(v) for v in ml.tolist()])
        (edited / "curves.csv").write_text("\n".join(blows) + "\n")
        v = dict(load_time_volume_csv(edited / "curves.csv"))[cells[0]].samples
        original = dict(load_time_volume_csv(cohort / "curves.csv"))[cells[0]].samples

        out = tmp_path / "pred"
        args = ("--cohort", str(edited), "--models", str(models), "--threshold", "1.0")
        assert _run("predict", "--out-dir", str(out), *args) == 0
        lines = [json.loads(line) for line in (out / "predictions.jsonl").read_text().splitlines()]
        [rec] = [rec for rec in lines if rec["id"] == cells[0]]
        ratio = rec["horizon"]["features_used"][FUTURE_FEATURE_NAMES.index("fev1_fvc_ratio")]
        assert ratio == v[100] / v.max()
        assert ratio < original[100] / original.max()


class TestBatchedFusion:
    def test_each_model_stage_fuses_all_its_records_in_one_call(self, pipeline, tmp_path, monkeypatch):
        import spiroflow.cli

        _, cohort, models = pipeline
        n_test = len(json.loads((models / "detect_model.json").read_text())["test_ids"])
        calls = []
        fuse = spiroflow.cli.fuse_and_score

        def recording_fuse(p_hats, struct, fusion):
            calls.append((len(p_hats), struct.shape))
            return fuse(p_hats, struct, fusion)

        monkeypatch.setattr(spiroflow.cli, "fuse_and_score", recording_fuse)
        for command, n in (("train-horizon", 36), ("evaluate", n_test), ("explain", 36), ("predict", 36)):
            calls.clear()
            out = tmp_path / command
            assert _run(command, "--out-dir", str(out), "--cohort", str(cohort), "--models", str(models)) == 0
            assert calls == [(n, (n, 7))], command

    def test_horizon_rows_equal_one_record_calls(self, pipeline, tmp_path, monkeypatch):
        import spiroflow.cli
        from spiroflow.attention import demographic_block
        from spiroflow.cli import _load_cohort, _load_models, _preprocess
        from spiroflow.curves import fev1_fvc_ratio
        from spiroflow.horizon import HORIZON_ORDER, future_feature_vector
        from spiroflow.phases import concavity_features

        _, cohort, models = pipeline
        args = ("--cohort", str(cohort), "--models", str(models))
        assert _run("predict", "--out-dir", str(tmp_path / "all"), *args) == 0
        p_hats = [json.loads(l)["p_hat"] for l in (tmp_path / "all" / "predictions.jsonl").read_text().splitlines()]
        threshold = sorted(p_hats)[len(p_hats) // 2]
        blocks, scored = [], []
        rows = spiroflow.cli.future_feature_vector
        score = spiroflow.cli.predict_future_risk

        def recording_rows(risks, concavity, struct):
            blocks.append(rows(risks, concavity, struct))
            return blocks[-1]

        def recording_score(block, model):
            scored.append((block, score(block, model)))
            return scored[-1][1]

        monkeypatch.setattr(spiroflow.cli, "future_feature_vector", recording_rows)
        monkeypatch.setattr(spiroflow.cli, "predict_future_risk", recording_score)
        assert _run("predict", "--out-dir", str(tmp_path / "split"), *args, "--threshold", repr(threshold)) == 0
        lines = [json.loads(l) for l in (tmp_path / "split" / "predictions.jsonl").read_text().splitlines()]
        negative = [i for i, rec in enumerate(lines) if rec["verdict"] == "non_copd"]
        assert 0 < len(negative) < len(lines)
        assert [b.shape for b in blocks] == [(len(negative), 13)]
        # the horizon model scores exactly that block, in one call
        assert len(scored) == 1 and scored[0][0] is blocks[0]
        labels = [h.value for h in HORIZON_ORDER]
        for i, probs in zip(negative, scored[0][1]):
            assert lines[i]["horizon"]["label_probs"] == dict(zip(labels, probs.tolist())), lines[i]["id"]
            assert lines[i]["horizon"]["top_label"] == labels[int(np.argmax(probs))], lines[i]["id"]

        ids, curves, demos, _, _ = _load_cohort(cohort, {})
        _, smoother = _load_models(models)
        vf_curves, _ = _preprocess(curves, smoother)
        for i in negative:
            concavity = concavity_features([vf_curves[i]])
            struct = demographic_block([demos[i]], fev1_fvc_ratio([curves[i]]))
            alone = future_feature_vector([lines[i]["fused_risk"]], concavity, struct)
            assert np.array_equal(np.array(lines[i]["horizon"]["features_used"]), alone[0]), ids[i]

        blocks.clear()
        scored.clear()
        assert _run("predict", "--out-dir", str(tmp_path / "none"), *args, "--threshold", "-1") == 0
        assert [b.shape for b in blocks] == [(0, 13)]
        assert [(b.shape, p.shape) for b, p in scored] == [((0, 13), (0, 6))]


class TestCheckpointSmoother:
    # the detector checkpoint owns the smoother of every stage that loads models
    MODEL_STAGES = ("train-horizon", "evaluate", "explain", "predict")

    def test_model_stages_smooth_with_the_checkpoint_smoother(self, pipeline, tmp_path, monkeypatch):
        import spiroflow.cli
        from spiroflow.curves import SmootherConfig

        _, cohort, _ = pipeline
        models = tmp_path / "models"
        train = ("--cohort", str(cohort), "--epochs", "1", "--window", "3", "--sigma", "1.5")
        assert _run("train-detect", "--out-dir", str(models), *train) == 0
        assert _run("train-horizon", "--out-dir", str(models), "--cohort", str(cohort), "--models", str(models)) == 0
        configs = []
        smooth = spiroflow.cli.gaussian_smooth

        def recording_smooth(curves, cfg):
            configs.append(cfg)
            return smooth(curves, cfg)

        monkeypatch.setattr(spiroflow.cli, "gaussian_smooth", recording_smooth)
        # train-detect's cache is keyed by the digest of the checkpoint,
        # which holds the smoother the cached cohort was preprocessed with
        record = json.loads((models / "cohort.json").read_text())
        detect_sha256 = hashlib.sha256((models / "detect_model.json").read_bytes()).hexdigest()
        assert record["input_sha256"]["detect_model.json"] == detect_sha256
        # a models directory without it, and one whose record names another
        # checkpoint digest, preprocess curves.csv again
        uncached = _without_cache(models, tmp_path / "uncached")
        other = tmp_path / "other_checkpoint"
        shutil.copytree(models, other)
        record["input_sha256"]["detect_model.json"] = "0" * 64
        (other / "cohort.json").write_text(json.dumps(record))
        checkpoint_smoother = [SmootherConfig(k=3, sigma=1.5)]
        for command in self.MODEL_STAGES:
            outputs = []
            for model_dir, smoothed in ((uncached, checkpoint_smoother), (other, checkpoint_smoother), (models, [])):
                configs.clear()
                out = tmp_path / f"{command}_{model_dir.name}"
                assert _run(command, "--out-dir", str(out), "--cohort", str(cohort), "--models", str(model_dir)) == 0
                assert configs == smoothed, (command, model_dir.name)
                manifest = json.loads((out / f"manifest_{command.replace('-', '_')}.json").read_text())
                assert (manifest["config"]["window"], manifest["config"]["sigma"]) == (3, 1.5), command
                outputs.append(_tree_digest(out))
            assert outputs[0] == outputs[1] == outputs[2], command

    def test_flags_a_stage_does_not_read_are_usage_errors(self, tmp_path, capsys):
        unread = [("synth", "--window"), ("synth", "--sigma"), ("smooth", "--seed"), ("featurize", "--seed")]
        unread += [("train-horizon", f) for f in ("--window", "--sigma", "--seed", "--epochs", "--lr", "--batch-size")]
        unread += [(c, f) for c in ("evaluate", "explain", "predict") for f in ("--window", "--sigma", "--seed")]
        required = {"synth": [], "smooth": ["--cohort", "c"], "featurize": ["--cohort", "c"]}
        for command, flag in unread:
            inputs = required.get(command, ["--cohort", "c", "--models", "m"])
            with pytest.raises(SystemExit) as exc:
                _run(command, "--out-dir", str(tmp_path), *inputs, flag, "3")
            assert exc.value.code == 2, (command, flag)
            assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err, (command, flag)


# every stage that loads --models: over the whole cohort, which takes
# train-detect's detector pass from its cache, and over subsets, which only
# take their curves from there
CACHE_STAGES = (
    ("train-horizon", ()),
    ("evaluate", ()),
    ("explain", ("--svg",)),
    ("explain", ("--id", "NON_COPD_0000", "--svg")),
    ("predict", ("--threshold", "1.0")),
)


def _stage_outputs(cohort: Path, models: Path, root: Path) -> dict:
    outputs = {}
    for command, extra in CACHE_STAGES:
        out = root / f"{command}{len(extra)}"
        assert _run(command, "--out-dir", str(out), "--cohort", str(cohort), "--models", str(models), *extra) == 0
        outputs[out.name] = _tree_digest(out)
    return outputs


def _earlier_caches(models: Path, dest: Path) -> Path:
    """A copy of a models directory whose cache is in the two record/payload
    pairs that earlier versions wrote: cohort_curves (volumes and flows,
    keyed by the curves.csv digest and the smoother) and cohort_scores (the
    detector pass, keyed by the curves.csv and checkpoint digests and the
    ids), each record's sha256 taken over its fields and payload."""
    _without_cache(models, dest)
    record, volumes, flows, scores = _cached_parts(models)
    curves_sha256 = record["input_sha256"]["curves.csv"]
    smoother = json.loads((models / "detect_model.json").read_text())["smoother"]
    caches = {
        "cohort_curves": (
            {"curves_sha256": curves_sha256, "smoother": smoother, "ids": record["ids"],
             "lengths": record["lengths"], "fev1_fvc_ratios": record["fev1_fvc_ratios"]},
            np.stack([volumes, flows]),
        ),
        "cohort_scores": (
            {"curves_sha256": curves_sha256, "detect_sha256": record["input_sha256"]["detect_model.json"],
             "ids": record["ids"]},
            scores,
        ),
    }
    for kind, (fields, payload) in caches.items():
        np.save(dest / f"{kind}.npy", payload)
        fields = {"format_version": 1, "kind": kind, **fields}
        fields_bytes = json.dumps(fields, sort_keys=True).encode()
        fields["sha256"] = hashlib.sha256(fields_bytes + (dest / f"{kind}.npy").read_bytes()).hexdigest()
        (dest / f"{kind}.json").write_text(json.dumps(fields, sort_keys=True) + "\n")
    return dest


def _broken_cache(models: Path, dest: Path, name: str, edit) -> Path:
    """A copy of a models directory that holds the earlier versions' two
    caches intact and the cache with name edited, or removed if edit is None."""
    _earlier_caches(models, dest)
    for cache_file in CACHE_FILES:
        (dest / cache_file).write_bytes((models / cache_file).read_bytes())
    if edit is None:
        (dest / name).unlink()
    elif name.endswith(".json"):
        (dest / name).write_text(edit((models / name).read_text()))
    else:
        (dest / name).write_bytes(edit((models / name).read_bytes()))
    return dest


def _assert_clean_failures(capsys, cohort: Path, broken: Path, root: Path, case, earlier, name, error):
    """Every model stage on broken ends in the JSON error naming the file
    name, not the earlier file, and leaves no --out-dir behind."""
    for command, extra in CACHE_STAGES:
        out = root / f"{command}{len(extra)}"
        code = _run(command, "--out-dir", str(out), "--cohort", str(cohort), "--models", str(broken), *extra)
        payload = _clean_failure(capsys, code, out)
        assert payload["error"] == error, (case, command, payload)
        assert name in payload["message"] and earlier not in payload["message"], (case, command, payload["message"])


class TestCohortCache:
    # train-detect writes the cohort it preprocessed and its trained
    # detector's pass over it next to its checkpoint (cohort.json and
    # cohort.npy); a model stage on the same curves.csv and detect_model.json
    # bytes reads its curves and ratios from there

    def test_hit_reads_no_curves_csv_and_equals_a_models_dir_without_the_cache(self, pipeline, tmp_path, monkeypatch):
        # the copy without the two files is what train-detect wrote before it wrote them
        _, cohort, models = pipeline
        loads = _counting(monkeypatch, "load_time_volume_csv")
        hit = _stage_outputs(cohort, models, tmp_path / "hit")
        assert loads == []
        miss = _stage_outputs(cohort, _without_cache(models, tmp_path / "uncached"), tmp_path / "miss")
        assert len(loads) == len(CACHE_STAGES)
        assert hit == miss

    def test_payload_is_the_preprocessed_cohort(self, pipeline):
        from spiroflow.cli import _load_cohort, _load_models, _preprocess
        from spiroflow.curves import fev1_fvc_ratio

        _, cohort, models = pipeline
        ids, curves, _, _, _ = _load_cohort(cohort, {})
        _, smoother = _load_models(models)
        vf_curves, _ = _preprocess(curves, smoother)
        record, volumes, flows, _ = _cached_parts(models)
        digest = {name: hashlib.sha256(path.read_bytes()).hexdigest()
                  for name, path in (("curves.csv", cohort / "curves.csv"), ("detect_model.json", models / "detect_model.json"))}
        assert record["input_sha256"] == digest
        fields = json.dumps({k: v for k, v in record.items() if k != "sha256"}, sort_keys=True).encode()
        assert record["sha256"] == hashlib.sha256(fields + (models / "cohort.npy").read_bytes()).hexdigest()
        assert record["ids"] == ids
        assert record["lengths"] == [len(vf) for vf in vf_curves]
        assert record["fev1_fvc_ratios"] == fev1_fvc_ratio(curves).tolist()
        assert np.array_equal(volumes, np.concatenate([vf.volumes for vf in vf_curves]))
        assert np.array_equal(flows, np.concatenate([vf.flows for vf in vf_curves]))

    def test_changed_sample_is_read_again(self, pipeline, tmp_path, monkeypatch):
        # one blow's last sample, its FVC, grows by 5 ml: the stages read the
        # edited curves.csv and answer as for a models directory without the cache
        _, cohort, models = pipeline
        edited = _edited_cohort(cohort, tmp_path / "edited")
        loads = _counting(monkeypatch, "load_time_volume_csv")
        changed = _stage_outputs(edited, models, tmp_path / "changed")
        assert len(loads) == len(CACHE_STAGES)
        assert changed == _stage_outputs(edited, _without_cache(models, tmp_path / "uncached"), tmp_path / "expected")
        original = _stage_outputs(cohort, models, tmp_path / "original")
        assert changed["predict2"]["predictions.jsonl"] != original["predict2"]["predictions.jsonl"]

    def test_caches_of_earlier_versions_are_never_read(self, pipeline, tmp_path, monkeypatch):
        # a models directory that holds only cohort_curves.* and
        # cohort_scores.*, as earlier versions wrote them for these very
        # curves.csv and detect_model.json bytes, is one without a cache
        _, cohort, models = pipeline
        n_test = len(json.loads((models / "detect_model.json").read_text())["test_ids"])
        earlier = _earlier_caches(models, tmp_path / "earlier")
        loads = _counting(monkeypatch, "load_time_volume_csv")
        passes = _counting_passes(monkeypatch)
        outputs = _stage_outputs(cohort, earlier, tmp_path / "earlier_out")
        assert len(loads) == len(CACHE_STAGES)
        assert passes == [36, n_test, 36, 1, 36]
        assert outputs == _stage_outputs(cohort, _without_cache(models, tmp_path / "uncached"), tmp_path / "uncached_out")

    @pytest.mark.parametrize(
        "case, earlier, edit, name, error",
        [
            ("truncated-payload", "cohort_curves.npy", lambda b: b[: len(b) // 2], "cohort.npy", "ParseError"),
            ("one-edited-payload-byte", "cohort_curves.npy", lambda b: b[:-3] + bytes([b[-3] ^ 1]) + b[-2:], "cohort.npy", "ParseError"),
            ("one-more-payload-value", "cohort_curves.npy", lambda b: b + bytes(8), "cohort.npy", "ParseError"),
            ("no-payload", "cohort_curves.npy", None, "cohort.npy", "FileNotFoundError"),
            ("lengths-do-not-match", "cohort_curves.json", _json_edit(lambda r: r["lengths"].__setitem__(0, r["lengths"][0] + 1)), "cohort.json", "ParseError"),
            ("one-sample-moves-to-a-neighbour", "cohort_curves.json", _json_edit(_shift_a_sample), "cohort.json", "ParseError"),
            ("one-edited-ratio", "cohort_curves.json", _json_edit(lambda r: r["fev1_fvc_ratios"].__setitem__(0, r["fev1_fvc_ratios"][0] / 2)), "cohort.json", "ParseError"),
            ("one-length-short", "cohort_curves.json", _json_edit(lambda r: r["lengths"].pop()), "cohort.json", "ParseError"),
            ("one-length-below-two", "cohort_curves.json", _json_edit(lambda r: r["lengths"].__setitem__(0, 1)), "cohort.json", "ParseError"),
            ("ids-out-of-order", "cohort_curves.json", _json_edit(lambda r: r["ids"].reverse()), "cohort.json", "ParseError"),
            ("nan-ratio", "cohort_curves.json", _json_edit(lambda r: r["fev1_fvc_ratios"].__setitem__(0, float("nan"))), "cohort.json", "ParseError"),
            ("score-width-below-two", "cohort_scores.npy", _json_edit(lambda r: r.update(score_width=1)), "cohort.json", "ParseError"),
            ("no-digest", "cohort_curves.json", _json_edit(lambda r: r.pop("sha256")), "cohort.json", "ParseError"),
            ("wrong-kind", "cohort_curves.json", _json_edit(lambda r: r.update(kind="detection")), "cohort.json", "InvalidParams"),
            ("format-version-2", "cohort_curves.json", _json_edit(lambda r: r.update(format_version=2)), "cohort.json", "InvalidParams"),
            ("not-json", "cohort_curves.json", _truncate, "cohort.json", "ParseError"),
        ],
    )
    def test_corrupt_cache_is_a_clean_failure(self, pipeline, tmp_path, capsys, case, earlier, edit, name, error):
        # the cache matches the cohort and the checkpoint, so it must load;
        # every model stage ends in the JSON error naming the file and leaves
        # no --out-dir behind.  Each case restates a check that earlier
        # versions made on the file named by earlier, whose intact copy lies
        # next to the broken cache and is not read in its place
        _, cohort, models = pipeline
        _assert_clean_failures(capsys, cohort, _broken_cache(models, tmp_path / "models", name, edit),
                               tmp_path, case, earlier, name, error)

    @pytest.mark.parametrize(
        "case, edit",
        [
            ("lengths-sum-too-long", _longer_first_length),
            ("float32-payload", lambda record, payload: payload.astype(np.float32)),
        ],
    )
    def test_payload_is_checked_against_a_record_whose_digest_matches(self, pipeline, tmp_path, capsys, case, edit):
        # a record rewritten with its digest recomputed still has its payload's
        # dtype and size checked against its lengths and score width
        _, cohort, models = pipeline
        broken = tmp_path / "models"
        shutil.copytree(models, broken)
        _rewrite_with_digest(models, broken, edit)
        out = tmp_path / "evaluate"
        code = _run("evaluate", "--out-dir", str(out), "--cohort", str(cohort), "--models", str(broken))
        payload = _clean_failure(capsys, code, out)
        assert payload["error"] == "ParseError"
        assert payload["message"].startswith("cohort.npy: "), payload["message"]
        assert "float64 cohort.json gives" in payload["message"]


class TestCohortScores:
    # the cache's payload ends in train-detect's trained detector's pass over
    # the whole cohort; train-horizon, predict and explain without --id take
    # p_hat and the attention weights from there.  Stages that score a subset
    # run the detector, because their batch rounds differently (evaluate
    # never runs the whole-cohort pass).

    def test_memo_is_the_detector_pass_over_the_cohort(self, pipeline):
        from spiroflow.cli import _load_cohort, _load_models, _preprocess

        _, cohort, models = pipeline
        ids, curves, _, _, _ = _load_cohort(cohort, {})
        (model, _, _), smoother = _load_models(models)
        p_hat, weights = model.explain(_preprocess(curves, smoother)[1])
        record, _, _, scores = _cached_parts(models)
        assert record["format_version"] == 1 and record["kind"] == "cohort" and record["ids"] == ids
        assert record["score_width"] == 1 + weights.shape[1]
        assert np.load(models / "cohort.npy").dtype == np.float64
        assert np.array_equal(scores, np.column_stack([p_hat, weights]))

    def test_full_cohort_stages_skip_the_detector_pass(self, pipeline, tmp_path, monkeypatch):
        # a hit answers with the very bits a miss computes; manifests do not
        # list the cache
        _, cohort, models = pipeline
        n_test = len(json.loads((models / "detect_model.json").read_text())["test_ids"])
        passes = _counting_passes(monkeypatch)
        hit = _stage_outputs(cohort, models, tmp_path / "hit")
        assert passes == [n_test, 1]  # evaluate's test split and explain --id's one record
        passes.clear()
        uncached = _without_cache(models, tmp_path / "uncached")
        assert _stage_outputs(cohort, uncached, tmp_path / "uncached_out") == hit
        assert passes == [36, n_test, 36, 1, 36]

    def test_train_horizon_reads_the_memo_or_runs_one_pass(self, pipeline, tmp_path, monkeypatch):
        # the cache has one writer, train-detect: train-horizon runs no pass
        # on a hit and one over the cohort on a miss, never writes the cache,
        # and writes the same bytes either way
        _, cohort, models = pipeline
        passes = _counting_passes(monkeypatch)
        uncached = _without_cache(models, tmp_path / "uncached")
        for model_dir, expected in ((models, []), (uncached, [36])):
            passes.clear()
            out = tmp_path / f"again_{model_dir.name}"
            assert _run("train-horizon", "--out-dir", str(out), "--cohort", str(cohort), "--models", str(model_dir)) == 0
            assert passes == expected, model_dir.name
            names = ("horizon_model.json", "train_horizon_log.jsonl", "manifest_train_horizon.json")
            assert sorted(p.name for p in out.iterdir()) == sorted(names), model_dir.name
            for name in names:
                assert (out / name).read_bytes() == (models / name).read_bytes(), (model_dir.name, name)

    def test_train_rows_equal_a_pass_over_the_train_split(self, pipeline):
        # fusion is fitted on the cached pass's train rows, which must be the
        # bits that a pass over the train split alone gives
        from spiroflow.cli import _load_cohort, _load_models, _preprocess

        _, cohort, models = pipeline
        ids, curves, _, _, _ = _load_cohort(cohort, {})
        (model, _, test_ids), smoother = _load_models(models)
        series = _preprocess(curves, smoother)[1]
        train = [i for i, blow_id in enumerate(ids) if blow_id not in set(test_ids)]
        assert 0 < len(test_ids) and len(train) + len(test_ids) == 36
        probs, weights = model._infer([series[i] for i in train])
        scores = _cached_parts(models)[3]
        assert np.array_equal(scores[train, 0], probs[:, 1])
        assert np.array_equal(scores[train, 1 : 1 + weights.shape[1]], weights)
        assert not scores[train, 1 + weights.shape[1] :].any()  # the padding of the cohort's wider pass

    def test_train_detect_overwrites_another_detectors_memo(self, pipeline, tmp_path):
        # a models directory that holds the cache of another detector gets the
        # new detector's cache, keyed by the new checkpoint's digest
        _, cohort, models = pipeline
        other = tmp_path / "models"
        shutil.copytree(models, other)
        assert _run("train-detect", "--out-dir", str(other), "--cohort", str(cohort), "--epochs", "1", "--seed", "2") == 0
        fresh = tmp_path / "fresh"
        assert _run("train-detect", "--out-dir", str(fresh), "--cohort", str(cohort), "--epochs", "1", "--seed", "2") == 0
        detect_sha256 = json.loads((other / "cohort.json").read_text())["input_sha256"]["detect_model.json"]
        assert detect_sha256 == hashlib.sha256((other / "detect_model.json").read_bytes()).hexdigest()
        assert detect_sha256 != json.loads((models / "cohort.json").read_text())["input_sha256"]["detect_model.json"]
        for name in CACHE_FILES:
            assert (other / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_stale_memo_is_a_miss(self, pipeline, tmp_path, monkeypatch):
        # a cache of another curves.csv or of another checkpoint is not read:
        # every stage reads curves.csv, runs the detector and answers as
        # without the cache
        _, cohort, models = pipeline
        edited = _edited_cohort(cohort, tmp_path / "edited")
        retrained = tmp_path / "retrained"
        shutil.copytree(models, retrained)
        args = ("--cohort", str(cohort), "--epochs", "1", "--seed", "2")
        assert _run("train-detect", "--out-dir", str(tmp_path / "other_detector"), *args) == 0
        for name in ("detect_model.json", "fusion_model.json"):
            (retrained / name).write_bytes((tmp_path / "other_detector" / name).read_bytes())
        loads = _counting(monkeypatch, "load_time_volume_csv")
        passes = _counting_passes(monkeypatch)
        for cohort_dir, model_dir in ((edited, models), (cohort, retrained)):
            loads.clear()
            passes.clear()
            root = tmp_path / f"{cohort_dir.name}_{model_dir.name}"
            stale = _stage_outputs(cohort_dir, model_dir, root / "stale")
            assert len(loads) == len(passes) == len(CACHE_STAGES), model_dir.name
            uncached = _without_cache(model_dir, root / "uncached")
            assert stale == _stage_outputs(cohort_dir, uncached, root / "expected"), model_dir.name

    @pytest.mark.parametrize(
        "case, earlier, edit, name, error",
        [
            ("truncated-payload", "cohort_scores.npy", lambda b: b[:-4], "cohort.npy", "ParseError"),
            ("one-edited-payload-byte", "cohort_scores.npy", lambda b: b[:-3] + bytes([b[-3] ^ 1]) + b[-2:], "cohort.npy", "ParseError"),
            ("one-more-payload-value", "cohort_scores.npy", lambda b: b + bytes(8), "cohort.npy", "ParseError"),
            ("no-payload", "cohort_scores.npy", None, "cohort.npy", "FileNotFoundError"),
            ("no-digest", "cohort_scores.json", _json_edit(lambda r: r.pop("sha256")), "cohort.json", "ParseError"),
            ("wrong-kind", "cohort_scores.json", _json_edit(lambda r: r.update(kind="cohort_scores")), "cohort.json", "InvalidParams"),
            ("format-version-2", "cohort_scores.json", _json_edit(lambda r: r.update(format_version=2)), "cohort.json", "InvalidParams"),
            ("not-json", "cohort_scores.json", _truncate, "cohort.json", "ParseError"),
        ],
    )
    def test_corrupt_memo_is_a_clean_failure(self, pipeline, tmp_path, capsys, case, earlier, edit, name, error):
        # the faults that earlier versions found in the detector-pass memo
        # (the file named by earlier, whose intact copy lies next to the
        # broken cache and is not read in its place): the payload ends in the
        # scores, so each byte edit falls in the pass's rows, and a record of
        # the memo's kind is refused.  The scores share the one record with
        # the curves, so evaluate and explain --id, which never read the
        # scores, fail as cleanly as the stages over the whole cohort
        _, cohort, models = pipeline
        _assert_clean_failures(capsys, cohort, _broken_cache(models, tmp_path / "models", name, edit),
                               tmp_path, case, earlier, name, error)

    @pytest.mark.parametrize(
        "case, edit, shown",
        [
            ("float32-payload", lambda record, payload: payload.astype(np.float32), "float64 cohort.json gives"),
            ("one-more-weight-column", _one_more_weight_column, "scores of shape (36, "),
            ("one-record-short", lambda record, payload: payload[: -record["score_width"]], "float64 cohort.json gives"),
        ],
    )
    def test_payload_is_checked_against_a_record_whose_digest_matches(self, pipeline, tmp_path, capsys, case, edit, shown):
        # the scores must be one row per id, as wide as the detector's pass
        # over the cohort, even when the record's digest matches
        _, cohort, models = pipeline
        broken = tmp_path / "models"
        shutil.copytree(models, broken)
        _rewrite_with_digest(models, broken, edit)
        out = tmp_path / "predict"
        code = _run("predict", "--out-dir", str(out), "--cohort", str(cohort), "--models", str(broken))
        payload = _clean_failure(capsys, code, out)
        assert payload["error"] == "ParseError"
        assert payload["message"].startswith("cohort.npy: "), payload["message"]
        assert shown in payload["message"], payload["message"]


@pytest.fixture(scope="module")
def uncached_outputs(pipeline, tmp_path_factory):
    """The outputs of TestCacheFuzz's stages from a models directory
    without the cache."""
    _, cohort, models = pipeline
    root = tmp_path_factory.mktemp("uncached_outputs")
    uncached = _without_cache(models, root / "models")
    outputs = {}
    for command, extra in TestCacheFuzz.STAGES:
        out = root / command
        assert _run(command, "--out-dir", str(out), "--cohort", str(cohort), "--models", str(uncached), *extra) == 0
        outputs[command] = _tree_digest(out)
    return outputs


class TestCacheFuzz:
    # one flipped or truncated byte in either file of the models directory's
    # cache: a stage answers as without the cache or fails with the JSON error
    # naming the file, never with a traceback, and leaves no --out-dir
    STAGES = (("train-horizon", ()), ("evaluate", ()), ("explain", ()), ("predict", ("--threshold", "1.0")))

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(name=st.sampled_from(CACHE_FILES), data=st.data())
    def test_one_bad_byte_is_a_miss_or_a_clean_failure(self, pipeline, uncached_outputs, capsys, name, data):
        _, cohort, models = pipeline
        original = (models / name).read_bytes()
        offset = data.draw(st.integers(0, len(original) - 1), label="offset")
        if data.draw(st.booleans(), label="truncate"):
            corrupt = original[:offset]
        else:
            flip = data.draw(st.integers(1, 255), label="xor")
            corrupt = original[:offset] + bytes([original[offset] ^ flip]) + original[offset + 1 :]
        with tempfile.TemporaryDirectory() as tmp:
            broken = Path(tmp) / "models"
            shutil.copytree(models, broken)
            (broken / name).write_bytes(corrupt)
            for command, extra in self.STAGES:
                out = Path(tmp) / command
                code = _run(command, "--out-dir", str(out), "--cohort", str(cohort), "--models", str(broken), *extra)
                if code == 0:
                    assert "Traceback" not in capsys.readouterr().err
                    assert _tree_digest(out) == uncached_outputs[command], command
                else:
                    payload = _clean_failure(capsys, code, out)
                    assert name in payload["message"], (command, payload)


COHORT_FILES = ("curves.csv", "demographics.csv", "labels.csv")


class TestCohortFuzz:
    # one changed byte in any cohort file: every subcommand that reads the
    # cohort exits 0 or fails with the JSON error of a documented error
    # class, never with a traceback, and a failure leaves no --out-dir
    ERRORS = {cls.__name__ for cls in (SpiroError, *SpiroError.__subclasses__(), FileNotFoundError)}
    # csv syntax, parts of float literals, NUL and a byte that is not UTF-8
    SYNTAX = list(b',"\r\n-.e0inf_ \x00\x80')

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(name=st.sampled_from(COHORT_FILES), data=st.data())
    def test_one_changed_byte_exits_0_or_fails_cleanly(self, pipeline, capsys, name, data):
        _, cohort, models = pipeline
        original = (cohort / name).read_bytes()
        offset = data.draw(st.integers(0, len(original) - 1), label="offset")
        changed = st.sampled_from(self.SYNTAX) | st.integers(0, 255)
        byte = data.draw(changed.filter(lambda b: b != original[offset]), label="byte")
        with tempfile.TemporaryDirectory() as tmp:
            broken = shutil.copytree(cohort, Path(tmp) / "cohort")
            (broken / name).write_bytes(original[:offset] + bytes([byte]) + original[offset + 1 :])
            reads = ("--cohort", str(broken))
            loads = (*reads, "--models", str(models))
            stages = [
                ("smooth", reads),
                ("featurize", reads),
                ("train-detect", (*reads, "--epochs", "1")),
                ("train-horizon", loads),
                ("evaluate", loads),
                ("explain", (*loads, "--svg")),
                ("predict", loads),
            ]
            capsys.readouterr()
            for command, args in stages:
                out = Path(tmp) / command
                code = _run(command, "--out-dir", str(out), *args)
                if code == 0:
                    assert "Traceback" not in capsys.readouterr().err, command
                else:
                    payload = _clean_failure(capsys, code, out)
                    assert payload["error"] in self.ERRORS, (command, payload)


class TestManifests:
    def test_config_is_every_parsed_flag_but_the_paths(self, pipeline, tmp_path):
        # each stage's manifest records all it parsed, so two runs that differ
        # in any flag differ in their manifests; the model stages add the
        # smoother of the checkpoint they loaded
        from spiroflow.cli import build_parser

        _, cohort, _ = pipeline
        models = tmp_path / "models"
        reads = ("--cohort", str(cohort))
        loads = (*reads, "--models", str(models))
        detect = ("--window", "3", "--sigma", "1.5", "--epochs", "1", "--lr", "0.1", "--batch-size", "9")
        detect += ("--k", "16", "--hidden", "8", "--channels", "4", "--seed", "2")
        stages = [
            ("synth", tmp_path / "cohort", ("--n", "24", "--noise", "0.2", "--seed", "3")),
            ("smooth", tmp_path / "smooth", (*reads, "--window", "4", "--sigma", "1.5")),
            ("featurize", tmp_path / "featurize", (*reads, "--window", "2", "--sigma", "2.5")),
            ("train-detect", models, (*reads, *detect)),
            ("train-horizon", models, loads),
            ("evaluate", tmp_path / "evaluate", (*loads, "--subgroup", "sex", "--threshold", "0.4")),
            ("explain", tmp_path / "explain", (*loads, "--id", "NON_COPD_0000", "--svg")),
            ("predict", tmp_path / "predict", (*loads, "--threshold", "0.9")),
        ]
        for command, out, flags in stages:
            argv = [command, "--out-dir", str(out), *flags]
            assert _run(*argv) == 0, command
            parsed = vars(build_parser().parse_args(argv))
            expected = {k: v for k, v in parsed.items() if k not in ("func", "command", "out_dir", "cohort", "models")}
            if "--models" in flags:
                expected.update(window=3, sigma=1.5)
            manifest = json.loads((out / f"manifest_{command.replace('-', '_')}.json").read_text())
            assert manifest["command"] == command
            assert manifest["config"] == expected, command
        # train-horizon parses no flag of its own: its fit has no settings
        horizon = json.loads((models / "manifest_train_horizon.json").read_text())
        assert horizon["config"] == {"window": 3, "sigma": 1.5}

    def test_input_digests_are_the_sha256_of_each_file_read(self, tmp_path):
        # keyed by file name, so two runs in other directories write the same bytes
        cohort_files = ("curves.csv", "demographics.csv", "labels.csv")
        model_files = ("detect_model.json", "fusion_model.json")
        read = {
            "synth": (),
            "smooth": ("curves.csv",),
            "featurize": cohort_files,
            "train-detect": cohort_files,
            "train-horizon": cohort_files + model_files,
            "evaluate": cohort_files + model_files,
            "explain": cohort_files + model_files,
            "predict": cohort_files + model_files + ("horizon_model.json",),
        }
        manifests = []
        for root in (tmp_path / "a", tmp_path / "b"):
            cohort, models = root / "cohort", root / "models"
            reads, loads = ("--cohort", str(cohort)), ("--cohort", str(cohort), "--models", str(models))
            stages = [
                ("synth", cohort, ("--n", "36", "--seed", "1")),
                ("smooth", root / "smooth", reads),
                ("featurize", root / "featurize", reads),
                ("train-detect", models, (*reads, "--epochs", "1")),
                ("train-horizon", models, loads),
                ("evaluate", root / "evaluate", loads),
                ("explain", root / "explain", (*loads, "--id", "NON_COPD_0000")),
                ("predict", root / "predict", loads),
            ]
            texts = {}
            for command, out, flags in stages:
                assert _run(command, "--out-dir", str(out), *flags) == 0, command
                text = (out / f"manifest_{command.replace('-', '_')}.json").read_text()
                directory = {name: (models if name.endswith(".json") else cohort) for name in read[command]}
                expected = {name: hashlib.sha256((d / name).read_bytes()).hexdigest() for name, d in directory.items()}
                assert json.loads(text)["input_sha256"] == expected, command
                texts[command] = text
            manifests.append(texts)
        assert manifests[0] == manifests[1]

    def test_flag_defaults_are_the_dataclass_defaults(self):
        # one owner per default: a flag left out configures what the library's
        # own default would
        from spiroflow.cli import build_parser
        from spiroflow.curves import SmootherConfig
        from spiroflow.data import CohortSpec
        from spiroflow.detection import DetectionConfig
        from spiroflow.training import TrainConfig

        parse = build_parser().parse_args
        detect = vars(parse(["train-detect", "--out-dir", "o", "--cohort", "c"]))
        train, config, smoother = TrainConfig(), DetectionConfig(), SmootherConfig()
        assert (detect["epochs"], detect["lr"], detect["batch_size"]) == (train.epochs, train.lr, train.batch_size)
        assert (detect["k"], detect["hidden"], detect["channels"]) == (config.patch_len, config.hidden, config.channels)
        assert (detect["window"], detect["sigma"]) == (smoother.k, smoother.sigma)
        assert parse(["synth", "--out-dir", "o"]).noise == CohortSpec(n_per_class=1).noise


class TestBlasThreads:
    @staticmethod
    def _cli(threads, *argv):
        src = str(Path(spiroflow.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        subprocess.run(
            [sys.executable, "-m", "spiroflow.cli", *argv],
            env=env, check=True, capture_output=True, timeout=300,
        )

    def test_checkpoint_identical_at_one_and_two_threads(self, pipeline, tmp_path):
        _, cohort, _ = pipeline
        digests = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads_{threads}"
            self._cli(threads, "train-detect", "--out-dir", str(out), "--cohort", str(cohort), "--epochs", "2", "--seed", "1")
            digests.append(_tree_digest(out))
        assert set(CACHE_FILES) <= set(digests[0])
        assert digests[0] == digests[1]

    def test_explain_and_predict_identical_at_one_and_two_threads(self, pipeline, tmp_path):
        # without train-detect's cache, so that explain, predict and
        # train-horizon run the detector at each thread count
        _, cohort, models = pipeline
        args = ("--cohort", str(cohort), "--models", str(_without_cache(models, tmp_path / "models")))
        digests = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads_{threads}"
            self._cli(threads, "explain", "--out-dir", str(out / "explain"), "--svg", *args)
            self._cli(threads, "predict", "--out-dir", str(out / "predict"), *args)
            self._cli(threads, "train-horizon", "--out-dir", str(out / "horizon"), *args)
            digests.append([_tree_digest(out / stage) for stage in ("explain", "predict", "horizon")])
        assert len(digests[0][0]) == 2 * 36 + 1  # JSON and SVG overlays plus the manifest
        assert "horizon_model.json" in digests[0][2]
        assert digests[0] == digests[1]


class TestModelLoadingImports:
    # run cli.main in a fresh interpreter, then report its exit code, whether
    # numpy.random and numpy.ma were imported on the way, whether OpenSSL's
    # libcrypto is mapped into the process and whether _hashlib was imported
    # as a module
    PROBE = (
        "import json, sys, types\n"
        "from pathlib import Path\n"
        "from spiroflow.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "maps = Path('/proc/self/maps')\n"
        "libcrypto = maps.exists() and 'libcrypto' in maps.read_text()\n"
        "hashlib_module = isinstance(sys.modules.get('_hashlib'), types.ModuleType)\n"
        "print(json.dumps({'code': code, 'numpy.random': 'numpy.random' in sys.modules,\n"
        "                  'numpy.ma': 'numpy.ma' in sys.modules,\n"
        "                  'libcrypto': libcrypto, '_hashlib': hashlib_module}))\n"
    )

    def _probe(self, *argv):
        src = str(Path(spiroflow.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", self.PROBE, *argv], env=env, check=True, capture_output=True, text=True, timeout=300
        )
        return json.loads(done.stdout.splitlines()[-1])

    def test_model_loading_stages_never_import_numpy_random(self, pipeline, tmp_path):
        # a checkpoint's detector is built from its arrays, so a stage that
        # only loads models draws no random numbers
        _, cohort, models = pipeline
        args = ("--cohort", str(cohort), "--models", str(models))
        for command, extra in (("train-horizon", ()), ("evaluate", ()), ("explain", ("--svg",)), ("predict", ())):
            seen = self._probe(command, "--out-dir", str(tmp_path / command), *args, *extra)
            assert (seen["code"], seen["numpy.random"]) == (0, False), command

    def test_train_detect_imports_numpy_random(self, pipeline, tmp_path):
        # the probe sees the import where it happens: training draws the
        # initial parameters, the split and the batch order
        _, cohort, _ = pipeline
        seen = self._probe("train-detect", "--out-dir", str(tmp_path), "--cohort", str(cohort), "--epochs", "1")
        assert (seen["code"], seen["numpy.random"]) == (0, True)

    @pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="reads the process's memory maps")
    def test_no_stage_loads_openssl(self, tmp_path):
        # numpy.random's bit_generator imports secrets -> hmac -> hashlib ->
        # _hashlib, which maps libcrypto; main() keeps _hashlib out, so hmac
        # and hashlib use CPython's built-ins in every stage, training ones too;
        # nor does any stage import numpy.ma, which np.unique imports on its
        # first call, so the two fits take their sorted classes from a set
        cohort, models = str(tmp_path / "cohort"), str(tmp_path / "models")
        loads = ("--cohort", cohort, "--models", models)
        stages = [
            ("synth", ("--out-dir", cohort, "--n", "36", "--seed", "2")),
            ("featurize", ("--out-dir", str(tmp_path / "features"), "--cohort", cohort)),
            ("train-detect", ("--out-dir", models, "--cohort", cohort, "--epochs", "1")),
            ("train-horizon", ("--out-dir", models, *loads)),
            ("evaluate", ("--out-dir", str(tmp_path / "evaluate"), *loads)),
            ("explain", ("--out-dir", str(tmp_path / "explain"), "--svg", *loads)),
            ("predict", ("--out-dir", str(tmp_path / "predict"), *loads)),
        ]
        loaded = []
        for command, args in stages:
            seen = self._probe(command, *args)
            assert seen["code"] == 0, command
            loaded += [(command, key) for key in ("libcrypto", "_hashlib", "numpy.ma") if seen[key]]
        assert loaded == []


class TestErrors:
    def test_missing_cohort_is_clean_failure(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = _run("featurize", "--out-dir", str(out), "--cohort", str(tmp_path / "nope"))
        assert code != 0

    def test_unknown_command_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            _run("frobnicate", "--out-dir", "x")
        assert exc.value.code == 2
        # so is a float flag that is nan or infinite, as a word already was,
        # and a seed that is negative, which numpy's generators reject
        out = tmp_path / "out"
        inputs = ["--out-dir", str(out), "--cohort", "c", "--models", "m"]
        cases = [("synth", "--noise", inputs[:2]), ("featurize", "--sigma", inputs[:4])]
        cases += [("train-detect", "--lr", inputs[:4]), ("train-detect", "--sigma", inputs[:4])]
        cases += [("evaluate", "--threshold", inputs)]
        cases += [("predict", "--threshold", inputs)]
        cases += [("synth", "--seed", inputs[:2]), ("train-detect", "--seed", inputs[:4])]
        # and a cohort size below 1
        cases += [("synth", "--n", inputs[:2])]
        integer = {"--seed": ["-1"], "--n": ["0", "-1"]}
        for command, flag, required in cases:
            for value in ("nan", "inf", "-inf", "abc", *integer.get(flag, [])):
                with pytest.raises(SystemExit) as exc:
                    _run(command, *required, f"{flag}={value}")
                assert exc.value.code == 2, (command, flag, value)
                assert f"argument {flag}" in capsys.readouterr().err, (command, flag, value)
                assert not out.exists(), (command, flag, value)

    def test_sigma_without_a_finite_float_square_is_clean_failure(self, pipeline, tmp_path, capsys):
        # finite flags whose square underflows to 0 or overflows, which
        # the kernel's 2 sigma**2 divisor once met with a traceback
        _, cohort, _ = pipeline
        for command in ("smooth", "featurize", "train-detect"):
            for sigma in ("1e-170", "1e200"):
                out = tmp_path / f"{command}_{sigma}"
                assert _run(command, "--out-dir", str(out), "--cohort", str(cohort), f"--sigma={sigma}") == 1
                payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
                assert payload["error"] == "InvalidArgument", (command, sigma)
                assert "sigma" in payload["message"], (command, sigma)
                assert not out.exists(), (command, sigma)

    def test_every_cohort_subcommand_reports_a_broken_join(self, pipeline, tmp_path, capsys):
        # all six subcommands that read a cohort go through the same checks
        _, cohort, models = pipeline
        broken = tmp_path / "broken"
        broken.mkdir()
        for name in ("curves.csv", "demographics.csv"):
            (broken / name).write_bytes((cohort / name).read_bytes())
        lines = (cohort / "labels.csv").read_text().splitlines(keepends=True)
        (broken / "labels.csv").write_text("".join(lines[:2] + lines[3:]))
        for command in ("featurize", "train-detect", "train-horizon", "evaluate", "explain", "predict"):
            extra = [] if command in ("featurize", "train-detect") else ["--models", str(models)]
            code = _run(command, "--out-dir", str(tmp_path / command), "--cohort", str(broken), *extra)
            assert code == 1, command
            payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert payload["error"] == "ValidationError", command
            assert "labels.csv" in payload["message"], command

    def test_spiro_error_exit_1(self, tmp_path, capsys):
        # malformed hand-written cohorts end in the JSON error, not a traceback;
        # each case: (curves.csv, demographics.csv, labels.csv, error, parts of its message)
        curves = "a,0,100,200\n"
        demographics = "id,sex,age,smoking\na,male,60,never\n"
        labels = "id,copd,horizon\na,0,NON_COPD\n"
        cases = {
            "negative-volume": ("a,0,-100,200\n", demographics, labels, "ValidationError", ["curves.csv row 1", "'a'"]),
            "nan-volume": ("a,0,nan,200\n", demographics, labels, "InvalidCurve", ["curves.csv row 1", "'a'"]),
            "inf-volume": ("a,0,100,inf\n", demographics, labels, "InvalidCurve", ["curves.csv row 1", "'a'"]),
            "non-numeric-volume": ("a,0,lots,200\n", demographics, labels, "ParseError", ["curves.csv row 1", "'a'"]),
            # the byte 0x80, which is not UTF-8 text
            "undecodable-byte": ("a,0,1\udc8000,200\n", demographics, labels, "ParseError", ["curves.csv"]),
            "short-row": ("a,0\n", demographics, labels, "ParseError", ["curves.csv row 1", "'a'"]),
            "id-missing-from-demographics": (
                curves, demographics.replace("a,", "b,"), labels, "ValidationError", ["demographics.csv", "'a'"]
            ),
            "id-missing-from-labels": (
                curves, demographics, labels.replace("a,", "b,"), "ValidationError", ["labels.csv", "'a'"]
            ),
            "non-numeric-age": (
                curves, demographics.replace("60", "sixty"), labels, "ParseError", ["demographics.csv row 2", "'a'"]
            ),
            "infinite-age": (
                curves, demographics.replace("60", "inf"), labels, "ParseError", ["demographics.csv row 2", "'a'"]
            ),
            "no-id-column": (
                curves, demographics.replace("id,", "name,"), labels, "ParseError", ["demographics.csv row 2", "'id'"]
            ),
            "old-ratio-column": (
                curves,
                "id,sex,age,smoking,fev1_fvc_ratio\na,male,60,never,0.7\n",
                labels,
                "ParseError",
                ["demographics.csv row 2", "fev1_fvc_ratio"],
            ),
            "demographics-row-longer-than-header": (
                curves,
                demographics.replace("never", "current,0.7,junk"),
                labels,
                "ParseError",
                ["demographics.csv row 2", "'a'", "2 more cells"],
            ),
            "labels-row-longer-than-header": (
                curves, demographics, labels.replace("NON_COPD", "NON_COPD,1"), "ParseError", ["labels.csv row 2", "'a'"]
            ),
            "unknown-horizon": (
                curves, demographics, labels.replace("NON_COPD", "SOON"), "ParseError", ["labels.csv row 2", "'a'"]
            ),
            "non-integer-copd": (
                curves, demographics, labels.replace("a,0", "a,0.5"), "ParseError", ["labels.csv row 2", "'a'"]
            ),
            "copd-not-binary": (
                curves, demographics, labels.replace("a,0", "a,2"), "ParseError", ["labels.csv row 2", "'a'"]
            ),
        }
        for case, (curves_csv, demographics_csv, labels_csv, error, named) in cases.items():
            cohort = tmp_path / case
            cohort.mkdir()
            for name, text in (("curves.csv", curves_csv), ("demographics.csv", demographics_csv), ("labels.csv", labels_csv)):
                (cohort / name).write_bytes(text.encode(errors="surrogateescape"))
            code = _run("featurize", "--out-dir", str(tmp_path / "out"), "--cohort", str(cohort))
            assert code == 1, case
            payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert payload["error"] == error, case
            assert all(part in payload["message"] for part in named), (case, payload["message"])

    def test_tiny_cohorts_are_clean_failures(self, pipeline, tmp_path, capsys):
        # a curves.csv without rows fails every cohort stage as it loads; a
        # detector train split with one class or none fails before training
        _, cohort, models = pipeline
        blows = (cohort / "curves.csv").read_text().splitlines(keepends=True)
        cases = {
            "no-rows": ("", "ParseError", ["curves.csv", "no blow rows"]),
            "one-record": (blows[0], "DegenerateLabels", ["0 labels hold []"]),
            "one-class": (
                "".join(b for b in blows if b.startswith("NON_COPD")), "DegenerateLabels", ["labels hold [0]"]
            ),
        }
        for case, (curves_csv, error, named) in cases.items():
            tiny = tmp_path / case
            tiny.mkdir()
            (tiny / "curves.csv").write_text(curves_csv)
            for f in ("demographics.csv", "labels.csv"):
                (tiny / f).write_bytes((cohort / f).read_bytes())
            cohort_only = ["smooth", "featurize", "train-detect"]
            model_stages = ["train-horizon", "evaluate", "explain", "predict"]
            for command in cohort_only + model_stages if case == "no-rows" else ["train-detect"]:
                extra = ["--models", str(models)] if command in model_stages else []
                out = tmp_path / f"{case}_{command}"
                code = _run(command, "--out-dir", str(out), "--cohort", str(tiny), *extra)
                assert code == 1, (case, command)
                payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
                assert payload["error"] == error, (case, command)
                assert all(part in payload["message"] for part in named), (case, command, payload["message"])
                assert not out.exists(), (case, command)

    def test_a_row_is_numbered_by_its_line_in_every_cohort_file(self, tmp_path, capsys):
        # after a quoted two-line id the next record is on line 4 of each
        # file: curves.csv starts with a blank line where the other two have
        # their header
        curves = '\n"two\nlines",0,100,200\nb,0,150,300\n'
        demographics = 'id,sex,age,smoking\n"two\nlines",male,60,never\nb,female,50,current\n'
        labels = 'id,copd,horizon\n"two\nlines",0,NON_COPD\nb,1,WITHIN_1Y\n'
        cases = {
            "curves.csv": (curves.replace("150", "lots"), demographics, labels),
            "demographics.csv": (curves, demographics.replace("50", "fifty"), labels),
            "labels.csv": (curves, demographics, labels.replace("WITHIN_1Y", "SOON")),
        }
        for case, texts in cases.items():
            cohort = tmp_path / case
            cohort.mkdir()
            for name, text in zip(("curves.csv", "demographics.csv", "labels.csv"), texts):
                (cohort / name).write_text(text)
            out = tmp_path / "out"
            payload = _clean_failure(capsys, _run("featurize", "--out-dir", str(out), "--cohort", str(cohort)), out)
            assert payload["error"] == "ParseError", case
            assert f"{case} row 4 (id 'b')" in payload["message"], (case, payload["message"])

    def test_duplicate_ids_are_rejected(self, tmp_path, capsys):
        # a repeated id in any cohort file is an error, not a silent last-row-wins
        curves = "a,0,100,200\nb,0,150,300\n"
        demographics = "id,sex,age,smoking\na,male,60,never\nb,female,50,current\n"
        labels = "id,copd,horizon\na,0,NON_COPD\nb,1,WITHIN_1Y\n"
        cases = {
            "curves.csv": (curves + "a,0,120,240\n", demographics, labels, "curves.csv row 3"),
            "demographics.csv": (curves, demographics + "b,male,70,former\n", labels, "demographics.csv row 4"),
            "labels.csv": (curves, demographics, labels + "a,1,WITHIN_1Y\n", "labels.csv row 4"),
        }
        for case, (curves_csv, demographics_csv, labels_csv, where) in cases.items():
            cohort = tmp_path / case
            cohort.mkdir()
            for name, text in (("curves.csv", curves_csv), ("demographics.csv", demographics_csv), ("labels.csv", labels_csv)):
                (cohort / name).write_bytes(text.encode(errors="surrogateescape"))
            code = _run("featurize", "--out-dir", str(tmp_path / "out"), "--cohort", str(cohort))
            assert code == 1, case
            payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert payload["error"] == "ValidationError", case
            assert where in payload["message"] and "duplicate" in payload["message"], (case, payload["message"])

    def test_non_finite_detector_weights_are_rejected(self, pipeline, tmp_path, capsys):
        _, cohort, models = pipeline
        # the checkpoint loader is the one check on detector arrays, so one
        # array per parameter group: conv, Bi-LSTM, attention and head
        for name in ("conv_w1", "lstm_bw_u", "attn_w2", "head_w"):
            broken = tmp_path / name
            broken.mkdir()
            for f in ("fusion_model.json", "horizon_model.json"):
                (broken / f).write_bytes((models / f).read_bytes())
            blob = json.loads((models / "detect_model.json").read_text())
            first = blob["arrays"][name]
            while isinstance(first[0], list):
                first = first[0]
            first[0] = float("nan")
            (broken / "detect_model.json").write_text(json.dumps(blob))
            for command, extra in (("evaluate", []), ("explain", ["--id", "NON_COPD_0000"]), ("predict", [])):
                out = tmp_path / f"{name}_{command}"
                code = _run(command, "--out-dir", str(out), "--cohort", str(cohort), "--models", str(broken), *extra)
                assert code == 1, (name, command)
                payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
                assert payload["error"] == "InvalidParams", (name, command)
                assert name in payload["message"], (name, command)
                assert not out.exists(), (name, command)
        # a detector fit that diverges is blamed on its learning rate, before
        # fusion runs or any file is written: on 36 records the first step
        # leaves finite parameters whose loss is not, so the pass after a
        # one-epoch fit fails, and a longer fit fails on epoch 2's first
        # batch loss; on 600 records the second batch's loss fails
        big = tmp_path / "cohort_600"
        assert _run("synth", "--out-dir", str(big), "--n", "600", "--seed", "7") == 0
        capsys.readouterr()
        cases = [
            (cohort, "1", "the loss after epoch 1 is not finite"),
            (cohort, "40", "a batch loss in epoch 2 is not finite"),
            (big, "40", "a batch loss in epoch 1 is not finite"),
        ]
        for records, epochs, where in cases:
            out = tmp_path / f"diverged_{records.name}_{epochs}"
            with np.errstate(over="ignore", invalid="ignore"):
                code = _run(
                    "train-detect", "--out-dir", str(out), "--cohort", str(records), "--epochs", epochs, "--lr=1e308"
                )
            assert code == 1
            payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert payload["error"] == "InvalidLoss", payload
            assert f"training diverged at learning rate 1e+308: {where}" in payload["message"]
            assert not out.exists()

    @pytest.mark.parametrize(
        "name, cases",
        [
            (
                "detect_model.json",
                {
                    "truncated": (_truncate, "ParseError", ["not valid JSON"]),
                    "no-config": (_json_edit(lambda b: b.pop("config")), "ParseError", ["'config'"]),
                    "no-smoother": (_json_edit(lambda b: b.pop("smoother")), "ParseError", ["'smoother'"]),
                    "no-sigma": (_json_edit(lambda b: b["smoother"].pop("sigma")), "ParseError", ["'sigma'"]),
                    "negative-window": (
                        _json_edit(lambda b: b["smoother"].update(window=-1)), "InvalidArgument", ["window"]
                    ),
                    "string-window": (
                        _json_edit(lambda b: b["smoother"].update(window="5")), "InvalidArgument", ["window"]
                    ),
                    "fractional-window": (
                        _json_edit(lambda b: b["smoother"].update(window=2.5)), "InvalidArgument", ["window"]
                    ),
                    "string-sigma": (
                        _json_edit(lambda b: b["smoother"].update(sigma="2")), "InvalidArgument", ["sigma"]
                    ),
                    # a square that underflows to 0, and an integer too large for a float
                    "tiny-sigma": (
                        _json_edit(lambda b: b["smoother"].update(sigma=1e-170)),
                        "InvalidArgument",
                        ["detect_model.json", "sigma"],
                    ),
                    "huge-integer-sigma": (
                        _json_edit(lambda b: b["smoother"].update(sigma=10**400)),
                        "InvalidArgument",
                        ["detect_model.json", "sigma"],
                    ),
                    "no-test-ids": (_json_edit(lambda b: b.pop("test_ids")), "ParseError", ["'test_ids'"]),
                    "test-ids-not-a-list": (
                        _json_edit(lambda b: b.update(test_ids=7)), "ParseError", ["'test_ids'"]
                    ),
                    "config-not-an-object": (_json_edit(lambda b: b.update(config=[])), "ParseError", ["'config'"]),
                    "string-hidden": (
                        _json_edit(lambda b: b["config"].update(hidden="32")), "InvalidArgument", ["hidden"]
                    ),
                    "zero-patch-len": (
                        _json_edit(lambda b: b["config"].update(patch_len=0)), "InvalidArgument", ["patch_len"]
                    ),
                    "arrays-a-list": (_json_edit(lambda b: b.update(arrays=[])), "ParseError", ["'arrays'"]),
                    "no-head-w": (_json_edit(lambda b: b["arrays"].pop("head_w")), "ParseError", ["'head_w'"]),
                    "misshapen-head-b": (
                        _json_edit(lambda b: b["arrays"].update(head_b=[0.0, 0.0, 0.0])),
                        "InvalidParams",
                        ["detect_model.json", "'head_b'"],
                    ),
                },
            ),
            (
                "fusion_model.json",
                {
                    "truncated": (_truncate, "ParseError", ["not valid JSON"]),
                    "huge-integer": (
                        lambda text: text.replace("{", '{"extra": 1' + "0" * 5000 + ", ", 1),
                        "ParseError",
                        ["not valid JSON"],
                    ),
                    "no-features": (_json_edit(lambda b: b.pop("features")), "ParseError", ["'features'"]),
                    "reordered-features": (
                        _json_edit(lambda b: b["features"].reverse()),
                        "InvalidParams",
                        ["fusion_model.json", "'features'"],
                    ),
                    "width-3-weights": (
                        _json_edit(lambda b: b["model"].update(weights=[[0.0] * 3, [0.0] * 3])),
                        "InvalidParams",
                        ["fusion_model.json", "'weights'"],
                    ),
                    "letter-classes": (
                        _json_edit(lambda b: b["model"].update(classes=["x", "y"])),
                        "InvalidParams",
                        ["fusion_model.json", "'classes'"],
                    ),
                    "swapped-classes": (
                        _json_edit(lambda b: b["model"].update(classes=[1, 0])),
                        "InvalidParams",
                        ["fusion_model.json", "'classes'"],
                    ),
                    "nan-weight": (
                        _json_edit(lambda b: b["model"]["weights"][1].__setitem__(0, float("nan"))),
                        "InvalidParams",
                        ["fusion_model.json", "'weights'"],
                    ),
                    "no-mean": (_json_edit(lambda b: b["model"].pop("mean")), "ParseError", ["'mean'"]),
                    "no-scale": (_json_edit(lambda b: b["model"].pop("scale")), "ParseError", ["'scale'"]),
                    "zero-scale": (
                        _json_edit(lambda b: b["model"]["scale"].__setitem__(0, 0.0)),
                        "InvalidParams",
                        ["fusion_model.json", "'scale'", "not positive"],
                    ),
                },
            ),
            (
                "horizon_model.json",
                {
                    "truncated": (_truncate, "ParseError", ["not valid JSON"]),
                    "not-an-object": (lambda text: "[]", "ParseError", ["not a JSON object"]),
                    "no-model": (_json_edit(lambda b: b.pop("model")), "ParseError", ["'model'"]),
                    "no-features": (_json_edit(lambda b: b.pop("features")), "ParseError", ["'features'"]),
                    "reordered-features": (
                        _json_edit(lambda b: b["features"].reverse()),
                        "InvalidParams",
                        ["horizon_model.json", "'features'"],
                    ),
                    # as versions that named the trend column otherwise wrote it
                    "old-trend-name": (
                        _json_edit(lambda b: b["features"].__setitem__(5, "concavity_trend")),
                        "InvalidParams",
                        ["horizon_model.json", "'features'"],
                    ),
                    "width-3-weights": (
                        _json_edit(lambda b: b["model"].update(weights=[[0.0] * 3] * 6)),
                        "InvalidParams",
                        ["horizon_model.json", "'weights'"],
                    ),
                    "unknown-class": (
                        _json_edit(lambda b: b["model"].update(classes=["SOON", *b["model"]["classes"][1:]])),
                        "InvalidParams",
                        ["horizon_model.json", "'classes'"],
                    ),
                    "repeated-class": (
                        _json_edit(
                            lambda b: b["model"].update(classes=b["model"]["classes"][:1] + b["model"]["classes"][:-1])
                        ),
                        "InvalidParams",
                        ["horizon_model.json", "'classes'"],
                    ),
                    "infinite-bias": (
                        _json_edit(lambda b: b["model"]["bias"].__setitem__(0, float("inf"))),
                        "InvalidParams",
                        ["horizon_model.json", "'bias'"],
                    ),
                    "no-mean": (_json_edit(lambda b: b["model"].pop("mean")), "ParseError", ["'mean'"]),
                    "no-scale": (_json_edit(lambda b: b["model"].pop("scale")), "ParseError", ["'scale'"]),
                    "zero-scale": (
                        _json_edit(lambda b: b["model"]["scale"].__setitem__(12, 0.0)),
                        "InvalidParams",
                        ["horizon_model.json", "'scale'", "not positive"],
                    ),
                    "short-mean": (
                        _json_edit(lambda b: b["model"]["mean"].pop()),
                        "InvalidParams",
                        ["horizon_model.json", "'mean'"],
                    ),
                },
            ),
        ],
    )
    def test_malformed_model_file_is_clean_failure(self, pipeline, tmp_path, capsys, name, cases):
        # every stage that reads the file ends in the JSON error and leaves no
        # --out-dir behind; a ParseError names the file
        _, cohort, models = pipeline
        commands = ["predict"] if name == "horizon_model.json" else ["train-horizon", "evaluate", "explain", "predict"]
        other_kind = "fusion" if name == "detect_model.json" else "detection"
        cases = {
            **cases,
            "no-format-version": (_json_edit(lambda b: b.pop("format_version")), "ParseError", ["'format_version'"]),
            "format-version-2": (
                _json_edit(lambda b: b.update(format_version=2)), "InvalidParams", [name, "'format_version'"]
            ),
            "wrong-kind": (_json_edit(lambda b: b.update(kind=other_kind)), "InvalidParams", [name, "'kind'"]),
        }
        for case, (edit, error, named) in cases.items():
            broken = tmp_path / case
            broken.mkdir()
            for f in ("detect_model.json", "fusion_model.json", "horizon_model.json"):
                (broken / f).write_bytes((models / f).read_bytes())
            (broken / name).write_text(edit((models / name).read_text()))
            if error == "ParseError":
                named = [name, *named]
            for command in commands:
                out = tmp_path / f"{case}_{command}"
                code = _run(command, "--out-dir", str(out), "--cohort", str(cohort), "--models", str(broken))
                assert code == 1, (case, command)
                payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
                assert payload["error"] == error, (case, command)
                assert all(part in payload["message"] for part in named), (case, command, payload["message"])
                assert not out.exists(), (case, command)

    def test_curve_error_names_its_record(self, tmp_path, capsys):
        # the batched pass knows the failing row; the error names its id
        rise = ",".join(str(50 * i) for i in range(40))
        drop = ",".join(str(v) for v in [50 * i for i in range(20)] + [10 * i for i in range(20)])
        cohort = tmp_path / "cohort"
        cohort.mkdir()
        (cohort / "curves.csv").write_text(f"a,{rise}\nb,{drop}\nc,{rise}\n")
        (cohort / "demographics.csv").write_text(
            "id,sex,age,smoking\n" + "".join(f"{i},male,60,never\n" for i in "abc")
        )
        (cohort / "labels.csv").write_text("id,copd,horizon\n" + "".join(f"{i},0,NON_COPD\n" for i in "abc"))
        assert _run("featurize", "--out-dir", str(tmp_path / "out"), "--cohort", str(cohort)) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "NonMonotonicVolume"
        assert "'b'" in payload["message"]
        assert "'a'" not in payload["message"] and "'c'" not in payload["message"]

    def test_concavity_error_names_its_record(self, pipeline, tmp_path, capsys):
        # a blow whose peak flow comes after 25% of FVC has no PEF-FEF25
        # phase; every stage that measures concavity names the record
        _, cohort, models = pipeline
        t = np.arange(0.0, 3.0, 0.01)
        flow = np.where(t < 0.8, 0.5 + 5.5 * t / 0.8, 6.0 * np.exp(-(t - 0.8) / 0.3))
        ml = np.concatenate([[0.0], np.cumsum(flow * 10.0)])
        late = tmp_path / "late"
        late.mkdir()
        rows = {
            "curves.csv": "late_peak," + ",".join(repr(v) for v in ml.tolist()) + "\n",
            "demographics.csv": "late_peak,male,60,never\n",
            "labels.csv": "late_peak,0,NON_COPD\n",
        }
        for name, row in rows.items():
            (late / name).write_text((cohort / name).read_text() + row)
        stages = [
            ("featurize", []),
            ("train-horizon", ["--models", str(models)]),
            ("predict", ["--models", str(models), "--threshold", "1.0"]),
        ]
        for command, extra in stages:
            code = _run(command, "--out-dir", str(tmp_path / command), "--cohort", str(late), *extra)
            assert code == 1, command
            payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert payload["error"] == "EmptyPhase", command
            assert payload["message"].startswith("curves.csv id 'late_peak': "), (command, payload["message"])

import json
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spiroflow
from spiroflow.attention import FUSION_FEATURE_NAMES
from spiroflow.cli import main
from spiroflow.metrics import auroc


def _run(*argv):
    return main(list(argv))


def _tree_digest(directory: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


def _truncate(text):
    return text[: len(text) // 2]


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

        ids, curves, demos, copd, _ = _load_cohort(cohort)
        (model, _, test_ids), smoother = _load_models(models)
        _, series = _preprocess(curves, smoother)
        sel = [i for i, blow_id in enumerate(ids) if blow_id in set(test_ids)]
        p_hat = model.predict_proba([series[i] for i in sel])
        assert report["detection"]["auroc"] == pytest.approx(auroc(p_hat, copd[sel]), abs=1e-12)

    def test_evaluate_preprocesses_only_the_test_split(self, pipeline, tmp_path, monkeypatch):
        import spiroflow.cli
        from spiroflow.cli import _load_cohort

        _, cohort, models = pipeline
        smoothed = []
        smooth = spiroflow.cli.gaussian_smooth

        def counting_smooth(curves, cfg):
            smoothed.append(list(curves))
            return smooth(curves, cfg)

        monkeypatch.setattr(spiroflow.cli, "gaussian_smooth", counting_smooth)
        assert _run("evaluate", "--out-dir", str(tmp_path / "eval"), "--cohort", str(cohort), "--models", str(models)) == 0
        test_ids = json.loads((models / "detect_model.json").read_text())["test_ids"]
        ids, curves, _, _, _ = _load_cohort(cohort)
        by_id = dict(zip(ids, curves))
        assert 0 < len(test_ids) < len(ids)
        assert len(smoothed) == 1
        assert len(smoothed[0]) == len(test_ids)
        assert all(np.array_equal(c.samples, by_id[i].samples) for c, i in zip(smoothed[0], test_ids))

    def test_train_detect_fits_fusion_on_its_last_loss_pass(self, pipeline, tmp_path, monkeypatch):
        # one forward-only pass over the train split, after the last epoch, and no other inference pass
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
        n_train = json.loads((out / "manifest_train_detect.json").read_text())["counts"]["train"]
        assert predicts == []
        assert passes == [n_train]

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
        ids = _load_cohort(cohort)[0]
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

    def test_overlays_equal_predictions_bit_for_bit(self, pipeline, tmp_path):
        # explain and predict score the cohort in the same batch
        _, cohort, models = pipeline
        args = ("--cohort", str(cohort), "--models", str(models))
        assert _run("explain", "--out-dir", str(tmp_path / "explain"), *args) == 0
        assert _run("predict", "--out-dir", str(tmp_path / "pred"), *args) == 0
        lines = [json.loads(l) for l in (tmp_path / "pred" / "predictions.jsonl").read_text().splitlines()]
        assert len(lines) == 36
        for rec in lines:
            overlay = json.loads((tmp_path / "explain" / f"overlay_{rec['id']}.json").read_text())
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
        args = ("--cohort", str(cohort), "--models", str(models), "--id", "NON_COPD_0000")
        assert _run("explain", "--out-dir", str(tmp_path / "explain"), *args) == 0
        # one batched call, holding exactly the one curve
        assert len(smoothed) == 1
        assert len(smoothed[0]) == 1

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

        ids, curves, _, _, _ = _load_cohort(cohort)
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

        def recording_rows(risks, profiles, struct):
            blocks.append(rows(risks, profiles, struct))
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

        ids, curves, demos, _, _ = _load_cohort(cohort)
        _, smoother = _load_models(models)
        vf_curves, _ = _preprocess(curves, smoother)
        for i in negative:
            profile = concavity_features(vf_curves[i])
            struct = demographic_block([demos[i]], fev1_fvc_ratio([curves[i]]))
            alone = future_feature_vector([lines[i]["fused_risk"]], [profile], struct)
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
        configs = []
        smooth = spiroflow.cli.gaussian_smooth

        def recording_smooth(curves, cfg):
            configs.append(cfg)
            return smooth(curves, cfg)

        monkeypatch.setattr(spiroflow.cli, "gaussian_smooth", recording_smooth)
        for command in self.MODEL_STAGES:
            configs.clear()
            out = models if command == "train-horizon" else tmp_path / command
            assert _run(command, "--out-dir", str(out), "--cohort", str(cohort), "--models", str(models)) == 0
            assert configs == [SmootherConfig(k=3, sigma=1.5)], command
            manifest = json.loads((out / f"manifest_{command.replace('-', '_')}.json").read_text())
            assert (manifest["config"]["window"], manifest["config"]["sigma"]) == (3, 1.5), command

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
        assert digests[0] == digests[1]

    def test_explain_and_predict_identical_at_one_and_two_threads(self, pipeline, tmp_path):
        _, cohort, models = pipeline
        args = ("--cohort", str(cohort), "--models", str(models))
        digests = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads_{threads}"
            self._cli(threads, "explain", "--out-dir", str(out / "explain"), "--svg", *args)
            self._cli(threads, "predict", "--out-dir", str(out / "predict"), *args)
            digests.append((_tree_digest(out / "explain"), _tree_digest(out / "predict")))
        assert len(digests[0][0]) == 2 * 36 + 1  # JSON and SVG overlays plus the manifest
        assert digests[0] == digests[1]


class TestErrors:
    def test_missing_cohort_is_clean_failure(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = _run("featurize", "--out-dir", str(out), "--cohort", str(tmp_path / "nope"))
        assert code != 0

    def test_unknown_command_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            _run("frobnicate", "--out-dir", "x")
        assert exc.value.code == 2
        # so is a float flag that is nan or infinite, as a word already was
        inputs = ["--out-dir", str(tmp_path), "--cohort", "c", "--models", "m"]
        cases = [("synth", "--noise", ["--out-dir", str(tmp_path)]), ("featurize", "--sigma", inputs[:4])]
        cases += [("train-detect", "--lr", inputs[:4]), ("train-detect", "--sigma", inputs[:4])]
        cases += [("evaluate", "--threshold", inputs)]
        cases += [("predict", "--threshold", inputs)]
        for command, flag, required in cases:
            for value in ("nan", "inf", "-inf", "abc"):
                with pytest.raises(SystemExit) as exc:
                    _run(command, *required, f"{flag}={value}")
                assert exc.value.code == 2, (command, flag, value)
                assert f"argument {flag}" in capsys.readouterr().err, (command, flag, value)

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
            "old-ratio-column": (
                curves,
                "id,sex,age,smoking,fev1_fvc_ratio\na,male,60,never,0.7\n",
                labels,
                "ParseError",
                ["demographics.csv row 2", "fev1_fvc_ratio"],
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
            (cohort / "curves.csv").write_text(curves_csv)
            (cohort / "demographics.csv").write_text(demographics_csv)
            (cohort / "labels.csv").write_text(labels_csv)
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
            (cohort / "curves.csv").write_text(curves_csv)
            (cohort / "demographics.csv").write_text(demographics_csv)
            (cohort / "labels.csv").write_text(labels_csv)
            code = _run("featurize", "--out-dir", str(tmp_path / "out"), "--cohort", str(cohort))
            assert code == 1, case
            payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert payload["error"] == "ValidationError", case
            assert where in payload["message"] and "duplicate" in payload["message"], (case, payload["message"])

    def test_non_finite_detector_weights_are_rejected(self, pipeline, tmp_path, capsys):
        _, cohort, models = pipeline
        for name in ("head_w", "conv_w1"):
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

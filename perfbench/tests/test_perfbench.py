"""Tests of the benchmark itself: its oracles, its span arithmetic, a
tiny-size run of every workload, and its agreement with BENCHMARK.json."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import traced_cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_pair_auroc_hand_worked_with_ties():
    # positives {0.9, 0.5}, negatives {0.5, 0.1}:
    # 0.9>0.5, 0.9>0.1, 0.5=0.5 (half), 0.5>0.1  ->  3.5 / 4
    assert checks.pair_auroc([0.9, 0.5, 0.5, 0.1], [1, 1, 0, 0]) == 0.875
    assert checks.pair_auroc([0.3, 0.3, 0.3], [1, 0, 1]) == 0.5
    assert checks.pair_auroc([0.1, 0.2], [1, 0]) == 0.0
    with pytest.raises(ValueError):
        checks.pair_auroc([0.1, 0.2], [1, 1])


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "counts": {}}


def test_self_times_of_nested_spans():
    tree = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
        _span("a", 9.5, 10.0, 0),
    ]
    assert spans.self_times(tree) == [10.0 - 3.0 - 4.0 - 0.5, 2.0, 1.0, 4.0, 0.5]
    assert spans.self_time_by_name(tree) == {"root": 2.5, "a": 2.5, "a.inner": 1.0, "b": 4.0}
    assert sum(spans.self_times(tree)) == spans.root_duration(tree) == 10.0


def test_tracer_records_parents_and_counts():
    tracer = spans.Tracer()
    root = tracer.begin("root")
    child = tracer.begin("child")
    tracer.end(child)
    tracer.count(child, {"n": 3})
    tracer.end(root)
    recorded = tracer.to_json()
    assert [s["parent"] for s in recorded] == [None, 0]
    assert spans.counts_by_name(recorded) == {"n": 3}
    own = spans.self_times(recorded)
    assert abs(sum(own) - spans.root_duration(recorded)) < 1e-12


def test_missing_call_site_is_reported_absent(monkeypatch):
    import spiroflow.cli

    monkeypatch.setattr(traced_cli, "WRAPPED", [("spiroflow.cli", "no_such_function", "x", None),
                                                ("spiroflow.detection", "DetectionModel.no_such_method", "y", None)])
    assert traced_cli.install(spans.Tracer()) == [
        "spiroflow.cli:no_such_function",
        "spiroflow.detection:DetectionModel.no_such_method",
    ]
    assert not hasattr(spiroflow.cli, "no_such_function")


def test_failing_counter_loses_its_counts_not_the_call(monkeypatch):
    import spiroflow.metrics

    monkeypatch.setattr(spiroflow.metrics, "auroc", spiroflow.metrics.auroc)  # restored afterwards
    monkeypatch.setattr(traced_cli, "WRAPPED", [("spiroflow.metrics", "auroc", "metrics.report", lambda args, result: 1 / 0)])
    tracer = spans.Tracer()
    absent = traced_cli.install(tracer)
    assert spiroflow.metrics.auroc([0.2, 0.8], [0, 1]) == 1.0
    assert absent == ["spiroflow.metrics:auroc (counts)"]
    assert [s["name"] for s in tracer.to_json()] == ["metrics.report"]


def test_stage_samples_include_repeated_calls():
    rounds = [
        {"times": {"featurize": 1.0, "predict": 4.0}, "repeats": {"featurize": 2.0}},
        {"times": {"featurize": 3.0, "predict": 6.0}, "repeats": {"featurize": 4.0}},
    ]
    assert run.stage_samples(rounds, "featurize") == [1.0, 2.0, 3.0, 4.0]
    assert run.stage_samples(rounds, "predict") == [4.0, 6.0]


def test_every_span_has_a_metric():
    names = {name for _, _, name, _ in traced_cli.WRAPPED if isinstance(name, str)}
    names |= {"detection.train", "detection.full_pass", "detection.batch_pass", "cli.stage", "cli.import"}
    assert names <= set(run.SPAN_METRIC)


def _bench(*args):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


def _declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_traced_run_of_each_workload(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1",
                  "--records", "60", "--epochs", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["encoder.patches"] > 0 and metrics["detection.forward_calls"] > 0
    assert metrics["horizon.records"] >= 0


def test_tiny_plain_run_prints_every_end_to_end_metric():
    proc = _bench("--workload", "train-k32", "--seed", "3", "--seconds", "1", "--trace", "0",
                  "--records", "60", "--epochs", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "score", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

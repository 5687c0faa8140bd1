"""The benchmark's per-layer trace (perfbench/traced_cli.py) wraps the
package's call sites by module attribute and method name.  A call site that
a refactor renames or removes is only listed as absent, and its metric
reads 0; these tests turn that into a failure.  They read perfbench/ and
change nothing in it."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# call sites the package deleted but WRAPPED still lists, each with the span
# it fed; another call site still records that span, so no metric reads 0.
# The next change to the benchmark drops them from WRAPPED, and these tests
# then fail until the entry here goes too.
GONE = {"spiroflow.cli:top_horizon": "horizon.predict"}

# call sites whose counter no longer fits the call, each with the reason; the
# span is still recorded.  _count_logistic reads the TrainConfig that
# train_logistic took as its third argument, but the Newton fit takes none,
# so training.logistic_steps reads 0 until the next change to the benchmark
# counts Newton iterations instead.
UNCOUNTED = {"spiroflow.cli:train_logistic (counts)": "train_logistic(x, y) has no TrainConfig to count"}


def _env():
    paths = [str(ROOT / "src"), str(PERFBENCH), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p), "OPENBLAS_NUM_THREADS": "1"}


def test_install_finds_every_call_site():
    code = "import json, spans, traced_cli; print(json.dumps(traced_cli.install(spans.Tracer())))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True, check=True, timeout=120
    )
    assert json.loads(proc.stdout) == list(GONE)


def test_traced_stages_take_every_count(tmp_path):
    # counters read the wrapped calls' arguments, so a changed signature shows only when a stage runs
    cohort, models = tmp_path / "cohort", tmp_path / "models"
    common = ["--cohort", str(cohort)]
    stages = [
        ["synth", "--out-dir", str(cohort), "--n", "36", "--seed", "1"],
        ["train-detect", "--out-dir", str(models), *common, "--seed", "1", "--epochs", "1"],
        ["train-horizon", "--out-dir", str(models), *common, "--models", str(models)],
        ["evaluate", "--out-dir", str(tmp_path / "evaluate"), *common, "--models", str(models)],
        ["explain", "--out-dir", str(tmp_path / "explain"), *common, "--models", str(models), "--svg"],
        ["predict", "--out-dir", str(tmp_path / "predict"), *common, "--models", str(models)],
    ]
    for i, stage in enumerate(stages):
        spans_path = tmp_path / f"spans_{i}.json"
        subprocess.run(
            [sys.executable, str(PERFBENCH / "traced_cli.py"), str(spans_path), *stage],
            env=_env(), capture_output=True, check=True, timeout=300,
        )
        recorded = json.loads(spans_path.read_text())
        assert recorded["exit_code"] == 0, stage[0]
        fits = stage[0] in ("train-detect", "train-horizon")
        assert recorded["absent"] == list(GONE) + (list(UNCOUNTED) if fits else []), stage[0]
        if fits:
            assert "training.logistic" in {span["name"] for span in recorded["spans"]}, stage[0]
    # predict, the last stage, still records the span of every deleted call site
    assert set(GONE.values()) <= {span["name"] for span in recorded["spans"]}

"""Closed-loop benchmark of the spiroflow command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It measures the source checkout it sits in (the directory above
perfbench/) and writes only there.  Set-up generates the workload's
synthetic cohort from the seed with `spiroflow synth` (three times; the
median is `setup_s`).  Then one client runs rounds of the user pipeline,
each stage its own process and each waiting for the one before:
featurize -> train-detect -> train-horizon -> evaluate -> explain ->
predict.  The workload's short stages run twice a round, and a fixed
reference job (reference.py) runs before every other stage.  Rounds repeat
while another fits in S seconds; every round attempts the same operations
(one per stage call plus one per record that featurize, explain and
predict write).  Every round's outputs are checked (see checks.py) and
must be byte-identical to the first round's.

With --trace 0 the last stdout line carries the end-to-end metrics: each
stage's mean wall time over the run divided by the reference job's median
wall time (so that the host's drifting speed cancels out), set-up time,
peak RSS and the model quality read from the run's artifacts.  With --trace 1 each round
runs the pipeline twice, plain and under traced_cli.py into a second
directory, and reports per-layer self times and work counts, plus the
tracing overhead (traced minus plain stage time).

BLAS and OpenMP are pinned to BLAS_THREADS threads in every process.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import checks  # noqa: E402
import spans as spanlib  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170.0  # every run ends within 180 s
SETUP_REPEATS = 3
REFERENCE = HERE / "reference.py"
REFERENCE_BEFORE = ("featurize", "train-horizon", "explain")  # the reference job runs before these
THRESHOLD = 0.5


@dataclasses.dataclass(frozen=True)
class Workload:
    records: int  # synth --n
    epochs: int  # train-detect --epochs
    explain_all: bool  # explain every record, else the first one only
    repeated: tuple[str, ...]  # short stages run twice a round, for more samples


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    "train-k32": Workload(records=402, epochs=2, explain_all=False, repeated=("featurize", "evaluate", "explain", "predict")),
    "score": Workload(records=600, epochs=1, explain_all=True, repeated=("featurize", "evaluate", "explain")),
}

STAGES = ("featurize", "train-detect", "train-horizon", "evaluate", "explain", "predict")
OUTPUT_DIRS = ("features", "models", "evaluate", "explain", "predict")
STAGE_OUTPUT = {"featurize": "features", "evaluate": "evaluate", "explain": "explain", "predict": "predict"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "featurize_ref": "ref",
    "train_detect_ref": "ref",
    "train_horizon_ref": "ref",
    "evaluate_ref": "ref",
    "explain_ref": "ref",
    "predict_ref": "ref",
    "peak_rss_mb": "MB",
    "detect_final_loss": "nats",
    "detect_auroc": "auroc",
    "fused_auroc": "auroc",
}

# span name -> per-layer self-time metric; every span traced_cli.py records
SPAN_METRIC = {
    "encoder.conv_fwd": "encoder.conv_fwd_s",
    "encoder.conv_bwd": "encoder.conv_bwd_s",
    "encoder.lstm_fwd": "encoder.lstm_fwd_s",
    "encoder.lstm_bwd": "encoder.lstm_bwd_s",
    "attention.fwd": "attention.fwd_s",
    "attention.bwd": "attention.bwd_s",
    "attention.head": "attention.head_s",
    "attention.fuse": "attention.fuse_s",
    "attention.overlay": "attention.overlay_s",
    "detection.batch_pass": "detection.batch_pass_s",
    "detection.full_pass": "detection.full_pass_s",
    "detection.predict": "detection.predict_s",
    "detection.explain": "detection.explain_s",
    "detection.train": "detection.self_s",
    "detection.checkpoint": "detection.self_s",
    "data.generate": "data.generate_s",
    "data.load_csv": "data.load_csv_s",
    "curves.smooth": "curves.smooth_s",
    "curves.flow": "curves.flow_s",
    "curves.vf": "curves.vf_s",
    "phases.concavity": "phases.concavity_s",
    "training.logistic": "training.logistic_s",
    "horizon.features": "horizon.features_s",
    "horizon.predict": "horizon.predict_s",
    "metrics.report": "metrics.report_s",
    "cli.stage": "cli.self_s",
    "cli.import": "cli.import_s",
}

PER_LAYER_UNITS = {
    **{metric: "s" for metric in SPAN_METRIC.values()},
    "cli.process_s": "s",
    "cli.artifact_mb": "MB",
    "encoder.patches": "count",
    "encoder.conv_gflop": "GFLOP",
    "encoder.lstm_steps": "count",
    "encoder.lstm_valid_ratio": "ratio",
    "detection.forward_calls": "count",
    "detection.records_per_forward": "records",
    "training.logistic_steps": "count",
    "horizon.records": "count",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


# ---------------------------------------------------------------------------
# processes


class Runner:
    """Starts stage processes one at a time and records wall time and RSS."""

    def __init__(self, logs: Path, deadline: float):
        self.logs = logs
        self.deadline = deadline
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.count = 0

    def run(self, argv: list[str], label: str) -> tuple[float, float, int]:
        """(wall seconds, peak RSS in MB, exit code) of one process."""
        self.count += 1
        log = self.logs / f"{self.count:05d}_{label}.log"
        # Flush what earlier stages wrote, so that its writeback does not
        # land inside this stage's timing.
        os.sync()
        timeout = max(self.deadline - time.perf_counter(), 1.0)
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT, env=self.env)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                killer.cancel()
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = log.read_text(errors="replace")[-2000:]
            print(f"perfbench: {label} exited {proc.returncode}:\n{tail}", file=sys.stderr)
        return elapsed, usage.ru_maxrss / 1024.0, proc.returncode


def cli(*args) -> list[str]:
    return [sys.executable, "-m", "spiroflow.cli", *map(str, args)]


def traced(spans_path: Path, *args) -> list[str]:
    return [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *map(str, args)]


def stage_args(stage: str, w: Workload, cohort: Path, d: Path, first_id: str, out: Path | None = None) -> list:
    """Arguments of one stage reading the models in d and writing under out (default d)."""
    models = d / "models"
    out = out or d
    common = ["--cohort", cohort]
    if stage == "featurize":
        return [stage, "--out-dir", out / "features", *common]
    if stage == "train-detect":
        return [stage, "--out-dir", models, *common, "--epochs", w.epochs]
    if stage == "train-horizon":
        return [stage, "--out-dir", models, *common, "--models", models]
    if stage == "explain":
        one = [] if w.explain_all else ["--id", first_id]
        return [stage, "--out-dir", out / "explain", *common, "--models", models, "--svg", *one]
    return [stage, "--out-dir", out / stage, *common, "--models", models]


def digests(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# checks of one chain of outputs


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def ops(self, n: int, bad: int, what: str):
        self.attempted += n
        self.failed += bad
        if bad:
            self.problems.append(f"{what}: {bad} of {n} failed")


def check_chain(tally: Tally, w: Workload, cohort: Path, d: Path, codes: dict, grad_seed: int | None, setup_digests: dict):
    """Count every stage and per-record output of one pipeline run as operations."""
    labels = checks.read_labels(cohort)
    ids = sorted(labels)
    explained = ids if w.explain_all else ids[:1]
    ok = {stage: codes[stage] == 0 for stage in codes}

    if "synth" in codes:
        tally.op(ok["synth"] and digests(cohort) == setup_digests, "synth rerun differs from set-up")

    bad_rows, problems = (ids, ["no features"]) if not ok["featurize"] else checks.check_features(d / "features" / "features.csv", labels)
    tally.op(ok["featurize"] and not problems, f"featurize {problems}")
    tally.ops(len(ids), len(ids) if problems else len(bad_rows), "features.csv rows")

    detect_ok = ok["train-detect"] and checks.loss_falls(d / "models" / "train_detect_log.jsonl")
    if detect_ok and grad_seed is not None:
        worst = checks.check_gradients(d / "models", cohort, grad_seed)
        print(f"perfbench: gradient check worst relative error {worst:.3g}")
        detect_ok = worst <= 1e-4
    tally.op(detect_ok, "train-detect")
    tally.op(ok["train-horizon"] and checks.loss_falls(d / "models" / "train_horizon_log.jsonl"), "train-horizon")

    predictions, bad_preds, pred_problems = {}, ids, ["no predictions"]
    if ok["predict"]:
        bad_preds, pred_problems = checks.check_predictions(d / "predict" / "predictions.jsonl", ids, THRESHOLD)
        predictions = {r["id"]: r for r in checks.read_jsonl(d / "predict" / "predictions.jsonl")}

    eval_problems = ["no metrics"]
    if ok["evaluate"] and ok["train-detect"] and predictions:
        test_ids = json.loads((d / "models" / "detect_model.json").read_text())["test_ids"]
        eval_problems = checks.check_metrics(d / "evaluate" / "metrics.json", predictions, test_ids, labels)
    tally.op(not eval_problems, f"evaluate {eval_problems}")

    bad_overlays = explained
    if ok["explain"]:
        bad_overlays = checks.check_overlays(d / "explain", explained, predictions, svg=True)
    tally.op(ok["explain"], "explain")
    tally.ops(len(explained), len(bad_overlays), "overlays")

    tally.op(ok["predict"] and not pred_problems, f"predict {pred_problems}")
    tally.ops(len(ids), len(ids) if pred_problems else len(bad_preds), "prediction records")


def stage_samples(rounds: list[dict], stage: str) -> list[float]:
    """Every timed call of one stage in the run, repeats included."""
    return [x for r in rounds for x in (r["times"][stage], r["repeats"].get(stage)) if x is not None]


def quality(d: Path) -> dict[str, float]:
    report = json.loads((d / "evaluate" / "metrics.json").read_text())
    losses = [row["loss"] for row in checks.read_jsonl(d / "models" / "train_detect_log.jsonl")]
    return {
        "detect_final_loss": losses[-1],
        "detect_auroc": report["detection"]["auroc"],
        "fused_auroc": report["fused"]["auroc"],
    }


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced round


def layer_metrics(stage_spans: list[dict], traced_s: float, plain_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of one round, plus problems with the span arithmetic."""
    values = {metric: 0.0 for metric in PER_LAYER_UNITS}
    counts: dict[str, float] = {}
    problems = []
    process_s = traced_s
    for stage, blob in stage_spans:
        spans = blob["spans"]
        own = spanlib.self_time_by_name(spans)
        total = sum(own.values())
        root = spanlib.root_duration(spans)
        if abs(total - root) > 1e-6 * max(root, 1.0):
            problems.append(f"{stage}: self times sum to {total}, root span lasts {root}")
        for name, seconds in own.items():
            if name not in SPAN_METRIC:
                problems.append(f"{stage}: span {name} has no metric")
                continue
            values[SPAN_METRIC[name]] += seconds
        for key, value in spanlib.counts_by_name(spans).items():
            counts[key] = counts.get(key, 0.0) + value
        process_s -= root
    values["cli.process_s"] = process_s
    values["encoder.patches"] = counts.get("patches", 0.0)
    values["encoder.conv_gflop"] = counts.get("conv_flop", 0.0) / 1e9
    values["encoder.lstm_steps"] = counts.get("lstm_steps", 0.0)
    values["encoder.lstm_valid_ratio"] = counts.get("lstm_valid_steps", 0.0) / max(counts.get("lstm_steps", 0.0), 1.0)
    values["detection.forward_calls"] = counts.get("forward_calls", 0.0)
    values["detection.records_per_forward"] = counts.get("forward_records", 0.0) / max(counts.get("forward_calls", 0.0), 1.0)
    values["training.logistic_steps"] = counts.get("logistic_steps", 0.0)
    values["horizon.records"] = counts.get("horizon_records", 0.0)
    values["trace.overhead_s"] = traced_s - plain_s
    values["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
    return values, problems


# ---------------------------------------------------------------------------
# the run


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--records", type=int, default=None, help="override the cohort size (smoke tests)")
    p.add_argument("--epochs", type=int, default=None, help="override train-detect epochs (smoke tests)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    t_start = time.perf_counter()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    if not (SRC / "spiroflow" / "cli.py").is_file():
        print(f"perfbench: no spiroflow sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = WORKLOADS[args.workload]
    if args.records or args.epochs:
        w = dataclasses.replace(w, records=args.records or w.records, epochs=args.epochs or w.epochs)
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    try:
        return run(args, w, work, Runner(work / "logs", t_start + DEADLINE_S))
    finally:
        # Deleting thousands of files stalls later writes on this filesystem,
        # so nothing is deleted while stages are timed; the deletion is
        # flushed here, before the next run starts.
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
        os.sync()


def run(args, w: Workload, work: Path, runner: Runner) -> int:
    correct = True
    notes = []

    # set-up: the cohort, generated SETUP_REPEATS times from the seed
    setup_times, cohort_digests = [], []
    for i in range(SETUP_REPEATS):
        cohort = work / f"setup{i}" / "cohort"
        seconds, _, code = runner.run(cli("synth", "--out-dir", cohort, "--n", w.records, "--seed", args.seed), "synth")
        if code != 0:
            print("perfbench: set-up failed", file=sys.stderr)
            return 1
        setup_times.append(seconds)
        cohort_digests.append(digests(cohort))
    cohort = work / "setup0" / "cohort"
    if any(d != cohort_digests[0] for d in cohort_digests):
        correct = False
        notes.append("synth reruns differ")
    first_id = sorted(checks.read_labels(cohort))[0]

    chains = ["plain", "traced"] if args.trace else ["plain"]
    stages = (["synth"] if args.trace else []) + list(STAGES)
    tally = Tally()
    rounds = []
    first_outputs = None
    t_measure = time.perf_counter()
    while True:
        r_start = time.perf_counter()
        base = work / f"round{len(rounds)}"
        times = {c: {} for c in chains}
        rss = {}
        codes = {c: {} for c in chains}
        stage_spans = []
        refs = []
        repeats = {}
        for stage in stages:
            if stage in REFERENCE_BEFORE and not args.trace:
                seconds, _, code = runner.run([sys.executable, str(REFERENCE)], "reference")
                if code != 0:
                    print("perfbench: the reference job failed", file=sys.stderr)
                    return 1
                refs.append(seconds)
            for chain in chains:
                d = base / chain
                chain_cohort = d / "cohort" if args.trace else cohort
                if stage == "synth":
                    a = ["synth", "--out-dir", chain_cohort, "--n", w.records, "--seed", args.seed]
                else:
                    a = stage_args(stage, w, chain_cohort, d, first_id)
                if chain == "traced":
                    spans_path = work / "logs" / f"spans_{len(rounds)}_{stage}.json"
                    seconds, peak, code = runner.run(traced(spans_path, *a), f"traced_{stage}")
                    if code == 0:
                        stage_spans.append((stage, json.loads(spans_path.read_text())))
                else:
                    seconds, peak, code = runner.run(cli(*a), stage)
                    rss[stage] = peak
                times[chain][stage] = seconds
                codes[chain][stage] = code
            if stage in w.repeated and not args.trace:
                # the same stage again, into a directory of its own: its
                # outputs must equal the first call's, which check_chain checks
                d, again = base / "plain", base / "repeat"
                seconds, peak, code = runner.run(cli(*stage_args(stage, w, cohort, d, first_id, out=again)), stage)
                repeats[stage] = seconds
                rss[stage] = max(rss[stage], peak)
                sub = STAGE_OUTPUT[stage]
                tally.op(code == 0 and digests(again / sub) == digests(d / sub), f"{stage} rerun differs from the first call")

        for chain in chains:
            d = base / chain
            chain_cohort = d / "cohort" if args.trace else cohort
            grad_seed = args.seed if (not rounds and chain == "plain") else None
            check_chain(tally, w, chain_cohort, d, codes[chain], grad_seed, cohort_digests[0])
            outputs = digests(d)
            if first_outputs is None:
                first_outputs = outputs
            elif outputs != first_outputs:
                correct = False
                diff = sorted(k for k in set(outputs) | set(first_outputs) if outputs.get(k) != first_outputs.get(k))
                notes.append(f"round {len(rounds)} {chain} outputs differ from round 0: {diff[:5]}")

        record = {
            "times": times["plain"],
            "reference": refs,
            "repeats": repeats,
            "peak_rss_mb": max(rss.values()),
            "artifact_mb": sum(tree_bytes(base / "plain" / sub) for sub in OUTPUT_DIRS) / 1e6,
        }
        if not rounds and all(c == 0 for c in codes["plain"].values()):
            record["quality"] = quality(base / "plain")
        if args.trace:
            traced_s = sum(times["traced"].values())
            plain_s = sum(times["plain"].values())
            values, problems = layer_metrics(stage_spans, traced_s, plain_s)
            values["cli.artifact_mb"] = record["artifact_mb"]
            record["layers"] = values
            if problems:
                correct = False
                notes.extend(problems)
            absent = sorted({a for _, s in stage_spans for a in s.get("absent", [])})
            if absent and not rounds:
                print(f"perfbench: absent call sites (reported as 0): {absent}")
        rounds.append(record)

        now = time.perf_counter()
        last = now - r_start
        if now - t_measure + last > args.seconds or now + last > runner.deadline:
            break

    for i, r in enumerate(rounds):
        refs = "" if args.trace else f" reference={statistics.median(r['reference']):.3f}"
        again = {k: f"/{v:.3f}" for k, v in r["repeats"].items()}
        print(f"perfbench: round {i} " + " ".join(f"{k}={v:.3f}{again.get(k, '')}" for k, v in r["times"].items()) + refs)
    stage_means = {stage: statistics.fmean(stage_samples(rounds, stage)) for stage in STAGES}
    for stage in STAGES:
        print(f"perfbench: {stage:14s} mean {stage_means[stage]:8.3f} s over {len(stage_samples(rounds, stage))} calls")
    if not args.trace:
        reference_s = statistics.median(x for r in rounds for x in r["reference"])
        print(f"perfbench: reference job median {reference_s:.3f} s over {sum(len(r['reference']) for r in rounds)} runs")
    print(f"perfbench: BLAS threads {BLAS_THREADS}; set-up {[round(t, 3) for t in setup_times]} s")
    for note in notes + tally.problems:
        print(f"perfbench: {note}")

    if args.trace:
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in rounds), "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }
    else:
        q = rounds[0].get("quality")
        if q is None:
            correct = False
            q = {}
        metrics = {"setup_s": statistics.median(setup_times)}
        for stage in STAGES:
            metrics[stage.replace("-", "_") + "_ref"] = stage_means[stage] / reference_s
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in rounds)
        for key in ("detect_final_loss", "detect_auroc", "fused_auroc"):
            metrics[key] = q.get(key, 0.0)
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

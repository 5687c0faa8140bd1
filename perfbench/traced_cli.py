"""Run one spiroflow CLI stage with spans around its calls into each layer.

    python traced_cli.py SPANS_JSON <spiroflow subcommand and arguments>

The package is not changed: each wrapper replaces the name that a calling
module uses (a module attribute, or a method on a class), so a span covers
exactly one call from that call site.  A name that no longer exists is
listed as absent in the spans file and skipped.  The spans stay in memory
and are written to SPANS_JSON when the stage ends.
"""

import time

_T0 = time.perf_counter()

import functools
import importlib
import math
import sys

from spans import Tracer


class _State:
    """Facts one wrapper learns that another needs."""

    train_n = None  # records in the split that DetectionModel.train was given
    last_conv_flop = 0


def _conv_flop(patches, params) -> int:
    """Multiply-adds x 2 of the two same-padded conv layers on these patches."""
    p, _, length = patches.shape
    c_mid, c_in, kernel = params.w1.shape
    c_out = params.w2.shape[0]
    return 2 * p * length * kernel * (c_in * c_mid + c_mid * c_out)


def _count_conv_fwd(args, result):
    flop = _conv_flop(args[0], args[1])
    _State.last_conv_flop = flop
    return {"patches": args[0].shape[0], "conv_flop": flop}


def _count_conv_bwd(args, result):
    # weight and input gradients of both layers: twice the forward's work
    return {"conv_flop": 2 * _State.last_conv_flop}


def _count_lstm(args, result):
    x, lengths = args[0], args[1]
    # sample-steps of the two directions, padded and valid
    return {"lstm_steps": 2 * x.shape[0] * x.shape[1], "lstm_valid_steps": 2 * int(sum(lengths))}


def _count_logistic(args, result):
    x, cfg = args[0], args[2]
    return {"logistic_steps": cfg.epochs * math.ceil(len(x) / cfg.batch_size)}


def _count_predict(args, result):
    return {"forward_calls": 1, "forward_records": len(args[1])}


def _count_explain(args, result):
    return {"forward_calls": 1, "forward_records": 1}


def _count_horizon(args, result):
    return {"horizon_records": 1}


def _train_begin(args):
    _State.train_n = len(args[1])
    return "detection.train"


def _pass_name(args):
    if _State.train_n is not None and len(args[1]) == _State.train_n:
        return "detection.full_pass"
    return "detection.batch_pass"


# (module, attribute, span name or name function, counter)
WRAPPED = [
    ("spiroflow.cli", "generate_synthetic_cohort", "data.generate", None),
    ("spiroflow.cli", "load_time_volume_csv", "data.load_csv", None),
    ("spiroflow.cli", "gaussian_smooth", "curves.smooth", None),
    ("spiroflow.cli", "differentiate_flow", "curves.flow", None),
    ("spiroflow.cli", "volume_flow_curve", "curves.vf", None),
    ("spiroflow.cli", "concavity_features", "phases.concavity", None),
    ("spiroflow.cli", "train_logistic", "training.logistic", _count_logistic),
    ("spiroflow.cli", "fuse_and_score", "attention.fuse", None),
    ("spiroflow.cli", "attention_overlay", "attention.overlay", None),
    ("spiroflow.cli", "overlay_svg", "attention.overlay", None),
    ("spiroflow.cli", "future_feature_vector", "horizon.features", None),
    ("spiroflow.cli", "predict_future_risk", "horizon.predict", _count_horizon),
    ("spiroflow.cli", "top_horizon", "horizon.predict", None),
    ("spiroflow.cli", "metrics_report", "metrics.report", None),
    ("spiroflow.cli", "subgroup_reports", "metrics.report", None),
    ("spiroflow.detection", "conv_embed_forward", "encoder.conv_fwd", _count_conv_fwd),
    ("spiroflow.detection", "conv_embed_backward", "encoder.conv_bwd", _count_conv_bwd),
    ("spiroflow.detection", "bilstm_forward_padded", "encoder.lstm_fwd", _count_lstm),
    ("spiroflow.detection", "bilstm_backward_padded", "encoder.lstm_bwd", None),
    ("spiroflow.detection", "attention_forward_padded", "attention.fwd", None),
    ("spiroflow.detection", "attention_backward_padded", "attention.bwd", None),
    ("spiroflow.detection", "head_forward", "attention.head", None),
    ("spiroflow.detection", "head_backward", "attention.head", None),
    ("spiroflow.detection", "DetectionModel.train", _train_begin, None),
    ("spiroflow.detection", "DetectionModel.loss_and_grads", _pass_name, None),
    ("spiroflow.detection", "DetectionModel.predict_proba", "detection.predict", _count_predict),
    ("spiroflow.detection", "DetectionModel.explain", "detection.explain", _count_explain),
    ("spiroflow.detection", "DetectionModel.to_dict", "detection.checkpoint", None),
    ("spiroflow.detection", "DetectionModel.from_dict", "detection.checkpoint", None),
]


def _wrap(tracer, fn, name, count, absent, target):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(name(args) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if count is not None:
            try:
                tracer.count(index, count(args, result))
            except Exception:  # a changed signature loses the counts, not the stage
                if f"{target} (counts)" not in absent:
                    absent.append(f"{target} (counts)")
        return result

    return traced


def install(tracer) -> list[str]:
    """Wrap every call site in WRAPPED; return the list of absent targets,
    to which call sites whose counts cannot be taken are added later."""
    absent = []
    for module_name, attr, name, count in WRAPPED:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        target = f"{module_name}:{attr}"
        try:
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner)[leaf] if path else getattr(owner, leaf)
        except (AttributeError, KeyError):
            absent.append(target)
            continue
        if isinstance(raw, classmethod):
            setattr(owner, leaf, classmethod(_wrap(tracer, raw.__func__, name, count, absent, target)))
        else:
            setattr(owner, leaf, _wrap(tracer, raw, name, count, absent, target))
    return absent


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    root = tracer.begin("cli.stage", _T0)
    setup = tracer.begin("cli.import")
    import spiroflow.cli

    absent = install(tracer)
    tracer.end(setup)
    code = 1
    try:
        code = spiroflow.cli.main(cli_args)
    finally:
        tracer.end(root)
        tracer.write(spans_path, absent=absent, exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

import math

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from spiroflow.attention import head_forward
from spiroflow.detection import DetectionConfig, DetectionModel
from spiroflow.errors import DegenerateLabels, InvalidArgument, InvalidLoss
from spiroflow.training import (
    LogisticModel,
    PROB_CLAMP,
    TrainConfig,
    grad_check,
    mean_cross_entropy,
    softmax_rows,
    train_logistic,
    write_training_log,
)


class TestCrossEntropy:
    def test_certain_correct_prediction(self):
        assert mean_cross_entropy(np.array([[0.0, 1.0]]), np.array([1])) == pytest.approx(0.0)

    def test_uniform_binary(self):
        probs = np.full((3, 2), 0.5)
        assert mean_cross_entropy(probs, np.array([0, 1, 0])) == pytest.approx(math.log(2.0))

    def test_zero_probability_clamped(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert mean_cross_entropy(probs, np.array([1, 0])) == pytest.approx(-math.log(PROB_CLAMP))

    @given(st.integers(1, 5), st.integers(2, 6), st.data())
    def test_matches_negative_log(self, n, k, data):
        row = st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=k, max_size=k)
        probs = np.array(data.draw(st.lists(row, min_size=n, max_size=n)))
        probs /= probs.sum(axis=1, keepdims=True)
        labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
        expected = np.mean([-math.log(max(p[y], PROB_CLAMP)) for p, y in zip(probs, labels)])
        assert mean_cross_entropy(probs, labels) == pytest.approx(expected)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        out = softmax_rows(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
        assert np.allclose(out.sum(axis=1), 1.0)

    def test_shift_invariance(self):
        z = np.array([[1.0, -2.0, 0.5]])
        assert np.allclose(softmax_rows(z), softmax_rows(z + 17.0), atol=1e-12)

    def test_large_inputs_stay_finite(self):
        out = softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))


class TestTrainLogistic:
    def test_zero_epochs_gives_uniform_model(self):
        x = np.random.default_rng(0).standard_normal((10, 3))
        y = np.array([0, 1] * 5)
        model, trace = train_logistic(x, y, TrainConfig(epochs=0))
        assert np.all(model.weights == 0.0)
        assert trace == [pytest.approx(math.log(2.0))]
        assert np.allclose(model.predict_proba(x), 0.5)

    def test_learns_and_separable_labels(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2, size=(200, 2)).astype(float)
        y = np.logical_and(x[:, 0], x[:, 1]).astype(int)
        model, _ = train_logistic(x, y, TrainConfig(lr=0.5, epochs=300, batch_size=32, seed=0))
        assert np.mean(model.predict(x) == y) == 1.0

    def test_loss_trace_decreases_overall(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((100, 4))
        y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(int)
        _, trace = train_logistic(x, y, TrainConfig(lr=0.1, epochs=50, seed=3))
        assert trace[-1] < trace[0]

    def test_bitwise_reproducible(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((60, 3))
        y = (x[:, 0] > 0).astype(int)
        cfg = TrainConfig(lr=0.1, epochs=20, seed=7)
        a, trace_a = train_logistic(x, y, cfg)
        b, trace_b = train_logistic(x, y, cfg)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)
        assert trace_a == trace_b

    def test_multiclass_labels_round_trip(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((90, 2))
        y = np.array((["a"] * 30) + (["b"] * 30) + (["c"] * 30))
        x[:30] += [3, 0]
        x[30:60] += [0, 3]
        x[60:] += [-3, -3]
        model, _ = train_logistic(x, y, TrainConfig(lr=0.3, epochs=200, seed=0))
        assert np.mean(model.predict(x) == y) > 0.95
        restored = LogisticModel.from_dict(model.to_dict(), x.shape[1], ("a", "b", "c"))
        assert np.array_equal(restored.predict(x), model.predict(x))

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabels):
            train_logistic(np.zeros((5, 2)), np.zeros(5, dtype=int), TrainConfig())

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidArgument):
            train_logistic(np.zeros((5, 2)), np.zeros(4, dtype=int), TrainConfig())

    def test_untrained_model_rejected(self):
        # a model is born fitted: there is no weightless state to score with
        with pytest.raises(TypeError):
            LogisticModel()


def _reference_logistic(x, y, cfg):
    """Written-out mini-batch loop for multinomial logistic regression.

    `+ 0.0 * w` is the weight-decay term at 0.0, the only value the pipeline
    ever trained with.  Returns (weights, bias, loss trace).
    """
    classes = np.unique(y)
    y_idx = np.searchsorted(classes, y)
    n, d = x.shape
    w = np.zeros((classes.size, d))
    b = np.zeros(classes.size)

    def loss():
        probs = softmax_rows(x @ w.T + b)
        picked = np.clip(probs[np.arange(n), y_idx], PROB_CLAMP, None)
        return float(-np.log(picked).mean() + 0.5 * 0.0 * np.sum(w * w))

    rng = np.random.default_rng(cfg.seed)
    trace = [loss()]
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            xb = x[batch]
            probs = softmax_rows(xb @ w.T + b)
            probs[np.arange(batch.size), y_idx[batch]] -= 1.0
            dlogits = probs / batch.size
            w -= cfg.lr * (dlogits.T @ xb + 0.0 * w)
            b -= cfg.lr * dlogits.sum(axis=0)
        trace.append(loss())
    return w, b, trace


def _reference_detection(model, series, labels, cfg):
    """Written-out mini-batch loop over every detector parameter, in place.

    `+ 0.0 * p` is the weight-decay term at 0.0, as in _reference_logistic.
    Returns the loss trace.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.size

    def loss():
        probs, _ = head_forward(model._pool(series)[0], model.head)  # one whole-batch pass
        return float(-np.log(np.clip(probs[np.arange(n), labels], PROB_CLAMP, None)).mean())

    rng = np.random.default_rng(cfg.seed)
    params = model.params()
    trace = [loss()]
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            _, grads = model.loss_and_grads([series[i] for i in batch], labels[batch])
            for name, p in params.items():
                p -= cfg.lr * (grads[name] + 0.0 * p)
        trace.append(loss())
    return trace


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


# (batch size, epochs) against 50 logistic records and 7 detector records:
# a batch size that divides neither, one at least n, and no epochs at all
LOOP_CASES = [(16, 3), (3, 2), (64, 2), (16, 0)]


class TestSgdMatchesReference:
    @pytest.mark.parametrize("k", [2, 6])
    @pytest.mark.parametrize("batch_size, epochs", LOOP_CASES)
    def test_train_logistic(self, k, batch_size, epochs):
        rng = np.random.default_rng(k * 100 + batch_size)
        x = rng.standard_normal((50, 4))
        y = np.arange(50) % k
        rng.shuffle(y)
        x[:, 0] += y
        cfg = TrainConfig(lr=0.3, epochs=epochs, batch_size=batch_size, seed=11)
        model, model_trace = train_logistic(x, y, cfg)
        w, b, trace = _reference_logistic(x, y, cfg)
        assert _bits(model.weights) == _bits(w)
        assert _bits(model.bias) == _bits(b)
        assert _bits(model_trace) == _bits(trace)
        assert len(trace) == epochs + 1

    @pytest.mark.parametrize("batch_size, epochs", LOOP_CASES)
    def test_detection_train(self, batch_size, epochs):
        rng = np.random.default_rng(batch_size)
        lengths = [9, 40, 17, 64, 23, 5, 33]  # two to sixteen 4-sample patches
        series = [np.cumsum(rng.uniform(0.0, 0.5, size=m)) for m in lengths]
        labels = np.array([1, 0, 1, 1, 0, 0, 1])
        config = DetectionConfig(patch_len=4, channels=3, hidden=3, conv_kernel=3, seed=2)
        cfg = TrainConfig(lr=0.5, epochs=epochs, batch_size=batch_size, seed=5)
        model, reference = DetectionModel(config), DetectionModel(config)
        trace, p_hat = model.train(series, labels, cfg)
        expected = _reference_detection(reference, series, labels, cfg)
        assert _bits(trace) == _bits(expected)
        assert len(trace) == epochs + 1
        for name, value in reference.params().items():
            assert _bits(model.params()[name]) == _bits(value), name
        # the last loss pass's P(disease) is the trained model's
        assert _bits(p_hat) == _bits(model.predict_proba(series))


class TestTrainConfig:
    def test_invalid_values_rejected(self):
        for lr in (0.0, math.nan, math.inf):
            with pytest.raises(InvalidArgument):
                TrainConfig(lr=lr)
        # a finite rate so large that the fit overflows ends in InvalidLoss,
        # not in a model with NaN weights
        x = np.random.default_rng(0).standard_normal((20, 3))
        with pytest.raises(InvalidLoss), np.errstate(over="ignore", invalid="ignore"):
            train_logistic(x, np.arange(20) % 2, TrainConfig(lr=1e308, epochs=3, batch_size=4))
        with pytest.raises(InvalidArgument):
            TrainConfig(epochs=-1)
        with pytest.raises(InvalidArgument):
            TrainConfig(batch_size=0)


class TestGradCheck:
    def test_exact_quadratic(self):
        def loss_fn(params):
            w = params["w"]
            return float((w * w).sum()), {"w": 2.0 * w}

        err = grad_check(loss_fn, {"w": np.array([1.0, -2.0, 0.5])}, eps=1e-5)
        assert err < 1e-8

    def test_detects_wrong_gradient(self):
        def loss_fn(params):
            w = params["w"]
            return float((w * w).sum()), {"w": 3.0 * w}  # deliberately off

        err = grad_check(loss_fn, {"w": np.array([1.0, 2.0])}, eps=1e-5)
        assert err > 0.1

    def test_noisy_loss_rejected(self):
        state = {"calls": 0}

        def loss_fn(params):
            state["calls"] += 1
            return float(params["w"].sum()) + 1e-9 * state["calls"], {"w": np.ones_like(params["w"])}

        with pytest.raises(InvalidLoss):
            grad_check(loss_fn, {"w": np.array([1.0])}, eps=1e-5)

    def test_non_finite_loss_rejected(self):
        def loss_fn(params):
            return float("nan"), {"w": np.zeros_like(params["w"])}

        with pytest.raises(InvalidLoss):
            grad_check(loss_fn, {"w": np.array([1.0])}, eps=1e-5)

    def test_eps_outside_window_rejected(self):
        def loss_fn(params):
            return 0.0, {"w": np.zeros_like(params["w"])}

        with pytest.raises(InvalidArgument):
            grad_check(loss_fn, {"w": np.array([1.0])}, eps=1e-2)

    def test_params_restored_after_check(self):
        w = np.array([0.3, -0.7])
        original = w.copy()

        def loss_fn(params):
            return float(params["w"].sum()), {"w": np.ones_like(params["w"])}

        grad_check(loss_fn, {"w": w}, eps=1e-5)
        assert np.array_equal(w, original)


class TestTrainingLog:
    def test_jsonl_round_trip(self, tmp_path):
        import json

        path = tmp_path / "log.jsonl"
        write_training_log(path, [0.9, 0.5, 0.3], seed=11)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines == [
            {"epoch": 0, "loss": 0.9, "seed": 11},
            {"epoch": 1, "loss": 0.5, "seed": 11},
            {"epoch": 2, "loss": 0.3, "seed": 11},
        ]

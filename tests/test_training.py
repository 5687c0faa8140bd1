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
    NEWTON_TOL,
    PROB_CLAMP,
    TrainConfig,
    grad_check,
    mean_cross_entropy,
    penalized_cross_entropy,
    sgd,
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


def _losses(trace):
    return [row["loss"] for row in trace]


def _predicted(model, x):
    """The most probable class of each row."""
    return model.classes[np.argmax(model.predict_proba(x), axis=1)]


def _fit_gradient(model, x, y):
    """The penalized loss's gradient at a fitted model's parameters."""
    z = np.column_stack([model.standardize(x), np.ones(len(x))])
    theta = np.column_stack([model.weights, model.bias])
    _, grad, _ = penalized_cross_entropy(theta, z, np.searchsorted(model.classes, y))
    return grad


class TestTrainLogistic:
    def test_optimal_start_takes_no_step(self):
        # balanced labels and a constant column: the zero-weight start is the
        # penalized optimum, so the fit stops at iteration 0
        x = np.full((10, 3), 0.1)
        y = np.array([0, 1] * 5)
        model, trace = train_logistic(x, y)
        assert np.all(model.weights == 0.0) and np.all(model.bias == 0.0)
        assert trace == [{"iteration": 0, "loss": pytest.approx(math.log(2.0)), "max_grad": 0.0}]
        assert np.allclose(model.predict_proba(x), 0.5)

    def test_learns_and_separable_labels(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2, size=(200, 2)).astype(float)
        y = np.logical_and(x[:, 0], x[:, 1]).astype(int)
        model, _ = train_logistic(x, y)
        assert np.mean(_predicted(model, x) == y) == 1.0

    def test_loss_trace_decreases_overall(self):
        # every accepted Newton step lowers the penalized loss
        rng = np.random.default_rng(2)
        x = rng.standard_normal((100, 4))
        y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(int)
        _, trace = train_logistic(x, y)
        losses = _losses(trace)
        assert len(losses) >= 3
        assert all(later < earlier for earlier, later in zip(losses, losses[1:]))
        assert [row["iteration"] for row in trace] == list(range(len(trace)))

    @pytest.mark.parametrize("k, n, d", [(2, 40, 3), (2, 400, 8), (6, 120, 13), (6, 600, 13)])
    def test_converges_below_the_gradient_tolerance(self, k, n, d):
        # the returned max |gradient| is at most NEWTON_TOL, and it is the
        # gradient at the returned model's parameters
        rng = np.random.default_rng(k + n + d)
        y = np.arange(n) % k
        x = rng.standard_normal((n, d)) * rng.uniform(0.01, 10.0, size=d)
        x[:, 0] += y * 0.3  # informative, not separable
        model, trace = train_logistic(x, y)
        assert trace[-1]["max_grad"] <= NEWTON_TOL
        assert np.max(np.abs(_fit_gradient(model, x, y))) <= NEWTON_TOL
        assert len(trace) <= 20

    @pytest.mark.parametrize("k", [2, 6])
    def test_fit_is_invariant_to_column_affine_maps(self, k):
        # every column is standardized by its own mean and spread, so x * a + b
        # with one a, b per column fits the same probabilities in the same
        # iterations: the fused and horizon models take raw age for this
        rng = np.random.default_rng(30 + k)
        y = np.arange(300) % k
        x = rng.standard_normal((300, 13))
        x[:, :3] += y[:, None] * 0.3  # informative, not separable
        a = rng.uniform(0.01, 100.0, size=13)
        b = rng.uniform(-50.0, 50.0, size=13)
        model, trace = train_logistic(x, y)
        moved, moved_trace = train_logistic(x * a + b, y)
        assert len(moved_trace) == len(trace) > 2
        assert np.max(np.abs(moved.predict_proba(x * a + b) - model.predict_proba(x))) <= 1e-12

    def test_penalized_loss_passes_grad_check(self):
        rng = np.random.default_rng(4)
        z = np.column_stack([rng.standard_normal((30, 4)), np.ones(30)])
        y_idx = np.arange(30) % 3
        theta = rng.standard_normal((3, 5))

        def loss_fn(params):
            loss, grad, _ = penalized_cross_entropy(params["theta"], z, y_idx)
            return loss, {"theta": grad}

        assert grad_check(loss_fn, {"theta": theta}, eps=1e-6) < 1e-6

    def test_constant_column_gives_finite_weights(self):
        # a zero spread scales by 1, and the ridge keeps every weight finite,
        # also where the classes are separable
        rng = np.random.default_rng(8)
        x = np.column_stack([rng.standard_normal(50), np.full(50, 0.1), np.zeros(50)])
        y = (x[:, 0] > 0).astype(int)
        model, trace = train_logistic(x, y)
        assert model.scale[1:].tolist() == [1.0, 1.0]
        assert np.all(np.isfinite(model.weights)) and np.all(np.isfinite(model.bias))
        assert np.max(np.abs(model.weights[:, 1:])) < 1e-9
        assert trace[-1]["max_grad"] <= NEWTON_TOL
        assert np.mean(_predicted(model, x) == y) >= 0.95

    def test_bitwise_reproducible(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((60, 3))
        y = (x[:, 0] > 0).astype(int)
        a, trace_a = train_logistic(x, y)
        b, trace_b = train_logistic(x, y)
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
        model, _ = train_logistic(x, y)
        assert np.mean(_predicted(model, x) == y) > 0.95
        restored = LogisticModel.from_dict(model.to_dict(), x.shape[1], ("a", "b", "c"))
        assert np.array_equal(restored.predict_proba(x), model.predict_proba(x))

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabels):
            train_logistic(np.zeros((5, 2)), np.zeros(5, dtype=int))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidArgument):
            train_logistic(np.zeros((5, 2)), np.zeros(4, dtype=int))
        with pytest.raises(InvalidArgument):
            train_logistic(np.array([[0.0], [np.inf]]), np.array([0, 1]))

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
    Returns the loss trace: each epoch's batch losses weighted by batch
    size, over n, then one whole-batch loss pass after the last epoch.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.size

    def loss():
        probs, _ = head_forward(model._pool(series)[0], model.head)  # one whole-batch pass
        return float(-np.log(np.clip(probs[np.arange(n), labels], PROB_CLAMP, None)).mean())

    rng = np.random.default_rng(cfg.seed)
    params = model.params()
    trace = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        weighted = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            batch_loss, grads = model.loss_and_grads([series[i] for i in batch], labels[batch])
            weighted += batch_loss * batch.size
            for name, p in params.items():
                p -= cfg.lr * (grads[name] + 0.0 * p)
        trace.append(weighted / n)
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
        # the Newton fit's penalized loss is at or below the loss that the
        # reference loop, the SGD fit it replaced, reaches on the same features
        rng = np.random.default_rng(k * 100 + batch_size)
        x = rng.standard_normal((50, 4))
        y = np.arange(50) % k
        rng.shuffle(y)
        x[:, 0] += y
        _, _, trace = _reference_logistic(x, y, TrainConfig(lr=0.3, epochs=epochs, batch_size=batch_size, seed=11))
        assert len(trace) == epochs + 1
        _, newton = train_logistic(x, y)
        assert newton[-1]["loss"] <= trace[-1]

    @pytest.mark.parametrize("batch_size, epochs", LOOP_CASES)
    def test_detection_train(self, batch_size, epochs):
        rng = np.random.default_rng(batch_size)
        lengths = [9, 40, 17, 64, 23, 5, 33]  # two to sixteen 4-sample patches
        series = [np.cumsum(rng.uniform(0.0, 0.5, size=m)) for m in lengths]
        labels = np.array([1, 0, 1, 1, 0, 0, 1])
        config = DetectionConfig(patch_len=4, channels=3, hidden=3, conv_kernel=3, seed=2)
        cfg = TrainConfig(lr=0.5, epochs=epochs, batch_size=batch_size, seed=5)
        model, reference = DetectionModel(config), DetectionModel(config)
        trace, p_hat, weights = model.train(series, labels, cfg, range(len(series)))
        expected = _reference_detection(reference, series, labels, cfg)
        assert _bits(trace) == _bits(expected)
        assert len(trace) == epochs + 1
        for name, value in reference.params().items():
            assert _bits(model.params()[name]) == _bits(value), name
        # the one loss pass's P(disease) and attention weights are the trained model's
        explained = model.explain(series)
        assert _bits(p_hat) == _bits(explained[0])
        assert _bits(weights) == _bits(explained[1])


def _tiny_detector():
    """Seven records of two to sixteen 4-sample patches and an untrained
    detector small enough to train in a test."""
    rng = np.random.default_rng(3)
    series = [np.cumsum(rng.uniform(0.0, 0.5, size=m)) for m in (9, 40, 17, 64, 23, 5, 33)]
    labels = np.array([1, 0, 1, 1, 0, 0, 1])
    config = DetectionConfig(patch_len=4, channels=3, hidden=3, conv_kernel=3, seed=2)
    return series, labels, DetectionModel(config)


class TestOneLossPass:
    """DetectionModel.train scores its split once, after the last epoch; the
    epochs' entries are the mini-batch losses that training computed anyway."""

    @pytest.mark.parametrize("epochs", [0, 1, 3])
    def test_one_forward_pass_per_fit(self, epochs, monkeypatch):
        series, labels, model = _tiny_detector()
        passes = []
        infer = DetectionModel._infer
        monkeypatch.setattr(DetectionModel, "_infer", lambda self, s: passes.append(len(s)) or infer(self, s))
        trace, _, _ = model.train(series, labels, TrainConfig(lr=0.5, epochs=epochs, batch_size=3, seed=5), range(7))
        assert passes == [len(series)]
        assert len(trace) == epochs + 1

    @pytest.mark.parametrize("epochs", [0, 2])
    def test_last_entry_is_the_trained_models_loss(self, epochs):
        series, labels, model = _tiny_detector()
        trace, p_hat, _ = model.train(series, labels, TrainConfig(lr=0.5, epochs=epochs, batch_size=3, seed=5), range(7))
        probs, _ = model._infer(series)
        assert _bits(probs[:, 1]) == _bits(model.predict_proba(series)) == _bits(p_hat)
        assert _bits(trace[-1]) == _bits(mean_cross_entropy(probs, labels))

    def test_rows_are_fitted_and_every_series_is_scored(self, monkeypatch):
        # fitting rows of a batch is fitting those records alone, and the one
        # pass scores every series; rows 0, 2, 5 and 1 leave out the longest
        # series, so the pass is wider than a pass over the rows would be
        series, labels, model = _tiny_detector()
        _, _, alone = _tiny_detector()
        rows = np.array([0, 2, 5, 1])
        cfg = TrainConfig(lr=0.5, epochs=2, batch_size=3, seed=5)
        passes = []
        infer = DetectionModel._infer
        monkeypatch.setattr(DetectionModel, "_infer", lambda self, s: passes.append(len(s)) or infer(self, s))
        trace, p_hat, weights = model.train(series, labels, cfg, rows)
        expected, p_rows, w_rows = alone.train([series[i] for i in rows], labels[rows], cfg, range(len(rows)))
        assert passes == [len(series), len(rows)]
        assert _bits(trace) == _bits(expected)
        for name, value in alone.params().items():
            assert _bits(model.params()[name]) == _bits(value), name
        assert weights.shape == (len(series), 16) and w_rows.shape == (len(rows), 10)
        assert _bits(p_hat[rows]) == _bits(p_rows)
        assert _bits(weights[rows, :10]) == _bits(w_rows)
        with pytest.raises(DegenerateLabels, match=r"its 2 labels hold \[1\]"):
            model.train(series, labels, cfg, [0, 2])
        with pytest.raises(DegenerateLabels, match=r"its 0 labels hold \[\]"):
            model.train(series, labels, cfg, [])

    def test_epoch_entries_are_size_weighted_means_of_batch_losses(self, monkeypatch):
        series, labels, model = _tiny_detector()
        seen = []
        loss_and_grads = DetectionModel.loss_and_grads

        def recording(self, batch_series, batch_labels):
            loss, grads = loss_and_grads(self, batch_series, batch_labels)
            seen.append((loss, len(batch_series)))
            return loss, grads

        monkeypatch.setattr(DetectionModel, "loss_and_grads", recording)
        trace, _, _ = model.train(series, labels, TrainConfig(lr=0.5, epochs=3, batch_size=3, seed=5), range(7))
        assert [size for _, size in seen] == [3, 3, 1] * 3  # 7 records in batches of 3
        for epoch in range(3):
            (a, size_a), (b, size_b), (c, size_c) = seen[3 * epoch : 3 * epoch + 3]
            assert _bits(trace[epoch]) == _bits((a * size_a + b * size_b + c * size_c) / 7)
        assert len(trace) == 4


class TestTrainConfig:
    def test_invalid_values_rejected(self):
        for lr in (0.0, math.nan, math.inf):
            with pytest.raises(InvalidArgument):
                TrainConfig(lr=lr)
        # a finite rate so large that a step overflows a parameter, or a
        # batch loss that is not finite, ends in InvalidLoss naming the rate,
        # before the next step
        cfg = TrainConfig(lr=1e308, epochs=3, batch_size=4)
        w = np.ones(3)
        with pytest.raises(InvalidLoss, match=r"learning rate 1e\+308: w is not finite in epoch 1"):
            with np.errstate(over="ignore"):
                sgd({"w": w}, lambda batch: (float(w @ w), {"w": 2.0 * w}), 8, cfg)
        w = np.ones(3)
        calls = []

        def batch_loss_grads(batch):
            calls.append(batch.size)
            return (math.inf if len(calls) == 2 else 0.0), {"w": np.zeros(3)}

        with pytest.raises(InvalidLoss, match=r"learning rate 1e\+308: a batch loss in epoch 1 is not finite"):
            sgd({"w": w}, batch_loss_grads, 8, cfg)
        assert calls == [4, 4]
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
        rows = [{"epoch": 0, "loss": 0.9, "seed": 11}, {"epoch": 1, "loss": 0.5, "seed": 11}]
        rows.append({"iteration": 2, "loss": 0.3, "max_grad": 1e-11})
        write_training_log(path, rows)
        assert [json.loads(line) for line in path.read_text().splitlines()] == rows
        assert path.read_text().splitlines()[2] == '{"iteration": 2, "loss": 0.3, "max_grad": 1e-11}'

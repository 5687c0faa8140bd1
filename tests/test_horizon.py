import numpy as np
import pytest

from spiroflow.attention import DemographicRecord, demographic_block
from spiroflow.errors import InvalidArgument
from spiroflow.horizon import FUTURE_FEATURE_NAMES, HORIZON_ORDER, HorizonLabel
from spiroflow.horizon import future_feature_vector, predict_future_risk
from spiroflow.phases import CONCAVITY_NAMES
from spiroflow.training import LogisticModel, train_logistic


DEMO = DemographicRecord("male", 60.0, "current")


class TestFeatureVector:
    def test_width_and_order(self):
        # two concavity_features rows: four areas, then their trend
        areas = np.array([[0.1, 0.2, -0.3, -0.4], [-0.5, 0.6, 0.7, 0.8]])
        concavity = np.column_stack([areas, areas[:, 0] + areas[:, 1] - areas[:, 2] - areas[:, 3]])
        struct = demographic_block([DEMO, DemographicRecord("female", 45.0, "never")], [0.62, 0.8])
        block = future_feature_vector([0.7, 0.2], concavity, struct)
        assert block.shape == (2, len(FUTURE_FEATURE_NAMES)) and len(FUTURE_FEATURE_NAMES) == 13
        assert FUTURE_FEATURE_NAMES[1:6] == ("c_pef_fef25", "c_fef25_fef50", "c_fef50_fef75", "c_fef75_plus", "trend")
        assert FUTURE_FEATURE_NAMES[1:6] == CONCAVITY_NAMES  # featurize's header names the same block
        assert block[:, 0].tolist() == [0.7, 0.2]
        assert np.allclose(block[:, 1:5], [[0.1, 0.2, -0.3, -0.4], [-0.5, 0.6, 0.7, 0.8]])
        assert block[:, 5].tolist() == concavity[:, 4].tolist()
        assert np.array_equal(block[:, 6:], struct)
        assert future_feature_vector([], np.zeros((0, 5)), struct[:0]).shape == (0, len(FUTURE_FEATURE_NAMES))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidArgument):
            future_feature_vector(
                [0.5, np.nan], np.zeros((2, 5)), demographic_block([DEMO] * 2, [0.62] * 2)
            )


def _toy_model(rng, n=600):
    """Horizon classes separated along the trend coordinate."""
    labels = rng.integers(0, 6, size=n)
    x = rng.standard_normal((n, 13)) * 0.1
    x[:, 5] += (5 - labels) * 1.5  # trend rises with severity
    y = np.array([HORIZON_ORDER[i].value for i in labels])
    model, _ = train_logistic(x, y)
    return model, x, labels


class TestPrediction:
    def test_distribution_is_valid(self):
        # one block call: every row a distribution, each row within 1e-12 of
        # the same row scored alone (BLAS may take another kernel for N rows)
        rng = np.random.default_rng(0)
        model, x, _ = _toy_model(rng)
        block = predict_future_risk(x, model)
        assert block.shape == (x.shape[0], len(HORIZON_ORDER))
        assert np.allclose(block.sum(axis=1), 1.0, rtol=0.0, atol=1e-9)
        assert np.all(block >= 0.0)
        alone = np.vstack([predict_future_risk(row[None], model) for row in x])
        assert np.max(np.abs(block - alone)) <= 1e-12
        assert predict_future_risk(x[:0], model).shape == (0, len(HORIZON_ORDER))

    def test_absent_classes_fill_with_zero(self):
        # model trained on just two horizons still reports all six
        rng = np.random.default_rng(1)
        x = rng.standard_normal((40, 13))
        y = np.array([HorizonLabel.WITHIN_1Y.value] * 20 + [HorizonLabel.NON_COPD.value] * 20)
        x[:20, 5] += 3.0
        model, _ = train_logistic(x, y)
        block = predict_future_risk(x, model)
        # the model's columns are its sorted classes; the block's follow HORIZON_ORDER
        assert model.classes.tolist() == ["NON_COPD", "WITHIN_1Y"]
        seen = [HORIZON_ORDER.index(HorizonLabel.NON_COPD), HORIZON_ORDER.index(HorizonLabel.WITHIN_1Y)]
        assert np.array_equal(block[:, seen], model.predict_proba(x))
        assert np.all(np.delete(block, seen, axis=1) == 0.0)

    def test_monotone_response_to_trend(self):
        # pushing the trend feature up shifts mass toward nearer horizons
        rng = np.random.default_rng(2)
        model, _, _ = _toy_model(rng)
        rows = np.zeros((2, 13))
        rows[1, 5] = 8.0
        lows, highs = predict_future_risk(rows, model)
        near, far = HORIZON_ORDER.index(HorizonLabel.WITHIN_1Y), HORIZON_ORDER.index(HorizonLabel.NON_COPD)
        assert highs[near] > lows[near]
        assert highs[far] < lows[far]

    def test_feature_permutation_consistency(self):
        # shuffling training rows must not change the fitted mapping inputs see
        rng = np.random.default_rng(3)
        model, x, labels = _toy_model(rng)
        perm = rng.permutation(x.shape[0])
        y = np.array([HORIZON_ORDER[i].value for i in labels])
        model_perm, _ = train_logistic(x[perm], y[perm])
        # same data, different order: predictions agree closely on a probe set
        probe = rng.standard_normal((20, 13))
        a = model.predict_proba(probe)
        b = model_perm.predict_proba(probe)
        assert np.allclose(a, b, atol=0.05)


class TestTopHorizon:
    # predict labels a row with HORIZON_ORDER[argmax], which takes the first
    # of tied columns
    @staticmethod
    def _model(favoured=None):
        """Zero-weight model over all six classes, sorted as train_logistic
        writes them; the favoured class gets a bias of 3."""
        classes = np.array(sorted(label.value for label in HORIZON_ORDER))
        bias = np.where(classes == favoured, 3.0, 0.0)
        return LogisticModel(np.zeros((6, 13)), bias, classes, mean=np.zeros(13), scale=np.ones(13))

    def test_picks_argmax(self):
        block = predict_future_risk(np.ones((3, 13)), self._model(HorizonLabel.WITHIN_4Y.value))
        assert [HORIZON_ORDER[i] for i in np.argmax(block, axis=1)] == [HorizonLabel.WITHIN_4Y] * 3

    def test_tie_breaks_to_nearer_horizon(self):
        assert HORIZON_ORDER[0] is HorizonLabel.WITHIN_1Y
        block = predict_future_risk(np.ones((2, 13)), self._model())
        assert np.all(block == 1.0 / 6.0)
        assert HORIZON_ORDER[int(np.argmax(block[0]))] is HorizonLabel.WITHIN_1Y

import numpy as np
import pytest

from spiroflow.attention import DemographicEncoder, DemographicRecord
from spiroflow.errors import InvalidArgument, NotTrained
from spiroflow.horizon import (
    FUTURE_FEATURE_NAMES,
    HORIZON_ORDER,
    HorizonLabel,
    future_feature_vector,
    predict_future_risk,
    top_horizon,
)
from spiroflow.phases import ConcavityProfile
from spiroflow.training import LogisticModel, TrainConfig, train_logistic


ENC = DemographicEncoder(age_mean=55.0, age_std=10.0)
DEMO = DemographicRecord("male", 60.0, "current", 0.62)


class TestFeatureVector:
    def test_width_and_order(self):
        profiles = [ConcavityProfile(0.1, 0.2, -0.3, -0.4), ConcavityProfile(-0.5, 0.6, 0.7, 0.8)]
        demos = [DEMO, DemographicRecord("female", 45.0, "never", 0.8)]
        block = future_feature_vector([0.7, 0.2], profiles, demos, ENC)
        assert block.shape == (2, len(FUTURE_FEATURE_NAMES)) and len(FUTURE_FEATURE_NAMES) == 13
        assert block[:, 0].tolist() == [0.7, 0.2]
        assert np.allclose(block[:, 1:5], [[0.1, 0.2, -0.3, -0.4], [-0.5, 0.6, 0.7, 0.8]])
        assert block[:, 5].tolist() == [p.trend for p in profiles]
        assert np.array_equal(block[:, 6:], ENC.transform(demos))
        assert future_feature_vector([], [], [], ENC).shape == (0, len(FUTURE_FEATURE_NAMES))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidArgument):
            future_feature_vector([0.5, np.nan], [ConcavityProfile(0, 0, 0, 0)] * 2, [DEMO] * 2, ENC)

    def test_unfitted_encoder_rejected(self):
        with pytest.raises(NotTrained):
            future_feature_vector([0.5], [ConcavityProfile(0, 0, 0, 0)], [DEMO], DemographicEncoder())


def _toy_model(rng, n=600):
    """Horizon classes separated along the trend coordinate."""
    labels = rng.integers(0, 6, size=n)
    x = rng.standard_normal((n, 13)) * 0.1
    x[:, 5] += (5 - labels) * 1.5  # trend rises with severity
    y = np.array([HORIZON_ORDER[i].value for i in labels])
    model = train_logistic(x, y, TrainConfig(lr=0.3, epochs=120, batch_size=64, seed=0))
    return model, x, labels


class TestPrediction:
    def test_distribution_is_valid(self):
        rng = np.random.default_rng(0)
        model, x, _ = _toy_model(rng)
        for row in x[:50]:
            dist = predict_future_risk(row, model)
            assert set(dist) == set(HORIZON_ORDER)
            total = sum(dist.values())
            assert total == pytest.approx(1.0, abs=1e-9)
            assert all(p >= 0.0 for p in dist.values())

    def test_absent_classes_fill_with_zero(self):
        # model trained on just two horizons still reports all six
        rng = np.random.default_rng(1)
        x = rng.standard_normal((40, 13))
        y = np.array([HorizonLabel.WITHIN_1Y.value] * 20 + [HorizonLabel.NON_COPD.value] * 20)
        x[:20, 5] += 3.0
        model = train_logistic(x, y, TrainConfig(lr=0.3, epochs=50, seed=0))
        dist = predict_future_risk(x[0], model)
        assert set(dist) == set(HORIZON_ORDER)
        assert dist[HorizonLabel.WITHIN_3Y] == 0.0

    def test_monotone_response_to_trend(self):
        # pushing the trend feature up shifts mass toward nearer horizons
        rng = np.random.default_rng(2)
        model, _, _ = _toy_model(rng)
        base = np.zeros(13)
        lows = predict_future_risk(base, model)
        high = base.copy()
        high[5] = 8.0
        highs = predict_future_risk(high, model)
        assert highs[HorizonLabel.WITHIN_1Y] > lows[HorizonLabel.WITHIN_1Y]
        assert highs[HorizonLabel.NON_COPD] < lows[HorizonLabel.NON_COPD]

    def test_untrained_model_rejected(self):
        with pytest.raises(NotTrained):
            predict_future_risk(np.zeros(13), LogisticModel())

    def test_feature_permutation_consistency(self):
        # shuffling training rows must not change the fitted mapping inputs see
        rng = np.random.default_rng(3)
        model, x, labels = _toy_model(rng)
        perm = rng.permutation(x.shape[0])
        y = np.array([HORIZON_ORDER[i].value for i in labels])
        model_perm = train_logistic(x[perm], y[perm], TrainConfig(lr=0.3, epochs=120, batch_size=64, seed=0))
        # same data, different order: predictions agree closely on a probe set
        probe = rng.standard_normal((20, 13))
        a = model.predict_proba(probe)
        b = model_perm.predict_proba(probe)
        assert np.allclose(a, b, atol=0.05)


class TestTopHorizon:
    def test_picks_argmax(self):
        dist = {label: 0.0 for label in HORIZON_ORDER}
        dist[HorizonLabel.WITHIN_4Y] = 0.9
        assert top_horizon(dist) is HorizonLabel.WITHIN_4Y

    def test_tie_breaks_to_nearer_horizon(self):
        dist = {label: 1.0 / 6.0 for label in HORIZON_ORDER}
        assert top_horizon(dist) is HorizonLabel.WITHIN_1Y

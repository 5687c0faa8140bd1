import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from spiroflow.attention import DemographicRecord
from spiroflow.errors import UndefinedMetric
from spiroflow.metrics import (
    age_bin,
    auprc,
    auroc,
    confusion_counts,
    f1_score,
    metrics_report,
    subgroup_reports,
)


def pair_count_auroc(scores, labels):
    """Brute-force tie-aware pair counting: P(pos > neg) + 0.5 P(tie)."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (pos.size * neg.size)


def exhaustive_auprc(scores, labels):
    """Step integral over every distinct threshold, computed directly."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = labels.sum()
    area = 0.0
    prev_recall = 0.0
    for t in sorted(set(scores.tolist()), reverse=True):
        preds = scores >= t
        tp = int(np.sum(preds & (labels == 1)))
        fp = int(np.sum(preds & (labels == 0)))
        recall = tp / n_pos
        precision = tp / (tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


class TestAuroc:
    def test_perfect_ranking(self):
        assert auroc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_inverted_ranking(self):
        assert auroc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_all_tied(self):
        assert auroc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == pytest.approx(0.5)

    def test_hand_case_with_one_tie(self):
        # pairs: (0.9,0.4)=1, (0.9,0.6)=1, (0.6,0.4)=1, (0.6,0.6)=0.5 -> 3.5/4
        assert auroc([0.9, 0.6, 0.6, 0.4], [1, 1, 0, 0]) == pytest.approx(0.875)

    def test_matches_pair_counting_on_random_sets(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(4, 15))
            scores = rng.choice([0.1, 0.2, 0.3, 0.5, 0.9], size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                continue
            assert auroc(scores, labels) == pytest.approx(pair_count_auroc(scores, labels), abs=1e-12)

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetric):
            auroc([0.1, 0.9], [1, 1])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.random(20)
        labels = rng.integers(0, 2, size=20)
        labels[0], labels[1] = 0, 1
        assert auroc(scores, labels) == pytest.approx(auroc(np.exp(3 * scores), labels), abs=1e-12)


class TestAuprc:
    def test_perfect_ranking(self):
        assert auprc([0.9, 0.8, 0.2], [1, 1, 0]) == 1.0

    def test_hand_case(self):
        # thresholds 0.9: P=1, R=0.5; 0.4: P=2/3, R=1 -> 0.5*1 + 0.5*2/3
        assert auprc([0.9, 0.4, 0.4], [1, 1, 0]) == pytest.approx(0.5 + 0.5 * 2 / 3)

    def test_matches_exhaustive_thresholds(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            n = int(rng.integers(3, 15))
            scores = rng.choice([0.1, 0.25, 0.5, 0.8], size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                continue
            assert auprc(scores, labels) == pytest.approx(exhaustive_auprc(scores, labels), abs=1e-12)

    def test_no_positives_undefined(self):
        with pytest.raises(UndefinedMetric):
            auprc([0.1, 0.9], [0, 0])


class TestF1:
    def test_hand_case(self):
        # TP=2, FP=1, FN=1: precision 2/3, recall 2/3 -> F1 = 2/3
        preds = [1, 1, 1, 0, 0]
        labels = [1, 1, 0, 1, 0]
        assert f1_score(preds, labels) == pytest.approx(2.0 / 3.0)

    def test_perfect(self):
        assert f1_score([1, 0, 1], [1, 0, 1]) == 1.0

    def test_no_true_positives(self):
        assert f1_score([0, 0], [1, 1]) == 0.0
        assert f1_score([1, 1], [0, 0]) == 0.0

    def test_confusion_counts(self):
        counts = confusion_counts([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
        assert counts == {"tp": 2, "fp": 1, "fn": 1, "tn": 1}

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=30))
    def test_between_zero_and_one(self, pairs):
        preds = [p for p, _ in pairs]
        labels = [l for _, l in pairs]
        assert 0.0 <= f1_score(preds, labels) <= 1.0


class TestReport:
    def test_fields_and_threshold(self):
        report = metrics_report([0.9, 0.7, 0.3, 0.1], [1, 1, 0, 0], threshold=0.5, split="test")
        assert report["split"] == "test"
        assert report["auroc"] == 1.0
        assert report["f1"] == 1.0
        assert report["n"] == 4
        assert report["prevalence"] == 0.5

    def test_threshold_is_strict(self):
        # a score exactly at the threshold predicts negative
        report = metrics_report([0.5, 0.9, 0.1, 0.2], [1, 1, 0, 0], threshold=0.5)
        assert report["f1"] == pytest.approx(2 / 3)


class TestSubgroups:
    @staticmethod
    def _demos():
        return [
            DemographicRecord("male", 40.0, "current"),
            DemographicRecord("male", 50.0, "never"),
            DemographicRecord("female", 60.0, "former"),
            DemographicRecord("female", 44.0, "current"),
            DemographicRecord("male", 70.0, "current"),
            DemographicRecord("female", 52.0, "never"),
        ]

    def test_age_bins(self):
        assert age_bin(30) == "Youth"
        assert age_bin(44.9) == "Youth"
        assert age_bin(45) == "Middle"
        assert age_bin(54.9) == "Middle"
        assert age_bin(55) == "Elderly"

    def test_sex_slicing(self):
        scores = [0.9, 0.2, 0.8, 0.7, 0.6, 0.1]
        labels = [1, 0, 1, 1, 1, 0]
        out = subgroup_reports(scores, labels, self._demos(), by="sex")
        assert set(out) == {"male", "female"}
        assert out["male"]["n"] == 3
        assert out["female"]["n"] == 3

    def test_smoke_slicing_groups_current_vs_rest(self):
        scores = [0.9, 0.2, 0.8, 0.7, 0.6, 0.1]
        labels = [1, 0, 1, 0, 1, 0]
        out = subgroup_reports(scores, labels, self._demos(), by="smoke")
        assert set(out) == {"smoker", "non-smoker"}
        assert out["smoker"]["n"] == 3

    def test_single_class_subgroup_skipped(self):
        demos = self._demos()
        scores = [0.9, 0.2, 0.8, 0.7, 0.6, 0.1]
        labels = [1, 1, 1, 1, 1, 0]  # males all positive
        out = subgroup_reports(scores, labels, demos, by="sex")
        assert "male" not in out
        assert "female" in out

    def test_unknown_axis_rejected(self):
        with pytest.raises(UndefinedMetric):
            subgroup_reports([0.5], [1], self._demos()[:1], by="height")

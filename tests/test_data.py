import numpy as np
import pytest

from spiroflow.curves import TimeVolumeCurve, differentiate_flow, fev1_fvc_ratio, gaussian_smooth, volume_flow_curve
from spiroflow.data import (
    DEFAULT_TEMPLATES,
    CohortSpec,
    generate_synthetic_cohort,
    load_time_volume_csv,
    template_curve,
    write_time_volume_csv,
)
from spiroflow.errors import InvalidSpec, ParseError, ValidationError
from spiroflow.horizon import HORIZON_ORDER, HorizonLabel
from spiroflow.phases import concavity_features


class TestCohortGeneration:
    def test_seeded_runs_are_identical(self):
        spec = CohortSpec(n_per_class=3, noise=0.2, seed=5)
        a = generate_synthetic_cohort(spec)
        b = generate_synthetic_cohort(spec)
        assert len(a) == len(b) == 18
        for ra, rb in zip(a, b):
            assert ra.record_id == rb.record_id
            assert np.array_equal(ra.curve.samples, rb.curve.samples)
            assert ra.demo == rb.demo

    def test_different_seeds_differ(self):
        a = generate_synthetic_cohort(CohortSpec(n_per_class=2, noise=0.2, seed=0))
        b = generate_synthetic_cohort(CohortSpec(n_per_class=2, noise=0.2, seed=1))
        assert not np.array_equal(a[0].curve.samples, b[0].curve.samples)

    def test_binary_label_marks_every_class_but_healthy(self, small_cohort):
        for rec in small_cohort:
            assert rec.copd == (0 if rec.horizon is HorizonLabel.NON_COPD else 1)

    def test_volumes_non_decreasing(self, small_cohort):
        for rec in small_cohort:
            assert np.all(np.diff(rec.curve.samples) >= 0)

    def test_ratio_matches_curve(self, small_cohort):
        # the generated curves rise to their last sample, so FVC is that sample
        ratios = fev1_fvc_ratio([rec.curve for rec in small_cohort])
        for rec, ratio in zip(small_cohort, ratios):
            v = rec.curve.samples
            assert v.size > 100 and v[-1] == v.max()
            assert ratio == v[100] / v[-1]

    def test_invalid_spec_rejected(self):
        with pytest.raises(InvalidSpec):
            CohortSpec(n_per_class=0)
        with pytest.raises(InvalidSpec):
            CohortSpec(n_per_class=1, noise=-0.1)


class TestSeverityLadder:
    @staticmethod
    def _mean_trends(noise, seed):
        # the cohort preprocessed and measured in one batched call each
        cohort = generate_synthetic_cohort(CohortSpec(n_per_class=5, noise=noise, seed=seed))
        smoothed = gaussian_smooth([rec.curve for rec in cohort])
        trends = concavity_features(volume_flow_curve(smoothed, differentiate_flow(smoothed)))[:, 4]
        horizons = np.array([rec.horizon.value for rec in cohort])
        return [float(trends[horizons == label.value].mean()) for label in HORIZON_ORDER]

    def test_noiseless_trend_strictly_decreasing(self):
        trends = self._mean_trends(0.0, 0)
        assert all(a > b for a, b in zip(trends, trends[1:]))

    def test_noisy_trend_preserves_ordering(self):
        trends = self._mean_trends(0.1, 3)
        assert all(a > b for a, b in zip(trends, trends[1:]))

    def test_templates_capture_severity(self):
        severe = DEFAULT_TEMPLATES[HorizonLabel.WITHIN_1Y]
        healthy = DEFAULT_TEMPLATES[HorizonLabel.NON_COPD]
        assert severe.fvc < healthy.fvc
        assert severe.pef < healthy.pef
        # mid-exhalation flow fraction collapses with severity
        assert severe.flow_at(0.5 * severe.fvc) / severe.pef < healthy.flow_at(0.5 * healthy.fvc) / healthy.pef

    def test_template_curve_reaches_capacity(self):
        for label in HORIZON_ORDER:
            t = DEFAULT_TEMPLATES[label]
            v = template_curve(t)
            assert v[-1] >= 0.995 * t.fvc - 1e-9
            assert v[0] == 0.0


class TestCsv:
    def test_round_trip(self, tmp_path, small_cohort):
        path = tmp_path / "curves.csv"
        records = [(rec.record_id, rec.curve) for rec in small_cohort[:8]]
        write_time_volume_csv(path, records)
        loaded = load_time_volume_csv(path)
        assert len(loaded) == 8
        for (id_a, curve_a), (id_b, curve_b) in zip(records, loaded):
            assert id_a == id_b
            assert np.allclose(curve_a.samples, curve_b.samples, atol=1e-9)

    def test_writes_the_bytes_of_csv_writer(self, tmp_path, small_cohort):
        # the reference: one csv cell per sample, each its float's repr
        import csv

        ids = ["plain", "with,comma", 'with"quote', '"', "two\nlines", "cr\rhere", " spaced ", "", "tab\there", "é"]
        records = [(blow_id, rec.curve) for blow_id, rec in zip(ids, small_cohort)]
        records.append(("tiny", TimeVolumeCurve(np.array([0.0, 1e-05, 0.1 + 0.2, 1e16, 4.0]))))
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            for blow_id, curve in records:
                writer.writerow([blow_id] + [repr(v) for v in (curve.samples * 1000.0).tolist()])
        path = tmp_path / "curves.csv"
        write_time_volume_csv(path, records)
        assert path.read_bytes() == reference.read_bytes()

    def test_milliliters_to_liters(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("blow_1,0,1500,3000\n")
        [(blow_id, curve)] = load_time_volume_csv(path)
        assert blow_id == "blow_1"
        assert np.allclose(curve.samples, [0.0, 1.5, 3.0])

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("a,0,100,200\n\n , \nb,0,50,80\n")
        assert [bid for bid, _ in load_time_volume_csv(path)] == ["a", "b"]

    def test_malformed_cell_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,0,100\nb,0,oops,200\n")
        with pytest.raises(ParseError, match="row 2"):
            load_time_volume_csv(path)

    def test_negative_volume_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("a,0,-5,100\n")
        with pytest.raises(ValidationError):
            load_time_volume_csv(path)

    def test_too_short_row_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("a,100\n")
        with pytest.raises(ParseError):
            load_time_volume_csv(path)


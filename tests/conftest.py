import pytest

from spiroflow.curves import differentiate_flow, gaussian_smooth, volume_flow_curve
from spiroflow.data import CohortSpec, generate_synthetic_cohort


@pytest.fixture(scope="session")
def small_cohort():
    return generate_synthetic_cohort(CohortSpec(n_per_class=6, noise=0.1, seed=42))


@pytest.fixture(scope="session")
def small_cohort_series(small_cohort):
    """Per-record (flow series, Volume-Flow curve, binary label, horizon)."""
    smoothed = gaussian_smooth([rec.curve for rec in small_cohort])
    vfs = volume_flow_curve(smoothed, differentiate_flow(smoothed))
    return [(vf.flows, vf, rec.copd, rec.horizon) for vf, rec in zip(vfs, small_cohort)]

"""Spirometry curve analysis, COPD detection and future-risk prediction."""

__version__ = "0.1.0"

from .curves import differentiate_flow, gaussian_smooth, volume_flow_curve
from .data import CohortSpec, generate_synthetic_cohort

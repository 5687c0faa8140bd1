"""Future-risk features and multi-horizon onset classification.

The feature block concatenates, per record, the fused COPD risk, the four
phase concavities, the concavity trend and the raw demographics; a trained
multinomial logistic model, which standardizes each column itself, maps it
to a distribution over six onset horizons.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .attention import STRUCT_FEATURE_NAMES, DemographicRecord, demographic_block
from .errors import InvalidArgument
from .phases import ConcavityProfile
from .training import LogisticModel


class HorizonLabel(str, Enum):
    WITHIN_1Y = "WITHIN_1Y"
    WITHIN_2Y = "WITHIN_2Y"
    WITHIN_3Y = "WITHIN_3Y"
    WITHIN_4Y = "WITHIN_4Y"
    YEAR_5_PLUS = "YEAR_5_PLUS"
    NON_COPD = "NON_COPD"


HORIZON_ORDER = list(HorizonLabel)

FUTURE_FEATURE_NAMES = (
    "fused_risk",
    "c_pef_fef25",
    "c_fef25_fef50",
    "c_fef50_fef75",
    "c_fef75_plus",
    "concavity_trend",
) + STRUCT_FEATURE_NAMES


def future_feature_vector(risks, profiles: list[ConcavityProfile], demos: list[DemographicRecord]) -> np.ndarray:
    """(N, 13) block in FUTURE_FEATURE_NAMES order, one row per record:
    fused risk, four concavities, trend, demographic_block row."""
    concavities = np.array([[*p.as_array(), p.trend] for p in profiles], dtype=float).reshape(-1, 5)
    vecs = np.column_stack([np.asarray(risks, dtype=float), concavities, demographic_block(demos)])
    if not np.all(np.isfinite(vecs)):
        raise InvalidArgument("future feature vector must be finite")
    return vecs


def predict_future_risk(rows: np.ndarray, model: LogisticModel) -> np.ndarray:
    """(N, 6) onset-horizon probabilities of the (N, 13) block, columns in
    HORIZON_ORDER order, from one predict_proba call; a class the model
    never saw is a column of 0.0."""
    probs = model.predict_proba(rows)
    out = np.zeros((probs.shape[0], len(HORIZON_ORDER)))
    out[:, [HORIZON_ORDER.index(HorizonLabel(c)) for c in model.classes]] = probs
    return out

"""Future-risk features and multi-horizon onset classification.

The feature block concatenates, per record, the fused COPD risk, its row
of the concavity block (phases.concavity_features: the four phase
concavities and their trend) and the structural row (the raw
demographics and the curve's FEV1/FVC ratio); a trained multinomial
logistic model, which standardizes each column itself, maps it to a
distribution over six onset horizons.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .attention import STRUCT_FEATURE_NAMES
from .errors import InvalidArgument
from .phases import CONCAVITY_NAMES
from .training import LogisticModel


class HorizonLabel(str, Enum):
    WITHIN_1Y = "WITHIN_1Y"
    WITHIN_2Y = "WITHIN_2Y"
    WITHIN_3Y = "WITHIN_3Y"
    WITHIN_4Y = "WITHIN_4Y"
    YEAR_5_PLUS = "YEAR_5_PLUS"
    NON_COPD = "NON_COPD"


HORIZON_ORDER = list(HorizonLabel)

FUTURE_FEATURE_NAMES = ("fused_risk", *CONCAVITY_NAMES, "concavity_trend") + STRUCT_FEATURE_NAMES


def future_feature_vector(risks, concavity: np.ndarray, struct: np.ndarray) -> np.ndarray:
    """(N, 13) block in FUTURE_FEATURE_NAMES order, one row per record:
    fused risk, its (N, 5) concavity_features row (four concavities,
    trend), its struct (demographic_block) row."""
    vecs = np.column_stack([np.asarray(risks, dtype=float), concavity, struct])
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

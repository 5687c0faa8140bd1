"""Spirometry curve analysis, COPD detection and future-risk prediction."""

__version__ = "0.1.0"

from .curves import (
    SmootherConfig,
    TimeFlowCurve,
    TimeVolumeCurve,
    VolumeFlowCurve,
    differentiate_flow,
    gaussian_smooth,
    resample_on_volume_grid,
    volume_flow_curve,
)
from .phases import (
    ConcavityProfile,
    Landmarks,
    Phase,
    PhaseLabel,
    baseline_line,
    concavity_features,
    concavity_measure,
    concavity_trend,
    locate_landmarks,
    phases_from_landmarks,
)
from .encoder import BiLstmParams, ConvEncoderParams, PatchPlan, pad_rows, patch_plan
from .attention import (
    AttentionParams,
    DemographicEncoder,
    DemographicRecord,
    HeadParams,
    attention_overlay,
    fuse_and_score,
    overlay_svg,
)
from .detection import DetectionConfig, DetectionModel
from .horizon import (
    HORIZON_ORDER,
    HorizonLabel,
    future_feature_vector,
    predict_future_risk,
    top_horizon,
)
from .training import LogisticModel, TrainConfig, cross_entropy, grad_check, train_logistic
from .metrics import auprc, auroc, f1_score, group_medoid, metrics_report, subgroup_reports
from .data import (
    CohortRecord,
    CohortSpec,
    LabelCodeTable,
    derive_copd_label,
    generate_synthetic_cohort,
    load_time_volume_csv,
    qc_filter,
    write_time_volume_csv,
)

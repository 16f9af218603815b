"""Evidential-uncertainty calculus with class-cardinality auditing.

Vacuity (K / total Dirichlet strength) depends on the evaluated class
count, so detection scores computed over different class counts for the
ID and OOD sides are not comparable: expanding only the OOD side inflates
AUROC/AUPR without any change in model predictions. This package provides
columnar prediction sets (``RecordBatch``) scored as (n, K) evidence
matrices, from-scratch AUROC/AUPR, the experiments that expose the
inflation artefact, a toy evidential classifier, and a CLI that refuses
mismatched comparisons unless explicitly overridden.
"""

from .dirichlet import EvidenceRecord, Group, append_classes, remove_class
from .experiments import (
    INVARIANCE_EVIDENCE,
    MIXED,
    AuditReport,
    CardinalityMismatchError,
    ExpansionMode,
    ExpansionRun,
    ExpansionSpec,
    Metric,
    Orientation,
    RestrictionResult,
    Verdict,
    audit_cardinality,
    mismatch_warning,
    run_expansion_experiment,
    run_restriction_experiment,
    score_group,
    score_record,
)
from .losses import softplus_evidence
from .metrics import (
    DetectionResult,
    ScoredSample,
    aupr,
    aupr_baseline,
    aupr_scores,
    auroc,
    auroc_scores,
    evaluate_detection,
    evaluate_scores,
)
from .records import RecordBatch, RecordParseError, parse_records, serialize_records
from .special import digamma, gamma_family, log_gamma
from .synthetic import (
    PopulationParams,
    generate_evidence_population,
    generate_toy_classification,
    overlap_population_params,
    stream_rng,
)
from .toy import (
    LossBreakdown,
    RbfFeaturizer,
    ToyBatch,
    ToyModelGrads,
    ToyModelParams,
    ToyTrainConfig,
    ToyTrainResult,
    TrainingDiverged,
    TrainingMode,
    far_probe_points,
    init_params,
    loss_gradient,
    predict_alpha,
    total_loss,
    train_toy,
)

__version__ = "0.1.0"

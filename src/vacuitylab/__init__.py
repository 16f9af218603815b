"""Evidential-uncertainty calculus with class-cardinality auditing.

Vacuity (K / total Dirichlet strength) depends on the evaluated class
count, so detection scores computed over different class counts for the
ID and OOD sides are not comparable: expanding only the OOD side inflates
AUROC/AUPR without any change in model predictions. This package provides
columnar prediction sets (``RecordBatch``) scored as (n, K) evidence
matrices, from-scratch AUROC/AUPR, the experiments that expose the
inflation artefact, a toy evidential classifier, and a CLI that refuses
mismatched comparisons unless explicitly overridden.

``import vacuitylab`` loads no submodule: each public name is looked up in
its submodule the first time it is used (PEP 562), so a CLI command loads
only the modules it runs.
"""

import importlib

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "dirichlet": ("EvidenceRecord", "append_classes", "remove_class"),
        "experiments": (
            "INVARIANCE_EVIDENCE", "MIXED", "AuditReport", "CardinalityMismatchError", "ExpansionMode",
            "ExpansionRun", "ExpansionSpec", "Metric", "Orientation", "RestrictionResult", "Verdict",
            "audit_cardinality", "evaluate_groups", "run_expansion_experiment", "run_restriction_experiment",
            "score_group", "score_record",
        ),
        "metrics": (
            "DetectionResult", "ScoredSample", "aupr", "aupr_baseline", "aupr_scores", "auroc",
            "auroc_scores", "evaluate_detection", "evaluate_scores",
        ),
        "records": (
            "Group", "RecordBatch", "RecordParseError", "parse_records", "serialize_records", "softplus_evidence",
        ),
        "special": ("digamma", "gamma_family", "log_gamma"),
        "synthetic": (
            "PopulationParams", "generate_evidence_population", "generate_toy_classification",
            "overlap_population_params", "stream_rng",
        ),
        "toy": (
            "LossBreakdown", "RbfFeaturizer", "ToyBatch", "ToyModelGrads", "ToyModelParams", "ToyTrainConfig",
            "ToyTrainResult", "TrainingDiverged", "TrainingMode", "far_probe_points", "init_params",
            "loss_gradient", "predict_alpha", "total_loss", "train_toy",
        ),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    # not cached here, so the name always is its submodule's current attribute
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""Class-cardinality audit and the expansion / restriction experiments.

The central trap these experiments expose: vacuity u = K/S is not
comparable across different K. Appending zero-evidence classes to the
OOD group alone drives every OOD vacuity up by (S - K) / (S (S + 1)) per
class while ID scores stand still, so AUROC/AUPR climb without any change
in model predictions. Appending to *both* groups is a rank-preserving
reparameterization and leaves both metrics bit-identical.

All experiment functions treat input records as read-only and return
fresh ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .dirichlet import EvidenceRecord, Group, remove_class
from .metrics import DetectionResult, ScoredSample, evaluate_scores

MIXED = "MIXED"

# Sentinel accepted by ExpansionSpec.appended_evidence: append each record's
# own invariance evidence S/K - 1 instead of a fixed value.
INVARIANCE_EVIDENCE = "invariance"


class Verdict(str, Enum):
    PASS = "PASS"
    FAIL = "FAIL"


class Metric(str, Enum):
    VACUITY = "vacuity"
    MP = "mp"
    NORM_ENTROPY = "entropy"


class Orientation(str, Enum):
    ID_POSITIVE = "id-pos"
    OOD_POSITIVE = "ood-pos"


class ExpansionMode(str, Enum):
    OOD_ONLY = "ood-only"
    MATCHED = "matched"


class CardinalityMismatchError(ValueError):
    """Raised when an experiment would compare groups with different K."""


@dataclass(frozen=True)
class AuditReport:
    """Outcome of the K_ID = K_OOD check; detail lists (record id, K) offenders."""

    k_id: int | str
    k_ood: int | str
    verdict: Verdict
    detail: tuple[tuple[str, int], ...]

    def to_dict(self) -> dict:
        return {
            "k_id": self.k_id,
            "k_ood": self.k_ood,
            "verdict": self.verdict.value,
            "detail": [{"id": rid, "k": k} for rid, k in self.detail],
        }


def _group_k(records: Sequence[EvidenceRecord]) -> int | str:
    ks = {r.k for r in records}
    return ks.pop() if len(ks) == 1 else MIXED


def audit_cardinality(
    id_records: Sequence[EvidenceRecord], ood_records: Sequence[EvidenceRecord]
) -> AuditReport:
    """PASS iff every record in both groups shares one class count."""
    if not id_records or not ood_records:
        raise ValueError("both record groups must be non-empty")
    k_id = _group_k(id_records)
    k_ood = _group_k(ood_records)
    ok = k_id != MIXED and k_id == k_ood
    detail: tuple[tuple[str, int], ...] = ()
    if not ok:
        # offenders are everything deviating from the most common K over
        # both groups (ties resolved toward the smaller K)
        counts: dict[int, int] = {}
        for r in list(id_records) + list(ood_records):
            counts[r.k] = counts.get(r.k, 0) + 1
        reference = min(k for k, c in counts.items() if c == max(counts.values()))
        detail = tuple(
            (r.id, r.k) for r in list(id_records) + list(ood_records) if r.k != reference
        )
    return AuditReport(
        k_id=k_id,
        k_ood=k_ood,
        verdict=Verdict.PASS if ok else Verdict.FAIL,
        detail=detail,
    )


def _evidence_matrix(records: Sequence[EvidenceRecord]) -> np.ndarray:
    """The (n, K) evidence matrix of records that share one class count."""
    return np.array([r.evidence for r in records], dtype=float)


def _score_evidence(evidence: np.ndarray, metric: Metric, orientation: Orientation) -> np.ndarray:
    """Detection score of every row of an (n, K) evidence matrix.

    alpha = e + 1 and S = the row sum of alpha, summed the way
    ``dirichlet_state`` sums one record, so each score equals the
    per-record ``vacuity`` / ``max_probability`` / ``normalized_entropy``
    value bit for bit.
    """
    alpha = evidence + 1.0
    strength = alpha.sum(axis=1)
    if not np.isfinite(strength).all():
        raise ValueError("evidence and its sum S must be finite")
    id_positive = orientation is Orientation.ID_POSITIVE
    if metric is Metric.VACUITY:
        u = alpha.shape[1] / strength
        return 1.0 / u if id_positive else u
    if metric is Metric.MP:
        mp = alpha.max(axis=1) / strength
        return mp if id_positive else 1.0 - mp
    p = alpha / strength[:, None]
    h = np.clip((-(p * np.log2(p))).sum(axis=1) / math.log2(alpha.shape[1]), 0.0, 1.0)
    return 1.0 - h if id_positive else h


def _labels(records: Sequence[EvidenceRecord], orientation: Orientation) -> np.ndarray:
    positive = Group.ID if orientation is Orientation.ID_POSITIVE else Group.OOD
    return np.fromiter((r.group is positive for r in records), dtype=int, count=len(records))


def score_record(record: EvidenceRecord, metric: Metric, orientation: Orientation) -> float:
    return float(_score_evidence(_evidence_matrix([record]), metric, orientation)[0])


def score_group(
    records: Sequence[EvidenceRecord],
    metric: Metric,
    orientation: Orientation = Orientation.ID_POSITIVE,
) -> list[ScoredSample]:
    """Score records for detection: higher = more positive-class.

    ID_POSITIVE labels ID records 1 and scores with 1/u, MP, or
    1 - H/log2(K); OOD_POSITIVE flips the labels and uses u, 1 - MP, or
    H/log2(K). Either orientation yields the same AUROC. Records may mix
    class counts.
    """
    labels = _labels(records, orientation)
    return [
        ScoredSample(score=score_record(r, metric, orientation), label=int(label))
        for r, label in zip(records, labels)
    ]


def evaluate_groups(
    id_records: Sequence[EvidenceRecord],
    ood_records: Sequence[EvidenceRecord],
    metric: Metric,
    orientation: Orientation,
    k_id: int,
    k_ood: int,
) -> DetectionResult:
    """Detection metrics of two groups, each of one class count, scored as evidence matrices.

    Labels follow each record's ``group`` field, as in ``score_group``.
    """
    scores = np.concatenate(
        [_score_evidence(_evidence_matrix(g), metric, orientation) for g in (id_records, ood_records)]
    )
    labels = _labels(list(id_records) + list(ood_records), orientation)
    return evaluate_scores(scores, labels, metric.value, k_id, k_ood)


@dataclass(frozen=True)
class ExpansionSpec:
    """How to expand class cardinality: which group, to which K, with what evidence."""

    mode: ExpansionMode
    k_targets: tuple[int, ...]
    appended_evidence: float | str = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", ExpansionMode(self.mode))
        object.__setattr__(self, "k_targets", tuple(int(k) for k in self.k_targets))
        if isinstance(self.appended_evidence, str):
            if self.appended_evidence != INVARIANCE_EVIDENCE:
                raise ValueError(
                    f"appended_evidence must be a non-negative number or "
                    f"{INVARIANCE_EVIDENCE!r}, got {self.appended_evidence!r}"
                )
        elif self.appended_evidence < 0:
            raise ValueError("appended_evidence must be >= 0")


@dataclass(frozen=True)
class ExpansionRun:
    """One sweep: the baseline row followed by one row per k_target."""

    mode: ExpansionMode
    metric: Metric
    orientation: Orientation
    appended_evidence: float | str
    rows: tuple[DetectionResult, ...]

    @property
    def baseline(self) -> DetectionResult:
        return self.rows[0]


def _append_columns(evidence: np.ndarray, count: int, appended_evidence: float | str) -> np.ndarray:
    """Evidence matrix with ``count`` appended class columns; the original columns are copied.

    Scores are recomputed from the widened rows, never from the closed form
    (S + m)/(K + m), which can differ from the row sum in the last ulp.
    """
    if appended_evidence == INVARIANCE_EVIDENCE:
        # The invariance value S/K - 1 is per row; S/K stays constant across
        # repeated appends, so one value covers all `count` new classes.
        alpha = evidence + 1.0
        fill = alpha.sum(axis=1, keepdims=True) / evidence.shape[1] - 1.0
    else:
        fill = float(appended_evidence)
    return np.hstack([evidence, np.broadcast_to(fill, (len(evidence), count))])


def run_expansion_experiment(
    id_records: Sequence[EvidenceRecord],
    ood_records: Sequence[EvidenceRecord],
    spec: ExpansionSpec,
    metric: Metric,
    orientation: Orientation = Orientation.ID_POSITIVE,
) -> ExpansionRun:
    """Recompute detection metrics under class expansion with predictions held fixed.

    OOD_ONLY appends classes to the OOD group only; MATCHED appends to
    both groups. The baseline K must be uniform across both groups.
    """
    report = audit_cardinality(id_records, ood_records)
    if report.verdict is not Verdict.PASS:
        raise CardinalityMismatchError(
            f"baseline cardinality mismatch (K_ID={report.k_id}, K_OOD={report.k_ood}); "
            "run audit_cardinality for the offending records"
        )
    base_k = int(report.k_id)
    for k in spec.k_targets:
        if k <= base_k:
            raise ValueError(f"k_target {k} must exceed the baseline K={base_k}")

    def score(evidence: np.ndarray) -> np.ndarray:
        return _score_evidence(evidence, metric, orientation)

    def evaluate(id_scores: np.ndarray, ood_scores: np.ndarray, k_id: int, k_ood: int):
        scores = np.concatenate([id_scores, ood_scores])
        return evaluate_scores(scores, labels, metric.value, k_id, k_ood)

    id_evidence = _evidence_matrix(id_records)
    ood_evidence = _evidence_matrix(ood_records)
    labels = _labels(list(id_records) + list(ood_records), orientation)
    id_scores = score(id_evidence)
    rows = [evaluate(id_scores, score(ood_evidence), base_k, base_k)]
    for k_target in spec.k_targets:
        count = k_target - base_k
        ood_scores = score(_append_columns(ood_evidence, count, spec.appended_evidence))
        if spec.mode is ExpansionMode.MATCHED:
            expanded_id = _append_columns(id_evidence, count, spec.appended_evidence)
            rows.append(evaluate(score(expanded_id), ood_scores, k_target, k_target))
        else:
            rows.append(evaluate(id_scores, ood_scores, base_k, k_target))
    return ExpansionRun(
        mode=spec.mode,
        metric=metric,
        orientation=orientation,
        appended_evidence=spec.appended_evidence,
        rows=tuple(rows),
    )


def mismatch_warning(context: str, k_id: int | str, k_ood: int | str) -> dict:
    """Machine-readable record for any deliberately mismatched scoring run."""
    return {
        "type": "cardinality_mismatch",
        "context": context,
        "k_id": k_id,
        "k_ood": k_ood,
        "note": "scores computed over different class cardinalities are not comparable",
    }


@dataclass(frozen=True)
class RestrictionResult:
    """Mismatched as-is run vs the matched run after removing one class."""

    as_is: DetectionResult
    removed: DetectionResult
    excluded_ids: tuple[str, ...]
    warnings: tuple[dict, ...]


def run_restriction_experiment(
    five_class_records: Sequence[EvidenceRecord],
    removed_class_index: int,
    id_records: Sequence[EvidenceRecord],
    metric: Metric,
    orientation: Orientation = Orientation.ID_POSITIVE,
) -> RestrictionResult:
    """Score a wider-K OOD set as-is, then again with one class removed.

    Records whose gold label is the removed class are excluded from the
    "removed" run (they would have no valid answer), and the AUPR baseline
    is recomputed from the new counts. The as-is run deliberately compares
    mismatched cardinalities and always carries a warning record.
    """
    if not five_class_records or not id_records:
        raise ValueError("both record groups must be non-empty")
    k_wide = _group_k(five_class_records)
    if k_wide == MIXED:
        raise ValueError("five_class_records must share one class count")
    k_id = _group_k(id_records)
    if k_id == MIXED:
        raise ValueError("id_records must share one class count")
    if not 0 <= removed_class_index < int(k_wide):
        raise ValueError(f"removed_class_index {removed_class_index} out of range for K={k_wide}")

    warnings = []
    as_is = evaluate_groups(id_records, five_class_records, metric, orientation, int(k_id), int(k_wide))
    if k_id != k_wide:
        warnings.append(mismatch_warning("restriction_as_is", k_id, k_wide))

    restricted = []
    excluded = []
    for record in five_class_records:
        reduced = remove_class(record, removed_class_index)
        if reduced is None:
            excluded.append(record.id)
        else:
            restricted.append(reduced)
    if not restricted:
        raise ValueError("removing that class excluded every record")
    k_removed = int(k_wide) - 1
    removed = evaluate_groups(id_records, restricted, metric, orientation, int(k_id), k_removed)
    if k_id != k_removed:
        warnings.append(mismatch_warning("restriction_removed", k_id, k_removed))

    return RestrictionResult(
        as_is=as_is,
        removed=removed,
        excluded_ids=tuple(excluded),
        warnings=tuple(warnings),
    )

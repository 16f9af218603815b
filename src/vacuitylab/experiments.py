"""Class-cardinality audit and the expansion / restriction experiments.

The central trap these experiments expose: vacuity u = K/S is not
comparable across different K. Appending zero-evidence classes to the
OOD group alone drives every OOD vacuity up by (S - K) / (S (S + 1)) per
class while ID scores stand still, so AUROC/AUPR climb without any change
in model predictions. Appending to *both* groups is a rank-preserving
reparameterization and leaves both metrics bit-identical.

Every experiment takes each group as a ``RecordBatch`` (what
``parse_records`` returns) and reads its columns. Inputs are never
modified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .dirichlet import EvidenceRecord
from .metrics import DetectionResult, ScoredSample, evaluate_scores
from .records import RecordBatch

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


class CardinalityMismatchError(ValueError):
    """Raised when an experiment would compare groups with different K; ``report`` is the failed audit."""

    def __init__(self, message: str, report: AuditReport):
        super().__init__(message)
        self.report = report


def audit_cardinality(id_records: RecordBatch, ood_records: RecordBatch) -> AuditReport:
    """PASS iff every record in both groups shares one class count."""
    if not len(id_records) or not len(ood_records):
        raise ValueError("both record groups must be non-empty")
    k_id = id_records.class_count() or MIXED
    k_ood = ood_records.class_count() or MIXED
    ok = k_id != MIXED and k_id == k_ood
    detail: tuple[tuple[str, int], ...] = ()
    if not ok:
        # offenders are everything deviating from the most common K over
        # both groups (ties resolved toward the smaller K)
        ks = np.concatenate([id_records.k, ood_records.k])
        values, counts = np.unique(ks, return_counts=True)
        reference = values[np.argmax(counts)]
        ids = id_records.ids + ood_records.ids
        detail = tuple((ids[i], int(ks[i])) for i in np.flatnonzero(ks != reference))
    return AuditReport(
        k_id=k_id,
        k_ood=k_ood,
        verdict=Verdict.PASS if ok else Verdict.FAIL,
        detail=detail,
    )


class _NonFiniteStrength(ValueError):
    """``row`` is the first row of the scored matrix whose S is not finite."""

    def __init__(self, row: int):
        super().__init__("evidence and its sum S must be finite")
        self.row = row


def _score_evidence(evidence: np.ndarray, metric: Metric, orientation: Orientation) -> np.ndarray:
    """Detection score of every row of an (n, K) evidence matrix.

    alpha = e + 1 and S = the row sum of alpha, summed the way
    one 1-D row, so each score equals the per-record vacuity, max
    probability or normalized entropy of that row bit for bit.
    """
    alpha = evidence + 1.0
    strength = alpha.sum(axis=1)
    finite = np.isfinite(strength)
    if not finite.all():
        raise _NonFiniteStrength(int(np.argmin(finite)))
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


@np.errstate(over="ignore")  # an S that overflows is reported with its record, not as a warning
def _batch_scores(
    batch: RecordBatch, metric: Metric, orientation: Orientation, evidence: np.ndarray | None = None
) -> np.ndarray:
    """Scores of a batch's rows, or of ``evidence``, its rows widened; an S that overflows names its record."""
    if evidence is None:
        evidence = batch.evidence
    try:
        return _score_evidence(evidence, metric, orientation)
    except _NonFiniteStrength as exc:
        row = exc.row
        raise ValueError(
            f"{batch.path or '<records>'}:{batch.lines[row]}: record {batch.ids[row]!r}: "
            f"evidence sum S is not finite at K={evidence.shape[1]}"
        ) from None


def _labels(batch: RecordBatch, orientation: Orientation) -> np.ndarray:
    """1 for the rows of the positive group, as each row's ``group`` says."""
    positive = ~batch.ood if orientation is Orientation.ID_POSITIVE else batch.ood
    return positive.astype(int)


def score_record(record: EvidenceRecord, metric: Metric, orientation: Orientation) -> float:
    return float(_batch_scores(RecordBatch.from_records([record]), metric, orientation)[0])


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
    batch = RecordBatch.from_records(records)
    scores = np.empty(len(batch))
    for k in np.unique(batch.k).tolist():
        rows = np.flatnonzero(batch.k == k)
        scores[rows] = _batch_scores(batch.take(rows), metric, orientation)
    labels = _labels(batch, orientation)
    return [ScoredSample(score=float(s), label=int(label)) for s, label in zip(scores, labels)]


def evaluate_groups(
    id_records: RecordBatch,
    ood_records: RecordBatch,
    metric: Metric,
    orientation: Orientation,
) -> DetectionResult:
    """Detection metrics of two groups, each of one class count, scored as evidence matrices.

    Each group's K is the width of the matrix it was scored as. Labels
    follow each record's ``group`` field, as in ``score_group``.
    """
    batches = (id_records, ood_records)
    scores = np.concatenate([_batch_scores(b, metric, orientation) for b in batches])
    labels = np.concatenate([_labels(b, orientation) for b in batches])
    k_id, k_ood = (b.evidence.shape[1] for b in batches)
    return evaluate_scores(scores, labels, metric.value, k_id, k_ood)


@dataclass(frozen=True)
class ExpansionSpec:
    """How to expand class cardinality: which group, up to which K, with what evidence."""

    mode: ExpansionMode
    k_max: int
    appended_evidence: float | str = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", ExpansionMode(self.mode))
        if isinstance(self.appended_evidence, str):
            if self.appended_evidence != INVARIANCE_EVIDENCE:
                raise ValueError(
                    f"appended_evidence must be a non-negative number or "
                    f"{INVARIANCE_EVIDENCE!r}, got {self.appended_evidence!r}"
                )
        elif not 0 <= self.appended_evidence < math.inf:
            raise ValueError(
                f"appended_evidence must be a finite number >= 0, got {self.appended_evidence}"
            )


@dataclass(frozen=True)
class ExpansionRun:
    """One sweep: the baseline row followed by one row per K from baseline K + 1 to k_max."""

    mode: ExpansionMode
    metric: Metric
    orientation: Orientation
    appended_evidence: float | str
    rows: tuple[DetectionResult, ...]

    @property
    def baseline(self) -> DetectionResult:
        return self.rows[0]


@np.errstate(over="ignore")  # an overflowing fill shows as a non-finite S when its rows are scored
def _append_columns(evidence: np.ndarray, count: int, appended_evidence: float | str) -> np.ndarray:
    """Evidence matrix with ``count`` appended class columns; the original columns are copied.

    A sweep widens each group once, to ``k_max``, and scores K + m from the
    first K + m columns. Scores are recomputed from the widened rows, never
    from the closed form (S + m)/(K + m), which can differ from the row sum
    in the last ulp. A width no memory can hold is an error naming it.
    """
    n, k = evidence.shape
    if appended_evidence == INVARIANCE_EVIDENCE:
        # The invariance value S/K - 1 is per row; S/K stays constant across
        # repeated appends, so one value covers all `count` new classes.
        alpha = evidence + 1.0
        fill = alpha.sum(axis=1, keepdims=True) / k - 1.0
    else:
        fill = float(appended_evidence)
    try:
        widened = np.empty((n, k + count))
    except (MemoryError, ValueError):  # ValueError: more bytes than an array can index
        raise ValueError(
            f"k_max {k + count} is too large: no memory holds {n} rows of {k + count} classes"
        ) from None
    widened[:, :k] = evidence
    widened[:, k:] = fill
    return widened


def run_expansion_experiment(
    id_records: RecordBatch,
    ood_records: RecordBatch,
    spec: ExpansionSpec,
    metric: Metric,
    orientation: Orientation = Orientation.ID_POSITIVE,
) -> ExpansionRun:
    """Recompute detection metrics under class expansion with predictions held fixed.

    OOD_ONLY appends classes to the OOD group only; MATCHED appends to
    both groups. The baseline K must be uniform across both groups, and
    the sweep runs from it to ``spec.k_max``. Each expanded group is
    widened once, to ``spec.k_max`` columns, and row K scores its first K
    columns: the same values, in the same order, as a matrix widened to K.
    """
    report = audit_cardinality(id_records, ood_records)
    if report.verdict is not Verdict.PASS:
        raise CardinalityMismatchError(
            f"baseline cardinality mismatch (K_ID={report.k_id}, K_OOD={report.k_ood}); "
            "run audit_cardinality for the offending records",
            report,
        )
    base_k = report.k_id
    if spec.k_max <= base_k:
        raise ValueError(f"k_max {spec.k_max} must exceed the baseline K={base_k}")

    def widened(batch: RecordBatch) -> np.ndarray:
        return _append_columns(batch.evidence, spec.k_max - base_k, spec.appended_evidence)

    def evaluate(id_scores: np.ndarray, ood_scores: np.ndarray, k_id: int, k_ood: int):
        scores = np.concatenate([id_scores, ood_scores])
        return evaluate_scores(scores, labels, metric.value, k_id, k_ood)

    matched = spec.mode is ExpansionMode.MATCHED
    id_wide = widened(id_records) if matched else None
    ood_wide = widened(ood_records)
    labels = np.concatenate([_labels(id_records, orientation), _labels(ood_records, orientation)])
    id_scores = None if matched else _batch_scores(id_records, metric, orientation)
    rows = []
    for k_target in range(base_k, spec.k_max + 1):
        ood_scores = _batch_scores(ood_records, metric, orientation, ood_wide[:, :k_target])
        if matched:
            id_scores = _batch_scores(id_records, metric, orientation, id_wide[:, :k_target])
        rows.append(evaluate(id_scores, ood_scores, k_target if matched else base_k, k_target))
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
    five_class_records: RecordBatch,
    removed_class_index: int,
    id_records: RecordBatch,
    metric: Metric,
    orientation: Orientation = Orientation.ID_POSITIVE,
) -> RestrictionResult:
    """Score a wider-K OOD set as-is, then again with one class removed.

    Records whose gold label is the removed class are excluded from the
    "removed" run (they would have no valid answer), and the AUPR baseline
    is recomputed from the new counts. The as-is run deliberately compares
    mismatched cardinalities; each run whose two matrices differ in K
    carries a warning record. The removal is a column drop on the evidence
    matrix plus a gold-label row mask; the batch rejects a mixed K and a
    class index out of range, before either run is scored.
    """
    if not len(five_class_records) or not len(id_records):
        raise ValueError("both record groups must be non-empty")
    # a record whose gold label is the removed class has no valid answer left
    excluded = five_class_records.labelled & (five_class_records.labels == removed_class_index)
    if excluded.all():
        raise ValueError("removing that class excluded every record")
    restricted = five_class_records.take(~excluded).drop_class(removed_class_index)
    as_is = evaluate_groups(id_records, five_class_records, metric, orientation)
    removed = evaluate_groups(id_records, restricted, metric, orientation)
    runs = (("restriction_as_is", as_is), ("restriction_removed", removed))
    return RestrictionResult(
        as_is=as_is,
        removed=removed,
        excluded_ids=tuple(five_class_records.ids[i] for i in np.flatnonzero(excluded)),
        warnings=tuple(mismatch_warning(c, r.k_id, r.k_ood) for c, r in runs if r.k_id != r.k_ood),
    )

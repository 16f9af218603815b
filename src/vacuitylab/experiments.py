"""Class-cardinality audit and the expansion / restriction experiments.

The central trap these experiments expose: vacuity u = K/S is not
comparable across different K. Appending zero-evidence classes to the
OOD group alone drives every OOD vacuity up by (S - K) / (S (S + 1)) per
class while ID scores stand still, so AUROC/AUPR climb without any change
in model predictions. Appending to *both* groups keeps every vacuity rank
(its metrics stay bit-identical), but max probability and entropy move.

Every experiment takes each group as a ``RecordBatch`` (what
``parse_records`` returns) and never rebuilds one: it changes only the
evidence matrix it scores (expansion appends columns, restriction deletes
one), and each K it reports is the width of the matrix it scored. A run
is a pair of scored groups, an ID side and an OOD side; a group whose
matrix does not change is scored once. Every scorer gates itself with
``require_scorable``, whose audit refuses an empty side or a row whose
``group`` is not its side's, then a mixed K, then two K unless allowed.
A row's label follows its side, never its own field.
Experiments return facts only: scores, counts and each run's K. The caller
states how it asked (orientation, mode, evidence, removed class) to ``report``,
which derives a run's ``(mismatched K)`` mark and warning records from its K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .metrics import DetectionResult, ScoredSample, evaluate_scores
from .records import Group, RecordBatch, require_int, require_number, strength

if TYPE_CHECKING:
    from .dirichlet import EvidenceRecord

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
    """PASS iff both groups share one class count; an empty side, or a row of the other side's group, is an error."""
    for batch, side, other in ((id_records, Group.ID, Group.OOD), (ood_records, Group.OOD, Group.ID)):
        path = batch.path or "<records>"
        if not len(batch):
            raise ValueError(f"{path}: no records")
        wrong = np.flatnonzero(batch.ood != (side is Group.OOD))
        if len(wrong):
            row = wrong[0]
            raise ValueError(
                f"{path}:{batch.lines[row]}: record {batch.ids[row]!r} is in group {other.value!r}, "
                f"but the {side.value} group holds {side.value!r} records"
            )
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
        bad = np.flatnonzero(ks != reference)
        ids = id_records.ids + ood_records.ids
        detail = tuple(zip([ids[i] for i in bad.tolist()], ks[bad].tolist()))
    return AuditReport(
        k_id=k_id,
        k_ood=k_ood,
        verdict=Verdict.PASS if ok else Verdict.FAIL,
        detail=detail,
    )


def require_scorable(id_records: RecordBatch, ood_records: RecordBatch, allow_mismatch: bool) -> None:
    """The one K gate of every scorer: a mixed K is refused first, then any mismatch not allowed."""
    report = audit_cardinality(id_records, ood_records)
    if MIXED in (report.k_id, report.k_ood):
        raise CardinalityMismatchError("mixed cardinality inside a group cannot be scored", report)
    if report.verdict is not Verdict.PASS and not allow_mismatch:
        raise CardinalityMismatchError(
            "refusing to score mismatched cardinalities (metrics --allow-mismatch overrides)", report
        )


def _score_evidence(evidence: np.ndarray, metric: Metric, batch: RecordBatch) -> np.ndarray:
    """ID-positive score (1/u, max probability or 1 - H/log2(K)) of every row of an (n, K) evidence matrix.

    The rows are those of ``batch``, widened or not. S is ``strength``'s sum
    of each row's e + 1, which equals that row's sum taken alone as a 1-D
    array, so each score equals the per-record score of that row bit for bit.
    """
    s = strength(evidence)
    finite = np.isfinite(s)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(
            f"{batch.path or '<records>'}:{batch.lines[row]}: record {batch.ids[row]!r}: "
            f"evidence sum S is not finite at K={evidence.shape[1]}"
        )
    if metric is Metric.VACUITY:
        return 1.0 / (evidence.shape[1] / s)
    alpha = evidence + 1.0
    if metric is Metric.MP:
        return alpha.max(axis=1) / s
    p = alpha / s[:, None]
    return 1.0 - np.clip((-(p * np.log2(p))).sum(axis=1) / math.log2(evidence.shape[1]), 0.0, 1.0)


def _scored(batch: RecordBatch, evidence: np.ndarray, metric: Metric) -> tuple[np.ndarray, int]:
    """One group scored as ``evidence``, the rows of ``batch``: its ID-positive scores and its K."""
    return _score_evidence(evidence, metric, batch), evidence.shape[1]


def _oriented(scores: np.ndarray, is_id: np.ndarray, orientation: Orientation) -> tuple[np.ndarray, np.ndarray]:
    """The one orientation rule: OOD_POSITIVE negates the ID-positive scores and labels the OOD rows 1.

    A negation reverses every rank and keeps every tie, so AUROC is
    bit-identical in either orientation; only AUPR depends on it.
    """
    if orientation is Orientation.ID_POSITIVE:
        return scores, is_id
    return -scores, ~is_id


def _detection(metric: Metric, orientation: Orientation, id_side: tuple, ood_side: tuple) -> DetectionResult:
    """Detection metrics of two ``_scored`` sides, oriented by ``_oriented``; each K is its side's scored width."""
    (id_scores, k_id), (ood_scores, k_ood) = id_side, ood_side
    is_id = np.repeat([True, False], [len(id_scores), len(ood_scores)])
    scores, labels = _oriented(np.concatenate([id_scores, ood_scores]), is_id, orientation)
    return evaluate_scores(scores, labels, metric.value, k_id, k_ood)


def score_record(record: EvidenceRecord, metric: Metric, orientation: Orientation) -> float:
    """One record's ``score_group`` score: the ID-positive score, negated under OOD_POSITIVE."""
    return score_group([record], metric, orientation)[0].score


def score_group(
    records: Sequence[EvidenceRecord],
    metric: Metric,
    orientation: Orientation = Orientation.ID_POSITIVE,
) -> list[ScoredSample]:
    """Score records for detection, oriented by ``_oriented``: higher = more positive-class.

    ID_POSITIVE labels ID records 1 and scores with 1/u, MP or 1 - H/log2(K);
    OOD_POSITIVE labels OOD records 1 and negates those scores. The records
    must share one class count; each one's label follows its own ``group``.
    """
    batch = RecordBatch.from_records(records)
    scores, labels = _oriented(_score_evidence(batch.evidence, metric, batch), ~batch.ood, orientation)
    return [ScoredSample(score=float(s), label=int(label)) for s, label in zip(scores, labels)]


def evaluate_groups(
    id_records: RecordBatch,
    ood_records: RecordBatch,
    metric: Metric,
    orientation: Orientation,
    allow_mismatch: bool = False,
) -> DetectionResult:
    """Detection metrics of two groups, each of one class count, scored as evidence matrices.

    Each group's K is the width of the matrix it was scored as, and every row of
    ``id_records`` is an ID row; ``orientation`` picks the positive side, which moves
    the AUPR but not one bit of the AUROC. Before scoring, ``require_scorable`` refuses
    a row of the other side's group, a mixed K and, unless ``allow_mismatch``, two
    different K (``CardinalityMismatchError``).
    """
    require_scorable(id_records, ood_records, allow_mismatch)
    sides = (_scored(b, b.evidence, metric) for b in (id_records, ood_records))
    return _detection(metric, orientation, *sides)


@dataclass(frozen=True)
class ExpansionSpec:
    """How to expand class cardinality: which group, up to which K, with what evidence."""

    mode: ExpansionMode
    k_max: int
    appended_evidence: float | str = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", ExpansionMode(self.mode))
        require_int("k_max", self.k_max, 3)  # every baseline has K >= 2
        if isinstance(self.appended_evidence, (str, bool)):  # a bool is not a number of pseudo-counts
            if self.appended_evidence != INVARIANCE_EVIDENCE:
                raise ValueError(
                    f"appended_evidence must be a non-negative number or "
                    f"{INVARIANCE_EVIDENCE!r}, got {self.appended_evidence!r}"
                )
        else:
            require_number("appended_evidence", self.appended_evidence)


@dataclass(frozen=True)
class ExpansionRun:
    """One sweep's rows only: the baseline row, then one per K from baseline K + 1 to k_max."""

    rows: tuple[DetectionResult, ...]

    @property
    def baseline(self) -> DetectionResult:
        return self.rows[0]


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
        fill = strength(evidence)[:, None] / k - 1.0
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
    both groups. Both groups must share one baseline K (``require_scorable``),
    and the sweep runs from it to ``spec.k_max``. Each expanded group is widened
    once, to ``spec.k_max`` columns; row K scores its first K columns (the
    same values as a matrix widened to K) and reads each K from its matrix.
    An OOD-only sweep scores the unchanged ID matrix once, for every row.
    The run holds only its rows: the caller hands ``spec`` and the orientation to the report.
    """
    require_scorable(id_records, ood_records, allow_mismatch=False)
    base_k = id_records.evidence.shape[1]
    if spec.k_max <= base_k:
        raise ValueError(f"k_max {spec.k_max} must exceed the baseline K={base_k}")

    def widened(batch: RecordBatch) -> np.ndarray:
        return _append_columns(batch.evidence, spec.k_max - base_k, spec.appended_evidence)

    matched = spec.mode is ExpansionMode.MATCHED
    id_wide = widened(id_records) if matched else None
    id_side = None if matched else _scored(id_records, id_records.evidence, metric)  # one scoring for every row
    ood_wide = widened(ood_records)
    rows = tuple(
        _detection(
            metric,
            orientation,
            id_side or _scored(id_records, id_wide[:, :k], metric),
            _scored(ood_records, ood_wide[:, :k], metric),
        )
        for k in range(base_k, spec.k_max + 1)
    )
    return ExpansionRun(rows)


@dataclass(frozen=True)
class RestrictionResult:
    """Mismatched as-is run vs the matched run after removing one class."""

    as_is: DetectionResult
    removed: DetectionResult
    excluded_ids: tuple[str, ...]


def run_restriction_experiment(
    ood_records: RecordBatch,
    removed_class_index: int,
    id_records: RecordBatch,
    metric: Metric,
    orientation: Orientation = Orientation.ID_POSITIVE,
) -> RestrictionResult:
    """Score a wider-K OOD set as-is, then again with one class removed.

    Records whose gold label is the removed class are excluded from the
    "removed" run (they would have no valid answer), and the AUPR baseline
    is recomputed from the new counts. The as-is run deliberately compares
    mismatched cardinalities; each run states its two K, from which ``report``
    marks and warns on it. The ID matrix is scored once for both runs.
    The removed run scores every OOD row with the class's column deleted, so
    a non-finite S names its record, and keeps the rows not excluded. Before
    either run is scored it refuses, in order: a mixed K
    (``CardinalityMismatchError``), a class index that is not an integer in
    range, a removal that excludes every record, and a 2-class OOD set.
    """
    require_scorable(id_records, ood_records, allow_mismatch=True)  # the as-is run is mismatched on purpose
    path = ood_records.path or "<records>"
    k = ood_records.evidence.shape[1]
    if require_int(f"{path}: class_index", removed_class_index, 0) >= k:
        raise ValueError(f"{path}: class_index {removed_class_index} out of range for K={k}")
    # a record whose gold label is the removed class has no valid answer left
    excluded = ood_records.labels == removed_class_index
    if excluded.all():
        raise ValueError(f"{path}: removing class {removed_class_index} excluded every record")
    if k <= 2:
        raise ValueError(f"{path}: cannot remove a class from a 2-class record")
    id_side = _scored(id_records, id_records.evidence, metric)  # one scoring for both runs
    as_is = _detection(metric, orientation, id_side, _scored(ood_records, ood_records.evidence, metric))
    dropped = np.delete(ood_records.evidence, removed_class_index, axis=1)
    scores, k_removed = _scored(ood_records, dropped, metric)
    removed = _detection(metric, orientation, id_side, (scores[~excluded], k_removed))
    return RestrictionResult(
        as_is=as_is,
        removed=removed,
        excluded_ids=tuple(ood_records.ids[i] for i in np.flatnonzero(excluded)),
    )

"""One prediction as a record, and its class expansion and restriction.

Records are immutable; class expansion and restriction return new records
and never touch the original evidence (fixed-predictions contract). The
library scores predictions as ``records.RecordBatch`` columns; a record is
the row form that ``RecordBatch.from_records`` accepts.

Conventions: per-class evidence e_i >= 0, concentration alpha_i = e_i + 1,
total strength S = sum(alpha), vacuity u = K / S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .records import Group, require_int, require_number


@dataclass(frozen=True)
class EvidenceRecord:
    """One fixed model prediction: per-class evidence plus bookkeeping."""

    id: str
    group: Group
    class_names: tuple[str, ...]
    evidence: tuple[float, ...]
    gold_label: int | None = None

    def __post_init__(self) -> None:
        if type(self.id) is not str:
            raise ValueError(f"record {self.id!r}: id must be a string")
        object.__setattr__(self, "group", Group(self.group))
        object.__setattr__(self, "class_names", tuple(str(n) for n in self.class_names))
        object.__setattr__(self, "evidence", tuple(float(e) for e in self.evidence))
        if len(self.evidence) != len(self.class_names):
            raise ValueError(
                f"record {self.id!r}: evidence length {len(self.evidence)} != "
                f"class count {len(self.class_names)}"
            )
        if len(self.evidence) < 2:
            raise ValueError(f"record {self.id!r}: needs at least 2 classes")
        for i, e in enumerate(self.evidence):
            if math.isnan(e) or e < 0:
                raise ValueError(f"record {self.id!r}: negative evidence at index {i}")
        if self.gold_label is not None:
            if require_int(f"record {self.id!r}: gold_label", self.gold_label, 0) >= self.k:
                raise ValueError(f"record {self.id!r}: gold_label {self.gold_label} out of range")

    @property
    def k(self) -> int:
        return len(self.evidence)


def append_classes(
    record: EvidenceRecord, count: int, appended_evidence: float
) -> EvidenceRecord:
    """Append ``count`` synthetic classes each carrying ``appended_evidence``.

    The original evidence components are untouched; the model prediction is
    never recomputed. Synthetic class names are X1, X2, ... skipping any
    already present.
    """
    require_int("count", count, 0)
    require_number("appended_evidence", appended_evidence)
    if count == 0:
        return record
    existing = set(record.class_names)
    new_names: list[str] = []
    i = 1
    while len(new_names) < count:
        candidate = f"X{i}"
        if candidate not in existing:
            new_names.append(candidate)
        i += 1
    return EvidenceRecord(
        id=record.id,
        group=record.group,
        class_names=record.class_names + tuple(new_names),
        evidence=record.evidence + (float(appended_evidence),) * count,
        gold_label=record.gold_label,
    )


def remove_class(record: EvidenceRecord, class_index: int) -> EvidenceRecord | None:
    """Drop one class from a record, or exclude the record entirely.

    Returns None when the record's gold label *is* the removed class (the
    record has no valid answer left and must be excluded). Unlabeled
    records are always kept. The gold label is re-indexed when it sat
    after the removed position.
    """
    if require_int("class_index", class_index, 0) >= record.k:
        raise ValueError(f"class_index {class_index} out of range for K={record.k}")
    if record.k <= 2:
        raise ValueError("cannot remove a class from a 2-class record")
    if record.gold_label is not None and record.gold_label == class_index:
        return None
    gold = record.gold_label
    if gold is not None and gold > class_index:
        gold -= 1
    keep = [i for i in range(record.k) if i != class_index]
    return EvidenceRecord(
        id=record.id,
        group=record.group,
        class_names=tuple(record.class_names[i] for i in keep),
        evidence=tuple(record.evidence[i] for i in keep),
        gold_label=gold,
    )

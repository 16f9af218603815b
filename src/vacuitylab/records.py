"""Line-delimited prediction-record ingestion and serialization.

One JSON object per line:

    {"id": "q1", "group": "id", "classes": ["A", "B", "C", "D"],
     "evidence": [12, 8, 9, 7], "label": 2}

Each line carries exactly one of ``evidence`` (non-negative reals) or
``logits`` (any reals; passed through softplus on ingestion, so the
softplus happens in exactly one place). ``label`` is an optional gold
index. Parse errors report the offending line number.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Sequence

from .dirichlet import EvidenceRecord, Group
from .losses import softplus_evidence


class RecordParseError(ValueError):
    """A record file line that cannot be turned into an EvidenceRecord."""

    def __init__(self, path, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = str(path)
        self.lineno = lineno


def _parse_line(path, lineno: int, obj: dict) -> EvidenceRecord:
    if not isinstance(obj, dict):
        raise RecordParseError(path, lineno, "expected a JSON object")
    for key in ("id", "group", "classes"):
        if key not in obj:
            raise RecordParseError(path, lineno, f"missing field {key!r}")
    has_evidence = "evidence" in obj
    has_logits = "logits" in obj
    if has_evidence == has_logits:
        raise RecordParseError(
            path, lineno, "each line needs exactly one of 'evidence' or 'logits'"
        )
    values = obj["evidence"] if has_evidence else obj["logits"]
    # bool is an int subclass, but JSON true/false is not a number
    if not isinstance(values, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        raise RecordParseError(path, lineno, "evidence/logits must be a numeric array")
    try:
        finite = all(math.isfinite(v) for v in values)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise RecordParseError(path, lineno, "evidence/logits must be finite")
    if has_logits:
        evidence = tuple(float(e) for e in softplus_evidence(values))
    else:
        evidence = tuple(float(v) for v in values)
    if not math.isfinite(sum(evidence) + len(evidence)):
        raise RecordParseError(path, lineno, "total strength S = sum(evidence + 1) overflows")
    label = obj.get("label")
    if label is not None and (not isinstance(label, int) or isinstance(label, bool)):
        raise RecordParseError(path, lineno, "label must be an integer index")
    try:
        return EvidenceRecord(
            id=str(obj["id"]),
            group=Group(obj["group"]),
            class_names=tuple(obj["classes"]),
            evidence=evidence,
            gold_label=label,
        )
    except ValueError as exc:
        raise RecordParseError(path, lineno, str(exc)) from exc


def parse_records(path) -> list[EvidenceRecord]:
    """Read a line-delimited record file; blank lines are ignored."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                obj = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise RecordParseError(path, lineno, f"invalid JSON ({exc.msg})") from exc
            records.append(_parse_line(path, lineno, obj))
    return records


def record_to_dict(record: EvidenceRecord) -> dict:
    out = {
        "id": record.id,
        "group": record.group.value,
        "classes": list(record.class_names),
        "evidence": list(record.evidence),
    }
    if record.gold_label is not None:
        out["label"] = record.gold_label
    return out


def serialize_records(records: Iterable[EvidenceRecord], path) -> None:
    """Write records in evidence form; parse(serialize(x)) round-trips exactly."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record_to_dict(record)) + "\n")

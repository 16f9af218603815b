"""Line-delimited prediction-record ingestion and serialization.

One JSON object per line:

    {"id": "q1", "group": "id", "classes": ["A", "B", "C", "D"],
     "evidence": [12, 8, 9, 7], "label": 2}

Each line carries exactly one of ``evidence`` (non-negative reals) or
``logits`` (any reals; passed through ``losses.softplus_evidence`` on
ingestion, the library's one softplus). ``id`` is a string and
``label`` an optional gold index. Record ids must be unique within a
file.

``parse_records`` reads a valid file once into a ``RecordBatch`` of
columns. Per line, the reader strips the line, decodes it with one call
of the C JSON scanner, runs a cheap structural gate (a JSON object with
``id``, ``group`` and ``classes``, exactly one of ``evidence`` or
``logits``, arrays for the values and the class names, a string id and
an integer or absent label) and appends the id, the values and the
label. Per run of lines with equal group, class list, value kind and K,
it stores those four once. Once per file: every value is a JSON number
(not a bool), each run has a valid group and K >= 2 string class names,
ids are unique, labels are in range and values finite; one softplus call
covers every logits entry, then e >= 0, and S is finite with the rows of
each K summed as one matrix. Line numbers come from the positions of the
blank lines.

The reader only detects a defect. At the first sign of one (a line that
fails the decode or the gate, a failed per-file check, an integer beyond
the float or int64 range, or bytes that are not UTF-8) it gives up, and
the refused file is re-read line by line to find its earliest defective
line. Each line runs every check in one fixed order, and the error names
the file, that line and the first check it fails.
"""

from __future__ import annotations

import json
import json.encoder
import json.scanner
import math
import re
from dataclasses import dataclass, replace
from itertools import compress, islice, repeat
from operator import is_not
from typing import Iterable

import numpy as np

from .dirichlet import EvidenceRecord, Group
from .losses import softplus_evidence


class RecordParseError(ValueError):
    """A record file line that cannot be turned into a record."""

    def __init__(self, path, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = str(path)
        self.lineno = lineno


@dataclass(frozen=True, eq=False)
class RecordBatch:
    """Records as read-only columns, one row per record, in file order.

    ``values`` holds every row's evidence back to back (row i has ``k[i]``
    entries); when all rows share one class count, ``evidence`` is the same
    buffer viewed as an ``(n, K)`` matrix. ``labels`` is -1 where
    ``labelled`` is False. ``class_names`` lists each distinct class-name
    tuple once and ``class_index`` points every row at its own.
    """

    ids: list[str]
    ood: np.ndarray  # bool: True for group "ood"
    class_names: tuple[tuple[str, ...], ...]
    class_index: np.ndarray
    k: np.ndarray
    values: np.ndarray
    labels: np.ndarray
    labelled: np.ndarray
    lines: np.ndarray  # 1-based source line of each row
    path: str | None = None

    def __post_init__(self) -> None:
        columns = (self.ood, self.class_index, self.k, self.values, self.labels, self.labelled, self.lines)
        for column in columns:
            column.setflags(write=False)

    @classmethod
    def from_records(cls, records: Iterable[EvidenceRecord]) -> RecordBatch:
        """Columns of already-validated records; lines count from 1 in list order."""
        records = list(records)
        names: dict[tuple[str, ...], int] = {}
        flat: list[float] = []
        for r in records:
            flat += r.evidence
        labels = [r.gold_label for r in records]
        class_index = [names.setdefault(r.class_names, len(names)) for r in records]
        return cls(
            ids=[r.id for r in records],
            ood=np.array([r.group is Group.OOD for r in records], dtype=bool),
            class_names=tuple(names),
            class_index=np.array(class_index, dtype=np.intp),
            k=np.array([r.k for r in records], dtype=np.intp),
            values=np.array(flat, dtype=float),
            labels=np.array([-1 if g is None else g for g in labels], dtype=np.int64),
            labelled=np.array([g is not None for g in labels], dtype=bool),
            lines=np.arange(1, len(records) + 1),
        )

    @classmethod
    def from_evidence(
        cls, ids: list[str], group: Group, class_names, evidence: np.ndarray, labels=None
    ) -> RecordBatch:
        """One group's rows, sharing one class-name tuple, from an (n, K) evidence matrix.

        ``labels`` holds every row's gold index, or is None for unlabelled rows.
        """
        n = len(ids)
        return cls(
            ids=ids,
            ood=np.full(n, group is Group.OOD),
            class_names=(tuple(class_names),),
            class_index=np.zeros(n, dtype=np.intp),
            k=np.full(n, evidence.shape[1], dtype=np.intp),
            values=evidence.ravel(),
            labels=np.full(n, -1, dtype=np.int64) if labels is None else labels,
            labelled=np.full(n, labels is not None),
            lines=np.arange(1, n + 1),
        )

    def __len__(self) -> int:
        return len(self.ids)

    def class_count(self) -> int | None:
        """The class count every row shares, or None when rows differ (or there are none)."""
        if not len(self.k):
            return None
        k = int(self.k.min())
        return k if k == self.k.max() else None

    @property
    def evidence(self) -> np.ndarray:
        """The read-only (n, K) evidence matrix of a batch whose rows share one K."""
        if len(self) == 0:
            return self.values.reshape(0, 0)
        k = self.class_count()
        if k is None:
            raise ValueError(
                f"{self.path or '<records>'}: rows have different class counts; no single evidence matrix"
            )
        return self.values.reshape(len(self), k)

    def take(self, rows) -> RecordBatch:
        """The sub-batch of the given row indices (or boolean row mask), in that order."""
        rows = np.asarray(rows)
        rows = np.flatnonzero(rows) if rows.dtype == bool else rows.astype(np.intp, copy=False)
        return replace(
            self,
            ids=[self.ids[i] for i in rows.tolist()],
            ood=self.ood[rows],
            class_index=self.class_index[rows],
            k=self.k[rows],
            values=self.values[_flat_index(self.k, rows)],
            labels=self.labels[rows],
            labelled=self.labelled[rows],
            lines=self.lines[rows],
        )

    def drop_class(self, index: int) -> RecordBatch:
        """The batch with class ``index`` dropped from every row (one shared K > 2).

        Gold labels after the dropped position move down by one. No row may
        still carry the dropped class as its gold label: exclude those first.
        """
        evidence = self.evidence
        k = evidence.shape[1]
        if not 0 <= index < k:
            raise ValueError(f"{self.path or '<records>'}: class_index {index} out of range for K={k}")
        if k <= 2:
            raise ValueError(f"{self.path or '<records>'}: cannot remove a class from a 2-class record")
        if (self.labelled & (self.labels == index)).any():
            raise ValueError(f"rows labelled with class {index} must be excluded first")
        return replace(
            self,
            class_names=tuple(names[:index] + names[index + 1 :] for names in self.class_names),
            k=self.k - 1,
            values=np.delete(evidence, index, axis=1).ravel(),
            labels=self.labels - (self.labels > index),
        )


def finite_strength(evidence: np.ndarray) -> np.ndarray:
    """Per row of an (n, K) evidence matrix: is S = sum(evidence + 1) finite, summed as the scorer sums it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.isfinite((evidence + 1.0).sum(axis=1))


def _flat_index(k: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions in the flat value buffer of the given rows' entries, row after row."""
    starts = np.cumsum(k) - k
    widths = k[rows]
    out_starts = np.cumsum(widths) - widths
    return np.repeat(starts[rows] - out_starts, widths) + np.arange(int(widths.sum()))


_NUMBER_TYPES = frozenset({int, float})  # bool is an int subclass, but JSON true/false is not a number
_LABEL_TYPES = frozenset({int, type(None)})
_ID, _OOD = Group.ID.value, Group.OOD.value
_CLASSES_PROBLEM = "classes must be an array of strings"
_scan = json.scanner.make_scanner(json.JSONDecoder())
_NO_RUN = object()  # equal to no decoded value
_undecodable = re.compile("[\udc80-\udcff]").search  # a byte that is not UTF-8 reads as a lone surrogate
_quote = json.encoder.encode_basestring_ascii  # json.dumps(str) with the default ensure_ascii


def _all_numbers(values: list) -> bool:
    return set(map(type, values)) <= _NUMBER_TYPES


class _Refused(Exception):
    """The reader saw a defect; ``_earliest_defect`` finds and words the earliest."""


def parse_records(path) -> RecordBatch:
    """Read a line-delimited record file into one batch; blank lines are ignored."""
    try:
        return _parse(path)
    except (_Refused, OverflowError, UnicodeDecodeError):  # OverflowError: an integer beyond float or int64
        raise _earliest_defect(path) from None


def _parse(path) -> RecordBatch:
    """The batch of a valid record file; a defect raises ``_Refused`` or the error that showed it."""
    ids, flat, labels = [], [], []
    blanks = []  # the number of rows read before each blank line
    # One entry per run of lines with equal group, class list, value kind and K
    starts, groups, classes, logits, ks = [], [], [], [], []
    run_group = run_classes = run_logit = run_k = _NO_RUN
    names: dict[tuple, int] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            text = line.strip()
            if not text:
                blanks.append(len(ids))
                continue
            try:
                obj, end = _scan(text, 0)
                rid, group, class_list = obj["id"], obj["group"], obj["classes"]
                values = obj["logits"] if (logit := "logits" in obj) else obj["evidence"]
                label = obj.get("label")
                if not (
                    end == len(text)
                    and type(rid) is str
                    and type(class_list) is list
                    and type(values) is list
                    and type(label) in _LABEL_TYPES
                    and not (logit and "evidence" in obj)
                ):
                    raise _Refused
                if (
                    group != run_group
                    or class_list != run_classes
                    or logit is not run_logit
                    or len(values) != run_k
                ):
                    classes.append(names.setdefault(tuple(class_list), len(names)))
                    starts.append(len(ids))
                    groups.append(group)
                    logits.append(logit)
                    ks.append(len(values))
                    # a group that is not a string ends its run, so two decoded containers are never compared
                    run_group = group if type(group) is str else _NO_RUN
                    run_classes, run_logit, run_k = class_list, logit, len(values)
            # not JSON, not an object, a field missing or of the wrong type, or an unhashable class name
            except (StopIteration, ValueError, RecursionError, KeyError, TypeError):
                raise _Refused from None
            ids.append(rid)
            flat += values
            labels.append(label)
    class_names = tuple(names)
    if not (
        _all_numbers(flat)
        and all(g == _ID or g == _OOD for g in groups)
        and all(len(class_names[c]) == k >= 2 for c, k in zip(classes, ks))
        and all(type(c) is str for key in class_names for c in key)
        and len(set(ids)) == len(ids)
    ):
        raise _Refused
    rows = np.arange(len(ids))
    lines = rows + 1 + np.searchsorted(np.array(blanks, dtype=np.intp), rows, side="right")
    lengths = np.diff(np.array(starts, dtype=np.intp), append=len(ids))
    k = np.repeat(np.array(ks, dtype=np.intp), lengths)
    labelled = np.fromiter(map(is_not, labels, repeat(None)), dtype=bool, count=len(labels))
    label_column = np.full(len(ids), -1, dtype=np.int64)
    label_column[labelled] = list(compress(labels, labelled))
    if (labelled & ((label_column < 0) | (label_column >= k))).any():
        raise _Refused
    values = np.fromiter(flat, dtype=float, count=len(flat))
    return RecordBatch(
        ids=ids,
        ood=np.repeat(np.array([g == _OOD for g in groups], dtype=bool), lengths),
        class_names=class_names,
        class_index=np.repeat(np.array(classes, dtype=np.intp), lengths),
        k=k,
        values=_evidence(values, k, np.repeat(np.array(logits, dtype=bool), lengths), set(ks)),
        labels=label_column,
        labelled=labelled,
        lines=lines,
        path=str(path),
    )


def _evidence(values: np.ndarray, k: np.ndarray, logits: np.ndarray, widths: set[int]) -> np.ndarray:
    """``values`` with softplus applied in place to the logits rows; ``_Refused`` if a numeric check fails.

    ``k`` gives each row's K, ``logits`` marks the rows that hold logits and
    ``widths`` lists the distinct K. One softplus call covers every logits
    entry; each K block is then gathered as one matrix and its S summed as
    the scorer sums it.
    """
    if not np.isfinite(values).all():
        raise _Refused
    soft = np.repeat(logits, k)
    values[soft] = softplus_evidence(values[soft])
    if (values < 0).any():
        raise _Refused
    for width in widths:
        rows = np.flatnonzero(k == width)
        if not finite_strength(values[_flat_index(k, rows)].reshape(len(rows), width)).all():
            raise _Refused
    return values


def _float(value) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        return math.inf if value > 0 else -math.inf


def _earliest_defect(path) -> RecordParseError:
    """The error of a refused file's earliest defective line, found by reading it line by line.

    A file in which no line fails a check was refused by mistake, which
    raises ``AssertionError`` rather than inventing a message.
    """
    first_lines: dict[str, int] = {}  # each id's line so far
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, 1):
            problem = _line_problem(line, lineno, first_lines)
            if problem is not None:
                return RecordParseError(path, lineno, problem)
    raise AssertionError(f"{path}: the reader refused a file in which no line has a defect")


def _line_problem(line: str, lineno: int, first_lines: dict[str, int]) -> str | None:
    """What is wrong with one line, by the first check that fails in the order below; None if nothing is."""
    bad = not line.isascii() and _undecodable(line)
    if bad:
        return f"not UTF-8 text (byte 0x{ord(bad.group()) - 0xDC00:02x} at column {bad.start() + 1})"
    text = line.strip()
    if not text:
        return None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"invalid JSON ({exc.msg})"
    except RecursionError:
        return "invalid JSON (nested too deeply)"
    except ValueError as exc:  # e.g. an integer literal beyond the int conversion limit
        return f"invalid JSON ({exc})"
    if type(obj) is not dict:
        return "expected a JSON object"
    missing = [key for key in ("id", "group", "classes") if key not in obj]
    if missing:
        return f"missing field {missing[0]!r}"
    logit = "logits" in obj
    if logit == ("evidence" in obj):
        return "each line needs exactly one of 'evidence' or 'logits'"
    rid, group, class_list, label = obj["id"], obj["group"], obj["classes"], obj.get("label")
    values = obj["logits"] if logit else obj["evidence"]
    if type(values) is not list or not _all_numbers(values):
        return "evidence/logits must be a numeric array"
    if type(class_list) is not list:
        return _CLASSES_PROBLEM
    if type(label) not in _LABEL_TYPES:
        return "label must be an integer index"
    try:
        hash(tuple(class_list))
    except TypeError:  # an array or object among the class names
        return _CLASSES_PROBLEM
    if type(rid) is not str:
        return "id must be a string"
    row = [_float(v) for v in values]
    if not all(map(math.isfinite, row)):
        return "evidence/logits must be finite"
    if logit:
        row = softplus_evidence(row).tolist()
    # S can overflow, in any summation order, only if the magnitudes sum near the float maximum
    if sum(map(abs, row)) + len(row) > 1e300 and not finite_strength(np.array([row]))[0]:
        return "total strength S = sum(evidence + 1) overflows"
    if group != _ID and group != _OOD:
        return f"{group!r} is not a valid Group"
    if not all(type(c) is str for c in class_list):
        return _CLASSES_PROBLEM
    k = len(values)
    if k != len(class_list):
        return f"record {rid!r}: evidence length {k} != class count {len(class_list)}"
    if k < 2:
        return f"record {rid!r}: needs at least 2 classes"
    if min(row) < 0:
        return f"record {rid!r}: negative evidence at index {next(i for i, v in enumerate(row) if v < 0)}"
    if label is not None and not 0 <= label < k:
        return f"record {rid!r}: gold_label {label} out of range"
    first = first_lines.setdefault(rid, lineno)
    if first != lineno:
        return f"duplicate id {rid!r} (first on line {first})"
    return None


def serialize_records(batch: RecordBatch, path) -> None:
    """Write a batch in evidence form; parse(serialize(x)) round-trips exactly.

    Each line is the one ``json.dumps`` writes for the record's dict (keys
    ``id``, ``group``, ``classes``, ``evidence``, then ``label`` when the row
    has one), assembled from the columns: ids are quoted by the encoder
    ``json.dumps`` uses for a string, each class-name tuple is encoded once,
    and values print as the ``repr`` of the float, as ``json.dumps`` prints
    them: one ``repr`` per value, joined row by row without a Python-level
    loop over the values. A non-finite value is an error: no record file
    may hold one.
    """
    if not np.isfinite(batch.values).all():
        raise ValueError(f"{path}: cannot write non-finite evidence")
    reprs = map(repr, batch.values.tolist())
    evidence = map(", ".join, map(islice, repeat(reprs), batch.k.tolist()))
    classes = [json.dumps(list(names)) for names in batch.class_names]
    rows = zip(
        batch.ids,
        batch.ood.tolist(),
        batch.class_index.tolist(),
        evidence,
        batch.labels.tolist(),
        batch.labelled.tolist(),
    )
    with open(path, "w", encoding="utf-8") as handle:
        for rid, ood, names, values, label, labelled in rows:
            tail = f', "label": {label}}}\n' if labelled else "}\n"
            handle.write(
                f'{{"id": {_quote(rid)}, "group": "{_OOD if ood else _ID}", '
                f'"classes": {classes[names]}, "evidence": [{values}]{tail}'
            )

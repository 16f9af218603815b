"""Line-delimited prediction-record ingestion and serialization.

One JSON object per line:

    {"id": "q1", "group": "id", "classes": ["A", "B", "C", "D"],
     "evidence": [12, 8, 9, 7], "label": 2}

Each line carries exactly one of ``evidence`` (non-negative reals) or
``logits`` (any reals; passed through ``losses.softplus_evidence`` on
ingestion, the library's one softplus). ``id`` is a string and
``label`` an optional gold index. Record ids must be unique within a
file.

``parse_records`` reads a file once into a ``RecordBatch`` of columns.
Per line, the read loop strips the line, decodes it with one call of the
C JSON scanner, runs the cheap structural gate (a JSON object with
``id``, ``group`` and ``classes``, exactly one of ``evidence`` or
``logits``, arrays for the values and the class names, a string id and
an integer or absent label) and appends the id, the values and the
label. Per run of lines with equal group, class list, value kind and K,
it stores those four once, and checks that the class names are
hashable. ``_structure_problem`` words a defect, and runs only for a
line that fails the gate. Everything else runs once per file on the
collected columns: every value is a JSON number (not a bool), finite
values, e >= 0, finite S, K >= 2, one string class name per value, a
valid group, label in range and unique ids, with the rows of each K
checked as one matrix. Line numbers come from the positions of the blank
lines. Every error names the file and the line, and a file with several
defects reports the earliest line, whichever kind it is: a structural
defect, a non-number value or bytes that are not UTF-8 end the rows that
the per-file checks see at their line.
"""

from __future__ import annotations

import json
import json.encoder
import json.scanner
import math
import re
from contextlib import nullcontext
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
            raise ValueError(f"class_index {index} out of range for K={k}")
        if k <= 2:
            raise ValueError("cannot remove a class from a 2-class record")
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


_REQUIRED_ORDER = ("id", "group", "classes")
_REQUIRED = frozenset(_REQUIRED_ORDER)
_NUMBER_TYPES = frozenset({int, float})  # bool is an int subclass, but JSON true/false is not a number
_LABEL_TYPES = frozenset({int, type(None)})
_ID, _OOD = Group.ID.value, Group.OOD.value
_VALUES_PROBLEM = "evidence/logits must be a numeric array"
_CLASSES_PROBLEM = "classes must be an array of strings"
_scan = json.scanner.make_scanner(json.JSONDecoder())
_NO_RUN = object()  # equal to no decoded value
_quote = json.encoder.encode_basestring_ascii  # json.dumps(str) with the default ensure_ascii


def _all_numbers(values: list) -> bool:
    return set(map(type, values)) <= _NUMBER_TYPES


def _json_problem(text: str) -> str:
    """Why one stripped line does not decode; ``json.loads`` raises the error that words it."""
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        return f"invalid JSON ({exc.msg})"
    except RecursionError:
        return "invalid JSON (nested too deeply)"
    except ValueError as exc:  # e.g. an integer literal beyond the int conversion limit
        return f"invalid JSON ({exc})"


def _structure_problem(obj) -> str:
    """What is wrong with the shape and types of one decoded line that failed the read loop's gate."""
    if type(obj) is not dict:
        return "expected a JSON object"
    if not _REQUIRED <= obj.keys():
        return f"missing field {next(key for key in _REQUIRED_ORDER if key not in obj)!r}"
    has_evidence = "evidence" in obj
    if has_evidence == ("logits" in obj):
        return "each line needs exactly one of 'evidence' or 'logits'"
    values = obj["evidence"] if has_evidence else obj["logits"]
    if type(values) is not list or not _all_numbers(values):
        return _VALUES_PROBLEM
    if type(obj["classes"]) is not list:
        return _CLASSES_PROBLEM
    if type(obj.get("label")) not in _LABEL_TYPES:
        return "label must be an integer index"
    try:
        hash(tuple(obj["classes"]))
    except TypeError:  # an array or object among the class names
        return _CLASSES_PROBLEM
    if type(obj["id"]) is not str:
        return "id must be a string"
    raise AssertionError(f"the read loop's gate rejected a line with no structural defect: {obj!r}")


def _float(value) -> float:
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        return math.inf if value > 0 else -math.inf


def _as_floats(flat: list) -> np.ndarray:
    try:
        return np.fromiter(flat, dtype=float, count=len(flat))
    except OverflowError:
        return np.array([_float(v) for v in flat], dtype=float)


def _as_labels(raw: list, labelled: np.ndarray) -> np.ndarray:
    labels = np.full(len(raw), -1, dtype=np.int64)
    given = list(compress(raw, labelled))
    try:
        labels[labelled] = given
    except OverflowError:  # out of range anyway; the error message quotes the raw value
        labels[labelled] = [g if abs(g) < 2**62 else -1 for g in given]
    return labels


def _mask(op, column: list, value) -> np.ndarray:
    """``[op(x, value) for x in column]`` as a bool array, without a Python-level loop."""
    return np.fromiter(map(op, column, repeat(value)), dtype=bool, count=len(column))


def parse_records(path) -> RecordBatch:
    """Read a line-delimited record file into one batch; blank lines are ignored."""
    try:
        return _parse(path, open(path, encoding="utf-8"))
    except UnicodeDecodeError:  # text mode decodes ahead, so the lines before the bad one are parsed alone
        with open(path, encoding="utf-8", errors="surrogateescape") as handle:
            text = handle.readlines()  # each undecodable byte reads as a lone surrogate
    lineno, bad = next((n, m) for n, line in enumerate(text, 1) if (m := re.search("[\udc80-\udcff]", line)))
    _parse(path, nullcontext(text[: lineno - 1]))  # a defect on an earlier line is reported first
    byte = ord(bad.group()) - 0xDC00
    raise RecordParseError(path, lineno, f"not UTF-8 text (byte 0x{byte:02x} at column {bad.start() + 1})")


def _parse(path, source) -> RecordBatch:
    """The batch of the text lines that the context manager ``source`` yields."""
    ids, flat, labels = [], [], []
    blanks = []  # the number of rows read before each blank line
    # One entry per run of lines with equal group, class list, value kind and K
    starts, groups, classes, logits, ks = [], [], [], [], []
    run_group = run_classes = run_logit = run_k = _NO_RUN
    names: dict[tuple, int] = {}
    failure = None
    with source as handle:
        for line in handle:
            text = line.strip()
            if not text:
                blanks.append(len(ids))
                continue
            try:
                obj, end = _scan(text, 0)
            except (StopIteration, ValueError, RecursionError):
                end = -1
            if end != len(text):
                failure = RecordParseError(path, len(ids) + len(blanks) + 1, _json_problem(text))
                break
            # The gate: each test is one of _structure_problem's, which words the first that fails.
            try:
                rid, group, class_list = obj["id"], obj["group"], obj["classes"]
                values = obj["logits"] if (logit := "logits" in obj) else obj["evidence"]
                label = obj.get("label")
                if not (
                    type(rid) is str
                    and type(class_list) is list
                    and type(values) is list
                    and type(label) in _LABEL_TYPES
                    and not (logit and "evidence" in obj)
                ):
                    raise TypeError
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
            except (KeyError, TypeError):  # not an object, a field missing, or a field of the wrong type
                failure = RecordParseError(path, len(ids) + len(blanks) + 1, _structure_problem(obj))
                break
            ids.append(rid)
            flat += values
            labels.append(label)
    rows = np.arange(len(ids))
    lines = rows + 1 + np.searchsorted(np.array(blanks, dtype=np.intp), rows, side="right")
    starts = np.array(starts, dtype=np.intp)
    k = np.repeat(np.array(ks, dtype=np.intp), np.diff(starts, append=len(ids)))
    if not _all_numbers(flat):
        first = next(i for i, v in enumerate(flat) if type(v) not in _NUMBER_TYPES)
        n = int(np.searchsorted(np.cumsum(k), first, side="right"))
        failure = RecordParseError(path, int(lines[n]), _VALUES_PROBLEM)
        del flat[int(k[:n].sum()) :], ids[n:], labels[n:]
        runs = int(np.searchsorted(starts, n))
        starts, groups, classes, logits = starts[:runs], groups[:runs], classes[:runs], logits[:runs]
        k, lines = k[:n], lines[:n]
    # Only the rows before the earliest structural defect or non-number value
    # were kept, so a numeric defect among them lies on an earlier line and is
    # the one reported.
    lengths = np.diff(starts, append=len(ids))
    labelled = _mask(is_not, labels, None)
    batch = _validated(
        RecordBatch(
            ids=ids,
            ood=np.repeat(np.array([g == _OOD for g in groups], dtype=bool), lengths),
            class_names=tuple(names),
            class_index=np.repeat(np.array(classes, dtype=np.intp), lengths),
            k=k,
            values=_as_floats(flat),
            labels=_as_labels(labels, labelled),
            labelled=labelled,
            lines=lines,
            path=str(path),
        ),
        starts,
        groups,
        np.array(logits, dtype=bool),
        labels,
    )
    if failure is not None:
        raise failure
    return batch


def _duplicates(ids: list[str]) -> tuple[np.ndarray, dict[str, int]]:
    """Mask of rows whose id appeared on an earlier row, and each id's first row."""
    duplicate = np.zeros(len(ids), dtype=bool)
    first: dict[str, int] = {}
    if len(set(ids)) < len(ids):
        for row, rid in enumerate(ids):
            duplicate[row] = first.setdefault(rid, row) != row
    return duplicate, first


def _validated(batch: RecordBatch, starts: np.ndarray, groups: list, logits: np.ndarray, labels: list) -> RecordBatch:
    """The batch with softplus applied to its logits rows, once every per-file check passed.

    ``starts``, ``groups`` and ``logits`` give each run of equal lines its
    first row, its group and whether it holds logits. One softplus call
    covers every finite logits entry (a row with a non-finite entry is
    reported by the first check); each K block is then gathered and checked
    as one matrix, with S summed as the scorer sums it. The error names the
    earliest line with any defect and, on that line, the first defect in
    the order the checks are listed below.
    """
    n = len(batch)
    lengths = np.diff(starts, append=n)
    finite = np.isfinite(batch.values)
    values = batch.values.copy()
    nonfinite = np.zeros(n, dtype=bool)
    overflow = np.zeros(n, dtype=bool)
    negative = np.zeros(n, dtype=bool)
    widths = set(batch.k[starts].tolist())
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows are flagged below
        soft = np.repeat(logits, lengths * batch.k[starts]) & finite
        values[soft] = softplus_evidence(values[soft])
        for k in widths:
            rows = np.flatnonzero(batch.k == k)
            index = _flat_index(batch.k, rows)
            block = values[index].reshape(len(rows), k)
            nonfinite[rows] = ~finite[index].reshape(len(rows), k).all(axis=1)
            overflow[rows] = ~finite_strength(block)
            negative[rows] = (block < 0).any(axis=1)
    ids, k = batch.ids, batch.k
    bad_names = np.array([not all(type(c) is str for c in key) for key in batch.class_names], dtype=bool)
    class_counts = np.array([len(key) for key in batch.class_names], dtype=np.intp)
    duplicate, first_row = _duplicates(ids)

    def first_negative(row: int) -> int:
        start = int(k[:row].sum())
        return int(np.argmax(values[start : start + k[row]] < 0))

    checks = [
        (nonfinite, lambda i: "evidence/logits must be finite"),
        (overflow, lambda i: "total strength S = sum(evidence + 1) overflows"),
        (
            np.repeat(np.array([g != _ID and g != _OOD for g in groups], dtype=bool), lengths),
            lambda i: f"{groups[int(np.searchsorted(starts, i, side='right')) - 1]!r} is not a valid Group",
        ),
        (bad_names[batch.class_index], lambda i: _CLASSES_PROBLEM),
        (
            class_counts[batch.class_index] != k,
            lambda i: (
                f"record {ids[i]!r}: evidence length {k[i]} != "
                f"class count {class_counts[batch.class_index[i]]}"
            ),
        ),
        (k < 2, lambda i: f"record {ids[i]!r}: needs at least 2 classes"),
        (negative, lambda i: f"record {ids[i]!r}: negative evidence at index {first_negative(i)}"),
        (
            batch.labelled & ((batch.labels < 0) | (batch.labels >= k)),
            lambda i: f"record {ids[i]!r}: gold_label {labels[i]} out of range",
        ),
        (
            duplicate,
            lambda i: f"duplicate id {ids[i]!r} (first on line {batch.lines[first_row[ids[i]]]})",
        ),
    ]
    found = [(int(np.argmax(bad)), c) for c, (bad, _) in enumerate(checks) if bad.any()]
    if found:
        row, c = min(found)
        raise RecordParseError(batch.path, int(batch.lines[row]), checks[c][1](row))
    return replace(batch, values=values)


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

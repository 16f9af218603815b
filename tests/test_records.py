"""Record-file ingestion: schema validation, softplus on logits, round-trips."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vacuitylab import RecordBatch, RecordParseError, parse_records, remove_class, serialize_records
from vacuitylab.cli import main
from vacuitylab.dirichlet import EvidenceRecord
from vacuitylab.records import _earliest_defect

from oracles import parse_records_per_line, records_of


def write_lines(path, lines):
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")
    return path


GOOD_EVIDENCE = {
    "id": "q1",
    "group": "id",
    "classes": ["A", "B", "C", "D"],
    "evidence": [12, 8, 9, 7],
    "label": 2,
}


class TestParse:
    def test_evidence_line(self, tmp_path):
        path = write_lines(tmp_path / "r.jsonl", [GOOD_EVIDENCE])
        (record,) = records_of(parse_records(path))
        assert record.id == "q1"
        assert record.evidence == (12, 8, 9, 7)
        assert record.gold_label == 2
        assert record.class_names == ("A", "B", "C", "D")

    def test_logits_pass_through_softplus(self, tmp_path):
        path = write_lines(
            tmp_path / "r.jsonl",
            [{"id": "q2", "group": "ood", "classes": ["A", "B"], "logits": [0, 0]}],
        )
        (record,) = records_of(parse_records(path))
        assert record.evidence[0] == pytest.approx(math.log(2), rel=1e-12)
        assert record.gold_label is None

    def test_negative_evidence_names_line(self, tmp_path):
        path = write_lines(
            tmp_path / "r.jsonl",
            [
                GOOD_EVIDENCE,
                {"id": "q3", "group": "id", "classes": ["A", "B"], "evidence": [-1, 0]},
            ],
        )
        with pytest.raises(RecordParseError, match=r":2: .*negative evidence at index 0"):
            parse_records(path)

    def test_both_evidence_and_logits_rejected(self, tmp_path):
        path = write_lines(
            tmp_path / "r.jsonl",
            [{"id": "q", "group": "id", "classes": ["A", "B"], "evidence": [1, 2], "logits": [1, 2]}],
        )
        with pytest.raises(RecordParseError, match="exactly one"):
            parse_records(path)

    def test_neither_rejected(self, tmp_path):
        path = write_lines(tmp_path / "r.jsonl", [{"id": "q", "group": "id", "classes": ["A", "B"]}])
        with pytest.raises(RecordParseError, match="exactly one"):
            parse_records(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(json.dumps(GOOD_EVIDENCE) + "\n{not json\n", encoding="utf-8")
        with pytest.raises(RecordParseError, match=r":2: invalid JSON"):
            parse_records(path)

    def test_missing_field(self, tmp_path):
        path = write_lines(tmp_path / "r.jsonl", [{"id": "q", "classes": ["A", "B"], "evidence": [1, 2]}])
        with pytest.raises(RecordParseError, match="'group'"):
            parse_records(path)

    def test_bad_group(self, tmp_path):
        path = write_lines(
            tmp_path / "r.jsonl",
            [{"id": "q", "group": "test", "classes": ["A", "B"], "evidence": [1, 2]}],
        )
        with pytest.raises(RecordParseError):
            parse_records(path)

    def test_deeply_nested_json_names_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(json.dumps(GOOD_EVIDENCE) + "\n" + "[" * 5000 + "]" * 5000 + "\n", encoding="utf-8")
        with pytest.raises(RecordParseError, match=r":2: invalid JSON \(nested too deeply\)"):
            parse_records(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text("\n" + json.dumps(GOOD_EVIDENCE) + "\n\n", encoding="utf-8")
        assert len(parse_records(path)) == 1

    def test_nonfinite_logits_rejected(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(
            '{"id": "q", "group": "id", "classes": ["A", "B"], "logits": [1, Infinity]}\n',
            encoding="utf-8",
        )
        with pytest.raises(RecordParseError, match="finite"):
            parse_records(path)

    @pytest.mark.parametrize(
        "values",
        [
            '"evidence": [1, Infinity]',
            '"evidence": [NaN, 1]',
            '"evidence": [1e400, 1]',
            '"evidence": [1' + "0" * 400 + ', 1]',
            '"evidence": [1e308, 1e308]',
            '"logits": [1e308, 1e308]',
            '"logits": [1, Infinity]',
            '"logits": [-Infinity, 1]',
            '"logits": [NaN, 1]',
        ],
        ids=["inf", "nan", "float-overflow", "int-overflow", "sum-overflow", "logit-sum-overflow",
             "logit-inf", "logit-minus-inf", "logit-nan"],
    )
    def test_nonfinite_evidence_or_strength_names_line(self, tmp_path, values):
        path = tmp_path / "r.jsonl"
        path.write_text(
            json.dumps(GOOD_EVIDENCE)
            + '\n{"id": "q", "group": "id", "classes": ["A", "B"], '
            + values
            + "}\n",
            encoding="utf-8",
        )
        with pytest.raises(RecordParseError, match=r":2: .*(finite|overflows)"):
            parse_records(path)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"evidence": [True, False]}, "numeric array"),
            ({"logits": [0.5, True]}, "numeric array"),
            ({"evidence": [1, 2], "label": True}, "integer index"),
        ],
        ids=["evidence", "logits", "label"],
    )
    def test_json_booleans_are_not_numbers(self, tmp_path, fields, message):
        line = {"id": "q", "group": "id", "classes": ["A", "B"], **fields}
        path = write_lines(tmp_path / "r.jsonl", [GOOD_EVIDENCE, line])
        with pytest.raises(RecordParseError, match=rf":2: .*{message}"):
            parse_records(path)


class TestRoundTrip:
    def test_parse_serialize_parse_is_exact(self, tmp_path):
        lines = [
            GOOD_EVIDENCE,
            {
                "id": "q2",
                "group": "ood",
                "classes": ["A", "B", "C"],
                "evidence": [0.1234567890123456789, 7.25e-300, 3.0],
            },
        ]
        first = parse_records(write_lines(tmp_path / "a.jsonl", lines))
        serialize_records(first, tmp_path / "b.jsonl")
        second = parse_records(tmp_path / "b.jsonl")
        assert records_of(first) == records_of(second)

    def test_logit_records_serialize_in_evidence_form(self, tmp_path):
        path = write_lines(
            tmp_path / "a.jsonl",
            [{"id": "q", "group": "id", "classes": ["A", "B"], "logits": [0.3, -2.0]}],
        )
        records = parse_records(path)
        serialize_records(records, tmp_path / "b.jsonl")
        reparsed = parse_records(tmp_path / "b.jsonl")
        assert records_of(reparsed) == records_of(records)
        dumped = json.loads((tmp_path / "b.jsonl").read_text().splitlines()[0])
        assert "evidence" in dumped and "logits" not in dumped

    def test_label_omitted_when_absent(self, tmp_path):
        from vacuitylab import EvidenceRecord

        rec = EvidenceRecord(id="q", group="ood", class_names=["A", "B"], evidence=[1, 2])
        serialize_records(RecordBatch.from_records([rec]), tmp_path / "b.jsonl")
        assert "label" not in json.loads((tmp_path / "b.jsonl").read_text())


@st.composite
def record_batches(draw):
    """Batches with mixed K, unlabelled rows, several class-name tuples and non-ASCII ids."""
    n = draw(st.integers(1, 20))
    ids = draw(
        st.lists(
            st.sampled_from(["é", "日本", "q\U0001f600", 'a"b\\', "ß\n"])
            | st.text(min_size=1, max_size=4),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    records = []
    for rid in ids:
        k = draw(st.integers(2, 12))
        prefix = draw(st.sampled_from(["c", "é", "X"]))
        evidence = draw(st.lists(st.floats(0.0, 1e300), min_size=k, max_size=k))
        records.append(
            EvidenceRecord(
                id=rid,
                group=draw(st.sampled_from(["id", "ood"])),
                class_names=[f"{prefix}{j}" for j in range(k)],
                evidence=evidence,
                gold_label=draw(st.none() | st.integers(0, k - 1)),
            )
        )
    return RecordBatch.from_records(records)


class TestColumnarWriter:
    @settings(max_examples=80, deadline=None)
    @given(batch=record_batches())
    def test_parse_of_serialize_reproduces_every_column(self, tmp_path_factory, batch):
        path = tmp_path_factory.mktemp("writer") / "r.jsonl"
        serialize_records(batch, path)
        parsed = parse_records(path)
        assert parsed.ids == batch.ids
        assert parsed.class_names == batch.class_names
        for column in ("ood", "class_index", "k", "values", "labels", "labelled", "lines"):
            got, want = getattr(parsed, column), getattr(batch, column)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), column

    @settings(max_examples=40, deadline=None)
    @given(batch=record_batches())
    def test_lines_are_what_json_dumps_writes(self, tmp_path_factory, batch):
        path = tmp_path_factory.mktemp("writer") / "r.jsonl"
        serialize_records(batch, path)
        expected = []
        for r in records_of(batch):
            obj = {"id": r.id, "group": r.group.value, "classes": list(r.class_names)}
            obj["evidence"] = list(r.evidence)
            if r.gold_label is not None:
                obj["label"] = r.gold_label
            expected.append(json.dumps(obj) + "\n")
        assert path.read_text(encoding="utf-8") == "".join(expected)

    def test_infinite_evidence_is_refused(self, tmp_path):
        rec = EvidenceRecord(id="q", group="ood", class_names=["A", "B"], evidence=[math.inf, 1.0])
        with pytest.raises(ValueError, match="non-finite evidence"):
            serialize_records(RecordBatch.from_records([rec]), tmp_path / "b.jsonl")
        assert not (tmp_path / "b.jsonl").exists()


# sha256 of simulate's two files, written by the per-record writer before the columnar one
SIMULATE_SHA256 = {
    "overlap-k4": (
        {"n_id": 300, "n_ood": 200, "k": 4, "id_correct_shape": 6.0, "id_wrong_shape": 0.8,
         "ood_shape": 2.0, "scale": 1.0, "seed": 3},
        "d62e751bc7eca985800f65ca9fdf2849b500cff6029631417ced7bea67326b4c",
        "a77370186db000ee44703c244dd909348c082efe3b688075598848afb183f2e0",
    ),
    "k30": (
        {"n_id": 120, "n_ood": 80, "k": 30, "seed": 5},
        "20850be4424f545716aeacdac3174dbc49a30eb6f778b846ffd4ec70348e10dd",
        "7603b6cd36f39877e1c14cce989ad90aeb9a9a17b73be2953655d3b60e42c973",
    ),
}


@pytest.mark.parametrize("name", SIMULATE_SHA256)
def test_simulate_bytes_are_pinned(tmp_path, name):
    config, id_sha, ood_sha = SIMULATE_SHA256[name]
    (tmp_path / "population.json").write_text(json.dumps(config))
    assert main(["simulate", "--config", str(tmp_path / "population.json"), "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "id_records.jsonl").read_bytes()).hexdigest() == id_sha
    assert hashlib.sha256((tmp_path / "ood_records.jsonl").read_bytes()).hexdigest() == ood_sha
    if name == "k30":
        first = json.loads((tmp_path / "id_records.jsonl").read_text().splitlines()[0])
        assert first["classes"] == [f"C{i}" for i in range(1, 31)]


class TestDuplicateIds:
    def test_repeated_id_names_both_lines(self, tmp_path):
        path = tmp_path / "r.jsonl"
        other = dict(GOOD_EVIDENCE, id="q2")
        path.write_text(
            "\n".join([json.dumps(GOOD_EVIDENCE), json.dumps(other), "", json.dumps(GOOD_EVIDENCE)]) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(RecordParseError, match=r":4: duplicate id 'q1' \(first on line 1\)"):
            parse_records(path)

    def test_same_id_in_two_files_is_fine(self, tmp_path):
        a = write_lines(tmp_path / "a.jsonl", [GOOD_EVIDENCE])
        b = write_lines(tmp_path / "b.jsonl", [dict(GOOD_EVIDENCE, group="ood")])
        assert parse_records(a).ids == parse_records(b).ids == ["q1"]


@st.composite
def record_files(draw, mixed=st.booleans()):
    """Record lines with K 2-12, evidence or logits, int or float values, optional labels."""
    mixed = draw(mixed)
    file_k = draw(st.integers(2, 12))
    lines = []
    for i in range(draw(st.integers(1, 25))):
        k = draw(st.integers(2, 12)) if mixed else file_k
        obj = {"id": f"r{i}", "group": draw(st.sampled_from(["id", "ood"])),
               "classes": [f"c{j}" for j in range(k)]}
        if draw(st.booleans()):
            value = st.integers(-30, 30) | st.floats(-700.0, 700.0, allow_nan=False)
            obj["logits"] = draw(st.lists(value, min_size=k, max_size=k))
        else:
            value = st.integers(0, 10**6) | st.floats(0.0, 1e12, allow_nan=False)
            obj["evidence"] = draw(st.lists(value, min_size=k, max_size=k))
        if draw(st.booleans()):
            obj["label"] = draw(st.integers(0, k - 1))
        lines.append(json.dumps(obj))
        if draw(st.integers(0, 5)) == 0:
            lines.append("   ")
    return "\n".join(lines) + "\n"


def oracle_columns(text):
    """Per-line reference: json.loads, then np.logaddexp(0, x) on each logits line."""
    rows = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        obj = json.loads(line)
        if "logits" in obj:
            evidence = np.logaddexp(0.0, np.array(obj["logits"], dtype=float))
        else:
            evidence = np.array(obj["evidence"], dtype=float)
        rows.append((lineno, obj, evidence))
    return rows


class TestBatchColumns:
    @settings(max_examples=80, deadline=None)
    @given(text=record_files())
    def test_columns_match_per_line_oracle_bit_for_bit(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("batch") / "r.jsonl"
        path.write_text(text, encoding="utf-8")
        batch = parse_records(path)
        rows = oracle_columns(text)
        assert len(batch) == len(rows)
        assert batch.lines.tolist() == [lineno for lineno, _, _ in rows]
        assert batch.ids == [obj["id"] for _, obj, _ in rows]
        assert batch.ood.tolist() == [obj["group"] == "ood" for _, obj, _ in rows]
        assert [batch.class_names[i] for i in batch.class_index] == [
            tuple(obj["classes"]) for _, obj, _ in rows
        ]
        assert batch.k.tolist() == [len(ev) for _, _, ev in rows]
        assert batch.values.tobytes() == np.concatenate([ev for _, _, ev in rows]).tobytes()
        assert batch.labelled.tolist() == ["label" in obj for _, obj, _ in rows]
        assert batch.labels.tolist() == [obj.get("label", -1) for _, obj, _ in rows]
        if len(set(batch.k.tolist())) == 1:
            assert batch.evidence.tobytes() == np.stack([ev for _, _, ev in rows]).tobytes()
        for record, (_, obj, ev) in zip(records_of(batch), rows):
            assert record.evidence == tuple(ev.tolist())
            assert record.gold_label == obj.get("label")


GOOD_LINE = '{"id": "ok%d", "group": "id", "classes": ["A", "B", "C"], "evidence": [1, 2, 3]}'
# kind -> (line with that defect, message); "%d" keeps ids apart
DEFECTS = {
    "json": ('{"id": "j%d", "group": "id"', "invalid JSON"),
    "object": ("[%d, 1]", "expected a JSON object"),
    "missing": ('{"id": "m%d", "classes": ["A", "B"], "evidence": [1, 2]}', "missing field 'group'"),
    "bool": ('{"id": "b%d", "group": "id", "classes": ["A", "B"], "evidence": [true, 1]}',
             "numeric array"),
    "label-type": ('{"id": "t%d", "group": "id", "classes": ["A", "B"], "evidence": [1, 2], '
                   '"label": "A"}', "integer index"),
    "negative": ('{"id": "n%d", "group": "id", "classes": ["A", "B"], "evidence": [1, -2]}',
                 "negative evidence at index 1"),
    "nan": ('{"id": "f%d", "group": "id", "classes": ["A", "B"], "logits": [NaN, 2]}', "finite"),
    "overflow": ('{"id": "o%d", "group": "id", "classes": ["A", "B"], "evidence": [1e308, 1e308]}',
                 "overflows"),
    "group": ('{"id": "g%d", "group": "test", "classes": ["A", "B"], "evidence": [1, 2]}',
              "not a valid Group"),
    "one-class": ('{"id": "k%d", "group": "id", "classes": ["A"], "evidence": [1]}', "at least 2"),
    "ragged": ('{"id": "r%d", "group": "id", "classes": ["A", "B"], "evidence": [1, 2, 3]}',
               "class count"),
    "label-range": ('{"id": "l%d", "group": "id", "classes": ["A", "B"], "evidence": [1, 2], '
                    '"label": 2}', "out of range"),
    "duplicate": (GOOD_LINE.replace("ok%d", "ok0"), "duplicate id 'ok0'"),
    "id-type": ('{"id": null, "group": "id", "classes": ["A", "B"], "evidence": [1, 2]}', "id must be a string"),
    "string-value": ('{"id": "s%d", "group": "id", "classes": ["A", "B"], "evidence": [1, "2"]}',
                     "numeric array"),
    "null-value": ('{"id": "z%d", "group": "id", "classes": ["A", "B"], "logits": [null, 2]}',
                   "numeric array"),
    "nested-value": ('{"id": "v%d", "group": "id", "classes": ["A", "B"], "evidence": [1, [2]]}',
                     "numeric array"),
    "scalar": ('"s%d"', "expected a JSON object"),
    "neither": ('{"id": "e%d", "group": "id", "classes": ["A", "B"]}', "exactly one of"),
    "both": ('{"id": "e%d", "group": "id", "classes": ["A", "B"], "evidence": [1, 2], "logits": [1, 2]}',
             "exactly one of"),
    "values-type": ('{"id": "w%d", "group": "id", "classes": ["A", "B"], "evidence": 3}', "numeric array"),
    "classes-type": ('{"id": "c%d", "group": "id", "classes": "AB", "evidence": [1, 2]}', "array of strings"),
    "unhashable-class": ('{"id": "u%d", "group": "id", "classes": [["A"], "B"], "evidence": [1, 2]}',
                         "array of strings"),
    "number-class": ('{"id": "p%d", "group": "id", "classes": [1, "B"], "evidence": [1, 2]}', "array of strings"),
}


@pytest.mark.parametrize("first", DEFECTS)
def test_earliest_defective_line_is_reported(tmp_path, first):
    """Structural and numeric defects alike: the earlier line wins, as in a line-by-line parse."""
    for second in DEFECTS:
        templates = [GOOD_LINE, DEFECTS[first][0], GOOD_LINE, DEFECTS[second][0]]
        lines = [t.replace("%d", str(n)) for n, t in enumerate(templates)]
        path = tmp_path / f"{first}-{second}.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(RecordParseError) as info:
            parse_records(path)
        assert info.value.lineno == 2, (first, second, str(info.value))
        assert DEFECTS[first][1] in str(info.value), (first, second, str(info.value))


# an id holding a lone 0xff byte, the 10th byte of the line
BAD_BYTE_LINE = b'{"id": "x\xff", "group": "id", "classes": ["A", "B"], "evidence": [1, 2]}'


@pytest.mark.parametrize("n_good", [0, 3, 400], ids=["first", "same-chunk", "later-chunk"])
def test_non_utf8_line_names_its_line(tmp_path, n_good):
    """The first line that is not UTF-8 is reported, before any defect on a later line."""
    lines = [(GOOD_LINE % n).encode() for n in range(n_good)]
    lines += [BAD_BYTE_LINE, DEFECTS["json"][0].encode(), b"\xfe"]
    path = tmp_path / "r.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(RecordParseError, match=r"not UTF-8 text \(byte 0xff at column 10\)") as info:
        parse_records(path)
    assert info.value.lineno == n_good + 1


@pytest.mark.parametrize("n_good", [1, 400], ids=["same-chunk", "later-chunk"])
@pytest.mark.parametrize("first", DEFECTS)
def test_defect_before_a_non_utf8_line_is_reported(tmp_path, first, n_good):
    """Text-mode reading decodes ahead, but a defect on an earlier line still wins over the bad byte."""
    lines = [(GOOD_LINE % n).encode() for n in range(n_good)]
    lines += [DEFECTS[first][0].replace("%d", "999").encode(), (GOOD_LINE % n_good).encode(), BAD_BYTE_LINE]
    path = tmp_path / "r.jsonl"
    path.write_bytes(b"\r\n".join(lines) + b"\r\n")
    with pytest.raises(RecordParseError) as info:
        parse_records(path)
    assert info.value.lineno == n_good + 1, str(info.value)
    assert DEFECTS[first][1] in str(info.value)


def test_checker_refuses_a_file_the_reader_passes(tmp_path):
    """A file refused with no defect on any line fails loudly instead of getting some line's message."""
    path = tmp_path / "r.jsonl"
    path.write_text("".join(GOOD_LINE % n + "\n" for n in range(3)), encoding="utf-8")
    with pytest.raises(AssertionError):
        _earliest_defect(path)


# A non-number among the values: types the per-file check must reject
BAD_VALUES = {"string": "2", "null": None, "nested": [1], "bool": True}


@pytest.mark.parametrize("where", ["first", "last", "mixed-k"])
@pytest.mark.parametrize("bad", BAD_VALUES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_non_number_value_names_its_line(tmp_path_factory, bad, where, data):
    """One bad value in an otherwise valid file: the error names the line the per-line oracle puts it on."""
    text = data.draw(record_files(mixed=st.just(True)) if where == "mixed-k" else record_files())
    rows = oracle_columns(text)
    if where == "mixed-k":
        lineno, obj, _ = data.draw(st.sampled_from(rows))
    else:
        lineno, obj, _ = rows[0 if where == "first" else -1]
    key = "evidence" if "evidence" in obj else "logits"
    values = list(obj[key])
    values[data.draw(st.integers(0, len(values) - 1))] = BAD_VALUES[bad]
    lines = text.split("\n")
    lines[lineno - 1] = json.dumps(dict(obj, **{key: values}))
    path = tmp_path_factory.mktemp("values") / "r.jsonl"
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(RecordParseError, match="numeric array") as info:
        parse_records(path)
    assert info.value.lineno == lineno


@pytest.mark.parametrize("kind", [None, *DEFECTS, *BAD_VALUES])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_reader_and_checker_agree(tmp_path_factory, kind, data):
    """A valid file is read; with one defective line injected, that line is reported with its kind's message.

    Files mix K, blank lines and LF or CRLF ends. A file the reader refuses
    but the checker finds valid would raise AssertionError here.
    """
    lines = data.draw(record_files()).split("\n")[:-1]
    rows = [i for i, line in enumerate(lines) if line.strip()]
    if kind in BAD_VALUES:
        obj = json.loads(lines[data.draw(st.sampled_from(rows))])
        key = "evidence" if "evidence" in obj else "logits"
        values = list(obj[key])
        values[data.draw(st.integers(0, len(values) - 1))] = BAD_VALUES[kind]
        injected, message = json.dumps(dict(obj, id="bad", **{key: values})), "numeric array"
    elif kind is not None:
        injected, message = DEFECTS[kind][0].replace("%d", "999"), DEFECTS[kind][1]
    if kind is not None:
        # inserted before a row, or after the last; a duplicate needs an earlier row to repeat
        at = data.draw(st.integers(int(kind == "duplicate"), len(rows)))
        if kind == "duplicate":
            earlier = rows[data.draw(st.integers(0, at - 1))]
            lines[earlier] = json.dumps(dict(json.loads(lines[earlier]), id="ok0"))
        position = rows[at] if at < len(rows) else len(lines)
        lines.insert(position, injected)
    ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    path = tmp_path_factory.mktemp("agree") / "r.jsonl"
    path.write_bytes("".join(line + end for line, end in zip(lines, ends)).encode("utf-8"))
    if kind is None:
        assert len(parse_records(path)) == len(rows)
        return
    with pytest.raises(RecordParseError) as info:
        parse_records(path)
    assert info.value.lineno == position + 1 and message in str(info.value), (kind, str(info.value))


# (group, class-name prefix, logits?, K): the fields a run of equal lines shares
RUN_FIELDS = (("id", "ood"), ("", "c", "é"), (False, True), (2, 3, 4, 5))


def _changed(draw, shape):
    """``shape`` with at least one field changed."""
    shape = list(shape)
    for field in draw(st.sets(st.integers(0, len(RUN_FIELDS) - 1), min_size=1)):
        shape[field] = draw(st.sampled_from([v for v in RUN_FIELDS[field] if v != shape[field]]))
    return tuple(shape)


@st.composite
def runs(draw):
    """(shape, length) of each run: a new run at every line, in runs of 1-6 lines, or never."""
    change = draw(st.sampled_from(["every", "runs", "never"]))
    if change == "runs":
        lengths = draw(st.lists(st.integers(1, 6), min_size=1, max_size=8))
    else:
        n = draw(st.integers(1, 25))
        lengths = [1] * n if change == "every" else [n]
    shapes = [draw(st.tuples(*map(st.sampled_from, RUN_FIELDS)))]
    for _ in lengths[1:]:
        shapes.append(_changed(draw, shapes[-1]))
    return list(zip(shapes, lengths))


def run_line(draw, rid, shape):
    group, prefix, logits, k = shape
    obj = {"id": rid, "group": group, "classes": [f"{prefix}{chr(65 + j)}" for j in range(k)]}
    if logits:
        value = st.integers(-30, 30) | st.floats(-700.0, 700.0, allow_nan=False)
    else:
        value = st.integers(0, 10**6) | st.floats(0.0, 1e12, allow_nan=False)
    obj["logits" if logits else "evidence"] = draw(st.lists(value, min_size=k, max_size=k))
    if draw(st.booleans()):
        obj["label"] = draw(st.integers(0, k - 1))
    return json.dumps(obj)


def joined(draw, lines):
    """The file's bytes, with LF or CRLF line ends and blank lines mixed in, and each line's number."""
    parts, linenos = [], []
    for line in lines:
        parts.append(line + draw(st.sampled_from(["\n", "\r\n"])))
        linenos.append(len(parts))
        if draw(st.integers(0, 4)) == 0:
            parts.append(draw(st.sampled_from(["\n", "  \r\n", "\t\n"])))
    return "".join(parts).encode("utf-8"), linenos


class TestRuns:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_columns_equal_the_per_line_oracle_bit_for_bit(self, tmp_path_factory, data):
        shapes = [shape for shape, length in data.draw(runs()) for _ in range(length)]
        lines = [run_line(data.draw, f"row{i}", shape) for i, shape in enumerate(shapes)]
        path = tmp_path_factory.mktemp("runs") / "r.jsonl"
        path.write_bytes(joined(data.draw, lines)[0])
        got, want = parse_records(path), parse_records_per_line(path)
        assert (got.ids, got.class_names, got.path) == (want.ids, want.class_names, want.path)
        for column in ("ood", "class_index", "k", "values", "labels", "labelled", "lines"):
            a, b = getattr(got, column), getattr(want, column)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), column

    @pytest.mark.parametrize("place", ["first", "last"])
    @pytest.mark.parametrize("kind", DEFECTS)
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_defect_on_a_run_boundary_is_reported_as_alone(self, tmp_path_factory, kind, place, data):
        """A defect on the first or last row of a run gets the line and message it gets with no runs around it."""
        first_line = '{"id": "ok0", "group": "id", "classes": ["first", "line"], "evidence": [1, 2]}'
        defect = DEFECTS[kind][0].replace("%d", "999")
        tmp = tmp_path_factory.mktemp("defect")
        alone = tmp / "alone.jsonl"
        alone.write_text(f"{first_line}\n{defect}\n", encoding="utf-8")
        with pytest.raises(RecordParseError) as info:
            parse_records(alone)
        assert info.value.lineno == 2 and DEFECTS[kind][1] in str(info.value)
        message = str(info.value).removeprefix(f"{alone}:2: ")

        file_runs = data.draw(runs())
        run = data.draw(st.integers(0, len(file_runs) - 1))
        # most defect lines have group "id", classes A and B and K=2: the run may share them
        shared = ("id", "", '"logits"' in defect, 2)
        neighbours = [shape for shape, _ in file_runs[max(run - 1, 0) : run + 2]]
        if data.draw(st.booleans()) and shared not in neighbours:
            file_runs[run] = (shared, file_runs[run][1])
        shapes = [shape for shape, length in file_runs for _ in range(length)]
        row = sum(length for _, length in file_runs[:run])
        if place == "last":
            row += file_runs[run][1] - 1
        lines = [run_line(data.draw, f"row{i}", shape) for i, shape in enumerate(shapes)]
        lines[row] = defect
        text, linenos = joined(data.draw, [first_line, *lines])
        path = tmp / "runs.jsonl"
        path.write_bytes(text)
        with pytest.raises(RecordParseError) as info:
            parse_records(path)
        assert str(info.value) == f"{path}:{linenos[row + 1]}: {message}"


# every value here prints as its shortest repr: signed zero, exponent forms, the subnormal and largest finite
EDGE_VALUES = [0.0, -0.0, 1e-05, 1e16, 5e-324, 1.7976931348623157e308]


@pytest.mark.parametrize("ks", [[k] for k in range(2, 13)] + [list(range(2, 13))],
                         ids=[f"k{k}" for k in range(2, 13)] + ["mixed-k"])
def test_writer_lines_are_json_dumps_of_edge_values(tmp_path, ks):
    rows = []
    for i in range(2 * len(EDGE_VALUES)):
        k = ks[i % len(ks)]
        obj = {"id": f"e{i}", "group": "ood" if i % 3 else "id", "classes": [f"C{j}" for j in range(k)],
               "evidence": [EDGE_VALUES[(i + j) % len(EDGE_VALUES)] for j in range(k)]}
        if i % 2:
            obj["label"] = i % k
        rows.append(obj)
    batch = RecordBatch.from_records(
        EvidenceRecord(id=o["id"], group=o["group"], class_names=o["classes"], evidence=o["evidence"],
                       gold_label=o.get("label"))
        for o in rows
    )
    serialize_records(batch, tmp_path / "r.jsonl")
    written = (tmp_path / "r.jsonl").read_bytes().splitlines(keepends=True)
    assert written == [(json.dumps(o) + "\n").encode() for o in rows]


class TestBatchTransforms:
    def make_batch(self, tmp_path):
        lines = [
            {"id": f"q{i}", "group": "ood", "classes": ["A", "B", "C", "D"],
             "evidence": [i, 2 * i, 0.5, 3], **({"label": i % 4} if i % 3 else {})}
            for i in range(12)
        ]
        return parse_records(write_lines(tmp_path / "r.jsonl", lines))

    @pytest.mark.parametrize("index", [0, 1, 3])
    def test_drop_class_matches_remove_class(self, tmp_path, index):
        batch = self.make_batch(tmp_path)
        keep = ~(batch.labelled & (batch.labels == index))
        reduced = batch.take(keep).drop_class(index)
        expected = [remove_class(r, index) for r in records_of(batch)]
        assert records_of(reduced) == [r for r in expected if r is not None]
        assert reduced.evidence.shape == (int(keep.sum()), 3)
        assert reduced.lines.tolist() == batch.lines[keep].tolist()

    def test_drop_class_refuses_rows_labelled_with_it(self, tmp_path):
        with pytest.raises(ValueError, match="excluded first"):
            self.make_batch(tmp_path).drop_class(1)

    def test_take_keeps_order_and_views(self, tmp_path):
        batch = self.make_batch(tmp_path)
        assert records_of(batch.take([5, 2])) == [records_of(batch)[5], records_of(batch)[2]]
        assert len(batch.take([])) == 0

    def test_from_records_round_trips(self, tmp_path):
        batch = self.make_batch(tmp_path)
        assert records_of(RecordBatch.from_records(records_of(batch))) == records_of(batch)

    def test_mixed_k_has_no_single_matrix(self, tmp_path):
        lines = [GOOD_EVIDENCE, {"id": "q2", "group": "id", "classes": ["A", "B"], "evidence": [1, 2]}]
        batch = parse_records(write_lines(tmp_path / "r.jsonl", lines))
        assert batch.k.tolist() == [4, 2]
        assert records_of(batch)[1].evidence == (1.0, 2.0)
        with pytest.raises(ValueError, match="different class counts"):
            batch.evidence

    @pytest.mark.parametrize(
        "ks, expected",
        [([], None), ([4], 4), ([3, 3, 3], 3), ([4, 2], None), ([2, 4, 4], None), ([5, 5, 2, 5], None)],
    )
    def test_class_count(self, ks, expected):
        batch = RecordBatch.from_records(
            EvidenceRecord(id=f"q{i}", group="id", class_names="ABCDE"[:k], evidence=[1.0] * k)
            for i, k in enumerate(ks)
        )
        assert batch.class_count() == expected
        if expected is not None:
            assert batch.evidence.shape == (len(ks), expected)

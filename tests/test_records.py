"""Record-file ingestion: schema validation, softplus on logits, round-trips."""

import json
import math

import pytest

from vacuitylab import RecordParseError, parse_records, serialize_records
from vacuitylab.records import record_to_dict


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
        (record,) = parse_records(path)
        assert record.id == "q1"
        assert record.evidence == (12, 8, 9, 7)
        assert record.gold_label == 2
        assert record.class_names == ("A", "B", "C", "D")

    def test_logits_pass_through_softplus(self, tmp_path):
        path = write_lines(
            tmp_path / "r.jsonl",
            [{"id": "q2", "group": "ood", "classes": ["A", "B"], "logits": [0, 0]}],
        )
        (record,) = parse_records(path)
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
        ],
        ids=["inf", "nan", "float-overflow", "int-overflow", "sum-overflow", "logit-sum-overflow"],
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
        assert first == second

    def test_logit_records_serialize_in_evidence_form(self, tmp_path):
        path = write_lines(
            tmp_path / "a.jsonl",
            [{"id": "q", "group": "id", "classes": ["A", "B"], "logits": [0.3, -2.0]}],
        )
        records = parse_records(path)
        serialize_records(records, tmp_path / "b.jsonl")
        reparsed = parse_records(tmp_path / "b.jsonl")
        assert reparsed == records
        dumped = json.loads((tmp_path / "b.jsonl").read_text().splitlines()[0])
        assert "evidence" in dumped and "logits" not in dumped

    def test_label_omitted_when_absent(self):
        from vacuitylab import EvidenceRecord

        rec = EvidenceRecord(id="q", group="ood", class_names=["A", "B"], evidence=[1, 2])
        assert "label" not in record_to_dict(rec)

"""Report emission: table formats, sweep plots, determinism."""

import hashlib
import json
from xml.sax.saxutils import escape

import pytest

from vacuitylab import (
    ExpansionMode,
    ExpansionSpec,
    Metric,
    generate_evidence_population,
    overlap_population_params,
    run_expansion_experiment,
)
from vacuitylab.experiments import RestrictionResult, mismatch_warning
from vacuitylab.metrics import DetectionResult
from vacuitylab.report import (
    detection_result_dict,
    emit_report,
    expansion_result_dict,
    render_table,
    restriction_result_dict,
    sweep_csv,
    sweep_svg,
    warnings_jsonl,
)


@pytest.fixture(scope="module")
def expansion_result():
    id_records, ood_records = generate_evidence_population(
        overlap_population_params(seed=3, n_id=80, n_ood=80)
    )
    run = run_expansion_experiment(
        id_records,
        ood_records,
        ExpansionSpec(mode=ExpansionMode.MATCHED, k_max=6),
        Metric.VACUITY,
    )
    return expansion_result_dict("expansion_matched", run)


class TestTables:
    def test_md_rounds_to_three_decimals(self, expansion_result):
        table = render_table(expansion_result, "md")
        assert "| baseline |" in table
        assert "0.000" in table  # matched deltas render as 0.000
        for token in table.split():
            if token.startswith("0.") and len(token) > 6:
                pytest.fail(f"unrounded number in md table: {token}")

    def test_matched_deltas_are_zero(self, expansion_result):
        rows = expansion_result["rows"]
        assert all(r["delta_auroc"] == 0.0 for r in rows)
        assert all(r["delta_aupr"] == 0.0 for r in rows)

    def test_json_is_full_precision(self, expansion_result):
        blob = render_table(expansion_result, "json")
        parsed = json.loads(blob)
        assert parsed["rows"][0]["auroc"] == expansion_result["rows"][0]["auroc"]

    def test_csv_round_trips_floats(self, expansion_result):
        csv_text = render_table(expansion_result, "csv")
        lines = csv_text.strip().splitlines()
        header = lines[0].split(",")
        first = dict(zip(header, lines[1].split(",")))
        assert float(first["auroc"]) == expansion_result["rows"][0]["auroc"]

    def test_unknown_format_rejected(self, expansion_result):
        with pytest.raises(ValueError):
            render_table(expansion_result, "xlsx")


class TestSvg:
    def test_contains_series_and_embedded_data(self, expansion_result):
        svg = sweep_svg(expansion_result)
        assert svg.startswith("<?xml")
        assert "<polyline" in svg
        assert "<metadata>" in svg
        assert "k_ood,auroc,aupr,aupr_baseline" in svg
        assert svg.count("<circle") == 2 * len(expansion_result["rows"])

    def test_single_target_has_two_points_per_series(self, expansion_result):
        single = dict(expansion_result, rows=expansion_result["rows"][:2])
        svg = sweep_svg(single)
        assert svg.count("<circle") == 4  # baseline + one target, two series

    def test_markup_characters_are_escaped_as_saxutils_does(self, expansion_result):
        title = "ood-only sweep - metric: a<b & c>d"
        svg = sweep_svg(dict(expansion_result, mode="ood-only", metric="a<b & c>d"))
        assert f">{escape(title)}</text>" in svg
        assert "a&lt;b &amp; c&gt;d" in svg

    def test_byte_deterministic(self, expansion_result):
        assert sweep_svg(expansion_result) == sweep_svg(expansion_result)
        assert sweep_csv(expansion_result) == sweep_csv(expansion_result)


class TestEmit:
    def test_writes_expected_files(self, expansion_result, tmp_path):
        written = emit_report([expansion_result], tmp_path, "md")
        names = {p.name for p in written}
        assert names == {
            "expansion_matched.result.json",
            "expansion_matched.md",
            "expansion_matched_sweep.svg",
            "expansion_matched_sweep.csv",
        }
        stored = json.loads((tmp_path / "expansion_matched.result.json").read_text())
        assert stored == expansion_result

    def test_identical_inputs_identical_bytes(self, expansion_result, tmp_path):
        emit_report([expansion_result], tmp_path / "a", "csv")
        emit_report([expansion_result], tmp_path / "b", "csv")
        for name in ("expansion_matched.csv", "expansion_matched_sweep.svg"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_empty_results_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], tmp_path, "md")


class TestWarnings:
    def test_jsonl_shape(self):
        text = warnings_jsonl([{"type": "cardinality_mismatch", "k_id": 4, "k_ood": 5}])
        parsed = json.loads(text.strip())
        assert parsed["type"] == "cardinality_mismatch"


def _pinned_results() -> dict:
    """One result of each kind; the expansion one as JSON reads it back, with integer-valued numbers."""
    as_is = DetectionResult(0.8123456789012345, 0.7011936183472102, 0.5, 60, 60, "vacuity", 4, 5)
    removed = DetectionResult(0.6543210987654321, 0.59, 0.5454545454545454, 60, 50, "vacuity", 4, 4)
    restriction = RestrictionResult(
        as_is, removed, excluded_ids=("q0", "q5"), warnings=(mismatch_warning("restriction_as_is", 4, 5),)
    )
    detection = DetectionResult(0.9876543210123456, 0.3333333333333333, 0.25, 30, 90, "entropy", 3, 3)
    expansion = json.loads(
        '{"kind": "expansion", "name": "e", "metric": "max_prob", "orientation": "ood-pos", '
        '"mode": "ood-only", "appended_evidence": 0, "rows": [{"condition": "baseline", "k_id": 4, '
        '"k_ood": 4, "auroc": 1, "delta_auroc": 0, "aupr": 0.5, "delta_aupr": 0.0, "aupr_baseline": 1, '
        '"n_positive": 3, "n_negative": 2}]}'
    )
    return {
        "restriction": restriction_result_dict("restriction", restriction, 4),
        "detection": detection_result_dict("metrics_entropy", "entropy (ood-pos)", detection, "ood-pos"),
        "expansion": expansion,
    }


# sha256 of every text each result renders to; integer-valued numbers keep their int form in every format
REPORT_SHA256 = {
    "restriction": {
        "md": "6fbcb7462edfb36ba62a5501a442e6dd5e4586f2d0e4cde85ed0d5143b403a68",
        "csv": "85718135a7ced14106b9303c5b564f8bb247b987bb7e1847824f546b01f85f90",
        "json": "0d8b17b57d08656e2f675a166560d3c88218b64a51a482db598c9325f8c065ba",
        "sweep_csv": "d5056ebe99f3d82ef7cbd8714808ded75d0e50ea0c7ef15fe47634f66a2718e3",
        "sweep_svg": "b663f860d860ebe78af8e948f0a7ae41ccdd3bbb9db014595087dbba5254c5c6",
    },
    "detection": {
        "md": "5fcc52b39d548c6a3c7ae628bc6fb8718e81923eadb66c6a78a5f33fd946e0a3",
        "csv": "016981cfdfdb9960438721fac2882f8b9fd49e9294d7a976573377c46ae1c1cd",
        "json": "63969a9c475203df2db21b974a6e149faa4dcc4c9083cd19d88063090ad75d1d",
        "sweep_csv": "22d3656c26778f681a883897beb67e96be49141679043c054c00bc16956a8471",
        "sweep_svg": "3766cba32da307048af706f097ab7d4d589495ecf4f8ea5c81d423f7439ba29b",
    },
    "expansion": {
        "md": "c9f0101f7971969fdfd7076c5906f4684c7a4521cbb5c477ee0e3e59fe1bd1f5",
        "csv": "12e9ed36e869da6885706bbaa917003ff54851cf3280dec81ef78c65d24df6b6",
        "json": "afb2710eecb05fa3dcaf3afe65895549c8c2051d7276c6ff020cd6e6cb38e879",
        "sweep_csv": "f7285973cb94614069f1eb5baed5f0cbc43925137de984756fd23cd61d90c8bd",
        "sweep_svg": "55045545bf98e65b8b1b136c13a8cc1d5aee7487a2fe4c36042ac5eb520fac03",
    },
}


@pytest.mark.parametrize("kind", ["restriction", "detection", "expansion"])
def test_rendered_bytes_are_pinned(kind):
    result = _pinned_results()[kind]
    texts = {fmt: render_table(result, fmt) for fmt in ("md", "csv", "json")}
    texts.update(sweep_csv=sweep_csv(result), sweep_svg=sweep_svg(result))
    digests = {name: hashlib.sha256(text.encode("utf-8")).hexdigest() for name, text in texts.items()}
    assert digests == REPORT_SHA256[kind]

"""Report emission: table formats, sweep plots, determinism."""

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
from vacuitylab.report import (
    emit_report,
    expansion_result_dict,
    render_table,
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

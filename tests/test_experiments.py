"""Cardinality audit, expansion sweeps, and the class-restriction experiment.

Two exact claims anchor this module: matched zero-evidence expansion is a
rank-preserving reparameterization of vacuity (AUROC/AUPR bit-identical to
baseline), while OOD-only zero-evidence expansion raises every OOD vacuity
and can only help the detector.
"""

import dataclasses
import inspect
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vacuitylab import (
    INVARIANCE_EVIDENCE,
    CardinalityMismatchError,
    EvidenceRecord,
    ExpansionMode,
    ExpansionSpec,
    Group,
    Metric,
    Orientation,
    Verdict,
    append_classes,
    remove_class,
    RecordBatch,
    audit_cardinality,
    auroc,
    generate_evidence_population,
    overlap_population_params,
    parse_records,
    run_expansion_experiment,
    run_restriction_experiment,
    score_group,
    score_record,
)
from vacuitylab import experiments
from vacuitylab.experiments import evaluate_groups

from oracles import evidence_to_alpha, records_of, vacuity


def rec(rid, evidence, group="id", gold=None):
    names = [chr(ord("A") + i) for i in range(len(evidence))]
    return EvidenceRecord(id=rid, group=group, class_names=names, evidence=evidence, gold_label=gold)


@pytest.fixture(scope="module")
def population():
    return generate_evidence_population(overlap_population_params(seed=0))


class TestAudit:
    def test_matched_pass(self):
        report = audit_cardinality(
            RecordBatch.from_records([rec("a", [1, 2, 3, 4])]),
            RecordBatch.from_records([rec("b", [0, 0, 0, 0], "ood")]),
        )
        assert report.verdict is Verdict.PASS
        assert report.k_id == 4 and report.k_ood == 4
        assert report.detail == ()

    def test_group_mismatch_fails(self):
        report = audit_cardinality(
            RecordBatch.from_records([rec("a", [1, 2, 3, 4])]),
            RecordBatch.from_records([rec("b", [0, 0, 0, 0, 0], "ood")]),
        )
        assert report.verdict is Verdict.FAIL
        assert (report.k_id, report.k_ood) == (4, 5)
        assert ("b", 5) in report.detail

    def test_mixed_within_group_fails(self):
        report = audit_cardinality(
            RecordBatch.from_records([rec("a", [1, 2, 3, 4]), rec("a2", [1, 2, 3])]),
            RecordBatch.from_records([rec("b", [0, 0, 0, 0], "ood")]),
        )
        assert report.verdict is Verdict.FAIL
        assert report.k_id == "MIXED"
        assert ("a2", 3) in report.detail

    def test_verdict_symmetric(self):
        groups = (
            RecordBatch.from_records([rec("a", [1, 2, 3, 4])]),
            RecordBatch.from_records([rec("b", [0, 0, 0, 0, 0], "ood")]),
        )
        swapped = (  # the same pair on the other sides, each row relabelled to its new side's group
            RecordBatch.from_records([rec("b", [0, 0, 0, 0, 0])]),
            RecordBatch.from_records([rec("a", [1, 2, 3, 4], "ood")]),
        )
        assert audit_cardinality(*groups).verdict is audit_cardinality(*swapped).verdict

    def test_empty_group_rejected(self, tmp_path):
        """An empty group is an error naming its file, the ID group first."""
        empty, other = tmp_path / "empty.jsonl", tmp_path / "other.jsonl"
        empty.write_text("")
        other.write_text("")
        with pytest.raises(ValueError, match="^<records>: no records$"):
            audit_cardinality(RecordBatch.from_records([]), RecordBatch.from_records([rec("b", [1, 2])]))
        with pytest.raises(ValueError, match=f"^{re.escape(str(empty))}: no records$"):
            audit_cardinality(RecordBatch.from_records([rec("a", [1, 2])]), parse_records(empty))
        with pytest.raises(ValueError, match=f"^{re.escape(str(empty))}: no records$"):
            audit_cardinality(parse_records(empty), parse_records(other))


class TestScoreGroup:
    def test_uniform_id_record_vacuity_score(self):
        samples = score_group([rec("a", [0, 0, 0, 0])], Metric.VACUITY, Orientation.ID_POSITIVE)
        assert samples[0].score == 1.0
        assert samples[0].label == 1

    def test_reciprocal_vacuity(self):
        samples = score_group([rec("a", [12, 8, 9, 7])], Metric.VACUITY, Orientation.ID_POSITIVE)
        assert samples[0].score == pytest.approx(10.0, rel=1e-12)

    def test_orientation_swap_keeps_auroc(self, population):
        id_records, ood_records = population
        records = records_of(id_records) + records_of(ood_records)
        for metric in Metric:
            a = auroc(score_group(records, metric, Orientation.ID_POSITIVE))
            b = auroc(score_group(records, metric, Orientation.OOD_POSITIVE))
            assert a == b

    def test_ood_positive_labels(self):
        samples = score_group(
            [rec("a", [1, 2]), rec("b", [1, 2], "ood")], Metric.VACUITY, Orientation.OOD_POSITIVE
        )
        assert [s.label for s in samples] == [0, 1]
        assert samples[1].score == pytest.approx(-1.0 / vacuity(evidence_to_alpha(rec("b", [1, 2]))))

    def test_mixed_class_counts_rejected(self):
        with pytest.raises(ValueError, match="rows have different class counts"):
            score_group([rec("a", [1, 2]), rec("b", [1, 2, 3])], Metric.VACUITY)

    @pytest.mark.parametrize("metric", list(Metric))
    def test_empty_group_rejected(self, tmp_path, metric):
        """An empty batch has no evidence matrix: every metric refuses it with one error naming its file."""
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        ood = RecordBatch.from_records([rec("b", [1, 2], "ood")])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no records$"):
            evaluate_groups(parse_records(path), ood, metric, Orientation.ID_POSITIVE)
        with pytest.raises(ValueError, match="^<records>: no records$"):
            score_group([], metric)

    def test_score_record_entropy(self):
        value = score_record(rec("a", [0, 0, 0, 0]), Metric.NORM_ENTROPY, Orientation.ID_POSITIVE)
        assert value == pytest.approx(0.0, abs=1e-12)  # uniform: H/log2 K = 1


class TestExpansion:
    def test_matched_zero_evidence_is_bit_exact(self, population):
        id_records, ood_records = population
        spec = ExpansionSpec(mode=ExpansionMode.MATCHED, k_max=8)
        run = run_expansion_experiment(id_records, ood_records, spec, Metric.VACUITY)
        base = run.baseline
        for row in run.rows[1:]:
            assert row.auroc == base.auroc
            assert row.aupr == base.aupr
            assert row.aupr_baseline == base.aupr_baseline
        assert [(row.k_id, row.k_ood) for row in run.rows] == [(k, k) for k in range(4, 9)]

    @pytest.mark.parametrize(
        "metric, base, k8", [(Metric.MP, 0.920668, 0.901764), (Metric.NORM_ENTROPY, 0.927944, 0.835764)]
    )
    def test_matched_zero_evidence_moves_mp_and_entropy(self, population, metric, base, k8):
        """A matched append keeps only vacuity's ranks: on the demo, K = 8 moves mp by -0.019 and entropy by -0.092."""
        run = run_expansion_experiment(*population, ExpansionSpec(ExpansionMode.MATCHED, 8), metric)
        assert run.baseline.auroc == pytest.approx(base, abs=1e-12)
        assert run.rows[-1].auroc == pytest.approx(k8, abs=1e-12)
        assert (run.rows[-1].k_id, run.rows[-1].k_ood) == (8, 8)

    def test_ood_only_zero_evidence_inflates(self, population):
        id_records, ood_records = population
        spec = ExpansionSpec(mode=ExpansionMode.OOD_ONLY, k_max=8)
        run = run_expansion_experiment(id_records, ood_records, spec, Metric.VACUITY)
        aurocs = [row.auroc for row in run.rows]
        for earlier, later in zip(aurocs, aurocs[1:]):
            if earlier < 1.0:
                assert later > earlier
        assert run.rows[0].k_ood == 4
        assert [row.k_ood for row in run.rows[1:]] == [5, 6, 7, 8]
        assert all(row.k_id == 4 for row in run.rows)

    def test_invariance_evidence_freezes_everything(self, population):
        """Appending each record's own S/K - 1 keeps every vacuity, so the
        sweep is flat even in OOD-only mode."""
        id_records, ood_records = population
        spec = ExpansionSpec(
            mode=ExpansionMode.OOD_ONLY, k_max=6, appended_evidence=INVARIANCE_EVIDENCE
        )
        run = run_expansion_experiment(id_records, ood_records, spec, Metric.VACUITY)
        base = run.baseline
        for row in run.rows[1:]:
            assert row.auroc == pytest.approx(base.auroc, abs=1e-12)
            assert row.aupr == pytest.approx(base.aupr, abs=1e-12)
        sample = records_of(ood_records)[0]
        u_before = vacuity(evidence_to_alpha(sample))
        state = evidence_to_alpha(sample)
        expanded = append_classes(sample, 1, state.strength / state.k - 1.0)
        assert vacuity(evidence_to_alpha(expanded)) == pytest.approx(u_before, rel=1e-12)

    def test_inputs_never_mutated(self, population):
        id_records, ood_records = population
        before_id = [r.evidence for r in records_of(id_records)]
        before_ood = [r.evidence for r in records_of(ood_records)]
        spec = ExpansionSpec(mode=ExpansionMode.MATCHED, k_max=6)
        run_expansion_experiment(id_records, ood_records, spec, Metric.MP)
        assert [r.evidence for r in records_of(id_records)] == before_id
        assert [r.evidence for r in records_of(ood_records)] == before_ood

    def test_mismatched_baseline_rejected(self):
        with pytest.raises(CardinalityMismatchError, match="refusing to score mismatched cardinalities"):
            run_expansion_experiment(
                RecordBatch.from_records([rec("a", [1, 2, 3, 4])]),
                RecordBatch.from_records([rec("b", [1, 2, 3, 4, 5], "ood")]),
                ExpansionSpec(mode=ExpansionMode.MATCHED, k_max=6),
                Metric.VACUITY,
            )

    def test_mismatch_error_carries_the_failed_audit(self):
        groups = (
            RecordBatch.from_records([rec("a", [1, 2, 3, 4])]),
            RecordBatch.from_records([rec("b", [1, 2, 3, 4, 5], "ood")]),
        )
        with pytest.raises(CardinalityMismatchError) as info:
            run_expansion_experiment(*groups, ExpansionSpec(ExpansionMode.OOD_ONLY, 6), Metric.VACUITY)
        assert info.value.report == audit_cardinality(*groups)
        assert info.value.report.verdict is Verdict.FAIL

    def test_spec_sweeps_up_to_k_max(self):
        assert [f.name for f in dataclasses.fields(ExpansionSpec)] == ["mode", "k_max", "appended_evidence"]
        with pytest.raises(TypeError):
            ExpansionSpec(mode=ExpansionMode.MATCHED, k_targets=(5, 6))

    def test_k_target_must_exceed_base(self):
        with pytest.raises(ValueError, match="exceed"):
            run_expansion_experiment(
                RecordBatch.from_records([rec("a", [1, 2, 3, 4])]),
                RecordBatch.from_records([rec("b", [1, 2, 3, 4], "ood")]),
                ExpansionSpec(mode=ExpansionMode.MATCHED, k_max=4),
                Metric.VACUITY,
            )

    def test_spec_validation(self):
        """A spec the sweep cannot run is refused when it is built, with an error naming the field."""
        cases = [
            (5, -1.0, "appended_evidence must be >= 0, got -1.0"),
            (5, "bogus", "appended_evidence must be a non-negative number or 'invariance', got 'bogus'"),
            (5, True, "appended_evidence must be a non-negative number or 'invariance', got True"),
            (8.5, 0.0, "k_max must be an integer, got 8.5"),
            (6.0, 0.0, "k_max must be an integer, got 6.0"),
            (True, 0.0, "k_max must be an integer, got True"),
            ("6", 0.0, "k_max must be an integer, got '6'"),
        ]
        for k_max, evidence, message in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                ExpansionSpec(mode=ExpansionMode.MATCHED, k_max=k_max, appended_evidence=evidence)
        assert ExpansionSpec(mode=ExpansionMode.MATCHED, k_max=np.int64(6), appended_evidence=1).k_max == 6

    def test_mp_and_entropy_rows_are_reported(self, population):
        """MP and entropy sweeps run, but carry no invariance claim."""
        id_records, ood_records = population
        spec = ExpansionSpec(mode=ExpansionMode.MATCHED, k_max=5)
        for metric in (Metric.MP, Metric.NORM_ENTROPY):
            run = run_expansion_experiment(id_records, ood_records, spec, metric)
            assert len(run.rows) == 2
            assert all(0.0 <= row.auroc <= 1.0 for row in run.rows)


@st.composite
def evidence_matrices(draw, count=1, floor=0.0, ties=False):
    """``count`` evidence matrices of one K in 2..10, each of 1..30 rows that sum to at least ``floor * K``.

    With ``ties`` every entry is an integer in 0..4, so scores tie often.
    """
    k = draw(st.integers(2, 10))
    value = st.integers(0, 4).map(float) if ties or draw(st.booleans()) else st.floats(0.0, 50.0)
    row = st.lists(value, min_size=k, max_size=k).filter(lambda r: sum(r) >= floor * k)
    return [np.array(draw(st.lists(row, min_size=1, max_size=30))) for _ in range(count)]


APPENDED = 12


@settings(max_examples=100, deadline=None)
@given(evidence_matrices(count=2, floor=1e-3))
def test_zero_evidence_ood_only_sweep_never_helps_ood(matrices):
    """Appending m zero-evidence classes turns an OOD score S/K into (S + m)/(K + m), lower whenever S > K.

    ID scores stand still, so every OOD score falls and no AUROC falls as
    K grows, for any population. Each row's evidence sums to at least
    1e-3 K, far above one ulp of K, so rounding cannot tie a step.
    """
    id_evidence, ood_evidence = matrices
    k = id_evidence.shape[1]
    names = [f"c{j}" for j in range(k)]
    id_records = RecordBatch.from_evidence([f"id{i}" for i in range(len(id_evidence))], Group.ID, names, id_evidence)
    ood_records = RecordBatch.from_evidence([f"q{i}" for i in range(len(ood_evidence))], Group.OOD, names, ood_evidence)
    wide = experiments._append_columns(ood_evidence, APPENDED, 0.0)
    scores = [
        experiments._score_evidence(wide[:, :width], Metric.VACUITY, ood_records)
        for width in range(k, k + APPENDED + 1)
    ]
    assert all((later < earlier).all() for earlier, later in zip(scores, scores[1:]))
    run = run_expansion_experiment(id_records, ood_records, ExpansionSpec("ood-only", k + APPENDED), Metric.VACUITY)
    aurocs = [row.auroc for row in run.rows]
    assert all(later >= earlier for earlier, later in zip(aurocs, aurocs[1:]))


@settings(max_examples=60, deadline=None)
@given(evidence_matrices(count=2, ties=True), st.integers(1, 3), st.sampled_from([0.0, 2.0, INVARIANCE_EVIDENCE]))
def test_orientation_keeps_every_auroc_bit(matrices, extra, appended):
    """Scores are ID-positive and OOD-positive negates them, which reverses every rank and keeps every tie.

    So for every metric, on tie-heavy batches, ``evaluate_groups`` and every
    row of an OOD-only and of a matched sweep give the same AUROC bits in
    both orientations, and the positive and negative counts swap.
    """
    id_evidence, ood_evidence = matrices
    k = id_evidence.shape[1]
    names = [f"c{j}" for j in range(k)]
    id_records = RecordBatch.from_evidence([f"id{i}" for i in range(len(id_evidence))], Group.ID, names, id_evidence)
    ood_records = RecordBatch.from_evidence([f"q{i}" for i in range(len(ood_evidence))], Group.OOD, names, ood_evidence)
    for metric in Metric:
        results = {}
        for orientation in Orientation:
            specs = (ExpansionSpec(mode, k + extra, appended) for mode in ExpansionMode)
            sweeps = (run_expansion_experiment(id_records, ood_records, spec, metric, orientation) for spec in specs)
            results[orientation] = [evaluate_groups(id_records, ood_records, metric, orientation)] + [
                row for run in sweeps for row in run.rows
            ]
        for id_pos, ood_pos in zip(results[Orientation.ID_POSITIVE], results[Orientation.OOD_POSITIVE]):
            assert id_pos.auroc.hex() == ood_pos.auroc.hex()
            assert (id_pos.n_positive, id_pos.n_negative) == (ood_pos.n_negative, ood_pos.n_positive)
        assert len(results[Orientation.OOD_POSITIVE]) == 1 + 2 * (extra + 1)


@settings(max_examples=100, deadline=None)
@given(evidence_matrices(), st.integers(1, APPENDED))
def test_zero_fill_never_changes_a_prediction(matrices, count):
    """Evidence is >= 0 and ``np.argmax`` takes the first maximum, so an appended 0.0 never wins a row.

    The invariance fill S/K - 1 has no such guarantee: it can round above a
    uniform row's shared value ([0.1] * 3 gets 0.10000000000000009).
    """
    (evidence,) = matrices
    wide = experiments._append_columns(evidence, count, 0.0)
    assert (np.argmax(wide, axis=1) == np.argmax(evidence, axis=1)).all()


class TestRestriction:
    def make_groups(self):
        id_records = [rec(f"id{i}", [5 + i, 1, 1, 1]) for i in range(6)]
        five = [
            rec("q0", [2, 3, 4, 5, 6], "ood", gold=1),
            rec("q1", [1, 1, 1, 1, 9], "ood", gold=4),
            rec("q2", [2, 2, 2, 2, 2], "ood", gold=4),
            rec("q3", [1, 2, 3, 4, 5], "ood"),
        ]
        return RecordBatch.from_records(id_records), RecordBatch.from_records(five)

    def test_excludes_gold_label_records(self):
        id_records, five = self.make_groups()
        result = run_restriction_experiment(five, 4, id_records, Metric.VACUITY)
        assert set(result.excluded_ids) == {"q1", "q2"}
        assert result.removed.n_negative == 2
        assert result.as_is.n_negative == 4

    def test_baseline_recomputed_from_new_counts(self):
        id_records, five = self.make_groups()
        result = run_restriction_experiment(five, 4, id_records, Metric.VACUITY)
        assert result.as_is.aupr_baseline == pytest.approx(6 / 10)
        assert result.removed.aupr_baseline == pytest.approx(6 / 8)
        assert result.as_is.aupr_baseline != result.removed.aupr_baseline

    def test_no_gold_on_removed_class_keeps_counts(self):
        id_records, five = self.make_groups()
        result = run_restriction_experiment(five, 0, id_records, Metric.VACUITY)
        assert result.excluded_ids == ()
        assert result.removed.n_negative == result.as_is.n_negative
        assert result.removed.aupr_baseline == result.as_is.aupr_baseline

    def test_as_is_run_carries_warning(self):
        """The as-is run is scored over two K, the removed run over one: ``report`` warns on the first alone."""
        id_records, five = self.make_groups()
        result = run_restriction_experiment(five, 4, id_records, Metric.VACUITY)
        assert result.as_is.k_id == 4 and result.as_is.k_ood == 5
        assert result.removed.k_id == 4 and result.removed.k_ood == 4

    def test_removed_run_reads_k_of_the_dropped_matrix(self):
        """Each run's K is the width of the matrix it scored."""
        _, five = self.make_groups()
        id_k3 = RecordBatch.from_records([rec(f"id{i}", [5 + i, 1, 1]) for i in range(6)])
        result = run_restriction_experiment(five, 4, id_k3, Metric.VACUITY)
        assert (result.as_is.k_id, result.as_is.k_ood) == (3, 5)
        assert (result.removed.k_id, result.removed.k_ood) == (3, 4)

    def test_result_holds_facts_only(self):
        fields = [f.name for f in dataclasses.fields(experiments.RestrictionResult)]
        assert fields == ["as_is", "removed", "excluded_ids"]  # no warnings: ``report`` derives them from each K
        # no mode, metric, orientation or evidence: the caller states how it asked
        assert [f.name for f in dataclasses.fields(experiments.ExpansionRun)] == ["rows"]

    @pytest.mark.parametrize(
        "ood_rows, index, message",
        [
            (None, 5, "<records>: class_index 5 out of range for K=5"),
            ([rec("q0", [1, 2, 3], "ood", gold=2), rec("q1", [3, 2, 1], "ood", gold=2)], 2,
             "<records>: removing class 2 excluded every record"),
            ([rec("q0", [1, 2], "ood", gold=1), rec("q1", [2, 1], "ood")], 0,
             "<records>: cannot remove a class from a 2-class record"),
        ],
        ids=["out-of-range", "every-record-excluded", "two-class"],
    )
    def test_bad_index_rejected(self, monkeypatch, ood_rows, index, message):
        id_records, ood_records = self.make_groups()
        if ood_rows is not None:
            ood_records = RecordBatch.from_records(ood_rows)
        scored = []
        score_evidence = experiments._score_evidence
        monkeypatch.setattr(
            experiments, "_score_evidence", lambda *args: scored.append(args) or score_evidence(*args)
        )
        with pytest.raises(ValueError) as info:
            run_restriction_experiment(ood_records, index, id_records, Metric.VACUITY)
        assert str(info.value) == message
        assert scored == []  # rejected before either run is scored

    @pytest.mark.parametrize("index", [True, 1.5, "1", None], ids=["bool", "float", "str", "none"])
    def test_non_integer_index_rejected(self, monkeypatch, index):
        """An index that is not an integer is refused by name, naming the records, before either run is scored."""
        id_records, five = self.make_groups()
        scored = []
        score_evidence = experiments._score_evidence
        monkeypatch.setattr(
            experiments, "_score_evidence", lambda *args: scored.append(args) or score_evidence(*args)
        )
        with pytest.raises(ValueError) as info:
            run_restriction_experiment(five, index, id_records, Metric.VACUITY)
        assert str(info.value) == f"<records>: class_index must be an integer, got {index!r}"
        assert scored == []

    def test_numpy_integer_index_accepted(self):
        id_records, five = self.make_groups()
        result = run_restriction_experiment(five, np.int64(1), id_records, Metric.VACUITY)
        assert result == run_restriction_experiment(five, 1, id_records, Metric.VACUITY)
        assert result.excluded_ids == ("q0",)

    @pytest.mark.parametrize("k, index", [(4, 0), (4, 1), (4, 3), (10, 7)])
    def test_removed_run_matches_remove_class(self, k, index):
        """The removed run equals evaluate_groups over the per-record oracle's reduced records, exactly."""
        rng = np.random.default_rng(k + index)
        ood_rows = [
            rec(f"q{i}", [i, 2 * i, 0.5, 3] if k == 4 else rng.gamma(0.5, 2.0, k).tolist(), "ood",
                gold=i % k if i % 3 else None)
            for i in range(12)
        ]
        id_records = RecordBatch.from_records([rec(f"id{i}", [5 + i, 1, 1]) for i in range(6)])
        result = run_restriction_experiment(RecordBatch.from_records(ood_rows), index, id_records, Metric.VACUITY)
        reduced = [remove_class(r, index) for r in ood_rows]
        expected = evaluate_groups(
            id_records, RecordBatch.from_records([r for r in reduced if r is not None]), Metric.VACUITY,
            Orientation.ID_POSITIVE, allow_mismatch=True,
        )
        assert result.removed == expected
        assert result.excluded_ids == tuple(r.id for r in ood_rows if r.gold_label == index)

    @pytest.mark.parametrize("side", ["ood", "id"])
    @pytest.mark.parametrize("index", [4, 9])
    def test_mixed_k_group_is_refused_with_its_audit(self, side, index):
        """The library gates itself: a mixed-K group raises the audit, also with an index no K holds."""
        id_rows = [rec(f"id{i}", [5 + i, 1, 1, 1]) for i in range(6)]
        ood_rows = [rec("q0", [2, 3, 4, 5, 6], "ood", gold=1), rec("q1", [1, 1, 1, 1, 9], "ood")]
        (ood_rows if side == "ood" else id_rows).append(rec("x", [1, 2, 3], side))
        id_records, ood_records = RecordBatch.from_records(id_rows), RecordBatch.from_records(ood_rows)
        with pytest.raises(CardinalityMismatchError) as info:
            run_restriction_experiment(ood_records, index, id_records, Metric.VACUITY)
        assert str(info.value) == "mixed cardinality inside a group cannot be scored"
        assert info.value.report == audit_cardinality(id_records, ood_records)

    @pytest.mark.parametrize("side", ["ood", "id"])
    def test_empty_group_is_refused(self, side):
        id_records, five = self.make_groups()
        empty = RecordBatch.from_records([])
        groups = (id_records, empty) if side == "ood" else (empty, five)
        with pytest.raises(ValueError, match="^<records>: no records$"):
            run_restriction_experiment(groups[1], 4, groups[0], Metric.VACUITY)

    def test_restriction_shrinks_mismatch_inflation(self):
        """ID and OOD evidence are drawn identically over 4 real classes; the
        OOD records merely carry a near-empty 5th dimension. As-is scoring
        sees a seemingly strong detector; removing the hollow class
        collapses it to chance."""
        rng = np.random.default_rng(99)
        id_records = [rec(f"id{i}", list(rng.gamma(16.0, 0.125, 4))) for i in range(200)]
        five = [
            rec(f"ood{i}", list(rng.gamma(16.0, 0.125, 4)) + [float(rng.gamma(0.05, 0.1))], "ood")
            for i in range(200)
        ]
        result = run_restriction_experiment(
            RecordBatch.from_records(five), 4, RecordBatch.from_records(id_records), Metric.VACUITY
        )
        assert result.as_is.auroc > 0.85
        assert abs(result.removed.auroc - 0.5) < 0.1
        assert result.as_is.auroc - result.removed.auroc > 0.3


GATED = {
    "audit": audit_cardinality,
    "ood-only-sweep": lambda i, o: run_expansion_experiment(i, o, ExpansionSpec("ood-only", 8), Metric.VACUITY),
    "restriction": lambda i, o: run_restriction_experiment(o, 1, i, Metric.VACUITY),
    "evaluate-groups": lambda i, o: evaluate_groups(i, o, Metric.VACUITY, Orientation.ID_POSITIVE),
}


@pytest.mark.parametrize("call", GATED)
@pytest.mark.parametrize("side", ["id", "ood"])
def test_row_of_the_other_group_is_refused(call, side):
    """A row's group is its side: every gated entry refuses a row marked for the other side, naming its line."""
    other = "ood" if side == "id" else "id"
    rows = {
        "id": [rec(f"id{i}", [5 + i, 1, 1, 1]) for i in range(3)],
        "ood": [rec(f"q{i}", [1, 2, 3, i], "ood", gold=i % 4) for i in range(4)],
    }
    rows[side].append(rec("x", [1, 1, 1, 1], other))
    with pytest.raises(ValueError) as info:
        GATED[call](RecordBatch.from_records(rows["id"]), RecordBatch.from_records(rows["ood"]))
    assert type(info.value) is ValueError
    assert str(info.value) == (
        f"<records>:{len(rows[side])}: record 'x' is in group '{other}', but the {side} group holds '{side}' records"
    )


def test_evaluate_groups_reads_k_from_the_scored_matrices():
    """K is never passed in: ID at K=4 against OOD at K=5 reads K_OOD=5."""
    parameters = list(inspect.signature(evaluate_groups).parameters)
    assert parameters == ["id_records", "ood_records", "metric", "orientation", "allow_mismatch"]
    res = evaluate_groups(
        RecordBatch.from_records([rec("a", [9, 1, 1, 1])]),
        RecordBatch.from_records([rec("b", [1, 1, 1, 1, 0], "ood")]),
        Metric.VACUITY,
        Orientation.ID_POSITIVE,
        allow_mismatch=True,
    )
    assert (res.k_id, res.k_ood) == (4, 5)


class TestEvaluateGroupsGate:
    """``evaluate_groups`` gates itself as the sweeps do: two K only when allowed, a mixed K never."""

    ID_RECORDS = RecordBatch.from_records([rec(f"id{i}", [5 + i, 1, 1, 1]) for i in range(3)])
    K5 = RecordBatch.from_records([rec(f"q{i}", [1, 2, 3, i, 1], "ood") for i in range(3)])

    def test_mismatch_is_refused_unless_allowed(self):
        with pytest.raises(CardinalityMismatchError) as info:
            evaluate_groups(self.ID_RECORDS, self.K5, Metric.VACUITY, Orientation.ID_POSITIVE)
        assert str(info.value) == "refusing to score mismatched cardinalities (metrics --allow-mismatch overrides)"
        report = info.value.report
        assert (report.verdict, report.k_id, report.k_ood) == (Verdict.FAIL, 4, 5)
        assert report == audit_cardinality(self.ID_RECORDS, self.K5)
        res = evaluate_groups(self.ID_RECORDS, self.K5, Metric.VACUITY, Orientation.ID_POSITIVE, allow_mismatch=True)
        assert (res.k_id, res.k_ood) == (4, 5)

    @pytest.mark.parametrize("side", ["id", "ood"])
    def test_mixed_k_is_refused_even_when_mismatch_is_allowed(self, side):
        rows = {"id": [rec("a", [9, 1, 1, 1])], "ood": [rec("b", [1, 1, 1, 1], "ood")]}
        rows[side].append(rec("x", [1, 2, 3, 4, 5], side))
        groups = (RecordBatch.from_records(rows["id"]), RecordBatch.from_records(rows["ood"]))
        with pytest.raises(CardinalityMismatchError) as info:
            evaluate_groups(*groups, Metric.VACUITY, Orientation.ID_POSITIVE, allow_mismatch=True)
        assert str(info.value) == "mixed cardinality inside a group cannot be scored"
        assert info.value.report == audit_cardinality(*groups)


# each call on a K=4 pair -> (the call, how many matrices it scores): a matrix that does not change is scored once
SCORINGS = {
    "ood-only-sweep": (lambda i, o: run_expansion_experiment(i, o, ExpansionSpec("ood-only", 8), Metric.MP), 1 + 5),
    "matched-sweep": (lambda i, o: run_expansion_experiment(i, o, ExpansionSpec("matched", 8), Metric.MP), 2 * 5),
    "restriction": (lambda i, o: run_restriction_experiment(o, 1, i, Metric.MP), 3),
    "evaluate-groups": (lambda i, o: evaluate_groups(i, o, Metric.MP, Orientation.ID_POSITIVE), 2),
}


@pytest.mark.parametrize("call", SCORINGS)
def test_each_matrix_is_scored_once(monkeypatch, call):
    """The scorer runs once per distinct matrix, and every run is built from scored groups, not batches."""
    run, expected = SCORINGS[call]
    id_records = RecordBatch.from_records([rec(f"id{i}", [5 + i, 1, 1, 1]) for i in range(6)])
    ood_records = RecordBatch.from_records([rec(f"q{i}", [1, 2, 3, i], "ood", gold=i % 4) for i in range(6)])
    scored, detections = [], []
    score_evidence, detection = experiments._score_evidence, experiments._detection
    monkeypatch.setattr(experiments, "_score_evidence", lambda *a: scored.append(a) or score_evidence(*a))
    monkeypatch.setattr(experiments, "_detection", lambda *a: detections.append(a) or detection(*a))
    run(id_records, ood_records)
    assert len(scored) == expected
    assert detections and not any(isinstance(a, RecordBatch) for args in detections for a in args)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_spec_rejects_non_finite_appended_evidence(value):
    with pytest.raises(ValueError, match="finite"):
        ExpansionSpec(mode=ExpansionMode.OOD_ONLY, k_max=5, appended_evidence=value)


class TestOverflowNamesRecord:
    """An in-memory S that overflows is named on every scoring path, with no numpy warning."""

    ID_RECORDS = [rec("a", [3.0, 1.0])]
    OOD_RECORDS = [rec("b", [1.0, 1.0], "ood"), rec("c", [1e308, 1e308], "ood")]

    @pytest.mark.parametrize(
        "call, line, k",
        [
            (
                lambda i, o: evaluate_groups(
                    RecordBatch.from_records(i),
                    RecordBatch.from_records(o),
                    Metric.VACUITY,
                    Orientation.ID_POSITIVE,
                ),
                2,
                2,
            ),
            (lambda i, o: score_record(o[1], Metric.MP, Orientation.OOD_POSITIVE), 1, 2),
            (lambda i, o: score_group(o, Metric.NORM_ENTROPY), 2, 2),
            (
                lambda i, o: run_expansion_experiment(
                    RecordBatch.from_records(i),
                    RecordBatch.from_records(o),
                    ExpansionSpec(ExpansionMode.MATCHED, 3),
                    Metric.VACUITY,
                ),
                2,
                2,
            ),
            (
                lambda i, o: run_expansion_experiment(
                    RecordBatch.from_records(i),
                    RecordBatch.from_records(o),
                    ExpansionSpec(ExpansionMode.OOD_ONLY, 3),
                    Metric.VACUITY,
                ),
                2,
                2,
            ),
            (
                lambda i, o: run_restriction_experiment(
                    RecordBatch.from_records(
                        [rec("w", [1.0, 1.0, 1.0], "ood"), rec("c", [1e308, 1e308, 0.0], "ood")]
                    ),
                    2,
                    RecordBatch.from_records(i),
                    Metric.VACUITY,
                ),
                2,
                3,
            ),
        ],
        ids=[
            "evaluate_groups", "score_record", "score_group", "expansion", "expansion-ood-only", "restriction"
        ],
    )
    def test_overflow_is_named(self, call, line, k):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError) as info:
                call(self.ID_RECORDS, self.OOD_RECORDS)
        assert str(info.value) == f"<records>:{line}: record 'c': evidence sum S is not finite at K={k}"
        assert caught == []

    def test_matched_sweep_names_the_id_record_when_both_sides_overflow(self):
        # 1e308 appended twice overflows S at K=4 on both sides; a row scores its ID side first
        with pytest.raises(ValueError) as info:
            run_expansion_experiment(
                RecordBatch.from_records([rec("a", [1.0, 1.0])]),
                RecordBatch.from_records([rec("b", [1.0, 1.0], "ood")]),
                ExpansionSpec(ExpansionMode.MATCHED, 5, 1e308),
                Metric.VACUITY,
            )
        assert str(info.value) == "<records>:1: record 'a': evidence sum S is not finite at K=4"


"""The (n, K) array path against the per-record calculus and the naive oracles.

Expansion and scoring run on evidence matrices; these tests rebuild every
expanded record with ``append_classes`` and score it with the per-record
functions in ``oracles``, which must agree bit for bit, and check every
sweep row against the O(n^2) AUROC and full-recount AUPR oracles. A golden
test pins the bytes of ``expand`` result files.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vacuitylab import (
    INVARIANCE_EVIDENCE,
    EvidenceRecord,
    ExpansionMode,
    ExpansionSpec,
    Metric,
    Orientation,
    RecordBatch,
    ScoredSample,
    append_classes,
    generate_evidence_population,
    overlap_population_params,
    run_expansion_experiment,
)
from vacuitylab.cli import main
from vacuitylab.experiments import _append_columns, _score_evidence
from vacuitylab.records import serialize_records

from oracles import (
    aupr_reference,
    auroc_bruteforce,
    evidence_to_alpha,
    expected_probabilities,
    invariance_concentration,
    max_probability,
    normalized_entropy,
    vacuity,
)


def per_record_score(record, metric, orientation):
    state = evidence_to_alpha(record)
    id_positive = orientation is Orientation.ID_POSITIVE
    if metric is Metric.VACUITY:
        u = vacuity(state)
        return 1.0 / u if id_positive else u
    if metric is Metric.MP:
        mp = max_probability(state)
        return mp if id_positive else 1.0 - mp
    h = normalized_entropy(expected_probabilities(state))
    return 1.0 - h if id_positive else h


def expand_record(record, count, appended_evidence):
    if appended_evidence == INVARIANCE_EVIDENCE:
        _, appended_evidence = invariance_concentration(evidence_to_alpha(record))
    return append_classes(record, count, appended_evidence)


@st.composite
def populations(draw):
    k = draw(st.integers(2, 12))
    if draw(st.booleans()):  # tie-heavy
        value = st.integers(0, 4).map(float)
    else:
        value = st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False)
    groups = []
    for group in ("id", "ood"):
        n = draw(st.integers(1, 12))
        groups.append(
            [
                EvidenceRecord(
                    id=f"{group}{i}",
                    group=group,
                    class_names=[f"c{j}" for j in range(k)],
                    evidence=draw(st.lists(value, min_size=k, max_size=k)),
                )
                for i in range(n)
            ]
        )
    return groups


EVIDENCE = st.sampled_from([0.0, 2.5, INVARIANCE_EVIDENCE])


@settings(max_examples=60, deadline=None)
@given(populations(), st.integers(1, 4), EVIDENCE)
def test_expanded_scores_match_append_classes_bit_for_bit(groups, count, appended_evidence):
    records = groups[0] + groups[1]
    batch = RecordBatch.from_records(records)
    expanded = _append_columns(batch.evidence, count, appended_evidence)
    for metric in Metric:
        scores = _score_evidence(expanded, metric, batch)
        expected = [
            per_record_score(expand_record(r, count, appended_evidence), metric, Orientation.ID_POSITIVE)
            for r in records
        ]
        assert scores.tolist() == expected


@settings(max_examples=40, deadline=None)
@given(populations(), st.integers(1, 3), EVIDENCE, st.sampled_from(list(ExpansionMode)))
def test_sweep_rows_match_naive_oracles(groups, count, appended_evidence, mode):
    id_records, ood_records = groups
    base_k = id_records[0].k
    spec = ExpansionSpec(
        mode=mode,
        k_max=base_k + count,
        appended_evidence=appended_evidence,
    )
    for metric in Metric:
        for orientation in Orientation:
            run = run_expansion_experiment(
                RecordBatch.from_records(id_records),
                RecordBatch.from_records(ood_records),
                spec,
                metric,
                orientation,
            )
            positive = "id" if orientation is Orientation.ID_POSITIVE else "ood"
            for m, row in enumerate(run.rows):
                id_rows = id_records
                if m and mode is ExpansionMode.MATCHED:
                    id_rows = [expand_record(r, m, appended_evidence) for r in id_records]
                ood_rows = [expand_record(r, m, appended_evidence) for r in ood_records]
                samples = [
                    ScoredSample(
                        per_record_score(r, metric, orientation), int(r.group.value == positive)
                    )
                    for r in id_rows + ood_rows
                ]
                assert row.auroc == pytest.approx(auroc_bruteforce(samples), abs=1e-12)
                assert row.aupr == pytest.approx(aupr_reference(samples), abs=1e-12)


def test_overflowing_strength_is_rejected():
    def make(rid, group, evidence):
        return EvidenceRecord(id=rid, group=group, class_names=["A", "B"], evidence=evidence)

    spec = ExpansionSpec(mode=ExpansionMode.OOD_ONLY, k_max=3)
    id_records = [make("a", "id", [3.0, 1.0])]
    ood_records = [make("b", "ood", [1.0, 1.0]), make("c", "ood", [1e308, 1e308])]
    with pytest.raises(ValueError, match="finite"):
        run_expansion_experiment(
            RecordBatch.from_records(id_records),
            RecordBatch.from_records(ood_records),
            spec,
            Metric.VACUITY,
            Orientation.OOD_POSITIVE,
        )


# sha256 of the result files written by the implementation before the array path
GOLDEN = {
    ("ood-only", "0", "vacuity", "id-pos"):
        "fbb1a56b12fc610c590077c96ee0eed86da30f87462662fe0fde81da47e0569b",
    ("matched", "invariance", "vacuity", "id-pos"):
        "b08413d52625c49ae4c3989946dd4d5ceadab333ef0b9e54f727ed1455f7f024",
    ("ood-only", "2.5", "entropy", "ood-pos"):
        "48f1a843518345f374d7281ba1110930a2decf2c26de901188f75d7ba6918f22",
    ("matched", "0", "mp", "ood-pos"):
        "d1e782a1b2adbd525a3fbd17b74192a8e8ab19cdec65333570312efcf5f1d623",
}


@pytest.mark.parametrize("mode, evidence, metric, orientation", GOLDEN.keys())
def test_expand_result_bytes_are_pinned(tmp_path, mode, evidence, metric, orientation):
    id_records, ood_records = generate_evidence_population(overlap_population_params(seed=0))
    serialize_records(id_records, tmp_path / "id.jsonl")
    serialize_records(ood_records, tmp_path / "ood.jsonl")
    out = tmp_path / "out"
    argv = [
        "expand", str(tmp_path / "id.jsonl"), str(tmp_path / "ood.jsonl"),
        "--mode", mode, "--k-max", "9", "--evidence", evidence,
        "--metric", metric, "--orientation", orientation, "--out", str(out),
    ]
    assert main(argv) == 0
    (result,) = out.glob("*.result.json")
    digest = hashlib.sha256(result.read_bytes()).hexdigest()
    assert digest == GOLDEN[(mode, evidence, metric, orientation)]

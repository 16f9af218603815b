"""Acceptance suite: one test per numbered exit criterion.

Each test is tagged with ``@pytest.mark.criterion(n, ...)``; the conftest
hook prints a per-criterion pass/fail summary after the run. Tolerances
and runtime budgets live here, pinned, not in helper code.
"""

import json
import math
import time

import numpy as np
import pytest

from vacuitylab import (
    INVARIANCE_EVIDENCE,
    EvidenceRecord,
    ExpansionMode,
    ExpansionSpec,
    Metric,
    Orientation,
    ScoredSample,
    ToyTrainConfig,
    TrainingMode,
    append_classes,
    aupr,
    auroc,
    digamma,
    generate_evidence_population,
    log_gamma,
    RecordBatch,
    overlap_population_params,
    run_expansion_experiment,
    run_restriction_experiment,
    score_group,
    train_toy,
)
from vacuitylab.cli import main
from vacuitylab.experiments import _append_columns, _score_evidence
from vacuitylab.records import serialize_records

from oracles import (
    aupr_reference,
    auroc_bruteforce,
    dirichlet_state,
    edl_mse_loss,
    evidence_to_alpha,
    invariance_concentration,
    kl_to_uniform,
    records_of,
    vacuity,
)

EULER_GAMMA = 0.57721566490153286061


def random_states(rng, count, k_range=(2, 11)):
    for _ in range(count):
        k = int(rng.integers(*k_range))
        yield rng.gamma(2.0, 1.0, k)


@pytest.mark.criterion(1, "vacuity invariant iff appended concentration is S/K (1000 states, <1s)")
def test_invariance_property_suite():
    rng = np.random.default_rng(20260801)
    start = time.perf_counter()
    for evidence in random_states(rng, 1000):
        record = EvidenceRecord(
            id="x",
            group="id",
            class_names=[str(i) for i in range(len(evidence))],
            evidence=evidence,
        )
        state = evidence_to_alpha(record)
        u = vacuity(state)
        alpha_new, evidence_new = invariance_concentration(state)
        assert alpha_new == pytest.approx(evidence_new + 1.0, rel=1e-15)
        u_kept = (state.k + 1) / (state.strength + alpha_new)
        assert abs(u_kept - u) <= 1e-12 * u
        expanded = _append_columns(evidence[None, :], 1, INVARIANCE_EVIDENCE)
        batch = RecordBatch.from_records([record])
        score = _score_evidence(expanded, Metric.VACUITY, batch)
        assert abs(score[0] - 1.0 / u) <= 1e-12 / u
        delta = float(rng.uniform(1e-3, 0.5))
        sign = 1.0 if (rng.random() < 0.5 or alpha_new - delta < 1.0) else -1.0
        u_moved = (state.k + 1) / (state.strength + alpha_new + sign * delta)
        assert abs(u_moved - u) > 1e-12 * u
    assert time.perf_counter() - start < 1.0


@pytest.mark.criterion(2, "zero-evidence append raises u by exactly (S-K)/(S(S+1)) (<1s)")
def test_zero_evidence_inflation_lemma():
    rng = np.random.default_rng(20260802)
    start = time.perf_counter()
    for evidence in random_states(rng, 1000):
        record = EvidenceRecord(
            id="x",
            group="ood",
            class_names=[str(i) for i in range(len(evidence))],
            evidence=evidence,
        )
        state = evidence_to_alpha(record)
        s, k = state.strength, state.k
        assert s > k  # gamma evidence is positive almost surely
        u_before = vacuity(state)
        u_after = vacuity(evidence_to_alpha(append_classes(record, 1, 0.0)))
        expanded = _append_columns(evidence[None, :], 1, 0.0)
        batch = RecordBatch.from_records([record])
        score = _score_evidence(expanded, Metric.VACUITY, batch)
        assert score[0] == 1.0 / u_after
        assert u_after > u_before
        assert abs((u_after - u_before) - (s - k) / (s * (s + 1.0))) <= 1e-12
    assert time.perf_counter() - start < 1.0


@pytest.fixture(scope="module")
def default_fixture():
    return generate_evidence_population(overlap_population_params(seed=0))


@pytest.mark.criterion(3, "matched zero-evidence expansion leaves AUROC/AUPR bit-exact (<5s)")
def test_matched_expansion_bit_exact(default_fixture):
    id_records, ood_records = default_fixture
    assert len(id_records) == 500 and len(ood_records) == 500
    start = time.perf_counter()
    spec = ExpansionSpec(mode=ExpansionMode.MATCHED, k_max=8)
    run = run_expansion_experiment(id_records, ood_records, spec, Metric.VACUITY)
    for row in run.rows[1:]:
        assert row.auroc == run.baseline.auroc
        assert row.aupr == run.baseline.aupr
    assert time.perf_counter() - start < 5.0


@pytest.mark.criterion(4, "OOD-only expansion strictly inflates AUROC; K+1 jump > +0.05 (<5s)")
def test_ood_only_inflation_pattern(default_fixture):
    id_records, ood_records = default_fixture
    start = time.perf_counter()
    spec = ExpansionSpec(mode=ExpansionMode.OOD_ONLY, k_max=8)
    run = run_expansion_experiment(id_records, ood_records, spec, Metric.VACUITY)
    aurocs = [row.auroc for row in run.rows]
    for earlier, later in zip(aurocs, aurocs[1:]):
        assert later > earlier
    assert aurocs[1] - aurocs[0] > 0.05
    assert time.perf_counter() - start < 5.0


@pytest.mark.criterion(5, "fast AUROC/AUPR match naive oracles on 200 tied instances (<5s)")
def test_ranking_oracle_equivalence():
    rng = np.random.default_rng(20260805)
    start = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(4, 51))
        scores = rng.normal(0.0, 1.0, n)
        tie_mask = rng.random(n) < 0.5
        scores[tie_mask] = np.round(scores[tie_mask], 1)  # force tie groups
        labels = rng.integers(0, 2, n)
        labels[0], labels[1] = 1, 0
        samples = [ScoredSample(float(s), int(l)) for s, l in zip(scores, labels)]
        assert auroc(samples) == pytest.approx(auroc_bruteforce(samples), abs=1e-12)
        assert aupr(samples) == pytest.approx(aupr_reference(samples), abs=1e-12)
    assert time.perf_counter() - start < 5.0


@pytest.mark.criterion(6, "losses match Monte-Carlo oracles within 3 SE; KL(2,1)=ln2-1/2 (<60s)")
def test_loss_oracle_agreement():
    rng = np.random.default_rng(20260806)
    start = time.perf_counter()
    for _ in range(50):
        k = int(rng.integers(2, 9))
        alpha = rng.uniform(1.0, 50.0, k)
        y = np.eye(k)[int(rng.integers(k))]
        analytic = edl_mse_loss(dirichlet_state(alpha), y)
        draws = ((y - rng.dirichlet(alpha, size=100_000)) ** 2).sum(axis=1)
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(analytic - draws.mean()) < 3 * se

    value = kl_to_uniform(dirichlet_state([2.0, 1.0]))
    assert value == pytest.approx(math.log(2.0) - 0.5, abs=1e-9)
    p = rng.dirichlet([2.0, 1.0], size=1_000_000)
    log_ratio = (
        math.lgamma(3.0) - math.lgamma(2.0) - math.lgamma(1.0)
        + np.log(p[:, 0])
        - math.lgamma(2.0)
    )
    se = log_ratio.std(ddof=1) / math.sqrt(len(log_ratio))
    assert abs(value - log_ratio.mean()) < 3 * se
    assert time.perf_counter() - start < 60.0


@pytest.mark.criterion(7, "analytic gradients match central differences, rel err < 1e-5 (<10s)")
def test_gradient_check():
    from test_toy import assert_gradient_matches, random_batch, random_params

    rng = np.random.default_rng(20260807)
    start = time.perf_counter()
    for trial in range(20):
        mode = TrainingMode.EDL if trial % 2 == 0 else TrainingMode.IB_EDL
        params = random_params(rng, mode, k=int(rng.integers(2, 5)), d=int(rng.integers(2, 5)))
        x, y = random_batch(rng, k=params.n_classes, d=params.feature_dim, n=4)
        assert_gradient_matches(
            params, x, y, float(rng.uniform(0, 2)), float(rng.uniform(0, 1)), seed=trial
        )
    assert time.perf_counter() - start < 10.0


@pytest.mark.criterion(8, "toy training: accuracy > 0.95 in 500 steps, far-OOD vacuity gap (<30s)")
def test_toy_training_run():
    start = time.perf_counter()
    config = ToyTrainConfig(mode=TrainingMode.EDL, steps=500, seed=11, n_per_class=250, separation=6.0)
    result = train_toy(config)
    assert result.summary["train_accuracy"] > 0.95
    assert result.summary["mean_far_ood_vacuity"] > result.summary["mean_id_vacuity"]
    assert time.perf_counter() - start < 30.0


@pytest.mark.criterion(9, "CLI: audit exits 2 on K 4-vs-5 and 0 on matched; metrics guards")
def test_cli_audit_contract(default_fixture, tmp_path):
    id_records, ood_records = default_fixture
    id_path = tmp_path / "id.jsonl"
    ood_path = tmp_path / "ood.jsonl"
    ood5_path = tmp_path / "ood_k5.jsonl"
    serialize_records(RecordBatch.from_records(records_of(id_records)[:100]), id_path)
    serialize_records(RecordBatch.from_records(records_of(ood_records)[:100]), ood_path)
    five = RecordBatch.from_records([append_classes(r, 1, 0.0) for r in records_of(ood_records)[:100]])
    serialize_records(five, ood5_path)

    assert main(["audit", str(id_path), str(ood_path)]) == 0
    assert main(["audit", str(id_path), str(ood5_path)]) == 2
    assert main(["metrics", str(id_path), str(ood5_path)]) == 2
    assert main(["metrics", str(id_path), str(ood5_path), "--allow-mismatch"]) == 0
    assert main(["metrics", str(id_path), str(ood_path)]) == 0


@pytest.mark.criterion(10, "restriction excludes gold-label-on-removed records, rebases AUPR baseline")
def test_restriction_contract():
    rng = np.random.default_rng(20260810)
    id_records = [
        EvidenceRecord(
            id=f"id{i}",
            group="id",
            class_names=["A", "B", "C", "D"],
            evidence=rng.gamma(3.0, 1.0, 4),
        )
        for i in range(80)
    ]
    gold_labels = [4 if i % 4 == 0 else int(rng.integers(0, 4)) for i in range(60)]
    five = [
        EvidenceRecord(
            id=f"q{i}",
            group="ood",
            class_names=["A", "B", "C", "D", "E"],
            evidence=rng.gamma(2.0, 1.0, 5),
            gold_label=gold_labels[i],
        )
        for i in range(60)
    ]
    result = run_restriction_experiment(
        RecordBatch.from_records(five), 4, RecordBatch.from_records(id_records), Metric.VACUITY
    )
    expected_excluded = {f"q{i}" for i in range(60) if gold_labels[i] == 4}
    assert set(result.excluded_ids) == expected_excluded
    kept = 60 - len(expected_excluded)
    assert result.removed.n_negative == kept
    assert result.removed.aupr_baseline == pytest.approx(80 / (80 + kept), rel=1e-12)
    assert result.as_is.aupr_baseline == pytest.approx(80 / 140, rel=1e-12)


@pytest.mark.criterion(11, "log_gamma/digamma match reference values to 10 significant digits")
def test_special_function_accuracy():
    from test_special import DIGAMMA_TABLE, LOG_GAMMA_TABLE, sig_digits_ok

    assert sig_digits_ok(log_gamma(5.0), math.log(24.0))
    assert sig_digits_ok(digamma(1.0), -EULER_GAMMA)
    assert sig_digits_ok(digamma(2.0), 1.0 - EULER_GAMMA)
    assert len(LOG_GAMMA_TABLE) == 10 and len(DIGAMMA_TABLE) == 10
    for x, expected in LOG_GAMMA_TABLE:
        assert sig_digits_ok(log_gamma(x), expected)
    for x, expected in DIGAMMA_TABLE:
        assert sig_digits_ok(digamma(x), expected)


@pytest.mark.criterion(12, "ID-positive 1/u and OOD-positive u give identical AUROC on all fixtures")
def test_orientation_equivalence(default_fixture):
    id_records, ood_records = default_fixture
    fixtures = [
        records_of(id_records) + records_of(ood_records),
        records_of(id_records)[:50] + records_of(ood_records)[:200],
        [
            EvidenceRecord(id="a", group="id", class_names=["A", "B"], evidence=[3, 1]),
            EvidenceRecord(id="b", group="id", class_names=["A", "B"], evidence=[0, 0]),
            EvidenceRecord(id="c", group="ood", class_names=["A", "B"], evidence=[0, 0]),
            EvidenceRecord(id="d", group="ood", class_names=["A", "B"], evidence=[5, 5]),
        ],
    ]
    for records in fixtures:
        id_positive = auroc(score_group(records, Metric.VACUITY, Orientation.ID_POSITIVE))
        ood_positive = auroc(score_group(records, Metric.VACUITY, Orientation.OOD_POSITIVE))
        assert id_positive == ood_positive

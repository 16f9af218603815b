"""Seeded generators: determinism, counts, and population-level behaviour."""

import numpy as np
import pytest

from vacuitylab import (
    PopulationParams,
    generate_evidence_population,
    generate_toy_classification,
    overlap_population_params,
)
from vacuitylab.synthetic import stream_rng

from oracles import evidence_to_alpha, records_of, vacuity


def mean_vacuity(records):
    return float(np.mean([vacuity(evidence_to_alpha(r)) for r in records_of(records)]))


class TestEvidencePopulation:
    def test_same_seed_bitwise_identical(self):
        params = PopulationParams(n_id=50, n_ood=50, seed=123)
        a_id, a_ood = generate_evidence_population(params)
        b_id, b_ood = generate_evidence_population(params)
        assert [r.evidence for r in records_of(a_id)] == [r.evidence for r in records_of(b_id)]
        assert [r.evidence for r in records_of(a_ood)] == [r.evidence for r in records_of(b_ood)]
        assert [r.gold_label for r in records_of(a_id)] == [r.gold_label for r in records_of(b_id)]

    @pytest.mark.parametrize("n", [1, 300])
    @pytest.mark.parametrize("k", [2, 4, 30])
    def test_groups_are_drawn_whole_in_the_documented_order(self, n, k):
        """Stream 0: n labels, an (n, K) wrong-shape matrix, n correct-class components; stream 1: one (n, K) matrix."""
        params = PopulationParams(
            n_id=n, n_ood=n, k=k, id_correct_shape=6.0, id_wrong_shape=0.8, ood_shape=2.0, scale=1.5, seed=17
        )
        id_rng, ood_rng = stream_rng(17, 0), stream_rng(17, 1)
        labels = id_rng.integers(k, size=n)
        id_evidence = id_rng.gamma(0.8, 1.5, (n, k))
        id_evidence[np.arange(n), labels] = id_rng.gamma(6.0, 1.5, n)
        id_records, ood_records = generate_evidence_population(params)
        np.testing.assert_array_equal(id_records.labels, labels)
        np.testing.assert_array_equal(id_records.values, id_evidence.ravel())
        np.testing.assert_array_equal(ood_records.values, ood_rng.gamma(2.0, 1.5, (n, k)).ravel())

    def test_default_params_separate_populations(self):
        id_records, ood_records = generate_evidence_population(PopulationParams(seed=0))
        assert mean_vacuity(ood_records) > mean_vacuity(id_records)

    def test_counts(self):
        id_records, ood_records = generate_evidence_population(
            PopulationParams(n_id=3, n_ood=7, seed=0)
        )
        assert len(id_records) == 3
        assert len(ood_records) == 7

    def test_all_evidence_non_negative(self):
        id_records, ood_records = generate_evidence_population(
            PopulationParams(n_id=100, n_ood=100, seed=9)
        )
        for r in records_of(id_records) + records_of(ood_records):
            assert all(e >= 0 for e in r.evidence)

    def test_groups_and_labels(self):
        id_records, ood_records = generate_evidence_population(
            PopulationParams(n_id=10, n_ood=10, seed=1)
        )
        assert all(r.group.value == "id" and r.gold_label is not None for r in records_of(id_records))
        assert all(r.group.value == "ood" and r.gold_label is None for r in records_of(ood_records))
        assert all(r.k == 4 for r in records_of(id_records) + records_of(ood_records))

    def test_seed_changes_samples_not_means(self):
        """Across 20 seeds the per-seed means stay inside a 5-SE band."""
        params = [overlap_population_params(seed=s, n_id=300, n_ood=300) for s in range(20)]
        id_means, ood_means = [], []
        per_record_sd = None
        for p in params:
            id_records, ood_records = generate_evidence_population(p)
            vals = [vacuity(evidence_to_alpha(r)) for r in records_of(id_records)]
            id_means.append(float(np.mean(vals)))
            per_record_sd = float(np.std(vals, ddof=1))
            ood_means.append(mean_vacuity(ood_records))
        se = per_record_sd / np.sqrt(300)
        grand = float(np.mean(id_means))
        for m in id_means:
            assert abs(m - grand) < 5 * se
        # different seeds really produce different draws
        assert len(set(id_means)) > 1

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            PopulationParams(n_id=0)
        with pytest.raises(ValueError):
            PopulationParams(ood_shape=-1.0)
        with pytest.raises(ValueError):
            PopulationParams(k=1)

    def test_overlap_fixture_overlaps(self):
        """The demo fixture keeps baseline separation well away from saturation."""
        id_records, ood_records = generate_evidence_population(overlap_population_params(seed=0))
        id_strengths = [evidence_to_alpha(r).strength for r in records_of(id_records)]
        ood_strengths = [evidence_to_alpha(r).strength for r in records_of(ood_records)]
        # a meaningful share of OOD records out-strengthen ID records
        flips = np.mean([s_ood > np.median(id_strengths) for s_ood in ood_strengths])
        assert 0.05 < flips < 0.95


class TestToyClassification:
    def test_counts_and_determinism(self):
        pts_a, lab_a = generate_toy_classification(1, 2.0, seed=4)
        assert pts_a.shape == (2, 2)
        pts_b, lab_b = generate_toy_classification(1, 2.0, seed=4)
        np.testing.assert_array_equal(pts_a, pts_b)
        np.testing.assert_array_equal(lab_a, lab_b)

    def test_blob_centers(self):
        pts, labels = generate_toy_classification(2000, 10.0, seed=0)
        np.testing.assert_allclose(pts[labels == 0].mean(axis=0), [-5, 0], atol=0.15)
        np.testing.assert_allclose(pts[labels == 1].mean(axis=0), [5, 0], atol=0.15)

    def test_separable_by_perceptron_oracle(self):
        """A hand-rolled perceptron must find a separating line with margin."""
        pts, labels = generate_toy_classification(250, 10.0, seed=7)
        x = np.hstack([pts, np.ones((len(pts), 1))])
        target = 2 * labels - 1
        w = np.zeros(3)
        for _ in range(100):
            mistakes = 0
            for xi, ti in zip(x, target):
                if ti * (w @ xi) <= 0:
                    w += ti * xi
                    mistakes += 1
            if mistakes == 0:
                break
        assert mistakes == 0
        margins = target * (x @ w) / np.linalg.norm(w[:2])
        assert margins.min() > 0.5

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            generate_toy_classification(0, 1.0, seed=0)
        with pytest.raises(ValueError):
            generate_toy_classification(10, 0.0, seed=0)

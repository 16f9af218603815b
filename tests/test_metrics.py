"""Detection metrics against naive oracles and hand values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vacuitylab.metrics import (
    DetectionResult,
    ScoredSample,
    aupr,
    aupr_baseline,
    aupr_scores,
    auroc,
    auroc_scores,
    evaluate_detection,
    evaluate_scores,
)

from oracles import aupr_argsort, aupr_reference, auroc_argsort, auroc_bruteforce


def samples_from(scores, labels):
    return [ScoredSample(score=s, label=l) for s, l in zip(scores, labels)]


def random_instance(rng, with_ties=True):
    n = int(rng.integers(4, 51))
    scores = rng.normal(0.0, 1.0, n)
    if with_ties:
        # quantize a slice of the scores so tie groups actually occur
        ties = rng.random(n) < 0.5
        scores[ties] = np.round(scores[ties], 1)
    labels = rng.integers(0, 2, n)
    if labels.sum() == 0:
        labels[0] = 1
    if labels.sum() == n:
        labels[0] = 0
    return samples_from(scores, labels)


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc(samples_from([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])) == 1.0

    def test_all_ties(self):
        assert auroc(samples_from([0.5] * 6, [1, 0, 1, 0, 1, 0])) == 0.5

    def test_hand_case(self):
        # pairwise oracle gives 3 wins of 4 pairs
        assert auroc(samples_from([0.9, 0.6, 0.4, 0.2], [1, 0, 1, 0])) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auroc(samples_from([0.1, 0.2], [1, 1]))

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            inst = random_instance(rng)
            assert auroc(inst) == pytest.approx(auroc_bruteforce(inst), abs=1e-12)

    def test_label_flip_complement_without_ties(self):
        rng = np.random.default_rng(7)
        scores = rng.permutation(np.arange(30) + rng.random(30))  # all distinct
        labels = rng.integers(0, 2, 30)
        labels[0], labels[1] = 0, 1
        a = auroc(samples_from(scores, labels))
        b = auroc(samples_from(scores, 1 - labels))
        assert a == pytest.approx(1.0 - b, abs=1e-12)

    @pytest.mark.parametrize(
        "transform",
        [np.exp, lambda x: 1.0 / (1.0 + np.exp(-x)), lambda x: 3.0 * x + 11.0],
    )
    def test_invariant_under_increasing_transform(self, transform):
        rng = np.random.default_rng(3)
        for _ in range(25):
            inst = random_instance(rng)
            scores = np.array([s.score for s in inst])
            labels = [s.label for s in inst]
            assert auroc(samples_from(transform(scores), labels)) == auroc(inst)

    def test_reciprocal_vs_negation_identical(self):
        """1/u and -u are both strictly decreasing in u: same ranking."""
        rng = np.random.default_rng(11)
        u = rng.uniform(0.05, 1.0, 40)
        labels = rng.integers(0, 2, 40)
        labels[:2] = [0, 1]
        assert auroc(samples_from(1.0 / u, labels)) == auroc(samples_from(-u, labels))


class TestAupr:
    def test_perfect_ranking(self):
        assert aupr(samples_from([0.9, 0.1], [1, 0])) == 1.0

    def test_all_positive(self):
        assert aupr(samples_from([0.3, 0.2, 0.9], [1, 1, 1])) == 1.0

    def test_hand_case(self):
        assert aupr(samples_from([0.9, 0.8, 0.7], [1, 0, 1])) == pytest.approx(5 / 6, abs=1e-12)

    def test_no_positive_rejected(self):
        with pytest.raises(ValueError):
            aupr(samples_from([0.3, 0.2], [0, 0]))

    def test_matches_reference(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            inst = random_instance(rng)
            assert aupr(inst) == pytest.approx(aupr_reference(inst), abs=1e-12)

    def test_reversed_perfect_below_baseline(self):
        inst = samples_from([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])
        assert aupr(inst) < aupr_baseline(2, 2)

    def test_reciprocal_vs_negation_identical(self):
        rng = np.random.default_rng(13)
        u = rng.uniform(0.05, 1.0, 40)
        labels = rng.integers(0, 2, 40)
        labels[:2] = [0, 1]
        assert aupr(samples_from(1.0 / u, labels)) == aupr(samples_from(-u, labels))


class TestAuprBaseline:
    @pytest.mark.parametrize("pos,neg,expected", [(3, 7, 0.3), (1, 1, 0.5), (500, 500, 0.5)])
    def test_values(self, pos, neg, expected):
        assert aupr_baseline(pos, neg) == pytest.approx(expected, rel=1e-15)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            aupr_baseline(0, 5)


class TestOracles:
    def test_bruteforce_perfect(self):
        inst = samples_from([5, 4, 1, 2], [1, 1, 0, 0])
        assert auroc_bruteforce(inst) == 1.0
        assert aupr_reference(inst) == 1.0

    def test_bruteforce_all_ties(self):
        inst = samples_from([1, 1, 1, 1], [1, 0, 1, 0])
        assert auroc_bruteforce(inst) == 0.5


class TestEvaluateDetection:
    def test_bundles_counts_and_baseline(self):
        inst = samples_from([0.9, 0.8, 0.2, 0.1, 0.3], [1, 1, 0, 0, 0])
        res = evaluate_detection(inst, metric_name="vacuity", k_id=4, k_ood=4)
        assert isinstance(res, DetectionResult)
        assert res.n_positive == 2
        assert res.n_negative == 3
        assert res.aupr_baseline == pytest.approx(0.4)
        assert res.metric_name == "vacuity"


    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_array_evaluator_rejects_nonfinite_scores(self, bad):
        with pytest.raises(ValueError, match="finite"):
            evaluate_scores(np.array([0.9, bad, 0.1]), np.array([1, 0, 0]), "vacuity", 4, 4)

    def test_array_evaluator_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="0 or 1"):
            evaluate_scores(np.array([0.9, 0.5, 0.1]), np.array([1, 2, 0]), "vacuity", 4, 4)


class TestScoredSampleValidation:
    def test_nonfinite_score(self):
        with pytest.raises(ValueError):
            ScoredSample(score=float("inf"), label=1)

    def test_bad_label(self):
        with pytest.raises(ValueError):
            ScoredSample(score=0.5, label=2)


@given(
    st.lists(
        st.tuples(st.integers(min_value=-50, max_value=50), st.integers(min_value=0, max_value=1)),
        min_size=2,
        max_size=40,
    )
)
@settings(max_examples=200)
def test_fast_paths_always_match_oracles(pairs):
    """Integer scores force heavy ties; fast and naive paths must agree."""
    labels = [l for _, l in pairs]
    if sum(labels) == 0 or sum(labels) == len(labels):
        return
    inst = samples_from([float(s) for s, _ in pairs], labels)
    assert auroc(inst) == pytest.approx(auroc_bruteforce(inst), abs=1e-12)
    assert aupr(inst) == pytest.approx(aupr_reference(inst), abs=1e-12)


@st.composite
def tie_heavy(draw):
    """Score vectors drawn from a few distinct values (some -0.0 and 0.0), with both labels present."""
    pool = draw(st.lists(st.sampled_from([-0.0, 0.0, 0.5, 1.0, 1e-300, 2.5, -3.0]) | st.floats(-5, 5),
                         min_size=1, max_size=4))
    n = draw(st.integers(2, 60))
    scores = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    labels[0] = 1 - labels[-1]
    return scores, labels


@given(tie_heavy())
@settings(max_examples=150, deadline=None)
def test_shared_sort_is_bit_identical_to_one_sort_per_metric(instance):
    scores, labels = instance
    result = evaluate_scores(scores, labels, "vacuity", 4, 4)
    assert result.auroc == auroc_scores(scores, labels) == auroc_argsort(scores, labels)
    assert result.aupr == aupr_scores(scores, labels) == aupr_argsort(scores, labels)


def large_tie_heavy(seed: int, n: int):
    """n scores, most from a few values with -0.0 and 0.0 among them, and labels mixed inside the tie runs."""
    rng = np.random.default_rng(seed)
    pool = np.array([-0.0, 0.0, 0.5, 1.0, 2.5, -3.0, 1e-300])[: int(rng.integers(2, 8))]
    scores = rng.choice(pool, n)
    untied = rng.random(n) < 0.1
    scores[untied] = rng.normal(0.0, 1.0, int(untied.sum()))
    labels = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(int)
    return scores, labels


LARGE = [(seed, n) for seed, n in enumerate((100, 257, 1000, 2000, 3001, 5000, 5000, 5000))]


@pytest.mark.parametrize("seed, n", LARGE)
def test_unstable_sort_is_bit_identical_to_the_stable_oracles(seed, n):
    """Order inside a tie run is free: each metric reads a run only through its count of positives.

    Every case holds a -0.0/0.0 tie run with both labels, and the default
    sort reorders its tie runs, so the oracles' stable order really differs.
    """
    scores, labels = large_tie_heavy(seed, n)
    zero = scores == 0.0
    assert np.signbit(scores[zero]).any() and not np.signbit(scores[zero]).all()
    assert 0 < labels[zero].sum() < zero.sum()
    assert not np.array_equal(np.argsort(scores), np.argsort(scores, kind="mergesort"))
    result = evaluate_scores(scores, labels, "vacuity", 4, 4)
    assert result.auroc == auroc_argsort(scores, labels)
    assert result.aupr == aupr_argsort(scores, labels)

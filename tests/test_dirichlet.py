"""Evidence -> Dirichlet mapping, uncertainty quantities, class transforms.

The load-bearing facts: vacuity u = K/S is invariant under appending a
class iff the new concentration equals the mean concentration S/K, and
appending zero evidence raises u by exactly (S - K) / (S (S + 1)).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vacuitylab import EvidenceRecord, append_classes, remove_class

from oracles import (
    dirichlet_state,
    evidence_to_alpha,
    expected_probabilities,
    invariance_concentration,
    max_probability,
    normalized_entropy,
    uncertainty_scores,
    vacuity,
)


def record(evidence, gold=None, group="id", k_names=None):
    names = k_names or [chr(ord("A") + i) for i in range(len(evidence))]
    return EvidenceRecord(
        id="r", group=group, class_names=names, evidence=evidence, gold_label=gold
    )


evidence_vectors = st.lists(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False), min_size=2, max_size=10
)


class TestEvidenceToAlpha:
    def test_zero_evidence(self):
        state = evidence_to_alpha(record([0, 0, 0, 0]))
        assert state.alpha.tolist() == [1, 1, 1, 1]
        assert state.strength == 4.0
        assert state.k == 4

    def test_direct_substitution(self):
        state = evidence_to_alpha(record([12, 8, 9, 7]))
        assert state.alpha.tolist() == [13, 9, 10, 8]
        assert state.strength == 40.0

    def test_negative_evidence_rejected(self):
        with pytest.raises(ValueError, match="negative evidence at index 0"):
            record([-1, 0])

    def test_alpha_is_read_only(self):
        state = evidence_to_alpha(record([1, 2, 3]))
        with pytest.raises(ValueError):
            state.alpha[0] = 99.0

    @given(evidence_vectors)
    def test_strength_at_least_k(self, evidence):
        state = evidence_to_alpha(record(evidence))
        assert state.strength >= state.k
        if all(e == 0 for e in evidence):
            assert state.strength == state.k


class TestExpectedProbabilities:
    @pytest.mark.parametrize(
        "alpha,expected",
        [
            ([2, 1, 1], [0.5, 0.25, 0.25]),
            ([1, 1, 1, 1], [0.25] * 4),
            ([13, 9, 10, 8], [0.325, 0.225, 0.25, 0.2]),
        ],
    )
    def test_values(self, alpha, expected):
        probs = expected_probabilities(dirichlet_state(alpha))
        np.testing.assert_allclose(probs, expected, rtol=1e-15)

    @given(evidence_vectors)
    @settings(max_examples=200)
    def test_sums_to_one_and_argmax_matches(self, evidence):
        state = evidence_to_alpha(record(evidence))
        probs = expected_probabilities(state)
        assert abs(probs.sum() - 1.0) < 1e-12
        assert int(np.argmax(probs)) == int(np.argmax(state.alpha))


class TestVacuity:
    def test_zero_evidence_maximum(self):
        assert vacuity(dirichlet_state([1, 1, 1, 1])) == 1.0

    def test_direct(self):
        assert vacuity(dirichlet_state([13, 9, 10, 8])) == pytest.approx(0.1, rel=1e-15)

    def test_inflates_after_zero_evidence_append(self):
        inflated = vacuity(dirichlet_state([13, 9, 10, 8, 1]))
        assert inflated == pytest.approx(5 / 41, rel=1e-15)
        assert inflated > 0.1

    @given(evidence_vectors)
    def test_bounds(self, evidence):
        u = vacuity(evidence_to_alpha(record(evidence)))
        assert 0.0 < u <= 1.0


class TestMaxProbability:
    def test_uniform(self):
        assert max_probability(dirichlet_state([1, 1, 1, 1])) == 0.25

    def test_direct(self):
        assert max_probability(dirichlet_state([13, 9, 10, 8])) == pytest.approx(0.325)

    def test_drops_when_k_grows_with_zero_evidence(self):
        assert max_probability(dirichlet_state([13, 9, 10, 8, 1])) == pytest.approx(13 / 41)

    @given(evidence_vectors)
    def test_at_least_uniform(self, evidence):
        state = evidence_to_alpha(record(evidence))
        assert max_probability(state) >= 1.0 / state.k - 1e-15


class TestNormalizedEntropy:
    def test_uniform_is_one(self):
        assert normalized_entropy([0.25] * 4) == pytest.approx(1.0, rel=1e-12)

    def test_one_hot_is_zero(self):
        assert normalized_entropy([1, 0, 0, 0]) == 0.0

    def test_half(self):
        assert normalized_entropy([0.5, 0.5, 0, 0]) == pytest.approx(0.5, rel=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum to 1"):
            normalized_entropy([0.5, 0.6])

    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=8), st.randoms())
    def test_permutation_invariant(self, weights, rnd):
        p = np.array(weights) / sum(weights)
        shuffled = list(p)
        rnd.shuffle(shuffled)
        assert normalized_entropy(p) == pytest.approx(normalized_entropy(shuffled), abs=1e-12)


class TestInvarianceConcentration:
    @pytest.mark.parametrize(
        "alpha,alpha_new,e_new",
        [([13, 9, 10, 8], 10.0, 9.0), ([1, 1], 1.0, 0.0), ([4, 2], 3.0, 2.0)],
    )
    def test_values(self, alpha, alpha_new, e_new):
        got_alpha, got_e = invariance_concentration(dirichlet_state(alpha))
        assert got_alpha == pytest.approx(alpha_new, rel=1e-15)
        assert got_e == pytest.approx(e_new, rel=1e-15)

    def test_appending_invariance_evidence_keeps_vacuity(self):
        rec = record([12, 8, 9, 7])
        state = evidence_to_alpha(rec)
        _, e_new = invariance_concentration(state)
        after = vacuity(evidence_to_alpha(append_classes(rec, 1, e_new)))
        assert after == pytest.approx(vacuity(state), rel=1e-12)

    def test_proposition_both_directions_randomized(self):
        """alpha_new = S/K keeps u; any offset of at least 1e-3 moves it."""
        rng = np.random.default_rng(42)
        for _ in range(1000):
            k = int(rng.integers(2, 11))
            ev = rng.gamma(2.0, 1.0, k)
            state = evidence_to_alpha(record(list(ev)))
            u = vacuity(state)
            alpha_new, _ = invariance_concentration(state)
            u_kept = (state.k + 1) / (state.strength + alpha_new)
            assert abs(u_kept - u) <= 1e-12 * u
            delta = float(rng.uniform(1e-3, 1.0)) * (1 if rng.random() < 0.5 else -1)
            if alpha_new + delta < 1.0:
                delta = abs(delta)
            u_moved = (state.k + 1) / (state.strength + alpha_new + delta)
            assert abs(u_moved - u) > 1e-9


class TestZeroEvidenceInflation:
    @given(evidence_vectors)
    @settings(max_examples=300)
    def test_exact_increment(self, evidence):
        """u' - u = (S - K) / (S (S + 1)), non-negative, strict when S > K."""
        rec = record(evidence)
        state = evidence_to_alpha(rec)
        u_before = vacuity(state)
        u_after = vacuity(evidence_to_alpha(append_classes(rec, 1, 0.0)))
        s, k = state.strength, state.k
        predicted = (s - k) / (s * (s + 1.0))
        assert u_after - u_before == pytest.approx(predicted, abs=1e-12)
        assert u_after >= u_before
        if s > k + 1e-9:
            assert u_after > u_before


class TestAppendClasses:
    def test_basic_append(self):
        rec = append_classes(record([12, 8, 9, 7]), 1, 0.0)
        assert rec.evidence == (12, 8, 9, 7, 0)
        assert rec.k == 5
        assert rec.class_names[-1] == "X1"

    def test_count_zero_is_identity(self):
        rec = record([1, 2, 3])
        assert append_classes(rec, 0, 0.0) is rec

    def test_original_untouched(self):
        rec = record([1, 2, 3])
        append_classes(rec, 2, 5.0)
        assert rec.evidence == (1, 2, 3)
        assert rec.k == 3

    def test_synthetic_names_avoid_collisions(self):
        rec = record([1, 2], k_names=["X1", "B"])
        out = append_classes(rec, 2, 0.0)
        assert out.class_names == ("X1", "B", "X2", "X3")

    def test_negative_appended_evidence_rejected(self):
        with pytest.raises(ValueError, match="appended_evidence"):
            append_classes(record([1, 2]), 1, -0.5)

    def test_gold_label_preserved(self):
        out = append_classes(record([1, 2, 3], gold=2), 1, 0.0)
        assert out.gold_label == 2


class TestRemoveClass:
    def test_removes_and_keeps_gold(self):
        rec = record([2, 3, 4, 5, 6], gold=1)
        out = remove_class(rec, 4)
        assert out.evidence == (2, 3, 4, 5)
        assert out.k == 4
        assert out.gold_label == 1

    def test_gold_at_removed_index_excludes(self):
        assert remove_class(record([2, 3, 4, 5, 6], gold=4), 4) is None

    def test_unlabeled_record_kept(self):
        out = remove_class(record([2, 3, 4, 5, 6], group="ood"), 4)
        assert out is not None
        assert out.k == 4

    def test_gold_reindexed(self):
        out = remove_class(record([1, 2, 3, 4], gold=3), 1)
        assert out.gold_label == 2
        assert out.evidence == (1, 3, 4)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            remove_class(record([1, 2, 3]), 3)

    def test_matches_alpha_slice(self):
        """Removing then mapping equals slicing alpha over survivors."""
        rec = record([5, 1, 7, 2], gold=0)
        sliced = np.delete(evidence_to_alpha(rec).alpha, 2)
        reduced = evidence_to_alpha(remove_class(rec, 2))
        np.testing.assert_array_equal(reduced.alpha, sliced)


class TestUncertaintyScores:
    def test_bundle_consistency(self):
        state = dirichlet_state([13, 9, 10, 8])
        scores = uncertainty_scores(state)
        assert scores.vacuity == vacuity(state)
        assert scores.max_probability == max_probability(state)
        assert scores.normalized_entropy == normalized_entropy(expected_probabilities(state))


class TestRecordValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="class count"):
            EvidenceRecord(id="r", group="id", class_names=["A"], evidence=[1, 2])

    def test_too_few_classes(self):
        with pytest.raises(ValueError, match="at least 2"):
            EvidenceRecord(id="r", group="id", class_names=["A"], evidence=[1])

    @pytest.mark.parametrize("rid", [5, None, ["x"]], ids=["int", "null", "list"])
    def test_non_string_id_rejected(self, rid):
        with pytest.raises(ValueError, match=r"id must be a string"):
            EvidenceRecord(id=rid, group="id", class_names=["A", "B"], evidence=[1, 2])

    def test_gold_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            record([1, 2], gold=2)

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            dirichlet_state([0.5, 1.0])

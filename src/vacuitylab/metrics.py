"""From-scratch detection metrics.

AUROC is the probability-of-correct-ranking form (ties get half credit),
computed as a rank sum with midranks (Hanley & McNeil 1982) in
O(n log n). AUPR is step-wise average precision with tie groups collapsed
to a single threshold (Davis & Goadrich 2006); no trapezoidal
interpolation, which can be optimistic.

The implementation works on arrays: ``auroc_scores``, ``aupr_scores`` and
``evaluate_scores`` take a float score vector and a 0/1 label vector, find
tie runs from the scores in one ascending sort (AUPR reads it in reverse,
so ``evaluate_scores`` sorts once for both), and never loop in Python.
The sort need not be stable: AUROC credits every positive in a tie run
with the run's one midrank, and AUPR reads the positive count only at
run ends, so both depend on how many positives each run holds, never on
their order inside it. ``auroc``, ``aupr`` and ``evaluate_detection``
are adapters that take a list of ``ScoredSample`` and call them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class ScoredSample:
    """One scored instance; label 1 marks the positive class."""

    score: float
    label: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.score):
            raise ValueError(f"score must be finite, got {self.score}")
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")


@dataclass(frozen=True)
class DetectionResult:
    """AUROC/AUPR of one detection run plus the context needed to read them."""

    auroc: float
    aupr: float
    aupr_baseline: float
    n_positive: int
    n_negative: int
    metric_name: str
    k_id: int
    k_ood: int


def _scores_labels(samples: Sequence[ScoredSample]) -> tuple[np.ndarray, np.ndarray]:
    scores = np.array([s.score for s in samples], dtype=float)
    labels = np.array([s.label for s in samples], dtype=int)
    return scores, labels


def _tie_run_ends(sorted_scores: np.ndarray) -> np.ndarray:
    """Exclusive end index of each run of equal values in a sorted vector."""
    return np.append(np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1]) + 1, len(sorted_scores))


def _ranked(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels in ascending score order, and the exclusive end of each tie run in that order.

    The order inside a tie run is whatever the sort leaves: each metric
    reads a run only through its count of positives, so the bits do not
    depend on it.
    """
    order = np.argsort(scores)
    return labels[order], _tie_run_ends(scores[order])


def _auroc_ranked(labels: np.ndarray, ends: np.ndarray) -> float:
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auroc needs at least one positive and one negative sample")
    starts = np.append(0, ends[:-1])
    # a run over sorted positions i..j (0-based) shares the 1-based rank (i + j)/2 + 1
    ranks = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _aupr_ranked(labels: np.ndarray, ends: np.ndarray) -> float:
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise ValueError("aupr needs at least one positive sample")
    # Thresholds run from the highest score down: the ascending order read in
    # reverse. Order inside a tie run does not change a run's true positives.
    ends = len(labels) - np.append(0, ends[:-1])[::-1]
    tp = np.cumsum(labels[::-1])[ends - 1]
    recall = tp / n_pos
    precision = tp / ends
    steps = (recall - np.append(0.0, recall[:-1])) * precision
    return float(np.cumsum(steps)[-1])


def auroc_scores(scores: np.ndarray, labels: np.ndarray) -> float:
    """AUROC of a score vector against 0/1 labels: the rank-sum form with midranks."""
    return _auroc_ranked(*_ranked(scores, labels))


def aupr_scores(scores: np.ndarray, labels: np.ndarray) -> float:
    """Step-wise average precision of a score vector against 0/1 labels.

    Each tie group is one threshold. The step terms are added with a
    sequential cumsum, left to right like a running total; ``np.sum``
    would add them pairwise and can differ in the last ulp.
    """
    return _aupr_ranked(*_ranked(scores, labels))


def auroc(samples: Sequence[ScoredSample]) -> float:
    """Probability a random positive outranks a random negative (ties half)."""
    return auroc_scores(*_scores_labels(samples))


def aupr(samples: Sequence[ScoredSample]) -> float:
    """Step-wise average precision over descending-score thresholds."""
    return aupr_scores(*_scores_labels(samples))


def aupr_baseline(n_positive: int, n_negative: int) -> float:
    """Random-ranking AUPR baseline: the positive-class prevalence."""
    if n_positive <= 0 or n_negative <= 0:
        raise ValueError("both counts must be positive")
    return n_positive / (n_positive + n_negative)


def evaluate_scores(
    scores: np.ndarray,
    labels: np.ndarray,
    metric_name: str,
    k_id: int,
    k_ood: int,
) -> DetectionResult:
    """Compute AUROC, AUPR and the prevalence baseline for a score vector and 0/1 labels."""
    if not np.isfinite(scores).all():
        raise ValueError(f"scores must be finite, got {scores[~np.isfinite(scores)][0]}")
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be 0 or 1")
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    ranked = _ranked(scores, labels)  # one sort serves both rank metrics
    return DetectionResult(
        auroc=_auroc_ranked(*ranked),
        aupr=_aupr_ranked(*ranked),
        aupr_baseline=aupr_baseline(n_pos, n_neg),
        n_positive=n_pos,
        n_negative=n_neg,
        metric_name=metric_name,
        k_id=k_id,
        k_ood=k_ood,
    )


def evaluate_detection(
    samples: Sequence[ScoredSample],
    metric_name: str,
    k_id: int,
    k_ood: int,
) -> DetectionResult:
    """Compute AUROC, AUPR and the prevalence baseline for one sample set."""
    return evaluate_scores(*_scores_labels(samples), metric_name, k_id, k_ood)

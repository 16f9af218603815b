"""From-scratch detection metrics.

AUROC is the probability-of-correct-ranking form (ties get half credit),
computed as a rank sum with midranks (Hanley & McNeil 1982) in
O(n log n). AUPR is step-wise average precision with tie groups collapsed
to a single threshold (Davis & Goadrich 2006); no trapezoidal
interpolation, which can be optimistic.

Both read one table of a scored run. ``_runs`` refuses scores and labels
that are not 1-D arrays of one length, non-finite scores and labels other
than 0/1, with the same messages for ``auroc_scores``, ``aupr_scores`` and
``evaluate_scores``; it then sorts once and returns each ascending tie
run's end and the count of positives below that end. A metric reads a run
only through that count, so the order inside a run, which the unstable
sort leaves free, never changes a bit. ``auroc``, ``aupr`` and
``evaluate_detection`` are adapters that take a list of ``ScoredSample``.
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


def _runs(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Check a scored run and sort it once into ``(ends, cum_pos, n)``: the exclusive end of
    each ascending tie run, and the count of positives below that end."""
    scores, labels = np.asarray(scores), np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ValueError(f"scores and labels must be 1-D arrays of one length, got {scores.shape} and {labels.shape}")
    if not np.isfinite(scores).all():
        raise ValueError(f"scores must be finite, got {scores[~np.isfinite(scores)][0]}")
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be 0 or 1")
    order = np.argsort(scores)
    ranked = scores[order]
    ends = np.append(np.flatnonzero(ranked[1:] != ranked[:-1]) + 1, len(ranked))
    cum_pos = np.append(0, np.cumsum(labels[order]))[ends]
    return ends, cum_pos, len(ranked)


def _auroc_runs(ends: np.ndarray, cum_pos: np.ndarray, n: int) -> float:
    n_pos = int(cum_pos[-1])
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auroc needs at least one positive and one negative sample")
    starts = np.append(0, ends[:-1])
    # a run over sorted positions i..j (0-based) shares the 1-based rank (i + j)/2 + 1;
    # the products are half-integers, so their sum is exact in any order
    rank_sum = float((np.diff(cum_pos, prepend=0) * (0.5 * (starts + ends - 1) + 1.0)).sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _aupr_runs(ends: np.ndarray, cum_pos: np.ndarray, n: int) -> float:
    n_pos = int(cum_pos[-1])
    if n_pos == 0:
        raise ValueError("aupr needs at least one positive sample")
    # Thresholds run from the highest score down: the runs read in reverse,
    # each counting every sample from its start to the top.
    tp = n_pos - np.append(0, cum_pos[:-1])[::-1]
    recall = tp / n_pos
    precision = tp / (n - np.append(0, ends[:-1])[::-1])
    steps = (recall - np.append(0.0, recall[:-1])) * precision
    return float(np.cumsum(steps)[-1])


def auroc_scores(scores: np.ndarray, labels: np.ndarray) -> float:
    """AUROC of a score vector against 0/1 labels: the rank-sum form with midranks."""
    return _auroc_runs(*_runs(scores, labels))


def aupr_scores(scores: np.ndarray, labels: np.ndarray) -> float:
    """Step-wise average precision of a score vector against 0/1 labels.

    Each tie group is one threshold. The step terms are added with a
    sequential cumsum, left to right like a running total; ``np.sum``
    would add them pairwise and can differ in the last ulp.
    """
    return _aupr_runs(*_runs(scores, labels))


def auroc(samples: Sequence[ScoredSample]) -> float:
    """Probability a random positive outranks a random negative (ties half)."""
    return auroc_scores(*_scores_labels(samples))


def aupr(samples: Sequence[ScoredSample]) -> float:
    """Step-wise average precision over descending-score thresholds."""
    return aupr_scores(*_scores_labels(samples))


def aupr_baseline(n_positive: int, n_negative: int) -> float:
    """Random-ranking AUPR baseline: the positive-class prevalence."""
    if not (n_positive > 0 and n_negative > 0):  # False for a NaN count too
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
    runs = _runs(scores, labels)  # one check and one sort serve both rank metrics
    n_pos = int(runs[1][-1])
    n_neg = runs[2] - n_pos
    return DetectionResult(
        auroc=_auroc_runs(*runs),
        aupr=_aupr_runs(*runs),
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

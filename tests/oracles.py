"""Deliberately naive AUROC/AUPR oracles for the fast rank metrics.

``auroc_bruteforce`` compares every positive with every negative (O(n^2));
``aupr_reference`` recounts true and false positives at every threshold.
Both take a list of ``vacuitylab.metrics.ScoredSample``.
"""

from typing import Sequence

import numpy as np

from vacuitylab.metrics import ScoredSample


def scores_labels(samples: Sequence[ScoredSample]) -> tuple[np.ndarray, np.ndarray]:
    scores = np.array([s.score for s in samples], dtype=float)
    labels = np.array([s.label for s in samples], dtype=int)
    return scores, labels


def auroc_bruteforce(samples: Sequence[ScoredSample]) -> float:
    """O(n^2) pairwise AUROC with half credit for ties (oracle)."""
    scores, labels = scores_labels(samples)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("auroc needs at least one positive and one negative sample")
    credit = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                credit += 1.0
            elif p == q:
                credit += 0.5
    return credit / (len(pos) * len(neg))


def aupr_reference(samples: Sequence[ScoredSample]) -> float:
    """AUPR by explicit threshold sweep with full recounting (oracle)."""
    scores, labels = scores_labels(samples)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise ValueError("aupr needs at least one positive sample")
    thresholds = sorted(set(scores.tolist()), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for t in thresholds:
        tp = int(((scores >= t) & (labels == 1)).sum())
        fp = int(((scores >= t) & (labels == 0)).sum())
        recall = tp / n_pos
        precision = tp / (tp + fp)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap

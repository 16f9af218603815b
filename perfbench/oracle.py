"""Independent numpy reference for the detection metrics the program reports.

Written from the definitions, not from vacuitylab.metrics: AUROC is the
rank-sum form with midranks for ties, AUPR is step-wise average precision
with each tie group taken as one threshold.
"""

from __future__ import annotations

import numpy as np


def auroc(pos: np.ndarray, neg: np.ndarray) -> float:
    """P(random positive scores above random negative), ties counted half."""
    scores = np.concatenate([pos, neg])
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    midrank = np.cumsum(counts) - (counts - 1) / 2.0
    n_pos, n_neg = len(pos), len(neg)
    rank_sum = midrank[inverse[:n_pos]].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def aupr(pos: np.ndarray, neg: np.ndarray) -> float:
    """Average precision over descending thresholds, one step per tie group."""
    scores = np.concatenate([pos, neg])
    labels = np.concatenate([np.ones(len(pos)), np.zeros(len(neg))])
    _, inverse = np.unique(-scores, return_inverse=True)
    tp = np.cumsum(np.bincount(inverse, weights=labels))
    seen = np.cumsum(np.bincount(inverse))
    recall = tp / len(pos)
    return float((np.diff(recall, prepend=0.0) * (tp / seen)).sum())


def strength(evidence: np.ndarray) -> np.ndarray:
    return evidence.sum(axis=1) + evidence.shape[1]


def normalized_entropy(evidence: np.ndarray) -> np.ndarray:
    alpha = evidence + 1.0
    p = alpha / alpha.sum(axis=1, keepdims=True)
    h = -(p * np.log2(p)).sum(axis=1) / np.log2(evidence.shape[1])
    return np.clip(h, 0.0, 1.0)


def detection_row(pos: np.ndarray, neg: np.ndarray) -> dict:
    """The fields of one result row that the oracle can predict."""
    return {
        "auroc": auroc(pos, neg),
        "aupr": aupr(pos, neg),
        "aupr_baseline": len(pos) / (len(pos) + len(neg)),
        "n_positive": len(pos),
        "n_negative": len(neg),
    }


def row_mismatches(got: dict, want: dict, where: str, tol: float = 1e-9) -> list[str]:
    """Describe each field of ``got`` that differs from ``want`` beyond ``tol``."""
    problems = []
    for key, value in want.items():
        if key not in got:
            problems.append(f"{where}: missing {key}")
        elif isinstance(value, int):
            if got[key] != value:
                problems.append(f"{where}: {key}={got[key]!r}, expected {value}")
        elif not abs(got[key] - value) <= tol:
            problems.append(f"{where}: {key}={got[key]!r}, expected {value!r}")
    return problems

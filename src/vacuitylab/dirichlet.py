"""Evidence -> Dirichlet calculus and per-record uncertainty quantities.

Every function here is a pure function of its inputs. Records and states
are immutable; class expansion and restriction return new records and
never touch the original evidence (fixed-predictions contract).

Conventions: per-class evidence e_i >= 0, concentration alpha_i = e_i + 1,
total strength S = sum(alpha), vacuity u = K / S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class Group(str, Enum):
    """Which evaluation population a record belongs to."""

    ID = "id"
    OOD = "ood"


@dataclass(frozen=True)
class EvidenceRecord:
    """One fixed model prediction: per-class evidence plus bookkeeping."""

    id: str
    group: Group
    class_names: tuple[str, ...]
    evidence: tuple[float, ...]
    gold_label: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "group", Group(self.group))
        object.__setattr__(self, "class_names", tuple(str(n) for n in self.class_names))
        object.__setattr__(self, "evidence", tuple(float(e) for e in self.evidence))
        if len(self.evidence) != len(self.class_names):
            raise ValueError(
                f"record {self.id!r}: evidence length {len(self.evidence)} != "
                f"class count {len(self.class_names)}"
            )
        if len(self.evidence) < 2:
            raise ValueError(f"record {self.id!r}: needs at least 2 classes")
        for i, e in enumerate(self.evidence):
            if math.isnan(e) or e < 0:
                raise ValueError(f"record {self.id!r}: negative evidence at index {i}")
        if self.gold_label is not None:
            if not 0 <= self.gold_label < len(self.class_names):
                raise ValueError(
                    f"record {self.id!r}: gold_label {self.gold_label} out of range"
                )

    @property
    def k(self) -> int:
        return len(self.evidence)


@dataclass(frozen=True)
class DirichletState:
    """Dirichlet concentration vector with its derived strength and K."""

    alpha: np.ndarray
    strength: float
    k: int

    def __post_init__(self) -> None:
        if self.alpha.ndim != 1 or self.k != len(self.alpha):
            raise ValueError("alpha must be 1-D with k entries")
        if (self.alpha < 1.0).any():
            raise ValueError("every alpha_i must be >= 1 (evidence is non-negative)")
        total = float(self.alpha.sum())
        if abs(total - self.strength) > 1e-12 * max(1.0, abs(total)):
            raise ValueError(f"strength {self.strength} != sum(alpha) {total}")


def dirichlet_state(alpha) -> DirichletState:
    """Build a validated DirichletState from a concentration vector."""
    arr = np.array(alpha, dtype=float)
    arr.setflags(write=False)
    return DirichletState(alpha=arr, strength=float(arr.sum()), k=len(arr))


@dataclass(frozen=True)
class UncertaintyScores:
    """All per-record uncertainty quantities used for OOD scoring."""

    vacuity: float
    max_probability: float
    normalized_entropy: float


def evidence_to_alpha(record: EvidenceRecord) -> DirichletState:
    """Map per-class evidence to Dirichlet concentrations: alpha_i = e_i + 1."""
    evidence = np.asarray(record.evidence, dtype=float)
    return dirichlet_state(evidence + 1.0)


def expected_probabilities(state: DirichletState) -> np.ndarray:
    """Expected class probabilities p_i = alpha_i / S."""
    return np.asarray(state.alpha) / state.strength


def vacuity(state: DirichletState) -> float:
    """Uncertainty mass u = K / S; 1 exactly when all evidence is zero."""
    return state.k / state.strength


def max_probability(state: DirichletState) -> float:
    """Largest expected class probability max_i alpha_i / S."""
    return float(np.max(state.alpha)) / state.strength


def normalized_entropy(probs) -> float:
    """Shannon entropy in bits divided by log2(K), in [0, 1].

    Requires a probability vector (non-negative, sums to 1 within 1e-9);
    0 * log 0 is treated as 0.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or len(p) < 2:
        raise ValueError("probs must be a 1-D vector with at least 2 entries")
    if np.isnan(p).any() or (p < 0).any():
        raise ValueError("probs must be non-negative")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probs must sum to 1 within 1e-9, got {total!r}")
    nonzero = p[p > 0]
    h_bits = float(-(nonzero * np.log2(nonzero)).sum())
    return min(max(h_bits / math.log2(len(p)), 0.0), 1.0)


def uncertainty_scores(state: DirichletState) -> UncertaintyScores:
    """Bundle vacuity, max probability and normalized entropy for one state."""
    return UncertaintyScores(
        vacuity=vacuity(state),
        max_probability=max_probability(state),
        normalized_entropy=normalized_entropy(expected_probabilities(state)),
    )


def invariance_concentration(state: DirichletState) -> tuple[float, float]:
    """Concentration (and evidence) an appended class must carry to keep
    vacuity unchanged: alpha_new = S/K, i.e. e_new = S/K - 1.

    This is the unique fixed point: appending any other concentration
    changes u = K/S.
    """
    alpha_new = state.strength / state.k
    return alpha_new, alpha_new - 1.0


def append_classes(
    record: EvidenceRecord, count: int, appended_evidence: float
) -> EvidenceRecord:
    """Append ``count`` synthetic classes each carrying ``appended_evidence``.

    The original evidence components are untouched; the model prediction is
    never recomputed. Synthetic class names are X1, X2, ... skipping any
    already present.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if math.isnan(appended_evidence) or appended_evidence < 0:
        raise ValueError(f"appended_evidence must be >= 0, got {appended_evidence}")
    if count == 0:
        return record
    existing = set(record.class_names)
    new_names: list[str] = []
    i = 1
    while len(new_names) < count:
        candidate = f"X{i}"
        if candidate not in existing:
            new_names.append(candidate)
        i += 1
    return EvidenceRecord(
        id=record.id,
        group=record.group,
        class_names=record.class_names + tuple(new_names),
        evidence=record.evidence + (float(appended_evidence),) * count,
        gold_label=record.gold_label,
    )


def remove_class(record: EvidenceRecord, class_index: int) -> EvidenceRecord | None:
    """Drop one class from a record, or exclude the record entirely.

    Returns None when the record's gold label *is* the removed class (the
    record has no valid answer left and must be excluded). Unlabeled
    records are always kept. The gold label is re-indexed when it sat
    after the removed position.
    """
    if not 0 <= class_index < record.k:
        raise ValueError(f"class_index {class_index} out of range for K={record.k}")
    if record.k <= 2:
        raise ValueError("cannot remove a class from a 2-class record")
    if record.gold_label is not None and record.gold_label == class_index:
        return None
    gold = record.gold_label
    if gold is not None and gold > class_index:
        gold -= 1
    keep = [i for i in range(record.k) if i != class_index]
    return EvidenceRecord(
        id=record.id,
        group=record.group,
        class_names=tuple(record.class_names[i] for i in keep),
        evidence=tuple(record.evidence[i] for i in keep),
        gold_label=gold,
    )

"""Seeded generators for desk-scale experiments.

Reproducibility contract: all sampling uses numpy's PCG64 bit generator,
seeded through ``SeedSequence(seed, spawn_key=(stream,))`` with one fixed
stream id per purpose:

    stream 0: ID evidence population
    stream 1: OOD evidence population
    stream 2: toy classification point clouds

Given the same seed and numpy version, regenerated populations are
bitwise identical. Evidence is Gamma-distributed: non-negative and
right-skewed, which is the shape a softplus head produces; the shape
parameters are configuration, not doctrine.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from .records import Group, RecordBatch, require_int, require_number, strength

STREAM_ID_EVIDENCE = 0
STREAM_OOD_EVIDENCE = 1
STREAM_TOY_POINTS = 2


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """The package-wide stream-splitting rule; see the module docstring."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,))))


@dataclass(frozen=True)
class PopulationParams:
    """Gamma-evidence population: one confident class for ID, flat for OOD."""

    n_id: int = 500
    n_ood: int = 500
    k: int = 4
    id_correct_shape: float = 20.0
    id_wrong_shape: float = 0.5
    ood_shape: float = 2.0
    scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name, minimum in (("n_id", 1), ("n_ood", 1), ("k", 2), ("seed", 0)):
            require_int(name, getattr(self, name), minimum)
        for name in ("id_correct_shape", "id_wrong_shape", "ood_shape", "scale"):
            require_number(name, getattr(self, name), positive=True)


def _class_names(k: int) -> tuple[str, ...]:
    letters = string.ascii_uppercase
    if k <= len(letters):
        return tuple(letters[:k])
    return tuple(f"C{i + 1}" for i in range(k))


def generate_evidence_population(params: PopulationParams) -> tuple[RecordBatch, RecordBatch]:
    """Draw (id_records, ood_records), deterministic given ``params.seed``.

    Per ID record the draw order is: correct-class index, K wrong-shape
    components, then the correct-class component. OOD records draw K iid
    moderate-shape components, as one (n, K) draw, and carry no gold label.
    A draw whose S = sum(evidence + 1) is not finite, which a large ``scale``
    can give, is an error: no record file could hold it.
    """
    n, k = params.n_id, params.k
    # the matrix first: a size no memory can hold fails here, not after a name per class
    id_evidence = np.empty((n, k))
    names = _class_names(k)

    rng_id = stream_rng(params.seed, STREAM_ID_EVIDENCE)
    labels = np.empty(n, dtype=np.int64)
    for i in range(n):
        correct = int(rng_id.integers(k))
        id_evidence[i] = rng_id.gamma(params.id_wrong_shape, params.scale, k)
        id_evidence[i, correct] = rng_id.gamma(params.id_correct_shape, params.scale)
        labels[i] = correct

    ood_evidence = stream_rng(params.seed, STREAM_OOD_EVIDENCE).gamma(
        params.ood_shape, params.scale, (params.n_ood, k)
    )
    if not (np.isfinite(strength(id_evidence)).all() and np.isfinite(strength(ood_evidence)).all()):
        raise ValueError(
            f"scale {params.scale!r} draws evidence whose sum S = sum(evidence + 1) is not finite"
        )
    return (
        RecordBatch.from_evidence([f"id-{i:05d}" for i in range(n)], Group.ID, names, id_evidence, labels),
        RecordBatch.from_evidence(
            [f"ood-{i:05d}" for i in range(params.n_ood)], Group.OOD, names, ood_evidence
        ),
    )


def overlap_population_params(seed: int = 0, n_id: int = 500, n_ood: int = 500, k: int = 4) -> PopulationParams:
    """Population whose ID/OOD strength distributions genuinely overlap.

    The stock parameters separate ID from OOD almost perfectly (baseline
    AUROC ~0.99), which leaves no headroom to show how OOD-only class
    expansion inflates the score. These shapes put the baseline near 0.6
    so the inflation staircase is visible; the README demo's population
    config holds these values, and the acceptance suite uses it.
    """
    return PopulationParams(
        n_id=n_id,
        n_ood=n_ood,
        k=k,
        id_correct_shape=6.0,
        id_wrong_shape=0.8,
        ood_shape=2.0,
        scale=1.0,
        seed=seed,
    )


def generate_toy_classification(
    n_per_class: int, separation: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Two unit-variance Gaussian blobs at (-separation/2, 0) and (+separation/2, 0).

    Returns (points, labels) with class-0 points first; deterministic
    given the seed.
    """
    require_int("n_per_class", n_per_class, 1)
    require_number("separation", separation, positive=True)
    rng = stream_rng(seed, STREAM_TOY_POINTS)
    offsets = np.array([[-separation / 2.0, 0.0], [separation / 2.0, 0.0]])
    points = np.concatenate(
        [rng.normal(0.0, 1.0, (n_per_class, 2)) + offsets[c] for c in (0, 1)]
    )
    labels = np.repeat(np.arange(2), n_per_class)
    return points, labels

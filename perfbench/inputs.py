"""Seeded inputs for the three workloads, generated with numpy alone.

Nothing here imports vacuitylab, so a change to the program cannot change
what the benchmark feeds it. Each generator writes its files into a work
directory and returns the arrays it wrote, which the oracle scores
independently of the program.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class InputFile:
    path: Path
    sha256: str
    records: int
    tie_share: float | None  # None for config files


@dataclass
class Inputs:
    files: list[InputFile] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def describe(self) -> list[dict]:
        return [
            {"file": f.path.name, "sha256": f.sha256, "records": f.records, "tie_share": f.tie_share}
            for f in self.files
        ]


def _rngs(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


def vacuity_tie_share(evidence: np.ndarray) -> float:
    """Share of records whose strength S (hence vacuity K/S) equals another record's."""
    strength = evidence.sum(axis=1) + evidence.shape[1]
    _, inverse, counts = np.unique(strength, return_inverse=True, return_counts=True)
    return float((counts[inverse] > 1).mean())


def _write_jsonl(path: Path, group: str, prefix: str, classes: list[str], key: str,
                 values: np.ndarray, labels=None) -> InputFile:
    lines = []
    for i, row in enumerate(values.tolist()):
        obj = {"id": f"{prefix}-{i:05d}", "group": group, "classes": classes, key: row}
        if labels is not None:
            obj["label"] = int(labels[i])
        lines.append(json.dumps(obj))
    blob = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(blob)
    evidence = np.logaddexp(0.0, values) if key == "logits" else values.astype(float)
    return InputFile(path, hashlib.sha256(blob).hexdigest(), len(lines), vacuity_tie_share(evidence))


def _write_json(path: Path, obj: dict) -> InputFile:
    blob = (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")
    path.write_bytes(blob)
    return InputFile(path, hashlib.sha256(blob).hexdigest(), 1, None)


# sweep: K=10, continuous Gamma evidence. ID puts shape 10 on its true class
# and 0.5 elsewhere (mean S = 24.5); OOD puts 1.3 on every class (mean S = 23),
# so the strengths overlap and the baseline AUROC sits near 0.6, leaving room
# for OOD-only expansion to inflate it.
SWEEP_K = 10
SWEEP_N = 1000


def sweep_inputs(work: Path, seed: int) -> Inputs:
    rng_id, rng_ood = _rngs(seed, 2)
    classes = [f"c{i}" for i in range(SWEEP_K)]
    truth = rng_id.integers(SWEEP_K, size=SWEEP_N)
    ev_id = rng_id.gamma(0.5, 1.0, (SWEEP_N, SWEEP_K))
    ev_id[np.arange(SWEEP_N), truth] = rng_id.gamma(10.0, 1.0, SWEEP_N)
    ev_ood = rng_ood.gamma(1.3, 1.0, (SWEEP_N, SWEEP_K))
    out = Inputs(data={"k": SWEEP_K, "id": ev_id, "ood": ev_ood})
    out.files.append(_write_jsonl(work / "id.jsonl", "id", "id", classes, "evidence", ev_id, truth))
    out.files.append(_write_jsonl(work / "ood.jsonl", "ood", "ood", classes, "evidence", ev_ood))
    return out


# ingest: 5000 records per file. Evidence is small integers and OOD logits
# are integers in [-2, 3]; rows are sorted in descending order, so equal
# multisets give identical vectors and most records share their score with
# others (exact ties in the program and in the oracle alike).
INGEST_N = 5000
INGEST_REMOVED_CLASS = 4


def ingest_inputs(work: Path, seed: int) -> Inputs:
    rng_id, rng_ood, rng_k5, rng_sim = _rngs(seed, 4)
    k4 = list("ABCD")
    ev_id = np.rint(rng_id.gamma(0.8, 1.0, (INGEST_N, 4))).astype(int)
    ev_id[:, 0] += np.rint(rng_id.gamma(6.0, 1.0, INGEST_N)).astype(int)
    ev_id = -np.sort(-ev_id, axis=1)
    logits = -np.sort(-rng_ood.integers(-2, 4, (INGEST_N, 4)), axis=1)
    ev_k5 = np.rint(rng_k5.gamma(1.5, 1.5, (INGEST_N, 5))).astype(int)
    labels_k5 = rng_k5.integers(5, size=INGEST_N)
    out = Inputs(data={
        "id": ev_id.astype(float),
        "ood": np.logaddexp(0.0, logits.astype(float)),
        "k5": ev_k5.astype(float),
        "k5_labels": labels_k5,
        "removed_class": INGEST_REMOVED_CLASS,
        "n_sim": INGEST_N,
    })
    out.files.append(_write_jsonl(work / "id_k4.jsonl", "id", "id", k4, "evidence", ev_id))
    out.files.append(_write_jsonl(work / "ood_k4_logits.jsonl", "ood", "ood", k4, "logits", logits))
    out.files.append(_write_jsonl(work / "ood_k5.jsonl", "ood", "wide", list("ABCDE"), "evidence",
                                  ev_k5, labels_k5))
    sim_seed = int(rng_sim.integers(2**31))
    out.files.append(_write_json(work / "population.json",
                                 {"n_id": INGEST_N, "n_ood": INGEST_N, "k": 4, "seed": sim_seed}))
    return out


# train: the toy classifier draws its own points from the config seed, so
# the benchmark's input is the pair of configs.
TRAIN_STEPS = 500
TRAIN_N_PER_CLASS = 250


def train_inputs(work: Path, seed: int) -> Inputs:
    (rng,) = _rngs(seed, 1)
    toy_seed = int(rng.integers(2**31))
    out = Inputs(data={"steps": TRAIN_STEPS, "n_per_class": TRAIN_N_PER_CLASS})
    for mode in ("edl", "ib-edl"):
        config = {"mode": mode, "steps": TRAIN_STEPS, "n_per_class": TRAIN_N_PER_CLASS, "seed": toy_seed}
        out.files.append(_write_json(work / f"toy_{mode}.json", config))
    return out

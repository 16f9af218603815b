"""The three workloads: the CLI script one op runs, its item count, and its checks.

An op runs every command of a workload's script through ``cli.main``. The
checks compare each op's outputs with what ``oracle`` predicts from the
generated inputs; any mismatch fails the op.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
import oracle


@dataclass
class Outcome:
    argv: list[str]
    exit_code: int
    stdout: str
    stderr: str


class Workload:
    name: str
    items_per_op: int
    item: str
    make_inputs: staticmethod  # (work, seed) -> inputs.Inputs

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.inputs: inputs.Inputs | None = None

    def prepare(self) -> None:
        """Write the inputs for this seed into the work directory."""
        self.inputs = self.make_inputs(self.work, self.seed)

    def script(self) -> list[tuple[list[str], int]]:
        """(argv, expected exit code) for each command of one op."""
        raise NotImplementedError

    def reset(self) -> None:
        """Remove the previous op's outputs so stale files cannot pass a check."""
        shutil.rmtree(self.work / "out", ignore_errors=True)

    def expect(self) -> None:
        """Compute what every op must produce; called once after prepare()."""

    def check(self, outcomes: list[Outcome]) -> list[str]:
        problems = []
        for (argv, want), got in zip(self.script(), outcomes):
            if got.exit_code != want:
                problems.append(f"{argv[0]}: exit {got.exit_code}, expected {want}: {got.stderr[-300:]}")
        return problems + (self.check_outputs(outcomes) if not problems else [])

    def check_outputs(self, outcomes: list[Outcome]) -> list[str]:
        raise NotImplementedError


def _read_result(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


class Sweep(Workload):
    """expand ood-only, expand matched with invariance evidence, report csv."""

    name = "sweep"
    item = "record scored at one K"
    k_max = 20
    items_per_op = 2 * 2 * inputs.SWEEP_N * (k_max - inputs.SWEEP_K + 1)
    make_inputs = staticmethod(inputs.sweep_inputs)

    def script(self):
        w, out = self.work, str(self.work / "out")
        files = [str(w / "id.jsonl"), str(w / "ood.jsonl")]
        k_max = str(self.k_max)
        return [
            (["expand", *files, "--mode", "ood-only", "--k-max", k_max, "--out", out], 0),
            (["expand", *files, "--mode", "matched", "--k-max", k_max,
              "--evidence", "invariance", "--out", out], 0),
            (["report", out, "--format", "csv"], 0),
        ]

    def expect(self):
        # Appending m zero-evidence classes to the OOD side only turns its
        # 1/u = S/K into (S + m)/(K + m); ID scores stay at S/K.
        d = self.inputs.data
        k = d["k"]
        s_id, s_ood = oracle.strength(d["id"]), oracle.strength(d["ood"])
        self.rows = []
        for m in range(self.k_max - k + 1):
            row = oracle.detection_row(s_id / k, (s_ood + m) / (k + m))
            row.update(k_id=k, k_ood=k + m)
            self.rows.append(row)

    def check_outputs(self, outcomes):
        out = self.work / "out"
        ood_only = _read_result(out / "expansion_ood_only.result.json")["rows"]
        matched = _read_result(out / "expansion_matched.result.json")["rows"]
        problems = []
        if len(ood_only) != len(self.rows) or len(matched) != len(self.rows):
            return [f"expected {len(self.rows)} rows, got {len(ood_only)} and {len(matched)}"]
        for got, want in zip(ood_only, self.rows):
            problems += oracle.row_mismatches(got, want, f"ood-only K_OOD={want['k_ood']}")
        aurocs = [r["auroc"] for r in ood_only]
        if any(b <= a for a, b in zip(aurocs, aurocs[1:])):
            problems.append(f"ood-only AUROC does not rise strictly: {aurocs}")
        fields = ("auroc", "aupr", "aupr_baseline", "n_positive", "n_negative")
        for row in matched:
            if any(row[f] != ood_only[0][f] for f in fields):
                problems.append(f"matched K={row['k_ood']} differs from the baseline: {row}")
            if row["k_id"] != row["k_ood"]:
                problems.append(f"matched row has K_ID={row['k_id']} K_OOD={row['k_ood']}")
        for name, rows in (("expansion_ood_only", ood_only), ("expansion_matched", matched)):
            with open(out / f"{name}.csv", newline="", encoding="utf-8") as handle:
                table = list(csv.DictReader(handle))
            if [float(r["auroc"]) for r in table] != [r["auroc"] for r in rows] or [
                float(r["aupr"]) for r in table
            ] != [r["aupr"] for r in rows]:
                problems.append(f"{name}.csv disagrees with {name}.result.json")
        if not outcomes[2].stdout.startswith("wrote 8 files"):
            problems.append(f"report: {outcomes[2].stdout.strip()!r}")
        return problems


class Ingest(Workload):
    """simulate, two audits, two metrics runs and a restriction over 5000-record files."""

    name = "ingest"
    item = "JSONL line read or written"
    simulated = None  # digest of the first op's simulate output
    # simulate writes two files; the five other commands each read two
    items_per_op = 2 * inputs.INGEST_N + 5 * 2 * inputs.INGEST_N
    make_inputs = staticmethod(inputs.ingest_inputs)

    def script(self):
        w = self.work
        id4, ood4, ood5 = str(w / "id_k4.jsonl"), str(w / "ood_k4_logits.jsonl"), str(w / "ood_k5.jsonl")
        return [
            (["simulate", "--config", str(w / "population.json"), "--out", str(w / "out")], 0),
            (["audit", id4, ood4], 0),
            (["audit", id4, ood5], 2),
            (["metrics", id4, ood4, "--format", "json"], 0),
            (["metrics", id4, ood4, "--metric", "entropy", "--orientation", "ood-pos",
              "--format", "json"], 0),
            (["restrict", id4, ood5, "--remove-class", str(inputs.INGEST_REMOVED_CLASS),
              "--format", "json"], 0),
        ]

    def expect(self):
        d = self.inputs.data
        s_id, s_ood, s_k5 = oracle.strength(d["id"]), oracle.strength(d["ood"]), oracle.strength(d["k5"])
        removed = d["removed_class"]
        keep = d["k5_labels"] != removed
        reduced = np.delete(d["k5"][keep], removed, axis=1)
        self.vacuity = dict(oracle.detection_row(s_id / 4, s_ood / 4), k_id=4, k_ood=4)
        self.entropy = dict(
            oracle.detection_row(oracle.normalized_entropy(d["ood"]), oracle.normalized_entropy(d["id"])),
            k_id=4, k_ood=4,
        )
        self.as_is = dict(oracle.detection_row(s_id / 4, s_k5 / 5), k_id=4, k_ood=5)
        self.removed = dict(oracle.detection_row(s_id / 4, oracle.strength(reduced) / 4), k_id=4, k_ood=4)
        self.excluded_ids = [f"wide-{i:05d}" for i in np.flatnonzero(~keep)]

    def check_outputs(self, outcomes):
        simulate, audit_ok, audit_fail, vac, ent, restrict = outcomes
        problems = []
        digest = hashlib.sha256()
        for name in ("id_records.jsonl", "ood_records.jsonl"):
            blob = (self.work / "out" / name).read_bytes()
            lines = blob.count(b"\n")
            if lines != self.inputs.data["n_sim"]:
                problems.append(f"simulate: {name} has {lines} lines")
            digest.update(blob)
        if self.simulated is None:
            self.simulated = digest.hexdigest()
        elif digest.hexdigest() != self.simulated:
            problems.append("simulate wrote different bytes than on the first op")
        if not audit_ok.stdout.startswith("AUDIT PASS: K_ID=4 K_OOD=4"):
            problems.append(f"audit K4/K4: {audit_ok.stdout[:80]!r}")
        if not audit_fail.stdout.startswith("AUDIT FAIL: K_ID=4 K_OOD=5"):
            problems.append(f"audit K4/K5: {audit_fail.stdout[:80]!r}")
        problems += oracle.row_mismatches(json.loads(vac.stdout)["rows"][0], self.vacuity, "metrics vacuity")
        problems += oracle.row_mismatches(json.loads(ent.stdout)["rows"][0], self.entropy, "metrics entropy")
        _, _, table = restrict.stdout.partition("\n")
        result = json.loads(table)
        problems += oracle.row_mismatches(result["rows"][0], self.as_is, "restrict as-is")
        problems += oracle.row_mismatches(result["rows"][1], self.removed, "restrict removed")
        if result["excluded_ids"] != self.excluded_ids or result["excluded_count"] != len(self.excluded_ids):
            problems.append(
                f"restrict excluded {result['excluded_count']}, generator labelled "
                f"{len(self.excluded_ids)} records with the removed class"
            )
        return problems


class Train(Workload):
    """train-toy in EDL mode, then in IB-EDL mode, 500 steps each."""

    name = "train"
    item = "example-step"
    summaries = None  # the first op's summaries
    items_per_op = 2 * 2 * inputs.TRAIN_N_PER_CLASS * inputs.TRAIN_STEPS
    make_inputs = staticmethod(inputs.train_inputs)

    def script(self):
        return [(["train-toy", "--config", str(f.path)], 0) for f in self.inputs.files]

    def check_outputs(self, outcomes):
        summaries = [json.loads(o.stdout) for o in outcomes]
        problems = []
        for mode, s in zip(("edl", "ib-edl"), summaries):
            if s["mode"] != mode or s["steps"] != inputs.TRAIN_STEPS:
                problems.append(f"{mode}: summary is for mode={s['mode']} steps={s['steps']}")
            if not s["train_accuracy"] > 0.95:
                problems.append(f"{mode}: train accuracy {s['train_accuracy']} <= 0.95")
            if not s["mean_far_ood_vacuity"] > s["mean_id_vacuity"]:
                problems.append(
                    f"{mode}: far-OOD vacuity {s['mean_far_ood_vacuity']} <= ID vacuity {s['mean_id_vacuity']}"
                )
        if self.summaries is None:
            self.summaries = summaries
        elif summaries != self.summaries:
            problems.append("summary differs from the first op's")
        return problems


WORKLOADS = {w.name: w for w in (Sweep, Ingest, Train)}

"""CLI contract: subcommands, exit codes (0 ok / 1 usage / 2 audit fail), files."""

import dataclasses
import hashlib
import itertools
import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from vacuitylab import EvidenceRecord, RecordBatch, generate_evidence_population, overlap_population_params
from vacuitylab import cli, report
from vacuitylab.synthetic import stream_rng
from vacuitylab.cli import main
from vacuitylab.records import parse_records, serialize_records

from oracles import records_of
from test_toy import TRAINING_GOLDEN

README = Path(__file__).resolve().parent.parent / "README.md"


def make_record(rid, evidence, group="id", gold=None):
    names = [chr(ord("A") + i) for i in range(len(evidence))]
    return EvidenceRecord(id=rid, group=group, class_names=names, evidence=evidence, gold_label=gold)


@pytest.fixture
def files(tmp_path):
    id_records, ood_records = generate_evidence_population(
        overlap_population_params(seed=1, n_id=60, n_ood=60)
    )
    paths = {
        "id": tmp_path / "id.jsonl",
        "ood": tmp_path / "ood.jsonl",
        "ood_k5": tmp_path / "ood_k5.jsonl",
        "out": tmp_path / "out",
    }
    serialize_records(id_records, paths["id"])
    serialize_records(ood_records, paths["ood"])
    five = [
        make_record(f"q{i}", list(r.evidence) + [0.0], "ood", gold=(4 if i % 5 == 0 else 1))
        for i, r in enumerate(records_of(ood_records))
    ]
    serialize_records(RecordBatch.from_records(five), paths["ood_k5"])
    return paths


class TestAudit:
    def test_pass_exits_zero(self, files, capsys):
        assert main(["audit", str(files["id"]), str(files["ood"])]) == 0
        assert "AUDIT PASS" in capsys.readouterr().out

    def test_mismatch_exits_two(self, files, capsys):
        assert main(["audit", str(files["id"]), str(files["ood_k5"])]) == 2
        out = capsys.readouterr().out
        assert "AUDIT FAIL" in out
        assert "K_ID=4 K_OOD=5" in out

    def test_writes_result_file(self, files):
        """The audit writes audit.json, outside the *.result.json glob that `report` reads."""
        main(["audit", str(files["id"]), str(files["ood"]), "--out", str(files["out"])])
        assert [p.name for p in files["out"].iterdir()] == ["audit.json"]
        stored = json.loads((files["out"] / "audit.json").read_text())
        assert stored["verdict"] == "PASS"


class TestMetrics:
    def test_matched_runs(self, files, capsys):
        code = main(
            ["metrics", str(files["id"]), str(files["ood"]), "--metric", "vacuity", "--format", "json"]
        )
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["kind"] == "detection"
        assert 0.0 <= result["rows"][0]["auroc"] <= 1.0

    def test_mismatch_refused_without_flag(self, files):
        assert main(["metrics", str(files["id"]), str(files["ood_k5"])]) == 2

    def test_mismatch_allowed_with_flag_and_warned(self, files, capsys):
        code = main(
            [
                "metrics",
                str(files["id"]),
                str(files["ood_k5"]),
                "--allow-mismatch",
                "--out",
                str(files["out"]),
            ]
        )
        assert code == 0
        warnings = (files["out"] / "warnings.jsonl").read_text().strip().splitlines()
        assert json.loads(warnings[0])["type"] == "cardinality_mismatch"
        assert "warning" in capsys.readouterr().err

    def test_orientation_swap_same_auroc(self, files, capsys):
        main(["metrics", str(files["id"]), str(files["ood"]), "--format", "json"])
        a = json.loads(capsys.readouterr().out)["rows"][0]["auroc"]
        main(["metrics", str(files["id"]), str(files["ood"]), "--orientation", "ood-pos", "--format", "json"])
        b = json.loads(capsys.readouterr().out)["rows"][0]["auroc"]
        assert a == b


class TestExpand:
    def test_matched_deltas_render_zero(self, files, capsys):
        code = main(
            [
                "expand",
                str(files["id"]),
                str(files["ood"]),
                "--mode",
                "matched",
                "--k-max",
                "8",
            ]
        )
        assert code == 0
        table = capsys.readouterr().out
        rows = [l for l in table.splitlines() if l.startswith("| matched expansion")]
        assert len(rows) == 4
        for line in rows:
            assert "| 0.000 |" in line

    def test_ood_only_monotone_and_files(self, files, capsys):
        code = main(
            [
                "expand",
                str(files["id"]),
                str(files["ood"]),
                "--mode",
                "ood-only",
                "--k-max",
                "8",
                "--evidence",
                "0",
                "--format",
                "json",
                "--out",
                str(files["out"]),
            ]
        )
        assert code == 0
        stored = json.loads((files["out"] / "expansion_ood_only.result.json").read_text())
        aurocs = [row["auroc"] for row in stored["rows"]]
        assert all(b >= a for a, b in zip(aurocs, aurocs[1:]))
        # every row states its own K_ID and K_OOD; the mismatched OOD-only rows write no warnings.jsonl
        assert [(row["k_id"], row["k_ood"]) for row in stored["rows"]] == [(4, k) for k in range(4, 9)]
        assert sorted(p.name for p in files["out"].iterdir()) == [
            "expansion_ood_only.result.json", "expansion_ood_only_sweep.csv", "expansion_ood_only_sweep.svg"
        ]

    def test_mismatched_baseline_exits_two(self, files):
        code = main(
            ["expand", str(files["id"]), str(files["ood_k5"]), "--mode", "matched", "--k-max", "8"]
        )
        assert code == 2

    def test_k_max_too_small_is_usage_error(self, files):
        code = main(
            ["expand", str(files["id"]), str(files["ood"]), "--mode", "matched", "--k-max", "4"]
        )
        assert code == 1

    def test_invariance_evidence_value(self, files, capsys):
        code = main(
            [
                "expand",
                str(files["id"]),
                str(files["ood"]),
                "--mode",
                "ood-only",
                "--k-max",
                "5",
                "--evidence",
                "invariance",
                "--format",
                "json",
            ]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert rows[1]["auroc"] == pytest.approx(rows[0]["auroc"], abs=1e-12)


class TestRestrict:
    def test_runs_and_warns(self, files, capsys):
        code = main(
            [
                "restrict",
                str(files["id"]),
                str(files["ood_k5"]),
                "--remove-class",
                "4",
                "--format",
                "json",
                "--out",
                str(files["out"]),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "excluded 12 records" in captured.out
        assert (files["out"] / "warnings.jsonl").exists()
        stored = json.loads((files["out"] / "restriction.result.json").read_text())
        assert stored["excluded_count"] == 12
        as_is, removed = stored["rows"]
        assert (as_is["k_id"], as_is["k_ood"]) == (4, 5)
        assert (removed["k_id"], removed["k_ood"]) == (4, 4)
        assert removed["aupr_baseline"] != as_is["aupr_baseline"]

    @pytest.mark.parametrize(
        "id_k, conditions",
        [(4, ["as-is (mismatched K)", "removed class 4"]), (5, ["as-is", "removed class 4 (mismatched K)"])],
    )
    def test_only_rows_of_two_k_say_mismatched(self, files, tmp_path, capsys, id_k, conditions):
        """On K=5 files the as-is row is matched and the removed row (5 vs 4) is not."""
        id_path = files["id"]
        if id_k == 5:
            id_path = tmp_path / "id_k5.jsonl"
            five = [make_record(r.id, list(r.evidence) + [0.0], "id", r.gold_label)
                    for r in records_of(parse_records(files["id"]))]
            serialize_records(RecordBatch.from_records(five), id_path)
        argv = ["restrict", str(id_path), str(files["ood_k5"]), "--remove-class", "4", "--out", str(files["out"])]
        assert main(argv) == 0
        capsys.readouterr()
        rows = json.loads((files["out"] / "restriction.result.json").read_text())["rows"]
        assert [row["condition"] for row in rows] == conditions
        assert [(row["k_id"], row["k_ood"]) for row in rows] == [(id_k, 5), (id_k, 4)]

    @pytest.mark.parametrize("orientation", ["id-pos", "ood-pos"])
    def test_result_records_its_orientation(self, files, tmp_path, capsys, orientation):
        """The result names its positive side right after its metric, and report re-emits it byte for byte."""
        out, again = tmp_path / "d", tmp_path / "e"
        argv = ["restrict", str(files["id"]), str(files["ood_k5"]), "--remove-class", "0",
                "--orientation", orientation, "--out", str(out)]
        assert main(argv) == 0
        written = (out / "restriction.result.json").read_bytes()
        assert list(json.loads(written).items())[2:4] == [("metric", "vacuity"), ("orientation", orientation)]
        assert main(["report", str(out), "--out", str(again)]) == 0
        capsys.readouterr()
        assert (again / "restriction.result.json").read_bytes() == written


class TestSimulateAndTrainToy:
    def test_simulate_writes_populations(self, tmp_path):
        config = tmp_path / "pop.json"
        config.write_text(json.dumps({"n_id": 30, "n_ood": 20, "k": 4, "seed": 5}))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        id_lines = (out / "id_records.jsonl").read_text().strip().splitlines()
        ood_lines = (out / "ood_records.jsonl").read_text().strip().splitlines()
        assert len(id_lines) == 30 and len(ood_lines) == 20

    @staticmethod
    def _outputs_by_seed(tmp_path, capsys, command, config, read):
        """``read(out)`` after a run of the config with seed 5, one with seed 9, and another with seed 5."""
        outputs = []
        for i, seed in enumerate((5, 9, 5)):
            path, out = tmp_path / f"config{i}.json", tmp_path / f"out{i}"
            path.write_text(json.dumps({**config, "seed": seed}))
            assert main([command, "--config", str(path), "--out", str(out)]) == 0
            capsys.readouterr()
            outputs.append(read(out))
        return outputs

    def test_simulate_seed_is_the_configs(self, tmp_path, capsys):
        """The config's seed is the run's one seed: seed 9 writes other records than seed 5, which repeats."""
        five, nine, again = self._outputs_by_seed(
            tmp_path, capsys, "simulate", {"n_id": 5, "n_ood": 5},
            lambda out: [(out / name).read_bytes() for name in ("id_records.jsonl", "ood_records.jsonl")],
        )
        assert again == five != nine

    def test_train_toy_seed_is_the_configs(self, tmp_path, capsys):
        five, nine, again = self._outputs_by_seed(
            tmp_path, capsys, "train-toy", {"mode": "edl", "steps": 5, "n_per_class": 50},
            lambda out: (out / "toy_summary.json").read_bytes(),
        )
        assert again == five != nine

    def test_train_toy_summary(self, tmp_path, capsys):
        config = tmp_path / "toy.json"
        config.write_text(
            json.dumps({"mode": "edl", "steps": 120, "seed": 11, "n_per_class": 60, "separation": 8.0})
        )
        out = tmp_path / "toy"
        assert main(["train-toy", "--config", str(config), "--out", str(out)]) == 0
        summary = json.loads((out / "toy_summary.json").read_text())
        assert summary["train_accuracy"] > 0.9
        assert summary["mean_far_ood_vacuity"] > summary["mean_id_vacuity"]


class TestReport:
    def test_rerenders_results(self, files, tmp_path):
        main(
            [
                "expand",
                str(files["id"]),
                str(files["ood"]),
                "--mode",
                "matched",
                "--k-max",
                "6",
                "--out",
                str(files["out"]),
            ]
        )
        rerender = tmp_path / "rerender"
        code = main(["report", str(files["out"]), "--out", str(rerender), "--format", "csv"])
        assert code == 0
        assert (rerender / "expansion_matched.csv").exists()

    def test_empty_dir_is_error(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert main(["report", str(empty)]) == 1

    def test_audit_result_is_skipped(self, files, capsys):
        """`report` does not read the audit's audit.json; an audit.result.json is a malformed result."""
        out = str(files["out"])
        assert main(["audit", str(files["id"]), str(files["ood"]), "--out", out]) == 0
        assert main(["report", out]) == 1
        assert capsys.readouterr().err == f"no *.result.json files in {out}\n"
        args = [str(files["id"]), str(files["ood"]), "--mode", "matched", "--k-max", "6", "--out", out]
        assert main(["expand", *args]) == 0
        capsys.readouterr()
        assert main(["report", out, "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("wrote 4 files")
        old = files["out"] / "audit.result.json"
        old.write_text((files["out"] / "audit.json").read_text())
        assert main(["report", out, "--format", "csv"]) == 1
        assert capsys.readouterr().err == (
            f"error: {old}: kind must be one of 'expansion', 'restriction', 'detection', got None\n"
        )


JSON_DEFECTS = {
    "extra-data": (b'{"seed": 1}\n{"seed": 2}\n', "line 2 column 1: Extra data"),
    "bad-key": (b"{broken", "line 1 column 2: Expecting property name enclosed in double quotes"),
    "not-utf8": (b'{"seed": "\xff"}', "byte 10: not UTF-8 text"),
    "too-deep": (b"[" * 100000 + b"]" * 100000, "JSON nested too deeply"),
}


@pytest.mark.parametrize("defect", JSON_DEFECTS)
@pytest.mark.parametrize("command", ["simulate", "train-toy", "report"])
def test_unreadable_json_names_the_file(tmp_path, capsys, command, defect):
    content, message = JSON_DEFECTS[defect]
    if command == "report":
        path = tmp_path / "x.result.json"
        argv = ["report", str(tmp_path)]
    else:
        path = tmp_path / "config.json"
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    path.write_bytes(content)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


BAD_CONFIGS = [
    ("simulate", {"n_id": True}, "n_id must be an integer, got True"),
    ("simulate", {"n_id": 2.0}, "n_id must be an integer, got 2.0"),
    ("simulate", {"n_ood": 0}, "n_ood must be >= 1, got 0"),
    ("simulate", {"k": 1}, "k must be >= 2, got 1"),
    ("simulate", {"seed": -1}, "seed must be >= 0, got -1"),
    ("simulate", {"ood_shape": 0}, "ood_shape must be > 0, got 0"),
    ("simulate", {"scale": float("inf")}, "scale must be a finite number, got inf"),
    ("simulate", {"id_wrong_shape": "0.5"}, "id_wrong_shape must be a finite number, got '0.5'"),
    ("simulate", {"bogus": 1}, "unexpected keyword argument 'bogus'"),
    ("simulate", [1, 2], "expected a JSON object"),
    ("train-toy", {"rbf_grid": 1}, "rbf_grid must be >= 2, got 1"),
    ("train-toy", {"lambda_ramp_steps": 0}, "lambda_ramp_steps must be >= 1, got 0"),
    ("train-toy", {"steps": -3}, "steps must be >= 0, got -3"),
    ("train-toy", {"steps": 5.0}, "steps must be an integer, got 5.0"),
    ("train-toy", {"n_per_class": 60.9}, "n_per_class must be an integer, got 60.9"),
    ("train-toy", {"n_per_class": 10}, "n_per_class must be >= 50, got 10"),
    ("train-toy", {"separation": 0}, "separation must be > 0, got 0"),
    ("train-toy", {"learning_rate": 0}, "learning_rate must be > 0, got 0"),
    ("train-toy", {"lambda_weight": float("nan")}, "lambda_weight must be a finite number, got nan"),
    ("train-toy", {"beta_weight": -1e-3}, "beta_weight must be >= 0, got -0.001"),
    ("train-toy", {"sigma_mult": False}, "sigma_mult must be a finite number, got False"),
    ("train-toy", {"mode": "bogus"}, "'bogus' is not a valid TrainingMode"),
    # sizes whose first allocation is refused at once, so the test itself allocates little
    ("simulate", {"n_id": 10**12}, "Unable to allocate"),
    ("simulate", {"k": 10**12}, "Unable to allocate"),
    ("train-toy", {"rbf_grid": 10**12}, "Unable to allocate"),
    # values whose features or inference loss no float can hold
    ("train-toy", {"separation": 1e160}, "separation must be <= 1e+150, got 1e+160"),
    ("train-toy", {"separation": 1e155}, "separation must be <= 1e+150, got 1e+155"),
    ("train-toy", {"separation": 1e154}, "separation must be <= 1e+150, got 1e+154"),
    ("train-toy", {"mode": "ib-edl", "steps": 5, "sigma_mult": 1e160}, "sigma_mult 1e+160 is too large"),
]


@pytest.mark.parametrize("command, config, message", BAD_CONFIGS)
def test_bad_config_value_names_the_file(tmp_path, capsys, command, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err, err
    assert not (tmp_path / "out").exists()


def test_diverging_training_prints_only_the_error(tmp_path, capsys):
    """A run whose loss stops being finite says so in one line, with no numpy warning before it."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"mode": "ib-edl", "steps": 50, "learning_rate": 1e9, "beta_weight": 1.0}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train-toy", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("error: training diverged at step 2: loss = inf (last finite loss: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_runtime_error_of_a_command_prints_only_the_error(files, monkeypatch, capsys):
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_expansion_experiment", boom)
    argv = ["expand", str(files["id"]), str(files["ood"]), "--mode", "ood-only", "--k-max", "6"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: boom\n")


def test_integral_values_of_float_fields_are_accepted(tmp_path, capsys):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps({"steps": 0, "learning_rate": 1, "separation": 6, "n_per_class": 50}))
    assert main(["train-toy", "--config", str(path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["steps"] == 0 and summary["separation"] == 6.0


BAD_EVIDENCE_LINES = {
    "inf": '"evidence": [1, Infinity]',
    "nan": '"evidence": [NaN, 1]',
    "sum-overflow": '"evidence": [1e308, 1e308]',
    "logit-sum-overflow": '"logits": [1e308, 1e308]',
    "bool": '"evidence": [true, false]',
    "huge-int-literal": '"evidence": [' + "1" * 5000 + ", 1]",
}


@pytest.mark.parametrize("line", BAD_EVIDENCE_LINES.values(), ids=BAD_EVIDENCE_LINES.keys())
@pytest.mark.parametrize(
    "command",
    [["metrics"], ["expand", "--mode", "ood-only", "--k-max", "3", "--orientation", "ood-pos"]],
    ids=["metrics", "expand-ood-pos"],
)
def test_bad_evidence_is_input_error(tmp_path, capsys, line, command):
    good = tmp_path / "id.jsonl"
    good.write_text('{"id": "a", "group": "id", "classes": ["A", "B"], "evidence": [3, 1]}\n')
    bad = tmp_path / "ood.jsonl"
    bad.write_text(
        '{"id": "b", "group": "ood", "classes": ["A", "B"], "evidence": [1, 1]}\n'
        '{"id": "c", "group": "ood", "classes": ["A", "B"], ' + line + "}\n"
    )
    out = tmp_path / "out"
    assert main([command[0], str(good), str(bad), *command[1:], "--out", str(out)]) == 1
    assert f"{bad}:2:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rid", ["null", '["x"]', "7", "true"], ids=["null", "array", "number", "bool"])
def test_non_string_id_is_input_error(tmp_path, capsys, rid):
    good = tmp_path / "id.jsonl"
    good.write_text('{"id": "a", "group": "id", "classes": ["A", "B"], "evidence": [3, 1]}\n')
    bad = tmp_path / "ood.jsonl"
    bad.write_text(
        '{"id": "b", "group": "ood", "classes": ["A", "B"], "evidence": [1, 1]}\n'
        '{"id": ' + rid + ', "group": "ood", "classes": ["A", "B"], "evidence": [1, 2]}\n'
    )
    assert main(["metrics", str(good), str(bad), "--out", str(tmp_path / "out")]) == 1
    assert f"{bad}:2: id must be a string" in capsys.readouterr().err


def test_cli_import_loads_no_network_modules():
    """Importing the CLI pulls in none of the modules behind ``urllib.request``."""
    code = "import sys, vacuitylab.cli; print(' '.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    network = {"urllib.request", "http.client", "email", "ssl", "_ssl", "socket", "_socket"}
    assert not [m for m in loaded if m.split(".")[0] in network or m in network]


def test_record_path_loads_no_numpy_ma(files, mixed_ood):
    """Reading record files of one K or of mixed K never imports numpy.ma, which costs every process ~17 ms."""
    code = "import sys; from vacuitylab.cli import main; main(sys.argv[1:]); print('numpy.ma' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for ood in (files["ood"], mixed_ood):
        result = subprocess.run(
            [sys.executable, "-c", code, "audit", str(files["id"]), str(ood)],
            env=env, capture_output=True, text=True, check=True,
        )
        assert result.stdout.splitlines()[-1] == "False", (ood, result.stdout)


RECORD_COMMANDS = [
    ["audit"], ["metrics"], ["expand", "--mode", "ood-only", "--k-max", "6"], ["restrict", "--remove-class", "0"]
]


def _modules_after(argv):
    """The modules a fresh process holds after ``main(argv)``, which must succeed."""
    code = "import sys; from vacuitylab.cli import main; print(main(sys.argv[1:]), *sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True
    )
    status, *loaded = result.stdout.splitlines()[-1].split()
    assert status == "0", result.stdout
    return set(loaded)


@pytest.mark.parametrize(
    "command", [*RECORD_COMMANDS, ["report"]], ids=["audit", "metrics", "expand", "restrict", "report"]
)
def test_record_commands_load_neither_toy_nor_generators(files, tmp_path, command):
    """Every module loaded costs start-up time; record commands load no toy, losses, generators or row form."""
    if command == ["report"]:
        results = tmp_path / "results"
        assert main(["metrics", str(files["id"]), str(files["ood"]), "--out", str(results)]) == 0
        argv = ["report", str(results), "--out", str(tmp_path / "out")]
    else:
        argv = [command[0], str(files["id"]), str(files["ood"]), *command[1:], "--out", str(tmp_path / "out")]
    unused = {"vacuitylab.toy", "vacuitylab.losses", "vacuitylab.special", "vacuitylab.synthetic",
              "vacuitylab.dirichlet"}
    assert _modules_after(argv) & unused == set()


def test_simulate_loads_no_toy(tmp_path):
    config = tmp_path / "pop.json"
    config.write_text(json.dumps({"n_id": 5, "n_ood": 5, "seed": 5}))
    loaded = _modules_after(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")])
    assert "vacuitylab.synthetic" in loaded and "vacuitylab.toy" not in loaded


@pytest.mark.parametrize("command", RECORD_COMMANDS, ids=["audit", "metrics", "expand", "restrict"])
@pytest.mark.parametrize("side", ["id", "ood"])
@pytest.mark.parametrize("text", ["", "\n  \r\n\t\n"], ids=["empty", "blank-lines"])
def test_file_without_records_names_itself(files, tmp_path, capsys, command, side, text):
    empty = tmp_path / "empty.jsonl"
    empty.write_text(text)
    pair = {"id": files["id"], "ood": files["ood"], side: empty}
    out = tmp_path / "out"
    assert main([command[0], str(pair["id"]), str(pair["ood"]), *command[1:], "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {empty}: no records\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "id_text, ood_text, message",
    [
        ("\n", "", "{id}: no records"),
        ("\n", "{broken\n", "{ood}:1: invalid JSON"),
        ('{"id": "x", "group": "ood", "classes": ["A", "B"], "evidence": [1, 1]}\n', "{broken\n",
         "{ood}:1: invalid JSON"),
    ],
    ids=["empty", "malformed", "malformed-after-wrong-group"],
)
def test_file_without_records_is_reported_after_defects(tmp_path, capsys, id_text, ood_text, message):
    """Both files empty name the ID file; a defect in the OOD file is reported before an empty ID file
    or a row of the wrong group in it: both files are parsed before the pair gate runs."""
    id_path, ood_path = tmp_path / "id.jsonl", tmp_path / "ood.jsonl"
    id_path.write_text(id_text)
    ood_path.write_text(ood_text)
    assert main(["audit", str(id_path), str(ood_path)]) == 1
    assert capsys.readouterr().err.startswith("error: " + message.format(id=id_path, ood=ood_path))


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self, files):
        assert main(["audit", str(files["id"]), str(files["ood"]), "--bogus"]) == 1

    def test_no_subcommand(self):
        assert main([]) == 1

    def test_missing_file(self, tmp_path):
        assert main(["audit", str(tmp_path / "nope.jsonl"), str(tmp_path / "nope2.jsonl")]) == 1

    def test_parse_error_is_exit_one(self, tmp_path, files):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        assert main(["audit", str(bad), str(files["ood"])]) == 1


@pytest.mark.parametrize("ood, code", [("ood", 0), ("ood_k5", 2)], ids=["pass", "fail"])
def test_console_script_entry_exits_with_the_command_code(files, monkeypatch, capsys, ood, code):
    """The installed ``vacuitylab`` script calls ``entry``, which exits with the code ``main`` returns."""
    monkeypatch.setattr(sys, "argv", ["vacuitylab", "audit", str(files["id"]), str(files[ood])])
    with pytest.raises(SystemExit) as info:
        cli.entry()
    assert info.value.code == code
    assert capsys.readouterr().out.startswith(f"AUDIT {'PASS' if code == 0 else 'FAIL'}")


# a valid invocation of each command, so that the flag under test is the only usage error
BASE_ARGV = {
    "audit": ["audit", "id.jsonl", "ood.jsonl"],
    "metrics": ["metrics", "id.jsonl", "ood.jsonl"],
    "expand": ["expand", "id.jsonl", "ood.jsonl", "--mode", "ood-only", "--k-max", "6"],
    "restrict": ["restrict", "id.jsonl", "ood.jsonl", "--remove-class", "0"],
    "simulate": ["simulate", "--config", "population.json"],
    "train-toy": ["train-toy", "--config", "toy.json"],
    "report": ["report", "results"],
}
FLAG_ARGV = {"--format": ["--format", "json"], "--seed": ["--seed", "3"], "--allow-mismatch": ["--allow-mismatch"]}
DROPPED_FLAGS = [
    *[(command, "--format") for command in ("audit", "simulate", "train-toy")],
    *[(command, "--seed") for command in BASE_ARGV],  # simulate and train-toy read their seed from --config
    *[(command, "--allow-mismatch") for command in BASE_ARGV if command != "metrics"],
]


@pytest.mark.parametrize("command, flag", DROPPED_FLAGS)
def test_flag_a_command_does_not_read_is_usage_error(capsys, command, flag):
    assert main([*BASE_ARGV[command], *FLAG_ARGV[flag]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: unrecognized arguments: ") and flag in err


# sha256 of the files the README's expansion demo writes (seed 0, --k-max 8); the OOD file is the one the
# expansion demo script wrote before the CLI replaced it, and the rest follow the whole-group ID draw
DEMO_SHA256 = {
    "expansion_matched.md": "042192d924809b180094f95bfa0e6d75f9a63c77074521c114211d7c16997775",
    "expansion_matched.result.json": "673c651353bd0300cbc7931385430a09e3cdb647d69e8a4828d6060b4597a5e5",
    "expansion_matched_sweep.csv": "2c487671a4cf928781d19ac84634ce2b7eecd3271d9b5a6c925f542636ed0d63",
    "expansion_matched_sweep.svg": "49fda212c3c45cdaa363c23a86a60027418ab9bb42ccf1de25d73a7d6969f18b",
    "expansion_ood_only.md": "faa3a0ec985837ed7767e338aa432cc23a4932d3537bff71c86e5c757c72617f",
    "expansion_ood_only.result.json": "2b1a5a66d29a57c221a53d4cde1425761d6a83ea9e3073d8ecc9c3fa8b786d07",
    "expansion_ood_only_sweep.csv": "7ac8ad33a3d8969a520ff09134557a13437a7d0a50ac57ef71f1b43b3d6b0708",
    "expansion_ood_only_sweep.svg": "d82f9271688bc2395bfb53597dea1eb85a8379e13844f59970f76c549b2e8d82",
    "id_records.jsonl": "1fb9bf8821adec90045fde31498c1b16aff7ef50ee5530464b3c5b995ac5452a",
    "ood_records.jsonl": "72165f23f10a667c1bb154d595fd6a81adb8d3a9a6dc436c4fe4b7b520a80e06",
}


def readme_demo_blocks() -> list[list[str]]:
    """The lines of each ``bash`` block in the Demo section of ``README.md``."""
    demo = README.read_text(encoding="utf-8").split("\n## Demo\n", 1)[1].split("\n## ", 1)[0]
    return [block.split("```", 1)[0].splitlines() for block in demo.split("```bash\n")[1:]]


def run_readme_block(lines: list[str], capsys) -> str:
    """Write a block's heredocs and run its ``vacuitylab`` commands through ``main``; their stdout."""
    stdout = []
    lines = iter(lines)
    for line in lines:
        argv = shlex.split(line)
        if argv[:2] == ["cat", ">"]:
            body = itertools.takewhile(lambda text: text != "EOF", lines)
            Path(argv[2]).write_text("".join(text + "\n" for text in body), encoding="utf-8")
        else:
            assert argv[0] == "vacuitylab" and main(argv[1:]) == 0, line
            stdout.append(capsys.readouterr().out)
    return "".join(stdout)


def test_readme_demo_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    """The README demo, run from the README: the expansion demo's files and the toy demo's stdout are pinned.

    The toy demo is the run ``TRAINING_GOLDEN[("edl", 11)]`` pins: EDL, 500
    steps, seed 11, 250 points per class, separation 6.0.
    """
    monkeypatch.chdir(tmp_path)
    expansion, toy_demo = readme_demo_blocks()
    run_readme_block(expansion, capsys)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (tmp_path / "demo").iterdir()}
    assert digests == DEMO_SHA256
    stdout = run_readme_block(toy_demo, capsys)
    assert hashlib.sha256(stdout.encode()).hexdigest() == TRAINING_GOLDEN[("edl", 11)][1]


def test_readme_population_is_the_overlap_population():
    """The Demo's ``overlap.json`` holds ``overlap_population_params(seed=0)``, as the README says."""
    lines = readme_demo_blocks()[0]
    heredoc = lines[lines.index("cat > overlap.json <<'EOF'") + 1 :]
    body = "\n".join(itertools.takewhile(lambda text: text != "EOF", heredoc))
    assert json.loads(body) == dataclasses.asdict(overlap_population_params(seed=0))


@pytest.mark.parametrize(
    "command",
    [["audit"], ["metrics"], ["expand", "--mode", "ood-only", "--k-max", "3"], ["restrict", "--remove-class", "0"]],
    ids=["audit", "metrics", "expand", "restrict"],
)
@pytest.mark.parametrize("role", ["id", "ood"])
def test_group_must_match_file_role(tmp_path, capsys, command, role):
    """A record filed on the wrong side is an input error, not an OOD score or an ID-side K."""
    lines = {
        "id": ['{"id": "a", "group": "id", "classes": ["A", "B"], "evidence": [3, 1]}'],
        "ood": ['{"id": "b", "group": "ood", "classes": ["A", "B"], "evidence": [1, 1]}'],
    }
    other = "ood" if role == "id" else "id"
    lines[role].append(
        '{"id": "c", "group": "%s", "classes": ["A", "B"], "evidence": [2, 1]}' % other
    )
    paths = {}
    for group, group_lines in lines.items():
        paths[group] = tmp_path / f"{group}.jsonl"
        paths[group].write_text("\n".join(group_lines) + "\n")
    out = tmp_path / "out"
    argv = [command[0], str(paths["id"]), str(paths["ood"]), *command[1:], "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{paths[role]}:2: record 'c' is in group '{other}'" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "mode, evidence, k_target",
    [("ood-only", "invariance", 4), ("ood-only", "1e308", 3), ("matched", "1e308", 3)],
)
def test_expansion_overflow_names_record_and_k(tmp_path, capsys, mode, evidence, k_target):
    """A row that parses with a finite S can overflow once classes are appended."""
    good = tmp_path / "id.jsonl"
    good.write_text('{"id": "a", "group": "id", "classes": ["A", "B"], "evidence": [3, 1]}\n')
    bad = tmp_path / "ood.jsonl"
    bad.write_text(
        '{"id": "b", "group": "ood", "classes": ["A", "B"], "evidence": [1, 1]}\n'
        '{"id": "c", "group": "ood", "classes": ["A", "B"], "evidence": [1e308, 0]}\n'
    )
    out = tmp_path / "out"
    argv = ["expand", str(good), str(bad), "--mode", mode, "--k-max", "4", "--evidence", evidence]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*argv, "--out", str(out)]) == 1
    assert caught == []
    err = capsys.readouterr().err
    assert f"{bad}:2:" in err and "'c'" in err and f"K={k_target}" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e309", "abc"])
def test_non_finite_evidence_is_usage_error(files, capsys, value):
    """Text that is no number is refused by the parser; a non-finite number by ExpansionSpec. Both exit 1."""
    argv = ["expand", str(files["id"]), str(files["ood"]), "--mode", "ood-only", "--k-max", "6"]
    assert main([*argv, f"--evidence={value}"]) == 1
    err = capsys.readouterr().err
    if value == "abc":
        assert err == f"usage error: argument --evidence: expected a finite number or 'invariance', got {value!r}\n"
    else:
        assert err == f"error: appended_evidence must be a finite number, got {float(value)!r}\n"


@pytest.mark.parametrize(
    "k, index, message",
    [
        (3, "7", "class_index 7 out of range for K=3"),
        (3, "-1", "class_index must be >= 0, got -1"),
        (2, "0", "cannot remove a class from a 2-class record"),
    ],
    ids=["out-of-range", "negative", "two-classes"],
)
def test_unremovable_class_names_the_file(tmp_path, capsys, k, index, message):
    """A class restrict cannot remove is exit 1 with an error naming the OOD file it was to be removed from."""
    paths = []
    for group in ("id", "ood"):
        records = [make_record(f"{group}{i}", [float(i + j) for j in range(k)], group) for i in range(4)]
        paths.append(tmp_path / f"{group}{k}.jsonl")
        serialize_records(RecordBatch.from_records(records), paths[-1])
    assert main(["restrict", *map(str, paths), "--remove-class", index]) == 1
    assert capsys.readouterr().err == f"error: {paths[1]}: {message}\n"


@pytest.mark.parametrize("k", [3, 2])
def test_restrict_excluding_every_record_names_the_file(tmp_path, capsys, k):
    """Removing the class every OOD record is labelled with is exit 1 with an error naming the OOD file.

    At K=2 this refusal still comes before the 2-class one.
    """
    paths = []
    for group in ("id", "ood"):
        records = [make_record(f"{group}{i}", [float(i + j) for j in range(k)], group, gold=0) for i in range(4)]
        paths.append(tmp_path / f"{group}.jsonl")
        serialize_records(RecordBatch.from_records(records), paths[-1])
    assert main(["restrict", *map(str, paths), "--remove-class", "0", "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {paths[1]}: removing class 0 excluded every record\n")
    assert not (tmp_path / "out").exists()


@pytest.fixture
def mixed_ood(files, tmp_path):
    """An OOD file holding K=4 and K=5 records."""
    path = tmp_path / "ood_mixed.jsonl"
    path.write_text(files["ood"].read_text() + files["ood_k5"].read_text())
    return path


@pytest.mark.parametrize(
    "command, ood, message",
    [
        (
            ["metrics"],
            "ood_k5",
            "refusing to score mismatched cardinalities (metrics --allow-mismatch overrides)",
        ),
        (["metrics", "--allow-mismatch"], "mixed", "mixed cardinality inside a group cannot be scored"),
        (
            ["expand", "--mode", "ood-only", "--k-max", "8"],
            "ood_k5",
            "refusing to score mismatched cardinalities (metrics --allow-mismatch overrides)",
        ),
        (["metrics"], "mixed", "mixed cardinality inside a group cannot be scored"),
        (
            ["expand", "--mode", "ood-only", "--k-max", "8"],
            "mixed",
            "mixed cardinality inside a group cannot be scored",
        ),
    ],
    ids=["metrics", "metrics-allow-mismatch-mixed", "expand", "metrics-mixed", "expand-mixed"],
)
def test_refusal_prints_the_audit_block(files, mixed_ood, capsys, command, ood, message):
    """Every mismatch refusal prints what `audit` prints, then its reason, exits 2 and writes nothing.

    A mixed K is refused before any mismatch, with or without --allow-mismatch.
    """
    pair = [str(files["id"]), str(mixed_ood if ood == "mixed" else files[ood])]
    assert main(["audit", *pair]) == 2
    audit_block = capsys.readouterr().out
    assert audit_block.startswith("AUDIT FAIL: K_ID=4 K_OOD=")
    assert main([command[0], *pair, *command[1:], "--out", str(files["out"])]) == 2
    captured = capsys.readouterr()
    assert captured.out == audit_block + message + "\n"
    assert captured.err == ""
    assert not files["out"].exists()


@pytest.mark.parametrize("side", ["id", "ood"])
def test_restrict_refuses_a_mixed_k_group(files, mixed_ood, tmp_path, capsys, side):
    """restrict meets a mixed K with the refusal `metrics` gives it: the audit block, exit 2, no files."""
    pair = [files["id"], mixed_ood]
    if side == "id":
        extra = make_record("extra", [1.0, 2.0, 3.0, 4.0, 5.0])
        serialize_records(RecordBatch.from_records([extra]), tmp_path / "extra.jsonl")
        pair = [tmp_path / "id_mixed.jsonl", files["ood_k5"]]
        pair[0].write_text(files["id"].read_text() + (tmp_path / "extra.jsonl").read_text())
    assert main(["audit", *map(str, pair)]) == 2
    audit_block = capsys.readouterr().out
    assert main(["restrict", *map(str, pair), "--remove-class", "4", "--out", str(files["out"])]) == 2
    captured = capsys.readouterr()
    assert captured.out == audit_block + "mixed cardinality inside a group cannot be scored\n"
    assert captured.err == ""
    assert not files["out"].exists()


def _detection_result(**fields):
    row = {
        "condition": "vacuity (id-pos)", "k_id": 4, "k_ood": 4, "auroc": 0.75, "delta_auroc": 0.0,
        "aupr": 0.5, "delta_aupr": 0.0, "aupr_baseline": 0.5, "n_positive": 2, "n_negative": 2,
    }
    result = {"kind": "detection", "name": "x", "metric": "vacuity", "orientation": "id-pos", "rows": [row]}
    result.update(fields)
    return result


BAD_RESULTS = {
    "bogus-kind": (
        {"kind": "bogus"},
        "kind must be one of 'expansion', 'restriction', 'detection', got 'bogus'",
    ),
    "no-kind": (
        {k: v for k, v in _detection_result().items() if k != "kind"},
        "kind must be one of 'expansion', 'restriction', 'detection', got None",
    ),
    "number": (5, "expected a JSON object"),
    "escaping-name": (
        _detection_result(kind="expansion", name="../../escape"),
        "name must be a plain file stem, got '../../escape'",
    ),
    "dot-dot-name": (_detection_result(name=".."), "name must be a plain file stem, got '..'"),
    "empty-name": (_detection_result(name=""), "name must be a plain file stem, got ''"),
    "no-metric": (_detection_result(metric=None), "metric must be a string"),
    "empty-rows": (_detection_result(rows=[]), "rows must be a non-empty list"),
    "missing-column": (
        _detection_result(rows=[{"condition": "c"}]),
        "rows[0] must be an object with the keys " + ", ".join(
            ["condition", "k_id", "k_ood", "auroc", "delta_auroc", "aupr", "delta_aupr", "aupr_baseline",
             "n_positive", "n_negative"]
        ),
    ),
    "number-condition": (
        _detection_result(rows=[dict(_detection_result()["rows"][0], condition=1)]),
        "rows[0].condition must be a string",
    ),
    "text-auroc": (
        _detection_result(rows=[dict(_detection_result()["rows"][0], auroc="0.7")]),
        "rows[0].auroc must be a finite number, got '0.7'",
    ),
    "text-warnings": (_detection_result(warnings="x"), "warnings must be a list of objects, got 'x'"),
    "number-warning": (_detection_result(warnings=[1]), "warnings must be a list of objects, got [1]"),
    "list-warning": (_detection_result(warnings=[[]]), "warnings must be a list of objects, got [[]]"),
}


@pytest.mark.parametrize("name", BAD_RESULTS)
def test_report_rejects_malformed_result_files(tmp_path, capsys, name):
    """A result file that cannot be rendered is exit 1 naming it, and nothing is written anywhere."""
    content, message = BAD_RESULTS[name]
    results = tmp_path / "a" / "b" / "results"
    results.mkdir(parents=True)
    (results / "good.result.json").write_text(json.dumps(_detection_result(name="good")))
    path = results / "x.result.json"
    path.write_text(json.dumps(content))
    before = sorted(tmp_path.rglob("*"))
    assert main(["report", str(results)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_report_refuses_two_results_of_one_name(tmp_path, capsys):
    """Each result is written under its name, which must be its file's stem, so two files cannot share one."""
    first, second = tmp_path / "a.result.json", tmp_path / "b.result.json"
    first.write_text(json.dumps(_detection_result()))
    second.write_text(json.dumps(_detection_result(metric="max_prob")))
    before = sorted(tmp_path.rglob("*"))
    assert main(["report", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {first}: name 'x' is not the file's stem\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_report_refuses_a_name_that_is_not_the_stem_on_every_run(tmp_path, capsys):
    """A result named b in a.result.json would write b.result.json beside it; every run refuses it instead."""
    path = tmp_path / "a.result.json"
    path.write_text(json.dumps(_detection_result(name="b")))
    before = sorted(tmp_path.rglob("*"))
    for _ in range(2):
        assert main(["report", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: name 'b' is not the file's stem\n"
        assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
def test_report_is_idempotent_on_what_it_wrote(files, tmp_path, capsys, fmt):
    """report on a directory the tool wrote leaves the same files on a second run."""
    out = tmp_path / "d"
    argv = ["expand", str(files["id"]), str(files["ood"]), "--mode", "ood-only", "--k-max", "6", "--out", str(out)]
    assert main(argv) == 0
    snapshots = []
    for _ in range(2):
        assert main(["report", str(out), "--format", fmt]) == 0
        snapshots.append({p.name: p.read_bytes() for p in out.iterdir()})
    capsys.readouterr()
    assert snapshots[0] == snapshots[1]


def test_report_refuses_two_results_that_write_one_file(tmp_path, capsys):
    """An expansion result x writes x_sweep.csv, so a result named x_sweep cannot write its csv table too."""
    (tmp_path / "x.result.json").write_text(json.dumps(_detection_result(kind="expansion")))
    (tmp_path / "x_sweep.result.json").write_text(json.dumps(_detection_result(name="x_sweep")))
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / "o"
    assert main(["report", str(tmp_path), "--format", "csv", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {out / 'x_sweep.csv'}: written by both result 'x' and result 'x_sweep'\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("fmt", ["md", "csv"])
def test_report_renders_a_restriction_result_that_names_no_orientation(files, tmp_path, capsys, fmt):
    """A restriction result written before results named their orientation still renders, to the same tables."""
    new, old, out = tmp_path / "new", tmp_path / "old", tmp_path / "out"
    argv = ["restrict", str(files["id"]), str(files["ood_k5"]), "--remove-class", "4", "--format", fmt]
    assert main([*argv, "--out", str(new)]) == 0
    result = json.loads((new / "restriction.result.json").read_text())
    del result["orientation"]
    assert report.result_problem(result, "restriction") is None
    old.mkdir()
    (old / "restriction.result.json").write_text(json.dumps(result, indent=2) + "\n")
    assert main(["report", str(old), "--out", str(out), "--format", fmt]) == 0
    capsys.readouterr()
    for name in (f"restriction.{fmt}", "warnings.jsonl"):
        assert (out / name).read_bytes() == (new / name).read_bytes()


def test_report_renders_a_valid_detection_result(tmp_path, capsys):
    (tmp_path / "audit.json").write_text(json.dumps({"k_id": 4, "k_ood": 4, "verdict": "PASS"}))
    (tmp_path / "x.result.json").write_text(json.dumps(_detection_result()))
    assert main(["report", str(tmp_path), "--out", str(tmp_path / "out")]) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["x.md", "x.result.json"]


def test_huge_integer_literal_names_the_file(tmp_path, capsys):
    path = tmp_path / "x.result.json"
    path.write_text('{"kind": "detection", "n": ' + "1" * 5000 + "}")
    assert main(["report", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "digits" in err


@pytest.mark.parametrize(
    "config, drawn",
    [
        ({"scale": 1e308}, "ID draw with id_correct_shape 20.0, id_wrong_shape 0.5"),
        # every drawn value is finite (checked below), but both groups' sums S overflow: ID is named first
        ({"scale": 1e307, "k": 30, "n_id": 1, "n_ood": 1, "id_correct_shape": 1.0, "id_wrong_shape": 1.0,
          "ood_shape": 1.0}, "ID draw with id_correct_shape 1.0, id_wrong_shape 1.0"),
        ({"n_id": 5, "n_ood": 5, "id_wrong_shape": 1e308}, "ID draw with id_correct_shape 20.0, id_wrong_shape 1e+308"),
        ({"n_id": 5, "n_ood": 5, "ood_shape": 1e308}, "OOD draw with ood_shape 1e+308"),
    ],
    ids=["infinite-value", "overflowing-sum", "id-shape", "ood-shape"],
)
def test_simulate_refuses_draws_no_record_file_can_hold(tmp_path, capsys, config, drawn):
    path = tmp_path / "population.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: {drawn} and scale {config.get('scale', 1.0)!r} gives evidence "
        "whose sum S = sum(evidence + 1) is not finite\n"
    )
    assert not out.exists()
    if "k" in config:
        id_rng, ood_rng = stream_rng(0, 0), stream_rng(0, 1)
        labels = id_rng.integers(30, size=1)
        id_evidence = id_rng.gamma(1.0, 1e307, (1, 30))
        id_evidence[0, labels] = id_rng.gamma(1.0, 1e307, 1)
        for evidence in (id_evidence, ood_rng.gamma(1.0, 1e307, (1, 30))):
            assert np.isfinite(evidence).all()
            with np.errstate(over="ignore"):
                assert not np.isfinite(np.sum(evidence) + 30)


@pytest.mark.parametrize("mode", ["ood-only", "matched"])
@pytest.mark.parametrize("k_max", ["1000000000000", str(10**19)])
def test_k_max_no_memory_holds_is_input_error(files, capsys, mode, k_max):
    """Widening the groups to k_max is refused at its one allocation, before any row is scored."""
    argv = ["expand", str(files["id"]), str(files["ood"]), "--mode", mode, "--k-max", k_max]
    assert main([*argv, "--out", str(files["out"])]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: k_max {k_max} is too large") and "Traceback" not in err
    assert not files["out"].exists()


PARSER_ARGV = [["--help"], ["nosuch"], [], *[[command, "--help"] for command in BASE_ARGV]]


@pytest.mark.parametrize("argv", PARSER_ARGV, ids=lambda argv: " ".join(argv) or "none")
def test_parser_of_one_command_prints_what_the_full_parser_prints(monkeypatch, capsys, argv):
    def run():
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --help
            code = exc.code
        return code, capsys.readouterr()

    built = run()
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=(): full())
    assert built == run()


def test_parser_builds_only_the_named_command():
    with pytest.raises(cli._UsageError, match=r"invalid choice: 'audit' \(choose from '?expand'?\)$"):
        cli.build_parser(["expand"]).parse_args(["audit", "id.jsonl", "ood.jsonl"])


@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
def test_each_table_is_rendered_once(files, monkeypatch, capsys, fmt):
    """The table printed to stdout is the one written to the file."""
    calls = []

    def counting(result, fmt):
        calls.append(result["name"])
        return render(result, fmt)

    render = report.render_table
    monkeypatch.setattr(cli, "render_table", counting)
    monkeypatch.setattr(report, "render_table", counting)
    out = files["out"]
    argv = ["expand", str(files["id"]), str(files["ood"]), "--mode", "ood-only", "--k-max", "6"]
    assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
    assert calls == ["expansion_ood_only"]
    # the json table is the result mirror itself, written once
    name = "expansion_ood_only.result.json" if fmt == "json" else f"expansion_ood_only.{fmt}"
    table = (out / name).read_text(encoding="utf-8")
    assert capsys.readouterr().out == table + f"wrote {3 if fmt == 'json' else 4} files to {out}\n"


@pytest.mark.parametrize("fmt", ["md", "csv", "json"])
@pytest.mark.parametrize(
    "argv, ood, warned",
    [
        (["metrics"], "ood", False),
        (["metrics", "--allow-mismatch"], "ood_k5", True),
        (["expand", "--mode", "ood-only", "--k-max", "6"], "ood", False),
        (["restrict", "--remove-class", "0"], "ood_k5", True),
    ],
    ids=["metrics", "metrics-mismatch", "expand", "restrict"],
)
def test_wrote_n_files_counts_every_file_written(files, capsys, argv, ood, warned, fmt):
    """A scored command's count line names every file in --out, warnings.jsonl included.

    ``report`` re-emits the result's warnings: the same ``warning:`` lines and a
    byte-identical ``warnings.jsonl``, counted in its own line.
    """
    out, again = files["out"], files["out"].parent / "again"
    command, *flags = argv
    assert main([command, str(files["id"]), str(files[ood]), *flags, "--format", fmt, "--out", str(out)]) == 0
    written = sorted(p.name for p in out.iterdir())
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == f"wrote {len(written)} files to {out}"
    assert ("warnings.jsonl" in written) == warned
    assert main(["report", str(out), "--format", fmt, "--out", str(again)]) == 0
    rewritten = sorted(p.name for p in again.iterdir())
    reported = capsys.readouterr()
    assert reported.out == f"wrote {len(rewritten)} files to {again}\n"
    assert ("warnings.jsonl" in rewritten) == warned
    if warned:
        assert (again / "warnings.jsonl").read_bytes() == (out / "warnings.jsonl").read_bytes()
    warning_lines = [line for line in captured.err.splitlines() if line.startswith("warning: ")]
    assert reported.err.splitlines() == warning_lines
    assert bool(warning_lines) == warned

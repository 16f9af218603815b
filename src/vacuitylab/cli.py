"""Command-line driver.

Exit codes are a stable contract: 0 success, 1 usage or internal error,
2 cardinality-audit failure. Scoring mismatched class cardinalities is
opt-in via `metrics --allow-mismatch` and always leaves a machine-readable
warning record, because the tool exists to demonstrate that artefact, not to
commit it silently.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .dirichlet import Group
from .experiments import (
    INVARIANCE_EVIDENCE,
    MIXED,
    CardinalityMismatchError,
    ExpansionMode,
    ExpansionSpec,
    Metric,
    Orientation,
    Verdict,
    audit_cardinality,
    evaluate_groups,
    mismatch_warning,
    run_expansion_experiment,
    run_restriction_experiment,
)
from .records import RecordParseError, parse_records, serialize_records
from .report import (
    detection_result_dict,
    emit_report,
    expansion_result_dict,
    render_table,
    restriction_result_dict,
    result_problem,
    warnings_jsonl,
    write_files,
)
from .synthetic import (
    PopulationParams,
    generate_evidence_population,
    generate_toy_classification,
    require_int,
    require_number,
)
from .toy import ToyTrainConfig, TrainingDiverged, train_toy

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_AUDIT_FAIL = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Exits 1 on bad usage."""

    def error(self, message):  # exit 1 on bad usage instead of argparse's 2
        raise _UsageError(message)


def _evidence_value(text: str):
    if text == INVARIANCE_EVIDENCE:
        return INVARIANCE_EVIDENCE
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"expected a finite number or {INVARIANCE_EVIDENCE!r}, got {text!r}"
        )
    return value


def _arg(*names, **kwargs) -> tuple:
    return names, kwargs


# Options that several commands read, each declared once; build_parser lists every command's options.
_OUT = _arg("--out", metavar="DIR", help="directory for emitted files")
_FORMAT = _arg("--format", choices=["md", "csv", "json"], default="md")
_FILES = [_arg("id_file"), _arg("ood_file")]
_SCORED_FILES = [
    *_FILES,
    _arg("--metric", choices=[m.value for m in Metric], default=Metric.VACUITY.value),
    _arg("--orientation", choices=[o.value for o in Orientation], default=Orientation.ID_POSITIVE.value),
]
_CONFIG = [_arg("--config", required=True, metavar="FILE"), _arg("--seed", type=int, help="override the config seed")]


def build_parser(argv: Sequence[str] = ()) -> _Parser:
    """The CLI parser; when ``argv`` starts with a command, only that command's subparser is built.

    Every other argv (none, ``--help``, an unknown command) gets all seven,
    so the help and the invalid-choice error list them all.
    """
    parser = _Parser(prog="vacuitylab", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)
    commands = [
        ("audit", _cmd_audit, "check that K_ID equals K_OOD", _FILES),
        ("metrics", _cmd_metrics, "detection metrics on two record files", [
            *_SCORED_FILES,
            _FORMAT,
            _arg(
                "--allow-mismatch",
                action="store_true",
                help="permit scoring with K_ID != K_OOD (a warning record is always emitted)",
            ),
        ]),
        ("expand", _cmd_expand, "class-cardinality expansion sweep", [
            *_SCORED_FILES,
            _arg("--mode", choices=[m.value for m in ExpansionMode], required=True),
            _arg("--k-max", type=int, required=True, help="largest expanded class count"),
            _arg(
                "--evidence",
                type=_evidence_value,
                default=0.0,
                help=f"evidence for appended classes (number or {INVARIANCE_EVIDENCE!r})",
            ),
            _FORMAT,
        ]),
        ("restrict", _cmd_restrict, "remove one class from the OOD set", [
            *_SCORED_FILES,
            _arg("--remove-class", type=int, required=True, metavar="IDX"),
            _FORMAT,
        ]),
        ("simulate", _cmd_simulate, "generate a synthetic population", _CONFIG),
        ("train-toy", _cmd_train_toy, "train the toy evidential classifier", _CONFIG),
        ("report", _cmd_report, "re-render reports from *.result.json", [_arg("results_dir"), _FORMAT]),
    ]
    named = [c for c in commands if argv and c[0] == argv[0]]
    for name, func, summary, options in named or commands:
        command = sub.add_parser(name, help=summary)
        command.set_defaults(func=func)
        for names, kwargs in [_OUT, *options]:
            command.add_argument(*names, **kwargs)
    return parser


def _load_groups(args):
    """Both record files as batches; a record's group must match its file's role, and each file holds a record.

    A defect in either file is reported before a file without records.
    """
    batches = []
    for path, role, group in ((args.id_file, "id_file", Group.ID), (args.ood_file, "ood_file", Group.OOD)):
        batch = parse_records(path)
        wrong = np.flatnonzero(batch.ood != (group is Group.OOD))
        if len(wrong):
            row = wrong[0]
            found = Group.OOD if batch.ood[row] else Group.ID
            raise RecordParseError(
                path,
                int(batch.lines[row]),
                f"record {batch.ids[row]!r} is in group {found.value!r}, "
                f"but the {role} holds {group.value!r} records",
            )
        batches.append(batch)
    for path, batch in zip((args.id_file, args.ood_file), batches):
        if not len(batch):
            raise ValueError(f"{path}: no records")
    return batches


def _print_audit(report) -> None:
    print(f"AUDIT {report.verdict.value}: K_ID={report.k_id} K_OOD={report.k_ood}")
    if report.detail:
        print(f"  {len(report.detail)} offending records:")
        for rid, k in report.detail[:20]:
            print(f"    {rid} K={k}")
        if len(report.detail) > 20:
            print(f"    ... {len(report.detail) - 20} more")


def _write_warnings(out_dir: str | None, warnings: list[dict]) -> None:
    for w in warnings:
        print(f"warning: {json.dumps(w)}", file=sys.stderr)
    if out_dir is not None:
        write_files(out_dir, {"warnings.jsonl": warnings_jsonl(warnings)})


def _deliver(result: dict, args) -> None:
    table = render_table(result, args.format)
    print(table, end="")
    if args.out is not None:
        paths = emit_report([result], args.out, args.format, tables=[table])
        print(f"wrote {len(paths)} files to {args.out}")


def _cmd_audit(args) -> int:
    report = audit_cardinality(*_load_groups(args))
    _print_audit(report)
    if args.out is not None:
        write_files(args.out, {"audit.result.json": json.dumps(report.to_dict(), indent=2) + "\n"})
    return EXIT_OK if report.verdict is Verdict.PASS else EXIT_AUDIT_FAIL


def _scorable(id_records, ood_records, allow_mismatch: bool):
    """The audit of two groups that may be scored; a mixed K, or any mismatch not allowed, is refused."""
    report = audit_cardinality(id_records, ood_records)
    if report.verdict is not Verdict.PASS:
        if not allow_mismatch:
            raise CardinalityMismatchError(
                "refusing to score mismatched cardinalities (pass --allow-mismatch to override)", report
            )
        if MIXED in (report.k_id, report.k_ood):
            raise CardinalityMismatchError("mixed cardinality inside a group cannot be scored", report)
    return report


def _cmd_metrics(args) -> int:
    id_records, ood_records = _load_groups(args)
    report = _scorable(id_records, ood_records, args.allow_mismatch)
    if report.verdict is not Verdict.PASS:
        _write_warnings(args.out, [mismatch_warning("metrics", report.k_id, report.k_ood)])
    metric = Metric(args.metric)
    orientation = Orientation(args.orientation)
    res = evaluate_groups(id_records, ood_records, metric, orientation)
    result = detection_result_dict(
        f"metrics_{metric.value}", f"{metric.value} ({orientation.value})", res, orientation.value
    )
    _deliver(result, args)
    return EXIT_OK


def _cmd_expand(args) -> int:
    spec = ExpansionSpec(args.mode, args.k_max, args.evidence)
    groups = _load_groups(args)
    run = run_expansion_experiment(*groups, spec, Metric(args.metric), Orientation(args.orientation))
    _deliver(expansion_result_dict(f"expansion_{spec.mode.value.replace('-', '_')}", run), args)
    return EXIT_OK


def _cmd_restrict(args) -> int:
    id_records, ood_records = _load_groups(args)
    _scorable(id_records, ood_records, allow_mismatch=True)  # the as-is run is mismatched on purpose
    result = run_restriction_experiment(
        ood_records, args.remove_class, id_records, Metric(args.metric), Orientation(args.orientation)
    )
    _write_warnings(args.out, list(result.warnings))
    out = restriction_result_dict("restriction", result, args.remove_class)
    print(f"excluded {out['excluded_count']} records whose gold label was the removed class")
    _deliver(out, args)
    return EXIT_OK


def _read_json(path):
    """The JSON value in a file; a file that is not UTF-8 or not JSON is an error naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: byte {exc.start}: not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:  # e.g. an integer literal beyond the int conversion limit
        raise ValueError(f"{path}: {exc}") from None


def _configured(args, build):
    """``build(config)`` on the --config object, --seed applied; any bad value is an error naming the file."""
    config = _read_json(args.config)
    if type(config) is not dict:
        raise ValueError(f"{args.config}: expected a JSON object")
    if args.seed is not None:
        config["seed"] = args.seed
    try:
        return build(config)
    except (TypeError, ValueError, MemoryError) as exc:  # MemoryError: sizes no memory can hold
        raise ValueError(f"{args.config}: {exc}") from None


def _population(config: dict):
    params = PopulationParams(**config)
    return params, generate_evidence_population(params)


def _cmd_simulate(args) -> int:
    params, (id_records, ood_records) = _configured(args, _population)
    out = Path(args.out) if args.out is not None else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    serialize_records(id_records, out / "id_records.jsonl")
    serialize_records(ood_records, out / "ood_records.jsonl")
    print(
        f"wrote {len(id_records)} ID and {len(ood_records)} OOD records "
        f"(K={params.k}, seed={params.seed}) to {out}"
    )
    return EXIT_OK


def _trained_toy(config: dict):
    # train_toy needs at least 50 points per class
    n_per_class = require_int("n_per_class", config.pop("n_per_class", 250), 50)
    separation = float(require_number("separation", config.pop("separation", 6.0), positive=True))
    if separation > 1e150:  # past about 1.4e153 the far probes' squared distances to the RBF centres overflow
        raise ValueError(f"separation must be <= 1e+150, got {separation:g}")
    train_config = ToyTrainConfig(**config)
    points, labels = generate_toy_classification(n_per_class, separation, train_config.seed)
    result = train_toy(train_config, points, labels)
    return dict(result.summary, n_per_class=n_per_class, separation=separation)


def _cmd_train_toy(args) -> int:
    summary = _configured(args, _trained_toy)
    text = json.dumps(summary, indent=2) + "\n"
    print(text, end="")
    if args.out is not None:
        write_files(args.out, {"toy_summary.json": text})
    return EXIT_OK


def _cmd_report(args) -> int:
    results_dir = Path(args.results_dir)
    paths = sorted(results_dir.glob("*.result.json"))
    if not paths:
        print(f"no *.result.json files in {results_dir}", file=sys.stderr)
        return EXIT_USAGE
    results, name_paths = [], {}
    for path in paths:
        result = _read_json(path)
        if type(result) is dict and "kind" not in result:
            continue  # audit.result.json and other non-experiment results carry no "kind"
        problem = result_problem(result)
        if problem is not None:
            raise ValueError(f"{path}: {problem}")
        # each result is written under its name, so a second one would overwrite the first
        first = name_paths.setdefault(result["name"], path)
        if first != path:
            raise ValueError(f"{path}: name {result['name']!r} is also used by {first}")
        results.append(result)
    if not results:
        print(f"no renderable *.result.json files in {results_dir}", file=sys.stderr)
        return EXIT_USAGE
    out = args.out if args.out is not None else results_dir
    written = emit_report(results, out, args.format)
    print(f"wrote {len(written)} files to {out}")
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except CardinalityMismatchError as exc:
        _print_audit(exc.report)
        print(exc)
        return EXIT_AUDIT_FAIL
    except (ValueError, OSError, TypeError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

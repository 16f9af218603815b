"""Tables, sweep plots and warning files for experiment results.

``_runs`` alone derives a scored run's ``(mismatched K)`` mark and warning
records from its own K. The result dict is their only home (``warnings``):
``emit_report`` derives ``warnings.jsonl`` from it, so ``report`` re-emits them.

Human-readable tables round to 3 decimals; machine formats (JSON, CSV)
carry full double precision (floats serialize via repr and round-trip
exactly). Plots are hand-emitted SVG with the underlying data embedded
in a <metadata> block, so byte output is a pure function of the results:
no timestamps, no rendering libraries.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .experiments import ExpansionRun, ExpansionSpec, RestrictionResult
from .metrics import DetectionResult

TABLE_COLUMNS = (
    "condition",
    "k_id",
    "k_ood",
    "auroc",
    "delta_auroc",
    "aupr",
    "delta_aupr",
    "aupr_baseline",
    "n_positive",
    "n_negative",
)
KINDS = ("expansion", "restriction", "detection")


def _escape(text: str) -> str:
    """XML character data with ``&``, ``<`` and ``>`` as entities (as ``xml.sax.saxutils.escape`` writes it).

    Kept local: importing ``xml.sax.saxutils`` loads ``urllib.request`` and the
    network modules behind it on every CLI start.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _row(condition: str, res: DetectionResult, baseline: DetectionResult | None) -> dict:
    return {
        "condition": condition,
        "k_id": res.k_id,
        "k_ood": res.k_ood,
        "auroc": res.auroc,
        "delta_auroc": 0.0 if baseline is None else res.auroc - baseline.auroc,
        "aupr": res.aupr,
        "delta_aupr": 0.0 if baseline is None else res.aupr - baseline.aupr,
        "aupr_baseline": res.aupr_baseline,
        "n_positive": res.n_positive,
        "n_negative": res.n_negative,
    }


def _result(kind: str, name: str, metric: str, orientation: str, rows: list[dict], **fields) -> dict:
    """A result object in its fixed key order: kind, name, metric, orientation, the kind's own fields, rows.

    ``metric`` is a scored run's ``metric_name``; ``orientation`` (which side was positive) is the caller's.
    """
    return {"kind": kind, "name": name, "metric": metric, "orientation": orientation, **fields, "rows": rows}


def expansion_result_dict(name: str, run: ExpansionRun, spec: ExpansionSpec, orientation: str) -> dict:
    label = f"{spec.mode.value} expansion"
    rows = [_row("baseline", run.baseline, None), *(_row(label, res, run.baseline) for res in run.rows[1:])]
    return _result(
        "expansion", name, run.baseline.metric_name, orientation, rows,
        mode=spec.mode.value, appended_evidence=spec.appended_evidence,
    )


def _runs(*runs: tuple[str, str, DetectionResult, DetectionResult | None]) -> tuple[list[dict], list[dict]]:
    """The rows and warning records of scored runs, each given as (context, condition, result, baseline).

    A run over two K is marked `` (mismatched K)`` and gives a ``cardinality_mismatch`` record. Expansion rows
    skip this rule: each sweep row states its own K, and the OOD-only sweep is the demonstration itself.
    """
    rows, warnings = [], []
    for context, condition, res, baseline in runs:
        if res.k_id != res.k_ood:
            condition += " (mismatched K)"
            warnings.append({"type": "cardinality_mismatch", "context": context, "k_id": res.k_id, "k_ood": res.k_ood,
                             "note": "scores computed over different class cardinalities are not comparable"})
        rows.append(_row(condition, res, baseline))
    return rows, warnings


def restriction_result_dict(name: str, result: RestrictionResult, removed_class_index: int, orientation: str) -> dict:
    rows, warnings = _runs(
        ("restriction_as_is", "as-is", result.as_is, None),
        ("restriction_removed", f"removed class {removed_class_index}", result.removed, result.as_is),
    )
    return _result(
        "restriction", name, result.as_is.metric_name, orientation, rows,
        removed_class_index=removed_class_index, excluded_ids=list(result.excluded_ids),
        excluded_count=len(result.excluded_ids), warnings=warnings,
    )


def detection_result_dict(name: str, res: DetectionResult, orientation: str) -> dict:
    """One row, ``<metric> (<orientation>)``; only a run scored over two K carries ``warnings``."""
    rows, warnings = _runs(("metrics", f"{res.metric_name} ({orientation})", res, None))
    warned = {"warnings": warnings} if warnings else {}
    return _result("detection", name, res.metric_name, orientation, rows, **warned)


def result_warnings(results: list[dict]) -> list[dict]:
    """Every warning record the results carry, in result order."""
    return [w for result in results for w in result.get("warnings", ())]


def _is_number(value) -> bool:
    """A finite JSON number; a bool is not one."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def result_problem(result, stem: str) -> str | None:
    """What keeps a decoded ``<stem>.result.json`` value from being rendered, if anything.

    A renderable result is an object whose ``kind`` is one of ``KINDS``,
    whose ``name`` is a plain file stem, its file's ``stem`` (it names the files
    written, so another name would write a second file), and whose ``rows`` hold
    every table column, numbers where the tables and plots compute with them.
    ``warnings``, when present, is a list of objects.
    """
    if type(result) is not dict:
        return "expected a JSON object"
    kind, name, rows = result.get("kind"), result.get("name"), result.get("rows")
    if kind not in KINDS:
        return f"kind must be one of {', '.join(map(repr, KINDS))}, got {kind!r}"
    if type(name) is not str or name in ("", ".", "..") or Path(name).name != name or "\0" in name:
        return f"name must be a plain file stem, got {name!r}"
    if type(result.get("metric")) is not str:
        return "metric must be a string"
    if type(rows) is not list or not rows:
        return "rows must be a non-empty list"
    for i, row in enumerate(rows):
        if type(row) is not dict or not row.keys() >= set(TABLE_COLUMNS):
            return f"rows[{i}] must be an object with the keys {', '.join(TABLE_COLUMNS)}"
        if type(row["condition"]) is not str:
            return f"rows[{i}].condition must be a string"
        bad = next((c for c in TABLE_COLUMNS[1:] if not _is_number(row[c])), None)
        if bad is not None:
            return f"rows[{i}].{bad} must be a finite number, got {row[bad]!r}"
    warnings = result.get("warnings", [])
    if type(warnings) is not list or any(type(w) is not dict for w in warnings):
        return f"warnings must be a list of objects, got {warnings!r}"
    if name != stem:
        return f"name {name!r} is not the file's stem"
    return None


def _md_cell(key: str, value) -> str:
    if isinstance(value, float):
        if key.startswith("delta_"):
            return f"{value:+.3f}" if value else "0.000"
        return f"{value:.3f}"
    return str(value)


def _csv(rows: list[dict], columns: tuple[str, ...]) -> str:
    """A header line of ``columns``, then one line per row: floats by repr (round-trip exact), the rest by str."""
    lines = [",".join(columns)]
    for row in rows:
        cells = [row[c] for c in columns]
        lines.append(",".join([repr(v) if isinstance(v, float) else str(v) for v in cells]))
    return "\n".join(lines) + "\n"


def render_table(result: dict, fmt: str) -> str:
    """Render a result's rows as md (3 decimals), csv or json (full precision)."""
    rows = result["rows"]
    if fmt == "json":
        return json.dumps(result, indent=2) + "\n"
    if fmt == "csv":
        return _csv(rows, TABLE_COLUMNS)
    if fmt == "md":
        headers = ("Condition", "K_ID", "K_OOD", "AUROC", "dAUROC", "AUPR", "dAUPR", "AUPR_base")
        cols = TABLE_COLUMNS[:8]
        body = ["| " + " | ".join(headers) + " |", "|" + "|".join("---" for _ in headers) + "|"]
        for row in rows:
            body.append("| " + " | ".join(_md_cell(c, row[c]) for c in cols) + " |")
        title = f"{result['kind']}: metric={result['metric']}"
        return f"### {title}\n\n" + "\n".join(body) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def sweep_csv(result: dict) -> str:
    return _csv(result["rows"], ("k_ood", "auroc", "aupr", "aupr_baseline"))


_SVG_W, _SVG_H = 600, 380
_ML, _MR, _MT, _MB = 60, 150, 40, 50
_SERIES = (("auroc", "#1f77b4"), ("aupr", "#d62728"))
_BASELINE_STROKE = ("#888888", 1, "5,4")  # colour, width and dash of the AUPR-baseline line


def _x_pos(k: float, k_min: float, k_max: float) -> float:
    span = max(k_max - k_min, 1e-9)
    return _ML + (k - k_min) / span * (_SVG_W - _ML - _MR)


def _y_pos(v: float) -> float:
    return _MT + (1.0 - v) * (_SVG_H - _MT - _MB)


def _coord(v) -> str:
    """An SVG coordinate: a float to 2 decimals, an int as it is."""
    return f"{v:.2f}" if isinstance(v, float) else str(v)


def _line(x1, y1, x2, y2, stroke: str, width: int, dash: str = "") -> str:
    dasharray = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<line x1="{_coord(x1)}" y1="{_coord(y1)}" x2="{_coord(x2)}" y2="{_coord(y2)}" '
        f'stroke="{stroke}" stroke-width="{width}"{dasharray}/>'
    )


def _text(x, y, size: int, content: str, anchor: str = "") -> str:
    """A sans-serif ``<text>`` element; ``content`` is written as given, already escaped."""
    text_anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (
        f'<text x="{_coord(x)}" y="{_coord(y)}" font-family="sans-serif" font-size="{size}"{text_anchor}>'
        f"{content}</text>"
    )


def _legend(slot: int, label: str, stroke: str, width: int, dash: str = "") -> list[str]:
    """The legend entry in row ``slot`` of the right margin: a sample of the line, then its label."""
    x, y = _SVG_W - _MR + 16, _MT + 10 + 20 * slot
    return [_line(x, y, x + 22, y, stroke, width, dash), _text(x + 28, y + 4, 12, label)]


def sweep_svg(result: dict) -> str:
    """AUROC-vs-K and AUPR-vs-K curves as a standalone deterministic SVG."""
    rows = result["rows"]
    ks = [row["k_ood"] for row in rows]
    k_min, k_max = min(ks), max(ks)
    title = f"{result.get('mode', result['kind'])} sweep - metric: {result['metric']}"
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        "<metadata>",
        _escape(sweep_csv(result)).rstrip(),
        "</metadata>",
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        _text(_ML, 24, 14, _escape(title)),
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = _y_pos(tick)
        parts.append(_line(_ML, y, _SVG_W - _MR, y, "#dddddd", 1))
        parts.append(_text(_ML - 8, y + 4, 11, f"{tick:.2f}", "end"))
    y_axis = _y_pos(0.0)
    for k in sorted(set(ks)):
        x = _x_pos(k, k_min, k_max)
        parts.append(_line(x, y_axis, x, y_axis + 5, "#333333", 1))
        parts.append(_text(x, y_axis + 20, 11, str(k), "middle"))
    parts.append(_text((_ML + _SVG_W - _MR) / 2, _SVG_H - 12, 12, "evaluated OOD class count K", "middle"))
    y_base = _y_pos(rows[0]["aupr_baseline"])
    parts.append(_line(_ML, y_base, _SVG_W - _MR, y_base, *_BASELINE_STROKE))
    for slot, (name, color) in enumerate(_SERIES):
        points = [(_x_pos(row["k_ood"], k_min, k_max), _y_pos(row[name])) for row in rows]
        polyline = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        parts.append(f'<polyline points="{polyline}" fill="none" stroke="{color}" stroke-width="2"/>')
        parts.extend(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3.5" fill="{color}"/>' for x, y in points)
        parts.extend(_legend(slot, name.upper(), color, 2))
    parts.extend(_legend(len(_SERIES), "AUPR baseline", *_BASELINE_STROKE))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def warnings_jsonl(warnings: list[dict]) -> str:
    return "".join(json.dumps(w) + "\n" for w in warnings)


def write_files(out_dir, files: dict[str, str]) -> list[Path]:
    """Write each file name's UTF-8 text into ``out_dir``, created if missing; the paths in order."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    return [out / name for name in files]


def emit_report(results: list[dict], out_dir, fmt: str = "md", tables: list[str] | None = None) -> list[Path]:
    """Write one table per result, a plot + CSV per expansion sweep, and ``warnings.jsonl`` if warned.

    Always writes the machine mirror ``<name>.result.json``, the table itself
    when ``fmt`` is json. ``tables``, when given, holds each result's table as
    ``render_table`` already rendered it in ``fmt``. ``warnings.jsonl`` holds the
    records the results carry under ``warnings``, one JSON line each in result order,
    so re-emitting a result file re-emits its warnings. Refuses two results that would
    write one file before writing any; returns every path written. Byte output is deterministic.
    """
    if tables is None:
        tables = [render_table(result, fmt) for result in results]
    files, writers = {}, {}
    for result, table in zip(results, tables):
        name = result["name"]
        own = {f"{name}.result.json": table if fmt == "json" else json.dumps(result, indent=2) + "\n"}
        if fmt != "json":
            own[f"{name}.{fmt}"] = table
        if result["kind"] == "expansion":
            own[f"{name}_sweep.svg"] = sweep_svg(result)
            own[f"{name}_sweep.csv"] = sweep_csv(result)
        for file in own:
            first = writers.setdefault(file, name)
            if first != name:
                raise ValueError(f"{Path(out_dir) / file}: written by both result {first!r} and result {name!r}")
        files.update(own)
    warnings = result_warnings(results)
    if warnings:
        files["warnings.jsonl"] = warnings_jsonl(warnings)
    return write_files(out_dir, files)

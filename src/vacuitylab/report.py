"""Tables, sweep plots and warning files for experiment results.

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

from .experiments import ExpansionRun, RestrictionResult
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


def expansion_result_dict(name: str, run: ExpansionRun) -> dict:
    rows = [_row("baseline", run.baseline, None)]
    label = f"{run.mode.value} expansion"
    for res in run.rows[1:]:
        rows.append(_row(label, res, run.baseline))
    return {
        "kind": "expansion",
        "name": name,
        "metric": run.metric.value,
        "orientation": run.orientation.value,
        "mode": run.mode.value,
        "appended_evidence": run.appended_evidence,
        "rows": rows,
    }


def restriction_result_dict(
    name: str, result: RestrictionResult, removed_class_index: int
) -> dict:
    rows = [
        _row("as-is (mismatched K)", result.as_is, None),
        _row(f"removed class {removed_class_index}", result.removed, result.as_is),
    ]
    return {
        "kind": "restriction",
        "name": name,
        "metric": result.as_is.metric_name,
        "removed_class_index": removed_class_index,
        "excluded_ids": list(result.excluded_ids),
        "excluded_count": len(result.excluded_ids),
        "warnings": list(result.warnings),
        "rows": rows,
    }


def detection_result_dict(name: str, condition: str, res: DetectionResult, orientation: str) -> dict:
    return {
        "kind": "detection",
        "name": name,
        "metric": res.metric_name,
        "orientation": orientation,
        "rows": [_row(condition, res, None)],
    }


def _is_number(value) -> bool:
    """A finite JSON number; a bool is not one."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def result_problem(result) -> str | None:
    """What keeps a decoded ``*.result.json`` value from being rendered, if anything.

    A renderable result is an object whose ``kind`` is one of ``KINDS``,
    whose ``name`` is a plain file stem (it names the files written) and
    whose ``rows`` hold every table column, numbers where the tables and
    plots compute with them.
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
    return None


def _fmt_cell(key: str, value, human: bool) -> str:
    if isinstance(value, float):
        if not human:
            return repr(value)
        if key.startswith("delta_"):
            return f"{value:+.3f}" if value else "0.000"
        return f"{value:.3f}"
    return str(value)


def render_table(result: dict, fmt: str) -> str:
    """Render a result's rows as md (3 decimals), csv or json (full precision)."""
    rows = result["rows"]
    if fmt == "json":
        return json.dumps(result, indent=2) + "\n"
    if fmt == "csv":
        lines = [",".join(TABLE_COLUMNS)]
        for row in rows:
            lines.append(",".join(_fmt_cell(c, row[c], human=False) for c in TABLE_COLUMNS))
        return "\n".join(lines) + "\n"
    if fmt == "md":
        headers = ("Condition", "K_ID", "K_OOD", "AUROC", "dAUROC", "AUPR", "dAUPR", "AUPR_base")
        cols = TABLE_COLUMNS[:8]
        body = [
            "| " + " | ".join(headers) + " |",
            "|" + "|".join("---" for _ in headers) + "|",
        ]
        for row in rows:
            body.append(
                "| " + " | ".join(_fmt_cell(c, row[c], human=True) for c in cols) + " |"
            )
        title = f"{result['kind']}: metric={result['metric']}"
        return f"### {title}\n\n" + "\n".join(body) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def sweep_csv(result: dict) -> str:
    lines = ["k_ood,auroc,aupr,aupr_baseline"]
    for row in result["rows"]:
        lines.append(
            f"{row['k_ood']},{row['auroc']!r},{row['aupr']!r},{row['aupr_baseline']!r}"
        )
    return "\n".join(lines) + "\n"


_SVG_W, _SVG_H = 600, 380
_ML, _MR, _MT, _MB = 60, 150, 40, 50
_SERIES = (("auroc", "#1f77b4"), ("aupr", "#d62728"))


def _x_pos(k: float, k_min: float, k_max: float) -> float:
    span = max(k_max - k_min, 1e-9)
    return _ML + (k - k_min) / span * (_SVG_W - _ML - _MR)


def _y_pos(v: float) -> float:
    return _MT + (1.0 - v) * (_SVG_H - _MT - _MB)


def sweep_svg(result: dict) -> str:
    """AUROC-vs-K and AUPR-vs-K curves as a standalone deterministic SVG."""
    rows = result["rows"]
    ks = [row["k_ood"] for row in rows]
    k_min, k_max = min(ks), max(ks)
    title = (
        f"{result.get('mode', result['kind'])} sweep - metric: {result['metric']}"
    )
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        "<metadata>",
        _escape(sweep_csv(result)).rstrip(),
        "</metadata>",
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_ML}" y="24" font-family="sans-serif" font-size="14">{_escape(title)}</text>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = _y_pos(tick)
        parts.append(
            f'<line x1="{_ML}" y1="{y:.2f}" x2="{_SVG_W - _MR}" y2="{y:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{y + 4:.2f}" font-family="sans-serif" font-size="11" '
            f'text-anchor="end">{tick:.2f}</text>'
        )
    for k in sorted(set(ks)):
        x = _x_pos(k, k_min, k_max)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_y_pos(0.0):.2f}" x2="{x:.2f}" y2="{_y_pos(0.0) + 5:.2f}" '
            'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_y_pos(0.0) + 20:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{k}</text>'
        )
    parts.append(
        f'<text x="{(_ML + _SVG_W - _MR) / 2:.2f}" y="{_SVG_H - 12}" font-family="sans-serif" '
        'font-size="12" text-anchor="middle">evaluated OOD class count K</text>'
    )
    base = rows[0]["aupr_baseline"]
    y_base = _y_pos(base)
    parts.append(
        f'<line x1="{_ML}" y1="{y_base:.2f}" x2="{_SVG_W - _MR}" y2="{y_base:.2f}" '
        'stroke="#888888" stroke-width="1" stroke-dasharray="5,4"/>'
    )
    legend_y = _MT + 10
    for name, color in _SERIES:
        points = " ".join(
            f"{_x_pos(row['k_ood'], k_min, k_max):.2f},{_y_pos(row[name]):.2f}" for row in rows
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for row in rows:
            parts.append(
                f'<circle cx="{_x_pos(row["k_ood"], k_min, k_max):.2f}" '
                f'cy="{_y_pos(row[name]):.2f}" r="3.5" fill="{color}"/>'
            )
        lx = _SVG_W - _MR + 16
        parts.append(
            f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 22}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{legend_y + 4}" font-family="sans-serif" '
            f'font-size="12">{name.upper()}</text>'
        )
        legend_y += 20
    lx = _SVG_W - _MR + 16
    parts.append(
        f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 22}" y2="{legend_y}" '
        'stroke="#888888" stroke-width="1" stroke-dasharray="5,4"/>'
    )
    parts.append(
        f'<text x="{lx + 28}" y="{legend_y + 4}" font-family="sans-serif" '
        'font-size="12">AUPR baseline</text>'
    )
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
    """Write one table per result plus a plot + CSV per expansion sweep.

    Always writes the machine mirror ``<name>.result.json``; byte output
    is deterministic for identical inputs. ``tables``, when given, holds
    each result's table as ``render_table`` already rendered it in ``fmt``.
    """
    if not results:
        raise ValueError("no results to report")
    if tables is None:
        tables = [render_table(result, fmt) for result in results]
    files = {}
    for result, table in zip(results, tables):
        name = result["name"]
        files[f"{name}.result.json"] = json.dumps(result, indent=2) + "\n"
        files[f"{name}.{fmt}"] = table
        if result["kind"] == "expansion":
            files[f"{name}_sweep.svg"] = sweep_svg(result)
            files[f"{name}_sweep.csv"] = sweep_csv(result)
    return write_files(out_dir, files)

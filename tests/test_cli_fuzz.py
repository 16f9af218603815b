"""CLI fuzz: arbitrary JSON-ish record lines and corrupted bytes never crash the CLI.

Every outcome exits 0, 1 or 2, nothing escapes ``main`` as an exception
(which would reach stderr as a traceback), and a file that is not a valid
record file for its side is exit 1 with an error naming ``path:line``.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from vacuitylab.cli import main
from vacuitylab.records import RecordParseError, parse_records

NAMES = ["A", "B", "C", "D", "E"]
KEYS = ["id", "group", "classes", "evidence", "logits", "label"]
NUMBERS = (
    st.integers(-3, 40)
    | st.floats(-5.0, 1e3, allow_nan=False)
    | st.sampled_from([True, False, None, 1e308, 1e400, -1e400, float("nan"), 10**400])
)
JSON_ISH = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)


@st.composite
def record_objects(draw, role):
    """Mostly valid records for one side, with the odd wrong group, bad value or missing key."""
    k = draw(st.integers(2, 5))
    n_values = k if draw(st.integers(0, 5)) else draw(st.integers(0, 6))  # sometimes ragged
    obj = {
        "id": draw(st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "h", 7])),
        "group": role if draw(st.integers(0, 7)) else draw(st.sampled_from(["id", "ood", "x", 1])),
        "classes": NAMES[:k],
        draw(st.sampled_from(["evidence", "logits"])): (
            draw(st.lists(st.integers(0, 9) | st.floats(0.0, 50.0), min_size=n_values, max_size=n_values))
            if draw(st.integers(0, 5))
            else draw(st.lists(NUMBERS, min_size=n_values, max_size=n_values))
        ),
    }
    if draw(st.booleans()):
        obj["label"] = draw(st.integers(-1, k) | st.sampled_from([True, "A", 1.0]))
    if not draw(st.integers(0, 9)):
        del obj[draw(st.sampled_from(list(obj)))]
    return json.dumps(obj)


RAW_LINES = st.sampled_from(
    [
        "",
        "   ",
        "[1, 2]",
        "3",
        '"text"',
        "null",
        "{broken",
        '{"id": "r", "group": "ood", "classes": ["A", "B"], "evidence": [1e308, 1e308]}',
        '{"id": "s", "group": "ood", "classes": ["A", "B"], "logits": [NaN, Infinity]}',
        '{"id": "t", "group": "id", "classes": ["A", "B"], "evidence": [1' + "0" * 400 + ", 1]}",
        '{"id": "u", "group": "id", "classes": ["A", "B"], "evidence": [1, 2], "extra": [[]]}',
        "[" * 5000 + "]" * 5000,
    ]
)


@st.composite
def valid_file(draw, role):
    """Well-formed records with unique ids; K is one per file unless ``mixed`` is drawn.

    Now and then one record carries the other side's group.
    """
    k = draw(st.integers(2, 5))
    mixed = not draw(st.integers(0, 4))
    other = "ood" if role == "id" else "id"
    out = []
    for i in range(draw(st.integers(1, 6))):
        k_row = draw(st.integers(2, 5)) if mixed else k
        group = role if draw(st.integers(0, 11)) else other
        obj = {"id": f"{role}{i}", "group": group, "classes": NAMES[:k_row]}
        value = st.integers(0, 9) | st.floats(0.0, 50.0)
        obj[draw(st.sampled_from(["evidence", "logits"]))] = draw(
            st.lists(value, min_size=k_row, max_size=k_row)
        )
        if draw(st.booleans()):
            obj["label"] = draw(st.integers(0, k_row - 1))
        out.append(json.dumps(obj))
    return out


def lines(role):
    return valid_file(role) | st.lists(
        st.one_of(
            record_objects(role),
            record_objects(role),
            RAW_LINES,
            st.dictionaries(st.sampled_from(KEYS), JSON_ISH, max_size=6).map(json.dumps),
        ),
        max_size=6,
    )


COMMANDS = [
    ["audit"],
    ["metrics"],
    ["metrics", "--allow-mismatch", "--metric", "entropy"],
    ["expand", "--mode", "ood-only", "--k-max", "6", "--evidence", "invariance"],
    ["restrict", "--remove-class", "1", "--orientation", "ood-pos"],
]


def input_error(paths: list[Path]) -> Path | None:
    """The file whose ``path:line`` the CLI must name, if any.

    Both files are parsed first, so a defect in either comes before any gate
    rule. The pair gate then takes the sides in turn: an empty side stops it
    (an error with no line), and a row whose group is not its side's names it.
    """
    batches = []
    for path in paths:
        try:
            batches.append(parse_records(path))
        except RecordParseError:
            return path
    for path, batch, ood in zip(paths, batches, (False, True)):
        if not len(batch):
            return None
        if (batch.ood != ood).any():
            return path
    return None


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(id_lines=lines("id"), ood_lines=lines("ood"))
# an empty ID file stops the pair gate before it reaches the OOD file's wrong-group row
@example(id_lines=[], ood_lines=['{"id": "a", "group": "id", "classes": ["A", "B"], "evidence": [1, 1]}'])
def test_cli_survives_arbitrary_record_lines(id_lines, ood_lines):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "id.jsonl", Path(tmp) / "ood.jsonl"]
        for path, content in zip(paths, (id_lines, ood_lines)):
            path.write_text("".join(line + "\n" for line in content), encoding="utf-8")
        bad = input_error(paths)
        for command in COMMANDS:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), np.errstate(all="ignore"):
                code = main([command[0], *map(str, paths), *command[1:], "--out", str(Path(tmp) / "out")])
            err = stderr.getvalue()
            assert code in (0, 1, 2), (command, code, err)
            assert "Traceback" not in err
            if bad is not None:
                assert code == 1, (command, code, err)
                assert re.search(re.escape(str(bad)) + r":\d+: ", err), (command, err)


# bytes no UTF-8 text holds, a NUL, and multi-byte characters cut short
CORRUPTIONS = st.one_of(
    st.sampled_from([b"\xff", b"\xfe", b"\x80", b"\xc0\xaf", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80"]),
    st.just(b"\x00"),
    st.sampled_from(["\u00e9", "\u20ac", "\U0001f600"]).map(lambda c: c.encode("utf-8")[:-1]),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(id_lines=valid_file("id"), ood_lines=valid_file("ood"), side=st.sampled_from([0, 1]), data=st.data())
def test_cli_survives_byte_corruptions(id_lines, ood_lines, side, data):
    """One line of an otherwise valid pair of files gets bytes that make it unreadable: exit 1 naming it."""
    roles = ("id", "ood")
    files = [[json.dumps(dict(json.loads(line), group=role)).encode() for line in lines]
             for lines, role in ((id_lines, roles[0]), (ood_lines, roles[1]))]
    row = data.draw(st.integers(0, len(files[side]) - 1))
    line = files[side][row]
    at = data.draw(st.integers(0, len(line)))
    files[side][row] = line[:at] + data.draw(CORRUPTIONS) + line[at:]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "id.jsonl", Path(tmp) / "ood.jsonl"]
        for path, content in zip(paths, files):
            path.write_bytes(b"".join(line + b"\n" for line in content))
        for command in COMMANDS:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([command[0], *map(str, paths), *command[1:], "--out", str(Path(tmp) / "out")])
            err = stderr.getvalue()
            assert code == 1, (command, code, err)
            assert "Traceback" not in err
            assert err.startswith(f"error: {paths[side]}:{row + 1}: "), (command, err)


JUNK = st.sampled_from([None, True, False, "3", [], {}, 2.0, 60.9, float("nan"), float("inf"), -float("inf")])
# valid values three times in four, so that a fair share of configs runs
NUMBER = st.one_of(
    st.floats(0.01, 5.0),
    st.integers(1, 5),
    st.floats(-2.0, 50.0),
    st.sampled_from([1e400, 10**400, 1e-300]) | JUNK,
)


def sized(lower, upper):
    return st.one_of(st.integers(lower, upper), st.integers(lower, upper), st.integers(-2, upper), JUNK)


# (required, optional) fields; the sizes are always drawn, so no run falls back to the
# default 500 records or 500 steps
CONFIGS = {
    "simulate": (
        {"n_id": sized(1, 200), "n_ood": sized(1, 200)},
        {
            "k": sized(2, 30),
            "seed": sized(0, 2**64),
            "id_correct_shape": NUMBER,
            "id_wrong_shape": NUMBER,
            "ood_shape": NUMBER,
            "scale": NUMBER,
            "bogus": JUNK,
        },
    ),
    "train-toy": (
        {"steps": sized(0, 20), "n_per_class": sized(50, 100) | st.integers(48, 52)},
        {
            "mode": st.sampled_from(["edl", "ib-edl", "x", 1]),
            "learning_rate": NUMBER,
            "lambda_weight": NUMBER,
            "lambda_ramp_steps": sized(1, 30),
            "beta_weight": NUMBER,
            "seed": sized(0, 2**64),
            "sigma_mult": NUMBER,
            "rbf_grid": sized(2, 6),
            "separation": NUMBER,
        },
    ),
}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), command=st.sampled_from(sorted(CONFIGS)))
def test_cli_survives_arbitrary_configs(data, command):
    """Bounded config values: valid ones run, invalid ones are an input error."""
    required, optional = CONFIGS[command]
    config = data.draw(st.fixed_dictionaries(required, optional=optional))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), np.errstate(all="ignore"):
            code = main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
        err = stderr.getvalue()
        assert code in (0, 1), (config, code, err)
        assert (code == 0) == (err == ""), (config, err)
        if code == 1:
            assert err.startswith("error: "), (config, err)


KINDS = ["expansion", "restriction", "detection"]
COLUMNS = [
    "condition", "k_id", "k_ood", "auroc", "delta_auroc", "aupr", "delta_aupr", "aupr_baseline",
    "n_positive", "n_negative",
]


@st.composite
def result_rows(draw):
    """A valid table row most of the time; otherwise one column is replaced by arbitrary JSON or dropped."""
    row = {"condition": draw(st.text(max_size=3))}
    row.update((column, draw(st.integers(0, 9) | st.floats(0.0, 1.0))) for column in COLUMNS[1:])
    defect = draw(st.integers(0, 9))
    if defect == 1:
        row[draw(st.sampled_from(COLUMNS))] = draw(JSON_ISH)
    elif defect == 2:
        del row[draw(st.sampled_from(COLUMNS))]
    return row


@st.composite
def mostly(draw, valid):
    """A value of ``valid`` most of the time, arbitrary JSON otherwise."""
    return draw(valid if draw(st.integers(0, 3)) else JSON_ISH)


@st.composite
def result_objects(draw):
    """A result with a valid kind most of the time; name, metric and rows valid or defective."""
    obj = {
        "kind": draw(mostly(st.sampled_from(KINDS))),
        # the escaping names stay inside the temporary directory the test owns
        "name": draw(
            st.sampled_from(["r0", "r1", "../escape", "../../escape", "..", ".", "", "a/b", 3, None])
        ),
        "metric": draw(mostly(st.sampled_from(["vacuity", "mp"]))),
        "rows": draw(mostly(st.lists(result_rows(), max_size=3))),
    }
    if not draw(st.integers(0, 9)):
        del obj[draw(st.sampled_from(list(obj)))]
    return obj


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    results=st.lists(mostly(result_objects()), max_size=3),
    fmt=st.sampled_from(["md", "csv", "json"]),
)
def test_report_survives_arbitrary_result_files(results, fmt):
    """At most three result files of arbitrary JSON: exit 0 or 1, and nothing written outside --out."""
    with tempfile.TemporaryDirectory() as tmp:
        results_dir = Path(tmp) / "a" / "b" / "results"
        results_dir.mkdir(parents=True)
        for i, value in enumerate(results):
            (results_dir / f"{i}.result.json").write_text(json.dumps(value), encoding="utf-8")
        out = Path(tmp) / "a" / "b" / "out"
        before = {p: p.read_bytes() for p in Path(tmp).rglob("*") if p.is_file()}
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["report", str(results_dir), "--out", str(out), "--format", fmt])
        err = stderr.getvalue()
        assert code in (0, 1), (results, code, err)
        assert "Traceback" not in err
        after = {p: p.read_bytes() for p in Path(tmp).rglob("*") if p.is_file() and out not in p.parents}
        assert after == before, (results, sorted(set(after) - set(before)))

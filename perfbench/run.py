"""vacuitylab benchmark: runs one workload through ``vacuitylab.cli.main`` in-process.

    python3 perfbench/run.py --workload {sweep,ingest,train} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
Set-up (package import, input generation, one warm-up op) is repeated
three times and reported as a median. Then ops run back to back for
``--seconds``; every op is checked against the oracle. Every CLI command
and every set-up is timed between two passes of the reference kernel in
``reference.py``, and the end-to-end times are reported in its nominal
seconds, which divide out the machine's drifting speed; wall times are
printed beside them. ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` spends half the time untraced and half with
spans installed, and reports the per-layer metrics. The last line of stdout
is the JSON result; a record of the run (environment, input hashes, op
times, kernel times, spans) goes to ``.perfbench/``.
"""

from __future__ import annotations

import os

# One thread per run: set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
from reference import NOMINAL_S, NominalClock
from workloads import WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RECORDS = ROOT / ".perfbench"
SETUP_REPEATS = 3
MIN_OPS = 5


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


def run_op(cli, workload, clock, tracer=None) -> tuple[float, float, list | None, str | None]:
    """Run one op; returns (wall s, nominal s, outcomes, traceback if it raised).

    Each command is timed on its own, so the reference kernel runs between
    commands and the op's time is the sum of the commands' times.
    """
    workload.reset()
    gc.collect()
    if tracer is not None:
        tracer.begin_op()
    wall = nominal = 0.0
    outcomes, error = [], None
    try:
        for argv, _ in workload.script():
            out, err = io.StringIO(), io.StringIO()
            clock.start()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main(argv)
            finally:
                command_wall, command_nominal = clock.stop()
                wall += command_wall
                nominal += command_nominal
            outcomes.append(Outcome(argv, code, out.getvalue(), err.getvalue()))
    except Exception:
        outcomes, error = None, traceback.format_exc()
    if tracer is not None:
        tracer.end_op()
    return wall, nominal, outcomes, error


def check(workload, outcomes, error) -> list[str]:
    if error is not None:
        return [f"op raised:\n{error}"]
    try:
        return workload.check(outcomes)
    except Exception:
        return [f"check raised:\n{traceback.format_exc()}"]


def set_up(workload, clock):
    """Fresh import of vacuitylab, input generation and one warm-up op, timed.

    Returns (cli module, wall s, nominal s, problems of the warm-up op).
    """
    for name in [n for n in sys.modules if n == "vacuitylab" or n.startswith("vacuitylab.")]:
        del sys.modules[name]
    clock.start()
    cli = importlib.import_module("vacuitylab.cli")
    workload.prepare()
    wall, nominal = clock.stop()
    op_wall, op_nominal, outcomes, error = run_op(cli, workload, clock)
    workload.expect()
    return cli, wall + op_wall, nominal + op_nominal, check(workload, outcomes, error)


def measure(cli, workload, clock, seconds: float, tracer=None):
    """Ops back to back for ``seconds``; returns (wall s, nominal s, failures)."""
    walls, nominals, failures = [], [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(walls) < MIN_OPS:
        wall, nominal, outcomes, error = run_op(cli, workload, clock, tracer)
        walls.append(wall)
        nominals.append(nominal)
        problems = check(workload, outcomes, error)
        if problems:
            failures.append(problems)
    return walls, nominals, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "vacuitylab" / "cli.py").is_file():
        print(f"perfbench: no vacuitylab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))

    RECORDS.mkdir(exist_ok=True)
    work = RECORDS / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    workload = WORKLOADS[args.workload](work, args.seed)
    try:
        clock = NominalClock()
        setup_walls, setups, setup_failures = [], [], []
        for _ in range(SETUP_REPEATS):
            cli, wall, nominal, problems = set_up(workload, clock)
            setup_walls.append(wall)
            setups.append(nominal)
            setup_failures += problems
        if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"perfbench: imported vacuitylab from {cli.__file__}, not from {SRC}", file=sys.stderr)
            return 2

        if args.trace:
            walls, times, failures = measure(cli, workload, clock, args.seconds / 2)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced_walls, traced, traced_failures = measure(
                    cli, workload, clock, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            per_op = tracer.per_op()
            values = spans.layer_metrics(per_op, statistics.median(times), statistics.median(traced))
            attempted, failed = len(times) + len(traced), len(failures) + len(traced_failures)
            failures += traced_failures
            wanted = spec["per_layer"]
        else:
            walls, times, failures = measure(cli, workload, clock, args.seconds)
            attempted, failed = len(times), len(failures)
            values = {
                "setup_s": statistics.median(setups),
                "op_p50_nominal_s": statistics.median(times),
                "items_per_nominal_s": workload.items_per_op * len(times) / sum(times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "success_rate": (attempted - failed) / attempted,
            }
            wanted = spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": environment(),
            "inputs": workload.inputs.describe(),
            "item": workload.item,
            "items_per_op": workload.items_per_op,
            "nominal_s": NOMINAL_S,
            "setup_s": setups,
            "setup_wall_s": setup_walls,
            "op_s": times,
            "op_wall_s": walls,
            "kernel_s": clock.kernels,
            "failures": setup_failures + [p for f in failures for p in f],
            "metrics": metrics,
        }
        if args.trace:
            record.update(traced_op_s=traced, traced_op_wall_s=traced_walls, layers_per_op=per_op, **tracer.dump())
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (RECORDS / name).write_text(json.dumps(record) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in record["failures"]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    env = record["environment"]
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, commit {env['commit']}")
    for f in record["inputs"]:
        ties = "" if f["tie_share"] is None else f", tie share {f['tie_share']:.4f}"
        print(f"# input {f['file']}: {f['records']} records{ties}, sha256 {f['sha256']}")
    print(f"# {attempted} ops timed, {failed} failed; {SETUP_REPEATS} set-ups with one warm-up op each; "
          f"{workload.items_per_op} items ({workload.item}) per op")
    print(f"# wall clock: set-up median {statistics.median(setup_walls):.4g} s, op median "
          f"{statistics.median(walls):.4g} s; reference kernel median "
          f"{statistics.median(clock.kernels) * 1e3:.4g} ms (it takes {NOMINAL_S * 1e3:g} ms in a nominal second)")
    for key, m in metrics.items():
        print(f"# {key} = {m['value']:.6g} {m['unit']}")
    print(f"# run record: {RECORDS / name}")
    result = {
        "correct": not record["failures"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans and counters around vacuitylab's public functions, for the traced run.

``Tracer.install`` replaces each function listed in ``LAYERS`` at every
module attribute that binds it (so ``from``-imports in ``cli`` and
``experiments`` are covered too) and ``uninstall`` puts the originals back;
untraced runs never see a wrapper. Spans are kept in memory as
(id, parent, name, start, end) and written once the run ends.

Functions called once per record (``score_record``, ``append_classes``,
``remove_class``) get no span of their own: their call count and summed
time are aggregated under the enclosing span. Bookkeeping done after a
call returns (counters, tie counting) is timed and charged to nobody, so
self times stay close to the untraced ones.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "vacuitylab"


def _counter(name: str, fn):
    return lambda args, result: {name: fn(args, result)}


def _tie_counts(args, result):
    scores = np.fromiter((s.score for s in args[0]), dtype=float, count=len(args[0]))
    _, counts = np.unique(scores, return_counts=True)
    return {"metrics.samples": len(scores), "metrics.tied": int(counts[counts > 1].sum())}


# module -> {function: (layer, counter hook)}; a hook maps a call's
# (positional args, result) to amounts added to named per-op counters.
LAYERS = {
    "cli": {"main": ("cli", None)},
    "records": {
        "parse_records": ("records.parse", _counter("records.parse.lines", lambda a, r: len(r))),
        "serialize_records": (
            "records.serialize", _counter("records.serialize.lines", lambda a, r: len(a[0]))),
    },
    "synthetic": {
        "generate_evidence_population": (
            "synthetic.generate", _counter("synthetic.records", lambda a, r: len(r[0]) + len(r[1]))),
        "generate_toy_classification": ("synthetic.generate", None),
    },
    "experiments": {
        "audit_cardinality": (
            "experiments.audit", _counter("experiments.audit.records", lambda a, r: len(a[0]) + len(a[1]))),
        "score_group": ("experiments.score", None),
        "run_expansion_experiment": ("experiments.expand", None),
        "run_restriction_experiment": ("experiments.restrict", None),
    },
    "metrics": {
        "evaluate_detection": ("metrics.evaluate", None),
        "auroc": ("metrics.auroc", _tie_counts),
        "aupr": ("metrics.aupr", None),
    },
    "report": {
        "emit_report": (
            "report.emit", _counter("report.bytes", lambda a, r: sum(p.stat().st_size for p in r))),
        **{name: ("report.emit", None) for name in (
            "render_table", "expansion_result_dict", "restriction_result_dict",
            "detection_result_dict", "sweep_csv", "sweep_svg", "warnings_jsonl",
        )},
    },
    "toy": {
        "train_toy": ("toy.train", None),
        "total_loss": ("toy.loss", None),
        "loss_gradient": ("toy.grad", _counter("toy.steps", lambda a, r: 1)),
    },
}

# Called once per record: aggregated under the caller's span.
PER_RECORD = {
    "experiments": {"score_record": "experiments.score"},
    "dirichlet": {"append_classes": "dirichlet.append", "remove_class": "dirichlet.remove"},
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.aggregated: dict = defaultdict(lambda: [0, 0.0])  # (parent, layer) -> [calls, s]
        self.counters: dict = defaultdict(int)  # (op root, counter) -> value
        self.bookkeeping: dict = defaultdict(float)  # span -> tracer time spent inside it
        self.scored: set = set()  # (record, K) pairs scored in the current CLI command
        self.op_root: int | None = None
        self._patched: list = []

    # -- spans -------------------------------------------------------------

    def _open(self) -> tuple[int, int | None]:
        parent = self.stack[-1] if self.stack else None
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent, name: str, start: float, end: float) -> None:
        self.stack.pop()
        self.spans[sid] = (sid, parent, name, start, end)

    def begin_op(self) -> None:
        sid, _ = self._open()
        self.op_root = sid
        self._op_start = perf_counter()

    def end_op(self) -> None:
        self._close(self.op_root, None, "op", self._op_start, perf_counter())

    def count(self, values: dict) -> None:
        for key, value in values.items():
            self.counters[(self.op_root, key)] += value

    def _span_wrapper(self, fn, layer: str, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer == "cli":
                tracer.scored.clear()
            sid, parent = tracer._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._close(sid, parent, layer, start, end)
            if hook is not None:
                tracer.count(hook(args, result))
                tracer.bookkeeping[parent] += perf_counter() - end
            return result

        return wrapper

    def _aggregate_wrapper(self, fn, layer: str):
        tracer = self
        redundancy = fn.__name__ == "score_record"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            end = perf_counter()
            parent = tracer.stack[-1]
            slot = tracer.aggregated[(parent, layer)]
            slot[0] += 1
            slot[1] += end - start
            if redundancy:
                record = args[0]
                key = (record.id, record.group, record.evidence, args[1:])
                if key in tracer.scored:
                    tracer.counters[(tracer.op_root, "experiments.score.redundant")] += 1
                else:
                    tracer.scored.add(key)
            tracer.bookkeeping[parent] += perf_counter() - end
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        plan = []
        for short, funcs in LAYERS.items():
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for fname, (layer, hook) in funcs.items():
                fn = getattr(module, fname)
                plan.append((fn, self._span_wrapper(fn, layer, hook)))
        for short, funcs in PER_RECORD.items():
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for fname, layer in funcs.items():
                fn = getattr(module, fname)
                plan.append((fn, self._aggregate_wrapper(fn, layer)))
        for fn, wrapper in plan:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------

    def per_op(self) -> list[dict]:
        """Self time, inclusive time and counters of every layer, one dict per op."""
        children = defaultdict(float)
        root: dict[int, int] = {}
        for sid, parent, name, start, end in self.spans:
            root[sid] = sid if parent is None else root[parent]
            if parent is not None:
                children[parent] += end - start
        for (parent, layer), (calls, seconds) in self.aggregated.items():
            children[parent] += seconds
        for sid, seconds in self.bookkeeping.items():
            children[sid] += seconds
        ops: dict[int, dict] = {sid: defaultdict(float) for sid, parent, *_ in self.spans if parent is None}
        for sid, parent, name, start, end in self.spans:
            if parent is None:
                continue
            op = ops[root[sid]]
            op[f"{name}.self_s"] += end - start - children[sid]
            op[f"{name}.total_s"] += end - start
        for (parent, layer), (calls, seconds) in self.aggregated.items():
            op = ops[root[parent]]
            op[f"{layer}.self_s"] += seconds
            op[f"{layer}.calls"] += calls
        for (op_root, key), value in self.counters.items():
            ops[op_root][key] += value
        return [ops[sid] for sid in sorted(ops)]

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "aggregated": [[p, layer, c, s] for (p, layer), (c, s) in self.aggregated.items()],
        }


def layer_metrics(ops: list[dict], op_untraced_s: float, op_traced_s: float) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json: medians over the traced ops."""

    def med(fn) -> float:
        return statistics.median(fn(op) for op in ops)

    def ratio(num: str, den: str, scale: float = 1.0):
        return lambda op: scale * op[num] / op[den] if op[den] else 0.0

    out = {}
    for name in (
        "records.parse", "records.serialize", "synthetic.generate", "experiments.audit",
        "experiments.score", "experiments.expand", "dirichlet.append", "experiments.restrict",
        "dirichlet.remove", "metrics.auroc", "metrics.aupr", "report.emit", "toy.loss",
        "toy.grad", "cli",
    ):
        out[f"{name}.self_s"] = med(lambda op: op[f"{name}.self_s"])
    for key in (
        "records.parse.lines", "records.serialize.lines", "synthetic.records",
        "experiments.audit.records", "experiments.score.calls", "dirichlet.append.calls",
        "dirichlet.remove.calls", "metrics.samples", "report.bytes", "toy.steps",
    ):
        out[key] = med(lambda op: op[key])
    out["records.parse.us_per_line"] = med(ratio("records.parse.self_s", "records.parse.lines", 1e6))
    out["experiments.score.us_per_call"] = med(
        ratio("experiments.score.self_s", "experiments.score.calls", 1e6))
    out["experiments.score.redundant_share"] = med(
        ratio("experiments.score.redundant", "experiments.score.calls"))
    out["metrics.tie_share"] = med(ratio("metrics.tied", "metrics.samples"))
    out["toy.us_per_step"] = med(ratio("toy.train.total_s", "toy.steps", 1e6))
    out["trace.overhead_ratio"] = op_traced_s / op_untraced_s - 1.0
    return out

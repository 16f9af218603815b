"""The benchmark's traced run (``perfbench/run.py --trace 1``) finds every function it wraps.

``perfbench/spans.py`` looks up the functions in ``LAYERS`` and
``PER_RECORD`` by name; a rename or removal in the library would only
show when a traced run fails. Installing and uninstalling its tracer here
makes that a failing test instead.
"""

import importlib
import importlib.util
import json
from pathlib import Path

from vacuitylab import cli, toy

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    spans = load_spans()
    traced = [
        (short, name)
        for table in (spans.LAYERS, spans.PER_RECORD)
        for short, names in table.items()
        for name in names
    ]
    modules = {short: importlib.import_module(f"{spans.PACKAGE}.{short}") for short, _ in traced}
    originals = {(short, name): getattr(modules[short], name, None) for short, name in traced}
    assert [key for key, fn in originals.items() if not callable(fn)] == []
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert tracer._patched
    finally:
        tracer.uninstall()
    assert all(getattr(modules[short], name) is fn for (short, name), fn in originals.items())


def test_traced_train_toy_counts_every_step(tmp_path, capsys):
    """``train-toy`` imports the toy trainer when it runs; the traced run must still wrap what it calls."""
    spans = load_spans()
    config = tmp_path / "toy.json"
    config.write_text(json.dumps({"steps": 5, "n_per_class": 50}))
    originals = (cli.main, toy.train_toy, toy.loss_gradient)
    tracer = spans.Tracer()
    try:
        tracer.install()
        tracer.begin_op()
        assert cli.main(["train-toy", "--config", str(config)]) == 0
        tracer.end_op()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    (op,) = tracer.per_op()
    assert op["toy.steps"] == 5
    assert op["toy.train.total_s"] > 0
    assert (cli.main, toy.train_toy, toy.loss_gradient) == originals
    assert tracer._patched == []

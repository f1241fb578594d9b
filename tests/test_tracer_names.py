"""The private helpers that tsbench/tracer.py wraps by name must stay plain functions.

The tracer is loaded from its path, unchanged; a renamed or rebound helper
fails here, on every Python version, before the benchmark self-test runs.
"""

import importlib
import importlib.util
import inspect
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "tsbench" / "tracer.py"


def test_extra_names_are_module_level_functions():
    spec = importlib.util.spec_from_file_location("tsbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.EXTRA
    for layer, names in tracer.EXTRA.items():
        module = importlib.import_module(f"tsflow.{layer}")
        for name in names:
            fn = getattr(module, name, None)
            assert inspect.isfunction(fn), f"tsflow.{layer}.{name} is not a function"
            assert (fn.__module__, fn.__qualname__) == (module.__name__, name)

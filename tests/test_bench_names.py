"""The names the bench tracer patches must exist in the library.

``bench/spans.py`` wraps library functions and methods by name from outside
``src/``; a renamed or deleted one would otherwise fail only when the bench
runs.  The module is loaded by path, as ``bench/run.py`` loads it, and
nothing of it is installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("module, attr, name", spans.FUNCTIONS, ids=str)
def test_every_traced_function_resolves(module, attr, name):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module, cls_name, method, name", spans.METHODS, ids=str)
def test_every_traced_method_resolves(module, cls_name, method, name):
    # The tracer patches the method found in the class's own namespace.
    cls = getattr(importlib.import_module(module), cls_name)
    assert callable(cls.__dict__[method])

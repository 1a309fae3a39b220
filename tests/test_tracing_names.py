"""The names bench/tracing.py wraps must exist in tanfam.

The tracer replaces functions and methods by name when ``bench/run.py
--trace 1`` runs; a name dropped from the package would end that run in
an AttributeError.  The tables are read from the file's source, so the
benchmark harness and its numpy import stay out of the test run.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _table(name):
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} has no table {name}")


FUNCTIONS = _table("FUNCTIONS")
METHODS = _table("METHODS")


@pytest.mark.parametrize("layer", sorted(FUNCTIONS))
def test_traced_functions_exist(layer):
    home, names = FUNCTIONS[layer]
    module = importlib.import_module(home)
    for name in names:
        assert callable(getattr(module, name, None)), (layer, home, name)


@pytest.mark.parametrize("layer", sorted(METHODS))
def test_traced_methods_exist(layer):
    home, cls_name, names = METHODS[layer]
    cls = getattr(importlib.import_module(home), cls_name)
    for name in names:
        # the tracer reads the class's own __dict__, not inherited attributes
        assert name in cls.__dict__, (layer, cls_name, name)

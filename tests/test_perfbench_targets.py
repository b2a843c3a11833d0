"""The benchmark's per-layer tracer patches functions by name; a renamed
layer function must fail here rather than silently drop its metrics."""

import ast
import functools
import importlib
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_targets():
    """The literal TARGETS tuple of the tracer, read without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACER}")


@pytest.mark.parametrize("layer, module, path, counter", load_targets())
def test_target_resolves_to_callable(layer, module, path, counter):
    owner = importlib.import_module(module)
    target = functools.reduce(getattr, path.split("."), owner)
    assert callable(target), f"{layer}: {module}.{path} is not callable"

"""The benchmark's tracer wraps library functions by name; every name must resolve.

``perfbench/tracing.py`` lists the functions it wraps in ``TRACED``. The
benchmark's own tests are not part of this suite, so a refactor that
drops or renames a traced name would otherwise break only the benchmark.
``TRACED`` is read from the file's source, not imported.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_names() -> list[tuple[str, str]]:
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            traced = ast.literal_eval(node.value)
            return [(layer, name) for layer, names in traced.items() for name in names]
    raise AssertionError(f"no TRACED assignment in {TRACING}")


@pytest.mark.parametrize("layer, name", traced_names())
def test_traced_name_resolves(layer, name):
    owner = importlib.import_module(f"relialloc.{layer}")
    for part in name.split("."):
        owner = getattr(owner, part)
    assert callable(owner)

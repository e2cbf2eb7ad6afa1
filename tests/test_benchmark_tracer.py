"""The benchmark's tracer names program functions; they must all exist.

benchmark/tracer.py wraps program functions that it looks up by name
with getattr, so deleting or renaming one of them breaks every traced
benchmark run without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("table", ["TIMED", "COUNTED"])
def test_every_traced_name_resolves(table):
    targets = getattr(load_tracer(), table)
    assert targets
    missing = [
        f"{mod}.{name}"
        for mod, name in targets
        if not hasattr(importlib.import_module(f"ballmaps.{mod}"), name)
    ]
    assert not missing, f"benchmark/tracer.py wraps names the program lacks: {missing}"

"""The benchmark's tracer names program functions; they must all exist,
and check() must reach them by those names.

benchmark/tracer.py wraps program functions that it looks up by name
with getattr, so deleting or renaming one of them breaks every traced
benchmark run without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from ballmaps import criterion
from conftest import gen_map, load_gen

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


def test_traced_check_reaches_every_route():
    # The tracer wraps names in module namespaces, so a route that check()
    # stops calling by name (a shared pencil, an inlined sup norm) leaves
    # its per-layer row at 0 calls without failing anything else.
    rows = (
        "criterion.krein_check",
        "criterion.classify_fixed_point",
        "geometry.image_ellipsoid",
        "geometry.ellipsoid_sup_norm",
        "linalg.svd",
    )
    entries = [e for e in load_gen().check_mixed(1) if e["kind"] != "nonself"][:6]
    maps = [gen_map(e) for e in entries]
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        for phi in maps:
            before = {name: tracer.calls[name] for name in rows}
            criterion.check(phi)
            made = {name: tracer.calls[name] - before[name] for name in rows}
            assert min(made.values()) >= 1, made
    finally:
        tracer.uninstall()


def test_origin_orbit_is_a_stub_that_raises(worked_map):
    # The tracer's counter is all that keeps the name; nothing may call it.
    with pytest.raises(NotImplementedError):
        criterion._origin_orbit(worked_map)

"""The vcdcycle names the benchmark in perfbench/ wraps or calls.

perfbench/spans.py replaces each function in LAYERS with a tracing wrapper
and rebinds every module attribute that is the same object, so a renamed or
deleted function breaks the traced benchmark run.  This test catches that in
the default test run.
"""

import importlib
import importlib.util
import os

from vcdcycle import exactq, polytope, repro, sharbly, voronoi

_SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_traced_layers_exist():
    for mod, names in _layers().items():
        module = importlib.import_module(f"vcdcycle.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{mod}.{name}"


def test_rebound_aliases_are_the_originals():
    assert polytope.nullspace is exactq.nullspace
    assert voronoi.solve is exactq.solve
    assert repro.canonicalize is sharbly.canonicalize


def test_criteria_keep_name_and_function():
    for num, (name, fn) in repro.CRITERIA.items():
        assert isinstance(name, str) and callable(fn), num

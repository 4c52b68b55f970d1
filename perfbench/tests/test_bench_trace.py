"""Self-tests of the traced run: coverage, isolation and count determinism.

Each test starts real benchmark passes, so the module takes a few minutes:

    python3 -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys
import time

import pytest

import run
import spans
from conftest import BENCH, ROOT

# Per-layer metrics each workload must exercise (see README.md, "Predictions").
NONZERO = {
    "rank5": [
        "lp.simplex_max.calls", "lp.simplex_max.self_s",
        "lp.feasible_ge.calls", "lp.feasible_ge.self_s",
        "polytope.is_valid_triangulation.calls", "polytope.is_valid_triangulation.self_s",
        "polytope.is_regular.calls", "polytope.is_regular.self_s",
        "polytope.search.regular_ratio",
        "polytope.supported_flips.calls", "polytope.supported_flips.flips",
        "polytope.placing_triangulation.calls",
        "polytope.flip_path.self_s", "polytope.verify_flip_identity.self_s",
        "exactq.nullspace.calls", "exactq.solve.calls", "exactq.int_det.calls",
        "exactq.int_rank.calls",
        "dd.cone_facets.calls", "dd.cone_facets.self_s", "dd.extreme_rays.calls",
        "voronoi.tile_facets.self_s",
        "certs.check_certificate.calls", "certs.check_certificate.self_s",
        "certs.bytes.census", "certs.bytes.triangulation", "certs.bytes.flip-identity",
    ],
    "cycles": [
        "sharbly.vector_set_maps.calls", "sharbly.vector_set_maps.self_s",
        "sharbly.vector_set_maps.yielded",
        "sharbly.orbit.lookups", "sharbly.orbit.self_s", "sharbly.orbit.classes",
        "sharbly.orbit.hit_ratio",
        "sharbly.equivalent.calls", "sharbly.equivalent.found",
        "sharbly.self_negation_witness.calls", "sharbly.self_negation_witness.found",
        "sharbly.canonicalize.calls", "sharbly.boundary.calls",
        "exactq.primitive_normalize.calls",
        "voronoi.stabilizer.calls", "voronoi.stabilizer.self_s",
        "cycle.build_zG.self_s", "cycle.verify_boundary_zero.self_s",
        "cosharbly.is_flipon.calls", "cosharbly.is_flipon.true",
        "cosharbly.mu_sign_certificate.self_s",
        "serialize.cycle_from_json.self_s", "serialize.cycle_to_json.self_s",
        "lp.simplex_max.calls",
        "certs.check_certificate.calls", "certs.bytes.boundary", "certs.bytes.positivity",
    ],
}


def _runner() -> run.Runner:
    return run.Runner(ROOT, time.monotonic() + 600)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_covers_the_named_layers(workload):
    res = _runner().run(workload, seed=0, seconds=0, trace=True)
    assert res["failures"] == []
    layers = res["layers"]
    assert [m for m in NONZERO[workload] if not layers.get(m)] == []
    for name, _ in run.PER_LAYER:
        assert name in layers
    assert "trace.overhead_s" in layers


def test_untraced_pass_installs_no_wrapper():
    result = _runner().spawn("rank5", 0)
    assert result["failures"] == []
    assert result["wrappers"] == 0
    assert "layers" not in result
    assert result["ref_s"] > 0


def test_install_rebinds_from_imports():
    code = (
        "import spans; spans.install();"
        "from vcdcycle import cycle, polytope, voronoi, repro, sharbly;"
        "m = spans.MARK;"
        "assert hasattr(cycle.vector_set_maps, m);"
        "assert hasattr(voronoi.vector_set_maps, m);"
        "assert hasattr(polytope.nullspace, m) and hasattr(polytope.solve, m);"
        "assert hasattr(repro.canonicalize, m);"
        "assert hasattr(sharbly.OrbitDictionary.canonical_with_witness, m);"
        "assert spans.unwrapped_aliases() == []"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([BENCH, os.path.join(ROOT, "src")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_generator_spans_are_per_next():
    def items():
        yield from (1, 2, 3)

    rec = spans.Recorder()
    wrapped = spans._generator(rec, "sharbly.vector_set_maps", items)
    assert list(wrapped()) == [1, 2, 3]
    assert rec.calls["sharbly.vector_set_maps"] == 1
    assert rec.counts["sharbly.vector_set_maps.yielded"] == 3
    assert len(rec.start) == 4  # three items and the final StopIteration


def test_self_time_excludes_children():
    rec = spans.Recorder()
    with rec.span("outer"):
        with rec.span("inner"):
            time.sleep(0.02)
    assert rec.self_s["inner"] >= 0.02
    assert rec.self_s["outer"] < rec.self_s["inner"]
    assert list(rec.id) == [1, 0] and list(rec.parent) == [0, -1]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_exactly(workload):
    runner = _runner()
    first, second = (runner.spawn(workload, 0, "--trace")["layers"] for _ in range(2))
    counts = {k: v for k, v in first.items() if not k.endswith("_s")}
    assert counts == {k: second[k] for k in counts}


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

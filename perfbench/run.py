"""Benchmark for vcdcycle: cold single-threaded runs of two workloads.

    python3 perfbench/run.py --workload rank5|cycles|all --seed N \
        --seconds S --trace 0|1

Run it from the repository root.  Every pass is a fresh interpreter
(`child.py`), because lru_caches in `polytope` and `sharbly` persist within
a process; passes run one after another, never in parallel.  A run makes
passes while the next one is expected to end within S seconds, at least two.
A pass is a fixed sequence of named steps (workloads.py).  While it runs, a
timer signal runs a fixed reference loop every 50 ms (reference.py), so the
loop gauges the machine's speed over the same time as the steps; its time is
subtracted from them.  Other tenants of a shared host slow both alike.
`wall_ref` is the median over the passes of the pass time (the sum of its
steps) divided by the mean time of the loops that ran inside its steps;
`cert_check_ref` is the same for the certificate re-checks and the loops
inside them.  Both are in units of that loop (`ref`).
`setup_s` is the median over the passes and the set-up-only passes;
`peak_rss_mb` the median over the passes.  The raw median seconds are
printed too.

With --trace 1 one extra pass runs with every layer function wrapped (see
spans.py); the per-layer metrics come from it, and its spans are written to
.perfbench/trace-WORKLOAD-seedN.json.  The last line of standard output is
one JSON object; the exit code is 1 if any verdict failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("rank5", "cycles")
END_TO_END = (("wall_ref", "ref"), ("setup_s", "s"), ("cert_check_ref", "ref"),
              ("peak_rss_mb", "MB"))
# Per-layer metrics of the traced run (spans.py).  Self times are listed only
# where both workloads exercise the function; the rest enter as counts.
_COUNTS = (
    "exactq.nullspace.calls", "exactq.solve.calls", "exactq.int_det.calls",
    "exactq.int_rank.calls", "exactq.primitive_normalize.calls",
    "lp.simplex_max.calls", "lp.feasible_ge.calls", "lp.feasible_ge.infeasible",
    "dd.cone_facets.calls", "dd.extreme_rays.calls",
    "polytope.is_valid_triangulation.calls", "polytope.is_valid_triangulation.rejected",
    "polytope.is_regular.calls", "polytope.is_regular.rejected",
    "polytope.supported_flips.calls", "polytope.supported_flips.flips",
    "polytope.placing_triangulation.calls", "polytope.flip_path.calls",
    "polytope.verify_flip_identity.calls",
    "sharbly.canonicalize.calls", "sharbly.boundary.calls",
    "sharbly.vector_set_maps.calls", "sharbly.vector_set_maps.yielded",
    "sharbly.equivalent.calls", "sharbly.equivalent.found",
    "sharbly.self_negation_witness.calls", "sharbly.self_negation_witness.found",
    "sharbly.orbit.lookups", "sharbly.orbit.classes",
    "voronoi.stabilizer.calls", "voronoi.tile_facets.calls",
    "cycle.build_zG.calls", "cycle.verify_boundary_zero.calls",
    "cosharbly.is_flipon.calls", "cosharbly.is_flipon.true",
    "cosharbly.mu_sign_certificate.calls",
    "certs.check_certificate.calls", "certs.check_certificate.failed",
    "serialize.cycle_from_json.calls", "serialize.cycle_to_json.calls",
    "trace.spans",
)
_RATIOS = ("polytope.search.regular_ratio", "sharbly.orbit.hit_ratio")
CERT_KINDS = ("census", "triangulation", "flip-identity", "boundary", "positivity")
_BYTES = ("certs.bytes",) + tuple(f"certs.bytes.{kind}" for kind in CERT_KINDS)
_SECONDS = (
    "exactq.nullspace.self_s", "exactq.solve.self_s", "exactq.int_det.self_s",
    "exactq.int_rank.self_s", "exactq.primitive_normalize.self_s",
    "lp.simplex_max.self_s", "lp.feasible_ge.self_s",
    "polytope.is_valid_triangulation.self_s", "polytope.is_regular.self_s",
    "polytope.placing_triangulation.self_s", "certs.check_certificate.self_s",
    "exactq.self_s", "lp.self_s", "polytope.self_s", "certs.self_s", "steps.self_s",
    "trace.overhead_s",
)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.startswith("certs.bytes"):
        return "bytes"
    return "count"


PER_LAYER = tuple((n, _unit(n)) for n in _COUNTS + _RATIOS + _BYTES + _SECONDS)
SETUP_SAMPLES = 7
MIN_PASSES = 2
DEADLINE_S = 170.0  # per workload, so that a run ends within the 180 s allowed


class BenchError(RuntimeError):
    pass


def _src_lines(src: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(src, "vcdcycle")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


class Runner:
    def __init__(self, root: str, deadline: float):
        self.src = os.path.join(root, "src")
        self.out = os.path.join(root, ".perfbench")
        self.deadline = deadline
        env = dict(os.environ, PYTHONHASHSEED="0")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src, os.environ.get("PYTHONPATH")) if p
        )
        self.env = env

    def spawn(self, workload: str, seed: int, *flags: str) -> dict:
        """One child pass; returns its result with `setup_s` filled in."""
        os.makedirs(self.out, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=self.out)
        try:
            cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed),
                   workdir, *flags]
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, env=self.env)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - spawned))
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            if code != 0:
                raise BenchError(f"{workload} pass exited with code {code}")
            with open(os.path.join(workdir, "result.json")) as fh:
                result = json.load(fh)
            if os.path.realpath(result["vcdcycle"]) != os.path.realpath(
                os.path.join(self.src, "vcdcycle")
            ):
                raise BenchError(f"imported vcdcycle from {result['vcdcycle']}")
            result["setup_s"] = result["ready"] - spawned
            if "--trace" in flags:
                os.replace(os.path.join(workdir, "spans.json"),
                           os.path.join(self.out, f"trace-{workload}-seed{seed}.json"))
            return result
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def run(self, workload: str, seed: int, seconds: float, trace: bool) -> dict:
        setups = [self.spawn(workload, seed, "--setup-only")["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        traced = self.spawn(workload, seed, "--trace") if trace else None
        passes = []
        started = time.monotonic()
        longest = 0.0
        while len(passes) < MIN_PASSES or time.monotonic() - started + longest <= seconds:
            t0 = time.monotonic()
            passes.append(self.spawn(workload, seed))
            longest = max(longest, time.monotonic() - t0)
        setups += [p["setup_s"] for p in passes]
        every = passes + ([traced] if traced else [])
        failures = [f for p in every for f in p["failures"]]
        stray = sum(p["wrappers"] for p in passes)
        if stray:
            failures.append(f"{stray} wrappers installed in untraced passes")
        steps = list(passes[0]["steps"])
        if any(list(p["steps"]) != steps for p in every):
            failures.append("passes ran different steps")
        metrics = {
            "wall_ref": statistics.median(p["wall_s"] / p["ref_s"] for p in passes),
            "setup_s": statistics.median(setups),
            "cert_check_ref": statistics.median(p["cert_check_s"] / p["cert_ref_s"]
                                                for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        seconds_taken = {k: statistics.median(p[k] for p in passes)
                         for k in ("wall_s", "cert_check_s")}
        layers = {}
        if traced:
            if traced["unwrapped_aliases"]:
                failures.append(f"unwrapped aliases: {traced['unwrapped_aliases']}")
            layers = dict(traced["layers"])
            for kind in CERT_KINDS:
                layers[f"certs.bytes.{kind}"] = traced["cert_bytes"].get(kind, 0)
            layers["certs.bytes"] = sum(traced["cert_bytes"].values())
            layers["trace.overhead_s"] = traced["wall_s"] - seconds_taken["wall_s"]
        return {
            "attempted": sum(p["attempted"] for p in every),
            "failures": failures,
            "metrics": metrics,
            "seconds": seconds_taken,
            "layers": layers,
            "passes": len(passes),
            "setup_samples": len(setups),
            "samples": {k: [round(p[k], 6) for p in passes]
                        for k in ("wall_s", "cert_check_s", "ref_s", "cert_ref_s")},
        }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so a running pass is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)

    root = os.getcwd()
    package = os.path.join(root, "src", "vcdcycle")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"error: no vcdcycle sources at {package}; run from the repository root",
              file=sys.stderr)
        return 2
    # the build: byte-compile once, so no timed pass pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", package], check=True,
                   stdout=subprocess.DEVNULL)

    runner = Runner(root, deadline)
    meta = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "src_lines": _src_lines(os.path.join(root, "src")),
    }
    print("meta " + json.dumps(meta))
    wanted = PER_LAYER if args.trace else END_TO_END
    out_metrics = {}
    attempted = failed = 0
    for workload in names:
        try:
            res = runner.run(workload, args.seed, args.seconds, bool(args.trace))
        except (BenchError, subprocess.TimeoutExpired, OSError, KeyError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                              "failed": failed + 1, "metrics": {}}))
            return 1
        attempted += res["attempted"]
        failed += len(res["failures"])
        for f in res["failures"]:
            print(f"{workload}: FAILED {f}")
        print(f"{workload}  passes={res['passes']}  setup samples={res['setup_samples']}  "
              f"per pass: {res['samples']}")
        print(f"{workload}  verdicts_failed = {len(res['failures'])} of {res['attempted']}")
        for name, value in res["seconds"].items():
            print(f"{workload}  {name} = {value:.4f} s (median pass, not normalized)")
        for name, unit in END_TO_END:
            print(f"{workload}  {name} = {res['metrics'][name]:.4f} {unit}")
        for name, value in sorted(res["layers"].items()):
            print(f"{workload}  {name} = {value} {_unit(name)}")
        source = res["layers"] if args.trace else res["metrics"]
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, unit in wanted:
            out_metrics[prefix + name] = {"value": source.get(name, 0), "unit": unit}
    correct = failed == 0
    if not correct:
        out_metrics = {}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""One cold pass of a workload, in the fresh interpreter `run.py` starts.

    python3 perfbench/child.py WORKLOAD SEED WORKDIR [--trace] [--setup-only]

Writes WORKDIR/result.json.  `ready` is the CLOCK_MONOTONIC time at which
set-up ended (vcdcycle imported, seeded inputs generated); the parent
subtracts its own spawn time from it.  `steps` maps each step of the
workload to its seconds, and `checks` names the steps that re-check a
certificate.  `wall_s` and `cert_check_s` are their sums for this pass;
`ref_s` and `cert_ref_s` are the mean reference-loop times inside each.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time


def _mean(loops: dict[str, list[float]], names) -> float:
    """Mean time of one reference loop over the loops inside the named steps,
    or over all loops of the pass if those steps were too short for any."""
    inside = [t for name in names for t in loops[name]]
    inside = inside or [t for ts in loops.values() for t in ts]
    return sum(inside) / len(inside)


def main(argv: list[str]) -> int:
    workload, seed, workdir = argv[0], int(argv[1]), argv[2]
    trace = "--trace" in argv
    import vcdcycle.cli  # noqa: F401  (imports every layer module)
    import workloads
    import reference
    import spans

    make_inputs, run = workloads.WORKLOADS[workload]
    inp = make_inputs(seed)
    ready = time.monotonic()
    result = {"ready": ready, "vcdcycle": os.path.dirname(vcdcycle.cli.__file__)}
    if "--setup-only" not in argv:
        rec = spans.install() if trace else None
        verdicts = workloads.Verdicts()
        gauge = None if trace else reference.Gauge()
        ctx = workloads.Context(workdir, verdicts, rec, gauge)
        with gauge or contextlib.nullcontext():
            run(ctx, inp)
        cert_bytes: dict[str, int] = {}
        for kind, path in ctx.certs:
            if os.path.exists(path):  # a failed command may write none
                cert_bytes[kind] = cert_bytes.get(kind, 0) + os.path.getsize(path)
        result.update(
            steps=ctx.steps,
            checks=ctx.checks,
            wall_s=sum(ctx.steps.values()),
            cert_check_s=sum(ctx.steps[name] for name in ctx.checks),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            attempted=verdicts.attempted,
            failures=verdicts.failures,
            cert_bytes=cert_bytes,
            wrappers=spans.installed_wrappers(),
            ref_s=_mean(ctx.loops, ctx.steps) if gauge else None,
            cert_ref_s=_mean(ctx.loops, ctx.checks) if gauge else None,
        )
        if rec is not None:
            result["layers"] = rec.metrics()
            result["unwrapped_aliases"] = spans.unwrapped_aliases()
            rec.write(os.path.join(workdir, "spans.json"))
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The benchmark workloads, run inside a fresh interpreter.

Each workload calls vcdcycle the way a verifier does and checks every
verdict against the paper's values.  It is a fixed sequence of named steps:
one CLI command, one library call, or one `cert check` of a certificate
read back from disk right after the command that wrote it.  `step(name)`
times each step, less the time of the gauge's loops (reference.py) inside
it, keeps those loop times, and opens a span in a traced run.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from fractions import Fraction

import inputs
from vcdcycle import cli, data, repro
from vcdcycle import cycle as cy
from vcdcycle import polytope as pt
from vcdcycle import voronoi as vr


class Verdicts:
    """Counts checks attempted and failed, keeping the names of failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(name)
        return bool(ok)


class Context:
    def __init__(self, workdir: str, verdicts: Verdicts, recorder=None, gauge=None):
        self.workdir = workdir
        self.v = verdicts
        self.rec = recorder
        self.gauge = gauge
        self.certs: list[tuple[str, str]] = []
        self.steps: dict[str, float] = {}  # step name -> seconds, in pass order
        self.checks: list[str] = []  # the steps that re-check a certificate
        self.loops: dict[str, list[float]] = {}  # step name -> gauge loops inside it

    @contextlib.contextmanager
    def step(self, name: str):
        if name in self.steps:
            raise ValueError(f"step {name!r} repeated in one pass")
        span = self.rec.span(f"step.{name}") if self.rec else contextlib.nullcontext()
        with span:
            first = self._loops()
            t0 = time.perf_counter()
            try:
                yield
            finally:
                elapsed = time.perf_counter() - t0
                loops = self.gauge.samples[first:] if self.gauge else []
                self.steps[name] = elapsed - sum(loops)
                self.loops[name] = loops

    def _loops(self) -> int:
        return len(self.gauge.samples) if self.gauge else 0

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def cli(self, name: str, argv: list[str]) -> bool:
        with self.step(name):
            code = cli.main(argv)
        return self.v.check(f"{name}: exit {code}", code == 0)

    def cert(self, kind: str, filename: str) -> str:
        """Path for a certificate of `kind`; `recheck()` must follow its writing."""
        path = self.path(filename)
        self.certs.append((kind, path))
        return path

    def recheck(self) -> dict:
        """`cert check` on the certificate `cert()` named last; returns its
        payload, or {} if the command that should have written it failed."""
        kind, path = self.certs[-1]
        name = f"cert check {os.path.basename(path)}"
        self.checks.append(name)
        if not self.v.check(f"{kind} certificate written", os.path.exists(path)):
            self.steps[name] = 0.0
            self.loops[name] = []
            return {}
        self.cli(name, ["cert", "check", path])
        with open(path) as fh:
            return json.load(fh).get("payload", {})


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


# ---------------------------------------------------------------------------
# rank5: the fixed rank-5 data; the seed is not used


def rank5_inputs(seed: int) -> dict:
    local = {label: i for i, label in enumerate(sorted(data.D5_FACET_F))}
    pair = {
        key: [sorted(local[x] for x in s) for s in tri]
        for key, tri in (("first", data.D5_F_TRIANGULATION_1),
                         ("second", data.D5_F_TRIANGULATION_2))
    }
    return {"facet": ",".join(map(str, data.D5_FACET_F)), "pair": pair}


def rank5(ctx: Context, inp: dict) -> None:
    """The rank-5 claim as a verifier re-checks it: the census, the facet's
    triangulations T1 and T2, and the single flip between them.  The
    enumeration of all three regular triangulations is left out (see
    README.md)."""
    v = ctx.v
    ctx.cli("tile facets D5",
            ["tile", "facets", "--form", "D5", "--cert", ctx.cert("census", "census.json")])
    census = ctx.recheck()
    v.check("census 400 = 320 + 80",
            census.get("counts") == {"total": 400, "by_rays": {"14": 320, "16": 80}})
    v.check("facet F listed",
            sorted(data.D5_FACET_F) in [f["labels"] for f in census.get("facets", [])])

    ctx.cli("triangulate D5 F",
            ["triangulate", "--form", "D5", "--facet", inp["facet"],
             "--cert", ctx.cert("triangulation", "triangulation.json")])
    ctx.recheck()

    with ctx.step("facet geometry"):
        geom = cy.facet_geometry(vr.tile_of(vr.builtin_form("D5")), data.D5_FACET_F)
    to_local = {o: i for i, o in enumerate(geom.tile_labels)}
    for name, tri in (("T1", data.D5_F_TRIANGULATION_1), ("T2", data.D5_F_TRIANGULATION_2)):
        local = frozenset(frozenset(to_local[l] for l in s) for s in tri)
        with ctx.step(f"is_valid_triangulation {name}"):
            valid = pt.is_valid_triangulation(geom.config, local)
        v.check(f"{name} is a triangulation", valid)

    pair = ctx.path("pair.json")
    _write_json(pair, inp["pair"])
    ctx.cli("flip verify T1 T2",
            ["flip", "verify", "--form", "D5", "--facet", inp["facet"], "--in", pair,
             "--cert", ctx.cert("flip-identity", "flips.json")])
    flips = ctx.recheck().get("flips", [])
    v.check("single flip", len(flips) == 1)
    v.check("flip circuit",
            [f["circuit"] for f in flips] == [list(data.D5_F_CIRCUIT_LOCAL)])


# ---------------------------------------------------------------------------
# cycles: the rank 2-4 claims, plus seeded SL_4(Z) images of the rank-4 cycle

CYCLE_COEFFS = {2: {Fraction(1, 6)}, 3: {Fraction(1, 24)}, 4: {Fraction(1, 120), Fraction(1, 36)}}


def cycles(ctx: Context, inp: dict) -> None:
    v = ctx.v
    for num in (1, 2, 3, 4):
        with ctx.step(f"criterion {num}"):
            r = repro.CRITERIA[num][1]()
        v.check(f"criterion {num} ok", r.get("ok"))
        if num == 3:
            v.check("two rank-4 tile orbits", r.get("tile_orbits") == 2)
        if num == 4:
            v.check("remark-an coefficient 10", abs(r.get("rank4_coefficient") or 0) == 10)
    with ctx.step("criterion 7"):
        r = repro.criterion_7(inp["criterion_7_seed"])
    v.check("criterion 7 ok", r.get("ok"))

    docs = {}
    for n in (2, 3, 4):
        z = ctx.path(f"z{n}.json")
        ctx.cli(f"cycle build n={n}", ["cycle", "build", "--n", str(n), "--out", z])
        with open(z) as fh:
            docs[n] = json.load(fh)
        coeffs = {abs(Fraction(c["coeff"])) for c in docs[n]["classes"]}
        v.check(f"rank-{n} coinvariant coefficients", coeffs == CYCLE_COEFFS[n])
        _verify_cycle(ctx, f"n={n}", z)
    for i, g in enumerate(inp["moves"]):
        z = ctx.path(f"z4-moved{i}.json")
        _write_json(z, inputs.move_cycle(docs[4], g))
        _verify_cycle(ctx, f"n=4 moved {i}", z)


def _verify_cycle(ctx: Context, label: str, z: str) -> None:
    stem = os.path.splitext(os.path.basename(z))[0]
    ctx.cli(f"cycle verify {label}", ["cycle", "verify", "--in", z,
                                      "--cert", ctx.cert("boundary", f"{stem}-boundary.json")])
    ctx.recheck()
    ctx.cli(f"cocycle certify {label}",
            ["cocycle", "certify", "--in", z,
             "--cert", ctx.cert("positivity", f"{stem}-positivity.json")])
    ctx.recheck()


WORKLOADS = {
    "rank5": (rank5_inputs, rank5),
    "cycles": (inputs.cycles_inputs, cycles),
}

"""Span recorder for the traced benchmark run.

`install()` replaces the layer functions of vcdcycle listed in LAYERS with
wrappers that record one span per call (one per `next()` for generators),
and rebinds every module attribute that still names an original, so the
`from .x import f` copies are traced too.  Spans stay in memory until
`write()`.  A span's self time is its duration minus that of its child
spans, so time in an unwrapped helper (say `exactq._rref` under
`sharbly._complete`) is charged to the nearest wrapped caller.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import time
from array import array

# module -> wrapped public functions, the per-layer metric names
LAYERS = {
    "exactq": ("nullspace", "solve", "int_det", "int_rank", "primitive_normalize"),
    "lp": ("simplex_max", "feasible_ge"),
    "dd": ("cone_facets", "extreme_rays"),
    "polytope": (
        "is_valid_triangulation", "is_regular", "supported_flips",
        "placing_triangulation", "enumerate_regular_triangulations", "flip_path",
        "apply_flip", "verify_flip_identity",
    ),
    "sharbly": (
        "canonicalize", "boundary", "vector_set_maps", "equivalent",
        "self_negation_witness",
    ),
    "voronoi": ("stabilizer", "tile_facets"),
    "cycle": ("build_zG", "verify_boundary_zero"),
    "cosharbly": ("is_flipon", "mu_sign_certificate"),
    "certs": ("check_certificate",),
    "serialize": ("cycle_from_json", "cycle_to_json"),
}
GENERATORS = {"sharbly.vector_set_maps"}
ORBIT = "sharbly.orbit"  # OrbitDictionary.canonical_with_witness

# Outcome counters: name -> (stat, function of the result giving the increment).
OUTCOMES = {
    "lp.feasible_ge": ("infeasible", lambda r: r is None),
    "polytope.is_valid_triangulation": ("rejected", lambda r: not r),
    "polytope.is_regular": ("rejected", lambda r: r is None),
    "polytope.supported_flips": ("flips", len),
    "sharbly.equivalent": ("found", lambda r: r is not None),
    "sharbly.self_negation_witness": ("found", lambda r: r is not None),
    "cosharbly.is_flipon": ("true", bool),
    "certs.check_certificate": ("failed", lambda r: not r[0]),
}

# feasible_ge is solved by one simplex_max call.  Charging that call to
# feasible_ge keeps lp.simplex_max to the pairwise validity LPs and
# lp.feasible_ge to the regularity LPs.
CHARGED_TO_CALLER = {("lp.feasible_ge", "lp.simplex_max")}

MARK = "__perfbench_wrapped__"


class Recorder:
    """Spans (id, parent, name, start, end) in flat arrays, plus counters."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.id = array("q")  # ids count in opening order; rows are in closing order
        self.parent = array("q")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.stack: list[list] = []  # [name, span id, child seconds]
        self._next_id = 0

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def open(self, name: str) -> list:
        frame = [name, self._next_id, 0.0]
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def close(self, frame: list, t0: float, t1: float) -> None:
        self.stack.pop()
        name, span_id, child = frame
        dur = t1 - t0
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        parent = -1
        if self.stack:
            self.stack[-1][2] += dur
            parent = self.stack[-1][1]
        self.id.append(span_id)
        self.parent.append(parent)
        self.name.append(self._name_index(name))
        self.start.append(t0)
        self.end.append(t1)

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def called(self, name: str) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1

    def write(self, path: str) -> None:
        doc = {
            "names": self.names,
            "columns": ["id", "parent", "name", "start", "end"],
            "spans": [list(self.id), list(self.parent), list(self.name), list(self.start),
                      list(self.end)],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    def metrics(self) -> dict[str, float]:
        """Per-function calls/self_s/outcomes, plus per-module self time."""
        out: dict[str, float] = {}
        for module, functions in LAYERS.items():
            for fn in functions:
                name = f"{module}.{fn}"
                out[f"{name}.calls"] = self.calls.get(name, 0)
                out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        for name, (stat, _) in OUTCOMES.items():
            out[f"{name}.{stat}"] = self.counts.get(f"{name}.{stat}", 0)
        yielded = "sharbly.vector_set_maps.yielded"
        out[yielded] = self.counts.get(yielded, 0)
        lookups = self.calls.get(ORBIT, 0)
        classes = self.counts.get(f"{ORBIT}.classes", 0)
        out[f"{ORBIT}.lookups"] = lookups
        out[f"{ORBIT}.self_s"] = self.self_s.get(ORBIT, 0.0)
        out[f"{ORBIT}.classes"] = classes
        out[f"{ORBIT}.hit_ratio"] = 1 - classes / lookups if lookups else 0.0
        calls = self.calls.get("polytope.is_regular", 0)
        rejected = self.counts.get("polytope.is_regular.rejected", 0)
        out["polytope.search.regular_ratio"] = (calls - rejected) / calls if calls else 0.0
        for module in LAYERS:
            out[f"{module}.self_s"] = sum(
                s for name, s in self.self_s.items() if name.startswith(module + ".")
            )
        out["steps.self_s"] = sum(
            s for name, s in self.self_s.items() if name.startswith("step.")
        )
        out["trace.spans"] = len(self.start)
        return out


class _Span:
    def __init__(self, rec: Recorder, name: str):
        self.rec, self.name = rec, name

    def __enter__(self):
        self.frame = self.rec.open(self.name)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.rec.close(self.frame, self.t0, time.perf_counter())
        return False


def _plain(rec: Recorder, name: str, fn):
    outcome = OUTCOMES.get(name)
    stack = rec.stack
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        if stack and (stack[-1][0], name) in CHARGED_TO_CALLER:
            return fn(*args, **kwargs)
        rec.called(name)
        frame = rec.open(name)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(frame, t0, clock())
        if outcome is not None:
            rec.count(f"{name}.{outcome[0]}", int(outcome[1](result)))
        return result

    return wrapper


def _generator(rec: Recorder, name: str, fn):
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        rec.called(name)
        inner = fn(*args, **kwargs)

        def timed():
            try:
                while True:
                    frame = rec.open(name)
                    t0 = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        rec.close(frame, t0, clock())
                    rec.count(f"{name}.yielded")
                    yield item
            finally:
                inner.close()

        return timed()

    return wrapper


def _orbit(rec: Recorder, fn):
    clock = time.perf_counter

    def wrapper(self, a):
        before = len(self.classes)
        rec.called(ORBIT)
        frame = rec.open(ORBIT)
        t0 = clock()
        try:
            return fn(self, a)
        finally:
            rec.close(frame, t0, clock())
            rec.count(f"{ORBIT}.classes", len(self.classes) - before)

    return wrapper


def _package_modules():
    import vcdcycle

    return [
        importlib.import_module(f"vcdcycle.{info.name}")
        for info in pkgutil.iter_modules(vcdcycle.__path__)
    ]


def install() -> Recorder:
    """Wrap every LAYERS function and OrbitDictionary.canonical_with_witness."""
    rec = Recorder()
    modules = _package_modules()
    by_name = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
    replace = {}  # id(original) -> wrapper
    for module, functions in LAYERS.items():
        mod = by_name[module]
        for fn_name in functions:
            original = getattr(mod, fn_name)
            name = f"{module}.{fn_name}"
            make = _generator if name in GENERATORS else _plain
            wrapper = make(rec, name, original)
            setattr(wrapper, MARK, original)
            replace[id(original)] = wrapper
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            wrapper = replace.get(id(value))
            if wrapper is not None and getattr(wrapper, MARK) is value:
                setattr(mod, attr, wrapper)
    od = by_name["sharbly"].OrbitDictionary
    wrapper = _orbit(rec, od.canonical_with_witness)
    setattr(wrapper, MARK, od.canonical_with_witness)
    od.canonical_with_witness = wrapper
    return rec


def installed_wrappers() -> int:
    """Number of module attributes and methods that are benchmark wrappers."""
    count = 0
    for mod in _package_modules():
        for value in vars(mod).values():
            if hasattr(value, MARK):
                count += 1
            elif isinstance(value, type):
                count += sum(hasattr(v, MARK) for v in vars(value).values())
    return count


def unwrapped_aliases() -> list[str]:
    """Module attributes that still name an original of a wrapped function."""
    originals = {}
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, MARK):
                originals[id(getattr(value, MARK))] = f"{mod.__name__}.{attr}"
    missed = []
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if id(value) in originals and not hasattr(value, MARK):
                missed.append(f"{mod.__name__}.{attr}")
    return missed

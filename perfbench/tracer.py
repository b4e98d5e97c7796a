"""In-memory tracing of the rdiv layers, installed from outside the library.

``Tracer.install()`` wraps the public functions of every rdiv module and
rebinds each wrapper in every rdiv module that holds the original by name
(``toric`` imports ``lp_solve``, ``_vertex_set`` and the lattice functions
with ``from .polyhedra import ...``, so patching ``polyhedra`` alone would
miss those calls).  Each call records a span (op, name, start, end, parent).
The hot ``Scalar`` dunders keep a call counter and accumulated time instead.

Self time is derived after the run: a span's duration minus the spans it
caused and minus the counted ``Scalar`` time spent directly inside it.  A
counted dunder's own time excludes counted dunders nested inside it (floor
calls ``_cmp``), so every second is attributed to exactly one name and the
self times sum to at most the traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

MODULES = ("scalars", "linalg", "polyhedra", "toric", "surface", "theorems", "cli")
# private names that are layer entry points in their own right
EXTRA = {"polyhedra": ("_vertex_set",)}
# hot dunders: counter name -> Scalar attributes sharing that counter
COUNTED = {
    "scalars.floor": ("__floor__",),
    "scalars.cmp": ("_cmp",),
    "scalars.mul": ("__mul__", "__rmul__"),
}
CACHED = ("polyhedra._vertex_set", "toric.ample_divisor")


def _targets(mod):
    """(name, function) pairs to wrap: functions defined in the module and
    not private, plus the EXTRA entry points."""
    short = mod.__name__.rsplit(".", 1)[-1]
    extra = EXTRA.get(short, ())
    for name, obj in vars(mod).items():
        if name.startswith("_") and name not in extra:
            continue
        is_cached = hasattr(obj, "cache_info")
        if not (inspect.isfunction(obj) or is_cached):
            continue
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        yield name, obj


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.op = -1  # set by the caller before each operation
        self.names: list[str] = []
        self.spans: list[list] = []  # [op, name index, start, end, parent, counted_s]
        self.results: dict[str, int] = {}  # polyhedra.lattice.points
        self.counters = {name: [0, 0.0] for name in COUNTED}
        self.cache_start: dict[str, tuple] = {}
        self.cached: dict[str, object] = {}
        self._stack: list[list] = []
        self._state = [0, 0.0]  # counted-dunder depth, counted time of nested dunders
        self._undo: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self):
        import rdiv

        pkg = [m for name, m in sys.modules.items() if name == "rdiv" or name.startswith("rdiv.")]
        for short in MODULES:
            mod = sys.modules.get(f"rdiv.{short}")
            if mod is None:
                continue
            for name, fn in list(_targets(mod)):
                qual = f"{short}.{name}"
                if qual in CACHED:
                    self.cached[qual] = fn
                    self.cache_start[qual] = tuple(fn.cache_info())
                wrapper = self._span_wrapper(qual, fn)
                for holder in pkg:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, attr, wrapper)
        scalar = rdiv.Scalar
        for counter, attrs in COUNTED.items():
            for attr in attrs:
                self._patch(scalar, attr, self._counted_wrapper(counter, scalar.__dict__[attr]))
        return self

    def uninstall(self):
        while self._undo:
            holder, attr, value = self._undo.pop()
            setattr(holder, attr, value)

    def _patch(self, holder, attr, value):
        self._undo.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, value)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, qual, fn):
        index = len(self.names)
        self.names.append(qual)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self
        points = qual in ("polyhedra.lattice_points", "polyhedra.lattice_point_list")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [tracer.op, index, clock(), 0.0, stack[-1] if stack else None, 0.0]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if points:
                n = result if isinstance(result, int) else len(result)
                tracer.results["polyhedra.lattice.points"] = (
                    tracer.results.get("polyhedra.lattice.points", 0) + n
                )
            return result

        return wrapper

    def _counted_wrapper(self, counter, fn):
        tally, state, stack, clock = self.counters[counter], self._state, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args):
            outer_nested = state[1]
            state[0] += 1
            state[1] = 0.0
            start = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - start
                tally[0] += 1
                tally[1] += elapsed - state[1]
                state[0] -= 1
                if state[0]:
                    state[1] = outer_nested + elapsed
                else:
                    state[1] = 0.0
                    if stack:
                        stack[-1][5] += elapsed

        return wrapper

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, list]:
        """name -> [calls, self seconds] for every span name that ran."""
        child = {}
        for rec in self.spans:
            parent = rec[4]
            if parent is not None:
                child[id(parent)] = child.get(id(parent), 0.0) + (rec[3] - rec[2])
        out: dict[str, list] = {}
        for rec in self.spans:
            row = out.setdefault(self.names[rec[1]], [0, 0.0])
            row[0] += 1
            row[1] += (rec[3] - rec[2]) - child.get(id(rec), 0.0) - rec[5]
        return out

    def cache_deltas(self) -> dict[str, dict]:
        out = {}
        for qual, fn in self.cached.items():
            hits0, misses0, _, _ = self.cache_start[qual]
            info = fn.cache_info()
            out[qual] = {
                "hits": info.hits - hits0,
                "misses": info.misses - misses0,
                "size": info.currsize,
            }
        return out

    def export_spans(self) -> dict:
        """Spans as plain data, times in seconds from the tracer's start;
        parent is an index into the span list."""
        position = {id(rec): i for i, rec in enumerate(self.spans)}
        rows = [
            [
                rec[0],
                rec[1],
                round(rec[2] - self.t0, 7),
                round(rec[3] - self.t0, 7),
                -1 if rec[4] is None else position[id(rec[4])],
            ]
            for rec in self.spans
        ]
        fields = ["op", "name", "start_s", "end_s", "parent"]
        return {"fields": fields, "names": self.names, "spans": rows}

    def summary(self) -> dict:
        return {
            "spans": self.self_times(),
            "counters": {k: list(v) for k, v in self.counters.items()},
            "caches": self.cache_deltas(),
            "results": dict(self.results),
        }


def merge_summaries(parts) -> dict:
    out = {"spans": {}, "counters": {}, "caches": {}, "results": {}}
    for part in parts:
        for key in ("spans", "counters"):
            for name, (calls, self_s) in part[key].items():
                row = out[key].setdefault(name, [0, 0.0])
                row[0] += calls
                row[1] += self_s
        for name, info in part["caches"].items():
            row = out["caches"].setdefault(name, {"hits": 0, "misses": 0, "size": 0})
            row["hits"] += info["hits"]
            row["misses"] += info["misses"]
            row["size"] = max(row["size"], info["size"])
        for name, value in part["results"].items():
            out["results"][name] = out["results"].get(name, 0) + value
    return out


def merge_cli_traces(path) -> dict:
    """Summary of the traced cli processes that appended to ``path``."""
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    merged = merge_summaries(r["summary"] for r in records)
    merged["import_s"] = [r["import_s"] for r in records]
    return merged


def _calls(summary, *names):
    return sum(summary["spans"].get(n, (0, 0.0))[0] for n in names)


def _self(summary, *names):
    return sum(summary["spans"].get(n, (0, 0.0))[1] for n in names)


def _prefixed(summary, prefix):
    return [n for n in summary["spans"] if n.startswith(prefix)]


def layer_metrics(summary) -> dict:
    """Per-layer metric name -> value, from a (merged) tracer summary."""
    s = summary
    vcache = s["caches"].get("polyhedra._vertex_set", {"hits": 0, "misses": 0, "size": 0})
    lookups = vcache["hits"] + vcache["misses"]
    ample = s["caches"].get("toric.ample_divisor", {"misses": 0})
    lattice = ("polyhedra.lattice_points", "polyhedra.lattice_point_list")
    linalg = _prefixed(s, "linalg.")
    imports = sorted(s.get("import_s", []))
    out = {
        "polyhedra.lp.calls": _calls(s, "polyhedra.lp_solve"),
        "polyhedra.lp.self_s": _self(s, "polyhedra.lp_solve"),
        "polyhedra.vertices.calls": _calls(s, "polyhedra._vertex_set"),
        "polyhedra.vertices.self_s": _self(s, "polyhedra._vertex_set", "polyhedra.vertices"),
        "polyhedra.vertex_cache.hit_ratio": vcache["hits"] / lookups if lookups else 0.0,
        "polyhedra.vertex_cache.size": vcache["size"],
        "polyhedra.volume.self_s": _self(
            s, "polyhedra.euclidean_volume", "polyhedra.facet_lattice_volume"
        ),
        "polyhedra.lattice.calls": _calls(s, *lattice),
        "polyhedra.lattice.points": s["results"].get("polyhedra.lattice.points", 0),
        "polyhedra.lattice.self_s": _self(s, *lattice),
        "linalg.calls": _calls(s, *linalg),
        "linalg.self_s": _self(s, *linalg),
        "toric.sigma.calls": _calls(s, "toric.sigma"),
        "toric.sigma.self_s": _self(s, "toric.sigma"),
        "toric.bplus.calls": _calls(s, "toric.bplus_div"),
        "toric.bplus.self_s": _self(s, "toric.bplus_div"),
        "toric.ample.cache_misses": ample["misses"],
        "toric.h0.self_s": _self(s, "toric.h0"),
        "toric.volume.self_s": _self(s, "toric.volume"),
        "toric.predicates.self_s": _self(s, "toric.is_big", "toric.is_nef"),
        "surface.h0.calls": _calls(s, "surface.h0_surface"),
        "surface.h0.self_s": _self(s, "surface.h0_surface", "surface.h0_class"),
        "surface.zariski.self_s": _self(s, "surface.zariski"),
        "theorems.check.self_s": _self(
            s, "theorems.check_theorem_a", "theorems.check_theorem_b", "theorems.negsections_check"
        ),
        "cli.import_s": imports[len(imports) // 2] if imports else 0.0,
        "cli.run.self_s": _self(s, *_prefixed(s, "cli.")),
    }
    for name, (calls, self_s) in s["counters"].items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    return out


def total_self_s(summary) -> float:
    """Every self time the trace attributed, spans and counted dunders."""
    return sum(v[1] for v in summary["spans"].values()) + sum(
        v[1] for v in summary["counters"].values()
    )

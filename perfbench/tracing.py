"""Span tracing of ihspoly's public functions, installed from outside.

``install`` wraps every public function of each layer module, the
public methods of the classes it defines and the arithmetic and
comparison operators of those classes, and rebinds each wrapper
wherever an ihspoly module bound the original (``from .x import y``,
aliases included), so calls between modules are seen too.  While the
tracer is active each call records a span (name, start, end, parent);
spans stay in flat in-memory arrays and are written out once, at the
end of the run.  Nothing under ``src/`` changes.

Two spans carry an argument: the (geometry, class) pair of
``zariski.decompose`` and the geometry of
``minkowski.movable_cone_rays``, each as a key id in first-seen order,
for the repeat ratios; and the input point count of
``polygon2d.convex_hull``.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("surd", "linalg", "lattice", "geometry", "linprog", "polygon2d",
          "zariski", "okounkov", "minkowski", "checks", "report", "cli")
OPERATORS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__abs__",
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
})
KEYED = ("zariski.decompose", "minkowski.movable_cone_rays")
POINTS = "polygon2d.convex_hull"
COUNTED = ("zariski.decompose", "geometry.is_pseudo_effective",
           "linprog.nonneg_combination", "linprog.max_step",
           "minkowski.movable_cone_rays", "linprog.prune_to_extremal",
           "linalg.inertia", "lattice.pair", "linalg.solve",
           "polygon2d.minkowski_sum")
COLUMNS = (("name", "i"), ("parent", "i"), ("arg", "q"), ("error", "b"),
           ("start", "d"), ("end", "d"))


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.errors"] = "count"
    for name in COUNTED:
        units[f"{name}.calls"] = "count"
    for name in KEYED:
        units[f"{name}.repeat_ratio"] = "ratio"
    units[f"{POINTS}.points"] = "count"
    units["cli.import_s"] = "s"
    units["geometry.load_geometry.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self.cols = {name: array(code) for name, code in COLUMNS}
        self._stack = [-1]
        self._keys: dict = {}
        self._geometries: dict = {}  # id -> (geometry, key); holds a reference so ids stay unique

    def open(self, name_id: int, arg: int) -> int:
        c = self.cols
        idx = len(c["start"])
        c["name"].append(name_id)
        c["parent"].append(self._stack[-1])
        c["arg"].append(arg)
        c["error"].append(0)
        c["end"].append(0.0)
        self._stack.append(idx)
        c["start"].append(perf_counter())
        return idx

    def close(self, idx: int, error: bool) -> None:
        self.cols["end"][idx] = perf_counter()
        self.cols["error"][idx] = error
        self._stack.pop()

    def key_id(self, key) -> int:
        return self._keys.setdefault(key, len(self._keys))

    def geometry_key(self, geom):
        held = self._geometries.get(id(geom))
        if held is None:
            lat = geom.lattice
            key = (geom.name, geom.mode, geom.basis, lat.gram, lat.fujiki, lat.half_dim,
                   tuple((p.name, p.cls.coords, p.exceptional) for p in geom.primes),
                   tuple(g.coords for g in geom.effective_generators),
                   geom.ample.coords if geom.ample is not None else None)
            held = self._geometries[id(geom)] = (geom, key)
        return held[1]

    def write(self, path: Path, extra: dict) -> None:
        header = {"names": self.names, "count": len(self.cols["start"]),
                  "columns": COLUMNS, **extra}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for name, _ in COLUMNS:
                self.cols[name].tofile(fh)


def read_spans(path: Path) -> tuple[dict, dict]:
    """Header and columns of a span file written by ``Tracer.write``."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for name, code in header["columns"]:
            cols[name] = array(code)
            cols[name].fromfile(fh, header["count"])
    return header, cols


# ---------------------------------------------------------------------------
# installation


def _probe(tracer: Tracer, name: str):
    """(args, kwargs) -> (args, kwargs, arg) for the spans that carry one."""
    if name == "zariski.decompose":
        def probe(args, kwargs):
            geom, d = args if len(args) == 2 else (kwargs["geom"], kwargs["d"])
            return args, kwargs, tracer.key_id((tracer.geometry_key(geom), d.coords))
    elif name == "minkowski.movable_cone_rays":
        def probe(args, kwargs):
            geom = args[0] if args else kwargs["geom"]
            return args, kwargs, tracer.key_id(tracer.geometry_key(geom))
    elif name == POINTS:
        def probe(args, kwargs):
            points = list(args[0] if args else kwargs.pop("points"))
            return (points,), kwargs, len(points)
    else:
        return None
    return probe


def _wrap(tracer: Tracer, fn, name: str):
    name_id = len(tracer.names)
    tracer.names.append(name)
    probe = _probe(tracer, name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        arg = -1
        if probe is not None:
            args, kwargs, arg = probe(args, kwargs)
        idx = tracer.open(name_id, arg)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(idx, True)
            raise
        tracer.close(idx, False)
        return result

    return traced


def _generated(fn) -> bool:
    """Methods written by @dataclass have no source file."""
    return fn.__code__.co_filename == "<string>"


def _targets(module, layer: str):
    """(owner, attribute, raw attribute, function, span name) to wrap."""
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, attr, obj, obj, f"{layer}.{attr}"
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for member, raw in vars(obj).items():
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if not inspect.isfunction(fn) or _generated(fn):
                    continue
                if member.startswith("_") and member not in OPERATORS:
                    continue
                yield obj, member, raw, fn, f"{layer}.{member}"


def install(tracer: Tracer, package) -> None:
    """Wrap the layer modules of a freshly imported ``package``."""
    modules = {name: mod for name, mod in sys.modules.items()
               if name == package.__name__ or name.startswith(package.__name__ + ".")}
    wrappers: dict = {}  # id(original function) -> wrapper
    taken: set[str] = set()
    for layer in LAYERS:
        module = modules.get(f"{package.__name__}.{layer}")
        if module is None:
            continue
        for owner, attr, raw, fn, name in list(_targets(module, layer)):
            if name in taken:
                name = f"{layer}.{owner.__name__}.{attr}"
            taken.add(name)
            wrapper = _wrap(tracer, fn, name)
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, attr, type(raw)(wrapper))
            else:
                setattr(owner, attr, wrapper)
                if owner is module:
                    wrappers[id(fn)] = (fn, wrapper)
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(span_sets, import_s: list[float], overhead_s: float) -> dict[str, float]:
    """Per-layer metrics from span sets (one per process).

    Self time is a span's duration minus its direct children's.  Repeat
    ratios count calls on a key already seen in the same process.
    """
    calls: Counter = Counter()
    errors: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    repeats: Counter = Counter()
    points = 0
    for header, cols in span_sets:
        names = header["names"]
        start, end, parent = cols["start"], cols["end"], cols["parent"]
        child = [0.0] * len(start)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += end[i] - start[i]
        seen: defaultdict = defaultdict(set)
        for i, name_id in enumerate(cols["name"]):
            name = names[name_id]
            calls[name] += 1
            errors[name] += cols["error"][i]
            self_s[name] += end[i] - start[i] - child[i]
            if name in KEYED:
                arg = cols["arg"][i]
                repeats[name] += arg in seen[name]
                seen[name].add(arg)
            elif name == POINTS:
                points += cols["arg"][i]

    def layer_sum(table, layer):
        return sum(v for n, v in table.items() if n.split(".", 1)[0] == layer)

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = layer_sum(calls, layer)
        out[f"{layer}.self_s"] = float(layer_sum(self_s, layer))
        out[f"{layer}.errors"] = layer_sum(errors, layer)
    for name in COUNTED:
        out[f"{name}.calls"] = calls[name]
    for name in KEYED:
        out[f"{name}.repeat_ratio"] = repeats[name] / calls[name] if calls[name] else 0.0
    out[f"{POINTS}.points"] = points
    out["cli.import_s"] = statistics.median(import_s) if import_s else 0.0
    out["geometry.load_geometry.self_s"] = self_s["geometry.load_geometry"]
    out["trace.overhead_s"] = overhead_s
    return out

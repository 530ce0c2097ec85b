"""Spans recorded around the program's public functions, from outside.

install() wraps every public function and public method of the package's
modules.  The package imports names with `from ... import`, so a wrapper
replaces the original in every module namespace that holds it, and in
the lists and dicts of handlers that refer to it (acceptance.BASE_SUITES,
cli._HANDLERS, serialize.PARSERS).  Each call appends one span to
in-memory columns: name, parent span, op id, start, end and a count.
The columns are written out once, after the traced pass.

The per-layer metrics are derived from those columns: calls, self time
(a span's duration minus the part its child spans cover), total time of
the outermost spans of a name, and counts taken from arguments or
results (elements summed, matrix cells reduced, bytes parsed).
"""

import inspect
import time
from array import array

import numpy as np

LAYERS = ("fields", "linalg", "poly", "algebras", "wedderburn", "lifting", "modules",
          "towers", "matrixtop", "endo", "serialize", "corpus", "acceptance", "cli")


def _size(a, k, res):
    return int(np.size(a[1]))


def _found(a, k, res):
    return int(res is not None)


def _text_bytes(a, k, res):
    return len(a[0].encode("utf-8"))


# span name -> count taken from (args, kwargs, result)
COUNTERS = {
    "fields.FiniteField.fsum": _size,
    "linalg.rref": _size,
    "modules.find_isomorphism": _found,
    "serialize.parse_algebra": _text_bytes,
    "serialize.parse_module": _text_bytes,
    "serialize.parse_tower": _text_bytes,
    "serialize.parse_matrix": _text_bytes,
    "serialize.parse_system": _text_bytes,
}


class Tracer:
    """Span columns plus the stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name_col = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self.stack: list[int] = []
        self.current_op = -1

    def wrap(self, fn, name: str):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        counter = COUNTERS.get(name)
        stack, clock = self.stack, time.perf_counter
        name_col, parent, op = self.name_col, self.parent, self.op
        start, end, count = self.start, self.end, self.count

        def traced(*args, **kwargs):
            i = len(start)
            name_col.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            end.append(0.0)
            count.append(0)
            stack.append(i)
            start.append(clock())
            try:
                res = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if counter is not None:
                count[i] = counter(args, kwargs, res)
            return res

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "count": np.frombuffer(self.count, dtype=np.int64).copy(),
        }

    def save(self, path: str, suites: dict[str, str]) -> None:
        np.savez_compressed(path, names=np.array(self.names), suite_fn=np.array(list(suites)),
                            suite_name=np.array(list(suites.values())), **self.columns())


def _public_functions(mod):
    """(owner, attribute, function, span name) for the module's own API."""
    layer = mod.__name__.rsplit(".", 1)[-1]
    for attr, obj in sorted(vars(mod).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield mod, attr, obj, f"{layer}.{attr}"
        elif inspect.isclass(obj):
            for meth, fn in sorted(vars(obj).items()):
                if not meth.startswith("_") and inspect.isfunction(fn):
                    yield obj, meth, fn, f"{layer}.{attr}.{meth}"


def _replace_in(value, swap: dict):
    """value with every wrapped function swapped, inside tuples too."""
    if isinstance(value, tuple):
        return tuple(_replace_in(v, swap) for v in value)
    return swap.get(id(value), value)


def install(tracer: Tracer, package) -> dict[str, str]:
    """Wrap the package's public API; return suite function -> suite name."""
    import importlib

    mods = [importlib.import_module(f"{package.__name__}.{name}") for name in LAYERS]
    swap: dict[int, object] = {}
    for mod in mods:
        for owner, attr, fn, name in list(_public_functions(mod)):
            wrapped = tracer.wrap(fn, name)
            swap[id(fn)] = wrapped
            setattr(owner, attr, wrapped)
    for mod in mods:
        for attr, value in list(vars(mod).items()):
            if id(value) in swap:
                setattr(mod, attr, swap[id(value)])
            elif isinstance(value, list):
                value[:] = [_replace_in(v, swap) for v in value]
            elif isinstance(value, dict):
                for k in list(value):
                    value[k] = _replace_in(value[k], swap)
    acceptance = mods[LAYERS.index("acceptance")]
    return {fn.__name__: name for name, fn in acceptance.BASE_SUITES}


# ---------------------------------------------------------------------------
# derived metrics


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    dur = end - start
    child = np.zeros_like(dur)
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    return dur - child


def outermost(name: np.ndarray, parent: np.ndarray, nid: int) -> np.ndarray:
    """Indexes of spans named nid with no ancestor of the same name."""
    out = []
    for i in np.flatnonzero(name == nid):
        p = parent[i]
        while p >= 0 and name[p] != nid:
            p = parent[p]
        if p < 0:
            out.append(i)
    return np.array(out, dtype=np.int64)


ACCEPTANCE_SUITES = ("radical-correctness", "wedderburn-round-trip", "idempotent-lifting",
                     "matrix-topology", "contratensor", "tp-formula", "perfectness-coherence",
                     "negative-showcase", "semisimple-recognition")

# metric name -> (unit, kind, span names); kinds: calls, self, count, total,
# ratio (count over calls), layer (self time of every span in the layer)
LAYER_METRICS = {
    "fields.fsum.calls": ("count", "calls", ["fields.FiniteField.fsum"]),
    "fields.fsum.self_s": ("s", "self", ["fields.FiniteField.fsum"]),
    "fields.fsum.elements": ("count", "count", ["fields.FiniteField.fsum"]),
    "linalg.rref.calls": ("count", "calls", ["linalg.rref"]),
    "linalg.rref.self_s": ("s", "self", ["linalg.rref"]),
    "linalg.rref.cells": ("count", "count", ["linalg.rref"]),
    "linalg.matmul.self_s": ("s", "self", ["linalg.matmul"]),
    "linalg.self_s": ("s", "layer", ["linalg"]),
    "poly.factor_poly.calls": ("count", "calls", ["poly.factor_poly"]),
    "poly.self_s": ("s", "layer", ["poly"]),
    "algebras.mul.calls": ("count", "calls", ["algebras.StructureAlgebra.mul"]),
    "algebras.mul.self_s": ("s", "self", ["algebras.StructureAlgebra.mul"]),
    "algebras.mul_rows.calls": ("count", "calls", ["algebras.StructureAlgebra.mul_rows"]),
    "algebras.mul_rows.self_s": ("s", "self", ["algebras.StructureAlgebra.mul_rows"]),
    "algebras.diagnostics.self_s": ("s", "self", ["algebras.StructureAlgebra.diagnostics"]),
    "algebras.radical.total_s": ("s", "total", ["algebras.radical"]),
    "algebras.quotient.total_s": ("s", "total", ["algebras.quotient"]),
    "algebras.self_s": ("s", "layer", ["algebras"]),
    "wedderburn.wedderburn.calls": ("count", "calls", ["wedderburn.wedderburn"]),
    "wedderburn.wedderburn.total_s": ("s", "total", ["wedderburn.wedderburn"]),
    "wedderburn.self_s": ("s", "layer", ["wedderburn"]),
    "lifting.lift_idempotent.calls": ("count", "calls", ["lifting.lift_idempotent"]),
    "lifting.self_s": ("s", "layer", ["lifting"]),
    "modules.endo_algebra.calls": ("count", "calls", ["modules.endo_algebra"]),
    "modules.endo_algebra.self_s": ("s", "self", ["modules.endo_algebra"]),
    "modules.hom_space.calls": ("count", "calls", ["modules.hom_space"]),
    "modules.hom_space.self_s": ("s", "self", ["modules.hom_space"]),
    "modules.find_isomorphism.calls": ("count", "calls", ["modules.find_isomorphism"]),
    "modules.find_isomorphism.found_ratio": ("ratio", "ratio", ["modules.find_isomorphism"]),
    "modules.decompose_indecomposable.total_s":
        ("s", "total", ["modules.decompose_indecomposable"]),
    "modules.self_s": ("s", "layer", ["modules"]),
    "towers.classify_perfect.total_s": ("s", "total", ["towers.classify_perfect"]),
    "towers.topological_jacobson_radical.total_s":
        ("s", "total", ["towers.topological_jacobson_radical"]),
    "towers.strongly_closed_check.total_s": ("s", "total", ["towers.strongly_closed_check"]),
    "towers.self_s": ("s", "layer", ["towers"]),
    "matrixtop.mat_mul.calls": ("count", "calls", ["matrixtop.mat_mul"]),
    "matrixtop.mat_mul.self_s": ("s", "self", ["matrixtop.mat_mul"]),
    "matrixtop.contratensor.total_s": ("s", "total", ["matrixtop.contratensor"]),
    "matrixtop.self_s": ("s", "layer", ["matrixtop"]),
    "endo.sigma_coperfect_check.total_s": ("s", "total", ["endo.sigma_coperfect_check"]),
    "endo.perfectness_bridge.total_s": ("s", "total", ["endo.perfectness_bridge"]),
    "endo.bass_flat.calls": ("count", "calls", ["endo.bass_flat"]),
    "endo.self_s": ("s", "layer", ["endo"]),
    "serialize.parse.self_s": ("s", "self", [f"serialize.parse_{k}" for k in
                                             ("algebra", "module", "tower", "matrix", "system")]),
    "serialize.parse.bytes": ("bytes", "count", [f"serialize.parse_{k}" for k in
                                                 ("algebra", "module", "tower", "matrix",
                                                  "system")]),
    "serialize.report.self_s": ("s", "self", ["serialize.Report.add", "serialize.Report.sparse",
                                              "serialize.Report.text"]),
    "corpus.render_all.total_s": ("s", "total", ["corpus.render_all"]),
    **{f"acceptance.{s}.first_s": ("s", "first", [s]) for s in ACCEPTANCE_SUITES},
    "acceptance.determinism.total_s": ("s", "total", ["acceptance.suite_determinism"]),
    "cli.self_s": ("s", "layer", ["cli"]),
}


def layer_metrics(data) -> dict[str, tuple[float, str]]:
    """Every LAYER_METRICS entry from saved span columns."""
    names = [str(n) for n in data["names"]]
    nid = {n: i for i, n in enumerate(names)}
    name, parent = data["name"], data["parent"]
    start, end, count = data["start"], data["end"], data["count"]
    selfs = self_times(start, end, parent)
    dur = end - start
    layer_of = np.array([n.split(".", 1)[0] for n in names] or [""])
    suite_fn = {str(s): str(f) for f, s in zip(data["suite_fn"], data["suite_name"])}
    out = {}
    for metric, (unit, kind, targets) in LAYER_METRICS.items():
        if kind == "layer":
            ids = np.flatnonzero(layer_of == targets[0])
        else:
            fn_names = [f"acceptance.{suite_fn.get(t, t)}" for t in targets] if kind == "first" \
                else targets
            ids = np.array([nid[t] for t in fn_names if t in nid], dtype=np.int64)
        mask = np.isin(name, ids)
        if kind == "calls":
            value = float(mask.sum())
        elif kind in ("self", "layer"):
            value = float(selfs[mask].sum())
        elif kind == "count":
            value = float(count[mask].sum())
        elif kind == "ratio":
            calls = mask.sum()
            value = float(count[mask].sum() / calls) if calls else 0.0
        elif kind == "total":
            value = float(sum(dur[outermost(name, parent, i)].sum() for i in ids))
        else:  # first call of a suite in each op
            value = 0.0
            for i in ids:
                for o in np.unique(data["op"][name == i]):
                    value += float(dur[np.flatnonzero((name == i) & (data["op"] == o))[0]])
        out[metric] = (value, unit)
    return out


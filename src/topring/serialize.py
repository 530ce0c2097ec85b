"""Description files and reports as canonical structured text.

Every file holds one object:

    object <kind>           kind: algebra | module | tower | matrix | system
    <key> <ints or ref>     keys in the fixed order listed per kind below
    end

Lines are whitespace-split; `#` starts a comment; blank lines are
skipped.  Writers emit keys in one canonical order, sparse entries
sorted, nothing else, so parse -> write reproduces the bytes exactly.
Cross references (`algebra`, `level`, `module` keys) name another file
relative to the referencing file's directory; the loader caches parsed
files by real path, so two objects naming the same algebra file share
one StructureAlgebra instance.

    algebra:  field p d m_0..m_d / dim n / unit ... / c i j k v
    module:   algebra ref / side / dim m / act a r c v
    tower:    intent / levels n / level i ref / transition n r c v
    matrix:   algebra ref / y finite|omega / window W / entry x z t v /
              extra x c t v / tail x <row> / precision x <row>
    system:   ground tag / modules n / module i ref / map n r c v

Reports share the lexical rules with `report <verb>` ... `end` framing
and never contain timestamps; rerunning a job byte-reproduces them.
"""

import os

import numpy as np

from . import linalg
from .algebras import AlgebraError, StructureAlgebra
from .endo import OmegaSystem, omega_system
from .fields import GF
from .matrixtop import WindowedMatrix, windowed
from .modules import FiniteModule
from .towers import RingTower, build_tower


class ParseError(ValueError):
    """Malformed description text (bad syntax, not bad mathematics)."""


def _records(text: str) -> list[list[str]]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line.split())
    return out


def _ints(rec: list[str], start: int = 1) -> list[int]:
    try:
        return [int(tok) for tok in rec[start:]]
    except ValueError as exc:
        raise ParseError(f"non-integer token in {' '.join(rec)!r}") from exc


def _count(rec: list[str]) -> int:
    """The one integer of a count line (`dim`, `window`, `levels`, `modules`)."""
    vals = _ints(rec)
    if len(vals) != 1:
        raise ParseError(f"{rec[0]} line takes one integer: {' '.join(rec)!r}")
    if vals[0] < 1:
        raise ParseError(f"{rec[0]} line needs a count of at least 1: {' '.join(rec)!r}")
    return vals[0]


def _sparse_record(rec: list[str], records: dict, usage: str) -> None:
    """Add one `key i j k v` record to records[(i, j, k)] = v.

    A repeated index is a ParseError, whatever the values: keeping either
    one silently would turn a typo into a different object."""
    vals = _ints(rec)
    if len(vals) != 4:
        raise ParseError(f"{usage}: {' '.join(rec)!r}")
    idx = tuple(vals[:3])
    if idx in records:
        raise ParseError(f"duplicate {rec[0]} record at index {idx}")
    records[idx] = vals[3]


def _indexed_ref(rec: list[str], refs: dict, usage: str) -> int:
    """Index of a `key i path` reference line, new among refs."""
    if len(rec) != 3:
        raise ParseError(usage)
    idx = _ints(rec[:2])[0]
    if idx in refs:
        raise ParseError(f"duplicate {rec[0]} line for index {idx}")
    return idx


def _framed(text: str, kind: str) -> list[list[str]]:
    recs = _records(text)
    if not recs or recs[0][:2] != ["object", kind]:
        raise ParseError(f"expected an 'object {kind}' header")
    if recs[-1] != ["end"]:
        raise ParseError("missing 'end' line")
    return recs[1:-1]


def object_kind(text: str) -> str:
    recs = _records(text)
    if not recs or recs[0][0] != "object" or len(recs[0]) != 2:
        raise ParseError("expected an 'object <kind>' header")
    return recs[0][1]


# ---------------------------------------------------------------------------
# Algebras
# ---------------------------------------------------------------------------


def write_algebra(A: StructureAlgebra) -> str:
    F = A.field
    lines = ["object algebra"]
    lines.append("field " + " ".join(str(t) for t in (F.p, F.d, *F.modulus)))
    lines.append(f"dim {A.dim}")
    lines.append("unit " + " ".join(str(t) for t in A.unit))
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                v = int(A.c[i, j, k])
                if v:
                    lines.append(f"c {i} {j} {k} {v}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_algebra(text: str) -> StructureAlgebra:
    field = None
    dim = None
    unit = None
    triples: dict = {}
    for rec in _framed(text, "algebra"):
        key = rec[0]
        if key == "field":
            vals = _ints(rec)
            if len(vals) < 3:
                raise ParseError("field line needs p d and modulus coefficients")
            p, d, mod = vals[0], vals[1], vals[2:]
            if len(mod) != d + 1:
                raise ParseError(f"modulus needs {d + 1} coefficients, got {len(mod)}")
            field = GF(p, d, tuple(mod))
        elif key == "dim":
            dim = _count(rec)
        elif key == "unit":
            unit = _ints(rec)
        elif key == "c":
            _sparse_record(rec, triples, "structure line needs i j k v")
        else:
            raise ParseError(f"unknown algebra key {key!r}")
    if field is None or dim is None or unit is None:
        raise ParseError("algebra needs field, dim, and unit lines")
    if len(unit) != dim:
        raise ParseError("unit length differs from dim")
    c = np.zeros((dim, dim, dim), dtype=np.int64)
    for (i, j, k), v in triples.items():
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise ParseError(f"structure index ({i}, {j}, {k}) outside dim {dim}")
        c[i, j, k] = v
    return StructureAlgebra(field, c, np.array(unit, dtype=np.int64), check=True)


# ---------------------------------------------------------------------------
# Modules
# ---------------------------------------------------------------------------


def write_module(M: FiniteModule, algebra_ref: str) -> str:
    lines = ["object module", f"algebra {algebra_ref}", f"side {M.side}", f"dim {M.dim}"]
    for a in range(M.algebra.dim):
        for r in range(M.dim):
            for c in range(M.dim):
                v = int(M.action[a, r, c])
                if v:
                    lines.append(f"act {a} {r} {c} {v}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_module(text: str, loader: "Loader", base_dir: str) -> FiniteModule:
    algebra = None
    side = None
    dim = None
    quads: dict = {}
    for rec in _framed(text, "module"):
        key = rec[0]
        if key == "algebra":
            if len(rec) != 2:
                raise ParseError("algebra reference takes one path")
            algebra = loader.algebra(os.path.join(base_dir, rec[1]))
        elif key == "side":
            if len(rec) != 2 or rec[1] not in ("left", "right"):
                raise ParseError("side must be left or right")
            side = rec[1]
        elif key == "dim":
            dim = _count(rec)
        elif key == "act":
            _sparse_record(rec, quads, "action line needs a r c v")
        else:
            raise ParseError(f"unknown module key {key!r}")
    if algebra is None or side is None or dim is None:
        raise ParseError("module needs algebra, side, and dim lines")
    action = np.zeros((algebra.dim, dim, dim), dtype=np.int64)
    for (a, r, c), v in quads.items():
        if not (0 <= a < algebra.dim and 0 <= r < dim and 0 <= c < dim):
            raise ParseError(f"action index ({a}, {r}, {c}) out of range")
        action[a, r, c] = v
    return FiniteModule(algebra, action, side=side, check=True)


# ---------------------------------------------------------------------------
# Towers
# ---------------------------------------------------------------------------


def write_tower(T: RingTower, level_refs: list[str]) -> str:
    if len(level_refs) != len(T.levels):
        raise ValueError("one reference per level")
    lines = ["object tower", f"intent {T.intent}", f"levels {len(T.levels)}"]
    for i, ref in enumerate(level_refs):
        lines.append(f"level {i} {ref}")
    for n, Tr in enumerate(T.transitions):
        for r in range(Tr.shape[0]):
            for c in range(Tr.shape[1]):
                v = int(Tr[r, c])
                if v:
                    lines.append(f"transition {n} {r} {c} {v}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_tower(text: str, loader: "Loader", base_dir: str) -> RingTower:
    intent = None
    count = None
    refs: dict[int, StructureAlgebra] = {}
    quads: dict = {}
    for rec in _framed(text, "tower"):
        key = rec[0]
        if key == "intent":
            if len(rec) != 2:
                raise ParseError("intent takes one tag")
            intent = rec[1]
        elif key == "levels":
            count = _count(rec)
        elif key == "level":
            idx = _indexed_ref(rec, refs, "level line needs an index and a path")
            refs[idx] = loader.algebra(os.path.join(base_dir, rec[2]))
        elif key == "transition":
            _sparse_record(rec, quads, "transition line needs n r c v")
        else:
            raise ParseError(f"unknown tower key {key!r}")
    if intent is None or count is None:
        raise ParseError("tower needs intent and levels lines")
    if sorted(refs) != list(range(count)):
        raise ParseError(f"need level lines 0..{count - 1}")
    levels = [refs[i] for i in range(count)]
    transitions = [np.zeros((levels[n + 1].dim, levels[n].dim), dtype=np.int64)
                   for n in range(count - 1)]
    for (n, r, c), v in quads.items():
        if not 0 <= n < count - 1:
            raise ParseError(f"transition index {n} out of range")
        if not (0 <= r < transitions[n].shape[0] and 0 <= c < transitions[n].shape[1]):
            raise ParseError(f"transition entry ({r}, {c}) outside level shapes")
        transitions[n][r, c] = v
    return build_tower(levels, transitions, intent=intent)


# ---------------------------------------------------------------------------
# Windowed matrices
# ---------------------------------------------------------------------------


def write_matrix(m: WindowedMatrix, algebra_ref: str) -> str:
    lines = ["object matrix", f"algebra {algebra_ref}", f"y {m.y_kind}",
             f"window {m.window}"]
    for x in range(m.window):
        for z in range(m.window):
            for t in range(m.base.dim):
                v = int(m.entries[x, z, t])
                if v:
                    lines.append(f"entry {x} {z} {t} {v}")
    for x in range(m.window):
        for c, vec in m.extras[x]:
            for t in range(m.base.dim):
                v = int(vec[t])
                if v:
                    lines.append(f"extra {x} {c} {t} {v}")
    for x in range(m.window):
        for row in m.tails[x]:
            lines.append(f"tail {x} " + " ".join(str(int(t)) for t in row))
    for x in range(m.window):
        for row in m.precisions[x]:
            lines.append(f"precision {x} " + " ".join(str(int(t)) for t in row))
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_matrix(text: str, loader: "Loader", base_dir: str) -> WindowedMatrix:
    base = None
    y_kind = None
    window = None
    entry_quads: dict = {}
    extra_quads: dict = {}
    tail_rows = []
    precision_rows = []
    for rec in _framed(text, "matrix"):
        key = rec[0]
        if key == "algebra":
            if len(rec) != 2:
                raise ParseError("algebra reference takes one path")
            base = loader.algebra(os.path.join(base_dir, rec[1]))
        elif key == "y":
            if len(rec) != 2 or rec[1] not in ("finite", "omega"):
                raise ParseError("y must be finite or omega")
            y_kind = rec[1]
        elif key == "window":
            window = _count(rec)
        elif key == "entry":
            _sparse_record(rec, entry_quads, "entry line needs x z t v")
        elif key == "extra":
            _sparse_record(rec, extra_quads, "extra line needs x c t v")
        elif key == "tail":
            tail_rows.append(_ints(rec))
        elif key == "precision":
            precision_rows.append(_ints(rec))
        else:
            raise ParseError(f"unknown matrix key {key!r}")
    if base is None or y_kind is None or window is None:
        raise ParseError("matrix needs algebra, y, and window lines")
    entries = np.zeros((window, window, base.dim), dtype=np.int64)
    for (x, z, t), v in entry_quads.items():
        if not (0 <= x < window and 0 <= z < window and 0 <= t < base.dim):
            raise ParseError(f"entry index ({x}, {z}, {t}) out of range")
        entries[x, z, t] = v
    extra_vecs: dict[tuple[int, int], np.ndarray] = {}
    for (x, c, t), v in extra_quads.items():
        if not (0 <= x < window and 0 <= t < base.dim):
            raise ParseError(f"extra index ({x}, {c}, {t}) out of range")
        extra_vecs.setdefault((x, c), np.zeros(base.dim, dtype=np.int64))[t] = v
    extras: list[list[tuple[int, np.ndarray]]] = [[] for _ in range(window)]
    for (x, c), vec in sorted(extra_vecs.items()):
        extras[x].append((c, vec))
    tails = [np.zeros((0, base.dim), dtype=np.int64) for _ in range(window)]
    precisions = [np.zeros((0, base.dim), dtype=np.int64) for _ in range(window)]
    for target, rows in ((tails, tail_rows), (precisions, precision_rows)):
        for vals in rows:
            if len(vals) != 1 + base.dim:
                raise ParseError("ideal row length differs from the base dimension")
            x = vals[0]
            if not 0 <= x < window:
                raise ParseError(f"ideal row index {x} out of range")
            target[x] = np.vstack([target[x], np.array(vals[1:], dtype=np.int64)[None, :]])
    return windowed(base, y_kind, entries, extras, tails, precisions, check=True)


# ---------------------------------------------------------------------------
# Direct systems
# ---------------------------------------------------------------------------


def write_system(S: OmegaSystem, module_refs: list[str]) -> str:
    if len(module_refs) != len(S.modules):
        raise ValueError("one reference per module")
    lines = ["object system", f"ground {S.ground}", f"modules {len(S.modules)}"]
    for i, ref in enumerate(module_refs):
        lines.append(f"module {i} {ref}")
    for n, T in enumerate(S.maps):
        for r in range(T.shape[0]):
            for c in range(T.shape[1]):
                v = int(T[r, c])
                if v:
                    lines.append(f"map {n} {r} {c} {v}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_system(text: str, loader: "Loader", base_dir: str) -> OmegaSystem:
    ground = None
    count = None
    refs: dict[int, FiniteModule] = {}
    quads: dict = {}
    for rec in _framed(text, "system"):
        key = rec[0]
        if key == "ground":
            if len(rec) != 2:
                raise ParseError("ground takes one tag")
            ground = rec[1]
        elif key == "modules":
            count = _count(rec)
        elif key == "module":
            idx = _indexed_ref(rec, refs, "module line needs an index and a path")
            refs[idx] = loader.module(os.path.join(base_dir, rec[2]))
        elif key == "map":
            _sparse_record(rec, quads, "map line needs n r c v")
        else:
            raise ParseError(f"unknown system key {key!r}")
    if ground is None or count is None:
        raise ParseError("system needs ground and modules lines")
    if sorted(refs) != list(range(count)):
        raise ParseError(f"need module lines 0..{count - 1}")
    modules = [refs[i] for i in range(count)]
    maps = [np.zeros((modules[n].dim, modules[n + 1].dim), dtype=np.int64)
            for n in range(count - 1)]
    for (n, r, c), v in quads.items():
        if not 0 <= n < count - 1:
            raise ParseError(f"map index {n} out of range")
        if not (0 <= r < maps[n].shape[0] and 0 <= c < maps[n].shape[1]):
            raise ParseError(f"map entry ({r}, {c}) outside module dimensions")
        maps[n][r, c] = v
    return omega_system(modules, maps, ground=ground)


# ---------------------------------------------------------------------------
# Loading with shared references
# ---------------------------------------------------------------------------


PARSERS = {
    "algebra": lambda text, loader, base_dir: parse_algebra(text),
    "module": parse_module,
    "tower": parse_tower,
    "matrix": parse_matrix,
    "system": parse_system,
}


class Loader:
    """Path-addressed parser cache so shared references become shared objects."""

    def __init__(self):
        self.cache: dict[str, object] = {}

    def load(self, path: str):
        real = os.path.realpath(path)
        if real in self.cache:
            return self.cache[real]
        try:
            with open(real, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from exc
        kind = object_kind(text)
        if kind not in PARSERS:
            raise ParseError(f"unknown object kind {kind!r}")
        obj = PARSERS[kind](text, self, os.path.dirname(real))
        self.cache[real] = obj
        return obj

    def _typed(self, path: str, cls, kind: str):
        obj = self.load(path)
        if not isinstance(obj, cls):
            raise AlgebraError(f"{path} holds a {type(obj).__name__}, expected {kind}")
        return obj

    def algebra(self, path: str) -> StructureAlgebra:
        return self._typed(path, StructureAlgebra, "an algebra")

    def module(self, path: str) -> FiniteModule:
        return self._typed(path, FiniteModule, "a module")

    def tower(self, path: str) -> RingTower:
        return self._typed(path, RingTower, "a tower")

    def matrix(self, path: str) -> WindowedMatrix:
        return self._typed(path, WindowedMatrix, "a matrix")

    def system(self, path: str) -> OmegaSystem:
        return self._typed(path, OmegaSystem, "a system")


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


class Report:
    """Accumulates `key value...` lines under a `report <verb>` header."""

    def __init__(self, verb: str):
        self.lines = [f"report {verb}"]

    def add(self, key: str, *values) -> None:
        parts = [key]
        for v in values:
            if isinstance(v, (np.ndarray, list, tuple)):
                parts.extend(str(int(t)) for t in np.asarray(v).ravel())
            else:
                parts.append(str(v))
        self.lines.append(" ".join(parts))

    def sparse(self, key: str, prefix: tuple[int, ...], M: np.ndarray) -> None:
        M = np.asarray(M)
        for idx in np.ndindex(*M.shape):
            v = int(M[idx])
            if v:
                self.add(key, *prefix, *idx, v)

    def text(self) -> str:
        return "\n".join(self.lines + ["end"]) + "\n"

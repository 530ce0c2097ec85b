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

One emitter, `_sparse_lines`, writes every sparse record `key *prefix
*index value`: the nonzero entries of an array in row-major order.  The
writers and `Report.sparse` all call it.  One reader, `_dense`, fills an
array of a given shape from such records; an index outside the shape is
a ParseError (exit 2).  Towers and systems share one reader of their
`tag / count / indexed references / per-link matrices` layout.

The value rule: every field value, in a sparse record (`c`, `act`,
`transition`, `map`, `entry`, `extra`) or a dense row (`unit`, `tail`,
`precision`), lies in [0, q) for the field of order q.  Any other value
is a validation error (exit 3).

Reports share the lexical rules with `report <verb>` ... `end` framing
and never contain timestamps; rerunning a job byte-reproduces them.
"""

import os
from collections.abc import Iterator

import numpy as np

from .algebras import AlgebraError, StructureAlgebra
from .endo import OmegaSystem, omega_system
from .fields import GF
from .matrixtop import WindowedMatrix, windowed
from .modules import FiniteModule
from .towers import RingTower, build_tower


class ParseError(ValueError):
    """Malformed description text (bad syntax, not bad mathematics)."""


def _records(text: str) -> Iterator[list[str]]:
    """The tokens of each line of text that is not blank once its comment
    is cut, one line at a time."""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line.split()


def _ints(rec: list[str]) -> list[int]:
    try:
        return [int(tok) for tok in rec[1:]]
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


def _in_field(key: str, vals, q: int) -> None:
    """The value rule: every value lies in [0, q); else exit 3."""
    for v in vals:
        if not 0 <= v < q:
            raise AlgebraError(f"{key} value {v} outside the field range [0, {q})")


def _dense(key: str, records: dict, shape: tuple[int, ...], q: int) -> np.ndarray:
    """The array of the given shape holding records[index] = value, zero elsewhere.

    Values are checked first, since one outside the value rule may not
    fit the int64 array; then an index outside the shape is a ParseError."""
    _in_field(key, records.values(), q)
    if any(min(axis) < 0 or max(axis) >= n for axis, n in zip(zip(*records), shape)):
        bad = next(idx for idx in records if not all(0 <= i < n for i, n in zip(idx, shape)))
        raise ParseError(f"{key} index {bad} outside shape {shape}")
    out = np.zeros(shape, dtype=np.int64)
    for idx, v in records.items():
        out[idx] = v
    return out


def _sparse_lines(key: str, prefix: tuple[int, ...], M) -> list[str]:
    """`key *prefix *index value` for every nonzero entry of M, row-major."""
    M = np.asarray(M)
    nz = np.nonzero(M)
    head = " ".join([key, *map(str, prefix)])
    return [" ".join([head, *map(str, row)])
            for row in zip(*(i.tolist() for i in nz), M[nz].tolist())]


def _indexed_ref(rec: list[str], refs: dict, usage: str) -> int:
    """Index of a `key i path` reference line, new among refs."""
    if len(rec) != 3:
        raise ParseError(usage)
    idx = _ints(rec[:2])[0]
    if idx in refs:
        raise ParseError(f"duplicate {rec[0]} line for index {idx}")
    return idx


def _framed(text: str, kind: str) -> list[list[str]]:
    recs = list(_records(text))
    if not recs or recs[0][:2] != ["object", kind]:
        raise ParseError(f"expected an 'object {kind}' header")
    if recs[-1] != ["end"]:
        raise ParseError("missing 'end' line")
    return recs[1:-1]


def object_kind(text: str) -> str:
    """The kind of the `object <kind>` header.  Only the first record is
    split: the parser of the kind splits the whole text, once."""
    head = next(_records(text), None)
    if head is None or head[0] != "object" or len(head) != 2:
        raise ParseError("expected an 'object <kind>' header")
    return head[1]


# ---------------------------------------------------------------------------
# Algebras
# ---------------------------------------------------------------------------


def write_algebra(A: StructureAlgebra) -> str:
    F = A.field
    lines = ["object algebra"]
    lines.append("field " + " ".join(str(t) for t in (F.p, F.d, *F.modulus)))
    lines.append(f"dim {A.dim}")
    lines.append("unit " + " ".join(str(t) for t in A.unit))
    lines += _sparse_lines("c", (), A.c)
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
    c = _dense("c", triples, (dim, dim, dim), field.q)
    _in_field("unit", unit, field.q)
    return StructureAlgebra(field, c, np.array(unit, dtype=np.int64), check=True)


# ---------------------------------------------------------------------------
# Modules
# ---------------------------------------------------------------------------


def write_module(M: FiniteModule, algebra_ref: str) -> str:
    lines = ["object module", f"algebra {algebra_ref}", f"side {M.side}", f"dim {M.dim}",
             *_sparse_lines("act", (), M.action), "end"]
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
    action = _dense("act", quads, (algebra.dim, dim, dim), algebra.field.q)
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
        lines += _sparse_lines("transition", (n,), Tr)
    lines.append("end")
    return "\n".join(lines) + "\n"


def _parse_chain(text: str, kind: str, tag_key: str, count_key: str, ref_key: str,
                 link_key: str, load, base_dir: str, link):
    """The `tag / count / indexed references / per-link matrices` layout
    shared by towers and systems.

    `load(path)` parses a referenced file; `link(lo, hi)` is the (shape,
    field order) of the matrix joining objects n and n + 1, since a tower
    maps level n + 1 down to n and a system maps module n up to n + 1.

    Returns:
        (tag, objects, link matrices).
    """
    tag = None
    count = None
    refs: dict = {}
    quads: dict = {}
    for rec in _framed(text, kind):
        key = rec[0]
        if key == tag_key:
            if len(rec) != 2:
                raise ParseError(f"{tag_key} takes one tag")
            tag = rec[1]
        elif key == count_key:
            count = _count(rec)
        elif key == ref_key:
            idx = _indexed_ref(rec, refs, f"{ref_key} line needs an index and a path")
            refs[idx] = load(os.path.join(base_dir, rec[2]))
        elif key == link_key:
            _sparse_record(rec, quads, f"{link_key} line needs n r c v")
        else:
            raise ParseError(f"unknown {kind} key {key!r}")
    if tag is None or count is None:
        raise ParseError(f"{kind} needs {tag_key} and {count_key} lines")
    if sorted(refs) != list(range(count)):
        raise ParseError(f"need {ref_key} lines 0..{count - 1}")
    objs = [refs[i] for i in range(count)]
    links: dict[int, dict] = {n: {} for n in range(count - 1)}
    for (n, r, c), v in quads.items():
        if n not in links:
            raise ParseError(f"{link_key} index {n} out of range")
        links[n][(r, c)] = v
    return tag, objs, [_dense(link_key, links[n], *link(objs[n], objs[n + 1]))
                       for n in range(count - 1)]


def parse_tower(text: str, loader: "Loader", base_dir: str) -> RingTower:
    intent, levels, transitions = _parse_chain(
        text, "tower", "intent", "levels", "level", "transition", loader.algebra, base_dir,
        lambda lo, hi: ((hi.dim, lo.dim), lo.field.q))
    return build_tower(levels, transitions, intent=intent)


# ---------------------------------------------------------------------------
# Windowed matrices
# ---------------------------------------------------------------------------


def write_matrix(m: WindowedMatrix, algebra_ref: str) -> str:
    lines = ["object matrix", f"algebra {algebra_ref}", f"y {m.y_kind}",
             f"window {m.window}"]
    lines += _sparse_lines("entry", (), m.entries)
    for x in range(m.window):
        for c, vec in m.extras[x]:
            lines += _sparse_lines("extra", (x, c), vec)
    for key, rows in (("tail", m.tails), ("precision", m.precisions)):
        for x in range(m.window):
            lines += [" ".join([key, str(x), *map(str, row)]) for row in rows[x].tolist()]
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_matrix(text: str, loader: "Loader", base_dir: str) -> WindowedMatrix:
    base = None
    y_kind = None
    window = None
    entry_quads: dict = {}
    extra_quads: dict = {}
    ideal_rows: dict[str, list[list[int]]] = {"tail": [], "precision": []}
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
        elif key in ideal_rows:
            ideal_rows[key].append(_ints(rec))
        else:
            raise ParseError(f"unknown matrix key {key!r}")
    if base is None or y_kind is None or window is None:
        raise ParseError("matrix needs algebra, y, and window lines")
    q = base.field.q
    entries = _dense("entry", entry_quads, (window, window, base.dim), q)
    extra_vecs: dict[tuple[int, int], dict] = {}
    for (x, c, t), v in extra_quads.items():
        if not 0 <= x < window:
            raise ParseError(f"extra row {x} outside window {window}")
        extra_vecs.setdefault((x, c), {})[(t,)] = v
    extras: list[list[tuple[int, np.ndarray]]] = [[] for _ in range(window)]
    for (x, c), recs in sorted(extra_vecs.items()):
        extras[x].append((c, _dense("extra", recs, (base.dim,), q)))
    ideals = {key: [np.zeros((0, base.dim), dtype=np.int64) for _ in range(window)]
              for key in ideal_rows}
    for key, rows in ideal_rows.items():
        for vals in rows:
            if len(vals) != 1 + base.dim:
                raise ParseError("ideal row length differs from the base dimension")
            x = vals[0]
            if not 0 <= x < window:
                raise ParseError(f"ideal row index {x} out of range")
            _in_field(key, vals[1:], q)
            ideals[key][x] = np.vstack([ideals[key][x], [vals[1:]]])
    return windowed(base, y_kind, entries, extras, ideals["tail"], ideals["precision"], check=True)


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
        lines += _sparse_lines("map", (n,), T)
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_system(text: str, loader: "Loader", base_dir: str) -> OmegaSystem:
    ground, modules, maps = _parse_chain(
        text, "system", "ground", "modules", "module", "map", loader.module, base_dir,
        lambda lo, hi: ((lo.dim, hi.dim), lo.algebra.field.q))
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
        self.lines += _sparse_lines(key, prefix, M)

    def text(self) -> str:
        return "\n".join(self.lines + ["end"]) + "\n"

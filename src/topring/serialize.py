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
writers and `Report.sparse` all call it.  Every parser reads its records
through `_SparseReader`, which keeps the token lists of each sparse key
and, once the loop over the other records ends, converts each key in
bulk: one int64 array, with its token count, integer and duplicate check
(`_bulk_records`).  One reader, `_dense`, fills an array of a given shape
from a key's entries with one value and range check (`_bulk_fits`) and
one scatter; an index outside the shape is a ParseError (exit 2).  A key
the bulk check rejects is read record by record in line order, only to
name its first fault, and those checks run before the error of any later
record is raised, so a file's exit code and message are those of its
first fault in line order.  Towers and systems share one reader of their
`tag / count / indexed references / per-link matrices` layout.

The value rule: every field value, in a sparse record (`c`, `act`,
`transition`, `map`, `entry`, `extra`) or a dense row (`unit`, `tail`,
`precision`), lies in [0, q) for the field of order q.  Any other value
is a validation error (exit 3).

Reports share the lexical rules with `report <verb>` ... `end` framing
and never contain timestamps; rerunning a job byte-reproduces them.
"""

import itertools
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


# The usage message of each sparse key, `key i j k v`: three indices, one value.
SPARSE_USAGE = {
    "c": "structure line needs i j k v",
    "act": "action line needs a r c v",
    "transition": "transition line needs n r c v",
    "map": "map line needs n r c v",
    "entry": "entry line needs x z t v",
    "extra": "extra line needs x c t v",
}


def _bulk_records(recs: list[list[str]]) -> tuple[np.ndarray, np.ndarray] | None:
    """(indices, values) of one key's `key i j k v` records, as int64
    arrays in line order, or None if any record has the wrong token count,
    a token that is not an int64 integer, a repeated index, or a negative
    or huge index (the range check of the record-by-record route names it)."""
    if not recs:
        return np.zeros((0, 3), dtype=np.int64), np.zeros(0, dtype=np.int64)
    if set(map(len, recs)) != {5}:
        return None
    flat = list(itertools.chain.from_iterable(recs))
    del flat[::5]
    try:
        # numpy reads each string as int() does; past int64 it raises OverflowError
        table = np.array(flat, dtype=np.int64).reshape(-1, 4)
    except (ValueError, OverflowError):
        return None
    idx = table[:, :3]
    # read as uint64 a negative index is at least 2^63, so one maximum bounds
    # every index from both sides; below the bound, (a, b, c) -> a k^2 + b k + c
    # is one-to-one in int64
    k = int(idx.view(np.uint64).max()) + 1
    if k ** 3 >= 1 << 62:
        return None
    keys = idx @ np.array([k * k, k, 1], dtype=np.int64)
    # a set, not np.unique (its first call imports numpy.ma, about 1.7 MB
    # resident) or a sort (about 0.25 MB more of numpy's library mapped)
    if len(set(keys.tolist())) != keys.shape[0]:
        return None
    return idx, table[:, 3]


def _bulk_fits(idx: np.ndarray, shape: tuple[int, ...], vals: np.ndarray | None = None,
               q: int = 0) -> bool:
    """Whether every index row lies in shape and every value, if given, in
    [0, q).  Read as uint64 a negative entry is at least 2^63, so one
    maximum bounds each column from both sides."""
    if not idx.shape[0]:
        return True
    if vals is not None and int(vals.view(np.uint64).max()) >= q:
        return False
    return all(m < n for m, n in zip(idx.view(np.uint64).max(axis=0).tolist(), shape))


class _SparseReader:
    """The records of one file with its sparse records kept aside.

    Iterating yields every other record and keeps the token lists of each
    sparse key's records.  Used as a context manager around the parse
    loop: when the loop ends, each key's records are converted in bulk
    (_bulk_records) into `entries[key]`, int64 (indices, values) arrays.
    A key the bulk check rejects is read record by record, in line order:
    that raises the first fault of its records (a token that is not an
    integer, a wrong token count, a repeated index) or, if every record
    holds up (one has a negative index or an integer past int64, say),
    leaves the key's entries as a dict {index tuple: value}.  When a later record raises, the sparse
    records before it are read the same way first, so a file's error is
    its first fault in line order, as when each record was read as it came.
    """

    def __init__(self, recs: list[list[str]], keys: tuple[str, ...]):
        self.recs = recs
        self.lines: dict[str, list[list[str]]] = {key: [] for key in keys}
        self.at = 0
        self.entries: dict = {}

    def __iter__(self):
        for self.at, rec in enumerate(self.recs):
            lines = self.lines.get(rec[0])
            if lines is None:
                yield rec
            else:
                lines.append(rec)

    def __enter__(self) -> "_SparseReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.entries = {key: _bulk_records(lines) for key, lines in self.lines.items()}
            recs = self.recs
        elif issubclass(exc_type, Exception):
            recs = self.recs[:self.at]
        else:
            return False
        slow: dict[str, dict] = {key: {} for key in self.lines if self.entries.get(key) is None}
        for rec in recs if slow else ():
            records = slow.get(rec[0])
            if records is None:
                continue
            vals = _ints(rec)
            if len(vals) != 4:
                raise ParseError(f"{SPARSE_USAGE[rec[0]]}: {' '.join(rec)!r}")
            idx = tuple(vals[:3])
            # keeping either of two records silently would turn a typo into another object
            if idx in records:
                raise ParseError(f"duplicate {rec[0]} record at index {idx}")
            records[idx] = vals[3]
        self.entries.update(slow)
        # the token lists outweigh the arrays, and the checks after the loop
        # (StructureAlgebra's associativity check among them) need neither
        self.recs = self.lines = None
        return False


def _in_field(key: str, vals, q: int) -> None:
    """The value rule: every value lies in [0, q); else exit 3."""
    for v in vals:
        if not 0 <= v < q:
            raise AlgebraError(f"{key} value {v} outside the field range [0, {q})")


def _dense(key: str, entries, shape: tuple[int, ...], q: int) -> np.ndarray:
    """The array of the given shape holding each entry's value at its index,
    zero elsewhere.

    Entries in bulk form that pass the value and range check are scattered
    at once.  Otherwise they are checked one by one in line order: values
    first, since one outside the value rule may not fit the int64 array;
    then an index outside the shape is a ParseError."""
    if isinstance(entries, dict):
        records = entries
    else:
        idx, vals = entries
        if _bulk_fits(idx, shape, vals, q):
            out = np.zeros(shape, dtype=np.int64)
            out[tuple(idx.T)] = vals
            return out
        records = dict(zip(map(tuple, idx.tolist()), vals.tolist()))
    _in_field(key, records.values(), q)
    if any(min(axis) < 0 or max(axis) >= n for axis, n in zip(zip(*records), shape)):
        bad = next(idx for idx in records if not all(0 <= i < n for i, n in zip(idx, shape)))
        raise ParseError(f"{key} index {bad} outside shape {shape}")
    out = np.zeros(shape, dtype=np.int64)
    for idx, v in records.items():
        out[idx] = v
    return out


def _groups(entries) -> list[tuple[int, object]]:
    """Sparse entries (n, *rest) grouped by n in increasing order: (n, the
    entries of that n indexed by rest), each group in line order."""
    if isinstance(entries, dict):
        groups: dict[int, dict] = {}
        for (n, *rest), v in entries.items():
            groups.setdefault(n, {})[tuple(rest)] = v
        return sorted(groups.items())
    idx, vals = entries
    return [(n, (idx[sel, 1:], vals[sel]))
            for n in sorted(set(idx[:, 0].tolist())) for sel in [idx[:, 0] == n]]


def _groups_in(entries, count: int, fault) -> list[tuple[int, object]]:
    """_groups(entries), once fault(n) is raised for the first n, in line
    order, outside range(count)."""
    if isinstance(entries, dict):
        firsts = [n for n, *_ in entries]
    elif not _bulk_fits(entries[0][:, :1], (count,)):
        firsts = entries[0][:, 0].tolist()
    else:
        firsts = []
    bad = next((n for n in firsts if not 0 <= n < count), None)
    if bad is not None:
        raise fault(bad)
    return _groups(entries)


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
    reader = _SparseReader(_framed(text, "algebra"), ("c",))
    with reader:
        for rec in reader:
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
            else:
                raise ParseError(f"unknown algebra key {key!r}")
    if field is None or dim is None or unit is None:
        raise ParseError("algebra needs field, dim, and unit lines")
    if len(unit) != dim:
        raise ParseError("unit length differs from dim")
    c = _dense("c", reader.entries["c"], (dim, dim, dim), field.q)
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
    reader = _SparseReader(_framed(text, "module"), ("act",))
    with reader:
        for rec in reader:
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
            else:
                raise ParseError(f"unknown module key {key!r}")
    if algebra is None or side is None or dim is None:
        raise ParseError("module needs algebra, side, and dim lines")
    action = _dense("act", reader.entries["act"], (algebra.dim, dim, dim), algebra.field.q)
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
    reader = _SparseReader(_framed(text, kind), (link_key,))
    with reader:
        for rec in reader:
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
            else:
                raise ParseError(f"unknown {kind} key {key!r}")
    if tag is None or count is None:
        raise ParseError(f"{kind} needs {tag_key} and {count_key} lines")
    if sorted(refs) != list(range(count)):
        raise ParseError(f"need {ref_key} lines 0..{count - 1}")
    objs = [refs[i] for i in range(count)]
    links = dict(_groups_in(reader.entries[link_key], count - 1,
                            lambda n: ParseError(f"{link_key} index {n} out of range")))
    return tag, objs, [_dense(link_key, links.get(n, {}), *link(objs[n], objs[n + 1]))
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
    ideal_rows: dict[str, list[list[int]]] = {"tail": [], "precision": []}
    reader = _SparseReader(_framed(text, "matrix"), ("entry", "extra"))
    with reader:
        for rec in reader:
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
            elif key in ideal_rows:
                ideal_rows[key].append(_ints(rec))
            else:
                raise ParseError(f"unknown matrix key {key!r}")
    if base is None or y_kind is None or window is None:
        raise ParseError("matrix needs algebra, y, and window lines")
    q = base.field.q
    entries = _dense("entry", reader.entries["entry"], (window, window, base.dim), q)
    extras: list[list[tuple[int, np.ndarray]]] = [[] for _ in range(window)]
    for x, row in _groups_in(reader.entries["extra"], window,
                             lambda x: ParseError(f"extra row {x} outside window {window}")):
        extras[x] = [(c, _dense("extra", vec, (base.dim,), q)) for c, vec in _groups(row)]
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

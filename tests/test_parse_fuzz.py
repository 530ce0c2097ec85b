"""Mutated corpus files load or raise a ValueError, never anything else.

The driver maps a ParseError to exit 2 and every other ValueError to
exit 3, so any other exception out of `Loader().load` would end a run in
a traceback.  InternalInconsistencyError, the one exception the driver
maps to exit 4, is not a ValueError, so a mutant that leaks an exit 4
out of loading fails this test as well.  Each example mutates one bundled
file and loads it next to unmutated copies of the files it references.

The sparse records (`c`, `act`, `transition`, `map`, `entry`, `extra`) are
converted in bulk to int64 arrays, and where the bulk check rejects a key
they are walked record by record for a fault and otherwise held as object
arrays of Python ints.  Every mutant is also loaded with the bulk
conversion forced to reject every key, so through the object arrays, and
must give the same object or the same exception and message.
"""

from __future__ import annotations

import shutil

import pytest
from hypothesis import given, settings, strategies as st

from topring import corpus, serialize
from topring.algebras import StructureAlgebra
from topring.endo import OmegaSystem
from topring.matrixtop import WindowedMatrix
from topring.modules import FiniteModule
from topring.serialize import Loader
from topring.towers import RingTower

COUNT_KEYS = ("dim", "window", "levels", "modules")


def _field_order(obj) -> int:
    if isinstance(obj, RingTower):
        obj = obj.levels[0]
    elif isinstance(obj, OmegaSystem):
        obj = obj.modules[0]
    elif isinstance(obj, WindowedMatrix):
        obj = obj.base
    if isinstance(obj, FiniteModule):
        obj = obj.algebra
    return obj.field.q


ORDERS = {name: _field_order(Loader().load(corpus.path(name))) for name in corpus.render_all()}

# integers past int64, none of them prime, so a mutated characteristic is
# rejected at once
BIG = [2 ** 63, 2 ** 64, -(2 ** 63) - 1, 10 ** 20]
# tokens that are not integers, and two that int() reads although they are
# not plain digits
NOT_INTS = ["x", "1.5", "0x1", "", "1e3", "\u0661", "1_0"]


def _is_int(tok: str) -> bool:
    return tok.lstrip("-").isdigit()


@st.composite
def mutants(draw):
    """(name, text): one bundled file under one mutation.  Count lines
    stay within [-1, twice their value], since a large count allocates
    before anything can check it."""
    name = draw(st.sampled_from(sorted(ORDERS)))
    lines = corpus.read(name).splitlines()
    at = st.integers(0, len(lines) - 1)
    kind = draw(st.sampled_from(["drop", "duplicate", "swap", "truncate", "value", "count",
                                 "not-int", "big", "negative", "width", "repeat"]))
    sparse = [i for i, ln in enumerate(lines) if ln.split()[0] in serialize.SPARSE_USAGE]
    if kind in ("negative", "width", "repeat") and not sparse:
        kind = "not-int"
    if kind == "drop":
        del lines[draw(at)]
    elif kind == "duplicate":
        i = draw(at)
        lines.insert(i, lines[i])
    elif kind == "swap":
        i, j = draw(at), draw(at)
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "truncate":
        text = corpus.read(name)
        return name, text[:draw(st.integers(0, len(text) - 1))]
    elif kind in ("value", "not-int", "big"):
        q = ORDERS[name]
        spots = [(i, t) for i, ln in enumerate(lines) if ln.split()[0] not in COUNT_KEYS
                 for t, tok in enumerate(ln.split()) if _is_int(tok)]
        i, t = draw(st.sampled_from(spots))
        toks = lines[i].split()
        values = {"value": [-1, q, q + 5, 2 ** 31], "not-int": NOT_INTS, "big": BIG}[kind]
        toks[t] = str(draw(st.sampled_from(values)))
        lines[i] = " ".join(toks)
    elif kind == "negative":
        i = draw(st.sampled_from(sparse))
        toks = lines[i].split()
        toks[draw(st.integers(1, len(toks) - 2))] = str(draw(st.integers(-3, -1)))
        lines[i] = " ".join(toks)
    elif kind == "width":
        i = draw(st.sampled_from(sparse))
        toks = lines[i].split()
        if draw(st.booleans()):
            del toks[draw(st.integers(1, len(toks) - 1))]
        else:
            toks.insert(draw(st.integers(1, len(toks))), str(draw(st.integers(0, 3))))
        lines[i] = " ".join(toks)
    elif kind == "repeat":
        i = draw(st.sampled_from(sparse))
        toks = lines[i].split()
        toks[-1] = str(draw(st.integers(0, ORDERS[name] - 1)))
        lines.insert(draw(st.integers(1, len(lines) - 1)), " ".join(toks))
    else:
        i = draw(st.sampled_from([i for i, ln in enumerate(lines) if ln.split()[0] in COUNT_KEYS]))
        key, value = lines[i].split()
        lines[i] = f"{key} {draw(st.integers(-1, 2 * int(value)))}"
    return name, "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def corpus_copy(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    for name in ORDERS:
        shutil.copy(corpus.path(name), root / name)
    return root


def _written(obj) -> str:
    """The object as its writer prints it, with placeholder references:
    the referenced files are the same unmutated copies in every load."""
    if isinstance(obj, StructureAlgebra):
        return serialize.write_algebra(obj)
    if isinstance(obj, FiniteModule):
        return serialize.write_module(obj, "ref")
    if isinstance(obj, RingTower):
        return serialize.write_tower(obj, ["ref"] * len(obj.levels))
    if isinstance(obj, WindowedMatrix):
        return serialize.write_matrix(obj, "ref")
    return serialize.write_system(obj, ["ref"] * len(obj.modules))


def _outcome(path) -> tuple:
    try:
        return ("loaded", _written(Loader().load(str(path))))
    except ValueError as exc:
        return (type(exc), str(exc))


@settings(max_examples=500, deadline=None)
@given(mutant=mutants())
def test_mutated_file_loads_or_raises_a_value_error(corpus_copy, mutant):
    name, text = mutant
    path = corpus_copy / f"mutant_{name}"
    path.write_text(text)
    bulk = _outcome(path)
    # the walk and the object arrays give the same object or error
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(serialize, "_bulk_records", lambda recs: None)
        assert _outcome(path) == bulk

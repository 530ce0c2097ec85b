"""Mutated corpus files load or raise a ValueError, never anything else.

The driver maps a ParseError to exit 2 and every other ValueError to
exit 3, so any other exception out of `Loader().load` would end a run in
a traceback.  InternalInconsistencyError, the one exception the driver
maps to exit 4, is not a ValueError, so a mutant that leaks an exit 4
out of loading fails this test as well.  Each example mutates one bundled
file and loads it next to unmutated copies of the files it references.
"""

from __future__ import annotations

import shutil

import pytest
from hypothesis import given, settings, strategies as st

from topring import corpus
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
    kind = draw(st.sampled_from(["drop", "duplicate", "swap", "truncate", "value", "count"]))
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
    elif kind == "value":
        q = ORDERS[name]
        spots = [(i, t) for i, ln in enumerate(lines) if ln.split()[0] not in COUNT_KEYS
                 for t, tok in enumerate(ln.split()) if _is_int(tok)]
        i, t = draw(st.sampled_from(spots))
        toks = lines[i].split()
        toks[t] = str(draw(st.sampled_from([-1, q, q + 5, 2 ** 31])))
        lines[i] = " ".join(toks)
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


@settings(max_examples=500, deadline=None)
@given(mutant=mutants())
def test_mutated_file_loads_or_raises_a_value_error(corpus_copy, mutant):
    name, text = mutant
    path = corpus_copy / f"mutant_{name}"
    path.write_text(text)
    try:
        Loader().load(str(path))
    except ValueError:
        pass

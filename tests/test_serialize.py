"""Description files: bit-exact round trips, shared references, bad input."""

from __future__ import annotations

import os

import numpy as np
import pytest

from topring import corpus, serialize
from topring.algebras import (
    AlgebraError,
    cyclic_group_algebra,
    matrix_algebra,
    truncated_poly_algebra,
    upper_triangular_algebra,
)
from topring.fields import GF
from topring.matrixtop import lower_shift_matrix, shift_matrix, windowed
from topring.modules import right_regular_module
from topring.serialize import (
    Loader,
    ParseError,
    object_kind,
    parse_algebra,
    write_algebra,
    write_matrix,
    write_module,
)
from topring.towers import adic_tower

F2 = GF(2)
RENDERED = corpus.render_all()

ALGEBRAS = [
    cyclic_group_algebra(F2, 3),
    matrix_algebra(F2, 2),
    matrix_algebra(GF(3), 2),
    upper_triangular_algebra(GF(2, 2), 2),
    truncated_poly_algebra(GF(3), 3),
]


@pytest.mark.parametrize("A", ALGEBRAS, ids=lambda A: f"dim{A.dim}q{A.field.q}")
def test_algebra_round_trip_bit_exact(A):
    text = write_algebra(A)
    B = parse_algebra(text)
    assert B.field is A.field
    assert np.array_equal(B.c, A.c)
    assert np.array_equal(B.unit, A.unit)
    assert write_algebra(B) == text


def test_module_round_trip_bit_exact(tmp_path):
    A = cyclic_group_algebra(F2, 3)
    (tmp_path / "a.alg").write_text(write_algebra(A))
    M = right_regular_module(A)
    text = write_module(M, "a.alg")
    (tmp_path / "m.mod").write_text(text)
    loader = Loader()
    M2 = loader.module(str(tmp_path / "m.mod"))
    assert M2.side == M.side
    assert np.array_equal(M2.action, M.action)
    assert write_module(M2, "a.alg") == text


def test_tower_round_trip_bit_exact(tmp_path):
    T = adic_tower(F2, 3)
    refs = []
    for n, level in enumerate(T.levels):
        name = f"l{n}.alg"
        (tmp_path / name).write_text(write_algebra(level))
        refs.append(name)
    text = serialize.write_tower(T, refs)
    (tmp_path / "t.twr").write_text(text)
    T2 = Loader().tower(str(tmp_path / "t.twr"))
    assert T2.intent == T.intent
    assert all(np.array_equal(a, b) for a, b in zip(T2.transitions, T.transitions))
    assert serialize.write_tower(T2, refs) == text


def test_matrix_round_trip_with_extras_and_tails(tmp_path):
    DUAL = truncated_poly_algebra(F2, 2)
    (tmp_path / "d.alg").write_text(write_algebra(DUAL))
    xrow = np.array([[0, 1]], dtype=np.int64)
    entries = np.zeros((3, 3, 2), dtype=np.int64)
    entries[0, 2, 0] = 1
    m = windowed(DUAL, "omega", entries,
                 extras=[[(4, np.array([1, 1], dtype=np.int64))], [], []],
                 tails=[np.zeros((0, 2), dtype=np.int64), xrow, xrow])
    text = write_matrix(m, "d.alg")
    (tmp_path / "m.mat").write_text(text)
    m2 = Loader().matrix(str(tmp_path / "m.mat"))
    assert np.array_equal(m2.entries, m.entries)
    assert m2.extras[0][0][0] == 4
    assert np.array_equal(m2.tails[1], m.tails[1])
    assert write_matrix(m2, "d.alg") == text


def test_shift_matrices_round_trip():
    loader = Loader()
    sh = loader.matrix(corpus.path("shift_f2.mat"))
    assert write_matrix(sh, "f2.alg") == RENDERED["shift_f2.mat"]
    lo = loader.matrix(corpus.path("lshift_f2.mat"))
    assert lo.window == 7
    built = lower_shift_matrix(lo.base, 7)
    assert np.array_equal(lo.entries, built.entries)
    assert shift_matrix(sh.base, 6).extras[5][0][0] == 6 == sh.extras[5][0][0]


def test_system_round_trip_bit_exact(tmp_path):
    loader = Loader()
    S = loader.system(corpus.path("chain6.sys"))
    assert S.ground == "polynomial_adic"
    assert [M.dim for M in S.modules] == [1, 2, 3, 4, 5, 6]
    refs = [f"chain6_n{n}.mod" for n in range(1, 7)]
    assert serialize.write_system(S, refs) == RENDERED["chain6.sys"]


def test_loader_shares_referenced_objects():
    loader = Loader()
    M = loader.module(corpus.path("dual2_reg.mod"))
    A = loader.algebra(corpus.path("f2x2.alg"))
    assert M.algebra is A
    assert loader.algebra(corpus.path("f2x2.alg")) is A


def test_loader_shares_between_tower_and_algebra():
    loader = Loader()
    T = loader.tower(corpus.path("adic4.twr"))
    assert T.levels[0] is loader.algebra(corpus.path("f2.alg"))
    assert T.levels[2] is loader.algebra(corpus.path("f2x3.alg"))


def test_object_kind():
    assert object_kind(RENDERED["f2.alg"]) == "algebra"
    assert object_kind(RENDERED["chain6.sys"]) == "system"
    with pytest.raises(ParseError):
        object_kind("nothing here")


def test_missing_file_is_parse_error():
    with pytest.raises(ParseError):
        Loader().algebra("/nonexistent/no.alg")


def test_truncated_file_is_parse_error(tmp_path):
    text = RENDERED["f2c3.alg"]
    clipped = "\n".join(text.splitlines()[:-1])
    p = tmp_path / "c.alg"
    p.write_text(clipped)
    with pytest.raises(ParseError):
        Loader().algebra(str(p))


def test_bad_token_is_parse_error():
    with pytest.raises(ParseError):
        parse_algebra("object algebra\nfield two 1 0 1\ndim 1\nunit 1\nend")


def test_out_of_range_index_is_parse_error():
    bad = RENDERED["f2.alg"].replace("c 0 0 0 1", "c 0 0 9 1")
    with pytest.raises(ParseError):
        parse_algebra(bad)


def test_wrong_kind_is_validation_error():
    loader = Loader()
    with pytest.raises(AlgebraError):
        loader.algebra(corpus.path("dual2_reg.mod"))


def test_corrupt_structure_constants_fail_validation():
    # drop one structure line: the unit law breaks, and the constructor
    # must catch it even though the file still parses
    lines = [ln for ln in RENDERED["f2c3.alg"].splitlines() if ln != "c 1 2 0 1"]
    with pytest.raises(AlgebraError):
        parse_algebra("\n".join(lines))


@pytest.mark.parametrize("name", sorted(RENDERED))
def test_bundled_file_matches_its_constructor(name):
    assert corpus.read(name) == RENDERED[name]


@pytest.mark.parametrize("name", sorted(RENDERED))
def test_bundled_file_loads(name):
    obj = Loader().load(corpus.path(name))
    assert obj is not None


CORPUS_DIR = os.path.dirname(corpus.path("f2.alg"))

# (file, key) for every sparse record kind and every indexed reference line
DUPLICATE_CASES = [
    ("f2c3.alg", "c"),
    ("dual2_reg.mod", "act"),
    ("adic4.twr", "transition"),
    ("adic4.twr", "level"),
    ("shift_f2.mat", "entry"),
    ("shift_f2.mat", "extra"),
    ("chain6.sys", "map"),
    ("chain6.sys", "module"),
]


@pytest.mark.parametrize("name,key", DUPLICATE_CASES)
def test_duplicate_record_is_parse_error(name, key):
    lines = RENDERED[name].splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.split()[0] == key)
    lines.insert(at + 1, lines[at])
    text = "\n".join(lines) + "\n"
    parser = serialize.PARSERS[object_kind(text)]
    with pytest.raises(ParseError, match="duplicate"):
        parser(text, Loader(), CORPUS_DIR)


def test_duplicate_with_a_new_value_is_parse_error():
    # the second record would silently win without the check
    bad = RENDERED["f2.alg"].replace("c 0 0 0 1", "c 0 0 0 1\nc 0 0 0 0")
    with pytest.raises(ParseError, match="duplicate"):
        parse_algebra(bad)

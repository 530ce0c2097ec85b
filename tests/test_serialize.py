"""Description files: bit-exact round trips, shared references, bad input."""

from __future__ import annotations

import os
import shutil

import numpy as np
import pytest

from topring import cli, corpus, serialize
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
    # comments and blank lines before the header are skipped
    assert object_kind("# a tower\n\nobject tower   # levels below\n") == "tower"


def test_loader_splits_each_file_once(monkeypatch):
    # object_kind splits only the header record; the parser splits the text
    pulled = []
    split = serialize._records

    def spy(text):
        for rec in split(text):
            pulled.append(rec)
            yield rec

    monkeypatch.setattr(serialize, "_records", spy)
    loader = Loader()
    loader.system(corpus.path("chain6.sys"))
    texts = []
    for path in loader.cache:
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    assert len(texts) > 1
    assert len(pulled) == sum(len(list(split(text))) + 1 for text in texts)


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


BIG = 2 ** 63

# (file, line to replace, replacement, exit code, first line of stderr): a
# token past int64 on every kind of sparse record and on a dense row
BIG_CASES = [
    ("f2c3.alg", "c 0 0 0 1", f"c 0 0 0 {BIG}", 3,
     f"error: c value {BIG} outside the field range [0, 2)"),
    ("f2c3.alg", "c 0 0 0 1", f"c {BIG} 0 0 1", 2,
     f"error: c index ({BIG}, 0, 0) outside shape (3, 3, 3)"),
    ("f2c3.alg", "unit 1 0 0", f"unit 1 {BIG} 0", 3,
     f"error: unit value {BIG} outside the field range [0, 2)"),
    ("dual2_reg.mod", "act 0 1 1 1", f"act 0 1 {-BIG - 1} 1", 2,
     f"error: act index (0, 1, {-BIG - 1}) outside shape (2, 2, 2)"),
    ("adic4.twr", "transition 0 0 0 1", f"transition {BIG} 0 0 1", 2,
     f"error: transition index {BIG} out of range"),
    ("shift_f2.mat", "entry 0 1 0 1", f"entry 0 1 0 {10 ** 20}", 3,
     f"error: entry value {10 ** 20} outside the field range [0, 2)"),
    ("shift_f2.mat", "extra 5 6 0 1", f"extra {BIG} 6 0 1", 2,
     f"error: extra row {BIG} outside window 6"),
    ("chain6.sys", "map 1 1 2 1", f"map 1 1 2 {BIG}", 3,
     f"error: map value {BIG} outside the field range [0, 2)"),
]

VERB = {".alg": "radical", ".mod": "decompose-module", ".twr": "classify-tower",
        ".mat": "matmul", ".sys": "split-limit"}


def _run(tmp_path, name, text, capsys):
    """cli.main on text saved as a sibling of copies of the bundled files."""
    for other in RENDERED:
        shutil.copy(corpus.path(other), tmp_path / other)
    path = tmp_path / f"mutant{os.path.splitext(name)[1]}"
    path.write_text(text)
    verb = VERB[path.suffix]
    rc = cli.main([verb] + [str(path)] * (2 if verb == "matmul" else 1))
    return rc, capsys.readouterr().err.splitlines()[0]


@pytest.mark.parametrize("name,old,new,code,message", BIG_CASES,
                         ids=[f"{c[0]}:{c[1].split()[0]}:{i}" for i, c in enumerate(BIG_CASES)])
def test_an_integer_past_int64_is_an_input_error(tmp_path, capsys, name, old, new, code, message):
    # numpy's int64 conversion raises OverflowError on these tokens; the
    # record-by-record reading names the fault, and nothing escapes cli.main
    assert old in RENDERED[name]
    assert _run(tmp_path, name, RENDERED[name].replace(old, new, 1), capsys) == (code, message)


def test_a_malformed_record_above_a_bad_field_line_is_still_a_parse_error(tmp_path, capsys):
    # the c line's fault comes first in the file, so it is the error (exit
    # 2), although the sparse records are read only after the loop and the
    # reducible modulus x^2 + 1 below it is an exit 3
    text = "object algebra\nc 0 0 0\nfield 2 2 1 0 1\ndim 1\nunit 1\nend\n"
    assert _run(tmp_path, "bad.alg", text, capsys) == (
        2, "error: structure line needs i j k v: 'c 0 0 0'")
    below = "object algebra\nfield 2 2 1 0 1\nc 0 0 0\ndim 1\nunit 1\nend\n"
    assert _run(tmp_path, "bad.alg", below, capsys) == (
        3, "error: modulus (1, 0, 1) is reducible over F_2")


def test_a_malformed_record_above_a_bad_reference_is_still_a_parse_error(tmp_path, capsys):
    # the same for a module: a duplicate act line comes before the line
    # naming a file that does not exist
    text = ("object module\nact 0 0 0 1\nact 0 0 0 0\nalgebra missing.alg\nside right\n"
            "dim 2\nend\n")
    assert _run(tmp_path, "bad.mod", text, capsys) == (
        2, "error: duplicate act record at index (0, 0, 0)")


def test_extras_of_one_row_come_sorted_by_column(tmp_path):
    # lines out of column order, as a hand-written file may have them;
    # windowed rejects unsorted columns, so the reader must sort them
    text = RENDERED["shift_f2.mat"].replace(
        "extra 5 6 0 1", "extra 5 9 0 1\nextra 4 7 0 1\nextra 5 6 0 1\nextra 5 8 0 1")
    (tmp_path / "f2.alg").write_text(RENDERED["f2.alg"])
    (tmp_path / "m.mat").write_text(text)
    m = Loader().matrix(str(tmp_path / "m.mat"))
    assert [[c for c, _ in row] for row in m.extras] == [[], [], [], [], [7], [6, 8, 9]]
    assert write_matrix(m, "f2.alg") == RENDERED["shift_f2.mat"].replace(
        "extra 5 6 0 1", "extra 4 7 0 1\nextra 5 6 0 1\nextra 5 8 0 1\nextra 5 9 0 1")
    # with two faulty columns, the lower one's fault is named, as when the
    # groups were checked in sorted order
    (tmp_path / "m.mat").write_text(text.replace("extra 5 9 0 1", "extra 5 9 0 3")
                                    .replace("extra 5 8 0 1", "extra 5 8 0 2"))
    with pytest.raises(AlgebraError, match=r"^extra value 2 outside the field range \[0, 2\)$"):
        Loader().matrix(str(tmp_path / "m.mat"))


@pytest.mark.parametrize("name,old,new,message", [
    ("adic4.twr", "transition 0 0 0 1", "transition 7 0 0 1\ntransition 5 0 0 1",
     "transition index 7 out of range"),
    ("shift_f2.mat", "extra 5 6 0 1", "extra 9 6 0 1\nextra 8 6 0 1",
     "extra row 9 outside window 6"),
], ids=["transition", "extra"])
def test_the_first_group_index_out_of_range_is_named(tmp_path, name, old, new, message):
    # of two faulty first indices, the one on the earlier line is named
    for other in RENDERED:
        shutil.copy(corpus.path(other), tmp_path / other)
    path = tmp_path / name
    path.write_text(RENDERED[name].replace(old, new))
    with pytest.raises(ParseError, match=f"^{message}$"):
        Loader().load(str(path))


@pytest.mark.parametrize("name", sorted(RENDERED))
def test_bundled_files_read_their_sparse_records_in_bulk(name, monkeypatch):
    # no sparse record of a well-formed file is converted or checked one
    # at a time: _ints and _in_field see dense lines and counts only
    ints, in_field = serialize._ints, serialize._in_field

    def dense_only(seen):
        assert seen not in serialize.SPARSE_USAGE, f"{seen} read record by record"

    monkeypatch.setattr(serialize, "_ints", lambda rec: dense_only(rec[0]) or ints(rec))
    monkeypatch.setattr(serialize, "_in_field",
                        lambda key, vals, q: dense_only(key) or in_field(key, vals, q))
    Loader().load(corpus.path(name))


@pytest.mark.parametrize("recs", [
    [["c", "0", "0", "0"]],
    [["c", "0", "0", "0", "1", "1"]],
    [["c", "0", "0", "0", "1"], ["c", "0", "0", "1"]],
    [["c", "0", "x", "0", "1"]],
    [["c", "0", "0", "0", str(BIG)]],
    [["c", "0", "0", "0", "1"], ["c", "0", "0", "0", "0"]],
], ids=["short", "long", "ragged", "not-int", "past-int64", "duplicate"])
def test_bulk_conversion_rejects_what_the_record_reader_must_diagnose(recs):
    assert serialize._bulk_records(recs) is None


def test_bulk_conversion_keeps_line_order_and_reads_as_int_does():
    idx, vals = serialize._bulk_records([["c", "2", "0", "1", "1"], ["c", "0", "+1", "0", "0"],
                                         ["c", "\u0661", "1_0", "-0", "1"]])
    assert idx.tolist() == [[2, 0, 1], [0, 1, 0], [1, 10, 0]]
    assert vals.tolist() == [1, 0, 1]
    assert idx.dtype == vals.dtype == np.int64

"""Driver subcommands: frozen reports, exit codes, determinism."""

from __future__ import annotations

import ast
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from topring import acceptance, cli, corpus, endo, serialize
from topring.algebras import InternalInconsistencyError, truncated_poly_algebra
from topring.endo import omega_system, polynomial_adic_system
from topring.fields import GF
from topring.matrixtop import windowed
from topring.modules import right_regular_module
from topring.towers import constant_tower


def run(capsys, *argv):
    rc = cli.main(list(argv))
    return rc, capsys.readouterr().out


def lines(out):
    return out.splitlines()


def test_wedderburn_group_algebra(capsys):
    rc, out = run(capsys, "wedderburn", corpus.path("f2c3.alg"))
    assert rc == 0
    body = lines(out)
    assert "factor 2 1" in body
    assert "factor 4 1" in body
    assert body.count("factor 2 1") + body.count("factor 4 1") == 2


def test_classify_perfect_adic_tower(capsys):
    rc, out = run(capsys, "classify-perfect", corpus.path("adic4.twr"))
    assert rc == 0
    body = lines(out)
    assert "verdict PERFECT" in body
    assert "radical_dims 0 1 2 3 4" in body
    assert "t_nilpotency certificate 1 2 3 4 5" in body
    assert "quotient_factor 2 1" in body


def test_radical_report(capsys):
    rc, out = run(capsys, "radical", corpus.path("f2x3.alg"))
    assert rc == 0
    body = lines(out)
    assert "radical_dim 2" in body
    assert "nilpotency_index 3" in body
    assert "basis 0 1 1" in body and "basis 1 2 1" in body


def test_decompose_module_report(capsys):
    rc, out = run(capsys, "decompose-module", corpus.path("f2c3_reg.mod"))
    assert rc == 0
    body = lines(out)
    assert "summands 2" in body
    assert "summand 0 1" in body and "summand 1 2" in body


def test_classify_tower_blocks(capsys):
    rc, out = run(capsys, "classify-tower", corpus.path("blocks2.twr"))
    assert rc == 0
    body = lines(out)
    assert "kind SEMISIMPLE" in body
    assert body.index("factor 2 1") < body.index("factor 2 2") < body.index("factor 4 1")


def test_classify_tower_adic_rejected(capsys):
    rc, out = run(capsys, "classify-tower", corpus.path("adic4.twr"))
    assert rc == 0
    body = lines(out)
    assert "kind NOT" in body
    assert "witness_level 1" in body


def test_lift_idempotents_transcript(capsys):
    rc, out = run(capsys, "lift-idempotents", corpus.path("t2_f2.alg"))
    assert rc == 0
    body = lines(out)
    assert "members 2" in body
    assert "check 0 1 1 1" in body and "check 1 1 1 1" in body
    assert "sums_to_unit 1" in body


def test_lift_idempotents_accepts_tower(capsys):
    rc, out = run(capsys, "lift-idempotents", corpus.path("adic4.twr"))
    assert rc == 0
    body = lines(out)
    assert "algebra_dim 5" in body
    assert "radical_dim 4" in body
    assert "members 1" in body
    assert "sums_to_unit 1" in body


def test_matmul_shift_pair_is_identity(capsys):
    rc, out = run(capsys, "matmul", corpus.path("shift_f2.mat"),
                  corpus.path("lshift_f2.mat"))
    assert rc == 0
    body = lines(out)
    assert "window 6" in body
    for x in range(6):
        assert f"entry {x} {x} 0 1" in body
    assert sum(1 for ln in body if ln.startswith("entry")) == 6


def test_matmul_uncertifiable_product_fails_validation(capsys):
    rc, _ = run(capsys, "matmul", corpus.path("shift_f2.mat"),
                corpus.path("shift_f2.mat"))
    assert rc == 3


def test_transport_preserves_endomorphisms(capsys):
    rc, out = run(capsys, "transport", corpus.path("dual2_reg.mod"), "--window", "3")
    assert rc == 0
    body = lines(out)
    assert "module_dim 6" in body
    assert "end_dim_source 2" in body
    assert "end_dim_transported 2" in body
    assert "fully_faithful 1" in body


def test_contratensor_closed_form(capsys):
    rc, out = run(capsys, "contratensor", corpus.path("dual2_reg.mod"), "--window", "3")
    assert rc == 0
    body = lines(out)
    assert "tensor_dim 12" in body
    assert "relation_rank 6" in body
    assert "fp_dim 6" in body
    assert "cardinality 64" in body


def test_bass_flat_projective(capsys):
    rc, out = run(capsys, "bass-flat", corpus.path("f2c3.alg"),
                  "--depth", "5", "--seed", "7")
    assert rc == 0
    body = lines(out)
    assert "seed 7" in body
    assert "verdict PROJECTIVE" in body
    assert "stabilization_index 2" in body


def test_split_limit_not_split(capsys):
    rc, out = run(capsys, "split-limit", corpus.path("chain6.sys"))
    assert rc == 0
    body = lines(out)
    assert "kind NOT_SPLIT" in body
    assert "socle_heights 0 1 2 3 4 5" in body
    assert "sum_height_bound 5" in body


def test_coperfect_witness_survives_refinement(capsys):
    rc, out = run(capsys, "coperfect", corpus.path("chain6.sys"),
                  corpus.path("chain7.sys"), "--depth", "5")
    assert rc == 0
    body = lines(out)
    assert "kind witness" in body
    assert "refinement_verified 1" in body


@pytest.mark.parametrize("verb,target,refined,small,big", [
    ("coperfect", "chain7.sys", "chain6.sys", 21, 28),
    ("bridge", "chain7.sys", "chain6.sys", 21, 28),
    ("coperfect", "chain6.sys", "f2c3_reg.mod", 3, 21),
])
def test_refinement_smaller_than_its_target_exits_3(capsys, verb, target, refined, small, big):
    rc = cli.main([verb, corpus.path(target), corpus.path(refined)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == (f"error: refinement module over End has dimension {small}, "
                            f"smaller than the target's {big}\n")


@pytest.mark.parametrize("verb", ["coperfect", "bridge"])
def test_refinement_of_a_target_that_is_not_truncated_exits_3(capsys, verb):
    rc = cli.main([verb, corpus.path("chain6_n6.mod"), corpus.path("chain7.sys")])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == "error: refinement given, but the target module is not truncated\n"


def test_coperfect_notes_a_refinement_it_did_not_examine(capsys, tmp_path):
    # no chain of length 20 exists in the depth-3 family, so the depth-4
    # refinement plays no part, and the report says so
    for depth in (3, 4):
        system = polynomial_adic_system(GF(2), depth)
        alg = f"f2x{depth}.alg"
        (tmp_path / alg).write_text(serialize.write_algebra(system.modules[0].algebra))
        refs = [f"chain{depth}_n{i + 1}.mod" for i in range(depth)]
        for ref, N in zip(refs, system.modules):
            (tmp_path / ref).write_text(serialize.write_module(N, alg))
        (tmp_path / f"chain{depth}.sys").write_text(serialize.write_system(system, refs))
    target, refinement = str(tmp_path / "chain3.sys"), str(tmp_path / "chain4.sys")
    rc, plain = run(capsys, "coperfect", target, "--depth", "20")
    assert rc == 0
    rc, out = run(capsys, "coperfect", target, refinement, "--depth", "20")
    assert rc == 0
    body = lines(out)
    note = "note refinement not examined: no witness chain of length 20"
    assert body.count(note) == 1
    assert body[body.index(note) + 1] == "refinement_verified 0"
    assert [line for line in body if line != note] == lines(plain)
    assert "kind certificate" in body


def test_coperfect_finite_module_certificate(capsys):
    rc, out = run(capsys, "coperfect", corpus.path("f2c3_reg.mod"), "--depth", "3")
    assert rc == 0
    body = lines(out)
    assert "kind certificate" in body
    assert "evidence bound" in body
    assert "bound 2" in body


def test_coperfect_chain_longer_than_its_bound_exits_4(capsys, monkeypatch):
    # the chain search finds bases of dims [2, 1, 0], a chain of length 2
    monkeypatch.setattr(endo, "composition_length", lambda M: 1)
    rc = cli.main(["coperfect", corpus.path("dual2_reg.mod")])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert captured.err == ("inconsistency: chain of length 2 exceeds the composition "
                            "length bound 1\n")


def test_bridge_consistent(capsys):
    rc, out = run(capsys, "bridge", corpus.path("chain6.sys"), "--depth", "5")
    assert rc == 0
    body = lines(out)
    assert "perfect_verdict NOT_PERFECT" in body
    assert "sigma_kind witness" in body
    assert "consistent 1" in body


@pytest.mark.parametrize("depth,verdict", [(12, "NOT_PERFECT"), (13, "UNKNOWN")])
def test_bridge_verdict_on_chain7_flips_at_the_nilpotency_index(capsys, depth, verdict):
    # rad End of the sum of F2[x]/(x^n), n = 1..7, has nilpotency index 13
    rc, out = run(capsys, "bridge", corpus.path("chain7.sys"), "--depth", str(depth))
    assert rc == 0
    assert f"perfect_verdict {verdict}" in lines(out)


def test_reports_are_byte_identical_across_runs(capsys, tmp_path):
    out1 = tmp_path / "r1.txt"
    out2 = tmp_path / "r2.txt"
    rc1, text1 = run(capsys, "classify-perfect", corpus.path("adic4.twr"),
                     "--out", str(out1))
    rc2, text2 = run(capsys, "classify-perfect", corpus.path("adic4.twr"),
                     "--out", str(out2))
    assert rc1 == rc2 == 0
    assert text1 == text2
    assert out1.read_text() == out2.read_text() == text1


def test_unwritable_out_exits_2_without_a_report(capsys, tmp_path):
    target = tmp_path / "missing" / "x.txt"
    rc = cli.main(["radical", corpus.path("f2c3.alg"), "--out", str(target)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: cannot write {target}: No such file or directory\n"
    assert not target.exists()


def test_missing_file_exits_2(capsys):
    rc, _ = run(capsys, "radical", "/nonexistent/no.alg")
    assert rc == 2


def test_garbage_file_exits_2(capsys, tmp_path):
    p = tmp_path / "bad.alg"
    p.write_text("object algebra\nfield banana\nend\n")
    rc, _ = run(capsys, "radical", str(p))
    assert rc == 2


def test_wrong_object_kind_exits_3(capsys):
    rc, _ = run(capsys, "radical", corpus.path("chain6.sys"))
    assert rc == 3


def test_non_semisimple_input_exits_3(capsys):
    rc, _ = run(capsys, "wedderburn", corpus.path("f2x3.alg"))
    assert rc == 3


def test_bad_depth_exits_3(capsys):
    rc, _ = run(capsys, "bass-flat", corpus.path("f2.alg"), "--depth", "0")
    assert rc == 3


def test_bass_flat_depth_cap(capsys):
    cap = cli.MAX_BASS_FLAT_DEPTH
    rc = cli.main(["bass-flat", corpus.path("f3.alg"), "--depth", str(cap + 1)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert f"cap of {cap} terms" in captured.err
    rc, out = run(capsys, "bass-flat", corpus.path("f3.alg"), "--depth", str(cap))
    assert rc == 0
    assert f"length {cap}" in lines(out)


def test_bad_window_exits_3(capsys):
    rc, _ = run(capsys, "transport", corpus.path("dual2_reg.mod"), "--window", "0")
    assert rc == 3


def test_too_many_inputs_exits_3(capsys):
    rc, _ = run(capsys, "coperfect", corpus.path("chain6.sys"),
                corpus.path("chain7.sys"), corpus.path("chain6.sys"))
    assert rc == 3


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_verify_report_shape(capsys, monkeypatch):
    # the real suites run in their own gate tests; stub them here to pin
    # the report layout and the nonzero-count rule
    canned = [acceptance.SuiteResult(name="a", checks=3, report="r"),
              acceptance.SuiteResult(name="b", checks=2, report="r")]
    monkeypatch.setattr(acceptance, "run_all", lambda seed: canned)
    rc, out = run(capsys, "verify")
    assert rc == 0
    body = lines(out)
    assert "corpus_in_sync 1" in body
    assert "suite a pass 3" in body and "suite b pass 2" in body
    assert "total_checks 5" in body


def test_verify_empty_suite_exits_4(capsys, monkeypatch):
    canned = [acceptance.SuiteResult(name="a", checks=0, report="r")]
    monkeypatch.setattr(acceptance, "run_all", lambda seed: canned)
    rc, _ = run(capsys, "verify")
    assert rc == 4


def test_verify_corpus_drift_exits_4(capsys, monkeypatch):
    real = corpus.read
    monkeypatch.setattr(corpus, "read",
                        lambda name: "x" if name == "f2.alg" else real(name))
    rc, _ = run(capsys, "verify")
    assert rc == 4


def test_duplicate_record_exits_2(capsys, tmp_path):
    p = tmp_path / "dup.alg"
    p.write_text(corpus.read("f2.alg").replace("c 0 0 0 1", "c 0 0 0 1\nc 0 0 0 0"))
    rc, _ = run(capsys, "radical", str(p))
    assert rc == 2


def test_memory_error_exits_3(capsys, monkeypatch):
    # stands in for numpy failing to allocate; nothing large is allocated
    def exhausted(args, loader):
        raise MemoryError("Unable to allocate 59.6 GiB")

    monkeypatch.setitem(cli._HANDLERS, "radical", (exhausted, 1, "stub"))
    rc = cli.main(["radical", corpus.path("f2.alg")])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory")


def test_coperfect_on_a_vector_space_fits_in_600_mb(tmp_path):
    # End of the 5-dimensional F2-space is Mat_5(F2), dim 25, so the regular
    # composition length is computed; read off the layers, not off their
    # images in Mat_25(F2), it needs no 625^3 structure tensor
    (tmp_path / "f2.alg").write_text(corpus.read("f2.alg"))
    acts = "".join(f"act 0 {i} {i} 1\n" for i in range(5))
    (tmp_path / "v5.mod").write_text(
        f"object module\nalgebra f2.alg\nside right\ndim 5\n{acts}end\n")
    cap = 600 * 2 ** 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    done = subprocess.run([sys.executable, "-m", "topring.cli", "coperfect", "v5.mod"],
                          cwd=tmp_path, env=_child_env(), preexec_fn=limit,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "bound 5" in done.stdout.splitlines()


def _child_env():
    """This environment with one BLAS thread and this package importable."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, OPENBLAS_NUM_THREADS="1",
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


# Runs topring.cli with the given arguments in a child forked from this small
# interpreter and writes that child's own ru_maxrss (kilobytes on Linux), read
# from wait4, to the file named first.  A child spawned straight from the test
# process would not do: a forked child's peak starts at the resident size of
# the process it was forked from, and exec keeps that peak
_MAXRSS_LAUNCHER = """
import os, sys
pid = os.fork()
if pid == 0:
    os.execv(sys.executable, [sys.executable, "-m", "topring.cli", *sys.argv[2:]])
_, status, usage = os.wait4(pid, 0)
with open(sys.argv[1], "w") as fh:
    fh.write(str(usage.ru_maxrss))
sys.exit(os.waitstatus_to_exitcode(status))
"""


def test_bridge_on_the_chain_families_peaks_below_70_mb(tmp_path):
    # End of the 21- and 28-dimensional sums (k = 91 and 140) is built, but
    # the chain search never forms its k^3 structure tensor; forming it and
    # its read-only copy took the peak to about 92 MB
    maxrss = tmp_path / "maxrss"
    done = subprocess.run(
        [sys.executable, "-c", _MAXRSS_LAUNCHER, str(maxrss), "bridge",
         corpus.path("chain6.sys"), corpus.path("chain7.sys"), "--depth", "5"],
        env=_child_env(), capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (b"report bridge\nseed 0\ndepth 5\nperfect_verdict NOT_PERFECT\n"
                           b"sigma_kind witness\nconsistent 1\nmodule_semisimple 0\nend\n")
    assert int(maxrss.read_text()) < 70 * 1024


def _absolute_refs(text):
    """The same description with every file reference pointing into the corpus."""
    out = []
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] in ("algebra", "level", "module"):
            parts[-1] = corpus.path(parts[-1])
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


COUNT_LINES = [
    ("radical", "f2.alg", "dim 1"),
    ("decompose-module", "dual2_reg.mod", "dim 2"),
    ("classify-tower", "blocks2.twr", "levels 3"),
    ("matmul", "shift_f2.mat", "window 6"),
    ("split-limit", "chain6.sys", "modules 6"),
]


@pytest.mark.parametrize("verb,name,line", COUNT_LINES,
                         ids=[f"{n}:{l.split()[0]}" for _, n, l in COUNT_LINES])
@pytest.mark.parametrize("form", ["bare", "two-values", "zero", "negative"])
def test_count_line_needs_one_integer(capsys, tmp_path, verb, name, line, form):
    keyword = line.split()[0]
    bad = {"bare": keyword, "two-values": f"{line} 1",
           "zero": f"{keyword} 0", "negative": f"{keyword} -1"}[form]
    text = _absolute_refs(corpus.read(name))
    assert f"\n{line}\n" in text
    p = tmp_path / name
    p.write_text(text.replace(f"\n{line}\n", f"\n{bad}\n"))
    inputs = [str(p)] * (2 if verb == "matmul" else 1)
    rc = cli.main([verb, *inputs])
    assert rc == 2
    message = "needs a count of at least 1" if form in ("zero", "negative") else "takes one integer"
    assert f"{keyword} line {message}" in capsys.readouterr().err


def test_decompose_module_without_class_isomorphism_exits_4(capsys, tmp_path, monkeypatch):
    from topring import modules, serialize
    from topring.modules import right_regular_module

    algebra = corpus.path("mat2_f2.alg")
    reg = right_regular_module(serialize.Loader().algebra(algebra))
    p = tmp_path / "mat2_reg.mod"
    p.write_text(serialize.write_module(reg, algebra))
    monkeypatch.setattr(modules, "find_isomorphism", lambda M, N: None)
    rc = cli.main(["decompose-module", str(p)])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert "summands 1 and 0" in captured.err


def test_radical_disagreeing_with_the_brute_force_oracle_exits_4(capsys, monkeypatch):
    from topring import towers

    monkeypatch.setattr(towers, "radical_bruteforce",
                        lambda R: np.zeros((0, R.dim), dtype=np.int64))
    rc = cli.main(["classify-perfect", corpus.path("adic4.twr")])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert captured.err.startswith(
        "inconsistency: level 1: radical differs from the brute-force oracle")


def test_module_radical_route_disagreeing_exits_4(capsys, monkeypatch):
    # the tower passed build_tower, so the two routes of tp_formula_check
    # disagreeing is a bug, not an invalid input
    from topring import towers

    monkeypatch.setattr(towers, "radical_of_module",
                        lambda M: np.zeros((0, M.dim), dtype=np.int64))
    rc = cli.main(["classify-perfect", corpus.path("adic4.twr")])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert captured.err == "inconsistency: levels 2->1: module radical route disagrees\n"


def test_hom_space_not_closed_under_composition_exits_4(capsys, monkeypatch):
    # the module passed FiniteModule(check=True), so a hom basis that the
    # tripwires of endo_algebra reject is a bug, not an invalid input
    from topring import modules

    real = modules.hom_space

    def flipped(M, N):
        homs = real(M, N).copy()
        homs[-1, -1, -1] ^= 1
        return homs

    monkeypatch.setattr(modules, "hom_space", flipped)
    rc = cli.main(["decompose-module", corpus.path("chain6_n6.mod")])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert captured.err == "inconsistency: hom space is not closed under composition\n"


def test_exit_4_has_one_exception():
    # every route disagreement raises InternalInconsistencyError: src/ names
    # no AssertionError and has no assert statement (python -O strips those),
    # and no `except ValueError` or `except AlgebraError` can catch the class
    src = Path(cli.__file__).parent
    found = [f"{path.relative_to(src)}:{node.lineno}"
             for path in sorted(src.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Name) and node.id == "AssertionError"]
    assert found == []
    assert not issubclass(InternalInconsistencyError, ValueError)


def test_parser_is_built_once(capsys):
    first = cli._build_parser()
    assert run(capsys, "radical", corpus.path("f2x3.alg"))[0] == 0
    assert cli._build_parser() is first


def _value_rule_files(tmp_path, F):
    """One valid description file per object kind over F, together holding
    every record kind that carries field values."""
    A = truncated_poly_algebra(F, 2)
    M = right_regular_module(A)
    entries = np.zeros((2, 2, 2), dtype=np.int64)
    entries[0, 1, 0] = 1
    xrow = np.array([[0, 1]], dtype=np.int64)
    m = windowed(A, "omega", entries, extras=[[(2, A.unit)], []],
                 tails=[xrow, xrow], precisions=[xrow, xrow])
    texts = {
        "a.alg": serialize.write_algebra(A),
        "m.mod": serialize.write_module(M, "a.alg"),
        "t.twr": serialize.write_tower(constant_tower(A, 1), ["a.alg"] * 2),
        "s.sys": serialize.write_system(
            omega_system([M, M], [np.eye(2, dtype=np.int64)]), ["m.mod"] * 2),
        "x.mat": serialize.write_matrix(m, "a.alg"),
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
        assert serialize.Loader().load(str(tmp_path / name)) is not None


VALUE_CASES = [
    ("c", "radical", "a.alg"),
    ("unit", "radical", "a.alg"),
    ("act", "decompose-module", "m.mod"),
    ("transition", "classify-tower", "t.twr"),
    ("map", "split-limit", "s.sys"),
    ("entry", "matmul", "x.mat"),
    ("extra", "matmul", "x.mat"),
    ("tail", "matmul", "x.mat"),
    ("precision", "matmul", "x.mat"),
]


@pytest.mark.parametrize("key,verb,name", VALUE_CASES, ids=[k for k, _, _ in VALUE_CASES])
@pytest.mark.parametrize("F", [GF(2), GF(2, 2)], ids=["F2", "GF4"])
@pytest.mark.parametrize("form", ["too-large", "negative"])
def test_value_outside_the_field_exits_3(capsys, tmp_path, key, verb, name, F, form):
    # the last token of the first `key` line is a field value; replace it
    _value_rule_files(tmp_path, F)
    bad = {"too-large": F.q, "negative": -1}[form]
    path = tmp_path / name
    text = path.read_text().splitlines()
    at = next(i for i, ln in enumerate(text) if ln.split()[0] == key)
    text[at] = " ".join(text[at].split()[:-1] + [str(bad)])
    path.write_text("\n".join(text) + "\n")
    inputs = [str(path)] * (2 if verb == "matmul" else 1)
    rc = cli.main([verb, *inputs])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == f"error: {key} value {bad} outside the field range [0, {F.q})\n"

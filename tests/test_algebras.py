"""Structure-constant algebras: validation, radical, quotients, ideals."""

import itertools
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from topring import acceptance, algebras, linalg
from topring.algebras import (
    AlgebraError,
    InternalInconsistencyError,
    StructureAlgebra,
    SubspaceIdeal,
    basis_change,
    corner_basis,
    cyclic_group_algebra,
    field_algebra,
    field_extension_algebra,
    hom_failures,
    ideal_span,
    invert_in_one_plus_H,
    matrix_algebra,
    product_algebra,
    quotient,
    radical,
    radical_bruteforce,
    subalgebra_closure,
    subalgebra_structure,
    tensor_algebra,
    truncated_poly_algebra,
    upper_triangular_algebra,
)
from topring.fields import GF
from topring.serialize import Loader

from oracles import (
    closure_failures_loop,
    corner_loop,
    hidden_block_algebras,
    hom_failures_loop,
    quotient_structure_loop,
    radical_bruteforce_loop,
    solve_left_rows,
    table_mul,
)

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)
F5 = GF(5)
F8 = GF(2, 3)
F9 = GF(3, 2)


def mat2_over_dual_numbers():
    return tensor_algebra(matrix_algebra(F2, 2), truncated_poly_algebra(F2, 2))


def test_validate_algebra_reports_failing_triples():
    c = matrix_algebra(F2, 2).c.copy()
    c[1, 2, 0] = 1 - c[1, 2, 0]  # corrupt one product
    with pytest.raises(AlgebraError) as exc:
        StructureAlgebra(F2, c, matrix_algebra(F2, 2).unit, check=True)
    assert any("associativity" in d for d in exc.value.diagnostics)


def test_validate_algebra_reports_bad_unit():
    A = matrix_algebra(F2, 2)
    bad_unit = np.zeros(4, dtype=np.int64)
    bad_unit[0] = 1  # E_00 alone is not a two-sided identity
    with pytest.raises(AlgebraError) as exc:
        StructureAlgebra(F2, A.c, bad_unit, check=True)
    assert any("identity" in d for d in exc.value.diagnostics)


def test_upper_triangular_radical_and_quotient():
    T2 = upper_triangular_algebra(F2, 2)
    rad = radical(T2)
    assert rad.basis.tolist() == [[0, 1, 0]]  # span of the strict upper entry
    Q, proj, section = quotient(T2, rad)
    assert Q.dim == 2 and np.array_equal(Q.c, np.swapaxes(Q.c, 0, 1))
    assert radical(Q).is_zero()
    # section is a right inverse of proj
    assert np.array_equal(linalg.matmul(F2, section, proj), np.eye(2, dtype=np.int64))


def test_truncated_polynomial_radical():
    A = truncated_poly_algebra(F2, 4)
    rad = radical(A)
    expect = np.zeros((3, 4), dtype=np.int64)
    expect[0, 1] = expect[1, 2] = expect[2, 3] = 1
    assert np.array_equal(rad.basis, expect)
    assert rad.nilpotency_index() == 4


NAMED_ALGEBRAS = [
    ("T2(F2)", upper_triangular_algebra(F2, 2)),
    ("T3(F2)", upper_triangular_algebra(F2, 3)),
    ("T2(F4)", upper_triangular_algebra(F4, 2)),
    ("F2[x]/(x^4)", truncated_poly_algebra(F2, 4)),
    ("F3[x]/(x^3)", truncated_poly_algebra(F3, 3)),
    ("F4[x]/(x^2)", truncated_poly_algebra(F4, 2)),
    ("Mat2(F2)", matrix_algebra(F2, 2)),
    ("F2[C3]", cyclic_group_algebra(F2, 3)),
    ("F2[C4]", cyclic_group_algebra(F2, 4)),
    ("F3[C3]", cyclic_group_algebra(F3, 3)),
    ("F16/F2", field_extension_algebra(F2, 4)),
    ("Mat2(F2[x]/(x^2))", mat2_over_dual_numbers()),
    ("T2(F2) x F2[x]/(x^2)", product_algebra(upper_triangular_algebra(F2, 2), truncated_poly_algebra(F2, 2))),
    ("T2(F8)", upper_triangular_algebra(F8, 2)),
    ("F8[x]/(x^3)", truncated_poly_algebra(F8, 3)),
    ("F9[x]/(x^2)", truncated_poly_algebra(F9, 2)),
    # the trace forms reach level 1, whose power is x^5
    ("F5[x]/(x^5)", truncated_poly_algebra(F5, 5)),
]


@pytest.mark.parametrize("name,A", NAMED_ALGEBRAS, ids=[n for n, _ in NAMED_ALGEBRAS])
def test_radical_matches_bruteforce(name, A):
    assert np.array_equal(radical(A).basis, radical_bruteforce(A))


def diagonal_algebra(F, n, check=True):
    """F^n with its coordinate idempotents as basis."""
    c = np.zeros((n, n, n), dtype=np.int64)
    c[np.arange(n), np.arange(n), np.arange(n)] = 1
    return StructureAlgebra(F, c, np.ones(n, dtype=np.int64), check=check)


def natural_matrix_algebra(F, k):
    """Mat_k(F) acting on F^k: the basis E_ab is its own k x k matrix."""
    A = matrix_algebra(F, k)
    rep = np.zeros((k * k, k, k), dtype=np.int64)
    for a in range(k):
        for b in range(k):
            rep[a * k + b, a, b] = 1
    return StructureAlgebra(F, A.c, A.unit, check=False, rep=rep)


@pytest.mark.parametrize("A", [
    diagonal_algebra(F8, 32, check=False), diagonal_algebra(F4, 8),
    natural_matrix_algebra(F4, 4), matrix_algebra(F4, 3), field_extension_algebra(F8, 2),
], ids=["GF8^32", "GF4^8", "Mat4(GF4) natural", "Mat3(GF4)", "GF64/GF8"])
def test_semisimple_radical_finishes_at_level_zero(monkeypatch, A):
    # a nondegenerate trace form leaves no kernel, so nothing is powered;
    # Mat4(GF4) needs its natural representation, because its regular
    # one is four copies of it and has trace form zero in characteristic 2
    def no_powers(W, e, m):
        raise AssertionError("a level past 0 was reached")

    monkeypatch.setattr(algebras, "_batch_power_mod", no_powers)
    assert radical(A).is_zero()


_NOT_DIVISIBLE = "^divided trace not divisible; filtration broken$"


@pytest.mark.parametrize("A,message", [
    (diagonal_algebra(F2, 4), _NOT_DIVISIBLE), (diagonal_algebra(F8, 3), _NOT_DIVISIBLE),
    (matrix_algebra(F4, 3), _NOT_DIVISIBLE),
    (field_extension_algebra(F3, 2), "^ideal is not nilpotent within the dimension bound$"),
], ids=["F2^4", "GF8^3", "Mat3(GF4)", "F9/F3"])
def test_zeroed_level_zero_gram_makes_radical_raise(monkeypatch, A, message):
    # the whole algebra survives level 0 and fails the divisibility check
    # at level 1, or else the final level's nilpotency check; either is a
    # disagreement of the climb with the theory, and nothing is returned
    gram = algebras._trace_gram

    def zeroed(mats, p, i):
        out = gram(mats, p, i)
        return np.zeros_like(out) if i == 0 else out

    monkeypatch.setattr(algebras, "_trace_gram", zeroed)
    with pytest.raises(InternalInconsistencyError, match=message):
        radical(A)


def _suite_radical_algebras() -> list[StructureAlgebra]:
    """Every algebra whose radical the radical-correctness suite takes."""
    seen = []
    real = acceptance.radical

    def record(A):
        seen.append(A)
        return real(A)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(acceptance, "radical", record)
        acceptance.suite_radical(0)
    return seen


def _block_products() -> list[StructureAlgebra]:
    blocks = [lambda F: matrix_algebra(F, 2), lambda F: matrix_algebra(F, 3),
              lambda F: field_extension_algebra(F, 2), lambda F: truncated_poly_algebra(F, 3),
              lambda F: upper_triangular_algebra(F, 3)]
    return [product_algebra(blocks[a](F), blocks[b](F))
            for F in (F2, F3, F4)
            for a, b in itertools.combinations_with_replacement(range(len(blocks)), 2)]


def test_radical_stop_agrees_with_the_full_climb():
    # the climb stops at the first nilpotent ideal; with the stop test
    # never firing it climbs every level and checks the last kernel
    corpus_dir = Path(algebras.__file__).parent / "corpus"
    bundled = [Loader().algebra(str(p)) for p in sorted(corpus_dir.glob("*.alg"))]
    cases = _suite_radical_algebras() + bundled + _block_products()
    assert len(bundled) >= 10 and len(cases) > 100
    full = []
    check = algebras._nilpotent_ideal
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebras, "_nilpotent_ideal",
                   lambda A, J, final: check(A, J, final) if final else None)
        for A in cases:
            copy = StructureAlgebra(A.field, A.c, A.unit, check=False, rep=A.rep)
            H = radical(copy)
            full.append((H.basis, H.nilpotency_index()))
    for A, (basis, nu) in zip(cases, full):
        H = radical(A)
        assert np.array_equal(H.basis, basis), A
        assert H.nilpotency_index() == nu, A


def test_truncated_radical_stops_at_level_zero(monkeypatch):
    # tr(1) = 5 is a unit mod 3, so the level-0 kernel is already rad A
    def no_powers(W, e, m):
        raise AssertionError("a level past 0 was reached")

    monkeypatch.setattr(algebras, "_batch_power_mod", no_powers)
    H = radical(truncated_poly_algebra(F3, 5))
    assert H.dim == 4 and H.nilpotency_index() == 5


@pytest.mark.parametrize("A,rows,steps", [
    (product_algebra(field_algebra(F2), field_algebra(F2)), [[1, 0], [0, 1]], 1),
    (product_algebra(field_algebra(F2), truncated_poly_algebra(F2, 2)), [[1, 0, 0], [0, 0, 1]], 2),
], ids=["F2xF2", "F2xF2[x]/(x^2)"])
def test_non_nilpotent_ideal_stops_at_its_fixed_point(monkeypatch, A, rows, steps):
    # F2 x F2 is an ideal of itself with I^2 = I; span{(1, 0), (0, x)} in
    # F2 x F2[x]/(x^2) has I^2 = span{(1, 0)} = I^3
    calls = []
    real = A.mul_pairs
    monkeypatch.setattr(A, "mul_pairs", lambda X, Y: calls.append(1) or real(X, Y))
    I = SubspaceIdeal(A, np.array(rows, dtype=np.int64))
    for _ in range(2):
        with pytest.raises(AlgebraError, match="^ideal is not nilpotent within the dimension bound$"):
            I.nilpotency_index()
    assert len(calls) == steps


def test_radical_ladder_fits_in_600_mb():
    # every level holds O(m*N^2) integers at a time (about 55 MB peak in
    # all); the products M_s M_t of all pairs would take 680 MB for
    # diagonal GF(8)^32, where m = N = 96
    script = """
import numpy as np
from topring.algebras import StructureAlgebra, radical, truncated_poly_algebra
from topring.fields import GF
def diag(F, n):
    c = np.zeros((n, n, n), dtype=np.int64)
    c[np.arange(n), np.arange(n), np.arange(n)] = 1
    return StructureAlgebra(F, c, np.ones(n, dtype=np.int64), check=False)
T = truncated_poly_algebra(GF(2), 32)
for A in (diag(GF(2), 64), diag(GF(2, 3), 32), T):
    print(radical(A).dim)
"""
    cap = 600 * 2 ** 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(algebras.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, preexec_fn=limit,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "0", "31"]


def test_radical_transports_under_basis_change():
    rng = np.random.default_rng(7)
    A = upper_triangular_algebra(F3, 2)
    rad_A = radical(A).basis
    while True:
        P = rng.integers(0, 3, size=(3, 3)).astype(np.int64)
        if linalg.is_invertible(F3, P):
            break
    B = basis_change(A, P)
    assert not B.diagnostics()
    rad_B = radical(B).basis
    # an element with B-coordinates u has A-coordinates u @ P
    back = linalg.matmul(F3, rad_B, P)
    assert np.array_equal(linalg.row_space_basis(F3, back), rad_A)


def test_geometric_series_inverse():
    B = truncated_poly_algebra(F3, 3)
    H = radical(B)
    inv = invert_in_one_plus_H(B, np.array([1, 1, 0]), H)
    assert inv.tolist() == [1, 2, 1]  # 1 - x + x^2


def test_geometric_series_rejects_unit_outside():
    B = truncated_poly_algebra(F3, 3)
    H = radical(B)
    with pytest.raises(AlgebraError):
        invert_in_one_plus_H(B, np.array([2, 0, 0]), H)  # 2 - 1 = 1 not in (x)


def test_min_poly_of_extension_generator():
    A = field_extension_algebra(F2, 2)
    x = np.array([0, 1], dtype=np.int64)
    assert A.min_poly(x).tolist() == [1, 1, 1]
    assert not A.evaluate_poly(A.min_poly(x), x).any()


def test_extension_of_an_extension_field_is_a_field_of_order_16():
    F4 = GF(2, 2)
    A = field_extension_algebra(F4, 2)
    assert (A.field, A.dim) == (F4, 2)
    assert A.field.q ** A.dim == 16
    # commutative, and every nonzero element multiplies injectively
    elements = A.all_elements()
    assert np.array_equal(A.mul_rows(elements, elements[::-1]), A.mul_rows(elements[::-1], elements))
    assert all(linalg.rank(F4, A.lmul_matrix(x)) == 2 for x in elements if x.any())
    assert radical(A).dim == 0


def test_center_dimensions():
    assert matrix_algebra(F3, 2).center_basis().shape[0] == 1
    assert upper_triangular_algebra(F2, 3).center_basis().shape[0] == 1
    two_blocks = product_algebra(field_algebra(F2), matrix_algebra(F2, 2))
    assert two_blocks.center_basis().shape[0] == 2
    assert cyclic_group_algebra(F2, 3).center_basis().shape[0] == 3


def test_ideal_generation():
    M = matrix_algebra(F2, 2)
    e = np.zeros(4, dtype=np.int64)
    e[0] = 1
    assert SubspaceIdeal(M, ideal_span(M, e[None, :], "two"), side="two").dim == 4  # simple
    T = upper_triangular_algebra(F2, 2)
    g = np.zeros(3, dtype=np.int64)
    g[1] = 1
    assert SubspaceIdeal(T, ideal_span(T, g[None, :], "two"), side="two").dim == 1


def test_one_sided_ideals_differ():
    M = matrix_algebra(F2, 2)
    e = np.zeros(4, dtype=np.int64)
    e[0] = 1  # E_00
    left = SubspaceIdeal(M, ideal_span(M, e[None, :], "left"), side="left")
    right = SubspaceIdeal(M, ideal_span(M, e[None, :], "right"), side="right")
    assert left.dim == 2 and right.dim == 2
    assert not np.array_equal(left.basis, right.basis)


def _zero_dimensional(F):
    return StructureAlgebra(F, np.zeros((0, 0, 0), dtype=np.int64),
                            np.zeros(0, dtype=np.int64), check=False)


@pytest.mark.parametrize("F", [F2, GF(3), GF(2, 2)], ids=str)
def test_zero_subspace_of_a_zero_dimensional_algebra(F):
    A = _zero_dimensional(F)
    I = SubspaceIdeal(A, np.zeros((0, 0), dtype=np.int64))
    assert I.basis.shape == (0, 0) and I.basis.dtype == np.int64
    assert I.is_zero() and I.pivots == []
    assert I.contains(np.zeros((3, 0), dtype=np.int64))
    assert ideal_span(A, I.basis).shape == (0, 0)
    assert [m.shape for m in linalg.quotient_maps(F, I.basis, 0)] == [(0, 0), (0, 0)]


@pytest.mark.parametrize("F", [F2, GF(3), GF(2, 2)], ids=str)
def test_radical_of_a_zero_dimensional_algebra_is_zero(F):
    H = radical(_zero_dimensional(F))
    assert H.basis.shape == (0, 0) and H.basis.dtype == np.int64
    assert H.is_zero() and H.nilpotency_index() == 1


def test_quotient_requires_two_sided():
    M = matrix_algebra(F2, 2)
    e = np.zeros(4, dtype=np.int64)
    e[0] = 1
    left = SubspaceIdeal(M, ideal_span(M, e[None, :], "left"), side="left")
    with pytest.raises(AlgebraError):
        quotient(M, left)


def test_generators_are_small_and_generate():
    A = matrix_algebra(F2, 2)
    gens = A.generator_elements()
    assert gens.shape[0] <= 3
    span = subalgebra_closure(A, np.vstack([A.unit[None, :], gens]))
    assert span.shape[0] == A.dim


def test_cardinality_and_enumeration():
    A = truncated_poly_algebra(F3, 2)
    assert A.cardinality() == 9
    assert A.all_elements().shape == (9, 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 6 - 1), st.integers(0, 2 ** 6 - 1))
def test_multiplication_matrices_agree(a_code, b_code):
    A = upper_triangular_algebra(F2, 3)
    x = np.array([(a_code >> i) & 1 for i in range(6)], dtype=np.int64)
    y = np.array([(b_code >> i) & 1 for i in range(6)], dtype=np.int64)
    xy = A.mul(x, y)
    assert np.array_equal(xy, linalg.matvec(F2, y, A.lmul_matrix(x)))
    assert np.array_equal(xy, linalg.matvec(F2, x, A.rmul_matrix(y)))
    # minimal polynomial annihilates its element
    assert not A.evaluate_poly(A.min_poly(x), x).any()


def test_mul_rows_batches_match_scalar_products():
    A = mat2_over_dual_numbers()
    rng = np.random.default_rng(3)
    X = rng.integers(0, 2, size=(10, 8)).astype(np.int64)
    Y = rng.integers(0, 2, size=(10, 8)).astype(np.int64)
    batch = A.mul_rows(X, Y)
    for i in range(10):
        assert np.array_equal(batch[i], A.mul(X[i], Y[i]))


@pytest.mark.parametrize("F", [F2, F3, F4, GF(3, 2)], ids=str)
def test_corner_basis_matches_product_loop(F):
    rng = np.random.default_rng(13)
    for A in (upper_triangular_algebra(F, 3),
              tensor_algebra(matrix_algebra(F, 2), truncated_poly_algebra(F, 2))):
        while True:
            P = rng.integers(0, F.q, size=(A.dim, A.dim)).astype(np.int64)
            if linalg.is_invertible(F, P):
                break
        B = basis_change(A, P)
        e_00 = linalg.solve_left(F, P, linalg.basis_vector(A.dim, 0))
        pairs = [(B.unit, B.unit), (e_00, e_00), (e_00, B.unit)]
        pairs += [tuple(rng.integers(0, F.q, size=(2, B.dim)).astype(np.int64)) for _ in range(4)]
        for e, f in pairs:
            assert np.array_equal(corner_basis(B, e, f), corner_loop(B, e, f))



@settings(max_examples=40, deadline=None)
@given(st.sampled_from([F2, F3, F4, GF(3, 2)]), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 2 ** 32 - 1))
def test_mul_pairs_matches_table_double_loop(F, h, v, seed):
    A = upper_triangular_algebra(F, 2) if seed % 2 else tensor_algebra(
        matrix_algebra(F, 2), truncated_poly_algebra(F, 2))
    rng = np.random.default_rng(seed)
    X = rng.integers(0, F.q, size=(h, A.dim)).astype(np.int64)
    Y = rng.integers(0, F.q, size=(v, A.dim)).astype(np.int64)
    got = A.mul_pairs(X, Y)
    assert got.shape == (h, v, A.dim)
    for a in range(h):
        for b in range(v):
            assert np.array_equal(got[a, b], table_mul(F, A.c, X[a], Y[b]))


@pytest.mark.parametrize("A", [upper_triangular_algebra(F2, 2), matrix_algebra(F2, 2),
                               matrix_algebra(F4, 2)], ids=["T2(F2)", "Mat2(F2)", "Mat2(F4)"])
def test_closure_failures_match_per_vector_loop(A):
    rng = np.random.default_rng(71)
    nonempty = {"left": 0, "right": 0, "two": 0}
    for _ in range(12):
        rows = rng.integers(0, A.field.q, size=(int(rng.integers(1, A.dim)), A.dim)).astype(np.int64)
        for side in nonempty:
            want = closure_failures_loop(A, linalg.row_space_basis(A.field, rows), side)
            if want:
                nonempty[side] += 1
                with pytest.raises(AlgebraError) as exc:
                    SubspaceIdeal(A, rows, side=side)
                assert exc.value.diagnostics == want
            else:
                SubspaceIdeal(A, rows, side=side)
    assert all(nonempty.values())


@pytest.mark.parametrize("A", [
    upper_triangular_algebra(F2, 3),
    truncated_poly_algebra(F3, 3),
    upper_triangular_algebra(F4, 2),
    truncated_poly_algebra(GF(3, 2), 2),
    mat2_over_dual_numbers(),
], ids=["T3(F2)", "F3[x]/(x^3)", "T2(F4)", "F9[x]/(x^2)", "Mat2(F2[x]/(x^2))"])
def test_quotient_structure_matches_pair_loop(A):
    for I in (radical(A), SubspaceIdeal(A, ideal_span(A, A.unit[None, :] * 0))):
        Q, proj, section = quotient(A, I)
        assert np.array_equal(Q.c, quotient_structure_loop(A, proj, section))


def test_member_rows_and_stacked_contains():
    A = upper_triangular_algebra(F2, 2)
    rad = radical(A)
    V = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=np.int64)
    assert rad.member_rows(V).tolist() == [True, False, True]
    assert rad.contains(V[[0, 2]]) and not rad.contains(V)
    assert rad.contains(V[0]) and not rad.contains(V[1])
    whole = SubspaceIdeal(A, ideal_span(A, A.unit[None, :]))
    assert rad.contains_ideal(rad) and not rad.contains_ideal(whole)


@pytest.mark.parametrize("A", [
    upper_triangular_algebra(F2, 3),
    truncated_poly_algebra(F3, 3),
    upper_triangular_algebra(F4, 2),
    truncated_poly_algebra(GF(3, 2), 2),
    mat2_over_dual_numbers(),
], ids=["T3(F2)", "F3[x]/(x^3)", "T2(F4)", "F9[x]/(x^2)", "Mat2(F2[x]/(x^2))"])
def test_hom_failures_match_pair_loop_on_corrupted_maps(A):
    rng = np.random.default_rng(83)
    Q, proj, _ = quotient(A, radical(A))
    maps = [(A, np.eye(A.dim, dtype=np.int64)), (Q, proj)]
    seen_failures = 0
    for B, T in maps:
        assert hom_failures(A, B, T).tolist() == hom_failures_loop(A, B, T) == []
        for _ in range(6):
            bad = T.copy()
            for _ in range(int(rng.integers(1, 3))):
                i, j = int(rng.integers(T.shape[0])), int(rng.integers(T.shape[1]))
                bad[i, j] = int(rng.integers(A.field.q))
            want = hom_failures_loop(A, B, bad)
            got = hom_failures(A, B, bad)
            assert got.shape == (len(want), 2)
            assert [tuple(p) for p in got.tolist()] == want
            seen_failures += bool(want)
    assert seen_failures


def test_subalgebra_structure_matches_per_product_solves():
    A = mat2_over_dual_numbers()
    # 1, E11 (x) 1 and E12 (x) x span a three-dimensional subalgebra
    basis = subalgebra_closure(A, np.vstack([A.unit, np.eye(A.dim, dtype=np.int64)[[0, 3]]]))
    assert basis.shape[0] == 3
    B, embed = subalgebra_structure(A, basis, A.unit)
    prods = A.mul_pairs(basis, basis).reshape(-1, A.dim)
    assert np.array_equal(B.c.reshape(-1, B.dim), solve_left_rows(F2, basis, prods))
    assert np.array_equal(linalg.matvec(F2, B.unit, embed), A.unit)
    assert not B.diagnostics()


def test_subalgebra_structure_rejects_open_bases():
    A = matrix_algebra(F2, 2)
    e12, e21 = np.eye(4, dtype=np.int64)[[1, 2]]
    with pytest.raises(AlgebraError, match="^basis is not multiplicatively closed$"):
        subalgebra_structure(A, np.vstack([e12, e21]), A.unit)
    with pytest.raises(AlgebraError, match="^unit is outside the subalgebra$"):
        subalgebra_structure(A, e12[None, :], A.unit)


@pytest.mark.parametrize("A", acceptance._finite_ring_pool() + hidden_block_algebras(), ids=repr)
def test_radical_bruteforce_matches_per_element_loop(A):
    assert np.array_equal(radical_bruteforce(A), radical_bruteforce_loop(A))


def test_radical_is_computed_once_per_algebra_object():
    A = upper_triangular_algebra(F3, 2)
    assert radical(A) is radical(A)
    B = upper_triangular_algebra(F3, 2)
    assert B == A and radical(B) is not radical(A)
    # the semisimple-quotient check left the quotient and its zero radical behind
    Q, proj, section = quotient(A, radical(A))
    assert quotient(A, radical(A))[0] is Q
    assert radical(Q).is_zero() and radical(Q) is radical(Q)


def test_cached_arrays_are_read_only():
    A = truncated_poly_algebra(F2, 3)
    rad = radical(A)
    Q, proj, section = quotient(A, rad)
    for arr in (A.c, A.unit, rad.basis, proj, section, Q.c):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1


def test_building_an_algebra_copies_the_callers_arrays():
    base = matrix_algebra(F2, 2)
    c, unit, rep = base.c.copy(), base.unit.copy(), np.stack([np.eye(2, dtype=np.int64)] * 4)
    A = StructureAlgebra(F2, c, unit, rep=rep)
    assert c.flags.writeable and unit.flags.writeable and rep.flags.writeable
    c[0, 0, 0] = 1 - c[0, 0, 0]
    unit[0] = 0
    rep[0, 0, 0] = 0
    assert A == base and A.rep[0, 0, 0] == 1


def test_structure_constants_given_as_a_function_are_built_on_first_read():
    base = matrix_algebra(F2, 2)
    calls = []

    def build():
        calls.append(1)
        return base.c.copy()

    A = StructureAlgebra(F2, build, base.unit, check=False)
    assert calls == [] and A.dim == 4
    assert A == base and A.c is A.c and not A.c.flags.writeable
    assert calls == [1]
    for bad, message in [(np.zeros((4, 4, 3)), "shape"), (base.c + 1, "out of field range")]:
        B = StructureAlgebra(F2, lambda: bad, base.unit, check=False)
        with pytest.raises(AlgebraError, match=message):
            B.c


def test_quotient_by_an_ideal_of_an_equal_algebra_is_not_cached():
    A, B = truncated_poly_algebra(F2, 3), truncated_poly_algebra(F2, 3)
    I = radical(B)
    Q1, proj1, _ = quotient(A, I)
    Q2, proj2, _ = quotient(A, I)
    assert Q1 is not Q2 and Q1 == Q2 and np.array_equal(proj1, proj2)
    assert quotient(B, I)[0] is quotient(B, I)[0]


def test_rerunning_a_suite_recomputes_every_radical(monkeypatch):
    calls = []
    real = algebras._radical

    def counting(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(algebras, "_radical", counting)
    acceptance.suite_perfectness(0)
    first = len(calls)
    acceptance.suite_perfectness(0)
    assert first and len(calls) == 2 * first

"""Semisimple decomposition: factor multisets, matrix units, the verified
isomorphism onto the block model."""

import ast
import random
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    central_idempotents_berlekamp,
    cut_by_factoring,
    exact_div,
    hidden_block_algebras,
    hidden_matrix_block_products,
    primitive_family_rescan,
    proper_idempotent_factoring,
    xgcd,
)
from topring import linalg, poly, wedderburn as wedderburn_module
from topring.algebras import (
    AlgebraError,
    InternalInconsistencyError,
    StructureAlgebra,
    basis_change,
    cyclic_group_algebra,
    field_algebra,
    field_extension_algebra,
    matrix_algebra,
    poly_quotient_algebra,
    product_algebra,
    tensor_algebra,
    truncated_poly_algebra,
    upper_triangular_algebra,
)
from topring.fields import GF
from topring.wedderburn import wedderburn

F2 = GF(2)
F3 = GF(3)
F4 = GF(2, 2)


@pytest.mark.parametrize(
    "A,expected",
    [
        (cyclic_group_algebra(F2, 3), [(2, 1), (4, 1)]),
        (matrix_algebra(F3, 2), [(3, 2)]),
        (product_algebra(field_algebra(F2), matrix_algebra(F2, 2)), [(2, 1), (2, 2)]),
        (field_extension_algebra(F2, 4), [(16, 1)]),
        (matrix_algebra(F4, 2), [(4, 2)]),
        (cyclic_group_algebra(F3, 4), [(3, 1), (3, 1), (9, 1)]),
        (cyclic_group_algebra(F2, 7), [(2, 1), (8, 1), (8, 1)]),
    ],
    ids=["F2[C3]", "Mat2(F3)", "F2xMat2(F2)", "F16", "Mat2(F4)", "F3[C4]", "F2[C7]"],
)
def test_factor_multisets(A, expected):
    assert wedderburn(A).summary() == expected


def test_rejects_non_semisimple():
    with pytest.raises(AlgebraError):
        wedderburn(truncated_poly_algebra(F2, 2))
    with pytest.raises(AlgebraError):
        wedderburn(upper_triangular_algebra(F3, 2))


@pytest.mark.parametrize("F", [F2, F3, F4], ids=["F2", "F3", "F4"])
def test_rejects_the_zero_ring(F):
    # the parser refuses dim 0; a library caller can still build it unchecked
    Z = StructureAlgebra(F, np.zeros((0, 0, 0), dtype=np.int64), np.zeros(0, dtype=np.int64),
                         check=False)
    with pytest.raises(AlgebraError, match="^algebra has dimension zero$"):
        wedderburn(Z)


def test_central_idempotents_and_units():
    W = wedderburn(product_algebra(matrix_algebra(F2, 2), field_extension_algebra(F2, 2)))
    assert W.summary() == [(2, 2), (4, 1)]
    A = W.algebra
    total = np.zeros(A.dim, dtype=np.int64)
    for f in W.factors:
        eps = f.central_idempotent
        assert A.is_idempotent(eps)
        # central: commutes with every basis element
        for j in range(A.dim):
            ej = np.zeros(A.dim, dtype=np.int64)
            ej[j] = 1
            assert np.array_equal(A.mul(eps, ej), A.mul(ej, eps))
        total = F2.add(total, eps)
        diag = np.zeros(A.dim, dtype=np.int64)
        for i in range(f.n):
            diag = F2.add(diag, f.matrix_units[i, i])
        assert np.array_equal(diag, eps)
        assert linalg.rank(F2, f.matrix_units.reshape(-1, A.dim)) == f.n * f.n
        assert f.corner_basis.shape[0] == f.m
    assert np.array_equal(total, A.unit)


def test_matrix_unit_relations():
    W = wedderburn(matrix_algebra(F3, 3))
    (f,) = W.factors
    A = W.algebra
    zero = np.zeros(A.dim, dtype=np.int64)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    prod = A.mul(f.matrix_units[a, b], f.matrix_units[c, d])
                    want = f.matrix_units[a, d] if b == c else zero
                    assert np.array_equal(prod, want)


def test_iso_is_bijective_and_deterministic():
    A = product_algebra(cyclic_group_algebra(F2, 3), matrix_algebra(F2, 2))
    W1 = wedderburn(A, seed=5)
    W2 = wedderburn(A, seed=5)
    assert np.array_equal(W1.iso, W2.iso)
    eye = np.eye(A.dim, dtype=np.int64)
    assert np.array_equal(linalg.matmul(F2, W1.iso, W1.iso_inv), eye)


def test_summary_invariant_under_basis_change():
    rng = np.random.default_rng(11)
    A = product_algebra(matrix_algebra(F2, 2), cyclic_group_algebra(F2, 3))
    expected = wedderburn(A).summary()
    for _ in range(3):
        while True:
            P = rng.integers(0, 2, size=(A.dim, A.dim)).astype(np.int64)
            if linalg.is_invertible(F2, P):
                break
        assert wedderburn(basis_change(A, P)).summary() == expected


def test_primitive_family_is_complete():
    A = product_algebra(matrix_algebra(F2, 2), field_extension_algebra(F2, 2))
    W = wedderburn(A)
    fam = W.primitive_family()
    assert fam.shape[0] == sum(f.n for f in W.factors)
    total = np.zeros(A.dim, dtype=np.int64)
    for i in range(fam.shape[0]):
        assert A.is_idempotent(fam[i])
        total = F2.add(total, fam[i])
        for j in range(fam.shape[0]):
            if i != j:
                assert not A.mul(fam[i], fam[j]).any()
    assert np.array_equal(total, A.unit)


def test_center_dimension_matches_factors():
    A = cyclic_group_algebra(F3, 4)
    W = wedderburn(A)
    assert A.center_basis().shape[0] == sum(f.m for f in W.factors)


@pytest.mark.parametrize("B,n", [
    (matrix_algebra(F2, 3), 3),
    (matrix_algebra(F3, 2), 2),
    (matrix_algebra(F4, 3), 3),
    (matrix_algebra(GF(5), 4), 4),
    (basis_change(matrix_algebra(F2, 4), np.roll(np.eye(16, dtype=np.int64), 5, axis=1)
                  + np.eye(16, dtype=np.int64, k=7)), 4),
    (field_extension_algebra(F3, 3), 1),
], ids=["Mat3(F2)", "Mat2(F3)", "Mat3(F4)", "Mat4(F5)", "Mat4(F2)-hidden", "F27"])
def test_primitive_family_computes_each_corner_once(B, n, monkeypatch):
    # the same family as rescanning every corner at every step, from the
    # two corners of each split's new members alone: 2(n - 1) in all
    want = primitive_family_rescan(B, random.Random(4))
    calls = []
    real = wedderburn_module.corner_basis
    monkeypatch.setattr(wedderburn_module, "corner_basis",
                        lambda A, e, f: calls.append(1) or real(A, e, f))
    got = wedderburn_module.primitive_orthogonal_family(B, random.Random(4))
    assert np.array_equal(got, want)
    assert got.shape[0] == n and len(calls) == 2 * (n - 1)


@pytest.mark.parametrize("A", hidden_block_algebras() + hidden_matrix_block_products(),
                         ids=lambda A: f"dim{A.dim}q{A.field.q}")
def test_central_idempotents_from_roots_match_berlekamp(A):
    # the roots of x^q - x read off by evaluation give the rows the
    # Berlekamp factorization gave, on hidden products with repeated
    # factors, extension blocks and fields up to GF(256)
    assert np.array_equal(wedderburn_module.central_primitive_idempotents(A),
                          central_idempotents_berlekamp(A))


def test_no_module_defines_a_polynomial_factorizer():
    # the proper idempotents of wedderburn come from the same Berlekamp
    # routine as the central ones, so no module of the package factors a
    # polynomial: none defines the deleted factorizer, its squarefree and
    # p-th-root helpers or the field power they used
    deleted = {"factor_poly", "squarefree_decomposition", "_berlekamp_split",
               "_berlekamp_matrix", "_pth_root_poly", "derivative", "xgcd", "exact_div",
               "power", "pth_root"}
    src = Path(wedderburn_module.__file__).parent
    defined = {(path.name, node.name) for path in sorted(src.rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef) and node.name in deleted}
    assert defined == set()
    assert not any(hasattr(poly, name) for name in deleted)
    assert not any(hasattr(GF(3, 2), name) for name in ("power", "pth_root"))


def _split_inputs():
    """(algebra, candidates) pairs for the two routes of _cut_by: Mat_2,
    Mat_3, Mat_4, Mat_2 (x) F_{q^2}, Mat_2 (x) F[x]/(x^2), UT_3, F[C_6] and
    products of them over seven fields, behind a seeded basis change, with
    the basis vectors and seeded random elements as candidates."""
    from topring.acceptance import _random_invertible

    rng = np.random.default_rng(35)
    out = []
    for F in (F2, F3, F4, GF(5), GF(7), GF(2, 3), GF(3, 2)):
        algebras = [matrix_algebra(F, 2), matrix_algebra(F, 3), upper_triangular_algebra(F, 3),
                    cyclic_group_algebra(F, 6),
                    tensor_algebra(matrix_algebra(F, 2), truncated_poly_algebra(F, 2)),
                    product_algebra(field_algebra(F), product_algebra(field_algebra(F),
                                                                      matrix_algebra(F, 2)))]
        if F.q <= 4:
            algebras += [matrix_algebra(F, 4),
                         tensor_algebra(matrix_algebra(F, 2), field_extension_algebra(F, 2)),
                         product_algebra(cyclic_group_algebra(F, 6), upper_triangular_algebra(F, 3))]
        for A in algebras:
            B = basis_change(A, _random_invertible(F, A.dim, rng))
            draw = random.Random(A.dim * F.q)
            out.append((B, [linalg.basis_vector(B.dim, i) for i in range(B.dim)]
                        + [B.random_element(draw) for _ in range(12)]))
    return out


def test_cut_by_matches_the_factoring_route():
    # the idempotent read off F_q[y]'s primitive idempotents is the CRT
    # idempotent the factorizer built, and both skip the same candidates
    cut = skipped = 0
    for B, candidates in _split_inputs():
        for y in candidates:
            got, want = wedderburn_module._cut_by(B, y), cut_by_factoring(B, y)
            assert (got is None) == (want is None)
            if got is None:
                skipped += 1
            else:
                assert np.array_equal(got, want)
                cut += 1
    assert cut > 500 and skipped > 100, (cut, skipped)


@pytest.mark.parametrize("seed", range(3))
def test_proper_idempotent_matches_the_factoring_route(seed):
    for B, _ in _split_inputs()[::4]:
        assert np.array_equal(wedderburn_module._proper_idempotent(B, random.Random(seed)),
                              proper_idempotent_factoring(B, random.Random(seed)))


@pytest.mark.parametrize("F,parts", [
    (F2, [([1, 1], 2), ([1, 1, 1], 3), ([0, 1], 1)]),
    (F3, [([2, 1], 3), ([1, 1], 1), ([1, 0, 1], 2)]),
    (F4, [([2, 1], 2), ([3, 1], 2), ([0, 1], 1)]),
], ids=["F2", "F3", "F4"])
def test_central_idempotents_of_a_polynomial_quotient_are_the_crt_idempotents(F, parts):
    # F_q[x]/(m) with repeated factors, p | multiplicity among them: the
    # primitive idempotents are e with e = 1 modulo one primary part f^k of
    # m and 0 modulo the others, e = u * (m / f^k) mod m for u * (m / f^k)
    # + v * f^k = 1
    primaries = []
    for f, k in parts:
        g = poly.const(F, 1)
        for _ in range(k):
            g = poly.mul(F, g, np.array(f, dtype=np.int64))
        primaries.append(g)
    m = poly.const(F, 1)
    for g in primaries:
        m = poly.mul(F, m, g)
    want = []
    for g in primaries:
        rest = exact_div(F, m, g)
        u = xgcd(F, rest, g)[1]
        e = poly.mod(F, poly.mul(F, u, rest), m)
        want.append(np.pad(e, (0, poly.deg(m) - len(e))))
    got = wedderburn_module.central_primitive_idempotents(poly_quotient_algebra(F, m))
    assert sorted(map(tuple, got.tolist())) == sorted(map(tuple, np.array(want).tolist()))


def test_a_minimal_polynomial_without_enough_roots_is_an_inconsistency():
    # x generates F_4 over F_2: x^2 + x + 1 has no root in F_2, and x is not
    # Frobenius-fixed, so no fixed central element can give it
    A = field_extension_algebra(F2, 2)
    x = linalg.basis_vector(2, 1)
    assert A.min_poly(x)[0].tolist() == [1, 1, 1]
    with pytest.raises(InternalInconsistencyError,
                       match="^fixed central element with non-split minimal polynomial$"):
        wedderburn_module._root_idempotents(A, x)


@pytest.mark.parametrize("F", [F2, F3, F4, GF(5)], ids=["F2", "F3", "F4", "F5"])
def test_root_idempotents_of_a_scalar_is_the_unit(F):
    A = product_algebra(field_algebra(F), matrix_algebra(F, 2))
    z = F.mul(2 % F.q or 1, A.unit)
    assert np.array_equal(wedderburn_module._root_idempotents(A, z), A.unit[None, :])

"""Idempotent lifting modulo a nil ideal and family orthogonalization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from topring import linalg
from topring.algebras import (
    AlgebraError,
    matrix_algebra,
    quotient,
    radical,
    tensor_algebra,
    truncated_poly_algebra,
    upper_triangular_algebra,
)
from topring.fields import GF
from topring.lifting import (
    lift_family_from_quotient,
    lift_idempotent,
    lift_orthogonal_family,
    orthogonalize,
)
from topring.wedderburn import wedderburn

F2 = GF(2)
F3 = GF(3)


def mat2_dual():
    return tensor_algebra(matrix_algebra(F2, 2), truncated_poly_algebra(F2, 2))


def test_single_lift_in_truncated_ring():
    A = truncated_poly_algebra(F2, 4)
    H = radical(A)
    e = lift_idempotent(A, np.array([1, 1, 0, 0]), H)  # 1 + x
    assert e.tolist() == [1, 0, 0, 0]
    assert H.contains(F2.sub(e, np.array([1, 1, 0, 0])))


def test_single_lift_rejects_non_idempotent_class():
    from topring.algebras import SubspaceIdeal, ideal_span

    A = truncated_poly_algebra(F2, 4)
    x2 = np.array([0, 0, 1, 0], dtype=np.int64)
    H = SubspaceIdeal(A, ideal_span(A, x2[None, :]))  # (x^2), misses x^2 - x
    with pytest.raises(AlgebraError):
        lift_idempotent(A, np.array([0, 1, 0, 0]), H)


def test_family_lift_in_dual_numbers():
    # f_1 = 1 + x, f_2 = x: lifts are 1 and 0
    A = truncated_poly_algebra(F2, 2)
    H = radical(A)
    fam = lift_orthogonal_family(A, np.array([[1, 1], [0, 1]]), H)
    assert fam.rows.tolist() == [[1, 0], [0, 0]]
    assert fam.u.tolist() == [1, 0]


# tensor coordinates in Mat_2 (x) F_2[x]/(x^2): index (2a + b)*2 + t for E_ab x^t
E11_1 = 0
E21_X = 5
E22_1 = 6


def one_sided_pair():
    e1 = np.zeros(8, dtype=np.int64)
    e1[E11_1] = 1
    e2 = np.zeros(8, dtype=np.int64)
    e2[E22_1] = 1
    e2[E21_X] = 1
    return np.vstack([e1, e2])


def test_orthogonalize_matrix_example():
    A = mat2_dual()
    H = radical(A)
    fam = orthogonalize(A, one_sided_pair(), H)
    # u = I + x E_21, self-inverse in characteristic 2
    u = np.zeros(8, dtype=np.int64)
    u[E11_1] = u[E22_1] = u[E21_X] = 1
    assert np.array_equal(fam.u, u)
    assert np.array_equal(fam.u_inv, u)
    want = np.zeros((2, 8), dtype=np.int64)
    want[0, E11_1] = want[0, E21_X] = 1  # E_11 + x E_21
    want[1, E22_1] = want[1, E21_X] = 1  # E_22 + x E_21
    assert np.array_equal(fam.rows, want)
    total = F2.fsum(fam.rows, axis=0)
    assert np.array_equal(total, A.unit)


def test_orthogonalize_right_side():
    A = mat2_dual()
    H = radical(A)
    fam = orthogonalize(A, one_sided_pair(), H, side="right")
    want = np.zeros((2, 8), dtype=np.int64)
    want[0, E11_1] = 1  # E_11
    want[1, E22_1] = 1  # E_22
    assert np.array_equal(fam.rows, want)


def test_orthogonalize_u_equals_one_returns_input():
    A = mat2_dual()
    H = radical(A)
    rows = np.zeros((2, 8), dtype=np.int64)
    rows[0, E11_1] = 1
    rows[1, E22_1] = 1
    fam = orthogonalize(A, rows, H)
    assert np.array_equal(fam.rows, rows)
    assert np.array_equal(fam.u, A.unit)


def test_orthogonalize_rejects_half_orthogonality_violation():
    A = mat2_dual()
    H = radical(A)
    rows = one_sided_pair()[::-1].copy()  # reversed order: e_1 e_0 = E22 E11...
    # reversed, the later element E11 hits the earlier one from the left:
    # E11 * (E22 + xE21) = 0 is fine, so build a genuinely bad pair instead
    e1 = np.zeros(8, dtype=np.int64)
    e1[E11_1] = 1
    e2 = np.zeros(8, dtype=np.int64)
    e2[E22_1] = 1
    e2[2] = 1  # + E_12: (E22 + E12) is idempotent, and (E22+E12)E11 = 0, E11*(E22+E12) = E12 not in H
    rows = np.vstack([e2, e1])
    assert A.is_idempotent(e2)
    with pytest.raises(AlgebraError):
        orthogonalize(A, rows, H)


def test_family_lift_rejects_bad_sum():
    A = truncated_poly_algebra(F2, 2)
    H = radical(A)
    with pytest.raises(AlgebraError):
        lift_orthogonal_family(A, np.array([[1, 0], [1, 1]]), H)  # sums to 2 + x = x mod H


def test_exactly_orthogonal_family_is_returned_unchanged():
    A = mat2_dual()
    H = radical(A)
    rows = np.zeros((2, 8), dtype=np.int64)
    rows[0, E11_1] = 1
    rows[1, E22_1] = 1
    fam = lift_orthogonal_family(A, rows, H)
    assert np.array_equal(fam.rows, rows)


def test_lift_family_from_quotient_with_perturbed_preimages():
    A = mat2_dual()
    H = radical(A)
    Q, proj, section = quotient(A, H)
    quotient_rows = np.zeros((2, Q.dim), dtype=np.int64)
    # classes of E_11 and E_22 in the quotient's coordinates
    e11 = np.zeros(8, dtype=np.int64)
    e11[E11_1] = 1
    e22 = np.zeros(8, dtype=np.int64)
    e22[E22_1] = 1
    quotient_rows[0] = linalg.matvec(F2, e11, proj)
    quotient_rows[1] = linalg.matvec(F2, e22, proj)
    fam = lift_family_from_quotient(A, H, proj, section, quotient_rows)
    for z in range(2):
        assert np.array_equal(linalg.matvec(F2, fam.rows[z], proj), quotient_rows[z])
    # same family through deliberately perturbed (non-multiplicative) preimages
    perturbed = linalg.matmul(F2, quotient_rows, section)
    perturbed[0] = F2.add(perturbed[0], H.basis[0])
    perturbed[1] = F2.add(perturbed[1], H.basis[2])
    fam2 = lift_orthogonal_family(A, perturbed, H)
    for z in range(2):
        assert np.array_equal(linalg.matvec(F2, fam2.rows[z], proj), quotient_rows[z])


def test_family_lift_computes_the_nilpotency_index_once(monkeypatch):
    # T3(F3) has three primitive idempotents, and each one's Newton lift
    # reads nu(H), which the radical's own check computed and kept
    A = upper_triangular_algebra(F3, 3)
    starts = []
    real = A.mul_pairs

    def counted(X, Y):
        # a nilpotency chain starts with the basis times itself
        if X is Y:
            starts.append(X.tobytes())
        return real(X, Y)

    monkeypatch.setattr(A, "mul_pairs", counted)
    H = radical(A)
    Q, proj, section = quotient(A, H)
    fam = lift_family_from_quotient(A, H, proj, section, wedderburn(Q).primitive_family())
    assert fam.rows.shape[0] == 3 and H.nilpotency_index() == 3
    assert starts.count(H.basis.tobytes()) == 1


def side_span(A, f, side):
    M = A.rmul_matrix(f) if side == "left" else A.lmul_matrix(f)
    return linalg.row_space_basis(A.field, M)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 15), st.integers(0, 15), st.sampled_from(["left", "right"]))
def test_lift_family_on_conjugated_idempotents(h1_code, h2_code, side):
    """Perturb an exact orthogonal pair by conjugation with 1 + h, h in the
    radical; the lift must restore exact orthogonality inside the stated
    side closure."""
    A = mat2_dual()
    H = radical(A)
    base = np.zeros((2, 8), dtype=np.int64)
    base[0, E11_1] = 1
    base[1, E22_1] = 1
    rows = np.zeros_like(base)
    for z, code in enumerate((h1_code, h2_code)):
        coeffs = np.array([(code >> i) & 1 for i in range(H.dim)], dtype=np.int64)
        h = linalg.matvec(F2, coeffs, H.basis)
        one_plus = F2.add(A.unit, h)
        inv = A.inverse(one_plus)
        rows[z] = A.mul(A.mul(one_plus, base[z]), inv)
    fam = lift_orthogonal_family(A, rows, H, side=side)
    for z in range(2):
        assert H.contains(F2.sub(fam.rows[z], rows[z]))
        if fam.rows[z].any():
            assert linalg.in_row_space(F2, side_span(A, rows[z], side), fam.rows[z])

"""Windowed matrix arithmetic, open ideals, transports, contraction."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from topring import linalg
from topring.algebras import (
    field_algebra,
    matrix_algebra,
    truncated_poly_algebra,
    upper_triangular_algebra,
)
from topring.fields import GF
from topring.matrixtop import (
    ContratensorResult,
    MatrixMembership,
    OpenMatrixIdeal,
    WindowError,
    WindowedMatrix,
    contratensor,
    elementary_matrix,
    free_contra_corner,
    ideal_member,
    identity_matrix,
    lower_shift_matrix,
    mat_mul,
    matrix_algebra_over,
    open_matrix_ideal,
    row_family,
    shift_matrix,
    transport_discrete,
    windowed,
    windowed_diagnostics,
    zero_convergent_family,
    zero_matrix,
)
from topring.modules import (
    FiniteModule,
    cyclic_submodule,
    direct_sum,
    hom_space,
    left_regular_module,
    module_map_failures,
    quotient_module,
    right_regular_module,
    submodule_module,
)

F2 = GF(2, 1)
F3 = GF(3, 1)
B2 = field_algebra(F2)
DUAL = truncated_poly_algebra(F2, 2)
X_ROW = np.array([0, 1], dtype=np.int64)


def rand_exact(base, rng, window, y_kind="omega"):
    ent = rng.integers(0, base.field.q, size=(window, window, base.dim)).astype(np.int64)
    return windowed(base, y_kind, ent)


# ---------------------------------------------------------------------------
# construction and validation


def test_diagnostics_reject_bad_certificates():
    T2 = upper_triangular_algebra(F2, 2)
    ent = np.zeros((2, 2, 3), dtype=np.int64)
    # span{e11} is not a right ideal of the triangular algebra
    bad_tail = np.array([[1, 0, 0]], dtype=np.int64)
    m = WindowedMatrix(T2, "omega", 2, ent, [[], []],
                       [bad_tail, np.zeros((0, 3), dtype=np.int64)],
                       [np.zeros((0, 3), dtype=np.int64)] * 2)
    problems = windowed_diagnostics(m)
    assert any("not a right ideal" in p for p in problems)


def test_non_ideal_tail_on_row_1_is_named():
    # the strict upper entry spans a two-sided ideal of T2(F2), e11 does not
    T2 = upper_triangular_algebra(F2, 2)
    zero = np.zeros((0, 3), dtype=np.int64)
    upper = np.array([[0, 1, 0]], dtype=np.int64)
    m = WindowedMatrix(T2, "omega", 2, np.zeros((2, 2, 3), dtype=np.int64), [[], []],
                       [upper, np.array([[1, 0, 0]], dtype=np.int64)], [upper, zero])
    assert windowed_diagnostics(m) == ["row 1: tail certificate is not a right ideal"]


def test_diagnostics_reject_extras_inside_window():
    with pytest.raises(WindowError):
        windowed(B2, "omega", np.zeros((3, 3, 1), dtype=np.int64),
                 extras=[[(1, np.array([1]))], [], []])


def test_finite_matrices_take_no_certificates():
    with pytest.raises(WindowError):
        windowed(DUAL, "finite", np.zeros((2, 2, 2), dtype=np.int64),
                 tails=[X_ROW[None, :], np.zeros((0, 2), dtype=np.int64)])


# ---------------------------------------------------------------------------
# products: frozen examples


def test_identity_law_window_5():
    rng = np.random.default_rng(2024)
    a = rand_exact(B2, rng, 5)
    assert mat_mul(identity_matrix(B2, "omega", 5), a) == a
    assert mat_mul(a, identity_matrix(B2, "omega", 5)) == a


def test_elementary_delta_rule():
    E12 = elementary_matrix(B2, "omega", 5, 1, 2)
    E23 = elementary_matrix(B2, "omega", 5, 2, 3)
    E13 = elementary_matrix(B2, "omega", 5, 1, 3)
    assert mat_mul(E12, E23) == E13
    assert mat_mul(E12, E13) == zero_matrix(B2, "omega", 5)


def test_delta_rule_scan():
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    got = mat_mul(elementary_matrix(B2, "omega", 3, a, b),
                                  elementary_matrix(B2, "omega", 3, c, d))
                    want = elementary_matrix(B2, "omega", 3, a, d) if b == c \
                        else zero_matrix(B2, "omega", 3)
                    assert got == want


def test_shift_times_transpose_is_identity():
    S = shift_matrix(B2, 6)
    St = lower_shift_matrix(B2, 7)
    assert mat_mul(S, St) == identity_matrix(B2, "omega", 6)


def test_transpose_times_shift_drops_corner():
    prod = mat_mul(lower_shift_matrix(B2, 6), shift_matrix(B2, 6))
    want = identity_matrix(B2, "omega", 6)
    want.entries[0, 0] = 0
    assert prod == want


def test_shift_window_too_small():
    # the last shift row ends past the window and the transpose at the same
    # window has no certified data there, so the product refuses the row
    with pytest.raises(WindowError):
        mat_mul(shift_matrix(B2, 6), lower_shift_matrix(B2, 6))


def test_finite_windows_must_match():
    with pytest.raises(WindowError):
        mat_mul(identity_matrix(B2, "finite", 3), identity_matrix(B2, "finite", 4))


def test_different_bases_rejected():
    with pytest.raises(WindowError):
        mat_mul(identity_matrix(B2, "omega", 3), identity_matrix(DUAL, "omega", 3))


# ---------------------------------------------------------------------------
# products: certificate propagation


def test_tail_certificates_absorb_on_the_right():
    # row 0 has unknown entries beyond the window, all inside (x)
    a = windowed(DUAL, "omega", np.zeros((3, 3, 2), dtype=np.int64),
                 tails=[X_ROW[None, :]] + [np.zeros((0, 2), dtype=np.int64)] * 2)
    rng = np.random.default_rng(5)
    b = rand_exact(DUAL, rng, 3)
    prod = mat_mul(a, b)
    # the unknown columns met unknown rows of b, blurring row 0 by (x)
    assert np.array_equal(prod.precisions[0], linalg.row_space_basis(F2, X_ROW[None, :]))
    assert prod.precisions[1].shape[0] == 0
    assert np.array_equal(prod.tails[0], linalg.row_space_basis(F2, X_ROW[None, :]))


def test_precision_blocks_family_reading():
    a = windowed(DUAL, "omega", np.zeros((2, 2, 2), dtype=np.int64),
                 precisions=[X_ROW[None, :], np.zeros((0, 2), dtype=np.int64)])
    with pytest.raises(WindowError):
        row_family(a, 0)
    fam = row_family(a, 1)
    assert fam.support == ()


def test_product_against_wider_matrix_uses_known_rows():
    # a knows an extra column; b's window is wide enough to cover that row
    a = elementary_matrix(B2, "omega", 3, 1, 4)
    b = elementary_matrix(B2, "omega", 5, 4, 2)
    prod = mat_mul(a, b)
    assert prod == elementary_matrix(B2, "omega", 3, 1, 2)
    # with b cut to the same window the row is dark and the product refuses
    with pytest.raises(WindowError):
        mat_mul(a, elementary_matrix(B2, "omega", 3, 2, 2))


# ---------------------------------------------------------------------------
# associativity


def test_associativity_random_triples():
    cases = 0
    for seed in range(240):
        rng = np.random.default_rng(seed)
        base = [B2, DUAL, field_algebra(GF(2, 2))][seed % 3]
        W = 3 + seed % 4
        a, b, c = (rand_exact(base, rng, W) for _ in range(3))
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))
        cases += 1
    for seed in range(60):
        rng = np.random.default_rng(1000 + seed)
        W = 3 + seed % 4
        a, b, c = (rand_exact(DUAL, rng, W) for _ in range(3))
        row = int(rng.integers(0, W))
        a.tails[row] = linalg.row_space_basis(F2, X_ROW[None, :])
        left = mat_mul(mat_mul(a, b), c)
        right = mat_mul(a, mat_mul(b, c))
        for x in range(W):
            if left.precisions[x].shape[0] == 0 and right.precisions[x].shape[0] == 0:
                assert np.array_equal(left.entries[x], right.entries[x])
        cases += 1
    assert cases == 300


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(2, 5))
def test_omega_product_of_exact_matrices_matches_dense(seed, window):
    # fully windowed exact matrices are zero past the window, so the
    # certified product must agree with the plain dense product
    rng = np.random.default_rng(seed)
    a = rand_exact(DUAL, rng, window)
    b = rand_exact(DUAL, rng, window)
    fin = mat_mul(windowed(DUAL, "finite", a.entries), windowed(DUAL, "finite", b.entries))
    om = mat_mul(a, b)
    assert not any(t.shape[0] for t in om.tails + om.precisions)
    assert np.array_equal(om.entries, fin.entries)


def test_finite_product_matches_matrix_ring():
    E = matrix_algebra_over(DUAL, 2)
    rng = np.random.default_rng(11)
    for _ in range(25):
        u = rng.integers(0, 2, size=E.dim).astype(np.int64)
        v = rng.integers(0, 2, size=E.dim).astype(np.int64)
        mw = mat_mul(windowed(DUAL, "finite", u.reshape(2, 2, DUAL.dim)),
                     windowed(DUAL, "finite", v.reshape(2, 2, DUAL.dim)))
        assert np.array_equal(mw.entries.reshape(-1), E.mul(u, v))


# ---------------------------------------------------------------------------
# open ideals and membership


def test_zero_matrix_in_every_ideal():
    for base, basis in ((B2, np.zeros((0, 1))), (DUAL, X_ROW[None, :]),
                        (DUAL, np.zeros((0, 2)))):
        for rows in ([0], [1, 2], [0, 3]):
            K = open_matrix_ideal(base, rows, basis)
            assert ideal_member(zero_matrix(base, "omega", 4), K).kind == "MEMBER"
            assert ideal_member(zero_matrix(base, "finite", 4), K).kind == "MEMBER"


def test_elementary_outside_zero_row_ideal():
    K = open_matrix_ideal(B2, [0], np.zeros((0, 1)))
    verdict = ideal_member(elementary_matrix(B2, "omega", 4, 0, 0), K)
    assert verdict.kind == "NOT_MEMBER"


def test_row_in_x_ideal_membership():
    K = open_matrix_ideal(DUAL, [1], X_ROW[None, :])
    m = zero_matrix(DUAL, "omega", 4)
    m.entries[1, 0] = X_ROW
    m.entries[1, 3] = X_ROW
    m.entries[0, 2] = DUAL.unit
    assert ideal_member(m, K).kind == "MEMBER"
    m.entries[1, 2] = DUAL.unit
    assert ideal_member(m, K).kind == "NOT_MEMBER"


def test_membership_undecided_outside_window():
    K = open_matrix_ideal(B2, [7], np.zeros((0, 1)))
    verdict = ideal_member(zero_matrix(B2, "omega", 4), K)
    assert verdict.kind == "UNDECIDED"
    assert "outside window" in verdict.detail
    assert verdict.window == 4


def test_membership_undecided_on_uncovered_tail():
    K = open_matrix_ideal(DUAL, [0], np.zeros((0, 2)))
    m = windowed(DUAL, "omega", np.zeros((3, 3, 2), dtype=np.int64),
                 tails=[X_ROW[None, :]] + [np.zeros((0, 2), dtype=np.int64)] * 2)
    assert ideal_member(m, K).kind == "UNDECIDED"
    # a wider ideal covers the tail and decides
    K2 = open_matrix_ideal(DUAL, [0], X_ROW[None, :])
    assert ideal_member(m, K2).kind == "MEMBER"


def test_membership_undecided_on_precision():
    K = open_matrix_ideal(DUAL, [0], np.zeros((0, 2)))
    m = windowed(DUAL, "omega", np.zeros((2, 2, 2), dtype=np.int64),
                 precisions=[X_ROW[None, :], np.zeros((0, 2), dtype=np.int64)])
    assert ideal_member(m, K).kind == "UNDECIDED"


def test_known_violation_beats_uncertainty():
    # entries certain modulo (x), one entry is the unit: decisively outside
    K = open_matrix_ideal(DUAL, [0], X_ROW[None, :])
    m = windowed(DUAL, "omega", np.zeros((2, 2, 2), dtype=np.int64),
                 precisions=[X_ROW[None, :], np.zeros((0, 2), dtype=np.int64)])
    m.entries[0, 1] = DUAL.unit
    assert ideal_member(m, K).kind == "NOT_MEMBER"


def test_open_ideal_must_absorb_right():
    T2 = upper_triangular_algebra(F2, 2)
    with pytest.raises(Exception):
        open_matrix_ideal(T2, [0], np.array([[1, 0, 0]], dtype=np.int64))


def test_matrix_ideal_absorbs_products():
    # k in K(rows X, (x)) times anything stays in K: 100 random pairs
    K = open_matrix_ideal(DUAL, [0, 2], X_ROW[None, :])
    checked = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        for y_kind in ("finite", "omega"):
            k = rand_exact(DUAL, rng, 4, y_kind)
            for x in K.rows:
                for z in range(4):
                    k.entries[x, z] = F2.MUL[k.entries[x, z][1], X_ROW]
            assert ideal_member(k, K).kind == "MEMBER"
            a = rand_exact(DUAL, rng, 4, y_kind)
            assert ideal_member(mat_mul(k, a), K).kind == "MEMBER"
            checked += 1
    assert checked == 100


# ---------------------------------------------------------------------------
# discrete transport


def rand_right_module(R, rng):
    big = direct_sum([right_regular_module(R)] * int(rng.integers(1, 3)))
    v = rng.integers(0, R.field.q, size=big.dim).astype(np.int64)
    sub = cyclic_submodule(big, v)
    if 0 < sub.shape[0] < big.dim and rng.integers(0, 2):
        return quotient_module(big, sub)[0]
    return big


def test_transport_discrete_hom_cardinality():
    E = matrix_algebra_over(DUAL, 3)
    rng = np.random.default_rng(31)
    for _ in range(5):
        N = rand_right_module(DUAL, rng)
        N2 = rand_right_module(DUAL, rng)
        td, td2 = transport_discrete(N, 3, ring=E), transport_discrete(N2, 3, ring=E)
        small = hom_space(N, N2)
        big = hom_space(td.module, td2.module)
        assert 2 ** small.shape[0] == 2 ** big.shape[0]
        flat = big.reshape(big.shape[0], -1)
        for phi in small:
            # transport_discrete carries a morphism to its block-diagonal copy
            big_phi = np.kron(np.eye(3, dtype=np.int64), phi)
            assert linalg.in_row_space(F2, flat, big_phi.reshape(-1))


def test_transport_discrete_exactness():
    rng = np.random.default_rng(47)
    for _ in range(20):
        M = rand_right_module(DUAL, rng)
        v = rng.integers(0, 2, size=M.dim).astype(np.int64)
        basis = cyclic_submodule(M, v)
        Sub, embed = submodule_module(M, basis)
        Q, proj, _ = quotient_module(M, basis)
        k = 3
        eye = np.eye(k, dtype=np.int64)
        emb_big = np.kron(eye, embed) if Sub.dim else np.zeros((0, k * M.dim), dtype=np.int64)
        proj_big = np.kron(eye, proj)
        assert linalg.rank(F2, emb_big) == k * Sub.dim
        assert linalg.rank(F2, proj_big) == k * Q.dim
        assert k * Sub.dim + k * Q.dim == k * M.dim
        if Sub.dim:
            assert not np.any(linalg.matmul(F2, emb_big, proj_big))
        assert np.array_equal(linalg.row_space_basis(F2, np.kron(eye, basis)),
                              linalg.row_space_basis(F2, emb_big) if Sub.dim
                              else np.zeros((0, k * M.dim), dtype=np.int64))


def test_transport_functorial_on_composites():
    E = matrix_algebra_over(DUAL, 2)
    rng = np.random.default_rng(3)
    N = rand_right_module(DUAL, rng)
    N2 = rand_right_module(DUAL, rng)
    td, td2 = transport_discrete(N, 2, ring=E), transport_discrete(N2, 2, ring=E)
    eye = np.eye(2, dtype=np.int64)
    homs = hom_space(N, N2)
    ends = hom_space(N2, N2)
    for phi in homs[:3]:
        for psi in ends[:3]:
            comp = linalg.matmul(F2, phi, psi)
            big = linalg.matmul(F2, np.kron(eye, phi), np.kron(eye, psi))
            assert np.array_equal(np.kron(eye, comp), big)
            assert module_map_failures(td.module, td2.module, big).size == 0


def test_transport_discrete_needs_right_module():
    with pytest.raises(Exception):
        transport_discrete(left_regular_module(DUAL), 2)


# ---------------------------------------------------------------------------
# free corners


def test_free_corner_finite_is_free_module():
    fc = free_contra_corner(B2, "finite", 3, 0)
    assert fc.module.dim == 3 and B2.field.q ** fc.module.dim == 8
    # point measures are the identity rows
    ident = identity_matrix(B2, "finite", 3)
    for y in range(3):
        assert np.array_equal(fc.point_measure(y), ident.entries[y].reshape(-1))
        coords = fc.point_measure(y).reshape(3, B2.dim)
        support = [z for z in range(3) if coords[z].any()]
        fam = zero_convergent_family(B2, "finite", 3, support, coords[support])
        assert fam.point_measure_at() == y


def test_free_corner_left_action_is_componentwise():
    fc = free_contra_corner(DUAL, "finite", 3, 1)
    rng = np.random.default_rng(13)
    for _ in range(10):
        r = rng.integers(0, 2, size=2).astype(np.int64)
        v = rng.integers(0, 2, size=fc.module.dim).astype(np.int64)
        out = linalg.matvec(F2, v, fc.module.eff(r))
        for y in range(3):
            want = DUAL.mul(r, v[y * 2:(y + 1) * 2])
            assert np.array_equal(out[y * 2:(y + 1) * 2], want)


def test_free_corner_matches_matrix_corner():
    # rows of e_xx Mat_Y(R) correspond to R^Y with the corner acting left
    R, k, x = DUAL, 3, 1
    E = matrix_algebra_over(R, k)
    # coordinates of the matrix with r at (x, x): basis (a, b, t) at (a*k + b)*dim + t
    e_xx = linalg.basis_vector(k * k, x * k + x)
    e = np.kron(e_xx, R.unit)
    fc = free_contra_corner(R, "finite", k, x)
    rng = np.random.default_rng(17)
    rows = []
    for _ in range(40):
        m = rng.integers(0, 2, size=E.dim).astype(np.int64)
        em = E.mul(e, m)
        w = windowed(R, "finite", em.reshape(k, k, R.dim))
        for other in range(k):
            if other != x:
                assert not np.any(w.entries[other])
        coords = w.entries[x].reshape(-1)
        rows.append(coords)
        r = rng.integers(0, 2, size=R.dim).astype(np.int64)
        scaled = E.mul(np.kron(e_xx, r), em)
        got = scaled.reshape(k, k, R.dim)[x].reshape(-1)
        assert np.array_equal(got, linalg.matvec(F2, coords, fc.module.eff(r)))
    assert linalg.rank(F2, np.vstack(rows)) == fc.module.dim


def test_free_corner_omega_tail():
    fc = free_contra_corner(DUAL, "omega", 5, 0, tail_basis=X_ROW[None, :])
    assert fc.module is None
    assert np.array_equal(fc.tail_basis, linalg.row_space_basis(F2, X_ROW[None, :]))
    pm = fc.point_measure(2)
    assert pm.point_measure_at() == 2
    fam = zero_convergent_family(DUAL, "omega", 5, (0, 3), np.array([[1, 0], [0, 1]]),
                                 X_ROW[None, :])
    assert np.array_equal(fam.coeffs[fam.support.index(3)], X_ROW)
    # coefficient 9 is unrecorded, so only known up to the nonzero tail ideal
    assert 9 not in fam.support and fam.tail_basis.shape[0]


def test_zero_convergent_family_validation():
    with pytest.raises(WindowError):
        zero_convergent_family(B2, "omega", 4, (3, 1), np.ones((2, 1)))
    with pytest.raises(WindowError):
        zero_convergent_family(B2, "finite", 4, (1,), np.ones((1, 1)),
                               np.ones((1, 1)))
    fam = zero_convergent_family(B2, "finite", 4, (1, 2), np.array([[1], [0]]))
    assert fam.support == (1,)


def test_identity_row_is_point_measure():
    for x in range(5):
        fam = row_family(identity_matrix(B2, "omega", 5), x)
        assert fam.point_measure_at() == x


# ---------------------------------------------------------------------------
# contraction against R^X


def test_contratensor_singleton_is_identity():
    for R in (DUAL, field_algebra(F3), upper_triangular_algebra(F2, 2)):
        N = right_regular_module(R)
        res = contratensor(N, 1)
        assert res.cardinality == R.field.q ** N.dim
        assert res.fp_dim == N.dim * R.field.d


def test_contratensor_zero_module():
    Z = FiniteModule(DUAL, np.zeros((2, 0, 0), dtype=np.int64), side="right")
    res = contratensor(Z, 2)
    assert res.cardinality == 1 and res.fp_dim == 0


def test_contratensor_simple_over_dual_numbers():
    N = quotient_module(right_regular_module(DUAL),
                        np.array([[0, 1]], dtype=np.int64))[0]
    res = contratensor(N, 2)
    assert res.tensor_dim == 4
    assert res.relation_rank == 2
    assert res.fp_dim == 2
    assert res.cardinality == 4 == (F2.q ** N.dim) ** 2


def test_contratensor_over_extension_field():
    R4 = field_algebra(GF(2, 2))
    res = contratensor(right_regular_module(R4), 2)
    assert res.cardinality == 16 and res.p == 2


def test_contratensor_random_instances():
    rng = np.random.default_rng(23)
    for _ in range(6):
        N = rand_right_module(DUAL, rng)
        x = int(rng.integers(1, 4))
        res = contratensor(N, x)
        assert res.cardinality == (DUAL.field.q ** N.dim) ** x
        assert res.tensor_dim - res.relation_rank == res.fp_dim


def test_contratensor_needs_right_module():
    with pytest.raises(Exception):
        contratensor(left_regular_module(DUAL), 2)


def test_membership_details_name_window_then_extra_columns():
    # an extra column past the window is named by its own index, after the
    # window entries of its row
    K = open_matrix_ideal(DUAL, [1], X_ROW[None, :])
    m = elementary_matrix(DUAL, "omega", 3, 1, 6)
    assert ideal_member(m, K).detail == "entry (1, 6) outside the ideal"
    m.entries[1, 2] = DUAL.unit
    assert ideal_member(m, K).detail == "entry (1, 2) outside the ideal"
    none = np.zeros((0, 2), dtype=np.int64)
    vague = windowed(DUAL, "omega", m.entries, extras=m.extras,
                     precisions=[none, np.eye(2, dtype=np.int64), none])
    verdict = ideal_member(vague, K)
    assert verdict.kind == "UNDECIDED"
    assert verdict.detail == ("entry (1, 2) uncertain beyond precision; "
                              "entry (1, 6) uncertain beyond precision; "
                              "row 1 known only modulo a larger ideal")

"""Idempotent lifting modulo a nil ideal and family orthogonalization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from topring import algebras, lifting, linalg
from topring.algebras import (
    AlgebraError,
    InternalInconsistencyError,
    StructureAlgebra,
    SubspaceIdeal,
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

from oracles import (
    algebra_inverse,
    hidden_block_algebras,
    hidden_matrix_block_products,
    lift_family_loop,
    lift_idempotent_loop,
)

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


def test_orthogonalize_rejects_a_sum_outside_one_plus_h():
    # Mat_2(F_2), basis index 2i + j for E_(i+1)(j+1), H = 0: e_1 e_0 =
    # (E22 + E12) E11 = 0, and the sum u = 1 + E12 is a unit not in 1 + H;
    # no caller passes such a family, and orthogonalize refuses it
    A = matrix_algebra(F2, 2)
    H = SubspaceIdeal(A, np.zeros((0, 4), dtype=np.int64))
    with pytest.raises(AlgebraError, match="u - 1 is not in H"):
        orthogonalize(A, np.array([[1, 0, 0, 0], [0, 1, 0, 1]]), H)


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
    real = linalg.span_chain

    def counted(F, V, mats):
        # with no representation given, the chain starts at the ideal itself
        starts.append(np.asarray(V).tobytes())
        return real(F, V, mats)

    monkeypatch.setattr(linalg, "span_chain", counted)
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
        inv = algebra_inverse(A, one_plus)
        rows[z] = A.mul(A.mul(one_plus, base[z]), inv)
    fam = lift_orthogonal_family(A, rows, H, side=side)
    for z in range(2):
        assert H.contains(F2.sub(fam.rows[z], rows[z]))
        if fam.rows[z].any():
            assert linalg.in_row_space(F2, side_span(A, rows[z], side), fam.rows[z])


# ---------------------------------------------------------------------------
# The stacked lift against the per-member loop (oracles.lift_family_loop)
# ---------------------------------------------------------------------------


def _lift_cases():
    """(name, A, H, rows): the preimages of the primitive family of A/rad A,
    the same perturbed by seeded radical elements, and the exact lifted
    family itself, whose members are already idempotent; over the algebras
    above, hidden block products over GF(2), GF(3) and GF(4), and
    semisimple ones (H = 0) over the same fields."""
    pool = [truncated_poly_algebra(F2, 4), truncated_poly_algebra(F2, 2), mat2_dual(),
            matrix_algebra(F2, 2), upper_triangular_algebra(F3, 3)]
    pool += hidden_block_algebras() + hidden_matrix_block_products()[:3]
    rng = np.random.default_rng(32)
    for A in pool:
        F = A.field
        H = radical(A)
        Q, proj, section = quotient(A, H)
        rows = linalg.matmul(F, wedderburn(Q).primitive_family(), section)
        coeffs = rng.integers(0, F.q, size=(rows.shape[0], H.dim))
        perturbed = F.add(rows, linalg.matmul(F, coeffs, H.basis)) if H.dim else rows
        exact = lift_family_loop(A, perturbed, H).rows
        for name, r in (("preimages", rows), ("perturbed", perturbed), ("idempotent", exact)):
            yield f"{A!r}-{F}-H{H.dim}-{name}", A, H, r


LIFT_CASES = list(_lift_cases())


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("case", LIFT_CASES, ids=[c[0] for c in LIFT_CASES])
def test_stacked_family_lift_matches_the_member_loop(case, side):
    _, A, H, rows = case
    fam = lift_orthogonal_family(A, rows, H, side=side)
    want = lift_family_loop(A, rows, H, side=side)
    assert fam.side == want.side == side
    for got, ref in ((fam.rows, want.rows), (fam.u, want.u), (fam.u_inv, want.u_inv)):
        assert got.dtype == np.int64 and np.array_equal(got, ref)
    for f in rows:
        assert np.array_equal(lift_idempotent(A, f, H), lift_idempotent_loop(A, f, H))


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("budget", [1, 100, 1 << 16])
def test_outside_spans_matches_membership_per_member(monkeypatch, q, budget):
    # one block-diagonal rref per group of members: groups of 1, of 2 (the
    # last one of 1) and of all k = 7; spans of every rank, zero and full
    # rank among them, rows inside and outside, and the zero row
    F = GF(2, 2) if q == 4 else GF(q)
    rng = np.random.default_rng(q)
    k, h, n = 7, 4, 5
    spans = rng.integers(0, q, size=(k, h, n))
    spans[0] = 0
    spans[1] = np.eye(h, n, dtype=np.int64)
    spans[2, 1:] = 0
    V = rng.integers(0, q, size=(k, n))
    V[3] = F.add(spans[3, 0], spans[3, 2])
    V[4] = 0
    V[5] = spans[5, 1]
    monkeypatch.setattr(lifting, "STACK_BLOCK", budget)
    shapes = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda F, M: shapes.append(M.shape) or real(F, M))
    got = lifting._outside_spans(F, spans, V)
    assert shapes == {1: [(4, 5)] * 7, 100: [(8, 10)] * 3 + [(4, 5)],
                      1 << 16: [(28, 35)]}[budget]
    monkeypatch.setattr(linalg, "rref", real)
    want = [not linalg.in_row_space(F, s, v) for s, v in zip(spans, V)]
    assert got.tolist() == want and any(want) and not all(want)


def test_semisimple_cases_are_covered():
    assert any(H.is_zero() for _, _, H, _ in LIFT_CASES)
    assert {A.field.q for _, A, H, _ in LIFT_CASES if not H.is_zero()} >= {2, 3, 4}


def _outcome(fn):
    try:
        return fn()
    except (AlgebraError, InternalInconsistencyError) as e:
        return type(e).__name__, str(e)


def _plant_outside(monkeypatch, H, vectors):
    """Make H report each of vectors as a non-member, as a drift fault
    would, for the stacked route and the loop alike."""
    real = H.member_rows
    bad = {np.asarray(v, dtype=np.int64).tobytes() for v in vectors}

    def member_rows(V):
        V = linalg.as_rows(V, H.algebra.dim)
        return real(V) & np.array([v.tobytes() not in bad for v in V], dtype=bool)

    monkeypatch.setattr(H, "member_rows", member_rows)


F3_TRUNC = truncated_poly_algebra(F3, 10)
SLOW = np.eye(10, dtype=np.int64)[0] + np.eye(10, dtype=np.int64)[1]  # 1 + x: 3 rounds to 1
FAST = np.eye(10, dtype=np.int64)[4] + np.eye(10, dtype=np.int64)[5]  # x^4 + x^5: 1 to 0
MINUS_ONE = 2 * np.eye(10, dtype=np.int64)[0]  # (-1)^2 - (-1) = 2 is not in (x)

DEFECT = ("AlgebraError", "f^2 - f is not in H")
NOT_NIL = ("AlgebraError", "ideal is not nilpotent within the dimension bound")
DIVERGED = ("AlgebraError", "idempotent lift did not converge; H is not nil")
DRIFT = ("InternalInconsistencyError", "lifted idempotent drifted out of f + H")
CORNER = ("InternalInconsistencyError", "lifted idempotent escaped f*A*f")


def _members_loop(A, rows, H):
    return np.vstack([lift_idempotent_loop(A, f, H) for f in rows])


def _not_nil():
    raise AlgebraError("ideal is not nilpotent within the dimension bound")


# (members, planted faults, expected outcome) over F3[x]/(x^10) with H = (x),
# where Newton's step is g -> g^3: "drift z" reports g_z - f_z outside H,
# "nu=1" reads the nilpotency index as 1 (two rounds, too few for 1 + x,
# enough for x^4 + x^5), "not nil" makes it raise,
# "corner z" reports g_z outside f_z*A*f_z; MINUS_ONE is a real defect fault
PRECEDENCE = [
    ((SLOW, MINUS_ONE), ("drift 0",), DRIFT),
    ((MINUS_ONE, SLOW), ("drift 1",), DEFECT),
    ((SLOW, MINUS_ONE), (), DEFECT),
    ((MINUS_ONE, SLOW), ("not nil",), DEFECT),
    ((SLOW, MINUS_ONE), ("not nil",), NOT_NIL),
    ((FAST, SLOW), ("nu=1", "drift 0"), DRIFT),
    ((SLOW, FAST), ("nu=1", "drift 0"), DIVERGED),
    ((FAST, SLOW), ("nu=1",), DIVERGED),
    ((SLOW, FAST), ("corner 0", "drift 1"), CORNER),
    ((SLOW, FAST), ("corner 0", "drift 0"), DRIFT),
    ((FAST, SLOW), ("corner 1", "drift 1"), DRIFT),
    ((FAST, SLOW), ("corner 1",), CORNER),
    ((SLOW, FAST), ("drift 1",), DRIFT),
]


@pytest.mark.parametrize("members,faults,expected", PRECEDENCE)
def test_stacked_lift_raises_the_first_members_first_fault(monkeypatch, members, faults,
                                                           expected):
    """Members in order; within one, defect, nilpotency, convergence, drift,
    corner: the stacked lift raises what the per-member loop raises."""
    A, rows = F3_TRUNC, np.vstack(members)
    H = radical(A)
    # Newton's iterate after as many rounds as the lift takes, diverged or not
    rounds = max(1, (1 if "nu=1" in faults else H.nilpotency_index()) - 1).bit_length() + 1
    lifted = rows.copy()
    for _ in range(rounds):
        lifted = A.mul_rows(A.mul_rows(lifted, lifted), lifted)  # 3g^2 - 2g^3 = g^3 over F3
    _plant_outside(monkeypatch, H, [F3.sub(lifted[int(f[-1])], rows[int(f[-1])])
                                    for f in faults if f.startswith("drift")])
    if "nu=1" in faults:
        monkeypatch.setattr(H, "nilpotency_index", lambda: 1)
    if "not nil" in faults:
        monkeypatch.setattr(H, "nilpotency_index", _not_nil)
    corner = [int(f[-1]) for f in faults if f.startswith("corner")]
    if corner:
        # the loop checks against corner_basis, the stack with _outside_spans
        real_basis, real_outside = algebras.corner_basis, lifting._outside_spans
        targets = {rows[z].tobytes() for z in corner}
        monkeypatch.setattr(algebras, "corner_basis", lambda A, e, f: (
            real_basis(A, e, f)[:0] if e.tobytes() in targets else real_basis(A, e, f)))

        def outside(F, spans, V):
            out = real_outside(F, spans, V)
            out[corner] = True
            return out

        monkeypatch.setattr(lifting, "_outside_spans", outside)
    assert _outcome(lambda: lifting._lift_rows(A, rows, H)) == expected
    assert _outcome(lambda: _members_loop(A, rows, H)) == expected


def test_precedence_inputs_lift_cleanly_without_faults():
    A = F3_TRUNC
    H = radical(A)
    out = lifting._lift_rows(A, np.vstack([SLOW, FAST]), H)
    assert out.tolist() == [[1] + [0] * 9, [0] * 10]
    assert np.array_equal(out, _members_loop(A, np.vstack([SLOW, FAST]), H))


T2 = upper_triangular_algebra(F3, 2)  # basis E11, E12, E22
E11, E12, E22 = np.eye(3, dtype=np.int64)
CONGRUENCE = "lifted member {z} is not congruent to its input"
CLOSURE = "lifted member {z} violates the {side} closure choice"


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("doctored,expected", [
    # E11 + E12 is congruent to E11 but lies outside A*E11 = <E11> and
    # E11*A = <E11, E12> only on the left; E22 + E11 is not congruent to E22
    ((E11 + E12, E22 + E11), {"left": CLOSURE.format(z=0, side="left"),
                              "right": CONGRUENCE.format(z=1)}),
    ((E11 + E12 + E22, E22), {"left": CONGRUENCE.format(z=0),
                              "right": CONGRUENCE.format(z=0)}),
    ((E11, E22 + E12), {"left": None, "right": CLOSURE.format(z=1, side="right")}),
])
def test_final_checks_keep_member_order_and_congruence_first(monkeypatch, side, doctored,
                                                             expected):
    """orthogonalize's output replaced by members with real congruence and
    closure faults: each member's congruence check comes before its closure
    check, and members are checked in order, as in the loop."""
    H = radical(T2)
    rows = np.vstack([E11, E22])
    real = lifting.orthogonalize

    def doctor(A, singles, H, side="left"):
        fam = real(A, singles, H, side=side)
        fam.rows = np.vstack(doctored)
        return fam

    monkeypatch.setattr(lifting, "orthogonalize", doctor)
    want = None if expected[side] is None else ("InternalInconsistencyError", expected[side])
    for fn in (lift_orthogonal_family, lift_family_loop):
        got = _outcome(lambda: fn(T2, rows, H, side=side))
        assert (None if isinstance(got, lifting.IdempotentFamily) else got) == want


def test_lift_in_the_zero_ring_returns_the_empty_row():
    # every row of a 0-dimensional algebra is 0, which is idempotent
    A = StructureAlgebra(F2, np.zeros((0, 0, 0), dtype=np.int64), np.zeros(0, dtype=np.int64),
                         check=False)
    H = radical(A)
    assert lift_idempotent(A, np.zeros(0, dtype=np.int64), H).shape == (0,)
    assert lifting._lift_rows(A, np.zeros((3, 0), dtype=np.int64), H).shape == (3, 0)

"""Row reduction, kernels, and solving, cross-checked against a naive oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from topring import linalg
from topring.fields import GF

from oracles import (
    blowup, intersect_row_spaces, naive_rank, naive_rref, quotient_maps_loop, rank_membership,
    solve_left_rows)

FIELDS = [GF(2), GF(3), GF(5), GF(2, 2)]
SMALL_FIELDS = [GF(2), GF(3), GF(2, 2), GF(3, 2)]


def random_matrix(F, rng, m, n):
    return rng.integers(0, F.q, size=(m, n)).astype(np.int64)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_rank_nullity_against_naive_elimination(F):
    rng = np.random.default_rng(20240818)
    for _ in range(40):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        M = random_matrix(F, rng, m, n)
        r = linalg.rank(F, M)
        assert r == naive_rank(F, M)
        kernel = linalg.right_null_basis(F, M)
        assert r + kernel.shape[0] == n
        if kernel.shape[0]:
            assert not linalg.matmul(F, M, kernel.T).any()


def test_rank_nullity_frozen_example():
    # random 6x6 over F_5, rank r with r + dim kernel = 6, seeded
    F = GF(5)
    rng = np.random.default_rng(55)
    M = random_matrix(F, rng, 6, 6)
    r = linalg.rank(F, M)
    assert r == naive_rank(F, M)
    assert r + linalg.right_null_basis(F, M).shape[0] == 6


@given(st.integers(0, 3 ** 12 - 1), st.integers(2, 4), st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_rref_is_idempotent_and_spans(seed, m, n):
    F = GF(3)
    rng = np.random.default_rng(seed)
    M = random_matrix(F, rng, m, n)
    R, pivots = linalg.rref(F, M)
    R2, pivots2 = linalg.rref(F, R)
    assert np.array_equal(R, R2) and pivots == pivots2
    for row in M:
        assert linalg.in_row_space(F, R, row)
    for row in R:
        assert linalg.in_row_space(F, M, row)


def test_solve_and_inverse():
    F = GF(3)
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        A = random_matrix(F, rng, n, n)
        x = rng.integers(0, 3, size=n).astype(np.int64)
        b = linalg.matvec(F, x, A)
        got = linalg.solve_left(F, A, b)
        assert got is not None
        assert np.array_equal(linalg.matvec(F, got, A), b)
        Ainv = linalg.inverse(F, A)
        if Ainv is not None:
            assert np.array_equal(linalg.matmul(F, A, Ainv), np.eye(n, dtype=np.int64))
            assert np.array_equal(linalg.matmul(F, Ainv, A), np.eye(n, dtype=np.int64))
        else:
            assert linalg.rank(F, A) < n


def test_intersect_and_sum_row_spaces():
    F = GF(2)
    A = np.array([[1, 0, 0], [0, 1, 0]], dtype=np.int64)
    B = np.array([[0, 1, 0], [0, 0, 1]], dtype=np.int64)
    inter = intersect_row_spaces(F, A, B)
    assert inter.shape == (1, 3) and np.array_equal(inter[0], [0, 1, 0])
    total = linalg.row_space_basis(F, np.vstack([A, B]))
    assert total.shape == (3, 3)
    # dim formula
    assert linalg.rank(F, A) + linalg.rank(F, B) == inter.shape[0] + total.shape[0]


def test_enumerate_row_space():
    F = GF(3)
    basis = np.array([[1, 0], [0, 1]], dtype=np.int64)
    pts = linalg.enumerate_row_space(F, basis)
    assert pts.shape == (9, 2)
    assert len({tuple(r) for r in pts.tolist()}) == 9


@pytest.mark.parametrize("F", SMALL_FIELDS, ids=str)
def test_quotient_maps_match_pivot_loop(F):
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        basis = random_matrix(F, rng, int(rng.integers(0, n + 1)), n)
        proj, section = linalg.quotient_maps(F, basis, n)
        want_proj, want_section = quotient_maps_loop(F, basis, n)
        assert np.array_equal(proj, want_proj)
        assert np.array_equal(section, want_section)
        m = n - naive_rank(F, basis)
        assert proj.shape == (n, m)
        assert np.array_equal(linalg.matmul(F, section, proj), np.eye(m, dtype=np.int64))
        assert not linalg.matmul(F, basis, proj).any()
        assert linalg.rank(F, proj) == m


@pytest.mark.parametrize("F", SMALL_FIELDS + [GF(2, 3)], ids=str)
def test_prime_restriction_transposed_is_the_column_blowup(F):
    # the radical restricts column-convention representation matrices
    # to the prime field as prime_restriction(F, M.T).T
    rng = np.random.default_rng(47)
    for m in range(5):
        for _ in range(4):
            M = random_matrix(F, rng, m, m)
            assert np.array_equal(linalg.prime_restriction(F, M.T).T, blowup(F, M))



MEMBERSHIP_FIELDS = [GF(2), GF(3), GF(2, 2), GF(3, 2)]


@st.composite
def basis_and_rows(draw):
    """A field, an n-column basis that may be empty, unreduced or rank
    deficient (zero and repeated rows, combinations of other rows), and
    rows to test: zero rows, members of the span and arbitrary rows."""
    F = draw(st.sampled_from(MEMBERSHIP_FIELDS))
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = [random_matrix(F, rng, 1, n)[0] for _ in range(draw(st.integers(0, 4)))]
    for kind in draw(st.lists(st.sampled_from(["zero", "repeat", "combo"]), max_size=2)):
        if kind == "zero" or not rows:
            rows.append(np.zeros(n, dtype=np.int64))
        elif kind == "repeat":
            rows.append(rows[int(rng.integers(len(rows)))].copy())
        else:
            rows.append(linalg.matvec(F, random_matrix(F, rng, 1, len(rows))[0], np.vstack(rows)))
    basis = np.vstack(rows) if rows else np.zeros((0, n), dtype=np.int64)
    V = [np.zeros(n, dtype=np.int64)]
    if rows:
        V += [linalg.matvec(F, random_matrix(F, rng, 1, len(rows))[0], basis) for _ in range(2)]
    V += [random_matrix(F, rng, 1, n)[0] for _ in range(draw(st.integers(0, 3)))]
    V = np.vstack(V)
    return F, basis, V[rng.permutation(V.shape[0])]


@given(basis_and_rows())
@settings(max_examples=150, deadline=None)
def test_membership_matches_rank_oracle(case):
    F, basis, V = case
    want = [rank_membership(F, basis, v) for v in V]
    assert [linalg.in_row_space(F, basis, v) for v in V] == want
    assert linalg.in_row_space(F, basis, V) == all(want)
    for rows in (V[:1], V[:0]):
        assert linalg.in_row_space(F, basis, rows) == all(want[: rows.shape[0]])
    R, pivots = linalg.rref(F, basis)
    res = linalg.residual(F, R, pivots, V)
    assert res.shape == V.shape
    assert [not r.any() for r in res] == want
    # the residual is v minus a member of the span, and vanishes on the pivots
    for v, r in zip(V, res):
        assert rank_membership(F, basis, F.sub(v, r))
    assert not res[:, pivots].any()


def test_membership_of_empty_basis():
    F = GF(3)
    empty = np.zeros((0, 3), dtype=np.int64)
    assert linalg.in_row_space(F, empty, np.zeros(3, dtype=np.int64))
    assert linalg.in_row_space(F, empty, np.zeros((2, 3), dtype=np.int64))
    assert not linalg.in_row_space(F, empty, np.array([[0, 0, 0], [0, 2, 0]]))
    v = np.array([[1, 2, 0]])
    assert np.array_equal(linalg.residual(F, empty, [], v), v)


@st.composite
def solve_cases(draw):
    """A field, a coefficient matrix A that may have no rows or be rank
    deficient, and right-hand sides B in the row space of A, with possibly
    one row from outside it."""
    F = draw(st.sampled_from(MEMBERSHIP_FIELDS))
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = random_matrix(F, rng, draw(st.integers(0, 4)), n)
    if A.shape[0] and draw(st.booleans()):
        # a combination of the other rows makes A rank deficient
        A = np.vstack([A, linalg.matvec(F, random_matrix(F, rng, 1, A.shape[0])[0], A)])
    B = linalg.matmul(F, random_matrix(F, rng, draw(st.integers(0, 4)), A.shape[0]), A)
    outside = [e for e in np.eye(n, dtype=np.int64) if not rank_membership(F, A, e)]
    if outside and draw(st.booleans()):
        B = np.insert(B, draw(st.integers(0, B.shape[0])), outside[0], axis=0)
    return F, A, B


@given(solve_cases())
@settings(max_examples=150, deadline=None)
def test_stacked_solve_left_matches_per_row_oracle(case):
    F, A, B = case
    want = solve_left_rows(F, A, B)
    got = linalg.solve_left(F, A, B)
    if want is None:
        assert got is None
        return
    assert got.shape == (B.shape[0], A.shape[0])
    assert np.array_equal(got, want)
    assert np.array_equal(linalg.matmul(F, got, A), B)
    for b, x in zip(B, want):
        assert np.array_equal(linalg.solve_left(F, A, b), x)


@pytest.mark.parametrize("F", MEMBERSHIP_FIELDS, ids=str)
def test_solve_left_edge_cases(F):
    empty = np.zeros((0, 3), dtype=np.int64)
    assert linalg.solve_left(F, empty, np.zeros(3, dtype=np.int64)).shape == (0,)
    assert linalg.solve_left(F, empty, np.zeros((2, 3), dtype=np.int64)).shape == (2, 0)
    assert linalg.solve_left(F, empty, np.array([[0, 0, 0], [0, 1, 0]])) is None
    A = np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0]], dtype=np.int64)
    A[2] = F.add(A[0], A[1])
    inside = linalg.matmul(F, np.array([[1, 1, 0], [0, 0, 1]]), A)
    assert np.array_equal(linalg.solve_left(F, A, inside), [[1, 1, 0], [1, 1, 0]])
    assert linalg.solve_left(F, A, np.vstack([inside, [[1, 0, 0]]])) is None
    assert linalg.solve_left(F, A, np.array([1, 0, 0])) is None
    assert linalg.solve_left(F, A, np.zeros((0, 3), dtype=np.int64)).shape == (0, 3)


@st.composite
def matrix_stacks(draw):
    F = draw(st.sampled_from(MEMBERSHIP_FIELDS))
    B, m, n = draw(st.integers(0, 5)), draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    M = random_matrix(F, rng, B * m, n).reshape(B, m, n)
    for b in range(B):
        # zero matrices and rank-deficient ones, besides the random ones
        kind = draw(st.sampled_from(["random", "zero", "low-rank"]))
        if kind == "zero":
            M[b] = 0
        elif kind == "low-rank" and m and n:
            M[b] = linalg.matmul(F, random_matrix(F, rng, m, 1), random_matrix(F, rng, 1, n))
    return F, M


def _assert_stack_matches_per_matrix(F, M):
    R, ranks = linalg.rref(F, M)
    assert R.shape == M.shape and ranks.shape == (M.shape[0],)
    assert R.dtype == ranks.dtype == np.int64
    for b in range(M.shape[0]):
        want, pivots = linalg.rref(F, M[b])
        assert want.dtype == np.int64 and ranks[b] == len(pivots)
        assert np.array_equal(R[b, : ranks[b]], want)
        assert not R[b, ranks[b]:].any()


@given(matrix_stacks())
@settings(max_examples=200, deadline=None)
def test_stacked_rref_matches_per_matrix_rref(case):
    _assert_stack_matches_per_matrix(*case)


@pytest.mark.parametrize("F", MEMBERSHIP_FIELDS, ids=str)
@pytest.mark.parametrize("shape", [(0, 3, 3), (4, 0, 3), (4, 3, 0), (0, 0, 0), (3, 6, 2), (3, 2, 6)])
def test_stacked_rref_edge_shapes(F, shape):
    rng = np.random.default_rng(sum(shape))
    B, m, n = shape
    M = random_matrix(F, rng, B * m, n).reshape(shape)
    _assert_stack_matches_per_matrix(F, M)
    _assert_stack_matches_per_matrix(F, np.zeros(shape, dtype=np.int64))
    R, ranks = linalg.rref(F, np.zeros(shape, dtype=np.int64))
    assert not R.any() and not ranks.any()


@pytest.mark.parametrize("n", [63, 64, 65, 128, 129])
@pytest.mark.parametrize("m_of_n", [lambda n: n - 2, lambda n: n + 2], ids=["m<n", "m>n"])
def test_stacked_rref_edge_shapes_at_gf2_word_boundaries(n, m_of_n):
    # a GF(2) stack is reduced on 64-bit words: widths on both sides of one
    # and of two words, with pivots that cross from one word to the next
    F = GF(2)
    m = m_of_n(n)
    rng = np.random.default_rng(n * m)
    late = np.zeros((m, n), dtype=np.int64)
    late[:, n - 3:] = random_matrix(F, rng, m, 3)  # every pivot in the last word
    M = np.stack([
        random_matrix(F, rng, m, n),
        np.zeros((m, n), dtype=np.int64),
        np.ones((m, n), dtype=np.int64),
        linalg.matmul(F, random_matrix(F, rng, m, 5), random_matrix(F, rng, 5, n)),
        late,
    ])
    _assert_stack_matches_per_matrix(F, M)
    R, ranks = linalg.rref(F, M)
    for b in range(M.shape[0]):
        want, pivots = naive_rref(F, M[b])
        assert ranks[b] == len(pivots)
        assert np.array_equal(R[b, : ranks[b]], want)
    assert ranks[1] == 0 and ranks[2] == 1 and ranks[3] <= 5 and ranks[4] <= 3


def test_rref_rejects_other_ranks():
    with pytest.raises(ValueError):
        linalg.rref(GF(2), np.zeros((2, 2, 2, 2), dtype=np.int64))


# ---------------------------------------------------------------------------
# One matrix over GF(2): rows packed into Python integers
# ---------------------------------------------------------------------------


def _assert_gf2_rref_matches_oracle(M):
    F = GF(2)
    R, pivots = linalg.rref(F, M)
    want, want_pivots = naive_rref(F, M)
    assert R.dtype == np.int64 and R.shape == want.shape
    assert np.array_equal(R, want) and pivots == want_pivots


@pytest.mark.parametrize("n", [7, 8, 9, 63, 64, 65])
@pytest.mark.parametrize("m_of_n", [lambda n: 3, lambda n: n - 2, lambda n: n + 5],
                         ids=["m=3", "m<n", "m>n"])
def test_gf2_rref_at_byte_and_word_boundaries(n, m_of_n):
    # column c is bit c of a little-endian integer: widths on both sides of
    # one byte and of one 64-bit word, with pivots in the last byte
    F = GF(2)
    m = m_of_n(n)
    rng = np.random.default_rng(7 * n + m)
    late = np.zeros((m, n), dtype=np.int64)
    late[:, n - 3:] = random_matrix(F, rng, m, 3)
    for M in (random_matrix(F, rng, m, n),
              linalg.matmul(F, random_matrix(F, rng, m, 4), random_matrix(F, rng, 4, n)),
              np.zeros((m, n), dtype=np.int64),
              np.ones((m, n), dtype=np.int64),
              late):
        _assert_gf2_rref_matches_oracle(M)


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0), (0, 64), (70, 0)])
def test_gf2_rref_of_empty_matrices(shape):
    M = np.zeros(shape, dtype=np.int64)
    _assert_gf2_rref_matches_oracle(M)
    R, pivots = linalg.rref(GF(2), M)
    assert R.shape == (0, shape[1]) and pivots == []


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12), st.integers(1, 12),
       st.sampled_from([0.1, 0.5, 0.9]))
@settings(max_examples=150, deadline=None)
def test_gf2_rref_matches_naive_elimination(seed, m, n, density):
    rng = np.random.default_rng(seed)
    _assert_gf2_rref_matches_oracle((rng.random((m, n)) < density).astype(np.int64))


@pytest.mark.parametrize("m,n,g", [(4, 6, 2), (7, 7, 3), (9, 3, 2)])
def test_gf2_rref_of_tall_sparse_commutation_systems(m, n, g):
    # shaped like hom_space's K: rows (g, a, b), columns (c, d), with
    # G_M[g, a, c] where b == d and G_N[g, d, b] where a == c
    F = GF(2)
    rng = np.random.default_rng(m * n * g)
    GM = (rng.random((g, m, m)) < 0.3).astype(np.int64)
    GN = (rng.random((g, n, n)) < 0.3).astype(np.int64)
    ia, ib = np.arange(m), np.arange(n)
    K = np.zeros((g, m, n, m, n), dtype=np.int64)
    K[:, :, ib, :, ib] = GM
    K[:, ia, :, ia, :] ^= np.swapaxes(GN, 1, 2)
    K = K.reshape(g * m * n, m * n)
    _assert_gf2_rref_matches_oracle(K)
    _assert_gf2_rref_matches_oracle(K.T)

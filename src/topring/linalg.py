"""Exact dense linear algebra over a FiniteField.

Matrices are numpy int64 arrays of encoded field elements.  Vectors are
rows by default: the product of a row vector v with a matrix M is
``matmul(F, v[None, :], M)``.  Row reduction is fully reduced (RREF), so
``row_space_basis`` is a canonical form and two subspaces are equal iff
their bases are equal arrays.
"""

from __future__ import annotations

import numpy as np

from topring.fields import FiniteField


def matmul(F: FiniteField, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact matrix product over F."""
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"shape mismatch {A.shape} @ {B.shape}")
    return F.contract("ij,jk->ik", A, B)


def matvec(F: FiniteField, v: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Row vector times matrix."""
    return matmul(F, np.asarray(v)[None, :], M)[0]


def lincomb(F: FiniteField, coeffs: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Linear combination sum_i coeffs[i] * stack[i] of equal-shape arrays."""
    stack = np.asarray(stack, dtype=np.int64)
    flat = stack.reshape(stack.shape[0], int(np.prod(stack.shape[1:])))
    return F.contract("i,ij->j", coeffs, flat).reshape(stack.shape[1:])


def basis_vector(n: int, i: int) -> np.ndarray:
    """The i-th standard basis row of length n."""
    v = np.zeros(n, dtype=np.int64)
    v[i] = 1
    return v


def as_rows(a, n: int) -> np.ndarray:
    """a (any stack of vectors of length n) as an int64 array of rows.
    The row count is explicit, because numpy refuses reshape(-1, 0); when
    n == 0 there are no rows, as an empty row is zero."""
    a = np.asarray(a, dtype=np.int64)
    return a.reshape(a.size // n if n else 0, n)


def rref(F: FiniteField, M: np.ndarray):
    """Reduced row echelon form of one matrix or of a stack of them.

    Args:
        F: the field.
        M: matrix of encoded elements, shape (m, n), or a stack (B, m, n).
            Every entry must be an encoded element, in [0, q): both packed
            routes cast entries to a few bits, which would wrap any other
            value silently.

    Returns:
        For a matrix, (R, pivots): R has one row per pivot (zero rows
        dropped), pivots lists the pivot column of each row in order.
        For a stack, (R, ranks): R has shape (B, m, n) with R[b, :ranks[b]]
        the reduced form of M[b] and zero rows below it.

    One matrix is reduced on its rows packed into Python integers: over
    GF(2) one bit per entry (``_rref_gf2``), over every other field one
    slot of one or two bytes per entry, in the layout of ``F.packing``
    (``_rref_packed``).  A stack over GF(2) is reduced on rows packed into
    64-bit words (``_rref_stack_gf2``), over other fields one column at a
    time through the field's elementwise methods (``_rref_stack``).  The
    stack routes pay about a dozen numpy calls per column, shared by all
    the matrices of a stack; the integer routes pay Python work per row of
    each matrix.  On the calls of `topring verify` the integer route is
    about 10 times faster on a single matrix over GF(2) and about 3 times
    slower on a stack reduced matrix by matrix.  The RREF is unique, so
    every route gives the same R and pivots.  GF(2) keeps ``_rref_gf2``
    (2-core x86-64 VM): ``_rref_packed`` on a one-bit ``RowPacking`` took
    0.182-0.189 s against 0.162-0.168 s on the 7,136 GF(2) calls of
    ``acceptance.run_all(0)``, 1.8-2.2 times as long on dense random
    matrices of 20-400 columns, and on byte slots 2.4-3.0 times on wide ones.
    """
    R = np.asarray(M, dtype=np.int64)
    if R.ndim == 3:
        return _rref_stack(F, R.copy())
    if R.ndim != 2:
        raise ValueError("rref expects a 2d array or a 3d stack")
    if F.q == 2:
        return _rref_gf2(R)
    return _rref_packed(F, R)


def _rref_packed(F: FiniteField, R: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """rref of one matrix over a field other than GF(2), on rows packed
    into Python integers as ``F.packing`` lays them out: one slot per
    entry, which rows add and scale all at once.

    Forward elimination clears the lowest nonzero slot of each incoming row
    with the pivot row of that column until the column has no pivot row;
    the row, scaled to lead with 1, becomes it.  It stops once every column
    has a pivot.  Back-substitution runs from the highest pivot down and
    clears in a row only the pivot columns where it is nonzero, with the
    already reduced rows of those pivots, so it costs the fill of the rows,
    not rank^2.  The RREF is unique, so R and the pivots are those of any
    other elimination."""
    m, n = R.shape
    if not (m and n):
        return np.zeros((0, n), dtype=np.int64), []
    pk = F.packing
    sub_mul, scale = pk.row_ops(n)
    shift, mask, dec, inv = pk.shift, pk.mask, pk.dec, pk.inv
    rows: dict[int, int] = {}  # pivot column -> pivot row
    for row in pk.pack(R):
        while row:
            col = ((row & -row).bit_length() - 1) >> shift
            c = dec[(row >> (col << shift)) & mask]
            prow = rows.get(col)
            if prow is None:
                rows[col] = scale(row, inv[c])
                break
            row = sub_mul(row, c, prow)
        if len(rows) == n:
            break  # every column has a pivot, so the rows left lie in the span
    cols = sorted(rows)
    pivot_slots = sum(mask << (col << shift) for col in cols)
    for col in reversed(cols):
        row = rows[col]
        hits = (row & pivot_slots) ^ (1 << (col << shift))
        while hits:
            j = ((hits & -hits).bit_length() - 1) >> shift
            slot = (hits >> (j << shift)) & mask
            row = sub_mul(row, dec[slot], rows[j])
            hits ^= slot << (j << shift)
        rows[col] = row
    return pk.unpack([rows[col] for col in cols], n), cols


def _rref_gf2(R: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """rref of one matrix over GF(2) on rows packed into Python integers;
    its entries must be encoded elements, 0 or 1.

    Column c is bit c of a row: np.packbits with little bit order, read as
    a little-endian integer, so the map from bits to columns is the same on
    every host.  Forward elimination reduces each incoming row by the pivot
    row of its lowest set bit until that bit has no pivot row, which makes
    it one; it stops once every column has a pivot.  Back-substitution
    runs from the highest pivot down and XORs into a row only the (already
    reduced) pivot rows of the pivot bits it has set, so it costs the fill
    of the rows, not rank^2.  The RREF is unique, so R and the pivots are
    those of the table route."""
    m, n = R.shape
    width = -(-n // 8)
    data = np.packbits(R, axis=1, bitorder="little").tobytes()
    rows: dict[int, int] = {}  # lowest set bit -> pivot row
    for i in range(m):
        row = int.from_bytes(data[i * width : (i + 1) * width], "little")
        while row:
            low = row & -row
            prow = rows.get(low)
            if prow is None:
                rows[low] = row
                break
            row ^= prow
        if len(rows) == n:
            break  # every column has a pivot, so the rows left lie in the span
    mask = sum(rows)
    lows = sorted(rows, reverse=True)
    for low in lows:
        row = rows[low]
        hits = (row & mask) ^ low
        while hits:
            bit = hits & -hits
            row ^= rows[bit]
            hits ^= bit
        rows[low] = row
    lows.reverse()
    packed = np.frombuffer(b"".join(rows[low].to_bytes(width, "little") for low in lows),
                           dtype=np.uint8).reshape(len(lows), width)
    out = np.unpackbits(packed, axis=1, count=n, bitorder="little").astype(np.int64)
    return out, [low.bit_length() - 1 for low in lows]


def _rref_stack(F: FiniteField, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rref of every matrix of the stack R (a copy, which it may overwrite),
    one column at a time: one masked pivot search and one elimination per
    column for the whole stack.

    Rows at or below a matrix's current rank are zero left of the current
    column, so a pivot row is supported on columns c: and the elimination
    touches only those.  Over GF(2) the rows are packed into machine words
    (``_rref_stack_gf2``); its entries must be encoded elements, 0 or 1."""
    if F.q == 2:
        return _rref_stack_gf2(R)
    B, m, n = R.shape
    ranks = np.zeros(B, dtype=np.int64)
    below = np.arange(m)[None, :]
    for c in range(n):
        hits = (R[:, :, c] != 0) & (below >= ranks[:, None])
        idx = np.flatnonzero(hits.any(axis=1))
        if idx.size == 0:
            continue
        r = ranks[idx]
        piv = hits[idx].argmax(axis=1)
        prow = R[idx, piv, c:]
        R[idx, piv, c:] = R[idx, r, c:]
        prow = F.mul(F.inv(prow[:, :1]), prow)
        R[idx, r, c:] = prow
        block = R[idx, :, c:]
        factors = block[:, :, 0].copy()
        factors[np.arange(idx.size), r] = 0
        R[idx, :, c:] = F.sub(block, F.mul(factors[:, :, None], prow[:, None, :]))
        ranks[idx] += 1
        if ranks.min(initial=m) == m:
            break
    return R, ranks


def _rref_stack_gf2(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_rref_stack over GF(2) on bit-packed rows: the dense elimination of
    M4RI (Albrecht, Bard and Hart, ACM TOMS 2010) without its Gray-code
    tables.

    Column c is bit c % 64 of word c // 64 of a row: np.packbits with
    little bit order, viewed as little-endian 64-bit words, so the map from
    bits to columns is the same on every host.  A pivot needs no scaling,
    and the elimination XORs the pivot row into every other row that has
    the bit set.  The rows are unpacked to int64 once, at the end."""
    B, m, n = R.shape
    words = -(-n // 64)
    packed = np.zeros((B, m, words * 8), dtype=np.uint8)
    packed[:, :, : -(-n // 8)] = np.packbits(R.astype(np.uint8), axis=2, bitorder="little")
    P = packed.view("<u8")
    ranks = np.zeros(B, dtype=np.int64)
    below = np.arange(m)[None, :]
    one = np.uint64(1)
    for c in range(n):
        w, shift = c // 64, np.uint64(c % 64)
        hits = ((P[:, :, w] >> shift) & one).astype(bool) & (below >= ranks[:, None])
        idx = np.flatnonzero(hits.any(axis=1))
        if idx.size == 0:
            continue
        r = ranks[idx]
        piv = hits[idx].argmax(axis=1)
        prow = P[idx, piv]
        P[idx, piv] = P[idx, r]
        P[idx, r] = prow
        block = P[idx]
        factors = (block[:, :, w] >> shift) & one
        factors[np.arange(idx.size), r] = 0
        # -1 is the all-ones word, so -factors keeps prow on the rows to clear
        P[idx] = block ^ (-factors[:, :, None] & prow[:, None, :])
        ranks[idx] += 1
        if ranks.min(initial=m) == m:
            break
    out = np.unpackbits(packed, axis=2, count=n, bitorder="little")
    return out.astype(np.int64), ranks


def rank(F: FiniteField, M: np.ndarray) -> int:
    return len(rref(F, M)[1])


def row_space_basis(F: FiniteField, M: np.ndarray) -> np.ndarray:
    """Canonical (RREF) basis of the row space."""
    return rref(F, M)[0]


def row_space_bases(F: FiniteField, spans, n: int) -> list[np.ndarray]:
    """row_space_basis of every matrix of a list, each of shape (k, n) with
    its own k, from one stacked rref.

    The matrices are padded with zero rows to the largest k, which leaves
    every row space as it is; when every k is 0 nothing is reduced."""
    spans = [np.asarray(s, dtype=np.int64) for s in spans]
    height = max((s.shape[0] for s in spans), default=0)
    if height == 0:
        return [np.zeros((0, n), dtype=np.int64) for _ in spans]
    stack = np.zeros((len(spans), height, n), dtype=np.int64)
    for b, s in enumerate(spans):
        stack[b, : s.shape[0]] = s
    R, ranks = rref(F, stack)
    return [R[b, :r] for b, r in enumerate(ranks)]


def span_chain(F: FiniteField, V: np.ndarray, mats: np.ndarray) -> tuple[list[np.ndarray], str]:
    """Canonical bases of V, V·S, V·S², ... for V given by its canonical
    basis and S the span of the stack mats (s, m, m) acting on rows: V·S is
    spanned by the rows v @ X, v in V and X in mats, one contraction and
    one rref per member.

    Returns (chain, stop).  The chain ends at its first zero member, which
    it lists, and stop is "zero"; or at the member whose product with S
    repeats a listed one, so that every later member would too, and stop is
    "repeat".  F^m has finitely many subspaces, so the chain always ends;
    when V·S lies in V it descends, and ends within dim V + 1 members."""
    m = np.shape(mats)[-1]
    cur = np.asarray(V, dtype=np.int64)
    chain, seen = [cur], {cur.tobytes()}
    while cur.shape[0]:
        cur = row_space_basis(F, as_rows(F.contract("jk,gkl->gjl", cur, mats), m))
        if cur.tobytes() in seen:
            return chain, "repeat"
        chain.append(cur)
        seen.add(cur.tobytes())
    return chain, "zero"


def residual(F: FiniteField, R: np.ndarray, pivots: list[int], V: np.ndarray) -> np.ndarray:
    """V - V[:, pivots] @ R, row by row, for an RREF basis R with its pivot
    columns (as rref returns them).

    Row i is zero exactly when V[i] lies in the row space of R: a member is
    the combination of the rows of R with its own pivot entries as
    coefficients, because R is the identity on its pivot columns."""
    V = np.asarray(V, dtype=np.int64)
    if not pivots:
        return V.copy()
    return F.sub(V, matmul(F, V[:, pivots], R))


def in_row_space(F: FiniteField, basis: np.ndarray, V: np.ndarray) -> bool:
    """Membership test; basis need not be reduced.  A 2-d V asks whether
    every one of its rows lies in the span."""
    R, pivots = rref(F, basis)
    return not residual(F, R, pivots, np.atleast_2d(V)).any()


def right_null_basis(F: FiniteField, M: np.ndarray) -> np.ndarray:
    """Rows v with M @ v^T = 0 (kernel of the column action)."""
    M = np.asarray(M, dtype=np.int64)
    n = M.shape[1]
    R, pivots = rref(F, M)
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = F.neg(R[:, free]).T
    return basis


def left_null_basis(F: FiniteField, M: np.ndarray) -> np.ndarray:
    """Rows v with v @ M = 0."""
    return right_null_basis(F, np.asarray(M).T)


def solve_left(F: FiniteField, A: np.ndarray, B: np.ndarray) -> np.ndarray | None:
    """Coordinates X with X @ A == B, or None if a row of B lies outside
    the row space of A.

    A 2-d B gets one row of coordinates per row, all read off one rref of
    [A^T | B^T]; a 1-d B gets one row.  Each solution is zero on the free
    columns, so stacking rows does not change the answer for any of them."""
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    rows = np.atleast_2d(B)
    m = A.shape[0]
    R, pivots = rref(F, np.hstack([A.T, rows.T]))
    if pivots and pivots[-1] >= m:
        return None
    X = np.zeros((rows.shape[0], m), dtype=np.int64)
    X[:, pivots] = R[:, m:].T
    return X if B.ndim == 2 else X[0]


def inverse(F: FiniteField, A: np.ndarray) -> np.ndarray | None:
    """Two-sided inverse of a square matrix, or None if singular."""
    A = np.asarray(A, dtype=np.int64)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("inverse expects a square matrix")
    aug = np.hstack([A, np.eye(n, dtype=np.int64)])
    R, pivots = rref(F, aug)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        return None
    return R[:n, n:]


def is_invertible(F: FiniteField, A: np.ndarray) -> bool:
    A = np.asarray(A)
    return A.shape[0] == A.shape[1] and rank(F, A) == A.shape[0]


def quotient_maps(F: FiniteField, basis: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Maps to and from the quotient of F^n by the row space of basis.

    Returns:
        (proj, section): proj is (n, m) with v @ proj == 0 iff v lies in
        the row space, and section is (m, n), the standard basis rows of
        the non-pivot columns, so section @ proj is the identity.
    """
    R, pivots = rref(F, as_rows(basis, n))
    free = [j for j in range(n) if j not in pivots]
    # e_pc == e_pc - R[r] modulo the row space, and that difference is
    # supported on the free columns because R is fully reduced
    red = np.eye(n, dtype=np.int64)
    red[pivots] = F.neg(R)
    return red[:, free], np.eye(n, dtype=np.int64)[free]


def enumerate_row_space(F: FiniteField, basis: np.ndarray) -> np.ndarray:
    """All q^k vectors in the span of k basis rows, one per row."""
    basis = np.asarray(basis, dtype=np.int64)
    k, n = basis.shape
    if k == 0:
        return np.zeros((1, n), dtype=np.int64)
    if F.q ** k > 1 << 22:
        raise ValueError("row space too large to enumerate")
    coeffs = np.zeros((F.q ** k, k), dtype=np.int64)
    t = np.arange(F.q ** k)
    for i in range(k):
        coeffs[:, i] = t % F.q
        t = t // F.q
    return matmul(F, coeffs, basis)


def prime_restriction(F: FiniteField, M: np.ndarray) -> np.ndarray:
    """Matrix of the same map written over the prime subfield.

    An m x n matrix over F = F_{p^d} acts on row vectors; reading each
    coordinate through its digit expansion gives an F_p-linear map on
    vectors of length m*d.  Coordinate (i, t) of the restricted space
    stands for w^t * e_i with w the residue of the tower generator, so
    the restricted matrix row (i*d + t) holds the digits of w^t * M[i].
    A stack (..., m, n) restricts every matrix of it at once, to shape
    (..., m*d, n*d).
    """
    M = np.asarray(M, dtype=np.int64)
    *lead, m, n = M.shape
    d = F.d
    if d == 1:
        return M.copy()
    omega_powers = F.p ** np.arange(d, dtype=np.int64)
    # digits[..., i, j, t, :] holds the digits of w^t * M[..., i, j]
    digits = F.DIGITS[F.mul(M[..., None], omega_powers)]
    return np.swapaxes(digits, -3, -2).reshape(*lead, m * d, n * d)

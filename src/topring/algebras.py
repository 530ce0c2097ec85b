"""Finite-dimensional associative unital algebras over a finite field.

An algebra of dimension n over F is stored by its structure constants:
``c[i, j, k]`` is the coefficient of basis vector e_k in the product
e_i * e_j, plus the coordinate row of the unit.  Elements are coordinate
rows (length-n numpy int64 arrays of encoded field elements).

The radical is computed by the characteristic-p filtration of divided
trace forms of p-th power maps on a faithful representation, with scalars
restricted to the prime field; a brute-force oracle (1 - a*x*b invertible
for all a, b) is provided for cross-checking at card <= 4096.
"""

from __future__ import annotations

import functools
from collections.abc import Callable

import numpy as np

from topring import linalg, poly
from topring.fields import FiniteField, GF, matmul_mod


class AlgebraError(ValueError):
    """Validation failure; .diagnostics lists the offending identities."""

    def __init__(self, message: str, diagnostics: list[str] | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class InternalInconsistencyError(Exception):
    """Two verdicts that provably must agree came out different.

    This is a bug in the computation, never a mathematical discovery, and
    the command line maps it, and nothing else, to exit 4.  It is not a
    ValueError, so no handler that turns invalid input into a verdict or
    into exit 3 (AlgebraError is a ValueError) can swallow it."""


def _frozen(a) -> np.ndarray:
    """A read-only C-contiguous int64 copy of a; a itself if it is one
    already and owns its data, so that no view can write to it."""
    if (isinstance(a, np.ndarray) and a.dtype == np.int64 and a.flags.c_contiguous
            and a.flags.owndata and not a.flags.writeable):
        return a
    out = np.array(a, dtype=np.int64, order="C")
    out.flags.writeable = False
    return out


class StructureAlgebra:
    """Associative unital algebra given by structure constants.

    Attributes:
        field: coefficient FiniteField.
        dim: dimension n over field.
        c: structure constants, shape (n, n, n); c[i, j, k] is the e_k
            coefficient of e_i * e_j.  Passed either as an array or as a
            function of no arguments that returns it; a function is called
            the first time c is read (modules.endo_algebra hands one over,
            so End(M) forms its n^3 tensor only where a product is taken).
        unit: coordinate row of the multiplicative unit.
        rep: optional faithful representation used for radical computations;
            a stack (n, m, m) of column-convention matrices, multiplicative
            on basis products.  Defaults to the (transposed) left regular
            representation.

    c, unit and rep are read-only copies of the arrays passed in (or the
    arrays themselves, if they are read-only and own their data), so the
    generators, the radical and the Fitting splits of endo.bass_flat (one
    per tail term, keyed by its bytes) cached on the object stay valid.
    A c given as a function is copied, checked for shape and range and
    frozen in the same way when it is first read; every later read is a
    plain attribute lookup.
    """

    def __init__(
        self,
        field: FiniteField,
        c: np.ndarray | Callable[[], np.ndarray],
        unit: np.ndarray,
        check: bool = True,
        rep: np.ndarray | None = None,
    ):
        self.field = field
        self.unit = _frozen(unit).ravel()
        self.dim = self.unit.shape[0]
        if callable(c):
            self._build_c = c
        else:
            self.c = self._checked(c)
        if self.unit.size and (self.unit.min() < 0 or self.unit.max() >= field.q):
            raise AlgebraError("unit coordinate out of field range")
        self.rep = None if rep is None else _frozen(rep)
        self._gens: list[int] | None = None
        self._radical: SubspaceIdeal | None = None
        self._fitting: dict[bytes, tuple] = {}
        if check:
            problems = self.diagnostics()
            if problems:
                raise AlgebraError(
                    f"not a unital associative algebra ({len(problems)} failures)", problems
                )

    def _checked(self, c) -> np.ndarray:
        c = _frozen(c)
        n = self.dim
        if c.shape != (n, n, n):
            raise AlgebraError(f"structure constants shape {c.shape} != {(n, n, n)}")
        if c.size and (c.min() < 0 or c.max() >= self.field.q):
            raise AlgebraError("structure constant out of field range")
        return c

    @functools.cached_property
    def c(self) -> np.ndarray:
        # reached only for a c given as a function: an array passed in is
        # stored in the instance dict, which this non-data descriptor yields to
        return self._checked(self._build_c())

    # -- multiplication -----------------------------------------------------

    def lmul_matrix(self, X: np.ndarray) -> np.ndarray:
        """L_x with x * y == y @ L_x for every row y, for each element x of
        the stack X: shape (..., n) to (..., n, n).  Row j of L_x is x * e_j.

        Every product and action of the algebra comes from this method and
        rmul_matrix; outside the class only hom_failures, the default
        representation of the radical, the direct-sum and tensor
        constructors and the file writer read c."""
        L = self.field.contract("hi,ijk->hjk", linalg.as_rows(X, self.dim), self.c)
        return L.reshape(np.shape(X) + (self.dim,))

    def rmul_matrix(self, X: np.ndarray) -> np.ndarray:
        """R_x with y * x == y @ R_x for every row y, for each element x of
        the stack X: shape (..., n) to (..., n, n).  Row i of R_x is e_i * x."""
        R = self.field.contract("hj,ijk->hik", linalg.as_rows(X, self.dim), self.c)
        return R.reshape(np.shape(X) + (self.dim,))

    def mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.mul_rows(np.asarray(x)[None], np.asarray(y)[None])[0]

    def mul_rows(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Rowwise products of two stacks of elements, shape (m, n)."""
        return self.field.contract("mj,mjk->mk", Y, self.lmul_matrix(X))

    def mul_pairs(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """All products x * y of two stacks, shape (|X|, |Y|, n), x-major."""
        return self.field.contract("vj,hjk->hvk", Y, self.lmul_matrix(X))

    def is_idempotent(self, x: np.ndarray) -> bool:
        return np.array_equal(self.mul(x, x), np.asarray(x))

    # -- enumeration ----------------------------------------------------------

    def cardinality(self) -> int:
        return self.field.q ** self.dim

    def all_elements(self) -> np.ndarray:
        if self.cardinality() > 1 << 22:
            raise ValueError(f"algebra too large to enumerate ({self.cardinality()})")
        return linalg.enumerate_row_space(self.field, np.eye(self.dim, dtype=np.int64))

    def random_element(self, rng) -> np.ndarray:
        return np.array([rng.randrange(self.field.q) for _ in range(self.dim)], dtype=np.int64)

    def encode(self, x: np.ndarray) -> int:
        """Element row to one integer, base q."""
        return int(np.asarray(x, dtype=object) @ (self.field.q ** np.arange(self.dim, dtype=object)))

    # -- structure ------------------------------------------------------------

    def diagnostics(self) -> list[str]:
        """Empty iff this is a unital associative algebra."""
        F = self.field
        n = self.dim
        problems = []
        if n == 0:
            return ["dimension zero"]
        c = self.c
        # (e_i e_j) e_k vs e_i (e_j e_k), all triples at once
        left = F.contract("ijm,mkl->ijkl", c, c)
        right = F.contract("jkm,iml->ijkl", c, c)
        bad = np.argwhere((left != right).any(axis=3))
        for i, j, k in bad[:16]:
            problems.append(f"associativity fails at (e_{i}, e_{j}, e_{k})")
        if len(bad) > 16:
            problems.append(f"... and {len(bad) - 16} more associativity failures")
        L = self.lmul_matrix(self.unit)
        R = self.rmul_matrix(self.unit)
        eye = np.eye(n, dtype=np.int64)
        if not np.array_equal(L, eye):
            problems.append("unit fails as left identity")
        if not np.array_equal(R, eye):
            problems.append("unit fails as right identity")
        return problems

    def center_basis(self) -> np.ndarray:
        """Canonical basis of the center."""
        # column block j holds e_i * e_j - e_j * e_i over i
        n = self.dim
        M = self.field.sub(self.c, np.swapaxes(self.c, 0, 1)).reshape(n, n * n)
        return linalg.left_null_basis(self.field, M)

    def min_poly(self, x: np.ndarray) -> poly.Poly:
        """Monic minimal polynomial of x over the base field."""
        return self._min_poly_powers(x)[0]

    def _min_poly_powers(self, x: np.ndarray) -> tuple[poly.Poly, np.ndarray]:
        """(m, P): the monic minimal polynomial m of x, of degree d, and
        the rows P[i] = x^i for i < d, which the search forms anyway.

        The powers x^0, ..., x^dim are formed by doubling: x^k, ..., x^(2k-1)
        and x^(2k) are the rows x^0, ..., x^(k-1) and x^k times x^k, one
        product.  One rref of the powers as columns has pivots 0, ..., d-1:
        column d, the first without a pivot, is the first power in the span
        of the ones before it, and its entries are the coefficients."""
        F = self.field
        P = self.unit[None, :]
        xk = np.asarray(x, dtype=np.int64)
        while P.shape[0] <= self.dim:
            prods = linalg.matmul(F, np.vstack([P, xk]), self.rmul_matrix(xk))
            P, xk = np.vstack([P, prods[:-1]]), prods[-1]
        R, pivots = linalg.rref(F, P[: self.dim + 1].T)
        d = len(pivots)
        if pivots != list(range(d)):
            raise InternalInconsistencyError("a power past the minimal polynomial is independent")
        coeffs = np.zeros(d + 1, dtype=np.int64)
        coeffs[:d] = F.neg(R[:, d])
        coeffs[d] = 1
        return poly.norm(coeffs), P[:d]

    def evaluate_poly(self, f: poly.Poly, x: np.ndarray) -> np.ndarray:
        """f(x) inside the algebra (constant term times the unit)."""
        F = self.field
        acc = np.zeros(self.dim, dtype=np.int64)
        for c in reversed(list(np.asarray(f, dtype=np.int64))):
            acc = self.mul(acc, x)
            if c:
                acc = F.add(acc, F.mul(c, self.unit))
        return acc

    def generators(self) -> list[int]:
        """Indices of a small generating set (greedy, deterministic)."""
        if self._gens is not None:
            return self._gens
        F = self.field
        gens: list[int] = []
        span = subalgebra_closure(self, self.unit[None, :])
        for i in range(self.dim):
            if span.shape[0] == self.dim:
                break
            if not linalg.in_row_space(F, span, linalg.basis_vector(self.dim, i)):
                gens.append(i)
                rows = [self.unit] + [linalg.basis_vector(self.dim, g) for g in gens]
                span = subalgebra_closure(self, np.vstack(rows))
        self._gens = gens
        return gens

    def generator_elements(self) -> np.ndarray:
        return np.eye(self.dim, dtype=np.int64)[self.generators()]

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, StructureAlgebra) and self.field == other.field
                and np.array_equal(self.c, other.c) and np.array_equal(self.unit, other.unit))

    def __hash__(self) -> int:
        return hash((self.field, self.dim))

    def __repr__(self) -> str:
        return f"StructureAlgebra(dim={self.dim} over {self.field})"


def subalgebra_closure(A: StructureAlgebra, rows: np.ndarray) -> np.ndarray:
    """Canonical basis of the smallest subspace containing rows and closed
    under multiplication (not necessarily unital)."""
    F = A.field
    basis = linalg.row_space_basis(F, np.asarray(rows, dtype=np.int64))
    while True:
        if basis.shape[0] == 0:
            return basis
        prods = A.mul_pairs(basis, basis).reshape(-1, A.dim)
        new = linalg.row_space_basis(F, np.vstack([basis, prods]))
        if new.shape[0] == basis.shape[0]:
            return new
        basis = new


# ---------------------------------------------------------------------------
# Ideals as subspaces
# ---------------------------------------------------------------------------


class SubspaceIdeal:
    """A subspace of an algebra flagged as a left / right / two-sided ideal.

    The basis is canonical (RREF) and read-only, so two ideals of the same
    algebra are equal iff their basis arrays are equal, and the quotient
    cached on the ideal stays valid; pivots are its pivot columns, against
    which membership is one residual.
    """

    def __init__(self, algebra: StructureAlgebra, basis: np.ndarray, side: str = "two"):
        if side not in ("left", "right", "two"):
            raise ValueError(f"bad side {side!r}")
        self.algebra = algebra
        self.basis, self.pivots = linalg.rref(
            algebra.field, linalg.as_rows(basis, algebra.dim))
        self.basis.flags.writeable = False
        self.side = side
        self._quotient = None
        self._nilpotency: int | None = None  # 0: not nilpotent
        if self.dim:  # the zero subspace is an ideal of every side
            bad = self._closure_failures()
            if bad:
                raise AlgebraError(f"subspace is not a {side} ideal", bad)

    def _closure_failures(self) -> list[str]:
        prods, names = _side_products(self.algebra, self.basis, self.side)
        outside = ~self.member_rows(prods)
        return [names[s].format(r=r, j=j)
                for r, j, s in np.argwhere(outside.reshape(prods.shape[:3]))]

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def member_rows(self, V: np.ndarray) -> np.ndarray:
        """Boolean mask of the rows of V (any stack of elements, read as
        rows) that lie in the subspace."""
        V = linalg.as_rows(V, self.algebra.dim)
        return ~linalg.residual(self.algebra.field, self.basis, self.pivots, V).any(axis=1)

    def contains(self, v: np.ndarray) -> bool:
        """Whether v lies in the subspace; a 2-d v asks it of every row."""
        return bool(self.member_rows(v).all())

    def contains_ideal(self, other: "SubspaceIdeal") -> bool:
        return self.contains(other.basis)

    def is_zero(self) -> bool:
        return self.dim == 0

    def nilpotency_index(self) -> int:
        """Smallest k with I^k = 0; raises AlgebraError if not nilpotent.

        The powers I^(k+1) = I * I^k of an ideal only shrink, so the chain
        of their canonical bases reaches 0 or repeats; a repeat I^(k+1) =
        I^k means every later power is I^k, which is not 0, and the chain
        stops there.  Computed once per ideal and kept on it, the verdict
        "not nilpotent" included, since the basis is read-only."""
        if self._nilpotency is None:
            A = self.algebra
            cur, k = self.basis, 1
            while cur.shape[0]:
                nxt = linalg.row_space_basis(
                    A.field, A.mul_pairs(self.basis, cur).reshape(-1, A.dim))
                if np.array_equal(nxt, cur):
                    k = 0
                    break
                cur, k = nxt, k + 1
            self._nilpotency = k
        if not self._nilpotency:
            raise AlgebraError("ideal is not nilpotent within the dimension bound")
        return self._nilpotency

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SubspaceIdeal)
            and self.algebra is other.algebra
            and np.array_equal(self.basis, other.basis)
        )

    def __repr__(self) -> str:
        return f"SubspaceIdeal(dim={self.dim}, side={self.side})"


def _side_products(A: StructureAlgebra, basis: np.ndarray, side: str):
    """Products of the basis rows h_r with the basis vectors e_j on the
    sides an ideal of the given side absorbs.

    Returns:
        (prods, names): prods[r, j, s] is h_r * e_j or e_j * h_r, right
        products first when both are present; names[s] formats a failure
        message for slot s from r and j.
    """
    prods, names = [], []
    if side in ("right", "two"):
        prods.append(A.lmul_matrix(basis))
        names.append("h_{r} * e_{j} escapes")
    if side in ("left", "two"):
        prods.append(A.rmul_matrix(basis))
        names.append("e_{j} * h_{r} escapes")
    return np.stack(prods, axis=2), names


def ideal_span(A: StructureAlgebra, gens: np.ndarray, side: str = "two") -> np.ndarray:
    """Unreduced rows spanning the ideal of the given side generated by the
    rows of gens: G·A for "right", A·G for "left", A·(G·A) for "two".

    One step suffices: the unit lies in A, so G ⊂ G·A, and (G·A)·A = G·A.
    Each step is one contraction; a two-sided span is reduced once between
    its two steps, so it holds at most dim³ entries."""
    gens = linalg.as_rows(gens, A.dim)
    if side == "two":
        gens, side = linalg.row_space_basis(A.field, ideal_span(A, gens, "right")), "left"
    return linalg.as_rows(_side_products(A, gens, side)[0], A.dim)


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------


def quotient(A: StructureAlgebra, I: SubspaceIdeal):
    """Quotient algebra by a two-sided ideal.

    Built and verified once per ideal object of A: later calls return the
    same Q, so whatever is cached on Q (its radical) is shared too.

    Returns:
        (Q, proj, section): Q is the quotient, proj is (dim A, dim Q) with
        class(v) == v @ proj, and section is (dim Q, dim A) choosing
        standard-coordinate representatives (a right inverse of proj);
        proj and section are read-only.
    """
    if I.side != "two":
        raise AlgebraError("quotient needs a two-sided ideal")
    if I.algebra is not A:
        return _quotient(A, I)
    if I._quotient is None:
        I._quotient = _quotient(A, I)
    return I._quotient


def _quotient(A: StructureAlgebra, I: SubspaceIdeal):
    F = A.field
    proj, section = linalg.quotient_maps(F, I.basis, A.dim)
    cq = F.contract("ijk,kl->ijl", A.mul_pairs(section, section), proj)
    unit_q = linalg.matvec(F, A.unit, proj)
    Q = StructureAlgebra(F, cq, unit_q, check=True)
    # surjective unital homomorphism with kernel exactly I, verified
    if I.dim and np.any(linalg.matmul(F, I.basis, proj)):
        raise AlgebraError("projection does not kill the ideal")
    bad = hom_failures(A, Q, proj)
    if bad.size:
        i, j = bad[0]
        raise AlgebraError(f"projection not multiplicative at ({i},{j})")
    if linalg.rank(F, proj) != section.shape[0]:
        raise AlgebraError("projection is not surjective")
    proj.flags.writeable = False
    section.flags.writeable = False
    return Q, proj, section


def hom_failures(A: StructureAlgebra, B: StructureAlgebra, T: np.ndarray) -> np.ndarray:
    """The basis pairs (i, j), row-major, at which x -> x @ T from A to B
    is not multiplicative: (e_i * e_j) @ T != (e_i @ T) * (e_j @ T).

    Row i of T is the image of e_i, and e_i * e_j is A.c[i, j]."""
    lhs = A.field.contract("ijk,kl->ijl", A.c, T)
    return np.argwhere((lhs != B.mul_pairs(T, T)).any(axis=2))


# ---------------------------------------------------------------------------
# Radical
# ---------------------------------------------------------------------------


def _batch_power_mod(W: np.ndarray, e: int, m: int) -> np.ndarray:
    """W^e mod m for a stack (T, N, N) of integer matrices and e >= 1.

    Left-to-right square-and-multiply from W mod m: every bit of e below
    the top one costs a squaring and every set one a product more, so
    W^(2^k) takes k batched products and W^1 none.  Each product is one
    fields.matmul_mod, exact as that function states."""
    e = int(e)
    if e < 1:
        raise ValueError("exponent must be >= 1")
    base = W % m
    result = base
    for bit in bin(e)[3:]:
        result = matmul_mod(result, result, m)
        if bit == "1":
            result = matmul_mod(result, base, m)
    return result


# Integers of one stack formed for many elements at once: a stacked operand
# of a level >= 1 trace-form chunk, unless one Gram row's products are
# more, or the block-diagonal matrix of lifting._outside_spans, unless one
# span is more.  FLOAT_BLOCK (2^18) raised the largest traced allocation of
# a ring-ladder op from 2.9 to 3.7 MB; 2^16 keeps it.
STACK_BLOCK = 1 << 16


def _gram_chunk(m_dim: int, N: int) -> int:
    """Pairs per chunk of a level >= 1 trace form on m_dim matrices of
    size N: a stack of a chunk holds at most max(m_dim*N^2, STACK_BLOCK)
    integers, the products of one Gram row or one block."""
    return max(m_dim, STACK_BLOCK // (N * N), 1)


def _trace_gram(mats: np.ndarray, p: int, i: int) -> np.ndarray:
    """Gram matrix of the i-th divided trace form on a stack (m, N, N) of
    matrices over F_p: entry (s, t) is tr((M_s M_t)^(p^i)) / p^i mod p,
    computed on the integer lifts in [0, p).

    Every product is a fields.matmul_mod mod p^(i+1).  Level 0 is the
    bilinear form tr(M_s M_t) = sum over (a, b) of M_s[a, b] M_t[b, a],
    one product over all pairs.  A level i >= 1 takes the pairs s <= t in
    chunks of _gram_chunk pairs: one stacked product M_s M_t and one
    _batch_power_mod per chunk.  tr(XY) is that same sum, so the power's
    last product is never formed: W^(p^i) is Y·Y with Y = W^(p^i/2) for
    p = 2, and Y·W with Y = W^(p^i - 1) for odd p.  A trace not divisible
    by p^i is an InternalInconsistencyError."""
    m_dim, N = mats.shape[:2]
    if i == 0:
        flat = mats.reshape(1, m_dim, N * N)
        return matmul_mod(flat, mats.transpose(2, 1, 0).reshape(1, N * N, m_dim), p)[0]
    step = p ** i
    modulus = step * p
    gram = np.zeros((m_dim, m_dim), dtype=np.int64)
    S, T = np.triu_indices(m_dim)
    chunk = _gram_chunk(m_dim, N)
    for lo in range(0, S.size, chunk):
        s, t = S[lo:lo + chunk], T[lo:lo + chunk]
        W = matmul_mod(mats[s], mats[t], modulus)
        Y = _batch_power_mod(W, step // 2 if p == 2 else step - 1, modulus)
        tr = np.einsum("cab,cba->c", Y, Y if p == 2 else W) % modulus
        if np.any(tr % step):
            raise InternalInconsistencyError("divided trace not divisible; filtration broken")
        gram[s, t] = gram[t, s] = (tr // step) % p
    return gram


def radical(A: StructureAlgebra) -> SubspaceIdeal:
    """Largest nilpotent two-sided ideal (the Jacobson radical).

    Computed over the prime field by iterated kernels of the divided trace
    forms (x, y) -> tr((XY)^(p^i)) / p^i mod p on a faithful representation
    of F_p-dimension N, for p^i <= N, using exact integer lifts.  Every
    product mod p^(i+1) is one fields.matmul_mod: it runs in
    double-precision BLAS while its sums stay below 2^53, checked per
    product, and in int64 past that.  Level 0 is bilinear, tr(XY) mod p,
    and is one product over all pairs, adding N^2 terms of at most
    (p-1)^2.  Each level i >= 1 powers the products mod p^(i+1) by
    square-and-multiply, a product adding N terms of at most
    (p^(i+1)-1)^2.  In int64 both are exact while that sum is below 2^63;
    p^i <= N keeps N*(p^(i+1)-1)^2 below p^2*N^3, so both hold for any N
    below 10^4 and p below the field cap of 512.

    The climb stops at the first level whose kernel is an F_q-stable,
    nilpotent two-sided ideal, and returns that ideal.  This is exact:
    every level's kernel contains rad A (Cohen, Ivanyos and Wales, JPAA
    1997), and every nilpotent two-sided ideal lies inside rad A.  When no
    level passes, the last kernel is checked, and a failure is a bug (exit 4).
    The result's quotient is verified to have zero radical.  It is computed
    and verified once per algebra object and kept on it; every later call
    returns the same ideal.
    """
    if A._radical is None:
        A._radical = _radical(A)
    return A._radical


def _radical(A: StructureAlgebra) -> SubspaceIdeal:
    F = A.field
    p, d, n = F.p, F.d, A.dim
    # faithful representation, column convention, multiplicative
    if A.rep is not None:
        rep_q = np.asarray(A.rep, dtype=np.int64)
    else:
        rep_q = np.swapaxes(A.c, 1, 2)
    N = rep_q.shape[1] * d
    # F_p-basis (i, t) -> representation matrix of omega^t e_i; the
    # representation acts on columns, prime_restriction on rows
    scaled_t = F.contract("t,iab->itba", p ** np.arange(d, dtype=np.int64), rep_q)
    pmats = np.swapaxes(linalg.prime_restriction(F, scaled_t), 2, 3).reshape(n * d, N, N)
    Fp = GF(p)
    J = np.eye(n * d, dtype=np.int64)  # rows: F_p coordinates w.r.t. (i, t)
    i_level = 0
    rad = None
    while rad is None and p ** i_level <= N:
        m_dim = J.shape[0]
        mats = (J.astype(np.int64) @ pmats.reshape(n * d, N * N)).reshape(m_dim, N, N) % p
        kernel = linalg.left_null_basis(Fp, _trace_gram(mats, p, i_level))
        J = linalg.row_space_basis(Fp, (kernel @ J) % p)
        i_level += 1
        rad = _nilpotent_ideal(A, J, final=p ** i_level > N)
    if rad is None:  # N = 0 runs no level
        rad = _nilpotent_ideal(A, J, final=True)
    if not rad.is_zero():
        # a semisimple quotient has a zero radical, so it is not verified again
        Q, _, _ = quotient(A, rad)
        if not radical(Q).is_zero():
            raise InternalInconsistencyError("quotient by the computed radical is not semisimple")
    return rad


def _nilpotent_ideal(A: StructureAlgebra, J: np.ndarray, final: bool) -> SubspaceIdeal | None:
    """The span of the rows J, F_p coordinates w.r.t. the basis
    (i, t) -> omega^t e_i, as an ideal of A when it is F_q-stable (the
    field generator, coded p, keeps it inside), a two-sided ideal and
    nilpotent.  Otherwise None, or, for the final level, the failed
    check raises InternalInconsistencyError."""
    F = A.field
    if not final and J.shape[0] == A.dim * F.d:
        return None  # the whole algebra holds 1, so it is not nilpotent
    vecs = F.from_digits(J.reshape(J.shape[0], A.dim, F.d))
    if F.d > 1:
        wdig = F.DIGITS[F.mul(F.p, vecs)].reshape(vecs.shape[0], A.dim * F.d)
        if not linalg.in_row_space(GF(F.p), J, wdig):
            if final:
                raise InternalInconsistencyError("radical candidate is not F_q-stable")
            return None
    try:
        ideal = SubspaceIdeal(A, vecs, side="two")
        ideal.nilpotency_index()
    except AlgebraError as e:
        if final:
            raise InternalInconsistencyError(str(e)) from e
        return None
    return ideal


def radical_bruteforce(A: StructureAlgebra) -> np.ndarray:
    """Canonical basis of {x : 1 - a*x*b invertible for all a, b}.

    Exhaustive by definition; only available for cardinality <= 4096.
    The products a*x*b are enumerated as a union of subspaces (a*x ranges
    over the image of right multiplication by x, then y*b over the image
    of left multiplication by y), which changes the cost, not the set.
    Every element's unit test and both of its spans come from one stacked
    row reduction each, and each distinct span is enumerated once.
    """
    F = A.field
    if A.cardinality() > 4096:
        raise ValueError("brute-force radical oracle capped at 4096 elements")
    n = A.dim
    elements = A.all_elements()
    # all_elements lists x at its base-q code sum_i x_i q^i
    codes = F.q ** np.arange(n, dtype=np.int64)
    # 1 - z is a unit iff left multiplication by it has full rank
    unit_ok = linalg.rref(F, A.lmul_matrix(F.sub(A.unit[None, :], elements)))[1] == n

    def on_every_span_element(stack: np.ndarray, ok: np.ndarray) -> np.ndarray:
        """Per matrix of the stack, whether ok holds at every element of
        its row space."""
        R, ranks = linalg.rref(F, stack)
        verdicts: dict[bytes, bool] = {}
        out = np.zeros(len(stack), dtype=bool)
        for v, r in enumerate(ranks):
            basis = R[v, :r]
            key = basis.tobytes()
            if key not in verdicts:
                verdicts[key] = bool(ok[linalg.enumerate_row_space(F, basis) @ codes].all())
            out[v] = verdicts[key]
        return out

    # y*A is the row space of L_y, A*x that of R_x
    right_multiples_ok = on_every_span_element(A.lmul_matrix(elements), unit_ok)
    members = elements[on_every_span_element(A.rmul_matrix(elements), right_multiples_ok)]
    basis = linalg.row_space_basis(F, members) if len(members) else np.zeros((0, n), dtype=np.int64)
    # the member set must be exactly the subspace it spans
    if F.q ** basis.shape[0] != len(members):
        raise InternalInconsistencyError("oracle member set is not a subspace")
    return basis


# ---------------------------------------------------------------------------
# Inversion inside 1 + H
# ---------------------------------------------------------------------------


def invert_in_one_plus_H(A: StructureAlgebra, u: np.ndarray, H: SubspaceIdeal) -> np.ndarray:
    """Inverse of u with u - 1 in a nil ideal H, by the finite geometric series.

    Raises AlgebraError if u - 1 is outside H or H fails to be nil on it.
    """
    F = A.field
    h = F.sub(np.asarray(u, dtype=np.int64), A.unit)
    if not H.contains(h):
        raise AlgebraError("u - 1 is not in H")
    acc = A.unit.copy()
    term = A.unit.copy()
    neg_h = F.neg(h)
    for _ in range(A.dim + 1):
        term = A.mul(term, neg_h)
        if not term.any():
            break
        acc = F.add(acc, term)
    else:
        raise AlgebraError("H is not nil on u - 1")
    if not np.array_equal(A.mul(u, acc), A.unit) or not np.array_equal(A.mul(acc, u), A.unit):
        raise InternalInconsistencyError("geometric series failed to invert u")
    return acc


def check_complete_orthogonal(A: StructureAlgebra, rows: np.ndarray) -> None:
    """Raise InternalInconsistencyError unless rows are idempotents,
    pairwise orthogonal, and sum to 1."""
    prods = A.mul_pairs(rows, rows)
    for i in range(rows.shape[0]):
        if not np.array_equal(prods[i, i], rows[i]):
            raise InternalInconsistencyError(f"member {i} is not idempotent")
        for j in range(rows.shape[0]):
            if i != j and prods[i, j].any():
                raise InternalInconsistencyError(f"members {i} and {j} are not orthogonal")
    if not np.array_equal(A.field.fsum(rows, axis=0), A.unit):
        raise InternalInconsistencyError("family does not sum to 1")


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def matrix_algebra(F: FiniteField, k: int) -> StructureAlgebra:
    """Mat_k(F) with basis E_{ab}, index a*k + b."""
    n = k * k
    c = np.zeros((n, n, n), dtype=np.int64)
    for a in range(k):
        for b in range(k):
            for b2 in range(k):
                for d2 in range(k):
                    if b == b2:
                        c[a * k + b, b2 * k + d2, a * k + d2] = 1
    unit = np.zeros(n, dtype=np.int64)
    for a in range(k):
        unit[a * k + a] = 1
    return StructureAlgebra(F, c, unit, check=False)


def poly_quotient_algebra(F: FiniteField, f: poly.Poly) -> StructureAlgebra:
    """F[x]/(f), basis 1, x, ..., x^(deg f - 1)."""
    f = poly.monic(F, poly.norm(f))
    n = poly.deg(f)
    if n < 1:
        raise ValueError("modulus must have degree >= 1")
    c = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            xi = np.zeros(i + j + 1, dtype=np.int64)
            xi[i + j] = 1
            r = poly.mod(F, xi, f)
            c[i, j, : len(r)] = r
    unit = np.zeros(n, dtype=np.int64)
    unit[0] = 1
    return StructureAlgebra(F, c, unit, check=False)


def truncated_poly_algebra(F: FiniteField, n: int) -> StructureAlgebra:
    """F[x]/(x^n)."""
    f = np.zeros(n + 1, dtype=np.int64)
    f[n] = 1
    return poly_quotient_algebra(F, f)


def field_extension_algebra(F: FiniteField, d: int) -> StructureAlgebra:
    """F_{q^d} as an F_q-algebra, F[x] modulo poly.first_irreducible(F, d)."""
    return poly_quotient_algebra(F, poly.first_irreducible(F, d))


def field_algebra(F: FiniteField) -> StructureAlgebra:
    """F itself as a one-dimensional algebra."""
    return StructureAlgebra(F, np.ones((1, 1, 1), dtype=np.int64), np.ones(1, dtype=np.int64), check=False)


def cyclic_group_algebra(F: FiniteField, m: int) -> StructureAlgebra:
    """Group algebra F[C_m], basis g^0, ..., g^(m-1)."""
    c = np.zeros((m, m, m), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            c[i, j, (i + j) % m] = 1
    unit = np.zeros(m, dtype=np.int64)
    unit[0] = 1
    return StructureAlgebra(F, c, unit, check=False)


def upper_triangular_algebra(F: FiniteField, k: int) -> StructureAlgebra:
    """Upper triangular k x k matrices over F."""
    pairs = [(a, b) for a in range(k) for b in range(a, k)]
    idx = {ab: t for t, ab in enumerate(pairs)}
    n = len(pairs)
    c = np.zeros((n, n, n), dtype=np.int64)
    for (a, b), s in idx.items():
        for (b2, d2), t in idx.items():
            if b == b2:
                c[s, t, idx[(a, d2)]] = 1
    unit = np.zeros(n, dtype=np.int64)
    for a in range(k):
        unit[idx[(a, a)]] = 1
    return StructureAlgebra(F, c, unit, check=False)


def product_algebra(A: StructureAlgebra, B: StructureAlgebra) -> StructureAlgebra:
    """Direct product with block coordinates (A first)."""
    if A.field != B.field:
        raise ValueError("factors must share the base field")
    n, m = A.dim, B.dim
    c = np.zeros((n + m, n + m, n + m), dtype=np.int64)
    c[:n, :n, :n] = A.c
    c[n:, n:, n:] = B.c
    unit = np.concatenate([A.unit, B.unit])
    return StructureAlgebra(A.field, c, unit, check=False)


def tensor_algebra(A: StructureAlgebra, B: StructureAlgebra) -> StructureAlgebra:
    """Tensor product over the base field; basis pair (i, j) has index
    i * B.dim + j.  Matrix algebras over commutative coefficient algebras
    are tensor products Mat_k(F) (x) R."""
    if A.field != B.field:
        raise ValueError("factors must share the base field")
    F = A.field
    nA, nB = A.dim, B.dim
    c = F.mul(
        A.c[:, None, :, None, :, None],
        B.c[None, :, None, :, None, :],
    ).reshape(nA * nB, nA * nB, nA * nB)
    unit = F.mul(A.unit[:, None], B.unit[None, :]).reshape(nA * nB)
    return StructureAlgebra(F, c, unit, check=False)


def basis_change(A: StructureAlgebra, P: np.ndarray) -> StructureAlgebra:
    """The same algebra written in the basis whose rows are P (invertible)."""
    F = A.field
    Pinv = linalg.inverse(F, P)
    if Pinv is None:
        raise ValueError("basis change must be invertible")
    c = F.contract("ijk,kl->ijl", A.mul_pairs(P, P), Pinv)
    unit = linalg.matvec(F, A.unit, Pinv)
    return StructureAlgebra(F, c, unit, check=False)


def subalgebra_structure(A: StructureAlgebra, basis: np.ndarray, unit_row: np.ndarray):
    """Subalgebra on the given basis rows (must be multiplicatively closed).

    The coordinates of the m² basis products and of the unit come from one
    solve_left of their stack; only when it fails are the products solved
    alone, to tell an open basis (reported first) from a unit outside.

    Returns:
        (B, embed): B with B.dim == len(basis) and embed mapping B rows to
        A rows (embed == basis), such that embedding is multiplicative and
        sends B.unit to unit_row.
    """
    F = A.field
    basis = np.asarray(basis, dtype=np.int64)
    m = basis.shape[0]
    prods = A.mul_pairs(basis, basis).reshape(m * m, A.dim)
    coords = linalg.solve_left(F, basis, np.vstack([prods, unit_row]))
    if coords is None:
        if linalg.solve_left(F, basis, prods) is None:
            raise AlgebraError("basis is not multiplicatively closed")
        raise AlgebraError("unit is outside the subalgebra")
    B = StructureAlgebra(F, coords[:-1].reshape(m, m, m), coords[-1], check=False)
    return B, basis


def corner_basis(A: StructureAlgebra, e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Canonical basis of the Peirce corner e*A*f.

    Row j of L_e is e*e_j, so row j of L_e @ R_f is e*e_j*f."""
    F = A.field
    return linalg.row_space_basis(F, linalg.matmul(F, A.lmul_matrix(e), A.rmul_matrix(f)))


def peirce_corner(A: StructureAlgebra, e: np.ndarray, basis: np.ndarray | None = None):
    """Corner algebra e*A*e with unit e.

    basis, when given, is corner_basis(A, e, e), which the caller already
    holds; it is computed here otherwise.

    Returns:
        (B, embed) as in subalgebra_structure.
    """
    if not A.is_idempotent(e):
        raise AlgebraError("corner needs an idempotent")
    if basis is None:
        basis = corner_basis(A, e, e)
    return subalgebra_structure(A, basis, np.asarray(e, dtype=np.int64))

"""Row-finite matrix rings with window-certified arithmetic.

Matrices over a finite base ring are indexed by a finite set or by the
natural numbers.  Infinite matrices are handled through a finite window
plus per-row certificates: a recorded set of extra known columns and a
tail ideal that is guaranteed to contain every entry beyond them.
Arithmetic propagates those certificates honestly.  When a product entry
cannot be pinned down exactly, the uncertainty is recorded as a per-row
precision ideal (the entry is known modulo it), and a row whose precision
degrades to the whole ring raises instead of fabricating values.

Membership in the basic open right ideals (rows in X with entries in I)
is decided from the certificates, with an explicit undecided verdict when
the certified region is too small.

The second half of the module carries finite modules across the matrix
equivalence: row transport for ordinary modules, free corner rows, and the
contraction of a module against a finite power of the base ring, verified
against its closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from topring import linalg
from topring.algebras import (
    AlgebraError,
    InternalInconsistencyError,
    StructureAlgebra,
    SubspaceIdeal,
    _side_products,
    ideal_span,
    matrix_algebra,
    tensor_algebra,
)
from topring.fields import GF
from topring.modules import FiniteModule


class WindowError(AlgebraError):
    """A window was too small, or index data was inconsistent."""


def _zero_basis(dim: int) -> np.ndarray:
    return np.zeros((0, dim), dtype=np.int64)


@dataclass
class WindowedMatrix:
    """A matrix known exactly on a finite window, with row certificates.

    entries holds the window block, shape (window, window, base.dim).
    For an infinite index set each row also carries extras (known entries
    at recorded columns beyond the window), a tail ideal containing every
    entry past the recorded columns, and a precision ideal modulo which
    the recorded values are known.  Finite index sets use none of that:
    the window is the whole matrix and the certificates are vacuous.
    """

    base: StructureAlgebra
    y_kind: str
    window: int
    entries: np.ndarray
    extras: list[list[tuple[int, np.ndarray]]]
    tails: list[np.ndarray]
    precisions: list[np.ndarray]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WindowedMatrix):
            return NotImplemented
        return (
            self.base is other.base
            and self.y_kind == other.y_kind
            and self.window == other.window
            and np.array_equal(self.entries, other.entries)
            and all(
                len(a) == len(b) and all(c == c2 and np.array_equal(v, v2) for (c, v), (c2, v2) in zip(a, b))
                for a, b in zip(self.extras, other.extras)
            )
            and all(np.array_equal(a, b) for a, b in zip(self.tails, other.tails))
            and all(np.array_equal(a, b) for a, b in zip(self.precisions, other.precisions))
        )


def windowed_diagnostics(m: WindowedMatrix) -> list[str]:
    problems: list[str] = []
    A = m.base
    if m.y_kind not in ("finite", "omega"):
        problems.append(f"bad index kind {m.y_kind!r}")
        return problems
    W = m.window
    if W <= 0:
        problems.append("window must be positive")
    if m.entries.shape != (W, W, A.dim):
        problems.append(f"entry block has shape {m.entries.shape}, wanted {(W, W, A.dim)}")
        return problems
    if np.any(m.entries < 0) or np.any(m.entries >= A.field.q):
        problems.append("entry coordinates out of field range")
    if not (len(m.extras) == len(m.tails) == len(m.precisions) == W):
        problems.append("per-row certificate lists must match the window")
        return problems
    if not any(m.extras) and not any(g.shape[0] for g in (*m.tails, *m.precisions)):
        return problems  # no row has an extra column or a certificate to check
    # over the naturals every nonzero certificate G is tested at once: its
    # rows span a right ideal iff rank [G; G·A] = rank G, read off one
    # contraction of every certificate row and one row_space_bases of the
    # matrices G, then the matrices [G; G·A]
    certs = [basis for x in range(W) for basis in (m.tails[x], m.precisions[x])
             if basis.shape[0] and m.y_kind == "omega"]
    not_ideal = iter(())
    if certs:
        # dim rows per certificate row: its products with every basis vector
        prods = _side_products(A, np.concatenate(certs), "right")[0]
        cut = np.cumsum([0] + [g.shape[0] for g in certs])
        bases = linalg.row_space_bases(
            A.field, certs + [np.vstack([g, prods[s:e].reshape(-1, A.dim)])
                              for g, s, e in zip(certs, cut, cut[1:])], A.dim)
        not_ideal = iter([len(b) > len(g) for g, b in zip(bases, bases[len(certs):])])
    for x in range(W):
        cols = [c for c, _ in m.extras[x]]
        if cols != sorted(set(cols)):
            problems.append(f"row {x}: extra columns must be sorted and distinct")
        for c, v in m.extras[x]:
            if c < W:
                problems.append(f"row {x}: extra column {c} lies inside the window")
            if v.shape != (A.dim,) or not np.any(v):
                problems.append(f"row {x}: extra entries must be nonzero base elements")
        for name, basis in (("tail", m.tails[x]), ("precision", m.precisions[x])):
            if basis.shape[0] == 0:
                continue
            if m.y_kind == "finite":
                problems.append(f"row {x}: finite index sets take no {name} certificate")
                continue
            if next(not_ideal):
                problems.append(f"row {x}: {name} certificate is not a right ideal")
        if m.y_kind == "finite" and m.extras[x]:
            problems.append(f"row {x}: finite index sets take no extra columns")
    return problems


def windowed(base: StructureAlgebra, y_kind: str, entries: np.ndarray,
             extras: list[list[tuple[int, np.ndarray]]] | None = None,
             tails: list[np.ndarray] | None = None,
             precisions: list[np.ndarray] | None = None,
             check: bool = True) -> WindowedMatrix:
    entries = np.asarray(entries, dtype=np.int64)
    W = entries.shape[0]
    if extras is None:
        extras = [[] for _ in range(W)]
    extras = [
        sorted(((int(c), np.asarray(v, dtype=np.int64)) for c, v in row), key=lambda cv: cv[0])
        for row in extras
    ]
    if tails is None:
        tails = [_zero_basis(base.dim) for _ in range(W)]
    if precisions is None:
        precisions = [_zero_basis(base.dim) for _ in range(W)]
    bases = linalg.row_space_bases(base.field, list(tails) + list(precisions), base.dim)
    tails, precisions = bases[:len(tails)], bases[len(tails):]
    m = WindowedMatrix(base, y_kind, W, entries, extras, tails, precisions)
    if check:
        problems = windowed_diagnostics(m)
        if problems:
            raise WindowError("bad windowed matrix", problems)
    return m


def zero_matrix(base: StructureAlgebra, y_kind: str, window: int) -> WindowedMatrix:
    return windowed(base, y_kind, np.zeros((window, window, base.dim), dtype=np.int64),
                    check=False)


def identity_matrix(base: StructureAlgebra, y_kind: str, window: int) -> WindowedMatrix:
    m = zero_matrix(base, y_kind, window)
    for x in range(window):
        m.entries[x, x] = base.unit
    return m


def elementary_matrix(base: StructureAlgebra, y_kind: str, window: int,
                      x: int, y: int, value: np.ndarray | None = None) -> WindowedMatrix:
    """The matrix with a single entry at (x, y), the unit by default."""
    if value is None:
        value = base.unit.copy()
    value = np.asarray(value, dtype=np.int64)
    if x >= window:
        raise WindowError(f"row {x} does not fit in window {window}")
    m = zero_matrix(base, y_kind, window)
    if y < window:
        m.entries[x, y] = value
    elif y_kind == "omega" and np.any(value):
        m.extras[x] = [(y, value)]
    elif y_kind == "finite":
        raise WindowError(f"column {y} does not fit in window {window}")
    return m


def shift_matrix(base: StructureAlgebra, window: int) -> WindowedMatrix:
    """The upper shift over the naturals: unit entries at (y, y+1).

    The last window row has its entry just past the window; it is kept as
    a recorded extra column so products against wider matrices stay exact.
    """
    m = zero_matrix(base, "omega", window)
    for x in range(window - 1):
        m.entries[x, x + 1] = base.unit
    m.extras[window - 1] = [(window, base.unit.copy())]
    return m


def lower_shift_matrix(base: StructureAlgebra, window: int) -> WindowedMatrix:
    """The transpose of the upper shift: unit entries at (y+1, y)."""
    m = zero_matrix(base, "omega", window)
    for x in range(1, window):
        m.entries[x, x - 1] = base.unit
    return m


def _check_compatible(a: WindowedMatrix, b: WindowedMatrix) -> None:
    if a.base != b.base:
        raise WindowError("matrices live over different base rings")
    if a.y_kind != b.y_kind:
        raise WindowError("matrices are indexed by different sets")
    if a.y_kind == "finite" and a.window != b.window:
        raise WindowError(
            f"finite index sets of sizes {a.window} and {b.window} are incompatible")


def mat_mul(a: WindowedMatrix, b: WindowedMatrix) -> WindowedMatrix:
    """Product of windowed matrices with certificate propagation.

    The result window is W, the smaller of the two input windows.  One
    route serves both index kinds.  known[x, y] holds row x of a at every
    column y that b has a row for: the window columns and, over the
    naturals, the extra columns before b.window.  Its products with the
    base ring, left, hold W * b.window * dim^2 int64, and one contraction
    of left against b's window gives the entries.  A finite index set
    carries no certificates and stops there.

    Over the naturals each row has generators of its precision: a's own
    precision and tail, a's known nonzero entries in columns b has no row
    for, and the products of known with b's precision rows.  Terms pairing
    a certified-tail entry of the left factor with an unknown row of the
    right factor stay inside the tail ideal because tail ideals are right
    ideals; a known nonzero left entry against an unrepresented right row
    cannot be bounded, so it widens the row precision by the right ideal
    it generates.  The tail also takes the known values b holds past the
    window: the terms known[x, y] * b[y, z] with z past it (one contraction
    that keeps y apart, W * b.window * (b.window - W) * dim int64, made
    only when b is wider), and the products of known with b's extra values
    and tail rows (with b's precision rows, one mul_rows over every (row,
    certificate row) pair, made only when b has such rows).  The tail is
    the right ideal of both kinds of generators, as the right ideal of the
    precision generators is the precision.  So one ideal_span of every
    nonzero generator and one stacked row reduction of 2 * W spans, each
    row's precision generators and then each row's generators of both
    kinds, give every certificate; with no nonzero generator neither is
    made.  The first row whose precision reaches the whole base ring
    raises WindowError: the window was too small to certify it.
    windowed_diagnostics re-checks that every certificate is a right
    ideal; a failure is an InternalInconsistencyError.
    """
    _check_compatible(a, b)
    A = a.base
    F = A.field
    W = min(a.window, b.window)
    n = b.window
    known = np.zeros((W, n, A.dim), dtype=np.int64)
    known[:, :W] = a.entries[:W, :W]
    for x in range(W):
        for c, v in a.extras[x]:
            if c < n:
                known[x, c] = v
    # ent[x, z] = sum_y a[x, y] * b[y, z] in the base ring
    left = A.lmul_matrix(known)
    ent = F.contract("xyjk,yzj->xzk", left, b.entries[:, :W])
    # two lists, so that setting a row of one leaves the other as it is
    tails, precisions = [_zero_basis(A.dim)] * W, [_zero_basis(A.dim)] * W
    if a.y_kind == "finite":
        return WindowedMatrix(A, "finite", W, ent, [[] for _ in range(W)], tails, precisions)

    # b's certificate rows, precisions first, each with the row y of b it sits in
    empty = _zero_basis(A.dim)
    certs = b.precisions + [np.array([v for _, v in e], dtype=np.int64) if e else empty
                            for e in b.extras] + b.tails
    counts = [r.shape[0] for r in certs]
    n_prec = sum(counts[:n])
    prods = np.zeros((W, 0, A.dim), dtype=np.int64)
    if sum(counts):
        owner = np.repeat(np.tile(np.arange(n), 3), counts)
        prods = A.mul_rows(known[:, owner].reshape(-1, A.dim),
                           np.tile(np.vstack(certs), (W, 1))).reshape(W, owner.size, A.dim)
    # a's extra values in columns b has no row for
    unmet = [np.array([v for c, v in e if c >= n], dtype=np.int64).reshape(-1, A.dim) if e else empty
             for e in a.extras[:W]]
    # (generators of row x per part, whether only the tail takes them), the
    # precision parts first
    parts = [(a.precisions[:W], False), (a.tails[:W], False), (a.entries[:W, W:], False),
             (unmet, False), (prods[:, :n_prec], False), (prods[:, n_prec:], True)]
    if n > W:
        parts.append((F.contract("xyjk,yzj->xyzk", left, b.entries[:, W:]).reshape(W, -1, A.dim),
                      True))
    # row by row, so the keys run 2x (precision of row x), then 2x + 1 (tail only)
    stacks = [(2 * x + tail_only, part[x]) for x in range(W) for part, tail_only in parts]
    key = np.repeat([k for k, _ in stacks], [len(g) for _, g in stacks])
    gens = np.concatenate([g for _, g in stacks])
    keep = gens.any(axis=1)
    if keep.any():
        span = ideal_span(A, gens[keep], "right")
        # the span holds one block of rows per generator, in generator order
        key = np.repeat(key[keep], span.shape[0] // keep.sum())
        nonzero = span.any(axis=1)
        span, key = span[nonzero], key[nonzero]
        cut = np.searchsorted(key, np.arange(2 * W + 1))
        bases = linalg.row_space_bases(
            F, [span[cut[2 * x]:cut[2 * x + 1]] for x in range(W)]
            + [span[cut[2 * x]:cut[2 * x + 2]] for x in range(W)], A.dim)
        precisions, tails = bases[:W], bases[W:]
        full = [x for x, prec in enumerate(precisions) if prec.shape[0] == A.dim]
        if full:
            raise WindowError(f"window too small to certify row {full[0]} of the product")
    m = WindowedMatrix(A, "omega", W, ent, [[] for _ in range(W)], tails, precisions)
    if problems := windowed_diagnostics(m):
        raise InternalInconsistencyError("product certificates failed their check: " + "; ".join(problems))
    return m


@dataclass
class OpenMatrixIdeal:
    """Rows in a finite set X with entries in a fixed right ideal I."""

    base: StructureAlgebra
    rows: tuple[int, ...]
    ideal: SubspaceIdeal


def open_matrix_ideal(base: StructureAlgebra, rows, basis,
                      side: str = "right") -> OpenMatrixIdeal:
    if side not in ("right", "two"):
        raise WindowError("entry ideal must absorb multiplication on the right")
    rows = tuple(sorted(set(int(x) for x in rows)))
    if any(x < 0 for x in rows):
        raise WindowError("row indices must be nonnegative")
    ideal = SubspaceIdeal(base, np.asarray(basis, dtype=np.int64).reshape(-1, base.dim),
                          side=side)
    return OpenMatrixIdeal(base, rows, ideal)


@dataclass
class MatrixMembership:
    kind: str
    window: int
    detail: str = ""


def ideal_member(m: WindowedMatrix, K: OpenMatrixIdeal) -> MatrixMembership:
    """Decide membership of a windowed matrix in a basic open right ideal.

    Known entries decide definitively; the verdict degrades to UNDECIDED
    exactly when a requested row leaves the certified region: the row is
    outside the window, its values are only known modulo a precision
    ideal not inside I, or its tail ideal is not inside I.
    """
    if K.base != m.base:
        raise WindowError("ideal and matrix live over different base rings")
    I = K.ideal
    undecided: list[str] = []
    for x in K.rows:
        if x >= m.window:
            undecided.append(f"row {x} outside window {m.window}")
            continue
        decisive = I.contains(m.precisions[x])
        # window entries, then extra columns, tested as one stack
        cols = list(range(m.window)) + [c for c, _ in m.extras[x]]
        known = np.vstack([m.entries[x]] + [v for _, v in m.extras[x]])
        for col, ok in zip(cols, I.member_rows(known)):
            if not ok:
                if decisive:
                    return MatrixMembership(
                        "NOT_MEMBER", m.window, f"entry ({x}, {col}) outside the ideal")
                undecided.append(f"entry ({x}, {col}) uncertain beyond precision")
        if not decisive:
            undecided.append(f"row {x} known only modulo a larger ideal")
        if not I.contains(m.tails[x]):
            undecided.append(f"row {x} tail not contained in the ideal")
    if undecided:
        return MatrixMembership("UNDECIDED", m.window, "; ".join(undecided[:4]))
    return MatrixMembership("MEMBER", m.window)


# ---------------------------------------------------------------------------
# finite matrix rings as structure algebras


def matrix_algebra_over(R: StructureAlgebra, k: int) -> StructureAlgebra:
    """Mat_k(R) as a structure algebra; basis (a, b, t) at (a*k + b)*dim + t."""
    return tensor_algebra(matrix_algebra(R.field, k), R)


# ---------------------------------------------------------------------------
# transport of modules across the matrix equivalence


@dataclass
class TransportedDiscrete:
    """A module M over R carried to rows over Mat_k(R)."""

    k: int
    ring: StructureAlgebra
    module: FiniteModule


def transport_discrete(N: FiniteModule, k: int,
                       ring: StructureAlgebra | None = None) -> TransportedDiscrete:
    """Rows of length k over N as a module over the k x k matrix ring.

    A row (v_0, ..., v_{k-1}) of elements of N is multiplied by a matrix
    the usual way, (v * a)_y = sum_x v_x a_{x, y}.  Pass a prebuilt
    matrix ring to land several transports over the same object.
    """
    if N.side != "right":
        raise AlgebraError("row transport takes a right module")
    R = N.algebra
    E = matrix_algebra_over(R, k) if ring is None else ring
    if E.dim != k * k * R.dim:
        raise AlgebraError("ring does not match the transport size")
    m = N.dim
    # basis element (a, b, t) acts as the block matrix E_ab (x) eff[t]
    eye = np.eye(k, dtype=np.int64)
    action = np.einsum("ac,bd,tuv->abtcudv", eye, eye, N.eff_basis()).reshape(E.dim, k * m, k * m)
    V = FiniteModule(E, action, side="right", check=True)
    return TransportedDiscrete(k, E, V)


# ---------------------------------------------------------------------------
# free corner rows and zero-convergent families


@dataclass
class ZeroConvergentFamily:
    """Finitely many recorded coefficients, the rest inside a tail ideal."""

    base: StructureAlgebra
    y_kind: str
    window: int
    support: tuple[int, ...]
    coeffs: np.ndarray
    tail_basis: np.ndarray

    def point_measure_at(self) -> int | None:
        """The index if this is a unit coefficient at a single point."""
        if self.tail_basis.shape[0] == 0 and len(self.support) == 1 and np.array_equal(
                self.coeffs[0], self.base.unit):
            return self.support[0]
        return None


def zero_convergent_family(base: StructureAlgebra, y_kind: str, window: int,
                           support, coeffs, tail_basis=None) -> ZeroConvergentFamily:
    support = tuple(int(s) for s in support)
    coeffs = np.asarray(coeffs, dtype=np.int64).reshape(len(support), base.dim)
    if tail_basis is None:
        tail_basis = _zero_basis(base.dim)
    tail_basis = linalg.row_space_basis(base.field, np.asarray(tail_basis, dtype=np.int64))
    if list(support) != sorted(set(support)):
        raise WindowError("support must be sorted and distinct")
    keep = [i for i in range(len(support)) if np.any(coeffs[i])]
    support = tuple(support[i] for i in keep)
    coeffs = coeffs[keep] if keep else np.zeros((0, base.dim), dtype=np.int64)
    if y_kind == "finite":
        if tail_basis.shape[0]:
            raise WindowError("families over a finite set take no tail ideal")
        if any(s >= window for s in support):
            raise WindowError("support outside the finite index set")
    else:
        if tail_basis.shape[0]:
            SubspaceIdeal(base, tail_basis, side="right")
    return ZeroConvergentFamily(base, y_kind, window, support, coeffs, tail_basis)


def row_family(m: WindowedMatrix, x: int) -> ZeroConvergentFamily:
    """Row x of a windowed matrix read as a zero-convergent family."""
    if x >= m.window:
        raise WindowError(f"row {x} outside window {m.window}")
    if m.precisions[x].shape[0]:
        raise WindowError(f"row {x} is only known modulo a precision ideal")
    support = []
    coeffs = []
    for z in range(m.window):
        if np.any(m.entries[x, z]):
            support.append(z)
            coeffs.append(m.entries[x, z])
    for c, v in m.extras[x]:
        support.append(c)
        coeffs.append(v)
    return zero_convergent_family(
        m.base, m.y_kind, m.window, support,
        np.asarray(coeffs, dtype=np.int64).reshape(len(support), m.base.dim),
        m.tails[x])


@dataclass
class FreeCornerRows:
    """The x-th corner row space of the matrix ring over the base ring R.

    For a finite index set of size k this is exactly R^k as a left
    R-module (the corner copy of R scales every coefficient from the
    left).  Over the naturals the rows are the zero-convergent families:
    window many free coefficients and a tail ideal for the rest.
    """

    base: StructureAlgebra
    y_kind: str
    window: int
    module: FiniteModule | None
    tail_basis: np.ndarray

    def point_measure(self, y: int):
        unit = self.base.unit
        if self.y_kind == "finite":
            out = np.zeros(self.window * self.base.dim, dtype=np.int64)
            out[y * self.base.dim:(y + 1) * self.base.dim] = unit
            return out
        return zero_convergent_family(
            self.base, "omega", self.window, (y,), unit[None, :], None)


def free_contra_corner(base: StructureAlgebra, y_kind: str, window: int, x: int,
                       tail_basis=None) -> FreeCornerRows:
    """Rows of the matrix ring at corner x, as a left module over the base.

    For finite index sets the corner is the free module R^window on the
    nose; the point measures are the rows of the identity matrix.  Over
    the naturals only window many coefficients are represented and the
    tail ideal records where the unseen ones live.
    """
    if x >= window:
        raise WindowError(f"corner row {x} outside window {window}")
    if tail_basis is None:
        tail_basis = _zero_basis(base.dim)
    tail_basis = linalg.row_space_basis(base.field, np.asarray(tail_basis, dtype=np.int64))
    module = None
    if y_kind == "finite":
        if tail_basis.shape[0]:
            raise WindowError("finite corners take no tail ideal")
        # e_t acts as I_window (x) L_t^T, with L_t its left multiplication
        L = base.lmul_matrix(np.eye(base.dim, dtype=np.int64))
        stored = np.einsum("yz,tba->tyazb", np.eye(window, dtype=np.int64), L).reshape(
            base.dim, window * base.dim, window * base.dim)
        module = FiniteModule(base, stored, side="left", check=True)
    else:
        if tail_basis.shape[0]:
            SubspaceIdeal(base, tail_basis, side="right")
    return FreeCornerRows(base, y_kind, window, module, tail_basis)


# ---------------------------------------------------------------------------
# contraction against a finite power of the base ring


@dataclass
class ContratensorResult:
    """N contracted against R^X, with the verified closed form N^X.

    tensor_dim and relation_rank are prime-field dimensions; iso is the
    induced prime-field matrix from the plain tensor product onto N^X
    whose kernel is exactly the relation span.
    """

    p: int
    x_count: int
    tensor_dim: int
    relation_rank: int
    fp_dim: int
    cardinality: int
    iso: np.ndarray
    relations: np.ndarray


def contratensor(N: FiniteModule, x_count: int) -> ContratensorResult:
    """Contract a right module N against the free family ring R^X.

    Computed as the quotient of the plain tensor product N (x) R^X by the
    balancing relations n*r (x) c - n (x) r*c, everything written over
    the prime field, where the right actions of the prime basis (j, t) of
    R (the element w^t * e_j) are each one stacked prime_restriction.
    Rows (u, j, (x, s)) of the relation matrix are act - bal, with
    act[(u, j, w), (u', w')] = NR_j[u, u'] * delta_ww' and
    bal[(u, j, (x, s)), (u', (x', s'))] = delta_uu' * delta_xx' * RL_j[s, s'].
    The closed form says the result is N^X; the returned isomorphism
    iso[(u, (x, s)), (x', u')] = delta_xx' * NR_s[u, u'] is verified to
    kill the relations, to have full rank, and to intertwine the right
    action of R on both sides.
    """
    if N.side != "right":
        raise AlgebraError("contraction takes a right module")
    if x_count < 0:
        raise ValueError("x_count must be nonnegative")
    R = N.algebra
    F = R.field
    p, d = F.p, F.d
    Fp = GF(p, 1)
    Np = N.dim * d
    Rp = R.dim * d
    Cp = Rp * x_count
    omega = p ** np.arange(d, dtype=np.int64)

    def prime_mults(stack: np.ndarray) -> np.ndarray:
        """Prime-field matrices of w^t * stack[j], one per prime basis (j, t)."""
        restricted = linalg.prime_restriction(F, F.contract("t,jab->jtab", omega, stack))
        return restricted.reshape(Rp, *restricted.shape[2:])

    # prime-field matrices: right mult on N, left and right mult on R
    NR = prime_mults(N.eff_basis())
    eye_r = np.eye(R.dim, dtype=np.int64)
    RL = prime_mults(R.lmul_matrix(eye_r))
    RRm = prime_mults(R.rmul_matrix(eye_r))
    eye_x = np.eye(x_count, dtype=np.int64)

    T = Np * Cp
    act = np.einsum("jab,wv->ajwbv", NR, np.eye(Cp, dtype=np.int64))
    bal = np.einsum("ab,xy,jst->ajxsbyt", np.eye(Np, dtype=np.int64), eye_x, RL)
    rels = Fp.sub(act.reshape(Np * Rp * Cp, T), bal.reshape(Np * Rp * Cp, T))
    relation_rank = linalg.rank(Fp, rels) if T else 0
    fp_dim = T - relation_rank

    # the closed-form map sends n (x) (point c at slot x) to n*c placed at x
    iso = np.einsum("xy,sab->axsyb", eye_x, NR).reshape(T, Np * x_count)
    if T:
        if np.any(linalg.matmul(Fp, rels, iso)):
            raise InternalInconsistencyError("closed-form map does not kill the relations")
        if linalg.rank(Fp, iso) != Np * x_count or fp_dim != Np * x_count:
            raise InternalInconsistencyError("contraction does not match its closed form")
        # r acting on R^X before iso against r acting on N^X after it
        lhs = Fp.contract("jst,axtc->jaxsc", RRm, iso.reshape(Np, x_count, Rp, -1))
        rhs = Fp.contract("ryb,jbc->jryc", iso.reshape(T, x_count, Np), NR)
        if not np.array_equal(lhs.reshape(rhs.shape), rhs):
            raise InternalInconsistencyError("closed-form map does not respect the action")
    return ContratensorResult(
        p, x_count, T, relation_rank, fp_dim, p ** fp_dim, iso, rels)

"""Finite modules over structure-constant algebras.

A module of dimension m is stored as one m x m action matrix per algebra
basis element.  Vectors are rows; a right module acts by v @ act(a), a left
module by v @ act(a).T, and in both conventions the map a -> act(a) is a
homomorphism into the matrix algebra, which is what validation checks.

The layer builds up to three verdict-style operations used by the tower
and endomorphism layers: Krull-Schmidt decomposition through idempotent
lifting in E = End(M), which reads each summand eM's endomorphism algebra
off E as the corner eEe and its isomorphism class off the simple blocks of
E/rad E (Lam, First Course, sections 21-22); local T-nilpotency
certificates via the Harada-Sai composition bound; and nonzero
nonisomorphism composites read off the powers of rad End of a family's sum.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from topring import linalg
from topring.algebras import (
    AlgebraError,
    InternalInconsistencyError,
    StructureAlgebra,
    _frozen,
    peirce_corner,
    quotient,
    radical,
)
from topring.lifting import lift_family_from_quotient
from topring.wedderburn import wedderburn


class FiniteModule:
    """Finite module over a StructureAlgebra.

    Attributes:
        algebra: the acting algebra.
        side: "right" (v*a = v @ act(a)) or "left" (a*v = v @ act(a).T).
        dim: dimension over the algebra's base field.
        action: (algebra.dim, dim, dim) stack, one matrix per basis element.
    """

    def __init__(self, algebra: StructureAlgebra, action: np.ndarray, side: str = "right",
                 check: bool = True):
        if side not in ("left", "right"):
            raise ValueError(f"bad side {side!r}")
        self.algebra = algebra
        self.action = np.ascontiguousarray(np.asarray(action, dtype=np.int64))
        if self.action.ndim != 3 or self.action.shape[0] != algebra.dim:
            raise AlgebraError(f"action stack must be ({algebra.dim}, m, m)")
        if self.action.shape[1] != self.action.shape[2]:
            raise AlgebraError("action matrices must be square")
        self.side = side
        self.dim = self.action.shape[1]
        if check:
            problems = self.diagnostics()
            if problems:
                raise AlgebraError(f"not a module ({len(problems)} failures)", problems)

    def diagnostics(self) -> list[str]:
        F = self.algebra.field
        A = self.algebra
        out = []
        m = self.dim
        if m == 0:
            return []
        unit_mat = self.act(A.unit)
        if not np.array_equal(unit_mat, np.eye(m, dtype=np.int64)):
            out.append("unit does not act as identity")
        for i in range(A.dim):
            # lhs[j] acts as e_i e_j, rhs[j] is act(e_i) act(e_j)
            lhs = F.contract("jk,kab->jab", A.c[i], self.action)
            rhs = F.contract("ab,jbc->jac", self.action[i], self.action)
            for j in np.flatnonzero((lhs != rhs).any(axis=(1, 2))):
                out.append(f"action not multiplicative at (e_{i}, e_{j})")
                if len(out) > 16:
                    return out
        return out

    def act(self, x: np.ndarray) -> np.ndarray:
        """Matrix of the algebra element x (side-independent storage form)."""
        return linalg.lincomb(self.algebra.field, x, self.action)

    def eff(self, x: np.ndarray) -> np.ndarray:
        """Matrix E with 'x acting on v' == v @ E, honoring the side."""
        M = self.act(x)
        return M if self.side == "right" else M.T

    def eff_basis(self) -> np.ndarray:
        return self.action if self.side == "right" else np.swapaxes(self.action, 1, 2)

    def __repr__(self) -> str:
        return f"FiniteModule(dim={self.dim}, side={self.side}, over dim {self.algebra.dim})"


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def right_regular_module(A: StructureAlgebra) -> FiniteModule:
    # action[i][a, k] = c[a, i, k]: right multiplication by e_i
    return FiniteModule(A, np.transpose(A.c, (1, 0, 2)), side="right", check=False)


def left_regular_module(A: StructureAlgebra) -> FiniteModule:
    # action[i][k, j] = c[i, j, k]: left multiplication by e_i, transposed
    return FiniteModule(A, np.transpose(A.c, (0, 2, 1)), side="left", check=False)


def submodule_module(M: FiniteModule, basis: np.ndarray):
    """Module structure on an action-closed subspace.

    Returns:
        (N, embed): N of dimension k, embed (k, M.dim) with embed rows the
        canonical basis; the inclusion intertwines the actions.
    """
    F = M.algebra.field
    basis = linalg.row_space_basis(F, np.asarray(basis, dtype=np.int64).reshape(-1, M.dim))
    k = basis.shape[0]
    # moved[i, r] is basis row r acted on by e_i
    moved = F.contract("rj,ijk->irk", basis, M.eff_basis())
    sub_eff = linalg.solve_left(F, basis, moved.reshape(-1, M.dim))
    if sub_eff is None:
        raise AlgebraError("subspace is not action-closed")
    sub_eff = sub_eff.reshape(M.algebra.dim, k, k)
    action = sub_eff if M.side == "right" else np.swapaxes(sub_eff, 1, 2)
    return FiniteModule(M.algebra, action, side=M.side, check=False), basis


def quotient_module(M: FiniteModule, basis: np.ndarray):
    """Quotient by an action-closed subspace.

    Returns:
        (Q, proj, section) with class(v) == v @ proj and proj @ section...
        section a right inverse of proj choosing standard representatives.
    """
    F = M.algebra.field
    proj, section = linalg.quotient_maps(F, basis, M.dim)
    # q_eff[i] = section @ eff[i] @ proj
    q_eff = F.contract("irk,kl->irl", F.contract("rj,ijk->irk", section, M.eff_basis()), proj)
    action = q_eff if M.side == "right" else np.swapaxes(q_eff, 1, 2)
    Q = FiniteModule(M.algebra, action, side=M.side, check=False)
    if module_map_failures(M, Q, proj).size:
        raise AlgebraError("projection does not intertwine the action")
    return Q, proj, section


def direct_sum(modules: list[FiniteModule]) -> FiniteModule:
    """Direct sum, the summands' coordinates concatenated in order."""
    if not modules:
        raise ValueError("empty direct sum")
    A = modules[0].algebra
    side = modules[0].side
    if any(m.algebra != A or m.side != side for m in modules):
        raise AlgebraError("summands must share algebra and side")
    total = sum(m.dim for m in modules)
    action = np.zeros((A.dim, total, total), dtype=np.int64)
    off = 0
    for m in modules:
        action[:, off : off + m.dim, off : off + m.dim] = m.action
        off += m.dim
    return FiniteModule(A, action, side=side, check=False)


# ---------------------------------------------------------------------------
# Submodules and radicals
# ---------------------------------------------------------------------------


def cyclic_submodule(M: FiniteModule, v: np.ndarray) -> np.ndarray:
    """Canonical basis of the orbit span v*A (or A*v on the left)."""
    F = M.algebra.field
    return linalg.row_space_basis(F, F.contract("j,ijk->ik", v, M.eff_basis()))


def _eff_stack(M: FiniteModule, X: np.ndarray) -> np.ndarray:
    """The matrices M.eff(x) of the rows x of X, shape (|X|, dim, dim)."""
    return M.algebra.field.contract("hi,ijk->hjk", X, M.eff_basis())


def module_map_failures(M: FiniteModule, N: FiniteModule, T: np.ndarray) -> np.ndarray:
    """Indices of the algebra generators g at which v -> v @ T from M to N
    is not a module map: M.eff(g) @ T != T @ N.eff(g).

    The elements whose action T intertwines form a unital subalgebra, so
    an empty result means T is a module map."""
    F = M.algebra.field
    gens = M.algebra.generator_elements()
    lhs = F.contract("gjk,kl->gjl", _eff_stack(M, gens), T)
    rhs = F.contract("jk,gkl->gjl", T, _eff_stack(N, gens))
    return np.flatnonzero((lhs != rhs).any(axis=(1, 2)))


def radical_of_module(M: FiniteModule) -> np.ndarray:
    """Canonical basis of M*H(A) (right side; H(A)*M on the left).

    The quotient algebra A/H(A) is semisimple, so this subspace is the
    intersection of the maximal submodules; the tests compare it with that
    intersection, enumerated from the whole submodule lattice, on small
    modules.
    """
    F = M.algebra.field
    rad = radical(M.algebra)
    return linalg.row_space_basis(F, _eff_stack(M, rad.basis).reshape(rad.dim * M.dim, M.dim))


def radical_series(M: FiniteModule) -> list[np.ndarray]:
    """Bases of M >= M*H >= M*H^2 >= ... down to 0 (strictly descending)."""
    F = M.algebra.field
    rad = radical(M.algebra)
    effs = _eff_stack(M, rad.basis)
    series = [np.eye(M.dim, dtype=np.int64)]
    current = series[0]
    while current.shape[0]:
        rows = F.contract("rj,hjk->hrk", current, effs).reshape(-1, M.dim)
        nxt = linalg.row_space_basis(F, rows)
        if nxt.shape[0] == current.shape[0]:
            raise InternalInconsistencyError("radical series stalled; algebra radical is not nil")
        series.append(nxt)
        current = nxt
    return series


# ---------------------------------------------------------------------------
# Hom spaces and endomorphism algebras
# ---------------------------------------------------------------------------


def hom_space(M: FiniteModule, N: FiniteModule) -> np.ndarray:
    """Basis (k, M.dim, N.dim) of the space of structure-compatible linear
    maps v -> v @ Phi, computed from a generating set of the algebra."""
    if M.algebra != N.algebra:
        raise AlgebraError("modules must share the algebra")
    if M.side != N.side:
        raise AlgebraError("modules must share the side")
    F = M.algebra.field
    gens = M.algebra.generator_elements()
    # block g is G_M (x) I - I (x) G_N^T (no block without generators), rows (a, b),
    # columns (c, d): G_M[g, a, c] where b == d, minus G_N[g, d, b] where a == c
    m, n = M.dim, N.dim
    ia, ib = np.arange(m), np.arange(n)
    K = np.zeros((gens.shape[0], m, n, m, n), dtype=np.int64)
    K[:, :, ib, :, ib] = _eff_stack(M, gens)
    K[:, ia, :, ia, :] = F.sub(K[:, ia, :, ia, :], np.swapaxes(_eff_stack(N, gens), 1, 2))
    K = K.reshape(gens.shape[0] * m * n, m * n)
    null = linalg.row_space_basis(F, linalg.right_null_basis(F, K))
    return null.reshape(null.shape[0], m, n)


def endo_algebra(M: FiniteModule):
    """Endomorphism algebra in the opposite convention.

    The product phi * psi is the composite "apply phi, then psi", whose
    matrix in row convention is Phi @ Psi; M is then a right module over
    the result.  Returns (E, homs, M_over_E).

    The hom basis is canonical RREF, so coordinates of a product are read
    off at the pivot columns, and only those entries of each composite are
    computed; closure and associativity hold because composites of
    structure-compatible maps are again such maps and matrix
    multiplication is associative.  E's k^3 structure constants are formed
    by one contraction over those entries the first time E.c is read,
    which the chain search of endo.sigma_coperfect_check never does.  As
    a tripwire against a corrupted hom basis, the unit and a seeded sample
    of products (all k^2 of them when k^2 <= 576, else 64 drawn pairs) are
    rebuilt in one matmul from their coordinates, the pivot entries of the
    composites (the values E.c holds for those pairs), and compared
    exactly, in one stacked check, with the composites, which one
    contraction forms.  The stack holds at most 577 * dim^2 integers.
    Then every basis map must commute with the generators (one pair of
    contractions) and the basis be the identity on its pivot columns,
    where coordinates are read."""
    F = M.algebra.field
    # one read-only array is the returned basis, E.rep, the action of
    # M_over_E and the operand of E.c's builder
    homs = _frozen(hom_space(M, M))
    k = homs.shape[0]
    flat = homs.reshape(k, M.dim * M.dim)
    # the first nonzero column of each row (column 0 for a zero row)
    pivots = (flat != 0).argmax(axis=1) if flat.size else np.zeros(k, dtype=np.int64)
    # pivot r sits at entry (a_r, b_r) of an n x n hom matrix
    a_piv, b_piv = np.divmod(pivots, M.dim)
    unit_flat = np.eye(M.dim, dtype=np.int64).reshape(-1)
    unit = unit_flat[pivots]
    if k * k <= 576:
        first, second = np.divmod(np.arange(k * k), k)
    else:
        rng = random.Random(k)
        first, second = np.array([(rng.randrange(k), rng.randrange(k)) for _ in range(64)]).T
    composites = F.contract("sij,sjk->sik", homs[first], homs[second])
    # the pivot entries of a composite are its coordinates, E.c[first, second]
    coords = np.vstack([unit, composites[:, a_piv, b_piv]])
    targets = np.vstack([unit_flat, linalg.as_rows(composites, M.dim * M.dim)])
    if not np.array_equal(linalg.matmul(F, coords, flat), targets):
        raise InternalInconsistencyError("hom space is not closed under composition")
    effs = _eff_stack(M, M.algebra.generator_elements())
    # G_g @ H_r at [g, r] against H_r @ G_g at [r, g]
    moved = (F.contract("itk,jkl->ijtl", effs, homs)
             != np.swapaxes(F.contract("itk,jkl->ijtl", homs, effs), 0, 1)).any(axis=(0, 2, 3))
    if moved.any():
        raise InternalInconsistencyError(f"hom basis map {np.argmax(moved)} is not a module map")
    if not np.array_equal(flat[:, pivots], np.eye(k, dtype=np.int64)):
        raise InternalInconsistencyError("hom basis is not reduced on its pivot columns")
    E = StructureAlgebra(
        F, lambda: F.contract("irt,jtr->ijr", homs[:, a_piv, :], homs[:, :, b_piv]),
        unit, check=False, rep=homs)
    M_over_E = FiniteModule(E, homs, side="right", check=False)
    return E, homs, M_over_E


def find_isomorphism(M: FiniteModule, N: FiniteModule) -> np.ndarray | None:
    """The first invertible element of the canonical Hom(M, N) basis, or None.

    Exact when End(M) or End(N) is local, as for indecomposable summands:
    if theta is an isomorphism, the non-isomorphisms M -> N are theta
    composed with rad End(M) (or with rad End(N)), a proper subspace, so
    some basis element lies outside it (Anderson-Fuller, section 27)."""
    if M.dim != N.dim:
        return None
    F = M.algebra.field
    return next((Phi for Phi in hom_space(M, N) if linalg.is_invertible(F, Phi)), None)


# ---------------------------------------------------------------------------
# Krull-Schmidt decomposition
# ---------------------------------------------------------------------------


@dataclass
class DecompositionCertificate:
    """Indecomposable decomposition with all the data needed to re-check it.

    idempotents[z] is the projector matrix onto summand z inside the
    ambient module, projections[z] @ embeddings[z]; classes
    groups summand indices into isomorphism classes, one class per
    Wedderburn block of End(M)/rad, in block order.  class_isos holds the
    find_isomorphism witness from each member to its class representative
    (identity for the representative itself); local_checked[z] records
    how the locality of summand z's endomorphism algebra, the Peirce
    corner e_z E e_z of E = End(M), was verified."""

    module: FiniteModule
    summands: list[FiniteModule]
    embeddings: list[np.ndarray]
    projections: list[np.ndarray]
    idempotents: list[np.ndarray]
    classes: list[list[int]]
    class_isos: dict[int, np.ndarray]
    local_checked: list[str]
    t_nilpotency: "TNilpotencyResult | None" = None


def decompose_indecomposable(M: FiniteModule, seed: int = 0) -> DecompositionCertificate:
    """Split M into indecomposable summands by lifting a complete family of
    primitive orthogonal idempotents through rad(End(M))."""
    if M.dim == 0:
        return DecompositionCertificate(
            module=M, summands=[], embeddings=[], projections=[], idempotents=[],
            classes=[], class_isos={}, local_checked=[])
    F = M.algebra.field
    E, homs, _ = endo_algebra(M)
    radE = radical(E)
    if radE.dim == E.dim:
        raise InternalInconsistencyError("endomorphism algebra cannot be its own radical")
    Q, proj, section = quotient(E, radE)
    W = wedderburn(Q, seed=seed)
    fam = lift_family_from_quotient(E, radE, proj, section, W.primitive_family())
    summands, embeddings, projections = [], [], []
    idempotents, local_checked = [], []
    # primitive_family lists its rows factor by factor
    blocks = [b for b, f in enumerate(W.factors) for _ in range(f.n)]
    for z, b in enumerate(blocks):
        P = linalg.lincomb(F, fam.rows[z], homs)
        N, embed = submodule_module(M, P)
        # row r of P is the image of e_r
        proj_z = linalg.solve_left(F, embed, P)
        if proj_z is None or not np.array_equal(linalg.matmul(F, proj_z, embed), P):
            raise InternalInconsistencyError("projector does not factor through its image")
        if not np.array_equal(linalg.matmul(F, embed, proj_z), np.eye(N.dim, dtype=np.int64)):
            raise InternalInconsistencyError("summand section failed")
        # End(N) is the corner eEe, local exactly when its top is block b's field
        EN, _ = peirce_corner(E, fam.rows[z])
        radN = radical(EN)
        if EN.dim - radN.dim != W.factors[b].m:
            raise InternalInconsistencyError("summand endomorphism algebra is not local")
        if EN.cardinality() <= 1024:
            elements = EN.all_elements()
            # x is a unit iff left multiplication by x has full rank
            lmul = F.contract("vi,ijk->vjk", elements, EN.c)
            units = linalg.rref(F, lmul)[1] == EN.dim
            if np.any(units == radN.member_rows(elements)):
                raise InternalInconsistencyError("non-unit set differs from the endo radical")
            idems = int((EN.mul_rows(elements, elements) == elements).all(axis=1).sum())
            if idems != 2:
                raise InternalInconsistencyError("summand has a nontrivial idempotent endomorphism")
            local_checked.append("exhaustive")
        else:
            local_checked.append("semisimple-quotient")
        summands.append(N)
        embeddings.append(embed)
        projections.append(proj_z)
        idempotents.append(P)
    # one class per block of E/rad E, each membership re-checked by an isomorphism
    classes = [[z for z, b in enumerate(blocks) if b == c] for c in range(len(W.factors))]
    class_isos: dict[int, np.ndarray] = {}
    for rep, *members in classes:
        class_isos[rep] = np.eye(summands[rep].dim, dtype=np.int64)
        for z in members:
            iso = find_isomorphism(summands[z], summands[rep])
            if iso is None:
                raise InternalInconsistencyError(
                    f"summands {z} and {rep} share a Wedderburn block but are not isomorphic")
            class_isos[z] = iso
    cert = DecompositionCertificate(
        module=M, summands=summands, embeddings=embeddings, projections=projections,
        idempotents=idempotents, classes=classes, class_isos=class_isos,
        local_checked=local_checked)
    verify_decomposition(cert)
    return cert


def verify_decomposition(cert: DecompositionCertificate) -> None:
    F = cert.module.algebra.field
    m = cert.module.dim
    k = len(cert.idempotents)
    P = np.asarray(cert.idempotents, dtype=np.int64).reshape(k, m, m)
    # prods[z, w] is P_z P_w
    prods = F.contract("zab,wbc->zwac", P, P)
    diag = np.arange(k)
    not_idempotent = (prods[diag, diag] != P).any(axis=(1, 2))
    not_orthogonal = prods.any(axis=(2, 3))
    not_orthogonal[diag, diag] = False
    for z in range(k):
        if not_idempotent[z]:
            raise InternalInconsistencyError(f"projector {z} is not idempotent")
        partners = np.flatnonzero(not_orthogonal[z])
        if partners.size:
            raise InternalInconsistencyError(f"projectors {z}, {partners[0]} are not orthogonal")
    if not np.array_equal(F.fsum(P, axis=0), np.eye(m, dtype=np.int64)):
        raise InternalInconsistencyError("projectors do not sum to the identity")


def composition_length(M: FiniteModule) -> int:
    """Sum of simple-summand counts along the radical series.

    Each layer B_t/B_{t+1} is killed by rad A, so a lift of the central
    idempotent of block b of A/rad A = Mat_n(D), |D| = q^m, projects it onto
    its b-isotypic part, a sum of simples of dimension n*m each."""
    if M.dim == 0:
        return 0
    A = M.algebra
    F = A.field
    Q, _, section = quotient(A, radical(A))
    W = wedderburn(Q)
    lifts = linalg.matmul(F, np.array([f.central_idempotent for f in W.factors]), section)
    effs = _eff_stack(M, lifts)
    series = radical_series(M)
    total = 0
    for top, below in zip(series, series[1:]):
        for f, eff in zip(W.factors, effs):
            r = linalg.rank(F, np.vstack([linalg.matmul(F, top, eff), below])) - below.shape[0]
            if r % (f.n * f.m):
                raise InternalInconsistencyError("semisimple block dimension mismatch")
            total += r // (f.n * f.m)
    return total


# ---------------------------------------------------------------------------
# Local T-nilpotency and perfect-decomposition verdicts
# ---------------------------------------------------------------------------


@dataclass
class ModuleFamily:
    """Labeled family of finite modules; truncated means the family stands
    for an infinite one and certificates must not be inferred from the
    finite part alone."""

    members: list[FiniteModule]
    labels: list[str]
    truncated: bool = False


@dataclass
class HaradaSaiCertificate:
    length_bound: int
    composition_bound: int
    labels: list[str]


@dataclass
class NonisoWitnessChain:
    """Composable nonisomorphisms whose composite moves an element."""

    labels: list[str]
    steps: list[tuple[int, int, np.ndarray]]
    start_element: np.ndarray
    images: list[np.ndarray]

    def length(self) -> int:
        return len(self.steps)


@dataclass
class TNilpotencyResult:
    kind: str  # "certificate" | "witness" | "inconclusive"
    certificate: HaradaSaiCertificate | None = None
    witness: NonisoWitnessChain | None = None
    depth: int = 0


def local_T_nilpotency_check(family: ModuleFamily, depth: int = 8) -> TNilpotencyResult:
    """Harada-Sai certificate for bounded families; for truncated families
    standing for unbounded ones, noniso_witness_search's witness or none.

    Raises AlgebraError when a member's endomorphism algebra is not local.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    ends = [endo_algebra(member)[0] for member in family.members]
    for idx, E in enumerate(ends):
        top = wedderburn(quotient(E, radical(E))[0]).summary()
        if len(top) != 1 or top[0][1] != 1:  # local: E/rad E is a field
            raise AlgebraError(f"family member {family.labels[idx]} has a non-local endomorphism algebra")
    if not family.truncated:
        return TNilpotencyResult(kind="certificate", certificate=_harada_sai(family), depth=depth)
    witness = noniso_witness_search(family, ends, depth)
    return TNilpotencyResult(kind="inconclusive" if witness is None else "witness",
                             witness=witness, depth=depth)


def _harada_sai(family: ModuleFamily) -> HaradaSaiCertificate:
    """Bound for a finite family of modules with local endomorphism algebras:
    nonisomorphism composites of length 2^b - 1 vanish, b the largest
    composition length."""
    b = max((composition_length(m) for m in family.members), default=0)
    return HaradaSaiCertificate(length_bound=b, composition_bound=2 ** b - 1,
                                labels=list(family.labels))


def _block_products(F, X: np.ndarray, Y: np.ndarray, dims: list[int]) -> np.ndarray:
    """[a, b, c, i, j] = X[a, c, i] @ Y[c, b, j] for maps padded to D x D in blocks X
    (ka, k, h, D, D) and Y (k, kb, g, D, D); one product per member c, of nonzero rows/columns."""
    (ka, k, h, D, _), (kb, g) = X.shape, Y.shape[1:3]
    out = np.zeros((k, ka * h * D, kb * g * D), dtype=np.int64)
    for c, dc in enumerate(dims):
        lhs = X[:, c, :, :, :dc].reshape(-1, dc)
        rhs = Y[c, :, :, :dc].transpose(2, 0, 1, 3).reshape(dc, -1)
        rows, cols = lhs.any(axis=1), rhs.any(axis=0)
        out[c][np.ix_(rows, cols)] = linalg.matmul(F, lhs[rows], rhs[:, cols])
    return out.reshape(k, ka, h, D, kb, g, D).transpose(1, 4, 0, 2, 5, 3, 6)


def noniso_witness_search(family: ModuleFamily, ends: list[StructureAlgebra],
                          depth: int) -> NonisoWitnessChain | None:
    """A composite of `depth` nonisomorphisms between members that is
    nonzero on some element, or None when every such composite vanishes.

    ends[a] is the local End(M_a), its hom basis as rep.  The
    nonisomorphisms M_a -> M_b are the Peirce block J(a, b) of J = rad End
    of the members' sum (Anderson-Fuller, section 29): Hom(M_a, M_b) when
    find_isomorphism finds no isomorphism theta, else theta rad End(M_b)
    (theta = 1 when a == b).  J^t has blocks S_t(a, b) = sum_c S_{t-1}(a,
    c) J(c, b), S_0 = 1, and a witness exists iff J^depth != 0.  Products
    are read in coordinates off the pivots of J's reduced blocks (J^t lies
    in J; the second power checks it) and reduced in one stacked rref.  The
    witness is read back from its end: with P the factors so far, the next
    is the first basis map f of a J(c, cur) with S_{s-1}(a, c) f P != 0."""
    members = family.members
    if not members:
        return None
    F, k, dims = members[0].algebra.field, len(members), [m.dim for m in members]
    D = max(dims)
    rads = [F.contract("hi,ijk->hjk", radical(E).basis, E.rep) for E in ends]
    blocks = {}
    for a, b in np.ndindex(k, k):
        theta = np.eye(dims[a], dtype=np.int64) if a == b else find_isomorphism(members[a], members[b])
        blocks[a, b] = (hom_space(members[a], members[b]) if theta is None
                        else F.contract("jk,gkl->gjl", theta, rads[b]))
    J = np.zeros((k, k, max(x.shape[0] for x in blocks.values()), D, D), dtype=np.int64)
    for (a, b), x in blocks.items():
        J[a, b, : x.shape[0], : dims[a], : dims[b]] = x
    basis = linalg.rref(F, J.reshape(k * k, -1, D * D))[0]
    J = basis.reshape(J.shape)
    pivots, live = (basis != 0).argmax(axis=2), basis.any(axis=2)
    # identity blocks; the padding is harmless, as every J block is zero there
    spans = [np.multiply.outer(np.eye(k, dtype=np.int64), np.eye(D, dtype=np.int64))[:, :, None]]
    for t in range(depth):
        prods = _block_products(F, spans[-1], J, dims).reshape(k * k, -1, D * D)
        if not prods.any():
            return None
        coords = np.take_along_axis(prods, pivots[:, None, :], axis=2) * live[:, None, :]
        if t == 1 and not np.array_equal(F.contract("sij,sjk->sik", coords, basis), prods):
            raise InternalInconsistencyError("a nonisomorphism composite left its block of J")
        R, ranks = linalg.rref(F, coords)
        spans.append(F.contract("sij,sjk->sik", R[:, : max(ranks)], basis).reshape(k, k, -1, D, D))
    a, b = divmod(int(np.flatnonzero(spans[-1].any(axis=(2, 3, 4)))[0]), k)
    P, cur, path = np.eye(D, dtype=np.int64), b, []
    for s in range(depth, 0, -1):
        tails = F.contract("ijtp,pl->ijtl", J[:, cur], P)[:, None]
        hits = _block_products(F, spans[s - 1][a : a + 1], tails, dims)[0, 0].any(axis=(1, 3, 4))
        c, j = (int(i) for i in np.argwhere(hits)[0])
        path.insert(0, (c, cur, J[c, cur, j, : dims[c], : dims[cur]]))
        P = linalg.matmul(F, J[c, cur, j], P)
        cur = c
    v = linalg.basis_vector(dims[a], int(np.flatnonzero(P.any(axis=1))[0]))
    images = list(itertools.accumulate((f for _, _, f in path), lambda x, f: linalg.matvec(F, x, f),
                                       initial=v))[1:]
    if not images[-1].any():
        raise InternalInconsistencyError("witness composite lost its element")
    return NonisoWitnessChain(labels=[family.labels[c] for (c, _, _) in path] + [family.labels[b]],
                              steps=path, start_element=v, images=images)


@dataclass
class PerfectDecompositionVerdict:
    verdict: str  # "PERFECT" | "NOT_PERFECT" | "UNKNOWN"
    depth: int
    certificate: HaradaSaiCertificate | None = None
    witness: NonisoWitnessChain | None = None
    decomposition: DecompositionCertificate | None = None


def perfect_decomposition_verdict(target, depth: int = 8, seed: int = 0) -> PerfectDecompositionVerdict:
    """PERFECT with a certificate, NOT_PERFECT with a witness chain, or
    UNKNOWN at the stated depth (truncated families only)."""
    if isinstance(target, FiniteModule):
        cert = decompose_indecomposable(target, seed=seed)
        labels = [f"summand_{z}" for z in range(len(cert.summands))]
        # the decomposition already proved every summand local
        hs = _harada_sai(ModuleFamily(members=cert.summands, labels=labels))
        cert.t_nilpotency = TNilpotencyResult(kind="certificate", certificate=hs, depth=depth)
        return PerfectDecompositionVerdict(
            verdict="PERFECT", depth=depth, certificate=hs, decomposition=cert)
    family = target
    if not family.members:
        return PerfectDecompositionVerdict(
            verdict="PERFECT", depth=depth, certificate=_harada_sai(family))
    res = local_T_nilpotency_check(family, depth=depth)
    verdict = {"certificate": "PERFECT", "witness": "NOT_PERFECT", "inconclusive": "UNKNOWN"}[res.kind]
    return PerfectDecompositionVerdict(verdict=verdict, depth=depth, certificate=res.certificate,
                                       witness=res.witness)

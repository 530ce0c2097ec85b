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
certificates via the Harada-Sai composition bound; and a witness search
for non-vanishing nonisomorphism composites.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from topring import linalg
from topring.algebras import (
    AlgebraError,
    StructureAlgebra,
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
            raise AssertionError("radical series stalled; algebra radical is not nil")
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
    if gens.shape[0] == 0:
        null = np.eye(M.dim * N.dim, dtype=np.int64)
    else:
        # block g is G_M (x) I - I (x) G_N^T, rows (a, b) and columns (c, d):
        # G_M[g, a, c] where b == d, minus G_N[g, d, b] where a == c
        m, n = M.dim, N.dim
        ia, ib = np.arange(m), np.arange(n)
        K = np.zeros((gens.shape[0], m, n, m, n), dtype=np.int64)
        K[:, :, ib, :, ib] = _eff_stack(M, gens)
        K[:, ia, :, ia, :] = F.sub(K[:, ia, :, ia, :], np.swapaxes(_eff_stack(N, gens), 1, 2))
        K = K.reshape(gens.shape[0] * m * n, m * n)
        null = linalg.row_space_basis(F, linalg.right_null_basis(F, K))
    return null.reshape(null.shape[0], M.dim, N.dim)


def endo_algebra(M: FiniteModule):
    """Endomorphism algebra in the opposite convention.

    The product phi * psi is the composite "apply phi, then psi", whose
    matrix in row convention is Phi @ Psi; M is then a right module over
    the result.  Returns (E, homs, M_over_E).

    The hom basis is canonical RREF, so coordinates of a product are read
    off at the pivot columns, and only those entries of each composite are
    computed; closure and associativity hold because composites of
    structure-compatible maps are again such maps and matrix
    multiplication is associative.  A seeded sample of products (all of
    them for small endo algebras) is reconstructed and compared exactly as
    a tripwire against a corrupted hom basis."""
    F = M.algebra.field
    homs = hom_space(M, M)
    k = homs.shape[0]
    flat = homs.reshape(k, M.dim * M.dim)
    pivots = np.array([int(np.flatnonzero(flat[r])[0]) for r in range(k)], dtype=np.int64)
    # pivot r sits at entry (a_r, b_r) of an n x n hom matrix
    a_piv, b_piv = np.divmod(pivots, M.dim)
    c = F.contract("irt,jtr->ijr", homs[:, a_piv, :], homs[:, :, b_piv])
    unit_flat = np.eye(M.dim, dtype=np.int64).reshape(-1)
    unit = unit_flat[pivots]
    checks = [(unit, unit_flat)]
    if k:
        if k * k <= 576:
            pairs = [(i, j) for i in range(k) for j in range(k)]
        else:
            rng = random.Random(k)
            pairs = [(rng.randrange(k), rng.randrange(k)) for _ in range(64)]
        for i, j in pairs:
            checks.append((c[i, j], linalg.matmul(F, homs[i], homs[j]).reshape(-1)))
    for coords, target in checks:
        if not np.array_equal(linalg.matvec(F, coords, flat), target):
            raise AlgebraError("hom space is not closed under composition")
    E = StructureAlgebra(F, c, unit, check=False, rep=homs)
    M_over_E = FiniteModule(E, homs, side="right", check=False)
    return E, homs, M_over_E


def is_isomorphism(M: FiniteModule, N: FiniteModule, Phi: np.ndarray) -> bool:
    return M.dim == N.dim and linalg.is_invertible(M.algebra.field, Phi)


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


def _endo_is_local(E: StructureAlgebra) -> bool:
    """Local means E/rad is a field."""
    summary = wedderburn(quotient(E, radical(E))[0]).summary()
    return len(summary) == 1 and summary[0][1] == 1


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
        raise AssertionError("endomorphism algebra cannot be its own radical")
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
            raise AssertionError("projector does not factor through its image")
        if not np.array_equal(linalg.matmul(F, embed, proj_z), np.eye(N.dim, dtype=np.int64)):
            raise AssertionError("summand section failed")
        # End(N) is the corner eEe, local exactly when its top is block b's field
        EN, _ = peirce_corner(E, fam.rows[z])
        radN = radical(EN)
        if EN.dim - radN.dim != W.factors[b].m:
            raise AssertionError("summand endomorphism algebra is not local")
        if EN.cardinality() <= 1024:
            elements = EN.all_elements()
            # x is a unit iff left multiplication by x has full rank
            lmul = F.contract("vi,ijk->vjk", elements, EN.c)
            units = linalg.rref(F, lmul)[1] == EN.dim
            if np.any(units == radN.member_rows(elements)):
                raise AssertionError("non-unit set differs from the endo radical")
            idems = int((EN.mul_rows(elements, elements) == elements).all(axis=1).sum())
            if idems != 2:
                raise AssertionError("summand has a nontrivial idempotent endomorphism")
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
                raise AssertionError(
                    f"summands {z} and {rep} share a Wedderburn block but are not isomorphic")
            class_isos[z] = iso
    cert = DecompositionCertificate(
        module=M,
        summands=summands,
        embeddings=embeddings,
        projections=projections,
        idempotents=idempotents,
        classes=classes,
        class_isos=class_isos,
        local_checked=local_checked,
    )
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
            raise AssertionError(f"projector {z} is not idempotent")
        partners = np.flatnonzero(not_orthogonal[z])
        if partners.size:
            raise AssertionError(f"projectors {z}, {partners[0]} are not orthogonal")
    if not np.array_equal(F.fsum(P, axis=0), np.eye(m, dtype=np.int64)):
        raise AssertionError("projectors do not sum to the identity")


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
                raise AssertionError("semisimple block dimension mismatch")
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
    """Harada-Sai certificate for bounded families; witness search for
    truncated families standing for unbounded ones.

    Raises AlgebraError when a member's endomorphism algebra is not local.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    for idx, member in enumerate(family.members):
        E, _, _ = endo_algebra(member)
        if not _endo_is_local(E):
            raise AlgebraError(f"family member {family.labels[idx]} has a non-local endomorphism algebra")
    if not family.truncated:
        return TNilpotencyResult(kind="certificate", certificate=_harada_sai(family), depth=depth)
    witness = noniso_witness_search(family, depth)
    if witness is not None:
        return TNilpotencyResult(kind="witness", witness=witness, depth=depth)
    return TNilpotencyResult(kind="inconclusive", depth=depth)


def _harada_sai(family: ModuleFamily) -> HaradaSaiCertificate:
    """Bound for a finite family of modules with local endomorphism algebras:
    nonisomorphism composites of length 2^b - 1 vanish, b the largest
    composition length."""
    b = max((composition_length(m) for m in family.members), default=0)
    return HaradaSaiCertificate(length_bound=b, composition_bound=2 ** b - 1,
                                labels=list(family.labels))


def noniso_witness_search(family: ModuleFamily, depth: int) -> NonisoWitnessChain | None:
    """Beam search for a composite of `depth` nonisomorphisms (basis maps
    between members) that is nonzero on some element, witnessed by the
    surviving element and its images."""
    F = family.members[0].algebra.field if family.members else None
    if F is None:
        return None
    k = len(family.members)
    arrows: dict[tuple[int, int], np.ndarray] = {}
    for a in range(k):
        for b in range(k):
            homs = hom_space(family.members[a], family.members[b])
            keep = [t for t in range(homs.shape[0])
                    if not is_isomorphism(family.members[a], family.members[b], homs[t])]
            arrows[(a, b)] = homs[keep] if keep else homs[:0]
    # state: (start member, current member, composite matrix)
    states = [(a, a, np.eye(family.members[a].dim, dtype=np.int64)) for a in range(k)]
    paths: list[list[tuple[int, int, np.ndarray]]] = [[] for _ in states]
    for _ in range(depth):
        new_states, new_paths, seen = [], [], set()
        for s, (start, cur, comp) in enumerate(states):
            for b in range(k):
                for t in range(arrows[(cur, b)].shape[0]):
                    step = arrows[(cur, b)][t]
                    nxt = linalg.matmul(F, comp, step)
                    if not nxt.any():
                        continue
                    key = (start, b, nxt.tobytes())
                    if key in seen:
                        continue
                    seen.add(key)
                    new_states.append((start, b, nxt))
                    new_paths.append(paths[s] + [(cur, b, step)])
        order = sorted(range(len(new_states)), key=lambda i: (new_states[i][0], new_states[i][1], new_states[i][2].tobytes()))
        new_states = [new_states[i] for i in order[:256]]
        new_paths = [new_paths[i] for i in order[:256]]
        if not new_states:
            return None
        states, paths = new_states, new_paths
    start, cur, comp = states[0]
    path = paths[0]
    row = next(r for r in range(comp.shape[0]) if comp[r].any())
    v = linalg.basis_vector(comp.shape[0], row)
    images = []
    x = v
    for (a, b, step) in path:
        x = linalg.matvec(F, x, step)
        images.append(x)
    if not images[-1].any():
        raise AssertionError("witness composite lost its element")
    return NonisoWitnessChain(
        labels=[family.labels[a] for (a, _, _) in path] + [family.labels[path[-1][1]]],
        steps=path,
        start_element=v,
        images=images,
    )


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
    if res.kind == "certificate":
        return PerfectDecompositionVerdict(verdict="PERFECT", depth=depth, certificate=res.certificate)
    if res.kind == "witness":
        return PerfectDecompositionVerdict(verdict="NOT_PERFECT", depth=depth, witness=res.witness)
    return PerfectDecompositionVerdict(verdict="UNKNOWN", depth=depth)

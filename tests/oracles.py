"""Independent reference computations used to cross-check the library.

Everything here is deliberately naive: scalar-at-a-time loops, no shared
code paths with topring.linalg beyond the field tables themselves.  Some
exceptions keep an old library route as the reference for the route that
replaced it: endo_structure_full (the full-composite structure constants
of modules.endo_algebra), sampled_isomorphism (the random search that
modules.find_isomorphism used before it read the hom basis), and
rank_membership, closure_failures_loop and quotient_structure_loop (the
per-vector membership, ideal-closure and quotient loops that the residual
against one RREF and the batched products replaced), hom_failures_loop
(the basis-pair loop that algebras.hom_failures replaced), and
decompose_per_summand (the per-summand endomorphism algebras and pairwise
class search that modules.decompose_indecomposable replaced by Peirce
corners and Wedderburn blocks of End(M)), and bass_flat_hom_space (the
Hom-space search for the Bass colimit's section that endo.bass_flat
replaced by the Fitting projection), and radical_bruteforce_loop (the
per-element row reductions that the stacked rref replaced in
algebras.radical_bruteforce).  all_submodules_loop is the only enumeration
of a submodule lattice: intersection_of_maximals reads the maximal
submodules off it and intersects them with intersect_row_spaces, the
reference that modules.radical_of_module and algebras.radical_bruteforce
are compared against; hidden_block_algebras builds inputs for these
oracles.  central_idempotents_berlekamp is the Berlekamp/Lagrange route of
wedderburn.central_primitive_idempotents before it read the roots of
each minimal polynomial off x^q - x; hidden_matrix_block_products builds
semisimple inputs for it.  module_diagnostics_loop
is the per-pair check that FiniteModule.diagnostics replaced by one
contraction pair per generator, composition_length_layers the per-layer
Mat_s(F) route that modules.composition_length replaced by the Wedderburn
blocks of A/rad A, and list_is_irreducible and list_default_modulus the
int-list copy of F_p[x] that fields used before its moduli came from poly.
The routes at the end of the file are the per-entry loops that built
structured stacks before each became one product: prime_restriction_2d
(linalg.prime_restriction before it took stacks), matrix_units_loop with
matrix_unit_relation_failure, transport_action_loop, corner_action_loop,
contratensor_loop, regular_actions_loop and level_action_loop, and
right_null_basis_loop and hom_space_loop (the per-(free, pivot) loop of
linalg.right_null_basis and the per-generator Kronecker blocks of
modules.hom_space).  Last come batch_power_loop and trace_gram_loop (the
power by e - 1 products and the per-pair divided trace forms that
algebras._radical computes by square-and-multiply and, at level 0, by one
contraction) and greedy_chain_loop (the per-candidate cyclic submodules
that endo._greedy_cyclic_chain reduces as one stack), and bass_flat_loop
(the per-sequence prefix chain that endo.bass_flat runs for a whole stack
of sequences at once), and mat_mul_loop (the two product routes of
matrixtop.mat_mul, its per-row loop over the naturals among them, before
both index kinds took one entry contraction and stacked certificate
products, and every row's precision and tail came from one ideal_span
and one stacked reduction), which closes each certificate of each row on
its own with ideal_closure_loop (the multiply-and-reduce fixed point
that algebras.ideal_span replaced by G·A, A·G and A·(G·A)), and
windowed_ideal_failures_loop (one SubspaceIdeal per certificate, the
right-ideal test of matrixtop.windowed_diagnostics before it compared
the ranks of every [G; G·A] and G in one stacked rref), and
noniso_beam_search (the capped beam over hom basis maps that
modules.noniso_witness_search replaced by the powers of the Peirce
blocks of rad End), and min_poly_loop (the minimal polynomial found one
power at a time, each solved against the powers before it, before
StructureAlgebra._min_poly_powers formed every power by doubling and read
the polynomial off one rref), and lift_family_loop with
lift_idempotent_loop (the per-member Newton lift, drift, corner and
side-closure checks that lifting.lift_orthogonal_family runs on the whole
family as one stack).  power_loop is the per-element square-and-multiply
of the deleted StructureAlgebra.power, which central_idempotents_berlekamp
applies to each central basis row, and algebra_inverse is the deleted
StructureAlgebra.inverse, a solve against the left multiplication matrix.
"""

from __future__ import annotations

import functools
import itertools
import random

import numpy as np

from topring.fields import FiniteField


def naive_rank(F: FiniteField, M) -> int:
    """Rank by plain Gaussian elimination, one scalar at a time."""
    return len(naive_rref(F, M)[1])


@functools.lru_cache(maxsize=None)
def _scalar_tables(F: FiniteField) -> tuple[list, list, list, list]:
    """F's ADD, MUL, NEG and INV tables as nested lists, for scalar lookups."""
    return F.ADD.tolist(), F.MUL.tolist(), F.NEG.tolist(), F.INV.tolist()


def naive_rref(F: FiniteField, M) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form (nonzero rows, pivot columns), one scalar
    at a time."""
    M = np.asarray(M, dtype=np.int64)
    m, n = M.shape
    ADD, MUL, NEG, INV = _scalar_tables(F)
    rows = [[int(x) for x in row] for row in M]
    rank = 0
    pivots = []
    for col in range(n):
        pivot = None
        for r in range(rank, m):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = INV[rows[rank][col]]
        rows[rank] = [MUL[inv][x] for x in rows[rank]]
        for r in range(m):
            if r != rank and rows[r][col] != 0:
                c = rows[r][col]
                rows[r] = [ADD[rows[r][j]][NEG[MUL[c][rows[rank][j]]]] for j in range(n)]
        pivots.append(col)
        rank += 1
        if rank == m:
            break
    return np.array(rows[:rank], dtype=np.int64).reshape(rank, n), pivots


def rank_membership(F: FiniteField, basis, v) -> bool:
    """Whether v lies in the row space of basis: appending it must not
    raise the rank."""
    basis = np.asarray(basis, dtype=np.int64).reshape(-1, len(v))
    if basis.shape[0] == 0:
        return not np.any(v)
    return naive_rank(F, np.vstack([basis, np.asarray(v, dtype=np.int64)[None, :]])) == naive_rank(F, basis)


def solve_left_rows(F: FiniteField, A, B):
    """Coordinates x with x @ A == b for each row b of B, one naive rref of
    [A^T | b] per row, zero on the free columns; None if any row has no
    solution."""
    A = np.asarray(A, dtype=np.int64)
    m = A.shape[0]
    out = []
    for b in np.asarray(B, dtype=np.int64).reshape(-1, A.shape[1]):
        R, pivots = naive_rref(F, np.hstack([A.T, b[:, None]]))
        if m in pivots:
            return None
        x = np.zeros(m, dtype=np.int64)
        for r, pc in enumerate(pivots):
            x[pc] = R[r, m]
        out.append(x)
    return np.array(out, dtype=np.int64).reshape(len(out), m)


def hom_failures_loop(A, B, T) -> list[tuple[int, int]]:
    """Basis pairs (i, j), row-major, where (e_i * e_j) @ T differs from
    (e_i @ T) * (e_j @ T), one pair and one scalar at a time."""
    F = A.field
    T = np.asarray(T, dtype=np.int64)
    bad = []
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = [0] * T.shape[1]
            for k in range(A.dim):
                for t in range(T.shape[1]):
                    lhs[t] = int(F.ADD[lhs[t], F.MUL[A.c[i, j, k], T[k, t]]])
            if not np.array_equal(lhs, table_mul(F, B.c, T[i], T[j])):
                bad.append((i, j))
    return bad


def closure_failures_loop(A, basis, side: str) -> list[str]:
    """Failure messages of an ideal-closure check, one product and one
    membership test per basis row h_r and basis vector e_j, right product
    before left."""
    F = A.field
    eye = np.eye(A.dim, dtype=np.int64)
    bad = []
    for r, h in enumerate(basis):
        for j in range(A.dim):
            if side in ("right", "two") and not rank_membership(F, basis, table_mul(F, A.c, h, eye[j])):
                bad.append(f"h_{r} * e_{j} escapes")
            if side in ("left", "two") and not rank_membership(F, basis, table_mul(F, A.c, eye[j], h)):
                bad.append(f"e_{j} * h_{r} escapes")
    return bad


def quotient_structure_loop(A, proj, section) -> np.ndarray:
    """Structure constants of A/I: the class of section[a] * section[b],
    one pair and one scalar at a time."""
    F = A.field
    m = section.shape[0]
    cq = np.zeros((m, m, m), dtype=np.int64)
    for a in range(m):
        for b in range(m):
            prod = table_mul(F, A.c, section[a], section[b])
            for k in range(A.dim):
                for t in range(m):
                    cq[a, b, t] = F.ADD[cq[a, b, t], F.MUL[prod[k], proj[k, t]]]
    return cq


def table_mul(F: FiniteField, c, x, y) -> np.ndarray:
    """Algebra product sum_ijk x_i y_j c[i, j, k] e_k, one scalar at a time."""
    n = len(x)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            xy = int(F.MUL[x[i], y[j]])
            if xy:
                for k in range(n):
                    out[k] = int(F.ADD[out[k], F.MUL[xy, c[i, j, k]]])
    return np.array(out, dtype=np.int64)


def algebra_inverse(A, x) -> np.ndarray | None:
    """Two-sided inverse of x in A, or None: y with y * x == 1 solved from
    the left multiplication matrix of x, then checked; left inverses are
    two-sided in a finite-dimensional algebra."""
    from topring import linalg

    y = linalg.solve_left(A.field, A.lmul_matrix(x), A.unit)
    if y is None or not np.array_equal(A.mul(y, x), A.unit):
        return None
    return y


def corner_loop(A, e, f) -> np.ndarray:
    """RREF basis of e*A*f from the products e*e_j*f, one basis vector at
    a time."""
    n = A.dim
    rows = [table_mul(A.field, A.c, table_mul(A.field, A.c, e, np.eye(n, dtype=np.int64)[j]), f)
            for j in range(n)]
    return naive_rref(A.field, rows)[0]


def quotient_maps_loop(F: FiniteField, basis, n: int):
    """(proj, section) of F^n modulo the row space of basis, one pivot and
    one free column at a time."""
    B, pivots = naive_rref(F, np.asarray(basis, dtype=np.int64).reshape(-1, n))
    free = [j for j in range(n) if j not in pivots]
    red = np.eye(n, dtype=np.int64)
    for r, pc in enumerate(pivots):
        for j in range(n):
            red[pc, j] = 0 if j == pc else F.NEG[B[r, j]]
    section = np.zeros((len(free), n), dtype=np.int64)
    for k, j in enumerate(free):
        section[k, j] = 1
    return red[:, free], section


def blowup(F: FiniteField, M) -> np.ndarray:
    """Square F_q-matrix (m, m) to the F_p-matrix (m*d, m*d) acting on
    columns: block (i, j) is the d x d matrix of multiplication by M[i, j]
    on digit vectors, whose column t holds the digits of M[i, j] * w^t."""
    M = np.asarray(M, dtype=np.int64)
    m, d = M.shape[0], F.d
    out = np.zeros((m * d, m * d), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            for t in range(d):
                digits = F.DIGITS[F.MUL[M[i, j], F.p ** t]]
                for s in range(d):
                    out[i * d + s, j * d + t] = digits[s]
    return out


def sampled_isomorphism(M, N, seed: int = 0, sample_budget: int = 200):
    """An invertible element of Hom(M, N) from random combinations of the
    hom basis, then by enumeration when the hom space has at most 4096
    elements; None otherwise.  A None is a proof only in the enumerated
    case."""
    from topring import linalg
    from topring.modules import hom_space

    if M.dim != N.dim:
        return None
    F = M.algebra.field
    homs = hom_space(M, N)
    k = homs.shape[0]
    if k == 0:
        return None
    rng = random.Random(seed)
    for _ in range(sample_budget):
        coeffs = np.array([rng.randrange(F.q) for _ in range(k)], dtype=np.int64)
        Phi = linalg.lincomb(F, coeffs, homs)
        if linalg.is_invertible(F, Phi):
            return Phi
    if F.q ** k <= 4096:
        for coeffs in linalg.enumerate_row_space(F, np.eye(k, dtype=np.int64)):
            Phi = linalg.lincomb(F, coeffs, homs)
            if linalg.is_invertible(F, Phi):
                return Phi
    return None


def poly_mul(F: FiniteField, f: list[int], g: list[int]) -> list[int]:
    """Schoolbook polynomial product, low degree first."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = int(F.ADD[out[i + j], F.MUL[a, b]])
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_eval(F: FiniteField, f: list[int], x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = int(F.ADD[F.MUL[acc, x], c])
    return acc


def table_contract(F: FiniteField, spec: str, A, B) -> np.ndarray:
    """Bilinear einsum one scalar product at a time, through F.MUL and F.ADD."""
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    sizes = dict(zip(sa, A.shape)) | dict(zip(sb, B.shape))
    letters = list(dict.fromkeys(sa + sb))
    res = np.zeros([sizes[x] for x in out], dtype=np.int64)
    for vals in itertools.product(*[range(sizes[x]) for x in letters]):
        env = dict(zip(letters, vals))
        a = A[tuple(env[x] for x in sa)]
        b = B[tuple(env[x] for x in sb)]
        o = tuple(env[x] for x in out)
        res[o] = F.ADD[res[o], F.MUL[a, b]]
    return res


def table_fsum(F: FiniteField, arr, axis) -> np.ndarray:
    """Field sum along one axis by repeated F.ADD lookups."""
    arr = np.moveaxis(np.asarray(arr, dtype=np.int64), axis, 0)
    acc = np.zeros(arr.shape[1:], dtype=np.int64)
    for row in arr:
        acc = F.ADD[acc, row]
    return acc


def endo_structure_full(M) -> np.ndarray:
    """Structure constants of End(M) by the full-composite route.

    This is how modules.endo_algebra computed them before it read off the
    pivot entries alone: every composite homs[i] @ homs[j] is built in full
    from F.MUL and F.fsum, then read off at the pivot columns of the
    canonical hom basis."""
    from topring.modules import hom_space

    F = M.algebra.field
    homs = hom_space(M, M)
    k = homs.shape[0]
    flat = homs.reshape(k, M.dim * M.dim)
    pivots = [int(np.flatnonzero(flat[r])[0]) for r in range(k)]
    c = np.zeros((k, k, k), dtype=np.int64)
    for i in range(k):
        prods = F.fsum(F.MUL[homs[i][None, :, :, None], homs[:, None, :, :]], axis=2)
        c[i] = prods.reshape(k, -1)[:, pivots]
    return c


def decompose_per_summand(M, seed: int = 0):
    """Krull-Schmidt decomposition by the route modules.decompose_indecomposable
    took before it read summand data off End(M): each summand's endomorphism
    algebra is rebuilt from its own hom space and proved local through its
    semisimple quotient, and classes come from a pairwise isomorphism search
    against each class representative.

    Returns (summand dims, classes, local_checked, projectors)."""
    from topring import linalg
    from topring.algebras import quotient, radical
    from topring.lifting import lift_family_from_quotient
    from topring.modules import endo_algebra, find_isomorphism, submodule_module
    from topring.wedderburn import wedderburn

    F = M.algebra.field
    E, homs, _ = endo_algebra(M)
    radE = radical(E)
    Q, proj, section = quotient(E, radE)
    W = wedderburn(Q, seed=seed)
    fam = lift_family_from_quotient(E, radE, proj, section, W.primitive_family())
    summands, local_checked, projectors = [], [], []
    for row in fam.rows:
        P = linalg.lincomb(F, row, homs)
        N, _ = submodule_module(M, linalg.row_space_basis(F, P))
        EN, _, _ = endo_algebra(N)
        radN = radical(EN)
        top = wedderburn(quotient(EN, radN)[0]).summary()
        if len(top) != 1 or top[0][1] != 1:
            raise AssertionError("summand endomorphism algebra is not local")
        if EN.cardinality() <= 1024:
            elements = EN.all_elements()
            idems = sum(EN.is_idempotent(x) for x in elements)
            units = [algebra_inverse(EN, x) is not None for x in elements]
            if idems != 2 or any(u == r for u, r in zip(units, radN.member_rows(elements))):
                raise AssertionError("summand endomorphism algebra is not local")
            local_checked.append("exhaustive")
        else:
            local_checked.append("semisimple-quotient")
        summands.append(N)
        projectors.append(P)
    classes: list[list[int]] = []
    for z, N in enumerate(summands):
        cls = next((c for c in classes if find_isomorphism(N, summands[c[0]]) is not None), None)
        if cls is None:
            classes.append([z])
        else:
            cls.append(z)
    return [N.dim for N in summands], classes, local_checked, projectors


def bass_flat_hom_space(R, sequence):
    """The Bass colimit by the route endo.bass_flat took before it read its
    section off Fitting's lemma: the power P^dim R of the tail term's right
    multiplication by dim R products, and a section found by solving for
    section @ proj == I inside a basis of Hom(colimit, R).

    Returns (ranks, stabilization index, kernel, colimit, projection,
    section, image of P^dim R)."""
    from topring import linalg
    from topring.modules import hom_space, left_regular_module, quotient_module

    F = R.field
    seq = np.asarray(sequence, dtype=np.int64).reshape(-1, R.dim)
    d = seq.shape[0]
    ext = np.vstack([seq] + [seq[-1][None, :]] * (R.dim + 1))
    acc = np.eye(R.dim, dtype=np.int64)
    ranks = []
    for a in ext:
        acc = linalg.matmul(F, acc, R.rmul_matrix(a))
        ranks.append(naive_rank(F, acc))
    s = len(ranks)
    while s > 1 and ranks[s - 2] == ranks[-1]:
        s -= 1
    P = R.rmul_matrix(ext[-1])
    Pk = np.eye(R.dim, dtype=np.int64)
    for _ in range(R.dim):
        Pk = linalg.matmul(F, Pk, P)
    kernel = linalg.row_space_basis(F, linalg.left_null_basis(F, Pk))
    LR = left_regular_module(R)
    B, proj, _ = quotient_module(LR, kernel)
    if B.dim == 0:
        section = np.zeros((0, R.dim), dtype=np.int64)
    else:
        homs = hom_space(B, LR)
        rows = np.stack([linalg.matmul(F, h, proj).reshape(-1) for h in homs])
        sol = linalg.solve_left(F, rows, np.eye(B.dim, dtype=np.int64).reshape(-1))
        if sol is None:
            raise AssertionError("no Hom-space section")
        section = linalg.lincomb(F, sol, homs)
    return ranks[:d], s, kernel, B, proj, section, linalg.row_space_basis(F, Pk)


def bass_flat_loop(R, seq):
    """The image chain of one Bass sequence by the route endo.bass_flat
    took before it took stacks: one product per term, starting from the
    identity, over the sequence extended by dim R + 1 copies of its last
    term, and the ranks from one stacked row reduction of the prefixes.

    Returns (image ranks of the listed terms, stabilization index, note)."""
    from topring import linalg

    F = R.field
    seq = np.asarray(seq, dtype=np.int64)
    d = seq.shape[0]
    ext = np.vstack([seq] + [seq[-1][None, :]] * (R.dim + 1))
    prefix = [np.eye(R.dim, dtype=np.int64)]
    for a in ext:
        prefix.append(linalg.matmul(F, prefix[-1], R.rmul_matrix(a)))
    ranks = [int(r) for r in linalg.rref(F, np.stack(prefix[1:]))[1]]
    s = len(ranks)
    while s > 1 and ranks[s - 2] == ranks[-1]:
        s -= 1
    note = "" if s <= d else "stabilized only in the constant-tail extension"
    return ranks[:d], s, note


def radical_bruteforce_loop(A) -> np.ndarray:
    """The exhaustive radical {x : 1 - a*x*b invertible for all a, b} by the
    route algebras.radical_bruteforce took before it row-reduced element
    stacks: one rref per element x for A*x and one per product y for y*A,
    cached per y and per z."""
    from topring import linalg

    F = A.field
    n = A.dim
    invertible: dict[bytes, bool] = {}
    right_ok: dict[bytes, bool] = {}

    def one_minus_invertible(z) -> bool:
        key = z.tobytes()
        if key not in invertible:
            invertible[key] = linalg.rank(F, A.lmul_matrix(F.sub(A.unit, z))) == n
        return invertible[key]

    def right_multiples_ok(y) -> bool:
        key = y.tobytes()
        if key not in right_ok:
            ya = linalg.row_space_basis(F, A.lmul_matrix(y))
            right_ok[key] = all(one_minus_invertible(z) for z in linalg.enumerate_row_space(F, ya))
        return right_ok[key]

    members = []
    for x in A.all_elements():
        ax = linalg.row_space_basis(F, A.rmul_matrix(x))
        if all(right_multiples_ok(y) for y in linalg.enumerate_row_space(F, ax)):
            members.append(x)
    if not members:
        return np.zeros((0, n), dtype=np.int64)
    return linalg.row_space_basis(F, np.vstack(members))


def all_submodules_loop(M) -> list[np.ndarray]:
    """Every submodule, as canonical bases: one rref per element for its
    cyclic submodule, then closure under pairwise sums."""
    from topring import linalg

    F = M.algebra.field
    zero = np.zeros((0, M.dim), dtype=np.int64)
    seen = {zero.tobytes(): zero}
    for v in linalg.enumerate_row_space(F, np.eye(M.dim, dtype=np.int64)):
        b = linalg.row_space_basis(F, F.contract("j,ijk->ik", v, M.eff_basis()))
        seen.setdefault(b.tobytes(), b)
    frontier = list(seen.values())
    while frontier:
        fresh = []
        for X in frontier:
            for Y in list(seen.values()):
                S = linalg.row_space_basis(F, np.vstack([X, Y]))
                if S.tobytes() not in seen:
                    seen[S.tobytes()] = S
                    fresh.append(S)
        frontier = fresh
    return sorted(seen.values(), key=lambda b: (b.shape[0], b.tobytes()))


def intersect_row_spaces(F: FiniteField, A, B) -> np.ndarray:
    """Canonical basis of rowspace(A) & rowspace(B): x = u @ A = w @ B
    exactly when (u | w) kills [A; -B] from the left."""
    from topring import linalg

    A = linalg.row_space_basis(F, A)
    B = linalg.row_space_basis(F, B)
    null = linalg.left_null_basis(F, np.vstack([A, F.neg(B)]))
    return linalg.row_space_basis(F, linalg.matmul(F, null[:, : A.shape[0]], A))


def intersection_of_maximals(M) -> np.ndarray:
    """Intersection of the maximal submodules of M, read off the whole
    submodule lattice of all_submodules_loop; M itself when it has none."""
    from topring import linalg

    F = M.algebra.field
    proper = [b for b in all_submodules_loop(M) if b.shape[0] < M.dim]
    maximal = [b for b in proper
               if not any(o.shape[0] > b.shape[0] and linalg.in_row_space(F, o, b)
                          for o in proper)]
    acc = np.eye(M.dim, dtype=np.int64)
    for b in maximal:
        acc = intersect_row_spaces(F, acc, b)
    return acc


def hidden_block_algebras():
    """Inputs for the per-element oracles: products of blocks behind a seeded
    random basis change, with at most 243 elements."""
    from topring.acceptance import _random_invertible
    from topring.algebras import (
        basis_change, cyclic_group_algebra, field_algebra, field_extension_algebra,
        matrix_algebra, product_algebra, truncated_poly_algebra, upper_triangular_algebra)
    from topring.fields import GF

    F2, F3, F4 = GF(2), GF(3), GF(2, 2)
    rng = np.random.default_rng(2026)
    products = [
        product_algebra(upper_triangular_algebra(F2, 2), truncated_poly_algebra(F2, 3)),
        product_algebra(matrix_algebra(F2, 2), field_algebra(F2)),
        product_algebra(cyclic_group_algebra(F2, 4), field_extension_algebra(F2, 2)),
        product_algebra(truncated_poly_algebra(F3, 2), upper_triangular_algebra(F3, 2)),
        product_algebra(truncated_poly_algebra(F4, 2), field_algebra(F4)),
    ]
    return [basis_change(A, _random_invertible(A.field, A.dim, rng)) for A in products]



def power_loop(A, x, k: int) -> np.ndarray:
    """x^k in A (k >= 0) by right-to-left square-and-multiply on A.mul, one
    element at a time, as StructureAlgebra.power computed it."""
    acc = A.unit.copy()
    base = np.asarray(x, dtype=np.int64)
    while k > 0:
        if k & 1:
            acc = A.mul(acc, base)
        base = A.mul(base, base)
        k >>= 1
    return acc


def central_idempotents_berlekamp(A) -> np.ndarray:
    """wedderburn.central_primitive_idempotents as it was before it read
    the roots of each minimal polynomial off x^q - x: every Frobenius-fixed
    central element's minimal polynomial is factored by Berlekamp, and each
    linear factor x - a gives the Lagrange idempotent (m/(x - a))(z) / m'(a),
    with m'(a) the remainder of m/(x - a) at a, evaluated by Horner in A."""
    from topring import linalg, poly
    from topring.algebras import check_complete_orthogonal

    F = A.field
    Z = A.center_basis()
    phi = linalg.solve_left(F, Z, np.array([power_loop(A, z, F.q) for z in Z]).reshape(-1, A.dim))
    fixed_coeff = linalg.left_null_basis(F, F.sub(phi, np.eye(Z.shape[0], dtype=np.int64)))
    fixed = linalg.matmul(F, fixed_coeff, Z)
    k = fixed.shape[0]
    family = A.unit[None, :]
    for z in fixed:
        if family.shape[0] == k:
            break
        mp = A.min_poly(z)
        lagr = []
        for g, e in poly.factor_poly(F, mp)[1]:
            assert poly.deg(g) == 1 and e == 1
            num = poly.exact_div(F, mp, g)
            den = int(poly.mod(F, num, g)[0])
            lagr.append(A.evaluate_poly(poly.scale(F, F.inv(den), num), z))
        family = A.mul_pairs(family, np.vstack(lagr)).reshape(-1, A.dim)
        family = family[family.any(axis=1)]
    assert family.shape[0] == k
    rows = np.vstack(sorted(family, key=A.encode))
    check_complete_orthogonal(A, rows)
    return rows


def hidden_matrix_block_products():
    """Semisimple inputs for the central idempotents: F_q x F_q x Mat_2(F_q)
    x F_{q^2} x Mat_2(F_{q^2}) over GF(2), GF(3), GF(4), GF(5), GF(8),
    GF(9) and GF(256) (fewer blocks over the larger fields), behind a
    seeded random basis change.  With two equal F_q factors a fixed central
    element can take one value on both, so refinement needs several."""
    from topring.acceptance import _random_invertible
    from topring.algebras import (
        basis_change, field_algebra, field_extension_algebra, matrix_algebra, product_algebra,
        tensor_algebra)
    from topring.fields import GF

    rng = np.random.default_rng(28)
    out = []
    for F in (GF(2), GF(3), GF(2, 2), GF(5), GF(2, 3), GF(3, 2), GF(2, 8)):
        blocks = [field_algebra(F), field_algebra(F), matrix_algebra(F, 2),
                  field_extension_algebra(F, 2)]
        if F.q <= 4:
            blocks.append(tensor_algebra(matrix_algebra(F, 2), field_extension_algebra(F, 2)))
        A = blocks[0]
        for B in blocks[1:]:
            A = product_algebra(A, B)
        out.append(basis_change(A, _random_invertible(F, A.dim, rng)))
    return out


def primitive_family_rescan(B, rng) -> np.ndarray:
    """wedderburn.primitive_orthogonal_family as it was before each member
    kept its corner: every refinement step rescans the family, computing
    the corner of each member again, and the corner of the member it splits
    once more in peirce_corner.  Draws from rng in the same order."""
    from math import isqrt

    from topring import linalg
    from topring.algebras import corner_basis, peirce_corner
    from topring.wedderburn import _proper_idempotent

    m = B.center_basis().shape[0]
    n = isqrt(B.dim // m)
    family = [B.unit.copy()]
    for _ in range(B.dim):
        split_at = next(
            (i for i, e in enumerate(family) if corner_basis(B, e, e).shape[0] > m), None)
        if split_at is None:
            break
        e = family[split_at]
        C, embed = peirce_corner(B, e)
        f1 = linalg.matvec(B.field, _proper_idempotent(C, rng), embed)
        family[split_at : split_at + 1] = [f1, B.field.sub(e, f1)]
    assert len(family) == n
    family.sort(key=B.encode)
    return np.vstack(family)

# Polynomials over F_p as plain int lists, low degree first: the copy of
# F_p[x] that fields kept for its default moduli before poly became the one
# polynomial layer.


def _pf_trim(f) -> list[int]:
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def _pf_mul(p: int, f, g) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return _pf_trim(out)


def _pf_mod(p: int, f, g) -> list[int]:
    rem, g = _pf_trim(f), _pf_trim(g)
    inv_lead = pow(g[-1], p - 2, p)
    while len(rem) >= len(g):
        c = (rem[-1] * inv_lead) % p
        k = len(rem) - len(g)
        for j, b in enumerate(g):
            rem[k + j] = (rem[k + j] - c * b) % p
        rem = _pf_trim(rem)
    return rem


def _pf_gcd(p: int, f, g) -> list[int]:
    a, b = _pf_trim(f), _pf_trim(g)
    while b:
        a, b = b, _pf_mod(p, a, b)
    return a


def _pf_powmod(p: int, f, e: int, m) -> list[int]:
    result, base = [1], _pf_mod(p, f, m)
    while e > 0:
        if e & 1:
            result = _pf_mod(p, _pf_mul(p, result, base), m)
        base = _pf_mod(p, _pf_mul(p, base, base), m)
        e >>= 1
    return result


def _pf_sub(p: int, f, g) -> list[int]:
    n = max(len(f), len(g))
    f = list(f) + [0] * (n - len(f))
    g = list(g) + [0] * (n - len(g))
    return _pf_trim([(a - b) % p for a, b in zip(f, g)])


def list_is_irreducible(p: int, f) -> bool:
    """Rabin's test for a monic polynomial of degree >= 2 over F_p, on int
    lists (it reduces x itself modulo f, so it misjudges degree 1)."""
    f = _pf_trim(f)
    d = len(f) - 1
    if d < 1:
        return False
    x = [0, 1]
    if _pf_sub(p, _pf_powmod(p, x, p ** d, f), x):
        return False
    for r in range(2, d + 1):
        if d % r == 0 and all(r % s for s in range(2, r)):
            if len(_pf_gcd(p, _pf_sub(p, _pf_powmod(p, x, p ** (d // r), f), x), f)) > 1:
                return False
    return True


def list_default_modulus(p: int, d: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree d over F_p,
    lowest coefficient varying fastest."""
    if d == 1:
        return (0, 1)
    for tail in range(p ** d):
        f = [tail // p ** i % p for i in range(d)] + [1]
        if list_is_irreducible(p, f):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")


def module_diagnostics_loop(M) -> list[str]:
    """FiniteModule.diagnostics by the route it took before one contraction
    pair per generator: one linear combination of the action matrices and
    one matmul per basis pair (i, j)."""
    from topring import linalg

    F, A = M.algebra.field, M.algebra
    if M.dim == 0:
        return []
    out = []
    if not np.array_equal(linalg.lincomb(F, A.unit, M.action), np.eye(M.dim, dtype=np.int64)):
        out.append("unit does not act as identity")
    for i in range(A.dim):
        for j in range(A.dim):
            if not np.array_equal(linalg.lincomb(F, A.c[i, j], M.action),
                                  linalg.matmul(F, M.action[i], M.action[j])):
                out.append(f"action not multiplicative at (e_{i}, e_{j})")
                if len(out) > 16:
                    return out
    return out


def composition_length_layers(M) -> int:
    """modules.composition_length by the route it took before it read the
    layers off the Wedderburn blocks of A/rad A: each radical layer is built
    as a module, and its simple summands are counted from the Wedderburn
    blocks of its action image inside Mat_s(F)."""
    from topring import linalg
    from topring.algebras import matrix_algebra, subalgebra_structure
    from topring.modules import quotient_module, radical_series, submodule_module
    from topring.wedderburn import wedderburn

    if M.dim == 0:
        return 0
    F = M.algebra.field
    series = radical_series(M)
    total = 0
    for t in range(len(series) - 1):
        Sub, _ = submodule_module(M, series[t])
        inner = linalg.solve_left(F, series[t], series[t + 1])
        S, _, _ = quotient_module(Sub, inner)
        if S.dim == 0:
            continue
        eff = S.eff_basis()
        flat = linalg.row_space_basis(F, eff.reshape(S.algebra.dim, S.dim * S.dim))
        unit_flat = np.eye(S.dim, dtype=np.int64).reshape(-1)
        if not linalg.in_row_space(F, flat, unit_flat):
            flat = linalg.row_space_basis(F, np.vstack([flat, unit_flat[None, :]]))
        B, embed = subalgebra_structure(matrix_algebra(F, S.dim), flat, unit_flat)
        for f in wedderburn(B).factors:
            op = linalg.matvec(F, f.central_idempotent, embed).reshape(S.dim, S.dim)
            r = linalg.rank(F, op)
            if r % (f.n * f.m):
                raise AssertionError("semisimple block dimension mismatch")
            total += r // (f.n * f.m)
    return total


def list_mul_table(p: int, modulus) -> np.ndarray:
    """MUL table of F_p[x]/(modulus) on the base-p encoding, from int-list
    products reduced by int-list division."""
    d = len(modulus) - 1
    q = p ** d
    digits = [[a // p ** i % p for i in range(d)] for a in range(q)]
    table = np.zeros((q, q), dtype=np.int64)
    for a in range(q):
        for b in range(q):
            r = _pf_mod(p, _pf_mul(p, digits[a], digits[b]), modulus)
            table[a, b] = sum(c * p ** i for i, c in enumerate(r))
    return table


# The per-entry loops that built structured stacks before each became one
# product (mul_pairs, F.contract or an einsum over 0/1 index tensors).


def prime_restriction_2d(F: FiniteField, M) -> np.ndarray:
    """linalg.prime_restriction of one m x n matrix, as it read before it
    took stacks: row (i*d + t) holds the digits of w^t * M[i]."""
    M = np.asarray(M, dtype=np.int64)
    m, n = M.shape
    d = F.d
    if d == 1:
        return M.copy()
    omega_powers = np.array([F.p ** t for t in range(d)], dtype=np.int64)
    digits = F.DIGITS[F.MUL[M[:, :, None], omega_powers[None, None, :]]]
    return np.transpose(digits, (0, 2, 1, 3)).reshape(m * d, n * d)


def prime_restriction_per_matrix(F: FiniteField, M) -> np.ndarray:
    """A stack (..., m, n) restricted one matrix at a time."""
    M = np.asarray(M, dtype=np.int64)
    *lead, m, n = M.shape
    out = np.zeros((*lead, m * F.d, n * F.d), dtype=np.int64)
    for idx in np.ndindex(*lead):
        out[idx] = prime_restriction_2d(F, M[idx])
    return out


def matrix_unit_relation_failure(B, E):
    """The first (a, b, c, d), row-major, with E_ab * E_cd != delta_bc * E_ad,
    one product at a time; None when every relation holds."""
    n = E.shape[0]
    zero = np.zeros(B.dim, dtype=np.int64)
    for a, b, c, d in itertools.product(range(n), repeat=4):
        want = E[a, d] if b == c else zero
        if not np.array_equal(B.mul(E[a, b], E[c, d]), want):
            return (a, b, c, d)
    return None


def matrix_units_loop(B, family) -> np.ndarray:
    """wedderburn.matrix_units_from_family as it read before mul_pairs: E_ij
    is one product E_i0 * E_0j per pair, and the relations are checked one
    quadruple at a time."""
    from topring import linalg
    from topring.algebras import corner_basis

    F = B.field
    n = family.shape[0]
    E = np.zeros((n, n, B.dim), dtype=np.int64)
    E[0, 0] = family[0]
    for j in range(1, n):
        U = corner_basis(B, family[0], family[j])
        if U.shape[0] == 0:
            raise AssertionError("empty off-diagonal corner in a simple algebra")
        u = U[0]
        W = corner_basis(B, family[j], family[0])
        sol = linalg.solve_left(F, linalg.matmul(F, W, B.lmul_matrix(u)), family[0])
        if sol is None:
            raise AssertionError("no right quasi-inverse in the off-diagonal corner")
        v = linalg.matvec(F, sol, W)
        if not np.array_equal(B.mul(v, u), family[j]):
            raise AssertionError("v*u is not the expected diagonal idempotent")
        E[0, j] = u
        E[j, 0] = v
    for i in range(1, n):
        E[i, i] = family[i]
        for j in range(1, n):
            if i != j:
                E[i, j] = B.mul(E[i, 0], E[0, j])
    bad = matrix_unit_relation_failure(B, E)
    if bad is not None:
        raise AssertionError(f"matrix unit relation fails at {bad}")
    return E


def transport_action_loop(N, k: int) -> np.ndarray:
    """Action of Mat_k(R) on rows of length k over N, one block copy per
    basis element (a, b, t)."""
    R, m = N.algebra, N.dim
    eff = N.eff_basis()
    action = np.zeros((k * k * R.dim, k * m, k * m), dtype=np.int64)
    for a in range(k):
        for b in range(k):
            for t in range(R.dim):
                action[(a * k + b) * R.dim + t, a * m:(a + 1) * m, b * m:(b + 1) * m] = eff[t]
    return action


def corner_action_loop(base, window: int) -> np.ndarray:
    """Left action of the base on the free corner R^window, one diagonal
    block copy per basis element and index."""
    n = base.dim
    stored = np.zeros((n, window * n, window * n), dtype=np.int64)
    for t in range(n):
        colop = base.lmul_matrix(np.eye(n, dtype=np.int64)[t]).T
        for y in range(window):
            stored[t, y * n:(y + 1) * n, y * n:(y + 1) * n] = colop
    return stored


def contratensor_loop(N, x_count: int):
    """(relations, iso) of matrixtop.contratensor as it built them before
    the stacked prime restrictions: one restriction per prime basis element
    and one scalar prime-field lookup per relation entry."""
    from topring import linalg
    from topring.fields import GF

    R = N.algebra
    F = R.field
    p, d = F.p, F.d
    Fp = GF(p, 1)
    Np, Rp = N.dim * d, R.dim * d
    Cp = Rp * x_count
    eff = N.eff_basis()
    NR, RL = [], []
    for jr in range(R.dim):
        e = np.eye(R.dim, dtype=np.int64)[jr]
        for jt in range(d):
            NR.append(prime_restriction_2d(F, F.mul(p ** jt, eff[jr])))
            RL.append(prime_restriction_2d(F, F.mul(p ** jt, R.lmul_matrix(e))))
    T = Np * Cp
    rels = np.zeros((Np * Rp * Cp, T), dtype=np.int64) if T else np.zeros((0, 0), dtype=np.int64)
    r = 0
    for u in range(Np):
        for j in range(Rp):
            for w in range(Cp):
                x_slot, s = divmod(w, Rp)
                row = rels[r]
                for u2 in range(Np):
                    row[u2 * Cp + w] = Fp.ADD[row[u2 * Cp + w], NR[j][u, u2]]
                for s2 in range(Rp):
                    col = u * Cp + x_slot * Rp + s2
                    row[col] = Fp.ADD[row[col], Fp.NEG[RL[j][s, s2]]]
                r += 1
    iso = np.zeros((T, Np * x_count), dtype=np.int64)
    for u in range(Np):
        for w in range(Cp):
            x_slot, s = divmod(w, Rp)
            iso[u * Cp + w, x_slot * Np:(x_slot + 1) * Np] = NR[s][u]
    return rels, iso


def regular_actions_loop(A):
    """(right, left) regular action stacks, one multiplication matrix per
    basis element."""
    eye = np.eye(A.dim, dtype=np.int64)
    right = np.stack([A.rmul_matrix(eye[i]) for i in range(A.dim)])
    left = np.stack([A.lmul_matrix(eye[i]).T for i in range(A.dim)])
    return right, left


def level_action_loop(T, m: int, n: int) -> np.ndarray:
    """Action of R_m on R_n through the transition map, one right
    multiplication matrix per basis element of R_m."""
    C = T.composite(m, n)
    return np.stack([T.levels[n].rmul_matrix(C[i]) for i in range(T.levels[m].dim)])


def right_null_basis_loop(F: FiniteField, M) -> np.ndarray:
    """linalg.right_null_basis as one (free, pivot) entry at a time: row i
    is the free column f_i set to 1 and each pivot column set to -R[r, f_i]."""
    from topring import linalg

    M = np.asarray(M, dtype=np.int64)
    n = M.shape[1]
    R, pivots = linalg.rref(F, M)
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for r, pc in enumerate(pivots):
            basis[i, pc] = F.NEG[R[r, f]]
    return basis


def hom_space_loop(M, N) -> np.ndarray:
    """modules.hom_space with one Kronecker block G_M (x) I - I (x) G_N^T
    per algebra generator g, each from its own pair of contractions."""
    from topring import linalg

    F = M.algebra.field

    def kron(A, B):
        out = F.contract("ac,bd->abcd", A, B)
        return out.reshape(A.shape[0] * B.shape[0], A.shape[1] * B.shape[1])

    gens = M.algebra.generator_elements()
    if gens.shape[0] == 0:
        null = np.eye(M.dim * N.dim, dtype=np.int64)
    else:
        eyeM = np.eye(M.dim, dtype=np.int64)
        eyeN = np.eye(N.dim, dtype=np.int64)
        blocks = []
        for g in gens:
            GM, GN = M.eff(g), N.eff(g)
            blocks.append(F.ADD[kron(GM, eyeN), F.NEG[kron(eyeM, GN.T)]])
        null = right_null_basis_loop(F, np.vstack(blocks))
        null = linalg.row_space_basis(F, null)
    return null.reshape(null.shape[0], M.dim, N.dim)


def batch_power_loop(W, e: int, m: int) -> np.ndarray:
    """W^e mod m for a stack of integer matrices, e >= 1: e - 1 products
    by W, one matrix at a time, with Python integers."""
    out = []
    for M in np.asarray(W, dtype=np.int64):
        M = [[int(x) % m for x in row] for row in M]
        size = len(M)
        acc = M
        for _ in range(e - 1):
            acc = [[sum(acc[a][k] * M[k][b] for k in range(size)) % m for b in range(size)]
                   for a in range(size)]
        out.append(acc)
    return np.array(out, dtype=np.int64).reshape(np.shape(W))


def trace_gram_loop(mats, p: int, i: int) -> np.ndarray:
    """The i-th divided trace form of algebras._radical, one pair (s, t) at
    a time: tr((M_s M_t)^(p^i)) / p^i mod p, with the power taken by
    batch_power_loop mod p^(i+1)."""
    mats = np.asarray(mats, dtype=np.int64)
    m = mats.shape[0]
    modulus = p ** (i + 1)
    gram = np.zeros((m, m), dtype=np.int64)
    for s in range(m):
        for t in range(m):
            prod = (mats[s] @ mats[t]) % modulus
            tr = int(np.trace(batch_power_loop(prod[None], p ** i, modulus)[0])) % modulus
            if tr % p ** i:
                raise AssertionError("divided trace not divisible")
            gram[s, t] = tr // p ** i % p
    return gram


def greedy_chain_loop(Mod, depth: int, rng) -> tuple[list, list]:
    """endo._greedy_cyclic_chain before it row-reduced its candidates as one
    stack: one cyclic_submodule per candidate, keeping the first of the
    largest rank below the current member."""
    from topring import linalg
    from topring.modules import cyclic_submodule

    F = Mod.algebra.field

    def candidates(space):
        out = [space[i] for i in range(space.shape[0])]
        for _ in range(48):
            coeffs = np.array([rng.randrange(F.q) for _ in range(space.shape[0])],
                              dtype=np.int64)
            v = linalg.matvec(F, coeffs, space)
            if v.any():
                out.append(v)
        seen, uniq = set(), []
        for v in out:
            if v.tobytes() not in seen:
                seen.add(v.tobytes())
                uniq.append(v)
        return uniq

    gens, bases = [], []
    space = np.eye(Mod.dim, dtype=np.int64)
    limit = Mod.dim + 1
    while len(gens) <= depth + 1:
        best = None
        for v in candidates(space):
            b = cyclic_submodule(Mod, v)
            if 0 < b.shape[0] < limit and (best is None or b.shape[0] > best[1].shape[0]):
                best = (v, b)
        if best is None:
            break
        gens.append(best[0])
        bases.append(best[1])
        space, limit = best[1], best[1].shape[0]
    if bases:
        gens.append(np.zeros(Mod.dim, dtype=np.int64))
        bases.append(np.zeros((0, Mod.dim), dtype=np.int64))
    return gens, bases


def ideal_closure_loop(A, gens, side: str = "two"):
    """Smallest ideal of the given side containing the generator rows."""
    from topring import linalg
    from topring.algebras import SubspaceIdeal, _side_products

    F = A.field
    basis = linalg.row_space_basis(F, np.asarray(gens, dtype=np.int64).reshape(-1, A.dim))
    while True:
        if basis.shape[0] == 0:
            return SubspaceIdeal(A, basis, side=side)
        prods = _side_products(A, basis, side)[0].reshape(-1, A.dim)
        new = linalg.row_space_basis(F, np.vstack([basis, prods]))
        if new.shape[0] == basis.shape[0]:
            return SubspaceIdeal(A, new, side=side)
        basis = new


def mat_mul_loop(a, b):
    """matrixtop.mat_mul before it became one route: one contraction for a
    finite index set, and over the naturals a per-row loop that closes
    every uncertain left entry on its own, multiplies element by element
    and row-reduces its certificates again through windowed."""
    from topring.matrixtop import WindowError, _check_compatible, windowed

    def _zero_basis(dim):
        return np.zeros((0, dim), dtype=np.int64)

    def _right_closure(A, rows):
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, A.dim)
        if rows.shape[0] == 0:
            return _zero_basis(A.dim)
        return ideal_closure_loop(A, rows, side="right").basis

    _check_compatible(a, b)
    A = a.base
    F = A.field
    if a.y_kind == "finite":
        # ent[x, z] = sum_y a[x, y] * b[y, z] in the base ring
        left = F.contract("xyi,ijk->xyjk", a.entries, A.c)
        ent = F.contract("xyjk,yzj->xzk", left, b.entries)
        return windowed(A, "finite", ent, check=False)

    W = min(a.window, b.window)
    ent = np.zeros((W, W, A.dim), dtype=np.int64)
    tails: list[np.ndarray] = []
    precisions: list[np.ndarray] = []
    for x in range(W):
        prec_pieces: list[np.ndarray] = []
        if a.precisions[x].shape[0]:
            prec_pieces.append(a.precisions[x])
        if a.tails[x].shape[0]:
            # columns past the recorded ones meet unknown rows of b
            prec_pieces.append(a.tails[x])
        known_rows: list[tuple[np.ndarray, int]] = []
        for y in range(W):
            v = a.entries[x, y]
            if np.any(v):
                known_rows.append((v, y))
        for y in range(W, a.window):
            v = a.entries[x, y]
            if np.any(v):
                # known left entry, but the right factor has no row y
                prec_pieces.append(_right_closure(A, v))
        for c, v in a.extras[x]:
            if c < b.window:
                known_rows.append((v, c))
            else:
                prec_pieces.append(_right_closure(A, v))
        if known_rows:
            V = np.stack([v for v, _ in known_rows])
            ys = [y for _, y in known_rows]
            left = F.contract("yi,ijk->yjk", V, A.c)
            ent[x] = F.contract("yjk,yzj->zk", left, b.entries[ys, :W])
        for v, y in known_rows:
            if b.precisions[y].shape[0]:
                prec_pieces.append(A.mul_pairs(v[None, :], b.precisions[y])[0])
        prec = _right_closure(A, np.vstack(prec_pieces)) if prec_pieces else _zero_basis(A.dim)
        if prec.shape[0] == A.dim:
            raise WindowError(
                f"window too small to certify row {x} of the product")
        # the tail covers columns past the window: every uncertainty source
        # above, plus the known values the right factor holds out there
        tail_pieces: list[np.ndarray] = list(prec_pieces)
        for v, y in known_rows:
            for z in range(W, b.window):
                w = b.entries[y, z]
                if np.any(w):
                    tail_pieces.append(A.mul(v, w)[None, :])
            for _, w in b.extras[y]:
                tail_pieces.append(A.mul(v, w)[None, :])
            if b.tails[y].shape[0]:
                tail_pieces.append(A.mul_pairs(v[None, :], b.tails[y])[0])
        tail_rows = [p for p in tail_pieces if p.shape[0]]
        tail = _right_closure(A, np.vstack(tail_rows)) if tail_rows else _zero_basis(A.dim)
        precisions.append(prec)
        tails.append(tail)
    return windowed(A, "omega", ent, None, tails, precisions, check=False)


def windowed_ideal_failures_loop(m) -> list[str]:
    """The right-ideal test of matrixtop.windowed_diagnostics before it
    stacked every certificate: one SubspaceIdeal (one rref and one closure
    contraction) per nonzero tail and precision, row by row, tail first.
    The index set is the naturals; finite ones take no certificate."""
    from topring.algebras import AlgebraError, SubspaceIdeal

    problems = []
    for x in range(m.window):
        for name, basis in (("tail", m.tails[x]), ("precision", m.precisions[x])):
            if basis.shape[0] == 0:
                continue
            try:
                SubspaceIdeal(m.base, basis, side="right")
            except AlgebraError:
                problems.append(f"row {x}: {name} certificate is not a right ideal")
    return problems

def noniso_beam_search(family, depth: int):
    """modules.noniso_witness_search before it read composites off the powers
    of rad End of the family's sum: a beam of at most 256 states over the
    hom basis maps between members that are not invertible, deduplicated
    on (start, end, composite) and cut after sorting by the composite's
    bytes.  A witness it returns is a composite of elements of J; its None
    proves nothing once the cap cuts the beam."""
    from topring import linalg
    from topring.modules import NonisoWitnessChain, hom_space

    members = family.members
    if not members:
        return None
    F = members[0].algebra.field
    k = len(members)
    arrows = {}
    for a in range(k):
        for b in range(k):
            homs = hom_space(members[a], members[b])
            keep = [t for t in range(homs.shape[0])
                    if not (members[a].dim == members[b].dim
                            and linalg.is_invertible(F, homs[t]))]
            arrows[(a, b)] = homs[keep] if keep else homs[:0]
    # state: (start member, current member, composite matrix)
    states = [(a, a, np.eye(members[a].dim, dtype=np.int64)) for a in range(k)]
    paths = [[] for _ in states]
    for _ in range(depth):
        new_states, new_paths, seen = [], [], set()
        for s, (start, cur, comp) in enumerate(states):
            for b in range(k):
                for step in arrows[(cur, b)]:
                    nxt = linalg.matmul(F, comp, step)
                    if not nxt.any():
                        continue
                    key = (start, b, nxt.tobytes())
                    if key in seen:
                        continue
                    seen.add(key)
                    new_states.append((start, b, nxt))
                    new_paths.append(paths[s] + [(cur, b, step)])
        order = sorted(range(len(new_states)),
                       key=lambda i: (new_states[i][0], new_states[i][1], new_states[i][2].tobytes()))
        new_states = [new_states[i] for i in order[:256]]
        new_paths = [new_paths[i] for i in order[:256]]
        if not new_states:
            return None
        states, paths = new_states, new_paths
    comp, path = states[0][2], paths[0]
    row = next(r for r in range(comp.shape[0]) if comp[r].any())
    v = linalg.basis_vector(comp.shape[0], row)
    images = []
    x = v
    for (_, _, step) in path:
        x = linalg.matvec(F, x, step)
        images.append(x)
    return NonisoWitnessChain(
        labels=[family.labels[a] for (a, _, _) in path] + [family.labels[path[-1][1]]],
        steps=path, start_element=v, images=images)


def min_poly_loop(A, x) -> tuple[list[int], np.ndarray]:
    """(coefficients low degree first, powers x^0, ..., x^(d-1)) of the
    minimal polynomial of x: x^k is solved against the powers before it,
    one naive solve per power, until it lies in their span."""
    F = A.field
    rows = [np.asarray(A.unit, dtype=np.int64)]
    cur = rows[0]
    for k in range(1, A.dim + 1):
        cur = A.mul(cur, x)
        P = np.vstack(rows)
        sol = solve_left_rows(F, P, cur[None, :])
        if sol is not None:
            return [int(F.NEG[c]) for c in sol[0]] + [1], P
        rows.append(cur)
    raise AssertionError("no dependency among the first dim + 1 powers")


def lift_idempotent_loop(A, f, H) -> np.ndarray:
    """lifting.lift_idempotent before it became the one-row call of the
    stacked lift: Newton's step g -> 3g^2 - 2g^3 on one element, then the
    drift check and the corner check against corner_basis(A, f, f)."""
    from topring import linalg
    from topring.algebras import AlgebraError, InternalInconsistencyError, corner_basis

    F = A.field
    f = np.asarray(f, dtype=np.int64)
    defect = F.sub(A.mul(f, f), f)
    if not H.contains(defect):
        raise AlgebraError("f^2 - f is not in H")
    nu = H.nilpotency_index()
    g = f.copy()
    three = 3 % F.p
    two = 2 % F.p
    rounds = max(1, nu - 1).bit_length() + 1
    for _ in range(rounds):
        g2 = A.mul(g, g)
        if np.array_equal(g2, g):
            break
        g3 = A.mul(g2, g)
        g = F.sub(F.mul(three, g2), F.mul(two, g3))
    else:
        if not np.array_equal(A.mul(g, g), g):
            raise AlgebraError("idempotent lift did not converge; H is not nil")
    if not H.contains(F.sub(g, f)):
        raise InternalInconsistencyError("lifted idempotent drifted out of f + H")
    if g.any() and not linalg.in_row_space(F, corner_basis(A, f, f), g):
        raise InternalInconsistencyError("lifted idempotent escaped f*A*f")
    return g


def lift_family_loop(A, rows, H, side: str = "left"):
    """lifting.lift_orthogonal_family before it lifted a family as one
    stack: one lift_idempotent_loop per member, then one congruence check
    and one side-closure row reduction per member."""
    from topring import linalg
    from topring.algebras import AlgebraError, InternalInconsistencyError
    from topring.lifting import orthogonalize

    F = A.field
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, A.dim)
    k = rows.shape[0]
    in_H = H.member_rows(A.mul_pairs(rows, rows)).reshape(k, k)
    for z in range(k):
        for w in range(k):
            if z != w and not in_H[w, z]:
                raise AlgebraError(f"pairwise product ({w}, {z}) is not in H")
    total = F.fsum(rows, axis=0)
    if not H.contains(F.sub(total, A.unit)):
        raise AlgebraError("family sum is not in 1 + H")
    singles = np.vstack([lift_idempotent_loop(A, f, H) for f in rows]) if rows.shape[0] else rows
    fam = orthogonalize(A, singles, H, side=side)
    congruent = H.member_rows(F.sub(fam.rows, rows))
    for z in range(k):
        if not congruent[z]:
            raise InternalInconsistencyError(f"lifted member {z} is not congruent to its input")
        anchor = rows[z]
        span = A.rmul_matrix(anchor) if side == "left" else A.lmul_matrix(anchor)
        if fam.rows[z].any() and not linalg.in_row_space(F, linalg.row_space_basis(F, span), fam.rows[z]):
            raise InternalInconsistencyError(f"lifted member {z} violates the {side} closure choice")
    return fam

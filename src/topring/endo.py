"""Endomorphism towers, ring realizations, Bass colimits, split checks.

The tower layer looks at a growing direct sum M_1 + ... + M_n and the
endomorphism algebras E_n of the partial sums, in the apply-then-compose
convention, together with the annihilator right ideals of the leading
components, which form the neighborhood base of the finite topology.
Restriction to a partial sum compresses E_{n+1} onto E_n linearly but not
multiplicatively, so no ring-tower structure is claimed.

realize_ring_as_endo goes the other way: it rebuilds a ring R as the full
endomorphism algebra of the sum of the quotients by a listed base of right
ideals, with the isomorphism and the topology match verified exactly.

bass_flat computes the direct limit of R --a_1--> R --a_2--> ... (maps are
right multiplications, constant tail convention past the listed terms) and
certifies projectivity by a split surjection from R.  The section is the
Fitting projection: right multiplication by a high power of the tail term
splits R as kernel + image (Lam, First Course, section 19), so a failure to
split is an internal inconsistency, never a result.

split_omega_limit_check and sigma_coperfect_check handle the two decidable
splitting regimes and the descending-chain searches; perfectness_bridge
cross-checks their verdicts against the decomposition verdicts and treats
any violation of a proven implication as a fatal bug.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from topring import linalg
from topring.algebras import (
    AlgebraError,
    StructureAlgebra,
    SubspaceIdeal,
    hom_failures,
    matrix_algebra,
    subalgebra_closure,
    subalgebra_structure,
    truncated_poly_algebra,
)
from topring.modules import (
    FiniteModule,
    ModuleFamily,
    composition_length,
    cyclic_submodule,
    direct_sum,
    endo_algebra,
    PerfectDecompositionVerdict,
    left_regular_module,
    module_map_failures,
    perfect_decomposition_verdict,
    quotient_module,
    radical_of_module,
    right_regular_module,
)
from topring.wedderburn import is_semisimple


class InternalInconsistencyError(AlgebraError):
    """Two verdicts that provably must agree came out different.

    This is a bug in the computation, never a mathematical discovery, and
    the command line maps it to its own exit code so it cannot pass as a
    clean failure."""


# ---------------------------------------------------------------------------
# Endomorphism towers of truncated direct sums
# ---------------------------------------------------------------------------


@dataclass
class EndoTower:
    """Endomorphism algebras E_n of the partial sums M_1 + ... + M_n.

    levels[n] acts on sums[n] from the right (apply-then convention);
    annihilators[n][k] is the right ideal of maps killing the first k+1
    components, a decreasing filter base ending at zero; compressions[n]
    restricts level n+2 maps to the level n+1 partial sum, a linear
    unit-preserving map that is not multiplicative in general."""

    algebra: StructureAlgebra
    components: list[FiniteModule]
    sums: list[FiniteModule]
    levels: list[StructureAlgebra]
    homs: list[np.ndarray]
    sum_over_level: list[FiniteModule]
    annihilators: list[list[SubspaceIdeal]]
    compressions: list[np.ndarray]
    truncated: bool = False

    @property
    def depth(self) -> int:
        return len(self.levels)

    def annihilator_base(self, n: int) -> list[SubspaceIdeal]:
        """The listed neighborhood base of level n (0-indexed)."""
        return self.annihilators[n]

    def compress(self, n: int, x: np.ndarray) -> np.ndarray:
        """Coordinates of the restriction of a level n+1 map to level n."""
        return linalg.matvec(self.levels[n].field, np.asarray(x, dtype=np.int64),
                             self.compressions[n])


def endo_tower(A: StructureAlgebra, components: list[FiniteModule], N: int | None = None,
               truncated: bool = False) -> EndoTower:
    """Build the endomorphism tower of the partial sums of the components.

    Every component must be a module over A on the same side.  The
    annihilator ideals are validated as right ideals and as a decreasing
    chain whose last member, the annihilator of the full partial sum, is
    zero."""
    if N is None:
        N = len(components)
    if not 1 <= N <= len(components):
        raise AlgebraError(f"need 1 <= N <= {len(components)}, got {N}")
    side = components[0].side
    for m in components[:N]:
        if m.algebra != A:
            raise AlgebraError("components must be modules over the given algebra")
        if m.side != side:
            raise AlgebraError("components must share the side")
    F = A.field
    sums, levels, homs_list, modules_over, ann_all = [], [], [], [], []
    for n in range(N):
        S, _, _ = direct_sum(components[: n + 1])
        E, homs, S_over_E = endo_algebra(S)
        k = homs.shape[0]
        anns = []
        lead = 0
        for j in range(n + 1):
            lead += components[j].dim
            # maps vanishing on the first j+1 components: leading rows zero
            head = homs[:, :lead, :].reshape(k, lead * S.dim)
            basis = linalg.row_space_basis(F, linalg.left_null_basis(F, head))
            anns.append(SubspaceIdeal(E, basis, side="right", check=True))
        for j in range(len(anns) - 1):
            if not anns[j].contains_ideal(anns[j + 1]):
                raise InternalInconsistencyError(
                    f"annihilator base is not a decreasing chain at level {n}")
        if not anns[-1].is_zero():
            raise InternalInconsistencyError(
                f"annihilator of the full partial sum is nonzero at level {n}")
        sums.append(S)
        levels.append(E)
        homs_list.append(homs)
        modules_over.append(S_over_E)
        ann_all.append(anns)
    compressions = []
    for n in range(N - 1):
        small = sums[n]
        big_homs = homs_list[n + 1]
        small_flat = homs_list[n].reshape(homs_list[n].shape[0], -1)
        corners = big_homs[:, : small.dim, : small.dim].reshape(big_homs.shape[0], -1)
        rows = linalg.solve_left(F, small_flat, corners)
        if rows is None:
            raise InternalInconsistencyError(
                f"restriction of a level {n + 1} endomorphism is not one of level {n}")
        if not np.array_equal(linalg.matvec(F, levels[n + 1].unit, rows), levels[n].unit):
            raise InternalInconsistencyError(f"compression at level {n} loses the unit")
        compressions.append(rows)
    return EndoTower(
        algebra=A,
        components=list(components[:N]),
        sums=sums,
        levels=levels,
        homs=homs_list,
        sum_over_level=modules_over,
        annihilators=ann_all,
        compressions=compressions,
        truncated=truncated,
    )


# ---------------------------------------------------------------------------
# Realizing a ring as a full endomorphism ring
# ---------------------------------------------------------------------------


@dataclass
class RealizedEndo:
    """R realized as End(M) over the algebra generated by coset maps.

    M is the direct sum of the quotients R/I over the listed right ideal
    base; operators is the algebra generated by the block projections and
    every well-defined map  r + J |-> s*r + I; to_endo/from_endo convert
    between R coordinates and endomorphism coordinates and are verified as
    mutually inverse ring isomorphisms.  generator annihilators match the
    listed ideals exactly, so the finite topology agrees with the base."""

    ring: StructureAlgebra
    base: list[SubspaceIdeal]
    operators: StructureAlgebra
    module: FiniteModule
    endo: StructureAlgebra
    homs: np.ndarray
    to_endo: np.ndarray
    from_endo: np.ndarray


def realize_ring_as_endo(R: StructureAlgebra, base: list[SubspaceIdeal]) -> RealizedEndo:
    """Rebuild R as the endomorphism ring of  M = sum of R/I  over the base.

    The base must consist of right (or two-sided) ideals of R and contain
    the zero ideal; right multiplications then exhaust the commutant of
    the coset-map algebra, and the isomorphism is verified on every basis
    pair, which by bilinearity covers every element pair of any ring."""
    F = R.field
    if not base:
        raise AlgebraError("the ideal base must be nonempty")
    seen = set()
    for I in base:
        if I.algebra != R:
            raise AlgebraError("base ideals must live in the given ring")
        if I.side not in ("right", "two"):
            raise AlgebraError("base ideals must be right ideals")
        key = I.basis.tobytes()
        if key in seen:
            raise AlgebraError("base ideals must be distinct")
        seen.add(key)
    if not any(I.is_zero() for I in base):
        raise AlgebraError("the ideal base must contain the zero ideal")

    RR = right_regular_module(R)
    quotients = [quotient_module(RR, I.basis) for I in base]
    dims = [Q.dim for Q, _, _ in quotients]
    offsets = np.concatenate([[0], np.cumsum(dims)])
    V = int(offsets[-1])

    def embed_block(B: np.ndarray, row_idx: int, col_idx: int) -> np.ndarray:
        out = np.zeros((V, V), dtype=np.int64)
        out[offsets[row_idx]: offsets[row_idx + 1], offsets[col_idx]: offsets[col_idx + 1]] = B
        return out

    gens = [np.eye(V, dtype=np.int64)]
    for idx in range(len(base)):
        gens.append(embed_block(np.eye(dims[idx], dtype=np.int64), idx, idx))
    rmuls = np.stack([R.rmul_matrix(linalg.basis_vector(R.dim, t)) for t in range(R.dim)])
    for i, I in enumerate(base):
        _, proj_i, _ = quotients[i]
        for j, J in enumerate(base):
            _, _, sect_j = quotients[j]
            if J.dim == 0:
                svalid = np.eye(R.dim, dtype=np.int64)
            else:
                cols = [linalg.matmul(F, R.rmul_matrix(h), proj_i) for h in J.basis]
                svalid = linalg.left_null_basis(F, np.hstack(cols))
            for s in svalid:
                L = R.lmul_matrix(s)
                block = linalg.matmul(F, linalg.matmul(F, sect_j, L), proj_i)
                gens.append(embed_block(block, j, i))

    MatV = matrix_algebra(F, V)
    flat_gens = np.stack([g.reshape(-1) for g in gens])
    basis = subalgebra_closure(MatV, flat_gens)
    A_ops, _ = subalgebra_structure(MatV, basis, np.eye(V, dtype=np.int64).reshape(-1))
    action = basis.reshape(basis.shape[0], V, V)
    M = FiniteModule(A_ops, action, side="right", check=True)

    E, homs, _ = endo_algebra(M)
    if E.dim != R.dim:
        raise AlgebraError(
            f"endomorphism ring has dimension {E.dim}, the ring has {R.dim}; "
            "the base does not separate enough maps")
    flat_homs = homs.reshape(E.dim, V * V)

    rho_ops = []
    for t in range(R.dim):
        op = np.zeros((V, V), dtype=np.int64)
        for idx in range(len(base)):
            _, proj, sect = quotients[idx]
            block = linalg.matmul(F, linalg.matmul(F, sect, rmuls[t]), proj)
            op = linalg.add(F, op, embed_block(block, idx, idx))
        rho_ops.append(op)
    to_endo = linalg.solve_left(F, flat_homs, np.stack(rho_ops).reshape(R.dim, V * V))
    if to_endo is None:
        raise InternalInconsistencyError(
            "a right multiplication is not an endomorphism of the realized module")
    if linalg.rank(F, to_endo) != R.dim:
        raise AlgebraError("right multiplications are not linearly independent; "
                           "the base contains too little")
    from_endo = linalg.inverse(F, to_endo)
    if from_endo is None:
        raise AlgebraError("the realization map is not invertible")
    if not np.array_equal(linalg.matvec(F, R.unit, to_endo), E.unit):
        raise InternalInconsistencyError("the realization map loses the unit")

    bad = hom_failures(R, E, to_endo)
    if bad.size:
        i, j = bad[0]
        raise InternalInconsistencyError(
            f"realization is not multiplicative at basis pair ({i}, {j})")

    for idx, J in enumerate(base):
        _, proj, _ = quotients[idx]
        gen = np.zeros(V, dtype=np.int64)
        gen[offsets[idx]: offsets[idx + 1]] = linalg.matvec(F, R.unit, proj)
        K = np.stack([linalg.matvec(F, gen, rho_ops[t]) for t in range(R.dim)])
        ann = linalg.row_space_basis(F, linalg.left_null_basis(F, K))
        if not np.array_equal(ann, J.basis):
            raise InternalInconsistencyError(
                f"annihilator of the generator of summand {idx} differs from its ideal")

    return RealizedEndo(
        ring=R,
        base=list(base),
        operators=A_ops,
        module=M,
        endo=E,
        homs=homs,
        to_endo=to_endo,
        from_endo=from_endo,
    )


# ---------------------------------------------------------------------------
# Bass colimits along right multiplications
# ---------------------------------------------------------------------------


@dataclass
class BassFlatDatum:
    """Direct limit of R --a_1--> R --a_2--> ... with its split certificate.

    The listed sequence continues with its last term (constant tail).  The
    image chain R*a_1*...*a_n has monotone cardinalities and stabilizes at
    the 1-based index recorded here; the colimit only depends on the tail
    and equals R modulo the elements killed by a high power a^N of the tail
    term.  verdict is always PROJECTIVE over a finite ring, witnessed by a
    module-map section with  section @ projection = identity  exactly: the
    Fitting projection of R onto R*a^N along the kernel, so the section's
    rows lie in R*a^N."""

    ring: StructureAlgebra
    sequence: np.ndarray
    image_ranks: list[int]
    stabilization_index: int
    kernel_basis: np.ndarray
    colimit: FiniteModule
    projection: np.ndarray
    verdict: str
    section: np.ndarray
    note: str = ""


def sample_sequence(R: StructureAlgebra, length: int, seed: int) -> np.ndarray:
    """Seeded uniform sequence of ring elements, one row per term."""
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = random.Random(seed)
    return np.array([[rng.randrange(R.field.q) for _ in range(R.dim)]
                     for _ in range(length)], dtype=np.int64)


def bass_flat(R: StructureAlgebra, sequence: np.ndarray) -> BassFlatDatum:
    """Colimit of the free rank-one modules along right multiplications."""
    F = R.field
    seq = np.asarray(sequence, dtype=np.int64).reshape(-1, R.dim)
    d = seq.shape[0]
    if d < 1:
        raise AlgebraError("the sequence must have at least one term")
    if seq.min() < 0 or seq.max() >= F.q:
        raise AlgebraError("sequence coordinates out of field range")

    ext = np.vstack([seq] + [seq[-1][None, :]] * (R.dim + 1))
    prefix = [np.eye(R.dim, dtype=np.int64)]
    for a in ext:
        prefix.append(linalg.matmul(F, prefix[-1], R.rmul_matrix(a)))
    # rank of each prefix product, all from one stacked row reduction
    ranks = [int(r) for r in linalg.rref(F, np.stack(prefix[1:]))[1]]
    for n in range(len(ranks) - 1):
        if ranks[n] < ranks[n + 1]:
            raise InternalInconsistencyError("image chain cardinalities increased")
    s = len(ranks)
    while s > 1 and ranks[s - 2] == ranks[-1]:
        s -= 1
    note = "" if s <= d else "stabilized only in the constant-tail extension"

    # kernel of the canonical map onto the colimit: elements killed by a
    # stable power of the tail term (the colimit depends only on the tail);
    # N = 2^t >= dim R, and ker/im of P^N are the same for every such N
    Pk = R.rmul_matrix(ext[-1])
    for _ in range((R.dim - 1).bit_length()):
        Pk = linalg.matmul(F, Pk, Pk)
    kernel = linalg.row_space_basis(F, linalg.left_null_basis(F, Pk))
    image = linalg.row_space_basis(F, Pk)
    LR = left_regular_module(R)
    B, proj, lift = quotient_module(LR, kernel)

    # Fitting: R = ker + im of P^N as left modules; the section sends a
    # class to its component in im, read off coordinates in [kernel; image]
    coords = linalg.inverse(F, np.vstack([kernel, image]))
    if coords is None:
        raise InternalInconsistencyError(
            "Bass colimit over a finite ring failed to split off the free cover; "
            f"ranks={ranks[:d]}, kernel dim {kernel.shape[0]}")
    onto_image = linalg.matmul(F, coords[:, kernel.shape[0]:], image)
    section = linalg.matmul(F, lift, onto_image)
    if not np.array_equal(linalg.matmul(F, section, proj), np.eye(B.dim, dtype=np.int64)):
        raise InternalInconsistencyError("split section failed verification")
    if module_map_failures(B, LR, section).size:
        raise InternalInconsistencyError("split section is not a module map")

    return BassFlatDatum(
        ring=R,
        sequence=seq,
        image_ranks=ranks[:d],
        stabilization_index=s,
        kernel_basis=kernel,
        colimit=B,
        projection=proj,
        verdict="PROJECTIVE",
        section=section,
        note=note,
    )


# ---------------------------------------------------------------------------
# Split checks for countable direct systems
# ---------------------------------------------------------------------------


@dataclass
class OmegaSystem:
    """Modules N_1..N_d with connecting homomorphisms N_n -> N_{n+1}.

    ground is "finite" for a plain system over a finite algebra and
    "polynomial_adic" for the truncated-polynomial chain family, where the
    listed levels stand for the full growing family."""

    modules: list[FiniteModule]
    maps: list[np.ndarray]
    ground: str = "finite"


def omega_system(modules: list[FiniteModule], maps: list[np.ndarray],
                 ground: str = "finite") -> OmegaSystem:
    """Validated direct system; every connecting map must be a module map."""
    if ground not in ("finite", "polynomial_adic"):
        raise AlgebraError(f"unknown ground tag {ground!r}")
    if len(modules) < 1:
        raise AlgebraError("a system needs at least one module")
    if len(maps) != len(modules) - 1:
        raise AlgebraError(f"need {len(modules) - 1} maps, got {len(maps)}")
    A = modules[0].algebra
    side = modules[0].side
    for m in modules:
        if m.algebra != A or m.side != side:
            raise AlgebraError("system modules must share algebra and side")
    clean_maps = []
    for n, T in enumerate(maps):
        T = np.asarray(T, dtype=np.int64)
        if T.shape != (modules[n].dim, modules[n + 1].dim):
            raise AlgebraError(f"map {n} has shape {T.shape}, expected "
                               f"{(modules[n].dim, modules[n + 1].dim)}")
        if module_map_failures(modules[n], modules[n + 1], T).size:
            raise AlgebraError(f"map {n} is not a module homomorphism")
        clean_maps.append(T)
    return OmegaSystem(modules=list(modules), maps=clean_maps, ground=ground)


def polynomial_adic_system(F, depth: int) -> OmegaSystem:
    """The chain family F[x]/(x^n), n = 1..depth, with maps 1 |-> x.

    All levels are modules over the deepest truncation, which kills every
    level, so one finite algebra carries the whole listed family."""
    if depth < 2:
        raise AlgebraError("the chain family needs depth >= 2")
    R = truncated_poly_algebra(F, depth)
    modules = []
    for n in range(1, depth + 1):
        # x^j shifts coordinate i to i + j
        action = np.stack([np.eye(n, k=j, dtype=np.int64) for j in range(depth)])
        modules.append(FiniteModule(R, action, side="right", check=False))
    maps = []
    for n in range(1, depth):
        T = np.zeros((n, n + 1), dtype=np.int64)
        for i in range(n):
            T[i, i + 1] = 1
        maps.append(T)
    return omega_system(modules, maps, ground="polynomial_adic")


@dataclass
class HeightObstruction:
    """Why no section exists: the colimit socle generator is divisible by
    x to every listed height, while everything in the truncated direct sum
    dies under x at the recorded bound."""

    socle_heights: list[int]
    sum_height_bound: int
    levels: int


@dataclass
class SplitVerdict:
    kind: str  # "SPLIT" | "NOT_SPLIT" | "UNKNOWN"
    depth: int
    slot: int | None = None
    section: np.ndarray | None = None
    obstruction: HeightObstruction | None = None
    detail: str = ""


def _suffix_composites(S: OmegaSystem) -> list[np.ndarray]:
    """composites[i] maps N_{i+1} into the last module (identity at the end)."""
    F = S.modules[0].algebra.field
    d = len(S.modules)
    comps: list[np.ndarray] = [np.eye(S.modules[-1].dim, dtype=np.int64)]
    for n in range(d - 2, -1, -1):
        comps.append(linalg.matmul(F, S.maps[n], comps[-1]))
    comps.reverse()
    return comps


def _x_height(F, X: np.ndarray, v: np.ndarray) -> int:
    """Largest k with v in the row space of X^k (the divisibility height)."""
    h = 0
    P = np.array(X, dtype=np.int64)
    while True:
        if not linalg.in_row_space(F, P, v):
            return h
        h += 1
        P = linalg.matmul(F, P, X)
        if not P.any():
            return h  # X is nilpotent; callers never pass v == 0, whose height is infinite


def split_omega_limit_check(S: OmegaSystem) -> SplitVerdict:
    """SPLIT with a verified section, NOT_SPLIT with a divisibility-height
    obstruction for the chain family, or UNKNOWN at this truncation.

    A system whose connecting maps are eventually invertible (constant
    tail convention) has colimit the last module; the section embeds it at
    the first slot of the invertible stretch, undoing the composite.  For
    the chain family the socle generator of the colimit acquires strictly
    growing divisibility heights while the truncated sum is killed by a
    fixed power of x, and both facts are recomputed here."""
    F = S.modules[0].algebra.field
    d = len(S.modules)
    comps = _suffix_composites(S)

    invertible = [T.shape[0] == T.shape[1] and linalg.is_invertible(F, T) for T in S.maps]
    j = d - 1
    while j >= 1 and invertible[j - 1]:
        j -= 1
    eventually_iso = d == 1 or (invertible and invertible[-1] and j < d - 1)
    if eventually_iso:
        slot = j  # 0-based first slot of the invertible stretch
        inv = linalg.inverse(F, comps[slot])
        if inv is None:
            raise InternalInconsistencyError("invertible stretch has a singular composite")
        total = sum(m.dim for m in S.modules)
        off = sum(m.dim for m in S.modules[:slot])
        section = np.zeros((S.modules[-1].dim, total), dtype=np.int64)
        section[:, off: off + S.modules[slot].dim] = inv
        stacked = np.vstack(comps)
        if not np.array_equal(linalg.matmul(F, section, stacked),
                              np.eye(S.modules[-1].dim, dtype=np.int64)):
            raise InternalInconsistencyError("split section failed verification")
        Sum, _, _ = direct_sum(S.modules)
        if module_map_failures(S.modules[-1], Sum, section).size:
            raise InternalInconsistencyError("split section is not a module map")
        return SplitVerdict(kind="SPLIT", depth=d, slot=slot + 1, section=section,
                            detail=f"section embeds the colimit at slot {slot + 1}")

    if S.ground == "polynomial_adic":
        dims = [m.dim for m in S.modules]
        if dims != list(range(1, d + 1)):
            raise AlgebraError("chain family levels must have dimensions 1..depth")
        x = linalg.basis_vector(S.modules[0].algebra.dim, 1)
        heights = []
        for m in S.modules:
            X = m.eff(x)
            gen = linalg.basis_vector(m.dim, m.dim - 1)
            heights.append(_x_height(F, X, gen))
        if heights != list(range(d)):
            raise InternalInconsistencyError(
                f"socle generator heights {heights} are not strictly growing")
        Sum, _, _ = direct_sum(S.modules)
        XS = Sum.eff(x)
        P = np.eye(Sum.dim, dtype=np.int64)
        for _ in range(d):
            P = linalg.matmul(F, P, XS)
        if P.any():
            raise InternalInconsistencyError("truncated sum is not killed by x^depth")
        obstruction = HeightObstruction(socle_heights=heights,
                                        sum_height_bound=d - 1, levels=d)
        return SplitVerdict(
            kind="NOT_SPLIT", depth=d, obstruction=obstruction,
            detail=(f"a section would need the socle generator x-divisible beyond "
                    f"height {d - 1}, the bound on the truncated sum"))

    return SplitVerdict(kind="UNKNOWN", depth=d,
                        detail="connecting maps are not eventually invertible "
                               "at this truncation")


# ---------------------------------------------------------------------------
# Descending chains of cyclic submodules over the endomorphism ring
# ---------------------------------------------------------------------------


@dataclass
class SigmaCoperfectResult:
    """certificate: every strictly descending chain of cyclic submodules
    over the endomorphism ring is bounded (by the regular composition
    length, by exhaustion, or by an exhausted search); witness: a chain of
    the requested depth, re-verified after one truncation refinement when
    one is supplied."""

    kind: str  # "certificate" | "witness"
    depth: int
    copies: int
    max_length: int
    evidence: str  # "bound" | "exhaustive" | "search" | "chain"
    bound: int | None = None
    generators: np.ndarray | None = None
    bases: list[np.ndarray] | None = None
    refinement_verified: bool = False
    detail: str = ""


def _greedy_cyclic_chain(Mod: FiniteModule, depth: int, rng: random.Random):
    """Greedy strictly descending chain of cyclic submodules, ending at 0.

    Each step picks, among the current member's basis rows and seeded
    random combinations, the generator of the largest cyclic submodule
    strictly below the current member."""
    F = Mod.algebra.field

    def candidates(space: np.ndarray) -> list[np.ndarray]:
        out = [space[i] for i in range(space.shape[0])]
        for _ in range(48):
            coeffs = np.array([rng.randrange(F.q) for _ in range(space.shape[0])],
                              dtype=np.int64)
            v = linalg.matvec(F, coeffs, space)
            if v.any():
                out.append(v)
        seen, uniq = set(), []
        for v in out:
            key = v.tobytes()
            if key not in seen:
                seen.add(key)
                uniq.append(v)
        return uniq

    gens: list[np.ndarray] = []
    bases: list[np.ndarray] = []
    space = np.eye(Mod.dim, dtype=np.int64)
    limit = Mod.dim + 1
    while len(gens) <= depth + 1:
        best = None
        for v in candidates(space):
            b = cyclic_submodule(Mod, v)
            if b.shape[0] == 0 or b.shape[0] >= limit:
                continue
            if best is None or b.shape[0] > best[1].shape[0]:
                best = (v, b)
        if best is None:
            break
        gens.append(best[0])
        bases.append(best[1])
        space = best[1]
        limit = best[1].shape[0]
    if bases:
        gens.append(np.zeros(Mod.dim, dtype=np.int64))
        bases.append(np.zeros((0, Mod.dim), dtype=np.int64))
    return gens, bases


def _verify_chain(Mod: FiniteModule, gens, bases) -> None:
    F = Mod.algebra.field
    for t in range(len(bases)):
        expected = cyclic_submodule(Mod, gens[t])
        if not np.array_equal(expected, bases[t]):
            raise InternalInconsistencyError(f"chain member {t} is not the cyclic "
                                             "submodule of its generator")
        if t > 0:
            if bases[t].shape[0] >= bases[t - 1].shape[0]:
                raise InternalInconsistencyError(f"chain does not descend at step {t}")
            if not linalg.in_row_space(F, bases[t - 1], bases[t]):
                raise InternalInconsistencyError(f"chain member {t} escapes its "
                                                 "predecessor")


def _resolve_sigma_target(target):
    """(module over its endomorphism ring, truncated flag, label)."""
    if isinstance(target, EndoTower):
        return target.sum_over_level[-1], target.truncated, "endo tower top level"
    if isinstance(target, ModuleFamily):
        M, _, _ = direct_sum(target.members)
        _, _, ME = endo_algebra(M)
        return ME, target.truncated, "family direct sum"
    if isinstance(target, FiniteModule):
        _, _, ME = endo_algebra(target)
        return ME, False, "module"
    raise AlgebraError(f"cannot run the chain search on {type(target).__name__}")


def sigma_coperfect_check(target, depth: int = 6, seed: int = 0,
                          refinement=None, embed: np.ndarray | None = None) -> SigmaCoperfectResult:
    """Certificate or witness for descending cyclic chains over End.

    target may be a module, a module family, or an endomorphism tower; the
    chains live in copies of the module viewed over its endomorphism ring.
    A chain of length >= depth in a truncated target is a witness and must
    re-verify inside the refinement when one is given (same kind of target,
    one more component; embed maps old coordinates into new ones and
    defaults to the leading-block inclusion)."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    ME, truncated, label = _resolve_sigma_target(target)
    E = ME.algebra
    rng = random.Random(seed)

    bound = None
    if E.dim <= 32:
        bound = composition_length(right_regular_module(E))

    if not truncated:
        gens, bases = _greedy_cyclic_chain(ME, depth, rng)
        _verify_chain(ME, gens, bases)
        found = max(len(bases) - 1, 0)
        if bound is not None:
            return SigmaCoperfectResult(
                kind="certificate", depth=depth, copies=1,
                max_length=min(found, bound) if found else found,
                evidence="bound", bound=bound,
                generators=np.stack(gens) if gens else None,
                bases=bases or None,
                detail=f"chains over End({label}) cannot exceed its regular "
                       f"composition length {bound}")
        return SigmaCoperfectResult(
            kind="certificate", depth=depth, copies=1, max_length=found,
            evidence="search",
            generators=np.stack(gens) if gens else None, bases=bases or None,
            detail="greedy search exhausted without reaching the depth")

    best = None
    for k in range(1, min(3, depth) + 1):
        Mod = ME if k == 1 else direct_sum([ME] * k)[0]
        gens, bases = _greedy_cyclic_chain(Mod, depth, rng)
        _verify_chain(Mod, gens, bases)
        length = max(len(bases) - 1, 0)
        if best is None or length > best[2]:
            best = (k, (gens, bases), length)
        if length >= depth:
            break
    k, (gens, bases), length = best
    if length < depth:
        return SigmaCoperfectResult(
            kind="certificate", depth=depth, copies=k, max_length=length,
            evidence="search", bound=bound,
            generators=np.stack(gens) if gens else None, bases=bases or None,
            detail=f"no chain of length {depth} found in up to {k} copies")

    refinement_verified = False
    if refinement is not None:
        ME2, _, _ = _resolve_sigma_target(refinement)
        if embed is None:
            dim_small = ME.dim
            embed = np.zeros((dim_small, ME2.dim), dtype=np.int64)
            embed[:, :dim_small] = np.eye(dim_small, dtype=np.int64)
        F = E.field
        Mod2 = ME2 if k == 1 else direct_sum([ME2] * k)[0]
        big = np.zeros((ME.dim * k, ME2.dim * k), dtype=np.int64)
        for z in range(k):
            big[z * ME.dim: (z + 1) * ME.dim, z * ME2.dim: (z + 1) * ME2.dim] = embed
        gens2 = [linalg.matvec(F, g, big) for g in gens]
        bases2 = [cyclic_submodule(Mod2, g) for g in gens2]
        for t in range(1, len(bases2)):
            if bases2[t].shape[0] >= bases2[t - 1].shape[0]:
                raise InternalInconsistencyError(
                    f"witness chain collapsed at step {t} under refinement")
            if not linalg.in_row_space(F, bases2[t - 1], bases2[t]):
                raise InternalInconsistencyError(
                    f"witness chain member {t} escapes under refinement")
        refinement_verified = True

    return SigmaCoperfectResult(
        kind="witness", depth=depth, copies=k, max_length=length,
        evidence="chain", bound=bound,
        generators=np.stack(gens), bases=bases,
        refinement_verified=refinement_verified,
        detail=f"strictly descending chain of length {length} in {k} copies")


# ---------------------------------------------------------------------------
# Consistency bridge between the decomposition and chain verdicts
# ---------------------------------------------------------------------------


@dataclass
class BridgeReport:
    """Cross-check of independently computed verdicts on one target.

    The implications checked are one-directional: a perfect decomposition
    forces a chain certificate, and a non-perfect countably generated
    target forces a chain witness.  The reverse questions are left open on
    purpose and never decided here.  perfect and sigma carry both verdicts,
    so no caller needs to run either pipeline again."""

    perfect: PerfectDecompositionVerdict
    sigma: SigmaCoperfectResult
    consistent: bool
    depth: int
    module_semisimple: bool | None = None
    tower_levels_semisimple: list[bool] | None = None
    notes: list[str] | None = None


def perfectness_bridge(target, depth: int = 6, seed: int = 0,
                       tower: EndoTower | None = None,
                       refinement=None) -> BridgeReport:
    """Run both verdict pipelines and fail loudly when they disagree.

    Raises InternalInconsistencyError on any violated implication; the
    command line maps that to the dedicated inconsistency exit code."""
    pv = perfect_decomposition_verdict(target, depth=depth, seed=seed)
    sg = sigma_coperfect_check(target, depth=depth, seed=seed, refinement=refinement)
    notes = []

    if pv.verdict == "PERFECT" and sg.kind != "certificate":
        raise InternalInconsistencyError(
            "perfect decomposition verdict with a descending-chain witness: "
            f"depth {depth}, chain length {sg.max_length}")
    if pv.verdict == "NOT_PERFECT" and sg.kind != "witness":
        raise InternalInconsistencyError(
            "non-perfect verdict without a descending-chain witness at depth "
            f"{depth} (search evidence: {sg.evidence})")
    if pv.verdict == "UNKNOWN":
        notes.append("decomposition verdict unknown at this depth; no implication checked")

    module_semisimple = None
    tower_flags = None
    if isinstance(target, FiniteModule):
        module_semisimple = radical_of_module(target).shape[0] == 0
    elif isinstance(target, ModuleFamily) and target.members:
        Msum, _, _ = direct_sum(target.members)
        module_semisimple = radical_of_module(Msum).shape[0] == 0
    if tower is not None:
        tower_flags = [is_semisimple(E) for E in tower.levels]
        if module_semisimple:
            for n, flag in enumerate(tower_flags):
                if not flag:
                    raise InternalInconsistencyError(
                        f"semisimple target with a non-semisimple endomorphism "
                        f"level {n + 1}")
    return BridgeReport(
        perfect=pv,
        sigma=sg,
        consistent=True,
        depth=depth,
        module_semisimple=module_semisimple,
        tower_levels_semisimple=tower_flags,
        notes=notes or None,
    )

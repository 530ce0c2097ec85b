"""Towers of finite quotient rings standing for complete topological rings.

A tower holds levels R_0, ..., R_N and surjective unital transition maps
R_{n+1} -> R_n whose kernels are two-sided; it represents the limit ring
with the two-sided-ideal base {ker(R -> R_n)}.  All verdict operations
carry the truncation depth they were established at.

The levelwise Jacobson radicals form an ideal tower (transition images
match exactly); its per-level nilpotency indices certify topological
T-nilpotency, lifting seeded random zero-convergent families samples
strong closedness, and the quotient tower is classified semisimple with
a factor multiset matched across levels by central idempotent tracking.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from topring import linalg
from topring.algebras import (
    AlgebraError,
    InternalInconsistencyError,
    StructureAlgebra,
    SubspaceIdeal,
    hom_failures,
    product_algebra,
    quotient,
    radical,
    radical_bruteforce,
    truncated_poly_algebra,
)
from topring.modules import FiniteModule, radical_of_module
from topring.wedderburn import wedderburn


class TowerError(AlgebraError):
    pass


# ---------------------------------------------------------------------------
# Towers
# ---------------------------------------------------------------------------


@dataclass
class RingTower:
    """Levels with surjective unital transitions T[n]: levels[n+1] -> levels[n].

    intent is "truncation" (finite stage of an infinite tower) or "exact"
    (the top level already is the ring, transitions eventually bijective).
    """

    levels: list[StructureAlgebra]
    transitions: list[np.ndarray]
    intent: str = "truncation"

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def composite(self, m: int, n: int) -> np.ndarray:
        """Matrix of the map level m -> level n (m >= n), identity at m == n."""
        if not 0 <= n <= m <= self.depth:
            raise ValueError(f"bad level pair ({m}, {n})")
        C = np.eye(self.levels[m].dim, dtype=np.int64)
        F = self.levels[0].field
        for t in range(m - 1, n - 1, -1):
            C = linalg.matmul(F, C, self.transitions[t])
        return C

    def kernel_basis(self, m: int, n: int) -> np.ndarray:
        """Canonical basis of ker(level m -> level n)."""
        return linalg.row_space_basis(
            self.levels[0].field,
            linalg.left_null_basis(self.levels[0].field, self.composite(m, n)),
        )


def hom_diagnostics(A: StructureAlgebra, B: StructureAlgebra, T: np.ndarray) -> list[str]:
    """Why x -> x @ T fails to be a surjective unital homomorphism."""
    F = A.field
    T = np.asarray(T, dtype=np.int64)
    out = []
    if T.shape != (A.dim, B.dim):
        return [f"transition shape {T.shape} != ({A.dim}, {B.dim})"]
    if not np.array_equal(linalg.matvec(F, A.unit, T), B.unit):
        out.append("transition does not send unit to unit")
    for i, j in hom_failures(A, B, T):
        out.append(f"transition not multiplicative at basis pair ({i}, {j})")
        if len(out) > 16:
            return out
    if linalg.rank(F, T) != B.dim:
        out.append("transition is not surjective")
    return out


def tower_diagnostics(levels: list[StructureAlgebra], transitions: list[np.ndarray]) -> list[str]:
    out = []
    if len(transitions) != len(levels) - 1:
        return [f"{len(levels)} levels need {len(levels) - 1} transitions, got {len(transitions)}"]
    for n, T in enumerate(transitions):
        for msg in hom_diagnostics(levels[n + 1], levels[n], T):
            out.append(f"level {n + 1} -> {n}: {msg}")
        if out:
            continue
        F = levels[0].field
        ker = linalg.left_null_basis(F, np.asarray(T, dtype=np.int64))
        try:
            SubspaceIdeal(levels[n + 1], ker, side="two")
        except AlgebraError:
            out.append(f"level {n + 1} -> {n}: kernel is not a two-sided ideal")
    return out


def build_tower(levels: list[StructureAlgebra], transitions: list[np.ndarray],
                intent: str = "truncation") -> RingTower:
    if intent not in ("truncation", "exact"):
        raise ValueError(f"bad intent {intent!r}")
    problems = tower_diagnostics(levels, transitions)
    if problems:
        raise TowerError(f"invalid tower ({len(problems)} defects)", problems)
    return RingTower(levels=list(levels),
                     transitions=[np.asarray(T, dtype=np.int64) for T in transitions],
                     intent=intent)


def constant_tower(A: StructureAlgebra, depth: int, intent: str = "exact") -> RingTower:
    eye = np.eye(A.dim, dtype=np.int64)
    return build_tower([A] * (depth + 1), [eye] * depth, intent=intent)


def adic_tower(F, depth: int) -> RingTower:
    """Levels F[x]/(x^(n+1)) with reduction transitions."""
    levels = [truncated_poly_algebra(F, n + 1) for n in range(depth + 1)]
    transitions = []
    for n in range(depth):
        T = np.zeros((n + 2, n + 1), dtype=np.int64)
        T[: n + 1] = np.eye(n + 1, dtype=np.int64)
        transitions.append(T)
    return build_tower(levels, transitions, intent="truncation")


def block_product_tower(blocks: list[StructureAlgebra], depth: int,
                        intent: str = "truncation") -> RingTower:
    """Level n is the product of blocks[0..n] (constant once exhausted);
    transitions drop the newest block."""
    if not blocks:
        raise ValueError("need at least one block")
    levels = []
    for n in range(depth + 1):
        take = blocks[: n + 1]
        A = take[0]
        for B in take[1:]:
            A = product_algebra(A, B)
        levels.append(A)
    transitions = []
    for n in range(depth):
        lo, hi = levels[n].dim, levels[n + 1].dim
        T = np.zeros((hi, lo), dtype=np.int64)
        T[:lo] = np.eye(lo, dtype=np.int64)
        transitions.append(T)
    return build_tower(levels, transitions, intent=intent)


# ---------------------------------------------------------------------------
# Ideal towers and the topological Jacobson radical
# ---------------------------------------------------------------------------


@dataclass
class IdealTower:
    """Per-level two-sided ideals with exact transition images."""

    tower: RingTower
    ideals: list[SubspaceIdeal]


def ideal_tower_diagnostics(T: RingTower, ideals: list[SubspaceIdeal]) -> list[str]:
    out = []
    if len(ideals) != len(T.levels):
        return ["one ideal per level required"]
    F = T.levels[0].field
    for n, I in enumerate(ideals):
        if I.algebra != T.levels[n]:
            out.append(f"level {n}: ideal lives in the wrong algebra")
            continue
        if I.side != "two":
            out.append(f"level {n}: ideal is not two-sided")
    for n in range(T.depth):
        image = linalg.row_space_basis(F, linalg.matmul(F, ideals[n + 1].basis, T.transitions[n])) \
            if ideals[n + 1].dim else np.zeros((0, T.levels[n].dim), dtype=np.int64)
        if not np.array_equal(image, ideals[n].basis):
            out.append(f"level {n + 1} -> {n}: ideal image does not match the lower ideal")
    return out


def build_ideal_tower(T: RingTower, ideals: list[SubspaceIdeal]) -> IdealTower:
    problems = ideal_tower_diagnostics(T, ideals)
    if problems:
        raise TowerError(f"invalid ideal tower ({len(problems)} defects)", problems)
    return IdealTower(tower=T, ideals=list(ideals))


def topological_jacobson_radical(T: RingTower) -> IdealTower:
    """Levelwise radicals as an ideal tower.

    Each level object of at most 1024 elements is cross-checked once
    against radical_bruteforce, the exhaustive oracle
    {x : 1 - a*x*b invertible for all a, b}, and the quotient formula is
    verified on every level pair by tp_formula_check.
    """
    ideals = []
    checked: set[int] = set()
    for n, R in enumerate(T.levels):
        H = radical(R)
        if R.cardinality() <= 1024 and id(R) not in checked:
            if not np.array_equal(radical_bruteforce(R), H.basis):
                raise InternalInconsistencyError(
                    f"level {n}: radical differs from the brute-force oracle")
            checked.add(id(R))
        ideals.append(H)
    out = build_ideal_tower(T, ideals)
    tp_formula_check(T, out)
    return out


def tp_formula_check(T: RingTower, H: IdealTower) -> int:
    """Dual-route check of the semisimple-quotient formula on all level pairs.

    Route one: the preimage of H_n under level m -> n equals
    ker(m -> n) + H_m as subspaces.  Route two: the module radical of R_n
    as a module over R_m (acting through the transition) equals H_n.  Its
    independence is the module-radical computation: R_n * H(R_m) is formed
    from R_m's radical and the transition, never from R_n's own radical.
    H(R_m) itself is the one radical of that level object, the same ideal
    route one uses.  Returns the number of pairs checked.
    """
    F = T.levels[0].field
    pairs = 0
    for m in range(T.depth + 1):
        for n in range(m):
            C = T.composite(m, n)
            P, _ = linalg.quotient_maps(F, H.ideals[n].basis, T.levels[n].dim)
            preimage = linalg.row_space_basis(F, linalg.left_null_basis(F, linalg.matmul(F, C, P)))
            summed = linalg.row_space_basis(
                F, np.vstack([T.kernel_basis(m, n), H.ideals[m].basis]))
            if not np.array_equal(preimage, summed):
                raise InternalInconsistencyError(f"levels {m}->{n}: ideal preimage differs from kernel + ideal")
            Rn_over_Rm = _level_as_module(T, m, n)
            mod_rad = radical_of_module(Rn_over_Rm)
            if not np.array_equal(mod_rad, H.ideals[n].basis):
                raise InternalInconsistencyError(f"levels {m}->{n}: module radical route disagrees")
            pairs += 1
    return pairs


def _level_as_module(T: RingTower, m: int, n: int) -> FiniteModule:
    """R_n as a right module over R_m through the transition map."""
    # action[i] is right multiplication by the image C[i] of e_i in R_n
    action = T.levels[n].rmul_matrix(T.composite(m, n))
    return FiniteModule(T.levels[m], action, side="right", check=False)


# ---------------------------------------------------------------------------
# T-nilpotency
# ---------------------------------------------------------------------------


@dataclass
class TowerTNilpotency:
    """certificate: per-level indices k_n with H_n^(k_n) = 0, so any product
    of k_n ideal elements vanishes at level n."""

    kind: str  # "certificate"
    indices: list[int] = field(default_factory=list)
    depth: int = 0


def t_nilpotency_check(T: RingTower, H: IdealTower) -> TowerTNilpotency:
    for n, I in enumerate(H.ideals):
        rad_n = radical(T.levels[n])
        if I.dim and not rad_n.contains_ideal(I):
            raise TowerError(f"level {n}: ideal is not inside the radical, hence not topologically nil")
    indices = [I.nilpotency_index() for I in H.ideals]
    return TowerTNilpotency(kind="certificate", indices=indices, depth=T.depth)


# ---------------------------------------------------------------------------
# Strong closedness
# ---------------------------------------------------------------------------


@dataclass
class StrongClosednessCertificate:
    """Constructive lifts of zero-convergent families along the quotient
    tower: per-level sections, with compatibility repaired through the
    surjectivity of the ideal transitions."""

    sizes: list[int]
    depth: int
    seed: int
    families_lifted: int
    repairs: int
    identity_lift: bool
    lifts: list[tuple[int, list[list[np.ndarray]], list[list[np.ndarray]]]]


def strongly_closed_check(T: RingTower, H: IdealTower, sizes: list[int] | int = 3,
                          seed: int = 0) -> StrongClosednessCertificate:
    """Lift random zero-convergent families from the quotient tower.

    Each family member vanishes below a random level; the lift is built
    level by level, correcting the section defect by an ideal element with
    the right image.  Exact equalities are asserted throughout.
    """
    if isinstance(sizes, int):
        sizes = [sizes]
    depth = T.depth
    F = T.levels[0].field
    rng = random.Random(seed)
    # (proj, section) per level; quotient_tower builds and verifies the quotient algebras
    quotients = [linalg.quotient_maps(F, I.basis, R.dim) for R, I in zip(T.levels, H.ideals)]
    families_lifted = 0
    repairs = 0
    all_lifts = []
    zero_tower = all(H.ideals[n].dim == 0 for n in range(depth + 1))
    for size in sizes:
        family_rows: list[list[np.ndarray]] = []
        lift_rows: list[list[np.ndarray]] = []
        for _ in range(size):
            vanish = rng.randrange(depth + 1)
            top_ker = T.kernel_basis(depth, vanish) if vanish else np.eye(T.levels[depth].dim, dtype=np.int64)
            coeffs = np.array([rng.randrange(F.q) for _ in range(top_ker.shape[0])], dtype=np.int64)
            elem_top = linalg.lincomb(F, coeffs, top_ker)
            member = []
            for n in range(depth + 1):
                down = linalg.matvec(F, elem_top, T.composite(depth, n))
                projn, _ = quotients[n]
                member.append(linalg.matvec(F, down, projn))
            family_rows.append(member)
            # lift upward with repair
            lift = []
            for n in range(depth + 1):
                projn, secn = quotients[n]
                cand = linalg.matvec(F, member[n], secn)
                if n:
                    below = linalg.matvec(F, cand, T.transitions[n - 1])
                    defect = F.sub(below, lift[n - 1])
                    if defect.any():
                        mapped = linalg.matmul(F, H.ideals[n].basis, T.transitions[n - 1])
                        coords = linalg.solve_left(F, mapped, defect)
                        if coords is None:
                            raise InternalInconsistencyError(
                                f"level {n}: section defect not repairable inside the ideal")
                        h = linalg.lincomb(F, coords, H.ideals[n].basis)
                        cand = F.sub(cand, h)
                        repairs += 1
                if not np.array_equal(linalg.matvec(F, cand, projn), member[n]):
                    raise InternalInconsistencyError(f"level {n}: lift does not project to the family member")
                if n and not np.array_equal(linalg.matvec(F, cand, T.transitions[n - 1]), lift[n - 1]):
                    raise InternalInconsistencyError(f"level {n}: lift is not transition-compatible")
                lift.append(cand)
            lift_rows.append(lift)
            families_lifted += 1
        all_lifts.append((size, family_rows, lift_rows))
    return StrongClosednessCertificate(
        sizes=list(sizes),
        depth=depth,
        seed=seed,
        families_lifted=families_lifted,
        repairs=repairs,
        identity_lift=zero_tower and repairs == 0,
        lifts=all_lifts,
    )


# ---------------------------------------------------------------------------
# Semisimplicity and perfectness classification
# ---------------------------------------------------------------------------


@dataclass
class TowerSemisimpleResult:
    kind: str  # "SEMISIMPLE" | "NOT"
    factors: list[tuple[int, int]] = field(default_factory=list)
    witness_level: int | None = None
    depth: int = 0


def classify_semisimple(T: RingTower) -> TowerSemisimpleResult:
    """SEMISIMPLE with the multiset of simple factors appearing anywhere in
    the tower (matched across levels by central idempotent tracking), or
    NOT with the first level whose radical is nonzero."""
    F = T.levels[0].field
    for n, R in enumerate(T.levels):
        if radical(R).dim:
            return TowerSemisimpleResult(kind="NOT", witness_level=n, depth=T.depth)
    multiset: list[tuple[int, int]] = []
    prev: list[tuple[np.ndarray, tuple[int, int]]] = []
    for n, R in enumerate(T.levels):
        W = wedderburn(R)
        current = []
        for f in W.factors:
            pair = (f.card, f.n)
            current.append((f.central_idempotent, pair))
            if n == 0:
                multiset.append(pair)
                continue
            img = linalg.matvec(F, f.central_idempotent, T.transitions[n - 1])
            if not img.any():
                multiset.append(pair)
            else:
                match = next((p for eps, p in prev if np.array_equal(eps, img)), None)
                if match is None:
                    raise InternalInconsistencyError(f"level {n}: factor image is not a lower-level factor")
                if match != pair:
                    raise InternalInconsistencyError(f"level {n}: factor changed shape across a transition")
        prev = current
    return TowerSemisimpleResult(kind="SEMISIMPLE", factors=sorted(multiset), depth=T.depth)


def quotient_tower(T: RingTower, H: IdealTower) -> tuple[RingTower, list[np.ndarray], list[np.ndarray]]:
    """Levelwise quotients with induced transitions: (tower, projs, sections)."""
    F = T.levels[0].field
    datas = [quotient(T.levels[n], H.ideals[n]) for n in range(T.depth + 1)]
    levels = [d[0] for d in datas]
    projs = [d[1] for d in datas]
    sections = [d[2] for d in datas]
    transitions = []
    for n in range(T.depth):
        Tbar = linalg.matmul(F, linalg.matmul(F, sections[n + 1], T.transitions[n]), projs[n])
        transitions.append(Tbar)
    return build_tower(levels, transitions, intent=T.intent), projs, sections


EQUIVALENT_CONDITIONS = ["(i)", "(i')", "(ii)", "(iii)", "(iii')", "(iv)"]

TWO_SIDED_BASE_CONDITIONS = ["(v)", "(vi)"]


@dataclass
class PerfectnessReport:
    verdict: str
    depth: int
    radical_tower: IdealTower
    t_nilpotency: TowerTNilpotency
    strong_closedness: StrongClosednessCertificate
    semisimple_quotient: TowerSemisimpleResult
    reason: str
    equivalent_conditions: list[str]
    two_sided_base_conditions: list[str]
    caveats: list[str]


def classify_perfect(T: RingTower, sizes: list[int] | int = 3, seed: int = 0) -> PerfectnessReport:
    """Run the radical, T-nilpotency, strong-closedness, and semisimple
    quotient pipelines and report the conjunction verdict.

    Towers with a two-sided base always come out PERFECT: each level is a
    finite ring, so the levelwise condition holds.  T-nilpotency and the
    semisimple quotient are certified; strong closedness is sampled.
    """
    H = topological_jacobson_radical(T)
    nil = t_nilpotency_check(T, H)
    strong = strongly_closed_check(T, H, sizes=sizes, seed=seed)
    QT, _, _ = quotient_tower(T, H)
    semi = classify_semisimple(QT)
    if semi.kind != "SEMISIMPLE":
        raise InternalInconsistencyError(
            "quotient by the radical tower failed to classify semisimple")
    return PerfectnessReport(
        verdict="PERFECT",
        depth=T.depth,
        radical_tower=H,
        t_nilpotency=nil,
        strong_closedness=strong,
        semisimple_quotient=semi,
        reason="every level is a finite ring, so the levelwise perfectness condition holds; "
               "T-nilpotency and semisimple quotient certified, strong closedness sampled",
        equivalent_conditions=list(EQUIVALENT_CONDITIONS),
        two_sided_base_conditions=list(TWO_SIDED_BASE_CONDITIONS),
        caveats=[
            "condition (vi) is applied only to towers with a two-sided ideal base; "
            "outside that representation class it is reported, never decided",
        ],
    )

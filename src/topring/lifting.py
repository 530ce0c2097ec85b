"""Lifting idempotents modulo a nil ideal and orthogonalizing families.

Everything here is exact algebra at a single finite level; the tower layer
applies these operations at its deepest level and pushes the results down
through the transition maps.  The three operations:

  * lift_idempotent: Newton iteration g -> 3g^2 - 2g^3, which squares the
    defect g^2 - g each round, so log2(nilpotency index) + 1 rounds reach an
    exact idempotent inside f*A*f congruent to f.
  * orthogonalize: given exact idempotents whose products in one direction
    lie in a nil ideal H and whose sum u lies in 1 + H, u^{-1}e_z (or
    e_z*u^{-1}) is a complete orthogonal family.
  * lift_orthogonal_family: the composite, from idempotents-mod-H with all
    pairwise products in H and sum in 1 + H.  The whole family is lifted
    and checked as one stack, and a single lift_idempotent is a family of
    one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from topring import linalg
from topring.algebras import (
    STACK_BLOCK,
    AlgebraError,
    InternalInconsistencyError,
    StructureAlgebra,
    SubspaceIdeal,
    check_complete_orthogonal,
    invert_in_one_plus_H,
)


@dataclass
class IdempotentFamily:
    """A verified complete orthogonal family of idempotent rows.

    rows[z] is the z-th idempotent; u is the invertible sum of the
    intermediate one-per-element lifts that was used to orthogonalize
    (u = 1 when the input was already exactly orthogonal); side records
    whether each member lies in A*f_z ("left") or f_z*A ("right").
    """

    algebra: StructureAlgebra
    rows: np.ndarray
    u: np.ndarray
    u_inv: np.ndarray
    side: str


def lift_idempotent(A: StructureAlgebra, f: np.ndarray, H: SubspaceIdeal) -> np.ndarray:
    """Exact idempotent e with e - f in H and e inside f*A*f.

    Requires f^2 - f in H and H nil; raises AlgebraError otherwise.
    """
    return _lift_rows(A, np.asarray(f, dtype=np.int64)[None, :], H)[0]


def _lift_rows(A: StructureAlgebra, rows: np.ndarray, H: SubspaceIdeal) -> np.ndarray:
    """lift_idempotent of every row of rows at once.

    Newton's step runs on the rows not yet idempotent, one mul_rows pair
    per round; an idempotent is a fixed point of it, so a row that has
    converged stays as the one-row iteration leaves it.  Defects and drifts
    are one member_rows each, and _outside_spans tests g_z against the span
    of the rows f_z*e_j*f_z for every z at once.  A failure is raised for
    the first failing row, and within a row in the order defect,
    nilpotency of H, convergence, drift, corner."""
    F = A.field
    k, n = rows.shape
    if not (k and n):
        return rows  # no member, or the zero ring, where every row is 0
    defect_ok = H.member_rows(F.sub(A.mul_rows(rows, rows), rows))
    if not defect_ok[0]:
        raise AlgebraError("f^2 - f is not in H")
    nu = H.nilpotency_index()
    three = 3 % F.p
    two = 2 % F.p
    g = rows.copy()
    active = np.arange(k)
    for _ in range(max(1, nu - 1).bit_length() + 1):
        g2 = A.mul_rows(g[active], g[active])
        moving = (g2 != g[active]).any(axis=1)
        active, g2 = active[moving], g2[moving]
        if not active.size:
            break
        g3 = A.mul_rows(g2, g[active])
        g[active] = F.sub(F.mul(three, g2), F.mul(two, g3))
    else:
        active = active[(A.mul_rows(g[active], g[active]) != g[active]).any(axis=1)]
    diverged = np.zeros(k, dtype=bool)
    diverged[active] = True
    drift_ok = H.member_rows(F.sub(g, rows))
    # row j of span z is f_z * e_j * f_z: row j of L_z @ R_z, with row j of
    # L_z = f_z * e_j and row i of R_z = e_i * f_z
    eye = np.eye(n, dtype=np.int64)
    corners = F.contract("sij,sjk->sik", A.mul_pairs(rows, eye),
                         A.mul_pairs(eye, rows).transpose(1, 0, 2))
    escaped = _outside_spans(F, corners, g)
    for z in range(k):
        if not defect_ok[z]:
            raise AlgebraError("f^2 - f is not in H")
        if diverged[z]:
            raise AlgebraError("idempotent lift did not converge; H is not nil")
        if not drift_ok[z]:
            raise InternalInconsistencyError("lifted idempotent drifted out of f + H")
        if escaped[z]:
            raise InternalInconsistencyError("lifted idempotent escaped f*A*f")
    return g


def _outside_spans(F, spans: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Mask of the rows V[z] outside the row space of spans[z], a stack
    (k, h, n).

    The RREF of a block-diagonal matrix is the block-diagonal of the RREFs
    of its blocks, so one 2-D rref of diag(spans[z]) and one residual of
    the rows V[z], each placed in its block's columns, test a group of
    members at once.  A group's matrix holds at most STACK_BLOCK entries
    unless one span is more."""
    k, h, n = spans.shape
    group = max(1, math.isqrt(STACK_BLOCK // max(h * n, 1)))
    outside = np.zeros(k, dtype=bool)
    for lo in range(0, k, group):
        c = min(group, k - lo)
        diag = np.arange(c)
        D = np.zeros((c, h, c, n), dtype=np.int64)
        D[diag, :, diag] = spans[lo:lo + c]
        W = np.zeros((c, c, n), dtype=np.int64)
        W[diag, diag] = V[lo:lo + c]
        R, pivots = linalg.rref(F, D.reshape(c * h, c * n))
        outside[lo:lo + c] = linalg.residual(F, R, pivots, W.reshape(c, c * n)).any(axis=1)
    return outside


def orthogonalize(
    A: StructureAlgebra,
    rows: np.ndarray,
    H: SubspaceIdeal,
    side: str = "left",
) -> IdempotentFamily:
    """Complete orthogonal family from exact idempotents e_z with
    e_w e_z in H for z < w (input order) and sum u in 1 + H.

    Returns u^{-1}e_z for side "left", e_z u^{-1} for side "right"; when
    u = 1 the input is returned unchanged (and was already orthogonal).
    u^{-1} is the geometric series of invert_in_one_plus_H, which raises
    AlgebraError for a sum outside 1 + H.  No caller passes one:
    lift_orthogonal_family checks that the sum of its f_z lies in 1 + H,
    and each lift e_z is congruent to f_z mod H, so the sum of the e_z
    does too; the acceptance suite's direct call passes an exactly
    orthogonal complete family, whose sum is 1.
    """
    if side not in ("left", "right"):
        raise ValueError(f"bad side {side!r}")
    F = A.field
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, A.dim)
    k = rows.shape[0]
    prods = A.mul_pairs(rows, rows)
    in_H = H.member_rows(prods).reshape(k, k)
    for z in range(k):
        if not np.array_equal(prods[z, z], rows[z]):
            raise AlgebraError(f"input {z} is not idempotent")
        for w in range(z + 1, k):
            if not in_H[w, z]:
                raise AlgebraError(f"half-orthogonality fails at pair ({w}, {z})")
    u = F.fsum(rows, axis=0)
    u_inv = invert_in_one_plus_H(A, u, H)
    if side == "left":
        out = A.mul_pairs(u_inv[None, :], rows)[0]
    else:
        out = A.mul_pairs(rows, u_inv[None, :])[:, 0]
    check_complete_orthogonal(A, out)
    return IdempotentFamily(algebra=A, rows=out, u=u, u_inv=u_inv, side=side)


def lift_orthogonal_family(
    A: StructureAlgebra,
    rows: np.ndarray,
    H: SubspaceIdeal,
    side: str = "left",
) -> IdempotentFamily:
    """Lift a family with f_z^2 - f_z in H, all pairwise products in H, and
    sum in 1 + H, to a complete orthogonal family with e_z - f_z in H and
    e_z inside A*f_z ("left") or f_z*A ("right")."""
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
    fam = orthogonalize(A, _lift_rows(A, rows, H), H, side=side)
    congruent = H.member_rows(F.sub(fam.rows, rows))
    # row j of span z is e_j * f_z (A*f_z) or f_z * e_j (f_z*A)
    eye = np.eye(A.dim, dtype=np.int64)
    spans = (A.mul_pairs(eye, rows).transpose(1, 0, 2) if side == "left"
             else A.mul_pairs(rows, eye))
    escaped = _outside_spans(F, spans, fam.rows)
    for z in range(k):
        if not congruent[z]:
            raise InternalInconsistencyError(f"lifted member {z} is not congruent to its input")
        if escaped[z]:
            raise InternalInconsistencyError(f"lifted member {z} violates the {side} closure choice")
    return fam


def lift_family_from_quotient(
    A: StructureAlgebra,
    H: SubspaceIdeal,
    proj: np.ndarray,
    section: np.ndarray,
    quotient_rows: np.ndarray,
    side: str = "left",
) -> IdempotentFamily:
    """Lift a complete orthogonal family given in the quotient A/H.

    quotient_rows are coordinates in the quotient; proj and section are the
    matrices produced by the quotient construction.  The result projects
    back onto the input family, which is verified."""
    F = A.field
    quotient_rows = np.asarray(quotient_rows, dtype=np.int64).reshape(-1, proj.shape[1])
    preimages = linalg.matmul(F, quotient_rows, section)
    fam = lift_orthogonal_family(A, preimages, H, side=side)
    wrong = np.flatnonzero((linalg.matmul(F, fam.rows, proj) != quotient_rows).any(axis=1))
    if wrong.size:
        raise InternalInconsistencyError(f"lift {wrong[0]} does not project onto the given idempotent")
    return fam

"""Lifting idempotents modulo a nil ideal and orthogonalizing families.

Everything here is exact algebra at a single finite level; the tower layer
applies these operations at its deepest level and pushes the results down
through the transition maps.  The three operations:

  * lift_idempotent: Newton iteration g -> 3g^2 - 2g^3, which squares the
    defect g^2 - g each round, so log2(nilpotency index) + 1 rounds reach an
    exact idempotent inside f*A*f congruent to f.
  * orthogonalize: given exact idempotents whose products in one direction
    lie in a nil ideal and whose sum u is invertible, u^{-1}e_z (or
    e_z*u^{-1}) is a complete orthogonal family.
  * lift_orthogonal_family: the composite, from idempotents-mod-H with all
    pairwise products in H and sum in 1 + H.
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
    check_complete_orthogonal,
    corner_basis,
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


def orthogonalize(
    A: StructureAlgebra,
    rows: np.ndarray,
    H: SubspaceIdeal,
    side: str = "left",
) -> IdempotentFamily:
    """Complete orthogonal family from exact idempotents e_z with
    e_w e_z in H for z < w (input order) and invertible sum u.

    Returns u^{-1}e_z for side "left", e_z u^{-1} for side "right"; when
    u = 1 the input is returned unchanged (and was already orthogonal).
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
    if H.contains(F.sub(u, A.unit)):
        u_inv = invert_in_one_plus_H(A, u, H)
    else:
        u_inv = A.inverse(u)
        if u_inv is None:
            raise AlgebraError("sum of the family is not invertible")
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
    singles = np.vstack([lift_idempotent(A, f, H) for f in rows]) if rows.shape[0] else rows
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
    for z in range(quotient_rows.shape[0]):
        if not np.array_equal(linalg.matvec(F, fam.rows[z], proj), quotient_rows[z]):
            raise InternalInconsistencyError(f"lift {z} does not project onto the given idempotent")
    return fam

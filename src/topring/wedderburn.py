"""Decomposition of a semisimple algebra into matrix algebras over fields.

The pipeline is fully explicit: central primitive idempotents come from
Lagrange interpolation on elements of the Frobenius-fixed subspace of the
center (whose dimension equals the number of simple factors, which makes
termination a certificate rather than a hope).  A fixed z satisfies
z^q = z, so its minimal polynomial divides x^q - x, the product of x - a
over all a in F_q: it has exactly as many roots in F_q as its degree,
found by evaluating it at every element, and no polynomial is factored
(Friedl and Ronyai, STOC 1985; Ronyai, J. Symbolic Comput. 1990).  Fewer
roots than the degree is an InternalInconsistencyError.  Each simple
factor is cut by corner refinement into a complete family of primitive
orthogonal idempotents; matrix units come from solving one linear
equation per off-diagonal generator.  The result carries an explicit
isomorphism onto an abstract model algebra, verified on every product of
basis elements.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt

import numpy as np

from topring import linalg, poly
from topring.algebras import (
    AlgebraError,
    InternalInconsistencyError,
    StructureAlgebra,
    check_complete_orthogonal,
    corner_basis,
    hom_failures,
    matrix_algebra,
    peirce_corner,
    radical,
    subalgebra_structure,
    tensor_algebra,
    product_algebra,
)


@dataclass
class SimpleFactor:
    """One simple block Mat_n(D), |D| = card = q^m, in ambient coordinates.

    matrix_units[i, j] is the row of E_ij; matrix_units[i, i] summed over i
    gives central_idempotent; corner_basis spans E_00 * A * E_00, a field.
    """

    card: int
    n: int
    m: int
    central_idempotent: np.ndarray
    matrix_units: np.ndarray
    corner_basis: np.ndarray


@dataclass
class WedderburnDatum:
    algebra: StructureAlgebra
    factors: list[SimpleFactor]
    model: StructureAlgebra
    iso: np.ndarray
    iso_inv: np.ndarray

    def summary(self) -> list[tuple[int, int]]:
        """Sorted multiset of (|D|, n) over the simple factors."""
        return sorted((f.card, f.n) for f in self.factors)

    def primitive_family(self) -> np.ndarray:
        """All diagonal matrix units across factors: a complete family of
        primitive orthogonal idempotents summing to 1."""
        rows = [f.matrix_units[i, i] for f in self.factors for i in range(f.n)]
        return np.vstack(rows)


def central_primitive_idempotents(A: StructureAlgebra) -> np.ndarray:
    """Rows of the central primitive idempotents of a semisimple algebra.

    The q-power Frobenius is linear on the center, and is taken on all of
    its basis rows at once; its fixed space has one dimension per simple
    factor.  A fixed z satisfies z^q = z, so its minimal polynomial divides
    x^q - x and has exactly as many roots in F_q as its degree; the
    Lagrange idempotents of those roots (_root_idempotents) refine the
    family {1} until it reaches the factor count.  No polynomial is
    factored.
    """
    F = A.field
    Z = A.center_basis()
    # z^q for every basis row z at once, by left-to-right square-and-multiply
    Zq = Z
    for bit in bin(F.q)[3:]:
        Zq = A.mul_rows(Zq, Zq)
        if bit == "1":
            Zq = A.mul_rows(Zq, Z)
    phi = linalg.solve_left(F, Z, Zq)
    if phi is None:
        raise AlgebraError("center is not closed under q-th powers")
    fixed_coeff = linalg.left_null_basis(F, F.sub(phi, np.eye(Z.shape[0], dtype=np.int64)))
    fixed = linalg.matmul(F, fixed_coeff, Z)
    k = fixed.shape[0]
    family = A.unit[None, :]
    for z in fixed:
        if family.shape[0] == k:
            break
        family = A.mul_pairs(family, _root_idempotents(A, z)).reshape(-1, A.dim)
        family = family[family.any(axis=1)]
    if family.shape[0] != k:
        raise InternalInconsistencyError("central idempotent refinement did not reach the factor count")
    rows = np.vstack(sorted(family, key=A.encode))
    check_complete_orthogonal(A, rows)
    return rows


def _root_idempotents(A: StructureAlgebra, z: np.ndarray) -> np.ndarray:
    """The Lagrange idempotents (m/(x - a))(z) / m'(a), one row per root a
    of the minimal polynomial m of z, which must split into deg m distinct
    roots in F_q.

    One Horner pass evaluates m at every element of F_q; one synthetic
    division, run across all roots at once, gives each quotient m/(x - a)
    and its value m'(a) at a; one product with the powers 1, z, ..., z^(d-1)
    that the minimal polynomial search formed gives every idempotent.
    """
    F = A.field
    m, powers = A._min_poly_powers(z)
    d = poly.deg(m)
    elements = np.arange(F.q, dtype=np.int64)
    values = np.zeros(F.q, dtype=np.int64)
    for c in m[::-1]:
        values = F.add(F.mul(values, elements), c)
    roots = np.flatnonzero(values == 0)
    if roots.shape[0] != d:
        raise InternalInconsistencyError("fixed central element with non-split minimal polynomial")
    # quotient[:, i] is the x^i coefficient of m/(x - a), one row per root a
    quotient = np.zeros((d, d), dtype=np.int64)
    quotient[:, d - 1] = m[d]
    for i in range(d - 1, 0, -1):
        quotient[:, i - 1] = F.add(m[i], F.mul(roots, quotient[:, i]))
    at_root = np.zeros(d, dtype=np.int64)
    for i in range(d - 1, -1, -1):
        at_root = F.add(F.mul(at_root, roots), quotient[:, i])
    return linalg.matmul(F, F.mul(F.inv(at_root)[:, None], quotient), powers)


def _proper_idempotent(C: StructureAlgebra, rng: random.Random) -> np.ndarray:
    """Some idempotent of C other than 0 and 1, found through an element
    whose minimal polynomial has two coprime parts.  Deterministic basis
    candidates first, then seeded random ones."""
    F = C.field

    def candidates():
        for i in range(C.dim):
            yield linalg.basis_vector(C.dim, i)
        for _ in range(64 + 16 * C.dim):
            yield C.random_element(rng)

    for y in candidates():
        mp = C.min_poly(y)
        fs = poly.factor_poly(F, mp)[1]
        if len(fs) < 2:
            continue
        g = poly.const(F, 1)
        for _ in range(fs[0][1]):
            g = poly.mul(F, g, fs[0][0])
        h = poly.exact_div(F, mp, g)
        d, u, _ = poly.xgcd(F, g, h)
        if poly.deg(d) != 0:
            raise InternalInconsistencyError("coprime parts with nontrivial gcd")
        w = poly.mod(F, poly.mul(F, u, g), mp)
        f = C.evaluate_poly(w, y)
        if not C.is_idempotent(f) or not f.any() or np.array_equal(f, C.unit):
            raise InternalInconsistencyError("idempotent construction failed")
        return f
    raise InternalInconsistencyError("no proper idempotent found within the retry budget")


def primitive_orthogonal_family(B: StructureAlgebra, rng: random.Random) -> np.ndarray:
    """Complete family of primitive orthogonal idempotents of a simple
    algebra B, sorted canonically.  An idempotent e is primitive in B
    exactly when dim(e B e) equals dim(center B)."""
    m = B.center_basis().shape[0]
    n = isqrt(B.dim // m)
    if n * n * m != B.dim:
        raise InternalInconsistencyError("simple algebra dimension is not n^2 * m")
    family = [B.unit.copy()]
    corners = [np.eye(B.dim, dtype=np.int64)]  # corners[i] spans family[i] B family[i]; 1 B 1 = B
    for _ in range(B.dim):
        split_at = next((i for i, U in enumerate(corners) if U.shape[0] > m), None)
        if split_at is None:
            break
        e = family[split_at]
        C, embed = peirce_corner(B, e, corners[split_at])
        f = _proper_idempotent(C, rng)
        f1 = linalg.matvec(B.field, f, embed)
        f2 = B.field.sub(e, f1)
        family[split_at : split_at + 1] = [f1, f2]
        corners[split_at : split_at + 1] = [corner_basis(B, f1, f1), corner_basis(B, f2, f2)]
    if len(family) != n:
        raise InternalInconsistencyError("corner refinement did not reach the matrix size")
    family.sort(key=B.encode)
    rows = np.vstack(family)
    check_complete_orthogonal(B, rows)
    return rows


def matrix_units_from_family(B: StructureAlgebra, family: np.ndarray) -> np.ndarray:
    """Matrix units E_ij of a simple algebra from a complete primitive
    orthogonal family (E_ii = family[i]); E_0j is any nonzero element of
    f_0 B f_j and E_j0 solves E_0j * v = f_0 inside f_j B f_0.  Every
    E_ij = E_i0 * E_0j is one mul_pairs of the column E_i0 with the row
    E_0j, and one more checks all n^4 relations E_ab * E_cd = delta_bc * E_ad.
    A failure names the first failing (a, b, c, d), row-major."""
    F = B.field
    n = family.shape[0]
    E = np.zeros((n, n, B.dim), dtype=np.int64)
    E[0, 0] = family[0]
    for j in range(1, n):
        U = corner_basis(B, family[0], family[j])
        if U.shape[0] == 0:
            raise InternalInconsistencyError("empty off-diagonal corner in a simple algebra")
        u = U[0]
        W = corner_basis(B, family[j], family[0])
        # row w of W times L_u is u * w
        prods = linalg.matmul(F, W, B.lmul_matrix(u))
        sol = linalg.solve_left(F, prods, family[0])
        if sol is None:
            raise InternalInconsistencyError("no right quasi-inverse in the off-diagonal corner")
        v = linalg.matvec(F, sol, W)
        if not np.array_equal(B.mul(v, u), family[j]):
            raise InternalInconsistencyError("v*u is not the expected diagonal idempotent")
        E[0, j] = u
        E[j, 0] = v
    # E_ij = E_i0 * E_0j; the diagonal comes out as family[i], since v*u was checked
    E = B.mul_pairs(E[:, 0], E[0, :])
    # E_ab * E_cd against delta_bc * E_ad, every quadruple at once
    prods = B.mul_pairs(E.reshape(n * n, B.dim), E.reshape(n * n, B.dim))
    want = np.einsum("bc,adk->abcdk", np.eye(n, dtype=np.int64), E)
    bad = np.argwhere((prods.reshape(want.shape) != want).any(axis=4))
    if bad.size:
        raise InternalInconsistencyError(f"matrix unit relation fails at {tuple(int(i) for i in bad[0])}")
    return E


def wedderburn(A: StructureAlgebra, seed: int = 0) -> WedderburnDatum:
    """Decompose a semisimple algebra as a product of matrix algebras over
    finite fields, with an explicit verified isomorphism.

    Raises AlgebraError when A is the zero ring or has a nonzero radical.
    """
    F = A.field
    if A.dim == 0:
        raise AlgebraError("algebra has dimension zero")
    if not radical(A).is_zero():
        raise AlgebraError("algebra is not semisimple")
    rng = random.Random(seed)
    eps_rows = central_primitive_idempotents(A)
    factors: list[SimpleFactor] = []
    for eps in eps_rows:
        B, embed = peirce_corner(A, eps)
        fam = primitive_orthogonal_family(B, rng)
        E = matrix_units_from_family(B, fam)
        n = fam.shape[0]
        corner = corner_basis(B, E[0, 0], E[0, 0])
        m = corner.shape[0]
        E_amb = F.contract("ijk,kl->ijl", E, embed)
        factors.append(
            SimpleFactor(
                card=F.q ** m,
                n=n,
                m=m,
                central_idempotent=np.asarray(eps, dtype=np.int64),
                matrix_units=E_amb,
                corner_basis=linalg.row_space_basis(F, linalg.matmul(F, corner, embed)),
            )
        )
    factors.sort(key=lambda f: (f.card, f.n, A.encode(f.central_idempotent)))
    if sum(f.n * f.n * f.m for f in factors) != A.dim:
        raise InternalInconsistencyError("factor dimensions do not add up")
    model, iso = _build_model_and_iso(A, factors)
    iso_inv = linalg.inverse(F, iso)
    if iso_inv is None:
        raise InternalInconsistencyError("decomposition map is not bijective")
    _verify_iso(A, model, iso)
    return WedderburnDatum(
        algebra=A,
        factors=factors,
        model=model,
        iso=iso,
        iso_inv=iso_inv,
    )


def _build_model_and_iso(A: StructureAlgebra, factors: list[SimpleFactor]):
    """Model = product over factors of Mat_n(F) (x) D; iso sends b to the
    concatenation over factors of the corner coordinates of E_0i b E_j0."""
    F = A.field
    model = None
    for f in factors:
        D, _ = subalgebra_structure(A, f.corner_basis, f.matrix_units[0, 0])
        block = tensor_algebra(matrix_algebra(F, f.n), D)
        model = block if model is None else product_algebra(model, block)
    blocks = []
    for f in factors:
        # corner_basis is RREF: coordinates are the entries at its pivots
        pivots = [int(np.flatnonzero(row)[0]) for row in f.corner_basis]
        # D[i, j, t] is E_0i * e_t * E_j0: left multiplication by E_0i, then right by E_j0
        D = F.contract("itk,jkl->ijtl", A.lmul_matrix(f.matrix_units[0]),
                       A.rmul_matrix(f.matrix_units[:, 0]))
        coords = D[..., pivots]
        if not np.array_equal(F.contract("ijtp,pl->ijtl", coords, f.corner_basis), D):
            raise InternalInconsistencyError("corner coordinate extraction failed")
        # column block (i, j) holds the corner coordinates of E_0i * b * E_j0
        blocks.append(np.transpose(coords, (2, 0, 1, 3)).reshape(A.dim, -1))
    return model, np.hstack(blocks)


def _verify_iso(A: StructureAlgebra, model: StructureAlgebra, iso: np.ndarray) -> None:
    F = A.field
    if not np.array_equal(linalg.matvec(F, A.unit, iso), model.unit):
        raise InternalInconsistencyError("decomposition map does not preserve the unit")
    bad = hom_failures(A, model, iso)
    if bad.size:
        s, t = bad[0]
        raise InternalInconsistencyError(f"decomposition map not multiplicative at ({s}, {t})")

"""Independent reference computations used to cross-check the library.

Everything here is deliberately naive: scalar-at-a-time loops, no shared
code paths with topring.linalg beyond the field tables themselves.  The one
exception is endo_structure_full, which keeps the old full-composite route
of modules.endo_algebra (hom_space, MUL products, fsum) as the reference
for its pivot-only read-off.
"""

from __future__ import annotations

import itertools

import numpy as np

from topring.fields import FiniteField


def naive_rank(F: FiniteField, M) -> int:
    """Rank by plain Gaussian elimination, one scalar at a time."""
    rows = [[int(x) for x in row] for row in M]
    m = len(rows)
    n = len(rows[0]) if m else 0
    rank = 0
    for col in range(n):
        pivot = None
        for r in range(rank, m):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = int(F.INV[rows[rank][col]])
        rows[rank] = [int(F.MUL[inv, x]) for x in rows[rank]]
        for r in range(m):
            if r != rank and rows[r][col] != 0:
                c = rows[r][col]
                rows[r] = [
                    int(F.ADD[rows[r][j], F.NEG[F.MUL[c, rows[rank][j]]]]) for j in range(n)
                ]
        rank += 1
        if rank == m:
            break
    return rank


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

"""Seeded finite algebras, modules, towers and windowed matrices, with the
answers their construction fixes, written in the description-file format.

Every object is built from known blocks and then hidden behind a random
basis change, so the program has to rediscover the structure while the
benchmark already knows the radical dimension, the idempotent count and
the simple factors.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from fq import Fq


@dataclass
class Alg:
    """Structure constants c[i, j, k] (coefficient of e_k in e_i e_j) and
    the answers known from the construction."""

    F: Fq
    c: np.ndarray
    unit: np.ndarray
    rad: int
    factors: list[tuple[int, int]] = dc_field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.unit.shape[0]

    @property
    def members(self) -> int:
        """Size of a complete family of primitive orthogonal idempotents."""
        return sum(n for _, n in self.factors)


def _unit(n: int, idx) -> np.ndarray:
    u = np.zeros(n, dtype=np.int64)
    u[list(idx)] = 1
    return u


def mat(F: Fq, k: int) -> Alg:
    n = k * k
    c = np.zeros((n, n, n), dtype=np.int64)
    for a in range(k):
        for b in range(k):
            for d in range(k):
                c[a * k + b, b * k + d, a * k + d] = 1
    return Alg(F, c, _unit(n, [a * k + a for a in range(k)]), 0, [(F.q, k)])


def _poly_rem(F: Fq, f: list[int], g: list[int]) -> list[int]:
    """Remainder of f by the monic g (coefficients low degree first)."""
    f = list(f)
    dg = len(g) - 1
    for k in range(len(f) - 1, dg - 1, -1):
        lead = f[k]
        if lead:
            for i in range(dg + 1):
                f[k - dg + i] = int(F.ADD[f[k - dg + i], F.NEG[F.MUL[lead, g[i]]]])
    return f[:dg]


def _monic_polys(F: Fq, deg: int):
    for tail in range(F.q ** deg):
        coeffs = []
        for _ in range(deg):
            coeffs.append(tail % F.q)
            tail //= F.q
        yield coeffs + [1]


def irreducible(F: Fq, e: int) -> list[int]:
    """Smallest monic irreducible of degree e over F, by trial division."""
    for f in _monic_polys(F, e):
        if all(any(_poly_rem(F, f, g)) for k in range(1, e // 2 + 1)
               for g in _monic_polys(F, k)):
            return f
    raise AssertionError("no irreducible polynomial")


def poly_quotient(F: Fq, f: list[int]) -> np.ndarray:
    """Structure constants of F[x]/(f) in the basis 1, x, ..., x^(n-1)."""
    n = len(f) - 1
    powers = []
    for s in range(2 * n - 1):
        mono = [0] * s + [1]
        powers.append((_poly_rem(F, mono, f) + [0] * n)[:n])
    c = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            c[i, j] = powers[i + j]
    return c


def ext(F: Fq, e: int) -> Alg:
    return Alg(F, poly_quotient(F, irreducible(F, e)), _unit(e, [0]), 0, [(F.q ** e, 1)])


def trunc(F: Fq, n: int) -> Alg:
    return Alg(F, poly_quotient(F, [0] * n + [1]), _unit(n, [0]), n - 1, [(F.q, 1)])


def upper(F: Fq, k: int) -> Alg:
    pairs = [(a, b) for a in range(k) for b in range(a, k)]
    idx = {ab: t for t, ab in enumerate(pairs)}
    n = len(pairs)
    c = np.zeros((n, n, n), dtype=np.int64)
    for (a, b), s in idx.items():
        for (b2, d), t in idx.items():
            if b == b2:
                c[s, t, idx[(a, d)]] = 1
    return Alg(F, c, _unit(n, [idx[(a, a)] for a in range(k)]), n - k, [(F.q, 1)] * k)


def diag(F: Fq, n: int) -> Alg:
    c = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        c[i, i, i] = 1
    return Alg(F, c, _unit(n, range(n)), 0, [(F.q, 1)] * n)


def group(F: Fq, m: int) -> Alg:
    """F[C_m] with basis g^0..g^(m-1).  The answers hold when m is a power
    of p, where F[C_m] is local with radical spanned by the g^i - 1."""
    c = np.zeros((m, m, m), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            c[i, j, (i + j) % m] = 1
    return Alg(F, c, _unit(m, [0]), m - 1, [(F.q, 1)])


BLOCKS = {"mat": mat, "ext": ext, "trunc": trunc, "upper": upper, "diag": diag}


def block_dim(kind: str, size: int) -> int:
    return {"mat": size * size, "upper": size * (size + 1) // 2}.get(kind, size)


def product(blocks: list[Alg]) -> Alg:
    F = blocks[0].F
    n = sum(b.dim for b in blocks)
    c = np.zeros((n, n, n), dtype=np.int64)
    unit = np.zeros(n, dtype=np.int64)
    o = 0
    for b in blocks:
        m = b.dim
        c[o:o + m, o:o + m, o:o + m] = b.c
        unit[o:o + m] = b.unit
        o += m
    return Alg(F, c, unit, sum(b.rad for b in blocks),
               sorted(f for b in blocks for f in b.factors))


def rebase(A: Alg, P: np.ndarray, Pinv: np.ndarray) -> Alg:
    """A written in the basis whose rows are P."""
    F, n = A.F, A.dim
    x = F.matmul(P, A.c.reshape(n, n * n)).reshape(n, n, n)          # [i, b, k]
    x = F.matmul(P, x.transpose(1, 0, 2).reshape(n, n * n))          # [j, (i, k)]
    x = x.reshape(n, n, n).transpose(1, 0, 2).reshape(n * n, n)      # [(i, j), k]
    c = F.matmul(x, Pinv).reshape(n, n, n)
    unit = F.matmul(A.unit[None, :], Pinv)[0]
    return Alg(F, c, unit, A.rad, list(A.factors))


def hide(A: Alg, rng) -> Alg:
    P, Pinv = A.F.random_invertible(A.dim, rng)
    return rebase(A, P, Pinv)


def write_algebra(A: Alg) -> str:
    F = A.F
    lines = ["object algebra",
             "field " + " ".join(str(t) for t in (F.p, F.d, *F.modulus)),
             f"dim {A.dim}",
             "unit " + " ".join(str(int(t)) for t in A.unit)]
    for i, j, k in zip(*np.nonzero(A.c)):
        lines.append(f"c {i} {j} {k} {A.c[i, j, k]}")
    lines.append("end")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# modules


def truncated_shift(a: int, k: int) -> np.ndarray:
    """x^a acting on F[x]/(x^k)."""
    return np.eye(k, k, a, dtype=np.int64)


def group_shift(F: Fq):
    """g^a acting on F[C_m]/((g-1)^k) in the basis (g-1)^i: (1 + N)^a."""
    def power(a: int, k: int) -> np.ndarray:
        S = np.eye(k, dtype=np.int64) + np.eye(k, k, 1, dtype=np.int64)
        out = np.eye(k, dtype=np.int64)
        for _ in range(a):
            out = F.matmul(out, S)
        return out
    return power


def direct_sum_action(parts: list[np.ndarray]) -> np.ndarray:
    m = sum(p.shape[1] for p in parts)
    out = np.zeros((parts[0].shape[0], m, m), dtype=np.int64)
    o = 0
    for p in parts:
        k = p.shape[1]
        out[:, o:o + k, o:o + k] = p
        o += k
    return out


def conjugate_action(F: Fq, action: np.ndarray, Q: np.ndarray, Qinv: np.ndarray) -> np.ndarray:
    """The action in the module basis whose rows are Q."""
    return np.stack([F.matmul(F.matmul(Q, a), Qinv) for a in action])


def write_module(action: np.ndarray, algebra_ref: str) -> str:
    m = action.shape[1]
    lines = ["object module", f"algebra {algebra_ref}", "side right", f"dim {m}"]
    for a, r, c in zip(*np.nonzero(action)):
        lines.append(f"act {a} {r} {c} {action[a, r, c]}")
    lines.append("end")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# towers


def write_tower(intent: str, level_refs: list[str], transitions: list[np.ndarray]) -> str:
    lines = ["object tower", f"intent {intent}", f"levels {len(level_refs)}"]
    for i, ref in enumerate(level_refs):
        lines.append(f"level {i} {ref}")
    for n, T in enumerate(transitions):
        for r, c in zip(*np.nonzero(T)):
            lines.append(f"transition {n} {r} {c} {T[r, c]}")
    lines.append("end")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# windowed matrices


def write_matrix(y_kind: str, entries: np.ndarray, extras: dict, algebra_ref: str) -> str:
    """entries (W, W, dim); extras maps (row, column >= W) to a base element."""
    W = entries.shape[0]
    lines = ["object matrix", f"algebra {algebra_ref}", f"y {y_kind}", f"window {W}"]
    for x, z, t in zip(*np.nonzero(entries)):
        lines.append(f"entry {x} {z} {t} {entries[x, z, t]}")
    for (x, col), vec in sorted(extras.items()):
        for t in np.flatnonzero(vec):
            lines.append(f"extra {x} {col} {t} {vec[t]}")
    lines.append("end")
    return "\n".join(lines) + "\n"

"""Polynomial arithmetic and factorization over a FiniteField.

Polynomials are 1d numpy int64 arrays of encoded field elements, low
degree first, with no trailing zeros; the zero polynomial has length 0.
Factorization is squarefree decomposition followed by Berlekamp splitting,
which is deterministic for the table-backed field sizes used here.
"""

from __future__ import annotations

import numpy as np

from topring import linalg
from topring.fields import FiniteField, is_prime

Poly = np.ndarray


def norm(f) -> Poly:
    f = np.asarray(f, dtype=np.int64).ravel()
    nz = np.nonzero(f)[0]
    return f[: nz[-1] + 1] if nz.size else f[:0]


def deg(f) -> int:
    return len(f) - 1


def const(F: FiniteField, c: int) -> Poly:
    return norm(np.array([c], dtype=np.int64))


X = np.array([0, 1], dtype=np.int64)


def add(F: FiniteField, f: Poly, g: Poly) -> Poly:
    n = max(len(f), len(g))
    out = np.zeros(n, dtype=np.int64)
    out[: len(f)] = f
    out[: len(g)] = F.add(out[: len(g)], g)
    return norm(out)


def sub(F: FiniteField, f: Poly, g: Poly) -> Poly:
    return add(F, f, F.neg(np.asarray(g, dtype=np.int64)))


def mul(F: FiniteField, f: Poly, g: Poly) -> Poly:
    if len(f) == 0 or len(g) == 0:
        return np.zeros(0, dtype=np.int64)
    prods = F.mul(np.asarray(f)[:, None], np.asarray(g)[None, :])
    out = np.zeros(len(f) + len(g) - 1, dtype=np.int64)
    for i in range(len(f)):
        out[i : i + len(g)] = F.add(out[i : i + len(g)], prods[i])
    return norm(out)


def scale(F: FiniteField, c: int, f: Poly) -> Poly:
    return norm(F.mul(c, np.asarray(f, dtype=np.int64)))


def divmod_(F: FiniteField, f: Poly, g: Poly) -> tuple[Poly, Poly]:
    f = norm(f)
    g = norm(g)
    if len(g) == 0:
        raise ZeroDivisionError("polynomial division by zero")
    if len(f) < len(g):
        return np.zeros(0, dtype=np.int64), f
    inv_lead = F.inv(g[-1])
    rem = f.copy()
    quo = np.zeros(len(f) - len(g) + 1, dtype=np.int64)
    for k in range(len(quo) - 1, -1, -1):
        c = F.mul(rem[k + len(g) - 1], inv_lead)
        if c:
            quo[k] = c
            rem[k : k + len(g)] = F.sub(rem[k : k + len(g)], F.mul(c, g))
    return norm(quo), norm(rem)


def mod(F: FiniteField, f: Poly, g: Poly) -> Poly:
    return divmod_(F, f, g)[1]


def exact_div(F: FiniteField, f: Poly, g: Poly) -> Poly:
    q, r = divmod_(F, f, g)
    if len(r):
        raise ValueError("division is not exact")
    return q


def monic(F: FiniteField, f: Poly) -> Poly:
    f = norm(f)
    if len(f) == 0 or f[-1] == 1:
        return f
    return scale(F, F.inv(f[-1]), f)


def gcd(F: FiniteField, f: Poly, g: Poly) -> Poly:
    a, b = norm(f), norm(g)
    while len(b):
        a, b = b, mod(F, a, b)
    return monic(F, a)


def xgcd(F: FiniteField, f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """Monic d = gcd(f, g) together with u, v such that u*f + v*g = d."""
    r0, r1 = norm(f), norm(g)
    u0, u1 = const(F, 1), np.zeros(0, dtype=np.int64)
    v0, v1 = np.zeros(0, dtype=np.int64), const(F, 1)
    while len(r1):
        q, r = divmod_(F, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, sub(F, u0, mul(F, q, u1))
        v0, v1 = v1, sub(F, v0, mul(F, q, v1))
    if len(r0) and r0[-1] != 1:
        lead_inv = int(F.inv(r0[-1]))
        r0, u0, v0 = scale(F, lead_inv, r0), scale(F, lead_inv, u0), scale(F, lead_inv, v0)
    return r0, u0, v0


def pow_mod(F: FiniteField, f: Poly, e: int, m: Poly) -> Poly:
    result = const(F, 1)
    base = mod(F, f, m)
    e = int(e)
    while e > 0:
        if e & 1:
            result = mod(F, mul(F, result, base), m)
        base = mod(F, mul(F, base, base), m)
        e >>= 1
    return result


def derivative(F: FiniteField, f: Poly) -> Poly:
    if len(f) <= 1:
        return np.zeros(0, dtype=np.int64)
    # k mod p encodes the prime-subfield scalar k, so this is exact
    ks = (np.arange(1, len(f)) % F.p).astype(np.int64)
    return norm(F.mul(ks, np.asarray(f[1:], dtype=np.int64)))


def is_irreducible(F: FiniteField, f: Poly) -> bool:
    """Rabin's irreducibility test over F_q."""
    f = monic(F, f)
    n = deg(f)
    if n < 1:
        return False
    if n == 1:
        return True
    if len(sub(F, pow_mod(F, X, F.q ** n, f), X)):
        return False
    for r in [r for r in range(2, n + 1) if n % r == 0 and is_prime(r)]:
        t = sub(F, pow_mod(F, X, F.q ** (n // r), f), X)
        if deg(gcd(F, t, f)) > 0:
            return False
    return True


def first_irreducible(F: FiniteField, d: int) -> Poly:
    """The monic irreducible of degree d over F whose lower coefficients,
    read as base-q digits with the constant term lowest, form the smallest
    number; an irreducible of every degree exists, so next() finds one."""
    candidates = (np.append(np.array([tail // F.q ** i % F.q for i in range(d)], dtype=np.int64), 1)
                  for tail in range(F.q ** d))
    return next(f for f in candidates if is_irreducible(F, f))


def _pth_root_poly(F: FiniteField, f: Poly) -> Poly:
    """v with v(x)^p = f(x), for f of the form g(x^p)."""
    p = F.p
    if any(f[i] != 0 for i in range(len(f)) if i % p):
        raise ValueError("polynomial is not a p-th power")
    coeffs = [int(F.pth_root(int(f[i]))) for i in range(0, len(f), p)]
    return norm(np.array(coeffs, dtype=np.int64))


def squarefree_decomposition(F: FiniteField, f: Poly) -> list[tuple[Poly, int]]:
    """Monic f as a product of squarefree parts with multiplicities."""
    out: dict[tuple, int] = {}

    def record(g: Poly, m: int) -> None:
        key = tuple(int(c) for c in g)
        out[key] = out.get(key, 0) + m

    def run(g: Poly, e: int) -> None:
        c = gcd(F, g, derivative(F, g))
        w = exact_div(F, g, c)
        i = 1
        while deg(w) > 0:
            y = gcd(F, w, c)
            z = exact_div(F, w, y)
            if deg(z) > 0:
                record(z, i * e)
            i += 1
            w = y
            c = exact_div(F, c, y)
        if deg(c) > 0:
            run(_pth_root_poly(F, c), e * F.p)

    run(monic(F, f), 1)
    return [
        (np.array(k, dtype=np.int64), m)
        for k, m in sorted(out.items(), key=lambda kv: (len(kv[0]), kv[0]))
    ]


def _berlekamp_matrix(F: FiniteField, g: Poly) -> np.ndarray:
    n = deg(g)
    xq = pow_mod(F, X, F.q, g)
    rows = np.zeros((n, n), dtype=np.int64)
    cur = const(F, 1)
    for i in range(n):
        rows[i, : len(cur)] = cur
        cur = mod(F, mul(F, cur, xq), g)
    return rows


def _berlekamp_split(F: FiniteField, g: Poly) -> list[Poly]:
    """Irreducible factors of a monic squarefree g, deterministic."""
    n = deg(g)
    if n <= 1:
        return [g]
    Q = _berlekamp_matrix(F, g)
    B = F.sub(Q, np.eye(n, dtype=np.int64))
    # left kernel: polynomials h with h^q == h mod g
    kernel = linalg.left_null_basis(F, B)
    k = kernel.shape[0]
    pieces = [g]
    if k == 1:
        return pieces
    for v in kernel:
        h = norm(v)
        if deg(h) < 1:
            continue
        nxt: list[Poly] = []
        for piece in pieces:
            if deg(piece) == 1:
                nxt.append(piece)
                continue
            rest = piece
            for a in range(F.q):
                if deg(rest) < 1:
                    break
                d = gcd(F, sub(F, h, const(F, a)), rest)
                if 0 < deg(d) <= deg(rest):
                    nxt.append(d)
                    rest = exact_div(F, rest, d)
            if deg(rest) > 0:
                nxt.append(rest)
        pieces = nxt
        if len(pieces) == k:
            break
    return pieces


def factor_poly(F: FiniteField, f: Poly) -> tuple[int, list[tuple[Poly, int]]]:
    """Complete factorization over F_q.

    Args:
        F: coefficient field.
        f: nonzero polynomial.

    Returns:
        (lead, factors): lead is the leading coefficient, factors is a list
        of (monic irreducible, multiplicity), sorted by degree then by
        coefficient tuple.  The product of lead and all factor powers
        reproduces f exactly; tests verify this multiply-back property.
    """
    f = norm(f)
    if len(f) == 0:
        raise ValueError("cannot factor the zero polynomial")
    lead = int(f[-1])
    f = monic(F, f)
    factors: list[tuple[Poly, int]] = []
    for sqf, m in squarefree_decomposition(F, f):
        for piece in _berlekamp_split(F, monic(F, sqf)):
            factors.append((monic(F, piece), m))
    factors.sort(key=lambda fm: (deg(fm[0]), tuple(int(c) for c in fm[0])))
    return lead, factors


"""Polynomial arithmetic over a FiniteField.

Polynomials are 1d numpy int64 arrays of encoded field elements, low
degree first, with no trailing zeros; the zero polynomial has length 0.
Besides the ring operations there are gcd, powers modulo a polynomial,
Rabin's irreducibility test and the first irreducible of each degree,
which fields takes its default moduli from.  No polynomial is factored:
the idempotents of F_q[x]/(m) that wedderburn needs come from Berlekamp's
Frobenius-fixed subspace inside that algebra.
"""

from __future__ import annotations

import numpy as np

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

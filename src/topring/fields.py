"""Finite fields F_{p^d} with exact, table-driven arithmetic.

Field elements are encoded as integers in [0, p^d): the element with
polynomial coordinates (a_0, ..., a_{d-1}) in the basis 1, x, ..., x^{d-1}
of F_p[x]/(modulus) is stored as a_0 + a_1*p + ... + a_{d-1}*p^{d-1}.
Elementwise arithmetic is lookup in tables, so it works on numpy integer
arrays of any shape; other modules call the methods add, sub, neg, mul and
inv and never read the tables.  Over GF(2), add and sub are XOR, mul is AND
and neg is a copy, all on the codes themselves: this trusts that every
entry is an encoded element, 0 or 1 (the parser's value rule and
StructureAlgebra enforce it), where a table would raise IndexError on an
entry >= q.  The tables stay, for the other fields and as the oracle.

This module holds only those tables and the contraction kernel: polynomial work (the default modulus, the
irreducibility check of a given one, the reduction rows x^k mod modulus
behind MUL) is done in poly, over the prime field GF(p).  poly imports this
module, so the functions here import poly when they run.

Sums and sums of products (``fsum``, ``contract``) are integer sums reduced
mod p once.  Addition is coordinatewise on digit vectors, so ``fsum`` adds
the digit vectors (``DIGITS``) of its terms in int64.  ``contract`` is one
batched matmul over F_p.  Over F_{p^d} with d > 1 the operand with more
entries becomes its digit vectors and the other its multiplication matrices
(``REG``), which gives the same product because the field is commutative;
over a prime field the operands go in as they are.  No product tensor is
formed; the route holds |larger operand|*d, |smaller operand|*d^2 and
|output|*d integers.  A digit of a sum of K products adds K*d terms of at
most (p-1)^2, so every partial sum, in any order, is an integer of at most
K*d*(p-1)^2.  In int64 that is exact while K*d*(p-1)^2 < 2^63: under the
512-element cap, for any K below 2^45 over a prime field (p - 1 <= 508) and
below 2^53 over an extension (d*(p-1)^2 <= 648, from 19^2).  A product of at
least FLOAT_MIN_MADDS multiply-adds runs in float64 BLAS instead, one block
of at most FLOAT_BLOCK multiply-adds (or one dot product) at a time, when
K*d*(p-1)^2 < 2^53 (FLOAT_EXACT): every integer up to 2^53 is a double, so
each product and partial sum is exact whatever the order and blocking of
the BLAS and its thread count, and the block is cast back to int64 before
the reduction (an AND with 1 when p = 2).  Past that bound the product
stays in int64.  Nothing here is approximate.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

# Largest table-backed field.  Each q*q int64 table takes 2 MB at this cap, and
# the cap bounds the int64 sums of the module docstring.
MAX_FIELD_SIZE = 512

# Multiply-adds (b*m*k*n for a (b, m, k) @ (b, k, n) product) from which a
# contraction runs in float64 BLAS rather than in int64 matmul: the
# crossover of the two on a 2-core x86-64 VM with OpenBLAS, between about
# 8,000 multiply-adds for one square matrix and 10,000 for a stack of them.
FLOAT_MIN_MADDS = 10_000

# Multiply-adds of one float64 block of such a product (or one dot product,
# if that needs more).  Each float64 temporary of a block (its rows of X,
# its columns of Y, its product) has at most this many entries whatever the
# size of the product, and OpenBLAS runs a product of at most 2^18
# multiply-adds on the calling thread: a BLAS thread pool would add about
# 2 MB to the peak RSS of `topring verify` and gains nothing at the sizes
# it contracts.
FLOAT_BLOCK = 1 << 18

# Every integer up to 2^53 is a double, so float64 sums of integers are exact
# while they stay below it: the float64 route needs K*d*(p-1)^2 below this.
FLOAT_EXACT = 1 << 53


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def default_modulus(p: int, d: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree d over F_p (see
    poly.first_irreducible), coefficients low degree first."""
    if d == 1:
        return (0, 1)
    from topring import poly

    return tuple(int(c) for c in poly.first_irreducible(GF(p), d))


class FiniteField:
    """The field with p^d elements, realized as F_p[x]/(modulus).

    Attributes:
        p: characteristic (prime).
        d: extension degree over the prime field.
        q: field size p^d.
        modulus: defining monic irreducible, coefficients low degree first,
            length d+1.  For d == 1 this is (0, 1), i.e. the polynomial x.
    """

    def __init__(self, p: int, d: int = 1, modulus: Sequence[int] | None = None):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if d < 1:
            raise ValueError("extension degree must be >= 1")
        q = p ** d
        if q > MAX_FIELD_SIZE:
            raise ValueError(f"field size {q} exceeds table cap {MAX_FIELD_SIZE}")
        if modulus is None:
            modulus = default_modulus(p, d)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != d + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree d")
        if d > 1:
            from topring import poly

            if not poly.is_irreducible(GF(p), modulus):
                raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.d = d
        self.q = q
        self.modulus = modulus
        self._pp = p ** np.arange(d, dtype=np.int64)
        self._build_tables()

    def _build_tables(self) -> None:
        p, d, q = self.p, self.d, self.q
        digits = np.zeros((q, d), dtype=np.int64)
        t = np.arange(q)
        for i in range(d):
            digits[:, i] = t % p
            t = t // p
        self.DIGITS = digits
        self.ADD = ((digits[:, None, :] + digits[None, :, :]) % p @ self._pp).astype(np.int64)
        self.NEG = (((-digits) % p) @ self._pp).astype(np.int64)
        from topring import poly

        # x^k mod modulus for k in [d, 2d-1), as digit rows
        red = np.zeros((max(0, d - 1), d), dtype=np.int64)
        for k in range(d - 1):
            r = poly.pow_mod(GF(p), poly.X, d + k, self.modulus)
            red[k, : len(r)] = r
        conv = np.zeros((q, q, 2 * d - 1), dtype=np.int64)
        for i in range(d):
            for j in range(d):
                conv[:, :, i + j] += digits[:, None, i] * digits[None, :, j]
        low = conv[:, :, :d] % p
        for k in range(d, 2 * d - 1):
            low = (low + conv[:, :, k : k + 1] % p * red[k - d][None, None, :]) % p
        self.MUL = (low @ self._pp).astype(np.int64)
        inv = np.zeros(q, dtype=np.int64)
        units = np.argwhere(self.MUL == 1)
        inv[units[:, 0]] = units[:, 1]
        self.INV = inv
        # REG[b][u] holds the digits of x^u * b (x^u is the element p^u), so
        # the digits of a * b are DIGITS[a] @ REG[b] before reduction mod p
        self.REG = digits[self.MUL[:, self._pp]]

    # -- scalar / elementwise operations (ints or numpy int arrays) --------

    def add(self, a, b):
        if self.q == 2:
            return np.bitwise_xor(a, b)
        return self.ADD[a, b]

    def sub(self, a, b):
        if self.q == 2:
            return np.bitwise_xor(a, b)
        return self.ADD[a, self.NEG[b]]

    def neg(self, a):
        if self.q == 2:
            return np.positive(a)
        return self.NEG[a]

    def mul(self, a, b):
        if self.q == 2:
            return np.bitwise_and(a, b)
        return self.MUL[a, b]

    def inv(self, a):
        """Elementwise inverse, ZeroDivisionError if an entry is 0.  INV sends
        0 to 0 and units to units, so the check reads the looked-up values."""
        out = self.INV[a]
        if not (out.all() if out.ndim else out):
            raise ZeroDivisionError("inverse of 0")
        return out

    def power(self, a, n: int):
        """a^n elementwise, n >= 0 (or any n for invertible a)."""
        if n < 0:
            return self.power(self.inv(a), -n)
        result = np.full_like(np.asarray(a), 1)
        base = np.asarray(a).copy()
        n = int(n)
        while n > 0:
            if n & 1:
                result = self.MUL[result, base]
            base = self.MUL[base, base]
            n >>= 1
        return result if result.shape else int(result)

    def fsum(self, arr, axis=None):
        """Field sum of an integer array along the given axis (or all axes):
        the digit vectors of the terms are added and reduced mod p once.  An
        empty sum is 0, the zero of the element shape left after the axis.
        Axes are normalized here, as the gathered digits add a last axis.
        """
        arr = np.asarray(arr, dtype=np.int64)
        nd = arr.ndim
        axes = range(nd) if axis is None else axis if isinstance(axis, tuple) else (axis,)
        if not all(-nd <= a < nd for a in axes):
            raise ValueError(f"axis {axis} is out of bounds for an array of dimension {nd}")
        axis = tuple(a % nd for a in axes)
        out = (np.take(self.DIGITS, arr, axis=0).sum(axis) % self.p) @ self._pp
        return out if isinstance(out, np.ndarray) else int(out)

    def contract(self, spec: str, A, B) -> np.ndarray:
        """Exact bilinear einsum over the field, e.g. ``contract('ij,jk->ik', A, B)``.

        spec is a two-operand np.einsum subscript string with an explicit
        output; an index appears at most once per operand and, unless it is
        in the output, in both operands (ValueError otherwise).  Indices
        absent from the output are summed.  This is one batched matmul,
        reduced mod p once: over F_{p^d} with d > 1 of digit vectors by REG
        matrices, over a prime field of the operands themselves (see the
        module docstring).
        """
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        swap, perm_x, view_x, perm_y, view_y, shape, perm_out, madds = _layout(
            spec, A.shape, B.shape, self.d)
        X, Y = (B, A) if swap else (A, B)
        if self.d > 1:
            X, Y = np.take(self.DIGITS, X, axis=0), np.take(self.REG, Y, axis=0)
        X = X.transpose(perm_x).reshape(view_x)
        Y = Y.transpose(perm_y).reshape(view_y)
        if madds < FLOAT_MIN_MADDS or view_x[2] * (self.p - 1) ** 2 >= FLOAT_EXACT:
            out = X @ Y
        else:
            out = _float_matmul(X, Y)
        out = out.reshape(shape)
        if self.p == 2:
            out &= 1
        else:
            out %= self.p
        if self.d > 1:
            out = out @ self._pp
        return out.transpose(perm_out)

    def pth_root(self, a):
        """Inverse of Frobenius: the unique b with b^p == a."""
        return self.power(a, self.q // self.p)

    def from_digits(self, dig) -> int:
        dig = np.asarray(dig) % self.p
        out = dig @ self._pp
        return out if isinstance(out, np.ndarray) else int(out)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteField)
            and (self.p, self.d, self.modulus) == (other.p, other.d, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.d, self.modulus))

    def __repr__(self) -> str:
        return f"F_{self.q}" if self.d == 1 else f"F_{self.q}(p={self.p},mod={list(self.modulus)})"


@functools.lru_cache(maxsize=256)
def _indices(spec: str) -> tuple[str, str, str]:
    """The operand and output subscripts of a two-operand einsum spec.

    Raises ValueError for a repeated index in one subscript, an output
    index in neither operand, or an index summed inside one operand."""
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    for sub in (sa, sb, out):
        if len(set(sub)) != len(sub):
            raise ValueError(f"repeated index in {sub!r} of {spec!r}")
    if set(out) - set(sa + sb):
        raise ValueError(f"output index of {spec!r} in neither operand")
    if (set(sa) ^ set(sb)) - set(out):
        raise ValueError(f"index summed inside one operand of {spec!r}")
    return sa, sb, out


@functools.lru_cache(maxsize=4096)
def _layout(spec: str, shape_a: tuple, shape_b: tuple, d: int):
    """Views of a two-operand einsum over F_{p^d} as one batched matmul.

    X, the operand with more entries, is gathered as digit vectors (axis u)
    and viewed as (batch, free in X, summed * u); Y, the other, is gathered
    as REG matrices (axes u, v) and viewed as (batch, summed * u, free in
    Y * v).  Batch indices are in both operands and the output, free ones
    in one operand and the output, summed ones in both operands only.  Over
    a prime field an element is its own digit and 1 x 1 REG matrix, so the
    operands are not gathered and have no axes u and v.
    Returns whether X is B, the transpose and view of each operand, the
    shape of the product before the digits v are folded, the transpose
    that puts the folded result in output order, and the multiply-add
    count of the matmul."""
    sa, sb, out = _indices(spec)
    sizes = dict(zip(sa, shape_a)) | dict(zip(sb, shape_b))
    swap = math.prod(shape_b) > math.prod(shape_a)
    sx, sy = (sb, sa) if swap else (sa, sb)
    batch = [x for x in out if x in sx and x in sy]
    free_x = [x for x in out if x in sx and x not in sy]
    free_y = [x for x in out if x in sy and x not in sx]
    summed = [x for x in sx if x not in out]

    def size(idx):
        return math.prod(sizes[x] for x in idx)

    u, v = ([len(sx)], [len(sy), len(sy) + 1]) if d > 1 else ([], [])
    perm_x = (*[sx.index(x) for x in batch + free_x + summed], *u)
    perm_y = (*[sy.index(x) for x in batch + summed], *v[:1],
              *[sy.index(x) for x in free_y], *v[1:])
    view_x = (size(batch), size(free_x), size(summed) * d)
    view_y = (size(batch), size(summed) * d, size(free_y) * d)
    res = batch + free_x + free_y
    digits = (d,) if d > 1 else ()
    return (swap, perm_x, view_x, perm_y, view_y, (*[sizes[x] for x in res], *digits),
            tuple(res.index(x) for x in out), math.prod(view_x) * view_y[2])


def _float_matmul(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X @ Y as int64 for int64 stacks (b, m, k) and (b, k, n) with k >= 1,
    computed in float64 BLAS one block at a time: whole matrices of the
    stack, or rows of one matrix, times all of its columns or, when k*n
    exceeds FLOAT_BLOCK, a slice of them.  A block makes at most FLOAT_BLOCK
    multiply-adds (or one dot product).  The caller checks that the sums
    are exact (module docstring)."""
    b, m, k = X.shape
    n = Y.shape[2]
    out = np.empty((b, m, n), dtype=np.int64)
    cols = max(1, min(n, FLOAT_BLOCK // k))
    rows = max(1, FLOAT_BLOCK // (k * cols))
    per = max(1, rows // m)
    for i in range(0, b, per):
        for c in range(0, n, cols):
            Yf = Y[i : i + per, :, c : c + cols].astype(np.float64)
            for r in range(0, m, rows):
                out[i : i + per, r : r + rows, c : c + cols] = (
                    X[i : i + per, r : r + rows].astype(np.float64) @ Yf)
    return out


def GF(p: int, d: int = 1, modulus: Sequence[int] | None = None) -> FiniteField:
    """Shorthand constructor, cached on (p, d, modulus).

    An omitted modulus aliases the entry for the resolved default, so
    spelling the default out gives the same object back."""
    raw = (p, d, None if modulus is None else tuple(int(c) for c in modulus))
    field = _FIELD_CACHE.get(raw)
    if field is None:
        field = FiniteField(p, d, modulus)
        field = _FIELD_CACHE.setdefault((p, d, field.modulus), field)
        _FIELD_CACHE[raw] = field
    return field


_FIELD_CACHE: dict = {}

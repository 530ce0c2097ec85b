"""Finite fields F_{p^d} with exact, table-driven arithmetic.

Field elements are encoded as integers in [0, p^d): the element with
polynomial coordinates (a_0, ..., a_{d-1}) in the basis 1, x, ..., x^{d-1}
of F_p[x]/(modulus) is stored as a_0 + a_1*p + ... + a_{d-1}*p^{d-1}.
Elementwise arithmetic is lookup in tables, so it works on numpy integer
arrays of any shape; other modules call the methods add, sub, neg, mul and
inv and never read the tables.  This module holds only those tables and
the contraction kernel: polynomial work (the default modulus, the
irreducibility check of a given one, the reduction rows x^k mod modulus
behind MUL) is done in poly, over the prime field GF(p).  poly imports this
module, so the functions here import poly when they run.

Sums and sums of products (``fsum``, ``contract``) take two routes chosen
by the extension degree.  Over a prime field (d == 1) an element is its own
integer residue, so a sum of products is one int64 sum or einsum reduced
mod p once at the end.  Each term is below (p-1)^2 <= 508^2 < 2^18, so a
sum of K terms is exact while K * (p-1)^2 < 2^63, i.e. for any K below
2^45.  Over F_{p^d} with d > 1 the products come from the MUL table, and a
sum adds digit vectors: the d digits of an element are packed into lanes of
one int64, so one integer sum adds every digit plane, and each lane is
reduced mod p once.  Nothing here is approximate.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

# Largest table-backed field.  Each q*q int64 table takes 2 MB at this cap, and
# the cap keeps p - 1 <= 508 on the prime path, where an int64 sum of K
# products is exact for any K below 2^45.
MAX_FIELD_SIZE = 512

# Entries of the product tensor gathered per step on the extension-field
# contraction route; the sum is chunked along its first summed index.
_CONTRACT_CHUNK = 1 << 16


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
        # Lane packing for extension-field sums: digit i of an element sits
        # in bits [i*W, (i+1)*W) of one int64, so an integer sum of packed
        # elements adds every digit plane at once.  A lane holds a sum of up
        # to _lane_cap digits before it could carry into the next one.
        w = 63 // d
        self._lane_mask = (1 << w) - 1
        self._lane_cap = self._lane_mask // (p - 1)
        self._lane_shifts = w * np.arange(d, dtype=np.int64)
        self._packed = digits @ (1 << self._lane_shifts)
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
        self._mul_packed = self._packed[self.MUL] if d > 1 else None

    # -- scalar / elementwise operations (ints or numpy int arrays) --------

    def add(self, a, b):
        return self.ADD[a, b]

    def sub(self, a, b):
        return self.ADD[a, self.NEG[b]]

    def neg(self, a):
        return self.NEG[a]

    def mul(self, a, b):
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
        """Field sum of an integer array along the given axis (or all axes).

        Over a prime field this is an integer sum reduced mod p once.
        Addition in F_{p^d} is coordinatewise mod p on digit vectors, so a
        long sum is one sum of lane-packed digits, unpacked and reduced mod p
        once; a sum of more than _lane_cap terms sums the digit rows instead.
        An empty sum is 0, the zero of the element shape left after the axis.
        """
        arr = np.asarray(arr, dtype=np.int64)
        if axis is None:
            axis = tuple(range(arr.ndim))
        if self.d == 1:
            out = arr.sum(axis=axis, dtype=np.int64) % self.p
        elif np.prod(np.take(arr.shape, axis)) <= self._lane_cap:
            out = self._unpack(self._packed[arr].sum(axis=axis))
        else:
            out = (self.DIGITS[arr].sum(axis=axis) % self.p) @ self._pp
        return out if isinstance(out, np.ndarray) else int(out)

    def _unpack(self, s):
        """Field elements from sums of lane-packed elements."""
        lanes = np.asarray(s)[..., None] >> self._lane_shifts & self._lane_mask
        return lanes % self.p @ self._pp

    def contract(self, spec: str, A, B) -> np.ndarray:
        """Exact bilinear einsum over the field, e.g. ``contract('ij,jk->ik', A, B)``.

        spec is a two-operand np.einsum subscript string with an explicit
        output; no operand repeats an index.  Indices absent from the output
        are summed.  Over a prime field this is one int64 einsum reduced mod p
        once (exact, see the module docstring).  Over F_{p^d} with d > 1 the
        products are lookups in a lane-packed copy of the MUL table, summed
        as fsum does, in chunks along the first summed index so that the
        product tensor never exceeds _CONTRACT_CHUNK entries per step.
        """
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        if self.d == 1:
            out = np.einsum(spec, A, B)
            out %= self.p
            return out
        perm_a, view_a, perm_b, view_b, axes, first, step, packed = _layout(
            spec, A.shape, B.shape, self._lane_cap)
        Af = A.transpose(perm_a).reshape(view_a)
        Bf = B.transpose(perm_b).reshape(view_b)
        if axes == ():
            return self.MUL[Af, Bf]
        if packed and step >= first:
            return self._unpack(self._mul_packed[Af, Bf].sum(axis=axes))
        acc = None
        for lo in range(0, max(first, 1), step):
            part_a, part_b = _head(Af, lo, step, first), _head(Bf, lo, step, first)
            if packed:
                part = self._unpack(self._mul_packed[part_a, part_b].sum(axis=axes))
            else:
                part = self.fsum(self.MUL[part_a, part_b], axis=axes)
            acc = part if acc is None else self.ADD[acc, part]
        return acc

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


@functools.lru_cache(maxsize=4096)
def _layout(spec: str, shape_a: tuple, shape_b: tuple, lane_cap: int):
    """Broadcast layout of a two-operand einsum for the table route.

    Both operands are viewed over one index order, the summed indices first
    and then the output ones, with size 1 where an operand lacks an index.
    Returns (perm_a, view_a, perm_b, view_b, axes, first, step, packed):
    perm_x orders operand x's axes, view_x is its broadcast shape, axes are
    the summed ones, first is the size of the first of them, step the chunk
    of it that keeps a product tensor within _CONTRACT_CHUNK entries and a
    lane within lane_cap terms, and packed says whether one value of the
    first summed index already fits a lane."""
    ins, out = spec.split("->")
    sa, sb = ins.split(",")
    for sub in (sa, sb):
        if len(set(sub)) != len(sub):
            raise ValueError(f"repeated index in operand {sub!r}")
    summed = "".join(x for x in dict.fromkeys(sa + sb) if x not in out)
    full = summed + out
    sizes = dict(zip(sa, shape_a)) | dict(zip(sb, shape_b))
    views = []
    for sub in (sa, sb):
        views.append(tuple(sub.index(x) for x in full if x in sub))
        views.append(tuple(sizes[x] if x in sub else 1 for x in full))
    axes = 0 if len(summed) == 1 else tuple(range(len(summed)))
    first = sizes[full[0]] if summed else 0
    rest = max(math.prod(sizes[x] for x in summed[1:]), 1)
    step = max(1, _CONTRACT_CHUNK // max(math.prod(sizes[x] for x in full[1:]), 1))
    step = min(step, max(1, lane_cap // rest))
    return (*views, axes, first, step, rest <= lane_cap)


def _head(X: np.ndarray, lo: int, step: int, size: int) -> np.ndarray:
    """Rows [lo, lo + step) of axis 0, unless X broadcasts along it."""
    return X[lo : lo + step] if X.shape[0] == size else X


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

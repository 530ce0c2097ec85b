"""Small finite-field arithmetic for the benchmark's generators and checks.

Elements of GF(p^d) are integers whose base-p digits are the coefficients
of a polynomial modulo a monic irreducible, low degree first: the same
encoding the description files use.  The benchmark keeps its own copy so
that its inputs and expected answers do not move when the program under
test changes.
"""

import functools

import numpy as np


def _poly_mulmod(p: int, a: list[int], b: list[int], mod: tuple[int, ...]) -> list[int]:
    d = len(mod) - 1
    prod = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    for k in range(2 * d - 2, d - 1, -1):
        lead = prod[k]
        if lead:
            for i in range(d + 1):
                prod[k - d + i] = (prod[k - d + i] - lead * mod[i]) % p
    return prod[:d]


class Fq:
    """GF(p^d) with addition and multiplication tables."""

    def __init__(self, p: int, d: int = 1, modulus: tuple[int, ...] | None = None):
        self.p, self.d, self.q = p, d, p ** d
        self.modulus = tuple(modulus) if modulus is not None else (0, 1)
        if len(self.modulus) != d + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree d")
        q = self.q
        self.pp = p ** np.arange(d, dtype=np.int64)
        dig = np.zeros((q, d), dtype=np.int64)
        t = np.arange(q)
        for i in range(d):
            dig[:, i] = t % p
            t //= p
        self.DIG = dig
        self.ADD = ((dig[:, None, :] + dig[None, :, :]) % p) @ self.pp
        self.NEG = ((-dig) % p) @ self.pp
        if d == 1:
            self.MUL = np.outer(np.arange(q), np.arange(q)) % p
        else:
            mul = np.zeros((q, q), dtype=np.int64)
            for a in range(q):
                for b in range(q):
                    r = _poly_mulmod(p, list(dig[a]), list(dig[b]), self.modulus)
                    mul[a, b] = int(np.dot(r, self.pp))
            self.MUL = mul
        self.INV = np.zeros(q, dtype=np.int64)
        for a, b in np.argwhere(self.MUL == 1):
            self.INV[a] = b

    def fsum(self, arr: np.ndarray, axis: int) -> np.ndarray:
        arr = np.asarray(arr)
        s = self.DIG[arr].sum(axis=axis % arr.ndim, dtype=np.int64) % self.p
        return s @ self.pp

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Matrix product; prime fields use one integer product mod p."""
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        if self.d == 1:
            return (A @ B) % self.p
        return self.fsum(self.MUL[A[..., :, :, None], B[..., None, :, :]], axis=-2)

    def rref(self, M: np.ndarray) -> tuple[np.ndarray, list[int]]:
        R = np.array(M, dtype=np.int64, copy=True)
        rows, cols = R.shape
        piv: list[int] = []
        r = 0
        for c in range(cols):
            if r == rows:
                break
            nz = np.flatnonzero(R[r:, c])
            if nz.size == 0:
                continue
            s = r + int(nz[0])
            R[[r, s]] = R[[s, r]]
            R[r] = self.MUL[self.INV[R[r, c]], R[r]]
            for t in range(rows):
                if t != r and R[t, c]:
                    R[t] = self.ADD[R[t], self.NEG[self.MUL[R[t, c], R[r]]]]
            piv.append(c)
            r += 1
        return R, piv

    def inverse(self, M: np.ndarray) -> np.ndarray | None:
        n = M.shape[0]
        R, piv = self.rref(np.hstack([M, np.eye(n, dtype=np.int64)]))
        if piv[:n] != list(range(n)):
            return None
        return R[:, n:]

    def random_invertible(self, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
        while True:
            P = np.array([[rng.randrange(self.q) for _ in range(n)] for _ in range(n)],
                         dtype=np.int64)
            Pinv = self.inverse(P)
            if Pinv is not None:
                return P, Pinv


@functools.cache
def field(p: int, d: int = 1) -> Fq:
    """The fields the workloads use, with the moduli written into the files."""
    moduli = {(2, 1): (0, 1), (3, 1): (0, 1), (2, 2): (1, 1, 1), (3, 2): (1, 0, 1)}
    return Fq(p, d, moduli[(p, d)])

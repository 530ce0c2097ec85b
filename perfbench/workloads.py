"""The four workloads: seeded op pools with the answers known from their
construction.

A pool is the fixed sequence of ops that one pass of the closed loop runs.
Its shape (verbs, fields, sizes and the blocks or summands each object is
built from) is drawn once from a fixed recipe stream and is the same for
every seed; the seed picks the hidden basis changes, matrix entries and
the program's own --seed.  Two seeds therefore run different input files
at the same cost ladder, which keeps run-to-run spread small.
"""

import dataclasses
import os
import random
from dataclasses import dataclass, field

import numpy as np

import objects as ob
from fq import Fq, field as gf


@dataclass
class Op:
    label: str
    argv: list[str]
    size: int
    expect: dict = field(default_factory=dict)


WORKLOADS = ("verify", "ring-ladder", "tower-module", "matrix-window")

# (p, d) of every field a workload's inputs use; set-up builds these.
FIELDS = {
    "verify": [(2, 1), (3, 1), (2, 2)],
    "ring-ladder": [(2, 1), (3, 1), (2, 2)],
    "tower-module": [(2, 1), (3, 1), (2, 2)],
    "matrix-window": [(2, 1), (3, 2)],
}


class Writer:
    """Writes description files into the work directory."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def put(self, name: str, text: str) -> str:
        with open(os.path.join(self.root, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        return name


def build(workload: str, seed: int, root: str) -> list[Op]:
    """Write the pool's input files under root and return its ops."""
    rng = random.Random(f"{workload}:{seed}")
    recipe = random.Random(f"{workload}:recipe")
    w = Writer(root)
    return {
        "verify": _verify,
        "ring-ladder": _ring_ladder,
        "tower-module": _tower_module,
        "matrix-window": _matrix_window,
    }[workload](seed, rng, recipe, w)


# ---------------------------------------------------------------------------
# verify


def _verify(seed, rng, recipe, w) -> list[Op]:
    return [Op("verify", ["verify", "--seed", str(seed)], 1664, {"verb": "verify", "suites": 10})]


# ---------------------------------------------------------------------------
# ring-ladder


# One op per (dimension, field).  Dimensions 6..17 run twice, over two of
# GF(2), GF(3), GF(4), and the middle of the ladder, 9..14, runs over the
# third field too: an op's cost moves with its seed, so the median op time
# should rest on many inputs of about the same cost, not on one.  The cost
# of an op grows about as dim^5, so the top of the ladder is one larger
# algebra only, and the two largest GF(4) algebras (dims 16 and 17, 2 s of
# each pass) are left out.  Two dimension-5 algebras make 31 ops.
_FIELDS3 = [(2, 1), (3, 1), (2, 2)]
LADDER = ([(5, (2, 1)), (5, (2, 2))]
          + [(dim, f) for r in (0, 1, 2) for dim in range(6, 18)
             for f in [_FIELDS3[(dim + r) % 3]]
             if (r < 2 or 9 <= dim <= 14) and not (dim >= 16 and f == (2, 2))]
          + [(20, (2, 1))])


def random_blocks(F: Fq, dim: int, rng) -> list[ob.Alg]:
    """Seeded blocks of total dimension dim, at least two of them."""
    choices = [("mat", 2), ("mat", 3), ("ext", 2), ("ext", 3), ("trunc", 2), ("trunc", 3),
               ("trunc", 4), ("trunc", 5), ("upper", 2), ("upper", 3), ("upper", 4),
               ("diag", 1), ("diag", 2), ("diag", 3)]
    while True:
        blocks, left = [], dim
        while left:
            kind, size = rng.choice(choices)
            if ob.block_dim(kind, size) <= left:
                blocks.append((kind, size))
                left -= ob.block_dim(kind, size)
        if len(blocks) >= 2:
            return [ob.BLOCKS[k](F, s) for k, s in blocks]


def _ring_ladder(seed, rng, recipe, w) -> list[Op]:
    ops = []
    for i, (dim, (p, d)) in enumerate(LADDER):
        F = gf(p, d)
        A = ob.hide(ob.product(random_blocks(F, dim, recipe)), rng)
        name = w.put(f"ladder{i}.alg", ob.write_algebra(A))
        ops.append(Op(f"lift-idempotents/{i}/gf{F.q}/dim{dim}",
                      ["lift-idempotents", name, "--seed", str(seed)], dim,
                      {"verb": "lift-idempotents", "algebra_dim": dim,
                       "radical_dim": A.rad, "members": A.members}))
    return ops


# ---------------------------------------------------------------------------
# tower-module


def endo_dim(ks: list[int]) -> int:
    """dim End(sum of R/x^k) = sum over pairs of min(k_i, k_j)."""
    return sum(min(a, b) for a in ks for b in ks)


def random_summands(rng, nilpotency: int, endo: int) -> list[int]:
    """Cyclic summand lengths with a repeated length, module dimension
    6..13 and an endomorphism algebra within one of the given dimension."""
    for _ in range(100000):
        ks = [rng.randint(1, nilpotency) for _ in range(rng.randint(2, 5))]
        ks.append(rng.choice(ks))
        if 6 <= sum(ks) <= 13 and abs(endo_dim(ks) - endo) <= 1:
            return sorted(ks)
    raise ValueError(f"no summands of length <= {nilpotency} with dim End near {endo}")


# (field, algebra kind, order of x, endomorphism dimension): the cost of a
# decomposition grows steeply with dim End(M), so each slot pins it.  Nine
# modules and eight tower ops make 17 ops, so the median and the p70 tail
# fall inside one op's samples.
MODULE_SLOTS = [
    ((2, 1), "trunc", 6, 13), ((3, 1), "group", 9, 14), ((2, 2), "trunc", 5, 16),
    ((2, 1), "group", 8, 16), ((3, 1), "trunc", 6, 17), ((2, 2), "group", 4, 17),
    ((2, 1), "trunc", 7, 18), ((3, 1), "group", 3, 18), ((3, 1), "trunc", 6, 15),
]


def _module(w, rng, recipe, seed, tag, p, d, kind, order, endo) -> Op:
    F = gf(p, d)
    R = ob.trunc(F, order) if kind == "trunc" else ob.group(F, order)
    shift = ob.truncated_shift if kind == "trunc" else ob.group_shift(F)
    ks = random_summands(recipe, order, endo)
    act = ob.direct_sum_action([np.stack([shift(a, k) for a in range(R.dim)]) for k in ks])
    Q, Qinv = F.random_invertible(act.shape[1], rng)
    act = ob.conjugate_action(F, act, Q, Qinv)
    alg = w.put(f"{tag}_R.alg", ob.write_algebra(R))
    mod = w.put(f"{tag}.mod", ob.write_module(act, alg))
    class_sizes = sorted(ks.count(k) for k in set(ks))
    return Op(f"decompose-module/gf{F.q}/{kind}{order}/dim{sum(ks)}",
              ["decompose-module", mod, "--seed", str(seed)], sum(ks),
              {"verb": "decompose-module", "module_dim": sum(ks), "summand_dims": ks,
               "class_sizes": class_sizes})


def _hidden_levels(w, rng, tag, levels: list[ob.Alg], transitions: list[np.ndarray]):
    """Write each level behind its own basis change and conjugate the
    transitions (level n+1 -> n, row convention) to match."""
    F = levels[0].F
    bases = [F.random_invertible(A.dim, rng) for A in levels]
    refs = []
    for n, (A, (P, Pinv)) in enumerate(zip(levels, bases)):
        refs.append(w.put(f"{tag}_l{n}.alg", ob.write_algebra(ob.rebase(A, P, Pinv))))
    hidden = [F.matmul(F.matmul(bases[n + 1][0], T), bases[n][1])
              for n, T in enumerate(transitions)]
    return refs, hidden


def _tower(w, rng, recipe, tag, kind, p, d, depth):
    """Write a tower; return (file, level dims, radical dims, simple factors
    of the quotient tower, first level with a nonzero radical or -1)."""
    F = gf(p, d)
    if kind == "adic":
        levels = [ob.trunc(F, n + 1) for n in range(depth + 1)]
        transitions = [np.eye(n + 2, n + 1, dtype=np.int64) for n in range(depth)]
        factors = [(F.q, 1)]
        intent = "truncation"
    elif kind == "constant":
        A = ob.product(random_blocks(F, 8, recipe))
        levels = [A] * (depth + 1)
        transitions = [np.eye(A.dim, dtype=np.int64)] * depth
        factors = A.factors
        intent = "exact"
    else:
        blocks = [ob.product(random_blocks(F, recipe.choice([3, 4]), recipe))
                  for _ in range(depth + 1)]
        levels = [ob.product(blocks[:n + 1]) for n in range(depth + 1)]
        transitions = [np.eye(levels[n + 1].dim, levels[n].dim, dtype=np.int64)
                       for n in range(depth)]
        factors = sorted(f for b in blocks for f in b.factors)
        intent = "truncation"
    refs, hidden = _hidden_levels(w, rng, tag, levels, transitions)
    name = w.put(f"{tag}.twr", ob.write_tower(intent, refs, hidden))
    rads = [A.rad for A in levels]
    first = next((n for n, r in enumerate(rads) if r), -1)
    return name, [A.dim for A in levels], rads, factors, first


TOWER_SLOTS = [("adic", (2, 1), 3), ("constant", (3, 1), 2), ("blocks", (2, 2), 2),
               ("constant", (2, 1), 2)]


def _tower_module(seed, rng, recipe, w) -> list[Op]:
    mods = [_module(w, rng, recipe, seed, f"mod{i}", *slot[0], *slot[1:])
            for i, slot in enumerate(MODULE_SLOTS)]
    towers = []
    for i, (kind, (p, d), depth) in enumerate(TOWER_SLOTS):
        name, dims, rads, factors, first = _tower(w, rng, recipe, f"tower{i}", kind, p, d, depth)
        towers.append(Op(f"classify-perfect/gf{p ** d}/{kind}/depth{depth}",
                         ["classify-perfect", name, "--seed", str(seed)], sum(dims),
                         {"verb": "classify-perfect", "verdict": "PERFECT",
                          "radical_dims": rads, "quotient_factors": factors}))
        semisimple = first < 0
        towers.append(Op(f"classify-tower/gf{p ** d}/{kind}/depth{depth}",
                         ["classify-tower", name], sum(dims),
                         {"verb": "classify-tower",
                          "kind": "SEMISIMPLE" if semisimple else "NOT",
                          "factors": factors if semisimple else None,
                          "witness_level": None if semisimple else first}))
    # modules and tower verbs alternate, starting and ending with a module
    return [op for pair in zip(mods, towers) for op in pair] + mods[len(towers):]


# ---------------------------------------------------------------------------
# matrix-window


def _bases():
    F2, F9 = gf(2), gf(3, 2)
    one = (np.ones((1, 1, 1), dtype=np.int64), np.ones(1, dtype=np.int64))
    return {
        "f2": ob.Alg(F2, *one, 0, [(2, 1)]),
        "f2x2": ob.trunc(F2, 2),
        # 3 is prime to 2, so F2[C3] = F2 x F4 is semisimple
        "f2c3": dataclasses.replace(ob.group(F2, 3), rad=0, factors=[(2, 1), (4, 1)]),
        "mat2": ob.mat(F2, 2),
        "gf9": ob.Alg(F9, *one, 0, [(9, 1)]),
    }


MATRIX_WINDOWS = [4, 8, 12, 16]


def window_product(A: ob.Alg, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entries of a*b on the window: sum_y a[x,y] b[y,z] in the base."""
    F = A.F
    if F.d == 1:
        return np.einsum("xyi,yzj,ijk->xzk", a, b, A.c, dtype=np.int64) % F.p
    t = F.MUL[F.MUL[a[:, :, None, :, None, None], b[None, :, :, None, :, None]],
              A.c[None, None, None]]                                    # x y z i j k
    return F.fsum(t.transpose(0, 2, 5, 1, 3, 4).reshape(a.shape[0], b.shape[1], A.dim, -1),
                  axis=3)


def base_mul(A: ob.Alg, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    F = A.F
    return F.fsum(F.MUL[F.MUL[u[:, None], v[None, :]][:, :, None], A.c].reshape(-1, A.dim), axis=0)


def right_ideal(A: ob.Alg, rows: list[np.ndarray]) -> np.ndarray:
    """Canonical (reduced echelon) basis of the right ideal the rows generate."""
    F = A.F
    eye = np.eye(A.dim, dtype=np.int64)
    basis = np.zeros((0, A.dim), dtype=np.int64)
    todo = [np.asarray(r, dtype=np.int64) for r in rows]
    while todo:
        R, piv = F.rref(np.vstack([basis] + [t[None, :] for t in todo]))
        new = R[:len(piv)]
        if new.shape[0] == basis.shape[0]:
            break
        basis = new
        todo = [base_mul(A, u, e) for u in basis for e in eye]
    return basis


def _random_entries(F: Fq, rng, W: int, dim: int, density: float) -> np.ndarray:
    ent = np.zeros((W, W, dim), dtype=np.int64)
    for x in range(W):
        for z in range(W):
            if rng.random() < density:
                for t in range(dim):
                    ent[x, z, t] = rng.randrange(F.q)
    return ent


def _matrix_window(seed, rng, recipe, w) -> list[Op]:
    ops = []
    for name, A in _bases().items():
        alg = w.put(f"{name}.alg", ob.write_algebra(A))
        F = A.F
        for W in MATRIX_WINDOWS:
            for y_kind in ("finite", "omega"):
                a = _random_entries(F, rng, W, A.dim, 0.5)
                b = _random_entries(F, rng, W, A.dim, 0.5)
                extras = {}
                if y_kind == "omega":
                    for y in range(W):
                        if rng.random() < 0.3:
                            extras[(y, W + rng.randrange(3))] = np.array(
                                [rng.randrange(1, F.q)] + [rng.randrange(F.q) for _ in range(A.dim - 1)],
                                dtype=np.int64)
                tag = f"{name}_{y_kind}{W}"
                fa = w.put(f"{tag}_a.mat", ob.write_matrix(y_kind, a, {}, alg))
                fb = w.put(f"{tag}_b.mat", ob.write_matrix(y_kind, b, extras, alg))
                tails = [right_ideal(A, [base_mul(A, a[x, y], v) for (y, _), v in extras.items()
                                         if a[x, y].any()]) for x in range(W)]
                ops.append(Op(f"matmul/{name}/{y_kind}/w{W}", ["matmul", fa, fb], W,
                              {"verb": "matmul", "base": name, "window": W, "y_kind": y_kind,
                               "entries": window_product(A, a, b), "tails": tails}))
        # (ab)c = a(bc) on a seeded triple: the products are written as inputs
        W = 8
        a, b, c = (_random_entries(F, rng, W, A.dim, 0.5) for _ in range(3))
        ab, bc = window_product(A, a, b), window_product(A, b, c)
        files = {k: w.put(f"{name}_assoc_{k}.mat", ob.write_matrix("finite", v, {}, alg))
                 for k, v in (("a", a), ("c", c), ("ab", ab), ("bc", bc))}
        abc = window_product(A, ab, c)
        for left, right in (("ab", "c"), ("a", "bc")):
            ops.append(Op(f"matmul/{name}/assoc-{left}.{right}/w{W}",
                          ["matmul", files[left], files[right]], W,
                          {"verb": "matmul", "base": name, "window": W, "y_kind": "finite",
                           "entries": abc, "tails": [np.zeros((0, A.dim), dtype=np.int64)] * W}))
        # contraction of a right module against R^X: fp_dim = X * dim * d
        for copies, X in ((1, 3), (2, 2)):
            act = ob.direct_sum_action([np.stack([A.c[:, a, :] for a in range(A.dim)])] * copies)
            Q, Qinv = F.random_invertible(act.shape[1], rng)
            mod = w.put(f"{name}_reg{copies}.mod",
                        ob.write_module(ob.conjugate_action(F, act, Q, Qinv), alg))
            m = act.shape[1]
            tensor = m * F.d * A.dim * F.d * X
            ops.append(Op(f"contratensor/{name}/dim{m}/x{X}",
                          ["contratensor", mod, "--window", str(X)], m,
                          {"verb": "contratensor", "p": F.p, "x_count": X,
                           "tensor_dim": tensor, "fp_dim": X * m * F.d,
                           "relation_rank": tensor - X * m * F.d}))
    return ops

"""Verification suites behind the `verify` subcommand and the gate tests.

Each suite runs a pinned batch of checks against independent oracles or
construction ground truth and returns a transcript report.  Reports
contain counts and frozen values, never timings, so a rerun with the
same seed must reproduce them byte for byte; the last suite does exactly
that rerun and fails on any drift.
"""

import random
from dataclasses import dataclass

import numpy as np

from . import corpus, linalg, serialize
from .algebras import (
    StructureAlgebra,
    basis_change,
    cyclic_group_algebra,
    field_algebra,
    field_extension_algebra,
    matrix_algebra,
    product_algebra,
    quotient,
    radical,
    radical_bruteforce,
    subalgebra_closure,
    subalgebra_structure,
    truncated_poly_algebra,
    upper_triangular_algebra,
)
from .endo import (
    bass_flat,
    perfectness_bridge,
    polynomial_adic_system,
    sample_sequence,
    split_omega_limit_check,
)
from .fields import GF
from .lifting import lift_family_from_quotient, lift_idempotent, orthogonalize
from .matrixtop import (
    contratensor,
    elementary_matrix,
    free_contra_corner,
    identity_matrix,
    ideal_member,
    mat_mul,
    matrix_algebra_over,
    open_matrix_ideal,
    row_family,
    shift_matrix,
    transport_discrete,
    windowed,
)
from .modules import (
    FiniteModule,
    ModuleFamily,
    cyclic_submodule,
    direct_sum,
    hom_space,
    quotient_module,
    right_regular_module,
)
from .towers import (
    classify_perfect,
    classify_semisimple,
    constant_tower,
    topological_jacobson_radical,
    tp_formula_check,
)
from .wedderburn import wedderburn


@dataclass
class SuiteResult:
    name: str
    checks: int
    report: str


def _report(name: str, seed: int) -> serialize.Report:
    rep = serialize.Report("suite")
    rep.add("name", name)
    rep.add("seed", seed)
    return rep


def _result(rep: serialize.Report, name: str, checks: int) -> SuiteResult:
    rep.add("checks", checks)
    return SuiteResult(name=name, checks=checks, report=rep.text())


# ---------------------------------------------------------------------------
# 1. Radical against the brute-force definition
# ---------------------------------------------------------------------------


def _named_radical_examples():
    F2, F3 = GF(2), GF(3)
    out = [(f"F2[x]/(x^{n})", truncated_poly_algebra(F2, n)) for n in (2, 3, 4)]
    out += [(f"F3[x]/(x^{n})", truncated_poly_algebra(F3, n)) for n in (2, 3)]
    out += [
        ("Mat2(F2)", matrix_algebra(F2, 2)),
        ("Mat2(F3)", matrix_algebra(F3, 2)),
        ("Mat2(F4)", matrix_algebra(GF(2, 2), 2)),
        ("T2(F2)", upper_triangular_algebra(F2, 2)),
        ("F2[C3]", cyclic_group_algebra(F2, 3)),
    ]
    return out


def _random_subalgebra(ambient: StructureAlgebra, rng, max_dim: int):
    gens = np.stack([ambient.random_element(rng) for _ in range(2)])
    span = subalgebra_closure(ambient, np.vstack([ambient.unit[None, :], gens]))
    if span.shape[0] > max_dim:
        return None
    B, _ = subalgebra_structure(ambient, span, ambient.unit)
    return B


def suite_radical(seed: int = 0) -> SuiteResult:
    rep = _report("radical-correctness", seed)
    checks = 0
    for label, A in _named_radical_examples():
        H = radical(A)
        if not np.array_equal(H.basis, radical_bruteforce(A)):
            raise AssertionError(f"radical oracle mismatch on {label}")
        rep.add("named", label, A.dim, H.dim)
        checks += 1
    F2, F3 = GF(2), GF(3)
    ambients = {
        2: [matrix_algebra(F2, 3), upper_triangular_algebra(F2, 3),
            product_algebra(upper_triangular_algebra(F2, 2), truncated_poly_algebra(F2, 2))],
        3: [upper_triangular_algebra(F3, 3), matrix_algebra(F3, 2),
            product_algebra(truncated_poly_algebra(F3, 2), truncated_poly_algebra(F3, 2))],
    }
    found = 0
    attempt = 0
    while found < 50:
        p = 2 if found % 2 == 0 else 3
        # keep the exhaustive oracle affordable: q^dim <= 256
        max_dim = 6 if p == 2 else 5
        rng = random.Random(seed * 100003 + attempt)
        attempt += 1
        B = _random_subalgebra(ambients[p][found % 3], rng, max_dim)
        if B is None:
            continue
        H = radical(B)
        if not np.array_equal(H.basis, radical_bruteforce(B)):
            raise AssertionError(f"radical oracle mismatch on random algebra {found}")
        rep.add("random", found, p, B.dim, H.dim)
        found += 1
        checks += 1
    return _result(rep, "radical-correctness", checks)


# ---------------------------------------------------------------------------
# 2. Wedderburn decomposition against construction ground truth
# ---------------------------------------------------------------------------


def _random_semisimple(p: int, rng):
    F = GF(p)
    pool = [
        (lambda: field_algebra(F), (p, 1), 1),
        (lambda: field_extension_algebra(F, 2), (p * p, 1), 2),
        (lambda: matrix_algebra(F, 2), (p, 2), 4),
        (lambda: matrix_algebra(F, 3), (p, 3), 9),
    ]
    blocks = []
    truth = []
    total = 0
    for _ in range(int(rng.integers(1, 4))):
        make, pair, d = pool[int(rng.integers(0, len(pool)))]
        if total + d > 12:
            continue
        blocks.append(make())
        truth.append(pair)
        total += d
    A = blocks[0]
    for B in blocks[1:]:
        A = product_algebra(A, B)
    return A, sorted(truth)


def _random_invertible(F, n: int, rng) -> np.ndarray:
    while True:
        P = rng.integers(0, F.q, size=(n, n)).astype(np.int64)
        if linalg.is_invertible(F, P):
            return P


def suite_wedderburn(seed: int = 0) -> SuiteResult:
    rep = _report("wedderburn-round-trip", seed)
    checks = 0
    for i in range(20):
        p = 2 if i % 2 == 0 else 3
        rng = np.random.default_rng(seed * 7919 + i)
        A, truth = _random_semisimple(p, rng)
        B = basis_change(A, _random_invertible(A.field, A.dim, rng))
        W = wedderburn(B, seed=seed + i)
        if W.summary() != truth:
            raise AssertionError(f"factor multiset mismatch on instance {i}")
        rep.add("instance", i, p, B.dim, *[t for pair in truth for t in pair])
        checks += 1
    return _result(rep, "wedderburn-round-trip", checks)


# ---------------------------------------------------------------------------
# 3. Idempotent lifting identities
# ---------------------------------------------------------------------------


def _lifting_pool():
    F2, F3 = GF(2), GF(3)
    mat2_dual = matrix_algebra_over(truncated_poly_algebra(F2, 2), 2)
    return [
        upper_triangular_algebra(F2, 2),
        upper_triangular_algebra(F3, 2),
        truncated_poly_algebra(F2, 2),
        truncated_poly_algebra(F2, 3),
        truncated_poly_algebra(F3, 3),
        upper_triangular_algebra(F2, 3),
        mat2_dual,
        product_algebra(upper_triangular_algebra(F2, 2), truncated_poly_algebra(F2, 2)),
        product_algebra(truncated_poly_algebra(F3, 2), field_algebra(F3)),
        cyclic_group_algebra(F2, 2),
    ]


def suite_lifting(seed: int = 0) -> SuiteResult:
    rep = _report("idempotent-lifting", seed)
    checks = 0
    pool = _lifting_pool()
    prepared = []
    for A in pool:
        H = radical(A)
        Q, proj, section = quotient(A, H)
        prim = wedderburn(Q, seed=seed).primitive_family()
        prepared.append((A, H, proj, section, prim))

    singles = 0
    for i in range(50):
        A, H, proj, section, prim = prepared[i % len(pool)]
        rng = random.Random(seed * 65537 + i)
        subset = [z for z in range(prim.shape[0]) if rng.getrandbits(1)]
        f = linalg.matvec(A.field, A.field.fsum(prim[subset], axis=0), section)
        e = lift_idempotent(A, f, H)
        if not A.is_idempotent(e):
            raise AssertionError(f"lift {i} is not idempotent")
        if not H.contains(A.field.sub(e, f)):
            raise AssertionError(f"lift {i} left its congruence class")
        singles += 1
        checks += 1
    rep.add("single_lifts", singles)

    families = 0
    for i in range(20):
        A, H, proj, section, prim = prepared[i % len(pool)]
        side = "left" if i % 2 == 0 else "right"
        fam = lift_family_from_quotient(A, H, proj, section, prim, side=side)
        for z in range(prim.shape[0]):
            if not np.array_equal(linalg.matvec(A.field, fam.rows[z], proj), prim[z]):
                raise AssertionError(f"family {i} member {z} projects wrong")
        families += 1
        checks += 1
    rep.add("family_lifts", families)

    unchanged = 0
    for i in range(5):
        A, H, proj, section, prim = prepared[i]
        fam = lift_family_from_quotient(A, H, proj, section, prim, side="left")
        again = orthogonalize(A, fam.rows, H, side="left")
        if not np.array_equal(again.u, A.unit):
            raise AssertionError(f"exactly orthogonal input {i} produced u != 1")
        if not np.array_equal(again.rows, fam.rows):
            raise AssertionError(f"exactly orthogonal input {i} was changed")
        unchanged += 1
        checks += 1
    rep.add("u_equals_one", unchanged)
    return _result(rep, "idempotent-lifting", checks)


# ---------------------------------------------------------------------------
# 4. Matrix topology
# ---------------------------------------------------------------------------


def _random_windowed(base, y_kind, W, rng):
    entries = rng.integers(0, base.field.q, size=(W, W, base.dim)).astype(np.int64)
    return windowed(base, y_kind, entries, check=False)


def suite_matrix_topology(seed: int = 0) -> SuiteResult:
    F2 = GF(2)
    DUAL = truncated_poly_algebra(F2, 2)
    bases = [field_algebra(F2), DUAL, cyclic_group_algebra(F2, 3)]
    rep = _report("matrix-topology", seed)
    checks = 0

    assoc = 0
    for i in range(300):
        base = bases[i % 3]
        y_kind = "finite" if i % 2 == 0 else "omega"
        W = 3 + (i % 4)
        rng = np.random.default_rng(seed * 4099 + i)
        a, b, c = (_random_windowed(base, y_kind, W, rng) for _ in range(3))
        if mat_mul(mat_mul(a, b), c) != mat_mul(a, mat_mul(b, c)):
            raise AssertionError(f"associativity failed on triple {i}")
        assoc += 1
        checks += 1
    rep.add("associativity_triples", assoc)

    delta = 0
    for base in bases[:2]:
        for y_kind in ("finite", "omega"):
            for (i, j, k, l) in ((0, 1, 1, 2), (0, 1, 0, 2), (1, 2, 2, 0), (2, 0, 1, 3)):
                lhs = mat_mul(elementary_matrix(base, y_kind, 4, i, j),
                              elementary_matrix(base, y_kind, 4, k, l))
                want = elementary_matrix(base, y_kind, 4, i, l) if j == k else \
                    windowed(base, y_kind, np.zeros((4, 4, base.dim), dtype=np.int64))
                if lhs != want:
                    raise AssertionError(f"delta rule failed at E_{i}{j} E_{k}{l}")
                delta += 1
                checks += 1
    rep.add("delta_rule", delta)

    rng = np.random.default_rng(seed * 193)
    before = checks
    for base in bases:
        one = identity_matrix(base, "finite", 4)
        for _ in range(5):
            a = _random_windowed(base, "finite", 4, rng)
            if mat_mul(one, a) != a or mat_mul(a, one) != a:
                raise AssertionError("unit law failed")
            checks += 1
    rep.add("unit_laws", checks - before)

    xrow = np.array([[0, 1]], dtype=np.int64)
    K = open_matrix_ideal(DUAL, [0, 1], xrow)
    members = 0
    rng = np.random.default_rng(seed * 331)
    for _ in range(100):
        entries = rng.integers(0, 2, size=(4, 4, 2)).astype(np.int64)
        entries[0:2, :, 0] = 0  # rows of X carry only multiples of x
        k = windowed(DUAL, "finite", entries, check=False)
        a = _random_windowed(DUAL, "finite", 4, rng)
        if ideal_member(mat_mul(k, a), K).kind != "MEMBER":
            raise AssertionError("right ideal property failed")
        members += 1
        checks += 1
    rep.add("right_ideal_products", members)

    E2 = matrix_algebra_over(DUAL, 2)
    E3 = matrix_algebra_over(DUAL, 3)
    rng = np.random.default_rng(seed * 739)
    hom_pairs = 0
    for i in range(10):
        k, E = (2, E2) if i % 2 == 0 else (3, E3)
        N = _rand_right_module(DUAL, rng)
        N2 = _rand_right_module(DUAL, rng)
        small = hom_space(N, N2).shape[0]
        big = hom_space(transport_discrete(N, k, ring=E).module,
                        transport_discrete(N2, k, ring=E).module).shape[0]
        if small != big:
            raise AssertionError(f"hom cardinality changed under transport on pair {i}")
        rep.add("hom_pair", i, k, small)
        hom_pairs += 1
        checks += 1

    corners = 0
    for base in (field_algebra(F2), DUAL):
        for size in (2, 3, 4):
            fc = free_contra_corner(base, "finite", size, 0)
            if fc.module.dim != size * base.dim:
                raise AssertionError("finite corner is not the free module")
            ident = identity_matrix(base, "finite", size)
            for y in range(size):
                if not np.array_equal(fc.point_measure(y), ident.entries[y].reshape(-1)):
                    raise AssertionError("point measure is not an identity row")
            corners += 1
            checks += 1
    for W in (2, 3, 4):
        fc = free_contra_corner(DUAL, "omega", W, 0, tail_basis=xrow)
        for y in range(W):
            if fc.point_measure(y).point_measure_at() != y:
                raise AssertionError("omega point measure misplaced")
        sh = shift_matrix(DUAL, W)
        for x in range(W - 1):
            fam = row_family(sh, x)
            if fam.support != (x + 1,):
                raise AssertionError("shift row support is wrong")
        corners += 1
        checks += 1
    rep.add("corner_checks", corners)
    return _result(rep, "matrix-topology", checks)


def _rand_right_module(R, rng):
    big = direct_sum([right_regular_module(R)] * int(rng.integers(1, 3)))
    v = rng.integers(0, R.field.q, size=big.dim).astype(np.int64)
    sub = cyclic_submodule(big, v)
    if 0 < sub.shape[0] < big.dim and rng.integers(0, 2):
        return quotient_module(big, sub)[0]
    return big


# ---------------------------------------------------------------------------
# 5. Contratensor closed form
# ---------------------------------------------------------------------------


def suite_contratensor(seed: int = 0) -> SuiteResult:
    F2, F3 = GF(2), GF(3)
    DUAL = truncated_poly_algebra(F2, 2)
    S, _, _ = quotient_module(right_regular_module(DUAL),
                              np.array([[0, 1]], dtype=np.int64))
    pool = [
        right_regular_module(DUAL),
        S,
        right_regular_module(cyclic_group_algebra(F2, 3)),
        right_regular_module(upper_triangular_algebra(F2, 2)),
        right_regular_module(truncated_poly_algebra(F3, 2)),
        direct_sum([S, right_regular_module(DUAL)]),
        corpus_natural_mat2(),
        right_regular_module(truncated_poly_algebra(F2, 3)),
        right_regular_module(upper_triangular_algebra(F3, 2)),
        right_regular_module(field_algebra(F3)),
    ]
    rep = _report("contratensor", seed)
    checks = 0
    for i, N in enumerate(pool):
        x_count = 1 + (i % 4)
        r = contratensor(N, x_count)
        F = N.algebra.field
        want = x_count * N.dim * F.d
        if r.fp_dim != want:
            raise AssertionError(f"instance {i}: contratensor is not N^X")
        if r.cardinality != F.p ** want:
            raise AssertionError(f"instance {i}: cardinality mismatch")
        if r.tensor_dim - r.relation_rank != r.fp_dim:
            raise AssertionError(f"instance {i}: relation rank inconsistent")
        if r.fp_dim and linalg.rank(GF(F.p), r.iso % F.p) != r.fp_dim:
            raise AssertionError(f"instance {i}: induced map is not onto")
        rep.add("instance", i, x_count, r.tensor_dim, r.fp_dim)
        checks += 1
    return _result(rep, "contratensor", checks)


def corpus_natural_mat2() -> FiniteModule:
    return corpus.mat2_natural_module(matrix_algebra(GF(2), 2))


# ---------------------------------------------------------------------------
# 6. Radical formula on the bundled towers
# ---------------------------------------------------------------------------


BUNDLED_TOWERS = ["adic4.twr", "blocks2.twr", "const_f2c3.twr"]


def suite_tp_formula(seed: int = 0) -> SuiteResult:
    rep = _report("tp-formula", seed)
    checks = 0
    loader = serialize.Loader()
    for name in BUNDLED_TOWERS:
        T = loader.tower(corpus.path(name))
        H = topological_jacobson_radical(T)
        pairs = tp_formula_check(T, H)
        F = T.levels[0].field
        for n in range(T.depth):
            image = linalg.row_space_basis(
                F, linalg.matmul(F, H.ideals[n + 1].basis, T.transitions[n]))
            if not np.array_equal(image, H.ideals[n].basis):
                raise AssertionError(f"{name}: radical transition {n} is not onto")
        rep.add("tower", name, T.depth, pairs, *[I.dim for I in H.ideals])
        checks += pairs + T.depth
    return _result(rep, "tp-formula", checks)


# ---------------------------------------------------------------------------
# 7. Discrete perfectness coherence
# ---------------------------------------------------------------------------


def _finite_ring_pool():
    F2, F3 = GF(2), GF(3)
    return [
        truncated_poly_algebra(F2, 2),
        truncated_poly_algebra(F2, 3),
        truncated_poly_algebra(F3, 2),
        cyclic_group_algebra(F2, 3),
        cyclic_group_algebra(F2, 2),
        matrix_algebra(F2, 2),
        upper_triangular_algebra(F2, 2),
        field_extension_algebra(F2, 2),
        product_algebra(upper_triangular_algebra(F2, 2), truncated_poly_algebra(F2, 2)),
        upper_triangular_algebra(F3, 2),
    ]


def suite_perfectness(seed: int = 0) -> SuiteResult:
    rep = _report("perfectness-coherence", seed)
    checks = 0
    for i, R in enumerate(_finite_ring_pool()):
        T = constant_tower(R, 2, intent="exact")
        verdict = classify_perfect(T, sizes=2, seed=seed).verdict
        if verdict != "PERFECT":
            raise AssertionError(f"finite ring {i} not classified PERFECT")
        checks += 1
        flats = 0
        seqs = np.stack([sample_sequence(R, 6, seed * 1009 + j) for j in range(100)])
        for j, d in enumerate(bass_flat(R, seqs)):
            if d.verdict != "PROJECTIVE":
                raise AssertionError(f"ring {i} sequence {j}: colimit not projective")
            flats += 1
            checks += 1
        rep.add("ring", i, R.dim, verdict, flats)
    return _result(rep, "perfectness-coherence", checks)


# ---------------------------------------------------------------------------
# 8. The negative showcase family
# ---------------------------------------------------------------------------


def _chain_family(depth: int) -> ModuleFamily:
    system = polynomial_adic_system(GF(2), depth)
    return ModuleFamily(members=system.modules,
                        labels=[f"level_{n}" for n in range(1, depth + 1)],
                        truncated=True)


def suite_showcase(seed: int = 0) -> SuiteResult:
    rep = _report("negative-showcase", seed)
    fam6 = _chain_family(6)
    checks = 0

    bridge = perfectness_bridge(fam6, depth=5, seed=seed, refinement=_chain_family(7))
    verdict = bridge.perfect
    if verdict.verdict != "NOT_PERFECT" or verdict.witness is None:
        raise AssertionError("truncation family was not rejected")
    if verdict.witness.length() < 5:
        raise AssertionError("nonisomorphism chain is too short")
    rep.add("decomposition", verdict.verdict, verdict.witness.length())
    checks += 1

    split = split_omega_limit_check(polynomial_adic_system(GF(2), 6))
    if split.kind != "NOT_SPLIT" or split.obstruction is None:
        raise AssertionError("chain system was not obstructed")
    if split.obstruction.socle_heights != list(range(6)):
        raise AssertionError("socle heights drifted")
    rep.add("split", split.kind, *split.obstruction.socle_heights)
    checks += 1

    sigma = bridge.sigma
    if sigma.kind != "witness" or sigma.max_length < 5:
        raise AssertionError("no descending cyclic chain of length 5")
    if not sigma.refinement_verified:
        raise AssertionError("chain did not survive the refinement")
    rep.add("sigma", sigma.kind, sigma.copies, sigma.max_length, 1)
    checks += 1

    if not bridge.consistent:
        raise AssertionError("verdict pipelines disagree")
    rep.add("bridge", verdict.verdict, sigma.kind)
    checks += 1
    return _result(rep, "negative-showcase", checks)


# ---------------------------------------------------------------------------
# 9. Semisimple tower recognition
# ---------------------------------------------------------------------------


def suite_semisimple(seed: int = 0) -> SuiteResult:
    rep = _report("semisimple-recognition", seed)
    loader = serialize.Loader()
    blocks = classify_semisimple(loader.tower(corpus.path("blocks2.twr")))
    if blocks.kind != "SEMISIMPLE":
        raise AssertionError("block tower not recognized")
    if blocks.factors != [(2, 1), (2, 2), (4, 1)]:
        raise AssertionError(f"factor multiset drifted: {blocks.factors}")
    rep.add("blocks2", blocks.kind, *[t for pair in blocks.factors for t in pair])
    adic = classify_semisimple(loader.tower(corpus.path("adic4.twr")))
    if adic.kind != "NOT" or adic.witness_level != 1:
        raise AssertionError("adic tower not rejected at level 1")
    rep.add("adic4", adic.kind, adic.witness_level)
    return _result(rep, "semisimple-recognition", 2)


# ---------------------------------------------------------------------------
# 10. Determinism
# ---------------------------------------------------------------------------


BASE_SUITES = [
    ("radical-correctness", suite_radical),
    ("wedderburn-round-trip", suite_wedderburn),
    ("idempotent-lifting", suite_lifting),
    ("matrix-topology", suite_matrix_topology),
    ("contratensor", suite_contratensor),
    ("tp-formula", suite_tp_formula),
    ("perfectness-coherence", suite_perfectness),
    ("negative-showcase", suite_showcase),
    ("semisimple-recognition", suite_semisimple),
]


def suite_determinism(seed: int = 0,
                      first_runs: dict[str, str] | None = None) -> SuiteResult:
    """Rerun every suite and compare transcripts byte for byte.

    Pass the reports of an earlier run to compare against it; otherwise
    each suite is run twice here.
    """
    rep = _report("determinism", seed)
    checks = 0
    for name, fn in BASE_SUITES:
        baseline = first_runs[name] if first_runs else fn(seed).report
        again = fn(seed).report
        if baseline != again:
            raise AssertionError(f"suite {name} is not deterministic")
        rep.add("identical", name, 1)
        checks += 1
    return _result(rep, "determinism", checks)


def run_all(seed: int = 0) -> list[SuiteResult]:
    """All ten suites; the determinism pass reruns the other nine."""
    results = [fn(seed) for _, fn in BASE_SUITES]
    first = {r.name: r.report for r in results}
    results.append(suite_determinism(seed, first_runs=first))
    return results

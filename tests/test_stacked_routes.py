"""Structured stacks built as whole-stack products against the per-entry
loops they replaced (tests/oracles.py): prime restrictions, matrix units
with their relation check, transport and corner actions, contratensor
relations and iso, regular actions, the level modules of a tower, right
null bases and Hom spaces, the powers and trace forms of the radical, the
greedy chain of cyclic submodules, the stacked window bases, the
prefix chains of a stack of Bass sequences and the products of windowed
matrices.

Inputs are every bundled module and tower, the algebras of the lifting and
perfectness suites, small algebras over GF(2), GF(3), GF(4), GF(5), GF(8)
and GF(9), and random matrices over GF(2), GF(3), GF(4) and GF(9)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bass_flat_loop,
    batch_power_loop,
    contratensor_loop,
    corner_action_loop,
    greedy_chain_loop,
    hom_space_loop,
    ideal_closure_loop,
    level_action_loop,
    mat_mul_loop,
    matrix_unit_relation_failure,
    matrix_units_loop,
    naive_rref,
    prime_restriction_per_matrix,
    regular_actions_loop,
    right_null_basis_loop,
    trace_gram_loop,
    transport_action_loop,
)
from topring import acceptance, algebras, cli, corpus, endo, linalg, matrixtop
from topring.algebras import (
    InternalInconsistencyError,
    StructureAlgebra,
    SubspaceIdeal,
    cyclic_group_algebra,
    field_algebra,
    ideal_span,
    matrix_algebra,
    peirce_corner,
    quotient,
    radical,
    truncated_poly_algebra,
    upper_triangular_algebra,
)
from topring.fields import GF
from topring.matrixtop import (
    WindowError,
    contratensor,
    free_contra_corner,
    mat_mul,
    transport_discrete,
    windowed,
)
from topring.modules import (
    FiniteModule,
    direct_sum,
    hom_space,
    left_regular_module,
    right_regular_module,
)
from topring.serialize import Loader
from topring.towers import _level_as_module, adic_tower, constant_tower
from topring.wedderburn import (
    central_primitive_idempotents,
    matrix_units_from_family,
    primitive_orthogonal_family,
)

FIELDS = [GF(2), GF(3), GF(2, 2), GF(2, 3), GF(3, 2)]
FIELD_ALGEBRAS = [A for F in FIELDS for A in (
    field_algebra(F), truncated_poly_algebra(F, 2), upper_triangular_algebra(F, 2),
    matrix_algebra(F, 2))]
POOL = acceptance._lifting_pool() + acceptance._finite_ring_pool()
ALGEBRAS = POOL + FIELD_ALGEBRAS
BUNDLED_MODULES = sorted(n for n in corpus.render_all() if n.endswith(".mod"))
BUNDLED_TOWERS = sorted(n for n in corpus.render_all() if n.endswith(".twr"))


def _bundled(name):
    return Loader().load(corpus.path(name))


def _blocks(A):
    """(B, family): each simple block of A/rad A with a complete primitive
    orthogonal family of it."""
    Q = quotient(A, radical(A))[0] if radical(A).dim else A
    out = []
    for eps in central_primitive_idempotents(Q):
        B, _ = peirce_corner(Q, eps)
        out.append((B, primitive_orthogonal_family(B, random.Random(0))))
    return out


# ---------------------------------------------------------------------------
# prime restriction


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS), st.lists(st.integers(0, 3), max_size=2),
       st.integers(0, 3), st.integers(0, 3), st.integers(0, 2 ** 31))
def test_stacked_prime_restriction_matches_per_matrix(F, lead, m, n, seed):
    M = np.random.default_rng(seed).integers(0, F.q, size=(*lead, m, n))
    out = linalg.prime_restriction(F, M)
    assert out.shape == (*lead, m * F.d, n * F.d)
    assert np.array_equal(out, prime_restriction_per_matrix(F, M))


@pytest.mark.parametrize("A", ALGEBRAS, ids=repr)
def test_prime_restriction_of_structure_constants(A):
    assert np.array_equal(linalg.prime_restriction(A.field, A.c),
                          prime_restriction_per_matrix(A.field, A.c))


# ---------------------------------------------------------------------------
# matrix units


@pytest.mark.parametrize("A", ALGEBRAS + [matrix_algebra(F, 3) for F in FIELDS], ids=repr)
def test_matrix_units_match_the_product_loop(A):
    for B, fam in _blocks(A):
        assert np.array_equal(matrix_units_from_family(B, fam), matrix_units_loop(B, fam))


@pytest.mark.parametrize("F", [GF(2), GF(3), GF(2, 2)], ids=str)
@pytest.mark.parametrize("slot", [(0, 0), (0, 2), (1, 0), (1, 2), (2, 1), (2, 2)])
def test_forged_matrix_unit_names_the_first_failing_quadruple(monkeypatch, F, slot):
    (B, fam), = _blocks(matrix_algebra(F, 3))
    products = B.mul_pairs
    forged = []

    def forge_units_once(X, Y):
        # the first product is E_ij = E_i0 * E_0j; corrupt one unit of it
        out = products(X, Y)
        if not forged:
            out = out.copy()
            out[slot] = F.add(out[slot], B.unit)
            forged.append(out)
        return out

    monkeypatch.setattr(B, "mul_pairs", forge_units_once)
    with pytest.raises(InternalInconsistencyError) as err:
        matrix_units_from_family(B, fam)
    first = matrix_unit_relation_failure(B, forged[0])
    assert first is not None
    assert str(err.value) == f"matrix unit relation fails at {first}"


# ---------------------------------------------------------------------------
# actions


@pytest.mark.parametrize("A", ALGEBRAS, ids=repr)
def test_regular_actions_match_the_per_element_loop(A):
    right, left = regular_actions_loop(A)
    assert np.array_equal(right_regular_module(A).action, right)
    assert np.array_equal(left_regular_module(A).action, left)


@pytest.mark.parametrize("A", ALGEBRAS, ids=repr)
def test_corner_action_matches_the_block_loop(A):
    for window in (1, 2, 3):
        corner = free_contra_corner(A, "finite", window, 0)
        assert np.array_equal(corner.module.action, corner_action_loop(A, window))


@pytest.mark.parametrize("name", BUNDLED_MODULES)
def test_transport_action_of_bundled_modules(name):
    N = _bundled(name)
    for k in (1, 2, 3):
        assert np.array_equal(transport_discrete(N, k).module.action, transport_action_loop(N, k))


@pytest.mark.parametrize("A", ALGEBRAS, ids=repr)
def test_transport_action_of_regular_modules(A):
    N = right_regular_module(A)
    for k in (1, 2):
        assert np.array_equal(transport_discrete(N, k).module.action, transport_action_loop(N, k))


# ---------------------------------------------------------------------------
# contratensor


def _assert_contratensor_matches_loop(N, x_count):
    res = contratensor(N, x_count)
    rels, iso = contratensor_loop(N, x_count)
    assert np.array_equal(res.relations, rels)
    assert np.array_equal(res.iso, iso)


@pytest.mark.parametrize("name", BUNDLED_MODULES)
@pytest.mark.parametrize("window", [0, 1, 2, 3])
def test_contratensor_of_bundled_modules(name, window):
    _assert_contratensor_matches_loop(_bundled(name), window)


@pytest.mark.parametrize("A", POOL + [A for A in FIELD_ALGEBRAS if A.dim <= 2], ids=repr)
def test_contratensor_of_regular_modules(A):
    for window in (0, 1, 2):
        _assert_contratensor_matches_loop(right_regular_module(A), window)


# ---------------------------------------------------------------------------
# level modules of a tower


TOWERS = ([(name, _bundled(name)) for name in BUNDLED_TOWERS]
          + [(f"constant-{A!r}-{i}", constant_tower(A, 2)) for i, A in enumerate(POOL)]
          + [(f"adic-{F}", adic_tower(F, 3)) for F in FIELDS])


@pytest.mark.parametrize("T", [T for _, T in TOWERS], ids=[label for label, _ in TOWERS])
def test_level_module_matches_the_per_element_loop(T):
    for m in range(T.depth + 1):
        for n in range(m):
            assert np.array_equal(_level_as_module(T, m, n).action, level_action_loop(T, m, n))


# ---------------------------------------------------------------------------
# right null bases and Hom spaces


@pytest.mark.parametrize("F", [GF(2), GF(3), GF(2, 2), GF(3, 2)], ids=str)
def test_right_null_basis_matches_the_entry_loop(F):
    rng = np.random.default_rng(F.q)
    for _ in range(150):
        m, n = rng.integers(0, 7, size=2)
        M = rng.integers(0, F.q, size=(m, n))
        # low-rank inputs too: rows repeated through a random combination
        if m > 1 and rng.integers(2):
            M = linalg.matmul(F, rng.integers(0, F.q, size=(m, 1)), M[:1])
        out = linalg.right_null_basis(F, M)
        assert np.array_equal(out, right_null_basis_loop(F, M))
        assert not linalg.matmul(F, M, out.T).any()


def _assert_hom_space_matches_loop(M, N):
    assert np.array_equal(hom_space(M, N), hom_space_loop(M, N))


@pytest.mark.parametrize("name", BUNDLED_MODULES)
def test_hom_space_of_bundled_modules(name):
    N = _bundled(name)
    reg = right_regular_module(N.algebra) if N.side == "right" else left_regular_module(N.algebra)
    zero = FiniteModule(N.algebra, np.zeros((N.algebra.dim, 0, 0), dtype=np.int64), side=N.side)
    for M, P in ((N, N), (N, reg), (reg, N), (zero, N), (N, zero)):
        _assert_hom_space_matches_loop(M, P)


@pytest.mark.parametrize("A", ALGEBRAS, ids=repr)
def test_hom_space_of_regular_modules(A):
    right, left = right_regular_module(A), left_regular_module(A)
    _assert_hom_space_matches_loop(right, right)
    _assert_hom_space_matches_loop(left, left)


# ---------------------------------------------------------------------------
# powers and trace forms of the radical


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("e", [1, 2, 3, 4, 5, 8, 9, 16, 25, 27])
def test_batch_power_mod_matches_repeated_products(p, e):
    rng = np.random.default_rng(100 * p + e)
    m = p ** 3
    # entries past the modulus too: the power starts from W mod m
    W = rng.integers(0, 3 * m, size=(3, 4, 4))
    assert np.array_equal(algebras._batch_power_mod(W, e, m), batch_power_loop(W, e, m))


def test_batch_power_mod_rejects_exponent_zero():
    with pytest.raises(ValueError):
        algebras._batch_power_mod(np.zeros((1, 2, 2), dtype=np.int64), 0, 2)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_level_zero_gram_matches_the_pair_loop(p):
    rng = np.random.default_rng(p)
    for m, N in [(0, 2), (1, 1), (3, 4), (7, 5)]:
        mats = rng.integers(0, p, size=(m, N, N))
        assert np.array_equal(algebras._trace_gram(mats, p, 0), trace_gram_loop(mats, p, 0))


GRAM_ALGEBRAS = [
    upper_triangular_algebra(GF(2, 3), 2), truncated_poly_algebra(GF(2, 3), 3),
    truncated_poly_algebra(GF(3, 2), 2), truncated_poly_algebra(GF(5), 5),
    truncated_poly_algebra(GF(2), 4), matrix_algebra(GF(2), 2), matrix_algebra(GF(2, 2), 2),
    matrix_algebra(GF(3), 3), upper_triangular_algebra(GF(3), 2),
]


@pytest.mark.parametrize("A", GRAM_ALGEBRAS, ids=repr)
def test_every_trace_form_of_radical_matches_the_pair_loop(monkeypatch, A):
    seen = []
    gram = algebras._trace_gram

    def recorded(mats, p, i):
        out = gram(mats, p, i)
        seen.append((mats, p, i, out))
        return out

    monkeypatch.setattr(algebras, "_trace_gram", recorded)
    # a fresh object, since the radical is kept on the algebra
    radical(StructureAlgebra(A.field, A.c, A.unit, check=False))
    assert seen
    for mats, p, i, out in seen:
        assert np.array_equal(out, trace_gram_loop(mats, p, i))


# ---------------------------------------------------------------------------
# the greedy chain of cyclic submodules


CHAIN_MODULES = (
    [(name, endo._resolve_sigma_target(_bundled(name))[0])
     for name in ("dual2_reg.mod", "f2c3_reg.mod", "mat2_nat.mod", "chain6_n3.mod")]
    + [(f"reg-{A!r}", right_regular_module(A)) for A in FIELD_ALGEBRAS]
    + [(f"reg2-{A!r}", direct_sum([right_regular_module(A)] * 2))
       for A in FIELD_ALGEBRAS if A.dim == 2]
    + [(f"left-{A!r}", left_regular_module(A)) for A in POOL[:4]])


@pytest.mark.parametrize("Mod", [M for _, M in CHAIN_MODULES],
                         ids=[label for label, _ in CHAIN_MODULES])
def test_stacked_greedy_chain_matches_the_candidate_loop(Mod):
    for seed in (0, 1):
        ours, theirs = random.Random(seed), random.Random(seed)
        gens, bases = endo._greedy_cyclic_chain(Mod, 6, ours)
        gens0, bases0 = greedy_chain_loop(Mod, 6, theirs)
        assert len(gens) == len(gens0) and len(bases) == len(bases0)
        assert all(np.array_equal(g, g0) for g, g0 in zip(gens, gens0))
        assert all(np.array_equal(b, b0) for b, b0 in zip(bases, bases0))
        assert ours.getstate() == theirs.getstate()


# ---------------------------------------------------------------------------
# stacked window bases


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 4), st.lists(st.integers(0, 5), max_size=6),
       st.integers(0, 2 ** 31))
def test_row_space_bases_match_per_span(F, n, heights, seed):
    rng = np.random.default_rng(seed)
    spans = []
    for h in heights:
        span = rng.integers(0, F.q, size=(h, n))
        if h > 1 and rng.integers(2):
            # rank-deficient spans too: one row repeated through scalars
            span = linalg.matmul(F, rng.integers(0, F.q, size=(h, 1)), span[:1])
        spans.append(span)
    out = linalg.row_space_bases(F, spans, n)
    assert len(out) == len(spans)
    for span, basis in zip(spans, out):
        expected = naive_rref(F, span)[0]
        assert basis.shape == expected.shape and np.array_equal(basis, expected)


def test_all_empty_spans_are_not_reduced(monkeypatch):
    def no_rref(F, M):
        raise AssertionError("rref called on empty spans")

    monkeypatch.setattr(linalg, "rref", no_rref)
    out = linalg.row_space_bases(GF(2), [np.zeros((0, 3), dtype=np.int64)] * 4, 3)
    assert [b.shape for b in out] == [(0, 3)] * 4


@pytest.mark.parametrize("F", [GF(2), GF(3), GF(2, 2)], ids=str)
def test_windowed_bases_match_per_row(F):
    A = truncated_poly_algebra(F, 3)
    W = 4
    rng = np.random.default_rng(F.q)
    for _ in range(10):
        tails = [rng.integers(0, F.q, size=(int(h), A.dim)) for h in rng.integers(0, 4, size=W)]
        precs = [rng.integers(0, F.q, size=(int(h), A.dim)) for h in rng.integers(0, 3, size=W)]
        m = windowed(A, "omega", np.zeros((W, W, A.dim), dtype=np.int64),
                     tails=tails, precisions=precs, check=False)
        for bases, spans in ((m.tails, tails), (m.precisions, precs)):
            assert all(np.array_equal(b, naive_rref(F, s)[0]) for b, s in zip(bases, spans))


# ---------------------------------------------------------------------------
# Bass colimits over a stack of sequences


def _tail_only_sequence(R):
    """Five units, then a nonzero radical element: its powers keep losing
    rank after the listed terms, so the chain stabilizes only in the
    constant tail.  A semisimple ring has none and gets its unit."""
    J = radical(R).basis
    a = J[0] if J.shape[0] else R.unit
    return np.vstack([np.tile(R.unit, (5, 1)), a[None, :]])


BASS_RINGS = acceptance._finite_ring_pool() + [
    truncated_poly_algebra(GF(2, 2), 2), upper_triangular_algebra(GF(3, 2), 2)]


@pytest.mark.parametrize("R", BASS_RINGS, ids=repr)
@pytest.mark.parametrize("S", [1, 2, 100])
def test_stacked_bass_flat_matches_the_sequence_loop(R, S):
    seqs = [endo.sample_sequence(R, 6, 1000 * S + j) for j in range(S)]
    seqs[-1] = _tail_only_sequence(R)
    stack = np.stack(seqs)
    datums = endo.bass_flat(R, stack)
    assert len(datums) == S
    for seq, d in zip(seqs, datums):
        assert np.array_equal(d.sequence, seq)
        ranks, s, note = bass_flat_loop(R, seq)
        assert (d.image_ranks, d.stabilization_index, d.note) == (ranks, s, note)
        assert all(type(r) is int for r in d.image_ranks)
        assert type(d.stabilization_index) is int
        # the split is the one kept on the ring for this tail, shared with
        # a single call on the same sequence
        one = endo.bass_flat(R, seq)
        split = R._fitting[seq[-1].tobytes()]
        for arrs in ((d.kernel_basis, d.colimit, d.projection, d.section),
                     (one.kernel_basis, one.colimit, one.projection, one.section)):
            assert all(x is y for x, y in zip(arrs, split))
    if radical(R).dim:
        assert datums[-1].note == "stabilized only in the constant-tail extension"


def test_perfectness_suite_runs_one_bass_stack_per_ring(monkeypatch):
    calls = []
    real = acceptance.bass_flat

    def counted(R, sequence):
        out = real(R, sequence)
        calls.append(out)
        return out

    monkeypatch.setattr(acceptance, "bass_flat", counted)
    result = acceptance.suite_perfectness(0)
    assert len(calls) == len(acceptance._finite_ring_pool()) == 10
    for datums in calls:
        assert len(datums) == 100
        assert all(d.verdict == "PROJECTIVE" for d in datums)
    assert sum(" PERFECT 100" in ln for ln in result.report.splitlines()) == 10


# ---------------------------------------------------------------------------
# products of windowed matrices


PRODUCT_BASES = [
    field_algebra(GF(2)), truncated_poly_algebra(GF(2), 2), truncated_poly_algebra(GF(2), 3),
    cyclic_group_algebra(GF(2), 3), matrix_algebra(GF(2), 2), upper_triangular_algebra(GF(3), 2),
    field_algebra(GF(3, 2)), truncated_poly_algebra(GF(2, 2), 2)]


def _random_windowed(A, y_kind, window, rng):
    """Sparse random entries; over the naturals also extra columns up to
    six past the window and, on some rows, a tail and a precision ideal,
    each the right ideal of one random element."""
    q = A.field.q

    def element():
        return rng.integers(0, q, size=A.dim) * (rng.random() < 0.5)

    def ideal():
        if rng.random() < 0.85:
            return np.zeros((0, A.dim), dtype=np.int64)
        gen = rng.integers(0, q, size=A.dim)
        return SubspaceIdeal(A, ideal_span(A, gen, "right"), side="right").basis

    entries = np.array([[element() for _ in range(window)] for _ in range(window)],
                       dtype=np.int64)
    if y_kind == "finite":
        return windowed(A, "finite", entries)
    extras = []
    for _ in range(window):
        cols = rng.choice(np.arange(window, window + 6), size=int(rng.integers(0, 3)),
                          replace=False)
        extras.append([(int(c), v) for c in sorted(cols) if (v := element()).any()])
    return windowed(A, "omega", entries, extras, [ideal() for _ in range(window)],
                    [ideal() for _ in range(window)])


def _product_or_message(a, b, mul):
    try:
        return mul(a, b)
    except WindowError as err:
        return str(err)


def test_windowed_product_matches_the_row_loop():
    rng = np.random.default_rng(19)
    seen = {"finite": 0, "product": 0, "error": 0, "a narrower": 0, "a wider": 0,
            "extra inside b": 0, "extra past b": 0, "certified product": 0}
    for i in range(400):
        A = PRODUCT_BASES[i % len(PRODUCT_BASES)]
        y_kind = "finite" if i % 4 == 0 else "omega"
        wa = int(rng.integers(1, 6))
        wb = wa if y_kind == "finite" else int(rng.integers(1, 6))
        a = _random_windowed(A, y_kind, wa, rng)
        b = _random_windowed(A, y_kind, wb, rng)
        got = _product_or_message(a, b, mat_mul)
        want = _product_or_message(a, b, mat_mul_loop)
        if isinstance(want, str):
            assert got == want
            seen["error"] += 1
        else:
            assert isinstance(got, matrixtop.WindowedMatrix)
            assert (got.y_kind, got.window) == (want.y_kind, want.window)
            assert np.array_equal(got.entries, want.entries)
            assert got.extras == [[] for _ in range(want.window)] == want.extras
            for mine, theirs in ((got.tails, want.tails), (got.precisions, want.precisions)):
                assert len(mine) == len(theirs)
                assert all(np.array_equal(u, v) for u, v in zip(mine, theirs))
            seen["product"] += 1
            seen["certified product"] += any(t.shape[0] for t in want.tails + want.precisions)
        seen["finite"] += y_kind == "finite"
        seen["a narrower"] += wa < wb
        seen["a wider"] += wa > wb
        cols = [c for row in a.extras for c, _ in row]
        seen["extra inside b"] += any(c < wb for c in cols)
        seen["extra past b"] += any(c >= wb for c in cols)
    assert min(seen.values()) >= 20, seen


def test_windowed_product_reduces_all_certificates_twice(monkeypatch):
    calls = []
    real = linalg.row_space_bases

    def counted(F, spans, n):
        calls.append(len(spans))
        return real(F, spans, n)

    monkeypatch.setattr(linalg, "row_space_bases", counted)
    rng = np.random.default_rng(7)
    A = truncated_poly_algebra(GF(2), 2)
    a, b = (_random_windowed(A, "finite", 4, rng) for _ in range(2))
    calls.clear()
    mat_mul(a, b)
    assert calls == []
    seen = {"product": 0, "error": 0}
    for _ in range(30):
        a, b = (_random_windowed(A, "omega", int(rng.integers(1, 6)), rng) for _ in range(2))
        calls.clear()
        out = _product_or_message(a, b, mat_mul)
        rows = min(a.window, b.window)
        assert calls == ([rows] if isinstance(out, str) else [rows, rows])
        seen["error" if isinstance(out, str) else "product"] += 1
    assert min(seen.values()) >= 3, seen


def test_unclosed_product_certificate_exits_4(tmp_path, monkeypatch, capsys):
    """Over Mat2(F2) a left factor wider than the right one holds E00 in a
    column past the right factor's window, so the product's row-0
    precision is generated by E00, which is not a right ideal.  With
    ideal_span returning its generators unchanged, the re-check of the
    product must catch it."""
    (tmp_path / "mat2.alg").write_text(corpus.read("mat2_f2.alg"))
    head = "object matrix\nalgebra mat2.alg\ny omega\n"
    (tmp_path / "a.mat").write_text(head + "window 2\nentry 0 1 0 1\nend\n")
    (tmp_path / "b.mat").write_text(head + "window 1\nentry 0 0 0 1\nend\n")
    argv = ["matmul", str(tmp_path / "a.mat"), str(tmp_path / "b.mat")]
    assert cli.main(argv) == 0
    # the precision of row 0 is E00·A, spanned by E00 and E01
    body = capsys.readouterr().out.splitlines()
    assert [ln for ln in body if ln.startswith("precision")] == [
        "precision 0 0 0 1", "precision 0 1 1 1"]
    monkeypatch.setattr(matrixtop, "ideal_span", lambda A, gens, side: gens)
    assert cli.main(argv) == 4
    assert "precision certificate is not a right ideal" in capsys.readouterr().err


IDEAL_SPAN_BASES = [
    matrix_algebra(GF(2), 3), upper_triangular_algebra(GF(3), 3),
    truncated_poly_algebra(GF(2, 2), 3), cyclic_group_algebra(GF(2), 4),
    truncated_poly_algebra(GF(3, 2), 2), upper_triangular_algebra(GF(2, 2), 2),
    algebras.tensor_algebra(matrix_algebra(GF(2), 2), truncated_poly_algebra(GF(2), 2))]


@pytest.mark.parametrize("A", IDEAL_SPAN_BASES, ids=[
    "Mat3(F2)", "T3(F3)", "F4[x]/(x^3)", "F2[C4]", "F9[x]/(x^2)", "T2(F4)", "Mat2(F2[x]/(x^2))"])
def test_ideal_span_matches_the_closure_loop(A):
    rng = np.random.default_rng(A.dim * A.field.q)
    q = A.field.q
    gens = [np.zeros((0, A.dim), dtype=np.int64), np.zeros((3, A.dim), dtype=np.int64),
            A.unit, radical(A).basis]
    for k in (1, 1, 2, 3, 5):
        gens.append(rng.integers(0, q, size=(k, A.dim)) * (rng.random((k, A.dim)) < 0.4))
    for side in ("left", "right", "two"):
        for G in gens + [ideal_closure_loop(A, gens[-1], side).basis]:
            span = ideal_span(A, G, side)
            assert span.shape[0] <= A.dim * (A.dim if side == "two" else np.size(G) // A.dim)
            want = ideal_closure_loop(A, G, side)
            got = SubspaceIdeal(A, span, side=side)
            assert np.array_equal(got.basis, want.basis), (side, G)

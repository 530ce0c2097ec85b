"""Module layer: radicals, chains, endomorphism algebras, decomposition."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_submodules_loop,
    composition_length_layers,
    decompose_per_summand,
    endo_structure_full,
    hidden_block_algebras,
    intersection_of_maximals,
    module_diagnostics_loop,
    sampled_isomorphism,
    solve_left_rows,
)
from topring import acceptance, linalg, modules
from topring.algebras import (
    AlgebraError,
    StructureAlgebra,
    cyclic_group_algebra,
    field_extension_algebra,
    matrix_algebra,
    product_algebra,
    field_algebra,
    radical,
    radical_bruteforce,
    truncated_poly_algebra,
    upper_triangular_algebra,
)
from topring.fields import GF
from topring.modules import (
    FiniteModule,
    ModuleFamily,
    composition_length,
    cyclic_submodule,
    decompose_indecomposable,
    direct_sum,
    endo_algebra,
    find_isomorphism,
    hom_space,
    local_T_nilpotency_check,
    module_map_failures,
    noniso_witness_search,
    perfect_decomposition_verdict,
    quotient_module,
    radical_of_module,
    right_regular_module,
    left_regular_module,
    submodule_module,
    verify_decomposition,
)
from topring.wedderburn import wedderburn

F2 = GF(2)
F3 = GF(3)


def natural_matrix_module(F, k):
    """F^k with matrices acting on row vectors."""
    A = matrix_algebra(F, k)
    action = np.stack([A_basis_matrix(k, i) for i in range(k * k)])
    return FiniteModule(A, action, side="right")


def A_basis_matrix(k, idx):
    m = np.zeros((k, k), dtype=np.int64)
    m[idx // k, idx % k] = 1
    return m


def truncated_module(A, n):
    """F_q[x]/(x^n) as a right module over A = F_q[x]/(x^N), n <= N."""
    reg = right_regular_module(A)
    if n == A.dim:
        return reg
    xn = np.zeros(A.dim, dtype=np.int64)
    xn[n] = 1
    Q, _, _ = quotient_module(reg, cyclic_submodule(reg, xn))
    assert Q.dim == n
    return Q


# ---------------------------------------------------------------------------
# Cyclic submodules
# ---------------------------------------------------------------------------


def test_cyclic_submodule_of_zero_is_zero():
    A = truncated_poly_algebra(F2, 3)
    M = right_regular_module(A)
    assert cyclic_submodule(M, np.zeros(3, dtype=np.int64)).shape == (0, 3)


def test_cyclic_submodule_of_one_is_everything():
    A = truncated_poly_algebra(F2, 3)
    M = right_regular_module(A)
    one = np.array([1, 0, 0], dtype=np.int64)
    assert cyclic_submodule(M, one).shape == (3, 3)


def test_cyclic_submodule_of_x_in_x_cubed_truncation():
    A = truncated_poly_algebra(F2, 3)
    M = right_regular_module(A)
    x = np.array([0, 1, 0], dtype=np.int64)
    expected = np.array([[0, 1, 0], [0, 0, 1]], dtype=np.int64)
    assert np.array_equal(cyclic_submodule(M, x), expected)


def test_cyclic_submodule_is_action_closed():
    A = upper_triangular_algebra(F2, 2)
    M = right_regular_module(A)
    for v in A.all_elements():
        basis = cyclic_submodule(M, v)
        submodule_module(M, basis)  # raises if not closed


@pytest.mark.parametrize("side", ["right", "left"])
def test_submodule_action_matches_per_vector_solves(side):
    A = upper_triangular_algebra(F3, 2)
    M = right_regular_module(A) if side == "right" else left_regular_module(A)
    for v in A.all_elements():
        basis = cyclic_submodule(M, v)
        N, embed = submodule_module(M, basis)
        assert np.array_equal(embed, basis)
        for i, E in enumerate(M.eff_basis()):
            want = solve_left_rows(F3, basis, linalg.matmul(F3, basis, E))
            assert np.array_equal(N.eff_basis()[i], want)
        assert not N.diagnostics()


def test_submodule_of_an_open_subspace_is_rejected():
    M = right_regular_module(upper_triangular_algebra(F2, 2))
    # e_11 * e_12 = e_12 leaves the span of e_11
    with pytest.raises(AlgebraError, match="^subspace is not action-closed$"):
        submodule_module(M, np.array([[1, 0, 0]], dtype=np.int64))


# ---------------------------------------------------------------------------
# Radical and top
# ---------------------------------------------------------------------------


def test_radical_of_semisimple_module_is_zero():
    M = natural_matrix_module(F2, 2)
    rad = radical_of_module(M)
    assert rad.shape == (0, 2)
    top, _, _ = quotient_module(M, radical_of_module(M))
    assert top.dim == M.dim


def test_radical_of_truncated_polynomial_regular_module():
    A = truncated_poly_algebra(F2, 3)
    M = right_regular_module(A)
    rad = radical_of_module(M)
    assert np.array_equal(rad, np.array([[0, 1, 0], [0, 0, 1]], dtype=np.int64))
    top, _, _ = quotient_module(M, radical_of_module(M))
    assert top.dim == 1


def test_radical_of_upper_triangular_regular_module_vs_oracle():
    A = upper_triangular_algebra(F2, 2)
    M = right_regular_module(A)
    rad = radical_of_module(M)
    # basis order (0,0), (0,1), (1,1): the radical is spanned by E_{12}
    assert np.array_equal(rad, np.array([[0, 1, 0]], dtype=np.int64))
    assert np.array_equal(rad, intersection_of_maximals(M))


def test_top_is_semisimple():
    A = truncated_poly_algebra(F3, 3)
    M = right_regular_module(A)
    top, _, _ = quotient_module(M, radical_of_module(M))
    E, _, _ = endo_algebra(top)
    assert radical(E).dim == 0


@pytest.mark.parametrize(
    "make",
    [
        lambda: right_regular_module(upper_triangular_algebra(F2, 2)),
        lambda: right_regular_module(truncated_poly_algebra(F2, 3)),
        lambda: left_regular_module(upper_triangular_algebra(F2, 2)),
        lambda: right_regular_module(product_algebra(field_algebra(F2), truncated_poly_algebra(F2, 2))),
        lambda: natural_matrix_module(F2, 2),
    ],
)
def test_module_radical_equals_intersection_of_maximals(make):
    M = make()
    assert M.algebra.field.q ** M.dim <= 1024
    assert np.array_equal(radical_of_module(M), intersection_of_maximals(M))


def test_all_submodules_of_two_simples():
    A = product_algebra(field_algebra(F2), field_algebra(F2))
    M = right_regular_module(A)
    subs = all_submodules_loop(M)
    assert [b.shape[0] for b in subs] == [0, 1, 1, 2]


# ---------------------------------------------------------------------------
# Hom spaces and endomorphism algebras
# ---------------------------------------------------------------------------


def test_hom_space_between_truncations():
    A = truncated_poly_algebra(F2, 6)
    M2, M3 = truncated_module(A, 2), truncated_module(A, 3)
    assert hom_space(M2, M3).shape[0] == 2
    assert hom_space(M3, M2).shape[0] == 2
    assert hom_space(M2, M2).shape[0] == 2


def test_endo_of_natural_module_is_the_scalars():
    M = natural_matrix_module(F2, 2)
    E, homs, _ = endo_algebra(M)
    assert E.dim == 1
    assert np.array_equal(homs[0], np.eye(2, dtype=np.int64))


def test_endo_of_simple_square_is_two_by_two_matrices():
    S = natural_matrix_module(F2, 2)
    M = direct_sum([S, S])
    E, _, _ = endo_algebra(M)
    assert E.dim == 4
    assert wedderburn(E).summary() == [(2, 2)]


def test_endo_of_local_regular_module_is_the_algebra_itself():
    A = truncated_poly_algebra(F2, 2)
    M = right_regular_module(A)
    E, _, _ = endo_algebra(M)
    assert E.dim == 2
    assert np.array_equal(E.c, np.swapaxes(E.c, 0, 1))
    assert radical(E).dim == 1


def test_endo_action_module_is_valid():
    A = upper_triangular_algebra(F2, 2)
    M = right_regular_module(A)
    E, _, M_over_E = endo_algebra(M)
    assert not M_over_E.diagnostics()
    assert E.dim == 3


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_hom_elements_intertwine_the_action(data):
    A = truncated_poly_algebra(F2, 4)
    M2 = truncated_module(A, 2)
    M3 = truncated_module(A, 3)
    homs = hom_space(M2, M3)
    coeffs = np.array(
        data.draw(st.lists(st.integers(0, 1), min_size=homs.shape[0], max_size=homs.shape[0])),
        dtype=np.int64,
    )
    Phi = F2.fsum(F2.MUL[coeffs[:, None, None], homs], axis=0)
    v = np.array(data.draw(st.lists(st.integers(0, 1), min_size=2, max_size=2)), dtype=np.int64)
    a = np.array(data.draw(st.lists(st.integers(0, 1), min_size=4, max_size=4)), dtype=np.int64)
    lhs = linalg.matvec(F2, linalg.matvec(F2, v, M2.eff(a)), Phi)
    rhs = linalg.matvec(F2, linalg.matvec(F2, v, Phi), M3.eff(a))
    assert np.array_equal(lhs, rhs)


def test_module_map_failures_names_the_failing_generators():
    A = truncated_poly_algebra(F2, 2)
    M = right_regular_module(A)
    assert A.generators() == [1]
    assert module_map_failures(M, M, np.eye(2, dtype=np.int64)).tolist() == []
    bad = np.array([[1, 0], [0, 0]], dtype=np.int64)  # kills x, not a module map
    assert module_map_failures(M, M, bad).tolist() == [0]
    # over T2(F2), generated by e11 and e12, this map fails at e12 alone
    U = right_regular_module(upper_triangular_algebra(F2, 2))
    assert module_map_failures(U, U, np.diag([0, 1, 0])).tolist() == [1]
    B = truncated_poly_algebra(F2, 4)
    M2, M3 = truncated_module(B, 2), truncated_module(B, 3)
    for Phi in hom_space(M2, M3):
        assert module_map_failures(M2, M3, Phi).size == 0


def test_module_map_failures_over_a_field_has_no_generators():
    K = field_algebra(F3)
    M = right_regular_module(K)
    assert K.generator_elements().shape == (0, 1)
    assert module_map_failures(M, M, np.array([[2]], dtype=np.int64)).shape == (0,)


def test_quotient_by_a_non_submodule_does_not_intertwine():
    M = right_regular_module(truncated_poly_algebra(F2, 2))
    with pytest.raises(AlgebraError, match="intertwine"):
        quotient_module(M, np.array([[1, 0]], dtype=np.int64))


def test_zero_dimensional_module_has_empty_hom_spaces_and_no_summands():
    A = matrix_algebra(F2, 2)
    Z = FiniteModule(A, np.zeros((4, 0, 0), dtype=np.int64))
    N = right_regular_module(A)
    assert hom_space(Z, Z).shape == (0, 0, 0)
    assert hom_space(Z, N).shape == (0, 0, 4)
    assert hom_space(N, Z).shape == (0, 4, 0)
    E, homs, _ = endo_algebra(Z)
    assert E.dim == 0 and homs.shape == (0, 0, 0)
    cert = decompose_indecomposable(Z)
    assert cert.summands == [] and cert.classes == [] and cert.idempotents == []
    assert perfect_decomposition_verdict(Z).verdict == "PERFECT"


def test_modules_over_equal_algebras_built_twice_share_the_algebra():
    # two constructor calls give equal, not identical, algebras
    A, B = matrix_algebra(F2, 2), matrix_algebra(F2, 2)
    assert A is not B and A == B and hash(A) == hash(B)
    assert A != matrix_algebra(GF(3), 2) and A != upper_triangular_algebra(F2, 2)
    Z = FiniteModule(A, np.zeros((4, 0, 0), dtype=np.int64))
    assert hom_space(Z, right_regular_module(B)).shape == (0, 0, 4)


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------


def test_simple_module_is_indecomposable():
    M = natural_matrix_module(F2, 2)
    cert = decompose_indecomposable(M)
    assert len(cert.summands) == 1
    assert cert.local_checked == ["exhaustive"]


def test_two_nonisomorphic_summands_over_dual_numbers():
    A = truncated_poly_algebra(F2, 2)
    reg = right_regular_module(A)
    simple, _, _ = quotient_module(reg, radical_of_module(reg))
    M = direct_sum([simple, reg])
    cert = decompose_indecomposable(M)
    assert sorted(n.dim for n in cert.summands) == [1, 2]
    assert sorted(len(c) for c in cert.classes) == [1, 1]
    a, b = cert.summands
    assert find_isomorphism(a, b) is None


def test_square_of_simple_matches_into_one_class():
    S = natural_matrix_module(F2, 2)
    M = direct_sum([S, S])
    cert = decompose_indecomposable(M)
    assert len(cert.summands) == 2
    assert [len(c) for c in cert.classes] == [2]
    other = cert.classes[0][1]
    iso = cert.class_isos[other]
    assert linalg.is_invertible(F2, iso)


def test_rerunning_on_a_summand_is_stable():
    A = truncated_poly_algebra(F2, 2)
    reg = right_regular_module(A)
    simple, _, _ = quotient_module(reg, radical_of_module(reg))
    M = direct_sum([simple, reg])
    cert = decompose_indecomposable(M)
    for N in cert.summands:
        again = decompose_indecomposable(N)
        assert len(again.summands) == 1


def test_certificate_projectors_verify():
    A = upper_triangular_algebra(F2, 2)
    M = right_regular_module(A)
    cert = decompose_indecomposable(M)
    verify_decomposition(cert)
    m = M.dim
    for inj, proj in zip(cert.embeddings, cert.projections):
        assert np.array_equal(
            linalg.matmul(F2, inj, proj), np.eye(inj.shape[0], dtype=np.int64)
        )


@pytest.mark.parametrize("mutate,message", [
    # the all-ones P_0 squares to 0 and P_0 P_1 != 0: idempotence is tested first
    (lambda P: [np.ones((2, 2), dtype=np.int64), P[1]], "^projector 0 is not idempotent$"),
    # P_0 = 1: idempotent, but P_0 P_1 = P_1
    (lambda P: [np.eye(2, dtype=np.int64), P[1]], "^projectors 0, 1 are not orthogonal$"),
    # P_1 = 1: z = 0 reaches its orthogonality test first
    (lambda P: [P[0], np.eye(2, dtype=np.int64)], "^projectors 0, 1 are not orthogonal$"),
    (lambda P: [P[0]], "^projectors do not sum to the identity$"),
    (lambda P: [], "^projectors do not sum to the identity$"),
], ids=["idempotent", "orthogonal-first", "orthogonal-second", "sum", "empty"])
def test_mutated_decomposition_certificate_trips(mutate, message):
    A = product_algebra(field_algebra(F2), field_algebra(F2))
    cert = decompose_indecomposable(right_regular_module(A))
    verify_decomposition(cert)
    cert.idempotents = mutate(cert.idempotents)
    with pytest.raises(AssertionError, match=message):
        verify_decomposition(cert)


def test_zero_dimensional_certificate_verifies():
    Z = FiniteModule(truncated_poly_algebra(GF(2, 2), 2), np.zeros((2, 0, 0), dtype=np.int64))
    cert = decompose_indecomposable(Z)
    assert cert.idempotents == []
    verify_decomposition(cert)


RANDOM_ALGEBRA_POOL = [
    lambda: upper_triangular_algebra(F2, 2),
    lambda: truncated_poly_algebra(F2, 3),
    lambda: matrix_algebra(F2, 2),
    lambda: truncated_poly_algebra(F3, 2),
    lambda: product_algebra(field_algebra(F2), upper_triangular_algebra(F2, 2)),
]


def random_module(seed):
    """Random module of dimension <= 8: a random quotient of A + A."""
    rng = random.Random(seed)
    A = RANDOM_ALGEBRA_POOL[rng.randrange(len(RANDOM_ALGEBRA_POOL))]()
    reg = right_regular_module(A)
    big = direct_sum([reg, reg])
    rows = [cyclic_submodule(big, big_elem(rng, big)) for _ in range(rng.randrange(3))]
    if rows:
        sub = linalg.row_space_basis(A.field, np.vstack(rows))
    else:
        sub = np.zeros((0, big.dim), dtype=np.int64)
    if 0 < sub.shape[0]:
        Q, _, _ = quotient_module(big, sub)
        if Q.dim:
            return Q
    return big


def big_elem(rng, M):
    return np.array([rng.randrange(M.algebra.field.q) for _ in range(M.dim)], dtype=np.int64)


@pytest.mark.parametrize("seed", range(20))
def test_krull_schmidt_two_seeds_match(seed):
    M = random_module(seed)
    assert M.dim <= 8
    cert_a = decompose_indecomposable(M, seed=5)
    cert_b = decompose_indecomposable(M, seed=11)
    assert len(cert_a.summands) == len(cert_b.summands)
    unmatched = list(range(len(cert_b.summands)))
    for N in cert_a.summands:
        hit = next(
            (t for t in unmatched if find_isomorphism(N, cert_b.summands[t]) is not None),
            None,
        )
        assert hit is not None
        unmatched.remove(hit)
    assert not unmatched


REGULAR_POOL = {
    "UT3(F2)": lambda: upper_triangular_algebra(F2, 3),
    "Mat2(F2)": lambda: matrix_algebra(F2, 2),
    "GF(4)/F2": lambda: field_extension_algebra(F2, 2),
    "F3[C3]": lambda: cyclic_group_algebra(F3, 3),
    "UT2(F3)": lambda: upper_triangular_algebra(F3, 2),
}


def regular_module(name, copies):
    reg = right_regular_module(REGULAR_POOL[name]())
    return reg if copies == 1 else direct_sum([reg] * copies)


DIFFERENTIAL_CASES = [("random", i) for i in range(150)] + [
    (name, copies) for name in REGULAR_POOL for copies in (1, 2)]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("kind,arg", DIFFERENTIAL_CASES,
                         ids=[f"{k}-{a}" for k, a in DIFFERENTIAL_CASES])
def test_decomposition_matches_per_summand_route(kind, arg, seed):
    M = random_module(arg) if kind == "random" else regular_module(kind, arg)
    cert = decompose_indecomposable(M, seed=seed)
    dims, classes, local_checked, projectors = decompose_per_summand(M, seed=seed)
    assert [N.dim for N in cert.summands] == dims
    assert cert.classes == classes
    assert cert.local_checked == local_checked
    assert len(cert.idempotents) == len(projectors)
    for P, Q in zip(cert.idempotents, projectors):
        assert np.array_equal(P, Q)


def test_missing_class_isomorphism_names_both_summands(monkeypatch):
    monkeypatch.setattr(modules, "find_isomorphism", lambda M, N: None)
    with pytest.raises(AssertionError, match="summands 1 and 0 share a Wedderburn block"):
        decompose_indecomposable(regular_module("Mat2(F2)", 1))


def _counting(monkeypatch, name):
    calls = []
    real = getattr(modules, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(modules, name, wrapper)
    return calls


@pytest.mark.parametrize("name,copies", [("Mat2(F2)", 1), ("UT3(F2)", 2), ("UT2(F3)", 2)])
def test_one_endo_algebra_and_one_hom_space_per_class_member(monkeypatch, name, copies):
    M = regular_module(name, copies)
    endo_calls = _counting(monkeypatch, "endo_algebra")
    hom_calls = _counting(monkeypatch, "hom_space")
    cert = decompose_indecomposable(M)
    k, c = len(cert.summands), len(cert.classes)
    assert k > c
    assert len(endo_calls) == 1
    assert len(hom_calls) == 1 + (k - c)


@pytest.mark.parametrize("seed", range(6))
def test_module_verdict_certificate_matches_family_check(seed):
    M = random_module(seed + 100)
    verdict = perfect_decomposition_verdict(M, depth=6)
    summands = verdict.decomposition.summands
    fam = ModuleFamily(members=summands,
                       labels=[f"summand_{z}" for z in range(len(summands))],
                       truncated=False)
    res = local_T_nilpotency_check(fam, depth=6)
    assert verdict.certificate == res.certificate
    assert verdict.decomposition.t_nilpotency == res


@pytest.mark.parametrize("seed", range(8))
def test_find_isomorphism_agrees_with_sampled_search(seed):
    cert = decompose_indecomposable(random_module(seed))
    for a in cert.summands:
        for b in cert.summands:
            # small enough for the sampled search to enumerate, so its
            # None is a proof as well
            assert a.algebra.field.q ** hom_space(a, b).shape[0] <= 4096
            assert (find_isomorphism(a, b) is None) == (sampled_isomorphism(a, b) is None)


def test_find_isomorphism_beyond_enumeration_bound():
    # Hom between 13-dimensional modules over F2[x]/(x^13) has 2^13
    # elements, more than an enumeration bound of 4096
    R = truncated_poly_algebra(F2, 13)
    M = right_regular_module(R)
    rng = np.random.default_rng(13)
    while True:
        P = rng.integers(0, 2, size=(13, 13)).astype(np.int64)
        if linalg.is_invertible(F2, P):
            break
    Pinv = linalg.inverse(F2, P)
    # v -> v @ P carries M onto N
    N = FiniteModule(R, np.stack([linalg.matmul(F2, linalg.matmul(F2, Pinv, a), P)
                                  for a in M.action]))
    assert hom_space(M, N).shape[0] == 13
    Phi = find_isomorphism(M, N)
    assert Phi is not None and linalg.is_invertible(F2, Phi)
    for a, b in zip(M.action, N.action):
        assert np.array_equal(linalg.matmul(F2, a, Phi), linalg.matmul(F2, Phi, b))
    assert sampled_isomorphism(M, N) is not None
    # R/x^12 + R/x has the same dimension, and Hom to or from it has as
    # many elements
    parts = [quotient_module(M, cyclic_submodule(M, linalg.basis_vector(13, k)))[0]
             for k in (12, 1)]
    S = direct_sum(parts)
    assert S.dim == 13
    assert hom_space(M, S).shape[0] == hom_space(S, M).shape[0] == 13
    assert find_isomorphism(M, S) is None
    assert find_isomorphism(S, M) is None


# ---------------------------------------------------------------------------
# Local T-nilpotency and perfectness verdicts
# ---------------------------------------------------------------------------


def test_single_simple_family_certificate_bound_one():
    S = natural_matrix_module(F2, 2)
    fam = ModuleFamily(members=[S], labels=["S"], truncated=False)
    res = local_T_nilpotency_check(fam, depth=4)
    assert res.kind == "certificate"
    assert res.certificate.length_bound == 1
    assert res.certificate.composition_bound == 1


def test_single_dual_number_family_certificate_bound_three():
    A = truncated_poly_algebra(F2, 2)
    fam = ModuleFamily(members=[right_regular_module(A)], labels=["R"], truncated=False)
    res = local_T_nilpotency_check(fam, depth=4)
    assert res.kind == "certificate"
    assert res.certificate.length_bound == 2
    assert res.certificate.composition_bound == 3


def test_truncation_family_yields_length_five_witness():
    A = truncated_poly_algebra(F2, 6)
    members = [truncated_module(A, n) for n in range(1, 7)]
    fam = ModuleFamily(
        members=members, labels=[f"x^{n}" for n in range(1, 7)], truncated=True
    )
    res = local_T_nilpotency_check(fam, depth=5)
    assert res.kind == "witness"
    w = res.witness
    assert w.length() == 5
    assert w.images[-1].any()
    assert all(img.any() for img in w.images)


def test_explicit_shift_chain_survives():
    # maps 1 -> x between consecutive truncations compose to 1 -> x^5
    A = truncated_poly_algebra(F2, 6)
    members = [truncated_module(A, n) for n in range(1, 7)]
    comp = np.eye(1, dtype=np.int64)
    for n in range(1, 6):
        homs = hom_space(members[n - 1], members[n])
        shift = next(
            h for h in homs
            if np.array_equal(h[0], np.eye(n + 1, dtype=np.int64)[1])
        )
        comp = linalg.matmul(F2, comp, shift)
    one = np.array([1], dtype=np.int64)
    image = linalg.matvec(F2, one, comp)
    assert image.any()
    assert np.array_equal(image, np.eye(6, dtype=np.int64)[5])


def test_nonlocal_family_member_is_rejected():
    S = natural_matrix_module(F2, 2)
    M = direct_sum([S, S])
    fam = ModuleFamily(members=[M], labels=["S+S"], truncated=False)
    with pytest.raises(AlgebraError):
        local_T_nilpotency_check(fam, depth=2)


def test_harada_sai_sampled_compositions_vanish():
    A = truncated_poly_algebra(F2, 4)
    members = [truncated_module(A, n) for n in range(1, 5)]
    bound = 2 ** 4 - 1
    pair_homs = {
        (a, b): hom_space(members[a], members[b])
        for a in range(4)
        for b in range(4)
    }
    rng = random.Random(99)
    for _ in range(500):
        cur = rng.randrange(4)
        comp = np.eye(members[cur].dim, dtype=np.int64)
        for _ in range(bound):
            nxt = rng.randrange(4)
            homs = pair_homs[(cur, nxt)]
            while True:
                coeffs = np.array(
                    [rng.randrange(2) for _ in range(homs.shape[0])], dtype=np.int64
                )
                Phi = F2.fsum(F2.MUL[coeffs[:, None, None], homs], axis=0)
                if not (
                    members[cur].dim == members[nxt].dim
                    and linalg.is_invertible(F2, Phi)
                ):
                    break
            comp = linalg.matmul(F2, comp, Phi)
            cur = nxt
        assert not comp.any()


def test_perfect_verdict_for_finite_modules():
    for seed in range(6):
        M = random_module(seed + 100)
        verdict = perfect_decomposition_verdict(M, depth=6)
        assert verdict.verdict == "PERFECT"
        assert verdict.certificate is not None
        assert verdict.decomposition is not None
        assert verdict.decomposition.t_nilpotency.kind == "certificate"


def test_perfect_verdict_not_perfect_for_truncation_family():
    A = truncated_poly_algebra(F2, 6)
    members = [truncated_module(A, n) for n in range(1, 7)]
    fam = ModuleFamily(
        members=members, labels=[f"x^{n}" for n in range(1, 7)], truncated=True
    )
    verdict = perfect_decomposition_verdict(fam, depth=5)
    assert verdict.verdict == "NOT_PERFECT"
    assert verdict.witness is not None
    assert verdict.witness.length() == 5


def test_perfect_verdict_vacuous_for_empty_family():
    fam = ModuleFamily(members=[], labels=[], truncated=False)
    verdict = perfect_decomposition_verdict(fam, depth=3)
    assert verdict.verdict == "PERFECT"
    assert verdict.certificate.length_bound == 0


def test_unknown_verdict_for_quiet_truncated_family():
    # one simple module, flagged truncated: no witness exists at any depth
    A = truncated_poly_algebra(F2, 2)
    reg = right_regular_module(A)
    simple, _, _ = quotient_module(reg, radical_of_module(reg))
    fam = ModuleFamily(members=[simple], labels=["S"], truncated=True)
    verdict = perfect_decomposition_verdict(fam, depth=3)
    assert verdict.verdict == "UNKNOWN"
    assert verdict.depth == 3


# ---------------------------------------------------------------------------
# Composition length
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make, expected",
    [
        (lambda: natural_matrix_module(F2, 2), 1),
        (lambda: right_regular_module(truncated_poly_algebra(F2, 4)), 4),
        (lambda: right_regular_module(matrix_algebra(F2, 2)), 2),
        (lambda: right_regular_module(upper_triangular_algebra(F2, 2)), 3),
        (lambda: left_regular_module(upper_triangular_algebra(F2, 2)), 3),
    ],
)
def test_composition_length(make, expected):
    assert composition_length(make()) == expected


def test_witness_search_none_without_nonisos():
    S = natural_matrix_module(F2, 2)
    fam = ModuleFamily(members=[S], labels=["S"], truncated=True)
    assert noniso_witness_search(fam, depth=2) is None


def _showcase_module():
    # the 28-dimensional sum of the chain family F2[x]/(x^n), n = 1..7,
    # whose 140-dimensional endomorphism algebra the negative showcase builds
    from topring.endo import polynomial_adic_system

    return direct_sum(polynomial_adic_system(F2, 7).modules)


@pytest.mark.parametrize("build", [
    _showcase_module,
    lambda: direct_sum([right_regular_module(upper_triangular_algebra(GF(2, 2), 2))] * 2),
], ids=["showcase-f2", "t2-gf4-twice"])
def test_endo_algebra_matches_full_composite_route(build):
    M = build()
    E, _, _ = endo_algebra(M)
    assert np.array_equal(E.c, endo_structure_full(M))


@pytest.mark.parametrize("A", acceptance._finite_ring_pool() + hidden_block_algebras(), ids=repr)
def test_bruteforce_radical_is_the_intersection_of_maximal_right_ideals(A):
    # the two exhaustive readings of the Jacobson radical: the unit
    # condition on 1 - a*x*b and the submodule lattice of A_A
    assert np.array_equal(radical_bruteforce(A), intersection_of_maximals(right_regular_module(A)))


def test_unit_rank_disagreeing_with_the_corner_radical_trips(monkeypatch):
    # stacked ranks forced full: every element reads as a unit, the zero of
    # the radical included
    real = linalg.rref

    def rref(F, M):
        R, ranks = real(F, M)
        return (R, np.full_like(ranks, R.shape[1])) if np.ndim(M) == 3 else (R, ranks)

    monkeypatch.setattr(linalg, "rref", rref)
    with pytest.raises(AssertionError, match="^non-unit set differs from the endo radical$"):
        decompose_indecomposable(regular_module("GF(4)/F2", 1))


def test_extra_idempotent_among_corner_elements_trips(monkeypatch):
    real = StructureAlgebra.all_elements

    def with_unit_twice(self):
        return np.vstack([real(self), self.unit[None, :]])

    monkeypatch.setattr(StructureAlgebra, "all_elements", with_unit_twice)
    with pytest.raises(AssertionError, match="^summand has a nontrivial idempotent endomorphism$"):
        decompose_indecomposable(regular_module("GF(4)/F2", 1))


def _length_cases():
    """195 modules: regular, doubled and left regular over the ring pool and
    the hidden block algebras, and random_module(0..149)."""
    cases = []
    for i, A in enumerate(acceptance._finite_ring_pool() + hidden_block_algebras()):
        cases += [(f"reg-{i}", right_regular_module(A)),
                  (f"double-{i}", direct_sum([right_regular_module(A)] * 2)),
                  (f"left-{i}", left_regular_module(A))]
    return cases + [(f"random-{i}", random_module(i)) for i in range(150)]


LENGTH_CASES = _length_cases()


def test_length_cases_count():
    assert len(LENGTH_CASES) == 195


@pytest.mark.parametrize("M", [M for _, M in LENGTH_CASES], ids=[k for k, _ in LENGTH_CASES])
def test_composition_length_matches_the_layer_route(M):
    assert composition_length(M) == composition_length_layers(M)


def test_composition_length_of_a_vector_space_counts_its_dimension():
    # End of F2^5 is Mat_5(F2): its regular module has five simple layers
    V = FiniteModule(field_algebra(F2), np.eye(5, dtype=np.int64)[None], check=False)
    E, _, _ = endo_algebra(V)
    assert composition_length(right_regular_module(E)) == 5


def test_composition_length_keeps_the_block_dimension_tripwire(monkeypatch):
    # the one layer has rank 4, and a block claimed to be Mat_2 over F_8
    # needs ranks divisible by 6
    W = wedderburn(matrix_algebra(F2, 2))
    for f in W.factors:
        f.m = 3
    monkeypatch.setattr(modules, "wedderburn", lambda Q: W)
    with pytest.raises(AssertionError, match="^semisimple block dimension mismatch$"):
        composition_length(right_regular_module(matrix_algebra(F2, 2)))


def _corrupted(M, seed, entries):
    """M's action with `entries` random cells redrawn."""
    rng = np.random.default_rng(seed)
    action = M.action.copy()
    for _ in range(entries):
        i, a, b = (int(rng.integers(n)) for n in action.shape)
        action[i, a, b] = rng.integers(M.algebra.field.q)
    return FiniteModule(M.algebra, action, side=M.side, check=False)


DIAGNOSTIC_CASES = [
    (name, copies, seed, entries)
    for name in REGULAR_POOL for copies in (1, 2)
    for seed, entries in ((0, 0), (1, 1), (2, 3), (3, 40))]


@pytest.mark.parametrize("name,copies,seed,entries", DIAGNOSTIC_CASES)
def test_module_diagnostics_match_the_pair_loop(name, copies, seed, entries):
    M = _corrupted(regular_module(name, copies), seed, entries)
    assert M.diagnostics() == module_diagnostics_loop(M)


def test_module_diagnostics_stop_at_seventeen_messages():
    M = _corrupted(regular_module("UT3(F2)", 2), 5, 400)
    got = M.diagnostics()
    assert len(got) == 17
    assert got == module_diagnostics_loop(M)

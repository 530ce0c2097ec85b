"""Tower layer: radical towers, nilpotency, strong closedness, verdicts."""

import numpy as np
import pytest

from oracles import hom_failures_loop

from topring import linalg, towers
from topring.algebras import (
    InternalInconsistencyError,
    SubspaceIdeal,
    ideal_span,
    field_extension_algebra,
    field_algebra,
    matrix_algebra,
    product_algebra,
    truncated_poly_algebra,
    upper_triangular_algebra,
)
from topring.fields import GF
from topring.modules import (
    composition_length,
    cyclic_submodule,
    decompose_indecomposable,
    quotient_module,
    right_regular_module,
)
from topring.towers import (
    IdealTower,
    TowerError,
    adic_tower,
    block_product_tower,
    build_ideal_tower,
    build_tower,
    classify_perfect,
    classify_semisimple,
    constant_tower,
    hom_diagnostics,
    quotient_tower,
    strongly_closed_check,
    t_nilpotency_check,
    topological_jacobson_radical,
    tower_diagnostics,
    tp_formula_check,
)

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def test_constant_tower_of_prime_field():
    T = constant_tower(field_algebra(F2), 4)
    assert T.depth == 4
    assert T.intent == "exact"


def test_adic_tower_is_valid():
    T = adic_tower(F2, 5)
    assert [R.dim for R in T.levels] == [1, 2, 3, 4, 5, 6]
    assert T.intent == "truncation"


def test_product_tower_dropping_last_factor():
    T = block_product_tower([field_algebra(F3)] * 4, 3)
    assert [R.dim for R in T.levels] == [1, 2, 3, 4]


def test_non_surjective_transition_is_rejected():
    A = truncated_poly_algebra(F2, 2)
    # x -> 0 is a unital homomorphism onto the constants, not onto A
    T = np.array([[1, 0], [0, 0]], dtype=np.int64)
    msgs = tower_diagnostics([A, A], [T])
    assert any("not surjective" in m for m in msgs)
    with pytest.raises(TowerError):
        build_tower([A, A], [T])


def test_non_homomorphism_is_rejected():
    A = truncated_poly_algebra(F2, 2)
    swap = np.array([[0, 1], [1, 0]], dtype=np.int64)
    msgs = hom_diagnostics(A, A, swap)
    assert any("unit" in m for m in msgs)


def test_hom_diagnostics_names_pairs_in_order_and_caps_at_seventeen():
    A = upper_triangular_algebra(F3, 3)
    rng = np.random.default_rng(29)

    def pair_msgs(T):
        return [f"transition not multiplicative at basis pair ({i}, {j})"
                for i, j in hom_failures_loop(A, A, T)]

    T = rng.integers(0, 3, size=(A.dim, A.dim)).astype(np.int64)
    assert len(pair_msgs(T)) > 16
    if np.array_equal(linalg.matvec(F3, A.unit, T), A.unit):
        T[0, 0] = F3.ADD[T[0, 0], 1]
    assert hom_diagnostics(A, A, T) == ["transition does not send unit to unit"] + pair_msgs(T)[:16]
    # the unit is a sum of basis vectors with coefficient 1; solve for one
    # of their images so that the unit goes to the unit
    d = int(np.flatnonzero(A.unit)[0])
    others = F3.sub(linalg.matvec(F3, A.unit, T), T[d])
    T[d] = F3.sub(A.unit, others)
    assert np.array_equal(linalg.matvec(F3, A.unit, T), A.unit)
    assert len(pair_msgs(T)) > 17
    assert hom_diagnostics(A, A, T) == pair_msgs(T)[:17]
    # a few failures: all are named, then surjectivity is checked
    T = np.eye(A.dim, dtype=np.int64)
    off = int(np.flatnonzero(A.unit == 0)[0])
    T[off] = 0
    few = pair_msgs(T)
    assert 0 < len(few) <= 16
    assert hom_diagnostics(A, A, T) == few + ["transition is not surjective"]


def test_composite_transitions_are_compatible():
    T = adic_tower(F3, 4)
    F = F3
    direct = T.composite(4, 1)
    stepwise = linalg.matmul(F, linalg.matmul(F, T.transitions[3], T.transitions[2]), T.transitions[1])
    assert np.array_equal(direct, stepwise)


# ---------------------------------------------------------------------------
# Topological Jacobson radical
# ---------------------------------------------------------------------------


def test_adic_radical_tower():
    T = adic_tower(F2, 4)
    H = topological_jacobson_radical(T)
    assert [I.dim for I in H.ideals] == [0, 1, 2, 3, 4]
    assert np.array_equal(H.ideals[2].basis, np.array([[0, 1, 0], [0, 0, 1]], dtype=np.int64))


def test_product_radical_tower_is_zero():
    T = block_product_tower([field_algebra(F3)] * 3, 2)
    H = topological_jacobson_radical(T)
    assert all(I.dim == 0 for I in H.ideals)


def test_constant_triangular_radical_tower():
    T = constant_tower(upper_triangular_algebra(F2, 2), 3)
    H = topological_jacobson_radical(T)
    for I in H.ideals:
        assert np.array_equal(I.basis, np.array([[0, 1, 0]], dtype=np.int64))


def test_brute_force_oracle_disagreeing_with_the_radical_trips(monkeypatch):
    # an oracle that reads every radical as zero misses rad(F2[x]/(x^2))
    monkeypatch.setattr(towers, "radical_bruteforce",
                        lambda R: np.zeros((0, R.dim), dtype=np.int64))
    with pytest.raises(InternalInconsistencyError,
                       match="^level 1: radical differs from the brute-force oracle$"):
        topological_jacobson_radical(adic_tower(F2, 2))


@pytest.mark.parametrize("T,small", [
    (constant_tower(upper_triangular_algebra(F2, 2), 3), 1),
    # levels F3[x]/(x^7) and F3[x]/(x^8) have 2187 and 6561 elements
    (adic_tower(F3, 7), 6),
], ids=["constant-t2", "adic-f3"])
def test_brute_force_oracle_runs_once_per_small_level_object(monkeypatch, T, small):
    seen = []
    real = towers.radical_bruteforce

    def counting(R):
        seen.append(R)
        return real(R)

    monkeypatch.setattr(towers, "radical_bruteforce", counting)
    topological_jacobson_radical(T)
    assert len(seen) == len({id(R) for R in seen}) == small
    assert {id(R) for R in seen} == {id(R) for R in T.levels if R.cardinality() <= 1024}


def test_incompatible_ideal_tower_is_rejected():
    T = adic_tower(F2, 2)
    H = topological_jacobson_radical(T)
    zero = SubspaceIdeal(T.levels[1], np.zeros((0, T.levels[1].dim), dtype=np.int64))
    broken = [H.ideals[0], zero, H.ideals[2]]
    with pytest.raises(TowerError):
        build_ideal_tower(T, broken)


def test_ideals_of_another_algebra_of_the_same_dimension_are_rejected():
    T = constant_tower(product_algebra(field_algebra(F2), field_algebra(F2)), 1)
    wrong = SubspaceIdeal(truncated_poly_algebra(F2, 2), np.zeros((0, 2), dtype=np.int64))
    with pytest.raises(TowerError) as err:
        build_ideal_tower(T, [wrong, wrong])
    assert err.value.diagnostics == [f"level {n}: ideal lives in the wrong algebra" for n in (0, 1)]


def test_tp_formula_pair_count():
    T = adic_tower(F2, 3)
    H = topological_jacobson_radical(T)
    assert tp_formula_check(T, H) == 6


# ---------------------------------------------------------------------------
# T-nilpotency
# ---------------------------------------------------------------------------


def test_zero_ideal_tower_certificate():
    T = block_product_tower([field_algebra(F3)] * 3, 2)
    H = topological_jacobson_radical(T)
    res = t_nilpotency_check(T, H)
    assert res.kind == "certificate"
    assert res.indices == [1, 1, 1]


def test_adic_nilpotency_indices():
    T = adic_tower(F2, 4)
    H = topological_jacobson_radical(T)
    res = t_nilpotency_check(T, H)
    assert res.indices == [1, 2, 3, 4, 5]


def test_constant_triangular_nilpotency_index_two():
    T = constant_tower(upper_triangular_algebra(F2, 2), 2)
    H = topological_jacobson_radical(T)
    res = t_nilpotency_check(T, H)
    assert res.indices == [2, 2, 2]


def test_ideal_outside_radical_is_reported():
    A = product_algebra(field_algebra(F2), field_algebra(F2))
    T = constant_tower(A, 1)
    e1 = np.array([1, 0], dtype=np.int64)
    I = SubspaceIdeal(A, ideal_span(A, e1[None, :], "two"), side="two")
    H = build_ideal_tower(T, [I, I])
    with pytest.raises(TowerError):
        t_nilpotency_check(T, H)


# ---------------------------------------------------------------------------
# Strong closedness
# ---------------------------------------------------------------------------


def test_zero_ideal_lift_is_identity():
    T = block_product_tower([field_algebra(F3)] * 3, 2)
    H = topological_jacobson_radical(T)
    cert = strongly_closed_check(T, H, sizes=5, seed=3)
    assert cert.identity_lift
    assert cert.repairs == 0
    assert cert.families_lifted == 5


def test_adic_lift_of_zero_convergent_triple():
    T = adic_tower(F2, 4)
    H = topological_jacobson_radical(T)
    cert = strongly_closed_check(T, H, sizes=3, seed=0)
    assert cert.families_lifted == 3
    assert not cert.identity_lift
    size, families, lifts = cert.lifts[0]
    assert size == 3
    # re-verify the recorded data: lifts project to members and are compatible
    for member, lift in zip(families, lifts):
        for n in range(1, len(lift)):
            down = linalg.matvec(F2, lift[n], T.transitions[n - 1])
            assert np.array_equal(down, lift[n - 1])


def test_strong_closedness_multiple_sizes():
    T = adic_tower(F3, 3)
    H = topological_jacobson_radical(T)
    cert = strongly_closed_check(T, H, sizes=[2, 4], seed=1)
    assert cert.sizes == [2, 4]
    assert cert.families_lifted == 6


# ---------------------------------------------------------------------------
# Semisimplicity classification
# ---------------------------------------------------------------------------


def test_growing_semisimple_tower_factor_multiset():
    blocks = [
        product_algebra(field_algebra(F2), matrix_algebra(F2, 2)),
        field_extension_algebra(F2, 2),
    ]
    T = block_product_tower(blocks, 2)
    res = classify_semisimple(T)
    assert res.kind == "SEMISIMPLE"
    assert res.factors == [(2, 1), (2, 2), (4, 1)]


def test_adic_tower_is_not_semisimple():
    T = adic_tower(F2, 3)
    res = classify_semisimple(T)
    assert res.kind == "NOT"
    assert res.witness_level == 1


def test_constant_field_tower_is_semisimple():
    T = constant_tower(field_algebra(F5), 3)
    res = classify_semisimple(T)
    assert res.kind == "SEMISIMPLE"
    assert res.factors == [(5, 1)]


def test_semisimple_levels_have_split_modules():
    # sampled finite modules over a semisimple level decompose into simples
    blocks = [product_algebra(field_algebra(F2), matrix_algebra(F2, 2))]
    T = block_product_tower(blocks, 1)
    assert classify_semisimple(T).kind == "SEMISIMPLE"
    A = T.levels[1]
    reg = right_regular_module(A)
    samples = 0
    for v in A.all_elements()[1:]:
        sub = cyclic_submodule(reg, v)
        if sub.shape[0] == reg.dim:
            continue
        Q, _, _ = quotient_module(reg, sub)
        cert = decompose_indecomposable(Q)
        for N in cert.summands:
            assert composition_length(N) == 1
        samples += 1
        if samples == 10:
            break
    assert samples == 10


# ---------------------------------------------------------------------------
# Perfectness classification
# ---------------------------------------------------------------------------


def test_adic_tower_is_perfect():
    T = adic_tower(F2, 4)
    report = classify_perfect(T)
    assert report.verdict == "PERFECT"
    assert report.t_nilpotency.indices == [1, 2, 3, 4, 5]
    assert report.semisimple_quotient.kind == "SEMISIMPLE"
    assert report.semisimple_quotient.factors == [(2, 1)]
    assert report.equivalent_conditions == ["(i)", "(i')", "(ii)", "(iii)", "(iii')", "(iv)"]


def test_matrix_product_tower_is_perfect_and_semisimple():
    T = block_product_tower([matrix_algebra(F2, 2), matrix_algebra(F2, 2)], 1)
    report = classify_perfect(T)
    assert report.verdict == "PERFECT"
    assert all(I.dim == 0 for I in report.radical_tower.ideals)
    assert report.semisimple_quotient.factors == [(2, 2), (2, 2)]
    assert classify_semisimple(T).kind == "SEMISIMPLE"


def test_constant_triangular_tower_is_perfect():
    T = constant_tower(upper_triangular_algebra(F2, 2), 2)
    report = classify_perfect(T)
    assert report.verdict == "PERFECT"
    assert report.semisimple_quotient.factors == [(2, 1), (2, 1)]
    assert report.caveats


def test_quotient_tower_of_adic_is_constant_field():
    T = adic_tower(F3, 3)
    H = topological_jacobson_radical(T)
    QT, projs, sections = quotient_tower(T, H)
    assert all(R.dim == 1 for R in QT.levels)
    for n in range(T.depth):
        assert QT.transitions[n].shape == (1, 1)
    res = classify_semisimple(QT)
    assert res.factors == [(3, 1)]

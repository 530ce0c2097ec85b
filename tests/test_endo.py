"""Bass colimits, split checks, descending chain checks and the bridge."""

import numpy as np
import pytest

from oracles import bass_flat_hom_space
from topring import endo, linalg
from topring.acceptance import _finite_ring_pool
from topring.algebras import (
    AlgebraError,
    InternalInconsistencyError,
    cyclic_group_algebra,
    SubspaceIdeal,
    ideal_span,
    matrix_algebra,
    truncated_poly_algebra,
)
from topring.endo import (
    bass_flat,
    omega_system,
    perfectness_bridge,
    polynomial_adic_system,
    sample_sequence,
    sigma_coperfect_check,
    split_omega_limit_check,
    system_family,
)
from topring.fields import GF
from topring.matrixtop import matrix_algebra_over
from topring.modules import (
    FiniteModule,
    cyclic_submodule,
    direct_sum,
    endo_algebra,
    left_regular_module,
    module_map_failures,
    quotient_module,
    right_regular_module,
    submodule_module,
)
from topring.wedderburn import wedderburn

F2 = GF(2, 1)
DUAL = truncated_poly_algebra(F2, 2)
X_IDEAL = SubspaceIdeal(DUAL, ideal_span(DUAL, np.array([[0, 1]], dtype=np.int64), "right"),
                        side="right")
MAT2 = matrix_algebra(F2, 2)


def dual_simple():
    RR = right_regular_module(DUAL)
    S, _, _ = quotient_module(RR, X_IDEAL.basis)
    return S


def mat2_natural():
    stack = np.stack([
        np.array([[1, 0], [0, 0]]),
        np.array([[0, 1], [0, 0]]),
        np.array([[0, 0], [1, 0]]),
        np.array([[0, 0], [0, 1]]),
    ]).astype(np.int64)
    return FiniteModule(MAT2, stack, side="right")


def chain_family(depth):
    return system_family(polynomial_adic_system(F2, depth))


# ---------------------------------------------------------------------------
# Bass colimits
# ---------------------------------------------------------------------------


def test_bass_flat_nilpotent_sequence_collapses():
    seq = np.array([[0, 1]] * 4, dtype=np.int64)
    d = bass_flat(DUAL, seq)
    assert d.image_ranks == [1, 0, 0, 0]
    assert d.stabilization_index == 2
    assert d.colimit.dim == 0
    assert d.verdict == "PROJECTIVE"
    assert d.section.shape == (0, 2)


def test_bass_flat_identity_sequence_is_free():
    d = bass_flat(DUAL, np.array([DUAL.unit] * 3, dtype=np.int64))
    assert d.stabilization_index == 1
    assert d.colimit.dim == 2
    assert np.array_equal(linalg.matmul(F2, d.section, d.projection),
                          np.eye(2, dtype=np.int64))


def test_bass_flat_unit_sequence_over_group_algebra():
    C3 = cyclic_group_algebra(F2, 3)
    g = np.array([0, 1, 0], dtype=np.int64)
    assert C3.inverse(g) is not None
    d = bass_flat(C3, np.array([g] * 3, dtype=np.int64))
    assert d.stabilization_index == 1
    assert d.colimit.dim == 3
    assert d.verdict == "PROJECTIVE"


def test_bass_flat_colimit_depends_only_on_the_tail():
    # x then units: the early collapse is undone by the invertible tail
    d = bass_flat(DUAL, np.array([[0, 1], [1, 0], [1, 0]], dtype=np.int64))
    assert d.image_ranks == [1, 1, 1]
    assert d.colimit.dim == 2


def test_bass_flat_seeded_battery_always_projective():
    rings = [DUAL, cyclic_group_algebra(F2, 3), MAT2,
             truncated_poly_algebra(GF(3, 1), 2)]
    for ring in rings:
        for seed in range(25):
            d = bass_flat(ring, sample_sequence(ring, 6, seed))
            assert d.verdict == "PROJECTIVE"
            if d.colimit.dim:
                assert np.array_equal(
                    linalg.matmul(ring.field, d.section, d.projection),
                    np.eye(d.colimit.dim, dtype=np.int64))


def test_bass_flat_fitting_section_against_the_hom_space_route():
    # the Fitting section is the one Hom(colimit, R) section with rows in
    # R*a^N; the old search may pick another when Hom(colimit, ker) != 0,
    # which a commutative ring never allows (ker and im are ring factors)
    changed = set()
    for i, R in enumerate(_finite_ring_pool()):
        F = R.field
        LR = left_regular_module(R)
        for seed in range(100):
            seq = sample_sequence(R, 6, seed)
            d = bass_flat(R, seq)
            ranks, s, kernel, B, proj, old, image = bass_flat_hom_space(R, seq)
            assert d.image_ranks == ranks
            assert d.stabilization_index == s
            assert np.array_equal(d.kernel_basis, kernel)
            assert np.array_equal(d.projection, proj)
            assert d.colimit.dim == B.dim
            eye = np.eye(B.dim, dtype=np.int64)
            for section in (d.section, old):
                assert np.array_equal(linalg.matmul(F, section, proj), eye)
                assert module_map_failures(d.colimit, LR, section).size == 0
            assert linalg.in_row_space(F, image, d.section)
            if linalg.in_row_space(F, image, old):
                assert np.array_equal(d.section, old)
            elif np.array_equal(R.c, np.swapaxes(R.c, 0, 1)):
                pytest.fail(f"commutative ring {i} seed {seed}: Hom-space section leaves R*a^N")
            if not np.array_equal(d.section, old):
                changed.add(i)
    # only noncommutative rings can get here, and some of the pool's do
    assert changed


def test_bass_flat_split_failures_are_inconsistencies(monkeypatch):
    # a fresh ring: MAT2 may already hold the split for this tail, and a
    # cached split would never reach the patched functions
    R = matrix_algebra(F2, 2)
    seq = np.array([[1, 0, 0, 0]], dtype=np.int64)
    with monkeypatch.context() as m:
        m.setattr(linalg, "inverse", lambda F, A: None)
        with pytest.raises(InternalInconsistencyError, match="failed to split"):
            bass_flat(R, seq)
    with monkeypatch.context() as m:
        # a zero coordinate matrix makes the section zero
        m.setattr(linalg, "inverse", lambda F, A: np.zeros_like(A))
        with pytest.raises(InternalInconsistencyError, match="failed verification"):
            bass_flat(R, seq)
    with monkeypatch.context() as m:
        m.setattr(endo, "module_map_failures", lambda M, N, T: np.array([0]))
        with pytest.raises(InternalInconsistencyError, match="not a module map"):
            bass_flat(R, seq)
    assert bass_flat(R, seq).verdict == "PROJECTIVE"


def test_bass_flat_computes_one_split_per_ring_and_tail(monkeypatch):
    calls = []
    real = endo._fitting_split

    def counted(R, tail):
        calls.append(tail.tobytes())
        return real(R, tail)

    monkeypatch.setattr(endo, "_fitting_split", counted)
    R = _finite_ring_pool()[8]
    seqs = [sample_sequence(R, 6, j) for j in range(100)]
    for seq in seqs:
        bass_flat(R, seq)
    assert len(calls) == len(set(calls)) == 31
    # the same sequences again on the same object: nothing new
    for seq in seqs:
        bass_flat(R, seq)
    assert len(calls) == 31
    # an equal ring built anew keeps no split of the first one
    R2 = _finite_ring_pool()[8]
    assert R2 == R and R2 is not R
    bass_flat(R2, seqs[0])
    assert len(calls) == 32


def test_stacked_bass_flat_computes_one_split_per_ring_and_tail(monkeypatch):
    calls = []
    real = endo._fitting_split

    def counted(R, tail):
        calls.append(tail.tobytes())
        return real(R, tail)

    monkeypatch.setattr(endo, "_fitting_split", counted)
    R = _finite_ring_pool()[8]
    stack = np.stack([sample_sequence(R, 6, j) for j in range(100)])
    assert len(bass_flat(R, stack)) == 100
    # one split per tail, in the order the tails first appear in the stack
    assert calls == list(dict.fromkeys(seq[-1].tobytes() for seq in stack))
    assert len(calls) == 31
    bass_flat(R, stack)
    assert len(calls) == 31


def test_bass_flat_shared_split_is_read_only():
    # tail e_11 in Mat_2(F2): kernel and colimit both have dimension 2
    R = matrix_algebra(F2, 2)
    tail = np.array([[1, 0, 0, 0]], dtype=np.int64)
    d = bass_flat(R, tail)
    assert d.kernel_basis.shape[0] == d.colimit.dim == 2
    for arr in (d.section, d.projection, d.kernel_basis, d.colimit.action):
        with pytest.raises(ValueError):
            arr[0, 0] = 1 - arr[0, 0]
    again = bass_flat(R, np.vstack([R.unit[None, :], tail]))
    assert again.section is d.section and again.colimit is d.colimit


def test_bass_flat_rejects_bad_sequences():
    with pytest.raises(AlgebraError):
        bass_flat(DUAL, np.zeros((0, 2), dtype=np.int64))
    with pytest.raises(AlgebraError):
        bass_flat(DUAL, np.array([[0, 5]], dtype=np.int64))


@pytest.mark.parametrize("seq", [
    [[1, 0, 0, 1], [0, 1, 1, 0]],  # rows of width 4 on a ring of dimension 2
    [1, 0, 0, 1, 1, 0],            # a flat array of three terms' coordinates
    [[[[1, 0]]]],                  # a stack of stacks
    5,
], ids=["wide-rows", "flat", "four-axes", "scalar"])
def test_bass_flat_rejects_a_sequence_of_the_wrong_shape(seq):
    with pytest.raises(AlgebraError, match=r"\(d, 2\) or a stack of shape \(S, d, 2\)"):
        bass_flat(DUAL, np.array(seq, dtype=np.int64))


def test_bass_flat_takes_a_stack_of_sequences():
    seqs = np.array([[[0, 1]] * 4, [[1, 0]] * 4, [[0, 1], [1, 0], [1, 0], [1, 0]]])
    datums = bass_flat(DUAL, seqs)
    assert [d.image_ranks for d in datums] == [[1, 0, 0, 0], [2, 2, 2, 2], [1, 1, 1, 1]]
    assert [d.stabilization_index for d in datums] == [2, 1, 1]
    assert all(np.array_equal(d.sequence, seq) for d, seq in zip(datums, seqs))
    assert bass_flat(DUAL, np.zeros((0, 4, 2), dtype=np.int64)) == []
    with pytest.raises(AlgebraError, match="at least one term"):
        bass_flat(DUAL, np.zeros((3, 0, 2), dtype=np.int64))


def test_bass_flat_stack_checks_every_sequence(monkeypatch):
    stack = np.stack([sample_sequence(DUAL, 6, j) for j in range(5)])
    stack[-1, -1, 1] = 2
    with pytest.raises(AlgebraError, match="out of field range"):
        bass_flat(DUAL, stack)

    # a rank that grows in the middle sequence of the stack, and only there
    stack = np.stack([sample_sequence(MAT2, 6, j) for j in range(5)])
    real = linalg.rref

    def growing(F, M):
        R, ranks = real(F, M)
        L = ranks.shape[0] // 5
        ranks[2 * L + 3] = ranks[2 * L + 2] + 1
        return R, ranks

    monkeypatch.setattr(linalg, "rref", growing)
    with pytest.raises(InternalInconsistencyError, match="image chain cardinalities increased"):
        bass_flat(MAT2, stack)


# ---------------------------------------------------------------------------
# Direct systems and split checks
# ---------------------------------------------------------------------------


def test_omega_system_validates_maps():
    M = right_regular_module(DUAL)
    bad = np.array([[1, 0], [0, 0]], dtype=np.int64)  # kills x, not a module map
    with pytest.raises(AlgebraError):
        omega_system([M, M], [bad])
    with pytest.raises(AlgebraError):
        omega_system([M, M], [])
    with pytest.raises(AlgebraError):
        omega_system([M, M], [np.eye(3, dtype=np.int64)])


def test_split_constant_identity_system():
    C3 = cyclic_group_algebra(F2, 3)
    M = right_regular_module(C3)
    eye = np.eye(3, dtype=np.int64)
    v = split_omega_limit_check(omega_system([M] * 4, [eye] * 3))
    assert v.kind == "SPLIT"
    assert v.slot == 1
    expected = np.zeros((3, 12), dtype=np.int64)
    expected[:, :3] = eye
    assert np.array_equal(v.section, expected)


def test_split_single_module_system():
    M = right_regular_module(DUAL)
    v = split_omega_limit_check(omega_system([M], []))
    assert v.kind == "SPLIT"
    assert v.slot == 1


def test_split_epimorphism_image_system_over_group_algebra():
    C3 = cyclic_group_algebra(F2, 3)
    M = right_regular_module(C3)
    wd = wedderburn(C3)
    e = next(f.central_idempotent for f in wd.factors if f.card == 4)
    Re = C3.rmul_matrix(e)
    img = linalg.row_space_basis(F2, Re)
    Sub, emb = submodule_module(M, img)
    T1 = np.stack([linalg.solve_left(F2, emb, linalg.matvec(F2, row, Re))
                   for row in np.eye(3, dtype=np.int64)])
    eye = np.eye(Sub.dim, dtype=np.int64)
    v = split_omega_limit_check(omega_system([M, Sub, Sub, Sub], [T1, eye, eye]))
    assert v.kind == "SPLIT"
    assert v.slot == 2
    comps = np.vstack([linalg.matmul(F2, T1, np.eye(2, dtype=np.int64)),
                       eye, eye, eye])
    assert np.array_equal(linalg.matmul(F2, v.section, comps),
                          np.eye(2, dtype=np.int64))


def test_split_chain_family_has_height_obstruction():
    v = split_omega_limit_check(polynomial_adic_system(F2, 6))
    assert v.kind == "NOT_SPLIT"
    assert v.obstruction.socle_heights == [0, 1, 2, 3, 4, 5]
    assert v.obstruction.sum_height_bound == 5
    assert v.obstruction.levels == 6


def test_split_chain_family_over_odd_characteristic():
    v = split_omega_limit_check(polynomial_adic_system(GF(3, 1), 4))
    assert v.kind == "NOT_SPLIT"
    assert v.obstruction.socle_heights == [0, 1, 2, 3]


def test_split_untagged_growing_system_is_unknown():
    sysd = polynomial_adic_system(F2, 5)
    v = split_omega_limit_check(omega_system(sysd.modules, sysd.maps, ground="finite"))
    assert v.kind == "UNKNOWN"
    assert v.depth == 5


def test_polynomial_adic_system_needs_depth_two():
    with pytest.raises(AlgebraError):
        polynomial_adic_system(F2, 1)


# ---------------------------------------------------------------------------
# Descending cyclic chains over the endomorphism ring
# ---------------------------------------------------------------------------


def test_sigma_simple_module_certificate():
    r = sigma_coperfect_check(mat2_natural(), depth=6, seed=0)
    assert r.kind == "certificate"
    assert r.evidence == "bound"
    assert r.bound == 1
    assert r.max_length == 1


def test_sigma_semisimple_cube_certificate():
    S3 = direct_sum([mat2_natural()] * 3)
    r = sigma_coperfect_check(S3, depth=6, seed=0)
    assert r.kind == "certificate"
    assert r.bound == 3
    assert r.max_length <= 3


def test_sigma_showcase_family_witness():
    r = sigma_coperfect_check(chain_family(6), depth=6, seed=0)
    assert r.kind == "witness"
    assert r.copies == 1
    assert r.max_length >= 5
    dims = [b.shape[0] for b in r.bases]
    assert dims == sorted(dims, reverse=True)
    assert dims[-1] == 0


def test_sigma_showcase_witness_survives_refinement():
    r = sigma_coperfect_check(chain_family(6), depth=6, seed=0,
                              refinement=chain_family(7))
    assert r.kind == "witness"
    assert r.refinement_verified


def test_sigma_refinement_without_a_witness_is_reported_unexamined():
    r = sigma_coperfect_check(chain_family(3), depth=20, seed=0, refinement=chain_family(4))
    assert (r.kind, r.evidence, r.refinement_verified) == ("certificate", "search", False)
    assert r.detail == "refinement not examined: no witness chain of length 20"
    plain = sigma_coperfect_check(chain_family(3), depth=20, seed=0)
    assert plain.detail.startswith("no chain of length 20 found")
    assert (plain.copies, plain.max_length) == (r.copies, r.max_length)


def test_sigma_collapsing_refinement_is_flagged():
    fam6, fam7 = chain_family(6), chain_family(7)
    zero_embed = np.zeros((21, 28), dtype=np.int64)
    with pytest.raises(InternalInconsistencyError):
        sigma_coperfect_check(fam6, depth=6, seed=0, refinement=fam7,
                              embed=zero_embed)


def test_sigma_shift_image_generators_descend():
    # the k-fold shift images x^k inside the deepest level generate a
    # strictly descending chain of cyclic submodules over End
    fam = chain_family(6)
    M = direct_sum(fam.members)
    _, _, ME = endo_algebra(M)
    offset = M.dim - 6  # the deepest level occupies the last block
    dims = []
    for k in range(6):
        v = np.zeros(M.dim, dtype=np.int64)
        v[offset + k] = 1
        dims.append(cyclic_submodule(ME, v).shape[0])
    assert dims == sorted(dims, reverse=True)
    assert len(set(dims)) == 6


def test_sigma_is_deterministic():
    a = sigma_coperfect_check(chain_family(6), depth=6, seed=3)
    b = sigma_coperfect_check(chain_family(6), depth=6, seed=3)
    assert np.array_equal(a.generators, b.generators)
    assert a.max_length == b.max_length


# ---------------------------------------------------------------------------
# The consistency bridge
# ---------------------------------------------------------------------------


def test_bridge_finite_module_is_consistent():
    rep = perfectness_bridge(right_regular_module(DUAL), depth=6, seed=0)
    assert rep.perfect.verdict == "PERFECT"
    assert rep.sigma.kind == "certificate"
    assert rep.consistent


def test_bridge_showcase_family_is_consistent():
    rep = perfectness_bridge(chain_family(6), depth=6, seed=0)
    assert rep.perfect.verdict == "NOT_PERFECT"
    assert rep.sigma.kind == "witness"
    assert rep.consistent


def test_bridge_semisimple_module_with_tower():
    S = mat2_natural()
    S3 = direct_sum([S] * 3)
    rep = perfectness_bridge(S3, depth=6, seed=0)
    assert rep.perfect.verdict == "PERFECT"
    assert rep.module_semisimple is True


def test_simple_cube_level_is_a_3x3_matrix_ring():
    S = mat2_natural()
    S3 = direct_sum([S] * 3)
    E3, homs, _ = endo_algebra(S3)
    assert E3.dim == 9
    assert wedderburn(E3).summary() == [(2, 3)]
    # explicit isomorphism with the 3x3 matrix ring over End(S)
    E_S, _, _ = endo_algebra(S)
    model = matrix_algebra_over(E_S, 3)
    assert model.dim == 9
    flat = homs.reshape(9, -1)
    U = np.zeros((9, 9), dtype=np.int64)
    for a in range(3):
        for b in range(3):
            Phi = np.zeros((6, 6), dtype=np.int64)
            Phi[2 * a: 2 * a + 2, 2 * b: 2 * b + 2] = np.eye(2, dtype=np.int64)
            coords = linalg.solve_left(F2, flat, Phi.reshape(-1))
            assert coords is not None
            U[a * 3 + b] = coords
    assert linalg.is_invertible(F2, U)
    assert np.array_equal(linalg.matvec(F2, model.unit, U), E3.unit)
    basis = np.eye(9, dtype=np.int64)
    for i in range(9):
        for j in range(9):
            lhs = E3.mul(U[i], U[j])
            rhs = linalg.matvec(F2, model.mul(basis[i], basis[j]), U)
            assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("target", [
    lambda: right_regular_module(DUAL),
    lambda: chain_family(3),
], ids=["module", "truncated-family"])
def test_sigma_chain_longer_than_its_bound_trips(monkeypatch, target):
    # every strict chain of cyclic submodules lies in v_0 E, a quotient of
    # E_E, so a chain longer than the composition length is a defect
    monkeypatch.setattr(endo, "composition_length", lambda M: 1)
    with pytest.raises(InternalInconsistencyError,
                       match="^chain of length [2-9] exceeds the composition length bound 1$"):
        sigma_coperfect_check(target(), depth=6, seed=0)

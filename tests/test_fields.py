"""Field axioms, exhaustively on small fields; the contraction kernel against
the scalar table oracle."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import list_default_modulus, list_mul_table, table_contract, table_fsum
from topring import fields, linalg, poly
from topring.fields import GF, FiniteField, default_modulus, is_prime

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (2, 4)]


@pytest.mark.parametrize("p,d", SMALL_FIELDS)
def test_axioms_exhaustive(p, d):
    F = GF(p, d)
    q = F.q
    a = np.arange(q)[:, None, None]
    b = np.arange(q)[None, :, None]
    c = np.arange(q)[None, None, :]
    assert (F.add(F.add(a, b), c) == F.add(a, F.add(b, c))).all()
    assert (F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))).all()
    assert (F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))).all()
    assert (F.ADD == F.ADD.T).all()
    assert (F.MUL == F.MUL.T).all()
    line = np.arange(q)
    assert (F.add(line, 0) == line).all()
    assert (F.mul(line, 1) == line).all()
    assert (F.add(line, F.neg(line)) == 0).all()
    units = line[1:]
    assert (F.mul(units, F.inv(units)) == 1).all()


@pytest.mark.parametrize("p,d", SMALL_FIELDS)
def test_frobenius_and_pth_root(p, d):
    F = GF(p, d)
    line = np.arange(F.q)
    frob = F.power(line, p)
    assert (F.power(frob, F.q // p) == line).all()
    assert (F.pth_root(frob) == line).all()
    # Frobenius is additive
    for a in range(F.q):
        for b in range(F.q):
            assert F.power(F.add(a, b), p) == F.add(F.power(a, p), F.power(b, p))


def test_fsum_matches_pairwise():
    F = GF(2, 2)
    rng = np.random.default_rng(7)
    arr = rng.integers(0, F.q, size=(5, 11))
    expect = np.zeros(5, dtype=np.int64)
    for j in range(11):
        expect = F.add(expect, arr[:, j])
    assert (F.fsum(arr, axis=1) == expect).all()
    assert F.fsum(arr) == F.fsum(expect, axis=0)


@pytest.mark.parametrize("F", [GF(2, 2), GF(3, 2)], ids=str)
def test_fsum_of_nothing_is_zero(F):
    assert F.fsum([], axis=0) == 0
    assert F.fsum([]) == 0
    assert np.array_equal(F.fsum(np.zeros((0, 3), dtype=np.int64), axis=0), [0, 0, 0])


@pytest.mark.parametrize("F", [GF(2), GF(2, 2)], ids=str)
def test_fsum_axes_are_checked_not_wrapped(F):
    # the gathered digits add a last axis, so an out-of-range axis must not
    # wrap round to a summed axis or reach the digit axis
    arr = np.arange(6).reshape(2, 3) % F.q
    for axis in (2, -3, (0, 2)):
        with pytest.raises(ValueError):
            F.fsum(arr, axis=axis)
    assert np.array_equal(F.fsum(arr, axis=(-1,)), F.fsum(arr, axis=1))
    assert F.fsum(arr, axis=(0, -1)) == F.fsum(arr)


def test_default_modulus_is_frozen_for_f16():
    # x^4 + x + 1 is the smallest monic irreducible of degree 4 over F_2
    assert default_modulus(2, 4) == (1, 1, 0, 0, 1)
    assert default_modulus(2, 2) == (1, 1, 1)


# every extension field under the table cap: 2^2..2^9, 3^2..3^5, 5^2, 5^3,
# 7^2, 7^3, 11^2, 13^2, 17^2, 19^2
EXTENSION_FIELDS = [(p, d) for p in range(2, 23) if is_prime(p)
                    for d in range(2, 10) if p ** d <= fields.MAX_FIELD_SIZE]


def test_twenty_extension_fields_under_the_cap():
    assert len(EXTENSION_FIELDS) == 20


@pytest.mark.parametrize("p,d", EXTENSION_FIELDS)
def test_default_modulus_matches_the_int_list_search(p, d):
    want = list_default_modulus(p, d)
    assert default_modulus(p, d) == want
    assert tuple(poly.first_irreducible(GF(p), d).tolist()) == want
    assert GF(p, d).modulus == want


def test_default_modulus_of_a_prime_field_is_x():
    assert default_modulus(5, 1) == (0, 1)
    assert GF(5).modulus == (0, 1)


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (3, 4)])
def test_mul_table_matches_int_list_arithmetic(p, d):
    F = GF(p, d)
    assert np.array_equal(F.MUL, list_mul_table(p, F.modulus))


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        FiniteField(4)
    with pytest.raises(ValueError):
        FiniteField(2, 2, modulus=(1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(ValueError, match="reducible"):
        FiniteField(3, 4, modulus=(1, 0, 2, 0, 1))  # x^4 + 2x^2 + 1 = (x^2 + 1)^2 over F_3
    with pytest.raises(ValueError, match="reducible"):
        FiniteField(2, 6, modulus=(1, 1, 1, 1, 1, 1, 1))  # (x^7 - 1)/(x - 1) over F_2
    with pytest.raises(ZeroDivisionError):
        GF(3).inv(0)
    for F in (GF(3), GF(2, 2), GF(3, 2)):
        with pytest.raises(ZeroDivisionError):
            F.inv(np.int64(0))
        with pytest.raises(ZeroDivisionError):
            F.inv(np.array([[1, 2], [0, 1]]))
        with pytest.raises(ZeroDivisionError):
            F.inv(np.arange(F.q)[:, None])
        assert np.array_equal(F.mul(F.inv(np.arange(1, F.q)), np.arange(1, F.q)), np.ones(F.q - 1))
    assert is_prime(2) and is_prime(13) and not is_prime(1) and not is_prime(9)


def test_only_fields_reads_the_tables():
    # elementwise field arithmetic outside fields goes through F.add, F.sub,
    # F.neg, F.mul and F.inv, and linalg keeps no wrappers of its own
    src = Path(fields.__file__).parent
    lookups = [f"{path.name}:{i}: {line.strip()}"
               for path in sorted(src.glob("*.py")) if path.name != "fields.py"
               for i, line in enumerate(path.read_text().splitlines(), 1)
               if re.search(r"\.(ADD|MUL|NEG|INV)\[", line)]
    assert lookups == []
    assert not [name for name in ("add", "sub", "scale") if hasattr(linalg, name)]


def _same_value_and_type(got, want):
    assert type(got) is type(want)
    assert np.asarray(got).dtype == np.asarray(want).dtype
    assert np.asarray(got).shape == np.asarray(want).shape
    assert np.array_equal(got, want)


def test_gf2_elementwise_is_the_table_lookup():
    # over GF(2) add, sub and mul are XOR and AND on the codes and neg is
    # a copy; each must give what the tables give, in the same type
    F = GF(2)
    table = {F.add: lambda a, b: F.ADD[a, b], F.sub: lambda a, b: F.ADD[a, F.NEG[b]],
             F.mul: lambda a, b: F.MUL[a, b]}
    rng = np.random.default_rng(2)
    pairs = [(a, b) for a in range(2) for b in range(2)]
    pairs += [(np.array(a), np.array(b)) for a, b in pairs[:4]]
    pairs += [(np.array(a), b) for a, b in pairs[:4]]
    pairs += [(np.arange(2)[:, None, None], np.arange(2)[None, :, None]),
              (rng.integers(0, 2, size=(3, 4, 5)), rng.integers(0, 2, size=(3, 4, 5))),
              (rng.integers(0, 2, size=(4, 5)), 1),
              (np.zeros((0, 3), dtype=np.int64), np.zeros((0, 3), dtype=np.int64))]
    for op, lookup in table.items():
        for a, b in pairs:
            _same_value_and_type(op(a, b), lookup(a, b))
    for a in [0, 1, np.array(0), np.array(1), np.arange(2), rng.integers(0, 2, size=(3, 4, 5))]:
        out = F.neg(a)
        _same_value_and_type(out, F.NEG[a])
        if isinstance(a, np.ndarray) and a.ndim:
            out[...] = 1 - out  # a copy: the argument is left as it was
            assert np.array_equal(F.neg(a), F.NEG[a])


def test_only_the_kernels_special_case_gf2():
    # the bit route over GF(2) lives in fields (XOR/AND) and linalg (packed
    # rows); every other module reaches it through them
    pattern = re.compile(r"\bq\s*[!=]=\s*2\b|\b2\s*[!=]=\s*[\w.]*\bq\b|\bq\s+in\s*[(\[{]\s*2\b")
    src = Path(fields.__file__).parent
    special = {path.name: [f"{i}: {line.strip()}"
                           for i, line in enumerate(path.read_text().splitlines(), 1)
                           if pattern.search(line)]
               for path in sorted(src.glob("*.py"))}
    assert special.pop("fields.py") and special.pop("linalg.py")
    assert {name: hits for name, hits in special.items() if hits} == {}


def test_field_identity_and_cache():
    assert GF(2, 2) is GF(2, 2)
    assert GF(2, 2) == FiniteField(2, 2)
    assert GF(2) != GF(3)


# ---------------------------------------------------------------------------
# The contraction kernel against the scalar table oracle
# ---------------------------------------------------------------------------

KERNEL_FIELDS = [(2, 1), (3, 1), (7, 1), (2, 2), (2, 3), (3, 2), (2, 4), (7, 3)]

# every spec the library contracts with, plus two deliberate extras: an
# outer product and a full contraction
EXTRA_SPECS = {"ac,bd->abcd", "i,i->"}
KERNEL_SPECS = [
    "ab,jbc->jac", "abk,kc->abc", "ac,bd->abcd", "cj,ijk->cik", "gjk,kl->gjl",
    "hi,ijk->hjk", "i,i->", "i,ij->j", "i,ijk->jk", "i,j->ij", "ia,ajk->ijk",
    "ij,ajk->iak", "ij,ijk->k", "ij,jk->ik", "ijk,kl->ijl", "ijm,mkl->ijkl",
    "ijtp,pl->ijtl", "irk,kl->irl", "irt,jtr->ijr", "itk,jkl->ijtl", "j,ijk->ik",
    "jb,abk->jak", "jk,gkl->gjl", "jk,kab->jab", "jkm,iml->ijkl", "jst,axtc->jaxsc",
    "mi,ijk->mjk", "mj,mjk->mk", "ri,ijk->rjk", "ri,jik->rjk", "rj,hjk->hrk",
    "rj,ijk->irk", "ryb,jbc->jryc", "shj,ijk->shik", "sij,sjk->sik", "t,iab->itba",
    "t,jab->jtab", "vi,ijk->vjk", "vj,hjk->hvk", "vj,ijk->vik", "xyi,ijk->xyjk",
    "xyjk,yzj->xyzk", "xyjk,yzj->xzk", "zab,wbc->zwac",
]


def test_kernel_specs_cover_the_library():
    """The list holds exactly the specs the library uses and the extras:
    a new contraction must be added, and a dropped one taken off."""
    src = Path(fields.__file__).parent
    used = {spec for path in src.glob("*.py")
            for spec in re.findall(r'contract\("([^"]*)"', path.read_text())}
    assert used and used - set(KERNEL_SPECS) == set()
    assert set(KERNEL_SPECS) - used == EXTRA_SPECS


def _elements(data, F, shape):
    flat = data.draw(st.lists(st.integers(0, F.q - 1), min_size=int(np.prod(shape)),
                              max_size=int(np.prod(shape))))
    return np.array(flat, dtype=np.int64).reshape(shape)


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(KERNEL_FIELDS), spec=st.sampled_from(KERNEL_SPECS),
       data=st.data())
def test_contract_matches_table_oracle(field, spec, data):
    F = GF(*field)
    ins = spec.split("->")[0]
    sa, sb = ins.split(",")
    sizes = {x: data.draw(st.integers(0, 3)) for x in dict.fromkeys(sa + sb)}
    A = _elements(data, F, [sizes[x] for x in sa])
    B = _elements(data, F, [sizes[x] for x in sb])
    assert np.array_equal(F.contract(spec, A, B), table_contract(F, spec, A, B))


@settings(max_examples=100, deadline=None)
@given(field=st.sampled_from(KERNEL_FIELDS),
       shape=st.lists(st.integers(0, 4), min_size=1, max_size=3), data=st.data())
def test_fsum_matches_table_oracle(field, shape, data):
    F = GF(*field)
    arr = _elements(data, F, shape)
    axis = data.draw(st.integers(-len(shape), len(shape) - 1))
    assert np.array_equal(F.fsum(arr, axis=axis), table_fsum(F, arr, axis))
    total = F.fsum(arr)
    assert isinstance(total, int)
    assert total == int(table_fsum(F, arr.reshape(-1), 0))


@pytest.mark.parametrize("F", [GF(2), GF(2, 2)], ids=str)
@pytest.mark.parametrize("spec", ["ii,i->i", "ij,jk->ii", "ij,jk->il", "ij,k->ik", "ij,jk->i"])
def test_contract_rejects_the_same_malformed_specs_over_every_field(F, spec):
    # a repeated index, an output index in neither operand, or an index
    # summed inside one operand; np.einsum would take a diagonal of "ii"
    ins = spec.split("->")[0].split(",")
    A, B = (np.ones((2,) * len(sub), dtype=np.int64) for sub in ins)
    with pytest.raises(ValueError):
        F.contract(spec, A, B)


@settings(max_examples=100, deadline=None)
@given(field=st.sampled_from(KERNEL_FIELDS), m=st.integers(0, 4), k=st.integers(0, 4),
       n=st.integers(0, 4), data=st.data())
def test_matmul_matches_table_oracle(field, m, k, n, data):
    F = GF(*field)
    A = _elements(data, F, (m, k))
    B = _elements(data, F, (k, n))
    got = linalg.matmul(F, A, B)
    assert got.shape == (m, n)
    assert np.array_equal(got, table_contract(F, "ij,jk->ik", A, B))


def test_prime_contract_exact_at_the_field_cap():
    # the largest prime field with a long contracted axis: every term is
    # (p-1)^2, so the integer sum is far beyond p before its one reduction
    F = GF(509)
    A = np.full((2, 4000), 508, dtype=np.int64)
    B = np.full((4000, 3), 508, dtype=np.int64)
    expect = (4000 * 508 * 508) % 509
    assert (F.contract("ij,jk->ik", A, B) == expect).all()
    assert F.fsum(np.full(4000, 508)) == (4000 * 508) % 509


def test_long_extension_sums_are_exact():
    # long sums against the oracle, and sums whose terms have every digit
    # at p - 1: the largest integer sums before the one reduction mod p
    F = GF(2, 8)
    rng = np.random.default_rng(3)
    A = rng.integers(0, F.q, size=(3, 12, 12))
    B = rng.integers(0, F.q, size=(12, 12, 2))
    assert np.array_equal(F.contract("itu,tuk->ik", A, B),
                          table_contract(F, "itu,tuk->ik", A, B))
    arr = rng.integers(0, F.q, size=(300, 4))
    assert np.array_equal(F.fsum(arr, axis=0), table_fsum(F, arr, 0))
    full = np.full(300, F.q - 1, dtype=np.int64)
    assert F.fsum(full[:127]) == F.q - 1
    assert F.fsum(full[:128]) == 0
    assert F.contract("i,i->", np.ones(127, dtype=np.int64), full[:127]) == F.q - 1
    assert (F.contract("ij,jk->ik", np.ones((2, 300), dtype=np.int64),
                       np.full((300, 3), F.q - 1)) == 0).all()
    assert (F.contract("itu,tuk->ik", np.ones((2, 12, 12), dtype=np.int64),
                       np.full((12, 12, 3), F.q - 1)) == 0).all()
    # a sum of 4097 terms over GF(512)
    F = GF(2, 9)
    full = np.full(4097, F.q - 1, dtype=np.int64)
    assert F.fsum(full) == F.q - 1
    assert F.fsum(full[:4096]) == 0
    assert F.contract("i,i->", np.ones(4097, dtype=np.int64), full) == F.q - 1
    assert (F.contract("ij,jk->ik", np.ones((2, 4096), dtype=np.int64),
                       np.full((4096, 3), F.q - 1)) == 0).all()
    a, b = rng.integers(0, F.q, size=(2, 4097))
    assert F.contract("i,i->", a, b) == table_contract(F, "i,i->", a, b)

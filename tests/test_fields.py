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
from topring import corpus, fields, linalg, poly, serialize
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


def test_only_fields_names_float64():
    # exact arithmetic everywhere: float64 holds integer sums inside the
    # contraction kernel, under its exactness bound, and nowhere else
    src = Path(fields.__file__).parent
    hits = [f"{path.name}:{i}: {line.strip()}"
            for path in sorted(src.rglob("*.py")) if path.name != "fields.py"
            for i, line in enumerate(path.read_text().splitlines(), 1) if "float64" in line]
    assert hits == []


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


# ---------------------------------------------------------------------------
# The float64 route of the contraction kernel
# ---------------------------------------------------------------------------


# the kernel fields, every field of the bundled files (test below) and the
# largest prime under the 512-element cap
ROUTE_FIELDS = sorted(set(KERNEL_FIELDS) | {(509, 1)})


def _corpus_fields() -> set[tuple[int, int]]:
    loader = serialize.Loader()
    found = set()
    for name in sorted(corpus.render_all()):
        obj = loader.load(corpus.path(name))
        for ring in [obj] + list(getattr(obj, "levels", [])) + list(getattr(obj, "modules", [])):
            F = getattr(ring, "field", None) or getattr(getattr(ring, "algebra", None), "field", None)
            if F is not None:
                found.add((F.p, F.d))
    return found


def _spy_float(monkeypatch) -> list:
    """Record the operand shapes of every product that takes the float64 route."""
    calls = []
    real = fields._float_matmul
    monkeypatch.setattr(fields, "_float_matmul", lambda X, Y: calls.append(X.shape) or real(X, Y))
    return calls


def test_route_fields_cover_the_corpus():
    assert {(2, 1), (3, 1)} <= _corpus_fields() <= set(ROUTE_FIELDS)


@pytest.mark.parametrize("field", ROUTE_FIELDS, ids=str)
@pytest.mark.parametrize("spec,batch", [("ij,jk->ik", 1), ("sij,sjk->sik", 3)])
def test_contract_matches_table_oracle_on_both_sides_of_the_float_threshold(
        field, spec, batch, monkeypatch):
    # m = n = 4: the matmul makes batch * 16 * k * d^2 multiply-adds, so k
    # is set one short of FLOAT_MIN_MADDS and one at it or past it
    F = GF(*field)
    calls = _spy_float(monkeypatch)
    rng = np.random.default_rng(F.q * batch)
    per_k = batch * 16 * F.d ** 2
    for k, floats in (((fields.FLOAT_MIN_MADDS - 1) // per_k, False),
                      (-(-fields.FLOAT_MIN_MADDS // per_k), True)):
        shape_a, shape_b = ((4, k), (k, 4)) if batch == 1 else ((batch, 4, k), (batch, k, 4))
        A = rng.integers(0, F.q, size=shape_a)
        B = rng.integers(0, F.q, size=shape_b)
        assert (fields._layout(spec, A.shape, B.shape, F.d)[-1]
                >= fields.FLOAT_MIN_MADDS) == floats
        calls.clear()
        assert np.array_equal(F.contract(spec, A, B), table_contract(F, spec, A, B))
        assert bool(calls) == floats
        # every digit at p - 1: the largest integer sums of this length
        top = np.full_like(A, F.q - 1)
        assert np.array_equal(F.contract(spec, top, B), table_contract(F, spec, top, B))


@pytest.mark.parametrize("field", [(509, 1), (7, 3), (2, 9)], ids=str)
def test_float_route_stops_at_the_exactness_bound(field, monkeypatch):
    # the float64 route needs K*d*(p-1)^2 < FLOAT_EXACT, K*d the summed
    # length of the matmul: with the bound moved down to these operands,
    # the largest K it allows takes the float64 route and one more takes
    # int64, and both give the exact sums
    assert fields.FLOAT_EXACT == 2 ** 53
    assert float(2 ** 53 - 1) + 1.0 == 2 ** 53 and float(2 ** 53 + 1) == 2 ** 53
    F = GF(*field)
    calls = _spy_float(monkeypatch)
    k = 3000 // F.d
    A = np.full((4, k), F.q - 1, dtype=np.int64)
    B = np.full((k, 5), F.q - 1, dtype=np.int64)
    want = table_contract(F, "ij,jk->ik", A[:1, :], B[:, :1])[0, 0]
    top = k * F.d * (F.p - 1) ** 2
    for bound, floats in ((top + 1, True), (top, False)):
        monkeypatch.setattr(fields, "FLOAT_EXACT", bound)
        calls.clear()
        got = F.contract("ij,jk->ik", A, B)
        assert bool(calls) == floats
        assert (got == want).all()


class _Products(np.ndarray):
    """An array that records the operand shapes of every matmul it enters."""

    seen: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _Products.seen.append((inputs[0].shape, inputs[1].shape))
        return super().__array_ufunc__(ufunc, method, *map(np.asarray, inputs), **kwargs)


def test_float_route_blocks_match_one_product(monkeypatch):
    # blocks of one dot product, of 3 columns of one row and of all but one
    # column of one row (the last slice short), of 7 rows of one matrix (the
    # last block short), of 2 matrices of a stack of 9 (a bound of 2m + 1
    # rows), and of the whole product; each float64 product makes at most
    # FLOAT_BLOCK multiply-adds (or one dot product), so none of its
    # operands holds more entries
    rng = np.random.default_rng(5)
    for X, Y in ((rng.integers(0, 3, size=(1, 300, 40)), rng.integers(0, 3, size=(1, 40, 70))),
                 (rng.integers(0, 3, size=(9, 30, 20)), rng.integers(0, 3, size=(9, 20, 40)))):
        k, n = Y.shape[1:]
        for block in (1, 3 * k, k * (n - 1), 7 * k * n, (2 * X.shape[1] + 1) * k * n,
                      1 << 30):
            monkeypatch.setattr(fields, "FLOAT_BLOCK", block)
            _Products.seen = []
            got = fields._float_matmul(X.view(_Products), Y.view(_Products))
            assert type(got) is np.ndarray and got.dtype == np.int64
            assert np.array_equal(got, X @ Y)
            assert _Products.seen
            for (b, m, kx), (_, ky, cols) in _Products.seen:
                assert kx == ky == k and b * m * k * cols <= max(block, k)

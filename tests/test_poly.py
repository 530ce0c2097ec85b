"""Polynomial arithmetic, Rabin's irreducibility test and the first
irreducibles, checked against the factorizer that tests/oracles.py keeps
(frozen examples plus the multiply-back property)."""

from __future__ import annotations

import numpy as np
import pytest

from topring import poly
from topring.fields import GF

from oracles import factor_poly, list_is_irreducible, poly_eval, poly_mul

FIELDS = [GF(2), GF(3), GF(2, 2), GF(5)]


def P(*coeffs):
    return np.array(coeffs, dtype=np.int64)


def multiply_back(F, lead, factors):
    acc = [lead]
    for f, m in factors:
        for _ in range(m):
            acc = poly_mul(F, acc, [int(c) for c in f])
    return acc


def test_cube_minus_one_over_f2():
    F = GF(2)
    lead, factors = factor_poly(F, P(1, 0, 0, 1))  # x^3 + 1 = x^3 - 1
    assert lead == 1
    got = [(list(map(int, f)), m) for f, m in factors]
    assert got == [([1, 1], 1), ([1, 1, 1], 1)]


def test_x4_plus_x_plus_1_irreducible_over_f2():
    F = GF(2)
    f = P(1, 1, 0, 0, 1)
    assert poly.is_irreducible(F, f)
    lead, factors = factor_poly(F, f)
    assert len(factors) == 1 and factors[0][1] == 1
    assert np.array_equal(factors[0][0], f)


@pytest.mark.parametrize("p", [2, 3])
def test_is_irreducible_matches_int_list_rabin(p):
    # every monic polynomial of degree <= 5 over F_p; the int-list test
    # reduces x itself modulo f, so it was only ever asked about degree >= 2
    F = GF(p)
    assert not poly.is_irreducible(F, P(1))
    assert all(poly.is_irreducible(F, P(a, 1)) for a in range(p))
    for n in range(2, 6):
        for tail in range(p ** n):
            f = [tail // p ** i % p for i in range(n)] + [1]
            assert poly.is_irreducible(F, P(*f)) == list_is_irreducible(p, f), f


@pytest.mark.parametrize("F,d", [(GF(2), 3), (GF(3), 2), (GF(2, 2), 2), (GF(5), 2)], ids=str)
def test_first_irreducible_is_the_smallest(F, d):
    # irreducible by Berlekamp, and every smaller tail (base-q digits, constant
    # term lowest) has a proper factor
    f = poly.first_irreducible(F, d)
    tail = sum(int(c) * F.q ** i for i, c in enumerate(f[:d]))
    assert len(f) == d + 1 and f[-1] == 1
    assert len(factor_poly(F, f)[1]) == 1 and factor_poly(F, f)[1][0][1] == 1
    for smaller in range(tail):
        g = P(*[smaller // F.q ** i % F.q for i in range(d)], 1)
        factors = factor_poly(F, g)[1]
        assert len(factors) > 1 or factors[0][1] > 1


def test_x_squared_over_f3():
    F = GF(3)
    lead, factors = factor_poly(F, P(0, 0, 1))
    assert lead == 1
    assert len(factors) == 1
    f, m = factors[0]
    assert list(map(int, f)) == [0, 1] and m == 2


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_multiply_back_on_random_polynomials(F):
    rng = np.random.default_rng(F.q * 1009)
    for _ in range(200):
        degree = int(rng.integers(1, 13))
        coeffs = rng.integers(0, F.q, size=degree + 1).astype(np.int64)
        if coeffs[-1] == 0:
            coeffs[-1] = 1
        f = poly.norm(coeffs)
        lead, factors = factor_poly(F, f)
        back = multiply_back(F, lead, factors)
        assert back == [int(c) for c in f]
        for g, _ in factors:
            assert poly.is_irreducible(F, g)
            assert int(g[-1]) == 1


def test_squarefree_multiplicities():
    F = GF(2)
    # (x+1)^2 * (x^2+x+1)^3
    f = [1]
    for g, m in [([1, 1], 2), ([1, 1, 1], 3)]:
        for _ in range(m):
            f = poly_mul(F, f, g)
    lead, factors = factor_poly(F, np.array(f, dtype=np.int64))
    got = sorted(((list(map(int, g)), m) for g, m in factors))
    assert got == [([1, 1], 2), ([1, 1, 1], 3)]


def test_gcd_and_divmod_agree_with_evaluation():
    F = GF(5)
    rng = np.random.default_rng(17)
    for _ in range(60):
        f = poly.norm(rng.integers(0, 5, size=rng.integers(1, 9)).astype(np.int64))
        g = poly.norm(rng.integers(0, 5, size=rng.integers(1, 6)).astype(np.int64))
        if len(g) == 0:
            continue
        q, r = poly.divmod_(F, f, g)
        recomposed = poly.add(F, poly.mul(F, q, g), r)
        assert np.array_equal(recomposed, f)
        for x in range(5):
            lhs = poly_eval(F, [int(c) for c in f], x)
            rhs = int(
                F.ADD[
                    F.MUL[poly_eval(F, [int(c) for c in q], x), poly_eval(F, [int(c) for c in g], x)],
                    poly_eval(F, [int(c) for c in r], x),
                ]
            )
            assert lhs == rhs

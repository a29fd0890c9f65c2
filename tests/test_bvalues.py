import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from abundancy import bvalues
from abundancy.bvalues import (
    abundancy_index,
    b_via_flags,
    b_via_multiplicativity,
    b_via_recursion,
    local_factor,
)
from abundancy.core import divisors
from abundancy.errors import BudgetError
from abundancy.sieve import sieve_b


def sigma(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def test_ell2_is_sigma():
    for n in range(1, 51):
        assert b_via_flags(2, n) == sigma(n)
        assert b_via_recursion(2, n) == sigma(n)
        assert b_via_multiplicativity(2, n) == sigma(n)


@pytest.mark.parametrize("p", [2, 3])
def test_recursion_reaches_deep_ell(p):
    # B(ell, p) = 1 + p + ... + p^(ell-1); one level per ell, no call depth
    assert b_via_recursion(1200, p) == (p**1200 - 1) // (p - 1)


def test_ell1_anchor():
    assert b_via_flags(1, 7) == 1
    assert b_via_recursion(1, 7) == 1


def test_local_factor_examples():
    assert local_factor(3, 2, 2) == 35
    assert local_factor(2, 2, 3) == 15  # sigma(8)
    assert local_factor(2, 3, 1) == 4
    assert local_factor(5, 7, 0) == 1


def test_three_routes_agree():
    for ell in range(2, 6):
        for n in range(1, 61):
            a = b_via_flags(ell, n)
            b = b_via_recursion(ell, n)
            c = b_via_multiplicativity(ell, n)
            assert a == b == c, (ell, n, a, b, c)


def test_multiplicativity_on_coprime_split():
    for ell in (2, 3, 4):
        assert b_via_multiplicativity(ell, 36) == (
            b_via_multiplicativity(ell, 4) * b_via_multiplicativity(ell, 9)
        )


@pytest.fixture(scope="module")
def tables():
    return {ell: sieve_b(ell, 2000) for ell in range(2, 6)}


@settings(max_examples=100, deadline=None)
@given(ell=st.integers(2, 5), n=st.integers(1, 2000))
def test_pointwise_routes_match_the_sieve(tables, ell, n):
    want = tables[ell][n]
    assert b_via_flags(ell, n) == want
    assert b_via_recursion(ell, n) == want
    assert b_via_multiplicativity(ell, n) == want


@settings(max_examples=100, deadline=None)
@given(ell=st.integers(2, 5), m=st.integers(1, 2000), k=st.integers(1, 2000))
def test_recursion_is_multiplicative_on_coprime_pairs(ell, m, k):
    assume(gcd(m, k) == 1)
    assert b_via_recursion(ell, m * k) == (
        b_via_recursion(ell, m) * b_via_recursion(ell, k)
    )


def test_multiplicativity_refuses_a_large_prime_in_bounded_time():
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=str(2**61 - 1)):
        b_via_multiplicativity(2, 2**61 - 1)
    assert time.perf_counter() - start < 2.0


def test_flags_refuses_past_the_chain_budget_before_the_walk(monkeypatch):
    # 720720 = 2^4 3^2 5 7 11 13: C(11, 7) C(9, 7) 8^4 = 48,660,480 chains
    def refuse(n):
        raise AssertionError("a divisor list was built")

    monkeypatch.setattr(bvalues, "divisors", refuse)
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="48,660,480 divisor chains"):
        b_via_flags(8, 720720)
    assert time.perf_counter() - start < 1.0


def test_flags_chain_budget_boundary(monkeypatch):
    # 12 = 2^2 3 has C(4, 2) C(3, 2) = 18 chains d_1 | d_2 | 12
    calls = []

    def counted(n):
        calls.append(n)
        return divisors(n)

    expected = b_via_recursion(3, 12)
    monkeypatch.setattr(bvalues, "divisors", counted)
    monkeypatch.setattr(bvalues, "DEFAULT_MAX_WORK", 18)
    assert b_via_flags(3, 12) == expected
    assert sorted(calls) == divisors(12)  # one list per distinct top
    monkeypatch.setattr(bvalues, "DEFAULT_MAX_WORK", 17)
    with pytest.raises(BudgetError, match="18 divisor chains"):
        b_via_flags(3, 12)


def test_abundancy_index():
    assert abundancy_index(2, 6) == 2  # perfect number
    assert abundancy_index(2, 28) == 2
    assert abundancy_index(3, 4) == Fraction(b_via_flags(3, 4), 16)


def test_guards():
    with pytest.raises(ValueError):
        b_via_flags(0, 5)
    with pytest.raises(ValueError):
        b_via_recursion(2, 0)
    with pytest.raises(ValueError):
        local_factor(1, 2, 1)
    with pytest.raises(ValueError):
        local_factor(2, 2, -1)
    with pytest.raises(ValueError):
        b_via_multiplicativity(1, 5)
    with pytest.raises(ValueError):
        abundancy_index(1, 5)

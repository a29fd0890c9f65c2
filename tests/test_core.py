import time
import tracemalloc

import numpy as np
import pytest

from abundancy import core
from abundancy.core import Factorization, divisors, factorize, primes_up_to
from abundancy.errors import DEFAULT_MAX_NMAX, BudgetError


def test_primes_small():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_primes_count_to_10000():
    assert len(primes_up_to(10_000)) == 1229


def test_primes_up_to_refuses_past_the_budget_before_allocating():
    # the mask alone would take limit + 1 bytes
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(BudgetError, match=str(DEFAULT_MAX_NMAX)):
            primes_up_to(DEFAULT_MAX_NMAX + 1)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1 and peak < 64 * 1024, (elapsed, peak)


def test_primes_up_to_budget_boundary(monkeypatch):
    monkeypatch.setattr(core, "DEFAULT_MAX_NMAX", 30)
    assert primes_up_to(30)[-1] == 29
    with pytest.raises(BudgetError):
        primes_up_to(31)


def test_prime_array_is_int64_and_matches_the_list():
    for limit in (0, 1, 2, 3, 4, 97, 10_000):
        a = core._prime_array(limit)
        assert a.dtype == np.int64 and a.tolist() == primes_up_to(limit)


def test_factorize_small():
    assert factorize(1).factors == ()
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(97).factors == ((97, 1),)
    assert factorize(360).value == 360


def test_factorize_above_spf_cap():
    # n just past 2^20: the factors still multiply back and ascend
    n = (1 << 20) + 7
    fac = factorize(n)
    prod = 1
    for p, a in fac:
        prod *= p**a
    assert prod == n
    ps = [p for p, _ in fac.factors]
    assert ps == sorted(ps)


def _factors_by_brute_force(n: int) -> tuple[tuple[int, int], ...]:
    out = []
    for p in range(2, n + 1):
        if n % p == 0 and all(p % q for q in range(2, p)):
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            out.append((p, a))
        if n == 1:
            break
    return tuple(out)


def test_factorize_matches_brute_force_to_5000():
    for n in range(1, 5001):
        fac = factorize(n)
        assert fac.value == n
        assert fac.factors == _factors_by_brute_force(n), n


@pytest.mark.parametrize("n", [(1 << 20) - 1, 1 << 20, (1 << 20) + 1])
def test_factorize_around_two_to_the_twenty(n):
    assert factorize(n).factors == _factors_by_brute_force(n)


def test_divisors_match_brute_force_to_2000():
    for n in range(1, 2001):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n


def test_factorize_below_the_trial_bound_square():
    # a prime near 10^12 needs divisors up to 10^6 only
    assert factorize(10**12 + 39).factors == ((10**12 + 39, 1),)


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


@pytest.mark.parametrize("n", [2.5, True])
def test_factorize_refuses_non_integers(n):
    with pytest.raises(ValueError, match=repr(n)):
        factorize(n)


def test_factorize_takes_numpy_integers():
    fac = factorize(np.int64(12))
    assert fac == factorize(12)
    assert all(type(p) is int for p, _ in fac)


def test_exponent_lookup():
    fac = factorize(2**3 * 5**2)
    assert fac.exponent(2) == 3
    assert fac.exponent(5) == 2
    assert fac.exponent(3) == 0
    assert len(fac) == 2


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    # divisor count via factorization
    fac = factorize(720)
    count = 1
    for _, a in fac:
        count *= a + 1
    assert len(divisors(720)) == count


def test_factorization_is_frozen():
    fac = factorize(6)
    with pytest.raises(AttributeError):
        fac.value = 7
    assert fac == Factorization(((2, 1), (3, 1)), 6)

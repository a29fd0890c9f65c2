"""Primes, factorization, and divisor machinery.

Every public function here returns exact Python integers; the one prime
sieve, _prime_array, also gives the sieve module its int64 array.
Factorization is trial division by 2 and the odd numbers up to sqrt(n),
the one path for every n, and it refuses with BudgetError past
MAX_TRIAL_DIVISOR; the module keeps no state between calls.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import DEFAULT_MAX_NMAX, MAX_TRIAL_DIVISOR, BudgetError


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, ascending. Empty list for limit < 2.

    Raises BudgetError past DEFAULT_MAX_NMAX, before any allocation.
    """
    if limit > DEFAULT_MAX_NMAX:
        raise BudgetError(
            f"primes_up_to({limit}) exceeds the memory budget ({DEFAULT_MAX_NMAX})"
        )
    return _prime_array(limit).tolist()


def _prime_array(limit: int) -> np.ndarray:
    """All primes <= limit as an ascending int64 array; the callers check
    the budget first. Eratosthenes over the odd numbers: entry i of the
    (limit + 1) // 2 byte mask stands for 2i + 1."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    odd = np.ones((limit + 1) // 2, dtype=bool)
    odd[0] = False  # 1
    for i in range(1, (isqrt(limit) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    return np.concatenate(([2], 2 * np.flatnonzero(odd).astype(np.int64) + 1))


@dataclass(frozen=True)
class Factorization:
    """Prime factorization of a positive integer.

    factors: ((p, a), ...) with primes strictly increasing and a >= 1.
    The empty tuple represents 1.
    """

    factors: tuple[tuple[int, int], ...]
    value: int

    def __iter__(self):
        return iter(self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def exponent(self, p: int) -> int:
        for q, a in self.factors:
            if q == p:
                return a
        return 0


def factorize(n: int) -> Factorization:
    """Factor the integer n >= 1. Raises ValueError for n < 1, for a bool
    and for anything operator.index refuses, such as 2.5; NumPy integers
    are taken, and the factors are Python ints.

    Raises BudgetError, naming n, when the odd trial divisors up to
    MAX_TRIAL_DIVISOR run out before one of them squared passes what is
    left of n.
    """
    try:
        if isinstance(n, bool):
            raise TypeError
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"factorize needs an integer, got {n!r}") from None
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    value = n
    factors: list[tuple[int, int]] = []
    a = 0
    while n % 2 == 0:
        n //= 2
        a += 1
    if a:
        factors.append((2, a))
    for d in range(3, MAX_TRIAL_DIVISOR + 1, 2):
        if d * d > n:
            break
        if n % d == 0:
            a = 0
            while n % d == 0:
                n //= d
                a += 1
            factors.append((d, a))
    else:
        raise BudgetError(
            f"factorize({value}) needs trial divisors past {MAX_TRIAL_DIVISOR}"
        )
    if n > 1:
        factors.append((n, 1))
    return Factorization(tuple(factors), value)


def divisors(n: int) -> list[int]:
    """Ascending list of divisors of n >= 1."""
    fac = factorize(n)
    ds = [1]
    for p, a in fac:
        pk = 1
        block = list(ds)
        for _ in range(a):
            pk *= p
            ds.extend(d * pk for d in block)
    ds.sort()
    return ds

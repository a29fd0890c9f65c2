"""Pointwise values B(l, n) by three independent routes.

B(l, n) is the sum over divisor chains d_1 | d_2 | ... | d_{l-1} | n of the
product d_1 * ... * d_{l-1}. The three routes:

  * b_via_flags: literal chain enumeration, refused with BudgetError past
    DEFAULT_MAX_WORK chains, counted before any is walked;
  * b_via_recursion: B(l, n) = sum_{d|n} (n/d)^{l-1} B(l-1, d), B(1, .) = 1;
  * b_via_multiplicativity: product of per-prime local factors.

The routes share no code on purpose. l = 1 is admitted by the first two as
the recursion anchor (value 1); the local-factor route requires l >= 2.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import divisors, factorize
from .errors import DEFAULT_MAX_WORK, BudgetError
from .qseries import qpoch


def b_via_flags(ell: int, n: int) -> int:
    """Chain enumeration: sum of d_1*...*d_{l-1} over d_1|...|d_{l-1}|n.

    There are prod C(a + l - 1, l - 1) chains over the p^a exactly dividing
    n; past DEFAULT_MAX_WORK of them it raises BudgetError before the walk.
    Each divisor list is built once per call.
    """
    if ell < 1 or n < 1:
        raise ValueError("need ell >= 1 and n >= 1")
    chains = math.prod(math.comb(a + ell - 1, ell - 1) for _, a in factorize(n))
    if chains > DEFAULT_MAX_WORK:
        raise BudgetError(
            f"b_via_flags({ell}, {n}) walks {chains:,} divisor chains, "
            f"more than DEFAULT_MAX_WORK = {DEFAULT_MAX_WORK:,}"
        )
    divs: dict[int, list[int]] = {}
    total = 0
    # stack holds (remaining chain length, top divisor, product so far)
    stack = [(ell - 1, n, 1)]
    while stack:
        depth, top, prod = stack.pop()
        if depth == 0:
            total += prod
            continue
        if top not in divs:
            divs[top] = divisors(top)
        for d in divs[top]:
            stack.append((depth - 1, d, prod * d))
    return total


def b_via_recursion(ell: int, n: int) -> int:
    """Divisor recursion, one level at a time over the divisors of n."""
    if ell < 1 or n < 1:
        raise ValueError("need ell >= 1 and n >= 1")
    divs = divisors(n)
    sub = {d: divisors(d) for d in divs}
    level = dict.fromkeys(divs, 1)  # B(1, d)
    for j in range(2, ell + 1):
        level = {d: sum((d // e) ** (j - 1) * level[e] for e in sub[d])
                 for d in divs}
    return level[n]


def local_factor(ell: int, p: int, a: int) -> int:
    """Value at a prime power: p^{(l-1)a} (p^{-a-1}; p^{-1})_{l-1} / (p^{-1}; p^{-1})_{l-1}.

    Evaluated as exact rationals with integrality asserted; a failed
    assertion would mean the quotient formula itself is wrong.
    """
    if ell < 2:
        raise ValueError("local_factor needs ell >= 2")
    if a < 0:
        raise ValueError("exponent must be >= 0")
    if a == 0:
        return 1
    pinv = Fraction(1, p)
    num = qpoch(Fraction(1, p ** (a + 1)), pinv, ell - 1)
    den = qpoch(pinv, pinv, ell - 1)
    value = Fraction(p) ** ((ell - 1) * a) * num / den
    if value.denominator != 1:
        raise ArithmeticError(
            f"local factor not integral at (ell={ell}, p={p}, a={a}): {value}"
        )
    return value.numerator


def b_via_multiplicativity(ell: int, n: int) -> int:
    if ell < 2:
        raise ValueError("b_via_multiplicativity needs ell >= 2")
    out = 1
    for p, a in factorize(n):
        out *= local_factor(ell, p, a)
    return out


def abundancy_index(ell: int, n: int) -> Fraction:
    """B(l, n) / n^{l-1} as an exact rational."""
    if ell < 2:
        raise ValueError("abundancy_index needs ell >= 2")
    return Fraction(b_via_multiplicativity(ell, n), n ** (ell - 1))

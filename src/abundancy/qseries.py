"""q-Pochhammer products and the q-power-rule identity check.

Every value is exact. The identity under test:

    z(1-q) * sum_{k>=0} q^k (q^{k+1} z; q)_{l-1}  ==  (1-q)(1-(z;q)_l)/(1-q^l)

The left side is an infinite series; verify_power_rule truncates it with an
explicit geometric tail bound and reports both sides. With z = a/b and
q = c/d in lowest terms, both routes carry integer numerators over known
powers of b and d through their loops, and build one Fraction for each
value returned. The series' window slides as a queue of two stacks.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import MAX_POWER_COST, BudgetError


def qpoch(z: Fraction | int, q: Fraction | int, r: int) -> Fraction:
    """(z; q)_r = prod_{i=0}^{r-1} (1 - q^i z). r = 0 gives 1.

    With z = a/b and q = c/d this is prod_{i<r} (b d^i - c^i a) over
    b^r d^(r(r-1)/2).
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    z = Fraction(z)
    q = Fraction(q)
    a, b = z.numerator, z.denominator
    c, d = q.numerator, q.denominator
    num = 1
    ci = di = 1  # c^i, d^i
    for _ in range(r):
        num *= b * di - ci * a
        ci *= c
        di *= d
    return Fraction(num, b**r * d ** (r * (r - 1) // 2))


@dataclass(frozen=True)
class PowerRuleReport:
    lhs_truncated: Fraction
    rhs_exact: Fraction
    tail_bound: Fraction
    terms: int
    bound_ok: bool


def _runs_past(x_num: int, x_den: int, c: int, d: int, n: int) -> bool:
    """Whether x_num c^n > x_den d^n, for x_num, c, n >= 0 and x_den, d >= 1.

    The powers hold about n times the bits of d, so the logarithms decide
    first; the powers are formed only when the two sides are within the
    logarithms' rounding error of each other.
    """
    if not (x_num and c and n):
        return x_num * c**n > x_den * d**n
    logs = (math.log(x_num), math.log(x_den), n * math.log(c), n * math.log(d))
    gap = logs[0] - logs[1] + logs[2] - logs[3]
    if abs(gap) > 2**-40 * (1 + sum(logs)):
        return gap > 0
    return x_num * c**n > x_den * d**n


def _bits(ell: int, a: int, b: int, d: int, terms: float) -> float:
    """bits(K) for K = terms, with z = a/b and q = c/d.

    That is the size of the right side at K = 0 and of the Horner sum's
    denominator. Summing K terms takes about K + ell products of numbers
    that size, so MAX_POWER_COST caps the cost (K + ell) bits(K).
    """
    return ell * (b + abs(a)).bit_length() + (ell * terms + ell * (ell - 1) // 2) * d.bit_length()


def _terms_estimate(x_num: int, x_den: int, c: int, d: int) -> float:
    """About how many terms run while x_num c^k > x_den d^k; 0 at c = 0."""
    rate = math.log(d) - math.log(c) if c else math.inf  # ln(1/|q|) > 0, up to rounding
    return (math.log(x_num) - math.log(x_den)) / rate if rate > 0 else math.inf


def verify_power_rule(
    ell: int,
    z: Fraction | int,
    q: Fraction | int,
    tail_eps: Fraction | float | str = Fraction(1, 10**12),
) -> PowerRuleReport:
    """Check the q-power-rule identity at exact rational (z, q), |q| < 1.

    The series is cut at the first K where the tail bound
    |z(1-q)| (1+|z|)^{ell-1} |q|^K / (1-|q|) drops to tail_eps or below;
    every discarded term is bounded by that geometric envelope, so
    [lhs - tail_bound, lhs + tail_bound] encloses the true series value.
    bound_ok reports |lhs_truncated - rhs_exact| <= tail_eps.

    K is settled before anything is summed: a series whose cost
    (K + ell) bits(K) passes MAX_POWER_COST raises BudgetError, and every
    other one is summed. The cost is checked at K = 0 before the tail
    bound's scale is formed, and then at the largest K the cap admits.
    With z = a/b and q = c/d, term k is
    N_k / (b^(ell-1) d^(ell k + ell(ell-1)/2)), where
    N_k = c^k prod_{i<ell-1} (b d^(k+1+i) - c^(k+1+i) a), so the terms are
    summed by Horner's rule in d^ell.
    """
    if ell < 2:
        raise ValueError(f"ell must be >= 2, got {ell}")
    z = Fraction(z)
    q = Fraction(q)
    eps = Fraction(tail_eps) if not isinstance(tail_eps, float) else Fraction(str(tail_eps))
    if eps <= 0:
        raise ValueError("tail_eps must be positive")
    if abs(q) >= 1:
        raise ValueError("tail bound unachievable: need |q| < 1")

    a, b = z.numerator, z.denominator
    c, d = q.numerator, q.denominator
    bits = _bits(ell, a, b, d, 0)
    if ell * bits > MAX_POWER_COST:
        raise BudgetError(
            f"the power-rule series at ell={ell}, q={q} forms numbers of about "
            f"{bits:,} bits at any K, a cost of {ell * bits:,} already at K = 0, "
            f"more than MAX_POWER_COST = {MAX_POWER_COST:,}"
        )
    # the tail bound's scale is s_num / s_den; the loop runs on while
    # scale |q|^k > eps, that is while x_num |c|^k > x_den d^k
    s_num = abs(a) * (d - c) * (b + abs(a)) ** (ell - 1)
    s_den = b**ell * (d - abs(c))
    x_num = s_num * eps.denominator
    x_den = s_den * eps.numerator
    # lo: the largest K whose cost, at least ell bits(d) K^2, is within the cap
    lo, hi = 0, math.isqrt(MAX_POWER_COST // (ell * d.bit_length()))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if (mid + ell) * _bits(ell, a, b, d, mid) <= MAX_POWER_COST:
            lo = mid
        else:
            hi = mid - 1
    if _runs_past(x_num, x_den, abs(c), d, lo):
        terms = max(lo + 1, _terms_estimate(x_num, x_den, abs(c), d))
        raise BudgetError(
            f"the power-rule series at ell={ell}, q={q} needs about {terms:,.0f} "
            f"terms over numbers of about {_bits(ell, a, b, d, terms):,.0f} bits, "
            f"more than K = {lo}, the most whose cost (K + ell) bits(K) is within "
            f"MAX_POWER_COST = {MAX_POWER_COST:,}"
        )

    rhs = (1 - q) * (1 - qpoch(z, q, ell)) / (1 - q**ell)

    # term k's window is f_j = b d^j - c^j a, j = k+1 .. k+ell-1: `out` pops
    # suffix products of the older factors, and `run` is the product of the
    # newer ones, kept in `new` until `out` runs empty and they refill it
    new = [b * d**j - c**j * a for j in range(1, ell)]
    out, run = [], 1
    top_b, top_a = b * d ** (ell - 1), a * c ** (ell - 1)
    d_ell = d**ell
    acc = 0
    ck = dk = 1  # c^k, d^k
    k = 0
    while x_num * abs(ck) > x_den * dk:
        if not out:
            out = list(itertools.accumulate(reversed(new), operator.mul))
            new, run = [], 1
        acc = acc * d_ell + ck * (out.pop() * run)
        ck *= c
        dk *= d
        k += 1
        new.append(top_b * dk - top_a * ck)
        run *= new[-1]
    # z(1-q) = a(d-c)/(b d); over the Horner denominator this leaves
    # b^ell d^(ell(k-1) + ell(ell-1)/2 + 1), whose exponent of d is >= 0 at k = 0
    lhs = Fraction(a * (d - c) * acc, b**ell * d ** (ell * k + (ell - 1) * (ell - 2) // 2))
    return PowerRuleReport(
        lhs_truncated=lhs,
        rhs_exact=rhs,
        tail_bound=Fraction(s_num * abs(ck), s_den * dk),
        terms=k,
        bound_ok=abs(lhs - rhs) <= eps,
    )

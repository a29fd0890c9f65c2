"""q-Pochhammer products and the q-power-rule identity check.

Every value is exact. The identity under test:

    z(1-q) * sum_{k>=0} q^k (q^{k+1} z; q)_{l-1}  ==  (1-q)(1-(z;q)_l)/(1-q^l)

The left side is an infinite series; verify_power_rule truncates it with an
explicit geometric tail bound and reports both sides. With z = a/b and
q = c/d in lowest terms, both routes carry integer numerators over known
powers of b and d through their loops, and build one Fraction for each
value returned.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetError

# verify_power_rule refuses a series of K terms when K passes the first
# cap or (ell - 1) max(K, 1) passes the second: each term multiplies the
# ell - 1 factors of the window, and the window and the right side take
# ell - 1 factors even at K = 0. For K >= 1 the two are one cap on K,
# min(MAX_POWER_TERMS, MAX_POWER_PRODUCTS // (ell - 1)). It also refuses
# when the numbers it forms pass MAX_POWER_BITS bits: with z = a/b and
# q = c/d, about ell bits(b + |a|) + (ell K + ell(ell-1)/2) bits(d), the
# size of the right side at K = 0 and of the Horner sum's denominator.
MAX_POWER_TERMS = 5_000
MAX_POWER_PRODUCTS = 20_000
MAX_POWER_BITS = 1 << 18


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
    """Whether x_num c^n > x_den d^n, for x_num, c >= 0, x_den, d >= 1, n >= 1.

    The powers hold about n times the bits of d, so the logarithms decide
    first; the powers are formed only when the two sides are within the
    logarithms' rounding error of each other.
    """
    if not x_num or not c:
        return False
    logs = (math.log(x_num), math.log(x_den), n * math.log(c), n * math.log(d))
    gap = logs[0] - logs[1] + logs[2] - logs[3]
    if abs(gap) > 2**-40 * (1 + sum(logs)):
        return gap > 0
    return x_num * c**n > x_den * d**n


def _refuse_size(ell: int, q: Fraction, a: int, b: int, d: int, terms: float) -> None:
    """Raise BudgetError when a series of `terms` terms forms numbers past MAX_POWER_BITS."""
    bits = ell * (b + abs(a)).bit_length() + (ell * terms + ell * (ell - 1) // 2) * d.bit_length()
    if bits > MAX_POWER_BITS:
        raise BudgetError(
            f"the power-rule series at ell={ell}, q={q} forms numbers of about "
            f"{bits:,.0f} bits, more than MAX_POWER_BITS = {MAX_POWER_BITS:,}"
        )


def _terms_estimate(x_num: int, x_den: int, c: int, d: int) -> float:
    """About how many terms run while x_num c^k > x_den d^k, for c >= 1."""
    rate = math.log(d) - math.log(c)  # ln(1/|q|) > 0, up to rounding
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

    K is settled before anything is summed: a series with K past
    MAX_POWER_TERMS, with (ell - 1) max(K, 1) window products past
    MAX_POWER_PRODUCTS, or with numbers of more than MAX_POWER_BITS bits,
    raises BudgetError, and every other one is summed. The size is checked
    at K = 0 before the tail bound's scale is formed, and at the estimated
    K before the window is built.
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

    if ell - 1 > MAX_POWER_PRODUCTS:
        raise BudgetError(
            f"the power-rule series at ell={ell}, q={q} needs {ell - 1} window "
            f"products at any K, more than MAX_POWER_PRODUCTS = {MAX_POWER_PRODUCTS}"
        )

    a, b = z.numerator, z.denominator
    c, d = q.numerator, q.denominator
    _refuse_size(ell, q, a, b, d, 0)
    # the tail bound's scale is s_num / s_den; the loop runs on while
    # scale |q|^k > eps, that is while x_num |c|^k > x_den d^k
    s_num = abs(a) * (d - c) * (b + abs(a)) ** (ell - 1)
    s_den = b**ell * (d - abs(c))
    x_num = s_num * eps.denominator
    x_den = s_den * eps.numerator
    cap = min(MAX_POWER_TERMS, MAX_POWER_PRODUCTS // (ell - 1))
    if _runs_past(x_num, x_den, abs(c), d, cap):
        raise BudgetError(
            f"the power-rule series at ell={ell}, q={q} needs about "
            f"{_terms_estimate(x_num, x_den, abs(c), d):,.0f} terms K of {ell - 1} "
            f"window products each, more than K = {cap}, the lesser of "
            f"MAX_POWER_TERMS = {MAX_POWER_TERMS} and MAX_POWER_PRODUCTS = "
            f"{MAX_POWER_PRODUCTS} // (ell - 1)"
        )
    terms = min(_terms_estimate(x_num, x_den, abs(c), d), cap) if c and x_num > x_den else 0
    _refuse_size(ell, q, a, b, d, terms)

    rhs = (1 - q) * (1 - qpoch(z, q, ell)) / (1 - q**ell)

    # the ell - 1 factors b d^j - c^j a of term k, j = k+1 .. k+ell-1
    window = deque(b * d**j - c**j * a for j in range(1, ell))
    top_b, top_a = b * d ** (ell - 1), a * c ** (ell - 1)
    d_ell = d**ell
    acc = 0
    ck = dk = 1  # c^k, d^k
    k = 0
    while x_num * abs(ck) > x_den * dk:
        acc = acc * d_ell + ck * math.prod(window)
        ck *= c
        dk *= d
        k += 1
        window.popleft()
        window.append(top_b * dk - top_a * ck)
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

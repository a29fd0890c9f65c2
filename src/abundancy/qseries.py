"""q-Pochhammer products and the q-power-rule identity check.

All arithmetic is exact rational. The identity under test:

    z(1-q) * sum_{k>=0} q^k (q^{k+1} z; q)_{l-1}  ==  (1-q)(1-(z;q)_l)/(1-q^l)

The left side is an infinite series; verify_power_rule truncates it with an
explicit geometric tail bound and reports both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def qpoch(z: Fraction | int, q: Fraction | int, r: int) -> Fraction:
    """(z; q)_r = prod_{i=0}^{r-1} (1 - q^i z). r = 0 gives 1."""
    if r < 0:
        raise ValueError("r must be >= 0")
    z = Fraction(z)
    q = Fraction(q)
    out = Fraction(1)
    qi = Fraction(1)
    for _ in range(r):
        out *= 1 - qi * z
        qi *= q
    return out


@dataclass(frozen=True)
class PowerRuleReport:
    lhs_truncated: Fraction
    rhs_exact: Fraction
    tail_bound: Fraction
    terms: int
    bound_ok: bool


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

    rhs = (1 - q) * (1 - qpoch(z, q, ell)) / (1 - q**ell)

    scale = abs(z * (1 - q)) * (1 + abs(z)) ** (ell - 1) / (1 - abs(q))
    lhs = Fraction(0)
    qk = Fraction(1)  # q^k
    k = 0
    # tail after summing terms 0..k-1 is bounded by scale * |q|^k
    while scale * abs(qk) > eps:
        lhs += qk * qpoch(qk * q * z, q, ell - 1)
        qk *= q
        k += 1
    lhs *= z * (1 - q)
    tail_bound = scale * abs(qk)
    return PowerRuleReport(
        lhs_truncated=lhs,
        rhs_exact=rhs,
        tail_bound=tail_bound,
        terms=k,
        bound_ok=abs(lhs - rhs) <= eps,
    )

"""Exact generating series tying B(ell, n) to the tuple counts A(ell, n, k).

With L(z) = sum_{n>=1} B(ell,n) z^n / n, the double series exp(x L(z))
has z^n x^k coefficient A(ell,n,k)/n!. Differentiating in z gives
n g_n = x sum_m B(m) g_{n-m}, which in terms of the integer rows reads

    A(n, k) = sum_{m=1}^{n} B(m) * (n-1)!/(n-m)! * A(n-m, k-1)

so the whole triangle is built division-free in exact integers.

Also here: partition numbers by the pentagonal recurrence (an independent
oracle, since sum_k A(2,n,k)/n! = p(n)), a trapezoidal contour extraction
of single coefficients checked against the exact value, and the ell=2
ratio of H_{2,n}(x) to its exponential growth approximation.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import exp, factorial, gcd, pi, sqrt
from operator import mul
from sys import float_info

from .errors import DEFAULT_MAX_WORK, BudgetError
from .permtuples import ATable
from .sieve import sieve_b


@dataclass(frozen=True)
class SeriesPoly:
    """Integer coefficient triangle rows[n][k] = A(ell, n, k) = n! [x^k z^n]."""

    ell: int
    N: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.rows) != self.N + 1:
            raise ValueError("need rows for n = 0..N")
        if self.rows[0] != (1,):
            raise ValueError("row 0 must be (1,)")
        for n in range(1, self.N + 1):
            if len(self.rows[n]) != n + 1 or self.rows[n][0] != 0:
                raise ValueError(f"row {n} malformed")

    def coeff(self, n: int, k: int) -> Fraction:
        """[x^k z^n] exp(x L(z)) = A(ell,n,k)/n!; zero outside the triangle."""
        if not 0 <= n <= self.N:
            raise IndexError(f"n out of range 0..{self.N}: {n}")
        if k < 0 or k > n:
            return Fraction(0)
        return Fraction(self.rows[n][k], factorial(n))

    def a_row(self, n: int) -> ATable:
        if not 1 <= n <= self.N:
            raise IndexError(f"n out of range 1..{self.N}: {n}")
        return ATable(ell=self.ell, n=n, counts=tuple(self.rows[n][1:]))

    def h_at(self, n: int, x) -> Fraction:
        """H_{ell,n}(x) = sum_k A(ell,n,k) x^k / n!, exact."""
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.rows[n]):
            acc = acc * x + c
        return acc / factorial(n)


def series_L(ell: int, N: int) -> list[Fraction]:
    """Coefficients l_n = B(ell,n)/n for n = 1..N; index 0 is a zero pad."""
    if N < 1:
        raise ValueError("N must be >= 1")
    b = sieve_b(ell, N)
    return [Fraction(0)] + [Fraction(b[n], n) for n in range(1, N + 1)]


def exp_series(ell: int, N: int, *, max_work: int = DEFAULT_MAX_WORK) -> SeriesPoly:
    """The full coefficient triangle A(ell, n, k) for n <= N.

    Row n takes n(n+1)/2 inner-loop terms, the triangle N(N+1)(N+2)/6; past
    max_work terms it raises BudgetError before any row is built.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    work = N * (N + 1) * (N + 2) // 6
    if work > max_work:
        raise BudgetError(
            f"exp_series at ell={ell}, N={N} takes {work} inner-loop terms, "
            f"more than max_work = {max_work}"
        )
    b = sieve_b(ell, N)
    rows: list[tuple[int, ...]] = [(1,)]
    for n in range(1, N + 1):
        row = [0] * (n + 1)
        ff = 1  # (n-1)!/(n-m)!, updated as m advances
        for m in range(1, n + 1):
            if m > 1:
                ff *= n - m + 1
            w = b[m] * ff
            prev = rows[n - m]
            for k in range(1, n - m + 2):
                row[k] += w * prev[k - 1]
        rows.append(tuple(row))
    return SeriesPoly(ell=ell, N=N, rows=tuple(rows))


def partition_numbers(N: int) -> list[int]:
    """p(0..N) by the pentagonal number recurrence, exact."""
    if N < 0:
        raise ValueError("N must be >= 0")
    p = [0] * (N + 1)
    p[0] = 1
    for n in range(1, N + 1):
        total = 0
        j = 1
        while True:
            g = j * (3 * j - 1) // 2
            if g > n:
                break
            sign = -1 if j % 2 == 0 else 1
            total += sign * p[n - g]
            g2 = j * (3 * j + 1) // 2
            if g2 <= n:
                total += sign * p[n - g2]
            j += 1
        p[n] = total
    return p


def h_vector(ell: int, N: int, x) -> list[Fraction]:
    """H_{ell,n}(x) for n = 0..N, by the scalar form of the same recurrence.

    h_n = (x/n) sum_{m=1}^{n} B(ell,m) h_{n-m}. Cheaper than exp_series
    when only point values of the polynomials are needed (the k-resolved
    triangle is never formed). The values already computed are kept as
    integer numerators over one common denominator D, so each step's sum
    is one integer dot product and one Fraction; the numerators are
    rescaled only when a new value's denominator does not divide D.
    The dot products take N(N+1)/2 terms; past DEFAULT_MAX_WORK it raises
    BudgetError before the sieve.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    work = N * (N + 1) // 2
    if work > DEFAULT_MAX_WORK:
        raise BudgetError(
            f"h_vector at ell={ell}, N={N} takes {work} dot-product terms, "
            f"more than DEFAULT_MAX_WORK = {DEFAULT_MAX_WORK}"
        )
    x = Fraction(x)
    h = [Fraction(1)]
    if N == 0:
        return h
    table = sieve_b(ell, N)
    b = [table[m] for m in range(1, N + 1)]
    nums = [1]  # h[k] == nums[k] / D
    D = 1
    for n in range(1, N + 1):
        acc = sum(map(mul, b[:n], reversed(nums)))
        hn = Fraction(x.numerator * acc, x.denominator * n * D)
        if D % hn.denominator:
            scale = hn.denominator // gcd(D, hn.denominator)
            nums = [c * scale for c in nums]
            D *= scale
        nums.append(hn.numerator * (D // hn.denominator))
        h.append(hn)
    return h


def h_point(ell: int, N: int, x) -> Fraction:
    """H_{ell,N}(x) alone; see h_vector."""
    return h_vector(ell, N, x)[N]


@dataclass(frozen=True)
class CauchyReport:
    ell: int
    n: int
    k: int
    r: float
    M: int
    n_trunc: int
    numeric: float
    exact: Fraction
    abs_err: float


def cauchy_check(
    ell: int,
    n: int,
    k: int,
    r: float,
    M: int,
    n_trunc: int | None = None,
) -> CauchyReport:
    """Recover A(ell,n,k)/n! by contour quadrature and compare exactly.

    The coefficient is (1/2 pi i) oint L(z)^k / (k! z^{n+1}) dz; on the
    circle |z| = r the trapezoid rule over M equispaced angles is spectral
    in M. L is truncated at n_trunc >= n, which leaves the target
    coefficient untouched (only aliased orders ~ r^M are perturbed).
    The k-th power is taken as a literal complex power of the polynomial
    value, so no branch choice ever arises. A ValueError names r, n or k
    when r^n, k! or L(z)^k leaves the normal float range, and ell and the
    first m when a coefficient B(ell, m)/m of L does. The quadrature takes
    M x n_trunc Horner steps, and the exact value comes from exp_series up
    to n; past DEFAULT_MAX_WORK either raises BudgetError before the sieve.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must lie in (0,1): {r}")
    if M < 1:
        raise ValueError("M must be >= 1")
    if k < 0 or n < 0:
        raise ValueError("n and k must be >= 0")
    if n_trunc is None:
        n_trunc = max(n + 2, 48)
    if n_trunc < n:
        raise ValueError(f"n_trunc ({n_trunc}) must be >= n ({n})")
    if r**n < float_info.min:
        raise ValueError(f"r**n underflows the float range for r={r}, n={n}")
    try:
        kfact = float(factorial(k))
    except OverflowError:
        raise ValueError(f"k! exceeds the float range for k={k}") from None
    # B(ell, 2)/2 = 2^(ell-1) - 1/2 is the first coefficient past the float
    # range when any is; refuse before the series and the sieve are built
    if n_trunc >= 2 and ell > float_info.max_exp:
        raise ValueError(
            f"B(ell, m)/m exceeds the float range for ell={ell}, m=2"
        )
    if M * n_trunc > DEFAULT_MAX_WORK:
        raise BudgetError(
            f"cauchy_check at M={M}, n_trunc={n_trunc} takes {M * n_trunc} "
            f"Horner steps, more than DEFAULT_MAX_WORK = {DEFAULT_MAX_WORK}"
        )
    if n == 0:
        exact = Fraction(1) if k == 0 else Fraction(0)
    elif k == 0 or k > n:
        exact = Fraction(0)
    else:
        exact = exp_series(ell, n).coeff(n, k)
    b = sieve_b(ell, n_trunc)
    l_coef = [0.0]
    for m in range(1, n_trunc + 1):
        try:
            l_coef.append(b[m] / m)
        except OverflowError:
            raise ValueError(
                f"B(ell, m)/m exceeds the float range for ell={ell}, m={m}"
            ) from None
    acc = 0.0 + 0.0j
    for j in range(M):
        z = cmath.rect(r, 2.0 * pi * j / M)
        lz = 0.0 + 0.0j
        for c in reversed(l_coef):
            lz = lz * z + c
        try:
            acc += lz**k / z**n
        except OverflowError:
            raise ValueError(
                f"L(z)**k exceeds the float range for k={k}, r={r}"
            ) from None
    numeric = (acc / (M * kfact)).real
    return CauchyReport(
        ell=ell,
        n=n,
        k=k,
        r=r,
        M=M,
        n_trunc=n_trunc,
        numeric=numeric,
        exact=exact,
        abs_err=abs(numeric - float(exact)),
    )


def hr_ratio(n: int, x) -> float:
    """H_{2,n}(x) against its predicted exponential growth, as a ratio.

    The reference is x^{(1+x)/4} 2^{-(5+3x)/4} 3^{-(1+x)/4} n^{-(3+x)/4}
    exp(2 sqrt(x zeta(2) n)); the ratio should drift toward 1 as n grows
    with x fixed. x = 1 specializes to the Hardy-Ramanujan form for p(n).
    """
    from .stats import zeta

    if n < 1:
        raise ValueError("n must be >= 1")
    xf = float(x)
    if xf <= 0.0:
        raise ValueError("x must be positive")
    exact = float(h_point(2, n, Fraction(x)))
    z2 = zeta(2)
    asym = (
        xf ** ((1.0 + xf) / 4.0)
        * 2.0 ** (-(5.0 + 3.0 * xf) / 4.0)
        * 3.0 ** (-(1.0 + xf) / 4.0)
        * n ** (-(3.0 + xf) / 4.0)
        * exp(2.0 * sqrt(xf * z2 * n))
    )
    return exact / asym

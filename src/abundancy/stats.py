"""Large-N statistics of the generalized index B(ell,n)/n^{ell-1}.

Three layers:
  * zeta values and the constant mu = gamma/2 + ln(24 zeta(2))/4 - zeta(2)/2
    that the mean of the ell=2 error sequence is conjectured to approach;
  * the error sequence E_N = sum_{n<=N} sigma(n)/n - zeta(2) N + (1/2) ln N,
    its running mean, and the histogram of cumsum(E + mu);
  * moments of the limiting distribution as Euler products of per-prime
    local factors, with explicit tail bounds.

Headline totals (Cesaro means, empirical moments, the mean of E) are
correctly rounded sums (_kernels.exact_sum: math.fsum's bits, added in
int64 limbs); headline cumulative sums run compensated (Kahan) in fixed
ascending-n order. A reference whose cumulative sums are correctly rounded
(`dd`) and an exact-rational small-N variant exist for cross-checking the
rounding model. The naive replica of the published pipeline fixes every
operation: a sequential float64 cumsum S, E = (S - zeta(2) n) + (1/2) ln n,
and a mean whose sum runs over consecutive 8192-element blocks (NumPy's
default buffer size), each summed with NumPy's classic pairwise rule, the
block sums added left to right. The sum is made of explicit elementwise
additions, so its result does not depend on how a NumPy build chunks its
reductions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate

import numpy as np

from . import _kernels
from .core import factorize, primes_up_to
from .errors import EXACT_NMAX_CAP, BudgetError, MalformedTable

EULER_GAMMA = 0.5772156649015328606


def zeta(s: int) -> float:
    """zeta(s) for integer s >= 2, within 1e-15.

    Alternating eta series accelerated by Chebyshev-weight recombination:
    the n-term stage has remainder <= 3 / (3+sqrt(8))^n for the eta sum,
    hence <= 3 / ((3+sqrt(8))^n (1 - 2^{1-s})) after rescaling. The
    recombination weights are exact rationals (the leading one satisfies
    D_k = 6 D_{k-1} - D_{k-2}), so the stage is evaluated exactly and
    rounded once. n = 22 terms leave a remainder of at most
    6 / (3+sqrt(8))^22 = 8.7e-17 for every s >= 2, so that single rounding
    is the dominant error; 21 would leave more than 1e-16.
    """
    if s < 2:
        raise ValueError("s must be >= 2")
    n = 22
    d_prev, d = 1, 3  # ((3+sqrt8)^k + (3-sqrt8)^k)/2 for k = 0, 1
    for _ in range(n - 1):
        d_prev, d = d, 6 * d - d_prev
    b = Fraction(-1)
    c = Fraction(-d)
    acc = Fraction(0)
    for k in range(n):
        c = b - c
        acc += c / (k + 1) ** s
        b *= Fraction(2 * (k + n) * (k - n), (2 * k + 1) * (k + 1))
    return float(acc / (d * Fraction(2 ** (s - 1) - 1, 2 ** (s - 1))))


def mu_constant() -> float:
    """gamma/2 + ln(24 zeta(2))/4 - zeta(2)/2 in double precision."""
    z2 = zeta(2)
    return EULER_GAMMA / 2.0 + math.log(24.0 * z2) / 4.0 - z2 / 2.0


@cache
def _zeta_product_up(ell: int) -> float:
    """zeta(2) zeta(3) ... zeta(ell-1), rounded up: 1.0 for ell <= 2.

    zeta(k) is within 1e-15 of the truth. Past k = 64, where its exact
    sums only grow, 1 stands in for it, since zeta(k) <= 1 + 2^(1-k)
    <= 1 + 2^-63. Each factor is widened by
    2^-40, which exceeds both errors and the rounding of the product, and
    leaves about a 2^-41 margin for the float error of the range check
    that uses it.
    """
    z = 1.0
    for k in range(2, ell):
        z *= (zeta(k) if k <= 64 else 1.0) * (1.0 + 2.0**-40)
    return z


def _index_terms(table, N: int, m: int = 1) -> np.ndarray:
    """(B(ell,n)/n^{ell-1})^m for n = 1..N as doubles.

    An int64 table divides in float64, vectorized: each index is rounded
    once wherever B(ell,n) and n^{ell-1} are both at most 2^53, as they are
    for every ell = 2 table. Any other table divides Python ints, so every
    index is rounded once.

    Every index lies in [1, (1 + ln n) zeta(2) ... zeta(ell-1)] for
    ell >= 2 (the lemma in sieve._bound), and is 1 for ell = 1; a table
    with a value outside that range raises MalformedTable naming the first
    bad n. The zeta product is rounded up by _zeta_product_up, so float
    error can only widen the range; for ell = 2 the upper end is 1 + ln n,
    which exceeds H_n >= sigma(n)/n by at least 0.19 for n >= 2. An index
    beyond the float range raises MalformedTable too.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > table.nmax:
        raise ValueError(f"N={N} exceeds table.nmax={table.nmax}")
    ell = table.ell
    n = np.arange(1, N + 1, dtype=np.float64)
    values = table.values[:N]
    if isinstance(values, np.ndarray):
        terms = values / n ** (ell - 1)
    else:
        terms = np.empty(N, dtype=np.float64)
        for i, v in enumerate(values):
            try:
                terms[i] = v / (i + 1) ** (ell - 1)
            except OverflowError:
                raise MalformedTable(
                    f"value at n={i + 1} cannot be B({ell}, {i + 1}): "
                    "its index exceeds the float range"
                ) from None
    cap = (1.0 + np.log(n)) * _zeta_product_up(ell) if ell > 1 else 1.0
    bad = ~((terms >= 1.0) & (terms <= cap))
    if bad.any():
        first = int(np.argmax(bad)) + 1
        raise MalformedTable(
            f"value at n={first} cannot be B({ell}, {first}): {table[first]}"
        )
    if m != 1:
        with np.errstate(over="ignore"):  # callers refuse an infinite power
            terms = terms**m
    return terms


def cesaro_mean(table, N: int) -> float:
    """(1/N) sum_{n<=N} B(ell,n)/n^{ell-1}, the sum correctly rounded
    (_kernels.exact_sum)."""
    return _kernels.exact_sum(_index_terms(table, N)) / N


def empirical_moment(table, m: int, N: int) -> float:
    """(1/N) sum_{n<=N} (B(ell,n)/n^{ell-1})^m, the sum correctly rounded
    (_kernels.exact_sum); a term or a sum past the float range raises
    ValueError naming ell and m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    terms = _index_terms(table, N, m)
    # the terms are positive; the kernel takes finite ones, whose sum is inf
    # past the float range
    total = math.inf if np.isinf(terms).any() else _kernels.exact_sum(terms)
    _refuse_past_float_range(total, table.ell, m)
    return total / N


def _refuse_past_float_range(x: float, ell: int, m: int) -> None:
    if not math.isfinite(x):
        raise ValueError(f"the moment exceeds the float range for ell={ell}, m={m}")


# The published digits come from NumPy's buffered reduction: np.mean fed the
# inner add loop one buffer of np.getbufsize() = 8192 elements at a time.
# Newer builds reduce a contiguous array in a single pairwise pass, which
# lands 1 ulp away at N = 10^6, so the order is replayed here explicitly.
_REPLICA_BLOCK = 8192
_PAIRWISE_LEAF = 128


def _pairwise_rows(x: np.ndarray) -> np.ndarray:
    """Sum each row of a 2-D float64 array by NumPy's classic pairwise_sum.

    A run longer than 128 splits at n//2 rounded down to a multiple of 8;
    a leaf of 8..128 elements sums into eight strided accumulators,
    combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then adds the
    remainder in order; fewer than 8 elements are added in order from 0.0.
    Only elementwise additions are used, vectorised across the rows.
    """
    k, n = x.shape
    if n < 8:
        res = np.zeros(k)
        for i in range(n):
            res += x[:, i]
        return res
    if n <= _PAIRWISE_LEAF:
        m = n - n % 8
        r = x[:, :8].copy()
        for i in range(8, m, 8):
            r += x[:, i : i + 8]
        res = ((r[:, 0] + r[:, 1]) + (r[:, 2] + r[:, 3])) + (
            (r[:, 4] + r[:, 5]) + (r[:, 6] + r[:, 7])
        )
        for i in range(m, n):
            res += x[:, i]
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise_rows(x[:, :n2]) + _pairwise_rows(x[:, n2:])


def _replica_mean(E: np.ndarray) -> float:
    """Mean of E in the published pipeline's order of float64 additions.

    E is cut into consecutive 8192-element blocks from index 0; each block
    is summed by _pairwise_rows, the block sums are added left to right
    starting from 0.0, and the total is divided by len(E).
    """
    N = E.shape[0]
    k = N // _REPLICA_BLOCK
    sums = list(_pairwise_rows(E[: k * _REPLICA_BLOCK].reshape(k, _REPLICA_BLOCK)))
    if N % _REPLICA_BLOCK:
        sums.append(_pairwise_rows(E[k * _REPLICA_BLOCK :].reshape(1, -1))[0])
    acc = 0.0
    for s in sums:
        acc += float(s)
    return acc / N


@dataclass(frozen=True)
class ErrorSummary:
    nmax: int
    mean_E: float
    minus_mu: float
    rel_err: float
    histogram: tuple[tuple[float, float, int], ...]
    bins: int
    last_E: float
    method: str


def error_series(table, N: int | None = None, *, bins: int = 250,
                 method: str = "kahan") -> ErrorSummary:
    """Error sequence summary for the ell=2 table.

    E_N = sum_{n<=N} sigma(n)/n - zeta(2) N + (1/2) ln N for N = 1..nmax;
    reports the mean of E (conjectured -> -mu), the final E (the plain
    convergence mode, also reported since the conjecture's mode is
    ambiguous), and a histogram of cumsum(E + mu) over equal-width bins
    spanning [min, max], right-open except the last.

    method picks the cumulative-sum kernel and the rule for the mean; E,
    its mean and the walk cumsum(E + mu) are otherwise the same code:
      kahan  Kahan-compensated cumsums in ascending order and a
             correctly rounded mean, summed by _kernels.exact_sum (the
             headline path)
      naive  the published pipeline digit for digit: sequential float64
             cumsum, E = (S - zeta(2) n) + (1/2) ln n, and the mean over
             8192-element blocks (NumPy's default buffer size) with
             classic pairwise sums, block sums added left to right from
             0.0; see _replica_mean. Independent of how a NumPy build
             chunks reductions.
      dd     correctly rounded cumsums (_kernels.dd_cumsum, named for
             the double-double loop it replaced) and a correctly rounded
             mean (reference)
      exact  exact-rational partial sums S; past EXACT_NMAX_CAP = 20000
             terms it raises BudgetError. The walk's cumsum and the mean
             are correctly rounded, as for dd
    All methods agree to well below 1e-8 on the mean at N = 10^6.
    """
    if table.ell != 2:
        raise ValueError(f"error series is defined for ell=2, got ell={table.ell}")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if N is None:
        N = table.nmax
    # looked up per call, so that a wrapper set on _kernels is the one used
    cumsum = {"kahan": _kernels.kahan_cumsum, "naive": np.cumsum,
              "dd": _kernels.dd_cumsum, "exact": _kernels.dd_cumsum}.get(method)
    if cumsum is None:
        raise ValueError(f"unknown method: {method!r}")
    if method == "exact" and N > EXACT_NMAX_CAP:
        raise BudgetError(f"exact method capped at N <= {EXACT_NMAX_CAP} (got {N})")
    terms = _index_terms(table, N)
    if method == "exact":
        partial = accumulate(Fraction(table[n], n) for n in range(1, N + 1))
        S = np.array([float(s) for s in partial])
    else:
        S = cumsum(terms)
    narr = np.arange(1, N + 1, dtype=np.float64)
    mu = mu_constant()
    E = S - zeta(2) * narr + 0.5 * np.log(narr)
    mean_E = _replica_mean(E) if method == "naive" else _kernels.exact_sum(E) / N
    X = cumsum(E + mu)
    counts, edges = np.histogram(X, bins=bins)
    hist = tuple(
        (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(bins)
    )
    return ErrorSummary(
        nmax=N,
        mean_E=mean_E,
        minus_mu=-mu,
        rel_err=abs(mean_E + mu) / mu,
        histogram=hist,
        bins=bins,
        last_E=float(E[-1]),
        method=method,
    )


# ---------------------------------------------------------------------------
# moments of the limiting distribution

@dataclass(frozen=True)
class MomentResult:
    ell: int
    m: int
    theoretical: float
    empirical: float | None
    prime_cutoff: int
    tail_bound: float


def local_moment(ell: int, p: int, m: int, eps: float = 1e-10) -> float:
    """Per-prime factor (1 - 1/p) sum_{a>=0} p^{-a} ratio(a)^m within eps.

    ratio(a) = prod_{i=1}^{ell-1} (1 - p^{-a-i}) / (1 - p^{-i}) is the
    limiting local index at exponent a; it is bounded by the a -> oo cap
    prod (1 - p^{-i})^{-1}, which gives the geometric tail cutoff.
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if m < 1:
        raise ValueError("m must be >= 1")
    if p < 2 or factorize(p).factors != ((p, 1),):
        raise ValueError(f"p must be a prime >= 2, got {p}")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    out = _kernels.local_moments(np.array([p], dtype=np.float64), ell, m, eps)
    return float(out[0])


def theoretical_moment(
    ell: int, m: int, prime_cutoff: int = 10_000, eps: float = 1e-10
) -> MomentResult:
    """Product of local moments over p <= prime_cutoff plus a tail bound.

    Each local factor h_p lies in [1, 1 + m K_p^m / (p(p-1))] with
    K_p = prod_{i=1}^{ell-1} (1 - p^{-i})^{-1}, so the omitted p > P part
    multiplies the product by at most exp(m K_P^m / (P-1)); tail_bound is
    the resulting one-sided width value * (exp(S) - 1). Per-prime
    truncation error is kept below eps / #primes each, eps in total.

    m = 1 self-test: the product telescopes to zeta(2)...zeta(ell); a
    disagreement beyond tail_bound + eps triggers a warning. ValueError
    names ell and m when value + tail_bound exceeds the float range.
    """
    if ell < 2:
        raise ValueError(f"ell must be >= 2, got {ell}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if prime_cutoff < 2:
        raise ValueError(f"prime_cutoff must be >= 2, got {prime_cutoff}")
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    ps = primes_up_to(prime_cutoff)
    eps_local = eps / len(ps)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        factors = _kernels.local_moments(
            np.array(ps, dtype=np.float64), ell, m, eps_local
        )
        value = float(np.prod(factors))
    P = float(prime_cutoff)
    cap = 1.0
    for i in range(1, ell):
        cap /= 1.0 - P ** (-i)
    try:
        S = m * cap**m / (P - 1.0)
        tail_bound = value * (math.exp(S) - 1.0)
    except OverflowError:
        tail_bound = math.inf
    _refuse_past_float_range(value + tail_bound, ell, m)
    if m == 1:
        ref = math.prod(zeta(i) for i in range(2, ell + 1))
        if abs(value - ref) > tail_bound + eps:
            warnings.warn(
                f"m=1 self-test: product {value} vs zeta reference {ref} "
                f"differ beyond bound {tail_bound + eps}",
                stacklevel=2,
            )
    return MomentResult(
        ell=ell,
        m=m,
        theoretical=value,
        empirical=None,
        prime_cutoff=prime_cutoff,
        tail_bound=tail_bound,
    )

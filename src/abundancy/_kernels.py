"""Hot loops, in NumPy and plain Python.

Integer kernels are exact, and the compensated sums add in a fixed order,
so every result is bit-reproducible across NumPy builds.
"""

from __future__ import annotations

import math

import numpy as np

# Read by the benchmark's run records; there is one kernel path.
USING_NUMBA = False


# ---------------------------------------------------------------------------
# Dirichlet convolution pass: out[m] = sum_{d|m} (m/d)^r t[d], 1-based values
# stored at index n-1. int64 only; caller guarantees no overflow.

def conv_pass(t: np.ndarray, r: int) -> np.ndarray:
    out = np.zeros_like(t)
    n = t.shape[0]
    lim = math.isqrt(n)
    # d-major for small d, q-major for small q; the two ranges partition
    # all (d, q) pairs with d*q <= n.
    for d in range(1, lim + 1):
        q = np.arange(1, n // d + 1, dtype=np.int64)
        out[d - 1 :: d] += q**r * t[d - 1]
    for q in range(1, lim + 1):
        d_lo, d_hi = lim + 1, n // q
        if d_hi < d_lo:
            continue
        out[q * d_lo - 1 :: q][: d_hi - d_lo + 1] += q**r * t[d_lo - 1 : d_hi]
    return out


# ---------------------------------------------------------------------------
# Compensated cumulative sums. kahan_* is the working precision used for all
# reported statistics; dd_* (double-double) is the higher-precision reference.

def kahan_cumsum(a: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    s = 0.0
    c = 0.0
    for i in range(a.shape[0]):
        y = a[i] - c
        t = s + y
        c = (t - s) - y
        s = t
        out[i] = s
    return out


def kahan_sum(a: np.ndarray) -> float:
    s = 0.0
    c = 0.0
    for i in range(a.shape[0]):
        y = a[i] - c
        t = s + y
        c = (t - s) - y
        s = t
    return float(s)


def dd_cumsum(a: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    hi = 0.0
    lo = 0.0
    for i in range(a.shape[0]):
        x = a[i]
        s = hi + x
        b = s - hi
        err = (hi - (s - b)) + (x - b)
        lo += err
        hi = s
        t = hi + lo
        lo -= t - hi
        hi = t
        out[i] = hi
    return out


# ---------------------------------------------------------------------------
# Batched orbit counts: perms has shape (T, ell, n), 0-based images.

def orbit_counts(perms: np.ndarray) -> np.ndarray:
    perms = np.ascontiguousarray(perms, dtype=np.int64)
    T, ell, n = perms.shape
    counts = np.empty(T, dtype=np.int64)
    labels = np.broadcast_to(np.arange(n, dtype=np.int64), (T, n)).copy()
    jumps = max(1, n.bit_length())
    # min-label propagation with pointer jumping, repeated until fixpoint
    while True:
        before = labels.copy()
        for g in range(ell):
            idx = perms[:, g, :].copy()
            for _ in range(jumps):
                pulled = np.take_along_axis(labels, idx, axis=1)
                labels = np.minimum(labels, pulled)
                idx = np.take_along_axis(idx, idx, axis=1)
        if np.array_equal(before, labels):
            break
    for t in range(T):
        counts[t] = len(np.unique(labels[t]))
    return counts


# ---------------------------------------------------------------------------
# Per-prime local moment factors. For each prime p the factor is
# (1 - 1/p) * sum_a p^-a * ratio(a)^m with
# ratio(a) = prod_{i=1}^{ell-1} (1 - p^-(a+i)) / (1 - p^-i), truncated for
# all primes at once when every geometric tail drops below eps.

def local_moments(primes: np.ndarray, ell: int, m: int, eps: float) -> np.ndarray:
    p = primes.astype(np.float64)
    den = np.ones_like(p)
    for i in range(1, ell):
        den *= 1.0 - p ** (-float(i))
    cap = (1.0 / den) ** m  # ratio(a) is increasing in a, bounded by this
    s = np.zeros_like(p)
    pma = np.ones_like(p)
    a = 0
    # remaining tail after exponent a is at most pma * cap
    while a < 2 or float(np.max(pma * cap)) > eps:
        num = np.ones_like(p)
        for i in range(1, ell):
            num *= 1.0 - p ** (-float(a + i))
        s += pma * (num / den) ** m
        a += 1
        pma /= p
    return (1.0 - 1.0 / p) * s

"""Hot loops, in NumPy and plain Python.

Integer kernels are exact, in int64. The divisor-sum pass runs prime by
prime over a stack of rows: the caller either bounds the values (an int64
table is one row, with no modulus) or passes residues modulo primes small
enough that a pass cannot overflow before it reduces. The float sums take
finite float64 input. dd_cumsum returns the correctly rounded prefix sums
and exact_sum the correctly rounded total: both add in int64 limbs,
exactly, and round once per result, so their bits depend on no order of
float additions and no CPU dispatch. Orbit counting labels a whole batch
of tuples in one flat index space: its Python loops run over propagation
rounds and fixed-size chunks, never over tuples. A lone tuple, as the
torus checks pass one, runs the same rounds with no chunking and no
offsets, since its cost is NumPy's per-call overhead.
"""

from __future__ import annotations

import math

import numpy as np

# Read by the benchmark's run records; there is one kernel path.
USING_NUMBA = False


# Elements handled per step by the kernels below; bounds every temporary.
RUN = 1 << 14


# ---------------------------------------------------------------------------
# Dirichlet convolution pass: out[m] = sum_{d|m} (m/d)^r t[d], 1-based values
# stored at index m-1, in int64; t is a (k, n) stack of tables. q -> q^r is
# completely multiplicative, so the pass is the product over the primes
# q <= n of the Euler factors 1 / (1 - q^r q^-s): for each prime, in any
# order, f[kq] += q^r f[k] for k ascending, each source k read once it holds
# its final value for that prime. That is about n ln ln n updates, where a
# loop over all pairs d q <= n takes n ln n.
#
# plan = conv_plan(primes, n) splits the primes <= n at isqrt(n), and w is
# the (k, pi(n)) stack of weights q^r at the primes, in the same order.
# - A small prime q <= isqrt(n), in ascending order, takes its sources in
#   chunks [q^j, q^(j+1)), cut to RUN elements, one strided slice update
#   each. The targets lie in [q^(j+1), q^(j+2)), apart from the sources,
#   and a source's own update came from k/q < q^j, an earlier chunk.
# - Then the large primes q > isqrt(n) go all at once, by gather and
#   scatter: their sources k <= n/q < sqrt(n) are never targets, which are
#   multiples of a prime above sqrt(n), and kq = k'q' forces q = q', since
#   q cannot divide k' < q. The (k, q) pairs are taken k-major, in runs of
#   RUN; plan holds bounds[k], the number of pairs with source <= k.
#
# Without p, the caller guarantees that no weight, product or sum
# overflows; an int64 table is a one-row stack. With p, a (k, 1) column of
# primes, row i holds residues mod p[i] and w the weights q^r mod p[i]. A
# slot is reduced mod p before it can be read as a source: prime q reads
# only k <= n/q, so a target kq of q is reduced at once when kq <= n/q, and
# every slot at the end of the pass. A slot read by q was last updated by q
# or an earlier prime q', with k <= n/q <= n/q', so it is below p, and each
# product is below p^2. Slot m takes one product per prime dividing m, so
# before its last reduction it holds less than (1 + omega(m)) p^2, and
# omega(m) < log2(n) + 1. Updates run over blocks of rows spanning at most
# RUN slots in all, or one row, so a short table's whole stack goes in a few
# calls and each call touches the pages of few rows.


ConvPlan = tuple[list[int], np.ndarray, np.ndarray]  # small primes, large primes, bounds


def conv_plan(primes: np.ndarray, n: int) -> ConvPlan:
    # from the ascending int64 primes <= n
    s = int(np.searchsorted(primes, math.isqrt(n), side="right"))
    large = primes[s:]
    sources = n // int(large[0]) if large.size else 0
    counts = np.searchsorted(large, n // np.arange(1, sources + 1), side="right")
    return primes[:s].tolist(), large, np.concatenate(([0], np.cumsum(counts)))


def conv_pass(
    t: np.ndarray, w: np.ndarray, plan: ConvPlan, p: np.ndarray | None = None
) -> np.ndarray:
    small, large, bounds = plan
    n = t.shape[1]
    out = t.copy()
    rows = max(1, RUN // n)
    blocks = [slice(i, i + rows) for i in range(0, t.shape[0], rows)]
    for j, q in enumerate(small):
        top = n // q + 1  # sources k < top
        read = n // (q * q)  # a target kq is read later only if k <= read
        lo = 1
        while lo < top:
            hi = min(lo * q, top)
            for a in range(lo, hi, RUN):
                b = min(a + RUN, hi)
                src, tgt = slice(a - 1, b - 1), slice(a * q - 1, b * q - 1, q)
                for blk in blocks:
                    x = out[blk, tgt]
                    x += w[blk, j : j + 1] * out[blk, src]
                    if p is not None and a <= read:
                        x[:, : read + 1 - a] %= p[blk]
            lo = hi
    wl = w[:, len(small) :]
    for a in range(0, int(bounds[-1]), RUN):
        b = min(a + RUN, int(bounds[-1]))
        # source k = i + 1 has the flat pairs [bounds[i], bounds[i+1]); a run
        # covers those of i0 .. i1-1, the first and last only in part
        i0 = int(np.searchsorted(bounds, a, side="right")) - 1
        i1 = int(np.searchsorted(bounds, b, side="left"))
        cnt = np.minimum(bounds[i0 + 1 : i1 + 1], b) - np.maximum(bounds[i0:i1], a)
        src = np.repeat(np.arange(i0, i1), cnt)  # k - 1
        col = np.arange(a, b) - np.repeat(bounds[i0:i1], cnt)  # index into large
        tgt = (src + 1) * large[col] - 1
        for blk in blocks:
            o = out[blk]  # take along the rows beats 2-d fancy indexing
            x = o.take(tgt, axis=1)
            x += wl[blk].take(col, axis=1) * o.take(src, axis=1)
            o[:, tgt] = x
    if p is not None:
        out %= p
    return out


# ---------------------------------------------------------------------------
# Sums. dd_cumsum returns the correctly rounded prefix sums, the headline
# running sums. (It is named for the double-double loop it replaced, which
# gave the same bits on error_series' inputs at every N checked, up to
# 10^7.) exact_sum is the correctly rounded total, a Python float, as
# math.fsum gives it. Their Python loops run over steps and limbs, never
# over elements.
#
# Input is converted to float64 at entry, and a non-finite entry raises
# ValueError naming its index: past one, every later prefix would be nan.
#
# dd_cumsum adds exactly. Every entry is an integer multiple of 2^E0, where
# E0 = max(e - 53, -1074) for the binary exponent e of the smallest nonzero
# |x| (all doubles are multiples of 2^-1074). A prefix of n entries, each
# below 2^k, is below n 2^k, so L limbs of 26 bits, of weights 2^(E0 + 26 j),
# hold it with the top one at most 2^26 in magnitude; rounding reads at
# least three, so L >= 3. Each entry is split into signed limb digits from
# the top down: digit j is trunc(r 2^-(E0 + 26 j)) of what r is left of the
# entry, below 2^26 in magnitude, and its value is subtracted from r. Both
# steps are exact: the scaling can round only by underflowing below 1,
# where trunc gives 0 anyway, and the subtraction leaves r's own low bits.
# Each limb takes one int64 cumsum per step, with the previous step's last
# prefix as carry-in, and carries then move up so that every limb but the
# top one lies in [0, 2^26) and the top one carries the sign. A step runs
# 4 RUN // L entries, so no temporary holds more than 4 RUN int64 entries,
# however wide the span. _limb_plan finds E0 and L, and _split makes the
# digits of one step.
#
# Each prefix is then rounded once. With L <= 4 limbs it is
# A 2^(52 + E0) + B 2^E0, where A = C3 2^26 + C2 is signed and at most
# 2^52 in magnitude and B = C1 2^26 + C0 lies in [0, 2^52): two exact
# doubles, whose one IEEE addition is the correctly rounded sum. Wider
# prefixes are made positive (a negative one is negated and carried again,
# its result negated back) and read from the window of four limbs whose top
# one, h, is the highest nonzero limb: A = C_h 2^26 + C_(h-1) >= 2^26 and
# B = C_(h-2) 2^26 + C_(h-3). The limbs below the window are less than one
# unit of B, and the result's ulp is at least 2^26 units, so they matter
# only at an exact tie; there a nonzero one sets B's lowest bit (a sticky
# bit), which lifts the tie to the upper neighbour and moves no other case.
# The addition is done at a scale 2^min(b, 0), b the window's exponent, so
# that neither term rounds or overflows, and the sum is scaled back by
# 2^(b - min(b, 0)) >= 1: exact, or past the float range the +-inf that
# IEEE addition gives.
#
# exact_sum splits the same way, step by step, but reduces each limb's
# digits of a step to one int64 total instead of a cumsum, adds that to the
# running limb totals and carries them up; a step's total of one limb is
# below 4 RUN 2^26 = 2^42 in magnitude, so nothing overflows. The totals are
# then rounded once, as one prefix. So the result is dd_cumsum's last
# prefix, and math.fsum's result wherever fsum gives one: an empty or
# all-zero input gives +0.0, and a total past the float range +-inf, where
# fsum raises OverflowError.

_LIMB = 26
_MASK = (1 << _LIMB) - 1


def _require_finite(a: np.ndarray) -> None:
    for start in range(0, a.shape[0], RUN):
        bad = ~np.isfinite(a[start : start + RUN])
        if bad.any():
            i = start + int(bad.argmax())
            raise ValueError(f"non-finite input at index {i}: {float(a[i])}")


def dd_cumsum(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    _require_finite(a)
    out = np.zeros_like(a)
    plan = _limb_plan(a)
    if plan is None:
        return out
    e0, L = plan
    step = 4 * RUN // L
    carry = np.zeros(L, dtype=np.int64)
    for start in range(0, a.shape[0], step):
        C = _split(a[start : start + step], e0, L)
        C[:, 0] += carry
        np.cumsum(C, axis=1, out=C)
        _carry(C)
        carry = C[:, -1].copy()
        _round_limbs(C, e0, out[start : start + step])
    return out


def exact_sum(a: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    _require_finite(a)
    plan = _limb_plan(a)
    if plan is None:
        return 0.0
    e0, L = plan
    step = 4 * RUN // L
    total = np.zeros((L, 1), dtype=np.int64)
    for start in range(0, a.shape[0], step):
        total += _split(a[start : start + step], e0, L).sum(axis=1, keepdims=True)
        _carry(total)
    out = np.empty(1)
    _round_limbs(total, e0, out)
    return float(out[0])


def _limb_plan(a: np.ndarray) -> tuple[int, int] | None:
    # (E0, L) for sums over a, or None when every entry is zero
    amin, amax = math.inf, 0.0
    for start in range(0, a.shape[0], 4 * RUN):
        ax = np.abs(a[start : start + 4 * RUN])
        amax = max(amax, float(ax.max()))
        amin = min(amin, float(ax.min(where=ax > 0.0, initial=math.inf)))
    if amax == 0.0:
        return None
    e0 = max(math.frexp(amin)[1] - 53, -1074)
    L = max(-(-(math.frexp(amax)[1] - e0 + a.shape[0].bit_length()) // _LIMB), 3)
    return e0, L


def _split(x: np.ndarray, e0: int, L: int) -> np.ndarray:
    # the (L, len(x)) signed limb digits of x's entries, from the top down
    r = x.copy()
    t = np.empty_like(r)
    C = np.empty((L, r.shape[0]), dtype=np.int64)
    for j in range(L - 1, -1, -1):
        b = e0 + _LIMB * j
        np.trunc(np.ldexp(r, -b, out=t), out=t)
        C[j] = t
        r -= np.ldexp(t, b, out=t)
    return C


def _carry(C: np.ndarray) -> None:
    # every limb but the top one into [0, 2^26); the top one keeps the sign
    for j in range(C.shape[0] - 1):
        c = C[j] >> _LIMB
        C[j] &= _MASK
        C[j + 1] += c


def _round_limbs(C: np.ndarray, e0: int, out: np.ndarray) -> None:
    L = C.shape[0]
    if L <= 4:
        A = C[2] if L == 3 else (C[3] << _LIMB) + C[2]
        _add_scaled(A, (C[1] << _LIMB) + C[0], e0, out)
        return
    neg = C[-1] < 0
    np.negative(C, out=C, where=neg)
    _carry(C)
    nonzero = C != 0
    w = np.maximum((L - 4) - nonzero[::-1].argmax(axis=0), 0)
    cols = np.arange(C.shape[1])
    A = (C[w + 3, cols] << _LIMB) + C[w + 2, cols]
    B = (C[w + 1, cols] << _LIMB) + C[w, cols]
    below = np.logical_or.accumulate(nonzero, axis=0)
    B |= (w > 0) & below[np.maximum(w - 1, 0), cols]
    _add_scaled(A, B, e0 + _LIMB * w, out)
    np.negative(out, out=out, where=neg)


def _add_scaled(A: np.ndarray, B: np.ndarray, b, out: np.ndarray) -> None:
    # out = A 2^(52 + b) + B 2^b, rounded once; see the block comment above.
    # int32 exponents: NumPy's ldexp loop for int64 ones is many times slower
    b = np.asarray(b, dtype=np.int32)
    s = np.minimum(b, 0)
    np.add(np.ldexp(A.astype(np.float64), 52 + s),
           np.ldexp(B.astype(np.float64), s), out=out)
    with np.errstate(over="ignore"):
        np.ldexp(out, b - s, out=out)


# ---------------------------------------------------------------------------
# Batched orbit counts: perms has shape (T, ell, n), 0-based images of an
# integer dtype; float and bool images, images outside [0, n), and a
# generator that repeats an image (so is no permutation) raise ValueError.


def orbit_counts(perms: np.ndarray) -> np.ndarray:
    perms = np.asarray(perms)
    # float images would be truncated and bool ones read as 0 and 1
    if perms.dtype.kind not in "iu":
        raise ValueError(f"permutation images must be integers, got dtype {perms.dtype}")
    T, ell, n = perms.shape
    # tuples are independent, so the batch is cut into runs of whole tuples
    # of about RUN flat positions; this bounds the gather buffers, and keeps
    # them in cache, however many tuples come in
    step = max(1, RUN // max(n, 1))
    if T <= step:
        return _flat_orbit_counts(perms)
    return np.concatenate([_flat_orbit_counts(perms[lo : lo + step])
                           for lo in range(0, T, step)])


def _flat_orbit_counts(perms: np.ndarray) -> np.ndarray:
    """Min-label propagation with pointer jumping over a flat index space.

    Tuple t's images are offset by t*n, so each generator is one
    permutation of [0, T*n). Starting from lab[i] = i, each round takes
    new[i] = min(lab[i], lab[g(i)], lab[g^-1(i)] over all generators g),
    then jumps new[i] = new[new[i]], until new == lab. One small tuple's
    round costs NumPy call overhead, so it gathers by take, reduces by the
    ufunc itself and tests bytes, and a lone tuple (T = 1) skips the offsets.

    Why the fixpoint is exact: lab[i] <= i and lab[i] lies in the orbit
    of i throughout, and neither step raises a label, so at the fixpoint
    the min step changed nothing either: lab[i] <= lab[g(i)] for every
    generator g. Each g is a permutation (one that repeats an image is
    refused before the rounds), so lab is constant on its
    cycles, hence on each orbit, and that constant is an element of the
    orbit no larger than any element: the orbit's minimum. So each orbit
    has exactly one root lab[i] == i. The inverses are not needed for
    this; they let labels travel both ways round a cycle, so the jumps
    shrink the distance left geometrically and a long cycle takes a
    logarithmic number of rounds, not one round per step.
    """
    T, ell, n = perms.shape
    # rows: the identity, the generators, their inverses
    G = np.empty((2 * ell + 1, T * n), dtype=np.intp)
    ident, fwd, inv = G[0], G[1 : ell + 1], G[ell + 1 :]
    ident[:] = np.arange(T * n)
    fwd.reshape(ell, T, n)[:] = perms.transpose(1, 0, 2)
    if T > 1:
        # once offset, an image outside [0, n) would land in another tuple
        if fwd.size and np.maximum.reduce(fwd.view(np.uintp), axis=None) >= n:
            raise ValueError(f"permutation images must lie in [0, {n})")
        fwd.reshape(ell, T, n)[:] += n * np.arange(T)[:, None]
    inv[:] = -1
    try:
        inv[np.arange(ell)[:, None], fwd] = ident
    except IndexError:
        raise ValueError(f"permutation images must lie in [0, {n})") from None
    # a negative image, and an inverse slot left at -1 because an image
    # repeats, are large unsigned words
    if inv.size and np.maximum.reduce(G[1:].view(np.uintp), axis=None) >= T * n:
        raise ValueError(f"each generator must be a permutation of [0, {n})")
    lab = ident
    while True:
        new = np.minimum.reduce(lab.take(G))
        new = new.take(new)
        if new.tobytes() == lab.tobytes():
            break
        lab = new
    return np.add.reduce((lab == ident).reshape(T, n), axis=1)


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

import math
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abundancy import _kernels, sieve, stats
from abundancy.core import _prime_array


def _weights(n, r):
    # the one-row weight stack q^r at the primes q <= n, of an int64 table
    return _prime_array(n)[None] ** r


def _plan(n):
    return _kernels.conv_plan(_prime_array(n), n)


def test_conv_pass_is_sigma():
    # one pass with r=1 over all-ones gives sigma(n)
    t = np.ones((1, 30), dtype=np.int64)
    out = _kernels.conv_pass(t, _weights(30, 1), _plan(30))
    sigma = [sum(d for d in range(1, n + 1) if n % d == 0) for n in range(1, 31)]
    assert out.tolist() == [sigma]


def test_conv_pass_r0_is_divisor_count():
    t = np.ones((1, 24), dtype=np.int64)
    out = _kernels.conv_pass(t, _weights(24, 0), _plan(24))
    tau = [sum(1 for d in range(1, n + 1) if n % d == 0) for n in range(1, 25)]
    assert out.tolist() == [tau]


def test_kahan_cumsum_matches_fsum():
    rng = np.random.default_rng(7)
    a = rng.normal(size=5000) * 10.0 ** rng.integers(-8, 8, size=5000)
    out = _kernels.kahan_cumsum(a)
    for idx in (0, 17, 4999):
        ref = math.fsum(a[: idx + 1])
        assert abs(out[idx] - ref) <= 1e-9 * max(1.0, abs(ref))


def test_dd_cumsum_tighter_than_kahan():
    rng = np.random.default_rng(3)
    a = rng.normal(size=20_000)
    dd = _kernels.dd_cumsum(a)
    ref = math.fsum(a)
    assert abs(dd[-1] - ref) <= 4 * abs(ref) * 2.0**-52


def _ref_kahan_cumsum(a):
    # the recurrence one np.float64 element at a time, as a plain loop
    out = np.empty_like(a)
    s = c = 0.0
    for i in range(a.shape[0]):
        y = a[i] - c
        t = s + y
        c = (t - s) - y
        s = t
        out[i] = s
    return out


def _ref_dd_cumsum(a):
    out = np.empty_like(a)
    hi = lo = 0.0
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


def _mixed(size, seed):
    # signed values whose magnitudes span 1e-8..1e8
    rng = np.random.default_rng(seed)
    mag = 10.0 ** rng.uniform(-8, 8, size=size)
    return np.where(rng.random(size) < 0.5, -mag, mag)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


RUN = _kernels.RUN


@pytest.mark.parametrize("size", [0, 1, RUN - 1, RUN, RUN + 1, 3 * RUN + 5])
def test_compensated_sums_bit_equal_to_element_loop(size):
    a = _mixed(size, seed=size)
    kc = _kernels.kahan_cumsum(a)
    assert kc.dtype == np.float64 and kc.shape == (size,)
    assert np.array_equal(_bits(kc), _bits(_ref_kahan_cumsum(a)))
    dd = _kernels.dd_cumsum(a)
    assert dd.dtype == np.float64 and dd.shape == (size,)
    assert np.array_equal(_bits(dd), _bits(_ref_dd_cumsum(a)))


@pytest.mark.parametrize("dtype", [np.int64, np.float32])
def test_compensated_sums_convert_input_to_float64(dtype):
    # the contract: input is converted to float64 at entry, so the result
    # is that of the float64 copy, not of arithmetic in the input's dtype
    rng = np.random.default_rng(29)
    a = (rng.normal(size=RUN + 7) * 1e6).astype(dtype)
    a64 = a.astype(np.float64)
    for kernel in (_kernels.kahan_cumsum, _kernels.dd_cumsum):
        out = kernel(a)
        assert out.dtype == np.float64
        assert np.array_equal(_bits(out), _bits(kernel(a64)))


def _exact_cumsum(a):
    # every prefix over one power-of-two denominator, then Python's correctly
    # rounded int / int
    ratios = [x.as_integer_ratio() for x in a.tolist()]
    den = max((d for _, d in ratios), default=1)
    prefixes = accumulate(num * (den // d) for num, d in ratios)
    return np.array([p / den for p in prefixes], dtype=np.float64)


# |x| <= 2^1000 keeps every prefix of a few thousand entries in range
_any_double = st.floats(min_value=-(2.0**1000), max_value=2.0**1000,
                        allow_nan=False, allow_infinity=False)


@st.composite
def _tie(draw):
    # b, then half an ulp of b away from zero, which ties b with its
    # neighbour, then a tiny term that breaks the tie either way, or nothing
    b = math.ldexp(1.0, draw(st.integers(-900, 900)))
    b = draw(st.sampled_from([b, -b, b + math.ulp(b), -3 * b]))
    half = math.copysign(math.ldexp(math.ulp(b), -1), b)
    return [b, half, draw(st.sampled_from([0.0, 1.0, -1.0])) * b * 2.0**-120]


@st.composite
def _cancelling(draw):
    xs = draw(st.lists(_any_double, min_size=1, max_size=20))
    return xs + [-x for x in reversed(xs)]


@st.composite
def _cumsum_input(draw):
    parts = draw(st.lists(
        st.one_of(st.lists(_any_double, max_size=20), _tie(), _cancelling()),
        min_size=1, max_size=4))
    values = [x for part in parts for x in part]
    # a step of dd_cumsum runs at most 4 RUN // 3 entries, so the longer
    # size crosses at least one step boundary, whatever the span
    size = draw(st.sampled_from([len(values), 4 * RUN // 3 + 7]))
    return np.resize(np.array(values, dtype=np.float64), size)


@settings(max_examples=150, deadline=None)
@given(_cumsum_input())
def test_dd_cumsum_is_correctly_rounded(a):
    out = _kernels.dd_cumsum(a)
    assert out.dtype == np.float64 and out.shape == a.shape
    assert np.array_equal(_bits(out), _bits(_exact_cumsum(a)))


def test_dd_cumsum_index_terms_and_walk_bit_equal_to_element_loop():
    # the two inputs error_series sums at N = 10^5: the ell = 2 index terms
    # and the walk E + mu
    N = 10**5
    terms = stats._index_terms(sieve.sieve_b(2, N), N)
    S = _ref_dd_cumsum(terms)
    assert np.array_equal(_bits(_kernels.dd_cumsum(terms)), _bits(S))
    n = np.arange(1, N + 1, dtype=np.float64)
    walk = S - stats.zeta(2) * n + 0.5 * np.log(n) + stats.mu_constant()
    want = _ref_dd_cumsum(walk)
    assert np.array_equal(_bits(_kernels.dd_cumsum(walk)), _bits(want))


def test_dd_cumsum_memory_is_bounded_at_the_extremes_of_the_exponent_range():
    # significands at every exponent from the subnormal 2^-1074 up to 2^1000:
    # about 80 limbs, so short steps; one prefix also passes the float range
    # and comes back
    rng = np.random.default_rng(41)
    size = 10**5
    significands = rng.integers(-(2**53) + 1, 2**53, size=size)
    a = np.ldexp(significands.astype(np.float64),
                 rng.integers(-1074 - 52, 1000 - 52, size=size))
    a[:3] = 0.0, -0.0, 5e-324
    tracemalloc.start()
    try:
        out = _kernels.dd_cumsum(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(_bits(out), _bits(_exact_cumsum(a)))
    # the limbs of the whole input would take 80 * size * 8 bytes = 64 MB;
    # each temporary is capped at 4 RUN int64 entries (512 kB), and a few
    # are alive at once
    assert peak - out.nbytes < 8 * 4 * RUN * 8, peak
    top = np.finfo(np.float64).max
    out = _kernels.dd_cumsum(np.array([top, top, -top, -top, -top]))
    assert out.tolist() == [top, math.inf, top, 0.0, -top]


@settings(max_examples=150, deadline=None)
@given(_cumsum_input())
def test_exact_sum_is_fsum_bit_for_bit(a):
    # every _cumsum_input total stays in the float range, where math.fsum,
    # correctly rounded too, is the independent reference
    total = _kernels.exact_sum(a)
    assert type(total) is float
    assert total.hex() == math.fsum(a.tolist()).hex()


def test_exact_sum_of_nothing_or_zeros_is_plus_zero():
    for a in ([], [0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0] * RUN,
              [1.0, -1.0], [-5e-324, 5e-324]):
        total = _kernels.exact_sum(np.array(a, dtype=np.float64))
        assert type(total) is float
        assert total.hex() == math.fsum(a).hex() == "0x0.0p+0", a


def _rounded(q: Fraction) -> float:
    # Python rounds int / int correctly and raises past the float range,
    # where the correctly rounded value is +-inf
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def test_exact_sum_past_the_float_range_is_inf():
    # math.fsum raises OverflowError on every case here, so the reference is
    # exact; the cases that end at top and 0.0 pass the range and come back
    top = np.finfo(np.float64).max
    half_ulp = math.ldexp(1.0, 970)  # top + half_ulp ties to 2^1024
    cases = {math.inf: [[top, top], [top, half_ulp], [top] * 1000,
                        [top, top, -top, half_ulp]],
             -math.inf: [[-top, -top, top / 2], [-top, -half_ulp]],
             top: [[top, half_ulp, -5e-324], [top, top, -top]],
             0.0: [[top] * 3 + [-top] * 3]}
    for want, arrays in cases.items():
        for a in arrays:
            assert _rounded(sum(map(Fraction, a))) == want, a
            total = _kernels.exact_sum(np.array(a))
            assert type(total) is float and total == want, a


def test_exact_sum_memory_is_bounded_at_the_extremes_of_the_exponent_range():
    # as for dd_cumsum: about 80 limbs, so short steps
    rng = np.random.default_rng(43)
    size = 10**5
    significands = rng.integers(-(2**53) + 1, 2**53, size=size)
    a = np.ldexp(significands.astype(np.float64),
                 rng.integers(-1074 - 52, 1000 - 52, size=size))
    a[:3] = 0.0, -0.0, 5e-324
    tracemalloc.start()
    try:
        total = _kernels.exact_sum(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total.hex() == math.fsum(a.tolist()).hex()
    # the limbs of the whole input would take 80 * size * 8 bytes = 64 MB;
    # each temporary is capped at 4 RUN int64 entries (512 kB)
    assert peak < 8 * 4 * RUN * 8, peak


@pytest.mark.parametrize("kernel", [_kernels.kahan_cumsum, _kernels.dd_cumsum,
                                    _kernels.exact_sum])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("where", [0, RUN + 3])
def test_cumsums_reject_non_finite_input(kernel, bad, where):
    a = np.ones(2 * RUN)
    a[where] = bad
    a[-1] = math.inf  # only the first one is named
    with pytest.raises(ValueError,
                       match=f"non-finite input at index {where}:"):
        kernel(a)


def test_orbit_counts():
    # identity on 4 points: 4 orbits; 4-cycle: 1; two 2-cycles: 2
    ident = [0, 1, 2, 3]
    cyc = [1, 2, 3, 0]
    swaps = [1, 0, 3, 2]
    ks = _kernels.orbit_counts(
        np.array([[ident], [cyc], [swaps]], dtype=np.int64)
    )
    assert ks.tolist() == [4, 1, 2]
    # jointly the two involutions below still generate a transitive action
    both = np.array([[swaps, [3, 2, 1, 0]]], dtype=np.int64)
    assert _kernels.orbit_counts(both)[0] == 1


def test_local_moments_first_term_bound():
    for p in (2, 3, 5):
        out = _kernels.local_moments(np.array([p], dtype=np.float64), 2, 2, 1e-10)
        assert out[0] >= 1.0 - 1.0 / p


def _divisor_sum(t: list[int], r: int) -> list[int]:
    # out[m] = sum_{d|m} (m/d)^r t[d], one term per multiple m = d*q
    n = len(t)
    out = [0] * n
    for d in range(1, n + 1):
        for q in range(1, n // d + 1):
            out[d * q - 1] += q**r * t[d - 1]
    return out


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_conv_pass_matches_divisor_sum(r):
    # a one-row stack with no modulus; the longer table crosses run
    # boundaries in both loops
    rng = np.random.default_rng(100 + r)
    for n in (300, 2 * _kernels.RUN + 5):
        t = rng.integers(-1000, 1000, size=(1, n), dtype=np.int64)
        out = _kernels.conv_pass(t, _weights(n, r), _plan(n))
        assert out.dtype == np.int64 and out.shape == t.shape
        assert out[0].tolist() == _divisor_sum(t[0].tolist(), r)


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_conv_pass_exact_over_python_ints(r):
    # Python ints beyond 2^63, run as residues modulo primes and rebuilt by
    # the CRT; long enough that both loops cross several run boundaries
    rng = np.random.default_rng(200 + r)
    n = 2 * _kernels.RUN + 5
    big = [v * 2**64 + 1 for v in rng.integers(0, 1000, size=n).tolist()]
    want = _divisor_sum(big, r)
    # _bound(9, n) = 51 n^8 > 2^75 n^3 >= max(want): each big value is below
    # 2^74, and sigma_r(m) <= 2 m^3 for r <= 3
    ell = 9
    assert max(want) <= sieve._bound(ell, n)
    primes = sieve._moduli(ell, n)
    p = np.array(primes, dtype=np.int64)[:, None]
    stack = np.array([[v % q for v in big] for q in primes], dtype=np.int64)
    w = np.array([[pow(q, r, m) for q in _prime_array(n).tolist()] for m in primes],
                 dtype=np.int64)
    out = _kernels.conv_pass(stack, w, _plan(n), p)
    assert out.dtype == np.int64 and out.shape == stack.shape
    for i, m in enumerate(primes):
        assert out[i].tolist() == [v % m for v in want]
    values = sieve._crt(out, primes, sieve._bound(ell, n))
    assert all(type(v) is int for v in values)
    assert list(values) == want


# Table lengths where the pass's chunks and runs change: the smallest ones,
# prime squares (a prime turns small), powers q^j and their neighbours (a
# chunk ends), and multiples of RUN and their neighbours (a run ends).
_EDGE_N = [1, 2, 3, 4, 5, 8, 9, 10, 25, 26, 48, 49, 120, 121, 122,
           127**2 - 1, 127**2, 131**2, 5**6 - 1, 5**6, 5**6 + 1,
           7**5 - 1, 7**5, 7**5 + 1, 3**9 - 1, 3**9, 3**9 + 1,
           RUN - 1, RUN, RUN + 1, 2 * RUN - 1, 2 * RUN + 1, 3 * RUN - 1, 3 * RUN]


def _check_conv_pass(n, r, k, seed):
    # signed values, a stack of k rows, no modulus: each row is the divisor
    # sum of its own table, and t is left as it was
    t = np.random.default_rng(seed).integers(-1000, 1000, size=(k, n), dtype=np.int64)
    before = t.copy()
    out = _kernels.conv_pass(t, np.repeat(_weights(n, r), k, axis=0), _plan(n))
    assert np.array_equal(t, before)
    for i in range(k):
        assert out[i].tolist() == _divisor_sum(t[i].tolist(), r)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.sampled_from(_EDGE_N), st.integers(1, 3 * RUN)),
       st.integers(0, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_conv_pass_property(n, r, k, seed):
    _check_conv_pass(n, r, k, seed)


@pytest.mark.parametrize("i, n", list(enumerate(_EDGE_N)))
def test_conv_pass_at_every_edge_length(i, n):
    # the draws above reach some of these each run; every one, every run
    _check_conv_pass(n, i % 4, 1 + i % 3, 400 + i)


@pytest.mark.parametrize("r", [1, 3])
def test_conv_pass_residue_stack_of_many_short_rows(r):
    # 400 rows of n = 48 span two blocks of RUN // 48 rows; residues near p
    # and weights near p make the largest products the pass can form
    n = 48
    primes = list(sieve._window_primes(sieve._prime_bits(n), 0)[:400])
    p = np.array(primes, dtype=np.int64)[:, None]
    rng = np.random.default_rng(300 + r)
    stack = (p - 1 - rng.integers(0, 50, size=(len(primes), n))) % p
    w = np.array([[pow(q, r, m) for q in _prime_array(n).tolist()] for m in primes],
                 dtype=np.int64)
    out = _kernels.conv_pass(stack, w, _plan(n), p)
    for i, m in enumerate(primes):
        want = _divisor_sum(stack[i].tolist(), r)
        assert out[i].tolist() == [v % m for v in want]


def test_conv_pass_temporaries_are_bounded():
    # the output and O(RUN) entries per row, whatever n: no plan array or
    # temporary follows n, and the plan itself is O(sqrt n)
    n = 1 << 21
    primes = _prime_array(n)
    tracemalloc.start()
    try:
        plan = _kernels.conv_plan(primes, n)
        plan_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(plan[2]) <= math.isqrt(n) + 1
    assert plan_peak < 4 * math.isqrt(n) * 8 + 16 * 1024, plan_peak
    for k in (1, 3):
        t = np.ones((k, n), dtype=np.int64)
        w = np.repeat(primes[None], k, axis=0)
        p = np.full((k, 1), 1_000_003, dtype=np.int64)
        tracemalloc.start()
        try:
            out = _kernels.conv_pass(t, w, plan, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == t.shape
        assert peak - out.nbytes < 16 * RUN * 8 * k, (k, peak)


def _union_find_orbits(gens: list[list[int]], n: int) -> int:
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for g in gens:
        for v in range(n):
            parent[find(v)] = find(g[v])
    return sum(1 for v in range(n) if find(v) == v)


@st.composite
def _perm_batch(draw):
    T = draw(st.integers(1, 8))
    ell = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    perm = st.permutations(list(range(n)))
    return [[draw(perm) for _ in range(ell)] for _ in range(T)], n


@settings(max_examples=200, deadline=None)
@given(_perm_batch())
def test_orbit_counts_matches_union_find(batch):
    tuples, n = batch
    perms = np.array(tuples, dtype=np.int64)
    ks = _kernels.orbit_counts(perms)
    assert ks.tolist() == [_union_find_orbits(gens, n) for gens in tuples]
    # a lone tuple takes no offsets, and must agree with the batch
    alone = [int(_kernels.orbit_counts(perms[t : t + 1])[0]) for t in range(len(perms))]
    assert alone == ks.tolist()


def _assert_union_find(perms: np.ndarray) -> None:
    ks = _kernels.orbit_counts(perms)
    assert ks.dtype == np.int64 and ks.shape == (perms.shape[0],)
    n = perms.shape[2]
    assert ks.tolist() == [_union_find_orbits(gens.tolist(), n) for gens in perms]


def _involution_path(n: int) -> np.ndarray:
    # a swaps (0 1)(2 3)..., b swaps (1 2)(3 4)...: together a path 0-1-...-(n-1)
    a = np.arange(n)
    a[0 : n - 1 : 2] += 1
    a[1 : n : 2] -= 1
    b = np.arange(n)
    b[1 : n - 1 : 2] += 1
    b[2 : n : 2] -= 1
    return np.stack([a, b])


def test_orbit_counts_edge_cases():
    empty = _kernels.orbit_counts(np.zeros((0, 2, 5), dtype=np.int64))
    assert empty.dtype == np.int64 and empty.shape == (0,)
    _assert_union_find(np.zeros((3, 1, 1), dtype=np.int64))  # n = 1
    _assert_union_find(np.array([[[2, 0, 1, 3]], [[0, 1, 2, 3]]]))  # ell = 1
    cycle = np.roll(np.arange(4096), -1)
    _assert_union_find(cycle[None, None, :])
    _assert_union_find(_involution_path(2001)[None])
    # an identity tuple beside a full cycle: labels leaking across tuples
    # would merge the identity's fixed points
    ident = np.tile(np.arange(9), (2, 1))
    full = np.stack([np.roll(np.arange(9), -1), np.roll(np.arange(9), -3)])
    _assert_union_find(np.stack([ident, full, ident]))


def test_orbit_counts_batch_spans_chunks():
    # three full chunks of tuples and a partial one
    n = 10
    T = 3 * (_kernels.RUN // n) + 7
    rng = np.random.default_rng(23)
    perms = rng.permuted(np.tile(np.arange(n), (T, 2, 1)), axis=2)
    _assert_union_find(perms)


def test_orbit_counts_int32_and_strided_input():
    rng = np.random.default_rng(17)
    perms = np.array(
        [[rng.permutation(12) for _ in range(3)] for _ in range(5)]
    )
    _assert_union_find(perms.astype(np.int32))
    # a transposed view of a (n, ell, T) array holds the same batch
    strided = np.ascontiguousarray(perms.transpose(2, 1, 0)).transpose(2, 1, 0)
    assert not strided.flags.c_contiguous
    _assert_union_find(strided)


@pytest.mark.parametrize("bad", [5, -1])
def test_orbit_counts_rejects_out_of_range_images(bad):
    perms = np.array([[[1, 0, 2, 3, 4], [0, 1, 2, 3, 4]]] * 2)
    perms[1, 1, 3] = bad
    with pytest.raises(ValueError):
        _kernels.orbit_counts(perms)


@pytest.mark.parametrize("bad", [
    np.array([[[0.9, 0.2]]]),             # would be truncated to [[[0, 0]]]
    np.array([[[1.0, 0.0]]]),             # integral values, but not an integer dtype
    np.array([[[True, False]]]),          # would be read as [[[1, 0]]]
    np.array([[[1, 0]]], dtype=object),
])
def test_orbit_counts_rejects_non_integer_images(bad):
    with pytest.raises(ValueError, match="must be integers"):
        _kernels.orbit_counts(bad)


def _exact_local_moment(p: int, ell: int, m: int, tol: Fraction) -> Fraction:
    """(1 - 1/p) sum_a p^-a ratio(a)^m in rationals, cut once the tail < tol."""
    q = Fraction(1, p)
    den = Fraction(1)
    for i in range(1, ell):
        den *= 1 - q**i
    cap = (1 / den) ** m
    s = Fraction(0)
    a = 0
    while q**a * cap / (1 - q) >= tol:
        num = Fraction(1)
        for i in range(1, ell):
            num *= 1 - q ** (a + i)
        s += q**a * (num / den) ** m
        a += 1
    return (1 - q) * s


@pytest.mark.parametrize("ell,m", [(2, 1), (2, 3), (3, 2), (4, 2)])
def test_local_moments_match_exact_series(ell, m):
    ps = [2, 3, 5, 7, 11, 101, 997]
    out = _kernels.local_moments(np.array(ps, dtype=np.float64), ell, m, 1e-12)
    for p, got in zip(ps, out.tolist()):
        ref = _exact_local_moment(p, ell, m, Fraction(1, 10**13))
        assert abs(got - float(ref)) <= 1e-10, (p, got, float(ref))

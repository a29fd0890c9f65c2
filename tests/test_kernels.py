import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abundancy import _kernels


def test_conv_pass_is_sigma():
    # one pass with r=1 over all-ones gives sigma(n)
    t = np.ones(30, dtype=np.int64)
    out = _kernels.conv_pass(t, 1)
    sigma = [sum(d for d in range(1, n + 1) if n % d == 0) for n in range(1, 31)]
    assert out.tolist() == sigma


def test_conv_pass_r0_is_divisor_count():
    t = np.ones(24, dtype=np.int64)
    out = _kernels.conv_pass(t, 0)
    tau = [sum(1 for d in range(1, n + 1) if n % d == 0) for n in range(1, 25)]
    assert out.tolist() == tau


def test_kahan_cumsum_matches_fsum():
    rng = np.random.default_rng(7)
    a = rng.normal(size=5000) * 10.0 ** rng.integers(-8, 8, size=5000)
    out = _kernels.kahan_cumsum(a)
    for idx in (0, 17, 4999):
        ref = math.fsum(a[: idx + 1])
        assert abs(out[idx] - ref) <= 1e-9 * max(1.0, abs(ref))


def test_kahan_sum_close_to_fsum():
    rng = np.random.default_rng(11)
    a = rng.normal(size=100_000)
    total = _kernels.kahan_sum(a)
    assert type(total) is float
    assert abs(total - math.fsum(a)) < 1e-9


def test_dd_cumsum_tighter_than_kahan():
    rng = np.random.default_rng(3)
    a = rng.normal(size=20_000)
    dd = _kernels.dd_cumsum(a)
    ref = math.fsum(a)
    assert abs(dd[-1] - ref) <= 4 * abs(ref) * 2.0**-52


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


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_conv_pass_matches_divisor_sum(r):
    rng = np.random.default_rng(100 + r)
    t = rng.integers(-1000, 1000, size=300, dtype=np.int64)
    out = _kernels.conv_pass(t, r)
    ref = [
        sum((m // d) ** r * int(t[d - 1]) for d in range(1, m + 1) if m % d == 0)
        for m in range(1, 301)
    ]
    assert out.dtype == np.int64
    assert out.tolist() == ref


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
    T = draw(st.integers(1, 4))
    ell = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))
    perm = st.permutations(list(range(n)))
    return [[draw(perm) for _ in range(ell)] for _ in range(T)], n


@settings(max_examples=200, deadline=None)
@given(_perm_batch())
def test_orbit_counts_matches_union_find(batch):
    tuples, n = batch
    ks = _kernels.orbit_counts(np.array(tuples, dtype=np.int64))
    assert ks.tolist() == [_union_find_orbits(gens, n) for gens in tuples]


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

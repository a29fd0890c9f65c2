import itertools
import time
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abundancy.bvalues import b_via_flags
from abundancy.errors import BudgetError
from abundancy.genfunc import exp_series, partition_numbers
from abundancy.permtuples import (
    DEFAULT_MAX_WORK,
    ATable,
    PermTuple,
    _commuting_tuples,
    b_from_bruteforce,
    bell_transform,
    enumerate_A,
    transitive_tuples,
)


def test_permtuple_validation():
    with pytest.raises(ValueError):
        PermTuple(perms=())
    with pytest.raises(ValueError):
        PermTuple(perms=((1, 1, 3),))
    pt = PermTuple(perms=((2, 1, 3), (1, 3, 2)))
    assert pt.n == 3 and pt.ell == 2
    assert not pt.commutes()  # adjacent transpositions do not commute
    assert PermTuple(perms=((2, 3, 1), (3, 1, 2))).commutes()


def test_orbit_count_and_transitivity():
    ident = tuple(range(1, 6))
    assert PermTuple(perms=(ident,)).orbit_count() == 5
    cyc = (2, 3, 4, 5, 1)
    assert PermTuple(perms=(cyc,)).is_transitive()
    assert PermTuple(perms=((2, 1, 4, 3),)).orbit_count() == 2


@st.composite
def _tuple_and_relabeling(draw):
    n = draw(st.integers(2, 6))
    points = list(range(1, n + 1))
    p = tuple(draw(st.permutations(points)))
    p2 = tuple(p[p[i] - 1] for i in range(n))  # p squared commutes with p
    sigma = tuple(draw(st.permutations(points)))
    return PermTuple(perms=(p, p2)), sigma


@given(_tuple_and_relabeling())
@settings(max_examples=60, deadline=None)
def test_conjugation_preserves_structure(case):
    pt, sigma = case
    conj = pt.conjugate(sigma)
    assert conj.commutes()
    assert conj.orbit_count() == pt.orbit_count()


def test_conjugation_rejects_non_permutation():
    with pytest.raises(ValueError):
        PermTuple(perms=((1, 2),)).conjugate((1, 1))


def test_atable_contract():
    at = ATable(ell=2, n=3, counts=(8, 9, 1))
    assert at[1] == 8 and at[2] == 9 and at[3] == 1
    assert at[4] == 0 and at[0] == 0
    assert at.total() == 18
    with pytest.raises(ValueError):
        at[-1]
    with pytest.raises(ValueError):
        ATable(ell=2, n=3, counts=(1, 2))


def test_enumerate_A_pairs():
    # commuting pairs in S_n total n! * (number of partitions related
    # classes); spot the full tables instead
    assert enumerate_A(2, 1).counts == (1,)
    assert enumerate_A(2, 2).counts == (3, 1)
    assert enumerate_A(2, 3).counts == (8, 9, 1)
    at4 = enumerate_A(2, 4)
    assert at4[1] == factorial(3) * b_via_flags(2, 4)
    # total = n! * #(conjugacy classes of S_n): 24 * 5
    assert at4.total() == 120


def test_enumerate_A_triples():
    assert enumerate_A(3, 1).counts == (1,)
    at3 = enumerate_A(3, 3)
    assert at3[1] == factorial(2) * b_via_flags(3, 3)


def test_b_from_bruteforce_matches_flags():
    for n in range(1, 6):
        assert b_from_bruteforce(2, n) == b_via_flags(2, n)
    for n in range(1, 5):
        assert b_from_bruteforce(3, n) == b_via_flags(3, n)


def test_transitive_tuples_shape():
    ts = transitive_tuples(2, 3)
    assert len(ts) == factorial(2) * b_via_flags(2, 3)
    for tup in ts:
        pt = PermTuple(perms=tup)
        assert pt.commutes() and pt.is_transitive()


def _pair_filter(ell, n):
    # Reference search: every candidate is tested against every prefix
    # member, n!^2 tests at ell = 2.
    P = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    found: list[tuple[int, ...]] = []

    def rec(chosen: tuple[int, ...], cand: np.ndarray) -> None:
        if len(chosen) == ell - 1:
            found.extend(chosen + (j,) for j in cand.tolist())
            return
        sub = P[cand]
        for pos, j in enumerate(cand.tolist()):
            p = sub[pos]
            mask = np.all(sub[:, p] == p[sub], axis=1)
            rec(chosen + (j,), cand[mask])

    rec((), np.arange(len(P)))
    return P[np.array(found, dtype=np.int64)]


# Every (ell, n) with n <= 6 that the default budget admits, and (2, 7). At
# n = 1 and 2 the budget admits ell up to 26 million and 24, with 2^ell
# tuples at n = 2, so those two rows stop at ell = 10.
_SEARCH_CASES = [
    (ell, n)
    for n in range(1, 7)
    for ell in range(1, 11)
    if factorial(n) ** ell <= DEFAULT_MAX_WORK
] + [(2, 7)]


@pytest.mark.parametrize("ell,n", _SEARCH_CASES)
def test_search_matches_pair_filter(ell, n):
    got = _commuting_tuples(ell, n, DEFAULT_MAX_WORK)
    want = _pair_filter(ell, n)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_commuting_pairs_count_partitions():
    # |{(p, q) : pq = qp}| = n! * (number of conjugacy classes) = n! p(n)
    # n = 8 needs max_work past 8!^2, and is past the pair filter's reach
    p = partition_numbers(8)
    for n in range(1, 9):
        max_work = max(DEFAULT_MAX_WORK, factorial(n) ** 2)
        assert len(_commuting_tuples(2, n, max_work)) == factorial(n) * p[n]


def test_one_point_tuples_of_any_length():
    # one candidate per level: the search runs level by level, not recursively
    assert enumerate_A(1200, 1).counts == (1,)


def test_budget_refusal():
    with pytest.raises(BudgetError):
        enumerate_A(2, 12)
    with pytest.raises(BudgetError):
        enumerate_A(3, 5, max_work=10)
    # refused on ell itself, before n!^ell is formed
    assert enumerate_A(10, 1, max_work=10).counts == (1,)
    for ell in (11, 10**8):
        with pytest.raises(BudgetError):
            enumerate_A(ell, 1, max_work=10)
    with pytest.raises(BudgetError):
        enumerate_A(10**8, 2)
    # n!^ell has 18,500 digits here: the refusal must not try to print it
    with pytest.raises(BudgetError):
        enumerate_A(5000, 7)



def test_output_bound_refuses_before_allocating():
    # admitted by n!^ell = 2^24, but the output would be 2^24 tuples (6.4 GB)
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="1048576 commuting 20-tuples"):
        enumerate_A(24, 2)
    assert time.perf_counter() - start < 1.0
    # an output of exactly max_work entries (tuples x ell x n) is admitted
    assert enumerate_A(5, 2, max_work=2**5 * 5 * 2).total() == 2**5
    with pytest.raises(BudgetError):
        enumerate_A(5, 2, max_work=2**5 * 5 * 2 - 1)

def test_bell_transform_matches_enumeration():
    for ell, nmax in ((2, 6), (3, 4)):
        b_row = [b_via_flags(ell, v) for v in range(1, nmax + 1)]
        for n in range(1, nmax + 1):
            assert bell_transform(ell, n, b_row).counts == enumerate_A(ell, n).counts


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ell=st.integers(1, 4), n=st.integers(1, 5), extra=st.integers(0, 3))
def test_bell_transform_counts_the_enumerated_tuples(ell, n, extra):
    # B(ell, v) from the flag count, orbits from the centralizer search;
    # values past n in the row are ignored. n!^ell is 2.1e8 at (4, 5), past
    # the default budget, but the search itself takes under 0.1 s there.
    b_row = [b_via_flags(ell, v) for v in range(1, n + extra + 1)]
    brute = enumerate_A(ell, n, max_work=max(DEFAULT_MAX_WORK, factorial(n) ** ell))
    assert bell_transform(ell, n, b_row).counts == brute.counts


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ell=st.integers(1, 5), N=st.integers(1, 16), data=st.data())
def test_bell_transform_matches_the_exponential_series(ell, N, data):
    n = data.draw(st.integers(1, N))
    b_row = [b_via_flags(ell, v) for v in range(1, N + 1)]
    assert bell_transform(ell, n, b_row).counts == exp_series(ell, N).a_row(n).counts


def test_bell_transform_guards():
    with pytest.raises(ValueError):
        bell_transform(2, 0, [])
    with pytest.raises(ValueError):
        bell_transform(2, 5, [1, 3])
    # integer rows always yield integer counts (integer-coefficient
    # polynomials in the B values), so any integer row is accepted,
    # NumPy integers included; a value that is not an integer is refused,
    # not truncated
    assert bell_transform(2, 3, [1, 3, 5]).counts == (10, 9, 1)
    assert bell_transform(2, 3, np.array([1, 3, 5])).counts == (10, 9, 1)
    assert bell_transform(2, 3, [np.int32(1), np.uint8(3), 5]).counts == (10, 9, 1)
    # values past n are not read
    assert bell_transform(2, 1, [1, 3.5]).counts == (1,)


@pytest.mark.parametrize("row, v", [
    ([1, 3.5, 5], 2),
    ([True, 3, 5], 1),
    ([1, 3, 5.0], 3),
    ([1, "3", 5], 2),
    (np.array([1.0, 3.0, 5.0]), 1),
])
def test_bell_transform_refuses_non_integers(row, v):
    with pytest.raises(ValueError, match=rf"B\(ell, {v}\) must be an integer"):
        bell_transform(2, 3, row)


def _reference_bell_transform(ell, n, b_row):
    # the parts-count DP over exact rationals: w = B(v)/v, c_k(s) summed
    # over compositions of s into k parts, A = n!/k! c_k(n)
    w = [Fraction(int(b_row[v - 1]), v) for v in range(1, n + 1)]
    c = [Fraction(0)] * (n + 1)
    c[0] = Fraction(1)
    nfact = factorial(n)
    counts = []
    for k in range(1, n + 1):
        new = [Fraction(0)] * (n + 1)
        for s in range(k, n + 1):
            acc = Fraction(0)
            for v in range(1, s - k + 2):
                acc += w[v - 1] * c[s - v]
            new[s] = acc
        c = new
        val = Fraction(nfact, factorial(k)) * c[n]
        if val.denominator != 1:
            raise ArithmeticError(f"non-integral count at k={k}: {val}")
        counts.append(int(val))
    return ATable(ell=ell, n=n, counts=tuple(counts))


_B_VALUES = st.one_of(
    st.integers(-3, 3),
    st.integers(-(2**70), 2**70),
    st.integers(2**64, 2**80),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(ell=st.integers(1, 6), n=st.integers(1, 30), data=st.data())
def test_bell_transform_matches_the_rational_reference(ell, n, data):
    # any integer row, negative, zero and past 2^64 included
    b_row = data.draw(st.lists(_B_VALUES, min_size=n, max_size=n + 2))
    assert bell_transform(ell, n, b_row) == _reference_bell_transform(ell, n, b_row)

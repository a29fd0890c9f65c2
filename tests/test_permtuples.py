import itertools
import time
from fractions import Fraction
from math import factorial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abundancy import permtuples, tori
from abundancy._kernels import orbit_counts
from abundancy.bvalues import b_via_flags
from abundancy.errors import BudgetError, VerificationFailure
from abundancy.genfunc import exp_series, partition_numbers
from abundancy.permtuples import (
    DEFAULT_MAX_WORK,
    ATable,
    PermTuple,
    _commuting_chunks,
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


def _all_tuples(ell, n):
    return np.concatenate(list(_commuting_chunks(ell, n, DEFAULT_MAX_WORK)))


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


# Every (ell, n) with n <= 6 and ell <= 10 that the pair filter reaches,
# n!^ell <= DEFAULT_MAX_WORK, and (2, 7). The default budget admits more,
# such as (3, 6) and (4, 6), which the reference is too slow to list.
_SEARCH_CASES = [
    (ell, n)
    for n in range(1, 7)
    for ell in range(1, 11)
    if factorial(n) ** ell <= DEFAULT_MAX_WORK
] + [(2, 7)]


@pytest.mark.parametrize("ell,n", _SEARCH_CASES)
def test_search_matches_pair_filter(ell, n):
    got = _all_tuples(ell, n)
    want = _pair_filter(ell, n)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_commuting_pairs_count_partitions():
    # |{(p, q) : pq = qp}| = n! * (number of conjugacy classes) = n! p(n);
    # n = 8 is past the pair filter's reach, and its 887,040 pairs hold
    # 14.2 million entries, within the default budget
    p = partition_numbers(8)
    for n in range(1, 9):
        assert len(_all_tuples(2, n)) == factorial(n) * p[n]


# ell <= 4 of the pair filter's cases, so that one chunk per prefix stays fast
_STREAM_CASES = [(ell, n) for ell, n in _SEARCH_CASES if ell <= 4 and n <= 6]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=st.sampled_from(_STREAM_CASES), data=st.data())
def test_streamed_search_matches_for_any_chunk(case, data):
    # a chunk of 1 entry holds one prefix each, a few entries one or a few,
    # and n! ell n entries at least one prefix's worth, since no prefix
    # draws its last member from more than n! candidates
    ell, n = case
    chunk = data.draw(st.one_of(
        st.just(1), st.integers(2, 4 * ell * n), st.just(factorial(n) * ell * n)
    ))
    want = (enumerate_A(ell, n), b_from_bruteforce(ell, n), transitive_tuples(ell, n))
    listed = _pair_filter(ell, n)
    with mock.patch.object(permtuples, "SEARCH_CHUNK", chunk):
        got = (enumerate_A(ell, n), b_from_bruteforce(ell, n), transitive_tuples(ell, n))
        chunks = list(_commuting_chunks(ell, n, DEFAULT_MAX_WORK))
    assert got == want
    hist = np.bincount(orbit_counts(listed), minlength=n + 1)
    assert got[0].counts == tuple(hist[1:].tolist())
    assert np.array_equal(np.concatenate(chunks), listed)
    for c in chunks:
        # past the bound only when the chunk is one prefix's tuples
        prefixes = np.unique(c[:, :-1].reshape(len(c), -1), axis=0)
        assert c.size <= chunk or len(prefixes) == 1


def test_one_point_tuples_of_any_length():
    # one candidate per level: the search runs level by level, not recursively
    assert enumerate_A(1200, 1).counts == (1,)


def test_budget_refusal():
    with pytest.raises(BudgetError):
        enumerate_A(2, 12)
    with pytest.raises(BudgetError):
        enumerate_A(3, 5, max_work=10)
    # ell itself counts against max_work: ten 1-point members fit in 10
    assert enumerate_A(10, 1, max_work=10).counts == (1,)
    for ell in (11, 10**8):
        with pytest.raises(BudgetError):
            enumerate_A(ell, 1, max_work=10)
    with pytest.raises(BudgetError):
        enumerate_A(10**8, 2)
    # refused on the 75,600 pairs of S_7, times ell x n, before any is listed
    with pytest.raises(BudgetError):
        enumerate_A(5000, 7)



def test_output_bound_refuses_before_allocating():
    # the output would be 2^24 tuples (6.4 GB); the 2^20 20-tuples already
    # hold more than the default max_work entries
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="1048576 commuting 20-tuples"):
        enumerate_A(24, 2)
    assert time.perf_counter() - start < 1.0
    # an output of exactly max_work entries (tuples x ell x n) is admitted
    assert enumerate_A(5, 2, max_work=2**5 * 5 * 2).total() == 2**5
    with pytest.raises(BudgetError):
        enumerate_A(5, 2, max_work=2**5 * 5 * 2 - 1)

def test_permutation_list_refused_before_it_is_built():
    # n!·n entries: 96 at n = 4; 36,288,000 at n = 10, past the default
    assert enumerate_A(1, 4, max_work=96).counts == (6, 11, 6, 1)  # cycle counts
    with mock.patch.object(permtuples.itertools, "permutations", side_effect=AssertionError):
        with pytest.raises(BudgetError, match="n = 4 points hold more than max_work = 95"):
            enumerate_A(1, 4, max_work=95)
        with pytest.raises(BudgetError, match="n = 10 points"):
            enumerate_A(1, 10)
        # the 10,886,400 commuting pairs of S_9 are counted from its cycle types
        with pytest.raises(BudgetError, match="10886400 commuting 2-tuples"):
            enumerate_A(2, 9)


def test_candidate_tests_refused_before_they_run():
    # the last level of (3, 7) tests 28,118,160 candidates, past the default
    start = time.perf_counter()
    with mock.patch.object(permtuples, "_keep_commuting", side_effect=AssertionError):
        with pytest.raises(BudgetError, match="needs 28118160 candidate tests"):
            enumerate_A(3, 7)
    assert time.perf_counter() - start < 1.0


def test_last_level_refuses_before_any_chunk():
    # (3, 4) has 504 triples, 6,048 entries
    assert enumerate_A(3, 4, max_work=6048).total() == 504
    with pytest.raises(BudgetError, match="504 commuting 3-tuples"):
        enumerate_A(3, 4, max_work=6047)
    with mock.patch.object(permtuples, "SEARCH_CHUNK", 1):
        with pytest.raises(BudgetError, match="504 commuting 3-tuples"):
            next(_commuting_chunks(3, 4, 3000))
    # past the default the tuples are counted, not built: 1,048,576
    # 20-tuples of S_2, 1,618,896 13-tuples of S_3, 3,833,880 7-tuples of S_5
    start = time.perf_counter()
    with mock.patch.object(permtuples, "_check_commute", side_effect=AssertionError):
        for ell, n in ((20, 2), (13, 3), (7, 5)):
            with pytest.raises(BudgetError, match=f"commuting {ell}-tuples already"):
                enumerate_A(ell, n)
    assert time.perf_counter() - start < 1.0


def test_candidate_tests_run_once():
    # _keep_commuting is given each level's tests once; (3, 7) has one level
    # of 28,118,160 tests, and the output check after it needs no second pass
    keep = permtuples._keep_commuting
    counted = []

    def counting(pairs, N, q, lo, m, flat):
        counted.append(int(m.sum()))
        return keep(pairs, N, q, lo, m, flat)

    with mock.patch.object(permtuples, "_keep_commuting", counting):
        at = enumerate_A(3, 7, max_work=28_118_160)
    assert sum(counted) == 28_118_160
    assert at[1] == factorial(6) * b_via_flags(3, 7) == 41_040


def test_callers_without_max_work_read_the_default(monkeypatch):
    # the 120 commuting pairs of S_4 hold 960 entries
    monkeypatch.setattr(permtuples, "DEFAULT_MAX_WORK", 960)
    assert len(transitive_tuples(2, 4)) == factorial(3) * b_via_flags(2, 4)
    assert tori.double_count_check(2, 4).match
    assert b_from_bruteforce(2, 4) == b_via_flags(2, 4)
    monkeypatch.setattr(permtuples, "DEFAULT_MAX_WORK", 959)
    for call in (transitive_tuples, tori.double_count_check, b_from_bruteforce):
        with pytest.raises(BudgetError, match="120 commuting 2-tuples already"):
            call(2, 4)


def test_every_chunk_is_checked_against_the_definition():
    # a centralizer list that admits every permutation yields pairs that do
    # not commute; each chunk must be checked before it is counted
    def everything(P):
        N = len(P)
        return np.arange(N + 1) * N, np.tile(np.arange(N), N)

    with mock.patch.object(permtuples, "_centralizers", everything):
        with pytest.raises(VerificationFailure, match="non-commuting pair"):
            enumerate_A(2, 3)
        with mock.patch.object(permtuples, "SEARCH_CHUNK", 1):
            with pytest.raises(VerificationFailure):
                transitive_tuples(2, 3)


def test_pairs_of_eight_points_under_the_default_budget():
    # refused while the budget was n!^ell; 887,040 pairs, counted chunk by chunk
    at = enumerate_A(2, 8)
    assert at[1] == factorial(7) * 15 == 75_600  # 7! sigma(8)
    b_row = [b_via_flags(2, v) for v in range(1, 9)]
    assert at.counts == bell_transform(2, 8, b_row).counts


def test_bell_transform_matches_enumeration():
    for ell, nmax in ((2, 6), (3, 4)):
        b_row = [b_via_flags(ell, v) for v in range(1, nmax + 1)]
        for n in range(1, nmax + 1):
            assert bell_transform(ell, n, b_row).counts == enumerate_A(ell, n).counts


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ell=st.integers(1, 4), n=st.integers(1, 5), extra=st.integers(0, 3))
def test_bell_transform_counts_the_enumerated_tuples(ell, n, extra):
    # B(ell, v) from the flag count, orbits from the centralizer search;
    # values past n in the row are ignored. The default budget admits every
    # draw: (4, 5) outputs 494,400 entries, the most of them.
    b_row = [b_via_flags(ell, v) for v in range(1, n + extra + 1)]
    brute = enumerate_A(ell, n)
    assert bell_transform(ell, n, b_row).counts == brute.counts


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ell=st.integers(1, 5), N=st.integers(1, 16), data=st.data())
def test_bell_transform_matches_the_exponential_series(ell, N, data):
    n = data.draw(st.integers(1, N))
    b_row = [b_via_flags(ell, v) for v in range(1, N + 1)]
    assert bell_transform(ell, n, b_row).counts == exp_series(ell, N).a_row(n).counts


def test_bell_transform_budget_refuses_before_the_recurrence(monkeypatch):
    # n(n+1)(n+2)/6 multiply-adds: 20 at n = 4
    row = [1, 3, 4, 7]
    want = bell_transform(2, 4, row)
    monkeypatch.setattr(permtuples, "DEFAULT_MAX_WORK", 20)
    assert bell_transform(2, 4, row) == want
    monkeypatch.setattr(permtuples, "DEFAULT_MAX_WORK", 19)
    with pytest.raises(BudgetError, match="ell=2, n=4 takes 20 multiply-adds"):
        bell_transform(2, 4, row)
    monkeypatch.undo()
    # the default admits n = 537 and refuses n = 538, before reading the row
    with pytest.raises(BudgetError, match="n=538 takes 26098380 "):
        bell_transform(2, 538, [])


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

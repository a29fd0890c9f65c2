import itertools
import time
from fractions import Fraction
from math import factorial, prod
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
    b_from_bruteforce,
    bell_transform,
    enumerate_A,
    transitive_tuples,
)
from abundancy.sieve import sieve_b


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


def _reference(ell, n):
    # the pair filter's orbit histogram and transitive tuples, 1-based
    listed = _pair_filter(ell, n)
    orbits = orbit_counts(listed)
    hist = tuple(np.bincount(orbits, minlength=n + 1)[1:].tolist())
    return hist, {tuple(map(tuple, tup)) for tup in (listed[orbits == 1] + 1).tolist()}


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
    hist, transitive = _reference(ell, n)
    assert enumerate_A(ell, n).counts == hist
    assert transitive_tuples(ell, n) == transitive


def test_commuting_pairs_count_partitions():
    # |{(p, q) : pq = qp}| = n! * (number of conjugacy classes) = n! p(n),
    # past the pair filter's reach at n = 8 and 9
    p = partition_numbers(9)
    for n in range(1, 10):
        assert enumerate_A(2, n).total() == factorial(n) * p[n]


# ell <= 4 of the pair filter's cases, so that one run per prefix stays fast
_STREAM_CASES = [(ell, n) for ell, n in _SEARCH_CASES if ell <= 4 and n <= 6]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=st.sampled_from(_STREAM_CASES), data=st.data())
def test_streamed_search_matches_for_any_chunk(case, data):
    # a chunk of 1 entry holds one prefix's tuples a run, a few entries one
    # or a few, and n! ell n entries at least one prefix's worth, since no
    # prefix draws its last member from more than n! candidates
    ell, n = case
    chunk = data.draw(st.one_of(
        st.just(1), st.integers(2, 4 * ell * n), st.just(factorial(n) * ell * n)
    ))
    want = (enumerate_A(ell, n), b_from_bruteforce(ell, n), transitive_tuples(ell, n))
    runs = []

    def recording(tuples):
        runs.append(tuples)
        check(tuples)

    check = permtuples._check_commute
    with mock.patch.object(permtuples, "SEARCH_CHUNK", chunk), \
            mock.patch.object(permtuples, "_check_commute", recording):
        got = (enumerate_A(ell, n), b_from_bruteforce(ell, n), transitive_tuples(ell, n))
    assert got == want
    assert (got[0].counts, got[2]) == _reference(ell, n)
    for run in runs:
        # past the bound only when the run is one prefix's tuples
        prefixes = np.unique(run[:, :-1].reshape(len(run), -1), axis=0)
        assert run.size <= chunk or len(prefixes) == 1


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
    # refused on the 6-tuples inside the centralizers of S_7, before any is built
    with pytest.raises(BudgetError):
        enumerate_A(5000, 7)


def test_output_bound_refuses_before_allocating():
    # S_2 has 2^(w-1) w-tuples headed by the transposition, w 2^w entries;
    # those of widths 2..20 sum to 19 * 2^21 entries, past the default
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="39845888 tuple entries by the 20-tuples"):
        enumerate_A(24, 2)
    assert time.perf_counter() - start < 1.0
    # widths 2..5 build exactly 256 entries, admitted at a max_work of 256
    assert enumerate_A(5, 2, max_work=256).total() == 2**5
    with pytest.raises(BudgetError, match="256 tuple entries by the 5-tuples"):
        enumerate_A(5, 2, max_work=255)


def test_permutation_list_refused_before_it_is_built():
    # n!·n entries: 96 at n = 4; 36,288,000 at n = 10, past the default
    assert enumerate_A(1, 4, max_work=96).counts == (6, 11, 6, 1)  # cycle counts
    with mock.patch.object(permtuples.itertools, "permutations", side_effect=AssertionError):
        with pytest.raises(BudgetError, match="n = 4 points hold more than max_work = 95"):
            enumerate_A(1, 4, max_work=95)
        for ell in (1, 2):
            with pytest.raises(BudgetError, match="n = 10 points"):
                enumerate_A(ell, 10)


def test_candidate_tests_refused_before_they_run():
    # the transposition of S_9 has a centralizer of 2 * 7! = 10,080, so its
    # 3-tuples need 10,080^2 = 101,606,400 tests, past the default
    start = time.perf_counter()
    with mock.patch.object(permtuples, "_keep_commuting", side_effect=AssertionError):
        with pytest.raises(BudgetError, match="needs 101606400 candidate tests"):
            enumerate_A(3, 9)
    assert time.perf_counter() - start < 1.0


def test_last_level_refuses_before_any_chunk():
    # (3, 4) builds 1,124 tuple entries inside its centralizers
    assert enumerate_A(3, 4, max_work=1124).total() == 504
    with pytest.raises(BudgetError, match="1124 tuple entries by the 3-tuples"):
        enumerate_A(3, 4, max_work=1123)
    P = permtuples._permutations(3, 4, 1123)
    with mock.patch.object(permtuples, "SEARCH_CHUNK", 1):
        with pytest.raises(BudgetError, match="1124 tuple entries by the 3-tuples"):
            next(permtuples._search(3, P, 1123))
    # past the default every level is counted before any tuple is built
    start = time.perf_counter()
    with mock.patch.object(permtuples, "_check_commute", side_effect=AssertionError):
        for ell, n in ((20, 2), (13, 3), (8, 5)):
            with pytest.raises(BudgetError, match=f"tuple entries by the {ell}-tuples"):
                enumerate_A(ell, n)
    assert time.perf_counter() - start < 1.0


def test_candidate_tests_run_once():
    # at ell = 3 each x in C(s) tests all of C(s) once, so the tests number
    # the sum of |C(s)|^2 over the cycle types but the identity's
    keep = permtuples._keep_commuting
    counted = []

    def counting(C, off, flat):
        # each candidate of a prefix tests all of that prefix's candidates
        counted.append(int(np.dot(np.diff(off), np.diff(off))))
        return keep(C, off, flat)

    def z(t):  # |C(s)| for the cycle type t
        return prod(L ** t.count(L) * factorial(t.count(L)) for L in set(t))

    with mock.patch.object(permtuples, "_keep_commuting", counting):
        at = enumerate_A(3, 7)
    want = sum(z(t) ** 2 for t in permtuples._cycle_types(7) if t[-1] > 1)
    assert sum(counted) == want == 69_505
    assert at[1] == factorial(6) * b_via_flags(3, 7) == 41_040


def test_callers_without_max_work_read_the_default(monkeypatch):
    # (2, 4) builds 152 tuple entries; its 42 transitive pairs hold 336
    monkeypatch.setattr(permtuples, "DEFAULT_MAX_WORK", 336)
    assert len(transitive_tuples(2, 4)) == factorial(3) * b_via_flags(2, 4)
    assert tori.double_count_check(2, 4).match
    monkeypatch.setattr(permtuples, "DEFAULT_MAX_WORK", 335)
    for call in (transitive_tuples, tori.double_count_check):
        with pytest.raises(BudgetError, match="the 42 transitive 2-tuples of n = 4"):
            call(2, 4)
    monkeypatch.setattr(permtuples, "DEFAULT_MAX_WORK", 152)
    assert b_from_bruteforce(2, 4) == b_via_flags(2, 4)
    monkeypatch.setattr(permtuples, "DEFAULT_MAX_WORK", 151)
    for call in (transitive_tuples, tori.double_count_check, b_from_bruteforce):
        with pytest.raises(BudgetError, match="152 tuple entries by the 2-tuples"):
            call(2, 4)


def test_every_chunk_is_checked_against_the_definition():
    # a centralizer that admits every permutation yields pairs that do not
    # commute; each run must be checked before it is counted
    with mock.patch.object(permtuples, "_centralizer", lambda P, s: P):
        with pytest.raises(VerificationFailure, match="non-commuting pair"):
            enumerate_A(2, 3)
        with mock.patch.object(permtuples, "SEARCH_CHUNK", 1):
            with pytest.raises(VerificationFailure):
                transitive_tuples(2, 3)


def test_check_commute_compares_the_last_member_with_every_other():
    # (0 1), the identity, (1 2): each adjacent pair commutes, the outer one does not
    tup = np.array([[[1, 0, 2], [0, 1, 2], [0, 2, 1]]])
    with pytest.raises(VerificationFailure, match="non-commuting pair"):
        permtuples._check_commute(tup)
    permtuples._check_commute(tup[:, :2])
    permtuples._check_commute(tup[:, 1:])


@pytest.mark.parametrize("ell,n", [(3, 5), (4, 4), (5, 3)])
def test_every_prefix_is_yielded_before_its_extensions(ell, n):
    # _check_commute tests only the last member, so each tuple's prefix must
    # have been checked and yielded one level down first
    seen = set()
    with mock.patch.object(permtuples, "SEARCH_CHUNK", 64):
        P = permtuples._permutations(ell, n, DEFAULT_MAX_WORK)
        for _, run in permtuples._search(ell, P, DEFAULT_MAX_WORK):
            if run.shape[1] > 1:
                assert {t.tobytes() for t in run[:, :-1]} <= seen
            seen.update(t.tobytes() for t in run)
    assert any(len(t) == ell * n * 8 for t in seen)


def test_pairs_of_eight_points_under_the_default_budget():
    # refused while the budget was n!^ell; 887,040 pairs, counted chunk by chunk
    at = enumerate_A(2, 8)
    assert at[1] == factorial(7) * 15 == 75_600  # 7! sigma(8)
    b_row = [b_via_flags(2, v) for v in range(1, 9)]
    assert at.counts == bell_transform(2, 8, b_row).counts


def test_nine_points_and_larger_tuples_under_the_default_budget():
    # all refused while the oracle listed every commuting pair of S_n
    rows = {ell: sieve_b(ell, 9) for ell in (2, 3, 4)}
    at = enumerate_A(2, 9)
    assert at[1] == factorial(8) * rows[2][9] == 524_160  # 8! sigma(9)
    assert at.counts == bell_transform(2, 9, [rows[2][v] for v in range(1, 10)]).counts
    assert enumerate_A(3, 8)[1] == factorial(7) * rows[3][8]
    assert enumerate_A(4, 7)[1] == factorial(6) * rows[4][7]


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

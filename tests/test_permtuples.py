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


@pytest.mark.parametrize("perms", [
    ((True, 2),),            # NumPy would read True as 1 among integers
    ((2, 1), (np.True_, 2)),
    ((2.0, 1.0),),
    ((1, 2.5),),
    np.array([[True, False]]),
    np.array([[2.0, 1.0]]),
    np.array([[2, 1]], dtype=object),
])
def test_permtuple_refuses_non_integer_entries(perms):
    with pytest.raises(ValueError, match="must be integers"):
        PermTuple(perms=perms)


@pytest.mark.parametrize("perms", [(), ((),), ((1, 2), (1,)), (1, 2), [[[1]]]])
def test_permtuple_refuses_empty_and_ragged_input(perms):
    with pytest.raises(ValueError):
        PermTuple(perms=perms)


def test_permtuple_holds_one_read_only_array():
    source = np.array([[2, 3, 1], [3, 1, 2]], dtype=np.int8)
    pt = PermTuple(perms=source)
    assert pt.images.dtype == np.int64 and pt.images.shape == (2, 3)
    assert not pt.images.flags.writeable
    with pytest.raises(ValueError):
        pt.images[0, 0] = 1
    with pytest.raises(AttributeError):
        pt.images = pt.images.copy()
    source[0] = (1, 2, 3)  # the caller's array is not shared
    assert pt.perms == ((2, 3, 1), (3, 1, 2))
    assert repr(pt) == "PermTuple(perms=((2, 3, 1), (3, 1, 2)))"


def test_permtuple_equality_and_hash_go_by_value():
    a = PermTuple(perms=((2, 3, 1), (3, 1, 2)))
    b = PermTuple(perms=np.array([[2, 3, 1], [3, 1, 2]], dtype=np.uint8))
    c = PermTuple(perms=((3, 1, 2), (2, 3, 1)))
    assert a == b and hash(a) == hash(b) and len({a, b, c}) == 2
    assert a != c and a != a.perms
    # the same images in another shape are another tuple
    assert PermTuple(perms=((1, 2, 3, 4),)) != PermTuple(perms=((1, 2), (1, 2)))


def _commutes_reference(perms):
    n = len(perms[0])
    return all(all(a[b[i] - 1] == b[a[i] - 1] for i in range(n))
               for a, b in itertools.combinations(perms, 2))


def _conjugate_reference(perms, sigma):
    out = []
    for p in perms:
        q = [0] * len(p)
        for i in range(len(p)):
            q[sigma[i] - 1] = sigma[p[i] - 1]
        out.append(tuple(q))
    return tuple(out)


@st.composite
def _tuple_and_sigma(draw):
    n = draw(st.integers(1, 7))
    points = list(range(1, n + 1))
    perm = st.permutations(points)
    p = tuple(draw(perm))
    # powers of one permutation commute; random ones mostly do not
    pool = [p, tuple(p[p[i] - 1] for i in range(n))]
    perms = tuple(draw(st.one_of(st.sampled_from(pool), perm.map(tuple)))
                  for _ in range(draw(st.integers(1, 4))))
    return perms, tuple(draw(perm))


@given(_tuple_and_sigma())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_commutes_and_conjugate_match_the_pointwise_reference(case):
    perms, sigma = case
    pt = PermTuple(perms=perms)
    assert pt.perms == perms
    assert pt.commutes() == _commutes_reference(perms)
    conj = pt.conjugate(sigma)
    assert conj.perms == _conjugate_reference(perms, sigma)
    assert conj == PermTuple(perms=_conjugate_reference(perms, sigma))
    assert pt.conjugate(np.array(sigma)) == conj


@pytest.mark.parametrize("sigma", [(1, 2), (1, 2, 4), (True, 2, 3), (1.0, 2.0, 3.0)])
def test_conjugate_refuses_what_is_not_a_relabelling(sigma):
    with pytest.raises(ValueError):
        PermTuple(perms=((2, 3, 1),)).conjugate(sigma)


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
    for tup in _nested(ts):
        pt = PermTuple(perms=tup)
        assert pt.commutes() and pt.is_transitive()


@pytest.mark.parametrize("ell,n", [(3, 1), (1, 1), (1, 5), (3, 4)])
def test_transitive_tuples_are_sorted_read_only_int8_rows(ell, n):
    ts = transitive_tuples(ell, n)
    assert isinstance(ts, np.ndarray) and ts.dtype == np.int8
    assert ts.flags.c_contiguous and not ts.flags.writeable
    assert ts.shape == (enumerate_A(ell, n)[1], ell, n)
    assert ts.min() >= 1 and ts.max() <= n
    rows = ts.reshape(len(ts), -1).tolist()
    assert all(a < b for a, b in zip(rows, rows[1:]))


def _nested(rows):
    # int8 rows of tuples as nested tuples, the format of PermTuple.perms
    return [tuple(map(tuple, tup)) for tup in rows.tolist()]


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
    assert _nested(transitive_tuples(ell, n)) == sorted(transitive)


def test_commuting_pairs_count_partitions():
    # |{(p, q) : pq = qp}| = n! * (number of conjugacy classes) = n! p(n),
    # past the pair filter's reach at n = 8 and 9
    p = partition_numbers(9)
    for n in range(1, 10):
        assert enumerate_A(2, n).total() == factorial(n) * p[n]


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
    # refused on the recurrence's 5000 passes, whose entries grow to 5000 x 21
    # bits, before any centralizer of S_7 is built
    with pytest.raises(BudgetError):
        enumerate_A(5000, 7)


def test_passes_are_counted_by_size():
    # at (300, 8) the 300 passes over the 1661 classes of S_8's graph take
    # 300 x 1661 x 8 = 3,986,400 entries, within the default, but an entry
    # of pass d has up to 24 d bits, so in 64-bit limbs they take 229,733,040
    start = time.perf_counter()
    with mock.patch.object(permtuples, "orbit_counts", side_effect=AssertionError):
        with pytest.raises(BudgetError, match="1661 classes take the work to 229733040"):
            enumerate_A(300, 8)
    assert time.perf_counter() - start < 1.0


def test_class_equation_reaches_past_the_old_budget():
    # nine and ten points and long tuples, against the B values of the flag count
    for ell, n in ((3, 9), (2, 10), (4, 8), (6, 6), (19, 8)):
        b_row = [b_via_flags(ell, v) for v in range(1, n + 1)]
        assert enumerate_A(ell, n).counts == bell_transform(ell, n, b_row).counts


def test_output_bound_refuses_before_allocating(monkeypatch):
    # the 7! B(4, 8) = 7,030,800 transitive 4-tuples of 8 points hold 32 entries
    # each, 224,985,600 in all, past the default: refused once they are
    # counted, before the bijections that relabel them are listed
    monkeypatch.setattr(permtuples, "_fixing_first", mock.Mock(side_effect=AssertionError))
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="the 7030800 transitive 4-tuples take the work to"):
        transitive_tuples(4, 8)
    assert time.perf_counter() - start < 1.0


def test_permutation_list_refused_before_it_is_built():
    # no list of S_n is built; the largest list is C(s) of a transposition,
    # 2 (n-2)! n entries (87,091,200 at n = 12), counted before the leader
    # rule runs, and ell is counted by the recurrence's passes first
    start = time.perf_counter()
    with mock.patch.object(permtuples, "_rotation_centralizer", side_effect=AssertionError), \
            mock.patch.object(permtuples, "_conjugates", side_effect=AssertionError):
        for ell, n in ((2, 12), (1, 13), (10**8, 2)):
            with pytest.raises(BudgetError):
                enumerate_A(ell, n)
    assert time.perf_counter() - start < 1.0
    # at n = 4: the four C(s) but the identity's hold (4 + 3 + 8 + 4) x 4 = 76
    # entries, and one pass over the five classes takes 5 x 4 = 20
    assert enumerate_A(1, 4, max_work=96).counts == (6, 11, 6, 1)  # cycle counts
    with pytest.raises(BudgetError, match="5 classes take the work to 96, past max_work = 95"):
        enumerate_A(1, 4, max_work=95)


def test_candidate_tests_refused_before_they_run():
    # a class sweep tests each row of H as a candidate for C_H(x), |H| n
    # entries, counted before it runs; at (3, 10) the sweeps of the
    # centralizer of a transposition, 80,640 rows of 10 points, pass the
    # default partway, and none runs past it
    swept = []
    conjugates = permtuples._conjugates

    def counting(H, x):
        swept.append(H.size)
        return conjugates(H, x)

    start = time.perf_counter()
    with mock.patch.object(permtuples, "_conjugates", counting):
        with pytest.raises(BudgetError, match="the class sweeps take the work to"):
            enumerate_A(3, 10)
    assert time.perf_counter() - start < 1.0
    assert 0 < sum(swept) <= DEFAULT_MAX_WORK


def test_last_level_refuses_before_any_chunk():
    # the last level hands (orbit permutation, x), for every x of every node,
    # to the orbit kernel in one chunk of 2 n entries a tuple, counted first
    with mock.patch.object(permtuples, "orbit_counts", side_effect=AssertionError):
        with pytest.raises(BudgetError, match="the last level's tuples take the work to"):
            enumerate_A(2, 11)
    # (3, 4) does 900 work in all, the last level last
    assert enumerate_A(3, 4, max_work=900).total() == 504
    with pytest.raises(BudgetError, match="tuples take the work to 900, past max_work = 899"):
        enumerate_A(3, 4, max_work=899)


def test_candidate_tests_run_once():
    # each (H, orbits) node is swept once per call, one sweep a class, so
    # once ell passes the depth of the graph a longer tuple adds passes of
    # the recurrence but no sweep
    conjugates, class_graph = permtuples._conjugates, permtuples._class_graph

    def sweeps(ell, n):
        swept, graphs = [], []

        def recording(H, x):
            swept.append(H.tobytes() + x.tobytes())
            return conjugates(H, x)

        def keeping(*args):
            graphs.append(class_graph(*args))
            return graphs[-1]

        with mock.patch.object(permtuples, "_conjugates", recording), \
                mock.patch.object(permtuples, "_class_graph", keeping):
            at = enumerate_A(ell, n)
        (_, starts, edges), = graphs
        assert len(swept) == len(edges) - starts[1]  # the classes below the top
        return swept, at

    swept10, _ = sweeps(10, 6)
    swept30, at30 = sweeps(30, 6)
    assert swept10 == swept30 and len(swept30) == 218
    assert at30.counts == bell_transform(30, 6, [b_via_flags(30, v) for v in range(1, 7)]).counts


def test_callers_without_max_work_read_the_default(monkeypatch):
    # (2, 4): the recurrence swept to the last member does 720 work, and the
    # 42 transitive pairs hold 336 entries
    monkeypatch.setattr(permtuples, "DEFAULT_MAX_WORK", 1056)
    assert len(transitive_tuples(2, 4)) == factorial(3) * b_via_flags(2, 4)
    assert tori.double_count_check(2, 4).match
    monkeypatch.setattr(permtuples, "DEFAULT_MAX_WORK", 1055)
    for call in (transitive_tuples, tori.double_count_check):
        with pytest.raises(BudgetError, match="the 42 transitive 2-tuples take the work to 1056"):
            call(2, 4)
    monkeypatch.setattr(permtuples, "DEFAULT_MAX_WORK", 719)
    for call in (transitive_tuples, tori.double_count_check):
        with pytest.raises(BudgetError, match="last level's tuples take the work to 720"):
            call(2, 4)
    # enumerate_A(2, 4) does 268
    monkeypatch.setattr(permtuples, "DEFAULT_MAX_WORK", 268)
    assert b_from_bruteforce(2, 4) == b_via_flags(2, 4)
    monkeypatch.setattr(permtuples, "DEFAULT_MAX_WORK", 267)
    with pytest.raises(BudgetError, match="take the work to 268, past max_work = 267"):
        b_from_bruteforce(2, 4)


def _tampered_centralizer(change):
    build = permtuples._rotation_centralizer

    def builder(t):
        s, C = build(t)
        return s, change(C)

    return builder


def test_every_chunk_is_checked_against_the_definition():
    # each C(s), the chunk of rows the recurrence starts from, is checked row
    # by row against z∘s = s∘z and for as many distinct rows as the rule counts
    for change, message in [
        (lambda C: C[:-1], "distinct rows"),  # a row missing
        (lambda C: np.vstack([C[:-1], C[:1]]), "distinct rows"),  # a row twice
        # the 4-cycle (0 1 2 3) in place of a row of C((2 3)), the first tried
        (lambda C: np.vstack([C[:-1], [[1, 2, 3, 0]]]), "does not commute"),
    ]:
        with mock.patch.object(permtuples, "_rotation_centralizer", _tampered_centralizer(change)):
            for call in (enumerate_A, transitive_tuples):
                with pytest.raises(VerificationFailure, match=message):
                    call(2, 4)


def test_class_equation_of_the_top_is_asserted(monkeypatch):
    # a cycle type left out leaves the classes of S_4 short of 4!
    types = permtuples._cycle_types
    monkeypatch.setattr(permtuples, "_cycle_types",
                        lambda n, least=1: (t for t in types(n, least) if t != (2, 2)))
    with pytest.raises(ArithmeticError, match="class equation of S_4 sums to 21"):
        enumerate_A(2, 4)


def test_class_sweep_checks_size_times_centralizer():
    # one more row of H seen to commute with x breaks |[x]| |C_H(x)| = |H|;
    # C((0 1)(2 3)) in S_4, of order 8, is the first group not abelian
    conjugates = permtuples._conjugates

    def one_more_fixed(H, x):
        out = conjugates(H, x)
        out[np.flatnonzero((out != x).any(axis=1))[:1]] = x
        return out

    with mock.patch.object(permtuples, "_conjugates", one_more_fixed):
        with pytest.raises(ArithmeticError, match="of 2 with a centralizer of 5 in a group of 8"):
            enumerate_A(3, 4)
        with pytest.raises(ArithmeticError, match="in a group of 8"):
            transitive_tuples(2, 4)


def test_chain_weight_is_checked(monkeypatch):
    # the top's last class, the n-cycles, weighted twice: the chains through
    # it no longer weigh (n-1)!
    class_graph = permtuples._class_graph

    def doubled(*args):
        nodes, starts, edges = class_graph(*args)
        child, size, x = edges[starts[1] - 1]
        edges[starts[1] - 1] = child, 2 * size, x
        return nodes, starts, edges

    monkeypatch.setattr(permtuples, "_class_graph", doubled)
    with pytest.raises(ArithmeticError, match="a transitive chain of weight 12, not"):
        transitive_tuples(2, 4)


def test_repeated_relabelling_is_refused(monkeypatch):
    first = permtuples._fixing_first
    monkeypatch.setattr(permtuples, "_fixing_first",
                        lambda n: np.vstack([first(n)[:-1], first(n)[:1]]))
    with pytest.raises(VerificationFailure,
                       match="made 35 distinct transitive 2-tuples of n = 4 points, not the 42"):
        transitive_tuples(2, 4)


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

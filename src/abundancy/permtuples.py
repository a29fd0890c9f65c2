"""Direct enumeration of commuting permutation tuples.

A(ell, n, k) counts ordered ell-tuples of pairwise-commuting permutations
of [n] whose joint action has exactly k orbits. This module enumerates
them directly, with no shared code with the divisor-sum routes, so the two
can cross-check each other:

    B(ell, n) == A(ell, n, 1) / (n-1)!

and, in the other direction, every A(ell, n, k) is a Bell-type polynomial
in the B values (see bell_transform).

For each cycle type, the centralizer of its block rotation s is taken
from the list of all permutations by the definition, z(s(i)) = s(z(i)).
The class of s is found by conjugating it by every permutation w at once;
a p = w s w^-1 has the centralizer {w z w^-1}, carried over in one gather.
Tuples are then grown one member at a time inside the common centralizer
of the prefix, and every tuple is checked against the definition. The
tuples are gathered one run of prefixes at a time, and enumerate_A and
transitive_tuples count each run's orbits before the next, so memory
holds one int64 per tuple, not the tuples. max_work refuses ell, the n!·n
entries of the permutation list, the candidate tests of all levels
together, and an output of more than max_work entries (tuples x ell x n),
each before it is allocated; callers other than enumerate_A use
DEFAULT_MAX_WORK.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Iterator, Sequence

import numpy as np

from ._kernels import orbit_counts
from .errors import DEFAULT_MAX_WORK, BudgetError, VerificationFailure

# candidate tests per run of _keep_commuting, and output entries
# (tuples x ell x n) per chunk that _commuting_chunks yields
SEARCH_CHUNK = 1 << 18


@dataclass(frozen=True)
class PermTuple:
    """Tuple of permutations of {1..n}, images 1-based.

    perms[r][i-1] is the image of i under the r-th permutation. Intended
    to hold pairwise-commuting tuples, but construction only enforces
    permutation-ness, so that validators can report a non-commuting
    tuple instead of being unable to see one.
    """

    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.perms:
            raise ValueError("empty tuple")
        n = len(self.perms[0])
        ref = list(range(1, n + 1))
        for p in self.perms:
            if sorted(p) != ref:
                raise ValueError(f"not a permutation of 1..{n}: {p}")

    def commutes(self) -> bool:
        n = self.n
        return all(
            all(a[b[i] - 1] == b[a[i] - 1] for i in range(n))
            for a, b in itertools.combinations(self.perms, 2)
        )

    @property
    def n(self) -> int:
        return len(self.perms[0])

    @property
    def ell(self) -> int:
        return len(self.perms)

    def orbit_count(self) -> int:
        """Number of orbits of the subgroup generated by the tuple."""
        arr = np.array(self.perms, dtype=np.int64) - 1
        return int(orbit_counts(arr[None, :, :])[0])

    def is_transitive(self) -> bool:
        return self.orbit_count() == 1

    def conjugate(self, sigma: Sequence[int]) -> "PermTuple":
        """Relabel points by sigma (1-based): each p becomes sigma p sigma^-1."""
        n = self.n
        if sorted(sigma) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {sigma}")
        out = []
        for p in self.perms:
            q = [0] * n
            for i in range(n):
                q[sigma[i] - 1] = sigma[p[i] - 1]
            out.append(tuple(q))
        return PermTuple(perms=tuple(out))


@dataclass(frozen=True)
class ATable:
    """Counts A(ell, n, k) for k = 1..n; zero outside that range."""

    ell: int
    n: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.n:
            raise ValueError("need one count per k = 1..n")

    def __getitem__(self, k: int) -> int:
        if k < 0:
            raise ValueError(f"orbit count cannot be negative: {k}")
        if 1 <= k <= self.n:
            return self.counts[k - 1]
        return 0

    def total(self) -> int:
        """Number of commuting ell-tuples, all orbit counts combined."""
        return sum(self.counts)


def _cycle_types(n: int, least: int = 1) -> Iterator[tuple[int, ...]]:
    """The partitions of n into parts of at least `least`, parts ascending."""
    if n == 0:
        yield ()
    for L in range(least, n + 1):
        yield from ((L,) + rest for rest in _cycle_types(n - L, L))


def _centralizers(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The centralizer of every row of P, as sorted ranks (row indices of P).

    P holds all permutations of n points in lexicographic order. Returns
    (off, flat) with C(P[j]) = flat[off[j]:off[j+1]]. Each cycle type has a
    block rotation s, with its cycles shortest first. Its class is
    {w s w^-1 : w in P}, found by conjugating s by every row at once and
    ranking the results by lookup in P. C(s) is read off P by the
    definition, z(s(j)) = s(z(j)) on every row. A row p = w s w^-1 has
    C(p) = {w z w^-1 : z in C(s)}, the same set for every such w, carried
    to every p of the class in one gather and ranked the same way.
    """
    N, n = P.shape
    # A row's base-n code orders rows as P does, so P's codes ascend. The
    # codes are below n^n, which fits int64 for n <= 15; no P with 15! rows
    # fits in memory.
    digits = n ** np.arange(n - 1, -1, -1)
    codes = P @ digits
    inv = np.argsort(P, axis=1)  # row w^-1 of each row w
    kind = np.empty(N, dtype=np.int64)  # the class of each row
    w_of = np.empty(N, dtype=np.int64)  # a conjugator of s to each row
    zs = []
    for c, t in enumerate(_cycle_types(n)):
        # the block at b of length L steps b + k to b + (k + 1) % L
        starts = np.cumsum((0,) + t[:-1])
        s = np.concatenate([b + (np.arange(L) + 1) % L for b, L in zip(starts, t)])
        # w s w^-1 for every row w: it maps w[j] to w[s[j]]
        ranks = np.searchsorted(codes, np.take_along_axis(P, s[inv], axis=1) @ digits)
        kind[ranks] = c
        w_of[ranks] = np.arange(N)
        zs.append(P[(P[:, s] == s[P]).all(axis=1)])
    off = np.concatenate([[0], np.cumsum(np.array([len(Z) for Z in zs])[kind])])
    flat = np.empty(off[-1], dtype=np.int64)
    for c, Z in enumerate(zs):
        members = np.flatnonzero(kind == c)
        w = w_of[members]
        # Q[a, b] = w z w^-1 for the a-th member's w and the b-th z in C(s)
        Q = np.take_along_axis(P[w][:, None], Z[:, inv[w]].transpose(1, 0, 2), axis=2)
        ranks = np.searchsorted(codes, Q @ digits)
        ranks.sort(axis=1)
        flat[off[members][:, None] + np.arange(len(Z))] = ranks
    return off, flat


def _check_commute(tuples: np.ndarray) -> None:
    """Raise VerificationFailure unless every tuple's members pairwise commute."""
    for a in range(tuples.shape[1] - 1):
        p = tuples[:, a : a + 1]
        rest = tuples[:, a + 1 :]
        if not np.array_equal(
            np.take_along_axis(p, rest, axis=2), np.take_along_axis(rest, p, axis=2)
        ):
            raise VerificationFailure(
                f"a built tuple has a non-commuting pair at member {a}"
            )


def _refuse_output(k: int, width: int, ell: int, n: int, max_work: int) -> None:
    # no level has fewer rows than the one before, so the tuples returned
    # hold at least k * ell * n entries
    if k * ell * n > max_work:
        raise BudgetError(
            f"{k} commuting {width}-tuples already, so the output "
            f"exceeds max_work = {max_work} entries for ell={ell}, n={n}"
        )


def _keep_commuting(
    pairs: np.ndarray, N: int, q: np.ndarray, lo: np.ndarray, m: np.ndarray, flat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row i's candidates flat[lo[i] : lo[i] + m[i]] that commute with q[i].

    pairs holds every commuting pair (q, x) as q*N + x, ascending. Returns
    the kept candidates as (off, kept), row i's at kept[off[i]:off[i+1]].
    Runs of at most SEARCH_CHUNK tests (one row at least) bound the temporaries.
    """
    off = np.zeros(len(m) + 1, dtype=np.int64)
    kept = []
    for a, b in _runs(m, SEARCH_CHUNK):
        ends = np.cumsum(m[a:b])
        pos = np.arange(ends[-1]) + np.repeat(lo[a:b] - (ends - m[a:b]), m[a:b])
        x = flat[pos]
        test = np.repeat(q[a:b], m[a:b]) * N + x
        hit = pairs.take(np.searchsorted(pairs, test), mode="clip") == test
        off[a + 1 : b + 1] = off[a] + np.concatenate([[0], np.cumsum(hit)])[ends]
        kept.append(x[hit])
    return off, np.concatenate(kept)


def _commuting_chunks(ell: int, n: int, max_work: int) -> Iterator[np.ndarray]:
    """All ordered ell-tuples of pairwise commuting permutations, in chunks.

    Each chunk is an array of shape (T, ell, n), entries 0-based; joined,
    the chunks list the tuples in lexicographic order of the members'
    ranks among all permutations of n points. Centralizers are tested
    against one permutation per cycle type and carried to the rest (see
    _centralizers), not found by testing every pair. The search runs level
    by level: every prefix keeps the sorted ranks of the permutations
    commuting with all its members, and extending it by one of them tests
    that set against the new member's centralizer (_keep_commuting). Every
    width from 2 to ell-1 is handled the same way: append each candidate
    to its prefix, keep the new rows' candidates, and check the count of
    tuples one member longer. The (ell-1)-tuples and their kept candidates then hold
    every ell-tuple, one int64 per tuple; the tuples are gathered from them
    one run of prefixes at a time, at most SEARCH_CHUNK entries each (one
    prefix at least), and every chunk is checked against the definition
    before it is yielded.

    Three counts must each stay within max_work, and each is checked
    before what it counts is allocated: the n!·n entries of the list of
    all permutations; the candidate tests of all levels together, known
    from the candidate counts; and the output entries, tuples x ell x n,
    checked at each width as soon as the level below has kept its
    candidates.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if ell > max_work:
        raise BudgetError(f"ell = {ell} exceeds max_work = {max_work}")
    # n!·n, formed only up to the first partial product past max_work
    entries = n
    for i in range(2, n + 1):
        if entries > max_work:
            break
        entries *= i
    if entries > max_work:
        raise BudgetError(
            f"the n! permutations of n = {n} points hold more than "
            f"max_work = {max_work} entries"
        )
    if ell > 1:
        # _centralizers lists every commuting pair, n! for each cycle type
        # (|class| |C(s)| = n!), so their count is known before it runs
        _refuse_output(entries // n * sum(1 for _ in _cycle_types(n)), 2, ell, n, max_work)
    P = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    N = len(P)
    if ell == 1:
        yield P[:, None]
        return
    off, flat = _centralizers(P)
    # every commuting pair (q, x) as q*N + x, ascending
    pairs = np.repeat(np.arange(N), np.diff(off)) * N + flat
    # row i of rows draws its next member from flat[off[i]:off[i+1]]
    rows = np.arange(N)[:, None]
    tests = 0
    for width in range(2, ell):
        sizes = np.diff(off)
        # each new row tests its prefix's candidates; exact in int64, as
        # the sum is at most N * len(flat) and both are array lengths
        tests += int(np.dot(sizes, sizes))
        if tests > max_work:
            raise BudgetError(
                f"the search needs {tests} candidate tests to reach the "
                f"{width + 1}-tuples, more than max_work = {max_work} for ell={ell}, n={n}"
            )
        parent = np.repeat(np.arange(len(rows)), sizes)
        rows = np.column_stack([rows[parent], flat])
        off, flat = _keep_commuting(pairs, N, rows[:, -1], off[:-1][parent], sizes[parent], flat)
        _refuse_output(len(flat), width + 1, ell, n, max_work)
    for a, b in _runs(np.diff(off), SEARCH_CHUNK // (ell * n)):
        parent = np.repeat(np.arange(a, b), np.diff(off[a : b + 1]))
        tuples = P[np.column_stack([rows[parent], flat[off[a] : off[b]]])]
        _check_commute(tuples)
        yield tuples


def _runs(m: np.ndarray, step: int) -> Iterator[tuple[int, int]]:
    """Consecutive runs [a, b) of rows with at most step candidates in all.

    Row i has m[i] candidates; a row with more than step is a run of its own.
    """
    ends = np.cumsum(m)
    a = 0
    while a < len(m):
        b = max(a + 1, int(np.searchsorted(ends, ends[a] - m[a] + step, side="right")))
        yield a, b
        a = b


def enumerate_A(ell: int, n: int, *, max_work: int = DEFAULT_MAX_WORK) -> ATable:
    """A(ell, n, k) for all k by direct enumeration and orbit counting.

    The orbits are counted chunk by chunk into one histogram, so the tuples
    are never all held at once.
    """
    hist = np.zeros(n + 1, dtype=np.int64)
    for chunk in _commuting_chunks(ell, n, max_work):
        hist += np.bincount(orbit_counts(chunk), minlength=n + 1)
    return ATable(ell=ell, n=n, counts=tuple(int(c) for c in hist[1 : n + 1]))


def b_from_bruteforce(ell: int, n: int) -> int:
    """B(ell, n) recovered as A(ell, n, 1) / (n-1)!, within DEFAULT_MAX_WORK."""
    a1 = enumerate_A(ell, n, max_work=DEFAULT_MAX_WORK)[1]
    q, r = divmod(a1, factorial(n - 1))
    if r != 0:
        raise ArithmeticError(
            f"A({ell},{n},1) = {a1} is not divisible by (n-1)! = {factorial(n - 1)}"
        )
    return q


def transitive_tuples(ell: int, n: int) -> set[tuple[tuple[int, ...], ...]]:
    """The transitive commuting tuples, 1-based, as a set, within DEFAULT_MAX_WORK."""
    found = set()
    for chunk in _commuting_chunks(ell, n, DEFAULT_MAX_WORK):
        trans = chunk[orbit_counts(chunk) == 1] + 1
        found.update(tuple(map(tuple, tup)) for tup in trans.tolist())
    return found


def bell_transform(ell: int, n: int, b_row: Sequence[int]) -> ATable:
    """A(ell, n, k) for all k from the values B(ell, 1..n) alone.

    Splitting [n] into the k orbits of a tuple gives

        A(ell, n, k) = (n!/k!) * sum over ordered compositions
                       (v_1, ..., v_k) of n  of  prod_r A(ell, v_r, 1) / v_r!

    and A(ell, v, 1)/v! = B(ell, v)/v, so the composition weight is
    B(v)/v. Evaluated in integers: s! times the sum over compositions of s
    into k parts is D_k(s), with D_0 = (1, 0, ..., 0) and

        D_k(s) = sum_{v=1}^{s-k+1} C(s, v) (v-1)! B(v) D_{k-1}(s-v),

    so A(ell, n, k) = D_k(n) / k!, asserted to divide exactly. The first n
    values of b_row must be integers (NumPy integers included, bool not).
    The recurrence takes n(n+1)(n+2)/6 multiply-adds; past DEFAULT_MAX_WORK
    it raises BudgetError before any of them.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    work = n * (n + 1) * (n + 2) // 6
    if work > DEFAULT_MAX_WORK:
        raise BudgetError(
            f"bell_transform at ell={ell}, n={n} takes {work} multiply-adds, "
            f"more than DEFAULT_MAX_WORK = {DEFAULT_MAX_WORK}"
        )
    if len(b_row) < n:
        raise ValueError(f"need B(ell, v) for v = 1..{n}, got {len(b_row)} values")
    fb = []  # (v-1)! B(v)
    for v in range(1, n + 1):
        value = b_row[v - 1]
        try:
            if isinstance(value, bool):
                raise TypeError
            fb.append(factorial(v - 1) * operator.index(value))
        except TypeError:
            raise ValueError(f"B(ell, {v}) must be an integer, got {value!r}") from None
    weights = [[comb(s, v) * fb[v - 1] for v in range(1, s + 1)] for s in range(n + 1)]
    D = [1] + [0] * n
    kfact = 1
    counts = []
    for k in range(1, n + 1):
        kfact *= k
        D = [0] * k + [
            sum(map(operator.mul, weights[s][: s - k + 1], reversed(D[k - 1 : s])))
            for s in range(k, n + 1)
        ]
        count, rest = divmod(D[n], kfact)
        if rest:
            raise ArithmeticError(f"non-integral count at k={k}: {Fraction(D[n], kfact)}")
        counts.append(count)
    return ATable(ell=ell, n=n, counts=tuple(counts))

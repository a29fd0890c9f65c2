"""Direct enumeration of commuting permutation tuples.

A(ell, n, k) counts ordered ell-tuples of pairwise-commuting permutations
of [n] whose joint action has exactly k orbits. This module enumerates
them directly, with no shared code with the divisor-sum routes, so the two
can cross-check each other:

    B(ell, n) == A(ell, n, 1) / (n-1)!

and, in the other direction, every A(ell, n, k) is a Bell-type polynomial
in the B values (see bell_transform).

Every commuting tuple not headed by the identity is conjugate to one
headed by the block rotation s of its first member's cycle type, so each
type is searched once, inside C(s), and weighted by its class size
n!/|C(s)| (the decomposition of Bryan & Fulman, Ann. Comb. 1998). C(s) is
read off the list of all permutations by the definition, z∘s = s∘z.
Tuples grow one member at a time inside the common centralizer of the
prefix, and every tuple is checked against the definition before its
orbits are counted, one run of tuples at a time. max_work refuses ell,
the n!·n entries of the permutation list, the candidate tests and the
tuple entries built (tuples x width x n), each before it is allocated;
callers other than enumerate_A use DEFAULT_MAX_WORK.
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

# entries of C(s) per run of _keep_commuting's tests, and tuple entries
# (tuples x width x n) per run that _search yields
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


def _permutations(ell: int, n: int, max_work: int) -> np.ndarray:
    """The n! permutations of n points as rows, in lexicographic order.

    ell and the list's n!·n entries are each refused past max_work first.
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
    # one byte an entry: no list of more than 127 points fits in memory
    images = itertools.chain.from_iterable(itertools.permutations(range(n)))
    return np.fromiter(images, dtype=np.int8, count=entries).reshape(-1, n)


def _centralizer(P: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The rows z of P with z(s(j)) = s(z(j)) for every j, one j at a time."""
    rows = np.arange(len(P))
    for j, sj in enumerate(s):
        rows = rows[P[rows, sj] == s[P[rows, j]]]
    return P[rows]


def _check_commute(tuples: np.ndarray) -> None:
    """Raise VerificationFailure unless each tuple's last member commutes with the rest.

    That is width - 1 pairs a tuple, not all of them: _search checks and
    yields each tuple's prefix one level down, before the tuple is built.
    """
    p, rest = tuples[:, -1:], tuples[:, :-1]
    if not np.array_equal(
        np.take_along_axis(p, rest, axis=2), np.take_along_axis(rest, p, axis=2)
    ):
        raise VerificationFailure("a built tuple has a non-commuting pair at its last member")


def _refuse(count: int, what: str, ell: int, n: int, max_work: int) -> None:
    if count > max_work:
        raise BudgetError(
            f"the search needs {count} {what}, more than max_work = {max_work} "
            f"for ell={ell}, n={n}"
        )


def _keep_commuting(
    C: np.ndarray, off: np.ndarray, flat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The next level: prefix i's candidate flat[j] extends it to new row j.

    New row j keeps the candidates of prefix i that commute with flat[j],
    each found by composing the two rows of C both ways. Returns (off,
    kept), new row j's at kept[off[j]:off[j+1]]. Runs of at most
    SEARCH_CHUNK entries of C (one row at least) bound the temporaries.
    """
    sizes = np.diff(off)
    lo, m = np.repeat(off[:-1], sizes), np.repeat(sizes, sizes)
    new_off = np.zeros(len(flat) + 1, dtype=np.int64)
    kept = []
    for a, b in _runs(m, SEARCH_CHUNK // C.shape[1]):
        ends = np.cumsum(m[a:b])
        pos = np.arange(ends[-1]) + np.repeat(lo[a:b] - (ends - m[a:b]), m[a:b])
        x = flat[pos]
        p, z = C[np.repeat(flat[a:b], m[a:b])], C[x]
        hit = (np.take_along_axis(p, z, axis=1) == np.take_along_axis(z, p, axis=1)).all(axis=1)
        new_off[a + 1 : b + 1] = new_off[a] + np.concatenate([[0], np.cumsum(hit)])[ends]
        kept.append(x[hit])
    return new_off, np.concatenate(kept)


def _search(ell: int, P: np.ndarray, max_work: int) -> Iterator[tuple[int, np.ndarray]]:
    """Runs of tuples (s, x_2, ..., x_w), w <= ell, with the size of the class of s.

    s runs over one block rotation per cycle type, cycles shortest first;
    the identity heads only the 1-tuple (id) (see enumerate_A). A run has
    shape (T, w, n), entries 0-based. Inside C(s) every prefix keeps the
    members of C(s) that commute with all of its own (_keep_commuting), one
    int64 per tuple. The candidate tests and the tuple entries (tuples x
    width x n), each summed over every s and width, are checked against
    max_work before any tuple is built. The tuples are then gathered at
    most SEARCH_CHUNK entries a run (one prefix at least), and every run is
    checked against the definition before it is yielded: its last member
    against the rest (_check_commute). The prefixes of width w are the
    tuples of width w - 1, all checked and yielded before, so by induction
    every pair of every yielded tuple commutes.
    """
    N, n = P.shape
    built = tests = 0
    plans = []
    for t in _cycle_types(n):
        # the block at b of length L steps b + k to b + (k + 1) % L
        starts = np.cumsum((0,) + t[:-1])
        s = np.concatenate([b + (np.arange(L) + 1) % L for b, L in zip(starts, t)])
        C = _centralizer(P, s)
        size, rest = divmod(N, len(C))
        if rest:
            raise ArithmeticError(f"|C(s)| = {len(C)} does not divide n! = {N} at {t}")
        # prefix i of a level draws its last member from flat[off[i]:off[i+1]];
        # the empty prefix draws from all of C(s)
        off, flat = np.array([0, len(C)]), np.arange(len(C))
        levels = []
        for width in range(2, ell + 1 if t[-1] > 1 else 2):
            built += len(flat) * width * n
            _refuse(built, f"tuple entries by the {width}-tuples", ell, n, max_work)
            levels.append((off, flat))
            if width == ell:
                break
            # each new row tests its prefix's candidates
            sizes = np.diff(off)
            tests += int(np.dot(sizes, sizes))
            _refuse(tests, f"candidate tests to reach the {width + 1}-tuples", ell, n, max_work)
            off, flat = _keep_commuting(C, off, flat)
        plans.append((s, C, size, levels))
    for s, C, size, levels in plans:
        yield size, s[None, None]  # a view of s: nothing is built
        rows = np.empty((1, 0), dtype=np.int64)  # the prefixes, as rows of C
        for width, (off, flat) in enumerate(levels, 2):
            for a, b in _runs(np.diff(off), SEARCH_CHUNK // (width * n)):
                parent = np.repeat(np.arange(a, b), np.diff(off[a : b + 1]))
                x = C[np.column_stack([rows[parent], flat[off[a] : off[b]]])]
                tuples = np.concatenate([np.broadcast_to(s, (len(x), 1, n)), x], axis=1)
                _check_commute(tuples)
                yield size, tuples
            if width <= len(levels):
                # the next level's prefixes: this level's tuples, in order
                rows = np.column_stack([np.repeat(rows, np.diff(off), axis=0), flat])


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

    Conjugation keeps orbit counts, and a tuple headed by the identity has
    the orbits of its tail, so with A(0, n, k) = [k = n]

        A(ell, n, k) = A(ell-1, n, k) + sum over block rotations s != id of
            (n!/|C(s)|) #{commuting (x_2..x_ell) in C(s)^(ell-1) : the
                          tuple (s, x_2..x_ell) has k orbits}.

    _search runs the recursion as its loop over widths 1..ell, and the
    orbits are counted run by run into one histogram.
    """
    hist = np.zeros(n + 1, dtype=np.int64)
    for size, run in _search(ell, _permutations(ell, n, max_work), max_work):
        hist += size * np.bincount(orbit_counts(run), minlength=n + 1)
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
    """The transitive commuting tuples, 1-based, as a set, within DEFAULT_MAX_WORK.

    Each transitive tuple (s, x_2..x_w) of _search, after ell - w
    identities, is relabelled once by each of the n!/|C(s)| bijections w
    that first give a member w s w^-1 of the class of s, every member x
    becoming w x w^-1, in runs of at most SEARCH_CHUNK entries; so each
    tuple is made once. The output, A(ell, n, 1)·ell·n entries, is refused
    past DEFAULT_MAX_WORK before any tuple is relabelled.
    """
    P = _permutations(ell, n, DEFAULT_MAX_WORK)
    found, count = {}, 0  # the bytes of s -> (s, class size, transitive tuples)
    for size, run in _search(ell, P, DEFAULT_MAX_WORK):
        trans = run[orbit_counts(run) == 1]
        if len(trans):
            count += size * len(trans)
            ident = np.broadcast_to(np.arange(n), (len(trans), ell - run.shape[1], n))
            s = run[0, 0]
            found.setdefault(s.tobytes(), (s, size, []))[2].append(
                np.concatenate([ident, trans], axis=1))
    if count * ell * n > DEFAULT_MAX_WORK:
        raise BudgetError(
            f"the {count} transitive {ell}-tuples of n = {n} points hold more than "
            f"DEFAULT_MAX_WORK = {DEFAULT_MAX_WORK} entries"
        )
    inv = np.argsort(P, axis=1)
    tuples = set()
    step = max(1, SEARCH_CHUNK // (ell * n))
    # base-n row keys, ordered as the rows are; P's n! n entries were
    # allocated, so n <= 15 and every key is below n^n < 2^63
    digits = n ** np.arange(n - 1, -1, -1)
    for s, size, heads in found.values():
        # w s w^-1 maps w[i] to w[s[i]], so its image of j is w[s[w^-1[j]]]
        _, first = np.unique(np.take_along_axis(P, s[inv], axis=1) @ digits, return_index=True)
        assert len(first) == size
        heads = np.concatenate(heads)
        total = len(heads) * size
        for a in range(0, total, step):
            r, w = np.divmod(np.arange(a, min(a + step, total)), size)
            w = first[w]
            x = np.take_along_axis(heads[r], inv[w][:, None, :], axis=2).reshape(len(w), -1)
            relabelled = np.take_along_axis(P[w], x, axis=1).reshape(-1, ell, n) + 1
            tuples.update(tuple(map(tuple, tup)) for tup in relabelled.tolist())
    if len(tuples) != count:
        raise VerificationFailure(
            f"relabelling made {len(tuples)} distinct transitive {ell}-tuples of "
            f"n = {n} points, not the {count} counted"
        )
    return tuples


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

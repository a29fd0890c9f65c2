"""Direct enumeration of commuting permutation tuples.

A(ell, n, k) counts ordered ell-tuples of pairwise-commuting permutations
of [n] whose joint action has exactly k orbits. This module enumerates
them directly, with no shared code with the divisor-sum routes, so the two
can cross-check each other:

    B(ell, n) == A(ell, n, 1) / (n-1)!

and, in the other direction, every A(ell, n, k) is a Bell-type polynomial
in the B values (see bell_transform).

The count is the class equation at every level (the decomposition of
Bryan & Fulman, Ann. Comb. 1998): H, the common centralizer of a prefix,
permutes the prefix's orbits, so

    count(H, orbits, d) = sum over H-classes [x] of
                          |[x]| count(C_H(x), orbits v cycles(x), d - 1).

The classes of S_n are the cycle types, and C(s) of each block rotation s
is built by the leader rule, with no list of S_n. Each (H, orbits) node is
swept once, and ell enters only as passes of the recurrence over the graph
of nodes. max_work caps the work of a call, each part counted before it is
done; callers other than enumerate_A use DEFAULT_MAX_WORK.

A single tuple is a PermTuple: one read-only (ell, n) int64 array of
1-based images, checked as permutations when it is made. Its methods work
on that array by gathers and scatters; .perms gives the nested tuples.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod
from typing import Iterator, Sequence

import numpy as np

from ._kernels import orbit_counts
from .errors import DEFAULT_MAX_WORK, BudgetError, VerificationFailure


def _permutation_rows(perms) -> np.ndarray:
    """perms as a read-only (ell, n) int64 array of permutations of 1..n.

    perms is an integer array or nested sequences of integers; bool and
    non-integral entries are refused, as are empty and ragged input. The
    result is always a copy, checked in one pass: each row, sorted, is 1..n.
    """
    try:
        a = np.array(perms)
    except ValueError:
        raise ValueError(f"ragged tuple: {perms!r}") from None
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"need a non-empty tuple of permutations, got {perms!r}")
    # NumPy reads True as 1 among integers, so a sequence is scanned for bools
    if a.dtype.kind not in "iu" or (not isinstance(perms, np.ndarray) and any(
            isinstance(x, (bool, np.bool_)) for p in perms for x in p)):
        raise ValueError(f"permutation images must be integers, got {perms!r}")
    ell, n = a.shape
    a = a.astype(np.int64)
    rows = a.copy()
    rows.sort(axis=1)
    if rows.tobytes() != np.arange(1, n + 1, dtype=np.int64).tobytes() * ell:
        ref = list(range(1, n + 1))
        bad = next(p for p in a.tolist() if sorted(p) != ref)
        raise ValueError(f"not a permutation of 1..{n}: {tuple(bad)}")
    a.flags.writeable = False
    return a


class PermTuple:
    """Tuple of permutations of {1..n}, held as one read-only (ell, n) int64
    array of 1-based images: images[r, i-1] is the image of i under the r-th
    permutation, and perms gives the same value as nested tuples.

    Intended to hold pairwise-commuting tuples, but construction only
    enforces permutation-ness, so that validators can report a
    non-commuting tuple instead of being unable to see one. Equality and
    hashing go by value.
    """

    __slots__ = ("images",)

    def __init__(self, perms):
        object.__setattr__(self, "images", _permutation_rows(perms))

    def __setattr__(self, name, value):
        raise AttributeError(f"PermTuple is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if not isinstance(other, PermTuple):
            return NotImplemented
        a, b = self.images, other.images
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    def __hash__(self):
        return hash((self.images.shape, self.images.tobytes()))

    def __repr__(self):
        return f"PermTuple(perms={self.perms!r})"

    @property
    def perms(self) -> tuple[tuple[int, ...], ...]:
        """perms[r][i-1] is the image of i under the r-th permutation."""
        return tuple(map(tuple, self.images.tolist()))

    @property
    def n(self) -> int:
        return self.images.shape[1]

    @property
    def ell(self) -> int:
        return self.images.shape[0]

    def commutes(self) -> bool:
        """Whether every pair commutes, by one gather: PP[a, b] is p_a after p_b."""
        P = self.images - 1
        PP = P.take(P, axis=1)
        # int64 arrays of one shape: equal bytes, equal arrays
        return PP.tobytes() == PP.transpose(1, 0, 2).tobytes()

    def orbit_count(self) -> int:
        """Number of orbits of the subgroup generated by the tuple."""
        return int(orbit_counts(self.images[None] - 1)[0])

    def is_transitive(self) -> bool:
        return self.orbit_count() == 1

    def conjugate(self, sigma: Sequence[int]) -> "PermTuple":
        """Relabel points by sigma (1-based): each p becomes sigma p sigma^-1,
        which sends sigma(i) to sigma(p(i)); one gather and one scatter."""
        if len(sigma) != self.n:
            raise ValueError(f"not a permutation of 1..{self.n}: {sigma}")
        s = _permutation_rows([sigma])[0]
        out = np.empty_like(self.images)
        out[:, s - 1] = s.take(self.images - 1)
        return PermTuple(out)


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
    """The partitions of n into parts >= least, parts ascending, in lexicographic order.

    Each level of the recursion takes all the parts of one length, so it is
    only as deep as the distinct lengths."""
    if n == 0:
        yield ()
    for L in range(least, n + 1):
        for m in range(n // L, 0, -1):
            yield from ((L,) * m + rest for rest in _cycle_types(n - m * L, L + 1))


class _Budget:
    """The running work of one call, refused past max_work before the work is done."""

    def __init__(self, ell: int, n: int, max_work: int):
        self.where, self.cap, self.used = f"ell={ell}, n={n}", max_work, 0

    def spend(self, count: int, what: str) -> None:
        if self.used + count > self.cap:
            raise BudgetError(f"{what} take the work to {self.used + count}, "
                              f"past max_work = {self.cap} at {self.where}")
        self.used += count


def _rotation_centralizer(t: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The block rotation s of cycle type t, and the rows of C(s) by the leader rule.

    The block at b of length L steps b + k to b + (k + 1) % L; b is its
    cycle's leader. z∘s = s∘z gives z(b + k) = s^k(z(b)), so z on a leader
    fixes z on its cycle, and z(b) must lie on a cycle of the same length:
    the m cycles of length L are permuted in m! ways and each turned in L.
    """
    starts = np.cumsum((0,) + t[:-1])
    s = np.concatenate([b + (np.arange(L) + 1) % L for b, L in zip(starts, t)])
    rows, base = np.zeros((1, 0), dtype=np.int8), 0
    for L, m in sorted(Counter(t).items()):
        moves = np.array(list(itertools.permutations(range(m))))[:, None, :, None]
        turns = np.indices((L,) * m).reshape(m, -1).T[None, :, :, None]
        block = (base + L * moves + (turns + np.arange(L)) % L).reshape(-1, m * L)
        rows = np.hstack([np.repeat(rows, len(block), axis=0),
                          np.tile(block.astype(np.int8), (len(rows), 1))])
        base += m * L
    return s.astype(np.int8), rows


def _conjugates(H: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row i is H[i] x H[i]^-1, which sends H[i][j] to H[i][x[j]]."""
    out = np.empty_like(H)
    np.put_along_axis(out, H, H[:, x], axis=1)
    return out


def _join(labels: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The least point of each orbit of the blocks of labels joined with the cycles of x."""
    linked = (labels[:, None] == labels) | (x[:, None] == np.arange(len(x)))
    linked |= linked.T
    for _ in range(len(x).bit_length()):  # paths of up to 2^k steps after k squarings
        linked = linked @ linked
    return linked.argmax(axis=1).astype(np.int8)


def _class_graph(n: int, budget: _Budget, sweep: int):
    """The nodes (H, keys of H, least point of each orbit, depth), breadth first; the
    first edge of each node at depth <= sweep; and the edges (child, class size, x).

    Node 0, the top, is S_n on n singletons. Below it a class is the distinct
    conjugates of x by all of H, and C_H(x) the rows whose conjugate is x.
    """
    nodes, index, starts, edges = [], {}, [0], []
    # base-n row keys, ordered as the rows are; C(s) of a transposition,
    # 2 (n-2)! n entries, was allocated, so n <= 15 and every key is below 2^63
    digits = n ** np.arange(n - 1, -1, -1)

    def node(H, keys, labels, depth):
        key = keys.tobytes() + labels.tobytes()
        if key not in index:
            index[key] = len(nodes)
            nodes.append((H, keys, labels, depth))
        return index[key]

    ident = np.arange(n, dtype=np.int8)
    node(None, digits[:0], ident, 0)
    edges.append((0, 1, ident))  # the identity's class: the top again, one member on
    classes = 1
    for t in itertools.islice(_cycle_types(n), 1, None):
        order = prod(factorial(m) * L**m for L, m in Counter(t).items())
        budget.spend(order * n, f"C(s) of the cycle type with parts {[L for L in t if L > 1]}")
        s, C = _rotation_centralizer(t)
        keys = C @ digits
        if not np.array_equal(C[:, s], s[C]):
            raise VerificationFailure(f"a row of C(s) does not commute with s at {t}")
        distinct = len(np.unique(keys))
        if distinct != order:
            raise VerificationFailure(f"C(s) has {distinct} distinct rows, not {order}, at {t}")
        size, rest = divmod(factorial(n), order)
        if rest:
            raise ArithmeticError(f"|C(s)| = {order} does not divide n! at {t}")
        classes += size
        rank = np.argsort(keys)
        edges.append((node(C[rank], keys[rank], _join(ident, s), 1), size, s))
    if classes != factorial(n):
        raise ArithmeticError(f"the class equation of S_{n} sums to {classes}, not {n}!")
    for H, keys, labels, depth in itertools.islice(nodes, 1, None):  # nodes grows as it is swept
        if depth > sweep:
            break
        starts.append(len(edges))
        left = np.ones(len(H), dtype=bool)  # the rows in no class yet
        while left.any():
            x = H[left.argmax()]
            budget.spend(len(H) * n, "the class sweeps")
            conj = _conjugates(H, x) @ digits
            members, fixed = np.unique(conj), conj == x @ digits
            if len(members) * np.count_nonzero(fixed) != len(H):
                raise ArithmeticError(f"a class of {len(members)} with a centralizer of "
                                      f"{np.count_nonzero(fixed)} in a group of {len(H)}")
            left[np.searchsorted(keys, members)] = False
            child = node(H[fixed], keys[fixed], _join(labels, x), depth + 1)
            edges.append((child, len(members), x))
    return nodes, starts + [len(edges)], edges


def _recurrence(ell: int, n: int, budget: _Budget, sweep_last: bool = False):
    """The histogram of A(ell, n, .), the class graph, and which nodes reach one orbit.

    h_d(v), the histogram of d more members at node v, sums size x h_(d-1)
    over v's classes; h_0 is one at v's orbit count. Pass d runs over the
    nodes at depth <= ell - d. The orbit kernel counts h_1 below the top from
    (orbit permutation, x) for every x of H, in one call. reach[d] marks h_d at one orbit.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # a pass takes n entries an edge; an entry of pass d is at most n!^d, of
    # d n ceil(log2 n) bits at most, counted in 64-bit limbs
    bits = n * (n - 1).bit_length()
    per_edge = n * (ell + bits * ell * (ell + 1) // 128)
    budget.spend(per_edge, "the recurrence's passes over the top's identity class")
    nodes, starts, edges = _class_graph(n, budget, ell - 1 if sweep_last else ell - 2)
    budget.spend((len(edges) - 1) * per_edge, f"the recurrence's passes over {len(edges)} classes")
    depth = np.array([v[3] for v in nodes])
    child, weight = np.array([e[0] for e in edges]), np.array([e[1] for e in edges], dtype=object)
    orbits = np.array([np.count_nonzero(v[2] == np.arange(n)) for v in nodes])
    h = np.zeros((len(nodes), n + 1), dtype=object)
    h[np.arange(len(nodes)), orbits] = 1
    reach = [orbits == 1]
    last = nodes[1 : np.searchsorted(depth, ell - 1, side="right")]
    if last:
        groups = [v[0] for v in last]
        sizes = [len(H) for H in groups]
        budget.spend(sum(sizes) * 2 * n, "the last level's tuples")
        # each point to the next of its orbit, the last to the first: the least
        later = [np.triu(v[2][:, None] == v[2], 1) for v in last]
        cycles = [np.where(a.any(axis=1), a.argmax(axis=1), v[2]) for a, v in zip(later, last)]
        tuples = np.stack([np.repeat(cycles, sizes, axis=0), np.concatenate(groups)], axis=1)
        at = np.repeat(np.arange(len(last)), sizes) * (n + 1) + orbit_counts(tuples)
        h1 = np.bincount(at, minlength=len(last) * (n + 1)).reshape(-1, n + 1)
    # the top alone (n = 1) is its own one class, so every pass would copy h_0
    for d in range(1, ell + 1 if len(nodes) > 1 else 1):
        m = 1 if d == 1 else int(np.searchsorted(depth, ell - d, side="right"))
        new = np.add.reduceat(weight[: starts[m], None] * h[child[: starts[m]]], starts[:m], axis=0)
        if d == 1 and last:
            h[1 : len(last) + 1] = h1
        h[:m] = new
        reach.append((h[: 1 + len(last) if d == 1 else m, 1] != 0).astype(bool))
    return h[0, 1:], (nodes, starts, edges), reach


def enumerate_A(ell: int, n: int, *, max_work: int = DEFAULT_MAX_WORK) -> ATable:
    """A(ell, n, k) for all k, by the class equation at every level (see _recurrence).

    max_work caps the entries of the centralizers, the class sweeps and the
    last level's tuples, each before it is allocated, and the recurrence's
    passes in 64-bit limbs, before the first.
    """
    hist, _, _ = _recurrence(ell, n, _Budget(ell, n, max_work))
    return ATable(ell=ell, n=n, counts=tuple(int(c) for c in hist))


def b_from_bruteforce(ell: int, n: int) -> int:
    """B(ell, n) recovered as A(ell, n, 1) / (n-1)!, within DEFAULT_MAX_WORK."""
    a1 = enumerate_A(ell, n, max_work=DEFAULT_MAX_WORK)[1]
    q, r = divmod(a1, factorial(n - 1))
    if r != 0:
        raise ArithmeticError(
            f"A({ell},{n},1) = {a1} is not divisible by (n-1)! = {factorial(n - 1)}"
        )
    return q


def _fixing_first(n: int) -> np.ndarray:
    """The (n-1)! bijections of n points that fix point 0, as rows."""
    return np.array([(0,) + p for p in itertools.permutations(range(1, n))], dtype=np.int8)


def _chains(starts: list, child: list, reach: list, ell: int) -> list[tuple[int, ...]]:
    """The chains of ell classes from the top that end on one orbit, as tuples of edges:
    with d members to go, a chain takes the classes whose node reaches one orbit in d - 1."""
    if len(reach[0]) == 1:  # the top alone (n = 1): its identity class ell times
        return [(0,) * ell]
    walk = [(0, ())]  # (node, chain)
    for d in range(ell, 0, -1):
        walk = [(child[e], chain + (e,)) for v, chain in walk
                for e in range(starts[v], starts[v + 1]) if reach[d - 1][child[e]]]
    return [chain for _, chain in walk]


def _distinct_rows(tuples: np.ndarray) -> np.ndarray:
    """The distinct tuples of an int8 array (..., ell, n) as read-only rows
    (count, ell, n), in ascending lexicographic order.

    Each tuple's bytes are one void item, which np.unique sorts by memcmp:
    the entries are small and non-negative, so byte order is numeric order."""
    shape = tuples.shape[-2:]
    flat = np.ascontiguousarray(tuples, dtype=np.int8).reshape(-1, shape[0] * shape[1])
    out = np.unique(flat.view(np.dtype((np.void, flat.shape[1]))))
    out = out.view(np.int8).reshape((-1,) + shape)
    out.flags.writeable = False
    return out


def transitive_tuples(ell: int, n: int) -> np.ndarray:
    """The transitive commuting tuples as sorted int8 rows, within DEFAULT_MAX_WORK.

    The recurrence, swept down to its last member, has one chain of class
    representatives per S_n-orbit of tuples. A transitive tuple's centralizer
    is the regular group it generates, so a chain that ends on one orbit
    weighs (n-1)!, the product of its class sizes, and the (n-1)! bijections
    w that fix point 1 meet each coset of that group once: relabelled by
    each, x becoming w x w^-1, the chain gives its whole orbit. Both facts
    are asserted. The output, a read-only (A(ell, n, 1), ell, n) array of
    1-based images, its rows distinct and ascending, is counted first.
    """
    budget = _Budget(ell, n, DEFAULT_MAX_WORK)
    hist, (nodes, starts, edges), reach = _recurrence(ell, n, budget, sweep_last=True)
    count = int(hist[0])
    budget.spend(count * ell * n, f"the {count} transitive {ell}-tuples")
    W = _fixing_first(n)
    chains = np.array(_chains(starts, [e[0] for e in edges], reach, ell))
    weights = np.prod(np.array([e[1] for e in edges], dtype=object)[chains], axis=1)
    wrong = np.flatnonzero(weights != factorial(n - 1))
    if len(wrong):
        raise ArithmeticError(f"a transitive chain of weight {weights[wrong[0]]}, not (n-1)!")
    # w x w^-1 sends j to w[x[w^-1[j]]]; each chain gathers its members' relabellings
    used, at = np.unique(chains, return_inverse=True)
    reps = np.array([edges[e][2] for e in used])
    relabelled = np.take_along_axis(W[None], reps[:, np.argsort(W, axis=1)], axis=2) + 1
    rows = relabelled[at.reshape(chains.shape)[:, None], np.arange(len(W))[:, None]]
    tuples = _distinct_rows(rows)
    # the weights sum to count, so this asserts the relabellings distinct
    if len(tuples) != count:
        raise VerificationFailure(f"relabelling made {len(tuples)} distinct transitive "
                                  f"{ell}-tuples of n = {n} points, not the {count} counted")
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

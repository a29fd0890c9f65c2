"""Brute-force enumeration of commuting permutation tuples.

A(ell, n, k) counts ordered ell-tuples of pairwise-commuting permutations
of [n] whose joint action has exactly k orbits. This module enumerates
them directly, with no shared code with the divisor-sum routes, so the two
can cross-check each other:

    B(ell, n) == A(ell, n, 1) / (n-1)!

and, in the other direction, every A(ell, n, k) is a Bell-type polynomial
in the B values (see bell_transform).

Cost is factorial; enumerate_A refuses work beyond n!^ell <= max_work.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Sequence

import numpy as np

from ._kernels import orbit_counts
from .errors import BudgetError

DEFAULT_MAX_WORK = 26_000_000


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


def _commuting_tuples(ell: int, n: int, max_work: int) -> np.ndarray:
    """All ordered ell-tuples of pairwise commuting permutations.

    Returns an array of shape (T, ell, n), entries 0-based. Search runs
    over prefix centralizers: once the prefix is fixed, only permutations
    commuting with every prefix member remain candidates.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    work = factorial(n) ** ell
    if work > max_work:
        raise BudgetError(
            f"n!^ell = {work} exceeds max_work = {max_work} for ell={ell}, n={n}"
        )
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


def enumerate_A(ell: int, n: int, *, max_work: int = DEFAULT_MAX_WORK) -> ATable:
    """A(ell, n, k) for all k by direct enumeration and orbit counting."""
    tuples = _commuting_tuples(ell, n, max_work)
    ks = orbit_counts(tuples)
    hist = np.bincount(ks, minlength=n + 1)
    return ATable(ell=ell, n=n, counts=tuple(int(c) for c in hist[1 : n + 1]))


def b_from_bruteforce(ell: int, n: int, *, max_work: int = DEFAULT_MAX_WORK) -> int:
    """B(ell, n) recovered as A(ell, n, 1) / (n-1)!."""
    a1 = enumerate_A(ell, n, max_work=max_work)[1]
    q, r = divmod(a1, factorial(n - 1))
    if r != 0:
        raise ArithmeticError(
            f"A({ell},{n},1) = {a1} is not divisible by (n-1)! = {factorial(n - 1)}"
        )
    return q


def transitive_tuples(
    ell: int, n: int, *, max_work: int = DEFAULT_MAX_WORK
) -> set[tuple[tuple[int, ...], ...]]:
    """The transitive commuting tuples themselves, 1-based, as a set."""
    tuples = _commuting_tuples(ell, n, max_work)
    ks = orbit_counts(tuples)
    trans = tuples[ks == 1] + 1
    return {
        tuple(tuple(int(x) for x in perm) for perm in tup) for tup in trans
    }


def bell_transform(ell: int, n: int, b_row: Sequence[int]) -> ATable:
    """A(ell, n, k) for all k from the values B(ell, 1..n) alone.

    Splitting [n] into the k orbits of a tuple gives

        A(ell, n, k) = (n!/k!) * sum over ordered compositions
                       (v_1, ..., v_k) of n  of  prod_r A(ell, v_r, 1) / v_r!

    and A(ell, v, 1)/v! = B(ell, v)/v, so the composition weight is
    B(v)/v. Evaluated by a parts-count DP in exact rationals; every count
    is asserted to come out integral.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(b_row) < n:
        raise ValueError(f"need B(ell, v) for v = 1..{n}, got {len(b_row)} values")
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

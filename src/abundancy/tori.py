"""Twisted discrete tori realizing the transitive commuting tuples.

A torus spec is a dimension vector (f_1, ..., f_ell) together with, for
each direction r >= 2, a twist vector phi in [f_1] x ... x [f_{r-1}].
Vertices are coordinate tuples (i_1, ..., i_ell) with i_r in {1..f_r},
encoded mixed-radix with i_1 fastest. Direction 1 steps cyclically;
direction r steps coordinate r and, on wrapping past f_r, additionally
advances the lower block by the twist: phi_1 - 1 steps of direction 1,
then phi_2 - 1 steps of direction 2, and so on up to direction r - 1.

Each direction r thus defines a permutation pi_r of the vertex set; the
pi_r commute pairwise, act transitively, and generate a group of order
n = f_1 ... f_ell with the basepoint map (c_1..c_ell) -> prod pi_r^{c_r}
applied to vertex (1,..,1) a bijection. Counting specs per n recovers
B(ell, n), and relabeling each torus by the (n-1)! bijections that fix
vertex 1 makes every transitive commuting tuple exactly once:

    A(ell, n, 1) = (n-1)! B(ell, n)

double_count_check verifies that identity row for row against the
brute-force enumeration, both sides as sorted int8 arrays.

A realization holds its tuple as a PermTuple: one read-only (ell, n) int64
array of 1-based images. build_torus hands its array over, and validate
and double_count_check read it; no step goes through nested tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import factorial, prod
from pathlib import Path

import numpy as np

from . import _kernels
from ._files import write_atomic
from .bvalues import b_via_flags
from .core import divisors
from .errors import BUILD_MAX_N, VALIDATE_MAX_N, BudgetError
from .permtuples import PermTuple, _distinct_rows, transitive_tuples


@dataclass(frozen=True)
class TorusSpec:
    """Dimensions (f_1..f_ell) and twists; twists[r-2] is phi for direction r."""

    dims: tuple[int, ...]
    twists: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.dims:
            raise ValueError("dims must be non-empty")
        if any(f < 1 for f in self.dims):
            raise ValueError(f"dimensions must be positive: {self.dims}")
        ell = len(self.dims)
        if len(self.twists) != ell - 1:
            raise ValueError(
                f"need {ell - 1} twist vectors for ell={ell}, got {len(self.twists)}"
            )
        for r in range(2, ell + 1):
            phi = self.twists[r - 2]
            if len(phi) != r - 1:
                raise ValueError(
                    f"twist for direction {r} must have length {r - 1}: {phi}"
                )
            for s, v in enumerate(phi, start=1):
                if not 1 <= v <= self.dims[s - 1]:
                    raise ValueError(
                        f"twist component {v} out of range 1..{self.dims[s - 1]}"
                    )

    @property
    def ell(self) -> int:
        return len(self.dims)

    @property
    def n(self) -> int:
        return prod(self.dims)


@dataclass(frozen=True)
class EdgeRecord:
    """Collapsed undirected edge between vertices u <= v (1-based indices)."""

    u: int
    v: int
    solid: int
    dashed: int

    @property
    def multiplicity(self) -> int:
        return self.solid + self.dashed


@dataclass(frozen=True, eq=False)
class TorusRealization:
    spec: TorusSpec
    perms: PermTuple

    @cached_property
    def coords(self) -> tuple[tuple[int, ...], ...]:
        """coords[u-1] is the coordinate tuple of vertex u, i_1 fastest."""
        n = self.spec.n
        cols = []
        rem = np.arange(n, dtype=np.int64)
        for f in self.spec.dims:
            cols.append(rem % f + 1)
            rem //= f
        return tuple(zip(*(c.tolist() for c in cols)))

    @cached_property
    def edges(self) -> tuple[EdgeRecord, ...]:
        """Collapsed undirected step edges; wrap steps counted as dashed."""
        n = self.spec.n
        counts: dict[tuple[int, int], list[int]] = {}
        block = 1
        for pi, f in zip(self.perms.perms, self.spec.dims):
            for u in range(n):
                v = pi[u] - 1
                key = (min(u, v) + 1, max(u, v) + 1)
                slot = counts.setdefault(key, [0, 0])
                wrapped = (u // block) % f == f - 1
                slot[1 if wrapped else 0] += 1
            block *= f
        return tuple(
            EdgeRecord(u=k[0], v=k[1], solid=c[0], dashed=c[1])
            for k, c in sorted(counts.items())
        )


def build_torus(spec: TorusSpec) -> TorusRealization:
    """The permutations pi_1..pi_ell, each built on the whole vertex set.

    With stride m = f_1...f_{r-1}, pi_r sends u to u + m unless coordinate
    r wraps (u // m % f_r == f_r - 1); a wrapped u goes to u - (f_r - 1) m,
    carried through phi_t - 1 steps of each pi_t with t < r, in order.
    Those pi_t move only the lower block u % m, so every wrapped vertex
    gets the same carry: it is found once, on the m vertices of one lower
    block (pi_t[:m] permutes [0, m), and its power is taken by squaring),
    and written into the wrap slab of each upper block. The (ell, n) array
    goes to PermTuple as it is, which checks it as permutations in one
    pass. More than BUILD_MAX_N vertices raise BudgetError before anything
    is built.
    """
    n = spec.n
    if n > BUILD_MAX_N:
        raise BudgetError(f"build_torus refuses n={n} > {BUILD_MAX_N} vertices")
    u = np.arange(n, dtype=np.int64)
    out = np.empty((spec.ell, n), dtype=np.int64)
    m = 1
    for pi, f, phi in zip(out, spec.dims, ((),) + spec.twists):
        np.add(u, m, out=pi)
        carry = u[:m]
        for pi_t, phi_t in zip(out, phi):
            p, e = pi_t[:m], phi_t - 1
            while e:
                carry = p.take(carry) if e & 1 else carry
                p, e = (p.take(p) if e > 1 else p), e >> 1
        # pi viewed as (upper block, coordinate r, lower block)
        np.add(u[:: f * m, None], carry, out=pi.reshape(-1, f, m)[:, f - 1])
        m *= f
    out += 1
    return TorusRealization(spec=spec, perms=PermTuple(out))


@dataclass(frozen=True)
class TorusChecks:
    commutes: bool
    transitive: bool
    group_order_n: bool
    basepoint_bijective: bool

    def all_true(self) -> bool:
        return (self.commutes and self.transitive
                and self.group_order_n and self.basepoint_bijective)


def validate(real: TorusRealization) -> TorusChecks:
    """The four structural checks; failures are reported, not raised.

    group_order_n materializes all prod_r pi_r^{c_r} with c_r < f_r as an
    n x n matrix G of permutation rows, each direction's powers filled by
    doubling; it holds iff those rows are n distinct permutations and the
    set is closed under every generator, so that they are the whole
    generated group, of order n (inverses are positive powers in a finite
    group). basepoint_bijective asks whether the first column G[:, 0] is a
    bijection. When it is, the rows are distinct and inv[G[i, 0]] = i finds
    the one row of G that starts with a given point, so a row of pi G lies
    in G iff it equals the row that inv names: closure is checked by
    lookup, for all generators at once, over runs of rows of G that hold
    about _kernels.RUN entries of pi G. When the first column is not a
    bijection, closure falls back to comparing the row sets of pi G and G,
    so group_order_n keeps its meaning on any tuple. Checks read the array
    of real.perms, so a tampered tuple is seen; a tuple whose (ell, n) is
    not the spec's raises ValueError before any table is filled. At census
    sizes a call costs NumPy's per-call overhead, not arithmetic, so every
    gather is an ndarray.take, the table is filled by take into its rows,
    and arrays are compared by their bytes. More than VALIDATE_MAX_N
    vertices raise BudgetError.
    """
    P = real.perms.images - 1
    ell, n = real.spec.ell, real.spec.n
    if P.shape != (ell, n):
        raise ValueError(f"a tuple of shape (ell, n) = {P.shape} does not fit "
                         f"a spec of (ell, n) = {(ell, n)}")
    if n > VALIDATE_MAX_N:
        raise BudgetError(f"validate materializes an n x n table; n={n} > {VALIDATE_MAX_N}")
    commutes = real.perms.commutes()
    transitive = bool(_kernels.orbit_counts(P[None])[0] == 1)
    G = np.empty((n, n), dtype=np.int64)
    G[0] = np.arange(n, dtype=np.int64)
    count = 1
    for pi, f in zip(P, real.spec.dims):
        # rows [k count, (k + j) count) are pi^k applied to rows [0, j count)
        k = 1
        while k < f:
            j = min(k, f - k)
            # row (k - 1) count is pi^(k - 1), and row 0 the identity
            pk = pi.take(G[(k - 1) * count]) if k > 1 else pi
            # images lie in [0, n), so clip changes none, and unlike raise it
            # writes out without a buffer
            pk.take(G[: j * count], out=G[k * count : (k + j) * count], mode="clip")
            k += j
        count *= f
    first = G[:, 0]
    inv = first.argsort()  # the inverse of first, when first is a bijection
    # int64 arrays of one shape by construction: equal bytes, equal arrays
    basepoint_bijective = first.take(inv).tobytes() == G[0].tobytes()
    group_order_n = basepoint_bijective
    if basepoint_bijective:
        step = max(1, _kernels.RUN // P.size)  # rows of G per run
        for a in range(0, n, step):
            PG = P.take(G[a : a + step], axis=1)
            if PG.tobytes() != G.take(inv.take(PG[:, :, 0]), axis=0).tobytes():
                group_order_n = False
                break
    else:
        rows = set(map(bytes, G))
        group_order_n = len(rows) == n and all(
            set(map(bytes, pi.take(G))) == rows for pi in P
        )
    return TorusChecks(commutes, transitive, group_order_n, basepoint_bijective)


# ---------------------------------------------------------------------------
# spec enumeration and double counting

def _ordered_factorizations(n: int, ell: int):
    if ell == 1:
        yield (n,)
        return
    for f1 in divisors(n):
        for rest in _ordered_factorizations(n // f1, ell - 1):
            yield (f1,) + rest


def all_specs(ell: int, n: int):
    """Every TorusSpec with ell dimensions multiplying to n."""
    if ell < 1 or n < 1:
        raise ValueError("ell and n must be >= 1")
    for dims in _ordered_factorizations(n, ell):
        per_direction = [
            itertools.product(*(range(1, dims[s] + 1) for s in range(r - 1)))
            for r in range(2, ell + 1)
        ]
        for combo in itertools.product(*per_direction):
            yield TorusSpec(dims=dims, twists=tuple(combo))


def spec_count(ell: int, n: int) -> int:
    """Number of specs with f_1...f_ell = n: sum over dims of prod f_s^{ell-s}.

    Equals B(ell, n); the twist choices per dims are counted arithmetically
    rather than materialized.
    """
    if ell < 1 or n < 1:
        raise ValueError("ell and n must be >= 1")
    return sum(
        prod(f ** (ell - s) for s, f in enumerate(dims[:-1], start=1))
        for dims in _ordered_factorizations(n, ell)
    )


@dataclass(frozen=True)
class DoubleCountResult:
    ell: int
    n: int
    count: int
    expected: int
    match: bool


def _relabel(P: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Row k is P relabelled by S[k] as by PermTuple.conjugate: S[k, P] put at S[k]."""
    out = np.empty((len(S),) + P.shape, dtype=np.int64)
    np.put_along_axis(out, np.broadcast_to(S[:, None], out.shape), S.take(P, axis=1), axis=2)
    return out


def double_count_check(ell: int, n: int) -> DoubleCountResult:
    """Tori-with-relabelings against brute force, as sorted int8 rows.

    Relabels every spec's torus by the (n-1)! bijections fixing vertex 1,
    one per coset of its centralizer (the regular group it generates), so
    each tuple is made once: the A(ell, n, 1) ell n entries that
    transitive_tuples, run first, refuses past permtuples.DEFAULT_MAX_WORK;
    a torus takes all (n-1)! relabellings in one gather and one scatter.
    count is the number of distinct relabelled tuples, as sorted int8 rows;
    match requires them to equal transitive_tuples and to number (n-1)! B(ell, n).
    """
    brute = transitive_tuples(ell, n)
    S = np.array([(0,) + rest for rest in itertools.permutations(range(1, n))], dtype=np.int64)
    rows = [(_relabel(build_torus(spec).perms.images - 1, S) + 1)
            .astype(np.int8) for spec in all_specs(ell, n)]
    seen = _distinct_rows(np.concatenate(rows))
    expected = factorial(n - 1) * b_via_flags(ell, n)
    match = np.array_equal(seen, brute) and len(seen) == expected
    return DoubleCountResult(
        ell=ell, n=n, count=len(seen), expected=expected, match=match
    )


# ---------------------------------------------------------------------------
# export

def export_dot(real: TorusRealization, path: str | Path) -> None:
    """Deterministic DOT rendering: wrap edges dashed, multi-edges collapsed."""
    names = {u + 1: "(" + ",".join(map(str, c)) + ")" for u, c in enumerate(real.coords)}
    lines = ["graph torus {"]
    for u in range(1, len(real.coords) + 1):
        lines.append(f'  "{names[u]}";')
    for e in real.edges:
        attrs = []
        if e.dashed > 0:
            attrs.append("style=dashed")
        if e.multiplicity > 1:
            attrs.append(f"multiplicity={e.multiplicity}")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f'  "{names[e.u]}" -- "{names[e.v]}"{suffix};')
    lines.append("}")
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))

import dataclasses
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abundancy import tori
from abundancy.bvalues import b_via_recursion
from abundancy.errors import BudgetError
from abundancy.permtuples import PermTuple, transitive_tuples
from abundancy.tori import (
    BUILD_MAX_N,
    TorusSpec,
    all_specs,
    build_torus,
    double_count_check,
    export_dot,
    spec_count,
    validate,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        TorusSpec(dims=(), twists=())
    with pytest.raises(ValueError):
        TorusSpec(dims=(4, 0), twists=((1,),))
    with pytest.raises(ValueError):
        TorusSpec(dims=(4, 6), twists=())  # missing twist vector
    with pytest.raises(ValueError):
        TorusSpec(dims=(4, 6), twists=((1, 2),))  # wrong twist length
    with pytest.raises(ValueError):
        TorusSpec(dims=(4, 6), twists=((5,),))  # component out of range
    spec = TorusSpec(dims=(4, 6), twists=((2,),))
    assert spec.ell == 2 and spec.n == 24


def test_single_direction_is_n_cycle():
    real = build_torus(TorusSpec(dims=(5,), twists=()))
    assert real.perms.perms == ((2, 3, 4, 5, 1),)
    assert validate(real).all_true()


def test_degenerate_first_dimension():
    # f=(1, n): direction 1 is the identity, direction 2 the n-cycle
    real = build_torus(TorusSpec(dims=(1, 4), twists=((1,),)))
    p1, p2 = real.perms.perms
    assert p1 == (1, 2, 3, 4)
    assert p2 == (2, 3, 4, 1)
    assert validate(real).all_true()


def test_figure_two_family():
    # 4 x 6 torus; every choice of the single twist component validates
    for phi in (1, 2, 3, 4):
        real = build_torus(TorusSpec(dims=(4, 6), twists=((phi,),)))
        assert real.spec.n == 24
        assert validate(real).all_true()


def test_figure_three_configuration():
    spec = TorusSpec(dims=(4, 6, 2), twists=((4,), (2, 3)))
    real = build_torus(spec)
    assert real.spec.n == 48
    assert validate(real).all_true()


def test_coords_are_mixed_radix():
    real = build_torus(TorusSpec(dims=(2, 3), twists=((1,),)))
    assert real.coords == (
        (1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (2, 3),
    )


def test_tampered_tuple_reported_not_hidden():
    real = build_torus(TorusSpec(dims=(4, 6), twists=((2,),)))
    p1 = list(real.perms.perms[0])
    p1[0], p1[1] = p1[1], p1[0]
    bad = PermTuple(perms=(tuple(p1), real.perms.perms[1]))
    tampered = dataclasses.replace(real, perms=bad)
    checks = validate(tampered)
    assert not checks.commutes
    assert not checks.all_true()


def test_non_adjacent_generators_must_commute():
    real = build_torus(TorusSpec(dims=(2, 2, 2), twists=((1,), (1, 1))))
    p1, p2, _ = real.perms.perms
    p3 = (1, 2, 3, 4, 5, 8, 7, 6)
    assert PermTuple(perms=(p2, p3)).commutes()
    assert not PermTuple(perms=(p1, p3)).commutes()
    checks = validate(dataclasses.replace(real, perms=PermTuple(perms=(p1, p2, p3))))
    assert not checks.commutes


def _ref_step(spec, coord, r):
    """One step of direction r (0-based) on 1-based coordinates, literally:
    step coordinate r; on wrapping past f_r, take phi_t - 1 steps of each
    lower direction t in turn."""
    c = list(coord)
    if c[r] < spec.dims[r]:
        c[r] += 1
        return c
    c[r] = 1
    for t in range(r):
        for _ in range(spec.twists[r - 1][t] - 1):
            c = _ref_step(spec, c, t)
    return c


def _ref_perms(spec):
    strides = [1]
    for f in spec.dims[:-1]:
        strides.append(strides[-1] * f)

    def index(c):
        return 1 + sum((i - 1) * m for i, m in zip(c, strides))

    coords = [[u // m % f + 1 for f, m in zip(spec.dims, strides)]
              for u in range(spec.n)]
    return tuple(tuple(index(_ref_step(spec, c, r)) for c in coords)
                 for r in range(spec.ell))


def test_perms_match_literal_coordinate_steps():
    # pins the perms themselves: a wrong twist step count still validates;
    # the last range is the benchmark's census, ell = 3 and n = 24..28
    count = 0
    for ell, ns in ((1, range(1, 17)), (2, range(1, 17)), (3, range(1, 17)),
                    (4, range(1, 9)), (3, range(24, 29))):
        for n in ns:
            for spec in all_specs(ell, n):
                assert build_torus(spec).perms.perms == _ref_perms(spec), spec
                count += 1
    assert count == 5959 + 7307


def _compose(p, q):
    """p after q, both 1-based tuples."""
    return tuple(p[q[i] - 1] for i in range(len(q)))


def _reference_checks(perms, dims):
    """The four checks on a tuple acting in dims, from Python tuples."""
    n = len(perms[0])
    e = tuple(range(1, n + 1))
    orbit = {1}
    frontier = [1]
    while frontier:
        i = frontier.pop()
        for g in perms:
            if g[i - 1] not in orbit:
                orbit.add(g[i - 1])
                frontier.append(g[i - 1])
    # closure by breadth-first search; past n elements the order is not n
    group = {e}
    frontier = [e]
    while frontier and len(group) <= n:
        h = frontier.pop()
        for g in perms:
            gh = _compose(g, h)
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    # row order of validate's table: prod_r pi_r^{c_r}, c_1 fastest
    products = [e]
    for g, f in zip(perms, dims):
        powers = [e]
        for _ in range(f - 1):
            powers.append(_compose(g, powers[-1]))
        products = [_compose(gc, h) for gc in powers for h in products]
    return (
        all(_compose(a, b) == _compose(b, a)
            for a, b in itertools.combinations(perms, 2)),
        len(orbit) == n,
        len(set(products)) == n and set(products) == group,
        len({g[0] for g in products}) == n,
    )


def test_validate_matches_reference_on_pairs_of_s4():
    # every pair, so that closure fails with distinct rows too; among
    # commuting pairs in dims (2, 2), distinct rows are always closed
    real = build_torus(TorusSpec(dims=(2, 2), twists=((1,),)))
    s4 = list(itertools.permutations(range(1, 5)))
    seen = set()
    commuting = 0
    for p, q in itertools.product(s4, repeat=2):
        tampered = dataclasses.replace(real, perms=PermTuple(perms=(p, q)))
        c = validate(tampered)
        got = (c.commutes, c.transitive, c.group_order_n, c.basepoint_bijective)
        assert got == _reference_checks((p, q), (2, 2)), (p, q, got)
        seen.add(got)
        commuting += c.commutes
    assert commuting == 24 * 5  # |S_4| times its number of classes
    assert (False, True, False, True) in seen  # distinct rows, not closed
    c = validate(dataclasses.replace(real, perms=PermTuple(perms=(
        (1, 2, 3, 4), (2, 3, 4, 1)))))
    assert c.commutes and c.transitive
    assert not c.group_order_n and not c.basepoint_bijective


@st.composite
def _drawn_tuple(draw, specs):
    """A tuple on the vertices of specs' dims: random permutations, or a
    built torus or disjoint cycles of lengths f_r, relabeled; a relabeled
    torus may have one pair of images swapped."""
    dims, n = specs[0].dims, specs[0].n
    points = list(range(1, n + 1))
    kind = draw(st.sampled_from(("random", "torus", "cycles")))
    if kind == "random":
        return tuple(tuple(draw(st.permutations(points))) for _ in dims)
    if kind == "torus":
        perms = build_torus(draw(st.sampled_from(specs))).perms
    else:
        # commuting, closed and of order n, but not transitive
        cycles, start = [], 0
        for f in dims:
            p = list(points)
            for i in range(f):
                p[start + i] = start + (i + 1) % f + 1
            cycles.append(tuple(p))
            start += f
        perms = PermTuple(perms=tuple(cycles))
    perms = list(perms.conjugate(draw(st.permutations(points))).perms)
    if kind == "torus" and draw(st.booleans()):
        r = draw(st.integers(0, len(dims) - 1))
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        p = list(perms[r])
        p[i], p[j] = p[j], p[i]
        perms[r] = tuple(p)
    return tuple(perms)


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (2, 2, 2), (4, 6)])
def test_validate_matches_reference_on_drawn_tuples(dims):
    # every draw is validated against the same spec of dims; both closure
    # paths (lookup when the basepoint map is bijective, row sets when it
    # is not) must be taken, each with both answers
    specs = [s for s in all_specs(len(dims), math.prod(dims)) if s.dims == dims]
    real = build_torus(specs[0])
    paths = set()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_drawn_tuple(specs))
    def check(perms):
        c = validate(dataclasses.replace(real, perms=PermTuple(perms=perms)))
        got = (c.commutes, c.transitive, c.group_order_n, c.basepoint_bijective)
        assert got == _reference_checks(perms, dims), (perms, got)
        paths.add((c.basepoint_bijective, c.group_order_n))

    check()
    assert paths == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("run", [None, 8])
def test_validate_matches_reference_at_census_dims(monkeypatch, run):
    # the census's size, n = 24 in three directions; a small RUN splits the
    # closure lookup into one run per row of G
    if run is not None:
        monkeypatch.setattr(tori._kernels, "RUN", run)
    test_validate_matches_reference_on_drawn_tuples((2, 3, 4))


@pytest.mark.parametrize("perms,shape", [
    (((2, 1, 4, 3, 6, 5),), (1, 6)),                   # one generator for two
    (((2, 1, 3, 4, 5, 6),) * 3, (3, 6)),               # three generators for two
    (((2, 3, 4, 1), (3, 4, 1, 2)), (2, 4)),            # another n
    (((2, 3, 4, 5, 6, 7, 1), (1, 2, 3, 4, 5, 6, 7)), (2, 7)),
])
def test_validate_refuses_a_tuple_that_does_not_fit_its_spec(perms, shape):
    # refused before any table is filled, naming both shapes
    real = build_torus(TorusSpec(dims=(2, 3), twists=((1,),)))
    tampered = dataclasses.replace(real, perms=PermTuple(perms=perms))
    match = rf"\(ell, n\) = \({shape[0]}, {shape[1]}\) .* \(ell, n\) = \(2, 6\)"
    with pytest.raises(ValueError, match=match):
        validate(tampered)


def test_validate_budget(monkeypatch):
    real = build_torus(TorusSpec(dims=(3000,), twists=()))
    with pytest.raises(BudgetError):
        validate(real)
    monkeypatch.setattr(tori, "VALIDATE_MAX_N", 3000)
    assert validate(real).all_true()


def test_edges_grid_counts():
    # untwisted 4 x 6: each vertex has degree 4, all edges distinct
    real = build_torus(TorusSpec(dims=(4, 6), twists=((1,),)))
    assert len(real.edges) == 48
    assert all(e.multiplicity == 1 for e in real.edges)
    assert sum(e.dashed for e in real.edges) == 10  # 6 + 4 wrap edges


def test_edges_follow_replaced_perms():
    real = build_torus(TorusSpec(dims=(4, 6), twists=((1,),)))
    other = build_torus(TorusSpec(dims=(4, 6), twists=((3,),)))
    assert real.edges != other.edges
    assert dataclasses.replace(real, perms=other.perms).edges == other.edges


def test_edges_small_torus_collapse():
    # 2 x 2: forward and wrap steps coincide, multiplicity collapses them
    real = build_torus(TorusSpec(dims=(2, 2), twists=((1,),)))
    assert len(real.coords) == 4
    assert all(e.multiplicity == 2 for e in real.edges)
    assert len(real.edges) == 4


def test_export_dot_deterministic(tmp_path):
    real = build_torus(TorusSpec(dims=(4, 6), twists=((3,),)))
    p1 = tmp_path / "a.dot"
    p2 = tmp_path / "b.dot"
    export_dot(real, p1)
    export_dot(real, p2)
    data = p1.read_bytes()
    assert data == p2.read_bytes()
    text = data.decode()
    lines = text.splitlines()
    node_lines = [ln for ln in lines if ln.startswith('  "') and " -- " not in ln]
    assert len(node_lines) == 24
    assert text.count(" -- ") == len(real.edges)
    assert 'style=dashed' in text
    assert text.startswith("graph torus {")


def test_export_dot_multiplicity_attr(tmp_path):
    real = build_torus(TorusSpec(dims=(2, 2), twists=((1,),)))
    out = tmp_path / "t.dot"
    export_dot(real, out)
    assert "multiplicity=2" in out.read_text()


def test_spec_count_equals_b():
    for ell in (1, 2, 3, 4):
        for n in range(1, 61):
            assert spec_count(ell, n) == b_via_recursion(ell, n), (ell, n)


def test_all_specs_materializes_the_count():
    for ell in (1, 2, 3):
        for n in (1, 2, 6, 12):
            specs = list(all_specs(ell, n))
            assert len(specs) == spec_count(ell, n)
            assert len(set(specs)) == len(specs)


def test_all_specs_guards():
    with pytest.raises(ValueError):
        spec_count(0, 5)
    with pytest.raises(ValueError):
        list(all_specs(2, 0))


def test_double_count_small():
    res = double_count_check(2, 3)
    assert res.match and res.count == 8
    res4 = double_count_check(2, 4)
    assert res4.match and res4.count == 42
    assert double_count_check(2, 1).count == 1
    assert double_count_check(3, 1).count == 1


def test_double_count_full_ranges():
    for ell, ns in ((2, range(1, 8)), (3, range(1, 6)), (4, (4, 5))):
        for n in ns:
            res = double_count_check(ell, n)
            assert res.match, (ell, n, res)
            assert res.count == res.expected


def _double_count_all_relabelings(ell, n):
    # relabel by all n! bijections and dedupe the n copies of each tuple
    seen = set()
    for spec in all_specs(ell, n):
        perms = build_torus(spec).perms
        for sigma in itertools.permutations(range(1, n + 1)):
            seen.add(perms.conjugate(sigma).perms)
    expected = math.factorial(n - 1) * b_via_recursion(ell, n)
    brute = [tuple(map(tuple, tup)) for tup in transitive_tuples(ell, n).tolist()]
    match = brute == sorted(seen) and len(seen) == expected
    return tori.DoubleCountResult(ell=ell, n=n, count=len(seen),
                                  expected=expected, match=match)


def test_double_count_matches_all_relabelings():
    for ell in (1, 2, 3):
        for n in range(1, 6):
            assert double_count_check(ell, n) == _double_count_all_relabelings(ell, n)


def test_double_count_makes_each_tuple_once(monkeypatch):
    sigmas = []
    relabel = tori._relabel

    def counted(P, S):
        sigmas.extend(map(tuple, S.tolist()))
        return relabel(P, S)

    monkeypatch.setattr(tori, "_relabel", counted)
    res = double_count_check(2, 5)
    assert len(sigmas) == spec_count(2, 5) * math.factorial(4) == 144
    assert res.match and res.count == 144
    assert all(sigma[0] == 0 for sigma in sigmas)


def _tamper_first_torus(monkeypatch, change):
    # change the relabellings of the first torus in place; returns them all
    relabel = tori._relabel
    made = []

    def tampered(P, S):
        out = relabel(P, S)
        if not made:
            change(out)
        made.append(out)
        return out

    monkeypatch.setattr(tori, "_relabel", tampered)
    return made


def test_double_count_sees_a_repeated_tuple(monkeypatch):
    def repeat(out):  # the first relabelling made again in place of the last
        out[-1] = out[0]

    _tamper_first_torus(monkeypatch, repeat)
    res = double_count_check(2, 5)
    assert res.count == res.expected - 1 == 143
    assert not res.match


def test_double_count_sees_a_tuple_brute_force_does_not_make(monkeypatch):
    # the first torus of (2, 4) is (identity, 4-cycle); two images swapped in
    # its identity make a transposition, which does not commute with the cycle
    def swap(out):
        out[0, 0, [0, 1]] = out[0, 0, [1, 0]]

    made = _tamper_first_torus(monkeypatch, swap)
    res = double_count_check(2, 4)
    assert res.count == res.expected == 42
    assert not res.match
    assert not (transitive_tuples(2, 4) == made[0][0] + 1).all(axis=(1, 2)).any()


@pytest.mark.parametrize("ell,n", [(2, 6), (3, 5)])
def test_gathered_relabelling_matches_conjugate(monkeypatch, ell, n):
    # every torus, relabelled by every bijection fixing vertex 1, row by row
    tori_seen = []
    relabel = tori._relabel

    def checked(P, S):
        out = relabel(P, S)
        perms = PermTuple(perms=tuple(map(tuple, (P + 1).tolist())))
        for sigma, row in zip((S + 1).tolist(), (out + 1).tolist()):
            assert perms.conjugate(sigma).perms == tuple(map(tuple, row))
        tori_seen.append(perms.perms)
        return out

    monkeypatch.setattr(tori, "_relabel", checked)
    res = double_count_check(ell, n)
    assert res.match and res.count == res.expected
    assert tori_seen == [build_torus(spec).perms.perms for spec in all_specs(ell, n)]


def test_every_spec_validates_all_true():
    # the full sweep backing the structural guarantee, ell <= 3, n <= 60
    for ell in (1, 2, 3):
        for n in range(1, 61):
            for spec in all_specs(ell, n):
                checks = validate(build_torus(spec))
                assert checks.all_true(), (spec, checks)


def test_relabel_closure_is_conjugation_invariant():
    # sanity on the double-count machinery: conjugating a built tuple
    # never leaves the transitive commuting family
    real = build_torus(TorusSpec(dims=(2, 3), twists=((2,),)))
    for sigma in itertools.permutations(range(1, 7)):
        conj = real.perms.conjugate(sigma)
        assert conj.commutes()
        assert conj.is_transitive()


def test_build_torus_refuses_past_the_vertex_bound():
    assert BUILD_MAX_N == 2**18
    real = build_torus(TorusSpec(dims=(BUILD_MAX_N,), twists=()))
    assert real.perms.perms[0][-1] == 1
    for dims in ((BUILD_MAX_N + 1,), (513, 512), (2, 2**9, 2**8 + 1)):
        twists = tuple((1,) * r for r in range(1, len(dims)))
        with pytest.raises(BudgetError, match=f"n={math.prod(dims)} > {BUILD_MAX_N}"):
            build_torus(TorusSpec(dims=dims, twists=twists))

import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abundancy import qseries
from abundancy.errors import BudgetError
from abundancy.qseries import PowerRuleReport, qpoch, verify_power_rule

F = Fraction

Q_GRID = [F(1, 2), F(1, 3), F(2, 5)]
Z_GRID = [F(0), F(1, 2), F(1)]


def test_qpoch_base_cases():
    assert qpoch(F(3, 7), F(1, 2), 0) == 1
    assert qpoch(1, F(1, 3), 1) == 0  # first factor (1-1)
    assert qpoch(1, F(1, 3), 5) == 0
    assert qpoch(F(1, 2), F(1, 2), 2) == F(3, 8)


def test_qpoch_rejects_negative_r():
    with pytest.raises(ValueError):
        qpoch(1, F(1, 2), -1)


def test_qpoch_chaining():
    # (q;q)_j (1 - q^{j+1}) = (q;q)_{j+1}
    for q in Q_GRID:
        for j in range(11):
            assert qpoch(q, q, j) * (1 - q ** (j + 1)) == qpoch(q, q, j + 1)


def test_power_rule_geometric_case():
    # ell=2, z=1: both sides are exactly 1/(1+q) scaled by (1-q)... the
    # truncated lhs only matches within the tail bound, rhs is exact
    rep = verify_power_rule(2, 1, F(1, 2))
    assert rep.rhs_exact == F(2, 3)
    assert rep.bound_ok
    assert abs(rep.lhs_truncated - rep.rhs_exact) <= F(1, 10**12)


def test_power_rule_z_zero_exact():
    for ell in range(2, 7):
        rep = verify_power_rule(ell, 0, F(1, 3))
        assert rep.lhs_truncated == 0
        assert rep.rhs_exact == 0
        assert rep.bound_ok


@pytest.mark.parametrize("ell", range(2, 7))
@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("z", Z_GRID)
def test_power_rule_grid(ell, q, z):
    rep = verify_power_rule(ell, z, q, tail_eps=F(1, 10**12))
    assert rep.bound_ok
    # the reported tail bound must actually bracket the truncation error
    assert abs(rep.lhs_truncated - rep.rhs_exact) <= rep.tail_bound


def test_power_rule_guards():
    with pytest.raises(ValueError):
        verify_power_rule(1, 1, F(1, 2))
    with pytest.raises(ValueError):
        verify_power_rule(2, 1, F(3, 2))
    with pytest.raises(ValueError):
        verify_power_rule(2, 1, F(1, 2), tail_eps=0)


def test_power_rule_float_eps_accepted():
    rep = verify_power_rule(3, 1, F(1, 3), tail_eps=1e-9)
    assert rep.bound_ok
    assert rep.terms < verify_power_rule(3, 1, F(1, 3), tail_eps=1e-15).terms


def _reference_qpoch(z, q, r):
    # one Fraction multiply-add per factor
    if r < 0:
        raise ValueError("r must be >= 0")
    z = Fraction(z)
    q = Fraction(q)
    out = Fraction(1)
    qi = Fraction(1)
    for _ in range(r):
        out *= 1 - qi * z
        qi *= q
    return out


def _reference_power_rule(ell, z, q, tail_eps=Fraction(1, 10**12)):
    # the series summed term by term in Fractions, with no term budget
    if ell < 2:
        raise ValueError(f"ell must be >= 2, got {ell}")
    z = Fraction(z)
    q = Fraction(q)
    eps = Fraction(tail_eps) if not isinstance(tail_eps, float) else Fraction(str(tail_eps))
    if eps <= 0:
        raise ValueError("tail_eps must be positive")
    if abs(q) >= 1:
        raise ValueError("tail bound unachievable: need |q| < 1")
    rhs = (1 - q) * (1 - _reference_qpoch(z, q, ell)) / (1 - q**ell)
    scale = abs(z * (1 - q)) * (1 + abs(z)) ** (ell - 1) / (1 - abs(q))
    lhs = Fraction(0)
    qk = Fraction(1)
    k = 0
    while scale * abs(qk) > eps:
        lhs += qk * _reference_qpoch(qk * q * z, q, ell - 1)
        qk *= q
        k += 1
    lhs *= z * (1 - q)
    tail_bound = scale * abs(qk)
    return PowerRuleReport(
        lhs_truncated=lhs,
        rhs_exact=rhs,
        tail_bound=tail_bound,
        terms=k,
        bound_ok=abs(lhs - rhs) <= eps,
    )


_RATIONALS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 40))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(z=st.one_of(_RATIONALS, st.integers(-5, 5)), q=st.one_of(_RATIONALS, st.just(0)),
       r=st.integers(0, 12))
def test_qpoch_matches_the_rational_reference(z, q, r):
    assert qpoch(z, q, r) == _reference_qpoch(z, q, r)


@st.composite
def _power_points(draw):
    d = draw(st.integers(1, 9))
    q = Fraction(draw(st.integers(-(d - 1), d - 1)), d)
    if abs(q) > Fraction(4, 5):  # the reference is slow near |q| = 1
        q = Fraction(0)
    z = draw(st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-9, 9),
                                                       st.integers(1, 9))))
    eps = draw(st.sampled_from([Fraction(1, 10**12), Fraction(3, 7), 1e-9, 0.1,
                                "1/1000000", "1e-15"]))
    return draw(st.integers(2, 7)), z, q, eps


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_power_points())
def test_power_rule_matches_the_rational_reference(point):
    # q = 0, negative q, z = 0 and every tail_eps type; the whole report
    ell, z, q, eps = point
    assert verify_power_rule(ell, z, q, eps) == _reference_power_rule(ell, z, q, eps)


def test_power_rule_edge_points_match_the_reference():
    for ell in range(2, 8):
        for z, q in ((0, F(1, 2)), (F(1, 2), 0), (F(-7, 3), F(-2, 3)), (1, F(-1, 2)),
                     (F(5, 2), F(7, 9))):
            assert verify_power_rule(ell, z, q) == _reference_power_rule(ell, z, q)


def test_power_rule_window_edge_points_match_the_reference():
    # a zero window factor, z q^j = 1, at j = 1 and 2 and past the first
    # window; and ell = 21 with K = 47 > 2 (ell - 1), so that the out stack
    # of the window is refilled twice
    for ell in (2, 3, 4, 7):
        for z, q in ((2, F(1, 2)), (9, F(1, 3)), (4, F(-1, 2)), (256, F(1, 2))):
            assert verify_power_rule(ell, z, q) == _reference_power_rule(ell, z, q)
    rep = verify_power_rule(21, F(1, 3), F(1, 2))
    assert rep.terms == 47 > 2 * 20
    assert rep == _reference_power_rule(21, F(1, 3), F(1, 2))


def _cost(ell, z, q, terms):
    # (K + ell) bits(K), with bits(K) = ell bits(b + |a|) + (ell K + ell(ell-1)/2) bits(d)
    z, q = Fraction(z), Fraction(q)
    bits = (ell * (z.denominator + abs(z.numerator)).bit_length()
            + (ell * terms + ell * (ell - 1) // 2) * q.denominator.bit_length())
    return (terms + ell) * bits


def test_power_rule_term_budget_refuses_fast():
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=r"ell=6, q=999/1000 needs about 32,6\d\d terms"):
        verify_power_rule(6, F(3, 2), F(999, 1000))
    assert time.perf_counter() - start < 1.0
    # q near 1 with a large denominator, and with a large z
    with pytest.raises(BudgetError):
        verify_power_rule(2, 1, 1 - F(1, 10**30))
    with pytest.raises(BudgetError):
        verify_power_rule(2, 10**3000, F(1, 2))
    # a tiny |q| with a huge denominator is decided without the powers
    start = time.perf_counter()
    assert verify_power_rule(3, 1, F(1, 10**400)).terms == 1
    assert time.perf_counter() - start < 1.0
    # each admitted by a cap on operand size alone, and 8-10 s if summed
    start = time.perf_counter()
    for ell, q, terms in ((4, F(99 * 10**4 - 1, 10**6), "2,956"),
                          (3, F(99 * 10**7 - 1, 10**9), "2,887")):
        with pytest.raises(BudgetError, match=f"ell={ell}, q={q} needs about {terms} terms"):
            verify_power_rule(ell, 1, q)
    assert time.perf_counter() - start < 1.0


def test_power_rule_term_budget_admits_its_largest_case():
    rep = verify_power_rule(6, F(3, 2), F(99, 100))
    assert rep.terms == 3246
    assert _cost(6, F(3, 2), F(99, 100), 3246) == 443_751_660 <= qseries.MAX_POWER_COST
    assert rep.bound_ok


def test_power_rule_window_is_summed_or_refused_fast():
    # 339 terms of 299 window factors each: a few products a term, not 299
    start = time.perf_counter()
    rep = verify_power_rule(300, 1, F(1, 2))
    assert rep.terms == 339 and rep.bound_ok
    # the window and the right side alone form numbers of about ell^2 bits
    with pytest.raises(BudgetError, match=r"ell=1000, q=1/2 forms numbers of about 1,001,000 bits"):
        verify_power_rule(1000, 1, F(1, 2))
    with pytest.raises(BudgetError, match=r"ell=20002, q=1/2 forms numbers of about"):
        verify_power_rule(20_002, 0, F(1, 2))
    with pytest.raises(BudgetError):
        verify_power_rule(10**9, 1, F(1, 2))
    assert time.perf_counter() - start < 1.0


def test_power_rule_size_budget_refuses_fast():
    # z = 0 sums no terms, but the window and the right side form numbers of
    # about ell^2/2 bits of d
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="ell=8000, q=1/2 forms numbers of about 64,000,000 bits"):
        verify_power_rule(8000, 0, F(1, 2))
    with pytest.raises(BudgetError, match="ell=20001, q=1/2 forms numbers of about"):
        verify_power_rule(20_001, 0, F(1, 2))
    # a large z is refused before the tail bound's scale, a power of it, is formed
    with pytest.raises(BudgetError, match="MAX_POWER_COST"):
        verify_power_rule(20_001, 10**3000, F(1, 2))
    # about 2,819 terms over a 1,329-bit d: the Horner sum's denominator
    with pytest.raises(BudgetError, match=r"ell=2, q=\d+/\d+ needs about 2,8\d\d terms "
                                          r"over numbers of about 7,49\d,\d\d\d bits"):
        verify_power_rule(2, 1, F(99 * 10**398 - 1, 10**400))
    assert time.perf_counter() - start < 1.0


def _admitted_iff_within(ell, z, q, eps, limit):
    # the series is summed iff its cost is at most `limit`, else refused
    want = _reference_power_rule(ell, z, q, eps)
    with mock.patch.object(qseries, "MAX_POWER_COST", limit):
        if _cost(ell, z, q, want.terms) <= limit:
            assert verify_power_rule(ell, z, q, eps) == want
        else:
            with pytest.raises(BudgetError, match=f"ell={ell}, q={q} "):
                verify_power_rule(ell, z, q, eps)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_power_points(), st.integers(1, 300_000))
def test_power_rule_cost_budget_refuses_exactly_past_the_bound(point, limit):
    # caps across the whole range of the points' costs, K = 0 included
    _admitted_iff_within(*point, limit)


def test_power_rule_budget_boundary_is_exact(monkeypatch):
    # scale = 2 at (2, 1, 1/2), so eps = 2^-39 stops the loop exactly at
    # scale |q|^40 = eps: the logarithms tie and the powers decide
    eps = F(1, 2**39)
    assert verify_power_rule(2, 1, F(1, 2), eps).terms == 40
    assert _cost(2, 1, F(1, 2), 40) == 6972
    monkeypatch.setattr(qseries, "MAX_POWER_COST", 6972)
    assert verify_power_rule(2, 1, F(1, 2), eps) == _reference_power_rule(2, 1, F(1, 2), eps)
    monkeypatch.setattr(qseries, "MAX_POWER_COST", 6971)
    with pytest.raises(BudgetError, match="about 40 terms"):
        verify_power_rule(2, 1, F(1, 2), eps)


def test_power_rule_refuses_q_zero_past_the_bound(monkeypatch):
    # q = 0 sums one term; a cap between cost(0) and cost(1) refuses it at K = 0
    start = time.perf_counter()
    assert _cost(998, 3, 0, 0) <= qseries.MAX_POWER_COST < _cost(998, 3, 0, 1)
    with pytest.raises(BudgetError, match="ell=998, q=0 needs about 1 terms"):
        verify_power_rule(998, 3, 0)
    assert time.perf_counter() - start < 1.0
    assert (_cost(2, 1, 0, 0), _cost(2, 1, 0, 1)) == (10, 21)
    for limit in range(10, 21):
        monkeypatch.setattr(qseries, "MAX_POWER_COST", limit)
        with pytest.raises(BudgetError, match="ell=2, q=0 needs about 1 terms"):
            verify_power_rule(2, 1, 0)
    monkeypatch.setattr(qseries, "MAX_POWER_COST", 21)
    assert verify_power_rule(2, 1, 0) == _reference_power_rule(2, 1, 0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_power_points(), st.integers(-3, 3))
def test_power_rule_budget_refuses_exactly_past_the_bound(point, offset):
    # caps next to the point's own cost: summed at cost + 0..3, refused below
    ell, z, q, eps = point
    terms = _reference_power_rule(ell, z, q, eps).terms
    _admitted_iff_within(ell, z, q, eps, max(1, _cost(ell, z, q, terms) + offset))

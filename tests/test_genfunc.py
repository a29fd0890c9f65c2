from fractions import Fraction
from math import factorial

import pytest

from abundancy import genfunc
from abundancy.errors import BudgetError
from abundancy.genfunc import (
    SeriesPoly,
    cauchy_check,
    exp_series,
    h_point,
    h_vector,
    hr_ratio,
    partition_numbers,
    series_L,
)
from abundancy.permtuples import enumerate_A
from abundancy.sieve import sieve_b

F = Fraction


def test_series_L_values():
    l2 = series_L(2, 6)
    assert l2[0] == 0
    assert l2[1] == 1
    assert l2[6] == 2  # sigma(6)/6
    l3 = series_L(3, 4)
    assert l3[4] == F(35, 4)


def test_exp_series_rows_match_enumeration():
    poly2 = exp_series(2, 6)
    poly3 = exp_series(3, 4)
    for n in range(1, 7):
        assert poly2.a_row(n).counts == enumerate_A(2, n).counts
    for n in range(1, 5):
        assert poly3.a_row(n).counts == enumerate_A(3, n).counts


def test_exp_series_budget_refuses_before_any_row(monkeypatch):
    # N(N+1)(N+2)/6 inner-loop terms: 220 at N = 10
    assert exp_series(2, 10, max_work=220).rows == exp_series(2, 10).rows

    def built(*args, **kwargs):
        raise AssertionError("built before the refusal")

    monkeypatch.setattr(genfunc, "sieve_b", built)
    with pytest.raises(BudgetError, match="ell=2, N=10 takes 220 inner-loop terms"):
        exp_series(2, 10, max_work=219)
    # the default admits N = 537 (25,953,389 terms) and refuses N = 538
    with pytest.raises(BudgetError, match="N=538 takes 26098380 "):
        exp_series(2, 538)
    with pytest.raises(BudgetError):
        exp_series(3, 10**9)
    # cauchy_check's own series takes the default budget
    with pytest.raises(BudgetError, match="N=600"):
        cauchy_check(2, 600, 1, 0.99, 8)


def test_h_vector_budget_refuses_before_the_sieve(monkeypatch):
    # N(N+1)/2 dot-product terms: 55 at N = 10
    want = h_vector(2, 10, 1)
    monkeypatch.setattr(genfunc, "DEFAULT_MAX_WORK", 55)
    assert h_vector(2, 10, 1) == want

    def built(*args, **kwargs):
        raise AssertionError("sieved before the refusal")

    monkeypatch.setattr(genfunc, "sieve_b", built)
    monkeypatch.setattr(genfunc, "DEFAULT_MAX_WORK", 54)
    with pytest.raises(BudgetError, match="ell=2, N=10 takes 55 dot-product terms"):
        h_vector(2, 10, 1)
    # the default admits N = 7210 (25,995,655 terms) and refuses N = 7211
    monkeypatch.undo()
    monkeypatch.setattr(genfunc, "sieve_b", built)
    with pytest.raises(BudgetError, match="N=7211 takes 26002866 "):
        h_vector(2, 7211, 1)
    with pytest.raises(BudgetError):
        h_point(2, 10**9, 1)


def test_cauchy_budget_refuses_before_the_sieve(monkeypatch):
    # M x n_trunc Horner steps: 64 x 48 at the default n_trunc
    want = cauchy_check(2, 5, 2, 0.3, 64)
    monkeypatch.setattr(genfunc, "DEFAULT_MAX_WORK", 64 * 48)
    assert cauchy_check(2, 5, 2, 0.3, 64) == want

    def built(*args, **kwargs):
        raise AssertionError("built before the refusal")

    monkeypatch.setattr(genfunc, "sieve_b", built)
    monkeypatch.setattr(genfunc, "DEFAULT_MAX_WORK", 64 * 48 - 1)
    with pytest.raises(BudgetError, match="M=64, n_trunc=48 takes 3072 Horner steps"):
        cauchy_check(2, 5, 2, 0.3, 64)
    monkeypatch.setattr(genfunc, "DEFAULT_MAX_WORK", 10**4)
    with pytest.raises(BudgetError, match="M=8, n_trunc=10000 "):
        cauchy_check(2, 5, 2, 0.3, 8, n_trunc=10**4)
    # 480 million steps, past the default
    monkeypatch.undo()
    monkeypatch.setattr(genfunc, "sieve_b", built)
    with pytest.raises(BudgetError, match="M=10000000, n_trunc=48 "):
        cauchy_check(2, 5, 2, 0.3, 10**7)


def test_coeff_normalization():
    poly = exp_series(2, 5)
    assert poly.coeff(0, 0) == 1
    assert poly.coeff(3, 1) == F(8, 6)  # A(2,3,1)/3!
    assert poly.coeff(3, 4) == 0
    assert poly.coeff(3, -1) == 0
    with pytest.raises(IndexError):
        poly.coeff(6, 1)


def test_seriespoly_shape_checks():
    with pytest.raises(ValueError):
        SeriesPoly(ell=2, N=1, rows=((2,), (0, 1)))
    with pytest.raises(ValueError):
        SeriesPoly(ell=2, N=1, rows=((1,), (1, 1)))
    with pytest.raises(ValueError):
        SeriesPoly(ell=2, N=1, rows=((1,),))


def test_partition_numbers():
    p = partition_numbers(10)
    assert p == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert partition_numbers(100)[100] == 190569292
    assert partition_numbers(200)[200] == 3972999029388


def test_row_sum_is_partition_number():
    # sum_k A(2,n,k)/n! = p(n): the ell=2 triangle knows the partitions
    poly = exp_series(2, 40)
    p = partition_numbers(40)
    for n in range(1, 41):
        assert poly.h_at(n, 1) == p[n]


def test_h_vector_extends_to_200():
    h = h_vector(2, 200, 1)
    p = partition_numbers(200)
    assert [int(v) for v in h] == p
    assert h_point(2, 200, 1) == p[200]


def _h_per_term(ell, N, x):
    # reference: one Fraction addition per term
    x = Fraction(x)
    b = sieve_b(ell, N)
    h = [Fraction(1)]
    for n in range(1, N + 1):
        acc = Fraction(0)
        for m in range(1, n + 1):
            acc += b[m] * h[n - m]
        h.append(x * acc / n)
    return h


@pytest.mark.parametrize("x", [0, 1, 2, F(1, 2), F(-3, 7)])
def test_h_vector_matches_per_term_fractions(x):
    for ell, N in ((2, 150), (3, 80)):
        assert h_vector(ell, N, x) == _h_per_term(ell, N, x)


def test_h_point_nontrivial_x():
    # against the triangle at a non-unit argument
    poly = exp_series(2, 12)
    for n in (1, 5, 12):
        assert h_point(2, n, F(1, 3)) == poly.h_at(n, F(1, 3))
    assert h_point(2, 0, 5) == 1


def test_cauchy_exact_coefficient():
    rep = cauchy_check(2, 5, 2, 0.3, 2048)
    assert rep.exact == exp_series(2, 5).coeff(5, 2)
    assert rep.abs_err <= 1e-12
    assert rep.n_trunc >= 48


def test_cauchy_error_shrinks_with_grid():
    errs = [cauchy_check(2, 5, 2, 0.3, M).abs_err for M in (8, 16, 32)]
    assert errs[1] < errs[0]
    assert errs[2] < errs[1]


def test_cauchy_degenerate_orders():
    assert cauchy_check(2, 0, 0, 0.5, 64).exact == 1
    assert cauchy_check(2, 0, 3, 0.5, 64).exact == 0
    assert cauchy_check(2, 4, 0, 0.5, 64).exact == 0
    rep = cauchy_check(2, 3, 5, 0.5, 256)  # k > n
    assert rep.exact == 0
    assert rep.abs_err < 1e-10


def test_cauchy_guards():
    with pytest.raises(ValueError):
        cauchy_check(2, 5, 2, 0.0, 64)
    with pytest.raises(ValueError):
        cauchy_check(2, 5, 2, 1.0, 64)
    with pytest.raises(ValueError):
        cauchy_check(2, 5, 2, 0.5, 0)
    with pytest.raises(ValueError):
        cauchy_check(2, 5, -1, 0.5, 64)
    with pytest.raises(ValueError):
        cauchy_check(2, 5, 2, 0.5, 64, n_trunc=4)


@pytest.mark.parametrize("args, named", [
    ((2, 200, 3, 0.01, 16), "r=0.01, n=200"),  # r**n underflows
    ((2, 5, 200, 0.5, 8), "k=200"),  # k! beyond the float range
    ((2, 150, 150, 0.99, 8), "k=150, r=0.99"),  # L(z)**k overflows
    ((1100, 10, 1, 0.1, 8, 12), "ell=1100, m=2"),  # B(ell, m)/m overflows
])
def test_cauchy_float_range_refused(args, named):
    with pytest.raises(ValueError, match=named):
        cauchy_check(*args)


def test_hr_ratio_near_one_and_tightening():
    vals = {n: hr_ratio(n, 1) for n in (100, 200, 400)}
    assert 0.9 < vals[100] < 1.1
    gaps = [abs(vals[n] - 1.0) for n in (100, 200, 400)]
    assert gaps[1] < gaps[0]
    assert gaps[2] < gaps[1]


def test_hr_ratio_guards():
    with pytest.raises(ValueError):
        hr_ratio(0, 1)
    with pytest.raises(ValueError):
        hr_ratio(10, 0)

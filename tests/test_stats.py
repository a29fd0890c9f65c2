import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from abundancy import _kernels, stats
from abundancy.core import primes_up_to
from abundancy.errors import MAX_BINS, BudgetError, MalformedTable
from abundancy.sieve import ArithTable, sieve_b
from abundancy.stats import (
    EULER_GAMMA,
    _index_terms,
    _replica_mean,
    cesaro_mean,
    empirical_moment,
    error_series,
    local_moment,
    mu_constant,
    theoretical_moment,
    zeta,
    zeta_product,
)
from test_kernels import _exact_cumsum, _ref_kahan_cumsum

PUBLISHED_MEAN_E = -0.38508487292161986


def test_zeta_two_is_pi_squared_over_six():
    assert zeta(2) == math.pi**2 / 6


def test_zeta_known_digits():
    assert abs(zeta(3) - 1.2020569031595943) < 1e-15
    assert abs(zeta(4) - math.pi**4 / 90) < 1e-15
    assert abs(zeta(10) - 1.0009945751278182) < 1e-15


def test_zeta_correctly_rounded_vs_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for s in range(2, 65):
        assert zeta(s) == float(mpmath.zeta(s)), s


def test_zeta_guards():
    with pytest.raises(ValueError):
        zeta(1)


def test_zeta_is_one_past_the_double_range():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for s in range(54, 81):
        assert zeta(s) == 1.0 == float(mpmath.zeta(s)), s


def test_zeta_past_64_skips_the_exact_stage(monkeypatch):
    # the stage's exact terms grow with s: through it, zeta(10**5) takes
    # about 46 s on a 2-core x86-64 host
    def refuse(*args):
        raise AssertionError("exact stage ran")

    monkeypatch.setattr(stats, "Fraction", refuse)
    for s in (65, 10**5, 10**12):
        assert zeta(s) == 1.0


def test_mu_constant_value():
    mu = mu_constant()
    assert mu == 0.38507933223132607
    # definition assembled from its three terms
    z2 = zeta(2)
    assert mu == EULER_GAMMA / 2 + math.log(24 * z2) / 4 - z2 / 2


def test_mu_constant_vs_high_precision():
    # the double-composed value sits 2 ulp above the correctly rounded
    # constant 0.38507933223132595...; both agree far below 1e-14
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    ref = mpmath.euler / 2 + mpmath.log(24 * mpmath.zeta(2)) / 4 - mpmath.zeta(2) / 2
    assert abs(mu_constant() - float(ref)) < 5e-16


def test_cesaro_mean_ell2(table2):
    assert abs(cesaro_mean(table2, 1_000_000) - zeta(2)) < 2e-5


def test_cesaro_mean_ell3(table3):
    assert abs(cesaro_mean(table3, 1_000_000) - zeta(2) * zeta(3)) < 1e-3


def test_cesaro_prefix_monotone_refinement(table2):
    # longer prefixes land closer to the limit on this decade ladder
    diffs = [abs(cesaro_mean(table2, N) - zeta(2)) for N in (10_000, 1_000_000)]
    assert diffs[1] < diffs[0]


def test_index_terms_guards(table2):
    with pytest.raises(ValueError):
        cesaro_mean(table2, 0)
    with pytest.raises(ValueError):
        cesaro_mean(table2, table2.nmax + 1)


@pytest.mark.parametrize("values, first_bad", [
    ((1, -99999999999999999999), 2),  # below n^{ell-1}
    ((1, 3, 2, 7), 3),                # B(2, 3) = 4; 2 < 3
    ((1, 3, 4, 7, 6, 12, 8, 15, 13, 100), 10),  # 100/10 > 1 + ln 10
])
def test_index_terms_reject_impossible_values(values, first_bad):
    table = ArithTable(ell=2, nmax=len(values), values=values, metadata={})
    for stat in (lambda t: cesaro_mean(t, t.nmax),
                 lambda t: empirical_moment(t, 2, t.nmax),
                 lambda t: error_series(t)):
        with pytest.raises(MalformedTable, match=f"n={first_bad} "):
            stat(table)


@pytest.mark.parametrize("ell, nmax", [(2, 5000), (3, 5000), (5, 500), (20, 60)])
def test_index_terms_accept_sieved_tables(ell, nmax):
    assert cesaro_mean(sieve_b(ell, nmax), nmax) > 1.0


@pytest.mark.parametrize("ell", range(2, 7))
def test_index_terms_accept_sieved_tables_at_highly_abundant_n(ell):
    for nmax in (2520, 5040):
        assert cesaro_mean(sieve_b(ell, nmax), nmax) > 1.0


@pytest.mark.parametrize("ell", range(3, 7))
def test_index_terms_refuse_between_the_lemma_and_the_old_range(ell):
    # the index 20 at n = 1000 lies above (1 + ln n) zeta(2)...zeta(ell-1)
    # (at most 7.91 * 2.30) and below the old limit (1 + ln n)^(ell-1)
    n = 1000
    assert (1 + math.log(n)) * 2.3 < 20 < (1 + math.log(n)) ** (ell - 1)
    values = list(sieve_b(ell, n).values)
    values[n - 1] = 20 * n ** (ell - 1)
    table = ArithTable(ell=ell, nmax=n, values=tuple(values), metadata={})
    with pytest.raises(MalformedTable, match=f"n={n} "):
        cesaro_mean(table, n)


def test_exact_path_terms_round_once():
    table = sieve_b(6, 3000)
    assert table.metadata["creation"]["dtype"] == "object"
    terms = _index_terms(table, table.nmax)
    assert terms.tolist() == [float(Fraction(v, n**5))
                              for n, v in enumerate(table.values, start=1)]


def test_cesaro_mean_beyond_float_range_values():
    # B(200, n) exceeds the float range; its index does not
    assert cesaro_mean(sieve_b(200, 100), 100) == 2.2443930304792516
    table = ArithTable(ell=2, nmax=3, values=(1, 3, 10**400), metadata={})
    with pytest.raises(MalformedTable, match="n=3 "):
        cesaro_mean(table, 3)


def test_cesaro_mean_sum_is_correctly_rounded():
    # Kahan summation lands one ulp high here (1.6029327949172338)
    table = sieve_b(2, 62)
    terms = _index_terms(table, 62).tolist()
    assert cesaro_mean(table, 62) == math.fsum(terms) / 62 == 1.602932794917234


def test_empirical_m1_equals_cesaro(table2):
    assert empirical_moment(table2, 1, 500_000) == cesaro_mean(table2, 500_000)
    with pytest.raises(ValueError):
        empirical_moment(table2, 0, 10)


def test_error_series_naive_reproduces_published_value(table2):
    summary = error_series(table2, method="naive")
    assert summary.mean_E == PUBLISHED_MEAN_E
    assert summary.nmax == 1_000_000


def test_replica_mean_pins_blocked_order():
    # 1 at index 0, u = 2^-53 (half an ulp of 1) at 4096, 8192 and 8193.
    # Zeros add exactly, so only the grouping of these four values matters.
    u = 2.0**-53
    x = np.zeros(8200)
    x[0] = 1.0
    x[[4096, 8192, 8193]] = u
    sequential = ((1.0 + u) + u) + u  # each 1 + u ties back to 1
    # one pairwise pass splits at 4096: 1 + (u + (u + u)) = 1 + 1.5 ulp
    single_pass = 1.0 + 3 * u
    # 8192-blocks: (0 + (1 + u)) + (u + u) = 1 + 1 ulp
    blocked = (0.0 + (1.0 + u)) + (u + u)
    assert (sequential, blocked, single_pass) == (1.0, 1.0 + 2 * u, 1.0 + 4 * u)
    assert _replica_mean(x) == blocked / 8200


def _pairwise_loop(a):
    """NumPy's classic pairwise_sum, one Python float addition at a time."""
    n = len(a)
    if n < 8:
        res = 0.0
        for v in a:
            res += float(v)
        return res
    if n <= 128:
        r = [float(v) for v in a[:8]]
        i = 8
        while i < n - n % 8:
            for j in range(8):
                r[j] += float(a[i + j])
            i += 8
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in a[i:]:
            res += float(v)
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise_loop(a[:n2]) + _pairwise_loop(a[n2:])


@pytest.mark.parametrize(
    "n", [1, 7, 8, 9, 127, 128, 129, 300, 8191, 8192, 8193, 2 * 8192 + 576]
)
def test_replica_mean_matches_loop_reference(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    acc = 0.0
    for start in range(0, n, 8192):
        acc += _pairwise_loop(x[start : start + 8192])
    assert _replica_mean(x) == acc / n


def test_error_series_kahan_headline(table2):
    summary = error_series(table2)
    assert summary.method == "kahan"
    assert abs(summary.mean_E - PUBLISHED_MEAN_E) < 1e-8
    assert summary.minus_mu == -mu_constant()
    assert summary.rel_err == abs(summary.mean_E + mu_constant()) / mu_constant()
    assert summary.rel_err < 2e-5


def test_error_series_methods_cross_agree(table2):
    kah = error_series(table2)
    dd = error_series(table2, method="dd")
    naive = error_series(table2, method="naive")
    # kahan and dd share one kernel, so their bounds check the pipeline; the
    # rounding is checked against Python-integer prefix sums
    assert abs(kah.mean_E - dd.mean_E) < 1e-13
    assert abs(naive.mean_E - dd.mean_E) < 1e-7
    assert abs(kah.last_E - dd.last_E) < 1e-12
    assert abs(naive.last_E - dd.last_E) < 1e-7


def test_error_series_exact_small_n(table2):
    exact = error_series(table2, 20_000, method="exact")
    kah = error_series(table2, 20_000)
    assert abs(exact.mean_E - kah.mean_E) < 1e-10
    with pytest.raises(BudgetError):
        error_series(table2, 20_001, method="exact")


def test_error_series_histogram(table2):
    summary = error_series(table2)
    assert summary.bins == 250
    assert len(summary.histogram) == 250
    assert sum(c for _, _, c in summary.histogram) == 1_000_000
    lefts = [left for left, _, _ in summary.histogram]
    assert lefts == sorted(lefts)
    small = error_series(table2, 50_000, bins=10)
    assert len(small.histogram) == 10
    assert sum(c for _, _, c in small.histogram) == 50_000


def test_error_series_deterministic(table2):
    a = error_series(table2)
    b = error_series(sieve_b(2, 1_000_000))
    assert a == b  # float-exact equality across fresh table and rerun


def test_error_series_mean_converges_toward_minus_mu(table2):
    mu = mu_constant()
    near = abs(error_series(table2, 1_000_000).mean_E + mu)
    far = abs(error_series(table2, 10_000).mean_E + mu)
    assert near < far


def test_error_series_guards(table2, table3):
    with pytest.raises(ValueError):
        error_series(table3)
    with pytest.raises(ValueError):
        error_series(table2, method="mystery")
    with pytest.raises(ValueError):
        error_series(table2, bins=0)



# Recorded before the methods shared one pipeline; any moved bit fails. The
# kahan cases took the dd bits when kahan moved to dd_cumsum's prefix sums.
# N = 3*8192 + 5 ends the naive mean on a partial block.
@pytest.mark.parametrize("method, N, mean_E, last_E, hist_sha256", [
    ("kahan", 10**6, -0.3850848693140019, 0.3774636010638517,
     "216246931c96a2b2132b5135c0fee92f3200a7ce519f47a450f2bd8a79752367"),
    ("dd", 10**6, -0.3850848693140019, 0.3774636010638517,
     "216246931c96a2b2132b5135c0fee92f3200a7ce519f47a450f2bd8a79752367"),
    ("naive", 10**6, -0.38508487292161986, 0.3774636129382145,
     "7b7501d3e1bd3f073c4907be2db84c03b20893076036258530614413c93b6c3b"),
    ("kahan", 24581, -0.38516071891912307, -0.7185259340055428,
     "0adc79c1761526ef875546a127e8aadd8721cb0d41f3222d1969c84aef755ca3"),
    ("dd", 24581, -0.38516071891912307, -0.7185259340055428,
     "0adc79c1761526ef875546a127e8aadd8721cb0d41f3222d1969c84aef755ca3"),
    ("naive", 24581, -0.3851607189158436, -0.718525934129234,
     "f77f8d3c510e4fd5038993eb9c965722ded0c50e2e7f730e7f1107ef092cffea"),
    ("exact", 20000, -0.38525154018846625, 0.15925580135642647,
     "a4debd2fa0f8def1567a75ea7865a5781e04a0003b66d47154196c890fd273d7"),
], ids=["kahan-1e6", "dd-1e6", "naive-1e6", "kahan-24581", "dd-24581",
        "naive-24581", "exact-20000"])
def test_error_series_pinned_bits(table2, method, N, mean_E, last_E, hist_sha256):
    summary = error_series(table2, N, method=method)
    assert summary.mean_E == mean_E
    assert summary.last_E == last_E
    digest = hashlib.sha256(repr(summary.histogram).encode()).hexdigest()
    assert digest == hist_sha256


def _math_log(x):
    """np.log elementwise by math.log, which no NumPy loop dispatch changes."""
    x = np.asarray(x, dtype=np.float64)
    return np.array([math.log(v) for v in x.ravel().tolist()]).reshape(x.shape)


# np.log may differ from math.log by an ulp at some n, by which SIMD loop
# the NumPy build dispatches; the histograms move with it, the headline
# mean and last E do not.
@pytest.mark.parametrize("method, mean_E, last_E", [
    ("kahan", -0.3850848693140019, 0.3774636010638517),
    ("naive", PUBLISHED_MEAN_E, 0.3774636129382145),
])
def test_headline_bits_do_not_depend_on_the_log_loop(table2, monkeypatch,
                                                     method, mean_E, last_E):
    calls = []
    monkeypatch.setattr(np, "log", lambda x: calls.append(1) or _math_log(x))
    summary = error_series(table2, method=method)
    assert calls
    assert summary.mean_E == mean_E
    assert summary.last_E == last_E


def test_error_series_kernel_per_method(table2, monkeypatch):
    calls = []
    kernel = _kernels.dd_cumsum
    monkeypatch.setattr(_kernels, "dd_cumsum",
                        lambda a: calls.append("dd_cumsum") or kernel(a))
    expected = {
        "kahan": ["dd_cumsum"] * 2,
        "dd": ["dd_cumsum"] * 2,
        "exact": ["dd_cumsum"],
        "naive": [],
    }
    for method, names in expected.items():
        calls.clear()
        error_series(table2, 1000, method=method)
        assert calls == names, method


def test_totals_are_summed_by_exact_sum(table2, monkeypatch):
    calls = []
    kernel = _kernels.exact_sum
    monkeypatch.setattr(_kernels, "exact_sum",
                        lambda a: calls.append(a.shape[0]) or kernel(a))
    cesaro_mean(table2, 1000)
    empirical_moment(table2, 2, 999)
    for method in ("kahan", "dd", "exact", "naive"):
        error_series(table2, 998, method=method)
    # the naive replica keeps the published order of additions
    assert calls == [1000, 999, 998, 998, 998]


def test_error_series_checks_method_before_reading_the_table(table2, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("_index_terms ran")

    monkeypatch.setattr(stats, "_index_terms", refuse)
    with pytest.raises(ValueError, match="unknown method: 'mystery'"):
        error_series(table2, 100, method="mystery")
    with pytest.raises(BudgetError, match=r"exact method capped at N <= 20000 \(got 20001\)"):
        error_series(sieve_b(2, 100), 20_001, method="exact")


def test_error_series_bins_budget_refuses_before_reading_the_table(table2, monkeypatch):
    # np.histogram would allocate MAX_BINS + 2 edges, and the summary a
    # Python triple per bin
    def refuse(*args, **kwargs):
        raise AssertionError("_index_terms ran")

    monkeypatch.setattr(stats, "_index_terms", refuse)
    with pytest.raises(BudgetError, match=rf"bins capped at {MAX_BINS} \(got {MAX_BINS + 1}\)"):
        error_series(table2, 100, bins=MAX_BINS + 1)


def test_error_series_feeds_each_source_to_one_pipeline(table2, monkeypatch):
    seen = {}
    pipeline = stats._error_pipeline

    def spy(S, z, half, mu, *rest):
        seen[method] = (S, z, half, mu)
        return pipeline(S, z, half, mu, *rest)

    monkeypatch.setattr(stats, "_error_pipeline", spy)
    N = 300
    terms = _index_terms(table2, N)
    exact = [sum(Fraction(table2[n], n) for n in range(1, M + 1)) for M in range(1, N + 1)]
    expected = {
        "kahan": _kernels.dd_cumsum(terms),
        "dd": _kernels.dd_cumsum(terms),
        "naive": np.cumsum(terms),
        "exact": np.array([float(s) for s in exact]),
    }
    for method, S_ref in expected.items():
        error_series(table2, N, method=method)
        S, z, half, mu = seen[method]
        assert S.tobytes() == S_ref.tobytes(), method
        assert (z, half, mu) == (zeta(2), 0.5, mu_constant()), method


def test_kahan_partial_sums_are_correctly_rounded(monkeypatch):
    # the headline S on real data, against prefix sums taken in Python
    # integers over one power-of-two denominator and rounded once each
    seen = []
    pipeline = stats._error_pipeline
    monkeypatch.setattr(stats, "_error_pipeline",
                        lambda S, *rest: seen.append(S) or pipeline(S, *rest))
    N = 20_000
    table = sieve_b(2, N)
    error_series(table)
    assert seen[0].tobytes() == _exact_cumsum(_index_terms(table, N)).tobytes()


def test_error_pipeline_takes_its_constants_from_its_arguments(table2):
    # zeta(2) raised by 2^-40 lowers E_M by 2^-40 M, and so the mean of E
    # over M <= N by 2^-40 (N + 1) / 2: the form of the fl(zeta(2)) bias
    # The walk is the Kahan recurrence that the kahan method ran before it
    # took dd_cumsum's prefix sums, so the mean is that method's old pin.
    N = 24581
    walk = _ref_kahan_cumsum
    S = walk(_index_terms(table2, N))
    rest = (0.5, mu_constant(), walk, stats._exact_mean, 10)
    base = stats._error_pipeline(S, zeta(2), *rest)[0]
    assert base == -0.3851607189191287
    shifted = stats._error_pipeline(S, zeta(2) + 2.0**-40, *rest)[0]
    assert abs((shifted - base) + 2.0**-40 * (N + 1) / 2) < 1e-12

# ---------------------------------------------------------------------------
# moments

def test_local_moment_closed_forms():
    assert abs(local_moment(2, 2, 1) - 4 / 3) < 1e-10
    assert abs(local_moment(2, 3, 1) - 9 / 8) < 1e-10


def test_local_moment_m1_product_form():
    for p in (2, 3, 5, 7):
        for ell in (2, 3, 4):
            ref = 1.0
            for i in range(2, ell + 1):
                ref /= 1.0 - p ** (-i)
            assert abs(local_moment(ell, p, 1) - ref) < 1e-9, (ell, p)


def test_local_moment_first_term_floor():
    for ell, p, m in ((2, 2, 3), (3, 5, 2), (4, 7, 1)):
        assert local_moment(ell, p, m) >= 1.0 - 1.0 / p


def test_local_moment_guards():
    for bad in ((1, 2, 1), (2, 1, 1), (2, 2, 0), (2, 4, 1), (3, 6, 2), (2, 2.5, 1)):
        with pytest.raises(ValueError):
            local_moment(*bad)
    with pytest.raises(ValueError):
        local_moment(2, 2, 1, eps=0.0)


def test_theoretical_moment_m1_within_tail():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the self-test must stay quiet
        res = theoretical_moment(2, 1)
    assert abs(res.theoretical - zeta(2)) <= res.tail_bound + 1e-9
    assert res.empirical is None


def test_the_m1_self_test_reads_zeta_product(monkeypatch):
    assert zeta_product(3) == zeta(2) * zeta(3)
    assert type(zeta_product(1)) is float and zeta_product(1) == 1.0
    monkeypatch.setattr(stats, "zeta_product", lambda ell: 2.0)
    with pytest.warns(UserWarning, match="m=1 self-test"):
        theoretical_moment(3, 1)


def test_theoretical_moment_second_within_tail():
    ref = zeta(2) ** 2 * zeta(3) / zeta(4)
    res = theoretical_moment(2, 2)
    assert abs(res.theoretical - ref) <= res.tail_bound


def test_theoretical_moment_third_matches_direct_product():
    # direct evaluation of the ell=2 third-moment Euler product
    direct = zeta(3) * zeta(4)
    for p in primes_up_to(10_000):
        direct *= 1.0 - p**-3 + 3.0 / (p * (p - 1))
    res = theoretical_moment(2, 3)
    assert abs(res.theoretical - direct) < 1e-6


def test_theoretical_moment_cutoff_monotone():
    for ell in (2, 3):
        ref = 1.0
        for i in range(2, ell + 1):
            ref *= zeta(i)
        diffs = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for cutoff in (100, 1_000, 10_000):
                diffs.append(
                    abs(theoretical_moment(ell, 1, prime_cutoff=cutoff).theoretical - ref)
                )
        assert diffs[1] < diffs[0]
        assert diffs[2] < diffs[1]


def test_theoretical_moment_guards():
    for bad in ((1, 1), (2, 0)):
        with pytest.raises(ValueError):
            theoretical_moment(*bad)
    with pytest.raises(ValueError):
        theoretical_moment(2, 1, prime_cutoff=1)
    # the tail loop would never end for eps <= 0 once the terms underflow
    for eps in (-1.0, 0.0):
        with pytest.raises(ValueError, match="eps must be positive"):
            theoretical_moment(2, 1, eps=eps)


def test_moments_past_the_float_range_refuse():
    # the product of the local factors, and the tail bound's cap**m
    for kwargs in ({"ell": 2, "m": 400}, {"ell": 2, "m": 2000, "prime_cutoff": 2}):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no NumPy overflow warning either
            with pytest.raises(ValueError, match=f"ell=2, m={kwargs['m']}"):
                theoretical_moment(**kwargs)
    # an infinite power of an index
    with pytest.raises(ValueError, match="ell=2, m=700"):
        empirical_moment(sieve_b(2, 1000), 700, 1000)
    # finite powers, 501 of them near 4e307, whose sum overflows
    values = np.arange(1, 1001, dtype=np.int64)
    values[499:] *= 7
    table = ArithTable(ell=2, nmax=1000, values=values, metadata={})
    with pytest.raises(ValueError, match="ell=2, m=364"):
        empirical_moment(table, 364, 1000)


def test_an_infinite_power_is_refused_before_the_sum(monkeypatch):
    # the sum kernel takes finite input only; an infinite term is the
    # moment's own refusal, not the kernel's
    def refuse(a):
        raise AssertionError("exact_sum ran")

    monkeypatch.setattr(_kernels, "exact_sum", refuse)
    with pytest.raises(ValueError,
                       match="^the moment exceeds the float range for ell=2, m=700$"):
        empirical_moment(sieve_b(2, 1000), 700, 1000)


def test_moments_near_the_float_range_keep_their_bits():
    r = theoretical_moment(2, 200)
    assert r.theoretical.hex() == "0x1.a16b09423a625p+491"
    assert r.tail_bound.hex() == "0x1.135f3730e073bp+486"
    t = sieve_b(2, 1000)
    assert empirical_moment(t, 576, 1000).hex() == "0x1.e9d91c669aa39p+1013"
    assert empirical_moment(t, 300, 1000).hex() == "0x1.3f6fcba1cb067p+523"


def test_empirical_second_moment_near_theoretical(table2):
    emp = empirical_moment(table2, 2, 1_000_000)
    theo = theoretical_moment(2, 2).theoretical
    assert abs(emp - theo) < 1e-2


def test_empirical_ell3_second_moment(table3):
    emp = empirical_moment(table3, 2, 1_000_000)
    theo = theoretical_moment(3, 2).theoretical
    assert abs(emp - theo) < 5e-2

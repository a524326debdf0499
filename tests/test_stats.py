import math

import numpy as np
import pytest
from scipy import stats as scipy_stats
from scipy.stats import kstwobign

import lapsewalk as lw
from lapsewalk.exact import DiscreteCdf


def phi_quadrature(x, steps=200000):
    """Independent normal CDF oracle: trapezoid rule over the density."""
    lo = -10.0
    xs = np.linspace(lo, x, steps)
    dens = np.exp(-0.5 * xs ** 2) / math.sqrt(2.0 * math.pi)
    return float(np.trapezoid(dens, xs))


def phi_inverse(u):
    lo, hi = -10.0, 10.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if lw.normal_cdf(mid) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_normal_cdf_values():
    assert lw.normal_cdf(0.0) == 0.5
    assert abs(lw.normal_cdf(1.959963985) - 0.975) <= 1e-9
    for x in (-3.0, -0.7, 0.3, 2.5):
        assert abs(lw.normal_cdf(x) - phi_quadrature(x)) <= 1e-8


def test_normal_cdf_symmetry():
    for x in (0.1, 0.9, 2.2, 5.0):
        assert abs(lw.normal_cdf(-x) - (1.0 - lw.normal_cdf(x))) <= 1e-12


def test_normal_cdf_array_matches_scalar():
    xs = np.array([-2.0, -0.5, 0.0, 1.5])
    got = lw.normal_cdf_array(xs)
    assert np.array_equal(got, np.array([lw.normal_cdf(v) for v in xs]))


def test_ks_on_exact_quantile_sample():
    k = 999
    sample = [phi_inverse((i + 1.0) / (k + 1.0)) for i in range(k)]
    res = lw.ks_test_normal(sample)
    assert res.d_stat < 0.002
    assert res.p_value > 0.99


def test_ks_constant_sample_is_far_from_normal():
    res = lw.ks_test_normal([0.0] * 100)
    assert res.d_stat >= 0.5
    res = lw.ks_test_normal([1.0] * 100)
    assert res.d_stat >= 0.5


def test_ks_sample_too_small():
    with pytest.raises(lw.SampleTooSmall):
        lw.ks_test_normal(list(range(9)))


def test_ks_pvalue_monotone_in_d():
    k = 1000
    ps = [lw.stats._kolmogorov_sf(d * (math.sqrt(k) + 0.12 + 0.11 / math.sqrt(k)))
          for d in (0.01, 0.02, 0.04, 0.08, 0.16)]
    assert all(a > b for a, b in zip(ps, ps[1:]))


def test_ks_pvalue_classical_quantile():
    # P(D > 1.36/sqrt(k)) is about 5% for large k
    k = 10 ** 4
    d = 1.36 / math.sqrt(k)
    t = d * (math.sqrt(k) + 0.12 + 0.11 / math.sqrt(k))
    p = lw.stats._kolmogorov_sf(t)
    assert 0.04 < p < 0.06


def test_ks_distance_point_mass():
    point = DiscreteCdf(points=np.array([0.0]), probs=np.array([1.0]),
                        cdf=np.array([1.0]))
    assert math.isclose(lw.ks_distance_cdf(point), 0.5)
    # at x = 2 the sup sits just left of the jump, where the CDF is still 0
    point = DiscreteCdf(points=np.array([2.0]), probs=np.array([1.0]),
                        cdf=np.array([1.0]))
    assert math.isclose(lw.ks_distance_cdf(point), lw.normal_cdf(2.0))


def trinomial_standardized_cdf(p, q, r, n):
    """Exact standardized law of S_n for the i.i.d. (theta = 0) walk:
    the step law [q, r, p] raised to the n-th convolution power (binary
    exponentiation); independent of the DP oracle.
    """
    pmf = np.array([1.0])
    base = np.array([q, r, p])
    m = n
    while m:
        if m & 1:
            pmf = np.convolve(pmf, base)
        base = np.convolve(base, base)
        m >>= 1
    svals = np.arange(-n, n + 1, dtype=np.float64)
    keep = pmf > 0.0
    svals, pmf = svals[keep], pmf[keep]
    mean = float(np.dot(svals, pmf))
    var = float(np.dot(svals ** 2, pmf)) - mean ** 2
    pts = (svals - mean) / math.sqrt(var)
    return DiscreteCdf(points=pts, probs=pmf, cdf=np.cumsum(pmf))


def test_ks_distance_decreases_along_clt_sequence():
    ds = [lw.ks_distance_cdf(trinomial_standardized_cdf(0.6, 0.2, 0.2, n))
          for n in (100, 1000, 10000)]
    assert ds[0] > ds[1] > ds[2]
    assert ds[2] < 0.01


def test_fit_loglog_pure_power_laws():
    xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fit = lw.fit_loglog(xs, 3.0 * xs)
    assert abs(fit.slope - 1.0) <= 1e-12
    assert fit.r2 == 1.0
    fit = lw.fit_loglog(xs, 0.5 * xs ** 2)
    assert abs(fit.slope - 2.0) <= 1e-12
    assert abs(fit.intercept - math.log(0.5)) <= 1e-12


def test_fit_loglog_scale_invariance():
    xs = np.array([2.0, 3.0, 5.0, 9.0, 17.0])
    ys = xs ** 1.3 * np.array([1.05, 0.98, 1.01, 0.99, 1.02])
    base = lw.fit_loglog(xs, ys)
    scaled = lw.fit_loglog(xs, 7.5 * ys)
    assert abs(base.slope - scaled.slope) <= 1e-12
    assert abs((scaled.intercept - base.intercept) - math.log(7.5)) <= 1e-12
    assert 0.0 <= base.r2 <= 1.0
    assert base.stderr_slope > 0.0


def test_fit_loglog_errors():
    with pytest.raises(lw.NonPositive):
        lw.fit_loglog([1, 2, 3], [1.0, -1.0, 2.0])
    with pytest.raises(lw.SampleTooSmall):
        lw.fit_loglog([1, 2], [1.0, 2.0])


@pytest.mark.parametrize("t", [0.05, 0.3, 0.5, 0.8, 1.0, 1.36, 1.63, 2.0, 3.0])
def test_kolmogorov_sf_matches_scipy(t):
    assert abs(lw.stats._kolmogorov_sf(t) - kstwobign.sf(t)) <= 1e-11


@pytest.mark.parametrize("k, shift", [(10, 0.0), (57, 0.3), (400, 0.0),
                                      (2000, 0.05)])
def test_ks_test_normal_matches_scipy(k, shift):
    x = np.random.default_rng(k).normal(shift, 1.0, k)
    res = lw.ks_test_normal(x)
    assert res.sample_size == k
    assert abs(res.d_stat - scipy_stats.kstest(x, "norm").statistic) <= 1e-12
    # Stephens' small-sample correction of the asymptotic p-value
    t = res.d_stat * (math.sqrt(k) + 0.12 + 0.11 / math.sqrt(k))
    assert abs(res.p_value - kstwobign.sf(t)) <= 1e-11


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit_loglog_matches_scipy_linregress(seed):
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(1.0, 1e4, 3 + 4 * seed))
    ys = 2.5 * xs ** 0.7 * np.exp(rng.normal(0.0, 0.2, xs.size))
    fit = lw.fit_loglog(xs, ys)
    ref = scipy_stats.linregress(np.log(xs), np.log(ys))
    assert math.isclose(fit.slope, ref.slope, rel_tol=1e-12)
    assert math.isclose(fit.intercept, ref.intercept, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(fit.stderr_slope, ref.stderr, rel_tol=1e-10)
    assert math.isclose(fit.r2, ref.rvalue ** 2, rel_tol=1e-12)

import math
from types import SimpleNamespace

import numpy as np
import pytest

import lapsewalk as lw

# parameter grid shared with the acceptance suite
GRID = [
    lw.ModelParams(p, q, r, theta)
    for theta in (0.0, 0.3, 0.7)
    for (p, q, r) in ((0.6, 0.2, 0.2), (0.5, 0.5, 0.0), (0.3, 0.3, 0.4))
]


def dists_close(a, b, tol):
    keys = set(a.mass) | set(b.mass)
    return max(abs(a.mass.get(k, 0.0) - b.mass.get(k, 0.0)) for k in keys) <= tol


@pytest.mark.parametrize("params", GRID)
def test_dp_matches_enumeration(params):
    for n in (1, 2, 5, 8):
        assert dists_close(lw.distribution_dp(params, n),
                           lw.enumerate_paths(params, n), 1e-12)


def test_enumeration_hand_value():
    # P(S_2 = 2) = p * (theta p + (1 - theta) p) = 0.36, by the chain rule
    d = lw.enumerate_paths(lw.ModelParams(0.6, 0.2, 0.2, 0.5), 2)
    assert math.isclose(d.mass[(2, 2)], 0.36)


def test_enumeration_mass_and_support():
    for params in GRID[:4]:
        d = lw.enumerate_paths(params, 7)
        assert abs(d.total_mass() - 1.0) <= 1e-12
        for (s, z) in d.mass:
            assert abs(s) <= z <= 7 and (z - s) % 2 == 0


def test_delay_only_walk_is_point_mass():
    d = lw.distribution_dp(lw.ModelParams(0.0, 0.0, 1.0, 0.3), 25)
    assert d.mass == {(0, 0): 1.0}


def test_dp_n1_is_first_step_law():
    d = lw.distribution_dp(lw.ModelParams(0.6, 0.2, 0.2, 0.5), 1)
    assert math.isclose(d.mass[(1, 1)], 0.6)
    assert math.isclose(d.mass[(-1, 1)], 0.2)
    assert math.isclose(d.mass[(0, 0)], 0.2)


def test_theta_zero_matches_trinomial():
    # i.i.d. case: P(n_plus = i, n_minus = j) is multinomial
    p, q, r, n = 0.3, 0.3, 0.4, 6
    d = lw.distribution_dp(lw.ModelParams(p, q, r, 0.0), n)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            coeff = math.comb(n, i) * math.comb(n - i, j)
            want = coeff * p ** i * q ** j * r ** (n - i - j)
            # (i, j) <-> (s, z) = (i - j, i + j) is a bijection
            got = d.mass.get((i - j, i + j), 0.0)
            assert abs(got - want) <= 1e-12


def test_dp_cap():
    params = lw.ModelParams(0.6, 0.2, 0.2, 0.5)
    with pytest.raises(lw.CapExceeded):
        lw.distribution_dp(params, 401)
    with pytest.raises(lw.CapExceeded):
        lw.enumerate_paths(params, 15)
    lw.distribution_dp(params, 20, cap=20)


def test_dp_mass_guard_trips_on_a_leaking_kernel():
    # p + q + r = 1 + 1e-6, which ModelParams would refuse: after 10 steps
    # the DP holds about 1 + 1e-5 of mass, far past the 1e-10 guard
    leaking = SimpleNamespace(p=0.5, q=0.3, r=0.2 + 1e-6, theta=0.5)
    with pytest.raises(AssertionError, match="drifted"):
        lw.distribution_dp(leaking, 10)


def test_exact_moments_first_step():
    for params in GRID:
        row = lw.exact_moments(params, 1).row(1)
        assert math.isclose(row.mean_s, params.p - params.q, abs_tol=1e-15)
        assert math.isclose(row.mean_z, params.p + params.q, abs_tol=1e-15)
        assert math.isclose(
            row.var_s, (params.p + params.q) - (params.p - params.q) ** 2,
            abs_tol=1e-15)


def test_exact_moments_theta_zero_variance_is_linear():
    params = lw.ModelParams(0.6, 0.2, 0.2, 0.0)
    tab = lw.exact_moments(params, 5000)
    var1 = 0.8 - 0.16
    for n in (1, 10, 500, 5000):
        assert abs(tab.var_s[n] - n * var1) <= 1e-9 * n * var1


@pytest.mark.parametrize("params", GRID)
def test_moment_recursions_match_dp(params):
    tab = lw.exact_moments(params, 60)
    for row_dp in lw.dp_moment_scan(params, 60):
        row = tab.row(row_dp.n)
        for f in ("mean_s", "mean_z", "var_s", "mean_sz"):
            a, b = getattr(row, f), getattr(row_dp, f)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b)), (params, row_dp.n, f)


def test_dp_marginal_z_matches_expected_z():
    params = lw.ModelParams(0.6, 0.2, 0.2, 0.7)
    for row in lw.dp_moment_scan(params, 200):
        want = lw.expected_z(params, row.n)
        assert abs(row.mean_z - want) <= 1e-10 * max(1.0, want)


def test_invariant_abs_mean_s_below_mean_z():
    for params in GRID:
        for row in lw.dp_moment_scan(params, 40):
            assert abs(row.mean_s) <= row.mean_z + 1e-12
            assert row.var_s >= -1e-12


def test_standardized_cdf_normalization():
    params = lw.ModelParams(0.6, 0.2, 0.2, 0.5)
    cdf = lw.standardized_exact_cdf(params, 200)
    assert cdf.points.size <= 2 * 200 + 1
    mean = float(np.dot(cdf.points, cdf.probs))
    second = float(np.dot(cdf.points ** 2, cdf.probs))
    assert abs(mean) <= 1e-10
    assert abs(second - 1.0) <= 1e-10
    assert np.all(np.diff(cdf.points) > 0)
    assert abs(cdf.cdf[-1] - 1.0) <= 1e-10


def dict_route_cdf(params, n):
    """The standardized CDF summed through an (s, z) dict, as it used to be."""
    agg = {}
    for (s, _z), w in lw.distribution_dp(params, n).mass.items():
        agg[s] = agg.get(s, 0.0) + w
    svals = np.array(sorted(agg), dtype=np.float64)
    probs = np.array([agg[int(s)] for s in svals])
    mean = float(np.dot(svals, probs))
    var = float(np.dot(svals * svals, probs)) - mean * mean
    return (svals - mean) / np.sqrt(var), probs, np.cumsum(probs)


@pytest.mark.parametrize("params", GRID)
def test_standardized_cdf_matches_dict_route_bits(params):
    for n in (1, 2, 37, 200):
        got = lw.standardized_exact_cdf(params, n)
        for arr, want in zip((got.points, got.probs, got.cdf),
                             dict_route_cdf(params, n)):
            assert arr.dtype == want.dtype
            assert arr.tobytes() == want.tobytes()


def test_standardized_cdf_degenerate():
    with pytest.raises(lw.DegenerateVariance):
        lw.standardized_exact_cdf(lw.ModelParams(0.0, 0.0, 1.0, 0.5), 50)


def test_mass_conserved_at_larger_n():
    d = lw.distribution_dp(lw.ModelParams(0.3, 0.3, 0.4, 0.7), 200)
    assert abs(d.total_mass() - 1.0) <= 1e-10

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lapsewalk as lw
from lapsewalk import exact

# parameter grid shared with the acceptance suite
GRID = [
    lw.ModelParams(p, q, r, theta)
    for theta in (0.0, 0.3, 0.7)
    for (p, q, r) in ((0.6, 0.2, 0.2), (0.5, 0.5, 0.0), (0.3, 0.3, 0.4))
]


def cells(law):
    """The law's rows as an {(s, z): probability} dict."""
    return dict(zip(zip(law.s.tolist(), law.z.tolist()),
                    law.probability.tolist()))


def dists_close(a, b, tol):
    """Every (s, z) cell of either law within `tol`, a missing cell as 0."""
    ca, cb = cells(a), cells(b)
    return max(abs(ca.get(k, 0.0) - cb.get(k, 0.0)) for k in ca | cb) <= tol


@pytest.mark.parametrize("params", GRID)
def test_dp_matches_enumeration(params):
    for n in (1, 2, 5, 8):
        assert dists_close(lw.distribution_dp(params, n),
                           lw.enumerate_paths(params, n), 1e-12)


@pytest.mark.parametrize("params", GRID)
def test_dp_rows_sorted_and_equal_to_enumeration(params):
    # the same reachable cells in the same (s, z) order, strictly increasing
    for n in (1, 2, 5, 12):
        dp, paths = lw.distribution_dp(params, n), lw.enumerate_paths(params, n)
        key = dp.s * (n + 1) + dp.z  # increasing in (s, z)
        assert np.all(np.diff(key) > 0), (params, n)
        assert np.array_equal(dp.s, paths.s) and np.array_equal(dp.z, paths.z)
        assert dp.n == paths.n == n


def test_enumeration_hand_value():
    # P(S_2 = 2) = p * (theta p + (1 - theta) p) = 0.36, by the chain rule
    d = lw.enumerate_paths(lw.ModelParams(0.6, 0.2, 0.2, 0.5), 2)
    assert math.isclose(cells(d)[(2, 2)], 0.36)


def test_enumeration_mass_and_support():
    for params in GRID[:4]:
        d = lw.enumerate_paths(params, 7)
        assert abs(d.total_mass() - 1.0) <= 1e-12
        for s, z in zip(d.s.tolist(), d.z.tolist()):
            assert abs(s) <= z <= 7 and (z - s) % 2 == 0


def test_delay_only_walk_is_point_mass():
    d = lw.distribution_dp(lw.ModelParams(0.0, 0.0, 1.0, 0.3), 25)
    assert cells(d) == {(0, 0): 1.0}


def test_dp_n1_is_first_step_law():
    d = lw.distribution_dp(lw.ModelParams(0.6, 0.2, 0.2, 0.5), 1)
    assert d.s.tolist() == [-1, 0, 1] and d.z.tolist() == [1, 0, 1]
    assert d.probability.tolist() == [0.2, 0.2, 0.6]  # q, r and p, unrounded


def test_theta_zero_matches_trinomial():
    # i.i.d. case: P(n_plus = i, n_minus = j) is multinomial
    p, q, r, n = 0.3, 0.3, 0.4, 6
    d = cells(lw.distribution_dp(lw.ModelParams(p, q, r, 0.0), n))
    for i in range(n + 1):
        for j in range(n + 1 - i):
            coeff = math.comb(n, i) * math.comb(n - i, j)
            want = coeff * p ** i * q ** j * r ** (n - i - j)
            # (i, j) <-> (s, z) = (i - j, i + j) is a bijection
            got = d.get((i - j, i + j), 0.0)
            assert abs(got - want) <= 1e-12


def test_dp_cap(monkeypatch):
    params = lw.ModelParams(0.6, 0.2, 0.2, 0.5)
    with pytest.raises(lw.CapExceeded):
        lw.distribution_dp(params, exact.DP_CAP + 1)
    with pytest.raises(lw.CapExceeded):
        lw.enumerate_paths(params, exact.PATH_CAP + 1)
    # the cap is read when the DP runs: both sides of a lowered cap
    monkeypatch.setattr(exact, "DP_CAP", 20)
    lw.distribution_dp(params, 20)
    with pytest.raises(lw.CapExceeded, match="n = 21 above the DP cap 20"):
        lw.distribution_dp(params, 21)


def test_dp_mass_guard_trips_on_a_leaking_kernel():
    # p + q + r = 1 + 1e-6, which ModelParams would refuse: after 10 steps
    # the law holds about 1 + 1e-5 of mass, far past every mass guard
    leaking = SimpleNamespace(p=0.5, q=0.3, r=0.2 + 1e-6, theta=0.5)
    for oracle in (lw.distribution_dp, lw.enumerate_paths, lw.dp_moment_scan):
        with pytest.raises(lw.InvalidState, match="drifted"):
            oracle(leaking, 10)


def test_mass_guard_refuses_a_nan_law():
    # a NaN total is off 1 by more than any tolerance
    nan_kernel = SimpleNamespace(p=math.nan, q=0.3, r=0.2, theta=0.5)
    for oracle in (lw.distribution_dp, lw.enumerate_paths, lw.dp_moment_scan):
        with pytest.raises(lw.InvalidState, match="drifted to nan"):
            oracle(nan_kernel, 10)


def reference_dp_slices(params, n):
    """The dense-triangle DP that `exact._dp_slices` replaced, kept as its
    oracle: a fresh zero triangle per step and three shifted whole-array adds."""
    p, q, r, theta = params.p, params.q, params.r, params.theta
    pq = p + q
    tri = np.zeros((2, 2))
    tri[1, 1] = p
    tri[1, 0] = q
    tri[0, 0] = r
    yield 1, tri
    for m in range(1, n):
        zs = np.arange(m + 1, dtype=np.float64)[:, None]
        js = np.arange(m + 1, dtype=np.float64)[None, :]
        p_plus = (theta / m) * (js * p + (zs - js) * q) + (1.0 - theta) * p
        p_minus = (theta / m) * ((zs - js) * p + js * q) + (1.0 - theta) * q
        p_zero = (theta * pq / m) * (m - zs) + r
        nxt = np.zeros((m + 2, m + 2))
        nxt[1:, 1:] += tri * p_plus
        nxt[1:, :-1] += tri * p_minus
        nxt[:-1, :-1] += tri * p_zero
        tri = nxt
        yield m + 1, tri


def assert_dp_slices_match_reference(params, n):
    pairs = zip(exact._dp_slices(params, n), reference_dp_slices(params, n),
                strict=True)
    for (m, got), (want_m, want) in pairs:
        assert (m, got.shape) == (want_m, want.shape)
        assert np.ascontiguousarray(got).tobytes() == want.tobytes(), (params, m)


def edge_point(edge, u, v, theta):
    """A simplex point on `edge`, built from draws u, v, theta in [0, 1)."""
    p, q = u, (1.0 - u) * v  # q at most 1 - p, so r >= 0
    if edge == "theta = 0":
        theta = 0.0
    elif edge == "p = q":
        p = q = u / 2
    elif edge == "r = 1":
        p = q = 0.0
    elif edge == "q = 0":
        q = 0.0
    elif edge == "p = q = -0.0":  # the signed zeros reach the first slice
        p = q = -0.0
    return lw.ModelParams(p, q, 1.0 - p - q, theta)


UNIT = st.floats(0.0, 1.0, exclude_max=True)
BAND = exact._DP_BAND


@pytest.mark.parametrize("edge", ["interior", "theta = 0", "p = q", "r = 1",
                                  "q = 0", "p = q = -0.0"])
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(u=UNIT, v=UNIT, theta=UNIT,
       n=st.sampled_from((BAND - 1, BAND, BAND + 1, 2 * BAND + 1)))
def test_dp_slices_match_reference_bits(edge, u, v, theta, n):
    # every slice byte for byte, on both sides of one and two band edges
    assert_dp_slices_match_reference(edge_point(edge, u, v, theta), n)


def test_dp_slices_match_reference_bits_at_the_cap():
    assert_dp_slices_match_reference(lw.ModelParams(0.6, 0.2, 0.2, 0.5),
                                     exact.DP_CAP)


# p + q + r = 1 -+ 9e-13: inside SIMPLEX_TOL, so ModelParams accepts both, and
# n steps carry mass (p + q + r)^n, up to 3.6e-10 off 1 at n = 400
EDGE = [lw.ModelParams(0.6, 0.2, 0.2 + d, 0.5) for d in (-9e-13, 9e-13)]


@pytest.mark.parametrize("params", EDGE)
def test_exact_oracles_accept_the_simplex_edge(params):
    n = exact.DP_CAP
    d = lw.distribution_dp(params, n)
    assert abs(d.total_mass() - 1.0) > 1e-10  # past the bare rounding tolerance
    cdf = lw.standardized_exact_cdf(params, n)
    assert cdf.points.size == 2 * n + 1
    n = exact.PATH_CAP
    assert dists_close(lw.enumerate_paths(params, n),
                       lw.distribution_dp(params, n), 1e-12)


def test_exact_moments_first_step():
    for params in GRID:
        tab = lw.exact_moments(params, 1)
        assert math.isclose(tab.mean_s[1], params.p - params.q, abs_tol=1e-15)
        assert math.isclose(tab.mean_z[1], params.p + params.q, abs_tol=1e-15)
        assert math.isclose(
            tab.var_s[1], (params.p + params.q) - (params.p - params.q) ** 2,
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
        for f in ("mean_s", "mean_z", "var_s", "mean_sz"):
            a, b = getattr(tab, f)[row_dp.n], getattr(row_dp, f)
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
    for (s, _z), w in cells(lw.distribution_dp(params, n)).items():
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
    with pytest.raises(lw.Degenerate):
        lw.standardized_exact_cdf(lw.ModelParams(0.0, 0.0, 1.0, 0.5), 50)


def test_mass_conserved_at_larger_n():
    d = lw.distribution_dp(lw.ModelParams(0.3, 0.3, 0.4, 0.7), 200)
    assert abs(d.total_mass() - 1.0) <= 1e-10

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lapsewalk as lw
import lapsewalk.analytic as analytic


def a_exact(alpha, n):
    """Log-gamma form of the normalizer: Gamma(n+a) / (Gamma(n) Gamma(a+1)).

    For large n the naive lgamma difference loses ~1e-9 relative precision
    to cancellation (two ~1e7 logs), so beyond n = 1e4 the difference is
    evaluated cancellation-free via Stirling with log1p; remainder ~ a/n^4.
    """
    if n <= 10 ** 4:
        diff = math.lgamma(n + alpha) - math.lgamma(n)
    else:
        diff = ((n - 0.5) * math.log1p(alpha / n) + alpha * math.log(n + alpha)
                - alpha - alpha / (12.0 * n * (n + alpha)))
    return math.exp(diff - math.lgamma(alpha + 1.0))


def test_a_sequence_alpha_zero_is_ones():
    t = lw.a_sequence(0.0, 50)
    assert np.array_equal(t[1:], np.ones(50))


def test_a_sequence_hand_values():
    t = lw.a_sequence(0.5, 4)
    assert t[1] == 1.0
    assert math.isclose(t[2], 1.5)
    assert math.isclose(t[3], 1.875)


def test_a_sequence_domain():
    with pytest.raises(lw.OutOfDomain):
        lw.a_sequence(-0.1, 10)
    with pytest.raises(lw.OutOfDomain):
        lw.a_sequence(1.0, 10)


@pytest.mark.parametrize("table", [lw.a_sequence, lw.v_sequence])
@pytest.mark.parametrize("n_max", [0, -1])
def test_sequence_tables_refuse_no_index(table, n_max):
    # a table indexed by n needs the slot n = 1; growth_values says the same
    with pytest.raises(lw.InvalidState, match=f"^n_max must be >= 1, got {n_max}$"):
        table(0.3, n_max)
    with pytest.raises(lw.InvalidState, match=f"^n must be >= 1, got {n_max}$"):
        lw.growth_values(0.3, [3, n_max])
    assert table(0.3, 1)[1] == 1.0


@pytest.mark.parametrize("alpha", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
def test_a_recurrence_matches_loggamma(alpha):
    n_max = 10 ** 6
    t = lw.a_sequence(alpha, n_max)
    for n in (2, 3, 17, 1000, 31415, 10 ** 5, n_max):
        ref = a_exact(alpha, n)
        assert abs(t[n] - ref) <= 1e-10 * ref


def test_a_sequence_stirling_ratio():
    # a_n ~ n^alpha / Gamma(alpha + 1)
    n = 10 ** 6
    a_n = lw.growth_values(0.3, n)
    ratio = a_n / (n ** 0.3 / math.gamma(1.3))
    assert abs(ratio - 1.0) <= 1e-5


def test_growth_values_matches_table_and_handles_order():
    t = lw.a_sequence(0.37, 500)
    ns = np.array([388, 2, 500, 2, 77])
    vals = lw.growth_values(0.37, ns)
    for n, v in zip(ns, vals):
        assert math.isclose(v, t[int(n)], rel_tol=1e-14)


def test_v_sequence_alpha_zero_counts():
    t = lw.v_sequence(0.0, 30)
    assert np.allclose(t[1:], np.arange(1, 31))


def test_v_sequence_increasing_and_bounded_superdiffusive():
    t = lw.v_sequence(0.75, 20000)
    assert np.all(np.diff(t[1:]) > 0)
    limit = lw.v_limit_superdiffusive(0.75)
    assert t[20000] < limit


def test_v_sequence_diffusive_growth_constant():
    # v_n / n^(1-2a) -> Gamma(a+1)^2 / (1-2a), within 1% at n = 1e6
    n = 10 ** 6
    t = lw.v_sequence(0.3, n)
    lim = math.gamma(1.3) ** 2 / 0.4
    assert abs(t[n] / n ** 0.4 / lim - 1.0) <= 0.01


def test_v_limit_alpha_one_is_basel_sum():
    got = lw.v_limit_superdiffusive(1.0)
    assert abs(got - math.pi ** 2 / 6.0) <= 1e-8


def test_v_limit_positive_and_above_one():
    v = lw.v_limit_superdiffusive(0.75)
    assert v > 1.0  # first term alone is 1, everything is positive


def test_v_limit_matches_partial_sums():
    v_inf = lw.v_limit_superdiffusive(0.75)
    t = lw.v_sequence(0.75, 10 ** 6)
    assert abs(t[10 ** 6] - v_inf) / v_inf <= 1e-3


def test_v_limit_domain():
    for bad in (0.5, 0.3, 1.01):
        with pytest.raises(lw.OutOfDomain):
            lw.v_limit_superdiffusive(bad)


def hyp3f2_v_limit(alpha):
    """v_inf = 3F2(1, 1, 1; alpha+1, alpha+1; 1) by mpmath at 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        a1 = mpmath.mpf(alpha) + 1  # exact: a float alpha + 1 would round
        return float(mpmath.hyp3f2(1, 1, 1, a1, a1, 1))


@pytest.mark.parametrize("alpha", [0.505, 0.55, 0.6, 0.75, 0.9, 1.0])
def test_v_limit_matches_hypergeometric(alpha):
    # the direct scan stops from 0.6 up, with an error set by its stop
    # tolerance 1e-10; at 0.505 and 0.55 it cannot stop and the value comes
    # from the Thomae series
    rel = 1e-13 if alpha < 0.56 else 1e-9
    want = hyp3f2_v_limit(alpha)
    got = lw.v_limit_superdiffusive(alpha)
    assert abs(got - want) / want <= rel


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(0.501, 1.0))
def test_v_limit_thomae_matches_hypergeometric(alpha):
    want = hyp3f2_v_limit(alpha)
    assert abs(analytic._v_limit_thomae(alpha) - want) / want <= 1e-13


def test_v_limit_pole_at_one_half():
    # v_inf ~ (pi/4) / (2 alpha - 1) as alpha -> 1/2+
    for alpha in (0.50005, 0.5000005, 0.500000005):
        span = 2.0 * alpha - 1.0  # exact
        v = lw.v_limit_superdiffusive(alpha)
        assert abs(v * span / (math.pi / 4.0) - 1.0) <= 2.0 * span


def test_sum_inv_a_closed_hand_values():
    assert math.isclose(lw.sum_inv_a_closed(0.0, 5, 1.0), 4.0)
    got = lw.sum_inv_a_closed(0.5, 3, 1.875)
    assert math.isclose(got, 1.0 / 1.5 + 1.0 / 1.875, rel_tol=1e-14)


def test_sum_inv_a_closed_matches_direct_sum():
    rng = np.random.default_rng(5)
    for _ in range(20):
        alpha = float(rng.uniform(0.0, 0.95))
        n = int(rng.integers(2, 10 ** 4))
        t = lw.a_sequence(alpha, n)
        direct = float(np.sum(1.0 / t[2:n + 1]))
        closed = lw.sum_inv_a_closed(alpha, n, t[n])
        assert abs(closed - direct) <= 1e-9 * max(1.0, abs(direct))


def test_sum_inv_a_asymptotics():
    # ~ Gamma(alpha+1) n^(1-alpha) / (1-alpha)
    alpha, n = 0.3, 10 ** 6
    a_n = lw.growth_values(alpha, n)
    val = lw.sum_inv_a_closed(alpha, n, a_n)
    ref = math.gamma(1.3) * n ** 0.7 / 0.7
    assert abs(val / ref - 1.0) <= 1e-3


PARAMS = lw.ModelParams(0.6, 0.2, 0.2, 0.5)


def test_expected_s_first_steps():
    assert math.isclose(lw.expected_s(PARAMS, 1), 0.4)
    assert math.isclose(lw.expected_s(PARAMS, 2), 0.68)  # 1.2*0.4 + 0.2


def test_expected_s_theta_zero_linear():
    p = lw.ModelParams(0.6, 0.2, 0.2, 0.0)
    for n in (1, 10, 1234):
        assert math.isclose(lw.expected_s(p, n), 0.4 * n, rel_tol=1e-12)
        assert math.isclose(lw.expected_z(p, n), 0.8 * n, rel_tol=1e-12)


def test_expected_s_matches_recursion():
    c = lw.derive_constants(PARAMS)
    es = c.beta
    for n in range(1, 10 ** 4):
        es = (1.0 + c.alpha / n) * es + c.omega
    closed = lw.expected_s(PARAMS, 10 ** 4)
    assert abs(closed - es) <= 1e-10 * abs(es)


def test_expected_z_matches_recursion_and_limit():
    c = lw.derive_constants(PARAMS)
    ez = c.psi
    for n in range(1, 10 ** 4):
        ez = (1.0 + c.gamma / n) * ez + c.tau
    closed = lw.expected_z(PARAMS, 10 ** 4)
    assert abs(closed - ez) <= 1e-10 * abs(ez)
    assert math.isclose(lw.expected_z(PARAMS, 1), 0.8)
    assert abs(lw.expected_z(PARAMS, 10 ** 6) / 10 ** 6 - 2.0 / 3.0) <= 1e-4


def test_expected_s_rejects_negative_alpha():
    with pytest.raises(lw.OutOfDomain):
        lw.expected_s(lw.ModelParams(0.2, 0.6, 0.2, 0.5), 10)


def test_regime_prediction_diffusive_example():
    pred = lw.regime_prediction(PARAMS)
    assert pred.regime is lw.Regime.DIFFUSIVE
    assert math.isclose(pred.lln_limit, 0.25)
    assert math.isclose(pred.z_lln_limit, 2.0 / 3.0)
    phi = 2.0 / 3.0 - 1.0 / 16.0
    assert math.isclose(pred.variance_scale(1000), phi * 1000 / 0.6)


def test_regime_prediction_theta_zero():
    p = lw.ModelParams(0.6, 0.2, 0.2, 0.0)
    pred = lw.regime_prediction(p)
    assert math.isclose(pred.lln_limit, 0.4)
    assert math.isclose(pred.variance_scale(500), (0.8 - 0.16) * 500)


def test_regime_prediction_superdiffusive_threshold():
    p = lw.ModelParams(0.95, 0.05, 0.0, 0.9)
    pred = lw.regime_prediction(p)
    assert pred.regime is lw.Regime.SUPERDIFFUSIVE
    assert math.isclose(pred.alpha, 0.81)
    assert pred.variance_scale(100) == pred.phi * 100 / (2 * pred.alpha - 1)


def test_regime_prediction_rejects_negative_alpha():
    with pytest.raises(lw.OutOfDomain):
        lw.regime_prediction(lw.ModelParams(0.2, 0.6, 0.2, 0.5))


def test_degenerate_prediction_flag():
    pred = lw.regime_prediction(lw.ModelParams(1.0, 0.0, 0.0, 0.3))
    assert pred.phi == 0.0
    assert pred.variance_scale(100) == 0.0


def test_lil_envelope_classical_form():
    # alpha = 0, phi = 1 (p = q = 1/2, theta = 0) reduces to sqrt(2n loglog n)
    p = lw.ModelParams(0.5, 0.5, 0.0, 0.0)
    for n in (100, 10 ** 4, 10 ** 6):
        want = math.sqrt(2.0 * n * math.log(math.log(n)))
        assert math.isclose(lw.lil_envelope(p, n), want, rel_tol=1e-12)


def test_lil_envelope_monotone_and_positive():
    ns = [2 ** k for k in range(6, 21)]
    envs = lw.lil_envelope(PARAMS, np.array(ns))
    assert np.all(envs > 0)
    assert np.all(np.diff(envs) > 0)


def test_lil_envelope_domain_too_small():
    p = lw.ModelParams(0.05, 0.05, 0.9, 0.0)  # phi = 0.1: needs n > e/0.1
    with pytest.raises(lw.DomainTooSmall):
        lw.lil_envelope(p, 16)
    assert lw.lil_envelope(p, 64) > 0


def test_lil_envelope_critical_uses_half_gamma_factor():
    # critical inner argument is phi * Gamma(3/2) * log n, taken verbatim
    p = lw.ModelParams(0.8666666666666667, 0.03333333333333333, 0.1, 0.6)
    c = lw.derive_constants(p)
    assert c.regime is lw.Regime.CRITICAL
    n = 10 ** 5
    inner = c.phi * math.gamma(1.5) * math.log(n)
    want = math.sqrt(2.0 * c.phi * n * math.log(n) * math.log(math.log(inner)))
    assert math.isclose(lw.lil_envelope(p, n), want, rel_tol=1e-12)


def test_lil_envelope_superdiffusive_abs_log():
    p = lw.ModelParams(0.9, 0.0, 0.1, 5.0 / 6.0)
    c = lw.derive_constants(p)
    n = 10 ** 5
    g2 = math.gamma(c.alpha + 1.0) ** 2
    inner = abs(math.log(c.phi * g2 / (2 * c.alpha - 1) * n ** (1 - 2 * c.alpha)))
    want = math.sqrt(2.0 * c.phi / (2 * c.alpha - 1) * n * math.log(inner))
    assert math.isclose(lw.lil_envelope(p, n), want, rel_tol=1e-12)


def test_lil_envelope_degenerate():
    with pytest.raises(lw.Degenerate):
        lw.lil_envelope(lw.ModelParams(1.0, 0.0, 0.0, 0.3), 100)

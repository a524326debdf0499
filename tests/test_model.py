import math
from types import SimpleNamespace

import numpy as np
import pytest

import lapsewalk as lw


def test_params_validate_ranges():
    with pytest.raises(lw.InvalidParams):
        lw.ModelParams(-0.1, 0.6, 0.5, 0.5)
    with pytest.raises(lw.InvalidParams):
        lw.ModelParams(0.6, 0.2, 0.2, 1.0)  # theta strictly < 1
    with pytest.raises(lw.InvalidParams, match="simplex"):
        lw.ModelParams(0.5, 0.2, 0.2, 0.5)
    lw.ModelParams(0.6, 0.2, 0.2, 0.0)
    lw.ModelParams(0.0, 0.0, 1.0, 0.99)


def test_derive_constants_hand_example():
    # direct evaluation of the constant definitions by hand
    c = lw.derive_constants(lw.ModelParams(0.6, 0.2, 0.2, 0.5))
    assert math.isclose(c.alpha, 0.2)
    assert math.isclose(c.omega, 0.2)
    assert math.isclose(c.tau, 0.4)
    assert math.isclose(c.gamma, 0.4)
    assert math.isclose(c.phi, 2.0 / 3.0 - 1.0 / 16.0)
    assert math.isclose(c.beta, 0.4)
    assert math.isclose(c.psi, 0.8)
    assert c.regime is lw.Regime.DIFFUSIVE


def test_derive_constants_theta_zero_reduces_to_iid():
    p, q, r = 0.3, 0.3, 0.4
    c = lw.derive_constants(lw.ModelParams(p, q, r, 0.0))
    assert c.alpha == 0.0 and c.gamma == 0.0
    assert math.isclose(c.omega, p - q)
    assert math.isclose(c.tau, p + q)
    assert math.isclose(c.phi, (p + q) - (p - q) ** 2)


def test_derive_constants_degenerate_phi_clamped():
    c = lw.derive_constants(lw.ModelParams(1.0, 0.0, 0.0, 0.3))
    assert c.alpha == 0.3
    assert c.phi == 0.0


def test_negative_alpha_accepted_by_model_core():
    c = lw.derive_constants(lw.ModelParams(0.2, 0.6, 0.2, 0.5))
    assert c.alpha < 0.0  # classification ops downstream reject it


def test_regime_boundary():
    assert lw.classify_regime(0.5 - 1e-9) is lw.Regime.DIFFUSIVE
    assert lw.classify_regime(0.5 + 1e-9) is lw.Regime.SUPERDIFFUSIVE
    assert lw.classify_regime(0.5) is lw.Regime.CRITICAL
    assert lw.classify_regime(0.5 - 1e-13) is lw.Regime.CRITICAL
    assert lw.classify_regime(0.5 + 1e-13) is lw.Regime.CRITICAL


def test_step_distribution_hand_example():
    # n = 1 after a +1 step: 0.5*0.6 + 0.5*0.6 etc., evaluated by hand
    params = lw.ModelParams(0.6, 0.2, 0.2, 0.5)
    p_plus, p_minus, p_zero = lw.step_distribution(params, 1, 0, 0)
    assert math.isclose(p_plus, 0.6)
    assert math.isclose(p_minus, 0.2)
    assert math.isclose(p_zero, 0.2)


def test_step_distribution_theta_zero_is_memoryless():
    params = lw.ModelParams(0.6, 0.2, 0.2, 0.0)
    for counts in ((3, 1, 1), (0, 0, 9)):
        p_plus, p_minus, p_zero = lw.step_distribution(params, *counts)
        assert math.isclose(p_plus, 0.6)
        assert math.isclose(p_minus, 0.2)
        assert math.isclose(p_zero, 0.2)


def test_step_distribution_all_delays_state():
    params = lw.ModelParams(0.6, 0.2, 0.2, 0.5)
    p_plus, p_minus, p_zero = lw.step_distribution(params, 0, 0, 7)
    assert math.isclose(p_zero, 0.5 * 0.8 + 0.2)
    assert math.isclose(p_plus, 0.5 * 0.6)
    assert math.isclose(p_minus, 0.5 * 0.2)


def test_step_distribution_rejects_empty_history():
    params = lw.ModelParams(0.6, 0.2, 0.2, 0.5)
    with pytest.raises(lw.InvalidState):
        lw.step_distribution(params, 0, 0, 0)


def test_step_distribution_sums_to_one_over_random_states():
    rng = np.random.default_rng(417)
    for _ in range(300):
        w = rng.dirichlet([1.0, 1.0, 1.0])
        params = lw.ModelParams(float(w[0]), float(w[1]), float(w[2]),
                                float(rng.uniform(0.0, 0.999)))
        n = int(rng.integers(1, 2000))
        n_plus = int(rng.integers(0, n + 1))
        n_minus = int(rng.integers(0, n - n_plus + 1))
        probs = lw.step_distribution(params, n_plus, n_minus,
                                     n - n_plus - n_minus)
        assert abs(sum(probs) - 1.0) <= 1e-12
        for v in probs:
            assert 0.0 <= v <= 1.0


def test_p_zero_two_forms_agree():
    # theta*(n0 (p+q)/n + r) + (1-theta)*r collapses to theta n0 (p+q)/n + r
    rng = np.random.default_rng(11)
    for _ in range(200):
        w = rng.dirichlet([1.0, 1.0, 1.0])
        p, q, r = map(float, w)
        theta = float(rng.uniform(0, 0.999))
        n = int(rng.integers(1, 10 ** 6))
        n_zero = int(rng.integers(0, n + 1))
        direct = theta * n_zero * (p + q) / n + r
        expanded = theta * (n_zero * (p + q) / n + r) + (1.0 - theta) * r
        assert math.isclose(direct, expanded, rel_tol=1e-12, abs_tol=1e-15)


def test_step_distribution_rejects_bad_counts_and_sums():
    # ModelParams would refuse r = 0.2 + 1e-9; the kernel must refuse it too
    # rather than rescale a sum 1e-9 off 1
    off = SimpleNamespace(p=0.5, q=0.3, r=0.2 + 1e-9, theta=0.5)
    with pytest.raises(lw.InvalidState, match="sum"):
        lw.step_distribution(off, 2, 1, 1)
    params = lw.ModelParams(0.5, 0.3, 0.2, 0.5)
    for counts in ((-1, 2, 2), (2, -1, 2), (2, 2, -1)):
        with pytest.raises(lw.InvalidState, match=r"^step counts must be >= 0, got -1$"):
            lw.step_distribution(params, *counts)


def test_trajectory_walks_within_simplex_tolerance():
    # p + q + r may miss 1 by SIMPLEX_TOL; the kernel's check allows twice that
    params = lw.ModelParams(0.5, 0.3, 0.2 + 9e-13, 0.7)
    assert params.p + params.q + params.r - 1.0 > 8e-13
    out = lw.simulate_trajectory(params, 2000, lw.RngStream(3, 1), [2000])
    ((n, s, z),) = out
    assert n == 2000 and abs(s) <= z <= 2000


def test_trajectory_all_delays():
    out = lw.simulate_trajectory(lw.ModelParams(0, 0, 1, 0.5), 100,
                                 lw.RngStream(42, 0), [1, 50, 100])
    assert out == [(1, 0, 0), (50, 0, 0), (100, 0, 0)]


def test_trajectory_deterministic_drift():
    out = lw.simulate_trajectory(lw.ModelParams(1, 0, 0, 0.5), 50,
                                 lw.RngStream(42, 3), [50])
    assert out == [(50, 50, 50)]


def test_trajectory_repeatable():
    params = lw.ModelParams(0.6, 0.2, 0.2, 0.5)
    a = lw.simulate_trajectory(params, 500, lw.RngStream(7, 11), [100, 500])
    b = lw.simulate_trajectory(params, 500, lw.RngStream(7, 11), [100, 500])
    assert a == b


def test_trajectory_snapshot_validation():
    params = lw.ModelParams(0.6, 0.2, 0.2, 0.5)
    with pytest.raises(lw.InvalidState):
        lw.simulate_trajectory(params, 10, lw.RngStream(0, 0), [11])


def test_theta_zero_step_frequencies():
    # 1e6 sampled steps against (p, q, r) at 4 binomial sigmas per component
    p, q, r = 0.6, 0.2, 0.2
    batch = lw.Xoshiro256Batch(2024, np.arange(2 ** 12, dtype=np.uint64))
    us = np.concatenate([batch.uniforms() for _ in range(245)])
    n = us.size
    plus = float((us < p).sum()) / n
    minus = float(((us >= p) & (us < p + q)).sum()) / n
    zero = 1.0 - plus - minus
    for freq, prob in ((plus, p), (minus, q), (zero, r)):
        assert abs(freq - prob) <= 4.0 * math.sqrt(prob * (1 - prob) / n)

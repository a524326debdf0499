"""The arithmetic behind the experiments' gates, against independent oracles.

Report digests only show that a number moved. These tests recompute what a
gate compares, from the same seeded samples, by a separate route: numpy's
own quantiles, scipy's kurtosis, the closed-form reference slopes, and the
martingale identity Var(M_far - M_n) = Var M_far - Var M_n read off the
exact moment recursions.
"""

import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

import lapsewalk as lw
from lapsewalk import experiments

SUPER = lw.ModelParams(0.9, 0.0, 0.1, 5.0 / 6.0)  # alpha = 0.75
N, N_TRAJ, SEED = 250, 600, 5


@pytest.fixture(scope="module")
def superdiffusive():
    """The experiment's report and the (w, residuals) sample it walked."""
    report = experiments.superdiffusive_experiment(SUPER, N, N_TRAJ, SEED)
    w, residuals = lw.residual_clt_sample(SUPER, N, N_TRAJ, master_seed=SEED)
    return report, w, residuals


def gate(report, name):
    (g,) = [g for g in report["gates"] if g["name"] == name]
    return g


def test_bootstrap_ci_is_the_99_percent_percentile_interval(superdiffusive):
    report, w, _ = superdiffusive
    rng = np.random.default_rng(20210905)  # the bootstrap's own seed
    variances = [w[rng.integers(0, w.size, w.size)].var(ddof=1)
                 for _ in range(1000)]
    lo, hi = np.quantile(variances, [0.005, 0.995])
    assert lw.bootstrap_variance_ci(w) == pytest.approx((lo, hi), rel=1e-12)
    assert report["results"]["var_w_ci99"] == pytest.approx([lo, hi], rel=1e-12)
    assert gate(report, "w_var_positive")["value"] == pytest.approx(lo, rel=1e-12)


def test_mc_ks_gates_are_the_documented_formulas(superdiffusive):
    # README states each Monte Carlo KS bound; these are its formulas, with
    # the float operations the reports have always written
    t = 50
    clt = experiments.clt_experiment(lw.ModelParams(0.6, 0.2, 0.2, 0.5),
                                     100, t, SEED)
    critical = experiments.critical_experiment(
        lw.ModelParams(0.9, 0.0, 0.1, 0.5 / 0.9), 100, t, SEED)
    assert clt["results"]["mc_gate"] == 0.01 + 1.36 / math.sqrt(t)
    assert critical["results"]["mc_gate"] == 0.03 + 1.63 / math.sqrt(t)
    report = superdiffusive[0]
    assert report["results"]["residual_gate"] == 0.015 + 1.36 / math.sqrt(N_TRAJ)
    for rep, name, key in ((clt, "mc_ks", "mc_gate"),
                           (critical, "mc_ks", "mc_gate"),
                           (report, "residual_ks", "residual_gate")):
        assert gate(rep, name)["bound"] == f"< {rep['results'][key]}"


def test_w_variance_bound_widens_with_the_sample_kurtosis(superdiffusive):
    report, w, _ = superdiffusive
    n = w.size
    kurt = scipy_stats.kurtosis(w, fisher=False)
    want = max(0.05, 4.0 * math.sqrt((kurt - (n - 3) / (n - 1)) / n))
    assert want > 0.05  # the kurtosis term, not the floor, sets the bound
    bound = float(gate(report, "w_var_vs_exact")["bound"].removeprefix("<= "))
    assert math.isclose(bound, want, rel_tol=1e-12)


def test_residual_sd_matches_the_exact_martingale_increment(superdiffusive):
    report, _, residuals = superdiffusive
    results = report["results"]
    raw = residuals * results["theorem_residual_scale"]
    sd = raw.std(ddof=1)
    n = raw.size
    kurt = scipy_stats.kurtosis(raw, fisher=False)
    stderr = sd * math.sqrt((kurt - (n - 3) / (n - 1)) / n) / 2.0
    assert abs(sd - results["exact_residual_sd"]) <= 4.0 * stderr


def test_regime_scan_reference_slopes_closed_forms():
    lo, hi = 2.0 ** 10, 2.0 ** 14
    report = experiments.regime_scan_experiment(0.9, 0.1, 0.0,
                                                [0.25, 0.5, 0.75], n_max=2 ** 14)
    diffusive, critical, superdiffusive = report["results"]["scan"]
    assert [row["regime"] for row in (diffusive, critical, superdiffusive)] == [
        "diffusive", "critical", "superdiffusive"]
    assert diffusive["reference_slope"] == 1.0
    # Var S_n ~ n log n: the secant slope of log(n log n) over [lo, hi]
    assert math.isclose(critical["reference_slope"],
                        1.0 + math.log(math.log(hi) / math.log(lo)) / math.log(hi / lo),
                        rel_tol=1e-12)
    assert math.isclose(superdiffusive["reference_slope"],
                        2.0 * superdiffusive["alpha"], rel_tol=1e-15)

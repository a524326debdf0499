"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavy ensembles are module-scoped fixtures shared between the criterion that
gates them and the determinism criterion (11), which re-runs them with a
different worker count and demands bit-identical results.

Two criteria concern limits that a finite n cannot reach within their stated
tolerances, because the finite-n quantity differs from the limit by a known
deterministic term larger than the tolerance. Each keeps its tolerance and
applies it to a finite-n form of the same statement:

* 3z - E[Z_n]/n - tau/(1-gamma) = (psi - tau/(1-gamma)) b_n/n is ~4.8
  stderr at n = 1e5 with 1e4 trajectories and shrinks like n^(gamma-1),
  slower than the stderr's n^(-1/2). The 4-stderr bound is applied to the
  simulated mean against the exact E[Z_n], and the exact gap must shrink by
  10^(gamma-1) per decade of n.
* 9b - v_n = (pi/4)(log n + C) + O(1/n) at alpha = 1/2 with C ~ 1.017, so
  v_n / log n sits ~7.4% above pi/4 at n = 1e6 and would need n ~ 1e22 to
  come within 2%. The 2% bound is applied to the slope of v_n against
  log n between n = 1e3 and 1e6, and the offset is checked against the
  closed form of C.
"""

import math

import numpy as np
import pytest

import lapsewalk as lw

SEED = 20260808

P_DIFF = lw.ModelParams(0.6, 0.2, 0.2, 0.5)                 # alpha = 0.2
P_CRIT = lw.ModelParams(13 / 15, 1 / 30, 0.1, 0.6)          # alpha = 0.5
P_SUPER = lw.ModelParams(0.9, 0.0, 0.1, 5 / 6)              # alpha = 0.75
P_IID = lw.ModelParams(0.6, 0.2, 0.2, 0.0)                  # alpha = 0

GRID = [
    lw.ModelParams(p, q, r, theta)
    for theta in (0.0, 0.3, 0.7)
    for (p, q, r) in ((0.6, 0.2, 0.2), (0.5, 0.5, 0.0), (0.3, 0.3, 0.4))
]

DIFFUSIVE_LAW_PARAMS = [
    lw.ModelParams(0.5, 0.3, 0.2, 0.5),    # alpha = 0.1
    lw.ModelParams(0.6, 0.2, 0.2, 0.5),    # alpha = 0.2
    lw.ModelParams(0.65, 0.15, 0.2, 0.8),  # alpha = 0.4
]


def report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def lln_ensemble():
    return lw.run_ensemble(P_DIFF, 10 ** 5, 10 ** 4, snapshots=[10 ** 5],
                           master_seed=SEED, workers=1)


@pytest.fixture(scope="module")
def clt_ensemble():
    return lw.run_ensemble(P_DIFF, 10 ** 4, 10 ** 5, snapshots=[10 ** 4],
                           master_seed=SEED, keep_raw=True, workers=1)


@pytest.fixture(scope="module")
def w_estimate():
    return lw.estimate_w(P_SUPER, 10 ** 5, 10 ** 4, master_seed=SEED, workers=1)


@pytest.fixture(scope="module")
def lil_result():
    return lw.lil_diagnostic(P_IID, 10 ** 6, 200, master_seed=SEED, workers=1)


@pytest.fixture(scope="module")
def super_table():
    return lw.exact_moments(P_SUPER, 2 ** 20)


# ---------------------------------------------------------------- criteria

def test_criterion_01_oracle_self_consistency():
    worst_atom = 0.0
    for params in GRID:
        de = lw.enumerate_paths(params, 12)
        dd = lw.distribution_dp(params, 12)
        keys = set(de.mass) | set(dd.mass)
        worst_atom = max(worst_atom, max(
            abs(de.mass.get(k, 0.0) - dd.mass.get(k, 0.0)) for k in keys))
    worst_mom = 0.0
    for params in GRID:
        tab = lw.exact_moments(params, 200)
        for row_dp in lw.dp_moment_scan(params, 200):
            row = tab.row(row_dp.n)
            for f in ("mean_s", "mean_z", "var_s", "mean_sz"):
                a, b = getattr(row, f), getattr(row_dp, f)
                worst_mom = max(worst_mom, abs(a - b) / max(1.0, abs(b)))
    ok = worst_atom <= 1e-12 and worst_mom <= 1e-10
    report(1, "oracle self-consistency", ok,
           f"(atom {worst_atom:.2e}, moment {worst_mom:.2e})")
    assert worst_atom <= 1e-12
    assert worst_mom <= 1e-10


def test_criterion_02_closed_forms():
    worst = 0.0
    n_max = 10 ** 4
    for params in GRID:
        c = lw.derive_constants(params)
        a = lw.a_sequence(c.alpha, n_max)
        b = lw.b_sequence(c.gamma, n_max)
        ns = np.arange(1, n_max + 1, dtype=np.float64)
        closed_s = c.beta * a[1:] + c.omega * (ns - a[1:]) / (1.0 - c.alpha)
        closed_z = c.psi * b[1:] + c.tau * (ns - b[1:]) / (1.0 - c.gamma)
        es, ez = c.beta, c.psi
        for n in range(1, n_max + 1):
            worst = max(worst,
                        abs(closed_s[n - 1] - es) / max(1.0, abs(es)),
                        abs(closed_z[n - 1] - ez) / max(1.0, abs(ez)))
            es = (1.0 + c.alpha / n) * es + c.omega
            ez = (1.0 + c.gamma / n) * ez + c.tau
    ok = worst <= 1e-10
    report(2, "closed-form expectations", ok, f"(worst rel {worst:.2e})")
    assert ok


def test_criterion_03s_lln_position(lln_ensemble):
    n = 10 ** 5
    pred = lw.regime_prediction(P_DIFF)
    acc = lln_ensemble.acc_s[0]
    dev = abs(acc.mean / n - pred.lln_limit)
    ok = dev <= 4.0 * acc.stderr / n
    report("3s", "LLN for S_n/n", ok, f"(dev {dev / (acc.stderr / n):.2f} sigma)")
    assert ok


def test_criterion_03z_lln_activity(lln_ensemble):
    # The LLN Z_n/n -> tau/(1-gamma) is checked in its two finite-n parts,
    # as lln_experiment gates it. (a) The simulated mean sits within 4 stderr
    # of the exact E[Z_n], taken from the O(n) moment recursion. (b) The exact
    # centering gap E[Z_n]/n - tau/(1-gamma) = (psi - tau/(1-gamma)) b_n/n
    # tends to zero like n^(gamma-1). The limit itself cannot be the centre:
    # the gap is ~4.8 stderr at n = 1e5 and shrinks slower than the stderr.
    n = 10 ** 5
    c = lw.derive_constants(P_DIFF)
    pred = lw.regime_prediction(P_DIFF)
    acc = lln_ensemble.acc_z[0]
    tab = lw.exact_moments(P_DIFF, n)
    gap = lambda k: float(tab.mean_z[k]) / k - pred.z_lln_limit
    se = acc.stderr / n
    dev = abs(acc.mean / n - pred.z_lln_limit)
    dev_exact = abs(acc.mean / n - float(tab.mean_z[n]) / n)
    bias = abs(gap(n))
    rate_err = abs(gap(n) / gap(n // 10) / 10.0 ** (c.gamma - 1.0) - 1.0)
    sampler_ok = dev_exact <= 4.0 * se
    rate_ok = rate_err <= 1e-3
    ok = sampler_ok and rate_ok
    report("3z", "LLN for Z_n/n", ok,
           f"(dev from limit {dev / se:.2f} sigma; exact centering gap "
           f"{bias / se:.2f} sigma; dev from exact mean {dev_exact / se:.2f} sigma; "
           f"gap rate rel err {rate_err:.2e})")
    assert sampler_ok
    assert rate_ok


def test_criterion_04_diffusive_variance_law():
    n = 10 ** 6
    ratios = []
    for params in DIFFUSIVE_LAW_PARAMS:
        c = lw.derive_constants(params)
        tab = lw.exact_moments(params, n)
        ratios.append(tab.var_s[n] / (c.phi * n / (1.0 - 2.0 * c.alpha)))
    ok = all(0.95 <= r <= 1.05 for r in ratios)
    report(4, "diffusive variance law", ok,
           "(ratios " + ", ".join(f"{r:.4f}" for r in ratios) + ")")
    assert ok, ratios


def test_criterion_05_critical_variance_law():
    n = 10 ** 6
    c = lw.derive_constants(P_CRIT)
    assert c.regime is lw.Regime.CRITICAL
    tab = lw.exact_moments(P_CRIT, n)
    ratio = tab.var_s[n] / (c.phi * n * math.log(n))
    ok = 0.85 <= ratio <= 1.1
    report(5, "critical variance law", ok, f"(ratio {ratio:.4f})")
    assert ok, ratio


def test_criterion_06_diffusive_clt(clt_ensemble):
    d_exact = lw.ks_distance_cdf(lw.standardized_exact_cdf(P_DIFF, 400))
    n = 10 ** 4
    tab = lw.exact_moments(P_DIFF, n)
    sample = (clt_ensemble.sample_s[0] - tab.mean_s[n]) / math.sqrt(tab.var_s[n])
    d_mc = lw.ks_test_normal(sample).d_stat
    ok = d_exact < 0.03 and d_mc < 0.015
    report(6, "diffusive CLT", ok,
           f"(exact KS {d_exact:.4f}, MC KS {d_mc:.4f})")
    assert d_exact < 0.03
    assert d_mc < 0.015


def test_criterion_07_superdiffusive_scaling(super_table):
    c = lw.derive_constants(P_SUPER)
    ns = np.array([2 ** k for k in range(10, 21)], dtype=np.int64)
    fit = lw.fit_loglog(ns, super_table.var_s[ns])
    norms = lw.growth_values(c.alpha, np.array([10 ** 5, 2 * 10 ** 5]))
    var_m = super_table.var_s[[10 ** 5, 2 * 10 ** 5]] / norms ** 2
    plateau = abs(var_m[1] - var_m[0]) / var_m[0]
    ok = abs(fit.slope - 1.5) <= 0.05 and plateau < 0.01
    report(7, "superdiffusive scaling", ok,
           f"(slope {fit.slope:.4f}, plateau change {plateau:.4%})")
    assert abs(fit.slope - 1.5) <= 0.05
    assert plateau < 0.01


def test_criterion_08_w_limit(w_estimate, super_table):
    c = lw.derive_constants(P_SUPER)
    n = 10 ** 5
    exact_vm = float(super_table.var_s[n]) / lw.growth_values(c.alpha, n) ** 2
    rel = abs(w_estimate.var_w - exact_vm) / exact_vm
    ci_lo, ci_hi = lw.bootstrap_variance_ci(w_estimate.sample, n_boot=1000)
    mean_ok = abs(w_estimate.mean_w) <= 4.0 * w_estimate.stderr
    ok = mean_ok and rel <= 0.05 and ci_lo > 0.0
    report(8, "superdiffusive W", ok,
           f"(mean {w_estimate.mean_w:.4f} +- {w_estimate.stderr:.4f}, "
           f"var rel dev {rel:.4f}, CI99 [{ci_lo:.4f}, {ci_hi:.4f}])")
    assert mean_ok
    assert rel <= 0.05
    assert ci_lo > 0.0


def test_criterion_09a_vn_diffusive_constant():
    n = 10 ** 6
    t = lw.v_sequence(0.3, n)
    lim = math.gamma(1.3) ** 2 / 0.4
    dev = abs(t[n] / n ** 0.4 / lim - 1.0)
    ok = dev <= 0.01
    report("9a", "v_n diffusive constant", ok, f"(dev {dev:.4%})")
    assert ok


def test_criterion_09b_vn_critical_window():
    # v_n = (pi/4)(log n + C) + O(1/n) at alpha = 1/2, so v_n / log n reaches
    # pi/4 only like 1/log n. The slope of v_n against log n carries the rate
    # and the offset C the constant; both are checked at finite n.
    # C = gamma_E + 4 log 2 - 8 G / pi (G Catalan's constant), identified
    # numerically with an Euler-Maclaurin sum to 40 digits; not proved in
    # the paper.
    offset = 1.0173171548947639
    m, n = 10 ** 3, 10 ** 6
    t = lw.v_sequence(0.5, n)
    slope = (t[n] - t[m]) / math.log(n / m)
    slope_dev = abs(slope / (math.pi / 4.0) - 1.0)
    offset_err = abs(t[n] / (math.pi / 4.0) - math.log(n) - offset)
    ok = slope_dev <= 0.02 and offset_err <= 1e-5
    report("9b", "v_n critical window", ok,
           f"(slope {slope:.6f}, pi/4 = {math.pi / 4:.6f}, dev {slope_dev:.2e};"
           f" offset residual {offset_err:.2e})")
    assert slope_dev <= 0.02
    assert offset_err <= 1e-5


def test_criterion_09c_vn_superdiffusive_series():
    got = lw.v_limit_superdiffusive(1.0)
    dev = abs(got - math.pi ** 2 / 6.0)
    ok = dev <= 1e-8
    report("9c", "v_n limit series at alpha=1", ok, f"(abs dev {dev:.2e})")
    assert ok


def test_criterion_10_lil_diagnostic(lil_result):
    med = float(np.median(lil_result.final_stats))
    finite = bool(np.all(np.isfinite(lil_result.running_max)))
    positive = bool(np.all(lil_result.running_max > 0.0))
    ok = finite and positive and 0.3 < med < 1.2
    report(10, "LIL diagnostic band", ok, f"(median {med:.4f})")
    assert finite and positive
    assert 0.3 < med < 1.2


def test_criterion_11_worker_determinism(lln_ensemble, clt_ensemble,
                                         w_estimate, lil_result):
    lln4 = lw.run_ensemble(P_DIFF, 10 ** 5, 10 ** 4, snapshots=[10 ** 5],
                           master_seed=SEED, workers=4)
    clt4 = lw.run_ensemble(P_DIFF, 10 ** 4, 10 ** 5, snapshots=[10 ** 4],
                           master_seed=SEED, keep_raw=True, workers=4)
    w4 = lw.estimate_w(P_SUPER, 10 ** 5, 10 ** 4, master_seed=SEED, workers=4)
    # 200 trajectories are fewer than one default 4096-trajectory block, so
    # blocks of 100 are what put two tasks through a two-process pool
    lil2 = lw.lil_diagnostic(P_IID, 10 ** 6, 200, master_seed=SEED, workers=2,
                             chunk_size=100)
    checks = {
        "lln": lw.ensembles_identical(lln_ensemble, lln4),
        "clt": lw.ensembles_identical(clt_ensemble, clt4),
        "w": (w_estimate.mean_w == w4.mean_w
              and w_estimate.var_w == w4.var_w
              and np.array_equal(w_estimate.sample, w4.sample)),
        "lil": np.array_equal(lil_result.running_max, lil2.running_max),
    }
    ok = all(checks.values())
    report(11, "worker-count determinism", ok, f"({checks})")
    assert ok, checks

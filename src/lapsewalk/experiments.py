"""Experiment drivers: seeded Monte Carlo (or exact recursion) runs checked
against the corresponding limit-theorem prediction, reported as plain dicts
with explicit PASS/FAIL gates. The CLI serializes these; tests call them
directly.
"""

import math
from dataclasses import asdict

import numpy as np

from .analytic import (
    expected_s,
    expected_z,
    growth_values,
    regime_prediction,
    v_limit_superdiffusive,
)
from .ensemble import (
    bootstrap_variance_ci,
    estimate_w,
    lil_diagnostic,
    martingale_track,
    residual_clt_sample,
    run_ensemble,
)
from .errors import Degenerate, WrongRegime
from .exact import DP_CAP_DEFAULT, exact_moments, standardized_exact_cdf
from .model import ModelParams, Regime, derive_constants
from .stats import fit_loglog, ks_distance_cdf, ks_test_normal

SIGMA_GATE = 4.0
EXACT_KS_GATE = 0.03               # clt: KS distance of the exact law
CRITICAL_VAR_BAND = (0.85, 1.1)    # critical: Var(S_n) / (phi n log n)
W_VAR_TOL = 0.05                   # superdiffusive: floor of the Var(W) bound
SLOPE_TOL = 0.05                   # superdiffusive: Var(S_n) exponent vs 2 alpha
SCAN_SLOPE_TOL = 0.12              # regime-scan: fitted exponent vs theory
SLOPE_FIT_MIN = 4                  # superdiffusive: fewest dyadic n to fit


def slope_fit_ns(n_far):
    """The dyadic n at which the superdiffusive experiment fits Var(S_n)'s
    exponent; fewer than SLOPE_FIT_MIN of them means no fit."""
    return [2 ** k for k in range(10, 21) if 2 ** k <= n_far]


def model_sections(params: ModelParams) -> dict:
    """The "params" and "derived" sections of a report on one model point."""
    c = derive_constants(params)
    derived = asdict(c)
    derived["regime"] = c.regime.value
    return {"params": asdict(params), "derived": derived}


def _report(kind, params, results, **config):
    return {"kind": kind, **model_sections(params), "config": config,
            "results": results}


def _gate(name, value, bound, ok):
    return {"name": name, "value": value, "bound": bound, "pass": bool(ok)}


def _finish(report, gates):
    report["gates"] = gates
    report["pass"] = all(g["pass"] for g in gates) if gates else None
    return report


def _require_nondegenerate(params):
    c = derive_constants(params)
    if c.phi <= 0.0:
        raise Degenerate("phi = 0: standardized experiments refuse these parameters")
    return c


def _snapshot_stats(ensemble):
    rows = []
    for i, n in enumerate(ensemble.snapshots):
        a_s, a_z = ensemble.acc_s[i], ensemble.acc_z[i]
        rows.append({
            "n": int(n), "count": a_s.count,
            "mean_s": a_s.mean, "var_s": a_s.variance,
            "min_s": a_s.min, "max_s": a_s.max,
            "mean_z": a_z.mean, "var_z": a_z.variance,
        })
    return rows


def lln_experiment(params, n_steps, n_traj, master_seed, workers=1,
                   snapshots=None) -> dict:
    """Ensemble mean of S_n/n and Z_n/n against their a.s. limits.

    Two gates per walk statistic: the sample mean must sit within 4 stderr
    of the exact finite-n expectation (the unbiased check of the sampler),
    and within 4 stderr plus the exact centering gap of the limit itself
    (the limit-theorem check: at finite n the expectation differs from the
    limit by the deterministic term (beta - limit) a_n / n, which is far
    above Monte Carlo resolution in the superdiffusive regime).
    """
    pred = regime_prediction(params)
    ens = run_ensemble(params, n_steps, n_traj, snapshots=snapshots,
                       master_seed=master_seed, workers=workers)
    acc_s, acc_z = ens.acc_s[-1], ens.acc_z[-1]
    n = ens.snapshots[-1]
    exact_s = float(expected_s(params, n)) / n
    exact_z = float(expected_z(params, n)) / n
    se_s = acc_s.stderr / n
    se_z = acc_z.stderr / n
    dev_s = abs(acc_s.mean / n - pred.lln_limit)
    dev_z = abs(acc_z.mean / n - pred.z_lln_limit)
    gap_s = abs(exact_s - pred.lln_limit)
    gap_z = abs(exact_z - pred.z_lln_limit)
    report = _report("lln", params, {
        "predicted": pred.lln_limit,
        "z_predicted": pred.z_lln_limit,
        "mean_s_over_n": acc_s.mean / n,
        "mean_z_over_n": acc_z.mean / n,
        "stderr_s_over_n": se_s,
        "stderr_z_over_n": se_z,
        "exact_mean_s_over_n": exact_s,
        "exact_mean_z_over_n": exact_z,
        "centering_gap_s": gap_s,
        "centering_gap_z": gap_z,
        "snapshots": _snapshot_stats(ens),
    }, n_steps=n_steps, n_traj=n_traj, master_seed=master_seed, workers=workers)
    gates = [
        _gate("lln_s_sampler", abs(acc_s.mean / n - exact_s),
              f"<= {SIGMA_GATE} stderr = {SIGMA_GATE * se_s!r}",
              abs(acc_s.mean / n - exact_s) <= SIGMA_GATE * se_s),
        _gate("lln_s_limit", dev_s,
              f"<= {SIGMA_GATE} stderr + centering gap = {SIGMA_GATE * se_s + gap_s!r}",
              dev_s <= SIGMA_GATE * se_s + gap_s),
        _gate("lln_z_sampler", abs(acc_z.mean / n - exact_z),
              f"<= {SIGMA_GATE} stderr = {SIGMA_GATE * se_z!r}",
              abs(acc_z.mean / n - exact_z) <= SIGMA_GATE * se_z),
        _gate("lln_z_limit", dev_z,
              f"<= {SIGMA_GATE} stderr + centering gap = {SIGMA_GATE * se_z + gap_z!r}",
              dev_z <= SIGMA_GATE * se_z + gap_z),
    ]
    return _finish(report, gates)


def _clt_core(params, n_steps, n_traj, master_seed, workers, gate,
              exact_gate, dp_cap, kind):
    """Shared CLT machinery: exact-CDF KS (when feasible) + Monte Carlo KS.

    The Monte Carlo sample is standardized by the exact mean and variance
    from the moment recursions; the theorem's asymptotic scale is reported
    alongside for comparison.
    """
    _require_nondegenerate(params)
    pred = regime_prediction(params)
    (row,) = exact_moments(params, n_steps, ns=[n_steps])
    mean_n, var_n = row.mean_s, row.var_s
    results = {
        "exact_mean": mean_n,
        "exact_var": var_n,
        "theorem_scale_var": pred.variance_scale(n_steps),
        "var_ratio": var_n / pred.variance_scale(n_steps),
        "scale_formula": pred.scale_formula,
    }
    gates = []
    if exact_gate is not None and n_steps <= dp_cap:
        d_exact = ks_distance_cdf(standardized_exact_cdf(params, n_steps, cap=dp_cap))
        results["exact_cdf_ks"] = d_exact
        gates.append(_gate("exact_cdf_ks", d_exact, f"< {exact_gate}",
                           d_exact < exact_gate))
    if n_traj > 0:
        ens = run_ensemble(params, n_steps, n_traj, snapshots=[n_steps],
                           master_seed=master_seed, keep_raw=True,
                           workers=workers)
        sample = (ens.sample_s[0] - mean_n) / math.sqrt(var_n)
        ks = ks_test_normal(sample)
        if gate is None:
            gate = 0.01 + 1.36 / math.sqrt(ks.sample_size)
        results["mc_ks"] = ks.d_stat
        results["mc_ks_pvalue"] = ks.p_value
        results["mc_sample_size"] = ks.sample_size
        results["mc_gate"] = gate
        # compact ECDF (129 quantiles) so reports stay small but plottable
        qs = np.linspace(0.0, 1.0, 129)
        results["ecdf_x"] = [float(v) for v in np.quantile(sample, qs)]
        results["ecdf_f"] = [float(v) for v in qs]
        gates.append(_gate("mc_ks", ks.d_stat, f"< {gate}", ks.d_stat < gate))
    report = _report(kind, params, results, n_steps=n_steps, n_traj=n_traj,
                     master_seed=master_seed, workers=workers)
    return report, gates


def clt_experiment(params, n_steps, n_traj, master_seed, workers=1,
                   gate=None, dp_cap=DP_CAP_DEFAULT) -> dict:
    """Diffusive CLT: standardized S_n against N(0,1)."""
    c = derive_constants(params)
    if c.regime is not Regime.DIFFUSIVE:
        raise WrongRegime(f"clt experiment needs alpha < 1/2, regime is {c.regime.value}")
    report, gates = _clt_core(params, n_steps, n_traj, master_seed, workers,
                              gate, EXACT_KS_GATE, dp_cap, "clt")
    return _finish(report, gates)


def critical_experiment(params, n_steps, n_traj, master_seed, workers=1,
                        gate=None, dp_cap=DP_CAP_DEFAULT) -> dict:
    """Critical regime: Var(S_n)/(phi n log n) band plus the CLT check.

    At alpha = 1/2 the standardized law approaches normal only at rate
    O(1/log n) (exact KS ~ 0.05 at n = 400), so the default KS gate is
    looser than the diffusive one.
    """
    c = derive_constants(params)
    if c.regime is not Regime.CRITICAL:
        raise WrongRegime(f"critical experiment needs alpha = 1/2, got {c.alpha!r}")
    if gate is None and n_traj > 0:
        gate = 0.03 + 1.63 / math.sqrt(n_traj)
    report, gates = _clt_core(params, n_steps, n_traj, master_seed, workers,
                              gate, None, dp_cap, "critical")
    ratio = report["results"]["var_ratio"]
    lo, hi = CRITICAL_VAR_BAND
    gates.insert(0, _gate("variance_law", ratio, f"in [{lo}, {hi}]",
                          lo <= ratio <= hi))
    return _finish(report, gates)


def superdiffusive_experiment(params, n_steps, n_traj, master_seed,
                              workers=1, horizon_factor=16, gate=None) -> dict:
    """Superdiffusive regime: W estimate, variance scaling, residual CLT.

    Residuals use the per-trajectory proxy W_hat taken at the far horizon;
    the KS gate is applied after rescaling by the exact residual deviation
    a_n sqrt(Var M_far - Var M_n) from the moment recursions, which removes
    the variance the proxy cannot see (the theorem's own scale
    sqrt(phi n / (2 alpha - 1)) is reported unrescaled as well).
    """
    c = derive_constants(params)
    if c.regime is not Regime.SUPERDIFFUSIVE:
        raise WrongRegime(f"superdiffusive experiment needs alpha > 1/2, got {c.alpha!r}")
    _require_nondegenerate(params)
    # before the Monte Carlo work, so a bad alpha fails before any sampling
    v_inf = v_limit_superdiffusive(c.alpha, 1e-10)
    pred = regime_prediction(params)
    n_far = horizon_factor * n_steps

    ns = slope_fit_ns(n_far)
    var_s = {row.n: row.var_s
             for row in exact_moments(params, n_far, ns=[n_steps, n_far, *ns])}
    norm = growth_values(c.alpha, np.array([n_steps, n_far], dtype=np.int64))
    var_m_n = var_s[n_steps] / norm[0] ** 2
    var_m_far = var_s[n_far] / norm[1] ** 2

    west = estimate_w(params, n_steps, n_traj, master_seed=master_seed,
                      workers=workers)
    ci_lo, ci_hi = bootstrap_variance_ci(west.sample)
    var_rel = abs(west.var_w - var_m_n) / var_m_n
    # the sample variance itself fluctuates with relative stderr
    # sqrt((kurtosis - (n-3)/(n-1)) / n); widen the tolerance to 4 of those
    # when n_traj is small so the gate stays a ~4 sigma statement
    w = west.sample
    kurt = n_traj * float(((w - w.mean()) ** 4).sum()) / float(
        ((w - w.mean()) ** 2).sum()) ** 2
    var_se_rel = math.sqrt(max(kurt - (n_traj - 3) / (n_traj - 1), 0.0) / n_traj)
    var_bound = max(W_VAR_TOL, SIGMA_GATE * var_se_rel)

    residuals = residual_clt_sample(params, n_steps, n_traj,
                                    master_seed=master_seed,
                                    horizon_factor=horizon_factor,
                                    workers=workers)
    ks_raw = ks_test_normal(residuals)
    theorem_scale = math.sqrt(pred.residual_scale(n_steps))
    exact_resid_sd = float(norm[0]) * math.sqrt(var_m_far - var_m_n)
    rescaled = residuals * (theorem_scale / exact_resid_sd)
    ks_rescaled = ks_test_normal(rescaled)
    if gate is None:
        gate = 0.015 + 1.36 / math.sqrt(n_traj)

    # exact Var(S_n) scaling over dyadic n (skip if horizon too short)
    slope_gate = None
    if len(ns) >= SLOPE_FIT_MIN:
        vars_at_ns = np.array([var_s[n] for n in ns])
        fit = fit_loglog(np.array(ns), vars_at_ns)
        slope_gate = _gate("variance_slope", fit.slope,
                           f"within {SLOPE_TOL} of {2 * c.alpha!r}",
                           abs(fit.slope - 2.0 * c.alpha) <= SLOPE_TOL)
        slope_results = {"slope": fit.slope, "slope_stderr": fit.stderr_slope,
                         "slope_intercept": fit.intercept,
                         "slope_r2": fit.r2, "slope_ns": ns,
                         "slope_vars": [float(v) for v in vars_at_ns]}
    else:
        slope_results = {"slope": None, "slope_ns": ns}

    report = _report("superdiffusive", params, {
        "mean_w": west.mean_w, "stderr_w": west.stderr,
        "var_w": west.var_w,
        "var_w_ci99": [ci_lo, ci_hi],
        "exact_var_m": var_m_n,
        "exact_var_m_far": var_m_far,
        "v_limit": v_inf,
        # diagnostic: the asymptotic clock bound phi v_inf overshoots
        # Var(W) by the early-step transient, so only for orientation
        "phi_v_limit": c.phi * v_inf,
        "residual_ks_raw": ks_raw.d_stat,
        "residual_ks_rescaled": ks_rescaled.d_stat,
        "residual_gate": gate,
        "theorem_residual_scale": theorem_scale,
        "exact_residual_sd": exact_resid_sd,
        **slope_results,
    }, n_steps=n_steps, n_traj=n_traj, master_seed=master_seed, workers=workers,
        horizon_factor=horizon_factor)
    gates = [
        _gate("w_mean", abs(west.mean_w),
              f"<= {SIGMA_GATE} stderr = {SIGMA_GATE * west.stderr!r}",
              abs(west.mean_w) <= SIGMA_GATE * west.stderr),
        _gate("w_var_positive", ci_lo, "> 0 (99% bootstrap CI)", ci_lo > 0.0),
        _gate("w_var_vs_exact", var_rel, f"<= {var_bound}", var_rel <= var_bound),
        _gate("residual_ks", ks_rescaled.d_stat, f"< {gate}",
              ks_rescaled.d_stat < gate),
    ]
    if slope_gate is not None:
        gates.append(slope_gate)
    return _finish(report, gates)


def regime_scan_experiment(p, q, r, alphas, n_max=2 ** 20) -> dict:
    """Deterministic sweep: fitted Var(S_n) exponent per alpha vs theory.

    theta is solved from alpha = (p - q) theta for the fixed (p, q, r); the
    critical point's reference slope includes the log factor's effective
    contribution over the fitted window.
    """
    ModelParams(p, q, r, 0.0)  # validates the simplex up front
    ns = np.array([2 ** k for k in range(10, 25) if 2 ** k <= n_max],
                  dtype=np.int64)
    rows = []
    gates = []
    for alpha in alphas:
        theta = alpha / (p - q)
        params = ModelParams(p, q, r, theta)
        c = derive_constants(params)
        moments = exact_moments(params, int(ns[-1]), ns=ns)
        fit = fit_loglog(ns, np.array([row.var_s for row in moments]))
        if c.regime is Regime.CRITICAL:
            lo, hi = float(ns[0]), float(ns[-1])
            ref = math.log((hi * math.log(hi)) / (lo * math.log(lo))) / math.log(hi / lo)
        elif c.regime is Regime.DIFFUSIVE:
            ref = 1.0
        else:
            ref = 2.0 * c.alpha
        ok = abs(fit.slope - ref) <= SCAN_SLOPE_TOL
        rows.append({
            "alpha": c.alpha, "theta": theta, "regime": c.regime.value,
            "phi": c.phi, "slope": fit.slope, "reference_slope": ref,
            "r2": fit.r2,
        })
        gates.append(_gate(f"slope_alpha_{alpha:g}", fit.slope,
                           f"within {SCAN_SLOPE_TOL} of {ref!r}", ok))
    report = {
        "kind": "regime-scan",
        "params": {"p": p, "q": q, "r": r, "theta": None},
        "config": {"alphas": list(alphas), "n_max": int(ns[-1])},
        "results": {"scan": rows, "fit_ns": [int(n) for n in ns]},
    }
    return _finish(report, gates)


def lil_experiment(params, n_max, n_traj, master_seed, workers=1) -> dict:
    """Iterated-logarithm diagnostic trace; reported without a gate."""
    diag = lil_diagnostic(params, n_max, n_traj, master_seed=master_seed,
                          workers=workers)
    med = diag.median_trace()
    report = _report("lil-diagnostic", params, {
        "snapshots": [int(n) for n in diag.snapshots],
        "envelopes": [float(e) for e in diag.envelopes],
        "median_running_max": [float(m) for m in med],
        "final_median": float(med[-1]),
        "final_quantiles": {
            "q10": float(np.quantile(diag.final_stats, 0.10)),
            "q50": float(np.quantile(diag.final_stats, 0.50)),
            "q90": float(np.quantile(diag.final_stats, 0.90)),
        },
    }, n_max=n_max, n_traj=n_traj, master_seed=master_seed, workers=workers)
    return _finish(report, [])


def simulate_report(params, n_steps, n_traj, master_seed, snapshots=None,
                    workers=1) -> dict:
    """Plain ensemble summary (the `simulate` command's payload)."""
    ens = run_ensemble(params, n_steps, n_traj, snapshots=snapshots,
                       master_seed=master_seed, workers=workers)
    rows = _snapshot_stats(ens)
    if derive_constants(params).alpha >= 0.0:
        for row, acc in zip(rows, martingale_track(params, ens)):
            row["mean_m"] = acc.mean
            row["var_m"] = acc.variance
    return _report("simulate", params, {"snapshots": rows}, n_steps=n_steps,
                   n_traj=n_traj, master_seed=master_seed, workers=workers)

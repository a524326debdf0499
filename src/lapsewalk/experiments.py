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
    HORIZON_FACTOR,
    WEstimate,
    bootstrap_variance_ci,
    lil_diagnostic,
    martingale_track,
    residual_clt_sample,
    run_ensemble,
)
from .errors import (CapExceeded, Degenerate, InvalidState, OutOfDomain,
                     SampleTooSmall)
from .exact import DP_CAP, exact_moments, standardized_exact_cdf
from .model import ModelParams, Regime, derive_constants
from .stats import KS_MIN_POINTS, fit_loglog, ks_distance_cdf, ks_test_normal

SIGMA_GATE = 4.0
EXACT_KS_GATE = 0.03               # clt: KS distance of the exact law
CRITICAL_VAR_BAND = (0.85, 1.1)    # critical: Var(S_n) / (phi n log n)
W_VAR_TOL = 0.05                   # superdiffusive: floor of the Var(W) bound
SLOPE_TOL = 0.05                   # superdiffusive: Var(S_n) exponent vs 2 alpha
SCAN_SLOPE_TOL = 0.12              # regime-scan: fitted exponent vs theory
SLOPE_FIT_MIN = 4                  # superdiffusive: fewest dyadic n to fit
# kind -> (offset, coefficient) of its Monte Carlo KS bound
# offset + coefficient / sqrt(n_traj). critical's is looser: at alpha = 1/2
# the law nears normal only at rate O(1/log n) (exact KS ~ 0.05 at n = 400)
MC_KS_GATES = {"clt": (0.01, 1.36), "critical": (0.03, 1.63),
               "superdiffusive": (0.015, 1.36)}


def _mc_ks_gate(kind, n_traj):
    """Experiment kind's Monte Carlo KS bound at n_traj trajectories; a
    sample the KS test would refuse is refused here, before any work."""
    if n_traj < KS_MIN_POINTS:
        raise SampleTooSmall(f"the KS gate needs trajectories >= "
                             f"{KS_MIN_POINTS}, got {n_traj}")
    offset, coefficient = MC_KS_GATES[kind]
    return offset + coefficient / math.sqrt(n_traj)


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


def _ints(**config):
    """A report's sizes, counts and seed as Python ints: a numpy integer
    argument would leave the report unwritable as JSON."""
    return {key: int(value) for key, value in config.items()}


def _report(kind, params, results, **config):
    return {"kind": kind, **model_sections(params), "config": _ints(**config),
            "results": results}


def _gate(name, value, op, limit, shown="{!r}"):
    """One gate record; its verdict and its bound text read the same limit.

    op is one of:
      "<", "<=", ">"  value against the number limit; shown places the
                      limit in the bound text after the op
      "in"            limit = (lo, hi): lo <= value <= hi
      "within"        limit = (center, tol): |value - center| <= tol
    """
    if op == "in":
        ok, bound = limit[0] <= value <= limit[1], "in [{!r}, {!r}]".format(*limit)
    elif op == "within":
        ok = abs(value - limit[0]) <= limit[1]
        bound = "within {1!r} of {0!r}".format(*limit)
    else:
        ok = {"<": value < limit, "<=": value <= limit, ">": value > limit}[op]
        bound = f"{op} {shown.format(limit)}"
    return {"name": name, "value": value, "bound": bound, "pass": bool(ok)}


def _finish(report, gates):
    report["gates"] = gates
    report["pass"] = all(g["pass"] for g in gates) if gates else None
    return report


def _require_nondegenerate(params):
    if derive_constants(params).phi <= 0.0:
        raise Degenerate("phi = 0: standardized experiments refuse these parameters")


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


def lln_experiment(params, n_steps, n_traj, master_seed, workers=1) -> dict:
    """Ensemble mean of S_n/n and Z_n/n against their a.s. limits.

    Two gates per walk statistic: the sample mean must sit within 4 stderr
    of the exact finite-n expectation (the unbiased check of the sampler),
    and within 4 stderr plus the exact centering gap of the limit itself
    (the limit-theorem check: at finite n the expectation differs from the
    limit by the deterministic term (beta - limit) a_n / n, which is far
    above Monte Carlo resolution in the superdiffusive regime). The walk is
    summarized on the dyadic grid up to n, so the gates judge n itself.
    """
    if n_traj < 2:  # with one trajectory the stderr is 0
        raise SampleTooSmall(f"the stderr gates need trajectories >= 2, got {n_traj}")
    pred = regime_prediction(params)
    ens = run_ensemble(params, n_steps, n_traj, master_seed=master_seed,
                       workers=workers)
    # run_ensemble checked it; a numpy int would make the gates' bounds
    # numpy floats, whose text reads np.float64(...)
    n_steps = int(n_steps)
    results = {"predicted": pred.lln_limit, "z_predicted": pred.z_lln_limit,
               "snapshots": _snapshot_stats(ens)}
    gates = []
    for x, acc, expected, limit in (
            ("s", ens.acc_s[-1], expected_s, pred.lln_limit),
            ("z", ens.acc_z[-1], expected_z, pred.z_lln_limit)):
        exact = float(expected(params, n_steps)) / n_steps
        mean, se = acc.mean / n_steps, acc.stderr / n_steps
        gap = abs(exact - limit)
        results.update({
            f"mean_{x}_over_n": mean,
            f"stderr_{x}_over_n": se,
            f"exact_mean_{x}_over_n": exact,
            f"centering_gap_{x}": gap,
        })
        gates += [
            _gate(f"lln_{x}_sampler", abs(mean - exact), "<=", SIGMA_GATE * se,
                  f"{SIGMA_GATE} stderr = {{!r}}"),
            _gate(f"lln_{x}_limit", abs(mean - limit), "<=", SIGMA_GATE * se + gap,
                  f"{SIGMA_GATE} stderr + centering gap = {{!r}}"),
        ]
    report = _report("lln", params, results, n_steps=n_steps, n_traj=n_traj,
                     master_seed=master_seed, workers=workers)
    return _finish(report, gates)


def _clt_core(params, n_steps, n_traj, master_seed, workers, kind,
              exact_gate=None):
    """Shared CLT machinery: exact-CDF KS (when feasible) + Monte Carlo KS.

    The Monte Carlo sample is standardized by the exact mean and variance
    from the moment recursions; the theorem's asymptotic scale is reported
    alongside for comparison. n_traj = 0 runs the exact part only.
    """
    _require_nondegenerate(params)
    gate = _mc_ks_gate(kind, n_traj) if n_traj != 0 else None
    pred = regime_prediction(params)
    (row,) = exact_moments(params, n_steps, ns=[n_steps], cross=False)
    mean_n, var_n = row.mean_s, row.var_s
    results = {
        "exact_mean": mean_n,
        "exact_var": var_n,
        "theorem_scale_var": pred.variance_scale(n_steps),
        "var_ratio": var_n / pred.variance_scale(n_steps),
        "scale_formula": pred.scale_formula,
    }
    gates = []
    if exact_gate is not None and n_steps <= DP_CAP:
        d_exact = ks_distance_cdf(standardized_exact_cdf(params, n_steps))
        results["exact_cdf_ks"] = d_exact
        gates.append(_gate("exact_cdf_ks", d_exact, "<", exact_gate))
    if gate is not None:
        ens = run_ensemble(params, n_steps, n_traj, snapshots=[n_steps],
                           master_seed=master_seed, keep_raw=True,
                           workers=workers)
        sample = (ens.sample_s[0] - mean_n) / math.sqrt(var_n)
        ks = ks_test_normal(sample)
        results["mc_ks"] = ks.d_stat
        results["mc_ks_pvalue"] = ks.p_value
        results["mc_sample_size"] = ks.sample_size
        results["mc_gate"] = gate
        # compact ECDF (129 quantiles) so reports stay small but plottable
        qs = np.linspace(0.0, 1.0, 129)
        results["ecdf_x"] = [float(v) for v in np.quantile(sample, qs)]
        results["ecdf_f"] = [float(v) for v in qs]
        gates.append(_gate("mc_ks", ks.d_stat, "<", gate))
    report = _report(kind, params, results, n_steps=n_steps, n_traj=n_traj,
                     master_seed=master_seed, workers=workers)
    return report, gates


def clt_experiment(params, n_steps, n_traj, master_seed, workers=1) -> dict:
    """Diffusive CLT: standardized S_n against N(0,1)."""
    c = derive_constants(params)
    if c.regime is not Regime.DIFFUSIVE:
        raise OutOfDomain(f"clt experiment needs alpha < 1/2, regime is {c.regime.value}")
    # at t = 0 the exact-law KS gate is the only gate, and it needs the DP
    if n_traj == 0 and n_steps > DP_CAP:
        raise CapExceeded(f"n = {n_steps} above the DP cap {DP_CAP}: no gate at t = 0")
    report, gates = _clt_core(params, n_steps, n_traj, master_seed, workers,
                              "clt", EXACT_KS_GATE)
    return _finish(report, gates)


def critical_experiment(params, n_steps, n_traj, master_seed, workers=1) -> dict:
    """Critical regime: Var(S_n)/(phi n log n) band plus the CLT check."""
    c = derive_constants(params)
    if c.regime is not Regime.CRITICAL:
        raise OutOfDomain(f"critical experiment needs alpha = 1/2, got {c.alpha!r}")
    if n_steps < 2:
        raise Degenerate(f"critical experiment needs n >= 2: the scale "
                         f"phi n log n is 0 at n = {n_steps}")
    report, gates = _clt_core(params, n_steps, n_traj, master_seed, workers,
                              "critical")
    gates.insert(0, _gate("variance_law", report["results"]["var_ratio"], "in",
                          CRITICAL_VAR_BAND))
    return _finish(report, gates)


def superdiffusive_experiment(params, n_steps, n_traj, master_seed, workers=1) -> dict:
    """Superdiffusive regime: W estimate, variance scaling, residual CLT.

    One walk to the far horizon gives both samples: M_n per trajectory for
    the W estimate, and the residuals around the per-trajectory proxy W_hat
    taken at the far horizon. The KS gate is applied after rescaling by the
    exact residual deviation a_n sqrt(Var M_far - Var M_n) from the moment
    recursions, which removes the variance the proxy cannot see (the
    theorem's own scale sqrt(phi n / (2 alpha - 1)) is reported unrescaled
    as well).
    """
    c = derive_constants(params)
    if c.regime is not Regime.SUPERDIFFUSIVE:
        raise OutOfDomain(f"superdiffusive experiment needs alpha > 1/2, got {c.alpha!r}")
    _require_nondegenerate(params)
    gate = _mc_ks_gate("superdiffusive", n_traj)
    # before the Monte Carlo work, so a bad alpha fails before any sampling
    v_inf = v_limit_superdiffusive(c.alpha)
    pred = regime_prediction(params)
    n_far = HORIZON_FACTOR * n_steps

    ns = slope_fit_ns(n_far)
    var_s = {row.n: row.var_s
             for row in exact_moments(params, n_far, ns=[n_steps, n_far, *ns],
                                      cross=False)}
    norm = growth_values(c.alpha, np.array([n_steps, n_far], dtype=np.int64))
    var_m_n = var_s[n_steps] / norm[0] ** 2
    var_m_far = var_s[n_far] / norm[1] ** 2

    w, residuals = residual_clt_sample(params, n_steps, n_traj,
                                       master_seed=master_seed,
                                       workers=workers)
    west = WEstimate.from_sample(w)
    ci_lo, ci_hi = bootstrap_variance_ci(w)
    var_rel = abs(west.var_w - var_m_n) / var_m_n
    # the sample variance itself fluctuates with relative stderr
    # sqrt((kurtosis - (n-3)/(n-1)) / n); widen the tolerance to 4 of those
    # when n_traj is small so the gate stays a ~4 sigma statement
    kurt = n_traj * float(((w - w.mean()) ** 4).sum()) / float(
        ((w - w.mean()) ** 2).sum()) ** 2
    var_se_rel = math.sqrt(max(kurt - (n_traj - 3) / (n_traj - 1), 0.0) / n_traj)
    var_bound = max(W_VAR_TOL, SIGMA_GATE * var_se_rel)

    ks_raw = ks_test_normal(residuals)
    theorem_scale = math.sqrt(pred.variance_scale(n_steps))
    exact_resid_sd = float(norm[0]) * math.sqrt(var_m_far - var_m_n)
    rescaled = residuals * (theorem_scale / exact_resid_sd)
    ks_rescaled = ks_test_normal(rescaled)

    # exact Var(S_n) scaling over dyadic n (skip if horizon too short)
    slope_gate = None
    if len(ns) >= SLOPE_FIT_MIN:
        vars_at_ns = np.array([var_s[n] for n in ns])
        fit = fit_loglog(np.array(ns), vars_at_ns)
        slope_gate = _gate("variance_slope", fit.slope, "within",
                           (2.0 * c.alpha, SLOPE_TOL))
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
        horizon_factor=HORIZON_FACTOR)
    gates = [
        _gate("w_mean", abs(west.mean_w), "<=", SIGMA_GATE * west.stderr,
              f"{SIGMA_GATE} stderr = {{!r}}"),
        _gate("w_var_positive", ci_lo, ">", 0, "{!r} (99% bootstrap CI)"),
        _gate("w_var_vs_exact", var_rel, "<=", var_bound),
        _gate("residual_ks", ks_rescaled.d_stat, "<", gate),
    ]
    if slope_gate is not None:
        gates.append(slope_gate)
    return _finish(report, gates)


def regime_scan_experiment(p, q, r, alphas, n_max=2 ** 20) -> dict:
    """Deterministic sweep: fitted Var(S_n) exponent per alpha vs theory.

    theta is solved from alpha = (p - q) theta for the fixed (p, q, r); the
    critical point's reference slope includes the log factor's effective
    contribution over the fitted window. An alpha that no theta in [0, 1)
    reaches is refused before any moments run.
    """
    ModelParams(p, q, r, 0.0)  # validates the simplex up front
    if p == q:
        raise InvalidState("regime-scan solves theta = alpha / (p - q), but at "
                           "p = q alpha is 0 for every theta")
    if not alphas:
        raise InvalidState("--alphas: no alpha values to scan")
    ns = np.array([2 ** k for k in range(10, 25) if 2 ** k <= n_max],
                  dtype=np.int64)
    if ns.size < 3:
        raise InvalidState(f"--n-max = {n_max} leaves {ns.size} dyadic n from "
                           "1024 up; the log-log fit needs 3, so n_max >= 4096")
    beta = p - q
    for alpha in alphas:
        if alphas.count(alpha) > 1:
            raise InvalidState(f"--alphas: {alpha!r} is listed more than once")
        if not 0.0 <= alpha / beta < 1.0:
            raise InvalidState(f"--alphas: no theta in [0, 1) gives alpha = "
                               f"{alpha!r} = (p - q) theta at p - q = {beta!r}")
    rows, gates = [], []
    for alpha in alphas:
        theta = alpha / beta
        params = ModelParams(p, q, r, theta)
        c = derive_constants(params)
        moments = exact_moments(params, int(ns[-1]), ns=ns, cross=False)
        fit = fit_loglog(ns, np.array([row.var_s for row in moments]))
        if c.regime is Regime.CRITICAL:
            lo, hi = float(ns[0]), float(ns[-1])
            ref = math.log((hi * math.log(hi)) / (lo * math.log(lo))) / math.log(hi / lo)
        elif c.regime is Regime.DIFFUSIVE:
            ref = 1.0
        else:
            ref = 2.0 * c.alpha
        rows.append({
            "alpha": c.alpha, "theta": theta, "regime": c.regime.value,
            "phi": c.phi, "slope": fit.slope, "reference_slope": ref,
            "r2": fit.r2,
        })
        gates.append(_gate(f"slope_alpha_{alpha!r}", fit.slope, "within",
                           (ref, SCAN_SLOPE_TOL)))
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
    """Plain ensemble summary: the sections of the `simulate` command's
    report."""
    ens = run_ensemble(params, n_steps, n_traj, snapshots=snapshots,
                       master_seed=master_seed, workers=workers)
    rows = _snapshot_stats(ens)
    if derive_constants(params).alpha >= 0.0:
        for row, acc in zip(rows, martingale_track(params, ens)):
            row["mean_m"] = acc.mean
            row["var_m"] = acc.variance
    return {**model_sections(params), "results": {"snapshots": rows},
            "config": _ints(n_steps=n_steps, n_traj=n_traj,
                            master_seed=master_seed, workers=workers)}

"""The superdiffusive regime: the scaled walk converges to a random limit.

For alpha > 1/2 the martingale M_n = (S_n - E S_n)/a_n settles down to a
nondegenerate random variable W: the walk's large-scale behaviour is frozen
in early steps. We estimate W's variance by Monte Carlo, cross-check it
against the exact recursion, verify the n^(2 alpha) variance scaling, and
look at the Gaussian residual around the proxy limit.
"""

import math

import numpy as np

import lapsewalk as lw

params = lw.ModelParams(0.9, 0.0, 0.1, 5 / 6)  # alpha = 0.75
c = lw.derive_constants(params)
print(f"alpha = {c.alpha:.3f} ({c.regime.value}), phi = {c.phi:.3f}")
print(f"variance clock limit v_inf = {lw.v_limit_superdiffusive(c.alpha):.5f}")

print()
print("== Var(S_n) scaling exponent (exact recursion, no sampling) ==")
ns = np.array([2 ** k for k in range(10, 19)])
tab = lw.exact_moments(params, int(ns[-1]))
fit = lw.fit_loglog(ns, tab.var_s[ns])
print(f"fitted exponent {fit.slope:.4f} vs 2 alpha = {2 * c.alpha:.4f} "
      f"(r^2 = {fit.r2:.6f})")

print()
print("== W estimate at n = 30000, 3000 trajectories ==")
w = lw.estimate_w(params, 30000, 3000, master_seed=424242, workers=2)
acc = lw.MomentAccumulator.from_values(w)
a_n = lw.growth_values(c.alpha, 30000)
exact_vm = float(tab.var_s[30000]) / a_n ** 2
lo, hi = lw.bootstrap_variance_ci(w, n_boot=500)
print(f"mean_w = {acc.mean:.4f} +- {acc.stderr:.4f} (should straddle 0)")
print(f"var_w  = {acc.variance:.4f}, exact Var(M_n) = {exact_vm:.4f}, "
      f"99% bootstrap CI [{lo:.4f}, {hi:.4f}]")

print()
print("== residual CLT around the far-horizon proxy ==")
_, res = lw.residual_clt_sample(params, 1500, 3000, master_seed=11, workers=2)
ks_raw = lw.ks_test_normal(res)
# the proxy W_hat = M_{16 n} misses the variance accumulated beyond 16 n;
# rescale by the exact residual deviation to test the Gaussian shape alone
far = lw.exact_moments(params, 16 * 1500)
norms = lw.growth_values(c.alpha, np.array([1500, 16 * 1500]))
var_m = far.var_s[[1500, 16 * 1500]] / norms ** 2
exact_sd = norms[0] * math.sqrt(var_m[1] - var_m[0])
theorem_sd = math.sqrt(c.phi * 1500 / (2 * c.alpha - 1))
ks_fix = lw.ks_test_normal(res * (theorem_sd / exact_sd))
print(f"raw residual spread {res.std(ddof=1):.3f} "
      f"(proxy deficit predicts {exact_sd / theorem_sd:.3f})")
print(f"KS vs N(0,1): raw {ks_raw.d_stat:.4f}, "
      f"exact-rescaled {ks_fix.d_stat:.4f}")

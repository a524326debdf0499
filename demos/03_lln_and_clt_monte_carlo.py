"""Seeded Monte Carlo against the law of large numbers and the CLT.

Note the reproducibility contract: trajectory i always consumes stream i,
so the ensemble result is identical no matter how many workers run it.
"""

import math
import pickle

import lapsewalk as lw

params = lw.ModelParams(0.6, 0.2, 0.2, 0.5)
pred = lw.regime_prediction(params)

print("== law of large numbers at n = 20000, 4000 trajectories ==")
ens = lw.run_ensemble(params, 20000, 4000, snapshots=[20000],
                      master_seed=20260808, workers=2)
acc = ens.acc_s[0]
n = 20000
print(f"mean S_n/n = {acc.mean / n:.6f} +- {acc.stderr / n:.6f}")
print(f"limit      = {pred.lln_limit:.6f}")
print(f"exact E[S_n]/n = {float(lw.expected_s(params, n)) / n:.6f} "
      "(the finite-n target the sampler is actually unbiased for)")

rerun = lw.run_ensemble(params, 20000, 4000, snapshots=[20000],
                        master_seed=20260808, workers=1)
print("bit-identical under a different worker count:",
      pickle.dumps(ens) == pickle.dumps(rerun))

print()
print("== central limit theorem at n = 5000 ==")
ens = lw.run_ensemble(params, 5000, 20000, snapshots=[5000],
                      master_seed=7, keep_raw=True, workers=2)
tab = lw.exact_moments(params, 5000)
sample = (ens.sample_s[0] - tab.mean_s[5000]) / math.sqrt(tab.var_s[5000])
ks = lw.ks_test_normal(sample)
print(f"KS distance of standardized S_n to N(0,1): {ks.d_stat:.4f} "
      f"(p = {ks.p_value:.3f}, k = {ks.sample_size})")
print(f"theorem scale phi n/(1-2a) = {pred.variance_scale(5000):.1f}, "
      f"exact Var(S_n) = {float(tab.var_s[5000]):.1f}")

print()
print("== martingale view: Var(M_n) tracks phi v_n ==")
ens = lw.run_ensemble(params, 4096, 8000, master_seed=99, workers=2)
acc_m = lw.martingale_track(params, ens)
c = lw.derive_constants(params)
v = lw.v_sequence(c.alpha, 4096)
for i, m in enumerate(ens.snapshots):
    ratio = acc_m[i].variance / (c.phi * v[m])
    print(f"  n = {m:5d}: Var(M_n) / (phi v_n) = {ratio:.4f}")

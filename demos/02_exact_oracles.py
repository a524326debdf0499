"""Exact finite-n ground truth, three independent ways.

For small n we can afford to enumerate every path; the (S_n, Z_n) pair is
Markov, so a dynamic program reproduces the same joint law in O(n^3); and
the first two moments close under O(n) recursions. Watching all three agree
to ~1e-13 is the backbone of every other check in this package.
"""

import numpy as np

import lapsewalk as lw

params = lw.ModelParams(0.6, 0.2, 0.2, 0.5)

print("== full law at n = 10: brute-force paths vs dynamic program ==")
de = lw.enumerate_paths(params, 10)
dd = lw.distribution_dp(params, 10)
# both laws are (s, z, probability) columns sorted by (s, z), on one support
assert np.array_equal(de.s, dd.s) and np.array_equal(de.z, dd.z)
worst = np.max(np.abs(de.probability - dd.probability))
print(f"atoms: {dd.s.size}, worst difference: {worst:.3e}")
print("a few atoms (s, z) -> probability:")
for i in (0, 1, 2, -3, -2, -1):
    print(f"  ({dd.s[i]}, {dd.z[i]}): {dd.probability[i]:.10f}")

print()
print("== moment recursions vs the DP, n = 1..150 ==")
tab = lw.exact_moments(params, 150)
worst = 0.0
for row_dp in lw.dp_moment_scan(params, 150):
    var_s = tab.var_s[row_dp.n]
    worst = max(worst, abs(var_s - row_dp.var_s) / max(1.0, row_dp.var_s))
print(f"worst relative Var(S_n) difference: {worst:.3e}")

print()
print("== exact standardized CDF against the normal ==")
for n in (50, 100, 200, 400):
    d = lw.ks_distance_cdf(lw.standardized_exact_cdf(params, n))
    print(f"  n = {n:4d}: exact Kolmogorov distance {d:.4f}")
print("(the distance shrinks like the central limit theorem says it should)")

print()
print("== closed-form E[S_n] against the step recursion ==")
c = lw.derive_constants(params)
es = c.beta
for n in range(1, 10 ** 4):
    es = (1 + c.alpha / n) * es + c.omega
closed = lw.expected_s(params, 10 ** 4)
print(f"closed form {closed:.10f} vs recursion {es:.10f} "
      f"(rel diff {abs(closed - es) / es:.2e})")

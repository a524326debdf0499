"""Tour of the model's phase diagram.

The walk repeats (prob p), flips (prob q) or ignores (prob r -> step 0) a
uniformly chosen past step with probability theta, and draws a fresh
(p, q, r) step otherwise. Everything hinges on alpha = (p - q) * theta:

    alpha < 1/2   diffusive       Var(S_n) ~ phi n / (1 - 2 alpha)
    alpha = 1/2   critical        Var(S_n) ~ phi n log n
    alpha > 1/2   superdiffusive  Var(S_n) ~ E[W^2] a_n^2,  a_n ~ n^alpha

This script sweeps theta at fixed (p, q, r) and prints the derived
constants, each regime's predictions, and the variance clock's limit where
it exists.
"""

import lapsewalk as lw

P, Q, R = 0.9, 0.05, 0.05

print(f"base step law: p={P}, q={Q}, r={R}  (drift p-q = {P - Q:.2f})")
print(f"{'theta':>6} {'alpha':>6} {'regime':>15} {'S_n/n ->':>9} "
      f"{'Z_n/n ->':>9} {'phi':>7} {'v_n behaviour':>24}")

for theta in (0.0, 0.2, 0.4, 0.5 / (P - Q), 0.7, 0.85, 0.95):
    params = lw.ModelParams(P, Q, R, theta)
    c = lw.derive_constants(params)
    pred = lw.regime_prediction(params)
    if c.regime is lw.Regime.SUPERDIFFUSIVE:
        vn = f"-> {lw.v_limit_superdiffusive(c.alpha):.5f}"
    elif c.regime is lw.Regime.CRITICAL:
        vn = "~ (pi/4) log n"
    else:
        vn = f"~ c n^{1 - 2 * c.alpha:.2f}"
    print(f"{theta:6.3f} {c.alpha:6.3f} {c.regime.value:>15} "
          f"{pred.lln_limit:9.4f} {pred.z_lln_limit:9.4f} {c.phi:7.4f} {vn:>24}")

print()
print("variance scale formulas at the three example points:")
for theta in (0.2, 0.5 / (P - Q), 0.9):
    pred = lw.regime_prediction(lw.ModelParams(P, Q, R, theta))
    print(f"  theta={theta:.3f}: Var(S_n) ~ {pred.scale_formula}")

"""The arithmetic behind the experiments' gates, against independent oracles.

Report digests only show that a number moved. These tests recompute what a
gate compares, from the same seeded samples, by a separate route: numpy's
own quantiles, scipy's kurtosis, the closed-form reference slopes, a second
walk for the LLN bounds, and the martingale identity
Var(M_far - M_n) = Var M_far - Var M_n read off the exact moment recursions.
Every gate's `pass` is also re-judged from its own `value` and `bound` text,
read back by one parser here.
"""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

import lapsewalk as lw
from lapsewalk import experiments
from lapsewalk.cli import main
from test_golden import CASES as GOLDEN

GATE_OPS = ("<", "<=", ">", "in", "within")

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


def parse_bound(text):
    """(op, limit) of a gate's bound text: a number for "<", "<=" and ">"
    (the last number of the text), (lo, hi) for "in" and (center, tol) for
    "within"."""
    op, _, rest = text.partition(" ")
    assert op in GATE_OPS, text
    if op == "in":
        lo, hi = rest.removeprefix("[").removesuffix("]").split(", ")
        return op, (float(lo), float(hi))
    if op == "within":
        tol, center = rest.split(" of ")
        return op, (float(center), float(tol))
    return op, float(rest.split(" = ")[-1].removesuffix(" (99% bootstrap CI)"))


def judge(value, op, limit):
    """The verdict a bound text states for value."""
    if op == "in":
        return limit[0] <= value <= limit[1]
    if op == "within":
        return abs(value - limit[0]) <= limit[1]
    return {"<": value < limit, "<=": value <= limit, ">": value > limit}[op]


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
    op, bound = parse_bound(gate(report, "w_var_vs_exact")["bound"])
    assert op == "<="
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


@pytest.mark.parametrize("params", [lw.ModelParams(0.6, 0.2, 0.2, 0.5), SUPER],
                         ids=["diffusive", "superdiffusive"])
def test_lln_gates_recomputed_from_an_independent_walk(params):
    # the bounds are 4 stderr of X_n/n, plus the exact centering gap for the
    # limit gates; the second walk keeps only n and its raw S row
    n, t, seed = 1000, 400, 3
    report = experiments.lln_experiment(params, n, t, seed)
    ens = lw.run_ensemble(params, n, t, snapshots=[n], master_seed=seed,
                          keep_raw=True)
    s, z = ens.sample_s[0] / n, ens.acc_z[0]
    pred = lw.regime_prediction(params)
    walks = {"s": (s.mean(), s.std(ddof=1) / math.sqrt(t), lw.expected_s,
                   pred.lln_limit),
             "z": (z.mean / n, math.sqrt(z.m2 / (t - 1) / t) / n, lw.expected_z,
                   pred.z_lln_limit)}
    for x, (mean, se, expected, limit) in walks.items():
        exact = float(expected(params, n)) / n
        gap = abs(exact - limit)
        for name, value, bound in ((f"lln_{x}_sampler", abs(mean - exact), 4.0 * se),
                                   (f"lln_{x}_limit", abs(mean - limit),
                                    4.0 * se + gap)):
            g = gate(report, name)
            op, got = parse_bound(g["bound"])
            assert op == "<=" and got == pytest.approx(bound, rel=1e-9), name
            assert g["value"] == pytest.approx(value, rel=1e-9, abs=1e-15), name
            assert g["pass"] is bool(value <= bound), name


# every gated experiment the digests pin, and one report that fails a gate
# (at n = 5 the exact law is still far from normal)
GATED = {name: argv for name, (argv, _, _) in GOLDEN.items()
         if argv[0] == "experiment" and argv[1] != "lil-diagnostic"}
GATED["clt-failing"] = ["experiment", "clt", "-n", "5", "-t", "0"]


@pytest.mark.parametrize("name", sorted(GATED))
def test_every_gate_pass_follows_its_bound(tmp_path, name):
    out = tmp_path / "report.json"
    code = main([*GATED[name], "-o", str(out)])
    report = json.loads(out.read_text())
    assert report["gates"]
    for g in report["gates"]:
        assert g["pass"] is judge(g["value"], *parse_bound(g["bound"])), g
    assert report["pass"] is all(g["pass"] for g in report["gates"])
    assert code == (0 if report["pass"] else 1)
    assert report["pass"] is (name != "clt-failing")


VALUES = (0.0, 0.25, 0.5, 0.75, 1.0)


@pytest.mark.parametrize("op, limit, shown, bound, verdicts", [
    ("<", 0.5, "{!r}", "< 0.5", "TTFFF"),
    ("<=", 0.5, "4.0 stderr = {!r}", "<= 4.0 stderr = 0.5", "TTTFF"),
    (">", 0.5, "{!r} (99% bootstrap CI)", "> 0.5 (99% bootstrap CI)", "FFFTT"),
    ("in", (0.25, 0.75), "{!r}", "in [0.25, 0.75]", "FTTTF"),
    ("within", (0.5, 0.25), "{!r}", "within 0.25 of 0.5", "FTTTF"),
], ids=GATE_OPS)
def test_gate_ops_judge_each_side_of_the_limit(op, limit, shown, bound, verdicts):
    # VALUES straddle the limit, and the band edges are exact binary fractions
    for value, want in zip(VALUES, verdicts):
        g = experiments._gate("g", value, op, limit, shown)
        assert g == {"name": "g", "value": value, "bound": bound,
                     "pass": want == "T"}, value
        assert judge(value, *parse_bound(g["bound"])) is g["pass"]


def test_every_gate_call_names_an_op_and_passes_no_verdict():
    # _gate alone computes pass: a call passes a literal op and numbers, never
    # a comparison of its own
    tree = ast.parse(Path(experiments.__file__).read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "_gate"]
    assert calls
    for call in calls:
        where = f"_gate call at line {call.lineno}"
        assert len(call.args) >= 4 and not call.keywords, where
        op = call.args[2]
        assert isinstance(op, ast.Constant) and op.value in GATE_OPS, where
        assert not any(isinstance(node, (ast.Compare, ast.BoolOp))
                       for arg in call.args for node in ast.walk(arg)), where

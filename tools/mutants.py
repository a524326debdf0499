"""Mutation check: does the fast suite catch single-edit bugs in the package?

Each mutant below is one textual edit to one file under `src/lapsewalk`,
with the test expected to kill it. The tool copies the repository to a
temporary directory per mutant, applies the edit there, and runs the fast
suite: `tests/` without `test_acceptance.py`, and with the report digests
(`test_golden.py` and `test_predict_json_bytes_pinned`) deselected, so that a
kill shows a correctness check and not merely a changed byte. The working
tree is never edited.

A mutant marked equivalent gives the same answers at the tests' tolerance;
it is expected to survive and is listed so that nobody adds it again.

Usage: python3 tools/mutants.py [NAME ...]
Runs every mutant (about 30 s each on two cores) or the named ones, prints
one line per mutant, and exits 1 if a non-equivalent mutant survives or its
listed killer does not fail. It is not part of tier-1.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAST_SUITE = ["tests", "--ignore=tests/test_acceptance.py",
              "--ignore=tests/test_golden.py",
              "--deselect=tests/test_cli.py::test_predict_json_bytes_pinned"]
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                     ".hypothesis", ".bench_out_*", ".bench_build")

# (name, file under src/lapsewalk, old text, new text, killer test or None
# for an equivalent mutant). Each old text occurs exactly once in its file.
MUTANTS = [
    ("kernel_p_zero_scaled", "model.py",
     "    p_zero = theta * n_zero * (p + q) / n + r\n",
     "    p_zero = (theta * n_zero * (p + q) / n + r) * (1.0 - 1e-9)\n",
     "tests/test_model.py::test_trajectory_all_delays"),
    ("kernel_p_plus_swapped", "model.py",
     "theta * (n_plus * p + n_minus * q) / n",
     "theta * (n_plus * q + n_minus * p) / n",
     "tests/test_model.py::test_step_distribution_hand_example"),
    ("trajectory_minus_threshold", "model.py",
     "elif u < p_plus + p_minus:",
     "elif u < p_minus:",
     "tests/test_ensemble.py::test_keep_raw_rows_match_scalar_walk"),
    ("batch_plus_threshold", "ensemble.py",
     "    np.multiply(n_plus, p, out=a)\n",
     "    np.multiply(n_plus, q, out=a)\n",
     "tests/test_ensemble.py::test_keep_raw_rows_match_scalar_walk"),
    ("merge_m2_drops_between_term", "ensemble.py",
     "m2 = self.m2 + other.m2 + delta * d_n * na * nb",
     "m2 = self.m2 + other.m2",
     "tests/test_ensemble.py::test_merge_matches_whole_and_is_associative"),
    ("bootstrap_98_percent", "ensemble.py",
     "level: float = 0.99",
     "level: float = 0.98",
     "tests/test_gate_oracles.py::test_bootstrap_ci_is_the_99_percent_percentile_interval"),
    ("moment_cross_rate", "exact.py",
     "rates = (al, ga, 2.0 * al, al + ga)",
     "rates = (al, ga, 2.0 * al, al)",
     "tests/test_exact.py::test_moment_recursions_match_dp"),
    ("dp_minus_lands_wrong", "exact.py",
     "nxt[1:, :-1] += tri * p_minus",
     "nxt[:-1, 1:] += tri * p_minus",
     "tests/test_properties.py::test_exact_oracles_agree"),
    ("dp_mass_guard_loosened", "exact.py",
     "if abs(total - 1.0) > 1e-10:",
     "if abs(total - 1.0) > 1e-3:",
     "tests/test_exact.py::test_dp_mass_guard_trips_on_a_leaking_kernel"),
    ("thomae_two_levels", "analytic.py",
     "_THOMAE_LEVELS = 3",
     "_THOMAE_LEVELS = 2",
     None),  # still within 3.0e-15 of mpmath on the tested alphas
    ("sum_inv_a_sign", "analytic.py",
     "+ 1.0 / (alpha - 1.0)",
     "- 1.0 / (alpha - 1.0)",
     "tests/test_analytic.py::test_sum_inv_a_closed_hand_values"),
    ("xoshiro_rotation", "rng.py",
     "s[3] = _rotl(s[3], 45)",
     "s[3] = _rotl(s[3], 44)",
     "tests/test_rng.py::test_batch_matches_scalar_lanes"),
    ("ks_sf_without_factor_2", "stats.py",
     "max(0.0, 2.0 * total)",
     "max(0.0, total)",
     "tests/test_stats.py::test_kolmogorov_sf_matches_scipy"),
    ("ks_without_stephens", "stats.py",
     "_kolmogorov_sf(d * (sqrt_k + 0.12 + 0.11 / sqrt_k))",
     "_kolmogorov_sf(d * sqrt_k)",
     "tests/test_stats.py::test_ks_test_normal_matches_scipy"),
    ("ks_distance_one_sided", "stats.py",
     "np.maximum(np.abs(cdf - phi), np.abs(left - phi))",
     "np.abs(cdf - phi)",
     "tests/test_stats.py::test_ks_distance_point_mass"),
    ("fit_stderr_n_minus_1", "stats.py",
     "/ (xs.size - 2) / sxx",
     "/ (xs.size - 1) / sxx",
     "tests/test_stats.py::test_fit_loglog_matches_scipy_linregress"),
    ("w_var_bound_kurt_minus_1", "experiments.py",
     "kurt - (n_traj - 3) / (n_traj - 1)",
     "kurt - 1",
     "tests/test_gate_oracles.py::test_w_variance_bound_widens_with_the_sample_kurtosis"),
    ("residual_sd_keeps_var_m_n", "experiments.py",
     "math.sqrt(var_m_far - var_m_n)",
     "math.sqrt(var_m_far)",
     "tests/test_gate_oracles.py::test_residual_sd_matches_the_exact_martingale_increment"),
    ("scan_superdiffusive_slope", "experiments.py",
     "ref = 2.0 * c.alpha\n",
     "ref = 2.0 * c.alpha - 0.05\n",
     "tests/test_gate_oracles.py::test_regime_scan_reference_slopes_closed_forms"),
]


def failed_tests(output):
    """Node ids of the failed or erroring tests, without their
    parametrization."""
    return {line.split()[1].split("[")[0] for line in output.splitlines()
            if line.startswith(("FAILED ", "ERROR "))}


def run_mutant(name, module, old, new, killer):
    """Apply one mutant to a fresh copy and run the fast suite there.

    Returns (verdict, ok, failed test ids)."""
    with tempfile.TemporaryDirectory(prefix=f"mutant_{name}_") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
        path = copy / "src" / "lapsewalk" / module
        text = path.read_text()
        if text.count(old) != 1:
            return f"stale: {old!r} occurs {text.count(old)} times", False, set()
        path.write_text(text.replace(old, new))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             *FAST_SUITE],
            cwd=copy, env={**os.environ, "PYTHONPATH": str(copy / "src")},
            capture_output=True, text=True)
    failed = failed_tests(proc.stdout)
    if proc.returncode not in (0, 1):
        return f"error: pytest exited {proc.returncode}", False, failed
    if killer is None:
        verdict = "survived (equivalent)" if not failed else "killed (listed as equivalent)"
        return verdict, True, failed
    if not failed:
        return "SURVIVED", False, failed
    if killer not in failed:
        return f"killed, but not by {killer}", False, failed
    return "killed", True, failed


def main(argv):
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    bad = 0
    for mutant in chosen:
        start = time.perf_counter()
        verdict, ok, failed = run_mutant(*mutant)
        bad += not ok
        print(f"{mutant[0]:30s} {verdict:24s} {len(failed):3d} failed "
              f"{time.perf_counter() - start:6.1f} s", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants as listed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

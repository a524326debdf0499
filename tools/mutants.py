"""Mutation check: does the fast suite catch single-edit bugs in the package?

Each mutant below is one textual edit to one file under `src/lapsewalk`,
with the test expected to kill it. The tool copies the repository to a
temporary directory per mutant, applies the edit there, and runs the fast
suite: `tests/` without `test_acceptance.py`, and with the report digests
(`test_golden.py` and `test_predict_json_bytes_pinned`) deselected, so that a
kill shows a correctness check and not merely a changed byte, and without
`test_mutant_sites.py`, which fails under every mutant because the edit
removes the mutant's own site. The working tree is never edited.

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
              "--ignore=tests/test_mutant_sites.py",
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
    ("trajectory_z_row", "model.py",
     "out.append((n, n_plus - n_minus, n_plus + n_minus))",
     "out.append((n, n_plus - n_minus, n_plus - n_minus))",
     "tests/test_properties.py::test_scalar_walk_matches_batch_rows"),
    ("batch_plus_threshold", "ensemble.py",
     "    np.multiply(n_plus, p, out=a)\n",
     "    np.multiply(n_plus, q, out=a)\n",
     "tests/test_ensemble.py::test_keep_raw_rows_match_scalar_walk"),
    ("window_step_count_restarts", "ensemble.py",
     "enumerate(rng.uniforms(window[:n_steps - start]), start + 1)",
     "enumerate(rng.uniforms(window[:n_steps - start]), 1)",
     "tests/test_kernel.py::test_kernel_bits_across_window_edges"),
    ("kernel_minus_step_keeps_plus", "ensemble.py",
     "                minus ^= plus\n",
     "",
     "tests/test_kernel.py::test_kernel_matches_reference_bits"),
    ("one_sided_below_half", "ensemble.py",
     "one_sided = q == 0",
     "one_sided = q < 0.5",
     "tests/test_kernel.py::test_kernel_bits_across_window_edges"),
    ("one_sided_never_taken", "ensemble.py",
     "one_sided = q == 0",
     "one_sided = False",
     None),  # speed only: the two-sided walk at q = 0 has the same bits
    ("one_sided_threshold_without_const", "ensemble.py",
     "        a += const_plus\n        return\n",
     "        return\n",
     "tests/test_kernel.py::test_one_sided_walk_bits_across_window_edges"),
    ("one_sided_step_not_counted", "ensemble.py",
     "                n_plus += plus\n",
     "                pass\n",
     "tests/test_kernel.py::test_one_sided_walk_bits_across_window_edges"),
    ("merge_m2_drops_between_term", "ensemble.py",
     "m2 = self.m2 + other.m2 + delta * d_n * na * nb",
     "m2 = self.m2 + other.m2",
     "tests/test_ensemble.py::test_merge_matches_whole_and_is_associative"),
    ("bootstrap_98_percent", "ensemble.py",
     "BOOTSTRAP_LEVEL = 0.99",
     "BOOTSTRAP_LEVEL = 0.98",
     "tests/test_gate_oracles.py::test_bootstrap_ci_is_the_99_percent_percentile_interval"),
    ("moment_cross_rate", "exact.py",
     "np.divide(al + ga, k, out=fac)",
     "np.divide(al, k, out=fac)",
     "tests/test_exact.py::test_moment_recursions_match_dp"),
    ("moment_rows_cross_ignored", "exact.py",
     "for n0, cols in _moment_blocks(params, n_max, cross):",
     "for n0, cols in _moment_blocks(params, n_max, False):",
     "tests/test_moments.py::test_moment_rows_match_table_bytes"),
    ("dp_minus_lands_wrong", "exact.py",
     "(down, c_minus, stride)",
     "(down, c_minus, 1)",
     "tests/test_properties.py::test_exact_oracles_agree"),
    ("dp_stride_without_spare_column", "exact.py",
     "if m + 2 > stride:",
     "if m + 1 > stride:",
     "tests/test_exact.py::test_dp_slices_match_reference_bits"),
    ("dp_band_one_row_short", "exact.py",
     "z1 = min(z0 + _DP_BAND, rows)",
     "z1 = min(z0 + _DP_BAND - 1, rows)",
     "tests/test_exact.py::test_dp_slices_match_reference_bits"),
    ("dp_mass_guard_loosened", "exact.py",
     "return _law(n, tri, 1e-10)",
     "return _law(n, tri, 1e-3)",
     "tests/test_exact.py::test_dp_mass_guard_trips_on_a_leaking_kernel"),
    ("dp_scan_mass_guard_loosened", "exact.py",
     "_check_mass(float(tri.sum()), m, 1e-10)",
     "_check_mass(float(tri.sum()), m, 1e-3)",
     "tests/test_exact.py::test_dp_mass_guard_trips_on_a_leaking_kernel"),
    ("path_mass_guard_loosened", "exact.py",
     "return _law(n, tally.reshape(n + 1, n + 1), 1e-12)",
     "return _law(n, tally.reshape(n + 1, n + 1), 1e-3)",
     "tests/test_exact.py::test_dp_mass_guard_trips_on_a_leaking_kernel"),
    ("law_rows_unsorted", "exact.py",
     "order = np.lexsort((zs, ss))",
     "order = np.arange(ss.size)",
     "tests/test_exact.py::test_dp_rows_sorted_and_equal_to_enumeration"),
    ("mass_guard_without_step_drift", "exact.py",
     "if not abs(total - 1.0) <= tol + n * SIMPLEX_TOL:",
     "if not abs(total - 1.0) <= tol:",
     "tests/test_exact.py::test_exact_oracles_accept_the_simplex_edge"),
    ("mass_guard_nan_blind", "exact.py",
     "if not abs(total - 1.0) <= tol + n * SIMPLEX_TOL:",
     "if abs(total - 1.0) > tol + n * SIMPLEX_TOL:",
     "tests/test_exact.py::test_mass_guard_refuses_a_nan_law"),
    ("moment_zero_factor_not_restarted", "exact.py",
     "if fac[0] == 0.0:",
     "if False:",
     "tests/test_moments.py::test_var_s_through_a_zero_first_factor_matches_dp"),
    ("json_allows_nan", "report.py",
     "allow_nan=False",
     "allow_nan=True",
     "tests/test_cli.py::test_emit_json_refuses_non_finite"),
    ("thomae_two_levels", "analytic.py",
     "_THOMAE_LEVELS = 3",
     "_THOMAE_LEVELS = 2",
     None),  # still within 3.0e-15 of mpmath on the tested alphas
    ("direct_scan_keeps_prod_across_chunks", "analytic.py",
     "            prod, cum = 1.0, 0.0\n",
     "            cum = 0.0\n",
     "tests/test_series.py::test_series_matches_reference_bits_over_many_chunks"),
    ("variance_scale_signed_span", "analytic.py",
     "self.phi * n / abs(1.0 - 2.0 * self.alpha)",
     "self.phi * n / (1.0 - 2.0 * self.alpha)",
     "tests/test_analytic.py::test_regime_prediction_superdiffusive_threshold"),
    ("sum_inv_a_sign", "analytic.py",
     "+ 1.0 / (alpha - 1.0)",
     "- 1.0 / (alpha - 1.0)",
     "tests/test_analytic.py::test_sum_inv_a_closed_hand_values"),
    ("xoshiro_rotation", "rng.py",
     "s[3] = _rotl(s[3], 45)",
     "s[3] = _rotl(s[3], 44)",
     "tests/test_rng.py::test_batch_matches_scalar_lanes"),
    ("xoshiro_s1_not_carried", "rng.py",
     "        s1[0] = s1[rows]  # carry the state word back before rows 1.. are reused\n",
     "",
     "tests/test_rng.py::test_window_fills_continue_each_lane"),
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
    ("critical_ks_gate_coefficient", "experiments.py",
     '"critical": (0.03, 1.63)',
     '"critical": (0.03, 1.73)',
     "tests/test_gate_oracles.py::test_mc_ks_gates_are_the_documented_formulas"),
    ("nondegenerate_allows_phi_zero", "model.py",
     "if scaled and c.phi <= 0.0:",
     "if scaled and c.phi < 0.0:",
     "tests/test_cli.py::test_experiment_refused_before_any_work"),
    ("domain_gate_skips_regime", "model.py",
     "if regime is not None and c.regime is not regime:",
     "if False:",
     "tests/test_ensemble.py::test_estimate_w_requires_superdiffusive"),
    ("domain_gate_lets_alpha_below_zero", "model.py",
     "if c.alpha < 0.0:",
     "if c.alpha < -1.0:",
     "tests/test_analytic.py::test_regime_prediction_rejects_negative_alpha"),
    ("exact_first_row_gets_scale", "cli.py",
     "if row.n > 1 else None",
     "if row.n >= 1 else None",
     "tests/test_cli.py::test_exact_first_row_has_no_scale"),
    ("cli_catches_bare_value_error", "cli.py",
     "except (LapsewalkError, OSError) as exc:",
     "except (LapsewalkError, ValueError, OSError) as exc:",
     "tests/test_cli.py::test_bare_value_error_in_an_experiment_is_not_exit_2"),
    ("arg_file_quote_error_untyped", "cli.py",
     "ap.convert_arg_line_to_args = _arg_file_words",
     "ap.convert_arg_line_to_args = lambda line: shlex.split(line, comments=True)",
     "tests/test_cli.py::test_argument_file_refused_exit_2"),
    ("law_batch_separator_dropped", "cli.py",
     'yield (sep if i else "") + rows(zip(',
     "yield rows(zip(",
     "tests/test_cli.py::test_exact_distribution_matches_dict_route_bytes"),
    ("clt_takes_n_max", "cli.py",
     '("regime-scan", "lil-diagnostic"),',
     '("regime-scan", "lil-diagnostic", "clt"),',
     "tests/test_cli.py::test_experiment_flag_the_kind_does_not_read_exit_2"),
    ("lln_takes_one_trajectory", "experiments.py",
     'trajectory_floor(n_traj, 2, "the stderr gates need")',
     'trajectory_floor(n_traj, 1, "the stderr gates need")',
     "tests/test_cli.py::test_experiment_refused_before_any_work"),
    ("empty_snapshots_walk_dyadic", "ensemble.py",
     "dyadic_snapshots(n_steps) if snapshots is None",
     "dyadic_snapshots(n_steps) if snapshots is None or len(snapshots) == 0",
     "tests/test_ensemble.py::test_ensemble_counts_and_snapshot_validation"),
    ("scan_superdiffusive_slope", "experiments.py",
     "ref = 2.0 * c.alpha\n",
     "ref = 2.0 * c.alpha - 0.05\n",
     "tests/test_gate_oracles.py::test_regime_scan_reference_slopes_closed_forms"),
    ("lln_sampler_sigma_over_se", "experiments.py",
     '"<=", SIGMA_GATE * se,',
     '"<=", SIGMA_GATE / se,',
     "tests/test_gate_oracles.py::test_lln_gates_recomputed_from_an_independent_walk"),
    ("lln_limit_sigma_over_se", "experiments.py",
     "SIGMA_GATE * se + gap",
     "SIGMA_GATE / se + gap",
     "tests/test_gate_oracles.py::test_lln_gates_recomputed_from_an_independent_walk"),
    ("lln_se_times_n", "experiments.py",
     "acc.stderr / n_steps",
     "acc.stderr * n_steps",
     "tests/test_gate_oracles.py::test_lln_gates_recomputed_from_an_independent_walk"),
    ("gate_lt_as_gt", "experiments.py",
     '"<": value < limit',
     '"<": value > limit',
     "tests/test_gate_oracles.py::test_gate_ops_judge_each_side_of_the_limit"),
    ("gate_le_as_ge", "experiments.py",
     '"<=": value <= limit',
     '"<=": value >= limit',
     "tests/test_gate_oracles.py::test_gate_ops_judge_each_side_of_the_limit"),
    ("gate_gt_as_lt", "experiments.py",
     '">": value > limit',
     '">": value < limit',
     "tests/test_gate_oracles.py::test_gate_ops_judge_each_side_of_the_limit"),
    ("gate_in_upper_only", "experiments.py",
     "limit[0] <= value <= limit[1]",
     "value <= limit[1]",
     "tests/test_gate_oracles.py::test_gate_ops_judge_each_side_of_the_limit"),
    ("gate_within_without_abs", "experiments.py",
     "abs(value - limit[0]) <= limit[1]",
     "value - limit[0] <= limit[1]",
     "tests/test_gate_oracles.py::test_gate_ops_judge_each_side_of_the_limit"),
    ("counts_accepts_floats", "errors.py",
     '        raise InvalidState(f"{name} must be an integer, got {values!r}")\n',
     "        pass\n",
     "tests/test_boundaries.py::test_boundary_table_refused_typed"),
    ("sample_accepts_nan", "errors.py",
     '        raise InvalidState(f"{what} needs a finite sample")\n',
     "        pass\n",
     "tests/test_boundaries.py::test_boundary_table_refused_typed"),
    ("seed_gate_lets_minus_one", "rng.py",
     '"master_seed", master_seed, low=0,',
     '"master_seed", master_seed, low=-1,',
     "tests/test_boundaries.py::test_bad_seed_refused_before_any_walk"),
    ("ticks_drop_last", "svg.py",
     "math.floor(hi / step + Fraction(1, 10 ** 9)) + 1)]",
     "math.floor(hi / step + Fraction(1, 10 ** 9)))]",
     "tests/test_boundaries.py::test_ticks_are_integer_multiples_of_one_step"),
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

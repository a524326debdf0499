"""Per-layer metrics: which package functions are traced, what each span
counts, and how a traced pass turns into named metrics.

Layers are the package modules. `model` is not traced: on these workloads
it only runs derive_constants and ModelParams, inside other layers' spans.
"""

from collections import defaultdict

from lapsewalk import analytic, cli, ensemble, exact, experiments, report, stats, svg
from lapsewalk.ensemble import MomentAccumulator
from lapsewalk.rng import Xoshiro256Batch

EXPERIMENTS = ("lln_experiment", "clt_experiment", "superdiffusive_experiment",
               "regime_scan_experiment")


def _draws(counts, a, result, dt):
    counts["rng.draws"] += result.size


def _ensemble(counts, a, result, dt):
    n_traj, width = a["n_traj"], a["chunk_size"]
    chunks = -(-n_traj // width)
    counts["ensemble.traj_steps"] += a["n_steps"] * n_traj
    counts["ensemble.chunks"] += chunks
    counts["ensemble.lanes"] += n_traj
    if result.sample_s is not None:
        counts["ensemble.raw_bytes"] += sum(x.nbytes for x in result.sample_s)
    if a["workers"] > 1 and chunks > 1:
        counts["ensemble.pool_capacity_s"] += a["workers"] * dt


def _bootstrap(counts, a, result, dt):
    counts["ensemble.bootstrap_resamples"] += a["n_boot"]


def _dp(counts, a, result, dt):
    counts["exact.dp_cells"] += sum((m + 2) ** 2 for m in range(1, a["n"]))
    counts["exact.dp_mass_error"] = max(counts["exact.dp_mass_error"],
                                        abs(result.total_mass() - 1.0))


def _moments(counts, a, result, dt):
    counts["exact.moment_terms"] += a["n_max"]


def _ks_sample(counts, a, result, dt):
    counts["stats.ks_points"] += result.sample_size


def _ks_cdf(counts, a, result, dt):
    counts["stats.ks_points"] += a["exact_cdf"].points.size


def _json(counts, a, result, dt):
    counts["report.json_bytes"] += len(result)


def targets():
    """(span name, owner, attribute, counting hook) for spans.install."""
    out = [
        ("cli.main", cli, "main", None),
        ("report.emit_json", report, "emit_json", _json),
        ("svg.line_plot", svg, "line_plot", None),
        ("ensemble.run_ensemble", ensemble, "run_ensemble", _ensemble),
        ("ensemble.estimate_w", ensemble, "estimate_w", None),
        ("ensemble.residual_clt_sample", ensemble, "residual_clt_sample", None),
        ("ensemble.bootstrap", ensemble, "bootstrap_variance_ci", _bootstrap),
        ("ensemble.fold", MomentAccumulator, "from_values", None),
        ("ensemble.fold", MomentAccumulator, "merge", None),
        ("rng.seed", Xoshiro256Batch, "__init__", None),
        ("rng.uniforms", Xoshiro256Batch, "uniforms", _draws),
        ("exact.dp", exact, "distribution_dp", _dp),
        ("exact.moments", exact, "exact_moments", _moments),
        ("exact.standardized_cdf", exact, "standardized_exact_cdf", None),
        ("analytic.v_limit", analytic, "v_limit_superdiffusive", None),
        ("analytic.growth", analytic, "growth_values", None),
        ("analytic.regime_prediction", analytic, "regime_prediction", None),
        ("analytic.expected_s", analytic, "expected_s", None),
        ("analytic.expected_z", analytic, "expected_z", None),
        ("stats.ks", stats, "ks_test_normal", _ks_sample),
        ("stats.ks", stats, "ks_distance_cdf", _ks_cdf),
        ("stats.fit", stats, "fit_loglog", None),
    ]
    out += [(f"experiments.{f}", experiments, f, None) for f in EXPERIMENTS]
    return out


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def metrics(tracer, wall_s, children_cpu_s):
    """Named per-layer metrics of one traced pass of a workload.

    Self times partition the traced time: each layer's `self_s` (with the
    accumulator fold split out of ensemble as `ensemble.fold_s`) sums to
    `trace.layer_self_frac` of the pass's wall time.
    """
    d = tracer.durations()
    c = tracer.counts

    def calls(name):
        return d.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return d.get(name, (0, 0.0, 0.0))[1]

    layer_self = defaultdict(float)
    for name, (_, _, self_s) in d.items():
        layer_self["fold" if name == "ensemble.fold" else name.split(".")[0]] += self_s

    uniforms_s, fold_s = incl("rng.uniforms"), incl("ensemble.fold")
    dp_s, moments_s = incl("exact.dp"), incl("exact.moments")
    kernel_s = incl("ensemble.run_ensemble") - fold_s
    return {
        "rng.uniforms_calls": (calls("rng.uniforms"), "count"),
        "rng.uniforms_s": (uniforms_s, "s"),
        "rng.mdraws_per_s": (_ratio(c["rng.draws"] / 1e6, uniforms_s), "Mdraws/s"),
        "rng.self_s": (layer_self["rng"], "s"),
        "ensemble.traj_steps": (c["ensemble.traj_steps"], "count"),
        "ensemble.chunks": (c["ensemble.chunks"], "count"),
        "ensemble.lanes_per_chunk": (_ratio(c["ensemble.lanes"], c["ensemble.chunks"]),
                                     "count"),
        "ensemble.self_s": (layer_self["ensemble"], "s"),
        "ensemble.kernel_msteps_per_s": (_ratio(c["ensemble.traj_steps"] / 1e6, kernel_s),
                                         "Msteps/s"),
        "ensemble.fold_s": (fold_s, "s"),
        "ensemble.raw_mb_computed": (c["ensemble.raw_bytes"] / 1e6, "MB"),
        "ensemble.pool_busy_frac": (_ratio(children_cpu_s, c["ensemble.pool_capacity_s"]),
                                    "fraction"),
        "ensemble.bootstrap_s": (incl("ensemble.bootstrap"), "s"),
        "ensemble.bootstrap_resamples": (c["ensemble.bootstrap_resamples"], "count"),
        "exact.dp_s": (dp_s, "s"),
        "exact.dp_cells": (c["exact.dp_cells"], "count"),
        "exact.dp_mcells_per_s": (_ratio(c["exact.dp_cells"] / 1e6, dp_s), "Mcells/s"),
        "exact.dp_mass_error": (c["exact.dp_mass_error"], "probability"),
        "exact.moments_s": (moments_s, "s"),
        "exact.moment_terms": (c["exact.moment_terms"], "count"),
        "exact.moments_mterms_per_s": (_ratio(c["exact.moment_terms"] / 1e6, moments_s),
                                       "Mterms/s"),
        "exact.self_s": (layer_self["exact"], "s"),
        "analytic.v_limit_s": (incl("analytic.v_limit"), "s"),
        "analytic.v_limit_calls": (calls("analytic.v_limit"), "count"),
        "analytic.v_limit_failures": (c["analytic.v_limit.raised"], "count"),
        "analytic.growth_s": (incl("analytic.growth"), "s"),
        "analytic.self_s": (layer_self["analytic"], "s"),
        "stats.ks_s": (incl("stats.ks"), "s"),
        "stats.ks_points": (c["stats.ks_points"], "count"),
        "stats.fit_s": (incl("stats.fit"), "s"),
        "stats.self_s": (layer_self["stats"], "s"),
        "experiments.self_s": (layer_self["experiments"], "s"),
        "cli.self_s": (layer_self["cli"], "s"),
        "report.emit_json_s": (layer_self["report"], "s"),
        "report.json_mb": (c["report.json_bytes"] / 1e6, "MB"),
        "svg.plot_s": (layer_self["svg"], "s"),
        "trace.wall_s": (wall_s, "s"),
        "trace.layer_self_frac": (_ratio(sum(layer_self.values()), wall_s), "fraction"),
    }

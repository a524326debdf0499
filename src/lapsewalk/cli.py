"""Command-line interface.

Subcommands: predict (analytic constants and regime), simulate (seeded
ensemble summary), exact (finite-n oracle tables), experiment KIND
(limit-theorem checks with PASS/FAIL gates). Each experiment kind is its own
subcommand and takes only the flags it reads; argparse refuses any other
before any work.

Exit codes: 0 success / all gates pass, 1 an experiment gate failed,
2 usage or domain error. An argument `@FILE` stands for the arguments in
FILE, each line split into shell words with `#` starting a comment. They are
parsed as if typed in its place: a later value of a flag wins, and a file's
words meet every check its flags would.
"""

import argparse
import math
import shlex
import sys

from . import experiments
from .analytic import regime_prediction, v_limit_superdiffusive
from .errors import InvalidState, LapsewalkError, counts
from .exact import distribution_dp, exact_moments
from .model import ModelParams, Regime, domain_constants
from .report import base_report, csv_lines, emit_json, fmt_float
from .stats import normal_cdf
from .svg import line_plot

# subcommand -> its --format choices, the first the default; the experiment
# kinds take none
FORMATS = {"predict": ("text", "json"), "simulate": ("csv", "json"),
           "exact": ("csv", "json")}
# the experiment kinds judged at -n; lil-diagnostic walks to --n-max and
# regime-scan walks nothing
_WALKS = ("lln", "clt", "critical", "superdiffusive")
_MC = ("simulate", *_WALKS, "lil-diagnostic")
_MODEL = ("predict", "exact", *_MC)
_ALL = (*_MODEL, "regime-scan")
_STEPS = ("simulate", "exact", *_WALKS)
# exact-law rows formatted and written at a time: a speed constant that also
# bounds the law text held in memory, never a byte of the output
_LAW_BATCH = 4096
# key -> (flags, type, default, commands with the flag, help). A command is a
# subcommand or an experiment kind, and takes only the flags it reads; a
# format of None is the subcommand's first FORMATS choice
OPTIONS = {
    "p": (("-p",), float, 0.6, _ALL, "probability of a +1-type step"),
    "q": (("-q",), float, 0.2, _ALL, "probability of a -1-type step"),
    "r": (("-r",), float, 0.2, _ALL, "probability of a delay (0 step)"),
    "theta": (("--theta",), float, 0.5, _MODEL, "memory probability in [0, 1)"),
    "steps": (("-n", "--steps"), int, 10000, _STEPS, None),
    "trajectories": (("-t", "--trajectories"), int, 1000, _MC, None),
    "seed": (("--seed",), int, 0, _MC, "master seed"),
    "snapshots": (("--snapshots",), str, None, ("simulate",),
                  "comma-separated times, or 'dyadic' (default)"),
    "workers": (("--workers",), int, 1, _MC, None),
    "format": (("--format",), str, None, tuple(FORMATS), None),
    "alphas": (("--alphas",), str, "0.1,0.25,0.35", ("regime-scan",),
               "comma list of alpha values to scan"),
    "n_max": (("--n-max",), int, 1 << 20, ("regime-scan", "lil-diagnostic"),
              "horizon: the largest n walked or fitted"),
}


def _params_from(o) -> ModelParams:
    return ModelParams(o["p"], o["q"], o["r"], o["theta"])


def _parse_list(text, typ, flag):
    """Comma-separated values of one type; a bad token names its flag."""
    out = []
    for tok in text.split(","):
        if tok.strip():
            try:
                out.append(typ(tok))
            except ValueError:
                raise InvalidState(f"--{flag}: {tok.strip()!r} is not "
                                   f"a valid {typ.__name__}") from None
    return out


def _write_text(path, text):
    """Write text: a str, or an iterable of str pieces, each written as it
    is produced."""
    pieces = [text] if isinstance(text, str) else text
    if path is None or path == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)


def _law_text(head, law, rows, sep, tail):
    """head, the law's rows, then tail, as pieces of text: rows(cells)
    formats up to _LAW_BATCH (s, z, w) cells, and sep joins two batches."""
    yield head
    for i in range(0, len(law.s), _LAW_BATCH):
        cut = slice(i, i + _LAW_BATCH)
        yield (sep if i else "") + rows(zip(
            law.s[cut].tolist(), law.z[cut].tolist(), law.probability[cut].tolist()))
    yield tail


def _json_law_rows(cells):
    # each cell as emit_json would write the dict {"s": s, "z": z,
    # "probability": w} in the results.distribution list
    return ",\n".join(f'      {{\n        "probability": {w!r},\n        "s": {s},\n'
                      f'        "z": {z}\n      }}' for s, z, w in cells)


def _csv_law_rows(cells):
    # each cell as csv_lines would write the row [s, z, w]
    return "".join(f"{s},{z},{w:.17g}\r\n" for s, z, w in cells)


def _dict_rows_csv(rows):
    """CSV of a list of dicts that share their keys, in the first one's order."""
    header = list(rows[0])
    return "\r\n".join(csv_lines(header, [[row[h] for h in header]
                                           for row in rows])) + "\r\n"


def _add_options(sp, command):
    for key, (flags, typ, default, commands, help_) in OPTIONS.items():
        if command in commands:
            choices = FORMATS[command] if key == "format" else None
            sp.add_argument(*flags, dest=key, type=typ, help=help_, choices=choices,
                            default=choices[0] if choices else default)
    sp.add_argument("--output", "-o", help="output path (default stdout)")


def _arg_file_words(line):
    """One line of an argument file as shell words; `#` starts a comment."""
    try:
        return shlex.split(line, comments=True)
    except ValueError as exc:  # an unclosed quote
        raise InvalidState(f"argument file: {exc}: {line.rstrip()}") from None


def build_parser():
    ap = argparse.ArgumentParser(
        prog="lapsewalk",
        description="Elephant random walk with delays and memory lapses: "
                    "predictions, simulation, exact oracles, experiments.",
        fromfile_prefix_chars="@",
    )
    ap.convert_arg_line_to_args = _arg_file_words
    sub = ap.add_subparsers(dest="command", required=True)
    for name, about in (
            ("predict", "derived constants, regime, limit predictions"),
            ("simulate", "seeded ensemble summary at snapshot times"),
            ("exact", "exact moments (and optionally the full law)")):
        sp = sub.add_parser(name, help=about)
        if name == "exact":
            sp.add_argument("--distribution", action="store_true",
                            help="emit the full (s, z) mass table at n (DP, capped)")
        _add_options(sp, name)
    kinds = sub.add_parser("experiment", help="limit-theorem checks with PASS/FAIL "
                           "gates").add_subparsers(dest="kind", required=True)
    for kind, (_, _, csv_key) in EXPERIMENTS.items():
        sp = kinds.add_parser(kind)
        if csv_key:
            sp.add_argument("--csv", help="also write the per-row results table as CSV")
        sp.add_argument("--plot", help="also write an SVG plot")
        _add_options(sp, kind)
    return ap


def cmd_predict(o):
    params = _params_from(o)
    c = domain_constants(params, "a variance prediction", scaled=True)
    pred = regime_prediction(params)
    if c.regime is Regime.DIFFUSIVE:
        vn_asymptote = (f"v_n ~ Gamma(alpha+1)^2 n^(1-2 alpha)/(1-2 alpha)"
                        f" [exponent {1 - 2 * c.alpha:.6g}]")
    elif c.regime is Regime.CRITICAL:
        vn_asymptote = "v_n ~ (pi/4) log n"
    else:
        vn_asymptote = "v_n converges"
    report = base_report(
        "predict", **experiments.model_sections(params),
        predictions={
            "lln_limit": pred.lln_limit,
            "z_lln_limit": pred.z_lln_limit,
            "variance_scale": pred.scale_formula,
            "variance_scale_at_1e6": pred.variance_scale(10 ** 6),
            "v_n_asymptote": vn_asymptote,
        },
    )
    if c.regime is Regime.SUPERDIFFUSIVE:
        report["predictions"]["v_limit"] = v_limit_superdiffusive(c.alpha)
        report["predictions"]["residual_scale"] = pred.variance_scale(10 ** 6)
    if o["format"] == "json":
        _write_text(o["output"], emit_json(report))
    else:
        lines = [f"regime = {c.regime.value}"]
        for key in ("alpha", "omega", "tau", "gamma", "phi", "beta", "psi"):
            lines.append(f"{key} = {fmt_float(report['derived'][key])}")
        for key, val in report["predictions"].items():
            lines.append(f"{key} = {val if isinstance(val, str) else fmt_float(val)}")
        _write_text(o["output"], "\n".join(lines) + "\n")
    return 0


def cmd_simulate(o):
    text = o["snapshots"]
    snaps = None if text in (None, "dyadic") else _parse_list(text, int, "snapshots")
    rep = base_report("simulate", **experiments.simulate_report(
        _params_from(o), o["steps"], o["trajectories"], o["seed"],
        snapshots=snaps, workers=o["workers"],
    ))
    if o["format"] == "json":
        _write_text(o["output"], emit_json(rep))
    else:
        _write_text(o["output"], _dict_rows_csv(rep["results"]["snapshots"]))
    return 0


def cmd_exact(o):
    params = _params_from(o)
    n = o["steps"]
    pred = regime_prediction(params)
    # the law first: the DP cap refuses it before any moment work
    if o["distribution"]:
        law = distribution_dp(params, n)
    ns = [1, n, *(2 ** k for k in range(4, 25) if 2 ** k < n)]
    rows = []
    for row in exact_moments(params, n, ns=ns):
        scale = pred.variance_scale(row.n) if row.n > 1 else None
        rows.append({
            "n": row.n,
            "mean_s": row.mean_s,
            "var_s": row.var_s,
            "mean_z": row.mean_z,
            "mean_sz": row.mean_sz,
            "predicted_scale": scale,
            "var_over_scale": (row.var_s / scale if scale else None),
        })
    rep = base_report(
        "exact",
        params=experiments.model_sections(params)["params"],
        config={"n": n},
        results={"moments": rows},
    )
    if o["distribution"]:
        rep["results"]["distribution"] = []  # JSON rows are spliced in here
    # every refusal (the DP cap, the mass check, a non-finite report) comes
    # before _write_text opens the output
    if o["format"] == "json":
        text = emit_json(rep)
        if o["distribution"]:
            head, tail = text.split('"distribution": []', 1)
            text = _law_text(head + '"distribution": [\n', law, _json_law_rows,
                             ",\n", "\n    ]" + tail)
    else:
        text = _dict_rows_csv(rows)
        if o["distribution"]:
            text = _law_text(text + "s,z,probability\r\n", law, _csv_law_rows,
                             "", "")
    _write_text(o["output"], text)
    return 0


def _plot_lln(res):
    rows = res["snapshots"]
    ns = [row["n"] for row in rows]
    means = [row["mean_s"] / row["n"] for row in rows]
    pred = [res["predicted"]] * len(ns)
    return line_plot([(ns, means, "ensemble mean S_n/n"), (ns, pred, "limit")],
                     title="Law of large numbers", xlabel="n (log)",
                     ylabel="S_n / n", logx=True)


def _plot_ecdf(res):
    xs = res["ecdf_x"]
    return line_plot(
        [(xs, res["ecdf_f"], "standardized ECDF"),
         (xs, [normal_cdf(x) for x in xs], "normal CDF")],
        title="CDF overlay", xlabel="standardized S_n", ylabel="F(x)")


def _plot_superdiffusive(res):
    ns = res["slope_ns"]
    return line_plot(
        [(ns, res["slope_vars"], "exact Var(S_n)"),
         (ns, [math.exp(res["slope_intercept"]) * n ** res["slope"] for n in ns],
          f"fit slope {res['slope']:.3f}")],
        title="Superdiffusive variance scaling", xlabel="n",
        ylabel="Var(S_n)", logx=True, logy=True)


def _plot_scan(res):
    rows = res["scan"]
    alphas = [row["alpha"] for row in rows]
    return line_plot(
        [(alphas, [row["slope"] for row in rows], "fitted exponent"),
         (alphas, [row["reference_slope"] for row in rows], "theory")],
        title="Variance-scaling exponent vs alpha", xlabel="alpha",
        ylabel="exponent")


def _plot_lil(res):
    return line_plot([(res["snapshots"], res["median_running_max"],
                       "median running max")],
                     title="Iterated-logarithm diagnostic",
                     xlabel="n (log)", ylabel="statistic", logx=True)


def _mc_args(o):
    """params, n_steps, n_traj, master_seed, workers: every Monte Carlo
    driver's leading arguments, with the worker count refused before any
    work."""
    return (_params_from(o), o["steps"], o["trajectories"], o["seed"],
            counts("workers", o["workers"]))


# kind -> (run, plot, key of the results list --csv writes, or None).
# run(o) looks its driver up on the experiments module when it is
# called, so a driver replaced there (a test double, a tracing wrapper) runs.
EXPERIMENTS = {
    "lln": (lambda o: experiments.lln_experiment(*_mc_args(o)),
            _plot_lln, "snapshots"),
    "clt": (lambda o: experiments.clt_experiment(*_mc_args(o)),
            _plot_ecdf, None),
    "critical": (lambda o: experiments.critical_experiment(*_mc_args(o)),
                 _plot_ecdf, None),
    "superdiffusive": (lambda o: experiments.superdiffusive_experiment(
                           *_mc_args(o)), _plot_superdiffusive, None),
    "regime-scan": (lambda o: experiments.regime_scan_experiment(
                        o["p"], o["q"], o["r"],
                        _parse_list(o["alphas"], float, "alphas"), n_max=o["n_max"]),
                    _plot_scan, "scan"),
    "lil-diagnostic": (lambda o: experiments.lil_experiment(
                           _params_from(o), o["n_max"], o["trajectories"],
                           o["seed"], workers=o["workers"]),
                       _plot_lil, None),
}


def _nothing_to_plot(kind, o):
    """Why experiment `kind` would have nothing to draw, or None."""
    if kind in ("clt", "critical") and o["trajectories"] == 0:
        return f"no Monte Carlo ECDF at trajectories = {o['trajectories']}"
    if kind == "superdiffusive":
        n_far = experiments.HORIZON_FACTOR * o["steps"]
        if len(experiments.slope_fit_ns(n_far)) < experiments.SLOPE_FIT_MIN:
            return (f"fewer than {experiments.SLOPE_FIT_MIN} dyadic n in "
                    f"[1024, horizon_factor * n = {n_far}] for the slope fit")
    return None


def cmd_experiment(o):
    kind = o["kind"]
    run, plot, csv_key = EXPERIMENTS[kind]
    csv = o.get("csv")  # only kinds with a table take --csv
    why = o["plot"] and _nothing_to_plot(kind, o)
    if why:
        raise InvalidState(f"--plot: experiment {kind} has nothing to draw: {why}")
    rep = base_report("experiment", **run(o))
    _write_text(o["output"], emit_json(rep))

    if csv and rep["results"][csv_key]:
        _write_text(csv, _dict_rows_csv(rep["results"][csv_key]))
    if o["plot"]:
        _write_text(o["plot"], plot(rep["results"]))
    return 1 if rep["pass"] is False else 0


COMMANDS = {"predict": cmd_predict, "simulate": cmd_simulate, "exact": cmd_exact,
            "experiment": cmd_experiment}


def main(argv=None) -> int:
    try:
        # inside the try: an argument file's unclosed quote raises
        # InvalidState while the arguments are parsed
        o = vars(build_parser().parse_args(argv))
        return COMMANDS[o["command"]](o)
    except (LapsewalkError, OSError) as exc:
        print(f"lapsewalk: error: {exc}", file=sys.stderr)
        return 2

if __name__ == "__main__":
    sys.exit(main())

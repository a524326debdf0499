"""Command-line interface.

Subcommands: predict (analytic constants and regime), simulate (seeded
ensemble summary), exact (finite-n oracle tables), experiment (limit-theorem
checks with PASS/FAIL gates).

Exit codes: 0 success / all gates pass, 1 an experiment gate failed,
2 usage or domain error. Flags beat the config file, which beats defaults;
the config file is plain `key = value` lines with `#` comments, keys named
like the long options of any subcommand (p, q, r, theta, steps,
trajectories, seed, ...). An unknown key or a value that does not parse is
a usage error naming the file and the line.
"""

import argparse
import math
import sys

from . import experiments
from .analytic import regime_prediction, v_limit_superdiffusive
from .errors import Degenerate, InvalidState, LapsewalkError
from .exact import DP_CAP_DEFAULT, distribution_columns, exact_moments
from .model import ModelParams, Regime, derive_constants
from .report import base_report, csv_lines, emit_json, fmt_float
from .stats import normal_cdf
from .svg import line_plot

# key -> (default, type); config-file values are parsed with the type
OPTION_TABLE = {
    "p": (0.6, float), "q": (0.2, float), "r": (0.2, float),
    "theta": (0.5, float),
    "steps": (10000, int), "trajectories": (1000, int), "seed": (0, int),
    "workers": (1, int), "horizon_factor": (16, int),
    "dp_cap": (DP_CAP_DEFAULT, int), "n_max": (1 << 20, int),
    "format": (None, str), "snapshots": (None, str), "gate": (None, float),
    "alphas": ("0.1,0.25,0.5,0.75", str),
}
# subcommand -> its --format choices; experiment takes none and ignores the key
FORMATS = {"predict": ("text", "json"), "simulate": ("csv", "json"),
           "exact": ("csv", "json")}


def _parse_config_file(path):
    """key -> (value, "path:line"); a key no subcommand takes is refused."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise LapsewalkError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in OPTION_TABLE:
                raise InvalidState(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = (value, f"{path}:{lineno}")
    return out


def _resolve(args):
    """flags > config file > defaults"""
    config = _parse_config_file(args.config) if getattr(args, "config", None) else {}
    resolved = {}
    for key, (default, typ) in OPTION_TABLE.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in config:
            value, where = config[key]
            try:
                resolved[key] = typ(value)
            except ValueError:
                raise InvalidState(f"{where}: {key} = {value!r} is not a valid "
                                   f"{typ.__name__}") from None
            allowed = FORMATS.get(args.command) if key == "format" else None
            if allowed and value not in allowed:
                raise InvalidState(f"{where}: format = {value!r} is not one of "
                                   f"{', '.join(allowed)} for {args.command}")
        else:
            resolved[key] = default
    return resolved


def _params_from(resolved) -> ModelParams:
    return ModelParams(resolved["p"], resolved["q"], resolved["r"],
                       resolved["theta"])


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


def _parse_snapshots(text):
    if text is None or text == "dyadic":
        return None
    return _parse_list(text, int, "snapshots")


def _write_text(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_csv_text(header, rows):
    return "\r\n".join(csv_lines(header, rows)) + "\r\n"


def _dict_rows_csv(rows):
    """CSV of a list of dicts that share their keys, in the first one's order."""
    header = list(rows[0])
    return _emit_csv_text(header, [[row[h] for h in header] for row in rows])


def _add_param_flags(sp):
    sp.add_argument("-p", type=float, default=None, help="probability of a +1-type step")
    sp.add_argument("-q", type=float, default=None, help="probability of a -1-type step")
    sp.add_argument("-r", type=float, default=None, help="probability of a delay (0 step)")
    sp.add_argument("--theta", type=float, default=None,
                    help="memory probability in [0, 1)")
    sp.add_argument("--config", default=None, help="key = value config file")
    sp.add_argument("--output", "-o", default=None, help="output path (default stdout)")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="lapsewalk",
        description="Elephant random walk with delays and memory lapses: "
                    "predictions, simulation, exact oracles, experiments.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("predict", help="derived constants, regime, limit predictions")
    _add_param_flags(sp)
    sp.add_argument("--format", choices=FORMATS["predict"], default=None)

    sp = sub.add_parser("simulate", help="seeded ensemble summary at snapshot times")
    _add_param_flags(sp)
    sp.add_argument("-n", "--steps", type=int, default=None)
    sp.add_argument("-t", "--trajectories", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None, help="master seed")
    sp.add_argument("--snapshots", default=None,
                    help="comma-separated times, or 'dyadic' (default)")
    sp.add_argument("--workers", type=int, default=None)
    sp.add_argument("--format", choices=FORMATS["simulate"], default=None)

    sp = sub.add_parser("exact", help="exact moments (and optionally the full law)")
    _add_param_flags(sp)
    sp.add_argument("-n", "--steps", type=int, default=None)
    sp.add_argument("--distribution", action="store_true",
                    help="emit the full (s, z) mass table at n (DP, capped)")
    sp.add_argument("--dp-cap", dest="dp_cap", type=int, default=None)
    sp.add_argument("--format", choices=FORMATS["exact"], default=None)

    sp = sub.add_parser("experiment", help="limit-theorem checks with PASS/FAIL gates")
    sp.add_argument("kind", choices=EXPERIMENTS)
    _add_param_flags(sp)
    sp.add_argument("-n", "--steps", type=int, default=None)
    sp.add_argument("-t", "--trajectories", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--workers", type=int, default=None)
    sp.add_argument("--snapshots", default=None)
    sp.add_argument("--gate", type=float, default=None,
                    help="KS gate override for clt/critical/superdiffusive")
    sp.add_argument("--horizon-factor", dest="horizon_factor", type=int,
                    default=None, help="far-horizon multiple for the W proxy (>= 16)")
    sp.add_argument("--alphas", default=None,
                    help="comma list of alpha values for regime-scan")
    sp.add_argument("--n-max", dest="n_max", type=int, default=None,
                    help="horizon for regime-scan / lil-diagnostic")
    sp.add_argument("--csv", default=None,
                    help="also write the per-row CSV table (lln, regime-scan)")
    sp.add_argument("--plot", default=None, help="also write an SVG plot")
    return ap


def cmd_predict(resolved, output, fmt):
    params = _params_from(resolved)
    c = derive_constants(params)
    pred = regime_prediction(params)  # raises OutOfDomain for alpha < 0
    if pred.degenerate:
        raise Degenerate("phi = 0: variance predictions are degenerate")
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
        report["predictions"]["v_limit"] = v_limit_superdiffusive(c.alpha, 1e-10)
        report["predictions"]["residual_scale"] = pred.residual_scale(10 ** 6)
    if fmt == "json":
        _write_text(output, emit_json(report))
    else:
        lines = [f"regime = {c.regime.value}"]
        for key in ("alpha", "omega", "tau", "gamma", "phi", "beta", "psi"):
            lines.append(f"{key} = {fmt_float(report['derived'][key])}")
        for key, val in report["predictions"].items():
            lines.append(f"{key} = {val if isinstance(val, str) else fmt_float(val)}")
        _write_text(output, "\n".join(lines) + "\n")
    return 0


def cmd_simulate(resolved, output, fmt):
    params = _params_from(resolved)
    snaps = _parse_snapshots(resolved["snapshots"])
    rep = experiments.simulate_report(
        params, resolved["steps"], resolved["trajectories"], resolved["seed"],
        snapshots=snaps, workers=resolved["workers"],
    )
    rep = base_report("simulate", **{k: v for k, v in rep.items() if k != "kind"})
    if fmt == "json":
        _write_text(output, emit_json(rep))
    else:
        _write_text(output, _dict_rows_csv(rep["results"]["snapshots"]))
    return 0


# one (s, z, probability) cell of the joint law, as emit_json would write the
# dict {"s": s, "z": z, "probability": w} in a report's results.distribution
# list, and as csv_lines would write the row [s, z, w]
_LAW_JSON_ROW = ('      {{\n        "probability": {2!r},\n        "s": {0},\n'
                 '        "z": {1}\n      }}')
_LAW_CSV_ROW = "{0},{1},{2:.17g}\r\n"


def cmd_exact(resolved, output, fmt, with_distribution):
    params = _params_from(resolved)
    n = resolved["steps"]
    pred = regime_prediction(params)
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
    if with_distribution:
        law = [col.tolist() for col in
               distribution_columns(params, n, cap=resolved["dp_cap"])]
        rep["results"]["distribution"] = []  # JSON rows are spliced in here
    if fmt == "json":
        text = emit_json(rep)
        if with_distribution:
            rows_text = ",\n".join(map(_LAW_JSON_ROW.format, *law))
            text = text.replace('"distribution": []',
                                f'"distribution": [\n{rows_text}\n    ]', 1)
        _write_text(output, text)
    else:
        header = ["n", "mean_s", "var_s", "mean_z", "mean_sz",
                  "predicted_scale", "var_over_scale"]
        lines = _emit_csv_text(header, [[row[h] if row[h] is not None else ""
                                         for h in header] for row in rows])
        if with_distribution:
            lines += "s,z,probability\r\n" + "".join(
                map(_LAW_CSV_ROW.format, *law))
        _write_text(output, lines)
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
    driver's leading arguments."""
    return _params_from(o), o["steps"], o["trajectories"], o["seed"], o["workers"]


# kind -> (run, plot, key of the results list --csv writes, or None).
# run(resolved) looks its driver up on the experiments module when it is
# called, so a driver replaced there (a test double, a tracing wrapper) runs.
EXPERIMENTS = {
    "lln": (lambda o: experiments.lln_experiment(
                *_mc_args(o), snapshots=_parse_snapshots(o["snapshots"])),
            _plot_lln, "snapshots"),
    "clt": (lambda o: experiments.clt_experiment(
                *_mc_args(o), gate=o["gate"], dp_cap=o["dp_cap"]),
            _plot_ecdf, None),
    "critical": (lambda o: experiments.critical_experiment(
                     *_mc_args(o), gate=o["gate"], dp_cap=o["dp_cap"]),
                 _plot_ecdf, None),
    "superdiffusive": (lambda o: experiments.superdiffusive_experiment(
                           *_mc_args(o), horizon_factor=o["horizon_factor"],
                           gate=o["gate"]),
                       _plot_superdiffusive, None),
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
    if kind in ("clt", "critical") and o["trajectories"] <= 0:
        return f"no Monte Carlo ECDF at trajectories = {o['trajectories']}"
    if kind == "superdiffusive":
        n_far = o["horizon_factor"] * o["steps"]
        if len(experiments.slope_fit_ns(n_far)) < experiments.SLOPE_FIT_MIN:
            return (f"fewer than {experiments.SLOPE_FIT_MIN} dyadic n in "
                    f"[1024, horizon_factor * n = {n_far}] for the slope fit")
    return None


def cmd_experiment(args, resolved, output):
    run, plot, csv_key = EXPERIMENTS[args.kind]
    if args.csv and csv_key is None:
        raise InvalidState(f"--csv: experiment {args.kind} has no per-row table")
    why = args.plot and _nothing_to_plot(args.kind, resolved)
    if why:
        raise InvalidState(f"--plot: experiment {args.kind} has nothing to draw: "
                           f"{why}")
    rep = run(resolved)
    rep = base_report("experiment", **{k: v for k, v in rep.items() if k != "kind"},
                      kind=args.kind)
    _write_text(output, emit_json(rep))

    if args.csv and rep["results"][csv_key]:
        _write_text(args.csv, _dict_rows_csv(rep["results"][csv_key]))
    if args.plot:
        _write_text(args.plot, plot(rep["results"]))
    return 1 if rep["pass"] is False else 0


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        resolved = _resolve(args)
        output = args.output
        if args.command == "predict":
            return cmd_predict(resolved, output, resolved["format"] or "text")
        if args.command == "simulate":
            return cmd_simulate(resolved, output, resolved["format"] or "csv")
        if args.command == "exact":
            return cmd_exact(resolved, output, resolved["format"] or "csv",
                             args.distribution)
        return cmd_experiment(args, resolved, output)
    except LapsewalkError as exc:
        print(f"lapsewalk: error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"lapsewalk: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: CLI argument lists and the oracle check of
each op's output.

Every op is one ``lapsewalk`` CLI invocation. Its check runs after the
timed sequence and reads only the op's report, the package's independent
oracles and reference constants computed offline with mpmath.
README.md in this directory says why each workload was chosen.
"""

import math
from dataclasses import dataclass, field

from lapsewalk.analytic import expected_s, expected_z
from lapsewalk.exact import dp_moment_scan, exact_moments
from lapsewalk.model import ModelParams

NAMES = ("lln_wide", "superdiff_pool", "exact_oracles")

DIFFUSIVE = ModelParams(0.6, 0.2, 0.2, 0.5)
DIFFUSIVE_FLAGS = ["-p", "0.6", "-q", "0.2", "-r", "0.2", "--theta", "0.5"]


def super_flags(alpha):
    """p = 0.9, q = 0, r = 0.1 and theta solved from alpha = (p - q) theta."""
    return ["-p", "0.9", "-q", "0", "-r", "0.1", "--theta", repr(alpha / 0.9)]


# v_inf(alpha) = 3F2(1, 1, 1; alpha + 1, alpha + 1; 1), evaluated with
# mpmath.hyp3f2 at 30 digits.
V_LIMIT_REF = {
    0.55: 8.6854020224217407531,
    0.6: 4.7620347307602131082,
    0.75: 2.4159131244307827657,
}

# Sizes per mode. "full" is what the benchmark measures; "smoke" keeps every
# op and every layer but runs a workload in seconds.
SIZES = {
    "full": {"lln_n": 4096, "lln_t": 16384, "sd_n": 1024, "sd_t": 8192,
             "dp_n": 400, "exact_n": 1 << 21, "scan_n": 1 << 20},
    "smoke": {"lln_n": 256, "lln_t": 512, "sd_n": 128, "sd_t": 8192,
              "dp_n": 100, "exact_n": 1 << 14, "scan_n": 1 << 14},
}
SCAN_ALPHAS = "0.1,0.3,0.5,0.6,0.75"
HORIZON_FACTOR = 16  # the CLI default for experiment superdiffusive


class CheckFailed(Exception):
    """An op's output disagrees with its oracle."""


@dataclass
class Op:
    name: str
    argv: list
    check: object               # check(report, ctx), raises CheckFailed
    steps: int = 0              # trajectory-steps the op simulates
    seeded: bool = False        # report depends on --seed
    plot: str = None            # SVG path the op also writes
    typed_error: str = None     # stderr text of an accepted LapsewalkError
    report: str = field(default=None, init=False)

    def problem(self, report, ctx):
        """None if the parsed report passes the op's check, else what is wrong."""
        try:
            self.check(report, ctx)
        except (CheckFailed, LookupError, TypeError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None


class Context:
    """Per-run state shared by checks: the seed and cached oracle results."""

    def __init__(self, seed):
        self.seed = seed
        self._scans = {}

    def dp_scan(self, params, n):
        """dp_moment_scan(n), checked once against exact_moments(n)."""
        key = (params, n)
        if key not in self._scans:
            scan = dp_moment_scan(params, n)
            table = exact_moments(params, n)
            for row in scan:
                for attr in ("mean_s", "mean_z", "var_s", "mean_sz"):
                    _close(f"dp_moment_scan {attr}[{row.n}]", getattr(row, attr),
                           float(getattr(table, attr)[row.n]), 1e-9)
            self._scans[key] = scan[-1]
        return self._scans[key]


def _close(what, got, want, rel):
    if not abs(got - want) <= rel * max(abs(got), abs(want)):
        raise CheckFailed(f"{what}: {got!r} vs {want!r} (rel tol {rel})")


def _gates_pass(rep, ctx):
    if rep.get("pass") is not True:
        failed = [g["name"] for g in rep.get("gates", []) if not g["pass"]]
        raise CheckFailed(f"gates failed: {failed}")


def _seeded_gates_pass(rep, ctx):
    if rep["config"]["master_seed"] != ctx.seed:
        raise CheckFailed("report carries another master_seed")
    _gates_pass(rep, ctx)


def _check_superdiffusive(rep, ctx):
    _seeded_gates_pass(rep, ctx)
    _close("v_limit", rep["results"]["v_limit"], V_LIMIT_REF[0.75], 1e-9)


def _check_distribution(rep, ctx):
    """DP mass sums to 1 and its moments match the DP moment scan, which
    is itself checked against the O(n) recursions."""
    n = rep["config"]["n"]
    dist = rep["results"]["distribution"]
    mass = math.fsum(d["probability"] for d in dist)
    if abs(mass - 1.0) > 1e-10:
        raise CheckFailed(f"DP mass {mass!r} is not 1 within 1e-10")
    want = ctx.dp_scan(DIFFUSIVE, n)
    row = next((r for r in rep["results"]["moments"] if r["n"] == n), None)
    if row is None:
        raise CheckFailed(f"no moments row at n={n}")
    ms = math.fsum(d["probability"] * d["s"] for d in dist)
    for attr, got in (("mean_s", row["mean_s"]), ("var_s", row["var_s"]),
                      ("mean_z", row["mean_z"]), ("mean_sz", row["mean_sz"]),
                      ("mean_s", ms)):
        _close(f"exact n={n} {attr}", got, getattr(want, attr), 1e-9)


def _check_moments(rep, ctx):
    """Recursion moments against the closed forms for E S_n and E Z_n."""
    for row in rep["results"]["moments"]:
        n = row["n"]
        _close(f"E S_{n}", row["mean_s"], float(expected_s(DIFFUSIVE, n)), 1e-9)
        _close(f"E Z_{n}", row["mean_z"], float(expected_z(DIFFUSIVE, n)), 1e-9)
        if not row["var_s"] > 0.0:
            raise CheckFailed(f"Var S_{n} not positive")


def _check_scan(rep, ctx):
    _gates_pass(rep, ctx)
    if len(rep["results"]["scan"]) != len(SCAN_ALPHAS.split(",")):
        raise CheckFailed("regime-scan lost an alpha")


def _check_v_limit(alpha):
    def check(rep, ctx):
        _close(f"v_limit({alpha})", rep["predictions"]["v_limit"],
               V_LIMIT_REF[alpha], 1e-9)
    return check


def build(name, seed, mode, out_dir):
    """The op sequence of workload `name` at `seed`, writing into out_dir."""
    z = SIZES[mode]
    seed_flag = ["--seed", str(seed)]
    if name == "lln_wide":
        ops = [Op("lln", ["experiment", "lln", *DIFFUSIVE_FLAGS,
                          "-n", str(z["lln_n"]), "-t", str(z["lln_t"]),
                          "--workers", "1", *seed_flag],
                  _seeded_gates_pass, steps=z["lln_n"] * z["lln_t"],
                  seeded=True, plot=str(out_dir / "lln.svg"))]
    elif name == "superdiff_pool":
        # estimate_w runs n steps, residual_clt_sample the far horizon 16 n
        ops = [Op("superdiffusive",
                  ["experiment", "superdiffusive", *super_flags(0.75),
                   "-n", str(z["sd_n"]), "-t", str(z["sd_t"]), "--workers", "2",
                   *seed_flag],
                  _check_superdiffusive,
                  steps=(1 + HORIZON_FACTOR) * z["sd_n"] * z["sd_t"], seeded=True)]
    elif name == "exact_oracles":
        ops = [
            Op("exact_dp", ["exact", *DIFFUSIVE_FLAGS, "-n", str(z["dp_n"]),
                            "--distribution", "--format", "json"],
               _check_distribution),
            Op("clt_exact", ["experiment", "clt", *DIFFUSIVE_FLAGS, "-n", "400",
                             "-t", "0", *seed_flag],
               _seeded_gates_pass, seeded=True),
            Op("exact_moments", ["exact", *DIFFUSIVE_FLAGS, "-n", str(z["exact_n"]),
                                 "--format", "json"],
               _check_moments),
            Op("regime_scan", ["experiment", "regime-scan", "-p", "0.9", "-q", "0.05",
                               "-r", "0.05", "--alphas", SCAN_ALPHAS,
                               "--n-max", str(z["scan_n"])],
               _check_scan),
            Op("predict_0.6", ["predict", *super_flags(0.6), "--format", "json"],
               _check_v_limit(0.6)),
            # v_limit_superdiffusive stops at its 1e8-term cap here and raises
            # TooSlowConvergence; that typed error, or a correct value, is
            # an accepted outcome (README.md explains why)
            Op("predict_0.55", ["predict", *super_flags(0.55), "--format", "json"],
               _check_v_limit(0.55), typed_error="no convergence after"),
        ]
    else:
        raise ValueError(f"unknown workload {name!r}")
    for op in ops:
        op.report = str(out_dir / f"{op.name}.json")
        op.argv += ["-o", op.report] + (["--plot", op.plot] if op.plot else [])
    return ops

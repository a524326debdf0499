"""Benchmark of the lapsewalk command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Runs one workload (or `all`, each in its own process) through
``lapsewalk.cli.main(argv)`` inside this process, as a closed loop: one
caller repeats the workload's op sequence, each op starting when the one
before it has finished, until --seconds are spent. Every op's output is
checked after the timed sequence. The package is imported from ``src/`` of
the checkout this file sits in; nothing is installed.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced passes and prints the per-layer metrics.
The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"
SETUP_REPS = 9

# Time from a fresh interpreter to a built CLI parser, as a CLI user pays it.
# The child runs OpenBLAS with one thread: starting its thread pool costs
# 0 to 90 ms depending on how busy the other cores are, and the package
# makes no threaded BLAS calls.
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import lapsewalk.cli\n"
    "lapsewalk.cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)


def import_cli():
    """lapsewalk.cli from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import lapsewalk.cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import lapsewalk from {SRC}: {exc}")
    if not Path(lapsewalk.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: lapsewalk was imported from outside {SRC}")
    return lapsewalk.cli


def measure_setup(reps):
    """Median setup time of `reps` fresh interpreters, after one warm-up
    that also compiles the bytecode cache."""
    times = []
    for _ in range(reps + 1):
        done = subprocess.run([sys.executable, "-E", "-c", SETUP_CODE, str(SRC)],
                              env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(done.stdout))
    return statistics.median(times[1:])


def cpu_times():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def peak_rss_mib():
    """Larger of this process's and its largest child's peak RSS."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def call_main(cli, argv):
    """Exit code (or an exception) and stderr text of one CLI invocation."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "exception"
            traceback.print_exc()
    return code, err.getvalue()


def run_sequence(cli, ops):
    """One timed pass over the ops: (wall s, own cpu s, children cpu s, outcomes)."""
    for op in ops:
        for path in (op.report, op.plot):
            if path:
                Path(path).unlink(missing_ok=True)
    own0, kids0 = cpu_times()
    t0 = time.perf_counter()
    outcomes = [call_main(cli, op.argv) for op in ops]
    wall = time.perf_counter() - t0
    own1, kids1 = cpu_times()
    return wall, own1 - own0, kids1 - kids0, outcomes


class Tally:
    """Checks each op's outcome and counts attempts, failures and drift."""

    def __init__(self, ctx, golden):
        self.ctx, self.golden = ctx, golden
        self.attempted = self.failed = self.typed_errors = 0
        self.drift = 0
        self.drift_checked = 0
        self.problems = []

    def add(self, ops, outcomes):
        for op, (code, err) in zip(ops, outcomes):
            self.attempted += 1
            problem = self._problem(op, code, err)
            if problem:
                self.failed += 1
                self.problems.append(f"{op.name}: {problem}")

    def _problem(self, op, code, err):
        if code == 2 and op.typed_error and op.typed_error in err:
            self.typed_errors += 1
            return None
        if code != 0:
            return f"exit {code}: {err.strip()[-500:]}"
        try:
            data = Path(op.report).read_bytes()
            report = json.loads(data)
            if op.plot and not Path(op.plot).read_text().rstrip().endswith("</svg>"):
                return "SVG plot truncated"
        except (OSError, ValueError) as exc:
            return f"output unreadable: {exc}"
        want = self.golden.get(op.name)
        if want is not None:
            self.drift_checked += 1
            if hashlib.sha256(data).hexdigest() != want:
                self.drift += 1
        return op.problem(report, self.ctx)


def golden_digests(name, seed, mode):
    """Golden sha256 per op name that applies to this run.

    Digests were recorded at the default seed of golden.json. Reports of
    ops that take --seed are compared only at that seed; the others do not
    depend on the seed and are compared at every seed. Smoke sizes have no
    digests.
    """
    if mode != "full":
        return {}
    golden = json.loads(GOLDEN.read_text())
    ops = golden["workloads"].get(name, {})
    return {op: d["sha256"] for op, d in ops.items()
            if not d["seeded"] or seed == golden["seed"]}


def write_golden(name, seed, ops):
    golden = json.loads(GOLDEN.read_text())
    if golden["seed"] != seed:
        sys.exit(f"bench: golden.json holds seed {golden['seed']}, not {seed}")
    golden["seed"] = seed
    golden["workloads"][name] = {
        op.name: {"seeded": op.seeded,
                  "sha256": hashlib.sha256(Path(op.report).read_bytes()).hexdigest()}
        for op in ops if Path(op.report).exists()
    }
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


def measure(args, cli, out_dir):
    # these import lapsewalk, so only after import_cli() has set the path
    import layers
    import spans
    import workloads

    mode = "smoke" if args.smoke else "full"
    ops = workloads.build(args.workload, args.seed, mode, out_dir)
    golden = golden_digests(args.workload, args.seed, mode)
    tally = Tally(workloads.Context(args.seed), golden)
    setup_s = measure_setup(3 if args.smoke else SETUP_REPS) if not args.trace else None

    walls, cpus, traced = [], [], []
    start = time.perf_counter()
    if args.trace:
        # a discarded first pass, so that traced and untraced passes are
        # all warm and their difference is the tracing overhead
        tally.add(ops, run_sequence(cli, ops)[3])
    while True:
        pass_start = time.perf_counter()
        wall, own, kids, outcomes = run_sequence(cli, ops)
        tally.add(ops, outcomes)
        walls.append(wall)
        cpus.append(own + kids)
        if args.trace:
            tracer = spans.Tracer()
            undo = spans.install(tracer, layers.targets())
            try:
                wall, own, kids, outcomes = run_sequence(cli, ops)
            finally:
                spans.uninstall(undo)
            tally.add(ops, outcomes)
            traced.append(layers.metrics(tracer, wall, kids))
        spent = time.perf_counter() - start
        if spent + (time.perf_counter() - pass_start) > args.seconds:
            break
    if args.write_golden:
        write_golden(args.workload, args.seed, ops)

    wall_s = statistics.median(walls)
    if args.trace:
        metrics = {k: (statistics.median(m[k][0] for m in traced), traced[0][k][1])
                   for k in traced[0]}
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - wall_s, "s")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (peak_rss_mib(), "MiB"),
        }
    steps = sum(op.steps for op in ops)
    info = {
        "workload": args.workload, "mode": mode, "passes": len(walls),
        "traced_passes": len(traced),
        "pass_wall_s": walls,
        "msteps_per_s": steps / wall_s / 1e6 if steps else None,
        "ops_failed_frac": (tally.failed + tally.typed_errors) / tally.attempted,
        "typed_errors": tally.typed_errors,
        "report_drift": tally.drift if tally.drift_checked else None,
        "reports_compared": tally.drift_checked,
    }
    return metrics, info, tally


def provenance(seed):
    from lapsewalk.ensemble import CHUNK_SIZE_DEFAULT
    import numpy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_before": list(os.getloadavg()),
        "chunk_size_default": CHUNK_SIZE_DEFAULT,
        "seed": seed,
        "note": "byte counts named *_computed come from array sizes, not measurement",
    }


def check_metric_names(metrics, trace):
    """Smoke check: the metrics printed are exactly those BENCHMARK.json names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != want:
        sys.exit(f"bench: metrics {sorted(got.items())} differ from "
                 f"BENCHMARK.json {sorted(want.items())}")


def run_all(args):
    """Each workload in its own process, so peak RSS and imports stay apart."""
    import workloads
    code = 0
    for name in workloads.NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(argv + (["--smoke"] if args.smoke else [])).returncode)
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="lln_wide, superdiff_pool, exact_oracles or all")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes; also check metric names against BENCHMARK.json")
    ap.add_argument("--write-golden", action="store_true",
                    help="record this run's report digests in golden.json")
    args = ap.parse_args()

    cli = import_cli()
    if args.workload == "all":
        return run_all(args)
    prov = provenance(args.seed)
    out_dir = Path(tempfile.mkdtemp(prefix=".bench_out_", dir=ROOT))
    try:
        metrics, info, tally = measure(args, cli, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if args.smoke:
        check_metric_names(metrics, args.trace)

    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    print(f"run {json.dumps(info, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for problem in tally.problems[:20]:
        print(f"bench: op failed: {problem}", file=sys.stderr)
    correct = tally.failed == 0 and not info["report_drift"]
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

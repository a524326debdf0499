"""The benchmark's trace hooks still fit the package.

`bench/layers.targets()` names package functions by attribute, and each
counting hook reads the traced call's arguments by parameter name. A
function renamed or deleted under `src/`, or a parameter a hook reads, would
only break `bench/run.py --trace 1`; these checks make it fail here. They
load `bench/spans.py` and `bench/layers.py` from their files and change
nothing there.
"""

import importlib.util
import inspect
import re
from pathlib import Path

from lapsewalk import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
# every argument some hook reads; a hook that stops reading one fails here
HOOK_ARGS = {"n_traj", "chunk_size", "n_steps", "workers", "n_boot", "n",
             "n_max", "exact_cdf"}


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load("spans")
layers = load("layers")


def hooked_function(owner, attr):
    raw = inspect.getattr_static(owner, attr)
    return raw.__func__ if isinstance(raw, classmethod) else raw


def test_hooks_read_parameters_the_targets_have():
    read = set()
    for name, owner, attr, hook in layers.targets():
        fn = hooked_function(owner, attr)
        assert callable(fn), name
        if hook is None:
            continue
        wanted = set(re.findall(r'a\["(\w+)"\]', inspect.getsource(hook)))
        params = set(inspect.signature(fn).parameters)
        assert wanted <= params, f"{name}: {sorted(wanted - params)} missing"
        read |= wanted
    assert read == HOOK_ARGS


def test_install_trace_and_uninstall(tmp_path):
    targets = layers.targets()
    before = [hooked_function(owner, attr) for _, owner, attr, _ in targets]
    tracer = spans.Tracer()
    undo = spans.install(tracer, targets)
    try:
        # through the module attribute, which install has replaced
        flags = ["-p", "0.9", "-q", "0", "-r", "0.1", "--theta", repr(0.75 / 0.9)]
        assert cli.main(["experiment", "superdiffusive", *flags, "-n", "64",
                         "-t", "50", "--seed", "1",
                         "-o", str(tmp_path / "sd.json")]) in (0, 1)
        assert cli.main(["experiment", "clt", "-n", "50", "-t", "50",
                         "--seed", "1", "-o", str(tmp_path / "clt.json")]) in (0, 1)
    finally:
        spans.uninstall(undo)
    after = [hooked_function(owner, attr) for _, owner, attr, _ in targets]
    assert after == before
    calls = {name: n for name, (n, _, _) in tracer.durations().items()}
    for name in ("cli.main", "ensemble.run_ensemble",
                 "ensemble.residual_clt_sample", "ensemble.bootstrap",
                 "exact.moments", "stats.ks", "analytic.v_limit"):
        assert calls.get(name, 0) >= 1, name
    # one superdiffusive walk to 16 n, one clt walk to n
    assert tracer.counts["ensemble.traj_steps"] == 16 * 64 * 50 + 50 * 50
    assert tracer.counts["ensemble.bootstrap_resamples"] == 1000
    assert tracer.counts["stats.ks_points"] > 0



def test_dp_span_counts_both_exact_laws(tmp_path):
    # `exact --distribution` and the clt's exact CDF each run one DP at n
    tracer = spans.Tracer()
    undo = spans.install(tracer, layers.targets())
    try:
        assert cli.main(["exact", "-n", "40", "--distribution",
                         "-o", str(tmp_path / "law.csv")]) == 0
        assert cli.main(["experiment", "clt", "-n", "40", "-t", "0",
                         "-o", str(tmp_path / "clt.json")]) in (0, 1)
    finally:
        spans.uninstall(undo)
    calls = {name: n for name, (n, _, _) in tracer.durations().items()}
    assert calls.get("exact.dp") == 2
    assert tracer.counts["exact.dp_cells"] == 2 * sum((m + 2) ** 2
                                                      for m in range(1, 40))
    assert 0.0 <= tracer.counts["exact.dp_mass_error"] <= 1e-10

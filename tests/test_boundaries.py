"""Every bad size, index, seed or sample that enters the package, and every
point outside a quantity's domain, is refused with a `LapsewalkError`
subclass, before any work: no NaN result, no silently truncated size or
wrapped seed, and no bare TypeError, ValueError or OverflowError.

Sizes, indices and seeds pass `errors.counts` and samples
`errors.finite_sample`. The table pins one call per entry point that each
gate covers; the properties draw a bad size for every sized entry point.
"""

import json
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lapsewalk as lw
from lapsewalk import ensemble, experiments
from lapsewalk.cli import main
from lapsewalk.errors import counts, finite_sample
from lapsewalk.svg import line_plot

P = lw.ModelParams(0.6, 0.2, 0.2, 0.5)
SUPER = lw.ModelParams(0.9, 0.0, 0.1, 0.8)
NEG = lw.ModelParams(0.2, 0.6, 0.2, 0.5)  # alpha = -0.2
NAN, INF = float("nan"), float("inf")
EMPTY_CDF = lw.DiscreteCdf(points=np.empty(0), probs=np.empty(0), cdf=np.empty(0))

# (id, call, class): each call returns garbage or raises a bare exception
# without the gates
TABLE = [
    ("growth_values-1.7", lambda: lw.growth_values(0.3, 1.7), lw.InvalidState),
    ("expected_s-2.5", lambda: lw.expected_s(P, 2.5), lw.InvalidState),
    ("expected_z-2.5", lambda: lw.expected_z(P, 2.5), lw.InvalidState),
    ("exact_moments-row-2.5", lambda: lw.exact_moments(P, 10, ns=[2.5]),
     lw.InvalidState),
    ("run_ensemble-snapshot-2.5",
     lambda: lw.run_ensemble(P, 10, 5, snapshots=[2.5]), lw.InvalidState),
    ("run_ensemble-workers-1.5", lambda: lw.run_ensemble(P, 10, 5, workers=1.5),
     lw.InvalidState),
    ("lil_envelope-nan", lambda: lw.lil_envelope(P, NAN), lw.InvalidState),
    ("lil_envelope-inf", lambda: lw.lil_envelope(P, INF), lw.InvalidState),
    ("bootstrap-nan", lambda: lw.bootstrap_variance_ci([1.0, NAN, 2.0, 3.0]),
     lw.InvalidState),
    ("w_estimate-nan", lambda: lw.WEstimate.from_sample(np.array([1.0, NAN, 2.0])),
     lw.InvalidState),
    ("accumulator-nan",
     lambda: lw.MomentAccumulator.from_values(np.array([1.0, NAN, 2.0])),
     lw.InvalidState),
    ("run_ensemble-2.5", lambda: lw.run_ensemble(P, 2.5, 5), lw.InvalidState),
    ("exact_moments-2.5", lambda: lw.exact_moments(P, 2.5), lw.InvalidState),
    ("distribution_dp-2.5", lambda: lw.distribution_dp(P, 2.5), lw.InvalidState),
    ("standardized_exact_cdf-2.5", lambda: lw.standardized_exact_cdf(P, 2.5),
     lw.InvalidState),
    ("dp_moment_scan-2.5", lambda: lw.dp_moment_scan(P, 2.5), lw.InvalidState),
    ("a_sequence-2.5", lambda: lw.a_sequence(0.3, 2.5), lw.InvalidState),
    ("estimate_w-2.5", lambda: lw.estimate_w(SUPER, 2.5, 10), lw.InvalidState),
    ("residual_clt_sample-2.5", lambda: lw.residual_clt_sample(SUPER, 2.5, 10),
     lw.InvalidState),
    ("simulate_trajectory-2.5",
     lambda: lw.simulate_trajectory(P, 2.5, lw.RngStream(0, 0), [1]),
     lw.InvalidState),
    ("bootstrap-n_boot-2.5",
     lambda: lw.bootstrap_variance_ci([1.0, 2.0, 3.0], n_boot=2.5), lw.InvalidState),
    ("bootstrap-n_boot-10**20",
     lambda: lw.bootstrap_variance_ci([1.0, 2.0, 3.0], n_boot=10 ** 20),
     lw.CapExceeded),
    ("growth_values-nan", lambda: lw.growth_values(0.3, NAN), lw.InvalidState),
    ("ks_distance_cdf-empty", lambda: lw.ks_distance_cdf(EMPTY_CDF),
     lw.SampleTooSmall),
    ("dyadic_snapshots-0", lambda: lw.dyadic_snapshots(0), lw.InvalidState),
    ("dyadic_snapshots--3", lambda: lw.dyadic_snapshots(-3), lw.InvalidState),
    ("batch-index--1", lambda: lw.Xoshiro256Batch(0, [-1]), lw.InvalidState),
    ("batch-index-2**64", lambda: lw.Xoshiro256Batch(0, [2 ** 64]), lw.InvalidState),
    ("stream-index--1", lambda: lw.RngStream(0, -1), lw.InvalidState),
    ("fit_loglog-extra-y", lambda: lw.fit_loglog([1, 2, 3], [1, 2, 3, 4]),
     lw.SampleTooSmall),
    ("fit_loglog-equal-xs", lambda: lw.fit_loglog([2, 2, 2], [1, 2, 3]),
     lw.InvalidState),
    ("expected_z-alpha<0", lambda: lw.expected_z(NEG, 10), lw.OutOfDomain),
    ("lil_envelope-alpha<0", lambda: lw.lil_envelope(NEG, 10 ** 6), lw.OutOfDomain),
    ("lil_envelope-1.5", lambda: lw.lil_envelope(P, 1.5), lw.DomainTooSmall),
    ("clt_experiment-superdiffusive",
     lambda: experiments.clt_experiment(SUPER, 10, 5, 0), lw.OutOfDomain),
    ("superdiffusive_experiment-diffusive",
     lambda: experiments.superdiffusive_experiment(P, 10, 5, 0), lw.OutOfDomain),
    ("line_plot-inf", lambda: line_plot([([1.0, INF], [1.0, 2.0], "a")]),
     lw.InvalidState),
    ("line_plot-log-0", lambda: line_plot([([1.0, 2.0], [0.0, 1.0], "a")],
                                          logy=True), lw.InvalidState),
]


@pytest.mark.parametrize("call, cls", [row[1:] for row in TABLE],
                         ids=[row[0] for row in TABLE])
def test_boundary_table_refused_typed(call, cls):
    with pytest.raises(cls):
        call()


def _walked(*args, **kwargs):
    raise AssertionError("walked before a bad size was refused")


# entry points whose size sets their work, each called with the size drawn;
# every one of them caps that size, so 10**20 is refused too
SIZED = {
    "a_sequence": lambda n: lw.a_sequence(0.3, n),
    "v_sequence": lambda n: lw.v_sequence(0.3, n),
    "growth_values": lambda n: lw.growth_values(0.3, n),
    "growth_values-list": lambda n: lw.growth_values(0.3, [4, n]),
    "expected_s": lambda n: lw.expected_s(P, n),
    "expected_z": lambda n: lw.expected_z(P, n),
    "exact_moments": lambda n: lw.exact_moments(P, n),
    "exact_moments-rows": lambda n: lw.exact_moments(P, n, ns=[1]),
    "distribution_dp": lambda n: lw.distribution_dp(P, n),
    "dp_moment_scan": lambda n: lw.dp_moment_scan(P, n),
    "enumerate_paths": lambda n: lw.enumerate_paths(P, n),
    "standardized_exact_cdf": lambda n: lw.standardized_exact_cdf(P, n),
    "run_ensemble-n_steps": lambda n: lw.run_ensemble(P, n, 10),
    "run_ensemble-n_traj": lambda n: lw.run_ensemble(P, 10, n),
    "estimate_w-n_steps": lambda n: lw.estimate_w(SUPER, n, 10),
    "estimate_w-n_traj": lambda n: lw.estimate_w(SUPER, 10, n),
    "residual_clt_sample-n_steps": lambda n: lw.residual_clt_sample(SUPER, n, 10),
    "residual_clt_sample-n_traj": lambda n: lw.residual_clt_sample(SUPER, 10, n),
    "lil_diagnostic-n_max": lambda n: lw.lil_diagnostic(P, n, 10),
    "lil_diagnostic-n_traj": lambda n: lw.lil_diagnostic(P, 1024, n),
    "simulate_trajectory": lambda n: lw.simulate_trajectory(
        P, n, lw.RngStream(0, 0), [1]),
    "bootstrap-n_boot": lambda n: lw.bootstrap_variance_ci([1.0, 2.0, 3.0], n_boot=n),
}
# count options and grids: any integer >= 1 is a valid answer, 10**20 too
COUNT_OPTIONS = {
    "run_ensemble-workers": lambda n: lw.run_ensemble(P, 10, 5, workers=n),
    "run_ensemble-chunk_size": lambda n: lw.run_ensemble(P, 10, 5, chunk_size=n),
    "dyadic_snapshots": lambda n: lw.dyadic_snapshots(n),
    "run_ensemble-snapshots": lambda n: lw.run_ensemble(P, 10, 5, snapshots=[n]),
    "simulate_trajectory-snapshots": lambda n: lw.simulate_trajectory(
        P, 10, lw.RngStream(0, 0), [n]),
}
BAD_SIZES = [0, -1, 2.5, NAN]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(entry=st.sampled_from(sorted(SIZED)),
       size=st.sampled_from([*BAD_SIZES, 10 ** 20]))
def test_every_sized_entry_refuses_a_bad_size(entry, size):
    with pytest.raises(lw.LapsewalkError):
        SIZED[entry](size)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(entry=st.sampled_from(sorted(COUNT_OPTIONS)), size=st.sampled_from(BAD_SIZES))
def test_every_count_option_refuses_a_bad_value(entry, size):
    with pytest.raises(lw.LapsewalkError):
        COUNT_OPTIONS[entry](size)


def test_bad_sizes_refused_before_any_walk(monkeypatch):
    monkeypatch.setattr(ensemble, "_chunk_job", _walked)
    for n in (2.5, NAN, 10 ** 20, 0):
        with pytest.raises(lw.LapsewalkError):
            lw.run_ensemble(P, n, 10)
        with pytest.raises(lw.LapsewalkError):
            lw.run_ensemble(P, 10, n)


# a master seed is a 64-bit word: a float is refused, and an int outside
# [0, 2**64) instead of running as the stream of its residue mod 2**64
BAD_SEEDS = [(1.5, lw.InvalidState), (-1, lw.InvalidState),
             (2 ** 64, lw.CapExceeded)]
SEEDED = {
    "run_ensemble": lambda s: lw.run_ensemble(P, 10, 5, master_seed=s),
    "batch": lambda s: lw.Xoshiro256Batch(s, [0]),
    "stream": lambda s: lw.RngStream(s, 0),
}


@pytest.mark.parametrize("seed, cls", BAD_SEEDS, ids=["1.5", "-1", "2**64"])
@pytest.mark.parametrize("entry", sorted(SEEDED))
def test_bad_seed_refused_before_any_walk(monkeypatch, entry, seed, cls):
    monkeypatch.setattr(ensemble, "_chunk_job", _walked)
    with pytest.raises(cls):
        SEEDED[entry](seed)


def test_numpy_integer_seed_same_bits():
    ref = pickle.dumps(lw.run_ensemble(P, 10, 5, master_seed=3))
    assert pickle.dumps(lw.run_ensemble(P, 10, 5, master_seed=np.int64(3))) == ref
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        assert lw.RngStream(np.uint64(1), 5).s == lw.RngStream(1, 5).s
    top = 2 ** 64 - 1
    assert (lw.Xoshiro256Batch(np.uint64(top), [5]).next_uint64()[0]
            == lw.RngStream(top, 5).next_uint64())


def test_counts_messages_and_classes():
    assert counts("n", 3) == 3
    ns = np.array([1, 5], dtype=np.uint64)
    assert counts("ns", ns) is ns
    assert counts("ns", np.empty(0)).size == 0  # an empty list reads as float
    assert counts("k", 0, low=0) == 0
    with pytest.raises(lw.InvalidState, match=r"^workers must be >= 1, got 0$"):
        counts("workers", 0)
    with pytest.raises(lw.InvalidState, match=r"^n must be an integer, got 2\.5$"):
        counts("n", 2.5)
    for bad in (2.0, NAN, INF, np.float64(3.0), [1, 2.5], None, "3"):
        with pytest.raises(lw.InvalidState, match="must be an integer"):
            counts("n", bad)
    # a Python int beyond int64 reaches the cap, exactly compared
    with pytest.raises(lw.CapExceeded, match=r"^n = 10{20} above the DP cap 400 "
                                             r"\(O\(n\^3\) cost\)$"):
        counts("n", 10 ** 20, cap=400, kind="DP", cost="O(n^3) cost")
    assert counts("n", [2 ** 64 - 1], cap=2 ** 64 - 1) == [2 ** 64 - 1]
    with pytest.raises(lw.CapExceeded):
        counts("n", [2 ** 64], cap=2 ** 64 - 1)


def test_finite_sample_messages_and_classes():
    x = finite_sample([1, 2], 2, "a fit")
    assert x.dtype == np.float64 and x.tolist() == [1.0, 2.0]
    assert finite_sample([], 0, "a fold").size == 0
    with pytest.raises(lw.SampleTooSmall, match=r"^a fit needs >= 2 points, got 1$"):
        finite_sample([1.0], 2, "a fit")
    for bad in (NAN, INF, -INF):
        with pytest.raises(lw.InvalidState, match="finite"):
            finite_sample([1.0, bad, 3.0], 2, "a fit")


def test_cli_huge_size_reaches_its_cap(capsys):
    for argv, why in ((["exact", "-n", str(10 ** 20)], "above the moment cap"),
                      (["simulate", "-n", str(10 ** 20)], "above the step cap"),
                      (["simulate", "-n", "10", "-t", str(10 ** 20)],
                       "above the stream cap")):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert why in err and str(10 ** 20) in err, err


def test_cli_negative_seed_refused(capsys):
    assert main(["simulate", "-n", "10", "-t", "5", "--seed", "-1"]) == 2
    assert "master_seed must be >= 0, got -1" in capsys.readouterr().err


# each report built with numpy integers for its sizes, counts or seed
NUMPY_INT_REPORTS = {
    "lln-n_steps": lambda i: experiments.lln_experiment(P, i(64), 20, 3),
    "lln-n_traj": lambda i: experiments.lln_experiment(P, 64, i(20), 3),
    "clt-exact-only": lambda i: experiments.clt_experiment(
        lw.ModelParams(0.6, 0.2, 0.2, 0.3), i(50), i(0), i(3), i(1)),
    "lil": lambda i: experiments.lil_experiment(P, i(1024), i(10), i(3)),
    "simulate-seed": lambda i: experiments.simulate_report(P, 10, 5, i(3)),
}


@pytest.mark.parametrize("entry", sorted(NUMPY_INT_REPORTS))
def test_numpy_integer_report_has_the_python_int_bytes(entry):
    call = NUMPY_INT_REPORTS[entry]
    assert json.dumps(call(np.int64)) == json.dumps(call(int))


def test_line_plot_draws_an_equal_range_far_from_zero():
    # 2**53 + 1 rounds back to 2**53, so widening by 1 would leave no range
    svg = line_plot([([2.0 ** 53, 2.0 ** 53], [1.0, 2.0], "a")])
    assert svg.endswith("</svg>\n") and svg.count("<polyline") == 1
    assert svg.count(">9.0e+15</text>") >= 2  # the x ticks


def test_valid_sizes_unchanged():
    # numpy integers and exact-integer arrays pass as before
    assert lw.growth_values(0.3, np.int64(3)) == lw.growth_values(0.3, 3)
    assert lw.dyadic_snapshots(np.int64(100)) == [16, 32, 64, 100]
    assert lw.dyadic_snapshots(15) == [15] and lw.dyadic_snapshots(1) == [1]
    assert lw.dyadic_snapshots(64) == [16, 32, 64]
    ens = lw.run_ensemble(P, 10, 5, snapshots=np.array([10, 3]))
    assert ens.snapshots == [3, 10] and all(type(m) is int for m in ens.snapshots)
    rows = lw.exact_moments(P, 10, ns=np.array([3, 3, 1], dtype=np.uint64))
    assert [row.n for row in rows] == [1, 3]
    assert lw.exact_moments(P, 10, ns=[]) == []
    assert math.isfinite(lw.lil_envelope(P, 10 ** 6))

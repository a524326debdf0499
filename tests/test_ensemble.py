import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

import lapsewalk as lw
from lapsewalk import ensemble, exact, experiments
from lapsewalk.ensemble import MomentAccumulator

PARAMS = lw.ModelParams(0.6, 0.2, 0.2, 0.5)
SUPER = lw.ModelParams(0.9, 0.0, 0.1, 5.0 / 6.0)


def test_dyadic_snapshots():
    assert lw.dyadic_snapshots(16) == [16]
    assert lw.dyadic_snapshots(100) == [16, 32, 64, 100]
    assert lw.dyadic_snapshots(128) == [16, 32, 64, 128]
    assert lw.dyadic_snapshots(5) == [5]


def test_accumulator_matches_numpy():
    rng = np.random.default_rng(3)
    x = rng.normal(2.0, 3.0, size=5000)
    acc = MomentAccumulator.from_values(x)
    assert acc.count == 5000
    assert math.isclose(acc.mean, x.mean(), rel_tol=1e-12)
    assert math.isclose(acc.variance, x.var(ddof=1), rel_tol=1e-12)
    assert acc.min == x.min() and acc.max == x.max()


def close_acc(a, b, rel=1e-9):
    if a.count != b.count:
        return False
    for f in ("mean", "m2", "min", "max"):
        x, y = getattr(a, f), getattr(b, f)
        if abs(x - y) > rel * max(1.0, abs(x), abs(y)):
            return False
    return True


def test_merge_matches_whole_and_is_associative():
    rng = np.random.default_rng(8)
    x = rng.gamma(2.0, 1.5, size=3000)
    whole = MomentAccumulator.from_values(x)
    for cuts in ((100, 200), (1, 2999), (1500, 1501)):
        i, j = cuts
        a = MomentAccumulator.from_values(x[:i])
        b = MomentAccumulator.from_values(x[i:j])
        c = MomentAccumulator.from_values(x[j:])
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert close_acc(left, right)
        assert close_acc(left, whole)


def test_merge_with_empty():
    x = np.arange(10.0)
    acc = MomentAccumulator.from_values(x)
    assert close_acc(acc.merge(MomentAccumulator()), acc)
    assert close_acc(MomentAccumulator().merge(acc), acc)


def test_standardized_matches_transformed_values():
    rng = np.random.default_rng(4)
    x = rng.normal(5.0, 2.0, 800)
    acc = MomentAccumulator.from_values(x).standardized(1.5, 4.0)
    want = MomentAccumulator.from_values((x - 1.5) / 4.0)
    assert close_acc(acc, want, rel=1e-12)


@pytest.mark.parametrize("scale", [0.0, -4.0, float("nan")])
def test_standardized_refuses_a_scale_not_above_zero(scale):
    acc = MomentAccumulator.from_values(np.arange(10.0))
    with pytest.raises(lw.InvalidState, match="scale must be > 0"):
        acc.standardized(0.0, scale)


def pebay_from_values(x):
    """Reference accumulator as (count, mean, m2, m3, m4, min, max)."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return (0, 0.0, 0.0, 0.0, 0.0, float("inf"), float("-inf"))
    mean = float(x.mean())
    d = x - mean
    d2 = d * d
    return (int(x.size), mean, float(d2.sum()), float((d2 * d).sum()),
            float((d2 * d2).sum()), float(x.min()), float(x.max()))


def pebay_merge(a, b):
    """Pebay's merge of count, mean and central sums up to fourth order: the
    update MomentAccumulator made before it dropped m3 and m4."""
    if b[0] == 0:
        return a
    if a[0] == 0:
        return b
    na, mean_a, m2a, m3a, m4a, lo_a, hi_a = a
    nb, mean_b, m2b, m3b, m4b, lo_b, hi_b = b
    n = na + nb
    delta = mean_b - mean_a
    d_n = delta / n
    mean = mean_a + d_n * nb
    m2 = m2a + m2b + delta * d_n * na * nb
    m3 = (m3a + m3b + delta * d_n * d_n * na * nb * (na - nb)
          + 3.0 * d_n * (na * m2b - nb * m2a))
    m4 = (m4a + m4b + delta * d_n ** 3 * na * nb * (na * na - na * nb + nb * nb)
          + 6.0 * d_n * d_n * (na * na * m2b + nb * nb * m2a)
          + 4.0 * d_n * (na * m3b - nb * m3a))
    return (n, mean, m2, m3, m4, min(lo_a, lo_b), max(hi_a, hi_b))


def acc_bits(acc):
    return (acc.count, *(float(getattr(acc, f)).hex()
                         for f in ("mean", "m2", "min", "max")))


def ref_bits(ref):
    return (ref[0], *(float(v).hex() for v in (ref[1], ref[2], ref[5], ref[6])))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sizes=st.lists(st.integers(0, 300), min_size=1, max_size=9),
       seed=st.integers(0, 2 ** 32 - 1), integral=st.booleans(),
       order=st.lists(st.integers(0, 2 ** 16), min_size=8, max_size=8))
def test_merge_keeps_the_pebay_bits(sizes, seed, integral, order):
    """count, mean, m2, min and max keep their bits without m3 and m4, over
    any split of the data (empty pieces too) and any merge order. Pieces have
    their own centre and spread; integral ones look like walk positions."""
    rng = np.random.default_rng(seed)
    pieces = [rng.normal(rng.normal(0.0, 1e3), 10.0 ** rng.uniform(-3, 3), k)
              for k in sizes]
    if integral:
        pieces = [np.round(piece) for piece in pieces]
    accs = [MomentAccumulator.from_values(piece) for piece in pieces]
    refs = [pebay_from_values(piece) for piece in pieces]
    assert [acc_bits(a) for a in accs] == [ref_bits(r) for r in refs]
    picks = iter(order * len(pieces))
    while len(accs) > 1:
        i = next(picks) % len(accs)
        j = (i + 1 + next(picks) % (len(accs) - 1)) % len(accs)
        merged, ref = accs[i].merge(accs[j]), pebay_merge(refs[i], refs[j])
        for k in sorted((i, j), reverse=True):
            del accs[k], refs[k]
        accs.append(merged)
        refs.append(ref)
        assert acc_bits(merged) == ref_bits(ref)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sizes=st.lists(st.integers(0, 200), min_size=2, max_size=8),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_merge_order_changes_only_roundoff(sizes, seed, data):
    """Folding the same pieces in any order, or as a balanced tree, gives the
    same count, min and max, and mean and m2 equal to 1e-12 relative (mean
    relative to the data's magnitude, since it may be near 0)."""
    rng = np.random.default_rng(seed)
    pieces = [rng.normal(rng.normal(0.0, 1e3), 10.0 ** rng.uniform(-3, 3), k)
              for k in sizes]
    accs = [MomentAccumulator.from_values(piece) for piece in pieces]
    order = data.draw(st.permutations(range(len(accs))))

    def fold(items):
        out = MomentAccumulator()
        for acc in items:
            out = out.merge(acc)
        return out

    def tree(items):
        if len(items) == 1:
            return items[0]
        mid = len(items) // 2
        return tree(items[:mid]).merge(tree(items[mid:]))

    ref = fold(accs)
    magnitude = max(abs(ref.min), abs(ref.max), 1e-300)
    for got in (fold([accs[i] for i in order]), tree([accs[i] for i in order])):
        assert (got.count, got.min, got.max) == (ref.count, ref.min, ref.max)
        assert abs(got.mean - ref.mean) <= 1e-12 * magnitude
        assert abs(got.m2 - ref.m2) <= 1e-12 * abs(ref.m2)


def test_all_delay_ensemble_is_degenerate():
    ens = lw.run_ensemble(lw.ModelParams(0, 0, 1, 0.5), 100, 200,
                          snapshots=[50, 100], master_seed=0)
    for acc in ens.acc_s:
        assert acc.mean == 0.0 and acc.m2 == 0.0
    for acc in ens.acc_z:
        assert acc.mean == 0.0


def test_ensemble_deterministic_and_worker_invariant():
    kw = dict(snapshots=[64, 256], master_seed=99, keep_raw=True)
    runs = [lw.run_ensemble(PARAMS, 256, 3000, workers=w, **kw)
            for w in (1, 4, 16)]
    # pickled results are equal only if every float matches bit for bit
    bits = [pickle.dumps(run) for run in runs]
    assert bits[0] == bits[1] == bits[2]
    again = lw.run_ensemble(PARAMS, 256, 3000, workers=2, **kw)
    assert pickle.dumps(again) == bits[0]


def test_ensemble_invariant_across_pool_layouts(monkeypatch):
    # 12 blocks of 256 (the last one ragged), so the pool is entered and
    # workers = 1, 2, 3, 16 split them into 1, 2, 3 and 12 tasks
    kw = dict(snapshots=[1, 64, 200], master_seed=99, keep_raw=True,
              chunk_size=256)
    ref = lw.run_ensemble(PARAMS, 256, 3000, workers=1, **kw)
    assert all(acc.count == 3000 for acc in ref.acc_s)
    bits = pickle.dumps(ref)
    for w in (2, 3, 16):
        assert pickle.dumps(lw.run_ensemble(PARAMS, 256, 3000, workers=w,
                                            **kw)) == bits
    # the lane width of a task is a speed constant, not part of the output
    for lanes in (1, 768, 1280):  # 1 block a task, 3 a task, 5 + 5 + 2
        monkeypatch.setattr(ensemble, "LANES_MAX", lanes)
        assert pickle.dumps(lw.run_ensemble(PARAMS, 256, 3000, workers=1,
                                            **kw)) == bits


@pytest.mark.parametrize("kw", [dict(workers=0), dict(workers=-2),
                                dict(chunk_size=0), dict(chunk_size=-1)])
def test_ensemble_rejects_bad_workers_and_chunk_size(kw):
    with pytest.raises(lw.InvalidState):
        lw.run_ensemble(PARAMS, 10, 10, master_seed=1, **kw)


def test_ensemble_counts_and_snapshot_validation():
    ens = lw.run_ensemble(PARAMS, 100, 500, snapshots=[10, 100], master_seed=1)
    assert all(acc.count == 500 for acc in ens.acc_s)
    for snapshots in ([101], [0, 10], []):  # [] is no times, not the default
        with pytest.raises(lw.InvalidState):
            lw.run_ensemble(PARAMS, 100, 10, snapshots=snapshots, master_seed=1)


def test_keep_raw_rows_match_scalar_walk(monkeypatch):
    # blocks of 128 and tasks of two blocks: block edges at 128, 384, 640,
    # task edges at 256, 512, and a ragged last block of 60
    monkeypatch.setattr(ensemble, "LANES_MAX", 256)
    kw = dict(snapshots=[20, 50], master_seed=5, chunk_size=128)
    ens = lw.run_ensemble(PARAMS, 50, 700, keep_raw=True, **kw)
    assert [row.shape for row in ens.sample_s] == [(700,), (700,)]
    # row i is trajectory i: cross-check against the scalar walk
    for i in (0, 1, 127, 128, 255, 256, 383, 384, 511, 512, 639, 640, 699):
        out = lw.simulate_trajectory(PARAMS, 50, lw.RngStream(5, i), [20, 50])
        assert [row[i] for row in ens.sample_s] == [s for _, s, _ in out]
    assert lw.run_ensemble(PARAMS, 50, 700, **kw).sample_s is None


def pooled_counts(observed, expected, floor=5.0):
    """Pool cells, smallest expected count first, until each pool expects at
    least `floor`; a short last pool joins the one before it."""
    obs, exp, o, e = [], [], 0, 0.0
    for i in np.argsort(expected, kind="stable"):
        o, e = o + observed[i], e + expected[i]
        if e >= floor:
            obs.append(o)
            exp.append(e)
            o, e = 0, 0.0
    obs[-1] += o
    exp[-1] += e
    return np.array(obs), np.array(exp)


@pytest.mark.parametrize("params", [
    lw.ModelParams(0.5, 0.3, 0.2, 0.0),
    lw.ModelParams(0.5, 0.3, 0.2, 0.999),
    lw.ModelParams(0.35, 0.35, 0.3, 0.6),
    lw.ModelParams(0.7, 0.3, 0.0, 0.5),
    lw.ModelParams(0.6, 0.0, 0.4, 0.7),
], ids=["theta=0", "theta=0.999", "p=q", "r=0", "q=0"])
def test_batch_kernel_law_matches_dp(params):
    # the sampler against the exact law, which the DP reaches along a
    # separate code path: chi-square of the (S_n, Z_n) histogram of 1e5 lanes
    n, lanes = 24, 100_000
    (s, z), = ensemble._simulate_chunk(params, n, [n], 11, 0, lanes)
    law = exact.distribution_dp(params, n)
    probs = law.probability
    keys = (law.s + n) * (n + 1) + law.z  # increasing in (s, z), as the rows are
    drawn = ((s + n) * (n + 1) + z).astype(np.int64)
    cell = np.minimum(np.searchsorted(keys, drawn), keys.size - 1)
    assert np.array_equal(keys[cell], drawn)  # no draw off the support
    obs, exp = pooled_counts(np.bincount(cell, minlength=keys.size),
                             probs * (lanes / probs.sum()))
    assert obs.size >= 2
    assert scipy_stats.chisquare(obs, exp).pvalue > 1e-3


def test_theta_zero_lln_bound():
    p = lw.ModelParams(0.6, 0.2, 0.2, 0.0)
    ens = lw.run_ensemble(p, 1000, 2000, snapshots=[1000], master_seed=12)
    acc = ens.acc_s[0]
    assert abs(acc.mean - 1000 * 0.4) <= 4.0 * acc.stderr


def test_martingale_track_centers():
    ens = lw.run_ensemble(PARAMS, 512, 4000, master_seed=31)
    accs = lw.martingale_track(PARAMS, ens)
    assert len(accs) == len(ens.snapshots)
    for acc in accs:
        assert abs(acc.mean) <= 4.0 * acc.stderr


def test_martingale_variance_clock_ratio():
    # deterministic: Var(M_n) / v_n approaches phi (within 5% at n = 1e5)
    c = lw.derive_constants(PARAMS)
    n = 10 ** 5
    tab = lw.exact_moments(PARAMS, n)
    a_n = lw.growth_values(c.alpha, n)
    v_n = lw.v_sequence(c.alpha, n)[n]
    ratio = tab.var_s[n] / a_n ** 2 / v_n / c.phi
    assert abs(ratio - 1.0) <= 0.05


def test_estimate_w_requires_superdiffusive():
    with pytest.raises(lw.OutOfDomain):
        lw.estimate_w(PARAMS, 100, 10)


def test_estimate_w_refuses_one_trajectory_before_walking(monkeypatch):
    def walked(*args, **kwargs):
        raise AssertionError("walked before one trajectory was refused")

    monkeypatch.setattr(ensemble, "run_ensemble", walked)
    with pytest.raises(lw.SampleTooSmall, match="got 1"):
        lw.estimate_w(SUPER, 10, 1)


def test_bootstrap_ci_refuses_one_value():
    with pytest.raises(lw.SampleTooSmall, match="got 1"):
        lw.bootstrap_variance_ci([1.0])
    lo, hi = lw.bootstrap_variance_ci([1.0, 2.0], n_boot=1)
    assert lo == hi and lo in (0.0, 0.5)


def test_bootstrap_ci_refuses_no_resamples():
    with pytest.raises(lw.InvalidState, match="n_boot"):
        lw.bootstrap_variance_ci([1.0, 2.0, 4.0], n_boot=0)


def test_estimate_w_small_scale():
    n = 2 * 10 ** 4
    w = lw.estimate_w(SUPER, n, 2000, master_seed=11)
    acc = lw.MomentAccumulator.from_values(w)
    assert abs(acc.mean) <= 4.0 * acc.stderr
    c = lw.derive_constants(SUPER)
    tab = lw.exact_moments(SUPER, n)
    exact_vm = tab.var_s[n] / lw.growth_values(c.alpha, n) ** 2
    assert abs(acc.variance - exact_vm) / exact_vm <= 0.05
    lo, hi = lw.bootstrap_variance_ci(w, n_boot=400)
    assert lo > 0.0 and hi > lo
    assert w.shape == (acc.count,) == (2000,)


def test_residual_clt_guard_and_sample():
    with pytest.raises(lw.OutOfDomain):
        lw.residual_clt_sample(PARAMS, 100, 50)
    w, res = lw.residual_clt_sample(SUPER, 250, 600, master_seed=5)
    assert w.size == res.size == 600
    se = res.std(ddof=1) / math.sqrt(res.size)
    assert abs(res.mean()) <= 4.0 * se
    # proxy at 16x the horizon misses 1 - 16^(1-2a) = 25% of the variance at
    # alpha = 0.75; the raw spread must sit near sqrt(0.75), not near 1
    assert 0.7 <= res.std(ddof=1) <= 0.95


def test_residual_clt_refuses_phi_zero_before_walking(monkeypatch):
    def walked(*args, **kwargs):
        raise AssertionError("walked before phi = 0 was refused")

    monkeypatch.setattr(ensemble, "run_ensemble", walked)
    with pytest.raises(lw.Degenerate, match="phi = 0"):
        ensemble.residual_clt_sample(lw.ModelParams(1, 0, 0, 0.8), 16, 20)


def test_single_walk_w_matches_estimate_w_bytes():
    # the superdiffusive experiment takes W from the residual walk's rows at
    # n; they are the rows estimate_w walks to n at the same seed
    n, n_traj, seed = 64, 300, 7
    west = lw.estimate_w(SUPER, n, n_traj, master_seed=seed)
    w, _ = lw.residual_clt_sample(SUPER, n, n_traj, master_seed=seed)
    assert west.dtype == w.dtype == np.float64 and west.shape == (n_traj,)
    assert w.tobytes() == west.tobytes()
    acc = lw.MomentAccumulator.from_values(west)
    want = [x.hex() for x in (acc.mean, acc.variance, acc.stderr)]
    results = experiments.superdiffusive_experiment(SUPER, n, n_traj,
                                                    seed)["results"]
    assert [results[k].hex() for k in ("mean_w", "var_w", "stderr_w")] == want


def test_superdiffusive_experiment_walks_once(monkeypatch):
    calls = []
    real = ensemble.run_ensemble

    def spy(params, n_steps, n_traj, **kwargs):
        calls.append((n_steps, n_traj, kwargs["snapshots"]))
        return real(params, n_steps, n_traj, **kwargs)

    monkeypatch.setattr(ensemble, "run_ensemble", spy)
    monkeypatch.setattr(experiments, "run_ensemble", spy)
    experiments.superdiffusive_experiment(SUPER, 64, 200, 3)
    assert calls == [(16 * 64, 200, [64, 16 * 64])]


def test_lil_diagnostic_trace():
    p0 = lw.ModelParams(0.6, 0.2, 0.2, 0.0)
    d1 = lw.lil_diagnostic(p0, 2048, 150, master_seed=9)
    d2 = lw.lil_diagnostic(p0, 2048, 150, master_seed=9)
    assert np.array_equal(d1.running_max, d2.running_max)
    assert np.all(np.isfinite(d1.running_max))
    assert np.all(d1.running_max > 0)
    # running max is nondecreasing along the snapshot axis
    assert np.all(np.diff(d1.running_max, axis=0) >= 0.0)
    assert d1.snapshots[0] == 16 and d1.snapshots[-1] == 2048
    assert d1.final_stats.shape == (150,)
    assert d1.median_trace().shape == d1.snapshots.shape


def test_lil_diagnostic_domain_too_small():
    thin = lw.ModelParams(0.05, 0.05, 0.9, 0.0)  # phi = 0.1
    with pytest.raises(lw.DomainTooSmall):
        lw.lil_diagnostic(thin, 16, 10, master_seed=1)
    diag = lw.lil_diagnostic(thin, 128, 10, master_seed=1)
    assert diag.snapshots[0] == 32  # n = 16 is skipped, envelope undefined

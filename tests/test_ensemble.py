import math

import numpy as np
import pytest

import lapsewalk as lw
from lapsewalk import ensemble
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
    d = x - x.mean()
    assert math.isclose(acc.m3, float((d ** 3).sum()), rel_tol=1e-9)
    assert math.isclose(acc.m4, float((d ** 4).sum()), rel_tol=1e-9)


def close_acc(a, b, rel=1e-9):
    if a.count != b.count:
        return False
    for f in ("mean", "m2", "m3", "m4", "min", "max"):
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


def test_all_delay_ensemble_is_degenerate():
    ens = lw.run_ensemble(lw.ModelParams(0, 0, 1, 0.5), 100, 200,
                          snapshots=[50, 100], master_seed=0)
    for acc in ens.acc_s:
        assert acc.mean == 0.0 and acc.m2 == 0.0
    for acc in ens.acc_z:
        assert acc.mean == 0.0


def test_ensemble_deterministic_and_worker_invariant():
    kw = dict(snapshots=[64, 256], master_seed=99, reservoir_k=128)
    runs = [lw.run_ensemble(PARAMS, 256, 3000, workers=w, **kw)
            for w in (1, 4, 16)]
    assert lw.ensembles_identical(runs[0], runs[1])
    assert lw.ensembles_identical(runs[0], runs[2])
    again = lw.run_ensemble(PARAMS, 256, 3000, workers=2, **kw)
    assert lw.ensembles_identical(runs[0], again)


def test_ensemble_invariant_across_pool_layouts(monkeypatch):
    # 12 blocks of 256 (the last one ragged), so the pool is entered and
    # workers = 1, 2, 3, 16 split them into 1, 2, 3 and 12 tasks
    kw = dict(snapshots=[1, 64, 200], master_seed=99, reservoir_k=3000,
              chunk_size=256)
    ref = lw.run_ensemble(PARAMS, 256, 3000, workers=1, **kw)
    assert all(acc.count == 3000 for acc in ref.acc_s)
    for w in (2, 3, 16):
        assert lw.ensembles_identical(ref, lw.run_ensemble(PARAMS, 256, 3000,
                                                           workers=w, **kw))
    # the lane width of a task is a speed constant, not part of the output
    for lanes in (1, 768, 1280):  # 1 block a task, 3 a task, 5 + 5 + 2
        monkeypatch.setattr(ensemble, "LANES_MAX", lanes)
        assert lw.ensembles_identical(ref, lw.run_ensemble(PARAMS, 256, 3000,
                                                           workers=1, **kw))


@pytest.mark.parametrize("kw", [dict(workers=0), dict(workers=-2),
                                dict(chunk_size=0), dict(chunk_size=-1)])
def test_ensemble_rejects_bad_workers_and_chunk_size(kw):
    with pytest.raises(lw.InvalidState):
        lw.run_ensemble(PARAMS, 10, 10, master_seed=1, **kw)


def test_ensemble_counts_and_snapshot_validation():
    ens = lw.run_ensemble(PARAMS, 100, 500, snapshots=[10, 100], master_seed=1)
    assert all(acc.count == 500 for acc in ens.acc_s)
    with pytest.raises(lw.InvalidState):
        lw.run_ensemble(PARAMS, 100, 10, snapshots=[101], master_seed=1)


def test_reservoir_full_capture_matches_chunk_order():
    ens = lw.run_ensemble(PARAMS, 50, 700, snapshots=[50], master_seed=5,
                          reservoir_k=700, chunk_size=128)
    raw = ens.sample_s[0]
    assert raw.size == 700
    # trajectory 3 must sit at index 3: cross-check against the scalar walk
    out = lw.simulate_trajectory(PARAMS, 50, lw.RngStream(5, 3), [50])
    assert raw[3] == out[0][1]


def test_reservoir_subsample_is_reproducible_subset():
    a = lw.run_ensemble(PARAMS, 30, 900, snapshots=[30], master_seed=5,
                        reservoir_k=100)
    b = lw.run_ensemble(PARAMS, 30, 900, snapshots=[30], master_seed=5,
                        reservoir_k=100)
    assert np.array_equal(a.sample_s[0], b.sample_s[0])
    assert a.sample_s[0].size == 100
    full = lw.run_ensemble(PARAMS, 30, 900, snapshots=[30], master_seed=5,
                           reservoir_k=900).sample_s[0]
    assert set(a.sample_s[0]).issubset(set(full))


def test_theta_zero_lln_bound():
    p = lw.ModelParams(0.6, 0.2, 0.2, 0.0)
    ens = lw.run_ensemble(p, 1000, 2000, snapshots=[1000], master_seed=12)
    acc = ens.acc_s[0]
    assert abs(acc.mean - 1000 * 0.4) <= 4.0 * acc.stderr


def test_martingale_track_centers_and_caches():
    ens = lw.run_ensemble(PARAMS, 512, 4000, master_seed=31)
    accs = lw.martingale_track(PARAMS, ens)
    assert ens.acc_m is accs
    for acc in accs:
        assert abs(acc.mean) <= 4.0 * acc.stderr


def test_martingale_variance_clock_ratio():
    # deterministic: Var(M_n) / v_n approaches phi (within 5% at n = 1e5)
    c = lw.derive_constants(PARAMS)
    n = 10 ** 5
    tab = lw.exact_moments(PARAMS, n)
    a_n = lw.growth_values(c.alpha, n)
    v_n = lw.v_sequence(c.alpha, n).value(n)
    ratio = tab.var_s[n] / a_n ** 2 / v_n / c.phi
    assert abs(ratio - 1.0) <= 0.05


def test_estimate_w_requires_superdiffusive():
    with pytest.raises(lw.WrongRegime):
        lw.estimate_w(PARAMS, 100, 10)


def test_estimate_w_small_scale():
    n = 2 * 10 ** 4
    west = lw.estimate_w(SUPER, n, 2000, master_seed=11)
    assert abs(west.mean_w) <= 4.0 * west.stderr
    c = lw.derive_constants(SUPER)
    tab = lw.exact_moments(SUPER, n)
    exact_vm = tab.var_s[n] / lw.growth_values(c.alpha, n) ** 2
    assert abs(west.var_w - exact_vm) / exact_vm <= 0.05
    lo, hi = lw.bootstrap_variance_ci(west.sample, n_boot=400)
    assert lo > 0.0 and hi > lo
    assert west.sample.size == west.n_used == 2000


def test_residual_clt_guard_and_sample():
    with pytest.raises(lw.InvalidState):
        lw.residual_clt_sample(SUPER, 100, 50, horizon_factor=8)
    with pytest.raises(lw.WrongRegime):
        lw.residual_clt_sample(PARAMS, 100, 50)
    res = lw.residual_clt_sample(SUPER, 250, 600, master_seed=5)
    assert res.size == 600
    se = res.std(ddof=1) / math.sqrt(res.size)
    assert abs(res.mean()) <= 4.0 * se
    # proxy at 16x the horizon misses 1 - 16^(1-2a) = 25% of the variance at
    # alpha = 0.75; the raw spread must sit near sqrt(0.75), not near 1
    assert 0.7 <= res.std(ddof=1) <= 0.95


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

"""Property tests over the parameter simplex, edges included.

Derandomized hypothesis draws with no example database, as in
test_kernel.py. Each point lies on the simplex p + q + r = 1 with
theta in [0, 1), and the draws reach the theta = 0, p = q and r = 1 edges.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import lapsewalk as lw
from test_exact import dists_close

MOMENTS = ("mean_s", "mean_z", "var_s", "mean_sz")


@st.composite
def simplex_points(draw):
    edge = draw(st.sampled_from(("interior", "p = q", "r = 1")))
    if edge == "r = 1":
        p = q = 0.0
    elif edge == "p = q":
        p = q = draw(st.floats(0.0, 0.5))
    else:
        p = draw(st.floats(0.0, 1.0))
        q = (1.0 - p) * draw(st.floats(0.0, 1.0))  # at most 1 - p, so r >= 0
    theta = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)))
    return lw.ModelParams(p, q, 1.0 - p - q, theta)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(params=simplex_points(), n=st.integers(1, 9))
def test_exact_oracles_agree(params, n):
    dp = lw.distribution_dp(params, n)
    paths = lw.enumerate_paths(params, n)
    assert dists_close(dp, paths, 1e-14)
    assert abs(dp.total_mass() - 1.0) <= 1e-12
    # relative to the moment's size, floored at 1 where it is near 0
    table = lw.exact_moments(params, n)
    for row in lw.dp_moment_scan(params, n):
        for f in MOMENTS:
            a, b = getattr(row, f), getattr(table, f)[row.n]
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), (row.n, f)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(params=simplex_points(), n_steps=st.integers(1, 40),
       n_traj=st.integers(1, 40), chunk_size=st.integers(1, 16),
       master_seed=st.integers(0, 2 ** 64 - 1), data=st.data())
def test_scalar_walk_matches_batch_rows(params, n_steps, n_traj, chunk_size,
                                        master_seed, data):
    # the kernels associate the thresholds differently (see
    # simulate_trajectory), so they could part only on a uniform within
    # one ulp of a threshold
    snaps = sorted(data.draw(st.sets(st.integers(1, n_steps), min_size=1,
                                     max_size=4)))
    ens = lw.run_ensemble(params, n_steps, n_traj, snapshots=snaps,
                          master_seed=master_seed, keep_raw=True,
                          chunk_size=chunk_size)
    walks = [lw.simulate_trajectory(params, n_steps,
                                    lw.RngStream(master_seed, i), snaps)
             for i in range(n_traj)]
    for i, out in enumerate(walks):
        assert [row[i] for row in ens.sample_s] == [s for _, s, _ in out]
    # Z is kept only as accumulators: fold the scalar rows in block order
    for k, acc in enumerate(ens.acc_z):
        z = [out[k][2] for out in walks]
        want = lw.MomentAccumulator()
        for lo in range(0, n_traj, chunk_size):
            want = want.merge(lw.MomentAccumulator.from_values(
                z[lo:lo + chunk_size]))
        assert acc == want, snaps[k]

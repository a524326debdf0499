"""Property test: the in-place lockstep kernel keeps the bits of the plain one.

`reference_chunk` is the allocate-per-step kernel that `_simulate_chunk`
replaced, kept here as the oracle. It draws one row of uniforms per step;
the kernel draws a window of steps at a time, so the walks are also compared
with the window patched down to 1, 2, 3 and 7 rows, which puts snapshots on
the first, a middle and the last row of a window and ends walks mid-window.
At q = 0 the kernel walks one-sided (no minus threshold, no minus count);
the reference has no such path, so the same comparison covers it, at the
zero edges q = -0.0, p = -0.0 and p = q = 0 too. Both draw from
`Xoshiro256Batch`, whose lanes test_rng.py checks against the scalar
generator. A last-ulp change in a threshold almost never flips a
comparison at the sizes a test can walk, so the thresholds are also compared
directly, at counts up to ~1e12.
"""

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapsewalk import ensemble
from lapsewalk.ensemble import _simulate_chunk, _thresholds
from lapsewalk.rng import Xoshiro256Batch


def reference_chunk(params, n_steps, snaps, master_seed, lo, hi):
    """Lockstep walk of trajectories [lo, hi); returns S, Z at snapshots."""
    p, q, theta = params.p, params.q, params.theta
    rng = Xoshiro256Batch(master_seed, np.arange(lo, hi, dtype=np.uint64))
    width = hi - lo
    n_plus = np.zeros(width)
    n_minus = np.zeros(width)
    s_rows = np.empty((len(snaps), width))
    z_rows = np.empty((len(snaps), width))
    is_snap = np.zeros(n_steps + 1, dtype=bool)
    is_snap[np.asarray(snaps, dtype=np.int64)] = True
    row = 0

    const_plus = (1.0 - theta) * p
    const_minus = (1.0 - theta) * q
    first_cum = p + q

    u = rng.uniforms()
    plus = u < p
    minus = (~plus) & (u < first_cum)
    n_plus += plus
    n_minus += minus
    if is_snap[1]:
        s_rows[row] = n_plus - n_minus
        z_rows[row] = n_plus + n_minus
        row += 1
    for m in range(1, n_steps):
        u = rng.uniforms()
        th_m = theta / m
        p_plus = (n_plus * p + n_minus * q) * th_m + const_plus
        cum = p_plus + (n_minus * p + n_plus * q) * th_m + const_minus
        plus = u < p_plus
        minus = (~plus) & (u < cum)
        n_plus += plus
        n_minus += minus
        if is_snap[m + 1]:
            s_rows[row] = n_plus - n_minus
            z_rows[row] = n_plus + n_minus
            row += 1
    return s_rows, z_rows


@st.composite
def kernel_params(draw):
    # p, q, theta only: the kernel never reads r. theta = 1 (pure memory)
    # lies outside ModelParams but the kernel is defined there too.
    x = draw(st.floats(0.0, 1.0))
    p, q = draw(st.sampled_from([
        (x, (1.0 - x) * draw(st.floats(0.0, 1.0))),  # interior of the simplex
        (x / 2.0, x / 2.0),                           # p = q
        (x, 0.0),                                     # q = 0
        (0.0, 0.0),                                   # r = 1
    ]))
    theta = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    return SimpleNamespace(p=p, q=q, theta=theta)


@st.composite
def walk_layout(draw):
    n_steps = draw(st.integers(1, 80))
    snaps = sorted(draw(st.sets(st.integers(1, n_steps), min_size=1, max_size=6)))
    lo = draw(st.integers(0, 2 ** 40))
    width = draw(st.integers(1, 300))
    return n_steps, snaps, lo, lo + width


def assert_walk_matches_reference(params, n_steps, snaps, master_seed, lo, hi):
    want_s, want_z = reference_chunk(params, n_steps, snaps, master_seed, lo, hi)
    got = list(_simulate_chunk(params, n_steps, snaps, master_seed, lo, hi))
    assert len(got) == len(snaps)
    for i, (s, z) in enumerate(got):
        assert s.tobytes() == want_s[i].tobytes()
        assert z.tobytes() == want_z[i].tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(params=kernel_params(), layout=walk_layout(),
       master_seed=st.integers(0, 2 ** 64 - 1),
       window=st.sampled_from([1, 2, 3, 7, ensemble._DRAW_WINDOW]))
def test_kernel_matches_reference_bits(params, layout, master_seed, window):
    n_steps, snaps, lo, hi = layout
    with mock.patch.object(ensemble, "_DRAW_WINDOW", window):
        assert_walk_matches_reference(params, n_steps, snaps, master_seed, lo, hi)


def assert_window_edge_walk_matches_reference(window, p, q, theta):
    # window k holds steps k*window + 1 .. (k + 1)*window. The snapshots lie
    # on first, middle and last rows; the walk stops at the last one, in the
    # middle of the fifth window, short of an n_steps that is not a multiple
    # of the window.
    mid = (window + 1) // 2
    snaps = sorted({1, window + mid, 2 * window, 3 * window + 1, 4 * window + mid})
    n_steps = 6 * window + 1
    with mock.patch.object(ensemble, "_DRAW_WINDOW", window):
        assert_walk_matches_reference(SimpleNamespace(p=p, q=q, theta=theta),
                                      n_steps, snaps, 2021, 2 ** 33 + 5,
                                      2 ** 33 + 42)


@pytest.mark.parametrize("window", [1, 2, 3, 7])
@pytest.mark.parametrize("p, q, theta", [
    (0.5, 0.3, 0.0),    # theta = 0
    (0.35, 0.35, 0.6),  # p = q
    (0.8, 0.0, 0.9),    # q = 0
    (0.0, 0.0, 0.5),    # r = 1
    (0.45, 0.25, 0.8),
])
def test_kernel_bits_across_window_edges(window, p, q, theta):
    assert_window_edge_walk_matches_reference(window, p, q, theta)


@pytest.mark.parametrize("window", [1, 2, 3, 7])
@pytest.mark.parametrize("theta", [0.0, 5.0 / 6.0, 1.0])
@pytest.mark.parametrize("p, q", [
    (0.9, 0.0),
    (0.37, -0.0),
    (1.0, 0.0),     # every step +1
    (-0.0, 0.0),    # p = -0.0: the one-sided a is -0.0 where the two-sided is 0.0
    (-0.0, -0.0),
    (0.0, 0.0),     # p = q = 0: the walk never moves
])
def test_one_sided_walk_bits_across_window_edges(window, p, q, theta):
    assert_window_edge_walk_matches_reference(window, p, q, theta)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(params=kernel_params(), m=st.integers(1, 2 ** 40),
       splits=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                       min_size=1, max_size=16))
def test_thresholds_match_reference_bits(params, m, splits):
    p, q, theta = params.p, params.q, params.theta
    # n_plus + n_minus <= m active steps after m steps
    active = np.floor(np.array([f for f, _ in splits]) * m)
    n_plus = np.floor(active * np.array([g for _, g in splits]))
    n_minus = active - n_plus
    th_m = theta / m
    const_plus, const_minus = (1.0 - theta) * p, (1.0 - theta) * q
    want_a = (n_plus * p + n_minus * q) * th_m + const_plus
    want_cum = want_a + (n_minus * p + n_plus * q) * th_m + const_minus
    a, cum, tmp = (np.empty(len(splits)) for _ in range(3))
    _thresholds(n_plus, n_minus, p, q, th_m, const_plus, const_minus, a, cum, tmp)
    assert a.tobytes() == want_a.tobytes()
    assert cum.tobytes() == want_cum.tobytes()
    assert np.all(cum >= a)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(p=st.one_of(st.sampled_from([0.9, 0.37, 1.0, 0.0, -0.0, 1e-300]),
                   st.floats(0.0, 1.0)),
       q=st.sampled_from([0.0, -0.0]),
       theta=st.one_of(st.sampled_from([0.0, 0.3, 5.0 / 6.0, 1.0]),
                       st.floats(0.0, 1.0)),
       m=st.integers(1, 2 ** 40),
       fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16))
def test_one_sided_thresholds_match_two_sided(p, q, theta, m, fracs):
    # at q = 0 the walk never steps down, so n_minus = 0 after m steps
    n_plus = np.floor(np.array(fracs) * m)
    n_minus = np.zeros_like(n_plus)
    th_m = theta / m
    const_plus, const_minus = (1.0 - theta) * p, (1.0 - theta) * q
    want_a = (n_plus * p + n_minus * q) * th_m + const_plus
    want_cum = want_a + (n_minus * p + n_plus * q) * th_m + const_minus
    assert np.array_equal(want_cum, want_a)  # so no u can take a minus step
    a, tmp = np.empty(n_plus.size), np.empty(n_plus.size)
    _thresholds(n_plus, n_minus, p, q, th_m, const_plus, const_minus, a, None, tmp)
    assert np.array_equal(a, want_a)
    if math.copysign(1.0, p) < 0:
        # p = -0.0: every threshold is a zero, whose sign may differ
        assert not a.any()
    else:
        assert a.tobytes() == want_a.tobytes()

"""Property tests: the blocked moment recursions keep the bits of the whole-array ones.

`reference_exact_moments` is the routine that `exact_moments` replaced, kept
here as the oracle: it builds each growth table with one whole-array
`cumprod` and each prefix with one `cumsum`. The carried blocks fold the
running product and prefix into a block's first element, which is what a
sequential scan does there, so any block width must reproduce every byte,
including tables that end one transition before, on or after a block edge.
The rows mode (`ns=`) runs the same blocks and must return the table's
bytes at every requested n, in memory that does not grow with n_max.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lapsewalk.exact as exact
from lapsewalk.errors import CapExceeded, InvalidState
from lapsewalk.model import ModelParams, derive_constants

FIELDS = ("mean_s", "mean_z", "var_s", "mean_sz")


def _solve_linear_recursion(coeff_table, x1, forcing):
    terms = forcing / coeff_table[1:]
    prefix = np.concatenate(([0.0], np.cumsum(terms)))
    return coeff_table * (x1 + prefix)


def reference_exact_moments(params, n_max):
    c = derive_constants(params)
    al, om, ga, ta = c.alpha, c.omega, c.gamma, c.tau

    k = np.arange(1, n_max, dtype=np.float64)
    growth_a = np.concatenate(([1.0], np.cumprod(1.0 + al / k)))
    growth_b = np.concatenate(([1.0], np.cumprod(1.0 + ga / k)))
    growth_a2 = np.concatenate(([1.0], np.cumprod(1.0 + 2.0 * al / k)))
    growth_ab = np.concatenate(([1.0], np.cumprod(1.0 + (al + ga) / k)))

    mean_s = _solve_linear_recursion(growth_a, c.beta, np.full(max(n_max - 1, 0), om))
    mean_z = _solve_linear_recursion(growth_b, c.psi, np.full(max(n_max - 1, 0), ta))

    var1 = c.psi - c.beta ** 2
    h = (ga / k) * mean_z[:-1] + ta - ((al / k) * mean_s[:-1] + om) ** 2
    var_s = _solve_linear_recursion(growth_a2, var1, h)

    g = (ta + al / k) * mean_s[:-1] + om * mean_z[:-1] + om
    mean_sz = _solve_linear_recursion(growth_ab, c.beta, g)

    def pad(arr):
        return np.concatenate(([np.nan], arr))

    return exact.MomentTable(n_max, pad(mean_s), pad(mean_z), pad(var_s), pad(mean_sz))


def assert_same_bytes(got, want):
    for name in FIELDS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@st.composite
def simplex_point(draw):
    x = draw(st.floats(0.0, 1.0))
    theta = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.99)))
    kind = draw(st.sampled_from(["interior", "p = q", "r = 1", "alpha ~ 1/2"]))
    if kind == "interior":
        p, q = x, (1.0 - x) * draw(st.floats(0.0, 1.0))
    elif kind == "p = q":
        p = q = x / 2.0
    elif kind == "r = 1":
        p = q = 0.0
    else:  # (p - q) theta within 1e-3 of 1/2, on either side
        theta = draw(st.floats(0.51, 0.99))
        d = min(0.5 / theta + draw(st.floats(-1e-3, 1e-3)), 1.0)
        q = (1.0 - d) / 2.0 * draw(st.floats(0.0, 1.0))
        p = q + d
    return ModelParams(p, q, max(1.0 - p - q, 0.0), theta)


@st.composite
def moment_case(draw):
    block = draw(st.sampled_from([1, 7, 4096]))
    # transitions 1..n_max-1 fill j blocks exactly at n_max = j * block + 1
    edge = draw(st.integers(1, 2)) * block + 1
    n_max = draw(st.sampled_from([1, 2, edge - 1, edge, edge + 1]))
    return block, n_max, draw(simplex_point())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=moment_case())
@example(case=(7, 15, ModelParams(0.3, 0.3, 0.4, 0.0)))
@example(case=(7, 16, ModelParams(1.0, 0.0, 0.0, 0.5)))
@example(case=(7, 16, ModelParams(-0.0, 0.0, 1.0, 0.5)))  # drift omega = -0.0
def test_moments_match_reference_bits(case):
    block, n_max, params = case
    want = reference_exact_moments(params, n_max)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_MOMENT_BLOCK", block)
        got = exact.exact_moments(params, n_max)
    assert got.n_max == n_max
    assert_same_bytes(got, want)


@pytest.mark.parametrize("n_max", [(1 << 15), (1 << 15) + 1, (1 << 15) + 2,
                                   (1 << 17) + 12345])
def test_moments_match_reference_bits_at_default_block(n_max):
    params = ModelParams(0.9, 0.05, 0.05, 0.6)
    assert_same_bytes(exact.exact_moments(params, n_max),
                      reference_exact_moments(params, n_max))


@pytest.mark.parametrize("params", [
    ModelParams(0.0, 1.0, 0.0, 0.5),
    ModelParams(0.1, 0.9, 0.0, 0.625),
    ModelParams(0.0, 1.0, 0.0, 0.5 + 1e-12),
], ids=["2alpha=-1", "2alpha=-1-interior", "2alpha+1=-2e-12"])
def test_var_s_through_a_zero_first_factor_matches_dp(params):
    # at 2 alpha = -1 the Var S recursion's n = 1 factor 1 + 2 alpha / 1 is
    # exactly 0; block 7 puts eight block edges in the 60 steps
    with np.errstate(all="raise"):
        whole = exact.exact_moments(params, 60)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact, "_MOMENT_BLOCK", 7)
            blocked = exact.exact_moments(params, 60)
    assert_same_bytes(blocked, whole)
    for row in exact.dp_moment_scan(params, 60):
        for name in FIELDS:
            got, want = getattr(whole, name)[row.n], getattr(row, name)
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (row.n, name)


def test_moments_peak_memory_is_five_arrays():
    n_max = 1 << 20
    params = ModelParams(0.6, 0.2, 0.2, 0.5)
    exact.exact_moments(params, 64)
    tracemalloc.start()
    try:
        exact.exact_moments(params, n_max)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * 8 * n_max


def _bytes(x):
    return np.float64(x).tobytes()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=moment_case(), data=st.data())
@example(case=(7, 16, ModelParams(0.3, 0.3, 0.4, 0.0)), data=None)  # p = q, theta = 0
@example(case=(7, 8, ModelParams(0.0, 0.0, 1.0, 0.5)), data=None)   # r = 1
def test_moment_rows_match_table_bytes(case, data):
    block, n_max, params = case
    ns = [n for n in (1, 2, block, block + 1, n_max) if n <= n_max]
    if data is not None:  # any order, with repeats
        ns = data.draw(st.permutations(ns + ns[:1]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_MOMENT_BLOCK", block)
        table = exact.exact_moments(params, n_max)
        rows = exact.exact_moments(params, n_max, ns=ns)
    assert [row.n for row in rows] == sorted(set(ns))
    for row in rows:
        for name in FIELDS:
            got, want = getattr(row, name), getattr(table, name)[row.n]
            assert _bytes(got) == _bytes(want), (row.n, name)


def test_moment_rows_match_table_bytes_at_default_block():
    n_max = (1 << 16) + 3
    block = exact._MOMENT_BLOCK
    ns = [1, 2, block, block + 1, 2 * block + 1, n_max]
    params = ModelParams(0.9, 0.05, 0.05, 0.6)
    table = exact.exact_moments(params, n_max)
    for row in exact.exact_moments(params, n_max, ns=ns):
        for name in FIELDS:
            assert _bytes(getattr(row, name)) == _bytes(getattr(table, name)[row.n])


@pytest.mark.parametrize("n_max", [1 << 17, 1 << 20])
def test_moment_rows_peak_memory_is_a_few_blocks(n_max):
    params = ModelParams(0.6, 0.2, 0.2, 0.5)
    block = exact._MOMENT_BLOCK
    ns = [1, 2, block, block + 1, n_max]
    exact.exact_moments(params, 64, ns=[64])
    tracemalloc.start()
    try:
        exact.exact_moments(params, n_max, ns=ns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 8 * block


def test_moment_rows_outside_range_refused():
    params = ModelParams(0.6, 0.2, 0.2, 0.5)
    for ns in ([0, 5], [5, 11]):
        with pytest.raises(InvalidState, match=r"\[1, 10\]"):
            exact.exact_moments(params, 10, ns=ns)


def test_moment_cap_refused_first_in_both_modes(monkeypatch):
    params = ModelParams(0.6, 0.2, 0.2, 0.5)
    monkeypatch.setattr(exact, "MOMENT_CAP", 100)
    assert exact.exact_moments(params, 100).n_max == 100
    assert exact.exact_moments(params, 100, ns=[100])[0].n == 100
    for ns in (None, [1], [101]):
        with pytest.raises(CapExceeded,
                           match=r"^n_max = 101 above the moment cap 100 "):
            exact.exact_moments(params, 101, ns=ns)

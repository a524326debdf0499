import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lapsewalk as lw
from lapsewalk.errors import InvalidState
from lapsewalk.rng import MASK64, splitmix64_mix, stream_seed

# Regression freeze of this build's streams (master_seed=1, index 0..2):
# the determinism contract is "identical (seed, index) -> identical sequence
# within one build", and these pins catch accidental generator changes.
FROZEN = {
    0: [0.9861157839950154, 0.12447460035223423, 0.007392865545658545],
    1: [0.03715712795920367, 0.5773163843105135, 0.1532124929031493],
    2: [0.7467910498687469, 0.8102469084898669, 0.22338278016358415],
}


def test_frozen_stream_regression():
    for idx, expect in FROZEN.items():
        st = lw.RngStream(1, idx)
        assert [st.uniform() for _ in range(3)] == expect


def test_mix_is_deterministic_and_64bit():
    a = splitmix64_mix(0)
    b = splitmix64_mix(0)
    assert a == b
    assert 0 <= a <= MASK64
    assert splitmix64_mix(1) != splitmix64_mix(2)


def test_stream_seeds_differ():
    seeds = {stream_seed(99, i) for i in range(1000)}
    assert len(seeds) == 1000


def test_uniform_range_and_granularity():
    st = lw.RngStream(5, 17)
    for _ in range(1000):
        u = st.uniform()
        assert 0.0 <= u < 1.0
        assert float(u * 2.0 ** 53) == int(u * 2.0 ** 53)  # top 53 bits only


def test_same_stream_same_sequence():
    a = [lw.RngStream(123, 4).uniform() for _ in range(1)]
    s1 = lw.RngStream(123, 4)
    s2 = lw.RngStream(123, 4)
    assert [s1.uniform() for _ in range(50)] == [s2.uniform() for _ in range(50)]
    assert a[0] == lw.RngStream(123, 4).uniform()


def test_distinct_streams_distinct_sequences():
    s1 = lw.RngStream(123, 4)
    s2 = lw.RngStream(123, 5)
    assert [s1.uniform() for _ in range(8)] != [s2.uniform() for _ in range(8)]


def test_batch_matches_scalar_lanes():
    idx = np.array([0, 1, 7, 1000, 2 ** 40], dtype=np.uint64)
    batch = lw.Xoshiro256Batch(987654321, idx)
    cols = np.array([batch.uniforms() for _ in range(32)])
    for lane, stream_index in enumerate(idx.tolist()):
        st = lw.RngStream(987654321, int(stream_index))
        expect = np.array([st.uniform() for _ in range(32)])
        assert np.array_equal(cols[:, lane], expect)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(master_seed=st.integers(0, 2 ** 64 - 1),
       indices=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=5),
       fills=st.lists(st.sampled_from([1, 2, 5]), min_size=1, max_size=4))
def test_window_fills_continue_each_lane(master_seed, indices, fills):
    idx = np.array(indices, dtype=np.uint64)
    batch = lw.Xoshiro256Batch(master_seed, idx)
    rows = []
    for n_rows in fills:
        out = np.empty((n_rows, idx.size))
        assert batch.uniforms(out) is out
        rows.extend(out)
    rows.append(batch.uniforms())  # drawing on after a fill
    word = batch.next_uint64()
    one_row = lw.Xoshiro256Batch(master_seed, idx)
    assert np.array(rows).tobytes() == np.array(
        [one_row.uniforms() for _ in rows]).tobytes()
    for lane, stream_index in enumerate(indices):
        stream = lw.RngStream(master_seed, stream_index)
        assert [row[lane] for row in rows] == [stream.uniform() for _ in rows]
        assert int(word[lane]) == stream.next_uint64()


def test_window_fill_refuses_a_mismatched_out():
    batch = lw.Xoshiro256Batch(3, np.arange(4, dtype=np.uint64))
    for out in (np.empty((2, 4), dtype=np.float32), np.empty((2, 5)), np.empty(4)):
        with pytest.raises(InvalidState, match="out must be a"):
            batch.uniforms(out)


def test_batch_uint64_matches_scalar_and_is_fresh():
    idx = np.array([3, 2 ** 63 + 5], dtype=np.uint64)
    batch = lw.Xoshiro256Batch(42, idx)
    words = [batch.next_uint64() for _ in range(16)]
    for lane, stream_index in enumerate(idx.tolist()):
        st = lw.RngStream(42, int(stream_index))
        assert [int(w[lane]) for w in words] == [st.next_uint64() for _ in range(16)]


def test_batch_uniform_moments():
    batch = lw.Xoshiro256Batch(7, np.arange(4096, dtype=np.uint64))
    us = np.concatenate([batch.uniforms() for _ in range(100)])
    assert abs(us.mean() - 0.5) < 4.0 * (1.0 / 12.0 / us.size) ** 0.5
    assert abs(us.var() - 1.0 / 12.0) < 1e-3


# the first two deviates under master_seed 1 at the ends of the index range
EDGE_STREAMS = {
    0: [0.9861157839950154, 0.12447460035223423],
    1: [0.03715712795920367, 0.5773163843105135],
    2 ** 63: [0.14389100425193135, 0.27310788311012046],
    2 ** 64 - 1: [0.9485129941551508, 0.7991931827068066],
}


@pytest.mark.parametrize("as_indices", [
    list, lambda ids: np.array(ids, dtype=np.uint64),
    lambda ids: np.array(ids, dtype=object)], ids=["list", "uint64", "object"])
def test_valid_stream_indices_keep_their_bits(as_indices):
    ids = list(EDGE_STREAMS)
    for i, expect in EDGE_STREAMS.items():
        st = lw.RngStream(1, i)
        assert [st.uniform(), st.uniform()] == expect
    batch = lw.Xoshiro256Batch(1, as_indices(ids))
    first, second = batch.uniforms(), batch.uniforms()
    assert [[a, b] for a, b in zip(first.tolist(), second.tolist())] == list(
        EDGE_STREAMS.values())
    small = lw.Xoshiro256Batch(1, np.array([0, 1], dtype=np.int64)).uniforms()
    assert small.tolist() == [EDGE_STREAMS[0][0], EDGE_STREAMS[1][0]]


@pytest.mark.parametrize("index", [-1, 2 ** 64, 2 ** 70, 1.0, 2.5, float("nan")])
def test_stream_indices_outside_the_64_bit_range_refused(index):
    with pytest.raises(InvalidState):
        lw.RngStream(0, index)
    with pytest.raises(InvalidState):
        lw.Xoshiro256Batch(0, [3, index])
    # an int64 array would wrap -1 to 2**64 - 1 in a uint64 cast
    with pytest.raises(InvalidState, match=">= 0"):
        lw.Xoshiro256Batch(0, np.array([4, -1], dtype=np.int64))


@pytest.mark.parametrize("index", [np.uint64(5), np.int64(5), np.uint8(5)],
                         ids=["uint64", "int64", "uint8"])
def test_numpy_integer_stream_index_is_the_python_int_stream(index):
    # the scalar stream runs in Python ints whatever integer type indexes it:
    # no numpy overflow warning, and the deviates of the int index
    want = lw.RngStream(1, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        st = lw.RngStream(1, index)
        got = [st.uniform() for _ in range(16)]
    assert got == [want.uniform() for _ in range(16)]

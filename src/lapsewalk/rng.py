# Deterministic per-trajectory random streams.
#
# Stream i is an independent xoshiro256** generator (Blackman/Vigna 2018,
# public domain reference at https://prng.di.unimi.it/) whose 256-bit state
# is filled from a splitmix64 run started at
#
#     seed_i = splitmix64_mix(master_seed XOR (i * 0x9E3779B97F4A7C15))
#
# The master seed and the stream indices lie in [0, 2**64): any other seed
# is refused by `seed_word`, any other index raises InvalidState.
# Uniform deviates take the top 53 bits of each output word. The scalar and
# batch generators below seed through the same splitmix64 functions, which
# take a Python int or a uint64 lane array, and step the identical
# sequence; the batch form advances one lane per trajectory so ensembles
# stay reproducible no matter how trajectories are scheduled onto workers.

import numpy as np

from .errors import InvalidState, counts

MASK64 = (1 << 64) - 1
STREAMS = 1 << 64  # stream indices are 64-bit words
GOLDEN = 0x9E3779B97F4A7C15
_U53 = 2.0 ** -53


def seed_word(master_seed):
    """`master_seed` as a Python int; anything but an integer in [0, 2**64)
    is refused by errors.counts."""
    return int(counts("master_seed", master_seed, low=0, cap=MASK64,
                      kind="seed", cost="a 64-bit word"))


def splitmix64_mix(z):
    """Output scrambler of splitmix64 applied to a 64-bit word, or to each
    lane of a uint64 array (a new array: the first step copies)."""
    z = z & MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def stream_seed(master_seed, stream_index):
    """64-bit seed of stream `stream_index` under `master_seed`, or the seed
    of every lane of a uint64 index array."""
    return splitmix64_mix(master_seed ^ ((stream_index * GOLDEN) & MASK64))


def _state_words(seed):
    # the four splitmix64 words after seed: splitmix64_mix is a bijection
    # and their inputs are distinct, so they are never all zero
    return [splitmix64_mix(seed + ((k * GOLDEN) & MASK64)) for k in range(1, 5)]


def _rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & MASK64


class RngStream:
    """One reproducible uniform stream, addressed by (master_seed, stream_index).

    The scalar xoshiro256** generator: four 64-bit state words, period
    2^256 - 1.
    """

    def __init__(self, master_seed, stream_index):
        if counts("stream index", stream_index, low=0) >= STREAMS:
            raise InvalidState(f"stream index must lie below 2**64, got {stream_index}")
        # as Python ints: numpy integers would overflow with warnings
        self.s = _state_words(stream_seed(seed_word(master_seed), int(stream_index)))

    def next_uint64(self):
        s = self.s
        result = (_rotl((s[1] * 5) & MASK64, 7) * 9) & MASK64
        t = (s[1] << 17) & MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def uniform(self):
        """Next deviate in [0, 1), from the top 53 bits."""
        return (self.next_uint64() >> 11) * _U53


class Xoshiro256Batch:
    """Vectorized xoshiro256**: one independent lane per stream index.

    Lane j steps exactly the same sequence as
    ``RngStream(master_seed, stream_indices[j])``. The state words advance
    in place. Word s1 lives in row 0 of a (rows + 1, width) buffer: a draw
    of `rows` steps writes each step's s1 into the next row, scrambles all
    of those rows into output words at once, and carries the last row back
    to row 0.
    """

    _C5 = np.uint64(5)
    _C9 = np.uint64(9)

    def __init__(self, master_seed, stream_indices):
        try:  # counts refuses what is not an index >= 0, the cast one >= 2**64
            idx = np.asarray(counts("stream indices", stream_indices, low=0),
                             dtype=np.uint64)
        except OverflowError:
            raise InvalidState(f"stream indices must lie below 2**64, got "
                               f"{stream_indices!r}") from None
        s0, s1, s2, s3 = _state_words(stream_seed(seed_word(master_seed), idx))
        self.s0, self.s2, self.s3 = s0, s2, s3
        self._s1 = s1[np.newaxis]
        self._t = np.empty_like(s0)

    def _words(self, scratch):
        """Step every lane once per row of scratch, a (rows, width) uint64
        work array; returns the (rows, width) output words, one step a row,
        as a view that the next draw overwrites."""
        rows = len(scratch)
        if len(self._s1) <= rows:
            grown = np.empty((rows + 1, scratch.shape[1]), dtype=np.uint64)
            grown[0] = self._s1[0]
            self._s1 = grown
        s1 = self._s1[:rows + 1]
        s0, s2, s3, t = self.s0, self.s2, self.s3, self._t
        k17, k45, k19 = np.uint64(17), np.uint64(45), np.uint64(19)
        for cur, nxt in zip(s1[:-1], s1[1:]):
            np.left_shift(cur, k17, out=t)
            s2 ^= s0
            s3 ^= cur
            np.bitwise_xor(cur, s2, out=nxt)
            s0 ^= s3
            s2 ^= t
            np.left_shift(s3, k45, out=t)
            s3 >>= k19
            s3 |= t
        # the ** scrambler, rotl(s1 * 5, 7) * 9, on every step's s1 at once
        np.multiply(s1[:-1], self._C5, out=scratch)
        s1[0] = s1[rows]  # carry the state word back before rows 1.. are reused
        words = s1[1:]
        np.right_shift(scratch, np.uint64(57), out=words)
        scratch <<= np.uint64(7)
        words |= scratch
        words *= self._C9
        return words

    def next_uint64(self):
        """The next output word of every lane, as a new uint64 array."""
        return self._words(np.empty((1, self.s0.size), dtype=np.uint64))[0].copy()

    def uniforms(self, out=None):
        """Deviates in [0, 1), from the top 53 bits of each output word.

        With out, a (rows, width) float64 array, row i gets the deviates of
        the i-th step from here and out is returned; without it, one new
        (width,) row.
        """
        if out is None:
            return self.uniforms(np.empty((1, self.s0.size)))[0]
        if out.dtype != np.float64 or out.shape[1:] != self.s0.shape:
            raise InvalidState(f"out must be a (rows, {self.s0.size}) float64 array, "
                               f"got {out.dtype} {out.shape}")
        words = self._words(out.view(np.uint64))
        words >>= np.uint64(11)
        # below 2**53, so int64 holds them, and converts faster than uint64
        np.copyto(out, words.view(np.int64), casting="safe")
        out *= _U53
        return out

# Deterministic per-trajectory random streams.
#
# Stream i is an independent xoshiro256** generator (Blackman/Vigna 2018,
# public domain reference at https://prng.di.unimi.it/) whose 256-bit state
# is filled from a splitmix64 run started at
#
#     seed_i = splitmix64_mix(master_seed XOR (i * 0x9E3779B97F4A7C15))
#
# Uniform deviates take the top 53 bits of each output word. The scalar and
# batch implementations below step the identical sequence; the batch form
# advances one lane per trajectory so ensembles stay reproducible no matter
# how trajectories are scheduled onto workers.

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_U53 = 2.0 ** -53


def splitmix64_mix(z):
    """Output scrambler of splitmix64 applied to a single 64-bit word."""
    z &= MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def stream_seed(master_seed, stream_index):
    """64-bit seed of stream `stream_index` under `master_seed`."""
    return splitmix64_mix(master_seed ^ ((stream_index * GOLDEN) & MASK64))


def _state_words(seed):
    # four successive splitmix64 outputs; guard the all-zero state
    words = []
    state = seed & MASK64
    for _ in range(4):
        state = (state + GOLDEN) & MASK64
        words.append(splitmix64_mix(state))
    if not any(words):
        words[0] = GOLDEN
    return words


def _rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & MASK64


class RngStream:
    """One reproducible uniform stream, addressed by (master_seed, stream_index).

    The scalar xoshiro256** generator: four 64-bit state words, period
    2^256 - 1.
    """

    def __init__(self, master_seed, stream_index):
        self.s = _state_words(stream_seed(master_seed, stream_index))

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
    in place, through two scratch words allocated once per instance.
    """

    _C5 = np.uint64(5)
    _C9 = np.uint64(9)

    def __init__(self, master_seed, stream_indices):
        idx = np.asarray(stream_indices, dtype=np.uint64)
        seeds = self._mix(
            np.uint64(master_seed & MASK64) ^ (idx * np.uint64(GOLDEN))
        )
        state = seeds
        words = []
        for _ in range(4):
            state = state + np.uint64(GOLDEN)
            words.append(self._mix(state))
        self.s0, self.s1, self.s2, self.s3 = words
        dead = (self.s0 | self.s1 | self.s2 | self.s3) == 0
        if dead.any():
            self.s0[dead] = np.uint64(GOLDEN)
        self._r = np.empty_like(self.s0)
        self._t = np.empty_like(self.s0)

    @staticmethod
    def _mix(z):
        z = z.copy()
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return z

    def _step(self):
        """Advance every lane once; the output word is left in self._r."""
        s0, s1, s2, s3, r, t = self.s0, self.s1, self.s2, self.s3, self._r, self._t
        np.multiply(s1, self._C5, out=r)
        np.left_shift(r, np.uint64(7), out=t)
        r >>= np.uint64(57)
        r |= t
        r *= self._C9
        np.left_shift(s1, np.uint64(17), out=t)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.left_shift(s3, np.uint64(45), out=t)
        s3 >>= np.uint64(19)
        s3 |= t
        return r

    def next_uint64(self):
        return self._step().copy()

    def uniforms(self):
        """One deviate per lane, as a new float64 array in [0, 1)."""
        r = self._step()
        r >>= np.uint64(11)
        u = r.astype(np.float64)
        u *= _U53
        return u

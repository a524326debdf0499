"""Seeded parallel ensembles with streaming moment accumulation.

Trajectory i always draws from RNG stream i. Trajectories are accumulated
in blocks of chunk_size, one accumulator per block and snapshot, folded in
block order, so an ensemble result is a pure function of (params, n_steps,
n_traj, master_seed, snapshots, keep_raw, chunk_size). The block size
fixes the last-ulp bits of the folded moments; the lane width a task
simulates at once (whole blocks, up to LANES_MAX lanes), the number of steps
whose uniforms it draws at once and the worker count can only change wall
time, never a bit of the output. Tasks run the walk in lockstep over numpy
arrays (one lane per trajectory), updated in place, which is what makes 1e9
total steps feasible without leaving float64 determinism. A walk at q = 0
can never step down, so it runs one-sided: one comparison and one count a
step, no minus threshold, with the same output bits.

Sizes, counts, seeds and snapshot times pass `errors.counts` before any
walk: n_steps up to STEPS_CAP, n_traj up to one rng stream per trajectory,
n_boot up to BOOTSTRAP_CAP, workers and chunk_size from 1, and master_seed
in [0, 2**64) (through `rng.seed_word`). Samples (the bootstrap's and
every accumulator's values) pass `errors.finite_sample`, so a NaN is
refused with InvalidState instead of spreading into the moments.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .analytic import expected_s, growth_values, lil_envelope
from .errors import (DomainTooSmall, InvalidState, SampleTooSmall, counts,
                     finite_sample, is_real)
from .model import STEPS_CAP, ModelParams, Regime, domain_constants, snapshot_times
from .rng import STREAMS, Xoshiro256Batch, seed_word

CHUNK_SIZE_DEFAULT = 4096
# widest lockstep walk one task runs; a speed constant, not part of the output
LANES_MAX = 16384
# the W proxy's far horizon n_far = HORIZON_FACTOR * n: at n_far = n the
# residuals are identically zero, and small factors leave most of the limit
# variable unresolved
HORIZON_FACTOR = 16
# the bootstrap CI of Var(W): its level, its own fixed seed, and the most
# resamples it draws (8 bytes and one resample each)
BOOTSTRAP_LEVEL = 0.99
BOOTSTRAP_SEED = 20210905
BOOTSTRAP_CAP = 10 ** 6
_DRAW_WINDOW = 256  # most steps of uniforms a walk draws at once; speed only


def trajectory_floor(n_traj, floor, needs):
    """Refuse `n_traj` unless `counts` reads it as an integer (of any sign)
    and it is at least `floor`; below the floor SampleTooSmall says
    "<needs> trajectories >= <floor>"."""
    counts("n_traj", n_traj, low=float("-inf"))
    if n_traj < floor:
        raise SampleTooSmall(f"{needs} trajectories >= {floor}, got {n_traj}")


def dyadic_snapshots(n_max: int):
    """Default snapshot grid {16, 32, ...} up to and including n_max >= 1."""
    out = [2 ** k for k in range(4, int(counts("n_max", n_max)).bit_length())]
    return out if out and out[-1] == n_max else out + [n_max]


@dataclass
class MomentAccumulator:
    """Streaming count, mean, min, max and m2, the sum of (x - mean)^2.

    Merging uses the parallel update of Chan et al.; it is associative up to
    float roundoff and exactly reproducible for a fixed merge order.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    @classmethod
    def from_values(cls, values) -> "MomentAccumulator":
        x = finite_sample(values, 0, "a moment accumulator")
        if x.size == 0:
            return cls()
        mean = float(x.mean())
        d = x - mean
        return cls(
            count=int(x.size),
            mean=mean,
            m2=float((d * d).sum()),
            min=float(x.min()),
            max=float(x.max()),
        )

    def merge(self, other: "MomentAccumulator") -> "MomentAccumulator":
        if other.count == 0:
            return MomentAccumulator(**vars(self))
        if self.count == 0:
            return MomentAccumulator(**vars(other))
        na, nb = self.count, other.count
        n = na + nb
        delta = other.mean - self.mean
        d_n = delta / n
        mean = self.mean + d_n * nb
        m2 = self.m2 + other.m2 + delta * d_n * na * nb
        return MomentAccumulator(
            count=n, mean=mean, m2=m2,
            min=min(self.min, other.min), max=max(self.max, other.max),
        )

    def standardized(self, center: float, scale: float) -> "MomentAccumulator":
        """Accumulator of (x - center)/scale, scale > 0, without raw data;
        center and scale are real numbers."""
        if not (is_real(center) and is_real(scale) and scale > 0.0):
            raise InvalidState(f"scale must be > 0 and center a real number, "
                               f"got scale {scale!r}, center {center!r}")
        return MomentAccumulator(
            count=self.count,
            mean=(self.mean - center) / scale,
            m2=self.m2 / scale ** 2,
            min=(self.min - center) / scale,
            max=(self.max - center) / scale,
        )

    @property
    def variance(self) -> float:
        return self.m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stderr(self) -> float:
        return (self.variance / self.count) ** 0.5 if self.count else 0.0


@dataclass
class EnsembleResult:
    snapshots: list
    acc_s: list
    acc_z: list
    sample_s: list = None   # raw S rows per snapshot, in trajectory order


def _thresholds(n_plus, n_minus, p, q, th_m, const_plus, const_minus,
                a, cum, tmp):
    """Write a step's thresholds into a and cum (tmp is scratch).

    Same float operations, in the same order, as
        a = (n_plus*p + n_minus*q)*th_m + const_plus
        cum = a + (n_minus*p + n_plus*q)*th_m + const_minus
    With cum None (the one-sided walk: q = 0, n_minus = 0) only
        a = n_plus*p*th_m + const_plus
    which drops a term n_minus*q = ±0.0: the same threshold, its bits equal
    but for the sign of a zero at p = -0.0, which no u >= 0 can see.
    """
    np.multiply(n_plus, p, out=a)
    if cum is None:
        a *= th_m
        a += const_plus
        return
    np.multiply(n_minus, q, out=tmp)
    a += tmp
    a *= th_m
    a += const_plus
    np.multiply(n_minus, p, out=cum)
    np.multiply(n_plus, q, out=tmp)
    cum += tmp
    cum *= th_m
    cum += a  # float addition commutes, so this is a + (...)
    cum += const_minus


def _simulate_chunk(params: ModelParams, n_steps, snaps, master_seed, lo, hi):
    """Lockstep walk of trajectories [lo, hi); yields (S, Z) at each snapshot.

    snaps is sorted; the walk stops once the last snapshot has been yielded.
    Uniforms are drawn a window of steps at a time into one reused array.
    """
    p, q, theta = params.p, params.q, params.theta
    # at q = 0 no -1 step can happen: every term that turns a into cum is
    # ±0.0, so cum == a, minus is never set and n_minus stays 0. That walk
    # runs one-sided, with no cum, and keeps the same bits
    one_sided = q == 0
    rng = Xoshiro256Batch(master_seed, np.arange(lo, hi, dtype=np.uint64))
    width = hi - lo
    # at most 2**16 deviates (512 KiB) a window
    window = np.empty((max(1, min(_DRAW_WINDOW, 2 ** 16 // width)), width))
    counts = np.zeros((2, width))  # rows n_plus, n_minus
    steps = np.empty((2, width), dtype=bool)  # rows plus, minus
    n_plus, n_minus = counts
    plus, minus = steps
    a = np.full(width, p, dtype=np.float64)  # step 1 has no memory to recall
    cum = None if one_sided else np.full(width, p + q, dtype=np.float64)
    tmp = np.empty(width)
    pending = iter(snaps)
    next_snap = next(pending)

    const_plus = (1.0 - theta) * p
    const_minus = (1.0 - theta) * q
    for start in range(0, n_steps, len(window)):
        for m, u in enumerate(rng.uniforms(window[:n_steps - start]), start + 1):
            np.less(u, a, out=plus)
            if one_sided:
                n_plus += plus
            else:
                np.less(u, cum, out=minus)
                # cum >= a always (both added terms are >= 0 and float
                # addition is monotone), so plus implies u < cum, and the
                # minus step is (u < cum) XOR plus
                minus ^= plus
                counts += steps
            if m == next_snap:
                yield n_plus - n_minus, n_plus + n_minus
                next_snap = next(pending, None)
                if next_snap is None:
                    return
            if theta:  # at theta = 0 the update rewrites a = p and cum = p + q
                _thresholds(n_plus, n_minus, p, q, theta / m, const_plus,
                            const_minus, a, cum, tmp)


def _chunk_job(params, n_steps, snaps, master_seed, block, keep_raw, lo, hi):
    """Worker entry point (module-level so it pickles for process pools).

    Simulates the consecutive blocks of [lo, hi) together and returns, per
    snapshot, one (S, Z) accumulator pair per block (in block order), plus
    the raw S rows when keep_raw is set.
    """
    starts = range(0, hi - lo, block)
    accs, raw = [], []
    for s, z in _simulate_chunk(params, n_steps, snaps, master_seed, lo, hi):
        accs.append([(MomentAccumulator.from_values(s[i:i + block]),
                      MomentAccumulator.from_values(z[i:i + block])) for i in starts])
        if keep_raw:
            raw.append(s)
    return accs, raw


def run_ensemble(params: ModelParams, n_steps: int, n_traj: int,
                 snapshots=None, master_seed: int = 0, keep_raw: bool = False,
                 workers: int = 1,
                 chunk_size: int = CHUNK_SIZE_DEFAULT) -> EnsembleResult:
    """Simulate n_traj seeded trajectories, accumulating at snapshot times
    (the dyadic grid when snapshots is None).

    Trajectories are accumulated in blocks of chunk_size, folded in block
    order. keep_raw also keeps the raw S row of every snapshot, indexed by
    trajectory, as sample_s. workers > 1 fans runs of consecutive blocks out
    to a process pool; the result is identical for any worker count.
    """
    counts("n_steps", n_steps, cap=STEPS_CAP, kind="step", cost="float64 step counts")
    counts("n_traj", n_traj, cap=STREAMS, kind="stream", cost="one per trajectory")
    counts("workers", workers)
    counts("chunk_size", chunk_size)
    master_seed = seed_word(master_seed)
    snaps = (dyadic_snapshots(n_steps) if snapshots is None
             else snapshot_times(snapshots, n_steps))
    if not snaps:
        raise InvalidState("snapshots must be one or more times in [1, n_steps]")

    # a task walks up to LANES_MAX lanes of whole blocks at once, with at
    # least min(workers, n_blocks) tasks so that every worker gets one
    n_blocks = -(-n_traj // chunk_size)
    per_task = max(1, min(LANES_MAX // chunk_size, n_blocks // workers))
    width = per_task * chunk_size
    # a task is its trajectory range [lo, hi); the rest every task shares
    los = range(0, n_traj, width)
    his = [min(lo + width, n_traj) for lo in los]
    job = partial(_chunk_job, params, n_steps, snaps, master_seed, chunk_size,
                  keep_raw)
    if workers > 1 and len(los) > 1:
        # imported here, so that a CLI start that runs no pool does not
        # pay for importing multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, len(los))) as pool:
            results = list(pool.map(job, los, his))
    else:
        results = list(map(job, los, his))

    # fold in block-index order: bit-identical for any worker count or width
    acc_s = [MomentAccumulator() for _ in snaps]
    acc_z = [MomentAccumulator() for _ in snaps]
    for accs, _raw in results:
        for i, pairs in enumerate(accs):
            for a_s, a_z in pairs:
                acc_s[i] = acc_s[i].merge(a_s)
                acc_z[i] = acc_z[i].merge(a_z)

    # raw S rows per snapshot, in task order
    rows = zip(*(raw for _accs, raw in results))
    sample_s = [np.concatenate(r) for r in rows] if keep_raw else None
    return EnsembleResult(snapshots=snaps, acc_s=acc_s, acc_z=acc_z,
                          sample_s=sample_s)


def martingale_track(params: ModelParams, ensemble: EnsembleResult):
    """Accumulators of M_n = (S_n - E S_n)/a_n at every snapshot.

    M is an affine map of S per snapshot, so the statistics follow exactly
    from acc_s without raw trajectories.
    """
    c = domain_constants(params, "the martingale M_n")
    snaps = np.asarray(ensemble.snapshots, dtype=np.int64)
    means = expected_s(params, snaps)
    norms = growth_values(c.alpha, snaps)
    return [
        acc.standardized(float(means[i]), float(norms[i]))
        for i, acc in enumerate(ensemble.acc_s)
    ]


def estimate_w(params: ModelParams, n_steps: int, n_traj: int,
               master_seed: int = 0, workers: int = 1) -> np.ndarray:
    """The sample that estimates W: M_{n_steps} per trajectory
    (superdiffusive only); MomentAccumulator.from_values gives its
    statistics."""
    c = domain_constants(params, "W", Regime.SUPERDIFFUSIVE)
    # a sample variance needs two values; refused before the walk
    trajectory_floor(n_traj, 2, "a sample variance needs")
    ens = run_ensemble(params, n_steps, n_traj, snapshots=[n_steps],
                       master_seed=master_seed, keep_raw=True, workers=workers)
    return ((ens.sample_s[0] - expected_s(params, n_steps))
            / growth_values(c.alpha, n_steps))


def bootstrap_variance_ci(sample, n_boot: int = 1000):
    """Percentile bootstrap CI at BOOTSTRAP_LEVEL for the sample variance,
    drawn from its own fixed seed BOOTSTRAP_SEED."""
    counts("n_boot", n_boot, cap=BOOTSTRAP_CAP, kind="bootstrap",
           cost="one resample each")
    x = finite_sample(sample, 2, "a sample variance")
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    vs = np.empty(n_boot)
    for b in range(n_boot):
        idx = rng.integers(0, x.size, x.size)
        vs[b] = x[idx].var(ddof=1)
    half = 100.0 * (1.0 - BOOTSTRAP_LEVEL) / 2.0
    return float(np.percentile(vs, half)), float(np.percentile(vs, 100.0 - half))


def residual_clt_sample(params: ModelParams, n_steps: int, n_traj: int,
                        master_seed: int = 0, workers: int = 1):
    """(w, residuals) from one walk to the far horizon n_far.

    w is M_n = (S_n - E S_n)/a_n per trajectory at n = n_steps, the sample
    `estimate_w` draws at the same seed. The residuals are the standardized
    (S_n - E S_n - W_hat a_n)/sqrt(phi n/(2a-1)), with W_hat the
    per-trajectory martingale value at n_far = HORIZON_FACTOR * n_steps.
    """
    c = domain_constants(params, "the residual CLT", Regime.SUPERDIFFUSIVE, scaled=True)
    n_far = HORIZON_FACTOR * counts("n_steps", n_steps)
    ens = run_ensemble(params, n_far, n_traj, snapshots=[n_steps, n_far],
                       master_seed=master_seed, keep_raw=True, workers=workers)
    s_near, s_far = ens.sample_s
    ns = np.array([n_steps, n_far], dtype=np.int64)
    means = expected_s(params, ns)
    norms = growth_values(c.alpha, ns)
    w_hat = (s_far - means[1]) / norms[1]
    scale = (c.phi * n_steps / (2.0 * c.alpha - 1.0)) ** 0.5
    return ((s_near - means[0]) / norms[0],
            (s_near - means[0] - w_hat * norms[0]) / scale)


@dataclass
class LilDiagnostic:
    """Trace of the running LIL statistic; diagnostic only, no pass/fail."""

    snapshots: np.ndarray
    envelopes: np.ndarray
    running_max: np.ndarray  # (n_snapshots, n_traj)

    @property
    def final_stats(self) -> np.ndarray:
        return self.running_max[-1]

    def median_trace(self) -> np.ndarray:
        return np.median(self.running_max, axis=1)


def lil_diagnostic(params: ModelParams, n_max: int, n_traj: int,
                   master_seed: int = 0, workers: int = 1,
                   chunk_size: int = CHUNK_SIZE_DEFAULT) -> LilDiagnostic:
    """Running max of |S_n - E S_n| / lil_envelope(n) over dyadic n.

    The limsup itself is untestable at finite n; this emits the statistic's
    trace so its magnitude and reproducibility can be inspected.
    """
    candidates = dyadic_snapshots(n_max)
    snaps, envs = [], []
    for m in candidates:
        try:
            envs.append(lil_envelope(params, m))
            snaps.append(m)
        except DomainTooSmall:
            continue
    if not snaps:
        raise DomainTooSmall(f"no dyadic snapshot up to {n_max} has a valid envelope")
    ens = run_ensemble(params, n_max, n_traj, snapshots=snaps,
                       master_seed=master_seed, keep_raw=True,
                       workers=workers, chunk_size=chunk_size)
    snaps_arr = np.asarray(snaps, dtype=np.int64)
    means = expected_s(params, snaps_arr)
    envs_arr = np.asarray(envs)
    stat = np.vstack([
        np.abs(ens.sample_s[i] - means[i]) / envs_arr[i]
        for i in range(len(snaps))
    ])
    return LilDiagnostic(
        snapshots=snaps_arr,
        envelopes=envs_arr,
        running_max=np.maximum.accumulate(stat, axis=0),
    )

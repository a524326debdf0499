"""Seeded parallel ensembles with streaming moment accumulation.

Trajectory i always draws from RNG stream i. Trajectories are accumulated
in blocks of chunk_size, one accumulator per block and snapshot, folded in
block order, so an ensemble result is a pure function of (params, n_steps,
n_traj, master_seed, snapshots, keep_raw, chunk_size). The block size
fixes the last-ulp bits of the folded moments; the lane width a task
simulates at once (whole blocks, up to LANES_MAX lanes) and the worker
count can only change wall time, never a bit of the output. Tasks run the
walk in lockstep over numpy arrays (one lane per trajectory), updated in
place, which is what makes 1e9 total steps feasible without leaving float64
determinism.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .analytic import expected_s, growth_values, lil_envelope
from .errors import CapExceeded, Degenerate, DomainTooSmall, InvalidState, WrongRegime
from .model import ModelParams, Regime, derive_constants
from .rng import Xoshiro256Batch

CHUNK_SIZE_DEFAULT = 4096
# widest lockstep walk one task runs; a speed constant, not part of the output
LANES_MAX = 16384
HORIZON_FACTOR_MIN = 16
# the kernel counts steps in float64, exact only up to 2**53
STEPS_CAP = 2 ** 53


def dyadic_snapshots(n_max: int):
    """Default snapshot grid {16, 32, ...} up to and including n_max."""
    if n_max < 16:
        return [n_max]
    out = []
    m = 16
    while m <= n_max:
        out.append(m)
        m *= 2
    if out[-1] != n_max:
        out.append(n_max)
    return out


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
        x = np.asarray(values, dtype=np.float64)
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
        """Accumulator of (x - center)/scale, scale > 0, without raw data."""
        assert scale > 0.0
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
    params: ModelParams
    n_steps: int
    n_traj: int
    master_seed: int
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
    """
    np.multiply(n_plus, p, out=a)
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
    """
    p, q, theta = params.p, params.q, params.theta
    rng = Xoshiro256Batch(master_seed, np.arange(lo, hi, dtype=np.uint64))
    width = hi - lo
    n_plus = np.zeros(width)
    n_minus = np.zeros(width)
    a = np.full(width, p, dtype=np.float64)  # step 1 has no memory to recall
    cum = np.full(width, p + q, dtype=np.float64)
    tmp = np.empty(width)
    plus = np.empty(width, dtype=bool)
    below = np.empty(width, dtype=bool)
    pending = iter(snaps)
    next_snap = next(pending)

    const_plus = (1.0 - theta) * p
    const_minus = (1.0 - theta) * q
    for m in range(1, n_steps + 1):
        u = rng.uniforms()
        np.less(u, a, out=plus)
        np.less(u, cum, out=below)
        # cum >= a always (both added terms are >= 0 and float addition is
        # monotone), so plus implies below and below - plus is the minus step
        n_plus += plus
        n_minus += below
        n_minus -= plus
        if m == next_snap:
            yield n_plus - n_minus, n_plus + n_minus
            next_snap = next(pending, None)
            if next_snap is None:
                return
        _thresholds(n_plus, n_minus, p, q, theta / m, const_plus, const_minus,
                    a, cum, tmp)


def _chunk_job(task):
    """Worker entry point (module-level so it pickles for process pools).

    Simulates the consecutive blocks of [lo, hi) together and returns, per
    snapshot, one accumulator per block (in block order) for S and for Z,
    plus the raw S rows when keep_raw is set.
    """
    params, n_steps, snaps, master_seed, lo, hi, block, keep_raw = task
    starts = range(0, hi - lo, block)
    accs_s, accs_z, raw = [], [], []
    for s, z in _simulate_chunk(params, n_steps, snaps, master_seed, lo, hi):
        accs_s.append([MomentAccumulator.from_values(s[i:i + block]) for i in starts])
        accs_z.append([MomentAccumulator.from_values(z[i:i + block]) for i in starts])
        if keep_raw:
            raw.append(s)
    return accs_s, accs_z, raw


def run_ensemble(params: ModelParams, n_steps: int, n_traj: int,
                 snapshots=None, master_seed: int = 0, keep_raw: bool = False,
                 workers: int = 1,
                 chunk_size: int = CHUNK_SIZE_DEFAULT) -> EnsembleResult:
    """Simulate n_traj seeded trajectories, accumulating at snapshot times.

    Trajectories are accumulated in blocks of chunk_size, folded in block
    order. keep_raw also keeps the raw S row of every snapshot, indexed by
    trajectory, as sample_s. workers > 1 fans runs of consecutive blocks out
    to a process pool; the result is identical for any worker count.
    """
    if n_steps < 1 or n_traj < 1:
        raise InvalidState("n_steps and n_traj must be >= 1")
    if n_steps > STEPS_CAP:
        raise CapExceeded(f"n_steps = {n_steps} above the step cap {STEPS_CAP} "
                          "(float64 step counts)")
    if workers < 1:
        raise InvalidState(f"workers must be >= 1, got {workers}")
    if chunk_size < 1:
        raise InvalidState(f"chunk_size must be >= 1, got {chunk_size}")
    if snapshots is None or len(snapshots) == 0:
        snaps = dyadic_snapshots(n_steps)
    else:
        snaps = sorted(set(int(m) for m in snapshots))
    if snaps[0] < 1 or snaps[-1] > n_steps:
        raise InvalidState("snapshots must lie in [1, n_steps]")

    # a task walks up to LANES_MAX lanes of whole blocks at once, with at
    # least min(workers, n_blocks) tasks so that every worker gets one
    n_blocks = -(-n_traj // chunk_size)
    per_task = max(1, min(LANES_MAX // chunk_size, n_blocks // workers))
    width = per_task * chunk_size
    tasks = [
        (params, n_steps, snaps, master_seed, lo, min(lo + width, n_traj),
         chunk_size, keep_raw)
        for lo in range(0, n_traj, width)
    ]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            results = list(pool.map(_chunk_job, tasks))
    else:
        results = [_chunk_job(t) for t in tasks]

    # fold in block-index order: bit-identical for any worker count or width
    acc_s = [MomentAccumulator() for _ in snaps]
    acc_z = [MomentAccumulator() for _ in snaps]
    for accs_s, accs_z, _raw in results:
        for i in range(len(snaps)):
            for acc in accs_s[i]:
                acc_s[i] = acc_s[i].merge(acc)
            for acc in accs_z[i]:
                acc_z[i] = acc_z[i].merge(acc)

    sample_s = None
    if keep_raw:
        sample_s = [np.concatenate([res[2][i] for res in results])
                    for i in range(len(snaps))]

    return EnsembleResult(
        params=params, n_steps=n_steps, n_traj=n_traj,
        master_seed=master_seed, snapshots=snaps,
        acc_s=acc_s, acc_z=acc_z, sample_s=sample_s,
    )


def ensembles_identical(a: EnsembleResult, b: EnsembleResult) -> bool:
    """Bitwise equality of two ensemble results (determinism checks)."""
    if (a.snapshots != b.snapshots or a.n_steps != b.n_steps
            or a.n_traj != b.n_traj):
        return False
    if a.acc_s != b.acc_s or a.acc_z != b.acc_z:
        return False
    if (a.sample_s is None) != (b.sample_s is None):
        return False
    if a.sample_s is not None:
        return all(np.array_equal(x, y) for x, y in zip(a.sample_s, b.sample_s))
    return True


def martingale_track(params: ModelParams, ensemble: EnsembleResult):
    """Accumulators of M_n = (S_n - E S_n)/a_n at every snapshot.

    M is an affine map of S per snapshot, so the statistics follow exactly
    from acc_s without raw trajectories.
    """
    c = derive_constants(params)
    snaps = np.asarray(ensemble.snapshots, dtype=np.int64)
    means = np.atleast_1d(expected_s(params, snaps))
    norms = np.atleast_1d(growth_values(c.alpha, snaps))
    return [
        acc.standardized(float(means[i]), float(norms[i]))
        for i, acc in enumerate(ensemble.acc_s)
    ]


@dataclass
class WEstimate:
    """Monte Carlo estimate of the superdiffusive limit variable W."""

    n_used: int
    mean_w: float
    var_w: float
    stderr: float
    sample: np.ndarray = field(repr=False, default=None)

    @classmethod
    def from_sample(cls, w: np.ndarray) -> "WEstimate":
        """Estimate from a sample of M_n, one value per trajectory."""
        var_w = float(w.var(ddof=1))
        return cls(n_used=w.size, mean_w=float(w.mean()), var_w=var_w,
                   stderr=(var_w / w.size) ** 0.5, sample=w)


def estimate_w(params: ModelParams, n_steps: int, n_traj: int,
               master_seed: int = 0, workers: int = 1) -> WEstimate:
    """Estimate W by M_{n_steps} per trajectory (superdiffusive only)."""
    c = derive_constants(params)
    if c.regime is not Regime.SUPERDIFFUSIVE:
        raise WrongRegime(f"W exists only for alpha > 1/2; regime is {c.regime.value}")
    ens = run_ensemble(params, n_steps, n_traj, snapshots=[n_steps],
                       master_seed=master_seed, keep_raw=True, workers=workers)
    w = (ens.sample_s[0] - expected_s(params, n_steps)) / growth_values(c.alpha, n_steps)
    return WEstimate.from_sample(w)


def bootstrap_variance_ci(sample, n_boot: int = 1000, level: float = 0.99,
                          seed: int = 20210905):
    """Percentile bootstrap CI for the sample variance (fixed own seed)."""
    x = np.asarray(sample, dtype=np.float64)
    rng = np.random.default_rng(seed)
    vs = np.empty(n_boot)
    for b in range(n_boot):
        idx = rng.integers(0, x.size, x.size)
        vs[b] = x[idx].var(ddof=1)
    half = 100.0 * (1.0 - level) / 2.0
    return float(np.percentile(vs, half)), float(np.percentile(vs, 100.0 - half))


def residual_clt_sample(params: ModelParams, n_steps: int, n_traj: int,
                        master_seed: int = 0,
                        horizon_factor: int = HORIZON_FACTOR_MIN,
                        workers: int = 1):
    """(w, residuals) from one walk to the far horizon n_far.

    w is M_n = (S_n - E S_n)/a_n per trajectory at n = n_steps, the sample
    `estimate_w` draws at the same seed. The residuals are the standardized
    (S_n - E S_n - W_hat a_n)/sqrt(phi n/(2a-1)), with W_hat the
    per-trajectory martingale value at n_far = horizon_factor * n_steps.
    horizon_factor < 16 is refused before any walk: at n_far = n_steps the
    residuals are identically zero, and small factors leave most of the
    limit variable unresolved.
    """
    c = derive_constants(params)
    if c.regime is not Regime.SUPERDIFFUSIVE:
        raise WrongRegime(f"residual CLT needs alpha > 1/2; regime is {c.regime.value}")
    if c.phi <= 0.0:
        raise Degenerate("phi = 0: residuals cannot be standardized")
    if horizon_factor < HORIZON_FACTOR_MIN:
        raise InvalidState(f"horizon_factor must be >= {HORIZON_FACTOR_MIN}")
    n_far = horizon_factor * n_steps
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

    params: ModelParams
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
    means = np.atleast_1d(expected_s(params, snaps_arr))
    envs_arr = np.asarray(envs)
    stat = np.vstack([
        np.abs(ens.sample_s[i] - means[i]) / envs_arr[i]
        for i in range(len(snaps))
    ])
    return LilDiagnostic(
        params=params,
        snapshots=snaps_arr,
        envelopes=envs_arr,
        running_max=np.maximum.accumulate(stat, axis=0),
    )

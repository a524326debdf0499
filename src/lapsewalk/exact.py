"""Exact ground truth for the walk at finite n.

Three independent routes, in decreasing cost:

* `enumerate_paths`  - chain rule over every path in {+1,-1,0}^n, no state
  merging (n <= 14); the reference the others are checked against.
* `distribution_dp`  - the pair (S_n, Z_n) is Markov under the step kernel,
  so the full joint law follows by dynamic programming over the triangle
  z <= m, |s| <= z (O(n^3) work, capped).
* `exact_moments`    - O(n) forward recursions for the first and second
  moments, closed in (E S, E Z, Var S, E SZ).

The moment recursions follow from the conditional step moments
E[X|counts] = (alpha/n) S + omega and E[X^2|counts] = (gamma/n) Z + tau:

    E S_{n+1}  = (1 + alpha/n) E S_n + omega
    E Z_{n+1}  = (1 + gamma/n) E Z_n + tau
    Var S_{n+1} = (1 + 2 alpha/n) Var S_n
                  + (gamma/n) E Z_n + tau - ((alpha/n) E S_n + omega)^2
    E S_{n+1}Z_{n+1} = (1 + (alpha+gamma)/n) E S_n Z_n
                  + (tau + alpha/n) E S_n + omega E Z_n + omega

(the variance line propagates the centered second moment, which avoids the
n^2 cancellation of the raw recursion; the cross recursion uses X^3 = X).
All four are validated against the DP in the test suite before anything
else relies on them. They run together in carried blocks of transitions
through one `(4, block + 1)` buffer. `exact_moments(params, n_max)` copies
every block into a `MomentTable` of four float64 arrays of n_max + 1;
tests, demos and the benchmark's oracle check read that.
`exact_moments(params, n_max, ns=...)` keeps only the rows at
`ns`, in O(block) memory, with the same bits; every package caller (the
`exact` command, the CLT, superdiffusive and regime-scan experiments) reads
its rows that way. Both refuse n_max above `MOMENT_CAP`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, DegenerateVariance, InvalidState
from .model import ModelParams, derive_constants

DP_CAP_DEFAULT = 400
PATH_CAP = 14
MOMENT_CAP = 2 ** 32  # O(n) moment recursion: ~16 Mterms/s, so ~4.5 min
_MOMENT_BLOCK = 1 << 15  # transitions per carried block; speed only


@dataclass(frozen=True)
class ExactMoments:
    n: int
    mean_s: float
    mean_z: float
    var_s: float
    mean_sz: float


class MomentTable:
    """Exact moments for all n = 1..n_max (arrays indexed by n; slot 0 unused)."""

    def __init__(self, n_max, mean_s, mean_z, var_s, mean_sz):
        self.n_max = n_max
        self.mean_s = mean_s
        self.mean_z = mean_z
        self.var_s = var_s
        self.mean_sz = mean_sz

    def row(self, n: int) -> ExactMoments:
        return ExactMoments(
            n=n,
            mean_s=float(self.mean_s[n]),
            mean_z=float(self.mean_z[n]),
            var_s=float(self.var_s[n]),
            mean_sz=float(self.mean_sz[n]),
        )


def _carry_block(rate, k, forcing, x1, carry, out):
    """x_{n+1} = (1 + rate/n) x_n + f_n over one block of transitions n = k.

    Writes x_{n+1} = G_{n+1} (x_1 + P_{n+1}) into `out`, where G is the
    product of the factors and P the prefix sum of f_l / G_{l+1}, and returns
    the carry (G, P) at the block's end. The carry is folded into the first
    element of each scan, which is the step a whole-array scan takes there,
    so the block width does not change the bits. `forcing` is overwritten.
    """
    growth, prefix = carry
    fac = 1.0 + rate / k
    fac[0] *= growth
    np.multiply.accumulate(fac, out=fac)
    forcing /= fac
    forcing[0] += prefix
    np.add.accumulate(forcing, out=forcing)
    np.multiply(fac, x1 + forcing, out=out)
    return fac[-1], forcing[-1]


def _moment_blocks(params: ModelParams, n_max: int):
    """Yield (n0, cols) for n = 1..n_max, where cols[:, j] holds E S, E Z,
    Var S and E SZ at n = n0 + j.

    Every cols is a view of one (4, block + 1) buffer, valid until the next
    step: column 0 carries x_lo from the previous block, and the block's
    transitions k = lo..hi-1 write x_{lo+1}..x_hi into columns 1..hi-lo.
    """
    c = derive_constants(params)
    al, om, ga, ta = c.alpha, c.omega, c.gamma, c.tau
    block = min(_MOMENT_BLOCK, max(n_max - 1, 1))
    buf = np.empty((4, block + 1))
    x1 = (c.beta, c.psi, c.psi - c.beta ** 2, c.beta)  # E[S_1 Z_1] = E[X_1^3]
    buf[:, 0] = np.add(x1, 0.0)  # G_1 (x_1 + P_1) with G_1 = 1, P_1 = 0
    yield 1, buf[:, :1]
    rates = (al, ga, 2.0 * al, al + ga)
    carries = [(1.0, -0.0)] * 4  # -0.0 + f == f for every f, even f = -0.0

    ks = np.arange(1.0, block + 1.0)  # transitions n -> n+1 of the next block
    for lo in range(1, n_max, block):
        w = min(block, n_max - lo)
        k = ks[:w]
        ms, mz = buf[0, :w], buf[1, :w]  # E S_k, E Z_k
        for row in range(4):
            if row < 2:
                forcing = np.full(w, (om, ta)[row])
            elif row == 2:  # reads E S_k and E Z_k, which rows 0 and 1 wrote
                forcing = (ga / k) * mz + ta - ((al / k) * ms + om) ** 2
            else:
                forcing = (ta + al / k) * ms + om * mz + om
            carries[row] = _carry_block(rates[row], k, forcing, x1[row],
                                        carries[row], buf[row, 1:w + 1])
        yield lo + 1, buf[:, 1:w + 1]
        buf[:, 0] = buf[:, w]
        ks += w


def exact_moments(params: ModelParams, n_max: int, ns=None):
    """Forward moment recursions for n = 1..n_max, in carried blocks.

    Without `ns`, returns the whole `MomentTable`. With `ns`, returns a list
    of `ExactMoments` at the sorted distinct n of `ns` (each in 1..n_max),
    the same bits as the table's rows, in O(block) memory.
    """
    if n_max > MOMENT_CAP:
        raise CapExceeded(f"n_max = {n_max} above the moment cap {MOMENT_CAP} "
                          "(O(n) cost)")
    if n_max < 1:
        raise CapExceeded("n_max must be >= 1")
    if ns is not None:
        return _moment_rows(params, n_max, ns)
    try:
        table = np.empty((4, n_max + 1))  # mean_s, mean_z, var_s, mean_sz
    except MemoryError:
        raise CapExceeded(f"n_max = {n_max} needs a {32 * (n_max + 1)}-byte "
                          "moment table, more than can be allocated") from None
    table[:, 0] = np.nan
    for n0, cols in _moment_blocks(params, n_max):
        table[:, n0:n0 + cols.shape[1]] = cols
    return MomentTable(n_max, *table)


def _moment_rows(params, n_max, ns):
    want = np.unique(np.asarray(ns, dtype=np.int64))
    if want.size and (want[0] < 1 or want[-1] > n_max):
        raise InvalidState(f"moment rows must lie in [1, {n_max}], "
                           f"got {want[0]}..{want[-1]}")
    rows = np.empty((4, want.size))
    done = 0
    for n0, cols in _moment_blocks(params, n_max):
        upto = int(np.searchsorted(want, n0 + cols.shape[1]))
        rows[:, done:upto] = cols[:, want[done:upto] - n0]
        done = upto
        if done == want.size:  # no later block holds a wanted row
            break
    return [ExactMoments(*vals) for vals in zip(want.tolist(), *rows.tolist())]


@dataclass(frozen=True)
class ExactDistribution:
    """Joint law of (S_n, Z_n): probability mass per reachable (s, z) pair."""

    n: int
    mass: dict

    def total_mass(self) -> float:
        return float(sum(self.mass.values()))


def _dp_slices(params: ModelParams, n: int, cap: int):
    """Yield (m, tri) for m = 1..n, tri[z, j] = P(Z_m = z, n_plus = j).

    The pair (S_m, Z_m) is Markov, and with j = n_plus = (s + z) / 2 each
    time slice is a dense triangle and every transition is a shifted array add.
    """
    if n < 1:
        raise CapExceeded("n must be >= 1")
    if n > cap:
        raise CapExceeded(f"n = {n} above the DP cap {cap} (O(n^3) cost)")
    p, q, r, theta = params.p, params.q, params.r, params.theta
    pq = p + q

    tri = np.zeros((2, 2))
    tri[1, 1] = p
    tri[1, 0] = q
    tri[0, 0] = r
    yield 1, tri
    for m in range(1, n):
        zs = np.arange(m + 1, dtype=np.float64)[:, None]
        js = np.arange(m + 1, dtype=np.float64)[None, :]
        p_plus = (theta / m) * (js * p + (zs - js) * q) + (1.0 - theta) * p
        p_minus = (theta / m) * ((zs - js) * p + js * q) + (1.0 - theta) * q
        p_zero = (theta * pq / m) * (m - zs) + r
        nxt = np.zeros((m + 2, m + 2))
        nxt[1:, 1:] += tri * p_plus
        nxt[1:, :-1] += tri * p_minus
        nxt[:-1, :-1] += tri * p_zero
        tri = nxt
        yield m + 1, tri


def _final_slice(params: ModelParams, n: int, cap: int):
    """The DP triangle at step n, checked to hold unit mass."""
    for _, tri in _dp_slices(params, n, cap):
        pass
    total = float(tri.sum())
    if abs(total - 1.0) > 1e-10:
        raise AssertionError(f"probability mass drifted to {total!r}")
    return tri


def distribution_columns(params: ModelParams, n: int,
                         cap: int = DP_CAP_DEFAULT):
    """The reachable cells of the joint law of (S_n, Z_n) as three arrays
    (s, z, probability), sorted by (s, z)."""
    tri = _final_slice(params, n, cap)
    zs, js = np.nonzero(tri)
    ss = 2 * js - zs
    order = np.lexsort((zs, ss))
    return ss[order], zs[order], tri[zs, js][order]


def distribution_dp(params: ModelParams, n: int, cap: int = DP_CAP_DEFAULT) -> ExactDistribution:
    """Exact joint law of (S_n, Z_n) by DP over (z, n_plus) triangles."""
    ss, zs, probs = distribution_columns(params, n, cap)
    return ExactDistribution(n=n, mass=dict(zip(
        zip(ss.tolist(), zs.tolist()), probs.tolist())))


def dp_moment_scan(params: ModelParams, n_max: int,
                   cap: int = DP_CAP_DEFAULT):
    """Moments of the DP joint law at every step 1..n_max (one DP pass).

    Returns a list of ExactMoments; the independent cross-check for the
    O(n) moment recursions.
    """
    out = []
    for m, tri in _dp_slices(params, n_max, cap):
        zs = np.arange(m + 1, dtype=np.float64)[:, None]
        js = np.arange(m + 1, dtype=np.float64)[None, :]
        s = 2.0 * js - zs
        ms = float((tri * s).sum())
        mz = float((tri * zs).sum())
        ms2 = float((tri * s * s).sum())
        msz = float((tri * s * zs).sum())
        out.append(ExactMoments(m, ms, mz, ms2 - ms * ms, msz))
    return out


def enumerate_paths(params: ModelParams, n: int, cap: int = PATH_CAP) -> ExactDistribution:
    """Brute-force law of (S_n, Z_n): chain rule over all 3^n paths.

    Every path keeps its own probability; nothing is merged until the final
    tally, so this is a genuinely independent check on the DP.
    """
    if n < 1:
        raise CapExceeded("n must be >= 1")
    if n > cap:
        raise CapExceeded(f"n = {n} above the enumeration cap {cap} (3^n paths)")
    p, q, r, theta = params.p, params.q, params.r, params.theta

    n_plus = np.zeros(1, dtype=np.int64)
    n_minus = np.zeros(1, dtype=np.int64)
    weight = np.ones(1)
    for m in range(n):
        if m == 0:
            w_plus = weight * p
            w_minus = weight * q
            w_zero = weight * r
        else:
            p_plus = (theta / m) * (n_plus * p + n_minus * q) + (1.0 - theta) * p
            p_minus = (theta / m) * (n_minus * p + n_plus * q) + (1.0 - theta) * q
            p_zero = (theta * (p + q) / m) * (m - n_plus - n_minus) + r
            w_plus = weight * p_plus
            w_minus = weight * p_minus
            w_zero = weight * p_zero
        weight = np.concatenate((w_plus, w_minus, w_zero))
        n_plus = np.concatenate((n_plus + 1, n_plus, n_plus))
        n_minus = np.concatenate((n_minus, n_minus + 1, n_minus))

    z = n_plus + n_minus
    keys = z * (n + 1) + n_plus
    tally = np.bincount(keys, weights=weight, minlength=(n + 1) * (n + 1))
    mass = {}
    for key in np.nonzero(tally)[0].tolist():
        zz, jj = divmod(key, n + 1)
        mass[(2 * jj - zz, zz)] = float(tally[key])
    dist = ExactDistribution(n=n, mass=mass)
    assert abs(dist.total_mass() - 1.0) <= 1e-12
    return dist


@dataclass(frozen=True)
class DiscreteCdf:
    """Finite-support CDF on standardized points (for exact KS distances)."""

    points: np.ndarray  # sorted support
    probs: np.ndarray   # point masses
    cdf: np.ndarray     # running totals, cdf[i] = P(X <= points[i])


def standardized_exact_cdf(params: ModelParams, n: int,
                           cap: int = DP_CAP_DEFAULT) -> DiscreteCdf:
    """Exact CDF of (S_n - E S_n) / sqrt(Var S_n) on its finite support."""
    tri = _final_slice(params, n, cap)
    zs, js = np.nonzero(tri)
    # P(S_n = s) in bin s + n; bincount adds a bin's cells in the row-major
    # order of nonzero, i.e. by increasing z, which fixes the bits
    bins = 2 * js - zs + n
    sums = np.bincount(bins, weights=tri[zs, js])
    reached = np.unique(bins)
    svals = (reached - n).astype(np.float64)
    probs = sums[reached]
    mean = float(np.dot(svals, probs))
    var = float(np.dot(svals * svals, probs)) - mean * mean
    if var <= 1e-14:
        raise DegenerateVariance(f"Var(S_{n}) = {var!r}; cannot standardize")
    pts = (svals - mean) / np.sqrt(var)
    return DiscreteCdf(points=pts, probs=probs, cdf=np.cumsum(probs))

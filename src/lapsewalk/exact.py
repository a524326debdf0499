"""Exact ground truth for the walk at finite n.

Three independent routes, in decreasing cost:

* `enumerate_paths`  - chain rule over every path in {+1,-1,0}^n, no state
  merging (n <= PATH_CAP); the reference the others are checked against.
* `distribution_dp`  - the pair (S_n, Z_n) is Markov under the step kernel,
  so the full joint law follows by dynamic programming over the triangle
  z <= m, |s| <= z (O(n^3) work, n <= DP_CAP). The slices alternate between
  two flat buffers of (n + 2)^2 floats with row stride n + 2, and each step
  runs over contiguous bands of `_DP_BAND` rows; a yielded slice is a view
  that stays valid until the next step.
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

The enumeration and the DP return one record, `ExactDistribution`: the
reachable (s, z) cells of the law at n as numpy columns `s`, `z` and
`probability`, sorted by (s, z). Both build it from their (z, n_plus) grid
through one helper, which also checks the mass; `standardized_exact_cdf`
sums the DP's rows into the law of S_n.

Every size and row index passes `errors.counts`: one that is not an integer,
or is below 1, raises `InvalidState`, and a size above its cap, the module
constants `PATH_CAP`, `DP_CAP` and `MOMENT_CAP` read when the call runs,
raises `CapExceeded`. The enumeration and the DP check that
their law holds unit mass: every cell's step law sums to p + q + r, which a
valid `ModelParams` holds only within `SIMPLEX_TOL` of 1, so n steps may
drift by n * SIMPLEX_TOL beyond the rounding tolerance; more raises
`InvalidState`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, Degenerate, InvalidState, counts
from .model import SIMPLEX_TOL, ModelParams, derive_constants

DP_CAP = 400
PATH_CAP = 14
MOMENT_CAP = 2 ** 32  # O(n) moment recursion: ~16 Mterms/s, so ~4.5 min
_MOMENT_BLOCK = 1 << 15  # transitions per carried block; speed only
_DP_BAND = 64  # DP rows per contiguous band; speed only


@dataclass(frozen=True)
class ExactMoments:
    n: int
    mean_s: float
    mean_z: float
    var_s: float
    mean_sz: float


@dataclass(frozen=True, eq=False)
class MomentTable:
    """Exact moments for all n = 1..n_max (arrays indexed by n; slot 0 unused)."""

    n_max: int
    mean_s: np.ndarray
    mean_z: np.ndarray
    var_s: np.ndarray
    mean_sz: np.ndarray


def _check_mass(total, n, tol):
    """Refuse a law of n steps whose mass is off 1 by more than `tol` plus
    the n * SIMPLEX_TOL that n valid step laws may drift, or a NaN total."""
    if not abs(total - 1.0) <= tol + n * SIMPLEX_TOL:
        raise InvalidState(f"probability mass drifted to {total!r}")


def _carry_block(rate, k, forcing, carry, out):
    """x_{n+1} = (1 + rate/n) x_n + f_n over one block of transitions n = k.

    Writes x_{n+1} = G_{n+1} (x_1 + P_{n+1}) into `out`, where G is the
    product of the factors and P the prefix sum of f_l / G_{l+1}, and returns
    the carry (G, P, x_1) at the block's end. G and P are folded into the
    first element of each scan, which is the step a whole-array scan takes
    there, so the block width does not change the bits. `forcing` is
    overwritten.

    The factor at n = 1 is 0 at rate = -1 (2 alpha = -1), and G would be 0
    from there on. Then x_2 = f_1 exactly, so the row runs with that factor
    taken as 1 and with x_1 = 0, which the carry keeps for later blocks.
    """
    growth, prefix, x1 = carry
    fac = 1.0 + rate / k
    if fac[0] == 0.0:  # only k = 1 at rate = -1
        fac[0], x1 = 1.0, 0.0
    fac[0] *= growth
    np.multiply.accumulate(fac, out=fac)
    forcing /= fac
    forcing[0] += prefix
    np.add.accumulate(forcing, out=forcing)
    np.multiply(fac, x1 + forcing, out=out)
    return fac[-1], forcing[-1], x1


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
    # G_1 = 1, and P_1 = -0.0: -0.0 + f == f for every f, even f = -0.0
    carries = [(1.0, -0.0, x) for x in x1]

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
            carries[row] = _carry_block(rates[row], k, forcing, carries[row],
                                        buf[row, 1:w + 1])
        yield lo + 1, buf[:, 1:w + 1]
        buf[:, 0] = buf[:, w]
        ks += w


def exact_moments(params: ModelParams, n_max: int, ns=None):
    """Forward moment recursions for n = 1..n_max, in carried blocks.

    Without `ns`, returns the whole `MomentTable`. With `ns`, returns a list
    of `ExactMoments` at the sorted distinct n of `ns` (each in 1..n_max),
    the same bits as the table's rows, in O(block) memory.
    """
    counts("n_max", n_max, cap=MOMENT_CAP, kind="moment", cost="O(n) cost")
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
    want = np.unique(ns)
    if want.size and not 1 <= want[0] <= want[-1] <= n_max:
        raise InvalidState(f"moment rows must lie in [1, {n_max}], "
                           f"got {want[0]}..{want[-1]}")
    want = counts("moment rows", want).astype(np.int64)
    rows = np.empty((4, want.size))
    done = 0
    for n0, cols in _moment_blocks(params, n_max):
        upto = int(np.searchsorted(want, n0 + cols.shape[1]))
        rows[:, done:upto] = cols[:, want[done:upto] - n0]
        done = upto
        if done == want.size:  # no later block holds a wanted row
            break
    return [ExactMoments(*vals) for vals in zip(want.tolist(), *rows.tolist())]


@dataclass(frozen=True, eq=False)
class ExactDistribution:
    """Joint law of (S_n, Z_n): one row per reachable (s, z) cell, sorted by
    (s, z), in three numpy columns."""

    n: int
    s: np.ndarray
    z: np.ndarray
    probability: np.ndarray

    def total_mass(self) -> float:
        return float(self.probability.sum())


def _law(n, cells, tol):
    """The law of n steps held as cells[z, n_plus], checked to hold unit mass
    within `tol`: its nonzero cells as rows sorted by (s, z), s = 2 n_plus - z."""
    _check_mass(float(cells.sum()), n, tol)
    zs, js = np.nonzero(cells)
    ss = 2 * js - zs
    order = np.lexsort((zs, ss))
    return ExactDistribution(n, ss[order], zs[order], cells[zs, js][order])


def _dp_slices(params: ModelParams, n: int):
    """Yield (m, tri) for m = 1..n, tri[z, j] = P(Z_m = z, n_plus = j).

    The pair (S_m, Z_m) is Markov, and with j = n_plus = (s + z) / 2 each
    time slice is a dense triangle. Slices alternate between two flat
    buffers of (n + 2)^2 floats: cell (z, j) sits at z * stride + j with
    stride = n + 2, so the +1, -1 and 0 moves land at the constant offsets
    stride + 1, stride and 0. Each step runs over contiguous bands of
    `_DP_BAND` whole rows; the columns past m hold zeros and add only zeros.
    Every cell starts at +0.0 and takes its shares in the order +1, -1, 0,
    with the float operations of a fresh dense triangle per step, so the
    bits do not depend on the band. tri is an (m + 1, m + 1) view, valid
    until the next step.
    """
    counts("n", n, cap=DP_CAP, kind="DP", cost="O(n^3) cost")
    p, q, r, theta = params.p, params.q, params.r, params.theta
    pq = p + q
    c_plus, c_minus = (1.0 - theta) * p, (1.0 - theta) * q
    stride = n + 2
    zs = np.arange(n + 1, dtype=np.float64)
    js = np.arange(stride, dtype=np.float64)
    # the m-free terms: p_plus = (theta / m) up + c_plus, p_minus likewise
    up = (js * p + (zs[:, None] - js) * q).ravel()
    down = ((zs[:, None] - js) * p + js * q).ravel()
    cur, nxt = np.zeros(stride * stride), np.zeros(stride * stride)
    scratch = np.empty(_DP_BAND * stride)
    cur[0], cur[stride], cur[stride + 1] = r, q, p
    yield 1, cur.reshape(stride, stride)[:2, :2]
    for m in range(1, n):
        th_m, rows = theta / m, m + 1
        p_zero = (theta * pq / m) * (m - zs[:rows]) + r
        nxt[:(rows + 1) * stride + 1] = 0.0  # every cell a +1 move reaches
        for z0 in range(0, rows, _DP_BAND):
            z1 = min(z0 + _DP_BAND, rows)
            lo, hi = z0 * stride, z1 * stride
            src, t = cur[lo:hi], scratch[:hi - lo]
            for law, const, to in ((up, c_plus, stride + 1),  # (z+1, j+1)
                                   (down, c_minus, stride)):  # (z+1, j)
                np.multiply(law[lo:hi], th_m, out=t)
                t += const
                t *= src
                nxt[lo + to:hi + to] += t
            np.multiply(src.reshape(-1, stride), p_zero[z0:z1, None],
                        out=t.reshape(-1, stride))
            nxt[lo:hi] += t
        cur, nxt = nxt, cur
        yield m + 1, cur.reshape(stride, stride)[:m + 2, :m + 2]


def distribution_dp(params: ModelParams, n: int) -> ExactDistribution:
    """Exact joint law of (S_n, Z_n): the DP triangle at step n."""
    for _, tri in _dp_slices(params, n):
        pass
    return _law(n, tri, 1e-10)


def dp_moment_scan(params: ModelParams, n_max: int):
    """Moments of the DP joint law at every step 1..n_max (one DP pass).

    Returns a list of ExactMoments; the independent cross-check for the
    O(n) moment recursions. Each slice is checked to hold unit mass.
    """
    out = []
    for m, tri in _dp_slices(params, n_max):
        _check_mass(float(tri.sum()), m, 1e-10)
        zs = np.arange(m + 1, dtype=np.float64)[:, None]
        js = np.arange(m + 1, dtype=np.float64)[None, :]
        s = 2.0 * js - zs
        ms = float((tri * s).sum())
        mz = float((tri * zs).sum())
        ms2 = float((tri * s * s).sum())
        msz = float((tri * s * zs).sum())
        out.append(ExactMoments(m, ms, mz, ms2 - ms * ms, msz))
    return out


def enumerate_paths(params: ModelParams, n: int) -> ExactDistribution:
    """Brute-force law of (S_n, Z_n): chain rule over all 3^n paths.

    Every path keeps its own probability; nothing is merged until the final
    tally, so this is a genuinely independent check on the DP.
    """
    counts("n", n, cap=PATH_CAP, kind="enumeration", cost="3^n paths")
    p, q, r, theta = params.p, params.q, params.r, params.theta

    # the first step's three paths, then each step splits every path in three
    n_plus = np.array([1, 0, 0])
    n_minus = np.array([0, 1, 0])
    weight = np.array([p, q, r])
    for m in range(1, n):
        p_plus = (theta / m) * (n_plus * p + n_minus * q) + (1.0 - theta) * p
        p_minus = (theta / m) * (n_minus * p + n_plus * q) + (1.0 - theta) * q
        p_zero = (theta * (p + q) / m) * (m - n_plus - n_minus) + r
        weight = np.concatenate((weight * p_plus, weight * p_minus,
                                 weight * p_zero))
        n_plus = np.concatenate((n_plus + 1, n_plus, n_plus))
        n_minus = np.concatenate((n_minus, n_minus + 1, n_minus))

    keys = (n_plus + n_minus) * (n + 1) + n_plus
    tally = np.bincount(keys, weights=weight, minlength=(n + 1) * (n + 1))
    return _law(n, tally.reshape(n + 1, n + 1), 1e-12)


@dataclass(frozen=True)
class DiscreteCdf:
    """Finite-support CDF on standardized points (for exact KS distances)."""

    points: np.ndarray  # sorted support
    probs: np.ndarray   # point masses
    cdf: np.ndarray     # running totals, cdf[i] = P(X <= points[i])


def standardized_exact_cdf(params: ModelParams, n: int) -> DiscreteCdf:
    """Exact CDF of (S_n - E S_n) / sqrt(Var S_n) on its finite support."""
    law = distribution_dp(params, n)
    reached = np.unique(law.s)
    # P(S_n = s) in bin s + n; bincount adds a bin's cells in the rows'
    # order, i.e. by increasing z, which fixes the bits
    probs = np.bincount(law.s + n, weights=law.probability)[reached + n]
    svals = reached.astype(np.float64)
    mean = float(np.dot(svals, probs))
    var = float(np.dot(svals * svals, probs)) - mean * mean
    if var <= 1e-14:
        raise Degenerate(f"Var(S_{n}) = {var!r}; cannot standardize")
    pts = (svals - mean) / np.sqrt(var)
    return DiscreteCdf(points=pts, probs=probs, cdf=np.cumsum(probs))

"""Exact ground truth for the walk at finite n.

Three independent routes, in decreasing cost:

* `enumerate_paths`  - chain rule over every path in {+1,-1,0}^n, no state
  merging (n <= PATH_CAP); the reference the others are checked against.
* `distribution_dp`  - the pair (S_n, Z_n) is Markov under the step kernel,
  so the full joint law follows by dynamic programming over the triangle
  z <= m, |s| <= z (O(n^3) work, n <= DP_CAP). The slices alternate between
  two flat buffers of (n + 2)^2 floats, laid out at a row stride that grows
  with the step, by `_DP_BAND` columns up to n + 2, so that a step walks
  only the columns its slice reaches; each step runs over contiguous bands
  of `_DP_BAND` rows, and a yielded slice is a view that stays valid until
  the next step.
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
through one `(4, block + 1)` buffer, and each block divides alpha and gamma
by n once. `exact_moments(params, n_max)` copies every block into a
`MomentTable` of four float64 arrays of n_max + 1; tests, demos and the
benchmark's oracle check read that. `exact_moments(params, n_max, ns=...)`
keeps only the rows at `ns`, in O(block) memory, with the same bits; every
package caller (the `exact` command, the CLT, superdiffusive and
regime-scan experiments) reads its rows that way. The three experiments
pass `cross=False`, which skips the E SZ recursion that none of them reads.
Both refuse n_max above `MOMENT_CAP`.

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
    mean_sz: float | None = None  # None where the E SZ recursion was skipped


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


def _carry_block(fac, forcing, carry, out):
    """x_{n+1} = fac_n x_n + f_n over one block of transitions.

    Writes x_{n+1} = G_{n+1} (x_1 + P_{n+1}) into `out`, where G is the
    product of the factors and P the prefix sum of f_l / G_{l+1}, and returns
    the carry (G, P, x_1) at the block's end. G and P are folded into the
    first element of each scan, which is the step a whole-array scan takes
    there, so the block width does not change the bits. `fac` and `forcing`
    are overwritten.

    The factor at n = 1 is 0 at rate = -1 (2 alpha = -1), and G would be 0
    from there on. Then x_2 = f_1 exactly, so the row runs with that factor
    taken as 1 and with x_1 = 0, which the carry keeps for later blocks.
    """
    growth, prefix, x1 = carry
    if fac[0] == 0.0:  # only k = 1 at rate = -1
        fac[0], x1 = 1.0, 0.0
    fac[0] *= growth
    np.multiply.accumulate(fac, out=fac)
    forcing /= fac
    forcing[0] += prefix
    np.add.accumulate(forcing, out=forcing)
    np.add(forcing, x1, out=out)
    out *= fac
    return fac[-1], forcing[-1], x1


def _moment_blocks(params: ModelParams, n_max: int, cross=True):
    """Yield (n0, cols) for n = 1..n_max, where cols[:, j] holds E S, E Z,
    Var S and, with `cross`, E SZ at n = n0 + j.

    Every cols is a view of one (rows, block + 1) buffer, valid until the
    next step: column 0 carries x_lo from the previous block, and the
    block's transitions k = lo..hi-1 write x_{lo+1}..x_hi into columns
    1..hi-lo. Each block divides alpha and gamma by k once and builds each
    factor 1 + rate/k and forcing in place, with the float operations of the
    recursions above: (2 alpha)/k = 2 (alpha/k) but where alpha/k is
    subnormal, and there 1 plus either is 1.
    """
    c = derive_constants(params)
    al, om, ga, ta = c.alpha, c.omega, c.gamma, c.tau
    block = min(_MOMENT_BLOCK, max(n_max - 1, 1))
    # E[S_1 Z_1] = E[X_1^3] = beta
    x1 = (c.beta, c.psi, c.psi - c.beta ** 2, c.beta)[:4 if cross else 3]
    buf = np.empty((len(x1), block + 1))
    buf[:, 0] = np.add(x1, 0.0)  # G_1 (x_1 + P_1) with G_1 = 1, P_1 = 0
    yield 1, buf[:, :1]
    # G_1 = 1, and P_1 = -0.0: -0.0 + f == f for every f, even f = -0.0
    carries = [(1.0, -0.0, x) for x in x1]
    work = np.empty((4, block))  # alpha/k, gamma/k, a factor, a forcing

    ks = np.arange(1.0, block + 1.0)  # transitions n -> n+1 of the next block
    for lo in range(1, n_max, block):
        w = min(block, n_max - lo)
        k = ks[:w]
        a, g, fac, f = work[:, :w]
        np.divide(al, k, out=a)
        np.divide(ga, k, out=g)
        ms, mz = buf[0, :w], buf[1, :w]  # E S_k, E Z_k
        for row in range(len(x1)):
            if row < 2:  # factor 1 + (alpha or gamma)/k, forcing omega or tau
                np.add((a, g)[row], 1.0, out=fac)
                f.fill((om, ta)[row])
            elif row == 2:  # (gamma/k) E Z_k + tau - ((alpha/k) E S_k + omega)^2
                np.multiply(a, ms, out=fac)
                fac += om
                np.square(fac, out=fac)
                np.multiply(g, mz, out=f)
                f += ta
                f -= fac
                np.multiply(a, 2.0, out=fac)
                fac += 1.0
            else:  # (tau + alpha/k) E S_k + omega E Z_k + omega
                np.add(a, ta, out=f)
                f *= ms
                np.multiply(mz, om, out=fac)
                f += fac
                f += om
                np.divide(al + ga, k, out=fac)  # alpha/k + gamma/k rounds apart
                fac += 1.0
            carries[row] = _carry_block(fac, f, carries[row], buf[row, 1:w + 1])
        yield lo + 1, buf[:, 1:w + 1]
        buf[:, 0] = buf[:, w]
        ks += w


def exact_moments(params: ModelParams, n_max: int, ns=None, cross=True):
    """Forward moment recursions for n = 1..n_max, in carried blocks.

    Without `ns`, returns the whole `MomentTable`. With `ns`, returns a list
    of `ExactMoments` at the sorted distinct n of `ns` (each in 1..n_max),
    the same bits as the table's rows, in O(block) memory; `cross=False`
    skips the E SZ recursion there and leaves `mean_sz` None. The table
    always holds `mean_sz`, so `cross=False` without `ns` is refused.
    """
    counts("n_max", n_max, cap=MOMENT_CAP, kind="moment", cost="O(n) cost")
    if ns is None and not cross:
        raise InvalidState("cross=False needs ns: the moment table holds mean_sz")
    if ns is not None:
        return _moment_rows(params, n_max, ns, cross)
    try:
        table = np.empty((4, n_max + 1))  # mean_s, mean_z, var_s, mean_sz
    except MemoryError:
        raise CapExceeded(f"n_max = {n_max} needs a {32 * (n_max + 1)}-byte "
                          "moment table, more than can be allocated") from None
    table[:, 0] = np.nan
    for n0, cols in _moment_blocks(params, n_max):
        table[:, n0:n0 + cols.shape[1]] = cols
    return MomentTable(n_max, *table)


def _moment_rows(params, n_max, ns, cross):
    want = np.unique(counts("moment rows", ns, low=float("-inf")))
    if want.size and not 1 <= want[0] <= want[-1] <= n_max:
        raise InvalidState(f"moment rows must lie in [1, {n_max}], "
                           f"got {want[0]}..{want[-1]}")
    want = want.astype(np.int64)
    rows = np.empty((4 if cross else 3, want.size))
    done = 0
    for n0, cols in _moment_blocks(params, n_max, cross):
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
    buffers of (n + 2)^2 floats: cell (z, j) sits at z * stride + j, so the
    +1, -1 and 0 moves land at the constant offsets stride + 1, stride and
    0. The stride starts at `_DP_BAND` and, before a step would write the
    last column, grows by it, up to n + 2, with the slice relaid into the
    other buffer: the last column stays zero because the +1 move out of it
    wraps into column 0 of a later row, where it adds only a zero. Each step
    runs over contiguous bands of `_DP_BAND` whole rows. Every cell starts
    at +0.0 and takes its shares in the order +1, -1, 0, with the float
    operations of a fresh dense triangle per step, so the bits depend on
    neither the band nor the stride. tri is an (m + 1, m + 1) view, valid
    until the next step.
    """
    counts("n", n, cap=DP_CAP, kind="DP", cost="O(n^3) cost")
    p, q, r, theta = params.p, params.q, params.r, params.theta
    pq = p + q
    c_plus, c_minus = (1.0 - theta) * p, (1.0 - theta) * q
    zs = np.arange(n + 1, dtype=np.float64)
    cur, nxt = np.zeros((n + 2) ** 2), np.zeros((n + 2) ** 2)
    # the m-free terms: p_plus = (theta / m) up + c_plus, p_minus likewise
    up, down = np.empty((2, (n + 1) * (n + 2)))
    scratch = np.empty(_DP_BAND * (n + 2))

    def lay_terms(stride):
        """up and down at `stride`, on the rows that a step there reads."""
        js = np.arange(stride, dtype=np.float64)
        rows = min(stride, n + 1)
        for law, a, b in ((up, q, p), (down, p, q)):  # (z - j) a + j b
            grid = law[:rows * stride].reshape(rows, stride)
            np.subtract(zs[:rows, None], js, out=grid)
            grid *= a
            grid += js * b

    stride = min(n + 2, _DP_BAND)
    lay_terms(stride)
    cur[0], cur[stride], cur[stride + 1] = r, q, p
    yield 1, cur[:2 * stride].reshape(2, stride)[:, :2]
    for m in range(1, n):
        if m + 2 > stride:  # slice m + 1 writes column m + 1; the last stays 0
            width, stride = stride, min(stride + _DP_BAND, n + 2)
            grid = nxt[:(m + 1) * stride].reshape(m + 1, stride)
            grid[:, width:] = 0.0
            grid[:, :width] = cur[:(m + 1) * width].reshape(m + 1, width)
            cur, nxt = nxt, cur
            lay_terms(stride)
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
        yield m + 1, cur[:(m + 2) * stride].reshape(m + 2, stride)[:, :m + 2]


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

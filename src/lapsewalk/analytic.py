"""Deterministic predictions: normalizing sequences, exact expectations,
regime-dependent scaling laws, and iterated-logarithm envelopes.

The normalizer a_n (a_1 = 1, a_{n+1} = a_n (1 + alpha/n)) turns the centered
position into a martingale; its variance clock v_n = sum 1/a_k^2 diverges for
alpha <= 1/2 and converges for alpha > 1/2, which is exactly the
diffusive/superdiffusive transition. Everything here is computed by forward
recurrence in float64; log-gamma forms are reserved for tests. Indices n
pass `errors.counts`: they are integers from 1 up to `model.STEPS_CAP`.
"""

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import DomainTooSmall, OutOfDomain, counts, finite_sample
from .model import STEPS_CAP, ModelParams, Regime, domain_constants

_CHUNK = 1 << 19
# sub-block width of the v_limit series scans: speed only, never the bits
_SERIES_BLOCK = 1 << 15
# the direct v_limit scan stops once a term is below _SCAN_TOL times the
# partial sum; it gives up after _SCAN_TERMS terms, the end of the first
# chunk (2^16 doubling to 2^22) at or past 1e8 terms. It must be a chunk
# end: the skip test takes it as the last index the scan reaches
_SCAN_TOL = 1e-10
_SCAN_TERMS = 24 * (1 << 22) - (1 << 16)
# Thomae series: terms summed, and Richardson levels over K = 2^13..2^16
_THOMAE_TERMS = 1 << 16
_THOMAE_LEVELS = 3
# covers the rounding of the scan's own terms and partial sums in the skip
# test of v_limit_superdiffusive
_SKIP_MARGIN = 1.001


def _check_rate(rate):
    if not (isinstance(rate, Real) and 0.0 <= rate < 1.0):
        raise OutOfDomain(f"alpha must lie in [0, 1), got {rate!r}")


def _growth_table(rate, n_max):
    counts("n_max", n_max, cap=STEPS_CAP, kind="index", cost="float64 indices")
    vals = np.empty(n_max + 1)
    vals[0] = np.nan
    vals[1] = 1.0
    if n_max > 1:
        k = np.arange(1, n_max, dtype=np.float64)
        vals[2:] = np.cumprod(1.0 + rate / k)
    return vals


def a_sequence(alpha: float, n_max: int) -> np.ndarray:
    """Martingale normalizer a_n by its product recurrence, indexed by n
    (slot 0 is NaN). At rate gamma it is b_n, which normalizes Z_n."""
    _check_rate(alpha)
    return _growth_table(alpha, n_max)


def v_sequence(alpha: float, n_max: int) -> np.ndarray:
    """Variance clock v_n = sum_{k<=n} 1/a_k^2 (strictly increasing),
    indexed by n (slot 0 is NaN)."""
    _check_rate(alpha)
    a = _growth_table(alpha, n_max)
    vals = np.empty(n_max + 1)
    vals[0] = np.nan
    vals[1:] = np.cumsum(1.0 / a[1:] ** 2)
    return vals


def growth_values(rate, ns):
    """a_n (or b_n) at the given indices without storing the full table.

    Runs the product recurrence in chunks; O(max n) time, O(chunk) memory.
    """
    _check_rate(rate)
    ns_arr = np.atleast_1d(counts("n", ns, cap=STEPS_CAP, kind="index",
                                  cost="float64 indices"))
    order = np.argsort(ns_arr, kind="stable")
    out = np.empty(ns_arr.size)
    running = 1.0
    lo = 1  # factor index: (1 + rate/k) for k = lo..n-1 carries a_lo to a_n
    for j in order:
        n = int(ns_arr[j])
        while lo < n:
            hi = min(n, lo + _CHUNK)
            facs = 1.0 + rate / np.arange(lo, hi, dtype=np.float64)
            running *= float(np.prod(facs))
            lo = hi
        out[j] = running
    return out if np.ndim(ns) else float(out[0])


def sum_inv_a_closed(alpha: float, n: int, a_n: float) -> float:
    """Exact value of sum_{l=1}^{n-1} 1/a_{l+1} given a_n."""
    _check_rate(alpha)
    return n / ((1.0 - alpha) * a_n) + 1.0 / (alpha - 1.0)


def v_limit_superdiffusive(alpha: float) -> float:
    """Limit v_inf = 3F2(1, 1, 1; alpha+1, alpha+1; 1) of v_n, alpha in (1/2, 1].

    Two routes give the value. The direct route sums the terms
    t_k = (Gamma(k+1) Gamma(alpha+1) / Gamma(k+alpha+1))^2, which follow
    t_0 = 1, t_k = t_{k-1} (k/(k+alpha))^2, until the current term drops
    below `_SCAN_TOL` times the partial sum (and k > 10), then adds an
    Euler-Maclaurin estimate of the omitted tail. The terms decay like
    k^(-2 alpha), so near alpha = 1/2 this stop cannot be reached within
    the `_SCAN_TERMS` terms the scan sums before it gives up.

    The Thomae route (`_v_limit_thomae`) sums a transformed series whose
    terms decay like k^(-2) for every alpha, to ~1e-13 relative. It serves
    wherever the direct route cannot finish. If the last term the scan
    would reach, t_K with K = `_SCAN_TERMS`, is provably at least
    `_SCAN_TOL` times the partial sum through t_K (with a margin for
    rounding), the scan is skipped. If the scan runs and still does not
    stop, the Thomae value replaces the failure. Where the direct route
    stops it keeps its value bit for bit: report digests pin those bits
    (`predict` at alpha = 0.6, `experiment superdiffusive`), so the direct
    route stays until they are re-recorded. The pole of v_inf at
    alpha = 1/2 lies in the Thomae prefactor Gamma(2 alpha - 1), and
    v_inf ~ (pi/4) / (2 alpha - 1) as alpha -> 1/2+, which matches the
    (pi/4) log n clock at alpha = 1/2.

    The direct route's chunk schedule fixes its bits: chunks of 2^16 terms
    doubling up to 2^22, each computing term * cumprod(r) and
    total + cumsum(terms) from its own start. One loop scans the chunks in
    sub-blocks of at most `_SERIES_BLOCK` terms, cut at every chunk edge,
    in three preallocated buffers, carrying both scans across sub-block
    edges; the sub-block width sets speed and memory only.
    """
    if not (isinstance(alpha, Real) and 0.5 < alpha <= 1.0):
        raise OutOfDomain(f"series converges only for alpha in (1/2, 1], got {alpha!r}")
    v_inf = _v_limit_thomae(alpha)
    # the scan stops at the first k > 10 with t_k < _SCAN_TOL * partial_k; t_k
    # falls and partial_k rises, so it cannot stop by the last index K it
    # reaches if t_K >= _SCAN_TOL * partial_K. Wendel's inequality gives
    # t_j >= g2 (j+1)^(-2 alpha): a lower bound on t_K, and one on the tail
    # past K, v_inf - partial_K >= g2 (K+2)^(1-2 alpha) / (2 alpha - 1).
    # v_inf gets 1e-9 relative headroom for the error of the Thomae sum.
    span = 2.0 * alpha - 1.0
    g2 = math.gamma(alpha + 1.0) ** 2
    t_min = g2 * (_SCAN_TERMS + 1.0) ** (-2.0 * alpha)
    partial_max = v_inf * (1.0 + 1e-9) - g2 * (_SCAN_TERMS + 2.0) ** -span / span
    if t_min >= _SKIP_MARGIN * _SCAN_TOL * partial_max:
        return v_inf
    direct = _v_limit_direct(alpha)
    return v_inf if direct is None else direct


def _v_limit_direct(alpha):
    """The direct scan: the value, or None if it does not stop in _SCAN_TERMS."""
    ks = np.arange(1.0, _SERIES_BLOCK + 1.0)  # indices k of the next sub-block
    terms = np.empty(_SERIES_BLOCK)
    partials = np.empty(_SERIES_BLOCK)
    total = term = 1.0  # the k = 0 term, and the partial sum through it
    prod, cum = 1.0, 0.0  # both scans restart at each chunk
    k, chunk, chunk_end = 0, 1 << 16, 1 << 16
    while k < _SCAN_TERMS:
        b = min(_SERIES_BLOCK, chunk_end - k)
        kb, tb, sb = ks[:b], terms[:b], partials[:b]
        np.add(kb, alpha, out=tb)
        np.divide(kb, tb, out=tb)
        np.multiply(tb, tb, out=tb)
        tb[0] *= prod
        np.multiply.accumulate(tb, out=tb)
        prod = tb[-1]
        tb *= term
        first = tb[0]
        tb[0] += cum
        np.add.accumulate(tb, out=sb)
        tb[0] = first
        cum = sb[-1]
        # along a chunk the terms fall and the partial sums rise, so the
        # stop test holds somewhere in a sub-block iff at its end
        if tb[-1] < _SCAN_TOL * (cum + total) and kb[-1] > 10:
            sb += total
            stop = int(np.argmax((tb < _SCAN_TOL * sb) & (kb > 10)))
            return _series_with_tail(alpha, int(kb[stop]),
                                     float(tb[stop]), float(sb[stop]))
        ks += b
        k += b
        if k == chunk_end:
            total, term = float(cum + total), float(tb[-1])
            prod, cum = 1.0, 0.0
            chunk = min(chunk * 2, 1 << 22)
            chunk_end += chunk
    return None


def _series_with_tail(alpha, k, term, total):
    """Partial sum through t_k plus the omitted tail sum_{j>k} t_j."""
    # tail from the first omitted index m: sum_{j>=m} t_j with
    # t_j ~ C (j+s)^(-2a), s = (1+alpha)/2 (midpoint shift of the gamma ratio)
    m = k + 1
    t_m = term * ((m / (m + alpha)) ** 2)
    ms = m + (1.0 + alpha) / 2.0
    tail = t_m * (ms / (2.0 * alpha - 1.0) + 0.5 + alpha / (6.0 * ms))
    return total + tail


def _v_limit_thomae(alpha):
    """v_inf by Thomae's relation for 3F2 at 1 (s = 2 alpha - 1):

        3F2(1, 1, 1; a+1, a+1; 1)
          = Gamma(a+1)^2 Gamma(s) / Gamma(2a)^2 * 3F2(a, a, s; 2a, 2a; 1)

    The new series has term ratio ((a+k)/(2a+k))^2 (s+k)/(1+k) and terms
    that decay like k^(-2). Its tail is a power series in 1/K, so the
    partial sums at K = 2^13..2^16 are extrapolated by Richardson in 1/K.
    """
    s = 2.0 * alpha - 1.0
    k = np.arange(1.0, _THOMAE_TERMS)
    u = (alpha - 1.0 + k) / (s + k)
    u *= u
    u *= (s - 1.0 + k) / k
    np.multiply.accumulate(u, out=u)  # u[k-1] is the k-th term; term 0 is 1
    sums, total, lo = [], 1.0, 0
    for shift in range(_THOMAE_LEVELS, -1, -1):
        hi = (_THOMAE_TERMS >> shift) - 1  # partial sum of terms k < K
        total += float(u[lo:hi].sum())
        sums.append(total)
        lo = hi
    for level in range(1, _THOMAE_LEVELS + 1):
        f = float(1 << level)  # removes the 1/K^level term
        sums = [(f * b - a) / (f - 1.0) for a, b in zip(sums, sums[1:])]
    return (math.gamma(alpha + 1.0) ** 2 * math.gamma(s)
            / math.gamma(2.0 * alpha) ** 2 * sums[0])


def _expected_walk(first, fresh, rate, n):
    """first a_n + fresh a_n sum_{l<n} 1/a_{l+1}, with a_n at `rate`."""
    a_n = growth_values(rate, n)
    return first * a_n + fresh * a_n * sum_inv_a_closed(
        rate, np.asarray(n, dtype=np.float64), a_n)


def expected_s(params: ModelParams, n):
    """Exact E[S_n] from the closed form beta a_n + omega a_n sum 1/a_{l+1}.

    `n` may be an int or an array of ints; arrays return an array.
    """
    c = domain_constants(params, "expected_s")
    return _expected_walk(c.beta, c.omega, c.alpha, n)


def expected_z(params: ModelParams, n):
    """Exact E[Z_n]; same closed form with (psi, gamma, tau, b_n)."""
    c = domain_constants(params, "expected_z")
    return _expected_walk(c.psi, c.tau, c.gamma, n)


@dataclass(frozen=True)
class RegimePrediction:
    """Limit-theorem predictions induced by the regime of alpha."""

    regime: Regime
    alpha: float
    phi: float
    lln_limit: float       # a.s. limit of S_n / n
    z_lln_limit: float     # a.s. limit of Z_n / n
    scale_formula: str

    def variance_scale(self, n) -> float:
        """Predicted Var(S_n) scale phi n log n at the critical point, else
        phi n / |1 - 2 alpha|: for superdiffusive, the Gaussian residual
        scale. `n` is an index or an array of them."""
        n = np.asarray(counts("n", n, cap=STEPS_CAP, kind="index",
                              cost="float64 indices"), dtype=np.float64)
        if self.regime is Regime.CRITICAL:
            out = self.phi * n * np.log(n)
        else:
            out = self.phi * n / abs(1.0 - 2.0 * self.alpha)
        return out if out.ndim else float(out)


def regime_prediction(params: ModelParams) -> RegimePrediction:
    c = domain_constants(params, "a regime prediction")
    if c.regime is Regime.CRITICAL:
        formula = f"{c.phi:.6g} * n * log(n)"
    else:
        formula = f"{c.phi:.6g} * n / {abs(1.0 - 2.0 * c.alpha):.6g}"
    if c.regime is Regime.SUPERDIFFUSIVE:
        formula = f"E[W^2] * a_n^2 + {formula} (residual scale)"
    return RegimePrediction(
        regime=c.regime,
        alpha=c.alpha,
        phi=c.phi,
        lln_limit=c.omega / (1.0 - c.alpha),
        z_lln_limit=c.tau / (1.0 - c.gamma),
        scale_formula=formula,
    )


def lil_envelope(params: ModelParams, n):
    """Iterated-logarithm envelope (the denominator of the limsup statement).

    Critical:      sqrt(2 phi n log n loglog(phi Gamma(3/2) log n))
    Non-critical:  sqrt(2 (phi/|1-2a|) n log|log((phi G^2/|1-2a|) n^(1-2a))|)

    with G = Gamma(alpha + 1); the inner logarithm falls to -infinity in
    the superdiffusive regime and rises in the diffusive one, where it takes
    no bars. Raises DomainTooSmall while the inner (absolute) logarithm is
    still <= 1, i.e. before loglog turns positive.
    """
    c = domain_constants(params, "the LIL envelope", scaled=True)
    scalar = np.ndim(n) == 0
    ns = np.atleast_1d(finite_sample(n, 0, "LIL envelope"))
    if (ns < 2).any():
        raise DomainTooSmall("envelope needs n >= 2")
    if c.regime is Regime.CRITICAL:
        inner = np.log(c.phi * math.gamma(1.5) * np.log(ns))
        scale = c.phi * ns * np.log(ns)
    else:
        span = 1.0 - 2.0 * c.alpha
        g2 = math.gamma(c.alpha + 1.0) ** 2
        with np.errstate(divide="ignore"):  # n^span may underflow to 0
            inner = np.log(c.phi * g2 / abs(span) * ns ** span)
        if c.regime is Regime.SUPERDIFFUSIVE:
            inner = np.abs(inner)
        scale = (c.phi / abs(span)) * ns
    if (inner <= 1.0).any():
        raise DomainTooSmall(
            "inner log-log argument <= 1; increase n before using the envelope"
        )
    env = np.sqrt(2.0 * scale * np.log(inner))
    return float(env[0]) if scalar else env

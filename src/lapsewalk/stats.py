"""Self-contained statistical primitives: normal CDF, Kolmogorov-Smirnov
distance/p-value against N(0,1), and ordinary least squares on log-log axes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidState, SampleTooSmall, finite_sample

_SQRT2 = math.sqrt(2.0)
# fewest sample points a KS test accepts
KS_MIN_POINTS = 10


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc; absolute error well below 1e-10."""
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_cdf_array(xs) -> np.ndarray:
    """normal_cdf at every element, bit for bit."""
    xs = np.asarray(xs, dtype=np.float64)
    return np.array([normal_cdf(v) for v in xs.ravel().tolist()]).reshape(xs.shape)


@dataclass(frozen=True)
class KsResult:
    d_stat: float
    p_value: float
    sample_size: int


def _kolmogorov_sf(t: float) -> float:
    """P(sup |B(t)| > t) series: 2 sum_{j>=1} (-1)^(j-1) exp(-2 j^2 t^2),
    at t > 0 (a KS distance over k points is at least 1/(2k))."""
    total = 0.0
    sign = 1.0
    for j in range(1, 1000):
        term = math.exp(-2.0 * j * j * t * t)
        total += sign * term
        if term < 1e-12:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


def ks_test_normal(sample) -> KsResult:
    """Two-sided KS distance of a sample to N(0,1), with Stephens' small-
    sample correction t = d (sqrt(k) + 0.12 + 0.11/sqrt(k)) in the p-value.
    """
    xs = np.sort(finite_sample(sample, KS_MIN_POINTS, "KS test"))
    k = xs.size
    phi = normal_cdf_array(xs)
    i = np.arange(1, k + 1, dtype=np.float64)
    d = float(max((i / k - phi).max(), (phi - (i - 1.0) / k).max()))
    sqrt_k = math.sqrt(k)
    p = _kolmogorov_sf(d * (sqrt_k + 0.12 + 0.11 / sqrt_k))
    return KsResult(d_stat=d, p_value=p, sample_size=k)


def ks_distance_cdf(exact_cdf) -> float:
    """Exact sup-distance between a finite-support CDF and N(0,1).

    Evaluates both sides of every jump; exact for lattice distributions.
    """
    phi = normal_cdf_array(finite_sample(exact_cdf.points, 1, "KS distance"))
    cdf = finite_sample(exact_cdf.cdf, 0, "KS distance")
    if cdf.size != phi.size:
        raise InvalidState(f"KS distance: {cdf.size} cdf values for {phi.size} points")
    left = np.concatenate(([0.0], cdf[:-1]))
    return float(np.maximum(np.abs(cdf - phi), np.abs(left - phi)).max())


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    stderr_slope: float
    r2: float


def fit_loglog(xs, ys) -> SlopeFit:
    """OLS of ln(y) on ln(x): scaling exponent with its standard error."""
    xs, ys = (finite_sample(v, 3, "log-log fit") for v in (xs, ys))
    if xs.size != ys.size:
        raise SampleTooSmall(f"log-log fit needs one y per x, got {ys.size} ys")
    if (xs <= 0).any() or (ys <= 0).any():
        raise InvalidState("log-log fit needs strictly positive xs and ys")
    lx = np.log(xs)
    ly = np.log(ys)
    mx = lx.mean()
    my = ly.mean()
    dx = lx - mx
    sxx = float(np.dot(dx, dx))
    if sxx == 0.0:
        raise InvalidState("xs are all equal; slope undefined")
    slope = float(np.dot(dx, ly - my)) / sxx
    intercept = my - slope * mx
    resid = ly - (intercept + slope * lx)
    ssr = float(np.dot(resid, resid))
    sst = float(np.dot(ly - my, ly - my))
    r2 = 1.0 if sst == 0.0 else max(0.0, 1.0 - ssr / sst)
    stderr = math.sqrt(max(ssr, 0.0) / (xs.size - 2) / sxx)
    return SlopeFit(slope=slope, intercept=intercept, stderr_slope=stderr, r2=r2)

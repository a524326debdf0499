"""Exception types shared across the package, and the two gates every size,
index and sample passes on its way in: `counts` and `finite_sample`."""

import numpy as np


class LapsewalkError(Exception):
    """Base class for all package errors."""


class InvalidParams(LapsewalkError):
    """Model parameters violate the simplex or range constraints."""


class InvalidState(LapsewalkError):
    """Input or walk state unusable for the requested operation."""


class OutOfDomain(LapsewalkError):
    """Quantity requested outside its domain: alpha < 0, or a regime the
    quantity is not defined in."""


class CapExceeded(LapsewalkError):
    """Exact computation requested beyond its configured size cap."""


class Degenerate(LapsewalkError):
    """A variance scale is zero (phi = 0, Var S_n ~ 0, or n log n at n = 1),
    so nothing can be standardized by it."""


class DomainTooSmall(LapsewalkError):
    """Horizon too small for the iterated-logarithm envelope."""


class SampleTooSmall(LapsewalkError):
    """Statistical test needs a larger sample."""


def counts(name, values, low=1, cap=None, kind="", cost=""):
    """`values` as given: a Python or numpy integer, or an integer array,
    possibly empty. A value that is not an integer (a bool is not), or one
    below `low`, raises InvalidState; one above `cap` raises CapExceeded,
    whose text names the cap's `kind` and `cost`. The caller passes the cap
    when it runs, and Python ints beyond int64 compare exactly."""
    # a list's ints stay exact as objects: numpy reads [-1, 2**63] as floats
    v = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
    if v.size and not (v.dtype.kind in "iu"
                       or all(isinstance(x, (int, np.integer))
                              and not isinstance(x, bool) for x in v.flat)):
        raise InvalidState(f"{name} must be an integer, got {values!r}")
    if v.size and v.min() < low:
        raise InvalidState(f"{name} must be >= {low}, got {v.min()}")
    if v.size and cap is not None and v.max() > cap:
        raise CapExceeded(f"{name} = {v.max()} above the {kind} cap {cap} ({cost})")
    return values


def finite_sample(values, low, what):
    """`values` as a float64 array of at least `low` points, all finite:
    too few raise SampleTooSmall, a NaN, an infinity or a second dimension
    InvalidState."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim > 1:
        raise InvalidState(f"{what} needs a flat sample, got shape {x.shape}")
    if x.size < low:
        raise SampleTooSmall(f"{what} needs >= {low} points, got {x.size}")
    if not np.isfinite(x).all():
        raise InvalidState(f"{what} needs a finite sample")
    return x

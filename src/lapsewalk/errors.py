"""Exception types shared across the package."""


class LapsewalkError(Exception):
    """Base class for all package errors."""


class InvalidParams(LapsewalkError):
    """Model parameters violate the simplex or range constraints."""


class InvalidState(LapsewalkError):
    """Walk state is unusable for the requested operation."""


class OutOfDomain(LapsewalkError):
    """Analytic quantity requested outside its domain (e.g. alpha < 0)."""


class CapExceeded(LapsewalkError):
    """Exact computation requested beyond its configured size cap."""


class DegenerateVariance(LapsewalkError):
    """Standardization impossible: variance is (numerically) zero."""


class Degenerate(LapsewalkError):
    """Predictions are degenerate (phi = 0); standardized experiments refuse."""


class WrongRegime(LapsewalkError):
    """Operation only defined in a different scaling regime."""


class DomainTooSmall(LapsewalkError):
    """Horizon too small for the iterated-logarithm envelope."""


class SampleTooSmall(LapsewalkError):
    """Statistical test needs a larger sample."""


class NonPositive(LapsewalkError):
    """Inputs must be strictly positive (log-log fit)."""

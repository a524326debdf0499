"""Exception types shared across the package."""


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

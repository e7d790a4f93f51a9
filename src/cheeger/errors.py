"""Exception types shared across the library."""


class CheegerError(Exception):
    """Base class for all library errors."""


class InvalidGeometry(CheegerError):
    """Malformed geometric input (open loop, degenerate piece, ...)."""


class SelfIntersecting(CheegerError):
    """A boundary loop or strip intersects itself."""


class ReachViolation(CheegerError):
    """An offset was requested beyond the certified reach of the region."""


class NotADiffeomorphism(CheegerError):
    """Strip parametrization has a non-positive Jacobian somewhere."""


class DomainError(CheegerError):
    """Argument outside the documented domain of an operation."""


class EmptyInnerSet(CheegerError):
    """Inner parallel set is empty at the requested depth."""


class DegenerateInnerSet(CheegerError):
    """End trims of a strip inner set cross; the set degenerates."""


class NoRoot(CheegerError):
    """Root bracketing failed; no sign change on the search interval."""


class PropertyViolation(CheegerError):
    """A structural property that should hold for a solution failed."""


class EmptyRegion(CheegerError):
    """A raster mask holds no set cells."""

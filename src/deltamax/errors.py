"""Exception types shared by all deltamax modules."""

from __future__ import annotations


class DeltamaxError(Exception):
    """Base class for every error raised by this package; `exit_code` is
    the status the CLI exits with when the error ends a subcommand."""
    exit_code = 2


class InvalidArgument(DeltamaxError, ValueError):
    """A numeric argument is outside its valid range (eps, beta or a
    window radius <= 0, NaN or +inf, checked by model.require_positive at
    every entry point, for every eps of a uc grid before the first is
    tested; a stage count or resolution below 1; no directions, an empty
    eps grid, a CLI --dim or --p-count below 1, ...), or a CLI number
    list that does not read as numbers."""


class DimensionMismatch(DeltamaxError):
    """A point and its domain (model.point_in, at every entry point that
    takes a point), or a function and its domain, disagree on dimension:
    a fault of the problem, which no command skips as a failure at one
    point."""
    exit_code = 4


class DomainViolation(DeltamaxError):
    """A point lies outside the domain it was supposed to belong to."""
    exit_code = 4


class NonFinite(DeltamaxError):
    """A value that must be finite is not: f(p) is NaN (f is undefined
    at p), or a point has a non-finite coordinate.

    The strict f(p) rule (model._strict_read, on value_at's reads and on
    the line engine's read of each row's f(p)) raises this for NaN and
    FloatResolutionLimit for +/-inf.
    """
    exit_code = 4


class UnknownCatalogEntry(DeltamaxError):
    """Catalog lookup for a name that was never registered."""


class InvalidDomain(DeltamaxError):
    """DomainSpec parameters violate the constructor invariants."""
    exit_code = 4


class DomainParseError(DeltamaxError):
    """Domain text does not match the `shape:param[:flags]` grammar."""


class LexError(DeltamaxError):
    """Unrecognized character in an expression source string."""

    def __init__(self, position: int, message: str):
        self.position = position
        super().__init__(f"{position}: {message}")


class ParseError(DeltamaxError):
    """Token stream does not form a valid expression."""

    def __init__(self, position: int, message: str, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = expected
        if expected:
            message = f"{message} (expected {', '.join(expected)})"
        super().__init__(f"{position}: {message}")


class UnboundVariable(DeltamaxError):
    """Expression evaluation with a free variable missing from the environment."""


class EmptySpherePreimage(DeltamaxError):
    """No point with |f(x)-f(p)| = eps was found.

    The searched radius is attached so "no preimage within R" can be told
    apart from "no preimage at all", which finite sampling cannot decide.
    """
    exit_code = 3

    def __init__(self, message: str, searched_radius: float):
        self.searched_radius = searched_radius
        super().__init__(message)


class FloatResolutionLimit(DeltamaxError):
    """delta(p, eps) is beyond what float64 resolves at p.

    Either no float other than p itself lies closer to p than the nearest
    violator, so no positive lower bound can be sampled, or f(p) is
    +/-inf: the strict f(p) rule (model._strict_read, on value_at's reads
    and on the line engine's read of each row's f(p)) raises this for
    +/-inf and NonFinite for NaN.
    """
    exit_code = 5


class ConstantFunction(DeltamaxError):
    """Sampled function spread is below tolerance; epsilon bound undefined."""
    exit_code = 3


class WindowTooSmall(DeltamaxError):
    """Oracle window contains no violator but is smaller than the requested radius."""
    exit_code = 4


class WitnessesStagnated(DeltamaxError):
    """Witness-pair distances stopped decreasing before the requested count."""

    def __init__(self, message: str, pairs=None):
        self.pairs = pairs
        super().__init__(message)

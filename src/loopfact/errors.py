"""Exception types shared across the package.

Every failure mode that a caller might want to catch has its own class;
they all derive from LoopFactError so `except LoopFactError` catches any
domain failure without swallowing programming errors.
"""


class LoopFactError(Exception):
    """Base class for all domain errors raised by this package."""


class ZeroConstantTerm(LoopFactError):
    """Series inversion requested for a series with vanishing constant term."""


class NotInvertible(LoopFactError):
    """A truncated block Toeplitz system is singular or too ill conditioned."""


class ShiftedNotInvertible(LoopFactError):
    """The (1,1) entry of the constant Birkhoff factor vanishes, so the
    triangular refinement of the Birkhoff factorization does not exist."""


class VanishingSymbol(LoopFactError):
    """Winding number requested for a function with a zero on the circle."""


class BadNormalization(LoopFactError):
    """Input loop fails a required normalization (wrong matrix form,
    nonpositive constant term, missing unitarity)."""


class RankDeficient(LoopFactError):
    """Least squares system for the upper-triangular datum is rank deficient."""


class TruncationUnstable(LoopFactError):
    """A result changed too much when the truncation window was enlarged."""


class PeelDivergence(LoopFactError):
    """Left-to-right peeling of elementary factors stopped converging."""


class ConsistencyViolation(LoopFactError):
    """The two radial limits of the factorization disagree beyond tolerance."""


class NotFactorizable(LoopFactError):
    """The loop admits no root-subgroup factorization at this truncation."""


class InvalidIndex(LoopFactError):
    """An index pair violates the structural constraints of its family."""


class DenominatorVanishes(LoopFactError):
    """A pointwise denominator on the circle is numerically zero."""


class CapExceeded(LoopFactError):
    """An input is above the documented size cap of an exponential-time
    routine."""


class ParseError(LoopFactError):
    """A JSON document does not match the expected schema."""

"""Exception hierarchy shared by all hopfchar modules.

``DomainError`` covers mathematically invalid inputs (membership failures,
non-invertible elements, truncation overflows); ``ParseError`` covers
malformed textual input.  The CLI maps these to distinct exit codes.
"""


#: The most coproduct terms one table, coefficients one series element,
#: serial bytes one parsed tree key or forest, or rational coordinates the
#: values of one JSON payload (ring width times the basis elements of
#: degree <= N, for rings wider than the rationals) may hold; larger requests
#: raise ``ResourceLimitError`` before any allocation.
SIZE_BUDGET = 2_000_000


class AlgebraError(Exception):
    """Base class for all hopfchar errors."""


class ParseError(AlgebraError):
    """Malformed textual input; ``offset`` is where in the text it failed, if known."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (at offset {offset})")
        self.offset = offset


class DomainError(AlgebraError):
    """A mathematically invalid argument."""


class IncompatibleError(DomainError):
    """Operands disagree on Hopf algebra, coefficient ring or truncation."""


class TruncationOverflowError(DomainError):
    """An operation would produce terms above the truncation degree."""


class ResourceLimitError(DomainError):
    """A request exceeds a configured combinatorial resource cap."""


class AugmentationError(DomainError):
    """A functional has the wrong degree-0 part for the requested operation."""


class NotInvertibleError(DomainError):
    """The degree-0 value is not a unit of the coefficient ring."""


class MembershipError(DomainError):
    """A functional fails a character/infinitesimal-character predicate."""


class IdealError(DomainError):
    """An ideal specification violates its construction requirements."""


class InternalError(AlgebraError):
    """An internal consistency check failed; indicates a bug, not bad input."""

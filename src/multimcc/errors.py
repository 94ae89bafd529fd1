"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "MccError",
    "ValidationError",
    "ZeroTotalError",
    "InvalidAlphaError",
    "InvalidProbabilitiesError",
    "DegenerateMarginalError",
    "ParseError",
]


class MccError(Exception):
    """Base class for every error this package raises deliberately."""


class ValidationError(MccError, ValueError):
    """A value failed construction or argument validation."""


class ZeroTotalError(ValidationError):
    """A counts table with total zero cannot be normalized."""


class InvalidAlphaError(ValidationError):
    """Significance level outside the open interval (0, 1)."""


class InvalidProbabilitiesError(ValidationError):
    """A probability vector is negative somewhere or does not sum to 1."""


class DegenerateMarginalError(MccError):
    """A marginal or variance factor is zero where a formula divides by it.

    Distinct from :class:`ValidationError`: the input is well formed, the
    requested quantity just is not defined on it.
    """


class ParseError(ValidationError):
    """Malformed input document.

    ``code`` is a stable machine-readable identifier; ``line`` and ``column``
    are 1-based positions when they are known.
    """

    def __init__(self, code: str, message: str, *, line: int | None = None,
                 column: int | None = None) -> None:
        super().__init__(message)
        self.code = code
        self.line = line
        self.column = column

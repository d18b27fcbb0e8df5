"""Exception types shared across the package.

The CLI maps these onto exit codes: parse problems exit 2, model/domain
problems exit 3. A fit that does not converge exits 4 from its report,
not from an exception.
"""

__all__ = [
    "InfoEqError",
    "ParseError",
    "EmptyFile",
    "DuplicateTimestamp",
    "DomainError",
    "OutOfRange",
    "ModelDomainError",
    "SingularFit",
    "DegenerateEquilibrium",
    "RankDeficient",
    "InsufficientData",
    "NonConvergence",
]


class InfoEqError(Exception):
    """Base class for all package errors."""


class ParseError(InfoEqError):
    """Malformed input file. Carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EmptyFile(ParseError):
    """Input file contains no data rows."""

    def __init__(self, message="no data rows"):
        super().__init__(message)


class DuplicateTimestamp(ParseError):
    """Two rows map to the same decimal-year timestamp."""


class DomainError(InfoEqError):
    """Value outside the mathematical domain of an operation."""


class OutOfRange(DomainError):
    """Interpolation requested outside the sampled time range."""


class ModelDomainError(DomainError):
    """Model arguments violate a model-specific constraint."""


class SingularFit(InfoEqError):
    """Local regression design matrix is rank deficient."""


class DegenerateEquilibrium(ModelDomainError):
    """Equilibrium is undefined for the given parameters."""


class RankDeficient(InfoEqError):
    """Regression design matrix does not identify the parameters."""


class InsufficientData(InfoEqError):
    """Not enough samples for a statistically meaningful result."""


class NonConvergence(InfoEqError):
    """Iterative routine exhausted its iteration budget."""

"""Exception types shared across the package."""


class MubeveError(Exception):
    """Base class for all errors raised by this package."""


class NotUnitaryError(MubeveError):
    """Operator or channel failed the unitarity check."""


class NotADistributionError(MubeveError):
    """Sequence is not a probability distribution."""


class DimensionMismatchError(MubeveError):
    """Operands have incompatible dimensions."""


class DimensionTooLargeError(MubeveError):
    """Requested size exceeds the supported limits."""


class OutOfRangeError(MubeveError):
    """Scalar argument outside its admissible range."""


class InvalidArrayError(MubeveError):
    """Array argument that numpy cannot read as numbers: a non-numeric
    entry, such as a string, a ragged nesting of lists, or an integer
    beyond the double range.  ``reason`` says which of the two it found."""

    def __init__(self, message, reason):
        super().__init__(message)
        self.reason = reason


class EigensolverError(MubeveError):
    """Eigensolver input has non-finite entries, or LAPACK failed."""


class DependentColumnsError(MubeveError, ValueError):
    """Columns to orthonormalize are numerically linearly dependent."""


class InvalidStateError(MubeveError):
    """Density matrix violates its type invariants."""


class InvalidPovmError(MubeveError):
    """Measurement is not a valid POVM for the given states."""


class UnsupportedCombinationError(MubeveError):
    """Attack specification combines options that are not implemented."""


class TranslationInvarianceError(MubeveError):
    """The Fourier spectrum of the purification Gram profile is not a
    probability vector, or the profile is not a function of i XOR j
    alone.  Signals an implementation bug, not a bad input."""


class TheoremViolation(MubeveError):
    """An audited attack violated a bound that is a proven consequence of
    channel unitarity.  Signals an implementation bug; carries the report."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


class ParseError(MubeveError):
    """Configuration document is not syntactically valid."""


class ValidationError(MubeveError):
    """Configuration document is well-formed but semantically invalid."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field

"""Exception types shared across the package."""


class MubeveError(Exception):
    """Base class for all errors raised by this package."""


class NotHermitianError(MubeveError):
    """Matrix failed the Hermitian symmetry check."""


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


class EigensolverError(MubeveError):
    """Eigensolver input has non-finite entries, or LAPACK failed."""


class InvalidStateError(MubeveError):
    """Density matrix violates its type invariants."""


class InvalidPovmError(MubeveError):
    """Measurement is not a valid POVM for the given states."""


class UnsupportedCombinationError(MubeveError):
    """Attack specification combines options that are not implemented."""


class TranslationInvarianceError(MubeveError):
    """The Gram profile of the purification family is not a function of
    i XOR j alone.  Signals an implementation bug, not a bad input."""


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

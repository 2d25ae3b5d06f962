"""Exception hierarchy, and ``name_some`` for the items a message names.

DataError subclasses map to CLI exit code 3, NumericalError subclasses to 4.
I/O problems are left to the builtin OSError family (exit code 5).
"""


def name_some(names) -> str:
    """The ``names`` of offending items for a message: at most ten, then
    ``and N more``, so the message stays short however many there are."""
    names = list(names)
    shown = ", ".join(names[:10])
    return f"{shown} and {len(names) - 10} more" if len(names) > 10 else shown


class ToolkitError(Exception):
    """Base class for all banknet errors."""


class DataError(ToolkitError):
    """Malformed, inconsistent or out-of-contract input data."""


class SchemaError(DataError):
    """A required column is missing, a config key is unknown, or a file is
    structurally unreadable."""


class ParseError(DataError):
    """A field failed to parse; carries the offending 1-based row number."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class IntegrityError(DataError):
    """Duplicate identifiers or other uniqueness violations."""


class DimensionError(DataError):
    """Vector/matrix shapes do not agree."""


class ArityError(DataError):
    """Wrong number of inputs (e.g. not exactly four quarters)."""


class DomainError(DataError):
    """A value is outside the mathematical domain of an operation."""


class UnknownBankError(DataError):
    """A referenced bank_id is not present in the instance."""


class ClassBalanceError(DataError):
    """A class required for rebalancing is empty."""


class DatasetSizeError(DataError):
    """Too few rows for the requested operation."""


class NumericalError(ToolkitError):
    """Numerical failure: divergence, non-convergence or infeasibility."""


class InfeasibilityError(NumericalError):
    """No solution exists for the given marginals/aggregates."""


class DivergenceError(NumericalError):
    """An iterative fit produced non-finite values."""


class ConvergenceError(NumericalError):
    """An iterative fit failed to converge within its budget."""


class SeparationError(NumericalError):
    """Perfect separation: maximum-likelihood estimates diverge."""


class StageError(ToolkitError):
    """Wraps an error raised inside a named pipeline stage."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause

"""Exception taxonomy for the capset package."""
from __future__ import annotations


class CapsetError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(CapsetError):
    """Dimension mismatch or unsupported dimension."""


class InvalidPointError(CapsetError):
    """A coordinate vector is malformed (wrong length, non-trit entries)."""


class RankRangeError(CapsetError):
    """A rank is outside [0, 3^dim)."""


class DegenerateInputError(CapsetError):
    """Inputs that must be distinct are not (repeated points)."""


class CapacityError(CapsetError):
    """The operation needs a dense bitmap beyond the supported dimension."""


class WorkerError(CapsetError):
    """A sweep worker process died before sending its result."""


class ConstructionError(CapsetError):
    """A construction received inputs that violate its contract."""


class SeedError(ConstructionError):
    """Requested seed P-set exists only for dimensions 1 and 2."""


class PreconditionError(ConstructionError):
    """A named hypothesis check failed, with a re-checkable witness."""

    def __init__(self, check: str, message: str, witness: tuple | None = None):
        super().__init__(f"{check}: {message}")
        self.check = check
        self.witness = witness


class FileFormatError(CapsetError):
    """A capset file violates the format; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ExprError(CapsetError):
    """Base for construction-expression errors; carries a byte offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"offset {position}: {message}")
        self.position = position


class ExprSyntaxError(ExprError):
    """Malformed expression text."""


class ExprNameError(ExprError):
    """Unknown generator or operator name."""


class ExprArityError(ExprError):
    """Operator applied to the wrong number of operands."""

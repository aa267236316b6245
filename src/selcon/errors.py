"""Exception types shared across the package.

Every error raised by the library derives from :class:`SelconError`; those
that blame the input derive from :class:`UsageError`, on which the CLI exits
with code 2 rather than 1.
"""


class SelconError(Exception):
    """Base class for all library errors."""


class UsageError(SelconError):
    """The input or the requested size is invalid; the CLI exits with 2."""


# --- dataset ---------------------------------------------------------------

class MissingColumn(UsageError):
    def __init__(self, column: str):
        super().__init__(f"column {column!r} not found in header")
        self.column = column


class ColumnConflict(UsageError):
    """The group column is the target column."""


class ParseFailure(UsageError):
    def __init__(self, row: int, col: str, value: str):
        super().__init__(f"cannot parse cell {value!r} at row {row}, column {col!r}")
        self.row = row
        self.col = col


class NonFiniteValue(UsageError):
    def __init__(self, row: int, col: str):
        super().__init__(f"non-finite value at row {row}, column {col!r}")
        self.row = row
        self.col = col


class EmptyFile(UsageError):
    pass


class EmptySplit(UsageError):
    pass


class MissingGroups(UsageError):
    pass


# --- models / linear algebra ------------------------------------------------

class DimensionMismatch(SelconError):
    pass


# --- trainers ----------------------------------------------------------------

class NotConverged(SelconError):
    """Tolerance not met within the iteration budget; carries the best value."""

    def __init__(self, message: str, value=None):
        super().__init__(message)
        self.value = value


class DivergenceDetected(SelconError):
    pass


# --- set function / selection -------------------------------------------------

class ElementAlreadyPresent(SelconError):
    pass


class InvalidK(UsageError):
    pass


class InvalidAlpha(SelconError):
    pass


class TooLarge(UsageError):
    pass


# --- bounds / metrics ----------------------------------------------------------

class ZeroTarget(UsageError):
    def __init__(self):
        super().__init__(
            "some |y| is zero; add an offset to the targets "
            "(see dataset.offset_augment) before computing data constants"
        )


class EmptyDataset(SelconError):
    pass


class NeedTwoGroups(UsageError):
    pass

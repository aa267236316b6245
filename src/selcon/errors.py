"""Exception types shared across the package.

Every error raised by the library derives from :class:`SelconError` so that
CLI entry points can map library failures onto exit codes uniformly.
"""


class SelconError(Exception):
    """Base class for all library errors."""


# --- dataset ---------------------------------------------------------------

class MissingColumn(SelconError):
    def __init__(self, column: str):
        super().__init__(f"column {column!r} not found in header")
        self.column = column


class ParseFailure(SelconError):
    def __init__(self, row: int, col: str, value: str):
        super().__init__(f"cannot parse cell {value!r} at row {row}, column {col!r}")
        self.row = row
        self.col = col


class NonFiniteValue(SelconError):
    def __init__(self, row: int, col: str):
        super().__init__(f"non-finite value at row {row}, column {col!r}")
        self.row = row
        self.col = col


class EmptyFile(SelconError):
    pass


class EmptySplit(SelconError):
    pass


class MissingGroups(SelconError):
    pass


# --- models / linear algebra ------------------------------------------------

class DimensionMismatch(SelconError):
    pass


class SingularSystem(SelconError):
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


class InvalidK(SelconError):
    pass


class InvalidAlpha(SelconError):
    pass


class TooLarge(SelconError):
    pass


# --- bounds / metrics ----------------------------------------------------------

class ZeroTarget(SelconError):
    def __init__(self):
        super().__init__(
            "some |y| is zero; add an offset to the targets "
            "(see dataset.offset_augment) before computing data constants"
        )


class EmptyDataset(SelconError):
    pass


class NeedTwoGroups(SelconError):
    pass

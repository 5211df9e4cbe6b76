"""Exception hierarchy shared by all stripehouse components."""


class StripehouseError(Exception):
    """Base class for all stripehouse errors."""


# --- catalog ---

class DuplicateTable(StripehouseError):
    pass


class InvalidSchema(StripehouseError):
    pass


class UnknownTable(StripehouseError):
    pass


class NonContiguousPartitionId(StripehouseError):
    pass


class FormatMismatch(StripehouseError):
    pass


# --- storage ---

class IllegalCharacter(StripehouseError):
    pass


class TypeMismatch(StripehouseError):
    pass


class IoFailure(StripehouseError):
    pass


class MalformedRecord(StripehouseError):
    """Raised with the 1-based line number of the offending record."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message)
        self.line_no = line_no


class BadMagic(StripehouseError):
    pass


class CorruptFooter(StripehouseError):
    pass


# --- ingestion ---

class HeaderMismatch(StripehouseError):
    pass


class ParseError(StripehouseError):
    """CSV value failed to parse; carries 1-based row and column positions."""

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


class ArityError(StripehouseError):
    pass


# --- query language ---

class LexError(StripehouseError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class QuerySyntaxError(StripehouseError):
    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
        self.expected = expected


class UnknownColumn(StripehouseError):
    pass


class QueryTypeError(StripehouseError):
    pass


class NonIncreasingEdges(StripehouseError):
    pass


# --- engine ---

class MemoryBudgetExceeded(StripehouseError):
    pass


class EngineBusy(StripehouseError):
    pass


# --- service ---

class InvalidConfig(StripehouseError):
    """A service file is missing, unreadable or malformed."""

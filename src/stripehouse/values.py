"""Value model: INT64 -> int, FLOAT64 -> float, STRING -> str, DATE -> int
days since 1970-01-01 (ISO YYYY-MM-DD in SQL and results), NULL -> None.
"""

from __future__ import annotations

from datetime import date, timedelta

from .errors import TypeMismatch
from .schema import ColumnType

_EPOCH = date(1970, 1, 1)


def days_to_iso(days: int) -> str:
    return (_EPOCH + timedelta(days=days)).isoformat()


def iso_to_days(text: str) -> int:
    return (date.fromisoformat(text) - _EPOCH).days


def check_value(value, ctype: ColumnType, nullable: bool, col_name: str) -> None:
    """Raise TypeMismatch unless value conforms to the column type."""
    if value is None:
        if not nullable:
            raise TypeMismatch(f"column {col_name} is not nullable")
        return
    if ctype is ColumnType.INT64 or ctype is ColumnType.DATE:
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeMismatch(f"column {col_name}: expected int, got {type(value).__name__}")
    elif ctype is ColumnType.FLOAT64:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise TypeMismatch(f"column {col_name}: expected float, got {type(value).__name__}")
    elif ctype is ColumnType.STRING:
        if not isinstance(value, str):
            raise TypeMismatch(f"column {col_name}: expected str, got {type(value).__name__}")

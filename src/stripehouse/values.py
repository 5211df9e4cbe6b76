"""Value model: INT64 -> int, FLOAT64 -> float, STRING -> str, DATE -> int
days since 1970-01-01 (ISO YYYY-MM-DD in SQL and results), NULL -> None.
"""

from __future__ import annotations

from datetime import date, timedelta

_EPOCH = date(1970, 1, 1)


def days_to_iso(days: int) -> str:
    return (_EPOCH + timedelta(days=days)).isoformat()


def iso_to_days(text: str) -> int:
    return (date.fromisoformat(text) - _EPOCH).days


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
# years 1-9999, the range days_to_iso can format
DAYS_MIN, DAYS_MAX = iso_to_days(date.min.isoformat()), iso_to_days(date.max.isoformat())

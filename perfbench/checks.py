"""Exact comparison of a query answer with the reference answer."""

from __future__ import annotations


def _same(a, b) -> bool:
    # exact: an int is not a float, and floats must be bit-for-bit equal
    return type(a) is type(b) and a == b


def mismatch(expected: list, got) -> str | None:
    """None when ``got`` (rows as tuples or lists) equals ``expected``, else why not."""
    if got is None:
        return "no result"
    rows = [list(r) for r in got]
    if len(rows) != len(expected):
        return f"{len(rows)} rows, expected {len(expected)}"
    for i, (want, have) in enumerate(zip(expected, rows)):
        if len(want) != len(have) or not all(_same(a, b) for a, b in zip(want, have)):
            return f"row {i} is {have!r}, expected {want!r}"
    return None

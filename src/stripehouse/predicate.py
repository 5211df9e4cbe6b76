"""Storage-level predicate conjuncts, resolved to column positions.

NULL fails every comparison; float comparisons follow IEEE-754, so NaN
satisfies only ``!=``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Conjunct:
    """One ``column op literal`` comparison against a schema column index."""

    col: int
    op: str
    value: object  # typed literal: int, float, or str
